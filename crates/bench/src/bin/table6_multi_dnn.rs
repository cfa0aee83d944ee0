//! Table 6 — the ten multi-DNN experiments of Scenarios 2 (parallel on the
//! same data), 3 (streaming pipeline), and 4 (hybrid), across the three
//! platforms, against all baselines.
//!
//! Scenario 3 workloads are *streaming*: while DNN-2 processes frame k,
//! DNN-1 already processes frame k+1. We unroll two consecutive frames and
//! tie each DNN's assignment across frames (one static schedule, reused —
//! exactly how the paper deploys the schedules); throughput is
//! frames/makespan.
//!
//! Shapes to reproduce: HaX-CoNN never loses; improvements up to ~20% on
//! favorable pairs; experiment 4 correctly degenerates to GPU-only
//! (paper: "HaX-CoNN opts not to use DLA for none of the layers");
//! Herald/H2H often trail the naive baselines; the Snapdragon runs an
//! order of magnitude slower in absolute terms.

use haxconn_bench::{improvement_pct, profile, transition_summary};
use haxconn_contention::ContentionModel;
use haxconn_core::baselines::{Baseline, BaselineKind};
use haxconn_core::measure::execute;
use haxconn_core::problem::{DnnTask, Objective, SchedulerConfig, Workload};
use haxconn_core::scheduler::HaxConn;
use haxconn_dnn::Model;
use haxconn_soc::{orin_agx, snapdragon_865, xavier_agx, Platform};

enum Scenario {
    /// Concurrent DNNs on the same input (Scenario 2).
    Parallel(Vec<Model>),
    /// Streaming two-stage pipeline, unrolled over 2 frames (Scenario 3).
    Pipeline(Model, Model),
    /// Serial pair + one parallel DNN (Scenario 4).
    Hybrid(Model, Model, Model),
}

struct Experiment {
    id: usize,
    goal: Objective,
    platform: Platform,
    scenario: Scenario,
}

fn experiments() -> Vec<Experiment> {
    use Model::*;
    use Objective::*;
    use Scenario::*;
    vec![
        Experiment {
            id: 1,
            goal: MinMaxLatency,
            platform: xavier_agx(),
            scenario: Parallel(vec![Vgg19, ResNet152]),
        },
        Experiment {
            id: 2,
            goal: MinMaxLatency,
            platform: xavier_agx(),
            scenario: Parallel(vec![ResNet152, InceptionV4]),
        },
        Experiment {
            id: 3,
            goal: MaxThroughput,
            platform: xavier_agx(),
            scenario: Pipeline(AlexNet, ResNet101),
        },
        Experiment {
            id: 4,
            goal: MaxThroughput,
            platform: xavier_agx(),
            scenario: Pipeline(ResNet101, GoogleNet),
        },
        Experiment {
            id: 5,
            goal: MinMaxLatency,
            platform: xavier_agx(),
            scenario: Hybrid(GoogleNet, ResNet152, FcnResNet18),
        },
        Experiment {
            id: 6,
            goal: MinMaxLatency,
            platform: orin_agx(),
            scenario: Parallel(vec![Vgg19, ResNet152]),
        },
        Experiment {
            id: 7,
            goal: MaxThroughput,
            platform: orin_agx(),
            scenario: Pipeline(GoogleNet, ResNet101),
        },
        Experiment {
            id: 8,
            goal: MinMaxLatency,
            platform: orin_agx(),
            scenario: Hybrid(ResNet101, GoogleNet, InceptionV4),
        },
        Experiment {
            id: 9,
            goal: MaxThroughput,
            platform: snapdragon_865(),
            scenario: Pipeline(GoogleNet, ResNet101),
        },
        Experiment {
            id: 10,
            goal: MinMaxLatency,
            platform: snapdragon_865(),
            scenario: Parallel(vec![InceptionV4, ResNet152]),
        },
    ]
}

/// Builds the workload and the frame count it represents.
fn build_workload(platform: &Platform, scenario: &Scenario) -> (Workload, usize, String) {
    match scenario {
        Scenario::Parallel(models) => {
            let w = Workload::concurrent(
                models
                    .iter()
                    .map(|&m| DnnTask::new(m.name(), profile(platform, m)))
                    .collect(),
            );
            let desc = models
                .iter()
                .map(|m| m.name())
                .collect::<Vec<_>>()
                .join(" || ");
            (w, 1, desc)
        }
        Scenario::Pipeline(a, b) => {
            let pa = profile(platform, *a);
            let pb = profile(platform, *b);
            let w = Workload::concurrent(vec![
                DnnTask::new(format!("{}#f0", a.name()), pa.clone()),
                DnnTask::new(format!("{}#f0", b.name()), pb.clone()),
                DnnTask::new(format!("{}#f1", a.name()), pa),
                DnnTask::new(format!("{}#f1", b.name()), pb),
            ])
            .with_dep(0, 1)
            .with_dep(2, 3)
            .with_tie(2, 0)
            .with_tie(3, 1);
            (w, 2, format!("{} -> {} (2 frames)", a.name(), b.name()))
        }
        Scenario::Hybrid(a, b, c) => {
            let w = Workload::concurrent(vec![
                DnnTask::new(a.name(), profile(platform, *a)),
                DnnTask::new(b.name(), profile(platform, *b)),
                DnnTask::new(c.name(), profile(platform, *c)),
            ])
            .with_dep(0, 1);
            (
                w,
                1,
                format!("{} -> {} || {}", a.name(), b.name(), c.name()),
            )
        }
    }
}

fn main() {
    println!("Table 6: multi-DNN experiments (scenarios 2-4)\n");
    for exp in experiments() {
        let platform = &exp.platform;
        let contention = ContentionModel::calibrate(platform);
        let (workload, frames, desc) = build_workload(platform, &exp.scenario);
        println!(
            "Exp {:>2} [{}] {} ({})",
            exp.id,
            match exp.goal {
                Objective::MinMaxLatency => "Min Latency",
                Objective::MaxThroughput => "Max FPS",
            },
            desc,
            platform.name
        );

        let fps_of = |latency_ms: f64| 1000.0 * frames as f64 / latency_ms;
        let mut best_lat = f64::INFINITY;
        for &kind in BaselineKind::all() {
            let a = Baseline::assignment(kind, platform, &workload);
            let m = execute(platform, &workload, &a);
            best_lat = best_lat.min(m.makespan_ms);
            println!(
                "  {:<10} lat {:>8.2} ms  fps {:>7.1}",
                kind.name(),
                m.makespan_ms,
                fps_of(m.makespan_ms)
            );
        }
        // For unrolled streaming pipelines, "Max FPS" = maximize
        // frames/makespan = minimize the maximum completion (Eq. 11);
        // Eq. 10's per-task throughput sum would reward early single-frame
        // completions instead of pipeline throughput.
        let sched_goal = if matches!(exp.scenario, Scenario::Pipeline(..)) {
            Objective::MinMaxLatency
        } else {
            exp.goal
        };
        let schedule = HaxConn::schedule_validated(
            platform,
            &workload,
            &contention,
            SchedulerConfig::with_objective(sched_goal),
        );
        let m = execute(platform, &workload, &schedule.assignment);
        println!(
            "  {:<10} lat {:>8.2} ms  fps {:>7.1}   improvement: {:+.0}%",
            "HaX-CoNN",
            m.makespan_ms,
            fps_of(m.makespan_ms),
            improvement_pct(best_lat, m.makespan_ms),
        );
        println!(
            "  schedule: {} | TR: {}\n",
            schedule.describe(platform, &workload),
            transition_summary(platform, &workload, &schedule)
        );
    }
}
