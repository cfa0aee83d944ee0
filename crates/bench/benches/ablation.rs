//! Ablation bench: quantifies the design choices DESIGN.md calls out by
//! measuring the *resulting schedule quality* (measured latency), not just
//! solver speed:
//!
//! * contention-aware vs contention-blind objective (the paper's core
//!   claim: blind cost functions mispredict and lose),
//! * ε (Eq. 9) sweep: strict vs relaxed overlap tolerance,
//! * transition-cost modeling on/off,
//! * contention-model calibration grid resolution.
//!
//! The runner measures the scheduling time per configuration; the schedule
//! quality for each configuration is printed once at startup so the
//! ablation table lands in the bench output.

use haxconn_bench::microbench::Runner;
use haxconn_contention::ContentionModel;
use haxconn_core::measure::execute;
use haxconn_core::problem::{DnnTask, SchedulerConfig, Workload};
use haxconn_core::scheduler::HaxConn;
use haxconn_dnn::Model;
use haxconn_profiler::NetworkProfile;
use haxconn_soc::xavier_agx;
use std::hint::black_box;

fn workload(platform: &haxconn_soc::Platform) -> Workload {
    Workload::concurrent(vec![
        DnnTask::new("VGG19", NetworkProfile::profile(platform, Model::Vgg19, 10)),
        DnnTask::new(
            "ResNet152",
            NetworkProfile::profile(platform, Model::ResNet152, 10),
        ),
    ])
}

fn main() {
    let runner = Runner::from_args();
    let platform = xavier_agx();
    let contention = ContentionModel::calibrate(&platform);
    let w = workload(&platform);

    // --- schedule-quality ablation table (printed once) ---
    let quality = |cfg: SchedulerConfig, cm: &ContentionModel| -> f64 {
        let s = HaxConn::schedule(&platform, &w, cm, cfg);
        execute(&platform, &w, &s.assignment).makespan_ms
    };
    println!("\nablation: measured latency of the chosen schedule (VGG19+ResNet152, Xavier)");
    let aware = quality(SchedulerConfig::default(), &contention);
    let blind = quality(
        SchedulerConfig {
            contention_aware: false,
            ..Default::default()
        },
        &contention,
    );
    println!("  contention-aware objective : {aware:.2} ms");
    println!(
        "  contention-blind objective : {blind:.2} ms ({:+.1}%)",
        100.0 * (blind - aware) / aware
    );
    for eps in [Some(0.05), Some(0.35), Some(1.0), None] {
        let q = quality(
            SchedulerConfig {
                epsilon_ms: eps,
                ..Default::default()
            },
            &contention,
        );
        println!(
            "  epsilon = {:>8}        : {q:.2} ms",
            match eps {
                Some(e) => format!("{e} ms"),
                None => "relaxed".into(),
            }
        );
    }
    for (nx, ny, label) in [
        (3, 3, "coarse 3x3"),
        (7, 9, "default 7x9"),
        (17, 21, "fine 17x21"),
    ] {
        let cm = ContentionModel::calibrate_with_grid(&platform, nx, ny);
        let q = quality(SchedulerConfig::default(), &cm);
        println!("  calibration grid {label:>10}: {q:.2} ms");
    }

    // --- solver-time benches per configuration ---
    runner.bench("solve_contention_aware", || {
        black_box(HaxConn::schedule(
            &platform,
            &w,
            &contention,
            SchedulerConfig::default(),
        ))
    });
    runner.bench("solve_contention_blind", || {
        black_box(HaxConn::schedule(
            &platform,
            &w,
            &contention,
            SchedulerConfig {
                contention_aware: false,
                ..Default::default()
            },
        ))
    });
    runner.bench("solve_relaxed_epsilon", || {
        black_box(HaxConn::schedule(
            &platform,
            &w,
            &contention,
            SchedulerConfig {
                epsilon_ms: None,
                ..Default::default()
            },
        ))
    });
    runner.bench("solve_transition_budget_3", || {
        black_box(HaxConn::schedule(
            &platform,
            &w,
            &contention,
            SchedulerConfig {
                max_transitions_per_task: 3,
                ..Default::default()
            },
        ))
    });
}
