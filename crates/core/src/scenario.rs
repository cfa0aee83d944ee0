//! First-class builders for the paper's four evaluation scenarios
//! (Section 5).
//!
//! * **Scenario 1** — multiple instances of the same DNN processing
//!   consecutive images concurrently (throughput farming).
//! * **Scenario 2** — different DNNs processing the *same* input in
//!   parallel, synchronizing afterwards (e.g. detection + segmentation).
//! * **Scenario 3** — a streaming two-stage pipeline (detection → tracking)
//!   over consecutive frames; unrolled here with per-frame dependencies and
//!   tied per-frame assignments.
//! * **Scenario 4** — a serial pair plus an independent DNN in parallel.

use crate::baselines::{Baseline, BaselineKind};
use crate::encoding::ScheduleEncoding;
use crate::problem::{DnnTask, Objective, SchedulerConfig, Workload};
use haxconn_dnn::Model;
use haxconn_profiler::NetworkProfile;
use haxconn_soc::{orin_agx_dual_dla, Platform};
use haxconn_solver::{Assignment, CostModel};
use std::sync::Arc;

/// One of the paper's evaluation scenarios, with the models involved.
#[derive(Debug, Clone)]
pub enum Scenario {
    /// N concurrent instances of one DNN (Scenario 1).
    SameDnnInstances {
        /// The replicated model.
        model: Model,
        /// Number of instances.
        instances: usize,
    },
    /// Different DNNs on the same input (Scenario 2).
    ParallelSameInput {
        /// Concurrent models.
        models: Vec<Model>,
    },
    /// `first → second` streaming pipeline unrolled over frames
    /// (Scenario 3).
    StreamingPipeline {
        /// The producer stage.
        first: Model,
        /// The consumer stage.
        second: Model,
        /// Number of in-flight frames to unroll (≥ 2 for overlap).
        frames: usize,
    },
    /// `first → second` serial pair with `parallel` running alongside
    /// (Scenario 4).
    Hybrid {
        /// Producer of the serial pair.
        first: Model,
        /// Consumer of the serial pair.
        second: Model,
        /// The independent concurrent model.
        parallel: Model,
    },
}

impl Scenario {
    /// The objective the paper pairs with this scenario.
    pub fn default_objective(&self) -> Objective {
        match self {
            // Throughput farming and pipelines optimize frames/time, which
            // for a fixed frame count is the makespan (Eq. 11); Scenario 1
            // uses the aggregate-throughput form (Eq. 10).
            Scenario::SameDnnInstances { .. } => Objective::MaxThroughput,
            Scenario::ParallelSameInput { .. } => Objective::MinMaxLatency,
            Scenario::StreamingPipeline { .. } => Objective::MinMaxLatency,
            Scenario::Hybrid { .. } => Objective::MinMaxLatency,
        }
    }

    /// Number of frames this workload represents (for throughput
    /// reporting).
    pub fn frames(&self) -> usize {
        match self {
            Scenario::StreamingPipeline { frames, .. } => *frames,
            _ => 1,
        }
    }

    /// Builds the workload on `platform`, profiling each distinct model
    /// once with `groups` layer groups.
    pub fn workload(&self, platform: &Platform, groups: usize) -> Workload {
        let profile = |m: Model| Arc::new(NetworkProfile::profile(platform, m, groups));
        match self {
            Scenario::SameDnnInstances { model, instances } => {
                assert!(*instances >= 2, "scenario 1 needs at least two instances");
                let p = profile(*model);
                Workload::concurrent(
                    (0..*instances)
                        .map(|i| DnnTask::new(format!("{}#{i}", model.name()), p.clone()))
                        .collect(),
                )
            }
            Scenario::ParallelSameInput { models } => {
                assert!(models.len() >= 2, "scenario 2 needs at least two DNNs");
                Workload::concurrent(
                    models
                        .iter()
                        .map(|&m| DnnTask::new(m.name(), profile(m)))
                        .collect(),
                )
            }
            Scenario::StreamingPipeline {
                first,
                second,
                frames,
            } => {
                assert!(*frames >= 1, "need at least one frame");
                let pa = profile(*first);
                let pb = profile(*second);
                let mut tasks = Vec::with_capacity(frames * 2);
                for f in 0..*frames {
                    tasks.push(DnnTask::new(format!("{}#f{f}", first.name()), pa.clone()));
                    tasks.push(DnnTask::new(format!("{}#f{f}", second.name()), pb.clone()));
                }
                let mut w = Workload::concurrent(tasks);
                for f in 0..*frames {
                    w = w.with_dep(2 * f, 2 * f + 1);
                    if f > 0 {
                        w = w.with_tie(2 * f, 0).with_tie(2 * f + 1, 1);
                    }
                }
                w
            }
            Scenario::Hybrid {
                first,
                second,
                parallel,
            } => Workload::concurrent(vec![
                DnnTask::new(first.name(), profile(*first)),
                DnnTask::new(second.name(), profile(*second)),
                DnnTask::new(parallel.name(), profile(*parallel)),
            ])
            .with_dep(0, 1),
        }
    }
}

/// A seeded solver-stress instance: a random layer-group DAG of DNN
/// instances drawn from the model zoo, on a parameterized SoC. Feeds the
/// portfolio benchmark, the large-instance fuzzer, and `haxconn solve`
/// with instances far beyond the paper's hand-picked scenarios (50+
/// decision variables).
#[derive(Debug, Clone)]
pub struct GeneratedInstance {
    /// Reproducible label, e.g. `"gen7-7x8"` (seed 7, 7 tasks × 8 groups).
    pub name: String,
    /// Target platform (the default generator uses the dual-DLA Orin, so
    /// the N-PU path is exercised).
    pub platform: Platform,
    /// The random workload: duplicated instances appear naturally, and
    /// sparse random forward edges form the streaming DAG.
    pub workload: Workload,
    /// Configuration tuned for large heuristic instances: ε relaxed
    /// (queuing modeled, not forbidden) so feasibility reduces to the
    /// transition budget and LNS repair can always complete a suffix.
    pub config: SchedulerConfig,
    /// The generator seed, for reproduction.
    pub seed: u64,
}

impl GeneratedInstance {
    /// The best baseline under `enc`'s own cost (`enc` encodes this
    /// instance), as a warm-start incumbent: a solve seeded with it can
    /// only improve on the paper's static heuristics. Ties keep the first
    /// baseline in [`BaselineKind::all`] order. With ε relaxed, GPU-only
    /// has zero transitions, so one always exists.
    pub fn best_baseline(&self, enc: &ScheduleEncoding<'_>) -> Option<(Assignment, f64)> {
        let mut best: Option<(Assignment, f64)> = None;
        for &kind in BaselineKind::all() {
            let rows = Baseline::assignment(kind, &self.platform, &self.workload);
            let Some(flat) = enc.to_flat(&rows) else {
                continue;
            };
            if let Some(c) = enc.cost(&flat) {
                if best.as_ref().is_none_or(|&(_, b)| c < b) {
                    best = Some((flat, c));
                }
            }
        }
        best
    }
}

/// xorshift64* step (same generator family as the solver's LNS — small,
/// seedable, dependency-free).
fn gen_next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Generates a random instance on the dual-DLA Orin (GPU + 2×DLA).
/// `num_tasks × groups` is the decision-variable count; 7×8 already
/// clears the 50-group mark the portfolio targets.
pub fn generate_instance(seed: u64, num_tasks: usize, groups: usize) -> GeneratedInstance {
    generate_instance_on(orin_agx_dual_dla(), seed, num_tasks, groups)
}

/// [`generate_instance`] on an explicit platform.
///
/// Deterministic in `(seed, num_tasks, groups)` and the platform: models
/// are drawn with replacement from a fixed zoo subset (duplicates are
/// deliberate), and each non-root task receives a random upstream
/// dependency with probability 1/4 (edges always point forward, so the
/// DAG is acyclic by construction).
pub fn generate_instance_on(
    platform: Platform,
    seed: u64,
    num_tasks: usize,
    groups: usize,
) -> GeneratedInstance {
    assert!(num_tasks >= 1 && groups >= 1, "degenerate instance");
    const POOL: [Model; 6] = [
        Model::GoogleNet,
        Model::ResNet18,
        Model::ResNet50,
        Model::MobileNetV1,
        Model::AlexNet,
        Model::DenseNet121,
    ];
    let mut state = (seed ^ 0x9E37_79B9_7F4A_7C15) | 1;
    let mut profiles: Vec<Option<Arc<NetworkProfile>>> = vec![None; POOL.len()];
    let mut counts = [0usize; POOL.len()];
    let mut tasks = Vec::with_capacity(num_tasks);
    for _ in 0..num_tasks {
        let m = (gen_next(&mut state) % POOL.len() as u64) as usize;
        let profile =
            Arc::clone(profiles[m].get_or_insert_with(|| {
                Arc::new(NetworkProfile::profile(&platform, POOL[m], groups))
            }));
        tasks.push(DnnTask::new(
            format!("{}#{}", POOL[m].name(), counts[m]),
            profile,
        ));
        counts[m] += 1;
    }
    let mut workload = Workload::concurrent(tasks);
    for to in 1..num_tasks {
        if gen_next(&mut state).is_multiple_of(4) {
            let from = (gen_next(&mut state) % to as u64) as usize;
            workload = workload.with_dep(from, to);
        }
    }
    GeneratedInstance {
        name: format!("gen{seed}-{num_tasks}x{groups}"),
        platform,
        workload,
        config: SchedulerConfig {
            epsilon_ms: None,
            ..Default::default()
        },
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::execute;
    use crate::problem::SchedulerConfig;
    use crate::scheduler::HaxConn;
    use haxconn_contention::ContentionModel;
    use haxconn_soc::orin_agx;

    #[test]
    fn scenario1_builds_instances() {
        let p = orin_agx();
        let w = Scenario::SameDnnInstances {
            model: Model::GoogleNet,
            instances: 3,
        }
        .workload(&p, 6);
        assert_eq!(w.tasks.len(), 3);
        assert!(w.deps.is_empty());
        assert_eq!(w.tasks[0].num_groups(), w.tasks[2].num_groups());
    }

    #[test]
    fn scenario3_unrolls_with_ties_and_deps() {
        let p = orin_agx();
        let s = Scenario::StreamingPipeline {
            first: Model::GoogleNet,
            second: Model::ResNet18,
            frames: 3,
        };
        let w = s.workload(&p, 6);
        assert_eq!(w.tasks.len(), 6);
        assert_eq!(w.deps.len(), 3);
        // Frames 1 and 2 tie back to frame 0's tasks.
        assert_eq!(w.ties[2], Some(0));
        assert_eq!(w.ties[3], Some(1));
        assert_eq!(w.ties[4], Some(0));
        assert_eq!(w.ties[5], Some(1));
        assert_eq!(s.frames(), 3);
    }

    #[test]
    fn scenario4_has_one_dep() {
        let p = orin_agx();
        let w = Scenario::Hybrid {
            first: Model::ResNet18,
            second: Model::GoogleNet,
            parallel: Model::ResNet50,
        }
        .workload(&p, 6);
        assert_eq!(w.tasks.len(), 3);
        assert_eq!(w.deps.len(), 1);
        assert_eq!(w.upstream(1), vec![0]);
    }

    #[test]
    fn scenarios_schedule_end_to_end() {
        let p = orin_agx();
        let cm = ContentionModel::calibrate(&p);
        let scenarios = [
            Scenario::SameDnnInstances {
                model: Model::ResNet18,
                instances: 2,
            },
            Scenario::ParallelSameInput {
                models: vec![Model::GoogleNet, Model::ResNet50],
            },
            Scenario::StreamingPipeline {
                first: Model::ResNet18,
                second: Model::GoogleNet,
                frames: 2,
            },
        ];
        for s in scenarios {
            let w = s.workload(&p, 6);
            let cfg = SchedulerConfig::with_objective(s.default_objective());
            let sched = HaxConn::schedule_validated(&p, &w, &cm, cfg);
            let hax = execute(&p, &w, &sched.assignment);
            for &kind in BaselineKind::all() {
                let a = Baseline::assignment(kind, &p, &w);
                let base = execute(&p, &w, &a);
                match cfg.objective {
                    Objective::MinMaxLatency => {
                        assert!(hax.makespan_ms <= base.makespan_ms + 1e-9)
                    }
                    Objective::MaxThroughput => assert!(hax.fps() >= base.fps() - 1e-9),
                }
            }
        }
    }

    #[test]
    fn generated_instances_are_deterministic_and_large_enough() {
        let a = generate_instance(7, 7, 8);
        let b = generate_instance(7, 7, 8);
        assert_eq!(a.name, "gen7-7x8");
        assert!(a.workload.num_vars() >= 50, "got {}", a.workload.num_vars());
        assert_eq!(a.platform.dnn_pus().len(), 3, "N-PU platform expected");
        let names = |w: &Workload| w.tasks.iter().map(|t| t.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&a.workload), names(&b.workload));
        assert_eq!(a.workload.deps, b.workload.deps);
        assert!(a.workload.validate().is_ok());
        assert!(a.config.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "at least two instances")]
    fn scenario1_needs_two() {
        let p = orin_agx();
        Scenario::SameDnnInstances {
            model: Model::AlexNet,
            instances: 1,
        }
        .workload(&p, 6);
    }
}
