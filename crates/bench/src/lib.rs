#![warn(missing_docs)]

//! Shared plumbing for the experiment binaries that regenerate every table
//! and figure of the HaX-CoNN paper's evaluation (Section 5).
//!
//! Each binary under `src/bin/` reproduces one artifact:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig1_case_study` | Fig. 1 — serial vs naive-concurrent vs layer-level |
//! | `table2_googlenet_groups` | Table 2 — GoogleNet group characterization |
//! | `fig3_emc_utilization` | Fig. 3 — conv EMC utilization sweep |
//! | `fig4_contention_intervals` | Fig. 4 — contention-interval illustration |
//! | `table5_standalone` | Table 5 — standalone runtimes |
//! | `fig5_scenario1` | Fig. 5 — same-DNN pairs, throughput |
//! | `table6_multi_dnn` | Table 6 — experiments 1–10, scenarios 2–4 |
//! | `fig6_slowdown` | Fig. 6 — GoogleNet slowdown under co-running DNNs |
//! | `fig7_dynamic` | Fig. 7 — D-HaX-CoNN convergence |
//! | `table7_solver_overhead` | Table 7 — solver interference |
//! | `table8_exhaustive_pairs` | Table 8 — exhaustive pair sweep |
//! | `sensitivity_sweep` | extension — gain vs DSA speed / bandwidth / interference |
//! | `contention_matrix` | extension — pairwise who-hurts-whom slowdowns |

pub mod microbench;

use haxconn_contention::ContentionModel;
use haxconn_core::baselines::{Baseline, BaselineKind};
use haxconn_core::measure::{execute, ExecutionReport};
use haxconn_core::problem::{DnnTask, Objective, SchedulerConfig, Workload};
use haxconn_core::scheduler::{HaxConn, Schedule};
use haxconn_dnn::Model;
use haxconn_profiler::NetworkProfile;
use haxconn_soc::Platform;

/// Default layer-group budget used across the experiments (Table 2 uses 10
/// groups for GoogleNet).
pub const GROUPS: usize = 10;

// The compat `par_map` pool (rayon stand-in for offline builds) now lives
// in `haxconn-runtime` next to the fleet evaluator that shares it; the
// experiment binaries keep using it through this re-export.
pub use haxconn_runtime::{par_map, par_map_with};

/// Profiles `model` on `platform` with the standard group budget.
pub fn profile(platform: &Platform, model: Model) -> NetworkProfile {
    NetworkProfile::profile(platform, model, GROUPS)
}

/// Builds a concurrent workload from a list of models.
pub fn workload_of(platform: &Platform, models: &[Model]) -> Workload {
    let tasks = models
        .iter()
        .enumerate()
        .map(|(i, &m)| DnnTask::new(format!("{}#{i}", m.name()), profile(platform, m)))
        .collect();
    Workload::concurrent(tasks)
}

/// The result of running one scheduler on one workload.
pub struct Outcome {
    /// Scheduler label.
    pub name: String,
    /// Measured metrics on the ground-truth simulator.
    pub measured: ExecutionReport,
}

/// Measures every baseline plus HaX-CoNN on `workload`; returns the
/// baseline outcomes, the HaX-CoNN outcome, and its schedule.
pub fn compare_all(
    platform: &Platform,
    workload: &Workload,
    contention: &ContentionModel,
    objective: Objective,
) -> (Vec<Outcome>, Outcome, Schedule) {
    let baselines = BaselineKind::all()
        .iter()
        .map(|&kind| {
            let a = Baseline::assignment(kind, platform, workload);
            Outcome {
                name: kind.name().to_string(),
                measured: execute(platform, workload, &a),
            }
        })
        .collect();
    let schedule = HaxConn::schedule_validated(
        platform,
        workload,
        contention,
        SchedulerConfig {
            objective,
            ..Default::default()
        },
    );
    let hax = Outcome {
        name: "HaX-CoNN".to_string(),
        measured: execute(platform, workload, &schedule.assignment),
    };
    (baselines, hax, schedule)
}

/// Best (lowest-latency) baseline outcome.
pub fn best_baseline(outcomes: &[Outcome]) -> &Outcome {
    outcomes
        .iter()
        .min_by(|a, b| {
            a.measured
                .makespan_ms
                .partial_cmp(&b.measured.makespan_ms)
                .expect("no NaN")
        })
        .expect("baselines nonempty")
}

/// Best-throughput baseline outcome.
pub fn best_baseline_fps(outcomes: &[Outcome]) -> &Outcome {
    outcomes
        .iter()
        .max_by(|a, b| {
            a.measured
                .fps()
                .partial_cmp(&b.measured.fps())
                .expect("no NaN")
        })
        .expect("baselines nonempty")
}

/// Percentage improvement of `new` over `old` (positive = better/lower).
pub fn improvement_pct(old: f64, new: f64) -> f64 {
    100.0 * (old - new) / old
}

/// Renders the paper's "TR / Dir." schedule summary (transition layer ids
/// and directions per task).
pub fn transition_summary(platform: &Platform, workload: &Workload, schedule: &Schedule) -> String {
    let trs = schedule.transitions(workload);
    if trs.is_empty() {
        return "0 (single-PU)".to_string();
    }
    trs.iter()
        .map(|tr| {
            format!(
                "{}@{} {}",
                workload.tasks[tr.task].name,
                tr.after_layer,
                Schedule::direction_label(platform, tr)
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use haxconn_soc::orin_agx;

    #[test]
    fn compare_all_produces_consistent_outcomes() {
        let p = orin_agx();
        let cm = ContentionModel::calibrate(&p);
        let w = workload_of(&p, &[Model::ResNet18, Model::GoogleNet]);
        let (bases, hax, schedule) = compare_all(&p, &w, &cm, Objective::MinMaxLatency);
        assert_eq!(bases.len(), BaselineKind::all().len());
        let best = best_baseline(&bases);
        // The never-worse guarantee, end to end.
        assert!(hax.measured.makespan_ms <= best.measured.makespan_ms * 1.02);
        assert!(!schedule.assignment.is_empty());
        assert!(improvement_pct(10.0, 8.0) > 19.9);
    }
}
