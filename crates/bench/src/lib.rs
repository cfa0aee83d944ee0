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

use haxconn_core::problem::Workload;
use haxconn_core::scheduler::Schedule;
use haxconn_dnn::Model;
use haxconn_profiler::NetworkProfile;
use haxconn_soc::Platform;

/// Default layer-group budget used across the experiments (Table 2 uses 10
/// groups for GoogleNet).
pub const GROUPS: usize = 10;

// The `par_map` rayon stand-in for offline builds lives in
// `haxconn-runtime` next to the fleet evaluator that shares it, and runs
// on the solver's parked helper threads; the experiment binaries keep
// using it through this re-export.
pub use haxconn_runtime::{par_map, par_map_with};

/// Profiles `model` on `platform` with the standard group budget.
pub fn profile(platform: &Platform, model: Model) -> NetworkProfile {
    NetworkProfile::profile(platform, model, GROUPS)
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

    #[test]
    fn improvement_is_relative_to_the_old_value() {
        assert!(improvement_pct(10.0, 8.0) > 19.9);
        assert!(improvement_pct(8.0, 10.0) < 0.0);
    }
}
