//! Invariant-class mutation helpers.
//!
//! Each function takes a *valid* artifact (schedule, workload, platform)
//! and returns a copy corrupted in exactly one invariant class. The
//! mutation test suite feeds these to the validator and asserts the
//! matching class is reported — proving every check actually fires, not
//! just that valid inputs pass. The originals are never modified:
//! profiles are shared, so a mutation copies one through `Arc::make_mut`.

use haxconn_core::{Schedule, Workload};
use haxconn_soc::Platform;
use std::sync::Arc;

/// Breaks **precedence**: makes a task's second group start before its
/// first group ends (and end before it starts, for good measure).
/// `schedule.predicted` must have a task with at least two groups.
pub fn swap_precedence(schedule: &Schedule) -> Schedule {
    let mut s = schedule.clone();
    let t = s
        .predicted
        .groups
        .iter()
        .position(|row| row.len() >= 2)
        .expect("a task with >= 2 groups");
    let first_start = s.predicted.groups[t][0].start_ms;
    let g = &mut s.predicted.groups[t][1];
    // Slide group 1 fully before group 0: precedence inverted.
    let len = (g.end_ms - g.start_ms).max(0.1);
    g.end_ms = first_start - 0.1;
    g.start_ms = g.end_ms - len;
    s
}

/// Breaks **exclusive PU occupancy**: forces two groups on the same PU to
/// run at the same instant.
pub fn overlap_pu(schedule: &Schedule) -> Schedule {
    let mut s = schedule.clone();
    // Find two distinct groups on one PU; same-task pairs are fine (the
    // overlap check is per-PU, not per-task).
    let mut flat: Vec<(usize, usize)> = Vec::new();
    for (t, row) in s.predicted.groups.iter().enumerate() {
        for g in 0..row.len() {
            flat.push((t, g));
        }
    }
    let (a, b) = flat
        .iter()
        .flat_map(|&x| flat.iter().map(move |&y| (x, y)))
        .find(|&((t1, g1), (t2, g2))| {
            (t1, g1) < (t2, g2) && s.predicted.groups[t1][g1].pu == s.predicted.groups[t2][g2].pu
        })
        .expect("two groups sharing a PU");
    let first = s.predicted.groups[a.0][a.1];
    let second = &mut s.predicted.groups[b.0][b.1];
    // Start the second group in the middle of the first one's window.
    let shift = 0.5 * (first.start_ms + first.end_ms) - second.start_ms;
    second.start_ms += shift;
    second.end_ms += shift;
    s
}

/// Breaks **contiguity**: punches a hole in a task's layer-group tiling
/// (group 0 ends one layer early without group 1 starting earlier).
pub fn break_contiguity(workload: &Workload) -> Workload {
    let mut w = workload.clone();
    let groups = &mut Arc::make_mut(&mut w.tasks[0].profile).grouped.groups;
    assert!(
        groups[0].end > groups[0].start,
        "first group needs >= 2 layers to shrink"
    );
    groups[0].end -= 1;
    w
}

/// Breaks **EMC bandwidth conservation**: a negative interference term
/// makes the arbiter *amplify* demands (grant > demand), and an
/// arbitration efficiency above 1 lets waterfilling exceed the physical
/// bandwidth.
pub fn overgrant_emc(platform: &Platform) -> Platform {
    let mut p = platform.clone();
    p.emc.interference = -8.0;
    p.emc.arbitration_efficiency = 1.6;
    p
}

/// Breaks **transition accounting**: charges transition time that the
/// assignment does not imply.
pub fn tamper_transitions(schedule: &Schedule) -> Schedule {
    let mut s = schedule.clone();
    s.predicted.total_transition_ms += 1.0;
    s
}

/// Breaks **convergence**: marks the timeline as a non-converged iterate.
pub fn mark_unconverged(schedule: &Schedule) -> Schedule {
    let mut s = schedule.clone();
    s.predicted.converged = false;
    s
}

/// Breaks **cost consistency**: reports a cost the timeline does not
/// support.
pub fn inflate_cost(schedule: &Schedule) -> Schedule {
    let mut s = schedule.clone();
    s.cost += 1.0;
    s
}

/// Breaks **PU support**: assigns a group to a PU its profile has no cost
/// for (e.g. an LRN group on the DLA), falling back to an out-of-range PU
/// id if every group runs everywhere.
pub fn unsupported_placement(schedule: &Schedule, workload: &Workload) -> Schedule {
    let mut s = schedule.clone();
    for (t, task) in workload.tasks.iter().enumerate() {
        for (g, group) in task.profile.groups.iter().enumerate() {
            if let Some(pu) = group.cost.iter().position(|c| c.is_none()) {
                s.assignment[t][g] = pu;
                return s;
            }
        }
    }
    s.assignment[0][0] = workload.tasks[0].profile.groups[0].cost.len();
    s
}

/// Breaks **finiteness**: poisons one group timing with NaN.
pub fn poison_nan(schedule: &Schedule) -> Schedule {
    let mut s = schedule.clone();
    s.predicted.groups[0][0].end_ms = f64::NAN;
    s
}
