//! Ground-truth measurement: replay a schedule on the simulated SoC.
//!
//! The timeline evaluator *predicts*; this module *measures*, by staging a
//! scheduled workload as replay chains (including explicit transition work
//! items that flush/reformat boundary tensors) and running them through the
//! SoC's contention replay ([`haxconn_soc::replay`]) under its real EMC
//! arbitration. All numbers reported by the experiment binaries come from
//! here — exactly as the paper reports wall-clock measurements, not model
//! predictions. The runtime's `execute` and fleet evaluation are views over
//! the same replay, so a measured makespan is the same bits whichever
//! subsystem asks.

use crate::problem::{DnnTask, Workload};
use haxconn_soc::{
    flush_telemetry, DesWork, LayerCost, Platform, PuId, ReplayRun, Replayer, WorkItem,
};

/// Paper-style metrics of one measured run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Completion time of each task, ms.
    pub task_latency_ms: Vec<f64>,
    /// Completion of the whole workload, ms.
    pub latency_ms: f64,
    /// Aggregate throughput in frames per second: each task contributes
    /// `1000 / completion` (the paper's FPS column is `1000 / latency` per
    /// processed image); see [`aggregate_fps`].
    pub fps: f64,
    /// Mean EMC traffic, GB/s.
    pub emc_mean_gbps: f64,
    /// Per-PU busy time, ms.
    pub pu_busy_ms: Vec<f64>,
    /// Per-task mean execution slowdown vs standalone (Fig. 6's metric).
    pub task_slowdown: Vec<f64>,
    /// Raw replay output: per-item records, the EMC step series and peak.
    pub raw: ReplayRun,
}

/// Aggregate single-shot FPS: each task contributes `1000 / latency`.
/// Degenerate latencies (zero-cost tasks, non-finite values) are skipped so
/// the aggregate stays finite instead of blowing up to `inf`.
pub fn aggregate_fps(task_latency_ms: &[f64]) -> f64 {
    task_latency_ms
        .iter()
        .filter(|l| l.is_finite() && **l > 0.0)
        .map(|l| 1000.0 / *l)
        .sum()
}

/// A transition work item: pure memory traffic at the PU's reformat
/// bandwidth.
fn transition_item(pu: PuId, time_ms: f64, bytes: f64) -> WorkItem {
    WorkItem {
        pu,
        cost: LayerCost::pure_memory(time_ms, bytes),
    }
}

/// Stages one task's work items — grouped layers plus explicit
/// flush/reformat transition items — given its PU row.
///
/// Inter-accelerator transitions become explicit flush (`tau OUT`, old PU)
/// and reformat (`tau IN`, new PU) items, as the TensorRT
/// `MarkOutput`/`addInput` pair does on real hardware.
fn push_task_items(task: &DnnTask, row: &[PuId], work: &mut DesWork) {
    let profile = &task.profile;
    for g in 0..profile.len() {
        let pu = row[g];
        let cost = profile.groups[g].cost[pu].expect("assignment respects supported PUs");
        if g > 0 && row[g - 1] != pu {
            let bytes = profile.grouped.groups[g - 1].boundary_bytes as f64;
            // Flush out of the previous PU...
            work.push_item(transition_item(
                row[g - 1],
                profile.groups[g - 1].tr_out_ms[row[g - 1]],
                bytes,
            ));
            // ...then reformat into this one.
            work.push_item(transition_item(
                pu,
                profile.groups[g - 1].tr_in_ms[pu],
                bytes,
            ));
        }
        work.push_item(WorkItem { pu, cost });
    }
}

/// Restages `workload` under `assignment` into `work` (cleared first, its
/// buffers reused): one chain per task, gated by the task's upstream
/// streaming dependencies in `workload.deps` order.
pub fn stage(work: &mut DesWork, workload: &Workload, assignment: &[Vec<PuId>]) {
    work.clear();
    for (t, task) in workload.tasks.iter().enumerate() {
        push_task_items(task, &assignment[t], work);
        // Same scan `Workload::upstream` performs, minus its Vec.
        work.end_chain(workload.deps.iter().filter(|d| d.to == t).map(|d| d.from));
    }
}

/// The staged replay input of `assignment`.
pub fn staged(workload: &Workload, assignment: &[Vec<PuId>]) -> DesWork {
    let mut work = DesWork::new();
    stage(&mut work, workload, assignment);
    work
}

/// Measures `assignment` by replaying one frame per task on the platform's
/// contention replay, and flushes the run's `replay.*` telemetry.
pub fn measure(platform: &Platform, workload: &Workload, assignment: &[Vec<PuId>]) -> Measurement {
    let work = staged(workload, assignment);
    let mut replayer = Replayer::new();
    let run = replayer.run(platform, &work, 1);
    flush_telemetry(platform, &run);
    let raw = run.to_run();
    // Per-task slowdown: measured busy duration over standalone time,
    // averaged across executed items in chain order, weighted by
    // standalone time (transition items excluded).
    let mut task_slowdown = Vec::with_capacity(work.num_tasks());
    let by_task = raw.by_task();
    for chain in by_task.chunk_by(|a, b| a.task == b.task) {
        let mut weighted = 0.0;
        let mut weight = 0.0;
        for r in chain {
            let cost = &work.item(r).cost;
            if cost.compute_ms == 0.0 {
                continue; // transition item
            }
            weighted += r.slowdown(cost) * cost.time_ms;
            weight += cost.time_ms;
        }
        task_slowdown.push(if weight > 0.0 { weighted / weight } else { 1.0 });
    }
    Measurement {
        task_latency_ms: raw.task_latency_ms.clone(),
        latency_ms: raw.makespan_ms,
        fps: aggregate_fps(&raw.task_latency_ms),
        emc_mean_gbps: raw.emc_mean_gbps,
        pu_busy_ms: raw.pu_busy_ms.clone(),
        task_slowdown,
        raw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::DnnTask;
    use haxconn_dnn::Model;
    use haxconn_profiler::NetworkProfile;
    use haxconn_soc::orin_agx;

    fn workload(models: &[Model]) -> (haxconn_soc::Platform, Workload) {
        let p = orin_agx();
        let tasks = models
            .iter()
            .map(|&m| DnnTask::new(m.name(), NetworkProfile::profile(&p, m, 8)))
            .collect();
        (p, Workload::concurrent(tasks))
    }

    fn all_on(w: &Workload, pu: PuId) -> Vec<Vec<PuId>> {
        w.tasks.iter().map(|t| vec![pu; t.num_groups()]).collect()
    }

    #[test]
    fn gpu_only_measurement_matches_serial_sum() {
        let (p, w) = workload(&[Model::ResNet18, Model::GoogleNet]);
        let m = measure(&p, &w, &all_on(&w, p.gpu()));
        let sum: f64 = w
            .tasks
            .iter()
            .map(|t| t.profile.standalone_ms(p.gpu()).unwrap())
            .sum();
        assert!((m.latency_ms - sum).abs() / sum < 1e-6);
        assert_eq!(m.pu_busy_ms[p.dsa()], 0.0);
    }

    #[test]
    fn transitions_appear_as_extra_items() {
        let (p, w) = workload(&[Model::ResNet50]);
        let mut a = all_on(&w, p.gpu());
        let n = w.tasks[0].num_groups();
        #[allow(clippy::needless_range_loop)]
        for g in n / 2..n {
            if w.tasks[0].profile.groups[g].cost[p.dsa()].is_some() {
                a[0][g] = p.dsa();
            }
        }
        assert!(
            staged(&w, &a).items_of(0).len() > n,
            "flush/reformat items inserted"
        );
        let m = measure(&p, &w, &a);
        assert!(m.latency_ms > 0.0);
    }

    #[test]
    fn concurrent_split_beats_or_matches_nothing_weird() {
        let (p, w) = workload(&[Model::GoogleNet, Model::GoogleNet]);
        let gpu_only = measure(&p, &w, &all_on(&w, p.gpu()));
        // Split: second instance on DLA wherever possible.
        let mut split = all_on(&w, p.gpu());
        for (g, gp) in w.tasks[1].profile.groups.iter().enumerate() {
            if gp.cost[p.dsa()].is_some() {
                split[1][g] = p.dsa();
            }
        }
        let split_m = measure(&p, &w, &split);
        // Both orders of magnitude sane; contention shows up in slowdowns.
        assert!(split_m.latency_ms > 0.0 && gpu_only.latency_ms > 0.0);
        let worst = split_m.task_slowdown.iter().cloned().fold(0.0f64, f64::max);
        assert!(worst >= 1.0);
        // FPS consistent with latencies.
        let fps: f64 = split_m.task_latency_ms.iter().map(|&t| 1000.0 / t).sum();
        assert!((split_m.fps - fps).abs() < 1e-9);
    }

    #[test]
    fn staging_reuses_buffers_and_wires_upstream() {
        let p = orin_agx();
        let tasks = vec![
            DnnTask::new("a", NetworkProfile::profile(&p, Model::ResNet18, 6)),
            DnnTask::new("b", NetworkProfile::profile(&p, Model::GoogleNet, 6)),
        ];
        let w = Workload::pipeline(tasks);
        let mut work = staged(&w, &all_on(&w, p.gpu()));
        assert_eq!(work.num_tasks(), 2);
        assert_eq!(work.total_items(), 12, "no transitions on one PU");
        assert!(work.upstream_of(0).is_empty());
        assert_eq!(work.upstream_of(1), &[0]);
        // Restaging a different assignment reuses the buffers in place.
        let g = (1..6)
            .find(|&g| w.tasks[0].profile.groups[g].cost[p.dsa()].is_some())
            .expect("a DLA-capable group");
        let mut split = all_on(&w, p.gpu());
        split[0][g] = p.dsa();
        stage(&mut work, &w, &split);
        let back = if g + 1 < 6 { 2 } else { 0 };
        assert_eq!(work.total_items(), 14 + back, "flush + reformat inserted");
        // Flush on the old PU, then reformat on the new one, then the group.
        assert_eq!(work.items_of(0)[g].pu, p.gpu());
        assert_eq!(work.items_of(0)[g + 1].pu, p.dsa());
        assert_eq!(work.items_of(0)[g + 2].pu, p.dsa());
    }

    #[test]
    fn pipeline_dep_enforced_in_measurement() {
        let p = orin_agx();
        let tasks = vec![
            DnnTask::new("a", NetworkProfile::profile(&p, Model::ResNet18, 6)),
            DnnTask::new("b", NetworkProfile::profile(&p, Model::GoogleNet, 6)),
        ];
        let w = Workload::pipeline(tasks);
        let a = all_on(&w, p.gpu());
        let m = measure(&p, &w, &a);
        let t0 = w.tasks[0].profile.standalone_ms(p.gpu()).unwrap();
        let first_b = m.raw.by_task().into_iter().find(|r| r.task == 1).unwrap();
        assert_eq!(first_b.item, 0);
        assert!(first_b.start_ms >= t0 - 1e-6);
        assert_eq!(first_b.start_ms, m.task_latency_ms[0]);
    }
}
