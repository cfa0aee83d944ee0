//! Ground-truth measurement: replay a schedule on the simulated SoC.
//!
//! The timeline evaluator *predicts*; this module *measures*, by staging a
//! scheduled workload as replay chains (including explicit transition work
//! items that flush/reformat boundary tensors) and running them through the
//! SoC's contention replay
//! ([`haxconn_soc::replay`](mod@haxconn_soc::replay)) under its real EMC
//! arbitration. Every measured number comes from here, exactly as the
//! paper reports wall-clock measurements rather than model predictions:
//! [`execute`] and [`execute_loop`] stage, replay and copy out one
//! [`ExecutionReport`], and the fleet and the validated scheduler drive the
//! same [`DesRunner`].

use crate::problem::{DnnTask, Workload};
pub use haxconn_soc::ExecutionReport;
use haxconn_soc::{
    flush_telemetry, DesWork, LayerCost, Platform, PuId, ReplayView, Replayer, WorkItem,
};
use haxconn_telemetry::alloc::{phase, PHASE_DES_REPLAY};

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

/// A pooled replay plus its input staging: restaging a workload and
/// replaying it performs no heap allocation once both are warm for the
/// scenario shape. Reuse never changes results.
#[derive(Default)]
pub struct DesRunner {
    work: DesWork,
    replayer: Replayer,
}

impl DesRunner {
    /// Fresh runner; buffers grow over the first run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages `assignment` and replays it for `frames` frames per task,
    /// returning a view of the pooled result.
    pub fn run(
        &mut self,
        platform: &Platform,
        workload: &Workload,
        assignment: &[Vec<PuId>],
        frames: usize,
    ) -> ReplayView<'_> {
        stage(&mut self.work, workload, assignment);
        self.replayer.run(platform, &self.work, frames)
    }

    /// [`Self::run`], then the result copied out once, under the
    /// `des_replay` allocation phase (the copy is the only heap traffic on
    /// a warm runner). `flush` also records the run's `replay.*`
    /// telemetry.
    pub fn report(
        &mut self,
        platform: &Platform,
        workload: &Workload,
        assignment: &[Vec<PuId>],
        frames: usize,
        flush: bool,
    ) -> ExecutionReport {
        phase(PHASE_DES_REPLAY, || {
            let v = self.run(platform, workload, assignment, frames);
            if flush {
                flush_telemetry(platform, &v);
            }
            v.to_report()
        })
    }
}

/// Executes `assignment` on `platform`: one frame per task.
///
/// The run performs the same flush/reformat transition steps the paper
/// implements with TensorRT `MarkOutput`/`addInput`, and enforces streaming
/// dependencies between tasks (the role of the paper's custom TensorRT
/// plugin). Bit-deterministic: the same schedule always yields a
/// bit-identical report. Flushes the run's `replay.*` telemetry.
pub fn execute(
    platform: &Platform,
    workload: &Workload,
    assignment: &[Vec<PuId>],
) -> ExecutionReport {
    execute_loop(platform, workload, assignment, 1)
}

/// Executes `assignment` continuously for `frames` frames per task — the
/// autonomous-loop setting of the paper ("workloads running concurrently
/// and *continuously*"). Each task re-runs its DNN chain back-to-back,
/// frame k of a consumer waiting for frame k of its producers;
/// steady-state throughput emerges from the PU queues. One frame is
/// exactly [`execute`].
///
/// # Panics
///
/// If `frames` is 0.
pub fn execute_loop(
    platform: &Platform,
    workload: &Workload,
    assignment: &[Vec<PuId>],
    frames: usize,
) -> ExecutionReport {
    DesRunner::new().report(platform, workload, assignment, frames, true)
}

/// Per-task mean execution slowdown vs standalone (Fig. 6's metric) of a
/// report of `assignment`: measured busy duration over standalone time,
/// averaged across each task's executed items in chain order, weighted by
/// standalone time (transition items excluded).
pub fn task_slowdown(
    workload: &Workload,
    assignment: &[Vec<PuId>],
    report: &ExecutionReport,
) -> Vec<f64> {
    let work = staged(workload, assignment);
    report
        .by_task()
        .chunk_by(|a, b| a.task == b.task)
        .map(|chain| {
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
            if weight > 0.0 {
                weighted / weight
            } else {
                1.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{Baseline, BaselineKind};
    use crate::problem::{DnnTask, SchedulerConfig};
    use crate::scheduler::HaxConn;
    use haxconn_contention::ContentionModel;
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

    fn pipeline(p: &haxconn_soc::Platform, a: Model, b: Model, groups: usize) -> Workload {
        Workload::pipeline(vec![
            DnnTask::new("a", NetworkProfile::profile(p, a, groups)),
            DnnTask::new("b", NetworkProfile::profile(p, b, groups)),
        ])
    }

    fn all_on(w: &Workload, pu: PuId) -> Vec<Vec<PuId>> {
        w.tasks.iter().map(|t| vec![pu; t.num_groups()]).collect()
    }

    #[test]
    fn gpu_only_measurement_matches_serial_sum() {
        let (p, w) = workload(&[Model::ResNet18, Model::GoogleNet]);
        let m = execute(&p, &w, &all_on(&w, p.gpu()));
        let sum: f64 = w
            .tasks
            .iter()
            .map(|t| t.profile.standalone_ms(p.gpu()).unwrap())
            .sum();
        assert!((m.makespan_ms - sum).abs() / sum < 1e-6);
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
        let m = execute(&p, &w, &a);
        assert!(m.makespan_ms > 0.0);
        assert_eq!(m.records.len(), staged(&w, &a).total_items());
    }

    #[test]
    fn concurrent_split_slows_down_and_prices_fps_from_latencies() {
        let (p, w) = workload(&[Model::GoogleNet, Model::GoogleNet]);
        // Split: second instance on DLA wherever possible.
        let mut split = all_on(&w, p.gpu());
        for (g, gp) in w.tasks[1].profile.groups.iter().enumerate() {
            if gp.cost[p.dsa()].is_some() {
                split[1][g] = p.dsa();
            }
        }
        let m = execute(&p, &w, &split);
        assert!(m.makespan_ms > 0.0);
        assert!(m.pu_busy_ms[p.dsa()] > 0.0);
        let slowdown = task_slowdown(&w, &split, &m);
        assert_eq!(slowdown.len(), 2);
        assert!(slowdown.iter().all(|&s| s >= 1.0), "{slowdown:?}");
        let fps: f64 = m.task_latency_ms.iter().map(|&t| 1000.0 / t).sum();
        assert!((m.fps() - fps).abs() < 1e-9);
    }

    #[test]
    fn staging_reuses_buffers_and_wires_upstream() {
        let p = orin_agx();
        let w = pipeline(&p, Model::ResNet18, Model::GoogleNet, 6);
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
    fn pipeline_dep_is_enforced() {
        let p = orin_agx();
        let w = pipeline(&p, Model::ResNet18, Model::GoogleNet, 6);
        let m = execute(&p, &w, &all_on(&w, p.gpu()));
        let t0 = w.tasks[0].profile.standalone_ms(p.gpu()).unwrap();
        assert!(m.task_latency_ms[0] >= t0 - 1e-6);
        assert!(m.task_latency_ms[1] >= m.task_latency_ms[0]);
        // The consumer's first item starts exactly when the producer ends.
        let first_b = m.records.iter().find(|r| r.task == 1).unwrap();
        assert_eq!(first_b.item, 0);
        assert_eq!(first_b.start_ms, m.task_latency_ms[0]);
    }

    #[test]
    fn haxconn_schedule_executes_with_transitions_bit_identically() {
        let (p, w) = workload(&[Model::GoogleNet, Model::ResNet101]);
        let cm = ContentionModel::calibrate(&p);
        let s = HaxConn::schedule(&p, &w, &cm, SchedulerConfig::default());
        let first = execute(&p, &w, &s.assignment);
        let groups: usize = w.tasks.iter().map(|t| t.num_groups()).sum();
        assert!(first.records.len() >= groups);
        // A pooled runner, dirtied by another schedule first, reports the
        // same bits as a fresh one.
        let mut runner = DesRunner::new();
        runner.run(&p, &w, &all_on(&w, p.gpu()), 2);
        for _ in 0..3 {
            let again = runner.report(&p, &w, &s.assignment, 1, false);
            assert!(first.view().same_bits(&again.view()));
        }
    }

    #[test]
    fn records_cover_every_item_once_in_completion_order() {
        let (p, w) = workload(&[Model::GoogleNet, Model::ResNet18]);
        let a = Baseline::assignment(BaselineKind::NaiveSplit, &p, &w);
        let run = execute(&p, &w, &a);
        assert_eq!(run.records.len(), staged(&w, &a).total_items());
        let mut prev = 0.0;
        let mut seen = std::collections::HashSet::new();
        for r in &run.records {
            assert!(r.end_ms >= r.start_ms);
            assert!(r.end_ms >= prev);
            prev = r.end_ms;
            assert!(r.pu < p.pus.len());
            assert!(seen.insert((r.task, r.item)));
        }
    }

    #[test]
    fn loop_execution_pipelines_across_frames() {
        // A two-stage pipeline split across PUs: a single frame serializes
        // the stages, but the continuous loop overlaps frame k's stage 2
        // with frame k+1's stage 1.
        let p = orin_agx();
        let w = pipeline(&p, Model::GoogleNet, Model::ResNet50, 8);
        let a = Baseline::assignment(BaselineKind::NaiveSplit, &p, &w);
        let one = execute(&p, &w, &a);
        let many = execute_loop(&p, &w, &a, 6);
        assert!(
            many.makespan_ms < 6.0 * one.makespan_ms * 0.95,
            "no cross-frame overlap: {} vs 6x{}",
            many.makespan_ms,
            one.makespan_ms
        );
        assert!(many.makespan_ms >= one.makespan_ms);
        assert_eq!(many.records.len(), 6 * one.records.len());
        assert_eq!(many.frames, 6);
        // Steady-state throughput beats the frames-per-second of one
        // frame through both stages.
        let single_frame_rate = 1000.0 * 2.0 / one.makespan_ms;
        assert!(many.fps() > single_frame_rate, "{}", many.fps());
    }

    #[test]
    fn loop_execution_single_iteration_matches_execute() {
        let (p, w) = workload(&[Model::GoogleNet, Model::ResNet101]);
        let a = Baseline::assignment(BaselineKind::NaiveSplit, &p, &w);
        let once = execute_loop(&p, &w, &a, 1);
        let plain = execute(&p, &w, &a);
        // Every field, the single-shot FPS included.
        assert!(once.view().same_bits(&plain.view()));
        assert_eq!(once.fps().to_bits(), plain.fps().to_bits());
        let single_shot: f64 = plain.task_latency_ms.iter().map(|l| 1000.0 / l).sum();
        assert_eq!(once.fps().to_bits(), single_shot.to_bits());
    }
}
