//! The contention-interval timeline evaluator (paper Eqs. 2, 4–9).
//!
//! Given a complete layer-group → PU assignment, this module *predicts* the
//! concurrent execution timeline:
//!
//! * group start/end times follow the chain and streaming dependencies
//!   (Eqs. 4–6), with FIFO queuing when two tasks need the same PU,
//! * each group's duration is its standalone time stretched by the
//!   contention slowdown `C` (Eq. 7), evaluated piecewise over the
//!   *contention intervals* induced by concurrently running groups
//!   (Eq. 8 / Fig. 4) using the PCCS-style model,
//! * transition costs `tau(.., OUT) + tau(.., IN)` are charged at
//!   accelerator switches (Eqs. 2–3).
//!
//! Because slowdowns depend on the very timeline being computed, the
//! evaluator iterates to a fixed point (a handful of passes in practice —
//! this mirrors how the paper's constraint system couples Eq. 5 and Eq. 7).
//! Termination is explicit: the iteration stops when the makespan is
//! stationary, and a period-2 makespan cycle (iterate A predicts iterate B
//! predicts iterate A — comparing only successive iterates never sees it)
//! is detected and broken by damping: the contention footprints read by the
//! next pass become the per-group interval average of the last two passes.
//! Either way [`TimelineSummary::converged`] reports whether a genuine
//! fixed point was reached, so downstream consumers (the solver's
//! objective, the validator) never mistake an oscillating iterate for an
//! optimum.
//!
//! The maximum same-PU queuing wait is reported so the encoding can apply
//! Eq. 9's ε constraint.
//!
//! Every leaf of the branch & bound runs this fixed point, so three cuts
//! make each call cheaper while keeping every floating-point operation and
//! its order (`tests/timeline_bits.rs` pins the output bits):
//!
//! * **Live footprints.** While collecting a group's event boundaries,
//!   `integrate` keeps, in footprint order, the co-runners whose interval
//!   ends after the group's start; the external traffic sums over that
//!   list only. Exact: traffic is only asked for at `t >= start`, and
//!   `contains(t)` implies `end > t`, so no term is dropped and the sum's
//!   order stands.
//! * **Per-call slowdown memo.** Each slot remembers the slowdowns it has
//!   looked up, keyed by the bits of the external traffic. Exact: the PCCS
//!   lookup is a pure function of `(pu, cost, ext)`, and a slot's PU and
//!   cost are fixed for the call; the memo lives in the slot table, which
//!   is rebuilt on every call.
//! * **Per-call slot table.** A group's PU, `tau_in`, `tau_out` and cost
//!   are read from the assignment and profile once per call rather than
//!   once per pass. Exact: they depend on the assignment alone, and the
//!   transition total is still accumulated in dispatch order.

use crate::interval::Interval;
use crate::problem::Workload;
use haxconn_contention::ContentionModel;
use haxconn_soc::{LayerCost, PuId};

/// Predicted timing of one layer group.
#[derive(Debug, Clone, Copy)]
pub struct GroupTiming {
    /// Assigned PU.
    pub pu: PuId,
    /// Execution start (after any queuing wait), ms.
    pub start_ms: f64,
    /// Completion (including transition costs), ms.
    pub end_ms: f64,
    /// Queuing wait beyond readiness caused by same-PU occupancy, ms
    /// (the quantity Eq. 9 bounds by ε).
    pub wait_ms: f64,
    /// Realized contention slowdown of the execution phase (`>= 1`).
    pub slowdown: f64,
}

/// A predicted concurrent timeline for a full workload.
#[derive(Debug, Clone)]
pub struct PredictedTimeline {
    /// Per-task, per-group timings.
    pub groups: Vec<Vec<GroupTiming>>,
    /// Completion time of each task (absolute, ms).
    pub task_latency_ms: Vec<f64>,
    /// Completion of the last task, ms.
    pub makespan_ms: f64,
    /// Largest same-PU queuing wait observed, ms (Eq. 9's subject).
    pub max_wait_ms: f64,
    /// Total transition overhead charged, ms.
    pub total_transition_ms: f64,
    /// Whether the contention fixed point genuinely converged (makespan
    /// stationary) rather than the iteration budget running out.
    pub converged: bool,
}

impl PredictedTimeline {
    /// Mean execution slowdown across all groups of `task` (Fig. 6's
    /// per-DNN contention slowdown, prediction side).
    pub fn mean_slowdown(&self, task: usize) -> f64 {
        let g = &self.groups[task];
        g.iter().map(|t| t.slowdown).sum::<f64>() / g.len() as f64
    }
}

/// Evaluates assignments into predicted timelines.
pub struct TimelineEvaluator<'a> {
    workload: &'a Workload,
    model: &'a ContentionModel,
    /// Per-task upstream lists, precomputed so the dispatch loop does not
    /// re-filter `workload.deps` (let alone allocate) per candidate.
    upstream: Vec<Vec<usize>>,
    /// When false, the contention term is ignored (`C = 1`) — the
    /// contention-blind ablation and the cost model of the Herald-/H2H-like
    /// baselines.
    pub contention_aware: bool,
    /// Fixed-point iteration cap.
    pub max_iters: usize,
}

/// A group's footprint from the previous fixed-point iteration, used to
/// build the contention-interval decomposition for the next one.
#[derive(Clone, Copy)]
struct Footprint {
    task: usize,
    /// Flat group slot (`group_off[task] + group`): the stable identity
    /// used to pair this group's estimate across fixed-point iterations
    /// (dispatch order may differ between passes).
    slot: usize,
    pu: PuId,
    interval: Interval,
    demand_gbps: f64,
}

/// Distinct external-traffic values one slot remembers per call.
const MEMO_WAYS: usize = 8;

/// Everything about one group slot that is fixed for the length of one
/// [`TimelineEvaluator::evaluate_into`] call: its PU, transition costs and
/// standalone cost, plus the slowdowns it has already looked up.
#[derive(Clone, Copy)]
struct Slot {
    pu: PuId,
    tau_in: f64,
    tau_out: f64,
    cost: LayerCost,
    /// `memo_ext[..memo_len]` are the bits of external-traffic values
    /// seen this call; `memo_slowdown` holds their clamped slowdowns.
    memo_len: usize,
    memo_ext: [u64; MEMO_WAYS],
    memo_slowdown: [f64; MEMO_WAYS],
}

impl Slot {
    /// `model.slowdown(pu, cost, ext).max(1.0)`, looked up at most once
    /// per distinct `ext` bit pattern per call (the lookup is a pure
    /// function of its inputs, and `pu` and `cost` are fixed per slot).
    fn slowdown(&mut self, model: &ContentionModel, ext: f64) -> f64 {
        let key = ext.to_bits();
        if let Some(i) = self.memo_ext[..self.memo_len]
            .iter()
            .position(|&k| k == key)
        {
            return self.memo_slowdown[i];
        }
        let s = model.slowdown(self.pu, &self.cost, ext).max(1.0);
        if self.memo_len < MEMO_WAYS {
            self.memo_ext[self.memo_len] = key;
            self.memo_slowdown[self.memo_len] = s;
            self.memo_len += 1;
        }
        s
    }
}

/// Reusable scratch for [`TimelineEvaluator::evaluate_into`]: owns every
/// buffer the evaluator needs, so repeated evaluations (the solver's leaf
/// hot path) allocate nothing after warm-up.
///
/// A workspace is evaluator-agnostic — buffers are (re)sized and the slot
/// table rebuilt on each call — but reusing one across *different*
/// workloads simply re-grows them.
#[derive(Default)]
pub struct TimelineWorkspace {
    /// Flat per-group timings; task `t`'s groups live at
    /// `group_off[t] .. group_off[t] + num_groups(t)`.
    timings: Vec<GroupTiming>,
    /// Start of each task's row in `timings`.
    group_off: Vec<usize>,
    /// Per-call slot table, indexed like `timings`.
    slots: Vec<Slot>,
    pu_free: Vec<f64>,
    next_group: Vec<usize>,
    task_end: Vec<f64>,
    /// Footprints of the previous fixed-point iteration (read side).
    footprints: Vec<Footprint>,
    /// Footprints being recorded this iteration (write side; swapped).
    next_footprints: Vec<Footprint>,
    /// Event-boundary scratch for `integrate`.
    events: Vec<f64>,
    /// Indices into `footprints` of the co-runners still live at the
    /// start of the group `integrate` is placing.
    live: Vec<usize>,
    /// Slot → index into `footprints`, rebuilt only when damping fires.
    slot_index: Vec<usize>,
}

impl TimelineWorkspace {
    /// Per-task completion times of the last evaluation (absolute, ms).
    pub fn task_latency_ms(&self) -> &[f64] {
        &self.task_end
    }

    /// Timing of `(task, group)` from the last evaluation.
    pub fn timing(&self, task: usize, group: usize) -> &GroupTiming {
        &self.timings[self.group_off[task] + group]
    }
}

/// The scalar outputs of one [`TimelineEvaluator::evaluate_into`] call
/// (per-task / per-group detail stays in the [`TimelineWorkspace`]).
#[derive(Debug, Clone, Copy)]
pub struct TimelineSummary {
    /// Completion of the last task, ms.
    pub makespan_ms: f64,
    /// Largest same-PU queuing wait observed, ms (Eq. 9's subject).
    pub max_wait_ms: f64,
    /// Total transition overhead charged, ms.
    pub total_transition_ms: f64,
    /// Whether the contention fixed point genuinely converged (makespan
    /// stationary between the last two passes). `false` means the
    /// iteration budget ran out — the returned iterate is the last one
    /// computed and its figures are estimates, not a fixed point.
    pub converged: bool,
    /// Number of fixed-point passes executed.
    pub iterations: usize,
}

impl<'a> TimelineEvaluator<'a> {
    /// Creates an evaluator.
    pub fn new(workload: &'a Workload, model: &'a ContentionModel) -> Self {
        let upstream = (0..workload.tasks.len())
            .map(|t| workload.upstream(t))
            .collect();
        TimelineEvaluator {
            workload,
            model,
            upstream,
            contention_aware: true,
            max_iters: 10,
        }
    }

    /// Integrates one group's execution starting at `start` under the
    /// slowdown profile induced by `others`, returning `(end, mean_slowdown)`.
    /// `events` and `live` are caller-owned scratch (cleared here, reused
    /// across calls).
    fn integrate(
        &self,
        task: usize,
        slot: &mut Slot,
        start: f64,
        others: &[Footprint],
        events: &mut Vec<f64>,
        live: &mut Vec<usize>,
    ) -> (f64, f64) {
        let t0 = slot.cost.time_ms;
        if !self.contention_aware || t0 <= 0.0 {
            return (start + t0, 1.0);
        }
        // Event boundaries after `start` from other tasks' groups on other
        // PUs, and those groups still live after `start`, in footprint
        // order.
        events.clear();
        live.clear();
        for (i, f) in others.iter().enumerate() {
            if f.task == task || f.pu == slot.pu {
                continue;
            }
            if f.interval.start > start {
                events.push(f.interval.start);
            }
            if f.interval.end > start {
                events.push(f.interval.end);
                live.push(i);
            }
        }
        // `total_cmp` keeps a NaN boundary (degenerate profile) from
        // panicking mid-solve; NaNs order last and poison the makespan,
        // which the validator then reports as non-finite.
        events.sort_by(f64::total_cmp);
        events.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

        // Only ever asked at `t >= start`, and `contains(t)` implies
        // `end > t`, so the live list drops no term and keeps the sum's
        // order.
        let external_at = |t: f64| -> f64 {
            live.iter()
                .map(|&i| &others[i])
                .filter(|f| f.interval.contains(t))
                .map(|f| f.demand_gbps)
                .sum()
        };

        let mut now = start;
        let mut remaining = t0;
        for &ev in events.iter() {
            if remaining <= 0.0 {
                break;
            }
            let seg = ev - now;
            if seg <= 0.0 {
                continue;
            }
            let s = slot.slowdown(self.model, external_at(now + 0.5 * seg.min(remaining)));
            let consumed = seg / s;
            if consumed >= remaining {
                now += remaining * s;
                remaining = 0.0;
                break;
            }
            remaining -= consumed;
            now = ev;
        }
        if remaining > 0.0 {
            let s = slot.slowdown(self.model, external_at(now));
            now += remaining * s;
        }
        let end = now;
        (end, (end - start) / t0)
    }

    /// Predicts the timeline of `assignment` (`assignment[task][group]` is
    /// the PU of that group).
    ///
    /// Thin wrapper over [`TimelineEvaluator::evaluate_into`] — both paths
    /// share the same arithmetic, so their results are bit-identical.
    pub fn evaluate(&self, assignment: &[Vec<PuId>]) -> PredictedTimeline {
        let w = self.workload;
        assert_eq!(assignment.len(), w.tasks.len(), "one row per task");
        let mut ws = TimelineWorkspace::default();
        let summary = self.evaluate_into(&mut ws, |t, g| assignment[t][g]);
        let groups = w
            .tasks
            .iter()
            .enumerate()
            .map(|(t, task)| {
                (0..task.num_groups())
                    .map(|g| *ws.timing(t, g))
                    .collect::<Vec<_>>()
            })
            .collect();
        PredictedTimeline {
            groups,
            task_latency_ms: ws.task_end.clone(),
            makespan_ms: summary.makespan_ms,
            max_wait_ms: summary.max_wait_ms,
            total_transition_ms: summary.total_transition_ms,
            converged: summary.converged,
        }
    }

    /// Predicts the timeline of the assignment described by `pu_of(task,
    /// group)`, reusing `ws`'s buffers — allocation-free after warm-up.
    ///
    /// The closure-based assignment view lets callers keep assignments in
    /// whatever layout they already have (the solver's flat `Vec<u32>`)
    /// without materializing per-task rows. Scalar results are returned;
    /// per-task / per-group detail stays readable from `ws`.
    pub fn evaluate_into(
        &self,
        ws: &mut TimelineWorkspace,
        pu_of: impl Fn(usize, usize) -> PuId,
    ) -> TimelineSummary {
        let w = self.workload;
        let n_tasks = w.tasks.len();
        ws.group_off.clear();
        let mut total_groups = 0usize;
        for t in &w.tasks {
            ws.group_off.push(total_groups);
            total_groups += t.num_groups();
        }
        // The slot table: everything about a group that the assignment
        // fixes, computed once per call instead of once per pass.
        ws.slots.clear();
        let mut n_pus = 1usize;
        for (t, task) in w.tasks.iter().enumerate() {
            let profile = &task.profile;
            for g in 0..task.num_groups() {
                let pu = pu_of(t, g);
                n_pus = n_pus.max(pu + 1);
                // Transition overheads (Eq. 2/3): tau_in when the previous
                // group ran elsewhere; tau_out when the next group will.
                let tau_in = if g > 0 && pu_of(t, g - 1) != pu {
                    profile.groups[g - 1].tr_in_ms[pu]
                } else {
                    0.0
                };
                let tau_out = if g + 1 < profile.len() && pu_of(t, g + 1) != pu {
                    profile.groups[g].tr_out_ms[pu]
                } else {
                    0.0
                };
                ws.slots.push(Slot {
                    pu,
                    tau_in,
                    tau_out,
                    cost: profile.groups[g].cost[pu].expect("assignment respects supported PUs"),
                    memo_len: 0,
                    memo_ext: [0; MEMO_WAYS],
                    memo_slowdown: [0.0; MEMO_WAYS],
                });
            }
        }

        ws.footprints.clear();
        let mut summary = TimelineSummary {
            makespan_ms: 0.0,
            max_wait_ms: 0.0,
            total_transition_ms: 0.0,
            converged: false,
            iterations: 0,
        };
        let mut prev_makespan = f64::INFINITY;
        let mut prev_prev_makespan = f64::INFINITY;

        for iter in 0..self.max_iters.max(1) {
            ws.timings.clear();
            ws.timings.resize(
                total_groups,
                GroupTiming {
                    pu: 0,
                    start_ms: 0.0,
                    end_ms: 0.0,
                    wait_ms: 0.0,
                    slowdown: 1.0,
                },
            );
            ws.pu_free.clear();
            ws.pu_free.resize(n_pus, 0.0);
            ws.next_group.clear();
            ws.next_group.resize(n_tasks, 0);
            ws.task_end.clear();
            ws.task_end.resize(n_tasks, 0.0);
            let mut max_wait = 0.0f64;
            let mut total_transition = 0.0f64;
            ws.next_footprints.clear();

            // List scheduling: repeatedly dispatch the group that can start
            // earliest; equal start times resolve FIFO by readiness (the
            // accelerator queue semantics of the simulator and of real
            // TensorRT contexts time-slicing a GPU), then by task index.
            loop {
                let mut pick: Option<(usize, f64, f64)> = None; // (task, ready, start)
                for t in 0..n_tasks {
                    let g = ws.next_group[t];
                    if g >= w.tasks[t].num_groups() {
                        continue;
                    }
                    // Ready: previous group done and upstream tasks done
                    // (upstream only gates the first group).
                    let mut ready = if g > 0 {
                        ws.timings[ws.group_off[t] + g - 1].end_ms
                    } else {
                        0.0
                    };
                    if g == 0 {
                        for &up in &self.upstream[t] {
                            // An upstream task still running blocks us; its
                            // current end estimate is a lower bound, so only
                            // dispatch once it has fully finished.
                            if ws.next_group[up] < w.tasks[up].num_groups() {
                                ready = f64::INFINITY;
                            } else {
                                ready = ready.max(ws.task_end[up]);
                            }
                        }
                    }
                    if !ready.is_finite() {
                        continue;
                    }
                    let start = ready.max(ws.pu_free[ws.slots[ws.group_off[t] + g].pu]);
                    let better = match pick {
                        None => true,
                        Some((_, r, s)) => {
                            start < s - 1e-12 || (start < s + 1e-12 && ready < r - 1e-12)
                        }
                    };
                    if better {
                        pick = Some((t, ready, start));
                    }
                }
                let Some((t, ready, start)) = pick else {
                    break;
                };
                let g = ws.next_group[t];
                let idx = ws.group_off[t] + g;
                let Slot {
                    pu,
                    tau_in,
                    tau_out,
                    ..
                } = ws.slots[idx];
                total_transition += tau_in + tau_out;

                let exec_start = start + tau_in;
                let (exec_end, slowdown) = self.integrate(
                    t,
                    &mut ws.slots[idx],
                    exec_start,
                    &ws.footprints,
                    &mut ws.events,
                    &mut ws.live,
                );
                let end = exec_end + tau_out;

                ws.timings[idx] = GroupTiming {
                    pu,
                    start_ms: start,
                    end_ms: end,
                    wait_ms: start - ready,
                    slowdown,
                };
                max_wait = max_wait.max(start - ready);
                ws.pu_free[pu] = end;
                ws.task_end[t] = end;
                ws.next_group[t] += 1;
                ws.next_footprints.push(Footprint {
                    task: t,
                    slot: idx,
                    pu,
                    interval: Interval::new(exec_start, exec_end),
                    demand_gbps: ws.slots[idx].cost.demand_gbps,
                });
            }

            // All groups dispatched?
            #[allow(clippy::needless_range_loop)]
            for t in 0..n_tasks {
                assert_eq!(
                    ws.next_group[t],
                    w.tasks[t].num_groups(),
                    "dependency cycle in workload"
                );
            }

            let makespan = ws.task_end.iter().cloned().fold(0.0, f64::max);
            let converged = (makespan - prev_makespan).abs() < 1e-6;
            // A period-2 cycle (this makespan equals the one from two
            // passes ago, but not the previous one) would ping-pong until
            // the budget runs out while the successive-iterate test never
            // fires. Break it by damping: feed the next pass each group's
            // *averaged* interval from the last two estimates. Demands are
            // per-(task, group) constants under a fixed assignment, so only
            // the intervals need blending; slots pair the estimates because
            // dispatch order may differ between passes.
            let oscillating = !converged && (makespan - prev_prev_makespan).abs() < 1e-6;
            if oscillating && !ws.footprints.is_empty() {
                ws.slot_index.clear();
                ws.slot_index.resize(total_groups, usize::MAX);
                for (i, f) in ws.footprints.iter().enumerate() {
                    ws.slot_index[f.slot] = i;
                }
                for f in ws.next_footprints.iter_mut() {
                    let j = ws.slot_index[f.slot];
                    if j != usize::MAX {
                        let prev = ws.footprints[j].interval;
                        f.interval = Interval::new(
                            0.5 * (f.interval.start + prev.start),
                            0.5 * (f.interval.end + prev.end),
                        );
                    }
                }
            }
            prev_prev_makespan = prev_makespan;
            prev_makespan = makespan;
            std::mem::swap(&mut ws.footprints, &mut ws.next_footprints);
            summary = TimelineSummary {
                makespan_ms: makespan,
                max_wait_ms: max_wait,
                total_transition_ms: total_transition,
                // A contention-blind pass is exact by construction.
                converged: converged || !self.contention_aware,
                iterations: iter + 1,
            };
            if summary.converged {
                break;
            }
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{DnnTask, Workload};
    use haxconn_dnn::Model;
    use haxconn_profiler::NetworkProfile;
    use haxconn_soc::{orin_agx, Platform};

    fn setup(models: &[Model]) -> (Platform, Workload, ContentionModel) {
        let p = orin_agx();
        let tasks = models
            .iter()
            .map(|&m| DnnTask::new(m.name(), NetworkProfile::profile(&p, m, 8)))
            .collect();
        let cm = ContentionModel::calibrate(&p);
        (p, Workload::concurrent(tasks), cm)
    }

    fn all_on(w: &Workload, pu: PuId) -> Vec<Vec<PuId>> {
        w.tasks.iter().map(|t| vec![pu; t.num_groups()]).collect()
    }

    #[test]
    fn single_task_matches_standalone() {
        let (p, w, cm) = setup(&[Model::ResNet18]);
        let ev = TimelineEvaluator::new(&w, &cm);
        let tl = ev.evaluate(&all_on(&w, p.gpu()));
        let standalone = w.tasks[0].profile.standalone_ms(p.gpu()).unwrap();
        assert!((tl.makespan_ms - standalone).abs() < 1e-6);
        assert_eq!(tl.total_transition_ms, 0.0);
        assert_eq!(tl.max_wait_ms, 0.0);
        assert!((tl.mean_slowdown(0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn same_pu_tasks_serialize_with_wait() {
        let (p, w, cm) = setup(&[Model::ResNet18, Model::ResNet18]);
        let ev = TimelineEvaluator::new(&w, &cm);
        let tl = ev.evaluate(&all_on(&w, p.gpu()));
        let standalone = w.tasks[0].profile.standalone_ms(p.gpu()).unwrap();
        // Groups interleave FIFO; total = 2x standalone, with real waits.
        assert!((tl.makespan_ms - 2.0 * standalone).abs() < 1e-6);
        assert!(tl.max_wait_ms > 0.0);
    }

    #[test]
    fn split_tasks_overlap_and_contend() {
        let (p, w, cm) = setup(&[Model::ResNet101, Model::GoogleNet]);
        let ev = TimelineEvaluator::new(&w, &cm);
        let mut assignment = all_on(&w, p.gpu());
        // Second task entirely on the DLA where supported.
        for (g, gp) in w.tasks[1].profile.groups.iter().enumerate() {
            if gp.cost[p.dsa()].is_some() {
                assignment[1][g] = p.dsa();
            }
        }
        let tl = ev.evaluate(&assignment);
        // Both make progress concurrently; makespan below serialized sum.
        let sum = w.tasks[0].profile.standalone_ms(p.gpu()).unwrap()
            + w.tasks[1]
                .profile
                .standalone_with_fallback_ms(p.dsa(), p.gpu());
        assert!(tl.makespan_ms < sum);
        // Contention shows up as slowdown > 1 somewhere.
        let worst = tl
            .groups
            .iter()
            .flatten()
            .map(|t| t.slowdown)
            .fold(0.0f64, f64::max);
        assert!(worst > 1.01, "expected contention, worst {worst}");
    }

    #[test]
    fn contention_blind_mode_predicts_no_slowdown() {
        let (p, w, cm) = setup(&[Model::ResNet101, Model::GoogleNet]);
        let mut ev = TimelineEvaluator::new(&w, &cm);
        ev.contention_aware = false;
        let mut assignment = all_on(&w, p.gpu());
        for (g, gp) in w.tasks[1].profile.groups.iter().enumerate() {
            if gp.cost[p.dsa()].is_some() {
                assignment[1][g] = p.dsa();
            }
        }
        let tl = ev.evaluate(&assignment);
        for t in tl.groups.iter().flatten() {
            assert!((t.slowdown - 1.0).abs() < 1e-9);
        }
        // And it is (optimistically) faster than the aware prediction.
        let aware = TimelineEvaluator::new(&w, &cm).evaluate(&assignment);
        assert!(tl.makespan_ms <= aware.makespan_ms + 1e-9);
    }

    #[test]
    fn transitions_are_charged() {
        let (p, w, cm) = setup(&[Model::ResNet50]);
        let ev = TimelineEvaluator::new(&w, &cm);
        let n = w.tasks[0].num_groups();
        // Switch to DLA halfway (only where supported).
        let mut assignment = all_on(&w, p.gpu());
        #[allow(clippy::needless_range_loop)]
        for g in n / 2..n {
            if w.tasks[0].profile.groups[g].cost[p.dsa()].is_some() {
                assignment[0][g] = p.dsa();
            }
        }
        let tl = ev.evaluate(&assignment);
        assert!(tl.total_transition_ms > 0.0);
        // Still a valid chain: starts are monotone.
        let times = &tl.groups[0];
        for w2 in times.windows(2) {
            assert!(w2[1].start_ms >= w2[0].end_ms - 1e-9);
        }
    }

    #[test]
    fn pipeline_dep_serializes_tasks() {
        let p = orin_agx();
        let tasks = vec![
            DnnTask::new("a", NetworkProfile::profile(&p, Model::ResNet18, 6)),
            DnnTask::new("b", NetworkProfile::profile(&p, Model::GoogleNet, 6)),
        ];
        let w = Workload::pipeline(tasks);
        let cm = ContentionModel::calibrate(&p);
        let ev = TimelineEvaluator::new(&w, &cm);
        let tl = ev.evaluate(&all_on(&w, p.gpu()));
        assert!(tl.groups[1][0].start_ms >= tl.task_latency_ms[0] - 1e-9);
    }

    /// A collaborative assignment: odd tasks on the DLA where supported.
    fn split(p: &Platform, w: &Workload) -> Vec<Vec<PuId>> {
        w.tasks
            .iter()
            .enumerate()
            .map(|(t, task)| {
                task.profile
                    .groups
                    .iter()
                    .map(|g| {
                        if t % 2 == 1 && g.cost[p.dsa()].is_some() {
                            p.dsa()
                        } else {
                            p.gpu()
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Every output bit of one `evaluate_into` call.
    fn bits(ws: &TimelineWorkspace, s: TimelineSummary, w: &Workload) -> Vec<u64> {
        let mut out = vec![
            s.makespan_ms.to_bits(),
            s.max_wait_ms.to_bits(),
            s.total_transition_ms.to_bits(),
            s.converged as u64,
            s.iterations as u64,
        ];
        out.extend(ws.task_latency_ms().iter().map(|x| x.to_bits()));
        for (t, task) in w.tasks.iter().enumerate() {
            for g in 0..task.num_groups() {
                let x = ws.timing(t, g);
                out.push(x.pu as u64);
                for v in [x.start_ms, x.end_ms, x.wait_ms, x.slowdown] {
                    out.push(v.to_bits());
                }
            }
        }
        out
    }

    #[test]
    fn reused_workspace_matches_fresh_across_workloads() {
        let (p, two, cm) = setup(&[Model::ResNet101, Model::GoogleNet]);
        let (_, three, _) = setup(&[Model::GoogleNet, Model::ResNet50, Model::InceptionV4]);
        let fresh = |w: &Workload| {
            let a = split(&p, w);
            let mut ws = TimelineWorkspace::default();
            let s = TimelineEvaluator::new(w, &cm).evaluate_into(&mut ws, |t, g| a[t][g]);
            bits(&ws, s, w)
        };
        let mut shared = TimelineWorkspace::default();
        for w in [&two, &three, &two] {
            let a = split(&p, w);
            let s = TimelineEvaluator::new(w, &cm).evaluate_into(&mut shared, |t, g| a[t][g]);
            assert_eq!(bits(&shared, s, w), fresh(w));
        }
    }

    #[test]
    fn warm_evaluate_into_is_allocation_free() {
        let (p, w, cm) = setup(&[Model::GoogleNet, Model::ResNet101, Model::InceptionV4]);
        let a = split(&p, &w);
        let ev = TimelineEvaluator::new(&w, &cm);
        let mut ws = TimelineWorkspace::default();
        let warm = ev.evaluate_into(&mut ws, |t, g| a[t][g]);
        assert!(warm.iterations > 1, "the fixed point takes several passes");
        let guard = haxconn_telemetry::alloc::AllocGuard::begin("timeline.evaluate_into");
        let again = ev.evaluate_into(&mut ws, |t, g| a[t][g]);
        guard.assert_zero();
        assert_eq!(again.makespan_ms.to_bits(), warm.makespan_ms.to_bits());
    }

    #[test]
    fn deterministic() {
        let (p, w, cm) = setup(&[Model::GoogleNet, Model::ResNet101]);
        let ev = TimelineEvaluator::new(&w, &cm);
        let mut assignment = all_on(&w, p.gpu());
        for (g, gp) in w.tasks[0].profile.groups.iter().enumerate() {
            if g % 2 == 0 && gp.cost[p.dsa()].is_some() {
                assignment[0][g] = p.dsa();
            }
        }
        let a = ev.evaluate(&assignment);
        let b = ev.evaluate(&assignment);
        assert_eq!(a.makespan_ms, b.makespan_ms);
        assert_eq!(a.max_wait_ms, b.max_wait_ms);
    }
}
