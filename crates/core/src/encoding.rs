//! Encoding of the scheduling problem for the constraint solver
//! (paper Section 3.4 → `haxconn-solver`).
//!
//! Decision variables: one per (task, layer group), domain = the PUs that
//! support every layer in the group (Eq. 1). The objective evaluates the
//! full contention-interval timeline (Eqs. 2–8); a transition budget per
//! task keeps the search space small, mirroring the structure of the
//! paper's optimal schedules (at most a couple of transitions per DNN).
//!
//! The ε constraint (Eq. 9) is a tier of the objective, not a feasibility
//! rule: an assignment whose same-PU queuing wait exceeds ε costs its
//! objective mapped above every ε-feasible cost ([`ScheduleEncoding`]'s
//! `violating`). One minimization therefore orders assignments by
//! `(violates ε, cost)`: its optimum is the best ε-feasible schedule when
//! one exists, and the best schedule with queuing modeled otherwise.
//!
//! The lower bound behind `bound_with` is incremental at task
//! granularity: `push`/`pop` mark the tasks that read the changed
//! variable, and the bound pass restores its running sums (total work,
//! per-PU heads, loads and tails) from a snapshot at the first marked
//! task's boundary, recomputes the marked tasks' slot occupancies, and
//! re-adds the cached occupancies of the later tasks. Every
//! floating-point operation keeps the full pass's order, so bounds, and
//! hence prune decisions, are bit-identical to `bound`'s.

use crate::problem::{Objective, SchedulerConfig, Workload};
use crate::timeline::{PredictedTimeline, TimelineEvaluator, TimelineWorkspace};
use haxconn_contention::ContentionModel;
use haxconn_solver::{Assignment, CostModel, PartialAssignment};
use std::cell::RefCell;

/// The scheduling problem as a [`CostModel`].
pub struct ScheduleEncoding<'a> {
    workload: &'a Workload,
    evaluator: TimelineEvaluator<'a>,
    config: SchedulerConfig,
    /// Per variable: allowed PU ids.
    domains: Vec<Vec<u32>>,
    /// Per task: (first var, number of groups) of its *representative* —
    /// tied tasks (pipeline frame instances) share their representative's
    /// variables.
    task_spans: Vec<(usize, usize)>,
    /// Per variable: domain is a singleton (forced placement, not a
    /// scheduling decision — exempt from the transition budget).
    pinned: Vec<bool>,
    /// Per variable: the representative task owning it.
    rep_of_var: Vec<usize>,
    /// Per representative task: the tasks whose slots read its variables
    /// (itself, then its tied copies; empty for a copy).
    readers: Vec<Vec<usize>>,
    /// Per task: offset of its first group in the flat *slot* arrays (one
    /// slot per (task, group), tied copies included).
    slot_off: Vec<usize>,
    /// `slot_cost[slot * (n_pus + 1) + pu]`: the slot's group on `pu`
    /// under its task's own profile. Column `n_pus` stands for
    /// "unassigned": the cheapest standalone time over the domain, and no
    /// transitions.
    slot_cost: Vec<SlotCost>,
    /// Per slot: what it adds to the total work while unassigned — its
    /// variable's cheapest load (its group's standalone times summed over
    /// every task sharing the variable, on one PU) for the representative,
    /// 0 for tied copies.
    slot_idle_work: Vec<f64>,
    /// Per task: the tasks it depends on (paper Eq. 4's streaming
    /// chains).
    upstream: Vec<Vec<usize>>,
    /// Every task after its upstream ones.
    topo: Vec<usize>,
    /// PU ids are `0..n_pus`.
    n_pus: usize,
    /// Number of distinct PUs in the union of all domains (the divisor of
    /// the total-work bound).
    usable_pus: f64,
    /// `collide[var]`: `(partner var, pu)` pairs of first groups of tasks
    /// without upstream dependencies such that both on `pu` violate ε at
    /// every completion, so a prefix holding such a pair bounds in the
    /// violating tier. A self-partner (tied copies share the variable)
    /// means `var` on `pu` alone suffices. Empty under the relaxed
    /// formulation.
    collide: Vec<Vec<(usize, u32)>>,
}

/// Factor by which [`CostModel::bound`]'s latency lower bounds, and the
/// ε-collision threshold, are shaded: a relative margin of 1e-9 absorbs
/// floating-point rounding, since the timeline accumulates group times in
/// its own order (a few ulps per dispatched group) and an exact sum of the
/// same times can exceed it by an ulp.
const SHADE: f64 = 1.0 - 1e-9;

/// 2^64: the factor that maps an objective value into the ε-violating
/// tier ([`ScheduleEncoding::violating`]).
const TIER: f64 = 18_446_744_073_709_551_616.0;

/// What one slot's group costs on one PU, under its task's own profile.
#[derive(Clone, Copy)]
struct SlotCost {
    /// Standalone time (`INFINITY` where the group cannot run).
    time_ms: f64,
    /// Transition the PU runs first when the previous group ran elsewhere
    /// (`tau_in` of `evaluate_into`; 0 for a first group).
    tr_in_ms: f64,
    /// Transition the PU runs last when the next group runs elsewhere
    /// (`tau_out`; 0 for a last group).
    tr_out_ms: f64,
}

/// One slot of a complete assignment in the release-ordered bound:
/// `ends[0]` is its head, `ends[1]` its tail.
#[derive(Clone, Copy)]
struct Job {
    occ: f64,
    ends: [f64; 2],
}

/// Work buffers of [`ScheduleEncoding::lower_bound`], sized per encoding.
#[derive(Default)]
struct BoundBuf {
    /// Per slot: occupancy and head.
    occ: Vec<f64>,
    head: Vec<f64>,
    /// Per task: Σ occupancy over its slots, and the chain bound on its
    /// end.
    task_occ: Vec<f64>,
    task_end: Vec<f64>,
    /// Per PU: smallest head, Σ occupancy and smallest tail of the
    /// assigned slots on it. Entry `n_pus` collects the unassigned ones.
    pu_head: Vec<f64>,
    pu_load: Vec<f64>,
    pu_tail: Vec<f64>,
    /// Per PU: its slots of a complete assignment.
    jobs: Vec<Vec<Job>>,
    /// Per task: whether a variable of its span changed since its `occ`,
    /// `head` and `task_occ` entries were last computed.
    dirty: Vec<bool>,
    /// Least dirty task (the task count when none is).
    first_dirty: usize,
    /// Per task boundary `t` (the tasks before `t` added, `0..=n_tasks`):
    /// the running total work, then `pu_head`, `pu_load` and `pu_tail`.
    /// The tasks before the first dirty one are restored from here
    /// instead of added again.
    snap: Vec<f64>,
}

impl BoundBuf {
    /// Values per task boundary in `snap`: the work, then three per-PU
    /// rows.
    fn stride(&self) -> usize {
        1 + 3 * self.pu_head.len()
    }

    /// Saves the running sums at task boundary `t`.
    fn save(&mut self, t: usize, work: f64) {
        let (cols, stride) = (self.pu_head.len(), self.stride());
        let snap = &mut self.snap[t * stride..(t + 1) * stride];
        snap[0] = work;
        snap[1..1 + cols].copy_from_slice(&self.pu_head);
        snap[1 + cols..1 + 2 * cols].copy_from_slice(&self.pu_load);
        snap[1 + 2 * cols..].copy_from_slice(&self.pu_tail);
    }

    /// Restores the running sums saved at task boundary `t` (the empty
    /// sums at 0) and returns the work.
    fn restore(&mut self, t: usize) -> f64 {
        if t == 0 {
            self.pu_head.fill(f64::INFINITY);
            self.pu_load.fill(0.0);
            self.pu_tail.fill(f64::INFINITY);
            return 0.0;
        }
        let (cols, stride) = (self.pu_head.len(), self.stride());
        let snap = &self.snap[t * stride..(t + 1) * stride];
        self.pu_head.copy_from_slice(&snap[1..1 + cols]);
        self.pu_load.copy_from_slice(&snap[1 + cols..1 + 2 * cols]);
        self.pu_tail.copy_from_slice(&snap[1 + 2 * cols..]);
        snap[0]
    }
}

/// Per-worker incremental state for [`ScheduleEncoding`] (the solver's
/// `CostModel::Scratch`). Maintained by `push`/`pop` under the engine's
/// LIFO discipline; see the field docs for the exact invariants.
///
/// `Default` yields an *unsized placeholder* — real instances come from
/// [`CostModel::new_scratch`], which sizes every buffer for the encoding.
#[derive(Default)]
pub struct ScheduleScratch {
    /// Mirror of the engine's partial assignment (`push`/`pop` don't see
    /// it, so the scratch keeps its own copy): `assigned` as the engine
    /// sees it, and each variable's PU in `fixed`, where a pinned variable
    /// holds its one PU from the root and an unassigned one holds `n_pus`.
    fixed: Vec<u32>,
    assigned: Vec<bool>,
    /// Number of unassigned variables that are not pinned: the
    /// assignment is complete when it reaches 0.
    unknown: usize,
    /// Per representative task: adjacent-pair transition count (pairs of
    /// consecutive assigned vars in the span with differing values,
    /// neither pinned) — exactly what `over_transition_budget` counts.
    trans: Vec<usize>,
    /// Number of representative tasks currently over the transition
    /// budget; `prune_with` is the O(1) check `violations > 0`.
    violations: usize,
    /// Number of live ε-collisions (pairs of `collide` entries both
    /// assigned to the colliding PU); any puts every completion of the
    /// prefix in the violating tier.
    collisions: usize,
    /// Lower-bound buffers (`bound_with` only borrows the scratch).
    bound: RefCell<BoundBuf>,
    /// Timeline evaluation workspace reused across `cost_with` leaves.
    pub(crate) ws: TimelineWorkspace,
}

impl<'a> ScheduleEncoding<'a> {
    /// Builds the encoding.
    pub fn new(
        workload: &'a Workload,
        model: &'a ContentionModel,
        config: SchedulerConfig,
    ) -> Self {
        let mut evaluator = TimelineEvaluator::new(workload, model);
        evaluator.contention_aware = config.contention_aware;
        let mut domains: Vec<Vec<u32>> = Vec::with_capacity(workload.num_vars());
        let mut task_spans: Vec<(usize, usize)> = Vec::with_capacity(workload.tasks.len());
        for (t, task) in workload.tasks.iter().enumerate() {
            if let Some(rep) = workload.ties[t] {
                // Tied task: reuse the representative's variable span
                // (representatives always precede their copies).
                task_spans.push(task_spans[rep]);
                continue;
            }
            task_spans.push((domains.len(), task.num_groups()));
            for group in &task.profile.groups {
                let pus = group.supported_pus();
                assert!(!pus.is_empty(), "group supported nowhere");
                domains.push(pus.iter().map(|&p| p as u32).collect());
            }
        }

        let n_vars = domains.len();
        let n_tasks = workload.tasks.len();
        let pinned: Vec<bool> = domains.iter().map(|d| d.len() == 1).collect();
        let n_pus = domains
            .iter()
            .flatten()
            .map(|&v| v as usize + 1)
            .max()
            .unwrap_or(1);

        let mut rep_of_var = vec![0usize; n_vars];
        let mut readers = vec![Vec::new(); n_tasks];
        for (t, &(start, len)) in task_spans.iter().enumerate() {
            match workload.ties[t] {
                None => {
                    rep_of_var[start..start + len].fill(t);
                    readers[t].push(t);
                }
                Some(rep) => readers[rep].push(t),
            }
        }

        // Slots in task order, `n_pus + 1` cost columns each; `var_load`
        // sums a variable's standalone times over every task sharing it,
        // per PU.
        let cols = n_pus + 1;
        let mut slot_off = Vec::with_capacity(n_tasks);
        let mut slot_cost = Vec::new();
        let mut var_load = vec![0.0f64; n_vars * n_pus];
        for (t, &(start, len)) in task_spans.iter().enumerate() {
            slot_off.push(slot_cost.len() / cols);
            let groups = &workload.tasks[t].profile.groups;
            for g in 0..len {
                let var = start + g;
                for pu in 0..n_pus {
                    let time_ms = groups[g].cost[pu].map_or(f64::INFINITY, |c| c.time_ms);
                    var_load[var * n_pus + pu] += time_ms;
                    let tr_in_ms = g
                        .checked_sub(1)
                        .map_or(0.0, |prev| groups[prev].tr_in_ms[pu]);
                    let tr_out_ms = if g + 1 < len {
                        groups[g].tr_out_ms[pu]
                    } else {
                        0.0
                    };
                    slot_cost.push(SlotCost {
                        time_ms,
                        tr_in_ms,
                        tr_out_ms,
                    });
                }
                let row = &slot_cost[slot_cost.len() - n_pus..];
                let cheapest = domains[var]
                    .iter()
                    .map(|&pu| row[pu as usize].time_ms)
                    .fold(f64::INFINITY, f64::min);
                slot_cost.push(SlotCost {
                    time_ms: cheapest,
                    tr_in_ms: 0.0,
                    tr_out_ms: 0.0,
                });
            }
        }
        let var_load_min: Vec<f64> = domains
            .iter()
            .enumerate()
            .map(|(var, dom)| {
                dom.iter()
                    .map(|&pu| var_load[var * n_pus + pu as usize])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let mut slot_idle_work = vec![0.0; slot_cost.len() / cols];
        for (t, &(start, len)) in task_spans.iter().enumerate() {
            if workload.ties[t].is_none() {
                let off = slot_off[t];
                slot_idle_work[off..off + len].copy_from_slice(&var_load_min[start..start + len]);
            }
        }

        let upstream: Vec<Vec<usize>> = (0..n_tasks).map(|t| workload.upstream(t)).collect();
        let mut topo = Vec::with_capacity(n_tasks);
        let mut placed = vec![false; n_tasks];
        while topo.len() < n_tasks {
            let before = topo.len();
            for t in 0..n_tasks {
                if !placed[t] && upstream[t].iter().all(|&u| placed[u]) {
                    placed[t] = true;
                    topo.push(t);
                }
            }
            assert!(topo.len() > before, "dependency cycle in workload");
        }

        let mut usable = vec![false; n_pus];
        for &pu in domains.iter().flatten() {
            usable[pu as usize] = true;
        }
        let usable_pus = usable.iter().filter(|&&u| u).count() as f64;

        // ε-collisions (Eq. 9): two tasks without upstream dependencies are
        // both ready at t = 0, so if their first groups share a PU the one
        // dispatched second waits at least the other's standalone time
        // there (slowdown ≥ 1). When the smaller of the two exceeds ε, every
        // completion violates ε.
        let mut collide: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n_vars];
        if let Some(eps) = config.epsilon_ms {
            let roots: Vec<usize> = (0..n_tasks).filter(|&t| upstream[t].is_empty()).collect();
            let first_time =
                |t: usize, pu: u32| slot_cost[slot_off[t] * cols + pu as usize].time_ms;
            for (i, &a) in roots.iter().enumerate() {
                for &b in &roots[i + 1..] {
                    let (va, vb) = (task_spans[a].0, task_spans[b].0);
                    for &pu in domains[va].iter().filter(|pu| domains[vb].contains(pu)) {
                        let wait = first_time(a, pu).min(first_time(b, pu));
                        if wait * SHADE <= eps {
                            continue;
                        }
                        for (v, partner) in [(va, vb), (vb, va)] {
                            if !collide[v].contains(&(partner, pu)) {
                                collide[v].push((partner, pu));
                            }
                        }
                    }
                }
            }
        }

        ScheduleEncoding {
            workload,
            evaluator,
            config,
            domains,
            task_spans,
            pinned,
            rep_of_var,
            readers,
            slot_off,
            slot_cost,
            slot_idle_work,
            upstream,
            topo,
            n_pus,
            usable_pus,
            collide,
        }
    }

    /// Flat variable index behind `(task, group)` (tied tasks resolve to
    /// their representative's span).
    #[inline]
    pub(crate) fn var_of(&self, task: usize, group: usize) -> usize {
        self.task_spans[task].0 + group
    }

    /// Converts a flat solver assignment to per-task PU rows.
    pub fn to_rows(&self, assignment: &Assignment) -> Vec<Vec<usize>> {
        self.task_spans
            .iter()
            .map(|&(start, len)| {
                assignment[start..start + len]
                    .iter()
                    .map(|&v| v as usize)
                    .collect()
            })
            .collect()
    }

    /// Converts per-task PU rows to a flat solver assignment, the inverse
    /// of [`Self::to_rows`]: `None` when the rows do not have the
    /// workload's shape or two tied tasks' rows disagree.
    pub fn to_flat(&self, rows: &[Vec<usize>]) -> Option<Assignment> {
        let mut flat = vec![0; self.domains.len()];
        for (row, &(start, len)) in rows.iter().zip(&self.task_spans) {
            for (var, &pu) in flat[start..start + len].iter_mut().zip(row) {
                *var = pu as u32;
            }
        }
        (self.to_rows(&flat) == rows).then_some(flat)
    }

    /// `rows` as a solver warm start: the flat assignment and its
    /// [`CostModel::cost`], read off `rows`' own timeline `tl`. `None`
    /// outside the search space (a PU outside a domain, tied rows that
    /// disagree, a task over the transition budget).
    pub(crate) fn candidate(
        &self,
        rows: &[Vec<usize>],
        tl: &PredictedTimeline,
    ) -> Option<(Assignment, f64)> {
        let flat = self.to_flat(rows)?;
        let inside = flat.iter().zip(&self.domains).all(|(pu, d)| d.contains(pu))
            && !self.over_transition_budget(|var| Some(flat[var]));
        inside.then(|| (flat, self.objective_of(tl.max_wait_ms, &tl.task_latency_ms)))
    }

    /// Σ over `task`'s span of (assigned ? standalone time : cheapest
    /// time) — the per-task term of [`Self::chain_bound`].
    fn span_time_sum(&self, task: usize, partial: &PartialAssignment) -> f64 {
        let (start, len) = self.task_spans[task];
        let off = self.slot_off[task];
        let mut sum = 0.0;
        for g in 0..len {
            let col = partial[start + g].map_or(self.n_pus, |pu| pu as usize);
            sum += self.slot_cost[(off + g) * (self.n_pus + 1) + col].time_ms;
        }
        sum
    }

    /// Lower bounds on every task's end into `ends`: `sum(t)`, a bound on
    /// the task's own span, after the latest upstream end (the timeline
    /// starts a task once every upstream task is done).
    fn chain_ends(&self, sum: impl Fn(usize) -> f64, ends: &mut [f64]) {
        for &t in &self.topo {
            let release = self.upstream[t]
                .iter()
                .map(|&u| ends[u])
                .fold(0.0, f64::max);
            ends[t] = release + sum(t);
        }
    }

    /// Transition-count change caused by assigning (or unassigning — the
    /// LIFO discipline makes both ends see identical neighbour state)
    /// `var = value`: only the two adjacent pairs inside the span can be
    /// affected, and a pair counts iff both ends are assigned, differ, and
    /// neither is pinned.
    #[inline]
    fn transition_delta(&self, scratch: &ScheduleScratch, var: usize, value: u32) -> usize {
        let rep = self.rep_of_var[var];
        let mut delta = 0;
        if var > 0
            && self.rep_of_var[var - 1] == rep
            && scratch.assigned[var - 1]
            && scratch.fixed[var - 1] != value
            && !self.pinned[var]
            && !self.pinned[var - 1]
        {
            delta += 1;
        }
        if var + 1 < self.rep_of_var.len()
            && self.rep_of_var[var + 1] == rep
            && scratch.assigned[var + 1]
            && scratch.fixed[var + 1] != value
            && !self.pinned[var]
            && !self.pinned[var + 1]
        {
            delta += 1;
        }
        delta
    }

    /// Number of `collide` entries of `var = value` whose partner is
    /// assigned the same PU — the change in live ε-collisions from
    /// assigning (or, under LIFO, unassigning) `var`.
    #[inline]
    fn collision_delta(&self, scratch: &ScheduleScratch, var: usize, value: u32) -> usize {
        self.collide[var]
            .iter()
            .filter(|&&(other, pu)| {
                pu == value
                    && (other == var || (scratch.assigned[other] && scratch.fixed[other] == value))
            })
            .count()
    }

    /// Whether `partial` assigns some `collide` pair to its colliding PU
    /// (the from-scratch count of `ScheduleScratch::collisions`).
    fn collides(&self, partial: &PartialAssignment) -> bool {
        self.collide.iter().enumerate().any(|(var, entries)| {
            partial[var].is_some_and(|value| {
                entries
                    .iter()
                    .any(|&(other, pu)| pu == value && partial[other] == Some(value))
            })
        })
    }

    /// The objective-space bound implied by per-task latency lower bounds
    /// `lb(t)`, each scaled by `scale`: their max under `MinMaxLatency`;
    /// under `MaxThroughput`, cost = -Σ 1/T and T ≥ lb give -Σ 1/lb.
    #[inline]
    fn objective_bound(&self, lb: impl Fn(usize) -> f64, scale: f64) -> f64 {
        let tasks = 0..self.task_spans.len();
        match self.config.objective {
            Objective::MinMaxLatency => tasks.map(lb).fold(0.0, f64::max) * scale,
            Objective::MaxThroughput => -tasks
                .map(|t| 1000.0 / (lb(t) * scale).max(1e-9))
                .sum::<f64>(),
        }
    }

    /// The admissible lower bound behind both [`CostModel::bound`] and
    /// [`CostModel::bound_with`], which differ only in where `fixed` (each
    /// variable's PU, `n_pus` while unassigned; a pinned variable always
    /// holds its one PU) comes from. `complete` says no entry is `n_pus`.
    ///
    /// Each slot (a task's group) gets an *occupancy*: an assigned group
    /// its standalone time on its PU, plus the transition into it when the
    /// previous group is assigned elsewhere and the transition out when
    /// the next one is (`evaluate_into` runs both on the group's PU); an
    /// unassigned group its cheapest standalone time. A group's *head* is
    /// the occupancy of the groups before it in its task, its *tail* that
    /// of the groups after it. The timeline starts a group no earlier than
    /// its predecessor's end and than its PU's last end, and every
    /// slowdown is at least 1, so each head bounds its group's start, each
    /// tail the time from its end to the task's, and one PU runs one
    /// group at a time. Hence the makespan is at least
    ///
    /// * each task's chain: its occupancy sum after its upstream chains;
    /// * per PU, the smallest head of the groups on it, plus their total
    ///   occupancy, plus their smallest tail;
    /// * the total busy time spread over the usable PUs;
    /// * on a complete assignment, the release-ordered tightening of the
    ///   per-PU term ([`release_ordered_bound`]).
    ///
    /// Under `MaxThroughput` only the chains apply. Shaded by [`SHADE`].
    fn lower_bound(&self, buf: &mut BoundBuf, fixed: &[u32], complete: bool) -> f64 {
        let n_pus = self.n_pus;
        let unassigned = n_pus as u32;
        let latency = self.config.objective == Objective::MinMaxLatency;
        let cols = n_pus + 1;
        // The tasks before the first dirty one add exactly what they added
        // last time, in the same order: start from the running sums saved
        // at its boundary. Every later task adds its slots in the full
        // pass's order too, from its cached occupancies when it is clean.
        let first = buf.first_dirty;
        let mut work = buf.restore(first);
        if complete && latency {
            // The release-ordered term wants every slot, in task order.
            for (t, &(start, len)) in self.task_spans.iter().enumerate().take(first) {
                let (off, pus) = (self.slot_off[t], &fixed[start..start + len]);
                let mut tail = 0.0;
                for (g, &pu) in pus.iter().enumerate().rev() {
                    let s = off + g;
                    buf.jobs[pu as usize].push(Job {
                        occ: buf.occ[s],
                        ends: [buf.head[s], tail],
                    });
                    tail += buf.occ[s];
                }
            }
        }
        for (t, &(start, len)) in self.task_spans.iter().enumerate().skip(first) {
            buf.save(t, work);
            let off = self.slot_off[t];
            let pus = &fixed[start..start + len];
            if buf.dirty[t] {
                let mut head = 0.0;
                for (g, &pu) in pus.iter().enumerate() {
                    let s = off + g;
                    let c = &self.slot_cost[s * cols + pu as usize];
                    // The unassigned column's transitions are 0.
                    let mut occ = c.time_ms;
                    if g > 0 && pus[g - 1] != unassigned && pus[g - 1] != pu {
                        occ += c.tr_in_ms;
                    }
                    if g + 1 < len && pus[g + 1] != unassigned && pus[g + 1] != pu {
                        occ += c.tr_out_ms;
                    }
                    buf.occ[s] = occ;
                    buf.head[s] = head;
                    head += occ;
                }
                buf.task_occ[t] = head;
                buf.dirty[t] = false;
            }
            for (g, &pu) in pus.iter().enumerate() {
                let s = off + g;
                work += if pu == unassigned {
                    self.slot_idle_work[s]
                } else {
                    buf.occ[s]
                };
            }
            if !latency {
                continue;
            }
            let mut tail = 0.0;
            for (g, &pu) in pus.iter().enumerate().rev() {
                let (s, p) = (off + g, pu as usize);
                buf.pu_head[p] = buf.pu_head[p].min(buf.head[s]);
                buf.pu_load[p] += buf.occ[s];
                buf.pu_tail[p] = buf.pu_tail[p].min(tail);
                if complete {
                    buf.jobs[p].push(Job {
                        occ: buf.occ[s],
                        ends: [buf.head[s], tail],
                    });
                }
                tail += buf.occ[s];
            }
        }
        let n_tasks = self.task_spans.len();
        buf.save(n_tasks, work);
        buf.first_dirty = n_tasks;
        let (occ, ends) = (&buf.task_occ, &mut buf.task_end);
        self.chain_ends(|t| occ[t], ends);
        let chains = |t: usize| buf.task_end[t];
        if !latency {
            return self.objective_bound(chains, SHADE);
        }
        let mut best = self
            .objective_bound(chains, 1.0)
            .max(work / self.usable_pus);
        for p in 0..n_pus {
            if buf.pu_head[p].is_finite() {
                best = best.max(buf.pu_head[p] + buf.pu_load[p] + buf.pu_tail[p]);
            }
        }
        if complete {
            for jobs in &mut buf.jobs {
                best = best.max(release_ordered_bound(jobs));
                jobs.clear();
            }
        }
        best * SHADE
    }

    /// Empty lower-bound buffers sized for this encoding.
    fn bound_buf(&self) -> BoundBuf {
        let n_slots = self.slot_idle_work.len();
        let n_pus = self.n_pus;
        BoundBuf {
            occ: vec![0.0; n_slots],
            head: vec![0.0; n_slots],
            task_occ: vec![0.0; self.task_spans.len()],
            task_end: vec![0.0; self.task_spans.len()],
            pu_head: vec![0.0; n_pus + 1],
            pu_load: vec![0.0; n_pus + 1],
            pu_tail: vec![0.0; n_pus + 1],
            jobs: (0..n_pus).map(|_| Vec::with_capacity(n_slots)).collect(),
            dirty: vec![true; self.task_spans.len()],
            first_dirty: 0,
            snap: vec![0.0; (self.task_spans.len() + 1) * (1 + 3 * (n_pus + 1))],
        }
    }

    /// Marks every task that reads `var` (its representative and the tied
    /// copies after it) for recomputation in the next
    /// [`Self::lower_bound`] over `buf`.
    fn touch(&self, buf: &mut BoundBuf, var: usize) {
        let rep = self.rep_of_var[var];
        for &t in &self.readers[rep] {
            buf.dirty[t] = true;
        }
        buf.first_dirty = buf.first_dirty.min(rep);
    }

    /// The critical-chain bound alone: each task's upstream chain of
    /// cheapest standalone times, unshaded and without the PU-load terms
    /// of [`CostModel::bound`]. The utility-threshold re-solve policy
    /// estimates its optimistic headroom from it.
    pub fn chain_bound(&self, partial: &PartialAssignment) -> f64 {
        let mut ends = vec![0.0; self.task_spans.len()];
        self.chain_ends(|t| self.span_time_sum(t, partial), &mut ends);
        self.objective_bound(|t| ends[t], 1.0)
    }

    /// The objective value of an evaluated timeline, shared by `cost`,
    /// `cost_with` and [`Self::candidate`] so all three produce
    /// bit-identical results. Eq. 9: a schedule that needs more than ε of
    /// same-PU overlap absorption costs its value in the violating tier.
    #[inline]
    fn objective_of(&self, max_wait_ms: f64, task_latency_ms: &[f64]) -> f64 {
        let cost = match self.config.objective {
            Objective::MinMaxLatency => task_latency_ms.iter().cloned().fold(0.0, f64::max),
            Objective::MaxThroughput => -task_latency_ms.iter().map(|&t| 1000.0 / t).sum::<f64>(),
        };
        match self.config.epsilon_ms {
            Some(eps) if max_wait_ms > eps => self.violating(cost),
            _ => cost,
        }
    }

    /// Maps a cost or a lower bound into the ε-violating tier, above every
    /// ε-feasible cost: makespans (ms-scale) scale up by 2^64, negated FPS
    /// sums (bounded away from 0) down by 2^64. A power of two only moves
    /// the exponent, so order and ties inside the tier are the untiered
    /// ones, and the map never lowers a value, so a tiered bound stays
    /// admissible. The solver's 1e-12 pruning slack vanishes at ~1e19,
    /// but [`SHADE`] keeps every bound strictly below the costs it bounds,
    /// so no leaf tying an adopted incumbent is cut.
    #[inline]
    fn violating(&self, value: f64) -> f64 {
        match self.config.objective {
            Objective::MinMaxLatency => value * TIER,
            Objective::MaxThroughput => value / TIER,
        }
    }

    /// Whether some task's *chosen* transitions exceed the budget, over
    /// the PU `value(var)` of each assigned variable (`None` while
    /// unassigned: a gap, across which no transition counts). `prune`
    /// and `cost` both ask it, so `cost` rejects exactly what `prune`
    /// rejects (the engine's contract: a pruned prefix has no feasible
    /// completion).
    ///
    /// Switches forced by singleton-domain groups (e.g. an LRN group the
    /// DLA cannot run, which TensorRT would silently GPU-fallback) are not
    /// charged against the budget: they are not scheduling decisions. Tied
    /// tasks share their representative's variables, so checking
    /// representatives covers everyone.
    fn over_transition_budget(&self, value: impl Fn(usize) -> Option<u32>) -> bool {
        let reps = (0..self.task_spans.len()).filter(|&t| self.workload.ties[t].is_none());
        reps.map(|t| self.task_spans[t]).any(|(start, len)| {
            let mut count = 0;
            let mut prev: Option<(u32, bool)> = None; // (pu, pinned)
            for var in start..start + len {
                let cur = value(var).map(|v| (v, self.pinned[var]));
                if let (Some((p, p_pinned)), Some((v, pinned))) = (prev, cur) {
                    count += usize::from(p != v && !p_pinned && !pinned);
                }
                prev = cur;
            }
            count > self.config.max_transitions_per_task
        })
    }
}

/// The release-ordered bound of one PU's slots in a complete
/// assignment: for each slot `k`, `head_k` plus the occupancy of the
/// slots with head at least `head_k`, plus their smallest tail; and the
/// same with heads and tails swapped. Every such slot set starts no
/// earlier than `head_k` and runs one slot at a time, and its last slot
/// still has its tail to go. Sorting once per direction makes each set a
/// prefix; prefixes cut inside a run of equal heads are valid sets too.
fn release_ordered_bound(jobs: &mut [Job]) -> f64 {
    let mut best = 0.0f64;
    for (key, other) in [(0, 1), (1, 0)] {
        jobs.sort_unstable_by(|a, b| b.ends[key].total_cmp(&a.ends[key]));
        let (mut load, mut least) = (0.0, f64::INFINITY);
        for job in jobs.iter() {
            load += job.occ;
            least = least.min(job.ends[other]);
            best = best.max(job.ends[key] + load + least);
        }
    }
    best
}

impl CostModel for ScheduleEncoding<'_> {
    type Scratch = ScheduleScratch;

    fn num_vars(&self) -> usize {
        self.domains.len()
    }

    fn domain(&self, var: usize) -> &[u32] {
        &self.domains[var]
    }

    fn prune(&self, partial: &PartialAssignment) -> bool {
        // Prefix transitions only ever grow.
        self.over_transition_budget(|var| partial[var])
    }

    fn bound(&self, partial: &PartialAssignment) -> f64 {
        let unassigned = self.n_pus as u32;
        let fixed: Vec<u32> = (0..partial.len())
            .map(|var| match (self.pinned[var], partial[var]) {
                (true, _) => self.domains[var][0],
                (false, value) => value.unwrap_or(unassigned),
            })
            .collect();
        let complete = !fixed.contains(&unassigned);
        let bound = self.lower_bound(&mut self.bound_buf(), &fixed, complete);
        match self.collides(partial) {
            true => self.violating(bound),
            false => bound,
        }
    }

    fn cost(&self, assignment: &Assignment) -> Option<f64> {
        if self.over_transition_budget(|var| Some(assignment[var])) {
            return None;
        }
        let rows = self.to_rows(assignment);
        let tl = self.evaluator.evaluate(&rows);
        Some(self.objective_of(tl.max_wait_ms, &tl.task_latency_ms))
    }

    fn new_scratch(&self) -> ScheduleScratch {
        let n_vars = self.domains.len();
        ScheduleScratch {
            fixed: (0..n_vars)
                .map(|var| match self.pinned[var] {
                    true => self.domains[var][0],
                    false => self.n_pus as u32,
                })
                .collect(),
            assigned: vec![false; n_vars],
            unknown: self.pinned.iter().filter(|&&p| !p).count(),
            trans: vec![0; self.task_spans.len()],
            violations: 0,
            collisions: 0,
            bound: RefCell::new(self.bound_buf()),
            ws: TimelineWorkspace::default(),
        }
    }

    fn push(&self, scratch: &mut ScheduleScratch, var: usize, value: u32) {
        // Transition delta first: it must see `var` still unassigned.
        let delta = self.transition_delta(scratch, var, value);
        if delta > 0 {
            let rep = self.rep_of_var[var];
            let old = scratch.trans[rep];
            scratch.trans[rep] = old + delta;
            if old <= self.config.max_transitions_per_task
                && scratch.trans[rep] > self.config.max_transitions_per_task
            {
                scratch.violations += 1;
            }
        }
        scratch.collisions += self.collision_delta(scratch, var, value);
        if !self.pinned[var] {
            scratch.fixed[var] = value;
            scratch.unknown -= 1;
            self.touch(scratch.bound.get_mut(), var);
        }
        scratch.assigned[var] = true;
    }

    fn pop(&self, scratch: &mut ScheduleScratch, var: usize) {
        let value = scratch.fixed[var];
        scratch.assigned[var] = false;
        scratch.collisions -= self.collision_delta(scratch, var, value);
        // LIFO means the neighbour state now matches what the matching
        // push saw, so the recomputed delta is the one that was added.
        let delta = self.transition_delta(scratch, var, value);
        if delta > 0 {
            let rep = self.rep_of_var[var];
            let old = scratch.trans[rep];
            scratch.trans[rep] = old - delta;
            if old > self.config.max_transitions_per_task
                && scratch.trans[rep] <= self.config.max_transitions_per_task
            {
                scratch.violations -= 1;
            }
        }
        if !self.pinned[var] {
            scratch.fixed[var] = self.n_pus as u32;
            scratch.unknown += 1;
            self.touch(scratch.bound.get_mut(), var);
        }
    }

    fn prune_with(&self, scratch: &ScheduleScratch, _partial: &PartialAssignment) -> bool {
        scratch.violations > 0
    }

    fn bound_with(&self, scratch: &ScheduleScratch, _partial: &PartialAssignment) -> f64 {
        let bound = self.lower_bound(
            &mut scratch.bound.borrow_mut(),
            &scratch.fixed,
            scratch.unknown == 0,
        );
        match scratch.collisions {
            0 => bound,
            _ => self.violating(bound),
        }
    }

    fn cost_with(&self, scratch: &mut ScheduleScratch, assignment: &Assignment) -> Option<f64> {
        // Same feasibility verdict as `cost`, answered from the
        // delta-maintained transition counters (the contract requires the
        // scratch's push history to match `assignment`, so no rescan).
        if scratch.violations > 0 {
            return None;
        }
        // Flat row-major view straight off the solver assignment — no
        // per-leaf `Vec<Vec<usize>>` — into the reusable workspace. The
        // arithmetic is `evaluate_into`'s either way, so the result is
        // bit-identical to `cost`.
        let summary = self.evaluator.evaluate_into(&mut scratch.ws, |t, g| {
            assignment[self.task_spans[t].0 + g] as usize
        });
        Some(self.objective_of(summary.max_wait_ms, scratch.ws.task_latency_ms()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::DnnTask;
    use haxconn_dnn::Model;
    use haxconn_profiler::NetworkProfile;
    use haxconn_soc::orin_agx;
    use haxconn_solver::{solve, solve_with, SolveOptions, Workspace};

    fn setup(models: &[Model]) -> (haxconn_soc::Platform, Workload, ContentionModel) {
        let p = orin_agx();
        let tasks = models
            .iter()
            .map(|&m| DnnTask::new(m.name(), NetworkProfile::profile(&p, m, 6)))
            .collect();
        let cm = ContentionModel::calibrate(&p);
        (p, Workload::concurrent(tasks), cm)
    }

    #[test]
    fn domains_exclude_unsupported_pus() {
        let (p, w, cm) = setup(&[Model::GoogleNet]);
        let enc = ScheduleEncoding::new(&w, &cm, SchedulerConfig::default());
        // GoogleNet's LRN stem group must be GPU-pinned.
        let pinned = (0..enc.num_vars())
            .filter(|&v| enc.domain(v) == [p.gpu() as u32])
            .count();
        assert!(pinned >= 1);
    }

    #[test]
    fn bound_counts_every_group_queued_on_one_pu() {
        // Two GPU-bound ResNet18s: each task's own chain is one
        // standalone run, but the GPU must run both, so once every
        // group sits on the GPU the bound is the serialized sum.
        let (p, w, cm) = setup(&[Model::ResNet18, Model::ResNet18]);
        let cfg = SchedulerConfig {
            epsilon_ms: None,
            ..Default::default()
        };
        let enc = ScheduleEncoding::new(&w, &cm, cfg);
        let gpu: Vec<Option<u32>> = vec![Some(p.gpu() as u32); enc.num_vars()];
        let standalone = w.tasks[0].profile.standalone_ms(p.gpu()).unwrap();
        let bound = enc.bound(&gpu);
        assert!(bound > 1.99 * standalone, "{bound} vs {standalone}");
        let all: Assignment = gpu.iter().map(|v| v.unwrap()).collect();
        assert!(bound <= enc.cost(&all).unwrap());
    }

    #[test]
    fn colliding_first_groups_bound_in_the_violating_tier_under_epsilon_only() {
        // Both ResNet101s start at t = 0; whichever reaches the GPU second
        // waits a whole first group, far above ε = 0.35 ms.
        let (p, w, cm) = setup(&[Model::ResNet101, Model::ResNet101]);
        let strict = ScheduleEncoding::new(&w, &cm, SchedulerConfig::default());
        let relaxed = ScheduleEncoding::new(
            &w,
            &cm,
            SchedulerConfig {
                epsilon_ms: None,
                ..Default::default()
            },
        );
        let n = strict.num_vars();
        let gpu = Some(p.gpu() as u32);
        let mut partial: Vec<Option<u32>> = vec![None; n];
        partial[strict.var_of(0, 0)] = gpu;
        assert_eq!(
            strict.bound(&partial).to_bits(),
            relaxed.bound(&partial).to_bits(),
            "one first group alone is fine"
        );
        partial[strict.var_of(1, 0)] = gpu;
        let untiered = relaxed.bound(&partial);
        assert_eq!(strict.bound(&partial), untiered * TIER);
        assert!(untiered > 0.0 && untiered < 1e3, "{untiered}");
        // A collision is a bound, not a prune: only the transition budget
        // prunes.
        assert!(!strict.prune(&partial) && !relaxed.prune(&partial));
    }

    #[test]
    fn prune_rejects_transition_storms() {
        let (p, w, cm) = setup(&[Model::ResNet50]);
        let cfg = SchedulerConfig {
            max_transitions_per_task: 1,
            ..Default::default()
        };
        let enc = ScheduleEncoding::new(&w, &cm, cfg);
        // Alternating partial assignment exceeds the budget quickly.
        let mut partial: Vec<Option<u32>> = vec![None; enc.num_vars()];
        let mut ok = true;
        for v in 0..enc.num_vars().min(5) {
            let d = enc.domain(v);
            let pu = if v % 2 == 0 {
                p.gpu() as u32
            } else if d.len() > 1 {
                p.dsa() as u32
            } else {
                d[0]
            };
            partial[v] = Some(pu);
            if enc.prune(&partial) {
                ok = false;
                break;
            }
        }
        assert!(!ok, "alternating assignment should be pruned");
    }

    #[test]
    fn solver_finds_schedule_no_worse_than_gpu_only() {
        let (p, w, cm) = setup(&[Model::GoogleNet, Model::ResNet101]);
        let cfg = SchedulerConfig {
            epsilon_ms: None, // relaxed: queuing modeled, not forbidden
            max_transitions_per_task: 1,
            ..Default::default()
        };
        let enc = ScheduleEncoding::new(&w, &cm, cfg);
        let sol = solve(&enc, SolveOptions::default());
        let (best, cost) = sol.best.expect("feasible");
        // Compare against all-GPU in the same cost metric.
        let gpu_only: Vec<u32> = (0..enc.num_vars()).map(|_| p.gpu() as u32).collect();
        let gpu_cost = enc.cost(&gpu_only).unwrap();
        assert!(cost <= gpu_cost + 1e-9, "optimal {cost} vs gpu {gpu_cost}");
        assert_eq!(best.len(), enc.num_vars());
    }

    #[test]
    fn instance_swap_is_not_a_timeline_symmetry() {
        // Two identical DNN instances are not interchangeable: the
        // timeline dispatches same-PU overlaps in task-index order, so
        // giving the DLA excursion to instance 0 vs instance 1 changes who
        // dispatches first on the GPU — a real cost change, not a
        // relabeling.
        let p = haxconn_soc::orin_agx_dual_dla();
        let prof = || NetworkProfile::profile(&p, Model::GoogleNet, 6);
        let w = Workload::concurrent(vec![
            DnnTask::new("GoogleNet#0", prof()),
            DnnTask::new("GoogleNet#1", prof()),
        ]);
        let cm = ContentionModel::calibrate(&p);
        let cfg = SchedulerConfig {
            epsilon_ms: None,
            max_transitions_per_task: 1,
            ..Default::default()
        };
        let enc = ScheduleEncoding::new(&w, &cm, cfg);
        let n = enc.num_vars();
        let mut a: Vec<u32> = vec![0; n];
        // Instance 0 takes a DLA excursion, instance 1 stays on GPU...
        for v in [2, 3, 4] {
            if enc.domain(v).contains(&1) {
                a[v] = 1;
            }
        }
        let mut swapped = a[n / 2..].to_vec();
        swapped.extend_from_slice(&a[..n / 2]);
        let (ca, cb) = (enc.cost(&a), enc.cost(&swapped));
        let (ca, cb) = (ca.expect("feasible"), cb.expect("feasible"));
        assert!(
            (ca - cb).abs() > 1e-6,
            "expected the swapped twin to cost differently ({ca} vs {cb})"
        );
    }

    #[test]
    fn epsilon_constraint_tiers_colocated_heavyweights() {
        let (p, w, cm) = setup(&[Model::ResNet101, Model::ResNet101]);
        let cfg = SchedulerConfig {
            epsilon_ms: Some(0.01),
            ..Default::default()
        };
        let enc = ScheduleEncoding::new(&w, &cm, cfg);
        let relaxed = ScheduleEncoding::new(
            &w,
            &cm,
            SchedulerConfig {
                epsilon_ms: None,
                ..cfg
            },
        );
        // Everything on GPU: the second instance queues for milliseconds,
        // so the schedule costs its relaxed makespan in the violating tier.
        let gpu_only: Vec<u32> = (0..enc.num_vars()).map(|_| p.gpu() as u32).collect();
        let makespan = relaxed.cost(&gpu_only).expect("within the budget");
        assert_eq!(enc.cost(&gpu_only), Some(makespan * TIER));
        // The same key as a warm start read off the schedule's timeline.
        let rows = enc.to_rows(&gpu_only);
        let tl = enc.evaluator.evaluate(&rows);
        assert!(tl.max_wait_ms > 0.01);
        assert_eq!(enc.candidate(&rows, &tl), Some((gpu_only, makespan * TIER)));
    }

    #[test]
    fn throughput_tier_sorts_above_every_feasible_cost() {
        let (p, w, cm) = setup(&[Model::ResNet101, Model::ResNet101]);
        let cfg = SchedulerConfig {
            epsilon_ms: Some(0.01),
            ..SchedulerConfig::with_objective(Objective::MaxThroughput)
        };
        let enc = ScheduleEncoding::new(&w, &cm, cfg);
        let gpu_only: Vec<u32> = (0..enc.num_vars()).map(|_| p.gpu() as u32).collect();
        let tiered = enc.cost(&gpu_only).expect("within the budget");
        // Negated FPS, scaled towards 0: above any feasible -Σ FPS, whose
        // magnitude is at least one frame per second.
        assert!(tiered < 0.0 && tiered > -1e-12, "{tiered}");
        let relaxed = ScheduleEncoding::new(
            &w,
            &cm,
            SchedulerConfig {
                epsilon_ms: None,
                ..cfg
            },
        );
        assert_eq!(tiered * TIER, relaxed.cost(&gpu_only).unwrap());
    }

    #[test]
    fn to_flat_inverts_to_rows_and_rejects_disagreeing_ties() {
        let p = orin_agx();
        let prof = || NetworkProfile::profile(&p, Model::GoogleNet, 4);
        let w = Workload::concurrent(vec![
            DnnTask::new("GoogleNet#0", prof()),
            DnnTask::new("GoogleNet#1", prof()),
        ])
        .with_tie(1, 0);
        let cm = ContentionModel::calibrate(&p);
        let enc = ScheduleEncoding::new(&w, &cm, SchedulerConfig::default());
        let flat: Assignment = (0..enc.num_vars()).map(|v| enc.domain(v)[0]).collect();
        let mut rows = enc.to_rows(&flat);
        assert_eq!(rows.len(), 2);
        assert_eq!(enc.to_flat(&rows), Some(flat));
        rows[1][1] = 1 - rows[1][1];
        assert_eq!(enc.to_flat(&rows), None, "tied rows disagree");
        rows.pop();
        assert_eq!(enc.to_flat(&rows), None, "one row per task");
    }

    /// A relaxed 3-tenant × 5-group orin mix seeded with its GPU-only
    /// row, as the arrival replay warm-starts a re-solve.
    fn warm_mix() -> (Workload, ContentionModel, SchedulerConfig) {
        let p = orin_agx();
        let tasks = [Model::DenseNet121, Model::GoogleNet, Model::ResNet50]
            .iter()
            .map(|&m| DnnTask::new(m.name(), NetworkProfile::profile(&p, m, 5)))
            .collect();
        let cfg = SchedulerConfig {
            epsilon_ms: None,
            ..Default::default()
        };
        (
            Workload::concurrent(tasks),
            ContentionModel::calibrate(&p),
            cfg,
        )
    }

    /// `SolveOptions` of a re-solve warm-started from the GPU-only row.
    fn gpu_seeded(enc: &ScheduleEncoding<'_>) -> SolveOptions {
        let gpu: Assignment = vec![orin_agx().gpu() as u32; enc.num_vars()];
        let cost = enc.cost(&gpu).expect("GPU-only is feasible when relaxed");
        SolveOptions {
            initial_upper_bound: Some(cost),
            initial_incumbent: Some((gpu, cost)),
            ..Default::default()
        }
    }

    #[test]
    fn warm_resolve_search_effort_is_pinned() {
        let (w, cm, cfg) = warm_mix();
        let enc = ScheduleEncoding::new(&w, &cm, cfg);
        assert_eq!(enc.num_vars(), 15);
        let sol = solve(&enc, gpu_seeded(&enc));
        assert!(sol.proven_optimal());
        let (best, cost) = sol.best.expect("beats the GPU-only seed");
        // The schedule predates the per-PU head, tail and transition terms
        // of the bound: pruning may only skip leaves, never move it.
        assert_eq!(best, [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0]);
        assert_eq!(cost.to_bits(), 0x4010_f2fd_6877_b54f);
        // 177 leaves with the chain, PU-load and total-work terms alone;
        // 54 while the search still re-evaluated the GPU-only seed's own
        // leaf.
        assert_eq!(sol.stats.leaves, 53);
    }

    #[test]
    fn warm_resolve_at_optimum_is_allocation_free() {
        let (w, cm, cfg) = warm_mix();
        let enc = ScheduleEncoding::new(&w, &cm, cfg);
        let mut ws = Workspace::new(&enc);
        let cold = solve_with(&enc, gpu_seeded(&enc), &mut ws);
        let optimum = cold.best.expect("beats the GPU-only seed").1;
        let warm = |ws: &mut Workspace<_>| {
            let opts = SolveOptions {
                initial_upper_bound: Some(optimum),
                ..Default::default()
            };
            solve_with(&enc, opts, ws)
        };
        // One warm pass outside the guard grows the timeline workspace.
        let warmup = warm(&mut ws);
        assert!(warmup.proven_optimal());
        assert!(warmup.best.is_none(), "ub == optimum prunes equal leaves");
        let guard = haxconn_telemetry::alloc::AllocGuard::begin("encoding.warm_resolve");
        let gated = warm(&mut ws);
        guard.assert_zero();
        assert!(gated.proven_optimal());
        assert!(gated.stats.leaves > 0, "the gated pass scores leaves");
    }

    #[test]
    fn fan_in_chains_take_the_latest_upstream_not_the_sum() {
        // Two independent 2-group tasks feed a third. They can run side
        // by side on the GPU and the DLA, so the consumer starts after
        // the later of the two, not after both back to back.
        let p = orin_agx();
        let tasks = ["a", "b", "c"]
            .iter()
            .map(|&name| DnnTask::new(name, NetworkProfile::profile(&p, Model::ResNet18, 2)))
            .collect();
        let w = Workload::concurrent(tasks).with_dep(0, 2).with_dep(1, 2);
        let cm = ContentionModel::calibrate(&p);
        let cfg = SchedulerConfig {
            epsilon_ms: None,
            ..Default::default()
        };
        let enc = ScheduleEncoding::new(&w, &cm, cfg);
        let n = enc.num_vars();
        let (best, optimum) = haxconn_solver::brute_force(&enc).expect("feasible");
        let root = vec![None; n];
        assert!(enc.bound(&root) <= optimum, "root bound above the optimum");
        assert!(enc.chain_bound(&root) <= optimum);
        let full: Vec<Option<u32>> = best.iter().map(|&v| Some(v)).collect();
        assert!(enc.bound(&full) <= optimum);
        let sol = solve(&enc, SolveOptions::default());
        assert_eq!(sol.best.map(|(_, c)| c.to_bits()), Some(optimum.to_bits()));
    }

    #[test]
    fn bound_charges_heads_tails_and_transitions_of_a_shared_pu() {
        // Two 4-group ResNet18s queue their middle groups on the DLA. A
        // starts on the GPU and both end on it (the last group is
        // GPU-only), so the DLA sees a head and a tail, and every known PU
        // switch charges its transition.
        let p = orin_agx();
        let tasks = ["A", "B"]
            .iter()
            .map(|&name| DnnTask::new(name, NetworkProfile::profile(&p, Model::ResNet18, 4)))
            .collect();
        let w = Workload::concurrent(tasks);
        let cm = ContentionModel::calibrate(&p);
        let cfg = SchedulerConfig {
            epsilon_ms: None,
            ..Default::default()
        };
        let enc = ScheduleEncoding::new(&w, &cm, cfg);
        let (gpu, dla) = (p.gpu(), p.dsa());
        let pinned: Vec<bool> = (0..enc.num_vars())
            .map(|v| enc.domain(v).len() == 1)
            .collect();
        assert_eq!(
            pinned,
            [false, false, false, true, false, false, false, true]
        );
        let rows = [
            [Some(gpu), Some(dla), Some(dla), Some(gpu)],
            [None, Some(dla), Some(dla), Some(gpu)],
        ];
        let partial: Vec<Option<u32>> = rows
            .iter()
            .flatten()
            .map(|v| v.map(|pu| pu as u32))
            .collect();

        let group = |t: usize, g: usize| &w.tasks[t].profile.groups[g];
        let time = |t: usize, g: usize, pu: usize| group(t, g).cost[pu].unwrap().time_ms;
        // Occupancies. A0 switches out to the DLA and A1 in from the GPU;
        // both tasks switch out of the DLA after group 2 and into the GPU
        // for group 3. B0 is unassigned: its cheapest time, and no
        // transition into B1.
        let a = [
            time(0, 0, gpu) + group(0, 0).tr_out_ms[gpu],
            time(0, 1, dla) + group(0, 0).tr_in_ms[dla],
            time(0, 2, dla) + group(0, 2).tr_out_ms[dla],
            time(0, 3, gpu) + group(0, 2).tr_in_ms[gpu],
        ];
        let b = [
            time(1, 0, gpu).min(time(1, 0, dla)),
            time(1, 1, dla),
            time(1, 2, dla) + group(1, 2).tr_out_ms[dla],
            time(1, 3, gpu) + group(1, 2).tr_in_ms[gpu],
        ];
        assert!(a[1] > time(0, 1, dla) && b[3] > time(1, 3, gpu));
        let head = a[0].min(b[0]);
        let tail = a[3].min(b[3]);
        let expected = (head + (a[1] + a[2] + b[1] + b[2]) + tail) * SHADE;
        let bound = enc.bound(&partial);
        assert!(
            (bound - expected).abs() <= 1e-12 * expected,
            "bound {bound} vs head + load + tail {expected}"
        );
        // The terms the bound had before heads, tails and transitions.
        let old_load = time(0, 1, dla) + time(0, 2, dla) + time(1, 1, dla) + time(1, 2, dla);
        let old_chain = (time(0, 0, gpu) + time(0, 1, dla) + time(0, 2, dla) + time(0, 3, gpu))
            .max(b[0] + time(1, 1, dla) + time(1, 2, dla) + time(1, 3, gpu));
        assert!(
            bound > old_load && bound > old_chain,
            "{bound} vs load {old_load} / chain {old_chain}"
        );
        // Still admissible on both completions.
        for b0 in [gpu, dla] {
            let mut full: Assignment = partial.iter().map(|v| v.unwrap_or(0)).collect();
            full[4] = b0 as u32;
            assert!(bound <= enc.cost(&full).unwrap());
        }
    }
}
