//! Encoding of the scheduling problem for the constraint solver
//! (paper Section 3.4 → `haxconn-solver`).
//!
//! Decision variables: one per (task, layer group), domain = the PUs that
//! support every layer in the group (Eq. 1). The objective evaluates the
//! full contention-interval timeline (Eqs. 2–8); the ε constraint (Eq. 9)
//! rejects assignments whose same-PU queuing wait exceeds ε; and a
//! transition budget per task keeps the search space small, mirroring the
//! structure of the paper's optimal schedules (at most a couple of
//! transitions per DNN).

use crate::problem::{Objective, SchedulerConfig, Workload};
use crate::timeline::{TimelineEvaluator, TimelineWorkspace};
use haxconn_contention::ContentionModel;
use haxconn_soc::Platform;
use haxconn_solver::{Assignment, CostModel, PartialAssignment, SymmetrySpec};

/// The scheduling problem as a [`CostModel`].
pub struct ScheduleEncoding<'a> {
    workload: &'a Workload,
    evaluator: TimelineEvaluator<'a>,
    config: SchedulerConfig,
    /// Per variable: allowed PU ids.
    domains: Vec<Vec<u32>>,
    /// Per variable: cheapest standalone time over its domain (admissible
    /// bound ingredient).
    min_time: Vec<f64>,
    /// Per task: (first var, number of groups) of its *representative* —
    /// tied tasks (pipeline frame instances) share their representative's
    /// variables.
    task_spans: Vec<(usize, usize)>,
    /// Per variable: domain is a singleton (forced placement, not a
    /// scheduling decision — exempt from the transition budget).
    pinned: Vec<bool>,
    /// Per variable: the representative task owning it.
    rep_of_var: Vec<usize>,
    /// Per variable: every task whose span contains it (the representative
    /// first, then its tied copies).
    tasks_of_var: Vec<Vec<usize>>,
    /// `time_of_var[var][k][pu]` = standalone time of the group behind
    /// `var` under task `tasks_of_var[var][k]`'s profile when placed on
    /// `pu` (`INFINITY` for unsupported PUs, which domains exclude).
    time_of_var: Vec<Vec<Vec<f64>>>,
    /// Per task: the upstream *closure* as `(task, multiplicity)` terms,
    /// precomputed topologically in `new()` so `task_lower_bound` is a flat
    /// weighted sum over span sums — no per-call recursion over `deps`.
    closure: Vec<Vec<(usize, f64)>>,
    /// `var_load[var][pu]`: busy time `var` puts on `pu` — the standalone
    /// times of its group summed over every task sharing the variable
    /// (tied copies each run their own instance). `INFINITY` off-domain.
    var_load: Vec<Vec<f64>>,
    /// Per variable: the cheapest `var_load` over its domain.
    var_load_min: Vec<f64>,
    /// PU ids are `0..n_pus`.
    n_pus: usize,
    /// Number of distinct PUs in the union of all domains (the divisor of
    /// the total-work bound).
    usable_pus: f64,
    /// `collide[var]`: `(partner var, pu)` pairs of first groups of tasks
    /// without upstream dependencies such that both on `pu` violate ε at
    /// every completion. A self-partner (tied copies share the variable)
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

/// Per-worker incremental state for [`ScheduleEncoding`] (the solver's
/// `CostModel::Scratch`). Maintained by `push`/`pop` under the engine's
/// LIFO discipline; see the field docs for the exact invariants.
///
/// `Default` yields an *unsized placeholder* — real instances come from
/// [`CostModel::new_scratch`], which sizes every buffer for the encoding.
#[derive(Default)]
pub struct ScheduleScratch {
    /// Mirror of the engine's partial assignment (`push`/`pop` don't see
    /// it, so the scratch keeps its own copy).
    vals: Vec<u32>,
    assigned: Vec<bool>,
    /// Per task: Σ over its span of (assigned ? standalone time : min
    /// time) — the span term of `task_lower_bound`, delta-maintained.
    span_sum: Vec<f64>,
    /// `saved_span[var][k]`: value of `span_sum[tasks_of_var[var][k]]` at
    /// push time. `pop` restores it verbatim — LIFO guarantees the state
    /// between a push and its matching pop is otherwise unchanged, so the
    /// restore is exact and floating-point drift cannot accumulate.
    saved_span: Vec<Vec<f64>>,
    /// Per representative task: adjacent-pair transition count (pairs of
    /// consecutive assigned vars in the span with differing values,
    /// neither pinned) — exactly what `transitions_in` counts.
    trans: Vec<usize>,
    /// Number of representative tasks currently over the transition
    /// budget; `prune_with` is the O(1) check `violations > 0`.
    violations: usize,
    /// Number of live ε-collisions (pairs of `collide` entries both
    /// assigned to the colliding PU); any makes the prefix infeasible.
    collisions: usize,
    /// Per PU: Σ `var_load` of the variables assigned to it, pinned
    /// variables included from the root.
    load: Vec<f64>,
    /// Σ over variables of (assigned ? `var_load` : `var_load_min`).
    work: f64,
    /// `saved_load[var]`: `(load[value], work)` at push time, restored
    /// verbatim by the matching pop (the `saved_span` discipline).
    saved_load: Vec<(f64, f64)>,
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
        let mut min_time = Vec::with_capacity(workload.num_vars());
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
                let best = pus
                    .iter()
                    .map(|&pu| group.cost[pu].unwrap().time_ms)
                    .fold(f64::INFINITY, f64::min);
                domains.push(pus.iter().map(|&p| p as u32).collect());
                min_time.push(best);
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

        let mut tasks_of_var: Vec<Vec<usize>> = vec![Vec::new(); n_vars];
        for (t, &(start, len)) in task_spans.iter().enumerate() {
            for tasks in tasks_of_var.iter_mut().skip(start).take(len) {
                tasks.push(t);
            }
        }
        let rep_of_var: Vec<usize> = tasks_of_var.iter().map(|ts| ts[0]).collect();

        let mut time_of_var: Vec<Vec<Vec<f64>>> = vec![Vec::new(); n_vars];
        for (t, &(start, len)) in task_spans.iter().enumerate() {
            for g in 0..len {
                let var = start + g;
                let mut by_pu = vec![f64::INFINITY; n_pus];
                for (pu, slot) in by_pu.iter_mut().enumerate() {
                    if let Some(c) = workload.tasks[t].profile.groups[g].cost[pu] {
                        *slot = c.time_ms;
                    }
                }
                time_of_var[var].push(by_pu);
            }
        }

        // Upstream closure with path multiplicities: lb(t) expands to
        // Σ multiplicity(t') · span_sum(t') over every task reachable
        // through `deps` (paper Eq. 4's streaming chains).
        let upstream: Vec<Vec<usize>> = (0..n_tasks).map(|t| workload.upstream(t)).collect();
        let mut closure: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n_tasks);
        for t in 0..n_tasks {
            let mut weight = vec![0.0f64; n_tasks];
            let mut stack = vec![(t, 1.0f64)];
            let mut expansions = 0usize;
            while let Some((u, m)) = stack.pop() {
                expansions += 1;
                assert!(expansions <= 1_000_000, "dependency cycle in workload");
                weight[u] += m;
                for &up in &upstream[u] {
                    stack.push((up, m));
                }
            }
            closure.push(
                weight
                    .iter()
                    .enumerate()
                    .filter(|&(_, &w)| w > 0.0)
                    .map(|(i, &w)| (i, w))
                    .collect(),
            );
        }

        let var_load: Vec<Vec<f64>> = time_of_var
            .iter()
            .map(|rows| {
                (0..n_pus)
                    .map(|pu| rows.iter().map(|r| r[pu]).sum())
                    .collect()
            })
            .collect();
        let var_load_min: Vec<f64> = domains
            .iter()
            .zip(&var_load)
            .map(|(dom, load)| {
                dom.iter()
                    .map(|&pu| load[pu as usize])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let mut usable = vec![false; n_pus];
        for &pu in domains.iter().flatten() {
            usable[pu as usize] = true;
        }
        let usable_pus = usable.iter().filter(|&&u| u).count() as f64;

        // ε-collisions (Eq. 9): two tasks without upstream dependencies are
        // both ready at t = 0, so if their first groups share a PU the one
        // dispatched second waits at least the other's standalone time
        // there (slowdown ≥ 1). When the smaller of the two exceeds ε, no
        // completion is feasible.
        let mut collide: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n_vars];
        if let Some(eps) = config.epsilon_ms {
            let roots: Vec<usize> = (0..n_tasks).filter(|&t| upstream[t].is_empty()).collect();
            let first_time = |t: usize, pu: u32| {
                let var = task_spans[t].0;
                let k = tasks_of_var[var]
                    .iter()
                    .position(|&u| u == t)
                    .expect("spans");
                time_of_var[var][k][pu as usize]
            };
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
            min_time,
            task_spans,
            pinned,
            rep_of_var,
            tasks_of_var,
            time_of_var,
            closure,
            var_load,
            var_load_min,
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

    /// Detects this instance's symmetries for the solver's
    /// [`haxconn_solver::Symmetric`] wrapper.
    ///
    /// Only **value classes** are emitted: [`Platform::interchangeable_pus`]
    /// groups PUs with bitwise-identical specs (the dual-DLA Orin's two
    /// NVDLAs), and relabeling such PUs moves whole per-PU queues wholesale
    /// — every queue keeps its dispatch order, so the contention timeline
    /// is preserved exactly. Each candidate class is still re-verified
    /// against this encoding: every variable's domain must contain all or
    /// none of the class, and the standalone times of every
    /// (variable, task) pair must be bitwise equal across the class —
    /// otherwise the class is dropped rather than risking an unsound cut.
    ///
    /// Duplicate DNN *instances* are deliberately **not** emitted as
    /// variable blocks, even though the solver supports them: the timeline
    /// dispatches same-PU overlaps in task-index order, so swapping two
    /// identical instances' assignment vectors changes which instance
    /// dispatches first and with it the cost (measured: ~7% on a dual-DLA
    /// 2×GoogleNet instance). Instance interchangeability is a symmetry of
    /// abstract makespan models, not of this order-sensitive evaluator;
    /// the block rule stays available for models that are block-invariant.
    pub fn symmetry_spec(&self, platform: &Platform) -> SymmetrySpec {
        let mut spec = SymmetrySpec::default();
        'class: for class in platform.interchangeable_pus() {
            if class.len() < 2 {
                continue;
            }
            let vals: Vec<u32> = class.iter().map(|&p| p as u32).collect();
            for dom in &self.domains {
                let present = vals.iter().filter(|v| dom.contains(v)).count();
                if present != 0 && present != vals.len() {
                    continue 'class;
                }
            }
            for rows in &self.time_of_var {
                for row in rows {
                    let t0 = row[vals[0] as usize].to_bits();
                    if vals.iter().any(|&v| row[v as usize].to_bits() != t0) {
                        continue 'class;
                    }
                }
            }
            spec.value_classes.push(vals);
        }
        spec
    }

    /// Σ over `task`'s span of (assigned ? standalone time : cheapest
    /// time) — the per-task term of the lower bound.
    fn span_time_sum(&self, task: usize, partial: &PartialAssignment) -> f64 {
        let (start, len) = self.task_spans[task];
        let mut sum = 0.0;
        for g in 0..len {
            let var = start + g;
            sum += match partial[var] {
                Some(pu) => {
                    self.workload.tasks[task].profile.groups[g].cost[pu as usize]
                        .expect("domain-checked")
                        .time_ms
                }
                None => self.min_time[var],
            };
        }
        sum
    }

    /// Lower bound on a task's completion: sum of cheapest standalone times
    /// of its groups (contention ≥ 1, transitions ≥ 0, waits ≥ 0), plus the
    /// bounds of its streaming upstream chain — expanded over the
    /// precomputed closure instead of recursing over `deps` per call.
    fn task_lower_bound(&self, task: usize, partial: &PartialAssignment) -> f64 {
        self.closure[task]
            .iter()
            .map(|&(t, m)| m * self.span_time_sum(t, partial))
            .sum()
    }

    /// Lower bound of `task` read off delta-maintained span sums.
    #[inline]
    fn task_lower_bound_inc(&self, task: usize, scratch: &ScheduleScratch) -> f64 {
        self.closure[task]
            .iter()
            .map(|&(t, m)| m * scratch.span_sum[t])
            .sum()
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
            && scratch.vals[var - 1] != value
            && !self.pinned[var]
            && !self.pinned[var - 1]
        {
            delta += 1;
        }
        if var + 1 < self.rep_of_var.len()
            && self.rep_of_var[var + 1] == rep
            && scratch.assigned[var + 1]
            && scratch.vals[var + 1] != value
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
                    && (other == var || (scratch.assigned[other] && scratch.vals[other] == value))
            })
            .count()
    }

    /// Whether `partial` assigns some `collide` pair to its colliding PU.
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

    /// The full lower bound from its ingredients: under `MinMaxLatency`
    /// the makespan is at least the longest task chain, the busiest PU's
    /// `load` (groups on one PU run one at a time, each for at least its
    /// standalone time) and the total `work` spread over the usable PUs;
    /// under `MaxThroughput` only the chains apply. Shaded by [`SHADE`].
    #[inline]
    fn shaded_bound(&self, lb: impl Fn(usize) -> f64, load: &[f64], work: f64) -> f64 {
        match self.config.objective {
            Objective::MinMaxLatency => {
                let chain = self.objective_bound(lb, 1.0);
                let busiest = load.iter().cloned().fold(chain, f64::max);
                busiest.max(work / self.usable_pus) * SHADE
            }
            Objective::MaxThroughput => self.objective_bound(lb, SHADE),
        }
    }

    /// The critical-chain bound alone: each task's upstream chain of
    /// cheapest standalone times, unshaded and without the PU-load terms
    /// of [`CostModel::bound`]. The utility-threshold re-solve policy
    /// estimates its optimistic headroom from it.
    pub fn chain_bound(&self, partial: &PartialAssignment) -> f64 {
        self.objective_bound(|t| self.task_lower_bound(t, partial), 1.0)
    }

    /// The objective value of an evaluated timeline, shared by `cost` and
    /// `cost_with` so both produce bit-identical results.
    #[inline]
    fn objective_of(&self, max_wait_ms: f64, task_latency_ms: &[f64]) -> Option<f64> {
        // Eq. 9: reject schedules that need more than ε of same-PU overlap
        // absorption.
        if let Some(eps) = self.config.epsilon_ms {
            if max_wait_ms > eps {
                return None;
            }
        }
        Some(match self.config.objective {
            Objective::MinMaxLatency => task_latency_ms.iter().cloned().fold(0.0, f64::max),
            Objective::MaxThroughput => -task_latency_ms.iter().map(|&t| 1000.0 / t).sum::<f64>(),
        })
    }

    /// Counts the *chosen* transitions in a task's (partial) assignment.
    ///
    /// Switches forced by singleton-domain groups (e.g. an LRN group the
    /// DLA cannot run, which TensorRT would silently GPU-fallback) are not
    /// charged against the budget: they are not scheduling decisions.
    fn transitions_in(&self, task: usize, partial: &PartialAssignment) -> (usize, bool) {
        let (start, len) = self.task_spans[task];
        let mut count = 0;
        let mut complete = true;
        let mut prev: Option<(u32, bool)> = None; // (pu, was pinned)
        #[allow(clippy::needless_range_loop)] // var ids span two arrays
        for var in start..start + len {
            let pinned = self.domains[var].len() == 1;
            match partial[var] {
                Some(v) => {
                    if let Some((p, p_pinned)) = prev {
                        if p != v && !pinned && !p_pinned {
                            count += 1;
                        }
                    }
                    prev = Some((v, pinned));
                }
                None => {
                    complete = false;
                    prev = None; // gap: later groups can't extend this run
                }
            }
        }
        (count, complete)
    }

    /// Whether any task's chosen transitions exceed the budget — the
    /// complete-assignment counterpart of [`CostModel::prune`]. `cost`
    /// must reject exactly what `prune` rejects (the engine's contract:
    /// a pruned prefix has no feasible completion), otherwise exhaustive
    /// enumeration and warm-start cost probes accept assignments the
    /// search space excludes.
    fn over_transition_budget(&self, assignment: &Assignment) -> bool {
        (0..self.task_spans.len()).any(|t| {
            if self.workload.ties[t].is_some() {
                return false;
            }
            let (start, len) = self.task_spans[t];
            let mut count = 0usize;
            let mut prev: Option<(u32, bool)> = None;
            #[allow(clippy::needless_range_loop)] // var ids span two arrays
            for var in start..start + len {
                let pinned = self.domains[var].len() == 1;
                let v = assignment[var];
                if let Some((p, p_pinned)) = prev {
                    if p != v && !pinned && !p_pinned {
                        count += 1;
                    }
                }
                prev = Some((v, pinned));
            }
            count > self.config.max_transitions_per_task
        })
    }
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
        // Transition budget (prefix transitions only ever grow). Tied tasks
        // share their representative's variables, so checking
        // representatives covers everyone.
        for t in 0..self.task_spans.len() {
            if self.workload.ties[t].is_some() {
                continue;
            }
            let (count, _) = self.transitions_in(t, partial);
            if count > self.config.max_transitions_per_task {
                return true;
            }
        }
        self.collides(partial)
    }

    fn bound(&self, partial: &PartialAssignment) -> f64 {
        let mut load = vec![0.0; self.n_pus];
        let mut work = 0.0;
        for (var, slot) in partial.iter().enumerate() {
            let fixed = if self.pinned[var] {
                Some(self.domains[var][0])
            } else {
                *slot
            };
            match fixed {
                Some(pu) => {
                    let t = self.var_load[var][pu as usize];
                    load[pu as usize] += t;
                    work += t;
                }
                None => work += self.var_load_min[var],
            }
        }
        self.shaded_bound(|t| self.task_lower_bound(t, partial), &load, work)
    }

    fn cost(&self, assignment: &Assignment) -> Option<f64> {
        if self.over_transition_budget(assignment) {
            return None;
        }
        let rows = self.to_rows(assignment);
        let tl = self.evaluator.evaluate(&rows);
        self.objective_of(tl.max_wait_ms, &tl.task_latency_ms)
    }

    fn new_scratch(&self) -> ScheduleScratch {
        let n_vars = self.domains.len();
        let n_tasks = self.task_spans.len();
        let mut span_sum = vec![0.0f64; n_tasks];
        for (t, slot) in span_sum.iter_mut().enumerate() {
            let (start, len) = self.task_spans[t];
            *slot = self.min_time[start..start + len].iter().sum();
        }
        // Pinned variables have one possible PU, so their load counts from
        // the root and `push`/`pop` skip them.
        let mut load = vec![0.0f64; self.n_pus];
        for var in (0..n_vars).filter(|&v| self.pinned[v]) {
            let pu = self.domains[var][0] as usize;
            load[pu] += self.var_load[var][pu];
        }
        ScheduleScratch {
            vals: vec![0; n_vars],
            assigned: vec![false; n_vars],
            span_sum,
            saved_span: self
                .tasks_of_var
                .iter()
                .map(|ts| vec![0.0; ts.len()])
                .collect(),
            trans: vec![0; n_tasks],
            violations: 0,
            collisions: 0,
            load,
            work: self.var_load_min.iter().sum(),
            saved_load: vec![(0.0, 0.0); n_vars],
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
        // Span sums: swap this var's "cheapest" contribution for its actual
        // time under every task sharing the span, saving the old sums so
        // the matching pop restores them exactly.
        for (k, &t) in self.tasks_of_var[var].iter().enumerate() {
            scratch.saved_span[var][k] = scratch.span_sum[t];
            scratch.span_sum[t] += self.time_of_var[var][k][value as usize] - self.min_time[var];
        }
        if !self.pinned[var] {
            let pu = value as usize;
            scratch.saved_load[var] = (scratch.load[pu], scratch.work);
            scratch.load[pu] += self.var_load[var][pu];
            scratch.work += self.var_load[var][pu] - self.var_load_min[var];
        }
        scratch.collisions += self.collision_delta(scratch, var, value);
        scratch.vals[var] = value;
        scratch.assigned[var] = true;
    }

    fn pop(&self, scratch: &mut ScheduleScratch, var: usize) {
        scratch.assigned[var] = false;
        for (k, &t) in self.tasks_of_var[var].iter().enumerate() {
            scratch.span_sum[t] = scratch.saved_span[var][k];
        }
        if !self.pinned[var] {
            let (load, work) = scratch.saved_load[var];
            scratch.load[scratch.vals[var] as usize] = load;
            scratch.work = work;
        }
        scratch.collisions -= self.collision_delta(scratch, var, scratch.vals[var]);
        // LIFO means the neighbour state now matches what the matching
        // push saw, so the recomputed delta is the one that was added.
        let delta = self.transition_delta(scratch, var, scratch.vals[var]);
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
    }

    fn prune_with(&self, scratch: &ScheduleScratch, _partial: &PartialAssignment) -> bool {
        scratch.violations > 0 || scratch.collisions > 0
    }

    fn bound_with(&self, scratch: &ScheduleScratch, _partial: &PartialAssignment) -> f64 {
        self.shaded_bound(
            |t| self.task_lower_bound_inc(t, scratch),
            &scratch.load,
            scratch.work,
        )
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
        self.objective_of(summary.max_wait_ms, scratch.ws.task_latency_ms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::DnnTask;
    use haxconn_dnn::Model;
    use haxconn_profiler::NetworkProfile;
    use haxconn_soc::orin_agx;
    use haxconn_solver::{solve, SolveOptions};

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
    fn colliding_first_groups_prune_under_epsilon_only() {
        // Both ResNet101s start at t = 0; whichever reaches the GPU second
        // waits a whole first group, far above ε = 0.35 ms.
        let (p, w, cm) = setup(&[Model::ResNet101, Model::ResNet101]);
        let strict = ScheduleEncoding::new(&w, &cm, SchedulerConfig::default());
        let n = strict.num_vars();
        let gpu = Some(p.gpu() as u32);
        let mut partial: Vec<Option<u32>> = vec![None; n];
        partial[strict.var_of(0, 0)] = gpu;
        assert!(!strict.prune(&partial), "one first group alone is fine");
        partial[strict.var_of(1, 0)] = gpu;
        assert!(strict.prune(&partial));
        let relaxed = ScheduleEncoding::new(
            &w,
            &cm,
            SchedulerConfig {
                epsilon_ms: None,
                ..Default::default()
            },
        );
        assert!(!relaxed.prune(&partial));
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
    fn symmetry_spec_detects_the_dual_dla_value_class() {
        let p = haxconn_soc::orin_agx_dual_dla();
        let prof = |m: Model| NetworkProfile::profile(&p, m, 6);
        let w = Workload::concurrent(vec![
            DnnTask::new("GoogleNet#0", prof(Model::GoogleNet)),
            DnnTask::new("GoogleNet#1", prof(Model::GoogleNet)),
            DnnTask::new("ResNet18", prof(Model::ResNet18)),
        ]);
        let cm = ContentionModel::calibrate(&p);
        let enc = ScheduleEncoding::new(&w, &cm, SchedulerConfig::default());
        let spec = enc.symmetry_spec(&p);
        // The two NVDLAs are one value class. Duplicate instances are
        // *not* blocks here (see the next test).
        assert_eq!(spec.value_classes, vec![vec![1, 2]]);
        assert!(spec.var_blocks.is_empty());
        assert_eq!(spec.num_rules(), 1);
        // The single-DLA Orin has no interchangeable PUs at all.
        let single = orin_agx();
        let w1 = Workload::concurrent(vec![DnnTask::new(
            "a",
            NetworkProfile::profile(&single, Model::GoogleNet, 6),
        )]);
        let cm1 = ContentionModel::calibrate(&single);
        let enc1 = ScheduleEncoding::new(&w1, &cm1, SchedulerConfig::default());
        assert!(enc1.symmetry_spec(&single).is_empty());
    }

    #[test]
    fn instance_swap_is_not_a_timeline_symmetry() {
        // Why `symmetry_spec` refuses to emit duplicate-instance variable
        // blocks: the timeline dispatches same-PU overlaps in task-index
        // order, so giving the DLA excursion to instance 0 vs instance 1
        // changes who dispatches first on the GPU — a real cost change,
        // not a relabeling.
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
    fn symmetric_wrapper_preserves_the_schedule_optimum() {
        let p = haxconn_soc::orin_agx_dual_dla();
        let prof = |m: Model| NetworkProfile::profile(&p, m, 4);
        let w = Workload::concurrent(vec![
            DnnTask::new("GoogleNet#0", prof(Model::GoogleNet)),
            DnnTask::new("GoogleNet#1", prof(Model::GoogleNet)),
        ]);
        let cm = ContentionModel::calibrate(&p);
        let cfg = SchedulerConfig {
            epsilon_ms: None,
            max_transitions_per_task: 1,
            ..Default::default()
        };
        let enc = ScheduleEncoding::new(&w, &cm, cfg);
        let plain = solve(&enc, SolveOptions::default());
        let spec = enc.symmetry_spec(&p);
        assert!(!spec.is_empty());
        let sym = haxconn_solver::Symmetric::new(&enc, spec);
        let broken = solve(&sym, SolveOptions::default());
        let (_, c_plain) = plain.best.expect("feasible");
        let (_, c_sym) = broken.best.expect("feasible");
        assert!(
            (c_plain - c_sym).abs() <= 1e-9,
            "symmetry breaking moved the optimum: {c_plain} vs {c_sym}"
        );
        assert!(
            broken.stats.nodes < plain.stats.nodes,
            "expected fewer nodes with symmetry broken ({} vs {})",
            broken.stats.nodes,
            plain.stats.nodes
        );
    }

    #[test]
    fn epsilon_constraint_rejects_colocated_heavyweights() {
        let (p, w, cm) = setup(&[Model::ResNet101, Model::ResNet101]);
        let cfg = SchedulerConfig {
            epsilon_ms: Some(0.01),
            ..Default::default()
        };
        let enc = ScheduleEncoding::new(&w, &cm, cfg);
        // Everything on GPU: the second instance queues for milliseconds.
        let gpu_only: Vec<u32> = (0..enc.num_vars()).map(|_| p.gpu() as u32).collect();
        assert!(enc.cost(&gpu_only).is_none());
    }
}
