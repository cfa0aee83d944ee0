//! Depth-first branch & bound with anytime incumbents and budgets.
//!
//! The module hosts the [`Engine`] — the DFS hot loop shared by the
//! sequential [`solve`] and the work-stealing parallel solver
//! (`crate::parallel`). The hot path is allocation-free after warm-up:
//!
//! * the partial-assignment buffer and the complete-assignment buffer are
//!   reused across the whole search (and across work items in the
//!   parallel solver),
//! * bound-guided value ordering sorts into per-depth scratch buffers
//!   with an in-place insertion sort (domains are #PU-sized) instead of
//!   allocating a keyed `Vec` per node,
//! * the bound computed for a child during value ordering is passed down
//!   as a memo, so descending into that child does not recompute the
//!   model's (timeline-evaluating, hence expensive) lower bound,
//! * every descent/backtrack is mirrored into the model's incremental
//!   scratch via [`CostModel::push`]/[`CostModel::pop`] (strict LIFO), so
//!   models implementing the incremental protocol answer `prune_with`/
//!   `bound_with`/`cost_with` from delta-maintained state instead of
//!   recomputing over the whole assignment.
//!
//! Budgets are enforced through a [`SharedState`]: a single atomic node
//! counter claimed in batches and one deadline, shared by every worker of
//! a parallel solve — budgets are therefore *global*, never per subtree.

use crate::lns::LnsStats;
use crate::model::{Assignment, CostModel};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Pruning slack above an *adopted* or shared incumbent: subtrees whose
/// bound ties that cost within `EPS` are still explored, so a leaf that
/// wins the `(cost, assignment)` order is never pruned by timing. Only
/// pruning uses it; incumbents are ordered by exact cost.
pub(crate) const EPS: f64 = 1e-12;

/// How many nodes a worker claims from the global budget at once. Large
/// enough to keep the shared counter off the hot path, small enough that
/// a global budget is respected within ~1% on realistic solves.
const NODE_CHUNK: u64 = 256;

/// How often (in nodes) a worker polls the clock and the stop flag.
const POLL_MASK: u64 = 63;

/// Options controlling a solve.
#[derive(Default)]
pub struct SolveOptions<'a> {
    /// Stop after exploring this many search nodes (leaves + internal).
    /// Applies to the *whole* solve: the parallel solver shares one
    /// atomic counter across all workers.
    pub node_budget: Option<u64>,
    /// Stop after this much wall time (also global).
    pub time_budget: Option<Duration>,
    /// Invoked on every strictly improving incumbent with
    /// `(assignment, cost, elapsed)`. Supported by both the sequential
    /// and the parallel solver; the parallel solver serializes callbacks
    /// through a channel so costs strictly decrease and timestamps are
    /// monotone.
    #[allow(clippy::type_complexity)]
    pub on_incumbent: Option<Box<dyn FnMut(&Assignment, f64, Duration) + 'a>>,
    /// Start from a known incumbent (upper bound): candidates at or above
    /// this cost are pruned. Useful for warm restarts.
    pub initial_upper_bound: Option<f64>,
    /// Order each variable's values by the lower bound they induce
    /// (best-first) instead of domain order. Finds good incumbents earlier
    /// — which prunes more — at the cost of one `bound()` call per value
    /// (the child then reuses that bound instead of recomputing it).
    /// Determinism is preserved: ties keep domain order (stable sort).
    pub bound_guided_values: bool,
    /// Start from a known *solution*, not just a bound: the assignment is
    /// adopted as the incumbent (and returned if nothing better is found),
    /// and its cost prunes like [`SolveOptions::initial_upper_bound`]. The
    /// cost must be the model's own `cost` of the assignment (e.g. from a
    /// previous solve or an LNS pass) — it is trusted, not re-derived.
    pub initial_incumbent: Option<(Assignment, f64)>,
}

/// Why the solver stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetState {
    /// Search space exhausted — the returned solution is proven optimal.
    Exhausted,
    /// Node budget ran out.
    NodesExhausted,
    /// Time budget ran out.
    TimeExhausted,
}

/// Search statistics.
#[derive(Debug, Clone, Copy)]
pub struct SolveStats {
    /// Nodes visited (including pruned frontier nodes).
    pub nodes: u64,
    /// Leaves fully evaluated.
    pub leaves: u64,
    /// Subtrees pruned by bound or by `prune()`.
    pub pruned: u64,
    /// Subtrees pruned because the model's feasibility check rejected
    /// the prefix (`prune()` — e.g. the ε-overlap constraint, Eq. 9).
    pub pruned_infeasible: u64,
    /// Subtrees pruned against the local (per-work-item) incumbent.
    pub pruned_bound: u64,
    /// Subtrees pruned against the shared cross-worker incumbent.
    pub pruned_incumbent: u64,
    /// Strictly improving incumbents accepted locally.
    pub incumbents: u64,
    /// Wall time spent.
    pub elapsed: Duration,
    /// Why the search stopped.
    pub outcome: BudgetState,
}

/// Flushes one solve's aggregated counters to the global telemetry
/// recorder. Called once per solve — never from the DFS hot loop — so
/// the disabled-case cost is a single relaxed atomic load.
pub(crate) fn flush_solve_telemetry(label: &str, stats: &SolveStats) {
    if !haxconn_telemetry::enabled() {
        return;
    }
    use haxconn_telemetry as t;
    t::counter_add("solver.solves", 1);
    t::counter_add("solver.nodes", stats.nodes);
    t::counter_add("solver.leaves", stats.leaves);
    t::counter_add("solver.pruned.infeasible", stats.pruned_infeasible);
    t::counter_add("solver.pruned.bound", stats.pruned_bound);
    t::counter_add("solver.pruned.incumbent", stats.pruned_incumbent);
    t::counter_add("solver.incumbents", stats.incumbents);
    let ms = stats.elapsed.as_secs_f64() * 1e3;
    t::histogram_record("solver.solve_ms", ms);
    t::span_event("solver", label, t::clock_ms() - ms, ms);
}

/// Which strategy produced a solve's final incumbent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Winner {
    /// A branch-&-bound worker found it.
    BranchAndBound,
    /// A large-neighborhood-search worker found it.
    Lns,
    /// The caller's `initial_incumbent` was never beaten.
    Seed,
}

/// Result of a solve.
pub struct Solution {
    /// Best assignment found (None if nothing feasible was seen).
    pub best: Option<(Assignment, f64)>,
    /// Which strategy produced `best` (`None` when `best` is `None`).
    pub winner: Option<Winner>,
    /// Statistics.
    pub stats: SolveStats,
    /// Totals summed over the pool's LNS workers (all zero unless
    /// [`crate::ParallelOptions::lns_workers`] is set).
    pub lns: LnsStats,
}

impl Solution {
    /// Whether the result is proven optimal.
    pub fn proven_optimal(&self) -> bool {
        self.stats.outcome == BudgetState::Exhausted
    }
}

/// State shared by every worker of one solve: the global budgets and the
/// lock-free incumbent cost.
pub(crate) struct SharedState {
    /// Nodes handed out so far (claimed in [`NODE_CHUNK`] batches).
    claimed: AtomicU64,
    /// Total node budget (`u64::MAX` = unlimited).
    node_budget: u64,
    /// Wall-clock cutoff.
    deadline: Option<Instant>,
    /// Cooperative abort flag: set once any budget trips.
    stop: AtomicBool,
    nodes_out: AtomicBool,
    time_out: AtomicBool,
    /// Best globally-known incumbent cost as f64 bits (`+inf` when none).
    /// Written only while the parallel solver's incumbent mutex is held;
    /// read lock-free on every bound check.
    best_cost_bits: AtomicU64,
}

impl SharedState {
    pub(crate) fn new(
        node_budget: Option<u64>,
        time_budget: Option<Duration>,
        initial_upper_bound: Option<f64>,
    ) -> Self {
        SharedState {
            claimed: AtomicU64::new(0),
            node_budget: node_budget.unwrap_or(u64::MAX),
            deadline: time_budget.map(|tb| Instant::now() + tb),
            stop: AtomicBool::new(false),
            nodes_out: AtomicBool::new(false),
            time_out: AtomicBool::new(false),
            best_cost_bits: AtomicU64::new(initial_upper_bound.unwrap_or(f64::INFINITY).to_bits()),
        }
    }

    /// Claims up to `want` nodes from the global budget; 0 means the
    /// budget is exhausted.
    fn claim(&self, want: u64) -> u64 {
        if self.node_budget == u64::MAX {
            return want;
        }
        let prev = self.claimed.fetch_add(want, Ordering::Relaxed);
        if prev >= self.node_budget {
            0
        } else {
            (self.node_budget - prev).min(want)
        }
    }

    /// Current globally-best incumbent cost (`+inf` when none).
    #[inline]
    pub(crate) fn best_cost(&self) -> f64 {
        f64::from_bits(self.best_cost_bits.load(Ordering::Acquire))
    }

    /// Publishes a new globally-best cost. Callers must serialize (the
    /// parallel solver holds its incumbent mutex), keeping the sequence
    /// monotone non-increasing.
    pub(crate) fn publish_cost(&self, cost: f64) {
        self.best_cost_bits.store(cost.to_bits(), Ordering::Release);
    }

    /// Whether some worker tripped a budget.
    pub(crate) fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Cooperative stop that is *not* a budget trip: the pool raises it
    /// when its last B&B worker exits so its LNS workers wind down. The
    /// outcome stays [`BudgetState::Exhausted`].
    pub(crate) fn request_stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Deadline poll for workers without a node counter (LNS): flags the
    /// time budget and returns `true` when the deadline has passed.
    pub(crate) fn time_up(&self) -> bool {
        match self.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                self.flag_time_out();
                true
            }
            _ => false,
        }
    }

    fn flag_nodes_out(&self) {
        self.nodes_out.store(true, Ordering::Relaxed);
        self.stop.store(true, Ordering::Relaxed);
    }

    fn flag_time_out(&self) {
        self.time_out.store(true, Ordering::Relaxed);
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Outcome implied by the flags.
    pub(crate) fn outcome(&self) -> BudgetState {
        if self.nodes_out.load(Ordering::Relaxed) {
            BudgetState::NodesExhausted
        } else if self.time_out.load(Ordering::Relaxed) {
            BudgetState::TimeExhausted
        } else {
            BudgetState::Exhausted
        }
    }
}

/// Caller-owned search buffers for branch & bound over one model: the
/// partial/complete assignment buffers, the per-depth value-ordering
/// scratch, and the model's incremental-evaluation state.
///
/// [`solve`] creates one internally; [`solve_with`] borrows yours, so a
/// caller re-solving the same model (warm restarts, bound sweeps, the
/// D-HaX-CoNN re-solve loop) pays the per-solve setup allocation once.
/// After the first solve has warmed the per-depth scratch, a re-solve
/// that finds no new incumbent (e.g. warm-started at the known optimum)
/// performs **zero** heap allocations — machine-checked by the
/// `alloc-truth` gate in the `runtime_scaling` bench.
///
/// A workspace is bound to the model it was created from: the DFS keeps
/// the incremental scratch in lockstep with that model's `push`/`pop`.
/// Reusing it with a different model of the same size is undefined
/// results (not memory-unsafe, just wrong); sizes are asserted.
pub struct Workspace<M: CostModel> {
    /// Reused partial-assignment buffer (`None` = unassigned). The strict
    /// LIFO discipline of `dfs` restores every entry to `None` before
    /// returning, even on abort, so the workspace is always re-solvable.
    pub(crate) partial: Vec<Option<u32>>,
    /// Reused complete-assignment buffer for leaf evaluation.
    complete: Assignment,
    /// Per-depth scratch for bound-guided value ordering.
    scratch: Vec<Vec<(f64, u32)>>,
    /// The model's incremental-evaluation state, kept in lockstep with
    /// `partial` through push/pop.
    inc: M::Scratch,
}

impl<M: CostModel> Workspace<M> {
    /// Fresh buffers sized for `model`.
    pub fn new(model: &M) -> Self {
        let n = model.num_vars();
        Workspace {
            partial: vec![None; n],
            complete: vec![0; n],
            scratch: vec![Vec::new(); n],
            inc: model.new_scratch(),
        }
    }
}

/// The DFS engine: one per worker thread (or one total, sequentially).
///
/// All buffers live in the borrowed [`Workspace`] and are reused — running
/// another subtree from the same engine allocates nothing new (beyond
/// incumbent clones, which only happen on strict improvement).
pub(crate) struct Engine<'a, M: CostModel, F: FnMut(&Assignment, f64)> {
    model: &'a M,
    shared: &'a SharedState,
    pub(crate) ws: &'a mut Workspace<M>,
    /// Incumbent local to the current work item (reset per subtree in the
    /// parallel solver so results do not depend on work distribution).
    pub(crate) local_best: Option<(Assignment, f64)>,
    /// Whether `local_best` was *adopted* (the shared incumbent, or the
    /// caller's seed) rather than found by this engine. A leaf then beats
    /// it in the `(cost, assignment)` order — an equal-cost leaf wins if
    /// it is lexicographically smaller — because the DFS cannot know
    /// where the adopted assignment sits in its own visiting order (see
    /// `parallel.rs` module docs).
    adopted: bool,
    /// Acceptance ceiling from a warm start.
    init_ub: f64,
    bound_guided: bool,
    /// Locally claimed, not-yet-consumed node quota.
    quota: u64,
    pub(crate) nodes: u64,
    pub(crate) leaves: u64,
    pub(crate) pruned: u64,
    pub(crate) pruned_infeasible: u64,
    pub(crate) pruned_bound: u64,
    pub(crate) pruned_incumbent: u64,
    pub(crate) incumbents: u64,
    /// Called on every *local* improvement with the completed assignment
    /// and its cost. The sequential solver forwards to the user callback;
    /// parallel workers offer to the shared incumbent.
    sink: F,
}

impl<'a, M: CostModel, F: FnMut(&Assignment, f64)> Engine<'a, M, F> {
    pub(crate) fn new(
        model: &'a M,
        shared: &'a SharedState,
        ws: &'a mut Workspace<M>,
        initial_upper_bound: Option<f64>,
        bound_guided: bool,
        sink: F,
    ) -> Self {
        let n = model.num_vars();
        assert_eq!(ws.partial.len(), n, "workspace sized for a different model");
        debug_assert!(
            ws.partial.iter().all(|v| v.is_none()),
            "workspace left mid-search"
        );
        Engine {
            model,
            shared,
            ws,
            local_best: None,
            adopted: false,
            init_ub: initial_upper_bound.unwrap_or(f64::INFINITY),
            bound_guided,
            quota: 0,
            nodes: 0,
            leaves: 0,
            pruned: 0,
            pruned_infeasible: 0,
            pruned_bound: 0,
            pruned_incumbent: 0,
            incumbents: 0,
            sink,
        }
    }

    /// Local pruning threshold: the warm-start bound until something
    /// better is found locally. An *adopted* incumbent keeps the threshold
    /// [`EPS`] above its cost so subtrees that may hold an equal-cost,
    /// lexicographically smaller leaf are still explored.
    #[inline]
    fn local_ub(&self) -> f64 {
        match &self.local_best {
            Some((_, c)) if self.adopted => *c + EPS,
            Some((_, c)) => *c,
            None => self.init_ub,
        }
    }

    /// Whether the leaf in `ws.complete`, of cost `c`, beats the local
    /// incumbent. A leaf this engine found itself precedes every later
    /// leaf of its DFS in assignment order, so only a strictly lower cost
    /// beats it; an adopted incumbent is compared in full `(cost,
    /// assignment)` order, exactly as the shared slot orders offers.
    #[inline]
    fn improves(&self, c: f64) -> bool {
        match &self.local_best {
            Some((a, lc)) if self.adopted => (c, &self.ws.complete) < (*lc, a),
            Some((_, lc)) => c < *lc,
            None => c < self.init_ub,
        }
    }

    /// Installs an incumbent observed elsewhere (the shared slot, or a
    /// caller's `initial_incumbent`) as this engine's local best, both
    /// assignment and cost. `None` clears the slot (fresh work item with
    /// no incumbent known anywhere).
    pub(crate) fn adopt(&mut self, incumbent: Option<(Assignment, f64)>) {
        self.adopted = incumbent.is_some();
        self.local_best = incumbent;
    }

    /// Assigns `var = value`, mirroring the change into the model's
    /// incremental scratch.
    #[inline]
    pub(crate) fn assign(&mut self, var: usize, value: u32) {
        self.ws.partial[var] = Some(value);
        self.model.push(&mut self.ws.inc, var, value);
    }

    /// Unassigns `var` (which must be the most recently assigned live
    /// variable — the LIFO discipline the incremental protocol requires).
    #[inline]
    pub(crate) fn unassign(&mut self, var: usize) {
        self.model.pop(&mut self.ws.inc, var);
        self.ws.partial[var] = None;
    }

    /// Runs the subtree rooted at the current `partial` prefix, branching
    /// variables `var..`. Returns `true` when the search must abort
    /// (budget exhausted or another worker stopped the solve).
    ///
    /// `bound_memo` carries the prefix bound when the caller already
    /// computed it (bound-guided ordering computes every child's bound to
    /// sort, so the child must not pay for it twice); `NAN` means unknown.
    pub(crate) fn dfs(&mut self, var: usize, bound_memo: f64) -> bool {
        if self.quota == 0 {
            let got = self.shared.claim(NODE_CHUNK);
            if got == 0 {
                self.shared.flag_nodes_out();
                return true;
            }
            self.quota = got;
        }
        self.quota -= 1;
        self.nodes += 1;
        if self.nodes & POLL_MASK == 0 {
            if self.shared.stopped() {
                return true;
            }
            if let Some(deadline) = self.shared.deadline {
                if Instant::now() >= deadline {
                    self.shared.flag_time_out();
                    return true;
                }
            }
        }
        if self.model.prune_with(&self.ws.inc, &self.ws.partial) {
            self.pruned += 1;
            self.pruned_infeasible += 1;
            return false;
        }
        let bound = if bound_memo.is_nan() {
            self.model.bound_with(&self.ws.inc, &self.ws.partial)
        } else {
            bound_memo
        };
        if bound >= self.local_ub() {
            self.pruned += 1;
            self.pruned_bound += 1;
            return false;
        }
        // Cross-worker pruning against the lock-free shared incumbent.
        // The margin is *conservative* (strictly-worse only): subtrees
        // whose bound ties the incumbent are still explored, so every
        // optimal leaf is offered no matter how work was distributed —
        // that is what makes equal-cost tie-breaking deterministic.
        if bound > self.shared.best_cost() + EPS {
            self.pruned += 1;
            self.pruned_incumbent += 1;
            return false;
        }
        let n = self.model.num_vars();
        if var == n {
            self.leaves += 1;
            for (dst, src) in self.ws.complete.iter_mut().zip(self.ws.partial.iter()) {
                *dst = src.expect("complete assignment");
            }
            if let Some(c) = self.model.cost_with(&mut self.ws.inc, &self.ws.complete) {
                if self.improves(c) {
                    self.local_best = Some((self.ws.complete.clone(), c));
                    self.adopted = false;
                    self.incumbents += 1;
                    (self.sink)(&self.ws.complete, c);
                }
            }
            return false;
        }
        let dlen = self.model.domain(var).len();
        if self.bound_guided && dlen > 1 {
            // Key children by their bound in the per-depth scratch buffer
            // (taken out to satisfy the borrow checker; no allocation
            // after the first visit of this depth).
            let mut keyed = std::mem::take(&mut self.ws.scratch[var]);
            keyed.clear();
            for i in 0..dlen {
                let v = self.model.domain(var)[i];
                self.assign(var, v);
                keyed.push((self.model.bound_with(&self.ws.inc, &self.ws.partial), v));
                self.unassign(var);
            }
            // Stable insertion sort: ties keep domain order, and domains
            // are #PU-sized, so this beats an allocating merge sort.
            for i in 1..keyed.len() {
                let mut j = i;
                while j > 0 && keyed[j - 1].0 > keyed[j].0 {
                    keyed.swap(j - 1, j);
                    j -= 1;
                }
            }
            for i in 0..keyed.len() {
                let (child_bound, v) = keyed[i];
                self.assign(var, v);
                let abort = self.dfs(var + 1, child_bound);
                self.unassign(var);
                if abort {
                    self.ws.scratch[var] = keyed;
                    return true;
                }
            }
            self.ws.scratch[var] = keyed;
        } else {
            for i in 0..dlen {
                let v = self.model.domain(var)[i];
                self.assign(var, v);
                let abort = self.dfs(var + 1, f64::NAN);
                self.unassign(var);
                if abort {
                    return true;
                }
            }
        }
        false
    }
}

/// Minimizes `model` by exhaustive branch & bound (subject to budgets).
pub fn solve<M: CostModel>(model: &M, opts: SolveOptions<'_>) -> Solution {
    let mut ws = Workspace::new(model);
    solve_with(model, opts, &mut ws)
}

/// Like [`solve`], but reuses a caller-owned [`Workspace`] so repeated
/// solves over the same model allocate nothing in the search loop (beyond
/// incumbent clones when a strictly better leaf is found). The workspace
/// must have been built for `model` (same variable count and domains).
pub fn solve_with<M: CostModel>(
    model: &M,
    mut opts: SolveOptions<'_>,
    ws: &mut Workspace<M>,
) -> Solution {
    let n = model.num_vars();
    for v in 0..n {
        assert!(!model.domain(v).is_empty(), "variable {v} has empty domain");
    }
    let started = Instant::now();
    let shared = SharedState::new(opts.node_budget, opts.time_budget, None);
    let mut callback = opts.on_incumbent.take();
    let mut engine = Engine::new(
        model,
        &shared,
        ws,
        opts.initial_upper_bound,
        opts.bound_guided_values,
        |a: &Assignment, c: f64| {
            if let Some(cb) = callback.as_mut() {
                cb(a, c, started.elapsed());
            }
        },
    );
    if let Some((a, c)) = opts.initial_incumbent.take() {
        engine.adopt(Some((a, c)));
    }
    haxconn_telemetry::alloc::phase(haxconn_telemetry::alloc::PHASE_SOLVE, || {
        engine.dfs(0, f64::NAN)
    });
    let stats = SolveStats {
        nodes: engine.nodes,
        leaves: engine.leaves,
        pruned: engine.pruned,
        pruned_infeasible: engine.pruned_infeasible,
        pruned_bound: engine.pruned_bound,
        pruned_incumbent: engine.pruned_incumbent,
        incumbents: engine.incumbents,
        elapsed: started.elapsed(),
        outcome: shared.outcome(),
    };
    flush_solve_telemetry("bb.solve", &stats);
    let winner = engine.local_best.as_ref().map(|_| {
        if engine.adopted {
            Winner::Seed
        } else {
            Winner::BranchAndBound
        }
    });
    Solution {
        best: engine.local_best,
        winner,
        stats,
        lns: LnsStats::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{brute_force, PartialAssignment};

    /// Weighted assignment with a forbidden-pair constraint and a real
    /// lower bound.
    struct Wap {
        /// weights[var][value]
        weights: Vec<Vec<f64>>,
        domains: Vec<Vec<u32>>,
        /// pairs (i, j) that must differ
        diffs: Vec<(usize, usize)>,
    }

    impl CostModel for Wap {
        type Scratch = ();
        fn num_vars(&self) -> usize {
            self.domains.len()
        }
        fn domain(&self, var: usize) -> &[u32] {
            &self.domains[var]
        }
        fn cost(&self, a: &Assignment) -> Option<f64> {
            for &(i, j) in &self.diffs {
                if a[i] == a[j] {
                    return None;
                }
            }
            Some(
                a.iter()
                    .enumerate()
                    .map(|(i, &v)| self.weights[i][v as usize])
                    .sum(),
            )
        }
        fn bound(&self, partial: &PartialAssignment) -> f64 {
            partial
                .iter()
                .enumerate()
                .map(|(i, v)| match v {
                    Some(v) => self.weights[i][*v as usize],
                    None => self.domains[i]
                        .iter()
                        .map(|&x| self.weights[i][x as usize])
                        .fold(f64::INFINITY, f64::min),
                })
                .sum()
        }
        fn prune(&self, partial: &PartialAssignment) -> bool {
            self.diffs
                .iter()
                .any(|&(i, j)| matches!((partial[i], partial[j]), (Some(a), Some(b)) if a == b))
        }
    }

    fn instance(seed: u64, n: usize, k: usize) -> Wap {
        // Deterministic pseudo-random weights (xorshift).
        let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 1000) as f64 / 100.0
        };
        let weights = (0..n).map(|_| (0..k).map(|_| next()).collect()).collect();
        let domains = (0..n).map(|_| (0..k as u32).collect()).collect();
        let diffs = (0..n - 1).map(|i| (i, i + 1)).collect();
        Wap {
            weights,
            domains,
            diffs,
        }
    }

    #[test]
    fn matches_brute_force_on_many_instances() {
        for seed in 0..25 {
            let m = instance(seed, 7, 3);
            let bf = brute_force(&m);
            let bb = solve(&m, SolveOptions::default());
            assert!(bb.proven_optimal());
            match (bf, bb.best) {
                (Some((_, c1)), Some((_, c2))) => {
                    assert!((c1 - c2).abs() < 1e-9, "seed {seed}: {c1} vs {c2}")
                }
                (None, None) => {}
                other => panic!("seed {seed}: mismatch {other:?}"),
            }
        }
    }

    #[test]
    fn bounding_prunes() {
        let m = instance(42, 10, 3);
        let sol = solve(&m, SolveOptions::default());
        assert!(sol.stats.pruned > 0, "expected pruning on a 3^10 space");
        assert!(sol.stats.leaves < 3u64.pow(10));
        assert!(sol.proven_optimal());
    }

    #[test]
    fn node_budget_stops_early_but_keeps_incumbent() {
        let m = instance(7, 12, 3);
        let sol = solve(
            &m,
            SolveOptions {
                node_budget: Some(200),
                ..Default::default()
            },
        );
        assert_eq!(sol.stats.outcome, BudgetState::NodesExhausted);
        assert!(!sol.proven_optimal());
        // The budget is respected exactly (not overshot by a batch).
        assert!(sol.stats.nodes <= 200);
        // DFS reaches leaves quickly, so an incumbent should exist.
        assert!(sol.best.is_some());
    }

    #[test]
    fn anytime_incumbents_improve_monotonically() {
        let m = instance(3, 9, 3);
        let mut costs: Vec<f64> = Vec::new();
        {
            let sol = solve(
                &m,
                SolveOptions {
                    on_incumbent: Some(Box::new(|_, c, _| costs.push(c))),
                    ..Default::default()
                },
            );
            assert!(sol.proven_optimal());
        }
        assert!(!costs.is_empty());
        for w in costs.windows(2) {
            assert!(w[1] < w[0], "incumbents must strictly improve");
        }
        let bf = brute_force(&m).unwrap().1;
        assert!((costs.last().unwrap() - bf).abs() < 1e-9);
    }

    #[test]
    fn warm_start_upper_bound_prunes_more() {
        let m = instance(11, 11, 3);
        let cold = solve(&m, SolveOptions::default());
        let best = cold.best.as_ref().unwrap().1;
        let warm = solve(
            &m,
            SolveOptions {
                initial_upper_bound: Some(best + 1e-9),
                ..Default::default()
            },
        );
        assert!(warm.stats.leaves <= cold.stats.leaves);
        // Warm solve still confirms the optimum.
        assert!((warm.best.unwrap().1 - best).abs() < 1e-9);
    }

    #[test]
    fn initial_incumbent_is_returned_when_the_budget_starves_the_search() {
        let m = instance(7, 12, 3);
        let opt = solve(&m, SolveOptions::default()).best.unwrap();
        let sol = solve(
            &m,
            SolveOptions {
                node_budget: Some(1),
                initial_incumbent: Some(opt.clone()),
                ..Default::default()
            },
        );
        assert_eq!(sol.stats.outcome, BudgetState::NodesExhausted);
        assert_eq!(sol.winner, Some(Winner::Seed));
        let (a, c) = sol.best.expect("seeded incumbent must survive");
        assert_eq!(a, opt.0);
        assert_eq!(c.to_bits(), opt.1.to_bits());
        // A full solve with a suboptimal seed still proves the optimum.
        let alt: Assignment = (0..12).map(|i| (i % 3) as u32).collect();
        let alt_c = m.cost(&alt).expect("feasible");
        let sol = solve(
            &m,
            SolveOptions {
                initial_incumbent: Some((alt, alt_c)),
                ..Default::default()
            },
        );
        assert!(sol.proven_optimal());
        assert_eq!(sol.winner, Some(Winner::BranchAndBound));
        assert_eq!(sol.best.unwrap().1.to_bits(), opt.1.to_bits());
    }

    #[test]
    fn infeasible_instance_returns_none() {
        let m = Wap {
            weights: vec![vec![1.0], vec![1.0]],
            domains: vec![vec![0], vec![0]],
            diffs: vec![(0, 1)],
        };
        let sol = solve(&m, SolveOptions::default());
        assert!(sol.best.is_none());
        assert!(sol.proven_optimal());
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn empty_domain_rejected() {
        let m = Wap {
            weights: vec![vec![]],
            domains: vec![vec![]],
            diffs: vec![],
        };
        solve(&m, SolveOptions::default());
    }

    #[test]
    fn bound_guided_ordering_explores_fewer_leaves() {
        let m = instance(17, 12, 3);
        let plain = solve(&m, SolveOptions::default());
        let guided = solve(
            &m,
            SolveOptions {
                bound_guided_values: true,
                ..Default::default()
            },
        );
        // Same optimum...
        assert!((plain.best.as_ref().unwrap().1 - guided.best.as_ref().unwrap().1).abs() < 1e-9);
        // ...with no more leaves evaluated (typically far fewer).
        assert!(
            guided.stats.leaves <= plain.stats.leaves,
            "guided {} vs plain {}",
            guided.stats.leaves,
            plain.stats.leaves
        );
    }

    #[test]
    fn deterministic() {
        let m = instance(99, 8, 3);
        let a = solve(&m, SolveOptions::default());
        let b = solve(&m, SolveOptions::default());
        assert_eq!(a.best.as_ref().unwrap().0, b.best.as_ref().unwrap().0);
        assert_eq!(a.stats.leaves, b.stats.leaves);
        assert_eq!(a.stats.nodes, b.stats.nodes);
    }

    /// A caller-owned workspace reused across solves must behave exactly
    /// like fresh buffers: same assignment, same cost bits, same node and
    /// leaf counts — on the second and third reuse too.
    #[test]
    fn workspace_reuse_is_equivalent_to_fresh_solve() {
        for seed in [5, 23, 61] {
            let m = instance(seed, 9, 3);
            let fresh = solve(&m, SolveOptions::default());
            let mut ws = Workspace::new(&m);
            for round in 0..3 {
                let reused = solve_with(&m, SolveOptions::default(), &mut ws);
                let (fa, fc) = fresh.best.as_ref().expect("feasible");
                let (ra, rc) = reused.best.as_ref().expect("feasible");
                assert_eq!(fa, ra, "seed {seed} round {round}");
                assert_eq!(fc.to_bits(), rc.to_bits(), "seed {seed} round {round}");
                assert_eq!(fresh.stats.nodes, reused.stats.nodes);
                assert_eq!(fresh.stats.leaves, reused.stats.leaves);
            }
        }
    }

    /// The LIFO discipline restores the workspace to all-`None` even when
    /// a budget aborts the search mid-tree, so the workspace stays
    /// re-solvable after a starved solve.
    #[test]
    fn workspace_survives_budget_abort() {
        let m = instance(7, 12, 3);
        let mut ws = Workspace::new(&m);
        let starved = solve_with(
            &m,
            SolveOptions {
                node_budget: Some(50),
                ..Default::default()
            },
            &mut ws,
        );
        assert_eq!(starved.stats.outcome, BudgetState::NodesExhausted);
        let full = solve_with(&m, SolveOptions::default(), &mut ws);
        assert!(full.proven_optimal());
        let reference = solve(&m, SolveOptions::default());
        assert_eq!(
            full.best.unwrap().1.to_bits(),
            reference.best.unwrap().1.to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "sized for a different model")]
    fn workspace_for_wrong_model_rejected() {
        let small = instance(1, 5, 3);
        let large = instance(1, 9, 3);
        let mut ws = Workspace::new(&small);
        solve_with(&large, SolveOptions::default(), &mut ws);
    }

    /// A warm re-solve at the known optimum must not allocate: every leaf
    /// is pruned by `bound >= local_ub` before an incumbent clone, and all
    /// search buffers come from the workspace. Meaningful only with the
    /// `alloc-truth` feature; vacuous (but still run) without it.
    #[test]
    fn warm_resolve_at_optimum_is_allocation_free() {
        let m = instance(13, 9, 3);
        let mut ws = Workspace::new(&m);
        let cold = solve_with(&m, SolveOptions::default(), &mut ws);
        let optimum = cold.best.expect("feasible").1;
        let warm = |ws: &mut Workspace<Wap>| {
            solve_with(
                &m,
                SolveOptions {
                    initial_upper_bound: Some(optimum),
                    ..Default::default()
                },
                ws,
            )
        };
        // One warm pass outside the guard so lazily-grown scratch (e.g.
        // bound-guided buffers) reaches steady state.
        let warmup = warm(&mut ws);
        assert!(warmup.proven_optimal());
        assert!(warmup.best.is_none(), "ub == optimum prunes equal leaves");
        let guard = haxconn_telemetry::alloc::AllocGuard::begin("bb.warm_resolve");
        let gated = warm(&mut ws);
        guard.assert_zero();
        assert!(gated.proven_optimal());
    }

    /// The memoized child bound must behave exactly like recomputing it:
    /// guided and plain solves agree on the optimum everywhere.
    #[test]
    fn bound_memo_is_equivalent_to_recomputation() {
        for seed in 0..20 {
            let m = instance(seed, 9, 3);
            let plain = solve(&m, SolveOptions::default());
            let guided = solve(
                &m,
                SolveOptions {
                    bound_guided_values: true,
                    ..Default::default()
                },
            );
            match (&plain.best, &guided.best) {
                (Some((_, a)), Some((_, b))) => {
                    assert!((a - b).abs() < 1e-12, "seed {seed}")
                }
                (None, None) => {}
                other => panic!("seed {seed}: {other:?}"),
            }
        }
    }
}
