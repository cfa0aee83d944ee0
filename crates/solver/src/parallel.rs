//! The worker pool: parallel branch & bound by frontier splitting with
//! work stealing, optionally raced against LNS workers, over one
//! lock-free shared incumbent. [`solve_parallel_with`] is the one pool
//! driver; [`ParallelOptions`] holds its three knobs.
//!
//! The search tree is cut at a configurable depth `d`: every assignment
//! of the first `d` variables becomes one *work item* (there are
//! `∏ |domain(0..d)|` of them — far more items than workers, unlike root
//! splitting, so no thread idles because its one subtree happened to be
//! small). Items live in an implicit lock-free injector — a shared atomic
//! cursor over the mixed-radix prefix space — from which workers claim
//! the next prefix whenever they finish one, i.e. work-stealing
//! degenerated to its cheapest form: stealing from a single shared deque
//! whose items never need to be materialized.
//!
//! The incumbent *cost* lives in an `AtomicU64` (bit-cast `f64`) read
//! with `Acquire` on every bound check — the prune hot path takes no
//! lock. The full assignment sits behind a mutex that is only taken when
//! a worker's candidate might actually improve the incumbent (checked
//! against the atomic first), which is rare.
//!
//! Budgets are **global**: one atomic node counter and one deadline are
//! shared by all workers (see [`SolveOptions`]), so `node_budget: 1000`
//! means one thousand nodes total, never per subtree.
//!
//! # Execution model
//!
//! The calling thread is B&B worker 0. The other `threads - 1` B&B
//! workers and any LNS workers run on helper threads from one
//! process-wide set (`crate::pool`): spawned on the first parallel solve
//! that finds too few idle, parked on a condvar between solves, and
//! claimed by one solve at a time, so concurrent solves never wait on
//! each other's helpers. A solve therefore pays a wake per helper, not a
//! thread spawn, and a solve at `threads: 1` without LNS workers touches
//! no other thread at all.
//!
//! Helpers run a closure that borrows the caller's stack (the model, the
//! incumbent, the injector). The pool erases that borrow's lifetime with
//! one `unsafe` transmute. Its invariant: the caller does not return or
//! unwind past the borrow until every helper it handed the closure to
//! has finished with it — a guard waits for them on both paths. A helper
//! runs under `catch_unwind` and stays parked for the next solve; the
//! caller re-raises the first panic once all of them are done.
//!
//! # Determinism
//!
//! Incumbents are ordered by exact cost, then lexicographically by
//! assignment. That order is total, and with ascending domains (the DFS
//! branches in domain order) its minimum is exactly what the
//! sequential solver returns: its DFS visits leaves in assignment order
//! and keeps only strict cost improvements. The parallel solver returns
//! the same minimum, cost bits and assignment, whatever the thread count
//! or timing:
//!
//! * the shared incumbent keeps an offer only if it precedes the current
//!   one in that order — a reduction that does not depend on arrival
//!   order;
//! * each work item starts by adopting the shared incumbent (assignment
//!   and cost). A leaf then beats the adopted incumbent in the same
//!   `(cost, assignment)` order the slot uses, so adoption only filters
//!   out candidates `offer` would reject anyway;
//! * pruning against an adopted or shared cost keeps a margin of
//!   `EPS = 1e-12` above it: subtrees whose bound ties the
//!   incumbent are still explored, so a winning leaf can never be
//!   timing-pruned;
//! * `initial_incumbent` and `SolveOptions::seeds` are settled on the
//!   calling thread before any worker starts, so every worker starts
//!   from the same incumbent and skips the same known leaves.
//!
//! # Anytime trace
//!
//! [`Solution::trace`] holds the strict global improvements, appended
//! by the shared incumbent inside its lock, so costs strictly decrease
//! and each entry is stamped when the improvement was offered. Which
//! intermediate incumbents surface depends on thread timing; the last
//! one, like the result, does not.
//!
//! # LNS workers
//!
//! With [`ParallelOptions::lns_workers`] set, that many LNS workers
//! (`crate::lns`) run beside the B&B workers on the same
//! `SharedIncumbent`: an LNS incumbent tightens the bound every B&B
//! worker prunes against, and a B&B incumbent reseeds the LNS walks. B&B
//! alone decides exactness, and the last B&B worker to exit stops the LNS
//! workers. A proven result is the same `(cost, assignment)` minimum as
//! without them, since the order above does not care who offered a leaf.
//! With `lns_workers == 0` nothing of the race is started or recorded.

use crate::bb::{
    flush_solve_telemetry, solve, Engine, SharedState, Solution, SolveOptions, SolveStats, Winner,
    Workspace,
};
use crate::lns::{flush_lns_telemetry, lns_worker, LnsStats};
use crate::model::{Assignment, CostModel};
use crate::pool::{cpus, Pool, POOL};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Hard cap on frontier size when auto-choosing the split depth.
const MAX_AUTO_ITEMS: usize = 65_536;

/// Work items per worker the auto split depth aims for; >1 so fast
/// workers keep stealing instead of idling behind a slow subtree.
const ITEMS_PER_WORKER: usize = 8;

/// Knobs of the worker pool.
#[derive(Debug, Clone, Default)]
pub struct ParallelOptions {
    /// B&B workers, counting the calling thread; `0` means one per
    /// available CPU minus `lns_workers` (at least one).
    pub threads: usize,
    /// Split the tree at this depth (number of leading variables fixed
    /// per work item). `None` picks the smallest depth yielding at least
    /// `ITEMS_PER_WORKER` items per worker. Any depth produces the
    /// same result — this only shapes load balance.
    pub split_depth: Option<usize>,
    /// LNS workers raced beside the B&B workers on the same incumbent
    /// (`crate::lns`); `0` runs pure branch & bound.
    pub lns_workers: usize,
}

/// The shared incumbent: lock-free cost in [`SharedState`]; the full
/// assignment, the strategy that produced it and the trace of strict
/// improvements under this mutex (taken only on candidate improvements).
/// Shared by the pool's B&B and LNS workers.
pub(crate) struct SharedIncumbent<'a> {
    slot: Mutex<Slot>,
    pub(crate) state: &'a SharedState,
    started: Instant,
}

/// What [`SharedIncumbent`] keeps under its lock.
#[derive(Default)]
struct Slot {
    best: Option<(Assignment, f64, Winner)>,
    trace: Vec<(Assignment, f64, Duration)>,
}

impl<'a> SharedIncumbent<'a> {
    pub(crate) fn new(state: &'a SharedState, started: Instant) -> Self {
        SharedIncumbent {
            slot: Mutex::default(),
            state,
            started,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().expect("incumbent lock")
    }

    /// Installs a caller-provided incumbent before any worker starts. The
    /// cost is published so every worker prunes against it from node one.
    pub(crate) fn seed(&self, a: Assignment, c: f64) {
        self.lock().best = Some((a, c, Winner::Seed));
        self.state.publish_cost(c);
    }

    /// Offers a locally-accepted candidate. Keeps it if it precedes the
    /// current incumbent in `(cost, assignment)` order: a strictly lower
    /// cost, or the exact same cost and a lexicographically smaller
    /// assignment. That is a total order, so the winner does not depend
    /// on arrival order. Strict cost improvements are appended to the
    /// trace inside the lock, so it holds a strictly decreasing cost
    /// sequence with monotone stamps.
    pub(crate) fn offer(&self, a: &Assignment, c: f64, src: Winner) {
        // Lock-free fast reject: strictly worse candidates never touch
        // the mutex. Exact ties fall through for lex comparison.
        if c > self.state.best_cost() {
            return;
        }
        let mut slot = self.lock();
        let (better, strict) = match &slot.best {
            None => (true, true),
            Some((cur_a, cur_c, _)) => ((c, a) < (*cur_c, cur_a), c < *cur_c),
        };
        if better {
            slot.best = Some((a.clone(), c, src));
            self.state.publish_cost(c);
            if strict {
                slot.trace.push((a.clone(), c, self.started.elapsed()));
            }
        }
    }

    /// Clones the current incumbent out of the slot (for adoption by B&B
    /// workers and LNS reseeding). Callers gate on
    /// [`SharedState::best_cost`] first so the lock is only taken when
    /// there is something new to fetch.
    pub(crate) fn snapshot(&self) -> Option<(Assignment, f64)> {
        self.lock().best.as_ref().map(|(a, c, _)| (a.clone(), *c))
    }
}

/// Smallest depth whose prefix count reaches `target` (capped).
fn choose_depth<M: CostModel>(model: &M, threads: usize, requested: Option<usize>) -> usize {
    let n = model.num_vars();
    if let Some(d) = requested {
        return d.min(n);
    }
    let target = threads.saturating_mul(ITEMS_PER_WORKER).max(2);
    let mut depth = 0;
    let mut items = 1usize;
    while depth < n && items < target {
        items = items.saturating_mul(model.domain(depth).len());
        depth += 1;
        if items >= MAX_AUTO_ITEMS {
            break;
        }
    }
    depth
}

/// Per-solve search totals plus one `(items claimed, busy ms)` entry
/// per worker, accumulated under a mutex taken once per worker exit.
#[derive(Default)]
struct PoolStats {
    nodes: u64,
    leaves: u64,
    pruned_infeasible: u64,
    pruned_bound: u64,
    pruned_incumbent: u64,
    incumbents: u64,
    workers: Vec<(u64, f64)>,
}

/// Number of work items at `depth` (saturating).
fn frontier_size<M: CostModel>(model: &M, depth: usize) -> usize {
    (0..depth).fold(1usize, |acc, v| acc.saturating_mul(model.domain(v).len()))
}

/// Decodes work item `k` into the first `depth` slots of `prefix`
/// (mixed radix, variable 0 most significant — so item order is the
/// sequential solver's DFS order over prefixes).
fn decode_prefix<M: CostModel>(model: &M, depth: usize, mut k: usize, prefix: &mut [u32]) {
    for var in (0..depth).rev() {
        let dom = model.domain(var);
        prefix[var] = dom[k % dom.len()];
        k /= dom.len();
    }
}

/// One B&B worker's run: claims prefixes from the shared injector until
/// the frontier drains or the solve stops, accumulating its counters into
/// the solve's stats.
///
/// Each work item starts by *adopting* the shared incumbent — assignment
/// and cost, not just the bound. A leaf beats the adopted incumbent in
/// the slot's own `(cost, assignment)` order (see `Engine::improves`), so
/// adoption saves doomed clones and makes the incumbent's assignment
/// available for budget-stopped items, without perturbing the
/// deterministic result.
fn bb_worker<M: CostModel + Sync>(model: &M, shared: &Shared<'_>) {
    let state = shared.incumbent.state;
    // Counted out even by a panic, so a racing LNS worker always stops.
    let _out = LastOut(shared);
    let mut ws = Workspace::new(model);
    let mut engine = Engine::new(
        model,
        state,
        &mut ws,
        shared.initial_ub,
        |a: &Assignment, c: f64| shared.incumbent.offer(a, c, Winner::BranchAndBound),
    );
    engine.known = shared.known.to_vec();
    let depth = shared.depth;
    let mut prefix = vec![0u32; depth];
    // Worker-local cache of the last adopted incumbent, refreshed only
    // when the lock-free shared cost says something better exists.
    let mut adopted: Option<(Assignment, f64)> = None;
    let worker_started = Instant::now();
    let mut items_claimed = 0u64;
    // Per-thread drain: allocation counters are thread-local, so each
    // worker accounts its own search traffic under the solve phase.
    haxconn_telemetry::alloc::phase(haxconn_telemetry::alloc::PHASE_SOLVE, || loop {
        if state.stopped() {
            break;
        }
        let k = shared.injector.fetch_add(1, Ordering::Relaxed);
        if k >= shared.total_items {
            break;
        }
        items_claimed += 1;
        decode_prefix(model, depth, k, &mut prefix);
        // Swap prefixes through assign/unassign so the model's
        // incremental scratch stays in lockstep with `partial`
        // across work items (pops in reverse order keep the
        // LIFO discipline).
        for var in (0..depth).rev() {
            if engine.ws.partial[var].is_some() {
                engine.unassign(var);
            }
        }
        for (var, &v) in prefix.iter().enumerate() {
            engine.assign(var, v);
        }
        // Adopt the shared incumbent for this work item (assignment and
        // cost). Cross-item pruning still flows through the shared atomic
        // cost; adoption additionally short-circuits local acceptance of
        // candidates the shared slot would reject anyway.
        let shared_cost = state.best_cost();
        if shared_cost.is_finite() {
            let stale = match &adopted {
                Some((_, c)) => shared_cost < *c,
                None => true,
            };
            if stale {
                if let Some(snap) = shared.incumbent.snapshot() {
                    adopted = Some(snap);
                }
            }
        }
        engine.adopt(adopted.clone());
        if engine.dfs(depth) {
            break; // budget exhausted or solve stopped
        }
    });
    let mut st = shared.stats.lock().expect("stats lock");
    st.nodes += engine.nodes;
    st.leaves += engine.leaves;
    st.pruned_infeasible += engine.pruned_infeasible;
    st.pruned_bound += engine.pruned_bound;
    st.pruned_incumbent += engine.pruned_incumbent;
    st.incumbents += engine.incumbents;
    st.workers
        .push((items_claimed, worker_started.elapsed().as_secs_f64() * 1e3));
}

/// What the workers of one solve share: the incumbent, the injector over
/// the frontier, the settled warm start and the totals they add to.
struct Shared<'a> {
    incumbent: SharedIncumbent<'a>,
    injector: AtomicUsize,
    depth: usize,
    total_items: usize,
    initial_ub: Option<f64>,
    known: Vec<Assignment>,
    /// B&B workers still searching; the last one out stops the LNS
    /// workers: either the tree is exhausted (the result is proven,
    /// nothing is left to find) or a budget tripped (stop already raised).
    live_bb: AtomicUsize,
    stats: Mutex<PoolStats>,
    lns: Mutex<LnsStats>,
}

/// Counts one B&B worker out of [`Shared::live_bb`] when dropped.
struct LastOut<'s, 'a>(&'s Shared<'a>);

impl Drop for LastOut<'_, '_> {
    fn drop(&mut self) {
        if self.0.live_bb.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.0.incumbent.state.request_stop();
        }
    }
}

/// Minimizes `model` with a work-stealing worker pool over a depth-`d`
/// frontier (see the module docs for the execution and determinism
/// model), with `par.lns_workers` LNS workers racing beside it. Budgets
/// in `opts` are global across all workers, and the returned trace holds
/// every strict global improvement from either side.
pub fn solve_parallel_with<M: CostModel + Sync>(
    model: &M,
    opts: SolveOptions,
    par: &ParallelOptions,
) -> Solution {
    solve_in(&POOL, model, opts, par)
}

/// [`solve_parallel_with`] on the helpers of `helpers`.
fn solve_in<M: CostModel + Sync>(
    helpers: &Pool,
    model: &M,
    mut opts: SolveOptions,
    par: &ParallelOptions,
) -> Solution {
    let n = model.num_vars();
    for v in 0..n {
        assert!(!model.domain(v).is_empty(), "variable {v} has empty domain");
    }
    if n == 0 {
        return solve(model, opts);
    }
    let threads = match par.threads {
        0 => cpus().saturating_sub(par.lns_workers).max(1),
        t => t,
    };
    let depth = choose_depth(model, threads, par.split_depth);
    let total_items = frontier_size(model, depth);
    let bb_workers = threads.min(total_items);
    let racing = par.lns_workers > 0;

    let started = Instant::now();
    let state = SharedState::new(opts.node_budget, opts.time_budget, opts.initial_upper_bound);
    let incumbent = SharedIncumbent::new(&state, started);
    let mut pool = PoolStats::default();
    // The caller's incumbent and seeds are settled on this thread, inside
    // the solve clock, before any worker starts: the least of them is the
    // shared incumbent, and every worker skips their leaves.
    let mut known = Vec::new();
    if opts.initial_incumbent.is_some() || !opts.seeds.is_empty() {
        let mut ws = Workspace::new(model);
        let mut engine = Engine::new(
            model,
            &state,
            &mut ws,
            opts.initial_upper_bound,
            |_: &Assignment, _: f64| {},
        );
        engine.start_from(opts.initial_incumbent.take(), &opts.seeds);
        pool.leaves = engine.leaves;
        if let Some((a, c)) = engine.local_best.take() {
            incumbent.seed(a, c);
        }
        known = std::mem::take(&mut engine.known);
    }
    let shared = Shared {
        incumbent,
        injector: AtomicUsize::new(0),
        depth,
        total_items,
        initial_ub: opts.initial_upper_bound,
        known,
        live_bb: AtomicUsize::new(bb_workers),
        stats: Mutex::new(pool),
        lns: Mutex::default(),
    };

    // Helper `i` runs B&B worker `i + 1` (the caller is worker 0), then
    // come the LNS workers.
    let task = |i: usize| match (i + 1).checked_sub(bb_workers) {
        None => bb_worker(model, &shared),
        Some(k) => {
            let lns = lns_worker(model, &shared.incumbent, k);
            shared.lns.lock().expect("lns stats lock").merge(&lns);
        }
    };
    helpers.run(bb_workers - 1 + par.lns_workers, &task, || {
        bb_worker(model, &shared)
    });

    let pool = shared.stats.into_inner().expect("stats lock");
    let lns = shared.lns.into_inner().expect("lns stats lock");
    let Slot { best, trace } = shared.incumbent.slot.into_inner().expect("incumbent lock");
    let (best, winner) = match best {
        Some((a, c, src)) => (Some((a, c)), Some(src)),
        None => (None, None),
    };
    let stats = SolveStats {
        nodes: pool.nodes,
        leaves: pool.leaves,
        pruned_infeasible: pool.pruned_infeasible,
        pruned_bound: pool.pruned_bound,
        pruned_incumbent: pool.pruned_incumbent,
        incumbents: pool.incumbents,
        elapsed: started.elapsed(),
        outcome: state.outcome(),
    };
    flush_solve_telemetry("bb.solve_parallel", &stats);
    if haxconn_telemetry::enabled() {
        use haxconn_telemetry as t;
        let elapsed_ms = stats.elapsed.as_secs_f64() * 1e3;
        t::gauge_set("solver.par.workers", pool.workers.len() as f64);
        for &(items, busy_ms) in &pool.workers {
            // Every item after a worker's first is a steal from the
            // shared injector; idle time is the tail a worker spends
            // finished while the slowest worker still runs.
            t::counter_add("solver.par.items", items);
            t::counter_add("solver.par.steals", items.saturating_sub(1));
            t::histogram_record("solver.par.worker_busy_ms", busy_ms);
            t::histogram_record("solver.par.worker_idle_ms", (elapsed_ms - busy_ms).max(0.0));
        }
    }
    if racing {
        if haxconn_telemetry::enabled() {
            for (_, c, at) in &trace {
                let at_ms = at.as_secs_f64() * 1e3;
                haxconn_telemetry::series_record("solver.portfolio.incumbent", at_ms, *c);
            }
        }
        flush_lns_telemetry(&lns, winner);
    }
    Solution {
        best,
        winner,
        stats,
        lns,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bb::BudgetState;
    use crate::model::{brute_force, PartialAssignment};
    use std::panic::AssertUnwindSafe;

    struct Wap {
        weights: Vec<Vec<f64>>,
        diffs: Vec<(usize, usize)>,
    }

    impl CostModel for Wap {
        type Scratch = ();
        fn num_vars(&self) -> usize {
            self.weights.len()
        }
        fn domain(&self, _var: usize) -> &[u32] {
            &[0, 1, 2]
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
                    None => self.weights[i]
                        .iter()
                        .cloned()
                        .fold(f64::INFINITY, f64::min),
                })
                .sum()
        }
    }

    fn instance(seed: u64, n: usize) -> Wap {
        let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 1000) as f64 / 100.0
        };
        Wap {
            weights: (0..n).map(|_| (0..3).map(|_| next()).collect()).collect(),
            diffs: (0..n - 1).map(|i| (i, i + 1)).collect(),
        }
    }

    /// [`Wap`] with its difference constraints also checked on prefixes,
    /// so B&B dives and LNS repairs reach feasible leaves quickly.
    struct Pruning(Wap);

    impl CostModel for Pruning {
        type Scratch = ();
        fn num_vars(&self) -> usize {
            self.0.num_vars()
        }
        fn domain(&self, var: usize) -> &[u32] {
            self.0.domain(var)
        }
        fn cost(&self, a: &Assignment) -> Option<f64> {
            self.0.cost(a)
        }
        fn bound(&self, partial: &PartialAssignment) -> f64 {
            self.0.bound(partial)
        }
        fn prune(&self, partial: &PartialAssignment) -> bool {
            self.0
                .diffs
                .iter()
                .any(|&(i, j)| matches!((partial[i], partial[j]), (Some(a), Some(b)) if a == b))
        }
    }

    fn with_threads(t: usize) -> ParallelOptions {
        ParallelOptions {
            threads: t,
            ..Default::default()
        }
    }

    fn with_lns(lns_workers: usize) -> ParallelOptions {
        ParallelOptions {
            lns_workers,
            ..Default::default()
        }
    }

    /// With or without LNS workers racing, the unbudgeted pool proves the
    /// sequential optimum, cost bits and assignment.
    #[test]
    fn parallel_matches_sequential_and_brute_force() {
        for seed in 0..10 {
            let m = instance(seed, 8);
            let seq = solve(&m, SolveOptions::default());
            let bf = brute_force(&m);
            for lns_workers in [0, 1] {
                let par = solve_parallel_with(&m, SolveOptions::default(), &with_lns(lns_workers));
                assert!(par.proven_optimal(), "seed {seed} lns {lns_workers}");
                match (&seq.best, &par.best, &bf) {
                    (Some((a_seq, c_seq)), Some((a_par, c_par)), Some((_, c_bf))) => {
                        // Bit-identical cost and identical assignment.
                        assert_eq!(c_seq.to_bits(), c_par.to_bits(), "seed {seed}");
                        assert_eq!(a_seq, a_par, "seed {seed} lns {lns_workers}");
                        assert!((c_seq - c_bf).abs() < 1e-9, "seed {seed}");
                    }
                    (None, None, None) => {}
                    other => panic!("seed {seed} lns {lns_workers}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn deterministic_across_thread_counts_and_depths() {
        let m = instance(77, 9);
        let reference = solve_parallel_with(&m, SolveOptions::default(), &with_threads(1));
        let (ref_a, ref_c) = reference.best.unwrap();
        for threads in [2, 4, 8] {
            for depth in [0, 1, 2, 4] {
                let sol = solve_parallel_with(
                    &m,
                    SolveOptions::default(),
                    &ParallelOptions {
                        threads,
                        split_depth: Some(depth),
                        lns_workers: 0,
                    },
                );
                let (a, c) = sol.best.unwrap();
                assert_eq!(a, ref_a, "threads {threads} depth {depth}");
                assert_eq!(
                    c.to_bits(),
                    ref_c.to_bits(),
                    "threads {threads} depth {depth}"
                );
            }
        }
    }

    #[test]
    fn node_budget_is_global_not_per_subtree() {
        let m = instance(7, 12);
        let sol = solve_parallel_with(
            &m,
            SolveOptions {
                node_budget: Some(500),
                ..Default::default()
            },
            &with_threads(4),
        );
        assert_eq!(sol.stats.outcome, BudgetState::NodesExhausted);
        // The whole pool together never exceeds the budget (the old
        // root-splitting solver spent budget × num_subtrees).
        assert!(sol.stats.nodes <= 500, "spent {}", sol.stats.nodes);
    }

    /// The trace holds strict global improvements from either side of
    /// the race, in order.
    #[test]
    fn traces_are_monotone_and_reach_the_optimum() {
        let m = instance(3, 9);
        let bf = brute_force(&m).unwrap().1;
        for lns_workers in [0, 1] {
            let sol = solve_parallel_with(
                &m,
                SolveOptions::default(),
                &ParallelOptions {
                    threads: 4,
                    lns_workers,
                    ..Default::default()
                },
            );
            assert!(sol.proven_optimal());
            let best = sol.best.unwrap().1;
            let seen = &sol.trace;
            assert!(!seen.is_empty());
            for w in seen.windows(2) {
                assert!(w[1].1 < w[0].1 - 1e-12, "costs must strictly decrease");
                assert!(w[1].2 >= w[0].2, "timestamps must be monotone");
            }
            assert_eq!(seen.last().unwrap().1.to_bits(), best.to_bits());
            assert!((best - bf).abs() < 1e-9, "lns {lns_workers}");
        }
    }

    #[test]
    fn infeasible_instance() {
        let m = Wap {
            weights: vec![vec![1.0; 3], vec![1.0; 3]],
            diffs: vec![(0, 1), (1, 0)],
        };
        // Make it truly infeasible: same-value constraint both ways plus a
        // domain of one shared value.
        struct OneValue(Wap);
        impl CostModel for OneValue {
            type Scratch = ();
            fn num_vars(&self) -> usize {
                self.0.num_vars()
            }
            fn domain(&self, _v: usize) -> &[u32] {
                &[1]
            }
            fn cost(&self, a: &Assignment) -> Option<f64> {
                self.0.cost(a)
            }
        }
        let m = OneValue(m);
        for lns_workers in [0, 2] {
            let par = solve_parallel_with(&m, SolveOptions::default(), &with_lns(lns_workers));
            assert!(par.best.is_none());
            assert!(par.proven_optimal());
            assert_eq!(par.winner, None);
        }
    }

    #[test]
    fn warm_upper_bound_respected() {
        let m = instance(5, 7);
        let opt = solve(&m, SolveOptions::default()).best.unwrap().1;
        // A warm bound below the optimum prunes everything away.
        let par = solve_parallel_with(
            &m,
            SolveOptions {
                initial_upper_bound: Some(opt - 1.0),
                ..Default::default()
            },
            &with_threads(0),
        );
        assert!(par.best.is_none());
        // At the optimum + epsilon, it finds the optimum.
        let par = solve_parallel_with(
            &m,
            SolveOptions {
                initial_upper_bound: Some(opt + 1e-6),
                ..Default::default()
            },
            &with_threads(0),
        );
        assert!((par.best.unwrap().1 - opt).abs() < 1e-9);
    }

    /// Regression: a worker that observes a better shared incumbent must
    /// adopt its *assignment*, not just prune on its cost. Before the fix
    /// a budget-stopped solve seeded via `initial_incumbent` returned
    /// `None` — the seed's cost pruned everything, but no worker ever
    /// held the seed's assignment.
    #[test]
    fn seeded_incumbent_assignment_survives_a_starved_search() {
        let m = instance(5, 10);
        let opt = solve(&m, SolveOptions::default()).best.unwrap();
        let sol = solve_parallel_with(
            &m,
            SolveOptions {
                node_budget: Some(1),
                initial_incumbent: Some(opt.clone()),
                ..Default::default()
            },
            &with_threads(2),
        );
        assert_eq!(sol.stats.outcome, BudgetState::NodesExhausted);
        let (a, c) = sol.best.expect("seed must survive");
        assert_eq!(a, opt.0);
        assert_eq!(c.to_bits(), opt.1.to_bits());
    }

    /// Seeding a *suboptimal* incumbent neither changes the final result
    /// nor its determinism.
    #[test]
    fn suboptimal_seed_does_not_perturb_the_optimum() {
        let m = instance(5, 10);
        let opt = solve(&m, SolveOptions::default()).best.unwrap();
        let alt: Assignment = (0..10).map(|i| (i % 2) as u32).collect();
        let alt_c = m.cost(&alt).expect("alternating assignment is feasible");
        assert!(alt_c > opt.1);
        let sol = solve_parallel_with(
            &m,
            SolveOptions {
                initial_incumbent: Some((alt, alt_c)),
                ..Default::default()
            },
            &with_threads(4),
        );
        assert!(sol.proven_optimal());
        let (a, c) = sol.best.unwrap();
        assert_eq!(a, opt.0);
        assert_eq!(c.to_bits(), opt.1.to_bits());
    }

    #[test]
    fn split_deeper_than_tree_is_fine() {
        let m = instance(2, 3);
        let sol = solve_parallel_with(
            &m,
            SolveOptions::default(),
            &ParallelOptions {
                threads: 4,
                split_depth: Some(10), // clamped to num_vars: items are leaves
                lns_workers: 0,
            },
        );
        let bf = brute_force(&m).unwrap().1;
        assert!(sol.proven_optimal());
        assert!((sol.best.unwrap().1 - bf).abs() < 1e-9);
    }

    #[test]
    fn lns_race_result_is_the_same_across_worker_configurations() {
        let m = Pruning(instance(42, 9));
        let reference = solve(&m, SolveOptions::default()).best.unwrap();
        for (threads, lns_workers) in [(1, 1), (2, 2), (4, 1), (2, 3)] {
            let sol = solve_parallel_with(
                &m,
                SolveOptions::default(),
                &ParallelOptions {
                    threads,
                    lns_workers,
                    ..Default::default()
                },
            );
            assert!(sol.proven_optimal());
            let (a, c) = sol.best.unwrap();
            assert_eq!(a, reference.0, "threads {threads} lns {lns_workers}");
            assert_eq!(
                c.to_bits(),
                reference.1.to_bits(),
                "threads {threads} lns {lns_workers}"
            );
        }
    }

    #[test]
    fn budget_trip_in_the_race_returns_an_unproven_solution() {
        let m = Pruning(instance(7, 14));
        let sol = solve_parallel_with(
            &m,
            SolveOptions {
                node_budget: Some(300),
                ..Default::default()
            },
            &ParallelOptions {
                threads: 2,
                lns_workers: 2,
                ..Default::default()
            },
        );
        assert_eq!(sol.stats.outcome, BudgetState::NodesExhausted);
        assert!(!sol.proven_optimal());
        // A 300-node dive on this easy instance reaches feasible leaves.
        let (a, c) = sol.best.expect("expected an incumbent");
        assert!((m.cost(&a).unwrap() - c).abs() < 1e-9);
        assert!(sol.winner.is_some());
    }

    /// [`Pruning`] with a bound of 0 on a prefix and of infinity on a
    /// complete assignment: the B&B workers walk the whole tree but cut
    /// every leaf before costing it, while the LNS workers, which bound
    /// no complete assignment, cost theirs.
    struct Leafless(Pruning);

    impl CostModel for Leafless {
        type Scratch = ();
        fn num_vars(&self) -> usize {
            self.0.num_vars()
        }
        fn domain(&self, var: usize) -> &[u32] {
            self.0.domain(var)
        }
        fn cost(&self, a: &Assignment) -> Option<f64> {
            self.0.cost(a)
        }
        fn bound(&self, partial: &PartialAssignment) -> f64 {
            match partial.iter().all(|v| v.is_some()) {
                true => f64::INFINITY,
                false => 0.0,
            }
        }
        fn prune(&self, partial: &PartialAssignment) -> bool {
            self.0.prune(partial)
        }
    }

    #[test]
    fn lns_is_the_winner_when_bb_is_starved() {
        // B&B reaches no leaf of a 3·2^23-leaf tree within the time
        // budget, but keeps the race going: any incumbent is LNS's.
        let m = Leafless(Pruning(instance(3, 24)));
        let sol = solve_parallel_with(
            &m,
            SolveOptions {
                time_budget: Some(Duration::from_millis(100)),
                ..Default::default()
            },
            &ParallelOptions {
                threads: 1,
                lns_workers: 2,
                ..Default::default()
            },
        );
        assert_eq!(sol.stats.outcome, BudgetState::TimeExhausted);
        assert_eq!(sol.stats.leaves, 0);
        let (a, c) = sol.best.expect("LNS finds a feasible assignment");
        assert_eq!(m.cost(&a).map(f64::to_bits), Some(c.to_bits()));
        assert_eq!(sol.winner, Some(Winner::Lns));
        assert!(sol.lns.iters > 0 && sol.lns.incumbents > 0);
    }

    /// [`Wap`] recording every assignment it is asked to cost.
    struct Counting<'m> {
        inner: &'m Wap,
        costed: Mutex<Vec<Assignment>>,
    }

    impl CostModel for Counting<'_> {
        type Scratch = ();
        fn num_vars(&self) -> usize {
            self.inner.num_vars()
        }
        fn domain(&self, var: usize) -> &[u32] {
            self.inner.domain(var)
        }
        fn cost(&self, a: &Assignment) -> Option<f64> {
            self.costed.lock().unwrap().push(a.clone());
            self.inner.cost(a)
        }
        fn bound(&self, partial: &PartialAssignment) -> f64 {
            self.inner.bound(partial)
        }
    }

    /// Seeds are costed once, when they are scored, and the warm-start
    /// incumbent never: the search skips both leaves, on either driver.
    /// The optimum is among the seeds, so it is adopted before the search
    /// and its leaf is reached (bound below the adopted cost + `EPS`) but
    /// not evaluated again.
    #[test]
    fn seed_leaves_are_never_costed_by_the_search() {
        let m = instance(5, 10);
        let opt = solve(&m, SolveOptions::default()).best.unwrap();
        let pattern = |k: usize| -> Assignment { (0..10).map(|i| ((i + k) % 3) as u32).collect() };
        let warm: Assignment = (0..10).map(|i| (i % 2) as u32).collect();
        let warm_c = m.cost(&warm).expect("alternating assignment is feasible");
        let seeds = vec![
            pattern(0),
            opt.0.clone(),
            pattern(1),
            warm.clone(),
            opt.0.clone(),
        ];
        for threads in [1, 2] {
            let model = Counting {
                inner: &m,
                costed: Mutex::new(Vec::new()),
            };
            let opts = SolveOptions {
                initial_incumbent: Some((warm.clone(), warm_c)),
                seeds: seeds.clone(),
                ..Default::default()
            };
            let sol = match threads {
                1 => solve(&model, opts),
                t => solve_parallel_with(&model, opts, &with_threads(t)),
            };
            assert!(sol.proven_optimal());
            assert_eq!(sol.winner, Some(Winner::Seed), "threads {threads}");
            let (a, c) = sol.best.unwrap();
            assert_eq!(a, opt.0);
            assert_eq!(c.to_bits(), opt.1.to_bits());
            let costed = model.costed.into_inner().unwrap();
            let times = |x: &Assignment| costed.iter().filter(|&c| c == x).count();
            assert_eq!(times(&warm), 0, "threads {threads}");
            assert_eq!(times(&opt.0), 1, "threads {threads}");
            assert_eq!(times(&pattern(0)), 1, "threads {threads}");
            assert!(times(&pattern(1)) <= 1, "threads {threads}");
        }
    }

    /// [`Wap`] whose `cost` panics on any thread but `caller`. The
    /// caller's first `cost` call waits (up to 10 s) for a helper to get
    /// that far, so a helper surely panics even on one CPU.
    struct PanicsOffCaller {
        inner: Wap,
        caller: std::thread::ThreadId,
        helper_in: std::sync::atomic::AtomicBool,
    }

    impl CostModel for PanicsOffCaller {
        type Scratch = ();
        fn num_vars(&self) -> usize {
            self.inner.num_vars()
        }
        fn domain(&self, var: usize) -> &[u32] {
            self.inner.domain(var)
        }
        fn cost(&self, a: &Assignment) -> Option<f64> {
            if std::thread::current().id() != self.caller {
                self.helper_in.store(true, Ordering::Release);
                panic!("cost model panics off the calling thread");
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            while !self.helper_in.load(Ordering::Acquire) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            self.inner.cost(a)
        }
        fn bound(&self, partial: &PartialAssignment) -> f64 {
            self.inner.bound(partial)
        }
    }

    /// A helper's panic reaches the caller, and the helper survives it:
    /// the next solve reuses it and returns the sequential optimum.
    #[test]
    fn a_helper_panic_is_raised_in_the_caller_and_the_pool_survives() {
        let pool = Pool::new();
        let m = PanicsOffCaller {
            inner: instance(11, 10),
            caller: std::thread::current().id(),
            helper_in: Default::default(),
        };
        let raised = std::panic::catch_unwind(AssertUnwindSafe(|| {
            solve_in(&pool, &m, SolveOptions::default(), &with_threads(2))
        }));
        assert!(raised.is_err(), "the helper's panic must reach the caller");
        assert!(m.helper_in.load(Ordering::Acquire));
        let seq = solve(&m.inner, SolveOptions::default()).best.unwrap();
        let (a, c) = solve_in(&pool, &m.inner, SolveOptions::default(), &with_threads(2))
            .best
            .unwrap();
        assert_eq!((a, c.to_bits()), (seq.0, seq.1.to_bits()));
        assert_eq!(pool.spawned(), 1, "the panicked helper is reused");
    }

    /// Back-to-back solves wake the parked helper the first one spawned:
    /// no later solve starts a thread.
    #[test]
    fn back_to_back_parallel_solves_spawn_no_thread_after_the_first() {
        let pool = Pool::new();
        let m = instance(13, 10);
        let seq = solve(&m, SolveOptions::default()).best.unwrap();
        for i in 0..500 {
            let (a, c) = solve_in(&pool, &m, SolveOptions::default(), &with_threads(2))
                .best
                .unwrap();
            assert_eq!((&a, c.to_bits()), (&seq.0, seq.1.to_bits()), "solve {i}");
            assert_eq!(pool.spawned(), 1, "solve {i}");
        }
    }

    #[test]
    fn seed_is_the_winner_when_nothing_beats_it() {
        let m = Pruning(instance(9, 8));
        let opt = solve(&m, SolveOptions::default()).best.unwrap();
        let sol = solve_parallel_with(
            &m,
            SolveOptions {
                initial_incumbent: Some(opt.clone()),
                ..Default::default()
            },
            &with_lns(1),
        );
        // The seed IS the optimum: nothing can strictly beat it, and an
        // equal-cost re-find of the same assignment does not precede it in
        // the slot's `(cost, assignment)` order, so the seed stays.
        assert!(sol.proven_optimal());
        let (a, c) = sol.best.unwrap();
        assert_eq!(a, opt.0);
        assert_eq!(c.to_bits(), opt.1.to_bits());
        assert_eq!(sol.winner, Some(Winner::Seed));
    }
}
