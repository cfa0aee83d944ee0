//! Large-neighborhood search with simulated-annealing acceptance.
//!
//! The heuristic side of the worker pool (`crate::parallel`): when
//! [`crate::ParallelOptions::lns_workers`] is set, each LNS worker walks
//! the space of *complete* assignments by destroy-and-repair moves,
//! speaking the same incremental push/pop protocol as the B&B engine — a
//! move pops the LIFO stack down to the destroyed segment, re-pushes
//! randomized values for it, and repairs the suffix forward (old value
//! first), pruning dead prefixes with `prune_with` exactly like the tree
//! search does. The model's incremental scratch therefore amortizes move
//! evaluation the same way it amortizes node evaluation in B&B.
//!
//! Coupling to the B&B workers is symmetric and lock-free on the hot path:
//!
//! * every strict local improvement is offered to the shared incumbent
//!   (`crate::parallel::SharedIncumbent`), where it tightens the bound
//!   every B&B worker prunes against;
//! * whenever the shared incumbent (from B&B, a seed, or a sibling LNS
//!   worker) beats everything this worker has seen, the worker *reseeds*:
//!   it adopts the shared assignment as its current solution and searches
//!   the neighborhood around it.
//!
//! LNS alone proves nothing — it only ever returns feasible-and-best-found.
//! Certification is the B&B workers' job (exhausting the frontier); the
//! pool stops its LNS workers when the last B&B worker exits.

use crate::bb::{SharedState, Winner, EPS};
use crate::model::{Assignment, CostModel};
use crate::parallel::SharedIncumbent;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Base RNG seed; LNS worker `k` runs with `SEED + k`.
const SEED: u64 = 0x5EED;

/// Largest destroyed segment (variables re-randomized per move).
const DESTROY_MAX: usize = 4;

/// Restart (re-anchor at the best known solution, reheat the temperature)
/// after this many non-improving moves.
const REHEAT_AFTER: u64 = 256;

/// What one (or a pool of) LNS worker(s) did.
#[derive(Debug, Clone, Copy, Default)]
pub struct LnsStats {
    /// Moves attempted (including failed repairs).
    pub iters: u64,
    /// Moves accepted by the annealing criterion.
    pub accepts: u64,
    /// Restarts: reheats after a non-improving streak plus reseeds from
    /// the shared incumbent.
    pub restarts: u64,
    /// Strict local improvements offered to the shared incumbent.
    pub incumbents: u64,
    /// Wall time spent.
    pub elapsed: Duration,
}

impl LnsStats {
    /// Accumulates another worker's totals (elapsed takes the max — the
    /// workers ran concurrently).
    pub(crate) fn merge(&mut self, other: &LnsStats) {
        self.iters += other.iters;
        self.accepts += other.accepts;
        self.restarts += other.restarts;
        self.incumbents += other.incumbents;
        self.elapsed = self.elapsed.max(other.elapsed);
    }
}

/// Flushes the LNS counters and the race's winner to the global telemetry
/// recorder. Called once per solve that ran LNS workers (never per
/// iteration), so disabled cost is one relaxed load.
pub(crate) fn flush_lns_telemetry(stats: &LnsStats, winner: Option<Winner>) {
    if !haxconn_telemetry::enabled() {
        return;
    }
    use haxconn_telemetry as t;
    t::counter_add("solver.lns.iters", stats.iters);
    t::counter_add("solver.lns.accepts", stats.accepts);
    t::counter_add("solver.lns.restarts", stats.restarts);
    t::counter_add("solver.lns.incumbents", stats.incumbents);
    let name = match winner {
        Some(Winner::BranchAndBound) => "solver.portfolio.winner.bb",
        Some(Winner::Lns) => "solver.portfolio.winner.lns",
        Some(Winner::Seed) => "solver.portfolio.winner.seed",
        None => return,
    };
    t::counter_add(name, 1);
}

/// xorshift64* — deterministic, seedable, no dependencies.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15 | 1)
    }

    #[inline]
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    #[inline]
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn shuffle(&mut self, v: &mut [u32]) {
        for k in (1..v.len()).rev() {
            let r = self.below(k + 1);
            v.swap(k, r);
        }
    }
}

/// The worker's view of the model: a LIFO stack of assigned values kept
/// in lockstep with the model's incremental scratch and a mirror
/// `PartialAssignment` for the `_with` evaluators.
struct Walker<'a, M: CostModel> {
    model: &'a M,
    inc: M::Scratch,
    partial: Vec<Option<u32>>,
    stack: Vec<u32>,
}

impl<'a, M: CostModel> Walker<'a, M> {
    fn new(model: &'a M) -> Self {
        Walker {
            model,
            inc: model.new_scratch(),
            partial: vec![None; model.num_vars()],
            stack: Vec::with_capacity(model.num_vars()),
        }
    }

    #[inline]
    fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Assigns the next variable (prefix discipline: always `depth()`).
    #[inline]
    fn push(&mut self, value: u32) {
        let var = self.stack.len();
        self.partial[var] = Some(value);
        self.model.push(&mut self.inc, var, value);
        self.stack.push(value);
    }

    /// Pops down to `depth` variables, preserving LIFO order.
    fn pop_to(&mut self, depth: usize) {
        while self.stack.len() > depth {
            let var = self.stack.len() - 1;
            self.model.pop(&mut self.inc, var);
            self.partial[var] = None;
            self.stack.pop();
        }
    }

    #[inline]
    fn pruned(&self) -> bool {
        self.model.prune_with(&self.inc, &self.partial)
    }

    /// Cost of the complete assignment on the stack (`None` = infeasible).
    fn cost(&mut self, buf: &mut Assignment) -> Option<f64> {
        buf.clear();
        buf.extend_from_slice(&self.stack);
        self.model.cost_with(&mut self.inc, buf)
    }

    /// Replaces the whole stack with `a`.
    fn rebase(&mut self, a: &[u32]) {
        self.pop_to(0);
        for &v in a {
            self.push(v);
        }
    }

    /// Restores `reference[from..]` after a failed or rejected move.
    fn restore(&mut self, reference: &[u32], from: usize) {
        self.pop_to(from);
        for &v in &reference[from..] {
            self.push(v);
        }
    }
}

/// Initial annealing temperature, scaled to the incumbent's magnitude so
/// the acceptance probability is meaningful for both latency costs
/// (milliseconds) and throughput costs (large negative sums).
fn init_temp(cost: f64) -> f64 {
    (cost.abs() * 0.05).max(1e-3)
}

/// Builds a feasible complete assignment from nothing: up to a few
/// attempts of forward construction, the first bound-guided (when
/// `greedy`), later ones randomized. Leaves the walker holding the
/// returned assignment (or empty on failure).
fn construct<M: CostModel>(
    model: &M,
    w: &mut Walker<'_, M>,
    rng: &mut Rng,
    greedy: bool,
    order: &mut Vec<u32>,
    buf: &mut Assignment,
) -> Option<(Assignment, f64)> {
    let n = model.num_vars();
    'attempt: for attempt in 0..8 {
        w.pop_to(0);
        for var in 0..n {
            order.clear();
            order.extend_from_slice(model.domain(var));
            if greedy && attempt == 0 {
                // Keyed stable insertion sort by the bound each value
                // induces (domains are #PU-sized).
                let mut keyed: Vec<(f64, u32)> = order
                    .iter()
                    .map(|&v| {
                        w.push(v);
                        let key = if w.pruned() {
                            f64::INFINITY
                        } else {
                            model.bound_with(&w.inc, &w.partial)
                        };
                        w.pop_to(var);
                        (key, v)
                    })
                    .collect();
                for i in 1..keyed.len() {
                    let mut j = i;
                    while j > 0 && keyed[j - 1].0 > keyed[j].0 {
                        keyed.swap(j - 1, j);
                        j -= 1;
                    }
                }
                order.clear();
                order.extend(keyed.into_iter().map(|(_, v)| v));
            } else if attempt > 0 {
                rng.shuffle(order);
            }
            let before = w.depth();
            let mut placed = false;
            for &v in order.iter() {
                w.push(v);
                if !w.pruned() {
                    placed = true;
                    break;
                }
                w.pop_to(before);
            }
            if !placed {
                continue 'attempt;
            }
        }
        if let Some(c) = w.cost(buf) {
            return Some((w.stack.clone(), c));
        }
    }
    w.pop_to(0);
    None
}

/// One destroy-and-repair move: re-randomize `cur[i..j]`, repair the
/// suffix forward (old value first, domain order after). Returns the
/// candidate (left on the walker) or `None` (walker restored to `cur`).
#[allow(clippy::too_many_arguments)] // scratch buffers threaded explicitly
fn rebuild<M: CostModel>(
    model: &M,
    w: &mut Walker<'_, M>,
    rng: &mut Rng,
    cur: &[u32],
    i: usize,
    j: usize,
    order: &mut Vec<u32>,
    buf: &mut Assignment,
) -> Option<(Assignment, f64)> {
    let n = cur.len();
    w.pop_to(i);
    for var in i..n {
        order.clear();
        if var < j {
            order.extend_from_slice(model.domain(var));
            rng.shuffle(order);
        } else {
            order.push(cur[var]);
            order.extend(model.domain(var).iter().copied().filter(|&v| v != cur[var]));
        }
        let before = w.depth();
        let mut placed = false;
        for &v in order.iter() {
            w.push(v);
            if !w.pruned() {
                placed = true;
                break;
            }
            w.pop_to(before);
        }
        if !placed {
            w.restore(cur, i);
            return None;
        }
    }
    match w.cost(buf) {
        Some(c) => Some((w.stack.clone(), c)),
        None => {
            w.restore(cur, i);
            None
        }
    }
}

/// Runs LNS worker `k` until the shared solve stops (a budget trip, or
/// the last B&B worker exiting). Worker 0 starts from a bound-guided
/// construction, the rest from random constructions for diversity.
pub(crate) fn lns_worker<M: CostModel>(
    model: &M,
    incumbent: &SharedIncumbent<'_>,
    tx: &mpsc::Sender<(Assignment, f64, Duration)>,
    k: usize,
) -> LnsStats {
    let state: &SharedState = incumbent.state;
    let n = model.num_vars();
    let started = Instant::now();
    let mut stats = LnsStats::default();
    if n == 0 {
        return stats;
    }
    let greedy_start = k == 0;
    let mut rng = Rng::new(SEED.wrapping_add(k as u64));
    let mut w = Walker::new(model);
    let mut order: Vec<u32> = Vec::new();
    let mut buf: Assignment = Vec::new();
    let mut cur: Option<(Assignment, f64)> = None;
    // Best cost this worker has ever seen (shared or own) — the reseed
    // trigger and the improvement threshold for offers.
    let mut local_best = f64::INFINITY;
    let mut t0 = 0.0f64;
    let mut temp = 0.0f64;
    let mut non_improving = 0u64;

    // Per-thread drain: allocation counters are thread-local, so each LNS
    // worker accounts its destroy/repair traffic under the repair phase.
    haxconn_telemetry::alloc::phase(haxconn_telemetry::alloc::PHASE_LNS_REPAIR, || loop {
        if state.stopped() {
            break;
        }
        if stats.iters & 63 == 0 && state.time_up() {
            break;
        }
        stats.iters += 1;

        // Reseed: someone (B&B, the seed, a sibling) knows a strictly
        // better solution — search its neighborhood instead. The atomic
        // gate keeps the mutex off the common path.
        if state.best_cost() < local_best - EPS {
            if let Some((a, c)) = incumbent.snapshot() {
                if c < local_best - EPS {
                    w.rebase(&a);
                    local_best = c;
                    cur = Some((a, c));
                    if t0 == 0.0 {
                        t0 = init_temp(c);
                    }
                    temp = t0;
                    stats.restarts += 1;
                    non_improving = 0;
                }
            }
        }

        let Some((mut cur_a, cur_c)) = cur.take() else {
            // No current solution yet: construct one.
            if let Some((a, c)) =
                construct(model, &mut w, &mut rng, greedy_start, &mut order, &mut buf)
            {
                if c < local_best - EPS {
                    local_best = c;
                    incumbent.offer(&a, c, Winner::Lns, tx);
                    stats.incumbents += 1;
                }
                t0 = init_temp(c);
                temp = t0;
                cur = Some((a, c));
            }
            continue;
        };

        // Destroy a random segment and repair.
        let i = rng.below(n);
        let j = (i + 1 + rng.below(DESTROY_MAX)).min(n);
        let mut cur_c = cur_c;
        match rebuild(model, &mut w, &mut rng, &cur_a, i, j, &mut order, &mut buf) {
            Some((cand, c)) => {
                if c < local_best - EPS {
                    local_best = c;
                    incumbent.offer(&cand, c, Winner::Lns, tx);
                    stats.incumbents += 1;
                    non_improving = 0;
                } else {
                    non_improving += 1;
                }
                let delta = c - cur_c;
                if delta < -EPS || rng.unit() < (-delta / temp.max(1e-12)).exp() {
                    cur_a = cand;
                    cur_c = c;
                    stats.accepts += 1;
                } else {
                    w.restore(&cur_a, i);
                }
            }
            None => {
                non_improving += 1;
            }
        }
        temp = (temp * 0.995).max(t0 * 1e-3);
        if non_improving >= REHEAT_AFTER {
            // Reheat and re-anchor at the best known solution.
            temp = t0;
            stats.restarts += 1;
            non_improving = 0;
            if let Some((a, c)) = incumbent.snapshot() {
                if c < cur_c - EPS {
                    w.rebase(&a);
                    cur_a = a;
                    cur_c = c;
                }
            }
        }
        cur = Some((cur_a, cur_c));
    });
    stats.elapsed = started.elapsed();
    stats
}
