//! Property-based validation of the constraint solver: sequential vs
//! brute force, and — the load-bearing one — parallel vs sequential
//! equivalence across thread counts and split depths.
//!
//! Previously written with `proptest`; the offline build environment
//! cannot fetch external crates (README § Offline builds), so the same
//! properties are sampled with a deterministic xorshift generator —
//! every run checks identical pseudo-random cases.

use haxconn::core::encoding::ScheduleEncoding;
use haxconn::dnn::Model;
use haxconn::prelude::*;
use haxconn::profiler::grouping::{partition, valid_cuts};
use haxconn::solver::{
    brute_force, solve, solve_parallel_with, Assignment, BudgetState, CostModel, NonIncremental,
    ParallelOptions, Solution, SolveOptions, Winner,
};

/// Deterministic xorshift64* generator for property sampling.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[lo, hi)`.
    fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    /// Uniform in `[lo, hi)`.
    fn usize(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo)
    }
}

/// A random weighted-assignment instance with pairwise difference
/// constraints (structurally the same shape as the scheduling encoding:
/// per-variable costs + pair constraints). Implements the full incremental
/// protocol, so these properties exercise the engine's push/pop wiring with
/// a genuinely stateful scratch.
#[derive(Debug, Clone)]
struct Instance {
    weights: Vec<Vec<f64>>,
    diffs: Vec<(usize, usize)>,
}

/// Delta-maintained state for [`Instance`]: the weighted lower-bound sum
/// (saved-value restore on pop, so no floating-point drift) and the number
/// of violated difference pairs (exact integers).
#[derive(Default)]
struct InstScratch {
    sum: f64,
    min_w: Vec<f64>,
    saved: Vec<f64>,
    vals: Vec<u32>,
    assigned: Vec<bool>,
    conflicts: usize,
}

impl Instance {
    /// Violated-pair delta of assigning (or, under LIFO, unassigning)
    /// `var = value`.
    fn conflict_delta(&self, scratch: &InstScratch, var: usize, value: u32) -> usize {
        self.diffs
            .iter()
            .filter(|&&(i, j)| {
                let other = if i == var {
                    j
                } else if j == var {
                    i
                } else {
                    return false;
                };
                scratch.assigned[other] && scratch.vals[other] == value
            })
            .count()
    }
}

impl CostModel for Instance {
    type Scratch = InstScratch;

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
    fn bound(&self, partial: &[Option<u32>]) -> f64 {
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
    fn prune(&self, partial: &[Option<u32>]) -> bool {
        self.diffs
            .iter()
            .any(|&(i, j)| matches!((partial[i], partial[j]), (Some(a), Some(b)) if a == b))
    }

    fn new_scratch(&self) -> InstScratch {
        let n = self.num_vars();
        let min_w: Vec<f64> = self
            .weights
            .iter()
            .map(|w| w.iter().cloned().fold(f64::INFINITY, f64::min))
            .collect();
        InstScratch {
            sum: min_w.iter().sum(),
            min_w,
            saved: vec![0.0; n],
            vals: vec![0; n],
            assigned: vec![false; n],
            conflicts: 0,
        }
    }
    fn push(&self, scratch: &mut InstScratch, var: usize, value: u32) {
        scratch.conflicts += self.conflict_delta(scratch, var, value);
        scratch.saved[var] = scratch.sum;
        scratch.sum += self.weights[var][value as usize] - scratch.min_w[var];
        scratch.vals[var] = value;
        scratch.assigned[var] = true;
    }
    fn pop(&self, scratch: &mut InstScratch, var: usize) {
        scratch.assigned[var] = false;
        scratch.sum = scratch.saved[var];
        scratch.conflicts -= self.conflict_delta(scratch, var, scratch.vals[var]);
    }
    fn prune_with(&self, scratch: &InstScratch, _partial: &[Option<u32>]) -> bool {
        scratch.conflicts > 0
    }
    fn bound_with(&self, scratch: &InstScratch, _partial: &[Option<u32>]) -> f64 {
        scratch.sum
    }
}

/// Samples a Wap-style instance: 2–8 variables, up to 3 difference
/// constraints.
fn arb_instance(rng: &mut Rng) -> Instance {
    let n = rng.usize(2, 9);
    let weights = (0..n)
        .map(|_| (0..3).map(|_| rng.f64(0.0, 10.0)).collect())
        .collect();
    let diffs = (0..rng.usize(0, 4))
        .map(|_| (rng.usize(0, n), rng.usize(0, n)))
        .filter(|(i, j)| i != j)
        .collect();
    Instance { weights, diffs }
}

/// Branch & bound finds exactly the brute-force optimum (or proves
/// infeasibility) on random instances.
#[test]
fn bb_matches_brute_force() {
    let mut rng = Rng::new(1);
    for case in 0..64 {
        let inst = arb_instance(&mut rng);
        let bb = solve(&inst, SolveOptions::default());
        assert!(bb.proven_optimal(), "case {case}");
        let bf = brute_force(&inst);
        match (bf, bb.best) {
            (Some((_, c_bf)), Some((a, c_bb))) => {
                assert!((c_bf - c_bb).abs() < 1e-9, "case {case}: {c_bf} vs {c_bb}");
                // The returned assignment really has that cost.
                assert!((inst.cost(&a).unwrap() - c_bb).abs() < 1e-9, "case {case}");
            }
            (None, None) => {}
            (bf, bb) => panic!("case {case}: disagree: {bf:?} vs {:?}", bb.map(|b| b.1)),
        }
    }
}

/// The parallel solver is an *exact drop-in* for the sequential one:
/// across random instances, thread counts, and split depths it returns a
/// bit-identical optimal cost and the identical (lexicographically
/// tie-broken) assignment, independent of scheduling timing.
#[test]
fn parallel_equals_sequential_everywhere() {
    let mut rng = Rng::new(42);
    for case in 0..32 {
        let inst = arb_instance(&mut rng);
        let seq = solve(&inst, SolveOptions::default());
        let n = inst.num_vars();
        for threads in [1, 2, 4, 8] {
            // Exercise explicit split depths around interesting spots
            // (root split, mid-tree, all-leaves) plus the auto choice.
            for depth in [Some(0), Some(1), Some(n / 2), Some(n), None] {
                let par = solve_parallel_with(
                    &inst,
                    SolveOptions::default(),
                    &ParallelOptions {
                        threads,
                        split_depth: depth,
                        lns_workers: 0,
                    },
                );
                assert!(par.proven_optimal(), "case {case} t{threads} d{depth:?}");
                match (&seq.best, &par.best) {
                    (Some((a_seq, c_seq)), Some((a_par, c_par))) => {
                        assert_eq!(
                            c_seq.to_bits(),
                            c_par.to_bits(),
                            "case {case} t{threads} d{depth:?}: {c_seq} vs {c_par}"
                        );
                        assert_eq!(a_seq, a_par, "case {case} t{threads} d{depth:?}");
                    }
                    (None, None) => {}
                    other => {
                        panic!("case {case} t{threads} d{depth:?}: {other:?}")
                    }
                }
            }
        }
    }
}

/// Costs that tie exactly or differ by less than 1e-12: every weight is
/// an integer plus a multiple of 3e-13. The bound sums the same terms in
/// the same order as the cost, each no larger, so it is admissible to the
/// bit and never prunes a winning leaf by rounding.
struct NearTies {
    weights: Vec<Vec<f64>>,
    diffs: Vec<(usize, usize)>,
}

impl CostModel for NearTies {
    type Scratch = ();
    fn num_vars(&self) -> usize {
        self.weights.len()
    }
    fn domain(&self, _var: usize) -> &[u32] {
        &[0, 1, 2]
    }
    fn cost(&self, a: &Assignment) -> Option<f64> {
        if self.diffs.iter().any(|&(i, j)| a[i] == a[j]) {
            return None;
        }
        Some(
            a.iter()
                .enumerate()
                .map(|(i, &v)| self.weights[i][v as usize])
                .sum(),
        )
    }
    fn bound(&self, partial: &[Option<u32>]) -> f64 {
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
    fn prune(&self, partial: &[Option<u32>]) -> bool {
        self.diffs
            .iter()
            .any(|&(i, j)| matches!((partial[i], partial[j]), (Some(a), Some(b)) if a == b))
    }
}

fn arb_near_ties(rng: &mut Rng) -> NearTies {
    let n = rng.usize(3, 8);
    let weights = (0..n)
        .map(|_| {
            (0..3)
                .map(|_| rng.usize(1, 3) as f64 + rng.usize(0, 3) as f64 * 3e-13)
                .collect()
        })
        .collect();
    let diffs = (0..rng.usize(0, 3))
        .map(|_| (rng.usize(0, n), rng.usize(0, n)))
        .filter(|(i, j)| i != j)
        .collect();
    NearTies { weights, diffs }
}

/// Every exact driver returns the minimum of the same total order — exact
/// cost, then assignment — on models full of exact ties and of costs a
/// few 1e-13 apart, with and without a seed. The seeds are the optimum
/// itself and the lexicographically first leaf within 1e-12 of it, which
/// costs more: neither a near-tie nor the seed may displace the optimum.
#[test]
fn solvers_agree_on_exact_and_near_ties() {
    let mut rng = Rng::new(99);
    let mut near_ties = 0;
    for case in 0..48 {
        let m = arb_near_ties(&mut rng);
        let Some((opt_a, opt_c)) = brute_force(&m) else {
            continue;
        };
        let mut seeds = vec![None, Some((opt_a.clone(), opt_c))];
        let mut leaf: Assignment = vec![0; m.num_vars()];
        for k in 0..3usize.pow(m.num_vars() as u32) {
            for (var, v) in leaf.iter_mut().enumerate().rev() {
                *v = (k / 3usize.pow((m.num_vars() - 1 - var) as u32) % 3) as u32;
            }
            if let Some(c) = m.cost(&leaf) {
                if c > opt_c && c - opt_c < 1e-12 && leaf < opt_a {
                    near_ties += 1;
                    seeds.push(Some((leaf.clone(), c)));
                    break;
                }
            }
        }
        for seed in seeds {
            let opts = || SolveOptions {
                initial_incumbent: seed.clone(),
                ..Default::default()
            };
            let check = |who: &str, best: Option<(Assignment, f64)>| {
                let (a, c) = best.unwrap_or_else(|| panic!("case {case} {who}: no answer"));
                assert_eq!(
                    (c.to_bits(), &a),
                    (opt_c.to_bits(), &opt_a),
                    "case {case} {who} seed {seed:?}: {c} vs {opt_c}"
                );
            };
            check("solve", solve(&m, opts()).best);
            for threads in [1, 2, 4] {
                let par = solve_parallel_with(
                    &m,
                    opts(),
                    &ParallelOptions {
                        threads,
                        ..Default::default()
                    },
                );
                check(&format!("parallel t{threads}"), par.best);
            }
            let pf = solve_parallel_with(
                &m,
                opts(),
                &ParallelOptions {
                    lns_workers: 1,
                    ..Default::default()
                },
            );
            assert!(pf.proven_optimal(), "case {case}");
            check("B&B/LNS race", pf.best);
        }
    }
    assert!(near_ties > 0, "the sample must contain sub-1e-12 near-ties");
}

/// A global node budget makes the parallel solver exit early without ever
/// overspending (the budget is shared by the pool, not per subtree), and
/// any incumbent it returns is feasible and no better than the optimum.
#[test]
fn parallel_budget_is_global_and_sound() {
    let mut rng = Rng::new(7);
    for case in 0..24 {
        let inst = arb_instance(&mut rng);
        let full = solve(&inst, SolveOptions::default());
        let budget = rng.usize(1, 200) as u64;
        for threads in [2, 4] {
            let part = solve_parallel_with(
                &inst,
                SolveOptions {
                    node_budget: Some(budget),
                    ..Default::default()
                },
                &ParallelOptions {
                    threads,
                    ..Default::default()
                },
            );
            assert!(
                part.stats.nodes <= budget,
                "case {case} t{threads}: {} nodes for budget {budget}",
                part.stats.nodes
            );
            if part.stats.outcome == BudgetState::NodesExhausted {
                assert!(!part.proven_optimal(), "case {case} t{threads}");
            }
            if let Some((a, c)) = part.best {
                assert!(inst.cost(&a).is_some(), "case {case} t{threads}");
                let best = full.best.as_ref().expect("full solve found it too").1;
                assert!(c >= best - 1e-9, "case {case} t{threads}");
            }
        }
    }
}

/// Parallel solves started side by side from several OS threads share
/// one set of helper threads without sharing a helper: each returns the
/// sequential optimum to the bit, and each trace strictly decreases to
/// it, with and without an LNS worker.
#[test]
fn concurrent_callers_each_get_the_sequential_optimum() {
    std::thread::scope(|scope| {
        for caller in 0..4u64 {
            scope.spawn(move || {
                let mut rng = Rng::new(1000 + caller);
                for solve_no in 0..25 {
                    let inst = arb_instance(&mut rng);
                    let seq = solve(&inst, SolveOptions::default());
                    let lns_workers = solve_no % 2;
                    let why = format!("caller {caller} solve {solve_no} lns {lns_workers}");
                    let par = solve_parallel_with(
                        &inst,
                        SolveOptions::default(),
                        &ParallelOptions {
                            threads: 2,
                            lns_workers,
                            ..Default::default()
                        },
                    );
                    assert!(par.proven_optimal(), "{why}");
                    let bits = |s: &Option<(Assignment, f64)>| {
                        s.as_ref().map(|(a, c)| (a.clone(), c.to_bits()))
                    };
                    assert_eq!(bits(&par.best), bits(&seq.best), "{why}");
                    for w in par.trace.windows(2) {
                        assert!(w[1].1 < w[0].1, "{why}: the trace must strictly decrease");
                    }
                    let last = par.trace.last().map(|e| e.1.to_bits());
                    assert_eq!(last, par.best.map(|(_, c)| c.to_bits()), "{why}");
                }
            });
        }
    });
}

/// The invariants of a solve's anytime trace on either driver: costs
/// strictly decrease, every entry re-evaluates to its cost bit for bit,
/// stamps are monotone and inside the solve clock, and unless the seed
/// won, the last entry has the answer's cost.
fn check_trace<M: CostModel>(model: &M, sol: &Solution, why: &str) {
    for w in sol.trace.windows(2) {
        assert!(w[1].1 < w[0].1, "{why}: costs must strictly decrease");
        assert!(w[1].2 >= w[0].2, "{why}: stamps must be monotone");
    }
    for (a, c, at) in &sol.trace {
        let re = model.cost(a).map(f64::to_bits);
        assert_eq!(re, Some(c.to_bits()), "{why}: entry re-evaluates");
        assert!(*at <= sol.stats.elapsed, "{why}: stamp past the solve");
    }
    if sol.winner != Some(Winner::Seed) {
        let last = sol.trace.last().map(|e| e.1.to_bits());
        assert_eq!(last, sol.best.as_ref().map(|b| b.1.to_bits()), "{why}");
    }
}

/// Sequentially the trace is every leaf the search accepted, and unless
/// the seed won its last entry is the answer, assignment and cost. The
/// pool's trace (1, 2 and 4 B&B workers, with and without an LNS
/// worker) keeps the same invariants; there an exact-cost tie can move
/// the answer's assignment without a new entry, so only costs compare.
/// Every third case starts from a seed: the optimum or a budgeted
/// solve's incumbent, so the seed both wins and loses.
#[test]
fn traces_improve_strictly_and_end_at_the_answer() {
    let mut rng = Rng::new(77);
    for case in 0..24 {
        let inst = arb_instance(&mut rng);
        let seed = match case % 6 {
            0 => solve(&inst, SolveOptions::default()).best,
            3 => {
                let budget = SolveOptions {
                    node_budget: Some(16),
                    ..Default::default()
                };
                solve(&inst, budget).best
            }
            _ => None,
        };
        let opts = || SolveOptions {
            initial_incumbent: seed.clone(),
            ..Default::default()
        };
        let seq = solve(&inst, opts());
        let why = format!("case {case} sequential");
        check_trace(&inst, &seq, &why);
        assert_eq!(seq.trace.len() as u64, seq.stats.incumbents, "{why}");
        if seq.winner != Some(Winner::Seed) {
            let last = seq.trace.last().map(|(a, c, _)| (a, c.to_bits()));
            let best = seq.best.as_ref().map(|(a, c)| (a, c.to_bits()));
            assert_eq!(last, best, "{why}");
        }
        for threads in [1, 2, 4] {
            for lns_workers in [0, 1] {
                let par = solve_parallel_with(
                    &inst,
                    opts(),
                    &ParallelOptions {
                        threads,
                        lns_workers,
                        ..Default::default()
                    },
                );
                let why = format!("case {case} t{threads} lns {lns_workers}");
                check_trace(&inst, &par, &why);
            }
        }
    }
}

/// A node budget never yields a *better* cost than the full solve, and
/// any incumbent it returns is feasible (sequential path).
#[test]
fn budgeted_solve_is_sound() {
    let mut rng = Rng::new(23);
    for case in 0..64 {
        let inst = arb_instance(&mut rng);
        let budget = rng.usize(1, 200) as u64;
        let full = solve(&inst, SolveOptions::default());
        let part = solve(
            &inst,
            SolveOptions {
                node_budget: Some(budget),
                ..Default::default()
            },
        );
        assert!(part.stats.nodes <= budget, "case {case}");
        if let Some((a, c)) = part.best {
            assert!(inst.cost(&a).is_some(), "case {case}");
            let best = full.best.as_ref().expect("full solve found it too").1;
            assert!(c >= best - 1e-9, "case {case}");
        }
    }
}

/// Drives a random assign/unassign walk in LIFO discipline over `model`,
/// checking after every step that the incremental evaluators agree with
/// the from-scratch ones: `prune_with` exactly, `bound_with` within
/// `bound_tol` (floating-point reassociation only), and — at complete
/// assignments — `cost_with` bit-identically.
fn walk_equivalence<M: CostModel>(model: &M, rng: &mut Rng, steps: usize, bound_tol: f64) {
    let n = model.num_vars();
    let mut scratch = model.new_scratch();
    let mut partial: Vec<Option<u32>> = vec![None; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut complete: Assignment = vec![0; n];
    for step in 0..steps {
        let push = stack.len() < n && (stack.is_empty() || rng.usize(0, 100) < 60);
        if push {
            // Any unassigned variable may be pushed: the LIFO contract does
            // not promise index order (the engine's bound probes and the
            // parallel prefix decoding are index-ordered, but the protocol
            // itself must not depend on it).
            let nth = rng.usize(0, n - stack.len());
            let var = (0..n).filter(|&v| partial[v].is_none()).nth(nth).unwrap();
            let dom = model.domain(var);
            let val = dom[rng.usize(0, dom.len())];
            partial[var] = Some(val);
            model.push(&mut scratch, var, val);
            stack.push(var);
        } else {
            let var = stack.pop().unwrap();
            model.pop(&mut scratch, var);
            partial[var] = None;
        }
        assert_eq!(
            model.prune_with(&scratch, &partial),
            model.prune(&partial),
            "step {step}: prune disagrees at {partial:?}"
        );
        let b_inc = model.bound_with(&scratch, &partial);
        let b_fs = model.bound(&partial);
        assert!(
            (b_inc - b_fs).abs() <= bound_tol,
            "step {step}: bound {b_inc} vs {b_fs}"
        );
        if stack.len() == n {
            for (dst, src) in complete.iter_mut().zip(partial.iter()) {
                *dst = src.unwrap();
            }
            let c_inc = model.cost_with(&mut scratch, &complete);
            let c_fs = model.cost(&complete);
            match (c_inc, c_fs) {
                (Some(x), Some(y)) => assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "step {step}: cost {x} vs {y} at {complete:?}"
                ),
                (None, None) => {}
                other => panic!("step {step}: cost feasibility disagrees: {other:?}"),
            }
        }
    }
}

/// Incremental push/pop evaluation ≡ from-scratch evaluation on random
/// instances under random LIFO walks.
#[test]
fn incremental_walk_matches_from_scratch() {
    let mut rng = Rng::new(314);
    for _case in 0..48 {
        let inst = arb_instance(&mut rng);
        walk_equivalence(&inst, &mut rng, 300, 1e-9);
    }
}

/// The real scheduling encoding honours the incremental contract too —
/// on a concurrent multi-DNN workload (transition budgets, pinned groups)
/// and on a pipeline workload (ties + streaming deps exercise the shared
/// spans and the upstream closure).
#[test]
fn schedule_encoding_incremental_walk() {
    let p = orin_agx();
    let cm = ContentionModel::calibrate(&p);
    let mut rng = Rng::new(2718);

    let concurrent = Workload::concurrent(vec![
        DnnTask::new("g", NetworkProfile::profile(&p, Model::GoogleNet, 5)),
        DnnTask::new("r", NetworkProfile::profile(&p, Model::ResNet18, 5)),
    ]);
    for objective in [Objective::MinMaxLatency, Objective::MaxThroughput] {
        let enc = ScheduleEncoding::new(
            &concurrent,
            &cm,
            SchedulerConfig {
                objective,
                ..Default::default()
            },
        );
        walk_equivalence(&enc, &mut rng, 400, 1e-9);
    }

    let pipeline = Workload::pipeline(vec![
        DnnTask::new("a", NetworkProfile::profile(&p, Model::ResNet18, 4)),
        DnnTask::new("b", NetworkProfile::profile(&p, Model::GoogleNet, 4)),
    ]);
    let enc = ScheduleEncoding::new(&pipeline, &cm, SchedulerConfig::default());
    walk_equivalence(&enc, &mut rng, 400, 1e-9);
}

/// Solving with the incremental path enabled returns the bit-identical
/// optimum of the from-scratch path (`NonIncremental` hides the hooks),
/// sequentially and across parallel configurations. The two sequential
/// searches also visit the same nodes and leaves: the incremental hooks
/// change what a node costs, never which nodes the DFS reaches.
#[test]
fn incremental_solver_equals_nonincremental() {
    fn check<M: CostModel + Sync>(inst: &M, case: &str) {
        let inc = solve(inst, SolveOptions::default());
        let scratch = solve(&NonIncremental(inst), SolveOptions::default());
        match (&inc.best, &scratch.best) {
            (Some((a_inc, c_inc)), Some((a_fs, c_fs))) => {
                assert_eq!(c_inc.to_bits(), c_fs.to_bits(), "{case}");
                assert_eq!(a_inc, a_fs, "{case}");
            }
            (None, None) => {}
            other => panic!("{case}: {other:?}"),
        }
        assert_eq!(inc.stats.nodes, scratch.stats.nodes, "{case}: nodes");
        assert_eq!(inc.stats.leaves, scratch.stats.leaves, "{case}: leaves");
        for threads in [2, 8] {
            let par = solve_parallel_with(
                &NonIncremental(inst),
                SolveOptions::default(),
                &ParallelOptions {
                    threads,
                    ..Default::default()
                },
            );
            match (&inc.best, &par.best) {
                (Some((a_inc, c_inc)), Some((a_par, c_par))) => {
                    assert_eq!(c_inc.to_bits(), c_par.to_bits(), "{case} t{threads}");
                    assert_eq!(a_inc, a_par, "{case} t{threads}");
                }
                (None, None) => {}
                other => panic!("{case} t{threads}: {other:?}"),
            }
        }
    }

    let mut rng = Rng::new(1618);
    for case in 0..24 {
        check(&arb_instance(&mut rng), &format!("case {case}"));
    }

    // solver_scaling's 3-DNN scenario, whose wall ratio gates the
    // incremental protocol on the premise checked here: equal search trees.
    let p = orin_agx();
    let cm = ContentionModel::calibrate(&p);
    let workload = Workload::concurrent(
        [Model::GoogleNet, Model::ResNet50, Model::ResNet101]
            .iter()
            .map(|&m| DnnTask::new(m.name(), NetworkProfile::profile(&p, m, 6)))
            .collect(),
    );
    let enc = ScheduleEncoding::new(
        &workload,
        &cm,
        SchedulerConfig {
            epsilon_ms: None,
            max_transitions_per_task: 1,
            ..Default::default()
        },
    );
    check(&enc, "3-DNN encoding");
}

/// Layer grouping invariants hold for every model at every budget:
/// exhaustive, contiguous, within budget, and cutting only at valid
/// single-live-tensor points.
#[test]
fn grouping_invariants() {
    for model_idx in 0..14 {
        for budget in 1..16 {
            let model = Model::all()[model_idx];
            let net = model.network();
            let groups = partition(&net, budget);
            assert!(groups.len() <= budget);
            assert_eq!(groups[0].start, 0);
            assert_eq!(groups.last().unwrap().end, net.len() - 1);
            for w in groups.windows(2) {
                assert_eq!(w[1].start, w[0].end + 1);
            }
            let cuts = valid_cuts(&net);
            for g in &groups[..groups.len() - 1] {
                assert!(
                    cuts.contains(&g.end),
                    "{model}: boundary {} is not a valid cut",
                    g.end
                );
            }
        }
    }
}
