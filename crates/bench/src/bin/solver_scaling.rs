//! Solver scaling bench and perf-trajectory gate.
//!
//! Every comparison runs the solver against itself, in one binary, on
//! the same instance:
//!
//! 1. **Work stealing vs sequential B&B:** on a weighted-assignment
//!    instance (`Wap`), `solve_parallel_with` at `threads` workers against
//!    sequential `solve`. Gate: bit-identical optimal cost and identical
//!    assignment on every timed run, and (at `threads ≥ 2`) a median wall
//!    ratio ≥ 1.3×.
//!
//! 2. **Incremental vs from-scratch evaluation:** on a 3-DNN
//!    `ScheduleEncoding` (GoogleNet, ResNet50, ResNet101 at 6 groups,
//!    orin, ε off, one transition per task), `solve(&enc)` against
//!    `solve(&NonIncremental(&enc))`, which hides the push/pop hooks and
//!    evaluates every node from scratch. Both searches must visit the
//!    same nodes and leaves, so the wall ratio is the protocol's own
//!    value. Gate: equal node and leaf counts, bit-identical optimum and
//!    assignment on every timed run, a median wall ratio ≥ 1.5×, and the
//!    same optimum from `solve_parallel_with(&enc)` at 2, 4 and 8 threads.
//!
//! 3. **Pool with LNS workers vs pool alone** on three generated
//!    54-variable instances under a 20 s budget (anytime quality), plus
//!    bit identity with sequential B&B on the 3-DNN encoding.
//!
//! A wall ratio is the median over `ROUNDS` rounds. Each round times both
//! sides, best of 3 each, and the side that runs first alternates; every
//! round's walls and ratio are written to the report, so the median can be
//! recomputed from `BENCH_solver.json` (repo root). Any gate failure exits
//! non-zero.
//!
//! Usage: `solver_scaling [num_vars] [threads]` (defaults: 13 vars, all
//! CPUs — the Wap comparison only; the DNN scenario is fixed).

use haxconn_contention::ContentionModel;
use haxconn_core::encoding::ScheduleEncoding;
use haxconn_core::generate_instance;
use haxconn_core::problem::{DnnTask, SchedulerConfig, Workload};
use haxconn_dnn::Model;
use haxconn_profiler::NetworkProfile;
use haxconn_soc::orin_agx;
use haxconn_solver::{
    solve, solve_parallel_with, Assignment, CostModel, NonIncremental, ParallelOptions,
    PartialAssignment, Solution, SolveOptions, Winner,
};
use serde::Serialize;
use std::time::{Duration, Instant};

/// Rounds per paired wall comparison (the gated figure is their median).
const ROUNDS: usize = 15;
/// Minimum median wall ratio, sequential over work stealing (`threads ≥ 2`).
const WORK_STEALING_MIN_RATIO: f64 = 1.3;
/// Minimum median wall ratio, from-scratch over incremental evaluation.
const INCREMENTAL_MIN_RATIO: f64 = 1.5;

/// Weighted assignment with difference constraints — the same shape as
/// the scheduling encoding (per-variable costs + pair constraints), sized
/// to make the search tree deep enough to be worth parallelizing.
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

// ---------------------------------------------------------------------
// Paired same-binary wall comparisons.
// ---------------------------------------------------------------------

type Best = Option<(Assignment, f64)>;

/// Whether two optima agree to the bit: `(cost bits, assignment)`.
fn same_optimum(a: &Best, b: &Best) -> (bool, bool) {
    (
        a.as_ref().map(|x| x.1.to_bits()) == b.as_ref().map(|x| x.1.to_bits()),
        a.as_ref().map(|x| &x.0) == b.as_ref().map(|x| &x.0),
    )
}

/// One round: each side's best-of-3 wall.
#[derive(Serialize)]
struct Round {
    /// The side timed first this round; alternates between rounds.
    first: &'static str,
    baseline_ms: f64,
    subject_ms: f64,
    /// `baseline_ms / subject_ms`.
    ratio: f64,
}

#[derive(Serialize)]
struct PairedWall {
    baseline: &'static str,
    subject: &'static str,
    rounds: Vec<Round>,
    /// Median of the rounds' ratios.
    median_ratio: f64,
    threshold: f64,
    /// Whether `median_ratio ≥ threshold` is enforced.
    gated: bool,
}

/// Best-of-3 wall (ms) of `run`; every run's optimum must match
/// `reference`, else `identical` is cleared.
fn best_of_3(run: &dyn Fn() -> Solution, reference: &Best, identical: &mut (bool, bool)) -> f64 {
    (0..3)
        .map(|_| {
            let started = Instant::now();
            let sol = run();
            let ms = started.elapsed().as_secs_f64() * 1e3;
            let (bits, assignment) = same_optimum(&sol.best, reference);
            identical.0 &= bits;
            identical.1 &= assignment;
            ms
        })
        .fold(f64::INFINITY, f64::min)
}

/// Times `baseline` against `subject` over [`ROUNDS`] alternating rounds.
/// Returns the comparison and whether every timed solve returned
/// `reference` (cost bits, assignment).
fn paired(
    names: (&'static str, &'static str),
    baseline: &dyn Fn() -> Solution,
    subject: &dyn Fn() -> Solution,
    reference: &Best,
    threshold: f64,
    gated: bool,
) -> (PairedWall, (bool, bool)) {
    let mut identical = (true, true);
    let rounds: Vec<Round> = (0..ROUNDS)
        .map(|r| {
            let (baseline_ms, subject_ms) = if r % 2 == 0 {
                let b = best_of_3(baseline, reference, &mut identical);
                (b, best_of_3(subject, reference, &mut identical))
            } else {
                let s = best_of_3(subject, reference, &mut identical);
                (best_of_3(baseline, reference, &mut identical), s)
            };
            Round {
                first: if r % 2 == 0 { names.0 } else { names.1 },
                baseline_ms,
                subject_ms,
                ratio: baseline_ms / subject_ms,
            }
        })
        .collect();
    let mut ratios: Vec<f64> = rounds.iter().map(|r| r.ratio).collect();
    ratios.sort_by(f64::total_cmp);
    let wall = PairedWall {
        baseline: names.0,
        subject: names.1,
        rounds,
        median_ratio: ratios[ROUNDS / 2],
        threshold,
        gated,
    };
    (wall, identical)
}

/// Search effort and optimum of one solve.
#[derive(Serialize)]
struct SearchRun {
    nodes: u64,
    leaves: u64,
    cost: f64,
}

impl SearchRun {
    fn of(sol: &Solution) -> Self {
        SearchRun {
            nodes: sol.stats.nodes,
            leaves: sol.stats.leaves,
            cost: sol.best.as_ref().map(|b| b.1).unwrap_or(f64::NAN),
        }
    }
}

#[derive(Serialize)]
struct WapReport {
    num_vars: usize,
    domain_size: usize,
    threads: usize,
    sequential: SearchRun,
    /// Node counts of the pool vary with scheduling; its optimum does not.
    work_stealing: SearchRun,
    /// Every timed run of both sides returned the sequential optimum.
    optima_bit_identical: bool,
    assignments_identical: bool,
    wall: PairedWall,
}

#[derive(Serialize)]
struct IncrementalReport {
    models: Vec<String>,
    groups_per_dnn: usize,
    num_vars: usize,
    incremental: SearchRun,
    from_scratch: SearchRun,
    /// Equal node and leaf counts: both sides ran the same search.
    search_trees_equal: bool,
    /// Every timed run of both sides returned the incremental optimum.
    optima_bit_identical: bool,
    assignments_identical: bool,
    /// `solve_parallel_with(&enc)` at these thread counts returns the
    /// sequential optimum (cost bits and assignment).
    parallel_threads: Vec<usize>,
    parallel_identical: bool,
    wall: PairedWall,
}

// ---------------------------------------------------------------------
// Portfolio vs B&B-alone on generated 50+-variable instances.
// ---------------------------------------------------------------------

/// One generated large instance, solved twice under the same wall-clock
/// budget and baseline seed: pure parallel B&B (`lns_workers = 0`) vs the
/// full portfolio race. The metric is anytime quality — how fast each arm
/// gets within 1% of the best cost either arm reaches under the budget;
/// an arm that never does is censored at the full budget.
#[derive(Serialize)]
struct PortfolioInstanceRun {
    name: String,
    num_vars: usize,
    num_pus: usize,
    baseline_seed_cost: f64,
    bb_cost: f64,
    portfolio_cost: f64,
    best_cost: f64,
    bb_time_to_near_best_ms: f64,
    portfolio_time_to_near_best_ms: f64,
    /// Never reached within-1% — time censored at the full budgeted wall.
    bb_censored: bool,
    portfolio_censored: bool,
    speedup_time_to_near_best: f64,
    /// Primal-gap integrals (gap·ms over the budget window): the anytime
    /// metric that is robust to the exact timing of single incumbents.
    bb_primal_integral: f64,
    portfolio_primal_integral: f64,
    speedup_primal_integral: f64,
    /// Best of the two anytime speedups — the gated number.
    anytime_speedup: f64,
    portfolio_exactness: String,
    portfolio_winner: String,
    lns_iters: u64,
    lns_incumbents: u64,
}

#[derive(Serialize)]
struct PortfolioReport {
    platform: String,
    time_budget_ms: f64,
    lns_workers: usize,
    /// `best_cost * (1 + tolerance)` is the near-best target.
    near_best_tolerance: f64,
    instances: Vec<PortfolioInstanceRun>,
    min_anytime_speedup: f64,
    /// Unbudgeted portfolio vs sequential B&B on the paper-scale DNN
    /// scenario above: same assignment, bit-identical cost.
    paper_scale_bit_identical: bool,
    paper_scale_proven: bool,
}

/// Incumbent trajectory of one budgeted anytime run.
struct Trajectory {
    timeline: Vec<(f64, Duration)>,
    final_cost: f64,
    wall: Duration,
}

fn run_anytime<M: CostModel + Sync>(
    model: &M,
    seed_inc: &(Assignment, f64),
    time_budget: Duration,
    lns_workers: usize,
) -> (Trajectory, Solution) {
    let started = Instant::now();
    let out = solve_parallel_with(
        model,
        SolveOptions {
            time_budget: Some(time_budget),
            initial_incumbent: Some(seed_inc.clone()),
            ..Default::default()
        },
        &ParallelOptions {
            lns_workers,
            ..Default::default()
        },
    );
    // Censor at the nominal budget: an arm that exhausts the tree early
    // has proven there is nothing left to find, so the clock reading is
    // only meaningful up to the shared wall.
    let wall = started.elapsed().max(time_budget);
    let final_cost = out.best.as_ref().map(|b| b.1).unwrap_or(f64::NAN);
    let timeline = out.trace.iter().map(|&(_, c, at)| (c, at)).collect();
    (
        Trajectory {
            timeline,
            final_cost,
            wall,
        },
        out,
    )
}

/// First time the trajectory reaches `target`, in ms; censored at the
/// full wall when it never does. The baseline seed counts at t = 0.
fn time_to_target(t: &Trajectory, seed_cost: f64, target: f64) -> (f64, bool) {
    if seed_cost <= target {
        return (0.0, false);
    }
    for &(c, at) in &t.timeline {
        if c <= target {
            return (at.as_secs_f64() * 1e3, false);
        }
    }
    (t.wall.as_secs_f64() * 1e3, true)
}

/// Integral of the primal gap `cost(t)/best − 1` over the budget window
/// (gap·ms, piecewise constant between incumbents, seed at t = 0). The
/// standard anytime-quality measure: one late incumbent shifts it only
/// marginally, unlike a threshold-crossing time.
fn primal_integral(t: &Trajectory, seed_cost: f64, best: f64, horizon: Duration) -> f64 {
    let h = horizon.as_secs_f64() * 1e3;
    let mut acc = 0.0;
    let mut cur = seed_cost;
    let mut at = 0.0;
    for &(c, when) in &t.timeline {
        let w = (when.as_secs_f64() * 1e3).min(h);
        acc += (cur / best - 1.0) * (w - at).max(0.0);
        cur = c;
        at = w;
    }
    acc + (cur / best - 1.0) * (h - at).max(0.0)
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

#[derive(Serialize)]
struct Report {
    generated_by: String,
    wap_work_stealing_vs_sequential: WapReport,
    dnn_incremental_vs_from_scratch: IncrementalReport,
    portfolio_large_instances: PortfolioReport,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args
        .next()
        .map(|a| a.parse().expect("num_vars"))
        .unwrap_or(13);
    let threads: usize = args
        .next()
        .map(|a| a.parse().expect("threads"))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        });
    let m = instance(4242, n);
    let pool = ParallelOptions {
        threads,
        ..Default::default()
    };

    // --- Wap: work stealing vs sequential --------------------------------
    let seq = solve(&m, SolveOptions::default());
    let ws = solve_parallel_with(&m, SolveOptions::default(), &pool);
    let (wap_wall, wap_identical) = paired(
        ("sequential", "work_stealing"),
        &|| solve(&m, SolveOptions::default()),
        &|| solve_parallel_with(&m, SolveOptions::default(), &pool),
        &seq.best,
        WORK_STEALING_MIN_RATIO,
        threads >= 2,
    );
    let wap_out = WapReport {
        num_vars: n,
        domain_size: 3,
        threads,
        sequential: SearchRun::of(&seq),
        work_stealing: SearchRun::of(&ws),
        optima_bit_identical: wap_identical.0,
        assignments_identical: wap_identical.1,
        wall: wap_wall,
    };

    // --- Multi-DNN scenario: incremental vs from-scratch ----------------
    let platform = orin_agx();
    let groups = 6;
    let models = [Model::GoogleNet, Model::ResNet50, Model::ResNet101];
    let workload = Workload::concurrent(
        models
            .iter()
            .map(|&m| DnnTask::new(m.name(), NetworkProfile::profile(&platform, m, groups)))
            .collect(),
    );
    let contention = ContentionModel::calibrate(&platform);
    let config = SchedulerConfig {
        epsilon_ms: None,
        max_transitions_per_task: 1,
        ..Default::default()
    };
    let enc = ScheduleEncoding::new(&workload, &contention, config);
    let inc = solve(&enc, SolveOptions::default());
    let scratch = solve(&NonIncremental(&enc), SolveOptions::default());
    let (inc_wall, inc_identical) = paired(
        ("from_scratch", "incremental"),
        &|| solve(&NonIncremental(&enc), SolveOptions::default()),
        &|| solve(&enc, SolveOptions::default()),
        &inc.best,
        INCREMENTAL_MIN_RATIO,
        true,
    );
    let parallel_threads = vec![2, 4, 8];
    let parallel_identical = parallel_threads.iter().all(|&threads| {
        let par = solve_parallel_with(
            &enc,
            SolveOptions::default(),
            &ParallelOptions {
                threads,
                ..Default::default()
            },
        );
        same_optimum(&inc.best, &par.best) == (true, true)
    });
    let scenario_out = IncrementalReport {
        models: models.iter().map(|m| m.name().to_string()).collect(),
        groups_per_dnn: groups,
        num_vars: enc.num_vars(),
        search_trees_equal: inc.stats.nodes == scratch.stats.nodes
            && inc.stats.leaves == scratch.stats.leaves,
        incremental: SearchRun::of(&inc),
        from_scratch: SearchRun::of(&scratch),
        optima_bit_identical: inc_identical.0,
        assignments_identical: inc_identical.1,
        parallel_threads,
        parallel_identical,
        wall: inc_wall,
    };

    // --- Paper-scale exactness: portfolio == sequential B&B, Proven -----
    let pf_paper = solve_parallel_with(
        &enc,
        SolveOptions::default(),
        &ParallelOptions {
            lns_workers: 2,
            ..Default::default()
        },
    );
    let paper_scale_bit_identical = same_optimum(&inc.best, &pf_paper.best) == (true, true);
    let paper_scale_proven = pf_paper.proven_optimal();

    // --- Portfolio vs B&B-alone on generated large instances ------------
    let time_budget = Duration::from_secs(20);
    let lns_workers = 2;
    let near_best_tolerance = 0.01;
    let mut pf_instances: Vec<PortfolioInstanceRun> = Vec::new();
    for seed in [1u64, 2, 3] {
        let g = generate_instance(seed, 6, 9);
        let gen_contention = ContentionModel::calibrate(&g.platform);
        let gen_enc = ScheduleEncoding::new(&g.workload, &gen_contention, g.config);
        // The best baseline seeds both arms, so neither can end worse
        // than the paper's static heuristics.
        let seed_inc = g
            .best_baseline(&gen_enc)
            .expect("generated instances admit a feasible baseline");
        let (bb, _) = run_anytime(&gen_enc, &seed_inc, time_budget, 0);
        let (pf, pf_out) = run_anytime(&gen_enc, &seed_inc, time_budget, lns_workers);
        let best_cost = bb.final_cost.min(pf.final_cost);
        let target = best_cost * (1.0 + near_best_tolerance);
        let (bb_ms, bb_censored) = time_to_target(&bb, seed_inc.1, target);
        let (pf_ms, pf_censored) = time_to_target(&pf, seed_inc.1, target);
        // 1 µs floor: both arms start from the same seed, so a seed
        // already within tolerance would make the ratio 0/0.
        let floor = 1e-3;
        let speedup_time = bb_ms.max(floor) / pf_ms.max(floor);
        let bb_integral = primal_integral(&bb, seed_inc.1, best_cost, time_budget);
        let pf_integral = primal_integral(&pf, seed_inc.1, best_cost, time_budget);
        let speedup_integral = bb_integral.max(floor) / pf_integral.max(floor);
        pf_instances.push(PortfolioInstanceRun {
            name: g.name.clone(),
            num_vars: gen_enc.num_vars(),
            num_pus: g.platform.dnn_pus().len(),
            baseline_seed_cost: seed_inc.1,
            bb_cost: bb.final_cost,
            portfolio_cost: pf.final_cost,
            best_cost,
            bb_time_to_near_best_ms: bb_ms,
            portfolio_time_to_near_best_ms: pf_ms,
            bb_censored,
            portfolio_censored: pf_censored,
            speedup_time_to_near_best: speedup_time,
            bb_primal_integral: bb_integral,
            portfolio_primal_integral: pf_integral,
            speedup_primal_integral: speedup_integral,
            anytime_speedup: speedup_time.max(speedup_integral),
            portfolio_exactness: if pf_out.proven_optimal() {
                "proven".to_string()
            } else {
                "heuristic".to_string()
            },
            portfolio_winner: match pf_out.winner {
                Some(Winner::BranchAndBound) => "branch_and_bound".to_string(),
                Some(Winner::Lns) => "lns".to_string(),
                Some(Winner::Seed) => "seed".to_string(),
                None => "none".to_string(),
            },
            lns_iters: pf_out.lns.iters,
            lns_incumbents: pf_out.lns.incumbents,
        });
    }
    let min_speedup = pf_instances
        .iter()
        .map(|r| r.anytime_speedup)
        .fold(f64::INFINITY, f64::min);
    let portfolio_out = PortfolioReport {
        platform: "orin-agx-dual-dla".to_string(),
        time_budget_ms: time_budget.as_secs_f64() * 1e3,
        lns_workers,
        near_best_tolerance,
        instances: pf_instances,
        min_anytime_speedup: min_speedup,
        paper_scale_bit_identical,
        paper_scale_proven,
    };

    let out = Report {
        generated_by: "solver_scaling".to_string(),
        wap_work_stealing_vs_sequential: wap_out,
        dnn_incremental_vs_from_scratch: scenario_out,
        portfolio_large_instances: portfolio_out,
    };
    let json = serde_json::to_string_pretty(&out).expect("serialize");
    println!("{json}");
    let bench_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solver.json");
    std::fs::write(bench_path, format!("{json}\n")).expect("write BENCH_solver.json");
    eprintln!("wrote {bench_path}");

    let mut failed = false;
    let mut fail = |msg: String| {
        eprintln!("FAIL: {msg}");
        failed = true;
    };
    let wap = &out.wap_work_stealing_vs_sequential;
    if !(wap.optima_bit_identical && wap.assignments_identical) {
        fail("work-stealing and sequential solvers disagree on the optimum".into());
    }
    for (what, wall) in [
        ("work-stealing", &wap.wall),
        ("incremental", &out.dnn_incremental_vs_from_scratch.wall),
    ] {
        if wall.gated && wall.median_ratio < wall.threshold {
            fail(format!(
                "{what} median wall ratio {:.2}x < {}x target",
                wall.median_ratio, wall.threshold
            ));
        }
    }
    let dnn = &out.dnn_incremental_vs_from_scratch;
    if !dnn.search_trees_equal {
        fail(format!(
            "incremental and from-scratch searches differ: {} vs {} nodes, {} vs {} leaves",
            dnn.incremental.nodes,
            dnn.from_scratch.nodes,
            dnn.incremental.leaves,
            dnn.from_scratch.leaves
        ));
    }
    if !dnn.optima_bit_identical {
        fail("incremental and from-scratch disagree on the optimal cost".into());
    }
    if !dnn.assignments_identical {
        fail("incremental and from-scratch disagree on the optimal assignment".into());
    }
    if !dnn.parallel_identical {
        fail("parallel solves of the DNN scenario disagree with the sequential optimum".into());
    }
    let pf = &out.portfolio_large_instances;
    if !pf.paper_scale_bit_identical {
        fail("portfolio and sequential B&B disagree on the paper-scale optimum".into());
    }
    if !pf.paper_scale_proven {
        fail("unbudgeted portfolio did not prove the paper-scale optimum".into());
    }
    if pf.instances.len() < 3 {
        fail("fewer than 3 generated large instances".into());
    }
    for r in &pf.instances {
        if r.num_vars < 50 {
            fail(format!(
                "{} has only {} variables (< 50)",
                r.name, r.num_vars
            ));
        }
        if r.portfolio_cost > r.baseline_seed_cost + 1e-9 {
            fail(format!(
                "{} portfolio ended worse than its baseline seed",
                r.name
            ));
        }
    }
    if pf.min_anytime_speedup < 3.0 {
        fail(format!(
            "portfolio anytime speedup {:.2}x < 3x target",
            pf.min_anytime_speedup
        ));
    }
    if failed {
        std::process::exit(1);
    }
}
