//! Solver scaling bench and perf-trajectory gate.
//!
//! Two machine-checked comparisons:
//!
//! 1. **Work stealing vs seed root split** (PR 1's claim): the predecessor
//!    split the tree at the first variable only (one thread per root value
//!    — here 3), took a mutex on **every** node to read the shared
//!    incumbent, re-derived the bound twice per node, and allocated a
//!    widened partial-assignment `Vec` per bound/prune call. That design
//!    is reimplemented below, verbatim in structure, as the baseline.
//!    Gate: ≥2× wall speedup, bit-identical optimum.
//!
//! 2. **Incremental vs from-scratch evaluation** (PR 2's claim): a
//!    multi-DNN scenario is solved with today's `ScheduleEncoding`
//!    (incremental push/pop protocol, allocation-free leaf evaluation)
//!    and with the predecessor's from-scratch encoding — recursive
//!    upstream-chasing lower bound, full span re-walks in `prune`, and a
//!    timeline evaluator that allocates nested timing rows, scratch
//!    vectors, and event lists on every leaf — reimplemented below,
//!    verbatim in structure, as the baseline. Both run across
//!    {1, 2, 4, 8} threads. Gate: bit-identical optimal cost and
//!    identical assignment everywhere, and ≥1.5× single-thread wall
//!    speedup for the incremental path.
//!
//! The full measurement is written to `BENCH_solver.json` at the repo
//! root so future PRs have a machine-readable baseline to compare
//! against; any gate failure exits non-zero.
//!
//! Usage: `solver_scaling [num_vars] [threads]` (defaults: 13 vars, all
//! CPUs — the Wap comparison only; the DNN scenario is fixed).

use haxconn_contention::ContentionModel;
use haxconn_core::encoding::ScheduleEncoding;
use haxconn_core::generate_instance;
use haxconn_core::interval::Interval;
use haxconn_core::problem::{DnnTask, Objective, SchedulerConfig, Workload};
use haxconn_core::timeline::GroupTiming;
use haxconn_dnn::Model;
use haxconn_profiler::NetworkProfile;
use haxconn_soc::{orin_agx, LayerCost, PuId};
use haxconn_solver::{
    solve, solve_parallel_with, Assignment, CostModel, ParallelOptions, PartialAssignment,
    Solution, SolveOptions, Winner,
};
use serde::Serialize;
use std::sync::Mutex;
use std::time::{Duration, Instant};

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
// The seed root-splitting solver, reproduced as the baseline.
// ---------------------------------------------------------------------

struct SeedIncumbent {
    best: Option<(Assignment, f64)>,
    last_improvement: Duration,
    started: Instant,
}

impl SeedIncumbent {
    fn offer(&mut self, a: &Assignment, c: f64) {
        let better = match &self.best {
            None => true,
            Some((cur_a, cur_c)) => c < cur_c - 1e-12 || ((c - cur_c).abs() <= 1e-12 && a < cur_a),
        };
        if better {
            self.best = Some((a.clone(), c));
            self.last_improvement = self.started.elapsed();
        }
    }
}

/// One root subtree: first variable fixed. Bound/prune widen the partial
/// into a fresh `Vec` per call and read the incumbent under a mutex per
/// node — exactly the costs the new solver was built to remove.
struct Subtree<'a, M: CostModel> {
    model: &'a M,
    fixed: u32,
    shared: &'a Mutex<SeedIncumbent>,
}

impl<M: CostModel> Subtree<'_, M> {
    fn widen(&self, partial: &PartialAssignment) -> Vec<Option<u32>> {
        let mut full = Vec::with_capacity(partial.len() + 1);
        full.push(Some(self.fixed));
        full.extend_from_slice(partial);
        full
    }
}

impl<M: CostModel> CostModel for Subtree<'_, M> {
    type Scratch = ();
    fn num_vars(&self) -> usize {
        self.model.num_vars() - 1
    }
    fn domain(&self, var: usize) -> &[u32] {
        self.model.domain(var + 1)
    }
    fn cost(&self, assignment: &Assignment) -> Option<f64> {
        let mut full = Vec::with_capacity(assignment.len() + 1);
        full.push(self.fixed);
        full.extend_from_slice(assignment);
        self.model.cost(&full)
    }
    fn bound(&self, partial: &PartialAssignment) -> f64 {
        self.model.bound(&self.widen(partial))
    }
    fn prune(&self, partial: &PartialAssignment) -> bool {
        if self.model.prune(&self.widen(partial)) {
            return true;
        }
        let bound = self.model.bound(&self.widen(partial));
        let shared = self.shared.lock().expect("incumbent lock");
        match &shared.best {
            Some((_, c)) => bound >= *c - 1e-12,
            None => false,
        }
    }
}

struct SeedRun {
    best: Option<(Assignment, f64)>,
    nodes: u64,
    wall: Duration,
    time_to_optimal: Duration,
}

fn solve_root_split<M: CostModel + Sync>(model: &M) -> SeedRun {
    let started = Instant::now();
    let shared = Mutex::new(SeedIncumbent {
        best: None,
        last_improvement: Duration::ZERO,
        started,
    });
    let nodes = Mutex::new(0u64);
    let root_domain: Vec<u32> = model.domain(0).to_vec();
    std::thread::scope(|scope| {
        for &v in &root_domain {
            let shared = &shared;
            let nodes = &nodes;
            scope.spawn(move || {
                let sub = Subtree {
                    model,
                    fixed: v,
                    shared,
                };
                let sol = solve(
                    &sub,
                    SolveOptions {
                        on_incumbent: Some(Box::new(|a: &Assignment, c, _at| {
                            let mut full = Vec::with_capacity(a.len() + 1);
                            full.push(v);
                            full.extend_from_slice(a);
                            shared.lock().expect("incumbent lock").offer(&full, c);
                        })),
                        ..Default::default()
                    },
                );
                *nodes.lock().expect("nodes lock") += sol.stats.nodes;
            });
        }
    });
    let wall = started.elapsed();
    let inc = shared.into_inner().expect("incumbent lock");
    SeedRun {
        best: inc.best,
        nodes: nodes.into_inner().expect("nodes lock"),
        wall,
        time_to_optimal: inc.last_improvement,
    }
}

// ---------------------------------------------------------------------
// The seed's from-scratch schedule evaluation, reproduced as the
// baseline for comparison 2.
// ---------------------------------------------------------------------

/// A group's footprint from the previous fixed-point iteration (the seed
/// evaluator's layout).
#[derive(Clone, Copy)]
struct SeedFootprint {
    task: usize,
    pu: PuId,
    interval: Interval,
    demand_gbps: f64,
}

/// The predecessor's `ScheduleEncoding` + `TimelineEvaluator` pair,
/// reproduced verbatim in structure: the lower bound recurses through
/// `Workload::upstream` (allocating a `Vec` per task per call), `prune`
/// re-walks every task's whole variable span per node, and each leaf
/// evaluation materializes per-task PU rows plus — per fixed-point
/// iteration — nested timing rows, fresh scratch vectors, and a sorted
/// event list per dispatched group. Exactly the costs the incremental
/// protocol and `evaluate_into` were built to remove.
struct SeedEncoding<'a> {
    workload: &'a Workload,
    model: &'a ContentionModel,
    config: SchedulerConfig,
    domains: Vec<Vec<u32>>,
    min_time: Vec<f64>,
    task_spans: Vec<(usize, usize)>,
}

impl<'a> SeedEncoding<'a> {
    fn new(workload: &'a Workload, model: &'a ContentionModel, config: SchedulerConfig) -> Self {
        let mut domains: Vec<Vec<u32>> = Vec::with_capacity(workload.num_vars());
        let mut min_time = Vec::with_capacity(workload.num_vars());
        let mut task_spans: Vec<(usize, usize)> = Vec::with_capacity(workload.tasks.len());
        for (t, task) in workload.tasks.iter().enumerate() {
            if let Some(rep) = workload.ties[t] {
                task_spans.push(task_spans[rep]);
                continue;
            }
            task_spans.push((domains.len(), task.num_groups()));
            for group in &task.profile.groups {
                let pus = group.supported_pus();
                let best = pus
                    .iter()
                    .map(|&pu| group.cost[pu].unwrap().time_ms)
                    .fold(f64::INFINITY, f64::min);
                domains.push(pus.iter().map(|&p| p as u32).collect());
                min_time.push(best);
            }
        }
        SeedEncoding {
            workload,
            model,
            config,
            domains,
            min_time,
            task_spans,
        }
    }

    fn to_rows(&self, assignment: &Assignment) -> Vec<Vec<usize>> {
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

    fn task_lower_bound(&self, task: usize, partial: &PartialAssignment) -> f64 {
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
        for up in self.workload.upstream(task) {
            sum += self.task_lower_bound(up, partial);
        }
        sum
    }

    fn transitions_in(&self, task: usize, partial: &PartialAssignment) -> (usize, bool) {
        let (start, len) = self.task_spans[task];
        let mut count = 0;
        let mut complete = true;
        let mut prev: Option<(u32, bool)> = None;
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
                    prev = None;
                }
            }
        }
        (count, complete)
    }

    fn cost_of(&self, task: usize, group: usize, pu: PuId) -> LayerCost {
        self.workload.tasks[task].profile.groups[group].cost[pu]
            .expect("assignment respects supported PUs")
    }

    fn integrate(
        &self,
        task: usize,
        pu: PuId,
        cost: &LayerCost,
        start: f64,
        others: &[SeedFootprint],
    ) -> (f64, f64) {
        let t0 = cost.time_ms;
        if !self.config.contention_aware || t0 <= 0.0 {
            return (start + t0, 1.0);
        }
        let mut events: Vec<f64> = Vec::new();
        for f in others {
            if f.task == task || f.pu == pu {
                continue;
            }
            if f.interval.start > start {
                events.push(f.interval.start);
            }
            if f.interval.end > start {
                events.push(f.interval.end);
            }
        }
        events.sort_by(|a, b| a.partial_cmp(b).expect("no NaN times"));
        events.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

        let external_at = |t: f64| -> f64 {
            others
                .iter()
                .filter(|f| f.task != task && f.pu != pu && f.interval.contains(t))
                .map(|f| f.demand_gbps)
                .sum()
        };

        let mut now = start;
        let mut remaining = t0;
        for &ev in &events {
            if remaining <= 0.0 {
                break;
            }
            let seg = ev - now;
            if seg <= 0.0 {
                continue;
            }
            let ext = external_at(now + 0.5 * seg.min(remaining));
            let s = self.model.slowdown(pu, cost, ext).max(1.0);
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
            let ext = external_at(now);
            let s = self.model.slowdown(pu, cost, ext).max(1.0);
            now += remaining * s;
        }
        let end = now;
        (end, (end - start) / t0)
    }

    /// The seed's list-scheduling fixed point; returns
    /// `(task_latency_ms, max_wait_ms)`.
    fn evaluate(&self, assignment: &[Vec<PuId>]) -> (Vec<f64>, f64) {
        let w = self.workload;
        let n_tasks = w.tasks.len();
        let n_pus = assignment
            .iter()
            .flatten()
            .copied()
            .max()
            .map(|m| m + 1)
            .unwrap_or(1);

        let mut footprints: Vec<SeedFootprint> = Vec::new();
        let mut result: Option<(Vec<f64>, f64)> = None;
        let mut prev_makespan = f64::INFINITY;

        for _iter in 0..10 {
            let mut timings: Vec<Vec<GroupTiming>> = w
                .tasks
                .iter()
                .map(|t| {
                    vec![
                        GroupTiming {
                            pu: 0,
                            start_ms: 0.0,
                            end_ms: 0.0,
                            wait_ms: 0.0,
                            slowdown: 1.0
                        };
                        t.num_groups()
                    ]
                })
                .collect();
            let mut pu_free = vec![0.0f64; n_pus];
            let mut next_group = vec![0usize; n_tasks];
            let mut task_end = vec![0.0f64; n_tasks];
            let mut max_wait = 0.0f64;
            let mut new_footprints: Vec<SeedFootprint> = Vec::new();

            loop {
                let mut pick: Option<(usize, f64, f64)> = None;
                for t in 0..n_tasks {
                    let g = next_group[t];
                    if g >= w.tasks[t].num_groups() {
                        continue;
                    }
                    let mut ready = if g > 0 { timings[t][g - 1].end_ms } else { 0.0 };
                    if g == 0 {
                        for up in w.upstream(t) {
                            if next_group[up] < w.tasks[up].num_groups() {
                                ready = f64::INFINITY;
                            } else {
                                ready = ready.max(task_end[up]);
                            }
                        }
                    }
                    if !ready.is_finite() {
                        continue;
                    }
                    let pu = assignment[t][g];
                    let start = ready.max(pu_free[pu]);
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
                let g = next_group[t];
                let pu = assignment[t][g];
                let cost = self.cost_of(t, g, pu);
                let profile = &w.tasks[t].profile;

                let tau_in = if g > 0 && assignment[t][g - 1] != pu {
                    profile.groups[g - 1].tr_in_ms[pu]
                } else {
                    0.0
                };
                let tau_out = if g + 1 < profile.len() && assignment[t][g + 1] != pu {
                    profile.groups[g].tr_out_ms[pu]
                } else {
                    0.0
                };

                let exec_start = start + tau_in;
                let (exec_end, slowdown) = self.integrate(t, pu, &cost, exec_start, &footprints);
                let end = exec_end + tau_out;

                timings[t][g] = GroupTiming {
                    pu,
                    start_ms: start,
                    end_ms: end,
                    wait_ms: start - ready,
                    slowdown,
                };
                max_wait = max_wait.max(start - ready);
                pu_free[pu] = end;
                task_end[t] = end;
                next_group[t] += 1;
                new_footprints.push(SeedFootprint {
                    task: t,
                    pu,
                    interval: Interval::new(exec_start, exec_end),
                    demand_gbps: cost.demand_gbps,
                });
            }

            let makespan = task_end.iter().cloned().fold(0.0, f64::max);
            let converged = (makespan - prev_makespan).abs() < 1e-6;
            prev_makespan = makespan;
            footprints = new_footprints;
            result = Some((task_end, max_wait));
            if converged || !self.config.contention_aware {
                break;
            }
        }
        result.expect("at least one iteration ran")
    }
}

impl CostModel for SeedEncoding<'_> {
    type Scratch = ();

    fn num_vars(&self) -> usize {
        self.domains.len()
    }

    fn domain(&self, var: usize) -> &[u32] {
        &self.domains[var]
    }

    fn prune(&self, partial: &PartialAssignment) -> bool {
        for t in 0..self.task_spans.len() {
            if self.workload.ties[t].is_some() {
                continue;
            }
            let (count, _) = self.transitions_in(t, partial);
            if count > self.config.max_transitions_per_task {
                return true;
            }
        }
        false
    }

    fn bound(&self, partial: &PartialAssignment) -> f64 {
        match self.config.objective {
            Objective::MinMaxLatency => (0..self.task_spans.len())
                .map(|t| self.task_lower_bound(t, partial))
                .fold(0.0, f64::max),
            Objective::MaxThroughput => -(0..self.task_spans.len())
                .map(|t| 1000.0 / self.task_lower_bound(t, partial).max(1e-9))
                .sum::<f64>(),
        }
    }

    fn cost(&self, assignment: &Assignment) -> Option<f64> {
        let rows = self.to_rows(assignment);
        let (task_latency_ms, max_wait_ms) = self.evaluate(&rows);
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
}

// ---------------------------------------------------------------------
// Incremental vs from-scratch on a multi-DNN schedule encoding.
// ---------------------------------------------------------------------

/// One measured solve of the DNN scenario.
#[derive(Serialize, Clone)]
struct ScenarioRun {
    /// "incremental" or "from_scratch".
    mode: String,
    threads: usize,
    wall_ms: f64,
    nodes: u64,
    nodes_per_sec: f64,
    time_to_optimal_ms: f64,
    cost: f64,
}

fn run_scenario<M: CostModel + Sync>(
    model: &M,
    mode: &str,
    threads: usize,
) -> (ScenarioRun, Option<(Assignment, f64)>) {
    let started = Instant::now();
    let mut tto = Duration::ZERO;
    let sol: Solution = solve_parallel_with(
        model,
        SolveOptions {
            on_incumbent: Some(Box::new(|_, _, at| tto = at)),
            ..Default::default()
        },
        &ParallelOptions {
            threads,
            ..Default::default()
        },
    );
    let wall = started.elapsed();
    let run = ScenarioRun {
        mode: mode.to_string(),
        threads,
        wall_ms: wall.as_secs_f64() * 1e3,
        nodes: sol.stats.nodes,
        nodes_per_sec: sol.stats.nodes as f64 / wall.as_secs_f64(),
        time_to_optimal_ms: tto.as_secs_f64() * 1e3,
        cost: sol.best.as_ref().map(|b| b.1).unwrap_or(f64::NAN),
    };
    (run, sol.best)
}

#[derive(Serialize)]
struct ScenarioReport {
    models: Vec<String>,
    groups_per_dnn: usize,
    num_vars: usize,
    runs: Vec<ScenarioRun>,
    /// From-scratch wall / incremental wall, both single-threaded.
    speedup_wall_1t: f64,
    /// Incremental nodes/sec over from-scratch nodes/sec, single-threaded.
    speedup_nodes_per_sec_1t: f64,
    optima_bit_identical: bool,
    assignments_identical: bool,
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
    let mut timeline: Vec<(f64, Duration)> = Vec::new();
    let out = solve_parallel_with(
        model,
        SolveOptions {
            time_budget: Some(time_budget),
            initial_incumbent: Some(seed_inc.clone()),
            on_incumbent: Some(Box::new(|_, c, at| timeline.push((c, at)))),
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
struct SolverReport {
    wall_ms: f64,
    nodes: u64,
    nodes_per_sec: f64,
    time_to_optimal_ms: f64,
    cost: f64,
}

#[derive(Serialize)]
struct WapReport {
    num_vars: usize,
    domain_size: usize,
    threads: usize,
    split_items: String,
    seed_root_split: SolverReport,
    work_stealing: SolverReport,
    speedup_wall: f64,
    speedup_nodes_per_sec: f64,
    optima_bit_identical: bool,
}

#[derive(Serialize)]
struct Report {
    generated_by: String,
    wap_work_stealing_vs_seed: WapReport,
    dnn_incremental_vs_from_scratch: ScenarioReport,
    portfolio_large_instances: PortfolioReport,
}

fn report(
    best: &Option<(Assignment, f64)>,
    nodes: u64,
    wall: Duration,
    tto: Duration,
) -> SolverReport {
    SolverReport {
        wall_ms: wall.as_secs_f64() * 1e3,
        nodes,
        nodes_per_sec: nodes as f64 / wall.as_secs_f64(),
        time_to_optimal_ms: tto.as_secs_f64() * 1e3,
        cost: best.as_ref().map(|b| b.1).unwrap_or(f64::NAN),
    }
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

    // Warm both paths once so first-touch effects don't skew either side.
    let _ = solve(&instance(1, 8), SolveOptions::default());

    let old = solve_root_split(&m);

    let started = Instant::now();
    let mut tto = Duration::ZERO;
    let new: Solution = solve_parallel_with(
        &m,
        SolveOptions {
            on_incumbent: Some(Box::new(|_, _, at| tto = at)),
            ..Default::default()
        },
        &ParallelOptions {
            threads,
            ..Default::default()
        },
    );
    let new_wall = started.elapsed();

    let old_bits = old.best.as_ref().map(|b| b.1.to_bits());
    let new_bits = new.best.as_ref().map(|b| b.1.to_bits());
    let identical = old_bits == new_bits;

    let seed_report = report(&old.best, old.nodes, old.wall, old.time_to_optimal);
    let new_report = report(&new.best, new.stats.nodes, new_wall, tto);
    let speedup_wall = seed_report.wall_ms / new_report.wall_ms;
    let speedup_rate = new_report.nodes_per_sec / seed_report.nodes_per_sec;
    let wap_out = WapReport {
        num_vars: n,
        domain_size: 3,
        threads,
        split_items: format!("auto (≥{} per worker)", 8),
        seed_root_split: seed_report,
        work_stealing: new_report,
        speedup_wall,
        speedup_nodes_per_sec: speedup_rate,
        optima_bit_identical: identical,
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
    let seed_enc = SeedEncoding::new(&workload, &contention, config);

    // Warm both paths (first-touch, contention model lazy state).
    let _ = run_scenario(&enc, "warmup", 1);
    let _ = run_scenario(&seed_enc, "warmup", 1);

    // Best-of-3 wall per cell: the solves are milliseconds long, so a
    // single scheduler hiccup would swamp the comparison.
    fn best_of_3<M: CostModel + Sync>(
        model: &M,
        mode: &str,
        threads: usize,
    ) -> (ScenarioRun, Option<(Assignment, f64)>) {
        let (mut run, mut best) = run_scenario(model, mode, threads);
        for _ in 1..3 {
            let (r, b) = run_scenario(model, mode, threads);
            if r.wall_ms < run.wall_ms {
                run = r;
                best = b;
            }
        }
        (run, best)
    }

    let mut runs: Vec<ScenarioRun> = Vec::new();
    let mut bests: Vec<Option<(Assignment, f64)>> = Vec::new();
    for &t in &[1usize, 2, 4, 8] {
        let (run, best) = best_of_3(&enc, "incremental", t);
        runs.push(run);
        bests.push(best);
        let (run, best) = best_of_3(&seed_enc, "from_scratch", t);
        runs.push(run);
        bests.push(best);
    }
    let reference = &bests[0];
    let costs_identical = bests
        .iter()
        .all(|b| b.as_ref().map(|x| x.1.to_bits()) == reference.as_ref().map(|x| x.1.to_bits()));
    let assignments_identical = bests
        .iter()
        .all(|b| b.as_ref().map(|x| &x.0) == reference.as_ref().map(|x| &x.0));

    let wall_1t = |mode: &str| {
        runs.iter()
            .find(|r| r.mode == mode && r.threads == 1)
            .expect("run present")
    };
    let speedup_wall_1t = wall_1t("from_scratch").wall_ms / wall_1t("incremental").wall_ms;
    let speedup_rate_1t =
        wall_1t("incremental").nodes_per_sec / wall_1t("from_scratch").nodes_per_sec;

    let scenario_out = ScenarioReport {
        models: models.iter().map(|m| m.name().to_string()).collect(),
        groups_per_dnn: groups,
        num_vars: enc.num_vars(),
        runs,
        speedup_wall_1t,
        speedup_nodes_per_sec_1t: speedup_rate_1t,
        optima_bit_identical: costs_identical,
        assignments_identical,
    };

    // --- Paper-scale exactness: portfolio == sequential B&B, Proven -----
    let seq_paper = solve(&enc, SolveOptions::default());
    let pf_paper = solve_parallel_with(
        &enc,
        SolveOptions::default(),
        &ParallelOptions {
            lns_workers: 2,
            ..Default::default()
        },
    );
    let paper_scale_bit_identical = match (&seq_paper.best, &pf_paper.best) {
        (Some((a, c)), Some((b, d))) => a == b && c.to_bits() == d.to_bits(),
        (None, None) => true,
        _ => false,
    };
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
        wap_work_stealing_vs_seed: wap_out,
        dnn_incremental_vs_from_scratch: scenario_out,
        portfolio_large_instances: portfolio_out,
    };
    let json = serde_json::to_string_pretty(&out).expect("serialize");
    println!("{json}");
    let bench_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solver.json");
    std::fs::write(bench_path, format!("{json}\n")).expect("write BENCH_solver.json");
    eprintln!("wrote {bench_path}");

    let mut failed = false;
    if !identical {
        eprintln!("FAIL: work-stealing and seed solvers disagree on the optimum");
        failed = true;
    }
    if speedup_wall < 2.0 {
        eprintln!("FAIL: wall-clock speedup {speedup_wall:.2}x < 2x target");
        failed = true;
    }
    if !out.dnn_incremental_vs_from_scratch.optima_bit_identical {
        eprintln!("FAIL: incremental and from-scratch disagree on the optimal cost");
        failed = true;
    }
    if !out.dnn_incremental_vs_from_scratch.assignments_identical {
        eprintln!("FAIL: incremental and from-scratch disagree on the optimal assignment");
        failed = true;
    }
    if out.dnn_incremental_vs_from_scratch.speedup_wall_1t < 1.5 {
        eprintln!(
            "FAIL: incremental speedup {:.2}x < 1.5x target",
            out.dnn_incremental_vs_from_scratch.speedup_wall_1t
        );
        failed = true;
    }
    let pf = &out.portfolio_large_instances;
    if !pf.paper_scale_bit_identical {
        eprintln!("FAIL: portfolio and sequential B&B disagree on the paper-scale optimum");
        failed = true;
    }
    if !pf.paper_scale_proven {
        eprintln!("FAIL: unbudgeted portfolio did not prove the paper-scale optimum");
        failed = true;
    }
    if pf.instances.len() < 3 {
        eprintln!("FAIL: fewer than 3 generated large instances");
        failed = true;
    }
    for r in &pf.instances {
        if r.num_vars < 50 {
            eprintln!("FAIL: {} has only {} variables (< 50)", r.name, r.num_vars);
            failed = true;
        }
        if r.portfolio_cost > r.baseline_seed_cost + 1e-9 {
            eprintln!(
                "FAIL: {} portfolio ended worse than its baseline seed",
                r.name
            );
            failed = true;
        }
    }
    if pf.min_anytime_speedup < 3.0 {
        eprintln!(
            "FAIL: portfolio anytime speedup {:.2}x < 3x target",
            pf.min_anytime_speedup
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
