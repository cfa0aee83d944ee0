//! Fleet-evaluation scaling bench and perf-trajectory gate.
//!
//! The claim under test: batched fleet evaluation on the single-threaded
//! contention replay stays bit-deterministic and runs **allocation-free**
//! in the steady state.
//!
//! The bench builds ≥200 (workload, assignment, iterations) scenarios —
//! several model pairs, each with every baseline assignment plus seeded
//! random valid assignments — and evaluates the whole fleet two ways:
//!
//! 1. batch at full worker count (best wall of [`DES_RUNS`] timed passes
//!    after a full warmup pass; every pass must produce byte-identical
//!    reports — that is the determinism contract),
//! 2. batch at one worker (reports must match the full-width run
//!    bit-for-bit: worker count must not influence results).
//!
//! When built with `--features alloc-truth` the counting global allocator
//! is live and two further claims are machine-checked:
//!
//! * a warmed-up [`DesRunner`] re-running the whole fleet — stage, replay,
//!   read each view — performs **zero** heap allocations
//!   (`allocs_per_scenario_steady == 0`), with every view bit-identical to
//!   `evaluate_fleet`'s report, and
//! * a warm B&B re-solve of a real `ScheduleEncoding` at an upper bound
//!   equal to the known optimum expands its whole tree with **zero**
//!   allocations (`bb_expansion.allocs == 0`),
//! * the steady-state runner loop holds a ≥1.2× scenarios/sec uplift over
//!   the pre-PR-7 baseline of `BASELINE_SCENARIOS_PER_SEC` (the seed's
//!   report-collecting batch on the same scenario set).
//!
//! Gates: ≥200 scenarios, all report sets bit-identical, plus (under
//! `alloc-truth`) the three allocation/uplift gates above. The measurement
//! is written to `BENCH_runtime.json` at the repo root; any gate failure
//! exits non-zero.
//!
//! Usage: `runtime_scaling [candidates_per_workload]` (default 70 → 210
//! scenarios across 3 workloads).

use haxconn_contention::ContentionModel;
use haxconn_core::baselines::{Baseline, BaselineKind};
use haxconn_core::encoding::ScheduleEncoding;
use haxconn_core::problem::{DnnTask, SchedulerConfig, Workload};
use haxconn_dnn::Model;
use haxconn_profiler::NetworkProfile;
use haxconn_runtime::{evaluate_fleet, DesRunner, FleetOptions, FleetReport, FleetScenario};
use haxconn_soc::{orin_agx, PuId};
use haxconn_solver::{solve_with, SolveOptions, Workspace};
use haxconn_telemetry::alloc::{is_counting, AllocGuard};
use serde::Serialize;

const GROUPS: usize = 6;
const ITERATIONS: usize = 2;

/// Timed full-width DES passes (after a full warmup pass); the fastest
/// wall wins. A full DES batch is ~1 ms of wall time, so transient CPU
/// steal on a shared host routinely triples individual passes — the seed
/// measured `des_repeat` 11% slower than `des` purely from first-touch
/// and timing jitter. Many cheap passes make the minimum a stable
/// estimator of the machine's true throughput.
const DES_RUNS: usize = 25;

/// Full-width DES throughput measured at the PR-7 baseline (seed of this
/// change), scenarios/sec. The `alloc-truth` gate requires a ≥1.2× uplift
/// over this. Absolute throughput is machine-dependent, so the gate is
/// enforced only in the calibrated configuration (same machine class as
/// the committed BENCH_runtime.json); without `alloc-truth` the uplift is
/// reported but not gated.
const BASELINE_SCENARIOS_PER_SEC: f64 = 177472.9374898059;

/// Minimum uplift over [`BASELINE_SCENARIOS_PER_SEC`] gated under
/// `alloc-truth`.
const UPLIFT_GATE: f64 = 1.2;

/// Deterministic xorshift64 — the repo's offline `rand` stand-in.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Baseline assignments plus seeded random valid assignments, `count`
/// total, for one workload.
fn candidates(
    platform: &haxconn_soc::Platform,
    workload: &Workload,
    count: usize,
) -> Vec<Vec<Vec<PuId>>> {
    let mut out: Vec<Vec<Vec<PuId>>> = BaselineKind::all()
        .iter()
        .map(|&kind| Baseline::assignment(kind, platform, workload))
        .collect();
    out.truncate(count);
    let mut rng = Rng(0x5EED | 1);
    while out.len() < count {
        out.push(
            workload
                .tasks
                .iter()
                .map(|t| {
                    t.profile
                        .groups
                        .iter()
                        .map(|g| {
                            let pus = g.supported_pus();
                            pus[rng.next() as usize % pus.len()]
                        })
                        .collect()
                })
                .collect(),
        );
    }
    out
}

fn fleets_identical(a: &FleetReport, b: &FleetReport) -> bool {
    a.reports.len() == b.reports.len()
        && a.reports
            .iter()
            .zip(b.reports.iter())
            .all(|(x, y)| x.view().same_bits(&y.view()))
}

#[derive(Serialize)]
struct FleetRun {
    workers: usize,
    wall_ms: f64,
    scenarios_per_sec: f64,
}

fn run_of(fleet: &FleetReport) -> FleetRun {
    FleetRun {
        workers: fleet.workers,
        wall_ms: fleet.wall_ms,
        scenarios_per_sec: fleet.throughput_per_sec(),
    }
}

/// Allocation-truth measurements. All counters are zero (and `enabled`
/// false) when the `alloc-truth` feature is not compiled in — the fields
/// then describe what *would* be gated, not a verified claim.
#[derive(Serialize)]
struct AllocTruthReport {
    /// Whether the counting global allocator was live for this run.
    enabled: bool,
    /// Heap allocations during one full steady-state fleet pass (one warm
    /// `DesRunner` staging, replaying and reading every scenario, after a
    /// warmup pass over the same scenarios).
    des_steady: AllocSample,
    /// `des_steady.allocs / scenarios` — the headline gate (must be 0).
    allocs_per_scenario_steady: f64,
    /// Heap allocations during a warm B&B re-solve of a real
    /// `ScheduleEncoding` at `initial_upper_bound == optimum`: the full
    /// tree is expanded (every node visited, every bound evaluated) with
    /// no incumbent ever cloned.
    bb_expansion: BbExpansionSample,
    /// Every view of the steady-state pass matches `evaluate_fleet`'s
    /// report of the same scenario bit-for-bit.
    steady_views_bit_identical: bool,
}

#[derive(Serialize)]
struct AllocSample {
    allocs: u64,
    bytes: u64,
    /// Wall time of the gated steady-state pass, ms.
    wall_ms: f64,
    /// Scenarios/sec of the zero-copy runner loop (single-threaded).
    scenarios_per_sec: f64,
}

#[derive(Serialize)]
struct BbExpansionSample {
    allocs: u64,
    bytes: u64,
    /// Nodes expanded during the gated warm re-solve.
    nodes: u64,
}

#[derive(Serialize)]
struct Report {
    generated_by: String,
    scenarios: usize,
    iterations: usize,
    groups_per_dnn: usize,
    /// Timed full-width DES passes behind `des` (best wall wins).
    des_timed_runs: usize,
    workloads: Vec<Vec<String>>,
    des: FleetRun,
    des_repeat: FleetRun,
    des_single_worker: FleetRun,
    /// Pre-PR-7 full-width DES throughput on the calibration machine.
    baseline_scenarios_per_sec: f64,
    /// `alloc_truth.des_steady.scenarios_per_sec /
    /// baseline_scenarios_per_sec` — the zero-copy runner loop against the
    /// seed's report-collecting batch on the same scenario set.
    uplift_vs_baseline: f64,
    reports_bit_identical: bool,
    alloc_truth: AllocTruthReport,
}

/// Measures the steady-state allocation behaviour and throughput of the
/// zero-copy fleet path — one warm [`DesRunner`] staging and replaying
/// each scenario and reading its view — and checks every view against the
/// allocating `evaluate_fleet` reference. The timed passes read each
/// view's makespan, as a search loop scoring candidates does
/// (`HaxConn::try_schedule_validated`); one more pass compares every field
/// with the reference. Every post-warmup pass runs under an allocation
/// guard (the counters must read 0 on each one); the best wall of
/// [`DES_RUNS`] timed passes is the throughput estimate, same protocol as
/// the `des` trajectory number. Returns `(sample, per_scenario,
/// identical)`.
fn measure_des_steady(
    platform: &haxconn_soc::Platform,
    scenarios: &[FleetScenario],
    reference: &FleetReport,
) -> (AllocSample, f64, bool) {
    let mut runner = DesRunner::new();
    // Warmup: grows every staging/workspace buffer to steady state.
    for sc in scenarios {
        runner.run(platform, sc.workload, &sc.assignment, sc.iterations);
    }

    let mut best_wall_ms = f64::INFINITY;
    let mut worst = haxconn_telemetry::alloc::AllocStats::default();
    for _ in 0..DES_RUNS {
        let started = std::time::Instant::now();
        let guard = AllocGuard::begin("bench.des_steady");
        let mut total_ms = 0.0;
        for sc in scenarios {
            total_ms += runner
                .run(platform, sc.workload, &sc.assignment, sc.iterations)
                .makespan_ms;
        }
        std::hint::black_box(total_ms);
        let stats = guard.finish();
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        best_wall_ms = best_wall_ms.min(wall_ms);
        if stats.count > worst.count {
            worst = stats;
        }
    }

    let guard = AllocGuard::begin("bench.des_steady");
    let identical = reference.reports.len() == scenarios.len()
        && scenarios.iter().zip(&reference.reports).all(|(sc, want)| {
            runner
                .run(platform, sc.workload, &sc.assignment, sc.iterations)
                .same_bits(&want.view())
        });
    let stats = guard.finish();
    if stats.count > worst.count {
        worst = stats;
    }

    let per_scenario = worst.count as f64 / scenarios.len().max(1) as f64;
    (
        AllocSample {
            allocs: worst.count,
            bytes: worst.bytes,
            wall_ms: best_wall_ms,
            scenarios_per_sec: 1000.0 * scenarios.len() as f64 / best_wall_ms.max(1e-9),
        },
        per_scenario,
        identical,
    )
}

/// Measures allocations during a warm B&B re-solve of a real schedule
/// encoding. The cold solve finds the optimum; the warm re-solve starts
/// at `initial_upper_bound == optimum`, so every leaf is pruned by
/// `bound >= ub` before an incumbent clone — the entire expansion must
/// come out of the caller-owned `Workspace`.
fn measure_bb_expansion(platform: &haxconn_soc::Platform) -> BbExpansionSample {
    let models = [Model::GoogleNet, Model::ResNet50];
    let workload = Workload::concurrent(
        models
            .iter()
            .map(|&m| DnnTask::new(m.name(), NetworkProfile::profile(platform, m, GROUPS)))
            .collect(),
    );
    let contention = ContentionModel::calibrate(platform);
    let config = SchedulerConfig {
        epsilon_ms: None,
        max_transitions_per_task: 1,
        ..Default::default()
    };
    let enc = ScheduleEncoding::new(&workload, &contention, config);

    let mut ws = Workspace::new(&enc);
    let cold = solve_with(&enc, SolveOptions::default(), &mut ws);
    assert!(cold.proven_optimal(), "cold solve must exhaust the space");
    let optimum = cold.best.expect("feasible schedule").1;

    let warm_opts = || SolveOptions {
        initial_upper_bound: Some(optimum),
        ..Default::default()
    };
    // One warm pass outside the guard: lazily grown scratch (the
    // encoding's internal caches) reaches steady state.
    let _ = solve_with(&enc, warm_opts(), &mut ws);

    let guard = AllocGuard::begin("bench.bb_expansion");
    let gated = solve_with(&enc, warm_opts(), &mut ws);
    let stats = guard.finish();
    assert!(
        gated.proven_optimal(),
        "warm re-solve must exhaust the space"
    );

    BbExpansionSample {
        allocs: stats.count,
        bytes: stats.bytes,
        nodes: gated.stats.nodes,
    }
}

fn main() {
    let per_workload: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("candidates_per_workload"))
        .unwrap_or(70);

    let platform = orin_agx();
    let pairs: [[Model; 2]; 3] = [
        [Model::GoogleNet, Model::ResNet18],
        [Model::AlexNet, Model::MobileNetV1],
        [Model::ResNet50, Model::GoogleNet],
    ];
    let workloads: Vec<Workload> = pairs
        .iter()
        .map(|pair| {
            Workload::concurrent(
                pair.iter()
                    .map(|&m| DnnTask::new(m.name(), NetworkProfile::profile(&platform, m, GROUPS)))
                    .collect(),
            )
        })
        .collect();
    let assignments: Vec<Vec<Vec<Vec<PuId>>>> = workloads
        .iter()
        .map(|w| candidates(&platform, w, per_workload))
        .collect();
    let scenarios: Vec<FleetScenario> = workloads
        .iter()
        .zip(assignments.iter())
        .flat_map(|(w, cands)| {
            cands.iter().map(move |a| FleetScenario {
                workload: w,
                assignment: a.clone(),
                iterations: ITERATIONS,
            })
        })
        .collect();

    let des_opts = FleetOptions { threads: None };
    let single_opts = FleetOptions { threads: Some(1) };

    // Warmup: one *full* pass per path (first-touch of every workload's
    // profile tables, thread pool spin-up, allocator steady state).
    let _ = evaluate_fleet(&platform, &scenarios, des_opts);
    let _ = evaluate_fleet(&platform, &scenarios, single_opts);

    // Best-of-N full-width DES passes. Every pass must agree bit-for-bit;
    // the two fastest become `des` / `des_repeat`.
    let mut des_runs: Vec<FleetReport> = (0..DES_RUNS)
        .map(|_| evaluate_fleet(&platform, &scenarios, des_opts))
        .collect();
    let mut identical = des_runs.windows(2).all(|w| fleets_identical(&w[0], &w[1]));
    des_runs.sort_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms));
    let des_b = des_runs.remove(1);
    let des_a = des_runs.remove(0);

    let des_one = (0..DES_RUNS / 5 + 1)
        .map(|_| evaluate_fleet(&platform, &scenarios, single_opts))
        .min_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms))
        .expect("at least one single-worker pass");
    identical = identical && fleets_identical(&des_a, &des_one);

    let (des_steady, per_scenario, steady_identical) =
        measure_des_steady(&platform, &scenarios, &des_a);
    let bb_expansion = measure_bb_expansion(&platform);

    // The uplift claim is about the *measurement backend*: the zero-copy
    // runner loop replaces the report-collecting batch as the hot loop of
    // schedule search, evaluated on the same scenarios the baseline
    // constant was calibrated on.
    let steady_rate = des_steady.scenarios_per_sec;
    let uplift = steady_rate / BASELINE_SCENARIOS_PER_SEC;

    let out = Report {
        generated_by: "runtime_scaling".to_string(),
        scenarios: scenarios.len(),
        iterations: ITERATIONS,
        groups_per_dnn: GROUPS,
        des_timed_runs: DES_RUNS,
        workloads: pairs
            .iter()
            .map(|pair| pair.iter().map(|m| m.name().to_string()).collect())
            .collect(),
        des: run_of(&des_a),
        des_repeat: run_of(&des_b),
        des_single_worker: run_of(&des_one),
        baseline_scenarios_per_sec: BASELINE_SCENARIOS_PER_SEC,
        uplift_vs_baseline: uplift,
        reports_bit_identical: identical,
        alloc_truth: AllocTruthReport {
            enabled: is_counting(),
            des_steady,
            allocs_per_scenario_steady: per_scenario,
            bb_expansion,
            steady_views_bit_identical: steady_identical,
        },
    };
    let json = serde_json::to_string_pretty(&out).expect("serialize");
    println!("{json}");
    let bench_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_runtime.json");
    std::fs::write(bench_path, format!("{json}\n")).expect("write BENCH_runtime.json");
    eprintln!("wrote {bench_path}");

    let mut failed = false;
    if out.scenarios < 200 {
        eprintln!("FAIL: only {} scenarios (< 200 target)", out.scenarios);
        failed = true;
    }
    if !identical {
        eprintln!("FAIL: fleet reports are not bit-identical across runs/worker counts");
        failed = true;
    }
    if !steady_identical {
        eprintln!("FAIL: steady-state runner views diverge from evaluate_fleet reports");
        failed = true;
    }
    if is_counting() {
        // Allocation truth is only a verified claim when the counting
        // allocator is live; the uplift gate rides along because the
        // baseline constant was calibrated in this same configuration.
        if out.alloc_truth.des_steady.allocs != 0 {
            eprintln!(
                "FAIL: steady-state fleet pass performed {} allocations ({} bytes); gate is 0",
                out.alloc_truth.des_steady.allocs, out.alloc_truth.des_steady.bytes
            );
            failed = true;
        }
        if out.alloc_truth.bb_expansion.allocs != 0 {
            eprintln!(
                "FAIL: warm B&B expansion performed {} allocations ({} bytes) over {} nodes; gate is 0",
                out.alloc_truth.bb_expansion.allocs,
                out.alloc_truth.bb_expansion.bytes,
                out.alloc_truth.bb_expansion.nodes
            );
            failed = true;
        }
        if uplift < UPLIFT_GATE {
            eprintln!(
                "FAIL: steady-state DES throughput {steady_rate:.0}/s is {uplift:.3}x baseline (< {UPLIFT_GATE}x gate)"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
