//! Deterministic differential fuzzing of the scheduling stack.
//!
//! Each scenario draws a small random workload (seeded xorshift64* — the
//! whole run is reproducible from one seed), solves it four independent
//! ways, and cross-checks the results:
//!
//! 1. sequential branch & bound (`solve`),
//! 2. the work-stealing parallel solver (`solve_parallel_with`) at every
//!    configured thread count — must match the sequential result
//!    *bit-exactly* (cost bits and assignment),
//! 3. exhaustive enumeration (`brute_force`) — the oracle: same optimum,
//! 4. every baseline — the solver's optimum must be no worse than any
//!    ε-feasible baseline under the same predictive cost.
//!
//! Every schedule the stack emits (solver winners and baselines alike) is
//! run through the invariant validator; a single violation or divergence
//! fails the run. Solver winners are additionally executed twice (must be
//! bit-identical — the determinism contract) and measured, and the
//! measured makespan must be the executed makespan's exact bits: both are
//! views of the one contention replay. Small workloads keep exhaustive
//! enumeration cheap, so
//! hundreds of scenarios complete in seconds in release builds — CI runs
//! 500 on a fixed seed.

use haxconn_contention::ContentionModel;
use haxconn_core::scheduler::objective_cost;
use haxconn_core::validate::{validate_schedule, validate_timeline, Violation};
use haxconn_core::{
    parse_model, replay_arrivals, ArrivalTrace, Baseline, BaselineKind, DnnTask, HaxConn,
    Objective, ReplayOptions, ResolvePolicy, ScheduleEncoding, SchedulerConfig, TenantEvent,
    TimelineEvaluator, Workload,
};
use haxconn_dnn::Model;
use haxconn_profiler::NetworkProfile;
use haxconn_runtime::execute;
use haxconn_soc::{orin_agx, snapdragon_865, xavier_agx, Platform};
use haxconn_solver::{
    brute_force, solve, solve_parallel_with, solve_portfolio, Exactness, ParallelOptions,
    PortfolioOptions, SolveOptions,
};
use rustc_hash::FxHashMap;
use std::fmt;

/// Deterministic xorshift64* generator — the same offline idiom the
/// property tests use (no external `rand`).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn usize(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo + 1)
    }

    fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// Fuzzer configuration. `Default` matches the CI run shape (500 scenarios
/// would be passed explicitly; the default is a quick smoke).
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; the entire run is a pure function of it.
    pub seed: u64,
    /// Number of scenarios to generate.
    pub scenarios: usize,
    /// Worker-thread counts the parallel solver is cross-checked at.
    pub thread_counts: Vec<usize>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 42,
            scenarios: 50,
            thread_counts: vec![2, 4],
        }
    }
}

/// One disagreement between two solve paths that must match.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Scenario index (0-based) within the run.
    pub scenario: usize,
    /// What disagreed with what, and by how much.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario {}: {}", self.scenario, self.detail)
    }
}

/// Outcome of a fuzzing run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Scenarios executed.
    pub scenarios: usize,
    /// Schedules/timelines run through the validator.
    pub schedules_validated: usize,
    /// Schedules executed twice and measured once: repeat runs and
    /// `measure` must agree with `execute` bit-for-bit.
    pub executions_checked: usize,
    /// Portfolio incumbents validated against the encoding (large-instance
    /// mode).
    pub incumbents_validated: usize,
    /// Solver-vs-solver/oracle/baseline disagreements (must be empty).
    pub divergences: Vec<Divergence>,
    /// Validator violations, tagged with their scenario (must be empty).
    pub violations: Vec<(usize, Violation)>,
}

impl FuzzReport {
    /// Whether the run found no divergences and no violations.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty() && self.violations.is_empty()
    }
}

impl fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fuzz: {} scenarios, {} schedules validated, {} executions checked (measure == execute bit-for-bit), {} incumbents validated, {} divergences, {} violations",
            self.scenarios,
            self.schedules_validated,
            self.executions_checked,
            self.incumbents_validated,
            self.divergences.len(),
            self.violations.len()
        )?;
        for d in &self.divergences {
            writeln!(f, "  divergence: {d}")?;
        }
        for (s, v) in &self.violations {
            writeln!(f, "  violation (scenario {s}): {v}")?;
        }
        Ok(())
    }
}

/// The small-model pool: cheap to profile, diverse in structure (LRN-pinned
/// stem groups in GoogleNet, depthwise chains in MobileNet, plain residual
/// chains in ResNet-18).
const MODELS: &[Model] = &[
    Model::AlexNet,
    Model::GoogleNet,
    Model::ResNet18,
    Model::MobileNetV1,
];

/// Profiles are deterministic in `(platform, model, groups)`, so the
/// fuzzer memoizes them — profiling dominates scenario cost otherwise.
struct ScenarioFactory {
    platforms: Vec<(Platform, ContentionModel)>,
    profiles: FxHashMap<(usize, Model, usize), NetworkProfile>,
}

impl ScenarioFactory {
    fn new() -> Self {
        let platforms = [orin_agx(), xavier_agx(), snapdragon_865()]
            .into_iter()
            .map(|p| {
                let cm = ContentionModel::calibrate(&p);
                (p, cm)
            })
            .collect();
        ScenarioFactory {
            platforms,
            profiles: FxHashMap::default(),
        }
    }

    fn profile(&mut self, platform_idx: usize, model: Model, groups: usize) -> NetworkProfile {
        let platform = &self.platforms[platform_idx].0;
        self.profiles
            .entry((platform_idx, model, groups))
            .or_insert_with(|| NetworkProfile::profile(platform, model, groups))
            .clone()
    }
}

/// Runs the differential fuzzer. Deterministic in `config` — same config,
/// same report.
pub fn run(config: &FuzzConfig) -> FuzzReport {
    let mut rng = Rng::new(config.seed);
    let mut factory = ScenarioFactory::new();
    let mut report = FuzzReport::default();

    for scenario in 0..config.scenarios {
        // --- Draw a scenario. -------------------------------------------
        let platform_idx = rng.usize(0, factory.platforms.len() - 1);
        let n_tasks = rng.usize(1, 2);
        let groups = rng.usize(2, 4);
        let tasks: Vec<DnnTask> = (0..n_tasks)
            .map(|i| {
                let model = MODELS[rng.usize(0, MODELS.len() - 1)];
                let profile = factory.profile(platform_idx, model, groups);
                DnnTask::new(format!("{}#{i}", model.name()), profile)
            })
            .collect();
        let mut workload = Workload::concurrent(tasks);
        if n_tasks == 2 && rng.usize(0, 3) == 0 {
            workload = workload.with_dep(0, 1);
        }
        let objective = if rng.bool() {
            Objective::MinMaxLatency
        } else {
            Objective::MaxThroughput
        };
        let cfg = SchedulerConfig {
            objective,
            epsilon_ms: if rng.bool() { Some(0.35) } else { None },
            max_transitions_per_task: rng.usize(1, 2),
            ..Default::default()
        };
        let (platform, model) = {
            let (p, cm) = &factory.platforms[platform_idx];
            (p.clone(), cm.clone())
        };

        let diverge = |detail: String, report: &mut FuzzReport| {
            report.divergences.push(Divergence { scenario, detail });
        };

        // --- Cross-check the three solve paths on the raw encoding. ------
        let enc = ScheduleEncoding::new(&workload, &model, cfg);
        let seq = solve(&enc, SolveOptions::default());
        let oracle = brute_force(&enc);
        match (&seq.best, &oracle) {
            (Some((sa, sc)), Some((oa, oc))) => {
                if sc.to_bits() != oc.to_bits() || sa != oa {
                    diverge(
                        format!("sequential B&B ({sc}) != exhaustive oracle ({oc})"),
                        &mut report,
                    );
                }
            }
            (None, None) => {}
            (s, o) => diverge(
                format!(
                    "feasibility disagreement: sequential found={}, oracle found={}",
                    s.is_some(),
                    o.is_some()
                ),
                &mut report,
            ),
        }
        // The portfolio, run to completion, must agree with sequential B&B
        // bit-exactly *and* certify its result as proven optimal — the
        // exactness tag is load-bearing for downstream consumers.
        let pf = solve_portfolio(&enc, SolveOptions::default(), &PortfolioOptions::default());
        if pf.exactness != Exactness::Proven {
            diverge(
                "unbudgeted portfolio failed to prove optimality".into(),
                &mut report,
            );
        }
        match (&seq.best, &pf.best) {
            (Some((sa, sc)), Some((pa, pc))) => {
                if sc.to_bits() != pc.to_bits() || sa != pa {
                    diverge(
                        format!("portfolio cost {pc} != sequential {sc}"),
                        &mut report,
                    );
                }
            }
            (None, None) => {}
            (s, p) => diverge(
                format!(
                    "portfolio feasibility disagreement: seq={}, portfolio={}",
                    s.is_some(),
                    p.is_some()
                ),
                &mut report,
            ),
        }
        for &threads in &config.thread_counts {
            let par = solve_parallel_with(
                &enc,
                SolveOptions::default(),
                &ParallelOptions {
                    threads,
                    ..Default::default()
                },
            );
            match (&seq.best, &par.best) {
                (Some((sa, sc)), Some((pa, pc))) => {
                    if sc.to_bits() != pc.to_bits() || sa != pa {
                        diverge(
                            format!("parallel({threads} threads) cost {pc} != sequential {sc}"),
                            &mut report,
                        );
                    }
                }
                (None, None) => {}
                (s, p) => diverge(
                    format!(
                        "feasibility disagreement at {threads} threads: seq={}, par={}",
                        s.is_some(),
                        p.is_some()
                    ),
                    &mut report,
                ),
            }
        }

        // --- Full scheduler path: emitted schedules must validate, and
        // sequential/parallel configs must agree. -------------------------
        let full_seq = HaxConn::try_schedule(&platform, &workload, &model, cfg);
        let full_par = HaxConn::try_schedule(
            &platform,
            &workload,
            &model,
            SchedulerConfig {
                parallel_solve: true,
                ..cfg
            },
        );
        match (&full_seq, &full_par) {
            (Ok(a), Ok(b)) => {
                if a.cost.to_bits() != b.cost.to_bits() || a.assignment != b.assignment {
                    diverge(
                        format!(
                            "HaxConn parallel_solve changed the schedule: {} vs {}",
                            a.cost, b.cost
                        ),
                        &mut report,
                    );
                }
            }
            (Err(_), Err(_)) => {}
            (a, b) => diverge(
                format!(
                    "HaxConn feasibility disagreement: seq ok={}, par ok={}",
                    a.is_ok(),
                    b.is_ok()
                ),
                &mut report,
            ),
        }
        if let Ok(schedule) = &full_seq {
            let vr = validate_schedule(&platform, &workload, &cfg, schedule);
            report.schedules_validated += 1;
            for v in vr.violations {
                report.violations.push((scenario, v));
            }

            // --- Replay: bit-deterministic, and `measure` is the same
            // bits as `execute`. -----------------------------------------
            let a = execute(&platform, &workload, &schedule.assignment);
            let b = execute(&platform, &workload, &schedule.assignment);
            let bit_identical = a.makespan_ms.to_bits() == b.makespan_ms.to_bits()
                && a.task_latency_ms.len() == b.task_latency_ms.len()
                && a.task_latency_ms
                    .iter()
                    .zip(b.task_latency_ms.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits());
            if !bit_identical {
                diverge(
                    format!(
                        "replay nondeterministic: makespan {} vs {}",
                        a.makespan_ms, b.makespan_ms
                    ),
                    &mut report,
                );
            }
            let measured =
                haxconn_core::measure::measure(&platform, &workload, &schedule.assignment);
            if measured.latency_ms.to_bits() != a.makespan_ms.to_bits() {
                diverge(
                    format!(
                        "measure() makespan {:e} ms is not execute()'s {:e} ms",
                        measured.latency_ms, a.makespan_ms
                    ),
                    &mut report,
                );
            }
            report.executions_checked += 1;
        }

        // --- Baselines: validate each, and check never-worse. ------------
        let solver_cost = seq.best.as_ref().map(|&(_, c)| c);
        for &kind in BaselineKind::all() {
            let assignment = Baseline::assignment(kind, &platform, &workload);
            let mut ev = TimelineEvaluator::new(&workload, &model);
            ev.contention_aware = cfg.contention_aware;
            let tl = ev.evaluate(&assignment);
            let vr = validate_timeline(&workload, &assignment, &tl);
            report.schedules_validated += 1;
            for v in vr.violations {
                report.violations.push((scenario, v));
            }
            // The optimum can be no worse than any ε-feasible baseline
            // under the encoding's own cost (`enc.cost` applies Eq. 9).
            let flat: Vec<u32> = assignment
                .iter()
                .flat_map(|row| row.iter().map(|&pu| pu as u32))
                .collect();
            if let (Some(sc), Some(bc)) =
                (solver_cost, haxconn_solver::CostModel::cost(&enc, &flat))
            {
                if sc > bc + 1e-9 {
                    diverge(
                        format!("solver optimum {sc} worse than {kind} baseline {bc}"),
                        &mut report,
                    );
                }
            }
        }

        report.scenarios += 1;
    }

    haxconn_telemetry::counter_add("check.fuzz_scenarios", report.scenarios as u64);
    report
}

/// Large-instance fuzzing of the portfolio solver.
///
/// Exhaustive oracles are out of reach at 50+ decision variables, so this
/// mode checks the *anytime* contract instead. Each generated instance
/// (random layer-group DAG on the dual-DLA Orin, from
/// [`haxconn_core::generate_instance`]) is solved by the portfolio under a
/// node budget, seeded with the best ε-feasible baseline, and the run
/// asserts:
///
/// 1. every incumbent the race publishes re-evaluates to its reported cost
///    bit-exactly on the encoding (i.e. it is a real, feasible schedule —
///    never a torn read off the shared slot),
/// 2. the incumbent timeline is strictly decreasing,
/// 3. the final schedule is no worse than the best baseline (guaranteed by
///    the seeding, so a violation means the incumbent protocol lost it),
/// 4. the winning schedule's predicted timeline passes the invariant
///    validator.
pub fn run_large(seed: u64, instances: usize, node_budget: u64) -> FuzzReport {
    let mut report = FuzzReport::default();
    for i in 0..instances {
        let scenario = i;
        let g = haxconn_core::generate_instance(seed.wrapping_add(i as u64), 6, 9);
        let cm = ContentionModel::calibrate(&g.platform);
        let enc = ScheduleEncoding::new(&g.workload, &cm, g.config);
        let diverge = |detail: String, report: &mut FuzzReport| {
            report.divergences.push(Divergence { scenario, detail });
        };

        // Best feasible baseline under the encoding's own cost (GPU-only
        // has zero transitions, so with ε relaxed one always exists).
        let mut seed_best: Option<(Vec<u32>, f64)> = None;
        for &kind in BaselineKind::all() {
            let rows = Baseline::assignment(kind, &g.platform, &g.workload);
            let flat: Vec<u32> = rows
                .iter()
                .flat_map(|row| row.iter().map(|&pu| pu as u32))
                .collect();
            if let Some(c) = haxconn_solver::CostModel::cost(&enc, &flat) {
                if seed_best.as_ref().is_none_or(|&(_, b)| c < b) {
                    seed_best = Some((flat, c));
                }
            }
        }
        let Some((seed_a, seed_c)) = seed_best else {
            diverge(
                "no feasible baseline on a generated instance".into(),
                &mut report,
            );
            continue;
        };

        let mut incumbents: Vec<(Vec<u32>, f64)> = Vec::new();
        let outcome = solve_portfolio(
            &enc,
            SolveOptions {
                node_budget: Some(node_budget),
                initial_incumbent: Some((seed_a.clone(), seed_c)),
                on_incumbent: Some(Box::new(|a: &Vec<u32>, c, _| {
                    incumbents.push((a.clone(), c));
                })),
                ..Default::default()
            },
            &PortfolioOptions {
                lns_workers: 2,
                ..Default::default()
            },
        );

        let mut prev = f64::INFINITY;
        for (a, c) in &incumbents {
            match haxconn_solver::CostModel::cost(&enc, a) {
                Some(re) if re.to_bits() == c.to_bits() => {}
                Some(re) => diverge(
                    format!("incumbent re-evaluates to {re}, was published as {c}"),
                    &mut report,
                ),
                None => diverge(
                    format!("published incumbent (cost {c}) is infeasible"),
                    &mut report,
                ),
            }
            if *c >= prev {
                diverge(
                    format!("incumbent timeline not strictly decreasing: {c} after {prev}"),
                    &mut report,
                );
            }
            prev = *c;
            report.incumbents_validated += 1;
        }

        match &outcome.best {
            Some((a, c)) => {
                if *c > seed_c + 1e-9 {
                    diverge(
                        format!("portfolio {c} worse than best baseline {seed_c}"),
                        &mut report,
                    );
                }
                let rows = enc.to_rows(a);
                let mut ev = TimelineEvaluator::new(&g.workload, &cm);
                ev.contention_aware = g.config.contention_aware;
                let tl = ev.evaluate(&rows);
                let vr = validate_timeline(&g.workload, &rows, &tl);
                report.schedules_validated += 1;
                for v in vr.violations {
                    report.violations.push((scenario, v));
                }
            }
            None => diverge(
                "portfolio lost the baseline seed entirely".into(),
                &mut report,
            ),
        }
        report.scenarios += 1;
    }
    haxconn_telemetry::counter_add("check.fuzz_large_instances", report.scenarios as u64);
    report
}

/// Arrival-trace fuzzing of the multi-tenant replay engine.
///
/// Each trace is generated deterministically from the seed and replayed
/// with re-solve validation on; the run then cross-checks three contracts:
///
/// 1. **byte determinism** — a second replay with identical options must
///    produce a byte-identical [`haxconn_core::TenantReport::to_json`],
/// 2. **worker independence** — a third replay with a different
///    parallel-solver thread count must also match byte for byte,
/// 3. **re-solve integrity** — every recorded re-solve point is
///    independently re-checked: the adopted assignment is re-evaluated on
///    a freshly built workload, run through the timeline invariant
///    validator, and its recorded objective cost must re-evaluate
///    bit-exactly.
///
/// Policies rotate per trace (Immediate / Debounced / UtilityThreshold) so
/// all re-solve paths — including the skip/patch paths — are exercised.
pub fn run_arrival(seed: u64, traces: usize, events_per_trace: usize) -> FuzzReport {
    let platform = orin_agx();
    let cm = ContentionModel::calibrate(&platform);
    let mut profiles: FxHashMap<(Model, usize), NetworkProfile> = FxHashMap::default();
    let mut report = FuzzReport::default();

    for i in 0..traces {
        let scenario = i;
        let diverge = |detail: String, report: &mut FuzzReport| {
            report.divergences.push(Divergence { scenario, detail });
        };
        let trace = ArrivalTrace::generate(seed.wrapping_add(i as u64), events_per_trace, 3);
        let policy = match i % 3 {
            0 => ResolvePolicy::Immediate,
            1 => ResolvePolicy::Debounced { window_ms: 40.0 },
            _ => ResolvePolicy::UtilityThreshold { min_gain: 0.05 },
        };
        let opts = ReplayOptions {
            policy,
            validate: true,
            record_resolves: true,
            workers: 1,
            ..Default::default()
        };
        let a = match replay_arrivals(&platform, &cm, &trace, &opts) {
            Ok(r) => r,
            Err(e) => {
                diverge(format!("replay failed: {e}"), &mut report);
                continue;
            }
        };
        if a.violations > 0 {
            diverge(
                format!(
                    "replay reported {} invariant violations: {:?}",
                    a.violations, a.violation_samples
                ),
                &mut report,
            );
        }

        // Contract 1: replay is a pure function of (platform, trace, opts).
        match replay_arrivals(&platform, &cm, &trace, &opts) {
            Ok(b) if a.to_json() == b.to_json() => {}
            Ok(_) => diverge(
                "replay not byte-deterministic across runs".into(),
                &mut report,
            ),
            Err(e) => diverge(format!("second replay failed: {e}"), &mut report),
        }

        // Contract 2: the parallel-solver worker count must not matter.
        let wide = ReplayOptions {
            workers: 4,
            ..opts.clone()
        };
        match replay_arrivals(&platform, &cm, &trace, &wide) {
            Ok(c) if a.to_json() == c.to_json() => {}
            Ok(_) => diverge(
                "replay diverged across solver worker counts (1 vs 4)".into(),
                &mut report,
            ),
            Err(e) => diverge(format!("wide replay failed: {e}"), &mut report),
        }
        report.executions_checked += 1;

        // Contract 3: re-check every adopted schedule from scratch.
        let mut specs: FxHashMap<&str, (Model, usize)> = FxHashMap::default();
        for e in &trace.events {
            if let TenantEvent::Join { tenant } = &e.event {
                if let Ok(model) = parse_model(&tenant.model) {
                    specs.insert(tenant.name.as_str(), (model, tenant.groups));
                }
            }
        }
        for rp in &a.resolve_points {
            let mut tasks = Vec::with_capacity(rp.tenants.len());
            let mut known = true;
            for name in &rp.tenants {
                let Some(&(model, groups)) = specs.get(name.as_str()) else {
                    diverge(
                        format!("resolve point references unknown tenant '{name}'"),
                        &mut report,
                    );
                    known = false;
                    break;
                };
                let profile = profiles
                    .entry((model, groups))
                    .or_insert_with(|| NetworkProfile::profile(&platform, model, groups))
                    .clone();
                tasks.push(DnnTask::new(name.clone(), profile));
            }
            if !known {
                continue;
            }
            let workload = Workload::concurrent(tasks);
            let mut ev = TimelineEvaluator::new(&workload, &cm);
            ev.contention_aware = opts.config.contention_aware;
            let tl = ev.evaluate(&rp.assignment);
            let vr = validate_timeline(&workload, &rp.assignment, &tl);
            report.schedules_validated += 1;
            for v in vr.violations {
                report.violations.push((scenario, v));
            }
            let re = objective_cost(opts.config.objective, &tl);
            if re.to_bits() != rp.cost.to_bits() {
                diverge(
                    format!(
                        "resolve point at {} ms: cost re-evaluates to {re}, recorded {}",
                        rp.at_ms, rp.cost
                    ),
                    &mut report,
                );
            }
        }
        report.scenarios += 1;
    }

    haxconn_telemetry::counter_add("check.fuzz_arrival_traces", report.scenarios as u64);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_instance_run_is_clean() {
        let a = run_large(3, 2, 20_000);
        assert!(a.is_clean(), "{a}");
        assert_eq!(a.scenarios, 2);
        assert!(a.schedules_validated >= 2);
        let b = run_large(3, 2, 20_000);
        assert_eq!(a.schedules_validated, b.schedules_validated);
        assert!(b.is_clean(), "{b}");
    }

    #[test]
    fn arrival_run_is_clean_and_deterministic() {
        let a = run_arrival(5, 3, 40);
        assert!(a.is_clean(), "{a}");
        assert_eq!(a.scenarios, 3);
        assert!(
            a.schedules_validated >= 3,
            "expected re-solve points to be re-validated, got {}",
            a.schedules_validated
        );
        let b = run_arrival(5, 3, 40);
        assert_eq!(a.schedules_validated, b.schedules_validated);
        assert!(b.is_clean(), "{b}");
    }

    #[test]
    fn quick_run_is_clean_and_deterministic() {
        let cfg = FuzzConfig {
            seed: 7,
            scenarios: 6,
            thread_counts: vec![2],
        };
        let a = run(&cfg);
        assert!(a.is_clean(), "{a}");
        assert_eq!(a.scenarios, 6);
        assert!(a.schedules_validated >= 6);
        assert!(a.executions_checked >= 1);
        let b = run(&cfg);
        assert_eq!(a.schedules_validated, b.schedules_validated);
        assert_eq!(a.executions_checked, b.executions_checked);
        assert_eq!(a.divergences.len(), b.divergences.len());
    }
}
