//! Deterministic differential fuzzing of the scheduling stack.
//!
//! Each scenario draws a small random workload (seeded xorshift64* — the
//! whole run is reproducible from one seed), solves it four independent
//! ways, and cross-checks the results:
//!
//! 1. sequential branch & bound (`solve`),
//! 2. the work-stealing worker pool (`solve_parallel_with`) at every
//!    configured thread count, and once with an LNS worker racing it —
//!    must prove and match the sequential result *bit-exactly* (cost bits
//!    and assignment),
//! 3. exhaustive enumeration (`brute_force`) — the oracle: same optimum,
//! 4. every baseline — the solver's optimum must be no worse than any
//!    ε-feasible baseline under the same predictive cost.
//!
//! Every schedule the stack emits (solver winners and baselines alike) is
//! run through the invariant validator; a single violation or divergence
//! fails the run. Solver winners are additionally executed twice, and the
//! two reports must hold the same bits in every field — the replay's
//! determinism contract. Small workloads keep exhaustive enumeration
//! cheap, so hundreds of scenarios complete in seconds in release builds —
//! CI runs 500 on a fixed seed.

use haxconn_contention::ContentionModel;
use haxconn_core::scheduler::objective_cost;
use haxconn_core::validate::{validate_schedule, validate_timeline, Violation};
use haxconn_core::{
    parse_model, replay_arrivals, ArrivalTrace, Baseline, BaselineKind, DnnTask, HaxConn,
    Objective, ReplayOptions, ResolveAction, ResolvePolicy, ScheduleEncoding, SchedulerConfig,
    TenantEvent, TimelineEvaluator, Workload,
};
use haxconn_dnn::Model;
use haxconn_profiler::NetworkProfile;
use haxconn_runtime::execute;
use haxconn_soc::{orin_agx, snapdragon_865, xavier_agx, Platform};
use haxconn_solver::{brute_force, solve, solve_parallel_with, ParallelOptions, SolveOptions};
use rustc_hash::FxHashMap;
use std::fmt;
use std::sync::Arc;

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
    /// Schedules executed twice: the repeat run must agree with the first
    /// bit-for-bit.
    pub executions_checked: usize,
    /// Incumbents of the B&B/LNS race validated against the encoding
    /// (large-instance mode). Not printed: how many the race publishes
    /// depends on thread timing, and the report line is diffed across runs.
    pub incumbents_validated: usize,
    /// Re-solve points adopted by the arrival replay's throttle and
    /// re-checked from scratch (arrival mode).
    pub throttled_rechecked: usize,
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
            "fuzz: {} scenarios, {} schedules validated, {} executions checked (replayed twice, bit-identical), {} throttled re-solve points re-checked, {} divergences, {} violations",
            self.scenarios,
            self.schedules_validated,
            self.executions_checked,
            self.throttled_rechecked,
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
    profiles: FxHashMap<(usize, Model, usize), Arc<NetworkProfile>>,
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

    fn profile(&mut self, platform_idx: usize, model: Model, groups: usize) -> Arc<NetworkProfile> {
        let platform = &self.platforms[platform_idx].0;
        Arc::clone(
            self.profiles
                .entry((platform_idx, model, groups))
                .or_insert_with(|| Arc::new(NetworkProfile::profile(platform, model, groups))),
        )
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
        // The pool at every configured thread count, and once with an LNS
        // worker racing its B&B workers, run to completion, must agree with
        // sequential B&B bit-exactly *and* certify its result as proven
        // optimal — the certificate is load-bearing for downstream
        // consumers.
        let pools = config
            .thread_counts
            .iter()
            .map(|&threads| ParallelOptions {
                threads,
                ..Default::default()
            })
            .chain([ParallelOptions {
                lns_workers: 1,
                ..Default::default()
            }]);
        for par in pools {
            let sol = solve_parallel_with(&enc, SolveOptions::default(), &par);
            let pool = format!("pool({} threads, {} LNS)", par.threads, par.lns_workers);
            if !sol.proven_optimal() {
                diverge(
                    format!("unbudgeted {pool} failed to prove optimality"),
                    &mut report,
                );
            }
            match (&seq.best, &sol.best) {
                (Some((sa, sc)), Some((pa, pc))) => {
                    if sc.to_bits() != pc.to_bits() || sa != pa {
                        diverge(format!("{pool} cost {pc} != sequential {sc}"), &mut report);
                    }
                }
                (None, None) => {}
                (s, p) => diverge(
                    format!(
                        "feasibility disagreement in {pool}: seq={}, pool={}",
                        s.is_some(),
                        p.is_some()
                    ),
                    &mut report,
                ),
            }
        }

        // --- Full scheduler path: emitted schedules must validate. -----
        let full = HaxConn::try_schedule(&platform, &workload, &model, cfg);
        if let Ok(schedule) = &full {
            let vr = validate_schedule(&platform, &workload, &cfg, schedule);
            report.schedules_validated += 1;
            for v in vr.violations {
                report.violations.push((scenario, v));
            }

            // --- Replay: bit-deterministic in every field. --------------
            let a = execute(&platform, &workload, &schedule.assignment);
            let b = execute(&platform, &workload, &schedule.assignment);
            if !a.view().same_bits(&b.view()) {
                diverge(
                    format!(
                        "replay nondeterministic: makespan {} vs {}",
                        a.makespan_ms, b.makespan_ms
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
            // The optimum can be no worse than any baseline under the
            // encoding's own cost (`enc.cost` tiers ε-violating ones).
            let base_cost = enc
                .to_flat(&assignment)
                .and_then(|f| haxconn_solver::CostModel::cost(&enc, &f));
            if let (Some(sc), Some(bc)) = (solver_cost, base_cost) {
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

/// Large-instance fuzzing of the B&B/LNS race.
///
/// Exhaustive oracles are out of reach at 50+ decision variables, so this
/// mode checks the *anytime* contract instead. Each generated instance
/// (random layer-group DAG on the dual-DLA Orin, from
/// [`haxconn_core::generate_instance`]) is solved by the worker pool with
/// two LNS workers under a node budget, seeded with the best baseline
/// ([`haxconn_core::GeneratedInstance::best_baseline`]), and the run
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

        let Some((seed_a, seed_c)) = g.best_baseline(&enc) else {
            diverge(
                "no feasible baseline on a generated instance".into(),
                &mut report,
            );
            continue;
        };

        let outcome = solve_parallel_with(
            &enc,
            SolveOptions {
                node_budget: Some(node_budget),
                initial_incumbent: Some((seed_a, seed_c)),
                ..Default::default()
            },
            &ParallelOptions {
                lns_workers: 2,
                ..Default::default()
            },
        );

        let mut prev = f64::INFINITY;
        for (a, c, _) in &outcome.trace {
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
                        format!("B&B/LNS race {c} worse than best baseline {seed_c}"),
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
                "B&B/LNS race lost the baseline seed entirely".into(),
                &mut report,
            ),
        }
        report.scenarios += 1;
    }
    haxconn_telemetry::counter_add("check.fuzz_large_instances", report.scenarios as u64);
    report
}

/// Event cap of [`run_arrival`]'s Snapdragon 865 traces.
const THROTTLE_TRACE_EVENTS: usize = 16;

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
/// Every fourth trace is a short (at most 16 events) four-tenant trace on
/// the Snapdragon 865, whose two PUs run out of deadline slack often
/// enough for the throttle to intervene; the Orin traces of at most three
/// tenants rarely reach it. The report counts the throttled points
/// re-checked, since whether a trace throttles depends on its seed.
pub fn run_arrival(seed: u64, traces: usize, events_per_trace: usize) -> FuzzReport {
    let platforms = [orin_agx(), snapdragon_865()];
    let models = platforms.each_ref().map(ContentionModel::calibrate);
    let mut profiles: [FxHashMap<(Model, usize), Arc<NetworkProfile>>; 2] = Default::default();
    let mut report = FuzzReport::default();

    for i in 0..traces {
        let scenario = i;
        let diverge = |detail: String, report: &mut FuzzReport| {
            report.divergences.push(Divergence { scenario, detail });
        };
        let (target, events, tenants) = if i % 4 == 3 {
            (1, events_per_trace.min(THROTTLE_TRACE_EVENTS), 4)
        } else {
            (0, events_per_trace, 3)
        };
        let (platform, cm) = (&platforms[target], &models[target]);
        let profiles = &mut profiles[target];
        let trace = ArrivalTrace::generate(seed.wrapping_add(i as u64), events, tenants);
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
        let a = match replay_arrivals(platform, cm, &trace, &opts) {
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
        match replay_arrivals(platform, cm, &trace, &opts) {
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
        match replay_arrivals(platform, cm, &trace, &wide) {
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
                let profile =
                    Arc::clone(profiles.entry((model, groups)).or_insert_with(|| {
                        Arc::new(NetworkProfile::profile(platform, model, groups))
                    }));
                tasks.push(DnnTask::new(name.clone(), profile));
            }
            if !known {
                continue;
            }
            let workload = Workload::concurrent(tasks);
            let mut ev = TimelineEvaluator::new(&workload, cm);
            ev.contention_aware = opts.config.contention_aware;
            let tl = ev.evaluate(&rp.assignment);
            let vr = validate_timeline(&workload, &rp.assignment, &tl);
            report.schedules_validated += 1;
            report.throttled_rechecked += usize::from(rp.action == ResolveAction::Throttled);
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
        assert!(a.incumbents_validated >= 1, "no incumbent was re-checked");
        let b = run_large(3, 2, 20_000);
        assert_eq!(a.schedules_validated, b.schedules_validated);
        assert!(b.is_clean(), "{b}");
    }

    #[test]
    fn arrival_run_is_clean_and_deterministic() {
        // Four traces: three 40-event Orin traces, then the 16-event
        // Snapdragon 865 one that reaches the throttle.
        let a = run_arrival(5, 4, 40);
        assert!(a.is_clean(), "{a}");
        assert_eq!(a.scenarios, 4);
        assert!(
            a.schedules_validated >= 4,
            "expected re-solve points to be re-validated, got {}",
            a.schedules_validated
        );
        assert!(
            a.throttled_rechecked >= 1,
            "expected a throttled re-solve point to be re-checked: {a}"
        );
        let b = run_arrival(5, 4, 40);
        assert_eq!(a.schedules_validated, b.schedules_validated);
        assert_eq!(a.throttled_rechecked, b.throttled_rechecked);
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
