//! The schedule-validity subsystem, end to end:
//!
//! 1. **Mutation coverage** — every invariant class the validator claims
//!    to check is proven to actually fire: a valid schedule is corrupted
//!    in exactly one way and the matching class must be reported.
//! 2. **Convergence semantics** — the fixed-point evaluator reports
//!    honest `converged` / `iterations` figures instead of silently
//!    returning a non-stationary iterate.
//! 3. **Differential fuzzing as a property test** — across seeds and
//!    thread counts, all solve paths agree bit-exactly and every emitted
//!    schedule validates.
//! 4. **Bit-identity** — running validation changes zero bytes of any
//!    schedule, cost, measurement or trace (the validator is read-only).

use haxconn::check::{mutate, FuzzConfig};
use haxconn::prelude::*;

fn scheduled() -> ScheduledSession {
    Session::on(PlatformId::OrinAgx)
        .task(Model::GoogleNet, 6)
        .task(Model::ResNet18, 6)
        .schedule()
        .expect("schedulable")
}

// --- 1. Mutation coverage: one corrupted artifact per invariant class. ---

#[test]
fn valid_schedule_passes_every_check() {
    let s = scheduled();
    let report = s.validate();
    assert!(report.is_valid(), "{report}");
    assert!(report.checks > 20, "expected a substantive check count");
    assert!(report.clone().into_result().is_ok());
}

/// Corrupts the schedule with `mutate` and asserts `class` is reported.
fn assert_caught(s: &ScheduledSession, mutated: Schedule, class: InvariantClass) {
    let report = validate_schedule(&s.platform, &s.workload, &s.config, &mutated);
    assert!(
        report.has(class),
        "{class:?} mutation not caught; report: {report}"
    );
    assert!(report.clone().into_result().is_err());
}

#[test]
fn mutation_precedence_is_caught() {
    let s = scheduled();
    assert_caught(
        &s,
        mutate::swap_precedence(&s.schedule),
        InvariantClass::Precedence,
    );
}

#[test]
fn mutation_pu_overlap_is_caught() {
    let s = scheduled();
    assert_caught(
        &s,
        mutate::overlap_pu(&s.schedule),
        InvariantClass::PuOverlap,
    );
}

#[test]
fn mutation_transition_accounting_is_caught() {
    let s = scheduled();
    assert_caught(
        &s,
        mutate::tamper_transitions(&s.schedule),
        InvariantClass::TransitionAccounting,
    );
}

#[test]
fn mutation_unconverged_timeline_is_caught() {
    let s = scheduled();
    assert_caught(
        &s,
        mutate::mark_unconverged(&s.schedule),
        InvariantClass::Convergence,
    );
}

#[test]
fn mutation_cost_inflation_is_caught() {
    let s = scheduled();
    assert_caught(
        &s,
        mutate::inflate_cost(&s.schedule),
        InvariantClass::CostConsistency,
    );
}

#[test]
fn mutation_unsupported_placement_is_caught() {
    let s = scheduled();
    assert_caught(
        &s,
        mutate::unsupported_placement(&s.schedule, &s.workload),
        InvariantClass::PuSupport,
    );
}

#[test]
fn mutation_nan_poisoning_is_caught_without_panicking() {
    let s = scheduled();
    assert_caught(
        &s,
        mutate::poison_nan(&s.schedule),
        InvariantClass::Finiteness,
    );
}

#[test]
fn mutation_broken_contiguity_is_caught() {
    let s = scheduled();
    let workload = mutate::break_contiguity(&s.workload);
    let report = validate_schedule(&s.platform, &workload, &s.config, &s.schedule);
    assert!(
        report.has(InvariantClass::Contiguity),
        "contiguity hole not caught; report: {report}"
    );
}

#[test]
fn mutation_emc_overgrant_is_caught() {
    let s = scheduled();
    let platform = mutate::overgrant_emc(&s.platform);
    let report = validate_schedule(&platform, &s.workload, &s.config, &s.schedule);
    assert!(
        report.has(InvariantClass::Bandwidth),
        "EMC overgrant not caught; report: {report}"
    );
}

// --- 2. Convergence semantics of the contention fixed point. ---

#[test]
fn starved_iteration_budget_is_reported_not_silent() {
    let s = scheduled();
    let contention = ContentionModel::calibrate(&s.platform);
    let mut ev = TimelineEvaluator::new(&s.workload, &contention);
    ev.max_iters = 1;
    let tl = ev.evaluate(&s.schedule.assignment);
    // One pass cannot certify stationarity: the evaluator must say so
    // (pre-fix it silently returned the iterate as if it had settled).
    assert!(!tl.converged, "one pass cannot be a certified fixed point");
    let report = validate_timeline(&s.workload, &s.schedule.assignment, &tl);
    assert!(report.has(InvariantClass::Convergence), "{report}");
}

#[test]
fn contention_heavy_timelines_converge_within_budget() {
    // All-GPU assignments maximize shared-PU and EMC coupling — the
    // regime where undamped fixed-point iteration can enter a period-2
    // makespan cycle. With slot-aligned damping they must all settle.
    let p = PlatformId::OrinAgx.platform();
    let contention = ContentionModel::calibrate(&p);
    for pair in [
        [Model::GoogleNet, Model::ResNet50],
        [Model::Vgg19, Model::ResNet101],
        [Model::AlexNet, Model::MobileNetV1],
        [Model::InceptionV4, Model::DenseNet121],
    ] {
        let tasks = pair
            .iter()
            .map(|&m| DnnTask::new(m.name(), NetworkProfile::profile(&p, m, 8)))
            .collect();
        let w = Workload::concurrent(tasks);
        let gpu_only: Vec<Vec<PuId>> = w
            .tasks
            .iter()
            .map(|t| vec![p.gpu(); t.profile.len()])
            .collect();
        let ev = TimelineEvaluator::new(&w, &contention);
        let tl = ev.evaluate(&gpu_only);
        assert!(
            tl.converged,
            "{}+{} all-GPU timeline did not converge",
            pair[0].name(),
            pair[1].name()
        );
        assert!(tl.makespan_ms.is_finite() && tl.makespan_ms > 0.0);
    }
}

// --- 3. Differential fuzzing across seeds and thread counts. ---

#[test]
fn fuzz_property_across_seeds_and_thread_counts() {
    for seed in [1, 2, 3] {
        let report = haxconn::check::fuzz::run(&FuzzConfig {
            seed,
            scenarios: 4,
            thread_counts: vec![1, 2, 4],
        });
        assert!(report.is_clean(), "seed {seed}: {report}");
        assert_eq!(report.scenarios, 4);
        assert!(report.schedules_validated >= 4);
    }
}

// --- 4. Validation is read-only: zero bytes change anywhere. ---

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn validation_changes_zero_bytes() {
    // Run A: schedule -> measure -> trace, no validation.
    let a = scheduled();
    let am = a.measure().expect("measurable");
    let at = a.chrome_trace().expect("traceable");

    // Run B: identical pipeline with validation interleaved at every
    // stage. The validator takes `&self` everywhere; this pins down that
    // it also never perturbs downstream results through shared state.
    let b = scheduled();
    assert!(b.validate().is_valid());
    let bm = b.measure().expect("measurable");
    assert!(b.validate().is_valid());
    let bt = b.chrome_trace().expect("traceable");
    let report1 = b.validate();
    let report2 = b.validate();

    assert_eq!(a.schedule.assignment, b.schedule.assignment);
    assert_eq!(a.schedule.cost.to_bits(), b.schedule.cost.to_bits());
    assert_eq!(am.makespan_ms.to_bits(), bm.makespan_ms.to_bits());
    assert_eq!(am.fps().to_bits(), bm.fps().to_bits());
    assert_eq!(bits(&am.task_latency_ms), bits(&bm.task_latency_ms));
    assert_eq!(bits(&am.pu_busy_ms), bits(&bm.pu_busy_ms));
    assert_eq!(at, bt, "chrome traces must be byte-identical");
    // And validation itself is deterministic.
    assert_eq!(report1.checks, report2.checks);
    assert_eq!(report1.violations.len(), report2.violations.len());
}
