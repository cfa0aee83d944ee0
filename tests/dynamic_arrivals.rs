//! Property tests for the anytime dynamic scheduler and the multi-tenant
//! arrival engine.
//!
//! Written with the repo's deterministic sampler idiom (no external
//! `proptest`; README § Offline builds): every run checks the same cases,
//! so failures are trivially reproducible.

use haxconn::core::scheduler::objective_cost;
use haxconn::core::{generate_instance, IncumbentClock, ResolveAction};
use haxconn::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

/// Anytime contract of `DHaxConn::schedule_at`: under the virtual
/// incumbent clock, the cost of `schedule_at(at)` is non-increasing as
/// `at` grows, starts at the initial baseline, and agrees with `best()`
/// bit-exactly at (and past) the horizon — across instance seeds,
/// objectives, and solver node budgets.
#[test]
fn schedule_at_is_monotone_and_agrees_with_best() {
    let mut non_trivial_traces = 0;
    for seed in [1u64, 2, 3, 4, 5] {
        for budget in [None, Some(50_000u64)] {
            let g = generate_instance(seed, 3, 5);
            let cm = ContentionModel::calibrate(&g.platform);
            let config = SchedulerConfig {
                node_budget: budget,
                ..g.config
            };
            let d = DHaxConn::run_with(
                &g.platform,
                &g.workload,
                &cm,
                config,
                IncumbentClock::virtual_ms(),
            );
            let ctx = format!("seed {seed}, budget {budget:?}");
            non_trivial_traces += usize::from(!d.trace.is_empty());

            // The improving trace itself is strictly decreasing and never
            // above the initial baseline.
            let mut prev = d.initial.cost;
            for inc in &d.trace {
                assert!(inc.cost < prev, "{ctx}: trace not strictly decreasing");
                prev = inc.cost;
            }

            // Before the first (virtual) improvement the initial schedule
            // is in effect.
            assert_eq!(
                d.schedule_at(Duration::ZERO).cost.to_bits(),
                d.initial.cost.to_bits(),
                "{ctx}: schedule_at(0) must be the initial baseline"
            );

            // Query at a fine virtual-time sweep: cost is monotone
            // non-increasing in `at`.
            let horizon = d.best().at.max(Duration::from_millis(1));
            let mut last = f64::INFINITY;
            let steps = 4 * d.trace.len().max(1) as u32 + 4;
            for k in 0..=steps {
                let at = horizon * k / steps;
                let c = d.schedule_at(at).cost;
                assert!(
                    c <= last + 1e-12,
                    "{ctx}: schedule_at({at:?}) = {c} worse than earlier {last}"
                );
                last = c;
            }

            // At and past the horizon the anytime query agrees with
            // `best()` bit for bit (cost and assignment).
            for at in [horizon, horizon * 2, horizon + Duration::from_secs(60)] {
                let q = d.schedule_at(at);
                assert_eq!(q.cost.to_bits(), d.best().cost.to_bits(), "{ctx}");
                assert_eq!(q.assignment, d.best().assignment, "{ctx}");
            }
        }
    }
    // The property must not pass vacuously: at least some sampled
    // instances have to produce a non-empty improving trace.
    assert!(
        non_trivial_traces >= 3,
        "only {non_trivial_traces} instances produced anytime improvements"
    );
}

/// Re-solve policies change *when* the solver runs, never *what* it
/// finds: for any tenant mix both policies actually solved (or served
/// from cache), the adopted cost is bit-identical across policies.
#[test]
fn resolved_mix_costs_agree_across_policies() {
    let trace = ArrivalTrace::generate(17, 60, 3);
    let policies = [
        ResolvePolicy::Immediate,
        ResolvePolicy::Debounced { window_ms: 30.0 },
        ResolvePolicy::UtilityThreshold { min_gain: 0.02 },
    ];
    let platform = haxconn::soc::orin_agx();
    let cm = ContentionModel::calibrate(&platform);

    // mix (sorted tenant names) -> cost bits per policy index.
    let mut solved: Vec<BTreeMap<String, u64>> = Vec::new();
    for policy in policies {
        let options = ReplayOptions {
            policy,
            validate: true,
            record_resolves: true,
            ..Default::default()
        };
        let r = replay_arrivals(&platform, &cm, &trace, &options).expect("replayable");
        assert_eq!(r.violations, 0, "{policy:?}: invariant violations");
        let mut mixes = BTreeMap::new();
        for rp in &r.resolve_points {
            if matches!(rp.action, ResolveAction::Solved | ResolveAction::CacheHit) {
                mixes.insert(rp.tenants.join("+"), rp.cost.to_bits());
            }
        }
        assert!(!mixes.is_empty(), "{policy:?}: no solved mixes recorded");
        solved.push(mixes);
    }
    let mut compared = 0;
    for (mix, bits) in &solved[0] {
        for other in &solved[1..] {
            if let Some(o) = other.get(mix) {
                assert_eq!(
                    o, bits,
                    "mix [{mix}] solved to different costs under different policies"
                );
                compared += 1;
            }
        }
    }
    assert!(
        compared >= 3,
        "only {compared} mixes overlapped across policies"
    );
}

/// Every adopted schedule's recorded cost is the cost of a fresh timeline
/// of its rows, on a freshly profiled workload, to the bit. The replay
/// evaluates each adopted schedule once and reuses that timeline for the
/// tenants' latencies, the validation and the throttle; a cache hit
/// reuses the timeline predicted when the mix was first solved.
#[test]
fn adopted_costs_match_fresh_timelines() {
    let trace = ArrivalTrace::generate(5, 60, 3);
    let mut spec_of = BTreeMap::new();
    for e in &trace.events {
        if let TenantEvent::Join { tenant } = &e.event {
            spec_of.insert(tenant.name.clone(), tenant.clone());
        }
    }
    let platform = haxconn::soc::snapdragon_865();
    let cm = ContentionModel::calibrate(&platform);
    let mut seen = BTreeMap::new();
    for objective in [Objective::MinMaxLatency, Objective::MaxThroughput] {
        let options = ReplayOptions {
            config: SchedulerConfig::with_objective(objective),
            validate: true,
            record_resolves: true,
            ..Default::default()
        };
        let r = replay_arrivals(&platform, &cm, &trace, &options).expect("replayable");
        assert_eq!(r.violations, 0, "{objective:?}: invariant violations");
        for rp in &r.resolve_points {
            let tasks = rp
                .tenants
                .iter()
                .map(|name| {
                    let spec = &spec_of[name];
                    let model = parse_model(&spec.model).expect("trace model");
                    DnnTask::new(name, NetworkProfile::profile(&platform, model, spec.groups))
                })
                .collect();
            let w = Workload::concurrent(tasks);
            let tl = TimelineEvaluator::new(&w, &cm).evaluate(&rp.assignment);
            assert_eq!(
                objective_cost(objective, &tl).to_bits(),
                rp.cost.to_bits(),
                "{objective:?}, {:?} at {} ms",
                rp.action,
                rp.at_ms
            );
            *seen.entry(format!("{:?}", rp.action)).or_insert(0usize) += 1;
        }
    }
    for action in ["Solved", "CacheHit", "Throttled"] {
        assert!(
            seen.contains_key(action),
            "no {action} point checked: {seen:?}"
        );
    }
}

/// 64-bit FNV-1a, enough to pin a report's bytes in a test.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The replay's schedule cache holds 64 mixes. This trace misses more
/// often than that, and every miss inserts a mix, so the LRU must evict.
/// Hit/miss counts and the full report are pinned to recorded values, so
/// any change to the cache's eviction order or counting shows up here.
#[test]
fn replay_cache_is_pinned_under_eviction() {
    let trace = ArrivalTrace::generate(1, 300, 3);
    let platform = haxconn::soc::orin_agx();
    let cm = ContentionModel::calibrate(&platform);
    let r = replay_arrivals(&platform, &cm, &trace, &ReplayOptions::default()).expect("replayable");
    assert!(
        r.cache_misses > 64,
        "only {} misses: no eviction",
        r.cache_misses
    );
    assert_eq!((r.cache_hits, r.cache_misses), (66, 139));
    assert_eq!(fnv1a64(r.to_json().as_bytes()), 0x8618_e8d5_7814_4da8);
}
