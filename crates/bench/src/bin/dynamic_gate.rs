//! Determinism and accounting gates for the multi-tenant arrival engine
//! (PR 9), written to `BENCH_dynamic.json`.
//!
//! One fixed-seed 10k-event trace (joins, leaves, SLA renegotiations;
//! at most three concurrent tenants) is replayed through
//! [`haxconn::core::arrival::replay`] with invariant validation on, and
//! the gates are machine-checked in-process:
//!
//! 1. **Byte determinism** — two replays with identical options produce
//!    byte-identical `TenantReport::to_json` output.
//! 2. **Worker independence** — replays at worker counts 1, 2 and 4
//!    are byte-identical to each other. One worker re-solves every mix
//!    with the sequential branch & bound; two and four run the parallel
//!    one on mixes of 12 or more variables, so the gate cross-checks the
//!    two drivers.
//! 3. **Zero violations** — every schedule adopted at every re-solve
//!    point passes the timeline invariant suite.
//! 4. **Bounded accounting** — Jain fairness in (0, 1], every
//!    latency-critical tenant's SLA attainment in [0, 1].
//!
//! The `search` section records the exact-search effort of the
//! workers-1 replay (solves, nodes and leaves, read from telemetry): the
//! sequential search is deterministic, so these counts only move when
//! the encoding's pruning does.
//!
//! A smaller trace is additionally swept across the three re-solve
//! policies (Immediate / Debounced / UtilityThreshold) to record the
//! solve-count-versus-staleness tradeoff.
//!
//! Any gate failure panics (non-zero exit). Run in release:
//! `cargo run --release -p haxconn-bench --bin dynamic_gate [events]`.

use haxconn::prelude::*;
use serde::Serialize;
use std::time::Instant;

/// Fixed trace seed: the whole gate is a pure function of it.
const TRACE_SEED: u64 = 424_242;

/// Events in the determinism trace (overridable via `argv[1]`).
const TRACE_EVENTS: usize = 10_000;

/// Concurrent-tenant cap of the generated trace.
const MAX_TENANTS: usize = 3;

/// Events in the policy-sweep trace.
const SWEEP_EVENTS: usize = 1_500;

#[derive(Serialize)]
struct TraceSection {
    seed: u64,
    events: usize,
    max_tenants: usize,
    joins: usize,
    leaves: usize,
    sla_changes: usize,
}

#[derive(Serialize)]
struct DeterminismSection {
    two_runs_identical: bool,
    worker_counts_identical: bool,
    workers_compared: Vec<usize>,
    report_bytes: usize,
}

#[derive(Serialize)]
struct TenantSection {
    total: usize,
    latency_critical: usize,
    mean_sla_attainment: f64,
    min_sla_attainment: f64,
    mean_p99_ms: f64,
    worst_p99_ms: f64,
    jain_fairness: f64,
}

#[derive(Serialize)]
struct ResolveSection {
    solved: usize,
    skipped: usize,
    cache_hits: u64,
    cache_misses: u64,
    throttle_passes: usize,
    violations: usize,
}

#[derive(Serialize)]
struct SearchSection {
    solves: u64,
    nodes: u64,
    leaves: u64,
}

#[derive(Serialize)]
struct PolicyRow {
    policy: String,
    resolves: usize,
    resolve_skips: usize,
    cache_hits: u64,
    throttles: usize,
    violations: usize,
    jain_fairness: f64,
    mean_sla_attainment: f64,
}

#[derive(Serialize)]
struct Report {
    trace: TraceSection,
    determinism: DeterminismSection,
    tenants: TenantSection,
    resolves: ResolveSection,
    search: SearchSection,
    horizon_ms: f64,
    elapsed_s: f64,
    events_per_sec: f64,
    policy_sweep: Vec<PolicyRow>,
}

fn attainments(r: &TenantReport) -> Vec<f64> {
    r.tenants.iter().filter_map(|t| t.sla_attainment).collect()
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn main() {
    let events = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(TRACE_EVENTS);
    let platform = haxconn::soc::orin_agx();
    let cm = ContentionModel::calibrate(&platform);
    let trace = ArrivalTrace::generate(TRACE_SEED, events, MAX_TENANTS);

    let replay_at = |workers: usize| {
        let options = ReplayOptions {
            policy: ResolvePolicy::Immediate,
            validate: true,
            record_resolves: false,
            workers,
            ..Default::default()
        };
        replay_arrivals(&platform, &cm, &trace, &options).expect("replayable trace")
    };

    // Gate 1: byte determinism across two identical runs. Telemetry is
    // on for the first one only, to count its search effort.
    let recorder = haxconn::telemetry::memory_recorder().expect("memory recorder");
    recorder.reset();
    let started = Instant::now();
    let base = replay_at(1);
    let elapsed = started.elapsed().as_secs_f64();
    let counters = recorder.snapshot().counters;
    haxconn::telemetry::set_enabled(false);
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    let search = SearchSection {
        solves: counter("solver.solves"),
        nodes: counter("solver.nodes"),
        leaves: counter("solver.leaves"),
    };
    let base_json = base.to_json();
    let again_json = replay_at(1).to_json();
    let two_runs_identical = base_json == again_json;
    assert!(two_runs_identical, "two identical replays diverged");

    // Gate 2: the worker count (sequential vs parallel B&B) must not
    // matter.
    let workers_compared = vec![1usize, 2, 4];
    let worker_counts_identical = workers_compared[1..]
        .iter()
        .all(|&w| replay_at(w).to_json() == base_json);
    assert!(
        worker_counts_identical,
        "replay diverged across solver worker counts"
    );

    // Gate 3: zero invariant violations across every re-solve point.
    assert_eq!(
        base.violations, 0,
        "invariant violations: {:?}",
        base.violation_samples
    );

    // Gate 4: bounded accounting.
    assert!(
        base.jain_fairness > 0.0 && base.jain_fairness <= 1.0 + 1e-12,
        "jain fairness out of range: {}",
        base.jain_fairness
    );
    let att = attainments(&base);
    for (t, a) in base
        .tenants
        .iter()
        .filter_map(|t| t.sla_attainment.map(|a| (t, a)))
    {
        assert!(
            (0.0..=1.0 + 1e-12).contains(&a),
            "tenant {} attainment out of range: {a}",
            t.name
        );
    }

    // Policy sweep on a smaller trace: what each policy trades.
    let sweep_trace = ArrivalTrace::generate(TRACE_SEED ^ 0xBEEF, SWEEP_EVENTS, MAX_TENANTS);
    let policies = [
        ("immediate".to_string(), ResolvePolicy::Immediate),
        (
            "debounce:40".to_string(),
            ResolvePolicy::Debounced { window_ms: 40.0 },
        ),
        (
            "utility:0.05".to_string(),
            ResolvePolicy::UtilityThreshold { min_gain: 0.05 },
        ),
    ];
    let mut policy_sweep = Vec::new();
    for (name, policy) in policies {
        let options = ReplayOptions {
            policy,
            validate: true,
            record_resolves: false,
            ..Default::default()
        };
        let r = replay_arrivals(&platform, &cm, &sweep_trace, &options).expect("replayable sweep");
        assert_eq!(r.violations, 0, "{name}: sweep violations");
        let att = attainments(&r);
        policy_sweep.push(PolicyRow {
            policy: name,
            resolves: r.resolves,
            resolve_skips: r.resolve_skips,
            cache_hits: r.cache_hits,
            throttles: r.throttles,
            violations: r.violations,
            jain_fairness: r.jain_fairness,
            mean_sla_attainment: mean(&att),
        });
    }

    let p99s: Vec<f64> = base.tenants.iter().map(|t| t.p99_latency_ms).collect();
    let report = Report {
        trace: TraceSection {
            seed: TRACE_SEED,
            events,
            max_tenants: MAX_TENANTS,
            joins: base.joins,
            leaves: base.leaves,
            sla_changes: base.sla_changes,
        },
        determinism: DeterminismSection {
            two_runs_identical,
            worker_counts_identical,
            workers_compared,
            report_bytes: base_json.len(),
        },
        tenants: TenantSection {
            total: base.tenants.len(),
            latency_critical: att.len(),
            mean_sla_attainment: mean(&att),
            min_sla_attainment: att.iter().copied().fold(f64::INFINITY, f64::min),
            mean_p99_ms: mean(&p99s),
            worst_p99_ms: p99s.iter().copied().fold(0.0, f64::max),
            jain_fairness: base.jain_fairness,
        },
        resolves: ResolveSection {
            solved: base.resolves,
            skipped: base.resolve_skips,
            cache_hits: base.cache_hits,
            cache_misses: base.cache_misses,
            throttle_passes: base.throttles,
            violations: base.violations,
        },
        search,
        horizon_ms: base.horizon_ms,
        elapsed_s: elapsed,
        events_per_sec: events as f64 / elapsed.max(1e-9),
        policy_sweep,
    };

    let json = serde_json::to_string_pretty(&report).expect("serialize");
    println!("{json}");
    let bench_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dynamic.json");
    std::fs::write(bench_path, format!("{json}\n")).expect("write BENCH_dynamic.json");
    eprintln!(
        "dynamic gates OK: {events} events in {elapsed:.2}s ({:.0} events/s), \
         {} tenants, fairness {:.4}",
        events as f64 / elapsed.max(1e-9),
        report.tenants.total,
        report.tenants.jain_fairness
    );
}
