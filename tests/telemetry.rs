//! End-to-end telemetry guarantees, in a dedicated process (the recorder
//! is a process-global, like a logger):
//!
//! 1. Telemetry is strictly write-only: enabling it must not change a
//!    single bit of any schedule, measurement or trace.
//! 2. The CLI `--telemetry` flag writes a snapshot that round-trips
//!    through `serde_json` and feeds the `telemetry` summary subcommand.

use haxconn::cli::{self, Command};
use haxconn::prelude::*;
use haxconn::telemetry as tel;

fn solve_and_measure() -> (ScheduledSession, Measurement, String) {
    let s = Session::on(PlatformId::OrinAgx)
        .task(Model::GoogleNet, 8)
        .task(Model::ResNet101, 8)
        .schedule()
        .expect("schedulable");
    let m = s.measure().expect("measurable");
    let trace = s.chrome_trace().expect("traceable");
    (s, m, trace)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn telemetry_end_to_end() {
    // --- 1. Baseline run with telemetry off (the process default). ---
    assert!(!tel::enabled(), "telemetry must start disabled");
    let (s1, m1, t1) = solve_and_measure();

    // --- 2. Enable the memory recorder and rerun: bit-identical. ---
    let rec = tel::memory_recorder().expect("no other recorder installed");
    rec.reset();
    tel::set_enabled(true);
    let (s2, m2, t2) = solve_and_measure();
    tel::set_enabled(false);

    assert_eq!(s1.schedule.assignment, s2.schedule.assignment);
    assert_eq!(s1.schedule.cost.to_bits(), s2.schedule.cost.to_bits());
    assert_eq!(m1.latency_ms.to_bits(), m2.latency_ms.to_bits());
    assert_eq!(m1.fps.to_bits(), m2.fps.to_bits());
    assert_eq!(m1.emc_mean_gbps.to_bits(), m2.emc_mean_gbps.to_bits());
    assert_eq!(bits(&m1.task_latency_ms), bits(&m2.task_latency_ms));
    assert_eq!(bits(&m1.pu_busy_ms), bits(&m2.pu_busy_ms));
    assert_eq!(bits(&m1.task_slowdown), bits(&m2.task_slowdown));
    assert_eq!(t1, t2, "chrome traces must be byte-identical");

    // The enabled run actually recorded the pipeline's metrics.
    let snap = rec.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert!(counter("scheduler.schedules") >= 1, "{:?}", snap.counters);
    assert!(counter("solver.solves") >= 1);
    assert!(counter("solver.nodes") > 0);
    assert!(counter("replay.runs") >= 1);
    assert!(counter("replay.items") > 0);
    assert!(
        !snap.counters.keys().any(|k| k.starts_with("sim.")),
        "one telemetry family per measured run: {:?}",
        snap.counters
    );
    assert!(snap.series.contains_key("soc.emc_bandwidth_gbps"));
    assert!(snap.histograms.contains_key("solver.solve_ms"));
    assert!(!snap.spans.is_empty(), "scheduler/solver spans expected");

    // --- 2b. Portfolio path: telemetry stays write-only and the LNS /
    // portfolio counters plus the incumbent-timeline series land. An
    // unbudgeted portfolio proves the optimum, so the result is as
    // deterministic as the sequential solver's.
    let pf_config = SchedulerConfig {
        portfolio_solve: true,
        lns_workers: 2,
        break_symmetry: true,
        ..Default::default()
    };
    let pf_solve = || {
        Session::on(PlatformId::OrinAgx)
            .task(Model::GoogleNet, 6)
            .task(Model::ResNet101, 6)
            .config(pf_config)
            .schedule()
            .expect("schedulable")
    };
    let p1 = pf_solve();
    rec.reset();
    tel::set_enabled(true);
    let p2 = pf_solve();
    tel::set_enabled(false);
    assert_eq!(p1.schedule.assignment, p2.schedule.assignment);
    assert_eq!(p1.schedule.cost.to_bits(), p2.schedule.cost.to_bits());
    let pf_snap = rec.snapshot();
    let pf_counter = |name: &str| pf_snap.counters.get(name).copied().unwrap_or(0);
    // The LNS counters are flushed once per portfolio solve. How many
    // iterations the workers complete before the B&B raises the
    // cooperative stop is a race (zero is common on an instance this
    // small), so assert the flush happened, not a winning iteration
    // count.
    assert!(
        pf_snap.counters.contains_key("solver.lns.iters"),
        "{:?}",
        pf_snap.counters
    );
    assert!(
        pf_counter("solver.portfolio.winner.bb")
            + pf_counter("solver.portfolio.winner.lns")
            + pf_counter("solver.portfolio.winner.seed")
            >= 1,
        "{:?}",
        pf_snap.counters
    );
    assert!(
        pf_snap.series.contains_key("solver.portfolio.incumbent"),
        "incumbent timeline series expected"
    );

    // --- 3. CLI --telemetry round-trip through serde_json. ---
    let path = std::env::temp_dir().join(format!("haxconn-telemetry-{}.json", std::process::id()));
    let path_s = path.to_string_lossy().to_string();
    let out = cli::run(Command::Schedule {
        platform: PlatformId::OrinAgx,
        models: vec![Model::GoogleNet, Model::ResNet18],
        objective: Objective::MinMaxLatency,
        pipeline: false,
        trace: None,
        gantt: false,
        telemetry: Some(path_s.clone()),
    })
    .expect("cli schedule runs");
    assert!(out.contains("telemetry snapshot written"));
    assert!(!tel::enabled(), "the CLI must disable telemetry afterwards");

    let text = std::fs::read_to_string(&path).expect("snapshot file written");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("snapshot parses as JSON");
    // Full value round-trip through the serde_json tree.
    let re = serde_json::to_string(&doc).expect("re-serializes");
    let doc2: serde_json::Value = serde_json::from_str(&re).expect("round-trips");
    assert_eq!(doc, doc2);
    assert!(text.contains("\"schema\": 1"));
    assert!(text.contains("solver.solves"));
    assert!(text.contains("replay.makespan_ms"));

    // --- 4. The `telemetry` summary subcommand renders the snapshot. ---
    let summary = cli::run(Command::Telemetry { file: path_s }).expect("summary runs");
    assert!(summary.contains("telemetry snapshot (schema 1)"));
    assert!(summary.contains("solver.solves"));
    assert!(summary.contains("histograms:"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn memory_recorder_snapshot_is_deterministic() {
    // Uses a local recorder instance through the Recorder trait — no
    // process-global state, safe to run in parallel with the e2e test.
    use haxconn::telemetry::Recorder;
    let build = || {
        let r = MemoryRecorder::new();
        r.counter_add("a.count", 2);
        r.counter_add("a.count", 3);
        r.gauge_set("g.level", 1.5);
        for i in 0..100 {
            r.series_record("s.depth", i as f64, (i % 7) as f64);
            r.histogram_record("h.ms", 0.5 * i as f64);
        }
        r.span_event("track", "work", 1.0, 2.0);
        r.snapshot().to_json()
    };
    let a = build();
    assert_eq!(a, build(), "identical recordings must render identically");
    assert!(a.contains("\"a.count\": 5"));
}
