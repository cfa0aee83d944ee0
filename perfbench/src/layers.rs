//! The per-layer pass of a traced run.
//!
//! The pass calls each layer's public functions on the workload's own
//! inputs, apart from the timed loop, and records a span around every
//! call. Four reconstructions cover the program's request paths:
//!
//! * `hit` — one served cache hit: parse, decode, canonicalize, key,
//!   probe, serialize, format;
//! * `solve` — one served miss: the same plus platform context, profile
//!   resolution and `HaxConn::try_schedule`, whose internals (encoding
//!   build, B&B search, timeline scoring) are replayed under a separate
//!   `scheduler.parts` root on the same workload;
//! * `batch` — one `POST /v1/batch`: decode, the per-request
//!   `Session` solve, the DES fleet, encode;
//! * `arrival.replay` — one trace replay, with the solver runs the
//!   program's telemetry recorded placed under it as child spans.
//!
//! A probe server then takes every spec once as a miss and a short
//! closed loop of hits, for the serving-side counters and the dispatch
//! cost of a miss.

use crate::common::{
    boot, connect, health, mean, post_ok, raw_request, telemetry_counter, warm_specs,
};
use crate::stats::{median, quantile, Metric};
use crate::tracer::Tracer;
use haxconn::api::{BatchReport, BatchRequest, BatchResponse, ScheduleResponse, SCHEMA_VERSION};
use haxconn::contention::ContentionModel;
use haxconn::core::arrival::{replay, ArrivalTrace, ReplayOptions};
use haxconn::core::baselines::{Baseline, BaselineKind};
use haxconn::core::encoding::ScheduleEncoding;
use haxconn::core::engine::{Engine, EngineOptions, EngineSchedule, SolvedEntry};
use haxconn::core::problem::SchedulerConfig;
use haxconn::core::scheduler::{objective_cost, HaxConn};
use haxconn::core::spec::WorkloadSpec;
use haxconn::core::timeline::TimelineEvaluator;
use haxconn::serve::http::{format_response, parse_request};
use haxconn::session::Session;
use haxconn::soc::PuId;
use haxconn::solver::{solve, SolveOptions};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric a traced run reports, with its unit, in the
/// order of `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("serve.server_mean_us", "us"),
    ("serve.client_gap_us", "us"),
    ("serve.wakeups_per_req", "count"),
    ("serve.parse_us", "us"),
    ("serve.format_us", "us"),
    ("serve.dispatch_us", "us"),
    ("spec.decode_us", "us"),
    ("spec.canonicalize_us", "us"),
    ("spec.key_us", "us"),
    ("engine.probe_us", "us"),
    ("engine.hit_ratio", "ratio"),
    ("engine.evictions", "count"),
    ("engine.context_ms", "ms"),
    ("api.serialize_us", "us"),
    ("api.response_bytes", "bytes"),
    ("api.batch_decode_us", "us"),
    ("api.batch_encode_us", "us"),
    ("profiler.resolve_ms", "ms"),
    ("encoding.build_ms", "ms"),
    ("solver.search_ms", "ms"),
    ("solver.nodes", "count"),
    ("solver.nodes_per_s", "1/s"),
    ("solver.proven_share", "ratio"),
    ("timeline.score_ms", "ms"),
    ("scheduler.schedule_ms", "ms"),
    ("scheduler.unattributed_ms", "ms"),
    ("session.batch_solve_ms", "ms"),
    ("runtime.fleet_ms", "ms"),
    ("runtime.scenarios_per_s", "1/s"),
    ("arrival.replay_s", "s"),
    ("arrival.solve_share", "ratio"),
    ("arrival.resolve_mean_ms", "ms"),
    ("arrival.resolve_p50_ms", "ms"),
    ("arrival.resolve_p99_ms", "ms"),
    ("arrival.cache_hit_ratio", "ratio"),
    ("arrival.cache_evictions", "count"),
    ("arrival.resolves", "count"),
    ("trace.client_p50_us", "us"),
    ("trace.residual_us", "us"),
    ("trace.untraced_ops_s", "ops/s"),
    ("trace.traced_ops_s", "ops/s"),
    ("trace.overhead_ratio", "ratio"),
];

/// The server's default body cap.
const MAX_BODY: usize = 1 << 20;

const HIT_OP: u64 = 0;
const SOLVE_OP: u64 = 1 << 32;
const BATCH_OP: u64 = 2 << 32;
const ARRIVAL_OP: u64 = 3 << 32;
const CONTEXT_OP: u64 = 4 << 32;

/// Repetitions of each batch reconstruction.
const BATCH_REPS: usize = 2;

/// The inputs the pass replays.
pub struct LayerInputs {
    /// Distinct specs (hit and solve reconstructions, probe server).
    pub specs: Vec<WorkloadSpec>,
    /// Which spec each hit reconstruction takes, in order.
    pub hit_seq: Vec<usize>,
    /// Batch requests.
    pub batch: Vec<BatchRequest>,
    /// The arrival trace.
    pub trace: ArrivalTrace,
}

/// Serving-side figures over one closed loop of requests.
pub struct ServedView {
    /// Server-side request latency, exact mean, µs (`/v1/health`).
    pub server_mean_us: f64,
    /// Server-side p50, µs: upper edge of a log₂ bucket.
    pub server_p50_us: f64,
    /// Server-side p99, µs: upper edge of a log₂ bucket.
    pub server_p99_us: f64,
    /// Client-observed mean over the same loop, µs.
    pub client_mean_us: f64,
    /// Reactor wakeups per request (telemetry deltas).
    pub wakeups_per_req: f64,
    /// Engine cache hits per engine request over the loop.
    pub hit_ratio: f64,
    /// Engine cache evictions over the loop.
    pub evictions: f64,
}

/// Counters read before a closed loop, to report deltas after it.
pub struct ServedBefore {
    wakeups: u64,
    requests: u64,
    engine: haxconn::core::engine::EngineStatsSnapshot,
}

impl ServedBefore {
    /// Reads the counters of `server` now.
    pub fn read(server: &haxconn::ServerHandle) -> ServedBefore {
        ServedBefore {
            wakeups: telemetry_counter("serve.reactor.wakeups"),
            requests: telemetry_counter("serve.requests"),
            engine: server.engine().stats(),
        }
    }

    /// The view over everything `server` did since [`ServedBefore::read`].
    pub fn view(
        &self,
        server: &haxconn::ServerHandle,
        client: &mut haxconn::serve::client::Client,
        client_mean_us: f64,
    ) -> Result<ServedView, String> {
        let h = health(client)?;
        let engine = server.engine().stats();
        let requests = telemetry_counter("serve.requests").saturating_sub(self.requests);
        let wakeups = telemetry_counter("serve.reactor.wakeups").saturating_sub(self.wakeups);
        let engine_requests = engine.requests - self.engine.requests;
        Ok(ServedView {
            server_mean_us: h.server.latency_mean_us,
            server_p50_us: h.server.latency_p50_us,
            server_p99_us: h.server.latency_p99_us,
            client_mean_us,
            wakeups_per_req: wakeups as f64 / requests.max(1) as f64,
            hit_ratio: (engine.cache_hits - self.engine.cache_hits) as f64
                / engine_requests.max(1) as f64,
            evictions: (engine.cache_evictions - self.engine.cache_evictions) as f64,
        })
    }
}

/// What the pass measured.
pub struct Pass {
    /// Per-layer metrics that need no served view: `(name, unit, value)`.
    pub metrics: Vec<Metric>,
    /// The probe server's view.
    pub probe: ServedView,
    /// Self time per layer of each reconstruction, µs (median over ops
    /// of the per-op layer sum), keyed by root name.
    pub breakdowns: BTreeMap<&'static str, Vec<(String, f64)>>,
    /// Events of the replayed trace.
    pub trace_events: usize,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs the pass.
pub fn run(inputs: &LayerInputs, tracer: &mut Tracer) -> Result<Pass, String> {
    let mut metrics = Vec::new();
    let mut breakdowns = BTreeMap::new();

    // engine.context: calibration on a fresh engine, per platform.
    let mut context_ms = Vec::new();
    for (i, p) in crate::gen::PLATFORMS.iter().enumerate() {
        let engine = Engine::new(EngineOptions::default());
        let started = Instant::now();
        let root = tracer.begin(CONTEXT_OP + i as u64, None, "engine.context_cold");
        engine.context(p).map_err(err)?;
        tracer.end(root);
        context_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }

    let requests: Vec<Vec<u8>> = inputs
        .specs
        .iter()
        .map(|s| Ok(raw_request("/v1/schedule", &s.to_json().map_err(err)?)))
        .collect::<Result<_, String>>()?;

    // hit reconstructions on a warmed engine.
    let warm = Engine::new(EngineOptions::default());
    for s in &inputs.specs {
        warm.schedule(s).map_err(err)?;
    }
    let mut response_bytes = Vec::with_capacity(inputs.hit_seq.len());
    for (k, &i) in inputs.hit_seq.iter().enumerate() {
        let op = HIT_OP + k as u64;
        let root = tracer.begin(op, None, "hit");
        let (_, key) = decode_spec(tracer, op, root, &requests[i])?;
        let out = tracer
            .time(op, root, "engine.probe", || warm.schedule_cached(&key))
            .ok_or("a warmed spec missed the cache")?;
        let body = tracer
            .time(op, root, "api.serialize", || {
                serde_json::to_string(&ScheduleResponse::from_engine(&out))
            })
            .map_err(err)?;
        black_box(tracer.time(op, root, "serve.format", || {
            format_response(200, &body, true)
        }));
        tracer.end(root);
        response_bytes.push(body.len() as f64);
    }

    // solve reconstructions: misses on an engine whose platform contexts
    // are already calibrated.
    let miss = Engine::new(EngineOptions::default());
    for p in crate::gen::PLATFORMS {
        miss.context(p).map_err(err)?;
    }
    let (mut nodes, mut search_s, mut proven) = (Vec::new(), 0.0, 0usize);
    let mut inproc_us = Vec::with_capacity(inputs.specs.len());
    for (i, raw) in requests.iter().enumerate() {
        let op = SOLVE_OP + i as u64;
        let root = tracer.begin(op, None, "solve");
        let (canonical, key) = decode_spec(tracer, op, root, raw)?;
        if tracer
            .time(op, root, "engine.probe", || miss.schedule_cached(&key))
            .is_some()
        {
            return Err("a layer-pass spec was already cached".into());
        }
        let ctx = tracer
            .time(op, root, "engine.context", || {
                miss.context(&canonical.platform)
            })
            .map_err(err)?;
        let (_, workload) = tracer
            .time(op, root, "profiler.resolve", || canonical.resolve())
            .map_err(err)?;
        let config = canonical.effective_config();
        let schedule = tracer
            .time(op, root, "scheduler.try_schedule", || {
                HaxConn::try_schedule(&ctx.platform, &workload, &ctx.contention, config)
            })
            .map_err(err)?;
        let transitions = tracer.time(op, root, "engine.transitions", || {
            schedule.transitions(&workload)
        });
        let out = EngineSchedule {
            entry: Arc::new(SolvedEntry {
                schedule,
                transitions,
            }),
            cached: false,
            coalesced: false,
            degraded: false,
        };
        let body = tracer
            .time(op, root, "api.serialize", || {
                serde_json::to_string(&ScheduleResponse::from_engine(&out))
            })
            .map_err(err)?;
        black_box(tracer.time(op, root, "serve.format", || {
            format_response(200, &body, true)
        }));
        tracer.end(root);

        // The scheduler's internals, replayed on the same workload the
        // way `try_schedule` runs them under the default configuration.
        let parts = tracer.begin(op, None, "scheduler.parts");
        let budget = || SolveOptions {
            node_budget: config.node_budget,
            ..Default::default()
        };
        let enc = tracer.time(op, parts, "encoding.build", || {
            ScheduleEncoding::new(&workload, &ctx.contention, config)
        });
        let started = Instant::now();
        let sol = tracer.time(op, parts, "solver.search", || solve(&enc, budget()));
        search_s += started.elapsed().as_secs_f64();
        let mut op_nodes = sol.stats.nodes;
        let mut op_proven = sol.proven_optimal();
        let mut best = sol.best.map(|(a, _)| enc.to_rows(&a));
        if best.is_none() && config.epsilon_ms.is_some() {
            let relaxed_cfg = SchedulerConfig {
                epsilon_ms: None,
                ..config
            };
            let relaxed = tracer.time(op, parts, "encoding.build", || {
                ScheduleEncoding::new(&workload, &ctx.contention, relaxed_cfg)
            });
            let started = Instant::now();
            let sol = tracer.time(op, parts, "solver.search", || solve(&relaxed, budget()));
            search_s += started.elapsed().as_secs_f64();
            op_nodes += sol.stats.nodes;
            op_proven = sol.proven_optimal();
            best = sol.best.map(|(a, _)| relaxed.to_rows(&a));
        }
        black_box(tracer.time(op, parts, "timeline.score", || {
            let score = |a: &Vec<Vec<PuId>>| {
                let mut ev = TimelineEvaluator::new(&workload, &ctx.contention);
                ev.contention_aware = config.contention_aware;
                objective_cost(config.objective, &ev.evaluate(a))
            };
            let mut costs: Vec<f64> = best.iter().map(score).collect();
            for &kind in BaselineKind::all() {
                costs.push(score(&Baseline::assignment(kind, &ctx.platform, &workload)));
            }
            costs
        }));
        tracer.end(parts);
        nodes.push(op_nodes as f64);
        proven += usize::from(op_proven);

        // The same miss through the engine in process: the reference the
        // served miss is compared with for the dispatch cost.
        let started = Instant::now();
        let root = tracer.begin(op, None, "engine.schedule_canonical");
        miss.schedule_canonical(key, &canonical).map_err(err)?;
        tracer.end(root);
        inproc_us.push(started.elapsed().as_secs_f64() * 1e6);
    }

    // batch reconstructions.
    let mut scenarios_per_s = Vec::new();
    for rep in 0..BATCH_REPS {
        for (j, req) in inputs.batch.iter().enumerate() {
            let op = BATCH_OP + (rep * inputs.batch.len() + j) as u64;
            let body = serde_json::to_string(req).map_err(err)?;
            let raw = raw_request("/v1/batch", &body);
            let root = tracer.begin(op, None, "batch");
            let parsed = parse(tracer, op, root, &raw)?;
            let req: BatchRequest = tracer
                .time(op, root, "api.batch_decode", || {
                    serde_json::from_str(&parsed.body)
                })
                .map_err(err)?;
            let session = tracer
                .time(op, root, "session.batch_solve", || {
                    Session::from_spec(&req.spec).schedule()
                })
                .map_err(err)?;
            let started = Instant::now();
            let reports = tracer
                .time(op, root, "runtime.fleet", || {
                    session.measure_many(&req.candidates, req.iterations.unwrap_or(1))
                })
                .map_err(err)?;
            scenarios_per_s.push(req.candidates.len() as f64 / started.elapsed().as_secs_f64());
            let body = tracer
                .time(op, root, "api.batch_encode", || {
                    serde_json::to_string(&BatchResponse {
                        schema: SCHEMA_VERSION,
                        reports: reports.iter().map(BatchReport::from_execution).collect(),
                    })
                })
                .map_err(err)?;
            black_box(tracer.time(op, root, "serve.format", || {
                format_response(200, &body, true)
            }));
            tracer.end(root);
        }
    }

    // The probe server: every spec once as a miss, then the hit
    // sequence, over one connection.
    let server = boot()?;
    let mut client = connect(&server)?;
    for w in warm_specs() {
        post_ok(&mut client, "/v1/schedule", &w.to_json().map_err(err)?)?;
    }
    let before = ServedBefore::read(&server);
    let mut client_us = Vec::new();
    let mut dispatch_us = Vec::with_capacity(inputs.specs.len());
    for (i, spec) in inputs.specs.iter().enumerate() {
        let body = spec.to_json().map_err(err)?;
        let sent = Instant::now();
        post_ok(&mut client, "/v1/schedule", &body)?;
        let us = sent.elapsed().as_secs_f64() * 1e6;
        client_us.push(us);
        dispatch_us.push(us - inproc_us[i]);
    }
    for &i in &inputs.hit_seq {
        let body = inputs.specs[i].to_json().map_err(err)?;
        let sent = Instant::now();
        post_ok(&mut client, "/v1/schedule", &body)?;
        client_us.push(sent.elapsed().as_secs_f64() * 1e6);
    }
    let probe = before.view(&server, &mut client, mean(&client_us))?;
    drop(client);
    server.stop();

    // One arrival replay, with the program's solver spans under it.
    let (replay_ms, solve_ms, resolve_ms, hit_ratio, evictions, resolves) = {
        let recorder =
            haxconn::telemetry::memory_recorder().ok_or("telemetry recorder unavailable")?;
        haxconn::telemetry::set_enabled(true);
        let platform = haxconn::core::parse_platform("orin")
            .map_err(err)?
            .platform();
        let contention = ContentionModel::calibrate(&platform);
        let opts = ReplayOptions {
            validate: true,
            ..Default::default()
        };
        recorder.reset();
        let clock0 = haxconn::telemetry::clock_ms();
        let root = tracer.begin(ARRIVAL_OP, None, "arrival.replay");
        let root_start_us = tracer.now_us();
        let started = Instant::now();
        let report = replay(&platform, &contention, &inputs.trace, &opts).map_err(err)?;
        let replay_ms = started.elapsed().as_secs_f64() * 1e3;
        tracer.end(root);
        if report.violations != 0 {
            return Err(format!(
                "arrival replay: {} invariant violations",
                report.violations
            ));
        }
        let snap = recorder.snapshot();
        let mut solve_ms = Vec::new();
        for s in snap.spans.iter().filter(|s| s.track == "solver") {
            let start = root_start_us + (s.start_ms - clock0) * 1e3;
            tracer.record_us(
                ARRIVAL_OP,
                Some(root),
                "solver.search",
                start,
                start + s.dur_ms * 1e3,
            );
            solve_ms.push(s.dur_ms);
        }
        let resolve_ms = snap
            .histograms
            .get("dynamic.resolve.ms")
            .map_or(0.0, |h| h.mean());
        let lookups = (report.cache_hits + report.cache_misses).max(1);
        (
            replay_ms,
            solve_ms,
            resolve_ms,
            report.cache_hits as f64 / lookups as f64,
            snap.counters.get("cache.evictions").copied().unwrap_or(0) as f64,
            report.resolves as f64,
        )
    };

    // Derive the metrics.
    let hit = tracer.self_times_under("hit");
    let solve_t = tracer.self_times_under("solve");
    let parts = tracer.self_times_under("scheduler.parts");
    let batch = tracer.self_times_under("batch");
    let med = |m: &BTreeMap<&'static str, BTreeMap<u64, f64>>, name: &str| -> f64 {
        m.get(name).map_or(0.0, |ops| {
            median(&ops.values().copied().collect::<Vec<_>>())
        })
    };
    let unattributed: Vec<f64> = solve_t
        .get("scheduler.try_schedule")
        .map(|ops| {
            ops.iter()
                .map(|(op, &t)| {
                    let part =
                        |n: &str| parts.get(n).and_then(|m| m.get(op)).copied().unwrap_or(0.0);
                    t - part("encoding.build") - part("solver.search") - part("timeline.score")
                })
                .collect()
        })
        .unwrap_or_default();
    let mut solve_sorted = solve_ms.clone();
    solve_sorted.sort_by(f64::total_cmp);
    let pick = |sorted: &[f64], q: f64| {
        if sorted.is_empty() {
            0.0
        } else {
            quantile(sorted, q)
        }
    };
    let ms = 1e-3;
    metrics.extend([
        ("serve.parse_us", "us", med(&hit, "serve.parse")),
        ("serve.format_us", "us", med(&hit, "serve.format")),
        ("serve.dispatch_us", "us", median(&dispatch_us)),
        ("spec.decode_us", "us", med(&hit, "spec.decode")),
        ("spec.canonicalize_us", "us", med(&hit, "spec.canonicalize")),
        ("spec.key_us", "us", med(&hit, "spec.key")),
        ("engine.probe_us", "us", med(&hit, "engine.probe")),
        ("engine.context_ms", "ms", median(&context_ms)),
        ("api.serialize_us", "us", med(&hit, "api.serialize")),
        ("api.response_bytes", "bytes", median(&response_bytes)),
        ("api.batch_decode_us", "us", med(&batch, "api.batch_decode")),
        ("api.batch_encode_us", "us", med(&batch, "api.batch_encode")),
        (
            "profiler.resolve_ms",
            "ms",
            med(&solve_t, "profiler.resolve") * ms,
        ),
        (
            "encoding.build_ms",
            "ms",
            med(&parts, "encoding.build") * ms,
        ),
        ("solver.search_ms", "ms", med(&parts, "solver.search") * ms),
        ("solver.nodes", "count", median(&nodes)),
        (
            "solver.nodes_per_s",
            "1/s",
            nodes.iter().sum::<f64>() / search_s,
        ),
        (
            "solver.proven_share",
            "ratio",
            proven as f64 / inputs.specs.len() as f64,
        ),
        (
            "timeline.score_ms",
            "ms",
            med(&parts, "timeline.score") * ms,
        ),
        (
            "scheduler.schedule_ms",
            "ms",
            med(&solve_t, "scheduler.try_schedule") * ms,
        ),
        (
            "scheduler.unattributed_ms",
            "ms",
            median(&unattributed) * ms,
        ),
        (
            "session.batch_solve_ms",
            "ms",
            med(&batch, "session.batch_solve") * ms,
        ),
        ("runtime.fleet_ms", "ms", med(&batch, "runtime.fleet") * ms),
        ("runtime.scenarios_per_s", "1/s", median(&scenarios_per_s)),
        ("arrival.replay_s", "s", replay_ms * 1e-3),
        (
            "arrival.solve_share",
            "ratio",
            solve_ms.iter().sum::<f64>() / replay_ms,
        ),
        ("arrival.resolve_mean_ms", "ms", resolve_ms),
        ("arrival.resolve_p50_ms", "ms", pick(&solve_sorted, 0.5)),
        ("arrival.resolve_p99_ms", "ms", pick(&solve_sorted, 0.99)),
        ("arrival.cache_hit_ratio", "ratio", hit_ratio),
        ("arrival.cache_evictions", "count", evictions),
        ("arrival.resolves", "count", resolves),
    ]);

    // Self time per layer of each reconstruction.
    let layer_sum = |m: &BTreeMap<&'static str, BTreeMap<u64, f64>>, names: &[&str]| -> f64 {
        let mut per_op: BTreeMap<u64, f64> = BTreeMap::new();
        for n in names {
            for (op, t) in m.get(n).into_iter().flatten() {
                *per_op.entry(*op).or_default() += t;
            }
        }
        median(&per_op.into_values().collect::<Vec<_>>())
    };
    let layer = |name: &str, v: f64| (name.to_string(), v);
    breakdowns.insert(
        "hit",
        vec![
            layer("serve", layer_sum(&hit, &["serve.parse", "serve.format"])),
            layer(
                "spec",
                layer_sum(&hit, &["spec.decode", "spec.canonicalize", "spec.key"]),
            ),
            layer("engine", layer_sum(&hit, &["engine.probe"])),
            layer("api", layer_sum(&hit, &["api.serialize"])),
        ],
    );
    breakdowns.insert(
        "solve",
        vec![
            layer(
                "serve",
                layer_sum(&solve_t, &["serve.parse", "serve.format"]),
            ),
            layer(
                "spec",
                layer_sum(&solve_t, &["spec.decode", "spec.canonicalize", "spec.key"]),
            ),
            layer(
                "engine",
                layer_sum(
                    &solve_t,
                    &["engine.probe", "engine.context", "engine.transitions"],
                ),
            ),
            layer("profiler", layer_sum(&solve_t, &["profiler.resolve"])),
            layer("encoding", layer_sum(&parts, &["encoding.build"])),
            layer("solver", layer_sum(&parts, &["solver.search"])),
            layer("timeline", layer_sum(&parts, &["timeline.score"])),
            layer("scheduler", median(&unattributed)),
            layer("api", layer_sum(&solve_t, &["api.serialize"])),
        ],
    );
    let events = inputs.trace.len().max(1) as f64;
    let solver_total_us = solve_ms.iter().sum::<f64>() * 1e3;
    breakdowns.insert(
        "arrival.replay",
        vec![
            layer("solver", solver_total_us / events),
            layer("arrival", (replay_ms * 1e3 - solver_total_us) / events),
        ],
    );
    Ok(Pass {
        metrics,
        probe,
        breakdowns,
        trace_events: inputs.trace.len(),
    })
}

/// What a traced run reports beyond the pass itself.
pub struct TracedRun<'a> {
    /// The workload's own served view, when it is served over HTTP.
    pub own: Option<&'a ServedView>,
    /// Throughput of the untraced half, ops/s.
    pub untraced_ops_s: f64,
    /// Throughput of the traced half, ops/s.
    pub traced_ops_s: f64,
    /// Root of the workload's primary op in the pass.
    pub primary: &'static str,
    /// Client-observed p50 of the primary op in the traced half, µs.
    pub client_p50_us: f64,
}

/// What a traced run reports.
pub struct LayerReport {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Self time per layer of the primary op, µs, ending with the
    /// unattributed residual, so the rows add up to the client-observed
    /// p50.
    pub breakdown: Vec<(String, f64)>,
    /// Figures printed but not reported as metrics.
    pub extras: Vec<(&'static str, f64)>,
}

/// The report of a traced run from its pass and its timed halves.
pub fn report(pass: Pass, run: &TracedRun<'_>) -> LayerReport {
    let view = run.own.unwrap_or(&pass.probe);
    let mut metrics = pass.metrics;
    metrics.extend([
        ("serve.server_mean_us", "us", view.server_mean_us),
        (
            "serve.client_gap_us",
            "us",
            view.client_mean_us - view.server_mean_us,
        ),
        ("serve.wakeups_per_req", "count", view.wakeups_per_req),
        ("engine.hit_ratio", "ratio", view.hit_ratio),
        ("engine.evictions", "count", view.evictions),
        ("trace.untraced_ops_s", "ops/s", run.untraced_ops_s),
        ("trace.traced_ops_s", "ops/s", run.traced_ops_s),
        (
            "trace.overhead_ratio",
            "ratio",
            run.untraced_ops_s / run.traced_ops_s,
        ),
    ]);
    let mut breakdown = pass
        .breakdowns
        .get(run.primary)
        .cloned()
        .unwrap_or_default();
    let attributed: f64 = breakdown.iter().map(|(_, v)| v).sum();
    let residual = run.client_p50_us - attributed;
    breakdown.push(("unattributed".to_string(), residual));
    metrics.push(("trace.client_p50_us", "us", run.client_p50_us));
    metrics.push(("trace.residual_us", "us", residual));
    let extras = vec![
        ("serve.server_p50_us (log2 bucket edge)", view.server_p50_us),
        ("serve.server_p99_us (log2 bucket edge)", view.server_p99_us),
        ("arrival pass events", pass.trace_events as f64),
    ];
    LayerReport {
        metrics,
        breakdown,
        extras,
    }
}

/// `serve.parse` of one raw request.
fn parse(
    tracer: &mut Tracer,
    op: u64,
    root: usize,
    raw: &[u8],
) -> Result<haxconn::serve::http::Request, String> {
    match tracer.time(op, root, "serve.parse", || parse_request(raw, MAX_BODY)) {
        Ok(Some((req, _))) => Ok(req),
        Ok(None) => Err("a raw request parsed as incomplete".into()),
        Err(e) => Err(format!("parse: {e:?}")),
    }
}

/// `serve.parse` then `spec.decode`, `spec.canonicalize` and `spec.key`
/// of one raw schedule request.
fn decode_spec(
    tracer: &mut Tracer,
    op: u64,
    root: usize,
    raw: &[u8],
) -> Result<(WorkloadSpec, String), String> {
    let req = parse(tracer, op, root, raw)?;
    let spec: WorkloadSpec = tracer
        .time(op, root, "spec.decode", || serde_json::from_str(&req.body))
        .map_err(err)?;
    let canonical = tracer
        .time(op, root, "spec.canonicalize", || spec.canonicalize())
        .map_err(err)?;
    let key = tracer
        .time(op, root, "spec.key", || canonical.to_json())
        .map_err(err)?;
    Ok((canonical, key))
}
