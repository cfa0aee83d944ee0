//! Helpers shared by the workloads: the closed loop, the served daemon,
//! the output checks and the DES quality figures.

use crate::layers::LayerInputs;
use crate::stats::{Op, Records};
use crate::tracer::Tracer;
use haxconn::api::{HealthResponse, ScheduleResponse};
use haxconn::core::baselines::{Baseline, BaselineKind};
use haxconn::core::engine::{Engine, EngineOptions};
use haxconn::core::problem::Workload;
use haxconn::core::scheduler::Schedule;
use haxconn::core::spec::WorkloadSpec;
use haxconn::runtime::execute;
use haxconn::serve::client::Client;
use haxconn::serve::{serve, ServeOptions, ServerHandle};
use haxconn::soc::{Platform, PuId};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Set-up repetitions per process; the process's set-up figure is their
/// first quartile.
pub const SETUP_REPS: usize = 15;

/// Runs `once` [`SETUP_REPS`] times, dropping each result before the
/// next starts, and returns the last result with the first quartile of
/// the repetitions' durations, s.
pub fn set_up<T>(mut once: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let started = Instant::now();
        let out = once()?;
        times.push(started.elapsed().as_secs_f64());
        last = Some(out);
    }
    let first_quartile = crate::stats::quieter_quartile(&times, true);
    Ok((
        last.expect("at least one set-up repetition"),
        first_quartile,
    ))
}

/// How one run is configured.
pub struct RunCfg {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Traced run: split the timed phase into an untraced and a traced
    /// half, then run the per-layer pass.
    pub trace: bool,
}

/// What a workload hands back.
pub struct Outcome {
    /// Raw records of the (traced, in a traced run) timed phase.
    pub records: Records,
    /// Output-check failures, one line each.
    pub problems: Vec<String>,
    /// The per-layer report (traced runs only).
    pub layers: Option<crate::layers::LayerReport>,
    /// Spans of the traced run.
    pub tracer: Option<Tracer>,
}

/// Ops and wall time of one timed phase.
pub struct Phase {
    /// The ops, in order.
    pub ops: Vec<Op>,
    /// Wall time of the phase, s.
    pub wall_s: f64,
}

impl Phase {
    /// Successful ops per wall second.
    pub fn throughput(&self) -> f64 {
        let ok: u64 = self
            .ops
            .iter()
            .filter(|o| o.ok)
            .map(|o| o.units as u64)
            .sum();
        ok as f64 / self.wall_s
    }

    /// Mean op latency, µs.
    pub fn mean_latency_us(&self) -> f64 {
        self.ops.iter().map(|o| o.lat_us).sum::<f64>() / self.ops.len().max(1) as f64
    }

    /// Median op latency, µs.
    pub fn median_latency_us(&self) -> f64 {
        crate::stats::median(&self.ops.iter().map(|o| o.lat_us).collect::<Vec<_>>())
    }
}

/// An empty vector whose `capacity` slots are already resident: the
/// benchmark's own per-op storage then adds a constant to the process's
/// peak RSS instead of an amount that follows the run's throughput.
pub fn resident<T: Clone>(fill: T, capacity: usize) -> Vec<T> {
    let mut v = vec![fill; capacity];
    v.clear();
    v
}

/// Runs `op` back to back until `dur` has passed and at least `min_ops`
/// ops ran. `op` gets its index and the phase start and returns the
/// record.
pub fn closed_loop(
    dur: Duration,
    min_ops: usize,
    capacity: usize,
    mut op: impl FnMut(u64, Instant) -> Op,
) -> Phase {
    let fill = Op {
        start_us: 0.0,
        lat_us: 0.0,
        units: 1,
        ok: true,
    };
    let mut ops = resident(fill, capacity);
    let start = Instant::now();
    while start.elapsed() < dur || ops.len() < min_ops {
        let i = ops.len() as u64;
        ops.push(op(i, start));
    }
    Phase {
        ops,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Times one request of a closed loop and records it.
pub fn timed_request(
    client: &mut Client,
    path: &str,
    body: &str,
    op: u64,
    phase_start: Instant,
    tracer: Option<&mut Tracer>,
    span: &'static str,
) -> (Op, Option<(u16, String)>) {
    let sent = Instant::now();
    let reply = client.post(path, body).ok();
    let done = Instant::now();
    if let Some(t) = tracer {
        t.record(op, None, span, sent, done);
    }
    let record = Op {
        start_us: sent.duration_since(phase_start).as_secs_f64() * 1e6,
        lat_us: done.duration_since(sent).as_secs_f64() * 1e6,
        units: 1,
        ok: matches!(reply, Some((200, _))),
    };
    (record, reply)
}

/// Boots the daemon on an ephemeral port with default options.
pub fn boot() -> Result<ServerHandle, String> {
    serve(ServeOptions::default()).map_err(|e| format!("server boot: {e}"))
}

/// One keep-alive connection to `server`.
pub fn connect(server: &ServerHandle) -> Result<Client, String> {
    Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))
}

/// `POST /v1/schedule` that must answer 200.
pub fn post_ok(client: &mut Client, path: &str, body: &str) -> Result<String, String> {
    match client.post(path, body) {
        Ok((200, reply)) => Ok(reply),
        Ok((status, reply)) => Err(format!("{path} answered {status}: {reply}")),
        Err(e) => Err(format!("{path}: {e}")),
    }
}

/// `GET /v1/health`.
pub fn health(client: &mut Client) -> Result<HealthResponse, String> {
    match client.get("/v1/health") {
        Ok((200, body)) => serde_json::from_str(&body).map_err(|e| format!("health: {e}")),
        Ok((status, body)) => Err(format!("health answered {status}: {body}")),
        Err(e) => Err(format!("health: {e}")),
    }
}

/// Current value of a telemetry counter of the process-wide recorder.
pub fn telemetry_counter(name: &str) -> u64 {
    haxconn::telemetry::memory_recorder()
        .and_then(|r| r.snapshot().counters.get(name).copied())
        .unwrap_or(0)
}

/// A one-task spec per platform: warms a server's platform contexts and
/// never collides with a generated spec (those have two or three tasks).
pub fn warm_specs() -> Vec<WorkloadSpec> {
    crate::gen::PLATFORMS
        .iter()
        .map(|p| WorkloadSpec::new(*p).task("AlexNet", 2))
        .collect()
}

/// Whether a served response carries exactly `fresh`'s schedule:
/// assignment, cost bits and predicted makespan bits.
pub fn same_schedule(wire: &ScheduleResponse, fresh: &Schedule) -> bool {
    wire.assignment == fresh.assignment
        && wire.cost.to_bits() == fresh.cost.to_bits()
        && wire.makespan_ms.to_bits() == fresh.predicted.makespan_ms.to_bits()
}

/// A hash of what [`same_schedule`] compares: assignment, cost bits and
/// predicted makespan bits.
pub fn fingerprint(assignment: &[Vec<PuId>], cost: f64, makespan_ms: f64) -> u64 {
    let mut h = DefaultHasher::new();
    (assignment, cost.to_bits(), makespan_ms.to_bits()).hash(&mut h);
    h.finish()
}

/// DES quality of one served assignment: pushes `(served makespan, best
/// baseline makespan)` and one unit-weight latency per task.
pub fn des_quality(
    platform: &Platform,
    workload: &Workload,
    served: &[Vec<PuId>],
    records: &mut Records,
) {
    let run = execute(platform, workload, served);
    let best = BaselineKind::all()
        .iter()
        .map(|&k| {
            execute(
                platform,
                workload,
                &Baseline::assignment(k, platform, workload),
            )
            .makespan_ms
        })
        .fold(f64::INFINITY, f64::min);
    records.makespans.push((run.makespan_ms, best));
    records
        .task_latency
        .extend(run.task_latency_ms.iter().map(|&l| (1.0, l)));
}

/// The layer-pass inputs of a workload whose own inputs are `specs`:
/// every spec, a round-robin hit sequence, batch requests built from the
/// first specs (each with the HaX-CoNN assignment an in-process engine
/// solves for it), and a short arrival trace.
pub fn derived_inputs(seed: u64, specs: Vec<WorkloadSpec>) -> Result<LayerInputs, String> {
    let hit_seq = (0..DERIVED_HITS).map(|k| k % specs.len()).collect();
    let engine = Engine::new(EngineOptions::default());
    let batch = specs
        .iter()
        .take(DERIVED_BATCH_SPECS)
        .enumerate()
        .map(|(i, spec)| {
            let (platform, workload) = spec.resolve().map_err(|e| e.to_string())?;
            let out = engine.schedule(spec).map_err(|e| e.to_string())?;
            Ok(crate::gen::batch_request(
                seed,
                i,
                spec,
                &platform,
                &workload,
                &out.schedule().assignment,
                DERIVED_BATCH_CANDIDATES,
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok(LayerInputs {
        specs,
        hit_seq,
        batch,
        trace: crate::gen::arrival_trace(seed, 0, DERIVED_TRACE_EVENTS),
    })
}

/// Hit reconstructions of a derived layer pass.
const DERIVED_HITS: usize = 2000;
/// Specs a derived layer pass turns into batch requests.
const DERIVED_BATCH_SPECS: usize = 4;
/// Candidates per derived batch request.
const DERIVED_BATCH_CANDIDATES: usize = 16;
/// Events of a derived arrival trace.
const DERIVED_TRACE_EVENTS: usize = 200;

/// The raw bytes `Client` sends for one request (the input of the
/// parse layer in the per-layer pass).
pub fn raw_request(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: haxconn\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Mean of `v` (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
