//! The versioned wire format of `haxconn serve`.
//!
//! Every response body carries `schema` ([`SCHEMA_VERSION`]) so clients
//! can detect format changes, and every failure maps a typed
//! [`HaxError`] to a stable machine-readable code plus an HTTP status
//! ([`error_code`]) — the CLI/server boundary never leaks stringly
//! errors a client would have to pattern-match.
//!
//! Request type: [`WorkloadSpec`] (see `haxconn_core::spec`) is the one
//! canonical scheduling request; [`BatchRequest`] wraps it with
//! candidate assignments for fleet evaluation.

use haxconn_core::engine::{EngineSchedule, EngineStatsSnapshot};
use haxconn_core::scheduler::ScheduleOrigin;
use haxconn_core::{HaxError, WorkloadSpec};
use haxconn_runtime::ExecutionReport;
use serde::{Deserialize, Serialize};

/// Wire schema version; bumped on any breaking change to the response
/// shapes in this module.
pub const SCHEMA_VERSION: u64 = 1;

/// Maps a [`HaxError`] to its stable machine-readable code and HTTP
/// status. Codes are part of the wire contract: they never change
/// spelling once shipped.
pub fn error_code(e: &HaxError) -> (&'static str, u16) {
    match e {
        HaxError::UnknownModel(_) => ("unknown_model", 400),
        HaxError::UnknownPlatform(_) => ("unknown_platform", 400),
        HaxError::UnknownObjective(_) => ("unknown_objective", 400),
        HaxError::Cli(_) => ("bad_request", 400),
        HaxError::InvalidWorkload(_) => ("invalid_workload", 422),
        HaxError::InvalidConfig(_) => ("invalid_config", 422),
        HaxError::Infeasible(_) => ("infeasible", 422),
        HaxError::ScheduleInvariant(_) => ("schedule_invariant", 500),
        HaxError::Io(_) => ("io", 500),
        HaxError::Overloaded(_) => ("overloaded", 503),
    }
}

/// The JSON body of every non-2xx response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Wire schema version.
    pub schema: u64,
    /// Stable machine-readable code (see [`error_code`]).
    pub error: String,
    /// Human-readable detail.
    pub message: String,
}

impl ErrorBody {
    /// The `(status, body)` pair for a [`HaxError`].
    pub fn of(e: &HaxError) -> (u16, ErrorBody) {
        let (code, status) = error_code(e);
        (
            status,
            ErrorBody {
                schema: SCHEMA_VERSION,
                error: code.to_string(),
                message: e.to_string(),
            },
        )
    }

    /// A body for protocol-level failures with no [`HaxError`] behind
    /// them (bad JSON, unknown route, wrong method, oversized payload).
    pub fn protocol(code: &str, message: impl Into<String>) -> ErrorBody {
        ErrorBody {
            schema: SCHEMA_VERSION,
            error: code.to_string(),
            message: message.into(),
        }
    }
}

/// One inter-accelerator transition on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransitionWire {
    /// Task index.
    pub task: usize,
    /// Group after which execution switches PUs.
    pub after_group: usize,
    /// Network layer id at the boundary.
    pub after_layer: usize,
    /// PU before the switch.
    pub from: usize,
    /// PU after the switch.
    pub to: usize,
}

/// Response of `POST /v1/schedule`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleResponse {
    /// Wire schema version.
    pub schema: u64,
    /// Served from the schedule cache.
    pub cached: bool,
    /// Joined an identical in-flight solve.
    pub coalesced: bool,
    /// Degraded baseline served under overload.
    pub degraded: bool,
    /// `"optimal"` or `"fallback:<baseline name>"`.
    pub origin: String,
    /// Whether the solver proved optimality.
    pub proven_optimal: bool,
    /// Objective value (lower = better; throughput is negated FPS).
    pub cost: f64,
    /// Predicted completion of the last task, ms.
    pub makespan_ms: f64,
    /// Predicted per-task completion times, ms.
    pub task_latency_ms: Vec<f64>,
    /// `assignment[task][group]` = PU index.
    pub assignment: Vec<Vec<usize>>,
    /// Inter-accelerator transitions.
    pub transitions: Vec<TransitionWire>,
}

impl ScheduleResponse {
    /// Builds the wire response for an engine result.
    pub fn from_engine(out: &EngineSchedule) -> ScheduleResponse {
        let s = out.schedule();
        ScheduleResponse {
            schema: SCHEMA_VERSION,
            cached: out.cached,
            coalesced: out.coalesced,
            degraded: out.degraded,
            origin: match s.origin {
                ScheduleOrigin::Optimal => "optimal".to_string(),
                ScheduleOrigin::Fallback(kind) => format!("fallback:{}", kind.name()),
            },
            proven_optimal: s.proven_optimal,
            cost: s.cost,
            makespan_ms: s.predicted.makespan_ms,
            task_latency_ms: s.predicted.task_latency_ms.clone(),
            assignment: s.assignment.clone(),
            transitions: out
                .entry
                .transitions
                .iter()
                .map(|t| TransitionWire {
                    task: t.task,
                    after_group: t.after_group,
                    after_layer: t.after_layer,
                    from: t.from,
                    to: t.to,
                })
                .collect(),
        }
    }
}

/// Request of `POST /v1/batch`: evaluate candidate assignments of one
/// workload on the deterministic DES fleet evaluator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchRequest {
    /// The workload the candidates belong to.
    pub spec: WorkloadSpec,
    /// `candidates[i][task][group]` = PU index.
    pub candidates: Vec<Vec<Vec<usize>>>,
    /// Iterations per scenario (default 1 = single-shot).
    pub iterations: Option<usize>,
}

/// One candidate's measured execution in a [`BatchResponse`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchReport {
    /// Completion of the whole workload, ms (virtual time).
    pub makespan_ms: f64,
    /// Aggregate FPS ([`ExecutionReport::fps`]).
    pub fps: f64,
    /// Per-task completion times, ms.
    pub task_latency_ms: Vec<f64>,
}

impl BatchReport {
    /// Projects an [`ExecutionReport`] onto the wire.
    pub fn from_execution(r: &ExecutionReport) -> BatchReport {
        BatchReport {
            makespan_ms: r.makespan_ms,
            fps: r.fps(),
            task_latency_ms: r.task_latency_ms.clone(),
        }
    }
}

/// Response of `POST /v1/batch` (reports in candidate order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchResponse {
    /// Wire schema version.
    pub schema: u64,
    /// One report per candidate, in input order.
    pub reports: Vec<BatchReport>,
}

/// Server-side counters reported by `GET /v1/health`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ServerStatsWire {
    /// Connections accepted.
    pub connections: u64,
    /// Connections currently open (registered with the reactor).
    pub open_connections: u64,
    /// HTTP requests parsed.
    pub requests: u64,
    /// 2xx responses sent.
    pub http_2xx: u64,
    /// 4xx responses sent.
    pub http_4xx: u64,
    /// 5xx responses sent (503s included).
    pub http_5xx: u64,
    /// Connections answered 503 straight from the accept edge because
    /// the connection cap was reached (backpressure).
    pub accept_queue_rejections: u64,
    /// Keep-alive connections evicted after the idle timeout.
    pub idle_closed: u64,
    /// Responses that failed to serialize (answered `500 internal`).
    pub serialize_errors: u64,
    /// Reactor wakeups that returned at least one readiness event.
    pub reactor_wakeups: u64,
    /// Request latency, microseconds: median estimate.
    pub latency_p50_us: f64,
    /// Request latency, microseconds: p99 estimate.
    pub latency_p99_us: f64,
    /// Request latency, microseconds: exact mean.
    pub latency_mean_us: f64,
}

/// Response of `GET /v1/health`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthResponse {
    /// Wire schema version.
    pub schema: u64,
    /// `"ok"` while serving.
    pub status: String,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Scheduling engine counters.
    pub engine: EngineStatsSnapshot,
    /// HTTP-layer counters.
    pub server: ServerStatsWire,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_error_variant_has_a_stable_code() {
        let cases = [
            (HaxError::UnknownModel("x".into()), "unknown_model", 400),
            (
                HaxError::UnknownPlatform("x".into()),
                "unknown_platform",
                400,
            ),
            (
                HaxError::UnknownObjective("x".into()),
                "unknown_objective",
                400,
            ),
            (HaxError::Cli("x".into()), "bad_request", 400),
            (
                HaxError::InvalidWorkload("x".into()),
                "invalid_workload",
                422,
            ),
            (HaxError::InvalidConfig("x".into()), "invalid_config", 422),
            (HaxError::Infeasible("x".into()), "infeasible", 422),
            (
                HaxError::ScheduleInvariant("x".into()),
                "schedule_invariant",
                500,
            ),
            (HaxError::Io("x".into()), "io", 500),
            (HaxError::Overloaded("x".into()), "overloaded", 503),
        ];
        for (err, code, status) in cases {
            assert_eq!(error_code(&err), (code, status), "{err}");
            let (s, body) = ErrorBody::of(&err);
            assert_eq!(s, status);
            assert_eq!(body.error, code);
            assert_eq!(body.schema, SCHEMA_VERSION);
        }
    }

    #[test]
    fn wire_bodies_round_trip() {
        let body = ErrorBody::protocol("bad_json", "expected a JSON object");
        let json = serde_json::to_string(&body).unwrap();
        let back: ErrorBody = serde_json::from_str(&json).unwrap();
        assert_eq!(back, body);

        let req = BatchRequest {
            spec: WorkloadSpec::new("orin").task("googlenet", 4),
            candidates: vec![vec![vec![0, 0, 1, 1]]],
            iterations: Some(3),
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: BatchRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);
    }
}
