#![warn(missing_docs)]

//! HaX-CoNN: heterogeneity-aware execution of concurrent DNNs.
//!
//! This crate is the paper's primary contribution: it maps layer groups of
//! concurrently executing DNN inference workloads onto the accelerators of
//! a shared-memory SoC, jointly accounting for
//!
//! * per-group, per-accelerator execution time (profiles from
//!   `haxconn-profiler`),
//! * inter-accelerator transition costs (`tau(.., OUT|IN)`, Eq. 2–3),
//! * shared-memory contention slowdown via the decoupled PCCS-style model
//!   (`haxconn-contention`, Eq. 7), evaluated over *contention intervals*
//!   (Eq. 4–8),
//!
//! and solving for the optimal assignment with the branch-&-bound engine in
//! `haxconn-solver` under one of two objectives: minimize the maximum DNN
//! latency (Eq. 11) or maximize aggregate throughput (Eq. 10).
//!
//! Module map:
//!
//! * [`problem`] — workloads, objectives, scheduler configuration,
//! * [`interval`] — the interval-overlap algebra of Eq. 8,
//! * [`timeline`] — the contention-interval timeline evaluator
//!   (prediction), with the ε-overlap constraint of Eq. 9,
//! * [`encoding`] — the scheduling problem as a [`haxconn_solver::CostModel`],
//! * [`baselines`] — GPU-only, naive GPU+DSA, and the Mensa-, Herald- and
//!   H2H-like comparison schedulers from the paper's evaluation,
//! * [`scheduler`] — `HaxConn` (static optimal schedules) including the
//!   never-worse-than-baseline fallback,
//! * [`dynamic`] — `DHaxConn`, the anytime/dynamic variant (Fig. 7),
//! * [`cache`] — the one schedule cache (Section 3.5): a sharded LRU
//!   keyed by canonical-spec JSON in the serving engine and by
//!   [`WorkloadSignature`] for CFG phases and tenant mixes,
//! * [`arrival`] — the multi-tenant arrival engine: trace-driven
//!   joins/leaves/SLA changes with re-solve policies, contention-aware
//!   throttling of best-effort co-runners, and per-tenant accounting,
//! * [`validate`] — schedule/timeline invariant checking (read-only;
//!   wired behind `debug_assertions` in the scheduler and surfaced through
//!   the `haxconn-check` crate),
//! * [`spec`] — the serializable, canonicalizable [`WorkloadSpec`]
//!   request type shared by the CLI, `Session`, and `haxconn serve`,
//! * [`engine`] — the thread-shareable serving [`Engine`] (schedule
//!   cache, request coalescing, admission control, degraded baseline
//!   fallback),
//! * [`mod@measure`] — schedules replayed on the SoC into the one
//!   [`ExecutionReport`] (latency, FPS, per-task slowdown on demand).

pub mod arrival;
pub mod baselines;
pub mod cache;
pub mod dynamic;
pub mod encoding;
pub mod energy;
pub mod engine;
pub mod error;
pub mod gantt;
pub mod interval;
pub mod measure;
pub mod problem;
pub mod scenario;
pub mod scheduler;
pub mod spec;
pub mod timeline;
pub mod trace;
pub mod validate;

pub use arrival::{
    replay as replay_arrivals, ArrivalEvent, ArrivalTrace, ReplayOptions, ResolveAction,
    ResolvePoint, ResolvePolicy, SlaClass, TenantEvent, TenantReport, TenantSpec, TenantStats,
};
pub use baselines::{Baseline, BaselineKind};
pub use cache::{ShardedCache, WorkloadSignature};
pub use dynamic::{DHaxConn, IncumbentClock};
pub use encoding::{ScheduleEncoding, ScheduleScratch};
pub use energy::{dynamic_energy_mj, dynamic_energy_with, energy_of, schedule_min_energy};
pub use engine::{
    Engine, EngineOptions, EngineSchedule, EngineStatsSnapshot, PlatformCtx, SolvedEntry,
};
pub use error::{parse_model, parse_objective, parse_platform, HaxError};
pub use gantt::render_gantt;
pub use measure::{execute, execute_loop, stage, task_slowdown, DesRunner, ExecutionReport};
pub use problem::{DnnTask, Objective, SchedulerConfig, Workload};
pub use scenario::{generate_instance, generate_instance_on, GeneratedInstance, Scenario};
pub use scheduler::{HaxConn, Schedule, ScheduleOrigin, Transition};
pub use spec::{TaskSpec, WorkloadSpec};
pub use timeline::{PredictedTimeline, TimelineEvaluator, TimelineSummary, TimelineWorkspace};
pub use trace::{chrome_trace_json, chrome_trace_json_with_snapshot};
pub use validate::{
    validate_schedule, validate_timeline, InvariantClass, ValidationReport, Violation,
};
