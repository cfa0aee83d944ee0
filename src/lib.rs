#![warn(missing_docs)]

//! # HaX-CoNN: shared-memory-contention-aware concurrent DNN execution
//!
//! A full Rust reproduction of *"Shared Memory-contention-aware Concurrent
//! DNN Execution for Diversely Heterogeneous System-on-Chips"* (PPoPP
//! 2024). This facade crate re-exports the whole stack; see `DESIGN.md` for
//! the crate-by-crate inventory and `EXPERIMENTS.md` for the reproduced
//! tables and figures.
//!
//! ## Quickstart
//!
//! The [`Session`](session::Session) builder is the one-stop entry point;
//! every fallible step returns a [`HaxError`](core::HaxError) instead of
//! panicking:
//!
//! ```
//! use haxconn::prelude::*;
//!
//! fn main() -> Result<(), HaxError> {
//!     // Profile two DNNs on a simulated NVIDIA AGX Orin and find the
//!     // optimal contention-aware schedule...
//!     let scheduled = Session::on("orin-agx")
//!         .task(Model::GoogleNet, 8)
//!         .task(Model::ResNet101, 8)
//!         .objective(Objective::MinMaxLatency)
//!         .schedule()?;
//!
//!     // ...and measure it on the simulated SoC.
//!     let measured = scheduled.measure()?;
//!     assert!(measured.makespan_ms > 0.0);
//!     println!("{}: {:.2} ms", scheduled.describe(), measured.makespan_ms);
//!     Ok(())
//! }
//! ```
//!
//! The underlying pieces (profiles, workloads, the scheduler, the
//! simulator) remain available for direct use; `Session` only composes
//! them. Library APIs report failures as `Result<_, HaxError>`; the
//! `haxconn` binary prints the error and exits nonzero.

pub mod api;
pub mod cli;
pub mod serve;
pub mod session;

pub use haxconn_check as check;
pub use haxconn_contention as contention;
pub use haxconn_core as core;
pub use haxconn_des as des;
pub use haxconn_dnn as dnn;
pub use haxconn_profiler as profiler;
pub use haxconn_runtime as runtime;
pub use haxconn_soc as soc;
pub use haxconn_solver as solver;
pub use haxconn_telemetry as telemetry;

pub use serve::{serve, ServeOptions, ServerHandle};
pub use session::{ModelSpec, PlatformSpec, ScheduledSession, Session};

/// The most common imports, in one place.
pub mod prelude {
    pub use crate::serve::{serve, ServeOptions, ServerHandle};
    pub use crate::session::{ScheduledSession, Session};
    pub use haxconn_contention::ContentionModel;
    pub use haxconn_core::{
        arrival::{
            replay as replay_arrivals, ArrivalTrace, ReplayOptions, ResolvePolicy, SlaClass,
            TenantEvent, TenantReport, TenantSpec,
        },
        baselines::{Baseline, BaselineKind},
        dynamic::DHaxConn,
        engine::{Engine, EngineOptions, EngineSchedule, EngineStatsSnapshot},
        parse_model, parse_objective, parse_platform,
        problem::{DnnTask, Objective, SchedulerConfig, Workload},
        scheduler::{HaxConn, Schedule, ScheduleOrigin, Transition},
        spec::{TaskSpec, WorkloadSpec},
        timeline::TimelineEvaluator,
        validate::{validate_schedule, validate_timeline, InvariantClass, ValidationReport},
        HaxError,
    };
    pub use haxconn_dnn::{Model, Network, TensorShape};
    pub use haxconn_profiler::NetworkProfile;
    pub use haxconn_runtime::{
        evaluate_fleet, execute, execute_loop, ExecutionReport, FleetOptions, FleetReport,
        FleetScenario,
    };
    pub use haxconn_soc::{
        orin_agx, snapdragon_865, xavier_agx, Platform, PlatformId, PuId, PuKind,
    };
    pub use haxconn_telemetry::{MemoryRecorder, Snapshot};
}
