#![warn(missing_docs)]

//! Schedule execution and fleet evaluation.
//!
//! The paper executes schedules with one TensorRT context per DNN and a
//! custom plugin that synchronizes concurrently running DNNs through
//! inter-process shared-memory primitives. This crate reproduces that
//! concurrency structure — per-PU FIFO occupancy, EMC bandwidth grants
//! stretching the active set, transition flush/reformat steps, frame-k
//! streaming dependencies — through the SoC's single-threaded contention
//! replay ([`haxconn_soc::replay`]), the same engine behind
//! `haxconn_core::measure`. Every report is **bit-deterministic**: the
//! same schedule always produces a byte-identical [`ExecutionReport`].
//!
//! * [`execute`] / [`execute_loop`] run one schedule, single-shot or as a
//!   continuous frame loop.
//! * [`fleet::evaluate_fleet`] fans batches of (workload, assignment,
//!   iterations) scenarios across a [`par_map`] worker pool with one
//!   reusable replay per worker — the fast measurement backend for
//!   fleet-scale schedule evaluation — and [`FleetEvaluator`] is its
//!   allocation-free single-threaded form.
//! * [`stream`] checks whether a schedule keeps up with a fixed-rate
//!   camera stream.

pub mod executor;
pub mod fleet;
pub mod stream;

pub use executor::{execute, execute_loop, ExecutionReport};
pub use fleet::{
    evaluate_fleet, par_map, par_map_with, FleetArena, FleetEvaluator, FleetOptions, FleetReport,
    FleetScenario, FleetView,
};
pub use haxconn_soc::ItemRecord;
pub use stream::{simulate_stream, try_simulate_stream, StreamConfig, StreamReport};
