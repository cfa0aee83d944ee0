#![warn(missing_docs)]

//! Schedule execution and fleet evaluation.
//!
//! The paper executes schedules with one TensorRT context per DNN and a
//! custom plugin that synchronizes concurrently running DNNs through
//! inter-process shared-memory primitives. This crate reproduces that
//! concurrency structure — per-PU FIFO occupancy, EMC bandwidth grants
//! stretching the active set, transition flush/reformat steps, frame-k
//! streaming dependencies — through the SoC's single-threaded contention
//! replay ([`haxconn_soc::replay`]). Every report is **bit-deterministic**:
//! the same schedule always produces a bit-identical [`ExecutionReport`].
//!
//! * [`execute`] / [`execute_loop`] (from `haxconn_core::measure`, where
//!   the validated scheduler uses the same pooled runner) run one
//!   schedule, single-shot or as a continuous frame loop.
//! * [`fleet::evaluate_fleet`] fans batches of (workload, assignment,
//!   iterations) scenarios across a [`par_map_with`] worker pool with one
//!   reusable replay per worker — the fast measurement backend for
//!   fleet-scale schedule evaluation.
//! * [`stream`] checks whether a schedule keeps up with a fixed-rate
//!   camera stream.

pub mod fleet;
pub mod stream;

pub use fleet::{evaluate_fleet, par_map, par_map_with, FleetOptions, FleetReport, FleetScenario};
pub use haxconn_core::measure::{execute, execute_loop, DesRunner, ExecutionReport};
pub use haxconn_soc::ItemRecord;
pub use stream::{simulate_stream, try_simulate_stream, StreamConfig, StreamReport};
