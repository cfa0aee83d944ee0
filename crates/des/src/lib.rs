#![warn(missing_docs)]

//! Deterministic discrete-event simulation engine.
//!
//! This crate is the lowest substrate of the HaX-CoNN reproduction: the
//! shared-memory SoC simulator (`haxconn-soc`) and the virtual-time executor
//! (`haxconn-runtime`) are both built on the event queue and engine defined
//! here.
//!
//! Design goals:
//!
//! * **Determinism** — events scheduled for the same timestamp are delivered
//!   in FIFO order of scheduling (a monotonically increasing sequence number
//!   breaks ties), so two runs of the same model produce identical traces.
//! * **No global state** — an [`Engine`] owns its queue and clock; many
//!   engines can run concurrently on different threads.
//! * **Cheap events** — the queue is a binary heap of `(time, seq, event)`
//!   entries; scheduling and popping are `O(log n)` with no allocation beyond
//!   the heap storage itself.
//!
//! Time is represented in **milliseconds** ([`SimTime`]), matching the unit
//! the HaX-CoNN paper reports all latencies in.

pub mod engine;
pub mod queue;
pub mod time;

pub use engine::{Engine, SimModel};
pub use queue::EventQueue;
pub use time::SimTime;
