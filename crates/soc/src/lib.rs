#![warn(missing_docs)]

//! Shared-memory heterogeneous SoC simulator.
//!
//! This crate substitutes for the physical evaluation platforms of the
//! HaX-CoNN paper (NVIDIA AGX Orin, NVIDIA Xavier AGX, Qualcomm Snapdragon
//! 865). It models:
//!
//! * **Processing units** ([`pu`]) — a GPU plus one domain-specific
//!   accelerator (DLA or Hexagon DSP) per platform, each with a roofline
//!   compute model whose per-layer efficiency reproduces the qualitative
//!   behaviour the paper measures in Section 3.2: GPUs excel at large
//!   convolutions and matrix ops, DLAs at small-kernel convolutions that fit
//!   their on-chip buffer, and DLAs are poor at fully-connected layers.
//! * **The external memory controller** ([`emc`]) — all PUs share one
//!   LPDDR interface; when their combined demand approaches its capacity,
//!   grants shrink and memory-bound phases stretch. This is the *ground
//!   truth* contention behaviour that the PCCS-style model in
//!   `haxconn-contention` approximates (deliberately imperfectly, so that
//!   model error exists just as on real hardware).
//! * **Concurrent execution** ([`replay`]) — the contention replay: chains
//!   of work items racing on different PUs under EMC arbitration, with
//!   per-PU FIFO serialization and frame-level dependencies between
//!   chains, as discrete events on the `haxconn-des` engine. It is the one
//!   ground truth behind every measured number: `execute`, `execute_loop`
//!   and fleet evaluation all copy out its one [`ExecutionReport`].
//!
//! Platform models calibrated against Table 4 of the paper live in
//! [`platform`].

pub mod cost;
pub mod emc;
pub mod platform;
pub mod power;
pub mod pu;
pub mod replay;

pub use cost::LayerCost;
pub use emc::{EmcSpec, GrantScratch};
pub use platform::{
    orin_agx, orin_agx_dual_dla, orin_agx_triple, snapdragon_865, xavier_agx, Platform, PlatformId,
};
pub use power::{EnergyReport, PowerModel, PowerSpec};
pub use pu::{PuId, PuKind, PuSpec};
pub use replay::{
    flush_telemetry, replay, DesWork, ExecutionReport, ItemRecord, ReplayView, Replayer, WorkItem,
};
