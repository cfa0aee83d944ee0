#![warn(missing_docs)]

//! Layer grouping and per-layer/group characterization.
//!
//! This crate implements the offline profiling pipeline of the paper
//! (Sections 3.1–3.3):
//!
//! 1. **Layer grouping** ([`grouping`]) — identify the minimal atomic units
//!    that can be assigned to an accelerator: operator-fusion chains stay
//!    together, branchy regions (inception modules, residual blocks) only
//!    break at single-live-tensor cut points, and small groups are merged so
//!    the solver sees a tractable number of *transition points*.
//! 2. **Performance & transition characterization** ([`profile`]) — per
//!    group, per PU: standalone execution time, requested memory
//!    throughput, EMC utilization, and the in/out costs of transitioning
//!    execution to another accelerator at each group boundary.
//! 3. **Black-box DSA throughput estimation** ([`blackbox`]) — DLAs cannot
//!    be profiled with vendor tools; the paper's four-step workaround
//!    estimates their requested throughput from GPU profiles and EMC
//!    counter ratios. We reproduce that estimation path, including its
//!    quantization error.
//!
//! The output, [`NetworkProfile`], is the sole input the scheduler needs —
//! profiling is offline and per-network, exactly as in the paper.

pub mod blackbox;
pub mod grouping;
pub mod profile;

pub use blackbox::BlackBoxEstimator;
pub use grouping::{GroupedNetwork, LayerGroup};
pub use profile::{GroupProfile, NetworkProfile};
