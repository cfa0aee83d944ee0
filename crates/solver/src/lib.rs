#![warn(missing_docs)]

//! A finite-domain constraint-optimization engine.
//!
//! The paper solves its layer-to-accelerator mapping with Z3, used as an
//! optimizing solver over a small finite search space ("the use of SMT
//! solvers provides optimal schedules in seconds", Section 3.5). This crate
//! provides the same capability as a from-scratch substrate:
//!
//! * decision variables with small finite domains (a PU id per layer
//!   group),
//! * a pluggable [`CostModel`] that scores complete assignments (and may
//!   reject them — that is how the ε-overlap constraint of Eq. 9 enters),
//!   provides admissible lower bounds for partial assignments, and can
//!   prune subtrees via domain-specific feasibility checks,
//! * depth-first **branch & bound** with incumbent bounding
//!   ([`solve`]) — guaranteed optimal when run to completion — and one
//!   work-stealing worker pool ([`solve_parallel_with`]); [`solve_auto`]
//!   picks between them and is the entry every exact solve in the
//!   scheduler goes through,
//! * optional **large-neighborhood search** workers in that pool
//!   ([`ParallelOptions::lns_workers`]), raced against its B&B workers on
//!   one shared incumbent for an anytime answer on instances too large
//!   to prove; the [`Solution`] reports which side won ([`Winner`]) and
//!   the LNS totals ([`LnsStats`]),
//! * an **anytime** interface: every strictly improving incumbent is
//!   reported through a callback together with the solve clock, which is
//!   what D-HaX-CoNN uses to swap better schedules in mid-flight (paper
//!   Fig. 7), and node/time budgets so a solve can be resumed
//!   incrementally.
//!
//! Determinism: variables are branched in index order and values in domain
//! order, so equal-cost ties always resolve identically.

pub mod auto;
pub mod bb;
pub mod lns;
pub mod model;
pub mod parallel;
mod pool;

pub use auto::{solve_auto, PARALLEL_MIN_VARS};
pub use bb::{
    solve, solve_with, BudgetState, Solution, SolveOptions, SolveStats, Winner, Workspace,
};
pub use lns::LnsStats;
pub use model::{brute_force, Assignment, CostModel, NonIncremental, PartialAssignment};
pub use parallel::{solve_parallel_with, ParallelOptions};
