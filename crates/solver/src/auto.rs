//! The one solver entry for callers that want an exact answer: picks the
//! sequential or the parallel branch & bound from what it can observe of
//! the solve.
//!
//! Both drivers return the same schedule (see the `parallel` module docs),
//! so the choice only moves wall time:
//!
//! * a node budget is drained from one shared atomic counter by the
//!   parallel workers, so *which* nodes it covers — and hence the answer —
//!   would depend on timing. Budgeted solves run sequentially;
//! * `threads == 1` asks for a reproducible incumbent *sequence*, not only
//!   a reproducible final answer (D-HaX-CoNN's virtual clock). `0` means
//!   one worker per CPU, so on a one-CPU host it also runs sequentially
//!   rather than paying for a pool of one;
//! * below [`PARALLEL_MIN_VARS`] variables a solve finishes in about
//!   20 µs, and the pool's fixed cost eats any gain. On a 2-vCPU host,
//!   waking a parked helper and joining it costs 10–12 µs at p50 (a
//!   fresh two-thread spawn, which the pool no longer does, cost
//!   44–50 µs); on ≤10-variable specs the pool at two workers took
//!   27–28 µs at p50 against 18–20 µs sequentially.
//!
//! The pool's LNS workers (`ParallelOptions::lns_workers`) are never
//! started here: they race for an anytime answer under a time budget and,
//! unbudgeted, only take CPUs from the B&B workers on the same tree.

use crate::bb::{solve, Solution, SolveOptions};
use crate::model::CostModel;
use crate::parallel::{solve_parallel_with, ParallelOptions};
use crate::pool::cpus;

/// Models with fewer decision variables than this solve sequentially.
pub const PARALLEL_MIN_VARS: usize = 12;

/// Minimizes `model` exactly (subject to the budgets in `opts`) with the
/// sequential branch & bound when `opts.node_budget` is set, `threads`
/// (`0` = one per CPU) comes to 1 or the model has fewer than
/// [`PARALLEL_MIN_VARS`] variables, and with the work-stealing parallel
/// branch & bound on `threads` workers otherwise.
pub fn solve_auto<M: CostModel + Sync>(model: &M, opts: SolveOptions, threads: usize) -> Solution {
    let threads = match threads {
        0 => cpus(),
        n => n,
    };
    if opts.node_budget.is_some() || threads <= 1 || model.num_vars() < PARALLEL_MIN_VARS {
        solve(model, opts)
    } else {
        solve_parallel_with(
            model,
            opts,
            &ParallelOptions {
                threads,
                ..Default::default()
            },
        )
    }
}
