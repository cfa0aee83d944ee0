//! Batched fleet evaluation: fan many (workload, assignment, iterations)
//! scenarios across a worker pool of reusable DES runners.
//!
//! The paper's evaluation — and D-HaX-CoNN in particular — needs cheap
//! measurement of many candidate schedules under concurrent execution.
//! The workers are the calling thread plus the solver's parked helper
//! threads ([`haxconn_solver::pool::fork_join`]), so a batch spawns no
//! thread once the helpers exist. Each worker owns a single [`DesRunner`]
//! (a pooled contention replay plus its input staging) whose allocations
//! are recycled across every scenario it pulls from the shared cursor.
//! Each scenario's report is the one [`execute`](crate::execute) /
//! [`execute_loop`](crate::execute_loop) returns, bit for bit and
//! independent of the worker count, so fleet evaluation parallelism never
//! changes reported numbers.

use haxconn_core::measure::{DesRunner, ExecutionReport};
use haxconn_core::problem::Workload;
use haxconn_soc::{Platform, PuId};
use haxconn_solver::pool::{cpus, fork_join};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Maps `f` over `items` on up to `threads` workers, preserving order:
/// the calling thread and `threads - 1` of the solver's parked helpers
/// ([`fork_join`]). Each worker builds its own state with `init` once and
/// hands it to `f` for every item it takes. Workers pull indices from a
/// shared atomic cursor, so long-running items load-balance just like a
/// work-stealing pool on these embarrassingly parallel sweeps. With one
/// worker the map runs on the calling thread alone. A panic in `f` is
/// re-raised here once every worker has stopped.
pub fn par_map_with<T: Sync, S, R: Send>(
    items: &[T],
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.max(1).min(items.len().max(1));
    let cursor = AtomicUsize::new(0);
    let out: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let worker = || {
        let mut state = init();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            *out[i].lock().expect("slot lock") = Some(f(&mut state, &items[i]));
        }
    };
    fork_join(threads - 1, &|_| worker(), worker);
    out.into_iter()
        .map(|slot| slot.into_inner().expect("slot lock").expect("slot filled"))
        .collect()
}

/// Maps `f` over `items` on all available CPUs, preserving order.
///
/// Stand-in for rayon's `par_iter().map().collect()` (the offline build
/// cannot fetch rayon — README § Offline builds).
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    par_map_with(items, cpus(), || (), |_, item| f(item))
}

/// One scenario of a fleet evaluation.
pub struct FleetScenario<'a> {
    /// Workload to execute (borrowed — many scenarios typically share one
    /// profiled workload and differ only in assignment).
    pub workload: &'a Workload,
    /// Per-task, per-group PU assignment.
    pub assignment: Vec<Vec<PuId>>,
    /// Frames per task: `1` is the single-shot setting of `execute`,
    /// anything larger the continuous loop of `execute_loop`.
    pub iterations: usize,
}

/// Options for [`evaluate_fleet`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetOptions {
    /// Worker-pool size (`None` = all available CPUs).
    pub threads: Option<usize>,
}

/// Result of one [`evaluate_fleet`] batch.
pub struct FleetReport {
    /// One report per scenario, in input order, bit-identical across
    /// repeated batches and worker counts.
    pub reports: Vec<ExecutionReport>,
    /// Wall-clock time of the whole batch, ms.
    pub wall_ms: f64,
    /// Worker threads actually used.
    pub workers: usize,
}

impl FleetReport {
    /// Scenarios evaluated per wall-clock second.
    pub fn throughput_per_sec(&self) -> f64 {
        if self.wall_ms > 0.0 {
            1000.0 * self.reports.len() as f64 / self.wall_ms
        } else {
            0.0
        }
    }
}

/// Evaluates `scenarios` on `platform` across the [`par_map_with`] worker
/// pool, one [`DesRunner`] per worker.
///
/// Scenarios record `runtime.fleet.*` telemetry (a scenario counter, wall
/// time and makespan per scenario; a batch counter and wall time per
/// batch) rather than one `replay.*` flush each, and the dispatching
/// thread drains its allocation delta into the `alloc.*.fleet_batch`
/// counters under `alloc-truth`.
pub fn evaluate_fleet(
    platform: &Platform,
    scenarios: &[FleetScenario],
    opts: FleetOptions,
) -> FleetReport {
    use haxconn_telemetry as t;
    t::alloc::phase(t::alloc::PHASE_FLEET_BATCH, || {
        let started = Instant::now();
        let workers = opts
            .threads
            .unwrap_or_else(cpus)
            .max(1)
            .min(scenarios.len().max(1));
        let reports = par_map_with(scenarios, workers, DesRunner::new, |runner, sc| {
            let t0 = Instant::now();
            let report = runner.report(platform, sc.workload, &sc.assignment, sc.iterations, false);
            if t::enabled() {
                t::counter_add("runtime.fleet.scenarios", 1);
                t::histogram_record(
                    "runtime.fleet.scenario_wall_ms",
                    t0.elapsed().as_secs_f64() * 1e3,
                );
                t::histogram_record("runtime.fleet.makespan_ms", report.makespan_ms);
            }
            report
        });
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        if t::enabled() {
            t::counter_add("runtime.fleet.batches", 1);
            t::histogram_record("runtime.fleet.batch_wall_ms", wall_ms);
        }
        FleetReport {
            reports,
            wall_ms,
            workers,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use haxconn_core::baselines::{Baseline, BaselineKind};
    use haxconn_core::problem::DnnTask;
    use haxconn_dnn::Model;
    use haxconn_profiler::NetworkProfile;
    use haxconn_soc::orin_agx;

    fn setup() -> (Platform, Workload) {
        let p = orin_agx();
        let tasks = [Model::GoogleNet, Model::ResNet18]
            .iter()
            .map(|&m| DnnTask::new(m.name(), NetworkProfile::profile(&p, m, 6)))
            .collect();
        (p, Workload::concurrent(tasks))
    }

    #[test]
    fn par_map_preserves_order_and_keeps_one_state_per_worker() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(&items, |&i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        let empty: Vec<usize> = vec![];
        assert!(par_map(&empty, |&i: &usize| i).is_empty());
        for threads in [0, 1, 3] {
            // Each worker's state counts the items it took, so a count of
            // 1 marks the first item of a worker that got any.
            let inits = AtomicUsize::new(0);
            let seen = par_map_with(
                &items,
                threads,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0usize
                },
                |taken, &i| {
                    *taken += 1;
                    (i, *taken)
                },
            );
            let workers = inits.load(Ordering::Relaxed);
            assert!((1..=threads.max(1)).contains(&workers), "{workers}");
            assert_eq!(seen.iter().map(|s| s.0).collect::<Vec<_>>(), items);
            let firsts = seen.iter().filter(|s| s.1 == 1).count();
            assert!((1..=workers).contains(&firsts), "one state per worker");
        }
    }

    /// A panic in `f` reaches the caller, wherever it ran, and leaves the
    /// workers usable: the next map returns every result in order.
    #[test]
    fn a_panic_in_f_is_raised_in_the_caller() {
        let items: Vec<usize> = (0..64).collect();
        let raised = std::panic::catch_unwind(|| {
            par_map_with(
                &items,
                2,
                || (),
                |_, &i| {
                    assert_ne!(i, 40, "item 40 panics");
                    i
                },
            )
        });
        assert!(raised.is_err(), "the panic must reach the caller");
        let out = par_map_with(&items, 2, || (), |_, &i| i * 3);
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn fleet_reports_match_direct_execution_bit_for_bit() {
        let (p, w) = setup();
        let scenarios: Vec<FleetScenario> = BaselineKind::all()
            .iter()
            .enumerate()
            .map(|(i, &kind)| FleetScenario {
                workload: &w,
                assignment: Baseline::assignment(kind, &p, &w),
                iterations: 1 + i % 3,
            })
            .collect();
        for threads in [1, 2] {
            let fleet = evaluate_fleet(
                &p,
                &scenarios,
                FleetOptions {
                    threads: Some(threads),
                },
            );
            assert_eq!(fleet.workers, threads);
            assert_eq!(fleet.reports.len(), scenarios.len());
            for (sc, got) in scenarios.iter().zip(&fleet.reports) {
                let direct = if sc.iterations == 1 {
                    crate::execute(&p, sc.workload, &sc.assignment)
                } else {
                    crate::execute_loop(&p, sc.workload, &sc.assignment, sc.iterations)
                };
                assert_eq!(got.frames, sc.iterations);
                assert!(got.view().same_bits(&direct.view()), "{threads} workers");
                assert_eq!(got.fps().to_bits(), direct.fps().to_bits());
            }
        }
    }

    /// After one warmup pass, re-running the same scenarios through a kept
    /// runner — stage, replay, read the view — performs zero heap
    /// allocations, and every view holds the fleet's report bits.
    /// Machine-checked only under `--features alloc-truth`; behavioural
    /// otherwise.
    #[test]
    fn warm_runner_steady_state_is_allocation_free() {
        let (p, w) = setup();
        let scenarios: Vec<FleetScenario> = (0..6)
            .map(|i| FleetScenario {
                workload: &w,
                assignment: Baseline::assignment(
                    BaselineKind::all()[i % BaselineKind::all().len()],
                    &p,
                    &w,
                ),
                iterations: 1 + i % 3,
            })
            .collect();
        let want = evaluate_fleet(&p, &scenarios, FleetOptions::default()).reports;
        let mut runner = DesRunner::new();
        for sc in &scenarios {
            runner.run(&p, sc.workload, &sc.assignment, sc.iterations);
        }

        let guard = haxconn_telemetry::alloc::AllocGuard::begin("fleet.steady_state");
        let identical = scenarios.iter().zip(&want).all(|(sc, want)| {
            let view = runner.run(&p, sc.workload, &sc.assignment, sc.iterations);
            view.same_bits(&want.view())
        });
        guard.assert_zero();
        assert!(identical);
    }
}
