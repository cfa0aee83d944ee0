//! Batched fleet evaluation: fan many (workload, assignment, iterations)
//! scenarios across a worker pool of reusable DES runners.
//!
//! The paper's evaluation — and D-HaX-CoNN in particular — needs cheap
//! measurement of many candidate schedules under concurrent execution.
//! Each pool worker owns a single [`DesRunner`] (a pooled contention
//! replay plus its input staging) whose allocations are recycled across
//! every scenario it pulls from the shared cursor. Scenario results are
//! bit-deterministic and independent of the worker count, so fleet
//! evaluation parallelism never changes reported numbers.

use crate::executor::{run_scenario, scenario_fps, DesRunner, ExecutionReport};
use haxconn_core::problem::Workload;
use haxconn_soc::{ItemRecord, Platform, PuId, ReplayView};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Worker threads to use when the caller does not pin a count.
fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
}

/// Maps `f` over `items` on up to `threads` worker threads, preserving
/// order: scoped workers pull indices from a shared atomic cursor, so
/// long-running items load-balance just like a work-stealing pool on these
/// embarrassingly parallel sweeps.
pub fn par_map_with<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.max(1).min(items.len().max(1));
    let cursor = AtomicUsize::new(0);
    let out: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                *out[i].lock().expect("slot lock") = Some(f(&items[i]));
            });
        }
    });
    out.into_iter()
        .map(|slot| slot.into_inner().expect("slot lock").expect("slot filled"))
        .collect()
}

/// Maps `f` over `items` on all available CPUs, preserving order.
///
/// Stand-in for rayon's `par_iter().map().collect()` (the offline build
/// cannot fetch rayon — README § Offline builds).
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    par_map_with(items, available_threads(), f)
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

/// Struct-of-arrays staging for fleet results: every scenario's report
/// fields live concatenated in shared buffers addressed by ranges, so a
/// batch reused across evaluation rounds performs zero heap allocation
/// once the buffers reach the largest round's size. The allocation-free
/// counterpart of collecting `Vec<ExecutionReport>`.
#[derive(Debug, Default)]
pub struct FleetArena {
    makespan_ms: Vec<f64>,
    fps: Vec<f64>,
    emc_mean_gbps: Vec<f64>,
    items_executed: Vec<usize>,
    task_latency: Vec<f64>,
    task_ranges: Vec<(u32, u32)>,
    pu_busy: Vec<f64>,
    pu_ranges: Vec<(u32, u32)>,
    records: Vec<ItemRecord>,
    record_ranges: Vec<(u32, u32)>,
}

/// Borrowed per-scenario report out of a [`FleetArena`] — the same fields
/// as [`ExecutionReport`] without owning them.
#[derive(Debug, Clone, Copy)]
pub struct FleetView<'a> {
    /// Completion time of each task, ms (virtual).
    pub task_latency_ms: &'a [f64],
    /// Completion of the whole scenario, ms.
    pub makespan_ms: f64,
    /// FPS under the scenario's iteration convention.
    pub fps: f64,
    /// Busy time per PU, ms.
    pub pu_busy_ms: &'a [f64],
    /// Mean EMC traffic over the run, GB/s.
    pub emc_mean_gbps: f64,
    /// Number of work items executed.
    pub items_executed: usize,
    /// Per-item completion records in completion order.
    pub records: &'a [ItemRecord],
}

impl FleetArena {
    /// Empty arena; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of staged scenario results.
    pub fn len(&self) -> usize {
        self.makespan_ms.len()
    }

    /// Whether the arena holds no results.
    pub fn is_empty(&self) -> bool {
        self.makespan_ms.is_empty()
    }

    /// Drops all staged results, keeping every buffer's capacity.
    pub fn clear(&mut self) {
        self.makespan_ms.clear();
        self.fps.clear();
        self.emc_mean_gbps.clear();
        self.items_executed.clear();
        self.task_latency.clear();
        self.task_ranges.clear();
        self.pu_busy.clear();
        self.pu_ranges.clear();
        self.records.clear();
        self.record_ranges.clear();
    }

    fn push_view(&mut self, v: &ReplayView<'_>, fps: f64) {
        self.makespan_ms.push(v.makespan_ms);
        self.fps.push(fps);
        self.emc_mean_gbps.push(v.emc_mean_gbps);
        self.items_executed.push(v.records.len());
        let t0 = self.task_latency.len() as u32;
        self.task_latency.extend_from_slice(v.task_latency_ms);
        self.task_ranges.push((t0, self.task_latency.len() as u32));
        let p0 = self.pu_busy.len() as u32;
        self.pu_busy.extend_from_slice(v.pu_busy_ms);
        self.pu_ranges.push((p0, self.pu_busy.len() as u32));
        let r0 = self.records.len() as u32;
        self.records.extend_from_slice(v.records);
        self.record_ranges.push((r0, self.records.len() as u32));
    }

    /// Borrowed report of scenario `i` (input order).
    pub fn view(&self, i: usize) -> FleetView<'_> {
        let (ta, tb) = self.task_ranges[i];
        let (pa, pb) = self.pu_ranges[i];
        let (ra, rb) = self.record_ranges[i];
        FleetView {
            task_latency_ms: &self.task_latency[ta as usize..tb as usize],
            makespan_ms: self.makespan_ms[i],
            fps: self.fps[i],
            pu_busy_ms: &self.pu_busy[pa as usize..pb as usize],
            emc_mean_gbps: self.emc_mean_gbps[i],
            items_executed: self.items_executed[i],
            records: &self.records[ra as usize..rb as usize],
        }
    }

    /// Owned (allocating) [`ExecutionReport`] of scenario `i`, bit-identical
    /// to what [`evaluate_fleet`] returns for the same scenario.
    pub fn report(&self, i: usize) -> ExecutionReport {
        let v = self.view(i);
        ExecutionReport {
            task_latency_ms: v.task_latency_ms.to_vec(),
            makespan_ms: v.makespan_ms,
            fps: v.fps,
            pu_busy_ms: v.pu_busy_ms.to_vec(),
            emc_mean_gbps: v.emc_mean_gbps,
            items_executed: v.items_executed,
            records: v.records.to_vec(),
        }
    }
}

/// Single-threaded fleet evaluator with a fully pooled state: one
/// [`DesRunner`] whose workspace is recycled across scenarios, staging
/// results into a caller-owned [`FleetArena`]. After one warm batch over a
/// set of scenario shapes, [`FleetEvaluator::evaluate_into`] performs
/// **zero** heap allocations — the property the `runtime_scaling` bench
/// gates with `allocs_per_scenario_steady == 0` under `alloc-truth`.
///
/// Results are bit-identical to [`evaluate_fleet`]'s (same replay code,
/// same FPS convention); use that for parallel throughput, this for
/// allocation-proof inner loops.
#[derive(Default)]
pub struct FleetEvaluator {
    runner: DesRunner,
}

impl FleetEvaluator {
    /// Fresh evaluator; buffers grow over the first batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluates every scenario in order, staging results into `arena`
    /// (cleared first, capacity retained).
    pub fn evaluate_into(
        &mut self,
        platform: &Platform,
        scenarios: &[FleetScenario],
        arena: &mut FleetArena,
    ) {
        arena.clear();
        for sc in scenarios {
            assert!(sc.iterations >= 1);
            let v = self
                .runner
                .run(platform, sc.workload, &sc.assignment, sc.iterations);
            arena.push_view(&v, scenario_fps(sc.iterations, &v));
        }
        if haxconn_telemetry::enabled() {
            use haxconn_telemetry as t;
            t::counter_add("runtime.fleet.scenarios", scenarios.len() as u64);
            t::counter_add("runtime.fleet.batches", 1);
        }
    }
}

/// Evaluates `scenarios` on `platform` across the `par_map` worker pool.
///
/// Each worker owns one [`DesRunner`] so the DES engine's event-queue and
/// workspace allocations are recycled across all scenarios it executes;
/// per-scenario telemetry (wall time, makespan, a scenario counter) is
/// recorded when the telemetry recorder is installed, and the dispatching
/// thread drains its allocation delta into the `alloc.*.fleet_batch`
/// counters under `alloc-truth`.
pub fn evaluate_fleet(
    platform: &Platform,
    scenarios: &[FleetScenario],
    opts: FleetOptions,
) -> FleetReport {
    haxconn_telemetry::alloc::phase(haxconn_telemetry::alloc::PHASE_FLEET_BATCH, || {
        evaluate_fleet_inner(platform, scenarios, opts)
    })
}

/// Runs one scenario on a worker's runner and records its per-scenario
/// telemetry (wall time, makespan, a scenario counter).
fn run_recorded(
    runner: &mut DesRunner,
    platform: &Platform,
    sc: &FleetScenario,
) -> ExecutionReport {
    let t0 = Instant::now();
    let report = run_scenario(runner, platform, sc.workload, &sc.assignment, sc.iterations);
    if haxconn_telemetry::enabled() {
        use haxconn_telemetry as t;
        t::counter_add("runtime.fleet.scenarios", 1);
        t::histogram_record(
            "runtime.fleet.scenario_wall_ms",
            t0.elapsed().as_secs_f64() * 1e3,
        );
        t::histogram_record("runtime.fleet.makespan_ms", report.makespan_ms);
    }
    report
}

fn evaluate_fleet_inner(
    platform: &Platform,
    scenarios: &[FleetScenario],
    opts: FleetOptions,
) -> FleetReport {
    let started = Instant::now();
    let workers = opts
        .threads
        .unwrap_or_else(available_threads)
        .max(1)
        .min(scenarios.len().max(1));
    let reports: Vec<ExecutionReport> = if workers == 1 {
        // Single-worker fast path: run inline on the calling thread. No
        // scoped spawn, no per-slot mutexes, no index cursor — on
        // single-CPU hosts (where `available_threads() == 1` makes this
        // the *default* path) that overhead is pure loss. Results are
        // bit-identical to the pooled path: same runner recycling, same
        // scenario order.
        let mut runner = DesRunner::default();
        scenarios
            .iter()
            .map(|sc| run_recorded(&mut runner, platform, sc))
            .collect()
    } else {
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<ExecutionReport>>> =
            scenarios.iter().map(|_| Mutex::new(None)).collect();
        let worker_ids: Vec<usize> = (0..workers).collect();
        par_map_with(&worker_ids, workers, |_| {
            let mut runner = DesRunner::default();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= scenarios.len() {
                    break;
                }
                let report = run_recorded(&mut runner, platform, &scenarios[i]);
                *slots[i].lock().expect("slot lock") = Some(report);
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("slot lock").expect("slot filled"))
            .collect()
    };
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    if haxconn_telemetry::enabled() {
        use haxconn_telemetry as t;
        t::counter_add("runtime.fleet.batches", 1);
        t::histogram_record("runtime.fleet.batch_wall_ms", wall_ms);
    }
    FleetReport {
        reports,
        wall_ms,
        workers,
    }
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
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(&items, |&i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        assert!(par_map_with(&items, 0, |&i| i).len() == 100); // clamps to 1
        let empty: Vec<usize> = vec![];
        assert!(par_map(&empty, |&i: &usize| i).is_empty());
    }

    #[test]
    fn fleet_reports_match_direct_execution_bit_for_bit() {
        let (p, w) = setup();
        let scenarios: Vec<FleetScenario> = BaselineKind::all()
            .iter()
            .map(|&kind| FleetScenario {
                workload: &w,
                assignment: Baseline::assignment(kind, &p, &w),
                iterations: 1,
            })
            .collect();
        let fleet = evaluate_fleet(&p, &scenarios, FleetOptions::default());
        assert_eq!(fleet.reports.len(), scenarios.len());
        assert!(fleet.workers >= 1);
        for (sc, got) in scenarios.iter().zip(&fleet.reports) {
            let direct = crate::execute(&p, sc.workload, &sc.assignment);
            assert_eq!(got.makespan_ms.to_bits(), direct.makespan_ms.to_bits());
            assert_eq!(got.fps.to_bits(), direct.fps.to_bits());
        }
    }

    #[test]
    fn fleet_evaluator_arena_matches_evaluate_fleet_bit_for_bit() {
        let (p, w) = setup();
        let scenarios: Vec<FleetScenario> = BaselineKind::all()
            .iter()
            .map(|&kind| FleetScenario {
                workload: &w,
                assignment: Baseline::assignment(kind, &p, &w),
                iterations: 2,
            })
            .collect();
        let fleet = evaluate_fleet(&p, &scenarios, FleetOptions::default());
        let mut ev = FleetEvaluator::new();
        let mut arena = FleetArena::new();
        ev.evaluate_into(&p, &scenarios, &mut arena);
        assert_eq!(arena.len(), fleet.reports.len());
        for (i, want) in fleet.reports.iter().enumerate() {
            let got = arena.report(i);
            assert_eq!(got.makespan_ms.to_bits(), want.makespan_ms.to_bits());
            assert_eq!(got.fps.to_bits(), want.fps.to_bits());
            assert_eq!(got.emc_mean_gbps.to_bits(), want.emc_mean_gbps.to_bits());
            assert_eq!(got.items_executed, want.items_executed);
            assert_eq!(got.task_latency_ms.len(), want.task_latency_ms.len());
            for (a, b) in got.task_latency_ms.iter().zip(&want.task_latency_ms) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in got.pu_busy_ms.iter().zip(&want.pu_busy_ms) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(got.records.len(), want.records.len());
            for (a, b) in got.records.iter().zip(&want.records) {
                assert_eq!(a.token, b.token);
                assert_eq!(a.pu, b.pu);
                assert_eq!(a.start_ms.to_bits(), b.start_ms.to_bits());
                assert_eq!(a.end_ms.to_bits(), b.end_ms.to_bits());
            }
        }
    }

    /// After one warmup pass, re-evaluating the same scenario batch
    /// through a kept evaluator + arena performs zero heap allocations.
    /// Machine-checked only under `--features alloc-truth`; behavioural
    /// (results stay bit-identical across passes) otherwise.
    #[test]
    fn fleet_evaluator_steady_state_is_allocation_free() {
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
        let mut ev = FleetEvaluator::new();
        let mut arena = FleetArena::new();
        ev.evaluate_into(&p, &scenarios, &mut arena);
        let warm: Vec<u64> = (0..arena.len())
            .map(|i| arena.view(i).makespan_ms.to_bits())
            .collect();

        let guard = haxconn_telemetry::alloc::AllocGuard::begin("fleet.steady_state");
        ev.evaluate_into(&p, &scenarios, &mut arena);
        guard.assert_zero();

        for (i, bits) in warm.iter().enumerate() {
            assert_eq!(arena.view(i).makespan_ms.to_bits(), *bits);
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let (p, w) = setup();
        let a = Baseline::assignment(BaselineKind::NaiveSplit, &p, &w);
        let scenarios: Vec<FleetScenario> = (0..8)
            .map(|i| FleetScenario {
                workload: &w,
                assignment: a.clone(),
                iterations: 1 + i % 3,
            })
            .collect();
        let one = evaluate_fleet(&p, &scenarios, FleetOptions { threads: Some(1) });
        let four = evaluate_fleet(&p, &scenarios, FleetOptions { threads: Some(4) });
        for (r1, r4) in one.reports.iter().zip(&four.reports) {
            assert_eq!(r1.makespan_ms.to_bits(), r4.makespan_ms.to_bits());
            assert_eq!(r1.items_executed, r4.items_executed);
        }
    }
}
