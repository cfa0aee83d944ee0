//! The contention replay: the one engine that *measures* a schedule on the
//! simulated SoC.
//!
//! Its input is a set of *chains* — one per task, each a sequence of
//! [`WorkItem`]s already mapped to PUs — plus, per task, the upstream tasks
//! whose frames gate it, plus a frame count. The replay enforces:
//!
//! * per-PU FIFO occupancy (one item at a time per accelerator),
//! * chain order, and the streaming dependency between tasks (frame k of a
//!   task waits for frame k of every upstream task),
//! * EMC bandwidth arbitration: at every instant the active items' memory
//!   demands are granted by [`crate::emc::EmcSpec::grant_into`], and each
//!   item progresses at `1 / slowdown(grant)`.
//!
//! The fluid contention model is piecewise constant between completions,
//! so one pending `Advance` event on the `haxconn-des` engine (the next
//! completion under the current grants) is all the event population a run
//! ever needs: settle progress, retire finished items, release successors,
//! start queued items, and re-arbitrate.
//!
//! There are no ties to race: items complete in PU-index order, released
//! work enqueues chain-successor first and then unblocked tasks in
//! task-index order, and tokens are assigned at enqueue. Two runs of the
//! same input therefore produce bit-identical results.
//!
//! # Allocation discipline
//!
//! Every buffer a run needs lives in the [`Replayer`]'s workspace (task
//! states, per-PU queues, arbitration scratch, result buffers) and is
//! cleared — not rebuilt — between runs, and the DES event queue is
//! recycled through [`Engine::with_queue`]/`into_parts`. After a warmup run
//! has grown every buffer to the scenario's size, replaying further
//! scenarios of the same shape performs **zero** heap allocations, a
//! property the `alloc-truth` test suite and the `runtime_scaling` bench
//! gate machine-check with `haxconn_telemetry::alloc::AllocGuard`.

use crate::cost::LayerCost;
use crate::emc::GrantScratch;
use crate::platform::Platform;
use crate::pu::PuId;
use haxconn_des::{Engine, EventQueue, SimModel, SimTime};
use std::collections::VecDeque;

/// One unit of mapped work (a layer group, or a transition step, on a
/// specific PU).
#[derive(Debug, Clone, Copy)]
pub struct WorkItem {
    /// The PU this item executes on.
    pub pu: PuId,
    /// Standalone cost profile.
    pub cost: LayerCost,
}

/// Flat, reusable staging of the replay's input: every task's chain of
/// [`WorkItem`]s and its upstream task list.
///
/// Layout is struct-of-arrays: all chains live concatenated in one buffer
/// addressed by per-task ranges, and likewise for upstream task indices.
/// [`DesWork::clear`] keeps the buffers, so a staging reused across a fleet
/// of scenarios stops allocating once the buffers reach the largest
/// scenario's size.
#[derive(Debug, Default, Clone)]
pub struct DesWork {
    items: Vec<WorkItem>,
    item_ranges: Vec<(u32, u32)>,
    upstream: Vec<u32>,
    upstream_ranges: Vec<(u32, u32)>,
}

impl DesWork {
    /// Empty staging; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every staged chain, keeping the buffers' capacity.
    pub fn clear(&mut self) {
        self.items.clear();
        self.item_ranges.clear();
        self.upstream.clear();
        self.upstream_ranges.clear();
    }

    /// Appends `item` to the chain being staged.
    pub fn push_item(&mut self, item: WorkItem) {
        self.items.push(item);
    }

    /// Closes the chain being staged — every item pushed since the last
    /// call — as the next task, gated by the `upstream` tasks.
    pub fn end_chain(&mut self, upstream: impl IntoIterator<Item = usize>) {
        let start = self.item_ranges.last().map_or(0, |r| r.1);
        self.item_ranges.push((start, self.items.len() as u32));
        let up_start = self.upstream.len() as u32;
        self.upstream.extend(upstream.into_iter().map(|u| u as u32));
        self.upstream_ranges
            .push((up_start, self.upstream.len() as u32));
    }

    /// Stages a dependency-free chain in one call.
    pub fn push_chain(&mut self, items: impl IntoIterator<Item = WorkItem>) {
        self.items.extend(items);
        self.end_chain([]);
    }

    /// Number of staged tasks.
    pub fn num_tasks(&self) -> usize {
        self.item_ranges.len()
    }

    /// Total staged work items across all tasks.
    pub fn total_items(&self) -> usize {
        self.items.len()
    }

    /// Work items of task `t`, in execution order.
    pub fn items_of(&self, t: usize) -> &[WorkItem] {
        let (a, b) = self.item_ranges[t];
        &self.items[a as usize..b as usize]
    }

    /// Tasks whose frames gate task `t`'s frames.
    pub fn upstream_of(&self, t: usize) -> &[u32] {
        let (a, b) = self.upstream_ranges[t];
        &self.upstream[a as usize..b as usize]
    }

    /// The staged item a record executed.
    pub fn item(&self, record: &ItemRecord) -> &WorkItem {
        &self.items_of(record.task)[record.item]
    }
}

/// Completion record for one executed item.
#[derive(Debug, Clone, Copy)]
pub struct ItemRecord {
    /// Release-order token (unique per run).
    pub token: u64,
    /// Task whose chain the item belongs to.
    pub task: usize,
    /// Position of the item in its task's chain.
    pub item: usize,
    /// PU the item ran on.
    pub pu: usize,
    /// Start of execution (after queueing), ms.
    pub start_ms: f64,
    /// Completion, ms.
    pub end_ms: f64,
}

impl ItemRecord {
    /// Realized slowdown vs. the standalone time `cost.time_ms` (`>= 1`
    /// up to rounding).
    pub fn slowdown(&self, cost: &LayerCost) -> f64 {
        (self.end_ms - self.start_ms) / cost.time_ms
    }
}

/// Borrowed result of the last run, backed by the [`Replayer`]'s pooled
/// workspace: the fields of [`ExecutionReport`] without owning them.
#[derive(Debug, Clone, Copy)]
pub struct ReplayView<'a> {
    /// Completion time of each task's last frame, ms.
    pub task_latency_ms: &'a [f64],
    /// Completion of the last item, ms.
    pub makespan_ms: f64,
    /// Busy time per PU, ms.
    pub pu_busy_ms: &'a [f64],
    /// Time-weighted mean EMC traffic over the run, GB/s.
    pub emc_mean_gbps: f64,
    /// Peak EMC traffic, GB/s.
    pub emc_peak_gbps: f64,
    /// Per-item completion records, in completion order.
    pub records: &'a [ItemRecord],
    /// Piecewise-constant EMC traffic: `(t_ms, gbps)` at every
    /// re-arbitration point, closed by `(makespan, 0.0)`.
    pub emc_series: &'a [(f64, f64)],
    /// Frames replayed per task.
    pub frames: usize,
}

impl ReplayView<'_> {
    /// Aggregate frames per second, the one FPS convention of every
    /// report:
    ///
    /// * one frame (the paper's tables): each task contributes
    ///   `1000 / latency`, skipping degenerate (zero or non-finite)
    ///   latencies so the sum stays finite;
    /// * more frames (the continuous loop): frames completed per second of
    ///   virtual time, `1000 · frames · tasks / makespan`.
    pub fn fps(&self) -> f64 {
        if self.frames == 1 {
            self.task_latency_ms
                .iter()
                .filter(|l| l.is_finite() && **l > 0.0)
                .map(|l| 1000.0 / *l)
                .sum()
        } else if self.makespan_ms > 0.0 && self.makespan_ms.is_finite() {
            1000.0 * (self.frames * self.task_latency_ms.len()) as f64 / self.makespan_ms
        } else {
            0.0
        }
    }

    /// Whether `other` holds the same bits in every field — the replay's
    /// determinism contract, which every repeat run, worker count and
    /// entry point must meet. Allocation-free, so it may check views
    /// inside a zero-allocation loop.
    pub fn same_bits(&self, other: &ReplayView<'_>) -> bool {
        fn f64s(a: &[f64], b: &[f64]) -> bool {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        self.frames == other.frames
            && self.makespan_ms.to_bits() == other.makespan_ms.to_bits()
            && self.emc_mean_gbps.to_bits() == other.emc_mean_gbps.to_bits()
            && self.emc_peak_gbps.to_bits() == other.emc_peak_gbps.to_bits()
            && f64s(self.task_latency_ms, other.task_latency_ms)
            && f64s(self.pu_busy_ms, other.pu_busy_ms)
            && self.records.len() == other.records.len()
            && self.records.iter().zip(other.records).all(|(x, y)| {
                (x.token, x.task, x.item, x.pu) == (y.token, y.task, y.item, y.pu)
                    && x.start_ms.to_bits() == y.start_ms.to_bits()
                    && x.end_ms.to_bits() == y.end_ms.to_bits()
            })
            && self.emc_series.len() == other.emc_series.len()
            && self
                .emc_series
                .iter()
                .zip(other.emc_series)
                .all(|(x, y)| x.0.to_bits() == y.0.to_bits() && x.1.to_bits() == y.1.to_bits())
    }

    /// Owned copy of this result.
    pub fn to_report(&self) -> ExecutionReport {
        ExecutionReport {
            task_latency_ms: self.task_latency_ms.to_vec(),
            makespan_ms: self.makespan_ms,
            pu_busy_ms: self.pu_busy_ms.to_vec(),
            emc_mean_gbps: self.emc_mean_gbps,
            emc_peak_gbps: self.emc_peak_gbps,
            records: self.records.to_vec(),
            emc_series: self.emc_series.to_vec(),
            frames: self.frames,
        }
    }
}

/// Owned result of one run: the one report every measured number is read
/// from.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Completion time of each task's last frame, ms.
    pub task_latency_ms: Vec<f64>,
    /// Completion of the last item, ms.
    pub makespan_ms: f64,
    /// Busy time per PU, ms.
    pub pu_busy_ms: Vec<f64>,
    /// Time-weighted mean EMC traffic over the run, GB/s.
    pub emc_mean_gbps: f64,
    /// Peak EMC traffic, GB/s.
    pub emc_peak_gbps: f64,
    /// Per-item completion records (layer groups and transition steps), in
    /// completion order.
    pub records: Vec<ItemRecord>,
    /// Piecewise-constant EMC traffic: `(t_ms, gbps)` at every
    /// re-arbitration point, closed by `(makespan, 0.0)`.
    pub emc_series: Vec<(f64, f64)>,
    /// Frames replayed per task.
    pub frames: usize,
}

impl ExecutionReport {
    /// Borrowed view of this report.
    pub fn view(&self) -> ReplayView<'_> {
        ReplayView {
            task_latency_ms: &self.task_latency_ms,
            makespan_ms: self.makespan_ms,
            pu_busy_ms: &self.pu_busy_ms,
            emc_mean_gbps: self.emc_mean_gbps,
            emc_peak_gbps: self.emc_peak_gbps,
            records: &self.records,
            emc_series: &self.emc_series,
            frames: self.frames,
        }
    }

    /// Aggregate frames per second; see [`ReplayView::fps`].
    pub fn fps(&self) -> f64 {
        self.view().fps()
    }

    /// The records grouped by task, each task's in execution order (chain
    /// order, frame after frame).
    pub fn by_task(&self) -> Vec<ItemRecord> {
        let mut out = self.records.clone();
        out.sort_by_key(|r| (r.task, r.token));
        out
    }
}

/// The single event kind: advance to the next item completion.
struct Advance;

/// An item occupying a PU.
#[derive(Clone, Copy)]
struct Running {
    token: u64,
    task: usize,
    cost: LayerCost,
    /// Remaining work in standalone-equivalent ms.
    remaining: f64,
    start_ms: f64,
}

/// Per-task replay cursor: plain `Copy` data the workspace resets in place.
#[derive(Clone, Copy)]
struct TaskState {
    frames_done: usize,
    /// Index into the task's item chain of the item currently queued,
    /// running, or about to be released.
    next_item: usize,
    end_ms: f64,
    /// Parked waiting for an upstream frame.
    blocked: bool,
}

const FRESH_TASK: TaskState = TaskState {
    frames_done: 0,
    next_item: 0,
    end_ms: 0.0,
    blocked: true,
};

/// Caller-owned buffers for [`fluid_step`], so re-arbitration never
/// allocates once the buffers reach the active-set high-water mark.
#[derive(Debug, Default)]
struct FluidScratch {
    demands: Vec<f64>,
    /// Per-active-item stretch factors from the last step.
    slowdowns: Vec<f64>,
    grants: Vec<f64>,
    emc: GrantScratch,
}

/// One fluid re-arbitration step over the active set: grants the EMC
/// bandwidth demanded by `active` (each entry a `(cost, remaining)` pair,
/// remaining in standalone-equivalent ms), fills `slowdowns` with each
/// item's stretch factor under its grant, and returns `(dt, granted_gbps)`
/// where `dt` is the time to the next completion and `granted_gbps` the
/// aggregate granted traffic.
fn fluid_step(
    platform: &Platform,
    active: &[(LayerCost, f64)],
    scratch: &mut FluidScratch,
) -> (f64, f64) {
    scratch.demands.clear();
    scratch
        .demands
        .extend(active.iter().map(|(cost, _)| cost.demand_gbps));
    platform
        .emc
        .grant_into(&scratch.demands, &mut scratch.grants, &mut scratch.emc);
    let granted: f64 = scratch.grants.iter().sum();
    scratch.slowdowns.clear();
    let mut dt = f64::INFINITY;
    for ((cost, remaining), &grant) in active.iter().zip(scratch.grants.iter()) {
        let s = cost.slowdown_under_grant(grant).max(1.0);
        scratch.slowdowns.push(s);
        dt = dt.min(remaining * s);
    }
    (dt, granted)
}

/// Every buffer one replay needs, pooled across runs. `reset` sizes the
/// buffers for a scenario without shrinking them, so a workspace that has
/// executed one scenario of a given shape replays further ones without
/// touching the heap.
#[derive(Default)]
struct Workspace {
    tasks: Vec<TaskState>,
    /// Per-PU FIFO of released-but-not-started items: `(token, task)`.
    ready: Vec<VecDeque<(u64, usize)>>,
    /// Per-PU occupant.
    active: Vec<Option<Running>>,
    /// PU indices of the occupied slots, in PU order (parallel to the
    /// slowdowns of the last arbitration).
    live_pus: Vec<usize>,
    /// Active `(cost, remaining)` pairs handed to `fluid_step`.
    pairs: Vec<(LayerCost, f64)>,
    /// Arbitration buffers (demands, grants, slowdowns, EMC scratch).
    fluid: FluidScratch,
    pu_busy_ms: Vec<f64>,
    records: Vec<ItemRecord>,
    task_latency_ms: Vec<f64>,
    emc_series: Vec<(f64, f64)>,
}

impl Workspace {
    /// Resets all run state for `work`. Returns the total number of item
    /// completions the run must retire.
    fn reset(&mut self, platform: &Platform, work: &DesWork, iterations: usize) -> usize {
        let n_pus = platform.pus.len();
        let pending = work.total_items() * iterations;
        self.tasks.clear();
        self.tasks.resize(work.num_tasks(), FRESH_TASK);
        if self.ready.len() != n_pus {
            self.ready.resize_with(n_pus, VecDeque::new);
        }
        for q in &mut self.ready {
            q.clear();
        }
        self.active.clear();
        self.active.resize(n_pus, None);
        self.live_pus.clear();
        self.pairs.clear();
        self.pu_busy_ms.clear();
        self.pu_busy_ms.resize(n_pus, 0.0);
        self.records.clear();
        self.records.reserve(pending);
        self.task_latency_ms.clear();
        self.emc_series.clear();
        pending
    }
}

struct ReplayModel<'a, 'w> {
    platform: &'a Platform,
    work: &'a DesWork,
    ws: &'w mut Workspace,
    iterations: usize,
    /// The `dt` the pending `Advance` was scheduled with — used verbatim to
    /// settle progress (`remaining -= dt / s`) instead of re-deriving the
    /// interval from timestamps.
    pending_dt: f64,
    granted_gbps: f64,
    emc_integral: f64,
    emc_peak_gbps: f64,
    next_token: u64,
    /// Items not yet completed across all frames.
    pending: usize,
    makespan_ms: f64,
}

impl ReplayModel<'_, '_> {
    /// Whether `task` may start its next frame: every upstream task has
    /// completed strictly more frames (frame k waits for upstream frame k).
    fn upstream_satisfied(&self, task: usize) -> bool {
        let frame = self.ws.tasks[task].frames_done;
        self.work
            .upstream_of(task)
            .iter()
            .all(|&u| self.ws.tasks[u as usize].frames_done > frame)
    }

    /// Releases `task`'s `next_item` onto its PU's FIFO, assigning the next
    /// token (token order is release order, which is deterministic).
    fn enqueue_next(&mut self, task: usize) {
        let pu = self.work.items_of(task)[self.ws.tasks[task].next_item].pu;
        let token = self.next_token;
        self.next_token += 1;
        self.ws.ready[pu].push_back((token, task));
    }
}

impl SimModel for ReplayModel<'_, '_> {
    type Event = Advance;

    fn handle(&mut self, now: SimTime, _ev: Advance, queue: &mut EventQueue<Advance>) {
        let now_ms = now.as_ms();
        // 1. Settle fluid progress over the interval this event was
        //    scheduled for, under the grants computed then.
        let dt = self.pending_dt;
        self.pending_dt = 0.0;
        if dt > 0.0 {
            self.emc_integral += self.granted_gbps * dt;
            for (k, &pu) in self.ws.live_pus.iter().enumerate() {
                if let Some(item) = self.ws.active[pu].as_mut() {
                    item.remaining = (item.remaining - dt / self.ws.fluid.slowdowns[k]).max(0.0);
                }
            }
        }
        // 2. Retire finished items in PU order; each completion releases
        //    the task's chain successor (or its next frame) immediately.
        for pu in 0..self.ws.active.len() {
            let finished = match self.ws.active[pu] {
                Some(item) if item.remaining <= 1e-12 => item,
                _ => continue,
            };
            self.ws.active[pu] = None;
            self.pending -= 1;
            self.ws.pu_busy_ms[pu] += now_ms - finished.start_ms;
            self.makespan_ms = now_ms;
            let t = finished.task;
            self.ws.records.push(ItemRecord {
                token: finished.token,
                task: t,
                item: self.ws.tasks[t].next_item,
                pu,
                start_ms: finished.start_ms,
                end_ms: now_ms,
            });
            self.ws.tasks[t].next_item += 1;
            if self.ws.tasks[t].next_item < self.work.items_of(t).len() {
                self.enqueue_next(t);
            } else {
                self.ws.tasks[t].frames_done += 1;
                if self.ws.tasks[t].frames_done < self.iterations {
                    self.ws.tasks[t].next_item = 0;
                    if self.upstream_satisfied(t) {
                        self.enqueue_next(t);
                    } else {
                        self.ws.tasks[t].blocked = true;
                    }
                } else {
                    self.ws.tasks[t].end_ms = now_ms;
                }
            }
        }
        // 3. Wake parked tasks whose upstream frames arrived, in task-index
        //    order (the initial event at t=0 seeds every dependency-free
        //    task through this scan).
        for t in 0..self.ws.tasks.len() {
            if self.ws.tasks[t].blocked && self.upstream_satisfied(t) {
                self.ws.tasks[t].blocked = false;
                self.enqueue_next(t);
            }
        }
        // 4. Start queued items on free PUs, in PU order.
        for pu in 0..self.ws.active.len() {
            if self.ws.active[pu].is_none() {
                if let Some((token, t)) = self.ws.ready[pu].pop_front() {
                    let cost = self.work.items_of(t)[self.ws.tasks[t].next_item].cost;
                    self.ws.active[pu] = Some(Running {
                        token,
                        task: t,
                        cost,
                        remaining: cost.time_ms,
                        start_ms: now_ms,
                    });
                }
            }
        }
        // 5. Re-arbitrate EMC bandwidth over the (possibly changed) active
        //    set and schedule the next completion.
        self.ws.live_pus.clear();
        self.ws.pairs.clear();
        for (pu, slot) in self.ws.active.iter().enumerate() {
            if let Some(item) = slot {
                self.ws.live_pus.push(pu);
                self.ws.pairs.push((item.cost, item.remaining));
            }
        }
        if self.ws.pairs.is_empty() {
            assert!(
                self.pending == 0,
                "virtual-time deadlock: no runnable work with {} items pending \
                 (circular dependency?)",
                self.pending
            );
            self.granted_gbps = 0.0;
            self.ws.emc_series.push((now_ms, 0.0));
            return;
        }
        let (dt, granted) = fluid_step(self.platform, &self.ws.pairs, &mut self.ws.fluid);
        self.granted_gbps = granted;
        self.emc_peak_gbps = self.emc_peak_gbps.max(granted);
        self.ws.emc_series.push((now_ms, granted));
        self.pending_dt = dt;
        queue.schedule(now + SimTime::from_ms(dt), Advance);
    }
}

/// Reusable replay driver: owns a pooled workspace and recycles the
/// engine's event-queue allocation across runs (via [`Engine::with_queue`]
/// / `into_parts`) — the steady-state zero-alloc loop the fleet
/// evaluator's per-worker threads rely on. Reuse never changes results: a
/// reset workspace behaves exactly like a fresh one.
#[derive(Default)]
pub struct Replayer {
    queue: Option<EventQueue<Advance>>,
    ws: Workspace,
}

impl Replayer {
    /// Fresh replayer; buffers grow over the first run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replays `work` for `iterations` frames per task on `platform`,
    /// leaving the result in the pooled workspace and returning a borrowed
    /// view of it. Deterministic: same inputs, bit-identical output.
    /// Performs no heap allocation once the workspace is warm for the
    /// scenario shape.
    ///
    /// # Panics
    ///
    /// If `iterations` is 0, an item names a PU the platform lacks, or
    /// the upstream lists form a cycle (no runnable work while items are
    /// pending).
    pub fn run(
        &mut self,
        platform: &Platform,
        work: &DesWork,
        iterations: usize,
    ) -> ReplayView<'_> {
        assert!(iterations >= 1);
        let pending = self.ws.reset(platform, work, iterations);
        let queue = self.queue.take();
        let model = ReplayModel {
            platform,
            work,
            ws: &mut self.ws,
            iterations,
            pending_dt: 0.0,
            granted_gbps: 0.0,
            emc_integral: 0.0,
            emc_peak_gbps: 0.0,
            next_token: 0,
            pending,
            makespan_ms: 0.0,
        };
        let mut engine = match queue {
            Some(q) => Engine::with_queue(model, q),
            None => Engine::with_capacity(model, 4),
        };
        engine.schedule(SimTime::ZERO, Advance);
        engine.run();
        let (m, q) = engine.into_parts();
        assert!(m.pending == 0, "replay drained with items pending");
        let emc_mean_gbps = if m.makespan_ms > 0.0 {
            m.emc_integral / m.makespan_ms
        } else {
            0.0
        };
        let (makespan_ms, emc_peak_gbps) = (m.makespan_ms, m.emc_peak_gbps);
        for t in m.ws.tasks.iter() {
            m.ws.task_latency_ms.push(t.end_ms);
        }
        self.queue = Some(q);
        ReplayView {
            task_latency_ms: &self.ws.task_latency_ms,
            makespan_ms,
            pu_busy_ms: &self.ws.pu_busy_ms,
            emc_mean_gbps,
            emc_peak_gbps,
            records: &self.ws.records,
            emc_series: &self.ws.emc_series,
            frames: iterations,
        }
    }
}

/// One-shot [`Replayer::run`] with an owned result.
pub fn replay(platform: &Platform, work: &DesWork, iterations: usize) -> ExecutionReport {
    Replayer::new().run(platform, work, iterations).to_report()
}

/// Upper bound on per-item spans emitted per run; a long frame loop would
/// otherwise dominate flush cost. The overflow is counted in
/// `replay.spans_truncated`.
const MAX_ITEM_SPANS: usize = 512;

/// Flushes one measured run into the telemetry recorder — the `replay.*`
/// family plus the `soc.emc_bandwidth_gbps` series: run/item counters, the
/// makespan distribution, mean/peak EMC traffic and utilization, per-PU
/// occupancy (busy fraction of the makespan), and one span per item record
/// (capped at `MAX_ITEM_SPANS`) on a `replay.items` track. The replay
/// loop itself stays telemetry-free; callers flush once per run.
pub fn flush_telemetry(platform: &Platform, run: &ReplayView<'_>) {
    if !haxconn_telemetry::enabled() {
        return;
    }
    use haxconn_telemetry as t;
    t::counter_add("replay.runs", 1);
    t::counter_add("replay.items", run.records.len() as u64);
    t::histogram_record("replay.makespan_ms", run.makespan_ms);
    t::gauge_set("replay.emc_mean_gbps", run.emc_mean_gbps);
    t::gauge_set("replay.emc_peak_gbps", run.emc_peak_gbps);
    t::gauge_set(
        "replay.emc_utilization",
        run.emc_mean_gbps / platform.emc.bandwidth_gbps,
    );
    for (pu, &busy) in platform.pus.iter().zip(run.pu_busy_ms) {
        let occupancy = if run.makespan_ms > 0.0 {
            busy / run.makespan_ms
        } else {
            0.0
        };
        t::gauge_set(&format!("replay.occupancy.{}", pu.name), occupancy);
    }
    for &(t_ms, gbps) in run.emc_series {
        t::series_record("soc.emc_bandwidth_gbps", t_ms, gbps);
    }
    // Item records become spans relative to the flush instant so they line
    // up as one contiguous virtual-time window per run.
    let base = t::clock_ms() - run.makespan_ms;
    let emit = run.records.len().min(MAX_ITEM_SPANS);
    for r in &run.records[..emit] {
        t::span_event(
            "replay.items",
            &platform.pus[r.pu].name,
            base + r.start_ms,
            r.end_ms - r.start_ms,
        );
    }
    let truncated = run.records.len() - emit;
    if truncated > 0 {
        t::counter_add("replay.spans_truncated", truncated as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::orin_agx;

    fn item(pu: PuId, time_ms: f64, demand: f64, compute_frac: f64) -> WorkItem {
        let compute_ms = time_ms * compute_frac;
        let bytes = demand * time_ms * 1e6;
        // compute_frac close to 1 models a compute-bound item whose memory
        // phase hides beneath the compute phase.
        let (mem_bound_ms, hidden_compute_ms, hidden_mem_ms) = if compute_frac < 0.9 {
            (time_ms, 0.0, 0.0)
        } else {
            (0.0, compute_ms, time_ms * 0.3)
        };
        WorkItem {
            pu,
            cost: LayerCost {
                time_ms,
                compute_ms,
                mem_ms: time_ms,
                bytes,
                demand_gbps: demand,
                mem_bound_ms,
                hidden_compute_ms,
                hidden_mem_ms,
            },
        }
    }

    fn chains(chains: &[&[WorkItem]]) -> DesWork {
        let mut w = DesWork::new();
        for c in chains {
            w.push_chain(c.iter().copied());
        }
        w
    }

    /// The record of `(task, item)` in a single-frame run.
    fn rec(r: &ExecutionReport, task: usize, item: usize) -> ItemRecord {
        *r.records
            .iter()
            .find(|x| x.task == task && x.item == item)
            .expect("item executed")
    }

    fn slowdown(r: &ExecutionReport, w: &DesWork, task: usize, item: usize) -> f64 {
        let x = rec(r, task, item);
        x.slowdown(&w.item(&x).cost)
    }

    #[test]
    fn single_chain_runs_at_standalone_speed() {
        let p = orin_agx();
        let w = chains(&[&[item(0, 2.0, 50.0, 0.5), item(0, 3.0, 40.0, 0.5)]]);
        let r = replay(&p, &w, 1);
        assert_eq!(r.makespan_ms.to_bits(), 5.0f64.to_bits());
        assert_eq!(slowdown(&r, &w, 0, 0), 1.0);
        assert_eq!(r.pu_busy_ms, vec![5.0, 0.0]);
        assert_eq!(r.task_latency_ms, vec![5.0]);
        assert_eq!(r.records.len(), 2);
    }

    #[test]
    fn same_pu_chains_serialize_in_task_order() {
        let p = orin_agx();
        let w = chains(&[&[item(0, 2.0, 10.0, 0.9)], &[item(0, 2.0, 10.0, 0.9)]]);
        let r = replay(&p, &w, 1);
        assert_eq!(r.makespan_ms, 4.0);
        // Task 0 wins the t=0 tie; task 1 queues behind it.
        assert_eq!(rec(&r, 0, 0).start_ms, 0.0);
        assert_eq!(rec(&r, 1, 0).start_ms, 2.0);
        // No contention recorded: only one item at a time.
        assert_eq!(slowdown(&r, &w, 0, 0), 1.0);
    }

    #[test]
    fn cross_pu_contention_stretches_both() {
        let p = orin_agx();
        // Two memory-hungry items saturating the EMC together
        // (160 + 84 > 180.2 capacity).
        let a = [item(0, 4.0, 160.0, 0.1)];
        let b = [item(1, 4.0, 84.0, 0.1)];
        let alone = replay(&p, &chains(&[&a]), 1);
        assert_eq!(alone.makespan_ms, 4.0);
        let w = chains(&[&a, &b]);
        let r = replay(&p, &w, 1);
        assert!(r.makespan_ms > 4.5, "contended run {}", r.makespan_ms);
        assert!(slowdown(&r, &w, 0, 0) > 1.05);
        assert!(slowdown(&r, &w, 1, 0) > 1.05);
        assert!(r.emc_peak_gbps <= p.emc.capacity() + 1e-6);
        // The EMC series opens at t=0 with the contended grant and closes
        // at the makespan with zero traffic.
        assert_eq!(r.emc_series[0].0, 0.0);
        assert_eq!(r.emc_series[0].1, r.emc_peak_gbps);
        assert_eq!(*r.emc_series.last().unwrap(), (r.makespan_ms, 0.0));
    }

    #[test]
    fn compute_bound_item_shrugs_off_contention() {
        let p = orin_agx();
        let aggressor = [item(1, 4.0, 85.0, 0.05)];
        // Memory-bound victim vs compute-bound victim under the same
        // aggressor.
        let mem = chains(&[&[item(0, 4.0, 150.0, 0.05)], &aggressor]);
        let comp = chains(&[&[item(0, 4.0, 30.0, 0.97)], &aggressor]);
        let slow_mem = slowdown(&replay(&p, &mem, 1), &mem, 0, 0);
        let slow_c = slowdown(&replay(&p, &comp, 1), &comp, 0, 0);
        assert!(slow_mem > slow_c, "{slow_mem} vs {slow_c}");
    }

    #[test]
    fn cross_task_dependency_respected() {
        let p = orin_agx();
        let mut w = DesWork::new();
        w.push_chain([item(0, 2.0, 10.0, 0.9)]);
        w.push_item(item(1, 1.0, 10.0, 0.9));
        w.end_chain([0]);
        let r = replay(&p, &w, 1);
        assert_eq!(rec(&r, 1, 0).start_ms, rec(&r, 0, 0).end_ms);
        assert_eq!(r.makespan_ms, 3.0);
    }

    #[test]
    fn pipelined_chains_overlap() {
        let p = orin_agx();
        // Chain a: GPU then DLA; chain b: DLA then GPU. They interleave so
        // the makespan is below fully-serial execution.
        let w = chains(&[
            &[item(0, 2.0, 20.0, 0.9), item(1, 2.0, 20.0, 0.9)],
            &[item(1, 2.0, 20.0, 0.9), item(0, 2.0, 20.0, 0.9)],
        ]);
        let r = replay(&p, &w, 1);
        assert!(r.makespan_ms < 8.0 - 1e-9);
        assert!(r.makespan_ms >= 4.0 - 1e-9);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn cyclic_deps_panic() {
        let p = orin_agx();
        let mut w = DesWork::new();
        w.push_item(item(0, 1.0, 10.0, 0.5));
        w.end_chain([1]);
        w.push_item(item(1, 1.0, 10.0, 0.5));
        w.end_chain([0]);
        replay(&p, &w, 1);
    }

    #[test]
    fn determinism_and_workspace_reuse() {
        let p = orin_agx();
        let w = chains(&[
            &[item(0, 2.0, 90.0, 0.3), item(1, 1.5, 60.0, 0.4)],
            &[item(1, 1.0, 70.0, 0.2), item(0, 2.5, 80.0, 0.6)],
            &[item(0, 0.7, 40.0, 0.5)],
        ]);
        let fresh = replay(&p, &w, 3);
        let mut pooled = Replayer::new();
        // A different scenario first, so the reused workspace is dirty.
        pooled.run(&p, &chains(&[&[item(1, 9.0, 20.0, 0.5)]]), 2);
        let again = pooled.run(&p, &w, 3).to_report();
        assert_eq!(fresh.makespan_ms.to_bits(), again.makespan_ms.to_bits());
        assert_eq!(fresh.records.len(), 3 * w.total_items());
        for (a, b) in fresh.records.iter().zip(&again.records) {
            assert_eq!(
                (a.token, a.task, a.item, a.pu),
                (b.token, b.task, b.item, b.pu)
            );
            assert_eq!(a.start_ms.to_bits(), b.start_ms.to_bits());
            assert_eq!(a.end_ms.to_bits(), b.end_ms.to_bits());
        }
        assert_eq!(fresh.emc_series, again.emc_series);
        // `by_task` lists each task's records in chain order, frame after
        // frame.
        let grouped = fresh.by_task();
        let items: Vec<(usize, usize)> = grouped.iter().map(|r| (r.task, r.item)).collect();
        assert_eq!(
            &items[..6],
            &[(0, 0), (0, 1), (0, 0), (0, 1), (0, 0), (0, 1)]
        );
    }

    #[test]
    fn fps_is_one_convention_keyed_by_frame_count() {
        let report = |lat: &[f64], makespan_ms: f64, frames: usize| ExecutionReport {
            task_latency_ms: lat.to_vec(),
            makespan_ms,
            pu_busy_ms: Vec::new(),
            emc_mean_gbps: 0.0,
            emc_peak_gbps: 0.0,
            records: Vec::new(),
            emc_series: Vec::new(),
            frames,
        };
        // One frame: Σ 1000/latency, skipping degenerate latencies.
        assert_eq!(report(&[], 0.0, 1).fps(), 0.0);
        let single = report(&[0.0, 10.0, f64::INFINITY, f64::NAN], 10.0, 1);
        assert_eq!(single.fps(), 100.0);
        // More frames: frames · tasks per second of virtual time.
        assert_eq!(report(&[50.0, 100.0], 0.0, 5).fps(), 0.0);
        assert_eq!(report(&[50.0, 100.0], 100.0, 5).fps(), 100.0);
        // A replay stamps its frame count, and a view prices the same.
        let p = orin_agx();
        let w = chains(&[&[item(0, 2.0, 10.0, 0.9)], &[item(1, 4.0, 10.0, 0.9)]]);
        let one = replay(&p, &w, 1);
        assert_eq!(one.frames, 1);
        assert_eq!(one.fps(), 1000.0 / 2.0 + 1000.0 / 4.0);
        let mut pooled = Replayer::new();
        let three = pooled.run(&p, &w, 3);
        assert_eq!(three.frames, 3);
        assert_eq!(three.fps(), 1000.0 * 6.0 / three.makespan_ms);
        assert_eq!(three.fps().to_bits(), three.to_report().fps().to_bits());
    }

    #[test]
    fn work_conservation() {
        let p = orin_agx();
        let w = chains(&[
            &[item(0, 3.0, 120.0, 0.2), item(1, 2.0, 60.0, 0.5)],
            &[item(1, 2.5, 70.0, 0.3)],
        ]);
        let r = replay(&p, &w, 1);
        // Busy time per PU never exceeds the makespan, and is at least the
        // standalone time of the work mapped there.
        for busy in &r.pu_busy_ms {
            assert!(*busy <= r.makespan_ms + 1e-9);
        }
        assert!(r.pu_busy_ms[0] >= 3.0 - 1e-9);
        assert!(r.pu_busy_ms[1] >= 4.5 - 1e-9);
    }
}
