//! Multi-tenant arrival engine: D-HaX-CoNN under tenants that join,
//! leave and renegotiate SLAs mid-flight (paper Section 3.5; MoCA-style
//! multi-tenancy from PAPERS.md).
//!
//! The static scheduler answers "what is the best joint schedule for this
//! workload"; a deployed SoC also has to answer "the workload just
//! changed — what do we run *now*, and when is it worth re-solving?".
//! This module models that world on the deterministic `haxconn-des`
//! event engine:
//!
//! * an [`ArrivalTrace`] streams [`TenantEvent`]s — joins, leaves and SLA
//!   changes of tenants with priority/SLA classes ([`SlaClass`]) — into
//!   the event queue,
//! * a [`ResolvePolicy`] decides at each workload change whether to
//!   re-run the solver (warm-started from the surviving incumbent) or
//!   to keep running a cheaply *patched* schedule,
//! * a contention-aware throttle de-prioritizes best-effort co-runners
//!   whenever a latency-critical tenant's predicted slack goes negative
//!   (the memory-centric adaptive throttling move of MoCA),
//! * a [`TenantReport`] accounts the whole replay: per-tenant SLA
//!   attainment, mean and p99 latency, throttled time, and the Jain
//!   fairness index over normalized throughput.
//!
//! Replays are bit-deterministic: virtual time only, seeded generation,
//! FIFO tie-breaking in the event queue, and one solver entry whose
//! results are independent of thread count (it routes node-budgeted
//! solves to the sequential solver for exactly this reason). Two
//! replays of the same trace — on any worker count — produce
//! byte-identical JSON reports, which the `dynamic-gate` CI job checks
//! on a 10k-event trace.

use crate::cache::{ShardedCache, WorkloadSignature, PHASE_CAPACITY};
use crate::encoding::ScheduleEncoding;
use crate::error::{parse_model, HaxError};
use crate::problem::{DnnTask, SchedulerConfig, Workload};
use crate::scheduler::{objective_cost, Schedule, ScheduleOrigin};
use crate::timeline::{PredictedTimeline, TimelineEvaluator};
use crate::validate::validate_timeline;
use haxconn_contention::ContentionModel;
use haxconn_des::{Engine, EventQueue, SimModel, SimTime};
use haxconn_dnn::Model;
use haxconn_profiler::NetworkProfile;
use haxconn_soc::{Platform, PuId};
use haxconn_solver::{solve_auto, CostModel, SolveOptions};
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Priority / SLA class of a tenant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SlaClass {
    /// Latency-critical: the tenant's predicted per-frame latency must
    /// stay within `deadline_ms`; its slack is `deadline - latency`.
    LatencyCritical {
        /// Per-frame deadline, ms.
        deadline_ms: f64,
    },
    /// Best-effort: no deadline; first to be throttled under pressure.
    BestEffort,
}

impl SlaClass {
    /// The deadline, if latency-critical.
    pub fn deadline_ms(&self) -> Option<f64> {
        match *self {
            SlaClass::LatencyCritical { deadline_ms } => Some(deadline_ms),
            SlaClass::BestEffort => None,
        }
    }
}

/// A tenant: one DNN inference stream with an SLA class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Unique tenant name within the trace.
    pub name: String,
    /// DNN model name (as accepted by [`parse_model`]).
    pub model: String,
    /// Layer-group granularity for profiling/scheduling.
    pub groups: usize,
    /// SLA class.
    pub sla: SlaClass,
}

/// One workload-changing event in an arrival trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TenantEvent {
    /// A tenant joins the platform.
    Join {
        /// The joining tenant.
        tenant: TenantSpec,
    },
    /// A tenant leaves.
    Leave {
        /// Name of the leaving tenant.
        name: String,
    },
    /// A tenant renegotiates its SLA class.
    SlaChange {
        /// Name of the tenant.
        name: String,
        /// The new SLA class.
        sla: SlaClass,
    },
}

/// A timestamped [`TenantEvent`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivalEvent {
    /// Virtual arrival time, ms.
    pub at_ms: f64,
    /// The event.
    pub event: TenantEvent,
}

/// A deterministic multi-tenant arrival trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ArrivalTrace {
    /// Events in strictly increasing time order.
    pub events: Vec<ArrivalEvent>,
}

/// Model pool the trace generator draws from (the scenario generator's
/// zoo subset: small enough that tenant mixes recur, which is what makes
/// 10k-event replays cheap through the schedule cache).
const POOL: [Model; 6] = [
    Model::GoogleNet,
    Model::ResNet18,
    Model::ResNet50,
    Model::MobileNetV1,
    Model::AlexNet,
    Model::DenseNet121,
];

/// Deadlines drawn for latency-critical tenants, ms.
const DEADLINES_MS: [f64; 4] = [20.0, 35.0, 60.0, 120.0];

/// xorshift64* step (same generator as the scenario/fuzzer modules).
fn gen_next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

impl ArrivalTrace {
    /// Generates a deterministic trace of exactly `events` events with at
    /// most `max_tenants` concurrently active tenants. Same `(seed,
    /// events, max_tenants)` ⇒ identical trace, bit for bit.
    pub fn generate(seed: u64, events: usize, max_tenants: usize) -> ArrivalTrace {
        let max_tenants = max_tenants.max(1);
        let mut state = (seed ^ 0x9E37_79B9_7F4A_7C15) | 1;
        let mut t_ms = 0.0f64;
        let mut next_id = 0usize;
        let mut active: Vec<TenantSpec> = Vec::new();
        let mut out = Vec::with_capacity(events);
        for _ in 0..events {
            // Strictly increasing times: 5–45 ms inter-arrival gaps.
            t_ms += 5.0 + (gen_next(&mut state) % 400) as f64 / 10.0;
            let draw_sla = |state: &mut u64| {
                if gen_next(state).is_multiple_of(2) {
                    SlaClass::LatencyCritical {
                        deadline_ms: DEADLINES_MS[(gen_next(state) % 4) as usize],
                    }
                } else {
                    SlaClass::BestEffort
                }
            };
            let roll = gen_next(&mut state) % 10;
            let event = if active.is_empty() || (roll < 5 && active.len() < max_tenants) {
                let model = POOL[(gen_next(&mut state) % POOL.len() as u64) as usize];
                let tenant = TenantSpec {
                    name: format!("t{next_id}"),
                    model: model.name().to_string(),
                    groups: 4 + (gen_next(&mut state) % 2) as usize,
                    sla: draw_sla(&mut state),
                };
                next_id += 1;
                active.push(tenant.clone());
                TenantEvent::Join { tenant }
            } else if roll < 7 && active.len() > 1 {
                let victim = (gen_next(&mut state) % active.len() as u64) as usize;
                let name = active.remove(victim).name;
                TenantEvent::Leave { name }
            } else {
                let who = (gen_next(&mut state) % active.len() as u64) as usize;
                let sla = draw_sla(&mut state);
                active[who].sla = sla;
                TenantEvent::SlaChange {
                    name: active[who].name.clone(),
                    sla,
                }
            };
            out.push(ArrivalEvent { at_ms: t_ms, event });
        }
        ArrivalTrace { events: out }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes the trace as JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|e| panic!("trace serialization: {e}"))
    }

    /// Parses a trace from JSON.
    pub fn from_json(s: &str) -> Result<ArrivalTrace, HaxError> {
        let trace: ArrivalTrace = serde_json::from_str(s)
            .map_err(|e| HaxError::InvalidConfig(format!("arrival trace: {e}")))?;
        trace.validate()?;
        Ok(trace)
    }

    /// Checks structural invariants: finite non-negative times in
    /// non-decreasing order, known model names, positive group counts.
    pub fn validate(&self) -> Result<(), HaxError> {
        let mut prev = 0.0f64;
        for (i, e) in self.events.iter().enumerate() {
            if !e.at_ms.is_finite() || e.at_ms < 0.0 {
                return Err(HaxError::InvalidConfig(format!(
                    "trace event {i} has invalid time {}",
                    e.at_ms
                )));
            }
            if e.at_ms < prev {
                return Err(HaxError::InvalidConfig(format!(
                    "trace event {i} goes back in time ({} < {prev})",
                    e.at_ms
                )));
            }
            prev = e.at_ms;
            if let TenantEvent::Join { tenant } = &e.event {
                parse_model(&tenant.model)?;
                if tenant.groups == 0 {
                    return Err(HaxError::InvalidConfig(format!(
                        "tenant '{}' has zero layer groups",
                        tenant.name
                    )));
                }
            }
        }
        Ok(())
    }
}

/// When to re-run the solver after a workload change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ResolvePolicy {
    /// Re-solve at every join/leave.
    Immediate,
    /// Batch changes: re-solve once, `window_ms` after the first change
    /// of a burst. Until then the runtime executes the patched schedule
    /// (survivors keep their rows, joiners start on the GPU).
    Debounced {
        /// Batching window, ms.
        window_ms: f64,
    },
    /// Re-solve only when the optimistic headroom of the patched
    /// schedule — `(patched_cost - root_chain_bound) / |patched_cost|`,
    /// see [`ScheduleEncoding::chain_bound`] —
    /// reaches `min_gain`, or when a latency-critical tenant's slack
    /// stays negative even after throttling.
    UtilityThreshold {
        /// Minimum relative headroom that justifies a solve.
        min_gain: f64,
    },
}

/// Options of an arrival replay.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Re-solve policy.
    pub policy: ResolvePolicy,
    /// Scheduler configuration for the re-solves. Every re-solve goes
    /// through `haxconn_solver::solve_auto`, which runs a budgeted solve
    /// (`node_budget`) on the sequential branch & bound.
    pub config: SchedulerConfig,
    /// Validate every schedule adopted at every re-solve point against
    /// the timeline invariant suite, counting violations in the report.
    pub validate: bool,
    /// Record every re-solve point (time, tenants, assignment, cost) in
    /// the report.
    pub record_resolves: bool,
    /// Extra accounting time after the last event, ms.
    pub tail_ms: f64,
    /// Threads for each re-solve (0 = all cores), passed to
    /// `haxconn_solver::solve_auto`: 1 keeps every re-solve sequential,
    /// larger values let mixes of 12 or more variables run the parallel
    /// branch & bound. The replay is bit-identical across worker counts —
    /// the determinism gate replays the same trace at several values and
    /// compares bytes.
    pub workers: usize,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            policy: ResolvePolicy::Immediate,
            config: SchedulerConfig::default(),
            validate: false,
            record_resolves: true,
            tail_ms: 0.0,
            workers: 0,
        }
    }
}

/// What happened at one re-solve point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ResolveAction {
    /// The solver ran (cache miss) and its result was adopted.
    Solved,
    /// The schedule cache already held this tenant mix.
    CacheHit,
    /// The policy skipped the solve; the patched schedule kept running.
    Patched,
    /// The throttle moved best-effort tenants to restore critical slack.
    Throttled,
}

/// One adopted schedule during the replay (everything the invariant
/// suite needs to re-check it).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResolvePoint {
    /// Virtual time of adoption, ms.
    pub at_ms: f64,
    /// How the schedule was obtained.
    pub action: ResolveAction,
    /// Active tenants, in canonical (model-sorted) order.
    pub tenants: Vec<String>,
    /// `assignment[i][group]` = PU, rows aligned with `tenants`.
    pub assignment: Vec<Vec<PuId>>,
    /// Objective cost of the adopted schedule.
    pub cost: f64,
}

/// Per-tenant accounting of one replay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantStats {
    /// Tenant name.
    pub name: String,
    /// Model name.
    pub model: String,
    /// Deadline, ms (latency-critical tenants only).
    pub deadline_ms: Option<f64>,
    /// Total time the tenant was active, ms.
    pub active_ms: f64,
    /// Time spent throttled, ms.
    pub throttled_ms: f64,
    /// Frames processed (virtual, fractional).
    pub frames: f64,
    /// Frame-weighted mean latency, ms (0 when no frames ran).
    pub mean_latency_ms: f64,
    /// Frame-weighted p99 latency, ms (0 when no frames ran).
    pub p99_latency_ms: f64,
    /// Fraction of frames meeting the deadline (latency-critical only).
    pub sla_attainment: Option<f64>,
}

/// Outcome of an arrival replay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantReport {
    /// Total replayed horizon, ms.
    pub horizon_ms: f64,
    /// Events consumed from the trace.
    pub events: usize,
    /// Joins applied.
    pub joins: usize,
    /// Leaves applied.
    pub leaves: usize,
    /// SLA changes applied.
    pub sla_changes: usize,
    /// Events ignored (duplicate joins, leaves of unknown tenants, ...).
    pub ignored: usize,
    /// Solver runs (cache misses included).
    pub resolves: usize,
    /// Workload changes the policy absorbed without a solver run.
    pub resolve_skips: usize,
    /// Schedule-cache hits / misses during the replay.
    pub cache_hits: u64,
    /// Schedule-cache misses.
    pub cache_misses: u64,
    /// Throttle interventions.
    pub throttles: usize,
    /// Invariant violations across all adopted schedules (0 expected;
    /// populated when [`ReplayOptions::validate`] is on).
    pub violations: usize,
    /// Human-readable description of the first few violations.
    pub violation_samples: Vec<String>,
    /// Jain fairness index over per-tenant normalized throughput
    /// (1.0 = perfectly fair; in (0, 1]).
    pub jain_fairness: f64,
    /// Per-tenant accounting, in join order.
    pub tenants: Vec<TenantStats>,
    /// Every adopted schedule (when [`ReplayOptions::record_resolves`]).
    pub resolve_points: Vec<ResolvePoint>,
}

impl TenantReport {
    /// Serializes the report as canonical JSON — the byte-identity
    /// artifact of the determinism gate.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|e| panic!("report serialization: {e}"))
    }
}

/// A live tenant during the replay.
struct Tenant {
    spec: TenantSpec,
    model: Model,
    /// Current schedule row (`row[group]` = PU), canonical-order agnostic.
    row: Vec<PuId>,
    /// Predicted per-frame latency under the current schedule, ms.
    lat: f64,
    /// Whether the throttle currently pins this tenant.
    throttled: bool,
    /// Best standalone latency over all PUs, ms (fairness normalizer).
    standalone_ms: f64,
    /// (latency, frames) segments accumulated over schedule intervals.
    segments: Vec<(f64, f64)>,
    active_ms: f64,
    throttled_ms: f64,
    frames: f64,
    deadline_frames: f64,
    latency_weighted: f64,
}

/// Closed accounting for a tenant that already left.
struct Departed {
    stats: TenantStats,
    fairness_x: Option<f64>,
}

enum Ev {
    Trace(usize),
    Resolve,
}

struct Sim<'a> {
    platform: &'a Platform,
    contention: &'a ContentionModel,
    options: ReplayOptions,
    trace: &'a ArrivalTrace,
    profiles: FxHashMap<(Model, usize), Arc<NetworkProfile>>,
    cache: ShardedCache<WorkloadSignature, Arc<Schedule>>,
    active: Vec<Tenant>,
    departed: Vec<Departed>,
    last_switch_ms: f64,
    /// Debounce: a `Resolve` event is already queued.
    resolve_pending: bool,
    report: TenantReport,
}

impl<'a> Sim<'a> {
    fn profile(&mut self, model: Model, groups: usize) -> Arc<NetworkProfile> {
        let platform = self.platform;
        Arc::clone(
            self.profiles
                .entry((model, groups))
                .or_insert_with(|| Arc::new(NetworkProfile::profile(platform, model, groups))),
        )
    }

    /// Accrues per-tenant accounting for `[last_switch, now)` under the
    /// current per-tenant latencies.
    fn close_interval(&mut self, now_ms: f64) {
        let dt = now_ms - self.last_switch_ms;
        self.last_switch_ms = now_ms;
        if dt <= 0.0 {
            return;
        }
        for t in &mut self.active {
            t.active_ms += dt;
            if t.throttled {
                t.throttled_ms += dt;
            }
            if t.lat.is_finite() && t.lat > 0.0 {
                let frames = dt / t.lat;
                t.frames += frames;
                t.latency_weighted += frames * t.lat;
                t.segments.push((t.lat, frames));
                if let Some(d) = t.spec.sla.deadline_ms() {
                    if t.lat <= d + 1e-9 {
                        t.deadline_frames += frames;
                    }
                }
            }
        }
    }

    /// Canonical ordering of the active tenants: sorted by (model,
    /// groups), ties by position. Model-sorted workloads make recurring
    /// tenant *mixes* hit the same [`crate::WorkloadSignature`] no matter
    /// what the tenants are called or in which order they joined.
    fn canonical_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.active.len()).collect();
        order.sort_by(|&a, &b| {
            let ka = (self.active[a].model.name(), self.active[a].spec.groups);
            let kb = (self.active[b].model.name(), self.active[b].spec.groups);
            ka.cmp(&kb).then(a.cmp(&b))
        });
        order
    }

    fn canonical_workload(&mut self, order: &[usize]) -> Workload {
        let tasks = order
            .iter()
            .map(|&i| {
                let (model, groups, name) = (
                    self.active[i].model,
                    self.active[i].spec.groups,
                    self.active[i].spec.name.clone(),
                );
                DnnTask::new(name, self.profile(model, groups))
            })
            .collect();
        Workload::concurrent(tasks)
    }

    /// The replay's evaluator for `workload`.
    fn evaluator<'w>(&self, workload: &'w Workload) -> TimelineEvaluator<'w>
    where
        'a: 'w,
    {
        let mut ev = TimelineEvaluator::new(workload, self.contention);
        ev.contention_aware = self.options.config.contention_aware;
        ev
    }

    /// The predicted timeline of `rows` (canonical order) on `workload`.
    fn predict(&self, workload: &Workload, rows: &[Vec<PuId>]) -> PredictedTimeline {
        self.evaluator(workload).evaluate(rows)
    }

    /// Adopts `rows` (canonical order) on `workload`, whose timeline is
    /// `tl`: writes each tenant's row and predicted latency back, then
    /// validates + records the schedule as one re-solve point.
    fn adopt(
        &mut self,
        now_ms: f64,
        action: ResolveAction,
        workload: &Workload,
        order: &[usize],
        rows: Vec<Vec<PuId>>,
        tl: &PredictedTimeline,
    ) {
        for (pos, &i) in order.iter().enumerate() {
            self.active[i].row = rows[pos].clone();
            self.active[i].lat = tl.task_latency_ms[pos];
        }
        if self.options.validate {
            let verdict = validate_timeline(workload, &rows, tl);
            if !verdict.is_valid() {
                self.report.violations += verdict.violations.len();
                if self.report.violation_samples.len() < 8 {
                    self.report
                        .violation_samples
                        .push(format!("t={now_ms}ms: {verdict}"));
                }
            }
        }
        if self.options.record_resolves {
            self.report.resolve_points.push(ResolvePoint {
                at_ms: now_ms,
                action,
                tenants: order
                    .iter()
                    .map(|&i| self.active[i].spec.name.clone())
                    .collect(),
                assignment: rows,
                cost: objective_cost(self.options.config.objective, tl),
            });
        }
    }

    /// The patched schedule after a membership change: survivors keep
    /// their rows, joiners start on the GPU (always-valid instant row).
    fn patched_rows(&self, order: &[usize]) -> Vec<Vec<PuId>> {
        let gpu = self.platform.gpu();
        order
            .iter()
            .map(|&i| {
                let t = &self.active[i];
                if t.row.len() == t.spec.groups {
                    t.row.clone()
                } else {
                    vec![gpu; t.spec.groups]
                }
            })
            .collect()
    }

    /// Full solve for the current tenant mix, warm-started from the
    /// surviving incumbent. Returns the schedule to adopt, its predicted
    /// timeline included, and whether the solver actually ran (vs a
    /// schedule-cache hit).
    ///
    /// A hit's timeline is reused as is: every entry was predicted in this
    /// replay, with the same contention model and configuration, on a
    /// workload of the same signature — the same memoized profiles in the
    /// same canonical order — and the evaluator reads nothing else.
    fn solve_mix(
        &mut self,
        workload: &Workload,
        seed_rows: &[Vec<PuId>],
        seed_cost: f64,
    ) -> (Arc<Schedule>, ResolveAction) {
        let signature = WorkloadSignature::of(workload);
        if let Some(hit) = self.cache.get(&signature) {
            return (hit, ResolveAction::CacheHit);
        }
        let solve_started = std::time::Instant::now();
        // The anytime path solves the ε-relaxed formulation (queueing
        // modeled instead of forbidden), like `DHaxConn`: every
        // assignment is feasible there, so the surviving incumbent is a
        // usable warm start.
        let relaxed = SchedulerConfig {
            epsilon_ms: None,
            ..self.options.config
        };
        let enc = ScheduleEncoding::new(workload, self.contention, relaxed);
        let seed = enc.to_flat(seed_rows).map(|flat| (flat, seed_cost));
        let opts = SolveOptions {
            node_budget: relaxed.node_budget,
            initial_upper_bound: Some(seed_cost),
            initial_incumbent: seed,
            ..Default::default()
        };
        let best = solve_auto(&enc, opts, self.options.workers).best;
        let rows = match best {
            Some((a, _)) => enc.to_rows(&a),
            // Nothing beat the warm start: the patched incumbent *is*
            // the optimum-cost schedule for this mix.
            None => seed_rows.to_vec(),
        };
        // Cache under the mix signature so the next time this tenant
        // combination appears the schedule is instant.
        let predicted = self.predict(workload, &rows);
        let cost = objective_cost(self.options.config.objective, &predicted);
        let schedule = Arc::new(Schedule {
            assignment: rows,
            predicted,
            cost,
            origin: ScheduleOrigin::Optimal,
            proven_optimal: relaxed.node_budget.is_none(),
        });
        self.cache.insert(signature, Arc::clone(&schedule));
        if haxconn_telemetry::enabled() {
            haxconn_telemetry::histogram_record(
                "dynamic.resolve.ms",
                solve_started.elapsed().as_secs_f64() * 1e3,
            );
        }
        (schedule, ResolveAction::Solved)
    }

    /// Contention-aware throttle: while a latency-critical tenant's
    /// predicted slack is negative, greedily move best-effort tenants
    /// onto the PU that most reduces the worst deadline-overshoot ratio
    /// (with per-group GPU fallback for unsupported groups). Returns the
    /// number of moves applied and the timeline of the rows they leave,
    /// or `None` when nothing moved.
    ///
    /// Every tenant's `lat` must be its latency under the current rows
    /// on `workload` (as [`Sim::adopt`] leaves it), so the first overshoot
    /// evaluates no timeline; each later one is the winning candidate's.
    fn throttle_pass(
        &mut self,
        workload: &Workload,
        order: &[usize],
    ) -> Option<(usize, PredictedTimeline)> {
        let gpu = self.platform.gpu();
        let pus = self.platform.dnn_pus();
        let ev = self.evaluator(workload);
        let deadlines: Vec<Option<f64>> = order
            .iter()
            .map(|&i| self.active[i].spec.sla.deadline_ms())
            .collect();
        let overshoot = |lats: &[f64]| -> f64 {
            deadlines
                .iter()
                .zip(lats)
                .filter_map(|(d, &lat)| d.map(|d| lat / d))
                .fold(0.0, f64::max)
        };
        let lats: Vec<f64> = order.iter().map(|&i| self.active[i].lat).collect();
        let mut current = overshoot(&lats);
        let mut moves = 0usize;
        let mut last: Option<PredictedTimeline> = None;
        // Cap iterations: each move pins one tenant, so one pass per
        // best-effort tenant suffices.
        for _ in 0..self.active.len() {
            if current <= 1.0 {
                break; // every deadline holds — nothing to throttle
            }
            let rows: Vec<Vec<PuId>> = order.iter().map(|&i| self.active[i].row.clone()).collect();
            // Try moving each unpinned best-effort tenant to each PU.
            // Groups the target PU cannot run stay on the GPU (the
            // TensorRT fallback semantics), so e.g. a trailing Softmax
            // group never disqualifies the whole move to a DLA.
            let mut best: Option<(usize, Vec<PuId>, f64, PredictedTimeline)> = None;
            for (pos, &i) in order.iter().enumerate() {
                let t = &self.active[i];
                if t.spec.sla.deadline_ms().is_some() || t.throttled {
                    continue;
                }
                for &pu in &pus {
                    let row: Vec<PuId> = t
                        .profile(self)
                        .groups
                        .iter()
                        .map(|g| if g.cost[pu].is_some() { pu } else { gpu })
                        .collect();
                    if pu != gpu && row.iter().all(|&p| p == gpu) {
                        continue; // nothing would actually move
                    }
                    let mut candidate = rows.clone();
                    candidate[pos] = row.clone();
                    let tl = ev.evaluate(&candidate);
                    let score = overshoot(&tl.task_latency_ms);
                    let better = match &best {
                        None => score < current - 1e-9,
                        Some((_, _, s, _)) => score < s - 1e-9,
                    };
                    if better {
                        best = Some((pos, row, score, tl));
                    }
                }
            }
            let Some((pos, row, score, tl)) = best else {
                break;
            };
            let i = order[pos];
            self.active[i].row = row;
            self.active[i].throttled = true;
            current = score;
            last = Some(tl);
            moves += 1;
        }
        last.map(|tl| (moves, tl))
    }

    /// Re-establishes the running schedule after a membership change,
    /// according to the policy. `force_solve` overrides the policy (used
    /// by debounced `Resolve` events).
    fn reschedule(&mut self, now_ms: f64, force_solve: bool, queue: &mut EventQueue<Ev>) {
        if self.active.is_empty() {
            return;
        }
        let order = self.canonical_order();
        let workload = self.canonical_workload(&order);
        let patched = self.patched_rows(&order);
        let patched_tl = self.predict(&workload, &patched);
        let patched_cost = objective_cost(self.options.config.objective, &patched_tl);

        let solve_now = force_solve
            || match self.options.policy {
                ResolvePolicy::Immediate => true,
                ResolvePolicy::Debounced { window_ms } => {
                    if !self.resolve_pending {
                        self.resolve_pending = true;
                        queue.schedule(SimTime::from_ms(now_ms + window_ms.max(0.0)), Ev::Resolve);
                    }
                    false
                }
                ResolvePolicy::UtilityThreshold { min_gain } => {
                    let relaxed = SchedulerConfig {
                        epsilon_ms: None,
                        ..self.options.config
                    };
                    let enc = ScheduleEncoding::new(&workload, self.contention, relaxed);
                    let root = enc.chain_bound(&vec![None; enc.num_vars()]);
                    let headroom =
                        (patched_cost - root) / patched_cost.abs().max(f64::MIN_POSITIVE);
                    headroom >= min_gain
                }
            };

        if solve_now {
            self.report.resolves += 1;
            haxconn_telemetry::counter_add("dynamic.resolve.count", 1);
            let (schedule, action) = self.solve_mix(&workload, &patched, patched_cost);
            if action == ResolveAction::CacheHit {
                haxconn_telemetry::counter_add("dynamic.resolve.cache_hit", 1);
            }
            for t in &mut self.active {
                t.throttled = false;
            }
            let rows = schedule.assignment.clone();
            self.adopt(now_ms, action, &workload, &order, rows, &schedule.predicted);
        } else {
            self.report.resolve_skips += 1;
            haxconn_telemetry::counter_add("dynamic.resolve.skipped", 1);
            let action = ResolveAction::Patched;
            self.adopt(now_ms, action, &workload, &order, patched, &patched_tl);
        }
        self.apply_throttle(now_ms, &workload, &order);
    }

    /// Runs the throttle and, when it intervened, re-adopts + records the
    /// throttled schedule.
    fn apply_throttle(&mut self, now_ms: f64, workload: &Workload, order: &[usize]) {
        let Some((moves, tl)) = self.throttle_pass(workload, order) else {
            return;
        };
        self.report.throttles += moves;
        haxconn_telemetry::counter_add("tenant.throttles", moves as u64);
        let rows: Vec<Vec<PuId>> = order.iter().map(|&i| self.active[i].row.clone()).collect();
        self.adopt(now_ms, ResolveAction::Throttled, workload, order, rows, &tl);
    }

    fn finish_tenant(&mut self, t: Tenant) {
        let stats = tenant_stats(&t);
        let fairness_x = (t.active_ms > 0.0 && t.standalone_ms > 0.0)
            .then(|| t.frames * t.standalone_ms / t.active_ms);
        self.departed.push(Departed { stats, fairness_x });
    }
}

/// Weighted p99 over (latency, frames) segments.
fn weighted_p99(segments: &mut [(f64, f64)]) -> f64 {
    let total: f64 = segments.iter().map(|&(_, f)| f).sum();
    if total <= 0.0 {
        return 0.0;
    }
    segments.sort_by(|a, b| a.0.total_cmp(&b.0));
    let target = 0.99 * total;
    let mut acc = 0.0;
    for &(lat, frames) in segments.iter() {
        acc += frames;
        if acc >= target {
            return lat;
        }
    }
    segments.last().map(|&(lat, _)| lat).unwrap_or(0.0)
}

fn tenant_stats(t: &Tenant) -> TenantStats {
    let mut segments = t.segments.clone();
    // Mirror the stream/executor guards: zero frames ⇒ zero aggregates,
    // never a division by zero.
    let mean = if t.frames > 0.0 {
        t.latency_weighted / t.frames
    } else {
        0.0
    };
    TenantStats {
        name: t.spec.name.clone(),
        model: t.model.name().to_string(),
        deadline_ms: t.spec.sla.deadline_ms(),
        active_ms: t.active_ms,
        throttled_ms: t.throttled_ms,
        frames: t.frames,
        mean_latency_ms: mean,
        p99_latency_ms: weighted_p99(&mut segments),
        sla_attainment: t.spec.sla.deadline_ms().map(|_| {
            if t.frames > 0.0 {
                t.deadline_frames / t.frames
            } else {
                1.0
            }
        }),
    }
}

/// Jain fairness index over the tenants' normalized throughputs.
fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sq)
}

impl Tenant {
    /// The tenant's profile out of the replay memo (helper for the
    /// throttle's support check).
    fn profile<'s>(&self, sim: &'s Sim<'_>) -> &'s NetworkProfile {
        &sim.profiles[&(self.model, self.spec.groups)]
    }
}

impl SimModel for Sim<'_> {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, queue: &mut EventQueue<Ev>) {
        let now_ms = now.as_ms();
        match event {
            Ev::Trace(i) => {
                if i + 1 < self.trace.events.len() {
                    let next = &self.trace.events[i + 1];
                    queue.schedule(SimTime::from_ms(next.at_ms), Ev::Trace(i + 1));
                }
                self.close_interval(now_ms);
                self.report.events += 1;
                match self.trace.events[i].event.clone() {
                    TenantEvent::Join { tenant } => {
                        if self.active.iter().any(|t| t.spec.name == tenant.name) {
                            self.report.ignored += 1;
                            return;
                        }
                        // Trace validation happened up front, so the name
                        // resolves.
                        let model = match parse_model(&tenant.model) {
                            Ok(m) => m,
                            Err(_) => {
                                self.report.ignored += 1;
                                return;
                            }
                        };
                        let profile = self.profile(model, tenant.groups);
                        let standalone = self
                            .platform
                            .dnn_pus()
                            .iter()
                            .map(|&pu| profile.standalone_with_fallback_ms(pu, self.platform.gpu()))
                            .fold(f64::INFINITY, f64::min);
                        self.active.push(Tenant {
                            model,
                            row: Vec::new(),
                            lat: f64::INFINITY,
                            throttled: false,
                            standalone_ms: if standalone.is_finite() {
                                standalone
                            } else {
                                0.0
                            },
                            segments: Vec::new(),
                            active_ms: 0.0,
                            throttled_ms: 0.0,
                            frames: 0.0,
                            deadline_frames: 0.0,
                            latency_weighted: 0.0,
                            spec: tenant,
                        });
                        self.report.joins += 1;
                        haxconn_telemetry::counter_add("tenant.joins", 1);
                        haxconn_telemetry::gauge_set("tenant.active", self.active.len() as f64);
                        self.reschedule(now_ms, false, queue);
                    }
                    TenantEvent::Leave { name } => {
                        let Some(idx) = self.active.iter().position(|t| t.spec.name == name) else {
                            self.report.ignored += 1;
                            return;
                        };
                        let gone = self.active.remove(idx);
                        self.finish_tenant(gone);
                        self.report.leaves += 1;
                        haxconn_telemetry::counter_add("tenant.leaves", 1);
                        haxconn_telemetry::gauge_set("tenant.active", self.active.len() as f64);
                        self.reschedule(now_ms, false, queue);
                    }
                    TenantEvent::SlaChange { name, sla } => {
                        let Some(idx) = self.active.iter().position(|t| t.spec.name == name) else {
                            self.report.ignored += 1;
                            return;
                        };
                        self.active[idx].spec.sla = sla;
                        self.report.sla_changes += 1;
                        haxconn_telemetry::counter_add("tenant.sla_changes", 1);
                        // The workload itself is unchanged — no solve —
                        // but the new SLA may demand (or release) a
                        // throttle intervention.
                        if !self.active.is_empty() {
                            let order = self.canonical_order();
                            let workload = self.canonical_workload(&order);
                            self.apply_throttle(now_ms, &workload, &order);
                        }
                    }
                }
            }
            Ev::Resolve => {
                self.close_interval(now_ms);
                self.resolve_pending = false;
                self.reschedule(now_ms, true, queue);
            }
        }
    }
}

/// Replays `trace` on `platform` and returns the tenant accounting.
///
/// Deterministic: the same `(platform, trace, options)` produce a
/// byte-identical [`TenantReport::to_json`] on every run and every
/// worker count (see the module docs for why).
pub fn replay(
    platform: &Platform,
    contention: &ContentionModel,
    trace: &ArrivalTrace,
    options: &ReplayOptions,
) -> Result<TenantReport, HaxError> {
    trace.validate()?;
    options.config.validate()?;
    if let ResolvePolicy::Debounced { window_ms } = options.policy {
        if !window_ms.is_finite() || window_ms < 0.0 {
            return Err(HaxError::InvalidConfig(format!(
                "debounce window must be finite and non-negative, got {window_ms}"
            )));
        }
    }
    let replay_started = std::time::Instant::now();
    let report = TenantReport {
        horizon_ms: 0.0,
        events: 0,
        joins: 0,
        leaves: 0,
        sla_changes: 0,
        ignored: 0,
        resolves: 0,
        resolve_skips: 0,
        cache_hits: 0,
        cache_misses: 0,
        throttles: 0,
        violations: 0,
        violation_samples: Vec::new(),
        jain_fairness: 1.0,
        tenants: Vec::new(),
        resolve_points: Vec::new(),
    };
    let mut engine = Engine::new(Sim {
        platform,
        contention,
        options: options.clone(),
        trace,
        profiles: FxHashMap::default(),
        cache: ShardedCache::new(PHASE_CAPACITY),
        active: Vec::new(),
        departed: Vec::new(),
        last_switch_ms: 0.0,
        resolve_pending: false,
        report,
    });
    if let Some(first) = trace.events.first() {
        engine.schedule(SimTime::from_ms(first.at_ms), Ev::Trace(0));
    }
    let end = engine.run();
    let mut sim = engine.into_model();
    // Tail accounting past the last event, then close out live tenants.
    let horizon = end.as_ms() + options.tail_ms.max(0.0);
    sim.close_interval(horizon);
    while let Some(t) = sim.active.pop() {
        sim.finish_tenant(t);
    }
    let mut report = sim.report;
    report.horizon_ms = horizon;
    let (cache_hits, cache_misses, cache_evictions) = sim.cache.stats();
    (report.cache_hits, report.cache_misses) = (cache_hits, cache_misses);
    // Join order == tenant id order (names are assigned in join order by
    // the generator; for hand-written traces, join-time order).
    sim.departed.sort_by(|a, b| a.stats.name.cmp(&b.stats.name));
    let xs: Vec<f64> = sim.departed.iter().filter_map(|d| d.fairness_x).collect();
    report.jain_fairness = jain_index(&xs);
    report.tenants = sim.departed.into_iter().map(|d| d.stats).collect();
    if haxconn_telemetry::enabled() {
        use haxconn_telemetry as t;
        let ms = replay_started.elapsed().as_secs_f64() * 1e3;
        t::histogram_record("dynamic.replay_ms", ms);
        t::gauge_set("tenant.fairness", report.jain_fairness);
        t::span_event("dynamic", "arrival-replay", t::clock_ms() - ms, ms);
        t::counter_add("cache.hits", cache_hits);
        t::counter_add("cache.misses", cache_misses);
        t::counter_add("cache.evictions", cache_evictions);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use haxconn_soc::orin_agx;

    fn env() -> (Platform, ContentionModel) {
        let p = orin_agx();
        let cm = ContentionModel::calibrate(&p);
        (p, cm)
    }

    #[test]
    fn generator_is_deterministic_and_round_trips() {
        let a = ArrivalTrace::generate(7, 64, 3);
        let b = ArrivalTrace::generate(7, 64, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        assert!(a.validate().is_ok());
        let back = ArrivalTrace::from_json(&a.to_json()).expect("round trip");
        assert_eq!(a, back);
        // A different seed diverges.
        assert_ne!(a, ArrivalTrace::generate(8, 64, 3));
    }

    #[test]
    fn throttle_deprioritizes_best_effort_under_pressure() {
        let (p, cm) = env();
        // A latency-critical tenant with a deadline so tight that a
        // best-effort joiner landing on the GPU (the patched row under a
        // debounced policy) pushes its slack negative — the throttle
        // pass must move the best-effort co-runner off the GPU.
        let trace = ArrivalTrace {
            events: vec![
                ArrivalEvent {
                    at_ms: 0.0,
                    event: TenantEvent::Join {
                        tenant: TenantSpec {
                            name: "crit".into(),
                            model: "GoogleNet".into(),
                            groups: 4,
                            sla: SlaClass::LatencyCritical { deadline_ms: 2.0 },
                        },
                    },
                },
                ArrivalEvent {
                    at_ms: 10.0,
                    event: TenantEvent::Join {
                        tenant: TenantSpec {
                            name: "be".into(),
                            model: "DenseNet".into(),
                            groups: 4,
                            sla: SlaClass::BestEffort,
                        },
                    },
                },
                ArrivalEvent {
                    at_ms: 200.0,
                    event: TenantEvent::Leave { name: "be".into() },
                },
            ],
        };
        // A long debounce window keeps the solver out of the loop while
        // both tenants co-run, so only the throttle pass can react.
        let opts = ReplayOptions {
            policy: ResolvePolicy::Debounced { window_ms: 400.0 },
            validate: true,
            ..Default::default()
        };
        let r = replay(&p, &cm, &trace, &opts).expect("replay");
        assert_eq!(r.violations, 0, "{:?}", r.violation_samples);
        assert!(r.throttles > 0, "throttle pass never fired: {r:?}");
        let be = r
            .tenants
            .iter()
            .find(|t| t.name == "be")
            .expect("best-effort tenant accounted");
        assert!(
            be.throttled_ms > 0.0,
            "best-effort tenant was never throttled: {be:?}"
        );
        // The critical tenant is never throttled.
        let crit = r
            .tenants
            .iter()
            .find(|t| t.name == "crit")
            .expect("critical tenant accounted");
        assert_eq!(crit.throttled_ms, 0.0);
    }

    #[test]
    fn replay_is_byte_deterministic() {
        let (p, cm) = env();
        let trace = ArrivalTrace::generate(11, 60, 3);
        let opts = ReplayOptions {
            validate: true,
            ..Default::default()
        };
        let a = replay(&p, &cm, &trace, &opts).expect("replay");
        let b = replay(&p, &cm, &trace, &opts).expect("replay");
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.violations, 0, "{:?}", a.violation_samples);
        assert_eq!(a.events, 60);
        assert!(a.resolves > 0);
        assert!(a.jain_fairness > 0.0 && a.jain_fairness <= 1.0 + 1e-12);
    }

    #[test]
    fn policies_trade_solves_for_staleness() {
        let (p, cm) = env();
        let trace = ArrivalTrace::generate(3, 50, 3);
        let run = |policy| {
            let opts = ReplayOptions {
                policy,
                validate: true,
                ..Default::default()
            };
            replay(&p, &cm, &trace, &opts).expect("replay")
        };
        let immediate = run(ResolvePolicy::Immediate);
        let debounced = run(ResolvePolicy::Debounced { window_ms: 100.0 });
        let utility = run(ResolvePolicy::UtilityThreshold { min_gain: 0.5 });
        // Immediate solves at every membership change; debouncing batches
        // bursts, so it can only solve less often.
        assert!(immediate.resolves >= debounced.resolves);
        assert_eq!(immediate.resolve_skips, 0);
        assert!(debounced.resolve_skips > 0);
        // A high utility bar absorbs some changes without solving.
        assert!(utility.resolve_skips > 0);
        for r in [&immediate, &debounced, &utility] {
            assert_eq!(r.violations, 0, "{:?}", r.violation_samples);
        }
    }

    #[test]
    fn sla_attainment_and_p99_are_bounded() {
        let (p, cm) = env();
        let trace = ArrivalTrace::generate(19, 80, 4);
        let r = replay(&p, &cm, &trace, &ReplayOptions::default()).expect("replay");
        assert_eq!(r.tenants.len(), r.joins);
        for t in &r.tenants {
            assert!(t.frames >= 0.0);
            assert!(t.mean_latency_ms.is_finite());
            assert!(t.p99_latency_ms >= t.mean_latency_ms - 1e-9 || t.frames == 0.0);
            if let Some(att) = t.sla_attainment {
                assert!((0.0..=1.0 + 1e-12).contains(&att), "{att}");
            }
            assert!(t.throttled_ms <= t.active_ms + 1e-9);
        }
    }

    #[test]
    fn empty_trace_yields_empty_report() {
        let (p, cm) = env();
        let r =
            replay(&p, &cm, &ArrivalTrace::default(), &ReplayOptions::default()).expect("replay");
        assert_eq!(r.events, 0);
        assert_eq!(r.resolves, 0);
        assert!(r.tenants.is_empty());
        assert_eq!(r.jain_fairness, 1.0);
    }

    #[test]
    fn rejects_malformed_traces() {
        let mut trace = ArrivalTrace::generate(1, 4, 2);
        trace.events[2].at_ms = 0.0; // time goes backwards
        let (p, cm) = env();
        let err = replay(&p, &cm, &trace, &ReplayOptions::default()).unwrap_err();
        assert!(matches!(err, HaxError::InvalidConfig(_)), "{err}");
        assert!(ArrivalTrace::from_json("{\"events\": 3}").is_err());
    }
}
