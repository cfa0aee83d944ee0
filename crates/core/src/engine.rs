//! The thread-shareable scheduling engine behind `haxconn serve`.
//!
//! [`Engine`] wraps the solver behind one `&self` entry point,
//! [`Engine::schedule`], safe to call from any number of threads at
//! once. Production concerns live here, not in the HTTP layer, so every
//! front end (server, CLI, `Session`) gets the same behavior:
//!
//! * **Schedule cache** — solved schedules are cached in the crate's one
//!   LRU, a [`ShardedCache`] keyed by the canonical-spec JSON
//!   ([`WorkloadSpec::cache_key`]); a hit is lock-shard + `Arc` clone.
//!   The default 1024 entries split into 8 shards of 128. Each entry
//!   also keeps its rendered hit response, built once on first use
//!   ([`Engine::cached_response`]), and a verbatim request body may be
//!   stored as an *alias* of its canonical key ([`Engine::alias`]), so
//!   a repeat request is one probe by its raw bytes. Every string in
//!   the cache maps to `schedule(canonicalize(parse(s)))`, and a
//!   canonical key canonicalizes to itself, so keys and bodies share
//!   one key space without conflict.
//! * **Request coalescing** — identical specs solving concurrently are
//!   computed once: the first caller leads the solve, the rest wait on
//!   a condvar and share the leader's `Arc`'d result. The
//!   `duplicate_inflight_solves` counter *measures* (not assumes) that
//!   no two solves for one key ever overlap.
//! * **Admission control** — at most
//!   [`EngineOptions::max_concurrent_solves`] solves run at once;
//!   up to [`EngineOptions::max_pending_solves`] callers queue behind
//!   them (backpressure), and beyond that the engine refuses work.
//! * **Graceful degradation** — refused work returns the cheap
//!   never-absurd [`HaxConn::best_baseline`] schedule (marked
//!   `degraded`) instead of an error, unless
//!   [`EngineOptions::degrade_on_overload`] is off, in which case it is
//!   a typed [`HaxError::Overloaded`].
//!
//! Solves are deterministic, so a cached, coalesced, or freshly solved
//! response for the same canonical spec is bit-identical — the serving
//! bench machine-checks this against a local `Session::schedule`.

use crate::cache::ShardedCache;
use crate::error::{parse_platform, HaxError};
use crate::scheduler::{HaxConn, Schedule, Transition};
use crate::spec::WorkloadSpec;
use haxconn_contention::ContentionModel;
use haxconn_soc::Platform;
use rustc_hash::{FxHashMap, FxHashSet};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Engine state stays consistent across a panicking solver thread
    // (counters and maps are updated atomically under short critical
    // sections that call no user code), so serving continues.
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A solved cache entry: the schedule plus everything a response needs
/// that would otherwise require re-profiling the workload (transitions
/// carry profile-derived layer ids). Computed once at insert so cache
/// hits never touch the profiler.
#[derive(Debug, Clone)]
pub struct SolvedEntry {
    /// The solved (or baseline-fallback) schedule.
    pub schedule: Schedule,
    /// Its inter-accelerator transitions, precomputed.
    pub transitions: Vec<Transition>,
}

/// A verbatim spelling is aliased only while it is at most this many
/// times as long as its canonical key, which bounds the key memory an
/// alias adds to its entry.
const MAX_ALIAS_RATIO: usize = 2;

/// What one cache entry holds: the solved entry, plus its cache-hit
/// response body, rendered on the first [`Engine::cached_response`]
/// and shared by the canonical key and every alias of it.
struct CacheSlot {
    entry: Arc<SolvedEntry>,
    hit_body: OnceLock<Arc<str>>,
}

impl CacheSlot {
    fn new(entry: Arc<SolvedEntry>) -> Arc<CacheSlot> {
        Arc::new(CacheSlot {
            entry,
            hit_body: OnceLock::new(),
        })
    }

    /// The provenance every cache hit reports.
    fn hit(&self) -> EngineSchedule {
        EngineSchedule {
            entry: Arc::clone(&self.entry),
            cached: true,
            coalesced: false,
            degraded: false,
        }
    }
}

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Schedule-cache capacity; the shard count follows from it.
    pub cache_capacity: usize,
    /// Concurrent solve limit (`None` = unlimited; `Some(0)` = never
    /// solve, always degrade/reject — useful as a cached-only mode).
    pub max_concurrent_solves: Option<usize>,
    /// Callers allowed to queue when all solve slots are busy; beyond
    /// this, admission fails.
    pub max_pending_solves: usize,
    /// When admission fails, serve [`HaxConn::best_baseline`] (marked
    /// degraded) instead of returning [`HaxError::Overloaded`].
    pub degrade_on_overload: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            cache_capacity: 1024,
            max_concurrent_solves: None,
            max_pending_solves: 64,
            degrade_on_overload: true,
        }
    }
}

/// The result of [`Engine::schedule`]: the schedule plus how it was
/// obtained, so callers (and wire responses) can report cache/coalesce/
/// degrade provenance honestly.
#[derive(Debug, Clone)]
pub struct EngineSchedule {
    /// The solved entry (shared, never deep-copied).
    pub entry: Arc<SolvedEntry>,
    /// Served from the schedule cache.
    pub cached: bool,
    /// Waited on another caller's identical in-flight solve.
    pub coalesced: bool,
    /// Baseline fallback served under overload (not cached).
    pub degraded: bool,
}

impl EngineSchedule {
    /// The schedule itself.
    pub fn schedule(&self) -> &Schedule {
        &self.entry.schedule
    }
}

/// A point-in-time copy of the engine's counters (serializable — this
/// is what `/v1/health` reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStatsSnapshot {
    /// Schedule requests received: every request is exactly one cache
    /// hit or one cache miss, so this is `cache_hits + cache_misses`.
    pub requests: u64,
    /// Requests served from the sharded cache.
    pub cache_hits: u64,
    /// Cache probes that missed.
    pub cache_misses: u64,
    /// Cache entries evicted (LRU).
    pub cache_evictions: u64,
    /// Full solver runs performed.
    pub solves: u64,
    /// Requests that joined an identical in-flight solve.
    pub coalesced: u64,
    /// Requests answered with the degraded baseline under overload.
    pub degraded: u64,
    /// Requests refused outright (degradation disabled).
    pub rejected: u64,
    /// Solves that started while another solve for the same key was
    /// already running. Coalescing guarantees this stays 0; the counter
    /// measures the guarantee instead of assuming it.
    pub duplicate_inflight_solves: u64,
}

/// A platform model plus its calibrated contention model, cached per
/// platform slug (calibration is the expensive part).
#[derive(Debug, Clone)]
pub struct PlatformCtx {
    /// The platform model.
    pub platform: Platform,
    /// The calibrated shared-memory contention model.
    pub contention: ContentionModel,
}

/// What an in-flight solve resolves to: the solved entry plus whether
/// it was a fresh solve (false once served from cache by the leader).
type InflightOutcome = Result<(Arc<SolvedEntry>, bool), HaxError>;

/// One in-flight solve: waiters block on the condvar until the leader
/// publishes the shared outcome.
struct Inflight {
    result: Mutex<Option<InflightOutcome>>,
    cv: Condvar,
}

impl Inflight {
    fn new() -> Self {
        Inflight {
            result: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn publish(&self, outcome: InflightOutcome) {
        *lock(&self.result) = Some(outcome);
        self.cv.notify_all();
    }

    fn wait(&self) -> InflightOutcome {
        let mut guard = lock(&self.result);
        loop {
            if let Some(outcome) = guard.as_ref() {
                return outcome.clone();
            }
            guard = self
                .cv
                .wait(guard)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// Counting semaphore with a bounded wait queue — the solver pool's
/// admission controller.
struct SolveGate {
    max_active: Option<usize>,
    max_pending: usize,
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    active: usize,
    pending: usize,
}

/// RAII solve slot; dropping releases the slot and wakes one queued
/// caller.
struct SolveTicket<'a> {
    gate: &'a SolveGate,
}

impl Drop for SolveTicket<'_> {
    fn drop(&mut self) {
        let mut s = lock(&self.gate.state);
        s.active = s.active.saturating_sub(1);
        self.gate.cv.notify_one();
    }
}

enum Admission<'a> {
    Admitted(SolveTicket<'a>),
    Rejected { active: usize, pending: usize },
}

impl SolveGate {
    fn new(max_active: Option<usize>, max_pending: usize) -> Self {
        SolveGate {
            max_active,
            max_pending,
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
        }
    }

    fn admit(&self) -> Admission<'_> {
        let mut s = lock(&self.state);
        let max = match self.max_active {
            None => {
                s.active += 1;
                return Admission::Admitted(SolveTicket { gate: self });
            }
            // A zero-slot pool can never drain its queue: reject
            // immediately rather than queue forever.
            Some(0) => {
                return Admission::Rejected {
                    active: s.active,
                    pending: s.pending,
                }
            }
            Some(max) => max,
        };
        if s.active < max {
            s.active += 1;
            return Admission::Admitted(SolveTicket { gate: self });
        }
        if s.pending >= self.max_pending {
            return Admission::Rejected {
                active: s.active,
                pending: s.pending,
            };
        }
        s.pending += 1;
        while s.active >= max {
            s = self
                .cv
                .wait(s)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        s.pending -= 1;
        s.active += 1;
        Admission::Admitted(SolveTicket { gate: self })
    }
}

/// The thread-shareable scheduling engine. See the module docs for the
/// cache / coalescing / admission / degradation design.
pub struct Engine {
    cache: ShardedCache<String, Arc<CacheSlot>>,
    inflight: Mutex<FxHashMap<String, Arc<Inflight>>>,
    /// Keys with a solver run currently executing — the measurement
    /// behind `duplicate_inflight_solves`.
    solving: Mutex<FxHashSet<String>>,
    gate: SolveGate,
    degrade_on_overload: bool,
    contexts: Mutex<FxHashMap<&'static str, Arc<PlatformCtx>>>,
    solves: AtomicU64,
    coalesced: AtomicU64,
    degraded: AtomicU64,
    rejected: AtomicU64,
    duplicates: AtomicU64,
}

impl Engine {
    /// An engine with the given options.
    pub fn new(options: EngineOptions) -> Self {
        Engine {
            cache: ShardedCache::new(options.cache_capacity),
            inflight: Mutex::new(FxHashMap::default()),
            solving: Mutex::new(FxHashSet::default()),
            gate: SolveGate::new(options.max_concurrent_solves, options.max_pending_solves),
            degrade_on_overload: options.degrade_on_overload,
            contexts: Mutex::new(FxHashMap::default()),
            solves: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
        }
    }

    /// The cached platform + calibrated contention model for a platform
    /// name (any accepted alias). Calibration runs at most once per
    /// platform per engine.
    pub fn context(&self, platform: &str) -> Result<Arc<PlatformCtx>, HaxError> {
        let slug = parse_platform(platform)?.slug();
        if let Some(ctx) = lock(&self.contexts).get(slug) {
            return Ok(Arc::clone(ctx));
        }
        // Build outside the lock; racing builders construct identical
        // values and the first insert wins.
        let p = parse_platform(slug)?.platform();
        let contention = ContentionModel::calibrate(&p);
        let ctx = Arc::new(PlatformCtx {
            platform: p,
            contention,
        });
        let mut map = lock(&self.contexts);
        Ok(Arc::clone(map.entry(slug).or_insert(ctx)))
    }

    /// Schedules `spec`: cache hit, coalesced wait, fresh solve, or
    /// degraded baseline — in that order of preference.
    pub fn schedule(&self, spec: &WorkloadSpec) -> Result<EngineSchedule, HaxError> {
        let canonical = spec.canonicalize()?;
        let key = canonical.to_json()?;
        self.schedule_canonical(key, &canonical)
    }

    /// An opportunistic cache-only lookup: returns the schedule if it
    /// is already cached, `None` otherwise — never solves, never
    /// blocks on the admission gate, O(one shard lock). A hit counts a
    /// request + cache hit exactly as [`schedule_canonical`] would; a
    /// miss counts nothing, so a caller falling through to
    /// [`schedule_canonical`] keeps every counter exactly-once. The
    /// serve reactor answers hits with [`Engine::cached_response`],
    /// which probes the same way.
    ///
    /// [`schedule_canonical`]: Engine::schedule_canonical
    pub fn schedule_cached(&self, key: &str) -> Option<EngineSchedule> {
        self.cache.probe(key).map(|slot| slot.hit())
    }

    /// [`schedule_cached`] answering with bytes: the entry's cache-hit
    /// response body, which `render` builds from the hit on the first
    /// call for an entry and the entry keeps from then on. `key` is a
    /// canonical key or an [alias](Engine::alias). The engine does not
    /// know the wire format, so the caller supplies `render`; an `Err`
    /// from it is returned and nothing is kept. (Threads racing on an
    /// entry's first hit may each render; the first body is kept, and
    /// solves are deterministic, so the bodies agree.) Counts exactly as
    /// [`schedule_cached`] does: a hit is a request and a cache hit, a
    /// miss counts nothing.
    ///
    /// [`schedule_cached`]: Engine::schedule_cached
    pub fn cached_response<E>(
        &self,
        key: &str,
        render: impl FnOnce(&EngineSchedule) -> Result<String, E>,
    ) -> Option<Result<Arc<str>, E>> {
        let slot = self.cache.probe(key)?;
        if let Some(body) = slot.hit_body.get() {
            return Some(Ok(Arc::clone(body)));
        }
        Some(render(&slot.hit()).map(|body| Arc::clone(slot.hit_body.get_or_init(|| body.into()))))
    }

    /// Stores `body`, a verbatim request spelling whose canonical key
    /// is `key`, as an alias of the entry cached under `key`, so
    /// [`cached_response`](Engine::cached_response) answers `body`
    /// itself. The alias is a cache entry of its own: it counts toward
    /// the capacity, is evicted by the same LRU, and outlives the
    /// canonical entry if that is evicted first. Returns whether the
    /// alias was stored; it is not when `key` is not cached, `body` is
    /// `key` itself, or `body` is more than twice as long as `key`.
    /// Counts nothing.
    pub fn alias(&self, body: &str, key: &str) -> bool {
        if body == key || body.len() > MAX_ALIAS_RATIO * key.len() {
            return false;
        }
        let Some(slot) = self.cache.peek(key) else {
            return false;
        };
        self.cache.insert(body.to_string(), slot);
        true
    }

    /// [`Engine::schedule`] for a spec the caller has already
    /// canonicalized (with `key` its canonical JSON) — the hot path for
    /// servers that parse and canonicalize once per request.
    pub fn schedule_canonical(
        &self,
        key: String,
        canonical: &WorkloadSpec,
    ) -> Result<EngineSchedule, HaxError> {
        if let Some(slot) = self.cache.get(&key) {
            return Ok(slot.hit());
        }
        // Join an identical in-flight solve, or become its leader.
        let waiter = {
            let mut map = lock(&self.inflight);
            match map.get(&key) {
                Some(f) => Some(Arc::clone(f)),
                None => {
                    map.insert(key.clone(), Arc::new(Inflight::new()));
                    None
                }
            }
        };
        if let Some(f) = waiter {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            let (entry, degraded) = f.wait()?;
            return Ok(EngineSchedule {
                entry,
                cached: false,
                coalesced: true,
                degraded,
            });
        }
        // Leader. The guard guarantees waiters are always released,
        // even if the solver panics.
        struct LeaderGuard<'a> {
            engine: &'a Engine,
            key: &'a str,
            published: bool,
        }
        impl LeaderGuard<'_> {
            fn publish(&mut self, outcome: InflightOutcome) {
                let inflight = lock(&self.engine.inflight).remove(self.key);
                if let Some(f) = inflight {
                    f.publish(outcome);
                }
                self.published = true;
            }
        }
        impl Drop for LeaderGuard<'_> {
            fn drop(&mut self) {
                if !self.published {
                    self.publish(Err(HaxError::ScheduleInvariant(
                        "solve aborted (leader panicked)".into(),
                    )));
                }
            }
        }
        let mut guard = LeaderGuard {
            engine: self,
            key: &key,
            published: false,
        };
        let outcome = self.lead_solve(&key, canonical);
        // Cache before unpublishing the in-flight entry so a request
        // arriving in between finds one of the two (a gap here would
        // show up as a duplicate solve in the telemetry the bench
        // gates on). Degraded results are deliberately not cached: the
        // next uncontended request should get the real optimum.
        if let Ok((entry, degraded)) = &outcome {
            if !degraded {
                self.cache
                    .insert(key.clone(), CacheSlot::new(Arc::clone(entry)));
            }
        }
        guard.publish(outcome.clone());
        let (entry, degraded) = outcome?;
        Ok(EngineSchedule {
            entry,
            cached: false,
            coalesced: false,
            degraded,
        })
    }

    /// Admission + solve (or degraded baseline) for the coalescing
    /// leader.
    fn lead_solve(&self, key: &str, canonical: &WorkloadSpec) -> InflightOutcome {
        match self.gate.admit() {
            Admission::Admitted(_ticket) => {
                let entry = self.solve_now(key, canonical)?;
                Ok((entry, false))
            }
            Admission::Rejected { active, pending } => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                if !self.degrade_on_overload {
                    return Err(HaxError::Overloaded(format!(
                        "solver pool saturated ({active} solving, {pending} queued)"
                    )));
                }
                self.degraded.fetch_add(1, Ordering::Relaxed);
                let ctx = self.context(&canonical.platform)?;
                let (_, workload) = canonical.resolve()?;
                let schedule = HaxConn::best_baseline(
                    &ctx.platform,
                    &workload,
                    &ctx.contention,
                    canonical.effective_config(),
                )?;
                let transitions = schedule.transitions(&workload);
                Ok((
                    Arc::new(SolvedEntry {
                        schedule,
                        transitions,
                    }),
                    true,
                ))
            }
        }
    }

    /// One full solver run, bracketed by the duplicate-solve detector.
    fn solve_now(&self, key: &str, canonical: &WorkloadSpec) -> Result<Arc<SolvedEntry>, HaxError> {
        let ctx = self.context(&canonical.platform)?;
        let (_, workload) = canonical.resolve()?;
        if !lock(&self.solving).insert(key.to_string()) {
            self.duplicates.fetch_add(1, Ordering::Relaxed);
        }
        let result = HaxConn::try_schedule(
            &ctx.platform,
            &workload,
            &ctx.contention,
            canonical.effective_config(),
        );
        lock(&self.solving).remove(key);
        self.solves.fetch_add(1, Ordering::Relaxed);
        let schedule = result?;
        let transitions = schedule.transitions(&workload);
        Ok(Arc::new(SolvedEntry {
            schedule,
            transitions,
        }))
    }

    /// Point-in-time counter snapshot.
    pub fn stats(&self) -> EngineStatsSnapshot {
        let (cache_hits, cache_misses, cache_evictions) = self.cache.stats();
        EngineStatsSnapshot {
            requests: cache_hits + cache_misses,
            cache_hits,
            cache_misses,
            cache_evictions,
            solves: self.solves.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            duplicate_inflight_solves: self.duplicates.load(Ordering::Relaxed),
        }
    }

    /// Number of cache entries, aliases included.
    pub fn cached_schedules(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::ScheduleOrigin;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::new("orin")
            .task("googlenet", 5)
            .task("resnet18", 5)
    }

    #[test]
    fn cache_hit_serves_the_same_arc() {
        let engine = Engine::new(EngineOptions::default());
        let first = engine.schedule(&spec()).unwrap();
        assert!(!first.cached);
        let second = engine.schedule(&spec()).unwrap();
        assert!(second.cached);
        assert!(Arc::ptr_eq(&first.entry, &second.entry));
        let stats = engine.stats();
        assert_eq!(stats.solves, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.duplicate_inflight_solves, 0);
    }

    #[test]
    fn aliases_share_one_cache_entry() {
        let engine = Engine::new(EngineOptions::default());
        engine.schedule(&spec()).unwrap();
        let alias = WorkloadSpec::new("Orin-AGX")
            .task("GoogLeNet", 5)
            .task("ResNet18", 5);
        assert!(engine.schedule(&alias).unwrap().cached);
        assert_eq!(engine.stats().solves, 1);
    }

    #[test]
    fn cached_response_renders_once_per_entry_and_counts_like_a_probe() {
        let engine = Engine::new(EngineOptions::default());
        let key = spec().cache_key().unwrap();
        let renders = std::cell::Cell::new(0);
        let render = |out: &EngineSchedule| {
            renders.set(renders.get() + 1);
            assert!(out.cached && !out.coalesced && !out.degraded);
            Ok::<_, ()>(format!("{}", out.schedule().cost.to_bits()))
        };
        assert!(engine.cached_response(&key, render).is_none());
        assert_eq!(
            engine.stats(),
            EngineStatsSnapshot::default(),
            "a miss counts nothing"
        );
        let solved = engine.schedule(&spec()).unwrap();
        let first = engine.cached_response(&key, render).unwrap().unwrap();
        let again = engine.cached_response(&key, render).unwrap().unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(&*first, solved.schedule().cost.to_bits().to_string());
        assert_eq!(renders.get(), 1);
        // A failed render keeps nothing: the next probe renders again.
        let other = WorkloadSpec::new("orin").task("resnet18", 3);
        engine.schedule(&other).unwrap();
        let other_key = other.cache_key().unwrap();
        assert_eq!(engine.cached_response(&other_key, |_| Err(7)), Some(Err(7)));
        assert!(engine.cached_response(&other_key, render).unwrap().is_ok());
        assert_eq!(renders.get(), 2);
        let stats = engine.stats();
        assert_eq!(
            (stats.requests, stats.cache_hits, stats.cache_misses),
            (6, 4, 2)
        );
        assert_eq!(stats.cache_hits + stats.cache_misses, stats.requests);
    }

    #[test]
    fn aliases_fill_the_capacity_and_outlive_their_key() {
        let engine = Engine::new(EngineOptions {
            cache_capacity: 2,
            ..Default::default()
        });
        let render = |out: &EngineSchedule| Ok::<_, ()>(format!("{:?}", out.schedule().assignment));
        let key = spec().cache_key().unwrap();
        let body = spec().to_json().unwrap();
        assert_ne!(body, key, "the test spelling must not be canonical");
        assert!(
            !engine.alias(&body, &key),
            "nothing to alias before the solve"
        );
        let solved = engine.schedule(&spec()).unwrap();
        assert!(!engine.alias(&key, &key), "a key is not its own alias");
        assert!(engine.alias(&body, &key));
        assert_eq!(engine.cached_schedules(), 2);
        let via_alias = engine.cached_response(&body, render).unwrap().unwrap();
        let via_key = engine.cached_response(&key, render).unwrap().unwrap();
        assert!(
            Arc::ptr_eq(&via_alias, &via_key),
            "one rendered body per entry"
        );
        // Touch the alias so the canonical key is the LRU entry, then
        // solve another spec: the key is evicted, the alias serves on.
        assert!(engine.cached_response(&body, render).is_some());
        let other = WorkloadSpec::new("orin").task("resnet18", 3);
        engine.schedule(&other).unwrap();
        assert_eq!(engine.cached_schedules(), 2);
        assert!(engine.schedule_cached(&key).is_none());
        let hit = engine
            .schedule_cached(&body)
            .expect("the alias outlives its key");
        assert!(Arc::ptr_eq(&hit.entry, &solved.entry));
        assert_eq!(engine.cached_response(&body, render), Some(Ok(via_alias)));
        // Filling the cache with aliases never exceeds its capacity.
        for groups in 1..=4 {
            let s = WorkloadSpec::new("orin").task("GoogLeNet", groups);
            engine.schedule(&s).unwrap();
            engine.alias(&s.to_json().unwrap(), &s.cache_key().unwrap());
            assert!(engine.cached_schedules() <= engine.cache.capacity());
        }
    }

    #[test]
    fn long_spellings_are_not_aliased() {
        let engine = Engine::new(EngineOptions::default());
        let key = spec().cache_key().unwrap();
        engine.schedule(&spec()).unwrap();
        let padded = format!("{key}{}", " ".repeat(key.len() + 1));
        assert!(!engine.alias(&padded, &key));
        let at_limit = format!("{key}{}", " ".repeat(key.len()));
        assert!(engine.alias(&at_limit, &key));
        assert_eq!(engine.cached_schedules(), 2);
    }

    #[test]
    fn concurrent_identical_requests_solve_once() {
        let engine = Arc::new(Engine::new(EngineOptions::default()));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let engine = Arc::clone(&engine);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                engine.schedule(&spec()).unwrap()
            }));
        }
        let results: Vec<EngineSchedule> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let stats = engine.stats();
        assert_eq!(
            stats.solves, 1,
            "identical concurrent requests must coalesce"
        );
        assert_eq!(stats.duplicate_inflight_solves, 0);
        let bits = results[0].schedule().cost.to_bits();
        for r in &results {
            assert_eq!(r.schedule().cost.to_bits(), bits);
            assert!(!r.degraded);
        }
    }

    #[test]
    fn zero_slot_engine_degrades_to_baseline() {
        let engine = Engine::new(EngineOptions {
            max_concurrent_solves: Some(0),
            max_pending_solves: 0,
            ..Default::default()
        });
        let out = engine.schedule(&spec()).unwrap();
        assert!(out.degraded);
        assert!(matches!(out.schedule().origin, ScheduleOrigin::Fallback(_)));
        // Degraded responses are not cached: the next request tries
        // (and here fails admission) again.
        let again = engine.schedule(&spec()).unwrap();
        assert!(again.degraded && !again.cached);
        let stats = engine.stats();
        assert_eq!(stats.solves, 0);
        assert_eq!(stats.degraded, 2);
    }

    #[test]
    fn zero_slot_engine_rejects_when_degradation_is_off() {
        let engine = Engine::new(EngineOptions {
            max_concurrent_solves: Some(0),
            max_pending_solves: 0,
            degrade_on_overload: false,
            ..Default::default()
        });
        let err = engine.schedule(&spec()).unwrap_err();
        assert!(matches!(err, HaxError::Overloaded(_)), "{err}");
        assert_eq!(engine.stats().rejected, 1);
    }

    #[test]
    fn engine_matches_direct_haxconn_bit_for_bit() {
        let engine = Engine::new(EngineOptions::default());
        let out = engine.schedule(&spec()).unwrap();
        let (_, workload) = spec().resolve().unwrap();
        let ctx = engine.context("orin").unwrap();
        let direct = HaxConn::try_schedule(
            &ctx.platform,
            &workload,
            &ctx.contention,
            SchedulerConfig::default(),
        )
        .unwrap();
        assert_eq!(out.schedule().cost.to_bits(), direct.cost.to_bits());
        assert_eq!(out.schedule().assignment, direct.assignment);
    }

    use crate::problem::SchedulerConfig;

    #[test]
    fn gate_queues_then_rejects() {
        let gate = Arc::new(SolveGate::new(Some(1), 1));
        let t1 = match gate.admit() {
            Admission::Admitted(t) => t,
            Admission::Rejected { .. } => panic!("first slot must admit"),
        };
        // Slot busy, queue empty: a queued caller on another thread
        // blocks until t1 drops.
        let g2 = Arc::clone(&gate);
        let waiter = std::thread::spawn(move || match g2.admit() {
            Admission::Admitted(_t) => true,
            Admission::Rejected { .. } => false,
        });
        // Give the waiter time to enqueue, then overflow the queue.
        while lock(&gate.state).pending == 0 {
            std::thread::yield_now();
        }
        assert!(matches!(gate.admit(), Admission::Rejected { .. }));
        drop(t1);
        assert!(waiter.join().unwrap(), "queued caller must be admitted");
    }
}
