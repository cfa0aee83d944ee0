//! Schedule caching for CFG toggling (paper Section 3.5).
//!
//! "Some scenarios, such as a drone switching between *discovery* or
//! *tracking* modes, might require unique control flow graphs. Such CFGs
//! and their corresponding schedules can be predetermined statically and
//! toggled during the execution." — this module implements exactly that: a
//! bounded LRU of solved schedules, so that a previously optimized CFG
//! phase reuses its schedule instantly when the autonomous loop returns to
//! it, and only genuinely new phases are solved.
//!
//! There is one cache type, [`ShardedCache`], generic over its key:
//!
//! * the serving [`Engine`](crate::engine::Engine) keys it by the
//!   canonical-spec JSON ([`WorkloadSpec::cache_key`](crate::spec::WorkloadSpec::cache_key));
//! * the arrival replay and `haxconn dynamic --phases` key it by
//!   [`WorkloadSignature`], because a custom `Platform` value has no
//!   canonical spec.
//!
//! The cache is `&self` and thread-shareable: entries are split into
//! independently locked shards (the key hash picks the shard) and the
//! counters are relaxed atomics, so a hit takes one short shard lock and
//! disjoint keys on different shards never contend. The shard count
//! follows the capacity (one shard per 128 entries, at most 8), so a
//! small phase cache is a single shard with exact global LRU order.
//! Values are cloned out on hits, so they should be `Arc`s: a hit is a
//! pointer clone, never a deep copy.

use crate::problem::Workload;
use rustc_hash::{FxHashMap, FxHasher};
use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// A structural signature of a workload: model names, group structure,
/// dependencies and ties. Two workloads with equal signatures accept the
/// same schedules.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WorkloadSignature {
    tasks: Vec<(String, usize)>,
    deps: Vec<(usize, usize)>,
    ties: Vec<Option<usize>>,
    platform: String,
}

impl WorkloadSignature {
    /// Computes the signature of `workload` (profiled for `platform_name`).
    pub fn of(workload: &Workload) -> WorkloadSignature {
        WorkloadSignature {
            tasks: workload
                .tasks
                .iter()
                .map(|t| (t.profile.grouped.model.name().to_string(), t.num_groups()))
                .collect(),
            deps: workload.deps.iter().map(|d| (d.from, d.to)).collect(),
            ties: workload.ties.clone(),
            platform: workload
                .tasks
                .first()
                .map(|t| t.profile.platform_name.clone())
                .unwrap_or_default(),
        }
    }
}

/// Capacity of a CFG-phase cache: it bounds the memory of a run that
/// keeps meeting new phases, and an arrival replay does outgrow it. A
/// 1000-event 3-tenant orin trace meets 226–259 distinct tenant mixes,
/// and its hit ratio at this capacity is 0.43. At 512, replay throughput
/// rose ~50% (2-vCPU host), but the median solver span of the `arrivals`
/// benchmark rose ~53% (236 → 361 µs in a traced run): the extra hits
/// take the cheap small-mix solves out of that sample, not time out of
/// any solve.
pub const PHASE_CAPACITY: usize = 64;

/// Entries per shard before the cache splits into another shard.
const ENTRIES_PER_SHARD: usize = 128;

/// Most shards a cache is split into — enough to keep worker threads off
/// each other's locks without fragmenting the LRU meaningfully.
const MAX_SHARDS: usize = 8;

/// A cached value stamped with the shard's monotone access tick, which
/// implements least-recently-used ordering without any auxiliary list.
struct Entry<V> {
    value: V,
    last_used: u64,
}

struct Shard<K, V> {
    entries: FxHashMap<K, Entry<V>>,
    /// Most entries this shard holds.
    capacity: usize,
    /// Monotone per-shard access counter stamping LRU order.
    tick: u64,
}

/// A bounded, sharded LRU cache with relaxed atomic counters. See the
/// module docs.
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedCache<K, V> {
    /// A cache holding at most `capacity` entries in total (min 1). The
    /// capacity is split exactly across the shards.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = capacity.div_ceil(ENTRIES_PER_SHARD).min(MAX_SHARDS);
        ShardedCache {
            shards: (0..shards)
                .map(|i| {
                    Mutex::new(Shard {
                        entries: FxHashMap::default(),
                        capacity: capacity / shards + usize::from(i < capacity % shards),
                        tick: 0,
                    })
                })
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Most entries the cache holds.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| lock(s).capacity).sum()
    }

    fn shard_for<Q: Hash + ?Sized>(&self, key: &Q) -> MutexGuard<'_, Shard<K, V>> {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        lock(&self.shards[(h.finish() as usize) % self.shards.len()])
    }

    fn lookup<Q>(&self, key: &Q, count_miss: bool) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut shard = self.shard_for(key);
        shard.tick += 1;
        let tick = shard.tick;
        let Some(e) = shard.entries.get_mut(key) else {
            if count_miss {
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
            return None;
        };
        e.last_used = tick;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(e.value.clone())
    }

    /// Returns a clone of the cached value for `key`, if present.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.lookup(key, true)
    }

    /// Like [`get`](Self::get), but a miss counts *nothing*: the caller
    /// will fall through to the full lookup path, which does the miss
    /// accounting, so per-request hit/miss counters stay exactly-once.
    /// A hit still bumps the LRU stamp and the hit counters. This is
    /// the probe for opportunistic fast paths (the serve reactor
    /// answers cache hits inline and dispatches everything else).
    pub fn probe<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.lookup(key, false)
    }

    /// The cached value for `key` without touching the LRU stamp or any
    /// counter: for bookkeeping that reads an entry on behalf of a
    /// request already counted (the engine copies an entry to an alias
    /// key this way).
    pub fn peek<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.shard_for(key)
            .entries
            .get(key)
            .map(|e| e.value.clone())
    }

    /// Stores `value` under `key`, replacing any previous entry and
    /// evicting the shard's LRU entry if the shard is full. Shards are
    /// small, so a linear scan beats maintaining an intrusive list.
    pub fn insert(&self, key: K, value: V) {
        let mut shard = self.shard_for(&key);
        shard.tick += 1;
        let tick = shard.tick;
        if shard.entries.len() >= shard.capacity && !shard.entries.contains_key(&key) {
            let lru = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            if let Some(k) = lru {
                shard.entries.remove(&k);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.entries.insert(
            key,
            Entry {
                value,
                last_used: tick,
            },
        );
    }

    /// `(hits, misses, evictions)` counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }

    /// Number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).entries.len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic while holding a shard lock (allocation failure at worst —
    // the critical sections call no user code) only loses cache entries,
    // never corrupts them; serving must not stop.
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::DnnTask;
    use haxconn_dnn::Model;
    use haxconn_profiler::NetworkProfile;
    use haxconn_soc::orin_agx;
    use std::sync::Arc;

    fn workload(models: &[Model]) -> Workload {
        let p = orin_agx();
        Workload::concurrent(
            models
                .iter()
                .map(|&m| DnnTask::new(m.name(), NetworkProfile::profile(&p, m, 6)))
                .collect(),
        )
    }

    fn cache<V: Clone>(capacity: usize) -> ShardedCache<String, V> {
        ShardedCache::new(capacity)
    }

    #[test]
    fn signature_distinguishes_phases() {
        let a = WorkloadSignature::of(&workload(&[Model::GoogleNet, Model::ResNet18]));
        let b = WorkloadSignature::of(&workload(&[Model::GoogleNet, Model::ResNet50]));
        let a2 = WorkloadSignature::of(&workload(&[Model::GoogleNet, Model::ResNet18]));
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn signature_sees_deps_and_ties() {
        let base = workload(&[Model::GoogleNet, Model::GoogleNet]);
        let piped = workload(&[Model::GoogleNet, Model::GoogleNet]).with_dep(0, 1);
        let tied = workload(&[Model::GoogleNet, Model::GoogleNet]).with_tie(1, 0);
        let s0 = WorkloadSignature::of(&base);
        assert_ne!(s0, WorkloadSignature::of(&piped));
        assert_ne!(s0, WorkloadSignature::of(&tied));
    }

    #[test]
    fn signature_keys_round_trip_with_counters() {
        let c: ShardedCache<WorkloadSignature, Arc<u32>> = ShardedCache::new(PHASE_CAPACITY);
        let a = WorkloadSignature::of(&workload(&[Model::GoogleNet, Model::ResNet18]));
        let b = WorkloadSignature::of(&workload(&[Model::GoogleNet, Model::ResNet50]));
        assert!(c.get(&a).is_none());
        c.insert(a.clone(), Arc::new(1));
        assert!(c.get(&b).is_none());
        c.insert(b.clone(), Arc::new(2));
        assert_eq!((*c.get(&a).unwrap(), *c.get(&b).unwrap()), (1, 2));
        assert_eq!(c.stats(), (2, 2, 0));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn get_insert_round_trip_with_counters() {
        let c = cache(1024);
        assert!(c.get("a").is_none());
        c.insert("a".into(), Arc::new(7));
        assert_eq!(*c.get("a").unwrap(), 7);
        assert_eq!(c.stats(), (1, 1, 0));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn probe_counts_hits_but_not_misses() {
        let c = cache(16);
        assert!(c.probe("a").is_none());
        c.insert("a".into(), Arc::new(7));
        assert_eq!(*c.probe("a").unwrap(), 7);
        assert_eq!(c.stats(), (1, 0, 0));
    }

    #[test]
    fn peek_counts_nothing_and_leaves_lru_order() {
        let c = cache(2);
        assert!(c.peek("a").is_none());
        c.insert("a".into(), Arc::new(0));
        c.insert("b".into(), Arc::new(1));
        assert_eq!(*c.peek("a").unwrap(), 0); // a stays the LRU entry
        assert_eq!(c.stats(), (0, 0, 0));
        c.insert("c".into(), Arc::new(2));
        assert!(c.peek("a").is_none());
        assert!(c.peek("b").is_some());
    }

    #[test]
    fn lru_eviction_keeps_hot_entries() {
        let c = cache(2);
        c.insert("a".into(), Arc::new(0));
        c.insert("b".into(), Arc::new(1));
        assert!(c.get("a").is_some()); // touch a => b becomes LRU
        c.insert("c".into(), Arc::new(2));
        assert_eq!(c.len(), 2);
        assert!(c.get("b").is_none());
        assert!(c.get("a").is_some());
        assert!(c.get("c").is_some());
        assert_eq!(c.stats().2, 1);
    }

    #[test]
    fn reinsert_replaces_without_evicting() {
        let c = cache(1);
        c.insert("a".into(), Arc::new(0));
        c.insert("a".into(), Arc::new(1));
        assert_eq!((c.len(), c.stats().2), (1, 0));
        assert_eq!(*c.get("a").unwrap(), 1);
        c.insert("b".into(), Arc::new(2));
        assert_eq!((c.len(), c.stats().2), (1, 1));
    }

    #[test]
    fn never_holds_more_than_its_capacity() {
        for capacity in (1..=40).chain([127, 128, 129, 1000, 1024, 1025]) {
            let c = cache(capacity);
            assert_eq!(c.capacity(), capacity);
            for k in 0..(200).max(3 * capacity) {
                c.insert(k.to_string(), Arc::new(k));
                assert!(c.len() <= capacity, "capacity {capacity}: {} held", c.len());
            }
            assert_eq!(
                c.len(),
                capacity,
                "capacity {capacity}: shards left unfilled"
            );
        }
    }

    #[test]
    fn shard_count_follows_capacity() {
        let shards = |capacity| cache::<u32>(capacity).shards.len();
        assert_eq!(shards(PHASE_CAPACITY), 1);
        assert_eq!(shards(ENTRIES_PER_SHARD), 1);
        assert_eq!(shards(ENTRIES_PER_SHARD + 1), 2);
        assert_eq!(shards(1024), MAX_SHARDS);
        assert_eq!(shards(1 << 20), MAX_SHARDS);
    }

    #[test]
    fn shared_across_threads() {
        let c = Arc::new(cache::<Arc<u64>>(512));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..16u64 {
                    c.insert(format!("k{}", (t * 16 + i) % 32), Arc::new(i));
                    let _ = c.get(format!("k{}", i % 32).as_str());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.len() <= 32);
        let (h, m, _) = c.stats();
        assert_eq!(h + m, 64);
    }
}
