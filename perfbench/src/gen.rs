//! Seeded input generators.
//!
//! Every input a workload sends is a pure function of `--seed`: the same
//! seed gives byte-identical catalogs, cold specs, batch candidates and
//! arrival traces (see the tests at the bottom). Each generator draws
//! from its own stream so that changing one never shifts another.

use haxconn::api::BatchRequest;
use haxconn::core::arrival::ArrivalTrace;
use haxconn::core::baselines::{Baseline, BaselineKind};
use haxconn::core::problem::Workload;
use haxconn::core::spec::WorkloadSpec;
use haxconn::dnn::Model;
use haxconn::soc::{Platform, PuId};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// The platforms every spec generator spreads over.
pub const PLATFORMS: [&str; 3] = ["orin", "xavier", "sd865"];

/// Specs in the `hot-hits` catalog: per platform, seven two-task specs
/// that use each of the fourteen zoo models once.
pub const CATALOG_SPECS: usize = 21;

/// DES iterations per batch candidate.
pub const BATCH_ITERATIONS: usize = 4;

/// Events per arrival trace.
pub const TRACE_EVENTS: usize = 1000;

/// Concurrently active tenants in an arrival trace.
pub const TRACE_TENANTS: usize = 3;

const STREAM_HOT: u64 = 1;
const STREAM_COLD: u64 = 2;
const STREAM_BATCH: u64 = 3;
const STREAM_TRACE: u64 = 4;
const STREAM_PICKS: u64 = 5;

/// xorshift64* seeded through splitmix64.
pub struct Rng(u64);

impl Rng {
    /// The generator for `stream` under `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(splitmix(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1)
    }

    /// The request-order stream of a workload (which catalog entry the
    /// next request picks).
    pub fn picks(seed: u64) -> Rng {
        Rng::new(seed, STREAM_PICKS)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipfian(s = 1) rank sampler: rank `r` drawn with probability ∝ 1/(r+1).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks.
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                acc += 1.0 / rank as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn pick(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

/// `k` distinct zoo models, in draw order.
fn distinct_models(rng: &mut Rng, k: usize) -> Vec<Model> {
    let mut pool: Vec<Model> = Model::all().to_vec();
    (0..k)
        .map(|_| pool.swap_remove(rng.below(pool.len())))
        .collect()
}

/// The `hot-hits` catalog, hottest zipf rank first: two-task specs where
/// every platform runs every zoo model exactly once. The seed decides the
/// pairing and the group counts, so the catalog's mix of small and large
/// networks is the same for every seed.
pub fn hot_catalog(seed: u64) -> Vec<WorkloadSpec> {
    let rng = &mut Rng::new(seed, STREAM_HOT);
    let mut specs = Vec::with_capacity(CATALOG_SPECS);
    for platform in PLATFORMS {
        let models = distinct_models(rng, Model::all().len());
        for pair in models.chunks(2) {
            let mut spec = WorkloadSpec::new(platform);
            for m in pair {
                spec = spec.task(m.name(), 3 + rng.below(2));
            }
            specs.push(spec);
        }
    }
    // Interleave platforms so zipf rank does not follow platform.
    rng.permutation(specs.len())
        .into_iter()
        .map(|i| specs[i].clone())
        .collect()
}

/// Decision variables (layer groups summed over tasks) a cold spec may
/// have. Exact solve time roughly doubles per variable beyond this (a
/// 12-variable spec can take 50 ms, a 20-variable one seconds on sd865),
/// and a heavier tail makes the p99 a lottery over which specs a seed
/// draws.
pub const COLD_MAX_VARS: usize = 10;

/// An endless stream of distinct `cold-solves` specs: 2 or 3 distinct zoo
/// models (even odds) of 3–7 groups each, at most [`COLD_MAX_VARS`]
/// groups in all, run concurrently or chained into a pipeline (even
/// odds), on a random platform. That is about 16 000 two-task and 52 000
/// three-task specs, so a run draws few repeats and never runs dry.
pub struct ColdSpecs {
    rng: Rng,
    /// Hashes of the canonical JSON of every spec handed out: a fixed
    /// size per spec, sized up front for a long run.
    seen: HashSet<u64>,
}

impl ColdSpecs {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> ColdSpecs {
        ColdSpecs {
            rng: Rng::new(seed, STREAM_COLD),
            seen: HashSet::with_capacity(1 << 15),
        }
    }
}

impl Iterator for ColdSpecs {
    type Item = WorkloadSpec;

    fn next(&mut self) -> Option<WorkloadSpec> {
        loop {
            let platform = PLATFORMS[self.rng.below(PLATFORMS.len())];
            let tasks = 2 + self.rng.below(2);
            let groups = loop {
                let g: Vec<usize> = (0..tasks).map(|_| 3 + self.rng.below(5)).collect();
                if g.iter().sum::<usize>() <= COLD_MAX_VARS {
                    break g;
                }
            };
            let chained = self.rng.below(2) == 1;
            let mut spec = WorkloadSpec::new(platform);
            for (m, g) in distinct_models(&mut self.rng, tasks)
                .into_iter()
                .zip(groups)
            {
                spec = spec.task(m.name(), g);
            }
            if chained {
                for t in 1..tasks {
                    spec = spec.dep(t - 1, t);
                }
            }
            let mut key = DefaultHasher::new();
            spec.to_json()
                .expect("a generated spec serializes")
                .hash(&mut key);
            if self.seen.insert(key.finish()) {
                return Some(spec);
            }
        }
    }
}

/// The batch request for catalog entry `index`: the HaX-CoNN assignment,
/// every baseline, then seeded random valid assignments up to
/// `candidates` (the `haxconn fleet` recipe).
pub fn batch_request(
    seed: u64,
    index: usize,
    spec: &WorkloadSpec,
    platform: &Platform,
    workload: &Workload,
    haxconn: &[Vec<PuId>],
    candidates: usize,
) -> BatchRequest {
    let mut rng = Rng::new(
        seed ^ (index as u64 + 1).wrapping_mul(0xA24B_AED4),
        STREAM_BATCH,
    );
    let mut pool = vec![haxconn.to_vec()];
    for &kind in BaselineKind::all() {
        pool.push(Baseline::assignment(kind, platform, workload));
    }
    pool.truncate(candidates);
    while pool.len() < candidates {
        let assignment = workload
            .tasks
            .iter()
            .map(|t| {
                t.profile
                    .groups
                    .iter()
                    .map(|g| {
                        let supported: Vec<PuId> = (0..platform.pus.len())
                            .filter(|&pu| g.cost[pu].is_some())
                            .collect();
                        supported[rng.below(supported.len())]
                    })
                    .collect()
            })
            .collect();
        pool.push(assignment);
    }
    BatchRequest {
        spec: spec.clone(),
        candidates: pool,
        iterations: Some(BATCH_ITERATIONS),
    }
}

/// Arrival trace number `round` of a run.
pub fn arrival_trace(seed: u64, round: u64, events: usize) -> ArrivalTrace {
    let trace_seed = Rng::new(
        seed ^ round.wrapping_mul(0xD6E8_FEB8_6659_FD93),
        STREAM_TRACE,
    )
    .next_u64();
    ArrivalTrace::generate(trace_seed, events, TRACE_TENANTS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use haxconn::core::engine::{Engine, EngineOptions};

    fn json(specs: &[WorkloadSpec]) -> String {
        specs
            .iter()
            .map(|s| s.to_json().unwrap())
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn batch_json(seed: u64) -> String {
        let engine = Engine::new(EngineOptions::default());
        hot_catalog(seed)
            .iter()
            .enumerate()
            .take(2)
            .map(|(i, spec)| {
                let (platform, workload) = spec.resolve().unwrap();
                let hax = engine.schedule(spec).unwrap().schedule().assignment.clone();
                let req = batch_request(seed, i, spec, &platform, &workload, &hax, 16);
                serde_json::to_string(&req).unwrap()
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for seed in [1u64, 7, 12345] {
            assert_eq!(json(&hot_catalog(seed)), json(&hot_catalog(seed)));
            let a: Vec<WorkloadSpec> = ColdSpecs::new(seed).take(200).collect();
            let b: Vec<WorkloadSpec> = ColdSpecs::new(seed).take(200).collect();
            assert_eq!(json(&a), json(&b));
            assert_eq!(
                arrival_trace(seed, 2, 300).to_json(),
                arrival_trace(seed, 2, 300).to_json()
            );
            assert_eq!(batch_json(seed), batch_json(seed));
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(json(&hot_catalog(1)), json(&hot_catalog(2)));
        let a: Vec<WorkloadSpec> = ColdSpecs::new(1).take(20).collect();
        let b: Vec<WorkloadSpec> = ColdSpecs::new(2).take(20).collect();
        assert_ne!(json(&a), json(&b));
        assert_ne!(
            arrival_trace(1, 0, 100).to_json(),
            arrival_trace(2, 0, 100).to_json()
        );
        assert_ne!(
            arrival_trace(1, 0, 100).to_json(),
            arrival_trace(1, 1, 100).to_json()
        );
    }

    #[test]
    fn generated_inputs_have_the_documented_shape() {
        let catalog = hot_catalog(3);
        assert_eq!(catalog.len(), CATALOG_SPECS);
        for p in PLATFORMS {
            let mut models: Vec<&str> = catalog
                .iter()
                .filter(|s| s.platform == p)
                .flat_map(|s| s.tasks.iter().map(|t| t.model.as_str()))
                .collect();
            models.sort_unstable();
            let mut zoo: Vec<&str> = Model::all().iter().map(|m| m.name()).collect();
            zoo.sort_unstable();
            assert_eq!(models, zoo, "{p} must run every zoo model once");
        }
        let mut keys = HashSet::new();
        for spec in ColdSpecs::new(3).take(500) {
            assert!((2..=3).contains(&spec.tasks.len()));
            assert!(spec.tasks.iter().all(|t| (3..=7).contains(&t.groups)));
            assert!(spec.tasks.iter().map(|t| t.groups).sum::<usize>() <= COLD_MAX_VARS);
            assert!(spec.deps.is_empty() || spec.deps.len() == spec.tasks.len() - 1);
            assert!(keys.insert(spec.cache_key().unwrap()), "cold specs repeat");
        }
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let zipf = Zipf::new(CATALOG_SPECS);
        let mut rng = Rng::new(9, 9);
        let mut counts = [0usize; CATALOG_SPECS];
        for _ in 0..20_000 {
            counts[zipf.pick(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[CATALOG_SPECS - 1]);
    }
}
