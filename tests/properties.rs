//! Property-style tests on cross-crate invariants.
//!
//! Previously written with `proptest`; the offline build environment
//! cannot fetch external crates (README § Offline builds), so the same
//! properties are now exercised with a deterministic xorshift sampler —
//! every run checks the same pseudo-random cases, which also makes
//! failures trivially reproducible.

use haxconn::prelude::*;
use haxconn::soc::{replay, DesWork, LayerCost, WorkItem};

/// Deterministic xorshift64* generator for property sampling.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[lo, hi)`.
    fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    /// Uniform in `[lo, hi)`.
    fn usize(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo)
    }

    fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

fn make_item(platform: &Platform, rng: &mut Rng) -> WorkItem {
    let pu = rng.usize(0, 2);
    let time = rng.f64(0.05, 5.0);
    let demand = rng.f64(1.0, 140.0).min(platform.pu(pu).max_bw_gbps);
    let bytes = demand * time * 1e6;
    let cost = if rng.bool() {
        LayerCost::pure_memory(time, bytes)
    } else {
        LayerCost {
            time_ms: time,
            compute_ms: time * 0.95,
            mem_ms: time * 0.4,
            bytes,
            demand_gbps: demand,
            mem_bound_ms: 0.0,
            hidden_compute_ms: time * 0.95,
            hidden_mem_ms: time * 0.4,
        }
    };
    WorkItem { pu, cost }
}

/// Contention-replay sanity for arbitrary chain sets: makespan bounds, work
/// conservation, slowdowns of at least 1, EMC within capacity.
#[test]
fn simulator_invariants() {
    let platform = orin_agx();
    for case in 0..48u64 {
        let mut rng = Rng::new(case);
        let mut work = DesWork::new();
        for _ in 0..rng.usize(1, 4) {
            let len = rng.usize(1, 5);
            work.push_chain((0..len).map(|_| make_item(&platform, &mut rng)));
        }
        let chain_ms = |t: usize| work.items_of(t).iter().map(|i| i.cost.time_ms).sum::<f64>();
        let total_standalone: f64 = (0..work.num_tasks()).map(chain_ms).sum();
        let longest_chain: f64 = (0..work.num_tasks()).map(chain_ms).fold(0.0, f64::max);

        let r = replay(&platform, &work, 1);

        // Makespan at least the longest chain, at most everything
        // serialized with the worst-case contention stretch.
        assert!(r.makespan_ms >= longest_chain - 1e-9, "case {case}");
        assert!(
            r.makespan_ms <= total_standalone * 10.0 + 1e-9,
            "case {case}"
        );
        // Every item ran once; slowdowns never below 1 (within float
        // noise).
        assert_eq!(r.records.len(), work.total_items(), "case {case}");
        for rec in &r.records {
            let slowdown = rec.slowdown(&work.item(rec).cost);
            assert!(slowdown >= 1.0 - 1e-6, "case {case}: slowdown {slowdown}");
            assert!(rec.end_ms >= rec.start_ms, "case {case}");
        }
        // EMC peak bounded by achievable capacity.
        assert!(
            r.emc_peak_gbps <= platform.emc.capacity() + 1e-6,
            "case {case}"
        );
        // Busy time per PU never exceeds the makespan.
        for b in &r.pu_busy_ms {
            assert!(*b <= r.makespan_ms + 1e-9, "case {case}");
        }
    }
}

/// The EMC grant function: grants never exceed demands, never exceed
/// capacity in aggregate, and shrink (weakly) as external traffic grows.
#[test]
fn emc_grant_invariants() {
    let platform = orin_agx();
    let mut rng = Rng::new(7);
    for case in 0..200 {
        let own = rng.f64(0.5, 160.0);
        let ext = rng.f64(0.0, 250.0);
        let g = platform.emc.grant(&[own, ext]);
        assert!(g[0] <= own + 1e-9, "case {case}");
        assert!(g[1] <= ext + 1e-9, "case {case}");
        assert!(g[0] + g[1] <= platform.emc.capacity() + 1e-9, "case {case}");
        // Monotonicity in external traffic.
        let g2 = platform.emc.grant(&[own, ext + 20.0]);
        assert!(g2[0] <= g[0] + 1e-9, "case {case}");
    }
}

/// PCCS prediction brackets the ground truth within a bounded relative
/// error over its calibrated range.
#[test]
fn contention_model_error_bounded() {
    let platform = orin_agx();
    let cm = ContentionModel::calibrate(&platform);
    let mut rng = Rng::new(11);
    for case in 0..200 {
        let own = rng.f64(1.0, 148.0);
        let ext = rng.f64(0.0, 200.0);
        let truth = {
            let g = platform.emc.grant_pair(own, ext);
            if g <= 0.0 {
                1.0
            } else {
                (own / g).max(1.0)
            }
        };
        let pred = cm.bw_slowdown(0, own, ext);
        let rel = (pred - truth).abs() / truth;
        assert!(
            rel < 0.15,
            "case {case}: own {own} ext {ext}: pred {pred} truth {truth}"
        );
    }
}

/// For random small workloads, the validated scheduler never loses to any
/// baseline (measured), and its assignment respects PU support.
#[test]
fn scheduler_never_worse_on_random_pairs() {
    let models = [
        Model::AlexNet,
        Model::GoogleNet,
        Model::ResNet18,
        Model::ResNet50,
        Model::MobileNetV1,
        Model::DenseNet121,
    ];
    let platform = orin_agx();
    let contention = ContentionModel::calibrate(&platform);
    let mut rng = Rng::new(23);
    for case in 0..8 {
        let a_idx = rng.usize(0, models.len());
        let b_idx = rng.usize(0, models.len());
        let obj = if rng.bool() {
            Objective::MinMaxLatency
        } else {
            Objective::MaxThroughput
        };
        let w = Workload::concurrent(vec![
            DnnTask::new("a", NetworkProfile::profile(&platform, models[a_idx], 6)),
            DnnTask::new("b", NetworkProfile::profile(&platform, models[b_idx], 6)),
        ]);
        let s = HaxConn::schedule_validated(
            &platform,
            &w,
            &contention,
            SchedulerConfig::with_objective(obj),
        );
        // Assignment validity.
        for (t, row) in s.assignment.iter().enumerate() {
            for (g, &pu) in row.iter().enumerate() {
                assert!(
                    w.tasks[t].profile.groups[g].cost[pu].is_some(),
                    "case {case}"
                );
            }
        }
        let score = |assignment: &Vec<Vec<usize>>| {
            let m = measure(&platform, &w, assignment);
            match obj {
                Objective::MinMaxLatency => m.latency_ms,
                Objective::MaxThroughput => -m.fps,
            }
        };
        let hax = score(&s.assignment);
        for &kind in BaselineKind::all() {
            let base = score(&Baseline::assignment(kind, &platform, &w));
            assert!(
                hax <= base + 1e-9,
                "case {case} {kind}: hax {hax} vs base {base}"
            );
        }
    }
}
