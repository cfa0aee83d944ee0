//! Pinned timeline bits: one FNV-1a hash over every field of
//! `TimelineEvaluator::evaluate` on a seeded corpus of random valid
//! assignments.
//!
//! The corpus covers orin, xavier and sd865, plus orin with a third
//! accelerator (where up to two co-runners' demands add up); concurrent,
//! pipeline and fan-in (`with_dep`) workloads; the contention-aware and the
//! contention-blind evaluator; and a starved iteration budget, so the
//! non-converged path is pinned too. The hash was recorded from the
//! evaluator before its exact cuts (live-footprint list, per-call
//! slowdown memo, per-call slot table); a change to the evaluator's
//! arithmetic, or to the order of any floating-point sum, moves it.
//!
//! Every assignment is also evaluated through one `TimelineWorkspace`
//! shared across the whole corpus, so a stale per-call table shows up as
//! a mismatch against the fresh-workspace result.

use haxconn::core::timeline::{PredictedTimeline, TimelineWorkspace};
use haxconn::prelude::*;

/// The FNV-1a hash of the corpus below, recorded from the evaluator
/// before its exact cuts.
const PINNED: u64 = 0x9052_4fe0_d4bd_6fd5;

/// Deterministic xorshift64* generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % n as u64) as usize
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

#[derive(Clone, Copy)]
enum Shape {
    Concurrent,
    Pipeline,
    FanIn,
}

fn workload(p: &Platform, rng: &mut Rng, shape: Shape) -> Workload {
    let n = 2 + rng.below(4);
    let tasks = (0..n)
        .map(|_| {
            let m = Model::all()[rng.below(Model::all().len())];
            DnnTask::new(m.name(), NetworkProfile::profile(p, m, 2 + rng.below(9)))
        })
        .collect();
    match shape {
        Shape::Concurrent => Workload::concurrent(tasks),
        Shape::Pipeline => Workload::pipeline(tasks),
        Shape::FanIn => (0..n - 1).fold(Workload::concurrent(tasks), |w, t| w.with_dep(t, n - 1)),
    }
}

/// A random valid assignment: each group on a PU that supports it.
fn assignment(w: &Workload, rng: &mut Rng) -> Vec<Vec<PuId>> {
    w.tasks
        .iter()
        .map(|t| {
            t.profile
                .groups
                .iter()
                .map(|g| {
                    let pus: Vec<PuId> = (0..g.cost.len())
                        .filter(|&pu| g.cost[pu].is_some())
                        .collect();
                    pus[rng.below(pus.len())]
                })
                .collect()
        })
        .collect()
}

fn hash_timeline(h: &mut Fnv, tl: &PredictedTimeline) {
    for row in &tl.groups {
        for g in row {
            h.word(g.pu as u64);
            h.f(g.start_ms);
            h.f(g.end_ms);
            h.f(g.wait_ms);
            h.f(g.slowdown);
        }
    }
    for &l in &tl.task_latency_ms {
        h.f(l);
    }
    h.f(tl.makespan_ms);
    h.f(tl.max_wait_ms);
    h.f(tl.total_transition_ms);
    h.word(tl.converged as u64);
}

#[test]
fn timeline_bits_are_pinned() {
    let mut rng = Rng(0xD1B5_4A32_D192_ED03);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut shared = TimelineWorkspace::default();
    let (mut evaluations, mut unconverged) = (0usize, 0usize);
    let platforms = PlatformId::all().iter().map(|id| id.platform());
    for p in platforms.chain([haxconn::soc::orin_agx_triple()]) {
        let cm = ContentionModel::calibrate(&p);
        for shape in [Shape::Concurrent, Shape::Pipeline, Shape::FanIn] {
            for _ in 0..30 {
                let w = workload(&p, &mut rng, shape);
                for (aware, max_iters, draws) in [(true, 10, 40), (false, 10, 6), (true, 2, 6)] {
                    let mut ev = TimelineEvaluator::new(&w, &cm);
                    ev.contention_aware = aware;
                    ev.max_iters = max_iters;
                    for _ in 0..draws {
                        let a = assignment(&w, &mut rng);
                        let tl = ev.evaluate(&a);
                        hash_timeline(&mut h, &tl);
                        let s = ev.evaluate_into(&mut shared, |t, g| a[t][g]);
                        h.word(s.iterations as u64);
                        assert_eq!(s.makespan_ms.to_bits(), tl.makespan_ms.to_bits());
                        assert_eq!(s.max_wait_ms.to_bits(), tl.max_wait_ms.to_bits());
                        assert_eq!(
                            s.total_transition_ms.to_bits(),
                            tl.total_transition_ms.to_bits()
                        );
                        assert_eq!(s.converged, tl.converged);
                        let lat: Vec<u64> = shared
                            .task_latency_ms()
                            .iter()
                            .map(|x| x.to_bits())
                            .collect();
                        let want: Vec<u64> =
                            tl.task_latency_ms.iter().map(|x| x.to_bits()).collect();
                        assert_eq!(lat, want, "shared workspace drifted");
                        evaluations += 1;
                        unconverged += !tl.converged as usize;
                    }
                }
            }
        }
    }
    assert_eq!(evaluations, 4 * 3 * 30 * (40 + 6 + 6));
    assert!(
        unconverged > 0,
        "the starved budget leaves some iterates unconverged"
    );
    assert_eq!(h.0, PINNED, "timeline bits moved: {:#018x}", h.0);
}
