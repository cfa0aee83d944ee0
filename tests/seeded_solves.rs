//! Seeding a solve with candidate schedules never moves its answer.
//!
//! `SolveOptions::seeds` hands the solver complete assignments — here the
//! five naive baselines, as the arrival replay passes them — which it
//! scores inside the solve and starts from. Each seed is a leaf of the
//! same tree, so on random 1–4-tenant mixes over orin, xavier and sd865:
//!
//! * an unbudgeted solve with seeds and one without return the same
//!   assignment and cost bits, on one worker and on two (mixes of 12 or
//!   more variables then run the parallel pool), with and without a
//!   warm-start incumbent;
//! * under a node budget, the seeded cost is no worse than the unseeded
//!   one.

use haxconn::core::encoding::ScheduleEncoding;
use haxconn::dnn::Model;
use haxconn::prelude::*;
use haxconn::solver::{solve_auto, Assignment, CostModel, Solution, SolveOptions};
use std::collections::HashMap;

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

/// `count` seeded mixes of 1–4 distinct zoo models of 2–4 groups, at
/// most 14 groups in all, platforms in rotation; mostly the ε-relaxed
/// latency formulation the arrival replay solves, some under ε or the
/// throughput objective.
fn mixes(count: usize, seed: u64) -> Vec<WorkloadSpec> {
    let mut rng = Rng(seed);
    (0..count)
        .map(|i| {
            let platform = ["orin", "xavier", "sd865"][i % 3];
            let tenants = 1 + (i / 3) % 4;
            let groups = loop {
                let g: Vec<usize> = (0..tenants).map(|_| 2 + rng.below(3)).collect();
                if g.iter().sum::<usize>() <= 14 {
                    break g;
                }
            };
            let mut pool: Vec<Model> = Model::all().to_vec();
            let mut spec = WorkloadSpec::new(platform);
            for &g in &groups {
                let m = pool.swap_remove(rng.below(pool.len()));
                spec = spec.task(m.name(), g);
            }
            let (objective, epsilon_ms) = match rng.below(6) {
                0 => (Objective::MaxThroughput, None),
                1 => (Objective::MinMaxLatency, Some(0.35)),
                _ => (Objective::MinMaxLatency, None),
            };
            spec.with_config(SchedulerConfig {
                objective,
                epsilon_ms,
                ..Default::default()
            })
        })
        .collect()
}

/// The solve of `enc` at `threads`, with `seeds` and the optional warm
/// start, under an optional node budget.
fn run(
    enc: &ScheduleEncoding<'_>,
    threads: usize,
    warm: &Option<(Assignment, f64)>,
    seeds: &[Assignment],
    node_budget: Option<u64>,
) -> Solution {
    let opts = SolveOptions {
        node_budget,
        initial_incumbent: warm.clone(),
        seeds: seeds.to_vec(),
        ..Default::default()
    };
    solve_auto(enc, opts, threads)
}

#[test]
fn seeds_never_move_the_answer_and_never_hurt_a_budget() {
    let mut contexts: HashMap<String, ContentionModel> = HashMap::new();
    let (mut parallel, mut smaller_trees, mut budget_wins) = (0, 0, 0);
    let all = mixes(120, 0x005E_ED0F_BA5E);
    for (i, spec) in all.iter().enumerate() {
        let (platform, workload) = spec.resolve().expect("valid spec");
        let cm = contexts
            .entry(spec.platform.clone())
            .or_insert_with(|| ContentionModel::calibrate(&platform));
        let enc = ScheduleEncoding::new(&workload, cm, spec.effective_config());
        let seeds: Vec<Assignment> = BaselineKind::all()
            .iter()
            .filter_map(|&kind| enc.to_flat(&Baseline::assignment(kind, &platform, &workload)))
            .collect();
        assert_eq!(seeds.len(), BaselineKind::all().len(), "mix {i}");
        // Every other mix also starts from a warm incumbent, as a
        // re-solve does: the GPU-only schedule at its own cost.
        let warm = (i % 2 == 1)
            .then(|| enc.cost(&seeds[0]).map(|c| (seeds[0].clone(), c)))
            .flatten();
        let label = format!("mix {i}: {}", spec.to_json().expect("serializes"));
        parallel += usize::from(enc.num_vars() >= 12);
        for threads in [1, 2] {
            let plain = run(&enc, threads, &warm, &[], None);
            let seeded = run(&enc, threads, &warm, &seeds, None);
            assert!(plain.proven_optimal() && seeded.proven_optimal(), "{label}");
            let (pa, pc) = plain.best.expect("feasible");
            let (sa, sc) = seeded.best.expect("feasible");
            assert_eq!(sa, pa, "{label} threads {threads}");
            assert_eq!(sc.to_bits(), pc.to_bits(), "{label} threads {threads}");
            if threads == 1 {
                smaller_trees += usize::from(seeded.stats.nodes < plain.stats.nodes);
            }
        }
        for budget in [20, 150] {
            let plain = run(&enc, 1, &warm, &[], Some(budget));
            let seeded = run(&enc, 1, &warm, &seeds, Some(budget));
            let sc = seeded.best.expect("a seeded solve always has an answer").1;
            if let Some((_, pc)) = plain.best {
                assert!(sc <= pc, "{label} budget {budget}: {sc} > {pc}");
                budget_wins += usize::from(sc < pc);
            }
        }
    }
    assert!(parallel >= 15, "only {parallel} mixes reach the pool");
    assert!(
        smaller_trees >= 50,
        "seeds cut the tree on only {smaller_trees} mixes"
    );
    assert!(
        budget_wins >= 50,
        "seeds won a budget on only {budget_wins} mixes"
    );
}
