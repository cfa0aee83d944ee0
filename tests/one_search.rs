//! The one ε search against the two-phase search it replaced.
//!
//! `HaxConn::try_schedule` solves Eq. 9 in one search ordered by
//! `(violates ε, cost, assignment)`. The oracle here is the older
//! construction, kept as a test of different make:
//!
//! 1. a strict search whose leaves are rejected when their own timeline
//!    waits longer than ε, bounded and pruned by the relaxed encoding;
//! 2. when that finds nothing, a relaxed search;
//! 3. the result scored against every baseline under the never-worse
//!    rule.
//!
//! Both must give the same schedule to the bit (assignment, cost,
//! proven optimality, origin) on seeded specs over orin, xavier and
//! sd865, under both objectives and several ε, with strict-infeasible
//! specs among them.

use haxconn::core::encoding::ScheduleEncoding;
use haxconn::core::scheduler::objective_cost;
use haxconn::dnn::Model;
use haxconn::prelude::*;
use haxconn::solver::{solve, Assignment, CostModel, PartialAssignment, SolveOptions};
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

/// `count` seeded specs: 2 or 3 distinct zoo models of 2–4 groups, at
/// most 9 groups in all; concurrent, chained, or with the third task a
/// tied copy of the first; both objectives; ε from 0.05 to 2 ms.
fn specs(count: usize, seed: u64) -> Vec<WorkloadSpec> {
    let mut rng = Rng(seed);
    (0..count)
        .map(|i| {
            let platform = ["orin", "xavier", "sd865"][i % 3];
            let n = 2 + rng.below(2);
            let groups = loop {
                let g: Vec<usize> = (0..n).map(|_| 2 + rng.below(3)).collect();
                if g.iter().sum::<usize>() <= 9 {
                    break g;
                }
            };
            let mut pool: Vec<Model> = Model::all().to_vec();
            let mut spec = WorkloadSpec::new(platform);
            let shape = rng.below(3);
            for (t, &g) in groups.iter().enumerate() {
                let m = pool.swap_remove(rng.below(pool.len()));
                // A tied copy runs its representative's network and grouping.
                let (name, g) = match (shape, t) {
                    (2, 2) => (spec.tasks[0].model.clone(), spec.tasks[0].groups),
                    _ => (m.name().to_string(), g),
                };
                spec = spec.task(name, g);
            }
            match shape {
                1 => {
                    for t in 1..n {
                        spec = spec.dep(t - 1, t);
                    }
                }
                2 if n == 3 => spec = spec.tie(2, 0),
                _ => {}
            }
            let objective = match rng.below(3) {
                0 => Objective::MaxThroughput,
                _ => Objective::MinMaxLatency,
            };
            spec.with_config(SchedulerConfig {
                objective,
                epsilon_ms: Some([0.35, 0.35, 0.05, 1.0, 2.0][rng.below(5)]),
                ..Default::default()
            })
        })
        .collect()
}

/// The strict formulation of the two-phase search: the relaxed encoding's
/// domains, prune and bound, and a leaf cost that rejects any schedule
/// whose own timeline waits longer than ε.
struct Strict<'a> {
    relaxed: &'a ScheduleEncoding<'a>,
    evaluator: TimelineEvaluator<'a>,
    config: SchedulerConfig,
}

impl CostModel for Strict<'_> {
    type Scratch = ();
    fn num_vars(&self) -> usize {
        self.relaxed.num_vars()
    }
    fn domain(&self, var: usize) -> &[u32] {
        self.relaxed.domain(var)
    }
    fn prune(&self, partial: &PartialAssignment) -> bool {
        self.relaxed.prune(partial)
    }
    fn bound(&self, partial: &PartialAssignment) -> f64 {
        self.relaxed.bound(partial)
    }
    fn cost(&self, a: &Assignment) -> Option<f64> {
        let full: Vec<Option<u32>> = a.iter().map(|&v| Some(v)).collect();
        if self.relaxed.prune(&full) {
            return None;
        }
        let tl = self.evaluator.evaluate(&self.relaxed.to_rows(a));
        let eps = self.config.epsilon_ms.expect("strict specs have ε");
        (tl.max_wait_ms <= eps).then(|| objective_cost(self.config.objective, &tl))
    }
}

/// The two-phase schedule, and whether its strict phase found one.
fn two_phase(
    platform: &Platform,
    workload: &Workload,
    cm: &ContentionModel,
    config: SchedulerConfig,
) -> (Schedule, bool) {
    let relaxed_cfg = SchedulerConfig {
        epsilon_ms: None,
        ..config
    };
    let relaxed = ScheduleEncoding::new(workload, cm, relaxed_cfg);
    let mut evaluator = TimelineEvaluator::new(workload, cm);
    evaluator.contention_aware = config.contention_aware;
    let strict = Strict {
        relaxed: &relaxed,
        evaluator,
        config,
    };
    let mut sol = solve(&strict, SolveOptions::default());
    let strict_feasible = sol.best.is_some();
    if !strict_feasible {
        sol = solve(&relaxed, SolveOptions::default());
    }
    let proven = sol.proven_optimal();
    let score = |assignment: Vec<Vec<usize>>, origin: ScheduleOrigin| {
        let predicted = strict.evaluator.evaluate(&assignment);
        Schedule {
            cost: objective_cost(config.objective, &predicted),
            assignment,
            predicted,
            origin,
            proven_optimal: proven,
        }
    };
    let mut winner = sol
        .best
        .map(|(a, _)| score(relaxed.to_rows(&a), ScheduleOrigin::Optimal));
    for &kind in BaselineKind::all() {
        let b = score(
            Baseline::assignment(kind, platform, workload),
            ScheduleOrigin::Fallback(kind),
        );
        if winner.as_ref().is_none_or(|w| b.cost < w.cost - 1e-9) {
            winner = Some(b);
        }
    }
    (
        winner.expect("GPU-only is always a candidate"),
        strict_feasible,
    )
}

#[test]
fn one_search_matches_the_two_phase_search() {
    let mut contexts: HashMap<String, ContentionModel> = HashMap::new();
    let mut infeasible = 0;
    let mut throughput = 0;
    let all = specs(2_000, 0x2545_F491_4F6C_DD1D);
    for (i, spec) in all.iter().enumerate() {
        let (platform, workload) = spec.resolve().expect("valid spec");
        let cm = contexts
            .entry(spec.platform.clone())
            .or_insert_with(|| ContentionModel::calibrate(&platform));
        let config = spec.effective_config();
        let one = HaxConn::try_schedule(&platform, &workload, cm, config).expect("schedulable");
        let (two, strict_feasible) = two_phase(&platform, &workload, cm, config);
        let label = format!("spec {i}: {}", spec.to_json().expect("serializes"));
        assert_eq!(one.assignment, two.assignment, "{label}");
        assert_eq!(one.cost.to_bits(), two.cost.to_bits(), "{label}");
        assert_eq!(one.proven_optimal, two.proven_optimal, "{label}");
        assert_eq!(one.origin, two.origin, "{label}");
        infeasible += usize::from(!strict_feasible);
        throughput += usize::from(config.objective == Objective::MaxThroughput);
    }
    assert!(
        infeasible >= 200,
        "only {infeasible} strict-infeasible specs"
    );
    assert!(throughput >= 500, "only {throughput} MaxThroughput specs");
}
