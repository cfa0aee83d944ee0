//! Fixtures shared by the schedule-goldens test binaries.

use haxconn::core::encoding::ScheduleEncoding;
use haxconn::dnn::Model;
use haxconn::prelude::*;
use haxconn::solver::{solve, SolveOptions};

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

/// The 48 seeded specs with a readable label each: 2 or 3 distinct zoo
/// models of 3–5 groups, at most 10 groups in all, concurrent or chained,
/// platforms in rotation.
pub fn specs() -> Vec<(String, WorkloadSpec)> {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    (0..48)
        .map(|i| {
            let platform = ["orin", "xavier", "sd865"][i % 3];
            let n = 2 + rng.below(2);
            let groups = loop {
                let g: Vec<usize> = (0..n).map(|_| 3 + rng.below(3)).collect();
                if g.iter().sum::<usize>() <= 10 {
                    break g;
                }
            };
            let mut pool: Vec<Model> = Model::all().to_vec();
            let chained = rng.below(2) == 1;
            let mut spec = WorkloadSpec::new(platform);
            let mut label = platform.to_string();
            for g in groups {
                let m = pool.swap_remove(rng.below(pool.len()));
                spec = spec.task(m.name(), g);
                label.push_str(&format!(" {}:{g}", m.name()));
            }
            if chained {
                for t in 1..n {
                    spec = spec.dep(t - 1, t);
                }
                label.push_str(" chained");
            }
            (label, spec)
        })
        .collect()
}

/// Whether some schedule of `workload` meets the ε constraint (Eq. 9).
/// The one search's optimum is ε-feasible exactly when some schedule is:
/// ε-violating schedules cost a tier above every ε-feasible one.
pub fn strict_feasible(workload: &Workload, cm: &ContentionModel, config: SchedulerConfig) -> bool {
    let enc = ScheduleEncoding::new(workload, cm, config);
    let (best, _) = solve(&enc, SolveOptions::default())
        .best
        .expect("the one search always has a schedule");
    let mut ev = TimelineEvaluator::new(workload, cm);
    ev.contention_aware = config.contention_aware;
    let eps = config.epsilon_ms.expect("specs keep the default ε");
    ev.evaluate(&enc.to_rows(&best)).max_wait_ms <= eps
}
