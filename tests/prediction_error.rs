//! Statistical validation of the contention-interval timeline predictor
//! against the ground-truth simulator over random assignments — the
//! reproduction-side analogue of the paper's claim that contention-unaware
//! estimators (Herald/H2H) are "wrong by up to 75%" while the
//! contention-aware one stays accurate.

use haxconn::core::timeline::TimelineEvaluator;
use haxconn::prelude::*;

/// Deterministic xorshift for reproducible "random" assignments.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn chance(&mut self, pct: u64) -> bool {
        self.next() % 100 < pct
    }
}

fn random_assignment(platform: &Platform, workload: &Workload, rng: &mut Rng) -> Vec<Vec<usize>> {
    workload
        .tasks
        .iter()
        .map(|t| {
            t.profile
                .groups
                .iter()
                .map(|g| {
                    if g.cost[platform.dsa()].is_some() && rng.chance(40) {
                        platform.dsa()
                    } else {
                        platform.gpu()
                    }
                })
                .collect()
        })
        .collect()
}

#[test]
fn contention_aware_prediction_beats_blind_prediction() {
    let platform = orin_agx();
    let contention = ContentionModel::calibrate(&platform);
    let workload = Workload::concurrent(vec![
        DnnTask::new(
            "GoogleNet",
            NetworkProfile::profile(&platform, Model::GoogleNet, 8),
        ),
        DnnTask::new(
            "ResNet101",
            NetworkProfile::profile(&platform, Model::ResNet101, 8),
        ),
    ]);

    let aware = TimelineEvaluator::new(&workload, &contention);
    let mut blind = TimelineEvaluator::new(&workload, &contention);
    blind.contention_aware = false;

    let mut rng = Rng(0xDEC0DE);
    let mut aware_errs = Vec::new();
    let mut blind_errs = Vec::new();
    for _ in 0..40 {
        let a = random_assignment(&platform, &workload, &mut rng);
        let truth = execute(&platform, &workload, &a).makespan_ms;
        let pa = aware.evaluate(&a).makespan_ms;
        let pb = blind.evaluate(&a).makespan_ms;
        aware_errs.push((pa - truth).abs() / truth);
        blind_errs.push((pb - truth).abs() / truth);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let max = |v: &[f64]| v.iter().cloned().fold(0.0f64, f64::max);

    // The aware predictor tracks the simulator tightly...
    assert!(
        mean(&aware_errs) < 0.05,
        "aware mean error {:.3}",
        mean(&aware_errs)
    );
    assert!(
        max(&aware_errs) < 0.15,
        "aware max error {:.3}",
        max(&aware_errs)
    );
    // ...and is strictly better than the contention-blind one (which always
    // under-predicts co-run latency, the Herald/H2H failure mode).
    assert!(
        mean(&aware_errs) < mean(&blind_errs),
        "aware {:.4} vs blind {:.4}",
        mean(&aware_errs),
        mean(&blind_errs)
    );
}

#[test]
fn blind_prediction_always_underestimates_contended_runs() {
    let platform = xavier_agx();
    let contention = ContentionModel::calibrate(&platform);
    let workload = Workload::concurrent(vec![
        DnnTask::new("VGG19", NetworkProfile::profile(&platform, Model::Vgg19, 8)),
        DnnTask::new(
            "ResNet152",
            NetworkProfile::profile(&platform, Model::ResNet152, 8),
        ),
    ]);
    let mut blind = TimelineEvaluator::new(&workload, &contention);
    blind.contention_aware = false;

    let mut rng = Rng(0xFACADE);
    let mut under = 0usize;
    let mut total = 0usize;
    for _ in 0..25 {
        let a = random_assignment(&platform, &workload, &mut rng);
        // Only consider genuinely concurrent assignments (both PUs used).
        let uses_both = a.iter().flatten().any(|&pu| pu == platform.dsa())
            && a.iter().flatten().any(|&pu| pu == platform.gpu());
        if !uses_both {
            continue;
        }
        let truth = execute(&platform, &workload, &a).makespan_ms;
        let pred = blind.evaluate(&a).makespan_ms;
        total += 1;
        if pred < truth - 1e-9 {
            under += 1;
        }
    }
    assert!(total >= 15, "not enough concurrent samples ({total})");
    // Queue-order differences between predictor and simulator flip a few
    // samples the other way; the dominant direction is what matters.
    assert!(
        under as f64 / total as f64 > 0.8,
        "blind predictor should underestimate contended runs ({under}/{total})"
    );
}
