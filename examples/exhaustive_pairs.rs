//! Mini version of the paper's Table 8: sweep DNN pairs on AGX Orin and
//! report, for each pair, the best baseline and HaX-CoNN's improvement
//! factor (an `x` marks pairs where HaX-CoNN correctly falls back to the
//! best baseline).
//!
//! The full 10x10 sweep lives in the bench crate
//! (`cargo run -p haxconn-bench --bin table8_exhaustive_pairs`); this
//! example runs a 4x4 corner of it.
//!
//! Run with: `cargo run --release --example exhaustive_pairs`

use haxconn::prelude::*;

fn main() {
    let platform = orin_agx();
    let contention = ContentionModel::calibrate(&platform);
    let models = [
        Model::GoogleNet,
        Model::ResNet50,
        Model::ResNet101,
        Model::Vgg19,
    ];

    // Profile each model once (profiling is offline and reusable).
    let profiles: Vec<NetworkProfile> = models
        .iter()
        .map(|&m| NetworkProfile::profile(&platform, m, 8))
        .collect();

    println!(
        "{:>10} x {:<10} {:>9} {:>9} {:>7}  best baseline",
        "DNN-1", "DNN-2", "base ms", "hax ms", "gain"
    );
    for i in 0..models.len() {
        for j in 0..=i {
            let workload = Workload::concurrent(vec![
                DnnTask::new(models[i].name(), profiles[i].clone()),
                DnnTask::new(models[j].name(), profiles[j].clone()),
            ]);
            let cfg = SchedulerConfig::with_objective(Objective::MaxThroughput);

            let mut best_kind = BaselineKind::GpuOnly;
            let mut best_ms = f64::INFINITY;
            for &kind in BaselineKind::all() {
                let a = Baseline::assignment(kind, &platform, &workload);
                let m = execute(&platform, &workload, &a);
                if m.makespan_ms < best_ms {
                    best_ms = m.makespan_ms;
                    best_kind = kind;
                }
            }

            let s = HaxConn::schedule(&platform, &workload, &contention, cfg);
            let hax_ms = execute(&platform, &workload, &s.assignment).makespan_ms;
            let gain = best_ms / hax_ms;
            let gain_str = if gain > 1.005 {
                format!("{gain:.2}")
            } else {
                "x".to_string() // fell back; no win, but never worse
            };
            println!(
                "{:>10} x {:<10} {:>9.2} {:>9.2} {:>7}  {}",
                models[i].name(),
                models[j].name(),
                best_ms,
                hax_ms,
                gain_str,
                best_kind.name()
            );
        }
    }
}
