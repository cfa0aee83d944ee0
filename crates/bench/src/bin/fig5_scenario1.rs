//! Fig. 5 — Scenario 1: two instances of the same DNN processing
//! consecutive images concurrently on AGX Orin; throughput (FPS)
//! comparison of GPU-only, non-collaborative GPU&DLA, Mensa-like, and
//! HaX-CoNN.
//!
//! Paper shapes: HaX-CoNN boosts FPS by up to 29%; non-collaborative
//! GPU&DLA does not always beat GPU-only (contention); Mensa shows little
//! or no improvement.

use haxconn_bench::{improvement_pct, profile, transition_summary};
use haxconn_contention::ContentionModel;
use haxconn_core::baselines::{Baseline, BaselineKind};
use haxconn_core::measure::execute;
use haxconn_core::problem::{DnnTask, Objective, SchedulerConfig, Workload};
use haxconn_core::scheduler::HaxConn;
use haxconn_dnn::Model;
use haxconn_soc::orin_agx;

fn main() {
    let platform = orin_agx();
    let contention = ContentionModel::calibrate(&platform);
    let models = [
        Model::GoogleNet,
        Model::ResNet18,
        Model::ResNet50,
        Model::ResNet101,
        Model::InceptionV4,
    ];

    println!(
        "Fig. 5 Scenario 1 — two instances of the same DNN on {} (FPS)\n",
        platform.name
    );
    println!(
        "{:<12} {:>9} {:>9} {:>9} {:>9} {:>7}",
        "DNN", "GPU-only", "GPU&DLA", "Mensa", "HaX-CoNN", "gain"
    );
    for m in models {
        let prof = profile(&platform, m);
        let workload = Workload::concurrent(vec![
            DnnTask::new(format!("{}#0", m.name()), prof.clone()),
            DnnTask::new(format!("{}#1", m.name()), prof),
        ]);
        let fps = |kind: BaselineKind| {
            let a = Baseline::assignment(kind, &platform, &workload);
            execute(&platform, &workload, &a).fps()
        };
        let gpu_only = fps(BaselineKind::GpuOnly);
        let split = fps(BaselineKind::NaiveSplit);
        let mensa = fps(BaselineKind::MensaGreedy);
        let schedule = HaxConn::schedule_validated(
            &platform,
            &workload,
            &contention,
            SchedulerConfig::with_objective(Objective::MaxThroughput),
        );
        let hax = execute(&platform, &workload, &schedule.assignment).fps();
        let best = gpu_only.max(split).max(mensa);
        println!(
            "{:<12} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>6.1}%   {}",
            m.name(),
            gpu_only,
            split,
            mensa,
            hax,
            -improvement_pct(best, hax), // FPS: higher is better
            transition_summary(&platform, &workload, &schedule)
        );
    }
}
