//! Fig. 7 — D-HaX-CoNN under dynamically changing workloads: the DNN pair
//! changes every 10 seconds; schedules are updated at 25 ms, 100 ms,
//! 250 ms, 500 ms and 1.5 s after each change as the solver progresses,
//! converging to the oracle (static optimal) schedule.
//!
//! Phases use the pairs of Table 6 experiments 2, 5 and 1, as the paper
//! does.

use haxconn_bench::profile;
use haxconn_contention::ContentionModel;
use haxconn_core::dynamic::DHaxConn;
use haxconn_core::measure::execute;
use haxconn_core::problem::{DnnTask, Objective, SchedulerConfig, Workload};
use haxconn_core::scheduler::HaxConn;
use haxconn_dnn::Model;
use haxconn_soc::orin_agx;
use std::time::Duration;

fn main() {
    let platform = orin_agx();
    let contention = ContentionModel::calibrate(&platform);
    let config = SchedulerConfig::with_objective(Objective::MinMaxLatency);

    // CFG phases (DNN sets of Table 6 exps 2, 5, 1).
    let phases: Vec<(&str, Vec<Model>)> = vec![
        ("exp2-pair", vec![Model::ResNet152, Model::InceptionV4]),
        (
            "exp5-trio",
            vec![Model::GoogleNet, Model::ResNet152, Model::FcnResNet18],
        ),
        ("exp1-pair", vec![Model::Vgg19, Model::ResNet152]),
    ];
    let checkpoints_ms = [0u64, 25, 100, 250, 500, 1500];

    println!("Fig. 7 — D-HaX-CoNN convergence (latency per image, ms)\n");
    for (name, models) in phases {
        let workload = Workload::concurrent(
            models
                .iter()
                .map(|&m| DnnTask::new(m.name(), profile(&platform, m)))
                .collect(),
        );
        let d = DHaxConn::run(&platform, &workload, &contention, config);
        let oracle = HaxConn::schedule(&platform, &workload, &contention, config);
        let oracle_ms = execute(&platform, &workload, &oracle.assignment).makespan_ms;

        println!("phase {name} ({} DNNs):", workload.tasks.len());
        let mut last = f64::NAN;
        for &ck in &checkpoints_ms {
            let inc = d.schedule_at(Duration::from_millis(ck));
            let lat = execute(&platform, &workload, &inc.assignment).makespan_ms;
            let marker = if (lat - last).abs() > 1e-9 { " *" } else { "" };
            last = lat;
            println!("  t={ck:>5} ms   latency {lat:>8.2} ms{marker}");
        }
        let best = execute(&platform, &workload, &d.best().assignment).makespan_ms;
        let first_opt = d.trace.last().map(|i| i.at.as_secs_f64()).unwrap_or(0.0);
        println!(
            "  converged {best:.2} ms vs oracle {oracle_ms:.2} ms ({} incumbents, last at {:.3} s, optimal proven: {})\n",
            d.trace.len(),
            first_opt,
            d.proven_optimal
        );
    }
}
