//! D-HaX-CoNN: dynamic workloads whose control-flow graph changes at
//! runtime (the paper's Fig. 7 scenario).
//!
//! A drone switches between mission phases every "10 seconds"; each phase
//! runs a different DNN pair. For each phase, D-HaX-CoNN starts from the
//! best naive schedule immediately and swaps in improving schedules as the
//! background solver finds them.
//!
//! Run with: `cargo run --release --example dynamic_workload`

use haxconn::prelude::*;
use std::time::Duration;

fn phase(platform: &Platform, name: &str, a: Model, b: Model) -> (String, Workload) {
    (
        name.to_string(),
        Workload::concurrent(vec![
            DnnTask::new(a.name(), NetworkProfile::profile(platform, a, 8)),
            DnnTask::new(b.name(), NetworkProfile::profile(platform, b, 8)),
        ]),
    )
}

fn main() {
    let platform = orin_agx();
    let contention = ContentionModel::calibrate(&platform);
    let config = SchedulerConfig::default();

    // Mission phases (Fig. 7 uses the pairs of Table 6 experiments 2/5/1).
    let phases = vec![
        phase(&platform, "cruise", Model::ResNet152, Model::InceptionV4),
        phase(&platform, "discover", Model::GoogleNet, Model::ResNet152),
        phase(&platform, "track", Model::Vgg19, Model::ResNet152),
    ];

    // Schedule-update checkpoints after each CFG change (paper Fig. 7).
    let checkpoints = [25, 100, 250, 500, 1500];

    for (name, workload) in &phases {
        println!("=== phase: {name} ===");
        let d = DHaxConn::run(&platform, workload, &contention, config);

        let naive = execute(&platform, workload, &d.initial.assignment);
        println!(
            "  t=0ms       naive start        {:>8.2} ms",
            naive.makespan_ms
        );
        let mut last_cost = f64::INFINITY;
        for &ck in &checkpoints {
            let inc = d.schedule_at(Duration::from_millis(ck));
            if (inc.cost - last_cost).abs() < 1e-12 {
                continue;
            }
            last_cost = inc.cost;
            let m = execute(&platform, workload, &inc.assignment);
            println!(
                "  t={ck:>4}ms    schedule update    {:>8.2} ms",
                m.makespan_ms
            );
        }
        let oracle = HaxConn::schedule(&platform, workload, &contention, config);
        let om = execute(&platform, workload, &oracle.assignment);
        let bm = execute(&platform, workload, &d.best().assignment);
        println!(
            "  converged: {:.2} ms (oracle {:.2} ms), {} incumbents, optimal proven: {}",
            bm.makespan_ms,
            om.makespan_ms,
            d.trace.len(),
            d.proven_optimal
        );
    }
}
