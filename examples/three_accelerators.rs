//! Scheduling across THREE accelerators.
//!
//! The paper's evaluation stops at two DSAs because no off-the-shelf SoC
//! offers more ("the maximum number of accelerators we consider ... is
//! limited to two"), but the formulation is general. This example runs
//! three concurrent DNNs on a simulated Orin extended with a vision DSP and
//! shows the solver exploiting all three engines.
//!
//! Run with: `cargo run --release --example three_accelerators`

use haxconn::prelude::*;
use haxconn::soc::orin_agx_triple;

fn main() {
    let platform = orin_agx_triple();
    let contention = ContentionModel::calibrate(&platform);
    println!("platform: {} ({} PUs)\n", platform.name, platform.pus.len());

    let workload = Workload::concurrent(vec![
        DnnTask::new(
            "GoogleNet",
            NetworkProfile::profile(&platform, Model::GoogleNet, 8),
        ),
        DnnTask::new(
            "ResNet101",
            NetworkProfile::profile(&platform, Model::ResNet101, 8),
        ),
        DnnTask::new(
            "ResNet50",
            NetworkProfile::profile(&platform, Model::ResNet50, 8),
        ),
    ]);

    println!("{:<10} {:>10} {:>8}", "scheduler", "lat (ms)", "fps");
    let mut best = f64::INFINITY;
    for &kind in BaselineKind::all() {
        let a = Baseline::assignment(kind, &platform, &workload);
        let m = execute(&platform, &workload, &a);
        best = best.min(m.makespan_ms);
        println!(
            "{:<10} {:>10.2} {:>8.1}",
            kind.name(),
            m.makespan_ms,
            m.fps()
        );
    }
    let schedule = HaxConn::schedule_validated(
        &platform,
        &workload,
        &contention,
        SchedulerConfig::default(),
    );
    let m = execute(&platform, &workload, &schedule.assignment);
    println!(
        "{:<10} {:>10.2} {:>8.1}",
        "HaX-CoNN",
        m.makespan_ms,
        m.fps()
    );
    println!(
        "\nimprovement over best baseline: {:.1}%",
        100.0 * (best - m.makespan_ms) / best
    );
    println!("schedule: {}", schedule.describe(&platform, &workload));
    // Per-PU utilization: with three engines all should carry load.
    for (i, pu) in platform.pus.iter().enumerate() {
        println!(
            "  {:<14} busy {:>6.2} ms ({:>3.0}%)",
            pu.name,
            m.pu_busy_ms[i],
            100.0 * m.pu_busy_ms[i] / m.makespan_ms
        );
    }
}
