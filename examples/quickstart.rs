//! Quickstart: schedule two concurrent DNNs on a simulated NVIDIA AGX Orin
//! and compare HaX-CoNN against every baseline from the paper — via the
//! fallible [`Session`] facade.
//!
//! Run with: `cargo run --release --example quickstart`

use haxconn::prelude::*;

fn main() -> Result<(), HaxError> {
    // 1. One builder call chain resolves the platform, profiles the DNNs
    //    (paper Sections 3.1-3.3: layer grouping, per-group timing,
    //    transition and memory-throughput characterization), calibrates
    //    the contention model and solves for the optimal schedule.
    let session = Session::on("orin-agx")
        .task(Model::GoogleNet, 10)
        .task(Model::ResNet101, 10)
        .objective(Objective::MinMaxLatency)
        .schedule()?;
    println!("platform: {}", session.platform.name);
    for task in &session.workload.tasks {
        println!(
            "  {:10} {:4} layers -> {:2} groups",
            task.name,
            task.profile.grouped.network.len(),
            task.num_groups()
        );
    }

    // 2. Baselines, measured on the simulated SoC.
    println!("\n{:<10} {:>10} {:>8}", "scheduler", "lat (ms)", "fps");
    for &kind in BaselineKind::all() {
        let a = Baseline::assignment(kind, &session.platform, &session.workload);
        let m = execute(&session.platform, &session.workload, &a);
        println!(
            "{:<10} {:>10.2} {:>8.1}",
            kind.name(),
            m.makespan_ms,
            m.fps()
        );
    }

    // 3. HaX-CoNN's optimal contention-aware schedule.
    let m = session.measure()?;
    println!(
        "{:<10} {:>10.2} {:>8.1}",
        "HaX-CoNN",
        m.makespan_ms,
        m.fps()
    );
    println!("\nschedule: {}", session.describe());
    for tr in session.schedule.transitions(&session.workload) {
        println!(
            "  {}: transition after layer {} ({})",
            session.workload.tasks[tr.task].name,
            tr.after_layer,
            Schedule::direction_label(&session.platform, &tr)
        );
    }

    // 4. The same report, per executed item and EMC traffic.
    println!(
        "\nexecution: {:.2} ms makespan, EMC mean {:.1} GB/s, {} items",
        m.makespan_ms,
        m.emc_mean_gbps,
        m.records.len()
    );
    Ok(())
}
