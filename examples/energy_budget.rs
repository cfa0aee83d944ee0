//! Energy-aware scheduling (AxoNN-style extension): minimize energy subject
//! to a latency budget, sweeping the budget to trace the latency/energy
//! trade-off on a simulated AGX Orin.
//!
//! Run with: `cargo run --release --example energy_budget`

use haxconn::core::{energy_of, schedule_min_energy};
use haxconn::prelude::*;
use haxconn::soc::PowerModel;

fn main() {
    let platform = orin_agx();
    let contention = ContentionModel::calibrate(&platform);
    let power = PowerModel::of(&platform);
    let workload = Workload::concurrent(vec![
        DnnTask::new(
            "GoogleNet",
            NetworkProfile::profile(&platform, Model::GoogleNet, 10),
        ),
        DnnTask::new(
            "ResNet50",
            NetworkProfile::profile(&platform, Model::ResNet50, 10),
        ),
    ]);

    // Reference point: the latency-optimal schedule.
    let fast = HaxConn::schedule(
        &platform,
        &workload,
        &contention,
        SchedulerConfig::default(),
    );
    let fast_m = execute(&platform, &workload, &fast.assignment);
    let fast_e = energy_of(&workload, &fast.assignment, &power, fast_m.makespan_ms);
    println!(
        "latency-optimal reference: {:.2} ms, {:.2} mJ ({:.1} W)\n",
        fast_m.makespan_ms,
        fast_e.total_mj(),
        fast_e.mean_power_w
    );

    println!(
        "{:>10} {:>10} {:>10} {:>9}  schedule",
        "budget", "lat (ms)", "E (mJ)", "P (W)"
    );
    for factor in [1.02, 1.1, 1.25, 1.5, 2.0, 3.0] {
        let budget = fast.predicted.makespan_ms * factor;
        match schedule_min_energy(
            &platform,
            &workload,
            &contention,
            &power,
            budget,
            SchedulerConfig::default(),
        ) {
            Some(s) => {
                let m = execute(&platform, &workload, &s.assignment);
                let e = energy_of(&workload, &s.assignment, &power, m.makespan_ms);
                println!(
                    "{:>9.2}x {:>10.2} {:>10.2} {:>9.1}  {}",
                    factor,
                    m.makespan_ms,
                    e.total_mj(),
                    e.mean_power_w,
                    s.describe(&platform, &workload)
                );
            }
            None => println!("{factor:>9.2}x   infeasible"),
        }
    }
    println!(
        "\nLoosening the budget drains work onto the DLA (a third of the GPU's\npJ/FLOP) at the cost of latency — the AxoNN trade-off on HaX-CoNN's\ncontention-aware timeline."
    );
}
