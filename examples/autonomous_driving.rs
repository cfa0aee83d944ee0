//! An autonomous-driving perception loop (the paper's Scenario 4):
//! an object detector feeds an object tracker (streaming dependency) while
//! a semantic-segmentation network runs in parallel on the same SoC.
//!
//! Demonstrates hybrid concurrent + pipelined workloads, the MinMaxLatency
//! objective, and per-task breakdowns on Xavier AGX.
//!
//! Run with: `cargo run --release --example autonomous_driving`

use haxconn::prelude::*;

fn main() {
    let platform = xavier_agx();
    let contention = ContentionModel::calibrate(&platform);
    println!("platform: {}\n", platform.name);

    // Perception stack: detect (ResNet101) -> track (GoogleNet), with
    // FCN-ResNet18 segmentation running concurrently — experiment 5/8 of
    // Table 6 is this shape.
    let workload = Workload::concurrent(vec![
        DnnTask::new(
            "detector",
            NetworkProfile::profile(&platform, Model::ResNet101, 10),
        ),
        DnnTask::new(
            "tracker",
            NetworkProfile::profile(&platform, Model::GoogleNet, 10),
        ),
        DnnTask::new(
            "segmentation",
            NetworkProfile::profile(&platform, Model::FcnResNet18, 10),
        ),
    ])
    .with_dep(0, 1); // tracker consumes the detector's output

    let config = SchedulerConfig {
        objective: Objective::MinMaxLatency,
        ..Default::default()
    };

    println!(
        "{:<10} {:>10} {:>8}   per-task completion (ms)",
        "scheduler", "lat (ms)", "fps"
    );
    let mut best_baseline = f64::INFINITY;
    for &kind in BaselineKind::all() {
        let a = Baseline::assignment(kind, &platform, &workload);
        let m = execute(&platform, &workload, &a);
        best_baseline = best_baseline.min(m.makespan_ms);
        let per: Vec<String> = m
            .task_latency_ms
            .iter()
            .map(|t| format!("{t:.2}"))
            .collect();
        println!(
            "{:<10} {:>10.2} {:>8.1}   [{}]",
            kind.name(),
            m.makespan_ms,
            m.fps(),
            per.join(", ")
        );
    }

    let schedule = HaxConn::schedule(&platform, &workload, &contention, config);
    let m = execute(&platform, &workload, &schedule.assignment);
    let per: Vec<String> = m
        .task_latency_ms
        .iter()
        .map(|t| format!("{t:.2}"))
        .collect();
    println!(
        "{:<10} {:>10.2} {:>8.1}   [{}]",
        "HaX-CoNN",
        m.makespan_ms,
        m.fps(),
        per.join(", ")
    );
    println!(
        "\nschedule: {}\nimprovement over best baseline: {:.1}%",
        schedule.describe(&platform, &workload),
        100.0 * (best_baseline - m.makespan_ms) / best_baseline
    );

    // Sanity: the loop deadline for a 30 FPS camera is 33.3 ms per frame.
    let deadline_ms = 1000.0 / 30.0;
    println!(
        "30 FPS perception deadline ({deadline_ms:.1} ms): {}",
        if m.makespan_ms <= deadline_ms {
            "MET"
        } else {
            "MISSED"
        }
    );

    // Stream admission: run the loop continuously and check whether the
    // camera can be serviced without dropping frames.
    use haxconn::runtime::{execute_loop, simulate_stream, StreamConfig};
    let frames = 8;
    let run = execute_loop(&platform, &workload, &schedule.assignment, frames);
    let service_ms = run.makespan_ms / frames as f64;
    let report = simulate_stream(StreamConfig {
        period_ms: deadline_ms,
        service_ms,
        queue_capacity: 3,
        frames: 900, // 30 seconds of driving
    });
    println!(
        "
30 s camera stream @30FPS: service {:.2} ms/frame, {} processed, {} dropped ({:.1}%), worst latency {:.1} ms",
        service_ms,
        report.processed,
        report.dropped,
        100.0 * report.drop_rate(),
        report.worst_latency_ms
    );
}
