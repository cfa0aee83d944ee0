//! Fig. 1 — the motivating case study: three ways of executing VGG-19 and
//! ResNet-101 in parallel on Xavier AGX.
//!
//! Case 1: serial execution on the GPU.
//! Case 2: naive concurrent execution (VGG-19 on GPU, ResNet-101 on DLA).
//! Case 3: HaX-CoNN's layer-level mapping with transition points.
//!
//! Paper values: 11.3 ms / 10.6 ms / 8.1 ms (implied by "considerably
//! improves"). The shape to reproduce: Case 2 barely improves on Case 1
//! because the DLA chain is long and contention slows both, while Case 3
//! clearly wins.

use haxconn_bench::{profile, transition_summary};
use haxconn_contention::ContentionModel;
use haxconn_core::baselines::{Baseline, BaselineKind};
use haxconn_core::measure::execute;
use haxconn_core::problem::{DnnTask, Objective, SchedulerConfig, Workload};
use haxconn_core::scheduler::HaxConn;
use haxconn_dnn::Model;
use haxconn_soc::xavier_agx;

fn main() {
    let platform = xavier_agx();
    let contention = ContentionModel::calibrate(&platform);
    let workload = Workload::concurrent(vec![
        DnnTask::new("VGG-19", profile(&platform, Model::Vgg19)),
        DnnTask::new("ResNet101", profile(&platform, Model::ResNet101)),
    ]);

    println!(
        "Fig. 1 case study: VGG-19 + ResNet-101 on {}\n",
        platform.name
    );

    // Case 1: serial on GPU.
    let case1 = Baseline::assignment(BaselineKind::GpuOnly, &platform, &workload);
    let m1 = execute(&platform, &workload, &case1);
    println!(
        "Case 1  serial GPU-only          : {:>6.2} ms",
        m1.makespan_ms
    );

    // Case 2: naive concurrent (whole-DNN split).
    let case2 = Baseline::assignment(BaselineKind::NaiveSplit, &platform, &workload);
    let m2 = execute(&platform, &workload, &case2);
    println!(
        "Case 2  naive concurrent (G+D)   : {:>6.2} ms",
        m2.makespan_ms
    );

    // Case 3: HaX-CoNN layer-level mapping.
    let schedule = HaxConn::schedule_validated(
        &platform,
        &workload,
        &contention,
        SchedulerConfig::with_objective(Objective::MinMaxLatency),
    );
    let m3 = execute(&platform, &workload, &schedule.assignment);
    println!(
        "Case 3  HaX-CoNN layer-level     : {:>6.2} ms",
        m3.makespan_ms
    );
    println!(
        "\ntransitions: {}",
        transition_summary(&platform, &workload, &schedule)
    );
    println!(
        "improvement: case3 vs case1 {:+.1}%, case3 vs case2 {:+.1}%",
        100.0 * (m1.makespan_ms - m3.makespan_ms) / m1.makespan_ms,
        100.0 * (m2.makespan_ms - m3.makespan_ms) / m2.makespan_ms,
    );
    println!(
        "\nPU busy (case 3): GPU {:.2} ms, DSA {:.2} ms (utilization {:.0}% / {:.0}%)",
        m3.pu_busy_ms[0],
        m3.pu_busy_ms[1],
        100.0 * m3.pu_busy_ms[0] / m3.makespan_ms,
        100.0 * m3.pu_busy_ms[1] / m3.makespan_ms
    );
}
