//! Fig. 6 — slowdown experienced by GoogleNet running on the GPU while
//! other DNNs run concurrently on the DLA of Xavier AGX, relative to its
//! standalone GPU execution; naive co-location vs HaX-CoNN.
//!
//! Shape to reproduce: every co-runner slows GoogleNet down (up to tens of
//! percent for the memory-hungry ones); HaX-CoNN significantly reduces the
//! contention slowdown in all cases (paper: by up to 45%).

use haxconn_bench::profile;
use haxconn_contention::ContentionModel;
use haxconn_core::measure::{execute, task_slowdown};
use haxconn_core::problem::{DnnTask, Objective, SchedulerConfig, Workload};
use haxconn_core::scheduler::HaxConn;
use haxconn_dnn::Model;
use haxconn_soc::xavier_agx;

fn main() {
    let platform = xavier_agx();
    let contention = ContentionModel::calibrate(&platform);
    let google = profile(&platform, Model::GoogleNet);
    let standalone = google.standalone_ms(platform.gpu()).expect("GPU runs all");

    let co_runners = [
        Model::CaffeNet,
        Model::DenseNet121,
        Model::InceptionResNetV2,
        Model::InceptionV4,
        Model::ResNet101,
        Model::ResNet152,
        Model::Vgg19,
    ];

    println!(
        "Fig. 6 — GoogleNet-on-GPU slowdown vs standalone ({standalone:.2} ms) on {}\n",
        platform.name
    );
    println!(
        "{:<12} {:>14} {:>14} {:>12}",
        "co-runner", "baseline slow", "HaX-CoNN slow", "reduction"
    );
    for m in co_runners {
        let workload = Workload::concurrent(vec![
            DnnTask::new("GoogleNet", google.clone()),
            DnnTask::new(m.name(), profile(&platform, m)),
        ]);
        // Baseline: naive co-location — GoogleNet pinned to GPU, co-runner
        // pinned to DLA (with GPU fallback for unsupported groups).
        let mut naive = vec![
            vec![platform.gpu(); workload.tasks[0].num_groups()],
            Vec::new(),
        ];
        naive[1] = workload.tasks[1]
            .profile
            .groups
            .iter()
            .map(|g| {
                if g.cost[platform.dsa()].is_some() {
                    platform.dsa()
                } else {
                    platform.gpu()
                }
            })
            .collect();
        let base = execute(&platform, &workload, &naive);
        // The paper's metric: how much slower GoogleNet's *execution*
        // becomes under contention (queuing excluded) relative to running
        // alone on the GPU.
        let base_slow = task_slowdown(&workload, &naive, &base)[0];

        let schedule = HaxConn::schedule_validated(
            &platform,
            &workload,
            &contention,
            SchedulerConfig::with_objective(Objective::MinMaxLatency),
        );
        let hax = execute(&platform, &workload, &schedule.assignment);
        let hax_slow = task_slowdown(&workload, &schedule.assignment, &hax)[0];
        println!(
            "{:<12} {:>13.3}x {:>13.3}x {:>11.0}%",
            m.name(),
            base_slow,
            hax_slow,
            100.0 * (base_slow - hax_slow) / (base_slow - 1.0).max(1e-9)
        );
    }
    println!("\n(slowdown includes contention and any queuing GoogleNet's GPU groups suffer)");
}
