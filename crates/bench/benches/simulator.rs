//! Bench: contention-replay throughput — full-workload measurement cost
//! (one `execute` call = what every Table 6/8 data point costs) and raw
//! event rate of the replay on synthetic chains.

use haxconn_bench::microbench::Runner;
use haxconn_core::baselines::{Baseline, BaselineKind};
use haxconn_core::measure::execute;
use haxconn_core::problem::{DnnTask, Workload};
use haxconn_dnn::Model;
use haxconn_profiler::NetworkProfile;
use haxconn_soc::{orin_agx, replay, DesWork, LayerCost, WorkItem};
use std::hint::black_box;

fn main() {
    let runner = Runner::from_args();
    let platform = orin_agx();

    // Full measurement path of a realistic pair.
    let workload = Workload::concurrent(vec![
        DnnTask::new(
            "GoogleNet",
            NetworkProfile::profile(&platform, Model::GoogleNet, 10),
        ),
        DnnTask::new(
            "ResNet101",
            NetworkProfile::profile(&platform, Model::ResNet101, 10),
        ),
    ]);
    let assignment = Baseline::assignment(BaselineKind::NaiveSplit, &platform, &workload);
    runner.bench("measure_pair", || {
        black_box(execute(&platform, &workload, &assignment))
    });

    // Raw event rate on synthetic jobs.
    for &n in &[32usize, 128, 512] {
        let mut work = DesWork::new();
        for j in 0..4 {
            work.push_chain((0..n / 4).map(|i| WorkItem {
                pu: (i + j) % 2,
                cost: LayerCost::pure_memory(
                    0.05 + (i % 7) as f64 * 0.03,
                    (10.0 + (i % 11) as f64 * 8.0) * 1e5,
                ),
            }));
        }
        runner.bench(&format!("replay_items/{n}"), || {
            black_box(replay(&platform, &work, 1))
        });
    }
}
