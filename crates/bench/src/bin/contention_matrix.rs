//! Contention matrix (extension): pairwise "who hurts whom" slowdowns on
//! Xavier AGX.
//!
//! Generalizes Fig. 6 from one victim (GoogleNet) to all of the Table-8
//! model set: cell (row, col) is the execution slowdown the ROW model
//! (pinned to the GPU) suffers while the COLUMN model runs on the DLA,
//! under naive co-location. The sweep fans out over all CPUs.
//!
//! Expected shapes: memory-heavy co-runners (VGG19, Inception) are the
//! worst aggressors; compute-dense ones (CaffeNet) the mildest; the matrix
//! is *not* symmetric — victimhood depends on the victim's own
//! memory-boundedness.

use haxconn_bench::{par_map, profile};
use haxconn_core::measure::{execute, task_slowdown};
use haxconn_core::problem::{DnnTask, Workload};
use haxconn_dnn::Model;
use haxconn_profiler::NetworkProfile;
use haxconn_soc::xavier_agx;

fn main() {
    let platform = xavier_agx();
    let models = [
        Model::CaffeNet,
        Model::GoogleNet,
        Model::ResNet18,
        Model::ResNet50,
        Model::ResNet101,
        Model::InceptionV4,
        Model::Vgg19,
    ];
    let profiles: Vec<NetworkProfile> = models.iter().map(|&m| profile(&platform, m)).collect();

    let pairs: Vec<(usize, usize)> = (0..models.len())
        .flat_map(|v| (0..models.len()).map(move |a| (v, a)))
        .collect();
    let cells: Vec<((usize, usize), f64)> = par_map(&pairs, |&(victim, aggressor)| {
        let w = Workload::concurrent(vec![
            DnnTask::new("victim", profiles[victim].clone()),
            DnnTask::new("aggressor", profiles[aggressor].clone()),
        ]);
        // Victim pinned to GPU; aggressor to DLA with GPU fallback.
        let assignment = vec![
            vec![platform.gpu(); w.tasks[0].num_groups()],
            w.tasks[1]
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
                .collect(),
        ];
        let m = execute(&platform, &w, &assignment);
        ((victim, aggressor), task_slowdown(&w, &assignment, &m)[0])
    });

    println!(
        "Contention matrix on {} — victim (rows, on GPU) execution slowdown\nunder aggressor (cols, on DLA), naive co-location:\n",
        platform.name
    );
    print!("{:<12}", "");
    for m in &models {
        print!("{:>9}", &m.name()[..m.name().len().min(8)]);
    }
    println!();
    for (v, vm) in models.iter().enumerate() {
        print!("{:<12}", vm.name());
        for a in 0..models.len() {
            let s = cells
                .iter()
                .find(|(k, _)| *k == (v, a))
                .expect("cell computed")
                .1;
            print!("{:>9.3}", s);
        }
        println!();
    }

    // Aggregate aggressor ranking.
    let mut agg: Vec<(usize, f64)> = (0..models.len())
        .map(|a| {
            let mean = cells
                .iter()
                .filter(|((_, ca), _)| *ca == a)
                .map(|(_, s)| s - 1.0)
                .sum::<f64>()
                / models.len() as f64;
            (a, mean)
        })
        .collect();
    agg.sort_by(|x, y| y.1.partial_cmp(&x.1).expect("no NaN"));
    println!("\naggressors ranked by mean inflicted slowdown:");
    for (a, mean) in agg {
        println!("  {:<12} +{:.2}%", models[a].name(), 100.0 * mean);
    }
}
