//! Table 8 — exhaustive evaluation of every DNN pair of the ten-model set
//! on AGX Orin: for each pair, the fastest baseline and the improvement
//! factor HaX-CoNN achieves over it (an `x` marks pairs where HaX-CoNN
//! correctly detects that the best baseline cannot be beaten and falls
//! back — "ensuring that HaX-CoNN does not underperform").
//!
//! As in the paper, iteration counts are balanced: "to balance out the
//! discrepancy, we increase the number of iterations for the faster DNN" —
//! the faster network is unrolled into `round(t_slow / t_fast)` instances
//! (all tied to one shared assignment), and throughput is total frames
//! over the makespan.
//!
//! The 55 pair-scheduling problems are independent, so the sweep fans out
//! across all CPUs.
//!
//! Shapes to reproduce: pairs involving GoogleNet improve; several VGG19
//! pairs fall back (`x`, DLA-hostile); the large majority of pairs improve
//! by modest factors (paper: 1.04x–1.32x, 35 of 45 pairs).

use haxconn_bench::{par_map, profile};
use haxconn_contention::ContentionModel;
use haxconn_core::baselines::{Baseline, BaselineKind};
use haxconn_core::measure::execute;
use haxconn_core::problem::{DnnTask, Objective, SchedulerConfig, Workload};
use haxconn_core::scheduler::HaxConn;
use haxconn_dnn::Model;
use haxconn_profiler::NetworkProfile;
use haxconn_soc::orin_agx;

struct Cell {
    i: usize,
    j: usize,
    best_name: String,
    factor: Option<f64>,
}

/// Builds the iteration-balanced workload for a pair of profiles.
fn balanced_workload(
    slow: (&str, &NetworkProfile),
    fast: (&str, &NetworkProfile),
    iterations: usize,
) -> Workload {
    let mut tasks = vec![DnnTask::new(slow.0, slow.1.clone())];
    for k in 0..iterations {
        tasks.push(DnnTask::new(format!("{}#{k}", fast.0), fast.1.clone()));
    }
    let mut w = Workload::concurrent(tasks);
    for k in 2..=iterations {
        w = w.with_tie(k, 1);
    }
    w
}

fn main() {
    let platform = orin_agx();
    let contention = ContentionModel::calibrate(&platform);
    let models = Model::table8_set();

    // Profile each model once, reuse across pairs.
    let profiles: Vec<NetworkProfile> = models.iter().map(|&m| profile(&platform, m)).collect();

    let pairs: Vec<(usize, usize)> = (0..models.len())
        .flat_map(|i| (0..=i).map(move |j| (i, j)))
        .collect();

    let cells: Vec<Cell> = par_map(&pairs, |&(i, j)| {
        // Balance iterations by standalone GPU time (cap at 4 to keep
        // the workload realistic for the multi-sensor use cases the
        // paper cites).
        let ti = profiles[i].standalone_ms(platform.gpu()).unwrap();
        let tj = profiles[j].standalone_ms(platform.gpu()).unwrap();
        let (si, sj) = if ti >= tj { (i, j) } else { (j, i) };
        let iters = ((ti.max(tj) / ti.min(tj)).round() as usize).clamp(1, 4);
        let workload = balanced_workload(
            (models[si].name(), &profiles[si]),
            (models[sj].name(), &profiles[sj]),
            iters,
        );
        let frames = (1 + iters) as f64;
        let throughput = |latency_ms: f64| 1000.0 * frames / latency_ms;

        let mut best_name = String::new();
        let mut best_tp = 0.0f64;
        for &kind in BaselineKind::all() {
            let a = Baseline::assignment(kind, &platform, &workload);
            let tp = throughput(execute(&platform, &workload, &a).makespan_ms);
            if tp > best_tp {
                best_tp = tp;
                best_name = kind.name().into();
            }
        }
        let schedule = HaxConn::schedule_validated(
            &platform,
            &workload,
            &contention,
            SchedulerConfig::with_objective(Objective::MinMaxLatency),
        );
        let hax_tp = throughput(execute(&platform, &workload, &schedule.assignment).makespan_ms);
        let f = hax_tp / best_tp;
        Cell {
            i,
            j,
            best_name,
            factor: if f > 1.005 { Some(f) } else { None },
        }
    });

    // Render the lower-triangular matrix.
    println!(
        "Table 8 — DNN pairs on {} (best baseline / HaX-CoNN improvement factor,\niteration-balanced throughput)\n",
        platform.name
    );
    print!("{:<14}", "");
    for (j, m) in models.iter().enumerate() {
        print!(
            "{:>10}",
            format!("{}-{}", j + 1, &m.name()[..m.name().len().min(6)])
        );
    }
    println!();
    for (i, m) in models.iter().enumerate() {
        print!("{:<14}", format!("{}-{}", i + 1, m.name()));
        for j in 0..=i {
            let c = cells
                .iter()
                .find(|c| c.i == i && c.j == j)
                .expect("cell computed");
            let label = match c.factor {
                Some(f) => format!("{} {f:.2}", &c.best_name[..c.best_name.len().min(3)]),
                None => format!("{} x", &c.best_name[..c.best_name.len().min(3)]),
            };
            print!("{label:>10}");
        }
        println!();
    }
    let wins = cells.iter().filter(|c| c.factor.is_some()).count();
    println!(
        "\nHaX-CoNN improves {wins}/{} pairs; the rest fall back to the best baseline (x).",
        cells.len()
    );
}
