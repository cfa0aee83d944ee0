//! Design-space sensitivity sweep (extension beyond the paper): how does
//! HaX-CoNN's benefit over the best baseline change as the SoC's
//! architectural parameters move?
//!
//! Three one-dimensional sweeps around the Xavier AGX operating point, all
//! on the VGG19 + ResNet152 pair (Table 6 exp 1):
//!
//! 1. **DSA speed** — scaling the DLA's peak compute. Too slow and the
//!    scheduler correctly falls back to GPU-only (gain → 0); fast enough
//!    and collaboration pays.
//! 2. **EMC bandwidth** — scaling the shared-memory bandwidth. Contention
//!    dominates at the starved end and fades at the generous end.
//! 3. **Arbitration interference** — the strength of sub-saturation
//!    interference; stronger contention widens the gap between
//!    contention-aware and contention-blind scheduling.

use haxconn_bench::profile;
use haxconn_contention::ContentionModel;
use haxconn_core::baselines::{Baseline, BaselineKind};
use haxconn_core::measure::execute;
use haxconn_core::problem::{DnnTask, SchedulerConfig, Workload};
use haxconn_core::scheduler::HaxConn;
use haxconn_dnn::Model;
use haxconn_soc::{xavier_agx, Platform};

fn gain_on(platform: &Platform) -> (f64, f64) {
    let contention = ContentionModel::calibrate(platform);
    let workload = Workload::concurrent(vec![
        DnnTask::new("VGG19", profile(platform, Model::Vgg19)),
        DnnTask::new("ResNet152", profile(platform, Model::ResNet152)),
    ]);
    let mut best = f64::INFINITY;
    for &kind in BaselineKind::all() {
        let a = Baseline::assignment(kind, platform, &workload);
        best = best.min(execute(platform, &workload, &a).makespan_ms);
    }
    let s =
        HaxConn::schedule_validated(platform, &workload, &contention, SchedulerConfig::default());
    let hax = execute(platform, &workload, &s.assignment).makespan_ms;
    (hax, 100.0 * (best - hax) / best)
}

fn main() {
    println!("Sensitivity of HaX-CoNN's gain (VGG19+ResNet152, Xavier-class SoC)\n");

    println!("1) DSA compute scale (1.0 = NVDLA v1 baseline):");
    println!("{:>8} {:>12} {:>8}", "scale", "HaX (ms)", "gain");
    for scale in [0.25, 0.5, 0.75, 1.0, 1.5, 2.0] {
        let mut p = xavier_agx();
        p.pus[1].peak_gflops *= scale;
        let (ms, gain) = gain_on(&p);
        println!("{scale:>8.2} {ms:>12.2} {gain:>7.1}%");
    }

    println!("\n2) EMC bandwidth scale (1.0 = 136.5 GB/s LPDDR4x):");
    println!("{:>8} {:>12} {:>8}", "scale", "HaX (ms)", "gain");
    for scale in [0.5, 0.75, 1.0, 1.5, 2.0] {
        let mut p = xavier_agx();
        p.emc.bandwidth_gbps *= scale;
        for pu in &mut p.pus {
            pu.max_bw_gbps *= scale;
        }
        let (ms, gain) = gain_on(&p);
        println!("{scale:>8.2} {ms:>12.2} {gain:>7.1}%");
    }

    println!("\n3) EMC interference strength (0.55 = Xavier baseline):");
    println!("{:>8} {:>12} {:>8}", "interf", "HaX (ms)", "gain");
    for interference in [0.0, 0.2, 0.55, 0.8] {
        let mut p = xavier_agx();
        p.emc.interference = interference;
        let (ms, gain) = gain_on(&p);
        println!("{interference:>8.2} {ms:>12.2} {gain:>7.1}%");
    }

    println!(
        "\nExpected shapes: gain collapses toward 0 as the DSA becomes useless\n(scale 0.25) and grows as it strengthens; scarcer bandwidth raises\nabsolute latency; the validated scheduler never goes negative."
    );
}
