//! Fig. 4 — illustration of contention intervals: five layers from three
//! DNNs on three accelerators, with per-interval slowdowns.
//!
//! The paper's figure is hypothetical; we reproduce it with a synthetic
//! three-accelerator platform (GPU + DLA + DSP behind one EMC) and print
//! the interval decomposition each layer experiences, showing that the
//! slowdown varies within a single layer's execution as co-runners come and
//! go.

use haxconn_core::interval::{contention_intervals, Interval};
use haxconn_soc::{orin_agx, replay, DesWork, LayerCost, PuKind, PuSpec, WorkItem};

fn item(pu: usize, time_ms: f64, demand: f64) -> WorkItem {
    WorkItem {
        pu,
        cost: LayerCost::pure_memory(time_ms, demand * time_ms * 1e6),
    }
}

fn main() {
    // Three-accelerator SoC: extend Orin with a vision DSP sharing the EMC.
    let mut platform = orin_agx();
    platform.pus.push(PuSpec {
        kind: PuKind::Dsp,
        name: "vision DSP".into(),
        peak_gflops: 2_000.0,
        max_bw_gbps: 40.0,
        onchip_kib: 512.0,
        launch_us: 10.0,
        reformat_gbps: 12.0,
    });

    // Five layers, three DNNs, three accelerators (Fig. 4's L11..L13, L21,
    // L31 layout).
    let names = ["DNN1", "DNN2", "DNN3"];
    let mut work = DesWork::new();
    work.push_chain([item(0, 2.0, 120.0), item(0, 3.0, 90.0), item(0, 1.5, 60.0)]);
    work.push_chain([item(1, 4.5, 70.0)]);
    work.push_chain([item(2, 3.5, 38.0)]);
    let result = replay(&platform, &work, 1);
    let records = result.by_task();

    println!("Fig. 4: contention intervals on a 3-accelerator SoC\n");
    let mut all: Vec<(String, usize, Interval)> = Vec::new();
    for r in &records {
        all.push((
            format!("L{}{}", r.item + 1, r.task + 1),
            r.pu,
            Interval::new(r.start_ms, r.end_ms),
        ));
    }
    for (name, pu, iv) in &all {
        let others: Vec<Interval> = all
            .iter()
            .filter(|(n, p, _)| n != name && p != pu)
            .map(|(_, _, o)| *o)
            .collect();
        let pieces = contention_intervals(*iv, &others);
        let desc: Vec<String> = pieces
            .iter()
            .map(|p| {
                let co: Vec<&str> = all
                    .iter()
                    .filter(|(n, q, o)| n != name && q != pu && o.contains(0.5 * (p.start + p.end)))
                    .map(|(n, _, _)| n.as_str())
                    .collect();
                format!(
                    "[{:.2}..{:.2} with {}]",
                    p.start,
                    p.end,
                    if co.is_empty() {
                        "nobody".to_string()
                    } else {
                        co.join("+")
                    }
                )
            })
            .collect();
        println!(
            "{name} on {}: {:.2}..{:.2} ms  intervals: {}",
            platform.pus[*pu].kind,
            iv.start,
            iv.end,
            desc.join(" ")
        );
    }
    println!("\nper-layer realized slowdowns (black vs colored regions of Fig. 4):");
    for r in &records {
        let cost = &work.item(r).cost;
        println!(
            "  {} layer {}: standalone {:.2} ms -> {:.2} ms (x{:.2})",
            names[r.task],
            r.item + 1,
            cost.time_ms,
            r.end_ms - r.start_ms,
            r.slowdown(cost)
        );
    }
    println!(
        "\nmakespan {:.2} ms, EMC mean {:.1} GB/s (peak {:.1})",
        result.makespan_ms, result.emc_mean_gbps, result.emc_peak_gbps
    );
}
