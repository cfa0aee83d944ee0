//! Bit-exact golden reports for `execute` / `execute_loop`.
//!
//! The replay is deterministic, so its reports are pinned to the bit
//! patterns of every float, not to a tolerance. Each golden row is a
//! fixed schedule (baseline assignments only, so a solver change cannot
//! move it) and the expected `to_bits` of makespan, fps and mean EMC
//! traffic, plus an FNV-1a fingerprint over the per-task latencies, per-PU
//! busy times and every item record `(token, pu, start, end)`.
//!
//! The rows were recorded from the replay before the engine moved into
//! `haxconn-soc`; moving it must not move a bit. To regenerate after a
//! deliberate model change, run
//! `GOLDEN_PRINT=1 cargo test -p haxconn-runtime --test goldens -- --nocapture`
//! and paste the printed rows.

use haxconn_core::baselines::{Baseline, BaselineKind};
use haxconn_core::problem::{DnnTask, Workload};
use haxconn_dnn::Model;
use haxconn_profiler::NetworkProfile;
use haxconn_runtime::{execute, execute_loop, ExecutionReport};
use haxconn_soc::{orin_agx, xavier_agx, Platform};

struct Golden {
    name: &'static str,
    makespan: u64,
    fps: u64,
    emc_mean: u64,
    items: usize,
    fingerprint: u64,
}

const GOLDENS: &[Golden] = &[
    Golden {
        name: "concurrent_herald",
        makespan: 0x4013e20f0aa2f623,
        fps: 0x407ad51ecfaefc22,
        emc_mean: 0x40543e19d50f5cb9,
        items: 32,
        fingerprint: 0xc01929a461419486,
    },
    Golden {
        name: "concurrent_gpu_only",
        makespan: 0x4012b6ed98361fe4,
        fps: 0x407ca2bd4ab9b786,
        emc_mean: 0x4054f7bd1aa01ccf,
        items: 16,
        fingerprint: 0xc7fdf1d6456c9224,
    },
    Golden {
        name: "pipeline_naive_split",
        makespan: 0x4001ef2ebd1cecf9,
        fps: 0x409308132be9c105,
        emc_mean: 0x404bdb9c70570c57,
        items: 14,
        fingerprint: 0x431c6200829a216e,
    },
    Golden {
        name: "tie_prone_naive_split",
        makespan: 0x40103397dfb62e31,
        fps: 0x4080bd5f18cfdd2f,
        emc_mean: 0x405814fc90c38047,
        items: 22,
        fingerprint: 0xbf246219aff7843b,
    },
    Golden {
        name: "xavier_trio_mensa",
        makespan: 0x4014747fbbc97945,
        fps: 0x4083f00cb50b039a,
        emc_mean: 0x40483d45dd36a1e5,
        items: 24,
        fingerprint: 0x9fb73a3f9c0819a5,
    },
    Golden {
        name: "loop_4_frames",
        makespan: 0x4016d737c0086371,
        fps: 0x4095e40863685de9,
        emc_mean: 0x405531ba67e7f24d,
        items: 72,
        fingerprint: 0xa730b3a645a93ba1,
    },
];

fn fnv(h: u64, x: u64) -> u64 {
    let mut h = h;
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn fingerprint(r: &ExecutionReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for l in &r.task_latency_ms {
        h = fnv(h, l.to_bits());
    }
    for b in &r.pu_busy_ms {
        h = fnv(h, b.to_bits());
    }
    for rec in &r.records {
        h = fnv(h, rec.token);
        h = fnv(h, rec.pu as u64);
        h = fnv(h, rec.start_ms.to_bits());
        h = fnv(h, rec.end_ms.to_bits());
    }
    h
}

fn workload(p: &Platform, models: &[Model], groups: usize, pipeline: bool) -> Workload {
    let tasks = models
        .iter()
        .map(|&m| DnnTask::new(m.name(), NetworkProfile::profile(p, m, groups)))
        .collect();
    if pipeline {
        Workload::pipeline(tasks)
    } else {
        Workload::concurrent(tasks)
    }
}

/// The fixed schedules: concurrent, pipeline, tie-prone NaiveSplit and a
/// 4-frame loop.
fn reports() -> Vec<(&'static str, ExecutionReport)> {
    let orin = orin_agx();
    let xavier = xavier_agx();
    let conc = workload(&orin, &[Model::GoogleNet, Model::ResNet101], 8, false);
    let pipe = workload(&orin, &[Model::ResNet18, Model::GoogleNet], 6, true);
    let trio = workload(
        &xavier,
        &[Model::ResNet18, Model::GoogleNet, Model::AlexNet],
        8,
        false,
    );
    let loop_w = workload(&orin, &[Model::GoogleNet, Model::ResNet18], 8, false);
    let a = |kind, p: &Platform, w: &Workload| Baseline::assignment(kind, p, w);
    vec![
        (
            "concurrent_herald",
            execute(&orin, &conc, &a(BaselineKind::HeraldLike, &orin, &conc)),
        ),
        (
            "concurrent_gpu_only",
            execute(&orin, &conc, &a(BaselineKind::GpuOnly, &orin, &conc)),
        ),
        (
            "pipeline_naive_split",
            execute(&orin, &pipe, &a(BaselineKind::NaiveSplit, &orin, &pipe)),
        ),
        (
            "tie_prone_naive_split",
            execute(&orin, &conc, &a(BaselineKind::NaiveSplit, &orin, &conc)),
        ),
        (
            "xavier_trio_mensa",
            execute(
                &xavier,
                &trio,
                &a(BaselineKind::MensaGreedy, &xavier, &trio),
            ),
        ),
        (
            "loop_4_frames",
            execute_loop(
                &orin,
                &loop_w,
                &a(BaselineKind::NaiveSplit, &orin, &loop_w),
                4,
            ),
        ),
    ]
}

#[test]
fn execute_reports_match_goldens_bit_for_bit() {
    let got = reports();
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        for (name, r) in &got {
            println!(
                "    Golden {{ name: {name:?}, makespan: {:#x}, fps: {:#x}, emc_mean: {:#x}, items: {}, fingerprint: {:#x} }},",
                r.makespan_ms.to_bits(),
                r.fps.to_bits(),
                r.emc_mean_gbps.to_bits(),
                r.items_executed,
                fingerprint(r)
            );
        }
        return;
    }
    assert_eq!(got.len(), GOLDENS.len());
    for ((name, r), g) in got.iter().zip(GOLDENS) {
        assert_eq!(*name, g.name);
        assert_eq!(r.makespan_ms.to_bits(), g.makespan, "{name}: makespan");
        assert_eq!(r.fps.to_bits(), g.fps, "{name}: fps");
        assert_eq!(r.emc_mean_gbps.to_bits(), g.emc_mean, "{name}: emc mean");
        assert_eq!(r.items_executed, g.items, "{name}: items");
        assert_eq!(fingerprint(r), g.fingerprint, "{name}: fingerprint");
    }
}
