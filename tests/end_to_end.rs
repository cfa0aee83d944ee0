//! Integration tests spanning the whole stack: profile → schedule →
//! measure → execute concurrently.

use haxconn::prelude::*;

fn workload(platform: &Platform, models: &[Model], groups: usize) -> Workload {
    Workload::concurrent(
        models
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                DnnTask::new(
                    format!("{}#{i}", m.name()),
                    NetworkProfile::profile(platform, m, groups),
                )
            })
            .collect(),
    )
}

/// The headline property: on every platform, for a representative set of
/// DNN pairs, the validated HaX-CoNN schedule is never worse than any
/// baseline, measured on the ground-truth contention replay.
#[test]
fn never_worse_than_baselines_across_platforms() {
    let pairs = [
        (Model::GoogleNet, Model::ResNet101),
        (Model::Vgg19, Model::ResNet152),
    ];
    for id in PlatformId::all() {
        let platform = id.platform();
        let contention = ContentionModel::calibrate(&platform);
        for &(a, b) in &pairs {
            let w = workload(&platform, &[a, b], 8);
            let s =
                HaxConn::schedule_validated(&platform, &w, &contention, SchedulerConfig::default());
            let hax = measure(&platform, &w, &s.assignment).latency_ms;
            for &kind in BaselineKind::all() {
                let assignment = Baseline::assignment(kind, &platform, &w);
                let base = measure(&platform, &w, &assignment).latency_ms;
                assert!(
                    hax <= base + 1e-9,
                    "{} {a}+{b}: HaX-CoNN {hax:.3} worse than {kind} {base:.3}",
                    platform.name
                );
            }
        }
    }
}

/// Favorable pairs must show a *strict* improvement over every baseline —
/// the paper's headline result, end to end.
#[test]
fn favorable_pairs_show_real_gains() {
    let platform = xavier_agx();
    let contention = ContentionModel::calibrate(&platform);
    let w = workload(&platform, &[Model::Vgg19, Model::ResNet152], 10);
    let s = HaxConn::schedule_validated(&platform, &w, &contention, SchedulerConfig::default());
    let hax = measure(&platform, &w, &s.assignment).latency_ms;
    let mut best = f64::INFINITY;
    for &kind in BaselineKind::all() {
        let a = Baseline::assignment(kind, &platform, &w);
        best = best.min(measure(&platform, &w, &a).latency_ms);
    }
    let gain = 100.0 * (best - hax) / best;
    assert!(
        gain > 10.0,
        "expected a double-digit improvement on VGG19+ResNet152, got {gain:.1}%"
    );
    // And the schedule uses both accelerators with real transitions.
    assert!(!s.transitions(&w).is_empty());
}

/// The runtime's execution and the measurement are two views of one
/// contention replay: on the full pipeline they agree bit-for-bit.
#[test]
fn execution_agrees_with_measurement_bit_for_bit() {
    let platform = orin_agx();
    let contention = ContentionModel::calibrate(&platform);
    let w = workload(&platform, &[Model::GoogleNet, Model::ResNet101], 8);
    let s = HaxConn::schedule_validated(&platform, &w, &contention, SchedulerConfig::default());
    let m = measure(&platform, &w, &s.assignment);
    let run = execute(&platform, &w, &s.assignment);
    assert_eq!(run.makespan_ms.to_bits(), m.latency_ms.to_bits());
    assert_eq!(run.fps.to_bits(), m.fps.to_bits());
    assert_eq!(run.emc_mean_gbps.to_bits(), m.emc_mean_gbps.to_bits());
    for (a, b) in run.task_latency_ms.iter().zip(&m.task_latency_ms) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(run.records.len(), m.raw.records.len());
}

/// Prediction quality: the contention-interval timeline tracks the
/// measurement within a reasonable error band for collaborative schedules.
#[test]
fn prediction_tracks_measurement() {
    let platform = orin_agx();
    let contention = ContentionModel::calibrate(&platform);
    for models in [
        [Model::GoogleNet, Model::ResNet101],
        [Model::Vgg19, Model::ResNet152],
        [Model::ResNet50, Model::InceptionV4],
    ] {
        let w = workload(&platform, &models, 8);
        let s = HaxConn::schedule(&platform, &w, &contention, SchedulerConfig::default());
        let predicted = s
            .predicted
            .task_latency_ms
            .iter()
            .cloned()
            .fold(0.0, f64::max);
        let measured = measure(&platform, &w, &s.assignment).latency_ms;
        let rel = (predicted - measured).abs() / measured;
        assert!(
            rel < 0.15,
            "{models:?}: predicted {predicted:.3} vs measured {measured:.3} ({rel:.2})"
        );
    }
}

/// Streaming pipelines respect their dependency and tying machinery end to
/// end (the unrolled Scenario-3 workload of Table 6).
#[test]
fn pipeline_unroll_with_ties() {
    let platform = orin_agx();
    let contention = ContentionModel::calibrate(&platform);
    let pa = NetworkProfile::profile(&platform, Model::GoogleNet, 8);
    let pb = NetworkProfile::profile(&platform, Model::ResNet101, 8);
    let w = Workload::concurrent(vec![
        DnnTask::new("det#f0", pa.clone()),
        DnnTask::new("trk#f0", pb.clone()),
        DnnTask::new("det#f1", pa),
        DnnTask::new("trk#f1", pb),
    ])
    .with_dep(0, 1)
    .with_dep(2, 3)
    .with_tie(2, 0)
    .with_tie(3, 1);

    let s = HaxConn::schedule(&platform, &w, &contention, SchedulerConfig::default());
    // Tied tasks share the assignment row exactly.
    assert_eq!(s.assignment[0], s.assignment[2]);
    assert_eq!(s.assignment[1], s.assignment[3]);
    // Dependencies hold in the measurement.
    let m = measure(&platform, &w, &s.assignment);
    let chains = m.raw.by_task();
    let first = |t: usize| chains.iter().find(|r| r.task == t).unwrap().start_ms;
    let last = |t: usize| chains.iter().rfind(|r| r.task == t).unwrap().end_ms;
    assert!(first(1) >= last(0));
    assert!(first(3) >= last(2));
}

/// The dynamic scheduler converges to (at least) the static optimum and its
/// trace timestamps are monotone — Fig. 7's machinery.
#[test]
fn dynamic_scheduler_converges() {
    let platform = orin_agx();
    let contention = ContentionModel::calibrate(&platform);
    let w = workload(&platform, &[Model::GoogleNet, Model::ResNet152], 8);
    let cfg = SchedulerConfig::default();
    let d = DHaxConn::run(&platform, &w, &contention, cfg);
    let static_s = HaxConn::schedule(&platform, &w, &contention, cfg);
    assert!(d.best().cost <= static_s.cost + 1e-6);
    let mut prev = std::time::Duration::ZERO;
    for inc in &d.trace {
        assert!(inc.at >= prev);
        prev = inc.at;
    }
}

/// Profiles serialize/deserialize and still schedule identically — the
/// "offline profiling" artifact flow of the paper's artifact appendix.
#[test]
fn serialized_profiles_roundtrip_through_scheduling() {
    let platform = orin_agx();
    let contention = ContentionModel::calibrate(&platform);
    let prof = NetworkProfile::profile(&platform, Model::ResNet50, 8);
    let json = serde_json::to_string(&prof).expect("serialize");
    let back: NetworkProfile = serde_json::from_str(&json).expect("deserialize");
    let w1 = Workload::concurrent(vec![
        DnnTask::new("a", prof),
        DnnTask::new("b", NetworkProfile::profile(&platform, Model::GoogleNet, 8)),
    ]);
    let w2 = Workload::concurrent(vec![
        DnnTask::new("a", back),
        DnnTask::new("b", NetworkProfile::profile(&platform, Model::GoogleNet, 8)),
    ]);
    let s1 = HaxConn::schedule(&platform, &w1, &contention, SchedulerConfig::default());
    let s2 = HaxConn::schedule(&platform, &w2, &contention, SchedulerConfig::default());
    assert_eq!(s1.assignment, s2.assignment);
}
