//! `arrivals`: seeded multi-tenant arrival traces replayed in process on
//! orin under the `Immediate` re-solve policy, in virtual time, back to
//! back. An op is a trace event; the latency samples are the solver wall
//! time of every re-solve (the time a workload change waits for its new
//! schedule), taken from the program's own telemetry spans.

use crate::common::*;
use crate::gen::{arrival_trace, TRACE_EVENTS};
use crate::layers::{self, LayerInputs, TracedRun};
use crate::stats::{min_samples_for_p99, quantile, Op, Records};
use crate::tracer::Tracer;
use haxconn::contention::ContentionModel;
use haxconn::core::arrival::{replay, ArrivalTrace, ReplayOptions, ResolveAction, TenantEvent};
use haxconn::core::problem::{DnnTask, Workload};
use haxconn::core::spec::WorkloadSpec;
use haxconn::profiler::NetworkProfile;
use haxconn::soc::Platform;
use haxconn::telemetry::MemoryRecorder;
use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

/// Leading replays the quality figures cover.
const QUALITY_ROUNDS: u64 = 2;

/// Distinct tenant mixes the layer pass reconstructs as specs.
const LAYER_SPECS: usize = 32;

struct Replayer<'a> {
    seed: u64,
    platform: &'a Platform,
    contention: &'a ContentionModel,
    recorder: &'a MemoryRecorder,
    first: &'a ArrivalTrace,
    round: u64,
    records: Records,
    problems: Vec<String>,
    /// Distinct adopted mixes already scored.
    mixes: BTreeSet<Vec<(String, usize)>>,
    profiles: HashMap<(String, usize), NetworkProfile>,
}

impl Replayer<'_> {
    /// Replays traces until `dur` has passed, enough re-solve samples
    /// exist for a p99 and the quality rounds are done.
    fn phase(
        &mut self,
        dur: Duration,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<(Phase, Vec<f64>), String> {
        let opts = ReplayOptions {
            validate: true,
            ..Default::default()
        };
        let mut ops = Vec::new();
        let mut latency_us = Vec::new();
        let start = Instant::now();
        while start.elapsed() < dur
            || latency_us.len() < min_samples_for_p99()
            || self.round < QUALITY_ROUNDS
        {
            let generated;
            let trace = if self.round == 0 {
                self.first
            } else {
                generated = arrival_trace(self.seed, self.round, TRACE_EVENTS);
                &generated
            };
            self.recorder.reset();
            let sent = Instant::now();
            let report =
                replay(self.platform, self.contention, trace, &opts).map_err(|e| e.to_string())?;
            let done = Instant::now();
            if let Some(t) = tracer.as_deref_mut() {
                t.record(self.round, None, "client.replay", sent, done);
            }
            latency_us.extend(
                self.recorder
                    .snapshot()
                    .spans
                    .iter()
                    .filter(|s| s.track == "solver")
                    .map(|s| s.dur_ms * 1e3),
            );
            let ok = report.violations == 0 && report.events == trace.len();
            if !ok {
                self.problems.push(format!(
                    "arrivals: round {} replayed {} of {} events with {} invariant violations",
                    self.round,
                    report.events,
                    trace.len(),
                    report.violations
                ));
            }
            if self.round < QUALITY_ROUNDS {
                self.score(trace, &report)?;
            }
            ops.push(Op {
                start_us: sent.duration_since(start).as_secs_f64() * 1e6,
                lat_us: done.duration_since(sent).as_secs_f64() * 1e6,
                units: trace.len() as u32,
                ok,
            });
            self.round += 1;
        }
        let phase = Phase {
            ops,
            wall_s: start.elapsed().as_secs_f64(),
        };
        Ok((phase, latency_us))
    }

    /// Quality figures of one replay: frame-weighted tenant latency, and
    /// the DES makespan of every newly solved tenant mix against its best
    /// baseline.
    fn score(
        &mut self,
        trace: &ArrivalTrace,
        report: &haxconn::core::arrival::TenantReport,
    ) -> Result<(), String> {
        for t in report.tenants.iter().filter(|t| t.frames > 0.0) {
            self.records
                .task_latency
                .push((t.frames, t.mean_latency_ms));
        }
        let tenants = tenant_table(trace);
        for point in report
            .resolve_points
            .iter()
            .filter(|p| p.action == ResolveAction::Solved)
        {
            let mix: Vec<(String, usize)> = point
                .tenants
                .iter()
                .map(|name| {
                    tenants
                        .get(name)
                        .cloned()
                        .ok_or(format!("unknown tenant {name}"))
                })
                .collect::<Result<_, _>>()?;
            if !self.mixes.insert(mix.clone()) {
                continue;
            }
            let tasks = mix
                .iter()
                .map(|(model, groups)| {
                    let m = haxconn::core::parse_model(model).map_err(|e| e.to_string())?;
                    let profile = self
                        .profiles
                        .entry((model.clone(), *groups))
                        .or_insert_with(|| NetworkProfile::profile(self.platform, m, *groups))
                        .clone();
                    Ok(DnnTask::new(model.clone(), profile))
                })
                .collect::<Result<Vec<_>, String>>()?;
            des_quality(
                self.platform,
                &Workload::concurrent(tasks),
                &point.assignment,
                &mut self.records,
            );
        }
        Ok(())
    }
}

/// Tenant name -> (model, groups) from a trace's joins.
fn tenant_table(trace: &ArrivalTrace) -> HashMap<String, (String, usize)> {
    trace
        .events
        .iter()
        .filter_map(|e| match &e.event {
            TenantEvent::Join { tenant } => {
                Some((tenant.name.clone(), (tenant.model.clone(), tenant.groups)))
            }
            _ => None,
        })
        .collect()
}

/// Generates the first trace and calibrates the platform's contention
/// model, [`SETUP_REPS`] times; returns the last of each, and the set-up
/// figure.
fn setup(cfg: &RunCfg) -> Result<((ArrivalTrace, Platform, ContentionModel), f64), String> {
    set_up(|| {
        let trace = arrival_trace(cfg.seed, 0, TRACE_EVENTS);
        let platform = haxconn::core::parse_platform("orin")
            .map_err(|e| e.to_string())?
            .platform();
        let contention = ContentionModel::calibrate(&platform);
        Ok((trace, platform, contention))
    })
}

/// The set-up figure of one process, for `setup_s`.
pub fn setup_only(cfg: &RunCfg) -> Result<f64, String> {
    setup(cfg).map(|(_, setup_s)| setup_s)
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let recorder = haxconn::telemetry::memory_recorder().ok_or("telemetry recorder unavailable")?;
    haxconn::telemetry::set_enabled(true);

    let ((first, platform, contention), setup_s) = setup(cfg)?;
    let mut rp = Replayer {
        seed: cfg.seed,
        platform: &platform,
        contention: &contention,
        recorder,
        first: &first,
        round: 0,
        records: Records {
            setup_s: vec![setup_s],
            ..Records::default()
        },
        problems: Vec::new(),
        mixes: BTreeSet::new(),
        profiles: HashMap::new(),
    };

    let mut tracer = cfg.trace.then(Tracer::default);
    let mut untraced_ops_s = 0.0;
    if cfg.trace {
        untraced_ops_s = rp.phase(cfg.seconds / 2, None)?.0.throughput();
    }
    let dur = if cfg.trace {
        cfg.seconds / 2
    } else {
        cfg.seconds
    };
    let (phase, latency_us) = rp.phase(dur, tracer.as_mut())?;
    let traced_ops_s = phase.throughput();
    let per_event_us: Vec<f64> = phase
        .ops
        .iter()
        .map(|o| o.lat_us / o.units as f64)
        .collect();
    let mut records = rp.records;
    records.ops = phase.ops;
    records.wall_s = phase.wall_s;
    records.latency_us = latency_us;

    let mut report = None;
    if let Some(t) = tracer.as_mut() {
        let mut sorted = per_event_us;
        sorted.sort_by(f64::total_cmp);
        let specs: Vec<WorkloadSpec> = rp
            .mixes
            .iter()
            .take(LAYER_SPECS)
            .map(|mix| {
                mix.iter()
                    .fold(WorkloadSpec::new("orin"), |s, (model, groups)| {
                        s.task(model.as_str(), *groups)
                    })
            })
            .collect();
        let inputs = LayerInputs {
            trace: first.clone(),
            ..derived_inputs(cfg.seed, specs)?
        };
        let pass = layers::run(&inputs, t)?;
        report = Some(layers::report(
            pass,
            &TracedRun {
                own: None,
                untraced_ops_s,
                traced_ops_s,
                primary: "arrival.replay",
                client_p50_us: quantile(&sorted, 0.5),
            },
        ));
    }
    Ok(Outcome {
        records,
        problems: rp.problems,
        layers: report,
        tracer,
    })
}
