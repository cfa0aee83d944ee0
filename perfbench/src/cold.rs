//! `cold-solves`: a closed loop on one connection where every request is
//! a distinct seeded spec, so every request solves and, once more specs
//! were served than the cache holds, every insert evicts.

use crate::common::*;
use crate::gen::ColdSpecs;
use crate::layers::{self, ServedBefore, TracedRun};
use crate::stats::{min_samples_for_p99, Records};
use crate::tracer::Tracer;
use haxconn::api::ScheduleResponse;
use haxconn::core::engine::{Engine, EngineOptions};
use haxconn::serve::client::Client;
use haxconn::serve::ServerHandle;
use std::time::Duration;

/// Leading specs the quality figures cover (a fixed prefix, so they do
/// not depend on how many requests a run completes).
const QUALITY_SPECS: usize = 1024;

/// Leading specs the layer pass reconstructs.
const LAYER_SPECS: usize = 96;

/// What the output check compares of one served request: whether it
/// was a cache hit and the [`fingerprint`] of its schedule; `None` when
/// the request failed or the body did not parse. Fixed-size, so the
/// storage for a run is allocated and touched before it starts.
type Served = Option<(bool, u64)>;

/// Requests per second the served-record storage is sized for.
const MAX_RATE: f64 = 2_000.0;

fn phase(
    client: &mut Client,
    specs: &mut ColdSpecs,
    served: &mut Vec<Served>,
    dur: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Result<Phase, String> {
    let capacity = (dur.as_secs_f64() * MAX_RATE) as usize;
    let mut failure = None;
    let phase = closed_loop(
        dur,
        min_samples_for_p99().max(QUALITY_SPECS),
        capacity,
        |i, start| {
            let spec = specs.next().expect("the cold stream is endless");
            let body = match spec.to_json() {
                Ok(b) => b,
                Err(e) => {
                    failure.get_or_insert(e.to_string());
                    String::new()
                }
            };
            let (op, reply) = timed_request(
                client,
                "/v1/schedule",
                &body,
                i,
                start,
                tracer.as_deref_mut(),
                "client.schedule",
            );
            served.push(reply.and_then(|(_, b)| {
                let wire = serde_json::from_str::<ScheduleResponse>(&b).ok()?;
                Some((
                    wire.cached,
                    fingerprint(&wire.assignment, wire.cost, wire.makespan_ms),
                ))
            }));
            op
        },
    );
    match failure {
        Some(e) => Err(e),
        None => Ok(phase),
    }
}

/// Boots the server and calibrates every platform context, [`SETUP_REPS`]
/// times; returns the last server with its connection, and the set-up
/// figure.
fn setup() -> Result<((ServerHandle, Client), f64), String> {
    let warm: Vec<String> = warm_specs()
        .iter()
        .map(|s| s.to_json().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    set_up(|| {
        let server = boot()?;
        let mut client = connect(&server)?;
        for body in &warm {
            post_ok(&mut client, "/v1/schedule", body)?;
        }
        Ok((server, client))
    })
}

/// The set-up figure of one process, for `setup_s`.
pub fn setup_only() -> Result<f64, String> {
    let ((server, client), setup_s) = setup()?;
    drop(client);
    server.stop();
    Ok(setup_s)
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let ((server, mut client), setup_s) = setup()?;
    let mut records = Records {
        setup_s: vec![setup_s],
        ..Records::default()
    };

    let mut specs = ColdSpecs::new(cfg.seed);
    let mut served: Vec<Served> = resident(None, (cfg.seconds.as_secs_f64() * MAX_RATE) as usize);
    let mut tracer = cfg.trace.then(Tracer::default);
    let mut untraced_ops_s = 0.0;
    if cfg.trace {
        untraced_ops_s =
            phase(&mut client, &mut specs, &mut served, cfg.seconds / 2, None)?.throughput();
    }
    let first_timed = served.len();
    let before = ServedBefore::read(&server);
    let dur = if cfg.trace {
        cfg.seconds / 2
    } else {
        cfg.seconds
    };
    let timed = phase(&mut client, &mut specs, &mut served, dur, tracer.as_mut())?;
    let traced_ops_s = timed.throughput();
    let client_p50_us = if cfg.trace {
        timed.median_latency_us()
    } else {
        0.0
    };
    let view = before.view(&server, &mut client, timed.mean_latency_us())?;
    drop(client);
    server.stop();

    // Every served schedule equals a fresh in-process solve of the same
    // spec, regenerated from the seed.
    let fresh = Engine::new(EngineOptions::default());
    let mut problems = Vec::new();
    let mut bad = vec![false; served.len()];
    let mut layer_specs = Vec::with_capacity(LAYER_SPECS);
    for (i, (spec, got)) in ColdSpecs::new(cfg.seed).zip(&served).enumerate() {
        let out = fresh.schedule(&spec).map_err(|e| e.to_string())?;
        let s = out.schedule();
        let want = fingerprint(&s.assignment, s.cost, s.predicted.makespan_ms);
        if *got != Some((false, want)) {
            bad[i] = true;
            problems.push(format!(
                "cold-solves: request {i} differs from a fresh solve"
            ));
        }
        if i < QUALITY_SPECS {
            let (platform, workload) = spec.resolve().map_err(|e| e.to_string())?;
            des_quality(&platform, &workload, &s.assignment, &mut records);
        }
        if i >= first_timed && layer_specs.len() < LAYER_SPECS {
            layer_specs.push(spec);
        }
    }
    records.ops = timed.ops;
    for (op, &b) in records.ops.iter_mut().zip(&bad[first_timed..]) {
        op.ok &= !b;
    }
    records.wall_s = timed.wall_s;

    let mut report = None;
    if let Some(t) = tracer.as_mut() {
        let pass = layers::run(&derived_inputs(cfg.seed, layer_specs)?, t)?;
        report = Some(layers::report(
            pass,
            &TracedRun {
                own: Some(&view),
                untraced_ops_s,
                traced_ops_s,
                primary: "solve",
                client_p50_us,
            },
        ));
    }
    Ok(Outcome {
        records,
        problems,
        layers: report,
        tracer,
    })
}
