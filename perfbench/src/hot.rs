//! `hot-hits`: a closed loop on one keep-alive connection, each request
//! a `POST /v1/schedule` drawn zipfian(1.0) from a warmed catalog, so
//! every request is a cache hit and the solver stays idle.

use crate::common::*;
use crate::gen::{hot_catalog, Rng, Zipf};
use crate::layers::{self, LayerInputs, ServedBefore, TracedRun};
use crate::stats::{min_samples_for_p99, Records};
use crate::tracer::Tracer;
use haxconn::api::ScheduleResponse;
use haxconn::core::engine::{Engine, EngineOptions};
use haxconn::serve::client::Client;
use haxconn::serve::ServerHandle;
use std::time::Duration;

/// Hit reconstructions in the layer pass (the first ops of the traced
/// half, in their order).
const LAYER_HITS: usize = 4000;

struct Loop<'a> {
    client: Client,
    bodies: &'a [String],
    zipf: Zipf,
    picks: Rng,
    /// First timed response per catalog entry; every later one must be
    /// byte-identical.
    reference: Vec<Option<String>>,
}

impl Loop<'_> {
    fn phase(&mut self, dur: Duration, mut tracer: Option<&mut Tracer>) -> (Phase, Vec<usize>) {
        let capacity = (dur.as_secs_f64() * 80_000.0) as usize;
        let mut picked = resident(usize::MAX, capacity);
        let phase = closed_loop(dur, min_samples_for_p99(), capacity, |i, start| {
            let idx = self.zipf.pick(&mut self.picks);
            let (mut op, reply) = timed_request(
                &mut self.client,
                "/v1/schedule",
                &self.bodies[idx],
                i,
                start,
                tracer.as_deref_mut(),
                "client.schedule",
            );
            if let Some((200, body)) = reply {
                let reference = self.reference[idx].get_or_insert_with(|| body.clone());
                op.ok &= *reference == body;
            }
            picked.push(idx);
            op
        });
        (phase, picked)
    }
}

/// Boots the server and warms the whole catalog, [`SETUP_REPS`] times;
/// returns the last server with its connection, and the set-up figure.
fn setup(bodies: &[String]) -> Result<((ServerHandle, Client), f64), String> {
    set_up(|| {
        let server = crate::pin::split(boot)?;
        let mut client = connect(&server)?;
        for body in bodies {
            post_ok(&mut client, "/v1/schedule", body)?;
        }
        Ok((server, client))
    })
}

/// The set-up figure of one process, for `setup_s`.
pub fn setup_only(cfg: &RunCfg) -> Result<f64, String> {
    let bodies = catalog_bodies(cfg.seed)?;
    let ((server, client), setup_s) = setup(&bodies)?;
    drop(client);
    server.stop();
    crate::pin::release();
    Ok(setup_s)
}

fn catalog_bodies(seed: u64) -> Result<Vec<String>, String> {
    hot_catalog(seed)
        .iter()
        .map(|s| s.to_json().map_err(|e| e.to_string()))
        .collect()
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let catalog = hot_catalog(cfg.seed);
    let bodies = catalog_bodies(cfg.seed)?;

    let ((server, client), setup_s) = setup(&bodies)?;
    let mut records = Records {
        setup_s: vec![setup_s],
        ..Records::default()
    };
    let mut lp = Loop {
        client,
        bodies: &bodies,
        zipf: Zipf::new(bodies.len()),
        picks: Rng::picks(cfg.seed),
        reference: vec![None; bodies.len()],
    };

    let mut tracer = cfg.trace.then(Tracer::default);
    let mut untraced_ops_s = 0.0;
    if cfg.trace {
        untraced_ops_s = lp.phase(cfg.seconds / 2, None).0.throughput();
    }
    let before = ServedBefore::read(&server);
    let dur = if cfg.trace {
        cfg.seconds / 2
    } else {
        cfg.seconds
    };
    let (phase, picked) = lp.phase(dur, tracer.as_mut());
    let traced_ops_s = phase.throughput();
    let client_p50_us = if cfg.trace {
        phase.median_latency_us()
    } else {
        0.0
    };
    let view = before.view(&server, &mut lp.client, phase.mean_latency_us())?;
    let engine_requests = server.engine().stats().requests;
    drop(lp.client);
    server.stop();
    crate::pin::release();

    let mut problems = Vec::new();
    // Every request of the timed phase must have been a cache hit.
    if view.hit_ratio != 1.0 {
        problems.push(format!(
            "hot-hits: cache hit ratio {} over the timed phase (engine saw {engine_requests} requests)",
            view.hit_ratio
        ));
    }
    // Every distinct served schedule equals a fresh in-process solve.
    let fresh = Engine::new(EngineOptions::default());
    let mut bad = vec![false; catalog.len()];
    for (idx, spec) in catalog.iter().enumerate() {
        let out = fresh.schedule(spec).map_err(|e| e.to_string())?;
        if let Some(body) = &lp.reference[idx] {
            let ok = serde_json::from_str::<ScheduleResponse>(body)
                .map(|wire| wire.cached && same_schedule(&wire, out.schedule()))
                .unwrap_or(false);
            if !ok {
                bad[idx] = true;
                problems.push(format!(
                    "hot-hits: catalog entry {idx} differs from a fresh solve"
                ));
            }
        }
        let (platform, workload) = spec.resolve().map_err(|e| e.to_string())?;
        des_quality(
            &platform,
            &workload,
            &out.schedule().assignment,
            &mut records,
        );
    }
    records.ops = phase.ops;
    for (op, &idx) in records.ops.iter_mut().zip(&picked) {
        op.ok &= !bad[idx];
    }
    records.wall_s = phase.wall_s;

    let mut report = None;
    if let Some(t) = tracer.as_mut() {
        let inputs = LayerInputs {
            hit_seq: picked.iter().copied().take(LAYER_HITS).collect(),
            ..derived_inputs(cfg.seed, catalog.clone())?
        };
        let pass = layers::run(&inputs, t)?;
        report = Some(layers::report(
            pass,
            &TracedRun {
                own: Some(&view),
                untraced_ops_s,
                traced_ops_s,
                primary: "hit",
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
