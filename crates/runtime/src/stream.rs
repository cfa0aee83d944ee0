//! Camera-stream admission analysis on the discrete-event engine.
//!
//! Autonomous perception loops consume a fixed-rate sensor stream (a 30 FPS
//! camera). Whether a schedule *keeps up* is not just a throughput number:
//! if per-frame service time exceeds the frame period, a bounded input
//! queue builds up and frames must be dropped. This module simulates that
//! admission behaviour with the `haxconn-des` engine: periodic frame
//! arrivals feed a bounded queue drained by a server whose service time is
//! the schedule's measured steady-state per-frame latency.

use haxconn_core::HaxError;
use haxconn_des::{Engine, EventQueue, SimModel, SimTime};
use std::collections::VecDeque;

/// Configuration of a stream run.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Frame arrival period, ms (33.3 for a 30 FPS camera).
    pub period_ms: f64,
    /// Per-frame service time of the pipeline, ms (e.g. from
    /// [`crate::execute_loop`]'s steady state: `1000 / fps * tasks`).
    pub service_ms: f64,
    /// Input queue capacity in frames; arrivals beyond this are dropped
    /// (real camera drivers hold only a few buffers).
    pub queue_capacity: usize,
    /// Number of frames to simulate.
    pub frames: usize,
}

/// Outcome of a stream simulation.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Frames fully processed.
    pub processed: usize,
    /// Frames dropped at the full queue.
    pub dropped: usize,
    /// Worst observed end-to-end latency (arrival → completion), ms.
    pub worst_latency_ms: f64,
    /// Mean end-to-end latency of processed frames, ms.
    pub mean_latency_ms: f64,
    /// Total simulated time, ms.
    pub horizon_ms: f64,
}

impl StreamReport {
    /// Fraction of frames dropped.
    pub fn drop_rate(&self) -> f64 {
        let total = self.processed + self.dropped;
        if total == 0 {
            0.0
        } else {
            self.dropped as f64 / total as f64
        }
    }
}

enum Ev {
    Arrival(usize),
    Departure,
}

struct Model {
    cfg: StreamConfig,
    queue: VecDeque<(usize, SimTime)>, // (frame id, arrival time)
    busy: bool,
    processed: usize,
    dropped: usize,
    latency_sum: f64,
    worst: f64,
}

impl SimModel for Model {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, queue: &mut EventQueue<Ev>) {
        match event {
            Ev::Arrival(id) => {
                if id + 1 < self.cfg.frames {
                    queue.schedule(
                        now + SimTime::from_ms(self.cfg.period_ms),
                        Ev::Arrival(id + 1),
                    );
                }
                if self.queue.len() >= self.cfg.queue_capacity {
                    self.dropped += 1;
                    return;
                }
                self.queue.push_back((id, now));
                if haxconn_telemetry::enabled() {
                    haxconn_telemetry::series_record(
                        "stream.queue_depth",
                        now.as_ms(),
                        self.queue.len() as f64,
                    );
                }
                if !self.busy {
                    self.busy = true;
                    queue.schedule(now + SimTime::from_ms(self.cfg.service_ms), Ev::Departure);
                }
            }
            Ev::Departure => {
                let (_, arrived) = self
                    .queue
                    .pop_front()
                    .expect("departure fired with an empty queue");
                let latency = (now - arrived).as_ms();
                self.latency_sum += latency;
                self.worst = self.worst.max(latency);
                self.processed += 1;
                if haxconn_telemetry::enabled() {
                    haxconn_telemetry::histogram_record("stream.latency_ms", latency);
                    haxconn_telemetry::series_record(
                        "stream.queue_depth",
                        now.as_ms(),
                        self.queue.len() as f64,
                    );
                }
                if self.queue.is_empty() {
                    self.busy = false;
                } else {
                    queue.schedule(now + SimTime::from_ms(self.cfg.service_ms), Ev::Departure);
                }
            }
        }
    }
}

/// Simulates the admission behaviour of a pipeline under a periodic frame
/// stream.
///
/// Panicking wrapper around [`try_simulate_stream`] for callers that have
/// already validated their configuration.
pub fn simulate_stream(cfg: StreamConfig) -> StreamReport {
    match try_simulate_stream(cfg) {
        Ok(report) => report,
        Err(e) => panic!("{e}"),
    }
}

/// Simulates the admission behaviour of a pipeline under a periodic frame
/// stream, rejecting invalid configurations instead of panicking.
pub fn try_simulate_stream(cfg: StreamConfig) -> Result<StreamReport, HaxError> {
    if cfg.frames == 0 {
        return Err(HaxError::InvalidConfig(
            "stream needs at least one frame".into(),
        ));
    }
    if cfg.period_ms <= 0.0 || !cfg.period_ms.is_finite() {
        return Err(HaxError::InvalidConfig(format!(
            "stream period must be positive and finite, got {}",
            cfg.period_ms
        )));
    }
    if cfg.service_ms <= 0.0 || !cfg.service_ms.is_finite() {
        return Err(HaxError::InvalidConfig(format!(
            "stream service time must be positive and finite, got {}",
            cfg.service_ms
        )));
    }
    // queue_capacity == 0 is a valid degenerate configuration — no frame
    // buffer means every arrival is dropped and `processed` stays 0, which
    // is exactly the case the latency aggregation below must survive.
    let mut engine = Engine::new(Model {
        cfg,
        queue: VecDeque::new(),
        busy: false,
        processed: 0,
        dropped: 0,
        latency_sum: 0.0,
        worst: 0.0,
    });
    engine.schedule(SimTime::ZERO, Ev::Arrival(0));
    let end = engine.run();
    let m = engine.into_model();
    // Mirror the fps guard of `ExecutionReport::fps`: with zero processed frames
    // there are no latency observations, so both aggregates pin to 0.0
    // instead of dividing by zero or reporting a stale accumulator.
    let (worst, mean) = if m.processed > 0 {
        (m.worst, m.latency_sum / m.processed as f64)
    } else {
        (0.0, 0.0)
    };
    let report = StreamReport {
        processed: m.processed,
        dropped: m.dropped,
        worst_latency_ms: worst,
        mean_latency_ms: mean,
        horizon_ms: end.as_ms(),
    };
    if haxconn_telemetry::enabled() {
        use haxconn_telemetry as t;
        t::counter_add("stream.runs", 1);
        t::counter_add("stream.processed", report.processed as u64);
        t::counter_add("stream.dropped", report.dropped as u64);
        t::gauge_set("stream.drop_rate", report.drop_rate());
        t::gauge_set("stream.worst_latency_ms", report.worst_latency_ms);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn underloaded_stream_drops_nothing() {
        let r = simulate_stream(StreamConfig {
            period_ms: 33.3,
            service_ms: 10.0,
            queue_capacity: 3,
            frames: 100,
        });
        assert_eq!(r.processed, 100);
        assert_eq!(r.dropped, 0);
        // No queueing: latency equals the service time.
        assert!((r.mean_latency_ms - 10.0).abs() < 1e-9);
        assert!((r.worst_latency_ms - 10.0).abs() < 1e-9);
    }

    #[test]
    fn overloaded_stream_drops_the_excess() {
        // Service 50 ms vs 33.3 ms period: only ~2/3 of frames fit.
        let r = simulate_stream(StreamConfig {
            period_ms: 33.3,
            service_ms: 50.0,
            queue_capacity: 2,
            frames: 300,
        });
        let rate = r.drop_rate();
        assert!(
            (0.25..0.42).contains(&rate),
            "expected ~1/3 drops, got {rate} ({} dropped)",
            r.dropped
        );
        // Queue is bounded, so worst latency is bounded too.
        assert!(r.worst_latency_ms <= 2.0 * 50.0 + 50.0);
    }

    #[test]
    fn critically_loaded_stream_keeps_up_with_queueing() {
        // Service just below the period: everything processed, minor jitter
        // absorbed by the queue.
        let r = simulate_stream(StreamConfig {
            period_ms: 33.3,
            service_ms: 33.0,
            queue_capacity: 4,
            frames: 200,
        });
        assert_eq!(r.dropped, 0);
        assert!(r.mean_latency_ms < 40.0);
    }

    #[test]
    fn conservation() {
        for service in [5.0, 20.0, 33.3, 47.0, 90.0] {
            let frames = 123;
            let r = simulate_stream(StreamConfig {
                period_ms: 33.3,
                service_ms: service,
                queue_capacity: 3,
                frames,
            });
            assert_eq!(r.processed + r.dropped, frames, "service {service}");
            assert!(r.horizon_ms >= (frames - 1) as f64 * 33.3 - 1e-9);
        }
    }

    #[test]
    fn try_variant_reports_config_errors() {
        let ok = StreamConfig {
            period_ms: 33.3,
            service_ms: 10.0,
            queue_capacity: 3,
            frames: 10,
        };
        assert!(try_simulate_stream(ok).is_ok());
        for bad in [
            StreamConfig { frames: 0, ..ok },
            StreamConfig {
                period_ms: 0.0,
                ..ok
            },
            StreamConfig {
                service_ms: f64::NAN,
                ..ok
            },
        ] {
            let err = try_simulate_stream(bad).expect_err("invalid config");
            assert!(matches!(err, HaxError::InvalidConfig(_)), "{err}");
        }
    }

    #[test]
    fn zero_capacity_drops_everything_with_finite_latencies() {
        // No frame buffer: every arrival is dropped, nothing is processed,
        // and the latency aggregates must stay finite (0.0) rather than
        // NaN-ing out of an empty observation set.
        let r = simulate_stream(StreamConfig {
            period_ms: 33.3,
            service_ms: 10.0,
            queue_capacity: 0,
            frames: 10,
        });
        assert_eq!(r.processed, 0);
        assert_eq!(r.dropped, 10);
        assert_eq!(r.drop_rate(), 1.0);
        assert!(r.mean_latency_ms.is_finite());
        assert!(r.worst_latency_ms.is_finite());
        assert_eq!(r.mean_latency_ms, 0.0);
        assert_eq!(r.worst_latency_ms, 0.0);
        // The horizon still spans all arrivals.
        assert!(r.horizon_ms >= 9.0 * 33.3 - 1e-9);
    }
}
