//! D-HaX-CoNN: anytime / dynamic schedule generation (paper Section 3.5 &
//! Fig. 7).
//!
//! When the autonomous system's control-flow graph changes at runtime (new
//! DNN pairs appear), there is no time to wait for a full optimal solve.
//! D-HaX-CoNN therefore:
//!
//! 1. starts from the best *naive* schedule (baselines are instantaneous;
//!    the paper explicitly avoids Herald/H2H here because those also take
//!    seconds),
//! 2. runs the solver in the background, recording every strictly improving
//!    incumbent with its solve-clock timestamp,
//! 3. lets the runtime swap in the best incumbent available at each update
//!    checkpoint (25 ms, 100 ms, ... in Fig. 7), converging to the optimal
//!    schedule while inference keeps running.

use crate::baselines::BaselineKind;
use crate::encoding::ScheduleEncoding;
use crate::problem::{SchedulerConfig, Workload};
use crate::scheduler::{score_baselines, Schedule, ScheduleOrigin};
use crate::timeline::TimelineEvaluator;
use haxconn_contention::ContentionModel;
use haxconn_soc::{Platform, PuId};
use haxconn_solver::{solve_auto, SolveOptions};
use std::time::Duration;

/// One recorded incumbent improvement.
#[derive(Debug, Clone)]
pub struct Incumbent {
    /// The improving assignment.
    pub assignment: Vec<Vec<PuId>>,
    /// Its objective cost.
    pub cost: f64,
    /// Solve-clock timestamp at which it became available.
    pub at: Duration,
}

/// Source of the timestamps stamped onto recorded incumbents.
///
/// The solver stamps each improvement in its trace with the wall-clock
/// offset from the start of the solve. That is the honest number for
/// Fig. 7-style plots, but it makes `schedule_at` checkpoints
/// nondeterministic across runs and machines. The arrival-replay test
/// (`tests/dynamic_arrivals.rs`) uses
/// [`IncumbentClock::Virtual`], which stamps the k-th improvement at
/// `k * tick` of virtual time so replays are bit-identical; a virtual
/// clock also routes the solve through the sequential B&B, whose incumbent
/// *sequence* (not only its timestamps) is independent of thread timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IncumbentClock {
    /// Use the solver's wall-clock offsets (default; nondeterministic).
    Solver,
    /// Stamp the k-th improvement (1-based) at `k * tick` of virtual time.
    Virtual {
        /// Virtual spacing between consecutive incumbents.
        tick: Duration,
    },
}

impl IncumbentClock {
    /// A virtual clock ticking once per millisecond of virtual time.
    pub fn virtual_ms() -> Self {
        IncumbentClock::Virtual {
            tick: Duration::from_millis(1),
        }
    }
}

/// The dynamic scheduler.
pub struct DHaxConn {
    /// Initial (naive) schedule the system starts executing with.
    pub initial: Incumbent,
    /// Which instant baseline won the initial selection in [`DHaxConn::run`].
    pub initial_kind: BaselineKind,
    /// Strictly improving incumbents, in discovery order.
    pub trace: Vec<Incumbent>,
    /// Whether the background solve ran to proven optimality.
    pub proven_optimal: bool,
}

impl DHaxConn {
    /// Runs the D-HaX-CoNN pipeline for one workload: picks the best naive
    /// starting schedule, then solves (bounded by `config.node_budget` if
    /// set), recording the incumbent trace with wall-clock timestamps.
    pub fn run(
        platform: &Platform,
        workload: &Workload,
        model: &ContentionModel,
        config: SchedulerConfig,
    ) -> Self {
        Self::run_with(platform, workload, model, config, IncumbentClock::Solver)
    }

    /// Like [`DHaxConn::run`], but with an injectable incumbent clock so
    /// deterministic callers (tests, fuzzers, trace replays) get
    /// bit-identical `schedule_at` checkpoints. [`IncumbentClock::Solver`]
    /// lets the solver use every core (the parallel solver on encodings
    /// of 12 or more variables); [`IncumbentClock::Virtual`] is a request
    /// for determinism and solves sequentially, since the parallel
    /// solver's intermediate incumbents follow thread timing.
    pub fn run_with(
        platform: &Platform,
        workload: &Workload,
        model: &ContentionModel,
        config: SchedulerConfig,
        clock: IncumbentClock,
    ) -> Self {
        let run_started = std::time::Instant::now();
        // 1. Initial schedule: best of the *instant* baselines only.
        let naive = [BaselineKind::GpuOnly, BaselineKind::NaiveSplit];
        let scored = score_baselines(platform, workload, model, &config, &naive);
        let (initial_kind, best) = naive
            .into_iter()
            .zip(scored)
            .min_by(|a, b| a.1.cost.total_cmp(&b.1.cost))
            .expect("baselines nonempty");
        let initial = Incumbent {
            cost: best.cost,
            assignment: best.assignment,
            at: Duration::ZERO,
        };

        // 2. Background solve with anytime incumbents, warm-started from
        // the naive cost so only genuine improvements surface. The
        // solver returns its trace of strict improvements, each stamped
        // when it was found. Which intermediate incumbents the parallel
        // solver finds depends on thread timing, so a virtual clock asks
        // for one thread, which solves sequentially.
        let relaxed = SchedulerConfig {
            epsilon_ms: None,
            ..config
        };
        let enc = ScheduleEncoding::new(workload, model, relaxed);
        let opts = SolveOptions {
            node_budget: config.node_budget,
            initial_upper_bound: Some(initial.cost),
            ..Default::default()
        };
        let threads = match clock {
            IncumbentClock::Solver => 0,
            IncumbentClock::Virtual { .. } => 1,
        };
        let sol = solve_auto(&enc, opts, threads);
        let trace: Vec<Incumbent> = (1u32..)
            .zip(&sol.trace)
            .map(|(k, (a, cost, at))| Incumbent {
                assignment: enc.to_rows(a),
                cost: *cost,
                at: match clock {
                    IncumbentClock::Solver => *at,
                    IncumbentClock::Virtual { tick } => tick * k,
                },
            })
            .collect();
        if haxconn_telemetry::enabled() {
            use haxconn_telemetry as t;
            let ms = run_started.elapsed().as_secs_f64() * 1e3;
            t::counter_add("dynamic.resolves", 1);
            t::counter_add("dynamic.incumbents", trace.len() as u64);
            t::histogram_record("dynamic.resolve_ms", ms);
            // Time-to-first-improvement is the paper's Fig. 7 x-axis:
            // how quickly the runtime can swap off the naive schedule.
            if let Some(first) = trace.first() {
                t::histogram_record("dynamic.first_incumbent_ms", first.at.as_secs_f64() * 1e3);
            }
            t::span_event("dynamic", "resolve", t::clock_ms() - ms, ms);
        }
        DHaxConn {
            initial,
            initial_kind,
            trace,
            proven_optimal: sol.proven_optimal(),
        }
    }

    /// The schedule the runtime would be executing at solve-clock `at`
    /// (the best incumbent discovered no later than `at`).
    pub fn schedule_at(&self, at: Duration) -> &Incumbent {
        self.trace
            .iter()
            .rev()
            .find(|i| i.at <= at)
            .unwrap_or(&self.initial)
    }

    /// The final (best) schedule.
    pub fn best(&self) -> &Incumbent {
        self.trace.last().unwrap_or(&self.initial)
    }

    /// Converts the best incumbent to a [`Schedule`].
    pub fn into_schedule(
        self,
        workload: &Workload,
        model: &ContentionModel,
        config: SchedulerConfig,
    ) -> Schedule {
        let best = self.best().clone();
        let mut ev = TimelineEvaluator::new(workload, model);
        ev.contention_aware = config.contention_aware;
        let predicted = ev.evaluate(&best.assignment);
        let origin = if self.trace.is_empty() {
            // No improving incumbent was found: the schedule being returned
            // IS the winning instant baseline, so report that kind rather
            // than assuming GPU-only.
            ScheduleOrigin::Fallback(self.initial_kind)
        } else {
            ScheduleOrigin::Optimal
        };
        let schedule = Schedule {
            assignment: best.assignment,
            predicted,
            cost: best.cost,
            origin,
            proven_optimal: self.proven_optimal,
        };
        // Debug builds self-check the converted incumbent at timeline level
        // (no platform in scope here; the full platform-level validation
        // runs in the static scheduler and in `haxconn-check`).
        #[cfg(debug_assertions)]
        {
            let report = crate::validate::validate_timeline(
                workload,
                &schedule.assignment,
                &schedule.predicted,
            );
            debug_assert!(report.is_valid(), "incumbent fails validation: {report}");
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::DnnTask;
    use crate::scheduler::HaxConn;
    use haxconn_dnn::Model;
    use haxconn_profiler::NetworkProfile;
    use haxconn_soc::orin_agx;

    fn setup(models: &[Model]) -> (Platform, Workload, ContentionModel) {
        let p = orin_agx();
        let tasks = models
            .iter()
            .map(|&m| DnnTask::new(m.name(), NetworkProfile::profile(&p, m, 6)))
            .collect();
        let cm = ContentionModel::calibrate(&p);
        (p, Workload::concurrent(tasks), cm)
    }

    #[test]
    fn starts_from_naive_and_improves() {
        let (p, w, cm) = setup(&[Model::GoogleNet, Model::ResNet101]);
        let d = DHaxConn::run(&p, &w, &cm, SchedulerConfig::default());
        // Incumbents strictly improve over the naive start.
        let mut prev = d.initial.cost;
        for inc in &d.trace {
            assert!(inc.cost < prev, "{} !< {prev}", inc.cost);
            prev = inc.cost;
        }
        assert!(d.proven_optimal);
    }

    #[test]
    fn schedule_at_interpolates_the_trace() {
        let (p, w, cm) = setup(&[Model::GoogleNet, Model::ResNet101]);
        let d = DHaxConn::run(&p, &w, &cm, SchedulerConfig::default());
        // At time zero (before any incumbent), we run the naive schedule...
        let at0 = d.schedule_at(Duration::ZERO);
        assert!(at0.cost >= d.best().cost);
        // ...and far in the future, the best one.
        let later = d.schedule_at(Duration::from_secs(3600));
        assert_eq!(later.cost, d.best().cost);
    }

    #[test]
    fn converges_to_static_optimum() {
        let (p, w, cm) = setup(&[Model::GoogleNet, Model::ResNet101]);
        let cfg = SchedulerConfig::default();
        let d = DHaxConn::run(&p, &w, &cm, cfg);
        let s = HaxConn::schedule(&p, &w, &cm, cfg);
        // The anytime best must match the static scheduler's quality (both
        // compare on the relaxed predictive cost).
        assert!(d.best().cost <= s.cost + 1e-6);
    }

    #[test]
    fn node_budget_yields_partial_progress() {
        let (p, w, cm) = setup(&[Model::ResNet152, Model::InceptionV4]);
        let cfg = SchedulerConfig {
            node_budget: Some(50),
            ..Default::default()
        };
        let d = DHaxConn::run(&p, &w, &cm, cfg);
        assert!(!d.proven_optimal);
        // The initial schedule always exists even with a tiny budget.
        assert!(d.initial.cost.is_finite());
    }

    #[test]
    fn empty_trace_origin_reports_winning_baseline() {
        // Two heavy nets: splitting across GPU+DSA beats GPU-only, so the
        // initial selection picks NaiveSplit. A node budget of 1 cannot
        // reach a leaf, so the trace stays empty and `into_schedule` must
        // report the *winning* baseline, not a hard-coded GPU-only.
        let (p, w, cm) = setup(&[Model::ResNet152, Model::InceptionV4]);
        let cfg = SchedulerConfig {
            node_budget: Some(1),
            ..Default::default()
        };
        let d = DHaxConn::run(&p, &w, &cm, cfg);
        assert!(d.trace.is_empty(), "budget 1 must not produce incumbents");
        assert_eq!(
            d.initial_kind,
            BaselineKind::NaiveSplit,
            "test premise: NaiveSplit wins the instant-baseline selection"
        );
        let s = d.into_schedule(&w, &cm, cfg);
        assert_eq!(s.origin, ScheduleOrigin::Fallback(BaselineKind::NaiveSplit));
    }

    #[test]
    fn virtual_clock_makes_checkpoints_deterministic() {
        let (p, w, cm) = setup(&[Model::ResNet152, Model::InceptionV4]);
        let cfg = SchedulerConfig::default();
        let a = DHaxConn::run_with(&p, &w, &cm, cfg, IncumbentClock::virtual_ms());
        let b = DHaxConn::run_with(&p, &w, &cm, cfg, IncumbentClock::virtual_ms());
        assert!(!a.trace.is_empty());
        assert_eq!(a.trace.len(), b.trace.len());
        for (i, (x, y)) in a.trace.iter().zip(&b.trace).enumerate() {
            // k-th improvement lands at exactly k * tick of virtual time.
            assert_eq!(x.at, Duration::from_millis(i as u64 + 1));
            assert_eq!(x.at, y.at);
            assert_eq!(x.cost.to_bits(), y.cost.to_bits());
            assert_eq!(x.assignment, y.assignment);
        }
        // And therefore any checkpoint query replays bit-identically.
        for ms in [0u64, 1, 2, 5, 1000] {
            let (xa, xb) = (
                a.schedule_at(Duration::from_millis(ms)),
                b.schedule_at(Duration::from_millis(ms)),
            );
            assert_eq!(xa.cost.to_bits(), xb.cost.to_bits());
        }
    }

    #[test]
    fn into_schedule_roundtrip() {
        let (p, w, cm) = setup(&[Model::GoogleNet, Model::ResNet18]);
        let cfg = SchedulerConfig::default();
        let d = DHaxConn::run(&p, &w, &cm, cfg);
        let s = d.into_schedule(&w, &cm, cfg);
        assert_eq!(s.assignment.len(), 2);
        assert!(s.cost.is_finite());
    }
}
