//! The static HaX-CoNN scheduler.

use crate::baselines::{Baseline, BaselineKind};
use crate::encoding::ScheduleEncoding;
use crate::error::HaxError;
use crate::problem::{Objective, SchedulerConfig, Workload};
use crate::timeline::{PredictedTimeline, TimelineEvaluator};
use haxconn_contention::ContentionModel;
use haxconn_soc::{DesWork, Platform, PuId, PuKind, Replayer};
use haxconn_solver::{
    solve, solve_parallel, solve_portfolio, Assignment, CostModel, PortfolioOptions, SolveOptions,
    Symmetric,
};

/// An inter-accelerator transition in a schedule (the "TR / Dir." columns of
/// Table 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Task index.
    pub task: usize,
    /// Group after which execution switches PUs.
    pub after_group: usize,
    /// Network layer id at the boundary (the paper reports these, e.g.
    /// "TR at layer 95").
    pub after_layer: usize,
    /// PU before the switch.
    pub from: PuId,
    /// PU after the switch.
    pub to: PuId,
}

/// How the schedule was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleOrigin {
    /// The solver's optimal solution won.
    Optimal,
    /// A baseline predicted at least as good; HaX-CoNN fell back to it
    /// (paper: "our scheme guarantees that no worse results are obtained
    /// than the naive baselines", Scenario 3 discussion).
    Fallback(BaselineKind),
}

/// A complete schedule: assignment plus its predicted timeline.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// `assignment[task][group]` = PU.
    pub assignment: Vec<Vec<PuId>>,
    /// Predicted timeline under the contention model.
    pub predicted: PredictedTimeline,
    /// Objective value (lower = better; `MaxThroughput` is negated).
    pub cost: f64,
    /// Provenance.
    pub origin: ScheduleOrigin,
    /// Whether the solver proved optimality (always true without budgets).
    pub proven_optimal: bool,
}

impl Schedule {
    /// The inter-accelerator transitions of this schedule.
    pub fn transitions(&self, workload: &Workload) -> Vec<Transition> {
        let mut out = Vec::new();
        for (t, row) in self.assignment.iter().enumerate() {
            for g in 0..row.len().saturating_sub(1) {
                if row[g] != row[g + 1] {
                    out.push(Transition {
                        task: t,
                        after_group: g,
                        after_layer: workload.tasks[t].profile.grouped.groups[g].end,
                        from: row[g],
                        to: row[g + 1],
                    });
                }
            }
        }
        out
    }

    /// Paper-style direction label for a transition, e.g. `"GtoD"`.
    pub fn direction_label(platform: &Platform, tr: &Transition) -> String {
        let short = |pu: PuId| match platform.pus[pu].kind {
            PuKind::Gpu => "G",
            PuKind::Dla | PuKind::Dsp => "D",
            PuKind::Cpu => "C",
        };
        format!("{}to{}", short(tr.from), short(tr.to))
    }

    /// One-line human-readable summary.
    pub fn describe(&self, platform: &Platform, workload: &Workload) -> String {
        let mut parts = Vec::new();
        for (t, task) in workload.tasks.iter().enumerate() {
            let trs: Vec<String> = self
                .transitions(workload)
                .into_iter()
                .filter(|tr| tr.task == t)
                .map(|tr| {
                    format!(
                        "@{}:{}",
                        tr.after_layer,
                        Self::direction_label(platform, &tr)
                    )
                })
                .collect();
            let start = platform.pus[self.assignment[t][0]].kind.label();
            if trs.is_empty() {
                parts.push(format!("{}[{start}]", task.name));
            } else {
                parts.push(format!("{}[{start} {}]", task.name, trs.join(" ")));
            }
        }
        parts.join("  ")
    }
}

/// The HaX-CoNN scheduler.
pub struct HaxConn;

impl HaxConn {
    /// Finds the optimal schedule for `workload` on `platform`.
    ///
    /// Pipeline (paper Fig. 2): the profiled workload is encoded as a
    /// constraint-optimization problem and solved to optimality; the result
    /// is compared — under the same predictive cost — with every naive
    /// baseline, and the best wins (never-worse guarantee).
    pub fn schedule(
        platform: &Platform,
        workload: &Workload,
        model: &ContentionModel,
        config: SchedulerConfig,
    ) -> Schedule {
        Self::try_schedule(platform, workload, model, config).expect("schedulable workload")
    }

    /// Fallible [`HaxConn::schedule`]: validates the workload and
    /// configuration first and returns [`HaxError`] instead of
    /// panicking on malformed input.
    pub fn try_schedule(
        platform: &Platform,
        workload: &Workload,
        model: &ContentionModel,
        config: SchedulerConfig,
    ) -> Result<Schedule, HaxError> {
        workload.validate()?;
        config.validate()?;
        let schedule_started = std::time::Instant::now();
        // Solver dispatch: portfolio > parallel B&B > sequential B&B,
        // optionally restricted to canonical representatives when the
        // instance has detectable symmetries.
        let run_solver = |enc: &ScheduleEncoding<'_>| -> (Option<(Assignment, f64)>, bool) {
            if config.break_symmetry {
                let spec = enc.symmetry_spec(platform);
                if !spec.is_empty() {
                    let sym = Symmetric::new(enc, spec);
                    return dispatch_solver(&sym, &config);
                }
            }
            dispatch_solver(enc, &config)
        };

        // 1. Solve the strict formulation.
        let enc = ScheduleEncoding::new(workload, model, config);
        let (found, mut proven) = run_solver(&enc);
        let mut best = found.map(|(a, _)| enc.to_rows(&a));

        // 2. Infeasible under ε? Relax Eq. 9 and model queuing instead.
        if best.is_none() && config.epsilon_ms.is_some() {
            let relaxed_cfg = SchedulerConfig {
                epsilon_ms: None,
                ..config
            };
            let relaxed = ScheduleEncoding::new(workload, model, relaxed_cfg);
            let (found, p) = run_solver(&relaxed);
            proven = p;
            best = found.map(|(a, _)| relaxed.to_rows(&a));
        }

        // 3. Score candidates (solver result + all baselines) under the
        // relaxed predictive cost and keep the best.
        let scorer = |assignment: &Vec<Vec<PuId>>| -> (f64, PredictedTimeline) {
            let mut ev = TimelineEvaluator::new(workload, model);
            ev.contention_aware = config.contention_aware;
            let tl = ev.evaluate(assignment);
            let cost = objective_cost(config.objective, &tl);
            (cost, tl)
        };

        let mut winner: Option<(Vec<Vec<PuId>>, f64, PredictedTimeline, ScheduleOrigin)> = best
            .map(|a| {
                let (c, tl) = scorer(&a);
                (a, c, tl, ScheduleOrigin::Optimal)
            });
        for &kind in BaselineKind::all() {
            let a = Baseline::assignment(kind, platform, workload);
            let (c, tl) = scorer(&a);
            let better = match &winner {
                None => true,
                Some((_, wc, _, _)) => c < *wc - 1e-9,
            };
            if better {
                winner = Some((a, c, tl, ScheduleOrigin::Fallback(kind)));
            }
        }
        let (assignment, cost, predicted, origin) = winner.ok_or_else(|| {
            HaxError::Infeasible("no candidate schedule (not even a baseline) was found".into())
        })?;
        if haxconn_telemetry::enabled() {
            use haxconn_telemetry as t;
            let ms = schedule_started.elapsed().as_secs_f64() * 1e3;
            t::counter_add("scheduler.schedules", 1);
            t::counter_add(
                "scheduler.fallbacks",
                u64::from(!matches!(origin, ScheduleOrigin::Optimal)),
            );
            t::histogram_record("scheduler.schedule_ms", ms);
            t::span_event("scheduler", "schedule", t::clock_ms() - ms, ms);
        }
        let schedule = Schedule {
            assignment,
            predicted,
            cost,
            origin,
            proven_optimal: proven,
        };
        // Debug builds self-check every emitted schedule. The validator is
        // read-only, so release outputs are byte-identical with or without
        // this hook (machine-checked in tests/validation.rs).
        #[cfg(debug_assertions)]
        {
            let report = crate::validate::validate_schedule(platform, workload, &config, &schedule);
            debug_assert!(
                report.is_valid(),
                "emitted schedule fails validation: {report}"
            );
        }
        Ok(schedule)
    }
}

impl HaxConn {
    /// Like [`HaxConn::schedule`], but *validates* the winning candidate:
    /// the solver's schedule and every baseline are each executed once on
    /// the target (here: the SoC's contention replay) and the measured best
    /// wins.
    ///
    /// This is how the paper's never-worse-than-baseline guarantee holds in
    /// deployment: candidate schedules are cheap to try (one inference
    /// each, during the same offline profiling session), so the runtime
    /// only ever adopts a schedule that measurably beats the incumbent
    /// baseline, independent of contention-model error.
    pub fn schedule_validated(
        platform: &Platform,
        workload: &Workload,
        model: &ContentionModel,
        config: SchedulerConfig,
    ) -> Schedule {
        Self::try_schedule_validated(platform, workload, model, config)
            .expect("schedulable workload")
    }

    /// Fallible [`HaxConn::schedule_validated`].
    pub fn try_schedule_validated(
        platform: &Platform,
        workload: &Workload,
        model: &ContentionModel,
        config: SchedulerConfig,
    ) -> Result<Schedule, HaxError> {
        let mut winner = Self::try_schedule(platform, workload, model, config)?;
        // One pooled replay scores every candidate.
        let mut work = DesWork::new();
        let mut replayer = Replayer::new();
        let mut measured_cost = |assignment: &Vec<Vec<PuId>>| -> f64 {
            crate::measure::stage(&mut work, workload, assignment);
            let run = replayer.run(platform, &work, 1);
            match config.objective {
                Objective::MinMaxLatency => run.makespan_ms,
                Objective::MaxThroughput => -crate::measure::aggregate_fps(run.task_latency_ms),
            }
        };
        let mut best_cost = measured_cost(&winner.assignment);
        for &kind in BaselineKind::all() {
            let a = Baseline::assignment(kind, platform, workload);
            let c = measured_cost(&a);
            if c < best_cost - 1e-9 {
                best_cost = c;
                let mut ev = TimelineEvaluator::new(workload, model);
                ev.contention_aware = config.contention_aware;
                let predicted = ev.evaluate(&a);
                winner = Schedule {
                    cost: objective_cost(config.objective, &predicted),
                    assignment: a,
                    predicted,
                    origin: ScheduleOrigin::Fallback(kind),
                    proven_optimal: false,
                };
            }
        }
        Ok(winner)
    }
}

impl HaxConn {
    /// The best *baseline* schedule for `workload` — no solver search,
    /// just every naive baseline scored under the predictive cost, best
    /// one wins. Orders of magnitude cheaper than [`HaxConn::try_schedule`]
    /// (a handful of timeline evaluations), which is what makes it a
    /// usable degraded answer when a serving engine is saturated: the
    /// response is a valid, never-absurd schedule, just not the optimum.
    pub fn best_baseline(
        platform: &Platform,
        workload: &Workload,
        model: &ContentionModel,
        config: SchedulerConfig,
    ) -> Result<Schedule, HaxError> {
        workload.validate()?;
        config.validate()?;
        let mut winner: Option<(Vec<Vec<PuId>>, f64, PredictedTimeline, BaselineKind)> = None;
        for &kind in BaselineKind::all() {
            let a = Baseline::assignment(kind, platform, workload);
            let mut ev = TimelineEvaluator::new(workload, model);
            ev.contention_aware = config.contention_aware;
            let tl = ev.evaluate(&a);
            let cost = objective_cost(config.objective, &tl);
            let better = match &winner {
                None => true,
                Some((_, wc, _, _)) => cost < *wc - 1e-9,
            };
            if better {
                winner = Some((a, cost, tl, kind));
            }
        }
        let (assignment, cost, predicted, kind) = winner.ok_or_else(|| {
            HaxError::Infeasible("no baseline schedule could be constructed".into())
        })?;
        Ok(Schedule {
            assignment,
            predicted,
            cost,
            origin: ScheduleOrigin::Fallback(kind),
            proven_optimal: false,
        })
    }
}

/// Runs the configured solver flavor on any [`CostModel`] and returns
/// `(best, proven_optimal)` — the common denominator of [`solve`],
/// [`solve_parallel`] and [`solve_portfolio`] results.
fn dispatch_solver<M: CostModel + Sync>(
    m: &M,
    config: &SchedulerConfig,
) -> (Option<(Assignment, f64)>, bool) {
    let opts = SolveOptions {
        node_budget: config.node_budget,
        ..Default::default()
    };
    if config.portfolio_solve {
        let out = solve_portfolio(
            m,
            opts,
            &PortfolioOptions {
                lns_workers: config.lns_workers.max(1),
                ..Default::default()
            },
        );
        let proven = out.proven_optimal();
        (out.best, proven)
    } else if config.parallel_solve {
        let sol = solve_parallel(m, opts);
        let proven = sol.proven_optimal();
        (sol.best, proven)
    } else {
        let sol = solve(m, opts);
        let proven = sol.proven_optimal();
        (sol.best, proven)
    }
}

/// Maps a predicted timeline to the (minimized) objective value.
pub fn objective_cost(objective: Objective, tl: &PredictedTimeline) -> f64 {
    match objective {
        Objective::MinMaxLatency => tl.task_latency_ms.iter().cloned().fold(0.0, f64::max),
        Objective::MaxThroughput => -tl.task_latency_ms.iter().map(|&t| 1000.0 / t).sum::<f64>(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::measure;
    use crate::problem::DnnTask;
    use haxconn_dnn::Model;
    use haxconn_profiler::NetworkProfile;
    use haxconn_soc::orin_agx;

    fn setup(models: &[Model], groups: usize) -> (Platform, Workload, ContentionModel) {
        let p = orin_agx();
        let tasks = models
            .iter()
            .map(|&m| DnnTask::new(m.name(), NetworkProfile::profile(&p, m, groups)))
            .collect();
        let cm = ContentionModel::calibrate(&p);
        (p, Workload::concurrent(tasks), cm)
    }

    #[test]
    fn schedule_beats_or_matches_every_baseline_measured() {
        let (p, w, cm) = setup(&[Model::GoogleNet, Model::ResNet101], 8);
        let cfg = SchedulerConfig::default();
        let s = HaxConn::schedule(&p, &w, &cm, cfg);
        let hax = measure(&p, &w, &s.assignment).latency_ms;
        for &kind in BaselineKind::all() {
            let a = Baseline::assignment(kind, &p, &w);
            let base = measure(&p, &w, &a).latency_ms;
            assert!(hax <= base * 1.02, "{kind}: HaX-CoNN {hax:.3} vs {base:.3}");
        }
    }

    #[test]
    fn schedule_uses_both_accelerators_when_profitable() {
        let (p, w, cm) = setup(&[Model::GoogleNet, Model::ResNet101], 8);
        let s = HaxConn::schedule(&p, &w, &cm, SchedulerConfig::default());
        let used_dsa = s.assignment.iter().flatten().any(|&pu| pu == p.dsa());
        assert!(used_dsa, "expected collaborative schedule: {:?}", s.origin);
    }

    #[test]
    fn transitions_report_layer_ids() {
        let (p, w, cm) = setup(&[Model::GoogleNet, Model::ResNet101], 8);
        let s = HaxConn::schedule(&p, &w, &cm, SchedulerConfig::default());
        for tr in s.transitions(&w) {
            let task = &w.tasks[tr.task];
            assert_eq!(
                tr.after_layer,
                task.profile.grouped.groups[tr.after_group].end
            );
            assert!(tr.after_layer < task.profile.grouped.network.len());
            let label = Schedule::direction_label(&p, &tr);
            assert!(label == "GtoD" || label == "DtoG");
        }
        // Solver-originated schedules respect the transition budget
        // (baseline fallbacks may exceed it by construction).
        if s.origin == ScheduleOrigin::Optimal {
            for t in 0..w.tasks.len() {
                let n = s.transitions(&w).iter().filter(|tr| tr.task == t).count();
                assert!(n <= SchedulerConfig::default().max_transitions_per_task);
            }
        }
    }

    #[test]
    fn describe_mentions_every_task() {
        let (p, w, cm) = setup(&[Model::GoogleNet, Model::ResNet101], 6);
        let s = HaxConn::schedule(&p, &w, &cm, SchedulerConfig::default());
        let d = s.describe(&p, &w);
        assert!(d.contains("GoogleNet"));
        assert!(d.contains("ResNet101"));
    }

    #[test]
    fn throughput_objective_runs() {
        let (p, w, cm) = setup(&[Model::ResNet18, Model::GoogleNet], 6);
        let cfg = SchedulerConfig::with_objective(Objective::MaxThroughput);
        let s = HaxConn::schedule(&p, &w, &cm, cfg);
        assert!(s.cost < 0.0, "throughput cost is negated FPS");
        let m = measure(&p, &w, &s.assignment);
        assert!(m.fps > 0.0);
    }

    #[test]
    fn parallel_solve_matches_sequential() {
        let (p, w, cm) = setup(&[Model::GoogleNet, Model::ResNet101], 8);
        let seq = HaxConn::schedule(&p, &w, &cm, SchedulerConfig::default());
        let par = HaxConn::schedule(
            &p,
            &w,
            &cm,
            SchedulerConfig {
                parallel_solve: true,
                ..Default::default()
            },
        );
        assert!(
            (seq.cost - par.cost).abs() < 1e-9,
            "{} vs {}",
            seq.cost,
            par.cost
        );
        let m_seq = measure(&p, &w, &seq.assignment).latency_ms;
        let m_par = measure(&p, &w, &par.assignment).latency_ms;
        assert!((m_seq - m_par).abs() / m_seq < 0.02);
    }

    #[test]
    fn portfolio_solve_matches_sequential() {
        let (p, w, cm) = setup(&[Model::GoogleNet, Model::ResNet101], 8);
        let seq = HaxConn::schedule(&p, &w, &cm, SchedulerConfig::default());
        let pf = HaxConn::schedule(
            &p,
            &w,
            &cm,
            SchedulerConfig {
                portfolio_solve: true,
                lns_workers: 2,
                ..Default::default()
            },
        );
        assert!(
            (seq.cost - pf.cost).abs() < 1e-9,
            "portfolio optimum drifted: {} vs {}",
            seq.cost,
            pf.cost
        );
        assert!(pf.proven_optimal, "unbudgeted portfolio must prove");
    }

    #[test]
    fn portfolio_with_budget_still_finds_a_schedule() {
        let (p, w, cm) = setup(&[Model::GoogleNet, Model::ResNet101], 8);
        let s = HaxConn::schedule(
            &p,
            &w,
            &cm,
            SchedulerConfig {
                portfolio_solve: true,
                node_budget: Some(500),
                ..Default::default()
            },
        );
        // Budget-starved B&B may not prove, but the LNS side plus the
        // never-worse fallback always yield a complete schedule.
        assert_eq!(s.assignment.len(), w.tasks.len());
    }

    #[test]
    fn symmetry_breaking_preserves_schedule_quality_on_dual_dla() {
        let p = haxconn_soc::orin_agx_dual_dla();
        let tasks = ["GoogleNet#0", "GoogleNet#1"]
            .iter()
            .map(|&n| DnnTask::new(n, NetworkProfile::profile(&p, Model::GoogleNet, 6)))
            .collect();
        let w = Workload::concurrent(tasks);
        let cm = ContentionModel::calibrate(&p);
        let cfg = SchedulerConfig {
            epsilon_ms: None,
            max_transitions_per_task: 1,
            ..Default::default()
        };
        let plain = HaxConn::schedule(&p, &w, &cm, cfg);
        let broken = HaxConn::schedule(
            &p,
            &w,
            &cm,
            SchedulerConfig {
                break_symmetry: true,
                ..cfg
            },
        );
        assert!(
            (plain.cost - broken.cost).abs() <= 1e-9,
            "symmetry breaking changed the schedule cost: {} vs {}",
            plain.cost,
            broken.cost
        );
    }

    #[test]
    fn single_task_prefers_gpu_only_on_orin() {
        // With one DNN and a fast GPU, the optimal schedule should not
        // bounce to the DLA (transitions cost, DLA is slower).
        let (p, w, cm) = setup(&[Model::ResNet50], 8);
        let s = HaxConn::schedule(&p, &w, &cm, SchedulerConfig::default());
        let m_s = measure(&p, &w, &s.assignment).latency_ms;
        let gpu = Baseline::assignment(BaselineKind::GpuOnly, &p, &w);
        let m_g = measure(&p, &w, &gpu).latency_ms;
        assert!(m_s <= m_g * 1.01);
    }
}
