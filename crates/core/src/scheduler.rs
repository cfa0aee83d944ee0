//! The static HaX-CoNN scheduler.

use crate::baselines::{Baseline, BaselineKind};
use crate::encoding::ScheduleEncoding;
use crate::error::HaxError;
use crate::problem::{Objective, SchedulerConfig, Workload};
use crate::timeline::{PredictedTimeline, TimelineEvaluator};
use haxconn_contention::ContentionModel;
use haxconn_soc::{Platform, PuId, PuKind};
use haxconn_solver::{solve_auto, Assignment, CostModel, SolveOptions};

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
        Self::schedule_and_baselines(platform, workload, model, config)
            .map(|(schedule, _)| schedule)
    }

    /// [`HaxConn::try_schedule`] together with the scored baselines it
    /// compared against, in [`BaselineKind::all`] order, so
    /// [`HaxConn::try_schedule_validated`] need not score them again.
    fn schedule_and_baselines(
        platform: &Platform,
        workload: &Workload,
        model: &ContentionModel,
        config: SchedulerConfig,
    ) -> Result<(Schedule, Vec<Schedule>), HaxError> {
        workload.validate()?;
        config.validate()?;
        let schedule_started = std::time::Instant::now();
        // 1. Score every baseline once: the scores seed the search and
        // back the never-worse comparison of step 3.
        let baselines = score_baselines(platform, workload, model, &config, BaselineKind::all());

        // 2. One search, ordered by (violates ε, cost, assignment): the
        // encoding costs an ε-violating schedule in a tier above every
        // ε-feasible one, so the optimum is the best ε-feasible schedule
        // if there is one and the best with queuing modeled otherwise.
        // The least baseline under that order is the first incumbent.
        let enc = ScheduleEncoding::new(workload, model, config);
        let seed = baselines
            .iter()
            .filter_map(|b| enc.candidate(&b.assignment, &b.predicted))
            .min_by(|(a, x), (b, y)| x.total_cmp(y).then_with(|| a.cmp(b)));
        let (found, proven) = exact_solve(&enc, &config, seed.clone());
        // A budget-cut search that never beat its seed found no schedule
        // of its own: the baselines speak for themselves in step 3.
        let found = found.filter(|(a, _)| proven || seed.as_ref().is_none_or(|(s, _)| s != a));

        // 3. Score the solver's schedule under the predictive cost and keep
        // the best of it and the baselines.
        let mut ev = TimelineEvaluator::new(workload, model);
        ev.contention_aware = config.contention_aware;
        let solved = found.map(|(a, _)| {
            let rows = enc.to_rows(&a);
            score(&ev, config.objective, rows, ScheduleOrigin::Optimal)
        });
        let relaxed = (solved.as_ref().zip(config.epsilon_ms))
            .is_some_and(|(s, eps)| s.predicted.max_wait_ms > eps);
        let mut schedule = never_worse(solved, &baselines).ok_or_else(|| {
            HaxError::Infeasible("no candidate schedule (not even a baseline) was found".into())
        })?;
        schedule.proven_optimal = proven;
        if haxconn_telemetry::enabled() {
            use haxconn_telemetry as t;
            let ms = schedule_started.elapsed().as_secs_f64() * 1e3;
            t::counter_add("scheduler.schedules", 1);
            t::counter_add("scheduler.relaxed", u64::from(relaxed));
            t::counter_add(
                "scheduler.fallbacks",
                u64::from(!matches!(schedule.origin, ScheduleOrigin::Optimal)),
            );
            t::histogram_record("scheduler.schedule_ms", ms);
            t::span_event("scheduler", "schedule", t::clock_ms() - ms, ms);
        }
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
        Ok((schedule, baselines))
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
        let (mut winner, baselines) =
            Self::schedule_and_baselines(platform, workload, model, config)?;
        // One pooled runner scores every candidate.
        let mut runner = crate::measure::DesRunner::new();
        let mut measured_cost = |assignment: &Vec<Vec<PuId>>| -> f64 {
            let view = runner.run(platform, workload, assignment, 1);
            match config.objective {
                Objective::MinMaxLatency => view.makespan_ms,
                Objective::MaxThroughput => -view.fps(),
            }
        };
        let mut best_cost = measured_cost(&winner.assignment);
        for b in baselines {
            let c = measured_cost(&b.assignment);
            if c < best_cost - 1e-9 {
                best_cost = c;
                winner = b;
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
        let baselines = score_baselines(platform, workload, model, &config, BaselineKind::all());
        never_worse(None, &baselines)
            .ok_or_else(|| HaxError::Infeasible("no baseline schedule could be constructed".into()))
    }
}

/// `assignment` scored under the predictive cost (not proven optimal).
fn score(
    ev: &TimelineEvaluator<'_>,
    objective: Objective,
    assignment: Vec<Vec<PuId>>,
    origin: ScheduleOrigin,
) -> Schedule {
    let predicted = ev.evaluate(&assignment);
    Schedule {
        cost: objective_cost(objective, &predicted),
        assignment,
        predicted,
        origin,
        proven_optimal: false,
    }
}

/// Each of `kinds` as a fallback schedule, scored under the predictive
/// cost: one timeline evaluation per baseline.
pub(crate) fn score_baselines(
    platform: &Platform,
    workload: &Workload,
    model: &ContentionModel,
    config: &SchedulerConfig,
    kinds: &[BaselineKind],
) -> Vec<Schedule> {
    let mut ev = TimelineEvaluator::new(workload, model);
    ev.contention_aware = config.contention_aware;
    kinds
        .iter()
        .map(|&kind| {
            let rows = Baseline::assignment(kind, platform, workload);
            score(&ev, config.objective, rows, ScheduleOrigin::Fallback(kind))
        })
        .collect()
}

/// The never-worse rule: `best` (the solver's schedule, if any) unless a
/// baseline, in `baselines` order, beats the running winner by more than
/// 1e-9 (then a copy of the last such baseline).
fn never_worse(best: Option<Schedule>, baselines: &[Schedule]) -> Option<Schedule> {
    let mut pick: Option<&Schedule> = None;
    for b in baselines {
        if pick
            .or(best.as_ref())
            .is_none_or(|w| b.cost < w.cost - 1e-9)
        {
            pick = Some(b);
        }
    }
    pick.cloned().or(best)
}

/// Solves any [`CostModel`] through [`solve_auto`] on the calling thread
/// and returns `(best, proven_optimal)`.
///
/// One thread, because `HaxConn`'s callers already run solves side by
/// side: `Engine` one per serve pool worker, the experiment sweeps one
/// per `par_map` thread. A solver pool per solve would oversubscribe
/// the CPUs. On a 2-vCPU host, 120 cold Orin specs of 12–23 variables
/// on two concurrent callers took 0.42–0.51 s with one thread per solve
/// and 0.47–0.54 s with one per CPU.
///
/// `seed`, the model's own `cost` of one of its assignments, is the first
/// incumbent; it is returned when nothing beats it, so a budgeted solve
/// with a seed always has an answer.
pub(crate) fn exact_solve<M: CostModel + Sync>(
    m: &M,
    config: &SchedulerConfig,
    seed: Option<(Assignment, f64)>,
) -> (Option<(Assignment, f64)>, bool) {
    let opts = SolveOptions {
        node_budget: config.node_budget,
        initial_incumbent: seed,
        ..Default::default()
    };
    let sol = solve_auto(m, opts, 1);
    let proven = sol.proven_optimal();
    (sol.best, proven)
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
    use crate::measure::execute;
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
        let hax = execute(&p, &w, &s.assignment).makespan_ms;
        for &kind in BaselineKind::all() {
            let a = Baseline::assignment(kind, &p, &w);
            let base = execute(&p, &w, &a).makespan_ms;
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
        let m = execute(&p, &w, &s.assignment);
        assert!(m.fps() > 0.0);
    }

    /// GoogleNet + ResNet101 at 8 groups each is a 16-variable encoding,
    /// large enough for `solve_auto` to run the parallel branch & bound
    /// when given threads. That and `HaxConn`'s schedule are both the
    /// sequential solver's optimum to the bit. ε is relaxed so the solver
    /// optimizes the very cost the candidates are scored by, and its
    /// optimum (not a baseline) is what comes out.
    #[test]
    fn schedule_is_the_optimum_of_either_driver() {
        let (p, w, cm) = setup(&[Model::GoogleNet, Model::ResNet101], 8);
        let cfg = SchedulerConfig {
            epsilon_ms: None,
            ..Default::default()
        };
        let enc = ScheduleEncoding::new(&w, &cm, cfg);
        assert!(enc.num_vars() >= haxconn_solver::PARALLEL_MIN_VARS);
        let seq = haxconn_solver::solve(&enc, SolveOptions::default());
        let (a, c) = seq.best.expect("relaxed encoding is feasible");
        let par = solve_auto(&enc, SolveOptions::default(), 2);
        let (pa, pc) = par.best.expect("relaxed encoding is feasible");
        assert_eq!((&pa, pc.to_bits()), (&a, c.to_bits()));
        let s = HaxConn::schedule(&p, &w, &cm, cfg);
        assert_eq!(s.origin, ScheduleOrigin::Optimal);
        assert!(s.proven_optimal);
        assert_eq!(s.assignment, enc.to_rows(&a));
        assert_eq!(s.cost.to_bits(), c.to_bits());
    }

    #[test]
    fn budgeted_solve_still_finds_a_schedule() {
        let (p, w, cm) = setup(&[Model::GoogleNet, Model::ResNet101], 8);
        let s = HaxConn::schedule(
            &p,
            &w,
            &cm,
            SchedulerConfig {
                node_budget: Some(500),
                ..Default::default()
            },
        );
        // A budget-starved B&B may not prove, but the never-worse
        // fallback always yields a complete schedule.
        assert_eq!(s.assignment.len(), w.tasks.len());
    }

    #[test]
    fn a_one_node_budget_returns_the_seed() {
        let (p, w, cm) = setup(&[Model::GoogleNet, Model::ResNet101], 8);
        let cfg = SchedulerConfig {
            node_budget: Some(1),
            ..Default::default()
        };
        let enc = ScheduleEncoding::new(&w, &cm, cfg);
        let gpu = score_baselines(&p, &w, &cm, &cfg, &[BaselineKind::GpuOnly]).remove(0);
        let seed = enc
            .candidate(&gpu.assignment, &gpu.predicted)
            .expect("GPU-only has no transitions");
        let (best, proven) = exact_solve(&enc, &cfg, Some(seed.clone()));
        assert!(!proven);
        let (a, c) = best.expect("the seed is the incumbent");
        assert_eq!((a, c.to_bits()), (seed.0, seed.1.to_bits()));
        // Unseeded, one node reaches no leaf.
        assert!(exact_solve(&enc, &cfg, None).0.is_none());
        // A budget-cut search that never beat its seed is no solver
        // schedule: the baselines' winner answers, as a fallback.
        let s = HaxConn::schedule(&p, &w, &cm, cfg);
        assert!(matches!(s.origin, ScheduleOrigin::Fallback(_)));
        assert!(!s.proven_optimal);
    }

    #[test]
    fn single_task_prefers_gpu_only_on_orin() {
        // With one DNN and a fast GPU, the optimal schedule should not
        // bounce to the DLA (transitions cost, DLA is slower).
        let (p, w, cm) = setup(&[Model::ResNet50], 8);
        let s = HaxConn::schedule(&p, &w, &cm, SchedulerConfig::default());
        let m_s = execute(&p, &w, &s.assignment).makespan_ms;
        let gpu = Baseline::assignment(BaselineKind::GpuOnly, &p, &w);
        let m_g = execute(&p, &w, &gpu).makespan_ms;
        assert!(m_s <= m_g * 1.01);
    }
}
