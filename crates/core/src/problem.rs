//! Workload descriptions and scheduler configuration.

use crate::error::HaxError;
use haxconn_profiler::NetworkProfile;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One DNN inference task to schedule (an *instance* — the same network may
/// appear several times, as in the paper's Scenario 1).
#[derive(Debug, Clone)]
pub struct DnnTask {
    /// Offline profile of the network on the target platform, shared
    /// with every other task of the same network. Mutate through
    /// `Arc::make_mut`, which copies a shared profile first.
    pub profile: Arc<NetworkProfile>,
    /// Instance label, e.g. `"GoogleNet#0"`.
    pub name: String,
}

impl DnnTask {
    /// Creates a task from a profile.
    pub fn new(name: impl Into<String>, profile: impl Into<Arc<NetworkProfile>>) -> Self {
        DnnTask {
            profile: profile.into(),
            name: name.into(),
        }
    }

    /// Number of layer groups.
    pub fn num_groups(&self) -> usize {
        self.profile.len()
    }
}

/// A streaming dependency: `to`'s first group starts only after `from`'s
/// last group completes (paper Scenario 3: "we connect the last layer of
/// DNN1 to the first layer of DNN2 as an input").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskDep {
    /// Producer task index.
    pub from: usize,
    /// Consumer task index.
    pub to: usize,
}

/// A set of concurrently executing DNN tasks, plus streaming dependencies.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Tasks, indexed by position.
    pub tasks: Vec<DnnTask>,
    /// Streaming dependencies across tasks.
    pub deps: Vec<TaskDep>,
    /// `ties[t] = Some(r)` forces task `t` to reuse task `r`'s layer-group
    /// assignment. Used when a pipeline is unrolled over consecutive frames
    /// (Scenario 3): the paper generates one static schedule and reuses it
    /// for every frame, so all instances of a DNN share one mapping.
    pub ties: Vec<Option<usize>>,
}

impl Workload {
    /// A workload of independent concurrent tasks (Scenarios 1 and 2).
    pub fn concurrent(tasks: Vec<DnnTask>) -> Self {
        let ties = vec![None; tasks.len()];
        Workload {
            tasks,
            deps: vec![],
            ties,
        }
    }

    /// A two-stage pipeline: `tasks[0] -> tasks[1]` (Scenario 3).
    /// Panics on fewer than two tasks; see [`Workload::try_pipeline`]
    /// for the fallible form.
    pub fn pipeline(tasks: Vec<DnnTask>) -> Self {
        Self::try_pipeline(tasks).expect("pipeline workload")
    }

    /// Fallible [`Workload::pipeline`]: chains every task to the next.
    pub fn try_pipeline(tasks: Vec<DnnTask>) -> Result<Self, HaxError> {
        if tasks.len() < 2 {
            return Err(HaxError::InvalidWorkload(format!(
                "a pipeline needs at least 2 tasks, got {}",
                tasks.len()
            )));
        }
        let deps = (0..tasks.len() - 1)
            .map(|i| TaskDep { from: i, to: i + 1 })
            .collect();
        let ties = vec![None; tasks.len()];
        Ok(Workload { tasks, deps, ties })
    }

    /// Adds a streaming dependency. Panics on out-of-range or self
    /// dependencies; see [`Workload::try_with_dep`].
    pub fn with_dep(self, from: usize, to: usize) -> Self {
        self.try_with_dep(from, to).expect("valid dependency")
    }

    /// Fallible [`Workload::with_dep`].
    pub fn try_with_dep(mut self, from: usize, to: usize) -> Result<Self, HaxError> {
        let n = self.tasks.len();
        if from >= n || to >= n {
            return Err(HaxError::InvalidWorkload(format!(
                "dependency {from}->{to} references a task out of range (have {n} tasks)"
            )));
        }
        if from == to {
            return Err(HaxError::InvalidWorkload(format!(
                "task {from} cannot depend on itself"
            )));
        }
        self.deps.push(TaskDep { from, to });
        Ok(self)
    }

    /// Ties `task`'s assignment to `representative`'s (both must have the
    /// same group structure). The scheduler then decides one mapping shared
    /// by both instances. Panics on invalid ties; see
    /// [`Workload::try_with_tie`].
    pub fn with_tie(self, task: usize, representative: usize) -> Self {
        self.try_with_tie(task, representative).expect("valid tie")
    }

    /// Fallible [`Workload::with_tie`].
    pub fn try_with_tie(mut self, task: usize, representative: usize) -> Result<Self, HaxError> {
        if task >= self.tasks.len() {
            return Err(HaxError::InvalidWorkload(format!(
                "tie references task {task} out of range"
            )));
        }
        if representative >= task {
            return Err(HaxError::InvalidWorkload(
                "representative must precede the tied task".into(),
            ));
        }
        if self.ties[representative].is_some() {
            return Err(HaxError::InvalidWorkload(
                "representative must itself be untied".into(),
            ));
        }
        if self.tasks[task].num_groups() != self.tasks[representative].num_groups() {
            return Err(HaxError::InvalidWorkload(format!(
                "tied tasks must share group structure ({} vs {} groups)",
                self.tasks[task].num_groups(),
                self.tasks[representative].num_groups()
            )));
        }
        self.ties[task] = Some(representative);
        Ok(self)
    }

    /// Structural validation: non-empty, every dependency and tie in
    /// range, no self-dependencies. The scheduler's fallible entry
    /// points call this before encoding.
    pub fn validate(&self) -> Result<(), HaxError> {
        if self.tasks.is_empty() {
            return Err(HaxError::InvalidWorkload("workload has no tasks".into()));
        }
        for (t, task) in self.tasks.iter().enumerate() {
            if task.num_groups() == 0 {
                return Err(HaxError::InvalidWorkload(format!(
                    "task {t} ('{}') has no layer groups",
                    task.name
                )));
            }
        }
        for d in &self.deps {
            if d.from >= self.tasks.len() || d.to >= self.tasks.len() || d.from == d.to {
                return Err(HaxError::InvalidWorkload(format!(
                    "invalid dependency {}->{}",
                    d.from, d.to
                )));
            }
        }
        if self.ties.len() != self.tasks.len() {
            return Err(HaxError::InvalidWorkload(
                "tie table length mismatch".into(),
            ));
        }
        for (t, tie) in self.ties.iter().enumerate() {
            if let Some(r) = tie {
                if *r >= t || self.ties[*r].is_some() {
                    return Err(HaxError::InvalidWorkload(format!("invalid tie {t}->{r}")));
                }
            }
        }
        Ok(())
    }

    /// The representative whose assignment `task` uses (itself if untied).
    pub fn representative(&self, task: usize) -> usize {
        self.ties[task].unwrap_or(task)
    }

    /// Total number of (task, group) decision variables.
    pub fn num_vars(&self) -> usize {
        self.tasks.iter().map(DnnTask::num_groups).sum()
    }

    /// Flattened variable index of `(task, group)`.
    pub fn var_index(&self, task: usize, group: usize) -> usize {
        let mut idx = 0;
        for t in 0..task {
            idx += self.tasks[t].num_groups();
        }
        idx + group
    }

    /// Inverse of [`Workload::var_index`].
    pub fn var_to_task_group(&self, var: usize) -> (usize, usize) {
        let mut v = var;
        for (t, task) in self.tasks.iter().enumerate() {
            if v < task.num_groups() {
                return (t, v);
            }
            v -= task.num_groups();
        }
        panic!("variable {var} out of range");
    }

    /// Tasks that `task` must wait for before starting.
    pub fn upstream(&self, task: usize) -> Vec<usize> {
        self.deps
            .iter()
            .filter(|d| d.to == task)
            .map(|d| d.from)
            .collect()
    }
}

/// The optimization objective (paper Eq. 10 and 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// Minimize the maximum DNN completion time (Eq. 11) — the
    /// "Min Latency" goal of Table 6.
    MinMaxLatency,
    /// Maximize `sum 1/T_n` (Eq. 10) — the "Max FPS" goal of Table 6.
    MaxThroughput,
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// Objective function.
    pub objective: Objective,
    /// ε of Eq. 9: the longest same-accelerator overlap (queuing wait) a
    /// schedule may need, in ms. The scheduler returns the best schedule
    /// within ε when one exists, and the best with queuing modeled
    /// otherwise. `None` drops the constraint (queuing is always modeled).
    pub epsilon_ms: Option<f64>,
    /// Upper limit on inter-accelerator transitions per DNN; keeps the
    /// search space the "relatively small parameter search space" the paper
    /// relies on. Optimal schedules in Table 6 use at most 2.
    pub max_transitions_per_task: usize,
    /// Solver node budget (None = run to proven optimality); `Some(n)`
    /// caps the search at `n` nodes in total. A budgeted solve always runs the sequential
    /// branch & bound (see `haxconn_solver::solve_auto`), so which nodes
    /// the budget covers never depends on thread timing.
    pub node_budget: Option<u64>,
    /// Whether contention enters the cost function (disabled only by the
    /// contention-blind ablation).
    pub contention_aware: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            objective: Objective::MinMaxLatency,
            epsilon_ms: Some(0.35),
            max_transitions_per_task: 2,
            node_budget: None,
            contention_aware: true,
        }
    }
}

impl SchedulerConfig {
    /// Config with the given objective, defaults elsewhere.
    pub fn with_objective(objective: Objective) -> Self {
        SchedulerConfig {
            objective,
            ..Default::default()
        }
    }

    /// Checks the configuration is usable: ε and the node budget must be
    /// finite/positive where given, and at least one transition must be
    /// allowed for multi-group schedules to differ from single-PU ones.
    pub fn validate(&self) -> Result<(), HaxError> {
        if let Some(eps) = self.epsilon_ms {
            if !eps.is_finite() || eps < 0.0 {
                return Err(HaxError::InvalidConfig(format!(
                    "epsilon_ms must be finite and non-negative, got {eps}"
                )));
            }
        }
        if self.node_budget == Some(0) {
            return Err(HaxError::InvalidConfig(
                "node_budget of 0 can never find a schedule".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haxconn_dnn::Model;
    use haxconn_soc::orin_agx;

    fn task(model: Model) -> DnnTask {
        let p = orin_agx();
        DnnTask::new(model.name(), NetworkProfile::profile(&p, model, 6))
    }

    #[test]
    fn var_index_roundtrip() {
        let w = Workload::concurrent(vec![task(Model::ResNet18), task(Model::GoogleNet)]);
        for t in 0..w.tasks.len() {
            for g in 0..w.tasks[t].num_groups() {
                let v = w.var_index(t, g);
                assert_eq!(w.var_to_task_group(v), (t, g));
            }
        }
        assert_eq!(
            w.num_vars(),
            w.tasks[0].num_groups() + w.tasks[1].num_groups()
        );
    }

    #[test]
    fn pipeline_deps() {
        let w = Workload::pipeline(vec![task(Model::ResNet18), task(Model::GoogleNet)]);
        assert_eq!(w.deps, vec![TaskDep { from: 0, to: 1 }]);
        assert_eq!(w.upstream(1), vec![0]);
        assert!(w.upstream(0).is_empty());
    }

    #[test]
    fn hybrid_scenario4_shape() {
        // DNN1 -> DNN2 pipeline with DNN3 parallel (paper Scenario 4).
        let w = Workload::concurrent(vec![
            task(Model::ResNet101),
            task(Model::GoogleNet),
            task(Model::InceptionV4),
        ])
        .with_dep(0, 1);
        assert_eq!(w.upstream(1), vec![0]);
        assert!(w.upstream(2).is_empty());
    }

    #[test]
    #[should_panic]
    fn self_dep_rejected() {
        let w = Workload::concurrent(vec![task(Model::ResNet18), task(Model::GoogleNet)]);
        let _ = w.with_dep(1, 1);
    }

    #[test]
    fn try_constructors_report_errors_instead_of_panicking() {
        let w = Workload::concurrent(vec![task(Model::ResNet18), task(Model::GoogleNet)]);
        assert!(w.validate().is_ok());
        assert!(w.clone().try_with_dep(1, 1).is_err());
        assert!(w.clone().try_with_dep(0, 5).is_err());
        assert!(w.clone().try_with_tie(1, 1).is_err());
        assert!(Workload::try_pipeline(vec![task(Model::ResNet18)]).is_err());
        assert!(Workload::concurrent(vec![]).validate().is_err());
    }

    #[test]
    fn config_validation() {
        assert!(SchedulerConfig::default().validate().is_ok());
        let bad_eps = SchedulerConfig {
            epsilon_ms: Some(-1.0),
            ..Default::default()
        };
        assert!(bad_eps.validate().is_err());
        let bad_budget = SchedulerConfig {
            node_budget: Some(0),
            ..Default::default()
        };
        assert!(bad_budget.validate().is_err());
    }
}
