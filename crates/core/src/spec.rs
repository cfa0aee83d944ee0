//! Serializable workload specifications — one canonical request type.
//!
//! [`WorkloadSpec`] is the JSON-facing description of a scheduling
//! problem: platform, tasks (model name + group count), streaming
//! dependencies, assignment ties, and the full [`SchedulerConfig`]
//! (which carries the objective). The CLI, the `Session` facade, and
//! the `haxconn serve` endpoints all speak this one type, so a request
//! submitted over HTTP, replayed from a file, or built in code resolves
//! to exactly the same [`Workload`] — and therefore the same schedule.
//!
//! Canonicalization ([`WorkloadSpec::canonicalize`]) maps every spelling
//! of the same problem to one normal form (platform aliases → the
//! [`haxconn_soc::PlatformId::slug`], model aliases → the zoo's
//! canonical name, dependencies sorted and deduplicated, the tie table
//! padded to task length). The compact JSON of the canonical form is the
//! engine's cache key: byte equality ⇔ problem equality.

use crate::error::{parse_model, parse_platform, HaxError};
use crate::problem::{DnnTask, SchedulerConfig, TaskDep, Workload};
use haxconn_profiler::NetworkProfile;
use haxconn_soc::Platform;
use serde::{Deserialize, Serialize};

/// One DNN task in a [`WorkloadSpec`]: a model name (any zoo spelling)
/// profiled into `groups` layer groups.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Model name, e.g. `"googlenet"`.
    pub model: String,
    /// Number of layer groups to profile the network into.
    pub groups: usize,
}

/// A complete, serializable scheduling request.
///
/// JSON round-trips are byte-stable: field order is declaration order,
/// floats print in round-trip-exact form, and no map reordering occurs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Platform name (any alias `parse_platform` accepts).
    pub platform: String,
    /// Tasks, indexed by position.
    pub tasks: Vec<TaskSpec>,
    /// Streaming dependencies across tasks.
    pub deps: Vec<TaskDep>,
    /// `ties[t] = Some(r)` forces task `t` to reuse task `r`'s
    /// assignment. May be shorter than `tasks` (padded with `None` on
    /// canonicalization).
    pub ties: Vec<Option<usize>>,
    /// Scheduler configuration, including the objective. `None` (or a
    /// `null` / omitted field on the wire) means the default
    /// configuration; canonicalization always fills it in.
    pub config: Option<SchedulerConfig>,
}

impl WorkloadSpec {
    /// An empty spec on `platform` with the default configuration.
    pub fn new(platform: impl Into<String>) -> Self {
        WorkloadSpec {
            platform: platform.into(),
            tasks: Vec::new(),
            deps: Vec::new(),
            ties: Vec::new(),
            config: None,
        }
    }

    /// Appends a task.
    pub fn task(mut self, model: impl Into<String>, groups: usize) -> Self {
        self.tasks.push(TaskSpec {
            model: model.into(),
            groups,
        });
        self
    }

    /// Appends a streaming dependency `from -> to`.
    pub fn dep(mut self, from: usize, to: usize) -> Self {
        self.deps.push(TaskDep { from, to });
        self
    }

    /// Ties `task`'s assignment to `representative`'s.
    pub fn tie(mut self, task: usize, representative: usize) -> Self {
        if self.ties.len() <= task {
            self.ties.resize(task + 1, None);
        }
        self.ties[task] = Some(representative);
        self
    }

    /// Replaces the scheduler configuration.
    pub fn with_config(mut self, config: SchedulerConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// The effective configuration: the stored one, or the default.
    pub fn effective_config(&self) -> SchedulerConfig {
        self.config.unwrap_or_default()
    }

    /// Returns the canonical normal form of this spec, validating it in
    /// the process: platform and model names are normalized to their
    /// canonical spellings, dependencies are sorted and deduplicated,
    /// the tie table is padded to task length, and the configuration is
    /// checked. Two specs describing the same problem canonicalize to
    /// equal values (and therefore equal cache keys).
    pub fn canonicalize(&self) -> Result<WorkloadSpec, HaxError> {
        let platform = parse_platform(&self.platform)?.slug().to_string();
        if self.tasks.is_empty() {
            return Err(HaxError::InvalidWorkload(
                "a workload spec needs at least one task".into(),
            ));
        }
        let mut tasks = Vec::with_capacity(self.tasks.len());
        for (t, task) in self.tasks.iter().enumerate() {
            if task.groups == 0 {
                return Err(HaxError::InvalidWorkload(format!(
                    "task {t} ('{}') needs at least one layer group",
                    task.model
                )));
            }
            tasks.push(TaskSpec {
                model: parse_model(&task.model)?.name().to_string(),
                groups: task.groups,
            });
        }
        let n = tasks.len();
        let mut deps = Vec::with_capacity(self.deps.len());
        for d in &self.deps {
            if d.from >= n || d.to >= n || d.from == d.to {
                return Err(HaxError::InvalidWorkload(format!(
                    "invalid dependency {}->{} (have {n} tasks)",
                    d.from, d.to
                )));
            }
            deps.push(*d);
        }
        deps.sort_by_key(|d| (d.from, d.to));
        deps.dedup();
        if self.ties.len() > n {
            return Err(HaxError::InvalidWorkload(format!(
                "tie table covers {} tasks, workload has {n}",
                self.ties.len()
            )));
        }
        let mut ties = self.ties.clone();
        ties.resize(n, None);
        for (t, tie) in ties.iter().enumerate() {
            if let Some(r) = tie {
                if *r >= t || ties[*r].is_some() {
                    return Err(HaxError::InvalidWorkload(format!("invalid tie {t}->{r}")));
                }
                if tasks[t].groups != tasks[*r].groups {
                    return Err(HaxError::InvalidWorkload(format!(
                        "tied tasks must share group structure ({} vs {} groups)",
                        tasks[t].groups, tasks[*r].groups
                    )));
                }
            }
        }
        let config = self.effective_config();
        config.validate()?;
        Ok(WorkloadSpec {
            platform,
            tasks,
            deps,
            ties,
            config: Some(config),
        })
    }

    /// The engine cache key: compact JSON of the canonical form. Byte
    /// equality of keys ⇔ the specs describe the same problem.
    pub fn cache_key(&self) -> Result<String, HaxError> {
        self.canonicalize()?.to_json()
    }

    /// Compact JSON encoding. Byte-stable: `from_json(to_json(s)) == s`
    /// and serializing again yields identical bytes.
    pub fn to_json(&self) -> Result<String, HaxError> {
        serde_json::to_string(self).map_err(|e| HaxError::Io(format!("spec to JSON: {e}")))
    }

    /// Parses a spec from JSON (the inverse of [`WorkloadSpec::to_json`]).
    pub fn from_json(s: &str) -> Result<WorkloadSpec, HaxError> {
        serde_json::from_str(s).map_err(|e| HaxError::InvalidWorkload(format!("bad spec: {e}")))
    }

    /// Resolves the spec into a platform model and a profiled workload.
    /// Canonicalizes first, so any accepted spelling resolves to the
    /// same problem. Profiles come from the process-wide memo
    /// ([`NetworkProfile::of`]), so each is built once per process.
    pub fn resolve(&self) -> Result<(Platform, Workload), HaxError> {
        let c = self.canonicalize()?;
        let id = parse_platform(&c.platform)?;
        let mut tasks = Vec::with_capacity(c.tasks.len());
        for t in &c.tasks {
            let model = parse_model(&t.model)?;
            tasks.push(DnnTask::new(
                model.name(),
                NetworkProfile::of(id, model, t.groups),
            ));
        }
        let mut workload = Workload::concurrent(tasks);
        for d in &c.deps {
            workload = workload.try_with_dep(d.from, d.to)?;
        }
        for (t, tie) in c.ties.iter().enumerate() {
            if let Some(r) = tie {
                workload = workload.try_with_tie(t, *r)?;
            }
        }
        Ok((id.platform(), workload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Objective;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::new("orin")
            .task("googlenet", 6)
            .task("resnet18", 6)
            .dep(0, 1)
    }

    #[test]
    fn json_round_trip_is_byte_stable() {
        let s = spec();
        let json = s.to_json().unwrap();
        let back = WorkloadSpec::from_json(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json().unwrap(), json);
    }

    #[test]
    fn canonicalize_normalizes_aliases_and_order() {
        let a = WorkloadSpec::new("orin")
            .task("googlenet", 6)
            .task("resnet18", 6)
            .dep(1, 0)
            .dep(0, 1)
            .dep(0, 1);
        let b = WorkloadSpec::new("Orin-AGX")
            .task("GoogLeNet", 6)
            .task("ResNet18", 6)
            .dep(0, 1)
            .dep(1, 0);
        assert_eq!(a.cache_key().unwrap(), b.cache_key().unwrap());
        let c = a.canonicalize().unwrap();
        assert_eq!(c.platform, "orin-agx");
        assert_eq!(c.ties.len(), 2);
        assert_eq!(c.deps.len(), 2);
    }

    #[test]
    fn cache_key_separates_distinct_problems() {
        let base = spec().cache_key().unwrap();
        assert_ne!(spec().task("alexnet", 4).cache_key().unwrap(), base);
        let other_obj =
            spec().with_config(SchedulerConfig::with_objective(Objective::MaxThroughput));
        assert_ne!(other_obj.cache_key().unwrap(), base);
        let other_platform = WorkloadSpec {
            platform: "xavier".into(),
            ..spec()
        };
        assert_ne!(other_platform.cache_key().unwrap(), base);
    }

    #[test]
    fn canonicalize_rejects_malformed_specs() {
        assert!(matches!(
            WorkloadSpec::new("tpu9000")
                .task("alexnet", 4)
                .canonicalize(),
            Err(HaxError::UnknownPlatform(_))
        ));
        assert!(matches!(
            WorkloadSpec::new("orin").canonicalize(),
            Err(HaxError::InvalidWorkload(_))
        ));
        assert!(matches!(
            WorkloadSpec::new("orin").task("nope", 4).canonicalize(),
            Err(HaxError::UnknownModel(_))
        ));
        assert!(matches!(
            WorkloadSpec::new("orin").task("alexnet", 0).canonicalize(),
            Err(HaxError::InvalidWorkload(_))
        ));
        assert!(matches!(
            WorkloadSpec::new("orin")
                .task("alexnet", 4)
                .dep(0, 3)
                .canonicalize(),
            Err(HaxError::InvalidWorkload(_))
        ));
        assert!(matches!(
            WorkloadSpec::new("orin")
                .task("alexnet", 4)
                .task("alexnet", 4)
                .tie(0, 1)
                .canonicalize(),
            Err(HaxError::InvalidWorkload(_))
        ));
    }

    #[test]
    fn resolve_builds_the_profiled_workload() {
        let (platform, workload) = spec().resolve().unwrap();
        assert_eq!(workload.tasks.len(), 2);
        assert_eq!(workload.deps.len(), 1);
        assert!(workload.validate().is_ok());
        assert!(!platform.pus.is_empty());
        // A tie resolves into the workload's tie table.
        let tied = WorkloadSpec::new("orin")
            .task("googlenet", 6)
            .task("googlenet", 6)
            .tie(1, 0);
        let (_, w) = tied.resolve().unwrap();
        assert_eq!(w.ties[1], Some(0));
    }

    #[test]
    fn mutating_a_resolved_workload_leaves_the_memo_pristine() {
        use std::sync::Arc;
        let (_, mut w) = spec().resolve().unwrap();
        let shared = Arc::clone(&w.tasks[0].profile);
        let pristine = serde_json::to_string(&*shared).unwrap();
        let p = Arc::make_mut(&mut w.tasks[0].profile);
        p.groups[0].tr_out_ms[0] += 1.0;
        p.grouped.groups[0].end -= 1;
        assert!(!Arc::ptr_eq(&w.tasks[0].profile, &shared), "copy on write");

        let (_, again) = spec().resolve().unwrap();
        assert!(Arc::ptr_eq(&again.tasks[0].profile, &shared));
        assert_eq!(
            serde_json::to_string(&*again.tasks[0].profile).unwrap(),
            pristine
        );
    }
}
