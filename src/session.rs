//! The one-stop, fallible entry point to the whole stack.
//!
//! [`Session`] is a builder that hides the profile → workload → contention
//! model → scheduler plumbing behind a handful of chained calls, with every
//! fallible step surfacing a [`HaxError`] instead of panicking:
//!
//! ```
//! use haxconn::prelude::*;
//!
//! # fn main() -> Result<(), HaxError> {
//! let scheduled = Session::on("orin-agx")
//!     .task(Model::GoogleNet, 8)
//!     .task(Model::ResNet101, 8)
//!     .objective(Objective::MinMaxLatency)
//!     .schedule()?;
//! let measured = scheduled.measure()?;
//! assert!(measured.makespan_ms > 0.0);
//! # Ok(())
//! # }
//! ```

use haxconn_contention::ContentionModel;
use haxconn_core::arrival::{ArrivalTrace, ReplayOptions, ResolvePolicy, TenantReport};
use haxconn_core::engine::{Engine, EngineOptions};
use haxconn_core::problem::{Objective, SchedulerConfig, Workload};
use haxconn_core::scheduler::Schedule;
use haxconn_core::spec::WorkloadSpec;
use haxconn_core::{chrome_trace_json, parse_platform, HaxError};
use haxconn_runtime::{evaluate_fleet, execute, ExecutionReport, FleetOptions, FleetScenario};
use haxconn_soc::{Platform, PuId};

/// Builder for a scheduling session on a built-in platform: a
/// [`WorkloadSpec`] being built, plus the pipeline flag that lowers into
/// its dependencies. A custom [`Platform`] value has no spec spelling;
/// schedule it with [`haxconn_core::scheduler::HaxConn`] directly.
pub struct Session {
    spec: WorkloadSpec,
    pipeline: bool,
}

impl Session {
    /// Starts a session on `platform`: a [`haxconn_soc::PlatformId`] or a
    /// platform name (`"orin-agx"`, `"xavier-agx"`, `"sd865"` or any
    /// alias), parsed at [`Session::schedule`] time.
    pub fn on(platform: impl Into<String>) -> Self {
        Session {
            spec: WorkloadSpec::new(platform),
            pipeline: false,
        }
    }

    /// Builds a session from a serializable [`WorkloadSpec`] — the same
    /// request type `haxconn serve` accepts over HTTP, so a request
    /// replayed from a file or built in code schedules identically.
    pub fn from_spec(spec: &WorkloadSpec) -> Session {
        Session {
            spec: spec.clone(),
            pipeline: false,
        }
    }

    /// Adds a DNN task: `model` (a [`haxconn_dnn::Model`] or a name, see
    /// `haxconn models`) profiled into `groups` layer groups.
    pub fn task(mut self, model: impl Into<String>, groups: usize) -> Self {
        self.spec = self.spec.task(model, groups);
        self
    }

    /// Sets the optimization objective (default: minimize max latency).
    pub fn objective(mut self, objective: Objective) -> Self {
        self.spec
            .config
            .get_or_insert_with(Default::default)
            .objective = objective;
        self
    }

    /// Replaces the whole scheduler configuration (node budgets, epsilon,
    /// contention awareness, ...).
    pub fn config(mut self, config: SchedulerConfig) -> Self {
        self.spec = self.spec.with_config(config);
        self
    }

    /// Chains the tasks into a pipeline: each task streams into the next.
    pub fn pipelined(mut self) -> Self {
        self.pipeline = true;
        self
    }

    /// Adds a streaming dependency: task `to` starts after task `from`.
    pub fn dep(mut self, from: usize, to: usize) -> Self {
        self.spec = self.spec.dep(from, to);
        self
    }

    /// Ties task `task`'s assignment to task `representative`'s (they
    /// share one assignment row in the solved schedule).
    pub fn tie(mut self, task: usize, representative: usize) -> Self {
        self.spec = self.spec.tie(task, representative);
        self
    }

    /// Resolves the platform and models, profiles the workload, calibrates
    /// the contention model and solves for the optimal schedule.
    ///
    /// A thin wrapper over the [`Engine`]: the spec goes through the same
    /// canonicalize → solve path the server uses (so an HTTP schedule for
    /// the same [`WorkloadSpec`] is bit-identical), through a private
    /// engine so each call still performs a full solve — the facade's
    /// documented behavior, which telemetry contracts rely on. A pipeline
    /// lowers into explicit consecutive dependencies first.
    pub fn schedule(self) -> Result<ScheduledSession, HaxError> {
        let mut spec = self.spec;
        if self.pipeline {
            let n = spec.tasks.len();
            if n < 2 {
                return Err(HaxError::InvalidWorkload(format!(
                    "a pipeline needs at least 2 tasks, got {n}"
                )));
            }
            for i in 1..n {
                spec = spec.dep(i - 1, i);
            }
        }
        let canonical = spec.canonicalize()?;
        let key = canonical.to_json()?;
        let engine = Engine::new(EngineOptions::default());
        let out = engine.schedule_canonical(key, &canonical)?;
        let ctx = engine.context(&canonical.platform)?;
        let (_, workload) = canonical.resolve()?;
        Ok(ScheduledSession {
            platform: ctx.platform.clone(),
            workload,
            contention: ctx.contention.clone(),
            schedule: out.entry.schedule.clone(),
            config: canonical.effective_config(),
            spec: canonical,
        })
    }

    /// Replays a multi-tenant arrival trace on this session's platform
    /// with the session's scheduler configuration driving every re-solve
    /// (see [`haxconn_core::arrival`]). The trace itself defines the
    /// tenants, so tasks added with [`Session::task`] are not consulted;
    /// invariant validation is always on. Deterministic: the same
    /// `(platform, config, trace, policy)` yield a byte-identical
    /// [`TenantReport::to_json`].
    pub fn replay_arrivals(
        self,
        trace: &ArrivalTrace,
        policy: ResolvePolicy,
    ) -> Result<TenantReport, HaxError> {
        let platform = parse_platform(&self.spec.platform)?.platform();
        let contention = ContentionModel::calibrate(&platform);
        let options = ReplayOptions {
            policy,
            config: self.spec.effective_config(),
            validate: true,
            ..Default::default()
        };
        haxconn_core::arrival::replay(&platform, &contention, trace, &options)
    }
}

/// [`ScheduledSession::measure_many`] for any resolved workload: it needs
/// no schedule, so `/v1/batch` calls it straight after
/// [`WorkloadSpec::resolve`].
pub(crate) fn measure_candidates(
    platform: &Platform,
    workload: &Workload,
    candidates: &[Vec<Vec<PuId>>],
    iterations: usize,
) -> Result<Vec<ExecutionReport>, HaxError> {
    if iterations == 0 {
        return Err(HaxError::InvalidConfig(
            "measure_many needs at least one iteration per scenario".into(),
        ));
    }
    for (i, candidate) in candidates.iter().enumerate() {
        haxconn_core::validate::check_assignment(platform, workload, candidate)
            .map_err(|e| HaxError::Infeasible(format!("candidate {i}: {e}")))?;
    }
    let scenarios: Vec<FleetScenario> = candidates
        .iter()
        .map(|assignment| FleetScenario {
            workload,
            assignment: assignment.clone(),
            iterations,
        })
        .collect();
    Ok(evaluate_fleet(platform, &scenarios, FleetOptions::default()).reports)
}

/// A solved session: the schedule plus everything needed to measure or
/// execute it.
pub struct ScheduledSession {
    /// The resolved platform.
    pub platform: Platform,
    /// The profiled workload.
    pub workload: Workload,
    /// The calibrated contention model.
    pub contention: ContentionModel,
    /// The optimal (or fallback) schedule.
    pub schedule: Schedule,
    /// The configuration the schedule was solved under (validation re-uses
    /// its objective and transition budget).
    pub config: SchedulerConfig,
    /// The canonical spec this session was solved from (private: set by
    /// [`Session::schedule`]).
    spec: WorkloadSpec,
}

impl ScheduledSession {
    /// The canonical [`WorkloadSpec`] this schedule was solved from —
    /// serialize it to replay the exact problem later or submit it to
    /// `haxconn serve`.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Checks that every assigned PU actually supports its layer group
    /// (the simulator's preconditions), so measurement cannot panic.
    fn check_assignment(&self) -> Result<(), HaxError> {
        haxconn_core::validate::check_assignment(
            &self.platform,
            &self.workload,
            &self.schedule.assignment,
        )
    }

    /// Measures the schedule on the SoC's contention replay: one frame
    /// per task, as [`execute`] reports it.
    pub fn measure(&self) -> Result<ExecutionReport, HaxError> {
        self.check_assignment()?;
        Ok(execute(
            &self.platform,
            &self.workload,
            &self.schedule.assignment,
        ))
    }

    /// Executes many candidate assignments of this session's workload in
    /// one batch on the deterministic fleet evaluator and returns one
    /// [`ExecutionReport`] per candidate, in input order.
    ///
    /// Every candidate is validated up front (shape and PU support), so a
    /// single bad candidate fails the whole call instead of panicking a
    /// worker mid-batch. `iterations` selects single-shot (`1`) or
    /// continuous-loop (`> 1`) semantics, as in
    /// [`haxconn_runtime::execute_loop`].
    pub fn measure_many(
        &self,
        candidates: &[Vec<Vec<PuId>>],
        iterations: usize,
    ) -> Result<Vec<ExecutionReport>, HaxError> {
        measure_candidates(&self.platform, &self.workload, candidates, iterations)
    }

    /// Human-readable description of the schedule.
    pub fn describe(&self) -> String {
        self.schedule.describe(&self.platform, &self.workload)
    }

    /// Runs the full invariant checker over the session's schedule
    /// (precedence, occupancy, contiguity, EMC bandwidth conservation,
    /// transition accounting and budget, convergence, cost consistency).
    /// Read-only: validating never changes the schedule or any output.
    pub fn validate(&self) -> haxconn_core::validate::ValidationReport {
        haxconn_core::validate::validate_schedule(
            &self.platform,
            &self.workload,
            &self.config,
            &self.schedule,
        )
    }

    /// Measures the schedule and renders the run as Chrome-trace JSON
    /// (open in Perfetto / `chrome://tracing`).
    pub fn chrome_trace(&self) -> Result<String, HaxError> {
        let m = self.measure()?;
        Ok(chrome_trace_json(
            &self.platform,
            &self.workload,
            &self.schedule.assignment,
            &m,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haxconn_dnn::Model;
    use haxconn_soc::PlatformId;

    fn expect_err(result: Result<ScheduledSession, HaxError>, what: &str) -> HaxError {
        match result {
            Ok(_) => panic!("expected {what}"),
            Err(e) => e,
        }
    }

    #[test]
    fn session_schedules_and_measures() {
        let s = Session::on(PlatformId::OrinAgx)
            .task(Model::GoogleNet, 6)
            .task(Model::ResNet18, 6)
            .schedule()
            .expect("schedulable");
        let m = s.measure().expect("measurable");
        assert!(m.makespan_ms > 0.0);
        assert_eq!(m.task_latency_ms.len(), 2);
        assert!(!s.describe().is_empty());
    }

    #[test]
    fn session_accepts_names() {
        let s = Session::on("orin")
            .task("googlenet", 6)
            .objective(Objective::MaxThroughput)
            .schedule()
            .expect("schedulable");
        assert_eq!(s.workload.tasks.len(), 1);
    }

    #[test]
    fn session_reports_bad_platform() {
        let err = expect_err(
            Session::on("tpu9000").task(Model::AlexNet, 4).schedule(),
            "unknown platform",
        );
        assert!(matches!(err, HaxError::UnknownPlatform(_)), "{err}");
    }

    #[test]
    fn session_reports_bad_model() {
        let err = expect_err(
            Session::on(PlatformId::OrinAgx)
                .task("transformerXXL", 4)
                .schedule(),
            "unknown model",
        );
        assert!(matches!(err, HaxError::UnknownModel(_)), "{err}");
    }

    #[test]
    fn session_reports_empty_workload() {
        let err = expect_err(Session::on(PlatformId::OrinAgx).schedule(), "no tasks");
        assert!(matches!(err, HaxError::InvalidWorkload(_)), "{err}");
    }

    #[test]
    fn one_task_pipeline_is_rejected() {
        let err = expect_err(
            Session::on(PlatformId::OrinAgx)
                .task(Model::GoogleNet, 6)
                .pipelined()
                .schedule(),
            "one-task pipeline",
        );
        assert!(matches!(err, HaxError::InvalidWorkload(_)), "{err}");
    }

    #[test]
    fn session_reports_bad_dep() {
        let err = expect_err(
            Session::on(PlatformId::OrinAgx)
                .task(Model::AlexNet, 4)
                .dep(0, 7)
                .schedule(),
            "dep out of range",
        );
        assert!(matches!(err, HaxError::InvalidWorkload(_)), "{err}");
    }

    #[test]
    fn pipelined_session_orders_tasks() {
        let s = Session::on(PlatformId::OrinAgx)
            .task(Model::ResNet18, 6)
            .task(Model::GoogleNet, 6)
            .pipelined()
            .schedule()
            .expect("schedulable");
        assert_eq!(s.workload.deps.len(), 1);
        let run = s.measure().expect("measurable");
        assert!(run.task_latency_ms[1] >= run.task_latency_ms[0] - 1e-9);
    }

    #[test]
    fn measure_many_reports_every_candidate() {
        let s = Session::on(PlatformId::OrinAgx)
            .task(Model::GoogleNet, 6)
            .task(Model::ResNet18, 6)
            .schedule()
            .expect("schedulable");
        // Solved assignment plus an all-GPU variant.
        let gpu = s.platform.gpu();
        let all_gpu: Vec<Vec<PuId>> = s
            .workload
            .tasks
            .iter()
            .map(|t| vec![gpu; t.num_groups()])
            .collect();
        let candidates = vec![s.schedule.assignment.clone(), all_gpu];
        let reports = s.measure_many(&candidates, 1).expect("measurable");
        assert_eq!(reports.len(), 2);
        // Batch results match direct execution bit for bit.
        let direct = s.measure().expect("measurable");
        assert!(reports[0].view().same_bits(&direct.view()));
        // And the batch is deterministic across calls.
        let again = s.measure_many(&candidates, 1).expect("measurable");
        assert_eq!(
            reports[1].makespan_ms.to_bits(),
            again[1].makespan_ms.to_bits()
        );
    }

    #[test]
    fn measure_many_rejects_bad_candidates() {
        let s = Session::on(PlatformId::OrinAgx)
            .task(Model::GoogleNet, 6)
            .schedule()
            .expect("schedulable");
        let err = s
            .measure_many(std::slice::from_ref(&s.schedule.assignment), 0)
            .expect_err("zero iterations");
        assert!(matches!(err, HaxError::InvalidConfig(_)), "{err}");
        let err = s
            .measure_many(&[vec![vec![0usize; 3]]], 1)
            .expect_err("wrong group count");
        assert!(matches!(err, HaxError::Infeasible(_)), "{err}");
        let err = s
            .measure_many(&[vec![vec![99usize; 6]]], 1)
            .expect_err("out-of-range PU");
        assert!(matches!(err, HaxError::Infeasible(_)), "{err}");
    }

    #[test]
    fn from_spec_matches_builder_bit_for_bit() {
        use haxconn_core::spec::WorkloadSpec;
        let spec = WorkloadSpec::new("orin")
            .task("googlenet", 6)
            .task("resnet18", 6)
            .dep(0, 1);
        let via_spec = Session::from_spec(&spec).schedule().expect("schedulable");
        let via_builder = Session::on("orin-agx")
            .task(Model::GoogleNet, 6)
            .task(Model::ResNet18, 6)
            .dep(0, 1)
            .schedule()
            .expect("schedulable");
        assert_eq!(
            via_spec.schedule.assignment,
            via_builder.schedule.assignment
        );
        assert_eq!(
            via_spec.schedule.cost.to_bits(),
            via_builder.schedule.cost.to_bits()
        );
        // Both report the same canonical spec.
        assert_eq!(via_spec.spec(), via_builder.spec());
        let canonical = via_spec.spec();
        assert_eq!(canonical.platform, "orin-agx");
        assert_eq!(canonical.tasks.len(), 2);
    }

    #[test]
    fn tied_session_resolves_the_tie() {
        let s = Session::on(PlatformId::OrinAgx)
            .task(Model::GoogleNet, 6)
            .task(Model::GoogleNet, 6)
            .tie(1, 0)
            .schedule()
            .expect("schedulable");
        // The tie lands in the resolved workload (solver variables are
        // shared; a never-worse baseline may still win the scorer loop)
        // and the canonical spec round-trips it.
        assert_eq!(s.workload.ties[1], Some(0));
        assert_eq!(s.spec().ties, vec![None, Some(0)]);
        assert!(s.measure().is_ok());
    }

    #[test]
    fn session_replays_arrival_traces() {
        let trace = ArrivalTrace::generate(3, 24, 2);
        let r = Session::on("orin")
            .replay_arrivals(&trace, ResolvePolicy::Immediate)
            .expect("replayable");
        assert_eq!(r.events, 24);
        assert_eq!(r.violations, 0);
        assert!(!r.tenants.is_empty());
        assert!(r.jain_fairness > 0.0 && r.jain_fairness <= 1.0 + 1e-12);
    }

    #[test]
    fn chrome_trace_is_json_array() {
        let s = Session::on(PlatformId::OrinAgx)
            .task(Model::GoogleNet, 6)
            .schedule()
            .expect("schedulable");
        let json = s.chrome_trace().expect("traceable");
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
    }
}
