//! `scheduler.relaxed` counts exactly the specs on which `HaxConn`'s one
//! search finds no ε-feasible schedule (Eq. 9), over the 48 specs the
//! schedule goldens pin.
//!
//! The counter lives in the process-global recorder, so this check has a
//! test binary of its own: no other test can run `HaxConn` and bump the
//! counter between a spec's before and after reads.

mod common;

use haxconn::prelude::*;
use haxconn::telemetry as tel;
use std::collections::HashMap;

#[test]
fn relaxed_counter_counts_exactly_the_strict_infeasible_specs() {
    let rec = tel::memory_recorder().expect("the global recorder");
    let relaxed = || {
        rec.snapshot()
            .counters
            .get("scheduler.relaxed")
            .copied()
            .unwrap_or(0)
    };
    let mut contexts: HashMap<String, ContentionModel> = HashMap::new();
    let mut infeasible = 0;
    for (label, spec) in common::specs() {
        let (platform, workload) = spec.resolve().expect("valid spec");
        let cm = contexts
            .entry(spec.platform.clone())
            .or_insert_with(|| ContentionModel::calibrate(&platform));
        let config = spec.effective_config();
        let before = relaxed();
        HaxConn::try_schedule(&platform, &workload, cm, config).expect("schedulable");
        let delta = relaxed() - before;
        let strict_feasible = common::strict_feasible(&workload, cm, config);
        infeasible += usize::from(!strict_feasible);
        assert_eq!(delta, u64::from(!strict_feasible), "{label}");
    }
    assert!(infeasible >= 4, "only {infeasible} strict-infeasible specs");
}
