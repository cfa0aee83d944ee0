//! The `WorkloadSpec` wire contract: JSON round-trips are byte-stable,
//! canonicalization is idempotent, and the canonical JSON is exactly
//! the engine's cache key.

use haxconn::prelude::*;

fn specimen() -> WorkloadSpec {
    WorkloadSpec::new("orin")
        .task("googlenet", 6)
        .task("resnet101", 8)
        .task("googlenet", 6)
        .dep(0, 1)
        .tie(2, 0)
        .with_config(SchedulerConfig {
            objective: Objective::MaxThroughput,
            epsilon_ms: Some(1.5),
            ..Default::default()
        })
}

#[test]
fn json_round_trip_is_byte_stable() {
    let spec = specimen();
    let json = spec.to_json().expect("serializes");
    let back = WorkloadSpec::from_json(&json).expect("parses");
    assert_eq!(back, spec);
    // Byte stability: serialize → parse → serialize is the identity on
    // the JSON text, so the text itself can be a cache key.
    assert_eq!(back.to_json().expect("serializes"), json);
}

#[test]
fn canonicalization_is_idempotent_and_keys_the_cache() {
    let canonical = specimen().canonicalize().expect("canonicalizes");
    let twice = canonical.canonicalize().expect("canonicalizes again");
    assert_eq!(twice, canonical);
    assert_eq!(
        specimen().cache_key().expect("keys"),
        canonical.to_json().expect("serializes"),
        "the cache key is the canonical form's JSON"
    );
}

#[test]
fn session_spec_survives_the_wire() {
    // Builder → ScheduledSession → spec() → JSON → from_spec →
    // schedule: the replayed session solves the identical problem.
    let first = Session::on("orin")
        .task(Model::GoogleNet, 6)
        .task(Model::ResNet18, 6)
        .objective(Objective::MinMaxLatency)
        .schedule()
        .expect("schedulable");
    let spec = first.spec();
    let json = spec.to_json().expect("serializes");
    let replayed = Session::from_spec(&WorkloadSpec::from_json(&json).expect("parses"))
        .schedule()
        .expect("schedulable");
    assert_eq!(first.schedule.assignment, replayed.schedule.assignment);
    assert_eq!(
        first.schedule.cost.to_bits(),
        replayed.schedule.cost.to_bits()
    );
    assert_eq!(replayed.spec(), spec);
}

/// A body written against the old wire format, which let a request pick
/// the solver driver or ask for symmetry breaking, still parses (unknown fields are ignored), keys the
/// cache exactly like the body without those fields, and schedules to
/// the same bits: the solver picks its driver from the problem alone.
#[test]
fn retired_solver_knobs_are_ignored_on_the_wire() {
    let spec = specimen();
    let json = spec.to_json().expect("serializes");
    let tail = "\"contention_aware\":true}";
    assert!(json.contains(tail), "{json}");
    let legacy_json = json.replace(
        tail,
        "\"contention_aware\":true,\"break_symmetry\":true,\"parallel_solve\":true,\"portfolio_solve\":true,\"lns_workers\":4096}",
    );
    let legacy = WorkloadSpec::from_json(&legacy_json).expect("parses");
    assert_eq!(legacy, spec);
    assert_eq!(
        legacy.cache_key().expect("keys"),
        spec.cache_key().expect("keys")
    );
    let from_wire = Session::from_spec(&legacy).schedule().expect("schedulable");
    let direct = Session::from_spec(&spec).schedule().expect("schedulable");
    assert_eq!(from_wire.schedule.assignment, direct.schedule.assignment);
    assert_eq!(
        from_wire.schedule.cost.to_bits(),
        direct.schedule.cost.to_bits()
    );
}

/// The CLI and the wire share one platform alias table: every spelling
/// `haxconn schedule --platform` takes canonicalizes through a
/// `WorkloadSpec` (what a `/v1/schedule` body goes through) to the slug
/// of the platform the CLI picks for it.
#[test]
fn cli_platform_spellings_canonicalize_on_the_wire() {
    use haxconn::cli::{parse, Command};
    for spelling in [
        "orin",
        "ORIN-AGX",
        "agx-orin",
        "xavier",
        "agx-xavier",
        "sd865",
        "snapdragon-865",
        "snapdragon",
        "qualcomm",
    ] {
        let args = ["schedule", "--platform", spelling, "--models", "googlenet"];
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let platform = match parse(&args).expect("the CLI takes the spelling") {
            Command::Schedule { platform, .. } => platform,
            _ => panic!("{spelling}: not a schedule command"),
        };
        let canonical = WorkloadSpec::new(spelling)
            .task("googlenet", 6)
            .canonicalize()
            .unwrap_or_else(|e| panic!("{spelling}: {e}"));
        assert_eq!(canonical.platform, platform.slug(), "{spelling}");
    }
}
