//! The `haxconn` command-line interface.
//!
//! A thin, dependency-free front end over the library: list platforms and
//! models, profile networks, generate and compare schedules, run the
//! energy-aware variant, export execution traces and telemetry snapshots.
//! The parsing lives here (not in the binary) so it is unit-testable.
//!
//! Error policy: everything fallible returns [`HaxError`]; the `haxconn`
//! binary prints the message and exits nonzero. No code path here panics
//! on user input.

use crate::prelude::*;
use haxconn_core::cache::{ShardedCache, WorkloadSignature, PHASE_CAPACITY};
use haxconn_core::{
    chrome_trace_json, chrome_trace_json_with_snapshot, energy_of, schedule_min_energy, DHaxConn,
};
use haxconn_soc::PowerModel;
use haxconn_telemetry as tel;
use std::fmt::Write as _;
use std::sync::Arc;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `haxconn platforms`
    Platforms,
    /// `haxconn models`
    Models,
    /// `haxconn profile --platform P --model M [--groups N]`
    Profile {
        /// Target platform.
        platform: PlatformId,
        /// Model to profile.
        model: Model,
        /// Layer-group budget.
        groups: usize,
    },
    /// `haxconn schedule --platform P --models A,B[,C] [--objective O]
    /// [--pipeline] [--trace FILE] [--telemetry FILE]`
    Schedule {
        /// Target platform.
        platform: PlatformId,
        /// Concurrent models.
        models: Vec<Model>,
        /// Optimization objective.
        objective: Objective,
        /// Chain the models as a streaming pipeline.
        pipeline: bool,
        /// Optional Chrome-trace output path.
        trace: Option<String>,
        /// Render an ASCII Gantt chart of the measured run.
        gantt: bool,
        /// Optional telemetry snapshot output path (JSON).
        telemetry: Option<String>,
    },
    /// `haxconn energy --platform P --models A,B --budget-ms X`
    Energy {
        /// Target platform.
        platform: PlatformId,
        /// Concurrent models.
        models: Vec<Model>,
        /// Latency budget in milliseconds.
        budget_ms: f64,
    },
    /// `haxconn inspect --model M [--layers]`
    Inspect {
        /// Model to describe.
        model: Model,
        /// Print the full per-layer table.
        layers: bool,
    },
    /// `haxconn dynamic --platform P --phases A,B[;C,D...] [--rounds N]
    /// [--budget N] [--telemetry FILE]` (CFG phase toggling), or
    /// `haxconn dynamic --platform P --trace FILE|gen:SEED:EVENTS[:TENANTS]
    /// [--policy immediate|debounce:<ms>|utility:<gain>] [--budget N]
    /// [--report FILE] [--telemetry FILE]` (multi-tenant arrival replay).
    Dynamic {
        /// Target platform.
        platform: PlatformId,
        /// CFG phases, each a set of concurrent models; the autonomous
        /// loop toggles through them `rounds` times. Empty in trace mode.
        phases: Vec<Vec<Model>>,
        /// How many times to cycle through the phases.
        rounds: usize,
        /// Global solver node budget per phase/re-solve (None = optimal).
        budget: Option<u64>,
        /// Arrival-trace replay mode: a trace file path or a
        /// `gen:SEED:EVENTS[:TENANTS]` generator spec.
        trace: Option<String>,
        /// Re-solve policy for trace mode.
        policy: ResolvePolicy,
        /// Optional tenant-report output path (JSON), trace mode only.
        report: Option<String>,
        /// Optional telemetry snapshot output path (JSON).
        telemetry: Option<String>,
    },
    /// `haxconn stream --platform P --models A,B --fps F [--buffers N]`
    Stream {
        /// Target platform.
        platform: PlatformId,
        /// Concurrent models.
        models: Vec<Model>,
        /// Camera rate in frames per second.
        fps: f64,
        /// Input queue capacity in frames.
        buffers: usize,
    },
    /// `haxconn telemetry --file F` — summarize a telemetry snapshot.
    Telemetry {
        /// Path of a snapshot written by `--telemetry`.
        file: String,
    },
    /// `haxconn fleet --platform P --models A,B[,C] [--count N]
    /// [--iterations K] [--seed S] [--threads T]`
    Fleet {
        /// Target platform.
        platform: PlatformId,
        /// Concurrent models.
        models: Vec<Model>,
        /// Total candidate assignments to evaluate (baselines + HaX-CoNN +
        /// random fill).
        count: usize,
        /// Frames per task per scenario.
        iterations: usize,
        /// Seed for the random candidate assignments.
        seed: u64,
        /// Worker-pool size (`None` = all CPUs).
        threads: Option<usize>,
    },
    /// `haxconn solve --seed S [--tasks N] [--groups G] [--budget NODES]`
    /// — crack a generated large instance (random layer-group DAG on the
    /// dual-DLA Orin) with the exact solver.
    Solve {
        /// Instance-generator seed.
        seed: u64,
        /// DNN instances in the generated workload.
        tasks: usize,
        /// Layer groups per instance.
        groups: usize,
        /// Global solver node budget (None = run to proven optimality).
        budget: Option<u64>,
    },
    /// `haxconn check --platform P --models A,B [--objective O] [--pipeline]`
    /// (validate one schedule) or `haxconn check --fuzz N [--seed S]
    /// [--fuzz-large M]` (differential fuzzing).
    Check {
        /// Differential-fuzz scenario count; `None` = schedule-validate
        /// mode.
        fuzz: Option<usize>,
        /// Large-instance B&B/LNS race-fuzz instance count (runs after the
        /// differential pass when given).
        fuzz_large: Option<usize>,
        /// Arrival-trace fuzz count: replays that many generated tenant
        /// traces, re-validating every re-solve point and checking byte
        /// determinism across runs and solver worker counts.
        fuzz_arrival: Option<usize>,
        /// Fuzzer seed (deterministic; same seed = same scenarios).
        seed: u64,
        /// Target platform (schedule-validate mode).
        platform: Option<PlatformId>,
        /// Concurrent models (schedule-validate mode).
        models: Vec<Model>,
        /// Optimization objective (schedule-validate mode).
        objective: Objective,
        /// Chain the models as a streaming pipeline.
        pipeline: bool,
    },
    /// `haxconn serve [--addr A] [--workers N] [--max-conns C]
    /// [--idle-timeout-ms MS] [--cache-capacity C] [--max-solves S]
    /// [--max-pending P] [--no-degrade]` — the
    /// scheduling-as-a-service daemon (see the `serve` module).
    Serve {
        /// Bind address (`host:port`; port 0 picks an ephemeral port).
        addr: String,
        /// Solve-pool threads (`None` = one per core, capped at 8).
        workers: Option<usize>,
        /// Open-connection cap before accept-edge 503s.
        max_conns: usize,
        /// Idle keep-alive connections are evicted after this long.
        idle_timeout_ms: u64,
        /// Schedule-cache capacity across shards.
        cache_capacity: usize,
        /// Concurrent solve limit (`None` = unlimited).
        max_solves: Option<usize>,
        /// Callers allowed to queue for a solve slot.
        max_pending: usize,
        /// Return typed 503s under overload instead of degraded
        /// baseline schedules.
        no_degrade: bool,
    },
    /// `haxconn help`
    Help,
}

fn cli_err(msg: impl Into<String>) -> HaxError {
    HaxError::Cli(msg.into())
}

fn parse_models(s: &str) -> Result<Vec<Model>, HaxError> {
    let models: Result<Vec<Model>, HaxError> = s.split(',').map(parse_model).collect();
    let models = models?;
    if models.is_empty() {
        return Err(cli_err("at least one model required"));
    }
    Ok(models)
}

/// Parses a `--policy` spec: `immediate`, `debounce:<ms>` or
/// `utility:<gain>`.
fn parse_policy(s: &str) -> Result<ResolvePolicy, HaxError> {
    let lower = s.to_ascii_lowercase();
    if lower == "immediate" {
        return Ok(ResolvePolicy::Immediate);
    }
    if let Some(ms) = lower.strip_prefix("debounce:") {
        let window_ms: f64 = ms
            .parse()
            .map_err(|_| cli_err(format!("bad --policy debounce window '{ms}'")))?;
        if !window_ms.is_finite() || window_ms < 0.0 {
            return Err(cli_err(format!(
                "debounce window must be finite and non-negative, got {window_ms}"
            )));
        }
        return Ok(ResolvePolicy::Debounced { window_ms });
    }
    if let Some(gain) = lower.strip_prefix("utility:") {
        let min_gain: f64 = gain
            .parse()
            .map_err(|_| cli_err(format!("bad --policy utility gain '{gain}'")))?;
        if !min_gain.is_finite() || min_gain < 0.0 {
            return Err(cli_err(format!(
                "utility gain must be finite and non-negative, got {min_gain}"
            )));
        }
        return Ok(ResolvePolicy::UtilityThreshold { min_gain });
    }
    Err(cli_err(format!(
        "bad --policy '{s}' (want immediate, debounce:<ms> or utility:<gain>)"
    )))
}

/// Resolves a `--trace` spec for arrival replay: either a JSON trace
/// file or a deterministic generator spec `gen:SEED:EVENTS[:TENANTS]`.
fn load_arrival_trace(spec: &str) -> Result<ArrivalTrace, HaxError> {
    if let Some(rest) = spec.strip_prefix("gen:") {
        let parts: Vec<&str> = rest.split(':').collect();
        if parts.len() != 2 && parts.len() != 3 {
            return Err(cli_err(format!(
                "bad --trace spec '{spec}' (want gen:SEED:EVENTS[:TENANTS])"
            )));
        }
        let seed: u64 = parts[0]
            .parse()
            .map_err(|_| cli_err(format!("bad trace seed '{}'", parts[0])))?;
        let events: usize = parts[1]
            .parse()
            .map_err(|_| cli_err(format!("bad trace event count '{}'", parts[1])))?;
        let tenants: usize = match parts.get(2) {
            Some(v) => v
                .parse()
                .map_err(|_| cli_err(format!("bad trace tenant cap '{v}'")))?,
            None => 3,
        };
        Ok(ArrivalTrace::generate(seed, events, tenants))
    } else {
        let text = std::fs::read_to_string(spec)
            .map_err(|e| cli_err(format!("cannot read trace '{spec}': {e}")))?;
        ArrivalTrace::from_json(&text)
    }
}

/// Extracts `--flag value` pairs and standalone `--switch`es.
struct Args<'a> {
    rest: Vec<&'a str>,
}

impl<'a> Args<'a> {
    fn new(args: &'a [String]) -> Self {
        Args {
            rest: args.iter().map(String::as_str).collect(),
        }
    }

    fn take_value(&mut self, flag: &str) -> Result<Option<&'a str>, HaxError> {
        if let Some(pos) = self.rest.iter().position(|a| *a == flag) {
            if pos + 1 >= self.rest.len() {
                return Err(cli_err(format!("{flag} needs a value")));
            }
            let v = self.rest[pos + 1];
            self.rest.drain(pos..=pos + 1);
            Ok(Some(v))
        } else {
            Ok(None)
        }
    }

    fn require(&mut self, flag: &str) -> Result<&'a str, HaxError> {
        self.take_value(flag)?
            .ok_or_else(|| cli_err(format!("{flag} required")))
    }

    fn take_switch(&mut self, flag: &str) -> bool {
        if let Some(pos) = self.rest.iter().position(|a| *a == flag) {
            self.rest.remove(pos);
            true
        } else {
            false
        }
    }

    fn finish(self) -> Result<(), HaxError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(cli_err(format!("unexpected arguments: {:?}", self.rest)))
        }
    }
}

/// Parses a full argument list (without the program name).
pub fn parse(args: &[String]) -> Result<Command, HaxError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    let mut a = Args::new(&args[1..]);
    let parsed = match cmd.as_str() {
        "platforms" => Command::Platforms,
        "models" => Command::Models,
        "profile" => {
            let platform = parse_platform(a.require("--platform")?)?;
            let model = parse_model(a.require("--model")?)?;
            let groups = match a.take_value("--groups")? {
                Some(v) => v
                    .parse()
                    .map_err(|_| cli_err(format!("bad --groups '{v}'")))?,
                None => 10,
            };
            Command::Profile {
                platform,
                model,
                groups,
            }
        }
        "schedule" => {
            let platform = parse_platform(a.require("--platform")?)?;
            let models = parse_models(a.require("--models")?)?;
            let objective = match a.take_value("--objective")? {
                Some(v) => parse_objective(v)?,
                None => Objective::MinMaxLatency,
            };
            let pipeline = a.take_switch("--pipeline");
            let trace = a.take_value("--trace")?.map(str::to_string);
            let gantt = a.take_switch("--gantt");
            let telemetry = a.take_value("--telemetry")?.map(str::to_string);
            Command::Schedule {
                platform,
                models,
                objective,
                pipeline,
                trace,
                gantt,
                telemetry,
            }
        }
        "energy" => {
            let platform = parse_platform(a.require("--platform")?)?;
            let models = parse_models(a.require("--models")?)?;
            let budget_ms = a
                .require("--budget-ms")?
                .parse()
                .map_err(|_| cli_err("bad --budget-ms"))?;
            Command::Energy {
                platform,
                models,
                budget_ms,
            }
        }
        "dynamic" => {
            let platform = parse_platform(a.require("--platform")?)?;
            let trace = a.take_value("--trace")?.map(str::to_string);
            let phases = match a.take_value("--phases")? {
                Some(v) => v.split(';').map(parse_models).collect::<Result<_, _>>()?,
                None if trace.is_some() => Vec::new(),
                None => return Err(cli_err("--phases required (or --trace for arrival replay)")),
            };
            let rounds = match a.take_value("--rounds")? {
                Some(v) => v.parse().map_err(|_| cli_err("bad --rounds"))?,
                None => 2,
            };
            let budget = match a.take_value("--budget")? {
                Some(v) => Some(v.parse().map_err(|_| cli_err("bad --budget"))?),
                None => None,
            };
            let policy = match a.take_value("--policy")? {
                Some(v) => parse_policy(v)?,
                None => ResolvePolicy::Immediate,
            };
            let report = a.take_value("--report")?.map(str::to_string);
            let telemetry = a.take_value("--telemetry")?.map(str::to_string);
            Command::Dynamic {
                platform,
                phases,
                rounds,
                budget,
                trace,
                policy,
                report,
                telemetry,
            }
        }
        "inspect" => {
            let model = parse_model(a.require("--model")?)?;
            let layers = a.take_switch("--layers");
            Command::Inspect { model, layers }
        }
        "stream" => {
            let platform = parse_platform(a.require("--platform")?)?;
            let models = parse_models(a.require("--models")?)?;
            let fps = a
                .require("--fps")?
                .parse()
                .map_err(|_| cli_err("bad --fps"))?;
            let buffers = match a.take_value("--buffers")? {
                Some(v) => v.parse().map_err(|_| cli_err("bad --buffers"))?,
                None => 3,
            };
            Command::Stream {
                platform,
                models,
                fps,
                buffers,
            }
        }
        "telemetry" => Command::Telemetry {
            file: a.require("--file")?.to_string(),
        },
        "fleet" => {
            let platform = parse_platform(a.require("--platform")?)?;
            let models = parse_models(a.require("--models")?)?;
            let count = match a.take_value("--count")? {
                Some(v) => v
                    .parse()
                    .map_err(|_| cli_err(format!("bad --count '{v}'")))?,
                None => 32,
            };
            let iterations = match a.take_value("--iterations")? {
                Some(v) => v
                    .parse()
                    .map_err(|_| cli_err(format!("bad --iterations '{v}'")))?,
                None => 1,
            };
            let seed = match a.take_value("--seed")? {
                Some(v) => v
                    .parse()
                    .map_err(|_| cli_err(format!("bad --seed '{v}'")))?,
                None => 42,
            };
            let threads = match a.take_value("--threads")? {
                Some(v) => Some(
                    v.parse()
                        .map_err(|_| cli_err(format!("bad --threads '{v}'")))?,
                ),
                None => None,
            };
            if count == 0 {
                return Err(cli_err("--count must be at least 1"));
            }
            if iterations == 0 {
                return Err(cli_err("--iterations must be at least 1"));
            }
            Command::Fleet {
                platform,
                models,
                count,
                iterations,
                seed,
                threads,
            }
        }
        "solve" => {
            let seed = match a.take_value("--seed")? {
                Some(v) => v
                    .parse()
                    .map_err(|_| cli_err(format!("bad --seed '{v}'")))?,
                None => 42,
            };
            let tasks = match a.take_value("--tasks")? {
                Some(v) => v
                    .parse()
                    .map_err(|_| cli_err(format!("bad --tasks '{v}'")))?,
                None => 6,
            };
            let groups = match a.take_value("--groups")? {
                Some(v) => v
                    .parse()
                    .map_err(|_| cli_err(format!("bad --groups '{v}'")))?,
                None => 9,
            };
            let budget = match a.take_value("--budget")? {
                Some(v) => Some(
                    v.parse()
                        .map_err(|_| cli_err(format!("bad --budget '{v}'")))?,
                ),
                None => None,
            };
            if tasks == 0 || groups == 0 {
                return Err(cli_err("--tasks and --groups must be at least 1"));
            }
            Command::Solve {
                seed,
                tasks,
                groups,
                budget,
            }
        }
        "check" => {
            let fuzz = match a.take_value("--fuzz")? {
                Some(v) => Some(
                    v.parse()
                        .map_err(|_| cli_err(format!("bad --fuzz '{v}'")))?,
                ),
                None => None,
            };
            let fuzz_large = match a.take_value("--fuzz-large")? {
                Some(v) => Some(
                    v.parse()
                        .map_err(|_| cli_err(format!("bad --fuzz-large '{v}'")))?,
                ),
                None => None,
            };
            let fuzz_arrival = match a.take_value("--fuzz-arrival")? {
                Some(v) => Some(
                    v.parse()
                        .map_err(|_| cli_err(format!("bad --fuzz-arrival '{v}'")))?,
                ),
                None => None,
            };
            let seed = match a.take_value("--seed")? {
                Some(v) => v
                    .parse()
                    .map_err(|_| cli_err(format!("bad --seed '{v}'")))?,
                None => 42,
            };
            if fuzz.is_some() || fuzz_large.is_some() || fuzz_arrival.is_some() {
                Command::Check {
                    fuzz,
                    fuzz_large,
                    fuzz_arrival,
                    seed,
                    platform: None,
                    models: Vec::new(),
                    objective: Objective::MinMaxLatency,
                    pipeline: false,
                }
            } else {
                let platform = parse_platform(a.require("--platform")?)?;
                let models = parse_models(a.require("--models")?)?;
                let objective = match a.take_value("--objective")? {
                    Some(v) => parse_objective(v)?,
                    None => Objective::MinMaxLatency,
                };
                let pipeline = a.take_switch("--pipeline");
                Command::Check {
                    fuzz: None,
                    fuzz_large: None,
                    fuzz_arrival: None,
                    seed,
                    platform: Some(platform),
                    models,
                    objective,
                    pipeline,
                }
            }
        }
        "serve" => {
            let addr = a
                .take_value("--addr")?
                .unwrap_or("127.0.0.1:8787")
                .to_string();
            let workers = match a.take_value("--workers")? {
                Some(v) => Some(
                    v.parse()
                        .map_err(|_| cli_err(format!("bad --workers '{v}'")))?,
                ),
                None => None,
            };
            let max_conns = match a.take_value("--max-conns")? {
                Some(v) => v
                    .parse()
                    .map_err(|_| cli_err(format!("bad --max-conns '{v}'")))?,
                None => 1024,
            };
            let idle_timeout_ms = match a.take_value("--idle-timeout-ms")? {
                Some(v) => v
                    .parse()
                    .map_err(|_| cli_err(format!("bad --idle-timeout-ms '{v}'")))?,
                None => 60_000,
            };
            let cache_capacity = match a.take_value("--cache-capacity")? {
                Some(v) => v
                    .parse()
                    .map_err(|_| cli_err(format!("bad --cache-capacity '{v}'")))?,
                None => 1024,
            };
            let max_solves = match a.take_value("--max-solves")? {
                Some(v) => Some(
                    v.parse()
                        .map_err(|_| cli_err(format!("bad --max-solves '{v}'")))?,
                ),
                None => None,
            };
            let max_pending = match a.take_value("--max-pending")? {
                Some(v) => v
                    .parse()
                    .map_err(|_| cli_err(format!("bad --max-pending '{v}'")))?,
                None => 64,
            };
            let no_degrade = a.take_switch("--no-degrade");
            if let Some(0) = workers {
                return Err(cli_err("--workers must be at least 1"));
            }
            if max_conns == 0 {
                return Err(cli_err("--max-conns must be at least 1"));
            }
            Command::Serve {
                addr,
                workers,
                max_conns,
                idle_timeout_ms,
                cache_capacity,
                max_solves,
                max_pending,
                no_degrade,
            }
        }
        "help" | "--help" | "-h" => Command::Help,
        other => return Err(cli_err(format!("unknown command '{other}'"))),
    };
    a.finish()?;
    Ok(parsed)
}

/// Usage text.
pub const USAGE: &str =
    "haxconn — contention-aware concurrent DNN scheduling (PPoPP'24 reproduction)

USAGE:
  haxconn platforms
  haxconn models
  haxconn profile   --platform <orin|xavier|sd865> --model <NAME> [--groups N]
  haxconn schedule  --platform <P> --models <A,B[,C]> [--objective latency|throughput]
                    [--pipeline] [--trace FILE.json] [--gantt] [--telemetry FILE.json]
  haxconn energy    --platform <P> --models <A,B> --budget-ms <X>
  haxconn dynamic   --platform <P> --phases <A,B[;C,D...]> [--rounds N] [--budget N]
                    [--telemetry FILE.json]
  haxconn dynamic   --platform <P> --trace <FILE.json|gen:SEED:EVENTS[:TENANTS]>
                    [--policy immediate|debounce:<ms>|utility:<gain>] [--budget N]
                    [--report FILE.json] [--telemetry FILE.json]
  haxconn inspect   --model <NAME> [--layers]
  haxconn stream    --platform <P> --models <A,B> --fps <F> [--buffers N]
  haxconn telemetry --file <FILE.json>
  haxconn fleet     --platform <P> --models <A,B[,C]> [--count N] [--iterations K]
                    [--seed S] [--threads T]
  haxconn solve     [--seed S] [--tasks N] [--groups G] [--budget NODES]
  haxconn check     --platform <P> --models <A,B[,C]> [--objective O] [--pipeline]
  haxconn check     --fuzz <N> [--seed S] [--fuzz-large M] [--fuzz-arrival T]
  haxconn serve     [--addr HOST:PORT] [--workers N] [--max-conns C]
                    [--idle-timeout-ms MS] [--cache-capacity C] [--max-solves S]
                    [--max-pending P] [--no-degrade]
";

/// Switches the process-global memory recorder on (creating it on first
/// use) and returns it, reset, so a run captures a fresh snapshot.
fn telemetry_start() -> Option<&'static Arc<MemoryRecorder>> {
    let rec = tel::memory_recorder()?;
    rec.reset();
    tel::set_enabled(true);
    Some(rec)
}

/// Disables recording, takes the final snapshot and writes it to `path`.
fn telemetry_finish(
    rec: &MemoryRecorder,
    path: &str,
    out: &mut String,
) -> Result<Snapshot, HaxError> {
    tel::set_enabled(false);
    let snap = rec.snapshot();
    std::fs::write(path, snap.to_json())
        .map_err(|e| HaxError::Io(format!("writing {path}: {e}")))?;
    writeln!(out, "telemetry snapshot written to {path}")?;
    Ok(snap)
}

/// Executes a parsed command, returning the text to print.
pub fn run(command: Command) -> Result<String, HaxError> {
    let mut out = String::new();
    match command {
        Command::Help => out.push_str(USAGE),
        Command::Platforms => {
            for id in PlatformId::all() {
                let p = id.platform();
                writeln!(out, "{} ({:?})", p.name, id)?;
                for pu in &p.pus {
                    writeln!(
                        out,
                        "  {:3} {:<14} {:>8.0} GFLOP/s  {:>5.0} GB/s  {:>5.0} KiB buffer",
                        pu.kind.label(),
                        pu.name,
                        pu.peak_gflops,
                        pu.max_bw_gbps,
                        pu.onchip_kib
                    )?;
                }
                writeln!(
                    out,
                    "  EMC {:.1} GB/s (capacity {:.1})",
                    p.emc.bandwidth_gbps,
                    p.emc.capacity()
                )?;
            }
        }
        Command::Models => {
            writeln!(
                out,
                "{:<12} {:>7} {:>10} {:>10}",
                "model", "layers", "GFLOPs", "params(MB)"
            )?;
            for &m in Model::all() {
                let n = m.network();
                writeln!(
                    out,
                    "{:<12} {:>7} {:>10.2} {:>10.1}",
                    m.name(),
                    n.len(),
                    n.total_flops() as f64 / 1e9,
                    n.total_weight_bytes() as f64 / 1e6
                )?;
            }
        }
        Command::Profile {
            platform,
            model,
            groups,
        } => {
            let p = platform.platform();
            let prof = NetworkProfile::profile(&p, model, groups);
            let json = serde_json::to_string_pretty(&prof)
                .map_err(|e| cli_err(format!("serializing profile: {e}")))?;
            out.push_str(&json);
        }
        Command::Schedule {
            platform,
            models,
            objective,
            pipeline,
            trace,
            gantt,
            telemetry,
        } => {
            let recorder = match &telemetry {
                Some(_) => telemetry_start(),
                None => None,
            };
            let p = platform.platform();
            let contention = ContentionModel::calibrate(&p);
            let tasks: Vec<DnnTask> = models
                .iter()
                .map(|&m| DnnTask::new(m.name(), NetworkProfile::profile(&p, m, 10)))
                .collect();
            let workload = if pipeline {
                Workload::try_pipeline(tasks)?
            } else {
                Workload::concurrent(tasks)
            };
            writeln!(out, "{:<10} {:>10} {:>9}", "scheduler", "lat (ms)", "fps")?;
            for &kind in BaselineKind::all() {
                let a = Baseline::assignment(kind, &p, &workload);
                let m = execute(&p, &workload, &a);
                writeln!(
                    out,
                    "{:<10} {:>10.2} {:>9.1}",
                    kind.name(),
                    m.makespan_ms,
                    m.fps()
                )?;
            }
            let s = HaxConn::try_schedule_validated(
                &p,
                &workload,
                &contention,
                SchedulerConfig::with_objective(objective),
            )?;
            let m = execute(&p, &workload, &s.assignment);
            writeln!(
                out,
                "{:<10} {:>10.2} {:>9.1}",
                "HaX-CoNN",
                m.makespan_ms,
                m.fps()
            )?;
            writeln!(out, "\nschedule: {}", s.describe(&p, &workload))?;
            if gantt {
                writeln!(
                    out,
                    "\n{}",
                    haxconn_core::render_gantt(&p, &workload, &s.assignment, &m, 72)
                )?;
            }
            let snapshot = match (recorder, &telemetry) {
                (Some(rec), Some(path)) => Some(telemetry_finish(rec, path, &mut out)?),
                _ => None,
            };
            if let Some(path) = trace {
                // With telemetry on, counter series and solver/scheduler
                // spans ride along in the same Perfetto-loadable file.
                let json = match &snapshot {
                    Some(snap) => {
                        chrome_trace_json_with_snapshot(&p, &workload, &s.assignment, &m, snap)
                    }
                    None => chrome_trace_json(&p, &workload, &s.assignment, &m),
                };
                std::fs::write(&path, json)
                    .map_err(|e| HaxError::Io(format!("writing {path}: {e}")))?;
                writeln!(out, "trace written to {path} (open in Perfetto)")?;
            }
        }
        Command::Inspect { model, layers } => {
            let net = model.network();
            writeln!(
                out,
                "{}: {} layers, {:.2} GFLOPs, {:.1} MB parameters, input {}",
                model.name(),
                net.len(),
                net.total_flops() as f64 / 1e9,
                net.total_weight_bytes() as f64 / 1e6,
                net.input_shape
            )?;
            let kinds = net.layers.iter().fold(
                std::collections::BTreeMap::<String, usize>::new(),
                |mut acc, l| {
                    let k = format!("{:?}", l.kind)
                        .split([' ', '{', '('])
                        .next()
                        .unwrap_or("?")
                        .to_string();
                    *acc.entry(k).or_default() += 1;
                    acc
                },
            );
            writeln!(out, "layer kinds:")?;
            for (k, n) in kinds {
                writeln!(out, "  {k:<16} {n}")?;
            }
            if layers {
                writeln!(
                    out,
                    "
{:>5} {:<28} {:>14} {:>10} {:>10}",
                    "id", "name", "out shape", "MFLOPs", "KB out"
                )?;
                for l in &net.layers {
                    writeln!(
                        out,
                        "{:>5} {:<28} {:>14} {:>10.2} {:>10.1}",
                        l.id,
                        if l.name.len() > 28 {
                            &l.name[..28]
                        } else {
                            &l.name
                        },
                        l.output_shape.to_string(),
                        l.flops() as f64 / 1e6,
                        l.output_bytes() as f64 / 1e3
                    )?;
                }
            }
        }
        Command::Dynamic {
            platform,
            phases,
            rounds,
            budget,
            trace,
            policy,
            report,
            telemetry,
        } => {
            // The D-HaX-CoNN loop (paper Fig. 7 + Section 3.5 CFG
            // toggling): each phase starts from the best naive schedule,
            // improves it anytime via the parallel solver, and lands in
            // the schedule cache so returning to a phase is instant.
            // With `--trace`, the multi-tenant arrival engine replays a
            // join/leave/SLA-change trace instead.
            let recorder = match &telemetry {
                Some(_) => telemetry_start(),
                None => None,
            };
            let p = platform.platform();
            let contention = ContentionModel::calibrate(&p);
            if let Some(spec) = &trace {
                let arrival_trace = load_arrival_trace(spec)?;
                let options = ReplayOptions {
                    policy,
                    config: SchedulerConfig {
                        node_budget: budget,
                        ..Default::default()
                    },
                    validate: true,
                    record_resolves: report.is_some(),
                    ..Default::default()
                };
                let r = replay_arrivals(&p, &contention, &arrival_trace, &options)?;
                writeln!(
                    out,
                    "arrival replay: {} events over {:.1} ms ({} joins, {} leaves, {} SLA \
                     changes, {} ignored)",
                    r.events, r.horizon_ms, r.joins, r.leaves, r.sla_changes, r.ignored
                )?;
                writeln!(
                    out,
                    "re-solves: {} solved, {} skipped, {} cache hits / {} misses, {} throttle \
                     passes, {} invariant violations",
                    r.resolves,
                    r.resolve_skips,
                    r.cache_hits,
                    r.cache_misses,
                    r.throttles,
                    r.violations
                )?;
                for sample in &r.violation_samples {
                    writeln!(out, "  violation: {sample}")?;
                }
                writeln!(out, "jain fairness: {:.4}", r.jain_fairness)?;
                writeln!(
                    out,
                    "\n{:<8} {:<16} {:>10} {:>10} {:>10} {:>9} {:>7}",
                    "tenant", "model", "active", "mean", "p99", "deadline", "SLA"
                )?;
                for t in &r.tenants {
                    let deadline = match t.deadline_ms {
                        Some(d) => format!("{d:.0}ms"),
                        None => "-".into(),
                    };
                    let sla = match t.sla_attainment {
                        Some(x) => format!("{:.0}%", x * 100.0),
                        None => "-".into(),
                    };
                    writeln!(
                        out,
                        "{:<8} {:<16} {:>8.1}ms {:>8.2}ms {:>8.2}ms {:>9} {:>7}",
                        t.name,
                        t.model,
                        t.active_ms,
                        t.mean_latency_ms,
                        t.p99_latency_ms,
                        deadline,
                        sla
                    )?;
                }
                if let Some(path) = &report {
                    std::fs::write(path, r.to_json())
                        .map_err(|e| cli_err(format!("cannot write report '{path}': {e}")))?;
                    writeln!(out, "\ntenant report written to {path}")?;
                }
                if let (Some(rec), Some(path)) = (recorder, &telemetry) {
                    telemetry_finish(rec, path, &mut out)?;
                }
                return Ok(out);
            }
            let cfg = SchedulerConfig {
                node_budget: budget,
                ..Default::default()
            };
            let workloads: Vec<Workload> = phases
                .iter()
                .map(|models| {
                    Workload::concurrent(
                        models
                            .iter()
                            .map(|&m| DnnTask::new(m.name(), NetworkProfile::profile(&p, m, 6)))
                            .collect(),
                    )
                })
                .collect();
            let cache = ShardedCache::new(PHASE_CAPACITY);
            for round in 0..rounds {
                for (i, w) in workloads.iter().enumerate() {
                    let signature = WorkloadSignature::of(w);
                    let mut solved = None;
                    let s = cache.get(&signature).unwrap_or_else(|| {
                        let d = DHaxConn::run(&p, w, &contention, cfg);
                        solved = Some((
                            d.initial.cost,
                            d.trace.len(),
                            d.trace.last().map(|inc| inc.at),
                        ));
                        let s = Arc::new(d.into_schedule(w, &contention, cfg));
                        cache.insert(signature, Arc::clone(&s));
                        s
                    });
                    let names: Vec<&str> = phases[i].iter().map(|m| m.name()).collect();
                    match solved {
                        Some((naive, improvements, settled)) => writeln!(
                            out,
                            "round {round} phase {i} [{}]: solved — naive {naive:.2} -> best {:.2} \
                             ({improvements} improvements{}){}",
                            names.join("+"),
                            s.cost,
                            match settled {
                                Some(at) =>
                                    format!(", settled after {:.1} ms", at.as_secs_f64() * 1e3),
                                None => String::new(),
                            },
                            if s.proven_optimal {
                                ", optimal"
                            } else {
                                ", budget-bounded"
                            },
                        )?,
                        None => writeln!(
                            out,
                            "round {round} phase {i} [{}]: cache hit — best {:.2}",
                            names.join("+"),
                            s.cost
                        )?,
                    }
                }
            }
            let (hits, misses, evictions) = cache.stats();
            tel::counter_add("cache.hits", hits);
            tel::counter_add("cache.misses", misses);
            tel::counter_add("cache.evictions", evictions);
            writeln!(
                out,
                "\nschedule cache: {hits} hits, {misses} misses, {} phases cached",
                cache.len()
            )?;
            if let (Some(rec), Some(path)) = (recorder, &telemetry) {
                telemetry_finish(rec, path, &mut out)?;
            }
        }
        Command::Stream {
            platform,
            models,
            fps,
            buffers,
        } => {
            let p = platform.platform();
            let contention = ContentionModel::calibrate(&p);
            let workload = Workload::concurrent(
                models
                    .iter()
                    .map(|&m| DnnTask::new(m.name(), NetworkProfile::profile(&p, m, 10)))
                    .collect(),
            );
            let s = HaxConn::try_schedule_validated(
                &p,
                &workload,
                &contention,
                SchedulerConfig::default(),
            )?;
            // Steady-state per-frame service time from the concurrent loop
            // executor.
            let frames = 8;
            let run = haxconn_runtime::execute_loop(&p, &workload, &s.assignment, frames);
            let service_ms = run.makespan_ms / frames as f64;
            let report = haxconn_runtime::try_simulate_stream(haxconn_runtime::StreamConfig {
                period_ms: 1000.0 / fps,
                service_ms,
                queue_capacity: buffers,
                frames: 1000,
            })?;
            writeln!(
                out,
                "schedule: {}
per-frame service {:.2} ms vs period {:.2} ms",
                s.describe(&p, &workload),
                service_ms,
                1000.0 / fps
            )?;
            writeln!(
                out,
                "1000-frame stream: processed {}, dropped {} ({:.1}%), mean latency {:.2} ms, worst {:.2} ms",
                report.processed,
                report.dropped,
                100.0 * report.drop_rate(),
                report.mean_latency_ms,
                report.worst_latency_ms
            )?;
        }
        Command::Energy {
            platform,
            models,
            budget_ms,
        } => {
            let p = platform.platform();
            let contention = ContentionModel::calibrate(&p);
            let power = PowerModel::of(&p);
            let workload = Workload::concurrent(
                models
                    .iter()
                    .map(|&m| DnnTask::new(m.name(), NetworkProfile::profile(&p, m, 10)))
                    .collect(),
            );
            let fast =
                HaxConn::try_schedule(&p, &workload, &contention, SchedulerConfig::default())?;
            let fast_m = execute(&p, &workload, &fast.assignment);
            let fast_e = energy_of(&workload, &fast.assignment, &power, fast_m.makespan_ms);
            writeln!(
                out,
                "latency-optimal : {:>7.2} ms  {:>7.2} mJ  ({:.1} W)",
                fast_m.makespan_ms,
                fast_e.total_mj(),
                fast_e.mean_power_w
            )?;
            match schedule_min_energy(
                &p,
                &workload,
                &contention,
                &power,
                budget_ms,
                SchedulerConfig::default(),
            ) {
                Some(s) => {
                    let m = execute(&p, &workload, &s.assignment);
                    let e = energy_of(&workload, &s.assignment, &power, m.makespan_ms);
                    writeln!(
                        out,
                        "energy-optimal  : {:>7.2} ms  {:>7.2} mJ  ({:.1} W)  [budget {budget_ms} ms]",
                        m.makespan_ms,
                        e.total_mj(),
                        e.mean_power_w
                    )?;
                    writeln!(out, "\nschedule: {}", s.describe(&p, &workload))?;
                }
                None => writeln!(out, "no schedule meets the {budget_ms} ms budget")?,
            }
        }
        Command::Fleet {
            platform,
            models,
            count,
            iterations,
            seed,
            threads,
        } => {
            let p = platform.platform();
            let contention = ContentionModel::calibrate(&p);
            let workload = Workload::concurrent(
                models
                    .iter()
                    .map(|&m| DnnTask::new(m.name(), NetworkProfile::profile(&p, m, 6)))
                    .collect(),
            );
            // Candidate pool: every baseline, the HaX-CoNN schedule, then
            // random valid assignments until `count` is reached.
            let mut labels: Vec<String> = Vec::new();
            let mut candidates: Vec<Vec<Vec<PuId>>> = Vec::new();
            for &kind in BaselineKind::all() {
                labels.push(kind.name().to_string());
                candidates.push(Baseline::assignment(kind, &p, &workload));
            }
            let s = HaxConn::try_schedule(&p, &workload, &contention, SchedulerConfig::default())?;
            labels.push("HaX-CoNN".to_string());
            candidates.push(s.assignment.clone());
            candidates.truncate(count);
            labels.truncate(count);
            let mut rng = seed | 1; // xorshift64 state must be nonzero
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            while candidates.len() < count {
                let assignment: Vec<Vec<PuId>> = workload
                    .tasks
                    .iter()
                    .map(|t| {
                        t.profile
                            .groups
                            .iter()
                            .map(|g| {
                                let supported: Vec<PuId> = (0..p.pus.len())
                                    .filter(|&pu| g.cost[pu].is_some())
                                    .collect();
                                supported[next() as usize % supported.len()]
                            })
                            .collect()
                    })
                    .collect();
                labels.push(format!("random#{}", candidates.len()));
                candidates.push(assignment);
            }
            let scenarios: Vec<haxconn_runtime::FleetScenario> = candidates
                .iter()
                .map(|assignment| haxconn_runtime::FleetScenario {
                    workload: &workload,
                    assignment: assignment.clone(),
                    iterations,
                })
                .collect();
            let opts = haxconn_runtime::FleetOptions { threads };
            let fleet = haxconn_runtime::evaluate_fleet(&p, &scenarios, opts);
            writeln!(
                out,
                "fleet: {} scenarios x {} iteration(s) on {} ({} workers)",
                fleet.reports.len(),
                iterations,
                p.name,
                fleet.workers
            )?;
            writeln!(
                out,
                "evaluated in {:.2} ms ({:.0} scenarios/s)",
                fleet.wall_ms,
                fleet.throughput_per_sec()
            )?;
            let mut ranked: Vec<usize> = (0..fleet.reports.len()).collect();
            ranked.sort_by(|&a, &b| {
                fleet.reports[a]
                    .makespan_ms
                    .total_cmp(&fleet.reports[b].makespan_ms)
            });
            writeln!(out, "\n{:<12} {:>12} {:>9}", "candidate", "makespan", "fps")?;
            for &i in ranked.iter().take(5) {
                writeln!(
                    out,
                    "{:<12} {:>9.2} ms {:>9.1}",
                    labels[i],
                    fleet.reports[i].makespan_ms,
                    fleet.reports[i].fps()
                )?;
            }
            if ranked.len() > 5 {
                let worst = *ranked.last().expect("nonempty ranking");
                writeln!(
                    out,
                    "... {} more, worst {:<12} {:>9.2} ms",
                    ranked.len() - 5,
                    labels[worst],
                    fleet.reports[worst].makespan_ms
                )?;
            }
        }
        Command::Telemetry { file } => {
            let text = std::fs::read_to_string(&file)
                .map_err(|e| HaxError::Io(format!("reading {file}: {e}")))?;
            let v: serde_json::Value =
                serde_json::from_str(&text).map_err(|e| cli_err(format!("parsing {file}: {e}")))?;
            summarize_snapshot(&v, &mut out)?;
        }
        Command::Solve {
            seed,
            tasks,
            groups,
            budget,
        } => {
            use haxconn_solver::CostModel as _;
            let g = haxconn_core::generate_instance(seed, tasks, groups);
            let cm = ContentionModel::calibrate(&g.platform);
            let enc = haxconn_core::ScheduleEncoding::new(&g.workload, &cm, g.config);
            writeln!(
                out,
                "instance {}: {} tasks x {groups} groups = {} vars, {} deps, {} ({} PUs)",
                g.name,
                g.workload.tasks.len(),
                enc.num_vars(),
                g.workload.deps.len(),
                g.platform.name,
                g.platform.pus.len()
            )?;
            // Warm-start with the best baseline: the solve can then only
            // improve on it (never-worse by construction).
            let seed_inc = g.best_baseline(&enc);
            if let Some((_, c)) = &seed_inc {
                writeln!(out, "baseline seed cost: {c:.4} ms")?;
            }
            let opts = haxconn_solver::SolveOptions {
                node_budget: budget,
                initial_incumbent: seed_inc.clone(),
                ..Default::default()
            };
            let started = std::time::Instant::now();
            let sol = haxconn_solver::solve_auto(&enc, opts, 0);
            writeln!(out, "branch & bound: {} nodes", sol.stats.nodes)?;
            writeln!(
                out,
                "exactness: {}",
                if sol.proven_optimal() {
                    "proven optimal"
                } else {
                    "best-found (budget hit before exhaustion)"
                }
            )?;
            writeln!(
                out,
                "solve time: {:.1} ms",
                started.elapsed().as_secs_f64() * 1e3
            )?;
            match sol.best {
                Some((a, c)) => {
                    writeln!(out, "best cost: {c:.4} ms")?;
                    if let Some((_, sc)) = &seed_inc {
                        if *sc > 0.0 && c <= *sc {
                            writeln!(
                                out,
                                "improvement over baseline: {:.1}%",
                                (1.0 - c / sc) * 100.0
                            )?;
                        }
                    }
                    let rows = enc.to_rows(&a);
                    let used: std::collections::BTreeSet<usize> =
                        rows.iter().flatten().copied().collect();
                    let names: Vec<&str> = used
                        .iter()
                        .map(|&p| g.platform.pus[p].name.as_str())
                        .collect();
                    writeln!(out, "PUs used: {}", names.join(", "))?;
                }
                None => writeln!(out, "infeasible under the transition budget")?,
            }
        }
        Command::Serve {
            addr,
            workers,
            max_conns,
            idle_timeout_ms,
            cache_capacity,
            max_solves,
            max_pending,
            no_degrade,
        } => {
            let mut options = crate::serve::ServeOptions {
                addr,
                max_conns,
                idle_timeout: std::time::Duration::from_millis(idle_timeout_ms.max(1)),
                engine: haxconn_core::EngineOptions {
                    cache_capacity,
                    max_concurrent_solves: max_solves,
                    max_pending_solves: max_pending,
                    degrade_on_overload: !no_degrade,
                },
                ..Default::default()
            };
            if let Some(w) = workers {
                options.workers = w;
            }
            let handle = crate::serve::serve(options)?;
            // Foreground daemon: announce the bound address on stdout
            // (tests and scripts parse it), then serve until killed.
            println!("haxconn serve: listening on http://{}", handle.addr());
            println!(
                "endpoints: POST /v1/schedule  POST /v1/batch  GET /v1/telemetry  GET /v1/health"
            );
            handle.join();
            writeln!(out, "haxconn serve: stopped")?;
        }
        Command::Check {
            fuzz,
            fuzz_large,
            fuzz_arrival,
            seed,
            platform,
            models,
            objective,
            pipeline,
        } => match (fuzz, fuzz_large, fuzz_arrival) {
            (Some(_), _, _) | (_, Some(_), _) | (_, _, Some(_)) => {
                if let Some(scenarios) = fuzz {
                    let report = haxconn_check::fuzz::run(&haxconn_check::FuzzConfig {
                        seed,
                        scenarios,
                        ..Default::default()
                    });
                    writeln!(out, "{report}")?;
                    // Divergences and violations are a hard failure so CI
                    // can gate on the exit status.
                    if !report.is_clean() {
                        return Err(HaxError::ScheduleInvariant(format!(
                            "differential fuzzing (seed {seed}) found {} divergence(s) and {} \
                             invariant violation(s)",
                            report.divergences.len(),
                            report.violations.len()
                        )));
                    }
                }
                if let Some(instances) = fuzz_large {
                    let report = haxconn_check::fuzz::run_large(seed, instances, 200_000);
                    writeln!(out, "{report}")?;
                    if !report.is_clean() {
                        return Err(HaxError::ScheduleInvariant(format!(
                            "large-instance fuzzing (seed {seed}) found {} divergence(s) and {} \
                             invariant violation(s)",
                            report.divergences.len(),
                            report.violations.len()
                        )));
                    }
                }
                if let Some(traces) = fuzz_arrival {
                    let report = haxconn_check::fuzz::run_arrival(seed, traces, 120);
                    writeln!(out, "{report}")?;
                    if !report.is_clean() {
                        return Err(HaxError::ScheduleInvariant(format!(
                            "arrival-trace fuzzing (seed {seed}) found {} divergence(s) and {} \
                             invariant violation(s)",
                            report.divergences.len(),
                            report.violations.len()
                        )));
                    }
                }
            }
            (None, None, None) => {
                let platform = platform.ok_or_else(|| cli_err("--platform required"))?;
                let mut session = Session::on(platform).objective(objective);
                for &m in &models {
                    session = session.task(m, 10);
                }
                if pipeline {
                    session = session.pipelined();
                }
                let s = session.schedule()?;
                writeln!(out, "schedule: {}", s.describe())?;
                let report = s.validate();
                writeln!(out, "validation: {report}")?;
                report.into_result()?;
            }
        },
    }
    Ok(out)
}

/// Looks up `key` in a JSON object value.
fn field<'a>(v: &'a serde_json::Value, key: &str) -> Option<&'a serde_json::Value> {
    match v {
        serde_json::Value::Object(entries) => {
            entries.iter().find(|(k, _)| k == key).map(|(_, val)| val)
        }
        _ => None,
    }
}

/// Numeric coercion for snapshot fields.
fn num(v: Option<&serde_json::Value>) -> f64 {
    match v {
        Some(serde_json::Value::Int(n)) => *n as f64,
        Some(serde_json::Value::Float(x)) => *x,
        _ => 0.0,
    }
}

fn entries(v: Option<&serde_json::Value>) -> &[(String, serde_json::Value)] {
    match v {
        Some(serde_json::Value::Object(e)) => e,
        _ => &[],
    }
}

/// Renders a human-readable summary of a telemetry snapshot document (the
/// JSON written by `--telemetry`, schema documented in `haxconn-telemetry`).
fn summarize_snapshot(v: &serde_json::Value, out: &mut String) -> Result<(), HaxError> {
    let schema = num(field(v, "schema"));
    if schema != 1.0 {
        return Err(cli_err(format!(
            "unsupported telemetry schema {schema} (expected 1)"
        )));
    }
    writeln!(out, "telemetry snapshot (schema 1)")?;
    let counters = entries(field(v, "counters"));
    // `alloc.{count,bytes}.<phase>` pairs come from the `alloc-truth`
    // counting allocator; they render as their own per-phase table below
    // instead of interleaving with ordinary counters.
    let is_alloc =
        |name: &str| name.starts_with("alloc.count.") || name.starts_with("alloc.bytes.");
    if counters.iter().any(|(name, _)| !is_alloc(name)) {
        writeln!(out, "\ncounters:")?;
        for (name, val) in counters {
            if !is_alloc(name) {
                writeln!(out, "  {name:<36} {:>14}", num(Some(val)) as u64)?;
            }
        }
    }
    let mut alloc_phases: Vec<&str> = Vec::new();
    for (name, _) in counters {
        let phase = name
            .strip_prefix("alloc.count.")
            .or_else(|| name.strip_prefix("alloc.bytes."));
        if let Some(p) = phase {
            if !alloc_phases.contains(&p) {
                alloc_phases.push(p);
            }
        }
    }
    if !alloc_phases.is_empty() {
        writeln!(
            out,
            "\nallocations (alloc-truth):{:>17} {:>14}",
            "allocs", "bytes"
        )?;
        for phase in alloc_phases {
            let value_of = |prefix: &str| {
                counters
                    .iter()
                    .find(|(name, _)| {
                        name.strip_prefix(prefix)
                            .is_some_and(|suffix| suffix == phase)
                    })
                    .map(|(_, val)| num(Some(val)) as u64)
                    .unwrap_or(0)
            };
            writeln!(
                out,
                "  {phase:<36} {:>6} {:>14}",
                value_of("alloc.count."),
                value_of("alloc.bytes.")
            )?;
        }
    }
    let gauges = entries(field(v, "gauges"));
    if !gauges.is_empty() {
        writeln!(out, "\ngauges:")?;
        for (name, val) in gauges {
            writeln!(out, "  {name:<36} {:>14.3}", num(Some(val)))?;
        }
    }
    let hists = entries(field(v, "histograms"));
    if !hists.is_empty() {
        writeln!(
            out,
            "\nhistograms:{:>32} {:>10} {:>10} {:>10} {:>10}",
            "count", "mean", "p50", "p90", "p99"
        )?;
        for (name, h) in hists {
            writeln!(
                out,
                "  {name:<36} {:>4} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                num(field(h, "count")) as u64,
                num(field(h, "mean")),
                num(field(h, "p50")),
                num(field(h, "p90")),
                num(field(h, "p99"))
            )?;
        }
    }
    let series = entries(field(v, "series"));
    if !series.is_empty() {
        writeln!(
            out,
            "\nseries:{:>37} {:>10} {:>10}",
            "samples", "mean", "peak"
        )?;
        for (name, s) in series {
            writeln!(
                out,
                "  {name:<36} {:>6} {:>10.3} {:>10.3}",
                num(field(s, "samples")) as u64,
                num(field(s, "mean")),
                num(field(s, "peak"))
            )?;
        }
    }
    let spans = match field(v, "spans") {
        Some(serde_json::Value::Array(items)) => items.len(),
        _ => 0,
    };
    let dropped = num(field(v, "spans_dropped")) as u64;
    writeln!(out, "\nspans: {spans} recorded, {dropped} dropped")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn parsed(s: &str) -> Command {
        parse(&args(s)).expect("parses")
    }

    fn parse_err(s: &str) -> String {
        match parse(&args(s)) {
            Ok(c) => panic!("expected a parse error, got {c:?}"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn parses_platforms_and_models() {
        assert_eq!(parsed("platforms"), Command::Platforms);
        assert_eq!(parsed("models"), Command::Models);
        assert_eq!(parsed(""), Command::Help);
        assert_eq!(parsed("help"), Command::Help);
    }

    #[test]
    fn parses_profile() {
        let c = parsed("profile --platform orin --model GoogleNet --groups 8");
        assert_eq!(
            c,
            Command::Profile {
                platform: PlatformId::OrinAgx,
                model: Model::GoogleNet,
                groups: 8
            }
        );
        // Default group budget.
        let c = parsed("profile --model vgg19 --platform xavier");
        assert!(matches!(c, Command::Profile { groups: 10, .. }));
    }

    #[test]
    fn parses_schedule_with_options() {
        let c = parsed(
            "schedule --platform sd865 --models GoogleNet,ResNet101 --objective throughput --pipeline --trace /tmp/t.json",
        );
        assert_eq!(
            c,
            Command::Schedule {
                platform: PlatformId::Snapdragon865,
                models: vec![Model::GoogleNet, Model::ResNet101],
                objective: Objective::MaxThroughput,
                pipeline: true,
                trace: Some("/tmp/t.json".into()),
                gantt: false,
                telemetry: None,
            }
        );
    }

    #[test]
    fn parses_telemetry_flag_and_subcommand() {
        let c = parsed("schedule --platform orin --models GoogleNet --telemetry /tmp/m.json");
        assert!(matches!(
            c,
            Command::Schedule {
                telemetry: Some(ref p),
                ..
            } if p == "/tmp/m.json"
        ));
        let c = parsed("dynamic --platform orin --phases GoogleNet --telemetry /tmp/d.json");
        assert!(matches!(
            c,
            Command::Dynamic {
                telemetry: Some(ref p),
                ..
            } if p == "/tmp/d.json"
        ));
        assert_eq!(
            parsed("telemetry --file snap.json"),
            Command::Telemetry {
                file: "snap.json".into()
            }
        );
        assert!(parse_err("telemetry").contains("--file required"));
    }

    #[test]
    fn parse_errors_are_informative() {
        assert!(
            parse_err("schedule --platform mars --models GoogleNet").contains("unknown platform")
        );
        assert!(parse_err("schedule --platform orin --models NopeNet").contains("unknown model"));
        assert!(parse_err("schedule --platform orin").contains("--models required"));
        assert!(parse_err("frobnicate").contains("unknown command"));
        assert!(parse_err("models --bogus").contains("unexpected arguments"));
    }

    #[test]
    fn parses_energy() {
        let c = parsed("energy --platform orin --models GoogleNet,ResNet50 --budget-ms 12.5");
        assert_eq!(
            c,
            Command::Energy {
                platform: PlatformId::OrinAgx,
                models: vec![Model::GoogleNet, Model::ResNet50],
                budget_ms: 12.5
            }
        );
    }

    #[test]
    fn run_listing_commands() {
        let p = run(Command::Platforms).expect("runs");
        assert!(p.contains("Orin") && p.contains("EMC"));
        let m = run(Command::Models).expect("runs");
        assert!(m.contains("GoogleNet") && m.contains("VGG19"));
        assert!(run(Command::Help).expect("runs").contains("USAGE"));
    }

    #[test]
    fn parses_inspect_and_stream() {
        let c = parsed("inspect --model DenseNet --layers");
        assert_eq!(
            c,
            Command::Inspect {
                model: Model::DenseNet121,
                layers: true
            }
        );
        let c = parsed("stream --platform orin --models GoogleNet,ResNet18 --fps 30");
        assert_eq!(
            c,
            Command::Stream {
                platform: PlatformId::OrinAgx,
                models: vec![Model::GoogleNet, Model::ResNet18],
                fps: 30.0,
                buffers: 3
            }
        );
    }

    #[test]
    fn parses_dynamic() {
        let c = parsed(
            "dynamic --platform orin --phases GoogleNet,ResNet18;GoogleNet,ResNet50 --rounds 3 --budget 500",
        );
        assert_eq!(
            c,
            Command::Dynamic {
                platform: PlatformId::OrinAgx,
                phases: vec![
                    vec![Model::GoogleNet, Model::ResNet18],
                    vec![Model::GoogleNet, Model::ResNet50],
                ],
                rounds: 3,
                budget: Some(500),
                trace: None,
                policy: ResolvePolicy::Immediate,
                report: None,
                telemetry: None,
            }
        );
        // Defaults: two rounds, unbounded solve.
        let c = parsed("dynamic --platform orin --phases GoogleNet,ResNet18");
        assert!(matches!(
            c,
            Command::Dynamic {
                rounds: 2,
                budget: None,
                ..
            }
        ));
        assert!(parse_err("dynamic --platform orin").contains("--phases required"));
    }

    #[test]
    fn parses_dynamic_trace_mode() {
        let c = parsed("dynamic --platform orin --trace gen:7:50:2 --policy debounce:25");
        assert_eq!(
            c,
            Command::Dynamic {
                platform: PlatformId::OrinAgx,
                phases: Vec::new(),
                rounds: 2,
                budget: None,
                trace: Some("gen:7:50:2".into()),
                policy: ResolvePolicy::Debounced { window_ms: 25.0 },
                report: None,
                telemetry: None,
            }
        );
        let c = parsed("dynamic --platform orin --trace t.json --policy utility:0.1");
        assert!(matches!(
            c,
            Command::Dynamic {
                policy: ResolvePolicy::UtilityThreshold { .. },
                ..
            }
        ));
        assert!(
            parse_err("dynamic --platform orin --trace t.json --policy sometimes")
                .contains("bad --policy")
        );
    }

    #[test]
    fn run_dynamic_trace_mode_replays_arrivals() {
        let out = run(Command::Dynamic {
            platform: PlatformId::OrinAgx,
            phases: Vec::new(),
            rounds: 2,
            budget: None,
            trace: Some("gen:11:30:2".into()),
            policy: ResolvePolicy::Immediate,
            report: None,
            telemetry: None,
        })
        .expect("runs");
        assert!(out.contains("arrival replay: 30 events"), "{out}");
        assert!(out.contains("0 invariant violations"), "{out}");
        assert!(out.contains("jain fairness:"), "{out}");
    }

    #[test]
    fn run_dynamic_trace_mode_rejects_bad_specs() {
        for bad in ["gen:zzz:30", "gen:1", "/no/such/trace.json"] {
            let err = run(Command::Dynamic {
                platform: PlatformId::OrinAgx,
                phases: Vec::new(),
                rounds: 2,
                budget: None,
                trace: Some(bad.into()),
                policy: ResolvePolicy::Immediate,
                report: None,
                telemetry: None,
            })
            .expect_err("bad trace spec");
            assert!(matches!(err, HaxError::Cli(_)), "{bad}: {err}");
        }
    }

    #[test]
    fn run_dynamic_command_toggles_phases_through_the_cache() {
        let out = run(Command::Dynamic {
            platform: PlatformId::OrinAgx,
            phases: vec![
                vec![Model::GoogleNet, Model::ResNet18],
                vec![Model::GoogleNet, Model::ResNet50],
            ],
            rounds: 2,
            budget: None,
            trace: None,
            policy: ResolvePolicy::Immediate,
            report: None,
            telemetry: None,
        })
        .expect("runs");
        // Round 0 solves both phases; round 1 hits the cache for both.
        assert!(out.contains("round 0 phase 0") && out.contains("solved"));
        assert!(out.contains("round 1 phase 1") && out.contains("cache hit"));
        assert!(out.contains("schedule cache: 2 hits, 2 misses, 2 phases cached"));
    }

    #[test]
    fn run_inspect_command() {
        let out = run(Command::Inspect {
            model: Model::GoogleNet,
            layers: false,
        })
        .expect("runs");
        assert!(out.contains("141 layers"));
        assert!(out.contains("Concat"));
        let with_layers = run(Command::Inspect {
            model: Model::AlexNet,
            layers: true,
        })
        .expect("runs");
        assert!(with_layers.contains("conv1"));
        assert!(with_layers.contains("fc8"));
    }

    #[test]
    fn run_schedule_command_end_to_end() {
        let out = run(Command::Schedule {
            platform: PlatformId::OrinAgx,
            models: vec![Model::GoogleNet, Model::ResNet18],
            objective: Objective::MinMaxLatency,
            pipeline: false,
            trace: None,
            gantt: true,
            telemetry: None,
        })
        .expect("runs");
        assert!(out.contains("HaX-CoNN"));
        assert!(out.contains("schedule:"));
    }

    #[test]
    fn parses_check() {
        let c = parsed("check --platform orin --models GoogleNet,ResNet18 --objective throughput");
        assert_eq!(
            c,
            Command::Check {
                fuzz: None,
                fuzz_large: None,
                fuzz_arrival: None,
                seed: 42,
                platform: Some(PlatformId::OrinAgx),
                models: vec![Model::GoogleNet, Model::ResNet18],
                objective: Objective::MaxThroughput,
                pipeline: false,
            }
        );
        let c = parsed("check --fuzz 25 --seed 9");
        assert_eq!(
            c,
            Command::Check {
                fuzz: Some(25),
                fuzz_large: None,
                fuzz_arrival: None,
                seed: 9,
                platform: None,
                models: Vec::new(),
                objective: Objective::MinMaxLatency,
                pipeline: false,
            }
        );
        let c = parsed("check --fuzz-arrival 4 --seed 3");
        assert!(matches!(
            c,
            Command::Check {
                fuzz: None,
                fuzz_arrival: Some(4),
                seed: 3,
                ..
            }
        ));
        assert!(parse_err("check").contains("--platform required"));
        assert!(parse_err("check --fuzz many").contains("bad --fuzz"));
        assert!(parse_err("check --fuzz-arrival many").contains("bad --fuzz-arrival"));
    }

    #[test]
    fn run_check_command_validates_schedule() {
        let out = run(Command::Check {
            fuzz: None,
            fuzz_large: None,
            fuzz_arrival: None,
            seed: 42,
            platform: Some(PlatformId::OrinAgx),
            models: vec![Model::GoogleNet, Model::ResNet18],
            objective: Objective::MinMaxLatency,
            pipeline: false,
        })
        .expect("valid schedule");
        assert!(out.contains("validation: valid ("), "{out}");
    }

    #[test]
    fn run_check_command_fuzzes_clean() {
        let out = run(Command::Check {
            fuzz: Some(3),
            fuzz_large: None,
            fuzz_arrival: None,
            seed: 11,
            platform: None,
            models: Vec::new(),
            objective: Objective::MinMaxLatency,
            pipeline: false,
        })
        .expect("clean fuzz run");
        assert!(out.contains("3 scenarios"), "{out}");
    }

    #[test]
    fn run_check_command_fuzzes_arrivals_clean() {
        let out = run(Command::Check {
            fuzz: None,
            fuzz_large: None,
            fuzz_arrival: Some(2),
            seed: 5,
            platform: None,
            models: Vec::new(),
            objective: Objective::MinMaxLatency,
            pipeline: false,
        })
        .expect("clean arrival fuzz run");
        assert!(out.contains("2 scenarios"), "{out}");
    }

    #[test]
    fn parses_solve() {
        let c = parsed("solve");
        assert_eq!(
            c,
            Command::Solve {
                seed: 42,
                tasks: 6,
                groups: 9,
                budget: None,
            }
        );
        let c = parsed("solve --seed 7 --tasks 4 --groups 5 --budget 1000");
        assert_eq!(
            c,
            Command::Solve {
                seed: 7,
                tasks: 4,
                groups: 5,
                budget: Some(1000),
            }
        );
        assert!(parse_err("solve --tasks 0").contains("at least 1"));
        assert!(parse_err("solve --budget soon").contains("bad --budget"));
        // The solver picks its own driver; the old selectors are gone.
        assert!(parse_err("solve --portfolio").contains("unexpected arguments"));
        assert!(parse_err("solve --lns-workers 2").contains("unexpected arguments"));
        assert!(parse_err("solve --symmetry").contains("unexpected arguments"));
    }

    #[test]
    fn run_solve_command_cracks_a_small_instance() {
        let out = run(Command::Solve {
            seed: 3,
            tasks: 3,
            groups: 3,
            budget: None,
        })
        .expect("solvable instance");
        assert!(out.contains("instance gen3-3x3"), "{out}");
        assert!(out.contains("proven optimal"), "{out}");
        assert!(out.contains("best cost:"), "{out}");
    }

    #[test]
    fn parses_fleet() {
        let c = parsed("fleet --platform orin --models GoogleNet,ResNet18 --count 8 --seed 7");
        assert_eq!(
            c,
            Command::Fleet {
                platform: PlatformId::OrinAgx,
                models: vec![Model::GoogleNet, Model::ResNet18],
                count: 8,
                iterations: 1,
                seed: 7,
                threads: None,
            }
        );
        let c = parsed("fleet --platform xavier --models VGG19,AlexNet --iterations 3 --threads 2");
        assert_eq!(
            c,
            Command::Fleet {
                platform: PlatformId::XavierAgx,
                models: vec![Model::Vgg19, Model::AlexNet],
                count: 32,
                iterations: 3,
                seed: 42,
                threads: Some(2),
            }
        );
        // Unknown switches are rejected, not silently ignored.
        assert!(
            parse_err("fleet --platform orin --models GoogleNet,ResNet18 --threaded")
                .contains("--threaded")
        );
        assert!(
            parse_err("fleet --platform orin --models GoogleNet,ResNet18 --count 0")
                .contains("--count")
        );
        assert!(
            parse_err("fleet --platform orin --models GoogleNet,ResNet18 --iterations 0")
                .contains("--iterations")
        );
    }

    #[test]
    fn run_fleet_command_ranks_candidates() {
        let out = run(Command::Fleet {
            platform: PlatformId::OrinAgx,
            models: vec![Model::GoogleNet, Model::ResNet18],
            count: 10,
            iterations: 1,
            seed: 42,
            threads: Some(2),
        })
        .expect("fleet runs");
        assert!(out.contains("fleet: 10 scenarios"), "{out}");
        assert!(out.contains("HaX-CoNN") || out.contains("random#"), "{out}");
        assert!(out.contains("scenarios/s"), "{out}");
    }

    #[test]
    fn parses_serve() {
        let c = parsed("serve");
        assert_eq!(
            c,
            Command::Serve {
                addr: "127.0.0.1:8787".into(),
                workers: None,
                max_conns: 1024,
                idle_timeout_ms: 60_000,
                cache_capacity: 1024,
                max_solves: None,
                max_pending: 64,
                no_degrade: false,
            }
        );
        let c = parsed(
            "serve --addr 0.0.0.0:9000 --workers 4 \
             --max-conns 256 --idle-timeout-ms 5000 --cache-capacity 64 \
             --max-solves 2 --max-pending 8 --no-degrade",
        );
        assert_eq!(
            c,
            Command::Serve {
                addr: "0.0.0.0:9000".into(),
                workers: Some(4),
                max_conns: 256,
                idle_timeout_ms: 5000,
                cache_capacity: 64,
                max_solves: Some(2),
                max_pending: 8,
                no_degrade: true,
            }
        );
        assert!(parse_err("serve --workers 0").contains("--workers"));
        assert!(parse_err("serve --max-solves many").contains("bad --max-solves"));
        // Unknown flags are rejected, not ignored.
        assert!(parse_err("serve --mode reactor").contains("unexpected arguments"));
        assert!(parse_err("serve --queue-depth 8").contains("unexpected arguments"));
        assert!(parse_err("serve --no-telemetry").contains("unexpected arguments"));
        assert!(parse_err("serve --max-conns 0").contains("--max-conns"));
    }

    #[test]
    fn run_telemetry_summary_on_missing_file_fails() {
        let err = match run(Command::Telemetry {
            file: "/nonexistent/snapshot.json".into(),
        }) {
            Ok(_) => panic!("expected an IO error"),
            Err(e) => e,
        };
        assert!(matches!(err, HaxError::Io(_)), "{err}");
    }

    #[test]
    fn summarize_rejects_wrong_schema() {
        let v: serde_json::Value = serde_json::from_str("{\"schema\":99}").expect("valid json");
        let mut out = String::new();
        assert!(summarize_snapshot(&v, &mut out).is_err());
    }

    #[test]
    fn summarize_renders_all_sections() {
        let doc = Snapshot::default().to_json();
        let v: serde_json::Value = serde_json::from_str(&doc).expect("valid json");
        let mut out = String::new();
        summarize_snapshot(&v, &mut out).expect("schema 1");
        assert!(out.contains("telemetry snapshot (schema 1)"));
        assert!(out.contains("spans: 0 recorded, 0 dropped"));
    }

    #[test]
    fn summarize_groups_alloc_counters_into_their_own_section() {
        let doc = concat!(
            "{\"schema\":1,\"counters\":{",
            "\"alloc.bytes.des_replay\":4096,",
            "\"alloc.count.des_replay\":12,",
            "\"alloc.count.solve\":0,",
            "\"solver.nodes\":1234",
            "}}"
        );
        let v: serde_json::Value = serde_json::from_str(doc).expect("valid json");
        let mut out = String::new();
        summarize_snapshot(&v, &mut out).expect("schema 1");
        assert!(out.contains("allocations (alloc-truth):"));
        // One row per phase, pairing count with bytes.
        let row = out
            .lines()
            .find(|l| l.trim_start().starts_with("des_replay"))
            .expect("des_replay row");
        assert!(row.contains("12"), "{row}");
        assert!(row.contains("4096"), "{row}");
        assert!(out.lines().any(|l| l.trim_start().starts_with("solve")));
        // The ordinary counter stays in the counters section, the alloc
        // pairs do not appear there.
        let counters_section = out
            .split("allocations")
            .next()
            .expect("counters before allocations");
        assert!(counters_section.contains("solver.nodes"));
        assert!(!counters_section.contains("alloc.count"));
    }
}
