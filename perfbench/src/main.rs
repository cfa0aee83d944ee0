//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hot-hits|cold-solves|arrivals> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One run sets the program up several times, in this process and in
//! child processes of the same binary, drives one workload for
//! `--seconds`, checks every output, writes its raw records (and, traced,
//! its spans) under `perfbench/out/`, prints every metric by name and
//! unit, and ends with one JSON line: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics untraced, the per-layer
//! metrics traced. It exits nonzero when any output check fails.

mod arrivals;
mod cold;
mod common;
mod gen;
mod hot;
mod layers;
mod pin;
mod stats;
mod tracer;

use common::{Outcome, RunCfg};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["hot-hits", "cold-solves", "arrivals"];

/// Where records, spans and summaries go, relative to the checkout.
const OUT_DIR: &str = "perfbench/out";

/// Child processes that only set up, run before the workload and again
/// after it; `setup_s` averages their set-up figures and this process's
/// (see `setup_in_children`).
const SETUP_CHILDREN: usize = 4;

struct Args {
    workload: String,
    cfg: RunCfg,
    /// Set up only, print this process's set-up figure and exit.
    setup_only: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut setup_only = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!("unknown workload '{value}' (one of {WORKLOADS:?})"))
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(flag_bool(flag, value)?),
            "--setup-only" => setup_only = flag_bool(flag, value)?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        cfg: RunCfg {
            seed: seed.ok_or("--seed is required")?,
            seconds: Duration::from_secs(seconds.ok_or("--seconds is required")?.max(1)),
            trace: trace.unwrap_or(false),
        },
        setup_only,
    })
}

fn flag_bool(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{flag} takes 0 or 1")),
    }
}

/// The set-up figure of this process, without running the workload.
fn setup_only(name: &str, cfg: &RunCfg) -> Result<f64, String> {
    match name {
        "hot-hits" => hot::setup_only(cfg),
        "cold-solves" => cold::setup_only(),
        _ => arrivals::setup_only(cfg),
    }
}

/// The set-up figures of [`SETUP_CHILDREN`] child processes, run one
/// after another. How fast the same set-up runs varies by process on a
/// shared host, and the odds drift over seconds: on the build host,
/// `arrivals` set up in about 70 µs in some processes and 120 µs in
/// others, whatever the seed, CPU or address layout. No statistic over
/// repetitions inside one process steadies that; a mean over processes
/// spread over the run does.
fn setup_in_children(raw: &[String]) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    (0..SETUP_CHILDREN)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(raw)
                .args(["--setup-only", "1"])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("set-up child: {e}"))?;
            if !out.status.success() {
                return Err(format!("set-up child exited with {}", out.status));
            }
            String::from_utf8_lossy(&out.stdout)
                .trim()
                .parse::<f64>()
                .map_err(|e| format!("set-up child: {e}"))
        })
        .collect()
}

fn run_workload(name: &str, cfg: &RunCfg) -> Result<Outcome, String> {
    match name {
        "hot-hits" => hot::run(cfg),
        "cold-solves" => cold::run(cfg),
        _ => arrivals::run(cfg),
    }
}

/// `{"<name>": {"value": v, "unit": u}, ...}` in the order given; a
/// non-finite value is written as `null`.
fn metrics_value(metrics: &[stats::Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|&(name, unit, v)| {
                let entry = vec![
                    ("value".to_string(), Value::Float(v)),
                    ("unit".to_string(), Value::String(unit.into())),
                ];
                (name.to_string(), Value::Object(entry))
            })
            .collect(),
    )
}

fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn to_json(v: &Value) -> Result<String, String> {
    serde_json::to_string(v).map_err(|e| e.to_string())
}

/// The per-layer metrics in `BENCHMARK.json` order; every one must be
/// present and finite.
fn ordered_layers(found: &[stats::Metric]) -> Result<Vec<stats::Metric>, String> {
    layers::PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            found
                .iter()
                .find(|(n, _, _)| *n == name)
                .map(|&(_, _, v)| (name, unit, v))
                .ok_or(format!("the traced run did not measure {name}"))
        })
        .collect()
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.setup_only {
        match setup_only(&args.workload, &args.cfg) {
            Ok(s) => println!("{s:?}"),
            Err(e) => {
                eprintln!("perfbench: {}: {e}", args.workload);
                std::process::exit(2);
            }
        }
        return;
    }
    match execute(&args, &raw) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(2);
        }
    }
}

/// Runs, writes and reports one workload, with the set-up figures of
/// child processes run with `raw` beside this process's own;
/// `Ok(false)` when an output check failed.
fn execute(args: &Args, raw: &[String]) -> Result<bool, String> {
    let cfg = &args.cfg;
    let before = setup_in_children(raw)?;
    let mut outcome = run_workload(&args.workload, cfg)?;
    outcome.records.setup_s.extend(before);
    outcome.records.setup_s.extend(setup_in_children(raw)?);
    outcome.records.peak_rss_mb = stats::peak_rss_mb();

    let out = Path::new(OUT_DIR);
    std::fs::create_dir_all(out).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let stem = format!("{}{}", args.workload, if cfg.trace { ".trace" } else { "" });
    let file = |ext: &str| -> PathBuf { out.join(format!("{stem}.{ext}")) };
    outcome
        .records
        .write(&file("records"))
        .map_err(|e| format!("write records: {e}"))?;
    if let Some(t) = &outcome.tracer {
        t.write(&file("spans"))
            .map_err(|e| format!("write spans: {e}"))?;
    }
    // Every reported end-to-end figure is derived from the file just
    // written, not from the in-memory copy.
    let records = stats::Records::read(&file("records"))?;
    let e2e = stats::end_to_end(&records)?;
    let report = outcome.layers.as_ref();
    let metrics = match (cfg.trace, report) {
        (false, _) => e2e.clone(),
        (true, Some(r)) => ordered_layers(&r.metrics)?,
        (true, None) => return Err("the traced run made no per-layer report".into()),
    };
    let (breakdown, extras) =
        report.map_or((&[][..], &[][..]), |r| (&r.breakdown[..], &r.extras[..]));
    let (attempted, failed) = (records.attempted(), records.failed());
    let mut problems = outcome.problems.clone();
    if let Some((name, _, _)) = metrics.iter().find(|(_, _, v)| !v.is_finite()) {
        problems.push(format!("{name} is not a finite number"));
    }
    let correct = problems.is_empty() && failed == 0;

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        cfg.seed,
        cfg.seconds.as_secs(),
        u8::from(cfg.trace)
    );
    let n = records.latency_samples().len();
    println!(
        "  latency samples: {n}; p50 and p99 are first quartiles over {} and {} time-ordered chunks",
        stats::chunks(n, 0.5),
        stats::chunks(n, 0.99)
    );
    for (n, u, v) in &e2e {
        println!("  {n:<26} {v:>14.6} {u}");
    }
    println!(
        "  {:<26} {:>14.6} ratio ({failed} of {attempted})",
        "error_rate",
        failed as f64 / attempted.max(1) as f64
    );
    if cfg.trace {
        println!("  per-layer:");
        for (n, u, v) in &metrics {
            println!("    {n:<28} {v:>14.4} {u}");
        }
        for (n, v) in extras {
            println!("    {n:<28} {v:>14.4}");
        }
        println!(
            "  self time per layer of the primary op (us; rows add up to trace.client_p50_us):"
        );
        for (layer, us) in breakdown {
            println!("    {layer:<14} {us:>12.2}");
        }
    }
    for p in problems.iter().take(20) {
        eprintln!("check failed: {p}");
    }
    if problems.len() > 20 {
        eprintln!("... {} more check failures", problems.len() - 20);
    }

    let counts = [
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Int(attempted as i64)),
        ("failed", Value::Int(failed as i64)),
    ];
    let summary = object(
        [
            ("workload", Value::String(args.workload.clone())),
            ("seed", Value::Int(cfg.seed as i64)),
            ("seconds", Value::Int(cfg.seconds.as_secs() as i64)),
            ("trace", Value::Bool(cfg.trace)),
        ]
        .into_iter()
        .chain(counts.clone())
        .chain([
            ("end_to_end", metrics_value(&e2e)),
            (
                "per_layer",
                metrics_value(if cfg.trace { &metrics } else { &[] }),
            ),
            (
                "breakdown_us",
                Value::Object(
                    breakdown
                        .iter()
                        .map(|(l, v)| (l.to_string(), Value::Float(*v)))
                        .collect(),
                ),
            ),
            (
                "problems",
                Value::Array(problems.iter().cloned().map(Value::String).collect()),
            ),
        ])
        .collect(),
    );
    std::fs::write(file("summary.json"), to_json(&summary)? + "\n")
        .map_err(|e| format!("write summary: {e}"))?;

    let result = object(
        counts
            .into_iter()
            .chain([("metrics", metrics_value(&metrics))])
            .collect(),
    );
    println!("{}", to_json(&result)?);
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> serde_json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn names(v: &serde_json::Value, key: &str, field: &str) -> Vec<String> {
        match v.field(key) {
            serde_json::Value::Array(items) => items
                .iter()
                .map(|m| match m.field(field) {
                    serde_json::Value::String(s) => s.clone(),
                    other => panic!("{key}.{field}: {other:?}"),
                })
                .collect(),
            other => panic!("{key}: {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_lists_what_the_benchmark_reports() {
        let b = benchmark_json();
        assert_eq!(names(&b, "workloads", "name"), WORKLOADS);
        let e2e: Vec<(String, String)> = names(&b, "end_to_end", "name")
            .into_iter()
            .zip(names(&b, "end_to_end", "unit"))
            .collect();
        let want: Vec<(String, String)> = stats::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(e2e, want);
        let layers: Vec<(String, String)> = names(&b, "per_layer", "name")
            .into_iter()
            .zip(names(&b, "per_layer", "unit"))
            .collect();
        let want: Vec<(String, String)> = layers::PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(layers, want);
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload arrivals --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(a.workload, "arrivals");
        assert_eq!(
            (a.cfg.seed, a.cfg.seconds.as_secs(), a.cfg.trace),
            (7, 3, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload hot-hits --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload hot-hits --seed 1 --seconds 1 --trace 2")).is_err());
        let child = parse_args(&argv(
            "--workload hot-hits --seed 1 --seconds 1 --setup-only 1",
        ));
        assert!(child.unwrap().setup_only);
    }

    /// Recomputes every end-to-end metric of a real run of every workload
    /// from its records file with code independent of
    /// `stats::end_to_end`, and checks the percentile rule on the samples
    /// behind the p99. One test, so the workloads run one after another
    /// and the process-wide telemetry `arrivals` reads sees only its own
    /// solves.
    #[test]
    fn reported_metrics_recompute_from_the_records_file() {
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in WORKLOADS {
            let cfg = RunCfg {
                seed: 11,
                seconds: Duration::from_secs(1),
                trace: false,
            };
            let mut outcome = run_workload(name, &cfg).expect("the workload runs");
            assert!(
                outcome.problems.is_empty(),
                "{name}: {:?}",
                outcome.problems
            );
            outcome.records.peak_rss_mb = stats::peak_rss_mb();
            let path = dir.join(format!("{name}.records"));
            outcome.records.write(&path).unwrap();
            let reported = stats::end_to_end(&stats::Records::read(&path).unwrap()).unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            let expect = recompute(&text);
            assert_eq!(reported.len(), expect.len());
            for ((metric, _, got), want) in reported.iter().zip(expect) {
                let tolerance = 1e-12 * want.abs();
                assert!(
                    (got - want).abs() <= tolerance,
                    "{name} {metric}: reported {got}, recomputed {want}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order, of a records
    /// file's text.
    fn recompute(text: &str) -> [f64; 7] {
        let (mut setup, mut wall, mut rss) = (Vec::new(), 0.0, 0.0);
        let (mut op_lat, mut lat_lines) = (Vec::new(), Vec::new());
        let (mut ops, mut mk, mut tl) = (Vec::new(), Vec::new(), Vec::new());
        for line in text.lines() {
            let f: Vec<&str> = line.split(' ').collect();
            let x = |i: usize| f[i].parse::<f64>().unwrap();
            match f[0] {
                "setup" => setup.push(x(1)),
                "wall" => wall = x(1),
                "rss_mb" => rss = x(1),
                "op" => {
                    let ok = f[4] == "1";
                    if ok {
                        op_lat.push(x(2));
                    }
                    ops.push((x(1), x(2), if ok { x(3) } else { 0.0 }));
                }
                "lat" => lat_lines.push(x(1)),
                "mk" => mk.push(x(1) / x(2)),
                "tl" => tl.push((x(1), x(2))),
                other => panic!("unexpected record {other}"),
            }
        }
        // `lat` lines, when a run writes them, are the latency samples in
        // place of the ops' own latencies.
        let lat = if lat_lines.is_empty() {
            op_lat
        } else {
            lat_lines
        };
        let nearest = |v: &[f64], q: f64| v[((q * v.len() as f64).ceil() as usize).max(1) - 1];
        // Latency quantiles: the first quartile over up to ten equal
        // time-ordered chunks, each with at least 10 samples beyond its
        // quantile.
        let chunked = |q: f64| {
            let min_chunk = (1..)
                .find(|&n: &usize| n - (q * n as f64).ceil() as usize >= 10)
                .unwrap();
            let k = (lat.len() / min_chunk).clamp(1, 10);
            let size = lat.len() / k;
            let mut per: Vec<f64> = (0..k)
                .map(|c| {
                    let hi = if c + 1 == k {
                        lat.len()
                    } else {
                        (c + 1) * size
                    };
                    let mut chunk = lat[c * size..hi].to_vec();
                    chunk.sort_by(f64::total_cmp);
                    let rank = (q * chunk.len() as f64).ceil() as usize;
                    assert!(
                        chunk.len() - rank >= 10,
                        "a quantile with fewer than 10 samples beyond it"
                    );
                    chunk[rank - 1]
                })
                .collect();
            per.sort_by(f64::total_cmp);
            nearest(&per, 0.25)
        };
        // Throughput: the third quartile over consecutive windows of at
        // least a tenth of the wall time, or completed ops over the wall
        // time when no window closes.
        let mut rates = Vec::new();
        let (mut from, mut units, mut total) = (0.0, 0.0, 0.0);
        for (start, latency, done) in ops {
            units += done;
            total += done;
            if start + latency - from >= wall * 1e5 {
                rates.push(units / ((start + latency - from) * 1e-6));
                (from, units) = (start + latency, 0.0);
            }
        }
        rates.sort_by(f64::total_cmp);
        let throughput = if rates.is_empty() {
            total / wall
        } else {
            nearest(&rates, 0.75)
        };
        [
            setup.iter().sum::<f64>() / setup.len() as f64,
            throughput,
            chunked(0.5),
            chunked(0.99),
            (mk.iter().map(|r: &f64| r.ln()).sum::<f64>() / mk.len() as f64).exp(),
            tl.iter().map(|(w, l)| w * l).sum::<f64>() / tl.iter().map(|(w, _)| w).sum::<f64>(),
            rss,
        ]
    }
}
