//! Execution-trace export in the Chrome tracing (`chrome://tracing` /
//! Perfetto) JSON format.
//!
//! Every measured run can be dumped as a trace where each PU is a track and
//! each layer group (or transition flush/reformat step) is a complete
//! event. Loading the JSON into Perfetto gives exactly the Fig. 1 / Fig. 4
//! style visualizations of the paper.

use crate::measure::{staged, ExecutionReport};
use crate::problem::Workload;
use haxconn_soc::{Platform, PuId};
use serde::Serialize;

/// One Chrome-tracing "complete" event.
#[derive(Debug, Serialize)]
pub struct TraceEvent {
    /// Event name (task + group / transition label).
    pub name: String,
    /// Category: `"group"` or `"transition"`.
    pub cat: String,
    /// Phase: always `"X"` (complete event).
    pub ph: &'static str,
    /// Start timestamp in microseconds.
    pub ts: f64,
    /// Duration in microseconds.
    pub dur: f64,
    /// Process id (constant; one process = the SoC).
    pub pid: u32,
    /// Thread id = PU id (one track per accelerator).
    pub tid: u32,
    /// Extra arguments (slowdown, demand).
    pub args: TraceArgs,
}

/// Event metadata shown by the trace viewer.
#[derive(Debug, Serialize)]
pub struct TraceArgs {
    /// Realized slowdown vs standalone.
    pub slowdown: f64,
    /// Requested memory throughput, GB/s.
    pub demand_gbps: f64,
}

/// Metadata event naming a track.
#[derive(Debug, Serialize)]
struct ThreadNameEvent<'a> {
    name: &'static str,
    ph: &'static str,
    pid: u32,
    tid: u32,
    args: ThreadNameArgs<'a>,
}

#[derive(Debug, Serialize)]
struct ThreadNameArgs<'a> {
    name: &'a str,
}

/// A Chrome-tracing "counter" event: Perfetto renders these as a value
/// track (the EMC bandwidth graph under the per-PU Gantt tracks).
#[derive(Debug, Serialize)]
struct CounterEvent<'a> {
    name: &'a str,
    ph: &'static str,
    ts: f64,
    pid: u32,
    args: CounterArgs,
}

#[derive(Debug, Serialize)]
struct CounterArgs {
    value: f64,
}

fn push_counter(parts: &mut Vec<String>, name: &str, ts_us: f64, value: f64) {
    let ev = CounterEvent {
        name,
        ph: "C",
        ts: ts_us,
        pid: 1,
        args: CounterArgs { value },
    };
    parts.push(serde_json::to_string(&ev).expect("serialize counter"));
}

/// Builds the Chrome-tracing JSON for a measured run of `assignment`.
///
/// The returned string is a complete JSON array that Perfetto /
/// `chrome://tracing` loads directly.
pub fn chrome_trace_json(
    platform: &Platform,
    workload: &Workload,
    assignment: &[Vec<PuId>],
    report: &ExecutionReport,
) -> String {
    let work = staged(workload, assignment);
    let mut parts: Vec<String> = Vec::new();

    for (pu_id, pu) in platform.pus.iter().enumerate() {
        let ev = ThreadNameEvent {
            name: "thread_name",
            ph: "M",
            pid: 1,
            tid: pu_id as u32,
            args: ThreadNameArgs { name: &pu.name },
        };
        parts.push(serde_json::to_string(&ev).expect("serialize metadata"));
    }

    let records = report.by_task();
    for chain in records.chunk_by(|a, b| a.task == b.task) {
        let task_name = &workload.tasks[chain[0].task].name;
        let mut group_idx = 0usize;
        for r in chain {
            let item = work.item(r);
            // Transition items are pure memory movers (no compute phase).
            let is_transition = item.cost.compute_ms == 0.0;
            let (name, cat) = if is_transition {
                (format!("{task_name} transition"), "transition".to_string())
            } else {
                let n = format!("{task_name} g{group_idx}");
                group_idx += 1;
                (n, "group".to_string())
            };
            let ev = TraceEvent {
                name,
                cat,
                ph: "X",
                ts: r.start_ms * 1e3,
                dur: (r.end_ms - r.start_ms) * 1e3,
                pid: 1,
                tid: item.pu as u32,
                args: TraceArgs {
                    slowdown: r.slowdown(&item.cost),
                    demand_gbps: item.cost.demand_gbps,
                },
            };
            parts.push(serde_json::to_string(&ev).expect("serialize event"));
        }
    }

    // EMC bandwidth as a counter track: one sample per re-arbitration
    // point of the fluid replay, so Perfetto draws the contention
    // profile directly under the Gantt tracks.
    for &(t_ms, gbps) in &report.emc_series {
        push_counter(&mut parts, "EMC bandwidth (GB/s)", t_ms * 1e3, gbps);
    }
    format!("[{}]", parts.join(",\n"))
}

/// Like [`chrome_trace_json`], but additionally merges a telemetry
/// [`haxconn_telemetry::Snapshot`] into the trace: every recorded
/// series becomes its own counter track (queue depth, EMC bandwidth
/// from other runs, …) and every span becomes a complete event on a
/// named track, so one Perfetto load shows the schedule *and* the
/// telemetry that produced it.
pub fn chrome_trace_json_with_snapshot(
    platform: &Platform,
    workload: &Workload,
    assignment: &[Vec<PuId>],
    report: &ExecutionReport,
    snapshot: &haxconn_telemetry::Snapshot,
) -> String {
    let base = chrome_trace_json(platform, workload, assignment, report);
    let mut parts: Vec<String> = Vec::new();
    for (name, series) in &snapshot.series {
        for &(t_ms, value) in &series.points {
            push_counter(&mut parts, name, t_ms * 1e3, value);
        }
    }
    // Span tracks: tid above the PU range so they never collide with
    // the Gantt tracks; one tid per distinct track name.
    let mut track_tids: Vec<&str> = Vec::new();
    for span in &snapshot.spans {
        let tid = match track_tids.iter().position(|t| *t == span.track.as_str()) {
            Some(i) => i,
            None => {
                track_tids.push(&span.track);
                track_tids.len() - 1
            }
        } as u32
            + 1000;
        let ev = TraceEvent {
            name: span.name.clone(),
            cat: "telemetry".to_string(),
            ph: "X",
            ts: span.start_ms * 1e3,
            dur: span.dur_ms * 1e3,
            pid: 1,
            tid,
            args: TraceArgs {
                slowdown: 1.0,
                demand_gbps: 0.0,
            },
        };
        parts.push(serde_json::to_string(&ev).expect("serialize span"));
    }
    for (i, track) in track_tids.iter().enumerate() {
        let ev = ThreadNameEvent {
            name: "thread_name",
            ph: "M",
            pid: 1,
            tid: i as u32 + 1000,
            args: ThreadNameArgs { name: track },
        };
        parts.push(serde_json::to_string(&ev).expect("serialize metadata"));
    }
    if parts.is_empty() {
        return base;
    }
    // Splice the extra events into the existing JSON array.
    let mut out = base;
    let end = out.rfind(']').expect("trace is a JSON array");
    out.truncate(end);
    out.push_str(",\n");
    out.push_str(&parts.join(",\n"));
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{Baseline, BaselineKind};
    use crate::measure::execute;
    use crate::problem::DnnTask;
    use haxconn_dnn::Model;
    use haxconn_profiler::NetworkProfile;
    use haxconn_soc::orin_agx;

    fn setup() -> (Platform, Workload) {
        let p = orin_agx();
        let w = Workload::concurrent(vec![
            DnnTask::new("det", NetworkProfile::profile(&p, Model::GoogleNet, 8)),
            DnnTask::new("cls", NetworkProfile::profile(&p, Model::ResNet18, 8)),
        ]);
        (p, w)
    }

    #[test]
    fn trace_is_valid_json_with_expected_events() {
        let (p, w) = setup();
        let a = Baseline::assignment(BaselineKind::NaiveSplit, &p, &w);
        let m = execute(&p, &w, &a);
        let json = chrome_trace_json(&p, &w, &a, &m);
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = parsed.as_array().expect("array");
        // Thread-name metadata for each PU + one event per item.
        let groups: usize = w.tasks.iter().map(|t| t.num_groups()).sum();
        assert!(events.len() >= p.pus.len() + groups);
        // All complete events have non-negative durations and known tids.
        for ev in events.iter().filter(|e| e["ph"] == "X") {
            assert!(ev["dur"].as_f64().unwrap() >= 0.0);
            let tid = ev["tid"].as_u64().unwrap() as usize;
            assert!(tid < p.pus.len());
            assert!(ev["args"]["slowdown"].as_f64().unwrap() >= 1.0 - 1e-6);
        }
    }

    #[test]
    fn transitions_appear_as_their_own_category() {
        let (p, w) = setup();
        // Force a transition in task 0.
        let mut a = Baseline::assignment(BaselineKind::GpuOnly, &p, &w);
        #[allow(clippy::needless_range_loop)]
        for g in 3..6 {
            if w.tasks[0].profile.groups[g].cost[p.dsa()].is_some() {
                a[0][g] = p.dsa();
            }
        }
        let m = execute(&p, &w, &a);
        let json = chrome_trace_json(&p, &w, &a, &m);
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        let transitions = parsed
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["cat"] == "transition")
            .count();
        assert!(transitions >= 2, "flush + reformat events expected");
    }

    #[test]
    fn emc_counter_track_present_and_bounded() {
        let (p, w) = setup();
        let a = Baseline::assignment(BaselineKind::NaiveSplit, &p, &w);
        let m = execute(&p, &w, &a);
        let json = chrome_trace_json(&p, &w, &a, &m);
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let counters: Vec<&serde_json::Value> = parsed
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["ph"] == "C")
            .collect();
        assert!(!counters.is_empty(), "EMC counter track expected");
        for ev in &counters {
            let v = ev["args"]["value"].as_f64().unwrap();
            assert!(v >= 0.0 && v <= p.emc.capacity() + 1e-6);
        }
        // The series closes at zero so the counter track returns to rest.
        assert_eq!(
            counters.last().unwrap()["args"]["value"].as_f64(),
            Some(0.0)
        );
    }

    #[test]
    fn snapshot_merge_adds_counter_and_span_tracks() {
        let (p, w) = setup();
        let a = Baseline::assignment(BaselineKind::NaiveSplit, &p, &w);
        let m = execute(&p, &w, &a);
        let mut snap = haxconn_telemetry::Snapshot::default();
        let mut series = haxconn_telemetry::Series::default();
        series.record(0.0, 1.0);
        series.record(1.0, 2.0);
        snap.series.insert("des.queue_depth".into(), series);
        snap.spans.push(haxconn_telemetry::SpanEvent {
            track: "solver".into(),
            name: "bb.solve".into(),
            start_ms: 0.5,
            dur_ms: 2.0,
        });
        let json = chrome_trace_json_with_snapshot(&p, &w, &a, &m, &snap);
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let arr = parsed.as_array().unwrap();
        assert!(arr
            .iter()
            .any(|e| e["ph"] == "C" && e["name"] == "des.queue_depth"));
        assert!(arr
            .iter()
            .any(|e| e["ph"] == "X" && e["cat"] == "telemetry" && e["name"] == "bb.solve"));
        // The solver span track got a thread-name metadata record.
        assert!(arr
            .iter()
            .any(|e| e["ph"] == "M" && e["args"]["name"] == "solver"));
    }

    #[test]
    fn events_sorted_within_each_job_chain() {
        let (p, w) = setup();
        let a = Baseline::assignment(BaselineKind::NaiveSplit, &p, &w);
        let m = execute(&p, &w, &a);
        let json = chrome_trace_json(&p, &w, &a, &m);
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        // For each task name, the events' ts values are non-decreasing in
        // emission order (chain order).
        for task in ["det", "cls"] {
            let ts: Vec<f64> = parsed
                .as_array()
                .unwrap()
                .iter()
                .filter(|e| e["ph"] == "X" && e["name"].as_str().unwrap_or("").starts_with(task))
                .map(|e| e["ts"].as_f64().unwrap())
                .collect();
            assert!(ts.windows(2).all(|w| w[1] >= w[0] - 1e-6), "{task}: {ts:?}");
        }
    }
}
