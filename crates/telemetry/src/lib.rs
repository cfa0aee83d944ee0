#![warn(missing_docs)]

//! Unified telemetry for the HaX-CoNN stack.
//!
//! The paper's evaluation hinges on numbers produced all over the
//! workspace: EMC utilization and bandwidth shares (`soc::replay`), B&B
//! search effort (`solver::bb`), schedule-cache hit rates and re-solve
//! latencies (`core::arrival`, `core::dynamic`), queueing behaviour
//! (`des`), and stream/fleet occupancy (`runtime`). This crate gives them
//! one write-side: a small set of instrument kinds recorded into one
//! process-global [`MemoryRecorder`], created on first use, and a
//! deterministic [`Snapshot`] with a documented JSON schema (see
//! [`Snapshot::to_json`]).
//!
//! # Instruments
//!
//! * **counter** — monotonically increasing `u64` (nodes explored, cache
//!   hits, frames dropped),
//! * **gauge** — last-written `f64` (worker count, EMC peak of a run),
//! * **series** — time-stamped `(t_ms, value)` samples with an exact
//!   time-weighted mean/peak and a deterministically decimated point
//!   buffer (EMC bandwidth over time, queue depth),
//! * **histogram** — log-bucketed `f64` distribution with exact
//!   count/sum/min/max and bucket-resolution quantiles (solve latency,
//!   per-frame latency),
//! * **span** — named `[start_ms, start_ms + dur_ms)` interval on a
//!   track (one solve, one simulation), merged into Chrome traces by
//!   `haxconn-core::trace`.
//!
//! # Overhead discipline
//!
//! Recording is off until the first [`memory_recorder`] call creates the
//! global recorder (and turns recording on), and while telemetry is
//! disabled; the guard is a single relaxed atomic-bool load, so
//! disabled builds pay nothing measurable. Hot loops (the B&B DFS, the
//! fluid simulator's re-arbitration loop) must not call into telemetry
//! per iteration even when enabled: they aggregate locally and flush
//! once per solve/run. Telemetry is strictly write-only — nothing in
//! the stack reads it back — so enabled and disabled runs produce
//! bit-identical schedules and measurements by construction (a property
//! the facade's end-to-end test machine-checks).
//!
//! Counters an owner already keeps in atomics (the serving engine and
//! HTTP layer) are not recorded twice: the owner is a [`Source`].

pub mod alloc;
pub mod shared;

pub use shared::SharedHistogram;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: OnceLock<Arc<MemoryRecorder>> = OnceLock::new();
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Whether recording is currently on. This is the fast-path guard: one
/// relaxed atomic load, false until [`memory_recorder`] first runs.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off without touching the global recorder.
/// Enabling before [`memory_recorder`] has created it is a no-op.
pub fn set_enabled(on: bool) {
    if !on || RECORDER.get().is_some() {
        ENABLED.store(on, Ordering::Release);
    }
}

/// Runs `f` against the global recorder if telemetry is enabled. The
/// closure is never called (and its captures never evaluated) when
/// telemetry is off.
#[inline]
fn with(f: impl FnOnce(&MemoryRecorder)) {
    if enabled() {
        if let Some(r) = RECORDER.get() {
            f(r);
        }
    }
}

/// Milliseconds since the process's telemetry epoch (first call wins).
/// Span events across crates use this so their timestamps share an axis.
pub fn clock_ms() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e3
}

/// Adds `delta` to counter `name` on the global recorder (if enabled).
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    with(|r| r.counter_add(name, delta));
}

/// Sets gauge `name` on the global recorder (if enabled).
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    with(|r| r.gauge_set(name, value));
}

/// Appends a series sample on the global recorder (if enabled).
#[inline]
pub fn series_record(name: &str, t_ms: f64, value: f64) {
    with(|r| r.series_record(name, t_ms, value));
}

/// Records a histogram observation on the global recorder (if enabled).
#[inline]
pub fn histogram_record(name: &str, value: f64) {
    with(|r| r.histogram_record(name, value));
}

/// Records a span on the global recorder (if enabled).
#[inline]
pub fn span_event(track: &str, name: &str, start_ms: f64, dur_ms: f64) {
    with(|r| r.span_event(track, name, start_ms, dur_ms));
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Number of log₂ buckets. Bucket `i` covers values in
/// `[2^(i - OFFSET), 2^(i + 1 - OFFSET))`; with OFFSET = 20 the range
/// spans ~1 µs to ~8.8 Tms when values are milliseconds.
pub(crate) const HIST_BUCKETS: usize = 64;
const HIST_OFFSET: i32 = 20;

pub(crate) fn bucket_index(value: f64) -> usize {
    if value <= 0.0 || !value.is_finite() {
        return 0;
    }
    let idx = value.log2().floor() as i32 + HIST_OFFSET;
    idx.clamp(0, HIST_BUCKETS as i32 - 1) as usize
}

/// Upper edge of bucket `i` (used as the quantile estimate — a
/// conservative, deterministic over-estimate within one power of two).
pub(crate) fn bucket_upper(i: usize) -> f64 {
    2f64.powi(i as i32 + 1 - HIST_OFFSET)
}

/// Log-bucketed distribution with exact count/sum/min/max.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Observation count.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Minimum observation (`+inf` when empty).
    pub min: f64,
    /// Maximum observation (`-inf` when empty).
    pub max: f64,
    /// Sparse `(bucket index, count)` pairs, sorted by index.
    pub buckets: Vec<(u32, u64)>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: Vec::new(),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let idx = bucket_index(value) as u32;
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += 1,
            Err(pos) => self.buckets.insert(pos, (idx, 1)),
        }
    }

    /// Merges another histogram into this one (exact for count/sum/
    /// min/max, bucket-exact for quantiles).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for &(idx, c) in &other.buckets {
            match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
                Ok(pos) => self.buckets[pos].1 += c,
                Err(pos) => self.buckets.insert(pos, (idx, c)),
            }
        }
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Quantile estimate at `q ∈ [0, 1]`: the upper edge of the bucket
    /// holding the q-th observation, clamped into `[min, max]` so exact
    /// extremes are never exceeded.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(idx, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return bucket_upper(idx as usize).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

// ---------------------------------------------------------------------------
// Series
// ---------------------------------------------------------------------------

/// Point-buffer capacity per series; when full, every other retained
/// point is dropped and the sampling stride doubles (deterministic in
/// the sample sequence, independent of wall time).
const SERIES_CAP: usize = 2048;

/// Time-stamped samples with exact time-weighted statistics and a
/// bounded, deterministically decimated point buffer.
#[derive(Debug, Clone, Default)]
pub struct Series {
    /// Retained `(t_ms, value)` points (a deterministic subsample once
    /// more than `SERIES_CAP` samples arrive).
    pub points: Vec<(f64, f64)>,
    /// Total samples ever recorded (including decimated-away ones).
    pub samples: u64,
    /// Peak value over *all* samples.
    pub peak: f64,
    stride: u64,
    integral: f64,
    /// Total observed time, i.e. the sum of positive inter-sample gaps.
    /// Kept separately from the point timestamps because recorders may
    /// feed several independent timelines (e.g. one per simulation run,
    /// each restarting at t=0) into one series.
    elapsed: f64,
    last: Option<(f64, f64)>,
}

impl Series {
    /// Records a sample. Statistics (peak, time-weighted mean) are exact
    /// over every sample; the point buffer keeps every `stride`-th one.
    /// A timestamp at or before the previous one starts a new timeline
    /// segment: it contributes no elapsed time, only a new anchor.
    pub fn record(&mut self, t_ms: f64, value: f64) {
        if let Some((lt, lv)) = self.last {
            if t_ms > lt {
                self.integral += lv * (t_ms - lt);
                self.elapsed += t_ms - lt;
            }
        }
        self.last = Some((t_ms, value));
        self.peak = if self.samples == 0 {
            value
        } else {
            self.peak.max(value)
        };
        if self.samples.is_multiple_of(self.stride.max(1)) {
            if self.points.len() == SERIES_CAP {
                let mut keep = 0;
                for i in (0..self.points.len()).step_by(2) {
                    self.points[keep] = self.points[i];
                    keep += 1;
                }
                self.points.truncate(keep);
                self.stride = (self.stride.max(1)) * 2;
            }
            if self.samples.is_multiple_of(self.stride.max(1)) {
                self.points.push((t_ms, value));
            }
        }
        self.samples += 1;
    }

    /// Exact time-weighted mean over the observed time (the sum of all
    /// positive inter-sample gaps; 0 when fewer than two samples exist).
    pub fn mean(&self) -> f64 {
        if self.elapsed > 0.0 {
            self.integral / self.elapsed
        } else {
            0.0
        }
    }

    /// Appends another series' retained points (re-sorted by time) and
    /// combines exact statistics: peak, value integral and observed time
    /// all add directly, so the merged mean is the exact time-weighted
    /// mean over both series.
    pub fn merge(&mut self, other: &Series) {
        if other.samples == 0 {
            return;
        }
        self.points.extend_from_slice(&other.points);
        self.points
            .sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap_or(std::cmp::Ordering::Equal));
        self.points.truncate(SERIES_CAP);
        self.peak = if self.samples == 0 {
            other.peak
        } else {
            self.peak.max(other.peak)
        };
        self.samples += other.samples;
        self.integral += other.integral;
        self.elapsed += other.elapsed;
        if let Some(&(t1, v1)) = self.points.last() {
            self.last = Some((t1, v1));
        }
    }
}

// ---------------------------------------------------------------------------
// Spans + snapshot
// ---------------------------------------------------------------------------

/// A completed named interval on a track.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Track (Chrome-trace thread) the span belongs to, e.g. `"solver"`.
    pub track: String,
    /// Span name, e.g. `"solve:strict"`.
    pub name: String,
    /// Start, in [`clock_ms`] milliseconds.
    pub start_ms: f64,
    /// Duration in milliseconds.
    pub dur_ms: f64,
}

/// Cap on retained spans (drops-with-count beyond it, keeping snapshots
/// bounded on pathological workloads).
const SPAN_CAP: usize = 8192;

/// A deterministic, self-contained copy of everything a recorder has
/// seen. All maps are ordered (`BTreeMap`), so identical recordings
/// render to identical JSON.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Series by name.
    pub series: BTreeMap<String, Series>,
    /// Completed spans, in recording order.
    pub spans: Vec<SpanEvent>,
    /// Spans dropped once `SPAN_CAP` was reached.
    pub spans_dropped: u64,
}

impl Snapshot {
    /// Merges `other` into `self`: counters add, gauges take `other`'s
    /// value, histograms and series combine, spans append (subject to
    /// the span cap). Deterministic: merging equal inputs in the same
    /// order always yields the same snapshot.
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
        for (k, v) in &other.series {
            self.series.entry(k.clone()).or_default().merge(v);
        }
        for s in &other.spans {
            if self.spans.len() < SPAN_CAP {
                self.spans.push(s.clone());
            } else {
                self.spans_dropped += 1;
            }
        }
        self.spans_dropped += other.spans_dropped;
    }

    /// Renders the snapshot as JSON (schema version 1):
    ///
    /// ```json
    /// {
    ///   "schema": 1,
    ///   "counters": {"name": 42, ...},
    ///   "gauges": {"name": 3.5, ...},
    ///   "histograms": {"name": {"count": n, "sum": s, "min": m,
    ///                           "max": M, "mean": µ, "p50": q, "p90": q,
    ///                           "p99": q}, ...},
    ///   "series": {"name": {"samples": n, "mean": µ, "peak": p,
    ///                       "points": [[t_ms, value], ...]}, ...},
    ///   "spans": [{"track": "...", "name": "...", "start_ms": t,
    ///              "dur_ms": d}, ...],
    ///   "spans_dropped": 0
    /// }
    /// ```
    ///
    /// Map keys are sorted and floats are rendered with Rust's
    /// round-trip `{:?}` formatting, so equal snapshots always render
    /// byte-identically. The writer is hand-rolled (this crate is
    /// dependency-free), but the output is plain JSON that
    /// `serde_json` parses back (the CLI round-trip test checks this).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"schema\": 1,\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            sep(&mut out, i);
            let _ = write!(out, "{}: {v}", json_str(k));
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            sep(&mut out, i);
            let _ = write!(out, "{}: {}", json_str(k), json_f64(*v));
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            sep(&mut out, i);
            let _ = write!(
                out,
                "{}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                json_str(k),
                h.count,
                json_f64(h.sum),
                json_f64(if h.count == 0 { 0.0 } else { h.min }),
                json_f64(if h.count == 0 { 0.0 } else { h.max }),
                json_f64(h.mean()),
                json_f64(h.quantile(0.50)),
                json_f64(h.quantile(0.90)),
                json_f64(h.quantile(0.99)),
            );
        }
        out.push_str("},\n  \"series\": {");
        for (i, (k, s)) in self.series.iter().enumerate() {
            sep(&mut out, i);
            let _ = write!(
                out,
                "{}: {{\"samples\": {}, \"mean\": {}, \"peak\": {}, \"points\": [",
                json_str(k),
                s.samples,
                json_f64(s.mean()),
                json_f64(if s.samples == 0 { 0.0 } else { s.peak }),
            );
            for (j, (t, v)) in s.points.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{}, {}]", json_f64(*t), json_f64(*v));
            }
            out.push_str("]}");
        }
        out.push_str("},\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"track\": {}, \"name\": {}, \"start_ms\": {}, \"dur_ms\": {}}}",
                json_str(&s.track),
                json_str(&s.name),
                json_f64(s.start_ms),
                json_f64(s.dur_ms),
            );
        }
        if !self.spans.is_empty() {
            out.push_str("\n  ");
        }
        let _ = write!(out, "],\n  \"spans_dropped\": {}\n}}", self.spans_dropped);
        out
    }
}

fn sep(out: &mut String, i: usize) {
    if i > 0 {
        out.push_str(", ");
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON has no NaN/Infinity; clamp them like serde_json's lossy modes
/// would (they never appear in practice — instruments are fed finite
/// values — but the writer must not emit invalid JSON regardless).
fn json_f64(v: f64) -> String {
    if v.is_nan() {
        "0.0".into()
    } else if v.is_infinite() {
        if v > 0.0 {
            "1e308".into()
        } else {
            "-1e308".into()
        }
    } else {
        format!("{v:?}")
    }
}

// ---------------------------------------------------------------------------
// MemoryRecorder
// ---------------------------------------------------------------------------

/// A live view of counters its owner keeps: a [`MemoryRecorder`] it is
/// [registered](MemoryRecorder::register) with reads its current values
/// in every snapshot, so the owner records no event a second time.
pub trait Source: Send + Sync {
    /// Writes the source's current values into `snap`, which starts
    /// empty; the recorder merges it into the snapshot it returns.
    fn report(&self, snap: &mut Snapshot);
}

/// The telemetry recorder: a mutex'd [`Snapshot`] plus the live
/// [`Source`]s registered with it. Its methods are thread-safe (the
/// solver flushes from worker threads, the fleet from its pool). The
/// process-global one ([`memory_recorder`]) is what the CLI reads for
/// `--telemetry FILE`, where flush sites are per-solve/per-run, and what
/// `haxconn serve` answers `/v1/telemetry` from.
#[derive(Default)]
pub struct MemoryRecorder {
    state: Mutex<Snapshot>,
    sources: Mutex<Vec<Weak<dyn Source>>>,
}

impl MemoryRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies the recorded state out as a [`Snapshot`], with the current
    /// values of every live source merged in (see [`Snapshot::merge`]:
    /// counters of two sources add up, a gauge takes the last source's
    /// value).
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = self.state.lock().expect("telemetry lock poisoned").clone();
        let sources = self.sources.lock().expect("telemetry lock poisoned");
        for source in sources.iter().filter_map(Weak::upgrade) {
            let mut part = Snapshot::default();
            source.report(&mut part);
            snap.merge(&part);
        }
        snap
    }

    /// Registers a live source; it reports in every snapshot until its
    /// last strong reference is dropped, and is forgotten on a later
    /// registration.
    pub fn register(&self, source: Weak<dyn Source>) {
        let mut sources = self.sources.lock().expect("telemetry lock poisoned");
        sources.retain(|s| s.strong_count() > 0);
        sources.push(source);
    }

    /// Clears all recorded state (the CLI resets between runs so one
    /// process can serve several telemetry-captured commands). Live
    /// sources stay registered: they report their owners' counters,
    /// which a reset does not touch.
    pub fn reset(&self) {
        *self.state.lock().expect("telemetry lock poisoned") = Snapshot::default();
    }

    /// Adds `delta` to the counter `name`.
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut s = self.state.lock().expect("telemetry lock poisoned");
        match s.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                s.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, value: f64) {
        let mut s = self.state.lock().expect("telemetry lock poisoned");
        s.gauges.insert(name.to_string(), value);
    }

    /// Appends a `(t_ms, value)` sample to the series `name`.
    pub fn series_record(&self, name: &str, t_ms: f64, value: f64) {
        let mut s = self.state.lock().expect("telemetry lock poisoned");
        match s.series.get_mut(name) {
            Some(v) => v.record(t_ms, value),
            None => {
                let mut series = Series::default();
                series.record(t_ms, value);
                s.series.insert(name.to_string(), series);
            }
        }
    }

    /// Records one observation into the histogram `name`.
    pub fn histogram_record(&self, name: &str, value: f64) {
        let mut s = self.state.lock().expect("telemetry lock poisoned");
        match s.histograms.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = Histogram::default();
                h.record(value);
                s.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Records a completed span on `track` lasting `dur_ms` from
    /// `start_ms` (milliseconds on the caller's clock; library code uses
    /// [`clock_ms`] so spans from different crates share an epoch).
    pub fn span_event(&self, track: &str, name: &str, start_ms: f64, dur_ms: f64) {
        let mut s = self.state.lock().expect("telemetry lock poisoned");
        if s.spans.len() < SPAN_CAP {
            s.spans.push(SpanEvent {
                track: track.to_string(),
                name: name.to_string(),
                start_ms,
                dur_ms,
            });
        } else {
            s.spans_dropped += 1;
        }
    }
}

/// Returns the process-wide [`MemoryRecorder`], creating it — and turning
/// recording on — on first use. Always `Some`.
pub fn memory_recorder() -> Option<&'static Arc<MemoryRecorder>> {
    Some(RECORDER.get_or_init(|| {
        ENABLED.store(true, Ordering::Release);
        Arc::new(MemoryRecorder::new())
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled() -> Snapshot {
        let rec = MemoryRecorder::new();
        rec.counter_add("solver.nodes", 100);
        rec.counter_add("solver.nodes", 23);
        rec.counter_add("cache.hits", 7);
        rec.gauge_set("solver.par.workers", 4.0);
        rec.gauge_set("solver.par.workers", 8.0);
        rec.histogram_record("solver.solve_ms", 1.5);
        rec.histogram_record("solver.solve_ms", 3.0);
        rec.histogram_record("solver.solve_ms", 120.0);
        for i in 0..10 {
            rec.series_record("soc.emc_bandwidth_gbps", i as f64, (i % 3) as f64 * 10.0);
        }
        rec.span_event("solver", "solve:strict", 1.0, 4.5);
        rec.snapshot()
    }

    #[test]
    fn counters_accumulate_and_gauges_last_write_wins() {
        let s = filled();
        assert_eq!(s.counters["solver.nodes"], 123);
        assert_eq!(s.counters["cache.hits"], 7);
        assert_eq!(s.gauges["solver.par.workers"], 8.0);
    }

    #[test]
    fn histogram_stats_are_exact_where_promised() {
        let s = filled();
        let h = &s.histograms["solver.solve_ms"];
        assert_eq!(h.count, 3);
        assert!((h.sum - 124.5).abs() < 1e-12);
        assert_eq!(h.min, 1.5);
        assert_eq!(h.max, 120.0);
        assert!((h.mean() - 41.5).abs() < 1e-12);
        // Quantiles are bucket-resolution but clamped into [min, max].
        assert!(h.quantile(0.5) >= h.min && h.quantile(0.5) <= h.max);
        assert_eq!(h.quantile(0.99), 120.0);
    }

    #[test]
    fn series_time_weighted_mean_and_peak() {
        let mut s = Series::default();
        // 10 for 1 ms, then 20 for 1 ms -> mean 15, peak 20.
        s.record(0.0, 10.0);
        s.record(1.0, 20.0);
        s.record(2.0, 0.0);
        assert!((s.mean() - 15.0).abs() < 1e-12);
        assert_eq!(s.peak, 20.0);
        assert_eq!(s.samples, 3);
    }

    #[test]
    fn series_mean_survives_restarting_timelines() {
        // Several simulation runs feed one series, each restarting at
        // t=0. The mean must stay a true average (never above peak).
        let mut s = Series::default();
        for _run in 0..12 {
            s.record(0.0, 10.0);
            s.record(1.0, 20.0);
            s.record(2.0, 0.0);
        }
        assert!((s.mean() - 15.0).abs() < 1e-12);
        assert_eq!(s.peak, 20.0);
        assert!(s.mean() <= s.peak);
    }

    #[test]
    fn series_decimation_is_deterministic_and_bounded() {
        let run = || {
            let mut s = Series::default();
            for i in 0..3 * SERIES_CAP {
                s.record(i as f64, (i % 17) as f64);
            }
            s
        };
        let a = run();
        let b = run();
        assert!(a.points.len() <= SERIES_CAP);
        assert_eq!(a.points, b.points);
        assert_eq!(a.samples, (3 * SERIES_CAP) as u64);
        assert_eq!(a.peak, 16.0);
    }

    #[test]
    fn snapshot_json_is_deterministic() {
        let a = filled().to_json();
        let b = filled().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": 1"));
        assert!(a.contains("\"solver.nodes\": 123"));
    }

    #[test]
    fn merge_is_deterministic_and_combines_correctly() {
        let mut a = filled();
        let b = filled();
        a.merge(&b);
        assert_eq!(a.counters["solver.nodes"], 246);
        assert_eq!(a.gauges["solver.par.workers"], 8.0);
        assert_eq!(a.histograms["solver.solve_ms"].count, 6);
        assert_eq!(a.series["soc.emc_bandwidth_gbps"].samples, 20);
        assert_eq!(a.spans.len(), 2);

        let mut c = filled();
        c.merge(&filled());
        assert_eq!(a.to_json(), c.to_json());
    }

    #[test]
    fn merge_identity_on_empty() {
        let mut a = filled();
        let before = a.to_json();
        a.merge(&Snapshot::default());
        assert_eq!(a.to_json(), before);

        let mut empty = Snapshot::default();
        empty.merge(&filled());
        // Counters/gauges/histograms/spans transfer exactly.
        let f = filled();
        assert_eq!(empty.counters, f.counters);
        assert_eq!(empty.spans, f.spans);
        assert_eq!(
            empty.histograms["solver.solve_ms"].count,
            f.histograms["solver.solve_ms"].count
        );
    }

    #[test]
    fn json_escapes_and_non_finite_floats() {
        let mut s = Snapshot::default();
        s.gauges.insert("weird\"name\n".into(), f64::NAN);
        s.gauges.insert("inf".into(), f64::INFINITY);
        let json = s.to_json();
        assert!(json.contains("\"weird\\\"name\\n\": 0.0"));
        assert!(json.contains("\"inf\": 1e308"));
    }

    #[test]
    fn disabled_global_is_inert() {
        // The global recorder may or may not exist in this test binary;
        // either way the closure must not run when disabled.
        let was = enabled();
        set_enabled(false);
        let mut ran = false;
        with(|_| ran = true);
        assert!(!ran);
        set_enabled(was);
    }

    struct Fixed(u64);

    impl Source for Fixed {
        fn report(&self, snap: &mut Snapshot) {
            snap.counters.insert("live.count".into(), self.0);
            snap.gauges.insert("live.level".into(), self.0 as f64);
        }
    }

    #[test]
    fn live_sources_add_up_survive_reset_and_drop_out() {
        let rec = MemoryRecorder::new();
        rec.counter_add("live.count", 1);
        let a: Arc<dyn Source> = Arc::new(Fixed(2));
        let b: Arc<dyn Source> = Arc::new(Fixed(5));
        rec.register(Arc::downgrade(&a));
        rec.register(Arc::downgrade(&b));
        let s = rec.snapshot();
        assert_eq!(s.counters["live.count"], 8);
        assert_eq!(
            s.gauges["live.level"], 5.0,
            "a gauge takes the last source's value"
        );
        rec.reset();
        assert_eq!(rec.snapshot().counters["live.count"], 7);
        drop(b);
        assert_eq!(rec.snapshot().counters["live.count"], 2);
        drop(a);
        assert!(rec.snapshot().counters.is_empty());
        rec.register(Arc::downgrade(&(Arc::new(Fixed(1)) as Arc<dyn Source>)));
        assert_eq!(
            rec.sources.lock().unwrap().len(),
            1,
            "dead sources are forgotten"
        );
    }

    #[test]
    fn span_cap_drops_with_count() {
        let rec = MemoryRecorder::new();
        for i in 0..(SPAN_CAP + 5) {
            rec.span_event("t", "s", i as f64, 1.0);
        }
        let s = rec.snapshot();
        assert_eq!(s.spans.len(), SPAN_CAP);
        assert_eq!(s.spans_dropped, 5);
    }
}
