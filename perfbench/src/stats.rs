//! Raw per-op records and the end-to-end metrics derived from them.
//!
//! A run keeps every op it timed in a [`Records`] value, writes it beside
//! the summary, and derives every end-to-end metric from it with
//! [`end_to_end`] — so each reported number can be recomputed from the
//! file alone (the test at the bottom does exactly that).

use std::fmt::Write as _;
use std::path::Path;

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Most windows (and latency chunks) a timed phase is cut into.
pub const WINDOWS: usize = 10;

/// One timed op of the closed loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// Start, µs after the timed phase began.
    pub start_us: f64,
    /// Client-observed duration, µs.
    pub lat_us: f64,
    /// Ops this record stands for (1 per request; the event count of a
    /// trace replay).
    pub units: u32,
    /// Succeeded and passed its output checks.
    pub ok: bool,
}

/// Everything a run measured, in the form it is written to disk.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Records {
    /// Set-up figure of each process that set up (this one first): the
    /// first quartile of its set-up repetitions, s.
    pub setup_s: Vec<f64>,
    /// Wall time of the timed phase, s.
    pub wall_s: f64,
    /// `VmHWM` of the process after the workload, MB.
    pub peak_rss_mb: f64,
    /// The timed ops, in order.
    pub ops: Vec<Op>,
    /// Latency samples, µs, when they are not the ops themselves (the
    /// solver wall time of each re-solve of an arrival replay).
    pub latency_us: Vec<f64>,
    /// `(served DES makespan, best baseline DES makespan)`, ms, one per
    /// distinct spec the quality figures cover.
    pub makespans: Vec<(f64, f64)>,
    /// `(weight, latency ms)` per task or tenant the quality figures
    /// cover.
    pub task_latency: Vec<(f64, f64)>,
}

/// Nearest-rank quantile of ascending `sorted` (`q` in (0, 1]).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q) - 1]
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `q` quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// The `q` quantile, refused unless at least [`MIN_BEYOND`] samples lie
/// beyond it.
pub fn checked_quantile(sorted: &[f64], q: f64) -> Result<f64, String> {
    let n = sorted.len();
    if n == 0 || beyond(n, q) < MIN_BEYOND {
        return Err(format!(
            "p{} needs {MIN_BEYOND} samples beyond it, {n} samples give {}",
            q * 100.0,
            if n == 0 { 0 } else { beyond(n, q) }
        ));
    }
    Ok(quantile(sorted, q))
}

/// Median (upper middle for even counts, by nearest rank).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Fewest samples with `wanted` of them beyond the `q` quantile.
fn samples_with_beyond(q: f64, wanted: usize) -> usize {
    (1..)
        .find(|&n| beyond(n, q) >= wanted)
        .unwrap_or(usize::MAX)
}

/// Latency samples needed for a checked p99.
pub fn min_samples_for_p99() -> usize {
    samples_with_beyond(0.99, MIN_BEYOND)
}

/// Chunks the samples of a [`chunked_quantile`] fall into.
pub fn chunks(n: usize, q: f64) -> usize {
    (n / samples_with_beyond(q, MIN_BEYOND)).clamp(1, WINDOWS)
}

/// The quieter end of per-chunk figures. Interference from other tenants
/// of a shared host only ever adds time, and it lasts seconds, so a run
/// reports the first quartile of its chunks' latencies (and of a process's
/// set-up repetitions) and the third quartile of its windows' rates: a burst
/// that covers up to three quarters of the run leaves the figure alone, a
/// change to the program moves every chunk and so the figure too.
pub fn quieter_quartile(values: &[f64], lower_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, if lower_is_better { 0.25 } else { 0.75 })
}

/// A latency quantile robust to interference bursts: the samples, in
/// time order, are cut into up to [`WINDOWS`] consecutive chunks of equal
/// size (the last takes the remainder), each with at least
/// [`MIN_BEYOND`] samples beyond its quantile, and the first quartile of
/// the chunks' quantiles is reported (see [`quieter_quartile`]).
pub fn chunked_quantile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    let k = chunks(n, q);
    let size = n / k;
    let mut values = Vec::with_capacity(k);
    for c in 0..k {
        let hi = if c + 1 == k { n } else { (c + 1) * size };
        let mut chunk = samples[c * size..hi].to_vec();
        chunk.sort_by(f64::total_cmp);
        values.push(checked_quantile(&chunk, q)?);
    }
    Ok(quieter_quartile(&values, true))
}

impl Records {
    /// Ops attempted (units of every record).
    pub fn attempted(&self) -> u64 {
        self.ops.iter().map(|o| o.units as u64).sum()
    }

    /// Ops that failed (units of failed records).
    pub fn failed(&self) -> u64 {
        self.ops
            .iter()
            .filter(|o| !o.ok)
            .map(|o| o.units as u64)
            .sum()
    }

    /// The latency samples the percentiles are taken over, in time
    /// order.
    pub fn latency_samples(&self) -> Vec<f64> {
        if self.latency_us.is_empty() {
            self.ops.iter().filter(|o| o.ok).map(|o| o.lat_us).collect()
        } else {
            self.latency_us.clone()
        }
    }

    /// Writes the records as text, one record per line, floats in their
    /// shortest round-trip form.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 * (self.ops.len() + self.latency_us.len()) + 256);
        for s in &self.setup_s {
            let _ = writeln!(out, "setup {s:?}");
        }
        let _ = writeln!(out, "wall {:?}", self.wall_s);
        let _ = writeln!(out, "rss_mb {:?}", self.peak_rss_mb);
        for o in &self.ops {
            let _ = writeln!(
                out,
                "op {:?} {:?} {} {}",
                o.start_us,
                o.lat_us,
                o.units,
                u8::from(o.ok)
            );
        }
        for l in &self.latency_us {
            let _ = writeln!(out, "lat {l:?}");
        }
        for (served, base) in &self.makespans {
            let _ = writeln!(out, "mk {served:?} {base:?}");
        }
        for (w, l) in &self.task_latency {
            let _ = writeln!(out, "tl {w:?} {l:?}");
        }
        std::fs::write(path, out)
    }

    /// Parses what [`Records::write`] wrote.
    pub fn read(path: &Path) -> Result<Records, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut r = Records::default();
        for (n, line) in text.lines().enumerate() {
            let mut fields = line.split(' ');
            let kind = fields.next().unwrap_or("");
            let nums: Vec<f64> = fields
                .map(|f| f.parse::<f64>())
                .collect::<Result<_, _>>()
                .map_err(|e| format!("line {}: {e}", n + 1))?;
            let want = match kind {
                "setup" | "wall" | "rss_mb" | "lat" => 1,
                "mk" | "tl" => 2,
                "op" => 4,
                other => return Err(format!("line {}: unknown record '{other}'", n + 1)),
            };
            if nums.len() != want {
                return Err(format!("line {}: expected {want} fields", n + 1));
            }
            match kind {
                "setup" => r.setup_s.push(nums[0]),
                "wall" => r.wall_s = nums[0],
                "rss_mb" => r.peak_rss_mb = nums[0],
                "lat" => r.latency_us.push(nums[0]),
                "mk" => r.makespans.push((nums[0], nums[1])),
                "tl" => r.task_latency.push((nums[0], nums[1])),
                _ => r.ops.push(Op {
                    start_us: nums[0],
                    lat_us: nums[1],
                    units: nums[2] as u32,
                    ok: nums[3] != 0.0,
                }),
            }
        }
        Ok(r)
    }
}

/// Throughput of the timed phase, robust to interference bursts: the ops
/// are cut, in order, into consecutive windows that each span at least
/// a [`WINDOWS`]th of the wall time (from the end of the previous window
/// to the end of the window's last op), and the third quartile of the
/// windows' completed units per second is reported (see
/// [`quieter_quartile`]). A phase too short for one window reports
/// completed units over the wall time.
pub fn windowed_throughput(ops: &[Op], wall_s: f64) -> f64 {
    let span_us = wall_s * 1e6 / WINDOWS as f64;
    let (mut rates, mut start_us, mut units) = (Vec::new(), 0.0, 0u64);
    for o in ops {
        if o.ok {
            units += o.units as u64;
        }
        let end_us = o.start_us + o.lat_us;
        if end_us - start_us >= span_us {
            rates.push(units as f64 / ((end_us - start_us) * 1e-6));
            (start_us, units) = (end_us, 0);
        }
    }
    if rates.is_empty() {
        let completed: u64 = ops.iter().filter(|o| o.ok).map(|o| o.units as u64).sum();
        return completed as f64 / wall_s;
    }
    quieter_quartile(&rates, false)
}

/// A named figure: `(name, unit, value)`.
pub type Metric = (&'static str, &'static str, f64);

/// Every end-to-end metric with its unit, in the order of
/// `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("makespan_ratio", "ratio"),
    ("tenant_latency_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Every end-to-end metric of `BENCHMARK.json`, derived from `records`.
pub fn end_to_end(records: &Records) -> Result<Vec<Metric>, String> {
    if records.setup_s.is_empty() || records.wall_s <= 0.0 {
        return Err("records hold no set-up or timed phase".into());
    }
    let lat = records.latency_samples();
    if records.makespans.is_empty() || records.task_latency.is_empty() {
        return Err("records hold no quality samples".into());
    }
    let log_sum: f64 = records
        .makespans
        .iter()
        .map(|&(served, base)| (served / base).ln())
        .sum();
    let weight: f64 = records.task_latency.iter().map(|&(w, _)| w).sum();
    let weighted: f64 = records.task_latency.iter().map(|&(w, l)| w * l).sum();
    let values = [
        records.setup_s.iter().sum::<f64>() / records.setup_s.len() as f64,
        windowed_throughput(&records.ops, records.wall_s),
        chunked_quantile(&lat, 0.50)?,
        chunked_quantile(&lat, 0.99)?,
        (log_sum / records.makespans.len() as f64).exp(),
        weighted / weight,
        records.peak_rss_mb,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, unit, value))
        .collect())
}

/// `VmHWM` (peak resident set) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let need = min_samples_for_p99();
        assert!((1000..=1001).contains(&need), "{need}");
        let sorted: Vec<f64> = (0..need).map(|i| i as f64).collect();
        assert_eq!(beyond(need, 0.99), MIN_BEYOND);
        assert!(checked_quantile(&sorted, 0.99).is_ok());
        assert!(checked_quantile(&sorted[..need - 1], 0.99).is_err());
        assert!(checked_quantile(&[], 0.5).is_err());
        // The median of 20 samples has 10 beyond it.
        assert!(checked_quantile(&sorted[..20], 0.5).is_ok());
    }

    #[test]
    fn throughput_is_a_quiet_window() {
        // Wall 30 s gives 3 s windows: six windows of three 1 s ops, then
        // one 12 s window holding the slow op, which the quartile ignores.
        let mut ops: Vec<Op> = (0..20)
            .map(|i| Op {
                start_us: i as f64 * 1e6,
                lat_us: 1e6,
                units: 1,
                ok: true,
            })
            .collect();
        ops.push(Op {
            start_us: 20e6,
            lat_us: 10e6,
            units: 1,
            ok: true,
        });
        let got = windowed_throughput(&ops, 30.0);
        assert!((got - 1.0).abs() < 1e-9, "{got}");
        assert_eq!(windowed_throughput(&ops[..1], 30.0), 1.0 / 30.0);
    }

    #[test]
    fn chunked_quantiles_skip_a_burst() {
        // Ten chunks; one is a burst of slow samples.
        let m = min_samples_for_p99();
        let mut samples: Vec<f64> = (0..10 * m).map(|i| (i % m) as f64).collect();
        for s in &mut samples[3 * m..4 * m] {
            *s += 1e6;
        }
        let one: Vec<f64> = (0..m).map(|i| i as f64).collect();
        assert_eq!(chunks(samples.len(), 0.99), 10);
        assert_eq!(
            chunked_quantile(&samples, 0.99).unwrap(),
            quantile(&one, 0.99)
        );
        // Below two chunks, the quantile of all samples, still checked.
        assert_eq!(chunks(m, 0.99), 1);
        assert!(chunked_quantile(&samples[..m], 0.99).is_ok());
        assert!(chunked_quantile(&samples[..m - 1], 0.99).is_err());
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
