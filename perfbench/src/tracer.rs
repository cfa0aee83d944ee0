//! In-memory spans recorded from the benchmark's own files.
//!
//! A span is a named interval around one call into a layer, with the op
//! it belongs to and the span that caused it. Spans stay in memory while
//! the run measures and are written out once at the end. A span's self
//! time is its duration minus the part of its interval its children
//! cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Op (request, reconstruction or replay) the span belongs to.
    pub op: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Layer call, e.g. `spec.decode`.
    pub name: &'static str,
    /// Start, µs since the tracer was created.
    pub start_us: f64,
    /// End, µs since the tracer was created.
    pub end_us: f64,
}

/// The span store.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// µs since the tracer was created.
    pub fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Records a closed span from explicit µs offsets.
    pub fn record_us(
        &mut self,
        op: u64,
        parent: Option<usize>,
        name: &'static str,
        start_us: f64,
        end_us: f64,
    ) -> usize {
        self.spans.push(Span {
            op,
            parent,
            name,
            start_us,
            end_us,
        });
        self.spans.len() - 1
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, op: u64, parent: Option<usize>, name: &'static str) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            op,
            parent,
            name,
            start_us,
            end_us: f64::NAN,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
    }

    /// Records a closed span between two instants.
    pub fn record(
        &mut self,
        op: u64,
        parent: Option<usize>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64() * 1e6;
        let (start_us, end_us) = (at(start), at(end));
        self.record_us(op, parent, name, start_us, end_us)
    }

    /// Times `f` as a child span of `parent`.
    pub fn time<R>(
        &mut self,
        op: u64,
        parent: usize,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(op, Some(parent), name);
        let out = f();
        self.end(id);
        out
    }

    /// Self time of every span, µs (duration minus the union of its
    /// children's intervals, clipped to its own).
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_us, s.end_us));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = s.start_us;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_us));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_us - s.start_us) - covered
            })
            .collect()
    }

    /// Self time per op of every span name under roots named `root`
    /// (the root itself included), summed within the op: `name -> op ->
    /// µs`.
    pub fn self_times_under(&self, root: &str) -> BTreeMap<&'static str, BTreeMap<u64, f64>> {
        // Parents are recorded before their children, so one forward
        // pass resolves every span's root.
        let mut root_of = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            let r = s.parent.map_or(i, |p| root_of[p]);
            root_of.push(r);
        }
        let mut out: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        for ((s, t), r) in self.spans.iter().zip(self.self_times()).zip(root_of) {
            if self.spans[r].name == root {
                *out.entry(s.name).or_default().entry(s.op).or_default() += t;
            }
        }
        out
    }

    /// Writes one span per line: `op id parent name start_us end_us`
    /// (`parent` is `-` for roots).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 * self.spans.len());
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{} {id} {parent} {} {:?} {:?}",
                s.op, s.name, s.start_us, s.end_us
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let t = Tracer {
            t0: Instant::now(),
            spans: vec![
                Span {
                    op: 0,
                    parent: None,
                    name: "root",
                    start_us: 0.0,
                    end_us: 10.0,
                },
                Span {
                    op: 0,
                    parent: Some(0),
                    name: "a",
                    start_us: 1.0,
                    end_us: 4.0,
                },
                Span {
                    op: 0,
                    parent: Some(0),
                    name: "b",
                    start_us: 3.0,
                    end_us: 6.0,
                },
                Span {
                    op: 0,
                    parent: Some(0),
                    name: "c",
                    start_us: 9.0,
                    end_us: 12.0,
                },
            ],
        };
        let st = t.self_times();
        // Children cover [1, 6] and [9, 10] of the root: 6 µs.
        assert_eq!(st[0], 4.0);
        assert_eq!(st[1], 3.0);
        let under = t.self_times_under("root");
        assert_eq!(under["b"][&0], 3.0);
        assert_eq!(under["root"][&0], 4.0);
        assert!(t.self_times_under("other").is_empty());
    }
}
