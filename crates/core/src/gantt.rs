//! ASCII Gantt rendering of measured timelines.
//!
//! Renders a measured run as one row per PU with task-labeled bars —
//! a terminal-friendly version of the paper's Fig. 1 timelines. Used by the
//! CLI (`schedule --gantt`) and handy in tests and examples.

use crate::measure::{staged, Measurement};
use crate::problem::Workload;
use haxconn_soc::{Platform, PuId};

/// One bar on a PU track.
#[derive(Debug, Clone)]
struct Bar {
    start_ms: f64,
    end_ms: f64,
    label: char,
}

/// Renders the run as an ASCII Gantt chart `width` columns wide.
///
/// Each task is assigned a letter (`A`, `B`, ...); transition flush/reformat
/// steps render as `-`. Overlapping-at-the-same-cell bars resolve to the
/// later-starting one (cells are coarse; the chart is a visual aid, not a
/// measurement).
pub fn render_gantt(
    platform: &Platform,
    workload: &Workload,
    assignment: &[Vec<PuId>],
    measurement: &Measurement,
    width: usize,
) -> String {
    assert!(width >= 20, "gantt needs at least 20 columns");
    let work = staged(workload, assignment);
    let horizon = measurement.latency_ms.max(1e-9);
    let scale = |t: f64| ((t / horizon) * (width as f64 - 1.0)).round() as usize;

    let mut tracks: Vec<Vec<Bar>> = vec![Vec::new(); platform.pus.len()];
    for r in measurement.raw.by_task() {
        let item = work.item(&r);
        tracks[item.pu].push(Bar {
            start_ms: r.start_ms,
            end_ms: r.end_ms,
            label: if item.cost.compute_ms == 0.0 {
                '-'
            } else {
                (b'A' + (r.task % 26) as u8) as char
            },
        });
    }

    let mut out = String::new();
    let name_w = platform
        .pus
        .iter()
        .map(|p| p.name.len())
        .max()
        .unwrap_or(8)
        .min(16);
    for (pu, track) in tracks.iter().enumerate() {
        let mut row = vec![' '; width];
        let mut bars = track.clone();
        bars.sort_by(|a, b| a.start_ms.total_cmp(&b.start_ms));
        for bar in &bars {
            let s = scale(bar.start_ms);
            let e = scale(bar.end_ms).max(s);
            for cell in row.iter_mut().take(e + 1).skip(s) {
                *cell = bar.label;
            }
        }
        let name: String = platform.pus[pu].name.chars().take(name_w).collect();
        out.push_str(&format!("{name:<name_w$} |"));
        out.extend(row);
        out.push_str("|\n");
    }
    out.push_str(&format!(
        "{:<name_w$}  0{:>pad$.2} ms\n",
        "",
        horizon,
        pad = width - 1
    ));
    // Legend.
    for (j, task) in workload.tasks.iter().enumerate() {
        let label = (b'A' + (j % 26) as u8) as char;
        out.push_str(&format!("  {label} = {}\n", task.name));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{Baseline, BaselineKind};
    use crate::measure::measure;
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
    fn renders_one_row_per_pu_with_legend() {
        let (p, w) = setup();
        let a = Baseline::assignment(BaselineKind::NaiveSplit, &p, &w);
        let m = measure(&p, &w, &a);
        let g = render_gantt(&p, &w, &a, &m, 60);
        let lines: Vec<&str> = g.lines().collect();
        // PU rows + axis + legend entries.
        assert!(lines.len() >= p.pus.len() + 1 + w.tasks.len());
        assert!(g.contains("A = det"));
        assert!(g.contains("B = cls"));
        // Both task letters appear somewhere on the tracks.
        assert!(lines[0].contains('A') || lines[1].contains('A'));
        assert!(lines[0].contains('B') || lines[1].contains('B'));
    }

    #[test]
    fn split_assignment_puts_letters_on_different_tracks() {
        let (p, w) = setup();
        let a = Baseline::assignment(BaselineKind::NaiveSplit, &p, &w);
        let m = measure(&p, &w, &a);
        let g = render_gantt(&p, &w, &a, &m, 80);
        let lines: Vec<&str> = g.lines().collect();
        // The DLA track must carry work from at least one task.
        let dla_row = lines[p.dsa()];
        assert!(
            dla_row.contains('A') || dla_row.contains('B'),
            "DLA track empty: {dla_row}"
        );
    }

    #[test]
    fn row_width_is_respected() {
        let (p, w) = setup();
        let a = Baseline::assignment(BaselineKind::GpuOnly, &p, &w);
        let m = measure(&p, &w, &a);
        for width in [20usize, 40, 100] {
            let g = render_gantt(&p, &w, &a, &m, width);
            for line in g.lines().take(p.pus.len()) {
                let bar_part = line.split('|').nth(1).expect("has bars");
                assert_eq!(bar_part.chars().count(), width, "width {width}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "20 columns")]
    fn tiny_width_rejected() {
        let (p, w) = setup();
        let a = Baseline::assignment(BaselineKind::GpuOnly, &p, &w);
        let m = measure(&p, &w, &a);
        render_gantt(&p, &w, &a, &m, 5);
    }
}
