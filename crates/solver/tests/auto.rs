//! `solve_auto`'s driver selection, read off the solver span each solve
//! emits (`bb.solve` or `bb.solve_parallel`), and the absence of the LNS
//! race's telemetry from the pool it starts. A dedicated test binary,
//! because the telemetry recorder is process-global.

use haxconn_solver::{
    solve, solve_auto, Assignment, CostModel, PartialAssignment, SolveOptions, PARALLEL_MIN_VARS,
};
use haxconn_telemetry as tel;

/// Binary variables, each with its own pair of weights; the cost is their
/// sum and the bound sums the cheapest choice for unassigned variables.
struct Weights(Vec<[f64; 2]>);

impl CostModel for Weights {
    type Scratch = ();
    fn num_vars(&self) -> usize {
        self.0.len()
    }
    fn domain(&self, _var: usize) -> &[u32] {
        &[0, 1]
    }
    fn cost(&self, a: &Assignment) -> Option<f64> {
        Some(a.iter().zip(&self.0).map(|(&v, w)| w[v as usize]).sum())
    }
    fn bound(&self, partial: &PartialAssignment) -> f64 {
        partial
            .iter()
            .zip(&self.0)
            .map(|(v, w)| match v {
                Some(v) => w[*v as usize],
                None => w[0].min(w[1]),
            })
            .sum()
    }
}

fn model(n: usize) -> Weights {
    Weights(
        (0..n)
            .map(|i| [(i % 3) as f64, ((i * 7) % 5) as f64 * 0.5])
            .collect(),
    )
}

#[test]
fn solve_auto_picks_the_driver_from_the_model() {
    let rec = tel::memory_recorder().expect("no other recorder installed");
    let small = model(PARALLEL_MIN_VARS - 1);
    let large = model(PARALLEL_MIN_VARS);
    let budgeted = || SolveOptions {
        node_budget: Some(1 << 20),
        ..Default::default()
    };
    // `0` is one worker per CPU, and a pool of one is no pool.
    let all_cpus = match std::thread::available_parallelism().map_or(1, |n| n.get()) {
        1 => "bb.solve",
        _ => "bb.solve_parallel",
    };
    let cases = [
        ("node budget", &large, budgeted(), 4, "bb.solve"),
        ("all CPUs", &large, SolveOptions::default(), 0, all_cpus),
        ("one thread", &large, SolveOptions::default(), 1, "bb.solve"),
        ("few vars", &small, SolveOptions::default(), 4, "bb.solve"),
        (
            "many vars",
            &large,
            SolveOptions::default(),
            2,
            "bb.solve_parallel",
        ),
    ];
    for (why, m, opts, threads, driver) in cases {
        let seq = solve(m, SolveOptions::default()).best.expect("feasible");
        rec.reset();
        tel::set_enabled(true);
        let sol = solve_auto(m, opts, threads);
        tel::set_enabled(false);
        let spans: Vec<String> = rec
            .snapshot()
            .spans
            .iter()
            .filter(|s| s.track == "solver")
            .map(|s| s.name.clone())
            .collect();
        assert_eq!(spans, [driver], "{why}");
        // The pool `solve_auto` starts runs no LNS workers, so it records
        // none of the race's keys.
        let snap = rec.snapshot();
        let race_keys: Vec<&String> = snap
            .counters
            .keys()
            .chain(snap.series.keys())
            .filter(|k| k.starts_with("solver.lns.") || k.starts_with("solver.portfolio."))
            .collect();
        assert!(race_keys.is_empty(), "{why}: {race_keys:?}");
        // Whichever driver ran, the answer is the sequential optimum.
        let (a, c) = sol.best.expect("feasible");
        assert_eq!((a, c.to_bits()), (seq.0, seq.1.to_bits()), "{why}");
    }
}
