//! Soundness of `ScheduleEncoding`'s pruning rules on seeded workloads.
//!
//! The branch & bound returns the same schedule whatever the encoding's
//! lower bound is, as long as the bound is admissible and `prune` only
//! cuts prefixes without a feasible completion. These properties check
//! exactly that, with no tolerance, against exhaustively enumerated
//! completions:
//!
//! * `bound(prefix) <= cost(c)` for every feasible completion `c`;
//! * `prune(prefix)` implies `cost(c) == None` for every completion;
//! * a prefix whose first groups collide under ε (two tasks without
//!   upstream dependencies start on one PU, each for longer than ε)
//!   bounds in the ε-violating tier, every completion costs in that tier
//!   and at least the bound, and any other prefix bounds untiered;
//! * the incremental `prune_with` / `bound_with` agree with the
//!   from-scratch `prune` / `bound` along random LIFO push/pop walks;
//! * `bound(c) <= cost(c)` for every feasible complete assignment `c`,
//!   where the bound adds its release-ordered per-PU term.
//!
//! Workloads span orin, xavier, sd865 and the dual-DLA Orin; concurrent,
//! chained and tied tasks; both objectives; strict (ε) and relaxed
//! formulations.

use haxconn::core::encoding::ScheduleEncoding;
use haxconn::dnn::Model;
use haxconn::prelude::*;
use haxconn::soc::orin_agx_dual_dla;
use haxconn::solver::{Assignment, CostModel};
use std::collections::HashMap;
use std::sync::Arc;

/// Deterministic xorshift64* generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Largest number of complete assignments a case enumerates.
const MAX_COMPLETIONS: usize = 6_561;

/// How the generated tasks relate.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Concurrent,
    Chained,
    Tied,
}

/// One generated case: a calibrated platform, a workload and a solver
/// config.
struct Case {
    name: String,
    contention: ContentionModel,
    workload: Workload,
    config: SchedulerConfig,
}

/// How large the generated workloads are.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Size {
    /// 2–3 tasks, at most 10 variables and [`MAX_COMPLETIONS`]
    /// completions: small enough to enumerate.
    Enumerable,
    /// 4–5 tasks of 12–15 variables, for checks that enumerate nothing.
    Large,
}

/// Builds the seeded enumerable cases.
fn cases(count: usize, seed: u64) -> Vec<Case> {
    sized_cases(count, seed, Size::Enumerable)
}

/// Builds `count` seeded cases of `size`. Profiles are shared per
/// (platform, model, groups) across cases.
fn sized_cases(count: usize, seed: u64, size: Size) -> Vec<Case> {
    let platforms: Vec<(&str, Platform)> = vec![
        ("orin", PlatformId::OrinAgx.platform()),
        ("xavier", PlatformId::XavierAgx.platform()),
        ("sd865", PlatformId::Snapdragon865.platform()),
        ("orin_agx_dual_dla", orin_agx_dual_dla()),
    ];
    let models: Vec<ContentionModel> = platforms
        .iter()
        .map(|(_, p)| ContentionModel::calibrate(p))
        .collect();
    let mut profiles: HashMap<(usize, Model, usize), Arc<NetworkProfile>> = HashMap::new();
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let i = out.len();
        let p = i % platforms.len();
        let (pname, platform) = &platforms[p];
        let shape = [Shape::Concurrent, Shape::Chained, Shape::Tied][(i / 4) % 3];
        let n_tasks = match size {
            Size::Enumerable => 2 + rng.below(2),
            Size::Large => 4 + rng.below(2),
        };
        let zoo = Model::all();
        let mut picks: Vec<(Model, usize)> = Vec::new();
        let mut tasks = Vec::new();
        for t in 0..n_tasks {
            // A tied copy runs the representative's network and grouping.
            let (model, groups) = match (shape, t) {
                (Shape::Tied, 1) => picks[0],
                _ => (zoo[rng.below(zoo.len())], 2 + rng.below(3)),
            };
            picks.push((model, groups));
            let profile = profiles
                .entry((p, model, groups))
                .or_insert_with(|| Arc::new(NetworkProfile::profile(platform, model, groups)))
                .clone();
            tasks.push(DnnTask::new(format!("{}#{t}", model.name()), profile));
        }
        let mut workload = Workload::concurrent(tasks);
        match shape {
            Shape::Concurrent => {}
            Shape::Chained => {
                for t in 1..n_tasks {
                    workload = workload.with_dep(t - 1, t);
                }
            }
            Shape::Tied => workload = workload.with_tie(1, 0),
        }
        let config = SchedulerConfig {
            objective: if rng.below(3) == 0 {
                Objective::MaxThroughput
            } else {
                Objective::MinMaxLatency
            },
            epsilon_ms: [Some(0.35), Some(0.0), Some(2.0), None][rng.below(4)],
            max_transitions_per_task: 1 + rng.below(2),
            contention_aware: rng.below(4) != 0,
            ..Default::default()
        };
        let enc = ScheduleEncoding::new(&workload, &models[p], config);
        let fits = match size {
            Size::Enumerable => {
                let completions: usize = (0..enc.num_vars()).map(|v| enc.domain(v).len()).product();
                enc.num_vars() <= 10 && completions <= MAX_COMPLETIONS
            }
            Size::Large => (12..=15).contains(&enc.num_vars()),
        };
        if !fits {
            continue;
        }
        out.push(Case {
            name: format!("case {i} {pname} {shape:?} {:?}", config.objective),
            contention: models[p].clone(),
            workload,
            config,
        });
    }
    out
}

/// Every complete assignment of `enc` with its cost.
fn enumerate(enc: &ScheduleEncoding<'_>) -> Vec<(Assignment, Option<f64>)> {
    let n = enc.num_vars();
    let mut out = Vec::new();
    let mut idx = vec![0usize; n];
    loop {
        let a: Assignment = (0..n).map(|v| enc.domain(v)[idx[v]]).collect();
        let c = enc.cost(&a);
        out.push((a, c));
        let mut v = 0;
        loop {
            if v == n {
                return out;
            }
            idx[v] += 1;
            if idx[v] < enc.domain(v).len() {
                break;
            }
            idx[v] = 0;
            v += 1;
        }
    }
}

/// A random prefix: each variable assigned with probability 1/2. Half
/// the prefixes copy a random enumerated assignment's values, so many are
/// consistent with a feasible completion.
fn random_prefix(
    enc: &ScheduleEncoding<'_>,
    all: &[(Assignment, Option<f64>)],
    rng: &mut Rng,
) -> Vec<Option<u32>> {
    let from = &all[rng.below(all.len())].0;
    let copy = rng.below(2) == 0;
    (0..enc.num_vars())
        .map(|v| {
            (rng.below(2) == 0).then(|| {
                if copy {
                    from[v]
                } else {
                    enc.domain(v)[rng.below(enc.domain(v).len())]
                }
            })
        })
        .collect()
}

/// `value` mapped into the ε-violating tier: scaled by 2^64 away from the
/// feasible costs (up for makespans, towards 0 for negated FPS).
fn tiered(objective: Objective, value: f64) -> f64 {
    match objective {
        Objective::MinMaxLatency => value * 2f64.powi(64),
        Objective::MaxThroughput => value / 2f64.powi(64),
    }
}

/// Whether `prefix` puts the first groups of two tasks without upstream
/// dependencies on one PU where both run longer than ε: the second to
/// dispatch then waits longer than ε in every completion. Tied copies
/// share their representative's variables, so one such group suffices.
fn first_groups_collide(
    enc: &ScheduleEncoding<'_>,
    workload: &Workload,
    eps: Option<f64>,
    prefix: &[Option<u32>],
) -> bool {
    let Some(eps) = eps else { return false };
    let unknown = u32::MAX as usize;
    let rows = enc.to_rows(&prefix.iter().map(|v| v.unwrap_or(u32::MAX)).collect());
    let firsts: Vec<(usize, f64)> = (0..workload.tasks.len())
        .filter(|&t| workload.upstream(t).is_empty() && rows[t][0] != unknown)
        .map(|t| {
            let pu = rows[t][0];
            let time = workload.tasks[t].profile.groups[0].cost[pu].expect("in domain");
            (pu, time.time_ms)
        })
        .collect();
    firsts.iter().enumerate().any(|(i, &(pu, x))| {
        firsts[i + 1..]
            .iter()
            .any(|&(other, y)| other == pu && x.min(y) > eps)
    })
}

#[test]
fn bound_and_prune_are_sound_against_every_completion() {
    let mut rng = Rng::new(15);
    let mut checked_prunes = 0usize;
    let mut checked_bounds = 0usize;
    let mut checked_tiers = 0usize;
    for case in cases(96, 7) {
        let enc = ScheduleEncoding::new(&case.workload, &case.contention, case.config);
        let relaxed_cfg = SchedulerConfig {
            epsilon_ms: None,
            ..case.config
        };
        let relaxed = ScheduleEncoding::new(&case.workload, &case.contention, relaxed_cfg);
        let objective = case.config.objective;
        let all = enumerate(&enc);
        for _ in 0..128 {
            let prefix = random_prefix(&enc, &all, &mut rng);
            let completions = all
                .iter()
                .filter(|(a, _)| prefix.iter().zip(a).all(|(p, &v)| p.is_none_or(|p| p == v)));
            let bound = enc.bound(&prefix);
            // The same prefix reached through the incremental protocol.
            let mut scratch = enc.new_scratch();
            for (var, value) in prefix.iter().enumerate() {
                if let Some(v) = *value {
                    enc.push(&mut scratch, var, v);
                }
            }
            let bound_inc = enc.bound_with(&scratch, &prefix);
            let pruned = enc.prune(&prefix);
            assert_eq!(pruned, enc.prune_with(&scratch, &prefix), "{}", case.name);
            let collide =
                first_groups_collide(&enc, &case.workload, case.config.epsilon_ms, &prefix);
            let untiered = relaxed.bound(&prefix);
            let expected = match collide {
                true => tiered(objective, untiered),
                false => untiered,
            };
            assert_eq!(
                bound.to_bits(),
                expected.to_bits(),
                "{}: bound {bound} under {prefix:?} (collision: {collide})",
                case.name
            );
            for (a, cost) in completions {
                if pruned {
                    assert!(
                        cost.is_none(),
                        "{}: pruned prefix {prefix:?} has feasible completion {a:?} ({cost:?})",
                        case.name
                    );
                    checked_prunes += 1;
                }
                if let Some(c) = *cost {
                    assert!(
                        bound <= c && bound_inc <= c,
                        "{}: bound {bound} / {bound_inc} above cost {c} of {a:?} under {prefix:?}",
                        case.name
                    );
                    checked_bounds += 1;
                    if collide {
                        let relaxed_cost = relaxed.cost(a).expect("same transition budget");
                        assert_eq!(
                            c.to_bits(),
                            tiered(objective, relaxed_cost).to_bits(),
                            "{}: colliding completion {a:?} costs {c} outside the violating tier",
                            case.name
                        );
                        checked_tiers += 1;
                    }
                }
            }
        }
    }
    // Only the transition budget prunes (972 completions on these
    // cases); ε-collisions are bounds and counted apart (7,724).
    assert!(
        checked_prunes > 800,
        "only {checked_prunes} pruned completions checked"
    );
    assert!(
        checked_tiers > 5_000,
        "only {checked_tiers} colliding completions checked"
    );
    assert!(
        checked_bounds > 30_000,
        "only {checked_bounds} bounds checked"
    );
}

#[test]
fn incremental_bound_and_prune_match_from_scratch_along_lifo_walks() {
    // A walk enumerates no completions, so it also covers 4–5-task
    // workloads of 12–15 variables, where the incremental bound skips
    // the most tasks.
    let mut rng = Rng::new(42);
    let large = sized_cases(32, 12, Size::Large);
    assert!(large.iter().any(|c| c.workload.tasks.len() == 5));
    for case in cases(48, 11).into_iter().chain(large) {
        let enc = ScheduleEncoding::new(&case.workload, &case.contention, case.config);
        let n = enc.num_vars();
        let mut scratch = enc.new_scratch();
        let root = enc.bound_with(&scratch, &vec![None; n]);
        let mut partial: Vec<Option<u32>> = vec![None; n];
        let mut stack: Vec<usize> = Vec::new();
        for step in 0..400 {
            if stack.len() < n && (stack.is_empty() || rng.below(100) < 60) {
                // Any unassigned variable, in any order.
                let nth = rng.below(n - stack.len());
                let var = (0..n).filter(|&v| partial[v].is_none()).nth(nth).unwrap();
                let dom = enc.domain(var);
                let value = dom[rng.below(dom.len())];
                partial[var] = Some(value);
                enc.push(&mut scratch, var, value);
                stack.push(var);
            } else {
                let var = stack.pop().unwrap();
                enc.pop(&mut scratch, var);
                partial[var] = None;
            }
            assert_eq!(
                enc.prune_with(&scratch, &partial),
                enc.prune(&partial),
                "{} step {step}: prune disagrees at {partial:?}",
                case.name
            );
            let (inc, fresh) = (enc.bound_with(&scratch, &partial), enc.bound(&partial));
            assert!(
                (inc - fresh).abs() <= 1e-9 * fresh.abs().max(1.0),
                "{} step {step}: bound {inc} vs {fresh}",
                case.name
            );
            // Both run one computation in one order over the same PUs.
            assert_eq!(
                inc.to_bits(),
                fresh.to_bits(),
                "{} step {step}: bound {inc} vs {fresh}",
                case.name
            );
        }
        while let Some(var) = stack.pop() {
            enc.pop(&mut scratch, var);
            partial[var] = None;
        }
        // Saved-value restores: back at the root the state is exact.
        assert_eq!(
            enc.bound_with(&scratch, &partial).to_bits(),
            root.to_bits(),
            "{}",
            case.name
        );
        assert_eq!(
            enc.prune_with(&scratch, &partial),
            enc.prune(&partial),
            "{}",
            case.name
        );
    }
}

#[test]
fn complete_assignments_bound_below_their_own_cost() {
    // The release-ordered term only acts once every variable is known,
    // which random prefixes rarely reach: check it on every enumerated
    // completion, through both the from-scratch and the incremental path.
    let mut checked = HashMap::new();
    for case in cases(480, 21) {
        let enc = ScheduleEncoding::new(&case.workload, &case.contention, case.config);
        for (a, cost) in enumerate(&enc) {
            let Some(c) = cost else { continue };
            let full: Vec<Option<u32>> = a.iter().map(|&v| Some(v)).collect();
            let mut scratch = enc.new_scratch();
            for (var, &v) in a.iter().enumerate() {
                enc.push(&mut scratch, var, v);
            }
            let (bound, bound_inc) = (enc.bound(&full), enc.bound_with(&scratch, &full));
            assert!(
                bound <= c && bound_inc <= c,
                "{}: bound {bound} / {bound_inc} above cost {c} of {a:?}",
                case.name
            );
            if case.config.objective == Objective::MinMaxLatency {
                let shape = case.name.split(' ').nth(3).unwrap_or("").to_string();
                *checked.entry(shape).or_insert(0usize) += 1;
            }
        }
    }
    for (shape, floor) in [("Concurrent", 2_000), ("Chained", 5_000), ("Tied", 250)] {
        let n = checked.get(shape).copied().unwrap_or(0);
        assert!(
            n > floor,
            "only {n} feasible complete {shape} MinMaxLatency assignments checked"
        );
    }
}
