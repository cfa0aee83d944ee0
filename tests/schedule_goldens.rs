//! Schedule goldens: the exact output of `HaxConn::try_schedule` on 48
//! seeded two- and three-task specs over orin, xavier and sd865.
//!
//! Each entry pins the assignment, the bits of the cost and of the
//! predicted makespan, the optimality certificate, and whether any
//! schedule met the ε constraint (Eq. 9). A pruning change in the
//! encoding or the solver may make the search cheaper, but must leave
//! every one of these values unchanged. On a mismatch the test prints the
//! whole table as it now stands.

mod common;

use haxconn::core::encoding::ScheduleEncoding;
use haxconn::dnn::Model;
use haxconn::prelude::*;
use haxconn::solver::{solve, Assignment, CostModel, PartialAssignment, SolveOptions};
use std::collections::HashMap;

/// One pinned schedule.
#[derive(Debug, Clone, PartialEq)]
struct Golden {
    spec: String,
    assignment: Vec<Vec<usize>>,
    cost: u64,
    makespan: u64,
    proven: bool,
    strict_feasible: bool,
}

/// `(spec, assignment, cost bits, makespan bits, proven_optimal,
/// strict_feasible)`.
type Row = (
    &'static str,
    &'static [&'static [usize]],
    u64,
    u64,
    bool,
    bool,
);

#[rustfmt::skip]
const GOLDENS: &[Row] = &[
    ("orin ResNet18:3 MobileNet:4 Inc-res-v2:3 chained", &[&[0, 0, 0], &[0, 0, 0, 0], &[0, 0, 0]], 0x401dba618a59019e, 0x401dba618a59019e, true, true),
    ("xavier DenseNet:4 FC_ResN18:3 MobileNet:3 chained", &[&[0, 0, 0, 0], &[0, 0, 0], &[0, 0, 0]], 0x40202d46f54950d7, 0x40202d46f54950d7, true, true),
    ("sd865 ResNet101:3 CaffeNet:3 MobileNet:3 chained", &[&[0, 0, 0], &[0, 0, 0], &[0, 0, 0]], 0x4043151ab7fc9799, 0x4043151ab7fc9799, true, true),
    ("orin CaffeNet:4 VGG19:3", &[&[0, 0, 0, 0], &[1, 0, 0]], 0x4019a761111e6ed2, 0x4019a761111e6ed2, true, true),
    ("xavier CaffeNet:4 ResNet101:5 chained", &[&[0, 0, 0, 0], &[0, 0, 0, 0, 0]], 0x4021c481c2931055, 0x4021c481c2931055, true, true),
    ("sd865 CaffeNet:4 ResNet18:4 chained", &[&[0, 0, 0, 0], &[0, 0, 0, 0]], 0x40284948bcde8244, 0x40284948bcde8244, true, true),
    ("orin ResNet152:5 ResNet18:3", &[&[0, 0, 0, 0, 0], &[1, 1, 0]], 0x4016b5573ff6ec68, 0x4016b5573ff6ec68, true, true),
    ("xavier Inc-res-v2:3 MobileNet:3", &[&[0, 0, 0], &[1, 1, 0]], 0x402868ace7292047, 0x402868ace7292047, true, true),
    ("sd865 ResNet101:3 Inc-res-v2:3 VGG16:3 chained", &[&[0, 0, 0], &[0, 0, 0], &[0, 0, 0]], 0x405a68cdbb51f736, 0x405a68cdbb51f736, true, true),
    ("orin DenseNet:3 MobileNet:3 VGG16:4 chained", &[&[0, 0, 0], &[0, 0, 0], &[0, 0, 0, 0]], 0x4020d4975c9c0f1f, 0x4020d4975c9c0f1f, true, true),
    ("xavier VGG16:4 ResNet18:3 GoogleNet:3", &[&[0, 0, 0, 0], &[1, 1, 0], &[0, 1, 0]], 0x4027068e6c98c3f6, 0x4027068e6c98c3f6, true, false),
    ("sd865 ResNet101:3 Inception:3 DenseNet:4 chained", &[&[0, 0, 0], &[0, 0, 0], &[0, 0, 0, 0]], 0x4053160a5f283f53, 0x4053160a5f283f53, true, true),
    ("orin AlexNet:3 ResNet18:4 CaffeNet:3 chained", &[&[0, 0, 0], &[0, 0, 0, 0], &[0, 0, 0]], 0x40070e46df12ff7c, 0x40070e46df12ff7c, true, true),
    ("xavier ResNet18:4 MobileNet:3 ResNet101:3 chained", &[&[0, 0, 0, 0], &[0, 0, 0], &[0, 0, 0]], 0x402378164e12da8a, 0x402378164e12da8a, true, true),
    ("sd865 DenseNet:5 ResNet50:5", &[&[0, 0, 0, 0, 1], &[1, 0, 0, 0, 0]], 0x4039157c4f15596a, 0x4039157c4f15596a, true, true),
    ("orin MobileNet:4 VGG19:3 chained", &[&[0, 0, 0, 0], &[0, 0, 0]], 0x40188e011232e60d, 0x40188e011232e60d, true, true),
    ("xavier Inc-res-v2:4 CaffeNet:5 chained", &[&[0, 0, 0, 0], &[0, 0, 0, 0, 0]], 0x402add6b1d8a7c9e, 0x402add6b1d8a7c9e, true, true),
    ("sd865 GoogleNet:4 ResNet18:5 chained", &[&[0, 0, 0, 0], &[0, 0, 0, 0, 0]], 0x40276aa0947bfbbe, 0x40276aa0947bfbbe, true, true),
    ("orin DenseNet:3 Inc-res-v2:3 Inception:3", &[&[1, 1, 0], &[0, 0, 0], &[1, 1, 0]], 0x4022d005c2dc7124, 0x4022d005c2dc7124, true, false),
    ("xavier ResNet152:3 AlexNet:4 VGG16:3", &[&[0, 1, 0], &[0, 0, 0, 0], &[1, 0, 0]], 0x40319661aa89f2c6, 0x40319661aa89f2c6, true, false),
    ("sd865 Inc-res-v2:3 ResNet152:4 MobileNet:3 chained", &[&[0, 0, 0], &[0, 0, 0, 0], &[0, 0, 0]], 0x4055983f933852b7, 0x4055983f933852b7, true, true),
    ("orin ResNet101:3 VGG19:3 ResNet50:3 chained", &[&[0, 0, 0], &[0, 0, 0], &[0, 0, 0]], 0x402698bf458d13e3, 0x402698bf458d13e3, true, true),
    ("xavier AlexNet:5 VGG19:5", &[&[0, 0, 1, 1, 0], &[0, 0, 0, 0, 0]], 0x40287c34bea10e40, 0x40287c34bea10e40, true, true),
    ("sd865 GoogleNet:3 AlexNet:3", &[&[1, 1, 1], &[0, 0, 0]], 0x40267ffe4830e018, 0x40267ffe4830e018, true, true),
    ("orin ResNet152:4 FC_ResN18:4 chained", &[&[0, 0, 0, 0], &[0, 0, 0, 0]], 0x4018d21c5c343c45, 0x4018d21c5c343c45, true, true),
    ("xavier ResNet101:4 VGG16:3 chained", &[&[0, 0, 0, 0], &[0, 0, 0]], 0x4030b96cf35ea7b7, 0x4030b96cf35ea7b7, true, true),
    ("sd865 FC_ResN18:3 VGG16:4 DenseNet:3", &[&[1, 0, 0], &[0, 0, 0, 0], &[1, 1, 1]], 0x40444af1765b6e04, 0x40444af1765b6e04, true, false),
    ("orin Inception:4 AlexNet:3 VGG19:3 chained", &[&[0, 0, 0, 0], &[0, 0, 0], &[0, 0, 0]], 0x4024f636750b65b6, 0x4024f636750b65b6, true, true),
    ("xavier CaffeNet:3 ResNet50:4 ResNet18:3 chained", &[&[0, 0, 0], &[0, 0, 0, 0], &[0, 0, 0]], 0x401c9e546155a1f9, 0x401c9e546155a1f9, true, true),
    ("sd865 Inception:3 GoogleNet:4 Inc-res-v2:3", &[&[1, 0, 1], &[0, 1, 1, 0], &[0, 0, 0]], 0x404b8a40655f0c45, 0x404b8a40655f0c45, true, false),
    ("orin CaffeNet:3 VGG19:3 DenseNet:3 chained", &[&[0, 0, 0], &[0, 0, 0], &[0, 0, 0]], 0x4022dcc6378ad831, 0x4022dcc6378ad831, true, true),
    ("xavier ResNet101:3 CaffeNet:4", &[&[0, 0, 0], &[0, 0, 0, 0]], 0x4021c481c2931055, 0x4021c481c2931055, true, true),
    ("sd865 Inception:5 MobileNet:3 chained", &[&[0, 0, 0, 0, 0], &[0, 0, 0]], 0x40416e09c45f622c, 0x40416e09c45f622c, true, true),
    ("orin ResNet101:4 VGG16:3 chained", &[&[0, 0, 0, 0], &[0, 0, 0]], 0x4020d790df75149e, 0x4020d790df75149e, true, true),
    ("xavier AlexNet:3 ResNet18:3", &[&[0, 0, 0], &[1, 1, 0]], 0x400574d6449d350b, 0x400574d6449d350b, true, true),
    ("sd865 ResNet152:3 MobileNet:5 chained", &[&[0, 0, 0], &[0, 0, 0, 0, 0]], 0x4045a879d886cdf8, 0x4045a879d886cdf8, true, true),
    ("orin ResNet18:5 ResNet101:5 chained", &[&[0, 0, 0, 0, 0], &[0, 0, 0, 0, 0]], 0x4011ddf69993bf49, 0x4011ddf69993bf49, true, true),
    ("xavier ResNet18:4 ResNet152:5 chained", &[&[0, 0, 0, 0], &[0, 0, 0, 0, 0]], 0x402779b17ee87a84, 0x402779b17ee87a84, true, true),
    ("sd865 ResNet152:3 CaffeNet:3", &[&[0, 0, 0], &[1, 1, 1]], 0x4043cd49f2e359e8, 0x4043cd49f2e359e8, true, true),
    ("orin VGG19:3 Inception:3 chained", &[&[0, 0, 0], &[0, 0, 0]], 0x4022bf765deb0276, 0x4022bf765deb0276, true, true),
    ("xavier AlexNet:3 ResNet50:3 Inc-res-v2:3", &[&[0, 0, 0], &[1, 1, 0], &[0, 1, 0]], 0x402d2f0b2cc898b3, 0x402d2f0b2cc898b3, true, false),
    ("sd865 Inc-res-v2:3 MobileNet:3 ResNet101:4 chained", &[&[0, 0, 0], &[0, 0, 0], &[0, 0, 0, 0]], 0x4052911d94635d80, 0x4052911d94635d80, true, true),
    ("orin AlexNet:3 Inc-res-v2:3 Inception:3 chained", &[&[0, 0, 0], &[0, 0, 0], &[0, 0, 0]], 0x40261458b3b9ca12, 0x40261458b3b9ca12, true, true),
    ("xavier CaffeNet:5 VGG16:3", &[&[0, 1, 0, 1, 0], &[0, 0, 0]], 0x40262bc6e6aa198c, 0x40262bc6e6aa198c, true, true),
    ("sd865 VGG19:3 GoogleNet:5", &[&[0, 0, 0], &[1, 1, 1, 1, 1]], 0x404556ea9824d552, 0x404556ea9824d552, true, true),
    ("orin VGG16:3 Inc-res-v2:4", &[&[0, 1, 0], &[1, 0, 1, 0]], 0x4020a4540ad7688f, 0x4020a4540ad7688f, true, true),
    ("xavier ResNet152:4 MobileNet:3 FC_ResN18:3 chained", &[&[0, 0, 0, 0], &[0, 0, 0], &[0, 0, 0]], 0x402a3e5de08637f1, 0x402a3e5de08637f1, true, true),
    ("sd865 GoogleNet:3 ResNet101:5", &[&[1, 1, 1], &[0, 0, 0, 0, 0]], 0x403ac76de7230fdd, 0x403ac76de7230fdd, true, true),
];

#[test]
fn schedules_match_the_goldens() {
    let mut contexts: HashMap<String, ContentionModel> = HashMap::new();
    let mut actual = Vec::new();
    for (label, spec) in common::specs() {
        let (platform, workload) = spec.resolve().expect("valid spec");
        let cm = contexts
            .entry(spec.platform.clone())
            .or_insert_with(|| ContentionModel::calibrate(&platform));
        let config = spec.effective_config();
        let s = HaxConn::try_schedule(&platform, &workload, cm, config).expect("schedulable");
        let strict_feasible = common::strict_feasible(&workload, cm, config);
        actual.push(Golden {
            spec: label,
            assignment: s.assignment.clone(),
            cost: s.cost.to_bits(),
            makespan: s.predicted.makespan_ms.to_bits(),
            proven: s.proven_optimal,
            strict_feasible,
        });
    }
    let expected: Vec<Golden> = GOLDENS
        .iter()
        .map(
            |&(spec, rows, cost, makespan, proven, strict_feasible)| Golden {
                spec: spec.to_string(),
                assignment: rows.iter().map(|r| r.to_vec()).collect(),
                cost,
                makespan,
                proven,
                strict_feasible,
            },
        )
        .collect();
    if actual != expected {
        println!("const GOLDENS: &[Row] = &[");
        for g in &actual {
            let rows: Vec<String> = g.assignment.iter().map(|r| format!("&{r:?}")).collect();
            println!(
                "    ({:?}, &[{}], {:#018x}, {:#018x}, {}, {}),",
                g.spec,
                rows.join(", "),
                g.cost,
                g.makespan,
                g.proven,
                g.strict_feasible
            );
        }
        println!("];");
        panic!("schedules moved (table above)");
    }
    let infeasible = actual.iter().filter(|g| !g.strict_feasible).count();
    assert!(infeasible >= 4, "only {infeasible} strict-infeasible specs");
}

/// Three concurrent tasks on orin's two PUs: two first groups must share
/// a PU, each far longer than ε, so no schedule meets ε. The one search
/// then returns the relaxed optimum, in the violating tier.
#[test]
fn one_search_over_three_colliding_tasks_is_the_relaxed_optimum() {
    let p = orin_agx();
    let cm = ContentionModel::calibrate(&p);
    let task = |m: Model| DnnTask::new(m.name(), NetworkProfile::profile(&p, m, 3));
    let w = Workload::concurrent(vec![
        task(Model::ResNet101),
        task(Model::Vgg19),
        task(Model::ResNet50),
    ]);
    let relaxed_cfg = SchedulerConfig {
        epsilon_ms: None,
        ..Default::default()
    };
    let enc = ScheduleEncoding::new(&w, &cm, SchedulerConfig::default());
    let relaxed = ScheduleEncoding::new(&w, &cm, relaxed_cfg);
    let (a, c) = solve(&enc, SolveOptions::default()).best.expect("tiered");
    let (ra, rc) = solve(&relaxed, SolveOptions::default())
        .best
        .expect("relaxed");
    assert_eq!(a, ra);
    assert_eq!(c.to_bits(), (rc * 2f64.powi(64)).to_bits());
}

/// Two concurrent tasks whose first groups collide on either PU, on a mix
/// that still has ε-feasible schedules. Unseeded, the search scores leaves
/// under a colliding prefix before its first feasible leaf; seeded with
/// an ε-feasible incumbent, the tiered bound cuts every colliding prefix
/// before it reaches a leaf.
#[test]
fn a_feasible_seed_cuts_every_colliding_prefix_before_its_leaves() {
    let p = orin_agx();
    let cm = ContentionModel::calibrate(&p);
    let task = |m: Model, g: usize| DnnTask::new(m.name(), NetworkProfile::profile(&p, m, g));
    let w = Workload::concurrent(vec![task(Model::Vgg16, 3), task(Model::Vgg19, 3)]);
    let config = SchedulerConfig::default();
    let eps = config.epsilon_ms.expect("default ε");
    let enc = ScheduleEncoding::new(&w, &cm, config);
    // Both first groups (variables 0 and 3) on one PU: the second to
    // dispatch waits out the first's whole standalone time.
    let collides = |a: &Assignment| {
        let first = |t: usize| w.tasks[t].profile.groups[0].cost[a[3 * t] as usize];
        a[0] == a[3]
            && first(0)
                .zip(first(1))
                .is_some_and(|(x, y)| x.time_ms.min(y.time_ms) > eps)
    };
    for pu in [p.gpu(), p.dsa()] {
        let a: Assignment = vec![pu as u32; enc.num_vars()];
        assert!(collides(&a), "first groups collide on PU {pu}");
    }
    let unseeded = Leaves::new(&enc);
    let (best, c) = solve(&unseeded, SolveOptions::default())
        .best
        .expect("a schedule");
    let tl = TimelineEvaluator::new(&w, &cm).evaluate(&enc.to_rows(&best));
    assert!(tl.max_wait_ms <= eps, "the optimum is ε-feasible");
    let colliding = |m: &Leaves<'_>| m.seen.borrow().iter().filter(|a| collides(a)).count();
    assert!(colliding(&unseeded) > 0);

    let seeded = Leaves::new(&enc);
    let sol = solve(
        &seeded,
        SolveOptions {
            initial_incumbent: Some((best.clone(), c)),
            ..Default::default()
        },
    );
    assert_eq!(sol.best.map(|(a, _)| a), Some(best));
    assert_eq!(colliding(&seeded), 0, "{:?}", sol.stats);
}

/// An encoding that records every leaf the solver scores.
struct Leaves<'a> {
    enc: &'a ScheduleEncoding<'a>,
    seen: std::cell::RefCell<Vec<Assignment>>,
}

impl<'a> Leaves<'a> {
    fn new(enc: &'a ScheduleEncoding<'a>) -> Self {
        Leaves {
            enc,
            seen: Default::default(),
        }
    }
}

impl CostModel for Leaves<'_> {
    type Scratch = ();
    fn num_vars(&self) -> usize {
        self.enc.num_vars()
    }
    fn domain(&self, var: usize) -> &[u32] {
        self.enc.domain(var)
    }
    fn cost(&self, a: &Assignment) -> Option<f64> {
        self.seen.borrow_mut().push(a.clone());
        self.enc.cost(a)
    }
    fn bound(&self, partial: &PartialAssignment) -> f64 {
        self.enc.bound(partial)
    }
    fn prune(&self, partial: &PartialAssignment) -> bool {
        self.enc.prune(partial)
    }
}
