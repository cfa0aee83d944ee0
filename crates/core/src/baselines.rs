//! Baseline schedulers from the paper's evaluation (Section 5):
//!
//! 1. **GPU-only** — everything on the fastest PU, serialized.
//! 2. **Naive GPU & DSA** — whole DNNs pinned to different accelerators
//!    (the "non-collaborative" concurrent baseline).
//! 3. **Mensa-like** — per-DNN greedy layer-to-PU mapping: each group goes
//!    to the PU minimizing its own time plus the *immediate* transition
//!    cost. Transition-aware but myopic ("its greedy strategy fails to
//!    account for the transition costs occurring in the future") and
//!    contention-unaware; schedules each DNN in isolation.
//! 4. **Herald-like** — multi-DNN utilization balancing: groups are
//!    assigned to equalize accumulated load across accelerators, ignoring
//!    transition costs and memory contention.
//! 5. **H2H-like** — Herald plus transition-cost awareness (computation +
//!    communication), still contention-unaware.
//!
//! All baselines emit assignments in the same format as `HaxConn`, and are
//! *measured* on the ground-truth simulator like everything else.

use crate::problem::Workload;
use haxconn_soc::{Platform, PuId};
use serde::{Deserialize, Serialize};

/// Which baseline scheduler to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BaselineKind {
    /// Everything on the GPU.
    GpuOnly,
    /// DNN *i* wholly on PU chosen to balance whole-network runtimes.
    NaiveSplit,
    /// Greedy per-DNN, transition-aware, contention-unaware (Mensa-like).
    MensaGreedy,
    /// Load balancing across PUs, transition- and contention-unaware
    /// (Herald-like).
    HeraldLike,
    /// Load balancing with transition costs (H2H-like).
    H2hLike,
}

impl BaselineKind {
    /// All baselines, in the paper's comparison order.
    pub fn all() -> &'static [BaselineKind] {
        &[
            BaselineKind::GpuOnly,
            BaselineKind::NaiveSplit,
            BaselineKind::MensaGreedy,
            BaselineKind::HeraldLike,
            BaselineKind::H2hLike,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            BaselineKind::GpuOnly => "GPU-only",
            BaselineKind::NaiveSplit => "GPU & DSA",
            BaselineKind::MensaGreedy => "Mensa",
            BaselineKind::HeraldLike => "Herald",
            BaselineKind::H2hLike => "H2H",
        }
    }
}

impl std::fmt::Display for BaselineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Produces baseline assignments.
pub struct Baseline;

impl Baseline {
    /// The assignment for `kind` on `workload`.
    pub fn assignment(
        kind: BaselineKind,
        platform: &Platform,
        workload: &Workload,
    ) -> Vec<Vec<PuId>> {
        match kind {
            BaselineKind::GpuOnly => Self::gpu_only(platform, workload),
            BaselineKind::NaiveSplit => Self::naive_split(platform, workload),
            BaselineKind::MensaGreedy => Self::mensa(platform, workload),
            BaselineKind::HeraldLike => Self::herald(platform, workload, false),
            BaselineKind::H2hLike => Self::herald(platform, workload, true),
        }
    }

    fn gpu_only(platform: &Platform, workload: &Workload) -> Vec<Vec<PuId>> {
        let gpu = platform.gpu();
        workload
            .tasks
            .iter()
            .map(|t| vec![gpu; t.num_groups()])
            .collect()
    }

    /// Whole-DNN placement: order tasks by GPU runtime (longest first),
    /// then place each on the PU with the least accumulated load — the
    /// standard non-collaborative GPU & DLA setup. Groups a PU cannot run
    /// fall back to the GPU (TensorRT's GPU-fallback mode).
    fn naive_split(platform: &Platform, workload: &Workload) -> Vec<Vec<PuId>> {
        let gpu = platform.gpu();
        let pus = platform.dnn_pus();
        let mut order: Vec<usize> = (0..workload.tasks.len()).collect();
        order.sort_by(|&a, &b| {
            let ta = workload.tasks[a].profile.standalone_ms(gpu).unwrap_or(0.0);
            let tb = workload.tasks[b].profile.standalone_ms(gpu).unwrap_or(0.0);
            tb.total_cmp(&ta).then(a.cmp(&b))
        });
        let mut load = vec![0.0f64; platform.pus.len()];
        let mut result = vec![Vec::new(); workload.tasks.len()];
        for &t in &order {
            let profile = &workload.tasks[t].profile;
            // Pick the PU with least load (by the time this DNN would add).
            let pu = *pus
                .iter()
                .min_by(|&&a, &&b| {
                    let ta = load[a] + profile.standalone_with_fallback_ms(a, gpu);
                    let tb = load[b] + profile.standalone_with_fallback_ms(b, gpu);
                    ta.total_cmp(&tb).then(a.cmp(&b))
                })
                .expect("at least one PU");
            load[pu] += profile.standalone_with_fallback_ms(pu, gpu);
            result[t] = (0..profile.len())
                .map(|g| {
                    if profile.groups[g].cost[pu].is_some() {
                        pu
                    } else {
                        gpu
                    }
                })
                .collect();
        }
        result
    }

    /// Mensa-like greedy: per task, pick for each group the PU minimizing
    /// `t(group, pu) + tau(prev_pu -> pu)` — locally optimal, globally
    /// blind.
    fn mensa(_platform: &Platform, workload: &Workload) -> Vec<Vec<PuId>> {
        workload
            .tasks
            .iter()
            .map(|task| {
                let profile = &task.profile;
                let mut prev: Option<PuId> = None;
                (0..profile.len())
                    .map(|g| {
                        let pu = profile.groups[g]
                            .supported_pus()
                            .into_iter()
                            .min_by(|&a, &b| {
                                let score = |pu: PuId| {
                                    let t = profile.groups[g].cost[pu].unwrap().time_ms;
                                    let tr = match prev {
                                        Some(p) if p != pu => profile.transition_ms(g - 1, p, pu),
                                        _ => 0.0,
                                    };
                                    t + tr
                                };
                                score(a).total_cmp(&score(b)).then(a.cmp(&b))
                            })
                            .expect("supported somewhere");
                        prev = Some(pu);
                        pu
                    })
                    .collect()
            })
            .collect()
    }

    /// Herald-/H2H-like: interleave all tasks' groups (round-robin) and
    /// assign each to the PU minimizing accumulated finish time; H2H adds
    /// the transition cost to the score.
    fn herald(platform: &Platform, workload: &Workload, transition_aware: bool) -> Vec<Vec<PuId>> {
        let mut result: Vec<Vec<PuId>> = workload.tasks.iter().map(|_| Vec::new()).collect();
        let mut load = vec![0.0f64; platform.pus.len()];
        let mut cursors = vec![0usize; workload.tasks.len()];
        let total: usize = workload.num_vars();
        let mut placed = 0;
        while placed < total {
            for t in 0..workload.tasks.len() {
                let g = cursors[t];
                let profile = &workload.tasks[t].profile;
                if g >= profile.len() {
                    continue;
                }
                let prev = if g > 0 { Some(result[t][g - 1]) } else { None };
                let pu = profile.groups[g]
                    .supported_pus()
                    .into_iter()
                    .min_by(|&a, &b| {
                        let score = |pu: PuId| {
                            let t_exec = profile.groups[g].cost[pu].unwrap().time_ms;
                            let tr = if transition_aware {
                                match prev {
                                    Some(p) if p != pu => profile.transition_ms(g - 1, p, pu),
                                    _ => 0.0,
                                }
                            } else {
                                0.0
                            };
                            load[pu] + t_exec + tr
                        };
                        score(a).total_cmp(&score(b)).then(a.cmp(&b))
                    })
                    .expect("supported somewhere");
                load[pu] += profile.groups[g].cost[pu].unwrap().time_ms;
                result[t].push(pu);
                cursors[t] += 1;
                placed += 1;
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::execute;
    use crate::problem::DnnTask;
    use haxconn_dnn::Model;
    use haxconn_profiler::NetworkProfile;
    use haxconn_soc::orin_agx;

    fn setup(models: &[Model]) -> (haxconn_soc::Platform, Workload) {
        let p = orin_agx();
        let tasks = models
            .iter()
            .map(|&m| DnnTask::new(m.name(), NetworkProfile::profile(&p, m, 8)))
            .collect();
        (p, Workload::concurrent(tasks))
    }

    #[test]
    fn gpu_only_uses_only_gpu() {
        let (p, w) = setup(&[Model::GoogleNet, Model::ResNet101]);
        let a = Baseline::assignment(BaselineKind::GpuOnly, &p, &w);
        assert!(a.iter().flatten().all(|&pu| pu == p.gpu()));
    }

    #[test]
    fn naive_split_spreads_tasks() {
        let (p, w) = setup(&[Model::GoogleNet, Model::ResNet101]);
        let a = Baseline::assignment(BaselineKind::NaiveSplit, &p, &w);
        // The two DNNs land on different PUs (modulo GPU-fallback groups).
        let dominant = |row: &Vec<PuId>| {
            let dsa = row.iter().filter(|&&pu| pu == p.dsa()).count();
            if dsa * 2 > row.len() {
                p.dsa()
            } else {
                p.gpu()
            }
        };
        assert_ne!(dominant(&a[0]), dominant(&a[1]));
    }

    #[test]
    fn naive_split_respects_support() {
        let (p, w) = setup(&[Model::GoogleNet, Model::ResNet101]);
        let a = Baseline::assignment(BaselineKind::NaiveSplit, &p, &w);
        for (t, row) in a.iter().enumerate() {
            for (g, &pu) in row.iter().enumerate() {
                assert!(w.tasks[t].profile.groups[g].cost[pu].is_some());
            }
        }
    }

    #[test]
    fn mensa_is_gpu_leaning_but_transition_sane() {
        let (p, w) = setup(&[Model::GoogleNet]);
        let a = Baseline::assignment(BaselineKind::MensaGreedy, &p, &w);
        // GPU is faster everywhere on Orin, so pure greedy stays on GPU.
        assert!(a[0].iter().all(|&pu| pu == p.gpu()));
    }

    #[test]
    fn herald_balances_load_across_pus() {
        let (p, w) = setup(&[Model::ResNet101, Model::ResNet101]);
        let a = Baseline::assignment(BaselineKind::HeraldLike, &p, &w);
        let dsa_groups: usize = a.iter().flatten().filter(|&&pu| pu == p.dsa()).count();
        assert!(dsa_groups > 0, "Herald must use the DSA");
        let gpu_groups: usize = a.iter().flatten().filter(|&&pu| pu == p.gpu()).count();
        assert!(gpu_groups > 0);
    }

    #[test]
    fn h2h_transitions_fewer_than_herald() {
        let (p, w) = setup(&[Model::ResNet152, Model::InceptionV4]);
        let count_tr = |a: &Vec<Vec<PuId>>| {
            a.iter()
                .map(|row| row.windows(2).filter(|w| w[0] != w[1]).count())
                .sum::<usize>()
        };
        let herald = Baseline::assignment(BaselineKind::HeraldLike, &p, &w);
        let h2h = Baseline::assignment(BaselineKind::H2hLike, &p, &w);
        assert!(count_tr(&h2h) <= count_tr(&herald));
    }

    #[test]
    fn all_baselines_measurable() {
        let (p, w) = setup(&[Model::GoogleNet, Model::ResNet101]);
        for &kind in BaselineKind::all() {
            let a = Baseline::assignment(kind, &p, &w);
            let m = execute(&p, &w, &a);
            assert!(m.makespan_ms > 0.0, "{kind}");
            assert!(m.fps() > 0.0, "{kind}");
        }
    }
}
