//! Per-group performance, transition, and memory-throughput profiles.

use crate::blackbox::BlackBoxEstimator;
use crate::grouping::{max_groups, GroupedNetwork};
use haxconn_dnn::Model;
use haxconn_soc::{LayerCost, Platform, PlatformId, PuId, PuKind};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Characterization of one layer group on one platform.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupProfile {
    /// Standalone cost per PU; `None` when the group contains a layer the
    /// PU does not support (e.g. LRN on the DLA).
    pub cost: Vec<Option<LayerCost>>,
    /// Time to flush this group's boundary tensor out of PU `p`'s caches to
    /// shared memory when a transition follows the group (`tau(.., OUT)`).
    pub tr_out_ms: Vec<f64>,
    /// Time for PU `p` to ingest/reformat the boundary tensor when a
    /// transition lands on it before this group (`tau(.., IN)`).
    pub tr_in_ms: Vec<f64>,
    /// Standalone EMC utilization in percent, per PU (Table 2, last
    /// column). GPU values are measured; DSA values come from the
    /// black-box estimator.
    pub emc_util_pct: Vec<f64>,
}

impl GroupProfile {
    /// PUs able to run this group.
    pub fn supported_pus(&self) -> Vec<PuId> {
        self.cost
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|_| i))
            .collect()
    }
}

/// The full offline profile of one network on one platform — everything the
/// scheduler needs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetworkProfile {
    /// The grouped network.
    pub grouped: GroupedNetwork,
    /// Per-group characterization, indexed like `grouped.groups`.
    pub groups: Vec<GroupProfile>,
    /// Name of the platform this was profiled on.
    pub platform_name: String,
}

impl NetworkProfile {
    /// Profiles `model` on `platform` with at most `max_groups` groups.
    ///
    /// This is the paper's offline step: standalone layer-centric timing
    /// (Sec. 3.2), transition characterization (Sec. 3.2), and decoupled
    /// memory-throughput measurement with black-box estimation for DSAs
    /// (Sec. 3.3).
    pub fn profile(platform: &Platform, model: Model, max_groups: usize) -> Self {
        let grouped = GroupedNetwork::new(model, max_groups);
        let estimator = BlackBoxEstimator::new(platform);
        let n_pus = platform.pus.len();

        let groups = grouped
            .groups
            .iter()
            .map(|grp| {
                let layers = &grouped.network.layers[grp.start..=grp.end];
                let mut cost: Vec<Option<LayerCost>> = Vec::with_capacity(n_pus);
                for pu in platform.pus.iter() {
                    if pu.kind == PuKind::Cpu || layers.iter().any(|l| !pu.supports(l)) {
                        cost.push(None);
                        continue;
                    }
                    let per_layer: Vec<LayerCost> =
                        layers.iter().map(|l| LayerCost::of(l, pu)).collect();
                    cost.push(Some(LayerCost::aggregate(&per_layer)));
                }

                // Transition costs at this group's outgoing boundary.
                let bytes = grp.boundary_bytes as f64;
                let tr_out_ms: Vec<f64> = platform
                    .pus
                    .iter()
                    .map(|pu| bytes / (pu.reformat_gbps * 1e6))
                    .collect();
                // Input reformat is cheaper: the tensor is already in shared
                // memory; the PU only re-tiles it into its native layout.
                let tr_in_ms: Vec<f64> = platform
                    .pus
                    .iter()
                    .map(|pu| 0.5 * bytes / (pu.reformat_gbps * 1e6))
                    .collect();

                // EMC utilization: measured on the GPU, estimated through
                // the EMC-counter ratio method for black-box DSAs.
                let emc_util_pct: Vec<f64> = (0..n_pus)
                    .map(|pu_id| match &cost[pu_id] {
                        None => 0.0,
                        Some(c) => {
                            if platform.pus[pu_id].kind == PuKind::Gpu {
                                100.0 * c.demand_gbps / platform.emc.bandwidth_gbps
                            } else {
                                let gpu_cost = cost[platform.gpu()].as_ref();
                                estimator.estimate_util_pct(pu_id, c, gpu_cost)
                            }
                        }
                    })
                    .collect();

                GroupProfile {
                    cost,
                    tr_out_ms,
                    tr_in_ms,
                    emc_util_pct,
                }
            })
            .collect();

        NetworkProfile {
            grouped,
            groups,
            platform_name: platform.name.clone(),
        }
    }

    /// The profile of `model` on the built-in platform `id` with at most
    /// `groups` groups, profiled at most once per process.
    ///
    /// The memo is keyed on the *effective* group count,
    /// `groups.min(max_groups(model))`: [`partition`] gives identical
    /// groups above it, so the key space is finite whatever `groups` a
    /// caller sends, and no eviction is needed. Each miss counts on
    /// `profiler.profiles`.
    ///
    /// [`partition`]: crate::grouping::partition
    pub fn of(id: PlatformId, model: Model, groups: usize) -> Arc<NetworkProfile> {
        type Memo = Mutex<HashMap<(PlatformId, Model, usize), Arc<NetworkProfile>>>;
        static MEMO: OnceLock<Memo> = OnceLock::new();
        let memo = MEMO.get_or_init(Memo::default);
        let key = (id, model, groups.min(max_groups(model)));
        let lock = || memo.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(profile) = lock().get(&key) {
            return Arc::clone(profile);
        }
        // Profile outside the lock; racing builders produce identical
        // profiles and the first insert wins.
        haxconn_telemetry::counter_add("profiler.profiles", 1);
        let profile = Arc::new(NetworkProfile::profile(&id.platform(), model, key.2));
        Arc::clone(lock().entry(key).or_insert(profile))
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether the profile has no groups (never for valid networks).
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Standalone serial runtime of the whole network on `pu`
    /// (the Table 5 quantity). `None` if some group cannot run there.
    pub fn standalone_ms(&self, pu: PuId) -> Option<f64> {
        self.groups
            .iter()
            .map(|g| g.cost[pu].as_ref().map(|c| c.time_ms))
            .sum()
    }

    /// Standalone runtime treating unsupported groups as GPU-fallback
    /// (what TensorRT's DLA mode actually does): unsupported groups run on
    /// the GPU.
    pub fn standalone_with_fallback_ms(&self, pu: PuId, gpu: PuId) -> f64 {
        self.groups
            .iter()
            .map(|g| {
                g.cost[pu]
                    .or(g.cost[gpu])
                    .map(|c| c.time_ms)
                    .expect("GPU supports everything")
            })
            .sum()
    }

    /// Total transition cost of switching from `from_pu` (after `group`) to
    /// `to_pu` (before `group + 1`): flush out of the old PU plus reformat
    /// into the new one (paper Eq. 2's `tau(.., OUT) + tau(.., IN)`).
    pub fn transition_ms(&self, group: usize, from_pu: PuId, to_pu: PuId) -> f64 {
        if from_pu == to_pu {
            return 0.0;
        }
        self.groups[group].tr_out_ms[from_pu] + self.groups[group].tr_in_ms[to_pu]
    }

    /// The D/G execution-time ratio per group (fourth column of Table 2).
    pub fn dsa_gpu_ratio(&self, gpu: PuId, dsa: PuId) -> Vec<Option<f64>> {
        self.groups
            .iter()
            .map(|g| match (&g.cost[dsa], &g.cost[gpu]) {
                (Some(d), Some(gg)) => Some(d.time_ms / gg.time_ms),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haxconn_soc::{orin_agx, xavier_agx};

    #[test]
    fn googlenet_profile_matches_table2_shape() {
        let p = xavier_agx();
        let prof = NetworkProfile::profile(&p, Model::GoogleNet, 10);
        assert_eq!(prof.len(), 10);
        let ratios: Vec<f64> = prof
            .dsa_gpu_ratio(p.gpu(), p.dsa())
            .into_iter()
            .flatten()
            .collect();
        // Table 2: DLA slower on every group, ratio roughly 1.4..2.1.
        for r in &ratios {
            assert!(*r > 1.0, "DLA must be slower: ratio {r}");
            assert!(*r < 4.0, "ratio {r} unreasonably high");
        }
        // Ratios vary across groups (that's what creates transition
        // opportunities).
        let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ratios.iter().cloned().fold(0.0f64, f64::max);
        assert!(max / min > 1.15, "ratios too uniform: {min}..{max}");
    }

    #[test]
    fn transition_cost_shrinks_toward_network_end() {
        // Output tensors shrink with depth, so do transitions (Table 2).
        let p = orin_agx();
        let prof = NetworkProfile::profile(&p, Model::GoogleNet, 10);
        let first = prof.transition_ms(0, p.gpu(), p.dsa());
        let last = prof.transition_ms(prof.len() - 2, p.gpu(), p.dsa());
        assert!(
            last < first,
            "late transitions should be cheaper: {last} vs {first}"
        );
    }

    #[test]
    fn transition_asymmetry_d_to_g_costlier() {
        // Table 2: D->G transitions cost more than G->D.
        let p = orin_agx();
        let prof = NetworkProfile::profile(&p, Model::GoogleNet, 10);
        for g in 0..prof.len() - 1 {
            let g2d = prof.transition_ms(g, p.gpu(), p.dsa());
            let d2g = prof.transition_ms(g, p.dsa(), p.gpu());
            assert!(d2g > g2d, "group {g}: D->G {d2g} <= G->D {g2d}");
        }
    }

    #[test]
    fn same_pu_transition_is_free() {
        let p = orin_agx();
        let prof = NetworkProfile::profile(&p, Model::ResNet18, 8);
        assert_eq!(prof.transition_ms(0, p.gpu(), p.gpu()), 0.0);
    }

    #[test]
    fn lrn_groups_are_gpu_pinned() {
        // GoogleNet's stem contains LRN layers; the DLA cannot run them.
        let p = orin_agx();
        let prof = NetworkProfile::profile(&p, Model::GoogleNet, 10);
        let pinned = prof
            .groups
            .iter()
            .filter(|g| g.cost[p.dsa()].is_none())
            .count();
        assert!(pinned >= 1, "stem group must be GPU-pinned");
        // But most groups remain schedulable on both PUs.
        assert!(prof.len() - pinned >= 6);
    }

    #[test]
    fn standalone_sums_group_costs() {
        let p = xavier_agx();
        let prof = NetworkProfile::profile(&p, Model::ResNet50, 10);
        let direct: f64 = prof
            .groups
            .iter()
            .map(|g| g.cost[p.gpu()].unwrap().time_ms)
            .sum();
        assert!((prof.standalone_ms(p.gpu()).unwrap() - direct).abs() < 1e-9);
        // Fallback equals plain standalone when everything is supported.
        let fb = prof.standalone_with_fallback_ms(p.dsa(), p.gpu());
        assert!(fb > 0.0);
    }

    #[test]
    fn vgg19_dla_much_slower_fc_dominated_groups() {
        let p = xavier_agx();
        let prof = NetworkProfile::profile(&p, Model::Vgg19, 10);
        let ratio: Vec<Option<f64>> = prof.dsa_gpu_ratio(p.gpu(), p.dsa());
        let worst = ratio.iter().flatten().cloned().fold(0.0f64, f64::max);
        assert!(worst > 2.0, "VGG19 should have DLA-hostile groups: {worst}");
    }

    #[test]
    fn emc_util_reported_for_both_pus() {
        let p = orin_agx();
        let prof = NetworkProfile::profile(&p, Model::GoogleNet, 10);
        for (i, g) in prof.groups.iter().enumerate() {
            let gpu_util = g.emc_util_pct[p.gpu()];
            assert!(gpu_util > 0.0 && gpu_util <= 100.0, "group {i}: {gpu_util}");
            if g.cost[p.dsa()].is_some() {
                let dsa_util = g.emc_util_pct[p.dsa()];
                assert!(dsa_util > 0.0 && dsa_util <= 100.0);
            }
        }
    }

    /// The only test in this binary that touches the memo, so its key is
    /// untouched when the threads race for it.
    #[test]
    fn racing_first_touches_share_one_profile() {
        let (id, model, groups) = (PlatformId::XavierAgx, Model::InceptionV4, 7);
        let start = std::sync::Barrier::new(8);
        let profiles: Vec<Arc<NetworkProfile>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        NetworkProfile::of(id, model, groups)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let fresh = NetworkProfile::profile(&id.platform(), model, groups);
        let fresh_json = serde_json::to_string(&fresh).unwrap();
        for p in &profiles {
            assert!(Arc::ptr_eq(p, &profiles[0]), "the first insert must win");
            assert_eq!(serde_json::to_string(&**p).unwrap(), fresh_json);
        }
    }

    #[test]
    fn serde_roundtrip() {
        let p = orin_agx();
        let prof = NetworkProfile::profile(&p, Model::ResNet18, 6);
        let json = serde_json::to_string(&prof).unwrap();
        let back: NetworkProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), prof.len());
        // JSON float round-trip is only accurate to ~1 ulp per sum term.
        let a = back.standalone_ms(p.gpu()).unwrap();
        let b = prof.standalone_ms(p.gpu()).unwrap();
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }
}
