//! Layer grouping: from a network DAG to atomic assignment units.
//!
//! Paper Section 3.1 lists three grouping rules; their realization here:
//!
//! 1. *Preserve layer optimizations*: a cut never lands immediately before a
//!    layer that TensorRT would fuse into its predecessor (BN, activation,
//!    residual add).
//! 2. *Avoid reformatting*: among candidate cuts the selector prefers
//!    boundaries with the smallest live tensor (these are typically pooling
//!    outputs — compare Table 2, where groups ending in pooling layers have
//!    the cheapest transitions).
//! 3. *Respect DSA limitations*: validity of running a whole group on a
//!    given PU is checked later (a group containing an LRN can never map to
//!    the DLA), but grouping itself additionally refuses to cut inside
//!    branchy regions — a transition there would have to move several live
//!    tensors and stall the DSA pipeline, which frameworks do not support.

use haxconn_dnn::{Model, Network};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// A contiguous run of layers `[start, end]` (inclusive) forming one atomic
/// assignment unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerGroup {
    /// First layer id in the group.
    pub start: usize,
    /// Last layer id in the group (inclusive).
    pub end: usize,
    /// Bytes of the live tensor crossing the boundary *after* this group
    /// (what a transition must flush to shared memory).
    pub boundary_bytes: u64,
}

impl LayerGroup {
    /// Number of layers in the group.
    pub fn len(&self) -> usize {
        self.end - self.start + 1
    }

    /// Always false (groups are non-empty by construction).
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// A network partitioned into layer groups.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupedNetwork {
    /// The model this grouping belongs to.
    pub model: Model,
    /// The underlying graph, shared with every other grouping of the
    /// same model (see [`Model::network`]).
    pub network: Arc<Network>,
    /// Consecutive, exhaustive groups.
    pub groups: Vec<LayerGroup>,
}

impl GroupedNetwork {
    /// Partitions `model`'s network into at most `max_groups` groups.
    pub fn new(model: Model, max_groups: usize) -> Self {
        let network = model.network();
        let groups = partition(&network, max_groups);
        GroupedNetwork {
            model,
            network,
            groups,
        }
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Total FLOPs of group `idx`.
    pub fn group_flops(&self, idx: usize) -> u64 {
        let g = &self.groups[idx];
        (g.start..=g.end)
            .map(|i| self.network.layers[i].flops())
            .sum()
    }

    /// Whether there are no groups (never true for a valid network).
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

/// Returns the ids of layers after which a cut is *valid*: exactly one
/// tensor is live across the boundary and the next layer is not fusible into
/// its predecessor.
pub fn valid_cuts(network: &Network) -> Vec<usize> {
    let n = network.len();
    let consumers = network.consumers();
    // last_consumer[p]: the largest layer id reading p's output (p itself if
    // unconsumed, i.e. the network output).
    let last_consumer: Vec<usize> = (0..n)
        .map(|p| consumers[p].iter().copied().max().unwrap_or(p))
        .collect();
    let mut cuts = Vec::new();
    let mut max_lc = 0usize;
    #[allow(clippy::needless_range_loop)] // index is the cut id being emitted
    for i in 0..n.saturating_sub(1) {
        // All tensors produced strictly before i must be dead by i.
        let prior_live = max_lc > i;
        max_lc = max_lc.max(last_consumer[i]);
        if prior_live {
            continue;
        }
        if network.layers[i + 1].fusible_into_predecessor() {
            continue;
        }
        cuts.push(i);
    }
    cuts
}

/// The most groups [`partition`] can give `model`: one per valid cut,
/// plus one. Any larger `max_groups` partitions identically. Computed
/// once per model per process.
pub fn max_groups(model: Model) -> usize {
    static MAX: [OnceLock<usize>; Model::all().len()] =
        [const { OnceLock::new() }; Model::all().len()];
    *MAX[model as usize].get_or_init(|| valid_cuts(&model.network()).len() + 1)
}

/// Partitions the network into at most `max_groups` groups at valid cuts,
/// aiming for balanced FLOP mass per group while preferring small-tensor
/// boundaries.
pub fn partition(network: &Network, max_groups: usize) -> Vec<LayerGroup> {
    assert!(max_groups >= 1, "need at least one group");
    let cuts = valid_cuts(network);
    let n = network.len();
    // Cumulative cost proxy (FLOPs + a byte term so memory-bound layers
    // carry weight too).
    let weight = |i: usize| {
        let l = &network.layers[i];
        l.flops() as f64 + 4.0 * l.total_bytes() as f64
    };
    let total: f64 = (0..n).map(weight).sum();
    let mut cum = Vec::with_capacity(n);
    let mut acc = 0.0;
    for i in 0..n {
        acc += weight(i);
        cum.push(acc);
    }

    let k = max_groups.min(cuts.len() + 1);
    let mut chosen: Vec<usize> = Vec::new();
    for g in 1..k {
        let target = total * g as f64 / k as f64;
        // Candidate cuts within a +-half-group window of the target.
        let window = total / (2.0 * k as f64);
        let lo = target - window;
        let hi = target + window;
        let mut best: Option<usize> = None;
        for &c in &cuts {
            if chosen.last().is_some_and(|&prev| c <= prev) {
                continue;
            }
            let pos = cum[c];
            if pos < lo {
                continue;
            }
            if pos > hi {
                break;
            }
            // Prefer the smallest boundary tensor within the window.
            let better = match best {
                None => true,
                Some(b) => network.layers[c].output_bytes() < network.layers[b].output_bytes(),
            };
            if better {
                best = Some(c);
            }
        }
        // Fallback: nearest valid cut to the target.
        let cut = best.or_else(|| {
            cuts.iter()
                .copied()
                .filter(|&c| chosen.last().is_none_or(|&prev| c > prev))
                .min_by(|&a, &b| {
                    let da = (cum[a] - target).abs();
                    let db = (cum[b] - target).abs();
                    da.partial_cmp(&db).expect("no NaN")
                })
        });
        if let Some(c) = cut {
            if chosen.last() != Some(&c) {
                chosen.push(c);
            }
        }
    }
    chosen.sort_unstable();
    chosen.dedup();

    let mut groups = Vec::with_capacity(chosen.len() + 1);
    let mut start = 0usize;
    for &c in &chosen {
        groups.push(LayerGroup {
            start,
            end: c,
            boundary_bytes: network.layers[c].output_bytes(),
        });
        start = c + 1;
    }
    groups.push(LayerGroup {
        start,
        end: n - 1,
        boundary_bytes: network.layers[n - 1].output_bytes(),
    });
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use haxconn_dnn::Model;

    #[test]
    fn groups_are_exhaustive_and_contiguous() {
        for &m in Model::all() {
            let g = GroupedNetwork::new(m, 10);
            assert_eq!(g.groups[0].start, 0, "{m}");
            assert_eq!(g.groups.last().unwrap().end, g.network.len() - 1, "{m}");
            for w in g.groups.windows(2) {
                assert_eq!(w[1].start, w[0].end + 1, "{m}");
            }
            assert!(g.len() <= 10, "{m}: {} groups", g.len());
            assert!(g.len() >= 2, "{m}: expected at least 2 groups");
        }
    }

    #[test]
    fn cuts_never_split_fused_chains() {
        for &m in [Model::ResNet50, Model::GoogleNet, Model::Vgg19].iter() {
            let net = m.network();
            for c in valid_cuts(&net) {
                assert!(
                    !net.layers[c + 1].fusible_into_predecessor(),
                    "{m}: cut after {c} lands before fusible layer {}",
                    net.layers[c + 1].name
                );
            }
        }
    }

    #[test]
    fn cuts_never_cross_live_branches() {
        // At a valid cut, exactly one tensor is live: every producer before
        // the cut has all consumers at or before it.
        for &m in [
            Model::GoogleNet,
            Model::InceptionResNetV2,
            Model::DenseNet121,
        ]
        .iter()
        {
            let net = m.network();
            let consumers = net.consumers();
            for c in valid_cuts(&net) {
                #[allow(clippy::needless_range_loop)]
                for p in 0..c {
                    for &q in &consumers[p] {
                        assert!(q <= c, "{m}: cut after {c} crosses live edge {p}->{q}");
                    }
                }
            }
        }
    }

    #[test]
    fn googlenet_cuts_fall_at_module_boundaries() {
        // Inside an inception module several branches are live, so valid
        // cuts must coincide with module outputs / pools / stem layers.
        let net = Model::GoogleNet.network();
        let cuts = valid_cuts(&net);
        assert!(cuts.len() >= 10, "GoogleNet should offer many cut points");
        for &c in &cuts {
            let name = &net.layers[c].name;
            assert!(
                name.contains("output")
                    || name.contains("pool")
                    || name.contains("norm")
                    || name.contains("conv1")
                    || name.contains("conv2")
                    || name.contains("relu")
                    || name.contains("classifier")
                    || name.contains("prob"),
                "unexpected cut at {name}"
            );
        }
    }

    #[test]
    fn vgg_has_many_cuts_linear_chain() {
        // A linear chain offers a cut after every non-fusible layer.
        let net = Model::Vgg19.network();
        let cuts = valid_cuts(&net);
        assert!(cuts.len() > 20, "VGG19 cuts: {}", cuts.len());
    }

    #[test]
    fn partition_respects_max_groups() {
        let net = Model::Vgg19.network();
        for k in [1, 2, 4, 8, 16] {
            let groups = partition(&net, k);
            assert!(groups.len() <= k);
        }
        assert_eq!(partition(&net, 1).len(), 1);
    }

    #[test]
    fn groups_are_roughly_balanced() {
        let g = GroupedNetwork::new(Model::ResNet101, 10);
        let flops: Vec<u64> = g
            .groups
            .iter()
            .map(|grp| {
                (grp.start..=grp.end)
                    .map(|i| g.network.layers[i].flops())
                    .sum()
            })
            .collect();
        let max = *flops.iter().max().unwrap() as f64;
        let total: u64 = flops.iter().sum();
        assert!(
            max / total as f64 <= 0.45,
            "one group holds {}% of the FLOPs",
            (100.0 * max / total as f64) as u32
        );
    }

    #[test]
    fn boundary_bytes_match_cut_layer_output() {
        let g = GroupedNetwork::new(Model::GoogleNet, 10);
        for grp in &g.groups {
            assert_eq!(grp.boundary_bytes, g.network.layers[grp.end].output_bytes());
            assert!(!grp.is_empty());
        }
    }
}
