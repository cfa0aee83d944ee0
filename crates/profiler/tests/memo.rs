//! The process-wide profile memo (`NetworkProfile::of`) must hand out
//! exactly what a fresh `NetworkProfile::profile` computes, for every
//! key it can hold, and must collapse oversized group counts onto one
//! entry.

use haxconn_dnn::Model;
use haxconn_profiler::grouping::max_groups;
use haxconn_profiler::NetworkProfile;
use haxconn_soc::PlatformId;
use std::sync::Arc;

/// Every float of a profile as raw bits (`None` costs as a marker), in a
/// fixed field order.
fn float_bits(p: &NetworkProfile) -> Vec<u64> {
    let mut bits = Vec::new();
    for g in &p.groups {
        for cost in &g.cost {
            match cost {
                None => bits.push(u64::MAX),
                Some(c) => bits.extend(
                    [
                        c.time_ms,
                        c.compute_ms,
                        c.mem_ms,
                        c.bytes,
                        c.demand_gbps,
                        c.mem_bound_ms,
                        c.hidden_compute_ms,
                        c.hidden_mem_ms,
                    ]
                    .map(f64::to_bits),
                ),
            }
        }
        let per_pu = g.tr_out_ms.iter().chain(&g.tr_in_ms).chain(&g.emc_util_pct);
        bits.extend(per_pu.map(|x| x.to_bits()));
    }
    bits
}

fn assert_bit_identical(memo: &NetworkProfile, fresh: &NetworkProfile, key: &str) {
    assert_eq!(memo.platform_name, fresh.platform_name, "{key}");
    assert_eq!(memo.grouped.model, fresh.grouped.model, "{key}");
    assert!(
        Arc::ptr_eq(&memo.grouped.network, &fresh.grouped.network),
        "{key}: both must share the model's one graph"
    );
    assert_eq!(memo.grouped.groups, fresh.grouped.groups, "{key}");
    assert_eq!(memo.groups.len(), fresh.groups.len(), "{key}");
    assert_eq!(float_bits(memo), float_bits(fresh), "{key}");
}

#[test]
fn memo_matches_fresh_profiles_bit_for_bit() {
    for &id in PlatformId::all() {
        let platform = id.platform();
        for &model in Model::all() {
            let max = max_groups(model);
            for groups in (1..=max).chain([max + 1_000]) {
                let key = format!("{} {model} g{groups}", id.slug());
                let memo = NetworkProfile::of(id, model, groups);
                let fresh = NetworkProfile::profile(&platform, model, groups);
                assert_bit_identical(&memo, &fresh, &key);
            }
        }
    }
}

#[test]
fn oversized_group_counts_share_one_entry() {
    for &id in PlatformId::all() {
        for &model in Model::all() {
            let max = max_groups(model);
            let at_max = NetworkProfile::of(id, model, max);
            for oversized in [max + 1, 4 * max, usize::MAX] {
                assert!(
                    Arc::ptr_eq(&NetworkProfile::of(id, model, oversized), &at_max),
                    "{} {model}: groups {oversized} and {max} must share an entry",
                    id.slug()
                );
            }
        }
    }
}
