//! Platform models for the three SoCs evaluated in the paper (Table 4).
//!
//! Parameter values follow public spec sheets (peak FP16 throughput, LPDDR
//! bandwidth) with efficiency constants chosen so that standalone runtimes
//! reproduce the *shape* of Table 5: GPU always faster than the DSA, with a
//! DSA/GPU ratio between ~1.4x (GoogleNet-class layers) and ~3.2x
//! (VGG19-class layers on Xavier); absolute times land in the same order of
//! magnitude as the paper's measurements.

use crate::emc::EmcSpec;
use crate::pu::{PuId, PuKind, PuSpec};
use serde::{Deserialize, Serialize};

/// Identifier of a built-in platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlatformId {
    /// NVIDIA Jetson AGX Orin (Ampere GPU + NVDLA v2, LPDDR5 204.8 GB/s).
    OrinAgx,
    /// NVIDIA Jetson Xavier AGX (Volta GPU + NVDLA v1, LPDDR4 136.5 GB/s).
    XavierAgx,
    /// Qualcomm Snapdragon 865 dev kit (Adreno 650 + Hexagon 698,
    /// LPDDR5 34.1 GB/s).
    Snapdragon865,
}

impl PlatformId {
    /// All built-in platforms.
    pub fn all() -> &'static [PlatformId] {
        &[
            PlatformId::OrinAgx,
            PlatformId::XavierAgx,
            PlatformId::Snapdragon865,
        ]
    }

    /// Builds the platform model.
    pub fn platform(&self) -> Platform {
        match self {
            PlatformId::OrinAgx => orin_agx(),
            PlatformId::XavierAgx => xavier_agx(),
            PlatformId::Snapdragon865 => snapdragon_865(),
        }
    }

    /// The canonical lowercase name of this platform — the spelling every
    /// alias parses back to, used as the normalized form in workload cache
    /// keys and serialized specs.
    pub fn slug(&self) -> &'static str {
        match self {
            PlatformId::OrinAgx => "orin-agx",
            PlatformId::XavierAgx => "xavier-agx",
            PlatformId::Snapdragon865 => "sd865",
        }
    }
}

/// A platform id lowers to its [`PlatformId::slug`], so anything that
/// takes a platform name (`impl Into<String>`) also takes an id.
impl From<PlatformId> for String {
    fn from(id: PlatformId) -> String {
        id.slug().to_string()
    }
}

/// A shared-memory SoC: a set of PUs behind one EMC.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Platform {
    /// Display name.
    pub name: String,
    /// Processing units; index is the [`PuId`].
    pub pus: Vec<PuSpec>,
    /// The shared external memory controller.
    pub emc: EmcSpec,
}

impl Platform {
    /// The PU of the given kind, if present.
    pub fn pu_of_kind(&self, kind: PuKind) -> Option<PuId> {
        self.pus.iter().position(|p| p.kind == kind)
    }

    /// The GPU's id (all modeled platforms have one).
    pub fn gpu(&self) -> PuId {
        self.pu_of_kind(PuKind::Gpu).expect("platform has a GPU")
    }

    /// The domain-specific accelerator's id (DLA on NVIDIA, DSP on
    /// Qualcomm).
    pub fn dsa(&self) -> PuId {
        self.pu_of_kind(PuKind::Dla)
            .or_else(|| self.pu_of_kind(PuKind::Dsp))
            .expect("platform has a DSA")
    }

    /// Ids of the PUs usable for DNN layers (GPU + DSA).
    pub fn dnn_pus(&self) -> Vec<PuId> {
        self.pus
            .iter()
            .enumerate()
            .filter(|(_, p)| p.kind != PuKind::Cpu)
            .map(|(i, _)| i)
            .collect()
    }

    /// Spec of PU `id`.
    pub fn pu(&self, id: PuId) -> &PuSpec {
        &self.pus[id]
    }

    /// Returns a copy of this platform with a host CPU complex appended as
    /// an extra PU. The CPU does not run DNN layers; it models background
    /// agents that share the EMC — most importantly the Z3-style solver of
    /// D-HaX-CoNN, whose interference Table 7 of the paper quantifies.
    pub fn with_cpu(&self) -> Platform {
        let mut p = self.clone();
        p.pus.push(PuSpec {
            kind: PuKind::Cpu,
            name: "host CPU".into(),
            peak_gflops: 250.0,
            // A solver process is cache-resident; its shared-memory
            // footprint is a trickle compared to DNN tensor traffic.
            max_bw_gbps: (self.emc.bandwidth_gbps * 0.04).max(1.0),
            onchip_kib: 2_048.0,
            launch_us: 1.0,
            reformat_gbps: 10.0,
        });
        p
    }
}

/// NVIDIA Jetson AGX Orin: Ampere iGPU (1792 CUDA + 64 tensor cores) and
/// NVDLA v2.0 behind 204.8 GB/s LPDDR5.
pub fn orin_agx() -> Platform {
    Platform {
        name: "NVIDIA AGX Orin".into(),
        pus: vec![
            PuSpec {
                kind: PuKind::Gpu,
                name: "Ampere iGPU".into(),
                peak_gflops: 20_000.0,
                max_bw_gbps: 150.0,
                onchip_kib: 4_096.0,
                launch_us: 3.0,
                reformat_gbps: 55.0,
            },
            PuSpec {
                kind: PuKind::Dla,
                name: "NVDLA v2.0".into(),
                peak_gflops: 12_500.0,
                max_bw_gbps: 100.0,
                onchip_kib: 640.0,
                launch_us: 6.0,
                reformat_gbps: 30.0,
            },
        ],
        emc: EmcSpec {
            bandwidth_gbps: 204.8,
            arbitration_efficiency: 0.86,
            interference: 0.25,
        },
    }
}

/// NVIDIA Jetson Xavier AGX: Volta iGPU (512 CUDA + 64 tensor cores) and
/// NVDLA v1.0 behind 136.5 GB/s LPDDR4x.
pub fn xavier_agx() -> Platform {
    Platform {
        name: "NVIDIA Xavier AGX".into(),
        pus: vec![
            PuSpec {
                kind: PuKind::Gpu,
                name: "Volta iGPU".into(),
                peak_gflops: 8_000.0,
                max_bw_gbps: 95.0,
                onchip_kib: 2_048.0,
                launch_us: 5.0,
                reformat_gbps: 35.0,
            },
            PuSpec {
                kind: PuKind::Dla,
                name: "NVDLA v1.0".into(),
                peak_gflops: 4_200.0,
                max_bw_gbps: 62.0,
                onchip_kib: 256.0,
                launch_us: 10.0,
                reformat_gbps: 18.0,
            },
        ],
        emc: EmcSpec {
            bandwidth_gbps: 136.5,
            arbitration_efficiency: 0.75,
            interference: 0.55,
        },
    }
}

/// Qualcomm Snapdragon 865 development kit: Adreno 650 GPU and Hexagon 698
/// DSP behind a narrow 34.1 GB/s LPDDR5 interface — the most
/// bandwidth-starved platform, which is why its absolute latencies in
/// Table 6 are an order of magnitude above the NVIDIA boards'.
pub fn snapdragon_865() -> Platform {
    Platform {
        name: "Qualcomm Snapdragon 865".into(),
        pus: vec![
            PuSpec {
                kind: PuKind::Gpu,
                name: "Adreno 650".into(),
                peak_gflops: 2_200.0,
                max_bw_gbps: 24.0,
                onchip_kib: 1_024.0,
                launch_us: 18.0,
                reformat_gbps: 9.0,
            },
            PuSpec {
                kind: PuKind::Dsp,
                name: "Hexagon 698".into(),
                peak_gflops: 1_500.0,
                max_bw_gbps: 16.0,
                onchip_kib: 384.0,
                launch_us: 25.0,
                reformat_gbps: 6.0,
            },
        ],
        emc: EmcSpec {
            bandwidth_gbps: 34.1,
            arbitration_efficiency: 0.78,
            interference: 0.40,
        },
    }
}

/// A forward-looking three-accelerator SoC: the Orin model extended with a
/// vision-DSP tensor engine behind the same EMC.
///
/// The paper limits its evaluation to two DSAs because "there are no
/// off-the-shelf SoCs that offer more than two types of programmable DSAs
/// for DNN acceleration" — the *methodology* is not limited, and this
/// platform lets the scheduler be exercised (and tested) on the three-way
/// mapping problem the paper anticipates.
pub fn orin_agx_triple() -> Platform {
    let mut p = orin_agx();
    p.name = "NVIDIA AGX Orin + vision DSP".into();
    p.pus.push(PuSpec {
        kind: PuKind::Dsp,
        name: "vision DSP".into(),
        peak_gflops: 4_000.0,
        max_bw_gbps: 45.0,
        onchip_kib: 512.0,
        launch_us: 10.0,
        reformat_gbps: 14.0,
    });
    p
}

/// The AGX Orin modeled with *both* of its physical NVDLA v2.0 engines
/// exposed (the paper's Orin model uses one): GPU + 2×DLA behind the same
/// EMC — the N-PU mapping problem with three DNN-capable PUs. The DLAs
/// share one spec (identical silicon) and differ only in name.
pub fn orin_agx_dual_dla() -> Platform {
    let mut p = orin_agx();
    p.name = "NVIDIA AGX Orin (GPU + 2\u{d7}DLA)".into();
    let mut dla2 = p.pus[1].clone();
    dla2.name = "NVDLA v2.0 #1".into();
    p.pus[1].name = "NVDLA v2.0 #0".into();
    p.pus.push(dla2);
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::LayerCost;
    use haxconn_dnn::Model;

    /// Serial standalone runtime of a whole network on one PU (no grouping,
    /// no contention) — the quantity behind Table 5.
    fn standalone_ms(platform: &Platform, pu: PuId, model: Model) -> f64 {
        let net = model.network();
        let spec = platform.pu(pu);
        net.layers
            .iter()
            .filter(|l| spec.supports(l))
            .map(|l| LayerCost::of(l, spec).time_ms)
            .sum()
    }

    #[test]
    fn accessors() {
        for id in PlatformId::all() {
            let p = id.platform();
            assert_eq!(p.gpu(), 0);
            assert_eq!(p.dsa(), 1);
            assert_eq!(p.dnn_pus(), vec![0, 1]);
        }
        assert_eq!(orin_agx().pu_of_kind(PuKind::Cpu), None);
    }

    #[test]
    fn gpu_beats_dsa_on_every_network() {
        for id in PlatformId::all() {
            let p = id.platform();
            for &m in Model::all() {
                let g = standalone_ms(&p, p.gpu(), m);
                let d = standalone_ms(&p, p.dsa(), m);
                assert!(
                    d > g,
                    "{}: {m} GPU {g:.2}ms should beat DSA {d:.2}ms",
                    p.name
                );
            }
        }
    }

    #[test]
    fn dsa_gpu_ratio_in_paper_range() {
        // Table 5: Orin ratios 1.4-2.7, Xavier 1.2-3.2.
        for id in [PlatformId::OrinAgx, PlatformId::XavierAgx] {
            let p = id.platform();
            for &m in [Model::GoogleNet, Model::ResNet101, Model::Vgg19].iter() {
                let g = standalone_ms(&p, p.gpu(), m);
                let d = standalone_ms(&p, p.dsa(), m);
                let r = d / g;
                assert!(
                    (1.2..4.2).contains(&r),
                    "{} {m}: ratio {r:.2} out of range (G {g:.2} D {d:.2})",
                    p.name
                );
            }
        }
    }

    #[test]
    fn vgg19_has_the_worst_dla_ratio() {
        // Table 5 shows VGG19's DLA/GPU ratio (3.2 on Xavier) far above
        // GoogleNet's (1.86): its big mid-network convs spill the DLA
        // buffer.
        let p = xavier_agx();
        let ratio = |m: Model| standalone_ms(&p, p.dsa(), m) / standalone_ms(&p, p.gpu(), m);
        assert!(ratio(Model::Vgg19) > ratio(Model::GoogleNet));
    }

    #[test]
    fn orin_is_faster_than_xavier_is_faster_than_sd865() {
        let orin = orin_agx();
        let xavier = xavier_agx();
        let sd = snapdragon_865();
        for &m in [Model::GoogleNet, Model::ResNet101].iter() {
            let t_orin = standalone_ms(&orin, orin.gpu(), m);
            let t_xavier = standalone_ms(&xavier, xavier.gpu(), m);
            let t_sd = standalone_ms(&sd, sd.gpu(), m);
            assert!(t_orin < t_xavier, "{m}");
            assert!(t_xavier < t_sd, "{m}");
            // Snapdragon is an order of magnitude slower than Orin
            // (Table 6: 3.4ms vs 71ms for the GoogleNet+ResNet101 pair).
            assert!(t_sd / t_orin > 5.0, "{m}: {t_sd:.1} vs {t_orin:.1}");
        }
    }

    #[test]
    fn absolute_latencies_same_order_of_magnitude_as_table5() {
        // Not exact — the substrate is a model — but the magnitudes should
        // be commensurable (Table 5 Orin GPU: GoogleNet 0.99ms, VGG19
        // 1.07ms, ResNet101 1.56ms).
        let p = orin_agx();
        let g = standalone_ms(&p, p.gpu(), Model::GoogleNet);
        assert!(g > 0.3 && g < 6.0, "GoogleNet Orin GPU {g:.2}ms");
        let x = xavier_agx();
        let v = standalone_ms(&x, x.gpu(), Model::Vgg19);
        assert!(v > 2.0 && v < 25.0, "VGG19 Xavier GPU {v:.2}ms");
    }
}
