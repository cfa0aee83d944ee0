//! The model zoo: programmatic builders for every DNN the paper evaluates.
//!
//! Table 5 / Section 4 of the paper use: AlexNet, CaffeNet, GoogleNet,
//! Inception-v4, Inception-ResNet-v2, ResNet-18/50/101/152, VGG-16/19,
//! DenseNet, MobileNet and FCN-ResNet18, all at 3x224x224 (except AlexNet's
//! historical 227 crop, which we keep).

mod alexnet;
mod densenet;
mod fcn;
mod googlenet;
mod inception;
mod mobilenet;
mod resnet;
mod vgg;

use crate::graph::Network;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Every network in the evaluation set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Model {
    /// AlexNet (Krizhevsky et al.).
    AlexNet,
    /// CaffeNet — the Caffe reference variant of AlexNet (pool/norm order
    /// swapped, single-GPU grouping removed).
    CaffeNet,
    /// GoogleNet / Inception-v1.
    GoogleNet,
    /// VGG-16.
    Vgg16,
    /// VGG-19.
    Vgg19,
    /// ResNet-18 (basic blocks).
    ResNet18,
    /// ResNet-50 (bottleneck blocks).
    ResNet50,
    /// ResNet-101.
    ResNet101,
    /// ResNet-152.
    ResNet152,
    /// Inception-v4.
    InceptionV4,
    /// Inception-ResNet-v2 (the 985-layer engine of the paper).
    InceptionResNetV2,
    /// DenseNet-121.
    DenseNet121,
    /// MobileNet v1 (depthwise separable).
    MobileNetV1,
    /// FCN with a ResNet-18 backbone (semantic segmentation).
    FcnResNet18,
}

impl Model {
    /// All models, in the order used by the paper's tables.
    pub const fn all() -> &'static [Model] {
        use Model::*;
        &[
            AlexNet,
            CaffeNet,
            GoogleNet,
            Vgg16,
            Vgg19,
            ResNet18,
            ResNet50,
            ResNet101,
            ResNet152,
            InceptionV4,
            InceptionResNetV2,
            DenseNet121,
            MobileNetV1,
            FcnResNet18,
        ]
    }

    /// The ten-model subset used by Table 8's exhaustive pair sweep.
    pub fn table8_set() -> &'static [Model] {
        use Model::*;
        &[
            CaffeNet,
            DenseNet121,
            GoogleNet,
            InceptionResNetV2,
            InceptionV4,
            ResNet18,
            ResNet50,
            ResNet101,
            ResNet152,
            Vgg19,
        ]
    }

    /// Canonical display name (matches the paper's tables).
    pub fn name(&self) -> &'static str {
        match self {
            Model::AlexNet => "AlexNet",
            Model::CaffeNet => "CaffeNet",
            Model::GoogleNet => "GoogleNet",
            Model::Vgg16 => "VGG16",
            Model::Vgg19 => "VGG19",
            Model::ResNet18 => "ResNet18",
            Model::ResNet50 => "ResNet50",
            Model::ResNet101 => "ResNet101",
            Model::ResNet152 => "ResNet152",
            Model::InceptionV4 => "Inception",
            Model::InceptionResNetV2 => "Inc-res-v2",
            Model::DenseNet121 => "DenseNet",
            Model::MobileNetV1 => "MobileNet",
            Model::FcnResNet18 => "FC_ResN18",
        }
    }

    /// Parses a display name back to a model.
    pub fn from_name(name: &str) -> Option<Model> {
        Model::all()
            .iter()
            .copied()
            .find(|m| m.name().eq_ignore_ascii_case(name))
    }

    /// The network graph for this model. Each graph is built once per
    /// process and shared: profiles of every group count hold this same
    /// graph instead of a copy.
    pub fn network(&self) -> Arc<Network> {
        static NETWORKS: [OnceLock<Arc<Network>>; Model::all().len()] =
            [const { OnceLock::new() }; Model::all().len()];
        Arc::clone(NETWORKS[*self as usize].get_or_init(|| Arc::new(build(*self))))
    }
}

impl std::fmt::Display for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A model lowers to its [`Model::name`], so anything that takes a model
/// name (`impl Into<String>`) also takes a model.
impl From<Model> for String {
    fn from(model: Model) -> String {
        model.name().to_string()
    }
}

/// Builds the network graph for `model`.
pub fn build(model: Model) -> Network {
    match model {
        Model::AlexNet => alexnet::alexnet(),
        Model::CaffeNet => alexnet::caffenet(),
        Model::GoogleNet => googlenet::googlenet(),
        Model::Vgg16 => vgg::vgg16(),
        Model::Vgg19 => vgg::vgg19(),
        Model::ResNet18 => resnet::resnet(18),
        Model::ResNet50 => resnet::resnet(50),
        Model::ResNet101 => resnet::resnet(101),
        Model::ResNet152 => resnet::resnet(152),
        Model::InceptionV4 => inception::inception_v4(),
        Model::InceptionResNetV2 => inception::inception_resnet_v2(),
        Model::DenseNet121 => densenet::densenet121(),
        Model::MobileNetV1 => mobilenet::mobilenet_v1(),
        Model::FcnResNet18 => fcn::fcn_resnet18(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_model_builds_and_validates() {
        for &m in Model::all() {
            let net = build(m);
            net.validate().unwrap_or_else(|e| panic!("{m}: {e}"));
            assert!(net.total_flops() > 0, "{m} has zero flops");
        }
    }

    #[test]
    fn flop_ordering_matches_reality() {
        // Sanity: well-known relative compute costs at batch 1.
        let f = |m: Model| build(m).total_flops() as f64 / 1e9;
        assert!(f(Model::Vgg19) > f(Model::Vgg16));
        assert!(f(Model::Vgg19) > 34.0 && f(Model::Vgg19) < 45.0); // ~19.6 GMACs = ~39 GFLOPs
        assert!(f(Model::ResNet152) > f(Model::ResNet101));
        assert!(f(Model::ResNet101) > f(Model::ResNet50));
        assert!(f(Model::ResNet50) > f(Model::ResNet18));
        assert!(f(Model::ResNet50) > 7.0 && f(Model::ResNet50) < 11.0); // ~3.9 GMACs + BN/act overhead
        assert!(f(Model::GoogleNet) > 2.0 && f(Model::GoogleNet) < 4.5); // ~1.6 GMACs
        assert!(f(Model::MobileNetV1) < 1.8); // ~0.57 GMACs
        assert!(f(Model::AlexNet) < 2.5); // ~0.7 GMACs
    }

    #[test]
    fn parameter_counts_roughly_match_reality() {
        // VGG19 ~144M params -> ~287MB fp16.
        let wb = build(Model::Vgg19).total_weight_bytes() as f64 / 1e6;
        assert!(wb > 250.0 && wb < 320.0, "vgg19 weights {wb}MB");
        // ResNet50 ~25.5M params -> ~51MB fp16.
        let wb = build(Model::ResNet50).total_weight_bytes() as f64 / 1e6;
        assert!(wb > 40.0 && wb < 65.0, "resnet50 weights {wb}MB");
    }

    #[test]
    fn layer_counts_are_plausible() {
        // The paper quotes GoogleNet groups ending at layer ~140 and
        // Inception-ResNet-v2 at 985 layers (TensorRT node counts).
        let n = |m: Model| build(m).len();
        assert!(n(Model::GoogleNet) >= 120 && n(Model::GoogleNet) <= 170);
        assert!(n(Model::InceptionResNetV2) >= 500);
        assert!(n(Model::ResNet101) >= 300);
        assert!(n(Model::AlexNet) <= 30);
    }

    #[test]
    fn names_roundtrip() {
        for &m in Model::all() {
            assert_eq!(Model::from_name(m.name()), Some(m));
        }
        assert_eq!(Model::from_name("vgg19"), Some(Model::Vgg19));
        assert_eq!(Model::from_name("nope"), None);
    }

    #[test]
    fn table8_set_is_ten_models() {
        assert_eq!(Model::table8_set().len(), 10);
    }
}
