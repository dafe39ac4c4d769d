//! The input stage of RITA (Fig. 1): time-aware convolution, positional embeddings, and
//! the `[CLS]` token.
//!
//! The time-aware convolution bridges the gap between raw multivariate timeseries and the
//! discrete semantic units a Transformer expects: `d` convolution kernels of shape
//! `w × m` chunk the series into windows and embed each window into a `d`-dimensional
//! vector, simultaneously capturing local structure and cross-channel correlations (§3).

use crate::model::config::RitaConfig;
use rand::Rng;
use rita_nn::{layers::Linear, Module, ParamVisitor, Var};
use rita_tensor::NdArray;

/// Window embedding + positional encoding + `[CLS]` token: the input stage's
/// parameters. The forward is the graph's embedding stage
/// ([`crate::graph::build_graph`]): unfold the series into windows, project each window
/// (the convolution), prepend `[CLS]` and add the positional rows.
pub struct TimeConvEmbed {
    /// The convolution expressed as a linear map over unfolded windows
    /// (`channels · window → d_model`).
    pub conv: Linear,
    /// Learnable `[CLS]` embedding of shape `(d_model,)`.
    pub cls: Var,
    /// Fixed sinusoidal positional table of shape `(max_windows + 1, d_model)`.
    positional: NdArray,
}

impl TimeConvEmbed {
    /// Creates the input stage for `config`.
    pub fn new(config: &RitaConfig, rng: &mut impl Rng) -> Self {
        config.validate();
        let conv = Linear::new(config.channels * config.window, config.d_model, rng);
        let cls = Var::parameter(NdArray::randn(&[config.d_model], 0.02, rng));
        let positional = sinusoidal_table(config.max_windows() + 1, config.d_model);
        Self { conv, cls, positional }
    }

    /// The positional table the graph binds under [`crate::graph::POSITIONAL`].
    pub(crate) fn positional(&self) -> &NdArray {
        &self.positional
    }
}

impl Module for TimeConvEmbed {
    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        v.scope("conv", |v| self.conv.visit_params(v));
        v.leaf("cls", &self.cls);
    }
}

/// Standard sinusoidal positional encoding table of shape `(len, d)`.
///
/// Public because the tape-free inference engine rebuilds the same table from the
/// checkpointed config instead of persisting it (it is fully determined by
/// `(len, d_model)`).
pub fn sinusoidal_table(len: usize, d: usize) -> NdArray {
    let mut data = vec![0.0f32; len * d];
    for pos in 0..len {
        for i in 0..d {
            let angle = pos as f32 / 10_000f32.powf((2 * (i / 2)) as f32 / d as f32);
            data[pos * d + i] = if i % 2 == 0 { angle.sin() } else { angle.cos() };
        }
    }
    NdArray::from_vec(data, &[len, d]).expect("positional table")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::AttentionKind;
    use crate::checkpoint::TaskKind;
    use crate::graph::{build_graph, live_params, run_model};
    use crate::model::RitaModel;
    use rand::SeedableRng;
    use rita_tensor::SeedableRng64;

    fn rng(seed: u64) -> SeedableRng64 {
        SeedableRng64::seed_from_u64(seed)
    }

    fn config() -> RitaConfig {
        RitaConfig::tiny(3, 50, AttentionKind::Vanilla)
    }

    /// Runs the graph's embedding stage (the backbone graph cut at its `embedding`
    /// node) on `x` with `model`'s live parameters.
    fn embed(model: &mut RitaModel, x: &NdArray, r: &mut SeedableRng64) -> Var {
        let mut graph = build_graph(&model.config, TaskKind::Backbone, &[]);
        graph.output = graph.nodes.iter().find(|n| n.id == "embedding").unwrap().output;
        let params = live_params(&*model);
        run_model(&graph, x, &params, model, r)
    }

    #[test]
    fn embeds_to_windows_plus_cls() {
        let mut r = rng(0);
        let mut model = RitaModel::new(config(), &mut r);
        let x = NdArray::randn(&[4, 3, 50], 1.0, &mut r);
        let e = embed(&mut model, &x, &mut r);
        // 50 / 5 = 10 windows + CLS
        assert_eq!(e.shape(), vec![4, 11, 16]);
        assert_eq!(model.config.windows_for(50), 10);
        assert_eq!(model.config.window, 5);
    }

    #[test]
    fn shorter_series_use_fewer_positions() {
        let mut r = rng(1);
        let mut model = RitaModel::new(config(), &mut r);
        let x = NdArray::randn(&[2, 3, 25], 1.0, &mut r);
        assert_eq!(embed(&mut model, &x, &mut r).shape(), vec![2, 6, 16]);
    }

    #[test]
    fn cls_token_is_shared_across_batch() {
        let mut r = rng(2);
        let mut model = RitaModel::new(config(), &mut r);
        let x = NdArray::randn(&[3, 3, 20], 1.0, &mut r);
        let e = embed(&mut model, &x, &mut r).to_array();
        // Position 0 of every batch element is CLS + positional[0] — identical across batch.
        let first = e.index_axis0(0).unwrap().index_axis0(0).unwrap();
        for b in 1..3 {
            let other = e.index_axis0(b).unwrap().index_axis0(0).unwrap();
            assert_eq!(first, other);
        }
    }

    #[test]
    fn positional_encoding_differs_across_positions() {
        let table = sinusoidal_table(8, 16);
        assert_ne!(table.index_axis0(1).unwrap(), table.index_axis0(2).unwrap());
        // Values bounded in [-1, 1].
        assert!(table.max_all() <= 1.0 + 1e-6);
        assert!(table.min_all() >= -1.0 - 1e-6);
    }

    #[test]
    fn gradients_reach_conv_and_cls() {
        let mut r = rng(3);
        let mut model = RitaModel::new(config(), &mut r);
        let x = NdArray::randn(&[2, 3, 30], 1.0, &mut r);
        embed(&mut model, &x, &mut r).sum_all().backward();
        assert!(model.embedding.conv.weight.grad().unwrap().norm() > 0.0);
        assert!(model.embedding.cls.grad().unwrap().norm() > 0.0);
        assert_eq!(model.embedding.parameters().len(), 3);
    }

    #[test]
    #[should_panic(expected = "shorter than the convolution window")]
    fn rejects_series_shorter_than_the_window() {
        // Regression: `len < window` used to underflow the usize subtraction in the
        // window arithmetic and die with an overflow panic instead of a clear error.
        let mut r = rng(5);
        let mut model = RitaModel::new(config(), &mut r);
        let _ = embed(&mut model, &NdArray::zeros(&[1, 3, 3]), &mut r);
    }

    #[test]
    #[should_panic(expected = "shorter than the convolution window")]
    fn windows_for_rejects_short_series() {
        // The graph-run entry sizes the input with `windows_for` before any kernel
        // runs, so the oracle interpreter reports a short series as clearly as the
        // training forward.
        let mut r = rng(6);
        let model = RitaModel::new(config(), &mut r);
        let graph = build_graph(&model.config, TaskKind::Backbone, &[]);
        let params = live_params(&model);
        let _ = crate::graph::run_var(&graph, &NdArray::zeros(&[1, 3, 2]), &|name| {
            if name == crate::graph::POSITIONAL {
                return Some(model.embedding.positional().clone());
            }
            params.get(name).map(Var::to_array)
        });
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn rejects_wrong_channel_count() {
        let mut r = rng(4);
        let mut model = RitaModel::new(config(), &mut r);
        let _ = embed(&mut model, &NdArray::zeros(&[1, 5, 50]), &mut r);
    }
}
