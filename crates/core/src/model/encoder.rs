//! The RITA encoder: a stack of Transformer encoder layers whose self-attention is
//! pluggable (vanilla, group, Performer, Linformer), as required by the paper's
//! evaluation methodology (§6.1, "Alternative Methods").

use crate::attention::{build_attention, Attention, GroupAttentionStats};
use crate::model::config::RitaConfig;
use rand::Rng;
use rita_nn::layers::{FeedForward, LayerNorm, Linear};
use rita_nn::{BufferVisitor, BufferVisitorMut, Module, ParamVisitor};

/// One encoder layer's parameters and attention state: multi-head (pluggable) attention
/// and a feed-forward block, each wrapped in a residual connection and layer
/// normalisation (post-norm, as in the original Transformer and TST). The forward is the
/// graph's `encoder.layers.{i}` block ([`crate::graph::build_graph`]).
pub struct EncoderLayer {
    q_proj: Linear,
    k_proj: Linear,
    v_proj: Linear,
    out_proj: Linear,
    /// The attention mechanism (owned; group attention keeps scheduler state here).
    pub attention: Box<dyn Attention>,
    norm1: LayerNorm,
    norm2: LayerNorm,
    ff: FeedForward,
}

impl EncoderLayer {
    /// Builds one layer for `config`.
    pub fn new(config: &RitaConfig, rng: &mut impl Rng) -> Self {
        let d = config.d_model;
        Self {
            q_proj: Linear::new(d, d, rng),
            k_proj: Linear::new(d, d, rng),
            v_proj: Linear::new(d, d, rng),
            out_proj: Linear::new(d, d, rng),
            attention: build_attention(
                config.attention,
                config.max_windows() + 1,
                config.head_dim(),
                rng,
            ),
            norm1: LayerNorm::new(d),
            norm2: LayerNorm::new(d),
            ff: FeedForward::new(d, config.ff_hidden, config.dropout, rng),
        }
    }
}

impl Module for EncoderLayer {
    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        v.scope("q_proj", |v| self.q_proj.visit_params(v));
        v.scope("k_proj", |v| self.k_proj.visit_params(v));
        v.scope("v_proj", |v| self.v_proj.visit_params(v));
        v.scope("out_proj", |v| self.out_proj.visit_params(v));
        v.scope("attention", |v| self.attention.visit_params(v));
        v.scope("norm1", |v| self.norm1.visit_params(v));
        v.scope("norm2", |v| self.norm2.visit_params(v));
        v.scope("ff", |v| self.ff.visit_params(v));
    }

    fn visit_buffers(&self, v: &mut BufferVisitor<'_>) {
        v.scope("attention", |v| self.attention.visit_buffers(v));
    }

    fn visit_buffers_mut(&mut self, v: &mut BufferVisitorMut<'_>) {
        v.scope("attention", |v| self.attention.visit_buffers_mut(v));
    }
}

/// The full encoder stack.
pub struct RitaEncoder {
    /// The stacked layers.
    pub layers: Vec<EncoderLayer>,
}

impl RitaEncoder {
    /// Builds `config.n_layers` layers.
    pub fn new(config: &RitaConfig, rng: &mut impl Rng) -> Self {
        let layers = (0..config.n_layers).map(|_| EncoderLayer::new(config, rng)).collect();
        Self { layers }
    }

    /// Group-attention statistics per layer (empty entries for non-group layers).
    pub fn group_stats(&self) -> Vec<Option<GroupAttentionStats>> {
        self.layers.iter().map(|l| l.attention.group_stats()).collect()
    }

    /// Average group count across group-attention layers, if any.
    pub fn mean_group_count(&self) -> Option<f32> {
        let counts: Vec<f32> =
            self.group_stats().into_iter().flatten().map(|s| s.current_groups as f32).collect();
        if counts.is_empty() {
            None
        } else {
            Some(counts.iter().sum::<f32>() / counts.len() as f32)
        }
    }

    /// Average *persistent* scheduler group-count target across group-attention layers —
    /// independent of which batch ran last, unlike [`RitaEncoder::mean_group_count`].
    pub fn mean_scheduled_groups(&self) -> Option<f32> {
        let targets: Vec<f32> =
            self.layers.iter().filter_map(|l| l.attention.scheduled_group_target()).collect();
        if targets.is_empty() {
            None
        } else {
            Some(targets.iter().sum::<f32>() / targets.len() as f32)
        }
    }

    /// Forces a fixed group count on every group-attention layer (Table 4's baseline).
    pub fn set_group_count(&mut self, n: usize) {
        for layer in &mut self.layers {
            layer.attention.set_group_count(n);
        }
    }

    /// Per-layer persistent scheduler targets, `None` for non-group layers — the
    /// scheduler state a checkpoint persists.
    pub fn scheduler_state(&self) -> Vec<Option<f32>> {
        self.layers.iter().map(|l| l.attention.scheduled_group_target()).collect()
    }

    /// Restores per-layer scheduler targets captured by [`RitaEncoder::scheduler_state`].
    /// Entries are matched by layer index; `None` entries are skipped.
    pub fn restore_scheduler_state(&mut self, targets: &[Option<f32>]) {
        for (layer, target) in self.layers.iter_mut().zip(targets) {
            if let Some(t) = target {
                layer.attention.restore_scheduled_target(*t);
            }
        }
    }
}

impl Module for RitaEncoder {
    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        for (i, layer) in self.layers.iter().enumerate() {
            v.scope_indexed("layers", i, |v| layer.visit_params(v));
        }
    }

    fn visit_buffers(&self, v: &mut BufferVisitor<'_>) {
        for (i, layer) in self.layers.iter().enumerate() {
            v.scope_indexed("layers", i, |v| layer.visit_buffers(v));
        }
    }

    fn visit_buffers_mut(&mut self, v: &mut BufferVisitorMut<'_>) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            v.scope_indexed("layers", i, |v| layer.visit_buffers_mut(v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::AttentionKind;
    use crate::model::RitaModel;
    use rand::SeedableRng;
    use rita_nn::Var;
    use rita_tensor::{NdArray, SeedableRng64};

    fn rng(seed: u64) -> SeedableRng64 {
        SeedableRng64::seed_from_u64(seed)
    }

    /// Encodes a `(2, 3, 60)` batch — 12 windows plus `[CLS]`, so the encoder stack
    /// sees `(2, 13, 16)` embeddings.
    fn run_encoder(kind: AttentionKind) -> Var {
        let mut r = rng(0);
        let config = RitaConfig::tiny(3, 60, kind);
        let mut model = RitaModel::new(config, &mut r);
        let x = NdArray::randn(&[2, 3, 60], 1.0, &mut r);
        model.encode(&x, false, &mut r)
    }

    #[test]
    fn all_attention_kinds_preserve_shape() {
        for kind in [
            AttentionKind::Vanilla,
            AttentionKind::Group { epsilon: 2.0, initial_groups: 4, adaptive: true },
            AttentionKind::Performer { features: 8 },
            AttentionKind::Linformer { proj_dim: 6 },
        ] {
            let y = run_encoder(kind);
            assert_eq!(y.shape(), vec![2, 13, 16], "{}", kind.name());
            assert!(!y.to_array().has_non_finite(), "{}", kind.name());
        }
    }

    #[test]
    fn encoder_is_trainable_end_to_end() {
        let mut r = rng(1);
        let config = RitaConfig::tiny(
            3,
            40,
            AttentionKind::Group { epsilon: 2.0, initial_groups: 4, adaptive: true },
        );
        let mut model = RitaModel::new(config, &mut r);
        let params = model.encoder.parameters();
        assert!(!params.is_empty());
        let x = NdArray::randn(&[2, 3, 40], 1.0, &mut r);
        model.encode(&x, true, &mut r).sum_all().backward();
        let with_grad = params.iter().filter(|p| p.grad().is_some()).count();
        // Every projection / norm / FF parameter should receive a gradient.
        assert!(with_grad as f32 >= params.len() as f32 * 0.9, "{with_grad}/{}", params.len());
    }

    #[test]
    fn group_stats_reported_only_for_group_layers() {
        let mut r = rng(2);
        let group_cfg = RitaConfig::tiny(3, 40, AttentionKind::default_group());
        let mut model = RitaModel::new(group_cfg, &mut r);
        assert_eq!(
            model.encoder.mean_group_count(),
            Some(0.0),
            "no forward pass yet means zero groups used"
        );
        let x = NdArray::randn(&[1, 3, 40], 1.0, &mut r);
        let _ = model.encode(&x, false, &mut r);
        assert!(model.encoder.mean_group_count().is_some());
        model.encoder.set_group_count(3);
        let _ = model.encode(&x, false, &mut r);
        assert_eq!(model.encoder.mean_group_count().unwrap(), 3.0);

        let vanilla_cfg = RitaConfig::tiny(3, 40, AttentionKind::Vanilla);
        let mut vanilla = RitaModel::new(vanilla_cfg, &mut r);
        let _ = vanilla.encode(&x, false, &mut r);
        assert!(vanilla.encoder.mean_group_count().is_none());
    }

    #[test]
    fn linformer_layers_expose_projection_parameters() {
        let mut r = rng(3);
        let cfg = RitaConfig::tiny(3, 40, AttentionKind::Linformer { proj_dim: 4 });
        let enc = RitaEncoder::new(&cfg, &mut r);
        let plain = RitaEncoder::new(&RitaConfig::tiny(3, 40, AttentionKind::Vanilla), &mut r);
        assert!(enc.num_parameters() > plain.num_parameters());
    }
}
