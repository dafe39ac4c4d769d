//! The RITA model's one definition: the static forward graph, and the [`Var`]
//! interpreter that runs it.
//!
//! [`build_graph`] lays out the whole RITA forward — window embedding, encoder stack,
//! task head — as [`rita_nn::graph`] nodes whose IDs are the dot-separated parameter
//! paths the module visitors produce, so a checkpoint's tensors and a live model's
//! parameters bind to the graph by name with no translation table. The graph is emitted
//! *unfused* (separate matmul and add-bias nodes); [`Graph::peephole`] folds the chains
//! the kernels can run as one node. Training graphs add the encoder layers' dropout
//! nodes; inference graphs never contain one.
//!
//! One interpreter walks a graph's schedule with `Var` operations. `run_model` runs
//! it with a model's live parameters and autograd on, sending each attention node to
//! that layer's [`Attention`](crate::attention::Attention) mechanism: this is the
//! model's forward, for training and evaluation alike. [`run_var`] runs it on
//! checkpoint tensors under `no_grad`: the exactness oracle that any other interpreter
//! of the same plan (the tape-free one in `rita-infer`) is checked against to 0 ulp.
//! Both execute each op through the same function
//! ([`rita_nn::layers::layer_norm`], each mechanism's `attend`), so the oracle equals
//! the training forward by construction.

use std::collections::HashMap;

use rand::Rng;
use rita_nn::graph::{AttnOp, Graph, Op, PlanError, ValueId};
use rita_nn::layers::{layer_norm, Dropout};
use rita_nn::{no_grad, Module, Var};
use rita_tensor::NdArray;

use crate::attention::group::effective_group_count;
use crate::attention::{group, linformer, performer, vanilla};
use crate::attention::{AttentionKind, GroupAttentionConfig};
use crate::checkpoint::TaskKind;
use crate::group::group_key_blocks;
use crate::model::config::windows_for;
use crate::model::{RitaConfig, RitaModel};

/// The value name under which interpreters look up the sinusoidal positional table
/// (rebuilt from the config, never checkpointed).
pub const POSITIONAL: &str = "positional";

/// Emits an unfused linear layer (`matmul` + optional-bias `add_bias`) and returns the
/// output value.
fn emit_linear(g: &mut Graph, prefix: &str, x: ValueId) -> ValueId {
    let w = g.param(&format!("{prefix}.weight"), false);
    let b = g.param(&format!("{prefix}.bias"), true);
    let y = g.push(&format!("{prefix}.matmul"), Op::Matmul, vec![x, w]);
    g.push(&format!("{prefix}.add_bias"), Op::AddBias, vec![y, b])
}

fn emit_layer_norm(g: &mut Graph, prefix: &str, x: ValueId) -> ValueId {
    let gamma = g.param(&format!("{prefix}.gamma"), false);
    let beta = g.param(&format!("{prefix}.beta"), false);
    g.push(
        prefix,
        Op::LayerNorm { eps: rita_nn::layers::LayerNorm::DEFAULT_EPS },
        vec![x, gamma, beta],
    )
}

/// Emits a dropout node when `p > 0`; otherwise dropout is the identity and emits
/// nothing.
fn emit_dropout(g: &mut Graph, id: &str, x: ValueId, p: f32) -> ValueId {
    if p > 0.0 {
        g.push(id, Op::Dropout { p }, vec![x])
    } else {
        x
    }
}

/// Builds the inference forward graph for `config` and `task`.
///
/// `scheduler` is the checkpoint's persisted per-layer group-count targets (ignored for
/// non-group attention); a missing entry falls back to the configured initial group
/// count, exactly as checkpoint loading always has. Node IDs follow the parameter-path
/// grammar (`model.encoder.layers.3.norm1`, …), with the `model.` prefix dropped for a
/// bare backbone — matching how checkpoints name their tensors per task.
pub fn build_graph(config: &RitaConfig, task: TaskKind, scheduler: &[Option<f32>]) -> Graph {
    emit(config, task, scheduler, 0.0)
}

/// [`build_graph`] with, when `dropout > 0`, an [`Op::Dropout`] node at each of an
/// encoder layer's three dropout sites: after the attention output projection
/// (`dropout1`), after the feed-forward GELU (`ff.dropout`) and after the feed-forward
/// contraction (`dropout2`). Training runs this graph with `config.dropout`.
pub(crate) fn emit(
    config: &RitaConfig,
    task: TaskKind,
    scheduler: &[Option<f32>],
    dropout: f32,
) -> Graph {
    config.validate();
    let bb = match task {
        TaskKind::Backbone => "",
        _ => "model.",
    };
    let group_defaults = GroupAttentionConfig::default();
    let mut g = Graph::new();
    let x = g.add_input("input");

    // Input stage: time-aware convolution as unfold + linear, then [CLS] + positions.
    let windows = g.push(
        &format!("{bb}embedding.unfold"),
        Op::Unfold1d { window: config.window, stride: config.stride },
        vec![x],
    );
    let embedded = emit_linear(&mut g, &format!("{bb}embedding.conv"), windows);
    let cls = g.param(&format!("{bb}embedding.cls"), false);
    let pos = g.positional(POSITIONAL);
    let mut h = g.push(&format!("{bb}embedding"), Op::ClsConcatPos, vec![embedded, cls, pos]);

    // Encoder stack.
    for i in 0..config.n_layers {
        let p = format!("{bb}encoder.layers.{i}");
        let q = emit_linear(&mut g, &format!("{p}.q_proj"), h);
        let k = emit_linear(&mut g, &format!("{p}.k_proj"), h);
        let v = emit_linear(&mut g, &format!("{p}.v_proj"), h);
        let split = Op::SplitHeads { heads: config.n_heads };
        let qh = g.push(&format!("{p}.q_proj.split_heads"), split, vec![q]);
        let kh = g.push(&format!("{p}.k_proj.split_heads"), split, vec![k]);
        let vh = g.push(&format!("{p}.v_proj.split_heads"), split, vec![v]);
        let mut attn_inputs = vec![qh, kh, vh];
        let attn_op = match config.attention {
            AttentionKind::Vanilla => AttnOp::Vanilla,
            AttentionKind::Group { initial_groups, .. } => AttnOp::Group {
                n_groups: scheduler.get(i).copied().flatten().unwrap_or(initial_groups as f32),
                min_groups: group_defaults.min_groups,
                kmeans_iters: group_defaults.kmeans_iters,
            },
            AttentionKind::Performer { features } => {
                attn_inputs.push(g.param(&format!("{p}.attention.omega"), false));
                AttnOp::Performer { features }
            }
            AttentionKind::Linformer { .. } => {
                attn_inputs.push(g.param(&format!("{p}.attention.e_proj"), false));
                attn_inputs.push(g.param(&format!("{p}.attention.f_proj"), false));
                AttnOp::Linformer { max_windows: config.max_windows() + 1 }
            }
        };
        let attended = g.push(&format!("{p}.attention"), Op::Attention(attn_op), attn_inputs);
        let merged = g.push(&format!("{p}.attention.merge_heads"), Op::MergeHeads, vec![attended]);
        let projected = emit_linear(&mut g, &format!("{p}.out_proj"), merged);
        let projected = emit_dropout(&mut g, &format!("{p}.dropout1"), projected, dropout);
        let sum1 = g.push(&format!("{p}.residual1"), Op::Add, vec![h, projected]);
        let x1 = emit_layer_norm(&mut g, &format!("{p}.norm1"), sum1);
        let ff1 = emit_linear(&mut g, &format!("{p}.ff.fc1"), x1);
        let act = g.push(&format!("{p}.ff.gelu"), Op::Gelu, vec![ff1]);
        let act = emit_dropout(&mut g, &format!("{p}.ff.dropout"), act, dropout);
        let ff2 = emit_linear(&mut g, &format!("{p}.ff.fc2"), act);
        let ff2 = emit_dropout(&mut g, &format!("{p}.dropout2"), ff2, dropout);
        let sum2 = g.push(&format!("{p}.residual2"), Op::Add, vec![x1, ff2]);
        h = emit_layer_norm(&mut g, &format!("{p}.norm2"), sum2);
    }
    g.encoder_output = h;

    // Task head.
    g.output = match task {
        TaskKind::Backbone => h,
        TaskKind::Classifier { .. } => {
            let pooled = g.push("cls_pool", Op::ClsPool, vec![h]);
            emit_linear(&mut g, "head", pooled)
        }
        TaskKind::Imputer => {
            let windows = g.push("windows", Op::SliceWindows, vec![h]);
            let decoded = emit_linear(&mut g, "decoder", windows);
            let fold = Op::Fold1d {
                channels: config.channels,
                window: config.window,
                stride: config.stride,
            };
            g.push("fold", fold, vec![decoded])
        }
    };
    debug_assert!(g.validate().is_ok(), "emitted graph is malformed: {:?}", g.validate());
    g
}

/// Executes `graph` on `x` with `no_grad` [`Var`] operations — the exactness oracle.
///
/// `lookup` supplies parameter tensors by path and the positional table under
/// [`POSITIONAL`]. Each op runs through the same function as in the training forward,
/// so on the same tensors the two agree bit for bit. Dropout nodes are the identity:
/// the oracle is an evaluation-mode run. Panics unless `x` fits the graph's window
/// embedding (rank 3, channel count, length, positional rows).
pub fn run_var(
    graph: &Graph,
    x: &NdArray,
    lookup: &dyn Fn(&str) -> Option<NdArray>,
) -> Result<Var, PlanError> {
    no_grad(|| {
        interpret(
            graph,
            x,
            &|name| lookup(name).map(Var::constant),
            &mut |_, attn, ins| oracle_attend(attn, ins),
            &mut |h, _| h.clone(),
        )
    })
}

/// Runs `graph` on `x` as `model`'s forward, with autograd on. Parameters bind by path
/// to `params` (the live `Var`s of the task module owning `model`, see
/// `live_params`). Each attention node runs its encoder layer's
/// [`Attention`](crate::attention::Attention), so the §5.1 scheduler updates in place,
/// and each dropout node draws its mask from `rng` in schedule order.
///
/// Panics unless `x` is `(batch, channels, length)` with the model's channel count, at
/// least one window long, and no more windows than the positional table holds.
pub(crate) fn run_model(
    graph: &Graph,
    x: &NdArray,
    params: &HashMap<String, Var>,
    model: &mut RitaModel,
    rng: &mut impl Rng,
) -> Var {
    let positional = Var::constant(model.embedding.positional().clone());
    let layers = &mut model.encoder.layers;
    interpret(
        graph,
        x,
        &|name| {
            if name == POSITIONAL {
                Some(positional.clone())
            } else {
                params.get(name).cloned()
            }
        },
        &mut |layer, _, ins| layers[layer].attention.forward(&ins[0], &ins[1], &ins[2]),
        &mut |h, p| Dropout::new(p).forward(h, true, rng),
    )
    .expect("the graph binds only the paths of the model's own parameters")
}

/// Every parameter (as its live `Var`) and buffer (as a constant) of `module` by path.
pub(crate) fn live_params(module: &impl Module) -> HashMap<String, Var> {
    let mut params: HashMap<String, Var> =
        module.named_parameters().into_iter().map(|(path, var)| (path.to_string(), var)).collect();
    for (path, buffer) in module.named_buffers() {
        params.insert(path.to_string(), Var::constant(buffer));
    }
    params
}

/// The window embedding's input contract, checked once at the graph-run entry so a bad
/// batch fails with a clear message instead of inside a kernel.
fn check_input(graph: &Graph, shape: &[usize], bind: &dyn Fn(&str) -> Option<Var>) {
    assert_eq!(shape.len(), 3, "expected (batch, channels, length), got {shape:?}");
    let rows = |suffix: &str| {
        let value = graph.values.iter().find(|v| v.binding.is_some() && v.name.ends_with(suffix));
        value.and_then(|v| bind(&v.name)).map_or(0, |t| t.shape()[0])
    };
    for node in &graph.nodes {
        if let Op::Unfold1d { window, stride } | Op::WindowEmbed { window, stride, .. } = node.op {
            let channels = rows("embedding.conv.weight") / window;
            assert_eq!(shape[1], channels, "channel mismatch: {} vs {}", shape[1], channels);
            let n = windows_for(shape[2], window, stride);
            assert!(
                n < rows(POSITIONAL),
                "series produces {n} windows, more than the positional table supports"
            );
        }
    }
}

/// Walks `graph`'s schedule on `x`. `bind` resolves a bound value by its name (a
/// parameter's path, or [`POSITIONAL`]); `attend` runs the `i`-th attention node (`i` = encoder layer) on its inputs;
/// `dropout` runs a dropout node with its drop probability. Every other op is the same
/// `Var` call for every caller.
fn interpret(
    graph: &Graph,
    x: &NdArray,
    bind: &dyn Fn(&str) -> Option<Var>,
    attend: &mut dyn FnMut(usize, &AttnOp, &[Var]) -> Var,
    dropout: &mut dyn FnMut(&Var, f32) -> Var,
) -> Result<Var, PlanError> {
    check_input(graph, x.shape(), bind);
    let order = graph.schedule()?;
    let mut last_use = vec![0usize; graph.values.len()];
    for (pos, &ni) in order.iter().enumerate() {
        for v in &graph.nodes[ni].inputs {
            last_use[v.0] = pos;
        }
    }
    let mut slots: Vec<Option<Var>> = vec![None; graph.values.len()];
    slots[graph.input.0] = Some(Var::constant(x.clone()));
    let mut layer = 0;
    for (pos, &ni) in order.iter().enumerate() {
        let node = &graph.nodes[ni];
        let mut ins = Vec::with_capacity(node.inputs.len());
        for &v in &node.inputs {
            let name = &graph.values[v.0].name;
            let bound = || bind(name).ok_or_else(|| PlanError::MissingParam(name.clone()));
            ins.push(slots[v.0].clone().map_or_else(bound, Ok)?);
        }
        let out = match &node.op {
            Op::Matmul => ins[0].matmul(&ins[1]),
            Op::AddBias | Op::Add => ins[0].add(&ins[1]),
            Op::Linear { .. } => linear(&ins[0], &ins[1..]),
            Op::Unfold1d { window, stride } => ins[0].unfold1d(*window, *stride),
            Op::WindowEmbed { window, stride, .. } => {
                linear(&ins[0].unfold1d(*window, *stride), &ins[1..])
            }
            Op::ClsConcatPos => {
                // Prepend the [CLS] token broadcast across the batch, then add the
                // positional rows (a constant, broadcast over the batch).
                let embedded = &ins[0];
                let shape = embedded.shape();
                let (batch, n, d) = (shape[0], shape[1], shape[2]);
                let cls = ins[1].reshape(&[1, 1, d]);
                let cls_batch = cls.mul(&Var::constant(NdArray::ones(&[batch, 1, d])));
                let with_cls = Var::concat(&[cls_batch, embedded.clone()], 1);
                with_cls.add(&ins[2].slice_axis(0, 0, n + 1))
            }
            Op::LayerNorm { eps } => layer_norm(&ins[0], &ins[1], &ins[2], *eps),
            Op::Gelu => ins[0].gelu(),
            Op::Dropout { p } => dropout(&ins[0], *p),
            Op::SplitHeads { heads } => crate::attention::split_heads(&ins[0], *heads),
            Op::MergeHeads => crate::attention::merge_heads(&ins[0]),
            Op::Attention(attn) => {
                layer += 1;
                attend(layer - 1, attn, &ins)
            }
            Op::ClsPool => {
                let shape = ins[0].shape();
                ins[0].slice_axis(1, 0, 1).reshape(&[shape[0], shape[2]])
            }
            Op::SliceWindows => {
                let n = ins[0].shape()[1];
                ins[0].slice_axis(1, 1, n)
            }
            Op::Fold1d { channels, window, stride } => {
                ins[0].fold1d(*channels, *window, *stride, x.shape()[2])
            }
        };
        if node.output == graph.output {
            return Ok(out);
        }
        // Release activations at their last read; under autograd the tape still holds
        // what the backward needs.
        for v in &node.inputs {
            if last_use[v.0] == pos {
                slots[v.0] = None;
            }
        }
        slots[node.output.0] = Some(out);
    }
    Err(PlanError::MissingParam("graph output".into()))
}

/// `x · w (+ b)` for the fused linear ops, whose inputs after `x` are `[w]` or `[w, b]`.
fn linear(x: &Var, wb: &[Var]) -> Var {
    match wb {
        [w, b] => x.matmul(w).add(b),
        _ => x.matmul(&wb[0]),
    }
}

/// One attention node on checkpoint tensors, with the group-attention scheduler target
/// frozen at graph-emission time.
fn oracle_attend(attn: &AttnOp, ins: &[Var]) -> Var {
    let (q, k, v) = (&ins[0], &ins[1], &ins[2]);
    match attn {
        AttnOp::Vanilla => vanilla::attend(q, k, v),
        AttnOp::Group { n_groups, min_groups, kmeans_iters } => {
            let groups = effective_group_count(*n_groups, *min_groups, q.shape()[2]);
            let groupings = group_key_blocks(&k.to_array(), groups, *kmeans_iters);
            group::attend(q, k, v, &groupings, groups)
        }
        AttnOp::Performer { .. } => performer::attend(q, k, v, &ins[3]),
        AttnOp::Linformer { .. } => linformer::attend(q, k, v, &ins[3], &ins[4]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpoint;
    use crate::model::embedding::sinusoidal_table;
    use crate::tasks::Classifier;
    use rand::SeedableRng;
    use rita_tensor::SeedableRng64;

    fn kinds() -> Vec<AttentionKind> {
        vec![
            AttentionKind::Vanilla,
            AttentionKind::Group { epsilon: 2.0, initial_groups: 4, adaptive: false },
            AttentionKind::Performer { features: 8 },
            AttentionKind::Linformer { proj_dim: 6 },
        ]
    }

    #[test]
    fn graph_params_match_checkpoint_tensor_paths_exactly() {
        let mut rng = SeedableRng64::seed_from_u64(0);
        let dropouts =
            |g: &Graph| g.nodes.iter().filter(|n| matches!(n.op, Op::Dropout { .. })).count();
        for kind in kinds() {
            for dropout in [0.0, 0.1] {
                let config = RitaConfig { dropout, ..RitaConfig::tiny(3, 60, kind) };
                let clf = Classifier::new(config, 4, &mut rng);
                let ckpt = Checkpoint::of_classifier(&clf, None);
                let graph = build_graph(&config, ckpt.task, &ckpt.scheduler);
                let training = emit(&config, ckpt.task, &ckpt.scheduler, config.dropout);
                let mut ckpt_paths: Vec<String> =
                    ckpt.tensors.iter().map(|(p, _)| p.clone()).collect();
                ckpt_paths.sort();
                for g in [&graph, &training] {
                    let mut graph_paths: Vec<String> =
                        g.param_paths().into_iter().map(|(p, _)| p).collect();
                    graph_paths.sort();
                    assert_eq!(graph_paths, ckpt_paths, "{}", kind.name());
                }
                // Dropout lives only in training graphs: three sites per encoder layer.
                assert_eq!(dropouts(&graph), 0, "{}", kind.name());
                let want = if dropout > 0.0 { 3 * config.n_layers } else { 0 };
                assert_eq!(dropouts(&training), want, "{}", kind.name());
            }
        }
    }

    #[test]
    fn var_oracle_matches_the_training_forward_bitwise() {
        let mut rng = SeedableRng64::seed_from_u64(1);
        for kind in kinds() {
            let config = RitaConfig::tiny(3, 60, kind);
            let mut clf = Classifier::new(config, 4, &mut rng);
            let ckpt = Checkpoint::of_classifier(&clf, None);
            let graph = build_graph(&config, ckpt.task, &ckpt.scheduler);
            let x = NdArray::randn(&[2, 3, 47], 1.0, &mut rng);

            let reference = no_grad(|| clf.logits(&x, false, &mut rng));
            let table = sinusoidal_table(config.max_windows() + 1, config.d_model);
            let oracle = run_var(&graph, &x, &|name| {
                if name == POSITIONAL {
                    return Some(table.clone());
                }
                ckpt.tensors.iter().find(|(p, _)| p == name).map(|(_, t)| t.to_f32())
            })
            .expect("oracle run");
            assert_eq!(
                reference.to_array().as_slice(),
                oracle.to_array().as_slice(),
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn fused_graph_is_bit_identical_to_the_unfused_one() {
        let mut rng = SeedableRng64::seed_from_u64(2);
        let config = RitaConfig::tiny(
            2,
            45,
            AttentionKind::Group { epsilon: 2.0, initial_groups: 4, adaptive: false },
        );
        let clf = Classifier::new(config, 3, &mut rng);
        let ckpt = Checkpoint::of_classifier(&clf, None);
        let x = NdArray::randn(&[3, 2, 38], 1.0, &mut rng);
        let table = sinusoidal_table(config.max_windows() + 1, config.d_model);
        let lookup = |name: &str| {
            if name == POSITIONAL {
                return Some(table.clone());
            }
            ckpt.tensors.iter().find(|(p, _)| p == name).map(|(_, t)| t.to_f32())
        };

        let unfused = build_graph(&config, ckpt.task, &ckpt.scheduler);
        let mut fused = unfused.clone();
        let folded = fused.peephole();
        assert!(folded > 0, "peephole should fuse the linear and embedding chains");
        assert!(fused.nodes.len() < unfused.nodes.len());

        let a = run_var(&unfused, &x, &lookup).unwrap();
        let b = run_var(&fused, &x, &lookup).unwrap();
        assert_eq!(a.to_array().as_slice(), b.to_array().as_slice());
    }
}
