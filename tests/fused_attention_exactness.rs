//! Property sweeps for the fused streaming attention kernels.
//!
//! Each attention mechanism has one formulation, the fused online-softmax kernel; these
//! sweeps pin it to a test-local reference. Vanilla attention is compared against the
//! explicit `Q·Kᵀ → softmax → ·V` chain, group attention against the paper's
//! expanded-key identity (`common::expanded_key_attention`, the same chain over keys
//! replaced by their group representatives), and on one configuration also against the
//! paper's group-softmax form over the `N` representatives. For every configuration —
//! including shapes that are not multiples of the kernel's tile sizes, `d_h = 1`, a
//! single group, and strided head-split inputs — the fused output and all three input
//! gradients must match the reference within 1e-4 (the fused kernel uses a polynomial
//! `exp` with ≈ 4e-6 relative error, and tiles its sums in a different association
//! order).

mod common;

use common::expanded_key_attention;
use rand::SeedableRng;
use rita::core::attention::{
    split_heads, Attention, GroupAttention, GroupAttentionConfig, VanillaAttention,
};
use rita::core::group::group_key_blocks;
use rita::nn::Var;
use rita::tensor::{allclose, NdArray, SeedableRng64};

fn rng(seed: u64) -> SeedableRng64 {
    SeedableRng64::seed_from_u64(seed)
}

/// Runs `attend` forward + backward on fresh parameters, returning the output and q/k/v
/// gradients.
fn run(
    q: &NdArray,
    k: &NdArray,
    v: &NdArray,
    attend: impl FnOnce(&Var, &Var, &Var) -> Var,
) -> (NdArray, [NdArray; 3]) {
    let (qv, kv, vv) =
        (Var::parameter(q.clone()), Var::parameter(k.clone()), Var::parameter(v.clone()));
    let out = attend(&qv, &kv, &vv);
    out.sum_all().backward();
    (out.to_array(), [qv.grad().unwrap(), kv.grad().unwrap(), vv.grad().unwrap()])
}

/// The unfused reference chain: materialised scores, softmax, then the value product.
fn unfused_attention(q: &Var, k: &Var, v: &Var) -> Var {
    let dh = *q.shape().last().unwrap() as f32;
    q.matmul_nt_scaled(k, 1.0 / dh.sqrt()).softmax_last().matmul(v)
}

fn assert_close(label: &str, fused: &NdArray, oracle: &NdArray) {
    assert!(
        allclose(fused.as_slice(), oracle.as_slice(), 1e-4, 1e-4),
        "{label}: fused kernel and reference disagree"
    );
}

/// Vanilla fused == unfused for outputs and gradients across odd shapes: sequence
/// lengths off every tile boundary (Q_BLOCK = 32, K_BLOCK = 128) and head dims down
/// to 1.
#[test]
fn vanilla_fused_matches_unfused_across_shapes() {
    for &(b, h, n, dh, seed) in &[
        (1usize, 1usize, 1usize, 4usize, 1u64),
        (1, 1, 5, 1, 2),
        (2, 2, 33, 3, 3),
        (1, 2, 64, 8, 4),
        (1, 1, 129, 2, 5),
        (1, 1, 160, 5, 6),
    ] {
        let mut r = rng(seed);
        let q = NdArray::randn(&[b, h, n, dh], 1.0, &mut r);
        let k = NdArray::randn(&[b, h, n, dh], 1.0, &mut r);
        let v = NdArray::randn(&[b, h, n, dh], 1.0, &mut r);
        let (out_f, grads_f) = run(&q, &k, &v, |q, k, v| VanillaAttention::new().forward(q, k, v));
        let (out_u, grads_u) = run(&q, &k, &v, unfused_attention);
        assert_close(&format!("out (b={b}, h={h}, n={n}, dh={dh})"), &out_f, &out_u);
        for (name, (gf, gu)) in ["dq", "dk", "dv"].iter().zip(grads_f.iter().zip(&grads_u)) {
            assert_close(&format!("{name} (b={b}, h={h}, n={n}, dh={dh})"), gf, gu);
        }
    }
}

/// The fused kernel consumes the strided views produced by `split_heads` directly; the
/// whole head-split → attention → gradient pipeline must match the unfused chain.
#[test]
fn vanilla_fused_matches_unfused_through_split_heads() {
    let (b, n, d_model, heads) = (2usize, 21usize, 12usize, 3usize);
    let mut r = rng(17);
    let q3 = NdArray::randn(&[b, n, d_model], 1.0, &mut r);
    let k3 = NdArray::randn(&[b, n, d_model], 1.0, &mut r);
    let v3 = NdArray::randn(&[b, n, d_model], 1.0, &mut r);
    let split = |attend: fn(&Var, &Var, &Var) -> Var| {
        run(&q3, &k3, &v3, |q, k, v| {
            attend(&split_heads(q, heads), &split_heads(k, heads), &split_heads(v, heads))
        })
    };
    let (out_f, grads_f) = split(|q, k, v| VanillaAttention::new().forward(q, k, v));
    let (out_u, grads_u) = split(unfused_attention);
    assert_close("split-heads out", &out_f, &out_u);
    for (name, (gf, gu)) in ["dq", "dk", "dv"].iter().zip(grads_f.iter().zip(&grads_u)) {
        assert_close(&format!("split-heads {name}"), gf, gu);
    }
}

/// Group attention (sparse segment sums + fused weighted-softmax kernel) == the
/// expanded-key reference for outputs and gradients on arbitrary, non-exact groupings,
/// including a single group (N = 1), n below/above the key-tile size, and dh = 1.
#[test]
fn group_fused_matches_unfused_across_shapes() {
    for &(b, h, n, dh, groups, seed) in &[
        (1usize, 1usize, 8usize, 4usize, 1usize, 21u64),
        (1, 1, 12, 1, 3, 22),
        (2, 2, 30, 6, 5, 23),
        (1, 2, 50, 3, 7, 24),
        (1, 1, 140, 4, 9, 25),
    ] {
        let mut r = rng(seed);
        let q = NdArray::randn(&[b, h, n, dh], 1.0, &mut r);
        let k = NdArray::randn(&[b, h, n, dh], 1.0, &mut r);
        let v = NdArray::randn(&[b, h, n, dh], 1.0, &mut r);
        let mut attn = GroupAttention::new(GroupAttentionConfig {
            initial_groups: groups,
            min_groups: 1,
            adaptive: false,
            kmeans_iters: 4,
            ..Default::default()
        });
        assert_eq!(attn.effective_groups(n), groups);
        let (out_f, grads_f) = run(&q, &k, &v, |q, k, v| attn.forward(q, k, v));
        let (out_u, grads_u) =
            run(&q, &k, &v, |q, k, v| expanded_key_attention(q, k, v, groups, 4));
        let label = format!("(b={b}, h={h}, n={n}, dh={dh}, N={groups})");
        assert_close(&format!("group out {label}"), &out_f, &out_u);
        for (name, (gf, gu)) in ["dq", "dk", "dv"].iter().zip(grads_f.iter().zip(&grads_u)) {
            assert_close(&format!("group {name} {label}"), gf, gu);
        }
    }
}

/// Group attention in the paper's group-softmax form (§4.2): scores against the `N`
/// group representatives `R = M·K` (`M[g][j] = [g(j) = g] / count_g`), a softmax whose
/// logits are shifted by `ln count_g`, and a product with the group mean values `M·V`.
/// It works on `N` columns, where the expanded-key reference works on `n`, and shares
/// no code with either that reference or the fused kernel; only the grouping is the
/// same `group_key_blocks` clustering.
fn group_softmax_attention(q: &Var, k: &Var, v: &Var, n_groups: usize, iters: usize) -> Var {
    let shape = q.shape();
    let (b, h, n, dh) = (shape[0], shape[1], shape[2], shape[3]);
    let (mut mean, mut bias) = (Vec::new(), Vec::new());
    for g in group_key_blocks(&k.to_array(), n_groups, iters) {
        assert_eq!(g.num_groups(), n_groups);
        for (gi, &count) in g.counts.iter().enumerate() {
            let w = 1.0 / count.max(1) as f32;
            mean.extend(g.assignments.iter().map(|&gj| if gj == gi { w } else { 0.0 }));
        }
        let log_counts: Vec<f32> = g.counts.iter().map(|&c| (c as f32).ln()).collect();
        for _ in 0..n {
            bias.extend_from_slice(&log_counts);
        }
    }
    let mean = Var::constant(NdArray::from_vec(mean, &[b, h, n_groups, n]).unwrap());
    let bias = Var::constant(NdArray::from_vec(bias, &[b, h, n, n_groups]).unwrap());
    let scores = q.matmul_nt_scaled(&mean.matmul(k), 1.0 / (dh as f32).sqrt());
    scores.add(&bias).softmax_last().matmul(&mean.matmul(v))
}

/// Three-way agreement on one configuration: the fused kernel, the group-softmax form
/// over the `N` representatives, and the dense expanded-key reference over all `n` keys
/// must all tell the same story, for outputs and gradients.
#[test]
fn group_fused_sparse_and_dense_all_agree() {
    let (b, h, n, dh, groups) = (2usize, 2usize, 24usize, 4usize, 4usize);
    let mut r = rng(31);
    let q = NdArray::randn(&[b, h, n, dh], 1.0, &mut r);
    let k = NdArray::randn(&[b, h, n, dh], 1.0, &mut r);
    let v = NdArray::randn(&[b, h, n, dh], 1.0, &mut r);
    let mut attn = GroupAttention::new(GroupAttentionConfig {
        initial_groups: groups,
        min_groups: 1,
        adaptive: false,
        kmeans_iters: 4,
        ..Default::default()
    });
    assert_eq!(attn.effective_groups(n), groups);
    let (out_fused, grads_fused) = run(&q, &k, &v, |q, k, v| attn.forward(q, k, v));
    let (out_sparse, grads_sparse) =
        run(&q, &k, &v, |q, k, v| group_softmax_attention(q, k, v, groups, 4));
    let (out_dense, grads_dense) =
        run(&q, &k, &v, |q, k, v| expanded_key_attention(q, k, v, groups, 4));
    assert_close("fused vs group softmax", &out_fused, &out_sparse);
    assert_close("fused vs expanded keys", &out_fused, &out_dense);
    for (name, (gf, (gs, gd))) in
        ["dq", "dk", "dv"].iter().zip(grads_fused.iter().zip(grads_sparse.iter().zip(&grads_dense)))
    {
        assert_close(&format!("{name} fused vs group softmax"), gf, gs);
        assert_close(&format!("{name} fused vs expanded keys"), gf, gd);
    }
}

/// The fused vanilla path must still satisfy the softmax sanity property: uniform keys
/// average the values exactly.
#[test]
fn fused_vanilla_uniform_keys_average_values() {
    let q = NdArray::ones(&[1, 1, 3, 2]);
    let k = NdArray::ones(&[1, 1, 4, 2]);
    let v = NdArray::from_vec(vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 6.0, 4.0], &[1, 1, 4, 2]).unwrap();
    let mut attn = VanillaAttention::new();
    let o = attn.forward(&Var::constant(q), &Var::constant(k), &Var::constant(v)).to_array();
    for row in 0..3 {
        assert!((o.get(&[0, 0, row, 0]).unwrap() - 3.0).abs() < 1e-4);
        assert!((o.get(&[0, 0, row, 1]).unwrap() - 1.0).abs() < 1e-4);
    }
}
