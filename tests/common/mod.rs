//! The reference both group-attention sweeps compare against.

use rita::core::group::group_key_blocks;
use rita::nn::Var;
use rita::tensor::NdArray;

/// Group attention by the paper's expanded-key identity (§4.2, Appendix A.4): canonical
/// softmax attention over the keys `A·K`, where the dense `(b, h, n, n)` averaging matrix
/// `A[i][j] = [g(i) = g(j)] / count_g(i)` replaces every key by its group's
/// representative. The grouping is the deterministic `group_key_blocks` clustering the
/// module itself runs (same `n_groups` and `iters`); everything after it is the plain
/// `matmul_nt_scaled → softmax_last → matmul` chain, sharing no code with the segment
/// sums or the fused kernel under test.
pub fn expanded_key_attention(q: &Var, k: &Var, v: &Var, n_groups: usize, iters: usize) -> Var {
    let shape = q.shape();
    let (b, h, n, dh) = (shape[0], shape[1], shape[2], shape[3]);
    let mut avg = Vec::with_capacity(b * h * n * n);
    for g in group_key_blocks(&k.to_array(), n_groups, iters) {
        for &gi in &g.assignments {
            let w = 1.0 / g.counts[gi] as f32;
            avg.extend(g.assignments.iter().map(|&gj| if gj == gi { w } else { 0.0 }));
        }
    }
    let expanded = Var::constant(NdArray::from_vec(avg, &[b, h, n, n]).unwrap()).matmul(k);
    q.matmul_nt_scaled(&expanded, 1.0 / (dh as f32).sqrt()).softmax_last().matmul(v)
}
