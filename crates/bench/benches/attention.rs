//! Criterion micro-benchmarks for the attention mechanisms: forward-pass cost as the
//! number of windows grows. This is the micro-level version of Fig. 4(b) and the §6.3.2
//! speed-up claim — group attention's advantage over vanilla attention should widen with
//! the sequence length.
//!
//! Besides the human-readable table on stdout, the run writes every measurement to
//! `BENCH_attention.json` (config, n, mean, min per variant) so the perf trajectory
//! tracked in `CHANGES.md` is diffable across PRs. `RITA_QUICK=1` shrinks the sweep to
//! seconds-scale smoke sizes (CI runs it on every push and uploads the JSON artifact).

use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::SeedableRng;
use rita_core::attention::{
    Attention, GroupAttention, GroupAttentionConfig, LinformerAttention, PerformerAttention,
    VanillaAttention,
};
use rita_nn::{no_grad, Var};
use rita_tensor::{NdArray, SeedableRng64};

fn quick() -> bool {
    std::env::var("RITA_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn qkv(n: usize, dh: usize, seed: u64) -> (Var, Var, Var) {
    let mut rng = SeedableRng64::seed_from_u64(seed);
    // Periodic-looking keys: a handful of prototypes plus small noise, the regime group
    // attention exploits.
    let prototypes = NdArray::randn(&[8, dh], 1.0, &mut rng);
    let mut kdata = Vec::with_capacity(n * dh);
    for i in 0..n {
        let p = i % 8;
        for j in 0..dh {
            kdata.push(prototypes.as_slice()[p * dh + j] + 0.05 * (i as f32 % 3.0));
        }
    }
    let k = Var::constant(NdArray::from_vec(kdata, &[1, 1, n, dh]).unwrap());
    let q = Var::constant(NdArray::randn(&[1, 1, n, dh], 1.0, &mut rng));
    let v = Var::constant(NdArray::randn(&[1, 1, n, dh], 1.0, &mut rng));
    (q, k, v)
}

fn group_config(initial_groups: usize) -> GroupAttentionConfig {
    GroupAttentionConfig { initial_groups, adaptive: false, ..Default::default() }
}

fn bench_attention_forward(c: &mut Criterion) {
    let dh = 32;
    let mut group = c.benchmark_group("attention_forward");
    group.sample_size(if quick() { 3 } else { 10 });
    let ns: &[usize] = if quick() { &[64, 256] } else { &[256, 1024, 4096] };
    for &n in ns {
        let (q, k, v) = qkv(n, dh, 1);
        let groups = 16.min(n);
        group.bench_with_input(BenchmarkId::new("vanilla", n), &n, |b, _| {
            let mut attn = VanillaAttention::new();
            b.iter(|| no_grad(|| attn.forward(&q, &k, &v).to_array()));
        });
        group.bench_with_input(BenchmarkId::new("group", n), &n, |b, _| {
            let mut attn = GroupAttention::new(group_config(groups));
            b.iter(|| no_grad(|| attn.forward(&q, &k, &v).to_array()));
        });
        group.bench_with_input(BenchmarkId::new("performer", n), &n, |b, _| {
            let mut rng = SeedableRng64::seed_from_u64(2);
            let mut attn = PerformerAttention::new(dh, 32, &mut rng);
            b.iter(|| no_grad(|| attn.forward(&q, &k, &v).to_array()));
        });
        group.bench_with_input(BenchmarkId::new("linformer", n), &n, |b, _| {
            let mut rng = SeedableRng64::seed_from_u64(3);
            let mut attn = LinformerAttention::new(n, 32, &mut rng);
            b.iter(|| no_grad(|| attn.forward(&q, &k, &v).to_array()));
        });
    }
    group.finish();
}

/// Multi-head configuration: exercises the head-split views and the batched kernels'
/// batch×heads parallelism (batch 4 × heads 8), the regime the encoder actually runs.
fn qkv_multihead(b: usize, h: usize, n: usize, dh: usize, seed: u64) -> (Var, Var, Var) {
    let mut rng = SeedableRng64::seed_from_u64(seed);
    let prototypes = NdArray::randn(&[8, dh], 1.0, &mut rng);
    let mut kdata = Vec::with_capacity(b * h * n * dh);
    for _ in 0..b * h {
        for i in 0..n {
            let p = i % 8;
            for j in 0..dh {
                kdata.push(prototypes.as_slice()[p * dh + j] + 0.05 * (i as f32 % 3.0));
            }
        }
    }
    let k = Var::constant(NdArray::from_vec(kdata, &[b, h, n, dh]).unwrap());
    let q = Var::constant(NdArray::randn(&[b, h, n, dh], 1.0, &mut rng));
    let v = Var::constant(NdArray::randn(&[b, h, n, dh], 1.0, &mut rng));
    (q, k, v)
}

fn bench_attention_forward_multihead(c: &mut Criterion) {
    let (b, h, dh) = (4, 8, 32);
    let mut group = c.benchmark_group("attention_forward_b4h8");
    group.sample_size(if quick() { 3 } else { 10 });
    let ns: &[usize] = if quick() { &[64] } else { &[256, 1024] };
    for &n in ns {
        let (q, k, v) = qkv_multihead(b, h, n, dh, 1);
        let groups = 16.min(n);
        group.bench_with_input(BenchmarkId::new("vanilla", n), &n, |bch, _| {
            let mut attn = VanillaAttention::new();
            bch.iter(|| no_grad(|| attn.forward(&q, &k, &v).to_array()));
        });
        group.bench_with_input(BenchmarkId::new("group", n), &n, |bch, _| {
            let mut attn = GroupAttention::new(group_config(groups));
            bch.iter(|| no_grad(|| attn.forward(&q, &k, &v).to_array()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_attention_forward, bench_attention_forward_multihead);

/// Human-readable config label for a benchmark group name.
fn config_label(group: &str) -> &'static str {
    match group {
        "attention_forward" => "b1 h1 dh32",
        "attention_forward_b4h8" => "b4 h8 dh32",
        _ => "unknown",
    }
}

/// Serialises the recorded measurements to `BENCH_attention.json` (no JSON dependency in
/// the workspace, so the writer is hand-rolled; every emitted value is a number or a
/// string without escapes).
fn write_json(records: &[criterion::BenchRecord]) -> std::io::Result<()> {
    use std::io::Write;
    // Cargo runs bench binaries from the package directory; anchor the default output
    // at the workspace root so CI and humans find one canonical file. Quick-mode runs
    // (CI smoke, local sanity checks) write a sibling file instead of truncating the
    // committed full-mode rows that CHANGES.md tracks across PRs.
    let default_name = if quick() { "BENCH_attention.quick.json" } else { "BENCH_attention.json" };
    let path = std::env::var("RITA_BENCH_JSON")
        .unwrap_or_else(|_| format!("{}/../../{default_name}", env!("CARGO_MANIFEST_DIR")));
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"benchmark\": \"attention_forward\",")?;
    writeln!(f, "  \"quick\": {},", quick())?;
    writeln!(f, "  \"results\": [")?;
    for (i, r) in records.iter().enumerate() {
        let (variant, n) = r.name.split_once('/').unwrap_or((r.name.as_str(), "0"));
        let comma = if i + 1 < records.len() { "," } else { "" };
        writeln!(
            f,
            "    {{\"config\": \"{}\", \"variant\": \"{}\", \"n\": {}, \
             \"mean_ns\": {}, \"min_ns\": {}, \"samples\": {}}}{}",
            config_label(&r.group),
            variant,
            n,
            r.mean_ns,
            r.min_ns,
            r.samples,
            comma
        )?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    println!("\nwrote {} ({} results)", path, records.len());
    Ok(())
}

fn main() {
    benches();
    let records = criterion::take_records();
    if let Err(e) = write_json(&records) {
        eprintln!("failed to write BENCH_attention.json: {e}");
        std::process::exit(1);
    }
}
