//! Inference-throughput benchmark: the `no_grad` autograd forward (the only serving
//! path before `rita-infer` existed) against the planned-graph executor, on a fused
//! group-attention classifier, swept over batch size × head count.
//!
//! The plan path compiles the forward graph once per `(batch, length)` bucket —
//! topological schedule, peephole-fused nodes, ahead-of-time buffer lifetimes — and
//! interprets it with no per-op `Var` allocation and pool-recycled activation
//! buffers, so its advantage is largest at small batches where per-op overhead
//! dominates the kernel time — exactly the regime a low-latency serving tier lives
//! in. Steady-state timing includes plan-cache hits only (the one-time compile
//! happens in the warm-up parity check).
//!
//! Besides the human-readable table (with requests/s), every measurement goes to
//! `BENCH_inference.json` (`BENCH_inference.quick.json` under `RITA_QUICK=1`, as CI
//! runs it), mirroring the attention bench's machine-readable emitter.

use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::SeedableRng;
use rita_core::attention::AttentionKind;
use rita_core::checkpoint::Checkpoint;
use rita_core::model::RitaConfig;
use rita_core::tasks::Classifier;
use rita_infer::InferModel;
use rita_nn::no_grad;
use rita_tensor::{NdArray, QuantMatrix, SeedableRng64};

fn quick() -> bool {
    std::env::var("RITA_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// A small serving-shaped classifier: fused group attention, frozen schedule.
fn classifier(heads: usize, rng: &mut SeedableRng64) -> Classifier {
    let config = RitaConfig {
        channels: 3,
        max_len: 120,
        d_model: 32,
        n_heads: heads,
        n_layers: 2,
        ff_hidden: 64,
        dropout: 0.0,
        attention: AttentionKind::Group { epsilon: 2.0, initial_groups: 8, adaptive: false },
        ..Default::default()
    };
    Classifier::new(config, 5, rng)
}

fn bench_inference(c: &mut Criterion) {
    let batches: &[usize] = if quick() { &[1, 4] } else { &[1, 4, 16] };
    let head_counts: &[usize] = if quick() { &[2] } else { &[2, 4] };
    for &heads in head_counts {
        let mut rng = SeedableRng64::seed_from_u64(7);
        let mut clf = classifier(heads, &mut rng);
        let infer = InferModel::from_checkpoint(&Checkpoint::of_classifier(&clf, None))
            .expect("load checkpoint into the planned-graph engine");
        let group_name = format!("inference_forward_h{heads}");
        let mut group = c.benchmark_group(&group_name);
        group.sample_size(if quick() { 3 } else { 10 });
        for &b in batches {
            let x = NdArray::randn(&[b, 3, 120], 1.0, &mut rng);
            // Sanity: both paths agree bit-for-bit before we time them (this also
            // compiles and caches the plan, so the timed loop is all cache hits).
            let reference = no_grad(|| clf.logits(&x, false, &mut rng).to_array());
            assert_eq!(
                reference.as_slice(),
                infer.logits(&x).as_slice(),
                "planned forward diverged from the no_grad Var forward"
            );
            group.bench_with_input(BenchmarkId::new("var_no_grad", b), &b, |bch, _| {
                bch.iter(|| no_grad(|| clf.logits(&x, false, &mut rng).to_array()));
            });
            group.bench_with_input(BenchmarkId::new("planned", b), &b, |bch, _| {
                bch.iter(|| infer.logits(&x));
            });
        }
        group.finish();
    }
}

/// The precision rows ISSUE 10's acceptance criterion reads: `matmul` against
/// `matmul_quant` on inference-shaped GEMMs — skinny activations against wide
/// projection weights, the shape every transformer projection and FFN layer
/// executes. The int8 path must clear 1.5x; `main` enforces that on full runs.
fn bench_precision(c: &mut Criterion) {
    let shapes: &[(usize, usize, usize)] = if quick() {
        &[(4, 256, 1024)]
    } else {
        &[(4, 256, 1024), (16, 512, 512), (64, 256, 1024)]
    };
    let mut rng = SeedableRng64::seed_from_u64(13);
    for &(m, k, n) in shapes {
        let a = NdArray::randn(&[m, k], 1.0, &mut rng);
        let w = NdArray::randn(&[k, n], 0.05, &mut rng);
        let wq = QuantMatrix::quantize(w.as_slice(), k, n);
        // Sanity before timing: the quantized product must stay within per-channel
        // quantization error of the exact one (coarse bound; the tight ones live in
        // the rita-tensor unit tests and tests/quantized_accuracy.rs).
        let exact = a.matmul(&w).expect("f32 gemm");
        let approx = a.matmul_quant(&wq).expect("int8 gemm");
        for (e, q) in exact.as_slice().iter().zip(approx.as_slice()) {
            assert!((e - q).abs() < 0.5, "int8 gemm diverged: {e} vs {q}");
        }
        let group_name = format!("gemm_k{k}_n{n}");
        let mut group = c.benchmark_group(&group_name);
        group.sample_size(if quick() { 3 } else { 10 });
        group.bench_with_input(BenchmarkId::new("f32", m), &m, |bch, _| {
            bch.iter(|| a.matmul(&w).expect("f32 gemm"));
        });
        group.bench_with_input(BenchmarkId::new("int8", m), &m, |bch, _| {
            bch.iter(|| a.matmul_quant(&wq).expect("int8 gemm"));
        });
        group.finish();
    }

    // Model-level precision rows on a quantization-sized classifier (d_model 256):
    // the whole planned forward from the f32 checkpoint vs its offline int8 twin.
    let config = RitaConfig {
        channels: 3,
        max_len: 120,
        d_model: 256,
        n_heads: 8,
        n_layers: 2,
        ff_hidden: 1024,
        dropout: 0.0,
        attention: AttentionKind::Group { epsilon: 2.0, initial_groups: 8, adaptive: false },
        ..Default::default()
    };
    let ckpt = Checkpoint::of_classifier(&Classifier::new(config, 5, &mut rng), None);
    let variants = [("planned_f32", ckpt.clone()), ("planned_int8", ckpt.quantize())];
    let batches: &[usize] = if quick() { &[4] } else { &[4, 16] };
    let mut group = c.benchmark_group("inference_forward_d256");
    group.sample_size(if quick() { 3 } else { 10 });
    for &b in batches {
        let x = NdArray::randn(&[b, 3, 120], 1.0, &mut rng);
        for (name, ckpt) in &variants {
            let model = InferModel::from_checkpoint(ckpt).expect("load checkpoint");
            assert!(
                model.logits(&x).as_slice().iter().all(|v| v.is_finite()),
                "{name} forward produced non-finite logits"
            );
            group.bench_with_input(BenchmarkId::new(*name, b), &b, |bch, _| {
                bch.iter(|| model.logits(&x));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_inference, bench_precision);

/// Serialises the recorded measurements to `BENCH_inference.json` (same hand-rolled
/// writer as the attention bench; quick-mode runs write a sibling file so CI smoke
/// runs never truncate the committed full-mode rows).
fn write_json(records: &[criterion::BenchRecord]) -> std::io::Result<()> {
    use std::io::Write;
    let default_name = if quick() { "BENCH_inference.quick.json" } else { "BENCH_inference.json" };
    let path = std::env::var("RITA_BENCH_JSON")
        .unwrap_or_else(|_| format!("{}/../../{default_name}", env!("CARGO_MANIFEST_DIR")));
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"benchmark\": \"inference_forward\",")?;
    writeln!(f, "  \"quick\": {},", quick())?;
    writeln!(f, "  \"results\": [")?;
    for (i, r) in records.iter().enumerate() {
        let (variant, b) = r.name.split_once('/').unwrap_or((r.name.as_str(), "0"));
        let batch: f64 = b.parse().unwrap_or(0.0);
        let mean_ns = r.mean_ns as f64;
        let requests_per_s = if mean_ns > 0.0 { batch * 1e9 / mean_ns } else { 0.0 };
        let comma = if i + 1 < records.len() { "," } else { "" };
        writeln!(
            f,
            "    {{\"config\": \"{}\", \"variant\": \"{}\", \"batch\": {}, \
             \"mean_ns\": {}, \"min_ns\": {}, \"requests_per_s\": {:.1}, \
             \"samples\": {}}}{}",
            r.group, variant, b, r.mean_ns, r.min_ns, requests_per_s, r.samples, comma
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

    // Headline for the precision rows: int8 GEMM speedup per shape. Full runs
    // enforce ISSUE 10's >= 1.5x acceptance bar; quick CI smoke runs only report.
    for r in &records {
        if !r.group.starts_with("gemm_") || !r.name.starts_with("int8/") {
            continue;
        }
        let twin = r.name.replace("int8/", "f32/");
        let f32_row = records
            .iter()
            .find(|c| c.group == r.group && c.name == twin)
            .expect("every int8 gemm row has an f32 twin");
        let speedup = f32_row.mean_ns as f64 / r.mean_ns.max(1) as f64;
        println!(
            "{} m={}: int8/f32 speedup {speedup:.2}x",
            r.group,
            r.name.trim_start_matches("int8/")
        );
        assert!(
            quick() || speedup >= 1.5,
            "int8 GEMM must be >= 1.5x f32 at inference shapes, got {speedup:.2}x for {}",
            r.group
        );
    }

    if let Err(e) = write_json(&records) {
        eprintln!("failed to write BENCH_inference.json: {e}");
        std::process::exit(1);
    }
}
