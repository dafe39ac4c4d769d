//! Closed-loop serving load bench: the continuous-batching `Server` against serial
//! one-request-at-a-time serving, swept over offered load × request-length mix.
//!
//! Each load point runs a fixed-duration closed loop: `clients` threads each submit a
//! request, wait for the answer, and immediately submit the next — offered load scales
//! with the client count. The serial baseline serves the same traffic through a
//! mutex-serialized single-call `InferSession` (the service discipline `rita-infer`
//! had before the server existed): its throughput is pinned at the one-at-a-time rate
//! while queueing pushes its tail latency up with every added client. The continuous
//! server instead folds concurrent same-length requests into predictor-sized batches,
//! so throughput climbs with load.
//!
//! Before any timing, every request in every mix is served once through the server
//! and asserted **bit-identical** to the single-call `InferSession` logits — the
//! batching layer must be invisible in the answers.
//!
//! Rows go to `BENCH_serving.json` (`BENCH_serving.quick.json` under `RITA_QUICK=1`,
//! as CI runs it): mode × mix × clients with throughput, p50/p99 latency, shed rate,
//! and the mean executed batch size.
//!
//! A third mode, `chaos`, reruns the top load point with a worker panic injected
//! every 500th batch (every 50th under `RITA_QUICK`): the fault-injection row
//! quantifies what supervised respawn costs against the clean `continuous` row —
//! crashed batches fail typed, everything else keeps its exactness guarantee.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rita_core::attention::AttentionKind;
use rita_core::checkpoint::Checkpoint;
use rita_core::model::RitaConfig;
use rita_core::tasks::Classifier;
use rita_infer::chaos::{self, ChaosConfig, Injection};
use rita_infer::{BreakerPolicy, InferSession, ModelRegistry, ServeError, Server, ServerConfig};
use rita_tensor::{worker_budget, NdArray, SeedableRng64};

fn quick() -> bool {
    std::env::var("RITA_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The serving-shaped classifier the inference bench uses (fused group attention,
/// frozen schedule).
fn checkpoint() -> Checkpoint {
    let mut rng = SeedableRng64::seed_from_u64(7);
    let config = RitaConfig {
        channels: 3,
        max_len: 120,
        d_model: 32,
        n_layers: 2,
        ff_hidden: 64,
        dropout: 0.0,
        attention: AttentionKind::Group { epsilon: 2.0, initial_groups: 8, adaptive: false },
        ..Default::default()
    };
    Checkpoint::of_classifier(&Classifier::new(config, 5, &mut rng), None)
}

/// A quantization-sized classifier (d_model 256): at this width the projection and
/// FFN GEMMs dominate each batch, so the f32-vs-int8 serving rows measure the
/// kernels rather than batching overhead.
fn large_checkpoint() -> Checkpoint {
    let mut rng = SeedableRng64::seed_from_u64(7);
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
    Checkpoint::of_classifier(&Classifier::new(config, 5, &mut rng), None)
}

/// One measured load point.
struct Row {
    mix: &'static str,
    mode: &'static str,
    clients: usize,
    duration_s: f64,
    served: usize,
    shed: u64,
    throughput_rps: f64,
    p50_us: u64,
    p99_us: u64,
    mean_batch: f64,
    /// Admitted requests that came back as typed failures (crashed batches).
    failed: u64,
    /// Worker panics injected during the window (`chaos` mode only).
    panics: u64,
}

fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((q * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1]
}

/// Runs one fixed-duration closed loop: `clients` threads round-robin over
/// `requests`, calling `serve` and recording per-request latency. Only completions
/// after the warmup cut count.
fn closed_loop(
    clients: usize,
    requests: &[NdArray],
    warmup: Duration,
    window: Duration,
    serve: impl Fn(usize, &NdArray) -> bool + Sync,
) -> (usize, Vec<u64>, f64) {
    let start = Instant::now();
    let deadline = start + warmup + window;
    let latencies: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let serve = &serve;
                s.spawn(move || {
                    let mut recorded = Vec::new();
                    let mut i = c; // phase-shift clients across the length mix
                    loop {
                        let begin = Instant::now();
                        if begin >= deadline {
                            return recorded;
                        }
                        let ok = serve(c, &requests[i % requests.len()]);
                        let end = Instant::now();
                        if ok && end.duration_since(start) >= warmup && end <= deadline {
                            recorded.push(end.duration_since(begin).as_micros() as u64);
                        }
                        i += 1;
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut all: Vec<u64> = latencies.into_iter().flatten().collect();
    all.sort_unstable();
    let measured = start.elapsed().as_secs_f64() - warmup.as_secs_f64();
    (all.len(), all, measured)
}

fn main() {
    let quick = quick();
    let ckpt = checkpoint();
    let session = InferSession::from_checkpoint(&ckpt).expect("load checkpoint");
    let workers = worker_budget().min(2);
    let server_config = ServerConfig {
        workers,
        max_batch: 6,
        slo: Duration::from_millis(50),
        linger: Duration::from_micros(100),
        ..Default::default()
    };

    // Two length mixes: clients cycle through a mix phase-shifted, so the live queue
    // always holds several lengths and the batcher has to bucket.
    let mixes: &[(&str, &[usize])] = &[("short", &[48, 64]), ("long", &[88, 120])];
    let loads: &[usize] = if quick { &[2, 6] } else { &[2, 6, 16] };
    let (warmup, window) = if quick {
        (Duration::from_millis(100), Duration::from_millis(400))
    } else {
        (Duration::from_millis(300), Duration::from_secs(3))
    };

    let mut rng = SeedableRng64::seed_from_u64(11);
    let request_sets: Vec<(&str, Vec<NdArray>)> = mixes
        .iter()
        .map(|(name, lengths)| {
            let reqs = (0..8)
                .map(|i| NdArray::randn(&[3, lengths[i % lengths.len()]], 1.0, &mut rng))
                .collect();
            (*name, reqs)
        })
        .collect();

    // Parity gate: every request must come back from the server bit-identical to the
    // single-call session before anything is timed.
    {
        let registry = Arc::new(ModelRegistry::new());
        registry.publish(&ckpt).expect("publish checkpoint");
        let server = Server::start(registry, server_config);
        for (mix, requests) in &request_sets {
            for (i, r) in requests.iter().enumerate() {
                let want = session.classify_logits(std::slice::from_ref(r)).expect("single-call");
                let got = server.classify("parity", r.clone()).expect("served");
                assert_eq!(
                    got.logits.as_slice(),
                    want[0].as_slice(),
                    "mix {mix} request {i}: served logits diverged from the single-call session"
                );
            }
        }
        server.shutdown();
        println!("parity: every served output is bit-identical to the single-call session");
    }

    let mut rows: Vec<Row> = Vec::new();
    for (mix, requests) in &request_sets {
        for &clients in loads {
            // Serial baseline: the same closed-loop traffic, one request at a time.
            let serial = Mutex::new(&session);
            let (served, lat, secs) = closed_loop(clients, requests, warmup, window, |_, r| {
                let guard = serial.lock().expect("serial session");
                let out = guard.classify(std::slice::from_ref(r)).expect("serial classify");
                std::hint::black_box(out[0].class);
                true
            });
            rows.push(Row {
                mix,
                mode: "serial",
                clients,
                duration_s: secs,
                served,
                shed: 0,
                throughput_rps: served as f64 / secs,
                p50_us: percentile(&lat, 0.5),
                p99_us: percentile(&lat, 0.99),
                mean_batch: 1.0,
                failed: 0,
                panics: 0,
            });

            // Continuous batching: fresh server per load point so metrics are scoped.
            let registry = Arc::new(ModelRegistry::new());
            registry.publish(&ckpt).expect("publish checkpoint");
            let server = Server::start(registry, server_config);
            let (served, lat, secs) = closed_loop(clients, requests, warmup, window, |c, r| {
                let tenant = ["tenant-a", "tenant-b", "tenant-c"][c % 3];
                server.classify(tenant, r.clone()).is_ok()
            });
            let snap = server.metrics().snapshot();
            rows.push(Row {
                mix,
                mode: "continuous",
                clients,
                duration_s: secs,
                served,
                shed: snap.shed(),
                throughput_rps: served as f64 / secs,
                p50_us: percentile(&lat, 0.5),
                p99_us: percentile(&lat, 0.99),
                mean_batch: snap.batch_size.mean,
                failed: snap.tenants.iter().map(|(_, t)| t.failed).sum(),
                panics: 0,
            });
            server.shutdown();

            let (s, c) = (&rows[rows.len() - 2], &rows[rows.len() - 1]);
            println!(
                "{mix:>5} x{clients:<2} serial {:>7.0} r/s (p99 {:>6}us) | continuous {:>7.0} r/s \
                 (p99 {:>6}us, mean batch {:.1})",
                s.throughput_rps, s.p99_us, c.throughput_rps, c.p99_us, c.mean_batch
            );
        }

        // Fault-injection row at the top load point: one worker panic per `crash_every`
        // batches. The breaker is disabled — the row measures the raw cost of crashed
        // batches + supervised respawn, not reject-fast behaviour.
        let clients = loads.iter().copied().max().unwrap();
        let crash_every = if quick { 50 } else { 500 };
        let registry = Arc::new(ModelRegistry::new());
        registry.publish(&ckpt).expect("publish checkpoint");
        let mut chaos_cfg = server_config;
        chaos_cfg.breaker = BreakerPolicy { threshold: 0, ..Default::default() };
        let server = Server::start(registry, chaos_cfg);
        let guard = chaos::inject(ChaosConfig {
            worker_panic: Injection::every(crash_every),
            ..Default::default()
        });
        let (served, lat, secs) = closed_loop(clients, requests, warmup, window, |c, r| {
            let tenant = ["tenant-a", "tenant-b", "tenant-c"][c % 3];
            match server.classify(tenant, r.clone()) {
                Ok(_) => true,
                Err(ServeError::Internal { .. }) | Err(ServeError::Overloaded { .. }) => false,
                Err(e) => panic!("unexpected serve error under chaos: {e}"),
            }
        });
        drop(guard);
        let snap = server.metrics().snapshot();
        rows.push(Row {
            mix,
            mode: "chaos",
            clients,
            duration_s: secs,
            served,
            shed: snap.shed(),
            throughput_rps: served as f64 / secs,
            p50_us: percentile(&lat, 0.5),
            p99_us: percentile(&lat, 0.99),
            mean_batch: snap.batch_size.mean,
            failed: snap.tenants.iter().map(|(_, t)| t.failed).sum(),
            panics: snap.faults.worker_panics,
        });
        server.shutdown();
        let r = rows.last().unwrap();
        println!(
            "{mix:>5} x{clients:<2} chaos  {:>7.0} r/s (p99 {:>6}us, {} panics, {} failed, \
             1 crash per {crash_every} batches)",
            r.throughput_rps, r.p99_us, r.panics, r.failed
        );
    }

    // Precision rows (ISSUE 10): the d_model-256 model served f32 against int8 at
    // the top load point. Both servers run the same continuous-batching discipline
    // over identical traffic; the only difference is the published checkpoint (f32
    // or its offline int8 quantization), so the throughput ratio isolates the
    // quantized kernels.
    let top = loads.iter().copied().max().unwrap();
    let large = large_checkpoint();
    let large_int8 = large.quantize();
    for (mix, requests) in &request_sets {
        for (mode, ckpt) in [("continuous_f32_d256", &large), ("continuous_int8_d256", &large_int8)]
        {
            let registry = Arc::new(ModelRegistry::new());
            registry.publish(ckpt).expect("publish d256 checkpoint");
            let server = Server::start(Arc::clone(&registry), server_config);
            // Sanity before timing: the served answer must be finite at this
            // precision (bit-parity is an f32-only guarantee).
            let probe = server.classify("parity", requests[0].clone()).expect("probe request");
            assert!(
                probe.logits.as_slice().iter().all(|v| v.is_finite()),
                "{mode}: served logits must be finite"
            );
            let (served, lat, secs) = closed_loop(top, requests, warmup, window, |c, r| {
                let tenant = ["tenant-a", "tenant-b", "tenant-c"][c % 3];
                server.classify(tenant, r.clone()).is_ok()
            });
            let snap = server.metrics().snapshot();
            rows.push(Row {
                mix,
                mode,
                clients: top,
                duration_s: secs,
                served,
                shed: snap.shed(),
                throughput_rps: served as f64 / secs,
                p50_us: percentile(&lat, 0.5),
                p99_us: percentile(&lat, 0.99),
                mean_batch: snap.batch_size.mean,
                failed: snap.tenants.iter().map(|(_, t)| t.failed).sum(),
                panics: 0,
            });
            server.shutdown();
            let r = rows.last().unwrap();
            println!(
                "{mix:>5} x{top:<2} {mode:<20} {:>7.0} r/s (p99 {:>6}us, mean batch {:.1})",
                r.throughput_rps, r.p99_us, r.mean_batch
            );
        }
    }

    // The headline the sweep exists for: at the highest load point, batching wins.
    for (mix, _) in &request_sets {
        let top = loads.iter().copied().max().unwrap();
        let find = |mode: &str| {
            rows.iter()
                .find(|r| r.mix == *mix && r.mode == mode && r.clients == top)
                .expect("row present")
        };
        let (serial, continuous) = (find("serial"), find("continuous"));
        println!(
            "mix {mix}: continuous/serial throughput at {top} clients = {:.2}x",
            continuous.throughput_rps / serial.throughput_rps
        );
        let faulted = find("chaos");
        println!(
            "mix {mix}: chaos/clean throughput at {top} clients = {:.2}x ({} crashed batches)",
            faulted.throughput_rps / continuous.throughput_rps,
            faulted.failed
        );
        let (f32_row, int8_row) = (find("continuous_f32_d256"), find("continuous_int8_d256"));
        let speedup = int8_row.throughput_rps / f32_row.throughput_rps;
        println!("mix {mix}: int8/f32 d256 throughput at {top} clients = {speedup:.2}x");
        // ISSUE 10's serving acceptance bar; quick CI smoke runs only report.
        assert!(
            quick || speedup >= 1.2,
            "quantized serving must be >= 1.2x f32 at the top load point, got {speedup:.2}x"
        );
    }

    if let Err(e) = write_json(&rows, workers, quick) {
        eprintln!("failed to write BENCH_serving.json: {e}");
        std::process::exit(1);
    }
}

/// Same hand-rolled emitter as the attention and inference benches; quick-mode runs
/// write a sibling file so CI smoke runs never truncate the committed full-mode rows.
fn write_json(rows: &[Row], workers: usize, quick: bool) -> std::io::Result<()> {
    use std::io::Write;
    let default_name = if quick { "BENCH_serving.quick.json" } else { "BENCH_serving.json" };
    let path = std::env::var("RITA_BENCH_JSON")
        .unwrap_or_else(|_| format!("{}/../../{default_name}", env!("CARGO_MANIFEST_DIR")));
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"benchmark\": \"serving_load\",")?;
    writeln!(f, "  \"quick\": {quick},")?;
    writeln!(f, "  \"workers\": {workers},")?;
    writeln!(f, "  \"results\": [")?;
    for (i, r) in rows.iter().enumerate() {
        let shed_rate = r.shed as f64 / (r.served as f64 + r.shed as f64).max(1.0);
        let comma = if i + 1 < rows.len() { "," } else { "" };
        writeln!(
            f,
            "    {{\"mix\": \"{}\", \"mode\": \"{}\", \"clients\": {}, \
             \"duration_s\": {:.3}, \"served\": {}, \"shed\": {}, \"shed_rate\": {:.4}, \
             \"throughput_rps\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, \
             \"mean_batch\": {:.2}, \"failed\": {}, \"worker_panics\": {}}}{}",
            r.mix,
            r.mode,
            r.clients,
            r.duration_s,
            r.served,
            r.shed,
            shed_rate,
            r.throughput_rps,
            r.p50_us,
            r.p99_us,
            r.mean_batch,
            r.failed,
            r.panics,
            comma
        )?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    println!("\nwrote {} ({} results)", path, rows.len());
    Ok(())
}
