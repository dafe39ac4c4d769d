//! `serve_small` and `serve_wide`: a group-attention classifier behind the
//! continuous-batching `Server`, first under an open-loop Poisson load (`light`), then
//! under a closed loop with a fixed number of requests outstanding (`peak`). Midway
//! through `peak` a second thread publishes a new checkpoint version.
//!
//! Every response is checked bit for bit against `InferSession::classify_logits` of
//! the version that answered it.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rita_core::attention::AttentionKind;
use rita_core::checkpoint::Checkpoint;
use rita_core::model::RitaConfig;
use rita_core::tasks::Classifier;
use rita_infer::{InferSession, MetricsSnapshot, ModelRegistry, Server, ServerConfig};
use rita_tensor::{NdArray, SeedableRng64};

use crate::calib::Reference;
use crate::report::{Metric, Outcome};
use crate::stats::{mean, median, percentile, poisson_schedule};

/// One serving workload: the model width and the load it is offered.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Model width.
    pub d_model: usize,
    /// Attention heads.
    pub n_heads: usize,
    /// Feed-forward hidden size.
    pub ff_hidden: usize,
    /// Open-loop Poisson rate of the `light` phase (requests/second).
    pub light_rate: f64,
    /// Requests the `peak` generator keeps outstanding.
    pub outstanding: usize,
}

/// The d32 serving-shaped classifier: batching and queueing dominate its latency.
pub const SMALL: ServeSpec =
    ServeSpec { d_model: 32, n_heads: 2, ff_hidden: 64, light_rate: 300.0, outstanding: 32 };
/// The d256 classifier: forward kernels dominate its latency.
pub const WIDE: ServeSpec =
    ServeSpec { d_model: 256, n_heads: 8, ff_hidden: 1024, light_rate: 100.0, outstanding: 8 };

const CHANNELS: usize = 3;
const CLASSES: usize = 5;
const LENGTHS: [usize; 4] = [48, 64, 88, 120];
/// Distinct generated inputs per length; requests draw from this pool so each
/// answer can be checked against a reference computed once per input and version.
const POOL_PER_LENGTH: usize = 16;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Share of the measured time given to the `light` phase; `peak` gets the rest.
const LIGHT_SHARE: f64 = 0.4;
/// Length of one load segment; the host-speed reference runs after each.
const SEGMENT_S: f64 = 0.5;
/// Replays per (batch, length) bucket behind `model.forward_ms`.
const REPLAYS: usize = 5;

/// The server settings every serving workload uses.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        max_batch: 16,
        slo: Duration::from_millis(50),
        linger: Duration::from_micros(100),
        ..ServerConfig::default()
    }
}

/// Human-readable description of the workload's fixed settings.
pub fn describe(spec: &ServeSpec) -> String {
    let c = server_config();
    format!(
        "d_model {}, {} heads, ff {}, 2 layers, fused group attention with frozen N=8, f32; \
         lengths {LENGTHS:?}, {POOL_PER_LENGTH} inputs per length; server workers {}, \
         max_batch {}, slo {:?}, linger {:?}; light: open-loop Poisson {} req/s for {:.0}% \
         of the run; peak: closed loop, {} outstanding, one hot-swap publish at its midpoint",
        spec.d_model,
        spec.n_heads,
        spec.ff_hidden,
        c.workers,
        c.max_batch,
        c.slo,
        c.linger,
        spec.light_rate,
        LIGHT_SHARE * 100.0,
        spec.outstanding
    )
}

fn checkpoint(spec: &ServeSpec, seed: u64) -> Checkpoint {
    let mut rng = SeedableRng64::seed_from_u64(seed);
    let config = RitaConfig {
        channels: CHANNELS,
        max_len: 120,
        d_model: spec.d_model,
        n_heads: spec.n_heads,
        n_layers: 2,
        ff_hidden: spec.ff_hidden,
        dropout: 0.0,
        attention: AttentionKind::Group { epsilon: 2.0, initial_groups: 8, adaptive: false },
        ..RitaConfig::default()
    };
    Checkpoint::of_classifier(&Classifier::new(config, CLASSES, &mut rng), None)
}

/// The seed-derived inputs of one run.
struct Inputs {
    /// `POOL_PER_LENGTH` inputs per length, length-major.
    pool: Vec<NdArray>,
    /// Send offsets of the `light` phase.
    schedule: Vec<f64>,
    seed: u64,
}

impl Inputs {
    /// Pool index of the `i`-th request sent: a SplitMix64 hash of seed and index.
    fn input(&self, i: usize) -> usize {
        let mut z = self.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % self.pool.len() as u64) as usize
    }
}

fn inputs(spec: &ServeSpec, seed: u64, light_seconds: f64) -> Inputs {
    let mut rng = rita_tensor::rng_from_seed(seed ^ 0x5e7e);
    let pool: Vec<NdArray> = LENGTHS
        .iter()
        .flat_map(|&len| std::iter::repeat_n(len, POOL_PER_LENGTH))
        .map(|len| NdArray::randn(&[CHANNELS, len], 1.0, &mut rng))
        .collect();
    let schedule = poisson_schedule(seed ^ 0x90155, spec.light_rate, light_seconds);
    Inputs { pool, schedule, seed }
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reply {
    /// Refused at submission or failed in the server.
    Failed,
    /// Answered with logits that differ from the reference of the answering version.
    Wrong,
    /// Answered bit for bit like the reference of this version.
    Right(u64),
}

/// The single-call `InferSession::classify_logits` answer for every (version, input).
struct Expected(HashMap<(u64, usize), Vec<f32>>);

impl Expected {
    fn new(versions: &[(u64, &Checkpoint)], inputs: &Inputs) -> Self {
        let mut map = HashMap::new();
        for &(version, ckpt) in versions {
            let session = InferSession::from_checkpoint(ckpt).expect("reference session");
            for (input, x) in inputs.pool.iter().enumerate() {
                let logits = session.classify_logits(std::slice::from_ref(x));
                map.insert(
                    (version, input),
                    logits.expect("reference logits")[0].as_slice().to_vec(),
                );
            }
        }
        Self(map)
    }

    fn judge(
        &self,
        input: usize,
        r: Result<rita_infer::ServedResponse, rita_infer::ServeError>,
    ) -> Reply {
        let Ok(resp) = r else { return Reply::Failed };
        let same = self.0.get(&(resp.model_version, input)).is_some_and(|want| {
            want.len() == resp.logits.len()
                && want.iter().zip(&resp.logits).all(|(x, y)| x.to_bits() == y.to_bits())
        });
        if same {
            Reply::Right(resp.model_version)
        } else {
            Reply::Wrong
        }
    }
}

/// One request's outcome.
struct Answer {
    reply: Reply,
    latency_ms: f64,
    /// The segment the request was sent in.
    segment: usize,
}

/// Per-phase results.
struct Phase {
    answers: Vec<Answer>,
    /// Wall time of the phase's segments, reference runs excluded.
    seconds: f64,
    /// `Server::submit` span durations (µs); empty when untraced.
    submit_us: Vec<f64>,
    /// How late each open-loop send was (ms).
    late_ms: Vec<f64>,
    /// Answered requests per second of each segment (`peak` only).
    segment_rps: Vec<f64>,
    /// Host-speed scale measured right after each segment.
    scales: Vec<f64>,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl Phase {
    /// Latencies of the answered requests, sorted, raw and at nominal host speed.
    fn latencies(&self) -> (Vec<f64>, Vec<f64>) {
        let answered = self.answers.iter().filter(|a| a.reply != Reply::Failed);
        let mut raw: Vec<f64> = answered.clone().map(|a| a.latency_ms).collect();
        let mut nominal: Vec<f64> =
            answered.map(|a| a.latency_ms * self.scales[a.segment]).collect();
        raw.sort_by(f64::total_cmp);
        nominal.sort_by(f64::total_cmp);
        (raw, nominal)
    }
}

fn timed_submit(
    server: &Server,
    input: NdArray,
    spans: &mut Vec<f64>,
    traced: bool,
) -> Result<rita_infer::Ticket, rita_infer::ServeError> {
    if !traced {
        return server.submit("bench", input);
    }
    let t = Instant::now();
    let r = server.submit("bench", input);
    spans.push(t.elapsed().as_secs_f64() * 1e6);
    r
}

/// Open loop: within each segment, requests go out on the Poisson schedule whatever
/// the server does, and each is timed from the moment it was due. Between segments
/// the generator waits until every request is answered and runs the reference.
fn light_phase(
    server: &Server,
    inputs: &Inputs,
    expected: &Expected,
    seconds: f64,
    traced: bool,
    reference: &mut Reference,
) -> Phase {
    let before = server.metrics().snapshot();
    let segments = (seconds / SEGMENT_S).ceil().max(1.0) as usize;
    let answered = AtomicUsize::new(0);
    type Sent = (usize, Instant, Option<rita_infer::Ticket>, usize);
    let (tx, rx) = mpsc::channel::<Sent>();
    let (answers, submit_us, late_ms, scales, busy) = std::thread::scope(|s| {
        let answered = &answered;
        let collector = s.spawn(move || {
            let mut answers = Vec::new();
            for (input, due, ticket, segment) in rx {
                let reply = match ticket {
                    Some(t) => expected.judge(input, t.wait()),
                    None => Reply::Failed,
                };
                let latency_ms = due.elapsed().as_secs_f64() * 1e3;
                answers.push(Answer { reply, latency_ms, segment });
                answered.fetch_add(1, Ordering::Release);
            }
            answers
        });
        let mut submit_us = Vec::new();
        let mut late_ms = Vec::with_capacity(inputs.schedule.len());
        let mut scales = Vec::with_capacity(segments);
        let mut busy = Duration::ZERO;
        let mut next = 0;
        for segment in 0..segments {
            let start = Instant::now();
            let lo = segment as f64 * SEGMENT_S;
            while next < inputs.schedule.len() && inputs.schedule[next] < lo + SEGMENT_S {
                let due = start + Duration::from_secs_f64(inputs.schedule[next] - lo);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                let input = inputs.input(next);
                let ticket =
                    timed_submit(server, inputs.pool[input].clone(), &mut submit_us, traced).ok();
                tx.send((input, due, ticket, segment)).expect("collector alive");
                next += 1;
            }
            while answered.load(Ordering::Acquire) < next {
                std::thread::sleep(Duration::from_micros(50));
            }
            busy += start.elapsed();
            scales.push(reference.sample());
        }
        drop(tx);
        (collector.join().expect("collector thread"), submit_us, late_ms, scales, busy)
    });
    Phase {
        answers,
        seconds: busy.as_secs_f64(),
        submit_us,
        late_ms,
        segment_rps: Vec::new(),
        scales,
        before,
        after: server.metrics().snapshot(),
    }
}

/// Closed loop: one generator keeps `outstanding` requests in flight for a segment,
/// then lets them drain and runs the reference. At the middle segment a second thread
/// publishes `swap` as a new version.
#[allow(clippy::too_many_arguments)]
fn peak_phase(
    server: &Server,
    inputs: &Inputs,
    expected: &Expected,
    spec: &ServeSpec,
    seconds: f64,
    swap: &Checkpoint,
    traced: bool,
    reference: &mut Reference,
) -> (Phase, f64) {
    let before = server.metrics().snapshot();
    let segments = (seconds / SEGMENT_S).round().max(2.0) as usize;
    let mut answers = Vec::new();
    let mut submit_us = Vec::new();
    let mut segment_rps = Vec::with_capacity(segments);
    let mut scales = Vec::with_capacity(segments);
    let mut busy = Duration::ZERO;
    let mut sent = inputs.schedule.len();
    let (go, publish) = mpsc::channel::<()>();
    let swap_ms = std::thread::scope(|s| {
        let publisher = s.spawn(move || {
            publish.recv().expect("generator signals the swap");
            let t = Instant::now();
            server.registry().publish(swap).expect("hot-swap publish");
            t.elapsed().as_secs_f64() * 1e3
        });
        for segment in 0..segments {
            if segment == segments / 2 {
                go.send(()).expect("publisher alive");
            }
            let start = Instant::now();
            let end = start + Duration::from_secs_f64(SEGMENT_S);
            let mut in_flight: VecDeque<(usize, Instant, Option<rita_infer::Ticket>)> =
                VecDeque::new();
            let mut done = 0usize;
            loop {
                while Instant::now() < end && in_flight.len() < spec.outstanding {
                    let input = inputs.input(sent);
                    sent += 1;
                    let sent_at = Instant::now();
                    let ticket =
                        timed_submit(server, inputs.pool[input].clone(), &mut submit_us, traced)
                            .ok();
                    in_flight.push_back((input, sent_at, ticket));
                }
                let Some((input, sent_at, ticket)) = in_flight.pop_front() else { break };
                let reply = match ticket {
                    Some(t) => expected.judge(input, t.wait()),
                    None => Reply::Failed,
                };
                done += usize::from(reply != Reply::Failed);
                let latency_ms = sent_at.elapsed().as_secs_f64() * 1e3;
                answers.push(Answer { reply, latency_ms, segment });
            }
            let elapsed = start.elapsed();
            busy += elapsed;
            segment_rps.push(done as f64 / elapsed.as_secs_f64());
            scales.push(reference.sample());
        }
        publisher.join().expect("publisher thread")
    });
    let phase = Phase {
        answers,
        seconds: busy.as_secs_f64(),
        submit_us,
        late_ms: Vec::new(),
        segment_rps,
        scales,
        before,
        after: server.metrics().snapshot(),
    };
    (phase, swap_ms)
}

struct Served {
    registry: Arc<ModelRegistry>,
    server: Server,
    publish_ms: f64,
    start_ms: f64,
}

/// Checkpoint build, publish (load + verification), `Server::start`, and warm-up: one
/// forward per (batch, length) bucket compiles every plan the phases can use — no
/// batch can hold more requests than are outstanding — then one request per length
/// goes through the server, whose first batch runs the calibration probe.
fn setup(spec: &ServeSpec, seed: u64, inputs: &Inputs) -> Served {
    let ckpt = checkpoint(spec, seed);
    let registry = Arc::new(ModelRegistry::new());
    let t = Instant::now();
    registry.publish(&ckpt).expect("publish the served checkpoint");
    let publish_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let server = Server::start(Arc::clone(&registry), server_config());
    let start_ms = t.elapsed().as_secs_f64() * 1e3;
    let model = registry.current().expect("published").model;
    let largest_batch = server_config().max_batch.min(spec.outstanding);
    for (l, _) in LENGTHS.iter().enumerate() {
        let sample = &inputs.pool[l * POOL_PER_LENGTH];
        for b in 1..=largest_batch {
            let batch = NdArray::stack(&vec![sample; b]).expect("warm-up batch");
            std::hint::black_box(model.logits(&batch));
        }
        server.classify("warmup", sample.clone()).expect("warm-up request");
    }
    Served { registry, server, publish_ms, start_ms }
}

/// Mean of a histogram over the interval between two snapshots.
fn delta_mean(
    before: &rita_infer::HistogramSnapshot,
    after: &rita_infer::HistogramSnapshot,
) -> f64 {
    let n = after.count.saturating_sub(before.count);
    if n == 0 {
        return 0.0;
    }
    (after.mean * after.count as f64 - before.mean * before.count as f64) / n as f64
}

/// Median `InferModel::logits` time (ms) per length at the phase's mean batch size,
/// averaged over lengths.
fn replay_forward(registry: &ModelRegistry, inputs: &Inputs, batch: usize) -> f64 {
    let model = registry.current().expect("published").model;
    let per_length: Vec<f64> = (0..LENGTHS.len())
        .map(|l| {
            let sample = &inputs.pool[l * POOL_PER_LENGTH];
            let x = NdArray::stack(&vec![sample; batch]).expect("replay batch");
            let times: Vec<f64> = (0..REPLAYS)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(model.logits(&x));
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            median(&times)
        })
        .collect();
    mean(&per_length)
}

/// Per-layer metrics of one phase, named `<module>.<phase>.<metric>`.
fn phase_layers(out: &mut Outcome, name: &str, phase: &Phase, forward_ms: f64) {
    let (b, a) = (&phase.before, &phase.after);
    let served = (a.latency_us.count - b.latency_us.count) as usize;
    let queue = delta_mean(&b.queue_wait_us, &a.queue_wait_us);
    let latency = delta_mean(&b.latency_us, &a.latency_us);
    let batches = a.batches - b.batches;
    let hits = a.plan_cache.hits - b.plan_cache.hits;
    let misses = a.plan_cache.misses - b.plan_cache.misses;
    let reused = a.pool.reused - b.pool.reused;
    let fresh = a.pool.fresh - b.pool.fresh;
    let ratio = |x: u64, y: u64| if x + y == 0 { 0.0 } else { x as f64 / (x + y) as f64 };
    let n = phase.submit_us.len();
    out.layer(Metric::new(format!("server.{name}.submit_us"), mean(&phase.submit_us), "us", n));
    out.layer(Metric::new(format!("server.{name}.queue_wait_us"), queue, "us", served));
    out.layer(Metric::new(format!("server.{name}.service_us"), latency - queue, "us", served));
    out.layer(Metric::new(
        format!("server.{name}.batch_size_mean"),
        delta_mean(&b.batch_size, &a.batch_size),
        "count",
        batches as usize,
    ));
    out.layer(Metric::new(format!("server.{name}.batches"), batches as f64, "count", 1));
    out.layer(Metric::new(
        format!("server.{name}.early_closes"),
        (a.early_closes - b.early_closes) as f64,
        "count",
        1,
    ));
    out.layer(Metric::new(
        format!("plan.{name}.cache_hit_rate"),
        ratio(hits, misses),
        "ratio",
        (hits + misses) as usize,
    ));
    out.layer(Metric::new(
        format!("pool.{name}.reuse_rate"),
        ratio(reused, fresh),
        "ratio",
        (reused + fresh) as usize,
    ));
    out.layer(Metric::new(format!("model.{name}.forward_ms"), forward_ms, "ms", REPLAYS));
}

/// Runs one serving workload. `traced` adds the submit spans and the after-phase
/// replays; neither falls inside a measured interval of the end-to-end metrics.
pub fn run(spec: &ServeSpec, seed: u64, budget: Duration, traced: bool) -> Outcome {
    let light_s = budget.as_secs_f64() * LIGHT_SHARE;
    let peak_s = budget.as_secs_f64() - light_s;
    let inputs = inputs(spec, seed, light_s);
    let mut reference = Reference::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut setups_raw = Vec::with_capacity(SETUPS);
    let mut publish_ms = Vec::with_capacity(SETUPS);
    let mut start_ms = Vec::with_capacity(SETUPS);
    let mut served: Option<Served> = None;
    for _ in 0..SETUPS {
        if let Some(old) = served.take() {
            old.server.shutdown();
        }
        let t = Instant::now();
        let s = setup(spec, seed, &inputs);
        let seconds = t.elapsed().as_secs_f64();
        setups_raw.push(seconds);
        setups.push(seconds * reference.sample());
        publish_ms.push(s.publish_ms);
        start_ms.push(s.start_ms);
        served = Some(s);
    }
    let Served { registry, server, .. } = served.expect("at least one set-up");
    let swap = checkpoint(spec, seed.wrapping_add(0x51a9));
    let expected = Expected::new(&[(1, &checkpoint(spec, seed)), (2, &swap)], &inputs);

    let light = light_phase(&server, &inputs, &expected, light_s, traced, &mut reference);
    let light_forward = if traced {
        let batch = delta_mean(&light.before.batch_size, &light.after.batch_size);
        replay_forward(&registry, &inputs, batch.round().max(1.0) as usize)
    } else {
        0.0
    };
    let (peak, swap_ms) =
        peak_phase(&server, &inputs, &expected, spec, peak_s, &swap, traced, &mut reference);
    let peak_forward = if traced {
        let batch = delta_mean(&peak.before.batch_size, &peak.after.batch_size);
        replay_forward(&registry, &inputs, batch.round().max(1.0) as usize)
    } else {
        0.0
    };
    server.shutdown();

    // Correctness: every answer equals the single-call reference of its version.
    let mut failed = 0u64;
    let mut wrong = 0u64;
    let mut versions_seen = [0u64; 3];
    for a in light.answers.iter().chain(&peak.answers) {
        match a.reply {
            Reply::Failed => failed += 1,
            Reply::Wrong => wrong += 1,
            Reply::Right(v) => versions_seen[v as usize] += 1,
        }
    }
    let attempted = (light.answers.len() + peak.answers.len()) as u64;
    let mut out = Outcome::new(attempted, failed + wrong);
    out.correct = wrong == 0 && versions_seen[2] > 0;

    // End-to-end metrics, at nominal host speed unless named `_raw`.
    let (light_raw, light_lat) = light.latencies();
    let (_, peak_lat) = peak.latencies();
    let peak_rps: Vec<f64> =
        peak.segment_rps.iter().zip(&peak.scales).map(|(rps, scale)| rps / scale).collect();
    let p50 = percentile(&light_lat, 0.5).expect("light phase answered requests");
    let p99 = percentile(&light_lat, 0.99).expect("light phase answered requests");
    let peak_p99 = percentile(&peak_lat, 0.99).expect("peak phase answered requests");
    let p50_raw = percentile(&light_raw, 0.5).expect("light phase answered requests");
    let segments = peak.segment_rps.len();
    out.e2e(Metric::new("setup_s", median(&setups), "s", SETUPS));
    out.e2e(Metric::new("peak_rps", median(&peak_rps), "1/s", segments));
    out.e2e(Metric::new("light_p50_ms", p50.value, "ms", p50.samples));
    out.e2e(Metric::new("light_p99_ms", p99.value, "ms", p99.samples));
    out.e2e(Metric::new("peak_p99_ms", peak_p99.value, "ms", peak_p99.samples));
    out.e2e(Metric::new("setup_s_raw", median(&setups_raw), "s", SETUPS));
    out.e2e(Metric::new("peak_rps_raw", median(&peak.segment_rps), "1/s", segments));
    out.e2e(Metric::new("light_p50_ms_raw", p50_raw.value, "ms", p50_raw.samples));
    out.e2e(Metric::new("host_reference_ms", reference.mean_ms(), "ms", reference.samples()));
    let per_segment: Vec<String> = peak_rps.iter().map(|r| format!("{r:.0}")).collect();
    out.note(format!("peak req/s per segment at nominal speed: {}", per_segment.join(" ")));
    out.note(format!(
        "light: {} sent over {:.2} s, p99 has {} samples beyond it; peak: {} answered over \
         {:.2} s, p99 has {} beyond; answers by version: v1 {} v2 {}",
        light.answers.len(),
        light.seconds,
        p99.beyond,
        peak_lat.len(),
        peak.seconds,
        peak_p99.beyond,
        versions_seen[1],
        versions_seen[2],
    ));

    if traced {
        out.layer(Metric::new("registry.publish_ms", median(&publish_ms), "ms", SETUPS));
        out.layer(Metric::new("registry.swap_ms", swap_ms, "ms", 1));
        out.layer(Metric::new("server.start_ms", median(&start_ms), "ms", SETUPS));
        phase_layers(&mut out, "light", &light, light_forward);
        phase_layers(&mut out, "peak", &peak, peak_forward);
        let mut late = light.late_ms.clone();
        late.sort_by(f64::total_cmp);
        let late99 = percentile(&late, 0.99).expect("light phase sent requests");
        out.layer(Metric::new("gen.late_ms", late99.value, "ms", late99.samples));
        // Coverage of the open-loop latency by its parts: generator lateness, the
        // submit span, and the server's own enqueue-to-answer latency.
        let (b, a) = (&light.before, &light.after);
        let server_ms = delta_mean(&b.latency_us, &a.latency_us) / 1e3;
        let parts = mean(&light.late_ms) + mean(&light.submit_us) / 1e3 + server_ms;
        out.layer(Metric::new(
            "trace.coverage",
            parts / mean(&light_raw),
            "ratio",
            light_raw.len(),
        ));
    }
    out
}
