//! `train_long`: a group-attention classifier trained on ECG-shaped series of the
//! paper's ECG length (2000 timestamps, 400 windows).
//!
//! The untraced run trains through `rita_core::tasks::train_task_resumable`, one epoch
//! per call with a persistent optimiser and RNG — the same program as one multi-epoch
//! `train_task` call. The traced run replays that loop step by step from this file,
//! with spans around each public call, and must reproduce its per-epoch losses bit for
//! bit.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rita_core::attention::{Attention, AttentionKind, GroupAttentionConfig, GroupAttentionStats};
use rita_core::group::group_key_blocks;
use rita_core::model::RitaConfig;
use rita_core::tasks::{train_task_resumable, BatchSizePolicy, Classifier, TrainConfig, TrainTask};
use rita_data::batch::batch_indices_by_length;
use rita_data::{DatasetKind, TimeseriesDataset};
use rita_nn::optim::{clip_grad_norm, AdamW, Optimizer};
use rita_nn::{BufferVisitor, BufferVisitorMut, ParamVisitor, Var};
use rita_tensor::SeedableRng64;

use crate::calib::Reference;
use crate::report::{Metric, Outcome};
use crate::stats::{mean, median, percentile};

const CHANNELS: usize = 12;
const CLASSES: usize = 9;
const LENGTH: usize = 2000;
/// Training-set size; with `BATCH` this gives `SAMPLES / BATCH` steps per epoch.
const SAMPLES: usize = 16;
const BATCH: usize = 4;
/// `train_loss` is the mean loss of this epoch, so it covers a fixed number of samples
/// however fast the machine is. Runs train at least this many epochs.
const LOSS_EPOCH: usize = 3;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// The model and optimiser settings the workload trains with.
pub fn model_config() -> RitaConfig {
    RitaConfig {
        channels: CHANNELS,
        max_len: LENGTH,
        window: 5,
        stride: 5,
        d_model: 32,
        n_heads: 2,
        n_layers: 2,
        ff_hidden: 64,
        dropout: 0.1,
        attention: AttentionKind::Group { epsilon: 2.0, initial_groups: 64, adaptive: true },
    }
}

fn train_config() -> TrainConfig {
    TrainConfig {
        epochs: 1,
        batch_size: BATCH,
        batch_policy: BatchSizePolicy::Fixed,
        lr: 1e-3,
        weight_decay: 1e-4,
        grad_clip: 1.0,
        ..TrainConfig::default()
    }
}

/// Human-readable description of the workload's fixed settings.
pub fn describe() -> String {
    format!(
        "ECG-shaped data {CHANNELS} ch x {LENGTH} (400 windows), {CLASSES} classes, \
         {SAMPLES} samples, fixed batch {BATCH}, d_model 32, 2 heads, 2 layers, dropout 0.1, \
         Group {{ epsilon: 2, initial_groups: 64, adaptive }}, AdamW lr 1e-3, clip 1.0, \
         train_loss = epoch {LOSS_EPOCH}"
    )
}

struct Setup {
    data: TimeseriesDataset,
    model: Classifier,
    opt: AdamW,
    rng: SeedableRng64,
}

/// Dataset generation plus model and optimiser construction.
fn setup(seed: u64) -> Setup {
    let mut rng = SeedableRng64::seed_from_u64(seed);
    let data = TimeseriesDataset::generate_reduced(DatasetKind::Ecg, SAMPLES, 0, LENGTH, &mut rng);
    let model = Classifier::new(model_config(), CLASSES, &mut rng);
    let cfg = train_config();
    let opt = AdamW::for_module(&model, cfg.lr, cfg.weight_decay);
    Setup { data, model, opt, rng }
}

/// Runs every set-up and keeps the last; all are identical for one seed. Returns the
/// set-up durations, each scaled by a reference run right after it.
fn timed_setups(seed: u64, reference: &mut Reference) -> (Setup, Timings) {
    let mut times = Timings::default();
    let mut last = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let s = setup(seed);
        times.push(t.elapsed().as_secs_f64(), reference.sample());
        last = Some(s);
    }
    (last.expect("at least one set-up"), times)
}

/// Durations in seconds with the host-speed scale measured right after each.
#[derive(Default)]
struct Timings {
    raw: Vec<f64>,
    scales: Vec<f64>,
}

impl Timings {
    fn push(&mut self, seconds: f64, scale: f64) {
        self.raw.push(seconds);
        self.scales.push(scale);
    }

    /// The durations at nominal host speed.
    fn nominal(&self) -> Vec<f64> {
        self.raw.iter().zip(&self.scales).map(|(s, k)| s * k).collect()
    }
}

/// Per-epoch record shared by the traced and untraced runs.
#[derive(Default)]
struct Epochs {
    losses: Vec<f32>,
    times: Timings,
}

impl Epochs {
    fn done(&self, started: Instant, budget: Duration) -> bool {
        self.losses.len() >= LOSS_EPOCH && started.elapsed() >= budget
    }

    /// The end-to-end metrics both runs report, plus the ops accounting. Timings are
    /// at nominal host speed unless named `_raw`.
    fn outcome(&self, setups: &Timings, reference: &Reference, traced: bool) -> Outcome {
        let steps_per_epoch = SAMPLES.div_ceil(BATCH);
        let epochs = self.times.nominal();
        let per_s: Vec<f64> = epochs.iter().map(|s| SAMPLES as f64 / s).collect();
        let per_s_raw: Vec<f64> = self.times.raw.iter().map(|s| SAMPLES as f64 / s).collect();
        let mut step_ms: Vec<f64> =
            epochs.iter().map(|s| s * 1e3 / steps_per_epoch as f64).collect();
        step_ms.sort_by(f64::total_cmp);
        let attempted = (self.losses.len() * steps_per_epoch) as u64;
        // Epoch losses are means over steps; a non-finite epoch loss means at least one
        // of its steps failed, so the whole epoch counts as failed.
        let failed = self.losses.iter().filter(|l| !l.is_finite()).count() * steps_per_epoch;
        let n = epochs.len();
        let mut out = Outcome::new(attempted, failed as u64);
        out.correct = failed == 0;
        let p50 = percentile(&step_ms, 0.5).expect("at least one epoch");
        out.e2e(Metric::new("setup_s", median(&setups.nominal()), "s", SETUPS));
        out.e2e(Metric::new("train_samples_per_s", median(&per_s), "1/s", n));
        out.e2e(Metric::new("train_step_p50_ms", p50.value, "ms", n));
        out.e2e(Metric::new("train_loss", f64::from(self.losses[LOSS_EPOCH - 1]), "nats", 1));
        out.e2e(Metric::new("setup_s_raw", median(&setups.raw), "s", SETUPS));
        out.e2e(Metric::new("train_samples_per_s_raw", median(&per_s_raw), "1/s", n));
        out.e2e(Metric::new("host_reference_ms", reference.mean_ms(), "ms", reference.samples()));
        out.note(format!(
            "{} epochs of {SAMPLES} samples ({steps_per_epoch} steps each){}; \
             train_loss = epoch {LOSS_EPOCH}",
            n,
            if traced { ", traced" } else { "" }
        ));
        let times: Vec<String> = self.times.raw.iter().map(|s| format!("{s:.3}")).collect();
        out.note(format!("epoch seconds: {}", times.join(" ")));
        out.losses = self.losses.clone();
        out
    }
}

/// The untraced run: `train_task_resumable`, one epoch per call.
pub fn run(seed: u64, budget: Duration) -> Outcome {
    let mut reference = Reference::default();
    let (mut s, setups) = timed_setups(seed, &mut reference);
    let cfg = train_config();
    let mut epochs = Epochs::default();
    let started = Instant::now();
    while !epochs.done(started, budget) {
        let report = train_task_resumable(&mut s.model, &s.data, &cfg, &mut s.opt, &mut s.rng);
        let e = report.epochs.last().expect("one epoch per call");
        epochs.losses.push(e.loss);
        epochs.times.push(e.seconds, reference.sample());
    }
    epochs.outcome(&setups, &reference, false)
}

/// What the attention wrapper saw during one step.
#[derive(Default)]
pub struct AttentionLog {
    /// Time spent inside the wrapped `forward`, summed over calls.
    pub forward: Duration,
    /// Keys and group count of each call, for the k-means replay.
    pub calls: Vec<(Var, usize)>,
}

/// Forwards every [`Attention`] method to the wrapped mechanism and times `forward`.
pub struct TracedAttention {
    inner: Box<dyn Attention>,
    log: Rc<RefCell<AttentionLog>>,
}

impl TracedAttention {
    /// Wraps `inner`, appending to `log`.
    pub fn new(inner: Box<dyn Attention>, log: Rc<RefCell<AttentionLog>>) -> Self {
        Self { inner, log }
    }
}

impl Attention for TracedAttention {
    fn forward(&mut self, q: &Var, k: &Var, v: &Var) -> Var {
        let t = Instant::now();
        let out = self.inner.forward(q, k, v);
        let dt = t.elapsed();
        let groups = self.inner.group_stats().map_or(0, |s| s.current_groups);
        let mut log = self.log.borrow_mut();
        log.forward += dt;
        log.calls.push((k.clone(), groups));
        out
    }

    fn visit_params(&self, visitor: &mut ParamVisitor<'_>) {
        self.inner.visit_params(visitor)
    }

    fn visit_buffers(&self, visitor: &mut BufferVisitor<'_>) {
        self.inner.visit_buffers(visitor)
    }

    fn visit_buffers_mut(&mut self, visitor: &mut BufferVisitorMut<'_>) {
        self.inner.visit_buffers_mut(visitor)
    }

    fn parameters(&self) -> Vec<Var> {
        self.inner.parameters()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn group_stats(&self) -> Option<GroupAttentionStats> {
        self.inner.group_stats()
    }

    fn scheduled_group_target(&self) -> Option<f32> {
        self.inner.scheduled_group_target()
    }

    fn set_group_count(&mut self, n: usize) {
        self.inner.set_group_count(n)
    }

    fn restore_scheduled_target(&mut self, target: f32) {
        self.inner.restore_scheduled_target(target)
    }
}

/// Swaps a [`TracedAttention`] into every encoder layer of `model`.
fn instrument(model: &mut Classifier, log: &Rc<RefCell<AttentionLog>>) {
    for layer in &mut model.model.encoder.layers {
        let placeholder: Box<dyn Attention> =
            Box::new(rita_core::attention::VanillaAttention::new());
        let inner = std::mem::replace(&mut layer.attention, placeholder);
        layer.attention = Box::new(TracedAttention::new(inner, Rc::clone(log)));
    }
}

/// Per-step span durations of the traced run, in milliseconds.
#[derive(Default)]
struct Spans {
    step: Vec<f64>,
    plan: Vec<f64>,
    forward: Vec<f64>,
    backward: Vec<f64>,
    optim: Vec<f64>,
    attention: Vec<f64>,
    kmeans: Vec<f64>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The traced run: the engine's fixed-batch epoch loop, step by step, with spans.
pub fn run_traced(seed: u64, budget: Duration) -> Outcome {
    let mut reference = Reference::default();
    let (mut s, setups) = timed_setups(seed, &mut reference);
    let cfg = train_config();
    let log = Rc::new(RefCell::new(AttentionLog::default()));
    instrument(&mut s.model, &log);
    let kmeans_iters = GroupAttentionConfig::default().kmeans_iters;
    let lengths = s.data.lengths();
    let mut spans = Spans::default();
    let mut epochs = Epochs::default();
    let mut groups: Vec<Vec<(usize, f32)>> = Vec::new();
    let started = Instant::now();
    while !epochs.done(started, budget) {
        let epoch_start = Instant::now();
        let mut replay = Duration::ZERO;
        let batches = batch_indices_by_length(&lengths, |_| cfg.batch_size, true, &mut s.rng);
        spans.plan.push(ms(epoch_start.elapsed()));
        let mut loss_sum = 0.0f32;
        let mut weight_sum = 0.0f32;
        for idx in batches {
            let t0 = Instant::now();
            s.opt.zero_grad();
            let t1 = Instant::now();
            let (loss, weight) = s.model.batch_loss_on(&s.data, &idx, &cfg, &mut s.rng);
            let t2 = Instant::now();
            loss.backward();
            let t3 = Instant::now();
            if cfg.grad_clip > 0.0 {
                clip_grad_norm(&s.opt.parameters(), cfg.grad_clip);
            }
            s.opt.step();
            let t4 = Instant::now();
            loss_sum += loss.item() * weight;
            weight_sum += weight;
            spans.step.push(ms(t4 - t0));
            spans.forward.push(ms(t2 - t1));
            spans.backward.push(ms(t3 - t2));
            spans.optim.push(ms((t1 - t0) + (t4 - t3)));
            // The k-means replay runs outside every span and is excluded from the
            // epoch time, so it inflates no other number.
            let r = Instant::now();
            let mut log = log.borrow_mut();
            spans.attention.push(ms(std::mem::take(&mut log.forward)));
            let mut kmeans = Duration::ZERO;
            for (keys, n) in log.calls.drain(..) {
                let keys = keys.to_array();
                let t = Instant::now();
                std::hint::black_box(group_key_blocks(&keys, n, kmeans_iters));
                kmeans += t.elapsed();
            }
            spans.kmeans.push(ms(kmeans));
            replay += r.elapsed();
        }
        epochs.losses.push(loss_sum / weight_sum.max(1.0));
        let seconds = (epoch_start.elapsed() - replay).as_secs_f64();
        epochs.times.push(seconds, reference.sample());
        groups.push(
            s.model
                .model
                .group_stats()
                .into_iter()
                .flatten()
                .map(|g| (g.current_groups, g.last_merged))
                .collect(),
        );
    }

    let mut out = epochs.outcome(&setups, &reference, true);
    let per_step = spans.step.len();
    let spans_total = spans.plan.iter().sum::<f64>()
        + spans.forward.iter().sum::<f64>()
        + spans.backward.iter().sum::<f64>()
        + spans.optim.iter().sum::<f64>();
    let epoch_total = epochs.times.raw.iter().sum::<f64>() * 1e3;
    out.layer(Metric::new("trainer.step_ms", mean(&spans.step), "ms", per_step));
    out.layer(Metric::new("trainer.forward_ms", mean(&spans.forward), "ms", per_step));
    out.layer(Metric::new("nn.backward_ms", mean(&spans.backward), "ms", per_step));
    out.layer(Metric::new("nn.optim_ms", mean(&spans.optim), "ms", per_step));
    out.layer(Metric::new("attention.group_ms", mean(&spans.attention), "ms", per_step));
    out.layer(Metric::new("group.kmeans_ms", mean(&spans.kmeans), "ms", per_step));
    out.layer(Metric::new(
        "trace.coverage",
        spans_total / epoch_total,
        "ratio",
        epochs.times.raw.len(),
    ));
    let last = groups.last().expect("at least one epoch");
    let layers = last.len().max(1) as f64;
    out.layer(Metric::new(
        "scheduler.groups",
        last.iter().map(|g| g.0 as f64).sum::<f64>() / layers,
        "count",
        last.len(),
    ));
    out.layer(Metric::new(
        "scheduler.merged",
        last.iter().map(|g| f64::from(g.1)).sum::<f64>() / layers,
        "count",
        last.len(),
    ));
    for (e, per_layer) in groups.iter().enumerate() {
        let cells: Vec<String> =
            per_layer.iter().map(|(n, merged)| format!("N={n} merged={merged:.2}")).collect();
        out.note(format!("scheduler epoch {}: {}", e + 1, cells.join(" | ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rita_core::attention::{GroupAttention, LinformerAttention, PerformerAttention};
    use rita_nn::ParamPath;
    use rita_tensor::NdArray;

    fn wrapped(inner: Box<dyn Attention>) -> (TracedAttention, Rc<RefCell<AttentionLog>>) {
        let log = Rc::new(RefCell::new(AttentionLog::default()));
        (TracedAttention::new(inner, Rc::clone(&log)), log)
    }

    fn group() -> Box<dyn Attention> {
        Box::new(GroupAttention::new(GroupAttentionConfig {
            initial_groups: 6,
            ..GroupAttentionConfig::default()
        }))
    }

    fn qkv(seed: u64) -> (Var, Var, Var) {
        let mut rng = SeedableRng64::seed_from_u64(seed);
        let mut t = || Var::constant(NdArray::randn(&[2, 2, 12, 4], 1.0, &mut rng));
        (t(), t(), t())
    }

    #[test]
    fn wrapper_forwards_forward_and_scheduler_methods_unchanged() {
        let mut plain = group();
        let (mut traced, log) = wrapped(group());
        assert_eq!(traced.name(), plain.name());
        assert_eq!(traced.scheduled_group_target(), plain.scheduled_group_target());
        for seed in 0..3 {
            let (q, k, v) = qkv(seed);
            let want = plain.forward(&q, &k, &v).to_array();
            let got = traced.forward(&q, &k, &v).to_array();
            assert_eq!(got.as_slice(), want.as_slice(), "forward output must be unchanged");
        }
        let (a, b) = (traced.group_stats().unwrap(), plain.group_stats().unwrap());
        assert_eq!(a.current_groups, b.current_groups);
        assert_eq!(a.last_merged.to_bits(), b.last_merged.to_bits());
        assert_eq!(a.forward_calls, 3);
        assert_eq!(traced.scheduled_group_target(), plain.scheduled_group_target());
        let log = log.borrow();
        assert_eq!(log.calls.len(), 3, "every forward is logged");
        assert!(log
            .calls
            .iter()
            .all(|(k, n)| k.shape() == [2, 2, 12, 4] && *n == a.current_groups));

        traced.set_group_count(4);
        plain.set_group_count(4);
        assert_eq!(traced.scheduled_group_target(), Some(4.0));
        traced.restore_scheduled_target(5.5);
        plain.restore_scheduled_target(5.5);
        assert_eq!(traced.scheduled_group_target(), plain.scheduled_group_target());
        assert_eq!(traced.scheduled_group_target(), Some(5.5));
    }

    fn param_paths(a: &dyn Attention) -> Vec<(String, Vec<f32>)> {
        let mut out = Vec::new();
        let mut f =
            |p: &ParamPath, v: &Var| out.push((p.to_string(), v.to_array().as_slice().to_vec()));
        a.visit_params(&mut ParamVisitor::new(&mut f));
        out
    }

    fn buffer_paths(a: &dyn Attention) -> Vec<(String, Vec<f32>)> {
        let mut out = Vec::new();
        let mut f = |p: &ParamPath, b: &NdArray| out.push((p.to_string(), b.as_slice().to_vec()));
        a.visit_buffers(&mut BufferVisitor::new(&mut f));
        out
    }

    #[test]
    fn wrapper_forwards_visitors_unchanged() {
        let linformer = || -> Box<dyn Attention> {
            Box::new(LinformerAttention::new(12, 4, &mut SeedableRng64::seed_from_u64(3)))
        };
        let (traced, _) = wrapped(linformer());
        let plain = linformer();
        assert!(!param_paths(plain.as_ref()).is_empty());
        assert_eq!(param_paths(&traced), param_paths(plain.as_ref()));
        assert_eq!(traced.parameters().len(), plain.parameters().len());

        let performer = || -> Box<dyn Attention> {
            Box::new(PerformerAttention::new(4, 8, &mut SeedableRng64::seed_from_u64(4)))
        };
        let (mut traced, _) = wrapped(performer());
        let plain = performer();
        assert!(!buffer_paths(plain.as_ref()).is_empty());
        assert_eq!(buffer_paths(&traced), buffer_paths(plain.as_ref()));
        // A restore through the wrapper reaches the inner mechanism's buffers.
        let mut f = |_: &ParamPath, b: &mut NdArray| *b = NdArray::zeros(b.shape());
        traced.visit_buffers_mut(&mut BufferVisitorMut::new(&mut f));
        assert!(buffer_paths(&traced).iter().all(|(_, v)| v.iter().all(|&x| x == 0.0)));
    }
}
