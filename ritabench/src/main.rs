//! The RITA benchmark: one command that runs group-attention training and
//! continuous-batching serving through the public APIs of `rita-core`, `rita-nn`,
//! `rita-data` and `rita-infer`, checks every output, and prints each metric by name.
//!
//! ```text
//! cargo run --release --manifest-path ritabench/Cargo.toml -- \
//!     --workload <train_long|serve_small|serve_wide|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the untraced workload in
//! a child process, then the traced one in this process, and prints the per-layer
//! metrics and the tracing overhead. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.

mod calib;
mod report;
mod serve;
mod stats;
mod train;

use std::process::{Command, ExitCode};
use std::time::Duration;

use report::{Metric, Outcome};

/// The seed runs use unless told otherwise.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for confirming a claimed gain.
pub const CONFIRM_SEED: u64 = 20_261_017;

/// Workloads and why each was chosen (mirrored in `BENCHMARK.json`).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "train_long",
        "training at the paper's ECG length 2000: autograd, AdamW, k-means and group attention \
         with the adaptive scheduler carry each step",
    ),
    (
        "serve_small",
        "d32 model behind the batching server: admission, batching, queueing, plan cache and a \
         hot-swap dominate latency, not the forward",
    ),
    (
        "serve_wide",
        "d256 model behind the same server and traffic: GEMM, GELU and LayerNorm kernels \
         dominate, serving overhead is small",
    ),
];

/// End-to-end metrics (`--trace 0`): name, unit, and the workload metrics a row reads
/// (each workload reports exactly one of them). Every workload fills every row: throughput is
/// training samples/s on `train_long` and closed-loop requests/s on `serve_*`; the
/// median latency is one training step on `train_long` and one open-loop request on
/// `serve_*`.
pub const END_TO_END: &[(&str, &str, &[&str])] = &[
    ("setup_s", "s", &["setup_s"]),
    ("peak_rss_mb", "MiB", &["peak_rss_mb"]),
    ("throughput_per_s", "1/s", &["train_samples_per_s", "peak_rps"]),
    ("p50_ms", "ms", &["train_step_p50_ms", "light_p50_ms"]),
];

/// Per-layer metrics (`--trace 1`), with units. A workload reports 0 for a layer it
/// does not run. The last rows are workload metrics measured with tracing off that
/// `END_TO_END` cannot hold, because not every workload has them or because they
/// spread too widely from run to run to gate on.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trainer.step_ms", "ms"),
    ("trainer.forward_ms", "ms"),
    ("nn.backward_ms", "ms"),
    ("nn.optim_ms", "ms"),
    ("attention.group_ms", "ms"),
    ("group.kmeans_ms", "ms"),
    ("scheduler.groups", "count"),
    ("scheduler.merged", "count"),
    ("registry.publish_ms", "ms"),
    ("registry.swap_ms", "ms"),
    ("server.start_ms", "ms"),
    ("server.light.submit_us", "us"),
    ("server.light.queue_wait_us", "us"),
    ("server.light.service_us", "us"),
    ("server.light.batch_size_mean", "count"),
    ("server.light.batches", "count"),
    ("server.light.early_closes", "count"),
    ("plan.light.cache_hit_rate", "ratio"),
    ("pool.light.reuse_rate", "ratio"),
    ("model.light.forward_ms", "ms"),
    ("server.peak.submit_us", "us"),
    ("server.peak.queue_wait_us", "us"),
    ("server.peak.service_us", "us"),
    ("server.peak.batch_size_mean", "count"),
    ("server.peak.batches", "count"),
    ("server.peak.early_closes", "count"),
    ("plan.peak.cache_hit_rate", "ratio"),
    ("pool.peak.reuse_rate", "ratio"),
    ("model.peak.forward_ms", "ms"),
    ("gen.late_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.setup_s.overhead_pct", "%"),
    ("trace.peak_rss_mb.overhead_pct", "%"),
    ("trace.throughput_per_s.overhead_pct", "%"),
    ("trace.p50_ms.overhead_pct", "%"),
    ("untraced.train_loss", "nats"),
    ("untraced.light_p99_ms", "ms"),
    ("untraced.peak_p99_ms", "ms"),
    ("untraced.host_reference_ms", "ms"),
];

/// The value of end-to-end row `sources` in `out`, if the workload reports one.
fn e2e_row(out: &Outcome, sources: &[&str]) -> Option<f64> {
    sources.iter().find_map(|s| out.e2e_value(s))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let known = args.workload == "all" || WORKLOADS.iter().any(|(w, _)| *w == args.workload);
    if !known {
        return Err(format!("--workload must be one of all, {}", workload_names().join(", ")));
    }
    Ok(args)
}

fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|(w, _)| *w).collect()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    // Keep `git` from searching above the working directory for a repository.
    let cwd = std::env::current_dir().ok()?;
    let ceiling = cwd.parent().unwrap_or(&cwd);
    let out =
        Command::new(program).args(args).env("GIT_CEILING_DIRECTORIES", ceiling).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The machine and source the numbers were measured on.
fn stamp() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rev = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    format!("stamp: rev={rev} cpu=\"{cpu}\" nproc={nproc} rustc=\"{rustc}\"")
}

fn describe(workload: &str) -> String {
    match workload {
        "train_long" => train::describe(),
        "serve_small" => serve::describe(&serve::SMALL),
        "serve_wide" => serve::describe(&serve::WIDE),
        _ => unreachable!("workload names are checked at parse time"),
    }
}

/// Runs `workload` in this process.
fn run_here(workload: &str, seed: u64, budget: Duration, traced: bool) -> Outcome {
    let mut out = match (workload, traced) {
        ("train_long", false) => train::run(seed, budget),
        ("train_long", true) => train::run_traced(seed, budget),
        ("serve_small", _) => serve::run(&serve::SMALL, seed, budget, traced),
        ("serve_wide", _) => serve::run(&serve::WIDE, seed, budget, traced),
        _ => unreachable!("workload names are checked at parse time"),
    };
    out.e2e(Metric::new("peak_rss_mb", peak_rss_mb(), "MiB", 1));
    out
}

/// What a child run printed: its own lines, its `E2E`/`LOSSES` records, its result.
struct Child {
    lines: Vec<String>,
    outcome: Outcome,
    /// Per-epoch losses as `f32` bit patterns.
    loss_bits: Vec<u32>,
}

fn run_child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let last = lines.last().cloned().unwrap_or_default();
    let field = |key: &str| -> Option<String> {
        let rest = &last[last.find(&format!("\"{key}\": "))? + key.len() + 4..];
        Some(rest.split([',', '}']).next()?.trim().to_string())
    };
    // A child that found wrong answers exits non-zero but still prints its result.
    let (Some(correct), Some(attempted), Some(failed)) =
        (field("correct"), field("attempted"), field("failed"))
    else {
        return Err(format!(
            "{workload} exited with {} without a result:\n{stdout}{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    };
    let mut child = Child {
        lines: Vec::new(),
        outcome: Outcome::new(attempted.parse().unwrap_or(0), failed.parse().unwrap_or(0)),
        loss_bits: Vec::new(),
    };
    child.outcome.correct = correct == "true" && out.status.success();
    for line in &lines[..lines.len() - 1] {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["E2E", name, value, unit, samples] => child.outcome.e2e(Metric::new(
                *name,
                value.parse().unwrap_or(f64::NAN),
                *unit,
                samples.parse().unwrap_or(0),
            )),
            ["LOSSES", bits @ ..] => {
                child.loss_bits =
                    bits.iter().filter_map(|w| u32::from_str_radix(w, 16).ok()).collect();
            }
            _ => child.lines.push(line.clone()),
        }
    }
    Ok(child)
}

/// `--trace 1`: the untraced run in a child process, then the traced run here.
fn run_traced(workload: &str, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let child = run_child(workload, seed, seconds, false)?;
    for line in &child.lines {
        println!("untraced {line}");
    }
    let untraced = &child.outcome;
    let mut out = run_here(workload, seed, Duration::from_secs(seconds), true);
    out.correct &= untraced.correct;
    if workload == "train_long" {
        let traced: Vec<u32> = out.losses.iter().map(|l| l.to_bits()).collect();
        let common = traced.len().min(child.loss_bits.len());
        let same = common > 0 && traced[..common] == child.loss_bits[..common];
        out.note(format!(
            "traced per-epoch losses {} the untraced train_task losses bit for bit over {common} epochs",
            if same { "equal" } else { "DIFFER FROM" }
        ));
        out.correct &= same;
    }
    for m in &untraced.e2e {
        if let Some(traced) = out.e2e_value(&m.name) {
            let pct = (traced - m.value) / m.value * 100.0;
            out.note(format!(
                "tracing overhead {}: untraced {} traced {traced} ({pct:+.2}%)",
                m.name, m.value
            ));
        }
    }
    for &(name, _, sources) in END_TO_END {
        if let (Some(u), Some(t)) = (e2e_row(untraced, sources), e2e_row(&out, sources)) {
            out.layer(Metric::new(
                format!("trace.{name}.overhead_pct"),
                (t - u) / u * 100.0,
                "%",
                1,
            ));
        }
    }
    for name in ["train_loss", "light_p99_ms", "peak_p99_ms", "host_reference_ms"] {
        if let Some(m) = untraced.e2e.iter().find(|m| m.name == name) {
            out.layer(Metric::new(format!("untraced.{name}"), m.value, m.unit.clone(), m.samples));
        }
    }
    Ok(out)
}

/// `--workload all`: every workload in its own process, then one combined result.
fn run_all(args: &Args) -> Result<String, String> {
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for name in workload_names() {
        let child = run_child(name, args.seed, args.seconds, args.trace)?;
        for line in &child.lines {
            println!("{line}");
        }
        correct &= child.outcome.correct;
        attempted += child.outcome.attempted;
        failed += child.outcome.failed;
        for m in &child.outcome.e2e {
            metrics.push(format!("\"{name}.{}\": {:?}", m.name, m.value));
        }
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ritabench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", stamp());
    println!(
        "run: workload={} seed={} (default {DEFAULT_SEED}, confirm {CONFIRM_SEED}) seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(json) => {
                println!("{json}");
                if json.starts_with("{\"correct\": true") {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("ritabench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let why = WORKLOADS.iter().find(|(w, _)| *w == args.workload).map_or("", |(_, why)| why);
    println!("workload: {} — {why}", args.workload);
    println!("config: {}", describe(&args.workload));
    let budget = Duration::from_secs(args.seconds);
    let out = if args.trace {
        match run_traced(&args.workload, args.seed, args.seconds) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("ritabench: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        run_here(&args.workload, args.seed, budget, false)
    };
    print!("{}", out.human(&args.workload));
    for m in &out.e2e {
        println!("E2E {} {:?} {} {}", m.name, m.value, m.unit, m.samples);
    }
    if !out.losses.is_empty() {
        let bits: Vec<String> = out.losses.iter().map(|l| format!("{:08x}", l.to_bits())).collect();
        println!("LOSSES {}", bits.join(" "));
    }
    let rows: Vec<(&str, &str, Option<f64>)> = if args.trace {
        PER_LAYER.iter().map(|&(name, unit)| (name, unit, out.layer_value(name))).collect()
    } else {
        END_TO_END.iter().map(|&(name, unit, from)| (name, unit, e2e_row(&out, from))).collect()
    };
    let json = out.json(&rows);
    println!("{json}");
    // A wrong answer, a failed check, or a loss that differs between the traced and
    // untraced runs fails the command as well as the `correct` field.
    if json.starts_with("{\"correct\": true") {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` with the whitespace outside strings removed.
    fn definition() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let mut out = String::new();
        let mut in_string = false;
        let mut escaped = false;
        for c in text.chars() {
            if in_string {
                escaped = !escaped && c == '\\';
                in_string = escaped || c != '"';
            } else if c == '"' {
                in_string = true;
            } else if c.is_whitespace() {
                continue;
            }
            out.push(c);
        }
        out
    }

    /// The entries of one top-level array, in order.
    fn section<'a>(def: &'a str, key: &str) -> Vec<&'a str> {
        let start = def.find(&format!("\"{key}\":[")).expect("section present") + key.len() + 4;
        let body = &def[start..start + def[start..].find(']').expect("section closes")];
        body.split("},{").collect()
    }

    #[test]
    fn definition_matches_the_tables() {
        let def = definition();
        let workloads = section(&def, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert!(entry.contains(&format!("\"name\":\"{name}\",\"why\":\"{why}\"")), "{entry}");
        }
        let e2e = section(&def, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, (name, unit, _)) in e2e.iter().zip(END_TO_END) {
            assert!(entry.contains(&format!("\"name\":\"{name}\",\"unit\":\"{unit}\"")), "{entry}");
        }
        let layers = section(&def, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, (name, unit)) in layers.iter().zip(PER_LAYER) {
            assert!(entry.contains(&format!("\"name\":\"{name}\",\"unit\":\"{unit}\"")), "{entry}");
        }
    }
}
