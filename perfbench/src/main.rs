//! Measured training-step benchmark for the CoCoNet runtime.
//!
//! Four closed-loop workloads, each on two rank threads in this
//! process: `dp_adam` and `mp_mlp` run a cold-tuned DSL program with
//! `run_program`, `dp_stream` and `dp_stream_fp16` run barrier-free
//! training through `StreamExecutor`. A step is issued only after the
//! previous one returned, and every step's output is checked by the
//! workload's oracle outside the timed window.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dp_adam --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` times the end-to-end metrics with tracing off;
//! `--trace 1` runs the layer probes, a short untraced run and a short
//! traced run, and reports the per-layer metrics. The last line of
//! standard output is one JSON object with the run's verdict and
//! metrics. See `perfbench/METRICS.md` for what each metric measures.

mod exec;
mod probes;
mod report;
mod spans;
mod stream;

#[cfg(test)]
mod selftest;

use std::time::Instant;

use coconet_core::WireFormat;

use crate::report::{median, peak_rss_mb, record_steps, Report, END_TO_END, PER_LAYER};

/// Problem sizes: the benchmark's geometry, or the self-test's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DpAdam,
    MpMlp,
    DpStream,
    DpStreamFp16,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DpAdam,
        Workload::MpMlp,
        Workload::DpStream,
        Workload::DpStreamFp16,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DpAdam => "dp_adam",
            Workload::MpMlp => "mp_mlp",
            Workload::DpStream => "dp_stream",
            Workload::DpStreamFp16 => "dp_stream_fp16",
        }
    }
}

/// One run's settings.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Fewest timed steps per untraced run.
const MIN_STEPS: usize = 10;

/// Steps of a traced executor run, and iterations of a traced stream
/// run (well under the 2^14 events a thread's trace buffer holds).
const TRACED_STEPS: usize = 6;
const TRACED_ITERS: u64 = 24;

/// Times `reps` set-ups and keeps the last one.
fn timed_setups<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), times))
}

/// Records the metrics of layers a workload does not exercise as 0.
fn not_exercised(report: &mut Report, names: &[&'static str]) {
    for &name in names {
        report.set(name, 0.0);
    }
}

const EXECUTOR_ONLY: [&str; 8] = [
    "core.autotune.wall_s",
    "core.autotune.configs_evaluated",
    "core.autotune.configs_pruned",
    "sim.time_plan.us_per_call",
    "runtime.executor.input_s",
    "runtime.executor.elementwise_s",
    "runtime.executor.matmul_s",
    "runtime.executor.collective_s",
];

const STREAM_ONLY: [&str; 6] = [
    "runtime.stream.compute_s",
    "runtime.stream.comm_s",
    "runtime.stream.ready_wait_s",
    "runtime.stream.hidden_comm_frac",
    "runtime.stream.preempts_per_iter",
    // run_program's rank threads are private to the runtime, so their
    // thread-local allocation counters cannot be read from outside.
    "tensor.alloc.bytes_per_step",
];

fn overhead(report: &mut Report, untraced: &[f64], traced: &[f64]) {
    let rate = |w: &[f64]| w.len() as f64 / w.iter().sum::<f64>();
    report.set("trace.overhead_frac", 1.0 - rate(traced) / rate(untraced));
}

fn run_exec(cfg: &Config) -> Result<Report, String> {
    let (setup, recorded): (fn(Scale, u64) -> _, _) = match cfg.workload {
        Workload::DpAdam => {
            println!("geometry: {:?}", exec::AdamGeom::new(cfg.scale));
            (exec::setup_adam, exec::ADAM_RECORDED_WINNER)
        }
        _ => {
            println!("geometry: {:?}", exec::MlpGeom::new(cfg.scale));
            (exec::setup_mlp, exec::MLP_RECORDED_WINNER)
        }
    };
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let (mut w, setups) = timed_setups(reps, || setup(cfg.scale, cfg.seed))?;
    let winner = format!("{} [{}]", w.tuned.label, w.tuned.config);
    println!("tuned winner: {winner}");
    println!("winner as recorded: {}", winner == recorded);

    let mut report = Report::default();
    if cfg.trace {
        probes::run(cfg.scale, cfg.seed, &mut report);
        exec::record_tuning(&w.tuned, &mut report);
        not_exercised(&mut report, &STREAM_ONLY);
        let untraced = w.run_for(cfg.seconds / 2.0, 3, &mut report);
        let traced = w.run_traced(TRACED_STEPS, &mut report);
        overhead(&mut report, &untraced, &traced);
    } else {
        let walls = w.run_for(cfg.seconds, MIN_STEPS, &mut report);
        record_steps(&mut report, &walls, walls.iter().sum());
        report.set("setup_s", median(&setups));
        report.set("peak_rss_mb", peak_rss_mb());
    }
    Ok(report)
}

fn run_stream(cfg: &Config, wire: WireFormat) -> Result<Report, String> {
    println!(
        "geometry: {:?}, wire {wire:?}",
        stream::StreamGeom::new(cfg.scale)
    );
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let (w, setups) = timed_setups(reps, || stream::setup(cfg.scale, wire, cfg.seed))?;
    let mut report = Report::default();
    if cfg.trace {
        probes::run(cfg.scale, cfg.seed, &mut report);
        not_exercised(&mut report, &EXECUTOR_ONLY);
        let r = w.run_untraced(cfg.seconds / 2.0, &mut report);
        let (steps, iters) = (r.walls.len() as f64, r.iters as f64);
        report.set("runtime.stream.compute_s", r.compute_s / steps);
        report.set("runtime.stream.comm_s", (r.window_s - r.compute_s) / steps);
        report.set("tensor.alloc.bytes_per_step", r.alloc_bytes as f64 / iters);
        report.set(
            "runtime.comm.wire_bytes_per_step",
            r.wire_bytes as f64 / iters,
        );
        report.set("runtime.comm.sends_per_step", r.sends as f64 / iters);
        let t = w.run_traced(TRACED_ITERS, &mut report);
        overhead(&mut report, &r.walls, &t.walls);
    } else {
        let r = w.run_untraced(cfg.seconds, &mut report);
        record_steps(&mut report, &r.walls, r.window_s);
        report.set("setup_s", median(&setups));
        report.set("peak_rss_mb", peak_rss_mb());
    }
    Ok(report)
}

/// Runs one workload and returns its report.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = match cfg.workload {
        Workload::DpAdam | Workload::MpMlp => run_exec(cfg)?,
        Workload::DpStream => run_stream(cfg, WireFormat::Dense)?,
        Workload::DpStreamFp16 => run_stream(cfg, WireFormat::Fp16)?,
    };
    if cfg.trace && report.get("trace.dropped_events") != Some(0.0) {
        report
            .violations
            .push("the traced run dropped trace events".into());
    }
    Ok(report)
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::DpAdam,
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => cfg.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err(format!("--seconds out of range: {value}"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} on {} cores",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    );
    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload.name());
            std::process::exit(1);
        }
    };
    let table: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in table {
        println!("{name} = {} {unit}", report.get(name).unwrap_or(f64::NAN));
    }
    println!(
        "error_rate = {} ({} failed of {} attempted)",
        report.error_rate(),
        report.failed,
        report.attempted
    );
    for v in &report.violations {
        println!("violation: {v}");
    }
    println!("{}", report.json_line(table));
}
