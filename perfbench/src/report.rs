//! Metric names and units, step statistics, and the result line.

use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("steps_per_s", "1/s"),
    ("step_s.p50", "s"),
    ("step_s.p90", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`).
pub const PER_LAYER: [(&str, &str); 30] = [
    ("core.autotune.wall_s", "s"),
    ("core.autotune.configs_evaluated", "count"),
    ("core.autotune.configs_pruned", "count"),
    ("sim.time_plan.us_per_call", "us"),
    ("runtime.executor.input_s", "s"),
    ("runtime.executor.elementwise_s", "s"),
    ("runtime.executor.matmul_s", "s"),
    ("runtime.executor.collective_s", "s"),
    ("host.copy_gb_s", "GB/s"),
    ("tensor.matmul.gflops", "GFLOP/s"),
    ("tensor.ops.binary_gb_s", "GB/s"),
    ("tensor.ops.binary_eff", "ratio"),
    ("tensor.kernels.reduce_gb_s", "GB/s"),
    ("tensor.kernels.reduce_eff", "ratio"),
    ("tensor.alloc.bytes_per_step", "B"),
    ("compress.f16_encode_gb_s", "GB/s"),
    ("compress.f16_encode_eff", "ratio"),
    ("compress.f16_decode_gb_s", "GB/s"),
    ("compress.f16_decode_eff", "ratio"),
    ("runtime.collectives.all_reduce_s", "s"),
    ("runtime.comm.wire_bytes_per_step", "B"),
    ("runtime.comm.sends_per_step", "count"),
    ("runtime.stream.compute_s", "s"),
    ("runtime.stream.comm_s", "s"),
    ("runtime.stream.ready_wait_s", "s"),
    ("runtime.stream.hidden_comm_frac", "ratio"),
    ("runtime.stream.preempts_per_iter", "count"),
    ("models.reference_step_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.dropped_events", "count"),
];

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Steps attempted (warm-up steps excluded).
    pub attempted: u64,
    /// Steps that returned an error, panicked, or failed their oracle.
    pub failed: u64,
    /// Run-level checks that failed (wire volume, dropped trace
    /// events); any entry makes the run incorrect.
    pub violations: Vec<String>,
    /// Metric values by name; units come from the tables above.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Records a metric value. A value that could not be measured
    /// (NaN or infinite, as a rate over an empty window is) is
    /// recorded as 0 and makes the run incorrect.
    pub fn set(&mut self, name: &'static str, value: f64) {
        if value.is_finite() {
            self.metrics.push((name, value));
        } else {
            self.violations
                .push(format!("metric {name} could not be measured: {value}"));
            self.metrics.push((name, 0.0));
        }
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Counts one step's oracle verdict.
    pub fn count_step(&mut self, verdict: &Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            if self.failed == 0 {
                println!("first failed step: {why}");
            }
            self.failed += 1;
        }
    }

    /// Counts `steps` steps that all failed for one reason.
    pub fn count_failed_run(&mut self, steps: u64, why: &str) {
        for _ in 0..steps {
            self.count_step(&Err(why.to_string()));
        }
    }

    /// Failed steps over attempted steps.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether every step passed and every run-level check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// The machine-readable result line: the metrics of `table`, in
    /// table order, each with its unit. A metric the run did not
    /// record is a bug in the benchmark.
    pub fn json_line(&self, table: &[(&'static str, &'static str)]) -> String {
        assert!(self.attempted > 0, "a run attempts at least one step");
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not recorded"));
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Nearest-rank percentile `q` (in `0..=1`) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Records the step-time metrics for `walls` (seconds per step) and
/// prints the sample count the percentiles rest on.
pub fn record_steps(report: &mut Report, walls: &[f64], window_s: f64) {
    let n = walls.len();
    report.set("steps_per_s", n as f64 / window_s);
    report.set("step_s.p50", median(walls));
    report.set("step_s.p90", percentile(walls, 0.9));
    let beyond = n.saturating_sub((0.9 * n as f64).ceil() as usize);
    println!("step samples: {n} ({beyond} beyond p90)");
}

/// Peak resident set size of this process, in MiB (`VmHWM` of
/// `/proc/self/status`); NaN where that cannot be read.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
