//! The executor workloads: a tuned DSL program run step by step with
//! `run_program` on two rank threads (`dp_adam`, `mp_mlp`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use coconet_core::{Autotuner, Binding, CommConfig, ExecPlan, Program, WireFormat};
use coconet_models::model_parallel::{block_program, Block};
use coconet_models::optimizers::{optimizer_program, reference_step};
use coconet_models::{Hyper, Optimizer};
use coconet_runtime::{run_program, Inputs, RunOptions, RunResult};
use coconet_sim::Simulator;
use coconet_tensor::{CounterRng, DType, Tensor};
use coconet_topology::MachineSpec;
use coconet_trace::metrics::{self, Counter};

use crate::report::Report;
use crate::spans::{SpanTotals, EXECUTOR_GROUPS};
use crate::Scale;

/// Rank threads of every workload.
pub const RANKS: usize = 2;

/// What the cold autotuner run at setup found, and what it cost.
#[derive(Debug)]
pub struct Tuned {
    pub program: Program,
    pub label: String,
    pub config: CommConfig,
    pub wall_s: f64,
    pub configs_evaluated: usize,
    pub configs_pruned: usize,
    /// Mean wall time of one `Simulator::time_plan` call in the search.
    pub time_plan_us: f64,
}

/// Cold-tunes `program` at `binding` on `sim`'s cost model.
fn tune(
    tuner: &Autotuner,
    program: &Program,
    binding: &Binding,
    sim: &Simulator,
) -> Result<Tuned, String> {
    let (ns, calls) = (AtomicU64::new(0), AtomicU64::new(0));
    let evaluator = |plan: &ExecPlan| {
        let t = Instant::now();
        let cost = sim.time_plan(plan).total;
        ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        calls.fetch_add(1, Ordering::Relaxed);
        cost
    };
    let t = Instant::now();
    let report = tuner
        .tune(program, binding, &evaluator)
        .map_err(|e| format!("tuning failed: {e}"))?;
    let wall_s = t.elapsed().as_secs_f64();
    let best = report.best().map_err(|e| e.to_string())?;
    Ok(Tuned {
        program: best.program.clone(),
        label: best.label(),
        config: best.config,
        wall_s,
        configs_evaluated: report.configs_evaluated,
        configs_pruned: report.configs_pruned,
        time_plan_us: ns.into_inner() as f64 / 1e3 / calls.into_inner().max(1) as f64,
    })
}

/// A closed training loop around `run_program`: each step's inputs,
/// and the oracle that checks its outputs and feeds state forward.
pub trait Case {
    /// Inputs of step `step` (tensor handles, no deep copies).
    fn inputs(&self, step: u64) -> Inputs;
    /// Checks step `step`'s result; on success carries state forward.
    fn check(&mut self, step: u64, result: &RunResult) -> Result<(), String>;
}

/// A set-up executor workload, ready to run steps.
pub struct ExecWorkload {
    pub tuned: Tuned,
    binding: Binding,
    opts: RunOptions,
    case: Box<dyn Case>,
    /// The next step index (step 0 is the warm-up).
    next: u64,
}

impl ExecWorkload {
    /// A workload after its warm-up step (step 0), which must pass.
    fn warmed_up(
        tuned: Tuned,
        binding: Binding,
        opts: RunOptions,
        case: Box<dyn Case>,
    ) -> Result<ExecWorkload, String> {
        let mut w = ExecWorkload {
            tuned,
            binding,
            opts,
            case,
            next: 0,
        };
        w.step()
            .1
            .map_err(|e| format!("warm-up step failed: {e}"))?;
        Ok(w)
    }

    /// Runs one step: builds its inputs and calls `run_program`
    /// (timed), then applies the oracle (untimed). Returns the step's
    /// wall time and verdict.
    fn step(&mut self) -> (f64, Result<(), String>) {
        let step = self.next;
        self.next += 1;
        let t = Instant::now();
        let inputs = self.case.inputs(step);
        let out = catch_unwind(AssertUnwindSafe(|| {
            run_program(&self.tuned.program, &self.binding, &inputs, self.opts)
        }));
        let wall = t.elapsed().as_secs_f64();
        let verdict = match out {
            Ok(Ok(result)) => self.case.check(step, &result),
            Ok(Err(e)) => Err(format!("run_program failed: {e}")),
            Err(_) => Err("run_program panicked".to_string()),
        };
        (wall, verdict.map_err(|e| format!("step {step}: {e}")))
    }

    /// Runs steps until `seconds` of step time have been spent (at
    /// least `min_steps`), counting verdicts into `report`. Returns the
    /// step walls.
    pub fn run_for(&mut self, seconds: f64, min_steps: usize, report: &mut Report) -> Vec<f64> {
        let mut walls = Vec::new();
        while walls.len() < min_steps || walls.iter().sum::<f64>() < seconds {
            let (wall, verdict) = self.step();
            report.count_step(&verdict);
            walls.push(wall);
        }
        walls
    }

    /// Runs `steps` traced steps, snapshotting and clearing the trace
    /// buffers after each so none overflows, and records the executor
    /// and wire metrics. Returns the traced steps' walls.
    pub fn run_traced(&mut self, steps: usize, report: &mut Report) -> Vec<f64> {
        let mut totals = SpanTotals::default();
        let mut dropped = 0;
        let mut walls = Vec::with_capacity(steps);
        metrics::reset();
        coconet_trace::clear();
        coconet_trace::set_enabled(true);
        for _ in 0..steps {
            let (wall, verdict) = self.step();
            report.count_step(&verdict);
            walls.push(wall);
            totals.add(&coconet_trace::take_snapshot(), 0);
            dropped += coconet_trace::dropped_events();
            coconet_trace::clear();
        }
        coconet_trace::set_enabled(false);
        let n = steps as f64;
        totals.print(steps as u64);
        for (metric, labels) in EXECUTOR_GROUPS {
            report.set(metric, totals.executor_group_s(labels) / n);
        }
        let wire = metrics::counter(Counter::WireBytes) as f64 / RANKS as f64;
        report.set("runtime.comm.wire_bytes_per_step", wire / n);
        let sends = totals.instants.get("send").copied().unwrap_or(0);
        report.set("runtime.comm.sends_per_step", sends as f64 / n);
        report.set("trace.dropped_events", dropped as f64);
        walls
    }
}

/// Records the tuning metrics of the setup's cold tune.
pub fn record_tuning(tuned: &Tuned, report: &mut Report) {
    report.set("core.autotune.wall_s", tuned.wall_s);
    report.set(
        "core.autotune.configs_evaluated",
        tuned.configs_evaluated as f64,
    );
    report.set("core.autotune.configs_pruned", tuned.configs_pruned as f64);
    report.set("sim.time_plan.us_per_call", tuned.time_plan_us);
}

/// Absolute-plus-relative closeness, NaN-safe; names the first
/// offending element.
fn close(got: &Tensor, want: &Tensor, rtol: f32, atol: f32) -> Result<(), String> {
    if got.shape() != want.shape() {
        return Err(format!(
            "shape {:?} differs from {:?}",
            got.shape(),
            want.shape()
        ));
    }
    let (g, w) = (got.to_f32_vec(), want.to_f32_vec());
    // Written so that a NaN on either side fails.
    let near = |a: f32, b: f32| (a - b).abs() <= atol + rtol * b.abs();
    match g.iter().zip(&w).position(|(&a, &b)| !near(a, b)) {
        None => Ok(()),
        Some(i) => Err(format!("element {i}: got {}, expected {}", g[i], w[i])),
    }
}

/// The output the winner produces under `name` or, after a reorder,
/// its re-gathered form.
fn output(result: &RunResult, name: &str) -> Result<Tensor, String> {
    result
        .global(name)
        .or_else(|_| result.global(&format!("ag{name}")))
        .map_err(|e| format!("missing output {name}: {e}"))
}

// ---- dp_adam ----------------------------------------------------------

/// `dp_adam`'s geometry.
#[derive(Debug)]
pub struct AdamGeom {
    /// Parameters per step.
    pub n: usize,
}

impl AdamGeom {
    pub fn new(scale: Scale) -> AdamGeom {
        AdamGeom {
            n: match scale {
                Scale::Full => 1 << 18,
                Scale::Tiny => 1 << 10,
            },
        }
    }
}

/// Distinct gradient sets `dp_adam` generates at set-up and uses
/// round-robin.
const ADAM_GRAD_SETS: usize = 4;

/// The paper geometry `dp_adam` is tuned at: 256 ranks, N = 2^26.
const ADAM_TUNE: (usize, u64) = (256, 1 << 26);

/// The winner `dp_adam`'s cold tune found when the benchmark was
/// written; a cost-model change that flips it shows in the output.
pub const ADAM_RECORDED_WINNER: &str = "split(avg, ARSplitRSAG); reorder(agavg, comps); \
     fuse(rsavg, AllReduceFuse) [Ring/LL128/8ch/Dense]";

/// Step size and initial second moment: the semantics-preservation
/// integration test's, at which every step moves a parameter by about
/// `ADAM_LR` (the first step by `ADAM_LR * g / sqrt(1 + g^2)`).
pub const ADAM_LR: f32 = 0.05;
const ADAM_V0: f32 = 1e-3;

/// Closeness of the winner's parameter update to the reference's: the
/// F16 gradient sum makes it about four half-precision ulps relative,
/// with an absolute floor a thousandth of a typical update, so that a
/// missing or partial update fails. The winner stays within a quarter
/// of this.
const ADAM_RTOL: f32 = 2e-3;
const ADAM_ATOL: f32 = 1e-3 * ADAM_LR;

struct AdamCase {
    hyper: Hyper,
    grads: Vec<Vec<Tensor>>,
    grad_sums: Vec<Tensor>,
    p: Tensor,
    m: Tensor,
    v: Tensor,
}

impl AdamCase {
    /// The CPU reference step from this step's inputs.
    fn reference(&self, step: u64) -> (Tensor, Tensor, Tensor) {
        let (mut p, mut m, mut v) = (
            self.p.deep_clone(),
            self.m.deep_clone(),
            self.v.deep_clone(),
        );
        let sum = &self.grad_sums[step as usize % self.grad_sums.len()];
        let t = (step + 1) as f32;
        reference_step(
            Optimizer::Adam,
            self.hyper,
            &mut p,
            &mut m,
            &mut v,
            sum,
            ADAM_LR,
            t,
        );
        (p, m, v)
    }
}

/// `dp_adam`'s oracle: the update the winner applied to `prev` against
/// the update the reference applied. Comparing updates, not parameters,
/// keeps the tolerance relative to the step size.
pub fn adam_oracle(prev: &Tensor, got: &Tensor, reference: &Tensor) -> Result<(), String> {
    let delta = |p: &Tensor| p.sub(prev).map_err(|e| e.to_string());
    close(&delta(got)?, &delta(reference)?, ADAM_RTOL, ADAM_ATOL)
}

impl Case for AdamCase {
    fn inputs(&self, step: u64) -> Inputs {
        let set = step as usize % self.grads.len();
        Inputs::new()
            .per_rank("g", self.grads[set].clone())
            .global("p", self.p.clone())
            .global("m", self.m.clone())
            .global("v", self.v.clone())
            .global("lr", Tensor::scalar(DType::F32, ADAM_LR))
            .global("t", Tensor::scalar(DType::F32, (step + 1) as f32))
    }

    fn check(&mut self, step: u64, result: &RunResult) -> Result<(), String> {
        let got = output(result, "p_")?;
        let (p_ref, m_ref, v_ref) = self.reference(step);
        adam_oracle(&self.p, &got, &p_ref)?;
        // The program's only output is the parameter; the moments it
        // updated internally are carried forward from the reference.
        self.p = got;
        self.m = m_ref;
        self.v = v_ref;
        Ok(())
    }
}

/// `dp_adam`'s cold-tuned winner, step loop, and run geometry.
fn adam_parts(scale: Scale, seed: u64) -> Result<(Tuned, AdamCase, Binding, RunOptions), String> {
    let g = AdamGeom::new(scale);
    let hyper = Hyper::default();
    let (program, _) = optimizer_program(Optimizer::Adam, hyper).map_err(|e| e.to_string())?;
    let sim = Simulator::new(MachineSpec::paper_testbed(), ADAM_TUNE.0, 1);
    let tune_binding = Binding::new(ADAM_TUNE.0).bind("N", ADAM_TUNE.1);
    let tuned = tune(&Autotuner::default(), &program, &tune_binding, &sim)?;

    let rng = CounterRng::new(seed);
    let n = g.n;
    let grads: Vec<Vec<Tensor>> = (0..ADAM_GRAD_SETS)
        .map(|s| {
            (0..RANKS)
                .map(|r| Tensor::randn([n], DType::F16, rng, ((s * RANKS + r) * n) as u64))
                .collect()
        })
        .collect();
    let grad_sums = grads
        .iter()
        .map(|set| {
            set.iter().fold(Tensor::zeros([n], DType::F32), |acc, g| {
                acc.add(&g.cast(DType::F32)).expect("same shapes")
            })
        })
        .collect();
    let case = AdamCase {
        hyper,
        grads,
        grad_sums,
        p: Tensor::randn([n], DType::F32, rng, 1 << 40),
        m: Tensor::zeros([n], DType::F32),
        v: Tensor::full([n], DType::F32, ADAM_V0),
    };
    let opts = RunOptions::default()
        .with_seed(seed)
        .with_comm(tuned.config);
    Ok((tuned, case, Binding::new(RANKS).bind("N", n as u64), opts))
}

/// Sets up `dp_adam`: build, cold tune at the paper geometry, inputs,
/// and the warm-up step (checked).
pub fn setup_adam(scale: Scale, seed: u64) -> Result<ExecWorkload, String> {
    let (tuned, case, binding, opts) = adam_parts(scale, seed)?;
    ExecWorkload::warmed_up(tuned, binding, opts, Box::new(case))
}

/// One `dp_adam` step at the self-test geometry: the parameters before
/// the step, the winner's updated parameters and the CPU reference's.
#[cfg(test)]
pub fn adam_step_triple(seed: u64) -> (Tensor, Tensor, Tensor) {
    let (tuned, case, binding, opts) = adam_parts(Scale::Tiny, seed).expect("set-up");
    let result = run_program(&tuned.program, &binding, &case.inputs(0), opts).expect("step");
    let got = output(&result, "p_").expect("output");
    (case.p.clone(), got, case.reference(0).0)
}

// ---- mp_mlp -----------------------------------------------------------

/// `mp_mlp`'s geometry: batch, sequence, hidden (the MLP's inner
/// dimension is 4H).
#[derive(Debug)]
pub struct MlpGeom {
    pub b: usize,
    pub s: usize,
    pub h: usize,
}

impl MlpGeom {
    pub fn new(scale: Scale) -> MlpGeom {
        match scale {
            Scale::Full => MlpGeom {
                b: 2,
                s: 128,
                h: 512,
            },
            Scale::Tiny => MlpGeom { b: 1, s: 8, h: 32 },
        }
    }
}

/// The 16-GPU GPT-2 geometry `mp_mlp` is tuned at: ranks, B, S, H.
const MLP_TUNE: (usize, u64, u64, u64) = (16, 8, 1024, 3072);

/// The winner `mp_mlp`'s lossless cold tune found when the benchmark
/// was written.
pub const MLP_RECORDED_WINNER: &str = "split(sum, ARSplitRSAG); reorder(agsum, comps); \
     fuse(rssum, AllReduceFuse); overlap(layer, rssum) [Ring/LL128/2ch/Dense]";

/// FP16 closeness of the winner to the untransformed program: a few
/// half-precision ulps, relative, with an absolute floor near zero.
const MLP_RTOL: f32 = 1e-2;
const MLP_ATOL: f32 = 1e-2;

struct MlpCase {
    inputs: Inputs,
    reference: Tensor,
}

/// `mp_mlp`'s oracle: the block output against the untransformed run.
pub fn mlp_oracle(got: &Tensor, reference: &Tensor) -> Result<(), String> {
    close(got, reference, MLP_RTOL, MLP_ATOL)
}

impl Case for MlpCase {
    fn inputs(&self, _step: u64) -> Inputs {
        self.inputs.clone()
    }

    fn check(&mut self, _step: u64, result: &RunResult) -> Result<(), String> {
        mlp_oracle(&output(result, "out")?, &self.reference)
    }
}

/// `mp_mlp`'s cold-tuned winner, fixed inputs with their reference
/// output, and run geometry.
fn mlp_parts(scale: Scale, seed: u64) -> Result<(Tuned, MlpCase, Binding, RunOptions), String> {
    let g = MlpGeom::new(scale);
    let (program, _) = block_program(Block::Mlp).map_err(|e| e.to_string())?;
    let (ranks, b, s, h) = MLP_TUNE;
    let sim = Simulator::new(MachineSpec::dgx2_cluster(1), ranks, 1);
    let tune_binding = Binding::new(ranks)
        .bind("B", b)
        .bind("S", s)
        .bind("H", h)
        .bind("H4", 4 * h);
    let lossless = Autotuner {
        formats: vec![WireFormat::Dense, WireFormat::Fp16],
        ..Autotuner::default()
    };
    let tuned = tune(&lossless, &program, &tune_binding, &sim)?;

    let h4 = 4 * g.h;
    let rng = CounterRng::new(seed);
    // GPT-2 initialization scale for the weights keeps activations O(1).
    let w = Tensor::randn([h4, g.h], DType::F32, rng, 0)
        .mul_scalar(0.02)
        .cast(DType::F16);
    let inputs = Inputs::new()
        .global("w", w)
        .global("b", Tensor::randn([g.h], DType::F16, rng, 1 << 40))
        .global(
            "in",
            Tensor::randn([g.b, g.s, h4], DType::F16, rng, 2 << 40),
        )
        .global(
            "r",
            Tensor::randn([g.b, g.s, g.h], DType::F16, rng, 3 << 40),
        );
    let binding = Binding::new(RANKS)
        .bind("B", g.b as u64)
        .bind("S", g.s as u64)
        .bind("H", g.h as u64)
        .bind("H4", h4 as u64);
    // The untransformed program with the same dropout seed draws the
    // same masks, so it is the winner's reference.
    let base = RunOptions::default().with_seed(seed);
    let reference = run_program(&program, &binding, &inputs, base)
        .and_then(|r| r.global("out"))
        .map_err(|e| format!("reference run failed: {e}"))?;
    let opts = base.with_comm(tuned.config);
    Ok((tuned, MlpCase { inputs, reference }, binding, opts))
}

/// Sets up `mp_mlp`: build, lossless cold tune at the GPT-2 geometry,
/// fixed inputs, the untransformed reference run, and the warm-up step.
pub fn setup_mlp(scale: Scale, seed: u64) -> Result<ExecWorkload, String> {
    let (tuned, case, binding, opts) = mlp_parts(scale, seed)?;
    ExecWorkload::warmed_up(tuned, binding, opts, Box::new(case))
}

/// One `mp_mlp` step at the self-test geometry: the winner's output
/// and the untransformed program's.
#[cfg(test)]
pub fn mlp_step_pair(seed: u64) -> (Tensor, Tensor) {
    let (tuned, case, binding, opts) = mlp_parts(Scale::Tiny, seed).expect("set-up");
    let result = run_program(&tuned.program, &binding, &case.inputs(0), opts).expect("step");
    (output(&result, "out").expect("output"), case.reference)
}
