//! The steady-state experiment: a stream of data-parallel training
//! iterations under the barriered and the barrier-free schedule, at
//! the acceptance geometry (2^24 gradient elements over 8 ranks).
//!
//! Two kinds of rows feed the trajectory, the same split every other
//! experiment uses (simulated §6 rows + measured ledger rows):
//!
//! - `steady_state_stream` — the *costed* iterations/sec comparison.
//!   An 8-layer training iteration (per-layer backward kernel, then
//!   the trailing gradient AllReduces) is timed by the simulator under
//!   [`CommSched::Barriered`] (serial sum: communication on the
//!   critical path after the compute, every iteration) and under
//!   [`CommSched::Priority`] (the steady-state per-iteration time of
//!   the same plan run as a pipelined stream, where iteration *i*'s
//!   trailing collectives drain under iteration *i+1*'s compute).
//!   The comparison is pure cost-model arithmetic — deterministic and
//!   machine-independent, which is what lets CI gate the overlap win
//!   without a wall-clock cap.
//! - `ledger_priority_stream` — the *measured* witnesses. A real
//!   [`StreamExecutor`] run on rank threads against the classic
//!   blocking loop (forward, backward, then one blocking ring
//!   AllReduce per layer — the seed executor's schedule), asserting
//!   the three properties wall-clocks cannot prove on a shared CI
//!   box: final parameters bit-identical between schedules, every
//!   iteration's layer-0 gradient (produced *last* by backprop)
//!   synchronized *before* its last-layer gradient, and each priority
//!   class moving exactly its layer's analytic ring volume on the
//!   per-class [`BytesLedger`] counters.
//!   Violations of any witness are gate failures, the same treatment
//!   as a ledger or tuner inconsistency.
//!
//! The measured run still reports both wall-clocks for transparency,
//! but does not gate on them: rank threads time-share however many
//! cores the runner has (possibly one), so measured overlap is a
//! property of the machine, while the witnesses are properties of the
//! schedule.

use std::time::{Duration, Instant};

use coconet_compress::WireFormat;
use coconet_core::{
    CollAlgo, CollKind, CollectiveStep, CommConfig, CommSched, DType as CoreDType, ExecPlan,
    KernelStep, ReduceOp as CoreReduceOp, Step,
};
use coconet_runtime::{
    ring_all_reduce_wire_bytes, ring_all_reduce_wire_striped, run_ranks, BytesLedger, Group,
    StreamExecutor, PRIORITY_CLASSES,
};
use coconet_sim::Simulator;
use coconet_tensor::{DType, ReduceOp, Tensor};
use coconet_topology::MachineSpec;

/// Total gradient elements per iteration, across all layers: 2^24 —
/// the acceptance size — in release builds (the source of every
/// committed `BENCH_coconet.json`); 2^18 in debug builds so the unit
/// tests stay fast. The simulated row always uses the acceptance
/// size; only the measured witnesses run shrinks.
pub const STEADY_ELEMS: usize = 1 << 24;

/// Elements of the measured witnesses run.
pub const STEADY_MEASURED_ELEMS: usize = if cfg!(debug_assertions) {
    1 << 18
} else {
    1 << 24
};

/// Rank threads of the steady-state run.
pub const STEADY_RANKS: usize = 8;

/// Layers the gradient is split across. Eight layers map one-to-one
/// onto the ledger's [`PRIORITY_CLASSES`], so every layer's stream is
/// metered by its own counter.
pub const STEADY_LAYERS: usize = 8;

/// Iterations of the measured witnesses run.
pub const STEADY_ITERS: u64 = if cfg!(debug_assertions) { 4 } else { 10 };

/// The simulated steady-state comparison: per-iteration seconds of
/// the 8-layer training plan under each schedule, at the acceptance
/// geometry. `barriered_s` is the serial sum; `streamed_s` is the
/// pipelined steady-state per-iteration time. Both are exact
/// cost-model outputs.
#[derive(Clone, Copy, Debug)]
pub struct SteadySim {
    /// Barriered per-iteration time, seconds.
    pub barriered_s: f64,
    /// Barrier-free steady-state per-iteration time, seconds.
    pub streamed_s: f64,
}

impl SteadySim {
    /// Barriered over barrier-free speedup.
    pub fn speedup(&self) -> f64 {
        self.barriered_s / self.streamed_s
    }

    /// Barriered iterations per second.
    pub fn barriered_iters_per_sec(&self) -> f64 {
        1.0 / self.barriered_s
    }

    /// Barrier-free iterations per second.
    pub fn streamed_iters_per_sec(&self) -> f64 {
        1.0 / self.streamed_s
    }
}

/// Costs one training iteration — per-layer backward kernels, then
/// the trailing gradient AllReduces in backprop order — under both
/// schedules on the paper testbed at the acceptance geometry.
///
/// The kernels are sized so one iteration's compute is comparable to
/// its communication (the regime the paper's workloads occupy, and
/// where cross-iteration overlap pays most); the gradient volume is
/// exactly [`STEADY_ELEMS`] F32 elements split across
/// [`STEADY_LAYERS`] AllReduces over [`STEADY_RANKS`] ranks.
pub fn steady_state_sim() -> SteadySim {
    let sim = Simulator::new(MachineSpec::paper_testbed(), STEADY_RANKS, 1);
    let time = |sched: CommSched| sim.time_plan(&steady_plan(STEADY_ELEMS, sched)).total;
    SteadySim {
        barriered_s: time(CommSched::Barriered),
        streamed_s: time(CommSched::Priority),
    }
}

/// Builds the steady-state training plan — [`STEADY_LAYERS`] per-layer
/// backward kernels (`bwd{l}`), then the trailing gradient AllReduces
/// in backprop order (`grad{l}`) — over `elems` total gradient
/// elements, under the given communication schedule. Shared by the
/// costed comparison above and the drift half of the trace experiment
/// (`tracebench`), which aligns these step labels against measured
/// per-step times.
pub(crate) fn steady_plan(elems: usize, sched: CommSched) -> ExecPlan {
    let layer_elems = elems / STEADY_LAYERS;
    let layer_bytes = (layer_elems * 4) as u64;
    let mut steps = Vec::new();
    for l in 0..STEADY_LAYERS {
        steps.push(Step::Kernel(KernelStep {
            label: format!("bwd{l}"),
            // Backward of one layer: read activations + weights, write
            // activation gradients + the weight gradient.
            bytes_read: 8 * layer_bytes,
            bytes_written: 5 * layer_bytes,
            flops: 64 * layer_elems as u64,
            n_ops: 2,
        }));
    }
    for l in (0..STEADY_LAYERS).rev() {
        steps.push(Step::Collective(CollectiveStep {
            label: format!("grad{l}"),
            kind: CollKind::AllReduce,
            op: CoreReduceOp::Sum,
            algo: CollAlgo::Ring,
            elems: layer_elems as u64,
            dtype: CoreDType::F32,
            scattered: None,
        }));
    }
    let mut plan = ExecPlan {
        name: "steady".into(),
        steps,
        config: CommConfig::default().with_sched(sched),
    };
    plan.set_config(plan.config);
    plan
}

/// One measured steady-state run: both wall-clocks plus rank 0's
/// barrier-free witnesses.
#[derive(Clone, Debug)]
pub struct SteadyRow {
    /// Total gradient elements per iteration.
    pub elems: usize,
    /// Ranks participating.
    pub ranks: usize,
    /// Layers the gradient is split across.
    pub layers: usize,
    /// Iterations per schedule.
    pub iters: u64,
    /// Blocking-loop wall-clock, seconds — max across ranks.
    pub barriered_s: f64,
    /// Barrier-free wall-clock, seconds — max across ranks.
    pub streamed_s: f64,
    /// Rank 0's ledger over the barrier-free run (per-class counters).
    pub ledger: BytesLedger,
    /// Rank 0's job completion log over the barrier-free run
    /// (job id = `iter * layers + layer`).
    pub completion_log: Vec<u64>,
    /// Whether the two schedules produced bit-identical final
    /// parameters — the semantics-preservation half of the row.
    pub params_match: bool,
}

impl SteadyRow {
    /// The analytic per-rank wire volume of one layer's gradient
    /// stream over the whole run.
    pub fn class_analytic_bytes(&self) -> u64 {
        self.iters * ring_all_reduce_wire_bytes(self.elems / self.layers, self.ranks, DType::F32)
    }

    /// Total tagged bytes the barrier-free run sent per rank, summed
    /// over every priority class.
    pub fn class_bytes_total(&self) -> u64 {
        self.ledger.class_bytes_sent.iter().sum()
    }

    /// Violations of the barrier-free witnesses (empty when the two
    /// schedules agree bit for bit, the scheduler provably reordered
    /// traffic into consumption order, and every priority class moved
    /// exactly its analytic volume).
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if !self.params_match {
            v.push("schedules diverged: barrier-free parameters differ from barriered".into());
        }
        // Every iteration's first-consumed gradient must synchronize
        // before its last-consumed one — the reordering the priority
        // queue exists for. Backprop produces them in the opposite
        // order, so an unscheduled fabric fails this immediately.
        let pos = |job: u64| self.completion_log.iter().position(|&j| j == job);
        for it in 0..self.iters {
            let first = it * self.layers as u64;
            let last = first + self.layers as u64 - 1;
            match (pos(first), pos(last)) {
                (Some(f), Some(l)) if f < l => {}
                (Some(f), Some(l)) => v.push(format!(
                    "iteration {it}: layer-0 gradient completed at {f}, after last layer at {l}"
                )),
                _ => v.push(format!("iteration {it}: completion log lost a job")),
            }
        }
        // Per-class accounting: each layer rides its own priority
        // class (layers == PRIORITY_CLASSES) and must move exactly the
        // analytic ring volume — no class starved, none double-sent.
        assert_eq!(self.layers, PRIORITY_CLASSES);
        let want = self.class_analytic_bytes();
        for (class, &got) in self.ledger.class_bytes_sent.iter().enumerate() {
            if got != want {
                v.push(format!(
                    "priority class {class} moved {got} bytes per rank, analytic volume is {want}"
                ));
            }
        }
        v
    }
}

/// Runs the measured witnesses experiment: [`STEADY_ITERS`] iterations
/// of an 8-layer synthetic data-parallel loop under each schedule,
/// fastest of `repeats` timings kept per schedule.
pub fn steady_state_bench(repeats: usize) -> SteadyRow {
    let mut barriered_s = f64::INFINITY;
    let mut streamed_s = f64::INFINITY;
    let mut ledger = BytesLedger::default();
    let mut completion_log = Vec::new();
    let mut params_match = true;
    for _ in 0..repeats.max(1) {
        let (bt, b_params, _, _) = timed_run(CommSched::Barriered);
        barriered_s = barriered_s.min(bt);
        let (st, s_params, l, log) = timed_run(CommSched::Priority);
        if st < streamed_s {
            streamed_s = st;
            ledger = l;
            completion_log = log;
        }
        // Semantics preservation: both runs are deterministic, so one
        // bitwise comparison per repeat suffices.
        params_match &= b_params.len() == s_params.len()
            && b_params
                .iter()
                .zip(&s_params)
                .all(|(b, s)| b.to_f32_vec() == s.to_f32_vec());
    }
    SteadyRow {
        elems: STEADY_MEASURED_ELEMS,
        ranks: STEADY_RANKS,
        layers: STEADY_LAYERS,
        iters: STEADY_ITERS,
        barriered_s,
        streamed_s,
        ledger,
        completion_log,
        params_match,
    }
}

/// The initial parameter of layer `l`.
pub(crate) fn init_param(l: usize, layer_elems: usize) -> Tensor {
    Tensor::from_fn([layer_elems], DType::F32, move |i| {
        ((l * 31 + i) % 97) as f32 * 0.01
    })
}

/// Forward: one read pass over the layer (activation statistics).
pub(crate) fn forward_pass(p: &Tensor) -> f32 {
    let mut acc = 0.0f32;
    for i in 0..p.numel() {
        acc += p.get(i);
    }
    acc
}

/// Backward: one write pass producing the local gradient, rank- and
/// iteration-dependent.
pub(crate) fn local_grad(l: usize, iter: u64, rank: usize, p: &Tensor) -> Tensor {
    let scale = 1e-4 * (l + 1) as f32 + 1e-5 * (rank + 1) as f32;
    let shift = 1e-3 * iter as f32;
    Tensor::from_fn([p.numel()], DType::F32, move |i| p.get(i) * scale + shift)
}

/// Optimizer: one fused axpy pass.
pub(crate) fn apply_update(p: &mut Tensor, g: &Tensor) {
    let lr = 1e-3f32;
    let step = Tensor::from_fn([p.numel()], DType::F32, |i| p.get(i) - lr * g.get(i));
    *p = step;
}

/// One timed stream of [`STEADY_ITERS`] iterations over fresh rank
/// threads; returns the slowest rank's wall-clock plus rank 0's
/// final parameters, ledger, and completion log.
///
/// The two schedules run the same arithmetic through different
/// machinery, exactly the before/after of the refactor:
///
/// - `Barriered` is the classic loop the seed executor ran: forward,
///   backward, then a *blocking* ring AllReduce per layer at the
///   iteration's end. One collective at a time is in flight — the
///   global barrier in its usual disguise.
/// - `Priority` is the [`StreamExecutor`]: all layers' gradients in
///   flight at once, serviced in consumption order at every kernel
///   boundary, next iteration gated per-parameter by ready-epoch.
fn timed_run(sched: CommSched) -> (f64, Vec<Tensor>, BytesLedger, Vec<u64>) {
    let layer_elems = STEADY_MEASURED_ELEMS / STEADY_LAYERS;
    let results = run_ranks(STEADY_RANKS, move |comm| {
        let group = Group {
            start: 0,
            size: STEADY_RANKS,
        };
        let rank = comm.rank();
        let params: Vec<Tensor> = (0..STEADY_LAYERS)
            .map(|l| init_param(l, layer_elems))
            .collect();
        comm.reset_ledger();
        // Keep the forward's reduction alive so the compute cannot be
        // optimized away.
        let mut sink = 0.0f32;
        let start;
        let (final_params, log) = if sched == CommSched::Barriered {
            let mut params = params;
            start = Instant::now();
            for iter in 0..STEADY_ITERS {
                for p in &params {
                    sink += forward_pass(p);
                }
                let mut grads: Vec<Option<Tensor>> = vec![None; STEADY_LAYERS];
                for l in (0..STEADY_LAYERS).rev() {
                    grads[l] = Some(local_grad(l, iter, rank, &params[l]));
                }
                // The barrier: every gradient synchronized by a
                // blocking collective before the next forward.
                for (l, g) in grads.into_iter().enumerate() {
                    let reduced = ring_all_reduce_wire_striped(
                        &comm,
                        group,
                        &g.expect("backward produced it"),
                        ReduceOp::Sum,
                        WireFormat::Dense,
                        1,
                    );
                    apply_update(&mut params[l], &reduced);
                }
            }
            (params, Vec::new())
        } else {
            let mut exec = StreamExecutor::new(group, params, sched, WireFormat::Dense);
            start = Instant::now();
            exec.run_iterations(
                &comm,
                STEADY_ITERS,
                |_, _, p| sink += forward_pass(p),
                move |l, iter, p| local_grad(l, iter, rank, p),
                |_, p, g| apply_update(p, g),
            );
            let log = exec.completion_events().iter().map(|c| c.id).collect();
            (exec.params(), log)
        };
        let wall = start.elapsed();
        assert!(sink.is_finite());
        (wall, final_params, comm.ledger(), log)
    });
    let wall = results
        .iter()
        .map(|(t, ..)| *t)
        .max()
        .unwrap_or(Duration::ZERO);
    let (_, params, ledger, log) = results.into_iter().next().expect("rank 0 ran");
    (wall.as_secs_f64(), params, ledger, log)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The costed comparison at the acceptance geometry: barrier-free
    /// iterations/sec beats the barriered loop, and never beats the
    /// busier resource's floor (the sim's admissibility invariant).
    #[test]
    fn simulated_stream_beats_barriered() {
        let sim = steady_state_sim();
        assert!(
            sim.speedup() > 1.0,
            "stream {} !> barrier {}",
            sim.streamed_iters_per_sec(),
            sim.barriered_iters_per_sec()
        );
        // The pipelined time can halve the serial sum at best.
        assert!(sim.speedup() <= 2.0 + 1e-9, "speedup {}", sim.speedup());
    }

    /// The debug-size measured run: bit-identical parameters, the
    /// completion log shows consumption-order synchronization, and
    /// every priority class moved exactly its analytic volume.
    #[test]
    fn steady_state_witnesses_hold() {
        let row = steady_state_bench(1);
        assert_eq!(row.violations(), Vec::<String>::new());
        assert_eq!(
            row.completion_log.len() as u64,
            row.iters * row.layers as u64,
            "every job completes exactly once"
        );
        assert_eq!(
            row.class_bytes_total(),
            row.class_analytic_bytes() * row.layers as u64
        );
        assert!(row.barriered_s > 0.0 && row.streamed_s > 0.0);
    }
}
