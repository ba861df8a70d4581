//! The streaming workloads: barrier-free data-parallel training
//! through `StreamExecutor::run_iterations` (`dp_stream`,
//! `dp_stream_fp16`).
//!
//! Every local gradient is `c(rank, layer, iter) * P_layer`, where
//! `P_layer` holds small integers and `c` is a multiple of 2^-6, so
//! every gradient and every sum of two is exact in F16 and F32.
//! Parameters start at zero and `apply` steps by a power of two, so
//! every update is exact too. After each chunk the oracle checks every
//! rank's final parameters, element by element, against the closed
//! form `-LR * (sum over iterations and ranks of c) * P_layer`, outside
//! the iteration loop and its spans.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use coconet_core::{CommSched, WireFormat};
use coconet_runtime::{
    ring_all_reduce_wire_bytes, run_ranks, BytesLedger, Group, RankComm, StreamExecutor,
};
use coconet_tensor::{kernels, CounterRng, DType, Tensor};
use coconet_trace::EventKind;

use crate::exec::RANKS;
use crate::report::Report;
use crate::spans::SpanTotals;
use crate::Scale;

/// `dp_stream`'s geometry.
#[derive(Clone, Copy, Debug)]
pub struct StreamGeom {
    /// Layers, one gradient AllReduce each per iteration.
    pub layers: usize,
    /// F32 parameters per layer.
    pub elems: usize,
    /// Stripe lanes per gradient AllReduce.
    pub channels: usize,
    /// Parameters the forward reads per layer.
    pub forward_elems: usize,
}

impl StreamGeom {
    pub fn new(scale: Scale) -> StreamGeom {
        match scale {
            Scale::Full => StreamGeom {
                layers: 8,
                elems: 1 << 20,
                channels: 2,
                forward_elems: 1 << 16,
            },
            Scale::Tiny => StreamGeom {
                layers: 8,
                elems: 1 << 12,
                channels: 2,
                forward_elems: 1 << 8,
            },
        }
    }
}

/// SGD step size of `apply`.
const LR: f32 = 1.0 / 1024.0;

/// Inputs shared by both rank threads.
struct Shared {
    geom: StreamGeom,
    wire: WireFormat,
    seed: u64,
    patterns: Vec<Tensor>,
}

/// The gradient coefficient of `(rank, layer, iter)`: 1/64 to 8/64.
fn coef(seed: u64, rank: usize, layer: usize, iter: u64) -> f32 {
    let k = seed
        .wrapping_add(3 * rank as u64)
        .wrapping_add(5 * layer as u64)
        .wrapping_add(7 * iter);
    (1 + k % 8) as f32 / 64.0
}

/// `dp_stream`'s oracle: a layer's final parameters `got` must equal
/// `scale * pattern` exactly, element by element.
pub fn params_oracle(got: &Tensor, pattern: &Tensor, scale: f32) -> Result<(), String> {
    let want = pattern.as_f32_slice().expect("patterns are F32");
    let got = got.as_f32_slice().expect("F32 parameters");
    if got.len() != want.len() {
        return Err(format!("{} elements, expected {}", got.len(), want.len()));
    }
    // A branch-free pass first (it vectorizes); locate only on failure.
    let wrong = |(&g, &p): (&f32, &f32)| g != scale * p;
    if !got
        .iter()
        .zip(want)
        .fold(false, |bad, pair| bad | wrong(pair))
    {
        return Ok(());
    }
    let i = got
        .iter()
        .zip(want)
        .position(wrong)
        .expect("a mismatch was found");
    Err(format!(
        "element {i}: got {}, expected {}",
        got[i],
        scale * want[i]
    ))
}

impl Shared {
    fn new(geom: StreamGeom, wire: WireFormat, seed: u64) -> Shared {
        let rng = CounterRng::new(seed);
        let n = geom.elems;
        let patterns = (0..geom.layers)
            .map(|l| {
                Tensor::from_fn([n], DType::F32, |i| {
                    (rng.u64_at((l * n + i) as u64) % 16) as f32 - 8.0
                })
            })
            .collect();
        Shared {
            geom,
            wire,
            seed,
            patterns,
        }
    }

    /// The closed-form coefficient of a layer's parameters after
    /// `iters` iterations from zero: `-LR` times the sum of every
    /// rank's gradient coefficients. Exact in F32, as is the pattern
    /// times it.
    fn final_coef(&self, layer: usize, iters: u64) -> f32 {
        let sum: f32 = (0..iters)
            .flat_map(|it| (0..RANKS).map(move |r| (r, it)))
            .map(|(r, it)| coef(self.seed, r, layer, it))
            .sum();
        -LR * sum
    }

    /// Checks one rank's final parameters after `iters` iterations.
    fn check_params(&self, rank: usize, params: &[Tensor], iters: u64) -> Result<(), String> {
        for (l, p) in params.iter().enumerate() {
            params_oracle(p, &self.patterns[l], self.final_coef(l, iters))
                .map_err(|e| format!("rank {rank} layer {l} after {iters} iterations: {e}"))?;
        }
        Ok(())
    }

    /// Analytic per-rank wire bytes of one iteration.
    fn wire_bytes_per_iter(&self) -> u64 {
        let dtype = match self.wire {
            WireFormat::Fp16 => DType::F16,
            _ => DType::F32,
        };
        self.geom.layers as u64 * ring_all_reduce_wire_bytes(self.geom.elems, RANKS, dtype)
    }
}

/// Iterations per streamed chunk (one `run_iterations` call on fresh
/// rank threads). A chunk's timed steps are the intervals between
/// consecutive layer-0 forwards from the second iteration on: the
/// first iteration starts with nothing in flight, and the last ends in
/// the end-of-stream drain.
const CHUNK_ITERS: u64 = 34;

/// One rank's measurements of a streamed chunk.
#[derive(Debug)]
struct RankRun {
    /// At each layer-0 forward: seconds since the chunk started and
    /// seconds spent in the benchmark's own closures so far.
    marks: Vec<(f64, f64)>,
    /// The parameters after the chunk, in layer order.
    params: Vec<Tensor>,
    ledger: BytesLedger,
}

/// Runs `iters` iterations on one rank.
fn rank_run(comm: RankComm, sh: &Shared, iters: u64) -> RankRun {
    let rank = comm.rank();
    let g = sh.geom;
    let group = Group {
        start: 0,
        size: RANKS,
    };
    // Zeroed pages are mapped lazily; writing them here keeps their
    // first touch out of the timed steps.
    let params = (0..g.layers)
        .map(|_| {
            let mut p = Tensor::zeros([g.elems], DType::F32);
            black_box(p.as_f32_slice_mut().expect("F32 parameters")).fill(0.0);
            p
        })
        .collect();
    let mut exec =
        StreamExecutor::new(group, params, CommSched::Priority, sh.wire).with_channels(g.channels);
    let compute = Cell::new(0.0f64);
    let marks = RefCell::new(Vec::with_capacity(iters as usize));

    comm.reset_ledger();
    let start = Instant::now();
    exec.run_iterations(
        &comm,
        iters,
        |l, _iter, p| {
            let t = Instant::now();
            if l == 0 {
                marks
                    .borrow_mut()
                    .push((start.elapsed().as_secs_f64(), compute.get()));
            }
            let act = p
                .slice_flat(0, g.forward_elems)
                .expect("layer holds the slice");
            black_box(act.sum());
            compute.set(compute.get() + t.elapsed().as_secs_f64());
        },
        |l, iter, _p| {
            let t = Instant::now();
            let grad = sh.patterns[l].mul_scalar(coef(sh.seed, rank, l, iter));
            compute.set(compute.get() + t.elapsed().as_secs_f64());
            grad
        },
        |_l, p, reduced| {
            let t = Instant::now();
            let dst = p.as_f32_slice_mut().expect("F32 parameters");
            match reduced.as_f32_slice() {
                Some(step) => kernels::axpy(dst, step, -LR),
                None => kernels::axpy(dst, &reduced.to_f32_vec(), -LR),
            }
            compute.set(compute.get() + t.elapsed().as_secs_f64());
        },
    );
    RankRun {
        marks: marks.into_inner(),
        params: exec.params(),
        ledger: comm.ledger(),
    }
}

/// A chunk's outcome: rank 0's measurements, and whether every rank's
/// final parameters matched the closed form.
struct Chunk {
    run: RankRun,
    verdict: Result<(), String>,
}

/// Runs a chunk of `iters` iterations on `RANKS` rank threads, then
/// checks every rank's final parameters; or says why the chunk died.
fn run_chunk(sh: &Arc<Shared>, iters: u64) -> Result<Chunk, String> {
    let shared = Arc::clone(sh);
    let runs = catch_unwind(AssertUnwindSafe(|| {
        run_ranks(RANKS, move |comm| rank_run(comm, &shared, iters))
    }))
    .map_err(|_| "a rank thread panicked".to_string())?;
    let verdict = runs
        .iter()
        .enumerate()
        .try_for_each(|(rank, r)| sh.check_params(rank, &r.params, iters));
    let run = runs.into_iter().next().expect("RANKS > 0");
    Ok(Chunk { run, verdict })
}

/// A set-up streaming workload.
pub struct StreamWorkload {
    shared: Arc<Shared>,
}

/// Sets up a streaming workload: inputs plus one warm-up iteration.
pub fn setup(scale: Scale, wire: WireFormat, seed: u64) -> Result<StreamWorkload, String> {
    let shared = Arc::new(Shared::new(StreamGeom::new(scale), wire, seed));
    if let Err(e) = run_chunk(&shared, 1)?.verdict {
        return Err(format!("warm-up iteration failed: {e}"));
    }
    Ok(StreamWorkload { shared })
}

/// What a streamed run measured on rank 0, over its timed steps
/// (times) or over every iteration (ledger sums).
#[derive(Debug, Default)]
pub struct StreamRun {
    pub walls: Vec<f64>,
    pub window_s: f64,
    pub compute_s: f64,
    pub iters: u64,
    pub wire_bytes: u64,
    pub sends: u64,
    pub alloc_bytes: u64,
}

impl StreamWorkload {
    /// Runs chunks of `chunk_iters` iterations until `seconds` of
    /// timed steps have been spent, counting every iteration into
    /// `report` and checking each chunk's wire volume against the
    /// analytic ring volume. The final parameters cannot tell which
    /// iteration went wrong, so a chunk whose parameters fail the
    /// oracle counts every one of its iterations as failed.
    pub fn run(&self, seconds: f64, chunk_iters: u64, report: &mut Report) -> StreamRun {
        let mut out = StreamRun::default();
        let mut chunk_iters = chunk_iters;
        while out.walls.is_empty() || out.window_s < seconds {
            if !out.walls.is_empty() {
                // Size the last chunk to the time left: its timed steps
                // plus the two untimed iterations.
                let per_step = out.window_s / out.walls.len() as f64;
                let left = ((seconds - out.window_s) / per_step).ceil() as u64;
                chunk_iters = chunk_iters.min(left + 2).max(4);
            }
            let want = chunk_iters * self.shared.wire_bytes_per_iter();
            let r = match run_chunk(&self.shared, chunk_iters) {
                Ok(Chunk { run, verdict }) => {
                    for _ in 0..chunk_iters {
                        report.count_step(&verdict);
                    }
                    run
                }
                Err(e) => {
                    report.count_failed_run(chunk_iters, &e);
                    break;
                }
            };
            if r.ledger.bytes_sent != want {
                report.violations.push(format!(
                    "rank 0 sent {} wire bytes over {chunk_iters} iterations; \
                     the analytic ring volume is {want}",
                    r.ledger.bytes_sent
                ));
            }
            // From the second iteration on, the previous iteration's
            // gradients are in flight at every layer-0 forward.
            let steady = &r.marks[1.min(r.marks.len() - 1)..];
            let (first, last) = (steady[0], steady[steady.len() - 1]);
            out.walls.extend(steady.windows(2).map(|w| w[1].0 - w[0].0));
            out.window_s += last.0 - first.0;
            out.compute_s += last.1 - first.1;
            out.iters += chunk_iters;
            out.wire_bytes += r.ledger.bytes_sent;
            out.sends += r.ledger.sends;
            out.alloc_bytes += r.ledger.bytes_allocated;
        }
        out
    }

    /// A measured run: `seconds` of timed steps in full-size chunks.
    pub fn run_untraced(&self, seconds: f64, report: &mut Report) -> StreamRun {
        self.run(seconds, CHUNK_ITERS, report)
    }

    /// The traced run: one chunk of `iters` iterations with recording
    /// on, then the stream layer's trace metrics.
    pub fn run_traced(&self, iters: u64, report: &mut Report) -> StreamRun {
        coconet_trace::clear();
        coconet_trace::set_enabled(true);
        let run = self.run(0.0, iters, report);
        coconet_trace::set_enabled(false);
        let events = coconet_trace::take_snapshot();
        report.set(
            "trace.dropped_events",
            coconet_trace::dropped_events() as f64,
        );
        coconet_trace::clear();
        let mut totals = SpanTotals::default();
        totals.add(&events, 0);
        totals.print(iters);
        let n = iters as f64;
        report.set(
            "runtime.stream.ready_wait_s",
            totals.ready_wait_ns as f64 * 1e-9 / n,
        );
        let preempts = events
            .iter()
            .filter(|e| e.rank == 0 && e.kind == EventKind::SchedPreempt)
            .count();
        report.set("runtime.stream.preempts_per_iter", preempts as f64 / n);
        report.set(
            "runtime.stream.hidden_comm_frac",
            coconet_trace::overlap::hidden_comm_fraction(&events).hidden_fraction(),
        );
        run
    }
}

/// One layer's final parameters after a short chunk at the self-test
/// geometry on `wire`, with the pattern and coefficient its oracle
/// checks them against.
#[cfg(test)]
pub fn final_params_triple(seed: u64, wire: WireFormat) -> (Tensor, Tensor, f32) {
    let sh = Arc::new(Shared::new(StreamGeom::new(Scale::Tiny), wire, seed));
    let (layer, iters) = (3, 5);
    let chunk = run_chunk(&sh, iters).expect("the chunk runs");
    (
        chunk.run.params[layer].clone(),
        sh.patterns[layer].clone(),
        sh.final_coef(layer, iters),
    )
}
