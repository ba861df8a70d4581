//! SPMD interpretation of CoCoNet programs with real data movement.
//!
//! Every rank thread walks the program's DFG in topological order,
//! evaluating computations on its local data and dispatching
//! communication operations onto the collective algorithm the run's
//! [`RunOptions`] selects — the flat ring, the binomial tree, or the
//! two-level hierarchical variant, mirroring how a tuned plan's
//! [`CommConfig`](coconet_core::CommConfig) stamps its `CollAlgo` into
//! every collective step. Because transformations only rewrite the
//! graph (fusion/overlap are schedule annotations), the same
//! interpreter executes a program *before and after* any schedule is
//! applied — which is how the integration tests verify the
//! transformations are semantics preserving, and because every
//! algorithm implements the same collective contract, the tests also
//! verify the algorithms agree with each other.
//!
//! Pointwise steps run over contiguous runs, not element by element:
//! the output's local domain splits into runs of consecutive global
//! indices ([`DistValue::global_run`]), each operand resolves once per
//! run (clipped where a broadcast or a slice boundary breaks it) to a
//! typed window of its local buffer or to one repeated value, and one
//! monomorphic loop per operation computes the run in `f32` — FP16
//! operands widened a block at a time, FP16 results rounded on store.
//! `Slice` and `Update` share their operand's storage where the layouts
//! allow, and sliced inputs view (or copy row by row) only this rank's
//! share of their initializer.

use std::collections::HashMap;
use std::thread;

use coconet_compress::WireFormat;
use coconet_core::{
    BinaryOp, Binding, CollAlgo, CommConfig, CommSched, Layout, OpKind, Program, SliceDim, UnaryOp,
    VarId, XferSched,
};
use coconet_tensor::{kernels, CounterRng, DType, ReduceOp, Shape, Tensor, F16};
use coconet_topology::Cluster;

use crate::collectives::{
    all_reduce_scalar, broadcast, clamp_channels, reduce, ring_all_gather_wire_striped,
    ring_reduce_scatter_wire_striped, Group,
};
use crate::compressed::all_reduce_wire_striped;
use crate::hierarchical::{
    hierarchical_all_gather_wire_striped, hierarchical_reduce_scatter_wire_striped,
};
use crate::stream::CommScheduler;
use crate::{DistValue, RankComm, RuntimeError};

/// How to initialize a declared input tensor.
#[derive(Clone, Debug)]
pub enum InitValue {
    /// The full global tensor; the runtime replicates or slices it
    /// according to the input's declared layout. Every group sees the
    /// same global value.
    Global(Tensor),
    /// One tensor per *global* rank (required for `Local` inputs,
    /// allowed everywhere).
    PerRank(Vec<Tensor>),
}

/// Initializers for a program's inputs, keyed by input name.
#[derive(Clone, Debug, Default)]
pub struct Inputs {
    map: HashMap<String, InitValue>,
}

impl Inputs {
    /// An empty initializer set.
    pub fn new() -> Inputs {
        Inputs::default()
    }

    /// Sets the initializer for `name` (builder style).
    pub fn set(mut self, name: impl Into<String>, value: InitValue) -> Inputs {
        self.map.insert(name.into(), value);
        self
    }

    /// Convenience: a global tensor initializer.
    pub fn global(self, name: impl Into<String>, t: Tensor) -> Inputs {
        self.set(name, InitValue::Global(t))
    }

    /// Convenience: per-rank initializers.
    pub fn per_rank(self, name: impl Into<String>, ts: Vec<Tensor>) -> Inputs {
        self.set(name, InitValue::PerRank(ts))
    }

    fn get(&self, name: &str) -> Option<&InitValue> {
        self.map.get(name)
    }
}

/// Execution options.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Seed for the counter-based dropout RNG. Two runs of *different
    /// schedules* of the same program with the same seed produce
    /// identical dropout masks.
    pub seed: u64,
    /// Collective algorithm the interpreter's communication operations
    /// run on — the runtime counterpart of a tuned plan's
    /// [`CommConfig::algo`]. Binomial trees only exist for AllReduce
    /// (NCCL builds no tree ReduceScatter/AllGather either); those fall
    /// back to the ring with an identical result.
    pub algo: CollAlgo,
    /// Consecutive group ranks per node, for the hierarchical
    /// algorithm's intra-node/inter-node split. `0` means the whole
    /// group shares one node, degenerating hierarchical to the ring.
    pub ranks_per_node: usize,
    /// Wire format the communication operations encode their payloads
    /// with — the runtime counterpart of a tuned plan's
    /// [`CommConfig::format`]. Top-k applies to sum AllReduces (with
    /// the automatic dense switchover); one-shot program runs discard
    /// the error-feedback residual.
    pub format: WireFormat,
    /// Communication scheduling discipline — the runtime counterpart of
    /// a tuned plan's [`CommConfig::sched`]. Under
    /// [`CommSched::Priority`], [`run_program_iterations`] streams each
    /// iteration's *trailing* collectives (AllReduces whose results
    /// feed only program outputs) across the iteration boundary instead
    /// of barriering on them. Single-shot [`run_program`] calls behave
    /// identically either way.
    pub sched: CommSched,
    /// Cross-job transfer discipline of the streaming scheduler — the
    /// runtime counterpart of a tuned plan's
    /// [`CommConfig::xfer`](coconet_core::CommConfig). Service order
    /// only: outputs and per-class ledger totals are bit-identical
    /// under either discipline.
    pub xfer: XferSched,
    /// Concurrent lanes every dense collective stripes its payload
    /// across — the runtime counterpart of a tuned plan's
    /// [`CommConfig::channels`]. `1` (the default) runs the single-lane
    /// data plane; wider counts split every hop into contiguous stripe
    /// messages with bit-identical results and unchanged byte totals.
    /// Values clamp into `1..=`[`MAX_CHANNELS`](crate::MAX_CHANNELS).
    pub channels: usize,
    /// When nonzero, every step of every rank sleeps a deterministic
    /// pseudo-random duration in `[0, jitter_ns)` nanoseconds, keyed by
    /// `(seed, rank, iteration, step)`. Exercises the
    /// completion-order-independent paths: results must be bit-identical
    /// at any jitter.
    pub jitter_ns: u64,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            seed: 0x5eed,
            algo: CollAlgo::Ring,
            ranks_per_node: 0,
            format: WireFormat::Dense,
            sched: CommSched::Barriered,
            xfer: XferSched::Fifo,
            channels: 1,
            jitter_ns: 0,
        }
    }
}

impl RunOptions {
    /// A fixed dropout seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> RunOptions {
        self.seed = seed;
        self
    }

    /// A collective algorithm (builder style).
    pub fn with_algo(mut self, algo: CollAlgo) -> RunOptions {
        self.algo = algo;
        self
    }

    /// The node size for the hierarchical algorithm (builder style).
    pub fn with_ranks_per_node(mut self, ranks_per_node: usize) -> RunOptions {
        self.ranks_per_node = ranks_per_node;
        self
    }

    /// A wire format (builder style).
    pub fn with_format(mut self, format: WireFormat) -> RunOptions {
        self.format = format;
        self
    }

    /// A communication scheduling discipline (builder style).
    pub fn with_sched(mut self, sched: CommSched) -> RunOptions {
        self.sched = sched;
        self
    }

    /// A cross-job transfer discipline (builder style).
    pub fn with_xfer(mut self, xfer: XferSched) -> RunOptions {
        self.xfer = xfer;
        self
    }

    /// A channel (lane) count for the dense collectives (builder
    /// style); clamped into `1..=`[`MAX_CHANNELS`](crate::MAX_CHANNELS).
    pub fn with_channels(mut self, channels: usize) -> RunOptions {
        self.channels = clamp_channels(channels);
        self
    }

    /// A per-step jitter bound in nanoseconds (builder style).
    pub fn with_jitter_ns(mut self, jitter_ns: u64) -> RunOptions {
        self.jitter_ns = jitter_ns;
        self
    }

    /// Adopts a tuned plan's communication configuration: the
    /// interpreter will run the collectives on the algorithm the
    /// autotuner selected. The configuration carries no node geometry,
    /// so `ranks_per_node` is left untouched — a hierarchical plan run
    /// with the default of `0` degenerates to the flat ring (same
    /// results, but not the two-level data movement). Pair with
    /// [`with_ranks_per_node`](RunOptions::with_ranks_per_node), or
    /// use [`for_cluster`](RunOptions::for_cluster) to take both from
    /// the machine in one step.
    pub fn with_comm(self, config: CommConfig) -> RunOptions {
        self.with_algo(config.algo)
            .with_format(config.format)
            .with_sched(config.sched)
            .with_xfer(config.xfer)
            .with_channels(config.channels)
    }

    /// Adopts a tuned plan's communication configuration *and* the
    /// cluster's node geometry: collectives run on the algorithm the
    /// autotuner selected, with the hierarchical intra/inter-node
    /// split taken from the cluster's node size
    /// ([`Cluster::node_group`]).
    pub fn for_cluster(self, config: CommConfig, cluster: &Cluster) -> RunOptions {
        self.with_comm(config)
            .with_ranks_per_node(cluster.node_group(0).size())
    }
}

/// The result of executing a program: per-rank output values.
#[derive(Debug)]
pub struct RunResult {
    per_rank: Vec<HashMap<String, DistValue>>,
    group_size: usize,
}

impl RunResult {
    /// The local output value of `name` on a global rank, if present
    /// there (pipeline outputs are absent on the first group).
    pub fn local(&self, rank: usize, name: &str) -> Option<&DistValue> {
        self.per_rank.get(rank).and_then(|m| m.get(name))
    }

    /// Reconstructs the global tensor for output `name` from the first
    /// group that holds it: replicated outputs come from one rank,
    /// sliced outputs are concatenated across the group.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NoSuchOutput`] when the output is absent
    /// everywhere, and tensor errors if reassembly fails.
    pub fn global(&self, name: &str) -> Result<Tensor, RuntimeError> {
        let world = self.per_rank.len();
        let gs = self.group_size;
        for group_start in (0..world).step_by(gs) {
            let Some(first) = self.per_rank[group_start].get(name) else {
                continue;
            };
            match first.layout {
                Layout::Replicated | Layout::Local => return Ok(first.local.clone()),
                Layout::Sliced(SliceDim::Flat) => {
                    let mut out = Tensor::zeros(first.global_shape.clone(), first.local.dtype());
                    let mut off = 0;
                    for r in group_start..group_start + gs {
                        let v = self.per_rank[r]
                            .get(name)
                            .ok_or_else(|| RuntimeError::NoSuchOutput(name.into()))?;
                        out.write_flat(off, &v.local)?;
                        off += v.local.numel();
                    }
                    return Ok(out);
                }
                Layout::Sliced(SliceDim::Dim(d)) => {
                    let locals: Vec<&Tensor> = (group_start..group_start + gs)
                        .map(|r| {
                            self.per_rank[r]
                                .get(name)
                                .map(|v| &v.local)
                                .ok_or_else(|| RuntimeError::NoSuchOutput(name.into()))
                        })
                        .collect::<Result<_, _>>()?;
                    return Ok(Tensor::concat(&locals, d)?);
                }
            }
        }
        Err(RuntimeError::NoSuchOutput(name.into()))
    }
}

/// Executes `program` SPMD on `binding.world_size()` rank threads.
///
/// # Errors
///
/// Returns initializer errors before spawning, and
/// [`RuntimeError::RankPanicked`] if a rank thread dies.
pub fn run_program(
    program: &Program,
    binding: &Binding,
    inputs: &Inputs,
    opts: RunOptions,
) -> Result<RunResult, RuntimeError> {
    run_program_iterations(program, binding, inputs, opts, 1)
}

/// Steady-state entry point: executes `program` `iters` times on
/// persistent rank threads and returns the final iteration's outputs.
///
/// Under [`CommSched::Barriered`] every iteration ends with its
/// collectives fully drained — `iters` barriered runs back to back.
/// Under [`CommSched::Priority`] (with the ring algorithm on a dense or
/// FP16 wire) each iteration's *trailing* collectives — AllReduces
/// whose results feed only program outputs, the shape a training step's
/// gradient syncs take — are enqueued on the priority scheduler and
/// keep draining while the next iteration's compute steps run. The next
/// iteration blocks per collective site, and only when it relaunches
/// that site — the executor-level ready-epoch gate — so first-consumed
/// tensors are synchronized first and the global barrier disappears.
/// Outputs are bit-identical to the barriered schedule: the scheduler
/// reorders wire traffic, never a data dependence.
///
/// `iters` is clamped to at least 1.
///
/// # Errors
///
/// Returns initializer errors before spawning, and
/// [`RuntimeError::RankPanicked`] if a rank thread dies.
pub fn run_program_iterations(
    program: &Program,
    binding: &Binding,
    inputs: &Inputs,
    opts: RunOptions,
    iters: u64,
) -> Result<RunResult, RuntimeError> {
    program.validate()?;
    let iters = iters.max(1);
    let world = binding.world_size();
    // Validate initializers up front for better errors, and reject
    // geometries where a sliced tensor does not divide across the
    // group (the type checker's bind-time divisibility rule).
    for &v in program.inputs() {
        let node = program.node(v)?;
        node.ty().local_numel(binding)?;
        match inputs.get(node.name()) {
            None => return Err(RuntimeError::MissingInput(node.name().into())),
            Some(InitValue::PerRank(ts)) if ts.len() != world => {
                return Err(RuntimeError::BadInput {
                    name: node.name().into(),
                    detail: format!("expected {world} per-rank tensors, got {}", ts.len()),
                });
            }
            Some(_) => {}
        }
    }

    // Scoped rank threads borrow the program, binding, and inputs
    // directly — no deep copies, no reference counting at spawn time.
    let comms = RankComm::world(world);
    let mut per_rank = Vec::with_capacity(world);
    let mut first_err = None;
    thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                s.spawn(move || {
                    coconet_trace::set_thread_rank(comm.rank() as u32);
                    execute_rank(program, binding, inputs, comm, opts, iters)
                })
            })
            .collect();
        for (rank, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(Ok(outputs)) => per_rank.push(outputs),
                Ok(Err(e)) => {
                    per_rank.push(HashMap::new());
                    first_err.get_or_insert(e);
                }
                Err(_) => {
                    per_rank.push(HashMap::new());
                    first_err.get_or_insert(RuntimeError::RankPanicked(rank));
                }
            }
        }
    });
    match first_err {
        Some(e) => Err(e),
        None => Ok(RunResult {
            per_rank,
            group_size: binding.group_size,
        }),
    }
}

/// The trailing collectives of `program`: AllReduce nodes whose results
/// feed only program outputs — the gradient-sync shape that may drain
/// across an iteration boundary without reordering any data dependence.
/// Maps each site to `(ordinal, priority class)`, where the ordinal is
/// the site's position in topological (= next-iteration consumption)
/// order.
fn trailing_all_reduces(program: &Program) -> HashMap<VarId, (u64, u8)> {
    let mut sites = HashMap::new();
    for v in program.topo_order() {
        if matches!(program.op(v), Ok(OpKind::AllReduce(..)))
            && program.outputs().contains(&v)
            && program.consumers(v).is_empty()
        {
            let ordinal = sites.len() as u64;
            sites.insert(v, (ordinal, ordinal.min(u8::MAX as u64) as u8));
        }
    }
    sites
}

/// Static trace label of a DFG step — the name its span renders under
/// in an exported trace.
fn op_trace_label(op: &OpKind) -> &'static str {
    match op {
        OpKind::Input => "input",
        OpKind::ConstScalar(_) => "const",
        OpKind::Unary(..) => "unary",
        OpKind::Binary(..) => "binary",
        OpKind::MatMul(..) => "matmul",
        OpKind::Conv2d(..) => "conv2d",
        OpKind::Dropout(..) => "dropout",
        OpKind::Update(..) => "update",
        OpKind::Norm(_) => "norm",
        OpKind::ReduceTensor(..) => "reduce_tensor",
        OpKind::Slice(_) => "slice",
        OpKind::AllReduce(..) => "all_reduce",
        OpKind::ReduceScatter(..) => "reduce_scatter",
        OpKind::AllGather(_) => "all_gather",
        OpKind::Broadcast(..) => "broadcast",
        OpKind::Reduce(..) => "reduce",
        OpKind::Send(..) => "send",
    }
}

/// Deterministic per-step jitter: a splitmix64 hash of the key, scaled
/// into `[0, max_ns)`.
fn jitter_delay_ns(seed: u64, key: u64, max_ns: u64) -> u64 {
    let mut z = seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % max_ns
}

fn execute_rank(
    program: &Program,
    binding: &Binding,
    inputs: &Inputs,
    comm: RankComm,
    opts: RunOptions,
    iters: u64,
) -> Result<HashMap<String, DistValue>, RuntimeError> {
    let gs = binding.group_size;
    let pos = comm.rank() % gs;

    // Stable dropout ordinals: schedules do not add or remove dropouts.
    let mut dropout_ordinal: HashMap<VarId, u64> = HashMap::new();
    for v in program.topo_order() {
        if matches!(program.op(v), Ok(OpKind::Dropout(..))) {
            let next = dropout_ordinal.len() as u64;
            dropout_ordinal.insert(v, next);
        }
    }

    // Priority streaming applies to the ring on a dense/FP16 wire (the
    // formats whose streamed ring is bit-identical to the blocking
    // one) and to the in-network switch (whose streamed job folds in
    // the same ascending position order as the blocking path);
    // everything else keeps the blocking collectives, which is always
    // semantically safe — Barriered is the identity schedule.
    let streaming = opts.sched == CommSched::Priority
        && matches!(opts.algo, CollAlgo::Ring | CollAlgo::Switch)
        && !matches!(opts.format, WireFormat::TopK { .. });
    let trailing = if streaming {
        trailing_all_reduces(program)
    } else {
        HashMap::new()
    };
    let n_sites = trailing.len() as u64;
    let mut sched = CommScheduler::new().with_xfer(opts.xfer);
    // Per-site in-flight gradient job — the executor-level ready-epoch:
    // a site relaunching in iteration i+1 first waits its iteration-i
    // job, and nothing else.
    let mut pending: HashMap<VarId, u64> = HashMap::new();

    let n_nodes = program
        .topo_order()
        .iter()
        .map(|v| v.index())
        .max()
        .map_or(0, |m| m + 1);
    let mut values: Vec<Option<DistValue>> = vec![None; n_nodes];

    for iter in 0..iters {
        values = execute_iteration(
            program,
            binding,
            inputs,
            &comm,
            opts,
            iter,
            n_nodes,
            &dropout_ordinal,
            &trailing,
            n_sites,
            &mut sched,
            &mut pending,
        )?;
    }

    // End of the stream: the final iteration's trailing collectives
    // land now — one settle instead of `iters` barriers.
    for (v, job) in pending.drain() {
        let reduced = sched.wait(&comm, job);
        values[v.index()] = Some(DistValue::replicated(reduced, pos, gs));
    }

    let mut outputs = HashMap::new();
    for &out in program.outputs() {
        let name = program.node(out)?.name().to_string();
        if let Some(val) = values[out.index()].take() {
            outputs.insert(name, val);
        }
    }
    Ok(outputs)
}

#[allow(clippy::too_many_arguments)]
fn execute_iteration(
    program: &Program,
    binding: &Binding,
    inputs: &Inputs,
    comm: &RankComm,
    opts: RunOptions,
    iter: u64,
    n_nodes: usize,
    dropout_ordinal: &HashMap<VarId, u64>,
    trailing: &HashMap<VarId, (u64, u8)>,
    n_sites: u64,
    sched: &mut CommScheduler,
    pending: &mut HashMap<VarId, u64>,
) -> Result<Vec<Option<DistValue>>, RuntimeError> {
    let gs = binding.group_size;
    let rank = comm.rank();
    let group_idx = rank / gs;
    let pos = rank % gs;
    let group = Group {
        start: group_idx * gs,
        size: gs,
    };
    let mut values: Vec<Option<DistValue>> = vec![None; n_nodes];

    for (step, v) in program.topo_order().into_iter().enumerate() {
        if opts.jitter_ns > 0 {
            let key = ((rank as u64) << 48) ^ (iter << 24) ^ step as u64;
            std::thread::sleep(std::time::Duration::from_nanos(jitter_delay_ns(
                opts.seed,
                key,
                opts.jitter_ns,
            )));
        }
        let node = program.node(v)?;
        let ty = node.ty().clone();
        let out_layout = ty.layout;
        let out_shape = ty.shape.eval(binding)?;
        let out_dtype = ty.dtype;

        let pointwise = Pointwise {
            values: &values,
            shape: &out_shape,
            layout: out_layout,
            dtype: out_dtype,
            pos,
            gs,
        };
        let _step_span = coconet_trace::span(
            coconet_trace::EventKind::Compute,
            op_trace_label(node.op()),
            step as u64,
            iter,
        );
        let value: Option<DistValue> = match node.op().clone() {
            OpKind::Input => Some(materialize_input(
                node.name(),
                &out_shape,
                out_layout,
                out_dtype,
                inputs,
                rank,
                pos,
                gs,
            )?),
            OpKind::ConstScalar(c) => Some(DistValue::replicated(
                Tensor::scalar(DType::F32, c as f32),
                pos,
                gs,
            )),
            OpKind::Unary(op, a) => pointwise.unary(op, a),
            OpKind::Binary(op, a, b) => pointwise.binary(op, a, b),
            OpKind::Dropout(a, p) => pointwise.dropout(
                a,
                p,
                CounterRng::new(
                    opts.seed
                        .wrapping_add(dropout_ordinal[&v].wrapping_mul(0x9E37_79B9)),
                ),
            ),
            OpKind::Slice(a) => pointwise.copy(a),
            OpKind::Update(target, x) => {
                let out = pointwise.copy(x);
                if let Some(val) = &out {
                    values[target.index()] = Some(val.clone());
                }
                out
            }
            OpKind::MatMul(a, w) => {
                eval_matmul(&values, a, w, &out_shape, out_layout, out_dtype, pos, gs)?
            }
            OpKind::Conv2d(x, w, params) => {
                match (values[x.index()].as_ref(), values[w.index()].as_ref()) {
                    (Some(xv), Some(wv)) => {
                        let y = xv.local.conv2d(&wv.local, params)?.cast(out_dtype);
                        Some(DistValue {
                            global_shape: out_shape.clone(),
                            layout: out_layout,
                            local: y,
                            pos,
                            group_size: gs,
                        })
                    }
                    _ => None,
                }
            }
            OpKind::Norm(a) => {
                eval_full_reduction(&values, a, comm, group, pos, gs, ReduceOp::Sum, true)
            }
            OpKind::ReduceTensor(op, a) => {
                eval_full_reduction(&values, a, comm, group, pos, gs, op, false)
            }
            OpKind::AllReduce(op, a) => match (values[a.index()].as_ref(), trailing.get(&v)) {
                (None, _) => None,
                (Some(input), Some(&(ordinal, class))) => {
                    // Streamed trailing collective: gate on this site's
                    // previous-iteration job (the ready-epoch), then
                    // relaunch at the priority of its consumption
                    // position. The result materializes when the stream
                    // settles — the next compute step does not wait.
                    if let Some(prev) = pending.remove(&v) {
                        let _ = sched.wait(comm, prev);
                    }
                    let id = iter * n_sites + ordinal;
                    if opts.algo == CollAlgo::Switch {
                        sched.enqueue_switch(id, class, group, &input.local, op);
                    } else {
                        sched.enqueue(id, class, group, &input.local, op, opts.format);
                    }
                    pending.insert(v, id);
                    None
                }
                (Some(input), None) => Some(DistValue::replicated(
                    all_reduce(comm, group, &input.local, op, opts),
                    pos,
                    gs,
                )),
            },
            OpKind::ReduceScatter(op, a) => values[a.index()].as_ref().map(|input| {
                let chunk = reduce_scatter(comm, group, &input.local, op, opts);
                DistValue {
                    global_shape: input.global_shape.clone(),
                    layout: Layout::sliced_flat(),
                    local: chunk,
                    pos,
                    group_size: gs,
                }
            }),
            OpKind::AllGather(a) => match values[a.index()].as_ref() {
                None => None,
                Some(input) => {
                    let chunks = all_gather(comm, group, &input.local, opts);
                    let refs: Vec<&Tensor> = chunks.iter().collect();
                    let full = match input.layout {
                        Layout::Sliced(SliceDim::Dim(d)) => Tensor::concat(&refs, d)?,
                        _ => {
                            let mut out =
                                Tensor::zeros(input.global_shape.clone(), input.local.dtype());
                            let mut off = 0;
                            for c in &chunks {
                                out.write_flat(off, c)?;
                                off += c.numel();
                            }
                            out
                        }
                    };
                    Some(DistValue::replicated(
                        full.reshape(out_shape.clone())?,
                        pos,
                        gs,
                    ))
                }
            },
            OpKind::Broadcast(a, root) => values[a.index()].as_ref().map(|input| {
                DistValue::replicated(broadcast(comm, group, Some(&input.local), root), pos, gs)
            }),
            OpKind::Reduce(op, a, root) => values[a.index()].as_ref().map(|input| {
                DistValue::local(reduce(comm, group, &input.local, op, root), pos, gs)
            }),
            OpKind::Send(a, _) => {
                let shift = ty.group_shift as usize;
                let input = values[a.index()].as_ref();
                // Send to the peer in the next group if this group has
                // the value and a next group exists.
                if group_idx + 1 < binding.num_groups && group_idx + 1 >= shift {
                    if let Some(val) = input {
                        comm.send(rank + gs, val.local.clone());
                    }
                }
                // Receive from the previous group if it sent.
                if group_idx >= shift && group_idx >= 1 {
                    let local = comm.recv(rank - gs);
                    let proto = input.expect("sender side had the value too");
                    Some(DistValue {
                        global_shape: proto.global_shape.clone(),
                        layout: proto.layout,
                        local,
                        pos,
                        group_size: gs,
                    })
                } else {
                    None
                }
            }
        };
        values[v.index()] = value;
    }
    Ok(values)
}

/// AllReduce under the options' algorithm and wire format (the tree is
/// §5.1's second logical topology; the hierarchical variant splits
/// intra/inter-node; top-k rides the sparse exchange when active).
/// One-shot program runs carry no error-feedback residual.
fn all_reduce(
    comm: &RankComm,
    group: Group,
    input: &Tensor,
    op: ReduceOp,
    opts: RunOptions,
) -> Tensor {
    all_reduce_wire_striped(
        comm,
        group,
        input,
        op,
        opts.algo,
        opts.ranks_per_node,
        opts.format,
        None,
        opts.channels,
    )
}

/// ReduceScatter under the options' algorithm and wire format. There
/// is no binomial tree ReduceScatter (the tree algorithm uses the
/// ring's, which has the identical postcondition), and no sparse one —
/// the collectives run a top-k format on the dense wire, exactly as
/// the cost model prices it.
fn reduce_scatter(
    comm: &RankComm,
    group: Group,
    input: &Tensor,
    op: ReduceOp,
    opts: RunOptions,
) -> Tensor {
    let wire = opts.format;
    match opts.algo {
        // The switch aggregates whole tensors; like the tree it has no
        // scatter/gather form and falls back to the ring (mirroring the
        // cost model's `effective_algo`).
        CollAlgo::Ring | CollAlgo::Tree | CollAlgo::Switch => {
            ring_reduce_scatter_wire_striped(comm, group, input, op, wire, opts.channels)
        }
        CollAlgo::Hierarchical => hierarchical_reduce_scatter_wire_striped(
            comm,
            group,
            input,
            op,
            opts.ranks_per_node,
            wire,
            opts.channels,
        ),
    }
}

/// AllGather under the options' algorithm and wire format (tree falls
/// back to ring and top-k to dense, like ReduceScatter).
fn all_gather(comm: &RankComm, group: Group, chunk: &Tensor, opts: RunOptions) -> Vec<Tensor> {
    let wire = opts.format;
    match opts.algo {
        CollAlgo::Ring | CollAlgo::Tree | CollAlgo::Switch => {
            ring_all_gather_wire_striped(comm, group, chunk, wire, opts.channels)
        }
        CollAlgo::Hierarchical => hierarchical_all_gather_wire_striped(
            comm,
            group,
            chunk,
            opts.ranks_per_node,
            wire,
            opts.channels,
        ),
    }
}

#[allow(clippy::too_many_arguments)]
fn materialize_input(
    name: &str,
    global_shape: &Shape,
    layout: Layout,
    dtype: DType,
    inputs: &Inputs,
    rank: usize,
    pos: usize,
    gs: usize,
) -> Result<DistValue, RuntimeError> {
    let init = inputs
        .get(name)
        .ok_or_else(|| RuntimeError::MissingInput(name.into()))?;
    let local_shape = DistValue::local_shape(global_shape, layout, gs);
    match init {
        InitValue::Global(t) => {
            if t.shape() != global_shape {
                return Err(RuntimeError::BadInput {
                    name: name.into(),
                    detail: format!(
                        "declared global shape {global_shape}, initializer is {}",
                        t.shape()
                    ),
                });
            }
            // Replicated and Local layouts share the initializer's
            // buffer across ranks; sliced layouts view (or, for interior
            // dimensions, copy row by row) only this rank's share, and
            // only that share is cast.
            let mut value = DistValue::from_global(t, layout, pos, gs)?;
            value.local = value.local.cast(dtype);
            Ok(value)
        }
        InitValue::PerRank(ts) => {
            let t = ts[rank].cast(dtype);
            if t.shape() != &local_shape {
                return Err(RuntimeError::BadInput {
                    name: name.into(),
                    detail: format!("expected per-rank shape {local_shape}, got {}", t.shape()),
                });
            }
            Ok(DistValue {
                global_shape: global_shape.clone(),
                layout,
                local: t,
                pos,
                group_size: gs,
            })
        }
    }
}

/// Elements a pointwise loop handles at a time: FP16 operands widen
/// into, and FP16 results stage in, `f32` scratch of this length, so no
/// operand is ever widened whole.
const BLOCK: usize = 2048;

/// One operand's values over a block: a window of `f32` values, or one
/// value repeated (a size-1 or broadcast operand).
#[derive(Clone, Copy)]
enum Lane<'a> {
    Vals(&'a [f32]),
    Splat(f32),
}

/// One operand's storage over a run of output elements: a typed window
/// of its local buffer, or one repeated value.
enum Window<'v> {
    F32(&'v [f32]),
    F16(&'v [F16]),
    Splat(f32),
}

/// A pointwise operand resolved once against the output's global shape.
/// The output reads it in aligned blocks of `block` consecutive
/// elements; over each block the operand's index either advances with
/// the output's (`contiguous`: same shape, or a trailing-suffix
/// broadcast such as a `[H]` bias against `[B, S, H]`) or stays put (a
/// size-1 operand, or one broadcast along the innermost dimensions).
struct Operand<'v> {
    value: &'v DistValue,
    block: usize,
    contiguous: bool,
}

impl<'v> Operand<'v> {
    fn new(value: &'v DistValue, out: &Shape) -> Operand<'v> {
        let (dims, out) = (value.global_shape.dims(), out.dims());
        let lead = out.len() - dims.len();
        // The trailing output extent over which the (right-aligned)
        // operand dimensions all satisfy `keep`.
        let trailing = |keep: fn(usize, usize) -> bool| -> usize {
            (0..out.len())
                .rev()
                .take_while(|&i| keep(if i < lead { 1 } else { dims[i - lead] }, out[i]))
                .map(|i| out[i])
                .product()
        };
        let same = trailing(|d, o| d == o);
        let repeated = trailing(|d, _| d == 1);
        Operand {
            value,
            block: same.max(repeated),
            contiguous: same >= repeated,
        }
    }

    /// The operand over output elements `g..g + len`, clipped to where
    /// it stays one window (or one repeated value): the window and the
    /// clipped length. One index computation, whatever the length.
    fn window(&self, out: &Shape, g: usize, len: usize) -> (Window<'v>, usize) {
        let len = len.min(self.block - g % self.block);
        let gidx = self.value.global_shape.broadcast_index(out, g);
        let (at, held) = self.value.local_run(gidx);
        let local = &self.value.local;
        if !self.contiguous {
            return (Window::Splat(local.get(at)), len);
        }
        let len = len.min(held);
        let window = match (local.as_f32_slice(), local.as_f16_slice()) {
            (Some(v), _) => Window::F32(&v[at..at + len]),
            (_, Some(v)) => Window::F16(&v[at..at + len]),
            _ => unreachable!("tensors are F32 or F16"),
        };
        (window, len)
    }
}

/// A pointwise step's result buffer: F32 results land in place, F16
/// results stage a block in `f32` and round on store (as
/// [`Tensor::from_f32_vec`] does).
enum Staged {
    F32(Vec<f32>),
    F16(Vec<F16>, Vec<f32>),
}

impl Staged {
    fn new(dtype: DType, n: usize) -> Staged {
        match dtype {
            DType::F32 => Staged::F32(vec![0.0; n]),
            DType::F16 => Staged::F16(vec![F16::ZERO; n], vec![0.0; BLOCK.min(n)]),
        }
    }

    /// Computes local elements `at..at + len` (`len <= BLOCK`) with `f`.
    fn compute(&mut self, at: usize, len: usize, f: impl FnOnce(&mut [f32])) {
        match self {
            Staged::F32(v) => f(&mut v[at..at + len]),
            Staged::F16(v, stage) => {
                let stage = &mut stage[..len];
                f(stage);
                kernels::f16_encode_serial(stage, &mut v[at..at + len]);
            }
        }
    }

    fn into_tensor(self, shape: Shape) -> Tensor {
        match self {
            Staged::F32(v) => Tensor::from_f32_vec(shape, DType::F32, v),
            Staged::F16(v, _) => Tensor::from_f16_vec(shape, v),
        }
        .expect("same element count")
    }
}

/// A pointwise step on this rank: the values computed so far and the
/// output's global shape, layout and element type. Each method returns
/// `None` if an operand is absent on this rank.
struct Pointwise<'v> {
    values: &'v [Option<DistValue>],
    shape: &'v Shape,
    layout: Layout,
    dtype: DType,
    pos: usize,
    gs: usize,
}

impl Pointwise<'_> {
    fn unary(&self, op: UnaryOp, a: VarId) -> Option<DistValue> {
        // One arm per operation, so every inner loop is monomorphic.
        match op {
            UnaryOp::Sqrt => self.map(a, |x, _| UnaryOp::Sqrt.apply(x)),
            UnaryOp::Tanh => self.map(a, |x, _| UnaryOp::Tanh.apply(x)),
            UnaryOp::Relu => self.map(a, |x, _| UnaryOp::Relu.apply(x)),
            UnaryOp::Neg => self.map(a, |x, _| UnaryOp::Neg.apply(x)),
        }
    }

    fn binary(&self, op: BinaryOp, a: VarId, b: VarId) -> Option<DistValue> {
        match op {
            BinaryOp::Add => self.zip(a, b, |x, y| BinaryOp::Add.apply(x, y)),
            BinaryOp::Sub => self.zip(a, b, |x, y| BinaryOp::Sub.apply(x, y)),
            BinaryOp::Mul => self.zip(a, b, |x, y| BinaryOp::Mul.apply(x, y)),
            BinaryOp::Div => self.zip(a, b, |x, y| BinaryOp::Div.apply(x, y)),
            BinaryOp::Pow => self.zip(a, b, |x, y| BinaryOp::Pow.apply(x, y)),
        }
    }

    /// Inverted dropout: the mask of output element `g` is
    /// `rng.keep_at(g)` at its *global* index, so every layout and
    /// schedule draws the same masks.
    fn dropout(&self, a: VarId, p: f64, rng: CounterRng) -> Option<DistValue> {
        let scale = (1.0 / (1.0 - p)) as f32;
        self.map(a, |x, g| {
            if rng.keep_at(g as u64, p) {
                x * scale
            } else {
                0.0
            }
        })
    }

    /// `Slice` and `Update`: a pure copy. Without a dtype change it
    /// shares the operand's storage — the whole buffer under the same
    /// layout, this rank's share of a replicated operand otherwise.
    fn copy(&self, a: VarId) -> Option<DistValue> {
        let src = self.values[a.index()].as_ref()?;
        if src.local.dtype() == self.dtype && src.global_shape == *self.shape {
            if src.layout == self.layout {
                return Some(src.clone());
            }
            if matches!(src.layout, Layout::Replicated | Layout::Local) {
                if let Ok(value) =
                    DistValue::from_global(&src.local, self.layout, self.pos, self.gs)
                {
                    return Some(value);
                }
            }
        }
        self.map(a, |x, _| x)
    }

    /// A one-operand step; `f` takes the value and its output element's
    /// global index.
    fn map(&self, a: VarId, f: impl Fn(f32, usize) -> f32) -> Option<DistValue> {
        self.eval([a], |[x], out, g| match x {
            Lane::Vals(x) => {
                for (i, (o, &x)) in out.iter_mut().zip(x).enumerate() {
                    *o = f(x, g + i);
                }
            }
            Lane::Splat(x) => {
                for (i, o) in out.iter_mut().enumerate() {
                    *o = f(x, g + i);
                }
            }
        })
    }

    fn zip(&self, a: VarId, b: VarId, f: impl Fn(f32, f32) -> f32) -> Option<DistValue> {
        self.eval([a, b], |[x, y], out, _| match (x, y) {
            (Lane::Vals(x), Lane::Vals(y)) => {
                for ((o, &x), &y) in out.iter_mut().zip(x).zip(y) {
                    *o = f(x, y);
                }
            }
            (Lane::Vals(x), Lane::Splat(y)) => {
                for (o, &x) in out.iter_mut().zip(x) {
                    *o = f(x, y);
                }
            }
            (Lane::Splat(x), Lane::Vals(y)) => {
                for (o, &y) in out.iter_mut().zip(y) {
                    *o = f(x, y);
                }
            }
            (Lane::Splat(x), Lane::Splat(y)) => out.fill(f(x, y)),
        })
    }

    /// Evaluates `kernel` over the output's local domain: one run of
    /// consecutive global indices at a time, split only where an
    /// operand's window breaks, in blocks of at most [`BLOCK`]. The
    /// kernel receives the block's operand lanes, its output slice, and
    /// the global index of its first element.
    fn eval<const N: usize>(
        &self,
        operands: [VarId; N],
        kernel: impl Fn([Lane<'_>; N], &mut [f32], usize),
    ) -> Option<DistValue> {
        let mut ops = Vec::with_capacity(N);
        for o in operands {
            ops.push(Operand::new(self.values[o.index()].as_ref()?, self.shape));
        }
        let local_shape = DistValue::local_shape(self.shape, self.layout, self.gs);
        let n = local_shape.numel();
        let mut out = Staged::new(self.dtype, n);
        let mut widened = vec![0.0f32; N * BLOCK];
        let mut l = 0;
        while l < n {
            let (g, run) = DistValue::global_run(self.shape, self.layout, self.pos, self.gs, l);
            let mut done = 0;
            while done < run {
                let mut len = run - done;
                let windows: [Window; N] = std::array::from_fn(|k| {
                    let (window, clipped) = ops[k].window(self.shape, g + done, len);
                    len = clipped;
                    window
                });
                for b in (0..len).step_by(BLOCK) {
                    let bl = BLOCK.min(len - b);
                    for (window, scratch) in windows.iter().zip(widened.chunks_mut(BLOCK)) {
                        if let Window::F16(v) = window {
                            kernels::f16_decode_serial(&v[b..b + bl], &mut scratch[..bl]);
                        }
                    }
                    let lanes = std::array::from_fn(|k| match windows[k] {
                        Window::F32(v) => Lane::Vals(&v[b..b + bl]),
                        Window::F16(_) => Lane::Vals(&widened[k * BLOCK..k * BLOCK + bl]),
                        Window::Splat(x) => Lane::Splat(x),
                    });
                    out.compute(l + done + b, bl, |dst| kernel(lanes, dst, g + done + b));
                }
                done += len;
            }
            l += run;
        }
        Some(DistValue {
            global_shape: self.shape.clone(),
            layout: self.layout,
            local: out.into_tensor(local_shape),
            pos: self.pos,
            group_size: self.gs,
        })
    }
}

#[allow(clippy::too_many_arguments)]
fn eval_matmul(
    values: &[Option<DistValue>],
    a: VarId,
    w: VarId,
    out_shape: &Shape,
    out_layout: Layout,
    out_dtype: DType,
    pos: usize,
    gs: usize,
) -> Result<Option<DistValue>, RuntimeError> {
    let (Some(av), Some(wv)) = (values[a.index()].as_ref(), values[w.index()].as_ref()) else {
        return Ok(None);
    };
    let product = av.local.matmul(&wv.local)?.cast(out_dtype);
    Ok(Some(DistValue {
        global_shape: out_shape.clone(),
        layout: out_layout,
        local: product,
        pos,
        group_size: gs,
    }))
}

#[allow(clippy::too_many_arguments)]
fn eval_full_reduction(
    values: &[Option<DistValue>],
    a: VarId,
    comm: &RankComm,
    group: Group,
    pos: usize,
    gs: usize,
    op: ReduceOp,
    is_norm: bool,
) -> Option<DistValue> {
    let input = values[a.index()].as_ref()?;
    let mut partial: f64 = if is_norm {
        input.local.sum_squares()
    } else {
        (0..input.local.numel())
            .map(|i| f64::from(input.local.get(i)))
            .fold(f64::from(op.identity()), |acc, x| {
                f64::from(op.apply(acc as f32, x as f32))
            })
    };
    if input.layout.is_sliced() {
        partial = all_reduce_scalar(comm, group, partial, op);
    }
    let total = if is_norm { partial.sqrt() } else { partial };
    Some(DistValue::replicated(
        Tensor::scalar(DType::F32, total as f32),
        pos,
        gs,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconet_core::xform::{fuse_all_reduce, overlap, reorder_all_gather, split_all_reduce};
    use coconet_core::{DType, Layout, ReduceOp};
    use coconet_tensor::CounterRng;

    /// The paper's running example (Figure 3).
    fn figure3() -> (Program, Vec<VarId>) {
        let mut p = Program::new("self_attention");
        let w = p.input("w", DType::F16, ["H", "H2"], Layout::sliced(0));
        let b = p.input("b", DType::F16, ["H2"], Layout::Replicated);
        let input = p.input("in", DType::F16, ["B", "S", "H"], Layout::sliced(2));
        let r = p.input("r", DType::F16, ["B", "S", "H2"], Layout::Replicated);
        let layer = p.matmul(input, w).unwrap();
        p.set_name(layer, "layer").unwrap();
        let sum = p.all_reduce(ReduceOp::Sum, layer).unwrap();
        p.set_name(sum, "sum").unwrap();
        let biased = p.add(sum, b).unwrap();
        let d = p.dropout(biased, 0.25).unwrap();
        let out = p.add(d, r).unwrap();
        p.set_name(out, "out").unwrap();
        p.set_io(&[w, input, b, r], &[out]).unwrap();
        (p, vec![layer, sum, biased, d, out])
    }

    fn figure3_inputs() -> (Binding, Inputs) {
        let binding = Binding::new(4)
            .bind("B", 2)
            .bind("S", 4)
            .bind("H", 8)
            .bind("H2", 12);
        let rng = CounterRng::new(7);
        let inputs = Inputs::new()
            .global("w", Tensor::randn([8, 12], DType::F16, rng, 0))
            .global("b", Tensor::randn([12], DType::F16, rng, 1_000))
            .global("in", Tensor::randn([2, 4, 8], DType::F16, rng, 2_000))
            .global("r", Tensor::randn([2, 4, 12], DType::F16, rng, 10_000));
        (binding, inputs)
    }

    #[test]
    fn figure3_baseline_runs_and_is_consistent_across_ranks() {
        let (p, _) = figure3();
        let (binding, inputs) = figure3_inputs();
        let result = run_program(&p, &binding, &inputs, RunOptions::default()).unwrap();
        let global = result.global("out").unwrap();
        assert_eq!(global.shape().dims(), &[2, 4, 12]);
        // Replicated output: every rank agrees exactly.
        for rank in 0..4 {
            let local = result.local(rank, "out").unwrap();
            assert_eq!(local.local.to_f32_vec(), global.to_f32_vec());
        }
    }

    /// §3: every transformation is semantics preserving. The fully
    /// scheduled program (split + reorder + fuse + overlap — the
    /// paper's program 4 in Figure 4) must produce the same output as
    /// the unscheduled one, including identical dropout masks.
    #[test]
    fn transformed_schedule_is_semantics_preserving() {
        let (base, _) = figure3();
        let (binding, inputs) = figure3_inputs();
        let opts = RunOptions::default().with_seed(1234);
        let reference = run_program(&base, &binding, &inputs, opts)
            .unwrap()
            .global("out")
            .unwrap();

        let (mut p, vars) = figure3();
        let (layer, sum, biased, d, out) = (vars[0], vars[1], vars[2], vars[3], vars[4]);
        let (rs, ag) = split_all_reduce(&mut p, sum).unwrap();
        let result = reorder_all_gather(&mut p, ag, &[biased, d, out]).unwrap();
        let new_ag = result.gathers[0].1;
        p.set_name(new_ag, "out_gathered").unwrap();
        fuse_all_reduce(&mut p, rs, &result.sliced, &[new_ag]).unwrap();
        overlap(&mut p, &[layer, rs]).unwrap();
        p.validate().unwrap();

        let transformed = run_program(&p, &binding, &inputs, opts)
            .unwrap()
            .global("out_gathered")
            .unwrap();

        assert_eq!(transformed.shape(), reference.shape());
        let diff = transformed.max_abs_diff(&reference);
        // FP16 rounding differs only through reduction order; the ring
        // schedule is identical, so the results match to within a ulp.
        assert!(diff <= 2e-2, "max diff {diff}");
    }

    /// The intermediate schedules (Figure 4 programs 1 and 2) also
    /// preserve semantics.
    #[test]
    fn split_and_reorder_each_preserve_semantics() {
        let (base, _) = figure3();
        let (binding, inputs) = figure3_inputs();
        let opts = RunOptions::default().with_seed(99);
        let reference = run_program(&base, &binding, &inputs, opts)
            .unwrap()
            .global("out")
            .unwrap();

        // Program 1: split only.
        let (mut p1, vars1) = figure3();
        split_all_reduce(&mut p1, vars1[1]).unwrap();
        let got1 = run_program(&p1, &binding, &inputs, opts)
            .unwrap()
            .global("out")
            .unwrap();
        assert!(got1.max_abs_diff(&reference) <= 2e-2);

        // Program 2: split + reorder.
        let (mut p2, vars2) = figure3();
        let (_, ag) = split_all_reduce(&mut p2, vars2[1]).unwrap();
        let r2 = reorder_all_gather(&mut p2, ag, &[vars2[2], vars2[3], vars2[4]]).unwrap();
        p2.set_name(r2.gathers[0].1, "out2").unwrap();
        let got2 = run_program(&p2, &binding, &inputs, opts)
            .unwrap()
            .global("out2")
            .unwrap();
        assert!(got2.max_abs_diff(&reference) <= 2e-2);
    }

    #[test]
    fn pipeline_send_delivers_to_next_group() {
        // Two groups of 2: group 0 allreduces its input and sends; the
        // output materializes on group 1.
        let mut p = Program::new("pipe");
        let x = p.input("in", DType::F32, ["N"], Layout::Local);
        let sum = p.all_reduce(ReduceOp::Sum, x).unwrap();
        let sent = p
            .send(sum, coconet_core::PeerSelector::NextGroupSameRank)
            .unwrap();
        p.set_name(sent, "received").unwrap();
        p.set_io(&[x], &[sent]).unwrap();

        let binding = Binding::new(2).with_groups(2).bind("N", 4);
        let inputs = Inputs::new().per_rank(
            "in",
            (0..4)
                .map(|r| Tensor::full([4], DType::F32, (r + 1) as f32))
                .collect(),
        );
        let result = run_program(&p, &binding, &inputs, RunOptions::default()).unwrap();
        // Group 0 has no received value.
        assert!(result.local(0, "received").is_none());
        assert!(result.local(1, "received").is_none());
        // Group 1 received group 0's AllReduce (1 + 2 = 3).
        for rank in 2..4 {
            let v = result.local(rank, "received").unwrap();
            assert_eq!(v.local.get(0), 3.0);
        }
        assert_eq!(result.global("received").unwrap().get(0), 3.0);
    }

    /// Every collective algorithm produces the same program outputs —
    /// the executor-level counterpart of the ring-vs-tree-vs-
    /// hierarchical equivalences the collective unit tests prove.
    #[test]
    fn all_algorithms_agree_on_figure3() {
        let (p, _) = figure3();
        let (binding, inputs) = figure3_inputs();
        let reference = run_program(&p, &binding, &inputs, RunOptions::default())
            .unwrap()
            .global("out")
            .unwrap();
        for algo in CollAlgo::ALL {
            let opts = RunOptions::default().with_algo(algo).with_ranks_per_node(2); // 4 ranks = 2 nodes of 2
            let got = run_program(&p, &binding, &inputs, opts)
                .unwrap()
                .global("out")
                .unwrap();
            let diff = got.max_abs_diff(&reference);
            assert!(diff <= 2e-2, "{algo}: diff {diff}");
        }
    }

    /// Every wire format executes every algorithm and preserves the
    /// program's semantics: the dense wire exactly, FP16 within the
    /// per-hop rounding of the values (lossless here — the payloads
    /// are already FP16), and one-shot top-k within its stated
    /// tolerance: an element the wire dropped is off by at most its
    /// own magnitude, so the output error is bounded by the largest
    /// reference magnitude (across-iteration recovery is the error
    /// feedback loop's job, proven in `coconet-models`).
    #[test]
    fn every_wire_format_preserves_semantics_within_tolerance() {
        let (p, _) = figure3();
        let (binding, inputs) = figure3_inputs();
        let reference = run_program(&p, &binding, &inputs, RunOptions::default())
            .unwrap()
            .global("out")
            .unwrap();
        let ref_max = reference
            .to_f32_vec()
            .iter()
            .fold(0.0f32, |a, &b| a.max(b.abs()));
        for algo in CollAlgo::ALL {
            for format in coconet_compress::WireFormat::SWEEP {
                let opts = RunOptions::default()
                    .with_algo(algo)
                    .with_ranks_per_node(2)
                    .with_format(format);
                let got = run_program(&p, &binding, &inputs, opts)
                    .unwrap()
                    .global("out")
                    .unwrap();
                let diff = got.max_abs_diff(&reference);
                let tol = match format {
                    // The ring is the reference; other algorithms
                    // reduce in a different order (FP16 data rounds
                    // differently, same bound the cross-algorithm
                    // equivalence test uses).
                    coconet_compress::WireFormat::Dense if algo == CollAlgo::Ring => 0.0,
                    coconet_compress::WireFormat::Dense | coconet_compress::WireFormat::Fp16 => {
                        2e-2
                    }
                    coconet_compress::WireFormat::TopK { .. } => 1.5 * ref_max,
                };
                assert!(diff <= tol, "{algo}/{format}: diff {diff} > tol {tol}");
                // Replicated outputs stay replicated under every
                // format (the sparse exchange densifies the identical
                // combined chunk on every rank).
                let result = run_program(&p, &binding, &inputs, opts).unwrap();
                let global = result.global("out").unwrap();
                for rank in 0..4 {
                    assert_eq!(
                        result.local(rank, "out").unwrap().local.to_f32_vec(),
                        global.to_f32_vec(),
                        "{algo}/{format} rank {rank}"
                    );
                }
            }
        }
    }

    #[test]
    fn missing_input_is_reported() {
        let (p, _) = figure3();
        let (binding, _) = figure3_inputs();
        let err = run_program(&p, &binding, &Inputs::new(), RunOptions::default());
        assert!(matches!(err, Err(RuntimeError::MissingInput(_))));
    }

    #[test]
    fn bad_shape_is_reported() {
        let (p, _) = figure3();
        let (binding, inputs) = figure3_inputs();
        let bad = inputs.global("w", Tensor::zeros([3, 3], DType::F16));
        let err = run_program(&p, &binding, &bad, RunOptions::default());
        assert!(matches!(err, Err(RuntimeError::BadInput { .. })));
    }

    #[test]
    fn indivisible_sliced_input_is_rejected_up_front() {
        // N = 5 over 2 ranks cannot be sliced: the runtime reports the
        // bind-time divisibility error instead of panicking a rank.
        let mut p = Program::new("odd");
        let x = p.input("x", DType::F32, ["N"], Layout::sliced(0));
        let s = p.slice(x); // placeholder op chain
        let _ = s;
        let two = p.constant(2.0);
        let y = p.mul(x, two).unwrap();
        p.set_io(&[x], &[y]).unwrap();
        let binding = Binding::new(2).bind("N", 5);
        let inputs = Inputs::new().global("x", Tensor::zeros([5], DType::F32));
        let err = run_program(&p, &binding, &inputs, RunOptions::default());
        assert!(
            matches!(
                err,
                Err(RuntimeError::Core(
                    coconet_core::CoreError::IndivisibleSize { .. }
                ))
            ),
            "got {err:?}"
        );
    }

    /// A training-shaped program (compute feeding trailing gradient
    /// AllReduces) streamed over many iterations produces bit-identical
    /// outputs to the barriered schedule, at any per-step jitter.
    #[test]
    fn streamed_iterations_match_barriered_bit_for_bit() {
        // Two "layers": g0 and g1 are local gradients; their AllReduces
        // feed only outputs — the trailing shape that streams.
        let mut p = Program::new("grad_sync");
        let g0 = p.input("g0", DType::F32, ["N"], Layout::Local);
        let g1 = p.input("g1", DType::F32, ["N"], Layout::Local);
        let two = p.constant(2.0);
        let h0 = p.mul(g0, two).unwrap();
        let h1 = p.add(g1, two).unwrap();
        let s0 = p.all_reduce(ReduceOp::Sum, h0).unwrap();
        let s1 = p.all_reduce(ReduceOp::Sum, h1).unwrap();
        p.set_name(s0, "sync0").unwrap();
        p.set_name(s1, "sync1").unwrap();
        p.set_io(&[g0, g1], &[s0, s1]).unwrap();

        let binding = Binding::new(4).bind("N", 9);
        let rng = CounterRng::new(3);
        let inputs = Inputs::new()
            .per_rank(
                "g0",
                (0..4)
                    .map(|r| Tensor::randn([9], DType::F32, rng, r as u64))
                    .collect(),
            )
            .per_rank(
                "g1",
                (0..4)
                    .map(|r| Tensor::randn([9], DType::F32, rng, 100 + r as u64))
                    .collect(),
            );

        let barriered = run_program(&p, &binding, &inputs, RunOptions::default()).unwrap();
        let streamed = run_program_iterations(
            &p,
            &binding,
            &inputs,
            RunOptions::default()
                .with_sched(coconet_core::CommSched::Priority)
                .with_jitter_ns(40_000),
            6,
        )
        .unwrap();
        for name in ["sync0", "sync1"] {
            assert_eq!(
                streamed.global(name).unwrap().to_f32_vec(),
                barriered.global(name).unwrap().to_f32_vec(),
                "{name} diverged under streaming"
            );
        }
    }

    /// Priority scheduling on a program whose AllReduce is *consumed*
    /// downstream (Figure 3) falls back to the blocking path — the
    /// stream never reorders a data dependence.
    #[test]
    fn priority_never_reorders_a_consumed_collective() {
        let (p, _) = figure3();
        let (binding, inputs) = figure3_inputs();
        let opts = RunOptions::default().with_seed(77);
        let reference = run_program(&p, &binding, &inputs, opts)
            .unwrap()
            .global("out")
            .unwrap();
        let streamed = run_program_iterations(
            &p,
            &binding,
            &inputs,
            opts.with_sched(coconet_core::CommSched::Priority),
            3,
        )
        .unwrap()
        .global("out")
        .unwrap();
        assert_eq!(streamed.to_f32_vec(), reference.to_f32_vec());
    }

    #[test]
    fn update_writes_back_and_norm_is_global() {
        // m_ = Update(m, m*2 + g_sum); n = Norm(rsSum) over slices.
        let mut p = Program::new("upd");
        let g = p.input("g", DType::F32, ["N"], Layout::Local);
        let m = p.input("m", DType::F32, ["N"], Layout::Replicated);
        let two = p.constant(2.0);
        let rs = p.reduce_scatter(ReduceOp::Sum, g).unwrap();
        let n = p.norm(rs).unwrap();
        p.set_name(n, "norm").unwrap();
        let dm = p.mul(m, two).unwrap();
        let upd = p.update(m, dm).unwrap();
        p.set_name(upd, "m_").unwrap();
        p.set_io(&[g, m], &[upd, n]).unwrap();

        let binding = Binding::new(4).bind("N", 8);
        let inputs = Inputs::new()
            .per_rank(
                "g",
                (0..4).map(|_| Tensor::full([8], DType::F32, 1.0)).collect(),
            )
            .global("m", Tensor::from_fn([8], DType::F32, |i| i as f32));
        let result = run_program(&p, &binding, &inputs, RunOptions::default()).unwrap();
        let m_ = result.global("m_").unwrap();
        assert_eq!(
            m_.to_f32_vec(),
            (0..8).map(|i| 2.0 * i as f32).collect::<Vec<_>>()
        );
        // Norm of the reduce-scattered g: each element is 4.0 summed
        // over ranks -> sqrt(8 * 16).
        let norm = result.global("norm").unwrap();
        assert!((norm.get(0) - (8.0f32 * 16.0).sqrt()).abs() < 1e-4);
    }

    /// The per-element evaluator the run-based one replaced: every
    /// output element maps to its global index, and every operand is
    /// read through `broadcast_index` and `read_global`.
    #[allow(clippy::too_many_arguments)]
    fn reference_elementwise(
        values: &[Option<DistValue>],
        operands: &[VarId],
        out_shape: &Shape,
        out_layout: Layout,
        out_dtype: DType,
        pos: usize,
        gs: usize,
        f: impl Fn(&[f32], usize) -> f32,
    ) -> Option<DistValue> {
        let ops: Option<Vec<&DistValue>> = operands
            .iter()
            .map(|o| values[o.index()].as_ref())
            .collect();
        let ops = ops?;
        let local_shape = DistValue::local_shape(out_shape, out_layout, gs);
        let mut data = vec![0.0f32; local_shape.numel()];
        let mut args = vec![0.0f32; ops.len()];
        for (l, slot_out) in data.iter_mut().enumerate() {
            let gidx = DistValue::global_index_in(out_shape, out_layout, &local_shape, pos, gs, l);
            for (slot, op) in args.iter_mut().zip(&ops) {
                let op_gidx = op.global_shape.broadcast_index(out_shape, gidx);
                *slot = op.read_global(op_gidx);
            }
            *slot_out = f(&args, gidx);
        }
        let local = Tensor::from_f32_vec(local_shape, out_dtype, data).expect("same element count");
        Some(DistValue {
            global_shape: out_shape.clone(),
            layout: out_layout,
            local,
            pos,
            group_size: gs,
        })
    }

    /// The per-element input slicing the views and row copies replaced:
    /// convert, then gather this rank's elements by global index.
    fn reference_share(t: &Tensor, layout: Layout, dtype: DType, pos: usize, gs: usize) -> Tensor {
        let t = Tensor::from_fn(t.shape().clone(), dtype, |i| t.get(i));
        let local_shape = DistValue::local_shape(t.shape(), layout, gs);
        Tensor::from_fn(local_shape.clone(), dtype, |l| {
            t.get(DistValue::global_index_in(
                t.shape(),
                layout,
                &local_shape,
                pos,
                gs,
                l,
            ))
        })
    }

    /// The stored bit patterns, in the tensor's own dtype.
    fn bits(t: &Tensor) -> Vec<u32> {
        match (t.as_f32_slice(), t.as_f16_slice()) {
            (Some(v), _) => v.iter().map(|x| x.to_bits()).collect(),
            (_, Some(v)) => v.iter().map(|h| u32::from(h.to_bits())).collect(),
            _ => unreachable!("tensors are F32 or F16"),
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum Step {
        Unary(UnaryOp),
        Binary(BinaryOp),
        Dropout(f64),
        Copy,
    }

    const STEPS: [Step; 12] = [
        Step::Unary(UnaryOp::Sqrt),
        Step::Unary(UnaryOp::Tanh),
        Step::Unary(UnaryOp::Relu),
        Step::Unary(UnaryOp::Neg),
        Step::Binary(BinaryOp::Add),
        Step::Binary(BinaryOp::Sub),
        Step::Binary(BinaryOp::Mul),
        Step::Binary(BinaryOp::Div),
        Step::Binary(BinaryOp::Pow),
        Step::Dropout(0.25),
        Step::Dropout(0.5),
        Step::Copy,
    ];

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Run-based pointwise evaluation and input materialization are
        /// bit-identical to the per-element reference: ranks 0–4, every
        /// layout at every position of groups of 1–4, same-shape,
        /// size-1, trailing-suffix and interior broadcasts, F16/F32
        /// mixes, every operation, and rows longer than one block.
        #[test]
        fn run_based_evaluation_matches_the_element_loop(
            rank in 0usize..5,
            dims in prop::collection::vec(1usize..5, 4..5),
            step_pick in 0usize..12,
            operand_picks in prop::collection::vec(0usize..4096, 2..3),
            dtype_bits in 0usize..16,
            wide in any::<bool>(),
        ) {
            let mut dims = dims[..rank].to_vec();
            // Rows several blocks long, for the block loop.
            if wide && (1..=2).contains(&rank) {
                dims[rank - 1] *= BLOCK / 2 + 1;
            }
            let out_shape = Shape::new(dims);
            let dtype = |bit: usize| if dtype_bits >> bit & 1 == 1 { DType::F16 } else { DType::F32 };
            let out_dtype = dtype(2);
            let step = STEPS[step_pick];
            let arity = if matches!(step, Step::Binary(_)) { 2 } else { 1 };

            // Operands: the output's shape (under the output's layout or
            // a full one), or a broadcast shape — leading dims dropped,
            // half the time some set to 1 — held in full.
            let rng = CounterRng::new(11);
            let operands: Vec<(Tensor, Option<Layout>)> = operand_picks
                .iter()
                .take(arity)
                .enumerate()
                .map(|(k, &pick)| {
                    let (shape, layout) = if pick % 2 == 0 {
                        let layout = [None, Some(Layout::Replicated), Some(Layout::Local)];
                        (out_shape.clone(), layout[pick / 2 % 3])
                    } else {
                        let drop = pick / 2 % (rank + 1);
                        let ones = if pick / 8 % 2 == 0 { 0 } else { pick / 32 };
                        let dims: Vec<usize> = out_shape.dims()[drop..]
                            .iter()
                            .enumerate()
                            .map(|(i, &x)| if ones >> i & 1 == 1 { 1 } else { x })
                            .collect();
                        let layout = [Layout::Replicated, Layout::Local][pick / 16 % 2];
                        (Shape::new(dims), Some(layout))
                    };
                    (Tensor::randn(shape, dtype(k), rng, 10_000 * k as u64), layout)
                })
                .collect();
            let mut program = Program::new("ids");
            let vars = [
                program.input("a", DType::F32, ["N"], Layout::Replicated),
                program.input("b", DType::F32, ["N"], Layout::Replicated),
            ];

            let mut layouts = vec![Layout::Replicated, Layout::Local, Layout::sliced_flat()];
            layouts.extend((0..rank).map(Layout::sliced));
            for gs in 1..=4 {
                for &layout in &layouts {
                    let divides = match layout {
                        Layout::Sliced(SliceDim::Flat) => out_shape.numel().is_multiple_of(gs),
                        Layout::Sliced(SliceDim::Dim(d)) => out_shape.dim(d).is_multiple_of(gs),
                        _ => true,
                    };
                    if !divides {
                        continue;
                    }
                    for pos in 0..gs {
                        let mut values: Vec<Option<DistValue>> = vec![None; 2];
                        for ((global, op_layout), v) in operands.iter().zip(vars) {
                            let op_layout = op_layout.unwrap_or(layout);
                            values[v.index()] = Some(DistValue {
                                global_shape: global.shape().clone(),
                                layout: op_layout,
                                local: reference_share(global, op_layout, global.dtype(), pos, gs),
                                pos,
                                group_size: gs,
                            });
                        }
                        let pointwise = Pointwise {
                            values: &values,
                            shape: &out_shape,
                            layout,
                            dtype: out_dtype,
                            pos,
                            gs,
                        };
                        let reference = |f: &dyn Fn(&[f32], usize) -> f32| {
                            reference_elementwise(
                                &values, &vars[..arity], &out_shape, layout, out_dtype, pos, gs, f,
                            )
                        };
                        let (got, want) = match step {
                            Step::Unary(op) => {
                                (pointwise.unary(op, vars[0]), reference(&|a, _| op.apply(a[0])))
                            }
                            Step::Binary(op) => (
                                pointwise.binary(op, vars[0], vars[1]),
                                reference(&|a, _| op.apply(a[0], a[1])),
                            ),
                            Step::Dropout(p) => {
                                let drop_rng = CounterRng::new(5);
                                let scale = (1.0 / (1.0 - p)) as f32;
                                (
                                    pointwise.dropout(vars[0], p, drop_rng),
                                    reference(&|a, g| {
                                        if drop_rng.keep_at(g as u64, p) { a[0] * scale } else { 0.0 }
                                    }),
                                )
                            }
                            Step::Copy => (pointwise.copy(vars[0]), reference(&|a, _| a[0])),
                        };
                        let (got, want) = (got.unwrap(), want.unwrap());
                        let case = format!(
                            "{step:?} -> {out_shape} {layout} {out_dtype:?} pos {pos}/{gs}, operands {:?}",
                            operands.iter().map(|(t, l)| (t.shape(), t.dtype(), l)).collect::<Vec<_>>()
                        );
                        prop_assert_eq!(&got.global_shape, &want.global_shape, "{}", case);
                        prop_assert_eq!(got.layout, want.layout, "{}", case);
                        prop_assert_eq!(got.local.shape(), want.local.shape(), "{}", case);
                        prop_assert_eq!(bits(&got.local), bits(&want.local), "{}", case);
                    }

                    // Input materialization: a global initializer sliced
                    // (and converted) to each rank's share, and per-rank
                    // initializers.
                    let local_shape = DistValue::local_shape(&out_shape, layout, gs);
                    let init = Tensor::randn(out_shape.clone(), dtype(0), rng, 70_000);
                    let per_rank: Vec<Tensor> = (0..gs)
                        .map(|r| {
                            Tensor::randn(local_shape.clone(), dtype(0), rng, 90_000 + 1_000 * r as u64)
                        })
                        .collect();
                    let inputs = Inputs::new().global("x", init.clone()).per_rank("y", per_rank.clone());
                    let declared = dtype(3);
                    for (pos, own) in per_rank.iter().enumerate() {
                        let case = format!("{out_shape} {layout} {declared:?} pos {pos}/{gs}");
                        let got =
                            materialize_input("x", &out_shape, layout, declared, &inputs, pos, pos, gs)
                                .unwrap();
                        let want = reference_share(&init, layout, declared, pos, gs);
                        prop_assert_eq!(got.local.shape(), want.shape(), "global {}", case);
                        prop_assert_eq!(bits(&got.local), bits(&want), "global {}", case);
                        let got =
                            materialize_input("y", &out_shape, layout, declared, &inputs, pos, pos, gs)
                                .unwrap();
                        let want = reference_share(own, Layout::Local, declared, 0, 1);
                        prop_assert_eq!(bits(&got.local), bits(&want), "per-rank {}", case);
                    }
                }
            }
        }
    }
}
