//! The runtime's ring engine and barrier-free streaming execution:
//! poll-driven collectives multiplexed over the tagged fabric by a
//! priority scheduler.
//!
//! * [`RingJob`] is the one ring implementation — AllReduce,
//!   ReduceScatter or AllGather as a poll-driven state machine. Each
//!   poll advances at most one chunk hop (one send and/or one
//!   receive+fold), so many jobs interleave on one rank thread at
//!   chunk granularity. A collective striped over `C` lanes runs as
//!   `C` jobs, lane `s` moving the sub-range
//!   `chunk_range(chunk_len, C, s)` of every ring chunk. Folds are
//!   fused out-of-place kernels writing fresh stripes (nothing is
//!   detached copy-on-write), and an AllReduce's gathered stripes
//!   decode straight into one output buffer when the last lane lands.
//!   The wire encode points: the pristine step-0 stripe is encoded as
//!   it is sent; every reduce-scatter hop's result — each carry, and an
//!   AllReduce's owned chunk, whose one encoding seeds the gather — is
//!   stored encoded, since it is only ever sent or gathered; a
//!   ReduceScatter's own stripe stays in the working dtype. On the
//!   FP16 wire over an `F32` working dtype each such hop is one fused
//!   kernel, `narrow(op(local, widen(incoming)))` straight from the
//!   received stripe, with no decoded or folded `f32` stripe between.
//!   The schedule — chunk geometry, virtual-position reduce-scatter
//!   order, `op(local, incoming)` fold order, wire encode points — is
//!   fixed per element, so results are bit-identical at every lane
//!   width and under any poll interleaving. The blocking
//!   `ring_*_wire_striped` entry points are one enqueue plus one wait
//!   on a private one-job [`CommScheduler`].
//! * [`SwitchJob`] is the in-network switch AllReduce
//!   ([`switch_all_reduce`](crate::switch_all_reduce)) as the same kind
//!   of poll-driven state machine: the worker leg sends one quantized
//!   copy up and polls for the folded multicast; the group's position-0
//!   rank additionally hosts the dataplane, gathering contributions and
//!   folding them in ascending position order — the same fold as the
//!   blocking path, so results stay bit-identical under any poll
//!   interleaving.
//! * [`CommScheduler`] owns the in-flight jobs and services them in
//!   strict `(priority class, enqueue order)` order: each scheduling
//!   round runs one chunk hop of the highest-priority job that can make
//!   progress. A high-priority job enqueued late preempts lower ones at
//!   the next chunk boundary; a blocked high-priority job parks and
//!   lower-priority traffic fills the wire until its chunk arrives.
//! * [`StreamExecutor`] is the barrier-free training loop: parameters
//!   carry a *ready epoch*, gradient AllReduces are enqueued with the
//!   class of the layer's position in the **next** iteration's forward
//!   order, and iteration `i+1`'s forward blocks only on the specific
//!   parameter it is about to touch. First-layer gradients overtake
//!   last-layer gradients that backprop produced earlier — exactly the
//!   reordering the per-class [`BytesLedger`](crate::BytesLedger)
//!   counters and the scheduler's completion events expose.
//!
//! Deadlock freedom: sends never block (the fabric's channels are
//! unbounded), receives are non-blocking polls, and every rank polls
//! every unfinished job each round. The globally highest-priority
//! unfinished job is therefore always serviced on every rank it
//! touches, so it completes; induction over the priority order covers
//! the rest.

use coconet_compress::{QuantChunk, WireFormat};
use coconet_core::{CollAlgo, CommSched, XferSched};
use coconet_tensor::{kernels, DType, ReduceOp, Shape, Tensor, F16};
use coconet_trace as trace;
use coconet_trace::metrics::Counter;
use coconet_trace::EventKind;

use std::collections::HashMap;

use crate::collectives::{chunk_range, clamp_channels, wire_decode, wire_encode, Group};
use crate::comm::{RankComm, WireMsg};
use crate::ledger::PRIORITY_CLASSES;
use crate::switch::fold_contributions;

/// Element-type plumbing for the ring engine: the two working dtypes
/// share one generic data path, each monomorphized over its fused
/// out-of-place reduce kernel.
trait StripeElem: Copy + Send + Sync + 'static {
    /// The fill of freshly allocated fold outputs (every element is
    /// overwritten before it is read).
    const ZERO: Self;
    /// The contiguous storage slice of a tensor of this element type.
    fn slice(t: &Tensor) -> &[Self];
    /// `dst[i] = op(a[i], b[i])` through the kernel engine.
    fn reduce_out(a: &[Self], b: &[Self], dst: &mut [Self], op: ReduceOp);
    /// Appends a gathered stripe, widening an FP16-wire stripe back to
    /// this element type (exactly: every binary16 value is an `f32`).
    fn extend_decoded(out: &mut Vec<Self>, stripe: &Tensor);
    /// Adopts an owned vector as a tensor without a copy.
    fn tensor_from(shape: Shape, data: Vec<Self>) -> Tensor;
}

impl StripeElem for f32 {
    const ZERO: f32 = 0.0;
    fn slice(t: &Tensor) -> &[f32] {
        t.as_f32_slice().expect("working dtype is F32")
    }
    fn reduce_out(a: &[f32], b: &[f32], dst: &mut [f32], op: ReduceOp) {
        kernels::reduce_f32_out(a, b, dst, op);
    }
    fn extend_decoded(out: &mut Vec<f32>, stripe: &Tensor) {
        match stripe.as_f32_slice() {
            Some(s) => out.extend_from_slice(s),
            None => {
                let s = stripe.as_f16_slice().expect("FP16 wire stripe");
                let at = out.len();
                out.resize(at + s.len(), 0.0);
                kernels::f16_decode_serial(s, &mut out[at..]);
            }
        }
    }
    fn tensor_from(shape: Shape, data: Vec<f32>) -> Tensor {
        Tensor::from_f32_vec(shape, DType::F32, data).expect("length matches shape")
    }
}

impl StripeElem for F16 {
    const ZERO: F16 = F16::ZERO;
    fn slice(t: &Tensor) -> &[F16] {
        t.as_f16_slice().expect("working dtype is F16")
    }
    fn reduce_out(a: &[F16], b: &[F16], dst: &mut [F16], op: ReduceOp) {
        kernels::reduce_f16_out(a, b, dst, op);
    }
    fn extend_decoded(out: &mut Vec<F16>, stripe: &Tensor) {
        out.extend_from_slice(Self::slice(stripe));
    }
    fn tensor_from(shape: Shape, data: Vec<F16>) -> Tensor {
        Tensor::from_f16_vec(shape, data).expect("length matches shape")
    }
}

/// `op(local, incoming)` into a fresh owned stripe — the ring's one
/// fold, never a write into a shared buffer.
fn fold(local: &Tensor, incoming: &Tensor, op: ReduceOp) -> Tensor {
    fn typed<E: StripeElem>(local: &Tensor, incoming: &Tensor, op: ReduceOp) -> Tensor {
        let mut out = vec![E::ZERO; local.numel()];
        E::reduce_out(E::slice(local), E::slice(incoming), &mut out, op);
        E::tensor_from(Shape::from([out.len()]), out)
    }
    match local.dtype() {
        DType::F32 => typed::<f32>(local, incoming, op),
        DType::F16 => typed::<F16>(local, incoming, op),
    }
}

/// The FP16 wire's fused hop for an `F32` working dtype:
/// `narrow(op(local, widen(incoming)))` straight from the received
/// stripe into one fresh wire stripe. Each element sees the same `f32`
/// operation and rounding as a separate decode, fold and encode, so
/// the bits match them, and so do the codec bytes it counts (the
/// received stripe decoded, plus the result encoded).
fn fold_wire_f16(local: &Tensor, incoming: &Tensor, op: ReduceOp) -> Tensor {
    let bytes = 2 * incoming.size_bytes() as u64;
    trace::metrics::add_counter(Counter::CodecBytes, bytes);
    let _codec = trace::span(EventKind::Codec, "fp16:fold", bytes, 0);
    let local = <f32 as StripeElem>::slice(local);
    let mut out = vec![F16::ZERO; local.len()];
    kernels::reduce_wire_f16_out(local, <F16 as StripeElem>::slice(incoming), &mut out, op);
    F16::tensor_from(Shape::from([out.len()]), out)
}

/// Concatenates `parts` into one fresh flat tensor of `dtype`,
/// decoding FP16-wire stripes on the way — the only pass that writes
/// a gathered element.
fn concat_decoded(parts: &[Tensor], dtype: DType) -> Tensor {
    fn typed<E: StripeElem>(parts: &[Tensor]) -> Tensor {
        let mut out = Vec::with_capacity(parts.iter().map(Tensor::numel).sum());
        for p in parts {
            E::extend_decoded(&mut out, p);
        }
        E::tensor_from(Shape::from([out.len()]), out)
    }
    match dtype {
        DType::F32 => typed::<f32>(parts),
        DType::F16 => typed::<F16>(parts),
    }
}

/// Which collective a [`RingJob`] runs. AllReduce is ReduceScatter
/// then AllGather in one job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RingKind {
    AllReduce,
    ReduceScatter,
    AllGather,
}

/// Where a [`RingJob`] is in the reduce-scatter → all-gather protocol.
/// `sent` marks whether this step's stripe is already on the wire.
#[derive(Clone, Copy, Debug)]
enum Phase {
    ReduceScatter { step: usize, sent: bool },
    AllGather { step: usize, sent: bool },
    Done,
}

/// A finished job's result: one tensor, or an AllGather's chunks in
/// group-position order.
#[derive(Debug)]
pub(crate) enum Output {
    Tensor(Tensor),
    Chunks(Vec<Tensor>),
}

impl Output {
    pub(crate) fn into_tensor(self) -> Tensor {
        match self {
            Output::Tensor(t) => t,
            Output::Chunks(_) => unreachable!("an AllGather yields chunks"),
        }
    }

    pub(crate) fn into_chunks(self) -> Vec<Tensor> {
        match self {
            Output::Chunks(c) => c,
            Output::Tensor(_) => unreachable!("only an AllGather yields chunks"),
        }
    }
}

/// One stripe lane of a ring collective in flight, advanced one chunk
/// hop per poll.
///
/// Stripes travel as *tagged* messages, so any number of jobs share
/// each rank-to-rank stream without disturbing one another — the
/// receiver routes by tag, never by arrival order.
#[derive(Debug)]
pub struct RingJob {
    /// Wire tag of this lane.
    tag: u64,
    /// The logical collective this lane belongs to.
    logical: u64,
    /// Priority class; `None` for a blocking collective, whose sends
    /// stay out of the per-class ledger and whose hops trace as
    /// [`JOB_NONE`](coconet_trace::JOB_NONE).
    class: Option<u8>,
    seq: u64,
    lane: usize,
    lanes: usize,
    kind: RingKind,
    group: Group,
    op: ReduceOp,
    wire: WireFormat,
    /// The full input (AllReduce, ReduceScatter) or the wire-encoded
    /// own chunk (AllGather).
    input: Tensor,
    /// The stripe folded last reduce-scatter step, wire-encoded — this
    /// step's payload.
    carry: Option<Tensor>,
    /// This lane's stripe of every chunk, by group position: the
    /// wire-encoded gathered stripes, or (ReduceScatter) only the own
    /// fully reduced stripe.
    stripes: Vec<Option<Tensor>>,
    phase: Phase,
}

impl RingJob {
    #[allow(clippy::too_many_arguments)]
    fn new(
        kind: RingKind,
        tag: u64,
        logical: u64,
        class: Option<u8>,
        seq: u64,
        group: Group,
        input: &Tensor,
        op: ReduceOp,
        wire: WireFormat,
        lanes: usize,
        lane: usize,
    ) -> RingJob {
        let k = group.size;
        let mut stripes = vec![None; k];
        let phase = if k == 1 {
            // A singleton group moves nothing and never touches the
            // codec; the result is the input itself.
            stripes[0] = Some(match kind {
                RingKind::ReduceScatter => input.slice_flat(0, input.numel()).expect("full range"),
                _ => input.clone(),
            });
            Phase::Done
        } else if kind == RingKind::AllGather {
            Phase::AllGather {
                step: 0,
                sent: false,
            }
        } else {
            Phase::ReduceScatter {
                step: 0,
                sent: false,
            }
        };
        RingJob {
            tag,
            logical,
            class,
            seq,
            lane,
            lanes,
            kind,
            group,
            op,
            wire,
            input: input.clone(),
            carry: None,
            stripes,
            phase,
        }
    }

    fn is_done(&self) -> bool {
        matches!(self.phase, Phase::Done)
    }

    /// Chunk hops still ahead of this job — the contention-aware
    /// scheduler's shortest-remaining-work key.
    fn remaining_hops(&self) -> usize {
        let k = self.group.size;
        let gather = if self.kind == RingKind::ReduceScatter {
            0
        } else {
            k - 1
        };
        match self.phase {
            Phase::ReduceScatter { step, .. } => (k - 1 - step) + gather,
            Phase::AllGather { step, .. } => k - 1 - step,
            Phase::Done => 0,
        }
    }

    /// This lane's stripe of chunk `c` of `t` (`t` tiled into the
    /// group's `k` chunks) — a zero-copy view.
    fn stripe_of(&self, t: &Tensor, c: usize) -> Tensor {
        let (c_off, c_len) = chunk_range(t.numel(), self.group.size, c);
        let (s_off, s_len) = chunk_range(c_len, self.lanes, self.lane);
        t.slice_flat(c_off + s_off, s_len).expect("in range")
    }

    fn send(&self, comm: &RankComm, dst: usize, label: &'static str, payload: Tensor) {
        let traced_id = self.class.map_or(trace::JOB_NONE, |_| self.tag);
        trace::instant_lane(
            EventKind::Hop,
            label,
            self.lane as u32,
            traced_id,
            payload.size_bytes() as u64,
        );
        comm.send_job(dst, self.tag, self.class, WireMsg::Tensor(payload));
    }

    /// Folds a received wire stripe into this rank's stripe of chunk
    /// `c` as `op(local, incoming)`, returning it wire-encoded when
    /// `encode`. An encoded hop on the FP16 wire over an `F32` working
    /// dtype runs the fused widen-fold-narrow kernel; every other hop
    /// decodes, folds and encodes in turn.
    fn fold_hop(&self, c: usize, incoming: Tensor, encode: bool) -> Tensor {
        let local = self.stripe_of(&self.input, c);
        if encode && self.wire == WireFormat::Fp16 && local.dtype() == DType::F32 {
            return fold_wire_f16(&local, &incoming, self.op);
        }
        let folded = fold(
            &local,
            &wire_decode(incoming, self.wire, local.dtype()),
            self.op,
        );
        if encode {
            wire_encode(&folded, self.wire)
        } else {
            folded
        }
    }

    /// Advances the job by at most one chunk hop: sends this step's
    /// stripe if it is not on the wire yet, then polls for the incoming
    /// stripe and folds/stores it. Returns `true` if anything moved.
    fn poll(&mut self, comm: &RankComm) -> bool {
        let k = self.group.size;
        let me = self.group.position(comm.rank());
        let next = self.group.next(comm.rank());
        let prev = self.group.prev(comm.rank());
        let mut progressed = false;
        match self.phase {
            Phase::ReduceScatter { step, sent } => {
                // Textbook ring RS shifted so position `me` ends owning
                // chunk `me`: the schedule of virtual position me − 1.
                let j = (me + k - 1) % k;
                let send_c = (j + k - step) % k;
                let recv_c = (j + k - step - 1) % k;
                if !sent {
                    // Step 0 encodes a pristine input view; later steps
                    // forward the stripe folded (and encoded) last step.
                    let payload = match self.carry.take() {
                        Some(encoded) => encoded,
                        None => wire_encode(&self.stripe_of(&self.input, send_c), self.wire),
                    };
                    self.send(comm, next, "ring:rs", payload);
                    self.phase = Phase::ReduceScatter { step, sent: true };
                    progressed = true;
                }
                if let Some(msg) = comm.try_recv_tagged(prev, self.tag) {
                    let last = step + 1 == k - 1;
                    // Every carry, and an AllReduce's owned chunk (whose
                    // one encoding seeds the gather), is only ever sent
                    // or stored wire-encoded; a ReduceScatter's own
                    // stripe is the caller's result.
                    let encode = !(last && self.kind == RingKind::ReduceScatter);
                    let folded = self.fold_hop(recv_c, expect_tensor(msg), encode);
                    progressed = true;
                    self.phase = if !last {
                        self.carry = Some(folded);
                        Phase::ReduceScatter {
                            step: step + 1,
                            sent: false,
                        }
                    } else {
                        self.stripes[me] = Some(folded);
                        if self.kind == RingKind::ReduceScatter {
                            Phase::Done
                        } else {
                            Phase::AllGather {
                                step: 0,
                                sent: false,
                            }
                        }
                    };
                }
            }
            Phase::AllGather { step, sent } => {
                let send_c = (me + k - step) % k;
                let recv_c = (me + k - step - 1) % k;
                if !sent {
                    // An AllGather job's first hop sends its stripe of
                    // the (already encoded) own chunk, which it never
                    // stores; every later hop forwards a received
                    // handle untouched.
                    let payload = match &self.stripes[send_c] {
                        Some(t) => t.clone(),
                        None => {
                            let own = &self.input;
                            let (s_off, s_len) = chunk_range(own.numel(), self.lanes, self.lane);
                            own.slice_flat(s_off, s_len).expect("in range")
                        }
                    };
                    self.send(comm, next, "ring:ag", payload);
                    self.phase = Phase::AllGather { step, sent: true };
                    progressed = true;
                }
                if let Some(msg) = comm.try_recv_tagged(prev, self.tag) {
                    self.stripes[recv_c] = Some(expect_tensor(msg));
                    progressed = true;
                    self.phase = if step + 1 < k - 1 {
                        Phase::AllGather {
                            step: step + 1,
                            sent: false,
                        }
                    } else {
                        Phase::Done
                    };
                }
            }
            Phase::Done => {}
        }
        progressed
    }
}

/// A ring collective whose lanes are in flight: collects each lane's
/// stripes as it finishes and builds the result once the last lands.
#[derive(Debug)]
struct Gather {
    kind: RingKind,
    /// The caller's input shape and dtype.
    shape: Shape,
    dtype: DType,
    wire: WireFormat,
    /// AllGather: the wire-encoded own chunk, which no lane stores.
    own: Tensor,
    /// Finished lanes' stripes, `[lane][chunk]`.
    lanes: Vec<Option<Vec<Option<Tensor>>>>,
    pending: usize,
}

impl Gather {
    /// Stores a finished lane; returns `true` once every lane has.
    fn land(&mut self, job: RingJob) -> bool {
        self.lanes[job.lane] = Some(job.stripes);
        self.pending -= 1;
        self.pending == 0
    }

    /// Decodes `parts` into one fresh flat buffer, in order.
    fn decode(&self, parts: &[Tensor]) -> Tensor {
        let _codec = (self.wire == WireFormat::Fp16).then(|| {
            let bytes = parts.iter().map(Tensor::size_bytes).sum::<usize>() as u64;
            trace::metrics::add_counter(Counter::CodecBytes, bytes);
            trace::span(EventKind::Codec, "fp16:decode", bytes, 0)
        });
        concat_decoded(parts, self.dtype)
    }

    /// Decodes one whole wire payload, keeping its shape — a buffer
    /// handle on the dense wire.
    fn decode_whole(&self, t: &Tensor) -> Tensor {
        if t.dtype() == self.dtype {
            return t.clone();
        }
        let shape = t.shape().clone();
        self.decode(std::slice::from_ref(t))
            .reshape(shape)
            .expect("same numel")
    }

    /// Builds the result. An AllReduce decodes every gathered stripe,
    /// in (chunk, lane) order — flat element order — straight into one
    /// output buffer; a ReduceScatter's own stripes and an AllGather's
    /// chunks are assembled only where a chunk spans several lanes.
    fn finish(self) -> Output {
        let lanes: Vec<&Vec<Option<Tensor>>> = self
            .lanes
            .iter()
            .map(|l| l.as_ref().expect("every lane landed"))
            .collect();
        let k = lanes[0].len();
        let chunk =
            |c: usize| -> Vec<Tensor> { lanes.iter().filter_map(|l| l[c].clone()).collect() };
        match self.kind {
            RingKind::AllReduce => {
                let parts: Vec<Tensor> = (0..k).flat_map(chunk).collect();
                let out = self.decode(&parts).reshape(self.shape.clone());
                Output::Tensor(out.expect("same numel"))
            }
            RingKind::ReduceScatter => {
                // Only the own chunk's stripes are present; one lane's
                // stripe *is* the chunk.
                let mut parts: Vec<Tensor> = (0..k).flat_map(chunk).collect();
                Output::Tensor(if parts.len() == 1 {
                    parts.swap_remove(0)
                } else {
                    concat_decoded(&parts, self.dtype)
                })
            }
            RingKind::AllGather => Output::Chunks(
                (0..k)
                    .map(|c| match chunk(c).as_slice() {
                        [] => self.decode_whole(&self.own),
                        [whole] => self.decode_whole(whole),
                        stripes => self.decode(stripes),
                    })
                    .collect(),
            ),
        }
    }
}

fn expect_tensor(msg: WireMsg) -> Tensor {
    match msg {
        WireMsg::Tensor(t) => t,
        other => unreachable!("ring jobs carry dense tensors only, got {other:?}"),
    }
}

fn expect_quant(msg: WireMsg) -> QuantChunk {
    match msg {
        WireMsg::Quantized(c) => c,
        other => unreachable!("switch jobs carry quantized chunks only, got {other:?}"),
    }
}
/// An in-network switch AllReduce in flight: the blocking
/// [`switch_all_reduce`](crate::switch_all_reduce) as a poll-driven
/// state machine sharing the tagged fabric with [`RingJob`]s.
///
/// Every worker sends its quantized contribution up once; the
/// position-0 rank's job additionally runs the emulated dataplane —
/// gathering all contributions, folding them in ascending position
/// order (the determinism contract of saturating adds), and
/// multicasting the folded chunk tagged with this job's id. Worker legs
/// are ledgered per class; dataplane legs land in the
/// switch-attributed counters.
#[derive(Debug)]
pub struct SwitchJob {
    id: u64,
    class: u8,
    seq: u64,
    group: Group,
    op: ReduceOp,
    dtype: DType,
    shape: Shape,
    /// Quantized input awaiting its up-send.
    up: Option<QuantChunk>,
    /// Dataplane gather slots (non-empty on the position-0 host only).
    contribs: Vec<Option<QuantChunk>>,
    gathered: usize,
    multicast_done: bool,
    /// The dequantized result once the down multicast landed.
    result: Option<Tensor>,
}

impl SwitchJob {
    /// Starts a switch AllReduce of `input` over `group`, tagged `id`
    /// on the wire and scheduled at `class`. Note the wire is always
    /// fixed-point `i32` — there is no [`WireFormat`] parameter to pass.
    pub fn new(
        id: u64,
        class: u8,
        seq: u64,
        group: Group,
        input: &Tensor,
        op: ReduceOp,
    ) -> SwitchJob {
        let q = {
            let _codec = trace::span(EventKind::Codec, "q15:quantize", input.numel() as u64, id);
            QuantChunk::quantize(input)
        };
        let dtype = input.dtype();
        let shape = input.shape().clone();
        if group.size == 1 {
            // Degenerate group: the blocking path still round-trips
            // through the quantizer; match it.
            let out = q
                .dequantize(dtype)
                .reshape(shape.clone())
                .expect("same numel");
            return SwitchJob {
                id,
                class,
                seq,
                group,
                op,
                dtype,
                shape,
                up: None,
                contribs: Vec::new(),
                gathered: 0,
                multicast_done: true,
                result: Some(out),
            };
        }
        SwitchJob {
            id,
            class,
            seq,
            group,
            op,
            dtype,
            shape,
            up: Some(q),
            contribs: Vec::new(),
            gathered: 0,
            multicast_done: false,
            result: None,
        }
    }

    fn is_done(&self) -> bool {
        self.result.is_some()
    }

    /// Legs still ahead of this job: the up-send, the dataplane
    /// fold/multicast, and the down receive.
    fn remaining_hops(&self) -> usize {
        usize::from(self.up.is_some())
            + usize::from(!self.multicast_done)
            + usize::from(self.result.is_none())
    }

    fn take_result(self) -> Tensor {
        self.result.expect("take_result on an unfinished job")
    }

    /// Advances the job: sends the up copy if still pending, runs one
    /// dataplane gather/fold/multicast round on the host, and polls for
    /// the down multicast. Returns `true` if anything moved.
    fn poll(&mut self, comm: &RankComm) -> bool {
        let me = self.group.position(comm.rank());
        let switch_rank = self.group.rank_at(0);
        let mut progressed = false;

        if let Some(q) = self.up.take() {
            trace::instant(EventKind::Hop, "switch:up", self.id, q.wire_bytes());
            comm.send_tagged(switch_rank, self.id, self.class, WireMsg::Quantized(q));
            progressed = true;
        }

        if me == 0 && !self.multicast_done {
            if self.contribs.is_empty() {
                self.contribs = vec![None; self.group.size];
            }
            for pos in 0..self.group.size {
                if self.contribs[pos].is_none() {
                    if let Some(msg) = comm.try_recv_tagged_switch(self.group.rank_at(pos), self.id)
                    {
                        self.contribs[pos] = Some(expect_quant(msg));
                        self.gathered += 1;
                        progressed = true;
                    }
                }
            }
            if self.gathered == self.group.size {
                let contribs = self
                    .contribs
                    .drain(..)
                    .map(|c| c.expect("all gathered"))
                    .collect();
                let folded = fold_contributions(contribs, self.op);
                for pos in 0..self.group.size {
                    trace::instant(
                        EventKind::Hop,
                        "switch:multicast",
                        self.id,
                        folded.wire_bytes(),
                    );
                    comm.send_tagged_switch(
                        self.group.rank_at(pos),
                        self.id,
                        WireMsg::Quantized(folded.clone()),
                    );
                }
                self.multicast_done = true;
                progressed = true;
            }
        }

        // The worker leg may only look for the down multicast once it
        // can exist — on the host rank the up copy sits in the same
        // self-channel under the same tag until the dataplane consumes
        // it, so polling earlier would swallow it.
        let down_may_exist = me != 0 || self.multicast_done;
        if self.result.is_none() && down_may_exist {
            if let Some(msg) = comm.try_recv_tagged(switch_rank, self.id) {
                let down = expect_quant(msg);
                trace::instant(EventKind::Hop, "switch:down", self.id, down.wire_bytes());
                let out = down
                    .dequantize(self.dtype)
                    .reshape(self.shape.clone())
                    .expect("same numel");
                self.result = Some(out);
                progressed = true;
            }
        }
        progressed
    }
}

/// An in-flight job of either flavor — what the scheduler's queue holds.
#[derive(Debug)]
enum Job {
    Ring(RingJob),
    Switch(SwitchJob),
}

impl Job {
    /// The physical job's wire id (a lane's tag for ring jobs).
    fn id(&self) -> u64 {
        match self {
            Job::Ring(j) => j.tag,
            Job::Switch(j) => j.id,
        }
    }

    /// The priority class; `None` for a blocking collective.
    fn class(&self) -> Option<u8> {
        match self {
            Job::Ring(j) => j.class,
            Job::Switch(j) => Some(j.class),
        }
    }

    fn key(&self) -> (u8, u64) {
        match self {
            Job::Ring(j) => (j.class.unwrap_or(0), j.seq),
            Job::Switch(j) => (j.class, j.seq),
        }
    }

    fn remaining_hops(&self) -> usize {
        match self {
            Job::Ring(j) => j.remaining_hops(),
            Job::Switch(j) => j.remaining_hops(),
        }
    }

    fn poll(&mut self, comm: &RankComm) -> bool {
        match self {
            Job::Ring(j) => j.poll(comm),
            Job::Switch(j) => j.poll(comm),
        }
    }

    fn is_done(&self) -> bool {
        match self {
            Job::Ring(j) => j.is_done(),
            Job::Switch(j) => j.is_done(),
        }
    }
}

/// One structured completion record of the scheduler: which physical
/// job finished, at which priority class, and when. The timestamp is
/// trace-epoch nanoseconds ([`coconet_trace::now_ns`]) so completion
/// records line up with span timestamps in an exported trace.
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// The finished job's wire id (lane-tagged for striped lanes).
    pub id: u64,
    /// The priority class the job ran at.
    pub class: u8,
    /// Completion time in trace-epoch nanoseconds.
    pub ts_ns: u64,
}

/// The wire tag of lane `lane` of logical job `id`: the lane index
/// rides the low [`LANE_BITS`] bits.
fn lane_tag(id: u64, lane: usize) -> u64 {
    (id << LANE_BITS) | lane as u64
}

/// Bits [`lane_tag`] reserves for the lane index —
/// [`MAX_CHANNELS`](crate::MAX_CHANNELS) lanes fit exactly.
const LANE_BITS: u32 = 6;

/// The logical id every blocking ring collective runs under, always
/// lane-tagged. Scheduled jobs keep their ids below it, so its tags
/// `(2^58 − 1) << 6 | lane` collide with no stream tag, raw or
/// lane-tagged.
const BLOCKING_ID: u64 = (1 << (64 - LANE_BITS)) - 1;

/// The priority queue in front of the comm fabric: in-flight
/// [`RingJob`]s and [`SwitchJob`]s serviced in strict
/// `(class, enqueue order)` order with chunk-granular preemption
/// between priority levels.
#[derive(Debug, Default)]
pub struct CommScheduler {
    /// Unfinished jobs, kept sorted by `(class, seq)`.
    jobs: Vec<Job>,
    next_seq: u64,
    /// Cross-job transfer discipline: FIFO services strict
    /// `(class, seq)` order; Aware prefers the job with the fewest
    /// remaining chunk hops (class and seq break ties), the
    /// shortest-remaining-work policy that stops small transfers
    /// convoying behind large ones. Either way every byte still moves
    /// through the same tagged channels, so results and per-class
    /// ledger totals are bit-identical across disciplines — the knob
    /// reorders wire traffic, never data.
    xfer: XferSched,
    /// Ring collectives with lanes still in flight, by logical id.
    gathers: HashMap<u64, Gather>,
    /// Finished results waiting for [`CommScheduler::wait`].
    completed: Vec<(u64, Output)>,
    /// Structured completion records in the order jobs finished — the
    /// reordering witness the steady-state experiment asserts on and
    /// the overlap profiler's job end marker.
    completions: Vec<Completion>,
}

impl CommScheduler {
    /// An empty scheduler (FIFO transfer discipline).
    pub fn new() -> CommScheduler {
        CommScheduler::default()
    }

    /// Selects the cross-job transfer discipline (builder style) — the
    /// runtime counterpart of a tuned plan's
    /// [`CommConfig::xfer`](coconet_core::CommConfig).
    pub fn with_xfer(mut self, xfer: XferSched) -> CommScheduler {
        self.xfer = xfer;
        self
    }

    /// Launches a ring AllReduce of `input` at `class` (clamped to
    /// [`PRIORITY_CLASSES`]; lower classes are serviced first — tag the
    /// launch with the consuming step's position in the next
    /// iteration's forward order). `id` must be agreed on by every rank
    /// in the group and stay below `2^58 − 1`; it tags the job's
    /// chunks on the wire.
    ///
    /// Enqueuing performs no communication: the first chunk goes out on
    /// the first [`poll`](CommScheduler::poll) that services this job.
    pub fn enqueue(
        &mut self,
        id: u64,
        class: u8,
        group: Group,
        input: &Tensor,
        op: ReduceOp,
        wire: WireFormat,
    ) {
        self.enqueue_striped(id, class, group, input, op, wire, 1);
    }

    /// Launches a ring AllReduce striped across `channels` concurrent
    /// lanes: lane `s` is its own poll-driven [`RingJob`] moving stripe
    /// `chunk_range(chunk_len, channels, s)` of every ring chunk, with
    /// its own `(class, seq)` — so the scheduler preempts and
    /// interleaves lanes independently at chunk-stripe granularity.
    /// Lane chunks ride tagged `(id << 6) | lane`; `id` stays below
    /// `2^58 − 1`, as for [`enqueue`](CommScheduler::enqueue), which
    /// `channels <= 1` (or a singleton group) is exactly.
    ///
    /// [`wait`](CommScheduler::wait) on the logical `id` returns the
    /// replicated output; results are bit-identical at every width and
    /// the byte totals are unchanged (stripe sums partition every
    /// chunk).
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_striped(
        &mut self,
        id: u64,
        class: u8,
        group: Group,
        input: &Tensor,
        op: ReduceOp,
        wire: WireFormat,
        channels: usize,
    ) {
        debug_assert!(id < BLOCKING_ID, "job id {id} is reserved");
        let class = class.min(PRIORITY_CLASSES as u8 - 1);
        self.launch(
            RingKind::AllReduce,
            id,
            Some(class),
            group,
            input,
            op,
            wire,
            channels,
        );
    }

    /// Admits one lane job per stripe of a ring collective. Top-k has
    /// no ring form and runs on the dense wire. A blocking
    /// collective (`class == None`) and every striped one ride lane
    /// tags; a single-lane scheduled job keeps its raw id as its tag.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn launch(
        &mut self,
        kind: RingKind,
        id: u64,
        class: Option<u8>,
        group: Group,
        input: &Tensor,
        op: ReduceOp,
        wire: WireFormat,
        channels: usize,
    ) {
        let lanes = if group.size == 1 {
            1
        } else {
            clamp_channels(channels)
        };
        debug_assert!(
            lanes == 1 || id >> (64 - LANE_BITS) == 0,
            "striped id overflows the tag"
        );
        // An AllGather encodes its own chunk once; every lane sends
        // views of that one encoding.
        let encoded = if kind == RingKind::AllGather && group.size > 1 {
            wire_encode(input, wire)
        } else {
            input.clone()
        };
        self.gathers.insert(
            id,
            Gather {
                kind,
                shape: input.shape().clone(),
                dtype: input.dtype(),
                // A singleton group never touches the codec.
                wire: if group.size > 1 {
                    wire
                } else {
                    WireFormat::Dense
                },
                own: encoded.clone(),
                lanes: (0..lanes).map(|_| None).collect(),
                pending: lanes,
            },
        );
        let input = encoded;
        let lane_tagged = class.is_none() || lanes > 1;
        for lane in 0..lanes {
            let seq = self.next_seq;
            self.next_seq += 1;
            let tag = if lane_tagged { lane_tag(id, lane) } else { id };
            self.admit(Job::Ring(RingJob::new(
                kind, tag, id, class, seq, group, &input, op, wire, lanes, lane,
            )));
        }
    }

    /// Launches an in-network switch AllReduce of `input` at `class` —
    /// the [`SwitchJob`] twin of [`enqueue`](CommScheduler::enqueue).
    /// No wire format parameter: the switch wire is always fixed-point
    /// `i32`.
    pub fn enqueue_switch(
        &mut self,
        id: u64,
        class: u8,
        group: Group,
        input: &Tensor,
        op: ReduceOp,
    ) {
        let class = class.min(PRIORITY_CLASSES as u8 - 1);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.admit(Job::Switch(SwitchJob::new(
            id, class, seq, group, input, op,
        )));
    }

    fn admit(&mut self, job: Job) {
        // The single choke point every scheduled physical job passes
        // through — striped lanes and switch jobs included — so every
        // enqueue event has a matching completion event with the same
        // id. Blocking collectives stay out of the scheduler's trace.
        if let Some(class) = job.class() {
            trace::instant(
                EventKind::SchedEnqueue,
                "sched:enqueue",
                job.id(),
                u64::from(class),
            );
        }
        if job.is_done() {
            // Single-rank groups finish at enqueue time.
            self.retire(job);
            return;
        }
        let at = self.jobs.partition_point(|j| j.key() <= job.key());
        self.jobs.insert(at, job);
    }

    /// Records a finished physical job and files its result — for a
    /// ring lane, into its collective's gather, which yields the result
    /// once its last lane lands.
    fn retire(&mut self, job: Job) {
        if let Some(class) = job.class() {
            // The timestamp is read unconditionally — a clock read
            // touches no data, so disabled-tracing runs stay
            // bit-identical.
            let id = job.id();
            let ts_ns = trace::now_ns();
            trace::instant(
                EventKind::SchedComplete,
                "sched:complete",
                id,
                u64::from(class),
            );
            self.completions.push(Completion { id, class, ts_ns });
        }
        match job {
            Job::Switch(j) => self.completed.push((j.id, Output::Tensor(j.take_result()))),
            Job::Ring(j) => {
                let id = j.logical;
                let gather = self.gathers.get_mut(&id).expect("launched above");
                if gather.land(j) {
                    let gather = self.gathers.remove(&id).expect("present");
                    self.completed.push((id, gather.finish()));
                }
            }
        }
    }

    /// One scheduling round: runs one chunk hop of the most-preferred
    /// job that can make progress — strict `(class, seq)` order under
    /// FIFO, shortest-remaining-hops first (class and seq breaking
    /// ties) under the contention-aware discipline. Blocked jobs park;
    /// the first runnable lower-preference job fills the gap — that is
    /// the chunk-granular preemption between priority levels. Returns
    /// `true` if any job moved.
    pub fn poll(&mut self, comm: &RankComm) -> bool {
        // `jobs` is kept sorted by (class, seq), which is FIFO's
        // service order; Aware re-ranks by remaining work per round
        // (cheap: in-flight job counts are small).
        let order: Vec<usize> = match self.xfer {
            XferSched::Fifo => (0..self.jobs.len()).collect(),
            XferSched::Aware => {
                let mut order: Vec<usize> = (0..self.jobs.len()).collect();
                order.sort_by_key(|&i| (self.jobs[i].remaining_hops(), self.jobs[i].key()));
                order
            }
        };
        for (pos, i) in order.into_iter().enumerate() {
            if self.jobs[i].poll(comm) {
                if pos != 0 && self.jobs[i].class().is_some() {
                    // A more-preferred job was blocked on the wire and a
                    // lower-preference one filled the slot — the
                    // chunk-granular preemption the trace exposes.
                    trace::instant(
                        EventKind::SchedPreempt,
                        "sched:fill",
                        self.jobs[i].id(),
                        pos as u64,
                    );
                }
                if self.jobs[i].is_done() {
                    let job = self.jobs.remove(i);
                    self.retire(job);
                }
                return true;
            }
        }
        false
    }

    /// Polls until job `id` completes and returns its result — for a
    /// striped logical id, the replicated output assembled from all of
    /// its lanes.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never enqueued.
    pub fn wait(&mut self, comm: &RankComm, id: u64) -> Tensor {
        self.wait_output(comm, id).into_tensor()
    }

    pub(crate) fn wait_output(&mut self, comm: &RankComm, id: u64) -> Output {
        loop {
            if let Some(at) = self.completed.iter().position(|(j, _)| *j == id) {
                return self.completed.swap_remove(at).1;
            }
            assert!(
                self.gathers.contains_key(&id) || self.jobs.iter().any(|j| j.id() == id),
                "waiting on job {id} that was never enqueued"
            );
            if !self.poll(comm) {
                // Every local job is blocked on the wire; yield while
                // peers catch up.
                std::thread::yield_now();
            }
        }
    }

    /// Polls until every in-flight job completes; results stay claimable
    /// via [`wait`](CommScheduler::wait) (which no longer blocks).
    pub fn drain(&mut self, comm: &RankComm) {
        while !self.jobs.is_empty() {
            if !self.poll(comm) {
                std::thread::yield_now();
            }
        }
    }

    /// Number of unfinished jobs.
    pub fn in_flight(&self) -> usize {
        self.jobs.len()
    }

    /// Structured completion records (id, class, timestamp) in the
    /// order jobs finished — under priority scheduling the
    /// first-consumed (lowest-class) tensors appear first even when
    /// they were enqueued last.
    pub fn completion_events(&self) -> &[Completion] {
        &self.completions
    }
}

/// Runs one ring collective to completion as a single job on a private
/// scheduler — the engine behind every blocking ring entry point. It
/// traces as one collective-phase span, the interval the overlap
/// profiler counts as blocking communication; its sends stay out of
/// the per-class ledger and its hops trace as
/// [`JOB_NONE`](coconet_trace::JOB_NONE).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_ring(
    comm: &RankComm,
    kind: RingKind,
    group: Group,
    input: &Tensor,
    op: ReduceOp,
    wire: WireFormat,
    channels: usize,
) -> Output {
    let label = match kind {
        RingKind::AllReduce => "ring:ar",
        RingKind::ReduceScatter => "ring:rs",
        RingKind::AllGather => "ring:ag",
    };
    let (n, lanes) = (input.numel() as u64, channels as u64);
    let _phase = trace::span(EventKind::CollectivePhase, label, n, lanes);
    let mut sched = CommScheduler::new();
    sched.launch(kind, BLOCKING_ID, None, group, input, op, wire, channels);
    sched.wait_output(comm, BLOCKING_ID)
}

/// One parameter of the streaming training loop: the tensor plus the
/// readiness bookkeeping that replaces the global barrier.
#[derive(Debug)]
struct StreamParam {
    value: Tensor,
    /// Last iteration whose gradient has been applied to `value`.
    ready_epoch: u64,
    /// The in-flight gradient job that must land before the *next*
    /// forward may touch this parameter.
    pending: Option<u64>,
}

/// The barrier-free multi-iteration executor: a data-parallel training
/// loop whose per-layer parameters are gated by ready-epochs instead of
/// an end-of-iteration barrier.
///
/// Per iteration: the forward walks layers first to last, blocking only
/// on the parameter it is about to touch (waiting applies the pending
/// reduced gradient and bumps the ready-epoch); the backward walks last
/// to first, enqueuing each layer's gradient AllReduce with priority
/// class = the layer's position in the next forward (clamped to
/// [`PRIORITY_CLASSES`]). Layer 0's gradient — produced *last* by
/// backprop — therefore overtakes layer L−1's on the wire, and the next
/// iteration's first layers unblock while later gradients still drain.
///
/// Under [`CommSched::Barriered`] the same loop drains every gradient
/// and applies every update at each iteration's end — the classic
/// barrier, kept as the baseline the steady-state experiment measures
/// against.
#[derive(Debug)]
pub struct StreamExecutor {
    group: Group,
    sched: CommSched,
    wire: WireFormat,
    algo: CollAlgo,
    channels: usize,
    scheduler: CommScheduler,
    params: Vec<StreamParam>,
    /// Iterations fully applied to every parameter.
    epoch: u64,
}

impl StreamExecutor {
    /// A streaming executor over `params` (one tensor per layer, in
    /// forward order) for the group `comm` belongs to.
    pub fn new(group: Group, params: Vec<Tensor>, sched: CommSched, wire: WireFormat) -> Self {
        StreamExecutor {
            group,
            sched,
            wire,
            algo: CollAlgo::Ring,
            channels: 1,
            scheduler: CommScheduler::new(),
            params: params
                .into_iter()
                .map(|value| StreamParam {
                    value,
                    ready_epoch: 0,
                    pending: None,
                })
                .collect(),
            epoch: 0,
        }
    }

    /// Routes gradient AllReduces through `algo`:
    /// [`CollAlgo::Switch`] streams [`SwitchJob`]s (fixed-point wire;
    /// results match the *blocking switch* bit for bit, carrying its
    /// quantization error versus the ring); every other algorithm
    /// streams the ring job, matching the blocking executor's fallback.
    pub fn with_algo(mut self, algo: CollAlgo) -> Self {
        self.algo = algo;
        self
    }

    /// Stripes every gradient AllReduce across `channels` lanes — each
    /// lane an independently preemptible sub-job of the scheduler (see
    /// [`CommScheduler::enqueue_striped`]). Parameters are
    /// bit-identical at every width; the switch algorithm's fixed-point
    /// wire stays single-lane. Clamped into
    /// `1..=`[`MAX_CHANNELS`](crate::MAX_CHANNELS).
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.channels = clamp_channels(channels);
        self
    }

    /// Selects the scheduler's cross-job transfer discipline. Outputs
    /// are bit-identical under either (see
    /// [`CommScheduler::with_xfer`]); only wire-service order moves.
    pub fn with_xfer(mut self, xfer: XferSched) -> Self {
        self.scheduler.xfer = xfer;
        self
    }

    /// The scheduler's structured completion records (single-lane job
    /// id = `iter * L + layer`).
    pub fn completion_events(&self) -> &[Completion] {
        self.scheduler.completion_events()
    }

    /// The wire tag of iteration `iter`'s layer-`layer` gradient job.
    /// Deterministic and rank-independent, as the fabric requires.
    pub fn job_id(&self, iter: u64, layer: usize) -> u64 {
        iter * self.params.len() as u64 + layer as u64
    }

    /// Blocks until `layer`'s parameter is up to date with every
    /// iteration whose gradient job was enqueued, applying the pending
    /// update through `apply`. This is the *only* wait the barrier-free
    /// forward performs — one parameter, not the world.
    fn ensure_ready(
        &mut self,
        comm: &RankComm,
        layer: usize,
        apply: &mut impl FnMut(usize, &mut Tensor, &Tensor),
    ) {
        if let Some(job) = self.params[layer].pending.take() {
            let reduced = {
                let _wait = trace::span(EventKind::ReadyWait, "ready_wait", job, layer as u64);
                self.scheduler.wait(comm, job)
            };
            {
                let _apply = trace::span(EventKind::Compute, "apply", layer as u64, job);
                apply(layer, &mut self.params[layer].value, &reduced);
            }
            self.params[layer].ready_epoch += 1;
        }
    }

    /// Progress tick at a kernel boundary: under the barrier-free
    /// schedule, drive every runnable chunk hop forward between two
    /// compute steps. This is what hides communication under compute —
    /// the gradients still draining from iteration `i` advance while
    /// iteration `i+1`'s forward runs, in strict priority order. The
    /// barriered schedule deliberately skips the tick: its fabric only
    /// moves inside the end-of-iteration drain, which is exactly the
    /// serialization the steady-state experiment measures against.
    fn tick(&mut self, comm: &RankComm) {
        if self.sched == CommSched::Priority {
            while self.scheduler.poll(comm) {}
        }
    }

    /// Runs `iters` iterations of the forward/backward/update loop.
    ///
    /// * `forward(layer, iter, param)` — the layer's forward compute
    ///   (called with the parameter guaranteed ready for `iter`).
    /// * `grad(layer, iter, param)` — produces this rank's local
    ///   gradient for the layer (called in reverse layer order).
    /// * `apply(layer, param, reduced)` — folds the group-reduced
    ///   gradient into the parameter.
    ///
    /// On return every enqueued gradient has been applied: the stream
    /// ends with one drain instead of `iters` barriers. Outputs are
    /// bit-identical to the barriered schedule — the scheduler reorders
    /// *wire traffic*, never the read-after-write order of parameters.
    pub fn run_iterations(
        &mut self,
        comm: &RankComm,
        iters: u64,
        mut forward: impl FnMut(usize, u64, &Tensor),
        mut grad: impl FnMut(usize, u64, &Tensor) -> Tensor,
        mut apply: impl FnMut(usize, &mut Tensor, &Tensor),
    ) {
        let layers = self.params.len();
        for _ in 0..iters {
            let iter = self.epoch;
            // Forward: first layers first, each gated on its own
            // ready-epoch only.
            for l in 0..layers {
                self.ensure_ready(comm, l, &mut apply);
                debug_assert_eq!(self.params[l].ready_epoch, iter);
                {
                    let _fwd = trace::span(EventKind::Compute, "forward", l as u64, iter);
                    forward(l, iter, &self.params[l].value);
                }
                // Later layers' gradients drain while this layer's
                // forward just ran; the next ensure_ready usually
                // finds its job already complete.
                self.tick(comm);
            }
            // Backward: gradients appear last layer first; each is
            // launched at the priority of its consumption point in the
            // next forward.
            for l in (0..layers).rev() {
                let g = {
                    let _bwd = trace::span(EventKind::Compute, "grad", l as u64, iter);
                    grad(l, iter, &self.params[l].value)
                };
                let id = self.job_id(iter, l);
                let class = l.min(PRIORITY_CLASSES - 1) as u8;
                if self.algo == CollAlgo::Switch {
                    self.scheduler
                        .enqueue_switch(id, class, self.group, &g, ReduceOp::Sum);
                } else {
                    self.scheduler.enqueue_striped(
                        id,
                        class,
                        self.group,
                        &g,
                        ReduceOp::Sum,
                        self.wire,
                        self.channels,
                    );
                }
                self.params[l].pending = Some(id);
            }
            if self.sched == CommSched::Barriered {
                // The classic end-of-iteration barrier: drain the
                // fabric and update every parameter before the next
                // forward may start.
                self.scheduler.drain(comm);
                for l in 0..layers {
                    self.ensure_ready(comm, l, &mut apply);
                }
            }
            self.epoch += 1;
        }
        // End of stream: settle outstanding updates so callers observe
        // the same final parameters as the barriered schedule.
        self.scheduler.drain(comm);
        for l in 0..layers {
            self.ensure_ready(comm, l, &mut apply);
        }
    }

    /// The parameter tensors, in layer order.
    pub fn params(&self) -> Vec<Tensor> {
        self.params.iter().map(|p| p.value.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run_ranks;
    use coconet_tensor::CounterRng;

    fn group_of(k: usize) -> Group {
        Group { start: 0, size: k }
    }

    fn ring_all_reduce(comm: &RankComm, group: Group, input: &Tensor, op: ReduceOp) -> Tensor {
        crate::ring_all_reduce_wire_striped(comm, group, input, op, WireFormat::Dense, 1)
    }

    fn completion_ids(events: &[Completion]) -> Vec<u64> {
        events.iter().map(|c| c.id).collect()
    }

    /// A streamed switch job reproduces the blocking switch AllReduce
    /// bit for bit, for every group size including the singleton —
    /// both paths fold in ascending position order.
    #[test]
    fn switch_job_matches_blocking_switch() {
        use crate::switch::switch_all_reduce;
        for k in [1usize, 2, 3, 4, 7] {
            let results = run_ranks(k, move |comm| {
                let rng = CounterRng::new(42);
                let input = Tensor::randn([13], DType::F32, rng, (comm.rank() * 1000) as u64);
                let reference = switch_all_reduce(&comm, group_of(k), &input, ReduceOp::Sum);
                let mut sched = CommScheduler::new();
                sched.enqueue_switch(9, 0, group_of(k), &input, ReduceOp::Sum);
                let got = sched.wait(&comm, 9);
                (got, reference)
            });
            for (got, reference) in results {
                assert_eq!(
                    got.to_f32_vec()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    reference
                        .to_f32_vec()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    "k={k}"
                );
                assert_eq!(got.shape(), reference.shape());
            }
        }
    }

    /// Ring and switch jobs share one scheduler: the urgent switch job
    /// completes before the earlier-enqueued low-priority ring job,
    /// and both match their blocking references.
    #[test]
    fn switch_and_ring_jobs_compose_under_priority() {
        use crate::switch::switch_all_reduce;
        let k = 4usize;
        let results = run_ranks(k, move |comm| {
            let rng = CounterRng::new(7);
            let late = Tensor::randn([11], DType::F32, rng, (comm.rank() * 10) as u64);
            let urgent = Tensor::randn([11], DType::F32, rng, (comm.rank() * 10 + 5) as u64);
            let ref_late = ring_all_reduce(&comm, group_of(k), &late, ReduceOp::Sum);
            let ref_urgent = switch_all_reduce(&comm, group_of(k), &urgent, ReduceOp::Sum);
            let mut sched = CommScheduler::new();
            sched.enqueue(100, 5, group_of(k), &late, ReduceOp::Sum, WireFormat::Dense);
            sched.enqueue_switch(200, 0, group_of(k), &urgent, ReduceOp::Sum);
            sched.drain(&comm);
            let log = completion_ids(sched.completion_events());
            let got_urgent = sched.wait(&comm, 200);
            let got_late = sched.wait(&comm, 100);
            (log, got_urgent, ref_urgent, got_late, ref_late)
        });
        for (log, got_urgent, ref_urgent, got_late, ref_late) in results {
            assert_eq!(log, vec![200, 100], "class 0 must finish first");
            assert_eq!(got_urgent.to_f32_vec(), ref_urgent.to_f32_vec());
            assert_eq!(got_late.to_f32_vec(), ref_late.to_f32_vec());
        }
    }

    /// The streaming switch loop matches the blocking switch loop: a
    /// [`StreamExecutor`] routed through [`CollAlgo::Switch`] produces
    /// the same parameters as manually calling the blocking switch
    /// AllReduce per iteration.
    #[test]
    fn stream_executor_switch_matches_blocking_switch_loop() {
        use crate::switch::switch_all_reduce;
        let k = 4usize;
        let iters = 3u64;
        let results = run_ranks(k, move |comm| {
            let rng = CounterRng::new(23);
            let init = Tensor::randn([6], DType::F32, rng, 1);
            let rank = comm.rank();

            // Streamed.
            let mut exec = StreamExecutor::new(
                group_of(k),
                vec![init.clone()],
                CommSched::Priority,
                WireFormat::Dense,
            )
            .with_algo(CollAlgo::Switch);
            exec.run_iterations(
                &comm,
                iters,
                |_, _, _| {},
                move |_, iter, p| {
                    let scale = (rank + 1) as f32 * 0.01 + iter as f32 * 0.001;
                    Tensor::from_fn([6], DType::F32, |i| p.get(i) * scale + i as f32 * 0.1)
                },
                |_, p, g| {
                    let step = Tensor::from_fn([6], DType::F32, |i| p.get(i) - 0.05 * g.get(i));
                    *p = step;
                },
            );
            let streamed = exec.params().swap_remove(0);

            // Blocking reference: same recurrence, blocking switch.
            let mut w = init;
            for iter in 0..iters {
                let scale = (rank + 1) as f32 * 0.01 + iter as f32 * 0.001;
                let g = Tensor::from_fn([6], DType::F32, |i| w.get(i) * scale + i as f32 * 0.1);
                let reduced = switch_all_reduce(&comm, group_of(k), &g, ReduceOp::Sum);
                w = Tensor::from_fn([6], DType::F32, |i| w.get(i) - 0.05 * reduced.get(i));
            }
            (streamed, w)
        });
        for (streamed, blocking) in results {
            assert_eq!(streamed.to_f32_vec(), blocking.to_f32_vec());
        }
    }

    /// Two concurrent jobs of different classes complete in *priority*
    /// order even though the low-priority one was enqueued first, and
    /// both match the blocking reference.
    #[test]
    fn scheduler_reorders_completion_to_priority_order() {
        let k = 4usize;
        let results = run_ranks(k, move |comm| {
            let rng = CounterRng::new(7);
            let late = Tensor::randn([11], DType::F32, rng, (comm.rank() * 10) as u64);
            let urgent = Tensor::randn([11], DType::F32, rng, (comm.rank() * 10 + 5) as u64);
            let ref_late = ring_all_reduce(&comm, group_of(k), &late, ReduceOp::Sum);
            let ref_urgent = ring_all_reduce(&comm, group_of(k), &urgent, ReduceOp::Sum);
            let mut sched = CommScheduler::new();
            // Enqueue order is backprop order: the last-consumed tensor
            // appears first.
            sched.enqueue(100, 5, group_of(k), &late, ReduceOp::Sum, WireFormat::Dense);
            sched.enqueue(
                200,
                0,
                group_of(k),
                &urgent,
                ReduceOp::Sum,
                WireFormat::Dense,
            );
            sched.drain(&comm);
            let log = completion_ids(sched.completion_events());
            let got_urgent = sched.wait(&comm, 200);
            let got_late = sched.wait(&comm, 100);
            (log, got_urgent, ref_urgent, got_late, ref_late)
        });
        for (log, got_urgent, ref_urgent, got_late, ref_late) in results {
            assert_eq!(log, vec![200, 100], "class 0 must finish first");
            assert_eq!(got_urgent.to_f32_vec(), ref_urgent.to_f32_vec());
            assert_eq!(got_late.to_f32_vec(), ref_late.to_f32_vec());
        }
    }

    /// Deterministic preemption proof against a scripted peer: a
    /// low-class job whose peer chunks are withheld parks, the
    /// high-class-number job enqueued *after* it cannot overtake it,
    /// and the per-class ledger shows class-0 traffic fully drained
    /// while class-5 traffic is still partial.
    #[test]
    fn priority_traffic_drains_before_low_priority_traffic() {
        let k = 2usize;
        let n = 8usize; // per-rank elements; k=2 -> two 4-element chunks
        let mut world = RankComm::world(k);
        let peer = world.pop().unwrap(); // rank 1, scripted
        let me = world.pop().unwrap(); // rank 0, runs the scheduler

        let urgent_in = Tensor::from_fn([n], DType::F32, |i| i as f32);
        let low_in = Tensor::from_fn([n], DType::F32, |i| (i * 10) as f32);
        let mut sched = CommScheduler::new();
        // Backprop order: the low-priority (last-consumed) gradient is
        // produced and enqueued first.
        sched.enqueue(1, 5, group_of(k), &low_in, ReduceOp::Sum, WireFormat::Dense);
        sched.enqueue(
            2,
            0,
            group_of(k),
            &urgent_in,
            ReduceOp::Sum,
            WireFormat::Dense,
        );

        // Round 1: the class-0 job is serviced first — its RS chunk
        // goes out before the earlier-enqueued class-5 job's.
        assert!(sched.poll(&me));
        let after_first_send = me.ledger();
        assert_eq!(after_first_send.class_bytes_sent[0], 16, "4 f32 chunk");
        assert_eq!(
            after_first_send.class_bytes_sent[5], 0,
            "class 5 parked behind class 0"
        );

        // The scripted peer answers job 2 (urgent) promptly — its RS
        // partial, then its fully reduced gather chunk — but withholds
        // job 1 entirely; rank 0's scheduler must drive the urgent job
        // to completion with the low job parked on the wire.
        let peer_rs = Tensor::from_fn([4], DType::F32, |i| 100.0 + i as f32);
        let peer_ag = Tensor::from_fn([4], DType::F32, |i| 200.0 + i as f32);
        peer.send_tagged(0, 2, 0, WireMsg::Tensor(peer_rs));
        peer.send_tagged(0, 2, 0, WireMsg::Tensor(peer_ag));
        let urgent = sched.wait(&me, 2);
        // Chunk 0 is the local [0..4] folded with the peer's partial;
        // chunk 1 arrived verbatim from the peer's gather hop.
        assert_eq!(
            urgent.to_f32_vec(),
            vec![100.0, 102.0, 104.0, 106.0, 200.0, 201.0, 202.0, 203.0]
        );

        let ledger = me.ledger();
        let full_volume = 2 * 16u64; // one RS + one AG chunk of 4 f32
        assert_eq!(
            ledger.class_bytes_sent[0], full_volume,
            "urgent job fully drained"
        );
        assert!(
            ledger.class_bytes_sent[5] < full_volume,
            "low-priority job still partial: {} bytes",
            ledger.class_bytes_sent[5]
        );
        assert_eq!(sched.in_flight(), 1, "low job still in flight");
        assert_eq!(completion_ids(sched.completion_events()), [2]);

        // Unblock the peer side (its RS partial, then its gather chunk)
        // so the low job can finish too.
        peer.send_tagged(0, 1, 5, WireMsg::Tensor(Tensor::zeros([4], DType::F32)));
        peer.send_tagged(0, 1, 5, WireMsg::Tensor(Tensor::zeros([4], DType::F32)));
        sched.drain(&me);
        assert_eq!(completion_ids(sched.completion_events()), [2, 1]);
        assert_eq!(me.ledger().class_bytes_sent[5], full_volume);
        // The scripted peer leaves its incoming chunks unread; that is
        // fine — channels are unbounded and the test owns both ends.
    }

    /// The transfer discipline only reorders wire service: an N-job
    /// mixed ring/switch workload produces bit-identical results and
    /// identical per-class ledger byte totals under FIFO and under the
    /// contention-aware scheduler, on every rank — the determinism
    /// contract that makes `xfer` a pure performance knob.
    #[test]
    fn aware_discipline_is_bit_identical_to_fifo() {
        use crate::ledger::BytesLedger;
        let k = 4usize;
        let run = move |xfer: XferSched| -> Vec<(Vec<Vec<u32>>, BytesLedger)> {
            run_ranks(k, move |comm| {
                let rng = CounterRng::new(17);
                // Mixed sizes and classes: the big low-priority ring
                // job convoys the small ones under FIFO, and the Aware
                // policy reorders them — results must not move.
                let big = Tensor::randn([64], DType::F32, rng, (comm.rank() * 7) as u64);
                let mid = Tensor::randn([16], DType::F32, rng, (comm.rank() * 7 + 1) as u64);
                let tiny = Tensor::randn([4], DType::F32, rng, (comm.rank() * 7 + 2) as u64);
                let quant = Tensor::randn([8], DType::F32, rng, (comm.rank() * 7 + 3) as u64);
                let mut sched = CommScheduler::new().with_xfer(xfer);
                sched.enqueue(1, 1, group_of(k), &big, ReduceOp::Sum, WireFormat::Dense);
                sched.enqueue(2, 3, group_of(k), &mid, ReduceOp::Sum, WireFormat::Fp16);
                sched.enqueue(3, 2, group_of(k), &tiny, ReduceOp::Max, WireFormat::Dense);
                sched.enqueue_switch(4, 0, group_of(k), &quant, ReduceOp::Sum);
                sched.drain(&comm);
                let outs: Vec<Vec<u32>> = (1..=4)
                    .map(|id| {
                        sched
                            .wait(&comm, id)
                            .to_f32_vec()
                            .iter()
                            .map(|v| v.to_bits())
                            .collect()
                    })
                    .collect();
                (outs, comm.ledger())
            })
        };
        let fifo = run(XferSched::Fifo);
        let aware = run(XferSched::Aware);
        for (rank, ((fo, fl), (ao, al))) in fifo.iter().zip(aware.iter()).enumerate() {
            assert_eq!(fo, ao, "rank {rank}: outputs diverged across disciplines");
            assert_eq!(
                fl.class_bytes_sent, al.class_bytes_sent,
                "rank {rank}: per-class ledger diverged"
            );
        }
        // And the Aware run itself is reproducible poll-for-poll.
        let again = run(XferSched::Aware);
        for ((ao, al), (bo, bl)) in aware.iter().zip(again.iter()) {
            assert_eq!(ao, bo);
            assert_eq!(al.class_bytes_sent, bl.class_bytes_sent);
        }
    }

    /// The streaming training loop is bit-identical across channel
    /// widths: lanes change the wire framing, never the parameters.
    #[test]
    fn stream_executor_channels_are_bit_identical() {
        let k = 4usize;
        let layers = 3usize;
        let iters = 3u64;
        let run = move |channels: usize| {
            run_ranks(k, move |comm| {
                let rng = CounterRng::new(11);
                let params: Vec<Tensor> = (0..layers)
                    .map(|l| Tensor::randn([6], DType::F32, rng, l as u64))
                    .collect();
                let mut exec = StreamExecutor::new(
                    group_of(k),
                    params,
                    CommSched::Priority,
                    WireFormat::Dense,
                )
                .with_channels(channels);
                let rank = comm.rank();
                exec.run_iterations(
                    &comm,
                    iters,
                    |_, _, _| {},
                    move |l, iter, p| {
                        let scale = (rank + 1) as f32 * 0.01 + iter as f32 * 0.001;
                        let lf = l as f32;
                        Tensor::from_fn([6], DType::F32, |i| p.get(i) * scale + lf + i as f32 * 0.1)
                    },
                    |_, p, g| {
                        let step = Tensor::from_fn([6], DType::F32, |i| p.get(i) - 0.05 * g.get(i));
                        *p = step;
                    },
                );
                exec.params()
            })
        };
        let single = run(1);
        for channels in [2usize, 4] {
            let striped = run(channels);
            for (rank, (sp, cp)) in single.iter().zip(striped.iter()).enumerate() {
                for (a, b) in sp.iter().zip(cp.iter()) {
                    assert_eq!(
                        a.to_f32_vec(),
                        b.to_f32_vec(),
                        "C={channels} rank={rank}: params diverged"
                    );
                }
            }
        }
    }

    /// The streaming loop produces bit-identical parameters to the
    /// barriered loop, while its completion log proves first-consumed
    /// gradients synchronized first.
    #[test]
    fn stream_executor_matches_barriered_and_reorders() {
        let k = 4usize;
        let layers = 3usize;
        let iters = 5u64;
        let run = move |sched_kind: CommSched| {
            run_ranks(k, move |comm| {
                let rng = CounterRng::new(11);
                let params: Vec<Tensor> = (0..layers)
                    .map(|l| Tensor::randn([6], DType::F32, rng, l as u64))
                    .collect();
                let mut exec =
                    StreamExecutor::new(group_of(k), params, sched_kind, WireFormat::Dense);
                let rank = comm.rank();
                exec.run_iterations(
                    &comm,
                    iters,
                    |_, _, _| {},
                    move |l, iter, p| {
                        // Rank- and iteration-dependent local gradient.
                        let scale = (rank + 1) as f32 * 0.01 + iter as f32 * 0.001;
                        let lf = l as f32;
                        Tensor::from_fn([6], DType::F32, |i| p.get(i) * scale + lf + i as f32 * 0.1)
                    },
                    |_, p, g| {
                        let lr = 0.05f32;
                        let step = Tensor::from_fn([6], DType::F32, |i| p.get(i) - lr * g.get(i));
                        *p = step;
                    },
                );
                (exec.params(), completion_ids(exec.completion_events()))
            })
        };
        let barriered = run(CommSched::Barriered);
        let streamed = run(CommSched::Priority);
        for ((bp, _), (sp, log)) in barriered.iter().zip(streamed.iter()) {
            for (b, s) in bp.iter().zip(sp.iter()) {
                assert_eq!(b.to_f32_vec(), s.to_f32_vec(), "params diverge");
            }
            // Within each iteration the layer-0 job (enqueued last)
            // completes before the layer-2 job (enqueued first).
            for it in 0..iters {
                let pos = |l: usize| {
                    log.iter()
                        .position(|&j| j == it * layers as u64 + l as u64)
                        .expect("job completed")
                };
                assert!(
                    pos(0) < pos(layers - 1),
                    "iter {it}: first-consumed gradient must land first"
                );
            }
        }
    }
}
