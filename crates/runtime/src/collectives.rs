//! Functional ring collectives over the message fabric.
//!
//! These are NCCL's ring algorithms with real data movement: the same
//! chunk ordering (rank *i* owns chunk *i* after a ReduceScatter — the
//! property the paper's overlapped MatMul schedules against, §5.3),
//! with reductions accumulated in `f32` like the generated mixed-
//! precision kernels.
//!
//! Every ring collective runs the one poll-driven engine in
//! [`crate::stream`]: the blocking entry points here enqueue a single
//! job and wait for it. Data movement is minimal by construction:
//! chunks travel as copy-on-write buffer handles (a send copies
//! nothing), every fold writes a fresh stripe through a fused
//! out-of-place kernel (nothing is copied on write), and the only
//! other materialization is the final output — which is what the
//! [`BytesLedger`](crate::BytesLedger) suite asserts.

use coconet_compress::WireFormat;
use coconet_tensor::{DType, ReduceOp, Tensor};
use coconet_trace as trace;
use coconet_trace::metrics::Counter;
use coconet_trace::EventKind;

use crate::stream::{run_ring, RingKind};
use crate::RankComm;

/// The most lanes a collective will stripe across. The streaming
/// executor's wire tags reserve six bits for the lane index, so wider
/// requests clamp here (the autotuner's grid tops out at 64 as well).
pub const MAX_CHANNELS: usize = 64;

/// Clamps a requested channel count into the executable `1..=64` range.
pub fn clamp_channels(channels: usize) -> usize {
    channels.clamp(1, MAX_CHANNELS)
}

/// Sends an (already wire-encoded) payload as `channels` contiguous
/// lane stripes — zero-copy views, so the byte total is exactly the
/// single-message send's. `channels <= 1` sends the payload whole,
/// byte- and allocation-identical to a plain [`RankComm::send`].
pub(crate) fn send_striped(comm: &RankComm, dst: usize, payload: Tensor, channels: usize) {
    if channels <= 1 {
        comm.send(dst, payload);
        return;
    }
    let n = payload.numel();
    for s in 0..channels {
        let (off, len) = chunk_range(n, channels, s);
        let stripe = if len == 0 {
            payload.slice_flat(0, 0).expect("empty view")
        } else {
            payload.slice_flat(off, len).expect("in range")
        };
        comm.send(dst, stripe);
    }
}

/// Receives the `channels` lane stripes of one logical payload (in
/// lane order — the fabric is per-source FIFO) and reassembles them
/// into a contiguous tensor. The inverse of [`send_striped`];
/// `channels <= 1` is a plain [`RankComm::recv`].
pub(crate) fn recv_striped(comm: &RankComm, src: usize, channels: usize) -> Tensor {
    if channels <= 1 {
        return comm.recv(src);
    }
    let stripes: Vec<Tensor> = (0..channels).map(|_| comm.recv(src)).collect();
    let total: usize = stripes.iter().map(Tensor::numel).sum();
    let mut asm = Tensor::zeros([total], stripes[0].dtype());
    let mut off = 0usize;
    for s in &stripes {
        if s.numel() > 0 {
            asm.write_flat(off, s).expect("stripes tile the payload");
            off += s.numel();
        }
    }
    asm
}

/// Encodes a tensor for the wire: a handle copy for the dense wire, an
/// FP16 rounding for [`WireFormat::Fp16`]. The top-k format never
/// reaches the dense collectives' send path (its AllReduce is the
/// sparse exchange; everything else resolves to dense), so it encodes
/// as dense here.
pub(crate) fn wire_encode(t: &Tensor, wire: WireFormat) -> Tensor {
    match wire {
        WireFormat::Fp16 => {
            let _codec = trace::span(EventKind::Codec, "fp16:encode", t.numel() as u64, 0);
            let out = t.cast(DType::F16);
            trace::metrics::add_counter(Counter::CodecBytes, out.size_bytes() as u64);
            out
        }
        WireFormat::Dense | WireFormat::TopK { .. } => t.clone(),
    }
}

/// Decodes a received wire payload back to the collective's working
/// element type (a no-op on the dense wire, a widening for FP16).
pub(crate) fn wire_decode(t: Tensor, wire: WireFormat, dtype: DType) -> Tensor {
    match wire {
        WireFormat::Fp16 => {
            let _codec = trace::span(EventKind::Codec, "fp16:decode", t.numel() as u64, 0);
            trace::metrics::add_counter(Counter::CodecBytes, t.size_bytes() as u64);
            t.cast(dtype)
        }
        WireFormat::Dense | WireFormat::TopK { .. } => t,
    }
}

/// A group of consecutive ranks participating in a collective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Group {
    /// First (global) rank of the group.
    pub start: usize,
    /// Number of ranks.
    pub size: usize,
}

impl Group {
    /// The position of a global rank within the group.
    ///
    /// # Panics
    ///
    /// Panics if the rank is not a member.
    pub fn position(&self, rank: usize) -> usize {
        assert!(
            rank >= self.start && rank < self.start + self.size,
            "rank {rank} not in group [{}, {})",
            self.start,
            self.start + self.size
        );
        rank - self.start
    }

    /// The global rank at a group position.
    pub fn rank_at(&self, pos: usize) -> usize {
        self.start + pos % self.size
    }

    /// The ring successor of `rank`.
    pub fn next(&self, rank: usize) -> usize {
        self.rank_at(self.position(rank) + 1)
    }

    /// The ring predecessor of `rank`.
    pub fn prev(&self, rank: usize) -> usize {
        self.rank_at(self.position(rank) + self.size - 1)
    }
}

/// The flat element range of chunk `c` when `numel` elements are split
/// into `k` ring chunks (uneven remainders go to the leading chunks).
pub fn chunk_range(numel: usize, k: usize, c: usize) -> (usize, usize) {
    let base = numel / k;
    let rem = numel % k;
    let start = c * base + c.min(rem);
    let len = base + usize::from(c < rem);
    (start, len)
}

/// Ring ReduceScatter striped over `channels` concurrent lanes: every
/// rank contributes its full local tensor; the rank at group position
/// `i` returns with the fully reduced flat chunk
/// `chunk_range(numel, k, i)`. Under the FP16 wire each partial sum is
/// rounded to half precision before it travels (the per-hop rounding a
/// real FP16-wire collective performs) and widened back before the
/// fold, halving the bytes the [`BytesLedger`](crate::BytesLedger)
/// records. Lane `s` carries the sub-range
/// `chunk_range(chunk_len, channels, s)` of every chunk, so results
/// are bit-identical and the per-rank byte totals unchanged at every
/// width (clamped into `1..=`[`MAX_CHANNELS`]).
pub fn ring_reduce_scatter_wire_striped(
    comm: &RankComm,
    group: Group,
    input: &Tensor,
    op: ReduceOp,
    wire: WireFormat,
    channels: usize,
) -> Tensor {
    let kind = RingKind::ReduceScatter;
    run_ring(comm, kind, group, input, op, wire, channels).into_tensor()
}

/// Ring AllGather striped over `channels` lanes: every rank
/// contributes its chunk (position `i` contributes chunk `i`) and
/// returns all chunks in position order. The own chunk is encoded per
/// `wire` once, every hop forwards a received buffer handle untouched
/// (no re-rounding, no copies), and every chunk is decoded once. A
/// chunk that travelled whole keeps its sender's shape; one assembled
/// from several lanes is flat.
pub fn ring_all_gather_wire_striped(
    comm: &RankComm,
    group: Group,
    chunk: &Tensor,
    wire: WireFormat,
    channels: usize,
) -> Vec<Tensor> {
    let kind = RingKind::AllGather;
    run_ring(comm, kind, group, chunk, ReduceOp::Sum, wire, channels).into_chunks()
}

/// Ring AllReduce = ReduceScatter + AllGather in one job, striped over
/// `channels` lanes with every hop of both phases encoded per `wire`
/// (under FP16 the collective moves exactly half the dense bytes on
/// F32 payloads); returns the fully reduced tensor with the input's
/// shape. Per rank it writes each element about three times: the
/// `(k−1)/k` fused folds, plus the gather's one decode into the output
/// buffer, which the result adopts without a copy.
pub fn ring_all_reduce_wire_striped(
    comm: &RankComm,
    group: Group,
    input: &Tensor,
    op: ReduceOp,
    wire: WireFormat,
    channels: usize,
) -> Tensor {
    run_ring(comm, RingKind::AllReduce, group, input, op, wire, channels).into_tensor()
}

/// Broadcast from the group-relative `root` position. The root fans
/// out one shared buffer handle per peer — the value itself is never
/// duplicated, no matter the group size.
pub fn broadcast(comm: &RankComm, group: Group, value: Option<&Tensor>, root: usize) -> Tensor {
    let me = group.position(comm.rank());
    if me == root {
        let v = value.expect("root must provide the value");
        for pos in 0..group.size {
            if pos != root {
                comm.send(group.rank_at(pos), v.clone());
            }
        }
        v.clone()
    } else {
        comm.recv(group.rank_at(root))
    }
}

/// Reduce to the group-relative `root` position; non-roots return their
/// own contribution unchanged (the result is only meaningful on root).
pub fn reduce(comm: &RankComm, group: Group, input: &Tensor, op: ReduceOp, root: usize) -> Tensor {
    let me = group.position(comm.rank());
    if me == root {
        // One copy-on-write materialization on the first fold; every
        // later contribution reduces in place.
        let mut acc = input.clone();
        // Deterministic order: ascending positions.
        for pos in 0..group.size {
            if pos != root {
                let incoming = comm.recv(group.rank_at(pos));
                acc.reduce_assign(&incoming, op)
                    .expect("contributions agree on geometry");
            }
        }
        acc
    } else {
        comm.send(group.rank_at(root), input.clone());
        input.clone()
    }
}

/// AllReduce of a single scalar (the embedded reduction of §5.2).
/// Sums ship a two-float (hi, lo) representation to keep `f64`-ish
/// precision for norms; min/max ship one value.
pub fn all_reduce_scalar(comm: &RankComm, group: Group, value: f64, op: ReduceOp) -> f64 {
    match op {
        ReduceOp::Sum => {
            let hi = value as f32;
            let lo = (value - f64::from(hi)) as f32;
            let t =
                Tensor::from_f32([2], coconet_tensor::DType::F32, &[hi, lo]).expect("two elements");
            let reduced = ring_all_reduce_wire_striped(comm, group, &t, op, WireFormat::Dense, 1);
            f64::from(reduced.get(0)) + f64::from(reduced.get(1))
        }
        ReduceOp::Min | ReduceOp::Max => {
            let t = Tensor::from_f32([1], coconet_tensor::DType::F32, &[value as f32])
                .expect("one element");
            f64::from(
                ring_all_reduce_wire_striped(comm, group, &t, op, WireFormat::Dense, 1).get(0),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run_ranks;
    use crate::stream::{CommScheduler, Output};
    use crate::BytesLedger;
    use coconet_tensor::{DType, F16};

    fn ring_all_reduce(comm: &RankComm, group: Group, input: &Tensor, op: ReduceOp) -> Tensor {
        ring_all_reduce_wire_striped(comm, group, input, op, WireFormat::Dense, 1)
    }

    fn ring_reduce_scatter(comm: &RankComm, group: Group, input: &Tensor, op: ReduceOp) -> Tensor {
        ring_reduce_scatter_wire_striped(comm, group, input, op, WireFormat::Dense, 1)
    }

    fn ring_all_gather(comm: &RankComm, group: Group, chunk: &Tensor) -> Vec<Tensor> {
        ring_all_gather_wire_striped(comm, group, chunk, WireFormat::Dense, 1)
    }

    #[test]
    fn chunk_ranges_tile_exactly() {
        for (n, k) in [(16, 4), (17, 4), (5, 8), (0, 3), (64, 5)] {
            let mut total = 0;
            let mut next = 0;
            for c in 0..k {
                let (off, len) = chunk_range(n, k, c);
                assert_eq!(off, next);
                next = off + len;
                total += len;
            }
            assert_eq!(total, n, "n={n} k={k}");
        }
    }

    #[test]
    fn chunk_range_with_more_chunks_than_elements() {
        // k > numel: the first `numel` chunks get one element each,
        // the trailing chunks are empty — and the ranges still tile.
        for (n, k) in [(3usize, 8usize), (1, 4), (0, 5), (7, 16)] {
            let mut next = 0;
            for c in 0..k {
                let (off, len) = chunk_range(n, k, c);
                assert_eq!(off, next, "n={n} k={k} c={c}");
                assert!(len <= 1, "n={n} k={k} c={c}: len {len}");
                assert_eq!(len, usize::from(c < n), "n={n} k={k} c={c}");
                next = off + len;
            }
            assert_eq!(next, n);
        }
        // Trailing empty chunks have in-bounds offsets (== numel).
        assert_eq!(chunk_range(3, 8, 7), (3, 0));
    }

    /// Regression: the ring collectives must survive degenerate
    /// chunking (`numel < k`, empty trailing chunks) without panicking
    /// and still produce the exact reduction/gather.
    #[test]
    fn ring_collectives_handle_degenerate_chunking() {
        let k = 6;
        for n in [0usize, 1, 3, 5] {
            let results = run_ranks(k, move |comm| {
                let group = Group { start: 0, size: k };
                let input = Tensor::from_fn([n], DType::F32, |i| (comm.rank() * 10 + i) as f32);
                let ar = ring_all_reduce(&comm, group, &input, ReduceOp::Sum);
                let chunk = ring_reduce_scatter(&comm, group, &input, ReduceOp::Sum);
                let gathered = ring_all_gather(&comm, group, &chunk);
                (ar, chunk, gathered)
            });
            // Column sums over ranks: sum_r (10r + i) = 150 + 6i.
            for (r, (ar, chunk, gathered)) in results.iter().enumerate() {
                assert_eq!(ar.numel(), n);
                for i in 0..n {
                    assert_eq!(ar.get(i), (150 + 6 * i) as f32, "n={n} rank={r}");
                }
                let (_, len) = chunk_range(n, k, r);
                assert_eq!(chunk.numel(), len, "n={n} rank={r}");
                let total: usize = gathered.iter().map(Tensor::numel).sum();
                assert_eq!(total, n, "n={n} rank={r}");
                let flat: Vec<f32> = gathered.iter().flat_map(|c| c.to_f32_vec()).collect();
                assert_eq!(flat, ar.to_f32_vec(), "n={n} rank={r}");
            }
        }
    }

    #[test]
    fn all_reduce_sums_across_ranks() {
        let k = 4;
        let results = run_ranks(k, move |comm| {
            let group = Group { start: 0, size: k };
            let input = Tensor::from_fn([10], DType::F32, |i| (comm.rank() * 100 + i) as f32);
            ring_all_reduce(&comm, group, &input, ReduceOp::Sum)
        });
        // Expected: sum over ranks of (100r + i) = 600 + 4i.
        for t in &results {
            for i in 0..10 {
                assert_eq!(t.get(i), (600 + 4 * i) as f32);
            }
        }
        // All ranks agree exactly.
        for t in &results[1..] {
            assert_eq!(t.to_f32_vec(), results[0].to_f32_vec());
        }
    }

    #[test]
    fn reduce_scatter_owns_chunk_i() {
        let k = 4;
        let n = 16;
        let results = run_ranks(k, move |comm| {
            let group = Group { start: 0, size: k };
            let input = Tensor::from_fn([n], DType::F32, |i| i as f32);
            ring_reduce_scatter(&comm, group, &input, ReduceOp::Sum)
        });
        for (r, t) in results.iter().enumerate() {
            let (off, len) = chunk_range(n, k, r);
            assert_eq!(t.numel(), len);
            for i in 0..len {
                assert_eq!(t.get(i), (k * (off + i)) as f32, "rank {r} elem {i}");
            }
        }
    }

    #[test]
    fn all_gather_reassembles() {
        let k = 3;
        let results = run_ranks(k, move |comm| {
            let group = Group { start: 0, size: k };
            let me = comm.rank();
            let chunk = Tensor::from_fn([4], DType::F32, |i| (me * 4 + i) as f32);
            ring_all_gather(&comm, group, &chunk)
        });
        for chunks in &results {
            let flat: Vec<f32> = chunks.iter().flat_map(|c| c.to_f32_vec()).collect();
            assert_eq!(flat, (0..12).map(|i| i as f32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn rs_then_ag_equals_allreduce() {
        let k = 4;
        let n = 21; // uneven on purpose
        let results = run_ranks(k, move |comm| {
            let group = Group { start: 0, size: k };
            let input = Tensor::from_fn([n], DType::F32, |i| ((comm.rank() + 1) * (i + 1)) as f32);
            let direct = ring_all_reduce(&comm, group, &input, ReduceOp::Sum);
            let chunk = ring_reduce_scatter(&comm, group, &input, ReduceOp::Sum);
            let gathered = ring_all_gather(&comm, group, &chunk);
            let mut composed = Tensor::zeros([n], DType::F32);
            let mut off = 0;
            for c in gathered {
                composed.write_flat(off, &c).unwrap();
                off += c.numel();
            }
            (direct, composed)
        });
        for (direct, composed) in &results {
            assert_eq!(direct.to_f32_vec(), composed.to_f32_vec());
        }
    }

    #[test]
    fn subgroup_collectives_are_independent() {
        // Two groups of 2 within a 4-rank world.
        let results = run_ranks(4, move |comm| {
            let g = if comm.rank() < 2 {
                Group { start: 0, size: 2 }
            } else {
                Group { start: 2, size: 2 }
            };
            let input = Tensor::full([4], DType::F32, (comm.rank() + 1) as f32);
            ring_all_reduce(&comm, g, &input, ReduceOp::Sum)
        });
        assert_eq!(results[0].get(0), 3.0); // 1 + 2
        assert_eq!(results[1].get(0), 3.0);
        assert_eq!(results[2].get(0), 7.0); // 3 + 4
        assert_eq!(results[3].get(0), 7.0);
    }

    #[test]
    fn broadcast_and_reduce() {
        let k = 3;
        let results = run_ranks(k, move |comm| {
            let group = Group { start: 0, size: k };
            let me = comm.rank();
            let bcast = broadcast(
                &comm,
                group,
                (me == 1)
                    .then(|| Tensor::full([2], DType::F32, 42.0))
                    .as_ref(),
                1,
            );
            let contrib = Tensor::full([2], DType::F32, (me + 1) as f32);
            let red = reduce(&comm, group, &contrib, ReduceOp::Sum, 0);
            (bcast, red)
        });
        for (b, _) in &results {
            assert_eq!(b.get(0), 42.0);
        }
        assert_eq!(results[0].1.get(0), 6.0, "root holds the reduction");
    }

    #[test]
    fn min_max_reductions() {
        let k = 3;
        let results = run_ranks(k, move |comm| {
            let group = Group { start: 0, size: k };
            let input = Tensor::full([2], DType::F32, comm.rank() as f32);
            let mn = ring_all_reduce(&comm, group, &input, ReduceOp::Min);
            let mx = ring_all_reduce(&comm, group, &input, ReduceOp::Max);
            (mn, mx)
        });
        for (mn, mx) in &results {
            assert_eq!(mn.get(0), 0.0);
            assert_eq!(mx.get(0), 2.0);
        }
    }

    #[test]
    fn scalar_allreduce() {
        let k = 4;
        let results = run_ranks(k, move |comm| {
            let group = Group { start: 0, size: k };
            all_reduce_scalar(&comm, group, (comm.rank() + 1) as f64, ReduceOp::Sum)
        });
        for v in results {
            assert!((v - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn group_ring_neighbors() {
        let g = Group { start: 4, size: 4 };
        assert_eq!(g.next(7), 4);
        assert_eq!(g.prev(4), 7);
        assert_eq!(g.position(6), 2);
    }

    #[test]
    fn channels_clamp_to_the_wire_tag_range() {
        assert_eq!(clamp_channels(0), 1);
        assert_eq!(clamp_channels(1), 1);
        assert_eq!(clamp_channels(8), 8);
        assert_eq!(clamp_channels(MAX_CHANNELS + 9), MAX_CHANNELS);
    }

    /// The test-only reference ring: every rank's result computed
    /// centrally with element loops over the virtual-position
    /// ReduceScatter schedule — each hop's partial crosses the wire
    /// (rounded to binary16 on the FP16 wire), the receiver folds
    /// `op(local, incoming)` rounded to the working dtype, and the
    /// gather round-trips each owner's chunk through the wire once.
    /// `inputs[r]` is rank `r`'s full input, or its chunk for an
    /// AllGather; a singleton group returns its input untouched.
    fn reference_ring(
        kind: RingKind,
        inputs: &[Vec<f32>],
        dtype: DType,
        wire: WireFormat,
    ) -> Vec<Vec<f32>> {
        let k = inputs.len();
        if k == 1 {
            return inputs.to_vec();
        }
        let hop = |v: f32| match wire {
            WireFormat::Fp16 => F16::from_f32(v).to_f32(),
            _ => v,
        };
        let fold = |a: f32, b: f32| match dtype {
            DType::F16 => F16::from_f32(a + b).to_f32(),
            DType::F32 => a + b,
        };
        let owned: Vec<Vec<f32>> = if kind == RingKind::AllGather {
            inputs.to_vec()
        } else {
            let n = inputs[0].len();
            let mut partial: Vec<Vec<Vec<f32>>> = inputs
                .iter()
                .map(|x| {
                    (0..k)
                        .map(|c| {
                            let (off, len) = chunk_range(n, k, c);
                            x[off..off + len].to_vec()
                        })
                        .collect()
                })
                .collect();
            for step in 0..k - 1 {
                let sent: Vec<(usize, Vec<f32>)> = (0..k)
                    .map(|r| {
                        let c = (r + 2 * k - 1 - step) % k;
                        (c, partial[r][c].iter().map(|&v| hop(v)).collect())
                    })
                    .collect();
                for r in 0..k {
                    let (c, incoming) = &sent[(r + k - 1) % k];
                    let local = &mut partial[r][*c];
                    for (a, &b) in local.iter_mut().zip(incoming) {
                        *a = fold(*a, b);
                    }
                }
            }
            (0..k).map(|r| partial[r][r].clone()).collect()
        };
        if kind == RingKind::ReduceScatter {
            return owned;
        }
        let gathered: Vec<f32> = owned.iter().flatten().map(|&v| hop(v)).collect();
        vec![gathered; k]
    }

    /// Rank `r`'s per-rank sends of one ring collective over chunks of
    /// `lens` elements: every ReduceScatter hop ships chunk
    /// `(r − 1 − step) mod k`, every gather hop chunk `(r − step) mod k`.
    fn reference_bytes(kind: RingKind, lens: &[usize], r: usize, elem_bytes: usize) -> u64 {
        let k = lens.len();
        let steps = 0..k.saturating_sub(1);
        let rs: usize = steps.clone().map(|t| lens[(r + 2 * k - 1 - t) % k]).sum();
        let ag: usize = steps.map(|t| lens[(r + k - t) % k]).sum();
        let elems = match kind {
            RingKind::AllReduce => rs + ag,
            RingKind::ReduceScatter => rs,
            RingKind::AllGather => ag,
        };
        (elems * elem_bytes) as u64
    }

    fn table_input(rank: usize, len: usize, dtype: DType) -> Tensor {
        Tensor::from_fn([len], dtype, |i| {
            ((rank * 13 + i * 7) % 29) as f32 * 0.37 - 5.1
        })
    }

    /// The one bit-identity table for the ring engine: every kind,
    /// blocking and streamed, at lane widths {1, 2, 8, wider than any
    /// chunk}, on both wires and both working dtypes, at geometries
    /// with uneven chunks, `n < k`, and `k = 1`. Each case asserts the
    /// result bits against the reference ring and the ledger's wire
    /// bytes and message counts against the schedule; blocking calls
    /// leave the per-class counters at zero.
    #[test]
    fn ring_engine_matches_the_reference_ring() {
        const KINDS: [RingKind; 3] = [
            RingKind::AllReduce,
            RingKind::ReduceScatter,
            RingKind::AllGather,
        ];
        const WIDTHS: [usize; 4] = [1, 2, 8, 13];
        let mut cases = Vec::new();
        for kind in KINDS {
            for streamed in [false, true] {
                for channels in WIDTHS {
                    for wire in [WireFormat::Dense, WireFormat::Fp16] {
                        for dtype in [DType::F32, DType::F16] {
                            cases.push((kind, streamed, channels, wire, dtype));
                        }
                    }
                }
            }
        }
        for (k, n) in [(1usize, 7usize), (2, 8), (4, 21), (6, 4)] {
            let run_cases = cases.clone();
            let results = run_ranks(k, move |comm| {
                let group = Group { start: 0, size: k };
                let me = comm.rank();
                run_cases
                    .iter()
                    .map(|&(kind, streamed, channels, wire, dtype)| {
                        let input = if kind == RingKind::AllGather {
                            table_input(me, chunk_range(n, k, me).1, dtype)
                        } else {
                            table_input(me, n, dtype)
                        };
                        comm.reset_ledger();
                        let out = if streamed {
                            let mut sched = CommScheduler::new();
                            sched.launch(
                                kind,
                                7,
                                Some(3),
                                group,
                                &input,
                                ReduceOp::Sum,
                                wire,
                                channels,
                            );
                            sched.wait_output(&comm, 7)
                        } else {
                            run_ring(&comm, kind, group, &input, ReduceOp::Sum, wire, channels)
                        };
                        let ledger = comm.ledger();
                        let chunks = match out {
                            Output::Tensor(t) => vec![t],
                            Output::Chunks(c) => c,
                        };
                        (chunks, ledger)
                    })
                    .collect::<Vec<(Vec<Tensor>, BytesLedger)>>()
            });
            for (case, &(kind, streamed, channels, wire, dtype)) in cases.iter().enumerate() {
                let inputs: Vec<Vec<f32>> = (0..k)
                    .map(|r| {
                        let len = if kind == RingKind::AllGather {
                            chunk_range(n, k, r).1
                        } else {
                            n
                        };
                        table_input(r, len, dtype).to_f32_vec()
                    })
                    .collect();
                let want = reference_ring(kind, &inputs, dtype, wire);
                let lens: Vec<usize> = (0..k).map(|c| chunk_range(n, k, c).1).collect();
                let elem_bytes = match wire {
                    WireFormat::Fp16 => 2,
                    _ => dtype.size_bytes(),
                };
                let lanes = if k == 1 {
                    0
                } else {
                    clamp_channels(channels) as u64
                };
                let phases = if kind == RingKind::AllReduce { 2 } else { 1 };
                for (r, per_rank) in results.iter().enumerate() {
                    let label = format!(
                        "k={k} n={n} {kind:?} streamed={streamed} C={channels} {wire} {dtype:?} rank={r}"
                    );
                    let (chunks, ledger) = &per_rank[case];
                    if kind == RingKind::AllGather {
                        assert_eq!(chunks.len(), k, "{label}");
                        for (c, chunk) in chunks.iter().enumerate() {
                            assert_eq!(chunk.numel(), lens[c], "{label} chunk {c}");
                        }
                    }
                    let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
                    let got: Vec<f32> = chunks.iter().flat_map(Tensor::to_f32_vec).collect();
                    assert_eq!(bits(got), bits(want[r].clone()), "{label}");
                    for chunk in chunks {
                        assert_eq!(chunk.dtype(), dtype, "{label}");
                    }
                    let sent = reference_bytes(kind, &lens, r, elem_bytes);
                    let received = reference_bytes(kind, &lens, (r + k - 1) % k, elem_bytes);
                    assert_eq!(ledger.bytes_sent, sent, "{label}");
                    assert_eq!(ledger.bytes_received, received, "{label}");
                    let messages = lanes * (k as u64).saturating_sub(1) * phases;
                    assert_eq!(ledger.sends, messages, "{label}");
                    assert_eq!(ledger.recvs, messages, "{label}");
                    assert_eq!(ledger.cow_bytes, 0, "{label}");
                    let classed = if streamed { sent } else { 0 };
                    assert_eq!(ledger.class_bytes_sent[3], classed, "{label}");
                    assert_eq!(
                        ledger.class_bytes_sent.iter().sum::<u64>(),
                        classed,
                        "{label}"
                    );
                }
            }
        }
    }
}
