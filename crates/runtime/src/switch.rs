//! In-network aggregation: the emulated programmable-switch AllReduce.
//!
//! SwitchML's observation is that a programmable switch on the
//! reduction path can add quantized chunks *in flight*: every worker
//! sends its fixed-point contribution once, the switch folds the
//! streams with saturating integer adds, and multicasts the result
//! back. Per-worker wire volume is exactly `2·n` words — one copy up,
//! one copy down — **independent of the worker count**, where every
//! host-side algorithm pays a `(k−1)/k`-flavored factor per direction
//! and extra latency terms in `k`.
//!
//! The reproduction has no switch ASIC, so the group's position-0 rank
//! hosts the dataplane emulation on its own thread. Its dataplane
//! traffic is ledgered separately ([`BytesLedger::switch_bytes_sent`] /
//! [`switch_bytes_recv`]) so the per-worker `2·n` invariant is
//! assertable for *every* worker, including the host.
//!
//! Determinism contract: saturating integer addition is not
//! associative at the saturation boundary, so the fold always proceeds
//! in ascending group-position order. The streamed
//! [`SwitchJob`](crate::stream) path waits for all contributions and
//! folds in the same order — streamed and blocking results are
//! bit-for-bit identical.
//!
//! [`BytesLedger::switch_bytes_sent`]: crate::BytesLedger::switch_bytes_sent
//! [`switch_bytes_recv`]: crate::BytesLedger::switch_bytes_recv

use coconet_compress::QuantChunk;
use coconet_tensor::{ReduceOp, Tensor};
use coconet_trace as trace;
use coconet_trace::EventKind;

use crate::collectives::Group;
use crate::comm::{RankComm, WireMsg};

/// Folds `contribs` in ascending position order — the one fold order
/// both the blocking and streamed switch paths use, because saturating
/// adds do not commute with reassociation at the boundary.
pub(crate) fn fold_contributions(contribs: Vec<QuantChunk>, op: ReduceOp) -> QuantChunk {
    let _fold = trace::span(
        EventKind::CollectivePhase,
        "switch:fold",
        contribs.len() as u64,
        contribs.first().map_or(0, QuantChunk::wire_bytes),
    );
    let mut it = contribs.into_iter();
    let mut acc = it.next().expect("group has at least one worker");
    for c in it {
        acc.accumulate(&c, op);
    }
    acc
}

/// Blocking AllReduce through the emulated aggregation switch.
///
/// Every worker (the position-0 host included, via a self-send)
/// quantizes its whole tensor to `i32` fixed point and sends it to the
/// switch; the switch folds the contributions in ascending position
/// order and multicasts the folded chunk; every worker dequantizes the
/// result back into the input's dtype and shape.
///
/// Wire cost per worker: `n·4` bytes sent, `n·4` bytes received — see
/// [`switch_all_reduce_wire_bytes`](crate::switch_all_reduce_wire_bytes).
/// The values carry the fixed-point round-trip error of
/// [`coconet_compress::quantize_value`] (≤ `2^-16` per contribution
/// before reduction); `Min`/`Max` are exact in ordering because the
/// quantizer is monotone.
///
/// # Panics
///
/// Panics if `comm.rank()` is not a member of `group`, or on a fabric
/// protocol mismatch (a peer sent a non-quantized message).
pub fn switch_all_reduce(comm: &RankComm, group: Group, input: &Tensor, op: ReduceOp) -> Tensor {
    let me = group.position(comm.rank());
    let switch_rank = group.rank_at(0);

    // Up: one quantized copy of the tensor, worker-attributed.
    let q = {
        let _codec = trace::span(EventKind::Codec, "q15:quantize", input.numel() as u64, 0);
        QuantChunk::quantize(input)
    };
    comm.send_msg(switch_rank, WireMsg::Quantized(q));

    if me == 0 {
        // Dataplane: gather in ascending position order, fold, multicast.
        let contribs: Vec<QuantChunk> = (0..group.size)
            .map(|pos| match comm.recv_switch(group.rank_at(pos)) {
                WireMsg::Quantized(c) => c,
                other => {
                    panic!("position {pos} sent {other:?} where a quantized chunk was expected")
                }
            })
            .collect();
        let folded = fold_contributions(contribs, op);
        for pos in 0..group.size {
            comm.send_switch(group.rank_at(pos), WireMsg::Quantized(folded.clone()));
        }
    }

    // Down: the folded chunk, worker-attributed (position 0 receives
    // its own multicast — the channel is FIFO, so the up copy was
    // already consumed by the dataplane above).
    let down = match comm.recv_msg(switch_rank) {
        WireMsg::Quantized(c) => c,
        other => panic!("switch sent {other:?} where a quantized chunk was expected"),
    };
    let _codec = trace::span(EventKind::Codec, "q15:dequantize", input.numel() as u64, 0);
    down.dequantize(input.dtype())
        .reshape(input.shape().clone())
        .expect("dequantized chunk has the input's element count")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run_ranks;
    use crate::ring_all_reduce_wire_striped;
    use coconet_compress::WireFormat;
    use coconet_tensor::DType;

    #[test]
    fn matches_ring_all_reduce_within_quantization_error() {
        for k in [2usize, 3, 5, 8] {
            let results = run_ranks(k, move |comm| {
                let group = Group { start: 0, size: k };
                let input = Tensor::from_fn([4, 8], DType::F32, |i| {
                    ((comm.rank() * 37 + i) as f32).sin() * 3.0
                });
                let via_switch = switch_all_reduce(&comm, group, &input, ReduceOp::Sum);
                let via_ring = ring_all_reduce_wire_striped(
                    &comm,
                    group,
                    &input,
                    ReduceOp::Sum,
                    WireFormat::Dense,
                    1,
                );
                (via_switch, via_ring)
            });
            for (rank, (s, r)) in results.iter().enumerate() {
                assert_eq!(s.shape(), r.shape(), "k={k} rank {rank}");
                for i in 0..s.numel() {
                    assert!(
                        (s.get(i) - r.get(i)).abs() < 1e-3,
                        "k={k} rank {rank} elem {i}: switch {} vs ring {}",
                        s.get(i),
                        r.get(i)
                    );
                }
            }
        }
    }

    #[test]
    fn all_workers_agree_bitwise() {
        let k = 7usize;
        let results = run_ranks(k, move |comm| {
            let group = Group { start: 0, size: k };
            let input = Tensor::from_fn([32], DType::F32, |i| {
                (comm.rank() as f32 + 0.5) * (i as f32)
            });
            switch_all_reduce(&comm, group, &input, ReduceOp::Sum)
        });
        let reference = &results[0];
        for (rank, out) in results.iter().enumerate() {
            for i in 0..out.numel() {
                assert!(
                    out.get(i).to_bits() == reference.get(i).to_bits(),
                    "rank {rank} elem {i} diverges"
                );
            }
        }
    }

    #[test]
    fn min_and_max_are_exact_under_monotone_quantization() {
        let k = 4usize;
        for op in [ReduceOp::Min, ReduceOp::Max] {
            let results = run_ranks(k, move |comm| {
                let group = Group { start: 0, size: k };
                // Values on the fixed-point lattice: exact round trips.
                let input = Tensor::from_fn([16], DType::F32, |i| {
                    (comm.rank() as f32 - 1.5) * 2.0 + i as f32
                });
                switch_all_reduce(&comm, group, &input, op)
            });
            for out in &results {
                for i in 0..out.numel() {
                    let want = (0..k).map(|r| (r as f32 - 1.5) * 2.0 + i as f32).fold(
                        if op == ReduceOp::Min {
                            f32::MAX
                        } else {
                            f32::MIN
                        },
                        |a, b| {
                            if op == ReduceOp::Min {
                                a.min(b)
                            } else {
                                a.max(b)
                            }
                        },
                    );
                    assert_eq!(out.get(i), want, "{op:?} elem {i}");
                }
            }
        }
    }

    #[test]
    fn subgroup_offsets_resolve_to_the_right_switch() {
        // Two disjoint groups of 2 inside a 4-rank world: each group's
        // position-0 rank hosts its own switch.
        let results = run_ranks(4, |comm| {
            let group = Group {
                start: (comm.rank() / 2) * 2,
                size: 2,
            };
            let input = Tensor::full([8], DType::F32, comm.rank() as f32 + 1.0);
            switch_all_reduce(&comm, group, &input, ReduceOp::Sum)
        });
        assert_eq!(results[0].get(0), 3.0); // ranks 0+1: 1+2
        assert_eq!(results[1].get(0), 3.0);
        assert_eq!(results[2].get(0), 7.0); // ranks 2+3: 3+4
        assert_eq!(results[3].get(0), 7.0);
    }
}
