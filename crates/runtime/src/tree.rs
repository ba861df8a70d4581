//! Tree collectives — the second logical topology NCCL builds (§5.1:
//! "NCCL creates logical topologies, such as ring and tree, over the
//! underlying interconnect network").
//!
//! Trees trade bandwidth for latency: a binomial-tree AllReduce takes
//! `2·log2(k)` hops instead of the ring's `2(k-1)` steps, which wins
//! for small messages at large rank counts — one of the effects behind
//! the paper's protocol/size crossovers. The generated kernels in the
//! paper use rings; this module is the reproduction's implementation of
//! the tree alternative, used by the ring-vs-tree ablation.

use coconet_compress::WireFormat;
use coconet_tensor::{ReduceOp, Tensor};

use crate::collectives::{
    clamp_channels, recv_striped, send_striped, wire_decode, wire_encode, Group,
};
use crate::RankComm;

/// Binomial-tree Reduce to group position 0, then binomial Broadcast —
/// an AllReduce in `2·ceil(log2(k))` rounds.
///
/// Every payload is encoded per `wire`. Under FP16 each reduce-phase
/// partial rounds to half precision as it travels, and the root rounds
/// its final value once before the broadcast so every rank (the root
/// included) returns the identical decoded tensor — the
/// all-ranks-agree postcondition the dense tree has.
///
/// Every hop's payload splits into `channels` contiguous lane stripes
/// (zero-copy views of the encoded buffer, so the wire byte total is
/// unchanged and the result is bit-identical at every width — stripes
/// reassemble before each fold and each decode). `channels <= 1`
/// sends whole payloads.
pub fn tree_all_reduce_wire_striped(
    comm: &RankComm,
    group: Group,
    input: &Tensor,
    op: ReduceOp,
    wire: WireFormat,
    channels: usize,
) -> Tensor {
    let channels = clamp_channels(channels);
    let k = group.size;
    let pos = group.position(comm.rank());
    let dtype = input.dtype();
    // A handle copy; the first in-place reduction detaches it.
    let mut acc = input.clone();

    // Reduce phase: at round d (1, 2, 4, ...), positions with the d bit
    // set send to (pos - d) and drop out; the rest receive and reduce.
    let mut d = 1usize;
    while d < k {
        if pos & d != 0 {
            send_striped(
                comm,
                group.rank_at(pos - d),
                wire_encode(&acc, wire),
                channels,
            );
            break;
        } else if pos + d < k {
            let incoming = wire_decode(
                recv_striped(comm, group.rank_at(pos + d), channels),
                wire,
                dtype,
            );
            acc.reduce_assign(&incoming, op)
                .expect("tree peers agree on geometry");
        }
        d <<= 1;
    }

    // Broadcast phase: mirror image, highest round first. The value
    // travels in wire encoding the whole way down (forwards are handle
    // copies of the encoded buffer) and every rank decodes at the end;
    // the root's once-through-the-codec round trip makes its value
    // bit-identical to everyone else's.
    if pos == 0 {
        acc = wire_encode(&acc, wire);
    }
    let mut rounds = Vec::new();
    let mut e = 1usize;
    while e < k {
        rounds.push(e);
        e <<= 1;
    }
    for &d in rounds.iter().rev() {
        if pos & d != 0 {
            // This position received its reduced value in the reduce
            // phase partner's broadcast round.
            if pos & (d - 1) == 0 {
                acc = recv_striped(comm, group.rank_at(pos - d), channels);
            }
        } else if pos + d < k && pos & (d - 1) == 0 {
            send_striped(comm, group.rank_at(pos + d), acc.clone(), channels);
        }
    }
    wire_decode(acc, wire, dtype)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconet_tensor::DType;
    use std::thread;

    fn tree_all_reduce(comm: &RankComm, group: Group, input: &Tensor, op: ReduceOp) -> Tensor {
        tree_all_reduce_wire_striped(comm, group, input, op, WireFormat::Dense, 1)
    }

    fn run_tree(k: usize) -> Vec<Tensor> {
        let world = RankComm::world(k);
        let handles: Vec<_> = world
            .into_iter()
            .map(|comm| {
                thread::spawn(move || {
                    let group = Group { start: 0, size: k };
                    let input =
                        Tensor::from_fn([10], DType::F32, |i| ((comm.rank() + 1) * (i + 1)) as f32);
                    tree_all_reduce(&comm, group, &input, ReduceOp::Sum)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn tree_allreduce_matches_expected_sum() {
        for k in [1usize, 2, 3, 4, 5, 7, 8] {
            let results = run_tree(k);
            let rank_sum: usize = (1..=k).sum();
            for (r, t) in results.iter().enumerate() {
                for i in 0..10 {
                    assert_eq!(
                        t.get(i),
                        (rank_sum * (i + 1)) as f32,
                        "k={k} rank={r} elem={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn tree_matches_ring() {
        let k = 8;
        let world = RankComm::world(k);
        let handles: Vec<_> = world
            .into_iter()
            .map(|comm| {
                thread::spawn(move || {
                    let group = Group { start: 0, size: k };
                    let input =
                        Tensor::from_fn([13], DType::F32, |i| (comm.rank() * 31 + i * 7) as f32);
                    let tree = tree_all_reduce(&comm, group, &input, ReduceOp::Sum);
                    let ring = crate::ring_all_reduce_wire_striped(
                        &comm,
                        group,
                        &input,
                        ReduceOp::Sum,
                        WireFormat::Dense,
                        1,
                    );
                    (tree, ring)
                })
            })
            .collect();
        for h in handles {
            let (tree, ring) = h.join().unwrap();
            assert_eq!(tree.to_f32_vec(), ring.to_f32_vec());
        }
    }

    #[test]
    fn tree_min_max() {
        let k = 4;
        let world = RankComm::world(k);
        let handles: Vec<_> = world
            .into_iter()
            .map(|comm| {
                thread::spawn(move || {
                    let group = Group { start: 0, size: k };
                    let input = Tensor::full([3], DType::F32, comm.rank() as f32);
                    let mn = tree_all_reduce(&comm, group, &input, ReduceOp::Min);
                    let mx = tree_all_reduce(&comm, group, &input, ReduceOp::Max);
                    (mn, mx)
                })
            })
            .collect();
        for h in handles {
            let (mn, mx) = h.join().unwrap();
            assert_eq!(mn.get(0), 0.0);
            assert_eq!(mx.get(0), 3.0);
        }
    }
}
