//! Two-level hierarchical collectives — the third logical topology the
//! schedule's [`CollAlgo`](coconet_core::CollAlgo) dimension can pick.
//!
//! The DGX-2 testbed the cost model parameterizes has two fabrics:
//! NVLink/NVSwitch inside a node and InfiniBand between nodes. The
//! hierarchical algorithms exploit that split with real data movement:
//! an **intra-node ring** phase over each node's consecutive ranks,
//! an **inter-node exchange across node leaders** (the first rank of
//! each node), and an intra-node redistribution. Their postconditions
//! are identical to the flat ring collectives' — rank at group
//! position `i` owns chunk `i` after a ReduceScatter — so they compose
//! with each other and with the ring variants interchangeably, which
//! is what the semantics-preservation property tests machine-check.
//!
//! `node_size` is the number of consecutive group ranks per node
//! (`Cluster::node_of` maps consecutive global ranks to nodes the same
//! way). `0`, or a value covering the whole group, means the group
//! fits one node and the algorithms degenerate to the flat ring.

use coconet_compress::WireFormat;
use coconet_tensor::{ReduceOp, Tensor};

use crate::collectives::{
    chunk_range, clamp_channels, recv_striped, ring_all_gather_wire_striped,
    ring_reduce_scatter_wire_striped, send_striped, wire_decode, wire_encode, Group,
};
use crate::RankComm;

/// Layout of one rank's node within a hierarchical group.
struct NodeGeom {
    /// The whole group the collective runs over.
    group: Group,
    /// Consecutive group ranks per node.
    node_size: usize,
    /// This rank's position within the whole group.
    me: usize,
    /// Index of this rank's node (consecutive `node_size` blocks).
    my_node: usize,
    /// Number of nodes the group spans (last may be smaller).
    n_nodes: usize,
    /// Group position of this node's leader (its first rank).
    node_first: usize,
    /// The node-local subgroup of consecutive ranks.
    sub: Group,
    /// This rank's position within the node subgroup.
    local_pos: usize,
}

impl NodeGeom {
    fn new(comm: &RankComm, group: Group, node_size: usize) -> NodeGeom {
        let me = group.position(comm.rank());
        let my_node = me / node_size;
        let node_first = my_node * node_size;
        NodeGeom {
            group,
            node_size,
            me,
            my_node,
            n_nodes: group.size.div_ceil(node_size),
            node_first,
            sub: Group {
                start: group.start + node_first,
                size: node_size.min(group.size - node_first),
            },
            local_pos: me - node_first,
        }
    }

    /// Global rank of a node's leader.
    fn leader(&self, node: usize) -> usize {
        self.group.start + node * self.node_size
    }

    /// Ranks on `node` (the last node may be short).
    fn node_members(&self, node: usize) -> usize {
        self.node_size.min(self.group.size - node * self.node_size)
    }
}

/// A zero-copy window view, tolerating the degenerate empty ranges the
/// short-last-node geometries produce.
fn slice_or_empty(t: &Tensor, off: usize, len: usize) -> Tensor {
    if len == 0 {
        t.slice_flat(0, 0).expect("empty view")
    } else {
        t.slice_flat(off, len).expect("in range")
    }
}

/// Whether `node_size` actually splits the group into multiple nodes.
fn is_flat(group: Group, node_size: usize) -> bool {
    node_size == 0 || node_size >= group.size
}

/// Hierarchical ReduceScatter: intra-node ring ReduceScatter, chunk
/// hand-off to the node leader, a direct superchunk exchange across
/// node leaders over the inter-node fabric, and an intra-node scatter
/// of the final chunks. Same postcondition as
/// [`ring_reduce_scatter_wire_striped`](crate::ring_reduce_scatter_wire_striped):
/// group position `i` returns owning the fully reduced flat chunk
/// `chunk_range(numel, k, i)`.
///
/// Every payload — the intra-node ring hops, the leader hand-offs, the
/// inter-node superchunk exchange, and the final scatter — is encoded
/// per `wire` and striped over `channels` lanes: the intra-node rings
/// run the ring engine and every other hop travels as `channels`
/// zero-copy stripe views. Byte totals and results are unchanged at
/// every width.
pub fn hierarchical_reduce_scatter_wire_striped(
    comm: &RankComm,
    group: Group,
    input: &Tensor,
    op: ReduceOp,
    node_size: usize,
    wire: WireFormat,
    channels: usize,
) -> Tensor {
    let channels = clamp_channels(channels);
    if is_flat(group, node_size) {
        return ring_reduce_scatter_wire_striped(comm, group, input, op, wire, channels);
    }
    let k = group.size;
    let n = input.numel();
    let dtype = input.dtype();
    let g = NodeGeom::new(comm, group, node_size);

    // Phase 1: intra-node ring ReduceScatter — local position `j` owns
    // the node-reduced chunk `chunk_range(n, sub.size, j)`.
    let local_chunk = ring_reduce_scatter_wire_striped(comm, g.sub, input, op, wire, channels);

    if g.local_pos != 0 {
        // Phase 2: hand the node-reduced chunk to the leader; phase 4:
        // receive the globally reduced final chunk back.
        send_striped(comm, g.sub.start, wire_encode(&local_chunk, wire), channels);
        return wire_decode(recv_striped(comm, g.sub.start, channels), wire, dtype);
    }

    // Leader: reassemble the node-partial tensor from member chunks.
    let mut partial = Tensor::zeros([n], input.dtype());
    let (own_off, own_len) = chunk_range(n, g.sub.size, 0);
    if own_len > 0 {
        partial.write_flat(own_off, &local_chunk).expect("in range");
    }
    for j in 1..g.sub.size {
        let t = wire_decode(recv_striped(comm, g.sub.start + j, channels), wire, dtype);
        let (off, len) = chunk_range(n, g.sub.size, j);
        if len > 0 {
            partial.write_flat(off, &t).expect("in range");
        }
    }

    // Superchunk of a node: the contiguous union of its members'
    // global chunks (members are consecutive, so chunks are too).
    let superchunk = |node: usize| {
        let first = node * node_size;
        let last = ((node + 1) * node_size).min(k);
        let (off, _) = chunk_range(n, k, first);
        let end = if last == k {
            n
        } else {
            chunk_range(n, k, last).0
        };
        (off, end - off)
    };

    // Phase 3: direct exchange across node leaders — send every other
    // leader our partial over *their* superchunk, receive theirs over
    // ours, and reduce.
    for node in 0..g.n_nodes {
        if node == g.my_node {
            continue;
        }
        let (off, len) = superchunk(node);
        send_striped(
            comm,
            g.leader(node),
            wire_encode(&slice_or_empty(&partial, off, len), wire),
            channels,
        );
    }
    let (s_off, s_len) = superchunk(g.my_node);
    // A view of the node partial; the first fold detaches exactly the
    // superchunk window, then reduces in place.
    let mut acc = slice_or_empty(&partial, s_off, s_len);
    for node in 0..g.n_nodes {
        if node == g.my_node {
            continue;
        }
        let incoming = wire_decode(recv_striped(comm, g.leader(node), channels), wire, dtype);
        acc.reduce_assign(&incoming, op)
            .expect("leaders agree on superchunk geometry");
    }

    // Phase 4: scatter the final chunks to the node's members.
    for j in 1..g.sub.size {
        let (off, len) = chunk_range(n, k, g.node_first + j);
        send_striped(
            comm,
            g.sub.start + j,
            wire_encode(&slice_or_empty(&acc, off - s_off, len), wire),
            channels,
        );
    }
    let (off, len) = chunk_range(n, k, g.me);
    slice_or_empty(&acc, off - s_off, len)
}

/// Hierarchical AllGather: intra-node ring AllGather, a chunk exchange
/// across node leaders, and an intra-node forward of the remote
/// chunks. Same postcondition as
/// [`ring_all_gather_wire_striped`](crate::ring_all_gather_wire_striped):
/// every rank returns all `k` chunks in group-position order.
///
/// Chunks travel encoded per `wire` across the leader exchange and the
/// intra-node forward, with one decode per chunk per rank at the phase
/// boundaries. The intra-node ring runs the ring engine and every
/// chunk of the leader exchange and the intra-node forward travels as
/// `channels` zero-copy stripe views of its encoded buffer. Byte
/// totals and results are unchanged at every width.
pub fn hierarchical_all_gather_wire_striped(
    comm: &RankComm,
    group: Group,
    chunk: &Tensor,
    node_size: usize,
    wire: WireFormat,
    channels: usize,
) -> Vec<Tensor> {
    let channels = clamp_channels(channels);
    if is_flat(group, node_size) {
        return ring_all_gather_wire_striped(comm, group, chunk, wire, channels);
    }
    let k = group.size;
    let dtype = chunk.dtype();
    let g = NodeGeom::new(comm, group, node_size);

    // Phase 1: intra-node ring AllGather — every member of the node
    // holds all of the node's chunks. From here on `all` lives in
    // *wire encoding*: each local chunk is encoded exactly once, every
    // forward (leader exchange and intra-node fan-out) is a buffer
    // handle of the already-encoded payload, and every rank decodes
    // each chunk exactly once at the end.
    let node_chunks = ring_all_gather_wire_striped(comm, g.sub, chunk, wire, channels);

    let mut all: Vec<Option<Tensor>> = vec![None; k];
    for (j, c) in node_chunks.into_iter().enumerate() {
        all[g.node_first + j] = Some(wire_encode(&c, wire));
    }
    let is_local = |pos: usize| pos >= g.node_first && pos < g.node_first + g.sub.size;

    if g.local_pos == 0 {
        // Phase 2: leaders exchange their nodes' chunks (ascending
        // position order on both sides).
        for node in 0..g.n_nodes {
            if node == g.my_node {
                continue;
            }
            let dst = g.leader(node);
            for j in 0..g.sub.size {
                send_striped(
                    comm,
                    dst,
                    all[g.node_first + j].clone().expect("own node chunk"),
                    channels,
                );
            }
        }
        for node in 0..g.n_nodes {
            if node == g.my_node {
                continue;
            }
            let src = g.leader(node);
            for j in 0..g.node_members(node) {
                all[node * node_size + j] = Some(recv_striped(comm, src, channels));
            }
        }
        // Phase 3: forward the remote chunks to the node's members —
        // handle copies of the encoded buffers.
        for member in 1..g.sub.size {
            for (pos, c) in all.iter().enumerate() {
                if !is_local(pos) {
                    send_striped(
                        comm,
                        g.sub.start + member,
                        c.clone().expect("gathered above"),
                        channels,
                    );
                }
            }
        }
    } else {
        // Members receive the remote chunks from their leader, in the
        // same ascending position order the leader sends them.
        for (pos, slot) in all.iter_mut().enumerate() {
            if !is_local(pos) {
                *slot = Some(recv_striped(comm, g.sub.start, channels));
            }
        }
    }
    all.into_iter()
        .map(|c| wire_decode(c.expect("all chunks gathered"), wire, dtype))
        .collect()
}

/// Hierarchical AllReduce = hierarchical ReduceScatter ∘ hierarchical
/// AllGather; returns the fully reduced tensor with the input's shape,
/// exactly like
/// [`ring_all_reduce_wire_striped`](crate::ring_all_reduce_wire_striped).
/// Both phases run under `wire` — under FP16 the two-level exchange
/// moves exactly half the dense bytes on F32 payloads — striped over
/// `channels` lanes (see the phase functions for the lane geometry),
/// bit-identical to the single-lane run at every width.
pub fn hierarchical_all_reduce_wire_striped(
    comm: &RankComm,
    group: Group,
    input: &Tensor,
    op: ReduceOp,
    node_size: usize,
    wire: WireFormat,
    channels: usize,
) -> Tensor {
    let my_chunk =
        hierarchical_reduce_scatter_wire_striped(comm, group, input, op, node_size, wire, channels);
    let chunks =
        hierarchical_all_gather_wire_striped(comm, group, &my_chunk, node_size, wire, channels);
    let mut out = Tensor::zeros(input.shape().clone(), input.dtype());
    let mut off = 0usize;
    for c in chunks {
        out.write_flat(off, &c).expect("chunks tile the tensor");
        off += c.numel();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run_ranks;
    use crate::{ring_all_reduce_wire_striped, ring_reduce_scatter_wire_striped};
    use coconet_tensor::DType;

    const DENSE: WireFormat = WireFormat::Dense;

    fn ring_all_reduce(comm: &RankComm, group: Group, input: &Tensor, op: ReduceOp) -> Tensor {
        ring_all_reduce_wire_striped(comm, group, input, op, DENSE, 1)
    }

    fn hierarchical_all_reduce(
        comm: &RankComm,
        group: Group,
        input: &Tensor,
        op: ReduceOp,
        node_size: usize,
    ) -> Tensor {
        hierarchical_all_reduce_wire_striped(comm, group, input, op, node_size, DENSE, 1)
    }

    #[test]
    fn hierarchical_allreduce_matches_ring_across_geometries() {
        for (k, node_size) in [(4usize, 2usize), (8, 2), (8, 4), (6, 3), (8, 3), (5, 2)] {
            for n in [1usize, 4, 21, 64] {
                let results = run_ranks(k, move |comm| {
                    let group = Group { start: 0, size: k };
                    let input =
                        Tensor::from_fn([n], DType::F32, |i| ((comm.rank() + 1) * (i + 3)) as f32);
                    let hier =
                        hierarchical_all_reduce(&comm, group, &input, ReduceOp::Sum, node_size);
                    let ring = ring_all_reduce(&comm, group, &input, ReduceOp::Sum);
                    (hier, ring)
                });
                for (r, (hier, ring)) in results.iter().enumerate() {
                    assert_eq!(
                        hier.to_f32_vec(),
                        ring.to_f32_vec(),
                        "k={k} node_size={node_size} n={n} rank={r}"
                    );
                }
            }
        }
    }

    #[test]
    fn hierarchical_reduce_scatter_owns_chunk_i() {
        let (k, node_size, n) = (6usize, 2usize, 16usize);
        let results = run_ranks(k, move |comm| {
            let group = Group { start: 0, size: k };
            let input = Tensor::from_fn([n], DType::F32, |i| i as f32);
            let hier = hierarchical_reduce_scatter_wire_striped(
                &comm,
                group,
                &input,
                ReduceOp::Sum,
                node_size,
                DENSE,
                1,
            );
            let ring =
                ring_reduce_scatter_wire_striped(&comm, group, &input, ReduceOp::Sum, DENSE, 1);
            (hier, ring)
        });
        for (r, (hier, ring)) in results.iter().enumerate() {
            let (off, len) = chunk_range(n, k, r);
            assert_eq!(hier.numel(), len);
            assert_eq!(hier.to_f32_vec(), ring.to_f32_vec(), "rank {r}");
            for i in 0..len {
                assert_eq!(hier.get(i), (k * (off + i)) as f32, "rank {r} elem {i}");
            }
        }
    }

    #[test]
    fn hierarchical_all_gather_reassembles() {
        let (k, node_size) = (6usize, 3usize);
        let results = run_ranks(k, move |comm| {
            let group = Group { start: 0, size: k };
            let me = comm.rank();
            let chunk = Tensor::from_fn([3], DType::F32, |i| (me * 3 + i) as f32);
            hierarchical_all_gather_wire_striped(&comm, group, &chunk, node_size, DENSE, 1)
        });
        for chunks in &results {
            let flat: Vec<f32> = chunks.iter().flat_map(|c| c.to_f32_vec()).collect();
            assert_eq!(flat, (0..18).map(|i| i as f32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn degenerate_node_size_falls_back_to_ring() {
        let k = 4usize;
        for node_size in [0usize, 4, 9] {
            let results = run_ranks(k, move |comm| {
                let group = Group { start: 0, size: k };
                let input = Tensor::full([5], DType::F32, (comm.rank() + 1) as f32);
                hierarchical_all_reduce(&comm, group, &input, ReduceOp::Sum, node_size)
            });
            for t in &results {
                assert_eq!(t.get(0), 10.0, "node_size={node_size}");
            }
        }
    }

    #[test]
    fn min_max_and_subgroups() {
        // Two independent 4-rank groups in an 8-rank world, 2 ranks
        // per node, min/max reductions.
        let results = run_ranks(8, move |comm| {
            let g = if comm.rank() < 4 {
                Group { start: 0, size: 4 }
            } else {
                Group { start: 4, size: 4 }
            };
            let input = Tensor::full([2], DType::F32, comm.rank() as f32);
            let mn = hierarchical_all_reduce(&comm, g, &input, ReduceOp::Min, 2);
            let mx = hierarchical_all_reduce(&comm, g, &input, ReduceOp::Max, 2);
            (mn, mx)
        });
        for (r, (mn, mx)) in results.iter().enumerate() {
            if r < 4 {
                assert_eq!((mn.get(0), mx.get(0)), (0.0, 3.0), "rank {r}");
            } else {
                assert_eq!((mn.get(0), mx.get(0)), (4.0, 7.0), "rank {r}");
            }
        }
    }

    #[test]
    fn degenerate_chunking_with_more_ranks_than_elements() {
        // numel < k: trailing chunks are empty; nothing panics and the
        // result still matches the ring.
        let (k, node_size) = (8usize, 4usize);
        for n in [0usize, 1, 3, 7] {
            let results = run_ranks(k, move |comm| {
                let group = Group { start: 0, size: k };
                let input = Tensor::from_fn([n], DType::F32, |i| (comm.rank() + i) as f32);
                let hier = hierarchical_all_reduce(&comm, group, &input, ReduceOp::Sum, node_size);
                let ring = ring_all_reduce(&comm, group, &input, ReduceOp::Sum);
                (hier, ring)
            });
            for (hier, ring) in &results {
                assert_eq!(hier.to_f32_vec(), ring.to_f32_vec(), "n={n}");
            }
        }
    }
}
