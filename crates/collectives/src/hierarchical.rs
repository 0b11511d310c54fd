//! Two-level hierarchical reduce-scatter: intra-node fold, inter-node ring.
//!
//! The paper's topology-aware ordering (§4, Figure 14) makes a *flat* ring
//! cheap by letting all but one hop per node stay on shared memory. This
//! module goes one level further: instead of threading the ring through
//! every executor, each node first *folds* its executors' contributions
//! into an elected node leader over intra-node links (the same striped
//! shared-memory path the IMM uses), then only the `L` leaders run the ring
//! reduce-scatter of [`crate::ring`] across the NICs. The inter-node ring
//! moves `(L−1)/L` of one aggregator per NIC instead of `(N−1)/N` per
//! *executor*, so NIC bytes shrink by the executors-per-node factor.
//!
//! # Leader election and the segment space
//!
//! Node groups come from [`NodeTopology::group`] — the same `(host, id)`
//! sort as the topology-aware ring, so every rank derives the identical
//! grouping without coordination. The leader is each group's lowest-id
//! member; after a failure, re-grouping the survivor view re-elects
//! deterministically. The global segment space is `P·L` (channels ×
//! leaders): *every* rank splits its aggregator the same way, non-leaders
//! end the reduce-scatter owning nothing, and each leader owns `P`
//! fully-reduced segments.
//!
//! # Bit-exactness and fault composition
//!
//! Fold merges run in member-id order, then the leader ring performs the
//! same merge schedule as the flat ring over `L` ranks — on integer-valued
//! data (the repo's oracle convention) any association is exact, so the
//! result is bit-identical to the flat path and to a sequential reduction.
//! All traffic flows through the caller's [`RingComm`], so epoch fencing,
//! gang cancellation, and receive deadlines apply unchanged: a killed
//! leader surfaces as `Timeout`/`Cancelled` on its group and ring
//! neighbours, which the engine turns into a retry over the survivor view
//! (with a freshly elected leader) or the tree fallback — never a hang.

use std::sync::Arc;

use sparker_net::codec::Payload;
use sparker_net::error::{NetError, NetResult};
use sparker_net::pool;
use sparker_net::topology::{ExecutorInfo, NodeTopology, RingOrder, RingTopology};

use crate::comm::RingComm;
use crate::lanes::run_lanes;
use crate::ring::{ring_reduce_scatter_vec, OwnedSegment};
use crate::segment::Segment;

/// Node grouping of a ring's members, by hostname locality key.
pub fn node_topology_of(ring: &RingTopology) -> NodeTopology {
    let infos: Vec<ExecutorInfo> = ring.iter().cloned().collect();
    NodeTopology::group(&infos)
}

/// Hierarchical reduce-scatter with [`Segment::merge_from`].
pub fn hierarchical_reduce_scatter<S: Segment>(
    comm: &RingComm,
    segments: Vec<S>,
) -> NetResult<Vec<OwnedSegment<S>>> {
    hierarchical_reduce_scatter_by(comm, segments, &|acc: &mut S, incoming: S| {
        acc.merge_from(&incoming)
    })
}

/// Hierarchical reduce-scatter: intra-node fold to the elected leader,
/// then the leader ring. `segments` must hold exactly `P·L` entries on
/// **every** rank (both sides of a mismatch error out before any
/// communication). Leaders return their `P` owned segments with global
/// indices in `0..P·L`, sorted; non-leaders return an empty set.
pub fn hierarchical_reduce_scatter_by<V, F>(
    comm: &RingComm,
    segments: Vec<V>,
    merge: &F,
) -> NetResult<Vec<OwnedSegment<V>>>
where
    V: Payload,
    F: Fn(&mut V, V) + Sync,
{
    let topo = node_topology_of(comm.ring());
    let want = comm.parallelism() * topo.num_nodes();
    if segments.len() != want {
        return Err(NetError::InvalidAddress(format!(
            "hierarchical reduce-scatter needs P*L = {want} segments, got {}",
            segments.len()
        )));
    }
    // Every executor its own node: the leader ring IS the flat ring.
    if topo.num_nodes() == comm.size() {
        return ring_reduce_scatter_vec(comm, segments, merge, 1);
    }
    match fold_phase(comm, &topo, segments, merge)? {
        Folded::NonLeader => Ok(Vec::new()),
        Folded::Leader { segments, sub } => ring_reduce_scatter_vec(&sub, segments, merge, 1),
    }
}

/// Outcome of the intra-node fold for one rank.
enum Folded<V> {
    /// This rank sent its contribution to its node leader; it plays no
    /// further part in the reduce-scatter.
    NonLeader,
    /// This rank is a node leader: `segments` now hold the node's folded
    /// contribution and `sub` is its comm on the leaders-only ring.
    Leader { segments: Vec<V>, sub: RingComm },
}

/// Phase 1: members stream their `P·L` segments to their node leader
/// (channel `t` carries channel `t`'s slot range); the leader merges them
/// in member-id order. Leaders come back with the leaders-only sub-ring
/// comm (same transport, epoch, cancel token, and deadline).
fn fold_phase<V, F>(
    comm: &RingComm,
    topo: &NodeTopology,
    mut segments: Vec<V>,
    merge: &F,
) -> NetResult<Folded<V>>
where
    V: Payload,
    F: Fn(&mut V, V) + Sync,
{
    let ring = comm.ring();
    let me = ring.executor_at(comm.rank()).id;
    let group = &topo.groups()[topo.group_of(me)];
    let p = comm.parallelism();
    let l = topo.num_nodes();

    if !topo.is_leader(me) {
        let leader_rank = ring.rank_of(group.leader().id);
        // chunks_mut: exclusive slices make the lanes need only V: Send,
        // matching the flat ring's bounds (send_fold merely reads).
        run_lanes(segments.chunks_mut(l).enumerate(), |(t, slots)| {
            send_fold(comm, t, leader_rank, slots)
        })
        .into_iter()
        .collect::<NetResult<()>>()?;
        return Ok(Folded::NonLeader);
    }

    run_lanes(segments.chunks_mut(l).enumerate(), |(t, slots)| {
        recv_fold(comm, t, &group.members, slots, merge)
    })
    .into_iter()
    .collect::<NetResult<()>>()?;

    let sub = Arc::new(RingTopology::new(topo.leaders(), RingOrder::TopologyAware, p));
    let sub_rank = sub.rank_of(me);
    Ok(Folded::Leader { segments, sub: comm.subring(sub, sub_rank) })
}

/// One channel of a member's fold: its `L` slots, in order, to the leader.
fn send_fold<V: Payload>(
    comm: &RingComm,
    channel: usize,
    leader_rank: usize,
    slots: &[V],
) -> NetResult<()> {
    let (op, attempt) = comm.epoch();
    let started = sparker_obs::enabled().then(std::time::Instant::now);
    let mut sent_bytes = 0u64;
    for s in slots {
        let frame = comm.frame_of(s);
        sent_bytes += frame.payload_len() as u64;
        comm.send_frame(leader_rank, channel, frame)?;
    }
    if let Some(t0) = started {
        sparker_obs::trace::event_dur(
            sparker_obs::Layer::Step,
            "hier.fold",
            t0,
            &[
                ("channel", channel as u64),
                ("rank", comm.rank() as u64),
                ("peer", leader_rank as u64),
                ("send_bytes", sent_bytes),
                ("recv_bytes", 0),
                ("op", op),
                ("epoch", attempt as u64),
            ],
        );
    }
    Ok(())
}

/// One channel of a leader's fold: merge each non-leader member's slots
/// (members in id order, slots in order — the deterministic schedule).
fn recv_fold<V, F>(
    comm: &RingComm,
    channel: usize,
    members: &[ExecutorInfo],
    slots: &mut [V],
    merge: &F,
) -> NetResult<()>
where
    V: Payload,
    F: Fn(&mut V, V) + Sync,
{
    let pool = pool::global();
    let ring = comm.ring();
    let (op, attempt) = comm.epoch();
    for m in &members[1..] {
        let from = ring.rank_of(m.id);
        let started = sparker_obs::enabled().then(std::time::Instant::now);
        let mut recv_bytes = 0u64;
        for slot in slots.iter_mut() {
            let frame = comm.recv_from_rank(from, channel)?;
            recv_bytes += frame.len() as u64;
            let incoming = V::from_frame_pooled(frame, pool)?;
            merge(slot, incoming);
        }
        if let Some(t0) = started {
            sparker_obs::trace::event_dur(
                sparker_obs::Layer::Step,
                "hier.fold",
                t0,
                &[
                    ("channel", channel as u64),
                    ("rank", comm.rank() as u64),
                    ("peer", from as u64),
                    ("send_bytes", 0),
                    ("recv_bytes", recv_bytes),
                    ("op", op),
                    ("epoch", attempt as u64),
                ],
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::ring_reduce_scatter;
    use crate::segment::U64SumSegment;
    use crate::testing::{run_ring_cluster, RingClusterSpec};

    /// Rank r's global segment g holds `(r+1)*1000 + g` everywhere.
    fn seed(rank: usize, total: usize, elems: usize) -> Vec<U64SumSegment> {
        (0..total)
            .map(|g| U64SumSegment(vec![(rank as u64 + 1) * 1000 + g as u64; elems]))
            .collect()
    }

    fn expected(g: usize, n: usize) -> u64 {
        (0..n).map(|r| (r as u64 + 1) * 1000 + g as u64).sum()
    }

    fn check_hier_reduce_scatter(nodes: usize, epn: usize, p: usize, elems: usize) {
        let spec = RingClusterSpec::unshaped(nodes, epn, p);
        let n = spec.total_executors();
        let total = p * nodes;
        let per_rank = run_ring_cluster(&spec, move |comm| {
            let segs = seed(comm.rank(), total, elems);
            let owned = hierarchical_reduce_scatter(&comm, segs).unwrap();
            let leader = node_topology_of(comm.ring())
                .is_leader(comm.ring().executor_at(comm.rank()).id);
            (leader, owned)
        });
        let mut seen = vec![false; total];
        for (leader, owned) in &per_rank {
            if !leader {
                assert!(owned.is_empty(), "non-leaders own nothing");
                continue;
            }
            assert_eq!(owned.len(), p, "leaders own P segments");
            for o in owned {
                assert!(!seen[o.index], "segment {} owned twice", o.index);
                seen[o.index] = true;
                let want = expected(o.index, n);
                assert!(o.segment.0.iter().all(|&v| v == want), "segment {} wrong", o.index);
                assert_eq!(o.segment.0.len(), elems);
            }
        }
        assert!(seen.iter().all(|&s| s), "all segments covered");
        assert_eq!(
            per_rank.iter().filter(|(l, _)| *l).count(),
            nodes,
            "one leader per node"
        );
    }

    #[test]
    fn hier_reduce_scatter_two_nodes() {
        check_hier_reduce_scatter(2, 4, 1, 3);
    }

    #[test]
    fn hier_reduce_scatter_parallel() {
        check_hier_reduce_scatter(2, 3, 2, 5);
        check_hier_reduce_scatter(3, 2, 2, 1);
    }

    #[test]
    fn hier_reduce_scatter_single_node_degenerate() {
        // One node: no inter-node ring at all; the leader folds everything.
        check_hier_reduce_scatter(1, 4, 2, 2);
        check_hier_reduce_scatter(1, 1, 1, 1);
    }

    #[test]
    fn hier_every_rank_its_own_node_equals_flat_ring() {
        // epn = 1: L == N, the hierarchical path must BE the flat path.
        let spec = RingClusterSpec::unshaped(4, 1, 2);
        let total = 2 * 4;
        let hier = run_ring_cluster(&spec, move |comm| {
            hierarchical_reduce_scatter(&comm, seed(comm.rank(), total, 3)).unwrap()
        });
        let flat = run_ring_cluster(&spec, move |comm| {
            ring_reduce_scatter(&comm, seed(comm.rank(), total, 3)).unwrap()
        });
        assert_eq!(hier, flat);
    }

    #[test]
    fn hier_wrong_count_is_a_symmetric_error() {
        let spec = RingClusterSpec::unshaped(2, 2, 1);
        let errs = run_ring_cluster(&spec, |comm| {
            // P*L = 2 but we pass 3.
            hierarchical_reduce_scatter(&comm, seed(comm.rank(), 3, 1)).is_err()
        });
        assert!(errs.iter().all(|&e| e));
    }
}
