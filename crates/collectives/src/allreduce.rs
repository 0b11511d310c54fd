//! Ring allreduce: reduce-scatter followed by ring allgather.
//!
//! Sparker itself only needs reduce-scatter + gather-to-driver, but the
//! bandwidth-optimal allreduce of Patarasuk & Yuan (the paper's reference
//! \[17\]) is the natural extension and is what parameter-server-free ML
//! systems standardized on. We provide it both as an extension feature and
//! to cross-check the reduce-scatter implementation (allreduce must equal a
//! sequential reduction on every rank).


use sparker_net::error::{NetError, NetResult};

use crate::comm::RingComm;
use crate::lanes::run_lanes;
use crate::segment::Segment;

/// Ring allgather over one channel: every rank starts holding the global
/// block owned after reduce-scatter (`(rank + 1) % N` of this channel's
/// range) and after `N−1` forwarding steps holds all `N`. Pure forwarding:
/// needs only the wire format, no merge.
fn ring_allgather_pass<S: sparker_net::codec::Payload>(
    comm: &RingComm,
    channel: usize,
    owned: S,
    n: usize,
) -> NetResult<Vec<S>> {
    let rank = comm.rank();
    let (op, attempt) = comm.epoch();
    let pool = sparker_net::pool::global();
    let mut blocks: Vec<Option<S>> = (0..n).map(|_| None).collect();
    let own_idx = (rank + 1) % n;
    let mut current = owned.to_frame_pooled(pool);
    blocks[own_idx] = Some(owned);
    for step in 0..n - 1 {
        let started = sparker_obs::enabled().then(std::time::Instant::now);
        let sent_bytes = current.len() as u64;
        comm.send_next(channel, current.clone())?;
        let incoming = comm.recv_prev(channel)?;
        // The previous rank forwarded the block it acquired at step-1, which
        // is global index (prev_rank + 1 - step) mod n = (rank - step) mod n.
        let idx = (rank + n - step) % n;
        blocks[idx] = Some(S::from_frame(incoming.clone())?);
        if let Some(t0) = started {
            sparker_obs::trace::event_dur(
                sparker_obs::Layer::Step,
                "allgather.step",
                t0,
                &[
                    ("step", step as u64),
                    ("channel", channel as u64),
                    ("rank", rank as u64),
                    ("peer", ((rank + 1) % n) as u64),
                    ("send_bytes", sent_bytes),
                    ("recv_bytes", incoming.len() as u64),
                    ("op", op),
                    ("epoch", attempt as u64),
                ],
            );
        }
        current = incoming;
    }
    // The last received frame is never forwarded; hand it back to the pool.
    pool.recycle_frame(current);
    blocks
        .into_iter()
        .enumerate()
        .map(|(i, b)| b.ok_or_else(|| NetError::Codec(format!("allgather missed block {i}"))))
        .collect()
}

/// Bandwidth-optimal ring allreduce over the PDR.
///
/// Takes the same `P·N` segments as [`crate::ring::ring_reduce_scatter`]
/// and returns all
/// `P·N` fully-reduced segments, in global order, on **every** rank.
pub fn ring_allreduce<S: Segment>(comm: &RingComm, segments: Vec<S>) -> NetResult<Vec<S>> {
    ring_allreduce_by(comm, segments, &|acc: &mut S, incoming: S| acc.merge_from(&incoming))
}

/// Closure-merge variant of [`ring_allreduce`], for user `reduceOp`s.
pub fn ring_allreduce_by<V, F>(comm: &RingComm, segments: Vec<V>, merge: &F) -> NetResult<Vec<V>>
where
    V: sparker_net::codec::Payload,
    F: Fn(&mut V, V) + Sync,
{
    let n = comm.size();
    let p = comm.parallelism();
    let owned = crate::ring::ring_reduce_scatter_vec(comm, segments, merge, 1)?;
    if n == 1 {
        return Ok(owned.into_iter().map(|o| o.segment).collect());
    }
    debug_assert_eq!(owned.len(), p);

    let per_channel =
        run_lanes(owned, |o| ring_allgather_pass(comm, o.index / n, o.segment, n));

    let mut out = Vec::with_capacity(p * n);
    for blocks in per_channel {
        out.extend(blocks?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::U64SumSegment;
    use crate::testing::{run_ring_cluster, RingClusterSpec};

    fn check_allreduce(nodes: usize, epn: usize, parallelism: usize) {
        let spec = RingClusterSpec::unshaped(nodes, epn, parallelism);
        let n = spec.total_executors();
        let total = parallelism * n;
        let per_rank = run_ring_cluster(&spec, |comm| {
            let segs: Vec<U64SumSegment> = (0..total)
                .map(|g| U64SumSegment(vec![(comm.rank() as u64 + 1) * 10 + g as u64; 2]))
                .collect();
            ring_allreduce(&comm, segs).unwrap()
        });
        for result in &per_rank {
            assert_eq!(result.len(), total);
            for (g, seg) in result.iter().enumerate() {
                let want: u64 = (0..n).map(|r| (r as u64 + 1) * 10 + g as u64).sum();
                assert!(seg.0.iter().all(|&v| v == want), "segment {g}: {seg:?}");
            }
        }
    }

    #[test]
    fn allreduce_small_ring() {
        check_allreduce(1, 2, 1);
        check_allreduce(1, 4, 1);
    }

    #[test]
    fn allreduce_parallel_channels() {
        check_allreduce(2, 2, 3);
    }

    #[test]
    fn allreduce_odd_ring() {
        check_allreduce(3, 1, 2);
        check_allreduce(5, 1, 1);
    }

    #[test]
    fn allreduce_single_rank() {
        check_allreduce(1, 1, 2);
    }
}
