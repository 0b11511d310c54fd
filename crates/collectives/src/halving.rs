//! Recursive-halving reduce-scatter (Rabenseifner-style).
//!
//! The MPI literature the paper cites (Thakur, Rabenseifner & Gropp) uses
//! recursive halving for reduce-scatter at large message sizes:
//! `log₂N` rounds, each exchanging half of the remaining index range with a
//! partner at distance `N/2, N/4, …`. Total per-rank traffic matches the
//! ring's `(N−1)/N`, but in far fewer, larger messages — better when latency
//! dominates, worse on hierarchical topologies where distant partners cross
//! node boundaries every round. We implement it as the ablation alternative
//! to [`crate::ring::ring_reduce_scatter`].
//!
//! Non-power-of-two sizes use the standard pre-fold: the first `2r` ranks
//! (where `r = N − 2^⌊log₂N⌋`) pair up, odd ranks fold their whole vector
//! into their even partner and drop out of the scatter phase, leaving a
//! power-of-two active set.

use sparker_net::codec::{Decoder, Payload};
use sparker_net::error::{NetError, NetResult};

use crate::comm::RingComm;
use crate::ring::OwnedSegment;
use crate::segment::Segment;

/// Sends segments `lo..hi`, count-prefixed, to `rank`, encoded straight
/// behind the epoch header; returns the payload bytes.
fn send_range<V: Payload>(comm: &RingComm, rank: usize, segs: &[V], lo: usize, hi: usize) -> NetResult<u64> {
    let mut frame = comm.frame(8 + segs[lo..hi].iter().map(Payload::size_hint).sum::<usize>());
    frame.encoder().put_usize(hi - lo);
    for s in &segs[lo..hi] {
        s.encode_into(frame.encoder());
    }
    let bytes = frame.payload_len() as u64;
    comm.send_frame(rank, 0, frame)?;
    Ok(bytes)
}

fn merge_range<V, F>(
    segs: &mut [V],
    lo: usize,
    hi: usize,
    frame: sparker_net::ByteBuf,
    merge: &F,
) -> NetResult<()>
where
    V: Payload,
    F: Fn(&mut V, V) + Sync,
{
    let mut dec = Decoder::new(frame);
    let count = dec.get_usize()?;
    if count != hi - lo {
        return Err(NetError::Codec(format!(
            "halving exchange expected {} segments, got {count}",
            hi - lo
        )));
    }
    for seg in &mut segs[lo..hi] {
        let incoming = V::decode_from(&mut dec)?;
        merge(seg, incoming);
    }
    Ok(())
}

/// Runs recursive-halving reduce-scatter on channel 0.
///
/// `segments.len()` must be a multiple of the largest power of two ≤ N so
/// every halving round splits evenly. Active ranks return their contiguous
/// block of fully-reduced segments; folded-out ranks return an empty vec.
pub fn recursive_halving_reduce_scatter<S: Segment>(
    comm: &RingComm,
    segments: Vec<S>,
) -> NetResult<Vec<OwnedSegment<S>>> {
    recursive_halving_reduce_scatter_by(comm, segments, &|acc: &mut S, incoming: S| {
        acc.merge_from(&incoming)
    })
}

/// Closure-merge variant of [`recursive_halving_reduce_scatter`].
pub fn recursive_halving_reduce_scatter_by<V, F>(
    comm: &RingComm,
    segments: Vec<V>,
    merge: &F,
) -> NetResult<Vec<OwnedSegment<V>>>
where
    V: Payload,
    F: Fn(&mut V, V) + Sync,
{
    let n = comm.size();
    let m = segments.len();
    if n == 1 {
        return Ok(segments
            .into_iter()
            .enumerate()
            .map(|(index, segment)| OwnedSegment { index, segment })
            .collect());
    }
    // Largest power of two <= n.
    let mut p2 = 1usize;
    while p2 * 2 <= n {
        p2 *= 2;
    }
    if m == 0 || !m.is_multiple_of(p2) {
        return Err(NetError::InvalidAddress(format!(
            "segment count {m} must be a positive multiple of {p2} for {n} ranks"
        )));
    }
    let r = n - p2;
    let rank = comm.rank();
    let mut segments = segments;

    let (ep_op, ep_attempt) = comm.epoch();
    let step_event = |name: &str, t0: Option<std::time::Instant>, round: usize, peer: usize, bytes: u64| {
        if let Some(t0) = t0 {
            sparker_obs::trace::event_dur(
                sparker_obs::Layer::Step,
                name,
                t0,
                &[
                    ("round", round as u64),
                    ("rank", rank as u64),
                    ("peer", peer as u64),
                    ("bytes", bytes),
                    ("op", ep_op),
                    ("epoch", ep_attempt as u64),
                ],
            );
        }
    };

    // Pre-fold: ranks 0..2r pair up (even, odd). Odd ranks fold everything
    // into the even partner and drop out.
    let active_rank: Option<usize> = if rank < 2 * r {
        let t0 = sparker_obs::enabled().then(std::time::Instant::now);
        if rank % 2 == 1 {
            let bytes = send_range(comm, rank - 1, &segments, 0, m)?;
            step_event("halving.fold", t0, 0, rank - 1, bytes);
            None
        } else {
            let frame = comm.recv_from_rank(rank + 1, 0)?;
            let bytes = frame.len() as u64;
            merge_range(&mut segments, 0, m, frame, merge)?;
            step_event("halving.fold", t0, 0, rank + 1, bytes);
            Some(rank / 2)
        }
    } else {
        Some(rank - r)
    };

    let Some(arank) = active_rank else {
        return Ok(Vec::new());
    };

    // Maps an active rank back to its ring rank for addressing.
    let ring_rank_of = |a: usize| -> usize {
        if a < r {
            2 * a
        } else {
            a + r
        }
    };

    // Recursive halving among the p2 active ranks.
    let (mut lo, mut hi) = (0usize, m);
    let mut dist = p2 / 2;
    let mut round = 0usize;
    while dist >= 1 {
        let partner = arank ^ dist;
        let mid = lo + (hi - lo) / 2;
        let keep_low = arank & dist == 0;
        let (keep, give) = if keep_low {
            ((lo, mid), (mid, hi))
        } else {
            ((mid, hi), (lo, mid))
        };
        let t0 = sparker_obs::enabled().then(std::time::Instant::now);
        let out_bytes = send_range(comm, ring_rank_of(partner), &segments, give.0, give.1)?;
        let frame = comm.recv_from_rank(ring_rank_of(partner), 0)?;
        merge_range(&mut segments, keep.0, keep.1, frame, merge)?;
        step_event("halving.step", t0, round + 1, ring_rank_of(partner), out_bytes);
        lo = keep.0;
        hi = keep.1;
        dist /= 2;
        round += 1;
    }

    Ok(segments
        .into_iter()
        .enumerate()
        .filter(|(i, _)| *i >= lo && *i < hi)
        .map(|(index, segment)| OwnedSegment { index, segment })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::U64SumSegment;
    use crate::testing::{run_ring_cluster, RingClusterSpec};

    fn check_halving(nodes: usize, epn: usize, m: usize) {
        let spec = RingClusterSpec::unshaped(nodes, epn, 1);
        let n = spec.total_executors();
        let per_rank = run_ring_cluster(&spec, |comm| {
            let segs: Vec<U64SumSegment> = (0..m)
                .map(|g| U64SumSegment(vec![(comm.rank() as u64 + 1) * 100 + g as u64; 3]))
                .collect();
            recursive_halving_reduce_scatter(&comm, segs).unwrap()
        });
        let mut seen = vec![false; m];
        for owned in &per_rank {
            // Each active rank owns a contiguous block.
            for w in owned.windows(2) {
                assert_eq!(w[1].index, w[0].index + 1, "non-contiguous block");
            }
            for o in owned {
                assert!(!seen[o.index], "segment {} owned twice", o.index);
                seen[o.index] = true;
                let want: u64 = (0..n).map(|r| (r as u64 + 1) * 100 + o.index as u64).sum();
                assert!(o.segment.0.iter().all(|&v| v == want), "segment {}", o.index);
            }
        }
        assert!(seen.iter().all(|&s| s), "all segments covered");
    }

    #[test]
    fn halving_power_of_two() {
        check_halving(4, 1, 8);
        check_halving(2, 4, 16);
    }

    #[test]
    fn halving_non_power_of_two_prefolds() {
        check_halving(3, 1, 4); // p2 = 2
        check_halving(6, 1, 8); // p2 = 4
        check_halving(5, 1, 12); // p2 = 4
    }

    #[test]
    fn halving_single_rank() {
        check_halving(1, 1, 4);
    }

    #[test]
    fn halving_rejects_indivisible_segment_count() {
        let spec = RingClusterSpec::unshaped(4, 1, 1);
        let errs = run_ring_cluster(&spec, |comm| {
            let segs: Vec<U64SumSegment> =
                (0..3).map(|g| U64SumSegment(vec![g as u64; 2])).collect();
            recursive_halving_reduce_scatter(&comm, segs).is_err()
        });
        assert!(errs.iter().all(|&e| e));
    }
}
