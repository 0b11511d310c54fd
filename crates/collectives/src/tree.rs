//! Binomial-tree reduction (the non-splitting baseline).
//!
//! This is the shape of reduction Spark's `treeAggregate` performs:
//! whole aggregators hop between executors in `⌈log₂N⌉` rounds, and every
//! round moves full-size objects. Per-rank traffic is `O(log N)` aggregators
//! versus the ring's `(N−1)/N` of one aggregator — which is exactly why
//! tree reduction stops scaling once aggregators are large (Figure 16).

use sparker_net::error::NetResult;

use crate::comm::RingComm;
use crate::segment::Segment;

/// Reduces `value` across all ranks into rank `root` with a binomial tree.
///
/// Returns `Some(reduced)` at `root`, `None` elsewhere. Merge order is
/// deterministic for a given cluster size.
pub fn binomial_tree_reduce<S: Segment>(
    comm: &RingComm,
    value: S,
    root: usize,
) -> NetResult<Option<S>> {
    let n = comm.size();
    assert!(root < n, "root {root} out of {n} ranks");
    let mut acc = value;
    // Work in root-relative rank space so any root works.
    let rel = (comm.rank() + n - root) % n;
    let mut mask = 1usize;
    while mask < n {
        if rel & mask != 0 {
            // Our subtree is complete: hand it to the parent and stop.
            let parent = ((rel - mask) + root) % n;
            comm.send_to_rank(parent, 0, acc.to_frame())?;
            return Ok(None);
        }
        if rel + mask < n {
            let child = ((rel + mask) + root) % n;
            let incoming = S::from_frame(comm.recv_from_rank(child, 0)?)?;
            acc.merge_from(&incoming);
        }
        mask <<= 1;
    }
    Ok(Some(acc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::U64SumSegment;
    use crate::testing::{run_ring_cluster, RingClusterSpec};

    fn check_tree(nodes: usize, epn: usize, root: usize) {
        let spec = RingClusterSpec::unshaped(nodes, epn, 1);
        let n = spec.total_executors();
        let results = run_ring_cluster(&spec, |comm| {
            let v = U64SumSegment(vec![comm.rank() as u64 + 1; 4]);
            binomial_tree_reduce(&comm, v, root).unwrap()
        });
        let want: u64 = (1..=n as u64).sum();
        for (rank, r) in results.iter().enumerate() {
            if rank == root {
                let seg = r.as_ref().expect("root must hold the result");
                assert!(seg.0.iter().all(|&v| v == want));
            } else {
                assert!(r.is_none(), "non-root rank {rank} returned a value");
            }
        }
    }

    #[test]
    fn tree_reduce_power_of_two() {
        check_tree(4, 2, 0);
    }

    #[test]
    fn tree_reduce_non_power_of_two() {
        check_tree(3, 2, 0);
        check_tree(7, 1, 0);
    }

    #[test]
    fn tree_reduce_nonzero_root() {
        check_tree(2, 3, 4);
        check_tree(5, 1, 2);
    }

    #[test]
    fn tree_reduce_single_rank() {
        check_tree(1, 1, 0);
    }
}
