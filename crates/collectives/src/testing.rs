//! Multi-rank test/bench harness.
//!
//! Collectives involve every rank simultaneously, so exercising them needs
//! one thread per executor. [`run_ring_cluster`] builds a layout, mesh and
//! ring, spawns one thread per rank, runs the supplied closure on each, and
//! returns the per-rank results in rank order. Used by unit tests, property
//! tests, integration tests and the benchmark probes alike.

use std::sync::Arc;

use sparker_net::topology::{round_robin_layout, RingOrder, RingTopology};
use sparker_net::transport::MeshTransport;

use crate::comm::RingComm;

/// Cluster shape for a harness run.
#[derive(Debug, Clone)]
pub struct RingClusterSpec {
    pub nodes: usize,
    pub executors_per_node: usize,
    /// PDR channel parallelism (the paper's `P`).
    pub parallelism: usize,
    pub order: RingOrder,
}

impl RingClusterSpec {
    /// A topology-aware ring of `nodes × executors_per_node` ranks.
    pub fn unshaped(nodes: usize, executors_per_node: usize, parallelism: usize) -> Self {
        Self { nodes, executors_per_node, parallelism, order: RingOrder::TopologyAware }
    }

    pub fn total_executors(&self) -> usize {
        self.nodes * self.executors_per_node
    }
}

/// Runs `f` on every rank of a freshly-built ring cluster, one OS thread per
/// rank, and returns results indexed by rank.
pub fn run_ring_cluster<R, F>(spec: &RingClusterSpec, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(RingComm) -> R + Send + Sync,
{
    let execs = round_robin_layout(spec.nodes, spec.executors_per_node, 1);
    let net = MeshTransport::unshaped(&execs, spec.parallelism);
    let ring = Arc::new(RingTopology::new(execs, spec.order, spec.parallelism));
    run_on_ring(net, ring, &f)
}

/// Runs `f` on every rank of an existing mesh+ring. Results in rank order.
pub fn run_on_ring<R, F>(
    net: Arc<MeshTransport>,
    ring: Arc<RingTopology>,
    f: &F,
) -> Vec<R>
where
    R: Send,
    F: Fn(RingComm) -> R + Send + Sync,
{
    let n = ring.size();
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(n);
        for (rank, slot) in results.iter_mut().enumerate() {
            let comm = RingComm::new(net.clone(), ring.clone(), rank);
            let f = &f;
            handles.push(s.spawn(move || {
                *slot = Some(f(comm));
            }));
        }
        for h in handles {
            h.join().expect("rank thread panicked");
        }
    });
    results.into_iter().map(|r| r.expect("rank produced no result")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rank_runs_once() {
        let spec = RingClusterSpec::unshaped(2, 3, 1);
        let got = run_ring_cluster(&spec, |c| (c.rank(), c.size()));
        assert_eq!(got.len(), 6);
        for (rank, (r, n)) in got.iter().enumerate() {
            assert_eq!(*r, rank);
            assert_eq!(*n, 6);
        }
    }

    #[test]
    fn ranks_can_talk_to_each_other() {
        let spec = RingClusterSpec::unshaped(1, 4, 1);
        let sums = run_ring_cluster(&spec, |c| {
            // Each rank sends its rank to next; receives prev's rank.
            c.send_next(0, sparker_net::ByteBuf::from(vec![c.rank() as u8])).unwrap();
            let m = c.recv_prev(0).unwrap();
            m[0] as usize
        });
        assert_eq!(sums, vec![3, 0, 1, 2]);
    }
}
