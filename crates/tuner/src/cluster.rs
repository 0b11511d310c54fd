//! Simulated cluster configurations (Table 1).

use sparker_net::TransportKind;

use crate::des::DesParams;
use crate::profile::{software_overhead, NetProfile};

/// A full simulation model of one cluster.
#[derive(Debug, Clone)]
pub struct SimCluster {
    pub name: &'static str,
    pub nodes: usize,
    pub executors_per_node: usize,
    pub cores_per_executor: usize,
    pub profile: NetProfile,
    /// Modeled JVM serializer throughput (bytes/sec).
    pub ser_bandwidth: f64,
    /// Modeled JVM deserializer throughput.
    pub deser_bandwidth: f64,
    /// Element-wise merge throughput (bytes/sec of aggregator merged).
    pub merge_bandwidth: f64,
    /// Driver-side per-task scheduling overhead (seconds per task) — the
    /// source of the paper's "Driver" component, which grows with scale.
    pub driver_per_task: f64,
    /// Fixed driver overhead per stage.
    pub driver_per_stage: f64,
    /// BlockManager-class control latency added per shuffle/result fetch.
    pub bm_control_latency: f64,
    /// Overrides the executor count (communication sweeps place e.g. 6
    /// executors across 8 nodes; `None` = `nodes × executors_per_node`).
    pub executor_override: Option<usize>,
}

const MB: f64 = 1024.0 * 1024.0;

impl SimCluster {
    /// Paper's BIC cluster: 8 nodes × 6 executors × 4 cores, 100 Gbps IPoIB.
    pub fn bic() -> Self {
        Self {
            name: "bic",
            nodes: 8,
            executors_per_node: 6,
            cores_per_executor: 4,
            profile: NetProfile::bic(),
            ser_bandwidth: 700.0 * MB,
            deser_bandwidth: 3000.0 * MB,
            merge_bandwidth: 5000.0 * MB,
            driver_per_task: 950e-6,
            driver_per_stage: 30e-3,
            bm_control_latency: 3861e-6,
            executor_override: None,
        }
    }

    /// Paper's AWS cluster: 10 × m5d.24xlarge (12 executors × 8 cores).
    pub fn aws() -> Self {
        Self {
            name: "aws",
            nodes: 10,
            executors_per_node: 12,
            cores_per_executor: 8,
            profile: NetProfile::aws(),
            ser_bandwidth: 700.0 * MB,
            deser_bandwidth: 3000.0 * MB,
            merge_bandwidth: 5000.0 * MB,
            driver_per_task: 950e-6,
            driver_per_stage: 30e-3,
            bm_control_latency: 3861e-6,
            executor_override: None,
        }
    }

    /// Shrinks the cluster to `nodes` nodes (strong-scaling sweeps).
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        assert!(nodes >= 1);
        self.nodes = nodes;
        self
    }

    /// Reshapes executors for intra-node core sweeps (Figure 4/18 use 4-core
    /// executors below one full node).
    pub fn with_executors(mut self, executors_per_node: usize, cores: usize) -> Self {
        assert!(executors_per_node >= 1 && cores >= 1);
        self.executors_per_node = executors_per_node;
        self.cores_per_executor = cores;
        self
    }

    /// Spreads exactly `total` executors over the cluster's nodes (used by
    /// the paper's reduce-scatter sweeps, which vary executor count over a
    /// fixed 8-node cluster).
    pub fn with_total_executors(mut self, total: usize) -> Self {
        assert!(total >= 1);
        self.executor_override = Some(total);
        self
    }

    pub fn executors(&self) -> usize {
        self.executor_override
            .unwrap_or(self.nodes * self.executors_per_node)
    }

    pub fn total_cores(&self) -> usize {
        self.executors() * self.cores_per_executor
    }

    /// A cluster shape delivering exactly `cores` total cores, following the
    /// paper's strong-scaling methodology: fill executors (of
    /// `cores_per_executor` cores) within one node first, then add nodes.
    pub fn shaped_for_cores(&self, cores: usize) -> Self {
        let per_exec = self.cores_per_executor;
        let execs_needed = cores.div_ceil(per_exec);
        let full_node = self.executors_per_node;
        if execs_needed <= full_node {
            self.clone().with_nodes(1).with_executors(execs_needed.max(1), per_exec)
        } else {
            let nodes = execs_needed.div_ceil(full_node);
            self.clone().with_nodes(nodes)
        }
    }

    /// Distills into DES resource parameters for transport `kind` (its
    /// software overhead rides on every hop's latency), with topology-aware
    /// (or not) executor placement.
    pub fn des_params(&self, kind: TransportKind, topology_aware: bool) -> DesParams {
        let e = self.executors();
        // Topology-aware ring order = executors packed per node (adjacent
        // ranks share nodes); unaware = round-robin (adjacent ranks on
        // different nodes), matching `sparker_net::topology` semantics.
        let node_of_executor: Vec<usize> = (0..e)
            .map(|i| {
                if topology_aware {
                    // Block placement: adjacent ring ranks share nodes.
                    i * self.nodes / e.max(self.nodes)
                } else {
                    i % self.nodes
                }
            })
            .collect();
        let sw = software_overhead(kind).as_secs_f64();
        DesParams {
            executors: e,
            cores_per_executor: self.cores_per_executor,
            node_of_executor,
            nodes: self.nodes,
            stream_bandwidth: self.profile.per_channel_bandwidth,
            nic_bandwidth: self.profile.nic_bandwidth,
            intra_bandwidth: self.profile.intra_node.bandwidth,
            latency: self.profile.inter_node.latency.as_secs_f64() + sw,
            intra_latency: self.profile.intra_node.latency.as_secs_f64() + sw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_shapes() {
        assert_eq!(SimCluster::bic().executors(), 48);
        assert_eq!(SimCluster::bic().total_cores(), 192);
        assert_eq!(SimCluster::aws().executors(), 120);
        assert_eq!(SimCluster::aws().total_cores(), 960);
    }

    #[test]
    fn shaped_for_cores_follows_paper_methodology() {
        // Figure 4/18 shrink executors to 4 cores; one node fits 24 of them.
        let aws = SimCluster::aws().with_executors(24, 4);
        let c8 = aws.shaped_for_cores(8);
        assert_eq!(c8.nodes, 1);
        assert_eq!(c8.executors(), 2);
        let c96 = aws.shaped_for_cores(96);
        assert_eq!(c96.nodes, 1);
        assert_eq!(c96.executors(), 24);
        // Beyond one node with the default shape: whole nodes.
        let aws_full = SimCluster::aws();
        let c960 = aws_full.shaped_for_cores(960);
        assert_eq!(c960.nodes, 10);
        assert_eq!(c960.total_cores(), 960);
    }

    #[test]
    fn topology_awareness_changes_placement() {
        let c = SimCluster::bic().with_nodes(2);
        let aware = c.des_params(TransportKind::ScalableComm, true);
        let unaware = c.des_params(TransportKind::ScalableComm, false);
        // Aware: first 6 executors on node 0; unaware: alternating.
        assert!(aware.node_of_executor[..6].iter().all(|&n| n == 0));
        assert_eq!(unaware.node_of_executor[0], 0);
        assert_eq!(unaware.node_of_executor[1], 1);
    }
}
