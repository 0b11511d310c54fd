//! Cluster specifications.
//!
//! A [`ClusterSpec`] is the engine-level mirror of the paper's Table 1 rows:
//! node count, executors per node, cores per executor, plus the network
//! profile, BlockManager control costs, serializer model and PDR settings.
//! Presets cover the two evaluation clusters and an unshaped local spec for
//! tests.

use std::sync::Arc;
use std::time::Duration;

use sparker_net::blockmanager::BlockManagerCosts;
use sparker_net::fault::NetFaultPlan;
use sparker_net::profile::NetProfile;
use sparker_net::topology::RingOrder;

use crate::cost::SerdeCost;

/// Generous default: local stages finish in milliseconds, so a wait this
/// long only ever fires on a genuine hang.
const DEFAULT_STAGE_TIMEOUT: Duration = Duration::from_secs(300);
/// Spark's `spark.task.maxFailures` default.
const DEFAULT_MAX_TASK_ATTEMPTS: u32 = 4;
/// Gang resubmits before a collective degrades to the tree fallback.
const DEFAULT_MAX_COLLECTIVE_ATTEMPTS: u32 = 4;
/// Per-receive deadline inside a collective; bounds how long a ring blocks
/// on a dead neighbour.
const DEFAULT_COLLECTIVE_RECV_TIMEOUT: Duration = Duration::from_secs(30);

/// Full configuration of a [`crate::cluster::LocalCluster`].
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Physical nodes (the driver occupies an additional implicit node).
    pub nodes: usize,
    /// Executors per node (paper: 6 on BIC, 12 on AWS).
    pub executors_per_node: usize,
    /// Concurrent task slots per executor (paper: 4 on BIC, 8 on AWS).
    pub cores_per_executor: usize,
    /// Network shaping shared by all transports.
    pub profile: NetProfile,
    /// Control-plane costs of the BlockManager-class paths (task results,
    /// tree-aggregation shuffle).
    pub bm_costs: BlockManagerCosts,
    /// Modeled serializer.
    pub cost: SerdeCost,
    /// Rank policy of the parallel directed ring.
    pub ring_order: RingOrder,
    /// PDR channel parallelism (the paper settles on 4, §5.2.2).
    pub ring_parallelism: usize,
    /// Default `treeAggregate` depth (Spark's default is 2).
    pub tree_depth: usize,
    /// Upper bound on one stage attempt (driver-side wait per task result).
    pub stage_timeout: Duration,
    /// Per-task retry budget under `RecoveryPolicy::RetryTask` (and the
    /// resubmit budget of `ResubmitStage`).
    pub max_task_attempts: u32,
    /// Gang resubmit budget of `RecoveryPolicy::ResubmitGang` before a
    /// collective op degrades to its fallback path.
    pub max_collective_attempts: u32,
    /// Deadline on each collective receive: how long a ring task waits on a
    /// silent neighbour before failing the gang with a timeout.
    pub collective_recv_timeout: Duration,
    /// Optional deterministic fault plan wrapped around the scalable
    /// communicator (the collectives' transport); `None` leaves it clean.
    pub sc_fault: Option<Arc<NetFaultPlan>>,
}

impl ClusterSpec {
    /// Unshaped local cluster: fastest possible, for correctness tests.
    pub fn local(executors: usize, cores_per_executor: usize) -> Self {
        Self {
            nodes: 1,
            executors_per_node: executors,
            cores_per_executor,
            profile: NetProfile::unshaped(),
            bm_costs: BlockManagerCosts {
                control_rpc: std::time::Duration::ZERO,
                poll_quantum: std::time::Duration::ZERO,
            },
            cost: SerdeCost::free(),
            ring_order: RingOrder::TopologyAware,
            ring_parallelism: 2,
            tree_depth: 2,
            stage_timeout: DEFAULT_STAGE_TIMEOUT,
            max_task_attempts: DEFAULT_MAX_TASK_ATTEMPTS,
            max_collective_attempts: DEFAULT_MAX_COLLECTIVE_ATTEMPTS,
            collective_recv_timeout: DEFAULT_COLLECTIVE_RECV_TIMEOUT,
            sc_fault: None,
        }
    }

    /// Paper's BIC cluster (Table 1), shrunk by `nodes` and time-scaled.
    ///
    /// `time_scale < 1` is not supported here — pass the factor by which to
    /// *slow* the network so that proportionally smaller messages reproduce
    /// full-size behaviour (see `NetProfile::scaled`). Use `1.0` for
    /// unscaled shaping.
    pub fn bic(nodes: usize, time_scale: f64) -> Self {
        Self {
            nodes,
            executors_per_node: 6,
            cores_per_executor: 4,
            profile: NetProfile::bic().scaled(time_scale),
            bm_costs: BlockManagerCosts::default(),
            cost: SerdeCost::jvm_class().scaled(time_scale),
            ring_order: RingOrder::TopologyAware,
            ring_parallelism: 4,
            tree_depth: 2,
            stage_timeout: DEFAULT_STAGE_TIMEOUT,
            max_task_attempts: DEFAULT_MAX_TASK_ATTEMPTS,
            max_collective_attempts: DEFAULT_MAX_COLLECTIVE_ATTEMPTS,
            collective_recv_timeout: DEFAULT_COLLECTIVE_RECV_TIMEOUT,
            sc_fault: None,
        }
    }

    /// Paper's AWS cluster (Table 1), shrunk by `nodes` and time-scaled.
    pub fn aws(nodes: usize, time_scale: f64) -> Self {
        Self {
            nodes,
            executors_per_node: 12,
            cores_per_executor: 8,
            profile: NetProfile::aws().scaled(time_scale),
            bm_costs: BlockManagerCosts::default(),
            cost: SerdeCost::jvm_class().scaled(time_scale),
            ring_order: RingOrder::TopologyAware,
            ring_parallelism: 4,
            tree_depth: 2,
            stage_timeout: DEFAULT_STAGE_TIMEOUT,
            max_task_attempts: DEFAULT_MAX_TASK_ATTEMPTS,
            max_collective_attempts: DEFAULT_MAX_COLLECTIVE_ATTEMPTS,
            collective_recv_timeout: DEFAULT_COLLECTIVE_RECV_TIMEOUT,
            sc_fault: None,
        }
    }

    /// Total executor count.
    pub fn num_executors(&self) -> usize {
        self.nodes * self.executors_per_node
    }

    /// Total core slots across the cluster.
    pub fn total_cores(&self) -> usize {
        self.num_executors() * self.cores_per_executor
    }

    /// Builder-style override of the ring rank policy.
    pub fn with_ring_order(mut self, order: RingOrder) -> Self {
        self.ring_order = order;
        self
    }

    /// Builder-style override of PDR parallelism.
    pub fn with_ring_parallelism(mut self, p: usize) -> Self {
        assert!(p >= 1);
        self.ring_parallelism = p;
        self
    }

    /// Builder-style override of the serializer model.
    pub fn with_cost(mut self, cost: SerdeCost) -> Self {
        self.cost = cost;
        self
    }

    /// Builder-style override of executor shape (for scaled-down benches).
    pub fn with_shape(mut self, executors_per_node: usize, cores_per_executor: usize) -> Self {
        assert!(executors_per_node >= 1 && cores_per_executor >= 1);
        self.executors_per_node = executors_per_node;
        self.cores_per_executor = cores_per_executor;
        self
    }

    /// Builder-style override of the per-stage-attempt deadline.
    pub fn with_stage_timeout(mut self, timeout: Duration) -> Self {
        self.stage_timeout = timeout;
        self
    }

    /// Builder-style override of the per-task retry budget.
    pub fn with_max_task_attempts(mut self, attempts: u32) -> Self {
        assert!(attempts >= 1);
        self.max_task_attempts = attempts;
        self
    }

    /// Builder-style override of the gang resubmit budget.
    pub fn with_max_collective_attempts(mut self, attempts: u32) -> Self {
        assert!(attempts >= 1);
        self.max_collective_attempts = attempts;
        self
    }

    /// Builder-style override of the collective receive deadline.
    pub fn with_collective_recv_timeout(mut self, timeout: Duration) -> Self {
        self.collective_recv_timeout = timeout;
        self
    }

    /// Builder-style injection of a scalable-communicator fault plan.
    pub fn with_sc_fault(mut self, plan: NetFaultPlan) -> Self {
        self.sc_fault = Some(Arc::new(plan));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_shapes() {
        let bic = ClusterSpec::bic(8, 1.0);
        assert_eq!(bic.num_executors(), 48);
        assert_eq!(bic.total_cores(), 192);
        let aws = ClusterSpec::aws(10, 1.0);
        assert_eq!(aws.num_executors(), 120);
        assert_eq!(aws.total_cores(), 960);
    }

    #[test]
    fn local_spec_is_unshaped_and_free() {
        let s = ClusterSpec::local(4, 2);
        assert_eq!(s.num_executors(), 4);
        assert!(s.profile.inter_node.bandwidth.is_infinite());
        assert!(s.cost.ser_bandwidth.is_infinite());
        assert_eq!(s.bm_costs.control_rpc, std::time::Duration::ZERO);
    }

    #[test]
    fn builders_override() {
        let s = ClusterSpec::local(2, 1)
            .with_ring_parallelism(8)
            .with_shape(3, 5)
            .with_ring_order(RingOrder::ById);
        assert_eq!(s.ring_parallelism, 8);
        assert_eq!(s.num_executors(), 3);
        assert_eq!(s.cores_per_executor, 5);
        assert_eq!(s.ring_order, RingOrder::ById);
    }

    #[test]
    #[should_panic]
    fn zero_parallelism_rejected() {
        ClusterSpec::local(1, 1).with_ring_parallelism(0);
    }
}
