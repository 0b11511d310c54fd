//! Aggregation strategy simulation.
//!
//! Builds the op-DAG of each aggregation strategy — the same step structure
//! the threaded engine executes — and runs it through the DES:
//!
//! * **Tree** — per-partition aggregators; Spark-formula shuffle rounds
//!   (serialize → transfer → deserialize+merge, whole aggregators); final
//!   serial merge at the driver.
//! * **Tree+IMM** — per-executor merge chains replace per-partition objects
//!   before any serialization.
//! * **Split** — IMM, then P-channel ring reduce-scatter over segments of
//!   `bytes / (P·N)`, then a single aggregator's worth of gather + concat at
//!   the driver.
//!
//! The returned [`AggSimResult`] carries the paper's compute/reduce split.

use sparker_net::TransportKind;

use crate::algosim::{build_ring, keep};
use crate::cluster::SimCluster;
use crate::des::{OpGraph, OpId, DRIVER};

/// Aggregation strategy to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    Tree,
    TreeImm,
    Split { parallelism: usize, topology_aware: bool },
    /// Extension: ring reduce-scatter + allgather; the reduced value stays
    /// resident on every executor, the driver receives one copy.
    SplitAllReduce { parallelism: usize, topology_aware: bool },
}

impl Strategy {
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Tree => "tree",
            Strategy::TreeImm => "tree+imm",
            Strategy::Split { .. } => "split",
            Strategy::SplitAllReduce { .. } => "split+allreduce",
        }
    }
}

/// Simulated aggregation outcome.
#[derive(Debug, Clone, Copy)]
pub struct AggSimResult {
    /// Compute-stage time (paper: "Agg-compute").
    pub compute: f64,
    /// Reduction time (paper: "Agg-reduce").
    pub reduce: f64,
}

impl AggSimResult {
    pub fn total(&self) -> f64 {
        self.compute + self.reduce
    }
}

/// Builds the compute stage: `partitions` tasks round-robin over executors,
/// each `compute_secs`; with `imm`, results chain-merge into one value per
/// executor. Returns (per-executor "value ready" op, stage barrier).
fn build_compute_stage(
    g: &mut OpGraph,
    cluster: &SimCluster,
    partitions: usize,
    compute_secs: f64,
    agg_bytes: f64,
    imm: bool,
) -> (Vec<Vec<OpId>>, OpId) {
    let e = cluster.executors();
    let merge_t = agg_bytes / cluster.merge_bandwidth;
    let mut per_exec_values: Vec<Vec<OpId>> = vec![Vec::new(); e];
    let mut imm_chain: Vec<Option<OpId>> = vec![None; e];
    for p in 0..partitions {
        let exec = p % e;
        let task = g.compute(exec, compute_secs, vec![]);
        if imm {
            let dep = match imm_chain[exec] {
                None => task,
                Some(prev) => g.compute(exec, merge_t, vec![task, prev]),
            };
            imm_chain[exec] = Some(dep);
        } else {
            per_exec_values[exec].push(task);
        }
    }
    if imm {
        for (exec, chain) in imm_chain.into_iter().enumerate() {
            if let Some(op) = chain {
                per_exec_values[exec].push(op);
            }
        }
    }
    let all: Vec<OpId> = per_exec_values.iter().flatten().copied().collect();
    let barrier = g.barrier(all);
    (per_exec_values, barrier)
}

/// Spark's tree-aggregation scale factor for depth 2.
fn tree_scale(partitions: usize) -> usize {
    ((partitions as f64).sqrt().ceil() as usize).max(2)
}

/// Simulates one aggregation of `agg_bytes` over `partitions` partitions,
/// where building each partition's aggregator takes `compute_secs`.
pub fn simulate_aggregation(
    cluster: &SimCluster,
    strategy: Strategy,
    agg_bytes: f64,
    partitions: usize,
    compute_secs: f64,
) -> AggSimResult {
    assert!(partitions >= 1);
    let e = cluster.executors();
    let ser_t = agg_bytes / cluster.ser_bandwidth;
    let deser_t = agg_bytes / cluster.deser_bandwidth;
    let merge_t = agg_bytes / cluster.merge_bandwidth;
    let control = cluster.bm_control_latency;

    match strategy {
        Strategy::Tree | Strategy::TreeImm => {
            let imm = strategy == Strategy::TreeImm;
            let params = cluster.des_params(TransportKind::MpiRef, true);
            let mut g = OpGraph::new();
            let (per_exec, barrier) =
                build_compute_stage(&mut g, cluster, partitions, compute_secs, agg_bytes, imm);

            // Holder list: (executor, op producing its value).
            let mut holders: Vec<(usize, OpId)> = per_exec
                .iter()
                .enumerate()
                .flat_map(|(exec, ops)| ops.iter().map(move |&op| (exec, op)))
                .collect();

            let scale = tree_scale(partitions);
            while holders.len() > scale + holders.len() / scale {
                let m = (holders.len() / scale).max(1);
                // Spark's hash partitioner spreads reducers roughly uniformly
                // over the cluster; stride the target executors so they do
                // not pile onto one node.
                let stride = (e / m.min(e)).max(1);
                let dst_of = |j: usize| (j * stride) % e;
                // Merge chains per target slot.
                let mut target_chain: Vec<Option<OpId>> = vec![None; m];
                for (i, (src, value)) in holders.iter().enumerate() {
                    let j = i % m;
                    let dst = dst_of(j);
                    let ser = g.compute(*src, ser_t, vec![*value]);
                    let x = g.xfer(*src, dst, 0, agg_bytes, vec![ser]);
                    // Control RPCs pipeline across fetches; only the
                    // deserialize+merge occupies the reducer's core.
                    let fetched = g.delay(control, vec![x]);
                    let mut deps = vec![fetched];
                    if let Some(prev) = target_chain[j] {
                        deps.push(prev);
                    }
                    let merge = g.compute(dst, deser_t + merge_t, deps);
                    target_chain[j] = Some(merge);
                }
                holders = target_chain
                    .into_iter()
                    .enumerate()
                    .map(|(j, op)| (dst_of(j), op.expect("target produced")))
                    .collect();
            }

            // Final: remaining aggregators to the driver, merged serially.
            let mut last = barrier;
            for (src, value) in &holders {
                let ser = g.compute(*src, ser_t, vec![*value]);
                let x = g.xfer(*src, DRIVER, 0, agg_bytes, vec![ser]);
                let fetched = g.delay(control, vec![x]);
                last = g.driver(deser_t + merge_t, vec![fetched]);
            }
            let r = g.run(&params);
            let compute = r.finish[barrier];
            AggSimResult { compute, reduce: r.finish[last] - compute }
        }
        #[allow(clippy::needless_range_loop)]
        Strategy::Split { parallelism, topology_aware }
        | Strategy::SplitAllReduce { parallelism, topology_aware } => {
            let allreduce = matches!(strategy, Strategy::SplitAllReduce { .. });
            let params = cluster.des_params(TransportKind::ScalableComm, topology_aware);
            let mut g = OpGraph::new();
            // Split aggregation always computes with IMM.
            let (per_exec, barrier) =
                build_compute_stage(&mut g, cluster, partitions, compute_secs, agg_bytes, true);
            let value_of: Vec<OpId> = per_exec
                .iter()
                .map(|ops| ops.last().copied().unwrap_or(barrier))
                .collect();

            let p = parallelism.max(1);
            let seg_bytes = agg_bytes / (p * e) as f64;
            // Parallel split on P cores.
            let split_t = (agg_bytes / p as f64) / cluster.merge_bandwidth;
            let splits: Vec<Vec<OpId>> = (0..e)
                .map(|exec| {
                    (0..p)
                        .map(|_| g.compute(exec, split_t, vec![value_of[exec], barrier]))
                        .collect()
                })
                .collect();

            // Ring reduce-scatter per channel, each rank's first send after
            // its split; a single executor has no steps and keeps its split.
            let all: Vec<usize> = (0..e).collect();
            let seg_merge_t = seg_bytes / cluster.merge_bandwidth;
            let ready = |t: usize, r: usize| Some(splits[r][t]);
            let finals = build_ring(&mut g, &all, p, 1, seg_bytes, seg_merge_t, ready, keep);
            let last_merge: Vec<Vec<OpId>> =
                (0..e).map(|r| (0..p).map(|t| finals[t * e + r]).collect()).collect();

            let concat = if allreduce {
                // Allgather: N-1 forwarding steps per channel; each step
                // moves one owned block (seg_bytes) along the ring.
                let mut hold: Vec<OpId> = (0..e)
                    .map(|r| g.barrier(last_merge[r].clone()))
                    .collect();
                if e > 1 {
                    for t in 0..p {
                        let mut cur = hold.clone();
                        for _step in 0..e - 1 {
                            let xfers: Vec<OpId> = (0..e)
                                .map(|r| g.xfer(r, (r + 1) % e, t, seg_bytes, vec![cur[r]]))
                                .collect();
                            for r in 0..e {
                                cur[r] = xfers[(r + e - 1) % e];
                            }
                        }
                        for r in 0..e {
                            hold[r] = g.barrier(vec![hold[r], cur[r]]);
                        }
                    }
                }
                // Executor-side concat (memcpy) everywhere, in parallel.
                let concats: Vec<OpId> =
                    (0..e).map(|r| g.compute(r, merge_t, vec![hold[r]])).collect();
                // One executor reports a single copy to the driver.
                let ser = g.compute(0, agg_bytes / cluster.ser_bandwidth, vec![concats[0]]);
                let x = g.xfer(0, DRIVER, 0, agg_bytes, vec![ser]);
                let fetched = g.delay(control, vec![x]);
                let report = g.driver(agg_bytes / cluster.deser_bandwidth, vec![fetched]);
                let mut all = concats;
                all.push(report);
                g.barrier(all)
            } else {
                // Gather: each executor ships its owned 1/E of the aggregator.
                let owned_bytes = agg_bytes / e as f64;
                let mut driver_ops = Vec::with_capacity(e);
                for r in 0..e {
                    let ser =
                        g.compute(r, owned_bytes / cluster.ser_bandwidth, last_merge[r].clone());
                    let x = g.xfer(r, DRIVER, 0, owned_bytes, vec![ser]);
                    let fetched = g.delay(control, vec![x]);
                    driver_ops.push(g.driver(owned_bytes / cluster.deser_bandwidth, vec![fetched]));
                }
                // concatOp: one aggregator-sized memcpy at the driver.
                g.driver(merge_t, driver_ops)
            };

            let r = g.run(&params);
            let compute = r.finish[barrier];
            AggSimResult { compute, reduce: r.finish[concat] - compute }
        }
    }
}

/// Simulates just the ring reduce-scatter (Figures 14–15): `executors`
/// ranks, one `msg_bytes` aggregator each, pre-split, no gather. With
/// `chunks > 1` each segment is cut into pieces that ride the same stream,
/// so one piece merges while the next is on the wire.
pub fn simulate_reduce_scatter(
    cluster: &SimCluster,
    msg_bytes: f64,
    parallelism: usize,
    chunks: usize,
    topology_aware: bool,
) -> f64 {
    let e = cluster.executors();
    if e <= 1 {
        return 0.0;
    }
    let params = cluster.des_params(TransportKind::ScalableComm, topology_aware);
    let p = parallelism.max(1);
    let seg_bytes = msg_bytes / (p * e * chunks) as f64;
    let all: Vec<usize> = (0..e).collect();
    let mut g = OpGraph::new();
    let merge_t = seg_bytes / cluster.merge_bandwidth;
    let finals = build_ring(&mut g, &all, p, chunks, seg_bytes, merge_t, |_, _| None, keep);
    let end = g.barrier(finals);
    let r = g.run(&params);
    r.finish[end]
}

/// Closed-form MPI reduce-scatter reference (Figure 15): MPICH's pairwise
/// exchange — `E−1` rounds of `msg/E`-sized exchanges at full wire speed.
/// Latency-dominated at small sizes, which is why it scales *worse* than
/// the topology-aware ring (the paper observes exactly this).
pub fn mpi_reduce_scatter(cluster: &SimCluster, msg_bytes: f64) -> f64 {
    let e = cluster.executors();
    if e <= 1 {
        return 0.0;
    }
    let lat = cluster.profile.inter_node.latency.as_secs_f64();
    let seg = msg_bytes / e as f64;
    let bw = cluster.profile.mpi_bandwidth;
    let merge_bw = cluster.merge_bandwidth * 2.0; // native merge, no JVM
    (e - 1) as f64 * (lat + seg / bw + seg / merge_bw)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: f64 = 1024.0 * 1024.0;
    const SPLIT: Strategy = Strategy::Split { parallelism: 4, topology_aware: true };

    fn bic(nodes: usize) -> SimCluster {
        SimCluster::bic().with_nodes(nodes)
    }

    #[test]
    fn split_beats_tree_for_large_aggregators() {
        let c = bic(8);
        let bytes = 256.0 * MB;
        let tree = simulate_aggregation(&c, Strategy::Tree, bytes, 192, 0.1);
        let split = simulate_aggregation(&c, SPLIT, bytes, 192, 0.1);
        let speedup = tree.total() / split.total();
        assert!(
            speedup > 3.0,
            "paper: ~6.5x at 256MB/8 nodes; simulated {speedup:.2}x (tree {:.2}s split {:.2}s)",
            tree.total(),
            split.total()
        );
    }

    #[test]
    fn all_strategies_similar_for_tiny_aggregators() {
        let c = bic(8);
        let bytes = 1024.0;
        let tree = simulate_aggregation(&c, Strategy::Tree, bytes, 192, 0.01).total();
        let split = simulate_aggregation(&c, SPLIT, bytes, 192, 0.01)
        .total();
        let ratio = tree / split;
        assert!((0.3..3.0).contains(&ratio), "1KB messages should be a wash: {ratio}");
    }

    #[test]
    fn tree_reduction_grows_with_nodes_split_stays_flat() {
        let bytes = 256.0 * MB;
        let tree_1 = simulate_aggregation(&bic(1), Strategy::Tree, bytes, 24, 0.1).reduce;
        let tree_8 = simulate_aggregation(&bic(8), Strategy::Tree, bytes, 192, 0.1).reduce;
        let split_1 = simulate_aggregation(&bic(1), SPLIT, bytes, 24, 0.1).reduce;
        let split_8 = simulate_aggregation(&bic(8), SPLIT, bytes, 192, 0.1).reduce;
        assert!(tree_8 > tree_1 * 1.2, "tree reduce must grow: {tree_1} -> {tree_8}");
        assert!(
            split_8 < split_1 * 1.6,
            "split reduce should stay near-flat: {split_1} -> {split_8}"
        );
    }

    #[test]
    fn imm_helps_tree_at_large_sizes() {
        let c = bic(8);
        let bytes = 256.0 * MB;
        let tree = simulate_aggregation(&c, Strategy::Tree, bytes, 192, 0.1).total();
        let imm = simulate_aggregation(&c, Strategy::TreeImm, bytes, 192, 0.1).total();
        let speedup = tree / imm;
        assert!((1.1..3.0).contains(&speedup), "paper: 1.46x; simulated {speedup:.2}x");
    }

    #[test]
    fn parallelism_speeds_up_reduce_scatter() {
        let c = SimCluster::bic(); // 48 executors, 8 nodes (paper Fig 14)
        let t1 = simulate_reduce_scatter(&c, 256.0 * MB, 1, 1, true);
        let t8 = simulate_reduce_scatter(&c, 256.0 * MB, 8, 1, true);
        let speedup = t1 / t8;
        assert!((2.0..4.5).contains(&speedup), "paper: 3.06x; simulated {speedup:.2}x");
    }

    #[test]
    fn topology_awareness_speeds_up_reduce_scatter() {
        let c = SimCluster::bic();
        let aware = simulate_reduce_scatter(&c, 256.0 * MB, 4, 1, true);
        let unaware = simulate_reduce_scatter(&c, 256.0 * MB, 4, 1, false);
        let speedup = unaware / aware;
        // Paper: 2.76x. The store-and-forward NIC model over-penalizes the
        // unaware ring somewhat (real TCP flows interleave), so accept a
        // wider band on the high side.
        assert!((1.8..7.0).contains(&speedup), "paper: 2.76x; simulated {speedup:.2}x");
    }

    #[test]
    fn small_message_reduce_scatter_is_latency_bound() {
        // 256KB: time grows ~linearly with executor count (paper Fig 15).
        // The paper's sweep spreads executors over the fixed 8-node cluster.
        let t6 = simulate_reduce_scatter(&SimCluster::bic().with_total_executors(6), 256.0 * 1024.0, 4, 1, true);
        let t48 = simulate_reduce_scatter(&SimCluster::bic(), 256.0 * 1024.0, 4, 1, true);
        let ratio = t48 / t6;
        assert!((3.0..12.0).contains(&ratio), "paper: 5.3x; simulated {ratio:.2}x");
    }

    #[test]
    fn large_message_reduce_scatter_is_nearly_flat() {
        let t6 = simulate_reduce_scatter(&SimCluster::bic().with_total_executors(6), 256.0 * MB, 4, 1, true);
        let t48 = simulate_reduce_scatter(&SimCluster::bic(), 256.0 * MB, 4, 1, true);
        let ratio = t48 / t6;
        assert!(ratio < 2.2, "paper: 1.27x; simulated {ratio:.2}x");
    }

    #[test]
    fn mpi_reference_scales_linearly() {
        let small = 256.0 * 1024.0;
        let m6 = mpi_reduce_scatter(&SimCluster::bic().with_total_executors(6), small);
        let m48 = mpi_reduce_scatter(&SimCluster::bic(), small);
        assert!(m48 / m6 > 2.5, "pairwise exchange is latency-linear: {}", m48 / m6);
    }

    #[test]
    fn allreduce_strategy_pays_the_allgather_but_stays_ring_class() {
        let c = bic(8);
        let bytes = 256.0 * MB;
        let split = simulate_aggregation(&c, SPLIT, bytes, 192, 0.1);
        let allred = simulate_aggregation(
            &c,
            Strategy::SplitAllReduce { parallelism: 4, topology_aware: true },
            bytes,
            192,
            0.1,
        );
        // Allgather roughly doubles ring traffic: reduce grows, but stays
        // far below tree aggregation.
        assert!(allred.reduce >= split.reduce * 0.9, "{} vs {}", allred.reduce, split.reduce);
        assert!(allred.reduce < split.reduce * 4.0, "{} vs {}", allred.reduce, split.reduce);
        let tree = simulate_aggregation(&c, Strategy::Tree, bytes, 192, 0.1);
        assert!(allred.total() < tree.total() / 2.0);
        assert_eq!(
            Strategy::SplitAllReduce { parallelism: 4, topology_aware: true }.name(),
            "split+allreduce"
        );
    }

    #[test]
    fn allreduce_training_removes_broadcast_and_model_update_from_driver() {
        use crate::mlrun::simulate_training;
        use crate::workloads::by_name;
        let w = by_name("LDA-N").unwrap();
        let c = crate::cluster::SimCluster::aws();
        let split = simulate_training(
            &c,
            &w,
            Strategy::Split { parallelism: 4, topology_aware: true },
            Some(15),
        );
        let allred = simulate_training(
            &c,
            &w,
            Strategy::SplitAllReduce { parallelism: 4, topology_aware: true },
            Some(15),
        );
        assert!(allred.driver < split.driver, "{} vs {}", allred.driver, split.driver);
        assert!(allred.non_agg < split.non_agg, "{} vs {}", allred.non_agg, split.non_agg);
    }

    #[test]
    fn single_executor_degenerates_gracefully() {
        let c = SimCluster::bic().with_nodes(1).with_executors(1, 4);
        let r = simulate_aggregation(&c, SPLIT, MB, 4, 0.05);
        assert!(r.compute > 0.0 && r.reduce >= 0.0);
        assert_eq!(simulate_reduce_scatter(&c, MB, 4, 1, true), 0.0);
    }
}
