//! DES ground truth for the tuner's algorithm menu.
//!
//! Builds the op-graph of every candidate in [`Algo`] — the
//! same step structure the threaded collectives execute — and runs it
//! through the DES. The tuner's alpha-beta model (DESIGN.md §5j) is a
//! closed-form approximation of exactly these graphs, so this module is
//! where the selector's contract is pinned at paper scale (120 executors /
//! 960 cores, shapes the threaded engine cannot reach): the selected
//! algorithm's simulated reduce-scatter time is never worse than the best
//! static choice by more than the calibrated margin.
//!
//! Like [`crate::aggsim::simulate_reduce_scatter`], only the reduce-scatter
//! phase is simulated — the gather-to-driver tail is common to every
//! algorithm and cancels out of the ranking (the same argument
//! [`CostModel::predict`] makes).

use sparker_collectives::Algo;
use sparker_net::TransportKind;

use crate::aggsim::simulate_reduce_scatter;
use crate::cluster::SimCluster;
use crate::cost::CostModel;
use crate::des::{DesParams, OpGraph, OpId};

/// Simulates one reduce-scatter of `msg_bytes` per executor under `algo`,
/// over `parallelism` PDR channels, topology-aware placement. Returns the
/// virtual wall-clock seconds of the collective.
pub fn simulate_algo(
    cluster: &SimCluster,
    algo: Algo,
    msg_bytes: f64,
    parallelism: usize,
) -> f64 {
    let e = cluster.executors();
    if e <= 1 {
        return 0.0;
    }
    if let Algo::FlatRing | Algo::ChunkedRing(_) = algo {
        return simulate_reduce_scatter(cluster, msg_bytes, parallelism, algo.chunks(), true);
    }
    let params = cluster.des_params(TransportKind::ScalableComm, true);
    let p = parallelism.max(1);
    let all: Vec<usize> = (0..e).collect();
    let mut g = OpGraph::new();
    let finals = match algo {
        Algo::FlatRing | Algo::ChunkedRing(_) => unreachable!("ring arms returned above"),
        Algo::Halving => build_halving(&mut g, cluster, msg_bytes, p),
        Algo::Tree => build_tree(&mut g, cluster, &all, msg_bytes).into_iter().collect(),
        Algo::Hierarchical => build_hierarchical(&mut g, cluster, &params, msg_bytes, p),
    };
    let end = g.barrier(finals);
    let r = g.run(&params);
    r.finish[end]
}

/// Simulated seconds for every candidate, in canonical order — the DES
/// counterpart of [`crate::Selector::rank`].
pub fn simulate_rank(
    cluster: &SimCluster,
    msg_bytes: f64,
    parallelism: usize,
) -> Vec<(Algo, f64)> {
    Algo::candidates()
        .into_iter()
        .map(|a| (a, simulate_algo(cluster, a, msg_bytes, parallelism)))
        .collect()
}

/// The calibrated selector tolerance, as a multiplicative factor, for one
/// job size. Two regimes (EXPERIMENTS.md, "auto-tuned collectives"):
///
/// * **bandwidth regime** (≥ 256 KiB) — the model's terms dominate and the
///   selector must sit within the model's own `margin_permille`;
/// * **latency regime** (< 256 KiB) — every candidate finishes in well
///   under a millisecond and the model's alphas omit per-transfer software
///   overhead, so rankings between near-tied candidates can flip; a wider
///   500‰ tolerance applies where the absolute penalty is immaterial.
pub fn ground_truth_margin(model: &CostModel, msg_bytes: f64) -> f64 {
    const LATENCY_REGIME_BYTES: f64 = 256.0 * 1024.0;
    const LATENCY_REGIME_MARGIN_PERMILLE: f64 = 500.0;
    if msg_bytes >= LATENCY_REGIME_BYTES {
        1.0 + model.margin_permille as f64 / 1000.0
    } else {
        1.0 + LATENCY_REGIME_MARGIN_PERMILLE / 1000.0
    }
}

/// The one P-channel ring reduce-scatter op-graph, over `members` (cluster
/// executor indices in ring order): per channel and pipeline chunk, `N−1`
/// steps in which every member sends `piece` bytes to its successor, which
/// merges them in `merge_t`. `ready(t, r)` is the op member `r`'s first send
/// on channel `t` waits for, if any. `on_xfer(g, src, dst, x)` sees every
/// transfer as it is created and returns the op the merge waits for (the
/// elastic fault plan wraps delays there; [`keep`] is the identity). Returns
/// every chain's last op, channel-major.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_ring(
    g: &mut OpGraph,
    members: &[usize],
    channels: usize,
    chunks: usize,
    piece: f64,
    merge_t: f64,
    ready: impl Fn(usize, usize) -> Option<OpId>,
    mut on_xfer: impl FnMut(&mut OpGraph, usize, usize, OpId) -> OpId,
) -> Vec<OpId> {
    let e = members.len();
    let mut finals = Vec::new();
    for t in 0..channels {
        for _chunk in 0..chunks.max(1) {
            let mut send_ready: Vec<Option<OpId>> = (0..e).map(|r| ready(t, r)).collect();
            for _step in 0..e.saturating_sub(1) {
                let xfers: Vec<OpId> = (0..e)
                    .map(|r| {
                        let (src, dst) = (members[r], members[(r + 1) % e]);
                        let deps = send_ready[r].map(|d| vec![d]).unwrap_or_default();
                        let x = g.xfer(src, dst, t, piece, deps);
                        on_xfer(g, src, dst, x)
                    })
                    .collect();
                for r in 0..e {
                    let from_prev = xfers[(r + e - 1) % e];
                    send_ready[r] = Some(g.compute(members[r], merge_t, vec![from_prev]));
                }
            }
            finals.extend(send_ready.into_iter().flatten());
        }
    }
    finals
}

/// The [`build_ring`] transfer hook that adds nothing.
pub(crate) fn keep(_: &mut OpGraph, _: usize, _: usize, x: OpId) -> OpId {
    x
}

/// Recursive-halving reduce-scatter: `ceil(log2 E)` rounds of pairwise
/// exchanges at distance E/2, E/4, … with halving block sizes. Under
/// packed placement the long-distance rounds cross the NIC with every
/// executor of a node sending at once — the contention the topology-aware
/// ring avoids, and the reason halving loses at scale despite fewer rounds.
fn build_halving(g: &mut OpGraph, cluster: &SimCluster, msg_bytes: f64, p: usize) -> Vec<OpId> {
    let e = cluster.executors();
    let mut finals = Vec::new();
    for t in 0..p {
        let mut cur: Vec<Option<OpId>> = vec![None; e];
        let mut block = (msg_bytes / p as f64) / 2.0;
        let mut d = e.next_power_of_two() / 2;
        while d >= 1 {
            let merge_t = block / cluster.merge_bandwidth;
            let prev = cur.clone();
            for r in 0..e {
                let partner = r ^ d;
                // Ranks whose partner falls off the (non-power-of-two) end
                // sit the round out; both directions are built from `r`.
                if partner >= e || partner < r {
                    continue;
                }
                let deps_r = prev[r].map(|x| vec![x]).unwrap_or_default();
                let deps_p = prev[partner].map(|x| vec![x]).unwrap_or_default();
                let to_partner = g.xfer(r, partner, t, block, deps_r);
                let to_r = g.xfer(partner, r, t, block, deps_p);
                let mut mp = vec![to_partner];
                mp.extend(prev[partner]);
                cur[partner] = Some(g.compute(partner, merge_t, mp));
                let mut mr = vec![to_r];
                mr.extend(prev[r]);
                cur[r] = Some(g.compute(r, merge_t, mr));
            }
            block /= 2.0;
            d /= 2;
        }
        finals.extend(cur.into_iter().flatten());
    }
    finals
}

/// The one binomial-tree op-graph, over `members` (cluster executor
/// indices): whole aggregators, the non-splitting baseline. Every level
/// serializes, ships, deserializes and merges the *entire* value, so the
/// cost per round never shrinks (Figures 1–4's anti-scaling). Returns the
/// root's last op; `None` for a single member.
pub(crate) fn build_tree(
    g: &mut OpGraph,
    cluster: &SimCluster,
    members: &[usize],
    msg_bytes: f64,
) -> Option<OpId> {
    let e = members.len();
    let ser_t = msg_bytes / cluster.ser_bandwidth;
    let deser_merge_t =
        msg_bytes / cluster.deser_bandwidth + msg_bytes / cluster.merge_bandwidth;
    let mut cur: Vec<Option<OpId>> = vec![None; e];
    let mut d = 1;
    while d < e {
        for r in (0..e).step_by(2 * d) {
            let src = r + d;
            if src >= e {
                continue;
            }
            let ser_deps = cur[src].map(|x| vec![x]).unwrap_or_default();
            let ser = g.compute(members[src], ser_t, ser_deps);
            let x = g.xfer(members[src], members[r], 0, msg_bytes, vec![ser]);
            let mut deps = vec![x];
            deps.extend(cur[r]);
            cur[r] = Some(g.compute(members[r], deser_merge_t, deps));
        }
        d *= 2;
    }
    cur[0]
}

/// Two-level hierarchical reduce-scatter: members stream their channel
/// slices to the node leader over shared memory (leader chain-merges), then
/// the leaders alone run the flat ring over `msg/(P·L)` segments — one NIC
/// flow per node, the fewest inter-node steps of the family.
fn build_hierarchical(
    g: &mut OpGraph,
    cluster: &SimCluster,
    params: &DesParams,
    msg_bytes: f64,
    p: usize,
) -> Vec<OpId> {
    // Node groups under the topology-aware placement the params encode.
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); params.nodes];
    for (exec, &node) in params.node_of_executor.iter().enumerate() {
        groups[node].push(exec);
    }
    groups.retain(|m| !m.is_empty());
    let leaders: Vec<usize> = groups.iter().map(|m| m[0]).collect();
    let l = leaders.len();

    // Fold: per channel, each member ships msg/P to its leader.
    let slice = msg_bytes / p as f64;
    let slice_merge_t = slice / cluster.merge_bandwidth;
    let mut leader_ready: Vec<Vec<OpId>> = Vec::with_capacity(l);
    for members in &groups {
        let leader = members[0];
        let mut per_channel = Vec::with_capacity(p);
        for t in 0..p {
            let mut chain: Option<OpId> = None;
            for &m in &members[1..] {
                let x = g.xfer(m, leader, t, slice, vec![]);
                let mut deps = vec![x];
                deps.extend(chain);
                chain = Some(g.compute(leader, slice_merge_t, deps));
            }
            per_channel.push(chain.unwrap_or_else(|| g.barrier(vec![])));
        }
        leader_ready.push(per_channel);
    }

    // Leaders-only ring over msg/(P·L) segments (no steps for one node).
    let seg = msg_bytes / (p * l) as f64;
    let ready = |t: usize, i: usize| Some(leader_ready[i][t]);
    build_ring(g, &leaders, p, 1, seg, seg / cluster.merge_bandwidth, ready, keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JobShape, Selector};

    const KB: f64 = 1024.0;
    const MB: f64 = 1024.0 * 1024.0;

    fn best_static(times: &[(Algo, f64)]) -> (Algo, f64) {
        times
            .iter()
            .copied()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
    }

    fn time_of(times: &[(Algo, f64)], algo: Algo) -> f64 {
        times.iter().find(|(a, _)| *a == algo).unwrap().1
    }

    /// The tuner's pick for every size in `sizes` on cluster `c` is never
    /// worse than the best static choice by more than the calibrated margin.
    fn assert_selector_within_margin(c: &SimCluster, sizes: &[f64]) {
        let model = CostModel::from_profile(&c.profile, c.merge_bandwidth, 150);
        let sel = Selector::new(model);
        let p = 4;
        for &bytes in sizes {
            let shape = JobShape::dense(bytes as u64, c.executors(), c.nodes, p);
            let d = sel.select(&shape);
            let times = simulate_rank(c, bytes, p);
            let (best_algo, best) = best_static(&times);
            let chosen = time_of(&times, d.algo);
            let margin = ground_truth_margin(&model, bytes);
            assert!(
                chosen <= best * margin,
                "{} B: selected {:?} = {chosen:.4}s, best static {best_algo:?} = {best:.4}s \
                 (margin {margin:.2}); table: {times:?}",
                bytes as u64,
                d.algo,
            );
        }
    }

    /// The tentpole's ground truth, at the paper's AWS scale (120 executors
    /// / 960 cores).
    #[test]
    fn selector_within_margin_of_best_static_at_paper_scale() {
        let c = SimCluster::aws();
        assert_eq!(c.executors(), 120);
        assert_eq!(c.total_cores(), 960);
        assert_selector_within_margin(&c, &[KB, 4.0 * KB, 64.0 * KB, 256.0 * KB, MB, 4.0 * MB]);
    }

    /// Same contract on the BIC shape (48 executors / 8 nodes) so the
    /// margin holds on both Table 1 clusters, not just the one it was
    /// eyeballed on.
    #[test]
    fn selector_within_margin_on_bic_cluster() {
        let sizes = [4.0 * KB, 64.0 * KB, 256.0 * KB, MB, 4.0 * MB];
        assert_selector_within_margin(&SimCluster::bic(), &sizes);
    }

    /// The DES agrees with the model's headline claim: two-level beats the
    /// flat ring for large dense aggregators on a multi-node cluster.
    #[test]
    fn hierarchical_beats_flat_ring_at_paper_scale_in_the_des() {
        let c = SimCluster::aws();
        for bytes in [MB, 4.0 * MB] {
            let hier = simulate_algo(&c, Algo::Hierarchical, bytes, 4);
            let flat = simulate_algo(&c, Algo::FlatRing, bytes, 4);
            assert!(
                hier < flat,
                "{} B: hier {hier:.4}s must beat flat ring {flat:.4}s",
                bytes as u64
            );
        }
    }

    /// Whole-aggregator tree is the anti-scaling baseline in the DES too.
    #[test]
    fn tree_is_never_the_best_static_choice_at_scale() {
        let c = SimCluster::aws();
        let times = simulate_rank(&c, 4.0 * MB, 4);
        let (best_algo, _) = best_static(&times);
        assert_ne!(best_algo, Algo::Tree);
        assert!(time_of(&times, Algo::Tree) > 2.0 * best_static(&times).1);
    }

    /// One executor per node: the hierarchical fold is empty and the
    /// leaders' ring *is* the flat ring — times match to DES precision.
    #[test]
    fn hierarchical_degenerates_when_every_rank_is_its_own_node() {
        let c = SimCluster::bic().with_nodes(8).with_executors(1, 4);
        let hier = simulate_algo(&c, Algo::Hierarchical, MB, 2);
        let flat = simulate_algo(&c, Algo::FlatRing, MB, 2);
        let rel = (hier - flat).abs() / flat.max(1e-12);
        assert!(rel < 1e-9, "degenerate hier {hier} vs flat {flat}");
    }

    #[test]
    fn single_executor_is_free() {
        let c = SimCluster::bic().with_nodes(1).with_executors(1, 4);
        for algo in Algo::candidates() {
            assert_eq!(simulate_algo(&c, algo, MB, 4), 0.0);
        }
    }

    #[test]
    fn chunking_overlap_pays_off_only_with_bytes_to_hide() {
        let c = SimCluster::aws();
        // Tiny: nothing to overlap — chunking is a wash (within 1%).
        let flat_small = simulate_algo(&c, Algo::FlatRing, 64.0 * KB, 4);
        let c8_small = simulate_algo(&c, Algo::ChunkedRing(8), 64.0 * KB, 4);
        assert!(
            (c8_small - flat_small).abs() < 0.01 * flat_small,
            "{c8_small} vs {flat_small}"
        );
        // Large: merge hides behind the wire and the ring gets faster.
        let flat_big = simulate_algo(&c, Algo::FlatRing, 4.0 * MB, 4);
        let c8_big = simulate_algo(&c, Algo::ChunkedRing(8), 4.0 * MB, 4);
        assert!(c8_big < flat_big, "{c8_big} vs {flat_big}");
    }
}
