//! Elastic and fault scenarios in the DES — the experiments the paper
//! never ran.
//!
//! The live cluster already survives all of this (PR 7's chaos tests), but
//! only at chaos-test scale. This module re-runs the same failure modes at
//! *paper* scale (120 executors / 960 cores) by replaying
//! [`sparker_net::fault::NetFaultPlan`] schedules inside the op-graph
//! simulator: the exact plan type the live `FaultyTransport` executes is
//! consulted read-only while the ring graph is built, so a scenario is
//! described once and runs against either engine.
//!
//! Conventions shared with the live transport:
//!
//! * fault-plan executor ids are DES executor indices (`ExecutorId(r)`);
//! * the send sequence on a directed link is 0-based and counted across
//!   all channels, in the order the collective emits transfers (channel
//!   0's rounds first — the same order the threaded engine opens streams);
//! * one-shot faults are consumed: a retry attempt replays the *remaining*
//!   schedule, so re-formed rings run clean unless the plan says otherwise.
//!
//! Failure handling is modeled with three timing constants
//! ([`ElasticTimings`]) mirroring the live stack's knobs: a receive
//! `deadline` (epoch-fenced retry for lost frames), a heartbeat
//! `suspicion` window (silence past it declares a peer dead), and the
//! driver's `view_change` cost (epoch bump + survivor ring re-formation).
//! Detection anchors on the DES time the faulted transfer *would* have
//! completed — the moment the receiver starts waiting in vain.

use std::collections::HashMap;
use std::time::Duration;

use sparker_net::fault::NetFaultPlan;
use sparker_net::profile::TransportKind;
use sparker_net::topology::ExecutorId;

use crate::aggsim::{des_params_for, simulate_aggregation, Strategy};
use crate::algosim::{build_ring, build_tree};
use crate::cluster::SimCluster;
use crate::des::{OpGraph, OpId};

/// Failure-handling timing constants, in DES virtual seconds. Defaults are
/// the live stack's knobs scaled to simulation time: detection must cost
/// something (otherwise recovery looks free) but not dominate every run.
#[derive(Debug, Clone, Copy)]
pub struct ElasticTimings {
    /// Heartbeat suspicion window: a peer silent this long is declared dead.
    pub suspicion: f64,
    /// Driver view change: epoch bump + survivor ring re-formation.
    pub view_change: f64,
    /// Per-transfer receive deadline before an epoch-fenced retry.
    pub deadline: f64,
}

impl Default for ElasticTimings {
    fn default() -> Self {
        Self { suspicion: 0.5, view_change: 0.05, deadline: 0.25 }
    }
}

/// Outcome of the executor-leave scenario.
#[derive(Debug, Clone, Copy)]
pub struct LeaveOutcome {
    /// Fault-free collective over all `E` members.
    pub clean_secs: f64,
    /// Time at which the survivors know the victim is dead.
    pub detect_secs: f64,
    /// Re-formed ring over the `E-1` survivors.
    pub survivor_secs: f64,
    /// The naive fallback: whole-aggregator binomial tree over survivors.
    pub tree_fallback_secs: f64,
    /// detect + view change + survivor ring.
    pub total_secs: f64,
}

/// Outcome of the executor-join scenario (admission at a job boundary).
#[derive(Debug, Clone, Copy)]
pub struct JoinOutcome {
    /// Iteration time before the joiners are admitted.
    pub before_secs: f64,
    /// Admission cost (epoch bump; joiners warm up off the critical path).
    pub admit_secs: f64,
    /// Iteration time once the ring includes the joiners.
    pub after_secs: f64,
}

/// Clean-vs-faulted pair for perturbation scenarios (straggler, flap).
#[derive(Debug, Clone, Copy)]
pub struct PerturbOutcome {
    pub clean_secs: f64,
    pub faulted_secs: f64,
    /// Total virtual seconds of delay the plan injected.
    pub injected_secs: f64,
}

impl PerturbOutcome {
    pub fn overhead_secs(&self) -> f64 {
        self.faulted_secs - self.clean_secs
    }
}

/// Outcome of the lost-frame scenario: detection + epoch-fenced re-run.
#[derive(Debug, Clone, Copy)]
pub struct RetryOutcome {
    pub clean_secs: f64,
    /// Time the receiver's deadline fires on the missing frame.
    pub detect_secs: f64,
    /// detect + full retry under the next epoch.
    pub total_secs: f64,
}

/// A transfer the plan faults, with how long after its would-be completion
/// the failure becomes known.
struct FaultEvent {
    op: OpId,
    detect_after: f64,
}

/// Builds a P-channel flat-ring reduce-scatter over `members` (cluster
/// executor indices), consulting `plan` per (link, seq): delays wrap the
/// transfer in an extra latency op; drops, corruptions, kills and
/// partitions are recorded as [`FaultEvent`]s (the op stays in the graph —
/// its finish time anchors detection).
fn ring_with_plan(
    g: &mut OpGraph,
    cluster: &SimCluster,
    members: &[usize],
    msg_bytes: f64,
    p: usize,
    plan: &NetFaultPlan,
    timings: &ElasticTimings,
) -> (Vec<OpId>, Vec<FaultEvent>) {
    let e = members.len();
    assert!(e >= 2, "a ring needs at least two members");
    let piece = msg_bytes / (p * e) as f64;
    let merge_t = piece / cluster.merge_bandwidth;
    let mut link_seq: HashMap<(usize, usize), u64> = HashMap::new();
    let mut sent_by: HashMap<usize, u64> = HashMap::new();
    let mut faults = Vec::new();
    let on_xfer = |g: &mut OpGraph, src: usize, dst: usize, mut x: OpId| {
        let (sid, did) = (ExecutorId(src as u32), ExecutorId(dst as u32));
        let seq = {
            let c = link_seq.entry((src, dst)).or_insert(0);
            *c += 1;
            *c - 1
        };
        let nth_send = {
            let c = sent_by.entry(src).or_insert(0);
            *c += 1;
            *c - 1
        };
        if let Some(d) = plan.delay_of_nth(sid, did, seq) {
            x = g.delay(d.as_secs_f64(), vec![x]);
        }
        if plan.drops_nth(sid, did, seq) {
            faults.push(FaultEvent { op: x, detect_after: timings.deadline });
        } else if plan.corrupts_nth(sid, did, seq) {
            // Checksums catch corruption at delivery time.
            faults.push(FaultEvent { op: x, detect_after: 0.0 });
        }
        if plan.kill_threshold(sid).is_some_and(|k| nth_send >= k) {
            faults.push(FaultEvent { op: x, detect_after: timings.suspicion });
        }
        x
    };
    let finals = build_ring(g, members, p, 1, piece, merge_t, |_, _| None, on_xfer);
    (finals, faults)
}

/// Runs one ring attempt; returns `(makespan, earliest detection time)`.
/// Detection is `None` when the plan faulted nothing this attempt.
fn run_ring_attempt(
    cluster: &SimCluster,
    members: &[usize],
    msg_bytes: f64,
    p: usize,
    plan: &NetFaultPlan,
    timings: &ElasticTimings,
) -> (f64, Option<f64>) {
    let params = des_params_for(cluster, TransportKind::ScalableComm, true);
    let mut g = OpGraph::new();
    let (finals, faults) = ring_with_plan(&mut g, cluster, members, msg_bytes, p, plan, timings);
    let end = g.barrier(finals);
    let r = g.run(&params);
    let detect = faults
        .iter()
        .map(|f| r.finish[f.op] + f.detect_after)
        .min_by(|a, b| a.partial_cmp(b).expect("NaN in detection time"));
    (r.finish[end], detect)
}

/// Whole-aggregator binomial tree over `members` — the naive fallback a
/// non-elastic engine would take after losing a ring member.
fn tree_fallback_secs(cluster: &SimCluster, members: &[usize], msg_bytes: f64) -> f64 {
    let params = des_params_for(cluster, TransportKind::ScalableComm, true);
    let mut g = OpGraph::new();
    match build_tree(&mut g, cluster, members, msg_bytes) {
        Some(root) => g.run(&params).finish[root],
        None => 0.0,
    }
}

/// An executor dies mid-collective (`kill_after_sends` frames in): the ring
/// stalls, heartbeats go silent, the driver fences the epoch and the
/// survivors re-form the ring and re-run — the elastic path PR 7 exercises
/// live, here at paper scale. Also prices the naive alternative (tree over
/// survivors) so the scenario asserts re-formation is *worth it*, not just
/// possible.
pub fn simulate_executor_leave(
    cluster: &SimCluster,
    msg_bytes: f64,
    parallelism: usize,
    victim: usize,
    kill_after_sends: u64,
    timings: &ElasticTimings,
) -> LeaveOutcome {
    let e = cluster.executors();
    assert!(e >= 3 && victim < e, "need >=3 executors and a valid victim");
    let p = parallelism.max(1);
    let members: Vec<usize> = (0..e).collect();
    let (clean_secs, _) =
        run_ring_attempt(cluster, &members, msg_bytes, p, &NetFaultPlan::new(), timings);

    let plan = NetFaultPlan::new().kill_after_sends(ExecutorId(victim as u32), kill_after_sends);
    let (_, detect) = run_ring_attempt(cluster, &members, msg_bytes, p, &plan, timings);
    let detect_secs = detect.expect("kill threshold below total sends must fire");

    // Survivors re-form the ring; the victim sends nothing, so the same
    // plan replays clean (its remaining schedule only concerns the dead).
    let survivors: Vec<usize> = (0..e).filter(|&r| r != victim).collect();
    let (survivor_secs, none) =
        run_ring_attempt(cluster, &survivors, msg_bytes, p, &plan, timings);
    assert!(none.is_none(), "survivor ring must run clean");

    LeaveOutcome {
        clean_secs,
        detect_secs,
        survivor_secs,
        tree_fallback_secs: tree_fallback_secs(cluster, &survivors, msg_bytes),
        total_secs: detect_secs + timings.view_change + survivor_secs,
    }
}

/// A node's worth of executors joins at a job boundary: iteration `k` runs
/// on the shrunken cluster, the driver admits the joiners (epoch bump),
/// iteration `k+1` runs on the full ring. Partition count is fixed at the
/// full cluster's default, so the work is conserved and the join shows up
/// as compute-stage scaling.
pub fn simulate_executor_join(
    cluster: &SimCluster,
    agg_bytes: f64,
    compute_secs: f64,
    timings: &ElasticTimings,
) -> JoinOutcome {
    let e = cluster.executors();
    let joiners = cluster.executors_per_node.min(e.saturating_sub(2)).max(1);
    let partitions = 2 * cluster.total_cores();
    let strategy = Strategy::Split { parallelism: 4, topology_aware: true };
    let before = simulate_aggregation(
        &cluster.clone().with_total_executors(e - joiners),
        strategy,
        agg_bytes,
        partitions,
        compute_secs,
    );
    let after = simulate_aggregation(cluster, strategy, agg_bytes, partitions, compute_secs);
    JoinOutcome {
        before_secs: before.total(),
        admit_secs: timings.view_change,
        after_secs: after.total(),
    }
}

/// SIGSTOP-style straggler: `victim` freezes for `pause` right as the
/// collective starts, so every channel's first frame out of it is held.
/// The ring is synchronous — the stall should surface as ~`pause` of
/// end-to-end overhead, no more (no cascade), no less (no hiding).
pub fn simulate_straggler(
    cluster: &SimCluster,
    msg_bytes: f64,
    parallelism: usize,
    victim: usize,
    pause: Duration,
) -> PerturbOutcome {
    let e = cluster.executors();
    assert!(e >= 2 && victim < e);
    let p = parallelism.max(1);
    let timings = ElasticTimings::default();
    let members: Vec<usize> = (0..e).collect();
    let succ = ExecutorId(((victim + 1) % e) as u32);
    let vid = ExecutorId(victim as u32);
    // Link seqs count across channels in emission order: channel t's first
    // frame on the victim's egress link is seq t*(e-1).
    let mut plan = NetFaultPlan::new();
    for t in 0..p as u64 {
        plan = plan.delay_nth(vid, succ, t * (e as u64 - 1), pause);
    }
    let (clean_secs, _) =
        run_ring_attempt(cluster, &members, msg_bytes, p, &NetFaultPlan::new(), &timings);
    let (faulted_secs, _) = run_ring_attempt(cluster, &members, msg_bytes, p, &plan, &timings);
    PerturbOutcome { clean_secs, faulted_secs, injected_secs: pause.as_secs_f64() }
}

/// Flapping link: the first `flaps` frames on one directed link each queue
/// behind a `per_send_delay` redial. Delays ride the dependency chain, so
/// total overhead is bounded by the injected total — the assertion that
/// the DES does not amplify link jitter.
pub fn simulate_flapping_link(
    cluster: &SimCluster,
    msg_bytes: f64,
    parallelism: usize,
    from: usize,
    per_send_delay: Duration,
    flaps: u64,
) -> PerturbOutcome {
    let e = cluster.executors();
    assert!(e >= 2 && from < e);
    let p = parallelism.max(1);
    let timings = ElasticTimings::default();
    let members: Vec<usize> = (0..e).collect();
    let (fid, tid) = (ExecutorId(from as u32), ExecutorId(((from + 1) % e) as u32));
    let mut plan = NetFaultPlan::new();
    for n in 0..flaps {
        plan = plan.delay_nth(fid, tid, n, per_send_delay);
    }
    let (clean_secs, _) =
        run_ring_attempt(cluster, &members, msg_bytes, p, &NetFaultPlan::new(), &timings);
    let (faulted_secs, _) = run_ring_attempt(cluster, &members, msg_bytes, p, &plan, &timings);
    PerturbOutcome {
        clean_secs,
        faulted_secs,
        injected_secs: flaps as f64 * per_send_delay.as_secs_f64(),
    }
}

/// One frame vanishes on the wire: the receiver's deadline fires, the
/// driver fences the epoch, and the whole collective re-runs (the dropped
/// frame was one-shot — the retry replays the remaining, empty schedule).
pub fn simulate_dropped_frame(
    cluster: &SimCluster,
    msg_bytes: f64,
    parallelism: usize,
    from: usize,
    seq: u64,
    timings: &ElasticTimings,
) -> RetryOutcome {
    let e = cluster.executors();
    assert!(e >= 2 && from < e);
    let p = parallelism.max(1);
    let members: Vec<usize> = (0..e).collect();
    let (fid, tid) = (ExecutorId(from as u32), ExecutorId(((from + 1) % e) as u32));
    let plan = NetFaultPlan::new().drop_nth(fid, tid, seq);
    let (clean_secs, _) =
        run_ring_attempt(cluster, &members, msg_bytes, p, &NetFaultPlan::new(), timings);
    let (_, detect) = run_ring_attempt(cluster, &members, msg_bytes, p, &plan, timings);
    let detect_secs = detect.expect("in-range drop seq must fire");
    RetryOutcome {
        clean_secs,
        detect_secs,
        total_secs: detect_secs + timings.view_change + clean_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: f64 = 1024.0 * 1024.0;

    fn small() -> SimCluster {
        SimCluster::bic().with_nodes(2) // 12 executors, plenty for structure
    }

    #[test]
    fn leave_detects_then_recovers_on_survivor_ring() {
        let c = small();
        let t = ElasticTimings::default();
        let o = simulate_executor_leave(&c, 4.0 * MB, 2, 3, 5, &t);
        assert!(o.detect_secs >= t.suspicion, "detection includes the silence window");
        assert!(o.survivor_secs > 0.0 && o.clean_secs > 0.0);
        assert!(
            o.total_secs > o.clean_secs,
            "recovery is never free: {} vs {}",
            o.total_secs,
            o.clean_secs
        );
        assert!(
            o.tree_fallback_secs > o.survivor_secs,
            "re-formed ring must beat the tree fallback: tree {} vs ring {}",
            o.tree_fallback_secs,
            o.survivor_secs
        );
    }

    #[test]
    fn join_at_boundary_speeds_the_next_iteration() {
        let c = small();
        let o = simulate_executor_join(&c, 16.0 * MB, 0.05, &ElasticTimings::default());
        assert!(
            o.before_secs > o.after_secs,
            "a node's worth of compute must help: {} vs {}",
            o.before_secs,
            o.after_secs
        );
        assert!(o.admit_secs > 0.0);
    }

    #[test]
    fn straggler_pause_surfaces_as_comparable_overhead() {
        let c = small();
        let pause = Duration::from_millis(400);
        let o = simulate_straggler(&c, 4.0 * MB, 2, 5, pause);
        let overhead = o.overhead_secs();
        assert!(
            overhead > 0.5 * pause.as_secs_f64() && overhead < 1.5 * pause.as_secs_f64(),
            "pause {:?} -> overhead {overhead}s (clean {}s)",
            pause,
            o.clean_secs
        );
    }

    #[test]
    fn flapping_link_overhead_is_bounded_by_injected_delay() {
        let c = small();
        let o = simulate_flapping_link(&c, 4.0 * MB, 2, 1, Duration::from_millis(20), 5);
        let overhead = o.overhead_secs();
        assert!(overhead >= 0.0);
        assert!(
            overhead <= o.injected_secs * 1.05 + 1e-9,
            "no amplification: {overhead}s vs injected {}s",
            o.injected_secs
        );
    }

    #[test]
    fn dropped_frame_retries_within_one_epoch() {
        let c = small();
        let t = ElasticTimings::default();
        let o = simulate_dropped_frame(&c, 4.0 * MB, 2, 2, 1, &t);
        assert!(o.detect_secs >= t.deadline);
        assert!(
            o.total_secs <= o.detect_secs + t.view_change + o.clean_secs + 1e-9,
            "retry is one clean re-run, not a spiral"
        );
    }

    #[test]
    fn clean_plan_reports_no_detection() {
        let c = small();
        let members: Vec<usize> = (0..c.executors()).collect();
        let (secs, detect) = run_ring_attempt(
            &c,
            &members,
            MB,
            2,
            &NetFaultPlan::new(),
            &ElasticTimings::default(),
        );
        assert!(secs > 0.0);
        assert!(detect.is_none());
    }
}
