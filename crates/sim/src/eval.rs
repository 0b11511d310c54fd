//! The paper-parity evaluation harness (DESIGN.md §5k).
//!
//! One deterministic sweep regenerates every headline experiment of the
//! paper at paper scale and asserts each claim as a named bound:
//!
//! * **Fig 1–4** — anti-scaling of vanilla tree-aggregate: end-to-end
//!   speedup saturates while agg-reduce *grows* with node count;
//! * **Fig 14/16** — aggregation-stage speedup of split aggregation over
//!   tree, and the {flat ring, chunked ring, halving, hierarchical} ×
//!   {dense, sparse} ladder with the auto-tuner's pick checked against DES
//!   ground truth under a model calibrated *from DES traces*;
//! * **Fig 17** — geo-mean end-to-end LR/SVM/LDA speedup;
//! * **elastic scenarios** the paper never ran ([`crate::elastic`]):
//!   executor leave with survivor ring re-formation, join at a job
//!   boundary, SIGSTOP-style straggler, flapping link, lost frame with
//!   epoch-fenced retry — all driven by `net::fault` plans;
//! * **stacked configuration** — sparse + pipelined + auto-tuned against
//!   the vanilla dense flat ring.
//!
//! Determinism discipline: every number is pure-f64 DES arithmetic, every
//! scenario choice derives from the config seed via a splitmix step, and
//! every serialization uses fixed-precision formatting with no timestamps
//! — two runs with the same config are byte-identical.
//!
//! The harness never panics on a failed claim: [`run_paper_eval`] always
//! returns the full [`EvalReport`], and [`EvalReport::check`] converts the
//! first violated bound into a typed [`BoundViolation`] so callers (the
//! `paper_eval` bin, CI, tests) decide how to fail.

use std::cell::RefCell;
use std::fmt;
use std::time::Duration;

use sparker_obs::export::{figures_json, FigureSeries};
use sparker_obs::metrics;
use sparker_tuner::{calibrate_from_samples, Algo, CostModel, JobShape, Selector};

use crate::aggsim::{
    des_params_for, mpi_reduce_scatter, simulate_aggregation, simulate_reduce_scatter, Strategy,
};
use crate::algosim::{ground_truth_margin, model_for, simulate_algo, simulate_rank};
use crate::cluster::SimCluster;
use crate::elastic::{
    simulate_dropped_frame, simulate_executor_join, simulate_executor_leave, simulate_flapping_link,
    simulate_straggler, ElasticTimings,
};
use crate::mlrun::{geo_mean, simulate_training, TrainingBreakdown};
use crate::workloads::{all_workloads, by_name, Workload};

const KB: f64 = 1024.0;
const MB: f64 = 1024.0 * 1024.0;

/// Sweep size: full = the paper's shapes; smoke = a 24-executor CI shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalScale {
    /// Paper scale: AWS 120 executors / 960 cores, BIC node sweep to 8.
    Full,
    /// CI scale: 24 executors / 96 cores over 4 nodes, node sweep to 4.
    Smoke,
}

impl EvalScale {
    pub fn name(&self) -> &'static str {
        match self {
            EvalScale::Full => "full",
            EvalScale::Smoke => "smoke",
        }
    }
}

/// Configuration of one evaluation run.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    pub scale: EvalScale,
    /// Drives scenario choices (fault victims, links, sequences).
    pub seed: u64,
    /// Replaces the DES-calibrated selector model — the mistuning injection
    /// point `tests/paper_eval.rs` uses to prove bounds actually fire.
    pub model_override: Option<CostModel>,
}

impl EvalConfig {
    pub fn full(seed: u64) -> Self {
        Self { scale: EvalScale::Full, seed, model_override: None }
    }

    pub fn smoke(seed: u64) -> Self {
        Self { scale: EvalScale::Smoke, seed, model_override: None }
    }
}

/// Direction of a bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundOp {
    AtLeast,
    AtMost,
}

impl BoundOp {
    pub fn symbol(&self) -> &'static str {
        match self {
            BoundOp::AtLeast => ">=",
            BoundOp::AtMost => "<=",
        }
    }

    fn json_name(&self) -> &'static str {
        match self {
            BoundOp::AtLeast => "at_least",
            BoundOp::AtMost => "at_most",
        }
    }
}

/// One named, self-asserting claim.
#[derive(Debug, Clone)]
pub struct BoundCheck {
    /// Stable identifier, e.g. `agg_speedup_max`.
    pub name: &'static str,
    /// The paper claim (or extension) this bound encodes.
    pub claim: &'static str,
    pub measured: f64,
    pub op: BoundOp,
    pub limit: f64,
}

impl BoundCheck {
    pub fn holds(&self) -> bool {
        match self.op {
            BoundOp::AtLeast => self.measured >= self.limit,
            BoundOp::AtMost => self.measured <= self.limit,
        }
    }
}

/// Typed failure of one bound — what [`EvalReport::check`] returns instead
/// of panicking, so a mistuned configuration degrades into an error value.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundViolation {
    pub name: String,
    pub claim: String,
    pub measured: f64,
    pub op: BoundOp,
    pub limit: f64,
}

impl fmt::Display for BoundViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bound `{}` violated: measured {:.6} not {} {:.6} ({})",
            self.name,
            self.measured,
            self.op.symbol(),
            self.limit,
            self.claim
        )
    }
}

impl std::error::Error for BoundViolation {}

/// Everything one evaluation run produced.
#[derive(Debug, Clone)]
pub struct EvalReport {
    pub scale: EvalScale,
    pub seed: u64,
    /// Parity cluster shape (the AWS-class sweep cluster).
    pub executors: usize,
    pub cores: usize,
    pub nodes: usize,
    pub bounds: Vec<BoundCheck>,
    pub figures: Vec<FigureSeries>,
}

impl EvalReport {
    /// First violated bound as a typed error; `Ok` when every claim holds.
    pub fn check(&self) -> Result<(), BoundViolation> {
        match self.bounds.iter().find(|b| !b.holds()) {
            None => Ok(()),
            Some(b) => Err(BoundViolation {
                name: b.name.to_string(),
                claim: b.claim.to_string(),
                measured: b.measured,
                op: b.op,
                limit: b.limit,
            }),
        }
    }

    /// Measured value of a named bound, if present.
    pub fn measured(&self, name: &str) -> Option<f64> {
        self.bounds.iter().find(|b| b.name == name).map(|b| b.measured)
    }

    pub fn failed_count(&self) -> usize {
        self.bounds.iter().filter(|b| !b.holds()).count()
    }

    /// `results/paper_eval.json`: config echo + bounds + per-figure series.
    /// Deterministic — fixed-precision floats, no timestamps.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"eval\": {");
        s.push_str(&format!(
            "\"scale\": \"{}\", \"seed\": {}, \"executors\": {}, \"cores\": {}, \"nodes\": {}",
            self.scale.name(),
            self.seed,
            self.executors,
            self.cores,
            self.nodes
        ));
        s.push_str("},\n  \"bounds\": [");
        for (i, b) in self.bounds.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"op\": \"{}\", \"measured\": {:.9}, \
                 \"limit\": {:.9}, \"pass\": {}}}",
                b.name,
                b.op.json_name(),
                b.measured,
                b.limit,
                b.holds()
            ));
        }
        s.push_str("\n  ],\n  \"figures\": ");
        s.push_str(figures_json(&self.figures).trim_end());
        s.push_str("\n}\n");
        s
    }

    /// `BENCH_10.json`: the flat headline family the trend checker diffs
    /// across commits (README "benchmark trajectory").
    pub fn bench_json(&self) -> String {
        let m = |name: &str| self.measured(name).unwrap_or(0.0);
        let mut s = String::new();
        s.push_str("{\n  \"bench\": \"paper_eval\",\n");
        s.push_str(&format!("  \"smoke\": {},\n", self.scale == EvalScale::Smoke));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!(
            "  \"headline\": {{\"agg_speedup_max\": {:.6}, \"geo_mean_e2e\": {:.6}, \
             \"anti_scaling_reduce_growth\": {:.6}, \"selector_parity\": {:.6}, \
             \"stacked_speedup\": {:.6}, \"elastic_recovery_ratio\": {:.6}}},\n",
            m("agg_speedup_max"),
            m("geo_mean_e2e"),
            m("anti_scaling_reduce_grows"),
            m("selector_within_margin"),
            m("stacked_speedup"),
            m("elastic_leave_bounded"),
        ));
        s.push_str(&format!(
            "  \"bounds\": {{\"checked\": {}, \"failed\": {}}}\n}}\n",
            self.bounds.len(),
            self.failed_count()
        ));
        s
    }

    /// The EXPERIMENTS.md "paper parity ledger" (claim → measured → bound →
    /// status), regenerated by `paper_eval` on every full run.
    pub fn ledger_markdown(&self) -> String {
        let mut s = String::new();
        s.push_str("| bound | claim | measured | bound value | status |\n");
        s.push_str("|---|---|---|---|---|\n");
        for b in &self.bounds {
            s.push_str(&format!(
                "| `{}` | {} | {:.3} | {} {:.3} | {} |\n",
                b.name,
                b.claim,
                b.measured,
                b.op.symbol(),
                b.limit,
                if b.holds() { "pass" } else { "FAIL" }
            ));
        }
        s
    }
}

/// One splitmix64 step — the seed-derivation primitive for scenario
/// choices (victims, links, sequences). Deterministic, stateless.
fn splitmix(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Calibrates the selector's cost model from DES traces: replays single
/// point-to-point transfers through the event engine at several sizes,
/// intra- and inter-node, and least-squares-fits alpha/beta from the
/// simulated `(bytes, secs)` samples — the same fit the live stack runs
/// over `collective.step` spans, fed from the simulator instead.
pub fn des_calibrated_model(cluster: &SimCluster, margin_permille: u32) -> CostModel {
    let params = des_params_for(cluster, sparker_net::profile::TransportKind::ScalableComm, true);
    let e = cluster.executors();
    // Under topology-aware placement executors 0 and 1 share a node (when
    // the node holds more than one) and 0 and e-1 never do.
    let intra_peer = 1.min(e - 1);
    let inter_peer = e - 1;
    let mut intra: Vec<(f64, f64)> = Vec::new();
    let mut inter: Vec<(f64, f64)> = Vec::new();
    for bytes in [4.0 * KB, 64.0 * KB, 256.0 * KB, MB, 4.0 * MB] {
        for (peer, samples) in [(intra_peer, &mut intra), (inter_peer, &mut inter)] {
            let mut g = crate::des::OpGraph::new();
            let x = g.xfer(0, peer, 0, bytes, vec![]);
            let r = g.run(&params);
            samples.push((bytes, r.finish[x]));
        }
    }
    // On a multi-node cluster the two sample sets exercise the two link
    // classes; keep merge throughput + margin from the profile model.
    let cal = calibrate_from_samples(&intra, &inter);
    cal.apply(&model_for(cluster, margin_permille))
}

struct Sweep {
    /// BIC-class cluster for the node sweep (figures 1–4, 16, 17).
    bic: SimCluster,
    node_sweep: Vec<usize>,
    workloads: Vec<Workload>,
    /// AWS-class cluster for the algorithm ladder + elastic scenarios.
    aws: SimCluster,
    ladder: Vec<f64>,
    fig16_mib: Vec<f64>,
    elastic_msg: f64,
}

fn sweep_for(scale: EvalScale) -> Sweep {
    match scale {
        EvalScale::Full => Sweep {
            bic: SimCluster::bic(),
            node_sweep: vec![1, 2, 4, 8],
            workloads: all_workloads(),
            aws: SimCluster::aws(),
            ladder: vec![64.0 * KB, 256.0 * KB, MB, 4.0 * MB],
            fig16_mib: vec![16.0, 64.0, 256.0],
            elastic_msg: 256.0 * MB,
        },
        EvalScale::Smoke => Sweep {
            bic: SimCluster::bic(),
            node_sweep: vec![1, 2, 4],
            workloads: all_workloads()
                .into_iter()
                .filter(|w| ["LDA-E", "LR-A", "SVM-K"].contains(&w.name))
                .collect(),
            // 24 executors / 96 cores over 4 nodes (ISSUE: reduced scale).
            aws: SimCluster::aws().with_nodes(4).with_executors(6, 4),
            ladder: vec![256.0 * KB, MB],
            fig16_mib: vec![16.0, 64.0],
            elastic_msg: 64.0 * MB,
        },
    }
}

/// Runs the whole evaluation sweep. Never panics on a failed claim; the
/// returned report carries every bound with its measured value.
pub fn run_paper_eval(cfg: &EvalConfig) -> EvalReport {
    let sw = sweep_for(cfg.scale);
    let full = cfg.scale == EvalScale::Full;
    let mut bounds: Vec<BoundCheck> = Vec::new();
    let mut figures: Vec<FigureSeries> = Vec::new();
    let mut bound = |name, claim, measured, op, limit| {
        bounds.push(BoundCheck { name, claim, measured, op, limit });
    };
    let mut series = |figure: &str, name: &str, x: &str, y: &str, points: Vec<(f64, f64)>| {
        figures.push(FigureSeries::new(figure, name, x, y, points));
    };
    metrics::counter("eval.runs").inc();

    // ---- Fig 1–4: anti-scaling of vanilla tree aggregation ------------
    let split4 = Strategy::Split { parallelism: 4, topology_aware: true };
    let mut tree_total_geo = Vec::new();
    let mut tree_reduce_geo = Vec::new();
    let mut tree_compute_geo = Vec::new();
    let mut split_reduce_geo = Vec::new();
    let mut tree_runs = Vec::new();
    let mut split_runs = Vec::new();
    for &n in &sw.node_sweep {
        let c = sw.bic.clone().with_nodes(n);
        let tree: Vec<_> = sw
            .workloads
            .iter()
            .map(|w| simulate_training(&c, w, Strategy::Tree, None))
            .collect();
        let split: Vec<_> =
            sw.workloads.iter().map(|w| simulate_training(&c, w, split4, None)).collect();
        tree_total_geo.push(geo_mean(&tree.iter().map(|t| t.total()).collect::<Vec<_>>()));
        tree_reduce_geo.push(geo_mean(&tree.iter().map(|t| t.agg_reduce).collect::<Vec<_>>()));
        tree_compute_geo.push(geo_mean(&tree.iter().map(|t| t.agg_compute).collect::<Vec<_>>()));
        split_reduce_geo.push(geo_mean(&split.iter().map(|t| t.agg_reduce).collect::<Vec<_>>()));
        tree_runs.push(tree);
        split_runs.push(split);
    }
    let over_nodes = |ys: &[f64]| -> Vec<(f64, f64)> {
        sw.node_sweep.iter().zip(ys).map(|(&n, &y)| (n as f64, y)).collect()
    };
    let speedups: Vec<f64> = tree_total_geo.iter().map(|&t| tree_total_geo[0] / t).collect();
    series(
        "fig01_anti_scaling",
        "tree_e2e_speedup_geomean",
        "nodes",
        "speedup_vs_1_node",
        over_nodes(&speedups),
    );
    for (name, ys) in [
        ("tree_agg_reduce_geomean", &tree_reduce_geo),
        ("tree_agg_compute_geomean", &tree_compute_geo),
        ("split_agg_reduce_geomean", &split_reduce_geo),
    ] {
        series("fig03_decomposition", name, "nodes", "seconds", over_nodes(ys));
    }
    let last = sw.node_sweep.len() - 1;
    let monotone = (0..last)
        .map(|i| tree_reduce_geo[i + 1] / tree_reduce_geo[i])
        .fold(f64::INFINITY, f64::min);
    bound(
        "anti_scaling_monotone",
        "Fig 3: tree agg-reduce grows with every node-count step",
        monotone,
        BoundOp::AtLeast,
        1.0,
    );
    bound(
        "anti_scaling_reduce_grows",
        "Fig 3: tree agg-reduce at max nodes vs 1 node (paper: 111s -> 187s)",
        tree_reduce_geo[last] / tree_reduce_geo[0],
        BoundOp::AtLeast,
        if full { 1.2 } else { 1.1 },
    );
    bound(
        "anti_scaling_e2e_capped",
        "Fig 1: vanilla e2e speedup saturates far below linear (paper geo-mean 1.25x)",
        speedups[last],
        BoundOp::AtMost,
        2.5,
    );
    bound(
        "compute_scales",
        "Fig 3: agg-compute scales near-linearly (paper 4.47x at 8 nodes)",
        tree_compute_geo[0] / tree_compute_geo[last],
        BoundOp::AtLeast,
        if full { 3.0 } else { 2.0 },
    );
    bound(
        "split_reduce_flat",
        "Fig 16-class: split agg-reduce stays near-flat over the node sweep",
        split_reduce_geo[last] / split_reduce_geo[0],
        BoundOp::AtMost,
        1.8,
    );

    // ---- Fig 16: aggregation-stage speedup over aggregator size -------
    let c8 = sw.bic.clone().with_nodes(*sw.node_sweep.last().unwrap());
    let partitions = 2 * c8.total_cores();
    let mut agg_speedup_max: f64 = 0.0;
    let mut fig16 = Vec::new();
    let mut fig16_imm = Vec::new();
    // The 1 KB point is the paper's tie; it can never be the maximum.
    for &mib in std::iter::once(&(KB / MB)).chain(&sw.fig16_mib) {
        let bytes = mib * MB;
        let tree = simulate_aggregation(&c8, Strategy::Tree, bytes, partitions, 0.05);
        let imm = simulate_aggregation(&c8, Strategy::TreeImm, bytes, partitions, 0.05);
        let split = simulate_aggregation(&c8, split4, bytes, partitions, 0.05);
        let s = tree.total() / split.total();
        agg_speedup_max = agg_speedup_max.max(s);
        fig16.push((mib, s));
        fig16_imm.push((mib, tree.total() / imm.total()));
    }
    for (name, points) in [("tree_over_split", fig16), ("tree_over_tree_imm", fig16_imm)] {
        series("fig16_agg_speedup", name, "aggregator_mib", "speedup", points);
    }
    bound(
        "agg_speedup_max",
        "Fig 16: split aggregation speedup over tree (paper: 6.47x class)",
        agg_speedup_max,
        BoundOp::AtLeast,
        if full { 5.0 } else { 3.0 },
    );
    metrics::gauge("eval.agg_speedup_max_permille").set((agg_speedup_max * 1000.0) as i64);

    // ---- Fig 14/16 ladder: algorithms × density, selector parity ------
    let model = match cfg.model_override {
        Some(m) => m,
        None => des_calibrated_model(&sw.aws, 150),
    };
    let selector = Selector::new(model);
    let mut parity_worst: f64 = 0.0;
    let mut hier_vs_flat_min = f64::INFINITY;
    let mut per_algo: Vec<(Algo, Vec<(f64, f64)>)> =
        Algo::candidates().into_iter().map(|a| (a, Vec::new())).collect();
    for &density in &[1000u32, 100] {
        for &bytes in &sw.ladder {
            let shape = JobShape {
                bytes: bytes as u64,
                density_permille: density,
                executors: sw.aws.executors(),
                nodes: sw.aws.nodes,
                parallelism: 4,
            };
            let wire = model.wire_bytes(&shape);
            let times = simulate_rank(&sw.aws, wire, 4);
            let best = times
                .iter()
                .map(|&(_, t)| t)
                .fold(f64::INFINITY, f64::min);
            let decision = selector.select(&shape);
            let chosen = times
                .iter()
                .find(|(a, _)| *a == decision.algo)
                .map(|&(_, t)| t)
                .unwrap_or(f64::INFINITY);
            let margin = ground_truth_margin(&model, wire);
            parity_worst = parity_worst.max(chosen / (best * margin));
            if density == 1000 {
                for (a, t) in &times {
                    if let Some(entry) = per_algo.iter_mut().find(|(pa, _)| pa == a) {
                        entry.1.push((bytes / KB, *t));
                    }
                }
                if bytes >= MB {
                    let flat = times.iter().find(|(a, _)| *a == Algo::FlatRing).unwrap().1;
                    let hier = times.iter().find(|(a, _)| *a == Algo::Hierarchical).unwrap().1;
                    hier_vs_flat_min = hier_vs_flat_min.min(flat / hier);
                }
            }
        }
    }
    for (a, pts) in per_algo {
        series("fig14_algorithms_dense", a.name(), "message_kib", "seconds", pts);
    }
    bound(
        "selector_within_margin",
        "§5j: auto-tuner pick within calibrated margin of best static choice (DES ground truth)",
        parity_worst,
        BoundOp::AtMost,
        1.0,
    );
    bound(
        "hier_beats_flat_large",
        "Fig 16-class: hierarchical beats the flat ring for large dense aggregators",
        hier_vs_flat_min,
        BoundOp::AtLeast,
        1.05,
    );

    // ---- Fig 17: geo-mean end-to-end speedup --------------------------
    // `c8` is the last step of the node sweep above: same runs.
    let e2e: Vec<f64> =
        tree_runs[last].iter().zip(&split_runs[last]).map(|(t, s)| t.total() / s.total()).collect();
    let by_workload = e2e.iter().enumerate().map(|(i, &s)| (i as f64, s)).collect();
    series("fig17_e2e_speedup", "split_over_tree", "workload_index", "speedup", by_workload);
    let geo_e2e = geo_mean(&e2e);
    let worst_e2e = e2e.iter().copied().fold(f64::INFINITY, f64::min);
    // Paper floor 1.60x with a 0.8 model margin -> 1.28 at full scale.
    bound(
        "geo_mean_e2e",
        "Fig 17: geo-mean end-to-end speedup (paper: 1.60x; floor = paper x 0.8 margin)",
        geo_e2e,
        BoundOp::AtLeast,
        if full { 1.28 } else { 1.1 },
    );
    bound(
        "e2e_never_loses",
        "Fig 17: split aggregation never loses end-to-end",
        worst_e2e,
        BoundOp::AtLeast,
        0.9,
    );
    metrics::gauge("eval.geo_mean_e2e_permille").set((geo_e2e * 1000.0) as i64);

    // ---- Elastic scenarios (extensions the paper never ran) -----------
    let timings = ElasticTimings::default();
    let e = sw.aws.executors();
    let victim = 1 + (splitmix(cfg.seed) % (e as u64 - 2)) as usize;
    let flap_from = (splitmix(cfg.seed ^ 1) % e as u64) as usize;
    let drop_seq = splitmix(cfg.seed ^ 2) % (e as u64 - 1);
    metrics::counter("eval.scenarios").add(5);

    let leave = simulate_executor_leave(&sw.aws, sw.elastic_msg, 4, victim, e as u64 / 2, &timings);
    bound(
        "elastic_leave_bounded",
        "extension: leave mid-collective recovers within 2.5x of the detection floor",
        leave.total_secs / (leave.clean_secs + timings.suspicion + timings.view_change),
        BoundOp::AtMost,
        2.5,
    );
    bound(
        "elastic_ring_beats_tree",
        "extension: re-formed survivor ring beats the tree fallback after a leave",
        leave.tree_fallback_secs / leave.survivor_secs,
        BoundOp::AtLeast,
        if full { 5.0 } else { 2.0 },
    );

    let join = simulate_executor_join(&sw.aws, sw.elastic_msg / 4.0, 0.05, &timings);
    bound(
        "elastic_join_speedup",
        "extension: a node's worth of joiners admitted at a boundary speeds the next iteration",
        join.before_secs / join.after_secs,
        BoundOp::AtLeast,
        1.02,
    );

    let pause = Duration::from_millis(500);
    let strag = simulate_straggler(&sw.aws, sw.elastic_msg, 4, victim, pause);
    let strag_ratio = strag.overhead_secs() / pause.as_secs_f64();
    bound(
        "straggler_overhead_lo",
        "extension: a SIGSTOP pause is not hidden by the synchronous ring",
        strag_ratio,
        BoundOp::AtLeast,
        0.7,
    );
    bound(
        "straggler_overhead_hi",
        "extension: a SIGSTOP pause does not cascade beyond itself",
        strag_ratio,
        BoundOp::AtMost,
        1.3,
    );

    let flap = simulate_flapping_link(&sw.aws, sw.elastic_msg, 4, flap_from,
        Duration::from_millis(20), 6);
    bound(
        "flap_no_amplification",
        "extension: flapping-link jitter is never amplified beyond the injected delay",
        flap.overhead_secs() / flap.injected_secs,
        BoundOp::AtMost,
        1.05,
    );

    let dropped = simulate_dropped_frame(&sw.aws, sw.elastic_msg, 4, flap_from, drop_seq, &timings);
    bound(
        "drop_detected_in_band",
        "extension: a lost frame's deadline fires within the clean makespan",
        (dropped.detect_secs - timings.deadline) / dropped.clean_secs,
        BoundOp::AtMost,
        1.05,
    );
    let ratios = vec![
        (0.0, leave.total_secs / leave.clean_secs),
        (1.0, dropped.total_secs / dropped.clean_secs),
        (2.0, strag.faulted_secs / strag.clean_secs),
        (3.0, flap.faulted_secs / flap.clean_secs),
        (4.0, join.before_secs / join.after_secs),
    ];
    series("elastic_scenarios", "total_over_clean", "scenario_index", "ratio", ratios);

    // ---- Stacked configuration: sparse + pipelined + auto-tuned -------
    let stacked_bytes = sw.elastic_msg;
    let vanilla = simulate_algo(&sw.aws, Algo::FlatRing, stacked_bytes, 1);
    let sparse_shape = JobShape {
        bytes: stacked_bytes as u64,
        density_permille: 10,
        executors: sw.aws.executors(),
        nodes: sw.aws.nodes,
        parallelism: 4,
    };
    let wire = model.wire_bytes(&sparse_shape);
    let stacked_algo = selector.select(&sparse_shape).algo;
    let stacked = simulate_algo(&sw.aws, stacked_algo, wire, 4);
    let stacked_speedup = vanilla / stacked;
    series(
        "stacked_config",
        "speedup_over_vanilla_dense_flat_ring",
        "message_mib",
        "speedup",
        vec![(stacked_bytes / MB, stacked_speedup)],
    );
    bound(
        "stacked_speedup",
        "extension: sparse(10 permille) + pipelined + auto-tuned vs vanilla dense flat ring",
        stacked_speedup,
        BoundOp::AtLeast,
        if full { 10.0 } else { 2.0 },
    );
    metrics::gauge("eval.stacked_speedup_permille").set((stacked_speedup * 1000.0) as i64);

    replay_series(&sw, &c8, split4, &tree_runs[0], &tree_runs[last], &mut series);

    let report = EvalReport {
        scale: cfg.scale,
        seed: cfg.seed,
        executors: sw.aws.executors(),
        cores: sw.aws.total_cores(),
        nodes: sw.aws.nodes,
        bounds,
        figures,
    };
    metrics::counter("eval.bounds_checked").add(report.bounds.len() as u64);
    metrics::counter("eval.bounds_failed").add(report.failed_count() as u64);
    metrics::counter("eval.figures_emitted").add(report.figures.len() as u64);
    report
}

/// The paper's remaining evaluation curves, replayed without a bound of
/// their own: EXPERIMENTS.md quotes them next to the paper's numbers.
/// `c8` is the BIC-class cluster at the top of the node sweep; `one_node` /
/// `max_nodes` are the per-workload vanilla-tree runs at its two ends.
fn replay_series(
    sw: &Sweep,
    c8: &SimCluster,
    split4: Strategy,
    one_node: &[TrainingBreakdown],
    max_nodes: &[TrainingBreakdown],
    series: &mut dyn FnMut(&str, &str, &str, &str, Vec<(f64, f64)>),
) {
    let by_index = |ys: Vec<f64>| ys.into_iter().enumerate().map(|(i, y)| (i as f64, y)).collect();

    // Fig 1 / Fig 2: per-workload speedup and aggregation share behind the
    // geo-means.
    let speedups = one_node.iter().zip(max_nodes).map(|(o, m)| o.total() / m.total()).collect();
    series(
        "fig01_anti_scaling",
        "tree_e2e_speedup_by_workload",
        "workload_index",
        "speedup_vs_1_node",
        by_index(speedups),
    );
    let shares: Vec<f64> = max_nodes.iter().map(|t| t.agg_fraction()).collect();
    let share_geo = geo_mean(&shares);
    series("fig02_agg_share", "tree_by_workload", "workload_index", "fraction", by_index(shares));
    let at_max = vec![(c8.nodes as f64, share_geo)];
    series("fig02_agg_share", "tree_geomean", "nodes", "fraction", at_max);

    // Fig 14: reduce-scatter of one 256 MB aggregator vs channel
    // parallelism, ring ordered by hostname or by executor id.
    for (name, aware) in [("topology_aware", true), ("id_ordered", false)] {
        let points = [1usize, 2, 4, 8]
            .iter()
            .map(|&p| (p as f64, simulate_reduce_scatter(c8, 256.0 * MB, p, aware)))
            .collect();
        series("fig14_parallelism", name, "parallelism", "seconds", points);
    }

    // Fig 15: reduce-scatter vs executor count (spread over the fixed node
    // set), with the closed-form MPI pairwise exchange as reference.
    for (size, bytes) in [("256kb", 256.0 * KB), ("256mb", 256.0 * MB)] {
        let sweep = |f: &dyn Fn(&SimCluster) -> f64| {
            [6usize, 12, 24, 48]
                .iter()
                .map(|&e| (e as f64, f(&sw.bic.clone().with_total_executors(e))))
                .collect()
        };
        let sc = sweep(&|c| simulate_reduce_scatter(c, bytes, 4, true));
        series("fig15_rs_scalability", &format!("sc_{size}"), "executors", "seconds", sc);
        let mpi = sweep(&|c| mpi_reduce_scatter(c, bytes));
        series("fig15_rs_scalability", &format!("mpi_{size}"), "executors", "seconds", mpi);
    }

    // Fig 17 on the AWS-class cluster (the bounded series is the BIC one).
    let e2e_aws = sw
        .workloads
        .iter()
        .map(|w| {
            simulate_training(&sw.aws, w, Strategy::Tree, None).total()
                / simulate_training(&sw.aws, w, split4, None).total()
        })
        .collect();
    let e2e_aws = by_index(e2e_aws);
    series("fig17_e2e_speedup", "split_over_tree_aws", "workload_index", "speedup", e2e_aws);

    // Fig 4, Fig 18 and §6: LDA-N strong scaling on AWS, 15 iterations, up
    // to the parity cluster's core count. Below one node the paper shrinks
    // executors to 4 cores each.
    let lda = by_name("LDA-N").expect("LDA-N workload");
    let intra = SimCluster::aws().with_executors(24, 4);
    let at_cores = |cores: usize| {
        if cores <= 96 {
            intra.shaped_for_cores(cores)
        } else {
            SimCluster::aws().shaped_for_cores(cores)
        }
    };
    // One simulation per (cores, strategy), however many series quote it.
    let memo = RefCell::new(Vec::<(usize, Strategy, TrainingBreakdown)>::new());
    let run = |cores: usize, strategy: Strategy| {
        let hit = memo.borrow().iter().find(|r| (r.0, r.1) == (cores, strategy)).map(|r| r.2);
        hit.unwrap_or_else(|| {
            let t = simulate_training(&at_cores(cores), &lda, strategy, Some(15));
            memo.borrow_mut().push((cores, strategy, t));
            t
        })
    };
    let sweep = |cores: &[usize], f: &dyn Fn(usize) -> f64| -> Vec<(f64, f64)> {
        let max = sw.aws.total_cores();
        cores.iter().filter(|&&c| c <= max).map(|&c| (c as f64, f(c))).collect()
    };
    let fig04 = [8, 24, 48, 96, 192, 384, 960];
    let share = sweep(&fig04, &|c| {
        let t = run(c, Strategy::Tree);
        t.agg_reduce / t.total()
    });
    series("fig04_aws_decomposition", "tree_reduce_share", "cores", "fraction", share);
    let reduce = sweep(&fig04, &|c| run(c, Strategy::Tree).agg_reduce);
    series("fig04_aws_decomposition", "tree_agg_reduce", "cores", "seconds", reduce);

    let fig18 = [8, 24, 96, 240, 480, 960];
    let speedup =
        sweep(&fig18, &|c| run(c, Strategy::Tree).agg_reduce / run(c, split4).agg_reduce);
    series("fig18_strong_scaling", "reduce_speedup_split_over_tree", "cores", "speedup", speedup);
    let reduce = sweep(&fig18, &|c| run(c, split4).agg_reduce);
    series("fig18_strong_scaling", "split_agg_reduce", "cores", "seconds", reduce);
    let driver = sweep(&fig18, &|c| run(c, split4).driver);
    series("fig18_strong_scaling", "split_driver", "cores", "seconds", driver);

    // §6: what is left for the driver once reduction is fixed, and how much
    // of it the allreduce extension (no fan-in, no broadcast) removes.
    let allreduce = Strategy::SplitAllReduce { parallelism: 4, topology_aware: true };
    let sec6 = [96, 240, 480, 960];
    let three = [("tree", Strategy::Tree), ("split", split4), ("allreduce", allreduce)];
    for (name, strategy) in three {
        let total = sweep(&sec6, &|c| run(c, strategy).total());
        series("sec6_driver_bottleneck", &format!("{name}_total"), "cores", "seconds", total);
    }
    for (name, strategy) in &three[1..] {
        let rest = sweep(&sec6, &|c| {
            let t = run(c, *strategy);
            t.driver + t.non_agg
        });
        let name = format!("{name}_driver_non_agg");
        series("sec6_driver_bottleneck", &name, "cores", "seconds", rest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke scale holds every bound — the contract CI's step 9 rides on.
    #[test]
    fn smoke_scale_satisfies_every_bound() {
        let r = run_paper_eval(&EvalConfig::smoke(42));
        if let Err(v) = r.check() {
            panic!("{v}\nledger:\n{}", r.ledger_markdown());
        }
        assert!(r.bounds.len() >= 14, "the sweep asserts every headline claim");
        assert!(!r.figures.is_empty());
    }

    #[test]
    fn json_is_parseable_and_carries_all_bounds() {
        let r = run_paper_eval(&EvalConfig::smoke(1));
        let parsed = sparker_obs::json::parse(&r.to_json()).expect("valid json");
        let bounds = parsed.get("bounds").and_then(|v| v.as_array()).expect("bounds array");
        assert_eq!(bounds.len(), r.bounds.len());
        sparker_obs::json::parse(&r.bench_json()).expect("bench json valid");
    }

    #[test]
    fn violation_is_typed_and_descriptive() {
        let v = BoundViolation {
            name: "x".into(),
            claim: "c".into(),
            measured: 1.0,
            op: BoundOp::AtLeast,
            limit: 2.0,
        };
        let msg = format!("{v}");
        assert!(msg.contains("`x`") && msg.contains(">="), "{msg}");
    }
}
