//! `figures <id>… | --list` — the paper's tables, its shaped-transport
//! figures and this repo's ablations, one function per id.
//!
//! Everything here runs the *threaded* engine or the shaped in-process
//! transports (modeled waits dominate real CPU at the sizes used, so the
//! ratios between columns are the signal). Paper-scale DES replay is
//! `paper_eval`'s job and wall-clock cost is `benchmark/run.sh`'s.
//!
//! `--smoke` shrinks `sparse_density` to the one small shape CI runs
//! (`tools/check_hermetic.sh` step 6); no other id has a smoke shape, so
//! `--smoke` with any other id is a usage error.

use std::sync::Arc;

use sparker::sparse::SparseAccum;
use sparker_bench::{
    fmt_bytes, fmt_secs, print_header, scaled_elems, shaped_bic, ArraySum, MetricsCsv, Table,
};
use sparker_data::profiles::{all_profiles, TaskKind};
use sparker_data::rng::{SplitMix64, Zipf};
use sparker_engine::cluster::LocalCluster;
use sparker_engine::config::ClusterSpec;
use sparker_engine::metrics::AggMetrics;
use sparker_engine::ops::split_aggregate::{SelectorOpts, SplitAggOpts};
use sparker_engine::ops::tree_aggregate::TreeAggOpts;
use sparker_ml::glm::AggregationMode;
use sparker_ml::lda::{train as lda_train, LdaConfig};
use sparker_ml::logistic::LogisticRegression;
use sparker_ml::point::LabeledPoint;
use sparker_ml::svm::LinearSvm;
use sparker_net::bench::{measure_latency, measure_throughput};
use sparker_net::blockmanager::BlockManagerTransport;
use sparker_net::codec::F64Array;
use sparker_net::profile::{NetProfile, TransportKind};
use sparker_net::topology::round_robin_layout;
use sparker_net::transport::{MeshTransport, Transport};
use sparker_sim::aggsim::{simulate_aggregation, Strategy};
use sparker_sim::cluster::SimCluster;
use sparker_sim::p2p::{latency, throughput};
use sparker_tuner::Algo;

const MB: f64 = 1024.0 * 1024.0;

/// `(id, what it regenerates, runner)`.
type Figure = (&'static str, &'static str, fn());
const FIGURES: &[Figure] = &[
    ("tab1", "Table 1: configuration of the two evaluation clusters", tab1),
    ("tab2", "Table 2: datasets and their synthetic stand-ins", tab2),
    ("tab3", "Table 3: MLlib models and their hyperparameters", tab3),
    ("fig02", "Figure 2 on the threaded engine: stage-history aggregation share", fig02),
    ("fig12", "Figure 12: p2p latency, BlockManager vs communicator vs MPI", fig12),
    ("fig13", "Figure 13: p2p throughput vs message size and parallelism", fig13),
    ("fig16", "Figure 16 on the threaded engine: tree vs tree+IMM vs split", fig16),
    ("algorithms", "ablation: ring vs recursive-halving reduce-scatter", algorithms),
    ("allreduce", "ablation: split aggregation vs the allreduce extension", allreduce),
    ("backend", "ablation: threaded engine vs simulator tree/split ratio", backend),
    ("imm_bytes", "ablation: serialized bytes and messages per strategy", imm_bytes),
    ("sparse_density", "ablation: dense vs sparse vs adaptive segments", sparse_density),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for (id, what, _) in FIGURES {
            println!("{id:<15} {what}");
        }
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut selected: Vec<fn()> = Vec::new();
    for id in args.iter().filter(|a| *a != "--smoke") {
        match FIGURES.iter().find(|f| f.0 == id) {
            Some(_) if smoke && id == "sparse_density" => selected.push(sparse_density_smoke),
            Some(f) if !smoke => selected.push(f.2),
            Some(_) => usage(&format!("`{id}` has no --smoke shape (only sparse_density does)")),
            None => usage(&format!("unknown id `{id}` (try --list)")),
        }
    }
    if selected.is_empty() {
        usage("no id given");
    }
    for run in selected {
        run();
    }
}

fn usage(why: &str) -> ! {
    eprintln!("figures: {why}\nusage: figures <id>... | --smoke sparse_density | --list");
    std::process::exit(2);
}

/// Prints the table, writes `results/<csv>.csv` and says so.
fn finish(t: &Table, csv: &str) {
    t.print();
    let path = t.write_csv(csv).expect("csv");
    println!("\nwrote {}", path.display());
}

fn tab1() {
    print_header(
        "Table 1",
        "Configuration of the two clusters used for experiments",
        "Paper: BIC = 8-node 100Gbps IPoIB in-house cluster; AWS = 10x m5d.24xlarge, 25Gbps.",
    );
    let (bic, aws) = (SimCluster::bic(), SimCluster::aws());
    let mut t = Table::new(vec!["Configuration", "BIC", "AWS"]);
    let mut row = |label: &str, f: &dyn Fn(&SimCluster) -> String| {
        t.row(vec![label.to_string(), f(&bic), f(&aws)]);
    };
    row("Number of nodes", &|c| c.nodes.to_string());
    row("Executors per node", &|c| c.executors_per_node.to_string());
    row("Executor cores", &|c| c.cores_per_executor.to_string());
    row("Total executors", &|c| c.executors().to_string());
    row("Total cores", &|c| c.total_cores().to_string());
    row("Effective line rate (MB/s)", &|c| format!("{:.0}", c.profile.nic_bandwidth / MB));
    row("Single-stream cap (MB/s)", &|c| format!("{:.0}", c.profile.per_channel_bandwidth / MB));
    row("Inter-node latency (us)", &|c| {
        format!("{:.0}", c.profile.inter_node.latency.as_secs_f64() * 1e6)
    });
    finish(&t, "tab1_clusters");
}

fn tab2() {
    print_header(
        "Table 2",
        "Real-world datasets used in the experiment (synthetic stand-ins)",
        "Shapes match the paper; `scale`/`feature_scale` shrink them for local runs.",
    );
    let mut t = Table::new(vec![
        "Dataset",
        "Samples/Docs",
        "Features/Vocab",
        "nnz/sample",
        "Task",
        "GLM agg (MiB)",
    ]);
    for p in all_profiles() {
        let (task, agg) = match p.task {
            TaskKind::Classification => {
                ("classification", format!("{:.1}", p.glm_aggregator_bytes() as f64 / MB))
            }
            TaskKind::TopicModel => (
                "topic model",
                format!("{:.1} (LDA K=100)", p.lda_aggregator_bytes(100) as f64 / MB),
            ),
        };
        t.row(vec![
            p.name.to_string(),
            p.paper_samples.to_string(),
            p.paper_features.to_string(),
            p.nnz_per_sample.to_string(),
            task.to_string(),
            agg,
        ]);
    }
    finish(&t, "tab2_datasets");
}

fn tab3() {
    print_header(
        "Table 3",
        "MLlib machine learning models used in the experiment",
        "Constructed from this repo's trainers — parameters mirror the paper.",
    );
    let lr = LogisticRegression::default();
    let svm = LinearSvm::default();
    let lda = LdaConfig::new(100, 102_660);
    let mut t = Table::new(vec!["Name", "Parameter", "Task"]);
    t.row(vec![
        "Logistic Regression".to_string(),
        format!("regParam={},elasticNetParam=0", lr.reg_param),
        "classification".to_string(),
    ]);
    t.row(vec![
        "SVM".to_string(),
        format!("miniBatchFrac={},regParam={}", svm.mini_batch_fraction, svm.reg_param),
        "classification".to_string(),
    ]);
    t.row(vec!["LDA".to_string(), format!("K={}", lda.num_topics), "topic model".to_string()]);
    finish(&t, "tab3_models");
}

/// Trains `which` ("LR" or "LDA") at laptop scale, leaving its stages in
/// the cluster's history.
fn train_workload(cluster: &LocalCluster, which: &str, mode: AggregationMode) {
    cluster.history().clear();
    let parts = 2 * cluster.num_executors();
    if which == "LR" {
        let gen = sparker_data::profiles::avazu()
            .feature_scaled(2e-3) // 2000 features
            .classification_gen();
        let data = cluster
            .generate(parts, move |p| {
                gen.partition(p, parts, 2000).into_iter().map(LabeledPoint::from).collect()
            })
            .cache();
        data.count().unwrap();
        LogisticRegression { iterations: 5, ..Default::default() }
            .with_mode(mode)
            .train(&data, 2000)
            .unwrap();
    } else {
        let profile = sparker_data::profiles::enron().scaled(5e-3).feature_scaled(0.02);
        let gen = profile.corpus_gen(8);
        let (docs, vocab) = (profile.samples(), profile.features());
        let data = cluster.generate(parts, move |p| gen.partition(p, parts, docs)).cache();
        data.count().unwrap();
        lda_train(&data, LdaConfig { iterations: 5, ..LdaConfig::new(8, vocab) }.with_mode(mode))
            .unwrap();
    }
}

/// The stage-history analysis the paper ran on Spark's history logs
/// (§2.3), replayed on the real engine: decompose the recorded stage time
/// of LR and LDA training into aggregation vs everything else.
fn fig02() {
    print_header(
        "Figure 2 (threaded)",
        "Stage-history decomposition of real training runs (shaped engine)",
        "Replays the paper's history-log methodology on this engine; compare the\n\
         aggregation share against Figure 2's 67% geo-mean (at our laptop scale the\n\
         aggregators are smaller, so shares are lower for LR and high for LDA).",
    );
    let mut t = Table::new(vec!["Workload", "Mode", "Agg share", "Top stage kinds"]);
    for which in ["LR", "LDA"] {
        for mode in [AggregationMode::Tree, AggregationMode::split()] {
            let cluster = LocalCluster::new(shaped_bic(2, 2));
            train_workload(&cluster, which, mode);
            let share = cluster.history().aggregation_share();
            let top: Vec<String> = cluster
                .history()
                .summary()
                .into_iter()
                .take(3)
                .map(|(k, d, _)| format!("{k}={}", fmt_secs(d.as_secs_f64())))
                .collect();
            t.row(vec![
                which.to_string(),
                mode.name().to_string(),
                format!("{:.0}%", share * 100.0),
                top.join("  "),
            ]);
        }
    }
    finish(&t, "fig02_history_threaded");
}

/// Real ping-pong over the in-process transports with BIC shaping enforced
/// by the precise waiter, next to the closed-form profile numbers the
/// simulator uses.
fn fig12() {
    print_header(
        "Figure 12",
        "Point-to-point one-way latency on BIC: BM vs SC vs MPI",
        "Paper reference: MPI 15.94us; SC 72.73us (4.56x MPI); BM 3861.25us (242x MPI).",
    );
    // One executor per node so the path is inter-node.
    let execs = round_robin_layout(2, 1, 1);
    let profile = NetProfile::bic();
    let mpi = MeshTransport::new(&execs, 1, profile.clone(), TransportKind::MpiRef);
    let sc = MeshTransport::new(&execs, 1, profile.clone(), TransportKind::ScalableComm);
    let bm_wire = MeshTransport::new(&execs, 1, profile, TransportKind::MpiRef);
    let bm = BlockManagerTransport::with_default_costs(bm_wire);
    let sim = SimCluster::bic();
    let one_way_us =
        |t: Arc<dyn Transport>, iters| measure_latency(t, 8, 20, iters).as_secs_f64() * 1e6;
    let rows = [
        ("MPI", one_way_us(mpi, 200), TransportKind::MpiRef, 15.94),
        ("SC", one_way_us(sc, 200), TransportKind::ScalableComm, 72.73),
        ("BM", one_way_us(bm, 50), TransportKind::BlockManager, 3861.25),
    ];
    let mut t = Table::new(vec![
        "Transport",
        "Measured (us)",
        "Model (us)",
        "Paper (us)",
        "x MPI (measured)",
    ]);
    let mpi_us = rows[0].1;
    for (name, m_us, kind, paper) in rows {
        t.row(vec![
            name.to_string(),
            format!("{m_us:.2}"),
            format!("{:.2}", latency(&sim, kind) * 1e6),
            format!("{paper:.2}"),
            format!("{:.1}x", m_us / mpi_us),
        ]);
    }
    finish(&t, "fig12_p2p_latency");
}

/// Measured rows use the real shaped transports at 1/32 of paper message
/// sizes with a 32x-slowed profile (same byte-time products — see
/// `NetProfile::scaled`); model rows evaluate the closed form at paper
/// scale.
fn fig13() {
    print_header(
        "Figure 13",
        "P2P throughput vs message size: SC parallelism 1/2/4 vs MPI",
        "Paper reference: MPI 1185 MB/s max; SC@4 1152 MB/s (97.1% of line rate).",
    );
    const SCALE: f64 = 32.0;
    let execs = round_robin_layout(2, 1, 1);
    let profile = NetProfile::bic().scaled(SCALE);
    let sc = MeshTransport::new(&execs, 4, profile.clone(), TransportKind::ScalableComm);
    // MPI over verbs fills the pipe with a single stream: lift the TCP
    // single-stream cap to the wire rate for its mesh.
    let mut mpi_profile = profile;
    mpi_profile.inter_node.bandwidth = mpi_profile.mpi_bandwidth;
    mpi_profile.per_channel_bandwidth = mpi_profile.mpi_bandwidth;
    let mpi = MeshTransport::new(&execs, 1, mpi_profile, TransportKind::MpiRef);
    let sim = SimCluster::bic();

    let mut t = Table::new(vec![
        "Msg size",
        "SC P=1 (MB/s)",
        "SC P=2 (MB/s)",
        "SC P=4 (MB/s)",
        "MPI (MB/s)",
        "model SC@4",
        "model MPI",
    ]);
    // Paper sweeps 1KB..256MB; we measure the scaled-down equivalents and
    // report at paper-equivalent sizes.
    for exp in [10, 13, 16, 19, 21, 23, 25, 28] {
        let paper_bytes = 2f64.powi(exp);
        let scaled_bytes = ((paper_bytes / SCALE) as usize).max(64);
        let count = (64.0 * MB / SCALE / scaled_bytes as f64).clamp(4.0, 256.0) as usize;
        let mut cells = vec![fmt_bytes(paper_bytes)];
        for p in [1usize, 2, 4] {
            let mbps = measure_throughput(sc.clone() as Arc<dyn Transport>, scaled_bytes, count, p);
            cells.push(format!("{mbps:.0}"));
        }
        let mbps = measure_throughput(mpi.clone() as Arc<dyn Transport>, scaled_bytes, count, 1);
        cells.push(format!("{mbps:.0}"));
        cells.push(format!(
            "{:.0}",
            throughput(&sim, TransportKind::ScalableComm, paper_bytes, 4) / MB
        ));
        cells.push(format!("{:.0}", throughput(&sim, TransportKind::MpiRef, paper_bytes, 1) / MB));
        t.row(cells);
    }
    println!(
        "Note: measured columns are in the 32x-scaled domain (divide paper MB/s by 32 to\n\
         compare; ratios between columns are the figure's signal and are scale-invariant).\n"
    );
    finish(&t, "fig13_p2p_throughput");
}

/// The real engine summing an RDD of fixed-length arrays (the paper's
/// micro-benchmark) on the 16x-scaled BIC profile; strategy *ratios* are
/// the signal. The paper-scale sweep is `paper_eval`'s `fig16_agg_speedup`.
fn fig16() {
    print_header(
        "Figure 16 (threaded)",
        "Tree vs Tree+IMM vs Split aggregation scalability (1KB / 8MB / 64MB)",
        "Paper reference: split 6.48x over tree at 256MB/8 nodes; IMM 1.46x; ties at 1KB.\n\
         Sizes are paper-equivalent, capped at 64MB so real CPU work stays negligible\n\
         next to shaped waits on small hosts.",
    );
    let mut t = Table::new(vec!["Size", "Nodes", "Tree", "Tree+IMM", "Split", "Tree/Split"]);
    let mut csv = MetricsCsv::new(vec!["size", "nodes"]);
    for (label, paper_bytes) in [("1KB", 1024.0), ("8MB", 8.0 * MB), ("64MB", 64.0 * MB)] {
        for nodes in [1usize, 2, 4] {
            let sum = ArraySum::new(shaped_bic(nodes, 2), 4, scaled_elems(paper_bytes));
            let tree = sum.tree(TreeAggOpts { depth: 2, imm: false });
            let imm = sum.tree(TreeAggOpts { depth: 2, imm: true });
            let split = sum.split(SplitAggOpts::default());
            for m in [&tree, &imm, &split] {
                csv.row(vec![label.to_string(), nodes.to_string()], m);
            }
            let secs = |m: &AggMetrics| m.total().as_secs_f64();
            t.row(vec![
                label.to_string(),
                nodes.to_string(),
                fmt_secs(secs(&tree)),
                fmt_secs(secs(&imm)),
                fmt_secs(secs(&split)),
                format!("{:.2}x", secs(&tree) / secs(&split)),
            ]);
        }
    }
    t.print();
    let path = csv.write("fig16_aggregation_threaded").expect("csv");
    println!("\nwrote {}", path.display());
}

/// Sparker picks the ring; the MPI literature also uses recursive halving
/// (DESIGN.md §4.3). Same split aggregation, both algorithms.
fn algorithms() {
    print_header(
        "Ablation: reduce-scatter algorithm",
        "Ring (paper's choice) vs recursive halving, split-aggregation reduce time",
        "Both move (N-1)/N of one aggregator per executor; the ring sends smaller messages\n\
         over neighbours only (topology-friendly), halving sends log2(N) larger exchanges\n\
         across node boundaries.",
    );
    let mut t = Table::new(vec!["Paper size", "Nodes", "Ring reduce", "Halving reduce"]);
    for (label, paper_bytes) in [("8MB", 8.0 * MB), ("64MB", 64.0 * MB)] {
        for nodes in [2usize, 4] {
            let reduce = |algo| {
                let opts = SplitAggOpts {
                    parallelism: Some(4),
                    selector: SelectorOpts::Forced(algo),
                    ..Default::default()
                };
                let sum = ArraySum::new(shaped_bic(nodes, 2), 2, scaled_elems(paper_bytes));
                fmt_secs(sum.split(opts).reduce.as_secs_f64())
            };
            t.row(vec![
                label.to_string(),
                nodes.to_string(),
                reduce(Algo::FlatRing),
                reduce(Algo::Halving),
            ]);
        }
    }
    finish(&t, "ablation_algorithms");
}

/// Split aggregation still funnels one aggregator into the driver per
/// iteration and broadcasts the model back; allreduce leaves the reduced
/// value resident on every executor (the extension addressing the paper's
/// §6 limitation).
fn allreduce() {
    print_header(
        "Ablation: allreduce extension",
        "Split aggregation (gather to driver) vs allreduce (resident everywhere)",
        "Same IMM + ring reduce-scatter; allreduce swaps the driver gather for an\n\
         allgather. Driver bytes stop depending on anything.",
    );
    let mut t = Table::new(vec![
        "Paper size",
        "Nodes",
        "Split reduce",
        "Allreduce reduce",
        "Split driver KiB",
        "Allreduce driver KiB",
    ]);
    // Both variants report `strategy = split`; the `variant` key tells the
    // gather-to-driver and allgather rows apart.
    let mut csv = MetricsCsv::new(vec!["size", "nodes", "variant"]);
    for (label, paper_bytes) in [("8MB", 8.0 * MB), ("64MB", 64.0 * MB)] {
        for nodes in [2usize, 4] {
            let sum = ArraySum::new(shaped_bic(nodes, 2), 2, scaled_elems(paper_bytes));
            let split = sum.split(SplitAggOpts::default());
            let all = sum.allreduce();
            csv.row(vec![label.to_string(), nodes.to_string(), "split".into()], &split);
            csv.row(vec![label.to_string(), nodes.to_string(), "allreduce".into()], &all);
            t.row(vec![
                label.to_string(),
                nodes.to_string(),
                fmt_secs(split.reduce.as_secs_f64()),
                fmt_secs(all.reduce.as_secs_f64()),
                (split.bytes_to_driver / 1024).to_string(),
                (all.bytes_to_driver / 1024).to_string(),
            ]);
        }
    }
    t.print();
    println!("\n(allreduce moves more data between executors — the allgather — but frees the");
    println!(" driver; in iterative training it also replaces the next broadcast)");
    let path = csv.write("ablation_allreduce").expect("csv");
    println!("wrote {}", path.display());
}

/// The threaded engine and the discrete-event simulator consume the same
/// network profiles and execute the same algorithm step structure
/// (DESIGN.md §4.1); agreement in *shape* is the criterion — absolute
/// times differ by design (the threaded engine also pays real memory
/// traffic).
fn backend() {
    print_header(
        "Ablation: backend",
        "Tree/Split speedup — threaded engine vs discrete-event simulator",
        "Pass criterion: both backends agree that the speedup grows with aggregator size\n\
         and stays >= 1 everywhere.",
    );
    let mut t = Table::new(vec!["Paper size", "Nodes", "Threaded ratio", "Simulated ratio"]);
    let mut ok = true;
    for (label, paper_bytes) in [("8MB", 8.0 * MB), ("64MB", 64.0 * MB)] {
        for nodes in [1usize, 2, 4] {
            let sum = ArraySum::new(shaped_bic(nodes, 2), 4, scaled_elems(paper_bytes));
            let threaded = sum.tree(TreeAggOpts::default()).total().as_secs_f64()
                / sum.split(SplitAggOpts::default()).total().as_secs_f64();
            let c = SimCluster::bic().with_nodes(nodes);
            let parts = 4 * c.executors();
            let sim = |s| simulate_aggregation(&c, s, paper_bytes, parts, 0.05).total();
            let split = Strategy::Split { parallelism: 4, topology_aware: true };
            let simulated = sim(Strategy::Tree) / sim(split);
            ok &= threaded >= 1.0 && simulated >= 1.0;
            t.row(vec![
                label.to_string(),
                nodes.to_string(),
                format!("{threaded:.2}x"),
                format!("{simulated:.2}x"),
            ]);
        }
    }
    println!("backends agree on split >= tree everywhere: {}\n", if ok { "YES" } else { "NO" });
    finish(&t, "ablation_backend");
}

/// IMM's benefit is measured in *bytes never serialized* (DESIGN.md §4.2):
/// without it every task result crosses the codec; with it, one aggregator
/// per executor does. Unshaped engine, so byte counters are the signal.
fn imm_bytes() {
    print_header(
        "Ablation: IMM serialized bytes",
        "Serialized bytes & messages per aggregation strategy (unshaped engine)",
        "Aggregator = 1 MiB of f64. IMM shrinks serialized volume from O(partitions) to\n\
         O(executors); split aggregation shrinks driver traffic to O(1) aggregators.",
    );
    let mut t = Table::new(vec!["Partitions", "Strategy", "Ser MiB", "Messages", "Driver MiB"]);
    let mut csv = MetricsCsv::new(vec!["partitions"]);
    for per_executor in [2usize, 8, 32] {
        let partitions = (4 * per_executor).to_string();
        let sum = ArraySum::new(ClusterSpec::local(4, 2), per_executor, 128 * 1024);
        for (name, m) in [
            ("tree", sum.tree(TreeAggOpts { depth: 2, imm: false })),
            ("tree+imm", sum.tree(TreeAggOpts { depth: 2, imm: true })),
            ("split", sum.split(SplitAggOpts::default())),
        ] {
            csv.row(vec![partitions.clone()], &m);
            let mib = |b: u64| format!("{:.1}", b as f64 / MB);
            t.row(vec![
                partitions.clone(),
                name.to_string(),
                mib(m.ser_bytes),
                m.messages.to_string(),
                mib(m.bytes_to_driver),
            ]);
        }
    }
    t.print();
    let path = csv.write("ablation_imm_bytes").expect("csv");
    println!("\nwrote {}", path.display());
}

/// One partition's updates for [`sparse_density`]: four batches of sparse
/// (index, delta) pairs, indices drawn by the data layer's Zipf sampler
/// (the power law the synthetic corpora use).
fn zipf_updates(partition: usize, dim: usize, density: f64) -> Vec<Vec<(u32, f64)>> {
    const ITEMS: usize = 4;
    if density >= 1.0 {
        return vec![(0..dim).map(|i| (i as u32, 1.0)).collect(); ITEMS];
    }
    let zipf = Zipf::new(dim, 1.05);
    let mut g = SplitMix64::for_stream(0x5EED_D1CE, partition as u64);
    let draws = ((dim as f64 * density) as usize).max(1);
    (0..ITEMS)
        .map(|_| {
            let mut acc = std::collections::BTreeMap::new();
            for _ in 0..draws {
                *acc.entry(zipf.sample(&mut g) as u32).or_insert(0.0) += 1.0;
            }
            acc.into_iter().collect()
        })
        .collect()
}

fn run_dense(cluster: &LocalCluster, dim: usize, density: f64) -> (Vec<f64>, AggMetrics) {
    let partitions = 2 * cluster.num_executors();
    let data = cluster.generate(partitions, move |p| zipf_updates(p, dim, density));
    let (v, m) = data
        .split_aggregate(
            F64Array(vec![0.0; dim]),
            |mut acc: F64Array, item: &Vec<(u32, f64)>| {
                for &(i, d) in item {
                    acc.0[i as usize] += d;
                }
                acc
            },
            sparker::dense::merge,
            sparker::dense::split,
            sparker::dense::merge_segments,
            sparker::dense::concat,
            SplitAggOpts::default(),
        )
        .unwrap();
    (sparker::dense::to_vec(v), m)
}

/// `adaptive`: `DenseOrSparse` at the default threshold (sparse on the wire
/// until merge fill-in crosses it, then dense — SparCML-style SSAR);
/// otherwise forced sparse (never densifies).
fn run_sparse(
    cluster: &LocalCluster,
    dim: usize,
    density: f64,
    adaptive: bool,
) -> (Vec<f64>, AggMetrics) {
    let partitions = 2 * cluster.num_executors();
    let data = cluster.generate(partitions, move |p| zipf_updates(p, dim, density));
    let split = if adaptive { sparker::sparse::split } else { sparker::sparse::split_sparse };
    let (v, m) = data
        .split_aggregate(
            sparker::sparse::zeros(dim),
            |mut acc: SparseAccum, item: &Vec<(u32, f64)>| {
                for &(i, d) in item {
                    acc.add(i, d);
                }
                acc
            },
            sparker::sparse::merge,
            split,
            sparker::sparse::merge_segments,
            sparker::sparse::concat,
            SplitAggOpts::default(),
        )
        .unwrap();
    (v.to_dense(), m)
}

fn sparse_density() {
    density_sweep(65536, &[1.0, 0.5, 0.1, 0.01, 0.001, 0.0001]);
}

/// The shape CI runs: small vectors, the two densities that carry a bound.
fn sparse_density_smoke() {
    density_sweep(4096, &[1.0, 0.01]);
}

/// Runs the identical split aggregation at each density of per-partition
/// updates with dense (`SumSegment`, every element on the wire),
/// forced-sparse and adaptive segments. All three must produce the identical
/// reduced vector (the drawn values are small integers, so `f64` summation is
/// exact in any order), and the run asserts its own bounds: at <=1% density
/// sparse/adaptive wire bytes are >=5x below dense, and at 100% density
/// adaptive costs at most the per-frame header over dense.
fn density_sweep(dim: usize, densities: &[f64]) {
    print_header(
        "Ablation: sparse segment density sweep",
        "dense vs forced-sparse vs adaptive (SSAR) segments on Zipf updates",
        "Same split aggregation, same data; only the segment representation\n\
         changes. wire_bytes is the unified Payload::size_hint accounting.",
    );
    let cluster = LocalCluster::local(4, 2);

    let mut t = Table::new(vec![
        "Density",
        "Dense bytes",
        "Sparse bytes",
        "Adaptive bytes",
        "Dense time",
        "Sparse time",
        "Adaptive time",
        "Sparse ratio",
    ]);
    let mut csv = MetricsCsv::new(vec!["density", "dim", "variant"]);

    let seg_encodes = sparker_obs::metrics::counter("sparse.segments");
    for &density in densities {
        let (dv, dm) = run_dense(&cluster, dim, density);
        let (sv, sm) = run_sparse(&cluster, dim, density, false);
        let encodes_before = seg_encodes.get();
        let (av, am) = run_sparse(&cluster, dim, density, true);
        let adaptive_encodes = seg_encodes.get() - encodes_before;
        assert_eq!(dv, sv, "forced-sparse result diverged at density {density}");
        assert_eq!(dv, av, "adaptive result diverged at density {density}");

        for (variant, m) in [("dense", &dm), ("sparse", &sm), ("adaptive", &am)] {
            csv.row(vec![density.to_string(), dim.to_string(), variant.to_string()], m);
        }
        t.row(vec![
            format!("{:.4}%", density * 100.0),
            fmt_bytes(dm.wire_bytes() as f64),
            fmt_bytes(sm.wire_bytes() as f64),
            fmt_bytes(am.wire_bytes() as f64),
            fmt_secs(dm.total().as_secs_f64()),
            fmt_secs(sm.total().as_secs_f64()),
            fmt_secs(am.total().as_secs_f64()),
            format!("{:.1}x", dm.wire_bytes() as f64 / sm.wire_bytes() as f64),
        ]);

        if density <= 0.01 {
            for (variant, m) in [("sparse", &sm), ("adaptive", &am)] {
                assert!(
                    m.wire_bytes() * 5 <= dm.wire_bytes(),
                    "{variant} not >=5x below dense at density {density}: {} vs {}",
                    m.wire_bytes(),
                    dm.wire_bytes()
                );
            }
        }
        if density >= 1.0 {
            // DenseOrSparse adds a 9-byte header (f64 threshold + u8 tag)
            // per encoded segment over the raw dense encoding; the obs
            // counter gives the exact encode count.
            let allowance = 9 * adaptive_encodes;
            assert!(
                am.wire_bytes() <= dm.wire_bytes() + allowance,
                "adaptive exceeded dense + header overhead at 100%: {} vs {} (+{allowance})",
                am.wire_bytes(),
                dm.wire_bytes()
            );
        }
    }
    t.print();

    let wire = sparker_obs::metrics::counter("sparse.wire_bytes").get();
    let equiv = sparker_obs::metrics::counter("sparse.dense_equiv_bytes").get();
    println!(
        "\nobs counters: sparse.wire_bytes={} sparse.dense_equiv_bytes={} ({:.1}% of dense)",
        wire,
        equiv,
        100.0 * wire as f64 / equiv.max(1) as f64
    );
    let path = csv.write("ablation_sparse_density").expect("csv");
    println!("wrote {}", path.display());
    println!("all density/equivalence bounds held");
}
