//! `figures <id>… | --list` — the paper's tables and the ablations that
//! have no other generator, one function per id.
//!
//! `tab1`–`tab3` print the paper's tables from this repo's constants;
//! `imm_bytes` and `sparse_density` run the threaded engine and report byte
//! and message counts, which do not depend on the host. Paper-scale curves
//! are `paper_eval`'s series and wall-clock cost is `benchmark/run.sh`'s.
//!
//! `--smoke` shrinks `sparse_density` to the one small shape CI runs
//! (`tools/check_hermetic.sh` step 6); no other id has a smoke shape, so
//! `--smoke` with any other id is a usage error.

use sparker::sparse::SparseAccum;
use sparker_bench::{fmt_bytes, fmt_secs, print_header, ArraySum, MetricsCsv, Table};
use sparker_data::profiles::{all_profiles, TaskKind};
use sparker_data::rng::{SplitMix64, Zipf};
use sparker_engine::cluster::LocalCluster;
use sparker_engine::config::ClusterSpec;
use sparker_engine::metrics::AggMetrics;
use sparker_engine::ops::split_aggregate::SplitAggOpts;
use sparker_engine::ops::tree_aggregate::TreeAggOpts;
use sparker_ml::lda::LdaConfig;
use sparker_ml::logistic::LogisticRegression;
use sparker_ml::svm::LinearSvm;
use sparker_net::codec::F64Array;
use sparker_tuner::cluster::SimCluster;

const MB: f64 = 1024.0 * 1024.0;

/// `(id, what it regenerates, runner)`.
type Figure = (&'static str, &'static str, fn());
const FIGURES: &[Figure] = &[
    ("tab1", "Table 1: configuration of the two evaluation clusters", tab1),
    ("tab2", "Table 2: datasets and their synthetic stand-ins", tab2),
    ("tab3", "Table 3: MLlib models and their hyperparameters", tab3),
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

/// IMM's benefit is measured in *bytes never serialized* (DESIGN.md §4.2):
/// without it every task result crosses the codec; with it, one aggregator
/// per executor does, and split aggregation keeps the driver's share at one
/// aggregator at any partition count. Byte and message counters are the
/// signal, not time.
fn imm_bytes() {
    print_header(
        "Ablation: IMM serialized bytes",
        "Serialized bytes & messages per aggregation strategy (threaded engine)",
        "Aggregator = 1 MiB of f64. IMM shrinks serialized volume from O(partitions) to\n\
         O(executors); split aggregation shrinks driver traffic to O(1) aggregators.",
    );
    let mut t = Table::new(vec!["Partitions", "Strategy", "Ser MiB", "Messages", "Driver MiB"]);
    let mut csv = MetricsCsv::new(vec!["partitions", "variant"]);
    for per_executor in [2usize, 8, 32] {
        let partitions = (4 * per_executor).to_string();
        let sum = ArraySum::new(ClusterSpec::local(4, 2), per_executor, 128 * 1024);
        for (name, m) in [
            ("tree", sum.tree(TreeAggOpts { depth: 2, imm: false })),
            ("tree+imm", sum.tree(TreeAggOpts { depth: 2, imm: true })),
            ("split", sum.split(SplitAggOpts::default())),
        ] {
            csv.row(vec![partitions.clone(), name.to_string()], &m);
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

#[cfg(test)]
mod tests {
    use super::FIGURES;

    /// The `figures` ids a document cites: the words after `` `figures `` or
    /// `--bin figures` (flags skipped) up to the end of that code span.
    fn cited_ids(text: &str) -> Vec<String> {
        let mut ids = Vec::new();
        for line in text.lines() {
            let words: Vec<&str> = line.split_whitespace().collect();
            for (i, w) in words.iter().enumerate() {
                let after_bin = i > 0 && words[i - 1].trim_start_matches('`') == "--bin";
                let opens = *w == "`figures" || (*w == "figures" && after_bin);
                if !opens {
                    continue;
                }
                for next in &words[i + 1..] {
                    let t = next.trim_end_matches([',', '.', ';', ':', ')']);
                    let closes = t.ends_with('`');
                    let word = t.trim_end_matches('`');
                    let is_id = !word.is_empty()
                        && word
                            .chars()
                            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
                    if is_id {
                        ids.push(word.to_string());
                    } else if !word.starts_with("--") {
                        break;
                    }
                    if closes {
                        break;
                    }
                }
            }
        }
        ids
    }

    #[test]
    fn citation_parser_reads_code_spans_and_command_lines() {
        let text = "see `figures tab1`, and run `--bin figures -- --smoke sparse_density`\n\
                    `figures --list` prints ids; `figures <id>` is a placeholder";
        assert_eq!(cited_ids(text), ["tab1", "sparse_density"]);
    }

    /// The crates `text` cites, as `crates/<dir>` paths and as
    /// `sparker-<name>` names (`sparker_<name>` spelled with `-`). The bare
    /// facade name `sparker` has no suffix and is not one.
    fn cited_crates(text: &str) -> Vec<String> {
        let mut cited = Vec::new();
        for word in text.split(|c: char| !(c.is_ascii_alphanumeric() || "_-/".contains(c))) {
            if let Some((_, path)) = word.split_once("crates/") {
                let dir = path.split('/').next().unwrap_or_default();
                if !dir.is_empty() {
                    cited.push(format!("crates/{dir}"));
                }
            } else if let Some(name) = word.strip_prefix("sparker-").or(word.strip_prefix("sparker_")) {
                let name = name.split('/').next().unwrap_or_default();
                if !name.is_empty() {
                    cited.push(format!("sparker-{}", name.replace('_', "-")));
                }
            }
        }
        cited
    }

    #[test]
    fn crate_citation_parser_reads_paths_and_both_spellings() {
        let text = "`crates/net/src/lib.rs` and crates/* hold `sparker_net::codec`, \
                    sparker-obs's spans and the `sparker` facade, not my_sparker_x";
        assert_eq!(cited_crates(text), ["crates/net", "sparker-net", "sparker-obs"]);
    }

    /// README.md and DESIGN.md cite only crates that exist: a workspace
    /// member's directory or name, the root package `sparker-repro` or the
    /// `benchmark/` package `sparker-benchmark`. EXPERIMENTS.md is a ledger
    /// of past runs and keeps the names it had.
    #[test]
    fn every_crate_the_docs_cite_exists() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut known = vec!["sparker-repro".to_string(), "sparker-benchmark".to_string()];
        for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
            let dir = entry.expect("crates/ entry").path();
            let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
                continue;
            };
            let name = manifest.lines().find_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"'));
            known.push(name.unwrap_or_else(|| panic!("{}: no package name", dir.display())).into());
            known.push(format!("crates/{}", dir.file_name().unwrap().to_string_lossy()));
        }
        let mut cited = 0;
        for doc in ["README.md", "DESIGN.md"] {
            let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
            for c in cited_crates(&text) {
                assert!(known.contains(&c), "{doc} cites `{c}`, which is not a crate of this repo");
                cited += 1;
            }
        }
        assert!(cited > 0, "no document cites a crate; the parser is broken");
    }

    #[test]
    fn every_figures_id_the_docs_cite_exists() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut docs: Vec<_> =
            ["README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"]
                .iter()
                .map(|d| root.join(d))
                .collect();
        for entry in std::fs::read_dir(root.join("tools")).expect("tools/") {
            let path = entry.expect("tools/ entry").path();
            if path.extension().is_some_and(|e| e == "sh") {
                docs.push(path);
            }
        }
        let mut cited = 0;
        for doc in &docs {
            let text =
                std::fs::read_to_string(doc).unwrap_or_else(|e| panic!("{}: {e}", doc.display()));
            for id in cited_ids(&text) {
                assert!(
                    FIGURES.iter().any(|f| f.0 == id),
                    "{} cites `figures {id}`, which `figures --list` does not name",
                    doc.display()
                );
                cited += 1;
            }
        }
        assert!(cited > 0, "no document cites a figures id; the parser is broken");
    }
}
