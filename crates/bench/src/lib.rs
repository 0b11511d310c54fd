//! Shared infrastructure for the `figures` runner (`src/bin/figures.rs`).
//!
//! Each `figures` id regenerates one shaped-transport table, figure or
//! ablation of the paper: it prints an aligned text table of the series the
//! paper plots, notes the paper's reference numbers next to ours, and drops
//! a CSV under `results/` for external plotting. Wall-clock cost is
//! `benchmark/run.sh`'s question and paper-scale DES replay is
//! `paper_eval`'s; neither is answered here.

use std::fmt::Write as _;

use sparker_engine::cluster::LocalCluster;
use sparker_engine::config::ClusterSpec;
use sparker_engine::dataset::Dataset;
use sparker_engine::metrics::AggMetrics;
use sparker_engine::ops::split_aggregate::SplitAggOpts;
use sparker_engine::ops::tree_aggregate::TreeAggOpts;
use sparker_net::codec::F64Array;

/// Prints the standard harness header for a figure/table binary.
pub fn print_header(id: &str, title: &str, note: &str) {
    println!("==================================================================");
    println!("{id} — {title}");
    if !note.is_empty() {
        println!("{note}");
    }
    println!("==================================================================");
}

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders with per-column alignment (first column left, rest right).
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = h.chars().count();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    let _ = write!(out, "{:<w$}", c, w = width[i]);
                } else {
                    let _ = write!(out, "  {:>w$}", c, w = width[i]);
                }
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.headers);
        let total: usize = width.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }

    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Writes the table as RFC 4180 CSV under `results/<name>.csv`.
    pub fn write_csv(&self, name: &str) -> std::io::Result<std::path::PathBuf> {
        let lines = std::iter::once(&self.headers).chain(&self.rows).map(|r| csv_line(r));
        write_results(name, lines)
    }
}

/// One RFC 4180 record: a cell containing `,`, `"` or a line break is
/// quoted, with embedded quotes doubled.
fn csv_line(cells: &[String]) -> String {
    let quoted: Vec<String> = cells
        .iter()
        .map(|c| {
            if c.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        })
        .collect();
    quoted.join(",")
}

/// Writes `lines` to `results/<name>.csv` (relative to the invocation dir).
fn write_results(
    name: &str,
    lines: impl Iterator<Item = String>,
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut body: String = lines.collect::<Vec<_>>().join("\n");
    body.push('\n');
    std::fs::write(&path, body)?;
    Ok(path)
}

/// Full-fidelity `AggMetrics` CSV: key columns chosen by the caller
/// (size, nodes, …) followed by every [`AggMetrics`] field via
/// [`AggMetrics::csv_header`] / [`AggMetrics::csv_row`], so every id
/// exports the same machine-readable schema instead of hand-formatting a
/// subset of the fields.
#[derive(Debug, Clone)]
pub struct MetricsCsv {
    key_headers: Vec<String>,
    rows: Vec<String>,
}

impl MetricsCsv {
    pub fn new<S: Into<String>>(key_headers: Vec<S>) -> Self {
        Self { key_headers: key_headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends one measurement: the caller's key cells plus the metrics row.
    pub fn row<S: Into<String>>(&mut self, keys: Vec<S>, m: &AggMetrics) -> &mut Self {
        let keys: Vec<String> = keys.into_iter().map(Into::into).collect();
        assert_eq!(keys.len(), self.key_headers.len(), "key width mismatch");
        self.rows.push(format!("{},{}", csv_line(&keys), m.csv_row()));
        self
    }

    /// Writes `results/<name>.csv` with the combined header.
    pub fn write(&self, name: &str) -> std::io::Result<std::path::PathBuf> {
        let header = format!("{},{}", csv_line(&self.key_headers), AggMetrics::csv_header());
        write_results(name, std::iter::once(header).chain(self.rows.iter().cloned()))
    }
}

/// Time scale of the shaped threaded clusters: network and serializer are
/// slowed 16x so that 16x-smaller messages keep the paper's byte-time
/// products (see `NetProfile::scaled`); strategy *ratios* are the signal.
const TIME_SCALE: f64 = 16.0;

/// `f64` elements of a `paper_bytes` aggregator in the scaled domain.
pub fn scaled_elems(paper_bytes: f64) -> usize {
    ((paper_bytes / TIME_SCALE / 8.0) as usize).max(8)
}

/// `nodes` BIC nodes of two executors each, slowed by `TIME_SCALE`.
pub fn shaped_bic(nodes: usize, cores_per_executor: usize) -> ClusterSpec {
    ClusterSpec::bic(nodes, TIME_SCALE).with_shape(2, cores_per_executor)
}

/// The paper's aggregation micro-benchmark (§5.3): sum an RDD of
/// fixed-length arrays, one array per partition, on a threaded cluster.
/// The data is cached and preloaded, so each strategy's metrics cover the
/// aggregation only.
pub struct ArraySum {
    data: Dataset<Vec<f64>>,
    elems: usize,
}

fn add_array(mut acc: F64Array, v: &Vec<f64>) -> F64Array {
    for (a, x) in acc.0.iter_mut().zip(v) {
        *a += *x;
    }
    acc
}

impl ArraySum {
    pub fn new(spec: ClusterSpec, partitions_per_executor: usize, elems: usize) -> Self {
        let cluster = LocalCluster::new(spec);
        let partitions = partitions_per_executor * cluster.num_executors();
        let data = cluster.generate(partitions, move |p| vec![vec![p as f64; elems]; 1]).cache();
        data.count().expect("preload");
        Self { data, elems }
    }

    fn zero(&self) -> F64Array {
        F64Array(vec![0.0; self.elems])
    }

    pub fn tree(&self, opts: TreeAggOpts) -> AggMetrics {
        let merge = |mut a: F64Array, b: F64Array| {
            sparker::dense::merge(&mut a, b);
            a
        };
        self.data.tree_aggregate(self.zero(), add_array, merge, opts).expect("tree aggregate").1
    }

    pub fn split(&self, opts: SplitAggOpts) -> AggMetrics {
        self.data
            .split_aggregate(
                self.zero(),
                add_array,
                sparker::dense::merge,
                sparker::dense::split,
                sparker::dense::merge_segments,
                sparker::dense::concat,
                opts,
            )
            .expect("split aggregate")
            .1
    }

    pub fn allreduce(&self) -> AggMetrics {
        self.data
            .allreduce_aggregate(
                self.zero(),
                add_array,
                sparker::dense::merge,
                sparker::dense::split,
                sparker::dense::merge_segments,
                sparker::dense::concat,
                None,
            )
            .expect("allreduce aggregate")
            .metrics
    }
}

/// Formats seconds compactly (µs/ms/s) for table cells.
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.2}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// Formats a byte count as a power-of-two unit string.
pub fn fmt_bytes(b: f64) -> String {
    const KB: f64 = 1024.0;
    const MB: f64 = 1024.0 * 1024.0;
    if b >= MB {
        format!("{:.0}MB", b / MB)
    } else if b >= KB {
        format!("{:.0}KB", b / KB)
    } else {
        format!("{b:.0}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]).row(vec!["longer", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].ends_with("1"));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    fn csv_quotes_cells_that_would_break_the_record() {
        let cells = ["plain", "a,b", "say \"hi\"", "two\nlines"].map(String::from);
        assert_eq!(csv_line(&cells), "plain,\"a,b\",\"say \"\"hi\"\"\",\"two\nlines\"");
        let mut c = MetricsCsv::new(vec!["k"]);
        c.row(vec!["x,y"], &AggMetrics::new(sparker_engine::metrics::AggStrategy::Tree));
        assert!(c.rows[0].starts_with("\"x,y\",tree,"), "{}", c.rows[0]);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_panics() {
        Table::new(vec!["a", "b"]).row(vec!["only-one"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(5e-6), "5.00us");
        assert_eq!(fmt_secs(0.015), "15.00ms");
        assert_eq!(fmt_secs(2.5), "2.50s");
        assert_eq!(fmt_bytes(1024.0), "1KB");
        assert_eq!(fmt_bytes(8.0 * 1024.0 * 1024.0), "8MB");
        assert_eq!(fmt_bytes(100.0), "100B");
    }

    #[test]
    fn metrics_csv_rows_align_with_header() {
        use sparker_engine::metrics::AggStrategy;
        let mut c = MetricsCsv::new(vec!["size", "nodes"]);
        c.row(vec!["8MB", "4"], &AggMetrics::new(AggStrategy::Tree));
        let cols = 2 + AggMetrics::csv_header().split(',').count();
        assert_eq!(c.rows[0].split(',').count(), cols);
        assert!(c.rows[0].starts_with("8MB,4,tree,"));
    }

    #[test]
    #[should_panic(expected = "key width mismatch")]
    fn metrics_csv_mismatched_keys_panic() {
        use sparker_engine::metrics::AggStrategy;
        MetricsCsv::new(vec!["a", "b"]).row(vec!["only"], &AggMetrics::new(AggStrategy::Tree));
    }
}
