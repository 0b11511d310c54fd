//! Trace exporters: Chrome trace-event JSON, and the paper's Fig 2
//! time-breakdown table derived from `Stage`-layer spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use crate::trace::{Layer, SpanRecord};

// ---------------------------------------------------------------------------
// Stage-label classification (shared with engine::history::StageEvent::kind)
// ---------------------------------------------------------------------------

/// Strips the engine's op/suffix decorations from a stage label, leaving
/// the stage *kind* the paper's Fig 2 groups by.
///
/// Labels look like `tree-compute-op12`, `tree-shuffle-op7-l1`, or
/// `split-ring-op9-l2-r1`: a kind, then `-op<digits>`, then optional
/// level/round suffixes. The kind is everything before the **first**
/// `-op` that is immediately followed by at least one ASCII digit —
/// scanning from the left means multi-suffix labels keep nothing after
/// the op marker, and a literal `-op` inside the kind (not digit-followed)
/// is not a marker:
///
/// ```
/// use sparker_obs::export::stage_kind;
/// assert_eq!(stage_kind("tree-compute-op12"), "tree-compute");
/// assert_eq!(stage_kind("split-ring-op9-l2-r1"), "split-ring");
/// assert_eq!(stage_kind("collect"), "collect");             // no -op
/// assert_eq!(stage_kind("weird-op"), "weird-op");           // no digits
/// assert_eq!(stage_kind("x-op-y-op7-l1"), "x-op-y");        // first match wins
/// ```
pub fn stage_kind(label: &str) -> &str {
    let bytes = label.as_bytes();
    let mut from = 0;
    while let Some(pos) = label[from..].find("-op") {
        let at = from + pos;
        let after = at + 3;
        if bytes.get(after).is_some_and(|b| b.is_ascii_digit()) {
            return &label[..at];
        }
        from = at + 1; // not a marker — keep scanning past this occurrence
    }
    label
}

/// Is this stage kind part of an aggregation (the paper's Fig 2 numerator:
/// everything `treeAggregate` spends, plus our split/allreduce variants)?
pub fn is_aggregation_kind(kind: &str) -> bool {
    kind.starts_with("tree-") || kind.starts_with("split-") || kind.starts_with("allreduce-")
}

// ---------------------------------------------------------------------------
// Fig 2 breakdown
// ---------------------------------------------------------------------------

/// One row of the Fig 2 table: total wall time attributed to one stage kind.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownRow {
    pub kind: String,
    pub total: Duration,
    pub stages: u64,
    pub aggregation: bool,
}

/// The Fig 2 per-kind time breakdown, derived from `Stage`-layer spans.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    /// Rows sorted by descending total time.
    pub rows: Vec<BreakdownRow>,
}

impl Breakdown {
    /// Sum of all stage wall time.
    pub fn total(&self) -> Duration {
        self.rows.iter().map(|r| r.total).sum()
    }

    /// Fraction of stage time spent in aggregation kinds — the paper's
    /// headline "67% of time in treeAggregate" number.
    pub fn aggregation_share(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        let agg: f64 =
            self.rows.iter().filter(|r| r.aggregation).map(|r| r.total.as_secs_f64()).sum();
        agg / total
    }

    /// Human-readable table.
    pub fn to_text(&self) -> String {
        let total = self.total().as_secs_f64();
        let mut out = String::new();
        let _ = writeln!(out, "{:<28} {:>8} {:>12} {:>7}  agg", "kind", "stages", "total_s", "share");
        for r in &self.rows {
            let share = if total > 0.0 { r.total.as_secs_f64() / total } else { 0.0 };
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>12.6} {:>6.1}%  {}",
                r.kind,
                r.stages,
                r.total.as_secs_f64(),
                share * 100.0,
                if r.aggregation { "*" } else { "" },
            );
        }
        let _ = writeln!(
            out,
            "aggregation share: {:.1}%  (kinds marked *)",
            self.aggregation_share() * 100.0
        );
        out
    }

    /// CSV with header `kind,stages,total_s,share,aggregation`.
    pub fn to_csv(&self) -> String {
        let total = self.total().as_secs_f64();
        let mut out = String::from("kind,stages,total_s,share,aggregation\n");
        for r in &self.rows {
            let share = if total > 0.0 { r.total.as_secs_f64() / total } else { 0.0 };
            let _ = writeln!(
                out,
                "{},{},{:.9},{:.6},{}",
                r.kind,
                r.stages,
                r.total.as_secs_f64(),
                share,
                r.aggregation as u8
            );
        }
        out
    }
}

/// Groups `Stage`-layer spans by [`stage_kind`] into a [`Breakdown`].
/// Non-stage spans are ignored, so a full mixed trace can be passed in.
pub fn stage_breakdown(spans: &[SpanRecord]) -> Breakdown {
    let mut by_kind: BTreeMap<&str, (Duration, u64)> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.layer == Layer::Stage) {
        let e = by_kind.entry(stage_kind(&s.name)).or_default();
        e.0 += Duration::from_nanos(s.dur_ns);
        e.1 += 1;
    }
    let mut rows: Vec<BreakdownRow> = by_kind
        .into_iter()
        .map(|(kind, (total, stages))| BreakdownRow {
            aggregation: is_aggregation_kind(kind),
            kind: kind.to_string(),
            total,
            stages,
        })
        .collect();
    rows.sort_by(|a, b| b.total.cmp(&a.total).then_with(|| a.kind.cmp(&b.kind)));
    Breakdown { rows }
}

// ---------------------------------------------------------------------------
// Figure series (paper-parity evaluation exporter)
// ---------------------------------------------------------------------------

/// One plotted series of a paper figure: `(x, y)` points plus axis labels.
/// The paper-parity harness (`bin/paper_eval`) emits its per-figure curves
/// as a list of these, so every headline claim ships with the exact series
/// that backs it.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureSeries {
    /// Figure identifier, e.g. `"fig03_anti_scaling"`.
    pub figure: String,
    /// Series name within the figure, e.g. `"tree-reduce"`.
    pub series: String,
    /// X-axis meaning, e.g. `"nodes"`.
    pub x_label: String,
    /// Y-axis meaning, e.g. `"seconds"`.
    pub y_label: String,
    /// The series, in plot order.
    pub points: Vec<(f64, f64)>,
}

impl FigureSeries {
    /// Convenience constructor for string-literal call sites.
    pub fn new(
        figure: &str,
        series: &str,
        x_label: &str,
        y_label: &str,
        points: Vec<(f64, f64)>,
    ) -> Self {
        Self {
            figure: figure.to_string(),
            series: series.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            points,
        }
    }
}

/// Serializes figure series as a deterministic JSON array (no timestamps,
/// fixed 9-digit precision — two identical runs produce byte-identical
/// output), parseable by the in-repo [`crate::json`] parser.
pub fn figures_json(figures: &[FigureSeries]) -> String {
    let mut out = String::from("[");
    for (i, f) in figures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"figure\":\"");
        escape_json(&f.figure, &mut out);
        out.push_str("\",\"series\":\"");
        escape_json(&f.series, &mut out);
        out.push_str("\",\"x_label\":\"");
        escape_json(&f.x_label, &mut out);
        out.push_str("\",\"y_label\":\"");
        escape_json(&f.y_label, &mut out);
        out.push_str("\",\"points\":[");
        for (j, (x, y)) in f.points.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{x:.9},{y:.9}]");
        }
        out.push_str("]}");
    }
    out.push_str("\n]\n");
    out
}

// ---------------------------------------------------------------------------
// Chrome trace-event JSON
// ---------------------------------------------------------------------------

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn write_us(ns: u64, out: &mut String) {
    // Microseconds with nanosecond precision, no float rounding.
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

/// Serializes spans as Chrome trace-event JSON (`[{...}, ...]` of
/// complete `"ph":"X"` events), loadable in `chrome://tracing` or
/// <https://ui.perfetto.dev>.
///
/// * `pid` = span scope (each cluster gets its own process track;
///   unscoped gated spans land on pid 0),
/// * `tid` = emitting thread,
/// * `cat` = layer name,
/// * `args` = numeric attributes plus `id`/`parent` for hierarchy.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(128 * spans.len() + 2);
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":\"");
        escape_json(&s.name, &mut out);
        let _ = write!(out, "\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":", s.layer.as_str());
        write_us(s.start_ns, &mut out);
        out.push_str(",\"dur\":");
        write_us(s.dur_ns, &mut out);
        let _ = write!(out, ",\"pid\":{},\"tid\":{}", s.scope, s.tid);
        let _ = write!(out, ",\"args\":{{\"id\":{},\"parent\":{}", s.id, s.parent);
        for (k, v) in &s.args {
            out.push_str(",\"");
            escape_json(k, &mut out);
            let _ = write!(out, "\":{v}");
        }
        out.push_str("}}");
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn stage(name: &str, dur_ms: u64) -> SpanRecord {
        SpanRecord {
            id: 1,
            parent: 0,
            scope: 1,
            tid: 0,
            layer: Layer::Stage,
            name: name.to_string(),
            start_ns: 0,
            dur_ns: dur_ms * 1_000_000,
            args: vec![("tasks", 4)],
        }
    }

    #[test]
    fn stage_kind_multi_suffix_cases() {
        assert_eq!(stage_kind("tree-compute-op12"), "tree-compute");
        assert_eq!(stage_kind("tree-shuffle-op7-l1"), "tree-shuffle");
        assert_eq!(stage_kind("split-ring-op9-l2-r1"), "split-ring");
        assert_eq!(stage_kind("split-ring-op3"), "split-ring");
        assert_eq!(stage_kind("collect"), "collect");
        assert_eq!(stage_kind("my-opaque-label"), "my-opaque-label");
        assert_eq!(stage_kind("weird-op"), "weird-op");
        assert_eq!(stage_kind("trailing-op-"), "trailing-op-");
        assert_eq!(stage_kind("x-op-y-op7-l1"), "x-op-y");
        assert_eq!(stage_kind("-op1"), "");
    }

    #[test]
    fn breakdown_groups_and_shares() {
        let spans = vec![
            stage("tree-compute-op1", 60),
            stage("tree-compute-op2", 40),
            stage("count-op3", 25),
            stage("broadcast-op3", 75),
        ];
        let b = stage_breakdown(&spans);
        assert_eq!(b.rows.len(), 3);
        assert_eq!(b.rows[0].kind, "tree-compute");
        assert_eq!(b.rows[0].stages, 2);
        assert_eq!(b.rows[0].total, Duration::from_millis(100));
        assert!(b.rows[0].aggregation);
        assert!((b.aggregation_share() - 0.5).abs() < 1e-9);
        let csv = b.to_csv();
        assert!(csv.starts_with("kind,stages,total_s,share,aggregation\n"));
        assert!(csv.contains("tree-compute,2,0.100000000,0.500000,1"));
        assert!(b.to_text().contains("aggregation share: 50.0%"));
    }

    #[test]
    fn chrome_json_parses_with_in_repo_parser() {
        let mut s = stage("tree-\"quoted\"\nlabel-op1", 2);
        s.tid = 7;
        let out = chrome_trace_json(&[s]);
        let v = json::parse(&out).expect("valid json");
        let arr = v.as_array().expect("array");
        assert_eq!(arr.len(), 1);
        let e = &arr[0];
        assert_eq!(e.get("name").and_then(|n| n.as_str()), Some("tree-\"quoted\"\nlabel-op1"));
        assert_eq!(e.get("cat").and_then(|c| c.as_str()), Some("stage"));
        assert_eq!(e.get("ph").and_then(|p| p.as_str()), Some("X"));
        assert_eq!(e.get("dur").and_then(|d| d.as_f64()), Some(2000.0));
        assert_eq!(e.get("tid").and_then(|t| t.as_f64()), Some(7.0));
        let args = e.get("args").expect("args");
        assert_eq!(args.get("tasks").and_then(|t| t.as_f64()), Some(4.0));
    }

    #[test]
    fn figures_json_round_trips_through_in_repo_parser() {
        let figs = vec![
            FigureSeries::new(
                "fig03_anti_scaling",
                "tree-\"reduce\"",
                "nodes",
                "seconds",
                vec![(1.0, 111.25), (8.0, 187.5)],
            ),
            FigureSeries::new("fig17_e2e", "speedup", "workload", "x", vec![]),
        ];
        let out = figures_json(&figs);
        let v = json::parse(&out).expect("valid json");
        let arr = v.as_array().expect("array");
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("figure").and_then(|f| f.as_str()), Some("fig03_anti_scaling"));
        assert_eq!(arr[0].get("series").and_then(|f| f.as_str()), Some("tree-\"reduce\""));
        let pts = arr[0].get("points").and_then(|p| p.as_array()).expect("points");
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[1].as_array().unwrap()[1].as_f64(), Some(187.5));
        assert_eq!(arr[1].get("points").and_then(|p| p.as_array()).map(|p| p.len()), Some(0));
        // Determinism: rendering is a pure function of the input.
        assert_eq!(out, figures_json(&figs));
    }

    #[test]
    fn empty_trace_is_valid_json() {
        let out = chrome_trace_json(&[]);
        let v = json::parse(&out).expect("valid json");
        assert_eq!(v.as_array().map(|a| a.len()), Some(0));
    }
}
