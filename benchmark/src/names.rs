//! The benchmark's vocabulary: workload names, end-to-end metrics and
//! per-layer metrics with their units. `BENCHMARK.json` at the repo root
//! declares the same sets; a unit test keeps the two equal.

/// `(name, why)`; the order is the order a full run executes them in.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "dense_large",
        "4 MiB dense aggregator on the mesh: ring steps, codec, epoch checksum, pool and IMM merge do the work (bandwidth regime)",
    ),
    (
        "sparse_grad",
        "1M-dim sparse logistic gradient: BTreeMap accumulators, variable-length frames and the sparse-to-dense switch on the same path",
    ),
    (
        "small_jobs",
        "two clients of 64-dim jobs through the scheduler: admission, dispatch, stage launch and hand-offs dominate (latency regime)",
    ),
    (
        "lda_train",
        "LDA EM iterations, compute-bound: E-step fold, IMM and broadcast carry it, so every comms change predicts no change here",
    ),
    (
        "tcp_small_jobs",
        "64-dim jobs over 3 executor processes on loopback TCP: isolates per-message cost (IO-thread hop, idle park, control plane)",
    ),
    (
        "tcp_large_jobs",
        "2 MiB jobs over the same TCP cluster: per-byte cost (checksum passes, epoch copy, streaming) with message cost amortised",
    ),
];

/// One declared metric.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// Printed by every `--trace 0` run. `ok_share` is `1 - failed_share`: the
/// driver contract wants metrics that are never 0, and a clean run fails
/// nothing.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("op_ms_p50", "ms"),
    higher("ops_per_s", "1/s"),
    lower("wire_bytes_per_op", "bytes"),
    lower("peak_rss_mb", "MiB"),
    higher("ok_share", "fraction"),
];

/// Printed by every `--trace 1` run. A metric that does not apply to the
/// workload (an LDA phase on a TCP workload, say) reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // net
    higher("net.codec.encode_mb_per_s", "MB/s"),
    higher("net.codec.decode_mb_per_s", "MB/s"),
    higher("net.hash.fnv1a_mb_per_s", "MB/s"),
    lower("net.epoch.wrap_us", "us"),
    lower("net.epoch.unwrap_us", "us"),
    lower("net.pool.cycle_ns", "ns"),
    higher("net.pool.hit_ratio", "ratio"),
    lower("net.mesh.rtt_1k_us_p50", "us"),
    higher("net.mesh.stream_512k_mb_per_s", "MB/s"),
    lower("net.tcp.rtt_1k_us_p50", "us"),
    higher("net.tcp.stream_512k_mb_per_s", "MB/s"),
    higher("net.tcp.frame_write_mb_per_s", "MB/s"),
    higher("net.tcp.frame_read_mb_per_s", "MB/s"),
    lower("net.tcp.rendezvous_ms", "ms"),
    lower("net.sc.msgs_per_op", "count"),
    lower("net.sc.bytes_per_op", "bytes"),
    // collectives
    lower("collectives.ring_rs.ms_p50", "ms"),
    lower("collectives.ring_rs_chunked4.ms_p50", "ms"),
    lower("collectives.halving_rs.ms_p50", "ms"),
    lower("collectives.hier_rs.ms_p50", "ms"),
    lower("collectives.tree_reduce.ms_p50", "ms"),
    lower("collectives.gather.ms_p50", "ms"),
    lower("collectives.ring_rs_small.us_p50", "us"),
    lower("collectives.ring_rs_sparse.ms_p50", "ms"),
    // sparse
    lower("sparse.accum_add_ns", "ns"),
    lower("sparse.accum_merge_us", "us"),
    lower("sparse.segment_merge_ns_per_nnz", "ns"),
    lower("sparse.adaptive_merge_us", "us"),
    higher("sparse.encode_mb_per_s", "MB/s"),
    lower("sparse.wire_ratio_permille", "permille"),
    // engine
    lower("engine.compute_ms_p50", "ms"),
    lower("engine.reduce_ms_p50", "ms"),
    lower("engine.driver_merge_ms_p50", "ms"),
    lower("engine.unaccounted_pct", "%"),
    lower("engine.stage_us_p50", "us"),
    lower("engine.imm.merge_in_us", "us"),
    higher("engine.imm.contended_merges_per_s", "1/s"),
    lower("engine.broadcast_ms_p50", "ms"),
    lower("engine.tree_aggregate.ms_p50", "ms"),
    higher("engine.split_vs_tree_ratio", "ratio"),
    lower("engine.stages_per_op", "count"),
    lower("engine.task_attempts_per_op", "count"),
    lower("engine.downgraded_share", "fraction"),
    lower("engine.multiproc.attempts_per_op", "count"),
    lower("engine.multiproc.fallback_share", "fraction"),
    // sched
    lower("sched.dispatch_us_p50", "us"),
    higher("sched.dispatch_2c_ops_per_s", "1/s"),
    lower("sched.rejected_share", "fraction"),
    // tuner
    lower("tuner.select_us", "us"),
    // ml
    higher("ml.agg.merge_dense_mb_per_s", "MB/s"),
    higher("ml.agg.split_dense_mb_per_s", "MB/s"),
    higher("ml.agg.merge_segments_mb_per_s", "MB/s"),
    higher("ml.agg.concat_dense_mb_per_s", "MB/s"),
    lower("ml.agg.fold_logistic_sparse_ns_per_nnz", "ns"),
    lower("ml.lda.infer_us_per_doc", "us"),
    lower("ml.lda.compute_ms_p50", "ms"),
    lower("ml.lda.reduce_ms_p50", "ms"),
    lower("ml.lda.reduce_share_pct", "%"),
    lower("ml.lda.nll_per_word", "nat"),
    // data
    lower("data.classification_partition_ms", "ms"),
    lower("data.corpus_partition_ms", "ms"),
    lower("data.part_vector_us", "us"),
    // obs
    lower("obs.disabled_span_ns", "ns"),
    lower("obs.enabled_overhead_pct", "%"),
    lower("obs.spans_per_op", "count"),
    // the benchmark's own view of the run
    lower("bench.op_ms_tail", "ms"),
    higher("bench.tail_pct", "%"),
    higher("bench.samples", "count"),
    lower("bench.loadavg_1m", "load"),
    lower("bench.generator_threads", "count"),
    higher("bench.nproc", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use sparker_obs::json::{self, Json};
    use std::collections::BTreeSet;

    /// True for names the driver contract accepts: starts with a letter or
    /// digit, at most 64 of `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no array `{key}`"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn ours(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
            .collect()
    }

    #[test]
    fn names_match_the_contract_charset() {
        for (name, why) in WORKLOADS {
            assert!(valid_name(name), "workload {name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
        }
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "metric {}", d.name);
            assert!(seen.insert(d.name), "metric {} declared twice", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "unit of {}",
                d.name
            );
        }
        assert!(!valid_name(".hidden") && !valid_name("a b") && !valid_name(""));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(declared(&doc, "end_to_end"), ours(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), ours(PER_LAYER));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                let field = |k: &str| w.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("why"))
            })
            .collect();
        let mine: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, mine);
    }
}
