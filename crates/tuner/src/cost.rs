//! Alpha-beta cost model per link class.
//!
//! The classic Hockney model: sending `b` bytes over a link costs
//! `alpha + b·beta` seconds. Sparker's aggregation wall-clock is dominated
//! by exactly two link classes — intra-node (shared memory / loopback) and
//! inter-node (the NIC) — plus the per-byte merge cost, so five scalars
//! predict every algorithm in the family well enough to *rank* them, which
//! is all a selector needs. The scalars are either defaults, derived from
//! a [`NetProfile`], or fitted offline from obs-recorded step
//! spans (see [`crate::calibrate`]).

use sparker_collectives::Algo;

use crate::profile::NetProfile;

/// One link class: `alpha + bytes · beta` seconds per transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Fixed per-transfer cost (latency + framing), seconds.
    pub alpha_s: f64,
    /// Inverse bandwidth, seconds per byte.
    pub beta_s_per_byte: f64,
}

/// The shape of one aggregation job, as far as the cost model cares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobShape {
    /// Dense wire size of one aggregator (8 bytes per f64 element).
    pub bytes: u64,
    /// Non-zero fraction in permille; 1000 = fully dense.
    pub density_permille: u32,
    /// Ring width `N`.
    pub executors: usize,
    /// Physical nodes `L` the executors spread over.
    pub nodes: usize,
    /// PDR channel parallelism `P`.
    pub parallelism: usize,
}

impl JobShape {
    /// Dense shape helper.
    pub fn dense(bytes: u64, executors: usize, nodes: usize, parallelism: usize) -> Self {
        Self { bytes, density_permille: 1000, executors, nodes, parallelism }
    }
}

/// Per-chunk framing overhead on the ring step alpha: each extra pipeline
/// chunk adds another frame's fixed cost, partially hidden by the overlap.
const CHUNK_ALPHA_OVERHEAD: f64 = 0.1;
/// A sparse coordinate costs an index + a value on the wire (~2x the dense
/// per-element bytes), so sparse only pays below ~50% density.
const SPARSE_WIRE_FACTOR: f64 = 2.0;

/// The calibrated model: two link classes + merge throughput + the
/// selector's tolerance margin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    pub intra: LinkParams,
    pub inter: LinkParams,
    /// Per-byte cost of merging one incoming segment into an accumulator.
    pub merge_s_per_byte: f64,
    /// Selector tolerance: predicted-best may trail true-best by at most
    /// this much (permille) before we call it a misprediction.
    pub margin_permille: u32,
}

impl CostModel {
    /// Uncalibrated defaults: 10 GbE-class NIC, shared-memory intra links,
    /// ~8 GB/s merge. Good enough to rank algorithms before any trace
    /// exists; calibration replaces them with fitted values.
    pub fn default_model() -> Self {
        Self {
            intra: LinkParams { alpha_s: 5e-6, beta_s_per_byte: 1.0 / 10e9 },
            inter: LinkParams { alpha_s: 120e-6, beta_s_per_byte: 1.0 / 1.17e9 },
            merge_s_per_byte: 1.0 / 8e9,
            margin_permille: 150,
        }
    }

    /// Derives the model from a [`NetProfile`]. The DES runs on the same
    /// profiles, so this is the exact model for simulated ground truth; it
    /// says nothing about the in-process mesh or TCP, which only the
    /// span-fitted model ([`crate::calibrate`]) describes.
    pub fn from_profile(profile: &NetProfile, merge_bandwidth: f64, margin_permille: u32) -> Self {
        Self {
            intra: LinkParams {
                alpha_s: profile.intra_node.latency.as_secs_f64(),
                beta_s_per_byte: 1.0 / profile.intra_node.bandwidth,
            },
            inter: LinkParams {
                alpha_s: profile.inter_node.latency.as_secs_f64(),
                beta_s_per_byte: 1.0 / profile.inter_node.bandwidth,
            },
            merge_s_per_byte: 1.0 / merge_bandwidth,
            margin_permille,
        }
    }

    /// Wire bytes after the density-adaptive representation choice: sparse
    /// coordinates below the break-even density, dense above.
    pub fn wire_bytes(&self, shape: &JobShape) -> f64 {
        let dense = shape.bytes as f64;
        let sparse = dense * (shape.density_permille as f64 / 1000.0) * SPARSE_WIRE_FACTOR;
        sparse.min(dense)
    }

    /// Predicted wall-clock seconds for running `algo` on `shape`
    /// (reduce-scatter phase; the gather-to-driver tail is common to every
    /// algorithm and cancels out of the ranking).
    ///
    /// Strictly monotonic in `bytes` for every algorithm: all terms are
    /// `alpha`-affine plus positive per-byte slopes.
    pub fn predict(&self, algo: Algo, shape: &JobShape) -> f64 {
        let n = shape.executors.max(1) as f64;
        let l = (shape.nodes.max(1) as f64).min(n);
        let m = (n / l).ceil(); // executors per node = concurrent NIC flows
        let p = shape.parallelism.max(1) as f64;
        let w = self.wire_bytes(shape);
        // Striped segment merges run P-wide across channels.
        let mgp = self.merge_s_per_byte / p;
        // With topology-aware ordering every ring step still bottlenecks on
        // its slowest concurrent link: inter-node whenever L > 1 — but only
        // ONE flow per NIC (the paper's Figure 14 argument).
        let link = if l > 1.0 { self.inter } else { self.intra };
        match algo {
            Algo::FlatRing => {
                (n - 1.0) * link.alpha_s + frac(n) * w * (link.beta_s_per_byte + mgp)
            }
            Algo::ChunkedRing(c) => {
                let c = f64::from(c).max(1.0);
                let (fast, slow) = if link.beta_s_per_byte > mgp {
                    (mgp, link.beta_s_per_byte)
                } else {
                    (link.beta_s_per_byte, mgp)
                };
                // Pipelining overlaps the cheaper of wire/merge behind the
                // dearer one, at the price of C frames' worth of alpha.
                (n - 1.0) * link.alpha_s * (1.0 + CHUNK_ALPHA_OVERHEAD * (c - 1.0))
                    + frac(n) * w * (slow + fast / c)
            }
            Algo::Halving => {
                let rounds = n.log2().ceil();
                if l <= 1.0 {
                    rounds * self.intra.alpha_s
                        + frac(n) * w * (self.intra.beta_s_per_byte + mgp)
                } else {
                    // The long-distance rounds (the first ~log2 L) cross the
                    // NIC with all m of a node's executors sending at once —
                    // the contention the topology-aware ring avoids. The
                    // remaining rounds stay on-node.
                    rounds * self.inter.alpha_s
                        + w * (frac(l) * m * self.inter.beta_s_per_byte
                            + (frac(n) - frac(l)) * self.intra.beta_s_per_byte
                            + frac(n) * mgp)
                }
            }
            Algo::Tree => {
                // Whole aggregators on every level, merged whole (no segment
                // striping) — the anti-scaling baseline of Figures 1-4.
                let rounds = n.log2().ceil();
                let contention = (m / 2.0).max(1.0);
                rounds
                    * (link.alpha_s
                        + w * (link.beta_s_per_byte * contention + self.merge_s_per_byte))
            }
            Algo::Hierarchical => {
                if l >= n {
                    // Every executor its own node: identical to the flat ring.
                    return self.predict(Algo::FlatRing, shape);
                }
                // Fold: members stream concurrently over shared memory; the
                // leader's P-wide striped merges are the critical path.
                let fold = (m - 1.0) * self.intra.alpha_s
                    + w * self.intra.beta_s_per_byte
                    + (m - 1.0) * w * mgp;
                // Then the flat ring recurrence, but over L leaders only.
                let ring = if l > 1.0 {
                    (l - 1.0) * self.inter.alpha_s
                        + frac(l) * w * (self.inter.beta_s_per_byte + mgp)
                } else {
                    0.0
                };
                fold + ring
            }
        }
    }
}

/// The ring's bandwidth term: `(k-1)/k` of one aggregator crosses each rank.
fn frac(k: f64) -> f64 {
    if k <= 1.0 {
        0.0
    } else {
        (k - 1.0) / k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(bytes: u64) -> JobShape {
        JobShape::dense(bytes, 48, 8, 4)
    }

    #[test]
    fn every_algorithm_is_monotone_in_bytes() {
        let model = CostModel::default_model();
        for algo in Algo::candidates() {
            let mut last = -1.0;
            for kib in [1u64, 4, 16, 64, 256, 1024, 4096] {
                let t = model.predict(algo, &shape(kib * 1024));
                assert!(
                    t > last,
                    "{algo:?} not monotone: {t} after {last} at {kib} KiB"
                );
                last = t;
            }
        }
    }

    #[test]
    fn tree_loses_badly_at_scale() {
        let model = CostModel::default_model();
        let s = shape(4 << 20);
        assert!(
            model.predict(Algo::Tree, &s) > 3.0 * model.predict(Algo::FlatRing, &s),
            "whole-aggregator tree must anti-scale vs the ring"
        );
    }

    #[test]
    fn hierarchical_beats_flat_multi_node_large() {
        let model = CostModel::default_model();
        // 120 executors over 10 nodes (paper's AWS shape), 4 MiB dense.
        let s = JobShape::dense(4 << 20, 120, 10, 4);
        assert!(model.predict(Algo::Hierarchical, &s) < model.predict(Algo::FlatRing, &s));
    }

    #[test]
    fn hierarchical_degenerates_to_flat_ring() {
        let model = CostModel::default_model();
        let s = JobShape::dense(1 << 20, 8, 8, 2);
        assert_eq!(model.predict(Algo::Hierarchical, &s), model.predict(Algo::FlatRing, &s));
    }

    #[test]
    fn sparse_wire_bytes_cap_at_dense() {
        let model = CostModel::default_model();
        let mut s = shape(1 << 20);
        s.density_permille = 10; // 1% dense -> ~2% of dense wire
        assert!(model.wire_bytes(&s) < 0.03 * (1 << 20) as f64);
        s.density_permille = 900; // 90%: sparse would cost 1.8x dense
        assert_eq!(model.wire_bytes(&s), (1 << 20) as f64);
    }
}
