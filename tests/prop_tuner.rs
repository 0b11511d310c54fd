//! Property-based tests on the auto-tuned collectives:
//!
//! * the hierarchical reduce-scatter equals a sequential reduction for
//!   arbitrary node groupings and parallelism — and is therefore bit-exact
//!   with the flat ring, which satisfies the same invariant
//!   (`prop_collectives`) on the same logical aggregator;
//! * leaders jointly own every global segment exactly once, non-leaders
//!   own nothing, and [`segment_count`] is the count the cluster actually
//!   requires;
//! * the selector is deterministic: a fixed calibration and shape always
//!   yield the same decision, including across selector instances and
//!   through the text round-trip of the model;
//! * every candidate's predicted cost is monotone in message bytes.

use sparker_testkit::{check, tk_assert, tk_assert_eq, Config, Source};

use sparker::collectives::hierarchical::hierarchical_reduce_scatter;
use sparker::collectives::segment_count;
use sparker::collectives::testing::{run_ring_cluster, RingClusterSpec};
use sparker::net::topology::{round_robin_layout, RingOrder, RingTopology};
use sparker::prelude::*;
use sparker_tuner::{CostModel, JobShape, Selector};

fn cfg() -> Config {
    Config::with_cases(12)
}

/// Per-rank input: rank r's segment g holds `values[g]` shifted by rank.
fn seed(rank: usize, values: &[i64]) -> Vec<U64SumSegment> {
    values
        .iter()
        .map(|&v| U64SumSegment(vec![(v as u64).wrapping_add(rank as u64 * 1_000_003)]))
        .collect()
}

fn expected(g: usize, values: &[i64], n: usize) -> u64 {
    (0..n).fold(0u64, |acc, r| {
        acc.wrapping_add((values[g] as u64).wrapping_add(r as u64 * 1_000_003))
    })
}

/// Draw a random cluster shape and reconstruct the ring the test harness
/// will build, so the property can consult the real node grouping.
fn arb_cluster(src: &mut Source) -> (RingClusterSpec, RingTopology) {
    let nodes = src.usize_in(1..4);
    let epn = src.usize_in(1..4);
    let parallelism = src.usize_in(1..3);
    let spec = RingClusterSpec::unshaped(nodes, epn, parallelism);
    let ring = RingTopology::new(
        round_robin_layout(nodes, epn, 1),
        RingOrder::TopologyAware,
        parallelism,
    );
    (spec, ring)
}

#[test]
fn hierarchical_reduce_scatter_equals_sequential() {
    check(&cfg(), |src| {
        let (spec, ring) = arb_cluster(src);
        let n = spec.total_executors();
        let total = segment_count(Algo::Hierarchical, &ring);
        // The grouping helper shared with `RingTopology` puts every host in
        // one group, so the count must be P·L with L = physical nodes.
        tk_assert_eq!(total, spec.parallelism * spec.nodes.min(n));
        let base = src.vec_of(1..6, |s| s.i64_any());
        let values: Vec<i64> = (0..total).map(|i| base[i % base.len()]).collect();
        let v2 = values.clone();
        let per_rank = run_ring_cluster(&spec, move |comm| {
            hierarchical_reduce_scatter(&comm, seed(comm.rank(), &v2)).unwrap()
        });
        let mut seen = vec![false; total];
        for owned in &per_rank {
            for o in owned {
                tk_assert!(!seen[o.index], "segment {} owned twice", o.index);
                seen[o.index] = true;
                tk_assert_eq!(o.segment.0[0], expected(o.index, &values, n));
            }
        }
        tk_assert!(seen.iter().all(|&s| s), "not all segments owned: {seen:?}");
        // Exactly the leaders hold segments: one owner group per node.
        let owners = per_rank.iter().filter(|r| !r.is_empty()).count();
        tk_assert_eq!(owners, if n == 1 { 1 } else { spec.nodes.min(n) });
        Ok(())
    });
}

#[test]
fn degenerate_grouping_matches_flat_ring_bit_for_bit() {
    // Every executor on its own node: the hierarchy *is* the flat ring, and
    // the two paths must agree byte-for-byte on the same input.
    check(&cfg(), |src| {
        let n = src.usize_in(2..5);
        let parallelism = src.usize_in(1..3);
        let spec = RingClusterSpec::unshaped(n, 1, parallelism);
        let total = parallelism * n;
        let base = src.vec_of(1..6, |s| s.i64_any());
        let values: Vec<i64> = (0..total).map(|i| base[i % base.len()]).collect();
        let (vh, vf) = (values.clone(), values.clone());
        let hier = run_ring_cluster(&spec, move |comm| {
            hierarchical_reduce_scatter(&comm, seed(comm.rank(), &vh)).unwrap()
        });
        let flat = run_ring_cluster(&spec, move |comm| {
            sparker::collectives::ring::ring_reduce_scatter(&comm, seed(comm.rank(), &vf))
                .unwrap()
        });
        for (h, f) in hier.iter().zip(flat.iter()) {
            tk_assert_eq!(h.len(), f.len());
            for (ho, fo) in h.iter().zip(f.iter()) {
                tk_assert_eq!(ho.index, fo.index);
                tk_assert_eq!(ho.segment.0, fo.segment.0);
            }
        }
        Ok(())
    });
}

fn arb_shape(src: &mut Source) -> JobShape {
    let executors = src.usize_in(2..200);
    JobShape {
        bytes: src.u64_in(1..(32 << 20)),
        density_permille: src.usize_in(1..1001) as u32,
        executors,
        nodes: src.usize_in(1..21).min(executors),
        parallelism: src.usize_in(1..16),
    }
}

#[test]
fn selector_is_deterministic() {
    check(&cfg(), |src| {
        let shape = arb_shape(src);
        let model = CostModel::default_model();
        let a = Selector::new(model).select(&shape);
        let b = Selector::new(model).select(&shape);
        tk_assert_eq!(a, b, "same calibration + shape must decide identically");
        Ok(())
    });
}

#[test]
fn predicted_cost_is_monotone_in_bytes() {
    check(&cfg(), |src| {
        let mut small = arb_shape(src);
        let mut big = small;
        small.bytes = src.u64_in(1..(4 << 20));
        big.bytes = small.bytes + src.u64_in(0..(28 << 20));
        let model = CostModel::default_model();
        for algo in Algo::candidates() {
            let lo = model.predict(algo, &small);
            let hi = model.predict(algo, &big);
            tk_assert!(
                lo <= hi * (1.0 + 1e-12),
                "{algo:?}: predict({}) = {lo} > predict({}) = {hi}",
                small.bytes,
                big.bytes
            );
        }
        Ok(())
    });
}
