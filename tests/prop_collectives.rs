//! Property-based tests on the core invariants:
//!
//! * reduce-scatter (ring and halving) followed by reassembly equals a
//!   sequential reduction, for arbitrary cluster shapes and values;
//! * the engine's one dispatch runs every reduce-scatter algorithm so that
//!   each index of its segment space is owned exactly once, fully reduced;
//! * the producer form of the ring (each lane splits its own indices) owns
//!   exactly what `ring_reduce_scatter_chunked` owns, and a rank runs its
//!   `P` lanes on itself plus `P − 1` threads;
//! * the in-place dense-sum ring kernel equals the owned kernel over
//!   `split_dense`/`merge_segments`, bit for bit and frame for frame;
//! * the codec round-trips arbitrary payloads;
//! * `slice_bounds` tiles any length exactly.

use sparker_testkit::{check, tk_assert, tk_assert_eq, Config, Source};

use sparker::collectives::gather::gather_segments;
use sparker::collectives::halving::recursive_halving_reduce_scatter;
use sparker::collectives::lanes::run_lanes;
use std::sync::Arc;

use sparker::collectives::ring::{
    ring_reduce_scatter, ring_reduce_scatter_chunked, ring_reduce_scatter_dense,
    ring_reduce_scatter_produced_by, OwnedSegment,
};
use sparker::collectives::segment::{merge_segments, split_dense, Segment};
use sparker::collectives::testing::{run_on_ring, run_ring_cluster, RingClusterSpec};
use sparker::collectives::{segment_count, RingComm};
use sparker::net::topology::{round_robin_layout, RingTopology};
use sparker::net::transport::MeshTransport;
use sparker::engine::ops::reduce::reduce_scatter;
use sparker::prelude::*;

fn cfg() -> Config {
    Config::with_cases(12)
}

fn arb_base(src: &mut Source, max_len: usize) -> Vec<i64> {
    src.vec_of(1..max_len, |s| s.i64_any())
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

#[test]
fn ring_reduce_scatter_equals_sequential() {
    check(&cfg(), |src| {
        let nodes = src.usize_in(1..4);
        let epn = src.usize_in(1..3);
        let parallelism = src.usize_in(1..4);
        let base = arb_base(src, 6);
        let spec = RingClusterSpec::unshaped(nodes, epn, parallelism);
        let n = spec.total_executors();
        let total = parallelism * n;
        // Tile the arbitrary values over the required segment count.
        let values: Vec<i64> = (0..total).map(|i| base[i % base.len()]).collect();
        let v2 = values.clone();
        let per_rank = run_ring_cluster(&spec, move |comm| {
            let segs = seed(comm.rank(), &v2);
            ring_reduce_scatter(&comm, segs).unwrap()
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
        Ok(())
    });
}

#[test]
fn halving_reduce_scatter_equals_sequential() {
    check(&cfg(), |src| {
        let nodes = src.usize_in(1..3);
        let epn = src.usize_in(1..4);
        let mult = src.usize_in(1..4);
        let base = arb_base(src, 6);
        let spec = RingClusterSpec::unshaped(nodes, epn, 1);
        let n = spec.total_executors();
        let mut p2 = 1usize;
        while p2 * 2 <= n {
            p2 *= 2;
        }
        let total = p2 * mult;
        let values: Vec<i64> = (0..total).map(|i| base[i % base.len()]).collect();
        let v2 = values.clone();
        let per_rank = run_ring_cluster(&spec, move |comm| {
            let segs = seed(comm.rank(), &v2);
            recursive_halving_reduce_scatter(&comm, segs).unwrap()
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
        Ok(())
    });
}

#[test]
fn every_dispatched_algorithm_owns_each_segment_once_fully_reduced() {
    check(&cfg(), |src| {
        let nodes = src.usize_in(1..4);
        let epn = src.usize_in(1..3);
        let parallelism = src.usize_in(1..4);
        let base = arb_base(src, 6);
        let spec = RingClusterSpec::unshaped(nodes, epn, parallelism);
        let n = spec.total_executors();
        for algo in Algo::candidates().into_iter().filter(|a| *a != Algo::Tree) {
            let per_rank = run_ring_cluster(&spec, |comm| {
                let total = segment_count(algo, comm.ring());
                let values: Vec<i64> = (0..total).map(|i| base[i % base.len()]).collect();
                let segs = seed(comm.rank(), &values);
                let produce = |g: usize| segs[g].clone();
                let merge = |a: &mut U64SumSegment, b: U64SumSegment| a.merge_from(&b);
                (values, reduce_scatter(&comm, algo, &produce, &merge).unwrap())
            });
            let values = &per_rank[0].0;
            let mut seen = vec![false; values.len()];
            for (_, owned) in &per_rank {
                for o in owned {
                    tk_assert!(!seen[o.index], "{algo:?}: segment {} owned twice", o.index);
                    seen[o.index] = true;
                    tk_assert_eq!(o.segment.0[0], expected(o.index, values, n), "{algo:?}");
                }
            }
            tk_assert!(seen.iter().all(|&s| s), "{algo:?}: not all segments owned: {seen:?}");
        }
        Ok(())
    });
}

/// Runs the producer form and `ring_reduce_scatter_chunked` over
/// `make(rank, g)` and requires identical owned segments on every rank, and
/// `P` distinct lane threads per rank of which one is the rank's own.
fn check_producer_form<V>(
    spec: &RingClusterSpec,
    chunks: usize,
    make: impl Fn(usize, usize) -> V + Send + Sync,
) -> Result<(), sparker_testkit::PropError>
where
    V: Segment + PartialEq + std::fmt::Debug,
{
    let p = spec.parallelism;
    let total = p * spec.total_executors() * chunks;
    let merge = |acc: &mut V, incoming: V| acc.merge_from(&incoming);
    let by_vec = run_ring_cluster(spec, |comm| {
        let segs = (0..total).map(|g| make(comm.rank(), g)).collect();
        ring_reduce_scatter_chunked(&comm, segs, chunks).unwrap()
    });
    let by_producer = run_ring_cluster(spec, |comm| {
        let threads = std::sync::Mutex::new(std::collections::HashSet::new());
        let produce = |g: usize| {
            threads.lock().unwrap().insert(std::thread::current().id());
            make(comm.rank(), g)
        };
        let owned = ring_reduce_scatter_produced_by(&comm, &produce, &merge, chunks).unwrap();
        let threads = threads.into_inner().unwrap();
        (owned, threads.len(), threads.contains(&std::thread::current().id()))
    });
    for (rank, ((owned, lane_threads, caller_is_a_lane), want)) in
        by_producer.into_iter().zip(by_vec).enumerate()
    {
        tk_assert_eq!(owned, want, "rank {rank}");
        tk_assert_eq!(lane_threads, p, "rank {rank}: one thread per lane");
        tk_assert!(caller_is_a_lane, "rank {rank}: the caller must be lane 0");
    }
    Ok(())
}

#[test]
fn producer_form_owns_exactly_what_the_vec_form_owns() {
    check(&cfg(), |src| {
        let n = src.usize_in(1..7);
        let p = src.usize_in(1..5);
        let chunks = src.usize_in(1..5);
        let spec = RingClusterSpec::unshaped(1, n, p);
        // Uneven segments, empty ones included; a segment has one shape on
        // every rank, as `splitOp` guarantees.
        let lens: Vec<usize> = (0..p * n * chunks).map(|_| src.usize_in(0..6)).collect();
        let value = |rank: usize, g: usize, i: usize| (rank * 131 + g * 17 + i) as u64;

        check_producer_form(&spec, chunks, |rank, g| {
            U64SumSegment((0..lens[g]).map(|i| value(rank, g, i)).collect())
        })?;
        // Mostly-zero values through the density-adaptive segments: sparse
        // frames, and the switch to dense as the merges fill them in.
        let threshold = src.choose(&[0.0, 0.5, 2.0]);
        check_producer_form(&spec, chunks, |rank, g| {
            let dense: Vec<f64> = (0..lens[g])
                .map(|i| if (rank + g + i) % 3 == 0 { value(rank, g, i) as f64 } else { 0.0 })
                .collect();
            DenseOrSparse::from_dense(&dense, threshold)
        })
    });
}

/// Runs `f` on every rank of a fresh `n`-rank, `p`-channel mesh; returns
/// the per-rank results and the frames and bytes the mesh carried.
fn on_fresh_mesh<R: Send>(
    n: usize,
    p: usize,
    f: impl Fn(RingComm) -> R + Send + Sync,
) -> (Vec<R>, (u64, u64)) {
    let execs = round_robin_layout(1, n, 1);
    let net = MeshTransport::unshaped(&execs, p);
    let ring = Arc::new(RingTopology::new(execs, RingOrder::TopologyAware, p));
    let out = run_on_ring(net.clone(), ring, &f);
    let stats = net.stats();
    (out, (stats.messages, stats.bytes))
}

/// Segment `g`'s range of an aggregator.
type Bounds<'a> = dyn Fn(usize) -> std::ops::Range<usize> + Sync + 'a;

fn bits(owned: &[OwnedSegment<SumSegment>]) -> Vec<(usize, Vec<u64>)> {
    owned.iter().map(|o| (o.index, o.segment.0.iter().map(|x| x.to_bits()).collect())).collect()
}

/// The in-place dense-sum kernel and the owned kernel over `split_dense` and
/// `merge_segments` (or copies of the same ceil-block views) own the same
/// segments bit for bit, on non-integer data where a different summation
/// order would show, and put the same frames and bytes on the mesh.
#[test]
fn dense_kernel_matches_the_owned_kernel_bit_for_bit() {
    check(&cfg(), |src| {
        let n = src.usize_in(1..7);
        let p = src.usize_in(1..4);
        let chunks = src.usize_in(1..4);
        let total = p * n * chunks;
        let below = src.usize_in(0..total);
        let above = total + src.usize_in(1..2 * total + 1);
        for dim in [0, 1, below, above] {
            let data: Vec<F64Array> = (0..n)
                .map(|_| F64Array((0..dim).map(|_| src.f64_in(-1.0..1.0) / 3.0).collect()))
                .collect();
            let slices = |g| {
                let (lo, hi) = slice_bounds(dim, g, total);
                lo..hi
            };
            let ceil_blocks = |g: usize| {
                let len = dim.div_ceil(total);
                (g * len).min(dim)..((g + 1) * len).min(dim)
            };
            let views: [(&str, &Bounds<'_>); 2] = [("slice_bounds", &slices), ("ceil blocks", &ceil_blocks)];
            for (name, bounds) in views {
                let (dense, dense_sc) = on_fresh_mesh(n, p, |comm| {
                    let u = &data[comm.rank()];
                    ring_reduce_scatter_dense(&comm, &u.0, &bounds, chunks).unwrap()
                });
                let (owned, owned_sc) = on_fresh_mesh(n, p, |comm| {
                    let u = &data[comm.rank()];
                    let produce = |g| match name {
                        "slice_bounds" => split_dense(u, g, total),
                        _ => SumSegment(u.0[bounds(g)].to_vec()),
                    };
                    ring_reduce_scatter_produced_by(&comm, &produce, &merge_segments, chunks).unwrap()
                });
                for (rank, (d, o)) in dense.iter().zip(&owned).enumerate() {
                    tk_assert_eq!(bits(d), bits(o), "{name}, dim {dim}, rank {rank}");
                }
                tk_assert_eq!(dense_sc, owned_sc, "{name}, dim {dim}: sc messages and bytes");
            }
        }
        Ok(())
    });
}

#[test]
fn run_lanes_makes_the_caller_lane_zero() {
    let caller = std::thread::current().id();
    for p in 0..5usize {
        let lanes = run_lanes(0..p, |t| (t, std::thread::current().id()));
        let order: Vec<usize> = lanes.iter().map(|(t, _)| *t).collect();
        assert_eq!(order, (0..p).collect::<Vec<_>>(), "results come back in lane order");
        let spawned: std::collections::HashSet<_> =
            lanes.iter().map(|(_, id)| *id).filter(|id| *id != caller).collect();
        assert_eq!(spawned.len(), p.saturating_sub(1), "p = {p}: every lane but 0 is spawned");
        if p > 0 {
            assert_eq!(lanes[0].1, caller, "lane 0 runs on the caller");
        }
    }
    // Lanes take their input by value, whatever the iterator yields.
    let mut data = [1u64, 2, 3, 4, 5, 6];
    let sums = run_lanes(data.chunks_mut(2), |pair| {
        pair[0] += 10;
        pair.iter().sum::<u64>()
    });
    assert_eq!(sums, vec![13, 17, 21]);
}

#[test]
fn reduce_scatter_then_gather_is_full_reduction() {
    check(&cfg(), |src| {
        let epn = src.usize_in(2..5);
        let base = arb_base(src, 4);
        let spec = RingClusterSpec::unshaped(1, epn, 1);
        let n = spec.total_executors();
        let values: Vec<i64> = (0..n).map(|i| base[i % base.len()]).collect();
        let v2 = values.clone();
        let results = run_ring_cluster(&spec, move |comm| {
            let segs = seed(comm.rank(), &v2);
            let owned = ring_reduce_scatter(&comm, segs).unwrap();
            gather_segments(&comm, owned, 0, n).unwrap()
        });
        let segs = results[0].as_ref().unwrap();
        for (g, seg) in segs.iter().enumerate() {
            tk_assert_eq!(seg.0[0], expected(g, &values, n));
        }
        Ok(())
    });
}

#[test]
fn codec_roundtrips_arbitrary_floats() {
    check(&cfg(), |src| {
        let data = src.vec_of(0..200, |s| s.f64_any());
        let arr = F64Array(data.clone());
        let back = F64Array::from_frame(arr.to_frame()).unwrap();
        tk_assert_eq!(back.0.len(), data.len());
        for (a, b) in back.0.iter().zip(&data) {
            tk_assert_eq!(a.to_bits(), b.to_bits(), "bitwise identical, NaNs included");
        }
        Ok(())
    });
}

#[test]
fn codec_roundtrips_nested_payloads() {
    check(&cfg(), |src| {
        let items = src.vec_of(0..50, |s| (s.u32_any(), s.f64_any()));
        let label = src.string_of(0..33);
        let value = (label.clone(), items.clone());
        let back = <(String, Vec<(u32, f64)>)>::from_frame(value.to_frame()).unwrap();
        tk_assert_eq!(back.0, label);
        tk_assert_eq!(back.1.len(), items.len());
        for ((ai, af), (bi, bf)) in back.1.iter().zip(&items) {
            tk_assert_eq!(ai, bi);
            tk_assert_eq!(af.to_bits(), bf.to_bits());
        }
        Ok(())
    });
}

#[test]
fn slice_bounds_tile_exactly() {
    check(&cfg(), |src| {
        let len = src.usize_in(0..5000);
        let n = src.usize_in(1..64);
        let mut prev_end = 0;
        for i in 0..n {
            let (s, e) = slice_bounds(len, i, n);
            tk_assert_eq!(s, prev_end);
            tk_assert!(e >= s, "segment {i} has negative extent");
            prev_end = e;
        }
        tk_assert_eq!(prev_end, len);
        Ok(())
    });
}
