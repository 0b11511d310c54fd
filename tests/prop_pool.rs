//! Property suite pinning the frame-pool safety contract: encoding into a
//! recycled buffer is indistinguishable from encoding into a fresh one.
//!
//! For every `Payload` impl in the workspace, the pooled encode path
//! (`to_frame_pooled`) must produce frames bit-identical to the unpooled
//! path even when the pool hands back a buffer previously filled with
//! garbage — including a buffer that last held a *corrupted* collective
//! frame (the recv path recycles those after the checksum rejects them).
//! If recycling ever leaked stale bytes into a frame, this suite fails.

use sparker_testkit::{check, tk_assert, tk_assert_eq, Config, Source};

use sparker::collectives::composite::CompositeAgg;
use sparker::ml::aggregator::{DenseOrSparse, SparseSegment};
use sparker::ml::LabeledPoint;
use sparker::prelude::*;
use sparker_net::{epoch, ByteBuf, FramePool};

fn cfg() -> Config {
    Config::with_cases(24)
}

/// Seeds `pool` with a garbage-filled buffer sized so the next pooled
/// encode of a `size_hint()`-byte value draws exactly this buffer.
fn seed_garbage(pool: &FramePool, size_hint: usize, src: &mut Source) {
    let mut buf = pool.acquire(size_hint.max(1));
    let cap = buf.capacity();
    for _ in 0..cap {
        buf.push(src.u8_any());
    }
    pool.recycle_vec(buf);
}

/// The core property: pooled encode over a garbage-seeded pool is
/// bit-identical to a fresh encode, and pooled decode round-trips.
fn pooled_exact<T: Payload + PartialEq + std::fmt::Debug>(
    v: &T,
    src: &mut Source,
) -> Result<(), sparker_testkit::PropError> {
    let pool = FramePool::new();
    seed_garbage(&pool, v.size_hint(), src);

    let fresh = v.to_frame();
    let pooled = v.to_frame_pooled(&pool);
    tk_assert_eq!(
        &pooled[..],
        &fresh[..],
        "pooled encode must be bit-identical to fresh encode"
    );
    if v.size_hint() > 0 {
        tk_assert!(pool.stats().hits >= 1, "encode must have reused the seeded buffer");
    }

    // Decode through the pool (which recycles the frame), then encode again
    // from the same pool: the twice-recycled buffer must still be clean.
    let back = T::from_frame_pooled(pooled, &pool)
        .map_err(|e| sparker_testkit::PropError::new(e.to_string()))?;
    tk_assert_eq!(&back, v, "pooled frame must decode back to the same value");
    let again = v.to_frame_pooled(&pool);
    tk_assert_eq!(&again[..], &fresh[..], "re-reused buffer must stay clean");
    Ok(())
}

fn finite_f64(src: &mut Source) -> f64 {
    src.f64_in(-1.0e9..1.0e9)
}

fn arb_sparse(src: &mut Source, max_len: usize) -> SparseSegment {
    let len = src.usize_in(0..max_len);
    let mut indices = Vec::new();
    let mut values = Vec::new();
    for i in 0..len {
        if src.bool_any() {
            indices.push(i as u32);
            values.push(finite_f64(src));
        }
    }
    SparseSegment::new(len, indices, values)
}

#[test]
fn primitives_and_containers_reuse_cleanly() {
    check(&cfg(), |src| {
        pooled_exact(&src.u64_any(), src)?;
        pooled_exact(&src.u32_any(), src)?;
        pooled_exact(&src.i64_any(), src)?;
        pooled_exact(&finite_f64(src), src)?;
        pooled_exact(&src.string_of(0..64), src)?;
        pooled_exact(&src.vec_of(0..32, |s| s.u64_any()), src)?;
        pooled_exact(&(src.u32_any(), src.string_of(0..16)), src)?;
        pooled_exact(&F64Array(src.vec_of(0..64, finite_f64)), src)?;
        Ok(())
    });
}

#[test]
fn segment_types_reuse_cleanly() {
    check(&cfg(), |src| {
        pooled_exact(&SumSegment(src.vec_of(0..64, finite_f64)), src)?;
        pooled_exact(&U64SumSegment(src.vec_of(0..64, |s| s.u64_any())), src)?;
        pooled_exact(&arb_sparse(src, 80), src)?;
        let dense: Vec<f64> =
            src.vec_of(0..80, |s| if s.bool_any() { finite_f64(s) } else { 0.0 });
        let threshold = src.choose(&[0.0, 0.25, 0.5, 1.0, 2.0]);
        pooled_exact(&DenseOrSparse::from_dense(dense, threshold), src)?;
        let fields = src.vec_of(0..4, |s| s.vec_of(0..16, finite_f64));
        let scalars = src.vec_of(0..4, finite_f64);
        pooled_exact(&CompositeAgg::from_parts(fields, scalars), src)?;
        let nnz = src.usize_in(0..16);
        let indices: Vec<u32> = (0..nnz as u32).collect();
        let values = src.vec_of(nnz..nnz + 1, finite_f64);
        pooled_exact(&LabeledPoint::new(1.0, indices, values), src)?;
        Ok(())
    });
}

#[test]
fn buffer_that_held_a_corrupted_frame_reuses_cleanly() {
    // The recv path recycles frames whose checksum failed — the most
    // adversarial previous tenant a pooled buffer can have. Encoding out of
    // that buffer must still be bit-identical to a fresh encode.
    check(&cfg(), |src| {
        let pool = FramePool::new();
        let value = U64SumSegment(src.vec_of(1..64, |s| s.u64_any()));

        // Build a corrupted collective frame and push its allocation (via
        // the rejected-decode path) into the pool.
        let payload = value.to_frame();
        let wrapped = epoch::wrap(7, 1, &payload);
        let mut bytes = wrapped.to_vec();
        let flip = src.usize_in(0..bytes.len());
        bytes[flip] ^= 0x01;
        let corrupted = ByteBuf::from(bytes);
        tk_assert!(epoch::unwrap(corrupted.clone()).is_err(), "flip must be detected");
        tk_assert!(pool.recycle_frame(corrupted), "sole-owned frame must recycle");

        let fresh = value.to_frame();
        let pooled = value.to_frame_pooled(&pool);
        tk_assert_eq!(
            &pooled[..],
            &fresh[..],
            "buffer that held a corrupted frame must encode cleanly"
        );
        let back = U64SumSegment::from_frame_pooled(pooled, &pool)
            .map_err(|e| sparker_testkit::PropError::new(e.to_string()))?;
        tk_assert_eq!(back, value);
        Ok(())
    });
}

#[test]
fn pool_disabled_still_round_trips() {
    // The A/B baseline: a disabled pool must change allocation behaviour
    // only, never bytes.
    check(&cfg(), |src| {
        let pool = FramePool::disabled();
        let value = SumSegment(src.vec_of(0..64, finite_f64));
        let fresh = value.to_frame();
        let pooled = value.to_frame_pooled(&pool);
        tk_assert_eq!(&pooled[..], &fresh[..]);
        tk_assert_eq!(pool.stats().hits, 0, "disabled pool must never hit");
        Ok(())
    });
}

#[test]
fn warm_chunk_pipelined_ring_allocates_10x_fewer_frames_than_it_acquires() {
    use sparker::collectives::ring::ring_reduce_scatter_chunked;
    use sparker::collectives::testing::{run_ring_cluster, RingClusterSpec};

    // A disabled pool counts every acquire as a miss, so `hits + misses` is
    // what the same rounds would allocate unpooled. The counters are
    // process-wide; the other tests here add at most a few dozen acquires.
    let (parallelism, chunks, elems) = (2, 4, 256);
    let spec = RingClusterSpec::unshaped(2, 2, parallelism);
    let n = spec.total_executors();
    let total = parallelism * n * chunks;
    let round = || {
        let per_rank = run_ring_cluster(&spec, |comm| {
            let segs = (0..total)
                .map(|g| U64SumSegment(vec![(comm.rank() as u64 + 1) * 1000 + g as u64; elems]))
                .collect();
            ring_reduce_scatter_chunked(&comm, segs, chunks).unwrap()
        });
        for o in per_rank.into_iter().flatten() {
            let want = (1000 * n * (n + 1) / 2 + n * o.index) as u64;
            assert!(o.segment.0.iter().all(|&v| v == want), "segment {} wrong", o.index);
        }
    };
    round(); // the claim is steady state, not the first frame
    let pool = sparker_net::pool::global();
    let before = pool.stats();
    for _ in 0..8 {
        round();
    }
    let after = pool.stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    assert!(
        misses * 10 <= hits + misses,
        "pooling must cut hot-path frame allocations >=10x: {misses} misses in {} acquires",
        hits + misses
    );
}
