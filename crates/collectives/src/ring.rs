//! Ring-based reduce-scatter over the parallel directed ring.
//!
//! This is the algorithm Sparker builds split aggregation on (§4.2,
//! Figure 11). For `N` ranks the aggregator is split into `P·N` segments
//! (`P` = PDR channel parallelism). `P` worker threads run independent
//! N-segment rings: thread `t` communicates exclusively on channel `t` and
//! reduces the segment range `[t·N, (t+1)·N)` — exactly the paper's mapping.
//!
//! Per ring, each of the `N-1` iterations sends segment `(rank − step) mod N`
//! to the next rank while merging the segment received from the previous
//! rank into `(rank − step − 1) mod N`. After the last iteration the rank
//! holds the fully-reduced segment `(rank + 1) mod N`: every segment has
//! visited every rank exactly once, so each rank moved only `(N−1)/N` of one
//! aggregator regardless of `N` — that is the bandwidth-optimality that
//! makes split aggregation scale nearly flat in Figure 16.

//! # Chunk pipelining (depth on top of the PDR's width)
//!
//! On top of the `P`-wide channel parallelism, each logical segment can be
//! split into `C` pipeline chunks (SparCML-style depth pipelining): within a
//! ring step the send of chunk `k` is issued *before* the receive+merge of
//! chunk `k−1`, so chunk `k`'s wire time overlaps chunk `k−1`'s decode and
//! merge instead of serializing behind it. The chunked path performs exactly
//! the same merge calls in exactly the same order as the unpipelined
//! schedule over the same segments — only send timing changes — so results
//! are bit-exact (see DESIGN.md §5f). Chunks ride the same epoch-fenced,
//! FIFO-per-link frames as whole segments, so fault handling (retry, gang
//! cancel, tree fallback) composes unchanged.
//!
//! # One schedule, two segment kernels
//!
//! `ring_pass` is the only step/chunk loop. What a step does with segment
//! bytes is its kernel's: the *owned* kernel runs any `reduceOp` over
//! segments split up front (decode, merge, encode), and the *dense-sum*
//! kernel ([`ring_reduce_scatter_dense`]) reads each segment as a view of
//! the executor's aggregator and writes `local + incoming` straight into the
//! frame it sends next. Either way every frame is written once, behind its
//! epoch header, and checksummed as it is written.

use std::collections::VecDeque;
use std::ops::Range;

use sparker_net::codec::Payload;
use sparker_net::epoch::FrameWriter;
use sparker_net::error::{NetError, NetResult};
use sparker_net::sync::Mutex;
use sparker_net::{pool, ByteBuf};

use crate::comm::RingComm;
use crate::lanes::run_lanes;
use crate::segment::{dense_payload, Segment, SumSegment};

/// A fully-reduced segment owned by this rank after reduce-scatter.
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedSegment<S> {
    /// Global segment index in `0..P·N·C`.
    pub index: usize,
    pub segment: S,
}

/// Runs reduce-scatter over the PDR using [`Segment::merge_from`].
///
/// `segments` must contain exactly `P·N` segments: the caller (the engine's
/// split-aggregation path) produces them by calling the user's `splitOp`
/// with indices `0..P·N`. Returns the `P` segments this rank owns, with
/// their global indices, sorted by index.
///
/// # Errors
/// Propagates transport errors; all worker threads are joined first.
pub fn ring_reduce_scatter<S: Segment>(
    comm: &RingComm,
    segments: Vec<S>,
) -> NetResult<Vec<OwnedSegment<S>>> {
    ring_reduce_scatter_chunked(comm, segments, 1)
}

/// Chunk-pipelined variant of [`ring_reduce_scatter`]: `segments` holds
/// `P·N·C` entries (`C` = `chunks`), each logical ring position owning `C`
/// consecutive physical chunks. See the module docs for the pipelining rule.
pub fn ring_reduce_scatter_chunked<S: Segment>(
    comm: &RingComm,
    segments: Vec<S>,
    chunks: usize,
) -> NetResult<Vec<OwnedSegment<S>>> {
    let merge = |acc: &mut S, incoming: S| acc.merge_from(&incoming);
    ring_reduce_scatter_vec(comm, segments, &merge, chunks)
}

/// [`ring_reduce_scatter_produced_by`] over ready-made segments, for the
/// collectives that hold a segment vector (the chunked ring, hierarchical
/// leaders).
///
/// `segments` must contain exactly `P·N·chunks` entries, laid out so that
/// channel `t` covers global indices `[t·N·C, (t+1)·N·C)` and logical ring
/// position `j` within a channel covers `C` consecutive physical chunks.
/// With `chunks == 1` this is exactly the classic unpipelined ring.
pub(crate) fn ring_reduce_scatter_vec<V, F>(
    comm: &RingComm,
    segments: Vec<V>,
    merge: &F,
    chunks: usize,
) -> NetResult<Vec<OwnedSegment<V>>>
where
    V: Payload,
    F: Fn(&mut V, V) + Sync,
{
    let want = comm.parallelism() * comm.size() * chunks;
    if segments.len() != want {
        return Err(NetError::InvalidAddress(format!(
            "ring_reduce_scatter needs P*N*C = {want} segments, got {}",
            segments.len()
        )));
    }
    ring_reduce_scatter_produced_by(comm, &produce_from(segments), merge, chunks)
}

/// A producer over ready-made segments: `produce(g)` moves segment `g` out
/// of its cell, so each lane takes its own segments without copying them.
/// Each index may be produced once.
pub fn produce_from<V: Send>(segments: Vec<V>) -> impl Fn(usize) -> V + Sync {
    let cells: Vec<Mutex<Option<V>>> = segments.into_iter().map(|s| Mutex::new(Some(s))).collect();
    move |g| cells[g].lock().take().expect("each segment is produced once")
}

/// The ring reduce-scatter over owned segments. `merge` is a closure
/// because the paper's SAI passes `reduceOp` as a user callback; it must be
/// associative/commutative like [`Segment::merge_from`]. Lane `t` calls
/// `produce(g)` for its own global indices `[t·N·C, (t+1)·N·C)` and then
/// runs its pass over them on channel `t`. The caller's `splitOp` therefore
/// runs on all `P` lanes in parallel (paper §4.2: "multiple threads can
/// split a single aggregator in parallel") inside the one thread scope of
/// the ring, and the `P·N·C` segments are never assembled into one vector
/// first.
pub fn ring_reduce_scatter_produced_by<V, G, F>(
    comm: &RingComm,
    produce: &G,
    merge: &F,
    chunks: usize,
) -> NetResult<Vec<OwnedSegment<V>>>
where
    V: Payload,
    G: Fn(usize) -> V + Sync,
    F: Fn(&mut V, V) + Sync,
{
    ring_lanes(comm, chunks, |base, width| Owned {
        slots: (base..base + width).map(|g| Some(produce(g))).collect(),
        merge,
    })
}

/// The ring reduce-scatter of a dense `f64` sum, reduced in place: segment
/// `g` of `P·N·C` is the view `data[bounds(g)]`, never copied out.
///
/// Each step adds the local view to the incoming payload and writes the sum,
/// checksummed as it is written, into the epoch frame that is the next
/// step's send; only the last step allocates, the `P·C` segments this rank
/// keeps. Results and frames are bit-identical to
/// [`ring_reduce_scatter_produced_by`] over `SumSegment(data[bounds(g)])`
/// merged with [`crate::segment::merge_segments`]: every sum is still
/// `local + incoming`. An incoming payload that does not hold exactly the
/// local view's length is [`NetError::Codec`].
///
/// `bounds(g)` must lie inside `data` for every `g < P·N·C`.
pub fn ring_reduce_scatter_dense<B>(
    comm: &RingComm,
    data: &[f64],
    bounds: &B,
    chunks: usize,
) -> NetResult<Vec<OwnedSegment<SumSegment>>>
where
    B: Fn(usize) -> Range<usize> + Sync,
{
    ring_lanes(comm, chunks, |base, _| DenseSum { data, bounds, base })
}

/// What one lane of a ring pass does with its segments. [`ring_pass`] is the
/// one schedule; a kernel answers three questions about lane-local chunk
/// `j` (global index `base + j`).
trait Kernel {
    /// A fully-reduced segment this rank keeps.
    type Owned: Send;
    /// Chunk `j`'s local value in a frame: the first send of a pass.
    fn encode(&mut self, j: usize, comm: &RingComm) -> FrameWriter;
    /// Chunk `j` reduced with the `incoming` payload, in a frame: the next
    /// step's send.
    fn reduce_copy(&mut self, j: usize, incoming: ByteBuf, comm: &RingComm) -> NetResult<FrameWriter>;
    /// Chunk `j` reduced with the last step's `incoming` payload (`None` on a
    /// one-rank ring, which makes no step) as the segment this rank keeps.
    fn reduce_own(&mut self, j: usize, incoming: Option<ByteBuf>) -> NetResult<Self::Owned>;
}

/// The owned kernel: any `V` and any `reduceOp`, over segments split up
/// front. A step decodes the incoming payload, merges it and encodes the
/// merged segment straight behind the next frame's header.
struct Owned<'a, V, F> {
    slots: Vec<Option<V>>,
    merge: &'a F,
}

impl<V: Payload, F: Fn(&mut V, V)> Owned<'_, V, F> {
    fn merged(&mut self, j: usize, incoming: Option<ByteBuf>) -> NetResult<&mut V> {
        let slot = self.slots[j].as_mut().expect("the ring schedule reduces each chunk once");
        if let Some(frame) = incoming {
            (self.merge)(slot, V::from_frame_pooled(frame, pool::global())?);
        }
        Ok(slot)
    }
}

impl<V: Payload, F: Fn(&mut V, V)> Kernel for Owned<'_, V, F> {
    type Owned = V;

    fn encode(&mut self, j: usize, comm: &RingComm) -> FrameWriter {
        comm.frame_of(self.slots[j].as_ref().expect("the ring schedule sends each chunk once"))
    }

    fn reduce_copy(&mut self, j: usize, incoming: ByteBuf, comm: &RingComm) -> NetResult<FrameWriter> {
        Ok(comm.frame_of(self.merged(j, Some(incoming))?))
    }

    fn reduce_own(&mut self, j: usize, incoming: Option<ByteBuf>) -> NetResult<V> {
        self.merged(j, incoming)?;
        Ok(self.slots[j].take().expect("the ring schedule keeps each chunk once"))
    }
}

/// The in-place dense-sum kernel ([`ring_reduce_scatter_dense`]).
struct DenseSum<'a, B> {
    data: &'a [f64],
    bounds: &'a B,
    base: usize,
}

impl<B: Fn(usize) -> Range<usize>> DenseSum<'_, B> {
    fn view(&self, j: usize) -> &[f64] {
        &self.data[(self.bounds)(self.base + j)]
    }
}

impl<B: Fn(usize) -> Range<usize>> Kernel for DenseSum<'_, B> {
    type Owned = SumSegment;

    fn encode(&mut self, j: usize, comm: &RingComm) -> FrameWriter {
        let local = self.view(j);
        let mut frame = comm.frame(8 + 8 * local.len());
        frame.put_f64_slice(local);
        frame
    }

    fn reduce_copy(&mut self, j: usize, incoming: ByteBuf, comm: &RingComm) -> NetResult<FrameWriter> {
        let local = self.view(j);
        let values = dense_payload(&incoming, local.len())?;
        let mut frame = comm.frame(8 + values.len());
        frame.put_f64_sum(local, values);
        pool::global().recycle_frame(incoming);
        Ok(frame)
    }

    fn reduce_own(&mut self, j: usize, incoming: Option<ByteBuf>) -> NetResult<SumSegment> {
        let local = self.view(j);
        let Some(incoming) = incoming else {
            return Ok(SumSegment(local.to_vec()));
        };
        let values = dense_payload(&incoming, local.len())?;
        let sum = local
            .iter()
            .zip(values.chunks_exact(8))
            .map(|(x, y)| x + f64::from_le_bytes(y.try_into().expect("8-byte chunk")))
            .collect();
        pool::global().recycle_frame(incoming);
        Ok(SumSegment(sum))
    }
}

/// Runs one [`ring_pass`] per channel, lane `t` over the kernel
/// `kernel(t·N·C, N·C)`, and returns the segments every lane keeps in
/// ascending index order.
fn ring_lanes<K, M>(comm: &RingComm, chunks: usize, kernel: M) -> NetResult<Vec<OwnedSegment<K::Owned>>>
where
    K: Kernel,
    M: Fn(usize, usize) -> K + Sync,
{
    if chunks == 0 {
        return Err(NetError::InvalidAddress(
            "ring_reduce_scatter needs chunks >= 1".into(),
        ));
    }
    let width = comm.size() * chunks;
    let lanes = run_lanes(0..comm.parallelism(), |t| {
        let base = t * width;
        let owned = ring_pass(comm, t, &mut kernel(base, width), chunks)?;
        Ok(owned.into_iter().map(|(j, segment)| OwnedSegment { index: base + j, segment }).collect())
    });
    let lanes: Vec<Vec<OwnedSegment<K::Owned>>> = lanes.into_iter().collect::<NetResult<_>>()?;
    Ok(lanes.into_iter().flatten().collect())
}

/// One channel's reduce-scatter pass over its `N·C` physical chunks. Returns
/// the `C` chunks at logical position `(rank + 1) % N`, fully reduced, with
/// their lane-local indices.
///
/// Per step the chunk schedule is software-pipelined: the send of chunk `k`
/// is issued before the receive+reduce of chunk `k−1`, so while chunk `k`
/// crosses the wire the previous chunk is reduced. A step's reduce writes
/// the frame the next step sends (the segment received at step `s` is the
/// one sent at step `s + 1`); step 0's frames are encoded as they go out.
/// The reductions themselves run in chunk order `0..C`, identical to the
/// sequential schedule — pipelining reorders only communication, which is
/// what keeps the result bit-exact.
fn ring_pass<K: Kernel>(
    comm: &RingComm,
    channel: usize,
    kernel: &mut K,
    chunks: usize,
) -> NetResult<Vec<(usize, K::Owned)>> {
    let n = comm.size();
    let rank = comm.rank();
    let (op, attempt) = comm.epoch();
    let first_owned = (rank + 1) % n * chunks;
    if n == 1 {
        // A single rank makes no step and keeps everything it holds.
        return (0..chunks).map(|c| Ok((c, kernel.reduce_own(c, None)?))).collect();
    }
    // The frames the previous step reduced into, in chunk order.
    let mut ready: VecDeque<FrameWriter> = VecDeque::with_capacity(chunks);
    let mut owned = Vec::with_capacity(chunks);
    for step in 0..n - 1 {
        let send_j = (rank + n - step) % n;
        let recv_j = (rank + 2 * n - step - 1) % n;
        let last = step == n - 2;
        let started = sparker_obs::enabled().then(std::time::Instant::now);
        let mut sent_bytes = 0u64;
        let mut recv_bytes = 0u64;
        for c in 0..=chunks {
            // Send chunk c (if any) ahead of reducing chunk c-1.
            if c < chunks {
                let frame = match step {
                    0 => kernel.encode(send_j * chunks + c, comm),
                    _ => ready.pop_front().expect("the previous step reduced every chunk"),
                };
                sent_bytes += frame.payload_len() as u64;
                comm.send_frame(comm.ring().next(rank), channel, frame)?;
            }
            if c > 0 {
                let incoming = comm.recv_prev(channel)?;
                recv_bytes += incoming.len() as u64;
                let j = recv_j * chunks + c - 1;
                if last {
                    owned.push((j, kernel.reduce_own(j, Some(incoming))?));
                } else {
                    ready.push_back(kernel.reduce_copy(j, incoming, comm)?);
                }
            }
        }
        if let Some(t0) = started {
            sparker_obs::trace::event_dur(
                sparker_obs::Layer::Step,
                "ring.step",
                t0,
                &[
                    ("step", step as u64),
                    ("channel", channel as u64),
                    ("rank", rank as u64),
                    ("peer", ((rank + 1) % n) as u64),
                    ("send_bytes", sent_bytes),
                    ("recv_bytes", recv_bytes),
                    ("chunks", chunks as u64),
                    ("op", op),
                    ("epoch", attempt as u64),
                ],
            );
        }
    }
    debug_assert!(owned.iter().map(|(j, _)| *j).eq(first_owned..first_owned + chunks));
    Ok(owned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{SumSegment, U64SumSegment};
    use crate::testing::{run_ring_cluster, RingClusterSpec};

    /// Builds rank-specific segments: rank r, global segment g holds value
    /// base(r, g) in every element, so the reduced segment g must hold
    /// sum over ranks of base(r, g).
    fn seed_segments(rank: usize, total: usize, elems: usize) -> Vec<U64SumSegment> {
        (0..total)
            .map(|g| U64SumSegment(vec![(rank as u64 + 1) * 1000 + g as u64; elems]))
            .collect()
    }

    fn expected_reduced(g: usize, n: usize) -> u64 {
        (0..n).map(|r| (r as u64 + 1) * 1000 + g as u64).sum()
    }

    fn check_reduce_scatter(nodes: usize, epn: usize, parallelism: usize, elems: usize) {
        let spec = RingClusterSpec::unshaped(nodes, epn, parallelism);
        let n = spec.total_executors();
        let total = parallelism * n;
        let per_rank = run_ring_cluster(&spec, |comm| {
            let segs = seed_segments(comm.rank(), total, elems);
            ring_reduce_scatter(&comm, segs).unwrap()
        });
        // Every global segment owned exactly once, fully reduced.
        let mut seen = vec![false; total];
        for (rank, owned) in per_rank.iter().enumerate() {
            assert_eq!(owned.len(), parallelism, "rank {rank} owns P segments");
            for o in owned {
                assert!(!seen[o.index], "segment {} owned twice", o.index);
                seen[o.index] = true;
                let want = expected_reduced(o.index, n);
                assert!(o.segment.0.iter().all(|&v| v == want), "segment {} wrong", o.index);
                assert_eq!(o.segment.0.len(), elems);
                // Ownership mapping: thread t of rank r owns t*n + (r+1)%n.
                assert_eq!(o.index % n, (rank + 1) % n);
            }
        }
        assert!(seen.iter().all(|&s| s), "all segments covered");
    }

    /// Figure 5's concept, executable: splitting the aggregators lets the
    /// reduction of 4 objects proceed as 3 (here 4) independent segment
    /// reductions, each landing fully reduced on a different executor —
    /// versus the non-splittable case where one reducer must see all data.
    #[test]
    fn split_parallelism_demo() {
        let spec = RingClusterSpec::unshaped(1, 4, 1);
        let per_rank = run_ring_cluster(&spec, |comm| {
            // V_i split into segments V_{i,1..4}.
            let segs: Vec<U64SumSegment> =
                (0..4).map(|j| U64SumSegment(vec![(comm.rank() * 10 + j) as u64])).collect();
            ring_reduce_scatter(&comm, segs).unwrap()
        });
        // Each of the 4 reduced segments V_{*,j} lives on a distinct
        // executor: 4-way parallelism over what tree reduction serializes.
        let owners: std::collections::HashSet<usize> = per_rank
            .iter()
            .enumerate()
            .flat_map(|(rank, owned)| owned.iter().map(move |_| rank))
            .collect();
        assert_eq!(owners.len(), 4, "every executor owns one reduced segment");
        for owned in &per_rank {
            for o in owned {
                let want: u64 = (0..4).map(|r| (r * 10 + o.index) as u64).sum();
                assert_eq!(o.segment.0[0], want);
            }
        }
    }

    #[test]
    fn reduce_scatter_two_ranks() {
        check_reduce_scatter(2, 1, 1, 5);
    }

    #[test]
    fn reduce_scatter_four_ranks_matches_figure_11() {
        check_reduce_scatter(1, 4, 1, 3);
    }

    #[test]
    fn reduce_scatter_parallel_channels() {
        check_reduce_scatter(2, 3, 4, 8);
    }

    #[test]
    fn reduce_scatter_single_rank_degenerate() {
        check_reduce_scatter(1, 1, 2, 4);
    }

    #[test]
    fn reduce_scatter_odd_sizes() {
        check_reduce_scatter(3, 1, 2, 7);
        check_reduce_scatter(5, 1, 1, 1);
    }

    #[test]
    fn wrong_segment_count_is_an_error() {
        let spec = RingClusterSpec::unshaped(1, 2, 1);
        let errs = run_ring_cluster(&spec, |comm| {
            // 3 segments for P*N = 2.
            let segs = seed_segments(comm.rank(), 3, 2);
            // Both ranks must take the error path before any communication,
            // otherwise one rank would block forever.
            ring_reduce_scatter(&comm, segs).is_err()
        });
        assert_eq!(errs, vec![true, true]);
    }

    fn check_chunked(nodes: usize, epn: usize, parallelism: usize, chunks: usize, elems: usize) {
        let spec = RingClusterSpec::unshaped(nodes, epn, parallelism);
        let n = spec.total_executors();
        let total = parallelism * n * chunks;
        let per_rank = run_ring_cluster(&spec, |comm| {
            let segs = seed_segments(comm.rank(), total, elems);
            ring_reduce_scatter_chunked(&comm, segs, chunks).unwrap()
        });
        let mut seen = vec![false; total];
        for (rank, owned) in per_rank.iter().enumerate() {
            assert_eq!(owned.len(), parallelism * chunks, "rank {rank} owns P*C chunks");
            for o in owned {
                assert!(!seen[o.index], "chunk {} owned twice", o.index);
                seen[o.index] = true;
                let want = expected_reduced(o.index, n);
                assert!(o.segment.0.iter().all(|&v| v == want), "chunk {} wrong", o.index);
                // Ownership mapping over logical positions: (idx/C) % N == (r+1) % N.
                assert_eq!((o.index / chunks) % n, (rank + 1) % n);
            }
        }
        assert!(seen.iter().all(|&s| s), "all chunks covered");
    }

    #[test]
    fn chunked_matches_expected_sums() {
        check_chunked(1, 4, 1, 2, 3);
        check_chunked(2, 2, 2, 3, 5);
        check_chunked(3, 1, 1, 4, 1);
    }

    #[test]
    fn chunks_one_degenerates_to_unpipelined() {
        // Same inputs through the chunked entry point with C=1 and the
        // classic entry point must produce identical owned segments.
        let spec = RingClusterSpec::unshaped(1, 3, 2);
        let n = spec.total_executors();
        let total = 2 * n;
        let chunked = run_ring_cluster(&spec, |comm| {
            let segs = seed_segments(comm.rank(), total, 4);
            ring_reduce_scatter_chunked(&comm, segs, 1).unwrap()
        });
        let plain = run_ring_cluster(&spec, |comm| {
            let segs = seed_segments(comm.rank(), total, 4);
            ring_reduce_scatter(&comm, segs).unwrap()
        });
        assert_eq!(chunked, plain);
    }

    #[test]
    fn chunked_equals_unchunked_reduction() {
        // Integer data: any merge association is exact, so the multiset of
        // reduced values must be identical across chunk counts.
        let spec = RingClusterSpec::unshaped(1, 4, 1);
        let n = 4;
        for chunks in [1usize, 2, 4] {
            let total = n * chunks;
            let per_rank = run_ring_cluster(&spec, |comm| {
                let segs = seed_segments(comm.rank(), total, 2);
                ring_reduce_scatter_chunked(&comm, segs, chunks).unwrap()
            });
            for owned in &per_rank {
                for o in owned {
                    let want = expected_reduced(o.index, n);
                    assert!(o.segment.0.iter().all(|&v| v == want));
                }
            }
        }
    }

    #[test]
    fn chunked_wrong_count_or_zero_chunks_is_an_error() {
        let spec = RingClusterSpec::unshaped(1, 2, 1);
        let errs = run_ring_cluster(&spec, |comm| {
            // P*N*C = 4 but we pass 2; and chunks = 0 is always invalid.
            let bad_count =
                ring_reduce_scatter_chunked(&comm, seed_segments(comm.rank(), 2, 1), 2).is_err();
            let zero_chunks =
                ring_reduce_scatter_chunked(&comm, seed_segments(comm.rank(), 2, 1), 0).is_err();
            bad_count && zero_chunks
        });
        assert_eq!(errs, vec![true, true]);
    }

    /// Rank 1 of an `n`-rank ring runs the dense kernel over 10 values in
    /// `2·n` segments of 5 or fewer; rank 0 sends `payload` as its first
    /// frame and nothing else, so rank 1 reduces it at step 0: into its owned
    /// segment on 2 ranks, into the next frame on 3.
    fn dense_rank_receiving(n: usize, payload: &ByteBuf) -> NetResult<Vec<OwnedSegment<SumSegment>>> {
        let spec = RingClusterSpec::unshaped(1, n, 1);
        let data: Vec<f64> = (0..10).map(|i| i as f64 + 0.25).collect();
        let bounds = |g| {
            let (lo, hi) = crate::segment::slice_bounds(10, g, n);
            lo..hi
        };
        let mut per_rank = run_ring_cluster(&spec, |comm| match comm.rank() {
            0 => {
                comm.send_next(0, payload.clone()).unwrap();
                None
            }
            1 => {
                let comm = comm.with_recv_deadline(std::time::Duration::from_secs(2));
                Some(ring_reduce_scatter_dense(&comm, &data, &bounds, 1))
            }
            _ => None,
        });
        per_rank.swap_remove(1).expect("rank 1 ran the kernel")
    }

    #[test]
    fn malformed_dense_payloads_are_typed_codec_errors() {
        for n in [2, 3] {
            // Rank 1 first reduces segment 0: 5 values on 2 ranks, 4 on 3.
            let want = if n == 2 { 5 } else { 4 };
            let frame = |len: usize| SumSegment(vec![1.0; len]).to_frame();
            let mut wrong_prefix = frame(want).to_vec();
            wrong_prefix[0] ^= 1;
            let bad = [
                ("short", frame(want - 1)),
                ("long", frame(want + 1)),
                ("truncated", frame(want).slice(0..8 + 8 * want - 3)),
                ("no prefix", frame(want).slice(0..5)),
                ("wrong length prefix", ByteBuf::from(wrong_prefix)),
            ];
            for (what, payload) in bad {
                let got = dense_rank_receiving(n, &payload);
                assert!(matches!(got, Err(NetError::Codec(_))), "{n} ranks, {what}: {got:?}");
            }
        }
        // The well-formed payload is reduced: it is the last step on 2 ranks.
        let owned = dense_rank_receiving(2, &SumSegment(vec![1.0; 5]).to_frame()).unwrap();
        assert_eq!(owned[0].index, 0);
        assert_eq!(owned[0].segment.0, [1.25, 2.25, 3.25, 4.25, 5.25]);
    }

    #[test]
    fn float_segments_sum_correctly() {
        let spec = RingClusterSpec::unshaped(1, 3, 1);
        let n = 3;
        let per_rank = run_ring_cluster(&spec, |comm| {
            let segs: Vec<SumSegment> = (0..n)
                .map(|g| SumSegment(vec![0.5 * (comm.rank() + 1) as f64 + g as f64; 4]))
                .collect();
            ring_reduce_scatter(&comm, segs).unwrap()
        });
        for owned in &per_rank {
            for o in owned {
                let want: f64 = (0..n).map(|r| 0.5 * (r + 1) as f64 + o.index as f64).sum();
                for &v in &o.segment.0 {
                    assert!((v - want).abs() < 1e-12);
                }
            }
        }
    }
}
