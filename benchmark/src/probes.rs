//! Layer probes: each times calls into one layer's public functions on the
//! shape a workload uses, records a `probe.<metric>` span and fills the
//! per-layer ledger. They run after the workload's system has been torn
//! down, share the traced pass's probe budget equally, and take their data
//! from the run's seed.
//!
//! `SEG` is 65 536 `f64`s = 512 KiB, one ring segment of `dense_large`.
//! MB is 10^6 bytes.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use sparker::prelude::*;
use sparker_collectives::comm::RingComm;
use sparker_collectives::gather::gather_segments;
use sparker_collectives::halving::recursive_halving_reduce_scatter;
use sparker_collectives::hierarchical::hierarchical_reduce_scatter;
use sparker_collectives::ring::{ring_reduce_scatter, ring_reduce_scatter_chunked, OwnedSegment};
use sparker_collectives::testing::{run_ring_cluster, RingClusterSpec};
use sparker_collectives::tree::binomial_tree_reduce;
use sparker_data::rng::SplitMix64;
use sparker_data::synth::ClassificationGen;
use sparker_engine::multiproc::part_vector;
use sparker_engine::objects::{MutableObjectManager, ObjectId};
use sparker_ml::aggregator::{
    concat_dense, fold_logistic_sparse, merge_dense, merge_segments, split_dense, zeros,
};
use sparker_net::codec::Decoder;
use sparker_net::pool::FramePool;
use sparker_net::tcp::frame::{read_frame, write_frame};
use sparker_net::tcp::rendezvous::{self, Coordinator};
use sparker_net::tcp::TcpTransport;
use sparker_net::topology::{round_robin_layout, ExecutorId};
use sparker_net::transport::{MeshTransport, Transport};
use sparker_net::{epoch, hash, ByteBuf};
use sparker_obs::{trace, Layer};
use sparker_sched::{Backend, Fifo, JobCtx, JobRequest, SchedConfig, Scheduler};
use sparker_sparse::{dense_wire_bytes, SparseSegment, DEFAULT_DENSITY_THRESHOLD};
use sparker_tuner::{JobShape, Selector};

use crate::harness::Ledger;
use crate::mesh::{
    self, DENSE_DIM, LDA_TOPICS, PARTITIONS, SPARSE_DIM, SPARSE_EXAMPLES, SPARSE_NNZ,
};
use crate::spans::Recorder;
use crate::stats::median;
use crate::tcp;

const SEG: usize = 65_536;
const SEG_BYTES: usize = SEG * 8;
/// Segments per rank in the reduce-scatter probes: P·N = 2·4.
const RING_SEGMENTS: usize = 8;
/// Probes sharing the budget; a probe that needs more than its slice to
/// take `MIN_SAMPLES` simply overruns it.
const PROBE_COUNT: u32 = 46;
const MIN_SAMPLES: usize = 3;
const MAX_SAMPLES: usize = 20_000;
const R0: ExecutorId = ExecutorId(0);
const R1: ExecutorId = ExecutorId(1);

fn mb_per_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs
}

/// Seconds per call of `f` on a fresh `prep()`, sampled for `slice`.
fn sample_with<T>(slice: Duration, mut prep: impl FnMut() -> T, mut f: impl FnMut(T)) -> Vec<f64> {
    let deadline = Instant::now() + slice;
    let mut out = Vec::new();
    while out.len() < MIN_SAMPLES || (Instant::now() < deadline && out.len() < MAX_SAMPLES) {
        let input = prep();
        let t0 = Instant::now();
        f(input);
        out.push(t0.elapsed().as_secs_f64());
    }
    out
}

fn sample(slice: Duration, f: impl FnMut(())) -> Vec<f64> {
    sample_with(slice, || (), f)
}

/// Median seconds per call of `f`, timed in batches of `batch` calls, for
/// calls too short to time one at a time.
fn batched_p50(slice: Duration, batch: u32, mut f: impl FnMut()) -> f64 {
    let mut per_call = sample(slice, |()| {
        for _ in 0..batch {
            f();
        }
    });
    median(&mut per_call) / f64::from(batch)
}

fn f64_ramp(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| (rng.next_below(512) + 1) as f64).collect()
}

fn byte_ramp(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i % 251) as u8).collect()
}

/// A sparse segment over `len` dims with `nnz` seeded non-zeros.
fn sparse_segment(len: usize, nnz: usize, seed: u64) -> SparseSegment {
    let mut rng = SplitMix64::new(seed);
    let mut idx = rng.sample_distinct(len as u64, nnz);
    idx.sort_unstable();
    let values = idx.iter().map(|_| rng.next_f64() - 0.5).collect();
    SparseSegment::new(len, idx.into_iter().map(|i| i as u32).collect(), values)
}

// ---------------------------------------------------------------------------
// Point-to-point. `sparker_net::bench` has a ping-pong and a stream too, but
// they run a fixed count and return means; these run for a slice and return
// medians.
// ---------------------------------------------------------------------------

/// A one-byte frame tells the echo/drain thread to stop.
const STOP: &[u8] = b"!";

/// Median 1 KiB round trip, rank 0 on `a` to rank 1 on `b` and back.
fn rtt_1k_p50(slice: Duration, a: &dyn Transport, b: Arc<dyn Transport>) -> f64 {
    let echo = std::thread::spawn(move || loop {
        let m = b.recv(R1, R0, 0).expect("echo recv");
        if m.len() == STOP.len() {
            return;
        }
        b.send(R1, R0, 0, m).expect("echo send");
    });
    let payload = ByteBuf::from(byte_ramp(1024));
    let mut rtts = sample(slice, |()| {
        a.send(R0, R1, 0, payload.clone()).expect("ping send");
        black_box(a.recv(R0, R1, 0).expect("ping recv"));
    });
    a.send(R0, R1, 0, ByteBuf::from_static(STOP))
        .expect("stop send");
    echo.join().expect("echo thread");
    median(&mut rtts)
}

/// Median MB/s over rounds of `FRAMES` 512 KiB frames one way, each round
/// closed by an ack.
fn stream_512k(slice: Duration, a: &dyn Transport, b: Arc<dyn Transport>) -> f64 {
    const FRAMES: usize = 20;
    let drain = std::thread::spawn(move || {
        let mut got = 0;
        loop {
            let m = b.recv(R1, R0, 0).expect("stream recv");
            if m.len() == STOP.len() {
                return;
            }
            got += 1;
            if got % FRAMES == 0 {
                b.send(R1, R0, 0, ByteBuf::from_static(b"ack"))
                    .expect("ack send");
            }
        }
    });
    let payload = ByteBuf::from(byte_ramp(SEG_BYTES));
    let mut rounds = sample(slice, |()| {
        for _ in 0..FRAMES {
            a.send(R0, R1, 0, payload.clone()).expect("stream send");
        }
        a.recv(R0, R1, 0).expect("ack recv");
    });
    a.send(R0, R1, 0, ByteBuf::from_static(STOP))
        .expect("stop send");
    drain.join().expect("drain thread");
    mb_per_s(FRAMES * SEG_BYTES, median(&mut rounds))
}

fn mesh_pair() -> Arc<MeshTransport> {
    MeshTransport::unshaped(&round_robin_layout(2, 1, 1), 1)
}

// ---------------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------------

/// Median seconds of one collective on `spec`: every rank builds its input
/// with `make` (untimed), all ranks start together, and a round lasts until
/// the slowest rank is done.
fn collective_p50<I>(
    slice: Duration,
    spec: &RingClusterSpec,
    make: impl Fn(&RingComm) -> I + Sync,
    run: impl Fn(&RingComm, I) + Sync,
) -> f64 {
    let rounds_of = |rounds: usize| -> Vec<f64> {
        let barrier = Barrier::new(spec.total_executors());
        let per_rank: Vec<Vec<f64>> = run_ring_cluster(spec, |comm| {
            (0..rounds)
                .map(|_| {
                    let input = make(&comm);
                    barrier.wait();
                    let t0 = Instant::now();
                    run(&comm, input);
                    t0.elapsed().as_secs_f64()
                })
                .collect()
        });
        (0..rounds)
            .map(|r| per_rank.iter().map(|v| v[r]).fold(0.0, f64::max))
            .collect()
    };
    // Two calibration rounds size the measured batch to the slice.
    let t0 = Instant::now();
    rounds_of(2);
    let per_round = t0.elapsed().as_secs_f64() / 2.0;
    let rounds = ((slice.as_secs_f64() / per_round) as usize).clamp(MIN_SAMPLES, 2000);
    median(&mut rounds_of(rounds))
}

fn dense_segments(count: usize, len: usize, rank: usize) -> Vec<SumSegment> {
    (0..count)
        .map(|g| SumSegment(vec![(rank * 1000 + g) as f64; len]))
        .collect()
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

struct NoopBackend {
    lanes: usize,
}

impl Backend for NoopBackend {
    type Job = ();
    type Output = ();

    fn lanes(&self) -> usize {
        self.lanes
    }

    fn run(&self, _lane: usize, _ctx: JobCtx, _job: &()) -> Result<(), String> {
        Ok(())
    }
}

fn noop_scheduler(lanes: usize) -> Scheduler<NoopBackend> {
    Scheduler::new(
        NoopBackend { lanes },
        Box::new(Fifo),
        SchedConfig::default(),
    )
}

fn dispatch(sched: &Scheduler<NoopBackend>, client: u32) {
    sched
        .submit(JobRequest::new(client, ()))
        .expect("no-op job admitted")
        .wait()
        .expect("no-op job ran");
}

// ---------------------------------------------------------------------------
// The ledger
// ---------------------------------------------------------------------------

struct Probes<'a> {
    ledger: &'a mut Ledger,
    recorder: &'a mut Recorder,
    slice: Duration,
    ran: u32,
}

impl Probes<'_> {
    /// Runs one probe under a `probe.<metric>` span and stores its value.
    fn probe(&mut self, metric: &str, f: impl FnOnce(Duration) -> f64) {
        let slice = self.slice;
        let value = self.recorder.time(&format!("probe.{metric}"), || f(slice));
        self.ledger.set(metric, value);
        self.ran += 1;
    }
}

/// Runs every probe, splitting `budget` equally between them.
pub fn run_all(ledger: &mut Ledger, recorder: &mut Recorder, budget: Duration, seed: u64) {
    let mut p = Probes {
        ledger,
        recorder,
        slice: budget / PROBE_COUNT,
        ran: 0,
    };
    net_probes(&mut p, seed);
    collective_probes(&mut p, seed);
    sparse_probes(&mut p, seed);
    engine_probes(&mut p, seed);
    sched_and_tuner_probes(&mut p);
    ml_and_data_probes(&mut p, seed);
    p.probe("obs.disabled_span_ns", |slice| {
        assert!(
            !trace::enabled(),
            "tracing must be off for the disabled-span probe"
        );
        1e9 * batched_p50(slice, 10_000, || {
            black_box(trace::span(Layer::Driver, "bench.probe"));
        })
    });
    assert_eq!(
        p.ran, PROBE_COUNT,
        "PROBE_COUNT must match the probes run, or slices are mis-sized"
    );
}

fn net_probes(p: &mut Probes, seed: u64) {
    let pool = FramePool::new();
    let array = F64Array(f64_ramp(SEG, seed));
    p.probe("net.codec.encode_mb_per_s", |slice| {
        let mut t = sample(slice, |()| {
            pool.recycle_frame(black_box(array.to_frame_pooled(&pool)));
        });
        mb_per_s(SEG_BYTES, median(&mut t))
    });
    let frame = array.to_frame();
    p.probe("net.codec.decode_mb_per_s", |slice| {
        let mut t = sample_with(
            slice,
            || Decoder::new(frame.clone()),
            |mut dec| {
                black_box(dec.get_f64_vec().expect("decode"));
            },
        );
        mb_per_s(SEG_BYTES, median(&mut t))
    });
    let bytes = byte_ramp(SEG_BYTES);
    p.probe("net.hash.fnv1a_mb_per_s", |slice| {
        let mut t = sample(slice, |()| {
            black_box(hash::fnv1a(black_box(&bytes)));
        });
        mb_per_s(SEG_BYTES, median(&mut t))
    });
    let payload = ByteBuf::from(bytes.clone());
    p.probe("net.epoch.wrap_us", |slice| {
        let mut t = sample(slice, |()| {
            sparker_net::pool::global().recycle_frame(black_box(epoch::wrap(7, 0, &payload)));
        });
        1e6 * median(&mut t)
    });
    p.probe("net.epoch.unwrap_us", |slice| {
        let mut t = sample_with(
            slice,
            || epoch::wrap(7, 0, &payload),
            |wrapped| {
                black_box(epoch::unwrap(wrapped).expect("unwrap"));
            },
        );
        1e6 * median(&mut t)
    });
    p.probe("net.pool.cycle_ns", |slice| {
        1e9 * batched_p50(slice, 1000, || {
            pool.recycle_vec(black_box(pool.acquire(SEG_BYTES)))
        })
    });
    p.probe("net.tcp.frame_write_mb_per_s", |slice| {
        let mut wire = Vec::with_capacity(SEG_BYTES + 64);
        let mut t = sample(slice, |()| {
            wire.clear();
            write_frame(&mut wire, &pool, 0, 0, &bytes).expect("write_frame");
        });
        mb_per_s(SEG_BYTES, median(&mut t))
    });
    p.probe("net.tcp.frame_read_mb_per_s", |slice| {
        let mut wire = Vec::new();
        write_frame(&mut wire, &pool, 0, 0, &bytes).expect("write_frame");
        let mut t = sample(slice, |()| {
            let frame = read_frame(&mut wire.as_slice(), &pool).expect("read_frame");
            pool.recycle_frame(black_box(frame.payload));
        });
        mb_per_s(SEG_BYTES, median(&mut t))
    });

    let mesh = mesh_pair();
    p.probe("net.mesh.rtt_1k_us_p50", |slice| {
        1e6 * rtt_1k_p50(slice, &*mesh, mesh.clone())
    });
    p.probe("net.mesh.stream_512k_mb_per_s", |slice| {
        stream_512k(slice, &*mesh, mesh.clone())
    });
    let (a, b) = TcpTransport::pair_loopback(1).expect("tcp loopback pair");
    p.probe("net.tcp.rtt_1k_us_p50", |slice| {
        1e6 * rtt_1k_p50(slice, &*a, b.clone())
    });
    p.probe("net.tcp.stream_512k_mb_per_s", |slice| {
        stream_512k(slice, &*a, b.clone())
    });
    drop((a, b));

    p.probe("net.tcp.rendezvous_ms", |slice| {
        let mut t = sample(slice, |()| {
            let mut coordinator = Coordinator::bind("127.0.0.1:0").expect("bind coordinator");
            let addr = coordinator
                .local_addr()
                .expect("coordinator address")
                .to_string();
            let joiners: Vec<_> = (0..tcp::EXECUTORS)
                .map(|_| {
                    let addr = addr.clone();
                    std::thread::spawn(move || rendezvous::join(&addr, Duration::from_secs(10)))
                })
                .collect();
            let controls = coordinator
                .wait_for(tcp::EXECUTORS, tcp::CHANNELS, Duration::from_secs(10))
                .expect("rendezvous");
            for j in joiners {
                drop(j.join().expect("joiner thread").expect("join"));
            }
            drop(controls);
        });
        1e3 * median(&mut t)
    });
}

fn collective_probes(p: &mut Probes, seed: u64) {
    let flat = RingClusterSpec::unshaped(1, mesh::EXECUTORS, 2);
    p.probe("collectives.ring_rs.ms_p50", |slice| {
        1e3 * collective_p50(
            slice,
            &flat,
            |c| dense_segments(RING_SEGMENTS, SEG, c.rank()),
            |c, segs| {
                black_box(ring_reduce_scatter(c, segs).expect("ring reduce-scatter"));
            },
        )
    });
    p.probe("collectives.ring_rs_chunked4.ms_p50", |slice| {
        1e3 * collective_p50(
            slice,
            &flat,
            |c| dense_segments(RING_SEGMENTS * 4, SEG / 4, c.rank()),
            |c, segs| {
                black_box(ring_reduce_scatter_chunked(c, segs, 4).expect("chunked reduce-scatter"));
            },
        )
    });
    p.probe("collectives.halving_rs.ms_p50", |slice| {
        1e3 * collective_p50(
            slice,
            &flat,
            |c| dense_segments(RING_SEGMENTS, SEG, c.rank()),
            |c, segs| {
                black_box(
                    recursive_halving_reduce_scatter(c, segs).expect("halving reduce-scatter"),
                );
            },
        )
    });
    p.probe("collectives.hier_rs.ms_p50", |slice| {
        // 2 nodes x 2 executors: P·L = 4 segments carry the same 4 MiB.
        1e3 * collective_p50(
            slice,
            &RingClusterSpec::unshaped(2, 2, 2),
            |c| dense_segments(4, 2 * SEG, c.rank()),
            |c, segs| {
                black_box(
                    hierarchical_reduce_scatter(c, segs).expect("hierarchical reduce-scatter"),
                );
            },
        )
    });
    p.probe("collectives.tree_reduce.ms_p50", |slice| {
        1e3 * collective_p50(
            slice,
            &flat,
            |c| SumSegment(vec![c.rank() as f64; RING_SEGMENTS * SEG]),
            |c, whole| {
                black_box(binomial_tree_reduce(c, whole, 0).expect("tree reduce"));
            },
        )
    });
    p.probe("collectives.gather.ms_p50", |slice| {
        1e3 * collective_p50(
            slice,
            &flat,
            |c| -> Vec<OwnedSegment<SumSegment>> {
                (2 * c.rank()..2 * c.rank() + 2)
                    .map(|index| OwnedSegment {
                        index,
                        segment: SumSegment(vec![index as f64; SEG]),
                    })
                    .collect()
            },
            |c, owned| {
                black_box(gather_segments(c, owned, 0, RING_SEGMENTS).expect("gather"));
            },
        )
    });
    p.probe("collectives.ring_rs_small.us_p50", |slice| {
        1e6 * collective_p50(
            slice,
            &flat,
            |c| dense_segments(RING_SEGMENTS, 8, c.rank()),
            |c, segs| {
                black_box(ring_reduce_scatter(c, segs).expect("small reduce-scatter"));
            },
        )
    });
    p.probe("collectives.ring_rs_sparse.ms_p50", |slice| {
        let len = SPARSE_DIM / RING_SEGMENTS;
        1e3 * collective_p50(
            slice,
            &flat,
            |c| -> Vec<DenseOrSparse> {
                (0..RING_SEGMENTS)
                    .map(|g| {
                        let seg = sparse_segment(len, len / 100, seed ^ (c.rank() * 64 + g) as u64);
                        DenseOrSparse::from_sparse(seg, DEFAULT_DENSITY_THRESHOLD)
                    })
                    .collect()
            },
            |c, segs| {
                black_box(ring_reduce_scatter(c, segs).expect("sparse reduce-scatter"));
            },
        )
    });
}

fn sparse_probes(p: &mut Probes, seed: u64) {
    // One partition of `sparse_grad` folds 500 examples x 20 non-zeros.
    let adds = (SPARSE_EXAMPLES as usize / PARTITIONS) * SPARSE_NNZ;
    let updates: Vec<(u32, f64)> = {
        let mut rng = SplitMix64::new(seed ^ 0xADD5);
        (0..adds)
            .map(|_| {
                (
                    rng.next_below(SPARSE_DIM as u64) as u32,
                    rng.next_f64() - 0.5,
                )
            })
            .collect()
    };
    let accum_of = |updates: &[(u32, f64)]| {
        let mut acc = SparseAccum::zeros(SPARSE_DIM);
        for &(i, d) in updates {
            acc.add(i, d);
        }
        acc
    };
    p.probe("sparse.accum_add_ns", |slice| {
        let mut t = sample(slice, |()| {
            black_box(accum_of(&updates));
        });
        1e9 * median(&mut t) / adds as f64
    });
    let left = accum_of(&updates);
    let right = accum_of(&updates.iter().map(|&(i, d)| (i ^ 1, d)).collect::<Vec<_>>());
    p.probe("sparse.accum_merge_us", |slice| {
        let mut t = sample_with(
            slice,
            || left.clone(),
            |mut acc| {
                acc.merge(&right);
                black_box(acc);
            },
        );
        1e6 * median(&mut t)
    });
    // An executor's accumulator (2 partitions, ~20 000 non-zeros) splits
    // into 8 segments of 125 000 dims with ~2 500 non-zeros each.
    let len = SPARSE_DIM / RING_SEGMENTS;
    let nnz = 2 * adds / RING_SEGMENTS;
    let (seg_a, seg_b) = (
        sparse_segment(len, nnz, seed ^ 0xA),
        sparse_segment(len, nnz, seed ^ 0xB),
    );
    p.probe("sparse.segment_merge_ns_per_nnz", |slice| {
        let mut t = sample_with(
            slice,
            || seg_a.clone(),
            |mut seg| {
                seg.merge_sparse(&seg_b);
                black_box(seg);
            },
        );
        1e9 * median(&mut t) / nnz as f64
    });
    // Two 30%-dense segments merge to ~51%: across the densify threshold.
    let dense_a = DenseOrSparse::from_sparse(
        sparse_segment(len, len * 3 / 10, seed ^ 0xC),
        DEFAULT_DENSITY_THRESHOLD,
    );
    let dense_b = DenseOrSparse::from_sparse(
        sparse_segment(len, len * 3 / 10, seed ^ 0xD),
        DEFAULT_DENSITY_THRESHOLD,
    );
    p.probe("sparse.adaptive_merge_us", |slice| {
        let mut t = sample_with(
            slice,
            || dense_a.clone(),
            |mut seg| {
                seg.merge(&dense_b);
                assert!(
                    !seg.is_sparse(),
                    "adaptive merge probe must cross the threshold"
                );
                black_box(seg);
            },
        );
        1e6 * median(&mut t)
    });
    let wire_seg = DenseOrSparse::from_sparse(seg_a.clone(), DEFAULT_DENSITY_THRESHOLD);
    let wire_bytes = wire_seg.size_hint();
    let pool = FramePool::new();
    p.probe("sparse.encode_mb_per_s", |slice| {
        let mut t = sample(slice, |()| {
            pool.recycle_frame(black_box(wire_seg.to_frame_pooled(&pool)));
        });
        mb_per_s(wire_bytes, median(&mut t))
    });
    p.probe("sparse.wire_ratio_permille", |_| {
        1000.0 * wire_bytes as f64 / dense_wire_bytes(len) as f64
    });
}

fn engine_probes(p: &mut Probes, seed: u64) {
    let cluster = LocalCluster::local(mesh::EXECUTORS, 1);
    let empty = cluster
        .generate(mesh::EXECUTORS, |_| Vec::<u64>::new())
        .cache();
    assert_eq!(empty.count().expect("cache preload"), 0);
    p.probe("engine.stage_us_p50", |slice| {
        let mut t = sample(slice, |()| {
            black_box(empty.count().expect("no-op stage"));
        });
        1e6 * median(&mut t)
    });
    let (corpus, _) = mesh::lda_corpus(seed);
    let beta = F64Array(f64_ramp(LDA_TOPICS * corpus.vocab_size, seed));
    p.probe("engine.broadcast_ms_p50", |slice| {
        let mut t = sample_with(
            slice,
            || beta.clone(),
            |value| cluster.broadcast(value).expect("broadcast").destroy(),
        );
        1e3 * median(&mut t)
    });
    let data = mesh::dense_dataset(&cluster, seed);
    let mut tree_ms = 0.0;
    p.probe("engine.tree_aggregate.ms_p50", |slice| {
        let mut t = sample(slice, |()| {
            let (sum, _) = data
                .tree_aggregate(
                    zeros(DENSE_DIM),
                    |mut acc: F64Array, v: &Vec<f64>| {
                        for (a, x) in acc.0.iter_mut().zip(v) {
                            *a += x;
                        }
                        acc
                    },
                    |mut a, b| {
                        merge_dense(&mut a, b);
                        a
                    },
                    TreeAggOpts::default(),
                )
                .expect("tree aggregate");
            black_box(sum);
        });
        tree_ms = 1e3 * median(&mut t);
        tree_ms
    });
    p.probe("engine.split_vs_tree_ratio", |slice| {
        let mut t = sample(slice, |()| {
            black_box(mesh::dense_split_aggregate(&data).expect("split aggregate"));
        });
        tree_ms / (1e3 * median(&mut t))
    });
    drop((data, empty, cluster));

    let big = F64Array(f64_ramp(DENSE_DIM, seed));
    p.probe("engine.imm.merge_in_us", |slice| {
        let objects = MutableObjectManager::new();
        let id = ObjectId { op: 1, slot: 0 };
        let mut t = sample_with(
            slice,
            || big.clone(),
            |value| objects.merge_in(id, value, merge_dense),
        );
        1e6 * median(&mut t)
    });
    p.probe("engine.imm.contended_merges_per_s", |slice| {
        let objects = MutableObjectManager::new();
        let id = ObjectId { op: 2, slot: 0 };
        let stop = AtomicBool::new(false);
        let merges = AtomicU64::new(0);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut mine = 0;
                    while !stop.load(Ordering::Relaxed) {
                        objects.merge_in(id, F64Array(vec![1.0; 64]), merge_dense);
                        mine += 1;
                    }
                    merges.fetch_add(mine, Ordering::Relaxed);
                });
            }
            std::thread::sleep(slice);
            stop.store(true, Ordering::Relaxed);
        });
        merges.load(Ordering::Relaxed) as f64 / t0.elapsed().as_secs_f64()
    });
}

fn sched_and_tuner_probes(p: &mut Probes) {
    p.probe("sched.dispatch_us_p50", |slice| {
        let sched = noop_scheduler(1);
        let mut t = sample(slice, |()| dispatch(&sched, 0));
        1e6 * median(&mut t)
    });
    p.probe("sched.dispatch_2c_ops_per_s", |slice| {
        let sched = noop_scheduler(2);
        let t0 = Instant::now();
        let done: usize = std::thread::scope(|s| {
            let clients: Vec<_> = (0..2)
                .map(|client| {
                    let sched = &sched;
                    s.spawn(move || sample(slice, |()| dispatch(sched, client)).len())
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread"))
                .sum()
        });
        done as f64 / t0.elapsed().as_secs_f64()
    });
    p.probe("tuner.select_us", |slice| {
        let selector = Selector::default_selector();
        let shape = JobShape::dense((DENSE_DIM * 8) as u64, mesh::EXECUTORS, 1, 2);
        1e6 * batched_p50(slice, 1000, || {
            black_box(selector.select(black_box(&shape)));
        })
    });
}

fn ml_and_data_probes(p: &mut Probes, seed: u64) {
    let whole = F64Array(f64_ramp(DENSE_DIM, seed));
    let agg_bytes = DENSE_DIM * 8;
    p.probe("ml.agg.merge_dense_mb_per_s", |slice| {
        let mut acc = zeros(DENSE_DIM);
        let mut t = sample_with(
            slice,
            || whole.clone(),
            |other| merge_dense(&mut acc, other),
        );
        mb_per_s(agg_bytes, median(&mut t))
    });
    p.probe("ml.agg.split_dense_mb_per_s", |slice| {
        let mut t = sample(slice, |()| {
            for i in 0..RING_SEGMENTS {
                black_box(split_dense(&whole, i, RING_SEGMENTS));
            }
        });
        mb_per_s(agg_bytes, median(&mut t))
    });
    let segment = split_dense(&whole, 0, RING_SEGMENTS);
    p.probe("ml.agg.merge_segments_mb_per_s", |slice| {
        let mut acc = segment.clone();
        let mut t = sample_with(
            slice,
            || segment.clone(),
            |other| merge_segments(&mut acc, other),
        );
        mb_per_s(SEG_BYTES, median(&mut t))
    });
    p.probe("ml.agg.concat_dense_mb_per_s", |slice| {
        let mut t = sample_with(
            slice,
            || {
                (0..RING_SEGMENTS)
                    .map(|i| split_dense(&whole, i, RING_SEGMENTS))
                    .collect::<Vec<_>>()
            },
            |segments| {
                black_box(concat_dense(segments));
            },
        );
        mb_per_s(agg_bytes, median(&mut t))
    });

    let gen = ClassificationGen::new(seed, SPARSE_DIM, SPARSE_NNZ);
    let weights = mesh::sparse_weights(seed);
    let examples = mesh::sparse_examples(&gen, 0..SPARSE_EXAMPLES / PARTITIONS as u64);
    p.probe("ml.agg.fold_logistic_sparse_ns_per_nnz", |slice| {
        let mut t = sample(slice, |()| {
            let acc = examples
                .iter()
                .fold(SparseAccum::zeros(SPARSE_DIM), |acc, ex| {
                    fold_logistic_sparse(acc, ex, &weights)
                });
            black_box(acc);
        });
        1e9 * median(&mut t) / (examples.len() * SPARSE_NNZ) as f64
    });
    let (corpus, docs) = mesh::lda_corpus(seed);
    p.probe("ml.lda.infer_us_per_doc", |slice| {
        let cfg = LdaConfig::new(LDA_TOPICS, corpus.vocab_size);
        let model = LdaModel::init(&cfg);
        let mut next = 0;
        let mut t = sample_with(
            slice,
            || {
                next = (next + 1) % docs;
                corpus.document(next)
            },
            |doc| {
                black_box(model.infer(&doc, cfg.inner_iterations, cfg.alpha));
            },
        );
        1e6 * median(&mut t)
    });

    p.probe("data.classification_partition_ms", |slice| {
        let mut t = sample(slice, |()| {
            black_box(gen.partition(0, PARTITIONS, SPARSE_EXAMPLES));
        });
        1e3 * median(&mut t)
    });
    p.probe("data.corpus_partition_ms", |slice| {
        let mut t = sample(slice, |()| {
            black_box(corpus.partition(0, PARTITIONS, docs));
        });
        1e3 * median(&mut t)
    });
    p.probe("data.part_vector_us", |slice| {
        let mut t = sample(slice, |()| {
            black_box(part_vector(seed, 0, 262_144, 1.0));
        });
        1e6 * median(&mut t)
    });
}
