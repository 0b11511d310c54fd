//! Frame/buffer pool: allocation reuse for the reduction hot path.
//!
//! Every ring step used to pay two fresh `Vec` allocations: one when the
//! segment was encoded (`Payload::to_frame`) and one when the epoch header
//! was wrapped around it. A reduce-scatter over `N` ranks with `P` channels
//! and `C` pipeline chunks issues `P·(N−1)·C` of each per rank — all of
//! near-identical size, all dead within one step. [`FramePool`] recycles
//! those backing `Vec`s through power-of-two freelists: encoders draw from
//! the pool ([`crate::codec::Encoder::pooled`],
//! [`crate::codec::Payload::to_frame_pooled`]) and decoded frames return
//! their allocation once the value has been copied out
//! ([`crate::codec::Payload::from_frame_pooled`]). In steady state a ring
//! channel runs with zero frame allocations.
//!
//! # Why reuse cannot leak stale bytes
//!
//! A recycled buffer is handed out with `len == 0` — [`FramePool::acquire`]
//! clears the `Vec`, so only its *capacity* survives recycling — and a
//! [`ByteBuf`] frame exposes exactly the bytes the encoder wrote, never the
//! allocation's spare tail. A buffer that previously held garbage (or a
//! corrupted frame) therefore encodes and decodes bit-identically to a fresh
//! allocation; `tests/prop_pool.rs` pins this for every `Payload` impl.
//!
//! # Why reuse cannot race a reader
//!
//! [`FramePool::recycle_frame`] recovers the backing `Vec` only when the
//! frame's `Arc` is the sole owner (`Arc::try_unwrap`). A frame still
//! referenced anywhere — a zero-copy slice, a clone queued in a transport —
//! simply drops normally and is never reused under a reader.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use sparker_obs::metrics::{self, Counter, Gauge};

use crate::bytebuf::ByteBuf;
use crate::sync::Mutex;

/// Smallest pooled class: 2^6 = 64 bytes. Tinier buffers are cheaper to
/// allocate than to bucket.
const MIN_CLASS: u32 = 6;
/// Largest pooled class: 2^22 = 4 MiB. Aggregator segments far above this
/// are rare enough that caching them would just pin memory.
const MAX_CLASS: u32 = 22;
/// Retained buffers per size class; excess recycles are dropped.
const MAX_PER_CLASS: usize = 32;

/// Point-in-time counters of a [`FramePool`] (monotonic since creation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquires served from the freelist (no allocation).
    pub hits: u64,
    /// Acquires that fell through to a fresh allocation — with the pool
    /// disabled every acquire is a miss, so this counts hot-path frame
    /// allocations in both configurations.
    pub misses: u64,
    /// Capacity bytes handed back out by hits.
    pub bytes_reused: u64,
}

/// Live occupancy of one pool size class, for leak checks and dashboards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassOccupancy {
    /// Class buffer size in bytes (`2^class`).
    pub size: usize,
    /// Buffers currently checked out of this class (acquired, not yet
    /// recycled). Can exceed `cap` under load — that is the pressure signal.
    pub in_use: u64,
    /// Buffers sitting on the freelist, ready for reuse.
    pub free: usize,
    /// Retention cap per class (`MAX_PER_CLASS`).
    pub cap: usize,
}

/// A freelist of reusable encode buffers, bucketed by power-of-two capacity.
pub struct FramePool {
    classes: Vec<Mutex<Vec<Vec<u8>>>>,
    /// Outstanding (acquired, unrecycled) buffers per class. Only pooled-range
    /// acquires on an *enabled* pool are tracked, mirroring exactly the
    /// buffers [`FramePool::recycle_vec`] would accept back.
    in_use: Vec<AtomicI64>,
    enabled: bool,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes_reused: AtomicU64,
}

impl Default for FramePool {
    fn default() -> Self {
        Self::new()
    }
}

impl FramePool {
    /// An enabled pool with empty freelists.
    pub fn new() -> Self {
        Self {
            classes: (MIN_CLASS..=MAX_CLASS).map(|_| Mutex::new(Vec::new())).collect(),
            in_use: (MIN_CLASS..=MAX_CLASS).map(|_| AtomicI64::new(0)).collect(),
            enabled: true,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes_reused: AtomicU64::new(0),
        }
    }

    /// A pool that never reuses: every acquire allocates (and counts a miss),
    /// every recycle is dropped. The unpooled baseline for A/B benchmarks.
    pub fn disabled() -> Self {
        Self { enabled: false, ..Self::new() }
    }

    /// Whether buffer reuse is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Freelist class that buffers of `capacity` are stored under: buffers in
    /// class `c` have capacity in `[2^c, 2^(c+1))`, so any buffer popped from
    /// class `ceil_log2(cap)` can hold `cap` bytes without growing.
    fn store_class(capacity: usize) -> Option<usize> {
        if capacity == 0 {
            return None;
        }
        let c = usize::BITS - 1 - capacity.leading_zeros(); // floor(log2)
        (MIN_CLASS..=MAX_CLASS).contains(&c).then(|| (c - MIN_CLASS) as usize)
    }

    fn fetch_class(cap: usize) -> Option<usize> {
        let c = usize::BITS - cap.next_power_of_two().leading_zeros() - 1; // ceil(log2)
        let c = c.max(MIN_CLASS);
        (c <= MAX_CLASS).then(|| (c - MIN_CLASS) as usize)
    }

    /// Returns an empty `Vec` with at least `cap` bytes of capacity,
    /// reusing a recycled buffer when one is available.
    ///
    /// Pool misses in the pooled size range allocate the full class size
    /// (`cap` rounded up to a power of two), so a pool-allocated buffer
    /// recycles into exactly the class a same-sized acquire fetches from —
    /// without the round-up, a 100-byte buffer would be stored under class
    /// `floor(log2 100)` but looked up under `ceil(log2 100)` and never hit.
    pub fn acquire(&self, cap: usize) -> Vec<u8> {
        if self.is_enabled() {
            if let Some(class) = Self::fetch_class(cap.max(1)) {
                self.in_use[class].fetch_add(1, Ordering::Relaxed);
                obs_in_use(class, 1);
                if let Some(mut buf) = self.classes[class].lock().pop() {
                    debug_assert!(buf.capacity() >= cap);
                    buf.clear(); // capacity survives, stale contents do not
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.bytes_reused.fetch_add(buf.capacity() as u64, Ordering::Relaxed);
                    obs_hit(buf.capacity() as u64);
                    return buf;
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                obs_miss();
                return Vec::with_capacity(1usize << (class as u32 + MIN_CLASS));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        obs_miss();
        Vec::with_capacity(cap)
    }

    /// Returns a buffer's allocation to the freelist. Buffers outside the
    /// pooled size range (or beyond the per-class cap) are dropped.
    pub fn recycle_vec(&self, buf: Vec<u8>) {
        if !self.is_enabled() {
            return;
        }
        if let Some(class) = Self::store_class(buf.capacity()) {
            // A pool-acquired buffer recycles into the class it was fetched
            // from (acquires round capacity up to the class size), so this
            // balances the acquire-side increment. Foreign buffers that were
            // never acquired here are clamped at zero instead of driving the
            // occupancy negative.
            let decremented = self.in_use[class]
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| (v > 0).then(|| v - 1))
                .is_ok();
            if decremented {
                obs_in_use(class, -1);
            }
            let mut shelf = self.classes[class].lock();
            if shelf.len() < MAX_PER_CLASS {
                shelf.push(buf);
            }
        }
    }

    /// Tries to reclaim a frame's backing allocation for reuse. Succeeds
    /// (returns `true`) only when `frame` is the sole owner of its `Arc`;
    /// shared frames drop normally and are never reused under a reader.
    pub fn recycle_frame(&self, frame: ByteBuf) -> bool {
        match frame.try_unwrap_vec() {
            Ok(buf) => {
                self.recycle_vec(buf);
                true
            }
            Err(_shared) => false,
        }
    }

    /// Live per-class occupancy: buffers checked out, buffers free, and the
    /// retention cap, smallest class first. Exported as `pool.class_{size}.in_use`
    /// gauges as acquires/recycles happen; this is the poll-based view.
    pub fn occupancy(&self) -> Vec<ClassOccupancy> {
        (MIN_CLASS..=MAX_CLASS)
            .map(|c| {
                let idx = (c - MIN_CLASS) as usize;
                ClassOccupancy {
                    size: 1usize << c,
                    in_use: self.in_use[idx].load(Ordering::Relaxed).max(0) as u64,
                    free: self.classes[idx].lock().len(),
                    cap: MAX_PER_CLASS,
                }
            })
            .collect()
    }

    /// Pool pressure in permille: the most contended class's `in_use` count
    /// relative to the retention cap, so 1000 means "one full class's worth
    /// of buffers is checked out" and values above 1000 mean acquires are
    /// outrunning what the freelist can ever hand back. 0 means every buffer
    /// came back, which is what leak checks wait for.
    pub fn pressure_permille(&self) -> u64 {
        self.in_use
            .iter()
            .map(|n| n.load(Ordering::Relaxed).max(0) as u64 * 1000 / MAX_PER_CLASS as u64)
            .max()
            .unwrap_or(0)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes_reused: self.bytes_reused.load(Ordering::Relaxed),
        }
    }
}

fn obs_hit(bytes: u64) {
    static HITS: OnceLock<Arc<Counter>> = OnceLock::new();
    static BYTES: OnceLock<Arc<Counter>> = OnceLock::new();
    HITS.get_or_init(|| metrics::counter("net.pool.hits")).inc();
    BYTES.get_or_init(|| metrics::counter("net.pool.bytes_reused")).add(bytes);
}

fn obs_miss() {
    static MISSES: OnceLock<Arc<Counter>> = OnceLock::new();
    MISSES.get_or_init(|| metrics::counter("net.pool.misses")).inc();
}

/// Mirrors per-class occupancy into `pool.class_{size}.in_use` gauges. Deltas
/// (not absolute sets) so the gauge is the sum across every enabled pool in
/// the process — one coherent "buffers checked out" number per size class.
fn obs_in_use(class: usize, delta: i64) {
    static GAUGES: OnceLock<Vec<Arc<Gauge>>> = OnceLock::new();
    let gauges = GAUGES.get_or_init(|| {
        (MIN_CLASS..=MAX_CLASS)
            .map(|c| metrics::gauge(&format!("pool.class_{}.in_use", 1usize << c)))
            .collect()
    });
    gauges[class].add(delta);
}

/// The process-wide pool the hot paths (epoch wrapping, ring passes) draw
/// from. An unpooled baseline is a separate [`FramePool::disabled`].
pub fn global() -> &'static FramePool {
    static GLOBAL: OnceLock<FramePool> = OnceLock::new();
    GLOBAL.get_or_init(FramePool::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_recycle_reuses_the_allocation() {
        let pool = FramePool::new();
        let mut a = pool.acquire(100);
        a.extend_from_slice(&[0xAA; 100]);
        let ptr = a.as_ptr() as usize;
        pool.recycle_vec(a);
        let b = pool.acquire(100);
        assert_eq!(b.as_ptr() as usize, ptr, "same allocation handed back");
        assert!(b.is_empty(), "recycled buffer is cleared");
        assert!(b.capacity() >= 100);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!(s.bytes_reused >= 100);
    }

    #[test]
    fn recycle_frame_requires_sole_ownership() {
        let pool = FramePool::new();
        let frame = ByteBuf::from(vec![1u8; 128]);
        let clone = frame.clone();
        assert!(!pool.recycle_frame(frame), "shared frame must not be reclaimed");
        assert!(pool.recycle_frame(clone), "last owner reclaims");
        assert_eq!(pool.stats().hits, 0);
        assert_eq!(pool.acquire(128).capacity(), 128);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn windowed_frame_still_reclaims_full_allocation() {
        let pool = FramePool::new();
        let mut frame = ByteBuf::from(vec![7u8; 256]);
        let head = frame.split_to(100);
        drop(frame); // tail view gone; head is now sole owner
        assert!(pool.recycle_frame(head));
        assert!(pool.acquire(200).capacity() >= 256);
    }

    #[test]
    fn disabled_pool_always_allocates_and_counts_misses() {
        let pool = FramePool::disabled();
        let a = pool.acquire(64);
        pool.recycle_vec(a);
        let _b = pool.acquire(64);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.bytes_reused), (0, 2, 0));
    }

    #[test]
    fn class_bounds_guarantee_fit() {
        let pool = FramePool::new();
        // A 100-byte-capacity buffer lands in class floor(log2 100) = 6 (64).
        // An acquire for 100 looks in class ceil(log2 100) = 7 (128), so it
        // must NOT get the 100-byte buffer back (it could be too small for
        // a 128-byte request sharing the class).
        let small = Vec::with_capacity(100);
        pool.recycle_vec(small);
        let got = pool.acquire(128);
        assert!(got.capacity() >= 128);
        assert_eq!(pool.stats().misses, 1);
        // Same-power-of-two roundtrip does fit.
        pool.recycle_vec(Vec::with_capacity(128));
        assert!(pool.acquire(128).capacity() >= 128);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn oversized_and_tiny_buffers_are_not_pooled() {
        let pool = FramePool::new();
        pool.recycle_vec(Vec::with_capacity(8)); // below MIN_CLASS
        pool.recycle_vec(Vec::with_capacity(64 << 20)); // above MAX_CLASS
        // Neither was retained: both acquires below fall through to misses.
        assert!(pool.acquire(8).capacity() >= 8); // rounded up to MIN class
        assert_eq!(pool.acquire(64 << 20).capacity(), 64 << 20); // beyond range: exact
        assert_eq!(pool.stats().hits, 0);
        assert_eq!(pool.stats().misses, 2);
    }

    #[test]
    fn per_class_cap_bounds_retention() {
        let pool = FramePool::new();
        for _ in 0..(MAX_PER_CLASS + 10) {
            pool.recycle_vec(Vec::with_capacity(1024));
        }
        let mut reused = 0;
        for _ in 0..(MAX_PER_CLASS + 10) {
            let b = pool.acquire(1024);
            if b.capacity() >= 1024 {
                reused += 1;
            }
        }
        assert_eq!(pool.stats().hits as usize, MAX_PER_CLASS);
        assert_eq!(reused, MAX_PER_CLASS + 10); // misses still allocate correctly
    }

    #[test]
    fn occupancy_tracks_outstanding_buffers() {
        let pool = FramePool::new();
        assert_eq!(pool.pressure_permille(), 0);
        let a = pool.acquire(1024); // class 10
        let b = pool.acquire(1024);
        let occ = pool.occupancy();
        let class = occ.iter().find(|c| c.size == 1024).unwrap();
        assert_eq!(class.in_use, 2);
        assert_eq!(class.cap, MAX_PER_CLASS);
        assert_eq!(pool.pressure_permille(), 2 * 1000 / MAX_PER_CLASS as u64);
        pool.recycle_vec(a);
        pool.recycle_vec(b);
        let occ = pool.occupancy();
        let class = occ.iter().find(|c| c.size == 1024).unwrap();
        assert_eq!(class.in_use, 0, "recycling releases occupancy");
        assert_eq!(class.free, 2);
        assert_eq!(pool.pressure_permille(), 0);
    }

    #[test]
    fn foreign_recycles_never_drive_occupancy_negative() {
        let pool = FramePool::new();
        // Recycle buffers that were never acquired from this pool.
        pool.recycle_vec(Vec::with_capacity(512));
        pool.recycle_vec(Vec::with_capacity(512));
        assert!(pool.occupancy().iter().all(|c| c.in_use == 0));
        // And a later acquire/recycle pair still balances to zero.
        let buf = pool.acquire(512);
        pool.recycle_vec(buf);
        assert!(pool.occupancy().iter().all(|c| c.in_use == 0));
    }

    #[test]
    fn pressure_exceeds_cap_under_load() {
        let pool = FramePool::new();
        let held: Vec<_> = (0..2 * MAX_PER_CLASS).map(|_| pool.acquire(4096)).collect();
        assert_eq!(pool.pressure_permille(), 2000, "2x the retention cap checked out");
        for buf in held {
            pool.recycle_vec(buf);
        }
        assert_eq!(pool.pressure_permille(), 0);
    }

    #[test]
    fn disabled_pool_tracks_no_occupancy() {
        let pool = FramePool::disabled();
        let a = pool.acquire(2048);
        assert!(pool.occupancy().iter().all(|c| c.in_use == 0));
        pool.recycle_vec(a);
        assert!(pool.occupancy().iter().all(|c| c.in_use == 0));
    }
}
