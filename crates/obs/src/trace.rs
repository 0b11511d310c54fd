//! Hierarchical span tracing with a near-zero-cost disabled path.
//!
//! See the crate docs for the two recording tiers. Key invariants:
//!
//! * With tracing disabled, [`span`]/[`event`]/[`event_dur`] perform one
//!   relaxed atomic load and return — no lock, no allocation, no
//!   thread-local buffer creation ([`thread_buffers_created`] stays flat).
//! * Gated spans buffer in a per-thread `Vec` and flush to the global sink
//!   only when the thread's span stack empties (or the buffer exceeds a
//!   batch cap while spans are still open). Each flush appends whole
//!   records under one lock, so concurrent emitters can interleave
//!   *batches* but never corrupt a record.
//! * Scoped spans ([`ScopedSpan`], [`record_manual`]) are always recorded,
//!   written directly to the sink at completion time; per-scope insertion
//!   order is completion order, which the engine's `History` relies on.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Which layer of the system emitted a span. Doubles as the Chrome trace
/// category, and as the "≥1 span per layer" checklist in the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// Driver-side op phases (compute / reduce / driver-merge stopwatches).
    Driver,
    /// Stage completions — the history-log tier the paper's Fig 2 mines.
    Stage,
    /// Individual task attempts inside a stage.
    Task,
    /// Collective steps (ring / halving / allgather), one per hop.
    Step,
    /// Transport events: sends, receives, BlockManager put/fetch, faults.
    Net,
    /// ML driver loop iterations (GLM / LDA).
    Ml,
}

impl Layer {
    /// Every layer, in taxonomy order (driver-out → wire-in).
    pub const ALL: [Layer; 6] =
        [Layer::Driver, Layer::Stage, Layer::Task, Layer::Step, Layer::Net, Layer::Ml];

    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Driver => "driver",
            Layer::Stage => "stage",
            Layer::Task => "task",
            Layer::Step => "step",
            Layer::Net => "net",
            Layer::Ml => "ml",
        }
    }
}

/// One completed span (or instant event, when `dur_ns == 0`).
///
/// Timestamps are nanoseconds since the process trace epoch (the first
/// time any part of this module touched the clock).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id (process-wide, never 0).
    pub id: u64,
    /// Parent span id, or 0 for a root span.
    pub parent: u64,
    /// Scope id tying the span to one cluster / history instance
    /// (0 = unscoped).
    pub scope: u64,
    /// Stable per-thread id (dense, assigned at first emission).
    pub tid: u64,
    pub layer: Layer,
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Numeric attributes: task index, attempt, bytes, peer rank, epoch…
    pub args: Vec<(&'static str, u64)>,
}

impl SpanRecord {
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }

    pub fn arg(&self, key: &str) -> Option<u64> {
        self.args.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

// ---------------------------------------------------------------------------
// Global state
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_SCOPE_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static BUFFERS_CREATED: AtomicU64 = AtomicU64::new(0);
static SINK: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// A sink write never blocks on a poisoned lock: a panicking emitter only
/// ever leaves whole records behind, so the data is still consistent.
fn sink() -> MutexGuard<'static, Vec<SpanRecord>> {
    SINK.lock().unwrap_or_else(|e| e.into_inner())
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// Allocates a fresh scope id (one per cluster / history instance).
pub fn next_scope() -> u64 {
    NEXT_SCOPE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Turn fine-grained (task/step/net/ml) tracing on.
pub fn enable() {
    epoch(); // pin the epoch before the first gated span
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn fine-grained tracing off. Buffered spans on other threads still
/// flush when their outermost span closes.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// The hot-path gate: one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// How many per-thread trace buffers have ever been allocated. The
/// disabled-overhead test asserts this stays flat across a traced-off run.
pub fn thread_buffers_created() -> u64 {
    BUFFERS_CREATED.load(Ordering::SeqCst)
}

// ---------------------------------------------------------------------------
// Reading the sink
// ---------------------------------------------------------------------------

/// Clones every record currently in the sink. Gated spans appear once
/// their thread's outermost span has closed (whole-batch flush).
pub fn snapshot() -> Vec<SpanRecord> {
    sink().clone()
}

/// Clones the records belonging to one scope, in completion order.
pub fn snapshot_scope(scope: u64) -> Vec<SpanRecord> {
    sink().iter().filter(|r| r.scope == scope).cloned().collect()
}

/// Drains the sink (all scopes). Intended for end-of-process export; a
/// live `History` whose scope is drained simply reports empty afterwards.
pub fn take() -> Vec<SpanRecord> {
    std::mem::take(&mut *sink())
}

/// Drops every record in one scope (called by `History::drop` so
/// long-lived processes don't accumulate dead clusters' stage spans).
pub fn clear_scope(scope: u64) {
    sink().retain(|r| r.scope != scope);
}

/// Drops everything.
pub fn clear() {
    sink().clear();
}

// ---------------------------------------------------------------------------
// Gated tier: per-thread buffers
// ---------------------------------------------------------------------------

/// Closed-but-unflushed records are batched out if they pile past this
/// while an outer span is still open (keeps long tasks' memory bounded).
const FLUSH_BATCH: usize = 4096;

struct ThreadBuf {
    tid: u64,
    /// Open span ids, innermost last.
    stack: Vec<u64>,
    /// Closed records awaiting flush.
    done: Vec<SpanRecord>,
}

thread_local! {
    static TBUF: RefCell<Option<ThreadBuf>> = const { RefCell::new(None) };
}

fn with_buf<R>(f: impl FnOnce(&mut ThreadBuf) -> R) -> R {
    TBUF.with(|cell| {
        let mut slot = cell.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            BUFFERS_CREATED.fetch_add(1, Ordering::SeqCst);
            ThreadBuf {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                stack: Vec::new(),
                done: Vec::new(),
            }
        });
        f(buf)
    })
}

fn push_done(buf: &mut ThreadBuf, record: SpanRecord) {
    buf.done.push(record);
    if buf.stack.is_empty() || buf.done.len() >= FLUSH_BATCH {
        sink().append(&mut buf.done);
    }
}

/// RAII guard for a gated span. Obtained from [`span`] /
/// [`span_with_parent`]; a no-op shell when tracing is disabled.
pub struct SpanGuard {
    inner: Option<OpenSpan>,
}

struct OpenSpan {
    id: u64,
    parent: u64,
    scope: u64,
    layer: Layer,
    name: String,
    start: Instant,
    args: Vec<(&'static str, u64)>,
}

impl SpanGuard {
    /// Attach a numeric attribute. No-op when disabled.
    pub fn arg(&mut self, key: &'static str, value: u64) -> &mut Self {
        if let Some(s) = self.inner.as_mut() {
            s.args.push((key, value));
        }
        self
    }

    /// The span id (0 when disabled) — for parenting cross-thread children.
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| s.id)
    }

    /// Is this guard actually recording?
    pub fn active(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.inner.take() else { return };
        let dur = open.start.elapsed();
        let start_ns = (open.start - epoch()).as_nanos() as u64;
        with_buf(|buf| {
            // Pop this span off the open stack (it is the innermost one on
            // this thread unless guards were dropped out of order; `retain`
            // keeps the stack sane either way).
            if buf.stack.last() == Some(&open.id) {
                buf.stack.pop();
            } else {
                buf.stack.retain(|&id| id != open.id);
            }
            push_done(
                buf,
                SpanRecord {
                    id: open.id,
                    parent: open.parent,
                    scope: open.scope,
                    tid: buf.tid,
                    layer: open.layer,
                    name: open.name,
                    start_ns,
                    dur_ns: dur.as_nanos() as u64,
                    args: open.args,
                },
            );
        });
    }
}

/// Opens a gated span on the current thread. Parent = the thread's
/// innermost open span, if any.
#[inline]
pub fn span(layer: Layer, name: impl Into<String>) -> SpanGuard {
    if !enabled() {
        return SpanGuard { inner: None };
    }
    open_span(layer, name.into(), None)
}

/// Opens a gated span with an explicit parent (e.g. a task span parented
/// to the driver's stage span across threads). Falls back to the thread's
/// innermost open span when `parent` is 0 and one exists.
#[inline]
pub fn span_with_parent(layer: Layer, name: impl Into<String>, parent: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard { inner: None };
    }
    open_span(layer, name.into(), Some(parent))
}

fn open_span(layer: Layer, name: String, parent: Option<u64>) -> SpanGuard {
    let id = next_span_id();
    let start = Instant::now();
    let parent = with_buf(|buf| {
        let p = match parent {
            Some(0) | None => buf.stack.last().copied().unwrap_or(0),
            Some(p) => p,
        };
        buf.stack.push(id);
        p
    });
    SpanGuard {
        inner: Some(OpenSpan { id, parent, scope: 0, layer, name, start, args: Vec::new() }),
    }
}

/// Records a gated instant event (duration 0).
#[inline]
pub fn event(layer: Layer, name: &str, args: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    record_gated(layer, name, now_ns(), 0, args);
}

/// Records a gated completed span from a start `Instant` captured by the
/// caller — the "measure only successful operations" pattern:
///
/// ```ignore
/// let t0 = obs::trace::enabled().then(Instant::now);
/// let msg = transport.recv(...)?;           // early return records nothing
/// if let Some(t0) = t0 {
///     obs::trace::event_dur(Layer::Net, "sc.recv", t0, &[("bytes", n)]);
/// }
/// ```
#[inline]
pub fn event_dur(layer: Layer, name: &str, start: Instant, args: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    let e = epoch();
    let start_ns = start.checked_duration_since(e).unwrap_or(Duration::ZERO).as_nanos() as u64;
    let dur_ns = start.elapsed().as_nanos() as u64;
    record_gated(layer, name, start_ns, dur_ns, args);
}

fn record_gated(layer: Layer, name: &str, start_ns: u64, dur_ns: u64, args: &[(&'static str, u64)]) {
    let id = next_span_id();
    with_buf(|buf| {
        let parent = buf.stack.last().copied().unwrap_or(0);
        push_done(
            buf,
            SpanRecord {
                id,
                parent,
                scope: 0,
                tid: buf.tid,
                layer,
                name: name.to_string(),
                start_ns,
                dur_ns,
                args: args.to_vec(),
            },
        );
    });
}

// ---------------------------------------------------------------------------
// Always-on tier: scoped spans
// ---------------------------------------------------------------------------

/// A driver-side span that is **always recorded** (tracing flag ignored),
/// tagged with a scope id. The engine's `History` and `AggMetrics` are
/// derived views over these records.
///
/// Recording happens on [`finish`](ScopedSpan::finish) only — a dropped
/// (not finished) span records nothing, matching the engine's historical
/// behaviour of not logging failed stages.
pub struct ScopedSpan {
    id: u64,
    parent: u64,
    scope: u64,
    layer: Layer,
    name: String,
    start: Instant,
    args: Vec<(&'static str, u64)>,
}

impl ScopedSpan {
    pub fn begin(scope: u64, layer: Layer, name: impl Into<String>) -> Self {
        ScopedSpan {
            id: next_span_id(),
            parent: 0,
            scope,
            layer,
            name: name.into(),
            start: Instant::now(),
            args: Vec::new(),
        }
    }

    pub fn with_parent(mut self, parent: u64) -> Self {
        self.parent = parent;
        self
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn arg(&mut self, key: &'static str, value: u64) -> &mut Self {
        self.args.push((key, value));
        self
    }

    /// Close the span, write it to the sink, and return its measured wall
    /// time (so callers can keep using the span as their stopwatch).
    pub fn finish(self) -> Duration {
        let dur = self.start.elapsed();
        let e = epoch();
        let start_ns =
            self.start.checked_duration_since(e).unwrap_or(Duration::ZERO).as_nanos() as u64;
        sink().push(SpanRecord {
            id: self.id,
            parent: self.parent,
            scope: self.scope,
            tid: 0,
            layer: self.layer,
            name: self.name,
            start_ns,
            dur_ns: dur.as_nanos() as u64,
            args: self.args,
        });
        dur
    }
}

/// Records a completed scoped span whose duration was measured externally
/// (start is back-dated to `now - wall`). Used by `History::record`.
pub fn record_manual(
    scope: u64,
    layer: Layer,
    name: impl Into<String>,
    wall: Duration,
    args: &[(&'static str, u64)],
) -> u64 {
    let id = next_span_id();
    let end_ns = now_ns();
    let wall_ns = wall.as_nanos() as u64;
    sink().push(SpanRecord {
        id,
        parent: 0,
        scope,
        tid: 0,
        layer,
        name: name.into(),
        start_ns: end_ns.saturating_sub(wall_ns),
        dur_ns: wall_ns,
        args: args.to_vec(),
    });
    id
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Enable/disable toggles are process-global; tests that flip them
    /// serialize through this lock (ignoring poison from failed tests).
    static TOGGLE: Mutex<()> = Mutex::new(());

    fn locked() -> MutexGuard<'static, ()> {
        TOGGLE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_span_is_inert() {
        let _l = locked();
        disable();
        let before = thread_buffers_created();
        {
            let mut g = span(Layer::Task, "noop");
            g.arg("x", 1);
            assert_eq!(g.id(), 0);
            assert!(!g.active());
        }
        event(Layer::Net, "noop", &[("bytes", 7)]);
        assert_eq!(thread_buffers_created(), before, "disabled path allocated a buffer");
    }

    #[test]
    fn nesting_and_flush_on_outermost_close() {
        let _l = locked();
        enable();
        clear();
        let outer_id;
        {
            let outer = span(Layer::Task, "outer");
            outer_id = outer.id();
            {
                let inner = span(Layer::Step, "inner");
                assert_ne!(inner.id(), 0);
                // inner closes first but nothing is flushed yet…
            }
            assert!(
                snapshot().iter().all(|r| r.name != "inner"),
                "inner flushed before outermost close"
            );
        }
        let spans = snapshot();
        disable();
        let inner = spans.iter().find(|r| r.name == "inner").expect("inner recorded");
        let outer = spans.iter().find(|r| r.name == "outer").expect("outer recorded");
        assert_eq!(inner.parent, outer_id);
        assert_eq!(outer.parent, 0);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.end_ns() <= outer.end_ns() + 1_000, "child must not outlive parent");
        clear();
    }

    #[test]
    fn scoped_spans_ignore_enable_flag_and_keep_order() {
        let _l = locked();
        disable();
        let scope = next_scope();
        for i in 0..5u64 {
            record_manual(scope, Layer::Stage, format!("s{i}"), Duration::from_millis(i), &[]);
        }
        let got = snapshot_scope(scope);
        assert_eq!(got.len(), 5);
        for (i, r) in got.iter().enumerate() {
            assert_eq!(r.name, format!("s{i}"), "completion order preserved");
        }
        clear_scope(scope);
        assert!(snapshot_scope(scope).is_empty());
    }

    #[test]
    fn parallel_emission_yields_whole_records() {
        let _l = locked();
        enable();
        clear();
        const THREADS: usize = 8;
        const PER: usize = 500;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                s.spawn(move || {
                    for i in 0..PER {
                        let mut g = span(Layer::Step, format!("t{t}-i{i}"));
                        g.arg("t", t as u64).arg("i", i as u64);
                    }
                });
            }
        });
        let spans: Vec<SpanRecord> =
            snapshot().into_iter().filter(|r| r.layer == Layer::Step).collect();
        disable();
        assert_eq!(spans.len(), THREADS * PER);
        let mut ids: Vec<u64> = spans.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), THREADS * PER, "duplicate span ids");
        for r in &spans {
            // Every record is internally consistent: its name encodes the
            // same (thread, index) pair as its args — a torn or interleaved
            // record would disagree.
            let want = format!("t{}-i{}", r.arg("t").unwrap(), r.arg("i").unwrap());
            assert_eq!(r.name, want, "corrupt record");
        }
        clear();
    }

    #[test]
    fn event_dur_backdates_start() {
        let _l = locked();
        enable();
        clear();
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(5));
        event_dur(Layer::Net, "waited", t0, &[("bytes", 3)]);
        // events flush immediately when no span is open on this thread
        let spans = snapshot();
        disable();
        let e = spans.iter().find(|r| r.name == "waited").expect("event recorded");
        assert!(e.dur_ns >= 4_000_000, "dur {} too short", e.dur_ns);
        assert_eq!(e.arg("bytes"), Some(3));
        clear();
    }
}
