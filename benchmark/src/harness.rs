//! One pass of one workload: set-up, a closed loop of ops for a fixed time
//! with verification outside the timed interval, and the metrics built from
//! what the loop saw.
//!
//! The untraced pass measures `INSTANCES` instances of the system, each in a
//! process of its own, and pools them; the traced pass measures one instance
//! in-process and then runs the layer probes.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sparker_net::pool;
use sparker_net::transport::NetStatsSnapshot;
use sparker_obs::json::Json;
use sparker_obs::trace;

use crate::json::Value;
use crate::names::{MetricDef, END_TO_END, PER_LAYER};
use crate::spans::Recorder;
use crate::stats::{median, tail};

/// Instances of the system per untraced pass, each in a fresh process with
/// its share of the window. Op samples pool over them, and `setup_s` and
/// `peak_rss_mb` are medians over them, so where one process's threads and
/// pages happened to land does not decide the run's numbers. (Setting up
/// again inside one process does not do: `dense_large` runs 30% slower on
/// the heap a torn-down cluster leaves behind than in a fresh process.)
const INSTANCES: u32 = 6;
/// `ops_per_s` is a median over blocks of this many consecutive ops.
const RATE_BLOCK: usize = 10;
/// Share of `--seconds` the traced pass spends on workload ops; the layer
/// probes get the rest.
const TRACED_OPS_SHARE: f64 = 0.4;
/// The traced pass flips `sparker_obs` tracing on and off in blocks this
/// long, so both arms of `obs.enabled_overhead_pct` see the same drift.
const TRACE_BLOCK: Duration = Duration::from_millis(500);

/// What the public API reported about one op.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub compute: Duration,
    pub reduce: Duration,
    pub driver_merge: Duration,
    /// Aggregator bytes serialized for this op (0 when the API hides it).
    pub wire_bytes: u64,
    pub stages: u32,
    pub task_attempts: u32,
    /// The engine fell back from split to tree aggregation.
    pub downgraded: bool,
    /// Some task or gang attempt ran more than once.
    pub retried: bool,
    /// `(attempts, used_fallback)` of a multi-process job.
    pub multiproc: Option<(u32, bool)>,
}

pub enum OpError {
    /// A typed admission rejection.
    Rejected(String),
    Failed(String),
}

/// A workload: how to set the system up, what one op is, and its oracle.
/// `op` and `check` run on `CLIENTS` generator threads at once.
pub trait Workload: Sync + Sized {
    type Output;
    /// What `check` compares outputs against; shared by the generator threads.
    type Oracle: Sync;
    const NAME: &'static str;
    /// Generator threads; never more than the reference host's `nproc` (2).
    const CLIENTS: usize = 1;

    /// Everything before the first timed op: cluster or executor spawn,
    /// rendezvous, data generation, cache preload, warm-up ops. Timed as
    /// `setup_s`.
    fn setup(seed: u64) -> Self;
    /// Builds the oracle; untimed.
    fn oracle(&self) -> Self::Oracle;
    /// One op. The caller times it.
    fn op(&self, client: usize, i: u64) -> Result<(Self::Output, Phases), OpError>;
    /// Whether `out` is what op `i` must produce. Outside the timed interval.
    fn check(&self, oracle: &Self::Oracle, client: usize, i: u64, out: Self::Output) -> bool;
    /// `wire_bytes_per_op` for a workload whose API hides `Phases::wire_bytes`.
    /// Runs after the timed window.
    fn wire_bytes_per_op(&self) -> Option<f64> {
        None
    }
    /// Scalable-communicator counters of the cluster under test, if it has one.
    fn sc_stats(&self) -> Option<NetStatsSnapshot> {
        None
    }
    /// Per-layer values only this workload can report.
    fn extra_ledger(&self, _ledger: &mut Ledger) {}
    /// Stops everything set-up started beyond what dropping `self` stops.
    /// Returns the peak RSS (KiB) of child processes, or why the tear-down
    /// was not clean.
    fn teardown(self) -> Result<u64, String> {
        Ok(0)
    }
}

/// Per-layer values by declared name.
#[derive(Default)]
pub struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    /// Panics on a name `names::PER_LAYER` does not declare.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = PER_LAYER
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("per-layer metric `{name}` is not declared in names.rs"));
        self.0.insert(def.name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

#[derive(Debug, Clone)]
pub struct OpRecord {
    pub client: usize,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// `sparker_obs` tracing was on when the op started.
    pub traced: bool,
    pub ok: bool,
    pub rejected: bool,
    pub phases: Phases,
}

/// What one run measured, ready to print.
pub struct RunResult {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static MetricDef, f64)>,
}

/// Flips `sparker_obs` tracing in `TRACE_BLOCK`s and counts the spans the
/// program emitted while it was on.
struct TraceToggle {
    on: AtomicBool,
    spans: AtomicU64,
}

impl TraceToggle {
    /// Brings the global switch in line with the block `elapsed` falls in
    /// and returns whether tracing is on. Whichever client notices a block
    /// boundary first flips the switch; the others see it already flipped.
    fn sync(&self, elapsed: Duration) -> bool {
        let want = (elapsed.as_nanos() / TRACE_BLOCK.as_nanos()) % 2 == 1;
        if self
            .on
            .compare_exchange(!want, want, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            if want {
                // Always-on records from the untraced block are not this block's.
                trace::take();
                trace::enable();
            } else {
                self.stop();
            }
        }
        want
    }

    fn stop(&self) {
        trace::disable();
        self.spans
            .fetch_add(trace::take().len() as u64, Ordering::SeqCst);
    }
}

/// Back-to-back ops on one generator thread until `window` of non-verifying
/// time has passed.
fn client_loop<W: Workload>(
    w: &W,
    oracle: &W::Oracle,
    client: usize,
    window: Duration,
    epoch: Instant,
    toggle: Option<&TraceToggle>,
) -> Vec<OpRecord> {
    let mut records = Vec::new();
    let mut verifying = Duration::ZERO;
    let mut complaints = 0;
    let t0 = Instant::now();
    let mut i = 0u64;
    loop {
        if t0.elapsed() - verifying >= window {
            return records;
        }
        let traced = toggle.is_some_and(|t| t.sync(t0.elapsed()));
        let start = Instant::now();
        let res = w.op(client, i);
        let dur = start.elapsed();
        let verify_start = Instant::now();
        let (ok, rejected, phases) = match res {
            Ok((out, phases)) => {
                let clean = !phases.downgraded
                    && !phases.retried
                    && phases
                        .multiproc
                        .is_none_or(|(attempts, fallback)| attempts == 1 && !fallback);
                (w.check(oracle, client, i, out) && clean, false, phases)
            }
            Err(err) => {
                let (rejected, why) = match err {
                    OpError::Rejected(why) => (true, why),
                    OpError::Failed(why) => (false, why),
                };
                if complaints < 5 {
                    complaints += 1;
                    eprintln!("{}: client {client} op {i} failed: {why}", W::NAME);
                }
                (false, rejected, Phases::default())
            }
        };
        records.push(OpRecord {
            client,
            start_ns: start.duration_since(epoch).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
            traced,
            ok,
            rejected,
            phases,
        });
        verifying += verify_start.elapsed();
        i += 1;
    }
}

/// Runs `W::CLIENTS` closed loops side by side; one record list per client.
fn run_loops<W: Workload>(
    w: &W,
    oracle: &W::Oracle,
    window: Duration,
    epoch: Instant,
    toggle: Option<&TraceToggle>,
) -> Vec<Vec<OpRecord>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..W::CLIENTS)
            .map(|client| s.spawn(move || client_loop(w, oracle, client, window, epoch, toggle)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    })
}

/// Ops per second of the whole generator: threads x the median, over blocks
/// of `RATE_BLOCK` consecutive ops of one thread (the last block of a
/// sequence may be shorter), of ops per second spent in them. A closed loop
/// issues the next op at once, so time in ops is the loop's time; the block
/// median keeps the frequent part of the tail and drops rare stalls, which
/// on a shared host are mostly not the program's.
fn ops_per_s(sequences: &[Vec<u64>], clients: usize) -> f64 {
    let rates = sequences
        .iter()
        .flat_map(|seq| seq.chunks(RATE_BLOCK))
        .map(|block| block.len() as f64 / block.iter().map(|&ns| ns as f64 / 1e9).sum::<f64>());
    clients as f64 * median_of(rates)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        0.0
    } else {
        median(&mut v)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Bit-for-bit equality of two `f64` vectors.
pub fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A `Vm*` line of `/proc/<pid>/status`, in KiB.
pub fn proc_status_kib(pid: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What measuring one instance of the system produced.
struct Instance {
    setup_s: f64,
    /// One list of op records per client.
    sequences: Vec<Vec<OpRecord>>,
    /// From `Workload::wire_bytes_per_op`, else the mean of `Phases::wire_bytes`.
    wire_bytes_per_op: f64,
    /// `VmHWM` of this process plus that of the workload's child processes.
    peak_rss_kib: u64,
    /// Why the instance is not clean, beyond failed ops.
    errors: Vec<String>,
}

/// Sets `W` up, runs its closed loops for `window`, fills the parts of
/// `ledger` only a live instance can (when given one) and tears it down.
fn measure_instance<W: Workload>(
    seed: u64,
    window: Duration,
    epoch: Instant,
    traced: Option<(&TraceToggle, &mut Ledger)>,
) -> Instance {
    assert!(
        W::CLIENTS <= 2,
        "never more generator threads than the reference host's nproc"
    );
    let t0 = Instant::now();
    let w = W::setup(seed);
    let setup_s = t0.elapsed().as_secs_f64();
    let oracle = w.oracle();
    let sc_before = w.sc_stats();
    let pool_before = pool::global().stats();
    let sequences = run_loops(&w, &oracle, window, epoch, traced.as_ref().map(|(t, _)| *t));
    let n = sequences.iter().map(Vec::len).sum::<usize>().max(1) as f64;
    if let Some((toggle, ledger)) = traced {
        if toggle.on.swap(false, Ordering::SeqCst) {
            toggle.stop();
        }
        if let (Some(a), Some(b)) = (sc_before, w.sc_stats()) {
            ledger.set("net.sc.msgs_per_op", (b.messages - a.messages) as f64 / n);
            ledger.set("net.sc.bytes_per_op", (b.bytes - a.bytes) as f64 / n);
        }
        let pool_after = pool::global().stats();
        let hits = (pool_after.hits - pool_before.hits) as f64;
        let misses = (pool_after.misses - pool_before.misses) as f64;
        ledger.set("net.pool.hit_ratio", ratio(hits, hits + misses));
        w.extra_ledger(ledger);
    }
    let wire_bytes_per_op = w.wire_bytes_per_op().unwrap_or_else(|| {
        sequences
            .iter()
            .flatten()
            .map(|r| r.phases.wire_bytes as f64)
            .sum::<f64>()
            / n
    });
    let (children_kib, errors) = match w.teardown() {
        Ok(kib) => (kib, Vec::new()),
        Err(why) => (0, vec![why]),
    };
    let own_kib = proc_status_kib("self", "VmHWM:").unwrap_or(0);
    Instance {
        setup_s,
        sequences,
        wire_bytes_per_op,
        peak_rss_kib: own_kib + children_kib,
        errors,
    }
}

/// `--instance` mode: measures one instance for `seconds` and returns what
/// the untraced pass pools, for the last line of standard output.
pub fn instance_report<W: Workload>(seed: u64, seconds: f64) -> Value {
    let inst = measure_instance::<W>(seed, Duration::from_secs_f64(seconds), Instant::now(), None);
    for why in &inst.errors {
        eprintln!("{}: {why}", W::NAME);
    }
    let failed = inst.sequences.iter().flatten().filter(|r| !r.ok).count();
    let durations = inst
        .sequences
        .iter()
        .map(|seq| Value::Arr(seq.iter().map(|r| Value::Int(r.dur_ns)).collect()))
        .collect();
    Value::obj([
        ("setup_s", Value::Num(inst.setup_s)),
        ("peak_rss_kib", Value::Int(inst.peak_rss_kib)),
        ("wire_bytes_per_op", Value::Num(inst.wire_bytes_per_op)),
        ("failed", Value::Int(failed as u64)),
        ("errors", Value::Int(inst.errors.len() as u64)),
        ("op_ns", Value::Arr(durations)),
    ])
}

/// The untraced pass: pools the reports of `INSTANCES` instance processes
/// (`instance(seconds)` runs one and returns its parsed report) into the
/// end-to-end metrics.
pub fn untraced_pass<W: Workload>(
    seconds: f64,
    mut instance: impl FnMut(f64) -> Result<Json, String>,
) -> Result<RunResult, String> {
    let num = |report: &Json, key: &str| {
        report
            .get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("instance report lacks `{key}`"))
    };
    let (mut setups, mut peaks_mib, mut wire) = (Vec::new(), Vec::new(), Vec::new());
    let mut sequences: Vec<Vec<u64>> = Vec::new();
    let (mut failed, mut errors) = (0, 0);
    for k in 0..INSTANCES {
        let report = instance(seconds / f64::from(INSTANCES))?;
        setups.push(num(&report, "setup_s")?);
        peaks_mib.push(num(&report, "peak_rss_kib")? / 1024.0);
        wire.push(num(&report, "wire_bytes_per_op")?);
        failed += num(&report, "failed")? as u64;
        errors += num(&report, "errors")? as u64;
        let clients = report
            .get("op_ns")
            .and_then(Json::as_array)
            .ok_or("instance report lacks `op_ns`")?;
        let mut ops = 0;
        for client in clients {
            let ns = client.as_array().ok_or("`op_ns` is not a list of lists")?;
            ops += ns.len();
            sequences.push(
                ns.iter()
                    .filter_map(Json::as_f64)
                    .map(|ns| ns as u64)
                    .collect(),
            );
        }
        eprintln!(
            "{}: instance {k}: set-up {:.3} s, {ops} ops",
            W::NAME,
            setups[k as usize]
        );
    }
    let attempted = sequences.iter().map(Vec::len).sum::<usize>() as u64;
    let value_of = |name: &str| match name {
        "setup_s" => median_of(setups.iter().copied()),
        "op_ms_p50" => median_of(sequences.iter().flatten().map(|&ns| ms(ns))),
        "ops_per_s" => ops_per_s(&sequences, W::CLIENTS),
        "wire_bytes_per_op" => median_of(wire.iter().copied()),
        "peak_rss_mb" => median_of(peaks_mib.iter().copied()),
        "ok_share" => 1.0 - ratio(failed as f64, attempted as f64),
        other => panic!("end-to-end metric `{other}` has no definition in harness.rs"),
    };
    Ok(RunResult {
        workload: W::NAME,
        correct: attempted > 0 && failed == 0 && errors == 0,
        attempted,
        failed,
        metrics: END_TO_END.iter().map(|d| (d, value_of(d.name))).collect(),
    })
}

/// The traced pass: one instance in this process for `TRACED_OPS_SHARE` of
/// `seconds` with `sparker_obs` tracing flipped on and off, then `probes`
/// for the rest (it fills the workload-independent part of the ledger), and
/// the benchmark's own spans written to `out_dir`.
pub fn traced_pass<W: Workload>(
    seed: u64,
    seconds: f64,
    out_dir: &Path,
    probes: impl FnOnce(&mut Ledger, &mut Recorder, Duration),
) -> RunResult {
    let epoch = Instant::now();
    let load_before = loadavg_1m();
    let window = seconds * TRACED_OPS_SHARE;
    let toggle = TraceToggle {
        on: AtomicBool::new(false),
        spans: AtomicU64::new(0),
    };
    let mut ledger = Ledger::default();
    let inst = measure_instance::<W>(
        seed,
        Duration::from_secs_f64(window),
        epoch,
        Some((&toggle, &mut ledger)),
    );
    for why in &inst.errors {
        eprintln!("{}: {why}", W::NAME);
    }
    let records: Vec<&OpRecord> = inst.sequences.iter().flatten().collect();
    let attempted = records.len() as u64;
    let failed = records.iter().filter(|r| !r.ok).count() as u64;

    let mut recorder = Recorder::new(epoch);
    ops_ledger::<W>(&mut ledger, &mut recorder, &records, &toggle);
    ledger.set("bench.loadavg_1m", load_before);
    ledger.set("bench.generator_threads", W::CLIENTS as f64);
    ledger.set("bench.nproc", nproc() as f64);
    probes(
        &mut ledger,
        &mut recorder,
        Duration::from_secs_f64(seconds - window),
    );

    let path = out_dir.join(format!("trace-{}.json", W::NAME));
    if let Err(e) = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, recorder.chrome_trace().render()))
    {
        eprintln!("{}: could not write {}: {e}", W::NAME, path.display());
    }
    RunResult {
        workload: W::NAME,
        correct: attempted > 0 && failed == 0 && inst.errors.is_empty(),
        attempted,
        failed,
        metrics: PER_LAYER.iter().map(|d| (d, ledger.get(d.name))).collect(),
    }
}

/// The part of the per-layer ledger that comes from the traced pass's own
/// ops: one root span per op with its phases as children, and the counts
/// and medians over them.
fn ops_ledger<W: Workload>(
    ledger: &mut Ledger,
    recorder: &mut Recorder,
    records: &[&OpRecord],
    toggle: &TraceToggle,
) {
    let n = records.len().max(1) as f64;
    let mut unaccounted = Vec::new();
    for r in records {
        let lane = r.client as u64;
        let op_id = recorder.spans().len() as u64 + 1;
        let end = r.start_ns + r.dur_ns;
        let root = recorder.record(0, op_id, lane, format!("op.{}", W::NAME), r.start_ns, end);
        // Compute then reduce, back to back from the op's start; the driver
        // merge is the tail of the reduce phase.
        let compute_end = r.start_ns + r.phases.compute.as_nanos() as u64;
        let reduce_end = compute_end + r.phases.reduce.as_nanos() as u64;
        if compute_end > r.start_ns {
            recorder.record(root, op_id, lane, "engine.compute", r.start_ns, compute_end);
        }
        if reduce_end > compute_end {
            let reduce =
                recorder.record(root, op_id, lane, "engine.reduce", compute_end, reduce_end);
            let merge_ns = (r.phases.driver_merge.as_nanos() as u64).min(reduce_end - compute_end);
            if merge_ns > 0 {
                recorder.record(
                    reduce,
                    op_id,
                    lane,
                    "engine.driver_merge",
                    reduce_end - merge_ns,
                    reduce_end,
                );
            }
        }
        if reduce_end > r.start_ns {
            unaccounted.push(100.0 * recorder.self_ns(root) as f64 / r.dur_ns.max(1) as f64);
        }
    }
    let phase_p50 = |f: fn(&Phases) -> Duration| {
        median_of(
            records
                .iter()
                .filter(|r| !(r.phases.compute + r.phases.reduce).is_zero())
                .map(|r| f(&r.phases).as_secs_f64() * 1e3),
        )
    };
    ledger.set("engine.compute_ms_p50", phase_p50(|p| p.compute));
    ledger.set("engine.reduce_ms_p50", phase_p50(|p| p.reduce));
    ledger.set("engine.driver_merge_ms_p50", phase_p50(|p| p.driver_merge));
    ledger.set("engine.unaccounted_pct", median_of(unaccounted.into_iter()));
    let mean = |f: fn(&Phases) -> f64| records.iter().map(|r| f(&r.phases)).sum::<f64>() / n;
    let flag = |b: bool| f64::from(u8::from(b));
    ledger.set("engine.stages_per_op", mean(|p| f64::from(p.stages)));
    ledger.set(
        "engine.task_attempts_per_op",
        mean(|p| f64::from(p.task_attempts)),
    );
    ledger.set(
        "engine.downgraded_share",
        records
            .iter()
            .map(|r| flag(r.phases.downgraded))
            .sum::<f64>()
            / n,
    );
    ledger.set(
        "engine.multiproc.attempts_per_op",
        mean(|p| p.multiproc.map_or(0.0, |(a, _)| f64::from(a))),
    );
    ledger.set(
        "engine.multiproc.fallback_share",
        records
            .iter()
            .map(|r| flag(r.phases.multiproc.is_some_and(|(_, f)| f)))
            .sum::<f64>()
            / n,
    );
    ledger.set(
        "sched.rejected_share",
        records.iter().map(|r| flag(r.rejected)).sum::<f64>() / n,
    );
    let p50_where = |traced: bool| {
        median_of(
            records
                .iter()
                .filter(|r| r.traced == traced)
                .map(|r| ms(r.dur_ns)),
        )
    };
    let (p50_on, p50_off) = (p50_where(true), p50_where(false));
    ledger.set(
        "obs.enabled_overhead_pct",
        100.0 * ratio(p50_on - p50_off, p50_off),
    );
    let traced_ops = records.iter().filter(|r| r.traced).count() as f64;
    ledger.set(
        "obs.spans_per_op",
        ratio(toggle.spans.load(Ordering::SeqCst) as f64, traced_ops),
    );
    let mut op_ms: Vec<f64> = records.iter().map(|r| ms(r.dur_ns)).collect();
    op_ms.sort_by(f64::total_cmp);
    if !op_ms.is_empty() {
        let (pct, value) = tail(&op_ms);
        ledger.set("bench.op_ms_tail", value);
        ledger.set("bench.tail_pct", pct);
    }
    ledger.set("bench.samples", records.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_per_s_is_threads_times_the_median_block_rate() {
        // 125 ms ops (exact in binary): 8 ops/s. Three blocks of ten, one of
        // them holding a long stall, and a last block of five.
        const OP: u64 = 125_000_000;
        let mut seq = vec![OP; 35];
        seq[15] = 72 * OP;
        assert_eq!(ops_per_s(&[seq.clone()], 1), 8.0);
        // Two clients double it; blocks never span two sequences.
        assert_eq!(ops_per_s(&[seq, vec![OP; 20]], 2), 16.0);
        assert_eq!(ops_per_s(&[vec![OP; 9]], 1), 8.0);
        assert_eq!(ops_per_s(&[], 1), 0.0);
    }

    #[test]
    fn ledger_reads_zero_until_set() {
        let mut ledger = Ledger::default();
        assert_eq!(ledger.get("net.pool.hit_ratio"), 0.0);
        ledger.set("net.pool.hit_ratio", 0.5);
        assert_eq!(ledger.get("net.pool.hit_ratio"), 0.5);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn ledger_refuses_undeclared_names() {
        Ledger::default().set("net.no_such_metric", 1.0);
    }
}
