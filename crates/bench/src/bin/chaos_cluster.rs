//! Seeded OS-level chaos harness for the self-healing multi-process cluster
//! (DESIGN.md §5h).
//!
//! Where `launch_cluster` proves the happy paths plus protocol-level fault
//! *injection*, this binary attacks the cluster from the operating system:
//! it spawns ≥4 real executor processes, then — on a deterministic schedule
//! derived from `--seed` — SIGKILLs them mid-job, freezes them with
//! SIGSTOP/SIGCONT to manufacture stragglers, and severs live data-plane
//! connections. After every fault it checks the two invariants the design
//! promises:
//!
//! * **bit-exact or typed error** — every job either matches the
//!   driver-side [`oracle`] bit-for-bit or fails with a typed
//!   `EngineError` naming the rank and view generation. Silent corruption
//!   and untyped panics are both failures.
//! * **never hang** — a watchdog thread enforces a hard wall-clock
//!   deadline; if the cluster wedges, the harness kills every child and
//!   exits 86 (so CI sees a distinct "hung" verdict, not a timeout).
//!
//! Recovery is expected to be *layered* exactly as specified: severed
//! connections heal by reconnection (no view change), SIGSTOP'd stragglers
//! are suspected by heartbeat and re-admitted by reconnection when they
//! wake, and SIGKILL'd executors trigger survivor ring re-formation under a
//! new membership view — with a respawned process re-admitted at the next
//! job boundary via [`MultiProcDriver::try_readmit`].
//!
//! Modes:
//! * `--smoke` — the deterministic seven-act script (baseline, drop, freeze,
//!   kill, re-admit, scheduled view change, node leader killed mid
//!   hierarchical reduce-scatter) used as the CI tier-2 gate.
//! * `--plan kill|stop|drop` — one fault class only; `--plan kill` is
//!   check_hermetic step 8.
//! * default — `--jobs N` jobs with a seeded random fault before each.
//!
//! Child mode is `--executor --driver ADDR` plus the `--hb-ms`,
//! `--suspicion-ms`, `--dials`, `--backoff-ms`, `--cap-ms`, `--window-ms`
//! knobs that override [`TcpConfig`] defaults (the parent always passes the
//! chaos profile: 100 ms heartbeats, 500 ms suspicion, 5 dial rounds).

use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sparker_bench::print_header;
use sparker_engine::multiproc::{
    oracle, run_executor_with, JobOutcome, JobSpec, MultiProcDriver, KILLED_EXIT_CODE,
};
use sparker_net::tcp::rendezvous::Coordinator;
use sparker_net::tcp::TcpConfig;
use sparker_obs::metrics::{self, MetricValue};
use sparker_sched::{Fifo, JobRequest, MultiProcBackend, SchedConfig, SchedError, Scheduler};
use sparker_tuner::Algo;

const CHANNELS: usize = 2;
/// Watchdog exit code: the run *hung* (distinct from assertion failures).
const HUNG_EXIT_CODE: i32 = 86;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn arg_after(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

fn arg_u64(args: &[String], flag: &str, default: u64) -> u64 {
    arg_after(args, flag).map(|s| s.parse().unwrap_or_else(|_| panic!("{flag} wants a number"))).unwrap_or(default)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fast-detection transport profile both sides of the chaos cluster run
/// with: suspicion fires in 500 ms instead of 3 s, and the reconnect budget
/// (5 rounds, 40 ms base backoff, 500 ms cap) exhausts in roughly 1.2 s —
/// comfortably inside the 4 s collective receive deadline, so a dead peer
/// becomes a typed error well before anything could be called a hang.
fn chaos_config(args: &[String]) -> TcpConfig {
    let mut cfg = TcpConfig::default();
    cfg.health.interval = Duration::from_millis(arg_u64(args, "--hb-ms", 100));
    cfg.health.suspicion = Duration::from_millis(arg_u64(args, "--suspicion-ms", 500));
    cfg.reconnect.max_rounds = arg_u64(args, "--dials", 5) as u32;
    cfg.reconnect.backoff_base = Duration::from_millis(arg_u64(args, "--backoff-ms", 40));
    cfg.reconnect.backoff_cap = Duration::from_millis(arg_u64(args, "--cap-ms", 500));
    cfg.reconnect.accept_window = Duration::from_millis(arg_u64(args, "--window-ms", 1500));
    cfg
}

fn cfg_flags(cfg: &TcpConfig) -> Vec<String> {
    vec![
        "--hb-ms".into(),
        cfg.health.interval.as_millis().to_string(),
        "--suspicion-ms".into(),
        cfg.health.suspicion.as_millis().to_string(),
        "--dials".into(),
        cfg.reconnect.max_rounds.to_string(),
        "--backoff-ms".into(),
        cfg.reconnect.backoff_base.as_millis().to_string(),
        "--cap-ms".into(),
        cfg.reconnect.backoff_cap.as_millis().to_string(),
        "--window-ms".into(),
        cfg.reconnect.accept_window.as_millis().to_string(),
    ]
}

/// Sends `sig` (a `kill -SIG` name) to a process — std-only, via `sh`.
fn signal(pid: u32, sig: &str) {
    let _ = Command::new("sh").arg("-c").arg(format!("kill -{sig} {pid}")).status();
}

/// One executor child process and what the harness did to it.
struct Exec {
    child: Child,
    /// Set when the harness SIGKILLed it (expected reap code: signal death).
    killed: bool,
}

struct Cluster {
    execs: Vec<Exec>,
    exe: std::path::PathBuf,
    addr: String,
    cfg: TcpConfig,
}

impl Cluster {
    fn spawn_exec(&mut self) {
        let mut cmd = Command::new(&self.exe);
        cmd.args(["--executor", "--driver", &self.addr]).args(cfg_flags(&self.cfg)).stdin(Stdio::null());
        let child = cmd.spawn().expect("spawn executor");
        self.execs.push(Exec { child, killed: false });
    }

    /// Indexes of children still running.
    fn running(&mut self) -> Vec<usize> {
        (0..self.execs.len())
            .filter(|&i| matches!(self.execs[i].child.try_wait(), Ok(None)))
            .collect()
    }

    fn pids(&self) -> Vec<u32> {
        self.execs.iter().map(|e| e.child.id()).collect()
    }

    /// SIGKILLs the running child at `pick` (an index into `running()`),
    /// returning its pid. The rank it held is discovered by the driver.
    fn kill_one(&mut self, pick: usize) -> Option<u32> {
        let running = self.running();
        let &i = running.get(pick % running.len().max(1))?;
        self.execs[i].killed = true;
        let pid = self.execs[i].child.id();
        let _ = self.execs[i].child.kill();
        Some(pid)
    }

    /// SIGSTOPs one running child and schedules its SIGCONT after `freeze`
    /// on a timer thread, returning the pid.
    fn freeze_one(&mut self, pick: usize, freeze: Duration) -> Option<u32> {
        let running = self.running();
        let &i = running.get(pick % running.len().max(1))?;
        let pid = self.execs[i].child.id();
        signal(pid, "STOP");
        std::thread::spawn(move || {
            std::thread::sleep(freeze);
            signal(pid, "CONT");
        });
        Some(pid)
    }

    /// Waits for every child to exit (bounded), returning exit codes
    /// (-1 = signal death or forced kill).
    fn reap_all(&mut self, deadline: Duration) -> Vec<i32> {
        let t0 = Instant::now();
        self.execs
            .iter_mut()
            .map(|e| loop {
                match e.child.try_wait() {
                    Ok(Some(status)) => break status.code().unwrap_or(-1),
                    Ok(None) if t0.elapsed() < deadline => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    _ => {
                        let _ = e.child.kill();
                        let _ = e.child.wait();
                        break -1;
                    }
                }
            })
            .collect()
    }
}

/// Reads a named counter out of the driver process's own metric registry.
fn driver_counter(name: &str) -> u64 {
    metrics::snapshot()
        .into_iter()
        .find(|m| m.name == name)
        .map(|m| match m.value {
            MetricValue::Counter(v) => v,
            MetricValue::Gauge(v) => v.max(0) as u64,
            MetricValue::Histogram(count, _, _) => count,
        })
        .unwrap_or(0)
}

/// Sums a named counter across every live executor's metrics reply.
fn cluster_counter(driver: &mut MultiProcDriver, name: &str) -> u64 {
    driver
        .collect_metrics()
        .iter()
        .flat_map(|(_, pairs)| pairs.iter())
        .filter(|(n, _)| n == name)
        .map(|&(_, v)| v)
        .sum()
}

fn check_job(name: &str, outcome: &JobOutcome, expect: &[f64]) {
    assert_eq!(
        bits(&outcome.value),
        bits(expect),
        "{name}: result diverged from the driver-side oracle"
    );
    println!(
        "  {name}: ok in {} attempt(s), {} (view {}, ring {})",
        outcome.attempts,
        if outcome.used_fallback { "tree fallback" } else { "ring" },
        outcome.view_generation,
        outcome.ring_size,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();

    // Child mode: serve jobs under the chaos transport profile.
    if args.iter().any(|a| a == "--executor") {
        let addr = arg_after(&args, "--driver").expect("--executor requires --driver ADDR");
        let cfg = chaos_config(&args);
        run_executor_with(&addr, Duration::from_secs(30), cfg).expect("executor failed");
        return;
    }

    let smoke = args.iter().any(|a| a == "--smoke");
    let plan = arg_after(&args, "--plan");
    let seed = arg_u64(&args, "--seed", 1);
    let execs = arg_u64(&args, "--execs", 4) as usize;
    let jobs = arg_u64(&args, "--jobs", 6) as usize;
    let deadline_secs = arg_u64(&args, "--deadline-secs", if smoke || plan.is_some() { 120 } else { 240 });
    assert!(execs >= 4, "chaos needs >= 4 executors (a ring must survive a kill)");

    print_header(
        "chaos_cluster",
        "OS-level chaos against the self-healing multi-process cluster",
        "SIGKILL, SIGSTOP/SIGCONT stragglers, and severed connections against\n\
         real executor processes. Every job must be bit-exact against the\n\
         oracle or fail with a typed error; a watchdog turns any hang into\n\
         exit 86. --smoke is the CI tier-2 gate; --plan kill is\n\
         check_hermetic step 8.",
    );

    let cfg = chaos_config(&args);
    let (dim, parts) = if smoke || plan.is_some() { (2_048, 8) } else { (16_384, 16) };

    let mut coordinator = Coordinator::bind("127.0.0.1:0").expect("bind coordinator");
    let addr = coordinator.local_addr().expect("coordinator addr").to_string();
    let exe = std::env::current_exe().expect("current exe");
    let mut cluster = Cluster { execs: Vec::new(), exe, addr: addr.clone(), cfg };
    for _ in 0..execs {
        cluster.spawn_exec();
    }
    println!("driver at {addr}, {execs} executor processes under chaos profile");

    // Watchdog: the never-hang invariant, enforced from outside the cluster.
    let watch_pids: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(cluster.pids()));
    let finished = Arc::new(AtomicBool::new(false));
    {
        let watch_pids = Arc::clone(&watch_pids);
        let finished = Arc::clone(&finished);
        std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(deadline_secs);
            while Instant::now() < deadline {
                if finished.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            eprintln!("chaos_cluster: HUNG — {deadline_secs}s wall-clock deadline exceeded");
            for pid in watch_pids.lock().unwrap().iter() {
                signal(*pid, "KILL");
            }
            std::process::exit(HUNG_EXIT_CODE);
        });
    }

    let controls = coordinator
        .wait_for(execs, CHANNELS, Duration::from_secs(30))
        .expect("rendezvous timed out");
    let mut driver = MultiProcDriver::new(controls);
    // Must dominate the worst-case ring stall: chunked pipelining can stack
    // several per-recv deadlines (4 s each) before a survivor gives up and
    // reports a typed error. Evicting a live-but-stalled executor here would
    // cascade (the driver would treat a straggler as dead).
    driver.reply_timeout = Duration::from_secs(30);

    let base = |id: u64| {
        let mut s = JobSpec::dense(id, 0xC405 ^ id, dim, parts);
        s.recv_deadline_ms = 4_000;
        s
    };

    match plan.as_deref() {
        _ if smoke => {
            driver = run_smoke(driver, &mut cluster, &mut coordinator, execs, &watch_pids, &base)
        }
        Some("kill") => run_plan_kill(&mut driver, &mut cluster, execs, &base),
        Some("stop") => run_plan_stop(&mut driver, &mut cluster, &base),
        Some("drop") => run_plan_drop(&mut driver, &base),
        Some(other) => panic!("unknown --plan {other:?} (want kill|stop|drop)"),
        None => run_random(&mut driver, &mut cluster, &mut coordinator, seed, jobs, &watch_pids, &base),
    }

    driver.shutdown();
    let codes = cluster.reap_all(Duration::from_secs(20));
    let hard_deaths =
        codes.iter().filter(|&&c| c == -1 || c == KILLED_EXIT_CODE).count();
    let expected_deaths = cluster.execs.iter().filter(|e| e.killed).count();
    let clean = codes.iter().filter(|&&c| c == 0).count();
    assert_eq!(
        (hard_deaths, clean),
        (expected_deaths, codes.len() - expected_deaths),
        "exit codes {codes:?}: every SIGKILLed child must die by signal, everyone else cleanly"
    );

    finished.store(true, Ordering::Relaxed);
    println!(
        "\nchaos run complete: {} child processes, {expected_deaths} killed, all surviving jobs bit-exact",
        codes.len()
    );
}

/// The deterministic seven-act CI script. Takes the driver by value because
/// act 6 loans it to a [`Scheduler`] (behind the backend's shared mutex) and
/// recovers it afterwards.
fn run_smoke(
    mut driver: MultiProcDriver,
    cluster: &mut Cluster,
    coordinator: &mut Coordinator,
    execs: usize,
    watch_pids: &Arc<Mutex<Vec<u32>>>,
    base: &dyn Fn(u64) -> JobSpec,
) -> MultiProcDriver {
    println!("\n--- smoke: baseline / drop / freeze / kill / re-admit / scheduled view change / hier leader kill ---");

    // Act 1: baseline — full ring, one attempt, founding view.
    let spec = base(1);
    let o = driver.run_job(&spec).expect("baseline job");
    assert_eq!((o.attempts, o.used_fallback, o.ring_size), (1, false, execs));
    assert_eq!(o.view_generation, 0);
    check_job("baseline", &o, &oracle(&spec));

    // Act 2: severed connection — rank 1 drops its link to rank 2 just
    // before the ring. Reconnection must heal it with no view change.
    let mut spec = base(2);
    spec.drop_rank = 1;
    spec.drop_peer = 2;
    let o = driver.run_job(&spec).expect("drop job");
    assert!(!o.used_fallback, "a severed connection must heal, not fallback");
    assert_eq!(o.view_generation, 0, "healing must not change membership");
    assert_eq!(o.ring_size, execs);
    check_job("drop", &o, &oracle(&spec));
    let healed = cluster_counter(&mut driver, "net.reconnect.healed");
    assert!(healed >= 1, "at least one reconnection heal expected, metrics say {healed}");

    // Act 3: straggler — freeze one executor for 1.2 s (past suspicion,
    // inside the reconnect budget). The job may burn an attempt on the
    // receive deadline but must complete on the same membership.
    cluster.freeze_one(0, Duration::from_millis(1_200)).expect("freeze a child");
    let spec = base(3);
    let o = driver.run_job(&spec).expect("freeze job");
    assert!(!o.used_fallback, "a straggler must heal, not fallback");
    assert_eq!(o.view_generation, 0, "a straggler must not change membership");
    assert_eq!(o.ring_size, execs);
    check_job("freeze", &o, &oracle(&spec));

    // Act 4: SIGKILL — a process vanishes. The driver must publish a new
    // view and the retry must run the ring over the survivors.
    cluster.kill_one(0).expect("kill a child");
    let spec = base(4);
    let o = driver.run_job(&spec).expect("kill job");
    assert!(!o.used_fallback, "survivor ring re-formation must beat the fallback");
    assert_eq!(o.ring_size, execs - 1, "retry ring must span exactly the survivors");
    assert!(o.view_generation >= 1, "losing a process must publish a new view");
    check_job("kill", &o, &oracle(&spec));

    // Act 5: re-admission — a respawned process knocks at the rendezvous
    // and takes over the vacated rank; the next job runs the full ring.
    cluster.spawn_exec();
    *watch_pids.lock().unwrap() = cluster.pids();
    let readmitted = driver
        .try_readmit(coordinator, Duration::from_secs(15))
        .expect("readmit poll")
        .expect("respawned executor should be re-admitted");
    println!("  re-admitted replacement executor at rank {readmitted}");
    let spec = base(5);
    let o = driver.run_job(&spec).expect("post-readmit job");
    assert!(!o.used_fallback);
    assert_eq!(o.ring_size, execs, "re-admission must restore the full ring");
    assert!(o.view_generation >= 2, "re-admission must publish another view");
    check_job("re-admit", &o, &oracle(&spec));

    let view_changes = driver_counter("multiproc.view_changes");
    let readmissions = driver_counter("multiproc.readmissions");
    assert!(view_changes >= 2, "kill + re-admit must publish >= 2 views, saw {view_changes}");
    assert!(readmissions >= 1, "re-admission counter must advance, saw {readmissions}");

    // Act 6: view change under a loaded scheduler queue — an executor dies
    // mid-ring while two more jobs sit in the admission queue. Only the
    // in-flight job may fail, and it must fail *typed*; the queued jobs run
    // on the survivor ring, bit-exact. Retries and the tree fallback are
    // disabled so the failure is the scheduler-visible event, not something
    // the driver quietly absorbs.
    println!("  act 6: view change with two jobs queued behind the dying one");
    driver.max_attempts = 1;
    driver.allow_fallback = false;
    let shared = Arc::new(sparker_net::sync::Mutex::new(driver));
    let sched = Scheduler::new(
        MultiProcBackend::new(Arc::clone(&shared)),
        Box::new(Fifo),
        SchedConfig { capacity: 8, ..SchedConfig::default() },
    );
    let mut doomed = base(6);
    doomed.die_rank = 1;
    let spec7 = base(7);
    let spec8 = base(8);
    let h6 = sched.submit(JobRequest::new(0, doomed)).expect("doomed job admitted");
    let h7 = sched.submit(JobRequest::new(1, spec7.clone())).expect("queued job admitted");
    let h8 = sched.submit(JobRequest::new(2, spec8.clone())).expect("queued job admitted");
    match h6.wait() {
        Err(SchedError::TaskFailed { job, reason }) => {
            println!("  in-flight job {job} failed typed across the view change: {reason}");
        }
        Ok(_) => panic!("the job whose executor died mid-ring must fail (fallback disabled)"),
        Err(other) => panic!("expected TaskFailed for the in-flight job, got {other}"),
    }
    let o7 = h7.wait().expect("first queued job must survive the view change");
    let o8 = h8.wait().expect("second queued job must survive the view change");
    for (o, spec, name) in [(&o7, &spec7, "queued-1"), (&o8, &spec8, "queued-2")] {
        assert!(!o.used_fallback, "{name}: survivor ring must beat the fallback");
        assert_eq!(o.ring_size, execs - 1, "{name}: retry ring must span the survivors");
        assert!(o.view_generation >= 3, "{name}: the mid-ring death must publish a new view");
        check_job(name, o, &oracle(spec));
    }
    drop(sched);
    let mut driver = Arc::try_unwrap(shared)
        .ok()
        .expect("scheduler must release the driver on shutdown")
        .into_inner();
    driver.max_attempts = 4;
    driver.allow_fallback = true;

    // The die_rank fault really killed a process (exit code 13): find the
    // newly dead child and mark it so final exit-code accounting balances.
    let deadline = Instant::now() + Duration::from_secs(10);
    'find: loop {
        for e in cluster.execs.iter_mut() {
            if !e.killed && matches!(e.child.try_wait(), Ok(Some(_))) {
                e.killed = true;
                break 'find;
            }
        }
        assert!(Instant::now() < deadline, "the die_rank victim never exited");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Act 7: hierarchical collective under chaos — a replacement is
    // re-admitted to restore the full ring, the job runs the two-level path
    // over two *emulated* nodes, and the leader of the second node group is
    // SIGKILLed mid reduce-scatter. The retry must re-form the hierarchy over
    // the survivors (groups and leaders are re-derived from ring positions,
    // so the re-election is automatic): same bits, new view, no hang.
    println!("  act 7: SIGKILL a node leader mid-hierarchical-reduce-scatter");
    cluster.spawn_exec();
    *watch_pids.lock().unwrap() = cluster.pids();
    let readmitted = driver
        .try_readmit(coordinator, Duration::from_secs(15))
        .expect("readmit poll")
        .expect("replacement executor should be re-admitted for act 7");
    println!("  re-admitted replacement executor at rank {readmitted}");
    let hier = |id: u64| {
        let mut s = base(id);
        s.algo = Algo::Hierarchical;
        s.nodes = 2;
        s
    };
    let spec = hier(9);
    let o = driver.run_job(&spec).expect("hierarchical baseline job");
    assert_eq!(
        (o.attempts, o.used_fallback, o.ring_size),
        (1, false, execs),
        "hierarchical baseline must run clean on the restored ring"
    );
    check_job("hier-baseline", &o, &oracle(&spec));

    let pre_kill_views = driver_counter("multiproc.view_changes");
    let mut doomed = hier(10);
    // Emulated node groups split the view-ordered ring by position, so the
    // member at position N/2 leads the second group.
    doomed.die_rank = (driver.alive().len() / 2) as u32;
    let o = driver.run_job(&doomed).expect("hierarchical job must survive its leader dying");
    assert!(!o.used_fallback, "hierarchy re-formation must beat the tree fallback");
    assert_eq!(o.ring_size, execs - 1, "retry ring must span exactly the survivors");
    assert!(
        driver_counter("multiproc.view_changes") > pre_kill_views,
        "losing a node leader must publish a new view"
    );
    check_job("hier-leader-kill", &o, &oracle(&doomed));

    // Account for the leader's death so exit codes balance at teardown.
    let deadline = Instant::now() + Duration::from_secs(10);
    'find2: loop {
        for e in cluster.execs.iter_mut() {
            if !e.killed && matches!(e.child.try_wait(), Ok(Some(_))) {
                e.killed = true;
                break 'find2;
            }
        }
        assert!(Instant::now() < deadline, "the act-7 leader victim never exited");
        std::thread::sleep(Duration::from_millis(20));
    }
    driver
}

/// `--plan kill`: one SIGKILL, prove survivor ring re-formation
/// (check_hermetic step 8).
fn run_plan_kill(
    driver: &mut MultiProcDriver,
    cluster: &mut Cluster,
    execs: usize,
    base: &dyn Fn(u64) -> JobSpec,
) {
    println!("\n--- plan: kill one executor, re-form the ring over survivors ---");
    let spec = base(1);
    let o = driver.run_job(&spec).expect("baseline job");
    assert_eq!((o.attempts, o.ring_size), (1, execs));
    check_job("baseline", &o, &oracle(&spec));

    cluster.kill_one(0).expect("kill a child");
    let spec = base(2);
    let o = driver.run_job(&spec).expect("kill job");
    assert!(!o.used_fallback, "survivor ring re-formation must beat the fallback");
    assert_eq!(o.ring_size, execs - 1);
    assert!(o.view_generation >= 1);
    check_job("kill", &o, &oracle(&spec));
}

/// `--plan stop`: one SIGSTOP/SIGCONT straggler.
fn run_plan_stop(driver: &mut MultiProcDriver, cluster: &mut Cluster, base: &dyn Fn(u64) -> JobSpec) {
    println!("\n--- plan: freeze one executor past suspicion, heal on wake ---");
    let spec = base(1);
    let o = driver.run_job(&spec).expect("baseline job");
    check_job("baseline", &o, &oracle(&spec));
    cluster.freeze_one(0, Duration::from_millis(1_200)).expect("freeze a child");
    let spec = base(2);
    let o = driver.run_job(&spec).expect("freeze job");
    assert!(!o.used_fallback);
    assert_eq!(o.view_generation, 0);
    check_job("freeze", &o, &oracle(&spec));
}

/// `--plan drop`: one severed data-plane connection.
fn run_plan_drop(driver: &mut MultiProcDriver, base: &dyn Fn(u64) -> JobSpec) {
    println!("\n--- plan: sever one data-plane connection, heal by reconnect ---");
    let spec = base(1);
    let o = driver.run_job(&spec).expect("baseline job");
    check_job("baseline", &o, &oracle(&spec));
    let mut spec = base(2);
    spec.drop_rank = 1;
    spec.drop_peer = 0;
    let o = driver.run_job(&spec).expect("drop job");
    assert!(!o.used_fallback);
    assert_eq!(o.view_generation, 0);
    check_job("drop", &o, &oracle(&spec));
    let healed = cluster_counter(driver, "net.reconnect.healed");
    assert!(healed >= 1, "expected a reconnection heal, metrics say {healed}");
}

/// Default mode: `jobs` jobs, a seeded random fault before each. Kills are
/// followed by a respawn + re-admission attempt at the next job boundary.
fn run_random(
    driver: &mut MultiProcDriver,
    cluster: &mut Cluster,
    coordinator: &mut Coordinator,
    seed: u64,
    jobs: usize,
    watch_pids: &Arc<Mutex<Vec<u32>>>,
    base: &dyn Fn(u64) -> JobSpec,
) {
    println!("\n--- random chaos: seed {seed}, {jobs} jobs ---");
    // Chaos starts from a *healthy* cluster: the fault-free warmup only
    // completes once every executor has finished forming the mesh, so a
    // SIGKILL can never land while siblings are still dialing the victim
    // during their join.
    let warm = base(99);
    let o = driver.run_job(&warm).expect("fault-free warmup job");
    check_job("warmup", &o, &oracle(&warm));
    let mut rng = splitmix64(seed);
    let mut pending_respawn = false;
    for job in 0..jobs as u64 {
        rng = splitmix64(rng);
        if pending_respawn {
            cluster.spawn_exec();
            *watch_pids.lock().unwrap() = cluster.pids();
            match driver.try_readmit(coordinator, Duration::from_secs(15)) {
                Ok(Some(rank)) => {
                    println!("  re-admitted replacement at rank {rank}");
                    for (dialer, err) in &driver.last_admit_errors {
                        println!("  admit dial from rank {dialer} failed: {err}");
                    }
                }
                Ok(None) => println!("  replacement did not arrive in time"),
                Err(e) => println!("  re-admission failed (typed): {e}"),
            }
            pending_respawn = false;
        }
        let fault = rng % 4;
        let pick = (rng >> 8) as usize;
        let mut spec = base(100 + job);
        match fault {
            1 => {
                let n = driver.alive().len() as u64;
                if n >= 2 {
                    let from = (rng >> 16) % n;
                    let to = ((rng >> 24) % (n - 1) + from + 1) % n;
                    spec.drop_rank = driver.alive()[from as usize] as u32;
                    spec.drop_peer = driver.alive()[to as usize] as u32;
                    println!("job {job}: sever {} -> {}", spec.drop_rank, spec.drop_peer);
                }
            }
            2 => {
                if let Some(pid) = cluster.freeze_one(pick, Duration::from_millis(1_200)) {
                    println!("job {job}: SIGSTOP pid {pid} for 1.2s");
                }
            }
            3 => {
                // Keep at least 3 running so the survivor ring stays a ring.
                if cluster.running().len() > 3 {
                    if let Some(pid) = cluster.kill_one(pick) {
                        println!("job {job}: SIGKILL pid {pid}");
                        pending_respawn = true;
                    }
                }
            }
            _ => println!("job {job}: no fault"),
        }
        match driver.run_job(&spec) {
            Ok(o) => {
                check_job(&format!("job {job}"), &o, &oracle(&spec));
                if o.used_fallback || o.attempts > 2 {
                    println!("    last ring error: {}", driver.last_ring_error);
                }
            }
            Err(e) => println!("  job {job}: typed failure (accepted): {e}"),
        }
    }
    let view_changes = driver_counter("multiproc.view_changes");
    println!("random chaos done: {view_changes} membership views published");
}
