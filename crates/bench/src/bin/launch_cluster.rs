//! Multi-process split-aggregation demonstrator: real OS processes, real
//! sockets, the full collective stack.
//!
//! Run with no flags and this binary becomes the *driver*: it binds a
//! rendezvous coordinator on loopback, re-executes itself `--execs` times as
//! executor child processes, waits for them to join (rank assignment + peer
//! address exchange, DESIGN.md §5g), and then drives seventeen jobs through
//! [`sparker_engine::multiproc`] over the resulting TCP mesh:
//!
//! 1. **dense** — chunk-pipelined ring reduce-scatter of [`sparker_net::codec::F64Array`]
//!    segments; must match the driver-side oracle bit-for-bit in one attempt.
//!    Ten more dense jobs follow between two [`MultiProcDriver::collect_metrics`]
//!    calls, and each executor's minor page faults and CPU ticks per job
//!    (`proc.minflt`, `proc.cpu_ticks`) are printed.
//! 2. **sparse** — the same job with density-adaptive
//!    [`sparker::sparse::DenseOrSparse`] segments at 1% density; bit-exact
//!    *and* far fewer gathered bytes than the dense job.
//! 3. **flaky** — rank 1 sprays frames then reports failure on attempt 0.
//!    The gang retry must succeed on attempt 1, with the receivers' epoch
//!    fence discarding the stale attempt-0 frames still sitting in real
//!    socket buffers.
//! 4. **halving / hierarchical / tree** — every other algorithm family
//!    crosses the processes too: recursive halving, the two-level path over
//!    two emulated nodes, and the tree as a primary path (one round, not a
//!    fallback). Each bit-exact in one attempt.
//! 5. **kill** — the highest rank calls `exit(13)` mid-ring. Survivors see
//!    `Disconnected`/timeouts (never a hang), the driver publishes a new
//!    membership view, and the gang retry re-forms the *ring over the
//!    survivors* (DESIGN.md §5h) — partitions recomputed from lineage, the
//!    tree fallback held in reserve. Still bit-exact.
//!
//! Exits non-zero if any job result diverges from the oracle, a child exits
//! with an unexpected status, or anything hangs past the deadlines.
//! `--smoke` shrinks dimensions so the whole run fits in a CI step
//! (check_hermetic step 7); `--executor --driver ADDR` is the child mode.
//! The [`TcpConfig`] tunables are flags (`--hb-ms`, `--suspicion-ms`,
//! `--dials`, `--backoff-ms`, `--cap-ms`, `--window-ms`), forwarded to
//! every executor child; absent flags keep the documented defaults.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sparker::collectives::Algo;
use sparker_bench::{print_header, Table};
use sparker_engine::multiproc::{
    oracle, run_executor_with, JobOutcome, JobSpec, MultiProcDriver, KILLED_EXIT_CODE,
};
use sparker_net::tcp::rendezvous::Coordinator;
use sparker_net::tcp::TcpConfig;

const CHANNELS: usize = 2;

/// Dense jobs run after job 1 to measure executor work per job.
const WORK_JOBS: u64 = 10;

/// The transport tunables exposed as flags (values in milliseconds),
/// forwarded verbatim from the driver invocation to every executor child.
/// Absent flags keep the documented [`TcpConfig`] defaults.
const TUNABLE_FLAGS: [&str; 6] =
    ["--hb-ms", "--suspicion-ms", "--dials", "--backoff-ms", "--cap-ms", "--window-ms"];

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn arg_after(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

fn arg_ms(args: &[String], flag: &str, default: Duration) -> Duration {
    arg_after(args, flag)
        .map(|s| Duration::from_millis(s.parse().unwrap_or_else(|_| panic!("{flag} wants ms"))))
        .unwrap_or(default)
}

fn tcp_config(args: &[String]) -> TcpConfig {
    let mut cfg = TcpConfig::default();
    cfg.health.interval = arg_ms(args, "--hb-ms", cfg.health.interval);
    cfg.health.suspicion = arg_ms(args, "--suspicion-ms", cfg.health.suspicion);
    if let Some(n) = arg_after(args, "--dials") {
        cfg.reconnect.max_rounds = n.parse().expect("--dials wants a count");
    }
    cfg.reconnect.backoff_base = arg_ms(args, "--backoff-ms", cfg.reconnect.backoff_base);
    cfg.reconnect.backoff_cap = arg_ms(args, "--cap-ms", cfg.reconnect.backoff_cap);
    cfg.reconnect.accept_window = arg_ms(args, "--window-ms", cfg.reconnect.accept_window);
    cfg
}

/// Waits up to `deadline` for `child` to exit, then kills it. Returns the
/// exit code (or -1 for signal/forced death).
fn reap(child: &mut Child, deadline: Duration) -> i32 {
    let t0 = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return status.code().unwrap_or(-1),
            Ok(None) if t0.elapsed() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return -1;
            }
        }
    }
}

/// `(rank, proc.minflt, proc.cpu_ticks)` of every live executor so far; 0
/// where an executor could not read its `/proc/self/stat`.
fn executor_work(driver: &mut MultiProcDriver) -> Vec<(usize, u64, u64)> {
    driver
        .collect_metrics()
        .into_iter()
        .map(|(rank, pairs)| {
            let get = |name: &str| pairs.iter().find(|(n, _)| n == name).map_or(0, |&(_, v)| v);
            (rank, get("proc.minflt"), get("proc.cpu_ticks"))
        })
        .collect()
}

fn check_exact(name: &str, outcome: &JobOutcome, expect: &[f64]) {
    assert_eq!(
        bits(&outcome.value),
        bits(expect),
        "{name}: result diverged from the driver-side oracle"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();

    // Child mode: join the driver and serve jobs until shutdown.
    if args.iter().any(|a| a == "--executor") {
        let addr = arg_after(&args, "--driver").expect("--executor requires --driver ADDR");
        run_executor_with(&addr, Duration::from_secs(30), tcp_config(&args))
            .expect("executor failed");
        return;
    }

    let smoke = args.iter().any(|a| a == "--smoke");
    let execs: usize = arg_after(&args, "--execs").map(|s| s.parse().expect("--execs N")).unwrap_or(3);
    assert!(execs >= 2, "need at least 2 executors for a ring");
    print_header(
        "launch_cluster",
        "split aggregation across real OS processes over TCP",
        "Spawns executor child processes, rendezvous over loopback, runs the\n\
         dense/sparse/flaky/halving/hierarchical/tree/kill job suite, and checks\n\
         every result bit-exact against the driver-side oracle. --smoke is\n\
         check_hermetic step 7.",
    );

    let (dim, parts, deadline_ms) = if smoke { (2_048, 9, 1_500) } else { (65_536, 24, 4_000) };

    let mut coordinator = Coordinator::bind("127.0.0.1:0").expect("bind coordinator");
    let addr = coordinator.local_addr().expect("coordinator addr").to_string();
    let exe = std::env::current_exe().expect("current exe");

    let mut forwarded: Vec<String> = Vec::new();
    for flag in TUNABLE_FLAGS {
        if let Some(v) = arg_after(&args, flag) {
            forwarded.push(flag.to_string());
            forwarded.push(v);
        }
    }
    let mut children: Vec<Child> = (0..execs)
        .map(|i| {
            Command::new(&exe)
                .args(["--executor", "--driver", &addr])
                .args(&forwarded)
                .stdin(Stdio::null())
                .spawn()
                .unwrap_or_else(|e| panic!("spawn executor {i}: {e}"))
        })
        .collect();
    println!("driver at {addr}, {execs} executor processes spawned");

    let controls = coordinator
        .wait_for(execs, CHANNELS, Duration::from_secs(30))
        .expect("rendezvous timed out");
    let mut driver = MultiProcDriver::new(controls);
    driver.reply_timeout = Duration::from_secs(60);

    let base = |id: u64| {
        let mut s = JobSpec::dense(id, 0x5EED ^ id, dim, parts);
        s.recv_deadline_ms = deadline_ms;
        s
    };
    let mut table = Table::new(vec!["Job", "Attempts", "Path", "Gathered"]);
    let mut record = |name: &str, o: &JobOutcome| {
        table.row(vec![
            name.to_string(),
            o.attempts.to_string(),
            if o.used_fallback { "tree".into() } else { "reduce-scatter".into() },
            if o.used_fallback {
                "whole aggregators".into()
            } else {
                format!("{} segments / {} B", o.wire_segments, o.result_bytes)
            },
        ]);
    };

    // 1. Dense: the happy path must finish in one attempt.
    let dense = base(1);
    let o = driver.run_job(&dense).expect("dense job");
    assert_eq!(o.attempts, 1, "dense job should not retry");
    assert!(!o.used_fallback);
    check_exact("dense", &o, &oracle(&dense));
    record("dense", &o);
    let dense_bytes = o.result_bytes;

    // Executor work per dense job, in steady state (job 1 warmed up).
    let before = executor_work(&mut driver);
    for id in 10..10 + WORK_JOBS {
        let spec = base(id);
        let o = driver.run_job(&spec).expect("dense work job");
        check_exact("dense work", &o, &oracle(&spec));
    }
    for ((rank, faults0, ticks0), (_, faults1, ticks1)) in
        before.iter().zip(executor_work(&mut driver))
    {
        println!(
            "executor rank {rank}: {} minor faults, {} CPU ticks per {dim}-dim dense job",
            faults1.saturating_sub(*faults0) / WORK_JOBS,
            ticks1.saturating_sub(*ticks0) as f64 / WORK_JOBS as f64
        );
    }

    // 2. Sparse at 1% density: bit-exact and cheaper on the wire.
    let mut sparse = JobSpec::sparse(2, 0x5EED ^ 2, dim, parts, 0.01);
    sparse.recv_deadline_ms = deadline_ms;
    let o = driver.run_job(&sparse).expect("sparse job");
    assert!(!o.used_fallback);
    check_exact("sparse", &o, &oracle(&sparse));
    assert!(
        o.result_bytes < dense_bytes,
        "sparse gather ({} B) should beat dense ({dense_bytes} B)",
        o.result_bytes
    );
    record("sparse 1%", &o);

    // 3. Flaky: rank 1 fails attempt 0 after leaving stale frames on the
    //    wire; the epoch fence must reject them on the retry.
    let mut flaky = base(3);
    flaky.fail_rank = 1;
    let o = driver.run_job(&flaky).expect("flaky job");
    assert_eq!(o.attempts, 2, "flaky job must fail once then succeed");
    assert!(!o.used_fallback);
    check_exact("flaky", &o, &oracle(&flaky));
    record("flaky (retry)", &o);

    // 4. The other algorithm families, each in one attempt; the tree job
    //    runs the tree as its primary path.
    for (id, name, algo, nodes) in [
        (5, "halving", Algo::Halving, 0),
        (6, "hierarchical, 2 nodes", Algo::Hierarchical, 2),
        (7, "tree", Algo::Tree, 0),
    ] {
        let mut spec = base(id);
        (spec.algo, spec.nodes) = (algo, nodes);
        let o = driver.run_job(&spec).unwrap_or_else(|e| panic!("{name} job: {e}"));
        assert_eq!(o.attempts, 1, "{name} job should not retry");
        assert_eq!(o.used_fallback, algo == Algo::Tree, "{name}: only the tree job runs the tree");
        check_exact(name, &o, &oracle(&spec));
        record(name, &o);
    }

    // 5. Kill (last: it costs us an executor): the highest rank dies
    //    mid-ring; the survivors must re-form the ring under a new
    //    membership view and still produce the exact answer.
    let victim = execs as u32 - 1;
    let mut kill = base(4);
    kill.die_rank = victim;
    let o = driver.run_job(&kill).expect("kill job");
    assert!(!o.used_fallback, "survivor ring re-formation must beat the tree fallback");
    assert_eq!(o.ring_size, execs - 1, "retry ring must span exactly the survivors");
    assert!(o.view_generation >= 1, "losing a process must publish a new view");
    check_exact("kill", &o, &oracle(&kill));
    record("kill (survivor ring)", &o);

    driver.shutdown();
    // Ranks are assigned by rendezvous arrival order, not spawn order, so we
    // can't know which child process held the victim rank — but exactly one
    // must have died with the injected code and the rest must exit cleanly.
    let codes: Vec<i32> =
        children.iter_mut().map(|c| reap(c, Duration::from_secs(20))).collect();
    let killed = codes.iter().filter(|&&c| c == KILLED_EXIT_CODE).count();
    let clean = codes.iter().filter(|&&c| c == 0).count();
    assert_eq!(
        (killed, clean),
        (1, execs - 1),
        "expected one injected death (exit {KILLED_EXIT_CODE}) and clean exits, got {codes:?}"
    );

    table.print();
    println!(
        "\nall {} jobs bit-exact across {execs} OS processes ({} survived the kill)",
        7 + WORK_JOBS,
        execs - 1
    );
}
