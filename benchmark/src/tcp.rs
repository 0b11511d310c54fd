//! `tcp_small_jobs` and `tcp_large_jobs`: the multi-process engine over real
//! loopback sockets. The executors are this binary re-executed with
//! `--executor ADDR`.

use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sparker_engine::multiproc::{self, run_executor_with, JobOutcome, JobSpec, MultiProcDriver};
use sparker_net::tcp::rendezvous::Coordinator;
use sparker_net::tcp::TcpConfig;

use crate::harness::{bits_equal, proc_status_kib, OpError, Phases, Workload};

pub const EXECUTORS: usize = 3;
pub const CHANNELS: usize = 2;
const PARTS: usize = 6;
const WARMUP_JOBS: u64 = 5;
const JOIN_TIMEOUT: Duration = Duration::from_secs(30);
const REAP_TIMEOUT: Duration = Duration::from_secs(10);

/// Every executor child this process has spawned and not yet reaped, so the
/// deadline watchdog can kill them from its own thread.
static CHILDREN: Mutex<Vec<Child>> = Mutex::new(Vec::new());

/// Child mode: join the driver at `addr` and serve jobs until it shuts us
/// down or hangs up.
pub fn run_executor(addr: &str) -> Result<(), String> {
    run_executor_with(addr, JOIN_TIMEOUT, TcpConfig::default()).map_err(|e| e.to_string())
}

/// Kills and reaps every live executor child. Called on the deadline and on
/// a failed set-up; a clean run has none left by then.
pub fn kill_children() {
    let mut children = CHILDREN.lock().unwrap_or_else(|e| e.into_inner());
    for mut child in children.drain(..) {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Waits for every child to exit on its own, killing what is still alive at
/// the deadline. `Err` names every child that did not exit with code 0.
fn reap_children() -> Result<(), String> {
    let mut children = std::mem::take(&mut *CHILDREN.lock().unwrap_or_else(|e| e.into_inner()));
    let deadline = Instant::now() + REAP_TIMEOUT;
    let mut problems = Vec::new();
    for child in &mut children {
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break None;
                }
            }
        };
        match status {
            Some(s) if s.success() => {}
            Some(s) => problems.push(format!("executor {} exited with {s}", child.id())),
            None => problems.push(format!("executor {} had to be killed", child.id())),
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

pub struct TcpJobs<const DIM: usize> {
    seed: u64,
    driver: Mutex<MultiProcDriver>,
    pids: Vec<u32>,
}

pub type TcpSmallJobs = TcpJobs<64>;
pub type TcpLargeJobs = TcpJobs<262_144>;

impl<const DIM: usize> TcpJobs<DIM> {
    fn spec(&self, i: u64) -> JobSpec {
        // Job ids double as the op half of the epoch fence, so each job of a
        // cluster gets its own; warm-up jobs take the ids above `1 << 40`.
        let id = i + 1;
        JobSpec::dense(id, self.seed ^ id, DIM, PARTS)
    }

    fn run(&self, i: u64) -> Result<JobOutcome, OpError> {
        let mut driver = self.driver.lock().unwrap_or_else(|e| e.into_inner());
        driver
            .run_job(&self.spec(i))
            .map_err(|e| OpError::Failed(e.to_string()))
    }
}

impl<const DIM: usize> Workload for TcpJobs<DIM> {
    type Output = Vec<f64>;
    /// Every job has its own seed, so each check recomputes `multiproc::oracle`.
    type Oracle = ();
    const NAME: &'static str = if DIM == 64 {
        "tcp_small_jobs"
    } else {
        "tcp_large_jobs"
    };

    fn setup(seed: u64) -> Self {
        let mut coordinator = Coordinator::bind("127.0.0.1:0").expect("bind coordinator");
        let addr = coordinator
            .local_addr()
            .expect("coordinator address")
            .to_string();
        let exe = std::env::current_exe().expect("own executable path");
        let mut pids = Vec::with_capacity(EXECUTORS);
        for _ in 0..EXECUTORS {
            let child = Command::new(&exe)
                .args(["--executor", &addr])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
                .expect("spawn executor process");
            pids.push(child.id());
            CHILDREN
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(child);
        }
        let controls = coordinator
            .wait_for(EXECUTORS, CHANNELS, JOIN_TIMEOUT)
            .unwrap_or_else(|e| {
                kill_children();
                panic!("{}: rendezvous failed: {e}", Self::NAME)
            });
        let w = Self {
            seed,
            driver: Mutex::new(MultiProcDriver::new(controls)),
            pids,
        };
        for i in 0..WARMUP_JOBS {
            if let Err(OpError::Failed(why) | OpError::Rejected(why)) = w.run(1 << 40 | i) {
                kill_children();
                panic!("{}: warm-up job failed: {why}", Self::NAME);
            }
        }
        w
    }

    fn oracle(&self) {}

    fn op(&self, _client: usize, i: u64) -> Result<(Vec<f64>, Phases), OpError> {
        let outcome = self.run(i)?;
        let phases = Phases {
            wire_bytes: outcome.result_bytes,
            multiproc: Some((outcome.attempts, outcome.used_fallback)),
            ..Phases::default()
        };
        Ok((outcome.value, phases))
    }

    fn check(&self, _oracle: &(), _client: usize, i: u64, out: Vec<f64>) -> bool {
        bits_equal(&out, &multiproc::oracle(&self.spec(i)))
    }

    fn teardown(self) -> Result<u64, String> {
        let rss_kib: u64 = self
            .pids
            .iter()
            .map(|pid| proc_status_kib(&pid.to_string(), "VmHWM:").unwrap_or(0))
            .sum();
        self.driver
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .shutdown();
        reap_children().map(|()| rss_kib)
    }
}
