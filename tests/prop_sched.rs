//! Property tests on the scheduler's core invariants (DESIGN.md §5i):
//!
//! * any interleaving of concurrently submitted jobs produces results
//!   bit-identical to the serial oracle — scheduling may interleave jobs,
//!   never change their math;
//! * live jobs always hold distinct, in-range, nonzero epoch namespaces,
//!   and the bounded queue rejects overflow with the typed error;
//! * the namespace fold into the attempt word is injective and
//!   round-trips.

use std::sync::{Arc, Condvar, Mutex};

use sparker_testkit::{check, tk_assert, tk_assert_eq, Config};

use sparker_net::epoch;
use sparker_sched::{
    AggJob, Backend, EngineBackend, Fifo, JobCtx, JobRequest, SchedConfig, SchedError, Scheduler,
};

fn cfg() -> Config {
    Config::with_cases(6)
}

#[test]
fn any_interleaving_matches_serial_oracle_bit_exact() {
    check(&cfg(), |src| {
        let lanes = src.usize_in(1..3);
        let jobs_per_client = src.usize_in(2..7);
        let jobs: Vec<Vec<AggJob>> = (0..2)
            .map(|client| {
                (0..jobs_per_client)
                    .map(|i| AggJob {
                        seed: src.u64_any() ^ ((client as u64) << 48 | i as u64),
                        dim: src.usize_in(1..40),
                        parts: src.usize_in(1..5),
                    })
                    .collect()
            })
            .collect();
        let sched =
            Scheduler::new(EngineBackend::new(lanes, 2, 1), Box::new(Fifo), SchedConfig::default());
        // Two submitter threads race their batches through the queue; the
        // race and the lane count decide the interleaving.
        let results: Vec<Vec<(AggJob, Vec<f64>)>> = std::thread::scope(|s| {
            let handles: Vec<_> = jobs
                .iter()
                .enumerate()
                .map(|(client, batch)| {
                    let sched = &sched;
                    s.spawn(move || {
                        let submitted: Vec<_> = batch
                            .iter()
                            .map(|&job| {
                                let req = JobRequest::new(client as u32, job);
                                (job, sched.submit(req).expect("admitted"))
                            })
                            .collect();
                        submitted
                            .into_iter()
                            .map(|(job, h)| (job, h.wait().expect("job runs")))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("submitter")).collect()
        });
        for per_client in results {
            for (job, got) in per_client {
                let want = EngineBackend::oracle(&job);
                tk_assert_eq!(
                    got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "scheduled result diverged from serial oracle for {job:?}"
                );
            }
        }
        Ok(())
    });
}

/// Holds dispatched jobs until opened, pinning an arbitrary number of jobs
/// in the live (pending + in-flight) state.
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

#[derive(Clone)]
struct GateBackend(Arc<Gate>);

impl Backend for GateBackend {
    type Job = u64;
    type Output = u64;

    fn lanes(&self) -> usize {
        1
    }

    fn run(&self, _lane: usize, _ctx: JobCtx, job: &u64) -> Result<u64, String> {
        let mut open = self.0.open.lock().unwrap();
        while !*open {
            open = self.0.cv.wait(open).unwrap();
        }
        Ok(*job)
    }
}

#[test]
fn live_jobs_never_share_a_namespace_and_overflow_rejects_typed() {
    check(&cfg(), |src| {
        let capacity = src.usize_in(2..9);
        let gate = Arc::new(Gate { open: Mutex::new(false), cv: Condvar::new() });
        let sched = Scheduler::new(
            GateBackend(gate.clone()),
            Box::new(Fifo),
            SchedConfig { capacity },
        );
        // Fill to the admission bound: 1 dispatched (gated) + `capacity`
        // pending, from arbitrary clients.
        let mut handles = Vec::new();
        let mut admitted = 0u64;
        loop {
            let req = JobRequest::new(src.usize_in(0..3) as u32, admitted);
            match sched.submit(req) {
                Ok(h) => {
                    handles.push((admitted, h));
                    admitted += 1;
                }
                Err(SchedError::QueueFull { capacity: c }) => {
                    tk_assert_eq!(c, capacity, "typed rejection names the bound");
                    break;
                }
                Err(e) => return Err(sparker_testkit::PropError::new(format!("expected QueueFull, got {e}"))),
            }
            tk_assert!(
                (admitted as usize) <= capacity + 1,
                "admission exceeded capacity + one in-flight"
            );
        }
        tk_assert!(admitted >= capacity as u64, "queue admits at least its capacity");
        // Every live job holds a distinct, nonzero, in-range namespace.
        let ns = sched.active_namespaces();
        tk_assert_eq!(ns.len(), handles.len(), "one namespace per live job");
        for w in ns.windows(2) {
            tk_assert!(w[0] != w[1], "live namespaces collide: {ns:?}");
        }
        for n in &ns {
            tk_assert!(*n >= 1 && *n < epoch::NS_COUNT, "namespace {n} out of range");
        }
        for (_, h) in &handles {
            tk_assert!(h.epoch_ns >= 1 && h.epoch_ns < epoch::NS_COUNT);
        }
        // Release: everything completes with its own value, and the
        // namespaces drain back out.
        *gate.open.lock().unwrap() = true;
        gate.cv.notify_all();
        for (job, h) in handles {
            tk_assert_eq!(h.wait().expect("job runs"), job);
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !sched.active_namespaces().is_empty() {
            tk_assert!(std::time::Instant::now() < deadline, "namespaces never released");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        Ok(())
    });
}

#[test]
fn namespace_fold_is_injective_and_round_trips() {
    check(&Config::with_cases(64), |src| {
        let ns_a = src.u64_in(0..epoch::NS_COUNT as u64) as u32;
        let ns_b = src.u64_in(0..epoch::NS_COUNT as u64) as u32;
        let at_a = src.u64_in(0..epoch::ATTEMPT_MASK as u64 + 1) as u32;
        let at_b = src.u64_in(0..epoch::ATTEMPT_MASK as u64 + 1) as u32;
        let fold_a = epoch::namespaced(ns_a, at_a);
        let fold_b = epoch::namespaced(ns_b, at_b);
        tk_assert_eq!(epoch::split_namespaced(fold_a), (ns_a, at_a), "round trip");
        if (ns_a, at_a) != (ns_b, at_b) {
            tk_assert!(
                fold_a != fold_b,
                "distinct (ns, attempt) pairs folded to the same word: \
                 ({ns_a},{at_a}) and ({ns_b},{at_b}) -> {fold_a}"
            );
        }
        Ok(())
    });
}
