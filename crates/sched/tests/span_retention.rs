//! With tracing off, a scheduler lane keeps no per-job span records: the
//! global trace sink must not grow with the number of jobs run. (Alone in
//! its file: the sink is process-wide, so no other test may share it.)

use sparker_obs::trace;
use sparker_sched::{AggJob, EngineBackend, Fifo, JobRequest, SchedConfig, Scheduler};

#[test]
fn lanes_retain_no_spans_per_job_when_tracing_is_off() {
    assert!(!trace::enabled());
    let sched = Scheduler::new(EngineBackend::new(2, 2, 1), Box::new(Fifo), SchedConfig::default());
    let mut most = 0;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    // Two at a time, so both lanes run.
    for pair in 0..1000u64 {
        let handles = [2 * pair, 2 * pair + 1].map(|seed| {
            let job = AggJob { seed, dim: 64, parts: 2 };
            (job, sched.submit(JobRequest::new((seed % 2) as u32, job)).expect("admitted"))
        });
        for (job, handle) in handles {
            let got = handle.wait().expect("job runs");
            assert_eq!(bits(&got), bits(&EngineBackend::oracle(&job)), "{job:?}");
        }
        most = most.max(trace::snapshot().len());
    }
    // One job leaves about five always-on spans per lane while it runs.
    assert!(most <= 32, "trace sink grew to {most} records over 2000 jobs");
}
