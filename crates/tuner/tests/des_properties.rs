//! Property tests on the discrete-event engine: the invariants any valid
//! schedule must satisfy, for randomly generated op DAGs.

use sparker_testkit::{check, tk_assert, Config};

use sparker_tuner::des::{DesParams, OpGraph, OpKind};

fn cfg() -> Config {
    // Seed re-rolled when the DAG generator switched from `f64_any` (which
    // produced infinities that an inline clamp had to paper over) to finite
    // magnitudes, so the corpus exercises the new generator from scratch.
    Config::with_cases(64).with_seed(0x005e_5d35_0002)
}

fn params(executors: usize, cores: usize) -> DesParams {
    DesParams {
        executors,
        cores_per_executor: cores,
        node_of_executor: (0..executors).map(|e| e % 2).collect(),
        nodes: 2,
        stream_bandwidth: 1000.0,
        nic_bandwidth: 2000.0,
        intra_bandwidth: 10_000.0,
        latency: 0.01,
        intra_latency: 0.001,
    }
}

/// Builds a random DAG: op i depends on a random subset of earlier ops.
fn random_graph(
    executors: usize,
    kinds: &[(u8, f64)], // (kind selector, magnitude)
    deps: &[Vec<usize>],
) -> OpGraph {
    let mut g = OpGraph::new();
    for (i, &(kind, mag)) in kinds.iter().enumerate() {
        let dep_ids: Vec<usize> = deps[i].iter().copied().filter(|&d| d < i).collect();
        match kind % 4 {
            0 => {
                g.compute(i % executors, mag.abs() % 2.0, dep_ids);
            }
            1 => {
                g.xfer(i % executors, (i + 1) % executors, 0, (mag.abs() % 1e4) + 1.0, dep_ids);
            }
            2 => {
                g.driver(mag.abs() % 0.5, dep_ids);
            }
            _ => {
                g.barrier(dep_ids);
            }
        }
    }
    g
}

#[test]
fn finish_times_respect_dependencies() {
    check(&cfg(), |src| {
        // Finite magnitudes only: `f64_any` can draw `inf`, and
        // `inf.abs() % 2.0` is NaN, which the simulator (correctly) rejects.
        let kinds = src.vec_of(1..40, |s| (s.u8_any(), s.f64_in(0.0..1e9)));
        let raw_deps: Vec<Vec<usize>> =
            (0..40).map(|_| src.vec_of(0..4, |s| s.usize_in(0..40))).collect();
        let g = random_graph(3, &kinds, &raw_deps);
        let r = g.run(&params(3, 2));
        for (id, op) in g.ops.iter().enumerate() {
            for &d in &op.deps {
                tk_assert!(
                    r.finish[id] >= r.finish[d] - 1e-12,
                    "op {id} finished before its dependency {d}"
                );
            }
            tk_assert!(r.finish[id].is_finite(), "op {id} has non-finite finish time");
            tk_assert!(r.finish[id] >= 0.0, "op {id} finished before t=0");
        }
        let max_finish = r.finish.iter().copied().fold(0.0, f64::max);
        tk_assert!(
            (r.makespan - max_finish).abs() < 1e-12,
            "makespan {} != max finish {max_finish}",
            r.makespan
        );
        Ok(())
    });
}

#[test]
fn more_cores_never_slow_compute_down() {
    check(&cfg(), |src| {
        let durations = src.vec_of(1..20, |s| s.f64_in(0.01..1.0));
        let build = || {
            let mut g = OpGraph::new();
            for (i, &d) in durations.iter().enumerate() {
                g.compute(i % 2, d, vec![]);
            }
            g
        };
        let slow = build().run(&params(2, 1)).makespan;
        let fast = build().run(&params(2, 4)).makespan;
        tk_assert!(fast <= slow + 1e-12, "more cores slowed things down: {slow} -> {fast}");
        Ok(())
    });
}

#[test]
fn makespan_at_least_critical_path_duration() {
    check(&cfg(), |src| {
        let durations = src.vec_of(1..15, |s| s.f64_in(0.01..1.0));
        // A pure chain: makespan must be >= the sum of durations.
        let mut g = OpGraph::new();
        let mut prev: Option<usize> = None;
        let mut total = 0.0;
        for &d in &durations {
            let deps = prev.map(|p| vec![p]).unwrap_or_default();
            prev = Some(g.compute(0, d, deps));
            total += d;
        }
        let r = g.run(&params(1, 4));
        tk_assert!(r.makespan >= total - 1e-9, "makespan {} beats the chain {total}", r.makespan);
        tk_assert!(r.makespan <= total + 1e-9, "chain has no contention: exact");
        Ok(())
    });
}

#[test]
fn delays_add_no_resource_contention() {
    check(&cfg(), |src| {
        let count = src.usize_in(1..50);
        let secs = src.f64_in(0.001..0.5);
        // N parallel delays on no resources finish simultaneously.
        let mut g = OpGraph::new();
        for _ in 0..count {
            g.delay(secs, vec![]);
        }
        let r = g.run(&params(1, 1));
        tk_assert!((r.makespan - secs).abs() < 1e-12, "makespan {} != {secs}", r.makespan);
        Ok(())
    });
}

#[test]
fn delay_op_is_pure_latency() {
    let mut g = OpGraph::new();
    let a = g.compute(0, 1.0, vec![]);
    let d = g.delay(0.5, vec![a]);
    let b = g.compute(0, 1.0, vec![d]);
    let r = g.run(&params(1, 1));
    assert!((r.finish[b] - 2.5).abs() < 1e-12);
}

#[test]
fn xfer_kinds_are_visible_in_graph() {
    let mut g = OpGraph::new();
    let x = g.xfer(0, 1, 0, 100.0, vec![]);
    assert!(matches!(g.ops[x].kind, OpKind::Xfer { bytes, .. } if bytes == 100.0));
}
