//! Property tests on the network-profile algebra: derived quantities must
//! stay physical and the paper's transport ordering must hold.

use sparker_testkit::{check, tk_assert, Config};

use sparker_net::TransportKind;
use sparker_tuner::profile::NetProfile;

fn cfg() -> Config {
    Config::with_cases(128)
}

#[test]
fn parallel_bandwidth_is_monotone_and_capped() {
    check(&cfg(), |src| {
        let channels = src.usize_in(1..32);
        for p in [NetProfile::bic(), NetProfile::aws()] {
            for kind in [TransportKind::ScalableComm, TransportKind::BlockManager] {
                let bw = p.parallel_bandwidth(kind, channels);
                let bw_next = p.parallel_bandwidth(kind, channels + 1);
                tk_assert!(bw_next >= bw, "more channels can't hurt");
                tk_assert!(bw <= p.nic_bandwidth, "NIC caps the sum");
                tk_assert!(bw > 0.0, "bandwidth must stay positive");
            }
        }
        Ok(())
    });
}

#[test]
fn latency_ordering_holds_on_both_clusters() {
    for p in [NetProfile::bic(), NetProfile::aws()] {
        let mpi = p.one_way_latency(TransportKind::MpiRef);
        let sc = p.one_way_latency(TransportKind::ScalableComm);
        let bm = p.one_way_latency(TransportKind::BlockManager);
        assert!(mpi < sc, "MPI < SC: {p:?}");
        assert!(sc < bm, "SC < BM: {p:?}");
    }
}

#[test]
fn transfer_time_is_monotone_in_bytes() {
    check(&cfg(), |src| {
        let a = src.usize_in(0..1_000_000);
        let b = src.usize_in(0..1_000_000);
        let p = NetProfile::bic();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        tk_assert!(p.inter_node.transfer_time(lo) <= p.inter_node.transfer_time(hi));
        tk_assert!(p.intra_node.transfer_time(lo) <= p.intra_node.transfer_time(hi));
        Ok(())
    });
}
