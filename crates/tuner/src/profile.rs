//! Network profiles: the paper's two clusters as numbers.
//!
//! The paper evaluates on two clusters (Table 1):
//!
//! * **BIC** — 8 in-house nodes, 56 logical cores each, 100 Gbps IPoIB EDR,
//!   6 executors × 4 cores per node. Measured over TCP/IP from the JVM the
//!   effective line rate is ~1.19 GB/s (Figure 13), a single TCP stream
//!   reaches only a fraction of that, MPI one-way latency is 15.94 µs, the
//!   scalable communicator 72.73 µs, and BlockManager messaging 3861 µs
//!   (Figure 12).
//! * **AWS** — 10× EC2 m5d.24xlarge, 96 logical cores each, 25 Gbps
//!   Ethernet, 12 executors × 8 cores per node.
//!
//! A [`NetProfile`] captures exactly the knobs those numbers hang off:
//! per-link latency and bandwidth for intra-node and inter-node hops, the
//! single-stream (per-channel) bandwidth cap that makes parallel channels
//! necessary, the node NIC line rate that bounds their sum, and per-transport
//! software overheads. The discrete-event simulator and the
//! profile-derived cost model read them; no transport enforces them, and
//! no runtime crate depends on them.

use std::time::Duration;

use sparker_net::TransportKind;

/// Latency/bandwidth of one directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// One-way propagation + protocol latency.
    pub latency: Duration,
    /// Sustainable bandwidth of a single stream on this link, in bytes/sec.
    pub bandwidth: f64,
}

impl LinkProfile {
    /// Full one-way message time: latency plus streaming time.
    pub fn transfer_time(&self, bytes: usize) -> Duration {
        self.latency + Duration::from_secs_f64(bytes as f64 / self.bandwidth)
    }
}

/// Extra one-way software latency `kind` adds on top of the wire.
///
/// The paper compares three transports (Figure 12); they differ only in
/// software overhead added on top of the wire, which is how we model them.
/// Calibrated so that on the BIC wire (≈16 µs base) the three transports
/// land at the paper's measured 15.94 µs / 72.73 µs / 3861.25 µs.
pub(crate) fn software_overhead(kind: TransportKind) -> Duration {
    match kind {
        TransportKind::MpiRef => Duration::ZERO,
        TransportKind::ScalableComm => Duration::from_micros(57),
        TransportKind::BlockManager => Duration::from_micros(3845),
    }
}

/// Single-stream efficiency of `kind` relative to the profile's
/// per-channel cap.
///
/// MPI over verbs fills the pipe with one stream; a single JVM TCP
/// stream does not (Figure 13 — that is exactly why the PDR uses
/// parallel channels).
fn single_stream_efficiency(kind: TransportKind) -> f64 {
    match kind {
        TransportKind::MpiRef => 1.0,
        TransportKind::ScalableComm => 1.0,
        TransportKind::BlockManager => 0.5,
    }
}

/// Full network model for a cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct NetProfile {
    /// Links between executors on the same node (shared memory / loopback).
    pub intra_node: LinkProfile,
    /// Links between executors on different nodes.
    pub inter_node: LinkProfile,
    /// Bandwidth cap of one TCP stream (one PDR channel) in bytes/sec.
    pub per_channel_bandwidth: f64,
    /// Total NIC line rate per node in bytes/sec (sum cap over channels).
    pub nic_bandwidth: f64,
    /// MPI reference single-stream bandwidth in bytes/sec (Figure 13/15).
    pub mpi_bandwidth: f64,
}

const MB: f64 = 1024.0 * 1024.0;

impl NetProfile {
    /// The paper's in-house cluster: 100 Gbps IPoIB, TCP/IP from the JVM.
    ///
    /// Effective numbers (Figures 12–13): wire latency ≈ 16 µs, JVM TCP line
    /// rate ≈ 1185 MB/s, single stream ≈ 390 MB/s, intra-node transfers run
    /// at memory-ish speed through loopback.
    pub fn bic() -> Self {
        Self {
            intra_node: LinkProfile {
                latency: Duration::from_micros(8),
                bandwidth: 5200.0 * MB,
            },
            inter_node: LinkProfile {
                latency: Duration::from_micros(16),
                bandwidth: 390.0 * MB,
            },
            per_channel_bandwidth: 390.0 * MB,
            nic_bandwidth: 1185.0 * MB,
            mpi_bandwidth: 1185.0 * MB,
        }
    }

    /// The paper's EC2 cluster: 25 Gbps Ethernet (≈ 2900 MB/s effective).
    pub fn aws() -> Self {
        Self {
            intra_node: LinkProfile {
                latency: Duration::from_micros(10),
                bandwidth: 4800.0 * MB,
            },
            inter_node: LinkProfile {
                latency: Duration::from_micros(30),
                bandwidth: 850.0 * MB,
            },
            per_channel_bandwidth: 850.0 * MB,
            nic_bandwidth: 2680.0 * MB,
            mpi_bandwidth: 2680.0 * MB,
        }
    }

    /// One-way latency of `kind` over an inter-node hop.
    pub fn one_way_latency(&self, kind: TransportKind) -> Duration {
        self.inter_node.latency + software_overhead(kind)
    }

    /// Aggregate bandwidth available to `channels` parallel streams on one
    /// inter-node path: each stream is capped individually, and their sum is
    /// capped by the NIC.
    pub fn parallel_bandwidth(&self, kind: TransportKind, channels: usize) -> f64 {
        let per = self.per_channel_bandwidth * single_stream_efficiency(kind);
        (per * channels.max(1) as f64).min(self.nic_bandwidth)
    }

    /// Streaming throughput (bytes/sec) of `kind` for messages of
    /// `msg_bytes` over `channels` parallel streams (Figure 13).
    ///
    /// Per message the sender pays the software overhead once; large
    /// messages amortize it, small ones don't — reproducing Figure 13's rise
    /// with message size.
    pub fn throughput(&self, kind: TransportKind, msg_bytes: f64, channels: usize) -> f64 {
        let bw = match kind {
            TransportKind::MpiRef => self.mpi_bandwidth,
            _ => self.parallel_bandwidth(kind, channels),
        };
        let per_msg_overhead = software_overhead(kind).as_secs_f64() / channels.max(1) as f64
            + self.inter_node.latency.as_secs_f64() / 8.0; // pipelined
        let t = msg_bytes / bw + per_msg_overhead;
        msg_bytes / t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_combines_latency_and_bandwidth() {
        let l = LinkProfile { latency: Duration::from_micros(10), bandwidth: 1e6 };
        let t = l.transfer_time(500_000);
        assert!((t.as_secs_f64() - 0.50001).abs() < 1e-9, "{t:?}");
    }

    #[test]
    fn latency_hierarchy_matches_figure_12() {
        let p = NetProfile::bic();
        let us = |kind| p.one_way_latency(kind).as_secs_f64() * 1e6;
        // Paper: 15.94us / 72.73us / 3861.25us.
        use TransportKind::{BlockManager, MpiRef, ScalableComm};
        let (mpi, sc, bm) = (us(MpiRef), us(ScalableComm), us(BlockManager));
        assert!((mpi - 16.0).abs() <= 1.0, "mpi {mpi}");
        assert!((sc - 73.0).abs() < 8.0, "sc {sc}");
        assert!((bm - 3861.0).abs() < 150.0, "bm {bm}");
    }

    #[test]
    fn throughput_rises_with_message_size() {
        let p = NetProfile::bic();
        let small = p.throughput(TransportKind::ScalableComm, 1024.0, 4);
        let large = p.throughput(TransportKind::ScalableComm, 64.0 * MB, 4);
        assert!(large > 10.0 * small);
    }

    #[test]
    fn four_channels_approach_line_rate_and_the_nic_caps_more() {
        let p = NetProfile::bic();
        let msg = 64.0 * MB;
        let one = p.throughput(TransportKind::ScalableComm, msg, 1);
        let four = p.throughput(TransportKind::ScalableComm, msg, 4);
        let mpi = p.throughput(TransportKind::MpiRef, msg, 1);
        assert!(four > 2.5 * one, "channels must scale throughput");
        // Paper: SC reaches 97% of MPI's 1185 MB/s.
        assert!(four / mpi > 0.90, "sc {four} vs mpi {mpi}");
        let bw = |channels| p.parallel_bandwidth(TransportKind::ScalableComm, channels);
        assert!(bw(4) > 2.5 * bw(1), "4 channels should ~4x one stream");
        // NIC caps the sum: going 4 -> 8 channels adds little.
        assert!(bw(8) <= p.nic_bandwidth);
        assert!(bw(8) / bw(4) < 1.2);
        // MPI fills the pipe with a single stream.
        assert!(p.mpi_bandwidth >= bw(8) * 0.95);
    }

    #[test]
    fn intra_node_is_faster_than_inter_node() {
        for p in [NetProfile::bic(), NetProfile::aws()] {
            assert!(p.intra_node.latency < p.inter_node.latency, "{p:?}");
            assert!(p.intra_node.bandwidth > p.inter_node.bandwidth, "{p:?}");
        }
    }
}
