//! Point-to-point micro-benchmarks.
//!
//! The paper's Figures 12 and 13 measure one-way latency and streaming
//! throughput between a pair of executors, comparing the scalable
//! communicator, BlockManager-based messaging, and MPI. These helpers run
//! the same measurements over any [`Transport`]: a ping-pong loop for
//! latency (one-way = RTT / 2, as in the OSU benchmarks) and a windowed
//! multi-channel stream for throughput.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::bytebuf::ByteBuf;

use crate::topology::ExecutorId;
use crate::transport::Transport;

/// Measures mean one-way latency between executors 0 and 1 of `net` using
/// `iters` ping-pong round trips of `msg_bytes`-sized messages (after
/// `warmup` unmeasured rounds).
///
/// Spawns the responder thread internally; the calling thread acts as the
/// initiator.
pub fn measure_latency(
    net: Arc<dyn Transport>,
    msg_bytes: usize,
    warmup: usize,
    iters: usize,
) -> Duration {
    assert!(net.size() >= 2, "latency bench needs two executors");
    assert!(iters > 0);
    let a = ExecutorId(0);
    let b = ExecutorId(1);
    let responder = {
        let net = net.clone();
        std::thread::spawn(move || {
            for _ in 0..(warmup + iters) {
                let m = net.recv(b, a, 0).expect("responder recv");
                net.send(b, a, 0, m).expect("responder send");
            }
        })
    };
    let payload = ByteBuf::from(vec![0u8; msg_bytes.max(1)]);
    for _ in 0..warmup {
        net.send(a, b, 0, payload.clone()).unwrap();
        net.recv(a, b, 0).unwrap();
    }
    let start = Instant::now();
    for _ in 0..iters {
        net.send(a, b, 0, payload.clone()).unwrap();
        net.recv(a, b, 0).unwrap();
    }
    let elapsed = start.elapsed();
    responder.join().expect("responder thread");
    elapsed / (2 * iters as u32)
}

/// Streams `count` messages of `msg_bytes` each from executor 0 to executor 1
/// across `channels` parallel channels (round-robin), then waits for a final
/// ack per channel. Mirrors the OSU bandwidth benchmark's windowed send.
/// Returns the goodput in MB/s (the unit Figure 13 reports).
pub fn measure_throughput(
    net: Arc<dyn Transport>,
    msg_bytes: usize,
    count: usize,
    channels: usize,
) -> f64 {
    assert!(net.size() >= 2);
    assert!(channels >= 1 && channels <= net.channels());
    assert!(count >= 1);
    let a = ExecutorId(0);
    let b = ExecutorId(1);
    let receiver = {
        let net = net.clone();
        std::thread::spawn(move || {
            // Drain every channel's share, then ack on each channel.
            let mut handles = Vec::new();
            for ch in 0..channels {
                let per = count / channels + usize::from(ch < count % channels);
                let net = net.clone();
                handles.push(std::thread::spawn(move || {
                    for _ in 0..per {
                        net.recv(b, a, ch).expect("stream recv");
                    }
                    net.send(b, a, ch, ByteBuf::from_static(b"ack")).expect("ack");
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
        })
    };

    let payload = ByteBuf::from(vec![0u8; msg_bytes]);
    let start = Instant::now();
    // Parallel senders, one per channel, so per-channel shaping overlaps the
    // way parallel sockets do.
    std::thread::scope(|s| {
        for ch in 0..channels {
            let per = count / channels + usize::from(ch < count % channels);
            let net = net.clone();
            let payload = payload.clone();
            s.spawn(move || {
                for _ in 0..per {
                    net.send(a, b, ch, payload.clone()).expect("stream send");
                }
            });
        }
    });
    for ch in 0..channels {
        net.recv(a, b, ch).expect("ack recv");
    }
    let elapsed = start.elapsed();
    receiver.join().unwrap();
    (msg_bytes * count) as f64 / elapsed.as_secs_f64().max(1e-12) / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{LinkProfile, NetProfile, TransportKind};
    use crate::topology::round_robin_layout;
    use crate::transport::MeshTransport;

    fn shaped_pair(latency_us: u64, bw: f64) -> Arc<MeshTransport> {
        let mut p = NetProfile::unshaped();
        p.inter_node = LinkProfile {
            latency: Duration::from_micros(latency_us),
            bandwidth: bw,
        };
        p.per_channel_bandwidth = bw;
        MeshTransport::new(&round_robin_layout(2, 1, 1), 4, p, TransportKind::MpiRef)
    }

    #[test]
    fn latency_measurement_reflects_profile() {
        let net = shaped_pair(500, f64::INFINITY);
        let us = measure_latency(net, 8, 3, 20).as_micros() as f64;
        assert!((450.0..1500.0).contains(&us), "measured {us}us, expected ~500us");
    }

    #[test]
    fn throughput_measurement_reflects_bandwidth_cap() {
        // 100 MB/s single stream, 1 channel: measured should be close below.
        let net = shaped_pair(0, 100.0 * 1024.0 * 1024.0);
        let mbps = measure_throughput(net, 256 * 1024, 40, 1);
        assert!((60.0..105.0).contains(&mbps), "measured {mbps} MB/s");
    }

    #[test]
    fn parallel_channels_scale_throughput_until_nic() {
        let mut p = NetProfile::unshaped();
        let chan_bw = 50.0 * 1024.0 * 1024.0;
        p.inter_node = LinkProfile { latency: Duration::ZERO, bandwidth: chan_bw };
        p.per_channel_bandwidth = chan_bw;
        p.nic_bandwidth = 2.5 * chan_bw;
        let net = MeshTransport::new(&round_robin_layout(2, 1, 1), 4, p, TransportKind::MpiRef);
        let one = measure_throughput(net.clone(), 256 * 1024, 32, 1);
        let four = measure_throughput(net, 256 * 1024, 32, 4);
        assert!(four > 1.6 * one, "parallel channels did not help: {one} vs {four}");
        // NIC cap: 4 channels can't exceed 2.5x one stream's cap by much.
        assert!(four < 3.2 * one, "NIC cap not enforced: {one} vs {four}");
    }
}
