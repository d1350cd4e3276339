//! NETEM playground: push a synthetic packet stream through different
//! fault rules and watch the delivery statistics — the network emulator
//! in isolation, without the driving stack. `loss` is the loss model's
//! share of the offered packets; `qdrop` counts the packets a full queue
//! tail-dropped.
//!
//! ```text
//! cargo run --release --example netem_playground
//! ```

use rdsim::netem::{Link, NetemConfig, Packet, PacketKind};
use rdsim::units::{SimDuration, SimTime};

/// Wire size of each synthetic video packet: a 20 kB encoded frame.
const FRAME_WIRE_BYTES: u32 = 20_000;

/// Sends `n` video-sized packets at 27 fps through a rule and reports.
/// The packets carry no payload (`()`): the emulator decides every fault
/// from the packet metadata, including the wire size.
fn exercise(rule: &str, n: u64) {
    let config: NetemConfig = rule.parse().expect("valid rule");
    let mut link = Link::with_config(config, 7);
    let frame_gap = SimDuration::from_micros(37_037); // ≈ 27 fps
    let tick = SimDuration::from_millis(1);
    let mut now = SimTime::ZERO;
    let mut next_send = SimTime::ZERO;
    let mut seq = 0u64;
    let mut received = Vec::new();
    let mut total_latency = SimDuration::ZERO;
    let mut max_latency = SimDuration::ZERO;
    // Poll the link every millisecond so measured latency reflects the
    // emulator, not the sender's frame cadence.
    while seq < n || link.in_flight() > 0 {
        if seq < n && now >= next_send {
            link.send(
                Packet::new(seq, PacketKind::Video, (), FRAME_WIRE_BYTES),
                now,
            );
            seq += 1;
            next_send += frame_gap;
        }
        for packet in link.receive(now) {
            let latency = packet.latency_at(now);
            total_latency += latency;
            max_latency = max_latency.max(latency);
            received.push(packet);
        }
        now += tick;
        if now > SimTime::from_secs(300) {
            break; // safety valve for pathological rules
        }
    }

    let stats = link.stats();
    let delivered = received.len() as u64;
    let mean_latency = if delivered == 0 {
        SimDuration::ZERO
    } else {
        total_latency / delivered
    };
    let duplicates = received.iter().filter(|p| p.duplicate).count();
    let corrupted = received.iter().filter(|p| p.corrupt_at.is_some()).count();
    let reordered = received.windows(2).filter(|w| w[1].seq < w[0].seq).count();
    println!("{rule:<28} delivered {:>4}/{:<4}  loss {:>5.1}%  qdrop {:>3}  mean lat {:>7.1} ms  max {:>7.1} ms  dup {:>2}  corrupt {:>2}  reordered {:>3}",
        delivered,
        stats.enqueued,
        stats.dropped as f64 / stats.enqueued as f64 * 100.0,
        stats.queue_dropped,
        mean_latency.as_millis_f64(),
        max_latency.as_millis_f64(),
        duplicates,
        corrupted,
        reordered,
    );
}

fn main() {
    println!("1000 video frames (20 kB each) at ~27 fps through each rule:\n");
    for rule in [
        "passthrough",
        "delay 5ms",
        "delay 25ms",
        "delay 50ms",
        "delay 100ms 20ms 25%",
        "loss 2%",
        "loss 5%",
        "loss gemodel 2% 20% 80% 0%",
        "duplicate 2%",
        "corrupt 1%",
        "delay 60ms reorder 25% gap 5",
        "rate 4mbit",
        "delay 50ms 10ms 25% loss 5%",
    ] {
        exercise(rule, 1000);
    }
    println!("\nThe same rules drive the fault injector in the HIL sessions;");
    println!("`FaultInjector` adds and deletes them at scheduled times and logs");
    println!("every transition, as the paper's §V.F logging schema requires.");
}
