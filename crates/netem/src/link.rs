//! Emulated links: unidirectional and duplex.

use crate::{LinkStats, NetemConfig, NetemQdisc, Packet};
use rdsim_obs::{Histogram, Recorder, Tracer};
use rdsim_units::SimTime;
use std::sync::Arc;

/// One direction of an emulated network path: an egress NETEM qdisc, as in
/// the paper's loopback setup where outgoing traffic of each endpoint
/// traverses the fault rules. `P` is the typed payload its packets carry.
#[derive(Debug)]
pub struct Link<P> {
    qdisc: NetemQdisc<P>,
    /// Per-delivery latency histogram (µs), present only while a live
    /// recorder is attached.
    latency_hist: Option<Arc<Histogram>>,
}

impl<P: Clone> Link<P> {
    /// Creates a passthrough link with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Link {
            qdisc: NetemQdisc::new(seed),
            latency_hist: None,
        }
    }

    /// Creates a link with an initial fault configuration.
    pub fn with_config(config: NetemConfig, seed: u64) -> Self {
        Link {
            qdisc: NetemQdisc::with_config(config, seed),
            latency_hist: None,
        }
    }

    /// Registers this link's `<prefix>.latency_us` delivery-latency
    /// histogram (e.g. `netem.uplink.latency_us`). The decision counters
    /// are written once, from the ledger, by [`DuplexLink::publish`].
    /// Attaching a null recorder detaches.
    pub fn attach_recorder(&mut self, recorder: &Recorder, prefix: &str) {
        self.latency_hist = recorder
            .enabled()
            .then(|| recorder.histogram(&format!("{prefix}.latency_us")));
    }

    /// Attaches a causal tracer to the underlying qdisc, annotating every
    /// per-packet decision with the packet's trace id. Attaching a null
    /// tracer detaches.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.qdisc.attach_tracer(tracer);
    }

    /// The active fault configuration.
    pub fn config(&self) -> &NetemConfig {
        self.qdisc.config()
    }

    /// Replaces the fault configuration (like `tc qdisc change`).
    pub fn set_config(&mut self, config: NetemConfig) {
        self.qdisc.set_config(config);
    }

    /// Reserves qdisc capacity for at least `packets` in-flight packets
    /// (see [`NetemQdisc::reserve`]).
    pub fn reserve(&mut self, packets: usize) {
        self.qdisc.reserve(packets);
    }

    /// Sends a packet into the link at time `now`, stamping `sent_at`.
    pub fn send(&mut self, mut packet: Packet<P>, now: SimTime) {
        packet.sent_at = now;
        self.qdisc.enqueue(packet, now);
    }

    /// Receives every packet whose delivery time has arrived.
    ///
    /// Convenience wrapper over [`receive_into`](Self::receive_into); the
    /// per-step datapath reuses a scratch buffer instead.
    pub fn receive(&mut self, now: SimTime) -> Vec<Packet<P>> {
        let mut out = Vec::new();
        self.receive_into(now, &mut out);
        out
    }

    /// Appends every packet whose delivery time has arrived to `out`,
    /// recording each delivery latency when a recorder is attached.
    /// Allocation-free when `out` has spare capacity.
    pub fn receive_into(&mut self, now: SimTime, out: &mut Vec<Packet<P>>) {
        let start = out.len();
        self.qdisc.dequeue_into(now, out);
        if let Some(hist) = &self.latency_hist {
            for p in &out[start..] {
                hist.record(p.latency_at(now).as_micros());
            }
        }
    }

    /// Packets currently in flight.
    pub fn in_flight(&self) -> usize {
        self.qdisc.len()
    }

    /// The qdisc's decision ledger for this direction.
    pub fn stats(&self) -> LinkStats {
        self.qdisc.stats()
    }
}

/// Telemetry prefix of the vehicle → operator direction.
const UPLINK: &str = "netem.uplink";
/// Telemetry prefix of the operator → vehicle direction.
const DOWNLINK: &str = "netem.downlink";

/// A bidirectional path built from two independent [`Link`]s.
///
/// In the paper both directions run over the same loopback interface, so a
/// single NETEM rule affects both the video feed (vehicle → operator) and
/// the command stream (operator → vehicle). [`DuplexLink::set_both`]
/// mirrors that bidirectional behaviour; per-direction configs are also
/// available for the unidirectional experiments of related work. `Up` and
/// `Down` are the payload types of the two directions.
#[derive(Debug)]
pub struct DuplexLink<Up, Down> {
    /// Vehicle → operator direction (video, QoS).
    pub uplink: Link<Up>,
    /// Operator → vehicle direction (commands, meta-commands).
    pub downlink: Link<Down>,
}

impl<Up: Clone, Down: Clone> DuplexLink<Up, Down> {
    /// Creates a passthrough duplex link; the two directions draw from
    /// independent RNG substreams of `seed`.
    pub fn new(seed: u64) -> Self {
        DuplexLink {
            uplink: Link::new(seed.wrapping_mul(2).wrapping_add(1)),
            downlink: Link::new(seed.wrapping_mul(2).wrapping_add(2)),
        }
    }

    /// Applies the same fault configuration to both directions — the
    /// paper's loopback semantics.
    pub fn set_both(&mut self, config: NetemConfig) {
        self.uplink.set_config(config);
        self.downlink.set_config(config);
    }

    /// Registers both directions' latency histograms with a recorder,
    /// under `netem.uplink` and `netem.downlink`.
    pub fn attach_recorder(&mut self, recorder: &Recorder) {
        self.uplink.attach_recorder(recorder, UPLINK);
        self.downlink.attach_recorder(recorder, DOWNLINK);
    }

    /// Adds both directions' ledgers to the `netem.uplink.*` and
    /// `netem.downlink.*` counters of `recorder`. Called once, when the
    /// run ends.
    pub fn publish(&self, recorder: &Recorder) {
        self.uplink.stats().publish(recorder, UPLINK);
        self.downlink.stats().publish(recorder, DOWNLINK);
    }

    /// Attaches a causal tracer to both directions.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.uplink.attach_tracer(tracer);
        self.downlink.attach_tracer(tracer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PacketKind;
    use rdsim_units::{Millis, Ratio, SimDuration};

    fn video(seq: u64) -> Packet<()> {
        Packet::new(seq, PacketKind::Video, (), 1000)
    }

    #[test]
    fn send_receive_roundtrip() {
        let mut link = Link::new(1);
        link.send(video(1), SimTime::from_millis(5));
        let out = link.receive(SimTime::from_millis(5));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].sent_at, SimTime::from_millis(5));
        assert_eq!(link.stats().enqueued, 1);
        assert_eq!(link.stats().dequeued, 1);
    }

    #[test]
    fn delay_sets_delivery_latency() {
        let mut link = Link::with_config(NetemConfig::default().with_delay(Millis::new(50.0)), 1);
        link.send(video(1), SimTime::ZERO);
        link.send(video(2), SimTime::ZERO);
        assert_eq!(link.in_flight(), 2);
        let now = SimTime::from_millis(50);
        let out = link.receive(now);
        assert_eq!(out.len(), 2);
        assert!(out
            .iter()
            .all(|p| p.latency_at(now) == SimDuration::from_millis(50)));
    }

    #[test]
    fn loss_reflected_in_stats() {
        let mut link = Link::with_config(NetemConfig::default().with_loss(Ratio::ONE), 1);
        for seq in 0..10 {
            link.send(video(seq), SimTime::ZERO);
        }
        assert!(link.receive(SimTime::from_secs(1)).is_empty());
        assert_eq!(link.stats().enqueued, 10);
        assert_eq!(link.stats().dropped, 10);
        assert_eq!(link.stats().dequeued, 0);
    }

    #[test]
    fn duplex_bidirectional_faults() {
        let mut duplex = DuplexLink::new(9);
        duplex.set_both(NetemConfig::default().with_delay(Millis::new(25.0)));
        duplex.uplink.send(video(1), SimTime::ZERO);
        duplex
            .downlink
            .send(Packet::new(1, PacketKind::Command, 0.5, 1), SimTime::ZERO);
        // Both directions experience the delay.
        assert!(duplex.uplink.receive(SimTime::from_millis(20)).is_empty());
        assert!(duplex.downlink.receive(SimTime::from_millis(20)).is_empty());
        assert_eq!(duplex.uplink.receive(SimTime::from_millis(25)).len(), 1);
        assert_eq!(duplex.downlink.receive(SimTime::from_millis(25)).len(), 1);
    }

    #[test]
    fn duplex_directions_use_independent_randomness() {
        let mut duplex = DuplexLink::new(9);
        duplex.set_both(NetemConfig::default().with_loss(Ratio::from_percent(50.0)));
        let n = 2000;
        for seq in 0..n {
            duplex.uplink.send(video(seq), SimTime::ZERO);
            duplex
                .downlink
                .send(Packet::new(seq, PacketKind::Command, (), 8), SimTime::ZERO);
        }
        let up = duplex.uplink.receive(SimTime::from_secs(1));
        let down = duplex.downlink.receive(SimTime::from_secs(1));
        // Same loss probability, but different realisations.
        let up_set: Vec<u64> = up.iter().map(|p| p.seq).collect();
        let down_set: Vec<u64> = down.iter().map(|p| p.seq).collect();
        assert_ne!(up_set, down_set);
    }

    #[test]
    fn recorder_captures_delivery_latency() {
        let registry = rdsim_obs::Registry::new();
        let recorder = registry.recorder();
        let mut duplex: DuplexLink<(), ()> = DuplexLink::new(4);
        duplex.attach_recorder(&recorder);
        duplex.set_both(NetemConfig::default().with_delay(Millis::new(50.0)));
        duplex.uplink.send(video(1), SimTime::ZERO);
        duplex.uplink.receive(SimTime::from_millis(50));
        assert!(
            registry.snapshot().counters.is_empty(),
            "counters wait for publish"
        );
        duplex.publish(&recorder);
        let t = registry.snapshot();
        let h = t.histogram("netem.uplink.latency_us").expect("registered");
        assert_eq!(h.count, 1);
        assert_eq!(h.min, 50_000, "50 ms in µs");
        assert_eq!(t.counter("netem.uplink.enqueued"), 1);
        assert_eq!(t.counter("netem.uplink.dequeued"), 1);
        assert!(
            t.histogram("netem.downlink.latency_us").unwrap().is_empty(),
            "nothing sent downlink"
        );
    }

    #[test]
    fn per_leg_stamps_decompose_delivery_latency() {
        // delay 50 ms + 8 Mbit/s rate: 1000 B serializes in 1 ms, so the
        // second packet queues behind the first. For every delivery,
        // queued + propagation must equal release − sent_at exactly.
        let cfg = NetemConfig::default()
            .with_delay(Millis::new(50.0))
            .with_rate(8_000_000);
        let mut link = Link::with_config(cfg, 3);
        link.send(video(1), SimTime::ZERO);
        link.send(video(2), SimTime::ZERO);
        let out = link.receive(SimTime::from_secs(1));
        assert_eq!(out.len(), 2);
        for p in &out {
            assert!(p.queued > SimDuration::ZERO, "rate limiter queues");
            assert_eq!(p.propagation, SimDuration::from_millis(50));
        }
        assert_eq!(out[0].queued, SimDuration::from_millis(1));
        assert_eq!(out[1].queued, SimDuration::from_millis(2));

        // Passthrough link: both legs zero.
        let mut plain = Link::new(5);
        plain.send(video(3), SimTime::from_millis(7));
        let got = plain.receive(SimTime::from_millis(7));
        assert_eq!(got[0].queued, SimDuration::ZERO);
        assert_eq!(got[0].propagation, SimDuration::ZERO);
    }

    #[test]
    fn reorder_and_duplicate_tallies_surface_on_link() {
        let cfg = NetemConfig::default()
            .with_delay(Millis::new(40.0))
            .with_reorder(Ratio::ONE, 1);
        let mut link = Link::with_config(cfg, 11);
        assert_eq!(link.stats().reordered, 0);
        link.send(video(1), SimTime::ZERO);
        assert_eq!(link.stats().reordered, 1, "gap-1 p=1 reorders every packet");
        let out = link.receive(SimTime::ZERO);
        assert_eq!(out.len(), 1, "reordered packet jumped the delay");
        assert_eq!(
            out[0].propagation,
            SimDuration::ZERO,
            "jump bypasses the delay draw"
        );

        let mut dup = Link::with_config(NetemConfig::default().with_duplicate(Ratio::ONE), 12);
        dup.send(video(1), SimTime::ZERO);
        assert_eq!(dup.stats().duplicated, 1);
    }
}
