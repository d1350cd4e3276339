//! The NETEM queuing discipline and its per-direction decision ledger.

use crate::{LossConfig, NetemConfig, Packet};
use rdsim_math::RngStream;
use rdsim_obs::{Recorder, TraceStage, Tracer};
use rdsim_units::{SimDuration, SimTime};
use std::collections::BinaryHeap;

/// The decision ledger of one link direction: every qdisc outcome, counted
/// once where [`NetemQdisc`] decides it. Telemetry, the session timeline and
/// the fault-window accounting all read this one ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Packets offered to the qdisc.
    pub enqueued: u64,
    /// Packets (duplicate copies included) released to the receiver.
    pub dequeued: u64,
    /// Packets discarded by the loss model.
    pub dropped: u64,
    /// Packets, or duplicate copies, tail-dropped by a full finite queue
    /// (congestion), disjoint from the loss-model `dropped`.
    pub queue_dropped: u64,
    /// Duplicate copies queued.
    pub duplicated: u64,
    /// Packets with a bit flipped by the corruption model.
    pub corrupted: u64,
    /// Packets that jumped the delay queue (reorder faults).
    pub reordered: u64,
}

impl LinkStats {
    /// Adds every field to the `<prefix>.<field>` counter of `recorder`,
    /// zeros included, so a run registers the same counter set whatever
    /// its faults.
    pub(crate) fn publish(&self, recorder: &Recorder, prefix: &str) {
        for (name, value) in [
            ("enqueued", self.enqueued),
            ("dequeued", self.dequeued),
            ("dropped", self.dropped),
            ("queue_dropped", self.queue_dropped),
            ("duplicated", self.duplicated),
            ("corrupted", self.corrupted),
            ("reordered", self.reordered),
        ] {
            recorder.counter(&format!("{prefix}.{name}")).add(value);
        }
    }
}

/// An entry in the delay queue, ordered by `(release, tiebreak)`.
#[derive(Debug, Clone)]
struct QueueEntry<P> {
    release: SimTime,
    /// Monotone enqueue counter: makes the ordering total and stable.
    tiebreak: u64,
    packet: Packet<P>,
}

impl<P> PartialEq for QueueEntry<P> {
    fn eq(&self, other: &Self) -> bool {
        (self.release, self.tiebreak) == (other.release, other.tiebreak)
    }
}

impl<P> Eq for QueueEntry<P> {}

impl<P> Ord for QueueEntry<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for a min-heap on (release, tiebreak).
        other
            .release
            .cmp(&self.release)
            .then(other.tiebreak.cmp(&self.tiebreak))
    }
}

impl<P> PartialOrd for QueueEntry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The NETEM discipline: applies the active [`NetemConfig`] to every
/// enqueued packet.
///
/// Semantics follow `tc-netem(8)`:
///
/// * **loss** — the packet is discarded. `Random` loss supports first-order
///   correlation; `GilbertElliott` is a two-state Markov burst model.
/// * **duplicate** — the packet is queued twice (the copy marked
///   [`Packet::duplicate`]).
/// * **corrupt** — a single random byte of the wire layout is hit; its
///   offset is recorded in [`Packet::corrupt_at`] (the payload itself is
///   never touched; receivers check [`Packet::damaged`]).
/// * Every other decision reads only the packet's metadata, so the
///   payload type `P` is opaque to the discipline.
/// * **delay** — release time = enqueue time + base ± jitter. Correlated
///   jitter uses a first-order autoregressive mix, like netem. Note that
///   jitter may reorder packets relative to send order — exactly as real
///   NETEM behaves without the `reorder` option.
/// * **reorder** — with the configured probability a packet bypasses the
///   delay entirely (sent immediately), the classic `reorder 25% 50%`
///   behaviour.
/// * **rate** — packets acquire serialisation delay `wire_len·8/rate` and
///   queue behind previously serialised packets.
#[derive(Debug)]
pub struct NetemQdisc<P> {
    config: NetemConfig,
    rng: RngStream,
    heap: BinaryHeap<QueueEntry<P>>,
    counter: u64,
    /// Previous correlated-jitter sample, in [-1, 1].
    prev_jitter: f64,
    /// Previous correlated-loss sample, in [0, 1).
    prev_loss: f64,
    /// Gilbert–Elliott state: `true` = bad.
    ge_bad: bool,
    /// Busy-until time of the rate limiter.
    rate_busy_until: SimTime,
    /// Reorder gap counter.
    reorder_count: u32,
    /// Queue capacity in packets, resolved from the active config
    /// ([`NetemConfig::effective_limit`]) so the enqueue hot path never
    /// recomputes the BDP. `None` = unbounded (the historical default).
    effective_limit: Option<u32>,
    /// Every decision made so far.
    stats: LinkStats,
    /// Per-packet decision tracer (null unless attached): annotates every
    /// enqueue/drop/corrupt/duplicate/reorder/deliver decision with the
    /// affected packet's [`Packet::trace_id`].
    tracer: Tracer,
}

impl<P: Clone> NetemQdisc<P> {
    /// Creates a passthrough qdisc with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        NetemQdisc::with_config(NetemConfig::passthrough(), seed)
    }

    /// Creates a qdisc with an initial configuration.
    pub fn with_config(config: NetemConfig, seed: u64) -> Self {
        NetemQdisc {
            config,
            rng: RngStream::from_seed(seed).substream("netem-qdisc"),
            heap: BinaryHeap::new(),
            counter: 0,
            prev_jitter: 0.0,
            prev_loss: 0.0,
            ge_bad: false,
            rate_busy_until: SimTime::ZERO,
            reorder_count: 0,
            effective_limit: config.effective_limit(),
            stats: LinkStats::default(),
            tracer: Tracer::null(),
        }
    }

    /// Attaches a causal tracer: every qdisc decision is then recorded
    /// against the affected packet's trace id, with the packet's metadata
    /// word ([`Packet::trace_arg`]) as the event detail. Attaching a null
    /// tracer detaches.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
    }

    /// Reserves delay-queue capacity for at least `packets` in-flight
    /// packets, so steady-state enqueues never grow the heap. Called by
    /// session preallocation; a no-op once the capacity exists.
    pub fn reserve(&mut self, packets: usize) {
        self.heap.reserve(packets.saturating_sub(self.heap.len()));
    }

    /// The active configuration.
    pub fn config(&self) -> &NetemConfig {
        &self.config
    }

    /// Replaces the active configuration (equivalent to
    /// `tc qdisc change`). Queued packets keep their release times, like
    /// real netem. Removing the rate limiter also forgets its
    /// serialization backlog — as deleting a tbf would — so a later rule
    /// with a fresh rate starts from an idle link.
    pub fn set_config(&mut self, config: NetemConfig) {
        self.config = config;
        self.effective_limit = config.effective_limit();
        if config.rate.is_none() {
            self.rate_busy_until = SimTime::ZERO;
        }
    }

    /// The decision ledger so far.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    fn draw_loss(&mut self) -> bool {
        match self.config.loss {
            None => false,
            Some(LossConfig::Random {
                probability,
                correlation,
            }) => {
                // First-order autoregressive correlation, like netem.
                let fresh = self.rng.uniform();
                let value = correlation.get() * self.prev_loss + (1.0 - correlation.get()) * fresh;
                self.prev_loss = value;
                value < probability.get()
            }
            Some(LossConfig::GilbertElliott {
                p,
                r,
                loss_in_bad,
                loss_in_good,
            }) => {
                // Advance the Markov chain, then draw loss in-state.
                if self.ge_bad {
                    if self.rng.bernoulli(r.get()) {
                        self.ge_bad = false;
                    }
                } else if self.rng.bernoulli(p.get()) {
                    self.ge_bad = true;
                }
                let p_loss = if self.ge_bad {
                    loss_in_bad.get()
                } else {
                    loss_in_good.get()
                };
                self.rng.bernoulli(p_loss)
            }
        }
    }

    fn draw_delay(&mut self) -> SimDuration {
        match self.config.delay {
            None => SimDuration::ZERO,
            Some(d) => {
                let jitter_ms = if d.jitter.get() > 0.0 {
                    let fresh = self.rng.uniform_range(-1.0, 1.0);
                    let sample = d.correlation.get() * self.prev_jitter
                        + (1.0 - d.correlation.get()) * fresh;
                    self.prev_jitter = sample;
                    d.jitter.get() * sample
                } else {
                    0.0
                };
                let total_ms = (d.base.get() + jitter_ms).max(0.0);
                SimDuration::from_secs_f64(total_ms * 1e-3)
            }
        }
    }

    fn maybe_corrupt(&mut self, packet: &mut Packet<P>, now: SimTime) {
        if let Some(p) = self.config.corrupt {
            if packet.wire_len > 0 && self.rng.bernoulli(p.get()) {
                let byte = self.rng.uniform_usize(packet.wire_len as usize);
                // The bit index is drawn and discarded: which bit of the
                // byte flips never matters to a receiver, but the draw
                // order is frozen by the digest contract.
                let _bit = self.rng.uniform_usize(8);
                packet.corrupt_at = Some(byte as u32);
                self.stats.corrupted += 1;
                self.tracer.record(
                    packet.trace_id(),
                    TraceStage::NetemCorrupt,
                    now.as_micros(),
                    packet.trace_arg(),
                );
            }
        }
    }

    fn push(&mut self, packet: Packet<P>, release: SimTime) {
        self.counter += 1;
        self.heap.push(QueueEntry {
            release,
            tiebreak: self.counter,
            packet,
        });
    }

    /// Offers a packet to the discipline at simulation time `now`.
    ///
    /// Returns the number of queue entries created (0 if the packet was
    /// dropped by a loss fault or a full queue, 2 if a duplication fault
    /// copied it).
    pub fn enqueue(&mut self, mut packet: Packet<P>, now: SimTime) -> usize {
        self.stats.enqueued += 1;
        self.tracer.record(
            packet.trace_id(),
            TraceStage::NetemEnqueue,
            now.as_micros(),
            packet.trace_arg(),
        );
        if self.draw_loss() {
            self.stats.dropped += 1;
            self.tracer.record(
                packet.trace_id(),
                TraceStage::NetemDrop,
                now.as_micros(),
                packet.trace_arg(),
            );
            return 0;
        }
        let mut duplicate = match self.config.duplicate {
            Some(p) => self.rng.bernoulli(p.get()),
            None => false,
        };
        self.maybe_corrupt(&mut packet, now);

        // Finite queue: tail-drop at capacity. Runs after the loss /
        // duplicate / corrupt draws (their RNG order is frozen by the
        // digest contract) and before the rate limiter, so a dropped
        // packet never occupies serialization time.
        if let Some(limit) = self.effective_limit {
            let free = (limit as usize).saturating_sub(self.heap.len());
            if free == 0 || (duplicate && free < 2) {
                self.stats.queue_dropped += 1;
                if free == 0 {
                    self.tracer.record(
                        packet.trace_id(),
                        TraceStage::NetemQueueDrop,
                        now.as_micros(),
                        packet.trace_arg(),
                    );
                    return 0;
                }
                // Room for the original only: the copy is congestion-
                // dropped before it is created, like netem's duplicate
                // respecting `limit`. No trace event — the copy never
                // existed as an artifact.
                duplicate = false;
            }
        }

        // Rate limiting: serialisation occupies the link sequentially.
        let mut base_time = now;
        if let Some(rate) = self.config.rate {
            let start = now.max(self.rate_busy_until);
            let busy = start + rate.serialization_time(packet.wire_len as usize);
            self.rate_busy_until = busy;
            base_time = busy;
        }

        // Reorder: candidate packets (every `gap`-th) jump the delay queue.
        let mut jumped = false;
        if let Some(reorder) = self.config.reorder {
            self.reorder_count += 1;
            if self.reorder_count >= reorder.gap {
                self.reorder_count = 0;
                if self.rng.bernoulli(reorder.probability.get()) {
                    jumped = true;
                    self.stats.reordered += 1;
                    self.tracer.record(
                        packet.trace_id(),
                        TraceStage::NetemReorder,
                        now.as_micros(),
                        packet.trace_arg(),
                    );
                }
            }
        }

        let delay = if jumped {
            SimDuration::ZERO
        } else {
            self.draw_delay()
        };
        let release = base_time + delay;
        // Per-leg stamps for the timeline's glass-to-glass decomposition:
        // queue wait (rate-limiter serialization) and propagation (the
        // delay draw). A duplicate clone inherits both, since it shares
        // the original's release time.
        packet.queued = base_time.saturating_since(now);
        packet.propagation = delay;

        let mut entries = 1usize;
        if duplicate {
            let mut copy = packet.clone();
            copy.duplicate = true;
            self.stats.duplicated += 1;
            self.tracer.record(
                copy.trace_id(),
                TraceStage::NetemDuplicate,
                now.as_micros(),
                copy.trace_arg(),
            );
            // Netem sends the duplicate immediately after the original.
            self.push(copy, release);
            entries += 1;
        }
        self.push(packet, release);
        entries
    }

    /// Removes and returns every packet whose release time is `<= now`,
    /// in release order. The per-step datapath uses the allocation-free
    /// [`dequeue_into`](Self::dequeue_into) instead.
    pub fn dequeue(&mut self, now: SimTime) -> Vec<Packet<P>> {
        let mut out = Vec::new();
        self.dequeue_into(now, &mut out);
        out
    }

    /// Appends every packet whose release time is `<= now` to `out`, in
    /// release order. Allocation-free when `out` has spare capacity.
    pub fn dequeue_into(&mut self, now: SimTime, out: &mut Vec<Packet<P>>) {
        let start = out.len();
        while let Some(top) = self.heap.peek() {
            if top.release > now {
                break;
            }
            out.push(self.heap.pop().expect("peeked").packet);
        }
        self.stats.dequeued += (out.len() - start) as u64;
        if self.tracer.enabled() {
            for p in &out[start..] {
                self.tracer.record(
                    p.trace_id(),
                    TraceStage::NetemDeliver,
                    now.as_micros(),
                    p.latency_at(now).as_micros(),
                );
            }
        }
    }

    /// Number of packets currently queued.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Release time of the earliest queued packet, if any.
    pub fn next_release(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.release)
    }

    /// Drops all queued packets (used when tearing a link down).
    pub fn clear(&mut self) {
        self.heap.clear();
        // Tearing the link down idles the rate limiter too; leaving
        // `rate_busy_until` in the future would leak serialization
        // backlog into whatever rule is installed next.
        self.rate_busy_until = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PacketKind;
    use rdsim_units::{Millis, Ratio};

    fn pkt(seq: u64) -> Packet<()> {
        Packet::new(seq, PacketKind::Command, (), 64)
    }

    fn drain_all<P: Clone>(q: &mut NetemQdisc<P>) -> Vec<Packet<P>> {
        q.dequeue(SimTime::from_secs(3600))
    }

    #[test]
    fn passthrough_delivers_immediately() {
        let mut q = NetemQdisc::new(1);
        let t = SimTime::from_millis(10);
        assert_eq!(q.enqueue(pkt(0), t), 1);
        let out = q.dequeue(t);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].seq, 0);
        assert!(q.is_empty());
    }

    #[test]
    fn fixed_delay_releases_on_time() {
        let mut q =
            NetemQdisc::with_config(NetemConfig::default().with_delay(Millis::new(50.0)), 1);
        q.enqueue(pkt(0), SimTime::ZERO);
        assert!(q.dequeue(SimTime::from_millis(49)).is_empty());
        assert_eq!(q.next_release(), Some(SimTime::from_millis(50)));
        let out = q.dequeue(SimTime::from_millis(50));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn delay_preserves_fifo_without_jitter() {
        let mut q =
            NetemQdisc::with_config(NetemConfig::default().with_delay(Millis::new(25.0)), 1);
        for seq in 0..20 {
            q.enqueue(pkt(seq), SimTime::from_millis(seq));
        }
        let out = drain_all(&mut q);
        let seqs: Vec<u64> = out.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn loss_rate_statistical() {
        let mut q = NetemQdisc::with_config(
            NetemConfig::default().with_loss(Ratio::from_percent(5.0)),
            42,
        );
        let n = 20_000u64;
        let mut delivered = 0u64;
        for seq in 0..n {
            delivered += q.enqueue(pkt(seq), SimTime::ZERO) as u64;
        }
        let loss_rate = 1.0 - delivered as f64 / n as f64;
        assert!((loss_rate - 0.05).abs() < 0.01, "measured loss {loss_rate}");
        assert_eq!(q.stats().dropped, n - delivered);
    }

    #[test]
    fn correlated_loss_produces_bursts() {
        let config = NetemConfig {
            loss: Some(LossConfig::Random {
                probability: Ratio::from_percent(20.0),
                correlation: Ratio::from_percent(90.0),
            }),
            ..NetemConfig::default()
        };
        let mut q = NetemQdisc::with_config(config, 3);
        let n = 50_000;
        let mut outcomes = Vec::with_capacity(n);
        for seq in 0..n {
            outcomes.push(q.enqueue(pkt(seq as u64), SimTime::ZERO) == 0);
        }
        // Mean burst length of consecutive losses must exceed the
        // independent-loss expectation (≈ 1 / (1 − p) = 1.25).
        let mut bursts = Vec::new();
        let mut run = 0usize;
        for &lost in &outcomes {
            if lost {
                run += 1;
            } else if run > 0 {
                bursts.push(run);
                run = 0;
            }
        }
        if run > 0 {
            bursts.push(run);
        }
        let mean_burst: f64 = bursts.iter().sum::<usize>() as f64 / bursts.len() as f64;
        assert!(
            mean_burst > 1.5,
            "correlated loss should burst; mean burst {mean_burst}"
        );
    }

    #[test]
    fn gilbert_elliott_long_run_rate() {
        let config = NetemConfig::default().with_gemodel_loss(
            Ratio::new(0.05),
            Ratio::new(0.05),
            Ratio::new(0.8),
            Ratio::ZERO,
        );
        let mut q = NetemQdisc::with_config(config, 9);
        let n = 100_000u64;
        let mut dropped = 0u64;
        for seq in 0..n {
            if q.enqueue(pkt(seq), SimTime::ZERO) == 0 {
                dropped += 1;
            }
        }
        let rate = dropped as f64 / n as f64;
        // Stationary: 0.5 * 0.8 = 0.4.
        assert!((rate - 0.4).abs() < 0.02, "measured {rate}");
    }

    #[test]
    fn duplication_creates_marked_copies() {
        let mut q = NetemQdisc::with_config(
            NetemConfig::default().with_duplicate(Ratio::from_percent(100.0)),
            5,
        );
        assert_eq!(q.enqueue(pkt(7), SimTime::ZERO), 2);
        let out = drain_all(&mut q);
        assert_eq!(out.len(), 2);
        assert_eq!(out.iter().filter(|p| p.duplicate).count(), 1);
        assert!(out.iter().all(|p| p.seq == 7));
        assert_eq!(q.stats().duplicated, 1);
    }

    #[test]
    fn corruption_records_one_offset_below_wire_len() {
        let config = NetemConfig::default()
            .with_corrupt(Ratio::ONE)
            .with_duplicate(Ratio::ONE);
        let mut q = NetemQdisc::with_config(config, 5);
        let mut offsets = Vec::new();
        for seq in 0..200 {
            q.enqueue(Packet::new(seq, PacketKind::Video, seq, 40), SimTime::ZERO);
            let out = drain_all(&mut q);
            assert_eq!(out.len(), 2, "original plus duplicate");
            let at = out[0].corrupt_at.expect("corrupt 100% hits every packet");
            assert!(at < 40, "offset {at} inside the wire layout");
            assert_eq!(
                out[1].corrupt_at,
                Some(at),
                "the duplicate inherits the hit"
            );
            assert!(out.iter().all(|p| p.payload == seq), "payload untouched");
            offsets.push(at);
        }
        assert_eq!(q.stats().corrupted, 200, "one hit per packet, not per copy");
        // The byte index is uniform over the wire layout.
        assert!(offsets.iter().any(|&at| at < 4) && offsets.iter().any(|&at| at >= 36));
    }

    #[test]
    fn corruption_skips_zero_length_packet() {
        let mut q = NetemQdisc::with_config(NetemConfig::default().with_corrupt(Ratio::ONE), 5);
        q.enqueue(Packet::new(0, PacketKind::Qos, (), 0), SimTime::ZERO);
        let out = drain_all(&mut q);
        assert_eq!(out[0].corrupt_at, None);
        assert_eq!(q.stats().corrupted, 0);
    }

    #[test]
    fn jitter_stays_within_band() {
        let config = NetemConfig::default().with_jittered_delay(
            Millis::new(50.0),
            Millis::new(10.0),
            Ratio::ZERO,
        );
        let mut q = NetemQdisc::with_config(config, 11);
        for seq in 0..1000 {
            q.enqueue(pkt(seq), SimTime::ZERO);
        }
        while let Some(release) = q.next_release() {
            let ms = release.as_secs_f64() * 1e3;
            assert!(
                (40.0 - 1e-9..=60.0 + 1e-9).contains(&ms),
                "release {ms} ms outside 50±10"
            );
            q.dequeue(release);
        }
    }

    #[test]
    fn jitter_can_reorder_like_real_netem() {
        let config = NetemConfig::default().with_jittered_delay(
            Millis::new(20.0),
            Millis::new(15.0),
            Ratio::ZERO,
        );
        let mut q = NetemQdisc::with_config(config, 13);
        for seq in 0..200 {
            // 1 ms apart — jitter of ±15 ms will scramble them.
            q.enqueue(pkt(seq), SimTime::from_millis(seq));
        }
        let out = drain_all(&mut q);
        let seqs: Vec<u64> = out.iter().map(|p| p.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..200).collect::<Vec<_>>(), "nothing lost");
        assert_ne!(seqs, sorted, "jitter should reorder");
    }

    #[test]
    fn reorder_option_sends_candidates_immediately() {
        let config = NetemConfig::default()
            .with_delay(Millis::new(100.0))
            .with_reorder(Ratio::ONE, 1);
        let mut q = NetemQdisc::with_config(config, 17);
        q.enqueue(pkt(0), SimTime::ZERO);
        // With probability 1 and gap 1, the packet bypasses the delay.
        let out = q.dequeue(SimTime::ZERO);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn reorder_gap_spares_non_candidates() {
        let config = NetemConfig::default()
            .with_delay(Millis::new(100.0))
            .with_reorder(Ratio::ONE, 5);
        let mut q = NetemQdisc::with_config(config, 17);
        for seq in 0..5 {
            q.enqueue(pkt(seq), SimTime::ZERO);
        }
        // Only every 5th packet is a candidate: exactly one jumps.
        let immediate = q.dequeue(SimTime::ZERO);
        assert_eq!(immediate.len(), 1);
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn rate_limit_spaces_packets() {
        // 1 Mbit/s, 125-byte packets → 1 ms serialisation each.
        let config = NetemConfig::default().with_rate(1_000_000);
        let mut q = NetemQdisc::with_config(config, 19);
        for seq in 0..5 {
            q.enqueue(Packet::new(seq, PacketKind::Video, (), 125), SimTime::ZERO);
        }
        let mut releases = Vec::new();
        while let Some(r) = q.next_release() {
            releases.push(r.as_secs_f64() * 1e3);
            q.dequeue(r);
        }
        let expected = [1.0, 2.0, 3.0, 4.0, 5.0];
        for (got, want) in releases.iter().zip(expected) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    }

    #[test]
    fn rate_limiter_idles_down() {
        let config = NetemConfig::default().with_rate(1_000_000);
        let mut q = NetemQdisc::with_config(config, 19);
        q.enqueue(Packet::new(0, PacketKind::Video, (), 125), SimTime::ZERO);
        drain_all(&mut q);
        // A packet arriving much later is not queued behind the stale
        // busy-until time.
        let late = SimTime::from_secs(10);
        q.enqueue(Packet::new(1, PacketKind::Video, (), 125), late);
        assert_eq!(q.next_release(), Some(late + SimDuration::from_millis(1)));
    }

    #[test]
    fn set_config_keeps_queued_packets() {
        let mut q =
            NetemQdisc::with_config(NetemConfig::default().with_delay(Millis::new(50.0)), 1);
        q.enqueue(pkt(0), SimTime::ZERO);
        q.set_config(NetemConfig::passthrough());
        assert_eq!(q.len(), 1);
        assert!(q.dequeue(SimTime::from_millis(49)).is_empty());
        assert_eq!(q.dequeue(SimTime::from_millis(50)).len(), 1);
    }

    #[test]
    fn clear_drops_everything() {
        let mut q =
            NetemQdisc::with_config(NetemConfig::default().with_delay(Millis::new(50.0)), 1);
        for seq in 0..10 {
            q.enqueue(pkt(seq), SimTime::ZERO);
        }
        q.clear();
        assert!(q.is_empty());
        assert!(drain_all(&mut q).is_empty());
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let config = NetemConfig::default()
            .with_jittered_delay(Millis::new(30.0), Millis::new(10.0), Ratio::new(0.3))
            .with_loss(Ratio::from_percent(10.0));
        let run = |seed| {
            let mut q = NetemQdisc::with_config(config, seed);
            let mut log = Vec::new();
            for seq in 0..500 {
                q.enqueue(pkt(seq), SimTime::from_millis(seq));
            }
            while let Some(r) = q.next_release() {
                for p in q.dequeue(r) {
                    log.push((r.as_micros(), p.seq));
                }
            }
            log
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }

    #[test]
    fn ledger_counts_decisions_and_publishes_them() {
        let config = NetemConfig::default()
            .with_loss(Ratio::from_percent(30.0))
            .with_duplicate(Ratio::from_percent(30.0))
            .with_corrupt(Ratio::from_percent(30.0));
        let mut q = NetemQdisc::with_config(config, 21);
        let n = 2_000u64;
        for seq in 0..n {
            q.enqueue(pkt(seq), SimTime::ZERO);
        }
        let delivered = drain_all(&mut q).len() as u64;
        let s = q.stats();
        assert_eq!(s.enqueued, n);
        assert_eq!(s.dequeued, delivered);
        assert_eq!(delivered, n - s.dropped + s.duplicated);
        assert!(s.dropped > 0 && s.duplicated > 0 && s.corrupted > 0);

        let registry = rdsim_obs::Registry::new();
        s.publish(&registry.recorder(), "netem.test");
        let t = registry.snapshot();
        assert_eq!(t.counter("netem.test.enqueued"), n);
        assert_eq!(t.counter("netem.test.dequeued"), delivered);
        assert_eq!(t.counter("netem.test.dropped"), s.dropped);
        assert_eq!(t.counter("netem.test.duplicated"), s.duplicated);
        assert_eq!(t.counter("netem.test.corrupted"), s.corrupted);
        assert_eq!(t.counters.len(), 7, "zeros are published too");
        assert_eq!(t.counters.get("netem.test.reordered"), Some(&0));
    }

    #[test]
    fn tracer_annotates_decisions_with_packet_metadata() {
        use rdsim_obs::{ArtifactKind, TraceStage, Tracer};
        let tracer = Tracer::with_capacity(16_384);
        let config = NetemConfig::default()
            .with_delay(Millis::new(10.0))
            .with_loss(Ratio::from_percent(25.0))
            .with_duplicate(Ratio::from_percent(25.0))
            .with_corrupt(Ratio::from_percent(25.0));
        let mut q = NetemQdisc::with_config(config, 9);
        q.attach_tracer(&tracer);
        let n = 500u64;
        for seq in 0..n {
            q.enqueue(pkt(seq), SimTime::from_millis(seq));
        }
        let delivered = drain_all(&mut q);
        let log = tracer.log();
        let count =
            |stage: TraceStage| log.events.iter().filter(|e| e.stage == stage).count() as u64;
        assert_eq!(count(TraceStage::NetemEnqueue), n, "every packet enters");
        assert_eq!(count(TraceStage::NetemDrop), q.stats().dropped);
        assert_eq!(count(TraceStage::NetemDuplicate), q.stats().duplicated);
        assert_eq!(count(TraceStage::NetemCorrupt), q.stats().corrupted);
        assert_eq!(count(TraceStage::NetemDeliver), delivered.len() as u64);
        assert!(q.stats().dropped > 0 && q.stats().duplicated > 0 && q.stats().corrupted > 0);
        // Annotations carry the packet's metadata word: duplicate deliveries
        // have bit 33 set, and every enqueue arg's low 32 bits are the
        // wire length of our fixed test packet.
        let dup_seq = delivered.iter().find(|p| p.duplicate).expect("dup").seq;
        assert!(log
            .lineage(rdsim_obs::TraceId::new(ArtifactKind::Command, dup_seq))
            .iter()
            .any(|e| e.stage == TraceStage::NetemDuplicate && (e.arg >> 33) & 1 == 1));
        let wire_len = u64::from(pkt(0).wire_len);
        assert!(log
            .events
            .iter()
            .filter(|e| e.stage == TraceStage::NetemEnqueue)
            .all(|e| e.arg & 0xFFFF_FFFF == wire_len));
        // Deliver args are the experienced latency in µs (≥ base delay).
        assert!(log
            .events
            .iter()
            .filter(|e| e.stage == TraceStage::NetemDeliver)
            .all(|e| e.arg >= 10_000));
    }

    #[test]
    fn clear_resets_rate_limiter_backlog() {
        // 64 kbit/s ⇒ a 64-byte packet serializes in 8 ms.
        let mut q = NetemQdisc::with_config(NetemConfig::default().with_rate(64_000), 9);
        for seq in 0..10 {
            q.enqueue(pkt(seq), SimTime::ZERO);
        }
        // Backlog: the 10th packet releases at 80 ms.
        assert_eq!(q.next_release(), Some(SimTime::from_millis(8)));
        q.clear();
        assert!(q.is_empty());
        // Regression: a fresh packet after clear() must serialize from an
        // idle link, not behind the pre-teardown backlog.
        q.enqueue(pkt(99), SimTime::ZERO);
        assert_eq!(q.next_release(), Some(SimTime::from_millis(8)));
    }

    #[test]
    fn removing_the_rate_forgets_the_backlog() {
        let mut q = NetemQdisc::with_config(NetemConfig::default().with_rate(64_000), 9);
        for seq in 0..10 {
            q.enqueue(pkt(seq), SimTime::ZERO);
        }
        // Fault teardown swaps in passthrough; a later rate rule starts
        // from an idle link.
        q.set_config(NetemConfig::passthrough());
        drain_all(&mut q);
        q.set_config(NetemConfig::default().with_rate(64_000));
        q.enqueue(pkt(99), SimTime::from_millis(1));
        assert_eq!(q.next_release(), Some(SimTime::from_millis(9)));
    }

    #[test]
    fn tail_drop_caps_queue_and_is_deterministic() {
        let config = NetemConfig::default().with_rate(64_000).with_limit(4);
        let run = || {
            let mut q = NetemQdisc::with_config(config, 21);
            let mut peak = 0usize;
            for seq in 0..20 {
                q.enqueue(pkt(seq), SimTime::ZERO);
                peak = peak.max(q.len());
            }
            let survivors: Vec<u64> = drain_all(&mut q).iter().map(|p| p.seq).collect();
            (peak, q.stats().queue_dropped, survivors)
        };
        let (peak, dropped, survivors) = run();
        assert!(peak <= 4, "queue length never exceeds the limit");
        assert_eq!(dropped, 16);
        assert_eq!(survivors, vec![0, 1, 2, 3], "tail drop keeps the head");
        // Loss-model drops stay zero: congestion is a separate ledger.
        assert_eq!(run().1, dropped, "deterministic under a fixed seed");
        assert_eq!(run().2, survivors);
    }

    #[test]
    fn bdp_limit_applies_without_explicit_limit() {
        // 1 Mbit/s × 50 ms ⇒ 2×BDP / 1500 B = ⌈8.3⌉, floored to 16.
        let config = NetemConfig::default()
            .with_delay(Millis::new(50.0))
            .with_rate(1_000_000);
        let limit = config.effective_limit().expect("rate implies a limit") as usize;
        let mut q = NetemQdisc::with_config(config, 5);
        for seq in 0..3 * limit as u64 {
            q.enqueue(pkt(seq), SimTime::ZERO);
            assert!(q.len() <= limit);
        }
        assert_eq!(q.len(), limit);
        assert_eq!(q.stats().queue_dropped, 2 * limit as u64);
        assert_eq!(q.stats().dropped, 0, "no loss-model drops involved");
    }

    #[test]
    fn duplicate_copy_respects_the_limit() {
        // duplicate 100%: each packet wants 2 slots. limit 3 ⇒ the second
        // packet's copy is congestion-dropped, the third packet entirely.
        let config = NetemConfig::default()
            .with_duplicate(Ratio::ONE)
            .with_limit(3);
        let mut q = NetemQdisc::with_config(config, 7);
        assert_eq!(q.enqueue(pkt(0), SimTime::ZERO), 2);
        assert_eq!(q.enqueue(pkt(1), SimTime::ZERO), 1, "copy suppressed");
        assert_eq!(q.enqueue(pkt(2), SimTime::ZERO), 0, "queue full");
        assert_eq!(q.len(), 3);
        assert_eq!(q.stats().queue_dropped, 2);
        assert_eq!(q.stats().duplicated, 1, "only the stored copy counts");
    }

    /// Wilson score interval for `k` successes in `n` trials at ~99.9%
    /// confidence (z = 3.29).
    fn wilson_ci(k: u64, n: u64) -> (f64, f64) {
        let z = 3.29f64;
        let n = n as f64;
        let p = k as f64 / n;
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let centre = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        (centre - half, centre + half)
    }

    #[test]
    fn gilbert_elliott_stationary_rate_matches_closed_form() {
        // Stationary bad-state occupancy is p/(p+r); with loss 1 in bad
        // and 0 in good the stationary loss rate is exactly that.
        let p = Ratio::new(0.05);
        let r = Ratio::new(0.20);
        let config: NetemConfig = "loss gemodel 5% 20% 100% 0%".parse().unwrap();
        assert_eq!(
            config.loss,
            Some(LossConfig::GilbertElliott {
                p,
                r,
                loss_in_bad: Ratio::ONE,
                loss_in_good: Ratio::ZERO,
            })
        );
        let predicted = config.loss.unwrap().average_rate().get();
        assert!((predicted - 0.05 / 0.25).abs() < 1e-12);
        let n = 200_000u64;
        let mut q = NetemQdisc::with_config(config, 1234);
        for seq in 0..n {
            q.enqueue(pkt(seq), SimTime::from_millis(seq));
        }
        let (lo, hi) = wilson_ci(q.stats().dropped, n);
        assert!(
            (lo..=hi).contains(&predicted),
            "closed-form {predicted} outside Wilson CI [{lo}, {hi}] \
             (empirical {})",
            q.stats().dropped as f64 / n as f64
        );
    }
}
