//! Packets carried across emulated links.

use rdsim_units::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// What a packet carries, mirroring the paper's RDS traffic classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PacketKind {
    /// A video frame from the vehicle subsystem to the operator station.
    Video,
    /// A driving command (steer/throttle/brake) from operator to vehicle.
    Command,
    /// A meta-command (weather, spawn, sensor config) — CARLA's second
    /// client-to-server stream.
    Meta,
    /// Quality-of-service telemetry.
    Qos,
}

impl fmt::Display for PacketKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PacketKind::Video => "video",
            PacketKind::Command => "command",
            PacketKind::Meta => "meta",
            PacketKind::Qos => "qos",
        };
        f.write_str(s)
    }
}

/// A packet in flight on an emulated link.
///
/// The payload is a typed value the link never reads: the qdisc decides
/// every fault from the packet's metadata alone. Two lengths describe
/// the packet's notional wire layout, both stamped by the sender, which
/// owns that layout: [`wire_len`](Self::wire_len) is what the link sees
/// (rate serialisation, trace annotations), and
/// [`body_len`](Self::body_len) is the prefix a receiver validates
/// (header, checksum and body, not padding). A corruption fault records
/// the offset of the byte it hit instead of flipping it, and
/// [`damaged`](Self::damaged) is the receiver's one corruption check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet<P> {
    /// Sender-assigned sequence number (unique per stream).
    pub seq: u64,
    /// Traffic class.
    pub kind: PacketKind,
    /// The typed value carried (a video frame's scene, a command).
    pub payload: P,
    /// Bytes the packet occupies on the link.
    pub wire_len: u32,
    /// Leading bytes of the wire layout a receiver validates; a corrupted
    /// byte past this prefix lands in padding and is harmless.
    pub body_len: u32,
    /// When the packet entered the link; set by [`crate::Link::send`].
    pub sent_at: SimTime,
    /// Offset of the byte a corruption fault hit, below `wire_len`.
    pub corrupt_at: Option<u32>,
    /// `true` if this packet is a duplicate created by a duplication fault.
    pub duplicate: bool,
    /// Time spent waiting behind the rate limiter (serialization queue),
    /// stamped by the qdisc on enqueue. Zero without a rate limit.
    pub queued: SimDuration,
    /// Propagation latency drawn by the delay model, stamped by the qdisc
    /// on enqueue. Zero without a delay rule (or when a reorder jump
    /// bypassed the delay draw).
    pub propagation: SimDuration,
}

impl<P> Packet<P> {
    /// Creates a packet of `wire_len` bytes whose every byte a receiver
    /// validates; [`with_body_len`](Self::with_body_len) narrows that to
    /// a prefix. `sent_at` is stamped by the link on send.
    pub fn new(seq: u64, kind: PacketKind, payload: P, wire_len: u32) -> Self {
        Packet {
            seq,
            kind,
            payload,
            wire_len,
            body_len: wire_len,
            sent_at: SimTime::ZERO,
            corrupt_at: None,
            duplicate: false,
            queued: SimDuration::ZERO,
            propagation: SimDuration::ZERO,
        }
    }

    /// Sets the validated prefix: corruption at or past `body_len` hits
    /// padding.
    pub fn with_body_len(mut self, body_len: u32) -> Self {
        self.body_len = body_len;
        self
    }

    /// `true` if a corruption fault hit a byte the receiver validates —
    /// the packet is rejected, as a checksum would reject it.
    pub fn damaged(&self) -> bool {
        self.corrupt_at.is_some_and(|at| at < self.body_len)
    }

    /// Latency experienced by the packet if delivered at `now`.
    pub fn latency_at(&self, now: SimTime) -> rdsim_units::SimDuration {
        now.saturating_since(self.sent_at)
    }

    /// The tracing identity of this packet: its traffic class mapped to
    /// an [`ArtifactKind`](rdsim_obs::ArtifactKind) plus the sender
    /// sequence number — minted at origin, so the same id stitches the
    /// qdisc's decisions to the endpoints' capture/display/actuate events.
    pub fn trace_id(&self) -> rdsim_obs::TraceId {
        let kind = match self.kind {
            PacketKind::Video => rdsim_obs::ArtifactKind::Frame,
            PacketKind::Command => rdsim_obs::ArtifactKind::Command,
            PacketKind::Meta => rdsim_obs::ArtifactKind::Meta,
            PacketKind::Qos => rdsim_obs::ArtifactKind::Qos,
        };
        rdsim_obs::TraceId::new(kind, self.seq)
    }

    /// The packet's metadata packed into the trace-annotation word:
    /// `wire_len` in the low 32 bits, a corrupted flag in bit 32, the
    /// `duplicate` flag in bit 33, and the send time (whole ms,
    /// saturating) in bits 34..=63.
    pub fn trace_arg(&self) -> u64 {
        let sent_ms = (self.sent_at.as_micros() / 1_000).min((1 << 30) - 1);
        u64::from(self.wire_len)
            | (u64::from(self.corrupt_at.is_some()) << 32)
            | (u64::from(self.duplicate) << 33)
            | (sent_ms << 34)
    }
}

impl<P> fmt::Display for Packet<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}#{} ({} B{}{})",
            self.kind,
            self.seq,
            self.wire_len,
            if self.corrupt_at.is_some() {
                ", corrupted"
            } else {
                ""
            },
            if self.duplicate { ", dup" } else { "" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdsim_units::SimDuration;

    #[test]
    fn construction_and_accessors() {
        let p = Packet::new(7, PacketKind::Video, "scene", 3);
        assert_eq!(p.seq, 7);
        assert_eq!(p.kind, PacketKind::Video);
        assert_eq!(p.payload, "scene");
        assert_eq!((p.wire_len, p.body_len), (3, 3));
        assert_eq!(p.corrupt_at, None);
        assert!(!p.damaged());
        assert!(!p.duplicate);
        assert_eq!(p.with_body_len(2).body_len, 2);
    }

    #[test]
    fn latency() {
        let mut p = Packet::new(1, PacketKind::Command, (), 1);
        p.sent_at = SimTime::from_millis(100);
        assert_eq!(
            p.latency_at(SimTime::from_millis(150)),
            SimDuration::from_millis(50)
        );
        // Before send time: saturates.
        assert_eq!(p.latency_at(SimTime::from_millis(50)), SimDuration::ZERO);
    }

    #[test]
    fn trace_id_follows_kind_and_seq() {
        use rdsim_obs::ArtifactKind;
        let cases = [
            (PacketKind::Video, ArtifactKind::Frame),
            (PacketKind::Command, ArtifactKind::Command),
            (PacketKind::Meta, ArtifactKind::Meta),
            (PacketKind::Qos, ArtifactKind::Qos),
        ];
        for (pk, ak) in cases {
            let p = Packet::new(42, pk, (), 4);
            assert_eq!(p.trace_id().kind(), ak);
            assert_eq!(p.trace_id().seq(), 42);
        }
    }

    #[test]
    fn trace_arg_packs_metadata_fields() {
        let mut p = Packet::new(1, PacketKind::Video, (), 300);
        p.sent_at = SimTime::from_millis(250);
        assert_eq!(p.trace_arg() & 0xFFFF_FFFF, 300, "wire length");
        assert_eq!((p.trace_arg() >> 32) & 1, 0);
        assert_eq!((p.trace_arg() >> 33) & 1, 0);
        assert_eq!(p.trace_arg() >> 34, 250, "send time in ms");
        p.corrupt_at = Some(299);
        p.duplicate = true;
        assert_eq!((p.trace_arg() >> 32) & 1, 1, "corrupted flag");
        assert_eq!((p.trace_arg() >> 33) & 1, 1, "duplicate flag");
    }

    #[test]
    fn damaged_iff_the_corrupt_byte_is_validated() {
        let mut p = Packet::new(0, PacketKind::Video, (), 100).with_body_len(40);
        for at in 0..p.wire_len {
            p.corrupt_at = Some(at);
            assert_eq!(p.damaged(), at < 40, "offset {at}");
        }
    }

    #[test]
    fn display_forms() {
        let mut p = Packet::new(3, PacketKind::Meta, (), 10);
        assert_eq!(format!("{p}"), "meta#3 (10 B)");
        p.corrupt_at = Some(4);
        p.duplicate = true;
        assert_eq!(format!("{p}"), "meta#3 (10 B, corrupted, dup)");
        assert_eq!(format!("{}", PacketKind::Video), "video");
        assert_eq!(format!("{}", PacketKind::Qos), "qos");
    }
}
