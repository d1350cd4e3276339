//! Wire layout of driving commands (operator → vehicle).
//!
//! Commands travel as typed values (`(seq, ControlInput)`), but the link
//! sizes and corrupts them as the small checksummed packets a real
//! teleoperation protocol sends: magic (4), version (1), checksum (4),
//! then a body of sequence number (8), throttle, brake and steer (3 × 8)
//! and the reverse and handbrake flags (2), padded with filler.

/// Size of a command packet on the wire. Real remote-driving command
/// packets are tens of bytes (CRC, sequence, timestamps, axes).
pub const COMMAND_PACKET_BYTES: usize = 64;

/// Leading bytes of a command packet its receiver validates: header,
/// checksum and body. A corruption hit past them lands in padding.
pub(crate) const COMMAND_BODY_BYTES: usize = 4 + 1 + 4 + 8 + 3 * 8 + 2;
