//! Seeded generator of the `open_road_trace` network trace.
//!
//! The trace imitates the shape of published teleoperation link
//! measurements (5G and ITS-G5 field traces): a slowly wandering one-way
//! delay of a few tens of milliseconds with jitter, occasional light loss,
//! and a throughput well above the camera stream most of the time. Every
//! 15–45 s a choke episode of 3–8 s drops the rate below the ≈4–4.5 Mbit/s
//! video stream and adds delay and loss, so the link's finite queue fills
//! and tail-drops. The text is the repository's trace CSV format and is
//! parsed by `TraceSchedule::parse` exactly as `repro --trace-in` parses a
//! file.

use rdsim_math::RngStream;
use std::fmt::Write as _;

/// Label of the generated trace; runs replaying it carry the campaign
/// condition `trace:choke`.
pub const TRACE_LABEL: &str = "choke";

/// Rate the choke episodes stay below: the camera stream's bitrate.
pub const VIDEO_KBIT: f64 = 4_300.0;

/// The trace for `seed`, one sample per second for `seconds` seconds, in
/// the `t,delay_ms,jitter_ms,loss_pct,rate_kbit` CSV format. The same seed
/// always gives the same text.
pub fn generate(seed: u64, seconds: u32) -> String {
    let mut rng = RngStream::from_seed(seed).substream("paperbench/choke-trace");
    let mut out = String::with_capacity(32 * seconds as usize + 128);
    let _ = writeln!(
        out,
        "# paperbench choke trace (seed {seed}): 1 Hz samples, choke episodes below {VIDEO_KBIT} kbit/s"
    );
    out.push_str("t,delay_ms,jitter_ms,loss_pct,rate_kbit\n");
    let mut base_delay = rng.uniform_range(20.0, 40.0);
    let mut next_choke = 10 + rng.uniform_usize(20) as u32;
    let mut choke_left = 0u32;
    for t in 0..seconds {
        if choke_left == 0 && t >= next_choke {
            choke_left = 3 + rng.uniform_usize(6) as u32;
            next_choke = t + choke_left + 15 + rng.uniform_usize(31) as u32;
        }
        base_delay = (base_delay + rng.normal(0.0, 2.0)).clamp(15.0, 60.0);
        let (delay, jitter, loss, rate) = if choke_left > 0 {
            choke_left -= 1;
            (
                base_delay + rng.uniform_range(20.0, 80.0),
                rng.uniform_range(5.0, 15.0),
                rng.uniform_range(0.5, 2.5),
                rng.uniform_range(1_200.0, 3_600.0),
            )
        } else {
            let loss = if rng.bernoulli(0.2) {
                rng.uniform_range(0.1, 0.5)
            } else {
                0.0
            };
            (
                base_delay,
                rng.uniform_range(1.0, 6.0),
                loss,
                rng.uniform_range(9_000.0, 20_000.0),
            )
        };
        let _ = writeln!(out, "{t},{delay:.1},{jitter:.1},{loss:.2},{rate:.0}");
    }
    out
}
