//! The camera sensor: produces video frames at 25–30 fps.

use crate::WorldSnapshot;
use rdsim_math::RngStream;
use rdsim_obs::{Histogram, Recorder};
use rdsim_units::{Hertz, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
/// Camera configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CameraConfig {
    /// Lower bound of the frame rate band.
    pub min_fps: Hertz,
    /// Upper bound of the frame rate band.
    pub max_fps: Hertz,
    /// Synthetic encoded-frame size in bytes (compressed-video stand-in).
    pub frame_bytes: usize,
}

impl Default for CameraConfig {
    /// The paper's rig: "the video frame rate of the simulator was in the
    /// range of 25 to 30 frames per second", streamed at roughly the
    /// bitrate of a compressed WQHD feed.
    fn default() -> Self {
        CameraConfig {
            min_fps: Hertz::new(25.0),
            max_fps: Hertz::new(30.0),
            frame_bytes: 20_000,
        }
    }
}

impl CameraConfig {
    /// A fixed frame rate (no jitter), useful in tests.
    pub fn fixed(fps: Hertz, frame_bytes: usize) -> Self {
        CameraConfig {
            min_fps: fps,
            max_fps: fps,
            frame_bytes,
        }
    }
}

/// Wire bytes of a frame header: magic (4), version (1), checksum (4),
/// frame id (8), capture time (8), actor count (2) and ego flag (1).
const FRAME_HEADER_BYTES: usize = 28;

/// Wire bytes of one actor record: id (4), kind tag (1) and six `f64`s
/// (x, y, heading, speed, length, width).
const ACTOR_RECORD_BYTES: usize = 53;

/// Snapshots the camera keeps for reuse. Frames stay shared while they
/// are in flight or held by the operator, so the ring holds a few dozen
/// under the paper's worst fault; past this bound a capture allocates.
const RING_SLOTS: usize = 64;

/// A captured video frame: the scene plus capture and wire metadata.
///
/// The scene travels as one immutable shared snapshot from capture to
/// the operator's percept. The two lengths describe the frame as an
/// encoder would lay it out — a checksummed header and one record per
/// actor, padded with filler to [`CameraConfig::frame_bytes`] — so the
/// network emulator sizes and corrupts it like a real frame.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoFrame {
    /// Monotone frame id.
    pub frame_id: u64,
    /// Capture time.
    pub captured_at: SimTime,
    /// The scene as captured.
    pub snapshot: Arc<WorldSnapshot>,
    /// Bytes on the wire: the body padded to the configured frame size.
    pub wire_len: u32,
    /// Leading bytes a decoder validates: a 28-byte header and one
    /// 53-byte record per actor.
    pub body_len: u32,
}

/// Generates frames whenever the simulation clock passes the next capture
/// instant. Frame spacing is drawn uniformly from the configured fps band,
/// which reproduces the mild frame-time variability of the real rig.
#[derive(Debug)]
pub struct CameraSensor {
    config: CameraConfig,
    rng: RngStream,
    next_capture: SimTime,
    next_frame_id: u64,
    /// `codec.frame_bytes` histogram, present only while a live recorder
    /// is attached.
    frame_bytes: Option<Arc<Histogram>>,
    /// Snapshots of earlier captures, rewritten in place once unshared.
    ring: Vec<Arc<WorldSnapshot>>,
    /// Ring slot to try first: the oldest capture.
    ring_next: usize,
}

impl CameraSensor {
    /// Creates a camera; the first frame is captured at time zero.
    pub fn new(config: CameraConfig, rng: RngStream) -> Self {
        CameraSensor {
            config,
            rng,
            next_capture: SimTime::ZERO,
            next_frame_id: 0,
            frame_bytes: None,
            ring: Vec::new(),
            ring_next: 0,
        }
    }

    /// Attaches a recorder; subsequent captures record their wire size
    /// into `codec.frame_bytes`.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.frame_bytes = recorder
            .enabled()
            .then(|| recorder.histogram("codec.frame_bytes"));
    }

    /// The configuration.
    pub fn config(&self) -> &CameraConfig {
        &self.config
    }

    /// Number of frames captured so far.
    pub fn frames_captured(&self) -> u64 {
        self.next_frame_id
    }

    /// Time of the next capture.
    pub fn next_capture(&self) -> SimTime {
        self.next_capture
    }

    /// Captures zero or more frames up to time `now`. The caller provides
    /// the scene via `snapshot_fn`, which is invoked once per captured
    /// frame; the capture timestamp and frame id are stamped afterwards.
    ///
    /// In practice the world advances in 20 ms steps while frames are
    /// ~33–40 ms apart, so this returns zero or one frame per step.
    pub fn poll(
        &mut self,
        now: SimTime,
        mut snapshot_fn: impl FnMut() -> WorldSnapshot,
    ) -> Vec<VideoFrame> {
        // Capacity from the polled span × the rate band's upper edge, so
        // even a coarse catch-up poll fills without regrowing.
        let mut frames = Vec::with_capacity(self.frames_due(now));
        self.poll_into(now, |snap| *snap = snapshot_fn(), &mut frames);
        frames
    }

    /// [`poll`](Self::poll) with a caller-owned output: `scene` writes
    /// each captured scene into a recycled snapshot (reusing its `others`
    /// allocation), and the frames are appended to `out`. Once the ring
    /// has warmed up this captures without heap allocation.
    pub fn poll_into(
        &mut self,
        now: SimTime,
        mut scene: impl FnMut(&mut WorldSnapshot),
        out: &mut Vec<VideoFrame>,
    ) {
        while self.next_capture <= now {
            let captured_at = self.next_capture;
            let frame_id = self.next_frame_id;
            let snapshot = self.capture_snapshot(|snap| {
                scene(snap);
                snap.time = captured_at;
                snap.frame_id = frame_id;
            });
            let body_len = FRAME_HEADER_BYTES + snapshot.actor_count() * ACTOR_RECORD_BYTES;
            let wire_len = body_len.max(self.config.frame_bytes);
            if let Some(h) = &self.frame_bytes {
                h.record(wire_len as u64);
            }
            out.push(VideoFrame {
                frame_id,
                captured_at,
                snapshot,
                wire_len: wire_len as u32,
                body_len: body_len as u32,
            });
            self.next_frame_id += 1;
            let fps = self
                .rng
                .uniform_range(self.config.min_fps.get(), self.config.max_fps.get());
            let period = SimDuration::from_secs_f64(1.0 / fps.max(1e-3));
            self.next_capture += period.max(SimDuration::from_micros(1));
        }
    }

    /// Fills the oldest ring snapshot no frame still shares and returns a
    /// shared handle to it. While the ring warms up — or when every slot
    /// is still held — a fresh snapshot is allocated instead.
    fn capture_snapshot(&mut self, fill: impl FnOnce(&mut WorldSnapshot)) -> Arc<WorldSnapshot> {
        let n = self.ring.len();
        let free = (0..n)
            .map(|k| (self.ring_next + k) % n)
            .find(|&i| Arc::get_mut(&mut self.ring[i]).is_some());
        let slot = match free {
            Some(i) => i,
            None if n < RING_SLOTS => {
                self.ring.push(Arc::default());
                n
            }
            None => {
                // Every slot is still held: retire the oldest from the
                // ring (its holders keep it alive) and start a new one.
                self.ring[self.ring_next] = Arc::default();
                self.ring_next
            }
        };
        self.ring_next = (slot + 1) % self.ring.len();
        fill(Arc::get_mut(&mut self.ring[slot]).expect("slot is unshared"));
        Arc::clone(&self.ring[slot])
    }

    /// Upper bound on the frames one poll spanning up to `now` can
    /// produce: the polled duration × the band's maximum rate, plus the
    /// frame due exactly at `next_capture`.
    pub fn frames_due(&self, now: SimTime) -> usize {
        if self.next_capture > now {
            return 0;
        }
        let span = (now - self.next_capture).as_secs_f64();
        (span * self.config.max_fps.get()).ceil() as usize + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActorId, ActorKind, ActorSnapshot};
    use rdsim_math::{Pose2, Vec2};
    use rdsim_units::{Meters, MetersPerSecond, Radians};

    fn empty_snapshot() -> WorldSnapshot {
        WorldSnapshot::default()
    }

    fn scene(actors: u32) -> WorldSnapshot {
        let mk = |id: u32, kind| ActorSnapshot {
            id: ActorId(id),
            kind,
            pose: Pose2::new(Vec2::new(f64::from(id), 0.0), Radians::new(0.0)),
            speed: MetersPerSecond::new(10.0),
            length: Meters::new(4.6),
            width: Meters::new(1.85),
        };
        WorldSnapshot {
            ego: Some(mk(0, ActorKind::Ego)),
            others: (1..actors).map(|id| mk(id, ActorKind::Vehicle)).collect(),
            ..WorldSnapshot::default()
        }
    }

    fn camera(cfg: CameraConfig) -> CameraSensor {
        CameraSensor::new(cfg, RngStream::from_seed(5).substream("camera"))
    }

    #[test]
    fn captures_at_fixed_rate() {
        let mut cam = camera(CameraConfig::fixed(Hertz::new(25.0), 1000));
        // Step 1 s in 20 ms increments; expect 25 frames (t=0 inclusive).
        // Capacity = 1 s duration × 25 fps (+1 for the frame due at t=0).
        let mut frames = Vec::with_capacity(25 + 1);
        for k in 0..=50 {
            let now = SimTime::from_millis(k * 20);
            frames.extend(cam.poll(now, empty_snapshot));
        }
        assert_eq!(frames.len(), 26); // t = 0.00, 0.04, ..., 1.00
        assert_eq!(frames[0].frame_id, 0);
        assert_eq!(frames[25].frame_id, 25);
        assert_eq!(frames[25].captured_at, SimTime::from_secs(1));
        assert_eq!(cam.frames_captured(), 26);
    }

    #[test]
    fn frame_rate_band_respected() {
        let mut cam = camera(CameraConfig::default());
        // Capacity = 50 s polled × the band's 30 fps upper edge.
        let mut times = Vec::with_capacity(50 * 30);
        for k in 0..2500 {
            let now = SimTime::from_millis(k * 20);
            for f in cam.poll(now, empty_snapshot) {
                times.push(f.captured_at);
            }
        }
        assert!(times.len() > 1000, "≈27.5 fps over 50 s");
        for w in times.windows(2) {
            let gap = (w[1] - w[0]).as_millis_f64();
            assert!(
                (1000.0 / 30.0 - 1e-6..=1000.0 / 25.0 + 1e-6).contains(&gap),
                "inter-frame gap {gap} ms outside [33.3, 40]"
            );
        }
        let span = (times[times.len() - 1] - times[0]).as_secs_f64();
        let fps = (times.len() - 1) as f64 / span;
        assert!((25.0..=30.0).contains(&fps), "measured fps {fps}");
    }

    #[test]
    fn frames_are_stamped_and_sized_like_encoded_frames() {
        let mut cam = camera(CameraConfig::fixed(Hertz::new(30.0), 20_000));
        let frames = cam.poll(SimTime::ZERO, || scene(8));
        assert_eq!(frames.len(), 1);
        let f = &frames[0];
        assert_eq!((f.snapshot.frame_id, f.snapshot.time), (0, SimTime::ZERO));
        assert_eq!(f.snapshot.actor_count(), 8);
        // An 8-actor scene: 28 B header + 8 × 53 B records, padded.
        assert_eq!(f.body_len, 452);
        assert_eq!(f.wire_len, 20_000);
        // Unpadded when the scene outgrows the configured frame size.
        let mut small = camera(CameraConfig::fixed(Hertz::new(30.0), 100));
        let f = &small.poll(SimTime::ZERO, || scene(8))[0];
        assert_eq!((f.body_len, f.wire_len), (452, 452));
        let f = &small.poll(SimTime::from_secs(1), empty_snapshot)[0];
        assert_eq!((f.body_len, f.wire_len), (28, 100));
    }

    #[test]
    fn ring_reuses_released_snapshots_and_keeps_held_ones() {
        let mut cam = camera(CameraConfig::fixed(Hertz::new(25.0), 1_000));
        let mut frames = Vec::new();
        cam.poll_into(SimTime::ZERO, |s| *s = scene(3), &mut frames);
        let held = frames.pop().expect("first frame");
        // While `held` is shared, the next capture cannot rewrite it.
        cam.poll_into(SimTime::from_millis(40), |s| *s = scene(5), &mut frames);
        assert_eq!(held.snapshot.actor_count(), 3, "held frame unchanged");
        assert_eq!(held.snapshot.frame_id, 0);
        let second = Arc::as_ptr(&frames[0].snapshot);
        assert_ne!(Arc::as_ptr(&held.snapshot), second);
        // Released frames are rewritten in place, oldest first.
        let first = Arc::as_ptr(&held.snapshot);
        drop(held);
        frames.clear();
        cam.poll_into(SimTime::from_millis(80), |s| *s = scene(2), &mut frames);
        assert_eq!(Arc::as_ptr(&frames[0].snapshot), first);
        assert_eq!(frames[0].snapshot.frame_id, 2);
        assert_eq!(frames[0].snapshot.actor_count(), 2);
    }

    #[test]
    fn ring_stays_bounded_when_every_frame_is_held() {
        let mut cam = camera(CameraConfig::fixed(Hertz::new(25.0), 1_000));
        let held = cam.poll(SimTime::from_secs(10), empty_snapshot);
        assert_eq!(held.len(), 251);
        assert_eq!(cam.ring.len(), RING_SLOTS);
        let ids: Vec<u64> = held.iter().map(|f| f.snapshot.frame_id).collect();
        assert_eq!(ids, (0..251).collect::<Vec<_>>(), "no held frame rewritten");
    }

    #[test]
    fn no_capture_before_due() {
        let mut cam = camera(CameraConfig::fixed(Hertz::new(25.0), 100));
        assert_eq!(cam.poll(SimTime::ZERO, empty_snapshot).len(), 1);
        // Next frame due at 40 ms.
        assert!(cam
            .poll(SimTime::from_millis(39), empty_snapshot)
            .is_empty());
        assert_eq!(cam.next_capture(), SimTime::from_millis(40));
        assert_eq!(cam.poll(SimTime::from_millis(40), empty_snapshot).len(), 1);
    }

    #[test]
    fn coarse_poll_catches_up() {
        let mut cam = camera(CameraConfig::fixed(Hertz::new(25.0), 100));
        // Jumping 200 ms in one poll yields all missed frames.
        let frames = cam.poll(SimTime::from_millis(200), empty_snapshot);
        assert_eq!(frames.len(), 6); // t = 0, 40, ..., 200
    }
}
