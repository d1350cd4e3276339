//! The perception stage: what the operator knows, and when.

use rdsim_core::ReceivedFrame;
use rdsim_simulator::WorldSnapshot;
use rdsim_units::{Seconds, SimDuration, SimTime};
use std::collections::VecDeque;
use std::sync::Arc;

/// A frame after it has passed through the subject's perception–reaction
/// latency and become actionable.
#[derive(Debug, Clone, PartialEq)]
pub struct PerceivedScene {
    /// The scene content, shared with the frame it arrived in.
    pub snapshot: Arc<WorldSnapshot>,
    /// When the camera captured it.
    pub captured_at: SimTime,
    /// When it reached the station.
    pub received_at: SimTime,
}

impl PerceivedScene {
    /// Age of the scene content at time `now` (capture → now) — the
    /// staleness that delay, loss and reaction time all add to.
    pub fn staleness(&self, now: SimTime) -> SimDuration {
        now.saturating_since(self.captured_at)
    }
}

/// Models the flow display → eyes → actionable percept.
///
/// Frames enter when delivered; each becomes *actionable* after the
/// subject's reaction latency. The newest actionable frame (by capture
/// order) wins; stale frames arriving late (reordered by jitter) never
/// replace a newer percept — matching both human vision and real video
/// pipelines.
#[derive(Debug, Clone)]
pub struct PerceptionState {
    reaction: SimDuration,
    pending: VecDeque<(SimTime, PerceivedScene)>,
    current: Option<PerceivedScene>,
    frames_seen: u64,
    bad_frames: u64,
    /// Largest capture-to-capture gap observed between consecutively
    /// displayed frames — the "frames being skipped" experience of loss.
    worst_display_gap: SimDuration,
    last_display_capture: Option<SimTime>,
    /// Sum of inter-display gaps beyond the nominal frame period,
    /// aggregated for QoE estimation.
    stutter_time: SimDuration,
}

/// Nominal frame period used for stutter accounting (25 fps floor).
const NOMINAL_FRAME_GAP: SimDuration = SimDuration::from_millis(40);

impl PerceptionState {
    /// Creates a perception stage with the given reaction latency.
    pub fn new(reaction: Seconds) -> Self {
        PerceptionState {
            reaction: SimDuration::from_secs_f64(reaction.get().max(0.0)),
            pending: VecDeque::new(),
            current: None,
            frames_seen: 0,
            bad_frames: 0,
            worst_display_gap: SimDuration::ZERO,
            last_display_capture: None,
            stutter_time: SimDuration::ZERO,
        }
    }

    /// Ingests a delivered frame.
    pub fn ingest(&mut self, frame: ReceivedFrame) {
        self.frames_seen += 1;
        // Track display continuity in capture time.
        if let Some(prev) = self.last_display_capture {
            if frame.captured_at > prev {
                let gap = frame.captured_at - prev;
                if gap > self.worst_display_gap {
                    self.worst_display_gap = gap;
                }
                self.stutter_time += gap.saturating_sub(NOMINAL_FRAME_GAP);
                self.last_display_capture = Some(frame.captured_at);
            }
            // Older frame than already displayed: ignored by the display.
        } else {
            self.last_display_capture = Some(frame.captured_at);
        }
        let available_at = frame.received_at + self.reaction;
        self.pending.push_back((
            available_at,
            PerceivedScene {
                snapshot: frame.snapshot,
                captured_at: frame.captured_at,
                received_at: frame.received_at,
            },
        ));
    }

    /// Notes a corrupted frame (decoder drop).
    pub fn note_bad_frame(&mut self) {
        self.bad_frames += 1;
    }

    /// Advances to `now`, promoting every percept whose reaction latency
    /// has elapsed; returns the current actionable percept, if any.
    pub fn percept(&mut self, now: SimTime) -> Option<&PerceivedScene> {
        while let Some((available_at, _)) = self.pending.front() {
            if *available_at > now {
                break;
            }
            let (_, scene) = self.pending.pop_front().expect("peeked");
            let newer = self
                .current
                .as_ref()
                .is_none_or(|c| scene.captured_at > c.captured_at);
            if newer {
                self.current = Some(scene);
            }
        }
        self.current.as_ref()
    }

    /// Frames ingested.
    pub fn frames_seen(&self) -> u64 {
        self.frames_seen
    }

    /// Corrupted frames noted.
    pub fn bad_frames(&self) -> u64 {
        self.bad_frames
    }

    /// Worst capture-time gap between displayed frames.
    pub fn worst_display_gap(&self) -> SimDuration {
        self.worst_display_gap
    }

    /// Accumulated stutter (display gaps beyond the nominal period).
    pub fn stutter_time(&self) -> SimDuration {
        self.stutter_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(id: u64, captured_ms: u64, received_ms: u64) -> ReceivedFrame {
        ReceivedFrame {
            snapshot: Arc::new(WorldSnapshot {
                time: SimTime::from_millis(captured_ms),
                frame_id: id,
                ..WorldSnapshot::default()
            }),
            captured_at: SimTime::from_millis(captured_ms),
            received_at: SimTime::from_millis(received_ms),
        }
    }

    #[test]
    fn reaction_latency_gates_percepts() {
        let mut p = PerceptionState::new(Seconds::new(0.5));
        p.ingest(frame(0, 0, 10));
        assert!(p.percept(SimTime::from_millis(509)).is_none());
        let scene = p.percept(SimTime::from_millis(510)).unwrap();
        assert_eq!(scene.snapshot.frame_id, 0);
    }

    #[test]
    fn newest_capture_wins() {
        let mut p = PerceptionState::new(Seconds::new(0.0));
        p.ingest(frame(1, 40, 50));
        p.ingest(frame(0, 0, 51)); // reordered late arrival
        let scene = p.percept(SimTime::from_millis(60)).unwrap();
        assert_eq!(scene.snapshot.frame_id, 1, "stale frame must not regress");
    }

    #[test]
    fn staleness_accumulates_with_delay() {
        let mut p = PerceptionState::new(Seconds::new(0.4));
        p.ingest(frame(0, 100, 150)); // 50 ms network delay
        let now = SimTime::from_millis(550);
        let scene = p.percept(now).unwrap().clone();
        assert_eq!(scene.staleness(now), SimDuration::from_millis(450));
    }

    #[test]
    fn display_gap_tracking() {
        let mut p = PerceptionState::new(Seconds::new(0.0));
        p.ingest(frame(0, 0, 5));
        p.ingest(frame(1, 40, 45));
        // Two frames lost: next displayed capture jumps 120 ms.
        p.ingest(frame(4, 160, 165));
        assert_eq!(p.worst_display_gap(), SimDuration::from_millis(120));
        // Stutter: (40-40) + (120-40) = 80 ms.
        assert_eq!(p.stutter_time(), SimDuration::from_millis(80));
        assert_eq!(p.frames_seen(), 3);
    }

    #[test]
    fn bad_frames_counted() {
        let mut p = PerceptionState::new(Seconds::new(0.2));
        p.note_bad_frame();
        p.note_bad_frame();
        assert_eq!(p.bad_frames(), 2);
    }

    #[test]
    fn no_percept_before_any_frame() {
        let mut p = PerceptionState::new(Seconds::new(0.2));
        assert!(p.percept(SimTime::from_secs(10)).is_none());
    }
}
