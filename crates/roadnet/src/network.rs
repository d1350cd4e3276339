//! The road network: a collection of lanes plus spatial queries.

use crate::{Lane, LaneId, LanePosition};
use rdsim_math::{Pose2, Vec2};
use rdsim_units::Meters;
use serde::{Deserialize, Serialize};

/// Result of projecting a world point onto a lane.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LaneProjection {
    /// Lane and arc length of the closest centreline point.
    pub position: LanePosition,
    /// Signed lateral offset from the centreline (positive = left of travel).
    pub lateral: Meters,
    /// Absolute distance from the query point to the centreline.
    pub distance: Meters,
}

/// A labelled location where actors can be placed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpawnPoint {
    /// Human-readable label (e.g. `"following-start"`).
    pub name: String,
    /// The lane and arc length of the spawn location.
    pub lane: LaneId,
    /// Arc length along the lane.
    pub s: Meters,
}

/// An immutable collection of lanes forming a drivable map.
///
/// Construct with [`crate::RoadNetworkBuilder`] or use the built-in
/// [`crate::town05`] map.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoadNetwork {
    name: String,
    lanes: Vec<Lane>,
    spawn_points: Vec<SpawnPoint>,
}

impl RoadNetwork {
    pub(crate) fn from_parts(
        name: String,
        lanes: Vec<Lane>,
        spawn_points: Vec<SpawnPoint>,
    ) -> Self {
        RoadNetwork {
            name,
            lanes,
            spawn_points,
        }
    }

    /// The map's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// All lanes.
    pub fn lanes(&self) -> &[Lane] {
        &self.lanes
    }

    /// Looks up a lane by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this network.
    pub fn lane(&self, id: LaneId) -> &Lane {
        self.get_lane(id)
            .unwrap_or_else(|| panic!("{id} not in network '{}'", self.name))
    }

    /// Looks up a lane by id, returning `None` for unknown ids.
    pub fn get_lane(&self, id: LaneId) -> Option<&Lane> {
        self.lanes.get(id.0 as usize).filter(|l| l.id() == id)
    }

    /// Labelled spawn points.
    pub fn spawn_points(&self) -> &[SpawnPoint] {
        &self.spawn_points
    }

    /// Finds a spawn point by name.
    pub fn spawn_point(&self, name: &str) -> Option<&SpawnPoint> {
        self.spawn_points.iter().find(|sp| sp.name == name)
    }

    /// World pose of a lane position.
    pub fn pose_at(&self, pos: LanePosition) -> Pose2 {
        self.lane(pos.lane).pose_at(pos.s)
    }

    /// Projects a world point onto a specific lane.
    pub fn project_onto_lane(&self, lane: LaneId, point: Vec2) -> LaneProjection {
        let (s, lateral, distance) = self.lane(lane).centerline().project(point);
        LaneProjection {
            position: LanePosition::new(lane, s),
            lateral,
            distance,
        }
    }

    /// Projects a world point onto the nearest lane (by centreline
    /// distance) among all lanes.
    ///
    /// Returns `None` only for an empty network.
    ///
    /// Lanes are scanned in id order keeping the first strictly-smaller
    /// distance, with whole-lane bounding boxes pruning lanes that
    /// provably cannot beat the running best — an exact skip (see
    /// [`crate::Polyline::distance_lower_bound_sq`]), so the result is
    /// bit-identical to projecting onto every lane.
    pub fn project(&self, point: Vec2) -> Option<LaneProjection> {
        self.scan(self.lanes.iter(), None, point)
    }

    /// [`project`](Self::project) warm-started from `seed`, typically the
    /// lane the point was nearest to a moment ago. The distance to `seed`
    /// bounds the pruning from the first lane on; a lane pruned against it
    /// is strictly farther than the nearest lane, so the result is still
    /// the first minimal lane in id order — bit-identical to `project`.
    ///
    /// # Panics
    ///
    /// Panics if `seed` does not belong to this network.
    pub fn project_from(&self, seed: LaneId, point: Vec2) -> Option<LaneProjection> {
        let seed = self.project_onto_lane(seed, point);
        self.scan(self.lanes.iter(), Some(seed), point)
    }

    /// Projects onto the nearest of `candidates`; used by the lane-keeping
    /// logic to avoid snapping to far-away lanes at junctions. Same exact
    /// bounding-box pruning and first-minimal tie-break as
    /// [`project`](Self::project).
    pub fn project_among(&self, candidates: &[LaneId], point: Vec2) -> Option<LaneProjection> {
        self.scan(candidates.iter().map(|&id| self.lane(id)), None, point)
    }

    /// The one lane scan behind every nearest-lane query: keeps the first
    /// strictly-smaller distance, skipping lanes whose bounding box lies
    /// farther than the smaller of the running best and `seed` (a
    /// projection onto one of `lanes`, reused when the scan reaches it).
    fn scan<'a>(
        &self,
        lanes: impl Iterator<Item = &'a Lane>,
        seed: Option<LaneProjection>,
        point: Vec2,
    ) -> Option<LaneProjection> {
        let mut bound = seed.map_or(f64::INFINITY, |s| s.distance.get());
        let mut best: Option<LaneProjection> = None;
        for lane in lanes {
            if lane.centerline().distance_lower_bound_sq(point) * crate::polyline::PRUNE_SLACK
                > bound * bound
            {
                continue;
            }
            let proj = match seed {
                Some(s) if s.position.lane == lane.id() => s,
                _ => self.project_onto_lane(lane.id(), point),
            };
            if best.is_none_or(|b| proj.distance.get() < b.distance.get()) {
                bound = bound.min(proj.distance.get());
                best = Some(proj);
            }
        }
        best
    }

    /// Walks `distance` metres forward from `pos`, following the first
    /// successor at each lane end. Returns the final position, or the lane
    /// end if the network runs out of successors.
    pub fn advance(&self, pos: LanePosition, distance: Meters) -> LanePosition {
        let mut lane = self.lane(pos.lane);
        let mut s = pos.s + distance;
        loop {
            let len = lane.length();
            if s <= len {
                return LanePosition::new(lane.id(), s.max(Meters::ZERO));
            }
            match lane.successors().first() {
                Some(&next) => {
                    s -= len;
                    lane = self.lane(next);
                }
                None => return LanePosition::new(lane.id(), len),
            }
        }
    }

    /// Longitudinal gap from `from` to `to` measured along lanes, following
    /// first successors, up to `max_search` metres. Returns `None` if `to`
    /// is not ahead of `from` within the horizon.
    pub fn gap_along(
        &self,
        from: LanePosition,
        to: LanePosition,
        max_search: Meters,
    ) -> Option<Meters> {
        let mut lane = self.lane(from.lane);
        let mut travelled = -from.s.get();
        let mut visited = 0usize;
        loop {
            if lane.id() == to.lane {
                let gap = travelled + to.s.get();
                if gap >= 0.0 && gap <= max_search.get() {
                    return Some(Meters::new(gap));
                }
                // `to` is behind `from` on the same lane; keep following in
                // case the lane loops back around.
            }
            travelled += lane.length().get();
            if travelled > max_search.get() {
                return None;
            }
            visited += 1;
            if visited > self.lanes.len() + 1 {
                return None;
            }
            match lane.successors().first() {
                Some(&next) => lane = self.lane(next),
                None => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LaneKind, Polyline, RoadNetworkBuilder};
    use rdsim_units::MetersPerSecond;

    fn two_lane_net() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new("test");
        let a = b.add_lane(
            LaneKind::Driving,
            Polyline::straight(Vec2::ZERO, Vec2::new(100.0, 0.0), Meters::new(2.0)),
            Meters::new(3.5),
            MetersPerSecond::from_kmh(50.0),
        );
        let c = b.add_lane(
            LaneKind::Driving,
            Polyline::straight(
                Vec2::new(100.0, 0.0),
                Vec2::new(200.0, 0.0),
                Meters::new(2.0),
            ),
            Meters::new(3.5),
            MetersPerSecond::from_kmh(50.0),
        );
        b.connect(a, c);
        b.add_spawn_point("start", a, Meters::new(5.0));
        b.build()
    }

    #[test]
    fn lookup_and_spawn() {
        let net = two_lane_net();
        assert_eq!(net.name(), "test");
        assert_eq!(net.lane_count(), 2);
        let sp = net.spawn_point("start").unwrap();
        assert_eq!(sp.s, Meters::new(5.0));
        assert!(net.spawn_point("nope").is_none());
        assert!(net.get_lane(LaneId(99)).is_none());
    }

    #[test]
    fn project_nearest() {
        let net = two_lane_net();
        let proj = net.project(Vec2::new(150.0, 1.0)).unwrap();
        assert_eq!(proj.position.lane, LaneId(1));
        assert!((proj.position.s.get() - 50.0).abs() < 1e-9);
        assert!((proj.lateral.get() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn advance_across_lanes() {
        let net = two_lane_net();
        let pos = net.advance(
            LanePosition::new(LaneId(0), Meters::new(90.0)),
            Meters::new(30.0),
        );
        assert_eq!(pos.lane, LaneId(1));
        assert!((pos.s.get() - 20.0).abs() < 1e-9);
        // Past the end of the last lane: clamps to its end.
        let end = net.advance(
            LanePosition::new(LaneId(1), Meters::new(90.0)),
            Meters::new(500.0),
        );
        assert_eq!(end.lane, LaneId(1));
        assert!((end.s.get() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn gap_along_lanes() {
        let net = two_lane_net();
        let from = LanePosition::new(LaneId(0), Meters::new(80.0));
        let to = LanePosition::new(LaneId(1), Meters::new(10.0));
        let gap = net.gap_along(from, to, Meters::new(100.0)).unwrap();
        assert!((gap.get() - 30.0).abs() < 1e-9);
        // Behind: not found.
        assert!(net.gap_along(to, from, Meters::new(50.0)).is_none());
        // Horizon too short.
        assert!(net.gap_along(from, to, Meters::new(10.0)).is_none());
    }

    #[test]
    fn project_among_restricts() {
        let net = two_lane_net();
        let p = Vec2::new(150.0, 0.0);
        let proj = net.project_among(&[LaneId(0)], p).unwrap();
        assert_eq!(proj.position.lane, LaneId(0));
        assert!((proj.position.s.get() - 100.0).abs() < 1e-9);
        assert!(net.project_among(&[], p).is_none());
    }

    /// Brute-force reference for [`RoadNetwork::project`]: projects onto
    /// every lane in id order, keeping the first strictly-smaller distance.
    fn project_every_lane(net: &RoadNetwork, p: Vec2) -> Option<LaneProjection> {
        let mut best: Option<LaneProjection> = None;
        for lane in net.lanes() {
            let proj = net.project_onto_lane(lane.id(), p);
            if best.is_none_or(|b| proj.distance.get() < b.distance.get()) {
                best = Some(proj);
            }
        }
        best
    }

    fn bits(p: Option<LaneProjection>) -> Option<(LaneId, u64, u64, u64)> {
        p.map(|p| {
            (
                p.position.lane,
                p.position.s.get().to_bits(),
                p.lateral.get().to_bits(),
                p.distance.get().to_bits(),
            )
        })
    }

    /// Random points over the town05 bounding box (with a margin), plus a
    /// fixed grid around every lane joint and every ring-corner centre,
    /// where equal distances to several lanes are likely.
    fn town05_probe_points() -> Vec<Vec2> {
        let net = crate::town05();
        let mut rng = rdsim_math::RngStream::from_seed(0x9e0_7a0e);
        let mut points: Vec<Vec2> = (0..4_000)
            .map(|_| {
                Vec2::new(
                    rng.uniform_range(-120.0, 720.0),
                    rng.uniform_range(-70.0, 470.0),
                )
            })
            .collect();
        let mut anchors: Vec<Vec2> = Vec::new();
        for lane in net.lanes() {
            let pts = lane.centerline().points();
            anchors.push(pts[0]);
            anchors.push(pts[pts.len() - 1]);
        }
        anchors.extend([
            Vec2::new(600.0, 50.0),
            Vec2::new(600.0, 350.0),
            Vec2::new(0.0, 350.0),
            Vec2::new(0.0, 50.0),
        ]);
        for a in anchors {
            for i in -24..=24 {
                for j in -24..=24 {
                    points.push(a + Vec2::new(f64::from(i) * 0.25, f64::from(j) * 0.25));
                }
            }
        }
        points
    }

    #[test]
    fn project_matches_every_lane_oracle_bit_for_bit() {
        let net = crate::town05();
        for p in town05_probe_points() {
            assert_eq!(
                bits(net.project(p)),
                bits(project_every_lane(&net, p)),
                "project({p})"
            );
        }
    }

    #[test]
    fn warm_started_project_matches_oracle_from_every_seed() {
        let net = crate::town05();
        for p in town05_probe_points() {
            let want = bits(project_every_lane(&net, p));
            for lane in net.lanes() {
                assert_eq!(
                    bits(net.project_from(lane.id(), p)),
                    want,
                    "project_from({}, {p})",
                    lane.id()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "not in network")]
    fn unknown_lane_panics() {
        let net = two_lane_net();
        let _ = net.lane(LaneId(42));
    }
}
