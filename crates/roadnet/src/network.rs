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
    /// Index of the centreline segment holding the closest point — the
    /// hint that warm-starts the next projection of a nearby point.
    pub segment: u32,
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
        project_onto(self.lane(lane), None, point)
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

    /// [`project`](Self::project) warm-started from lane `seed` and, when
    /// known, its centreline `segment` — typically where the point was
    /// nearest a moment ago. The segment hint bounds the pruning inside
    /// the seed lane (see `Polyline::project_near`); the distance
    /// to `seed` bounds it from the first lane on. A lane pruned against
    /// it is strictly farther than the nearest lane, so the result is
    /// still the first minimal lane in id order — bit-identical to
    /// `project`.
    ///
    /// # Panics
    ///
    /// Panics if `seed` does not belong to this network.
    pub fn project_from(
        &self,
        seed: LaneId,
        segment: Option<u32>,
        point: Vec2,
    ) -> Option<LaneProjection> {
        let seed = project_onto(self.lane(seed), segment, point);
        self.scan(self.lanes.iter(), Some(seed), point)
    }

    /// Projects onto the nearest of `candidates`; used by the lane-keeping
    /// logic to avoid snapping to far-away lanes at junctions. Same exact
    /// bounding-box pruning and first-minimal tie-break (in `candidates`
    /// order) as [`project`](Self::project).
    ///
    /// `seed`, when given, must be the projection of `point` onto one of
    /// `candidates` (a cached nearest-lane projection, say); its distance
    /// then bounds the pruning from the first candidate on, and it is
    /// reused for its lane. The result is bit-identical to the unseeded
    /// call.
    pub fn project_among(
        &self,
        candidates: &[LaneId],
        seed: Option<LaneProjection>,
        point: Vec2,
    ) -> Option<LaneProjection> {
        debug_assert!(
            seed.is_none_or(|s| candidates.contains(&s.position.lane)),
            "the seed must project onto a candidate"
        );
        self.scan(candidates.iter().map(|&id| self.lane(id)), seed, point)
    }

    /// The one lane scan behind every nearest-lane query: keeps the first
    /// strictly-smaller distance, skipping lanes whose bounding box lies
    /// farther than the smaller of the running best and `seed` (a
    /// projection onto one of `lanes`, reused when the scan reaches it).
    /// Every bound is the distance of a real candidate, so a lane that
    /// ties with or beats the nearest one is never skipped, and its
    /// projection is exact.
    fn scan<'a>(
        &self,
        lanes: impl Iterator<Item = &'a Lane> + Clone,
        seed: Option<LaneProjection>,
        point: Vec2,
    ) -> Option<LaneProjection> {
        // Without a seed, the lane whose bounding box lies nearest supplies
        // one: any lane's projection is a real candidate, and this one
        // usually bounds the others tightly.
        let seed = seed.or_else(|| {
            let nearest_box = lanes.clone().min_by(|a, b| {
                let lower = |l: &Lane| l.centerline().distance_lower_bound_sq(point);
                lower(a).total_cmp(&lower(b))
            })?;
            Some(project_onto(nearest_box, None, point))
        });
        let mut bound = seed.map_or(f64::INFINITY, |s| s.distance.get());
        let mut best: Option<LaneProjection> = None;
        for lane in lanes {
            if crate::polyline::beyond(
                lane.centerline().distance_lower_bound_sq(point),
                bound * bound,
            ) {
                continue;
            }
            // A lane whose nearest point lies beyond the bound cannot win,
            // so its projection only needs to be exact within the bound.
            let proj = match seed {
                Some(s) if s.position.lane == lane.id() => s,
                _ => match project_within(lane, None, point, bound * bound) {
                    Some(proj) => proj,
                    None => continue,
                },
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

/// Projects onto `lane`, warm-started from centreline segment `hint`;
/// bit-identical for every hint (see `Polyline::project_near`).
fn project_onto(lane: &Lane, hint: Option<u32>, point: Vec2) -> LaneProjection {
    project_within(lane, hint, point, f64::INFINITY).expect("an unlimited scan visits a segment")
}

/// [`project_onto`] when only a projection within squared distance
/// `limit` matters; see [`crate::Polyline::project_within`].
fn project_within(
    lane: &Lane,
    hint: Option<u32>,
    point: Vec2,
    limit: f64,
) -> Option<LaneProjection> {
    let (s, lateral, distance, segment) =
        lane.centerline()
            .project_within(point, hint.map(|h| h as usize), limit)?;
    Some(LaneProjection {
        position: LanePosition::new(lane.id(), s),
        lateral,
        distance,
        segment: segment as u32,
    })
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
        let proj = net.project_among(&[LaneId(0)], None, p).unwrap();
        assert_eq!(proj.position.lane, LaneId(0));
        assert!((proj.position.s.get() - 100.0).abs() < 1e-9);
        assert!(net.project_among(&[], None, p).is_none());
    }

    /// Brute-force reference for [`RoadNetwork::project_among`]: projects
    /// onto every candidate in order, keeping the first strictly-smaller
    /// distance.
    fn project_every_candidate(
        net: &RoadNetwork,
        candidates: &[LaneId],
        p: Vec2,
    ) -> Option<LaneProjection> {
        let mut best: Option<LaneProjection> = None;
        for &lane in candidates {
            let proj = net.project_onto_lane(lane, p);
            if best.is_none_or(|b| proj.distance.get() < b.distance.get()) {
                best = Some(proj);
            }
        }
        best
    }

    /// Brute-force reference for [`RoadNetwork::project`]: every lane in
    /// id order.
    fn project_every_lane(net: &RoadNetwork, p: Vec2) -> Option<LaneProjection> {
        let all: Vec<LaneId> = net.lanes().iter().map(Lane::id).collect();
        project_every_candidate(net, &all, p)
    }

    type ProjectionBits = (LaneId, u64, u64, u64, u32);

    fn bits(p: Option<LaneProjection>) -> Option<ProjectionBits> {
        p.map(|p| {
            (
                p.position.lane,
                p.position.s.get().to_bits(),
                p.lateral.get().to_bits(),
                p.distance.get().to_bits(),
                p.segment,
            )
        })
    }

    /// Random points over the town05 bounding box (with a margin).
    fn town05_random_points() -> Vec<Vec2> {
        let mut rng = rdsim_math::RngStream::from_seed(0x9e0_7a0e);
        (0..4_000)
            .map(|_| {
                Vec2::new(
                    rng.uniform_range(-120.0, 720.0),
                    rng.uniform_range(-70.0, 470.0),
                )
            })
            .collect()
    }

    /// A fixed grid (`stride` × 0.25 m spacing over ±6 m) around every
    /// lane joint and every ring-corner centre, where equal distances to
    /// several lanes — and to several segments of one lane — are likely.
    fn town05_joint_and_corner_grid(stride: usize) -> Vec<Vec2> {
        let net = crate::town05();
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
        let mut points = Vec::new();
        for a in anchors {
            for i in (-24..=24).step_by(stride) {
                for j in (-24..=24).step_by(stride) {
                    points.push(a + Vec2::new(f64::from(i) * 0.25, f64::from(j) * 0.25));
                }
            }
        }
        points
    }

    fn town05_probe_points() -> Vec<Vec2> {
        let mut points = town05_random_points();
        points.extend(town05_joint_and_corner_grid(1));
        points
    }

    /// Candidate lists the way `project_among`'s callers build them: every
    /// lane forwards and backwards (so ties resolve in list order, not id
    /// order), and for each lane the lane-invasion sensor's re-anchoring
    /// set — the lane, its neighbours, its successors and theirs.
    fn candidate_sets(net: &RoadNetwork) -> Vec<Vec<LaneId>> {
        let all: Vec<LaneId> = net.lanes().iter().map(Lane::id).collect();
        let mut sets = vec![all.clone(), all.into_iter().rev().collect()];
        for lane in net.lanes() {
            let mut set = vec![lane.id()];
            set.extend(lane.left_neighbor());
            set.extend(lane.right_neighbor());
            for &succ in lane.successors() {
                set.push(succ);
                set.extend(net.lane(succ).left_neighbor());
                set.extend(net.lane(succ).right_neighbor());
            }
            sets.push(set);
        }
        sets
    }

    /// Asserts that `project_from` from every lane — unhinted and hinted
    /// with each segment `hints` picks for the lane — reproduces the
    /// every-lane oracle bit for bit.
    fn assert_project_from_exact(net: &RoadNetwork, p: Vec2, hints: impl Fn(&Lane) -> Vec<u32>) {
        let want = bits(project_every_lane(net, p));
        for lane in net.lanes() {
            let seeds = std::iter::once(None).chain(hints(lane).into_iter().map(Some));
            for segment in seeds {
                assert_eq!(
                    bits(net.project_from(lane.id(), segment, p)),
                    want,
                    "project_from({}, {segment:?}, {p})",
                    lane.id()
                );
            }
        }
    }

    /// Asserts that `project_among` over every candidate set, unseeded and
    /// seeded from each candidate's projection, reproduces the
    /// every-candidate oracle bit for bit.
    fn assert_project_among_exact(net: &RoadNetwork, sets: &[Vec<LaneId>], p: Vec2) {
        for set in sets {
            let want = bits(project_every_candidate(net, set, p));
            assert_eq!(
                bits(net.project_among(set, None, p)),
                want,
                "{set:?} at {p}"
            );
            for &lane in set {
                let seed = net.project_onto_lane(lane, p);
                assert_eq!(
                    bits(net.project_among(set, Some(seed), p)),
                    want,
                    "{set:?} seeded from {lane} at {p}"
                );
            }
        }
    }

    fn segment_count(lane: &Lane) -> u32 {
        (lane.centerline().points().len() - 1) as u32
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

    /// The default-run subsample of the full sweep below: every probe
    /// point from every lane, hinted with its first and last segment and
    /// one more that walks the lane from point to point; `project_among`
    /// on every seventh point.
    #[test]
    fn warm_started_project_matches_oracle_from_every_seed() {
        let net = crate::town05();
        let sets = candidate_sets(&net);
        for (k, p) in town05_probe_points().into_iter().enumerate() {
            assert_project_from_exact(&net, p, |lane| {
                let n = segment_count(lane);
                vec![0, k as u32 % n, n - 1]
            });
            if k % 7 == 0 {
                assert_project_among_exact(&net, &sets, p);
            }
        }
    }

    /// The full sweep (~33M calls; run with `--include-ignored` in
    /// release): the joint and corner grids seeded from every
    /// `(lane, segment)`, and `project_among` on every probe point.
    #[test]
    #[ignore = "full sweep; run in release with --include-ignored"]
    fn warm_started_project_matches_oracle_from_every_segment() {
        let net = crate::town05();
        for p in town05_joint_and_corner_grid(3) {
            assert_project_from_exact(&net, p, |lane| (0..segment_count(lane)).collect());
        }
        let sets = candidate_sets(&net);
        for p in town05_probe_points() {
            assert_project_among_exact(&net, &sets, p);
        }
    }

    #[test]
    #[should_panic(expected = "not in network")]
    fn unknown_lane_panics() {
        let net = two_lane_net();
        let _ = net.lane(LaneId(42));
    }
}
