//! Arc-length-parameterised polylines for lane centrelines.

use rdsim_math::{Pose2, Vec2};
use rdsim_units::{Meters, Radians};
use serde::{Deserialize, Serialize};

/// Segments per pruning chunk of the projection index.
const CHUNK: usize = 16;

/// Segments per sub-box, the index's second level: a chunk whose box
/// survives pruning scans only its surviving sub-boxes.
const SUB: usize = 4;

/// Sub-boxes per chunk.
const SUBS_PER_CHUNK: usize = CHUNK / SUB;

/// Skip margin for the exact pruning in [`Polyline::project`]: a box or
/// lane is only skipped when its box lower bound exceeds the pruning
/// threshold by more than this relative slack, which conservatively
/// absorbs the few-ulp rounding of the bound and candidate arithmetic.
const PRUNE_SLACK: f64 = 1.0 - 1e-9;

/// Absolute skip margin (m², a micrometre squared) on top of
/// [`PRUNE_SLACK`]. A candidate's closest point carries an absolute
/// rounding error of a few ulps of its coordinates (≲1e-12 m on a
/// kilometre-sized map), so within micrometres of a centreline its
/// squared distance can fall below the box bound by more than any
/// relative slack; nothing that close is ever skipped.
const PRUNE_FLOOR: f64 = 1e-12;

/// Whether a box or lane whose squared-distance lower bound is `lower`
/// provably holds no candidate at or below the threshold `bound`.
#[inline]
pub(crate) fn beyond(lower: f64, bound: f64) -> bool {
    lower * PRUNE_SLACK > bound + PRUNE_FLOOR
}

/// Axis-aligned bounding box over a run of consecutive polyline vertices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SegAabb {
    min_x: f64,
    min_y: f64,
    max_x: f64,
    max_y: f64,
}

impl SegAabb {
    const EMPTY: SegAabb = SegAabb {
        min_x: f64::INFINITY,
        min_y: f64::INFINITY,
        max_x: f64::NEG_INFINITY,
        max_y: f64::NEG_INFINITY,
    };

    fn include(&mut self, p: Vec2) {
        self.min_x = self.min_x.min(p.x);
        self.min_y = self.min_y.min(p.y);
        self.max_x = self.max_x.max(p.x);
        self.max_y = self.max_y.max(p.y);
    }

    /// Lower bound on the squared distance from `p` to anything inside
    /// the box (0 when `p` is inside).
    #[inline]
    pub(crate) fn dist2_lower(&self, p: Vec2) -> f64 {
        let dx = (self.min_x - p.x).max(0.0).max(p.x - self.max_x);
        let dy = (self.min_y - p.y).max(0.0).max(p.y - self.max_y);
        dx * dx + dy * dy
    }
}

/// A polyline with precomputed cumulative arc lengths.
///
/// Lane centrelines are stored as polylines densely sampled from straights
/// and arcs; with ~1 m vertex spacing the chord error of an urban-radius
/// curve is far below lane-width tolerances.
///
/// Construction also builds a two-level bounding-box index (16 segments
/// per chunk box, 4 per sub-box) used by
/// [`project`](Self::project) to skip runs of segments that provably
/// cannot contain the nearest point — an exact optimisation: results are
/// bit-identical to the plain linear scan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Polyline {
    points: Vec<Vec2>,
    /// `cum[i]` is the arc length from the start to `points[i]`.
    cum: Vec<f64>,
    /// `dirs[i]` is the unit direction of segment `i`,
    /// `(points[i + 1] - points[i]).normalized()`.
    #[serde(skip)]
    dirs: Vec<Vec2>,
    /// Bounding box of vertices `[k*CHUNK ..= min(end, (k+1)*CHUNK)]` —
    /// i.e. every segment in chunk `k` including its shared endpoints.
    #[serde(skip)]
    chunks: Vec<SegAabb>,
    /// Bounding box of vertices `[k*SUB ..= min(end, (k+1)*SUB)]`; chunk
    /// `c` holds sub-boxes `c*SUBS_PER_CHUNK ..`.
    #[serde(skip)]
    subs: Vec<SegAabb>,
    /// Bounding box of the whole polyline.
    #[serde(skip)]
    bounds: SegAabb,
}

/// Bounding boxes of consecutive runs of `per` segments of `points`, each
/// including both endpoints of every segment in its run.
fn segment_boxes(points: &[Vec2], per: usize) -> Vec<SegAabb> {
    let nseg = points.len() - 1;
    (0..nseg)
        .step_by(per)
        .map(|start| {
            let mut bb = SegAabb::EMPTY;
            for &p in &points[start..=(start + per).min(nseg)] {
                bb.include(p);
            }
            bb
        })
        .collect()
}

impl Polyline {
    /// Creates a polyline from at least two points.
    ///
    /// Consecutive duplicate points are removed; at least two distinct
    /// points must remain.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two distinct points are supplied.
    pub fn new(points: Vec<Vec2>) -> Self {
        let mut dedup: Vec<Vec2> = Vec::with_capacity(points.len());
        for p in points {
            if dedup.last().is_none_or(|q| q.distance(p) > 1e-9) {
                dedup.push(p);
            }
        }
        assert!(
            dedup.len() >= 2,
            "polyline needs at least two distinct points"
        );
        let mut cum = Vec::with_capacity(dedup.len());
        let mut total = 0.0;
        cum.push(0.0);
        for w in dedup.windows(2) {
            total += w[0].distance(w[1]);
            cum.push(total);
        }
        let mut bounds = SegAabb::EMPTY;
        for &p in &dedup {
            bounds.include(p);
        }
        let dirs = dedup
            .windows(2)
            .map(|w| (w[1] - w[0]).normalized().expect("distinct points"))
            .collect();
        Polyline {
            chunks: segment_boxes(&dedup, CHUNK),
            subs: segment_boxes(&dedup, SUB),
            points: dedup,
            cum,
            dirs,
            bounds,
        }
    }

    /// Exact lower bound on the squared distance from `p` to any point of
    /// the polyline (0 when `p` is inside its bounding box). Lets callers
    /// holding a candidate projection skip whole polylines that provably
    /// cannot beat it.
    pub fn distance_lower_bound_sq(&self, p: Vec2) -> f64 {
        self.bounds.dist2_lower(p)
    }

    /// The vertices of the polyline.
    pub fn points(&self) -> &[Vec2] {
        &self.points
    }

    /// Total arc length.
    pub fn length(&self) -> Meters {
        Meters::new(*self.cum.last().expect("non-empty"))
    }

    /// The point at arc length `s`, clamped to `[0, length]`.
    pub fn point_at(&self, s: Meters) -> Vec2 {
        let (i, t) = self.locate(s.get());
        self.points[i].lerp(self.points[i + 1], t)
    }

    /// The unit tangent direction at arc length `s`.
    pub fn tangent_at(&self, s: Meters) -> Vec2 {
        self.dirs[self.locate(s.get()).0]
    }

    /// The heading of the tangent at arc length `s`.
    pub fn heading_at(&self, s: Meters) -> Radians {
        self.tangent_at(s).heading()
    }

    /// The pose (point + tangent heading) at arc length `s`.
    pub fn pose_at(&self, s: Meters) -> Pose2 {
        Pose2::new(self.point_at(s), self.heading_at(s))
    }

    /// Point offset laterally from the centreline at arc length `s`
    /// (positive = left of travel direction).
    pub fn offset_point_at(&self, s: Meters, lateral: Meters) -> Vec2 {
        let pose = self.pose_at(s);
        pose.position + pose.left() * lateral.get()
    }

    /// Projects a world point onto the polyline.
    ///
    /// Returns `(s, lateral, distance)`: the arc length of the closest
    /// point, the **signed** lateral offset (positive = left of travel
    /// direction) and the absolute distance.
    pub fn project(&self, p: Vec2) -> (Meters, Meters, Meters) {
        let (s, lateral, distance, _) = self.project_near(p, None);
        (s, lateral, distance)
    }

    /// [`project`](Self::project) warm-started from segment `hint`
    /// (typically the segment the point was nearest to a moment ago),
    /// also returning the index of the winning segment. Any hint, or none,
    /// gives the same bits; a good hint only makes the pruning tighter.
    pub(crate) fn project_near(
        &self,
        p: Vec2,
        hint: Option<usize>,
    ) -> (Meters, Meters, Meters, usize) {
        self.project_within(p, hint, f64::INFINITY)
            .expect("an unlimited scan visits a segment")
    }

    /// [`project_near`](Self::project_near) for a caller that only needs
    /// the projection when it lies within squared distance `limit` — the
    /// distance of a real candidate elsewhere, such as another lane's
    /// projection. The result is exact whenever the nearest point lies
    /// within `limit`; otherwise it is `None` or a candidate farther than
    /// `limit`, never one that ties with or beats it.
    pub(crate) fn project_within(
        &self,
        p: Vec2,
        hint: Option<usize>,
        limit: f64,
    ) -> Option<(Meters, Meters, Meters, usize)> {
        let nseg = self.dirs.len();
        // Pruning threshold: the squared distance of any real candidate
        // upper-bounds the eventual best, so any box whose lower bound
        // exceeds min(threshold, running best) — with the `beyond` margins
        // absorbing float rounding — contains only candidates that can
        // never *strictly* beat the best. Skipping them, while the scan
        // stays in segment order, preserves the first-minimal-segment
        // tie-break exactly. The candidates are the hinted segment and its
        // neighbours, and one vertex per chunk — measured only once a
        // chunk other than the hint's survives, which after a good hint
        // or under a tight `limit` is rare.
        let hint = hint.map(|h| h.min(nseg - 1));
        let mut bound = match hint {
            Some(h) => (h.saturating_sub(1)..(h + 2).min(nseg))
                .map(|i| self.segment_dist2(p, i).0)
                .fold(limit, f64::min),
            None => limit,
        };
        let hint_chunk = hint.map(|h| h / CHUNK);
        let mut vertex_bound_due = self.chunks.len() > 1;
        let mut scanned = false;
        let mut best_d2 = f64::INFINITY;
        let mut best_seg = 0usize;
        let mut best_t = 0.0;
        let mut best_point = self.points[0];
        for (ci, bb) in self.chunks.iter().enumerate() {
            let lower = bb.dist2_lower(p);
            if beyond(lower, bound) {
                continue;
            }
            if vertex_bound_due && Some(ci) != hint_chunk {
                vertex_bound_due = false;
                bound = (0..nseg)
                    .step_by(CHUNK)
                    .chain([nseg])
                    .map(|i| (p - self.points[i]).length_squared())
                    .fold(bound, f64::min);
                if beyond(lower, bound) {
                    continue;
                }
            }
            let first_sub = ci * SUBS_PER_CHUNK;
            let last_sub = (first_sub + SUBS_PER_CHUNK).min(self.subs.len());
            for si in first_sub..last_sub {
                if beyond(self.subs[si].dist2_lower(p), bound) {
                    continue;
                }
                scanned = true;
                let start = si * SUB;
                for i in start..(start + SUB).min(nseg) {
                    let (d2, t, q) = self.segment_dist2(p, i);
                    if d2 < best_d2 {
                        best_d2 = d2;
                        best_seg = i;
                        best_t = t;
                        best_point = q;
                        bound = bound.min(d2);
                    }
                }
            }
        }
        if !scanned {
            return None;
        }
        let best_s = self.cum[best_seg] + (self.cum[best_seg + 1] - self.cum[best_seg]) * best_t;
        let lateral = self.dirs[best_seg].cross(p - best_point);
        Some((
            Meters::new(best_s),
            Meters::new(lateral),
            Meters::new(best_d2.sqrt()),
            best_seg,
        ))
    }

    /// Squared distance from `p` to segment `i`, with the segment
    /// parameter and the closest point — one projection candidate.
    #[inline]
    fn segment_dist2(&self, p: Vec2, i: usize) -> (f64, f64, Vec2) {
        let (t, q) = p.project_onto_segment(self.points[i], self.points[i + 1]);
        ((p - q).length_squared(), t, q)
    }

    /// Binary-searches the segment containing arc length `s`.
    ///
    /// Returns `(segment index, parameter within segment ∈ [0, 1])`.
    fn locate(&self, s: f64) -> (usize, f64) {
        let total = *self.cum.last().expect("non-empty");
        let s = s.clamp(0.0, total);
        // partition_point: first index with cum > s, then step back.
        let idx = self.cum.partition_point(|&c| c <= s);
        let i = idx.saturating_sub(1).min(self.points.len() - 2);
        let seg_len = self.cum[i + 1] - self.cum[i];
        let t = if seg_len > 1e-12 {
            ((s - self.cum[i]) / seg_len).clamp(0.0, 1.0)
        } else {
            0.0
        };
        (i, t)
    }

    /// Builds a straight line from `start` to `end`, sampled every
    /// `max_spacing` metres.
    ///
    /// # Panics
    ///
    /// Panics if `max_spacing` is not positive or the points coincide.
    pub fn straight(start: Vec2, end: Vec2, max_spacing: Meters) -> Self {
        assert!(max_spacing.get() > 0.0, "spacing must be positive");
        let dist = start.distance(end);
        assert!(dist > 1e-9, "start and end coincide");
        let n = (dist / max_spacing.get()).ceil().max(1.0) as usize;
        let pts = (0..=n)
            .map(|k| start.lerp(end, k as f64 / n as f64))
            .collect();
        Polyline::new(pts)
    }

    /// Builds a circular arc around `center`, from `start_angle` sweeping
    /// `sweep` radians (positive = counter-clockwise), sampled with chord
    /// spacing ≈ `max_spacing`.
    ///
    /// # Panics
    ///
    /// Panics if `radius` or `max_spacing` is not positive, or `sweep` is 0.
    pub fn arc(
        center: Vec2,
        radius: Meters,
        start_angle: Radians,
        sweep: Radians,
        max_spacing: Meters,
    ) -> Self {
        assert!(radius.get() > 0.0, "radius must be positive");
        assert!(max_spacing.get() > 0.0, "spacing must be positive");
        assert!(sweep.get().abs() > 1e-9, "sweep must be non-zero");
        let arc_len = radius.get() * sweep.get().abs();
        let n = (arc_len / max_spacing.get()).ceil().max(2.0) as usize;
        let pts = (0..=n)
            .map(|k| {
                let a = start_angle.get() + sweep.get() * k as f64 / n as f64;
                center + Vec2::new(a.cos(), a.sin()) * radius.get()
            })
            .collect();
        Polyline::new(pts)
    }

    /// Concatenates another polyline onto the end of this one.
    ///
    /// The first point of `other` should coincide with (or be close to) the
    /// last point of `self`; duplicates are merged.
    pub fn extend_with(mut self, other: &Polyline) -> Self {
        let mut pts = std::mem::take(&mut self.points);
        pts.extend_from_slice(other.points());
        Polyline::new(pts)
    }

    /// A copy offset laterally by `offset` metres (positive = left of the
    /// direction of travel). Used to derive parallel lanes from a reference
    /// centreline.
    pub fn offset(&self, offset: Meters) -> Polyline {
        let n = self.points.len();
        let mut pts = Vec::with_capacity(n);
        for i in 0..n {
            // Average the directions of adjacent segments for smooth offsets.
            let dir_in = if i > 0 {
                (self.points[i] - self.points[i - 1]).normalized()
            } else {
                None
            };
            let dir_out = if i + 1 < n {
                (self.points[i + 1] - self.points[i]).normalized()
            } else {
                None
            };
            let dir = match (dir_in, dir_out) {
                (Some(a), Some(b)) => (a + b).normalized().unwrap_or(a),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => unreachable!("polyline has >= 2 points"),
            };
            pts.push(self.points[i] + dir.perp() * offset.get());
        }
        Polyline::new(pts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn straight10() -> Polyline {
        Polyline::straight(Vec2::ZERO, Vec2::new(10.0, 0.0), Meters::new(1.0))
    }

    #[test]
    fn straight_length_and_points() {
        let p = straight10();
        assert!((p.length().get() - 10.0).abs() < 1e-12);
        assert_eq!(p.point_at(Meters::ZERO), Vec2::ZERO);
        let mid = p.point_at(Meters::new(5.0));
        assert!((mid.x - 5.0).abs() < 1e-12 && mid.y.abs() < 1e-12);
        // Clamping beyond the end.
        let end = p.point_at(Meters::new(99.0));
        assert!((end.x - 10.0).abs() < 1e-12);
    }

    #[test]
    fn tangent_and_heading() {
        let p = straight10();
        let t = p.tangent_at(Meters::new(3.0));
        assert!((t.x - 1.0).abs() < 1e-12 && t.y.abs() < 1e-12);
        assert!(p.heading_at(Meters::new(3.0)).get().abs() < 1e-12);
    }

    #[test]
    fn projection_signed_lateral() {
        let p = straight10();
        // Point above the line (left of travel) → positive lateral.
        let (s, lat, d) = p.project(Vec2::new(4.0, 2.0));
        assert!((s.get() - 4.0).abs() < 1e-12);
        assert!((lat.get() - 2.0).abs() < 1e-12);
        assert!((d.get() - 2.0).abs() < 1e-12);
        // Point below → negative lateral.
        let (_, lat, _) = p.project(Vec2::new(4.0, -1.5));
        assert!((lat.get() + 1.5).abs() < 1e-12);
    }

    #[test]
    fn arc_geometry() {
        // Quarter circle radius 10 around origin starting at angle 0 (point
        // (10,0)) sweeping CCW to (0,10).
        let a = Polyline::arc(
            Vec2::ZERO,
            Meters::new(10.0),
            Radians::new(0.0),
            Radians::new(FRAC_PI_2),
            Meters::new(0.5),
        );
        let expected_len = 10.0 * FRAC_PI_2;
        assert!((a.length().get() - expected_len).abs() < 0.05);
        let start = a.point_at(Meters::ZERO);
        assert!((start.x - 10.0).abs() < 1e-9 && start.y.abs() < 1e-9);
        let end = a.point_at(a.length());
        assert!(end.x.abs() < 1e-9 && (end.y - 10.0).abs() < 1e-9);
        // Tangent at start of a CCW arc from angle 0 points in +y.
        let t = a.tangent_at(Meters::ZERO);
        assert!(t.y > 0.9);
    }

    #[test]
    fn dedup_and_panic_on_degenerate() {
        let p = Polyline::new(vec![
            Vec2::ZERO,
            Vec2::ZERO,
            Vec2::new(1.0, 0.0),
            Vec2::new(1.0, 0.0),
        ]);
        assert_eq!(p.points().len(), 2);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn single_point_panics() {
        let _ = Polyline::new(vec![Vec2::ZERO, Vec2::ZERO]);
    }

    #[test]
    fn extend_joins() {
        let a = Polyline::straight(Vec2::ZERO, Vec2::new(5.0, 0.0), Meters::new(1.0));
        let b = Polyline::straight(Vec2::new(5.0, 0.0), Vec2::new(5.0, 5.0), Meters::new(1.0));
        let joined = a.extend_with(&b);
        assert!((joined.length().get() - 10.0).abs() < 1e-9);
        let p = joined.point_at(Meters::new(7.5));
        assert!((p.x - 5.0).abs() < 1e-9 && (p.y - 2.5).abs() < 1e-9);
    }

    #[test]
    fn offset_straight() {
        let p = straight10().offset(Meters::new(3.5));
        // Offset left of +x travel = +y.
        let q = p.point_at(Meters::new(5.0));
        assert!((q.y - 3.5).abs() < 1e-9);
        assert!((p.length().get() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn offset_arc_changes_radius() {
        let a = Polyline::arc(
            Vec2::ZERO,
            Meters::new(10.0),
            Radians::new(0.0),
            Radians::new(PI),
            Meters::new(0.2),
        );
        // Left of CCW travel is toward the centre → radius shrinks.
        let inner = a.offset(Meters::new(2.0));
        let r_mid = inner.point_at(inner.length() / 2.0).length();
        assert!((r_mid - 8.0).abs() < 0.05, "r_mid = {r_mid}");
    }

    #[test]
    fn pose_at_offset_point() {
        let p = straight10();
        let off = p.offset_point_at(Meters::new(2.0), Meters::new(-1.0));
        assert!((off.x - 2.0).abs() < 1e-9 && (off.y + 1.0).abs() < 1e-9);
    }

    /// The plain linear scan the indexed kernel must reproduce: every
    /// segment in order, first strictly-smaller distance, the direction
    /// normalised afresh.
    fn project_linear(line: &Polyline, p: Vec2) -> (u64, u64, u64, usize) {
        let pts = line.points();
        let (mut best_d2, mut best_seg, mut best_t, mut best_q) = (f64::INFINITY, 0, 0.0, pts[0]);
        for i in 0..pts.len() - 1 {
            let (t, q) = p.project_onto_segment(pts[i], pts[i + 1]);
            let d2 = (p - q).length_squared();
            if d2 < best_d2 {
                (best_d2, best_seg, best_t, best_q) = (d2, i, t, q);
            }
        }
        let (i, cum) = (best_seg, &line.cum);
        let s = cum[i] + (cum[i + 1] - cum[i]) * best_t;
        let dir = (pts[i + 1] - pts[i]).normalized().unwrap();
        let lateral = dir.cross(p - best_q);
        (s.to_bits(), lateral.to_bits(), best_d2.sqrt().to_bits(), i)
    }

    fn near_bits(line: &Polyline, p: Vec2, hint: Option<usize>) -> (u64, u64, u64, usize) {
        let (s, lateral, distance, seg) = line.project_near(p, hint);
        (
            s.get().to_bits(),
            lateral.get().to_bits(),
            distance.get().to_bits(),
            seg,
        )
    }

    #[test]
    fn indexed_projection_matches_linear_scan_from_every_hint() {
        // 203 segments: twelve full chunks and a partial one, on a curve
        // folded back on itself so far-apart segments compete.
        let line = Polyline::arc(
            Vec2::new(5.0, -3.0),
            Meters::new(20.0),
            Radians::new(0.4),
            Radians::new(2.0 * PI + 1.0),
            Meters::new(0.7),
        );
        let mut rng = rdsim_math::RngStream::from_seed(0x9017);
        let mut points: Vec<Vec2> = (0..300)
            .map(|_| {
                Vec2::new(
                    rng.uniform_range(-30.0, 40.0),
                    rng.uniform_range(-35.0, 30.0),
                )
            })
            .collect();
        // Vertices, the centre (equidistant from everything) and points
        // just off the centreline, where ties and rounding live.
        points.extend(line.points().iter().step_by(7).copied());
        points.push(Vec2::new(5.0, -3.0));
        points.extend(
            line.points()
                .iter()
                .step_by(11)
                .map(|&v| v + Vec2::new(1e-13, -1e-13)),
        );
        let nseg = line.points().len() - 1;
        for p in points {
            let want = project_linear(&line, p);
            assert_eq!(near_bits(&line, p, None), want, "unhinted at {p}");
            for hint in 0..nseg + 3 {
                assert_eq!(near_bits(&line, p, Some(hint)), want, "hint {hint} at {p}");
            }
        }
    }

    #[test]
    fn direction_table_matches_fresh_normalisation() {
        let line = straight10().extend_with(&Polyline::arc(
            Vec2::new(10.0, 4.0),
            Meters::new(4.0),
            Radians::new(-FRAC_PI_2),
            Radians::new(2.5),
            Meters::new(0.3),
        ));
        let pts = line.points();
        for i in 0..pts.len() - 1 {
            let mid = Meters::new((line.cum[i] + line.cum[i + 1]) / 2.0);
            let fresh = (pts[i + 1] - pts[i]).normalized().unwrap();
            let t = line.tangent_at(mid);
            assert_eq!(
                (t.x.to_bits(), t.y.to_bits()),
                (fresh.x.to_bits(), fresh.y.to_bits())
            );
        }
    }

    proptest! {
        #[test]
        fn project_point_on_line_has_zero_lateral(s in 0.0f64..10.0) {
            let p = straight10();
            let q = p.point_at(Meters::new(s));
            let (s2, lat, d) = p.project(q);
            prop_assert!((s2.get() - s).abs() < 1e-9);
            prop_assert!(lat.get().abs() < 1e-9);
            prop_assert!(d.get() < 1e-9);
        }

        #[test]
        fn point_at_is_on_polyline(s in -5.0f64..15.0) {
            let p = straight10();
            let q = p.point_at(Meters::new(s));
            let (_, _, d) = p.project(q);
            prop_assert!(d.get() < 1e-9);
        }

        #[test]
        fn arc_points_at_radius(sweep in 0.2f64..6.0, r in 1.0f64..100.0) {
            let a = Polyline::arc(
                Vec2::new(3.0, -2.0),
                Meters::new(r),
                Radians::new(0.3),
                Radians::new(sweep),
                Meters::new(0.5),
            );
            for pt in a.points() {
                prop_assert!((pt.distance(Vec2::new(3.0, -2.0)) - r).abs() < 1e-9);
            }
        }
    }
}
