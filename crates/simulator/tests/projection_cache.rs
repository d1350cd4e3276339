//! Property suite for `World`'s per-actor projection cache: after any
//! sequence of spawns, teleports, behaviour changes and steps on town05,
//! every cached nearest-lane projection equals a fresh
//! `RoadNetwork::project` of the actor's position bit for bit,
//! `ego_lead_gap` equals a reference that projects every actor afresh, and
//! the ego's lane tracker and invasion count equal a reference sensor that
//! projects onto the tracked lane and re-anchors without the cache.

use proptest::prelude::*;
use rdsim_math::{Pose2, Vec2};
use rdsim_roadnet::{town05, LaneId, LanePosition, LaneProjection};
use rdsim_simulator::{ActorId, ActorKind, Behavior, LaneFollowConfig, World};
use rdsim_units::{Meters, MetersPerSecond, Radians, SimDuration};
use rdsim_vehicle::{ControlInput, VehicleSpec};

const DT: SimDuration = SimDuration::from_millis(20);

const SPAWNS: [&str; 10] = [
    "ego-start",
    "lead-start",
    "slalom-1",
    "slalom-2",
    "slalom-3",
    "cyclist-1",
    "cyclist-2",
    "overtake-slow",
    "highway-entry",
    "training-start",
];

/// `ego_lead_gap` as it was before the cache: every actor projected
/// afresh with `RoadNetwork::project`.
fn reference_lead_gap(w: &World, horizon: Meters) -> Option<(ActorId, Meters, MetersPerSecond)> {
    let net = w.network();
    let ego_id = w.ego_id()?;
    let ego = w.actor(ego_id);
    let proj = net.project(ego.state().position())?;
    let mut best: Option<(ActorId, Meters, MetersPerSecond)> = None;
    for other in w.actors() {
        if other.id() == ego_id || other.kind() != ActorKind::Vehicle {
            continue;
        }
        let oproj = net.project(other.state().position())?;
        if oproj.distance.get() > net.lane(oproj.position.lane).width().get() {
            continue;
        }
        if let Some(gap) = net.gap_along(proj.position, oproj.position, horizon) {
            if gap.get() < 0.05 {
                continue;
            }
            if best.is_none_or(|(_, g, _)| gap < g) {
                let closing =
                    MetersPerSecond::new(ego.state().speed.get() - other.state().speed.get());
                best = Some((other.id(), gap, closing));
            }
        }
    }
    best
}

/// The lane-invasion sensor rebuilt from the public API without the
/// cache: project onto the tracked lane, count a crossing to outside it,
/// then re-anchor with an unseeded `project_among` over the lane, its
/// neighbours, its successors and their neighbours.
#[derive(Debug, Clone, Copy)]
struct ReferenceTracker {
    lane: Option<LaneId>,
    was_outside: bool,
    invasions: u64,
}

impl ReferenceTracker {
    fn new(w: &World) -> Self {
        ReferenceTracker {
            lane: w.network().spawn_point("ego-start").map(|sp| sp.lane),
            was_outside: false,
            invasions: 0,
        }
    }

    /// Mirrors a teleport of the ego onto `lane` (`None`: onto an
    /// arbitrary pose, which re-anchors to the nearest lane).
    fn teleported(&mut self, w: &World, lane: Option<LaneId>) {
        let ego = w.ego_id().expect("ego spawned");
        self.lane = lane.or_else(|| {
            w.network()
                .project(w.actor(ego).state().position())
                .map(|p| p.position.lane)
        });
        self.was_outside = false;
    }

    /// One post-step sensor pass.
    fn sense(&mut self, w: &World) {
        let (Some(ego), Some(lane_id)) = (w.ego_id(), self.lane) else {
            return;
        };
        let net = w.network();
        let pos = w.actor(ego).state().position();
        let lane = net.lane(lane_id);
        let outside = lane.is_outside(net.project_onto_lane(lane_id, pos).lateral);
        if outside && !self.was_outside {
            self.invasions += 1;
        }
        self.was_outside = outside;
        let mut candidates = vec![lane_id];
        candidates.extend(lane.left_neighbor());
        candidates.extend(lane.right_neighbor());
        for &succ in lane.successors() {
            candidates.push(succ);
            candidates.extend(net.lane(succ).left_neighbor());
            candidates.extend(net.lane(succ).right_neighbor());
        }
        if let Some(best) = net.project_among(&candidates, None, pos) {
            if best.position.lane != lane_id
                && !net.lane(best.position.lane).is_outside(best.lateral)
            {
                self.lane = Some(best.position.lane);
                self.was_outside = false;
            }
        }
    }
}

fn proj_bits(p: Option<LaneProjection>) -> Option<(LaneId, u64, u64, u64, u32)> {
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

fn gap_bits(g: Option<(ActorId, Meters, MetersPerSecond)>) -> Option<(ActorId, u64, u64)> {
    g.map(|(id, gap, closing)| (id, gap.get().to_bits(), closing.get().to_bits()))
}

fn assert_tracker_exact(w: &World, reference: &ReferenceTracker, at: &str) {
    assert_eq!(w.ego_lane(), reference.lane, "{at}: tracked lane");
    assert_eq!(
        w.lane_invasion_count(),
        reference.invasions,
        "{at}: lane invasions"
    );
}

fn assert_cache_exact(w: &World, reference: &ReferenceTracker, op: usize) {
    assert_tracker_exact(w, reference, &format!("op {op}"));
    for actor in w.actors() {
        assert_eq!(
            proj_bits(w.lane_projection(actor.id())),
            proj_bits(w.network().project(actor.state().position())),
            "op {op}: stale projection for actor {:?}",
            actor.id()
        );
    }
    for horizon in [Meters::new(40.0), Meters::new(150.0)] {
        assert_eq!(
            gap_bits(w.ego_lead_gap(horizon)),
            gap_bits(reference_lead_gap(w, horizon)),
            "op {op}: ego_lead_gap({horizon})"
        );
    }
}

/// One drawn operation: a selector, an integer parameter and a point.
type Op = (u8, usize, f64, f64);

fn apply(w: &mut World, reference: &mut ReferenceTracker, (code, k, x, y): Op) {
    let n = w.actors().len();
    let lanes = w.network().lane_count();
    let actor = ActorId((k % n) as u32);
    match code {
        0 => {
            let (kind, spec, behavior) = match k % 4 {
                0 => (ActorKind::Vehicle, VehicleSpec::van(), Behavior::Stationary),
                1 => (
                    ActorKind::Cyclist,
                    VehicleSpec::bicycle(),
                    Behavior::LaneFollow(LaneFollowConfig::cyclist(MetersPerSecond::new(4.0))),
                ),
                2 => (
                    ActorKind::Prop,
                    VehicleSpec::passenger_car(),
                    Behavior::Stationary,
                ),
                _ => (
                    ActorKind::Vehicle,
                    VehicleSpec::passenger_car(),
                    Behavior::LaneFollow(LaneFollowConfig::urban(MetersPerSecond::new(10.0))),
                ),
            };
            let speed = MetersPerSecond::new((x + 60.0) / 76.0);
            w.spawn_npc_at(SPAWNS[k % SPAWNS.len()], kind, spec, behavior, speed);
        }
        1 => {
            let lane = LaneId((k % lanes) as u32);
            let len = w.network().lane(lane).length().get();
            let s = Meters::new(len * (y + 60.0) / 520.0);
            let speed = MetersPerSecond::new((x + 60.0) / 76.0);
            w.teleport(actor, LanePosition::new(lane, s), speed);
            if Some(actor) == w.ego_id() {
                reference.teleported(w, Some(lane));
            }
        }
        2 => {
            w.teleport_pose(
                actor,
                Pose2::new(Vec2::new(x, y), Radians::new(0.01 * (k % 628) as f64)),
            );
            if Some(actor) == w.ego_id() {
                reference.teleported(w, None);
            }
        }
        3 => {
            let cfg = LaneFollowConfig::urban(MetersPerSecond::new((x + 60.0) / 50.0));
            let cfg = if k % 2 == 0 {
                cfg
            } else {
                cfg.with_lane(LaneId(((k / 2) % lanes) as u32))
            };
            w.set_behavior(actor, Behavior::LaneFollow(cfg));
        }
        4 => drive(w, reference, (y - 200.0) / 1_000.0, 1 + k % 50),
        // A long drive with sharp steering: takes the ego off the road and
        // across lanes it does not track, where the tracked lane and the
        // nearest lane part.
        _ => drive(w, reference, (y - 200.0) / 400.0, 1 + k % 200),
    }
}

/// Steps the world with the ego steering `steer`, checking the lane
/// tracker against the reference after every step.
fn drive(w: &mut World, reference: &mut ReferenceTracker, steer: f64, steps: usize) {
    if let Some(ego) = w.ego_id() {
        w.set_external_control(ego, ControlInput::new(0.6, 0.0, steer));
    }
    for i in 0..steps {
        w.step(DT);
        reference.sense(w);
        assert_tracker_exact(w, reference, &format!("drive step {i}"));
    }
}

proptest! {
    #[test]
    fn cache_matches_fresh_projection_after_every_operation(
        npcs in proptest::collection::vec(0usize..1_000, 0..6),
        ops in proptest::collection::vec(
            (0u8..6, 0usize..10_000, -60.0f64..700.0, -60.0f64..460.0),
            1..16,
        ),
    ) {
        let mut w = World::new(town05(), 7);
        w.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
        let mut reference = ReferenceTracker::new(&w);
        assert_cache_exact(&w, &reference, 0);
        for k in npcs {
            apply(&mut w, &mut reference, (0, k, 0.0, 0.0));
        }
        for (i, op) in ops.into_iter().enumerate() {
            apply(&mut w, &mut reference, op);
            assert_cache_exact(&w, &reference, i + 1);
        }
    }
}
