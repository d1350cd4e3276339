//! Lockstep batching of independent sessions on one worker.
//!
//! The ROADMAP's north star is stepping millions of scenario runs per
//! campaign. Per-run overheads — scheduling a worker, warming telemetry
//! registries and trace rings, cache-cold stage code — can't be amortized
//! when every run occupies a worker from start to finish. A
//! [`SessionBatch`] steps N *independent* sessions in lockstep: each tick
//! it advances every live session by one step, so the stage code stays
//! hot in cache across sessions and one worker carries N runs.
//!
//! Sessions in a batch share nothing (each owns its world, links, RNG
//! streams and driver), so lockstep interleaving is bit-for-bit
//! equivalent to running them serially — the parallel-equivalence suite
//! pins this. The batch keeps a compact index of its live slots
//! (swap-removed on retirement), so the per-tick scheduling scan never
//! touches retired sessions, and each tick is nothing more than
//! [`RdsSession::step`] for every live slot — the same stage pipeline
//! the serial path runs, so stages swapped in via
//! [`RdsSession::replace_stage`] or [`RdsSession::insert_stage_after`]
//! behave identically inside a batch.

use crate::{OperatorSubsystem, RdsSession};

/// Drives one session inside a [`SessionBatch`]: decides before each step
/// whether the session should continue, and supplies the operator that
/// steps it.
///
/// This is the batched counterpart of a hand-written `while … {
/// session.step(&mut op) }` loop: the loop condition becomes
/// [`pre_step`](Self::pre_step), the loop body's operator becomes
/// [`operator_mut`](Self::operator_mut).
pub trait SessionController {
    /// Called before every step with the session about to be stepped.
    /// Returning `false` retires the session from the batch (its
    /// controller's state is preserved for [`SessionBatch::finish`]).
    fn pre_step(&mut self, session: &mut RdsSession) -> bool;

    /// The operator subsystem that steps this controller's session.
    fn operator_mut(&mut self) -> &mut dyn OperatorSubsystem;
}

impl<T: SessionController + ?Sized> SessionController for Box<T> {
    fn pre_step(&mut self, session: &mut RdsSession) -> bool {
        (**self).pre_step(session)
    }

    fn operator_mut(&mut self) -> &mut dyn OperatorSubsystem {
        (**self).operator_mut()
    }
}

/// The simplest controller: run an operator for a fixed number of steps.
///
/// `FixedRun::new(op, duration.div_steps(dt))` batched is equivalent to
/// `session.run(&mut op, duration)` serial.
#[derive(Debug)]
pub struct FixedRun<O> {
    operator: O,
    steps_left: u64,
}

impl<O: OperatorSubsystem> FixedRun<O> {
    /// A controller stepping `steps` times with `operator`.
    pub fn new(operator: O, steps: u64) -> Self {
        FixedRun {
            operator,
            steps_left: steps,
        }
    }

    /// The wrapped operator (e.g. to read its counters after the run).
    pub fn operator(&self) -> &O {
        &self.operator
    }

    /// Consumes the controller, returning the operator.
    pub fn into_operator(self) -> O {
        self.operator
    }
}

impl<O: OperatorSubsystem> SessionController for FixedRun<O> {
    fn pre_step(&mut self, _session: &mut RdsSession) -> bool {
        if self.steps_left == 0 {
            return false;
        }
        self.steps_left -= 1;
        true
    }

    fn operator_mut(&mut self) -> &mut dyn OperatorSubsystem {
        &mut self.operator
    }
}

/// Steps N independent sessions in lockstep, one tick of every live
/// session per [`step_all`](Self::step_all) call.
///
/// Sessions retire individually (their controller's
/// [`pre_step`](SessionController::pre_step) returns `false`); the batch
/// keeps ticking the remainder until none are live, then
/// [`finish`](Self::finish) hands back every `(session, controller)`
/// pair in insertion order for per-run log extraction.
#[derive(Debug)]
pub struct SessionBatch<C> {
    // The scheduler scans `live_slots` and `controllers` densely each
    // tick; the big session states sit in their own vec.
    sessions: Vec<RdsSession>,
    controllers: Vec<C>,
    /// Compact index of live batch slots; retirement swap-removes, so
    /// the scan is O(live) instead of O(ever-pushed).
    live_slots: Vec<usize>,
}

impl<C: SessionController> SessionBatch<C> {
    /// An empty batch.
    pub fn new() -> Self {
        SessionBatch {
            sessions: Vec::new(),
            controllers: Vec::new(),
            live_slots: Vec::new(),
        }
    }

    /// Adds a session and its controller to the batch.
    pub fn push(&mut self, session: RdsSession, controller: C) {
        self.sessions.push(session);
        self.controllers.push(controller);
        self.live_slots.push(self.sessions.len() - 1);
    }

    /// Number of sessions in the batch (live or retired).
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the batch holds no sessions at all.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Number of sessions still live.
    pub fn live_count(&self) -> usize {
        self.live_slots.len()
    }

    /// Advances every live session by one tick. Returns the number of
    /// sessions stepped (0 = the batch is done).
    pub fn step_all(&mut self) -> usize {
        // Retirement scan over the compact live-slot index. Sessions
        // share nothing, so the swap-remove reordering is digest-free.
        let mut k = 0;
        while k < self.live_slots.len() {
            let slot = self.live_slots[k];
            if self.controllers[slot].pre_step(&mut self.sessions[slot]) {
                k += 1;
            } else {
                self.live_slots.swap_remove(k);
            }
        }
        for &slot in &self.live_slots {
            self.sessions[slot].step(self.controllers[slot].operator_mut());
        }
        self.live_slots.len()
    }

    /// Ticks until every session has retired.
    pub fn run_to_completion(&mut self) {
        while self.step_all() > 0 {}
    }

    /// Consumes the batch, returning every `(session, controller)` pair
    /// in insertion order.
    pub fn finish(self) -> Vec<(RdsSession, C)> {
        self.sessions.into_iter().zip(self.controllers).collect()
    }
}

impl<C: SessionController> Default for SessionBatch<C> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Digestible, PaperFault, RdsSessionConfig, ScriptedOperator};
    use rdsim_netem::InjectionWindow;
    use rdsim_roadnet::town05;
    use rdsim_simulator::{CameraConfig, World};
    use rdsim_units::{Hertz, SimDuration, SimTime};
    use rdsim_vehicle::{ControlInput, VehicleSpec};

    fn session(seed: u64) -> RdsSession {
        let mut world = World::new(town05(), seed);
        world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
        let config = RdsSessionConfig {
            camera: CameraConfig::fixed(Hertz::new(25.0), 2_000),
            ..RdsSessionConfig::default()
        };
        let mut s = RdsSession::new(world, config, seed);
        s.schedule_fault(InjectionWindow::new(
            SimTime::from_secs(1),
            SimDuration::from_secs(2),
            PaperFault::Loss5Pct.config(),
        ))
        .unwrap();
        s
    }

    fn throttle(seed: u64) -> ScriptedOperator {
        // Distinct per-seed throttle so sessions in a batch diverge.
        ScriptedOperator::constant(ControlInput::new(0.3 + (seed % 3) as f64 * 0.1, 0.0, 0.0))
    }

    #[test]
    fn batched_lockstep_matches_serial_digests() {
        let seeds = [11u64, 97, 1234, 4242];
        let steps = 250; // 5 s at 50 Hz

        // Serial reference: one session at a time, plain run loop.
        let serial: Vec<u64> = seeds
            .iter()
            .map(|&seed| {
                let mut s = session(seed);
                let mut op = throttle(seed);
                for _ in 0..steps {
                    s.step(&mut op);
                }
                s.into_log().digest()
            })
            .collect();

        // Batched: all four in lockstep on one "worker".
        let mut batch = SessionBatch::new();
        for &seed in &seeds {
            batch.push(session(seed), FixedRun::new(throttle(seed), steps));
        }
        batch.run_to_completion();
        assert_eq!(batch.live_count(), 0);
        let batched: Vec<u64> = batch
            .finish()
            .into_iter()
            .map(|(s, _)| s.into_log().digest())
            .collect();

        assert_eq!(serial, batched, "lockstep must be bit-for-bit serial");
        // The runs genuinely differ from one another (distinct seeds).
        assert!(serial.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn sessions_retire_individually() {
        let mut batch = SessionBatch::new();
        batch.push(session(1), FixedRun::new(throttle(1), 10));
        batch.push(session(2), FixedRun::new(throttle(2), 25));
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.live_count(), 2);
        for _ in 0..10 {
            assert_eq!(batch.step_all(), 2);
        }
        // First session is done; only the second still steps.
        assert_eq!(batch.step_all(), 1);
        assert_eq!(batch.live_count(), 1);
        batch.run_to_completion();
        assert_eq!(batch.live_count(), 0);
        assert_eq!(batch.step_all(), 0, "done batches are idle");
        let done = batch.finish();
        assert_eq!(done[0].0.time(), SimTime::from_millis(10 * 20));
        assert_eq!(done[1].0.time(), SimTime::from_millis(25 * 20));
    }

    #[test]
    fn boxed_controllers_work() {
        let mut batch: SessionBatch<Box<dyn SessionController>> = SessionBatch::default();
        assert!(batch.is_empty());
        batch.push(session(3), Box::new(FixedRun::new(throttle(3), 5)));
        batch.run_to_completion();
        let done = batch.finish();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0.time(), SimTime::from_millis(100));
    }
}
