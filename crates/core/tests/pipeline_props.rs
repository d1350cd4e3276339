//! Custom pipeline equivalence properties.
//!
//! Random fault grammars × random run lengths: a session whose uplink
//! stage is swapped via `replace_stage` for a delegating wrapper, and one
//! whose pipeline is extended via `insert_stage_after` with a no-op
//! stage, must reproduce the default pipeline's run-log digest and
//! transport counters bit for bit.

use proptest::prelude::*;
use rdsim_core::pipeline::UplinkStage;
use rdsim_core::{
    Digestible, PaperFault, RdsSession, RdsSessionConfig, ScriptedOperator, SessionStats, Stage,
    StageContext,
};
use rdsim_netem::InjectionWindow;
use rdsim_roadnet::town05;
use rdsim_simulator::{CameraConfig, World};
use rdsim_units::{Hertz, SimDuration, SimTime};
use rdsim_vehicle::{ControlInput, VehicleSpec};

/// One randomly drawn session: seed, fault grammar, lifetime in steps.
#[derive(Debug, Clone, Copy)]
struct Recipe {
    seed: u64,
    fault_idx: usize,
    start_ms: u64,
    dur_ms: u64,
    second_window: bool,
    steps: u64,
}

impl Recipe {
    /// Expands one 64-bit draw into a recipe.
    fn from_bits(bits: u64) -> Recipe {
        Recipe {
            seed: bits | 1,
            fault_idx: (bits >> 8) as usize % PaperFault::ALL.len(),
            start_ms: 200 + (bits >> 16) % 2_000,
            dur_ms: 100 + (bits >> 24) % 1_500,
            second_window: (bits >> 32) & 1 == 1,
            steps: 40 + (bits >> 40) % 200,
        }
    }
}

fn build(r: &Recipe) -> RdsSession {
    let mut world = World::new(town05(), r.seed);
    world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
    let config = RdsSessionConfig {
        camera: CameraConfig::fixed(Hertz::new(25.0), 2_000),
        ..RdsSessionConfig::default()
    };
    let mut s = RdsSession::new(world, config, r.seed);
    let fault = PaperFault::ALL[r.fault_idx];
    s.schedule_fault(InjectionWindow::new(
        SimTime::from_millis(r.start_ms),
        SimDuration::from_millis(r.dur_ms),
        fault.config(),
    ))
    .unwrap();
    if r.second_window {
        // A second, disjoint window strictly after the first.
        s.schedule_fault(InjectionWindow::new(
            SimTime::from_millis(r.start_ms + r.dur_ms + 300),
            SimDuration::from_millis(400),
            PaperFault::ALL[(r.fault_idx + 2) % PaperFault::ALL.len()].config(),
        ))
        .unwrap();
    }
    s
}

fn operator(r: &Recipe) -> ScriptedOperator {
    // Per-seed throttle, so drawn runs differ in speed too.
    ScriptedOperator::constant(ControlInput::new(0.2 + (r.seed % 5) as f64 * 0.1, 0.0, 0.0))
}

/// Runs `s` for the recipe's steps; returns its run-log digest and its
/// transport counters. The counters matter here: a scripted operator
/// ignores the video feed, so a broken uplink would not reach the log.
fn outcome(r: &Recipe, mut s: RdsSession) -> (u64, SessionStats) {
    let mut op = operator(r);
    for _ in 0..r.steps {
        s.step(&mut op);
    }
    let stats = s.stats();
    (s.into_log().digest(), stats)
}

/// A delegating wrapper around the builtin uplink stage: a distinct
/// stage instance swapped in via `replace_stage`, behaviourally
/// identical to the builtin it wraps.
#[derive(Debug, Default)]
struct WrappedUplink(UplinkStage);

impl Stage for WrappedUplink {
    fn name(&self) -> &'static str {
        UplinkStage::NAME
    }

    fn span_name(&self) -> &'static str {
        UplinkStage::SPAN
    }

    fn advance(&mut self, ctx: &mut StageContext<'_>) {
        self.0.advance(ctx);
    }
}

/// A do-nothing extra stage: inserting it reshapes the pipeline to 11
/// stages without changing any observable behaviour.
#[derive(Debug, Default)]
struct NoopStage;

impl Stage for NoopStage {
    fn name(&self) -> &'static str {
        "noop_probe"
    }

    fn span_name(&self) -> &'static str {
        "session.stage.noop_probe_ns"
    }

    fn advance(&mut self, _ctx: &mut StageContext<'_>) {}
}

proptest! {
    /// Random fault grammars × random run lengths: a replaced uplink
    /// stage and an inserted no-op stage each reproduce the default
    /// pipeline's digest, since neither change alters behaviour.
    #[test]
    fn custom_pipelines_stay_digest_identical(bits in proptest::num::u64::ANY) {
        let r = Recipe::from_bits(bits);
        let reference = outcome(&r, build(&r));

        let mut replaced = build(&r);
        prop_assert!(replaced.replace_stage("uplink", Box::new(WrappedUplink::default())));
        prop_assert_eq!(reference, outcome(&r, replaced));

        let mut extended = build(&r);
        prop_assert!(extended.insert_stage_after("logging", Box::new(NoopStage)));
        prop_assert_eq!(reference, outcome(&r, extended));
    }
}
