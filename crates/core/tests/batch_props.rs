//! Lockstep batch equivalence properties.
//!
//! Random fault grammars × random batch widths × random retirement
//! times: stepping sessions in lockstep through a [`SessionBatch`] must
//! reproduce exactly the per-session run-log digest. Also covers
//! customised pipelines inside a batch: a stage swapped via
//! `replace_stage` and a pipeline extended via `insert_stage_after` must
//! leave the digests bit-identical too.

use proptest::prelude::*;
use rdsim_core::pipeline::UplinkStage;
use rdsim_core::{
    Digestible, FixedRun, PaperFault, RdsSession, RdsSessionConfig, ScriptedOperator, SessionBatch,
    Stage, StageContext,
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
    /// Expands one 64-bit draw into a recipe (the property strategies
    /// draw a base seed and index-salt it per batch slot).
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

fn salted(base: u64, i: usize) -> u64 {
    base.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0xD1B5_4A32_D192_ED03_u64.wrapping_mul(i as u64 + 1))
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
    // Distinct per-seed throttle so sessions in a batch diverge.
    ScriptedOperator::constant(ControlInput::new(0.2 + (r.seed % 5) as f64 * 0.1, 0.0, 0.0))
}

fn serial_digest(r: &Recipe) -> u64 {
    let mut s = build(r);
    let mut op = operator(r);
    for _ in 0..r.steps {
        s.step(&mut op);
    }
    s.into_log().digest()
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
    /// Random fault grammar × random batch width × random per-session
    /// retirement: the lockstep batch reproduces the exact serial digests.
    #[test]
    fn lockstep_matches_serial_digests(
        base in proptest::num::u64::ANY,
        width in 1usize..=6,
    ) {
        let recipes: Vec<Recipe> =
            (0..width).map(|i| Recipe::from_bits(salted(base, i))).collect();
        let serial: Vec<u64> = recipes.iter().map(serial_digest).collect();

        let mut batch = SessionBatch::new();
        for r in &recipes {
            batch.push(build(r), FixedRun::new(operator(r), r.steps));
        }
        batch.run_to_completion();
        prop_assert_eq!(batch.live_count(), 0);
        let batched: Vec<u64> = batch
            .finish()
            .into_iter()
            .map(|(s, _)| s.into_log().digest())
            .collect();
        prop_assert_eq!(serial, batched);
    }

    /// Mixed-pipeline batch: one session has its uplink stage replaced by
    /// a delegating wrapper and another has an extra no-op stage; the
    /// rest run the default pipeline. All digests must still match the
    /// plain serial reference, since neither change alters behaviour.
    #[test]
    fn mixed_mode_demotions_stay_digest_identical(
        base in proptest::num::u64::ANY,
        width in 3usize..=6,
    ) {
        let recipes: Vec<Recipe> =
            (0..width).map(|i| Recipe::from_bits(salted(base, i))).collect();
        let serial: Vec<u64> = recipes.iter().map(serial_digest).collect();

        let mut batch = SessionBatch::new();
        for (i, r) in recipes.iter().enumerate() {
            let mut s = build(r);
            if i == 0 {
                prop_assert!(s.replace_stage("uplink", Box::new(WrappedUplink::default())));
            } else if i == 1 {
                prop_assert!(s.insert_stage_after("logging", Box::new(NoopStage)));
            }
            batch.push(s, FixedRun::new(operator(r), r.steps));
        }
        batch.run_to_completion();
        let batched: Vec<u64> = batch
            .finish()
            .into_iter()
            .map(|(s, _)| s.into_log().digest())
            .collect();
        prop_assert_eq!(serial, batched);
    }

}
