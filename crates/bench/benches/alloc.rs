//! Allocation bench: steady-state heap allocations per session step.
//!
//! Not a criterion bench — a custom harness that installs the
//! [`rdsim_obs::CountingAlloc`] global allocator, steps one full
//! remote-driving session (camera → netem uplink → display →
//! operator → netem downlink → actuate, under a combined
//! delay/loss/duplicate/corrupt/reorder fault), and counts allocator
//! events over the steady-state window. Warm-up covers one complete
//! fault window plus the opening edge of a second, so the camera's
//! snapshot ring and every scratch buffer reach their high-water marks
//! before counting starts;
//! the measured window then runs entirely *inside* the still-open second
//! window — every qdisc branch live, no window-edge bookkeeping — so
//! "zero" really means zero across the whole datapath.
//!
//! Unlike the wall-clock benches (which honestly read ≈1× on a 1-core
//! runner), allocation counts are deterministic and machine-independent,
//! which is what makes `BENCH_alloc.json` gateable in CI. The `before`
//! block records the same measurement taken on the tree immediately
//! before the pooled-datapath refactor (same workload, same constants),
//! so the file documents the before → after drop.

use rdsim_bench::report::{Group, Report};
use rdsim_core::{RdsSession, RdsSessionConfig, ScriptedOperator};
use rdsim_netem::{InjectionWindow, NetemConfig};
use rdsim_obs::{alloc_counts, Registry};
use rdsim_roadnet::town05;
use rdsim_simulator::{CameraConfig, World};
use rdsim_units::{Hertz, Millis, Ratio, SimDuration, SimTime};
use rdsim_vehicle::{ControlInput, VehicleSpec};

#[global_allocator]
static ALLOC: rdsim_obs::CountingAlloc = rdsim_obs::CountingAlloc;

/// Steps before counting starts: 7 s at 50 Hz, past the first fault
/// window (2 s – 4 s) and the second window's opening edge (6 s), so
/// pools/scratch hit their high-water mark.
const WARMUP_STEPS: u64 = 350;
/// Counted steps: 13 s more, entirely inside the still-open second
/// fault window (6 s – 60 s) — every netem branch active throughout.
const MEASURE_STEPS: u64 = 650;

/// Pre-refactor baseline, measured by this exact harness on the tree
/// before the pooled buffers / reusable scratch landed (workspace at
/// commit "Decompose RdsSession::step into a staged pipeline…").
const BEFORE_ALLOCS_PER_STEP: f64 = 10.9;
const BEFORE_BYTES_PER_STEP: f64 = 3326.1;

/// Every qdisc branch in one config: jittered delay, random loss,
/// duplication, corruption, reordering and a rate cap.
fn stress_config() -> NetemConfig {
    NetemConfig::default()
        .with_jittered_delay(Millis::new(60.0), Millis::new(20.0), Ratio::new(0.25))
        .with_loss(Ratio::new(0.02))
        .with_duplicate(Ratio::new(0.05))
        .with_corrupt(Ratio::new(0.05))
        .with_reorder(Ratio::new(0.05), 3)
        .with_rate(40_000_000)
}

fn session() -> RdsSession {
    let seed = 7_777;
    let mut world = World::new(town05(), seed);
    world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
    let config = RdsSessionConfig {
        camera: CameraConfig::fixed(Hertz::new(25.0), 2_000),
        ..RdsSessionConfig::default()
    };
    let mut s = RdsSession::new(world, config, seed);
    // Window 1 (2 s – 4 s) exercises the open/close edges during warm-up;
    // window 2 opens at 6 s and outlives the run, so the measured steps
    // see every fault branch active but no edge bookkeeping.
    s.schedule_fault(InjectionWindow::new(
        SimTime::from_secs(2),
        SimDuration::from_secs(2),
        stress_config(),
    ))
    .expect("non-overlapping windows");
    s.schedule_fault(InjectionWindow::new(
        SimTime::from_secs(6),
        SimDuration::from_secs(54),
        stress_config(),
    ))
    .expect("non-overlapping windows");
    s.preallocate(SimDuration::from_secs(20));
    s
}

fn main() {
    let _ = std::env::args();

    let mut s = session();
    let mut operator = ScriptedOperator::constant(ControlInput::new(0.3, 0.0, 0.0));

    for _ in 0..WARMUP_STEPS {
        s.step(&mut operator);
    }
    let start = alloc_counts();
    for _ in 0..MEASURE_STEPS {
        s.step(&mut operator);
    }
    let spent = alloc_counts().since(start);
    // Keep the session alive through the measurement so its drop (and the
    // log finalization) never lands in the counted window.
    let log = s.into_log();
    assert!(!log.ego_samples().is_empty(), "session did not log");

    let allocs_per_step = spent.allocs as f64 / MEASURE_STEPS as f64;
    let bytes_per_step = spent.bytes as f64 / MEASURE_STEPS as f64;

    // Surface the measurement as rdsim-obs gauges, the same instruments
    // the alloc-regression test publishes.
    let registry = Registry::new();
    let recorder = registry.recorder();
    recorder
        .gauge("session.allocs_per_step")
        .set(allocs_per_step);
    recorder
        .gauge("session.alloc_bytes_per_step")
        .set(bytes_per_step);

    println!("== steady-state allocations ({MEASURE_STEPS} steps after {WARMUP_STEPS} warm-up) ==");
    println!(
        "before: {BEFORE_ALLOCS_PER_STEP:.1} allocs/step, {BEFORE_BYTES_PER_STEP:.1} bytes/step"
    );
    println!("after:  {allocs_per_step:.1} allocs/step, {bytes_per_step:.1} bytes/step");

    let mut report = Report::new("alloc_steady_state");
    report
        .uint("warmup_steps", WARMUP_STEPS)
        .uint("measured_steps", MEASURE_STEPS)
        .group(
            "before",
            Group::new()
                .float("allocs_per_step", BEFORE_ALLOCS_PER_STEP, 1)
                .float("bytes_per_step", BEFORE_BYTES_PER_STEP, 1),
        )
        .group(
            "after",
            Group::new()
                .float("allocs_per_step", allocs_per_step, 1)
                .float("bytes_per_step", bytes_per_step, 1),
        )
        .bool("zero_steady_state", spent.allocs == 0);
    report.write("alloc");
}
