//! Oracle tests for the per-window safety timeline.
//!
//! The timeline is a *decomposition* of signals the session already
//! measures, so it must reconcile exactly with the whole-run telemetry:
//! the per-window frame/command age counts and sums partition the
//! `session.frame_age_us` / `session.command_age_us` histogram totals,
//! and within every window the four latency legs (encode, queue,
//! propagation, display) sum back to the recorded frame age — all in
//! integer microseconds, so "exactly" means `==`, not a tolerance.
//! The link counts reconcile the same way: the per-window qdisc outcomes
//! partition the `netem.*` counters, and the `session.fault_window.*`
//! split accounts for every packet the two links took in and gave out.

use rdsim_core::{Digestible, RdsSession, RdsSessionConfig, ScriptedOperator};
use rdsim_netem::{InjectionWindow, NetemConfig};
use rdsim_obs::{Registry, RunTelemetry, Timeline, TimelineWindow};
use rdsim_roadnet::town05;
use rdsim_simulator::{CameraConfig, World};
use rdsim_units::{Hertz, Millis, Ratio, SimDuration, SimTime};
use rdsim_vehicle::{ControlInput, VehicleSpec};

const STEPS: u64 = 900;

/// Every qdisc branch live at once, so all four legs are exercised.
fn stress_config() -> NetemConfig {
    NetemConfig::default()
        .with_jittered_delay(Millis::new(60.0), Millis::new(20.0), Ratio::new(0.25))
        .with_loss(Ratio::new(0.02))
        .with_duplicate(Ratio::new(0.05))
        .with_corrupt(Ratio::new(0.05))
        .with_reorder(Ratio::new(0.05), 3)
        .with_rate(40_000_000)
}

fn run() -> (Timeline, RunTelemetry) {
    run_with(4_242, stress_config())
}

/// Runs one session with `fault` injected from 3 s to 11 s, ending it with
/// `into_log` so the run's telemetry is complete before the snapshot.
fn run_with(seed: u64, fault: NetemConfig) -> (Timeline, RunTelemetry) {
    let mut world = World::new(town05(), seed);
    world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
    let registry = Registry::new();
    let config = RdsSessionConfig {
        camera: CameraConfig::fixed(Hertz::new(25.0), 2_000),
        recorder: registry.recorder(),
        timeline: true,
        ..RdsSessionConfig::default()
    };
    let mut s = RdsSession::new(world, config, seed);
    s.schedule_fault(InjectionWindow::new(
        SimTime::from_secs(3),
        SimDuration::from_secs(8),
        fault,
    ))
    .expect("one window");
    s.preallocate(SimDuration::from_secs(20));
    let mut operator = ScriptedOperator::constant(ControlInput::new(0.3, 0.05, 0.0));
    for _ in 0..STEPS {
        s.step(&mut operator);
    }
    let timeline = s.take_timeline();
    s.into_log();
    (timeline, registry.snapshot())
}

#[test]
fn window_sums_reconcile_with_run_totals() {
    let (tl, t) = run();
    assert!(!tl.is_empty(), "timeline was enabled");

    // Frame ages: the windows partition the whole-run histogram exactly.
    let fa = t.histogram("session.frame_age_us").expect("frame ages");
    let count: u64 = tl.windows().iter().map(|w| w.frame_count).sum();
    let sum: u128 = tl
        .windows()
        .iter()
        .map(|w| u128::from(w.frame_age_sum_us))
        .sum();
    assert!(count > 0, "frames were delivered");
    assert_eq!(count, fa.count, "per-window frame counts partition the run");
    assert_eq!(sum, fa.sum, "per-window frame age sums partition the run");
    let max = tl.windows().iter().map(|w| w.frame_age_max_us).max();
    assert_eq!(max, Some(fa.max), "the worst window holds the run maximum");

    // Command ages: same reconciliation.
    let ca = t.histogram("session.command_age_us").expect("command ages");
    let count: u64 = tl.windows().iter().map(|w| w.cmd_count).sum();
    let sum: u128 = tl
        .windows()
        .iter()
        .map(|w| u128::from(w.cmd_age_sum_us))
        .sum();
    assert!(count > 0, "commands were actuated");
    assert_eq!(count, ca.count);
    assert_eq!(sum, ca.sum);

    // The per-leg decomposition is exact within every window.
    let mut delayed_legs = false;
    for w in tl.windows() {
        assert_eq!(
            w.encode_sum_us + w.queue_sum_us + w.prop_sum_us + w.display_sum_us,
            w.frame_age_sum_us,
            "legs must sum to the glass-to-glass age"
        );
        assert!(w.frame_age_max_us <= fa.max);
        delayed_legs |= w.queue_sum_us + w.prop_sum_us > 0;
    }
    assert!(
        delayed_legs,
        "the fault window put time on the network legs"
    );

    // The fault window shows up in the bitmask, and quiet time does not.
    let faulted = tl.windows().iter().filter(|w| w.fault_bits != 0).count();
    assert!(faulted >= 8, "the 8 s injection spans at least 8 windows");
    assert!(
        tl.windows().iter().any(|w| w.fault_bits == 0),
        "pre/post-fault windows are clean"
    );
}

#[test]
fn timeline_is_deterministic() {
    let (a, ta) = run();
    let (b, tb) = run();
    assert_eq!(a, b);
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(
        ta.histogram("session.frame_age_us").map(|h| h.count),
        tb.histogram("session.frame_age_us").map(|h| h.count)
    );
}

#[test]
fn link_ledger_reconciles_across_views() {
    // A slow link with a 4-packet queue on top of the stress rule, so tail
    // drops join the loss, duplicate and reorder outcomes.
    let (tl, t) = run_with(4_243, stress_config().with_rate(200_000).with_limit(4));
    let netem = |dir: &str, outcome: &str| t.counter(&format!("netem.{dir}.{outcome}"));
    let both = |outcome: &str| netem("uplink", outcome) + netem("downlink", outcome);
    let win = |field: fn(&TimelineWindow) -> u64| tl.windows().iter().map(field).sum::<u64>();
    let per_window: [(&str, &str, u64); 8] = [
        ("uplink", "dropped", win(|w| w.up_dropped)),
        ("uplink", "queue_dropped", win(|w| w.up_queue_dropped)),
        ("uplink", "duplicated", win(|w| w.up_duplicated)),
        ("uplink", "reordered", win(|w| w.up_reordered)),
        ("downlink", "dropped", win(|w| w.down_dropped)),
        ("downlink", "queue_dropped", win(|w| w.down_queue_dropped)),
        ("downlink", "duplicated", win(|w| w.down_duplicated)),
        ("downlink", "reordered", win(|w| w.down_reordered)),
    ];
    for (dir, outcome, sum) in per_window {
        assert_eq!(
            sum,
            netem(dir, outcome),
            "timeline windows partition netem.{dir}.{outcome}"
        );
    }
    for outcome in ["dropped", "queue_dropped", "duplicated", "reordered"] {
        assert!(both(outcome) > 0, "the rule exercised {outcome}");
    }

    // The fault-window split accounts for every packet the links handled.
    let split = |outcome: &str| {
        t.counter(&format!("session.fault_window.inside.{outcome}"))
            + t.counter(&format!("session.fault_window.outside.{outcome}"))
    };
    assert_eq!(split("sent"), both("enqueued"));
    assert_eq!(split("dropped"), both("dropped"));
    assert_eq!(split("delivered") + split("corrupted"), both("dequeued"));
}
