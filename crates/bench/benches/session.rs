//! Session-pipeline bench: serial stepping throughput and the cost of the
//! finite-queue datapath.
//!
//! Not a criterion bench — a custom harness that steps the same 32
//! sessions to completion one after another (plain `session.step()`
//! loops), once with plain fault windows and once with every fault
//! window rate-limited, re-checks every timed sample against the
//! reference run-log digests bit for bit, and writes a machine-readable
//! `BENCH_session.json` at the workspace root. The recorded numbers are
//! honest medians on whatever hardware ran the bench;
//! `available_parallelism` is recorded next to them.
//!
//! `queue_overhead` is the median rate-limited wall time over the median
//! plain wall time, both taken from the same interleaved plain /
//! rate-limited pairs so machine drift hits both sides alike. It is
//! gated in-bench.

use rdsim_bench::report::{Group, Report};
use rdsim_core::{Digestible, PaperFault, RdsSession, RdsSessionConfig, ScriptedOperator};
use rdsim_netem::InjectionWindow;
use rdsim_roadnet::town05;
use rdsim_simulator::{CameraConfig, World};
use rdsim_units::{Hertz, SimDuration, SimTime};
use rdsim_vehicle::{ControlInput, VehicleSpec};
use std::time::Instant;

/// Sessions stepped per sample.
const SESSIONS: usize = 32;
/// Steps per session (20 s of sim time at 50 Hz).
const STEPS: u64 = 1_000;
/// Interleaved plain / rate-limited pairs timed (medians reported).
const PAIRS: usize = 7;
/// In-bench gate for the finite-queue datapath: the same sessions with
/// every fault window carrying a rate limit — so the BDP-sized queue,
/// its tail-drop accounting and the serialization clock are live for
/// the whole window — may take at most this factor of the plain wall
/// time. The limit check itself is one branch per enqueue; the headroom
/// is for the rate path it enables.
const MAX_QUEUE_OVERHEAD: f64 = 1.4;
/// Rate attached to the fault windows of the rate-limited samples:
/// 1 Mbit/s against 400 kbit/s of video oversubscribes nothing, but
/// keeps the serialization clock and finite-limit check on every packet.
const QUEUE_SWEEP_RATE: u64 = 1_000_000;

fn session(i: usize, rate_limited: bool) -> RdsSession {
    let seed = 1_000 + i as u64;
    let mut world = World::new(town05(), seed);
    world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
    let config = RdsSessionConfig {
        camera: CameraConfig::fixed(Hertz::new(25.0), 2_000),
        ..RdsSessionConfig::default()
    };
    let mut s = RdsSession::new(world, config, seed);
    // Exercise the netem stages: a real fault window mid-run. The
    // rate-limited samples add a rate so the window runs the finite
    // BDP-sized queue and the serialization clock on every packet.
    let mut fault = PaperFault::ALL[i % PaperFault::ALL.len()].config();
    if rate_limited {
        fault = fault.with_rate(QUEUE_SWEEP_RATE);
    }
    s.schedule_fault(InjectionWindow::new(
        SimTime::from_secs(5),
        SimDuration::from_secs(5),
        fault,
    ))
    .expect("non-overlapping");
    s
}

fn operator(i: usize) -> ScriptedOperator {
    ScriptedOperator::constant(ControlInput::new(0.25 + (i % 4) as f64 * 0.05, 0.0, 0.0))
}

/// Steps all `SESSIONS` sessions to completion one at a time; returns
/// (wall secs, per-session run-log digests).
fn run_serial(rate_limited: bool) -> (f64, Vec<u64>) {
    let start = Instant::now();
    let mut digests = Vec::with_capacity(SESSIONS);
    for i in 0..SESSIONS {
        let mut s = session(i, rate_limited);
        let mut op = operator(i);
        for _ in 0..STEPS {
            s.step(&mut op);
        }
        digests.push(s.into_log().digest());
    }
    (start.elapsed().as_secs_f64(), digests)
}

fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// Runs one sample and checks its digests against the reference;
/// returns the wall seconds.
fn checked(rate_limited: bool, reference: &[u64]) -> f64 {
    let (secs, digests) = run_serial(rate_limited);
    assert_eq!(
        digests, reference,
        "digest drift (rate_limited = {rate_limited}) — stepping is not deterministic"
    );
    secs
}

fn main() {
    let _ = std::env::args();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let total_steps = SESSIONS as u64 * STEPS;
    let rate = |secs: f64| total_steps as f64 / secs;

    // Warm-up also produces the reference digests every timed sample is
    // checked against. The rate limit delays packets, so the two kinds
    // of sample have their own references.
    let (warm, reference) = run_serial(false);
    let (_, queue_reference) = run_serial(true);
    eprintln!("warm-up: {warm:.3} s for {SESSIONS} sessions × {STEPS} steps");

    let (plain, limited): (Vec<f64>, Vec<f64>) = (0..PAIRS)
        .map(|_| (checked(false, &reference), checked(true, &queue_reference)))
        .unzip();
    let (serial, serial_limited) = (median(plain), median(limited));
    let queue_overhead = serial_limited / serial;

    println!(
        "== session pipeline ({SESSIONS} sessions × {STEPS} steps × {PAIRS} pairs, {cores} core(s)) =="
    );
    println!("serial: {serial:.3} s  ({:.0} steps/sec)", rate(serial));
    println!(
        "serial, rate-limited windows: {serial_limited:.3} s  ({:.0} steps/sec)",
        rate(serial_limited)
    );
    println!("queue overhead: {queue_overhead:.2}× plain ({PAIRS} interleaved pairs)");
    assert!(
        queue_overhead <= MAX_QUEUE_OVERHEAD,
        "finite-queue regression: rate-limited stepping took {queue_overhead:.2}× the plain \
         wall time (gate: {MAX_QUEUE_OVERHEAD}×)"
    );

    let secs = Group::new()
        .float("serial", serial, 6)
        .float("rate_limited", serial_limited, 6);
    let (rate_plain, rate_limited) = (rate(serial), rate(serial_limited));
    let rates = Group::new()
        .float("serial", rate_plain, 0)
        .float("rate_limited", rate_limited, 0);
    let mut report = Report::new("session");
    report
        .uint("sessions", SESSIONS as u64)
        .uint("steps_per_session", STEPS)
        .uint("pairs", PAIRS as u64)
        .uint("available_parallelism", cores as u64)
        .group("median_secs", secs)
        .group("steps_per_sec", rates)
        .float("queue_overhead", queue_overhead, 3)
        .bool("queue_overhead_ok", queue_overhead <= MAX_QUEUE_OVERHEAD)
        .bool("digest_match", true);
    report.write("session");
}
