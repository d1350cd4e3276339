//! Session-pipeline bench: serial vs batched stepping throughput.
//!
//! Not a criterion bench — a custom harness that steps the same 32
//! sessions to completion serially (plain `session.step()` loops) and
//! at lockstep batch widths 1, 4, 8, 16 and 32
//! ([`rdsim_core::SessionBatch`]), prints the per-width steps/sec curve,
//! re-checks that every width reproduces the serial run-log digests bit
//! for bit, and writes a machine-readable `BENCH_session.json` at the
//! workspace root. The recorded numbers are honest medians on whatever
//! hardware ran the bench; `available_parallelism` is recorded next to
//! them because batching amortizes per-run overhead and cache misses,
//! not cores — on any machine the digests must match, which is the
//! check that matters.
//!
//! `lockstep_overhead` is the median batch-8 wall time over the median
//! serial wall time, both taken from the same interleaved serial/batch-8
//! pairs so machine drift hits both sides alike. It is gated in-bench:
//! the batch's scheduling scan must stay cheap next to the steps it
//! schedules, or this bench fails.

use rdsim_bench::report::{Group, Report};
use rdsim_core::{
    Digestible, FixedRun, PaperFault, RdsSession, RdsSessionConfig, ScriptedOperator, SessionBatch,
};
use rdsim_netem::InjectionWindow;
use rdsim_roadnet::town05;
use rdsim_simulator::{CameraConfig, World};
use rdsim_units::{Hertz, SimDuration, SimTime};
use rdsim_vehicle::{ControlInput, VehicleSpec};
use std::time::Instant;

/// Timed samples per batch size (median reported).
const SAMPLES: usize = 3;
/// Sessions stepped per sample.
const SESSIONS: usize = 32;
/// Steps per session (20 s of sim time at 50 Hz).
const STEPS: u64 = 1_000;
/// Lockstep widths the curve is measured at.
const WIDTHS: [usize; 5] = [1, 4, 8, 16, 32];
/// Interleaved serial/batch-8 pairs timed for `lockstep_overhead`.
const OVERHEAD_PAIRS: usize = 5;
/// In-bench gate: batch-8 may take at most this factor of the serial
/// wall time for the same sessions.
const MAX_LOCKSTEP_OVERHEAD: f64 = 1.25;
/// In-bench gate for the finite-queue datapath: the same batch-8 sweep
/// with every fault window carrying a rate limit — so the BDP-sized
/// queue, its tail-drop accounting and the serialization clock are live
/// for the whole window — may take at most this factor of the plain
/// batch-8 wall time. The limit check itself is one branch per enqueue;
/// the headroom is for the rate path it enables.
const MAX_QUEUE_OVERHEAD: f64 = 1.4;
/// Rate attached to the fault windows of the queue-overhead sweep:
/// 1 Mbit/s against 400 kbit/s of video oversubscribes nothing, but
/// keeps the serialization clock and finite-limit check on every packet.
const QUEUE_SWEEP_RATE: u64 = 1_000_000;

fn session(i: usize) -> RdsSession {
    session_with(i, false)
}

fn session_with(i: usize, rate_limited: bool) -> RdsSession {
    let seed = 1_000 + i as u64;
    let mut world = World::new(town05(), seed);
    world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
    let config = RdsSessionConfig {
        camera: CameraConfig::fixed(Hertz::new(25.0), 2_000),
        ..RdsSessionConfig::default()
    };
    let mut s = RdsSession::new(world, config, seed);
    // Exercise the netem stages: a real fault window mid-run. The
    // queue-overhead sweep adds a rate so the window runs the finite
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

/// Steps all `SESSIONS` sessions to completion one at a time through the
/// plain serial path; returns (wall secs, per-session run-log digests).
fn run_serial() -> (f64, Vec<u64>) {
    let start = Instant::now();
    let mut digests = Vec::with_capacity(SESSIONS);
    for i in 0..SESSIONS {
        let mut s = session(i);
        let mut op = operator(i);
        for _ in 0..STEPS {
            s.step(&mut op);
        }
        digests.push(s.into_log().digest());
    }
    (start.elapsed().as_secs_f64(), digests)
}

/// Steps all `SESSIONS` sessions to completion in lockstep groups of
/// `batch`; returns (wall secs, per-session run-log digests).
fn run_batched(batch: usize) -> (f64, Vec<u64>) {
    run_batched_with(batch, false)
}

fn run_batched_with(batch: usize, rate_limited: bool) -> (f64, Vec<u64>) {
    let start = Instant::now();
    let mut digests = Vec::with_capacity(SESSIONS);
    let mut i = 0;
    while i < SESSIONS {
        let group = batch.min(SESSIONS - i);
        let mut b = SessionBatch::new();
        for j in i..i + group {
            b.push(
                session_with(j, rate_limited),
                FixedRun::new(operator(j), STEPS),
            );
        }
        b.run_to_completion();
        digests.extend(b.finish().into_iter().map(|(s, _)| s.into_log().digest()));
        i += group;
    }
    (start.elapsed().as_secs_f64(), digests)
}

fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// Runs `f` once and checks its digests against the serial reference;
/// returns the wall seconds.
fn checked(f: impl Fn() -> (f64, Vec<u64>), what: &str, reference: &[u64]) -> f64 {
    let (secs, digests) = f();
    assert_eq!(
        digests, reference,
        "digest drift at {what} — lockstep changed results"
    );
    secs
}

/// Median wall seconds over `SAMPLES` runs of `f`, digest-checked
/// against the serial reference.
fn time_runs(f: impl Fn() -> (f64, Vec<u64>), what: &str, reference: &[u64]) -> f64 {
    median((0..SAMPLES).map(|_| checked(&f, what, reference)).collect())
}

fn main() {
    let _ = std::env::args();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let total_steps = SESSIONS as u64 * STEPS;
    let rate = |secs: f64| total_steps as f64 / secs;

    // Warm-up also produces the serial reference digests every timed run
    // is checked against.
    let (warm, reference) = run_serial();
    eprintln!("warm-up: {warm:.3} s for {SESSIONS} sessions × {STEPS} steps (serial)");

    let serial = time_runs(run_serial, "serial", &reference);
    let widths: Vec<(usize, f64)> = WIDTHS
        .iter()
        .map(|&w| {
            (
                w,
                time_runs(|| run_batched(w), &format!("batch {w}"), &reference),
            )
        })
        .collect();

    println!(
        "== session pipeline ({SESSIONS} sessions × {STEPS} steps × {SAMPLES} samples, {cores} core(s)) =="
    );
    println!("serial: {serial:.3} s  ({:.0} steps/sec)", rate(serial));
    for &(w, secs) in &widths {
        println!(
            "batch={w}: {secs:.3} s  ({:.0} steps/sec, {:.2}× vs serial)",
            rate(secs),
            serial / secs
        );
    }

    // The queue-overhead sweep: same batch-8 lockstep, but the fault
    // windows carry a rate so the finite BDP queue is live. Digests
    // differ from the plain reference (the rate delays packets), so the
    // check here is self-consistency across samples.
    let (_, queue_reference) = run_batched_with(8, true);
    let queue_b8 = time_runs(
        || run_batched_with(8, true),
        "batch 8 + finite queue",
        &queue_reference,
    );

    let b8 = widths
        .iter()
        .find(|(w, _)| *w == 8)
        .map(|&(_, secs)| secs)
        .expect("width 8 measured");
    let queue_overhead = queue_b8 / b8;
    println!(
        "queue overhead: batch=8 with rate-limited windows {queue_b8:.3} s \
         ({:.0} steps/sec, {queue_overhead:.2}× plain batch-8)",
        rate(queue_b8)
    );
    assert!(
        queue_overhead <= MAX_QUEUE_OVERHEAD,
        "finite-queue regression: rate-limited batch-8 took {queue_overhead:.2}× the plain \
         sweep (gate: {MAX_QUEUE_OVERHEAD}×)"
    );

    // Same-run lockstep overhead: serial and batch-8 samples alternate,
    // so both medians see the same machine conditions.
    let (pair_serial, pair_b8): (Vec<f64>, Vec<f64>) = (0..OVERHEAD_PAIRS)
        .map(|_| {
            (
                checked(run_serial, "serial", &reference),
                checked(|| run_batched(8), "batch 8", &reference),
            )
        })
        .unzip();
    let lockstep_overhead = median(pair_b8) / median(pair_serial);
    println!(
        "lockstep_overhead: batch=8 takes {lockstep_overhead:.2}× serial \
         ({OVERHEAD_PAIRS} interleaved pairs)"
    );
    assert!(
        lockstep_overhead <= MAX_LOCKSTEP_OVERHEAD,
        "lockstep regression: batch-8 took {lockstep_overhead:.2}× the serial wall time \
         (gate: {MAX_LOCKSTEP_OVERHEAD}×)"
    );

    let mut secs_group = Group::new().float("serial", serial, 6);
    let mut rate_group = Group::new().float("serial", rate(serial), 0);
    let mut speedup_group = Group::new();
    for &(w, secs) in &widths {
        secs_group = secs_group.float(&format!("batch_{w}"), secs, 6);
        rate_group = rate_group.float(&format!("batch_{w}"), rate(secs), 0);
        speedup_group = speedup_group.float(&format!("batch_{w}"), serial / secs, 3);
    }

    let mut report = Report::new("session_batched");
    report
        .uint("sessions", SESSIONS as u64)
        .uint("steps_per_session", STEPS)
        .uint("samples", SAMPLES as u64)
        .uint("available_parallelism", cores as u64)
        .group("median_secs", secs_group)
        .group("steps_per_sec", rate_group)
        .group("speedup_vs_serial", speedup_group)
        .float("lockstep_overhead", lockstep_overhead, 3)
        .float("queue_overhead", queue_overhead, 3)
        .bool("queue_overhead_ok", queue_overhead <= MAX_QUEUE_OVERHEAD)
        .bool("digest_match", true);
    report.write("session");
}
