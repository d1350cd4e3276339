//! Per-stage cost profile of the paper workload: runs the first roster
//! subject's faulty protocol run — the Town-5 course with its eight road
//! users, the driver model and the paper's fault windows — with
//! telemetry on, five times, and prints every `*_ns` histogram's mean
//! (median and min–max over the runs) sorted by total time.
//! The `session.stage.*_ns` rows are the quickest way to see where a
//! tick's budget goes (this is how the `RoadNetwork::project` hotspots
//! behind the AABB pruning and the per-actor projection cache in
//! `World` were found). The header rows set the wall time of
//! `run_protocol` per step against the staged total; the remainder is
//! the tick's un-staged part — the protocol driver's `pre_step`, the step
//! loop, and the run's setup and finish.
//!
//! ```text
//! cargo run --release --example profile_stages
//! ```

use rdsim::core::RunKind;
use rdsim::experiments::{paper_roster, run_protocol, run_seed, ScenarioConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// Runs per profile: consecutive runs differ by microseconds per tick,
/// so every row reports its spread.
const REPEATS: usize = 5;

/// `(median, min, max)` of `values`.
fn spread(values: &mut [f64]) -> (f64, f64, f64) {
    values.sort_by(f64::total_cmp);
    (
        values[values.len() / 2],
        values[0],
        values[values.len() - 1],
    )
}

fn print_row(label: &str, count: u64, values: &mut [f64]) {
    let (median, min, max) = spread(values);
    println!("{label:44} count={count:7}  mean={median:8.0} ns  ({min:.0} – {max:.0})");
}

fn main() {
    let seed = 424_242u64;
    let entry = paper_roster().swap_remove(0);
    let config = ScenarioConfig {
        telemetry: true,
        ..ScenarioConfig::default()
    };
    let run_seed = run_seed(seed, &entry.profile.id, RunKind::Faulty);
    let mut steps = 0u64;
    let mut wall = Vec::with_capacity(REPEATS);
    let mut staged = Vec::with_capacity(REPEATS);
    // Histogram name → (count, mean ns of each run).
    let mut rows: BTreeMap<String, (u64, Vec<f64>)> = BTreeMap::new();
    for _ in 0..REPEATS {
        let started = Instant::now();
        let out = run_protocol(&entry.profile, RunKind::Faulty, run_seed, &config);
        let wall_ns = started.elapsed().as_nanos() as f64;
        let t = &out.telemetry;
        steps = t
            .histograms
            .get("session.stage.vehicle_ns")
            .map_or(0, |h| h.count)
            .max(1);
        let mut staged_ns = 0u128;
        for (k, h) in t.histograms.iter().filter(|(k, _)| k.ends_with("_ns")) {
            if k.starts_with("session.stage.") {
                staged_ns += h.sum;
            }
            let row = rows.entry(k.clone()).or_default();
            row.0 = h.count;
            row.1.push(h.sum as f64 / h.count.max(1) as f64);
        }
        wall.push(wall_ns / steps as f64);
        staged.push(staged_ns as f64 / steps as f64);
    }
    let mut unstaged: Vec<f64> = wall.iter().zip(&staged).map(|(w, s)| w - s).collect();
    println!(
        "{} faulty run ×{REPEATS}: {steps} steps per run; ns per step, median (min – max)",
        entry.profile.id
    );
    print_row("wall (run_protocol)", steps, &mut wall);
    print_row("staged total (session.stage.*)", steps, &mut staged);
    print_row(
        "un-staged (driver pre_step, loop, setup)",
        steps,
        &mut unstaged,
    );
    println!();
    let mut rows: Vec<(String, u64, Vec<f64>)> =
        rows.into_iter().map(|(k, (c, v))| (k, c, v)).collect();
    let median_total = |(_, c, v): &(String, u64, Vec<f64>)| {
        let mut v = v.clone();
        spread(&mut v).0 * *c as f64
    };
    rows.sort_by(|a, b| median_total(b).total_cmp(&median_total(a)));
    for (k, c, mut means) in rows {
        print_row(&k, c, &mut means);
    }
}
