//! Per-stage cost profile of the paper workload: runs the first roster
//! subject's faulty protocol run — the Town-5 course with its eight road
//! users, the driver model and the paper's fault windows — with
//! telemetry on, and prints every `*_ns` histogram sorted by total time.
//! The `session.stage.*_ns` rows are the quickest way to see where a
//! tick's budget goes (this is how the `RoadNetwork::project` hotspots
//! behind the AABB pruning and the per-actor projection cache in
//! `World` were found).
//!
//! ```text
//! cargo run --release --example profile_stages
//! ```

use rdsim::core::RunKind;
use rdsim::experiments::{paper_roster, run_protocol, run_seed, ScenarioConfig};

fn main() {
    let seed = 424_242u64;
    let entry = paper_roster().swap_remove(0);
    let config = ScenarioConfig {
        telemetry: true,
        ..ScenarioConfig::default()
    };
    let out = run_protocol(
        &entry.profile,
        RunKind::Faulty,
        run_seed(seed, &entry.profile.id, RunKind::Faulty),
        &config,
    );
    let t = &out.telemetry;
    let steps = t
        .histograms
        .get("session.stage.vehicle_ns")
        .map_or(0, |h| h.count);
    let mut rows: Vec<(&str, u64, u128)> = t
        .histograms
        .iter()
        .filter(|(k, _)| k.ends_with("_ns"))
        .map(|(k, h)| (k.as_str(), h.count, h.sum))
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.2));
    let total: u128 = rows
        .iter()
        .filter(|(k, _, _)| k.starts_with("session.stage."))
        .map(|r| r.2)
        .sum();
    println!(
        "{} faulty run: {steps} steps, total staged ns {total} ({} ns/step)",
        entry.profile.id,
        total / u128::from(steps.max(1))
    );
    for (k, c, sum) in rows {
        println!(
            "{k:40} count={c:7} sum={sum:12} ns  mean={:7} ns",
            sum / u128::from(c.max(1))
        );
    }
}
