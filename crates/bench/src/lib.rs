//! Benchmark support crate.
//!
//! The actual benchmarks live in `benches/`:
//!
//! * `tables.rs` — regeneration cost of Tables II–IV (E2–E4) plus the
//!   underlying protocol runs, printing the headline rows once;
//! * `figures.rs` — Fig. 4 extraction (E5) and collision/questionnaire
//!   summaries (E6–E7);
//! * `validity.rs` — the §VIII sweep points (E8–E9);
//! * `substrates.rs` — micro-benchmarks of the substrates the system is
//!   built on (netem qdisc, world stepping, metric kernels, PRNG).
//!
//! This library exposes the shared fixture helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

use rdsim_core::{RunKind, RunRecord};
use rdsim_experiments::{run_protocol, RunOutput, ScenarioConfig};
use rdsim_operator::SubjectProfile;
use rdsim_units::SimDuration;

/// A protocol-run configuration small enough to benchmark repeatedly:
/// ~250 m of the course covering the vehicle-following scenario and the
/// first fault point.
pub fn bench_config() -> ScenarioConfig {
    ScenarioConfig {
        laps: 1,
        progress_target: Some(250.0),
        max_duration: SimDuration::from_secs(60),
        ..ScenarioConfig::default()
    }
}

/// Runs one golden/faulty output pair for fixtures, with telemetry
/// enabled so the benches can report from [`RunOutput::telemetry`]
/// instead of ad-hoc printouts.
pub fn fixture_outputs(seed: u64) -> (RunOutput, RunOutput) {
    let profile = SubjectProfile::typical("bench");
    let cfg = ScenarioConfig {
        telemetry: true,
        ..bench_config()
    };
    let golden = run_protocol(&profile, RunKind::Golden, seed, &cfg);
    let faulty = run_protocol(&profile, RunKind::Faulty, seed, &cfg);
    (golden, faulty)
}

/// Runs one golden/faulty record pair for fixtures.
pub fn fixture_pair(seed: u64) -> (RunRecord, RunRecord) {
    let (golden, faulty) = fixture_outputs(seed);
    (golden.record, faulty.record)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let (golden, faulty) = fixture_pair(5);
        assert!(!golden.log.ego_samples().is_empty());
        assert_eq!(golden.kind, Some(RunKind::Golden));
        assert_eq!(faulty.kind, Some(RunKind::Faulty));
    }
}
