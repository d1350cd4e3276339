//! Campaign and run digests — the observable the determinism-equivalence
//! harness compares.
//!
//! [`run_digest`] hashes everything one run produced: the full
//! [`RunRecord`] (vehicle trajectories, collision and lane events, netem
//! injection decisions, incident marks, fault schedule), the operator-side
//! feed statistics, recomputed metric outputs (TTC series/stats, SRR), and
//! the run's telemetry fingerprint. [`campaign_digest`] folds the per-run
//! digests of a whole [`StudyResults`] in roster order, then the
//! questionnaires, the generated tables and the merged telemetry.
//!
//! Wall-clock values never enter any digest, so two executions digest
//! identically whether they ran serially, on 4 workers, or on machines of
//! different speed — that equality **is** the determinism guarantee, and
//! the golden files under `tests/` pin these values across commits.

use crate::{table2, table3, table4, RunOutput, StudyResults};
use rdsim_core::{Digestible, RunRecord};
use rdsim_math::StableHasher;
use rdsim_metrics::{steering_reversal_rate, ttc_series, SrrConfig, TtcConfig, TtcStats};
use rdsim_obs::CampaignStore;
use rdsim_operator::Questionnaire;

/// Digest of one run's full observable outcome.
pub fn run_digest(output: &RunOutput) -> u64 {
    let mut h = StableHasher::new();
    h.write_digest(record_digest(&output.record));
    h.write_u64(output.stutter_time.as_micros());
    h.write_u64(output.worst_display_gap.as_micros());
    h.write_u64(output.frames_seen);
    h.write_f64(output.progress);
    h.write_digest(output.telemetry.fingerprint());
    // Trace identity, encoded only when a trace drove the run so every
    // historical (trace-less) digest is unchanged. The trace's content is
    // already covered through the record's injection-event log.
    if let Some(condition) = &output.trace_condition {
        h.write_bool(true);
        h.write_str(condition);
    }
    h.finish()
}

/// Digest of one analysed record: the record itself plus the metric
/// outputs (TTC and SRR) recomputed from its log with the default configs,
/// so a metrics regression shows up as digest drift even when the raw
/// trajectories did not change.
pub fn record_digest(record: &RunRecord) -> u64 {
    let mut h = StableHasher::new();
    record.digest_into(&mut h);

    let ttc = ttc_series(&record.log, &TtcConfig::default());
    h.write_usize(ttc.len());
    for sample in &ttc {
        h.write_f64(sample.t);
        h.write_f64(sample.ttc.get());
    }
    digest_ttc_stats(&mut h, &TtcStats::from_samples(&ttc, &TtcConfig::default()));

    match steering_reversal_rate(&record.log.steering_series(), &SrrConfig::default()) {
        Some(srr) => {
            h.write_bool(true);
            h.write_usize(srr.reversals);
            h.write_f64(srr.duration.get());
            h.write_f64(srr.rate_per_min);
        }
        None => h.write_bool(false),
    }
    h.finish()
}

fn digest_ttc_stats(h: &mut StableHasher, stats: &Option<TtcStats>) {
    match stats {
        Some(s) => {
            h.write_bool(true);
            h.write_f64(s.max.get());
            h.write_f64(s.avg.get());
            h.write_f64(s.min.get());
            h.write_usize(s.violations);
            h.write_usize(s.samples);
        }
        None => h.write_bool(false),
    }
}

fn digest_questionnaire(h: &mut StableHasher, q: &Questionnaire) {
    h.write_str(&q.subject);
    h.write_str(&format!("{:?}", q.gaming_experience));
    h.write_bool(q.racing_games);
    h.write_str(&format!("{:?}", q.station_experience));
    h.write_u32(u32::from(q.qoe));
    h.write_bool(q.virtual_testing_useful);
    h.write_bool(q.felt_difference);
}

fn digest_f64_cell(h: &mut StableHasher, cell: &Option<f64>) {
    match cell {
        Some(v) => {
            h.write_bool(true);
            h.write_f64(*v);
        }
        None => h.write_bool(false),
    }
}

/// Digest of a whole study: per-record digests in record order (which is
/// roster order — the aggregation is order-insensitive with respect to
/// *scheduling*, not to the roster), questionnaires, the three generated
/// tables, and the merged campaign telemetry.
pub fn campaign_digest(results: &StudyResults) -> u64 {
    let mut h = StableHasher::new();

    h.write_usize(results.records.len());
    for record in &results.records {
        h.write_digest(record_digest(record));
    }

    h.write_usize(results.questionnaires.len());
    for q in &results.questionnaires {
        digest_questionnaire(&mut h, q);
    }

    let t2 = table2(results);
    h.write_usize(t2.len());
    for row in &t2 {
        h.write_str(&row.test);
        for count in row.counts {
            h.write_usize(count);
        }
        h.write_usize(row.total);
    }

    let t3 = table3(results, &TtcConfig::default());
    h.write_usize(t3.len());
    for row in &t3 {
        h.write_str(&row.test);
        digest_ttc_stats(&mut h, &row.nfi);
        for cell in &row.per_fault {
            digest_ttc_stats(&mut h, cell);
        }
    }

    let t4 = table4(results, &SrrConfig::default());
    h.write_usize(t4.len());
    for row in &t4 {
        h.write_str(&row.test);
        digest_f64_cell(&mut h, &row.nfi);
        digest_f64_cell(&mut h, &row.fi);
        for cell in &row.per_fault {
            digest_f64_cell(&mut h, cell);
        }
        digest_f64_cell(&mut h, &row.avg);
    }

    h.write_digest(results.telemetry.fingerprint());
    h.finish()
}

/// Digest of a campaign store's deterministic content, through the same
/// [`StableHasher`] layer as the run and campaign digests (the store's own
/// `fingerprint` already excludes wall clocks and `executor.*` fleet
/// instruments). This is the whole-line observable the CI
/// `schedule-invariance` job byte-diffs: identical for a single-shot
/// campaign and any interrupted-then-resumed execution of the same seed,
/// at any `--jobs`/`--batch`.
pub fn store_digest(store: &CampaignStore) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(store.runs());
    h.write_u64(store.digest_xor());
    h.write_u64(store.digest_sum());
    h.write_digest(store.fingerprint());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_protocol, ScenarioConfig};
    use rdsim_core::RunKind;
    use rdsim_operator::SubjectProfile;

    fn short_config() -> ScenarioConfig {
        ScenarioConfig {
            progress_target: Some(150.0),
            ..ScenarioConfig::quick()
        }
    }

    #[test]
    fn run_digest_is_reproducible_and_seed_sensitive() {
        let profile = SubjectProfile::typical("TD");
        let a = run_protocol(&profile, RunKind::Faulty, 7, &short_config());
        let b = run_protocol(&profile, RunKind::Faulty, 7, &short_config());
        assert_eq!(run_digest(&a), run_digest(&b), "same seed ⇒ same digest");
        let c = run_protocol(&profile, RunKind::Faulty, 8, &short_config());
        assert_ne!(run_digest(&a), run_digest(&c), "seed must reach the digest");
    }

    #[test]
    fn record_digest_reacts_to_redaction() {
        let profile = SubjectProfile::typical("TD");
        let out = run_protocol(&profile, RunKind::Golden, 7, &short_config());
        let base = record_digest(&out.record);
        let mut redacted = out.record.clone();
        redacted.log.redact_steering();
        assert_ne!(base, record_digest(&redacted));
    }
}
