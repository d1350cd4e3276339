//! The per-layer table of a traced pass, named after the repository's
//! crates. Each figure is read from outside the program: from telemetry the
//! program already exports, from the benchmark's own spans around public
//! calls, or from replaying public layer functions on inputs the pass
//! captured.

use crate::spans::{SpanId, Spans};
use crate::workload::{Capture, Prepared};
use crate::Metric;
use rdsim_experiments::{summarize_run, SCENARIO};
use rdsim_obs::{CampaignStore, RunTelemetry};
use std::hint::black_box;
use std::time::Instant;

/// The session pipeline's stages, in tick order.
const STAGES: [&str; 10] = [
    "fault_window",
    "vehicle",
    "capture",
    "uplink",
    "display",
    "operator",
    "downlink",
    "actuate",
    "safety",
    "logging",
];

const DIRECTIONS: [&str; 2] = ["uplink", "downlink"];
const NETEM_COUNTS: [&str; 4] = ["enqueued", "dequeued", "dropped", "queue_dropped"];

/// Every per-layer metric as `(name, unit)`, in report order.
pub fn names() -> Vec<(String, &'static str)> {
    let mut out = vec![("core.steps".to_owned(), "count")];
    for stage in STAGES {
        out.push((format!("core.stage.{stage}_ns.mean"), "ns"));
        out.push((format!("core.stage.{stage}_ns.p99"), "ns"));
    }
    out.push(("roadnet.project_ns".to_owned(), "ns"));
    out.push(("simulator.codec.encode_ns".to_owned(), "ns"));
    out.push(("simulator.codec.decode_ns".to_owned(), "ns"));
    out.push(("simulator.frames".to_owned(), "count"));
    for dir in DIRECTIONS {
        for count in NETEM_COUNTS {
            out.push((format!("netem.{dir}.{count}"), "count"));
        }
        out.push((format!("netem.{dir}.deliver_ratio"), "ratio"));
    }
    out.push(("experiments.executor.busy_frac".to_owned(), "ratio"));
    out.push(("experiments.executor.chunk_ms.p50".to_owned(), "ms"));
    out.push(("experiments.executor.chunk_ms.p90".to_owned(), "ms"));
    out.push(("experiments.sampler.plan_ms".to_owned(), "ms"));
    out.push(("experiments.runs".to_owned(), "count"));
    out.push(("obs.store_fold_us_per_run".to_owned(), "us"));
    out.push(("obs.trace_ring.recorded_per_step".to_owned(), "events/step"));
    out.push(("obs.telemetry_overhead_pct".to_owned(), "%"));
    out.push(("metrics.analysis_ms".to_owned(), "ms"));
    out
}

/// Results of the outside-in replays on a pass's captured inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replays {
    /// Mean ns per `RoadNetwork::project` over the logged positions
    /// (0 when the workload's public API returns no run records).
    pub project_ns: f64,
    /// Mean µs per run of `summarize_run` + `CampaignStore::fold` (fold
    /// only, over checkpointed summaries, where no outputs are returned).
    pub fold_us: f64,
}

/// Replays `RoadNetwork::project` and the store fold on `cap`, each in its
/// own span.
pub fn replay(prep: &Prepared, cap: &Capture, spans: &Spans, parent: Option<SpanId>) -> Replays {
    let mut out = Replays::default();
    if !cap.positions.is_empty() {
        out.project_ns = spans.span(parent, "replay.roadnet.project", |_| {
            let started = Instant::now();
            for &p in &cap.positions {
                black_box(prep.net.project(black_box(p)));
            }
            started.elapsed().as_nanos() as f64 / cap.positions.len() as f64
        });
    }
    let runs = cap.outputs.len().max(cap.summaries.len());
    if runs > 0 {
        out.fold_us = spans.span(parent, "replay.obs.store_fold", |_| {
            let started = Instant::now();
            let mut store = CampaignStore::new();
            for (i, output) in cap.outputs.iter().enumerate() {
                store.fold(&summarize_run(SCENARIO, i as u64, black_box(output), 0));
            }
            for summary in &cap.summaries {
                store.fold(black_box(summary));
            }
            black_box(&store);
            started.elapsed().as_nanos() as f64 / 1e3 / runs as f64
        });
    }
    out
}

/// Fills the figures measured once per run into a per-layer table: the
/// replays and the tracing overhead (untraced against traced median
/// steps per second, in percent).
pub fn finish(table: &mut [Metric], replays: Replays, overhead_pct: f64) {
    for m in table {
        match m.name.as_str() {
            "roadnet.project_ns" => m.value = replays.project_ns,
            "obs.store_fold_us_per_run" => m.value = replays.fold_us,
            "obs.telemetry_overhead_pct" => m.value = overhead_pct,
            _ => {}
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer table of one traced pass, in [`names`] order. The replay
/// figures and the tracing overhead read 0 until [`finish`] fills them in.
pub fn table(cap: &Capture, ticks: u64, runs: u64, jobs: usize) -> Vec<Metric> {
    let t: &RunTelemetry = &cap.telemetry;
    let names = names();
    let mut values: Vec<f64> = vec![ticks as f64];
    for stage in STAGES {
        let h = t.histogram(&format!("session.stage.{stage}_ns"));
        values.push(h.map_or(0.0, |h| h.mean()));
        values.push(h.map_or(0.0, |h| h.p99() as f64));
    }
    values.push(0.0); // roadnet.project_ns
    let encode = t.histogram("codec.encode_ns");
    values.push(encode.map_or(0.0, |h| h.mean()));
    values.push(t.histogram("codec.decode_ns").map_or(0.0, |h| h.mean()));
    values.push(encode.map_or(0, |h| h.count) as f64);
    for dir in DIRECTIONS {
        for count in NETEM_COUNTS {
            values.push(t.counter(&format!("netem.{dir}.{count}")) as f64);
        }
        values.push(ratio(
            t.counter(&format!("netem.{dir}.dequeued")) as f64,
            t.counter(&format!("netem.{dir}.enqueued")) as f64,
        ));
    }
    values.push(ratio(
        cap.busy_ns as f64,
        jobs as f64 * cap.exec_wall_ns as f64,
    ));
    values.push(cap.chunk_ns.p50() as f64 / 1e6);
    values.push(cap.chunk_ns.p90() as f64 / 1e6);
    values.push(cap.plan_ns as f64 / 1e6);
    values.push(runs as f64);
    values.push(0.0); // obs.store_fold_us_per_run
    values.push(ratio(
        t.counter("session.trace.recorded") as f64,
        ticks as f64,
    ));
    values.push(0.0); // obs.telemetry_overhead_pct
    values.push(cap.analysis_ns as f64 / 1e6);
    debug_assert_eq!(values.len(), names.len());
    names
        .into_iter()
        .zip(values)
        .map(|((name, unit), value)| Metric { name, value, unit })
        .collect()
}
