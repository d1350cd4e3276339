//! The benchmark's own tests: the generated trace, the names it emits, and
//! a reduced-size pass of every workload.

use paperbench::workload::{Scale, Workload};
use paperbench::{layers, run, tracegen, Outcome, RunConfig, END_TO_END};
use rdsim_netem::TraceSchedule;
use rdsim_obs::JsonValue;
use std::path::PathBuf;

#[test]
fn generated_trace_is_deterministic_per_seed_and_parses() {
    let text = tracegen::generate(11, 300);
    assert_eq!(text, tracegen::generate(11, 300));
    assert_ne!(text, tracegen::generate(12, 300));
    let trace = TraceSchedule::parse(tracegen::TRACE_LABEL, &text).expect("the trace parses");
    assert_eq!(trace.samples(), 300);
    assert!(trace.edges() > 0);
    let rates: Vec<f64> = text
        .lines()
        .skip(2)
        .map(|l| l.rsplit(',').next().unwrap().parse().unwrap())
        .collect();
    let choked = rates.iter().filter(|&&r| r < tracegen::VIDEO_KBIT).count();
    assert!(choked > 0, "no choke episode below the video rate");
    assert!(
        choked < rates.len() / 3,
        "the link is choked most of the time"
    );
}

fn declared(section: &str) -> Vec<(String, Option<String>)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let json = JsonValue::parse(&text).expect("BENCHMARK.json is valid JSON");
    json.get(section)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|entry| {
            let field = |k: &str| entry.get(k).and_then(JsonValue::as_str).map(str::to_owned);
            (
                field("name").expect("every entry has a name"),
                field("unit"),
            )
        })
        .collect()
}

#[test]
fn every_emitted_name_is_declared_in_benchmark_json() {
    let workloads: Vec<(String, Option<String>)> = Workload::ALL
        .iter()
        .map(|w| (w.name().to_owned(), None))
        .collect();
    assert_eq!(declared("workloads"), workloads);
    let end_to_end: Vec<(String, Option<String>)> = END_TO_END
        .iter()
        .map(|(n, u)| ((*n).to_owned(), Some((*u).to_owned())))
        .collect();
    assert_eq!(declared("end_to_end"), end_to_end);
    let per_layer: Vec<(String, Option<String>)> = layers::names()
        .into_iter()
        .map(|(n, u)| (n, Some(u.to_owned())))
        .collect();
    assert_eq!(declared("per_layer"), per_layer);
}

fn reduced(workload: Workload, trace: bool) -> Outcome {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(workload.name());
    run(&RunConfig {
        workload,
        seed: 5,
        seconds: 0.0,
        trace,
        scale: Scale::Reduced,
        out_dir: dir,
    })
}

/// Runs a reduced untraced and traced pass of `workload` and checks that
/// both complete, every pass reproduces the same digests and tick count,
/// and each run reports exactly its declared metrics.
fn check_reduced(workload: Workload) {
    let plain = reduced(workload, false);
    assert!(plain.correct, "{}: {:?}", workload.name(), plain.problems);
    assert_eq!(plain.failed, 0);
    assert!(plain.passes.len() >= 2);
    assert!(plain.passes.iter().all(|p| p.ticks > 0));
    let first = &plain.passes[0];
    assert!(plain
        .passes
        .iter()
        .all(|p| p.digests == first.digests && p.ticks == first.ticks));
    let names: Vec<&str> = plain.metrics.iter().map(|m| m.name.as_str()).collect();
    let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, expected);

    let traced = reduced(workload, true);
    assert!(traced.correct, "{}: {:?}", workload.name(), traced.problems);
    assert!(traced.passes.iter().any(|p| p.traced));
    assert!(traced.passes.iter().any(|p| !p.traced));
    // The untraced passes of the traced run reproduce the plain run's
    // digests: same seed, same outputs.
    assert!(traced
        .passes
        .iter()
        .filter(|p| !p.traced)
        .all(|p| p.digests == first.digests && p.ticks == first.ticks));
    let names: Vec<String> = traced.metrics.iter().map(|m| m.name.clone()).collect();
    let expected: Vec<String> = layers::names().into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, expected);
    let value = |name: &str| {
        traced
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .unwrap()
    };
    assert_eq!(value("core.steps"), first.ticks as f64);
    assert!(value("core.stage.vehicle_ns.mean") > 0.0);
    assert!(value("obs.store_fold_us_per_run") > 0.0);
    assert!(value("experiments.executor.busy_frac") > 0.0);
    let spans = traced.spans_json.expect("a traced run records spans");
    assert!(JsonValue::parse(&spans).is_ok());
}

#[test]
fn reduced_paper_study_is_stable() {
    check_reduced(Workload::PaperStudy);
}

#[test]
fn reduced_open_road_trace_is_stable() {
    check_reduced(Workload::OpenRoadTrace);
}

#[test]
fn reduced_population_campaign_is_stable() {
    check_reduced(Workload::PopulationCampaign);
}

/// At seed 424242 the full-size workloads reproduce the digests `repro`
/// prints (about a minute in a release build; run with
/// `cargo test --release -- --ignored`).
#[test]
#[ignore]
fn full_workloads_reproduce_the_pinned_digests() {
    for workload in [Workload::PaperStudy, Workload::PopulationCampaign] {
        let outcome = run(&RunConfig {
            workload,
            seed: paperbench::workload::PINNED_SEED,
            seconds: 0.0,
            trace: false,
            scale: Scale::Full,
            out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("pinned"),
        });
        assert!(outcome.correct, "{:?}", outcome.problems);
        let pinned = workload.pinned_digest().unwrap();
        assert!(outcome.passes[0].digests.contains(&pinned));
    }
}
