//! `paperbench`: the paper-workload benchmark of `rdsim`.
//!
//! One command runs one seeded workload against the public API of
//! `rdsim-experiments` and prints every metric with its unit:
//!
//! ```text
//! cargo run --release --manifest-path paperbench/Cargo.toml -- \
//!     --workload paper_study --seed 1 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` (telemetry off) it reports the end-to-end metrics
//! ([`END_TO_END`]); with `--trace 1` it runs traced passes
//! (`ScenarioConfig::telemetry` on, benchmark spans recorded) alternating
//! with untraced ones and reports the per-layer table
//! ([`layers::names`]) including the tracing overhead. The last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Result files, the span file and
//! the generated trace go to `.paperbench/` under the working directory.
//!
//! Every pass's output digests are checked: each pass must reproduce the
//! first untraced pass's digests, and at seed 424242 the full-size
//! `paper_study` and `population_campaign` must reproduce the digests
//! `repro` prints for them.
//! A pass that panics, fails a check or differs in a digest counts its
//! runs as failed.

#![forbid(unsafe_code)]

pub mod layers;
pub mod spans;
pub mod tracegen;
pub mod workload;

use spans::Spans;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Prepared, Sample, Scale, Workload, PINNED_SEED};

/// The end-to-end metrics of an untraced run, as `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("steps_per_s", "1/s"),
    ("run_ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Times set-up is repeated per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 15;

/// Fewest timed passes per run, whatever `--seconds` says.
pub const MIN_PASSES: usize = 2;

/// Where result files go, relative to the working directory.
pub const OUT_DIR: &str = ".paperbench";

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// The seed every input derives from.
    pub seed: u64,
    /// Measuring time; passes stop once another would overrun it.
    pub seconds: f64,
    /// Traced run (per-layer table) instead of the end-to-end run.
    pub trace: bool,
    /// Workload size.
    pub scale: Scale,
    /// Directory for result files, the span file and the trace text.
    pub out_dir: PathBuf,
}

/// One timed pass as reported.
#[derive(Debug, Clone, PartialEq)]
pub struct PassRow {
    /// Whether telemetry was on.
    pub traced: bool,
    /// Wall-clock time of the pass.
    pub wall_ns: u64,
    /// Ticks simulated.
    pub ticks: u64,
    /// Runs executed.
    pub runs: u64,
    /// The pass's digests.
    pub digests: Vec<(&'static str, u64)>,
    /// Peak resident memory of the process when the pass ended.
    pub peak_rss_mb: f64,
}

impl PassRow {
    /// Ticks per second of the pass.
    pub fn steps_per_s(&self) -> f64 {
        self.ticks as f64 / (self.wall_ns.max(1) as f64 * 1e-9)
    }
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed and no run failed.
    pub correct: bool,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs failed (panicked, failed a check, or differed in a digest).
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Every timed pass, in order.
    pub passes: Vec<PassRow>,
    /// Set-up durations.
    pub setup_ns: Vec<u64>,
    /// Human-readable descriptions of every failed check.
    pub problems: Vec<String>,
    /// The run's spans as JSON (traced runs only).
    pub spans_json: Option<String>,
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The git revision of the working directory's checkout, read from `.git`
/// without running git; `unknown` outside a git checkout.
pub fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_owned(),
        Some(r) => read(&format!(".git/{r}"))
            .map(|s| s.trim().to_owned())
            .or_else(|| {
                read(".git/packed-refs").and_then(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next().map(str::to_owned))
                })
            })
            .unwrap_or_else(|| "unknown".to_owned()),
    }
}

/// A pass's output digests, by name.
type Digests = Vec<(&'static str, u64)>;

/// Tallies runs, failures and digests across passes.
struct Book {
    workload: Workload,
    seed: u64,
    scale: Scale,
    runs_per_pass: u64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// The first untraced pass's digests and per-run digests.
    reference: Option<(Digests, Vec<u64>)>,
    ticks: Option<u64>,
    passes: Vec<PassRow>,
}

impl Book {
    fn fail_pass(&mut self, why: String) {
        self.attempted += self.runs_per_pass;
        self.failed += self.runs_per_pass;
        self.problems.push(why);
    }

    /// Checks one finished pass and records it; returns it for layer use.
    fn record(&mut self, traced: bool, result: Result<Sample, String>) -> Option<Sample> {
        let sample = match result {
            Ok(s) => s,
            Err(why) => {
                self.fail_pass(why);
                return None;
            }
        };
        let label = if traced { "traced" } else { "untraced" };
        let mut bad = sample.problems.clone();
        if sample.runs < self.runs_per_pass {
            bad.push(format!(
                "pass ran {} of {} runs",
                sample.runs, self.runs_per_pass
            ));
        }
        match self.ticks {
            None => self.ticks = Some(sample.ticks),
            Some(t) if t != sample.ticks => bad.push(format!(
                "pass simulated {} ticks, earlier passes {t}",
                sample.ticks
            )),
            Some(_) => {}
        }
        if let Some(cap) = &sample.capture {
            let steps = cap.telemetry.counter("session.steps");
            if steps != sample.ticks {
                bad.push(format!(
                    "telemetry counted {steps} session steps, the run records {}",
                    sample.ticks
                ));
            }
        }
        // Telemetry-on digests fold telemetry in, so only untraced passes
        // are held to the reference. A digest mismatch fails the runs whose
        // own digests differ (every run, where runs are not returned).
        let mut mismatched_runs = 0u64;
        if !traced {
            match &self.reference {
                None => {
                    let pinned = self
                        .workload
                        .pinned_digest()
                        .filter(|_| self.scale == Scale::Full && self.seed == PINNED_SEED);
                    if let Some((name, want)) = pinned {
                        let got = sample.digests.iter().find(|(n, _)| *n == name);
                        if got.map(|&(_, d)| d) != Some(want) {
                            bad.push(format!(
                                "{name} {:016x} differs from the {want:016x} repro prints",
                                got.map_or(0, |&(_, d)| d)
                            ));
                        }
                    }
                    self.reference = Some((sample.digests.clone(), sample.run_digests.clone()));
                }
                Some((digests, runs)) if *digests != sample.digests => {
                    mismatched_runs = if runs.is_empty() || runs.len() != sample.run_digests.len() {
                        self.runs_per_pass
                    } else {
                        let differing =
                            runs.iter().zip(&sample.run_digests).filter(|(a, b)| a != b);
                        (differing.count() as u64).max(1)
                    };
                    self.problems.push(format!(
                        "{label} pass: digests {:?} differ from the reference {:?}",
                        hex(&sample.digests),
                        hex(digests)
                    ));
                }
                Some(_) => {}
            }
        }
        self.attempted += self.runs_per_pass;
        self.failed += if bad.is_empty() {
            mismatched_runs
        } else {
            self.runs_per_pass
        };
        for b in bad {
            self.problems.push(format!("{label} pass: {b}"));
        }
        self.passes.push(PassRow {
            traced,
            wall_ns: sample.wall_ns,
            ticks: sample.ticks,
            runs: sample.runs,
            digests: sample.digests.clone(),
            peak_rss_mb: peak_rss_mb(),
        });
        Some(sample)
    }
}

fn hex(digests: &[(&'static str, u64)]) -> Vec<String> {
    digests
        .iter()
        .map(|(n, d)| format!("{n}={d:016x}"))
        .collect()
}

/// Runs one pass, turning a panic into an error.
fn guarded(f: impl FnOnce() -> Result<Sample, String>) -> Result<Sample, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_owned());
            Err(format!("pass panicked: {msg}"))
        }
    }
}

/// Runs a workload as `cfg` says and reports it.
pub fn run(cfg: &RunConfig) -> Outcome {
    let jobs = rdsim_experiments::default_jobs();
    let spans = if cfg.trace {
        Spans::enabled()
    } else {
        Spans::disabled()
    };
    let stem = format!("{}-seed{}", cfg.workload.name(), cfg.seed);
    let checkpoint = cfg.out_dir.join(format!("{stem}-checkpoint.jsonl"));
    let mut outcome = spans.span(None, "workload", |root| {
        let mut setup_ns = Vec::with_capacity(SETUP_REPEATS);
        let mut prepared = None;
        for _ in 0..SETUP_REPEATS {
            drop(prepared.take());
            let started = Instant::now();
            prepared = Some(spans.span(root, "setup", |_| {
                Prepared::new(cfg.workload, cfg.seed, cfg.scale, jobs)
            }));
            setup_ns.push(started.elapsed().as_nanos() as u64);
        }
        let mut prep = prepared.expect("set-up ran at least once");
        if let Some(text) = &prep.trace_text {
            let name = format!("{stem}-{}.csv", tracegen::TRACE_LABEL);
            write_file(&cfg.out_dir.join(name), text);
        }
        let mut book = Book {
            workload: cfg.workload,
            seed: cfg.seed,
            scale: cfg.scale,
            runs_per_pass: prep.runs_per_pass(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            reference: None,
            ticks: None,
            passes: Vec::new(),
        };

        let counted = spans.span(root, "count_ticks", |id| {
            catch_unwind(AssertUnwindSafe(|| prep.count_ticks(cfg.trace, &spans, id)))
                .unwrap_or_else(|_| Err("counting ticks panicked".to_owned()))
        });
        if let Err(why) = counted {
            book.problems.push(format!("tick count: {why}"));
        }

        let budget = Duration::from_secs_f64(cfg.seconds.max(0.0));
        let timed = Instant::now();
        // Per-layer tables of the traced passes; only the last pass's
        // capture is kept, for the replays.
        let mut tables: Vec<Vec<Metric>> = Vec::new();
        let mut last_capture = None;
        let mut n = 0usize;
        loop {
            // Traced runs alternate traced and untraced passes, traced first.
            let traced = cfg.trace && n.is_multiple_of(2);
            let started = Instant::now();
            let name = if traced {
                "pass.traced"
            } else {
                "pass.untraced"
            };
            let ckpt = traced.then_some(checkpoint.as_path());
            let result = spans.span(root, name, |id| {
                guarded(|| prep.run_pass(traced, &spans, id, ckpt))
            });
            let took = started.elapsed();
            if let Some(sample) = book.record(traced, result) {
                if let Some(cap) = sample.capture {
                    if prep.needs_tick_count() {
                        prep.adopt_ticks(sample.ticks);
                    }
                    tables.push(layers::table(&cap, sample.ticks, sample.runs, jobs));
                    last_capture = Some(cap);
                }
            }
            n += 1;
            if n >= MIN_PASSES && timed.elapsed() + took > budget {
                break;
            }
        }

        let untraced: Vec<f64> = book
            .passes
            .iter()
            .filter(|p| !p.traced)
            .map(PassRow::steps_per_s)
            .collect();
        let metrics = if cfg.trace {
            let traced: Vec<f64> = book
                .passes
                .iter()
                .filter(|p| p.traced)
                .map(PassRow::steps_per_s)
                .collect();
            let overhead = if median(&traced) > 0.0 && median(&untraced) > 0.0 {
                (median(&untraced) / median(&traced) - 1.0) * 100.0
            } else {
                0.0
            };
            let replays = last_capture
                .as_ref()
                .map(|cap| layers::replay(&prep, cap, &spans, root))
                .unwrap_or_default();
            let mut metrics: Vec<Metric> = layers::names()
                .into_iter()
                .enumerate()
                .map(|(i, (name, unit))| Metric {
                    name,
                    value: median(&tables.iter().map(|t| t[i].value).collect::<Vec<_>>()),
                    unit,
                })
                .collect();
            layers::finish(&mut metrics, replays, overhead);
            metrics
        } else {
            let attempted = book.attempted.max(1);
            // Memory after set-up and one whole pass: later passes repeat the
            // same work, and what they add is the allocator reusing memory
            // differently, not the workload.
            let first_pass_rss = book
                .passes
                .iter()
                .find(|p| !p.traced)
                .map_or_else(peak_rss_mb, |p| p.peak_rss_mb);
            let values = [
                median(&untraced),
                (attempted - book.failed.min(attempted)) as f64 / attempted as f64,
                first_pass_rss,
                median(
                    &setup_ns
                        .iter()
                        .map(|&ns| ns as f64 * 1e-9)
                        .collect::<Vec<_>>(),
                ),
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), value)| Metric {
                    name: name.to_owned(),
                    value,
                    unit,
                })
                .collect()
        };
        if cfg.trace && tables.is_empty() {
            book.problems.push("no traced pass succeeded".to_owned());
        }
        if !cfg.trace && untraced.is_empty() {
            book.problems.push("no untraced pass succeeded".to_owned());
        }
        Outcome {
            correct: book.failed == 0 && book.problems.is_empty(),
            attempted: book.attempted,
            failed: book.failed,
            metrics,
            passes: book.passes,
            setup_ns,
            problems: book.problems,
            spans_json: None,
        }
    });
    if cfg.trace {
        outcome.spans_json = Some(spans.to_json());
    }
    let mode = if cfg.trace { "traced" } else { "untraced" };
    write_file(
        &cfg.out_dir.join(format!("{stem}-{mode}.json")),
        &results_json(cfg, &outcome),
    );
    if let Some(spans) = &outcome.spans_json {
        write_file(&cfg.out_dir.join(format!("{stem}-spans.json")), spans);
    }
    outcome
}

fn write_file(path: &Path, text: &str) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text));
    if let Err(err) = written {
        eprintln!("warning: cannot write {}: {err}", path.display());
    }
}

/// A finite number as JSON (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Provenance of a result: revision, cores, seed and pass count.
pub fn provenance(cfg: &RunConfig, outcome: &Outcome) -> String {
    format!(
        "{{\"git_revision\":\"{}\",\"nproc\":{},\"jobs\":{},\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"passes\":{},\"setup_repeats\":{}}}",
        git_revision(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        rdsim_experiments::default_jobs(),
        cfg.workload.name(),
        cfg.seed,
        num(cfg.seconds),
        cfg.trace,
        outcome.passes.len(),
        outcome.setup_ns.len()
    )
}

/// The final stdout line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// The result file: provenance, passes, set-up times, problems, metrics.
pub fn results_json(cfg: &RunConfig, outcome: &Outcome) -> String {
    let mut out = format!("{{\"provenance\":{},\"passes\":[", provenance(cfg, outcome));
    for (i, p) in outcome.passes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let digests: Vec<String> = p
            .digests
            .iter()
            .map(|(n, d)| format!("\"{n}\":\"{d:016x}\""))
            .collect();
        let _ = write!(
            out,
            "\n{{\"traced\":{},\"wall_ns\":{},\"ticks\":{},\"runs\":{},\"steps_per_s\":{},\"peak_rss_mb\":{},\"digests\":{{{}}}}}",
            p.traced,
            p.wall_ns,
            p.ticks,
            p.runs,
            num(p.steps_per_s()),
            num(p.peak_rss_mb),
            digests.join(",")
        );
    }
    let setup: Vec<String> = outcome.setup_ns.iter().map(u64::to_string).collect();
    let problems: Vec<String> = outcome
        .problems
        .iter()
        .map(|p| {
            let mut quoted = String::new();
            rdsim_obs::write_json_string(&mut quoted, p);
            quoted
        })
        .collect();
    let _ = write!(
        out,
        "],\n\"setup_ns\":[{}],\n\"problems\":[{}],\n\"result\":{}}}\n",
        setup.join(","),
        problems.join(","),
        result_line(outcome)
    );
    out
}
