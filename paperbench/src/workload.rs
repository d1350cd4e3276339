//! The three seeded workloads, their set-up, and one timed pass of each.
//!
//! Every workload is driven through the public API of `rdsim-experiments`
//! from one process with `jobs` = available parallelism. The seed is the
//! only input: it is the campaign seed, it seeds the synthesized population
//! and it generates the choke trace.

use crate::spans::{SpanId, Spans};
use crate::tracegen;
use rdsim_core::{PaperFault, RunKind, RunRecord};
use rdsim_experiments::{
    campaign_digest, collision_summary, execute_ordered_batched, paper_roster, population_digest,
    run_campaign, run_digest, run_population_campaign, run_protocol_batch, run_seed, store_digest,
    synthesize_population, synthetic_run_seed, table2, table3, table4, CampaignOptions,
    PopulationOptions, ProtocolJob, RunOutput, SamplerConfig, SamplerPolicy, ScenarioConfig,
};
use rdsim_math::{StableHasher, Vec2};
use rdsim_metrics::{SrrConfig, TtcConfig};
use rdsim_netem::TraceSchedule;
use rdsim_obs::{CampaignStore, Histogram, HistogramSnapshot, RunSummary, RunTelemetry};
use rdsim_roadnet::{town05, RoadNetwork};
use rdsim_units::SimDuration;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// `repro`'s default seed, at which the full-size workloads must reproduce
/// the digests `repro` prints ([`Workload::pinned_digest`]).
pub const PINNED_SEED: u64 = 424_242;

/// Counters every traced pass reads from the program's telemetry.
pub const COUNTERS: [&str; 10] = [
    "session.steps",
    "session.trace.recorded",
    "netem.uplink.enqueued",
    "netem.uplink.dequeued",
    "netem.uplink.dropped",
    "netem.uplink.queue_dropped",
    "netem.downlink.enqueued",
    "netem.downlink.dequeued",
    "netem.downlink.dropped",
    "netem.downlink.queue_dropped",
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's roster study exactly as `repro collisions` runs it.
    PaperStudy,
    /// Ego-only free drives replaying a generated choke trace.
    OpenRoadTrace,
    /// The adaptive population campaign with `repro --campaign` defaults.
    PopulationCampaign,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperStudy,
        Workload::OpenRoadTrace,
        Workload::PopulationCampaign,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperStudy => "paper_study",
            Workload::OpenRoadTrace => "open_road_trace",
            Workload::PopulationCampaign => "population_campaign",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The digest `repro` prints for this workload at [`PINNED_SEED`]:
    /// `repro collisions --jobs 2` prints the study's campaign digest, and
    /// `repro collisions --campaign 96 --quick` the population campaign's
    /// store digest. The open road has no `repro` counterpart.
    pub fn pinned_digest(self) -> Option<(&'static str, u64)> {
        match self {
            Workload::PaperStudy => Some(("campaign_digest", 0x36a6_c021_c5ba_7996)),
            Workload::OpenRoadTrace => None,
            Workload::PopulationCampaign => Some(("store_digest", 0xb621_7e95_1d4e_b2ed)),
        }
    }

    /// Why the workload is in the benchmark: the layer it loads and the
    /// layer it bypasses.
    pub fn why(self) -> &'static str {
        match self {
            // 12 subjects × {training, golden, faulty} on the two-lap course
            // with 8 other road users: World::step (vehicle stage) is about
            // three quarters of a tick, so roadnet and world-step changes
            // show here. Batch 1 keeps both workers busy.
            Workload::PaperStudy => {
                "the paper's roster study (36 runs, 8 road users): loads World::step and roadnet \
                 projection; executor stays fully busy"
            }
            // Training-kind runs are ego-only: no O(N²) world step. Each drive
            // lasts OPEN_ROAD_SECONDS of the two-lap course. Logging,
            // capture/encode, display/decode, operator and the netem stages
            // carry the cost, and choke episodes below the video rate keep
            // the finite queue and its tail drop live.
            Workload::OpenRoadTrace => {
                "ego-only drives replaying a seeded choke trace: loads codec, netem queues and \
                 logging; bypasses the world step"
            }
            // Round-barrier waves of 8 runs through lockstep batches of 16
            // on the batch engine, with sampler planning and store folds in
            // between: scheduling and batching changes show here.
            Workload::PopulationCampaign => {
                "adaptive population campaign (ucb, round 8, batch 16, quick course): loads the \
                 batch engine, executor waves and sampler"
            }
        }
    }
}

/// Workload size: the benchmark runs `Full`; the self-tests run `Reduced`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A short pass of the same code paths.
    Reduced,
}

/// Subjects driving the open road per pass at full size.
pub const OPEN_ROAD_SUBJECTS: usize = 48;
/// Simulated seconds each open-road drive lasts. Two laps take longer, so
/// every drive ends on this limit: the work per pass is the same for every
/// seed, and the generated trace covers the whole drive.
pub const OPEN_ROAD_SECONDS: u32 = 400;
/// Population size of the campaign (the `repro --campaign` default).
pub const POPULATION: usize = 24;
/// Run budget of the campaign.
pub const POPULATION_BUDGET: u64 = 96;

/// The config of a study training run (a 250 m free drive), mirroring the
/// study's own training variant.
fn training_config(config: &ScenarioConfig) -> ScenarioConfig {
    ScenarioConfig {
        progress_target: Some(250.0),
        ..config.clone()
    }
}

/// Simulated time of set-up's warm-up run.
pub const WARM_UP: SimDuration = SimDuration::from_secs(10);

/// Runs `job` for exactly [`WARM_UP`] of simulated time (no progress target
/// can end it first), so the warm-up is the same work for every seed.
fn warm_up(mut job: ProtocolJob) {
    job.config.progress_target = None;
    job.config.max_duration = WARM_UP;
    black_box(run_protocol_batch(vec![job]));
}

fn short(progress: f64, base: ScenarioConfig) -> ScenarioConfig {
    ScenarioConfig {
        progress_target: Some(progress),
        ..base
    }
}

/// Ticks a run simulated: the logging stage writes one ego sample per tick.
fn record_ticks(record: &RunRecord) -> u64 {
    record.log.ego_samples().len() as u64
}

/// What one timed pass of a workload produced.
#[derive(Debug)]
pub struct Sample {
    /// Wall-clock time of the timed phase (the workload's calls plus its
    /// analysis).
    pub wall_ns: u64,
    /// Session ticks simulated by every run of the pass.
    pub ticks: u64,
    /// Runs the pass executed.
    pub runs: u64,
    /// The pass's output digests, by name.
    pub digests: Vec<(&'static str, u64)>,
    /// Per-run digests in job order (only where runs are returned).
    pub run_digests: Vec<u64>,
    /// Failed structural checks.
    pub problems: Vec<String>,
    /// Layer data, present on traced passes.
    pub capture: Option<Capture>,
}

/// Everything a traced pass exposes for the per-layer table.
#[derive(Debug, Default)]
pub struct Capture {
    /// Counters ([`COUNTERS`]) and histograms of every run of the pass.
    pub telemetry: RunTelemetry,
    /// Σ executor chunk time.
    pub busy_ns: u64,
    /// Wall time of the executor call the chunks ran in.
    pub exec_wall_ns: u64,
    /// Chunk durations.
    pub chunk_ns: HistogramSnapshot,
    /// Σ sampler planning time.
    pub plan_ns: u64,
    /// Time spent in the workload's analysis after its runs.
    pub analysis_ns: u64,
    /// Every ego and other-actor position the returned run records logged.
    pub positions: Vec<Vec2>,
    /// Run outputs to replay `summarize_run` + `CampaignStore::fold` on.
    pub outputs: Vec<RunOutput>,
    /// Run summaries to replay `CampaignStore::fold` on, where the public
    /// API returns no run outputs (the population campaign's checkpoint).
    pub summaries: Vec<RunSummary>,
}

/// The [`COUNTERS`] and histograms a campaign store folded from its runs.
fn store_telemetry(store: &CampaignStore) -> RunTelemetry {
    let mut t = RunTelemetry::default();
    for name in COUNTERS {
        t.counters.insert(name.to_owned(), store.counter(name));
    }
    t.histograms = store.histograms().clone();
    t
}

impl Capture {
    fn log_positions(&mut self, records: &[&RunRecord]) {
        for record in records {
            self.positions
                .extend(record.log.ego_samples().iter().map(|s| s.position));
            self.positions
                .extend(record.log.other_samples().iter().map(|s| s.position));
        }
    }
}

enum Inputs {
    Paper {
        config: ScenarioConfig,
    },
    OpenRoad {
        jobs: Vec<ProtocolJob>,
    },
    Population {
        opts: PopulationOptions,
        population_digest: u64,
    },
}

/// A workload after set-up: generated inputs, the road network for the
/// replays, and the warm-up done.
pub struct Prepared {
    seed: u64,
    jobs: usize,
    inputs: Inputs,
    /// Ticks telemetry-off outputs cannot show: the study's training runs
    /// (paper), or the whole pass (population).
    counted_ticks: Option<u64>,
    /// The generated trace text (open road only).
    pub trace_text: Option<String>,
    /// The Town 05 network the roadnet replay projects onto.
    pub net: RoadNetwork,
}

impl Prepared {
    /// Generates the workload's inputs from `seed` and warms up with one
    /// run of [`WARM_UP`] simulated time, the same work for every seed.
    pub fn new(workload: Workload, seed: u64, scale: Scale, jobs: usize) -> Prepared {
        let net = town05();
        let mut trace_text = None;
        let inputs = match workload {
            Workload::PaperStudy => {
                let config = match scale {
                    Scale::Full => ScenarioConfig::default(),
                    Scale::Reduced => short(150.0, ScenarioConfig::quick()),
                };
                let entry = paper_roster().swap_remove(0);
                warm_up(ProtocolJob {
                    seed: run_seed(seed, &entry.profile.id, RunKind::Golden),
                    profile: entry.profile,
                    kind: RunKind::Golden,
                    config: config.clone(),
                });
                Inputs::Paper { config }
            }
            Workload::OpenRoadTrace => {
                let (subjects, seconds) = match scale {
                    Scale::Full => (OPEN_ROAD_SUBJECTS, OPEN_ROAD_SECONDS),
                    Scale::Reduced => (2, 20),
                };
                let base = ScenarioConfig {
                    max_duration: SimDuration::from_secs(u64::from(seconds)),
                    ..ScenarioConfig::default()
                };
                let text = tracegen::generate(seed, seconds);
                let trace = TraceSchedule::parse(tracegen::TRACE_LABEL, &text)
                    .expect("the generated trace is valid trace CSV");
                let condition = trace.condition();
                let config = ScenarioConfig {
                    ambient_trace: Some(trace),
                    ..base
                };
                let jobs_list: Vec<ProtocolJob> = synthesize_population(seed, subjects)
                    .into_iter()
                    .map(|s| ProtocolJob {
                        seed: synthetic_run_seed(seed, &s.profile.id, &condition),
                        profile: s.profile,
                        kind: RunKind::Training,
                        config: config.clone(),
                    })
                    .collect();
                warm_up(jobs_list[0].clone());
                trace_text = Some(text);
                Inputs::OpenRoad { jobs: jobs_list }
            }
            Workload::PopulationCampaign => {
                let (population, budget, round, batch, config) = match scale {
                    Scale::Full => (
                        POPULATION,
                        POPULATION_BUDGET,
                        8,
                        16,
                        ScenarioConfig::quick(),
                    ),
                    Scale::Reduced => (6, 8, 4, 4, short(150.0, ScenarioConfig::quick())),
                };
                let subjects = synthesize_population(seed, population);
                let digest = population_digest(seed, &subjects);
                warm_up(ProtocolJob {
                    profile: subjects[0].profile.clone(),
                    kind: RunKind::Faulty,
                    seed: synthetic_run_seed(seed, &subjects[0].profile.id, "warm-up"),
                    config: ScenarioConfig {
                        fault_override: Some(PaperFault::ALL[0]),
                        ..config.clone()
                    },
                });
                let mut sampler = SamplerConfig::new(SamplerPolicy::Ucb);
                sampler.round_size = round;
                let mut opts = PopulationOptions::new(seed, population, budget, sampler);
                opts.config = config;
                opts.jobs = jobs;
                opts.batch = batch;
                Inputs::Population {
                    opts,
                    population_digest: digest,
                }
            }
        };
        Prepared {
            seed,
            jobs,
            inputs,
            counted_ticks: None,
            trace_text,
            net,
        }
    }

    /// Runs one pass attempts.
    pub fn runs_per_pass(&self) -> u64 {
        match &self.inputs {
            Inputs::Paper { .. } => 36,
            Inputs::OpenRoad { jobs } => jobs.len() as u64,
            Inputs::Population { opts, .. } => opts.budget,
        }
    }

    /// Whether ticks that telemetry-off passes cannot show are still
    /// uncounted.
    pub fn needs_tick_count(&self) -> bool {
        !matches!(self.inputs, Inputs::OpenRoad { .. }) && self.counted_ticks.is_none()
    }

    /// Counts, before timing starts, the ticks telemetry-off passes cannot
    /// show. The study returns only golden and faulty records, so its 12
    /// training drives are replayed here (traced passes cross-check the
    /// total against the program's `session.steps`). The population
    /// campaign returns only its store, so an untraced run counts with one
    /// telemetry-on pass; a traced run leaves the count to its first traced
    /// pass ([`Prepared::adopt_ticks`]).
    pub fn count_ticks(
        &mut self,
        traced_run: bool,
        spans: &Spans,
        parent: Option<SpanId>,
    ) -> Result<(), String> {
        match &self.inputs {
            Inputs::Paper { config } => {
                let training = training_config(config);
                let jobs: Vec<ProtocolJob> = paper_roster()
                    .into_iter()
                    .map(|entry| ProtocolJob {
                        seed: run_seed(self.seed, &entry.profile.id, RunKind::Training),
                        profile: entry.profile,
                        kind: RunKind::Training,
                        config: training.clone(),
                    })
                    .collect();
                let outputs = execute_ordered_batched(jobs, self.jobs, 1, run_protocol_batch);
                self.counted_ticks = Some(outputs.iter().map(|o| record_ticks(&o.record)).sum());
            }
            Inputs::Population { .. } if !traced_run => {
                let sample = self.run_pass(true, spans, parent, None)?;
                self.counted_ticks = Some(sample.ticks);
            }
            _ => {}
        }
        Ok(())
    }

    /// Adopts the tick count of a traced population pass for later untraced
    /// passes (identical store digests prove they simulate the same runs).
    pub fn adopt_ticks(&mut self, ticks: u64) {
        self.counted_ticks = Some(ticks);
    }

    /// Runs one timed pass. `telemetry` switches `ScenarioConfig::telemetry`
    /// on and captures layer data; `checkpoint` (traced population passes)
    /// is where the campaign streams its run summaries.
    pub fn run_pass(
        &self,
        telemetry: bool,
        spans: &Spans,
        parent: Option<SpanId>,
        checkpoint: Option<&Path>,
    ) -> Result<Sample, String> {
        match &self.inputs {
            Inputs::Paper { config } => self.paper_pass(config, telemetry, spans, parent),
            Inputs::OpenRoad { jobs } => self.open_road_pass(jobs, telemetry, spans, parent),
            Inputs::Population {
                opts,
                population_digest,
            } => self.population_pass(
                opts,
                *population_digest,
                telemetry,
                spans,
                parent,
                checkpoint,
            ),
        }
    }

    fn paper_pass(
        &self,
        config: &ScenarioConfig,
        telemetry: bool,
        spans: &Spans,
        parent: Option<SpanId>,
    ) -> Result<Sample, String> {
        let mut config = config.clone();
        config.telemetry = telemetry;
        let opts = CampaignOptions::new(self.seed, config, self.jobs, 1);
        let started = Instant::now();
        let mut outcome =
            spans.span(parent, "experiments.run_campaign", |_| run_campaign(&opts))?;
        let results = outcome
            .results
            .take()
            .ok_or("run_campaign returned no study results")?;
        let analysis_started = Instant::now();
        let (rows, campaign, store) = spans.span(parent, "metrics.analysis", |_| {
            let t2 = table2(&results);
            black_box(table3(&results, &TtcConfig::default()));
            black_box(table4(&results, &SrrConfig::default()));
            black_box(collision_summary(&results));
            (
                t2.len(),
                campaign_digest(&results),
                store_digest(&outcome.store),
            )
        });
        let analysis_ns = analysis_started.elapsed().as_nanos() as u64;
        let wall_ns = started.elapsed().as_nanos() as u64;

        let training_ticks = self
            .counted_ticks
            .ok_or("the study's training ticks were not counted")?;
        let ticks = training_ticks + results.records.iter().map(record_ticks).sum::<u64>();
        let mut problems = Vec::new();
        if outcome.completed != 36 || outcome.total != 36 {
            problems.push(format!(
                "campaign completed {} of {} runs, expected 36",
                outcome.completed, outcome.total
            ));
        }
        if results.records.len() != 24 || rows != 11 {
            problems.push(format!(
                "study has {} records and {rows} Table II rows, expected 24 and 11",
                results.records.len()
            ));
        }
        let capture = telemetry.then(|| {
            let mut cap = Capture {
                telemetry: store_telemetry(&outcome.store),
                busy_ns: fleet_busy_ns(&outcome.fleet),
                exec_wall_ns: outcome.fleet.wall_elapsed_ns,
                chunk_ns: outcome
                    .fleet
                    .histogram("executor.chunk_ns")
                    .cloned()
                    .unwrap_or_default(),
                analysis_ns,
                ..Capture::default()
            };
            let records: Vec<&RunRecord> = results.records.iter().collect();
            cap.log_positions(&records);
            cap.outputs = results
                .records
                .iter()
                .map(|record| output_of(record.clone()))
                .collect();
            cap
        });
        Ok(Sample {
            wall_ns,
            ticks,
            runs: outcome.completed as u64,
            digests: vec![("campaign_digest", campaign), ("store_digest", store)],
            run_digests: Vec::new(),
            problems,
            capture,
        })
    }

    fn open_road_pass(
        &self,
        jobs: &[ProtocolJob],
        telemetry: bool,
        spans: &Spans,
        parent: Option<SpanId>,
    ) -> Result<Sample, String> {
        let mut jobs = jobs.to_vec();
        for job in &mut jobs {
            job.config.telemetry = telemetry;
        }
        let chunk_ns = Histogram::new();
        let busy_ns = Mutex::new(0u64);
        let started = Instant::now();
        let outputs = spans.span(parent, "experiments.execute_ordered_batched", |exec| {
            execute_ordered_batched(jobs, self.jobs, 1, |chunk| {
                spans.span(exec, "experiments.run_protocol_batch", |_| {
                    let t = Instant::now();
                    let out = run_protocol_batch(chunk);
                    let ns = t.elapsed().as_nanos() as u64;
                    chunk_ns.record(ns);
                    *busy_ns.lock().expect("no chunk panics holding the lock") += ns;
                    out
                })
            })
        });
        let exec_wall_ns = started.elapsed().as_nanos() as u64;
        let analysis_started = Instant::now();
        let (run_digests, fold) = spans.span(parent, "metrics.analysis", |_| {
            let digests: Vec<u64> = outputs.iter().map(run_digest).collect();
            let mut h = StableHasher::new();
            for d in &digests {
                h.write_digest(*d);
            }
            (digests, h.finish())
        });
        let analysis_ns = analysis_started.elapsed().as_nanos() as u64;
        let wall_ns = started.elapsed().as_nanos() as u64;

        let ticks = outputs.iter().map(|o| record_ticks(&o.record)).sum();
        let capture = telemetry.then(|| {
            let mut t = RunTelemetry::default();
            for o in &outputs {
                t.merge(&o.telemetry);
            }
            let mut cap = Capture {
                telemetry: t,
                busy_ns: busy_ns
                    .into_inner()
                    .expect("no chunk panics holding the lock"),
                exec_wall_ns,
                chunk_ns: chunk_ns.snapshot(),
                analysis_ns,
                ..Capture::default()
            };
            let records: Vec<&RunRecord> = outputs.iter().map(|o| &o.record).collect();
            cap.log_positions(&records);
            cap
        });
        let mut sample = Sample {
            wall_ns,
            ticks,
            runs: outputs.len() as u64,
            digests: vec![("run_digest_fold", fold)],
            run_digests,
            problems: Vec::new(),
            capture,
        };
        if let Some(cap) = &mut sample.capture {
            cap.outputs = outputs;
        }
        Ok(sample)
    }

    fn population_pass(
        &self,
        opts: &PopulationOptions,
        expected_population: u64,
        telemetry: bool,
        spans: &Spans,
        parent: Option<SpanId>,
        checkpoint: Option<&Path>,
    ) -> Result<Sample, String> {
        let mut opts = opts.clone();
        opts.config.telemetry = telemetry;
        opts.checkpoint = checkpoint.map(PathBuf::from);
        let started = Instant::now();
        let outcome = spans.span(parent, "experiments.run_population_campaign", |_| {
            run_population_campaign(&opts)
        })?;
        let analysis_started = Instant::now();
        let store = spans.span(parent, "metrics.analysis", |_| store_digest(&outcome.store));
        let analysis_ns = analysis_started.elapsed().as_nanos() as u64;
        let wall_ns = started.elapsed().as_nanos() as u64;

        let mut problems = Vec::new();
        if outcome.population_digest != expected_population {
            problems.push(format!(
                "population digest {:016x} differs from the synthesized {:016x}",
                outcome.population_digest, expected_population
            ));
        }
        if outcome.interrupted
            || outcome.completed as u64 != opts.budget
            || outcome.total as u64 != opts.budget
        {
            problems.push(format!(
                "campaign completed {} of {} runs, expected {}",
                outcome.completed, outcome.total, opts.budget
            ));
        }
        let ticks = if telemetry {
            outcome.store.counter("session.steps")
        } else {
            self.counted_ticks
                .ok_or("an untraced population pass needs the tick count of a traced pass")?
        };
        let capture = if telemetry {
            let summaries = match checkpoint {
                Some(path) => read_summaries(path)?,
                None => Vec::new(),
            };
            Some(Capture {
                telemetry: store_telemetry(&outcome.store),
                busy_ns: fleet_busy_ns(&outcome.fleet),
                exec_wall_ns: outcome.fleet.wall_elapsed_ns,
                chunk_ns: outcome
                    .fleet
                    .histogram("executor.chunk_ns")
                    .cloned()
                    .unwrap_or_default(),
                plan_ns: outcome
                    .fleet
                    .histogram("executor.sampler.plan_ns")
                    .map_or(0, |h| h.sum as u64),
                analysis_ns,
                summaries,
                ..Capture::default()
            })
        } else {
            None
        };
        Ok(Sample {
            wall_ns,
            ticks,
            runs: outcome.completed as u64,
            digests: vec![
                ("population_digest", outcome.population_digest),
                ("store_digest", store),
            ],
            run_digests: Vec::new(),
            problems,
            capture,
        })
    }
}

fn fleet_busy_ns(fleet: &RunTelemetry) -> u64 {
    fleet
        .histogram("executor.chunk_ns")
        .map_or(0, |h| h.sum as u64)
}

/// Wraps a returned study record as a run output for the fold replay (the
/// study keeps records, not outputs; the feed statistics the questionnaire
/// consumed are not part of what the fold reads).
fn output_of(record: RunRecord) -> RunOutput {
    RunOutput {
        record,
        stutter_time: SimDuration::ZERO,
        worst_display_gap: SimDuration::ZERO,
        frames_seen: 0,
        progress: 0.0,
        telemetry: RunTelemetry::default(),
        trace: Default::default(),
        timeline: Default::default(),
        trace_condition: None,
    }
}

/// The run summaries of a checkpoint stream (its first line is a header).
fn read_summaries(path: &Path) -> Result<Vec<RunSummary>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
    text.lines()
        .skip(1)
        .filter(|line| !line.trim().is_empty())
        .map(|line| RunSummary::from_json(line).map_err(|e| format!("bad checkpoint line: {e}")))
        .collect()
}
