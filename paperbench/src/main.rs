//! Command-line entry of the paper-workload benchmark:
//!
//! ```text
//! paperbench --workload <paper_study|open_road_trace|population_campaign>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints provenance, one line per timed pass and the metric table, then,
//! as the last line, the JSON result object.

use paperbench::workload::{Scale, Workload};
use paperbench::{provenance, result_line, run, RunConfig, OUT_DIR};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| "--seed needs an unsigned integer".to_owned())?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or("--seconds needs a non-negative number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::Full,
        out_dir: PathBuf::from(OUT_DIR),
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(err) => {
            eprintln!("paperbench: {err}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "paperbench: {} (seed {}, {} s, trace {}): {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.workload.why()
    );
    let outcome = run(&cfg);
    println!("provenance: {}", provenance(&cfg, &outcome));
    for (i, ns) in outcome.setup_ns.iter().enumerate() {
        println!("setup {i}: {:.3} s", *ns as f64 * 1e-9);
    }
    for (i, p) in outcome.passes.iter().enumerate() {
        let digests: Vec<String> = p
            .digests
            .iter()
            .map(|(n, d)| format!("{n} {d:016x}"))
            .collect();
        println!(
            "pass {i} ({}): {:.3} s, {} runs, {} ticks, {:.0} steps/s; {}",
            if p.traced { "traced" } else { "untraced" },
            p.wall_ns as f64 * 1e-9,
            p.runs,
            p.ticks,
            p.steps_per_s(),
            digests.join(", ")
        );
    }
    for problem in &outcome.problems {
        println!("FAILED CHECK: {problem}");
    }
    for m in &outcome.metrics {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}
