//! `repro` through the built binary: `--help` and `-h` print a usage
//! block naming every flag the argument parser matches and exit 0, and a
//! `--campaign` run reports its resolved schedule knobs.

use std::process::Command;

#[test]
fn help_lists_every_parser_flag_and_exits_zero() {
    // Every quoted flag that opens a match arm of the parser.
    let flags: Vec<&str> = include_str!("../src/bin/repro.rs")
        .lines()
        .filter_map(|line| line.trim_start().split_once(" =>"))
        .flat_map(|(pattern, _)| pattern.split(" | "))
        .filter_map(|alt| alt.strip_prefix('"')?.strip_suffix('"'))
        .filter(|flag| flag.starts_with('-'))
        .collect();
    assert!(flags.len() >= 20 && flags.contains(&"-h"), "{flags:?}");
    for arg in ["--help", "-h"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg(arg)
            .output()
            .expect("repro runs");
        assert!(out.status.success(), "repro {arg}: {:?}", out.status);
        let help = String::from_utf8(out.stdout).expect("utf-8 help");
        assert!(help.starts_with("usage: repro"), "{help}");
        for flag in &flags {
            assert!(help.contains(flag), "repro {arg} does not list {flag}");
        }
    }
}

#[test]
fn campaign_banner_reports_the_default_batch_of_one() {
    // `--interrupt-after 0` prints the banner and the (empty) campaign
    // without executing a single run.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["all", "--quick", "--campaign", "4", "--population", "2"])
        .args(["--jobs", "2", "--interrupt-after", "0"])
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "repro --campaign: {:?}", out.status);
    let banner = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        banner.contains("running the population campaign") && banner.contains("batch 1)"),
        "{banner}"
    );
}
