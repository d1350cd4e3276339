//! `repro --help` and `repro -h` through the built binary: both print a
//! usage block naming every flag the argument parser matches, and exit 0.

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
