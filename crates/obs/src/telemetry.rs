//! Serializable per-run telemetry summary.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::Event;
use crate::hist::HistogramSnapshot;

/// Everything one run recorded, in an owned, mergeable, serializable form.
///
/// Produced by [`crate::Registry::snapshot`]; campaign runners attach one
/// next to each run record and fold them together with
/// [`RunTelemetry::merge`] for whole-campaign reporting. `BTreeMap`s keep
/// iteration (and therefore serialization and reports) deterministic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunTelemetry {
    /// Final counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Final gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Structured events in emission order.
    pub events: Vec<Event>,
    /// Events discarded after the registry's capacity was reached.
    pub events_dropped: u64,
    /// Wall-clock nanoseconds between registry creation and snapshot.
    pub wall_elapsed_ns: u64,
}

impl RunTelemetry {
    /// True when nothing at all was recorded (the null-recorder outcome).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.events.is_empty()
            && self.events_dropped == 0
    }

    /// Final value of a counter, or 0 if it never existed.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram snapshot by name, if it exists.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Steps per wall-clock second, derived from the named step counter.
    pub fn steps_per_sec(&self, step_counter: &str) -> f64 {
        if self.wall_elapsed_ns == 0 {
            return 0.0;
        }
        self.counter(step_counter) as f64 / (self.wall_elapsed_ns as f64 * 1e-9)
    }

    /// Folds `other` into `self`: counters add, gauges take the other
    /// side's value, histograms merge bucket-wise, events concatenate, and
    /// wall time accumulates (total compute time across runs).
    pub fn merge(&mut self, other: &RunTelemetry) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, value) in &other.gauges {
            self.gauges.insert(name.clone(), *value);
        }
        for (name, snapshot) in &other.histograms {
            self.histograms
                .entry(name.clone())
                .or_default()
                .merge(snapshot);
        }
        self.events.extend(other.events.iter().cloned());
        self.events_dropped += other.events_dropped;
        self.wall_elapsed_ns += other.wall_elapsed_ns;
    }

    /// A stable 64-bit fingerprint over the *deterministic* telemetry
    /// content: counters, gauges, histograms and events — excluding
    ///
    /// * every wall-clock field (`wall_elapsed_ns`, per-event `wall_ns`),
    /// * every instrument whose name ends in `_ns` (by convention those
    ///   sample wall-clock durations — stage timings — which vary
    ///   run to run on real hardware), and
    /// * every instrument under the `executor.` prefix, which reports
    ///   fleet scheduling (queue depth, per-worker run counts) that
    ///   legitimately varies with `--jobs` / `--batch` while the campaign
    ///   digest must not.
    ///
    /// Hand-rolled FNV-1a-64 with a SplitMix64 finalizer (the same
    /// construction as `rdsim_math::StableHasher`, duplicated here because
    /// this crate is dependency-free by design). Two runs of the same seed
    /// must fingerprint identically whether they executed serially or on a
    /// parallel worker; the campaign digest folds this value in.
    pub fn fingerprint(&self) -> u64 {
        let deterministic = deterministic_instrument;
        let mut h = Fnv::new();
        let counters = || self.counters.iter().filter(|(n, _)| deterministic(n));
        h.u64(counters().count() as u64);
        for (name, value) in counters() {
            h.str(name);
            h.u64(*value);
        }
        let gauges = || self.gauges.iter().filter(|(n, _)| deterministic(n));
        h.u64(gauges().count() as u64);
        for (name, value) in gauges() {
            h.str(name);
            h.u64(value.to_bits());
        }
        let hists = || self.histograms.iter().filter(|(n, _)| deterministic(n));
        h.u64(hists().count() as u64);
        for (name, snapshot) in hists() {
            h.str(name);
            h.u64(snapshot.count);
            h.u64(snapshot.sum as u64);
            h.u64((snapshot.sum >> 64) as u64);
            h.u64(snapshot.min);
            h.u64(snapshot.max);
            // Sparse: only non-empty buckets, framed as (index, count).
            for (i, &n) in snapshot.buckets.iter().enumerate() {
                if n > 0 {
                    h.u64(i as u64);
                    h.u64(n);
                }
            }
            h.u64(u64::MAX); // bucket-list terminator
        }
        h.u64(self.events.len() as u64);
        for event in &self.events {
            h.str(&event.name);
            h.u64(event.sim_us);
            h.str(&event.note);
        }
        h.u64(self.events_dropped);
        h.finish()
    }

    /// Serializes to a self-contained JSON document. Hand-rolled because
    /// this crate is dependency-free; output is deterministic (sorted keys,
    /// fixed field order).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        out.push_str("\"counters\":{");
        push_entries(&mut out, self.counters.iter(), |out, v| {
            let _ = write!(out, "{v}");
        });
        out.push_str("},\"gauges\":{");
        push_entries(&mut out, self.gauges.iter(), |out, v| {
            push_f64(out, *v);
        });
        out.push_str("},\"histograms\":{");
        push_entries(&mut out, self.histograms.iter(), |out, h| {
            let _ = write!(
                out,
                "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.p50(),
                h.p90(),
                h.p99()
            );
            // Sparse encoding: only non-empty buckets, as [index, count].
            let mut first = true;
            for (i, &n) in h.buckets.iter().enumerate() {
                if n > 0 {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let _ = write!(out, "[{i},{n}]");
                }
            }
            out.push_str("]}");
        });
        out.push_str("},\"events\":[");
        for (i, event) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_json_string(&mut out, &event.name);
            let _ = write!(
                out,
                ",\"sim_us\":{},\"wall_ns\":{},\"note\":",
                event.sim_us, event.wall_ns
            );
            push_json_string(&mut out, &event.note);
            out.push('}');
        }
        let _ = write!(
            out,
            "],\"events_dropped\":{},\"wall_elapsed_ns\":{}}}",
            self.events_dropped, self.wall_elapsed_ns
        );
        out
    }

    /// Renders a human-readable report: one line per counter and gauge,
    /// a quantile table per histogram, and the event count.
    pub fn report(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("telemetry: (empty — recorder disabled)\n");
            return out;
        }
        let _ = writeln!(
            out,
            "telemetry: wall {:.3} s, {} events ({} dropped)",
            self.wall_elapsed_ns as f64 * 1e-9,
            self.events.len(),
            self.events_dropped
        );
        if !self.histograms.is_empty() {
            let _ = writeln!(
                out,
                "  {:<34} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "histogram", "count", "mean", "p50", "p90", "p99", "max"
            );
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {:<34} {:>9} {:>10.1} {:>10} {:>10} {:>10} {:>10}",
                    name,
                    h.count,
                    h.mean(),
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    h.max
                );
            }
        }
        for (name, value) in &self.counters {
            let _ = writeln!(out, "  {name:<34} = {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "  {name:<34} = {value:.4}");
        }
        out
    }
}

/// Instrument-name prefix for fleet-level executor signals (queue depth,
/// per-worker runs completed). These describe *how the campaign was
/// scheduled*, not what any run computed, so [`RunTelemetry::fingerprint`]
/// skips them: the campaign digest stays invariant across `--jobs` /
/// `--batch` even with fleet telemetry enabled.
pub const FLEET_PREFIX: &str = "executor.";

/// True when an instrument name carries *deterministic* content — i.e. it
/// is neither a wall-clock span (`_ns` suffix) nor a fleet-scheduling
/// signal ([`FLEET_PREFIX`]). Fingerprints and campaign digests hash only
/// deterministic instruments; reports and JSON exports keep everything.
pub fn deterministic_instrument(name: &str) -> bool {
    !name.starts_with(FLEET_PREFIX) && !name.ends_with("_ns")
}

/// Minimal stable hasher backing [`RunTelemetry::fingerprint`] and the
/// campaign-store fingerprint: FNV-1a 64 over little-endian bytes with
/// length-prefixed strings, diffused through one SplitMix64 round at the
/// end.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn raw(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.raw(s.as_bytes());
    }

    pub(crate) fn finish(&self) -> u64 {
        let mut z = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn push_entries<'a, V: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a String, V)>,
    mut push_value: impl FnMut(&mut String, V),
) {
    for (i, (key, value)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(out, key);
        out.push(':');
        push_value(out, value);
    }
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Registry;

    fn sample() -> RunTelemetry {
        let registry = Registry::new();
        let rec = registry.recorder();
        rec.counter("steps").add(10);
        rec.gauge("speed").set(1.5);
        rec.observe("lat_us", 100);
        rec.observe("lat_us", 200);
        rec.event("fault", 5_000, "loss=10%");
        registry.snapshot()
    }

    #[test]
    fn json_is_deterministic_and_well_formed() {
        let t = sample();
        let json = t.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"steps\":10"));
        assert!(json.contains("\"note\":\"loss=10%\""));
        // Everything except wall-clock fields is reproducible.
        let again = sample();
        let strip = |s: &str| {
            s.split(',')
                .filter(|f| !f.contains("wall"))
                .collect::<Vec<_>>()
                .join(",")
        };
        assert_eq!(strip(&json), strip(&again.to_json()));
    }

    #[test]
    fn json_escapes_strings() {
        let mut out = String::new();
        push_json_string(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn merge_accumulates_counters_and_histograms() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.counter("steps"), 20);
        assert_eq!(a.histogram("lat_us").unwrap().count, 4);
        assert_eq!(a.events.len(), 2);
    }

    #[test]
    fn fingerprint_ignores_wall_clock_but_sees_content() {
        let a = sample();
        let mut b = sample();
        b.wall_elapsed_ns = a.wall_elapsed_ns.wrapping_add(123_456);
        for event in &mut b.events {
            event.wall_ns = event.wall_ns.wrapping_add(999);
        }
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "wall-clock fields must not affect the fingerprint"
        );

        let mut c = sample();
        c.counters.insert("steps".to_owned(), 11);
        assert_ne!(a.fingerprint(), c.fingerprint());

        let mut d = sample();
        d.events[0].note = "loss=11%".to_owned();
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn fingerprint_ignores_fleet_instruments() {
        let a = sample();
        let mut b = sample();
        b.counters.insert("executor.runs_completed.w3".into(), 17);
        b.gauges.insert("executor.queue_depth".into(), 4.0);
        let mut h = HistogramSnapshot::default();
        h.merge(&{
            let hist = crate::Histogram::new();
            hist.record(250);
            hist.snapshot()
        });
        b.histograms.insert("executor.chunk_ns".into(), h);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "executor.* instruments must not affect the fingerprint"
        );
        // …but they still show up in merge/json output.
        assert!(b.to_json().contains("executor.queue_depth"));
    }

    #[test]
    fn default_is_empty_and_reports_as_such() {
        let t = RunTelemetry::default();
        assert!(t.is_empty());
        assert!(t.report().contains("empty"));
        assert_eq!(t.steps_per_sec("steps"), 0.0);
    }
}
