#!/usr/bin/env bash
# Schedule-invariance matrix: runs `repro` across worker counts, batch
# sizes and interrupt/resume splits, and byte-diffs what must not change.
#
#   ci/schedule_invariance.sh [OUT_DIR]   (default: schedule-invariance-out)
#
# Every output lands in OUT_DIR, so a failing run can be inspected (CI
# uploads it). Sections:
#   1. roster study stdout across --jobs and --batch, and against the
#      tests/golden/repro_quick.txt golden;
#   2. checkpoint/resume of the roster campaign (store digest and
#      campaign.json);
#   3. adaptive population campaign across schedules and across
#      interrupt/resume (stdout, campaign.json, sampler.json);
#   4. forensics timelines and dossiers across schedules, plus a
#      structural check of their content;
#   5. trace-driven roster study stdout across --jobs and --batch;
#   6. roster study telemetry counters and digest across --jobs, and
#      against the tests/golden/telemetry_quick.txt golden.
# Nothing is re-blessed here: every comparison is between two runs, or
# between a run and a committed golden file.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
OUT="${1:-schedule-invariance-out}"
mkdir -p "$OUT"
OUT="$(cd "$OUT" && pwd)"
cd "$ROOT"

cargo build --release -p rdsim-experiments --bin repro
REPRO="$ROOT/target/release/repro"
cd "$OUT"

section() { printf '\n== %s ==\n' "$1"; }

# The roster study's digest line reports the jobs/batch knobs it ran
# with; strip that suffix before any byte-for-byte comparison.
normalize() { sed 's/, jobs [0-9]*, batch [0-9]*)/)/' "$1.txt" > "$1.norm"; }

# `must_differ A B`: the store-digest lines of A and B must NOT match — an
# interrupted campaign digesting like the full one would mean the digest
# is vacuous.
must_differ() {
    if diff -q <(grep "campaign store digest" "$1") \
               <(grep "campaign store digest" "$2") > /dev/null; then
        echo "$2: interrupted campaign digested like the full one ($1)" >&2
        exit 1
    fi
}

section "1. roster study: worker count and batch size must not change a byte"
"$REPRO" all --quick --jobs 1 > repro-jobs1.txt
"$REPRO" all --quick --jobs 4 > repro-jobs4.txt
"$REPRO" all --quick --jobs 1 --batch 1 > repro-batch1.txt
"$REPRO" all --quick --jobs 1 --batch 4 > repro-batch4.txt
"$REPRO" all --quick --jobs 1 --batch 8 > repro-batch8.txt
for f in repro-jobs1 repro-jobs4 repro-batch1 repro-batch4 repro-batch8; do
    normalize "$f"
done
diff -u repro-jobs1.norm repro-jobs4.norm
diff -u repro-jobs1.norm repro-batch1.norm
diff -u repro-jobs1.norm repro-batch4.norm
diff -u repro-jobs1.norm repro-batch8.norm
grep "campaign digest" repro-jobs1.txt
# The default schedule must reproduce the committed golden byte for byte.
"$REPRO" all --quick 2>/dev/null > repro-quick.txt
normalize repro-quick
diff -u "$ROOT/tests/golden/repro_quick.txt" repro-quick.norm

section "2. roster campaign: interrupted + resumed equals single-shot"
rm -rf single.jsonl resumed.jsonl report-single report-resumed
"$REPRO" all --quick --jobs 4 --checkpoint single.jsonl --report-out report-single \
    > single.txt
# Interrupted at the midpoint (18 of 36 runs) …
"$REPRO" all --quick --jobs 2 --batch 4 --checkpoint resumed.jsonl --interrupt-after 18 \
    > part1.txt
# … and resumed to completion on a different schedule.
"$REPRO" all --quick --jobs 4 --batch 2 --checkpoint resumed.jsonl --resume \
    --report-out report-resumed > part2.txt
# The `campaign store digest:` line carries no jobs/batch suffix, so the
# whole line must match; campaign.json likewise (the wall-clock side
# channel lives in timings.json, which is never diffed).
grep "campaign store digest" single.txt part1.txt part2.txt
diff <(grep "campaign store digest" single.txt) <(grep "campaign store digest" part2.txt)
must_differ single.txt part1.txt
diff report-single/campaign.json report-resumed/campaign.json

section "3. population campaign: schedule and resume must not change a byte"
rm -rf sampler-ck.jsonl sampler-jobs1 sampler-jobs4 sampler-resumed
CAMPAIGN=(all --quick --campaign 40 --population 8 --sampler ucb --round 8)
"$REPRO" "${CAMPAIGN[@]}" --jobs 1 --report-out sampler-jobs1 > sampler-jobs1.txt
"$REPRO" "${CAMPAIGN[@]}" --jobs 4 --batch 2 --report-out sampler-jobs4 > sampler-jobs4.txt
# Population-campaign stdout is schedule-invariant by construction (the
# sampler telemetry lives in executor.* counters, which the fingerprint
# and reports exclude), so nothing needs normalizing.
diff -u sampler-jobs1.txt sampler-jobs4.txt
diff sampler-jobs1/campaign.json sampler-jobs4/campaign.json
diff sampler-jobs1/sampler.json sampler-jobs4/sampler.json
grep "population digest" sampler-jobs1.txt
grep "campaign store digest" sampler-jobs1.txt
# Interrupted mid-round (13 of 40 runs, inside a 16-run chunk) and
# resumed on a different schedule: the exact decision sequence replays.
"$REPRO" "${CAMPAIGN[@]}" --jobs 2 --batch 16 --checkpoint sampler-ck.jsonl \
    --interrupt-after 13 > sampler-part1.txt
"$REPRO" "${CAMPAIGN[@]}" --jobs 4 --batch 16 --resume --checkpoint sampler-ck.jsonl \
    --report-out sampler-resumed > sampler-resumed.txt
diff -u sampler-jobs1.txt sampler-resumed.txt
diff sampler-jobs1/campaign.json sampler-resumed/campaign.json
diff sampler-jobs1/sampler.json sampler-resumed/sampler.json
must_differ sampler-jobs1.txt sampler-part1.txt

section "4. forensics: timelines and dossiers must be byte-identical across schedules"
rm -rf forensics-jobs1 forensics-jobs4 forensics-batch4
"$REPRO" all --quick --jobs 1 --forensics forensics-jobs1 > /dev/null
"$REPRO" all --quick --jobs 4 --forensics forensics-jobs4 > /dev/null
"$REPRO" all --quick --jobs 4 --batch 4 --forensics forensics-batch4 > /dev/null
# The forensics files carry no schedule knobs, so `diff -r` compares
# every timeline and dossier byte for byte, unnormalized.
test -n "$(ls forensics-jobs1/*_timeline.json)"
test -n "$(ls forensics-jobs1/incidents/)"
diff -r forensics-jobs1 forensics-jobs4
diff -r forensics-jobs1 forensics-batch4
echo "$(ls forensics-jobs1 | wc -l) timeline files," \
     "$(ls forensics-jobs1/incidents | wc -l) dossiers — identical on all 3 schedules"
# Dossier structure and the per-leg latency identity.
python3 - <<'PY'
import glob, json

timelines = sorted(glob.glob("forensics-jobs1/*_timeline.json"))
assert timelines, "no timeline files were written"
for path in timelines:
    with open(path) as fh:
        doc = json.load(fh)
    for w in doc["windows"]:
        legs = (w["encode_sum_us"] + w["queue_sum_us"]
                + w["prop_sum_us"] + w["display_sum_us"])
        assert legs == w["frame_age_sum_us"], \
            f"{path}: leg sums {legs} != frame age {w['frame_age_sum_us']}"

dossiers = sorted(glob.glob("forensics-jobs1/incidents/*.json"))
assert dossiers, "no incident dossiers were written"
for path in dossiers:
    with open(path) as fh:
        doc = json.load(fh)
    for key in ("subject", "incident", "window", "faults",
                "commands", "timeline", "trace"):
        assert key in doc, f"{path}: missing {key}"
    mark = doc["incident"]["time_us"]
    assert doc["window"]["from_us"] <= mark <= doc["window"]["to_us"]
print(f"{len(timelines)} timelines, {len(dossiers)} dossiers validated")
PY

section "5. trace replay: schedule must not change a byte"
TRACE=(all --quick --trace-in "$ROOT/examples/traces/5g_urban.jsonl")
"$REPRO" "${TRACE[@]}" --jobs 1 > trace-jobs1.txt
"$REPRO" "${TRACE[@]}" --jobs 4 > trace-jobs4.txt
"$REPRO" "${TRACE[@]}" --jobs 1 --batch 1 > trace-batch1.txt
"$REPRO" "${TRACE[@]}" --jobs 1 --batch 8 > trace-batch8.txt
for f in trace-jobs1 trace-jobs4 trace-batch1 trace-batch8; do
    normalize "$f"
done
diff -u trace-jobs1.norm trace-jobs4.norm
diff -u trace-jobs1.norm trace-batch1.norm
diff -u trace-jobs1.norm trace-batch8.norm
grep "campaign digest" trace-jobs1.txt
# The trace must actually have driven the runs: a campaign that silently
# dropped the schedule would pass the diffs trivially.
grep "trace:5g_urban" trace-jobs1.txt

section "6. telemetry: counters and digest must match across schedules and the golden"
"$REPRO" collisions --quick --telemetry --jobs 1 2>/dev/null > telemetry-jobs1.txt
"$REPRO" collisions --quick --telemetry --jobs 4 2>/dev/null > telemetry-jobs4.txt
# Keep the `name = value` counter lines and the campaign digest line (which
# folds in the telemetry fingerprint); histogram rows carry wall-clock
# `*_ns` timings and are not compared.
for f in telemetry-jobs1 telemetry-jobs4; do
    grep -E '^campaign digest|^  [[:alnum:]_.]+ += [0-9]+$' "$f.txt" \
        | sed 's/, jobs [0-9]*, batch [0-9]*)/)/' > "$f.norm"
done
test "$(grep -c ' = ' telemetry-jobs1.norm)" -gt 0
diff -u telemetry-jobs1.norm telemetry-jobs4.norm
diff -u "$ROOT/tests/golden/telemetry_quick.txt" telemetry-jobs1.norm
grep "campaign digest" telemetry-jobs1.norm

section "schedule invariance holds"
