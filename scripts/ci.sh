#!/usr/bin/env bash
# Tier-1 verification plus the end-to-end smoke of the `tussle` CLI,
# the single entry point (bench/main.exe only runs the microbenchmarks):
#   - dune build && dune runtest
#   - battery run with --report/--trace, schema validation of both
#   - behaviour lock: battery stdout, the fixed-seed chaos sweep stdout
#     and every corpus narrative of tussle explain match the committed
#     digests scripts/battery.sha256, scripts/chaos.sha256 and
#     scripts/explain.sha256
#   - telemetry must not perturb battery stdout
#   - garbage flag values and unknown options exit 2 on every
#     subcommand; bench/main.exe exits 2 when given any argument
#   - fault battery smoke: E28 is deterministic per fault seed and
#     differs across seeds
#   - watchdog: a hung experiment becomes FAILED (timeout), exit 1
#   - tussle report on a missing/unreadable file exits 2 cleanly
#   - chaos smoke: a fixed-seed sweep over the extended fault grammar
#     (gray loss, unidirectional, flap, blackhole included) is clean
#     and byte-identical across --domains 1/2/4; the committed corpus
#     (including the covert-fault reproducers) replays clean
#   - flight recorder off (the default): battery stdout byte-identical
#     across --domains 1/2/4
#   - tussle explain: every committed corpus reproducer yields a
#     deterministic causal narrative (byte-identical across repeats)
#     plus a flow-trace artifact; missing and unparseable plans exit 2
#   - tussle trends: history lines round-trip; parse errors exit 2;
#     the battery-smoke report is appended to a copy of the committed
#     BENCH_history.jsonl under $TMP, with deltas vs BENCH_baseline.json
#   - sweep smoke: tussle sweep at a small N passes every statistical
#     verdict, the tussle.sweep-report/1 artifact validates via
#     tussle report and is byte-identical across --domains 1/2/4 and
#     across repeats
#   - search smoke: tussle search (mutate + exhaust backends) is clean
#     on the real scenarios, with stdout and the
#     tussle.search-report/1 artifact byte-identical across
#     --domains 1/2/4
#   - perf gate: E1/E3 wall clock and GC allocation within 25% of the
#     committed BENCH_baseline.json (tussle perfgate)
# Writes only under $TMP: the regenerated baseline report and the
# appended history land there, and no committed file changes.
# Re-blessing BENCH_baseline.json is a separate, explicit command (see
# README, "Re-blessing the perf baseline").
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build =="
dune build

echo "== unit tests =="
dune runtest

BENCH=_build/default/bench/main.exe
CLI=_build/default/bin/tussle_cli.exe
TMP="${TMPDIR:-/tmp}"
report="$TMP/tussle-report.json"
trace="$TMP/tussle-trace.json"

# expect CODE CMD...: run CMD with its output discarded; fail unless it
# exits CODE
expect() {
  local want=$1 code
  shift
  set +e
  "$@" >/dev/null 2>&1
  code=$?
  set -e
  if [ "$code" -ne "$want" ]; then
    echo "FAIL: '$*' exited $code, expected $want" >&2
    exit 1
  fi
}

echo "== battery smoke (report + trace) =="
"$CLI" experiments --seq --report "$report" --trace "$trace" \
  > "$TMP/tussle-battery-obs.out"
"$CLI" report "$report"
# structural JSON validation of the trace is covered by test_obs; here
# just check the file materialized with the expected envelope
grep -q '"traceEvents"' "$trace"
echo "trace written: $(wc -c < "$trace") bytes"

echo "== behaviour lock: battery stdout digest =="
# an intended change to the battery output re-blesses this digest and
# states its reason in CHANGES.md
"$CLI" experiments --seq > "$TMP/tussle-battery-plain.out"
got=$(sha256sum < "$TMP/tussle-battery-plain.out" | cut -d' ' -f1)
if [ "$got" != "$(cat scripts/battery.sha256)" ]; then
  echo "FAIL: battery stdout digest $got differs from scripts/battery.sha256" >&2
  exit 1
fi
echo "battery stdout matches the committed digest"

echo "== telemetry does not perturb stdout =="
"$CLI" experiments --seq --trace "$trace" > "$TMP/tussle-battery-traced.out"
cmp "$TMP/tussle-battery-plain.out" "$TMP/tussle-battery-traced.out"
echo "battery stdout byte-identical with tracing enabled"

echo "== garbage flag values and unknown options exit 2 =="
# --flag=X form: cmdliner would otherwise read a bare "-3" as an option
for flag in --domains=nope --domains=0 --domains=-3 \
            --timeout-s=nope --timeout-s=0 --timeout-s=-1 \
            --fault-seed=nope --fault-seed=1.5; do
  expect 2 "$CLI" experiments "$flag"
done
for flag in --chaos-seed=nope --chaos-seed=1.5 \
            --chaos-runs=nope --chaos-runs=0 --chaos-runs=-3; do
  expect 2 "$CLI" chaos "$flag"
done
for flag in --sweep-seed=nope --sweep-seed=1.5 \
            --sweep-runs=nope --sweep-runs=1 --sweep-runs=-3 \
            --alpha=nope --alpha=0 --alpha=1 --alpha=2 --timeout-s=0; do
  expect 2 "$CLI" sweep "$flag"
done
expect 2 "$CLI" sweep -e E2   # no sweep surface
expect 2 "$CLI" sweep -e EZZ  # unknown id
for flag in --backend=bogus --budget=nope --budget=0 --budget=-3 \
            --sweep-seed=nope --sweep-seed=1.5 --domains=0; do
  expect 2 "$CLI" search "$flag"
done
expect 2 "$CLI" perfgate BENCH_baseline.json "$report" --tolerance=nope
expect 2 "$CLI" market --providers=0
expect 2 "$CLI" scenario --rounds=nope
for sub in experiments chaos sweep search explain trends report perfgate \
           scenario market policy; do
  expect 2 "$CLI" "$sub" --no-such-option
done
for arg in --experiments-only --bench-only --seq anything; do
  expect 2 "$BENCH" "$arg"
done
{ "$BENCH" --seq 2>&1 || true; } | grep -q 'tussle experiments'
echo "every subcommand exits 2 on bad values and unknown options; bench takes no arguments"

echo "== fault battery smoke (E28, seeded) =="
"$CLI" experiments -e E28 --fault-seed 7 > "$TMP/tussle-e28-seed7a.out"
"$CLI" experiments -e E28 --fault-seed 7 > "$TMP/tussle-e28-seed7b.out"
"$CLI" experiments -e E28 --fault-seed 8 > "$TMP/tussle-e28-seed8.out"
cmp "$TMP/tussle-e28-seed7a.out" "$TMP/tussle-e28-seed7b.out"
if cmp -s "$TMP/tussle-e28-seed7a.out" "$TMP/tussle-e28-seed8.out"; then
  echo "FAIL: E28 output identical across different fault seeds" >&2
  exit 1
fi
echo "E28 deterministic per fault seed, differs across seeds"

echo "== watchdog converts a hung experiment into FAILED (timeout) =="
set +e
timeout 30 "$CLI" experiments -e E99 --timeout-s 1 > "$TMP/tussle-e99.out" 2>&1
code=$?
set -e
if [ "$code" -ne 1 ]; then
  echo "FAIL: hung E99 under --timeout-s exited $code, expected 1" >&2
  exit 1
fi
grep -q 'FAILED (timeout' "$TMP/tussle-e99.out"
echo "hung experiment reported as FAILED (timeout) without hanging the run"

echo "== tussle report error paths exit 2 =="
expect 2 "$CLI" report "$TMP/definitely-missing-report.json"
expect 2 "$CLI" report /
echo "report prints a clean error and exits 2 on missing/unreadable files"

echo "== chaos smoke (fixed seed, domain-invariant, zero violations) =="
"$CLI" chaos --chaos-seed 42 --chaos-runs 60 --domains 1 > "$TMP/tussle-chaos-d1.out"
"$CLI" chaos --chaos-seed 42 --chaos-runs 60 --domains 2 > "$TMP/tussle-chaos-d2.out"
"$CLI" chaos --chaos-seed 42 --chaos-runs 60 --domains 4 > "$TMP/tussle-chaos-d4.out"
cmp "$TMP/tussle-chaos-d1.out" "$TMP/tussle-chaos-d2.out"
cmp "$TMP/tussle-chaos-d1.out" "$TMP/tussle-chaos-d4.out"
grep -q '60/60 runs clean, 0 violation' "$TMP/tussle-chaos-d1.out"
echo "chaos sweep clean and byte-identical across --domains 1/2/4"
# behaviour lock: an intended change re-blesses scripts/chaos.sha256
# and states its reason in CHANGES.md
got=$(sha256sum < "$TMP/tussle-chaos-d1.out" | cut -d' ' -f1)
if [ "$got" != "$(cat scripts/chaos.sha256)" ]; then
  echo "FAIL: chaos stdout digest $got differs from scripts/chaos.sha256" >&2
  exit 1
fi
echo "chaos stdout matches the committed digest"

echo "== chaos corpus replay =="
"$CLI" chaos --replay chaos/corpus
echo "committed reproducers all replay clean"

echo "== flight recorder off: battery byte-identical across domains =="
"$CLI" experiments --domains 1 > "$TMP/tussle-battery-dom1.out"
"$CLI" experiments --domains 2 > "$TMP/tussle-battery-dom2.out"
"$CLI" experiments --domains 4 > "$TMP/tussle-battery-dom4.out"
cmp "$TMP/tussle-battery-dom1.out" "$TMP/tussle-battery-dom2.out"
cmp "$TMP/tussle-battery-dom1.out" "$TMP/tussle-battery-dom4.out"
echo "battery stdout byte-identical with the recorder disabled"

echo "== tussle explain on every committed reproducer =="
: > "$TMP/tussle-explain.sha256"
for plan in chaos/corpus/*.plan; do
  "$CLI" explain "$plan" > "$TMP/tussle-explain-a.out"
  echo "$(basename "$plan") $(sha256sum < "$TMP/tussle-explain-a.out" | cut -d' ' -f1)" \
    >> "$TMP/tussle-explain.sha256"
  "$CLI" explain "$plan" > "$TMP/tussle-explain-b.out"
  cmp "$TMP/tussle-explain-a.out" "$TMP/tussle-explain-b.out"
  grep -q 'DROPPED at\|flows of interest: none' "$TMP/tussle-explain-a.out"
  "$CLI" explain "$plan" --json "$TMP/tussle-flowtrace.json" > /dev/null
  grep -q '"schema": "tussle.flow-trace/1"' "$TMP/tussle-flowtrace.json"
  echo "explain ok: $(basename "$plan")"
done
# behaviour lock: one "PLAN DIGEST" line per reproducer; an intended
# change re-blesses scripts/explain.sha256 and states its reason in
# CHANGES.md
if ! diff scripts/explain.sha256 "$TMP/tussle-explain.sha256"; then
  echo "FAIL: explain narrative digests differ from scripts/explain.sha256" >&2
  exit 1
fi
echo "every explain narrative matches the committed digest"
echo "== tussle explain error paths exit 2 =="
expect 2 "$CLI" explain "$TMP/definitely-missing.plan"
expect 2 "$CLI" explain README.md
expect 2 "$CLI" explain chaos/corpus
echo "explain exits 2 on missing/unparseable plans"

echo "== tussle trends round-trips its history =="
hist="$TMP/tussle-history.jsonl"
rm -f "$hist"
"$CLI" trends "$report" --history "$hist" | grep -q '(1 entry)'
"$CLI" trends "$report" --history "$hist" --baseline "$report" \
  > "$TMP/tussle-trends.out"
grep -q '(2 entries)' "$TMP/tussle-trends.out"
grep -q 'E1' "$TMP/tussle-trends.out"
expect 2 "$CLI" trends "$TMP/definitely-missing-report.json" --history "$hist"
echo "not json" > "$TMP/tussle-bad-history.jsonl"
expect 2 "$CLI" trends "$report" --history "$TMP/tussle-bad-history.jsonl"
echo "trends appends, round-trips, and exits 2 on parse errors"

echo "== sweep smoke (statistical verdicts, domain-invariant) =="
sweep_report="$TMP/tussle-sweep-report.json"
"$CLI" sweep --sweep-seed 42 --sweep-runs 12 --domains 1 \
  --report "$sweep_report" > "$TMP/tussle-sweep-d1.out"
"$CLI" sweep --sweep-seed 42 --sweep-runs 12 --domains 2 \
  --report "$sweep_report.d2" > "$TMP/tussle-sweep-d2.out"
"$CLI" sweep --sweep-seed 42 --sweep-runs 12 --domains 4 \
  --report "$sweep_report.d4" > "$TMP/tussle-sweep-d4.out"
cmp "$sweep_report" "$sweep_report.d2"
cmp "$sweep_report" "$sweep_report.d4"
# repeat at the same seed and the same --report path (the path is
# echoed on stdout): summary and artifact must be byte-identical
"$CLI" sweep --sweep-seed 42 --sweep-runs 12 --domains 4 \
  --report "$sweep_report.d4" > "$TMP/tussle-sweep-again.out"
cmp "$sweep_report" "$sweep_report.d4"
cmp "$TMP/tussle-sweep-d4.out" "$TMP/tussle-sweep-again.out"
grep -q 'PASS availability(heal) > availability(static)' "$TMP/tussle-sweep-d1.out"
grep -q 'PASS availability(verified) > availability(hello-only)' "$TMP/tussle-sweep-d1.out"
grep -q 'PASS covert drops shrink under verification' "$TMP/tussle-sweep-d1.out"
grep -q 'PASS markup(pb6) > markup(portable)' "$TMP/tussle-sweep-d1.out"
grep -q 'PASS price(duo) > price(open8)' "$TMP/tussle-sweep-d1.out"
if grep -q ' FAIL ' "$TMP/tussle-sweep-d1.out"; then
  echo "FAIL: sweep smoke has failing verdicts" >&2
  exit 1
fi
"$CLI" report "$sweep_report" | grep -q 'valid tussle.sweep-report/1'
echo "sweep verdicts pass; artifact schema-valid and byte-identical across --domains 1/2/4"

echo "== search smoke (both backends, domain-invariant) =="
# the corpus replay step above already re-runs every committed
# reproducer, including any the adversarial search persisted; here the
# search itself must be clean on the real scenarios and byte-identical
# (stdout AND artifact) across --domains 1/2/4 and across repeats
search_report="$TMP/tussle-search-report.json"
for backend in mutate exhaust; do
  "$CLI" search --backend "$backend" --budget 48 --sweep-seed 42 \
    --domains 1 --report "$search_report" > "$TMP/tussle-search-d1.out"
  cp "$search_report" "$search_report.d1"
  for d in 2 4; do
    "$CLI" search --backend "$backend" --budget 48 --sweep-seed 42 \
      --domains "$d" --report "$search_report" > "$TMP/tussle-search-d$d.out"
    cmp "$TMP/tussle-search-d1.out" "$TMP/tussle-search-d$d.out"
    cmp "$search_report.d1" "$search_report"
  done
  if grep -q 'VIOLATION' "$TMP/tussle-search-d1.out"; then
    echo "FAIL: $backend search found violations in the real scenarios" >&2
    exit 1
  fi
  # the exhaustive box must enumerate the extended grammar (gray loss,
  # unidirectional, flap, blackhole) — pin the space size so a grammar
  # regression is caught here, not in a missed bug later
  if [ "$backend" = exhaust ]; then
    grep -q 'box: 85710 plans' "$TMP/tussle-search-d1.out"
  fi
  "$CLI" report "$search_report" | grep -q 'valid tussle.search-report/1'
  echo "search[$backend] clean; artifact schema-valid and byte-identical across --domains 1/2/4"
done

echo "== perf gate: E1/E3 vs committed baseline =="
# gate the battery-smoke report (same binary, same run) against the
# committed baseline: a market hot-path regression beyond 25% on wall
# clock or GC allocation fails CI
"$CLI" perfgate BENCH_baseline.json "$report" --ids E1,E3 --tolerance 0.25
echo "perf gate passed"

echo "== append battery smoke to a copy of the benchmark history =="
# deltas vs the committed baseline; the committed history is not touched
cp BENCH_history.jsonl "$TMP/tussle-bench-history.jsonl"
"$CLI" trends "$report" --history "$TMP/tussle-bench-history.jsonl" \
  --baseline BENCH_baseline.json

echo "== regenerate the baseline report (not committed) =="
"$CLI" experiments --seq --report "$TMP/tussle-bench-baseline.json" > /dev/null
"$CLI" report "$TMP/tussle-bench-baseline.json"
echo "fresh baseline: $TMP/tussle-bench-baseline.json (re-bless: see README)"

echo "CI OK"
