#!/usr/bin/env bash
# `just bench-smoke` — the determinism gate of the parallel sweep harness.
#
# Runs every bench binary that `just golden` does not cover at the minimal
# (--tiny) scale twice, once with `--jobs 1` and once with `--jobs 2`, and
# byte-compares stdout; for the binaries that emit JSON artifacts it
# byte-compares those too. Any difference means the harness leaked
# thread-scheduling order into the output, which is a bug (see DESIGN.md
# §10). The twelve fast-scale exhibit binaries are checked against the
# checked-in results/ at both job counts by `just golden` instead.
#
# Every example under examples/ also runs twice and must exit 0 with
# identical stdout both times.
set -u
cd "$(dirname "$0")/.."
BIN=target/release
fail=0

compare() {
  local name="$1"
  shift
  local out1 out2 rc
  out1="$("$BIN/$name" "$@" --jobs 1 2>/dev/null)"
  rc=$?
  if [ $rc -ne 0 ]; then
    echo "FAIL $name: --jobs 1 exited $rc"
    fail=1
    return
  fi
  out2="$("$BIN/$name" "$@" --jobs 2 2>/dev/null)"
  rc=$?
  if [ $rc -ne 0 ]; then
    echo "FAIL $name: --jobs 2 exited $rc"
    fail=1
    return
  fi
  if [ "$out1" = "$out2" ]; then
    echo "ok   $name"
  else
    echo "FAIL $name: stdout differs between --jobs 1 and --jobs 2"
    diff <(printf '%s\n' "$out1") <(printf '%s\n' "$out2") | head -10
    fail=1
  fi
}

json_compare() {
  local name="$1"
  shift
  local d1 d2
  d1=$(mktemp -d)
  d2=$(mktemp -d)
  "$BIN/$name" "$@" --jobs 1 --json "$d1" >/dev/null 2>&1
  "$BIN/$name" "$@" --jobs 2 --json "$d2" >/dev/null 2>&1
  if diff -r "$d1" "$d2" >/dev/null 2>&1 && [ -n "$(ls -A "$d1")" ]; then
    echo "ok   $name (json artifacts)"
  else
    echo "FAIL $name: JSON artifacts differ (or none were written)"
    fail=1
  fi
  rm -rf "$d1" "$d2"
}

# A binary run with --no-time must not print a wall-clock figure on
# stdout OR stderr: `--no-time` promises a byte-comparable run end to
# end, and a stray "in 1.23s" / "4.56 sims/s" breaks that promise (the
# StageTimer/Progress paths print "-" or omit rates instead).
no_time_check() {
  local name="$1"
  shift
  local out
  out="$("$BIN/$name" "$@" --no-time --jobs 1 2>&1)"
  if [ $? -ne 0 ]; then
    echo "FAIL $name: --no-time run exited non-zero"
    fail=1
    return
  fi
  if printf '%s\n' "$out" | grep -Eq 'in [0-9]+\.[0-9]+s|[0-9.]+ sims/s|cycles/s|instr/s'; then
    echo "FAIL $name: timing leaked into --no-time output:"
    printf '%s\n' "$out" | grep -E 'in [0-9]+\.[0-9]+s|[0-9.]+ sims/s|cycles/s|instr/s' | head -5
    fail=1
  else
    echo "ok   $name (--no-time silent about wall time)"
  fi
}

# Every table and study binary outside the golden set, at the scale
# bench-smoke exercises.
compare table1 --tiny
compare table2 --tiny
compare table3 --tiny
compare sweep --tiny
compare diag --tiny SRAD
compare fidelity
compare kernel-lint --oracle

# JSON artifacts must be byte-identical too (exhibit + sweep shapes).
json_compare fig10 --tiny
json_compare fig12 --tiny
json_compare sweep --tiny

# --no-time runs must be silent about wall time everywhere (the Clock
# routing of the bench binaries plus the harness's no-time summary).
no_time_check table1 --tiny
no_time_check fidelity
no_time_check fig10 --tiny

# perf_trajectory's timing-free path: --dry-run must exit 0, print no
# timing figures (measured rates belong to `just perf-gate`, not the
# determinism smoke), and be byte-identical across invocations.
ptj1="$("$BIN/perf_trajectory" --dry-run 2>&1)"
if [ $? -ne 0 ]; then
  echo "FAIL perf_trajectory: --dry-run exited non-zero"
  fail=1
elif printf '%s\n' "$ptj1" | grep -Eq 'in [0-9]+\.[0-9]+s|[0-9.]+ sims/s|cycles/s|instr/s'; then
  echo "FAIL perf_trajectory: timing leaked into --dry-run output"
  fail=1
elif [ "$ptj1" != "$("$BIN/perf_trajectory" --dry-run 2>&1)" ]; then
  echo "FAIL perf_trajectory: --dry-run output not reproducible"
  fail=1
else
  echo "ok   perf_trajectory (--dry-run timing-free and reproducible)"
fi

# Every example runs twice with its default arguments: both runs must exit
# 0 and print the same stdout (the examples take no --jobs flag).
example_twice() {
  local name="$1"
  local out1 out2 rc
  out1="$("$BIN/examples/$name" 2>/dev/null)"
  rc=$?
  if [ $rc -ne 0 ]; then
    echo "FAIL example $name: first run exited $rc"
    fail=1
    return
  fi
  out2="$("$BIN/examples/$name" 2>/dev/null)"
  rc=$?
  if [ $rc -ne 0 ]; then
    echo "FAIL example $name: second run exited $rc"
    fail=1
  elif [ "$out1" = "$out2" ]; then
    echo "ok   example $name (exit 0, same stdout twice)"
  else
    echo "FAIL example $name: stdout differs between two runs"
    diff <(printf '%s\n' "$out1") <(printf '%s\n' "$out2") | head -10
    fail=1
  fi
}

for ex in examples/*.rs; do
  example_twice "$(basename "$ex" .rs)"
done

if [ $fail -ne 0 ]; then
  echo "bench-smoke: FAILED"
  exit 1
fi
echo "bench-smoke: all binaries byte-identical across --jobs, examples reproducible"
