#!/usr/bin/env bash
# `just golden` — the exhibit bytes are the spec.
#
# usage: scripts/golden.sh [--paper]
#
# Regenerates every fast-scale exhibit (`--fast`) through one fresh shared
# result cache, writes `== <name> ==` followed by each binary's stdout into
# one file, and byte-compares it with the checked-in
# `results/fast_scale.txt`. The eight CSV exhibits also write `--csv`, and
# that directory must equal `results/csv_fast/` file for file. The whole
# pass runs twice, at `--jobs 2` and at `--jobs 1`, each through its own
# fresh cache, so both worker counts simulate and both must reproduce the
# checked-in bytes. A change that moves any exhibit number fails here; a
# change that means to must regenerate both copies in the same commit, so
# the diff is reviewed.
#
# `--paper` (`just golden-paper`) checks the Table III scale instead: every
# artifact of `results/json/` is regenerated at `--jobs 2` through one
# fresh shared cache and `diff -r`'d against the checked-in directory. It
# takes 30–50 s on two cores, so `just check` leaves it out; the last line
# gives its wall-clock and the cache's count of unique simulations.
#
# Needs the release binaries (`just build`; `check` orders them correctly).
set -u
cd "$(dirname "$0")/.."
BIN=target/release
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
fail=0

# paper_pass: every results/json/ artifact at Table III scale.
paper_pass() {
  local dir="$work/paper"
  mkdir -p "$dir/cache" "$dir/json"
  for name in table1 fig2 fig3 fig4 fig10 fig11 fig12 fig13 fig14 fig15 \
    fidelity sweep; do
    if ! "$BIN/$name" --jobs 2 --cache "$dir/cache" --json "$dir/json" \
      > /dev/null 2>&1; then
      echo "FAIL $name: exited non-zero"
      fail=1
    fi
  done
  if diff -r results/json "$dir/json" > "$dir/json.diff"; then
    echo "ok   results/json/ (Table III scale, --jobs 2)"
  else
    echo "FAIL results/json/ differs:"
    head -20 "$dir/json.diff"
    fail=1
  fi
  unique_sims=$(find "$dir/cache" -name '*.json' | wc -l)
}

if [ "${1:-}" = "--paper" ]; then
  paper_pass
  if [ $fail -ne 0 ]; then
    echo "golden-paper: FAILED"
    exit 1
  fi
  echo "golden-paper: every results/json/ artifact byte-identical" \
    "($unique_sims unique simulations, ${SECONDS}s)"
  exit 0
fi

# golden_pass JOBS: one regeneration at `--jobs JOBS`, checked against
# results/.
golden_pass() {
  local jobs="$1" dir="$work/jobs$1"
  mkdir -p "$dir/cache" "$dir/csv"
  for name in fig2 fig3 fig4 fig10 fig11 fig12 fig13 fig14 fig15 \
    ablation_apres ablation_substrate bypass_study; do
    csv=()
    case "$name" in
      fig2 | fig3 | fig4 | fig10 | fig12 | fig13 | fig14 | fig15) csv=(--csv "$dir/csv") ;;
    esac
    echo "== $name ==" >> "$dir/fast_scale.txt"
    if ! "$BIN/$name" --fast --jobs "$jobs" --cache "$dir/cache" "${csv[@]}" \
      >> "$dir/fast_scale.txt" 2>/dev/null; then
      echo "FAIL $name --jobs $jobs: exited non-zero"
      fail=1
    fi
  done

  if cmp -s "$dir/fast_scale.txt" results/fast_scale.txt; then
    echo "ok   results/fast_scale.txt (--jobs $jobs)"
  else
    echo "FAIL results/fast_scale.txt differs at --jobs $jobs:"
    diff results/fast_scale.txt "$dir/fast_scale.txt" | head -20
    fail=1
  fi
  if diff -r results/csv_fast "$dir/csv" > "$dir/csv.diff"; then
    echo "ok   results/csv_fast/ (--jobs $jobs)"
  else
    echo "FAIL results/csv_fast/ differs at --jobs $jobs:"
    head -20 "$dir/csv.diff"
    fail=1
  fi
}

golden_pass 2
golden_pass 1

if [ $fail -ne 0 ]; then
  echo "golden: FAILED"
  exit 1
fi
echo "golden: every fast-scale exhibit byte-identical to results/ at --jobs 2 and 1"
