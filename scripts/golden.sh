#!/usr/bin/env bash
# `just golden` — the exhibit bytes are the spec.
#
# Regenerates every fast-scale exhibit (`--fast --jobs 2`) through one fresh
# shared result cache, writes `== <name> ==` followed by each binary's stdout
# into one file, and byte-compares it with the checked-in
# `results/fast_scale.txt`. The eight CSV exhibits also write `--csv`, and
# that directory must equal `results/csv_fast/` file for file. A change that
# moves any exhibit number fails here; a change that means to must
# regenerate both copies in the same commit, so the diff is reviewed.
#
# Needs the release binaries (`just build`; `check` orders them correctly).
set -u
cd "$(dirname "$0")/.."
BIN=target/release
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/cache" "$work/csv"
fail=0

for name in fig2 fig3 fig4 fig10 fig11 fig12 fig13 fig14 fig15 \
  ablation_apres ablation_substrate bypass_study; do
  csv=()
  case "$name" in
    fig2 | fig3 | fig4 | fig10 | fig12 | fig13 | fig14 | fig15) csv=(--csv "$work/csv") ;;
  esac
  echo "== $name ==" >> "$work/fast_scale.txt"
  if ! "$BIN/$name" --fast --jobs 2 --cache "$work/cache" "${csv[@]}" \
    >> "$work/fast_scale.txt" 2>/dev/null; then
    echo "FAIL $name: exited non-zero"
    fail=1
  fi
done

if cmp -s "$work/fast_scale.txt" results/fast_scale.txt; then
  echo "ok   results/fast_scale.txt"
else
  echo "FAIL results/fast_scale.txt differs:"
  diff results/fast_scale.txt "$work/fast_scale.txt" | head -20
  fail=1
fi
if diff -r results/csv_fast "$work/csv" > "$work/csv.diff"; then
  echo "ok   results/csv_fast/"
else
  echo "FAIL results/csv_fast/ differs:"
  head -20 "$work/csv.diff"
  fail=1
fi

if [ $fail -ne 0 ]; then
  echo "golden: FAILED"
  exit 1
fi
echo "golden: every fast-scale exhibit byte-identical to results/"
