#!/usr/bin/env bash
# `just serve-smoke` — the fault-tolerance gate of the batch service.
#
# Drives the release apres-serve binary through the service fault matrix
# and asserts the acceptance properties of DESIGN.md §11:
#   * a batch served cold, warm from the verified cache, or through a
#     truncated cache entry is byte-identical to a direct harness run of
#     the same specs — the service machinery is invisible in the results;
#   * a killed worker or a job stalled past its deadline fails that one job
#     with a typed error (the batch degrades, exit 1), and the failed job is
#     never cached: a clean re-serve afterwards is byte-identical to the
#     direct run again.
set -u
cd "$(dirname "$0")/.."
BIN=target/release/apres-serve
fail=0

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
CACHE="$work/cache"
BATCH="$work/batch.json"

cat > "$BATCH" <<'EOF'
{
  "name": "smoke",
  "jobs": [
    {"bench": "HS", "sched": "LRR", "pf": "none", "scale": "tiny"},
    {"bench": "KM", "sched": "LAWS", "pf": "SAP", "scale": "tiny"},
    {"bench": "BFS", "sched": "CCWS", "pf": "STR", "scale": "tiny"},
    {"bench": "HS", "sched": "LRR", "pf": "none", "scale": "tiny"}
  ]
}
EOF

# serve NAME EXIT EXPECT_GREP [flags...] — run one serving, capture stdout,
# assert the exit status and that stderr matches EXPECT_GREP (empty = no
# check).
serve() {
  local name="$1" want_rc="$2" expect="$3"
  shift 3
  local out rc err
  err="$work/$name.stderr"
  out="$("$BIN" "$BATCH" "$@" 2>"$err")"
  rc=$?
  if [ $rc -ne "$want_rc" ]; then
    echo "FAIL $name: exited $rc, expected $want_rc"
    sed 's/^/  /' "$err" | tail -5
    fail=1
    return 1
  fi
  if [ -n "$expect" ] && ! grep -q "$expect" "$err"; then
    echo "FAIL $name: stderr does not match '$expect'"
    sed 's/^/  /' "$err" | tail -5
    fail=1
    return 1
  fi
  printf '%s\n' "$out" > "$work/$name.out"
  echo "ok   $name (exit $rc)"
}

identical() {
  local a="$1" b="$2"
  if cmp -s "$work/$a.out" "$work/$b.out"; then
    echo "ok   $a == $b (byte-identical)"
  else
    echo "FAIL $a vs $b: responses differ"
    diff "$work/$a.out" "$work/$b.out" | head -10
    fail=1
  fi
}

# failed_once NAME CLASS — the response holds exactly one failed job, and
# its error is of CLASS.
failed_once() {
  local name="$1" class="$2" n
  n=$(grep -c '"status": "failed"' "$work/$name.out" 2>/dev/null)
  n=${n:-0}
  if [ "$n" -eq 1 ] && grep -q "\"class\": \"$class\"" "$work/$name.out"; then
    echo "ok   $name: one failed job, [$class]"
  else
    echo "FAIL $name: expected one failed job of class $class, found $n failed"
    fail=1
  fi
}

# Reference: the batch computed directly on the bench harness pool,
# bypassing every piece of service machinery.
serve direct 0 "" --direct --jobs 2

# Cold serving populates the cache (3 unique jobs; the 4th is a dup).
serve cold 0 "cache 0 hit(s) / 3 miss(es)" --cache "$CACHE" --jobs 2

# Warm re-serving must be 100% cache hits.
serve warm 0 "cache 3 hit(s) / 0 miss(es)" --cache "$CACHE" --jobs 2

# Truncated entry: detected by verification, evicted, recomputed, stored.
serve truncated 0 "1 evicted, 0 failed" --cache "$CACHE" --jobs 2 --fault-truncate 1

# Corrupt job 1's entry AND kill the worker that recomputes it, in the
# same serving (the kill targets the compute path, which only the evicted
# job reaches on a warm cache): the entry is evicted, the recompute panics
# and the job fails once, typed. Runs after `truncated`, because a killed
# recompute is not stored and the entry is gone afterwards.
serve faulted 1 "1 evicted, 1 failed" \
  --cache "$CACHE" --jobs 2 --fault-corrupt 1 --fault-kill 1
failed_once faulted invariant-violation

# The killed job was not cached: a clean re-serve misses it, recomputes it
# and matches the direct run.
serve after_faulted 0 "cache 2 hit(s) / 1 miss(es)" --cache "$CACHE" --jobs 2

# Stalled job: it blows its deadline and fails once, typed. Clear the
# cache first — a cache hit would never reach the compute path the stall
# fault lives on.
rm -rf "$CACHE"
serve stalled 1 "1 failed" \
  --cache "$CACHE" --jobs 2 --fault-stall 2 --deadline-ms 2000
failed_once stalled job-timeout

# The timed-out job was not cached either.
serve after_stalled 0 "cache 2 hit(s) / 1 miss(es)" --cache "$CACHE" --jobs 2

# The retry flags are gone: using one is a usage error.
if "$BIN" "$BATCH" --retries 3 >/dev/null 2>&1; then rc=0; else rc=$?; fi
if [ "$rc" -eq 2 ]; then
  echo "ok   --retries is rejected (exit 2)"
else
  echo "FAIL --retries: exited $rc, expected 2"
  fail=1
fi

# Acceptance: every serving that completed, whatever the cache state,
# must match the direct harness run byte-for-byte.
identical cold direct
identical warm direct
identical truncated direct
identical after_faulted direct
identical after_stalled direct

if [ $fail -ne 0 ]; then
  echo "serve-smoke: FAILED"
  exit 1
fi
echo "serve-smoke: cold, warm and recovered servings byte-identical to direct; faults fail once, typed, uncached"
