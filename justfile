# Developer entry points. `just check` is the pre-merge gate.

# Build + exhibit bytes + test + lint + docs + determinism +
# fault-tolerance smoke + performance regression gate, exactly what CI runs.
check: build golden test clippy lint-kernels doc bench-smoke serve-smoke perf-gate

build:
    cargo build --release --workspace --bins --examples

test:
    cargo test --workspace

# Panicking escape hatches are denied in library code (workspace [lints]
# plus clippy.toml's allow-*-in-tests), and so are the determinism hazards:
# clippy.toml bans hash containers, wall-clock reads, locks, channels and
# atomics by type, the simulator crates forbid waiving those bans, and
# `unsafe` is denied (DESIGN.md §12). Any warning fails the gate.
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Static kernel-IR lint over every bundled workload (structure, def-use,
# Table-I cross-check, SAP oracle). Warnings fail the gate, mirroring
# clippy's -D warnings.
lint-kernels:
    cargo run --release -p apres-bench --bin kernel-lint -- --deny-warnings --oracle

# API docs must build warning-free (gpu-common and apres-core additionally
# deny missing docs at compile time).
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The exhibit bytes are the spec: every fast-scale exhibit, regenerated at
# --jobs 2 and again at --jobs 1, each pass through its own fresh result
# cache, must equal results/fast_scale.txt and results/csv_fast/ byte for
# byte (needs `just build` first).
golden:
    bash scripts/golden.sh

# Determinism gate of the parallel sweep harness: every bench binary that
# `golden` does not cover must print byte-identical output at the minimal
# scale under --jobs 1 and --jobs 2, and every example must exit 0 with the
# same stdout on two runs (needs `just build` first; `check` orders them
# correctly).
bench-smoke:
    bash scripts/bench_smoke.sh

# Fault-tolerance gate of the batch service: a batch served cold, warm
# from the verified result cache, or through a truncated cache entry must
# be byte-identical to a direct harness run; a killed worker or a stalled
# job must fail exactly that job, typed and uncached, so a clean re-serve
# is byte-identical again (needs `just build` first).
serve-smoke:
    bash scripts/serve_smoke.sh

# Measured-performance regression gate: re-times the pinned suite of
# perf_trajectory against an in-process calibration loop and fails if
# suite/calibration rose >25% above the newest checked-in BENCH_*.json
# (a same-process ratio, not absolute rates, so the gate is
# machine-portable), or if any suite entry makes more heap allocations
# than that file records (exact counts, zero tolerance; METHODOLOGY.md).
perf-gate:
    cargo run --release -p apres-bench --bin perf_trajectory -- --fast --check > /dev/null

# Regenerate the measured-performance trajectory after intentional
# performance work: writes the next BENCH_<n>.json for review/check-in.
perf-record:
    cargo run --release -p apres-bench --bin perf_trajectory -- --fast --write > /dev/null

# Regenerate every paper exhibit at reduced scale (smoke test of the
# figure pipeline; skipped data points are reported on stderr).
exhibits-fast:
    cargo run --release -p apres-bench --bin table1
    cargo run --release -p apres-bench --bin table2
    cargo run --release -p apres-bench --bin table3
    cargo run --release -p apres-bench --bin fig2 -- --fast
    cargo run --release -p apres-bench --bin fig10 -- --fast
