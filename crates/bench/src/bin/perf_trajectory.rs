//! Measured-performance trajectory: times a pinned simulation suite
//! against an in-process calibration loop and records the result as a
//! `BENCH_<n>.json` checkpoint (rebar-style measurement methodology; see
//! METHODOLOGY.md).
//!
//! ```text
//! cargo run --release -p apres-bench --bin perf_trajectory -- [--fast|--tiny]
//!     [--reps N] [--dry-run | --write | --check]
//! ```
//!
//! * default — measure and print the trajectory without writing anything;
//! * `--write` — measure and write the next `BENCH_<n>.json` in the
//!   current directory;
//! * `--check` — measure and compare against the newest checked-in
//!   `BENCH_*.json` (`just perf-gate`): exits 1 when
//!   `tick_over_calibration` exceeds the recorded value by more than 25%,
//!   or (format 4) when any suite entry makes more heap allocations than
//!   recorded;
//! * `--dry-run` — print the pinned suite and exit without reading the
//!   clock at all (the `bench_smoke.sh` smoke path: no timing figures,
//!   so output is byte-comparable across runs);
//! * `--reps N` — suite passes (default 7).
//!
//! The time gate compares a ratio, not absolute rates: absolute cycles/s
//! depends on the host, while suite seconds ÷ calibration seconds — both
//! timed in this process, pass by pass — cancels the host's speed and
//! tracks the cycle loop (METHODOLOGY.md). The calibration loop is the
//! substrate microbenchmarks of [`apres_bench::calibrate`]. The allocation
//! gate needs no such care: a counting global allocator makes each entry's
//! allocation count exact, the same on every host, so it is gated with
//! zero tolerance.

use apres_bench::alloc::{allocations, Counting};
use apres_bench::calibrate::{calibration_pass, Microbench};
use apres_bench::{simulation_for, BenchArgs, Combo, Scale, StageTimer, APRES, BASELINE};
use gpu_common::json::{parse, Json};
use gpu_workloads::Benchmark;

#[global_allocator]
static ALLOC: Counting = Counting;

/// One pinned suite entry; `hi_lat` applies the latency-stress config
/// (ample MSHRs, 600-cycle DRAM), where memory latency rather than MSHR
/// retries bounds the run (METHODOLOGY.md).
struct Entry {
    bench: Benchmark,
    combo: Combo,
    hi_lat: bool,
}

const fn entry(bench: Benchmark, combo: Combo, hi_lat: bool) -> Entry {
    Entry { bench, combo, hi_lat }
}

/// The pinned sub-suite: memory-bound Table-I kernels, one compute-bound
/// control, one latency-stress point. Append only — renumbering entries
/// would make trajectories incomparable.
const SUITE: [Entry; 6] = [
    entry(Benchmark::Bfs, BASELINE, false),
    entry(Benchmark::Spmv, BASELINE, false),
    entry(Benchmark::Km, BASELINE, false),
    entry(Benchmark::Spmv, APRES, false),
    entry(Benchmark::Hs, BASELINE, false),
    entry(Benchmark::Spmv, BASELINE, true),
];

/// Maximum tolerated rise of `tick_over_calibration` over the recorded
/// value: ten processes read within +14% of their median on a shared
/// 2-vCPU host (METHODOLOGY.md), and a tick loop 1.5× slower reads +50%.
const GATE_TOLERANCE: f64 = 0.25;

/// Trajectory file format version (v3: tick only, gated against the
/// calibration loop; v4 adds each entry's exact heap-allocation count).
const FORMAT_VERSION: u64 = 4;

/// Default number of interleaved suite passes.
const DEFAULT_PASSES: u64 = 7;

enum Action {
    Measure,
    Write,
    Check,
    DryRun,
}

fn main() {
    let mut action = Action::Measure;
    let mut passes = DEFAULT_PASSES;
    // Split our own flags off before handing the rest to the shared
    // parser (which rejects unknown flags).
    let mut rest: Vec<String> = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--dry-run" => action = Action::DryRun,
            "--write" => action = Action::Write,
            "--check" => action = Action::Check,
            "--reps" => {
                let v = argv.next().unwrap_or_default();
                passes = v.parse().unwrap_or(0);
                if passes == 0 {
                    eprintln!("--reps: expected a positive number, got {v:?}");
                    std::process::exit(2);
                }
            }
            _ => rest.push(a),
        }
    }
    let args = match BenchArgs::parse_from(rest.into_iter()) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!(
                "usage: perf_trajectory [--fast | --tiny] [--reps N] \
                 [--dry-run | --write | --check]"
            );
            std::process::exit(2);
        }
    };
    if let Action::DryRun = action {
        dry_run(&args, passes);
        return;
    }
    if args.no_time {
        // A trajectory *is* wall-clock data; there is nothing meaningful
        // to measure with the clock disabled. `--dry-run` is the
        // timing-free path (METHODOLOGY.md).
        eprintln!("--no-time conflicts with measurement; use --dry-run instead");
        std::process::exit(2);
    }
    let trajectory = measure(args.scale, passes);
    println!("{}", render(&trajectory));
    match action {
        Action::Measure | Action::DryRun => {}
        Action::Write => write_next(&trajectory),
        Action::Check => check_gate(&trajectory),
    }
}

struct Trajectory {
    scale: Scale,
    /// Per-suite-entry best seconds over all passes, parallel to [`SUITE`].
    seconds: Vec<f64>,
    /// Simulated cycles per entry (identical in every pass).
    cycles: Vec<u64>,
    /// Heap allocations per entry, build to result (identical in every
    /// pass).
    allocs: Vec<u64>,
    /// Fastest calibration pass, in seconds.
    calibration_seconds: f64,
    /// Per pass: suite seconds ÷ the faster of the calibration passes
    /// just before and just after it.
    ratios: Vec<f64>,
}

impl Trajectory {
    fn total_seconds(&self) -> f64 {
        self.seconds.iter().sum()
    }

    fn per_sec(&self, work: f64) -> f64 {
        let secs = self.total_seconds();
        if secs <= 0.0 {
            0.0
        } else {
            work / secs
        }
    }

    /// The gated quantity: the median per-pass ratio.
    fn tick_over_calibration(&self) -> f64 {
        let mut sorted = self.ratios.clone();
        sorted.sort_by(f64::total_cmp);
        let mid = sorted.len() / 2;
        if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        }
    }
}

fn suite_label(e: &Entry) -> String {
    let base = format!("{}/{}", e.bench.label(), e.combo.label());
    if e.hi_lat {
        format!("{base}@hi-lat")
    } else {
        base
    }
}

/// Prints the pinned suite without ever reading the clock.
fn dry_run(args: &BenchArgs, passes: u64) {
    println!(
        "perf_trajectory dry run: {} suite entries at {} scale, {} pass(es) \
         interleaved with a calibration pass of {} microbenchmarks",
        SUITE.len(),
        args.scale.label(),
        passes,
        Microbench::ALL.len()
    );
    for entry in &SUITE {
        println!("  {}", suite_label(entry));
    }
    for bench in Microbench::ALL {
        println!("  calibration: {}", bench.name());
    }
    println!("no simulations were run and no clock was read");
}

/// Measures `passes` suite passes, each between two calibration passes,
/// serially (worker-count jitter would contaminate the measurement;
/// METHODOLOGY.md). One untimed warmup of each comes first, so first
/// allocation and page-cache effects land on untimed runs.
fn measure(scale: Scale, passes: u64) -> Trajectory {
    let timer = StageTimer::new(false);
    let time = |f: &mut dyn FnMut()| {
        let start = timer.start();
        f();
        timer
            .seconds_since(start)
            .expect("timer is armed outside --dry-run")
    };
    run_entry(&SUITE[0], scale);
    calibration_pass();
    let mut seconds = vec![f64::INFINITY; SUITE.len()];
    let mut cycles = vec![0; SUITE.len()];
    let mut allocs = vec![0; SUITE.len()];
    let mut before = time(&mut calibration_pass);
    let mut calibration_seconds = before;
    let mut ratios = Vec::new();
    for pass in 1..=passes {
        let mut suite = 0.0;
        for (i, entry) in SUITE.iter().enumerate() {
            let mut simulated = 0;
            let before = allocations();
            let secs = time(&mut || simulated = run_entry(entry, scale));
            let allocated = allocations() - before;
            assert!(
                pass == 1 || (simulated, allocated) == (cycles[i], allocs[i]),
                "{} simulated a different cycle or allocation count in pass {pass}",
                suite_label(entry)
            );
            cycles[i] = simulated;
            allocs[i] = allocated;
            seconds[i] = seconds[i].min(secs);
            suite += secs;
        }
        let after = time(&mut calibration_pass);
        calibration_seconds = calibration_seconds.min(after);
        let ratio = suite / before.min(after);
        eprintln!(
            "[perf] pass {pass}: suite {suite:.3}s, calibration {before:.3}s/{after:.3}s, \
             ratio {ratio:.3}"
        );
        ratios.push(ratio);
        before = after;
    }
    Trajectory { scale, seconds, cycles, allocs, calibration_seconds, ratios }
}

/// Runs one suite entry to completion, returning simulated cycles.
fn run_entry(entry: &Entry, scale: Scale) -> u64 {
    let mut cfg = scale.config();
    if entry.hi_lat {
        cfg.l1.mshrs = 256;
        cfg.l1.mshr_merge_slots = 16;
        cfg.dram.latency = 600;
    }
    match simulation_for(entry.bench, entry.combo, scale, &cfg).run() {
        Ok(r) => r.cycles,
        Err(e) => {
            eprintln!("fatal: {} failed: [{}] {e}", suite_label(entry), e.class());
            std::process::exit(1);
        }
    }
}

fn render(t: &Trajectory) -> String {
    let exhibits = SUITE
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            Json::Obj(vec![
                ("name".into(), Json::str(suite_label(entry))),
                ("seconds".into(), Json::from_f64(t.seconds[i])),
                ("cycles".into(), Json::from_u64(t.cycles[i])),
                ("allocs".into(), Json::from_u64(t.allocs[i])),
                (
                    "allocs_per_cycle".into(),
                    Json::from_f64(t.allocs[i] as f64 / t.cycles[i].max(1) as f64),
                ),
            ])
        })
        .collect();
    let calibration = Json::Obj(vec![
        ("seconds".into(), Json::from_f64(t.calibration_seconds)),
        (
            "microbenches".into(),
            Json::Arr(Microbench::ALL.iter().map(|b| Json::str(b.name())).collect()),
        ),
    ]);
    let tick = Json::Obj(vec![
        ("seconds".into(), Json::from_f64(t.total_seconds())),
        ("sims_per_sec".into(), Json::from_f64(t.per_sec(SUITE.len() as f64))),
        (
            "cycles_per_sec".into(),
            Json::from_f64(t.per_sec(t.cycles.iter().sum::<u64>() as f64)),
        ),
        ("exhibits".into(), Json::Arr(exhibits)),
    ]);
    let doc = Json::Obj(vec![
        ("format".into(), Json::from_u64(FORMAT_VERSION)),
        ("tool".into(), Json::str("perf_trajectory")),
        ("scale".into(), Json::str(t.scale.label())),
        ("reps".into(), Json::from_u64(t.ratios.len() as u64)),
        ("tick".into(), tick),
        ("calibration".into(), calibration),
        (
            "tick_over_calibration_passes".into(),
            Json::Arr(t.ratios.iter().map(|&r| Json::from_f64(r)).collect()),
        ),
        ("tick_over_calibration".into(), Json::from_f64(t.tick_over_calibration())),
    ]);
    let mut text = doc.to_pretty();
    text.push('\n');
    text
}

/// Largest `BENCH_<n>.json` index in the current directory, with its
/// parsed contents.
fn newest_trajectory() -> Option<(u64, Json)> {
    let mut newest: Option<(u64, std::path::PathBuf)> = None;
    for dirent in std::fs::read_dir(".").ok()?.flatten() {
        let name = dirent.file_name().to_string_lossy().into_owned();
        let Some(n) = name
            .strip_prefix("BENCH_")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        if newest.as_ref().is_none_or(|(best, _)| n > *best) {
            newest = Some((n, dirent.path()));
        }
    }
    let (n, path) = newest?;
    let text = std::fs::read_to_string(&path).ok()?;
    match parse(&text) {
        Ok(doc) => Some((n, doc)),
        Err(e) => {
            eprintln!("warning: {} does not parse: {e}", path.display());
            None
        }
    }
}

fn write_next(t: &Trajectory) {
    let next = newest_trajectory().map_or(1, |(n, _)| n + 1);
    let path = format!("BENCH_{next:04}.json");
    match std::fs::write(&path, render(t)) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn check_gate(t: &Trajectory) {
    let Some((n, doc)) = newest_trajectory() else {
        eprintln!("perf-gate: no BENCH_*.json trajectory to compare against");
        std::process::exit(1);
    };
    let Some(recorded) = doc.get("tick_over_calibration").and_then(Json::as_f64) else {
        eprintln!("perf-gate: BENCH_{n:04}.json lacks tick_over_calibration (format < 3)");
        std::process::exit(1);
    };
    let current = t.tick_over_calibration();
    let ceiling = recorded * (1.0 + GATE_TOLERANCE);
    let mut failed = false;
    if current > ceiling {
        eprintln!(
            "perf-gate: FAIL — tick/calibration {current:.2} rose more than {:.0}% above \
             the recorded {recorded:.2} (BENCH_{n:04}.json ceiling {ceiling:.2})",
            GATE_TOLERANCE * 100.0
        );
        failed = true;
    } else {
        eprintln!(
            "perf-gate: OK — tick/calibration {current:.2} vs recorded {recorded:.2} \
             (BENCH_{n:04}.json, ceiling {ceiling:.2})"
        );
    }
    failed |= !allocations_hold(t, &doc, n);
    if failed {
        std::process::exit(1);
    }
}

/// The allocation gate: no suite entry may make more heap allocations than
/// `doc` records for it. Counts are exact, so the tolerance is zero. A
/// format-3 record holds no counts and gates the ratio alone; counts
/// recorded at another scale are not comparable.
fn allocations_hold(t: &Trajectory, doc: &Json, n: u64) -> bool {
    if doc.get("scale").and_then(Json::as_str) != Some(t.scale.label()) {
        eprintln!(
            "perf-gate: BENCH_{n:04}.json was recorded at another scale; \
             allocation counts not compared"
        );
        return true;
    }
    let recorded = |label: &str| {
        doc.get("tick")?
            .get("exhibits")?
            .as_arr()?
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some(label))?
            .get("allocs")?
            .as_u64()
    };
    let mut ok = true;
    let mut checked = 0;
    for (i, entry) in SUITE.iter().enumerate() {
        let label = suite_label(entry);
        let Some(limit) = recorded(&label) else {
            continue;
        };
        checked += 1;
        let current = t.allocs[i];
        if current > limit {
            eprintln!(
                "perf-gate: FAIL — {label} made {current} heap allocations, \
                 {} more than the {limit} BENCH_{n:04}.json records",
                current - limit
            );
            ok = false;
        } else if current < limit {
            eprintln!(
                "perf-gate: note — {label} made {current} heap allocations, \
                 {} fewer than recorded; record a new BENCH file to lock that in",
                limit - current
            );
        }
    }
    if checked == 0 {
        eprintln!("perf-gate: BENCH_{n:04}.json records no allocation counts (format < 4)");
    } else if ok {
        eprintln!("perf-gate: OK — no entry allocates more than BENCH_{n:04}.json records");
    }
    ok
}
