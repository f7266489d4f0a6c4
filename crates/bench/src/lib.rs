//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Each `fig*`/`table*` binary in `src/bin/` prints the rows of one exhibit:
//!
//! | Binary   | Exhibit | Contents |
//! |----------|---------|----------|
//! | `table1` | Table I  | per-load %Load, #L/#R, miss, stride, %Stride |
//! | `fig2`   | Fig. 2   | L1 miss breakdown, 32 KB vs 32 MB L1, speedup |
//! | `fig3`   | Fig. 3   | scheduler × prefetcher speedups |
//! | `fig4`   | Fig. 4   | early-eviction ratio of STR under 4 schedulers |
//! | `table2` | Table II | APRES hardware cost |
//! | `table3` | Table III| simulated configuration |
//! | `fig10`  | Fig. 10  | IPC of CCWS/LAWS/CCWS+STR/LAWS+STR/APRES |
//! | `fig11`  | Fig. 11  | cache hit/miss breakdown (B/C/L/S/A) |
//! | `fig12`  | Fig. 12  | early eviction, CCWS+STR vs APRES |
//! | `fig13`  | Fig. 13  | average memory latency |
//! | `fig14`  | Fig. 14  | data traffic |
//! | `fig15`  | Fig. 15  | normalized dynamic energy |
//!
//! Pass `--fast` to any binary for a reduced scale (fewer SMs/iterations;
//! same qualitative shape, minutes → seconds), `--tiny` for the minimal
//! smoke-test scale. The `perf_trajectory` binary times the simulator
//! itself against the [`calibrate`] loops (`just perf-gate`).
//!
//! Every exhibit binary shards its (benchmark × policy × config) matrix
//! across a worker pool — the [`harness`] module — because each data point
//! is an independent simulation. `--jobs N` (or `APRES_JOBS`) picks the
//! worker count; results are aggregated in submission order, so stdout is
//! **byte-identical at any worker count** (`just golden` and `just
//! bench-smoke` enforce this). Command lines parse through [`cli::BenchArgs`]; tables print
//! through [`emit_table`], which also writes `--csv`/`--json` copies.
//!
//! Every data point's outcome passes through [`report_outcome`] (the
//! [`harness`] does that for its jobs): a point whose simulation fails
//! with a typed [`gpu_common::SimError`] (invalid geometry,
//! watchdog-diagnosed deadlock, …) is reported on stderr and skipped, so
//! one bad point never aborts a whole sweep. Points that exhausted their
//! cycle budget instead of draining are flagged on stderr too.

use apres_core::sim::{PrefetcherChoice, SchedulerChoice, Simulation};
use gpu_common::config::GpuConfig;
use gpu_common::error::SimResult;
use gpu_common::json::Json;
use gpu_sm::RunResult;
use gpu_workloads::Benchmark;

pub mod alloc;
pub mod cache;
pub mod calibrate;
pub mod cli;
pub mod harness;

pub use cache::{CacheSummary, Executor, JobSpec, Lookup, ResultCache, CACHE_FORMAT_VERSION};
pub use cli::BenchArgs;
pub use harness::{map_parallel, JobCtx, JobId, SimSweep, StageStart, StageTimer, SweepResults};

/// Resolves a benchmark label (case-insensitive) or exits with the known
/// list on stderr — shared by the binaries that take an `APP` positional.
pub fn benchmark_by_label_or_exit(name: &str) -> Benchmark {
    Benchmark::from_label(name).unwrap_or_else(|| {
        let known: Vec<&str> = Benchmark::ALL.iter().map(|b| b.label()).collect();
        eprintln!("unknown benchmark {name:?}; known: {}", known.join(" "));
        std::process::exit(2);
    })
}

/// One (scheduler, prefetcher) combination with a figure-style label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Combo {
    /// Scheduler half.
    pub sched: SchedulerChoice,
    /// Prefetcher half.
    pub pf: PrefetcherChoice,
}

impl Combo {
    /// Builds a combo.
    pub const fn new(sched: SchedulerChoice, pf: PrefetcherChoice) -> Self {
        Combo { sched, pf }
    }

    /// `"CCWS+STR"`-style label; bare scheduler name when no prefetcher.
    pub fn label(&self) -> String {
        match self.pf {
            PrefetcherChoice::None => self.sched.label().to_owned(),
            _ => format!("{}+{}", self.sched.label(), self.pf.label()),
        }
    }
}

/// The paper's baseline: LRR without prefetching.
pub const BASELINE: Combo = Combo::new(SchedulerChoice::Lrr, PrefetcherChoice::None);
/// APRES: LAWS + SAP.
pub const APRES: Combo = Combo::new(SchedulerChoice::Laws, PrefetcherChoice::Sap);
/// The strongest existing combination per Section III-C.
pub const CCWS_STR: Combo = Combo::new(SchedulerChoice::Ccws, PrefetcherChoice::Str);

/// Evaluation scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Table III configuration (15 SMs, default iterations).
    Paper,
    /// Reduced scale for quick runs (4 SMs, fewer iterations).
    Fast,
    /// Minimal scale for smoke tests (2 SMs, minimal iterations) —
    /// `just bench-smoke` runs every binary here at `--jobs 1` vs
    /// `--jobs 2` and byte-compares stdout.
    Tiny,
}

impl Scale {
    /// Lower-case scale name (cache canonicalisation, job specs on the
    /// wire): `"paper"`, `"fast"`, `"tiny"`.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Fast => "fast",
            Scale::Tiny => "tiny",
        }
    }

    /// Parses a scale name (case-insensitive); inverse of [`Scale::label`].
    pub fn from_label(name: &str) -> Option<Scale> {
        [Scale::Paper, Scale::Fast, Scale::Tiny]
            .into_iter()
            .find(|s| s.label().eq_ignore_ascii_case(name))
    }

    /// GPU configuration at this scale.
    pub fn config(self) -> GpuConfig {
        let mut cfg = GpuConfig::paper_baseline();
        match self {
            Scale::Paper => {}
            Scale::Fast => cfg.core.num_sms = 4,
            Scale::Tiny => cfg.core.num_sms = 2,
        }
        cfg
    }

    /// Iteration count for `bench` at this scale.
    pub fn iterations(self, bench: Benchmark) -> u64 {
        match self {
            Scale::Paper => bench.default_iterations(),
            Scale::Fast => (bench.default_iterations() / 2).max(8),
            Scale::Tiny => (bench.default_iterations() / 8).max(4),
        }
    }
}

/// Builds (without running) the [`Simulation`] for one (benchmark, policy,
/// scale, config) data point; [`report_outcome`] turns its run's outcome
/// into the crash-safe form.
pub fn simulation_for(
    bench: Benchmark,
    combo: Combo,
    scale: Scale,
    cfg: &GpuConfig,
) -> Simulation {
    Simulation::new(bench.kernel_scaled(scale.iterations(bench)))
        .config(cfg.clone())
        .scheduler(combo.sched)
        .prefetcher(combo.pf)
}

/// Converts one data point's outcome into the crash-safe form: `Err`
/// becomes a stderr diagnostic plus `None`; a budget-exhausted run is kept
/// but flagged so truncated numbers are never silently mixed with drained
/// ones.
pub fn report_outcome(label: &str, outcome: SimResult<RunResult>) -> Option<RunResult> {
    match outcome {
        Ok(r) => {
            if !r.termination.is_drained() {
                eprintln!("warning: {label}: {} (stats are truncated)", r.termination);
            }
            Some(r)
        }
        Err(e) => {
            eprintln!("skipped {label}: [{}] {e}", e.class());
            None
        }
    }
}

/// Geometric mean of positive values (the paper averages speedups this
/// way); zero if empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean; zero if empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Serialises a table as CSV (quoting cells that contain commas).
pub fn csv_string(headers: &[&str], rows: &[Vec<String>]) -> String {
    let quote = |c: &str| {
        if c.contains(',') || c.contains('"') {
            format!("\"{}\"", c.replace('"', "\"\""))
        } else {
            c.to_owned()
        }
    };
    let mut out = headers.iter().map(|h| quote(h)).collect::<Vec<_>>().join(",");
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

/// Serialises a table as a deterministic JSON document:
/// `{"exhibit": name, "headers": [...], "rows": [[...], ...]}`.
///
/// Cells stay strings (they are already formatted for display), so the
/// document is byte-stable across runs and `--jobs` values — `just
/// bench-smoke` relies on that.
pub fn table_json(name: &str, headers: &[&str], rows: &[Vec<String>]) -> Json {
    Json::Obj(vec![
        ("exhibit".into(), Json::str(name)),
        (
            "headers".into(),
            Json::Arr(headers.iter().map(|h| Json::str(*h)).collect()),
        ),
        (
            "rows".into(),
            Json::Arr(
                rows.iter()
                    .map(|row| Json::Arr(row.iter().map(Json::str).collect()))
                    .collect(),
            ),
        ),
    ])
}

/// Prints the exhibit table and writes CSV/JSON copies when the parsed
/// arguments carry `--csv DIR` / `--json DIR`. The one emission path every
/// exhibit binary shares.
pub fn emit_table(args: &cli::BenchArgs, name: &str, headers: &[&str], rows: &[Vec<String>]) {
    print_table(headers, rows);
    if let Some(dir) = &args.csv {
        write_file(std::path::Path::new(dir), name, "csv", &csv_string(headers, rows));
    }
    if let Some(dir) = &args.json {
        let mut doc = table_json(name, headers, rows).to_pretty();
        doc.push('\n');
        write_file(std::path::Path::new(dir), name, "json", &doc);
    }
}

/// Writes one emitted artifact, reporting success/failure on stderr.
fn write_file(dir: &std::path::Path, name: &str, ext: &str, contents: &str) {
    let path = dir.join(format!("{name}.{ext}"));
    if let Err(e) = std::fs::write(&path, contents) {
        eprintln!("failed to write {}: {e}", path.display());
    } else {
        eprintln!("wrote {}", path.display());
    }
}

/// Prints a fixed-width table: a header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i == 0 {
                s.push_str(&format!("{:<w$}", c, w = widths[i]));
            } else {
                s.push_str(&format!("  {:>w$}", c, w = widths[i]));
            }
        }
        s
    };
    println!("{}", line(headers.iter().map(|h| h.to_string()).collect()));
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    for row in rows {
        println!("{}", line(row.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combo_labels() {
        assert_eq!(BASELINE.label(), "LRR");
        assert_eq!(APRES.label(), "LAWS+SAP");
        assert_eq!(CCWS_STR.label(), "CCWS+STR");
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn mean_basics() {
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-9);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn fast_scale_shrinks() {
        let fast = Scale::Fast.config();
        assert!(fast.core.num_sms < Scale::Paper.config().core.num_sms);
        assert!(Scale::Fast.iterations(Benchmark::Km) <= Benchmark::Km.default_iterations());
    }

    #[test]
    fn tiny_scale_shrinks_further() {
        let tiny = Scale::Tiny.config();
        assert!(tiny.core.num_sms < Scale::Fast.config().core.num_sms);
        assert!(tiny.validate().is_ok());
        assert!(Scale::Tiny.iterations(Benchmark::Km) <= Scale::Fast.iterations(Benchmark::Km));
        assert!(Scale::Tiny.iterations(Benchmark::Km) >= 4);
    }

    #[test]
    fn table_json_is_deterministic_and_parses() {
        let headers = ["App", "IPC"];
        let rows = vec![vec!["KM".to_string(), "0.5".to_string()]];
        let doc = table_json("fig0", &headers, &rows);
        let text = doc.to_pretty();
        assert_eq!(text, table_json("fig0", &headers, &rows).to_pretty());
        let parsed = gpu_common::json::parse(&text).unwrap();
        assert_eq!(parsed.get("exhibit").and_then(Json::as_str), Some("fig0"));
        let rows_back = parsed.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows_back.len(), 1);
    }

    #[test]
    fn csv_escaping() {
        let csv = csv_string(
            &["a", "b"],
            &[vec!["x,y".into(), "plain".into()], vec!["q\"q".into(), "2".into()]],
        );
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "\"x,y\",plain");
        assert_eq!(lines[2], "\"q\"\"q\",2");
    }

    #[test]
    fn fast_run_completes() {
        let sim = simulation_for(Benchmark::Hs, BASELINE, Scale::Fast, &Scale::Fast.config());
        let r = report_outcome("HS/baseline", sim.run()).expect("valid point runs");
        assert!(!r.timed_out);
        assert!(r.termination.is_drained());
        assert!(r.ipc() > 0.0);
    }

    #[test]
    fn invalid_config_point_is_skipped_not_fatal() {
        let mut cfg = Scale::Fast.config();
        cfg.l1.ways = 0;
        let run = || simulation_for(Benchmark::Hs, BASELINE, Scale::Fast, &cfg).run();
        assert!(report_outcome("HS/baseline", run()).is_none());
        let err = run().expect_err("zero ways must be rejected");
        assert_eq!(err.class(), "config-validation");
    }
}
