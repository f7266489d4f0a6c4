//! `apres-serve` — fault-tolerant batch simulation service.
//!
//! ```text
//! apres-serve BATCH.json [--out FILE] [--cache DIR] [--jobs N]
//!             [--deadline-ms MS] [--direct]
//!             [--fault-kill I] [--fault-stall I]
//!             [--fault-corrupt I] [--fault-truncate I]
//! apres-serve --queue DIR [same flags]
//! ```
//!
//! Single-batch mode reads one request document and writes the response to
//! stdout (or `--out FILE`). Queue mode scans `DIR` for `*.json` request
//! files (sorted by name, skipping `*.response.json` and requests that
//! already have a response) and writes `<stem>.response.json` next to each
//! — a crash-safe, idempotent file-based queue with no network surface.
//!
//! Every unique job runs once. A worker killed by `--fault-kill`, a job
//! stalled past `--deadline-ms` by `--fault-stall`, or a failing
//! simulation becomes a typed per-job failure in the response, and that
//! job is never cached. `--fault-corrupt`/`--fault-truncate` damage a
//! job's cache entry before serving; verification evicts it and the job
//! is recomputed.
//!
//! `--direct` bypasses the service (no cache, no deadline, no faults) and
//! computes the batch straight on the [`apres_bench::map_parallel`]
//! worker pool, emitting the same response format — the smoke test
//! byte-compares it against served output to prove the service machinery
//! is invisible in the results.
//!
//! Exit status: 0 when every job completed, 1 when the batch degraded
//! (response still written, with typed per-job failures), 2 on usage or
//! I/O errors.

use apres_bench::ResultCache;
use apres_serve::service::{serve_batch, BatchReport, JobReport, ServeOptions};
use apres_serve::Batch;
use gpu_common::WallClock;
use std::path::{Path, PathBuf};

struct Args {
    batch_file: Option<String>,
    queue_dir: Option<String>,
    out: Option<String>,
    cache_dir: Option<String>,
    jobs: usize,
    direct: bool,
    opts: ServeOptions,
}

const USAGE: &str = "usage: apres-serve (BATCH.json | --queue DIR) [--out FILE] [--cache DIR] \
     [--jobs N] [--deadline-ms MS] [--direct] \
     [--fault-kill I] [--fault-stall I] [--fault-corrupt I] [--fault-truncate I]";

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match run(&args) {
        Ok(all_ok) => i32::from(!all_ok),
        Err(msg) => {
            eprintln!("apres-serve: {msg}");
            2
        }
    };
    std::process::exit(code);
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        batch_file: None,
        queue_dir: None,
        out: None,
        cache_dir: None,
        jobs: apres_bench::cli::resolve_jobs(None),
        direct: false,
        opts: ServeOptions::default(),
    };
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            args.next().ok_or(format!("{flag} requires a value"))
        };
        match a.as_str() {
            "--queue" => out.queue_dir = Some(value("--queue")?),
            "--out" => out.out = Some(value("--out")?),
            "--cache" => out.cache_dir = Some(value("--cache")?),
            "--direct" => out.direct = true,
            "--jobs" => {
                let v = value("--jobs")?;
                out.jobs = parse_num(&v, "--jobs")?.max(1) as usize;
            }
            "--deadline-ms" => {
                let v = value("--deadline-ms")?;
                out.opts.deadline_ms = Some(parse_num(&v, "--deadline-ms")?);
            }
            "--fault-kill" => {
                let v = value("--fault-kill")?;
                out.opts.fault = out
                    .opts
                    .fault
                    .killing_job(parse_num(&v, "--fault-kill")? as usize);
            }
            "--fault-stall" => {
                let v = value("--fault-stall")?;
                out.opts.fault = out
                    .opts
                    .fault
                    .stalling_job(parse_num(&v, "--fault-stall")? as usize);
            }
            "--fault-corrupt" => {
                let v = value("--fault-corrupt")?;
                out.opts.fault = out
                    .opts
                    .fault
                    .corrupting_entry(parse_num(&v, "--fault-corrupt")? as usize);
            }
            "--fault-truncate" => {
                let v = value("--fault-truncate")?;
                out.opts.fault = out
                    .opts
                    .fault
                    .truncating_entry(parse_num(&v, "--fault-truncate")? as usize);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => {
                if out.batch_file.replace(a).is_some() {
                    return Err("only one BATCH.json positional is accepted".into());
                }
            }
        }
    }
    if out.batch_file.is_some() == out.queue_dir.is_some() {
        return Err("exactly one of BATCH.json or --queue DIR is required".into());
    }
    out.opts.workers = out.jobs;
    Ok(out)
}

fn parse_num(v: &str, flag: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("{flag}: not a number: {v:?}"))
}

/// Runs the requested mode; `Ok(true)` means every job of every batch
/// completed.
fn run(args: &Args) -> Result<bool, String> {
    let cache = match &args.cache_dir {
        None => None,
        Some(dir) => Some(ResultCache::open(dir).map_err(|e| format!("--cache {dir}: {e}"))?),
    };
    if let Some(file) = &args.batch_file {
        let report = process_file(Path::new(file), cache.as_ref(), args)?;
        let text = render(&report);
        match &args.out {
            Some(path) => {
                std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
            }
            None => print!("{text}"),
        }
        return Ok(report.failed() == 0);
    }
    let Some(dir) = &args.queue_dir else {
        return Err("no batch file and no queue directory".into());
    };
    let mut all_ok = true;
    for request in queued_requests(Path::new(dir))? {
        let report = process_file(&request, cache.as_ref(), args)?;
        let response = request.with_extension("response.json");
        std::fs::write(&response, render(&report))
            .map_err(|e| format!("writing {}: {e}", response.display()))?;
        eprintln!(
            "[apres-serve] {} -> {} ({} ok, {} failed)",
            request.display(),
            response.display(),
            report.completed(),
            report.failed(),
        );
        all_ok &= report.failed() == 0;
    }
    Ok(all_ok)
}

/// Request files in `dir` that do not yet have a response, sorted by name
/// (submission order for a file-based queue is the lexicographic order of
/// the request names).
fn queued_requests(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("--queue {}: {e}", dir.display()))?;
    let mut requests: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.ends_with(".json")
                && !name.ends_with(".response.json")
                && !p.with_extension("response.json").exists()
        })
        .collect();
    requests.sort();
    Ok(requests)
}

fn process_file(
    path: &Path,
    cache: Option<&ResultCache>,
    args: &Args,
) -> Result<BatchReport, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let batch = Batch::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let report = if args.direct {
        direct_report(&batch, args.jobs)
    } else {
        serve_batch(&batch, cache, &args.opts, &WallClock::new())
    };
    let s = &report.stats;
    eprintln!(
        "[apres-serve] batch {:?}: {} job(s) ({} unique, {} duplicate), \
         cache {} hit(s) / {} miss(es) / {} evicted, {} failed",
        report.name,
        report.jobs.len(),
        s.unique_jobs,
        s.duplicate_jobs,
        s.cache_hits,
        s.cache_misses,
        s.cache_evicted,
        s.failed_jobs,
    );
    Ok(report)
}

/// `--direct`: compute the batch through the plain bench harness (no
/// cache, no deadline, no service machinery) but emit the same response
/// format, as the reference for byte-comparison with served output.
fn direct_report(batch: &Batch, jobs: usize) -> BatchReport {
    let outcomes = apres_bench::map_parallel(jobs.max(1), batch.jobs.clone(), |_, spec| spec.run());
    let reports = batch
        .jobs
        .iter()
        .zip(outcomes)
        .map(|(spec, outcome)| JobReport {
            label: apres_serve::service::job_label(spec),
            spec_hash: spec.hash_hex(),
            outcome: outcome.map(Box::new),
        })
        .collect();
    BatchReport {
        name: batch.name.clone(),
        jobs: reports,
        stats: apres_serve::ServeStats::default(),
    }
}

fn render(report: &BatchReport) -> String {
    let mut text = report.to_json().to_pretty();
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn retry_flags_are_unknown() {
        for flags in [["--retries", "3"], ["--backoff-ms", "5"]] {
            let err = parse(&["b.json", flags[0], flags[1]]).err();
            assert_eq!(err, Some(format!("unknown flag {}", flags[0])));
        }
    }

    #[test]
    fn service_flags_parse() {
        let args = parse(&[
            "b.json",
            "--jobs",
            "3",
            "--deadline-ms",
            "9",
            "--fault-kill",
            "1",
        ])
        .expect("valid command line");
        assert_eq!(args.opts.workers, 3);
        assert_eq!(args.opts.deadline_ms, Some(9));
        assert!(args.opts.fault.should_kill(1));
    }
}
