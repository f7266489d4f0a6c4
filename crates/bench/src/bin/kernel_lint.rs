//! `kernel-lint` — static lint pipeline over the bundled workloads.
//!
//! Runs every `gpu-analysis` pass (structure, def-use, Table-I cross-check,
//! and optionally the SAP stride oracle) on each of the paper's kernels and
//! reports the findings. Exit status is the lint gate: non-zero on any
//! error-level diagnostic — or any warning under `--deny-warnings` — so CI
//! can fail a merge that ships a malformed or mislabeled kernel.
//!
//! Flags:
//!
//! * `--json` — emit one JSON object (`{"kernels": [...], "clean": bool}`)
//!   instead of text (note: unlike the exhibit binaries, `--json` here
//!   takes no directory — this tool predates the shared CLI and keeps its
//!   stdout contract);
//! * `--oracle` — also replay each load through SAP and include the
//!   per-kernel misclassification rate;
//! * `--deny-warnings` — treat warnings as gate failures (notes never gate);
//! * `--jobs N` — worker threads for per-kernel analysis (default:
//!   `APRES_JOBS`, else all cores). Output is aggregated in kernel order,
//!   so it is byte-identical at any worker count.

use apres_bench::cli::resolve_jobs;
use apres_bench::map_parallel;
use gpu_analysis::{analyze, KernelReport};
use gpu_common::json::Json;
use gpu_common::Severity;
use gpu_workloads::Benchmark;

/// Warp size the lint checks assume (the paper's Table III baseline).
const WARP_SIZE: u32 = 32;

fn gate_fails(r: &KernelReport, deny_warnings: bool) -> bool {
    r.has_errors() || (deny_warnings && r.report.count(Severity::Warning) > 0)
}

fn print_text(reports: &[KernelReport], deny_warnings: bool) {
    let mut errors = 0;
    let mut warnings = 0;
    let mut notes = 0;
    for r in reports {
        for d in r.report.diagnostics() {
            println!("{}: {d}", r.kernel);
        }
        if let Some(o) = &r.oracle {
            for v in o.verdicts.iter().filter(|v| !v.agrees) {
                println!(
                    "{}: error[sap-oracle] at pc {}: runtime SAP behaviour \
                     contradicts static class {:?} ({} fires / {} opportunities, \
                     majority stride {:?})",
                    r.kernel, v.pc, v.class, v.fires, v.opportunities, v.majority_stride
                );
                errors += 1;
            }
            println!(
                "{}: oracle misclassification rate {:.3} over {} load(s)",
                r.kernel,
                o.misclassification_rate(),
                o.verdicts.len()
            );
        }
        errors += r.report.count(Severity::Error);
        warnings += r.report.count(Severity::Warning);
        notes += r.report.count(Severity::Note);
    }
    let gated = reports
        .iter()
        .filter(|r| gate_fails(r, deny_warnings))
        .count();
    println!(
        "{} kernel(s) linted: {errors} error(s), {warnings} warning(s), \
         {notes} note(s); {gated} kernel(s) fail the gate",
        reports.len()
    );
}

fn usage_exit(msg: &str) -> ! {
    eprintln!("kernel-lint: {msg}");
    eprintln!("usage: kernel-lint [--json] [--oracle] [--deny-warnings] [--jobs N]");
    std::process::exit(2);
}

fn main() {
    let mut json = false;
    let mut oracle = false;
    let mut deny_warnings = false;
    let mut jobs_flag: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--oracle" => oracle = true,
            "--deny-warnings" => deny_warnings = true,
            "--jobs" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage_exit("--jobs requires a value"));
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => jobs_flag = Some(n),
                    _ => usage_exit(&format!("--jobs: not a positive number: {v:?}")),
                }
            }
            unknown => usage_exit(&format!("unknown flag {unknown}")),
        }
    }
    let jobs = resolve_jobs(jobs_flag);

    let reports: Vec<KernelReport> = map_parallel(jobs, Benchmark::ALL.to_vec(), |_, b| {
        analyze(&b.kernel(), WARP_SIZE, oracle)
    });
    let clean = !reports.iter().any(|r| gate_fails(r, deny_warnings));

    if json {
        let doc = Json::Obj(vec![
            (
                "kernels".into(),
                Json::Arr(reports.iter().map(KernelReport::to_json).collect()),
            ),
            ("clean".into(), Json::Bool(clean)),
        ]);
        println!("{}", doc.to_pretty());
    } else {
        print_text(&reports, deny_warnings);
    }

    if !clean {
        std::process::exit(1);
    }
}
