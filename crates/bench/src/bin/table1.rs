//! Table I — characteristics of frequently executed loads.
//!
//! Prints, for the memory-intensive applications, each static load's share
//! of references (%Load), inter-warp reuse (#L/#R), baseline L1 miss rate,
//! dominant inter-warp stride and the fraction of accesses following it
//! (%Stride). Compare against the paper's Table I.

use apres_bench::{emit_table, map_parallel, BenchArgs, StageTimer};
use gpu_common::GpuConfig;
use gpu_workloads::{characterize, Benchmark};

fn main() {
    let args = BenchArgs::parse();
    let cfg = GpuConfig::paper_baseline();
    println!("Table I — characteristics of frequently executed loads (top 3 per app)\n");
    let timer = StageTimer::from_args(&args);
    let started = timer.start();
    let per_bench = map_parallel(args.jobs, Benchmark::MEMORY_INTENSIVE.to_vec(), |_, b| {
        (b, characterize(&b.kernel(), &cfg, None))
    });
    eprintln!(
        "[table1] {} apps characterized in {}s on {} worker(s)",
        per_bench.len(),
        timer.label_since(started),
        args.jobs
    );
    let mut rows = Vec::new();
    for (b, profiles) in &per_bench {
        for p in profiles.iter().take(3) {
            rows.push(vec![
                b.label().to_owned(),
                format!("{}", p.pc),
                format!("{:.1}%", p.pct_load * 100.0),
                format!("{:.2}", p.lines_per_ref),
                format!("{:.2}", p.miss_rate),
                format!("{}", p.stride),
                format!("{:.1}%", p.pct_stride * 100.0),
            ]);
        }
    }
    emit_table(
        &args,
        "table1",
        &[
            "App", "PC", "%Load", "#L/#R", "MissRate", "Stride", "%Stride",
        ],
        &rows,
    );
}
