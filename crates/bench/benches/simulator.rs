//! Throughput benchmarks of the simulator itself: wall-time to run
//! representative workloads under the baseline and APRES policy stacks,
//! plus microbenchmarks of the hot substrate paths (cache access, MSHR
//! registration, coalescing, address sampling).
//!
//! Plain `fn main` harness (`harness = false`): every measurement is a
//! best-of-N wall-clock over a fixed iteration count, printed as ns/iter.
//! The workspace is hermetic, so no external benchmarking framework is
//! used.

use apres_bench::calibrate::Microbench;
use apres_core::sim::{PrefetcherChoice, SchedulerChoice, Simulation};
use gpu_common::GpuConfig;
use gpu_workloads::Benchmark;
use std::hint::black_box;
use std::time::Instant;

/// Runs `batch` (which performs `iters` iterations) `reps` times; prints
/// the best rep as time per iteration.
fn measure(name: &str, iters: u64, reps: u32, mut batch: impl FnMut()) {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        batch();
        let per_iter = t0.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(per_iter);
    }
    if best >= 1e6 {
        println!("{name:<28} {:>12.2} ms/iter", best / 1e6);
    } else {
        println!("{name:<28} {best:>12.1} ns/iter");
    }
}

fn small_cfg() -> GpuConfig {
    let mut cfg = GpuConfig::paper_baseline();
    cfg.core.num_sms = 2;
    cfg
}

fn bench_full_runs() {
    println!("full-sim");
    for (name, bench) in [("srad", Benchmark::Srad), ("km", Benchmark::Km)] {
        measure(&format!("  {name}-baseline"), 1, 3, || {
            let r = Simulation::new(bench.kernel_scaled(8))
                .config(small_cfg())
                .run();
            black_box(r.expect("small config is valid").cycles);
        });
        measure(&format!("  {name}-apres"), 1, 3, || {
            let r = Simulation::new(bench.kernel_scaled(8))
                .config(small_cfg())
                .scheduler(SchedulerChoice::Laws)
                .prefetcher(PrefetcherChoice::Sap)
                .run();
            black_box(r.expect("small config is valid").cycles);
        });
    }
}

fn bench_substrate() {
    println!("substrate");
    for bench in Microbench::ALL {
        let iters = bench.iterations();
        measure(&format!("  {}", bench.name()), iters, 3, || bench.run(iters));
    }
}

fn main() {
    bench_full_runs();
    bench_substrate();
}
