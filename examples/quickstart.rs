//! Quickstart: simulate one workload under the baseline GPU and under
//! APRES, and compare.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use apres::{Benchmark, GpuConfig, PrefetcherChoice, SchedulerChoice, Simulation};

fn main() -> apres::SimResult<()> {
    // A small GPU keeps the example fast; swap in
    // `GpuConfig::paper_baseline()` for the full Table III machine.
    let mut cfg = GpuConfig::paper_baseline();
    cfg.core.num_sms = 4;

    let bench = Benchmark::Km; // KMeans: the paper's poster child for thrashing
    println!(
        "kernel {} ({}), {} SMs x {} warps",
        bench.label(),
        bench.category().label(),
        cfg.core.num_sms,
        cfg.core.warps_per_sm
    );

    let baseline = Simulation::new(bench.kernel())
        .config(cfg.clone())
        .scheduler(SchedulerChoice::Lrr)
        .prefetcher(PrefetcherChoice::None)
        .run()?;
    let apres = Simulation::new(bench.kernel())
        .config(cfg)
        .apres() // = scheduler(Laws) + prefetcher(Sap)
        .run()?;

    for r in [&baseline, &apres] {
        println!(
            "\n{} + {}: {} cycles, IPC {:.3}",
            r.scheduler,
            r.prefetcher,
            r.cycles,
            r.ipc()
        );
        println!(
            "  L1: {:.1}% hits ({:.1}% hit-after-hit), {:.1}% cold, {:.1}% cap+conf",
            r.l1.hit_rate() * 100.0,
            r.l1.hit_after_hit_ratio() * 100.0,
            100.0 * r.l1.cold_misses as f64 / r.l1.accesses.max(1) as f64,
            100.0 * r.l1.capacity_conflict_misses as f64 / r.l1.accesses.max(1) as f64,
        );
        println!(
            "  avg load latency {:.0} cycles, {} KB moved to SMs, {} prefetches issued",
            r.mem.avg_load_latency(),
            r.mem.bytes_to_sm / 1024,
            r.prefetch.issued
        );
    }
    println!(
        "\nAPRES speedup over baseline: {:.3}x",
        apres.speedup_over(&baseline)
    );
    Ok(())
}
