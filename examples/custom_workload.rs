//! Define your own kernel with the address-pattern DSL and sweep every
//! scheduler over it.
//!
//! The kernel below mimics a blocked matrix sweep: one load with a large
//! inter-warp stride over a bounded (reused) tile, one shared lookup table,
//! and a dependent ALU chain.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use apres::{AddressPattern, GpuConfig, Kernel, PrefetcherChoice, SchedulerChoice, Simulation};

fn my_kernel() -> Kernel {
    Kernel::builder("blocked-sweep")
        .seed(2026)
        // Tile walk: 4 KB apart per warp, revisiting a 1 MB tile (cyclic
        // reuse → thrashes a 32 KB L1, hits a big one).
        .load(
            AddressPattern::warp_strided(0x10_0000, 4096, 0, 4).with_wrap(1 << 20),
            &[],
        )
        // Coefficient table shared by every warp in lock-step.
        .load(AddressPattern::shared_stream(0x80_0000, 8), &[])
        // Dependent arithmetic.
        .alu(8, &[0, 1])
        .alu(8, &[2])
        .alu(4, &[3])
        // Streaming output.
        .store(
            AddressPattern::warp_strided(0xC0_0000, 128, 128 * 48, 4),
            &[4],
        )
        .iterations(24)
        .build()
}

fn main() -> apres::SimResult<()> {
    let mut cfg = GpuConfig::paper_baseline();
    cfg.core.num_sms = 4;

    let schedulers = [
        SchedulerChoice::Lrr,
        SchedulerChoice::Gto,
        SchedulerChoice::TwoLevel,
        SchedulerChoice::Ccws,
        SchedulerChoice::Mascar,
        SchedulerChoice::Pa,
        SchedulerChoice::Laws,
    ];

    println!(
        "{:<10} {:>9} {:>7} {:>7} {:>9}",
        "scheduler", "cycles", "IPC", "L1 miss", "avg lat"
    );
    let mut results = Vec::new();
    for s in schedulers {
        let r = Simulation::new(my_kernel())
            .config(cfg.clone())
            .scheduler(s)
            .prefetcher(PrefetcherChoice::None)
            .run()?;
        println!(
            "{:<10} {:>9} {:>7.3} {:>6.1}% {:>8.0}c",
            s.label(),
            r.cycles,
            r.ipc(),
            r.l1.miss_rate() * 100.0,
            r.mem.avg_load_latency()
        );
        results.push((s, r));
    }
    // And the full APRES stack for comparison.
    let apres = Simulation::new(my_kernel()).config(cfg).apres().run()?;
    println!(
        "{:<10} {:>9} {:>7.3} {:>6.1}% {:>8.0}c   ({} prefetches, {:.0}% accurate)",
        "APRES",
        apres.cycles,
        apres.ipc(),
        apres.l1.miss_rate() * 100.0,
        apres.mem.avg_load_latency(),
        apres.prefetch.issued,
        apres.prefetch.accuracy() * 100.0
    );

    if let Some(best) = results
        .iter()
        .max_by(|a, b| a.1.ipc().total_cmp(&b.1.ipc()))
    {
        println!(
            "\nbest baseline scheduler: {} (IPC {:.3}); APRES speedup over it: {:.3}x",
            best.0.label(),
            best.1.ipc(),
            apres.speedup_over(&best.1)
        );
    }
    Ok(())
}
