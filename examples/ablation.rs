//! Ablation of APRES's two halves: LAWS alone, generic stride prefetching
//! without cooperation (LRR+STR, LAWS+STR), and the cooperative whole
//! (LAWS+SAP). Default workload is the LUD-like kernel (strided panel
//! sweeps with ×2 reuse); pass a benchmark label to ablate another one.
//!
//! ```text
//! cargo run --release --example ablation [APP]
//! ```

use apres::{Benchmark, GpuConfig, PrefetcherChoice, SchedulerChoice, Simulation};

fn main() -> apres::SimResult<()> {
    let mut cfg = GpuConfig::paper_baseline();
    cfg.core.num_sms = 4;
    let bench = std::env::args()
        .nth(1)
        .map(|name| {
            Benchmark::from_label(&name).unwrap_or_else(|| panic!("unknown benchmark {name}"))
        })
        .unwrap_or(Benchmark::Lud);

    let variants: [(&str, SchedulerChoice, PrefetcherChoice); 5] = [
        (
            "baseline (LRR)",
            SchedulerChoice::Lrr,
            PrefetcherChoice::None,
        ),
        ("LAWS only", SchedulerChoice::Laws, PrefetcherChoice::None),
        (
            "LRR + SAP-style STR",
            SchedulerChoice::Lrr,
            PrefetcherChoice::Str,
        ),
        (
            "LAWS + STR (no coop)",
            SchedulerChoice::Laws,
            PrefetcherChoice::Str,
        ),
        (
            "APRES (LAWS + SAP)",
            SchedulerChoice::Laws,
            PrefetcherChoice::Sap,
        ),
    ];

    println!(
        "ablation on {} ({})\n",
        bench.label(),
        bench.category().label()
    );
    println!(
        "{:<22} {:>9} {:>7} {:>8} {:>8} {:>9} {:>10}",
        "variant", "cycles", "IPC", "L1 miss", "pf iss", "pf corr", "early-ev"
    );
    let mut base_ipc = None;
    for (name, s, p) in variants {
        let r = Simulation::new(bench.kernel())
            .config(cfg.clone())
            .scheduler(s)
            .prefetcher(p)
            .run()?;
        let base = *base_ipc.get_or_insert(r.ipc());
        println!(
            "{:<22} {:>9} {:>7.3} {:>7.1}% {:>8} {:>9} {:>9.1}%   ({:+.1}% vs baseline)",
            name,
            r.cycles,
            r.ipc(),
            r.l1.miss_rate() * 100.0,
            r.prefetch.issued,
            r.prefetch.correct(),
            r.prefetch.early_eviction_ratio() * 100.0,
            (r.ipc() / base - 1.0) * 100.0
        );
    }
    println!(
        "\nThe cooperative point: SAP only fires on LAWS's warp-group miss\n\
         triggers, and LAWS promotes SAP's targets so their demands merge\n\
         into the prefetch MSHRs (Figure 5's feedback loop)."
    );
    Ok(())
}
