//! Deep-dive diagnostics for one benchmark (not a paper exhibit).

use apres_bench::{benchmark_by_label_or_exit, BenchArgs, Combo, SimSweep};

use apres_core::sim::{PrefetcherChoice, SchedulerChoice};

fn main() {
    let args = BenchArgs::parse();
    let bench = benchmark_by_label_or_exit(args.first_positional().unwrap_or("SRAD"));
    let combos = [
        Combo::new(SchedulerChoice::Lrr, PrefetcherChoice::None),
        Combo::new(SchedulerChoice::Lrr, PrefetcherChoice::Str),
        Combo::new(SchedulerChoice::Ccws, PrefetcherChoice::Str),
        Combo::new(SchedulerChoice::Laws, PrefetcherChoice::None),
        Combo::new(SchedulerChoice::Laws, PrefetcherChoice::Str),
        Combo::new(SchedulerChoice::Laws, PrefetcherChoice::Sap),
    ];
    let mut sweep = SimSweep::from_args("diag", &args);
    let ids: Vec<_> = combos
        .iter()
        .map(|c| sweep.add(bench, *c, args.scale))
        .collect();
    let res = sweep.run(args.jobs);

    println!(
        "{:<10} {:>9} {:>6} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>8} {:>8} {:>9}",
        "combo",
        "cycles",
        "ipc",
        "miss",
        "pf_iss",
        "pf_use",
        "pf_late",
        "pf_early",
        "pf_usls",
        "avg_lat",
        "st_lsu",
        "st_dep",
        "mshr_rej"
    );
    for (c, id) in combos.iter().zip(&ids) {
        let Some(r) = res.get(*id) else {
            continue;
        };
        println!(
            "{:<10} {:>9} {:>6.3} {:>6.2} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9.1} {:>8} {:>8} {:>9}{}",
            c.label(),
            r.cycles,
            r.ipc(),
            r.l1.miss_rate(),
            r.prefetch.issued,
            r.prefetch.useful,
            r.prefetch.late_merged,
            r.prefetch.early_evictions,
            r.prefetch.useless_evictions,
            r.mem.avg_load_latency(),
            r.sim.stall_lsu_full,
            r.sim.stall_dependency,
            r.l1.reservation_fails,
            if r.termination.is_drained() {
                String::new()
            } else {
                format!(" {}", r.termination)
            },
        );
    }
}
