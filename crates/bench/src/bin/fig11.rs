//! Figure 11 — L1 hit/miss breakdown (hit-after-hit, hit-after-miss, cold
//! miss, capacity+conflict miss) for Baseline (B), CCWS (C), LAWS (L),
//! CCWS+STR (S), and APRES (A).

use apres_bench::{emit_table, BenchArgs, Combo, SimSweep, APRES, BASELINE, CCWS_STR};
use apres_core::sim::{PrefetcherChoice, SchedulerChoice};
use gpu_sm::RunResult;
use gpu_workloads::Benchmark;

fn breakdown(r: &RunResult) -> [f64; 4] {
    let t = r.l1.accesses.max(1) as f64;
    [
        r.l1.hit_after_hit as f64 / t,
        r.l1.hit_after_miss as f64 / t,
        r.l1.cold_misses as f64 / t,
        r.l1.capacity_conflict_misses as f64 / t,
    ]
}

fn main() {
    let args = BenchArgs::parse();
    let combos = [
        ("B", BASELINE),
        (
            "C",
            Combo::new(SchedulerChoice::Ccws, PrefetcherChoice::None),
        ),
        (
            "L",
            Combo::new(SchedulerChoice::Laws, PrefetcherChoice::None),
        ),
        ("S", CCWS_STR),
        ("A", APRES),
    ];
    let mut sweep = SimSweep::from_args("fig11", &args);
    let points: Vec<_> = Benchmark::ALL
        .into_iter()
        .flat_map(|b| {
            combos
                .iter()
                .map(move |(tag, c)| (b, *tag, *c))
                .collect::<Vec<_>>()
        })
        .map(|(b, tag, c)| (b, tag, sweep.add(b, c, args.scale)))
        .collect();
    let res = sweep.run(args.jobs);

    println!(
        "Figure 11 — L1 breakdown per access: hit-after-hit / hit-after-miss / cold / cap+conf\n"
    );
    let mut rows = Vec::new();
    for (b, tag, id) in &points {
        let Some(r) = res.get(*id) else {
            continue;
        };
        let [hh, hm, cold, cc] = breakdown(r);
        rows.push(vec![
            format!("{} ({tag})", b.label()),
            format!("{hh:.3}"),
            format!("{hm:.3}"),
            format!("{cold:.3}"),
            format!("{cc:.3}"),
            format!("{:.3}", hh + hm),
        ]);
    }
    emit_table(
        &args,
        "fig11",
        &[
            "App",
            "hit-after-hit",
            "hit-after-miss",
            "cold",
            "cap+conf",
            "total-hit",
        ],
        &rows,
    );
}
