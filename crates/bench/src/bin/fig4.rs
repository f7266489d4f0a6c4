//! Figure 4 — early-eviction ratio of the STR prefetcher under four warp
//! schedulers (fraction of correctly predicted prefetched lines evicted
//! before their demand access).

use apres_bench::{emit_table, mean, BenchArgs, Combo, SimSweep};
use apres_core::sim::{PrefetcherChoice, SchedulerChoice};
use gpu_workloads::Benchmark;

fn main() {
    let args = BenchArgs::parse();
    let scheds = [
        SchedulerChoice::Pa,
        SchedulerChoice::Gto,
        SchedulerChoice::Mascar,
        SchedulerChoice::Ccws,
    ];
    let mut sweep = SimSweep::from_args("fig4", &args);
    let points: Vec<_> = Benchmark::ALL
        .into_iter()
        .map(|b| {
            let ids: Vec<_> = scheds
                .iter()
                .map(|s| sweep.add(b, Combo::new(*s, PrefetcherChoice::Str), args.scale))
                .collect();
            (b, ids)
        })
        .collect();
    let res = sweep.run(args.jobs);

    println!("Figure 4 — early eviction ratio of STR prefetching\n");
    let mut headers = vec!["App"];
    let labels: Vec<String> = scheds
        .iter()
        .map(|s| format!("{}+STR", s.label()))
        .collect();
    headers.extend(labels.iter().map(String::as_str));
    let mut rows = Vec::new();
    let mut per_sched: Vec<Vec<f64>> = vec![Vec::new(); scheds.len()];
    for (b, ids) in &points {
        let mut row = vec![b.label().to_owned()];
        for (i, id) in ids.iter().enumerate() {
            let Some(r) = res.get(*id) else {
                row.push("-".to_owned());
                continue;
            };
            let e = r.prefetch.early_eviction_ratio();
            per_sched[i].push(e);
            row.push(format!("{e:.3}"));
        }
        rows.push(row);
    }
    let mut avg = vec!["AVG".to_owned()];
    avg.extend(per_sched.iter().map(|v| format!("{:.3}", mean(v))));
    rows.push(avg);
    emit_table(&args, "fig4", &headers, &rows);
}
