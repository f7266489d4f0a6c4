//! Figure 3 — relative performance of scheduling × prefetching
//! combinations, normalized to the baseline (LRR, no prefetching).

use apres_bench::{emit_table, geomean, BenchArgs, Combo, SimSweep, BASELINE};
use apres_core::sim::{PrefetcherChoice, SchedulerChoice};
use gpu_workloads::Benchmark;

fn main() {
    let args = BenchArgs::parse();
    let combos: Vec<Combo> = [
        SchedulerChoice::Pa,
        SchedulerChoice::Gto,
        SchedulerChoice::Mascar,
        SchedulerChoice::Ccws,
    ]
    .into_iter()
    .flat_map(|s| {
        [
            Combo::new(s, PrefetcherChoice::Str),
            Combo::new(s, PrefetcherChoice::Sld),
        ]
    })
    .collect();

    let mut sweep = SimSweep::from_args("fig3", &args);
    let points: Vec<_> = Benchmark::ALL
        .into_iter()
        .map(|b| {
            let base = sweep.add(b, BASELINE, args.scale);
            let per_combo: Vec<_> = combos
                .iter()
                .map(|c| sweep.add(b, *c, args.scale))
                .collect();
            (b, base, per_combo)
        })
        .collect();
    let res = sweep.run(args.jobs);

    println!("Figure 3 — speedup of scheduler × prefetcher combos over baseline\n");
    let mut headers = vec!["App"];
    let labels: Vec<String> = combos.iter().map(Combo::label).collect();
    headers.extend(labels.iter().map(String::as_str));
    let mut rows = Vec::new();
    let mut per_combo: Vec<Vec<f64>> = vec![Vec::new(); combos.len()];
    for (b, base, combo_ids) in &points {
        let Some(base) = res.get(*base) else {
            continue;
        };
        let mut row = vec![b.label().to_owned()];
        for (i, id) in combo_ids.iter().enumerate() {
            let Some(r) = res.get(*id) else {
                row.push("-".to_owned());
                continue;
            };
            let s = r.speedup_over(base);
            per_combo[i].push(s);
            row.push(format!("{s:.3}"));
        }
        rows.push(row);
    }
    let mut gm = vec!["GMEAN".to_owned()];
    gm.extend(per_combo.iter().map(|v| format!("{:.3}", geomean(v))));
    rows.push(gm);
    emit_table(&args, "fig3", &headers, &rows);
}
