//! Figure 10 — IPC of CCWS, LAWS, CCWS+STR, LAWS+STR and APRES,
//! normalized to the baseline, with category geometric means.

use apres_bench::{emit_table, geomean, BenchArgs, Combo, SimSweep, APRES, BASELINE, CCWS_STR};
use apres_core::sim::{PrefetcherChoice, SchedulerChoice};
use gpu_workloads::{Benchmark, Category};

fn main() {
    let args = BenchArgs::parse();
    let combos = [
        Combo::new(SchedulerChoice::Ccws, PrefetcherChoice::None),
        Combo::new(SchedulerChoice::Laws, PrefetcherChoice::None),
        CCWS_STR,
        Combo::new(SchedulerChoice::Laws, PrefetcherChoice::Str),
        APRES,
    ];
    let mut sweep = SimSweep::from_args("fig10", &args);
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

    println!("Figure 10 — IPC normalized to baseline (LRR, no prefetching)\n");
    let mut headers = vec!["App"];
    let labels: Vec<String> = combos.iter().map(Combo::label).collect();
    headers.extend(labels.iter().map(String::as_str));

    let mut rows = Vec::new();
    let mut speedups: Vec<Vec<(Benchmark, f64)>> = vec![Vec::new(); combos.len()];
    for (b, base, per_combo) in &points {
        let Some(base) = res.get(*base) else {
            continue;
        };
        let mut row = vec![b.label().to_owned()];
        for (i, id) in per_combo.iter().enumerate() {
            let Some(r) = res.get(*id) else {
                row.push("-".to_owned());
                continue;
            };
            let s = r.speedup_over(base);
            speedups[i].push((*b, s));
            row.push(format!("{s:.3}"));
        }
        rows.push(row);
    }
    let cat_row = |name: &str, filter: &dyn Fn(Benchmark) -> bool| {
        let mut row = vec![name.to_owned()];
        for per in &speedups {
            let vals: Vec<f64> = per
                .iter()
                .filter(|(b, _)| filter(*b))
                .map(|(_, s)| *s)
                .collect();
            row.push(format!("{:.3}", geomean(&vals)));
        }
        row
    };
    rows.push(cat_row("GM-cache-sens", &|b| {
        b.category() == Category::CacheSensitive
    }));
    rows.push(cat_row("GM-cache-insens", &|b| {
        b.category() == Category::CacheInsensitive
    }));
    rows.push(cat_row("GM-compute", &|b| {
        b.category() == Category::ComputeIntensive
    }));
    rows.push(cat_row("GM-mem-intensive", &|b| {
        b.category() != Category::ComputeIntensive
    }));
    rows.push(cat_row("GM-all", &|_| true));
    emit_table(&args, "fig10", &headers, &rows);
}
