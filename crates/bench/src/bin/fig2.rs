//! Figure 2 — L1 miss breakdown with the baseline 32 KB L1 (B) and a
//! hypothetical 32 MB L1 (C), plus the large-cache speedup in parentheses.

use apres_bench::{emit_table, BenchArgs, SimSweep, BASELINE};
use gpu_common::GpuConfig;
use gpu_workloads::Benchmark;

fn main() {
    let args = BenchArgs::parse();
    let base_cfg = {
        let mut c = args.scale.config();
        c.l1 = GpuConfig::paper_baseline().l1;
        c
    };
    let huge_cfg = {
        let mut c = base_cfg.clone();
        c.l1.capacity_bytes = 32 * 1024 * 1024;
        c
    };
    let mut sweep = SimSweep::from_args("fig2", &args);
    let points: Vec<_> = Benchmark::ALL
        .into_iter()
        .map(|b| {
            (
                b,
                sweep.add_with_config(b, BASELINE, args.scale, &base_cfg),
                sweep.add_with_config(b, BASELINE, args.scale, &huge_cfg),
            )
        })
        .collect();
    let res = sweep.run(args.jobs);

    println!("Figure 2 — L1 miss breakdown, 32KB (B) vs 32MB (C) L1\n");
    let mut rows = Vec::new();
    for (b, small, huge) in &points {
        let (Some(small), Some(huge)) = (res.get(*small), res.get(*huge)) else {
            continue;
        };
        let total = |r: &gpu_sm::RunResult| r.l1.accesses.max(1) as f64;
        rows.push(vec![
            b.label().to_owned(),
            format!("{:.2}", small.l1.miss_rate()),
            format!("{:.2}", small.l1.cold_misses as f64 / total(small)),
            format!(
                "{:.2}",
                small.l1.capacity_conflict_misses as f64 / total(small)
            ),
            format!("{:.2}", huge.l1.miss_rate()),
            format!("{:.2}", huge.l1.cold_misses as f64 / total(huge)),
            format!(
                "{:.2}",
                huge.l1.capacity_conflict_misses as f64 / total(huge)
            ),
            format!("({:.2})", huge.speedup_over(small)),
        ]);
    }
    emit_table(
        &args,
        "fig2",
        &[
            "App",
            "B:miss",
            "B:cold",
            "B:cap+conf",
            "C:miss",
            "C:cold",
            "C:cap+conf",
            "C speedup",
        ],
        &rows,
    );
}
