//! Extension study: MRPB-style per-PC L1 bypassing (related work,
//! Section VI) vs. and combined with APRES, on the thrashing workloads.
//!
//! ```text
//! cargo run --release -p apres-bench --bin bypass_study -- [--fast] [--jobs N]
//! ```

use apres_bench::{emit_table, BenchArgs, SimSweep, APRES, BASELINE};
use gpu_workloads::Benchmark;

const BENCHES: [Benchmark; 4] = [Benchmark::Km, Benchmark::Lud, Benchmark::Bfs, Benchmark::Pa];

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale;
    let mut sweep = SimSweep::from_args("bypass_study", &args);
    let points: Vec<_> = BENCHES
        .iter()
        .map(|&bench| {
            let mut base_cfg = scale.config();
            let mut bypass_cfg = scale.config();
            bypass_cfg.l1.bypass = true;
            base_cfg.l1.bypass = false;
            let label = |tag: &str| format!("{}/{tag}", bench.label());
            (
                bench,
                sweep.add_labeled(label("base"), bench, BASELINE, scale, &base_cfg),
                sweep.add_labeled(label("bypass"), bench, BASELINE, scale, &bypass_cfg),
                sweep.add_labeled(label("apres"), bench, APRES, scale, &base_cfg),
                sweep.add_labeled(label("both"), bench, APRES, scale, &bypass_cfg),
            )
        })
        .collect();
    let res = sweep.run(args.jobs);

    println!("Per-PC L1 bypass (MRPB-style) extension study\n");
    let mut rows = Vec::new();
    for (bench, base_id, bypass_id, apres_id, both_id) in &points {
        let (Some(base), Some(bypass), Some(apres), Some(both)) = (
            res.get(*base_id),
            res.get(*bypass_id),
            res.get(*apres_id),
            res.get(*both_id),
        ) else {
            continue;
        };
        rows.push(vec![
            bench.label().to_owned(),
            format!("{:.3}", bypass.speedup_over(base)),
            format!("{:.3}", apres.speedup_over(base)),
            format!("{:.3}", both.speedup_over(base)),
            format!("{:.2}→{:.2}", base.l1.miss_rate(), both.l1.miss_rate()),
        ]);
    }
    emit_table(
        &args,
        "bypass_study",
        &[
            "App",
            "bypass only",
            "APRES only",
            "bypass+APRES",
            "miss (base→both)",
        ],
        &rows,
    );
    println!(
        "\nBypassing protects the cache from no-reuse loads; APRES converts\n\
         the protected capacity into grouped hits — the techniques compose."
    );
}
