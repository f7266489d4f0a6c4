//! Parameter sweeps generalizing Figure 2: L1 capacity and TLP
//! (warps per SM) sensitivity of the baseline and of APRES.
//!
//! ```text
//! cargo run --release -p apres-bench --bin sweep -- [--fast] [--jobs N] [APP]
//! ```

use apres_bench::{benchmark_by_label_or_exit, emit_table, BenchArgs, SimSweep, APRES, BASELINE};
use gpu_workloads::Benchmark;

const L1_KBS: [u64; 7] = [16, 32, 64, 128, 256, 1024, 4096];
const TLP_WARPS: [usize; 5] = [8, 16, 24, 32, 48];

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale;
    let bench = args
        .first_positional()
        .map(benchmark_by_label_or_exit)
        .unwrap_or(Benchmark::Km);

    let mut sweep = SimSweep::from_args("sweep", &args);
    let l1_ids: Vec<_> = L1_KBS
        .iter()
        .map(|&kb| {
            let mut cfg = scale.config();
            cfg.l1.capacity_bytes = kb * 1024;
            sweep.add_labeled(format!("l1={kb}KB"), bench, BASELINE, scale, &cfg)
        })
        .collect();
    let tlp_ids: Vec<_> = TLP_WARPS
        .iter()
        .map(|&warps| {
            let mut cfg = scale.config();
            cfg.core.warps_per_sm = warps;
            (
                sweep.add_labeled(format!("warps={warps} base"), bench, BASELINE, scale, &cfg),
                sweep.add_labeled(format!("warps={warps} apres"), bench, APRES, scale, &cfg),
            )
        })
        .collect();
    let res = sweep.run(args.jobs);

    println!("L1 capacity sweep on {} (baseline LRR)\n", bench.label());
    let mut rows = Vec::new();
    for (kb, id) in L1_KBS.iter().zip(&l1_ids) {
        let Some(r) = res.get(*id) else {
            continue;
        };
        rows.push(vec![
            format!("{kb} KB"),
            format!("{:.3}", r.ipc()),
            format!("{:.2}", r.l1.miss_rate()),
            format!(
                "{:.2}",
                r.l1.capacity_conflict_misses as f64 / r.l1.accesses.max(1) as f64
            ),
        ]);
    }
    emit_table(&args, "sweep_l1", &["L1", "IPC", "miss", "cap+conf"], &rows);

    println!(
        "\nTLP sweep on {} (warps per SM; baseline vs APRES)\n",
        bench.label()
    );
    let mut rows = Vec::new();
    for (warps, (base_id, apres_id)) in TLP_WARPS.iter().zip(&tlp_ids) {
        let (Some(base), Some(apres)) = (res.get(*base_id), res.get(*apres_id)) else {
            continue;
        };
        rows.push(vec![
            format!("{warps}"),
            format!("{:.3}", base.ipc()),
            format!("{:.2}", base.l1.miss_rate()),
            format!("{:.3}", apres.ipc()),
            format!("{:.3}", apres.speedup_over(base)),
        ]);
    }
    emit_table(
        &args,
        "sweep_tlp",
        &["warps/SM", "base IPC", "base miss", "APRES IPC", "speedup"],
        &rows,
    );
    println!(
        "\nThe TLP sweep shows the contention curve CCWS exploits by\n\
         throttling: beyond the knee, more warps add misses faster than\n\
         latency hiding, and APRES's grouped scheduling recovers part of\n\
         the loss without reducing occupancy."
    );
}
