//! Ablation of substrate modelling choices (documented in DESIGN.md):
//!
//! * **L1 replacement policy** — LRU (baseline) vs FIFO vs MRU, on the
//!   cyclically-thrashing KM workload where the choice matters most;
//! * **DRAM service model** — uniform flat-latency (paper pipeline) vs
//!   banked row buffers with FR-FCFS, showing how row locality shifts
//!   absolute numbers while policy *ordering* is preserved.
//!
//! ```text
//! cargo run --release -p apres-bench --bin ablation_substrate -- [--fast] [--jobs N]
//! ```

use apres_bench::{emit_table, BenchArgs, SimSweep, APRES, BASELINE};
use gpu_common::config::{DramRowPolicy, Replacement};
use gpu_workloads::Benchmark;

const L1_POLICIES: [Replacement; 3] = [Replacement::Lru, Replacement::Fifo, Replacement::Mru];
const DRAM_BENCHES: [Benchmark; 2] = [Benchmark::Srad, Benchmark::Lud];
const DRAM_POLICIES: [DramRowPolicy; 2] = [DramRowPolicy::Uniform, DramRowPolicy::FrFcfsRowBuffer];

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale;
    let mut sweep = SimSweep::from_args("ablation_substrate", &args);
    let l1_ids: Vec<_> = L1_POLICIES
        .iter()
        .map(|&policy| {
            let mut cfg = scale.config();
            cfg.l1.replacement = policy;
            (
                sweep.add_labeled(
                    format!("{}/baseline", Benchmark::Km.label()),
                    Benchmark::Km,
                    BASELINE,
                    scale,
                    &cfg,
                ),
                sweep.add_labeled(
                    format!("{}/APRES", Benchmark::Km.label()),
                    Benchmark::Km,
                    APRES,
                    scale,
                    &cfg,
                ),
            )
        })
        .collect();
    let dram_ids: Vec<_> = DRAM_BENCHES
        .iter()
        .flat_map(|&bench| {
            DRAM_POLICIES
                .iter()
                .map(move |&policy| (bench, policy))
                .collect::<Vec<_>>()
        })
        .map(|(bench, policy)| {
            let mut cfg = scale.config();
            cfg.dram.row_policy = policy;
            (
                bench,
                policy,
                sweep.add_labeled(
                    format!("{}/baseline", bench.label()),
                    bench,
                    BASELINE,
                    scale,
                    &cfg,
                ),
                sweep.add_labeled(
                    format!("{}/APRES", bench.label()),
                    bench,
                    APRES,
                    scale,
                    &cfg,
                ),
            )
        })
        .collect();
    let res = sweep.run(args.jobs);

    println!("Substrate ablation 1 — L1 replacement policy on KM (cyclic thrash)\n");
    let mut rows = Vec::new();
    for (policy, (b_id, a_id)) in L1_POLICIES.iter().zip(&l1_ids) {
        let (Some(b), Some(a)) = (res.get(*b_id), res.get(*a_id)) else {
            continue;
        };
        rows.push(vec![
            format!("{policy:?}"),
            format!("{:.3}", b.ipc()),
            format!("{:.2}", b.l1.miss_rate()),
            format!("{:.3}", a.speedup_over(b)),
        ]);
    }
    emit_table(
        &args,
        "ablation_l1_policy",
        &["L1 policy", "base IPC", "base miss", "APRES speedup"],
        &rows,
    );

    println!("\nSubstrate ablation 2 — DRAM service model (SRAD + LUD)\n");
    let mut rows = Vec::new();
    for (bench, policy, b_id, a_id) in &dram_ids {
        let (Some(b), Some(a)) = (res.get(*b_id), res.get(*a_id)) else {
            continue;
        };
        rows.push(vec![
            format!("{} / {policy:?}", bench.label()),
            format!("{:.3}", b.ipc()),
            format!("{:.0}", b.mem.avg_load_latency()),
            format!("{:.3}", a.speedup_over(b)),
        ]);
    }
    emit_table(
        &args,
        "ablation_dram_model",
        &[
            "bench / DRAM model",
            "base IPC",
            "base latency",
            "APRES speedup",
        ],
        &rows,
    );
}
