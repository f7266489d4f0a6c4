//! Sensitivity/ablation study of APRES's design parameters (the design
//! choices DESIGN.md calls out):
//!
//! * **WGT entries** — how many in-flight load groups LAWS tracks. The
//!   paper sizes it to its 3-stage pipeline; this simulator needs ~12 to
//!   cover the LSU queue. The sweep shows the cliff.
//! * **SAP PT entries** — how many static loads SAP can track (paper: 10).
//! * **Per-miss prefetch budget** — how many group members SAP prefetches.
//!
//! Run on a strided workload (LUD) where SAP is the dominant effect.
//!
//! ```text
//! cargo run --release -p apres-bench --bin ablation_apres -- [--fast] [--jobs N]
//! ```

use apres_bench::{emit_table, BenchArgs, JobId, SimSweep, APRES};
use gpu_common::config::ApresConfig;
use gpu_workloads::Benchmark;

const WGT_SWEEP: [usize; 5] = [1, 3, 6, 12, 24];
const PT_SWEEP: [usize; 4] = [1, 4, 10, 32];
const BUDGET_SWEEP: [usize; 4] = [2, 8, 16, 47];

fn add_point(
    sweep: &mut SimSweep,
    label: String,
    cfg_apres: ApresConfig,
    args: &BenchArgs,
) -> JobId {
    let mut cfg = args.scale.config();
    cfg.apres = cfg_apres;
    sweep.add_labeled(label, Benchmark::Lud, APRES, args.scale, &cfg)
}

fn main() {
    let args = BenchArgs::parse();
    let mut sweep = SimSweep::from_args("ablation_apres", &args);
    let base_id = add_point(&mut sweep, "default".into(), ApresConfig::default(), &args);
    let wgt_ids: Vec<_> = WGT_SWEEP
        .iter()
        .map(|&wgt| {
            let cfg = ApresConfig {
                wgt_entries: wgt,
                ..ApresConfig::default()
            };
            (
                format!("WGT entries = {wgt}"),
                add_point(&mut sweep, format!("wgt={wgt}"), cfg, &args),
            )
        })
        .collect();
    let pt_ids: Vec<_> = PT_SWEEP
        .iter()
        .map(|&pt| {
            let cfg = ApresConfig {
                pt_entries: pt,
                ..ApresConfig::default()
            };
            (
                format!("PT entries = {pt}"),
                add_point(&mut sweep, format!("pt={pt}"), cfg, &args),
            )
        })
        .collect();
    let budget_ids: Vec<_> = BUDGET_SWEEP
        .iter()
        .map(|&budget| {
            let cfg = ApresConfig {
                max_prefetches_per_miss: budget,
                ..ApresConfig::default()
            };
            (
                format!("prefetch budget = {budget}"),
                add_point(&mut sweep, format!("budget={budget}"), cfg, &args),
            )
        })
        .collect();
    let res = sweep.run(args.jobs);

    let Some(base) = res.get(base_id) else {
        eprintln!("baseline point failed; nothing to normalise against");
        std::process::exit(1);
    };
    println!("APRES design-parameter ablation on LUD (IPC relative to the default config)\n");
    let mut rows = Vec::new();
    for (name, id) in wgt_ids.iter().chain(&pt_ids).chain(&budget_ids) {
        let Some(r) = res.get(*id) else {
            continue;
        };
        rows.push(vec![
            name.clone(),
            format!("{:.3}", r.ipc() / base.ipc()),
            format!("{}", r.prefetch.issued),
            format!("{:.2}", r.l1.miss_rate()),
        ]);
    }
    emit_table(
        &args,
        "ablation_apres",
        &["config", "rel IPC", "pf issued", "L1 miss"],
        &rows,
    );
}
