//! Figure 15 — dynamic energy consumption normalized to the baseline
//! (GPUWattch-style event-energy model; APRES table energy included).

use apres_bench::{emit_table, mean, BenchArgs, SimSweep, APRES, BASELINE, CCWS_STR};
use apres_core::energy::EnergyModel;
use gpu_workloads::Benchmark;

fn main() {
    let args = BenchArgs::parse();
    let model = EnergyModel::new();
    let sms = args.scale.config().core.num_sms;
    let mut sweep = SimSweep::from_args("fig15", &args);
    let points: Vec<_> = Benchmark::ALL
        .into_iter()
        .map(|b| {
            (
                b,
                sweep.add(b, BASELINE, args.scale),
                sweep.add(b, CCWS_STR, args.scale),
                sweep.add(b, APRES, args.scale),
            )
        })
        .collect();
    let res = sweep.run(args.jobs);

    println!("Figure 15 — dynamic energy normalized to baseline\n");
    let mut rows = Vec::new();
    let (mut s_all, mut a_all) = (Vec::new(), Vec::new());
    for (b, base_id, s_id, a_id) in &points {
        let (Some(base), Some(s), Some(a)) = (res.get(*base_id), res.get(*s_id), res.get(*a_id))
        else {
            continue;
        };
        let sn = model.normalized(s, base, sms);
        let an = model.normalized(a, base, sms);
        s_all.push(sn);
        a_all.push(an);
        rows.push(vec![
            b.label().to_owned(),
            format!("{sn:.3}"),
            format!("{an:.3}"),
            format!("{:.2}%", model.apres_overhead_fraction(a, sms) * 100.0),
        ]);
    }
    rows.push(vec![
        "AVG".to_owned(),
        format!("{:.3}", mean(&s_all)),
        format!("{:.3}", mean(&a_all)),
        "-".to_owned(),
    ]);
    emit_table(
        &args,
        "fig15",
        &["App", "CCWS+STR", "APRES", "APRES-tbl-energy"],
        &rows,
    );
}
