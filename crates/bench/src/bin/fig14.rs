//! Figure 14 — data traffic (bytes moved from memory to SM), normalized to
//! the baseline.

use apres_bench::{emit_table, mean, BenchArgs, SimSweep, APRES, BASELINE, CCWS_STR};
use gpu_workloads::Benchmark;

fn main() {
    let args = BenchArgs::parse();
    let mut sweep = SimSweep::from_args("fig14", &args);
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

    println!("Figure 14 — memory→SM data traffic normalized to baseline\n");
    let mut rows = Vec::new();
    let (mut s_all, mut a_all) = (Vec::new(), Vec::new());
    for (b, base_id, s_id, a_id) in &points {
        let (Some(base), Some(s), Some(a)) = (res.get(*base_id), res.get(*s_id), res.get(*a_id))
        else {
            continue;
        };
        let norm = |r: &gpu_sm::RunResult| {
            let bb = base.mem.bytes_to_sm.max(1) as f64;
            r.mem.bytes_to_sm as f64 / bb
        };
        let (sn, an) = (norm(s), norm(a));
        s_all.push(sn);
        a_all.push(an);
        rows.push(vec![
            b.label().to_owned(),
            format!("{}", base.mem.bytes_to_sm),
            format!("{sn:.3}"),
            format!("{an:.3}"),
        ]);
    }
    rows.push(vec![
        "AVG".to_owned(),
        "-".to_owned(),
        format!("{:.3}", mean(&s_all)),
        format!("{:.3}", mean(&a_all)),
    ]);
    emit_table(
        &args,
        "fig14",
        &["App", "Base(bytes)", "CCWS+STR", "APRES"],
        &rows,
    );
}
