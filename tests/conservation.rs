//! Integration tests for accounting invariants that must hold on any full
//! simulation, regardless of policy or workload.

// Integration tests may use the ergonomic panicking forms freely.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use apres::{
    Benchmark, GpuConfig, PrefetcherChoice, RunResult, SchedulerChoice, Simulation, Termination,
};

fn run(b: Benchmark, s: SchedulerChoice, p: PrefetcherChoice) -> RunResult {
    let mut cfg = GpuConfig::paper_baseline();
    cfg.core.num_sms = 2;
    Simulation::new(b.kernel_scaled(8))
        .config(cfg)
        .scheduler(s)
        .prefetcher(p)
        .max_cycles(5_000_000)
        .run()
        .expect("conservation workloads run to completion")
}

fn check_invariants(r: &RunResult, tag: &str) {
    // Hit/miss taxonomy partitions all demand accesses.
    assert_eq!(
        r.l1.hits + r.l1.misses(),
        r.l1.accesses,
        "{tag}: hits+misses != accesses"
    );
    assert_eq!(
        r.l1.hit_after_hit + r.l1.hit_after_miss,
        r.l1.hits,
        "{tag}: hit split broken"
    );
    // MSHR merges are hits by definition here.
    assert!(r.l1.mshr_merges <= r.l1.hits, "{tag}: merges exceed hits");
    assert!(
        r.l1.merges_into_prefetch <= r.l1.mshr_merges,
        "{tag}: prefetch merges exceed merges"
    );
    // Prefetch verdicts never exceed what was issued.
    assert!(
        r.prefetch.correct() + r.prefetch.useless_evictions
            <= r.prefetch.issued + r.prefetch.late_merged,
        "{tag}: prefetch verdicts exceed issues: {:?}",
        r.prefetch
    );
    // Instruction mix adds up.
    assert!(r.sim.loads + r.sim.stores <= r.sim.instructions, "{tag}");
    // A completed run retired every instruction and drained memory.
    assert!(!r.timed_out, "{tag}: timed out");
    // Latency accounting saw every load instruction exactly once.
    assert_eq!(
        r.mem.completed_loads, r.sim.loads,
        "{tag}: load completions {} != loads issued {}",
        r.mem.completed_loads, r.sim.loads
    );
    // Traffic flows only when there were misses or stores.
    if r.l1.misses() > 0 {
        assert!(r.mem.bytes_to_sm > 0, "{tag}: misses but no fill traffic");
    }
    // Energy counters are populated.
    assert!(r.energy.regfile_accesses >= r.sim.instructions, "{tag}");
}

#[test]
fn invariants_hold_across_policies() {
    for s in [
        SchedulerChoice::Lrr,
        SchedulerChoice::Ccws,
        SchedulerChoice::Mascar,
        SchedulerChoice::Laws,
    ] {
        for p in [
            PrefetcherChoice::None,
            PrefetcherChoice::Str,
            PrefetcherChoice::Sap,
        ] {
            let r = run(Benchmark::Srad, s, p);
            check_invariants(&r, &format!("{s:?}+{p:?}"));
        }
    }
}

#[test]
fn invariants_hold_across_benchmarks() {
    for b in Benchmark::ALL {
        let r = run(b, SchedulerChoice::Laws, PrefetcherChoice::Sap);
        check_invariants(&r, b.label());
    }
}

#[test]
fn stores_do_not_pollute_load_accounting() {
    // HISTO and BP contain stores.
    for b in [Benchmark::Histo, Benchmark::Bp] {
        let r = run(b, SchedulerChoice::Lrr, PrefetcherChoice::None);
        assert!(r.sim.stores > 0, "{} should store", b.label());
        check_invariants(&r, b.label());
    }
}

#[test]
fn simd_efficiency_reflects_divergence() {
    // BFS has diverged gathers (8/4 active lanes); HS is fully converged.
    let bfs = run(Benchmark::Bfs, SchedulerChoice::Lrr, PrefetcherChoice::None);
    let hs = run(Benchmark::Hs, SchedulerChoice::Lrr, PrefetcherChoice::None);
    let eff = |r: &RunResult| r.sim.simd_efficiency(32);
    assert!(eff(&bfs) < 0.95, "BFS efficiency {:.3}", eff(&bfs));
    assert!(eff(&hs) > 0.99, "HS efficiency {:.3}", eff(&hs));
}

#[test]
fn l1_bypass_composes_with_apres() {
    let mut cfg = GpuConfig::paper_baseline();
    cfg.core.num_sms = 2;
    cfg.l1.bypass = true;
    let r = Simulation::new(Benchmark::Km.kernel_scaled(8))
        .config(cfg)
        .apres()
        .max_cycles(5_000_000)
        .run()
        .expect("bypass+apres runs to completion");
    check_invariants(&r, "bypass+apres");
}

#[test]
fn cycle_cap_reports_timeout_cleanly() {
    let mut cfg = GpuConfig::paper_baseline();
    cfg.core.num_sms = 2;
    let r = Simulation::new(Benchmark::Km.kernel_scaled(64))
        .config(cfg)
        .max_cycles(500)
        .run()
        .expect("budget exhaustion is a structured outcome, not an error");
    assert!(r.timed_out);
    assert_eq!(r.cycles, 500);
    assert_eq!(r.termination, Termination::BudgetExhausted { budget: 500 });
    assert_eq!(r.termination.to_string(), "budget-exhausted(500)");
}
