//! Fault-injection integration tests: every class of injected fault must
//! yield either a typed [`SimError`] or graceful degradation — never a
//! panic, never an unbounded hang.
//!
//! Covered fault classes:
//!
//! 1. dropped DRAM responses  → watchdog timeout with a named diagnosis;
//! 2. delayed DRAM responses  → completes, slower, delays counted;
//! 3. MSHR exhaustion bursts  → completes, refusals absorbed by retry;
//! 4. corrupted SAP predictions → completes, corruptions only cost cycles;
//! 5. dropped NoC requests    → watchdog timeout;
//! 6. fuzzed config geometry  → up-front `ConfigValidation` rejection;
//! 7. cycle-budget exhaustion → structured `BudgetExhausted`, not an error.

// Integration tests may use the ergonomic panicking forms freely.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use apres::common::check::{run_cases, Gen};
use apres::common::fault::fuzz_config;
use apres::common::StallReason;
use apres::{Benchmark, FaultPlan, GpuConfig, Kernel, SimError, Simulation, Termination};

fn cfg() -> GpuConfig {
    let mut c = GpuConfig::small_test();
    c.core.warps_per_sm = 8;
    c
}

fn kernel() -> Kernel {
    Benchmark::Srad.kernel_scaled(4)
}

/// Class 1: every DRAM response is dropped. No warp can ever retire its
/// load, so the watchdog must convert the hang into a typed diagnosis that
/// names the stalled warps and the L1 MSHRs they wait on.
#[test]
fn dropped_dram_responses_become_watchdog_diagnosis() {
    let err = Simulation::new(kernel())
        .config(cfg())
        .fault_plan(FaultPlan::seeded(7).dropping_dram_responses(1.0))
        .watchdog(20_000)
        .max_cycles(2_000_000)
        .run()
        .expect_err("a fully dropped memory system cannot drain");
    assert_eq!(err.class(), "watchdog-timeout");
    let SimError::WatchdogTimeout {
        cycle,
        idle_cycles,
        diagnosis,
    } = err
    else {
        panic!("wrong variant: {err:?}");
    };
    assert!(cycle > 0);
    // The watchdog samples progress every 256 cycles, so the reported idle
    // window is the configured one rounded up to the next sample point.
    assert!(
        (20_000..20_512).contains(&idle_cycles),
        "idle window {idle_cycles}"
    );
    assert!(
        !diagnosis.stalled_warps.is_empty(),
        "diagnosis must name stalled warps"
    );
    assert!(
        diagnosis
            .stalled_warps
            .iter()
            .any(|w| w.waiting_on == StallReason::PendingLoad),
        "at least one warp must be blocked on a load: {:?}",
        diagnosis.stalled_warps
    );
    assert!(
        !diagnosis.inflight_mshrs.is_empty(),
        "the lines being waited on must be named"
    );
    assert!(diagnosis.mem_submitted > diagnosis.mem_delivered);
}

/// Class 2: delayed responses degrade performance but preserve results.
#[test]
fn delayed_dram_responses_degrade_gracefully() {
    let clean = Simulation::new(kernel())
        .config(cfg())
        .max_cycles(4_000_000)
        .run()
        .expect("clean run drains");
    let slow = Simulation::new(kernel())
        .config(cfg())
        .fault_plan(FaultPlan::seeded(11).delaying_dram_responses(0.8, 300))
        .max_cycles(8_000_000)
        .run()
        .expect("delays must not kill the run");
    assert!(slow.termination.is_drained());
    assert!(slow.faults.delayed_responses > 0, "{:?}", slow.faults);
    assert!(
        slow.cycles > clean.cycles,
        "delays must cost cycles: {} vs {}",
        slow.cycles,
        clean.cycles
    );
    assert_eq!(
        slow.sim.instructions, clean.sim.instructions,
        "faults must never change the work performed"
    );
}

/// Class 3: periodic MSHR-exhaustion bursts are absorbed by the LSU/L1
/// retry path.
#[test]
fn mshr_exhaustion_bursts_are_absorbed() {
    let r = Simulation::new(kernel())
        .config(cfg())
        .fault_plan(FaultPlan::seeded(3).exhausting_mshrs(200, 40))
        .max_cycles(8_000_000)
        .run()
        .expect("MSHR bursts must be survivable");
    assert!(r.termination.is_drained());
    assert!(r.faults.mshr_refusals > 0, "{:?}", r.faults);
}

/// Class 4: corrupted SAP predictions waste bandwidth, never correctness.
#[test]
fn corrupted_sap_predictions_only_cost_performance() {
    let clean = Simulation::new(Benchmark::Lud.kernel_scaled(4))
        .config(cfg())
        .apres()
        .max_cycles(4_000_000)
        .run()
        .expect("clean APRES run drains");
    let noisy = Simulation::new(Benchmark::Lud.kernel_scaled(4))
        .config(cfg())
        .apres()
        .fault_plan(FaultPlan::seeded(5).corrupting_sap(1.0))
        .max_cycles(8_000_000)
        .run()
        .expect("corrupted predictions must be survivable");
    assert!(noisy.termination.is_drained());
    assert!(noisy.faults.corrupted_predictions > 0, "{:?}", noisy.faults);
    assert_eq!(noisy.sim.instructions, clean.sim.instructions);
}

/// Class 5: requests vanishing in the interconnect also strand their warps
/// and must be diagnosed, not hung.
#[test]
fn dropped_noc_requests_become_watchdog_timeout() {
    let err = Simulation::new(kernel())
        .config(cfg())
        .fault_plan(FaultPlan::seeded(13).dropping_noc_requests(1.0))
        .watchdog(20_000)
        .max_cycles(2_000_000)
        .run()
        .expect_err("fully dropped requests cannot drain");
    assert_eq!(err.class(), "watchdog-timeout");
}

/// Class 6: every fuzzed geometry mutation is rejected up front by
/// validation — construction code never sees (let alone panics on) a
/// malformed configuration.
#[test]
fn fuzzed_configs_are_rejected_as_typed_errors() {
    run_cases(32, |_, g: &mut Gen| {
        let mut cfg = GpuConfig::small_test();
        let mutation = fuzz_config(&mut cfg, g.rng());
        match Simulation::new(kernel()).config(cfg).max_cycles(1000).run() {
            Err(SimError::ConfigValidation { .. }) => Ok(()),
            Err(e) => Err(format!("{mutation}: wrong error class [{}] {e}", e.class())),
            Ok(_) => Err(format!("{mutation}: accepted a malformed config")),
        }
    });
}

/// Class 7: running out of cycle budget is a structured outcome
/// distinguishable from both success and deadlock.
#[test]
fn budget_exhaustion_is_structured_not_an_error() {
    let r = Simulation::new(Benchmark::Km.kernel_scaled(64))
        .config(cfg())
        .max_cycles(400)
        .run()
        .expect("budget exhaustion is not an error");
    assert_eq!(r.termination, Termination::BudgetExhausted { budget: 400 });
    assert!(r.timed_out, "legacy flag mirrors the termination");
    assert_eq!(r.cycles, 400);
}

/// The watchdog window is configurable and can be disabled; with it off, a
/// deadlocked run degrades to budget exhaustion instead of a diagnosis.
#[test]
fn watchdog_off_degrades_deadlock_to_budget_exhaustion() {
    let r = Simulation::new(kernel())
        .config(cfg())
        .fault_plan(FaultPlan::seeded(7).dropping_dram_responses(1.0))
        .no_watchdog()
        .max_cycles(60_000)
        .run()
        .expect("without a watchdog the budget is the only limit");
    assert_eq!(
        r.termination,
        Termination::BudgetExhausted { budget: 60_000 }
    );
}

/// Reproducibility: the same plan injects byte-for-byte the same faults.
#[test]
fn fault_injection_is_deterministic_per_seed() {
    let plan = FaultPlan::seeded(42)
        .delaying_dram_responses(0.5, 200)
        .exhausting_mshrs(300, 30)
        .corrupting_sap(0.5);
    let run = |plan: FaultPlan| {
        Simulation::new(Benchmark::Lud.kernel_scaled(4))
            .config(cfg())
            .apres()
            .fault_plan(plan)
            .max_cycles(8_000_000)
            .run()
            .expect("survivable plan drains")
    };
    let a = run(plan.clone());
    let b = run(plan.clone());
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.l1, b.l1);
    // A different seed changes the injection pattern.
    let c = run(FaultPlan { seed: 43, ..plan });
    assert_ne!(
        (a.cycles, a.faults),
        (c.cycles, c.faults),
        "different fault seeds should inject differently"
    );
}
