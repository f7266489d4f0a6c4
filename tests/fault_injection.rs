//! Run-limit outcomes. The simulator injects no faults (DESIGN.md §8), so
//! the one class checked here is a cycle budget running out: it must end
//! the run with a structured `Termination::BudgetExhausted`, not an error.

// Integration tests may use the ergonomic panicking forms freely.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use apres::{Benchmark, GpuConfig, Simulation, Termination};

fn cfg() -> GpuConfig {
    let mut c = GpuConfig::small_test();
    c.core.warps_per_sm = 8;
    c
}

/// Running out of cycle budget is a structured outcome distinguishable
/// from both success and deadlock.
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
