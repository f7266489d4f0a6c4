//! The cycle loop allocates nothing per cycle.
//!
//! Every per-cycle buffer is owned and reused (DESIGN.md §13), so once the
//! caches, MSHR files and queues have grown to their working size a cycle
//! makes no heap allocation. What remains grows with the number of distinct
//! lines a run touches, not with cycles. A counting global allocator with a
//! per-thread count, read by an observer after every cycle, checks that
//! from cycle 2,000 to the end of a run.

// Integration tests may use the ergonomic panicking forms freely.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use apres::{Benchmark, Gpu, GpuConfig, Observer, PrefetcherChoice, SchedulerChoice, Simulation};
use apres_bench::alloc::{allocations, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

/// Cycles a run may spend growing its structures to working size.
const WARMUP_CYCLES: u64 = 2_000;

/// Reads this thread's allocation count after each cycle. It allocates
/// nothing itself.
#[derive(Default)]
struct AllocWatch {
    /// `(cycle, allocations)` after cycle `WARMUP_CYCLES`.
    warm: Option<(u64, u64)>,
    /// `(cycle, allocations)` after the latest cycle.
    last: (u64, u64),
}

impl Observer for AllocWatch {
    fn on_cycle(&mut self, gpu: &Gpu) {
        let now = (gpu.now(), allocations());
        if gpu.now() == WARMUP_CYCLES {
            self.warm = Some(now);
        }
        self.last = now;
    }
}

/// Heap allocations per cycle from cycle `WARMUP_CYCLES` to the end of a
/// baseline (LRR, no prefetcher) run of `bench` on 2 Table III SMs.
fn steady_allocs_per_cycle(bench: Benchmark) -> f64 {
    let mut cfg = GpuConfig::paper_baseline();
    cfg.core.num_sms = 2;
    let gpu = Simulation::new(bench.kernel_scaled(8))
        .config(cfg)
        .scheduler(SchedulerChoice::Lrr)
        .prefetcher(PrefetcherChoice::None)
        .build()
        .expect("valid configuration");
    let mut watch = AllocWatch::default();
    let result = gpu.run(5_000_000, &mut watch).expect("run drains");
    assert!(result.termination.is_drained(), "{bench:?} did not drain");
    let (c0, a0) = watch.warm.expect("run outlasts the warm-up");
    let (c1, a1) = watch.last;
    (a1 - a0) as f64 / (c1 - c0) as f64
}

#[test]
fn steady_state_cycles_do_not_allocate() {
    for bench in [Benchmark::Km, Benchmark::Bfs] {
        let per_cycle = steady_allocs_per_cycle(bench);
        assert!(
            per_cycle < 0.1,
            "{bench:?} made {per_cycle:.3} heap allocations per cycle after cycle {WARMUP_CYCLES}"
        );
    }
}
