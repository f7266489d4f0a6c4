//! Simulation facade: one entry point for every policy combination the
//! paper evaluates.
//!
//! [`Simulation`] is a non-consuming builder over
//! (configuration, kernel, scheduler, prefetcher, cycle budget). The
//! combinations of interest:
//!
//! | Paper name  | [`SchedulerChoice`] | [`PrefetcherChoice`] |
//! |-------------|---------------------|----------------------|
//! | Baseline    | `Lrr`               | `None`               |
//! | CCWS+STR    | `Ccws`              | `Str`                |
//! | LAWS        | `Laws`              | `None`               |
//! | LAWS+STR    | `Laws`              | `Str`                |
//! | **APRES**   | `Laws`              | `Sap`                |

#![deny(
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::laws::Laws;
use crate::sap::Sap;
use gpu_common::config::GpuConfig;
use gpu_common::{Cycle, SimResult};
use gpu_kernel::Kernel;
use gpu_prefetch::PrefetchEngine;
use gpu_sched::SchedPolicy;
use gpu_sm::traits::{NullPrefetcher, Prefetcher, WarpScheduler};
use gpu_sm::{Gpu, RunResult};

/// Default cycle budget; generous for every bundled workload. Runs that hit
/// it end with [`gpu_sm::Termination::BudgetExhausted`] rather than being
/// silently truncated.
pub const DEFAULT_MAX_CYCLES: Cycle = 30_000_000;

/// Scheduler selection (baselines + LAWS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerChoice {
    /// Loose round-robin (the paper's baseline).
    Lrr,
    /// Greedy-then-oldest.
    Gto,
    /// Two-level fetch groups.
    TwoLevel,
    /// Cache-conscious wavefront scheduling.
    Ccws,
    /// Memory-aware scheduling.
    Mascar,
    /// Prefetch-aware two-level scheduling.
    Pa,
    /// Locality-aware warp scheduling (APRES's scheduler half).
    Laws,
}

impl SchedulerChoice {
    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerChoice::Lrr => "LRR",
            SchedulerChoice::Gto => "GTO",
            SchedulerChoice::TwoLevel => "2LV",
            SchedulerChoice::Ccws => "CCWS",
            SchedulerChoice::Mascar => "MASCAR",
            SchedulerChoice::Pa => "PA",
            SchedulerChoice::Laws => "LAWS",
        }
    }

    fn make(self, cfg: &GpuConfig) -> Box<dyn WarpScheduler> {
        match self {
            SchedulerChoice::Lrr => SchedPolicy::Lrr.make(),
            SchedulerChoice::Gto => SchedPolicy::Gto.make(),
            SchedulerChoice::TwoLevel => SchedPolicy::TwoLevel.make(),
            SchedulerChoice::Ccws => SchedPolicy::Ccws.make(),
            SchedulerChoice::Mascar => SchedPolicy::Mascar.make(),
            SchedulerChoice::Pa => SchedPolicy::Pa.make(),
            SchedulerChoice::Laws => Box::new(Laws::new(&cfg.apres)),
        }
    }
}

/// Prefetcher selection (baselines + SAP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetcherChoice {
    /// No prefetching.
    None,
    /// Per-PC stride prefetching.
    Str,
    /// Macro-block spatial prefetching.
    Sld,
    /// Scheduling-aware prefetching (APRES's prefetcher half; only
    /// meaningful together with [`SchedulerChoice::Laws`], which supplies
    /// the group triggers).
    Sap,
}

impl PrefetcherChoice {
    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            PrefetcherChoice::None => "none",
            PrefetcherChoice::Str => "STR",
            PrefetcherChoice::Sld => "SLD",
            PrefetcherChoice::Sap => "SAP",
        }
    }

    fn make(self, cfg: &GpuConfig) -> Box<dyn Prefetcher> {
        match self {
            PrefetcherChoice::None => Box::new(NullPrefetcher),
            PrefetcherChoice::Str => PrefetchEngine::Str.make(),
            PrefetcherChoice::Sld => PrefetchEngine::Sld.make(),
            PrefetcherChoice::Sap => Box::new(Sap::new(&cfg.apres)),
        }
    }
}

/// Builder for one simulation run.
///
/// # Example
///
/// ```
/// use apres_core::sim::{Simulation, SchedulerChoice, PrefetcherChoice};
/// use gpu_common::GpuConfig;
/// use gpu_kernel::{Kernel, AddressPattern};
///
/// let k = Kernel::builder("ex")
///     .load(AddressPattern::shared_stream(0, 128), &[])
///     .alu(8, &[0])
///     .iterations(4)
///     .build();
/// let baseline = Simulation::new(k)
///     .config(GpuConfig::small_test())
///     .run()
///     .expect("valid config, no deadlock");
/// assert_eq!(baseline.scheduler, "lrr");
/// ```
#[derive(Debug, Clone)]
pub struct Simulation {
    kernel: Kernel,
    cfg: GpuConfig,
    scheduler: SchedulerChoice,
    prefetcher: PrefetcherChoice,
    max_cycles: Cycle,
    seed_override: Option<u64>,
}

impl Simulation {
    /// Starts configuring a run of `kernel` with the paper-baseline GPU,
    /// LRR scheduling and no prefetching.
    pub fn new(kernel: Kernel) -> Self {
        Simulation {
            kernel,
            cfg: GpuConfig::paper_baseline(),
            scheduler: SchedulerChoice::Lrr,
            prefetcher: PrefetcherChoice::None,
            max_cycles: DEFAULT_MAX_CYCLES,
            seed_override: None,
        }
    }

    /// Sets the GPU configuration.
    pub fn config(mut self, cfg: GpuConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the warp scheduler.
    pub fn scheduler(mut self, s: SchedulerChoice) -> Self {
        self.scheduler = s;
        self
    }

    /// Sets the prefetcher.
    pub fn prefetcher(mut self, p: PrefetcherChoice) -> Self {
        self.prefetcher = p;
        self
    }

    /// Shorthand for `scheduler(Laws).prefetcher(Sap)` — the full APRES
    /// configuration.
    pub fn apres(self) -> Self {
        self.scheduler(SchedulerChoice::Laws)
            .prefetcher(PrefetcherChoice::Sap)
    }

    /// Sets the simulation cycle budget.
    pub fn max_cycles(mut self, cycles: Cycle) -> Self {
        self.max_cycles = cycles;
        self
    }

    /// Overrides the kernel's workload seed for this run.
    ///
    /// The kernel body and patterns are unchanged; only the pattern
    /// randomness re-rolls. Sweep harnesses use this together with
    /// [`gpu_common::rng::derive_seed`] to give each job in a matrix its
    /// own seed that depends on the job's *index*, never on which worker
    /// thread ran it — so a parallel sweep reproduces the serial sweep
    /// bit-for-bit.
    ///
    /// # Example
    ///
    /// ```
    /// use apres_core::sim::Simulation;
    /// use gpu_common::{rng::derive_seed, GpuConfig};
    /// use gpu_kernel::{AddressPattern, Kernel};
    ///
    /// let k = Kernel::builder("ex")
    ///     .load(AddressPattern::shared_stream(0, 128), &[])
    ///     .alu(8, &[0])
    ///     .iterations(4)
    ///     .build();
    /// let r = Simulation::new(k)
    ///     .config(GpuConfig::small_test())
    ///     .workload_seed(derive_seed(0xAB5E, 3)) // job #3 of a sweep
    ///     .run()
    ///     .expect("valid config, no deadlock");
    /// assert!(r.termination.is_drained());
    /// ```
    pub fn workload_seed(mut self, seed: u64) -> Self {
        self.seed_override = Some(seed);
        self
    }

    /// Builds the GPU this run would drive, without running a cycle: the
    /// kernel is verified, the configuration validated, and each SM gets
    /// its own policy instances.
    /// [`Simulation::run`] is `build()` followed by [`Gpu::run`]; call them
    /// apart to watch the run through a [`gpu_sm::Observer`]. The cycle
    /// budget is `Gpu::run`'s argument.
    ///
    /// # Errors
    ///
    /// [`gpu_common::SimError::ConfigValidation`] for a bad configuration,
    /// [`gpu_common::SimError::KernelValidation`] when the static verifier
    /// ([`gpu_kernel::verify`]) finds an error-level defect in the kernel IR
    /// (cyclic deps, dangling pattern slots, divergent barriers, …).
    pub fn build(&self) -> SimResult<Gpu> {
        let kernel = match self.seed_override {
            Some(seed) => self.kernel.clone().with_seed(seed),
            None => self.kernel.clone(),
        };
        let report = gpu_kernel::verify::verify_kernel(&kernel, self.cfg.core.warp_size as u32);
        if let Some(err) = report.to_sim_error(kernel.name()) {
            return Err(err);
        }
        Gpu::new(
            &self.cfg,
            kernel,
            &|_| self.scheduler.make(&self.cfg),
            &|_| self.prefetcher.make(&self.cfg),
        )
    }

    /// Runs the simulation to completion (or the cycle budget).
    ///
    /// # Errors
    ///
    /// Everything [`Simulation::build`] returns, plus `WatchdogTimeout`
    /// when forward progress stops for a whole watchdog window and
    /// `InvariantViolation` when the drain-time conservation audit fails.
    pub fn run(&self) -> SimResult<RunResult> {
        self.build()?.run(self.max_cycles, &mut ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_kernel::AddressPattern;

    fn locality_kernel() -> Kernel {
        // Shared stream: consecutive warps hit the same line.
        Kernel::builder("locality")
            .load(AddressPattern::shared_stream(0, 64), &[])
            .alu(8, &[0])
            .iterations(24)
            .build()
    }

    fn strided_kernel() -> Kernel {
        // Large inter-warp stride, grid-stride loop, no reuse: the SAP
        // sweet spot.
        Kernel::builder("strided")
            .load(AddressPattern::warp_strided(0, 4352, 4352 * 64, 4), &[])
            .alu(8, &[0])
            .iterations(24)
            .build()
    }

    fn run(k: Kernel, s: SchedulerChoice, p: PrefetcherChoice) -> RunResult {
        Simulation::new(k)
            .config(gpu_common::GpuConfig::small_test())
            .scheduler(s)
            .prefetcher(p)
            .max_cycles(3_000_000)
            .run()
            .unwrap()
    }

    #[test]
    fn all_policy_combinations_complete() {
        for s in [
            SchedulerChoice::Lrr,
            SchedulerChoice::Gto,
            SchedulerChoice::TwoLevel,
            SchedulerChoice::Ccws,
            SchedulerChoice::Mascar,
            SchedulerChoice::Pa,
            SchedulerChoice::Laws,
        ] {
            let r = run(locality_kernel(), s, PrefetcherChoice::None);
            assert!(!r.timed_out, "{s:?} timed out");
            assert_eq!(r.sim.instructions, 16 * 2 * 24, "{s:?}");
        }
    }

    #[test]
    fn apres_shorthand() {
        let r = Simulation::new(locality_kernel())
            .config(gpu_common::GpuConfig::small_test())
            .apres()
            .max_cycles(3_000_000)
            .run()
            .unwrap();
        assert_eq!(r.scheduler, "laws");
        assert_eq!(r.prefetcher, "sap");
        assert!(!r.timed_out);
    }

    #[test]
    fn sap_prefetches_on_strided_kernel() {
        let r = run(
            strided_kernel(),
            SchedulerChoice::Laws,
            PrefetcherChoice::Sap,
        );
        assert!(!r.timed_out);
        assert!(r.prefetch.issued > 0, "SAP issued no prefetches");
        assert!(
            r.prefetch.useful + r.prefetch.late_merged > 0,
            "no prefetch ever helped: {:?}",
            r.prefetch
        );
    }

    #[test]
    fn apres_beats_baseline_on_strided_kernel() {
        let base = run(
            strided_kernel(),
            SchedulerChoice::Lrr,
            PrefetcherChoice::None,
        );
        let apres = run(
            strided_kernel(),
            SchedulerChoice::Laws,
            PrefetcherChoice::Sap,
        );
        assert!(
            apres.speedup_over(&base) > 1.0,
            "APRES {:.3} vs baseline {:.3} IPC",
            apres.ipc(),
            base.ipc()
        );
    }

    #[test]
    fn laws_helps_locality_kernel_hit_rate() {
        let base = run(
            locality_kernel(),
            SchedulerChoice::Lrr,
            PrefetcherChoice::None,
        );
        let laws = run(
            locality_kernel(),
            SchedulerChoice::Laws,
            PrefetcherChoice::None,
        );
        assert!(
            laws.l1.hit_after_hit_ratio() >= base.l1.hit_after_hit_ratio() * 0.95,
            "LAWS hit-after-hit {:.3} vs LRR {:.3}",
            laws.l1.hit_after_hit_ratio(),
            base.l1.hit_after_hit_ratio()
        );
    }

    #[test]
    fn str_prefetcher_works_under_any_scheduler() {
        let r = run(
            strided_kernel(),
            SchedulerChoice::Ccws,
            PrefetcherChoice::Str,
        );
        assert!(!r.timed_out);
        assert!(r.prefetch.issued > 0);
    }

    #[test]
    fn invalid_config_rejected_up_front() {
        let mut cfg = gpu_common::GpuConfig::small_test();
        cfg.l1.line_bytes = 100; // not a power of two
        let err = Simulation::new(locality_kernel())
            .config(cfg)
            .run()
            .err()
            .unwrap();
        assert_eq!(err.class(), "config-validation");
    }

    #[test]
    fn defective_kernel_rejected_before_any_cycle() {
        use gpu_common::{Pc, SimError};
        use gpu_kernel::{Op, StaticInstr};
        // Divergent barrier: only the watchdog could catch this at runtime;
        // the static verifier must refuse to start the run at all.
        let mut barrier = StaticInstr::new(Pc(0x108), Op::Barrier, vec![0]);
        barrier.active_lanes = Some(4);
        let k = Kernel::builder("divergent-barrier")
            .raw_instr(StaticInstr::new(Pc(0x100), Op::Alu { latency: 8 }, vec![]))
            .raw_instr(barrier)
            .build();
        let err = Simulation::new(k)
            .config(gpu_common::GpuConfig::small_test())
            .run()
            .expect_err("divergent barrier must gate");
        assert_eq!(err.class(), "kernel-validation");
        assert!(
            matches!(err, SimError::KernelValidation { ref diagnostics, .. } if !diagnostics.is_empty())
        );
        assert!(err.to_string().contains("deadlock"), "{err}");
    }

    #[test]
    fn workload_seed_override_reseeds_pattern_randomness() {
        // An irregular pattern draws addresses from the kernel seed, so two
        // different overrides must diverge while equal overrides agree.
        let k = || {
            Kernel::builder("irregular")
                .load(AddressPattern::irregular(0, 1 << 20, 1 << 12, 0.5), &[])
                .alu(8, &[0])
                .iterations(16)
                .build()
        };
        let at = |seed: u64| {
            Simulation::new(k())
                .config(gpu_common::GpuConfig::small_test())
                .workload_seed(seed)
                .max_cycles(3_000_000)
                .run()
                .unwrap()
        };
        let a = at(gpu_common::rng::derive_seed(1, 0));
        let b = at(gpu_common::rng::derive_seed(1, 0));
        let c = at(gpu_common::rng::derive_seed(1, 1));
        assert_eq!(a.cycles, b.cycles, "same derived seed must reproduce");
        assert_eq!(a.l1, b.l1);
        assert_ne!(a.cycles, c.cycles, "different derived seeds must diverge");
    }

    #[test]
    fn deterministic() {
        let a = run(
            strided_kernel(),
            SchedulerChoice::Laws,
            PrefetcherChoice::Sap,
        );
        let b = run(
            strided_kernel(),
            SchedulerChoice::Laws,
            PrefetcherChoice::Sap,
        );
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.l1, b.l1);
        assert_eq!(a.prefetch, b.prefetch);
    }
}
