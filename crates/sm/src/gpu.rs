//! The whole GPU: N SMs over a shared memory system, plus the cycle loop.
//!
//! Per-SM state (core, LSU, L1) and the shared memory system (NoC pipes,
//! L2 banks, DRAM) are owned separately; every cross-boundary message flows
//! through an [`SmPort`], which the cycle loop routes once per cycle in
//! fixed SM-id order (see `DESIGN.md` §14).
//!
//! [`Gpu::run`] is the one cycle loop. Whoever wants to watch a run passes
//! an [`Observer`], which reads the GPU after every cycle but cannot change
//! it. A forward-progress watchdog with a fixed window turns a run that
//! stops making progress into a typed, diagnosed error.

#![deny(
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::port::SmPort;
use crate::sm::Sm;
use crate::traits::{Prefetcher, WarpScheduler};
use gpu_common::config::GpuConfig;
use gpu_common::fault::FaultCounters;
use gpu_common::stats::{CacheStats, EnergyEvents, MemStats, PrefetchStats, SimStats};
use gpu_common::{Cycle, DeadlockDiagnosis, SimError, SimResult, SmId};
use gpu_kernel::Kernel;
use gpu_mem::memsys::MemorySystem;
use std::sync::Arc;

/// The forward-progress watchdog window: if no instruction issues and no
/// memory response is delivered for this many cycles, the run is declared
/// deadlocked (typed [`SimError::WatchdogTimeout`]). Generous against the
/// worst legitimate gap (a full DRAM queue drain is thousands of cycles,
/// not tens of thousands). The window is not configurable; the `DEFAULT_`
/// name stays only because the benchmark's traced loop uses it.
pub const DEFAULT_WATCHDOG_WINDOW: Cycle = 100_000;

/// How a run ended (never silently — a budget-capped run is distinguishable
/// from a drained one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// Every warp retired and the memory system drained.
    Drained,
    /// The cycle budget ran out with work still in flight.
    BudgetExhausted {
        /// The budget that was exhausted.
        budget: Cycle,
    },
}

impl Termination {
    /// `true` when the run fully drained.
    pub fn is_drained(self) -> bool {
        matches!(self, Termination::Drained)
    }
}

impl std::fmt::Display for Termination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Termination::Drained => f.write_str("drained"),
            Termination::BudgetExhausted { budget } => {
                write!(f, "budget-exhausted({budget})")
            }
        }
    }
}

/// Factory producing one scheduler instance per SM.
pub type SchedulerFactory<'a> = dyn Fn(SmId) -> Box<dyn WarpScheduler> + 'a;
/// Factory producing one prefetcher instance per SM.
pub type PrefetcherFactory<'a> = dyn Fn(SmId) -> Box<dyn Prefetcher> + 'a;

/// Watches a run as [`Gpu::run`] drives it.
///
/// The loop calls [`Observer::on_cycle`] once per simulated cycle, after
/// every SM ticked and the ports were routed. The observer sees the GPU
/// read-only, so observing a run never changes its result. `()` observes
/// nothing and compiles away.
pub trait Observer {
    /// `true` makes every SM record its pipeline events, which
    /// [`Sm::events`] then returns for the cycle just run. Asked once, when
    /// the run starts.
    fn wants_events(&self) -> bool {
        false
    }

    /// Called after each cycle; `gpu.now()` is the number of cycles run.
    fn on_cycle(&mut self, gpu: &Gpu);
}

impl Observer for () {
    fn on_cycle(&mut self, _: &Gpu) {}
}

/// Aggregated results of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Scheduler policy name.
    pub scheduler: String,
    /// Prefetcher engine name.
    pub prefetcher: String,
    /// Kernel name.
    pub kernel: String,
    /// Cycles simulated.
    pub cycles: Cycle,
    /// The run hit the cycle cap before all warps retired. Redundant with
    /// [`RunResult::termination`]; kept for call-site brevity.
    pub timed_out: bool,
    /// How the run ended.
    pub termination: Termination,
    /// Always zero: the simulator injects no faults. Kept only because the
    /// benchmark and the result codec still carry it.
    pub faults: FaultCounters,
    /// Issue statistics summed over SMs (with `cycles` set).
    pub sim: SimStats,
    /// L1 demand statistics summed over SMs.
    pub l1: CacheStats,
    /// Prefetch statistics summed over SMs (finalized).
    pub prefetch: PrefetchStats,
    /// Off-core memory statistics.
    pub mem: MemStats,
    /// Energy event counts summed over SMs (plus L2/DRAM).
    pub energy: EnergyEvents,
    /// Per-static-load L1 statistics summed over SMs, sorted by PC
    /// (runtime Table I: per-PC accesses and miss rates under the actual
    /// policy).
    pub per_pc: Vec<(gpu_common::Pc, gpu_mem::l1::PcStats)>,
}

impl RunResult {
    /// Aggregate instructions-per-cycle across all SMs.
    pub fn ipc(&self) -> f64 {
        self.sim.ipc()
    }

    /// Speedup of this run relative to `baseline` (IPC ratio).
    pub fn speedup_over(&self, baseline: &RunResult) -> f64 {
        let b = baseline.ipc();
        if b == 0.0 {
            0.0
        } else {
            self.ipc() / b
        }
    }
}

/// A GPU instance ready to run one kernel under one policy combination.
pub struct Gpu {
    cfg: GpuConfig,
    sms: Vec<Sm>,
    /// One message-queue boundary per SM (same index as `sms`).
    ports: Vec<SmPort>,
    mem: MemorySystem,
    kernel: Arc<Kernel>,
    now: Cycle,
    wd_last_count: u64,
    wd_last_cycle: Cycle,
}

impl Gpu {
    /// Builds a GPU from a configuration, kernel, and per-SM policy
    /// factories.
    ///
    /// # Errors
    ///
    /// [`SimError::ConfigValidation`] if `cfg` fails validation.
    pub fn new(
        cfg: &GpuConfig,
        kernel: Kernel,
        make_sched: &SchedulerFactory<'_>,
        make_prefetch: &PrefetcherFactory<'_>,
    ) -> SimResult<Self> {
        cfg.validate()?;
        let kernel = Arc::new(kernel);
        let sms = (0..cfg.core.num_sms)
            .map(|i| {
                let id = SmId(i as u32);
                Sm::new(id, cfg, kernel.clone(), make_sched(id), make_prefetch(id))
            })
            .collect();
        Ok(Gpu {
            sms,
            ports: (0..cfg.core.num_sms).map(|_| SmPort::new()).collect(),
            mem: MemorySystem::new(cfg)?,
            kernel,
            now: 0,
            wd_last_count: 0,
            wd_last_cycle: 0,
            cfg: cfg.clone(),
        })
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The SMs, in SM-id order (what an [`Observer`] reads counters from).
    pub fn sms(&self) -> &[Sm] {
        &self.sms
    }

    /// Advances the whole GPU by one cycle: every SM ticks against its
    /// port, then the ports are routed through the shared memory system.
    fn step(&mut self) {
        for (sm, port) in self.sms.iter_mut().zip(&mut self.ports) {
            sm.tick(self.now, port);
        }
        self.route(self.now);
        self.now += 1;
    }

    /// Exchanges all port traffic with the shared memory system for cycle
    /// `now`, in fixed SM-id order: outboxes replay into the NoC (each
    /// request at the cycle its SM submitted it), latency sums flush, the
    /// memory system ticks once, and matured responses re-home into the
    /// inboxes with their ready cycles intact.
    fn route(&mut self, now: Cycle) {
        for (i, port) in self.ports.iter_mut().enumerate() {
            for (at, req) in port.take_outbox() {
                self.mem.submit(i, req, at);
            }
            let (total, count) = port.take_latencies();
            self.mem.add_load_latencies(total, count);
        }
        self.mem.tick(now);
        for (i, port) in self.ports.iter_mut().enumerate() {
            for (ready, req) in self.mem.take_fills(i) {
                port.deliver(ready, req);
            }
        }
    }

    /// `true` when every SM retired all warps, every port is empty on both
    /// sides, and the memory system drained.
    pub fn is_finished(&self) -> bool {
        self.sms.iter().all(Sm::is_finished)
            && self.ports.iter().all(SmPort::is_idle)
            && self.mem.is_idle()
    }

    /// Runs to completion or `max_cycles`, returning aggregated results.
    /// `observer` is shown the GPU after every cycle; pass `&mut ()` to run
    /// unobserved.
    ///
    /// # Errors
    ///
    /// [`SimError::WatchdogTimeout`] when forward progress stops for a full
    /// watchdog window; [`SimError::InvariantViolation`] when the drain-time
    /// conservation audit fails.
    pub fn run(mut self, max_cycles: Cycle, observer: &mut impl Observer) -> SimResult<RunResult> {
        let record = observer.wants_events();
        for sm in &mut self.sms {
            sm.record_events(record);
        }
        while self.now < max_cycles && !self.is_finished() {
            self.step();
            observer.on_cycle(&self);
            self.watchdog_check()?;
        }
        self.finish(max_cycles)
    }

    /// Watchdog: progress = instructions issued + responses delivered.
    /// Sampled every 256 cycles to keep the cycle loop cheap.
    fn watchdog_check(&mut self) -> SimResult<()> {
        if self.now & 0xFF != 0 {
            return Ok(());
        }
        let progress =
            self.sms.iter().map(|s| s.stats().instructions).sum::<u64>() + self.mem.delivered();
        if progress != self.wd_last_count {
            self.wd_last_count = progress;
            self.wd_last_cycle = self.now;
            return Ok(());
        }
        let idle_cycles = self.now - self.wd_last_cycle;
        if idle_cycles >= DEFAULT_WATCHDOG_WINDOW {
            return Err(SimError::WatchdogTimeout {
                cycle: self.now,
                idle_cycles,
                diagnosis: self.diagnose(),
            });
        }
        Ok(())
    }

    /// Snapshot of who is stuck on what (attached to watchdog timeouts).
    fn diagnose(&self) -> DeadlockDiagnosis {
        let mut stalled_warps = Vec::new();
        let mut inflight_mshrs = Vec::new();
        for sm in &self.sms {
            stalled_warps.extend(sm.stall_report(self.now));
            inflight_mshrs.extend(sm.inflight_mshr_lines());
        }
        DeadlockDiagnosis {
            stalled_warps,
            inflight_mshrs,
            mem_in_flight: self.mem.in_flight(),
            mem_submitted: self.mem.submitted(),
            mem_delivered: self.mem.delivered(),
        }
    }

    fn finish(self, budget: Cycle) -> SimResult<RunResult> {
        let termination = if self.is_finished() {
            // The ledger only balances at drain; a budget-capped run still
            // legitimately has requests in flight.
            self.mem.audit(self.now)?;
            Termination::Drained
        } else {
            Termination::BudgetExhausted { budget }
        };
        Ok(self.into_result(termination))
    }

    fn into_result(mut self, termination: Termination) -> RunResult {
        let cycles = self.now;
        let mut sim = SimStats::default();
        let mut l1 = CacheStats::default();
        let mut prefetch = PrefetchStats::default();
        let mut energy = EnergyEvents::default();
        let mut per_pc: std::collections::BTreeMap<gpu_common::Pc, gpu_mem::l1::PcStats> =
            std::collections::BTreeMap::new();
        let scheduler = self
            .sms
            .first()
            .map_or_else(String::new, |s| s.scheduler_name().to_owned());
        let prefetcher = self
            .sms
            .first()
            .map_or_else(String::new, |s| s.prefetcher_name().to_owned());
        for sm in &mut self.sms {
            sim.add(sm.stats());
            l1.add(sm.cache_stats());
            for &(pc, st) in sm.per_pc_stats() {
                let agg = per_pc.entry(pc).or_default();
                agg.accesses += st.accesses;
                agg.hits += st.hits;
            }
            prefetch.add(&sm.finalize_prefetch_stats());
            energy.add(&sm.energy_events());
        }
        sim.cycles = cycles;
        energy.l2_accesses = self.mem.l2_accesses();
        energy.dram_accesses = self.mem.dram_accesses();
        RunResult {
            scheduler,
            prefetcher,
            kernel: self.kernel.name().to_owned(),
            cycles,
            timed_out: !termination.is_drained(),
            termination,
            faults: FaultCounters::default(),
            sim,
            l1,
            prefetch,
            mem: self.mem.stats(),
            energy,
            per_pc: per_pc.into_iter().collect(),
        }
    }
}

impl std::fmt::Debug for Gpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gpu")
            .field("kernel", &self.kernel.name())
            .field("sms", &self.sms.len())
            .field("now", &self.now)
            .field("cfg", &self.cfg.core.num_sms)
            .finish_non_exhaustive()
    }
}

/// A minimal loose-round-robin scheduler for this crate's unit tests; the
/// baseline-policy suite lives in `gpu-sched`.
#[cfg(test)]
#[derive(Debug, Clone, Default)]
pub(crate) struct SimpleRoundRobin {
    last: Option<u32>,
}

#[cfg(test)]
impl WarpScheduler for SimpleRoundRobin {
    fn name(&self) -> &'static str {
        "rr"
    }

    fn pick(
        &mut self,
        ready: &[crate::traits::ReadyWarp],
        _ctx: &crate::traits::SchedCtx,
    ) -> Option<gpu_common::WarpId> {
        if ready.is_empty() {
            return None;
        }
        let start = self.last.map_or(0, |l| l + 1);
        let pick = ready
            .iter()
            .find(|r| r.id.0 >= start)
            .unwrap_or(&ready[0])
            .id;
        self.last = Some(pick.0);
        Some(pick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::NullPrefetcher;
    use gpu_kernel::AddressPattern;

    fn small_gpu(kernel: Kernel) -> Gpu {
        let cfg = GpuConfig::small_test();
        Gpu::new(
            &cfg,
            kernel,
            &|_| Box::new(SimpleRoundRobin::default()),
            &|_| Box::new(NullPrefetcher),
        )
        .unwrap()
    }

    fn strided_kernel(iters: u64) -> Kernel {
        // Grid-stride streaming: warp w, iteration i touches line w + 16·i —
        // every access is to a fresh line (no aliasing, no reuse).
        Kernel::builder("strided")
            .load(AddressPattern::warp_strided(0, 128, 128 * 16, 4), &[])
            .alu(8, &[0])
            .iterations(iters)
            .build()
    }

    #[test]
    fn runs_to_completion() {
        let res = small_gpu(strided_kernel(4))
            .run(2_000_000, &mut ())
            .unwrap();
        assert!(!res.timed_out);
        // 16 warps × 2 instr × 4 iters.
        assert_eq!(res.sim.instructions, 16 * 2 * 4);
        assert_eq!(res.sim.loads, 16 * 4);
        assert!(res.cycles > 0);
        assert!(res.ipc() > 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = small_gpu(strided_kernel(6))
            .run(2_000_000, &mut ())
            .unwrap();
        let b = small_gpu(strided_kernel(6))
            .run(2_000_000, &mut ())
            .unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.sim, b.sim);
        assert_eq!(a.l1, b.l1);
    }

    #[test]
    fn shared_stream_kernel_hits_cache() {
        let k = Kernel::builder("shared")
            .load(AddressPattern::shared_stream(0, 0), &[])
            .alu(8, &[0])
            .iterations(8)
            .build();
        let res = small_gpu(k).run(2_000_000, &mut ()).unwrap();
        assert!(!res.timed_out);
        // All warps read the same address: one cold miss, rest hits/merges.
        assert!(
            res.l1.hit_rate() > 0.9,
            "hit rate {} too low",
            res.l1.hit_rate()
        );
        assert_eq!(res.l1.cold_misses, 1);
    }

    #[test]
    fn thrashing_kernel_misses() {
        // Strides far exceeding cache capacity with no reuse.
        let res = small_gpu(strided_kernel(8))
            .run(2_000_000, &mut ())
            .unwrap();
        assert!(
            res.l1.miss_rate() > 0.9,
            "miss rate {} too low",
            res.l1.miss_rate()
        );
        assert!(res.mem.bytes_to_sm > 0);
        assert!(res.mem.avg_load_latency() > 100.0);
    }

    #[test]
    fn timeout_reported() {
        let res = small_gpu(strided_kernel(50)).run(100, &mut ()).unwrap();
        assert!(res.timed_out);
        assert_eq!(
            res.termination,
            Termination::BudgetExhausted { budget: 100 }
        );
        assert_eq!(res.cycles, 100);
    }

    #[test]
    fn drained_run_reports_drained() {
        let res = small_gpu(strided_kernel(2))
            .run(2_000_000, &mut ())
            .unwrap();
        assert_eq!(res.termination, Termination::Drained);
    }

    #[test]
    fn invalid_config_is_typed_error() {
        let mut cfg = GpuConfig::small_test();
        cfg.l1.ways = 0;
        let err = Gpu::new(
            &cfg,
            strided_kernel(1),
            &|_| Box::new(SimpleRoundRobin::default()),
            &|_| Box::new(NullPrefetcher),
        )
        .err()
        .unwrap();
        assert_eq!(err.class(), "config-validation");
    }

    /// A scheduler that never picks a warp: nothing ever issues.
    struct NeverPick;

    impl WarpScheduler for NeverPick {
        fn name(&self) -> &'static str {
            "never"
        }

        fn pick(
            &mut self,
            _ready: &[crate::traits::ReadyWarp],
            _ctx: &crate::traits::SchedCtx,
        ) -> Option<gpu_common::WarpId> {
            None
        }
    }

    #[test]
    fn a_run_that_stops_progressing_trips_the_watchdog_with_diagnosis() {
        let gpu = Gpu::new(
            &GpuConfig::small_test(),
            strided_kernel(4),
            &|_| Box::new(NeverPick),
            &|_| Box::new(NullPrefetcher),
        )
        .unwrap();
        let err = gpu.run(2_000_000, &mut ()).expect_err("must deadlock");
        let SimError::WatchdogTimeout {
            idle_cycles,
            diagnosis,
            ..
        } = &err
        else {
            panic!("expected watchdog timeout, got {err:?}");
        };
        // The watchdog samples every 256 cycles.
        assert!(
            (DEFAULT_WATCHDOG_WINDOW..DEFAULT_WATCHDOG_WINDOW + 256).contains(idle_cycles),
            "{idle_cycles}"
        );
        assert_eq!(diagnosis.stalled_warps.len(), 16);
        assert!(diagnosis
            .stalled_warps
            .iter()
            .all(|w| w.waiting_on == gpu_common::StallReason::NeverScheduled));
        assert_eq!((diagnosis.mem_submitted, diagnosis.mem_delivered), (0, 0));
        assert_eq!(diagnosis.mem_in_flight, 0);
    }

    #[test]
    fn unanswered_loads_are_named_in_the_stall_report() {
        // One SM whose port nothing routes: its misses never come back.
        let cfg = GpuConfig::small_test();
        let mut sm = Sm::new(
            SmId(0),
            &cfg,
            Arc::new(strided_kernel(4)),
            Box::new(SimpleRoundRobin::default()),
            Box::new(NullPrefetcher),
        );
        let mut port = SmPort::new();
        for now in 0..2_000 {
            sm.tick(now, &mut port);
        }
        assert!(sm
            .stall_report(2_000)
            .iter()
            .any(|w| w.waiting_on == gpu_common::StallReason::PendingLoad));
        assert!(!sm.inflight_mshr_lines().is_empty());
    }

    #[test]
    fn speedup_over() {
        let a = small_gpu(strided_kernel(4))
            .run(2_000_000, &mut ())
            .unwrap();
        let b = small_gpu(strided_kernel(4))
            .run(2_000_000, &mut ())
            .unwrap();
        assert!((a.speedup_over(&b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn energy_events_populated() {
        let res = small_gpu(strided_kernel(4))
            .run(2_000_000, &mut ())
            .unwrap();
        assert!(res.energy.alu_ops > 0);
        assert!(res.energy.l1_accesses > 0);
        assert!(res.energy.l2_accesses > 0);
        assert!(res.energy.dram_accesses > 0);
        assert!(res.energy.regfile_accesses > 0);
    }

    #[test]
    fn dual_issue_raises_ipc_on_compute_kernels() {
        let compute = || {
            Kernel::builder("alu-heavy")
                .alu(8, &[])
                .alu(8, &[])
                .alu(8, &[0])
                .alu(8, &[1])
                .iterations(64)
                .build()
        };
        let single = small_gpu(compute()).run(2_000_000, &mut ()).unwrap();
        let mut cfg = GpuConfig::small_test();
        cfg.core.issue_width = 2;
        let dual = Gpu::new(
            &cfg,
            compute(),
            &|_| Box::new(SimpleRoundRobin::default()),
            &|_| Box::new(NullPrefetcher),
        )
        .unwrap()
        .run(2_000_000, &mut ())
        .unwrap();
        assert!(!dual.timed_out);
        assert_eq!(single.sim.instructions, dual.sim.instructions);
        assert!(
            dual.cycles < single.cycles,
            "dual {} vs single {}",
            dual.cycles,
            single.cycles
        );
        assert!(dual.ipc() > 1.05, "dual IPC {:.3}", dual.ipc());
    }

    #[test]
    fn block_waves_refill_slots() {
        let mut cfg = GpuConfig::small_test();
        cfg.core.waves_per_slot = 3;
        let k = strided_kernel(4);
        let gpu = Gpu::new(&cfg, k, &|_| Box::new(SimpleRoundRobin::default()), &|_| {
            Box::new(NullPrefetcher)
        })
        .unwrap();
        let res = gpu.run(2_000_000, &mut ()).unwrap();
        assert!(!res.timed_out);
        // 16 warps × 3 waves × 2 instructions × 4 iterations.
        assert_eq!(res.sim.instructions, 16 * 3 * 2 * 4);
        // Fresh blocks touch fresh data: loads triple.
        assert_eq!(res.sim.loads, 16 * 3 * 4);
    }

    #[test]
    fn launch_skew_delays_warps() {
        let mut cfg = GpuConfig::small_test();
        cfg.core.launch_skew = 50;
        let skewed = Gpu::new(
            &cfg,
            strided_kernel(4),
            &|_| Box::new(SimpleRoundRobin::default()),
            &|_| Box::new(NullPrefetcher),
        )
        .unwrap()
        .run(2_000_000, &mut ())
        .unwrap();
        let flat = small_gpu(strided_kernel(4))
            .run(2_000_000, &mut ())
            .unwrap();
        assert!(!skewed.timed_out);
        assert!(
            skewed.cycles > flat.cycles,
            "skewed {} vs flat {}",
            skewed.cycles,
            flat.cycles
        );
        assert_eq!(skewed.sim.instructions, flat.sim.instructions);
    }

    #[test]
    fn observed_run_records_pipeline_events() {
        use crate::trace::{IssueKind, TraceEvent};
        struct Trace(Vec<TraceEvent>);
        impl Observer for Trace {
            fn wants_events(&self) -> bool {
                true
            }
            fn on_cycle(&mut self, gpu: &Gpu) {
                for sm in gpu.sms() {
                    self.0.extend_from_slice(sm.events());
                }
            }
        }
        let mut obs = Trace(Vec::new());
        let res = small_gpu(strided_kernel(4))
            .run(2_000_000, &mut obs)
            .unwrap();
        let trace = obs.0;
        assert!(!res.timed_out);
        assert!(!trace.is_empty());
        // Cycles are non-decreasing.
        assert!(trace.windows(2).all(|w| w[0].cycle() <= w[1].cycle()));
        // Every instruction was recorded.
        let issues = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::Issue { .. }))
            .count() as u64;
        assert_eq!(issues, res.sim.instructions);
        let loads = trace
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::Issue {
                        kind: IssueKind::Load,
                        ..
                    }
                )
            })
            .count() as u64;
        assert_eq!(loads, res.sim.loads);
        // Each load produced exactly one head L1 access event.
        let accesses = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::L1Access { .. }))
            .count() as u64;
        assert_eq!(accesses, loads);
    }

    #[test]
    fn barrier_synchronizes_warps() {
        // A load with warp-dependent latency followed by a barrier: no warp
        // may run ahead into iteration i+1 before all finish iteration i.
        let k = Kernel::builder("sync")
            .load(AddressPattern::warp_strided(0, 4096, 1 << 20, 4), &[])
            .alu(8, &[0])
            .barrier(&[1])
            .alu(4, &[1])
            .iterations(4)
            .build();
        let res = small_gpu(k).run(2_000_000, &mut ()).unwrap();
        assert!(!res.timed_out, "barrier must not deadlock");
        assert_eq!(res.sim.instructions, 16 * 4 * 4);
    }

    #[test]
    fn barrier_with_waves_does_not_deadlock() {
        let mut cfg = GpuConfig::small_test();
        cfg.core.waves_per_slot = 2;
        let k = Kernel::builder("sync")
            .alu(8, &[])
            .barrier(&[0])
            .alu(4, &[0])
            .iterations(3)
            .build();
        let gpu = Gpu::new(&cfg, k, &|_| Box::new(SimpleRoundRobin::default()), &|_| {
            Box::new(NullPrefetcher)
        })
        .unwrap();
        let res = gpu.run(2_000_000, &mut ()).unwrap();
        assert!(!res.timed_out);
        assert_eq!(res.sim.instructions, 16 * 2 * 3 * 3);
    }

    #[test]
    fn stores_flow_through() {
        let k = Kernel::builder("st")
            .store(AddressPattern::warp_strided(0, 4096, 4096 * 16, 4), &[])
            .iterations(3)
            .build();
        let res = small_gpu(k).run(2_000_000, &mut ()).unwrap();
        assert!(!res.timed_out);
        assert_eq!(res.sim.stores, 16 * 3);
        assert!(res.energy.dram_accesses > 0);
    }
}
