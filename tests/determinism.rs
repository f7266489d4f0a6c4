//! Cross-crate integration: bit-exact determinism of full simulations.

// Integration tests may use the ergonomic panicking forms freely.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use apres::common::config::DramRowPolicy;
use apres::common::hash::{hash_hex, ContentHasher};
use apres::sm::codec::encode;
use apres::{
    AddressPattern, Benchmark, Gpu, GpuConfig, Observer, PrefetcherChoice, SchedulerChoice,
    Simulation, TraceEvent,
};

fn cfg() -> GpuConfig {
    let mut c = GpuConfig::paper_baseline();
    c.core.num_sms = 2;
    c
}

fn run_once(b: Benchmark, s: SchedulerChoice, p: PrefetcherChoice) -> apres::RunResult {
    Simulation::new(b.kernel_scaled(8))
        .config(cfg())
        .scheduler(s)
        .prefetcher(p)
        .max_cycles(5_000_000)
        .run()
        .expect("determinism workloads run to completion")
}

#[test]
fn every_policy_combination_is_deterministic() {
    let schedulers = [
        SchedulerChoice::Lrr,
        SchedulerChoice::Gto,
        SchedulerChoice::TwoLevel,
        SchedulerChoice::Ccws,
        SchedulerChoice::Mascar,
        SchedulerChoice::Pa,
        SchedulerChoice::Laws,
    ];
    let prefetchers = [
        PrefetcherChoice::None,
        PrefetcherChoice::Str,
        PrefetcherChoice::Sld,
        PrefetcherChoice::Sap,
    ];
    for s in schedulers {
        for p in prefetchers {
            let a = run_once(Benchmark::Spmv, s, p);
            let b = run_once(Benchmark::Spmv, s, p);
            assert_eq!(a.cycles, b.cycles, "{s:?}+{p:?} cycles differ");
            assert_eq!(a.sim, b.sim, "{s:?}+{p:?} sim stats differ");
            assert_eq!(a.l1, b.l1, "{s:?}+{p:?} cache stats differ");
            assert_eq!(a.prefetch, b.prefetch, "{s:?}+{p:?} prefetch stats differ");
            assert_eq!(a.mem, b.mem, "{s:?}+{p:?} memory stats differ");
        }
    }
}

#[test]
fn all_benchmarks_complete_under_apres() {
    for b in Benchmark::ALL {
        let r = run_once(b, SchedulerChoice::Laws, PrefetcherChoice::Sap);
        assert!(!r.timed_out, "{} timed out", b.label());
        assert!(r.ipc() > 0.0, "{} produced no work", b.label());
        // 2 SMs × 48 warps × block waves × body × 8 iterations.
        let waves = u64::from(cfg().core.waves_per_slot);
        let expected = 2 * 48 * waves * b.kernel_scaled(8).dynamic_len();
        assert_eq!(r.sim.instructions, expected, "{}", b.label());
    }
}

#[test]
fn different_seeds_change_behaviour_of_noisy_kernels() {
    let base = Benchmark::Km.kernel_scaled(8);
    let r1 = Simulation::new(base.clone())
        .config(cfg())
        .run()
        .expect("KM runs");
    // Rebuild with a different seed through the builder API.
    let k2 = apres::Kernel::builder("KM-reseeded")
        .seed(999)
        .at_pc(0xE8)
        .load(base.pattern(apres::kernel::LoadSlot(0)).clone(), &[])
        .alu(8, &[0])
        .alu(4, &[1])
        .iterations(8)
        .build();
    let r2 = Simulation::new(k2)
        .config(cfg())
        .run()
        .expect("reseeded KM runs");
    assert_ne!(
        (r1.cycles, r1.l1.hits),
        (r2.cycles, r2.l1.hits),
        "noise must depend on the kernel seed"
    );
}

/// Records every pipeline event and reads every counter each SM exposes,
/// every cycle.
#[derive(Default)]
struct ReadEverything {
    cycles: u64,
    events: Vec<TraceEvent>,
    counter_sum: u64,
}

impl Observer for ReadEverything {
    fn wants_events(&self) -> bool {
        true
    }

    fn on_cycle(&mut self, gpu: &Gpu) {
        self.cycles += 1;
        for sm in gpu.sms() {
            self.events.extend_from_slice(sm.events());
            let per_pc: u64 = sm.per_pc_stats().iter().map(|(_, s)| s.accesses).sum();
            self.counter_sum += sm.stats().instructions
                + sm.cache_stats().accesses
                + per_pc
                + sm.prefetch_stats().issued
                + sm.energy_events().l1_accesses;
        }
    }
}

#[test]
fn observing_a_run_never_changes_its_result() {
    const BUDGET: u64 = 3_000_000;
    for bench in [Benchmark::Km, Benchmark::Bfs] {
        let sim = Simulation::new(bench.kernel_scaled(4))
            .config(GpuConfig::small_test())
            .apres()
            .max_cycles(BUDGET);
        let plain = sim.run().expect("plain run");
        let mut observer = ReadEverything::default();
        let observed = sim
            .build()
            .expect("build")
            .run(BUDGET, &mut observer)
            .expect("observed run");
        let case = bench.label();
        assert_eq!(observed, plain, "{case}");
        assert!(plain.termination.is_drained(), "{case}");
        assert_eq!(observer.cycles, plain.cycles, "{case}");
        assert!(!observer.events.is_empty(), "{case}");
        assert!(observer.counter_sum > 0, "{case}");
    }
}

/// A configuration that stresses one of the ways a memoised stall cycle
/// could go stale: MSHR refusals (one MSHR with one merge slot), bypass
/// predictor updates, launch skew, dual issue, block-wave replacement and
/// barriers. The last three pin orders
/// the bookkeeping containers must keep: DRAM fills that return out of
/// order (FR-FCFS row hits), L2 MSHR retries, and a full 64-warp ready
/// mask. Every case but `barrier` runs KM for `iterations` (`one-mshr`
/// for one).
fn stall_case(case: &str, iterations: u64) -> (GpuConfig, apres::Kernel) {
    let mut cfg = GpuConfig::small_test();
    let mut kernel = Benchmark::Km.kernel_scaled(iterations);
    match case {
        "one-mshr" => {
            // One MSHR serialises every miss: one iteration already runs
            // ~230 k cycles.
            kernel = Benchmark::Km.kernel_scaled(1);
            cfg.l1.mshrs = 1;
            cfg.l1.mshr_merge_slots = 1;
        }
        "bypass" => cfg.l1.bypass = true,
        "launch-skew" => cfg.core.launch_skew = 16,
        "dual-issue" => cfg.core.issue_width = 2,
        "waves" => cfg.core.waves_per_slot = 2,
        "barrier" => {
            kernel = apres::Kernel::builder("sync")
                .load(AddressPattern::warp_strided(0, 4096, 1 << 20, 4), &[])
                .alu(8, &[0])
                .barrier(&[1])
                .alu(4, &[1])
                .iterations(4)
                .build();
        }
        "frfcfs" => cfg.dram.row_policy = DramRowPolicy::FrFcfsRowBuffer,
        "l2-starved" => cfg.l2.mshrs = 2,
        "64-warps" => cfg.core.warps_per_sm = 64,
        other => panic!("unknown case {other}"),
    }
    (cfg, kernel)
}

/// Hash of the codec encodings of `case`'s runs under `policies`, in order.
fn stall_case_hash(
    case: &str,
    iterations: u64,
    policies: &[(SchedulerChoice, PrefetcherChoice)],
) -> String {
    let (cfg, kernel) = stall_case(case, iterations);
    let mut hasher = ContentHasher::new();
    for &(s, p) in policies {
        let r = Simulation::new(kernel.clone())
            .config(cfg.clone())
            .scheduler(s)
            .prefetcher(p)
            .run()
            .expect("stall case runs");
        assert!(r.termination.is_drained(), "{case} {s:?}+{p:?}");
        hasher.update(encode(&r).to_compact().as_bytes());
    }
    hash_hex(hasher.finish())
}

#[test]
fn stall_memos_reproduce_pinned_results() {
    // Hash of the codec encodings of the case's runs under LRR, LAWS+SAP
    // and CCWS+STR, pinned from the simulator before it memoised stalled
    // issue slots and MSHR refusals.
    const PINNED: [(&str, &str); 9] = [
        ("one-mshr", "44b07e7d6529d46952d2efdb8c72bd87"),
        ("bypass", "83fd4d577aca972494d4fb3ee42c800a"),
        ("launch-skew", "0f09aed7da0567d6e9b3cac353107a1c"),
        ("dual-issue", "18f9d168c37d7b0e9b0dfb13aa6aac4c"),
        ("waves", "89d813c3e813150801457311a489a666"),
        ("barrier", "85a11feba8a04ee8df9065d8cbf6fc16"),
        ("frfcfs", "b24afe0ed63333387d412e9695eafdf2"),
        ("l2-starved", "c71e20f208254cb40bfe8b8185d09d2e"),
        ("64-warps", "19a63dfa9958678249dcbd61a59c7d70"),
    ];
    let policies = [
        (SchedulerChoice::Lrr, PrefetcherChoice::None),
        (SchedulerChoice::Laws, PrefetcherChoice::Sap),
        (SchedulerChoice::Ccws, PrefetcherChoice::Str),
    ];
    for (case, pinned) in PINNED {
        assert_eq!(stall_case_hash(case, 3, &policies), pinned, "{case}");
    }
}

#[test]
fn every_scheduler_reproduces_pinned_results() {
    // The schedulers the test above leaves out, CCWS and LAWS without a
    // prefetcher, and SLD, at one KM iteration, pinned before CCWS and
    // LAWS moved to flat per-warp tables and the ready entry shrank to 8
    // bytes.
    const PINNED: [(&str, &str); 3] = [
        ("one-mshr", "e35046ec2d9e0c0b68f611d9c3e18ed9"),
        ("barrier", "65156495515ffa05667cdc22e0b01053"),
        ("64-warps", "e8b2f99d5b2d901e070a7d35dbbdd098"),
    ];
    let policies = [
        (SchedulerChoice::Gto, PrefetcherChoice::None),
        (SchedulerChoice::TwoLevel, PrefetcherChoice::None),
        (SchedulerChoice::Mascar, PrefetcherChoice::None),
        (SchedulerChoice::Pa, PrefetcherChoice::None),
        (SchedulerChoice::Ccws, PrefetcherChoice::None),
        (SchedulerChoice::Laws, PrefetcherChoice::None),
        (SchedulerChoice::Lrr, PrefetcherChoice::Sld),
    ];
    for (case, pinned) in PINNED {
        assert_eq!(stall_case_hash(case, 1, &policies), pinned, "{case}");
    }
}
