//! Property-based integration tests: random small kernels through the full
//! simulator must preserve every accounting invariant under every policy
//! and stay bit-exactly deterministic, and random valid configurations
//! must drain or fail with a typed error.

use apres::common::check::{run_cases, Gen};
use apres::common::config::DramRowPolicy;
use apres::{
    AddressPattern, GpuConfig, Kernel, PrefetcherChoice, RunResult, SchedulerChoice, SimError,
    Simulation,
};

/// One random address pattern with bounded footprints.
fn pattern(g: &mut Gen) -> AddressPattern {
    let base = g.range(0, 3) * 0x10_0000;
    match g.range(0, 2) {
        0 => AddressPattern::SharedStream {
            base,
            iter_stride: g.range(1, 511) as i64,
            noise: g.prob() / 2.0,
            region_bytes: 64 * 1024,
        },
        1 => {
            let magnitude = g.range(64, 8192) as i64;
            AddressPattern::WarpStrided {
                base,
                warp_stride: if g.chance(0.5) { magnitude } else { -magnitude },
                iter_stride: g.range(0, 4095) as i64,
                lane_stride: *g.choose(&[4u64, 64, 136]),
                wrap_bytes: if g.chance(0.5) {
                    None
                } else {
                    Some(g.range(64, 4096) * 1024)
                },
                noise: g.prob() / 2.0,
            }
        }
        _ => AddressPattern::irregular(
            base,
            g.range(16, 511) * 1024,
            g.range(1, 63) * 1024,
            g.prob(),
        ),
    }
}

/// A random 2–6 instruction kernel: loads with generated patterns, a
/// dependent ALU chain, an optional store.
fn kernel(g: &mut Gen) -> Kernel {
    kernel_of(g, 5)
}

/// [`kernel`] with 1 to `max_iterations` loop iterations.
fn kernel_of(g: &mut Gen, max_iterations: u64) -> Kernel {
    let n = g.usize_range(1, 2);
    let iterations = g.range(1, max_iterations);
    let seed = g.range(0, 998);
    let with_store = g.chance(0.5);
    let mut b = Kernel::builder("prop").seed(seed);
    for _ in 0..n {
        b = b.load(pattern(g), &[]);
    }
    let deps: Vec<usize> = (0..n).collect();
    b = b.alu(8, &deps);
    if with_store {
        b = b.store(AddressPattern::warp_strided(0x40_0000, 128, 4096, 4), &[n]);
    }
    b.iterations(iterations).build()
}

fn check(r: &RunResult, tag: &str) -> Result<(), String> {
    if r.timed_out {
        return Err(format!("{tag}: timed out"));
    }
    if r.l1.hits + r.l1.misses() != r.l1.accesses {
        return Err(format!("{tag}: hits+misses != accesses"));
    }
    if r.l1.hit_after_hit + r.l1.hit_after_miss != r.l1.hits {
        return Err(format!("{tag}: hit split broken"));
    }
    if r.mem.completed_loads != r.sim.loads {
        return Err(format!(
            "{tag}: completed loads {} != issued loads {}",
            r.mem.completed_loads, r.sim.loads
        ));
    }
    if r.sim.loads + r.sim.stores > r.sim.instructions {
        return Err(format!("{tag}: instruction mix inconsistent"));
    }
    // Per-PC stats are consistent with the aggregate.
    let pc_acc: u64 = r.per_pc.iter().map(|(_, s)| s.accesses).sum();
    let pc_hits: u64 = r.per_pc.iter().map(|(_, s)| s.hits).sum();
    if pc_acc != r.l1.accesses {
        return Err(format!("{tag}: per-PC access sum"));
    }
    if pc_hits != r.l1.hits {
        return Err(format!("{tag}: per-PC hit sum"));
    }
    Ok(())
}

#[test]
fn random_kernels_preserve_invariants() {
    run_cases(24, |_, g| {
        let kernel = kernel(g);
        let mut cfg = GpuConfig::small_test();
        cfg.core.warps_per_sm = 8;
        for (s, p) in [
            (SchedulerChoice::Lrr, PrefetcherChoice::None),
            (SchedulerChoice::Laws, PrefetcherChoice::Sap),
            (SchedulerChoice::Ccws, PrefetcherChoice::Str),
        ] {
            let r = Simulation::new(kernel.clone())
                .config(cfg.clone())
                .scheduler(s)
                .prefetcher(p)
                .max_cycles(2_000_000)
                .run()
                .map_err(|e| format!("{s:?}+{p:?}: unexpected SimError [{}] {e}", e.class()))?;
            check(&r, &format!("{s:?}+{p:?}"))?;
        }
        Ok(())
    });
}

#[test]
fn random_kernels_deterministic() {
    run_cases(24, |_, g| {
        let kernel = kernel(g);
        let cfg = GpuConfig::small_test();
        let run = || {
            Simulation::new(kernel.clone())
                .config(cfg.clone())
                .apres()
                .max_cycles(2_000_000)
                .run()
                .map_err(|e| format!("unexpected SimError [{}] {e}", e.class()))
        };
        let a = run()?;
        let b = run()?;
        if a.cycles != b.cycles {
            return Err(format!("cycles differ: {} vs {}", a.cycles, b.cycles));
        }
        if a.l1 != b.l1 {
            return Err("cache stats differ".into());
        }
        if a.per_pc != b.per_pc {
            return Err("per-PC stats differ".into());
        }
        Ok(())
    });
}

/// A random configuration that [`GpuConfig::validate`] accepts: 1–4 SMs,
/// 1–8 L1 MSHRs with 1–2 merge slots, 1–4 L2 MSHRs per bank, 1–3
/// partitions, NoC latency 0–8, issue width 1–4, either DRAM row policy.
/// Draws that `validate` refuses (an L2 that does not split into
/// power-of-two banks) are drawn again.
fn valid_config(g: &mut Gen) -> GpuConfig {
    loop {
        let mut cfg = GpuConfig::small_test();
        cfg.core.num_sms = g.usize_range(1, 4);
        cfg.core.warps_per_sm = g.usize_range(1, 8);
        cfg.core.issue_width = g.usize_range(1, 4);
        cfg.l1.mshrs = g.usize_range(1, 8);
        cfg.l1.mshr_merge_slots = g.usize_range(1, 2);
        cfg.l2.mshrs = g.usize_range(1, 4);
        cfg.l2.capacity_bytes = *g.choose(&[48, 64, 96]) * 1024;
        cfg.dram.partitions = g.usize_range(1, 3);
        cfg.dram.row_policy = *g.choose(&[DramRowPolicy::Uniform, DramRowPolicy::FrFcfsRowBuffer]);
        cfg.noc.latency = g.range(0, 8);
        if cfg.validate().is_ok() {
            return cfg;
        }
    }
}

/// Runs a random one-iteration kernel on `cfg` twice: each run must drain
/// with its invariants intact or fail with a typed error, never panic,
/// and the second run must return exactly what the first did. A typed
/// error must not be a broken conservation ledger: every drained run's
/// requests balance.
fn drains_or_fails_typed_twice(g: &mut Gen, cfg: GpuConfig) -> Result<(), String> {
    let kernel = kernel_of(g, 1);
    let (s, p) = *g.choose(&[
        (SchedulerChoice::Lrr, PrefetcherChoice::None),
        (SchedulerChoice::Laws, PrefetcherChoice::Sap),
        (SchedulerChoice::Gto, PrefetcherChoice::Str),
    ]);
    let run = || {
        std::panic::catch_unwind(|| {
            Simulation::new(kernel.clone())
                .config(cfg.clone())
                .scheduler(s)
                .prefetcher(p)
                .max_cycles(4_000_000)
                .run()
        })
        .map_err(|_| format!("{s:?}+{p:?} panicked on {cfg:?}"))
    };
    let first = run()?;
    match &first {
        Ok(r) => check(r, &format!("{s:?}+{p:?} on {cfg:?}"))?,
        Err(e @ SimError::InvariantViolation { .. }) => {
            return Err(format!("{s:?}+{p:?} on {cfg:?}: {e}"));
        }
        Err(e) => eprintln!("typed error [{}] on {cfg:?}: {e}", e.class()),
    }
    if run()? != first {
        return Err(format!("{s:?}+{p:?} on {cfg:?}: a second run differs"));
    }
    Ok(())
}

#[test]
fn random_valid_configs_drain_or_fail_typed() {
    run_cases(48, |_, g| {
        let cfg = valid_config(g);
        drains_or_fails_typed_twice(g, cfg)
    });
}
