//! The substrate microbenchmarks — tag store, MSHR file, coalescer and
//! address-pattern sampler — as fixed-work loops.
//!
//! Two callers share these loops. The `simulator` bench reports each one
//! as ns/iteration. `perf_trajectory` runs all of them as its calibration
//! loop and gates the pinned suite's wall-clock divided by the
//! calibration's, timed in the same process: both scale with the host's
//! speed, so the ratio tracks the cycle loop rather than the machine
//! (METHODOLOGY.md).

use gpu_common::config::{CacheConfig, Replacement};
use gpu_common::{Addr, LineAddr, Pc, SmId, WarpId};
use gpu_kernel::{AddressPattern, PatternSampler};
use gpu_mem::cache::TagStore;
use gpu_mem::coalesce::coalesce;
use gpu_mem::mshr::MshrFile;
use gpu_mem::request::MemRequest;
use std::hint::black_box;

/// One substrate microbenchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Microbench {
    /// L1 tag-store lookup over 1024 lines, filling on every miss.
    TagStore,
    /// MSHR registration over 48 lines, completing every third one.
    Mshr,
    /// Coalescing 32 lane addresses into 128-byte lines.
    Coalesce,
    /// Sampling a warp-strided address pattern for 32 lanes.
    PatternStrided,
    /// Sampling an irregular address pattern for 16 lanes.
    PatternIrregular,
}

impl Microbench {
    /// Every microbenchmark, in report order.
    pub const ALL: [Microbench; 5] = [
        Microbench::TagStore,
        Microbench::Mshr,
        Microbench::Coalesce,
        Microbench::PatternStrided,
        Microbench::PatternIrregular,
    ];

    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            Microbench::TagStore => "tagstore-touch-fill",
            Microbench::Mshr => "mshr-register-complete",
            Microbench::Coalesce => "coalesce-32-lanes",
            Microbench::PatternStrided => "pattern-sample-strided",
            Microbench::PatternIrregular => "pattern-sample-irregular",
        }
    }

    /// Iterations of one calibration pass, sized so that each loop takes
    /// about 0.1 s on a 2-vCPU x86-64 host: no single path dominates the
    /// calibration, and a half-second pass averages out short bursts of
    /// host noise.
    pub fn iterations(self) -> u64 {
        match self {
            Microbench::TagStore => 3_000_000,
            Microbench::Mshr => 2_000_000,
            Microbench::Coalesce => 160_000,
            Microbench::PatternStrided => 400_000,
            Microbench::PatternIrregular => 1_500_000,
        }
    }

    /// Runs `iters` iterations of the loop from fresh state.
    pub fn run(self, iters: u64) {
        match self {
            Microbench::TagStore => {
                let mut tags = TagStore::new(&l1_config());
                let mut i = 0u64;
                for _ in 0..iters {
                    i = i.wrapping_add(97);
                    let line = LineAddr(i % 1024);
                    if !tags.touch(black_box(line)) {
                        tags.fill(line, false, i);
                    }
                }
            }
            Microbench::Mshr => {
                let mut mshrs = MshrFile::new(64, 8);
                for j in 1..=iters {
                    let line = LineAddr(j % 48);
                    let warp = WarpId((j % 48) as u32);
                    let req = MemRequest::load(line, SmId(0), warp, Pc(0x10), 0, j, j);
                    black_box(mshrs.register(black_box(req)));
                    if j.is_multiple_of(3) {
                        mshrs.complete(line);
                    }
                }
            }
            Microbench::Coalesce => {
                let addrs: Vec<Addr> = (0..32).map(|l| Addr::new(l * 136)).collect();
                for _ in 0..iters {
                    black_box(coalesce(black_box(&addrs), 128));
                }
            }
            Microbench::PatternStrided => {
                let sampler = PatternSampler::new(7, 32);
                let p = AddressPattern::warp_strided(0, 4352, 0, 136).with_wrap(2 << 20);
                for k in 1..=iters {
                    black_box(sampler.addresses(black_box(&p), 0, (k % 48) as u32, k, 32));
                }
            }
            Microbench::PatternIrregular => {
                let sampler = PatternSampler::new(7, 32);
                let p = AddressPattern::irregular(0, 1 << 22, 1 << 16, 0.8);
                for m in 1..=iters {
                    black_box(sampler.addresses(black_box(&p), 0, (m % 48) as u32, m, 16));
                }
            }
        }
    }
}

/// One calibration pass: every microbenchmark at its
/// [`Microbench::iterations`].
pub fn calibration_pass() {
    for bench in Microbench::ALL {
        bench.run(bench.iterations());
    }
}

/// The Table III L1 geometry the tag-store loop exercises.
fn l1_config() -> CacheConfig {
    CacheConfig {
        capacity_bytes: 32 * 1024,
        ways: 8,
        line_bytes: 128,
        mshrs: 64,
        mshr_merge_slots: 8,
        hit_latency: 28,
        replacement: Replacement::Lru,
        bypass: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_loop_runs() {
        for bench in Microbench::ALL {
            bench.run(100);
        }
    }
}
