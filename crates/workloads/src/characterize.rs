//! Per-static-load characterisation (regenerates Table I).
//!
//! Replays a kernel's coalesced access stream in loose-round-robin order
//! (iteration-major, warp-minor — the order a baseline LRR scheduler
//! produces) through a standalone L1 tag store, and computes per PC:
//!
//! * **%Load** — the load's share of all coalesced memory references;
//! * **#L/#R** — unique cache lines ÷ references (inter-warp reuse; small
//!   values mean an ideal cache would hit almost always);
//! * **Miss rate** — under the configured L1 (32 KB baseline);
//! * **Stride / %Stride** — the dominant inter-warp stride
//!   (Δaddress ÷ Δwarp-ID between consecutive accesses by the same static
//!   load) and the fraction of accesses following it.

use gpu_common::config::GpuConfig;
use gpu_common::{Addr, LineAddr, Pc, WarpId};
use gpu_kernel::{Kernel, Op, PatternSampler};
use gpu_mem::cache::TagStore;
use gpu_mem::coalesce::coalesce;
use std::collections::{BTreeMap, BTreeSet};

/// Table I row for one static load.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadProfile {
    /// Static PC.
    pub pc: Pc,
    /// Fraction of all coalesced references from this load (%Load).
    pub pct_load: f64,
    /// Unique lines per reference (#L/#R).
    pub lines_per_ref: f64,
    /// L1 miss rate of this load under the configured cache.
    pub miss_rate: f64,
    /// Most frequent inter-warp stride in bytes.
    pub stride: i64,
    /// Fraction of stride samples equal to the dominant stride (%Stride).
    pub pct_stride: f64,
    /// Total coalesced references.
    pub refs: u64,
}

#[derive(Default)]
struct PcAccum {
    refs: u64,
    misses: u64,
    lines: BTreeSet<LineAddr>,
    strides: BTreeMap<i64, u64>,
    stride_samples: u64,
    last: Option<(WarpId, Addr)>,
}

/// Characterises every global load of `kernel` on SM 0 under `cfg`'s L1.
///
/// `iters` overrides the kernel's iteration count (`None` = kernel
/// default). Warps access in LRR order, matching the measurement setup of
/// Section III-B.
pub fn characterize(kernel: &Kernel, cfg: &GpuConfig, iters: Option<u64>) -> Vec<LoadProfile> {
    let iters = iters.unwrap_or_else(|| kernel.iterations());
    let warps = cfg.core.warps_per_sm as u32;
    let sampler = PatternSampler::new(kernel.seed(), cfg.core.warp_size as u32);
    let mut tags = TagStore::new(&cfg.l1);
    let mut per_pc: BTreeMap<Pc, PcAccum> = BTreeMap::new();
    let mut total_refs: u64 = 0;

    for iter in 0..iters {
        for warp in 0..warps {
            for instr in kernel.body() {
                let Op::LoadGlobal { slot } = instr.op else {
                    continue;
                };
                let lanes = instr.active_lanes.unwrap_or(cfg.core.warp_size as u32);
                let addrs = sampler.addresses(kernel.pattern(slot), 0, warp, iter, lanes);
                let lines = coalesce(&addrs, cfg.l1.line_bytes);
                let acc = per_pc.entry(instr.pc).or_default();
                // Inter-warp stride from the lowest-lane address.
                if let Some((pw, pa)) = acc.last {
                    let dw = i64::from(warp) - i64::from(pw.0);
                    if dw != 0 {
                        let da = addrs[0].0 as i64 - pa.0 as i64;
                        if da % dw == 0 {
                            *acc.strides.entry(da / dw).or_insert(0) += 1;
                        }
                        // Non-integral deltas still count as samples (they
                        // dilute %Stride) but can never be the dominant
                        // stride.
                        acc.stride_samples += 1;
                    }
                }
                acc.last = Some((WarpId(warp), addrs[0]));
                for line in lines {
                    total_refs += 1;
                    acc.refs += 1;
                    acc.lines.insert(line);
                    let hit = tags.touch(line);
                    if !hit {
                        acc.misses += 1;
                        tags.fill(line, false, 0);
                    }
                }
            }
        }
    }

    let mut out: Vec<LoadProfile> = per_pc
        .into_iter()
        .map(|(pc, a)| {
            let (stride, count) = a
                .strides
                .iter()
                // Deterministic tie-break: highest count, then smallest
                // stride value (irregular loads tie at count 1 a lot).
                .max_by_key(|(s, c)| (**c, std::cmp::Reverse(**s)))
                .map(|(s, c)| (*s, *c))
                .unwrap_or((0, 0));
            LoadProfile {
                pc,
                pct_load: if total_refs == 0 {
                    0.0
                } else {
                    a.refs as f64 / total_refs as f64
                },
                lines_per_ref: if a.refs == 0 {
                    0.0
                } else {
                    a.lines.len() as f64 / a.refs as f64
                },
                miss_rate: if a.refs == 0 {
                    0.0
                } else {
                    a.misses as f64 / a.refs as f64
                },
                stride,
                pct_stride: if a.stride_samples == 0 {
                    0.0
                } else {
                    count as f64 / a.stride_samples as f64
                },
                refs: a.refs,
            }
        })
        .collect();
    out.sort_by(|a, b| b.refs.cmp(&a.refs).then(a.pc.cmp(&b.pc)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::Benchmark;
    use gpu_kernel::AddressPattern;

    fn cfg() -> GpuConfig {
        GpuConfig::paper_baseline()
    }

    #[test]
    fn pure_stride_kernel_profile() {
        let k = Kernel::builder("pure")
            .load(AddressPattern::warp_strided(0, 4096, 4096 * 48, 4), &[])
            .iterations(8)
            .build();
        let p = characterize(&k, &cfg(), None);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].stride, 4096);
        assert!(p[0].pct_stride > 0.9, "pct_stride {}", p[0].pct_stride);
        // Streaming: every line unique, every access a miss.
        assert!((p[0].lines_per_ref - 1.0).abs() < 1e-9);
        assert!(p[0].miss_rate > 0.99);
        assert!((p[0].pct_load - 1.0).abs() < 1e-9);
    }

    #[test]
    fn shared_stream_profile() {
        let k = Kernel::builder("shared")
            .load(AddressPattern::shared_stream(0, 256), &[])
            .iterations(8)
            .build();
        let p = characterize(&k, &cfg(), None);
        assert_eq!(p[0].stride, 0);
        assert!(p[0].pct_stride > 0.9);
        assert!(p[0].lines_per_ref < 0.05, "#L/#R {}", p[0].lines_per_ref);
        assert!(p[0].miss_rate < 0.1, "miss {}", p[0].miss_rate);
    }

    #[test]
    fn km_matches_table1_shape() {
        let p = characterize(&Benchmark::Km.kernel(), &cfg(), None);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].pc, Pc(0xE8));
        assert_eq!(p[0].stride, 4352, "dominant stride");
        assert!(
            (0.5..0.95).contains(&p[0].pct_stride),
            "%stride {} (paper: 78.2%)",
            p[0].pct_stride
        );
        assert!(
            p[0].lines_per_ref < 0.1,
            "#L/#R {} (paper: 0.03)",
            p[0].lines_per_ref
        );
        assert!(
            p[0].miss_rate > 0.8,
            "miss {} (paper: 0.99)",
            p[0].miss_rate
        );
        assert!((p[0].pct_load - 1.0).abs() < 1e-9, "%load (paper: 100%)");
    }

    #[test]
    fn srad_mixed_profile() {
        let p = characterize(&Benchmark::Srad.kernel(), &cfg(), None);
        assert_eq!(p.len(), 3);
        for row in &p {
            assert_eq!(row.stride, 16_384, "PC {}", row.pc);
            assert!(row.miss_rate > 0.8, "PC {} miss {}", row.pc, row.miss_rate);
        }
        let reused = p.iter().find(|r| r.pc == Pc(0x350)).unwrap();
        let stream = p.iter().find(|r| r.pc == Pc(0x250)).unwrap();
        assert!(
            reused.lines_per_ref < stream.lines_per_ref,
            "0x350 (#L/#R {}) must show more reuse than 0x250 ({})",
            reused.lines_per_ref,
            stream.lines_per_ref
        );
        assert!(stream.lines_per_ref > 0.9, "paper: 0.99");
    }

    #[test]
    fn nw_negative_stride_detected() {
        let p = characterize(&Benchmark::Nw.kernel_scaled(8), &cfg(), None);
        for row in p.iter().take(3) {
            assert_eq!(row.stride, -1_966_080, "PC {}", row.pc);
            assert!(row.miss_rate > 0.9);
        }
    }

    #[test]
    fn mum_high_locality() {
        let p = characterize(&Benchmark::Mum.kernel(), &cfg(), None);
        let main = &p[0]; // most-referenced load
        assert!(
            main.miss_rate < 0.45,
            "miss {} (paper: 0.17)",
            main.miss_rate
        );
        assert!(
            main.lines_per_ref < 0.2,
            "#L/#R {} (paper: 0.01)",
            main.lines_per_ref
        );
    }

    #[test]
    fn bfs_stride_zero_dominates_weakly() {
        let p = characterize(&Benchmark::Bfs.kernel(), &cfg(), None);
        // Irregular loads: low reuse fraction but nonzero, high miss rate.
        let main = &p[0];
        assert!(
            main.miss_rate > 0.5,
            "miss {} (paper: 0.78)",
            main.miss_rate
        );
        assert!(
            main.lines_per_ref < 0.6,
            "#L/#R {} (paper: 0.04)",
            main.lines_per_ref
        );
    }

    #[test]
    fn deterministic() {
        let k = Benchmark::Spmv.kernel_scaled(8);
        let a = characterize(&k, &cfg(), None);
        let b = characterize(&k, &cfg(), None);
        assert_eq!(a, b);
    }

    #[test]
    fn iters_override() {
        let k = Benchmark::Km.kernel();
        let p = characterize(&k, &cfg(), Some(2));
        // 48 warps × 32 lines × 2 iters.
        assert_eq!(p[0].refs, 48 * 32 * 2);
    }
}
