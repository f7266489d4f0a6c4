//! The fifteen benchmark kernels (Table IV), parameterised to match
//! Table I's per-load characteristics.
//!
//! Each constructor documents the Table I rows it encodes:
//! `(PC, %Load, #L/#R, miss, stride, %stride)`. Reuse (#L/#R < 1) is
//! produced either by hot regions (irregular apps), shared streams
//! (stride-0 loads), or cyclic wrap over a bounded working set; big
//! footprints with uncoalesced accesses use per-lane strides above the
//! 128-byte line size (e.g. KM's 4352-byte warp stride is 136 bytes per
//! lane — 32 distinct lines per warp access, giving the paper's "about 2 MB
//! per SM" working set).

use gpu_kernel::{AddressPattern, Kernel};

/// Benchmark category (Table IV's grouping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Memory-intensive, cache-sensitive.
    CacheSensitive,
    /// Memory-intensive, cache-insensitive.
    CacheInsensitive,
    /// Compute-intensive.
    ComputeIntensive,
}

impl Category {
    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            Category::CacheSensitive => "cache-sensitive",
            Category::CacheInsensitive => "cache-insensitive",
            Category::ComputeIntensive => "compute-intensive",
        }
    }
}

/// One of the paper's fifteen applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Breadth-First Search (Rodinia).
    Bfs,
    /// MUMmerGPU (Rodinia).
    Mum,
    /// Needleman-Wunsch (Rodinia).
    Nw,
    /// Sparse matrix–dense vector multiplication (Parboil).
    Spmv,
    /// KMeans (Rodinia).
    Km,
    /// LU Decomposition (Rodinia).
    Lud,
    /// Speckle-Reducing Anisotropic Diffusion (Rodinia).
    Srad,
    /// Particle filter (Rodinia).
    Pa,
    /// Histogram (Parboil).
    Histo,
    /// Back-propagation (Rodinia).
    Bp,
    /// PathFinder (Rodinia).
    Pf,
    /// ConvolutionSeparable (CUDA SDK).
    Cs,
    /// Stencil (Parboil).
    St,
    /// HotSpot (Rodinia).
    Hs,
    /// ScalarProd (CUDA SDK).
    Sp,
}

impl Benchmark {
    /// All fifteen applications, in the paper's figure order.
    pub const ALL: [Benchmark; 15] = [
        Benchmark::Bfs,
        Benchmark::Mum,
        Benchmark::Nw,
        Benchmark::Spmv,
        Benchmark::Km,
        Benchmark::Lud,
        Benchmark::Srad,
        Benchmark::Pa,
        Benchmark::Histo,
        Benchmark::Bp,
        Benchmark::Pf,
        Benchmark::Cs,
        Benchmark::St,
        Benchmark::Hs,
        Benchmark::Sp,
    ];

    /// The ten memory-intensive applications.
    pub const MEMORY_INTENSIVE: [Benchmark; 10] = [
        Benchmark::Bfs,
        Benchmark::Mum,
        Benchmark::Nw,
        Benchmark::Spmv,
        Benchmark::Km,
        Benchmark::Lud,
        Benchmark::Srad,
        Benchmark::Pa,
        Benchmark::Histo,
        Benchmark::Bp,
    ];

    /// Abbreviation used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Benchmark::Bfs => "BFS",
            Benchmark::Mum => "MUM",
            Benchmark::Nw => "NW",
            Benchmark::Spmv => "SPMV",
            Benchmark::Km => "KM",
            Benchmark::Lud => "LUD",
            Benchmark::Srad => "SRAD",
            Benchmark::Pa => "PA",
            Benchmark::Histo => "HISTO",
            Benchmark::Bp => "BP",
            Benchmark::Pf => "PF",
            Benchmark::Cs => "CS",
            Benchmark::St => "ST",
            Benchmark::Hs => "HS",
            Benchmark::Sp => "SP",
        }
    }

    /// Parses a benchmark label (case-insensitive); inverse of
    /// [`Benchmark::label`].
    pub fn from_label(name: &str) -> Option<Benchmark> {
        Benchmark::ALL
            .into_iter()
            .find(|b| b.label().eq_ignore_ascii_case(name))
    }

    /// Table IV category.
    pub fn category(self) -> Category {
        match self {
            Benchmark::Bfs | Benchmark::Mum | Benchmark::Nw | Benchmark::Spmv | Benchmark::Km => {
                Category::CacheSensitive
            }
            Benchmark::Lud | Benchmark::Srad | Benchmark::Pa | Benchmark::Histo | Benchmark::Bp => {
                Category::CacheInsensitive
            }
            Benchmark::Pf | Benchmark::Cs | Benchmark::St | Benchmark::Hs | Benchmark::Sp => {
                Category::ComputeIntensive
            }
        }
    }

    /// The kernel at its default scale (iteration count balancing fidelity
    /// and simulation time).
    pub fn kernel(self) -> Kernel {
        self.kernel_scaled(self.default_iterations())
    }

    /// Default per-warp loop trips.
    pub fn default_iterations(self) -> u64 {
        match self {
            Benchmark::Km => 32,
            Benchmark::Pf | Benchmark::Cs | Benchmark::St | Benchmark::Hs | Benchmark::Sp => 24,
            _ => 32,
        }
    }

    /// Builds the kernel with an explicit iteration count (used by fast
    /// tests and by sweeps).
    pub fn kernel_scaled(self, iters: u64) -> Kernel {
        match self {
            Benchmark::Bfs => bfs(iters),
            Benchmark::Mum => mum(iters),
            Benchmark::Nw => nw(iters),
            Benchmark::Spmv => spmv(iters),
            Benchmark::Km => km(iters),
            Benchmark::Lud => lud(iters),
            Benchmark::Srad => srad(iters),
            Benchmark::Pa => pa(iters),
            Benchmark::Histo => histo(iters),
            Benchmark::Bp => bp(iters),
            Benchmark::Pf => pf(iters),
            Benchmark::Cs => cs(iters),
            Benchmark::St => st(iters),
            Benchmark::Hs => hs(iters),
            Benchmark::Sp => sp(iters),
        }
    }
}

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

/// Array bases inside one SM's slab, spaced far apart.
const A0: u64 = 0x0100_0000;
const A1: u64 = 0x0500_0000;
const A2: u64 = 0x0900_0000;
const A3: u64 = 0x0D00_0000;

/// BFS — Table I: (0x110, 51.6%, 0.04, 0.78, 0, 16.3%), (0xF0, 26.4%,
/// 0.12, 0.90, 0, 13.3%), (0x198, 9.5%, 0.11, 0.83, 0, 14.7%). Irregular
/// frontier/edge accesses with hot regions; divergent (half the lanes).
fn bfs(iters: u64) -> Kernel {
    // Each diverged lane gathers its own line (lane_spread = line size):
    // many references over a hot region a few times the L1 — low #L/#R with
    // a high miss rate, the thrashing signature of Section III-B.
    let gather = |base: u64, ws: u64, hot: u64, p: f64| AddressPattern::Irregular {
        base,
        working_set_bytes: ws,
        hot_bytes: hot,
        hot_prob: p,
        lane_spread: 128,
    };
    Kernel::builder("BFS")
        .seed(0xBF5)
        .at_pc(0x110)
        .load(AddressPattern::shared_stream(A3, 64).with_noise(0.22), &[])
        .at_pc(0x118)
        .load(
            AddressPattern::shared_stream(A3 + 64 * MB, 64).with_noise(0.22),
            &[0],
        )
        .at_pc(0xF0)
        .load_diverged(gather(A1, 2 * MB, 48 * KB, 0.60), &[1], 8)
        .at_pc(0x198)
        .load_diverged(gather(A2, 2 * MB, 48 * KB, 0.64), &[1], 4)
        .alu(8, &[2, 3])
        .alu(8, &[4])
        .alu(4, &[5])
        .alu(4, &[6])
        .iterations(iters)
        .build()
}

/// MUM — Table I: (0x7A8, 66.2%, 0.01, 0.17, 0, 36.3%), (0x460, 21.3%,
/// 0.04, 0.04, 0, 46.8%), (0x8A0, 12.3%, 0.07, 0.17, 0, 34.3%). Suffix-tree
/// walks with very strong locality.
fn mum(iters: u64) -> Kernel {
    // Tree-walk loads: warps walk the same nodes in lock-step (stride 0),
    // deviating into a 64 KB neighbourhood a quarter of the time.
    let shared_walk = |base: u64| AddressPattern::SharedStream {
        base,
        iter_stride: 48,
        noise: 0.25,
        region_bytes: 64 * KB,
    };
    Kernel::builder("MUM")
        .seed(0x303)
        .at_pc(0x7A8)
        .load(shared_walk(A0), &[])
        .at_pc(0x7B0)
        .load(shared_walk(A0 + 16 * MB), &[0])
        .at_pc(0x7B8)
        .load(shared_walk(A0 + 32 * MB), &[1])
        .at_pc(0x460)
        .load(AddressPattern::shared_stream(A1, 96).with_noise(0.50), &[2])
        .at_pc(0x8A0)
        .load_diverged(AddressPattern::irregular(A2, MB, 24 * KB, 0.88), &[3], 8)
        .alu(8, &[4])
        .alu(4, &[5])
        .alu(4, &[6])
        .iterations(iters)
        .build()
}

/// NW — Table I: three loads, #L/#R ≈ 1, miss 1.0, stride −1,966,080
/// (56–75% of accesses). Anti-diagonal wavefront sweeps.
fn nw(iters: u64) -> Kernel {
    let stride = -1_966_080i64;
    let pat = |base: u64| AddressPattern::WarpStrided {
        base,
        warp_stride: stride,
        iter_stride: stride * 48,
        lane_stride: 4,
        wrap_bytes: Some(192 * MB),
        noise: 0.32,
    };
    Kernel::builder("NW")
        .seed(0x2B2)
        .at_pc(0x490)
        .load(pat(A0), &[])
        .at_pc(0xD18)
        .load(pat(A1), &[0])
        .at_pc(0x108)
        .load(pat(A2), &[1])
        .alu(8, &[0, 1, 2])
        .alu(8, &[3])
        .alu(8, &[4])
        .alu(4, &[5])
        .alu(4, &[6])
        .alu(4, &[7])
        .alu(4, &[8])
        .alu(4, &[9])
        .alu(4, &[10])
        .iterations(iters)
        .build()
}

/// SPMV — Table I: (0x1E0, 51.5%, 0.13, 0.32, 0, 24.0%), (0x200, 23.8%,
/// 0.25, 0.25, 0, 19.3%), (0xE0, 7.2%, 0.65, 0.81, 0, 12.5%). Dense-vector
/// gathers with reuse; row-pointer stream.
fn spmv(iters: u64) -> Kernel {
    Kernel::builder("SPMV")
        .seed(0x597)
        .at_pc(0x1E0)
        .load(
            AddressPattern::SharedStream {
                base: A0,
                iter_stride: 256,
                noise: 0.45,
                region_bytes: 96 * KB,
            },
            &[],
        )
        .at_pc(0x1E8)
        .load(
            AddressPattern::SharedStream {
                base: A0 + 32 * MB,
                iter_stride: 256,
                noise: 0.45,
                region_bytes: 96 * KB,
            },
            &[0],
        )
        .at_pc(0x200)
        .load(AddressPattern::irregular(A1, 256 * KB, 20 * KB, 0.78), &[1])
        .at_pc(0xE0)
        .load(AddressPattern::irregular(A2, 2 * MB, 16 * KB, 0.30), &[])
        .alu(8, &[2, 3])
        .alu(8, &[4])
        .alu(4, &[5])
        .alu(4, &[6])
        .alu(4, &[7])
        .iterations(iters)
        .build()
}

/// KM — Table I: one load, 100% of references, #L/#R 0.03, miss 0.99,
/// stride 4352 (78.2%). The 4352-byte warp stride is 136 bytes per lane:
/// 32 uncoalesced lines per access, a ~200 KB per-sweep footprint revisited
/// every iteration (the paper's ">60× the L1" working set, scaled to keep
/// the ratio).
fn km(iters: u64) -> Kernel {
    Kernel::builder("KM")
        .seed(0x6B3)
        .at_pc(0xE8)
        .load(
            AddressPattern::WarpStrided {
                base: A0,
                warp_stride: 4352,
                iter_stride: 0,
                lane_stride: 136,
                wrap_bytes: Some(2 * MB),
                noise: 0.22,
            },
            &[],
        )
        .alu(8, &[0])
        .alu(8, &[1])
        .alu(4, &[2])
        .alu(4, &[3])
        .iterations(iters)
        .build()
}

/// LUD — Table I: three loads ≈30% each, #L/#R ≈ 0.6, miss ≈ 0.95,
/// stride 2048 (66–83%). Strided panel sweeps re-referenced once.
fn lud(iters: u64) -> Kernel {
    let sweep = 2048 * 48;
    let wrap = sweep * iters / 2;
    let pat = |base: u64| AddressPattern::WarpStrided {
        base,
        warp_stride: 2048,
        iter_stride: sweep as i64,
        lane_stride: 4,
        wrap_bytes: Some(wrap.max(sweep)),
        noise: 0.25,
    };
    Kernel::builder("LUD")
        .seed(0x14D)
        .at_pc(0x20F0)
        .load(pat(A0), &[])
        .at_pc(0x2080)
        .load(pat(A1), &[0])
        .at_pc(0x22E0)
        .load(pat(A2), &[1])
        .alu(8, &[0, 1, 2])
        .alu(8, &[3])
        .alu(4, &[4])
        .alu(4, &[5])
        .alu(4, &[6])
        .alu(4, &[7])
        .iterations(iters)
        .build()
}

/// SRAD — Table I: (0x250, 31.2%, 0.99, 0.99, 16384, 78.2%), (0x230,
/// 31.2%, 0.99, 1.0, 16384, 75.0%), (0x350, 31.2%, 0.52, 0.99, 16384,
/// 80.7%). Two pure streams plus one ×2-reused stream — the mixed
/// locality/stride app where LAWS shines (Section V-B).
fn srad(iters: u64) -> Kernel {
    let sweep = 16_384i64 * 48;
    let stream = |base: u64| AddressPattern::WarpStrided {
        base,
        warp_stride: 16_384,
        iter_stride: sweep,
        lane_stride: 4,
        wrap_bytes: None,
        noise: 0.22,
    };
    let reused = AddressPattern::WarpStrided {
        base: A2,
        warp_stride: 16_384,
        iter_stride: sweep,
        lane_stride: 4,
        wrap_bytes: Some((sweep as u64) * iters.div_ceil(2)),
        noise: 0.19,
    };
    Kernel::builder("SRAD")
        .seed(0x52D)
        .at_pc(0x250)
        .load(stream(A0), &[])
        .at_pc(0x230)
        .load(stream(A1), &[])
        .at_pc(0x350)
        .load(reused, &[0, 1])
        .alu(8, &[0, 1, 2])
        .alu(8, &[3])
        .alu(8, &[4])
        .alu(8, &[5])
        .alu(4, &[6])
        .alu(4, &[7])
        .alu(4, &[8])
        .alu(4, &[9])
        .alu(4, &[10])
        .alu(4, &[11])
        .iterations(iters)
        .build()
}

/// PA — Table I: (0x2210, 51.7%, 0.03, 0.98, 8832, 42.7%), (0x2230,
/// 39.9%, 0.002, 0.16, 0, 36.2%), (0x2088, 3.2%, 0.02, 0.02, 256, 91.5%).
fn pa(iters: u64) -> Kernel {
    Kernel::builder("PA")
        .seed(0x9A9)
        .at_pc(0x2210)
        .load(
            AddressPattern::WarpStrided {
                base: A0,
                warp_stride: 8832,
                iter_stride: 0,
                lane_stride: 276, // 8832 / 32: uncoalesced
                wrap_bytes: Some(MB),
                noise: 0.45,
            },
            &[],
        )
        .at_pc(0x2230)
        .load(AddressPattern::shared_stream(A1, 64).with_noise(0.40), &[0])
        .at_pc(0x2088)
        .load(
            AddressPattern::WarpStrided {
                base: A2,
                warp_stride: 256,
                iter_stride: 0,
                lane_stride: 4,
                wrap_bytes: Some(16 * KB),
                noise: 0.08,
            },
            &[1],
        )
        .alu(8, &[2])
        .alu(8, &[3])
        .alu(4, &[4])
        .alu(4, &[5])
        .iterations(iters)
        .build()
}

/// HISTO — Table I: one load (0x168, 100%, #L/#R 1, miss 1.0, stride 512,
/// 20.8%): a noisy 512-byte-strided stream, plus scatter stores into bins.
fn histo(iters: u64) -> Kernel {
    Kernel::builder("HISTO")
        .seed(0x415)
        .at_pc(0x168)
        .load(
            AddressPattern::WarpStrided {
                base: A0,
                warp_stride: 512,
                iter_stride: 512 * 48,
                lane_stride: 4,
                wrap_bytes: None,
                noise: 0.70,
            },
            &[],
        )
        .alu(6, &[0])
        .alu(6, &[1])
        .alu(6, &[2])
        .alu(4, &[3])
        .alu(4, &[4])
        .store(AddressPattern::irregular(A2, 64 * KB, 8 * KB, 0.6), &[5])
        .iterations(iters)
        .build()
}

/// BP — Table I: three loads ≈19% each, stride 128 (64–76%); two streams
/// with distant ×2 reuse (miss 1.0), one small-footprint load (miss 0.03).
fn bp(iters: u64) -> Kernel {
    let sweep = 128 * 48;
    let far = |base: u64| AddressPattern::WarpStrided {
        base,
        warp_stride: 128,
        iter_stride: sweep as i64,
        lane_stride: 4,
        wrap_bytes: Some((sweep * iters.div_ceil(2)).max(sweep)),
        noise: 0.28,
    };
    Kernel::builder("BP")
        .seed(0xB12)
        .at_pc(0x3F8)
        .load(far(A0), &[])
        .at_pc(0x408)
        .load(far(A1), &[0])
        .at_pc(0x478)
        .load(
            AddressPattern::WarpStrided {
                base: A2,
                warp_stride: 128,
                iter_stride: 0,
                lane_stride: 4,
                wrap_bytes: Some(8 * KB),
                noise: 0.25,
            },
            &[1],
        )
        .alu(8, &[0, 1, 2])
        .alu(8, &[3])
        .alu(8, &[4])
        .alu(4, &[5])
        .alu(4, &[6])
        .alu(4, &[7])
        .alu(4, &[8])
        .store(AddressPattern::warp_strided(A3, 128, sweep as i64, 4), &[9])
        .iterations(iters)
        .build()
}

/// PF — compute-intensive wavefront: each warp reads its window of the
/// previous result row (halo overlap with its neighbour) and the
/// corresponding wall costs (pure stream), then runs the min/add chain.
fn pf(iters: u64) -> Kernel {
    Kernel::builder("PF")
        .seed(0x9F1)
        .load(
            AddressPattern::WarpStrided {
                base: A0,
                warp_stride: 128,
                iter_stride: 256 * 48,
                lane_stride: 8,
                wrap_bytes: Some(256 * KB),
                noise: 0.12,
            },
            &[],
        )
        .load(
            AddressPattern::warp_strided(A2, 128, 128 * 48, 4).with_noise(0.05),
            &[],
        )
        .alu(8, &[0, 1])
        .alu(8, &[2])
        .alu(8, &[3])
        .alu(4, &[4])
        .alu(4, &[5])
        .alu(4, &[6])
        .alu(4, &[7])
        .store(AddressPattern::warp_strided(A1, 128, 128 * 48, 4), &[8])
        .iterations(iters)
        .build()
}

/// CS — separable convolution: two perfectly regular streaming loads
/// (prefetch heaven: low reuse, exact strides) and a moderate ALU chain.
fn cs(iters: u64) -> Kernel {
    // Disjoint per-warp rows, perfectly strided: the prefetchers' best
    // case (cold-miss-dominated, exact inter-warp stride).
    let stream = |base: u64| AddressPattern::WarpStrided {
        base,
        warp_stride: 128,
        iter_stride: 128 * 48,
        lane_stride: 4,
        wrap_bytes: None,
        noise: 0.04,
    };
    Kernel::builder("CS")
        .seed(0xC5C)
        .load(stream(A0), &[])
        .load(stream(A1), &[])
        .alu(8, &[0, 1])
        .alu(8, &[2])
        .alu(8, &[3])
        .alu(4, &[4])
        .alu(4, &[5])
        .alu(4, &[6])
        .alu(4, &[7])
        .store(AddressPattern::warp_strided(A2, 128, 128 * 48, 4), &[8])
        .iterations(iters)
        .build()
}

/// ST — 7-point stencil: three row-offset loads where the +row load streams
/// ahead of the others (cross-load reuse), plus ALU.
fn st(iters: u64) -> Kernel {
    let sweep = 128i64 * 48;
    let row = sweep * 2; // ±2 iterations apart
    let plane = |off: i64| {
        AddressPattern::WarpStrided {
            base: A0,
            warp_stride: 128,
            iter_stride: sweep,
            lane_stride: 4,
            wrap_bytes: None,
            noise: 0.05,
        }
        .shifted(off)
    };
    Kernel::builder("ST")
        .seed(0x57E)
        .load(plane(0), &[])
        .load(plane(row), &[])
        .load(plane(-row), &[])
        .alu(8, &[0, 1, 2])
        .alu(8, &[3])
        .alu(4, &[4])
        .alu(4, &[5])
        .store(AddressPattern::warp_strided(A1, 128, sweep, 4), &[6])
        .iterations(iters)
        .build()
}

/// HS — hotspot: small working set (cache-resident) with a deep ALU chain.
fn hs(iters: u64) -> Kernel {
    Kernel::builder("HS")
        .seed(0x405)
        .load(
            AddressPattern::WarpStrided {
                base: A0,
                warp_stride: 128,
                iter_stride: 256 * 48,
                lane_stride: 8,
                wrap_bytes: Some(64 * KB),
                noise: 0.10,
            },
            &[],
        )
        .load(
            AddressPattern::WarpStrided {
                base: A1,
                warp_stride: 128,
                iter_stride: 128 * 48,
                lane_stride: 4,
                wrap_bytes: Some(64 * KB),
                noise: 0.05,
            },
            &[],
        )
        .alu(8, &[0, 1])
        .alu(8, &[2])
        .alu(8, &[3])
        .alu(4, &[4])
        .alu(4, &[5])
        .alu(4, &[6])
        .iterations(iters)
        .build()
}

/// SP — scalar product: two perfectly regular streams feeding a reduce.
fn sp(iters: u64) -> Kernel {
    let stream = |base: u64| AddressPattern::WarpStrided {
        base,
        warp_stride: 128,
        iter_stride: 128 * 48,
        lane_stride: 4,
        wrap_bytes: None,
        noise: 0.03,
    };
    Kernel::builder("SP")
        .seed(0x5CA)
        .load(stream(A0), &[])
        .load(stream(A1), &[])
        .alu(8, &[0, 1])
        .alu(8, &[2])
        .alu(8, &[3])
        .alu(4, &[4])
        .alu(4, &[5])
        .alu(4, &[6])
        .iterations(iters)
        .build()
}

/// Extension helper: shift a pattern's base by a signed byte offset.
trait Shifted {
    fn shifted(self, off: i64) -> Self;
}

impl Shifted for AddressPattern {
    fn shifted(mut self, off: i64) -> Self {
        match &mut self {
            AddressPattern::SharedStream { base, .. }
            | AddressPattern::WarpStrided { base, .. }
            | AddressPattern::Irregular { base, .. } => {
                *base = base.saturating_add_signed(off);
            }
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_kernel::Op;

    #[test]
    fn all_fifteen_build() {
        for b in Benchmark::ALL {
            let k = b.kernel();
            assert_eq!(k.name(), b.label());
            assert!(!k.body().is_empty());
            assert!(k.iterations() > 0);
        }
    }

    #[test]
    fn from_label_inverts_label_case_insensitively() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::from_label(b.label()), Some(b));
            assert_eq!(Benchmark::from_label(&b.label().to_lowercase()), Some(b));
        }
        assert_eq!(Benchmark::from_label("bogus"), None);
    }

    #[test]
    fn categories_partition_the_suite() {
        let cs = Benchmark::ALL
            .iter()
            .filter(|b| b.category() == Category::CacheSensitive)
            .count();
        let ci = Benchmark::ALL
            .iter()
            .filter(|b| b.category() == Category::CacheInsensitive)
            .count();
        let co = Benchmark::ALL
            .iter()
            .filter(|b| b.category() == Category::ComputeIntensive)
            .count();
        assert_eq!((cs, ci, co), (5, 5, 5));
    }

    #[test]
    fn memory_intensive_is_first_ten() {
        for b in Benchmark::MEMORY_INTENSIVE {
            assert_ne!(b.category(), Category::ComputeIntensive);
        }
    }

    #[test]
    fn km_is_single_load_kernel() {
        let k = Benchmark::Km.kernel();
        let loads = k.body().iter().filter(|i| i.op.is_load()).count();
        assert_eq!(loads, 1);
        assert_eq!(k.body()[0].pc.0, 0xE8);
        assert_eq!(
            k.pattern(gpu_kernel::LoadSlot(0)).nominal_stride(),
            Some(4352)
        );
    }

    #[test]
    fn table1_pcs_present() {
        let k = Benchmark::Bfs.kernel();
        let pcs: Vec<u64> = k.body().iter().map(|i| i.pc.0).collect();
        assert!(pcs.contains(&0x110));
        assert!(pcs.contains(&0xF0));
        assert!(pcs.contains(&0x198));

        let k = Benchmark::Srad.kernel();
        let pcs: Vec<u64> = k.body().iter().map(|i| i.pc.0).collect();
        assert!(pcs.contains(&0x250) && pcs.contains(&0x230) && pcs.contains(&0x350));
    }

    #[test]
    fn compute_intensive_kernels_are_alu_heavy() {
        for b in [Benchmark::Pf, Benchmark::Hs, Benchmark::Cs] {
            let k = b.kernel();
            let alu = k
                .body()
                .iter()
                .filter(|i| matches!(i.op, Op::Alu { .. }))
                .count();
            let mem = k.body().iter().filter(|i| i.op.is_mem()).count();
            assert!(alu >= mem, "{}: alu {alu} < mem {mem}", b.label());
        }
    }

    #[test]
    fn scaled_kernels_respect_iterations() {
        let k = Benchmark::Km.kernel_scaled(7);
        assert_eq!(k.iterations(), 7);
    }

    #[test]
    fn nw_has_negative_stride() {
        let k = Benchmark::Nw.kernel();
        assert_eq!(
            k.pattern(gpu_kernel::LoadSlot(0)).nominal_stride(),
            Some(-1_966_080)
        );
    }
}
