//! Baseline GPU data prefetchers (Section III-C).
//!
//! * [`Str`] — STRide prefetching: a per-PC table of `{last address,
//!   stride, confidence}`; confident strides prefetch ahead of the access
//!   stream. Under round-robin scheduling the per-PC stream interleaves
//!   warps, so the learned stride is the inter-warp stride of Table I.
//! * [`Sld`] — Spatial Locality Detection prefetching: 4-line macro blocks;
//!   once two lines of a block have been touched the remaining two are
//!   prefetched. As the paper notes, SLD only covers strides below two cache
//!   lines (256 B), which is why STR beats it on large-stride workloads.
//!
//! SAP, the paper's scheduling-aware prefetcher, lives in `apres-core`
//! because it cooperates with LAWS.

#![forbid(clippy::disallowed_methods, clippy::disallowed_types, unsafe_code)]

mod sld;
mod str_prefetch;

pub use sld::Sld;
pub use str_prefetch::Str;

use gpu_sm::traits::Prefetcher;

/// Identifies a baseline prefetching engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetchEngine {
    /// No prefetching (baseline).
    None,
    /// Per-PC stride prefetching.
    Str,
    /// Macro-block spatial prefetching.
    Sld,
}

impl PrefetchEngine {
    /// Instantiates the engine.
    pub fn make(self) -> Box<dyn Prefetcher> {
        match self {
            PrefetchEngine::None => Box::new(gpu_sm::traits::NullPrefetcher),
            PrefetchEngine::Str => Box::new(Str::new()),
            PrefetchEngine::Sld => Box::new(Sld::new()),
        }
    }

    /// Display name matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            PrefetchEngine::None => "none",
            PrefetchEngine::Str => "STR",
            PrefetchEngine::Sld => "SLD",
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use gpu_common::{Addr, LineAddr, Pc, SmId, WarpId};
    use gpu_sm::traits::DemandAccess;

    /// A demand access at byte address `addr` from `warp` at static `pc`.
    pub fn access(pc: u64, warp: u32, addr: u64, hit: bool) -> DemandAccess {
        DemandAccess {
            sm: SmId(0),
            warp: WarpId(warp),
            pc: Pc(pc),
            addr: Addr::new(addr),
            line: LineAddr(addr / 128),
            hit,
            now: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_instantiate() {
        for e in [PrefetchEngine::None, PrefetchEngine::Str, PrefetchEngine::Sld] {
            assert!(!e.make().name().is_empty());
            assert!(!e.label().is_empty());
        }
    }
}
