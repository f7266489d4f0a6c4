//! Baseline GPU warp schedulers.
//!
//! Implements every scheduling policy the paper compares against
//! (Table III's "Warp Scheduler" row and Section VI):
//!
//! * [`Lrr`] — Loose Round-Robin, the paper's baseline;
//! * [`Gto`] — Greedy-Then-Oldest (Rogers et al.);
//! * [`TwoLevel`] — two-level fetch-group scheduling (Narasiman et al.);
//! * [`Ccws`] — Cache-Conscious Wavefront Scheduling (Rogers et al.): a
//!   per-warp victim-tag locality detector drives dynamic warp throttling;
//! * [`Mascar`] — memory-saturation-aware scheduling (Sethia et al.): under
//!   MSHR pressure a single *owner* warp issues memory instructions;
//! * [`Pa`] — prefetch-aware two-level scheduling (Jog et al.): fetch
//!   groups take non-consecutive warps so inter-group strides stay
//!   prefetchable.
//!
//! Each is a faithful policy-level reimplementation at the granularity the
//! simulator models; microarchitectural details that do not change the
//! scheduling decision (e.g. CCWS's exact VTA indexing) are simplified and
//! documented inline.

#![forbid(clippy::disallowed_methods, clippy::disallowed_types, unsafe_code)]

mod ccws;
mod gto;
mod lrr;
mod mascar;
mod pa;
mod two_level;

pub use ccws::Ccws;
pub use gto::Gto;
pub use lrr::Lrr;
pub use mascar::Mascar;
pub use pa::Pa;
pub use two_level::TwoLevel;

use gpu_sm::traits::WarpScheduler;

/// Identifies a baseline scheduling policy (APRES's LAWS lives in
/// `apres-core`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedPolicy {
    /// Loose round-robin (baseline).
    Lrr,
    /// Greedy-then-oldest.
    Gto,
    /// Two-level fetch groups.
    TwoLevel,
    /// Cache-conscious wavefront scheduling.
    Ccws,
    /// Memory-aware scheduling (MASCAR).
    Mascar,
    /// Prefetch-aware two-level scheduling.
    Pa,
}

impl SchedPolicy {
    /// Instantiates the policy.
    pub fn make(self) -> Box<dyn WarpScheduler> {
        match self {
            SchedPolicy::Lrr => Box::new(Lrr::new()),
            SchedPolicy::Gto => Box::new(Gto::new()),
            SchedPolicy::TwoLevel => Box::new(TwoLevel::new(8)),
            SchedPolicy::Ccws => Box::new(Ccws::new()),
            SchedPolicy::Mascar => Box::new(Mascar::new()),
            SchedPolicy::Pa => Box::new(Pa::new(8)),
        }
    }

    /// Display name matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SchedPolicy::Lrr => "LRR",
            SchedPolicy::Gto => "GTO",
            SchedPolicy::TwoLevel => "2LV",
            SchedPolicy::Ccws => "CCWS",
            SchedPolicy::Mascar => "MASCAR",
            SchedPolicy::Pa => "PA",
        }
    }

    /// All baseline policies.
    pub const ALL: [SchedPolicy; 6] = [
        SchedPolicy::Lrr,
        SchedPolicy::Gto,
        SchedPolicy::TwoLevel,
        SchedPolicy::Ccws,
        SchedPolicy::Mascar,
        SchedPolicy::Pa,
    ];
}

#[cfg(test)]
pub(crate) mod testutil {
    use gpu_common::WarpId;
    use gpu_sm::traits::{ReadyWarp, SchedCtx};

    /// Builds a ready list from warp ids, all with non-memory next ops.
    pub fn ready(ids: &[u32]) -> Vec<ReadyWarp> {
        ids.iter()
            .map(|&i| ReadyWarp {
                id: WarpId(i),
                next_is_mem: false,
            })
            .collect()
    }

    /// Builds a ready list with explicit memory-ness per warp.
    pub fn ready_mem(ids: &[(u32, bool)]) -> Vec<ReadyWarp> {
        ids.iter()
            .map(|&(i, m)| ReadyWarp {
                id: WarpId(i),
                next_is_mem: m,
            })
            .collect()
    }

    /// A context with the given MSHR occupancy.
    pub fn ctx(occ: f64) -> SchedCtx {
        SchedCtx {
            now: 0,
            mshr_occupancy: occ,
            warps_per_sm: 48,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_policies_instantiate() {
        for p in SchedPolicy::ALL {
            let s = p.make();
            assert!(!s.name().is_empty());
            assert!(!p.label().is_empty());
        }
    }
}
