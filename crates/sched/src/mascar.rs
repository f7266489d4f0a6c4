//! MASCAR — Memory-Aware Scheduling (Sethia et al., HPCA 2015).
//!
//! When the memory system saturates (MSHRs nearly full), issuing memory
//! instructions from many warps only lengthens queues. MASCAR switches to
//! *memory-pressure (MP) mode*: a single **owner** warp is allowed to issue
//! memory instructions (draining its pitstop quickly), while the other warps
//! may issue only compute instructions. Below the saturation threshold the
//! scheduler behaves like greedy round-robin.
//!
//! Simplification: saturation is detected from L1 MSHR occupancy (the
//! simulator's natural back-pressure signal) instead of the original's
//! LSU-stall counters; the mode decision is identical in spirit.

use gpu_common::{Cycle, WarpId};
use gpu_sm::traits::{ReadyWarp, SchedCtx, WarpScheduler};

/// MSHR occupancy above which MP mode engages.
const SATURATION_THRESHOLD: f64 = 0.75;

/// Memory-aware warp scheduler.
#[derive(Debug, Clone, Default)]
pub struct Mascar {
    owner: Option<WarpId>,
    last: Option<u32>,
    /// Cycles spent in MP mode (diagnostics).
    pub mp_cycles: u64,
}

impl Mascar {
    /// Creates a MASCAR scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current owner warp, if MP mode has designated one.
    pub fn owner(&self) -> Option<WarpId> {
        self.owner
    }

    fn round_robin(&mut self, candidates: impl Iterator<Item = WarpId> + Clone) -> Option<WarpId> {
        let start = self.last.map_or(0, |l| l.wrapping_add(1));
        let pick = candidates
            .clone()
            .find(|w| w.0 >= start)
            .or_else(|| candidates.clone().next())?;
        self.last = Some(pick.0);
        Some(pick)
    }
}

impl WarpScheduler for Mascar {
    fn name(&self) -> &'static str {
        "mascar"
    }

    fn pick(&mut self, ready: &[ReadyWarp], ctx: &SchedCtx) -> Option<WarpId> {
        if ready.is_empty() {
            return None;
        }
        let saturated = ctx.mshr_occupancy >= SATURATION_THRESHOLD;
        if !saturated {
            self.owner = None;
            return self.round_robin(ready.iter().map(|r| r.id));
        }
        self.mp_cycles += 1;
        // MP mode. Ensure there is an owner with a memory instruction ready.
        let owner_ready = self
            .owner
            .and_then(|o| ready.iter().find(|r| r.id == o))
            .copied();
        match owner_ready {
            Some(o) if o.next_is_mem => return Some(o.id),
            Some(o) => {
                // Owner moved on to compute: it may issue, retaining
                // ownership until its memory phase resumes.
                return Some(o.id);
            }
            None => {}
        }
        // (Re)elect an owner among memory-ready warps.
        if let Some(mem_warp) = ready.iter().find(|r| r.next_is_mem) {
            self.owner = Some(mem_warp.id);
            return Some(mem_warp.id);
        }
        // No memory warp: compute warps proceed round-robin.
        self.round_robin(ready.iter().filter(|r| !r.next_is_mem).map(|r| r.id))
    }

    fn on_warp_finished(&mut self, warp: WarpId) {
        if self.owner == Some(warp) {
            self.owner = None;
        }
    }

    fn on_warp_launched(&mut self, warp: WarpId) {
        // The slot now runs a different thread block.
        if self.owner == Some(warp) {
            self.owner = None;
        }
    }

    fn on_issue(&mut self, _warp: WarpId, _now: Cycle) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ctx, ready, ready_mem};

    #[test]
    fn unsaturated_round_robin() {
        let mut s = Mascar::new();
        let c = ctx(0.2);
        let r = ready(&[0, 1, 2]);
        let picks: Vec<u32> = (0..4).map(|_| s.pick(&r, &c).unwrap().0).collect();
        assert_eq!(picks, vec![0, 1, 2, 0]);
        assert_eq!(s.owner(), None);
    }

    #[test]
    fn saturation_elects_memory_owner() {
        let mut s = Mascar::new();
        let c = ctx(0.9);
        let r = ready_mem(&[(0, false), (1, true), (2, true)]);
        // First memory-ready warp becomes owner.
        assert_eq!(s.pick(&r, &c).unwrap().0, 1);
        assert_eq!(s.owner(), Some(WarpId(1)));
        // Owner keeps issuing memory ops; warp 2's memory op must wait.
        assert_eq!(s.pick(&r, &c).unwrap().0, 1);
    }

    #[test]
    fn non_owner_compute_proceeds_when_owner_stalled() {
        let mut s = Mascar::new();
        let c = ctx(0.9);
        s.pick(&ready_mem(&[(1, true)]), &c); // elect warp 1
                                              // Owner not ready; only compute warps are.
        let r = ready_mem(&[(0, false), (2, false)]);
        let p = s.pick(&r, &c).unwrap();
        assert!(p.0 == 0 || p.0 == 2);
    }

    #[test]
    fn owner_stalled_and_other_mem_ready_reelects() {
        let mut s = Mascar::new();
        let c = ctx(0.9);
        s.pick(&ready_mem(&[(1, true)]), &c);
        // Owner warp 1 is stalled (absent); warp 3 has a memory op.
        let r = ready_mem(&[(3, true), (4, false)]);
        assert_eq!(s.pick(&r, &c).unwrap().0, 3);
        assert_eq!(s.owner(), Some(WarpId(3)));
    }

    #[test]
    fn desaturation_clears_owner() {
        let mut s = Mascar::new();
        s.pick(&ready_mem(&[(1, true)]), &ctx(0.9));
        assert!(s.owner().is_some());
        s.pick(&ready(&[0, 1]), &ctx(0.1));
        assert_eq!(s.owner(), None);
    }

    #[test]
    fn finished_owner_released() {
        let mut s = Mascar::new();
        s.pick(&ready_mem(&[(1, true)]), &ctx(0.9));
        s.on_warp_finished(WarpId(1));
        assert_eq!(s.owner(), None);
    }

    #[test]
    fn empty_stalls() {
        assert_eq!(Mascar::new().pick(&[], &ctx(0.9)), None);
    }
}
