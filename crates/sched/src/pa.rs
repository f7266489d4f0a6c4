//! Prefetch-Aware (PA) two-level scheduling (Jog et al., ISCA 2013,
//! "Orchestrated Scheduling and Prefetching for GPGPUs").
//!
//! Plain two-level scheduling puts *consecutive* warps in the same fetch
//! group; since consecutive warps access consecutive addresses, a simple
//! prefetcher trained inside one group can only prefetch data the same group
//! is about to fetch anyway. PA instead forms groups from **non-consecutive
//! warps** (interleaved assignment: warp `w` belongs to group
//! `w mod num_groups`), so the addresses of the *next* group lie a fixed
//! stride away from the active group's — exactly what a stride prefetcher
//! can cover while the active group computes.
//!
//! Scheduling mechanics are otherwise identical to two-level: one active
//! group served round-robin; switch when the group stalls.

use gpu_common::{Cycle, WarpId};
use gpu_sm::traits::{ReadyWarp, SchedCtx, WarpScheduler};

/// Prefetch-aware two-level scheduler with interleaved fetch groups.
#[derive(Debug, Clone)]
pub struct Pa {
    group_size: u32,
    active_group: u32,
    last_in_group: Option<u32>,
}

impl Pa {
    /// Creates a PA scheduler whose groups hold `group_size` warps.
    ///
    /// # Panics
    ///
    /// Panics if `group_size` is zero.
    pub fn new(group_size: u32) -> Self {
        assert!(group_size > 0);
        Pa {
            group_size,
            active_group: 0,
            last_in_group: None,
        }
    }

    fn num_groups(&self, warps_per_sm: usize) -> u32 {
        (warps_per_sm as u32).div_ceil(self.group_size)
    }

    /// Interleaved membership: consecutive warps land in different groups.
    fn group_of(&self, w: WarpId, num_groups: u32) -> u32 {
        w.0 % num_groups
    }
}

impl WarpScheduler for Pa {
    fn name(&self) -> &'static str {
        "pa"
    }

    fn pick(&mut self, ready: &[ReadyWarp], ctx: &SchedCtx) -> Option<WarpId> {
        if ready.is_empty() {
            return None;
        }
        let num_groups = self.num_groups(ctx.warps_per_sm);
        for hop in 0..num_groups {
            let g = (self.active_group + hop) % num_groups;
            let in_group = || {
                ready
                    .iter()
                    .map(|r| r.id)
                    .filter(|&w| self.group_of(w, num_groups) == g)
            };
            let Some(first) = in_group().next() else {
                continue;
            };
            let start = match self.last_in_group {
                Some(l) if hop == 0 => l.wrapping_add(1),
                _ => 0,
            };
            let pick = in_group().find(|w| w.0 >= start).unwrap_or(first);
            self.active_group = g;
            self.last_in_group = Some(pick.0);
            return Some(pick);
        }
        None
    }

    fn on_issue(&mut self, _warp: WarpId, _now: Cycle) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ctx, ready};

    #[test]
    fn groups_are_interleaved() {
        let s = Pa::new(8); // 48 warps → 6 groups
        assert_eq!(s.group_of(WarpId(0), 6), 0);
        assert_eq!(s.group_of(WarpId(1), 6), 1);
        assert_eq!(s.group_of(WarpId(6), 6), 0);
        assert_eq!(s.group_of(WarpId(7), 6), 1);
    }

    #[test]
    fn active_group_round_robin_over_strided_warps() {
        let mut s = Pa::new(8);
        let c = ctx(0.0);
        // Group 0 of 6 groups = warps 0, 6, 12, 18, ...
        let r = ready(&[0, 1, 6, 7, 12]);
        let picks: Vec<u32> = (0..4).map(|_| s.pick(&r, &c).unwrap().0).collect();
        assert_eq!(picks, vec![0, 6, 12, 0]);
    }

    #[test]
    fn switches_to_next_group_on_stall() {
        let mut s = Pa::new(8);
        let c = ctx(0.0);
        assert_eq!(s.pick(&ready(&[0, 1]), &c).unwrap().0, 0);
        // Group 0 stalled; group 1 (warps 1, 7, 13…) takes over.
        assert_eq!(s.pick(&ready(&[1, 7]), &c).unwrap().0, 1);
        assert_eq!(s.pick(&ready(&[1, 7]), &c).unwrap().0, 7);
    }

    #[test]
    fn empty_stalls() {
        assert_eq!(Pa::new(8).pick(&[], &ctx(0.0)), None);
    }
}
