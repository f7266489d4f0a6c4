//! Two-level warp scheduling (Narasiman et al., MICRO-44).
//!
//! Warps are statically partitioned into *fetch groups* of consecutive IDs.
//! One group is active at a time and served round-robin; when no warp of the
//! active group can issue, the scheduler switches to the next group. The
//! staggering lets one group's memory latency overlap another group's
//! compute (Section VI, "Warp Scheduling Techniques").

use gpu_common::{Cycle, WarpId};
use gpu_sm::traits::{ReadyWarp, SchedCtx, WarpScheduler};

/// Two-level fetch-group scheduler.
#[derive(Debug, Clone)]
pub struct TwoLevel {
    group_size: u32,
    active_group: u32,
    last_in_group: Option<u32>,
}

impl TwoLevel {
    /// Creates a two-level scheduler with the given fetch-group size.
    ///
    /// # Panics
    ///
    /// Panics if `group_size` is zero.
    pub fn new(group_size: u32) -> Self {
        assert!(group_size > 0);
        TwoLevel {
            group_size,
            active_group: 0,
            last_in_group: None,
        }
    }

    fn group_of(&self, w: WarpId) -> u32 {
        w.0 / self.group_size
    }
}

impl WarpScheduler for TwoLevel {
    fn name(&self) -> &'static str {
        "two-level"
    }

    fn pick(&mut self, ready: &[ReadyWarp], ctx: &SchedCtx) -> Option<WarpId> {
        if ready.is_empty() {
            return None;
        }
        let num_groups = (ctx.warps_per_sm as u32).div_ceil(self.group_size);
        // Find a group (starting from the active one) with a ready warp.
        for hop in 0..num_groups {
            let g = (self.active_group + hop) % num_groups;
            let in_group = || {
                ready
                    .iter()
                    .map(|r| r.id)
                    .filter(|&w| self.group_of(w) == g)
            };
            let Some(first) = in_group().next() else {
                continue;
            };
            // Switching groups restarts the round-robin pointer.
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
    fn serves_active_group_round_robin() {
        let mut s = TwoLevel::new(4);
        let c = ctx(0.0);
        let r = ready(&[0, 1, 2, 3, 4, 5]);
        let picks: Vec<u32> = (0..5).map(|_| s.pick(&r, &c).unwrap().0).collect();
        // Group 0 = warps 0..4; round-robin within it.
        assert_eq!(picks, vec![0, 1, 2, 3, 0]);
    }

    #[test]
    fn switches_group_when_active_stalls() {
        let mut s = TwoLevel::new(4);
        let c = ctx(0.0);
        assert_eq!(s.pick(&ready(&[0, 5]), &c).unwrap().0, 0);
        // Group 0 all stalled → group 1 takes over.
        assert_eq!(s.pick(&ready(&[5, 6]), &c).unwrap().0, 5);
        assert_eq!(s.pick(&ready(&[5, 6]), &c).unwrap().0, 6);
        // Group 1 remains active even when group 0 wakes up.
        assert_eq!(s.pick(&ready(&[0, 5, 6]), &c).unwrap().0, 5);
    }

    #[test]
    fn wraps_around_groups() {
        let mut s = TwoLevel::new(8);
        let c = ctx(0.0); // 48 warps → 6 groups
                          // Only a warp in the last group is ready.
        assert_eq!(s.pick(&ready(&[47]), &c).unwrap().0, 47);
        assert_eq!(s.active_group, 5);
        // Then only group 0.
        assert_eq!(s.pick(&ready(&[2]), &c).unwrap().0, 2);
        assert_eq!(s.active_group, 0);
    }

    #[test]
    fn empty_stalls() {
        assert_eq!(TwoLevel::new(8).pick(&[], &ctx(0.0)), None);
    }
}
