//! Cache-Conscious Wavefront Scheduling (Rogers et al., MICRO-45).
//!
//! CCWS detects *lost intra-warp locality*: each warp owns a small victim
//! tag array (VTA) of lines it recently touched; an L1 miss that hits the
//! warp's own VTA means the line was evicted before the warp could reuse it.
//! Each VTA hit bumps the warp's lost-locality score; scores decay over
//! time. The sum of scores throttles the number of schedulable warps — high
//! lost locality ⇒ fewer active warps ⇒ more cache per warp. Within the
//! allowed set, warps with higher scores are prioritised (they own the
//! cache).
//!
//! Simplifications vs. the original RTL-level description (documented per
//! DESIGN.md): the VTA is a per-warp FIFO over line addresses rather than a
//! set-indexed structure, and the throttle maps the aggregate score linearly
//! onto the active-warp count. Both preserve the feedback loop the paper
//! evaluates.

use gpu_common::{LineAddr, WarpId};
use gpu_sm::traits::{L1Event, ReadyWarp, SchedCtx, SchedFeedback, WarpScheduler};
use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};

/// Victim-tag entries per warp.
const VTA_ENTRIES: usize = 16;
/// Score added on a VTA hit.
const VTA_HIT_SCORE: u64 = 64;
/// Score subtracted from every warp once per scheduling round (one round =
/// `warps_per_sm` picks), so a warp that stops losing locality cools off in
/// a few hundred instructions without drowning the VTA gain.
const DECAY_PER_ROUND: u64 = 1;
/// Aggregate score at which the throttle reaches its minimum warp count.
const SCORE_FULL_THROTTLE: u64 = 8 * VTA_HIT_SCORE;
/// Never throttle below this many warps.
const MIN_ACTIVE_WARPS: usize = 4;

#[derive(Debug, Clone, Default)]
struct WarpLocality {
    vta: VecDeque<LineAddr>,
    score: u64,
}

/// Cache-conscious wavefront scheduler with dynamic warp throttling.
#[derive(Debug, Clone, Default)]
pub struct Ccws {
    // BTreeMap, not HashMap: score sums and the per-round decay iterate
    // the table, so visit order must be WarpId order, not a per-process
    // RandomState (`clippy.toml` bans HashMap, DESIGN.md §12).
    warps: BTreeMap<WarpId, WarpLocality>,
    /// `pick`'s ready warps as (score desc, id asc) keys; reused per pick.
    ranked: Vec<(Reverse<u64>, u32)>,
    table_accesses: u64,
    last: Option<u32>,
    picks: u64,
}

impl Ccws {
    /// Creates a CCWS scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lost-locality score of `warp` (diagnostics/tests).
    pub fn score(&self, warp: WarpId) -> u64 {
        self.warps.get(&warp).map_or(0, |w| w.score)
    }

    fn total_score(&self) -> u64 {
        self.warps.values().map(|w| w.score).sum()
    }

    /// Number of warps currently allowed to issue.
    fn allowed_warps(&self, warps_per_sm: usize) -> usize {
        let total = self.total_score().min(SCORE_FULL_THROTTLE);
        let frac = total as f64 / SCORE_FULL_THROTTLE as f64;
        let span = warps_per_sm.saturating_sub(MIN_ACTIVE_WARPS) as f64;
        let cut = (frac * span).round() as usize;
        (warps_per_sm - cut).max(MIN_ACTIVE_WARPS)
    }
}

impl WarpScheduler for Ccws {
    fn name(&self) -> &'static str {
        "ccws"
    }

    fn pick(&mut self, ready: &[ReadyWarp], ctx: &SchedCtx) -> Option<WarpId> {
        if ready.is_empty() {
            return None;
        }
        let allowed = self.allowed_warps(ctx.warps_per_sm);
        // The allowed set is the `allowed` highest-scoring warps by ID-stable
        // order: sort the keys (score desc, id asc) and keep the prefix.
        // Warps outside the cut may not issue (throttled).
        let mut ranked = std::mem::take(&mut self.ranked);
        ranked.clear();
        ranked.extend(ready.iter().map(|r| (Reverse(self.score(r.id)), r.id.0)));
        ranked.sort_unstable();
        ranked.truncate(allowed);
        // Round-robin by warp ID among allowed warps for fairness inside the
        // cut: the lowest ID from `start` on, else the lowest.
        let start = self.last.map_or(0, |l| l.wrapping_add(1));
        let ids = ranked.iter().map(|&(_, id)| id);
        let pick = ids
            .clone()
            .filter(|&id| id >= start)
            .min()
            .or_else(|| ids.min());
        self.ranked = ranked;
        let pick = WarpId(pick?);
        self.last = Some(pick.0);
        // Decay once per scheduling round.
        self.picks += 1;
        if self.picks.is_multiple_of(ctx.warps_per_sm as u64) {
            for w in self.warps.values_mut() {
                w.score = w.score.saturating_sub(DECAY_PER_ROUND);
            }
        }
        Some(pick)
    }

    fn on_l1_event(&mut self, ev: &L1Event) -> SchedFeedback {
        self.table_accesses += 1;
        let entry = self.warps.entry(ev.warp).or_default();
        if !ev.outcome.counts_as_hit() {
            // Miss: did this warp recently touch the line? Then locality was
            // lost to inter-warp contention.
            if entry.vta.contains(&ev.line) {
                entry.score += VTA_HIT_SCORE;
            }
        }
        // Track the access in the warp's VTA.
        if entry.vta.len() == VTA_ENTRIES {
            entry.vta.pop_front();
        }
        entry.vta.push_back(ev.line);
        SchedFeedback::default()
    }

    fn on_warp_finished(&mut self, warp: WarpId) {
        self.warps.remove(&warp);
    }

    fn on_warp_launched(&mut self, warp: WarpId) {
        // A fresh thread block has no locality history.
        self.warps.remove(&warp);
    }

    fn table_accesses(&self) -> u64 {
        self.table_accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ctx, ready};
    use gpu_common::{Addr, Pc};
    use gpu_sm::traits::L1Outcome;

    fn miss_event(warp: u32, line: u64) -> L1Event {
        L1Event {
            warp: WarpId(warp),
            pc: Pc(0x10),
            addr: Addr::new(line * 128),
            line: LineAddr(line),
            outcome: L1Outcome::Miss,
            now: 0,
        }
    }

    #[test]
    fn unthrottled_behaves_like_round_robin() {
        let mut s = Ccws::new();
        let c = ctx(0.0);
        let r = ready(&[0, 1, 2]);
        let picks: Vec<u32> = (0..4).map(|_| s.pick(&r, &c).unwrap().0).collect();
        assert_eq!(picks, vec![0, 1, 2, 0]);
    }

    #[test]
    fn repeated_miss_on_own_line_raises_score() {
        let mut s = Ccws::new();
        s.on_l1_event(&miss_event(0, 7)); // trains VTA
        assert_eq!(s.score(WarpId(0)), 0);
        s.on_l1_event(&miss_event(0, 7)); // lost locality!
        assert_eq!(s.score(WarpId(0)), VTA_HIT_SCORE);
    }

    #[test]
    fn other_warps_misses_do_not_score() {
        let mut s = Ccws::new();
        s.on_l1_event(&miss_event(0, 7));
        s.on_l1_event(&miss_event(1, 7)); // different warp, first touch
        assert_eq!(s.score(WarpId(1)), 0);
    }

    #[test]
    fn throttle_shrinks_active_set() {
        let mut s = Ccws::new();
        // Hammer lost locality on warps 0 and 1.
        for _ in 0..48 {
            s.on_l1_event(&miss_event(0, 7));
            s.on_l1_event(&miss_event(1, 9));
        }
        let allowed = s.allowed_warps(48);
        assert!(allowed < 48, "throttled: {allowed}");
        assert!(allowed >= MIN_ACTIVE_WARPS);
        // High-scoring warps stay schedulable.
        let c = ctx(0.0);
        let r = ready(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let p = s.pick(&r, &c).unwrap();
        assert!(p.0 <= 7);
    }

    #[test]
    fn full_throttle_prefers_high_score_warps() {
        let mut s = Ccws::new();
        // Push total score beyond full throttle, all on warp 3.
        for i in 0..1000u64 {
            s.on_l1_event(&miss_event(3, i % 4));
        }
        assert!(s.total_score() >= SCORE_FULL_THROTTLE / 2);
        let allowed = s.allowed_warps(48);
        assert_eq!(allowed, MIN_ACTIVE_WARPS);
        // Warp 3 must be inside the allowed cut.
        let c = ctx(0.0);
        let r = ready(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..12 {
            seen.insert(s.pick(&r, &c).unwrap().0);
        }
        assert!(seen.contains(&3), "high-score warp schedulable: {seen:?}");
        assert!(seen.len() <= MIN_ACTIVE_WARPS);
    }

    #[test]
    fn scores_decay() {
        let mut s = Ccws::new();
        s.on_l1_event(&miss_event(0, 7));
        s.on_l1_event(&miss_event(0, 7));
        let before = s.score(WarpId(0));
        let c = ctx(0.0);
        // ctx uses 48 warps/SM: decay ticks once every 48 picks.
        for _ in 0..48 * 10 {
            s.pick(&ready(&[0]), &c);
        }
        assert!(s.score(WarpId(0)) < before);
    }

    #[test]
    fn relaunched_warp_starts_clean() {
        let mut s = Ccws::new();
        s.on_l1_event(&miss_event(0, 7));
        s.on_l1_event(&miss_event(0, 7));
        assert!(s.score(WarpId(0)) > 0);
        s.on_warp_launched(WarpId(0));
        assert_eq!(s.score(WarpId(0)), 0);
    }

    #[test]
    fn finished_warp_forgotten() {
        let mut s = Ccws::new();
        s.on_l1_event(&miss_event(0, 7));
        s.on_l1_event(&miss_event(0, 7));
        s.on_warp_finished(WarpId(0));
        assert_eq!(s.score(WarpId(0)), 0);
        assert_eq!(s.total_score(), 0);
    }
}
