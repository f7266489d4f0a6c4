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

use gpu_common::{LineAddr, WarpId, MAX_WARPS_PER_SM};
use gpu_sm::traits::{L1Event, ReadyWarp, SchedCtx, SchedFeedback, WarpScheduler};
use std::cmp::Reverse;

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

/// One warp's locality state: its VTA as an inline FIFO and its score.
#[derive(Debug, Clone, Copy, Default)]
struct WarpLocality {
    /// The last `len` lines the warp touched; once full, the oldest sits
    /// at `next` and is the next overwritten.
    vta: [LineAddr; VTA_ENTRIES],
    len: u8,
    next: u8,
    score: u64,
}

impl WarpLocality {
    fn vta_contains(&self, line: LineAddr) -> bool {
        self.vta[..usize::from(self.len)].contains(&line)
    }

    /// Records `line`, evicting the oldest tag when the VTA is full.
    fn vta_push(&mut self, line: LineAddr) {
        self.vta[usize::from(self.next)] = line;
        self.next = (self.next + 1) % VTA_ENTRIES as u8;
        self.len = (self.len + 1).min(VTA_ENTRIES as u8);
    }
}

/// Cache-conscious wavefront scheduler with dynamic warp throttling.
#[derive(Debug, Clone)]
pub struct Ccws {
    /// Per-warp locality, indexed by warp ID (`GpuConfig::validate` caps
    /// an SM at `MAX_WARPS_PER_SM` warps).
    warps: Box<[WarpLocality]>,
    /// Sum of every warp's score, kept in step with each change.
    total: u64,
    /// `pick`'s ready warps as (score desc, id asc) keys; reused per
    /// throttled pick.
    ranked: Vec<(Reverse<u64>, u32)>,
    table_accesses: u64,
    last: Option<u32>,
    picks: u64,
}

impl Default for Ccws {
    fn default() -> Self {
        Ccws {
            warps: vec![WarpLocality::default(); MAX_WARPS_PER_SM].into_boxed_slice(),
            total: 0,
            ranked: Vec::new(),
            table_accesses: 0,
            last: None,
            picks: 0,
        }
    }
}

impl Ccws {
    /// Creates a CCWS scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lost-locality score of `warp` (diagnostics/tests).
    pub fn score(&self, warp: WarpId) -> u64 {
        self.warps[warp.index()].score
    }

    /// A retired warp has no locality history.
    fn forget(&mut self, warp: WarpId) {
        let w = &mut self.warps[warp.index()];
        self.total -= w.score;
        *w = WarpLocality::default();
    }
}

/// Number of warps allowed to issue at aggregate score `total`.
fn allowed_warps(total: u64, warps_per_sm: usize) -> usize {
    let total = total.min(SCORE_FULL_THROTTLE);
    let frac = total as f64 / SCORE_FULL_THROTTLE as f64;
    let span = warps_per_sm.saturating_sub(MIN_ACTIVE_WARPS) as f64;
    let cut = (frac * span).round() as usize;
    (warps_per_sm - cut).max(MIN_ACTIVE_WARPS)
}

impl WarpScheduler for Ccws {
    fn name(&self) -> &'static str {
        "ccws"
    }

    fn pick(&mut self, ready: &[ReadyWarp], ctx: &SchedCtx) -> Option<WarpId> {
        let first = ready.first()?;
        let allowed = allowed_warps(self.total, ctx.warps_per_sm);
        // Round-robin by warp ID among allowed warps for fairness inside the
        // cut: the lowest ID from `start` on, else the lowest.
        let start = self.last.map_or(0, |l| l.wrapping_add(1));
        let pick = if ready.len() <= allowed {
            // The cut keeps every ready warp, and `ready` is ID-sorted.
            ready.iter().find(|r| r.id.0 >= start).unwrap_or(first).id
        } else {
            // The allowed set is the `allowed` highest-scoring warps by
            // ID-stable order: sort the keys (score desc, id asc) and keep
            // the prefix. Warps outside the cut may not issue (throttled).
            let mut ranked = std::mem::take(&mut self.ranked);
            ranked.clear();
            ranked.extend(ready.iter().map(|r| (Reverse(self.score(r.id)), r.id.0)));
            ranked.sort_unstable();
            ranked.truncate(allowed);
            let ids = ranked.iter().map(|&(_, id)| id);
            let pick = ids
                .clone()
                .filter(|&id| id >= start)
                .min()
                .or_else(|| ids.min());
            self.ranked = ranked;
            WarpId(pick?)
        };
        self.last = Some(pick.0);
        // Decay once per scheduling round.
        self.picks += 1;
        if self.picks.is_multiple_of(ctx.warps_per_sm as u64) {
            for w in self.warps.iter_mut() {
                let cut = w.score.min(DECAY_PER_ROUND);
                w.score -= cut;
                self.total -= cut;
            }
        }
        Some(pick)
    }

    fn on_l1_event(&mut self, ev: &L1Event) -> SchedFeedback {
        self.table_accesses += 1;
        let entry = &mut self.warps[ev.warp.index()];
        // Miss: did this warp recently touch the line? Then locality was
        // lost to inter-warp contention.
        if !ev.outcome.counts_as_hit() && entry.vta_contains(ev.line) {
            entry.score += VTA_HIT_SCORE;
            self.total += VTA_HIT_SCORE;
        }
        // Track the access in the warp's VTA.
        entry.vta_push(ev.line);
        SchedFeedback::default()
    }

    fn on_warp_finished(&mut self, warp: WarpId) {
        self.forget(warp);
    }

    fn table_accesses(&self) -> u64 {
        self.table_accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ctx, ready};
    use gpu_common::rng::Xoshiro256;
    use gpu_common::{Addr, Pc};
    use gpu_sm::traits::L1Outcome;
    use std::collections::{BTreeMap, VecDeque};

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
        let allowed = allowed_warps(s.total, 48);
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
        assert!(s.total >= SCORE_FULL_THROTTLE / 2);
        let allowed = allowed_warps(s.total, 48);
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
    fn finished_warp_forgotten() {
        let mut s = Ccws::new();
        s.on_l1_event(&miss_event(0, 7));
        s.on_l1_event(&miss_event(0, 7));
        s.on_warp_finished(WarpId(0));
        assert_eq!(s.score(WarpId(0)), 0);
        assert_eq!(s.total, 0);
    }

    /// The `BTreeMap` CCWS the flat table replaced: the reference model.
    #[derive(Default)]
    struct RefCcws {
        warps: BTreeMap<WarpId, (VecDeque<LineAddr>, u64)>,
        last: Option<u32>,
        picks: u64,
    }

    impl RefCcws {
        fn score(&self, warp: WarpId) -> u64 {
            self.warps.get(&warp).map_or(0, |w| w.1)
        }

        fn total(&self) -> u64 {
            self.warps.values().map(|w| w.1).sum()
        }

        fn pick(&mut self, ready: &[ReadyWarp], ctx: &SchedCtx) -> Option<WarpId> {
            if ready.is_empty() {
                return None;
            }
            let mut ranked: Vec<(Reverse<u64>, u32)> = ready
                .iter()
                .map(|r| (Reverse(self.score(r.id)), r.id.0))
                .collect();
            ranked.sort_unstable();
            ranked.truncate(allowed_warps(self.total(), ctx.warps_per_sm));
            let start = self.last.map_or(0, |l| l.wrapping_add(1));
            let ids = ranked.iter().map(|&(_, id)| id);
            let pick = ids
                .clone()
                .filter(|&id| id >= start)
                .min()
                .or_else(|| ids.min());
            let pick = WarpId(pick?);
            self.last = Some(pick.0);
            self.picks += 1;
            if self.picks.is_multiple_of(ctx.warps_per_sm as u64) {
                for w in self.warps.values_mut() {
                    w.1 = w.1.saturating_sub(DECAY_PER_ROUND);
                }
            }
            Some(pick)
        }

        fn on_l1_event(&mut self, ev: &L1Event) {
            let (vta, score) = self.warps.entry(ev.warp).or_default();
            if !ev.outcome.counts_as_hit() && vta.contains(&ev.line) {
                *score += VTA_HIT_SCORE;
            }
            if vta.len() == VTA_ENTRIES {
                vta.pop_front();
            }
            vta.push_back(ev.line);
        }
    }

    /// Drives the flat table and the reference model with one random
    /// stream of picks, L1 events and finishes, comparing every pick,
    /// score and total. Returns (throttled picks, picks with one
    /// ready warp more than the cut allows).
    fn replay_against_reference(seed: u64, warps_per_sm: usize, ops: usize) -> (u64, u64) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut flat = Ccws::new();
        let mut reference = RefCcws::default();
        let c = SchedCtx {
            now: 0,
            mshr_occupancy: 0.0,
            warps_per_sm,
        };
        let (mut throttled, mut one_over) = (0, 0);
        let mut density = 0.5;
        for op in 0..ops {
            let warp = WarpId(rng.next_below(warps_per_sm as u64) as u32);
            match rng.next_below(20) {
                0..=9 => {
                    if op % 64 == 0 {
                        density = 0.05 + 0.9 * rng.next_below(1000) as f64 / 1000.0;
                    }
                    let ids: Vec<u32> = (0..warps_per_sm as u32)
                        .filter(|_| rng.chance(density))
                        .collect();
                    let allowed = allowed_warps(flat.total, warps_per_sm);
                    throttled += u64::from(ids.len() > allowed);
                    one_over += u64::from(ids.len() == allowed + 1);
                    let r = ready(&ids);
                    assert_eq!(flat.pick(&r, &c), reference.pick(&r, &c), "op {op}");
                }
                10..=17 => {
                    let outcome = match rng.next_below(3) {
                        0 => L1Outcome::Hit,
                        1 => L1Outcome::Merged {
                            into_prefetch: false,
                        },
                        _ => L1Outcome::Miss,
                    };
                    let ev = L1Event {
                        outcome,
                        ..miss_event(warp.0, rng.next_below(24))
                    };
                    flat.on_l1_event(&ev);
                    reference.on_l1_event(&ev);
                }
                _ => {
                    flat.on_warp_finished(warp);
                    reference.warps.remove(&warp);
                }
            }
            for w in 0..warps_per_sm as u32 {
                assert_eq!(flat.score(WarpId(w)), reference.score(WarpId(w)), "op {op}");
            }
            assert_eq!(flat.total, reference.total(), "op {op}");
        }
        (throttled, one_over)
    }

    #[test]
    fn flat_table_matches_the_reference_model() {
        let (mut throttled, mut one_over) = (0, 0);
        for (seed, warps_per_sm) in [(1, 8), (2, 16), (3, 48), (4, 64), (5, 48), (6, 5)] {
            let (t, o) = replay_against_reference(seed, warps_per_sm, 6_000);
            throttled += t;
            one_over += o;
        }
        assert!(throttled > 500, "throttled picks: {throttled}");
        assert!(one_over > 20, "picks one warp over the cut: {one_over}");
    }
}
