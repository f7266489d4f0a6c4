//! LAWS — Locality-Aware Warp Scheduling (Section IV-A, Figures 7 and 8).
//!
//! Structures (sizes per Table II):
//!
//! * **Scheduling queue** — warp IDs in priority order; the next issued warp
//!   is the first *ready* warp from the head. Because a freshly issued warp
//!   stalls on its pipeline latency, a group of leading warps naturally
//!   round-robins at the head, shrinking the working set in flight.
//! * **LLT** (Last Load Table, 48 × 4 B) — the PC of the last global load
//!   each warp issued. All global loads are considered long-latency
//!   "regardless they actually hit or missed the cache".
//! * **WGT** (Warp Group Table, 3 × 48-bit vector) — one entry per in-flight
//!   load between issue and its L1 access result; formed at issue time from
//!   all warps whose LLT entry matches the issuer's previous LLPC.
//!
//! On the L1 result for a grouped load: **hit** ⇒ the whole group moves to
//! the queue head (they will hit too); **miss** ⇒ the group moves to the
//! tail and the *other* group members are handed to the prefetcher; the
//! prefetcher's targets then move back to the head so their demands merge
//! into the prefetch MSHRs.

use gpu_common::config::ApresConfig;
use gpu_common::{Cycle, Pc, WarpId};
use gpu_sm::traits::{L1Event, ReadyWarp, SchedCtx, SchedFeedback, WarpScheduler};
use std::collections::VecDeque;

/// One Warp Group Table entry: the in-flight load instance it belongs to
/// and the member bit-vector.
#[derive(Debug, Clone)]
struct WgtEntry {
    issuer: WarpId,
    pc: Pc,
    members: u64,
}

/// The Locality-Aware Warp Scheduler.
#[derive(Debug, Clone)]
pub struct Laws {
    /// Scheduling queue, head first.
    queue: VecDeque<WarpId>,
    /// Last load PC per warp (`None` until the warp issues its first load).
    llt: Vec<Option<Pc>>,
    /// In-flight load groups (FIFO replacement, ≤ `wgt_entries`).
    wgt: VecDeque<WgtEntry>,
    wgt_entries: usize,
    demote_on_miss: bool,
    head_window: usize,
    table_accesses: u64,
    initialized: bool,
    head_rr: Option<u32>,
}

impl Laws {
    /// Creates a LAWS scheduler sized by `cfg` (Table II defaults).
    pub fn new(cfg: &ApresConfig) -> Self {
        Laws {
            queue: VecDeque::new(),
            llt: Vec::new(),
            wgt: VecDeque::new(),
            wgt_entries: cfg.wgt_entries,
            demote_on_miss: cfg.demote_on_miss,
            head_window: cfg.head_window,
            table_accesses: 0,
            initialized: false,
            head_rr: None,
        }
    }

    /// Creates a LAWS scheduler with the paper's structure sizes.
    pub fn with_defaults() -> Self {
        Self::new(&ApresConfig::default())
    }

    fn ensure_init(&mut self, warps_per_sm: usize) {
        if self.initialized {
            return;
        }
        self.queue = (0..warps_per_sm as u32).map(WarpId).collect();
        self.llt = vec![None; warps_per_sm];
        self.initialized = true;
    }

    /// Current queue order, head first (diagnostics/tests).
    pub fn queue_order(&self) -> Vec<WarpId> {
        self.queue.iter().copied().collect()
    }

    /// Moves `warps` (bitmask) to the queue head, preserving their relative
    /// order.
    fn move_to_head(&mut self, mask: u64) {
        self.move_to_front(|w| in_mask(mask, w));
    }

    /// Moves `warps` (bitmask) to the queue tail, preserving order.
    fn move_to_tail(&mut self, mask: u64) {
        self.move_to_front(|w| !in_mask(mask, w));
    }

    /// Stable in-place partition: every warp `front` accepts moves ahead of
    /// every other warp, each side keeping its order.
    fn move_to_front(&mut self, front: impl Fn(WarpId) -> bool) {
        let q = self.queue.make_contiguous();
        let mut k = 0;
        for i in 0..q.len() {
            if front(q[i]) {
                q[k..=i].rotate_right(1);
                k += 1;
            }
        }
    }

    fn mask_of(warps: impl Iterator<Item = WarpId>) -> u64 {
        warps.fold(0u64, |m, w| m | 1u64 << (w.0 % 64))
    }
}

/// `true` when `w`'s bit is set in `mask`.
fn in_mask(mask: u64, w: WarpId) -> bool {
    mask & (1u64 << (w.0 % 64)) != 0
}

impl WarpScheduler for Laws {
    fn name(&self) -> &'static str {
        "laws"
    }

    fn pick(&mut self, ready: &[ReadyWarp], ctx: &SchedCtx) -> Option<WarpId> {
        self.ensure_init(ctx.warps_per_sm);
        if ready.is_empty() {
            return None;
        }
        let mut ready_mask = 0u64;
        for r in ready {
            ready_mask |= 1u64 << (r.id.0 % 64);
        }
        // The paper's greedy queue round-robins over the leading group
        // ("8 warps will be scheduled in a round robin fashion", Section
        // IV): rotate within the head window, then fall back to the first
        // ready warp further down the queue.
        let window = self.head_window.min(self.queue.len());
        let start = self.head_rr.map_or(0, |l| l.wrapping_add(1));
        let mut head = self
            .queue
            .iter()
            .take(window)
            .copied()
            .filter(|&w| in_mask(ready_mask, w));
        if let Some(first) = head.next() {
            let pick = if first.0 >= start {
                first
            } else {
                head.find(|w| w.0 >= start).unwrap_or(first)
            };
            self.head_rr = Some(pick.0);
            return Some(pick);
        }
        self.queue
            .iter()
            .skip(window)
            .copied()
            .find(|&w| in_mask(ready_mask, w))
    }

    fn on_load_issue(&mut self, warp: WarpId, pc: Pc, _now: Cycle) {
        debug_assert!(self.initialized, "pick() runs before any issue");
        self.table_accesses += 2; // LLT read + write
        let llpc = self.llt[warp.index()];
        // Group every warp whose LLPC matches the issuer's previous LLPC.
        let members = match llpc {
            Some(prev) => {
                self.table_accesses += 1; // LLT search (CAM)
                Self::mask_of(
                    self.llt
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| **p == Some(prev))
                        .map(|(i, _)| WarpId(i as u32)),
                ) | 1u64 << (warp.0 % 64)
            }
            // First load of this warp: a singleton group. The L1 result
            // still classifies the load's type for scheduling.
            None => 1u64 << (warp.0 % 64),
        };
        self.llt[warp.index()] = Some(pc);
        // WGT holds only the loads in flight between issue and L1 access
        // (the paper sizes it to the 3 pipeline stages); FIFO-replace.
        if self.wgt.len() == self.wgt_entries {
            self.wgt.pop_front();
        }
        self.table_accesses += 1; // WGT write
        self.wgt.push_back(WgtEntry {
            issuer: warp,
            pc,
            members,
        });
    }

    fn on_l1_event(&mut self, ev: &L1Event) -> SchedFeedback {
        debug_assert!(self.initialized, "pick() runs before any L1 event");
        self.table_accesses += 1; // WGT lookup
        let Some(pos) = self
            .wgt
            .iter()
            .position(|e| e.issuer == ev.warp && e.pc == ev.pc)
        else {
            return SchedFeedback::default();
        };
        let Some(entry) = self.wgt.remove(pos) else {
            return SchedFeedback::default();
        };
        if ev.outcome.counts_as_hit() {
            // High-locality load: the grouped warps will hit too — run them
            // while the line is resident.
            self.move_to_head(entry.members);
            SchedFeedback::default()
        } else {
            // Strided load: deprioritise the group, but offer the other
            // members to the prefetcher (SAP) first.
            let others: Vec<WarpId> = self
                .queue
                .iter()
                .copied()
                .filter(|&w| in_mask(entry.members, w) && w != ev.warp)
                .collect();
            if self.demote_on_miss {
                self.move_to_tail(entry.members);
                // When the group covers (nearly) every warp, the move above
                // is order-preserving and the queue would freeze; demoting
                // the stalled issuer itself restores the head rotation the
                // paper's greedy queue relies on, at no locality cost (the
                // issuer is blocked on its miss anyway).
                self.move_to_tail(1u64 << (ev.warp.0 % 64));
            }
            SchedFeedback {
                prefetch_group: others,
            }
        }
    }

    fn on_prefetch_targets(&mut self, warps: &[WarpId]) {
        // "LAWS then moves the received prefetch target warps to the queue
        // head, so that these warps are prioritized."
        if warps.is_empty() {
            return;
        }
        self.move_to_head(Self::mask_of(warps.iter().copied()));
    }

    fn on_warp_finished(&mut self, warp: WarpId) {
        self.queue.retain(|w| *w != warp);
    }

    fn on_warp_launched(&mut self, warp: WarpId) {
        // A fresh block enters with the lowest priority.
        if !self.queue.contains(&warp) {
            self.queue.push_back(warp);
        }
    }

    fn table_accesses(&self) -> u64 {
        self.table_accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_common::{Addr, LineAddr};
    use gpu_sm::traits::L1Outcome;

    fn ready(ids: &[u32]) -> Vec<ReadyWarp> {
        ids.iter()
            .map(|&i| ReadyWarp {
                id: WarpId(i),
                next_is_mem: false,
                next_is_load: false,
                next_pc: Pc(0x100),
            })
            .collect()
    }

    fn ctx() -> SchedCtx {
        SchedCtx {
            now: 0,
            mshr_occupancy: 0.0,
            warps_per_sm: 8,
        }
    }

    fn event(warp: u32, pc: u64, outcome: L1Outcome) -> L1Event {
        L1Event {
            warp: WarpId(warp),
            pc: Pc(pc),
            addr: Addr::new(0x1000),
            line: LineAddr(32),
            outcome,
            now: 0,
        }
    }

    fn laws_with_groups() -> Laws {
        let mut s = Laws::with_defaults();
        s.pick(&ready(&[0]), &ctx()); // init with 8 warps
        // Warps 0, 2, 3 execute load 0x10 (same LLPC afterwards).
        for w in [0, 2, 3] {
            s.on_load_issue(WarpId(w), Pc(0x10), 0);
        }
        s
    }

    #[test]
    fn queue_starts_in_warp_order_and_greedy_picks_head() {
        let mut s = Laws::with_defaults();
        assert_eq!(s.pick(&ready(&[2, 5]), &ctx()).unwrap().0, 2);
        assert_eq!(s.queue_order()[0], WarpId(0));
        // Head preferred when ready.
        assert_eq!(s.pick(&ready(&[0, 1, 2]), &ctx()).unwrap().0, 0);
    }

    #[test]
    fn grouping_follows_llpc() {
        let mut s = laws_with_groups();
        // Warp 0 issues the *next* load 0x20: group = warps with LLPC 0x10 =
        // {0, 2, 3}.
        s.on_load_issue(WarpId(0), Pc(0x20), 1);
        let entry = s.wgt.back().unwrap();
        assert_eq!(entry.pc, Pc(0x20));
        assert_eq!(entry.members & 0b1101, 0b1101);
        assert_eq!(entry.members & 0b0010, 0, "warp 1 not grouped");
    }

    #[test]
    fn hit_moves_group_to_head() {
        let mut s = laws_with_groups();
        s.on_load_issue(WarpId(0), Pc(0x20), 1);
        let fb = s.on_l1_event(&event(0, 0x20, L1Outcome::Hit));
        assert!(fb.prefetch_group.is_empty());
        let order = s.queue_order();
        assert_eq!(&order[..3], &[WarpId(0), WarpId(2), WarpId(3)]);
    }

    #[test]
    fn miss_moves_group_to_tail_and_triggers_prefetch() {
        let mut s = laws_with_groups();
        s.on_load_issue(WarpId(0), Pc(0x20), 1);
        let fb = s.on_l1_event(&event(0, 0x20, L1Outcome::Miss));
        assert_eq!(fb.prefetch_group, vec![WarpId(2), WarpId(3)]);
        let order = s.queue_order();
        // Group demoted to the tail; the stalled issuer (W0) goes last so
        // the head rotation never freezes on degenerate full-queue groups.
        assert_eq!(&order[5..], &[WarpId(2), WarpId(3), WarpId(0)]);
        // Group consumed: a second event is a no-op.
        let fb2 = s.on_l1_event(&event(0, 0x20, L1Outcome::Miss));
        assert!(fb2.prefetch_group.is_empty());
    }

    #[test]
    fn prefetch_targets_promoted() {
        let mut s = laws_with_groups();
        s.on_load_issue(WarpId(0), Pc(0x20), 1);
        s.on_l1_event(&event(0, 0x20, L1Outcome::Miss));
        s.on_prefetch_targets(&[WarpId(2), WarpId(3)]);
        let order = s.queue_order();
        assert_eq!(&order[..2], &[WarpId(2), WarpId(3)]);
        // The missing warp itself stays at the tail.
        assert_eq!(order[7], WarpId(0));
    }

    #[test]
    fn merged_counts_as_hit_for_grouping() {
        let mut s = laws_with_groups();
        s.on_load_issue(WarpId(0), Pc(0x20), 1);
        let fb = s.on_l1_event(&event(0, 0x20, L1Outcome::Merged { into_prefetch: true }));
        assert!(fb.prefetch_group.is_empty());
        assert_eq!(s.queue_order()[0], WarpId(0));
    }

    #[test]
    fn wgt_capacity_is_fifo() {
        // Use the paper's Table II geometry (3 WGT entries) to exercise
        // FIFO replacement.
        let mut s = Laws::new(&gpu_common::config::ApresConfig::table_ii());
        s.pick(&ready(&[0]), &ctx());
        for w in [0, 2, 3] {
            s.on_load_issue(WarpId(w), Pc(0x10), 0);
        }
        for (i, pc) in [0x20u64, 0x28, 0x30, 0x38].iter().enumerate() {
            s.on_load_issue(WarpId(i as u32 % 4), Pc(*pc), i as u64);
        }
        assert_eq!(s.wgt.len(), 3);
        // The 0x20 group aged out: its event finds nothing.
        let fb = s.on_l1_event(&event(0, 0x20, L1Outcome::Miss));
        assert!(fb.prefetch_group.is_empty());
    }

    #[test]
    fn first_load_forms_singleton_group() {
        let mut s = Laws::with_defaults();
        s.pick(&ready(&[0]), &ctx());
        s.on_load_issue(WarpId(5), Pc(0x10), 0);
        let fb = s.on_l1_event(&event(5, 0x10, L1Outcome::Miss));
        assert!(fb.prefetch_group.is_empty(), "no other members to prefetch");
        // Warp 5 demoted to tail.
        assert_eq!(*s.queue_order().last().unwrap(), WarpId(5));
    }

    #[test]
    fn finished_warp_leaves_queue() {
        let mut s = laws_with_groups();
        s.on_warp_finished(WarpId(0));
        assert!(!s.queue_order().contains(&WarpId(0)));
        assert_eq!(s.pick(&ready(&[0, 1]), &ctx()).unwrap().0, 1);
    }

    #[test]
    fn table_accesses_counted() {
        let s = laws_with_groups();
        assert!(s.table_accesses() > 0);
    }

    #[test]
    fn head_window_round_robins() {
        let mut s = Laws::with_defaults();
        let r = ready(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let picks: Vec<u32> = (0..10).map(|_| s.pick(&r, &ctx()).unwrap().0).collect();
        // All of the 8-warp ready set participates (8-wide head window).
        let distinct: std::collections::BTreeSet<u32> = picks.iter().copied().collect();
        assert_eq!(distinct.len(), 8, "{picks:?}");
    }

    #[test]
    fn falls_through_past_blocked_head() {
        let mut s = Laws::with_defaults();
        s.pick(&ready(&[0]), &ctx()); // init 8 warps
        // Only a warp beyond the head window region is ready.
        let r = ready(&[7]);
        assert_eq!(s.pick(&r, &ctx()).unwrap().0, 7);
        // Nothing ready → None.
        assert_eq!(s.pick(&[], &ctx()), None);
    }

    #[test]
    fn demote_disabled_keeps_order() {
        let cfg = gpu_common::config::ApresConfig {
            demote_on_miss: false,
            ..Default::default()
        };
        let mut s = Laws::new(&cfg);
        s.pick(&ready(&[0]), &ctx());
        for w in [0, 2, 3] {
            s.on_load_issue(WarpId(w), Pc(0x10), 0);
        }
        s.on_load_issue(WarpId(0), Pc(0x20), 1);
        let before = s.queue_order();
        s.on_l1_event(&event(0, 0x20, L1Outcome::Miss));
        assert_eq!(s.queue_order(), before, "no demotion when disabled");
    }

    #[test]
    fn relaunched_warp_reenters_at_tail() {
        let mut s = Laws::with_defaults();
        s.pick(&ready(&[0]), &ctx());
        s.on_warp_finished(WarpId(0));
        assert!(!s.queue_order().contains(&WarpId(0)));
        s.on_warp_launched(WarpId(0));
        assert_eq!(*s.queue_order().last().unwrap(), WarpId(0));
        // Double launch does not duplicate.
        s.on_warp_launched(WarpId(0));
        assert_eq!(
            s.queue_order().iter().filter(|w| w.0 == 0).count(),
            1
        );
    }
}
