//! Load/store unit.
//!
//! The LSU accepts one coalesced warp memory instruction per issue, then
//! feeds its line requests to the L1 one per cycle. It tracks, per dynamic
//! instruction, how many lines are still unresolved so the warp can be woken
//! exactly when its last line arrives. MSHR exhaustion stalls the unit (the
//! head line retries), modelling the structural hazard that makes warp
//! throttling matter. Until an MSHR is released such a retry is refused
//! again, so the unit repeats it through [`L1Cache::retry_rejected_load`]
//! instead of a full access.

use crate::traits::{L1Event, L1Outcome};
use gpu_common::{Addr, Cycle, LaneList, LineAddr, Pc, SmId, WarpId};
use gpu_mem::l1::{L1AccessOutcome, L1Cache};
use gpu_mem::mshr::MshrEntry;
use gpu_mem::request::MemRequest;
use std::collections::VecDeque;

/// Key identifying one dynamic memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct OpKey {
    warp: WarpId,
    body_idx: usize,
    iter: u64,
}

/// A coalesced warp memory instruction queued at the LSU.
#[derive(Debug, Clone)]
pub struct MemOp {
    /// Issuing warp.
    pub warp: WarpId,
    /// Static PC.
    pub pc: Pc,
    /// Kernel body index (for warp wake-up).
    pub body_idx: usize,
    /// Loop iteration.
    pub iter: u64,
    /// `true` for loads (stores are fire-and-forget).
    pub is_load: bool,
    /// Lowest-lane byte address (prefetcher training key).
    pub addr0: Addr,
    /// Coalesced line requests, in the order they are sent to the L1.
    pub lines: LaneList<LineAddr>,
    /// Cycle the instruction issued (latency accounting).
    pub issue_cycle: Cycle,
    /// How many of `lines` have been sent to the L1 (internal; 0 until the
    /// head line is sent).
    pub sent: usize,
}

#[derive(Debug, Clone)]
struct OpState {
    lines_left: usize,
    fills_pending: usize,
    latest_ready: Cycle,
    issue_cycle: Cycle,
}

/// A load whose last line has resolved; wake the warp at `ready_at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadCompletion {
    /// Warp to wake.
    pub warp: WarpId,
    /// Kernel body index of the load.
    pub body_idx: usize,
    /// Loop iteration of the load.
    pub iter: u64,
    /// Cycle the data is in the register file.
    pub ready_at: Cycle,
    /// Cycle the load issued.
    pub issue_cycle: Cycle,
}

/// What one LSU cycle produced besides its completions.
#[derive(Debug, Clone, Copy, Default)]
pub struct LsuActivity {
    /// Head-line access report for a load (feeds scheduler + prefetchers).
    pub head_event: Option<L1Event>,
    /// The unit stalled on MSHR exhaustion.
    pub stalled: bool,
}

/// The load/store unit of one SM.
///
/// Loads and stores queue separately: stores are posted writes drained from
/// their own buffer (one line per cycle), so a burst of stores cannot block
/// loads (and vice versa) — the usual GPU store-buffer arrangement.
#[derive(Debug)]
pub struct Lsu {
    sm: SmId,
    queue: VecDeque<MemOp>,
    store_queue: VecDeque<MemOp>,
    capacity: usize,
    /// In-flight dynamic loads, in issue order. Flat vector, not a map:
    /// this sits on the per-cycle hot path and holds a few entries; the
    /// head load's entry is found by position (`Lsu::head_pos`) and a
    /// fill's loads by a linear scan, which beats tree traversal over a
    /// contiguous few-entry vector (see DESIGN.md §13 on the
    /// flat-vs-ordered container policy).
    outstanding: Vec<(OpKey, OpState)>,
    /// The L1's MSHR release count when the MSHR file refused the head
    /// load; the head is refused again until the count moves.
    refused_at: Option<u64>,
}

impl Lsu {
    /// Creates an LSU able to queue `capacity` warp memory instructions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(sm: SmId, capacity: usize) -> Self {
        assert!(capacity > 0);
        Lsu {
            sm,
            queue: VecDeque::with_capacity(capacity),
            store_queue: VecDeque::with_capacity(capacity),
            capacity,
            outstanding: Vec::with_capacity(capacity),
            refused_at: None,
        }
    }

    /// `true` when another load instruction can be accepted.
    pub fn has_room(&self) -> bool {
        self.queue.len() < self.capacity
    }

    /// `true` when another store instruction can be accepted.
    pub fn has_store_room(&self) -> bool {
        self.store_queue.len() < self.capacity
    }

    /// Queued load instructions.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` when no load is queued (in-flight fills may remain).
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// `true` when nothing is queued *and* no fill is outstanding.
    pub fn is_drained(&self) -> bool {
        self.queue.is_empty() && self.store_queue.is_empty() && self.outstanding.is_empty()
    }

    /// Accepts a memory instruction.
    ///
    /// # Panics
    ///
    /// Panics if the unit is full (callers must check
    /// [`Lsu::has_room`] — the issue stage treats a full LSU as a
    /// structural hazard) or the op has no lines.
    pub fn push(&mut self, op: MemOp) {
        assert!(!op.lines.is_empty(), "memory op with no lines");
        if !op.is_load {
            assert!(self.has_store_room(), "LSU store buffer full");
            self.store_queue.push_back(op);
            return;
        }
        assert!(self.has_room(), "LSU full");
        self.outstanding.push((
            OpKey {
                warp: op.warp,
                body_idx: op.body_idx,
                iter: op.iter,
            },
            OpState {
                lines_left: op.lines.len(),
                fills_pending: 0,
                latest_ready: 0,
                issue_cycle: op.issue_cycle,
            },
        ));
        debug_assert!(op.is_load, "the load queue holds only loads");
        self.queue.push_back(op);
    }

    /// Sends the head load's next line to the L1 and drains one store line.
    /// Loads that complete entirely from L1 hits are appended to `done`.
    /// Call once per cycle.
    pub fn process_one(
        &mut self,
        l1: &mut L1Cache,
        now: Cycle,
        done: &mut Vec<LoadCompletion>,
    ) -> LsuActivity {
        // Posted stores drain independently (one line per cycle).
        if let Some(st) = self.store_queue.front_mut() {
            if let Some(&line) = st.lines.get(st.sent) {
                let req = MemRequest::store(line, self.sm, st.warp, st.pc, st.issue_cycle);
                l1.access(req, now);
                st.sent += 1;
            }
            if st.sent >= st.lines.len() {
                self.store_queue.pop_front();
            }
        }
        let mut activity = LsuActivity::default();
        let Some(op) = self.queue.front() else {
            return activity;
        };
        let Some(&line) = op.lines.get(op.sent) else {
            // Ops always hold ≥1 line; an empty one has nothing to send.
            self.queue.pop_front();
            return activity;
        };
        if self.refused_at == Some(l1.mshr_releases()) {
            debug_assert!(
                !l1.probe(line) && l1.mshr_would_reject(line),
                "memoised MSHR refusal of line {line:?} no longer holds"
            );
            l1.retry_rejected_load(op.pc);
            activity.stalled = true;
            return activity;
        }
        let is_head = op.sent == 0;
        let req = MemRequest::load(
            line,
            self.sm,
            op.warp,
            op.pc,
            op.body_idx,
            op.iter,
            op.issue_cycle,
        );
        let outcome = l1.access(req, now);
        self.refused_at = None;
        let l1_outcome = match outcome {
            L1AccessOutcome::Rejected => {
                self.refused_at = Some(l1.mshr_releases());
                activity.stalled = true;
                return activity; // retry same line next cycle
            }
            L1AccessOutcome::Hit { ready_at } => {
                if let Some(at) = self.head_pos() {
                    self.resolve_at(at, true, ready_at, done);
                }
                L1Outcome::Hit
            }
            L1AccessOutcome::Miss => {
                self.note_fill_pending();
                L1Outcome::Miss
            }
            L1AccessOutcome::Merged { into_prefetch } => {
                self.note_fill_pending();
                L1Outcome::Merged { into_prefetch }
            }
            L1AccessOutcome::StoreForwarded
            | L1AccessOutcome::PrefetchDropped
            | L1AccessOutcome::PrefetchIssued => {
                unreachable!("the load queue sends only loads")
            }
        };
        // Re-borrow the head op (resolve_line may have completed it, but the
        // queue entry survives until all its lines are sent).
        let Some(op) = self.queue.front_mut() else {
            return activity;
        };
        if is_head {
            activity.head_event = Some(L1Event {
                warp: op.warp,
                pc: op.pc,
                addr: op.addr0,
                line,
                outcome: l1_outcome,
                now,
            });
        }
        op.sent += 1;
        if op.sent >= op.lines.len() {
            self.queue.pop_front();
        }
        activity
    }

    /// Position in `outstanding` of the head load's entry. The queued
    /// loads are the newest outstanding ones, in queue order: an entry is
    /// pushed with its load and removed only after all its lines were
    /// sent, and removal keeps the order.
    fn head_pos(&self) -> Option<usize> {
        let at = self.outstanding.len().checked_sub(self.queue.len())?;
        debug_assert_eq!(
            self.outstanding.get(at).map(|(k, _)| *k),
            self.queue.front().map(op_key),
            "the head load's entry is not the oldest queued one"
        );
        Some(at)
    }

    /// Marks a line of the head load as waiting on a fill.
    fn note_fill_pending(&mut self) {
        if let Some(at) = self.head_pos() {
            let st = &mut self.outstanding[at].1;
            st.lines_left -= 1;
            st.fills_pending += 1;
        }
    }

    /// Resolves one line of the outstanding load at `pos`: a hit on a line
    /// not sent before, or a fill; completes the load with its last line.
    fn resolve_at(
        &mut self,
        pos: usize,
        from_hit: bool,
        ready: Cycle,
        done: &mut Vec<LoadCompletion>,
    ) {
        let st = &mut self.outstanding[pos].1;
        if from_hit {
            st.lines_left -= 1;
        } else {
            st.fills_pending -= 1;
        }
        st.latest_ready = st.latest_ready.max(ready);
        if st.lines_left == 0 && st.fills_pending == 0 {
            let (key, st) = self.outstanding.remove(pos);
            done.push(LoadCompletion {
                warp: key.warp,
                body_idx: key.body_idx,
                iter: key.iter,
                ready_at: st.latest_ready,
                issue_cycle: st.issue_cycle,
            });
        }
    }

    /// Applies an L1 fill (the released MSHR entry): appends to `done`
    /// every load instruction whose last line this was.
    pub fn on_fill(&mut self, fill: &MshrEntry, now: Cycle, done: &mut Vec<LoadCompletion>) {
        for req in fill.demand_loads() {
            let key = OpKey {
                warp: req.warp,
                body_idx: req.body_idx,
                iter: req.iter,
            };
            if let Some(pos) = self.outstanding.iter().position(|(k, _)| *k == key) {
                self.resolve_at(pos, false, now, done);
            }
        }
    }
}

fn op_key(op: &MemOp) -> OpKey {
    OpKey {
        warp: op.warp,
        body_idx: op.body_idx,
        iter: op.iter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_common::config::{CacheConfig, Replacement};

    fn l1() -> L1Cache {
        L1Cache::new(&CacheConfig {
            capacity_bytes: 1024,
            ways: 2,
            line_bytes: 128,
            mshrs: 2,
            mshr_merge_slots: 4,
            hit_latency: 10,
            replacement: Replacement::Lru,
            bypass: false,
        })
    }

    fn load_op(warp: u32, lines: &[u64], iter: u64, issue: Cycle) -> MemOp {
        MemOp {
            warp: WarpId(warp),
            pc: Pc(0x10),
            body_idx: 0,
            iter,
            is_load: true,
            addr0: Addr::new(lines[0] * 128),
            lines: LaneList::from_fn(lines.len(), |i| LineAddr(lines[i])),
            issue_cycle: issue,
            sent: 0,
        }
    }

    /// One LSU cycle; returns its activity and the loads it completed.
    fn step(lsu: &mut Lsu, l1: &mut L1Cache, now: Cycle) -> (LsuActivity, Vec<LoadCompletion>) {
        let mut done = Vec::new();
        let act = lsu.process_one(l1, now, &mut done);
        (act, done)
    }

    /// Fills `line` at `now` and returns the loads it completed.
    fn fill(lsu: &mut Lsu, l1: &mut L1Cache, line: u64, now: Cycle) -> Vec<LoadCompletion> {
        let mut done = Vec::new();
        if let Some(entry) = l1.fill(LineAddr(line), now) {
            lsu.on_fill(&entry, now, &mut done);
        }
        done
    }

    #[test]
    fn single_line_hit_completes_immediately() {
        let mut l1 = l1();
        let mut lsu = Lsu::new(SmId(0), 4);
        // Warm the line.
        lsu.push(load_op(0, &[1], 0, 0));
        step(&mut lsu, &mut l1, 0);
        let done = fill(&mut lsu, &mut l1, 1, 50);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].ready_at, 50);
        // Second access hits.
        lsu.push(load_op(1, &[1], 0, 60));
        let (act, done) = step(&mut lsu, &mut l1, 60);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].ready_at, 70);
        assert_eq!(act.head_event.unwrap().outcome, L1Outcome::Hit);
        assert!(lsu.is_drained());
    }

    #[test]
    fn multi_line_op_completes_on_last_fill() {
        let mut l1 = l1();
        let mut lsu = Lsu::new(SmId(0), 4);
        lsu.push(load_op(0, &[1, 9], 0, 0));
        let (a0, done) = step(&mut lsu, &mut l1, 0);
        assert!(a0.head_event.is_some());
        assert!(done.is_empty());
        let (a1, _) = step(&mut lsu, &mut l1, 1);
        assert!(a1.head_event.is_none(), "only the first line reports");
        assert!(lsu.is_empty());
        assert!(
            fill(&mut lsu, &mut l1, 1, 100).is_empty(),
            "one line still pending"
        );
        let done = fill(&mut lsu, &mut l1, 9, 130);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].ready_at, 130);
        assert!(lsu.is_drained());
    }

    #[test]
    fn mixed_hit_and_miss_takes_max_ready() {
        let mut l1 = l1();
        let mut lsu = Lsu::new(SmId(0), 4);
        // Warm line 1.
        lsu.push(load_op(0, &[1], 0, 0));
        step(&mut lsu, &mut l1, 0);
        fill(&mut lsu, &mut l1, 1, 20);
        // Op touching warm line 1 and cold line 9.
        lsu.push(load_op(1, &[1, 9], 0, 30));
        step(&mut lsu, &mut l1, 30); // hit, ready 40
        step(&mut lsu, &mut l1, 31); // miss
        let done = fill(&mut lsu, &mut l1, 9, 200);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].ready_at, 200);
    }

    #[test]
    fn mshr_exhaustion_stalls_and_retries() {
        let mut l1 = l1(); // 2 MSHRs
        let mut lsu = Lsu::new(SmId(0), 4);
        lsu.push(load_op(0, &[1], 0, 0));
        lsu.push(load_op(1, &[2], 0, 0));
        lsu.push(load_op(2, &[3], 0, 0));
        step(&mut lsu, &mut l1, 0);
        step(&mut lsu, &mut l1, 1);
        let (act, _) = step(&mut lsu, &mut l1, 2);
        assert!(act.stalled);
        assert_eq!(lsu.len(), 1, "op stays queued");
        // Free an MSHR and retry.
        fill(&mut lsu, &mut l1, 1, 50);
        let (act, _) = step(&mut lsu, &mut l1, 51);
        assert!(!act.stalled);
        assert!(lsu.is_empty());
    }

    #[test]
    fn stores_fire_and_forget() {
        let mut l1 = l1();
        let mut lsu = Lsu::new(SmId(0), 4);
        lsu.push(MemOp {
            warp: WarpId(0),
            pc: Pc(0x20),
            body_idx: 1,
            iter: 0,
            is_load: false,
            addr0: Addr::new(128),
            lines: LaneList::from_fn(1, |_| LineAddr(1)),
            issue_cycle: 0,
            sent: 0,
        });
        let (act, done) = step(&mut lsu, &mut l1, 0);
        assert!(act.head_event.is_none());
        assert!(done.is_empty());
        assert!(lsu.is_drained());
    }

    #[test]
    fn capacity_enforced() {
        let mut lsu = Lsu::new(SmId(0), 1);
        lsu.push(load_op(0, &[1], 0, 0));
        assert!(!lsu.has_room());
    }

    #[test]
    #[should_panic(expected = "LSU full")]
    fn push_full_panics() {
        let mut lsu = Lsu::new(SmId(0), 1);
        lsu.push(load_op(0, &[1], 0, 0));
        lsu.push(load_op(1, &[2], 0, 0));
    }

    #[test]
    fn same_warp_two_iterations_tracked_separately() {
        let mut l1 = l1();
        let mut lsu = Lsu::new(SmId(0), 4);
        lsu.push(load_op(0, &[1], 0, 0));
        lsu.push(load_op(0, &[2], 1, 5));
        step(&mut lsu, &mut l1, 0);
        step(&mut lsu, &mut l1, 5);
        let d1 = fill(&mut lsu, &mut l1, 2, 100);
        assert_eq!(d1.len(), 1);
        assert_eq!(d1[0].iter, 1);
        let d0 = fill(&mut lsu, &mut l1, 1, 120);
        assert_eq!(d0.len(), 1);
        assert_eq!(d0[0].iter, 0);
    }
}
