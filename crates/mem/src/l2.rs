//! Shared L2 cache banks.
//!
//! The L2 is partitioned: "each LLC partition is dedicated to each DRAM
//! partition" (Section II). A bank holds `l2.capacity / partitions` bytes,
//! services line-fetch requests from every SM, merges same-line requests in
//! its own MSHRs, and forwards misses to its DRAM partition. Write-through
//! stores update the bank on a hit and stream to DRAM either way.
//!
//! Timing: each bank serves one request per cycle through its tag/data
//! port; a hit responds `hit_latency` cycles after its port slot (Table
//! III: 200), so bursts see queueing delay on top of the base latency. A
//! miss responds when DRAM returns (queue + 440 cycles), the tag probe
//! being folded into the DRAM trip.

use crate::cache::TagStore;
use crate::dram::DramPartition;
use crate::mshr::{MshrFile, MshrOutcome};
use crate::request::{AccessKind, LineRequest};
use gpu_common::config::{CacheConfig, DramConfig};
use gpu_common::stats::CacheStats;
use gpu_common::{Cycle, LineAddr};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One L2 bank paired with its DRAM partition.
#[derive(Debug)]
pub struct L2Bank {
    tags: TagStore,
    mshrs: MshrFile<LineRequest>,
    dram: DramPartition,
    /// Next cycle the bank's tag/data port is free (1 request/cycle).
    port_free: Cycle,
    /// Requests that could not get an MSHR; retried every cycle.
    retry: VecDeque<LineRequest>,
    /// Hit responses in flight, in ready order: each is due `hit_latency`
    /// after its port slot, and port slots strictly increase.
    hits: VecDeque<PendingHit>,
    /// DRAM fills in flight: a min-heap on `(ready, seq, line)`, because
    /// FR-FCFS row hits return ahead of earlier row misses.
    fills: BinaryHeap<Reverse<(Cycle, u64, LineAddr)>>,
    /// Schedule order of every hit and fill; `(ready, seq)` orders the two
    /// queues' events as one (DESIGN.md §13).
    seq: u64,
    stats: CacheStats,
    /// Lines transferred from DRAM into this bank.
    pub dram_line_fills: u64,
    /// Store lines streamed to DRAM.
    pub dram_line_writes: u64,
}

/// A hit response due at `ready`.
#[derive(Debug)]
struct PendingHit {
    ready: Cycle,
    seq: u64,
    req: LineRequest,
}

impl L2Bank {
    /// Creates a bank holding `1/partitions` of the configured L2.
    ///
    /// # Panics
    ///
    /// Panics if the per-bank geometry is inconsistent.
    pub fn new(l2: &CacheConfig, dram: &DramConfig) -> Self {
        let bank_cfg = CacheConfig {
            capacity_bytes: l2.capacity_bytes / dram.partitions as u64,
            ..l2.clone()
        };
        L2Bank {
            tags: TagStore::new(&bank_cfg),
            mshrs: MshrFile::new(l2.mshrs, l2.mshr_merge_slots),
            dram: DramPartition::with_policy(dram.latency, dram.service_interval, dram.row_policy),
            port_free: 0,
            retry: VecDeque::new(),
            hits: VecDeque::new(),
            fills: BinaryHeap::new(),
            seq: 0,
            stats: CacheStats::default(),
            dram_line_fills: 0,
            dram_line_writes: 0,
        }
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Accepts one request from the interconnect at cycle `now`.
    pub fn access(&mut self, req: LineRequest, now: Cycle, hit_latency: Cycle) {
        // One request occupies the bank port per cycle; bursts queue.
        let service = self.port_free.max(now);
        self.port_free = service + 1;
        if req.kind == AccessKind::Store {
            // Write-through: refresh the line if resident, stream to DRAM.
            self.tags.touch(req.line);
            self.dram_line_writes += 1;
            self.dram.push(req);
            return;
        }
        self.stats.accesses += 1;
        if self.tags.touch(req.line) {
            self.stats.hits += 1;
            let ready = service + hit_latency;
            debug_assert!(
                self.hits.back().is_none_or(|h| h.ready < ready),
                "hit responses must be due in schedule order"
            );
            let seq = self.next_seq();
            self.hits.push_back(PendingHit { ready, seq, req });
            return;
        }
        match self.mshrs.register(req) {
            MshrOutcome::Allocated => {
                self.stats.cold_misses += 1; // cold/cap-conf split not needed at L2
                self.dram.push(req);
            }
            MshrOutcome::Merged { .. } => {
                self.stats.mshr_merges += 1;
            }
            MshrOutcome::Rejected => {
                self.stats.reservation_fails += 1;
                self.retry.push_back(req);
            }
        }
    }

    /// Advances one cycle, appending the responses ready to travel back to
    /// SMs to `out`.
    pub fn tick(&mut self, now: Cycle, out: &mut Vec<LineRequest>) {
        // Retry MSHR-starved requests first (one per cycle keeps it fair).
        if let Some(req) = self.retry.pop_front() {
            self.access_retry(req, now);
        }
        // Start a DRAM service.
        if let Some(done) = self.dram.tick(now) {
            if done.req.kind == AccessKind::Store {
                // Posted write: nothing returns.
            } else {
                let seq = self.next_seq();
                self.fills
                    .push(Reverse((done.ready_at, seq, done.req.line)));
            }
        }
        // Deliver everything that matured this cycle, merging the two
        // queues in `(ready, seq)` order.
        loop {
            let due = |key: Option<(Cycle, u64)>| key.filter(|&(ready, _)| ready <= now);
            let hit = due(self.hits.front().map(|h| (h.ready, h.seq)));
            let fill = due(self
                .fills
                .peek()
                .map(|&Reverse((ready, seq, _))| (ready, seq)));
            match (hit, fill) {
                (None, None) => break,
                (Some(h), f) if f.is_none_or(|f| h < f) => {
                    out.extend(self.hits.pop_front().map(|h| h.req));
                }
                _ => self.deliver_fill(now, out),
            }
        }
    }

    /// Installs the earliest DRAM fill and answers every request its MSHR
    /// entry holds.
    fn deliver_fill(&mut self, now: Cycle, out: &mut Vec<LineRequest>) {
        let Some(Reverse((_, _, line))) = self.fills.pop() else {
            return;
        };
        self.dram_line_fills += 1;
        if self.tags.fill(line, false, now).is_some() {
            self.stats.evictions += 1;
        }
        if let Some(entry) = self.mshrs.complete(line) {
            out.push(entry.primary);
            out.extend(entry.merged);
        }
    }

    fn access_retry(&mut self, req: LineRequest, _now: Cycle) {
        // Retried requests re-enter through the MSHR path only (the tag probe
        // happens again on the next regular access path if needed).
        match self.mshrs.register(req) {
            MshrOutcome::Allocated => self.dram.push(req),
            MshrOutcome::Merged { .. } => self.stats.mshr_merges += 1,
            MshrOutcome::Rejected => self.retry.push_back(req),
        }
    }

    /// Demand statistics of this bank.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// `true` when no request is queued or in flight anywhere in the bank.
    pub fn is_idle(&self) -> bool {
        self.hits.is_empty()
            && self.fills.is_empty()
            && self.retry.is_empty()
            && self.dram.is_idle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_common::config::Replacement;
    use gpu_common::SmId;

    fn cfgs() -> (CacheConfig, DramConfig) {
        (
            CacheConfig {
                capacity_bytes: 4096, // per-bank 2048 with 2 partitions
                ways: 2,
                line_bytes: 128,
                mshrs: 4,
                mshr_merge_slots: 4,
                hit_latency: 20,
                replacement: Replacement::Lru,
                bypass: false,
            },
            DramConfig {
                partitions: 2,
                latency: 100,
                service_interval: 2,
                queue_depth: 8,
                interleave_bytes: 256,
                row_policy: gpu_common::config::DramRowPolicy::Uniform,
            },
        )
    }

    fn load(line: u64, sm: u32) -> LineRequest {
        LineRequest::new(LineAddr(line), SmId(sm), AccessKind::Load)
    }

    fn run_until(bank: &mut L2Bank, from: Cycle, to: Cycle) -> Vec<(Cycle, LineRequest)> {
        let mut out = Vec::new();
        let mut ready = Vec::new();
        for now in from..to {
            bank.tick(now, &mut ready);
            out.extend(ready.drain(..).map(|r| (now, r)));
        }
        out
    }

    #[test]
    fn miss_goes_to_dram_and_returns() {
        let (l2, dr) = cfgs();
        let mut bank = L2Bank::new(&l2, &dr);
        bank.access(load(1, 0), 0, 20);
        let done = run_until(&mut bank, 0, 200);
        assert_eq!(done.len(), 1);
        // Serviced at 0, ready at 100.
        assert_eq!(done[0].0, 100);
        assert_eq!(bank.dram_line_fills, 1);
        assert_eq!(bank.stats().misses(), 1);
    }

    #[test]
    fn hit_uses_hit_latency() {
        let (l2, dr) = cfgs();
        let mut bank = L2Bank::new(&l2, &dr);
        bank.access(load(1, 0), 0, 20);
        run_until(&mut bank, 0, 150);
        bank.access(load(1, 0), 150, 20);
        let done = run_until(&mut bank, 150, 200);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, 170);
        assert_eq!(bank.stats().hits, 1);
    }

    #[test]
    fn same_line_from_two_sms_merges() {
        let (l2, dr) = cfgs();
        let mut bank = L2Bank::new(&l2, &dr);
        bank.access(load(1, 0), 0, 20);
        bank.access(load(1, 1), 0, 20);
        let done = run_until(&mut bank, 0, 200);
        assert_eq!(done.len(), 2);
        assert_eq!(bank.stats().mshr_merges, 1);
        assert_eq!(bank.dram_line_fills, 1);
        let sms: Vec<u32> = done.iter().map(|(_, r)| r.sm.0).collect();
        assert!(sms.contains(&0) && sms.contains(&1));
    }

    #[test]
    fn store_streams_to_dram_without_response() {
        let (l2, dr) = cfgs();
        let mut bank = L2Bank::new(&l2, &dr);
        let st = LineRequest::new(LineAddr(1), SmId(0), AccessKind::Store);
        bank.access(st, 0, 20);
        let done = run_until(&mut bank, 0, 200);
        assert!(done.is_empty());
        assert_eq!(bank.dram_line_writes, 1);
        assert_eq!(bank.stats().accesses, 0);
    }

    #[test]
    fn mshr_starvation_retries() {
        let (l2, dr) = cfgs();
        let mut bank = L2Bank::new(&l2, &dr);
        for i in 0..5 {
            bank.access(load(i, 0), 0, 20);
        }
        assert_eq!(bank.stats().reservation_fails, 1);
        let done = run_until(&mut bank, 0, 400);
        assert_eq!(done.len(), 5, "retried request eventually completes");
        assert!(bank.is_idle());
    }

    #[test]
    fn delivery_order_matches_one_heap_of_ready_and_seq() {
        use gpu_common::check::run_cases;
        use gpu_common::config::DramRowPolicy;
        use std::collections::BTreeMap;
        for policy in [DramRowPolicy::Uniform, DramRowPolicy::FrFcfsRowBuffer] {
            let mut fills_overtaken = 0;
            run_cases(32, |_, g| {
                let (mut l2, mut dr) = cfgs();
                l2.mshrs = g.usize_range(1, 4);
                dr.row_policy = policy;
                let hit_latency = g.range(1, 60);
                let mut bank = L2Bank::new(&l2, &dr);
                // The reference: every event the bank schedules, in one
                // min-heap on (ready, seq) as the bank used to keep them,
                // each named by the line it answers.
                let mut reference = BinaryHeap::new();
                let mut lines = BTreeMap::new();
                let mut latest_fill = 0;
                let mut out = Vec::new();
                for now in 0..100_000 {
                    if now >= 400 && bank.is_idle() {
                        break;
                    }
                    while now < 400 && g.chance(0.3) {
                        let kind = if g.chance(0.1) {
                            AccessKind::Store
                        } else {
                            AccessKind::Load
                        };
                        let req = LineRequest::new(LineAddr(g.range(0, 40)), SmId(0), kind);
                        let seq = bank.seq;
                        bank.access(req, now, hit_latency);
                        if bank.seq != seq {
                            let h = bank.hits.back().expect("access schedules only hits");
                            reference.push(Reverse((h.ready, h.seq)));
                            lines.insert(h.seq, h.req.line);
                        }
                    }
                    let seq = bank.seq;
                    bank.tick(now, &mut out);
                    let mut expected = Vec::new();
                    while let Some(&Reverse((ready, seq))) = reference.peek() {
                        if ready > now {
                            break;
                        }
                        reference.pop();
                        expected.push(lines[&seq]);
                    }
                    // A fill answers its whole MSHR entry back to back, so
                    // both sides compare as runs of one line.
                    let mut delivered: Vec<LineAddr> = out.drain(..).map(|r| r.line).collect();
                    delivered.dedup();
                    expected.dedup();
                    if delivered != expected {
                        return Err(format!(
                            "cycle {now}: {delivered:?}, reference {expected:?}"
                        ));
                    }
                    if bank.seq != seq {
                        let &Reverse((ready, seq, line)) = bank
                            .fills
                            .iter()
                            .find(|f| f.0 .1 == bank.seq)
                            .expect("tick schedules only fills");
                        if ready < latest_fill {
                            fills_overtaken += 1;
                        }
                        latest_fill = latest_fill.max(ready);
                        reference.push(Reverse((ready, seq)));
                        lines.insert(seq, line);
                    }
                }
                if !bank.is_idle() || !reference.is_empty() {
                    return Err("events left undelivered".into());
                }
                Ok(())
            });
            // FR-FCFS row hits must overtake earlier fills, or the fill
            // heap's order went untested.
            let expect_overtaking = policy == DramRowPolicy::FrFcfsRowBuffer;
            assert_eq!(fills_overtaken > 0, expect_overtaking, "{policy:?}");
        }
    }

    #[test]
    fn bandwidth_spreads_completions() {
        let (l2, dr) = cfgs();
        let mut bank = L2Bank::new(&l2, &dr);
        for i in 0..4 {
            bank.access(load(i * 8, 0), 0, 20);
        }
        let done = run_until(&mut bank, 0, 300);
        let times: Vec<Cycle> = done.iter().map(|(t, _)| *t).collect();
        assert_eq!(times.len(), 4);
        // Bandwidth spreads services: completions strictly increase (row
        // hits finish at the faster latency but never reorder ahead of an
        // earlier service in this pattern).
        assert!(times.windows(2).all(|w| w[0] < w[1]), "{times:?}");
        assert!(times[3] - times[0] >= 6, "{times:?}");
    }
}
