//! The per-SM L1 data cache unit.
//!
//! Combines the tag store, MSHR file, miss classifier and early-eviction
//! tracker into the cache the LSU talks to. Policy summary:
//!
//! * loads allocate on fill; LRU replacement;
//! * stores are write-through / no-write-allocate — they generate downstream
//!   traffic but never change L1 state (common GPU design point);
//! * demand loads that merge into an in-flight MSHR count as hits for the
//!   hit/miss breakdown (the data is already on its way) and are recorded in
//!   [`gpu_common::stats::CacheStats::mshr_merges`];
//! * prefetches are dropped when the line is resident or already in flight.

#![deny(
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::bypass::BypassPredictor;
use crate::cache::TagStore;
use crate::classify::{AccessClass, MissClassifier};
use crate::mshr::{MshrEntry, MshrFile, MshrOutcome};
use crate::prefetch_meta::EarlyEvictionTracker;
use crate::request::{AccessKind, LineRequest, MemRequest, OffCore};
use gpu_common::config::CacheConfig;
use gpu_common::stats::{CacheStats, PrefetchStats};
use gpu_common::{Cycle, LineAddr, Pc};
use std::collections::{BTreeSet, VecDeque};

/// Default number of evicted-unused prefetches remembered for early-eviction
/// attribution.
const EARLY_TRACKER_CAPACITY: usize = 4096;

/// Outcome of one L1 access, as seen by the LSU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1AccessOutcome {
    /// Hit; the result is available at `ready_at`.
    Hit {
        /// Cycle the data reaches the register file.
        ready_at: Cycle,
    },
    /// Miss; an MSHR was allocated and the request was forwarded downstream.
    Miss,
    /// Merged into an in-flight miss; completes when that miss fills.
    Merged {
        /// The in-flight entry was prefetch-only before this merge.
        into_prefetch: bool,
    },
    /// Refused: no free MSHR, or no merge slot left on the line's entry.
    /// The LSU must retry; the same load is refused again until an MSHR is
    /// released ([`L1Cache::mshr_releases`] changes).
    Rejected,
    /// Store accepted (write-through; no completion event).
    StoreForwarded,
    /// Prefetch dropped (duplicate or no resources).
    PrefetchDropped,
    /// Prefetch accepted and forwarded downstream.
    PrefetchIssued,
}

/// Per-static-load demand counters (runtime Table I columns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcStats {
    /// Demand load accesses from this PC.
    pub accesses: u64,
    /// Hits (including MSHR merges).
    pub hits: u64,
}

impl PcStats {
    /// Miss rate of this static load.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            1.0 - self.hits as f64 / self.accesses as f64
        }
    }
}

/// The per-SM L1 data cache (tags + MSHRs + classification).
#[derive(Debug, Clone)]
pub struct L1Cache {
    cfg: CacheConfig,
    tags: TagStore,
    mshrs: MshrFile,
    classifier: MissClassifier,
    early: EarlyEvictionTracker,
    stats: CacheStats,
    pstats: PrefetchStats,
    // Flat PC-sorted vector on the per-access hot path: kernels have a
    // handful of static loads, so a binary-searched contiguous vector
    // beats tree nodes (DESIGN.md §13). Sortedness is load-bearing — the
    // slice feeds report output directly, and emitted order must never
    // depend on a per-process RandomState (`clippy.toml` bans HashMap,
    // DESIGN.md §12).
    per_pc: Vec<(Pc, PcStats)>,
    bypass: Option<BypassPredictor>,
    /// Lines whose in-flight fill must not be installed (bypassed loads).
    /// Ordered set: tiny, rarely touched, and deterministic by construction.
    no_fill: BTreeSet<LineAddr>,
    /// Misses, stores and prefetches waiting to go downstream, in their
    /// off-core form.
    outgoing: VecDeque<LineRequest>,
}

impl L1Cache {
    /// Builds an empty L1 with the given geometry.
    pub fn new(cfg: &CacheConfig) -> Self {
        L1Cache {
            tags: TagStore::new(cfg),
            mshrs: MshrFile::new(cfg.mshrs, cfg.mshr_merge_slots),
            classifier: MissClassifier::new(),
            early: EarlyEvictionTracker::new(EARLY_TRACKER_CAPACITY),
            stats: CacheStats::default(),
            pstats: PrefetchStats::default(),
            per_pc: Vec::new(),
            bypass: cfg.bypass.then(BypassPredictor::new),
            no_fill: BTreeSet::new(),
            outgoing: VecDeque::new(),
            cfg: cfg.clone(),
        }
    }

    /// In-flight MSHR entries (deadlock diagnostics).
    pub fn inflight_mshrs(&self) -> impl Iterator<Item = &MshrEntry> {
        self.mshrs.iter()
    }

    /// Demand loads served around the cache by the bypass predictor.
    pub fn bypassed_loads(&self) -> u64 {
        self.bypass.as_ref().map_or(0, |b| b.bypassed)
    }

    /// Performs one line-granular access at cycle `now`.
    pub fn access(&mut self, req: MemRequest, now: Cycle) -> L1AccessOutcome {
        match req.kind {
            AccessKind::Store => {
                // Write-through, no-allocate: forward and forget.
                self.outgoing.push_back(req.off_core());
                L1AccessOutcome::StoreForwarded
            }
            AccessKind::Prefetch => self.access_prefetch(req),
            AccessKind::Load => self.access_load(req, now),
        }
    }

    /// Mutable per-PC slot for `pc`, inserted PC-sorted on first use.
    fn pc_slot(&mut self, pc: Pc) -> &mut PcStats {
        let i = match self.per_pc.binary_search_by_key(&pc, |&(p, _)| p) {
            Ok(i) => i,
            Err(at) => {
                self.per_pc.insert(at, (pc, PcStats::default()));
                at
            }
        };
        &mut self.per_pc[i].1
    }

    fn access_prefetch(&mut self, req: MemRequest) -> L1AccessOutcome {
        if self.tags.probe(req.line) || self.mshrs.contains(req.line) {
            self.pstats.dropped_duplicate += 1;
            return L1AccessOutcome::PrefetchDropped;
        }
        let fwd = req.off_core();
        match self.mshrs.register(req) {
            MshrOutcome::Allocated => {
                self.pstats.issued += 1;
                self.outgoing.push_back(fwd);
                L1AccessOutcome::PrefetchIssued
            }
            // Unreachable while `contains()` above holds; degrade to a
            // dropped duplicate rather than trusting that forever.
            MshrOutcome::Merged { .. } => {
                self.pstats.dropped_duplicate += 1;
                L1AccessOutcome::PrefetchDropped
            }
            MshrOutcome::Rejected => {
                self.pstats.dropped_no_resource += 1;
                L1AccessOutcome::PrefetchDropped
            }
        }
    }

    fn access_load(&mut self, req: MemRequest, now: Cycle) -> L1AccessOutcome {
        debug_assert_eq!(req.kind, AccessKind::Load);
        let line = req.line;
        let pc = req.pc;
        let (hit, first_prefetch_use) = self.tags.touch_detailed(line);
        if let Some(b) = &mut self.bypass {
            b.record(pc, hit);
        }
        if hit {
            self.stats.accesses += 1;
            self.stats.hits += 1;
            let pcs = self.pc_slot(pc);
            pcs.accesses += 1;
            pcs.hits += 1;
            if first_prefetch_use {
                self.pstats.useful += 1;
            }
            // The classifier cannot return a miss class for hit=true; the
            // catch-all keeps the hit-class sum conserved regardless.
            match self.classifier.classify(line, true) {
                AccessClass::HitAfterHit => self.stats.hit_after_hit += 1,
                _ => self.stats.hit_after_miss += 1,
            }
            return L1AccessOutcome::Hit {
                ready_at: now + self.cfg.hit_latency,
            };
        }
        // Not resident: consult the bypass predictor — a bypassed load's
        // fill will not be installed, so it cannot thrash the cache.
        let bypassed = self.bypass.as_mut().is_some_and(|b| b.should_bypass(pc));
        // The downstream queue gets the off-core form: on Allocated the
        // request itself moves into the MSHR entry.
        let fwd = req.off_core();
        // Try the MSHRs before committing statistics, because a rejected
        // access retries and must not be double counted.
        match self.mshrs.register(req) {
            MshrOutcome::Merged { into_prefetch } => {
                self.stats.accesses += 1;
                self.stats.hits += 1;
                let pcs = self.pc_slot(pc);
                pcs.accesses += 1;
                pcs.hits += 1;
                self.stats.mshr_merges += 1;
                if into_prefetch {
                    self.stats.merges_into_prefetch += 1;
                    self.pstats.late_merged += 1;
                }
                match self.classifier.classify(line, true) {
                    AccessClass::HitAfterHit => self.stats.hit_after_hit += 1,
                    _ => self.stats.hit_after_miss += 1,
                }
                L1AccessOutcome::Merged { into_prefetch }
            }
            MshrOutcome::Rejected => {
                self.stats.reservation_fails += 1;
                L1AccessOutcome::Rejected
            }
            MshrOutcome::Allocated => {
                if bypassed {
                    self.no_fill.insert(line);
                }
                self.stats.accesses += 1;
                self.pc_slot(pc).accesses += 1;
                match self.classifier.classify(line, false) {
                    AccessClass::CapacityConflictMiss => self.stats.capacity_conflict_misses += 1,
                    _ => self.stats.cold_misses += 1,
                }
                // Was this a correct prefetch we evicted too early?
                self.early.note_demand(line);
                self.outgoing.push_back(fwd);
                L1AccessOutcome::Miss
            }
        }
    }

    /// Repeats a demand load from `pc` that was refused
    /// ([`L1AccessOutcome::Rejected`]), while [`L1Cache::mshr_releases`] is
    /// unchanged since. The load is refused again and this applies exactly
    /// the state changes that refusal makes — the tag store's replacement
    /// clock, the bypass predictor's `record` and `should_bypass`,
    /// `reservation_fails` — without building or probing a request. Sound
    /// because the line cannot have become resident (every install is an
    /// MSHR completion) and the MSHR file cannot have gained room (see
    /// [`MshrFile::releases`]).
    pub fn retry_rejected_load(&mut self, pc: Pc) {
        self.tags.note_miss();
        if let Some(b) = &mut self.bypass {
            b.record(pc, false);
            b.should_bypass(pc);
        }
        self.stats.reservation_fails += 1;
    }

    /// MSHR entries completed so far (see [`L1AccessOutcome::Rejected`]).
    pub fn mshr_releases(&self) -> u64 {
        self.mshrs.releases()
    }

    /// `true` when the MSHR file would refuse a load of `line` (a
    /// non-mutating check).
    pub fn mshr_would_reject(&self, line: LineAddr) -> bool {
        self.mshrs.would_reject(line)
    }

    /// Delivers a fill for `line` (response from L2/DRAM): installs the
    /// line, releases the MSHR and hands back its entry, whose
    /// [`MshrEntry::demand_loads`] are the loads to wake.
    ///
    /// Fills for lines with no MSHR entry are ignored (can happen only if
    /// the caller double-delivers; returns `None`).
    pub fn fill(&mut self, line: LineAddr, now: Cycle) -> Option<MshrEntry> {
        let entry = self.mshrs.complete(line)?;
        if self.no_fill.remove(&line) {
            // Bypassed load: deliver the data to the warp without
            // installing the line.
        } else {
            self.classifier.note_filled(line);
            if let Some(ev) = self.tags.fill(line, entry.prefetch_only, now) {
                self.stats.evictions += 1;
                if ev.state.prefetched && !ev.state.demand_used {
                    self.early.note_unused_eviction(ev.state.line);
                }
            }
        }
        Some(entry)
    }

    /// Pops the oldest miss/store/prefetch waiting to go downstream.
    pub fn pop_outgoing(&mut self) -> Option<LineRequest> {
        self.outgoing.pop_front()
    }

    /// Number of requests waiting to go downstream.
    pub fn outgoing_len(&self) -> usize {
        self.outgoing.len()
    }

    /// `true` if `line` is resident.
    pub fn probe(&self, line: LineAddr) -> bool {
        self.tags.probe(line)
    }

    /// MSHR occupancy ratio (MASCAR's memory-saturation signal).
    pub fn mshr_occupancy(&self) -> f64 {
        self.mshrs.occupancy_ratio()
    }

    /// Demand-access statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Per-static-load demand statistics, PC-sorted (runtime equivalent of
    /// Table I's per-PC miss rates, valid under any scheduler).
    pub fn per_pc_stats(&self) -> &[(Pc, PcStats)] {
        &self.per_pc
    }

    /// Prefetch statistics, including early-eviction verdicts so far.
    pub fn prefetch_stats(&self) -> PrefetchStats {
        let mut p = self.pstats.clone();
        let v = self.early.verdicts();
        p.early_evictions = v.early;
        p.useless_evictions = v.useless;
        p
    }

    /// Resolves pending early-eviction verdicts (simulation end) and returns
    /// the final prefetch statistics.
    pub fn finalize(&mut self) -> PrefetchStats {
        let v = self.early.finalize();
        let mut p = self.pstats.clone();
        p.early_evictions = v.early;
        p.useless_evictions = v.useless;
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestSource;
    use gpu_common::config::Replacement;
    use gpu_common::{Pc, SmId, WarpId};

    fn cfg() -> CacheConfig {
        CacheConfig {
            capacity_bytes: 1024, // 4 sets × 2 ways
            ways: 2,
            line_bytes: 128,
            mshrs: 4,
            mshr_merge_slots: 4,
            hit_latency: 10,
            replacement: Replacement::Lru,
            bypass: false,
        }
    }

    fn load(line: u64, warp: u32, cycle: Cycle) -> MemRequest {
        MemRequest::load(LineAddr(line), SmId(0), WarpId(warp), Pc(0x10), 0, 0, cycle)
    }

    fn prefetch(line: u64, warp: u32) -> MemRequest {
        MemRequest::prefetch(
            LineAddr(line),
            RequestSource::StridePrefetcher,
            SmId(0),
            WarpId(warp),
            Pc(0x10),
            0,
        )
    }

    #[test]
    fn miss_fill_hit_cycle() {
        let mut l1 = L1Cache::new(&cfg());
        assert_eq!(l1.access(load(1, 0, 0), 0), L1AccessOutcome::Miss);
        assert_eq!(l1.stats().cold_misses, 1);
        assert!(l1.pop_outgoing().is_some());
        assert!(l1.pop_outgoing().is_none());
        let fill = l1.fill(LineAddr(1), 100).unwrap();
        assert_eq!(fill.demand_loads().count(), 1);
        assert!(!fill.prefetch_only);
        assert_eq!(
            l1.access(load(1, 1, 101), 101),
            L1AccessOutcome::Hit { ready_at: 111 }
        );
        assert_eq!(l1.stats().hits, 1);
        assert_eq!(l1.stats().hit_after_miss, 1);
    }

    #[test]
    fn demand_merge_counts_as_hit() {
        let mut l1 = L1Cache::new(&cfg());
        l1.access(load(1, 0, 0), 0);
        let out = l1.access(load(1, 1, 1), 1);
        assert_eq!(
            out,
            L1AccessOutcome::Merged {
                into_prefetch: false
            }
        );
        assert_eq!(l1.stats().mshr_merges, 1);
        assert_eq!(l1.stats().hits, 1);
        // Only the allocating miss went downstream.
        assert!(l1.pop_outgoing().is_some());
        assert!(l1.pop_outgoing().is_none());
        let fill = l1.fill(LineAddr(1), 50).unwrap();
        assert_eq!(fill.demand_loads().count(), 2);
    }

    #[test]
    fn rejected_when_mshrs_full_and_not_counted() {
        let mut l1 = L1Cache::new(&cfg());
        for i in 0..4 {
            assert_eq!(l1.access(load(i, 0, 0), 0), L1AccessOutcome::Miss);
        }
        let before = l1.stats().accesses;
        assert_eq!(l1.access(load(9, 0, 0), 0), L1AccessOutcome::Rejected);
        assert_eq!(l1.stats().accesses, before);
        assert_eq!(l1.stats().reservation_fails, 1);
    }

    #[test]
    fn retrying_a_refused_load_matches_a_full_refused_access() {
        let mut c = cfg();
        c.bypass = true;
        let mut full = L1Cache::new(&c);
        for i in 0..4 {
            assert_eq!(full.access(load(i, 0, 5), 5), L1AccessOutcome::Miss);
        }
        let mut fast = full.clone();
        for now in 6..40 {
            assert_eq!(full.access(load(9, 0, now), now), L1AccessOutcome::Rejected);
            assert!(!fast.probe(LineAddr(9)) && fast.mshr_would_reject(LineAddr(9)));
            fast.retry_rejected_load(Pc(0x10));
        }
        // Same tag-store clock, bypass table and statistics.
        assert_eq!(format!("{full:?}"), format!("{fast:?}"));
        assert_eq!(full.stats().reservation_fails, 34);
        assert_eq!(full.mshr_releases(), 0);
        full.fill(LineAddr(0), 50);
        assert_eq!(full.mshr_releases(), 1);
    }

    #[test]
    fn capacity_conflict_after_eviction() {
        let mut l1 = L1Cache::new(&cfg());
        // Lines 0, 4, 8 map to set 0 (4 sets); 2 ways.
        for &l in &[0u64, 4, 8] {
            l1.access(load(l, 0, 0), 0);
            l1.fill(LineAddr(l), 1);
        }
        assert_eq!(l1.stats().evictions, 1);
        // Line 0 was evicted by line 8's fill: re-access is capacity/conflict.
        assert_eq!(l1.access(load(0, 0, 2), 2), L1AccessOutcome::Miss);
        assert_eq!(l1.stats().capacity_conflict_misses, 1);
        assert_eq!(l1.stats().cold_misses, 3);
    }

    #[test]
    fn outgoing_requests_are_the_off_core_forms_of_their_accesses() {
        use gpu_common::check::run_cases;
        run_cases(32, |_, g| {
            let mut l1 = L1Cache::new(&cfg());
            let sm = SmId(g.range(1, 14) as u32);
            for now in 0..300 {
                let line = LineAddr(g.range(0, 24));
                let warp = WarpId(g.range(0, 47) as u32);
                let req = match g.range(0, 2) {
                    0 => MemRequest::load(line, sm, warp, Pc(0x10), 1, now, now),
                    1 => MemRequest::store(line, sm, warp, Pc(0x20), now),
                    _ => MemRequest::prefetch(
                        line,
                        RequestSource::SapPrefetcher,
                        sm,
                        warp,
                        Pc(0),
                        now,
                    ),
                };
                let want = LineRequest::new(req.line, req.sm, req.kind);
                let outcome = l1.access(req, now);
                let forwarded = matches!(
                    outcome,
                    L1AccessOutcome::Miss
                        | L1AccessOutcome::StoreForwarded
                        | L1AccessOutcome::PrefetchIssued
                );
                let got = l1.pop_outgoing();
                if got != forwarded.then_some(want) || l1.outgoing_len() != 0 {
                    return Err(format!("{outcome:?} of {want:?} sent {got:?}"));
                }
                let lowest = l1.inflight_mshrs().next().map(|e| e.line);
                if let Some(line) = lowest.filter(|_| g.chance(0.3)) {
                    l1.fill(line, now);
                }
            }
            Ok(())
        });
    }

    #[test]
    fn store_bypasses_cache_state() {
        let mut l1 = L1Cache::new(&cfg());
        let st = MemRequest::store(LineAddr(1), SmId(0), WarpId(0), Pc(0x20), 0);
        assert_eq!(l1.access(st, 0), L1AccessOutcome::StoreForwarded);
        assert_eq!(l1.stats().accesses, 0);
        assert!(!l1.probe(LineAddr(1)));
        assert!(l1.pop_outgoing().is_some());
        assert!(l1.pop_outgoing().is_none());
    }

    #[test]
    fn prefetch_flow_useful() {
        let mut l1 = L1Cache::new(&cfg());
        assert_eq!(
            l1.access(prefetch(1, 3), 0),
            L1AccessOutcome::PrefetchIssued
        );
        assert_eq!(l1.prefetch_stats().issued, 1);
        // Duplicate while in flight: dropped.
        assert_eq!(
            l1.access(prefetch(1, 3), 1),
            L1AccessOutcome::PrefetchDropped
        );
        let fill = l1.fill(LineAddr(1), 50).unwrap();
        assert!(fill.prefetch_only);
        assert_eq!(fill.demand_loads().count(), 0);
        // Demand hit on the prefetched line: useful.
        assert!(matches!(
            l1.access(load(1, 5, 60), 60),
            L1AccessOutcome::Hit { .. }
        ));
        assert_eq!(l1.prefetch_stats().useful, 1);
        // Duplicate while resident: dropped.
        assert_eq!(
            l1.access(prefetch(1, 3), 61),
            L1AccessOutcome::PrefetchDropped
        );
        assert_eq!(l1.prefetch_stats().dropped_duplicate, 2);
    }

    #[test]
    fn demand_merges_into_prefetch() {
        let mut l1 = L1Cache::new(&cfg());
        l1.access(prefetch(1, 3), 0);
        let out = l1.access(load(1, 3, 5), 5);
        assert_eq!(
            out,
            L1AccessOutcome::Merged {
                into_prefetch: true
            }
        );
        let p = l1.prefetch_stats();
        assert_eq!(p.late_merged, 1);
        assert_eq!(l1.stats().merges_into_prefetch, 1);
        let fill = l1.fill(LineAddr(1), 50).unwrap();
        assert!(!fill.prefetch_only);
        assert_eq!(fill.demand_loads().count(), 1);
    }

    #[test]
    fn early_eviction_detected() {
        let mut l1 = L1Cache::new(&cfg());
        // Prefetch line 0 (set 0), fill it.
        l1.access(prefetch(0, 1), 0);
        l1.fill(LineAddr(0), 10);
        // Two demand misses to the same set evict the unused prefetch.
        for &l in &[4u64, 8] {
            l1.access(load(l, 0, 20), 20);
            l1.fill(LineAddr(l), 30);
        }
        assert_eq!(l1.prefetch_stats().early_evictions, 0);
        // The demand for line 0 now arrives: the prefetch was correct but
        // evicted early.
        l1.access(load(0, 1, 40), 40);
        let p = l1.prefetch_stats();
        assert_eq!(p.early_evictions, 1);
        assert!((p.early_eviction_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn useless_prefetch_finalized() {
        let mut l1 = L1Cache::new(&cfg());
        l1.access(prefetch(0, 1), 0);
        l1.fill(LineAddr(0), 10);
        for &l in &[4u64, 8] {
            l1.access(load(l, 0, 20), 20);
            l1.fill(LineAddr(l), 30);
        }
        let p = l1.finalize();
        assert_eq!(p.early_evictions, 0);
        assert_eq!(p.useless_evictions, 1);
    }

    #[test]
    fn bypassed_fills_are_not_installed() {
        let mut c = cfg();
        c.bypass = true;
        let mut l1 = L1Cache::new(&c);
        // Drive one PC to the bypass threshold with distinct-line misses.
        for i in 0..12u64 {
            assert_eq!(l1.access(load(i * 4, 0, 0), 0), L1AccessOutcome::Miss);
            l1.fill(LineAddr(i * 4), 1);
        }
        // Next miss from the same PC bypasses: fill returns data but does
        // not install the line.
        let before = l1.bypassed_loads();
        assert_eq!(l1.access(load(100, 0, 10), 10), L1AccessOutcome::Miss);
        assert!(l1.bypassed_loads() > before);
        let fill = l1.fill(LineAddr(100), 20).unwrap();
        assert_eq!(fill.demand_loads().count(), 1, "warp still woken");
        assert!(!l1.probe(LineAddr(100)), "line must not be installed");
    }

    #[test]
    fn bypass_disabled_by_default() {
        let l1 = L1Cache::new(&cfg());
        assert_eq!(l1.bypassed_loads(), 0);
    }

    #[test]
    fn double_fill_is_harmless() {
        let mut l1 = L1Cache::new(&cfg());
        l1.access(load(1, 0, 0), 0);
        assert!(l1.fill(LineAddr(1), 10).is_some());
        assert!(l1.fill(LineAddr(1), 11).is_none());
    }
}
