//! SAP — Scheduling-Aware Prefetching (Section IV-B, Figure 9).
//!
//! Structures (sizes per Table II):
//!
//! * **PT** (Prefetch Table, 10 entries) — per static load: the warp that
//!   last issued it, the lowest-lane address it accessed, and the
//!   *inter-warp* stride computed from the two most recent (warp, address)
//!   pairs: `stride = Δaddress / Δwarp-ID`.
//! * **WQ** (Warp Queue, 48 × 1 B) — the group members received from LAWS.
//! * **DRQ** (Demand Request Queue, 32 × 8 B) — the missed demand address
//!   (lowest thread ID's request) that seeds prefetch generation.
//!
//! SAP fires only when the stride just computed **matches** the stored
//! stride ("SAP prefetches only when the inter-warp stride currently
//! calculated matches to the value stored"); a mismatch replaces the stored
//! stride and stays silent — the adaptivity that keeps Fig. 14's traffic
//! flat. For each group warp `w` it prefetches
//! `addr + (w − missing_warp) × stride`, then reports the targets back to
//! LAWS for head-of-queue promotion.

use gpu_common::config::ApresConfig;
use gpu_common::{Addr, Pc, WarpId};
use gpu_mem::request::RequestSource;
use gpu_sm::traits::{DemandAccess, PrefetchRequest, Prefetcher};
use std::collections::VecDeque;

/// One Prefetch Table entry.
#[derive(Debug, Clone)]
struct PtEntry {
    pc: Pc,
    last_warp: WarpId,
    last_addr: Addr,
    stride: Option<i64>,
    lru: u64,
}

/// The Scheduling-Aware Prefetcher.
#[derive(Debug, Clone)]
pub struct Sap {
    pt: Vec<PtEntry>,
    pt_entries: usize,
    wq_capacity: usize,
    drq_capacity: usize,
    max_prefetches: usize,
    /// Bounded record of recent trigger addresses (the DRQ); kept for
    /// fidelity and diagnostics — generation uses the head entry.
    drq: VecDeque<Addr>,
    tick: u64,
    table_accesses: u64,
}

impl Sap {
    /// Creates a SAP engine sized by `cfg` (Table II defaults: 10-entry PT,
    /// 48-entry WQ, 32-entry DRQ).
    pub fn new(cfg: &ApresConfig) -> Self {
        Sap {
            pt: Vec::with_capacity(cfg.pt_entries),
            pt_entries: cfg.pt_entries,
            wq_capacity: 48,
            drq_capacity: cfg.drq_entries,
            max_prefetches: cfg.max_prefetches_per_miss,
            drq: VecDeque::new(),
            tick: 0,
            table_accesses: 0,
        }
    }

    /// Creates a SAP engine with the paper's structure sizes.
    pub fn with_defaults() -> Self {
        Self::new(&ApresConfig::default())
    }

    /// The stride currently stored for `pc` (diagnostics/tests).
    pub fn stride_of(&self, pc: Pc) -> Option<i64> {
        self.pt.iter().find(|e| e.pc == pc).and_then(|e| e.stride)
    }

    /// Computes the inter-warp stride between two (warp, address) samples.
    /// Returns `None` when the warp IDs coincide or the address delta is not
    /// an integer multiple of the warp delta.
    fn inter_warp_stride(prev: (WarpId, Addr), cur: (WarpId, Addr)) -> Option<i64> {
        let dw = i64::from(cur.0 .0) - i64::from(prev.0 .0);
        if dw == 0 {
            return None;
        }
        let da = cur.1 .0 as i64 - prev.1 .0 as i64;
        if da % dw != 0 {
            return None;
        }
        Some(da / dw)
    }

    fn entry_mut(&mut self, pc: Pc) -> Option<&mut PtEntry> {
        self.pt.iter_mut().find(|e| e.pc == pc)
    }

    fn insert_entry(&mut self, pc: Pc, warp: WarpId, addr: Addr) {
        self.tick += 1;
        if self.pt.len() == self.pt_entries {
            // LRU replacement among the 10 entries.
            if let Some(idx) = self
                .pt
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.lru)
                .map(|(i, _)| i)
            {
                self.pt.swap_remove(idx);
            }
        }
        self.pt.push(PtEntry {
            pc,
            last_warp: warp,
            last_addr: addr,
            stride: None,
            lru: self.tick,
        });
    }
}

impl Prefetcher for Sap {
    fn name(&self) -> &'static str {
        "sap"
    }

    fn on_group_miss(&mut self, acc: &DemandAccess, group: &[WarpId]) -> Vec<PrefetchRequest> {
        self.table_accesses += 2; // PT search + update
        self.tick += 1;
        let tick = self.tick;
        // Record the demand in the DRQ (lowest-thread address).
        if self.drq.len() == self.drq_capacity {
            self.drq.pop_front();
        }
        self.drq.push_back(acc.addr);

        let Some(entry) = self.entry_mut(acc.pc) else {
            self.insert_entry(acc.pc, acc.warp, acc.addr);
            return Vec::new();
        };
        entry.lru = tick;
        let prev = (entry.last_warp, entry.last_addr);
        let cur = (acc.warp, acc.addr);
        let computed = Self::inter_warp_stride(prev, cur);
        let stored = entry.stride;
        entry.last_warp = acc.warp;
        entry.last_addr = acc.addr;
        match (computed, stored) {
            (Some(s), Some(st)) if s == st && s != 0 => {
                // Stride confirmed: generate for the group (bounded by the
                // WQ size and the per-miss budget).
                let budget = self.max_prefetches.min(self.wq_capacity);
                self.table_accesses += group.len().min(budget) as u64; // WQ writes
                group
                    .iter()
                    .filter(|w| **w != acc.warp)
                    .take(budget)
                    .map(|&w| {
                        let delta = i64::from(w.0) - i64::from(acc.warp.0);
                        PrefetchRequest {
                            addr: acc.addr.offset(delta * s),
                            target_warp: w,
                            source: RequestSource::SapPrefetcher,
                        }
                    })
                    .collect()
            }
            (Some(s), _) => {
                // "If the stride values mismatch, then prefetching is not
                // initiated at that instance and the stride in PT is
                // replaced with the newly calculated value."
                entry.stride = Some(s);
                Vec::new()
            }
            (None, _) => {
                entry.stride = None;
                Vec::new()
            }
        }
    }

    fn table_accesses(&self) -> u64 {
        self.table_accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_common::{LineAddr, SmId};

    fn acc(pc: u64, warp: u32, addr: u64) -> DemandAccess {
        DemandAccess {
            sm: SmId(0),
            warp: WarpId(warp),
            pc: Pc(pc),
            addr: Addr::new(addr),
            line: LineAddr(addr / 128),
            hit: false,
            now: 0,
        }
    }

    fn warps(ids: &[u32]) -> Vec<WarpId> {
        ids.iter().map(|&i| WarpId(i)).collect()
    }

    #[test]
    fn paper_figure9_example() {
        let mut sap = Sap::with_defaults();
        // Seed the PT: warp 10 accessed 2800 at PC 200, stride 100 stored.
        assert!(sap.on_group_miss(&acc(200, 8, 2600), &[]).is_empty());
        assert!(sap.on_group_miss(&acc(200, 10, 2800), &[]).is_empty());
        assert_eq!(sap.stride_of(Pc(200)), Some(100));
        // Warp 2 misses at 2000: (2000−2800)/(2−10) = 100 — match.
        let out = sap.on_group_miss(&acc(200, 2, 2000), &warps(&[1, 3]));
        assert_eq!(out.len(), 2);
        // Warp 1: 2000 + (1−2)·100 = 1900.
        assert_eq!(out[0].addr, Addr::new(1900));
        assert_eq!(out[0].target_warp, WarpId(1));
        // Warp 3: 2000 + (3−2)·100 = 2100.
        assert_eq!(out[1].addr, Addr::new(2100));
        assert_eq!(out[1].source, RequestSource::SapPrefetcher);
    }

    #[test]
    fn mismatch_updates_stride_without_prefetch() {
        let mut sap = Sap::with_defaults();
        sap.on_group_miss(&acc(0x10, 0, 0), &[]);
        sap.on_group_miss(&acc(0x10, 1, 4096), &[]); // stride 4096
                                                     // Next sample implies stride 8192: mismatch → silent, replace.
        let out = sap.on_group_miss(&acc(0x10, 2, 4096 + 8192), &warps(&[3]));
        assert!(out.is_empty());
        assert_eq!(sap.stride_of(Pc(0x10)), Some(8192));
        // Consistent 8192 now fires.
        let out = sap.on_group_miss(&acc(0x10, 3, 4096 + 2 * 8192), &warps(&[4]));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].addr, Addr::new(4096 + 3 * 8192));
    }

    #[test]
    fn zero_stride_never_fires() {
        let mut sap = Sap::with_defaults();
        sap.on_group_miss(&acc(0x10, 0, 0x5000), &[]);
        sap.on_group_miss(&acc(0x10, 1, 0x5000), &[]);
        let out = sap.on_group_miss(&acc(0x10, 2, 0x5000), &warps(&[3, 4]));
        assert!(out.is_empty(), "shared loads must not prefetch");
    }

    #[test]
    fn same_warp_twice_cannot_compute_stride() {
        let mut sap = Sap::with_defaults();
        sap.on_group_miss(&acc(0x10, 0, 0), &[]);
        let out = sap.on_group_miss(&acc(0x10, 0, 4096), &warps(&[1]));
        assert!(out.is_empty());
        assert_eq!(sap.stride_of(Pc(0x10)), None);
    }

    #[test]
    fn non_integral_stride_rejected() {
        let mut sap = Sap::with_defaults();
        sap.on_group_miss(&acc(0x10, 0, 0), &[]);
        // Δaddr 100 over Δwarp 3 is not integral.
        let out = sap.on_group_miss(&acc(0x10, 3, 100), &warps(&[1]));
        assert!(out.is_empty());
        assert_eq!(sap.stride_of(Pc(0x10)), None);
    }

    #[test]
    fn issuing_warp_excluded_from_targets() {
        let mut sap = Sap::with_defaults();
        sap.on_group_miss(&acc(0x10, 0, 0), &[]);
        sap.on_group_miss(&acc(0x10, 1, 128), &[]);
        let out = sap.on_group_miss(&acc(0x10, 2, 256), &warps(&[2, 3]));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].target_warp, WarpId(3));
    }

    #[test]
    fn negative_inter_warp_stride() {
        let mut sap = Sap::with_defaults();
        // NW-style negative stride: higher warp, lower address.
        sap.on_group_miss(&acc(0x490, 0, 10_000_000), &[]);
        sap.on_group_miss(&acc(0x490, 1, 9_000_000), &[]);
        let out = sap.on_group_miss(&acc(0x490, 2, 8_000_000), &warps(&[3]));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].addr, Addr::new(7_000_000));
    }

    #[test]
    fn pt_bounded_to_ten_entries() {
        let mut sap = Sap::with_defaults();
        for pc in 0..14u64 {
            sap.on_group_miss(&acc(pc * 8, 0, pc * 1000), &[]);
        }
        assert!(sap.pt.len() <= 10);
    }

    #[test]
    fn budget_caps_group_size() {
        let cfg = ApresConfig {
            max_prefetches_per_miss: 2,
            ..ApresConfig::default()
        };
        let mut sap = Sap::new(&cfg);
        sap.on_group_miss(&acc(0x10, 0, 0), &[]);
        sap.on_group_miss(&acc(0x10, 1, 128), &[]);
        let group = warps(&[3, 4, 5, 6, 7]);
        let out = sap.on_group_miss(&acc(0x10, 2, 256), &group);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn drq_bounded() {
        let mut sap = Sap::with_defaults();
        for i in 0..100u64 {
            sap.on_group_miss(&acc(0x10, (i % 48) as u32, i * 128), &[]);
        }
        assert!(sap.drq.len() <= 32);
    }
}
