//! STR — per-PC stride prefetching (Lee et al., MICRO 2010; Sethia et al.,
//! PACT 2013).
//!
//! Each table entry tracks one static load: the last address it accessed,
//! the last observed stride, and a saturating confidence counter. When two
//! consecutive accesses exhibit the same nonzero stride the prefetcher is
//! confident and fetches `degree` lines ahead of the stream. "Both the STR
//! prefetcher and SAP in APRES adopt adaptive scheme that issues prefetch
//! requests only when the detected stride value shows regular pattern"
//! (Section V-E) — confidence gating implements exactly that.

use gpu_common::{Addr, Pc, WarpId};
use gpu_sm::traits::{DemandAccess, PrefetchRequest, Prefetcher};
use gpu_mem::request::RequestSource;
use std::collections::BTreeMap;

/// Table entries (static loads tracked simultaneously).
const TABLE_ENTRIES: usize = 16;
/// Confidence needed before prefetches issue.
const CONFIDENCE_THRESHOLD: u8 = 2;
/// Prefetch degree (strides fetched ahead of the stream front; 4 keeps the
/// lead ahead of a 48-warp round-robin sweep).
const DEGREE: u64 = 4;

#[derive(Debug, Clone)]
struct StrEntry {
    last_addr: Addr,
    last_warp: WarpId,
    stride: i64,
    confidence: u8,
    lru: u64,
}

/// Per-PC stride prefetcher.
#[derive(Debug, Clone, Default)]
pub struct Str {
    // BTreeMap, not HashMap: LRU eviction iterates the table and must
    // break ties by Pc, not by a per-process RandomState (`clippy.toml`
    // bans HashMap, DESIGN.md §12).
    table: BTreeMap<Pc, StrEntry>,
    tick: u64,
    table_accesses: u64,
}

impl Str {
    /// Creates an empty STR prefetcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Currently learned stride for `pc` (diagnostics/tests).
    pub fn stride_of(&self, pc: Pc) -> Option<i64> {
        self.table.get(&pc).map(|e| e.stride)
    }

    fn evict_lru_if_full(&mut self) {
        if self.table.len() < TABLE_ENTRIES {
            return;
        }
        if let Some((&pc, _)) = self.table.iter().min_by_key(|(_, e)| e.lru) {
            self.table.remove(&pc);
        }
    }
}

impl Prefetcher for Str {
    fn name(&self) -> &'static str {
        "str"
    }

    fn on_access(&mut self, acc: &DemandAccess) -> Vec<PrefetchRequest> {
        self.table_accesses += 1;
        self.tick += 1;
        let tick = self.tick;
        let Some(entry) = self.table.get_mut(&acc.pc) else {
            self.evict_lru_if_full();
            self.table.insert(
                acc.pc,
                StrEntry {
                    last_addr: acc.addr,
                    last_warp: acc.warp,
                    stride: 0,
                    confidence: 0,
                    lru: tick,
                },
            );
            return Vec::new();
        };
        entry.lru = tick;
        let new_stride = acc.addr.0 as i64 - entry.last_addr.0 as i64;
        let mut out = Vec::new();
        if new_stride != 0 && new_stride == entry.stride {
            entry.confidence = entry.confidence.saturating_add(1);
            if entry.confidence >= CONFIDENCE_THRESHOLD {
                for k in 1..=DEGREE {
                    let target = acc.addr.offset(new_stride * k as i64);
                    out.push(PrefetchRequest {
                        addr: target,
                        // Attribute to the accessing warp: STR is
                        // scheduling-oblivious and has no better guess.
                        target_warp: acc.warp,
                        source: RequestSource::StridePrefetcher,
                    });
                }
            }
        } else {
            entry.stride = new_stride;
            entry.confidence = 0;
        }
        entry.last_addr = acc.addr;
        entry.last_warp = acc.warp;
        out
    }

    fn table_accesses(&self) -> u64 {
        self.table_accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::access;

    #[test]
    fn learns_stride_after_confidence() {
        let mut p = Str::new();
        assert!(p.on_access(&access(0x10, 0, 0, false)).is_empty());
        assert!(p.on_access(&access(0x10, 1, 4096, false)).is_empty()); // stride learned
        assert!(p.on_access(&access(0x10, 2, 8192, false)).is_empty()); // confidence 1
        let out = p.on_access(&access(0x10, 3, 12288, false)); // confidence 2 → fire
        assert_eq!(out.len(), DEGREE as usize);
        assert_eq!(out[0].addr, Addr::new(12288 + 4096));
        assert_eq!(out[1].addr, Addr::new(12288 + 8192));
        assert_eq!(p.stride_of(Pc(0x10)), Some(4096));
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut p = Str::new();
        p.on_access(&access(0x10, 0, 0, false));
        p.on_access(&access(0x10, 1, 4096, false));
        p.on_access(&access(0x10, 2, 8192, false));
        // Irregular jump: no prefetch, confidence resets.
        assert!(p.on_access(&access(0x10, 3, 100_000, false)).is_empty());
        assert!(p.on_access(&access(0x10, 4, 104_096, false)).is_empty());
        assert!(p.on_access(&access(0x10, 5, 108_192, false)).is_empty());
        // Regularity restored.
        assert!(!p.on_access(&access(0x10, 6, 112_288, false)).is_empty());
    }

    #[test]
    fn zero_stride_never_prefetches() {
        let mut p = Str::new();
        for w in 0..6 {
            assert!(
                p.on_access(&access(0x10, w, 0x5000, true)).is_empty(),
                "shared-address loads must not trigger prefetch"
            );
        }
    }

    #[test]
    fn negative_stride_supported() {
        let mut p = Str::new();
        p.on_access(&access(0x10, 0, 100_000, false));
        p.on_access(&access(0x10, 1, 99_000, false));
        p.on_access(&access(0x10, 2, 98_000, false));
        let out = p.on_access(&access(0x10, 3, 97_000, false));
        assert!(!out.is_empty());
        assert_eq!(out[0].addr, Addr::new(96_000));
    }

    #[test]
    fn pcs_tracked_independently() {
        let mut p = Str::new();
        for (i, w) in (0..4).enumerate() {
            p.on_access(&access(0x10, w, (i as u64) * 4096, false));
            p.on_access(&access(0x20, w, (i as u64) * 128, false));
        }
        assert_eq!(p.stride_of(Pc(0x10)), Some(4096));
        assert_eq!(p.stride_of(Pc(0x20)), Some(128));
    }

    #[test]
    fn table_bounded_with_lru_eviction() {
        let mut p = Str::new();
        for pc in 0..TABLE_ENTRIES as u64 + 4 {
            p.on_access(&access(pc * 8, 0, pc * 1000, false));
        }
        assert!(p.table.len() <= TABLE_ENTRIES);
        // The oldest PCs were evicted.
        assert!(p.stride_of(Pc(0)).is_none());
    }
}
