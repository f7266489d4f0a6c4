//! SLD — Spatial Locality Detection prefetching (Jog et al., ISCA 2013).
//!
//! "A macro block consists of consecutive four cache lines. If two lines of
//! the block are accessed, the SLD prefetcher will automatically generate
//! prefetch requests for the remaining two lines in the same macro block"
//! (Section III-C). With 128-byte lines a macro block spans 512 bytes, so
//! SLD only covers strides below two cache lines — the structural weakness
//! the paper demonstrates in Figure 3.

use gpu_common::{Addr, LineAddr};
use gpu_sm::traits::{DemandAccess, PrefetchRequest, Prefetcher};
use gpu_mem::request::RequestSource;
use std::collections::BTreeMap;

/// Lines per macro block.
const BLOCK_LINES: u64 = 4;
/// Tracked macro blocks.
const TABLE_ENTRIES: usize = 64;
/// Line size assumed for line→byte conversion of generated prefetches.
const LINE_BYTES: u64 = 128;

#[derive(Debug, Clone)]
struct BlockEntry {
    /// Bitmask of lines touched within the block.
    touched: u8,
    /// The block already fired its prefetches.
    fired: bool,
    lru: u64,
}

/// Macro-block spatial prefetcher.
#[derive(Debug, Clone, Default)]
pub struct Sld {
    // BTreeMap, not HashMap: LRU eviction iterates the table and must
    // break ties by block id, not by a per-process RandomState
    // (`clippy.toml` bans HashMap, DESIGN.md §12).
    table: BTreeMap<u64, BlockEntry>,
    tick: u64,
    table_accesses: u64,
}

impl Sld {
    /// Creates an empty SLD prefetcher.
    pub fn new() -> Self {
        Self::default()
    }

    fn evict_lru_if_full(&mut self) {
        if self.table.len() < TABLE_ENTRIES {
            return;
        }
        if let Some((&b, _)) = self.table.iter().min_by_key(|(_, e)| e.lru) {
            self.table.remove(&b);
        }
    }
}

impl Prefetcher for Sld {
    fn name(&self) -> &'static str {
        "sld"
    }

    fn on_access(&mut self, acc: &DemandAccess) -> Vec<PrefetchRequest> {
        self.table_accesses += 1;
        self.tick += 1;
        let block = acc.line.0 / BLOCK_LINES;
        let line_in_block = (acc.line.0 % BLOCK_LINES) as u8;
        let tick = self.tick;
        if !self.table.contains_key(&block) {
            self.evict_lru_if_full();
            self.table.insert(
                block,
                BlockEntry {
                    touched: 0,
                    fired: false,
                    lru: tick,
                },
            );
        }
        let Some(entry) = self.table.get_mut(&block) else {
            return Vec::new();
        };
        entry.lru = tick;
        entry.touched |= 1 << line_in_block;
        if entry.fired || entry.touched.count_ones() < 2 {
            return Vec::new();
        }
        entry.fired = true;
        let touched = entry.touched;
        (0..BLOCK_LINES as u8)
            .filter(|i| touched & (1 << i) == 0)
            .map(|i| {
                let line = LineAddr(block * BLOCK_LINES + u64::from(i));
                PrefetchRequest {
                    addr: Addr::new(line.0 * LINE_BYTES),
                    target_warp: acc.warp,
                    source: RequestSource::SpatialPrefetcher,
                }
            })
            .collect()
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
    fn second_line_in_block_fires_remaining_two() {
        let mut p = Sld::new();
        // Block 0 covers lines 0..4 (bytes 0..512).
        assert!(p.on_access(&access(0x10, 0, 0, false)).is_empty()); // line 0
        let out = p.on_access(&access(0x10, 1, 128, false)); // line 1
        assert_eq!(out.len(), 2);
        let mut lines: Vec<u64> = out.iter().map(|r| r.addr.0 / 128).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![2, 3]);
    }

    #[test]
    fn fires_once_per_block() {
        let mut p = Sld::new();
        p.on_access(&access(0x10, 0, 0, false));
        assert_eq!(p.on_access(&access(0x10, 1, 128, false)).len(), 2);
        assert!(p.on_access(&access(0x10, 2, 256, false)).is_empty());
        assert!(p.on_access(&access(0x10, 3, 384, false)).is_empty());
    }

    #[test]
    fn repeated_same_line_does_not_fire() {
        let mut p = Sld::new();
        for w in 0..5 {
            assert!(p.on_access(&access(0x10, w, 0, true)).is_empty());
        }
    }

    #[test]
    fn large_strides_never_covered() {
        // Accesses 4096 bytes apart land in distinct blocks: SLD stays
        // silent — the paper's explanation for SLD < STR on Table I strides.
        let mut p = Sld::new();
        for i in 0..8u64 {
            assert!(p
                .on_access(&access(0x10, i as u32, i * 4096, false))
                .is_empty());
        }
    }

    #[test]
    fn blocks_tracked_independently() {
        let mut p = Sld::new();
        p.on_access(&access(0x10, 0, 0, false)); // block 0
        p.on_access(&access(0x10, 1, 1024, false)); // block 2
        assert_eq!(p.on_access(&access(0x10, 2, 1152, false)).len(), 2); // block 2 fires
        assert_eq!(p.on_access(&access(0x10, 3, 128, false)).len(), 2); // block 0 fires
    }

    #[test]
    fn table_bounded() {
        let mut p = Sld::new();
        for i in 0..(TABLE_ENTRIES as u64 + 16) {
            p.on_access(&access(0x10, 0, i * 512, false));
        }
        assert!(p.table.len() <= TABLE_ENTRIES);
    }
}
