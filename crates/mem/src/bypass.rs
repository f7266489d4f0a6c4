//! Per-PC L1 bypass prediction (MRPB-style, Jia et al., HPCA 2014).
//!
//! The paper's related work (Section VI) surveys cache bypassing as the
//! other family of GPU cache-efficiency techniques: static loads that
//! thrash the L1 without reuse are served around it, preserving the cache
//! for loads that can hit. This module implements the per-PC variant as an
//! *extension* (off by default): a bounded table of saturating counters —
//! misses charge a PC, hits discharge it, and a PC whose counter saturates
//! past the threshold has its fills bypassed (requests still merge in the
//! MSHRs; the returning line simply is not installed).
//!
//! A slow periodic decay lets a bypassed PC re-audition for cacheability
//! when program behaviour shifts.

use gpu_common::Pc;
use std::collections::BTreeMap;

/// Counter ceiling.
const MAX_SCORE: u8 = 15;
/// Score at which a PC starts bypassing.
const BYPASS_THRESHOLD: u8 = 12;
/// One decay tick per this many accesses of the PC.
const DECAY_INTERVAL: u32 = 128;
/// Tracked PCs.
const TABLE_ENTRIES: usize = 32;

#[derive(Debug, Clone, Default)]
struct PcEntry {
    score: u8,
    accesses: u32,
    lru: u64,
}

/// Per-PC bypass predictor.
#[derive(Debug, Clone, Default)]
pub struct BypassPredictor {
    // BTreeMap, not HashMap: the LRU eviction below iterates the table,
    // and `min_by_key` must break score ties by Pc order, not by a
    // per-process RandomState (`clippy.toml` bans HashMap, DESIGN.md §12).
    table: BTreeMap<Pc, PcEntry>,
    tick: u64,
    /// Demand loads served around the L1.
    pub bypassed: u64,
}

impl BypassPredictor {
    /// Creates an empty predictor.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when `pc`'s fills should bypass the L1. Also advances the
    /// PC's access/decay clocks.
    pub fn should_bypass(&mut self, pc: Pc) -> bool {
        self.tick += 1;
        let tick = self.tick;
        if self.table.len() >= TABLE_ENTRIES && !self.table.contains_key(&pc) {
            if let Some((&old, _)) = self.table.iter().min_by_key(|(_, e)| e.lru) {
                self.table.remove(&old);
            }
        }
        let e = self.table.entry(pc).or_default();
        e.lru = tick;
        e.accesses += 1;
        if e.accesses.is_multiple_of(DECAY_INTERVAL) {
            e.score = e.score.saturating_sub(1);
        }
        let bypass = e.score >= BYPASS_THRESHOLD;
        if bypass {
            self.bypassed += 1;
        }
        bypass
    }

    /// Records the L1 outcome of a (non-bypassed) access from `pc`.
    pub fn record(&mut self, pc: Pc, hit: bool) {
        if let Some(e) = self.table.get_mut(&pc) {
            if hit {
                e.score = e.score.saturating_sub(1);
            } else {
                e.score = (e.score + 1).min(MAX_SCORE);
            }
        }
    }

    /// Current score of `pc` (diagnostics/tests).
    pub fn score(&self, pc: Pc) -> u8 {
        self.table.get(&pc).map_or(0, |e| e.score)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misses_build_up_to_bypass() {
        let mut p = BypassPredictor::new();
        for _ in 0..BYPASS_THRESHOLD {
            assert!(!p.should_bypass(Pc(0x10)));
            p.record(Pc(0x10), false);
        }
        assert!(p.should_bypass(Pc(0x10)));
        assert_eq!(p.bypassed, 1);
    }

    #[test]
    fn hits_discharge() {
        let mut p = BypassPredictor::new();
        for _ in 0..MAX_SCORE {
            p.should_bypass(Pc(0x10));
            p.record(Pc(0x10), false);
        }
        assert!(p.should_bypass(Pc(0x10)));
        for _ in 0..MAX_SCORE {
            p.record(Pc(0x10), true);
        }
        assert!(!p.should_bypass(Pc(0x10)));
    }

    #[test]
    fn decay_reauditions_bypassed_pcs() {
        let mut p = BypassPredictor::new();
        for _ in 0..MAX_SCORE {
            p.should_bypass(Pc(0x10));
            p.record(Pc(0x10), false);
        }
        assert_eq!(p.score(Pc(0x10)), MAX_SCORE);
        // Bypassed accesses never call record(); only decay lowers the
        // score: MAX−THRESHOLD+1 decay ticks flip it back.
        let mut flips = 0;
        for _ in 0..DECAY_INTERVAL * 8 {
            if !p.should_bypass(Pc(0x10)) {
                flips += 1;
                break;
            }
        }
        assert!(flips > 0, "decay must eventually re-audition the PC");
    }

    #[test]
    fn table_bounded_lru() {
        let mut p = BypassPredictor::new();
        for i in 0..(TABLE_ENTRIES as u64 + 8) {
            p.should_bypass(Pc(i * 8));
        }
        assert!(p.table.len() <= TABLE_ENTRIES);
    }

    #[test]
    fn unknown_pc_score_zero() {
        assert_eq!(BypassPredictor::new().score(Pc(0x99)), 0);
    }
}
