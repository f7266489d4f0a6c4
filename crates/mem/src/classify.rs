//! Miss classification and hit-sequence tracking.
//!
//! Section III-A: "A cache access request is considered either a capacity or
//! a conflict miss if the line has been loaded to cache previously but
//! evicted prior to first reuse" — more loosely, any miss on a line that was
//! resident before is a capacity/conflict miss; a miss on a never-seen line
//! is a cold miss. Section V-C additionally splits hits into *hit-after-hit*
//! (the previous access also hit) and *hit-after-miss*.

use crate::mshr::home_slot;
use gpu_common::LineAddr;

/// Classification of one demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessClass {
    /// Hit; previous access to this cache also hit.
    HitAfterHit,
    /// Hit; previous access missed.
    HitAfterMiss,
    /// Miss on a line never resident before (compulsory).
    ColdMiss,
    /// Miss on a line that was resident before (capacity or conflict).
    CapacityConflictMiss,
}

/// Classifies the demand-access stream of one cache.
#[derive(Debug, Clone, Default)]
pub struct MissClassifier {
    ever_filled: LineSet,
    last_was_hit: bool,
    any_access: bool,
}

impl MissClassifier {
    /// Creates a classifier with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a demand access outcome and classifies it. `hit` includes
    /// MSHR merges (the data was already on its way — the classification of
    /// the *miss* happened when the entry was allocated).
    pub fn classify(&mut self, line: LineAddr, hit: bool) -> AccessClass {
        let class = if hit {
            if self.last_was_hit && self.any_access {
                AccessClass::HitAfterHit
            } else {
                AccessClass::HitAfterMiss
            }
        } else if self.ever_filled.contains(line) {
            AccessClass::CapacityConflictMiss
        } else {
            AccessClass::ColdMiss
        };
        self.last_was_hit = hit;
        self.any_access = true;
        class
    }

    /// Records that `line` has been resident (call at fill time; prefetch
    /// fills count — a subsequent miss on the line is a true re-fetch).
    pub fn note_filled(&mut self, line: LineAddr) {
        self.ever_filled.insert(line);
    }
}

/// The key of a free slot. Group keys are `line >> 3 < 2^61`, so no group
/// has it.
const VACANT: u64 = u64::MAX;

/// log2 of the slot count of the first table: 256 slots (2.3 KB) hold up
/// to 224 groups before the first doubling, so a small footprint costs
/// one allocation.
const MIN_BITS: u32 = 8;

/// Every line ever filled: an open-addressing table of 8-line groups keyed
/// by `line >> 3`, each with an 8-bit mask of its filled lines (DESIGN.md
/// §13). Exact for every `u64` line; about 9 bytes per slot, at a load of
/// at most 7/8.
#[derive(Debug, Clone, Default)]
struct LineSet {
    /// The table's `n` group keys (or [`VACANT`]), then their masks packed
    /// eight to a word: slot `i`'s mask is byte `i % 8` of word
    /// `n + i / 8`. Keys and masks share this one buffer, so a growth is
    /// one allocation. Empty until the first insert.
    buf: Vec<u64>,
    /// log2 of the slot count `n` (0 while `buf` is empty).
    bits: u32,
    /// Groups stored.
    groups: usize,
}

impl LineSet {
    fn slots(&self) -> usize {
        if self.buf.is_empty() {
            0
        } else {
            1 << self.bits
        }
    }

    /// The slot holding group `key`, or the vacant slot where its probe
    /// ends. The table must not be empty.
    fn probe(&self, key: u64) -> usize {
        let mask = (1 << self.bits) - 1;
        let mut i = home_slot(key, self.bits);
        while self.buf[i] != key && self.buf[i] != VACANT {
            i = (i + 1) & mask;
        }
        i
    }

    /// The mask word of slot `i` and the bit of `line` within it.
    fn mask_bit(&self, i: usize, line: u64) -> (usize, u64) {
        (
            self.slots() + i / 8,
            1 << ((i % 8) * 8 + (line & 7) as usize),
        )
    }

    fn contains(&self, line: LineAddr) -> bool {
        if self.buf.is_empty() {
            return false;
        }
        let i = self.probe(line.0 >> 3);
        let (word, bit) = self.mask_bit(i, line.0);
        self.buf[i] != VACANT && self.buf[word] & bit != 0
    }

    fn insert(&mut self, line: LineAddr) {
        let key = line.0 >> 3;
        if self.buf.is_empty() {
            self.grow();
        }
        let mut i = self.probe(key);
        if self.buf[i] == VACANT {
            if 8 * (self.groups + 1) > 7 * self.slots() {
                self.grow();
                i = self.probe(key);
            }
            self.buf[i] = key;
            self.groups += 1;
        }
        let (word, bit) = self.mask_bit(i, line.0);
        self.buf[word] |= bit;
    }

    /// Doubles the table (or builds the first one) and rehashes every
    /// group with its mask.
    fn grow(&mut self) {
        let old_slots = self.slots();
        let old = std::mem::take(&mut self.buf);
        self.bits = if old.is_empty() {
            MIN_BITS
        } else {
            self.bits + 1
        };
        let n = 1 << self.bits;
        self.buf = vec![VACANT; n + n / 8];
        self.buf[n..].fill(0);
        for (i, &key) in old.iter().take(old_slots).enumerate() {
            if key == VACANT {
                continue;
            }
            let mask = old[old_slots + i / 8] >> ((i % 8) * 8) & 0xFF;
            let j = self.probe(key);
            self.buf[j] = key;
            self.buf[n + j / 8] |= mask << ((j % 8) * 8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_cold() {
        let mut c = MissClassifier::new();
        assert_eq!(c.classify(LineAddr(1), false), AccessClass::ColdMiss);
    }

    #[test]
    fn refetch_after_eviction_is_capacity_conflict() {
        let mut c = MissClassifier::new();
        assert_eq!(c.classify(LineAddr(1), false), AccessClass::ColdMiss);
        c.note_filled(LineAddr(1));
        // ... line evicted by the cache in the meantime ...
        assert_eq!(
            c.classify(LineAddr(1), false),
            AccessClass::CapacityConflictMiss
        );
    }

    #[test]
    fn miss_without_fill_stays_cold() {
        // A rejected (MSHR-full) access never filled the line; a later miss
        // is still compulsory.
        let mut c = MissClassifier::new();
        c.classify(LineAddr(2), false);
        assert_eq!(c.classify(LineAddr(2), false), AccessClass::ColdMiss);
    }

    #[test]
    fn hit_sequencing() {
        let mut c = MissClassifier::new();
        c.note_filled(LineAddr(1));
        // First access overall that hits counts as hit-after-miss
        // (no preceding hit).
        assert_eq!(c.classify(LineAddr(1), true), AccessClass::HitAfterMiss);
        assert_eq!(c.classify(LineAddr(1), true), AccessClass::HitAfterHit);
        assert_eq!(c.classify(LineAddr(9), false), AccessClass::ColdMiss);
        assert_eq!(c.classify(LineAddr(1), true), AccessClass::HitAfterMiss);
        assert_eq!(c.classify(LineAddr(1), true), AccessClass::HitAfterHit);
    }

    mod properties {
        use super::*;
        use gpu_common::check::run_cases;

        #[test]
        fn conservation() {
            run_cases(64, |_, g| {
                let n = g.usize_range(0, 199);
                let accesses: Vec<(u64, bool)> =
                    (0..n).map(|_| (g.range(0, 15), g.chance(0.5))).collect();
                let mut c = MissClassifier::new();
                let (mut hh, mut hm, mut cold, mut cc) = (0u64, 0u64, 0u64, 0u64);
                for &(line, hit) in &accesses {
                    match c.classify(LineAddr(line), hit) {
                        AccessClass::HitAfterHit => hh += 1,
                        AccessClass::HitAfterMiss => hm += 1,
                        AccessClass::ColdMiss => cold += 1,
                        AccessClass::CapacityConflictMiss => cc += 1,
                    }
                    if !hit {
                        c.note_filled(LineAddr(line));
                    }
                }
                let hits = accesses.iter().filter(|&&(_, h)| h).count() as u64;
                if hh + hm != hits {
                    return Err(format!("hit classes {} != hits {hits}", hh + hm));
                }
                if cold + cc != accesses.len() as u64 - hits {
                    return Err(format!(
                        "miss classes {} != misses {}",
                        cold + cc,
                        accesses.len() as u64 - hits
                    ));
                }
                Ok(())
            });
        }

        #[test]
        fn matches_a_line_set_across_growth() {
            use std::collections::BTreeSet;
            let mut growths = 0;
            run_cases(48, |_, g| {
                let mut c = MissClassifier::new();
                let mut reference = BTreeSet::new();
                // Dense runs, where groups fill up, and sparse ones, where
                // every line is a group of its own, at either end of the
                // line space and in between.
                let span = [64, 4096, 1 << 40][g.usize_range(0, 2)];
                let base = [0, g.range(0, u64::MAX - span), u64::MAX - span][g.usize_range(0, 2)];
                for _ in 0..g.usize_range(0, 6000) {
                    let line = LineAddr(base + g.range(0, span));
                    let expect = if reference.contains(&line) {
                        AccessClass::CapacityConflictMiss
                    } else {
                        AccessClass::ColdMiss
                    };
                    let got = c.classify(line, false);
                    if got != expect {
                        return Err(format!("{line:?}: {got:?}, a line set says {expect:?}"));
                    }
                    if g.chance(0.5) {
                        let bits = c.ever_filled.bits;
                        c.note_filled(line);
                        reference.insert(line);
                        if c.ever_filled.bits != bits {
                            // Every line filled so far survives the rehash.
                            growths += 1;
                            if let Some(lost) =
                                reference.iter().find(|&&l| !c.ever_filled.contains(l))
                            {
                                return Err(format!("{lost:?} lost growing to {bits} bits"));
                            }
                        }
                    }
                }
                let set = &c.ever_filled;
                let groups = reference.iter().map(|l| l.0 >> 3).collect::<BTreeSet<_>>();
                if set.groups != groups.len() || 8 * set.groups > 7 * set.slots() {
                    return Err(format!(
                        "{} groups in {} slots, a line set has {}",
                        set.groups,
                        set.slots(),
                        groups.len()
                    ));
                }
                Ok(())
            });
            assert!(growths > 100, "only {growths} growths tested");
        }

        #[test]
        fn cold_at_most_once_per_line() {
            run_cases(64, |_, g| {
                let mut c = MissClassifier::new();
                let mut cold_seen = std::collections::BTreeSet::new();
                let n = g.usize_range(0, 99);
                for _ in 0..n {
                    let l = g.range(0, 7);
                    if c.classify(LineAddr(l), false) == AccessClass::ColdMiss
                        && !cold_seen.insert(l)
                    {
                        return Err(format!("line {l} cold twice"));
                    }
                    c.note_filled(LineAddr(l));
                }
                Ok(())
            });
        }
    }
}
