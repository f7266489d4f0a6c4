//! Miss classification and hit-sequence tracking.
//!
//! Section III-A: "A cache access request is considered either a capacity or
//! a conflict miss if the line has been loaded to cache previously but
//! evicted prior to first reuse" — more loosely, any miss on a line that was
//! resident before is a capacity/conflict miss; a miss on a never-seen line
//! is a cold miss. Section V-C additionally splits hits into *hit-after-hit*
//! (the previous access also hit) and *hit-after-miss*.

use gpu_common::LineAddr;
use std::collections::BTreeSet;

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
    ever_filled: BTreeSet<LineAddr>,
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
        } else if self.ever_filled.contains(&line) {
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
