//! Set-associative tag store with configurable replacement (LRU baseline,
//! FIFO and MRU for ablations).
//!
//! This is the storage substrate shared by the L1 and the L2 banks. It holds
//! tags and per-line metadata only (no data payloads are needed for timing
//! simulation). Prefetch state per line (`prefetched` / `used`) supports the
//! early-eviction accounting of Sections III-C and V-D.

use gpu_common::config::{CacheConfig, Replacement};
use gpu_common::{Cycle, LineAddr};

/// Per-line metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineState {
    /// Which line occupies the way.
    pub line: LineAddr,
    /// LRU timestamp (monotone counter at last touch).
    pub last_touch: u64,
    /// The line was brought in by a prefetch.
    pub prefetched: bool,
    /// A demand access has hit the line since it was filled.
    pub demand_used: bool,
    /// Cycle the line was filled.
    pub fill_cycle: Cycle,
}

/// Result of evicting a victim during a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted line's metadata.
    pub state: LineState,
}

/// A set-associative, true-LRU cache tag store.
///
/// # Example
///
/// ```
/// use gpu_common::{config::CacheConfig, LineAddr};
/// use gpu_mem::cache::TagStore;
///
/// let cfg = CacheConfig {
///     capacity_bytes: 1024, ways: 2, line_bytes: 128,
///     mshrs: 4, mshr_merge_slots: 4, hit_latency: 1,
///     replacement: Default::default(), bypass: false,
/// };
/// let mut c = TagStore::new(&cfg);
/// assert!(!c.touch(LineAddr(3)));
/// c.fill(LineAddr(3), false, 0);
/// assert!(c.touch(LineAddr(3)));
/// ```
#[derive(Debug, Clone)]
pub struct TagStore {
    sets: Vec<Vec<LineState>>,
    ways: usize,
    num_sets: usize,
    tick: u64,
    policy: Replacement,
}

impl TagStore {
    /// Builds an empty tag store with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see
    /// [`CacheConfig::num_sets`]).
    pub fn new(cfg: &CacheConfig) -> Self {
        let num_sets = cfg.num_sets();
        TagStore {
            sets: vec![Vec::with_capacity(cfg.ways); num_sets],
            ways: cfg.ways,
            num_sets,
            tick: 0,
            policy: cfg.replacement,
        }
    }

    /// The active replacement policy.
    pub fn policy(&self) -> Replacement {
        self.policy
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    fn set_of(&self, line: LineAddr) -> usize {
        line.set_index(self.num_sets)
    }

    /// `true` if the line is resident (does not update LRU state).
    pub fn probe(&self, line: LineAddr) -> bool {
        self.sets[self.set_of(line)].iter().any(|l| l.line == line)
    }

    /// Immutable metadata of a resident line.
    pub fn state(&self, line: LineAddr) -> Option<&LineState> {
        self.sets[self.set_of(line)].iter().find(|l| l.line == line)
    }

    /// Looks the line up as a demand access: updates LRU and the
    /// `demand_used` flag. Returns `true` on hit, plus whether this was the
    /// *first* demand use of a prefetched line (for `useful` accounting).
    pub fn touch(&mut self, line: LineAddr) -> bool {
        self.touch_detailed(line).0
    }

    /// Like [`TagStore::touch`], additionally reporting whether the hit was
    /// the first demand use of a prefetched line.
    pub fn touch_detailed(&mut self, line: LineAddr) -> (bool, bool) {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(line);
        for l in &mut self.sets[set] {
            if l.line == line {
                l.last_touch = tick;
                let first_prefetch_use = l.prefetched && !l.demand_used;
                l.demand_used = true;
                return (true, first_prefetch_use);
            }
        }
        (false, false)
    }

    /// Advances the replacement clock as a demand lookup that misses does:
    /// such a lookup changes nothing else, so a caller that knows the line
    /// is not resident can skip the set scan.
    pub fn note_miss(&mut self) {
        self.tick += 1;
    }

    /// Fills `line` into the cache, evicting a victim chosen by the
    /// replacement policy if the set is full. `prefetched` marks the fill
    /// as prefetch-originated.
    ///
    /// Filling a line that is already resident refreshes its recency
    /// (and ORs in demand usage) without evicting.
    pub fn fill(&mut self, line: LineAddr, prefetched: bool, now: Cycle) -> Option<Evicted> {
        self.tick += 1;
        let tick = self.tick;
        let policy = self.policy;
        let set_idx = self.set_of(line);
        let set = &mut self.sets[set_idx];
        if let Some(existing) = set.iter_mut().find(|l| l.line == line) {
            existing.last_touch = tick;
            return None;
        }
        let evicted = if set.len() == self.ways {
            // A full set is nonempty, so a victim always exists; the unwrap_or
            // keeps the path panic-free regardless.
            let victim = match policy {
                Replacement::Lru => set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.last_touch)
                    .map(|(i, _)| i),
                Replacement::Fifo => set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| (l.fill_cycle, l.line.0))
                    .map(|(i, _)| i),
                Replacement::Mru => set
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, l)| l.last_touch)
                    .map(|(i, _)| i),
            }
            .unwrap_or(0);
            Some(Evicted {
                state: set.swap_remove(victim),
            })
        } else {
            None
        };
        set.push(LineState {
            line,
            last_touch: tick,
            prefetched,
            demand_used: false,
            fill_cycle: now,
        });
        evicted
    }

    /// Invalidates a line if present, returning its state.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<LineState> {
        let set = self.set_of(line);
        let pos = self.sets[set].iter().position(|l| l.line == line)?;
        Some(self.sets[set].swap_remove(pos))
    }

    /// Iterates over all resident lines (diagnostics/tests).
    pub fn iter(&self) -> impl Iterator<Item = &LineState> {
        self.sets.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TagStore {
        // 4 sets × 2 ways, 128 B lines.
        TagStore::new(&CacheConfig {
            capacity_bytes: 1024,
            ways: 2,
            line_bytes: 128,
            mshrs: 4,
            mshr_merge_slots: 4,
            hit_latency: 1,
            replacement: Replacement::Lru,
            bypass: false,
        })
    }

    /// Lines 0, 4, 8 … all map to set 0 in the 4-set cache.
    fn set0(i: u64) -> LineAddr {
        LineAddr(i * 4)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert!(!c.touch(set0(0)));
        assert!(c.fill(set0(0), false, 0).is_none());
        assert!(c.touch(set0(0)));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        c.fill(set0(0), false, 0);
        c.fill(set0(1), false, 1);
        // Touch line 0 so line 1 becomes LRU.
        assert!(c.touch(set0(0)));
        let ev = c.fill(set0(2), false, 2).expect("eviction");
        assert_eq!(ev.state.line, set0(1));
        assert!(c.probe(set0(0)));
        assert!(c.probe(set0(2)));
        assert!(!c.probe(set0(1)));
    }

    #[test]
    fn fill_respects_sets() {
        let mut c = small();
        // Different sets never evict each other.
        for i in 0..4 {
            assert!(c.fill(LineAddr(i), false, 0).is_none());
        }
        assert_eq!(c.occupancy(), 4);
    }

    #[test]
    fn refill_resident_line_is_noop() {
        let mut c = small();
        c.fill(set0(0), false, 0);
        assert!(c.fill(set0(0), true, 5).is_none());
        assert_eq!(c.occupancy(), 1);
        // Original (non-prefetch) metadata is retained.
        assert!(!c.state(set0(0)).unwrap().prefetched);
    }

    #[test]
    fn prefetch_use_reported_once() {
        let mut c = small();
        c.fill(set0(0), true, 0);
        let (hit, first_use) = c.touch_detailed(set0(0));
        assert!(hit && first_use);
        let (hit, first_use) = c.touch_detailed(set0(0));
        assert!(hit && !first_use);
    }

    #[test]
    fn eviction_reports_prefetch_state() {
        let mut c = small();
        c.fill(set0(0), true, 0);
        c.fill(set0(1), false, 1);
        let ev = c.fill(set0(2), false, 2).unwrap();
        assert_eq!(ev.state.line, set0(0));
        assert!(ev.state.prefetched);
        assert!(!ev.state.demand_used);
    }

    #[test]
    fn invalidate() {
        let mut c = small();
        c.fill(set0(0), false, 0);
        assert!(c.invalidate(set0(0)).is_some());
        assert!(!c.probe(set0(0)));
        assert!(c.invalidate(set0(0)).is_none());
    }

    fn small_with(policy: Replacement) -> TagStore {
        TagStore::new(&CacheConfig {
            capacity_bytes: 1024,
            ways: 2,
            line_bytes: 128,
            mshrs: 4,
            mshr_merge_slots: 4,
            hit_latency: 1,
            replacement: policy,
            bypass: false,
        })
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut c = small_with(Replacement::Fifo);
        c.fill(set0(0), false, 0);
        c.fill(set0(1), false, 1);
        // Touching line 0 must NOT save it under FIFO.
        c.touch(set0(0));
        let ev = c.fill(set0(2), false, 2).expect("eviction");
        assert_eq!(ev.state.line, set0(0));
    }

    #[test]
    fn mru_evicts_most_recent() {
        let mut c = small_with(Replacement::Mru);
        c.fill(set0(0), false, 0);
        c.fill(set0(1), false, 1);
        c.touch(set0(0)); // line 0 is now MRU
        let ev = c.fill(set0(2), false, 2).expect("eviction");
        assert_eq!(ev.state.line, set0(0));
        assert!(c.probe(set0(1)));
    }

    #[test]
    fn default_policy_is_lru() {
        assert_eq!(small().policy(), Replacement::Lru);
    }

    mod properties {
        use super::*;
        use gpu_common::check::run_cases;

        #[test]
        fn occupancy_never_exceeds_capacity() {
            run_cases(64, |_, g| {
                let mut c = small();
                let n = g.usize_range(0, 199);
                for i in 0..n {
                    let line = g.range(0, 63);
                    if i % 3 == 0 {
                        c.touch(LineAddr(line));
                    } else {
                        c.fill(LineAddr(line), i % 2 == 0, i as u64);
                    }
                    if c.occupancy() > 8 {
                        return Err(format!("occupancy {} > 8", c.occupancy()));
                    }
                    for set_idx in 0..c.num_sets() {
                        let in_set = c.iter().filter(|l| l.line.set_index(4) == set_idx).count();
                        if in_set > 2 {
                            return Err(format!("set {set_idx} holds {in_set} > 2 ways"));
                        }
                    }
                }
                Ok(())
            });
        }

        #[test]
        fn resident_lines_unique() {
            run_cases(64, |_, g| {
                let mut c = small();
                let n = g.usize_range(0, 199);
                for i in 0..n {
                    c.fill(LineAddr(g.range(0, 31)), false, i as u64);
                    let mut lines: Vec<_> = c.iter().map(|l| l.line).collect();
                    lines.sort_unstable();
                    let before = lines.len();
                    lines.dedup();
                    if lines.len() != before {
                        return Err("duplicate resident line".into());
                    }
                }
                Ok(())
            });
        }

        #[test]
        fn hit_iff_filled_and_not_evicted() {
            run_cases(64, |_, g| {
                let mut c = small();
                let n = g.usize_range(1, 49);
                let fills: Vec<u64> = (0..n).map(|_| g.range(0, 15)).collect();
                for (i, &line) in fills.iter().enumerate() {
                    c.fill(LineAddr(line), false, i as u64);
                }
                // Every probe-hit must be a line we filled at some point.
                for l in 0..16u64 {
                    if c.probe(LineAddr(l)) && !fills.contains(&l) {
                        return Err(format!("hit on never-filled line {l}"));
                    }
                }
                Ok(())
            });
        }
    }
}
