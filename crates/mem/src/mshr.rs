//! Miss Status Holding Registers.
//!
//! The MSHR file tracks in-flight misses at line granularity and merges
//! subsequent accesses to the same line. Merging demand requests into an
//! in-flight *prefetch* is central to APRES: "if the warps targeted for
//! prefetch issue the load before the prefetched data is delivered, the
//! demand requests are merged in miss status handling registers of the L1
//! cache" (Section I).

#![deny(clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::request::{AccessKind, MemRequest};
use gpu_common::LineAddr;

/// One in-flight miss.
#[derive(Debug, Clone)]
pub struct MshrEntry {
    /// The missing line.
    pub line: LineAddr,
    /// The request that allocated the entry.
    pub primary: MemRequest,
    /// Requests merged after allocation.
    pub merged: Vec<MemRequest>,
    /// `true` while only prefetch requests want the line (no demand merged).
    pub prefetch_only: bool,
}

impl MshrEntry {
    /// All demand loads waiting on the line (primary + merged).
    pub fn demand_loads(&self) -> impl Iterator<Item = &MemRequest> {
        std::iter::once(&self.primary)
            .chain(self.merged.iter())
            .filter(|r| r.kind == AccessKind::Load)
    }

    /// Total requests attached to this entry.
    pub fn occupancy(&self) -> usize {
        1 + self.merged.len()
    }
}

/// Result of attempting to register a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A fresh entry was allocated; the request must be forwarded downstream.
    Allocated,
    /// Merged into an existing in-flight entry; no downstream request.
    Merged {
        /// The merge target was (still) a prefetch-only entry.
        into_prefetch: bool,
    },
    /// No MSHR or merge slot available; caller must retry later.
    Rejected,
}

/// A bounded MSHR file with per-entry merge slots.
///
/// # Example
///
/// ```
/// use gpu_common::{LineAddr, SmId, WarpId, Pc};
/// use gpu_mem::mshr::{MshrFile, MshrOutcome};
/// use gpu_mem::request::MemRequest;
///
/// let mut m = MshrFile::new(2, 4);
/// let r = MemRequest::load(LineAddr(1), SmId(0), WarpId(0), Pc(0), 0, 0, 0);
/// assert_eq!(m.register(r.clone()), MshrOutcome::Allocated);
/// assert!(matches!(m.register(r), MshrOutcome::Merged { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    // Flat line-sorted vector, not a map: the file sits on the per-access
    // hot path and holds at most `capacity` (≈32) entries, so a
    // binary-searched contiguous vector beats pointer-chasing tree nodes
    // (DESIGN.md §13, flat-vs-ordered container policy). Sortedness is the
    // load-bearing part: `iter()` feeds diagnostics (deadlock dumps) and
    // the property-test ledger, so the visit order must stay line-ordered
    // and process-independent — never a HashMap's RandomState order
    // (`clippy.toml` bans HashMap, DESIGN.md §12).
    entries: Vec<MshrEntry>,
    capacity: usize,
    merge_slots: usize,
    /// Entries completed so far (see [`MshrFile::releases`]).
    releases: u64,
}

impl MshrFile {
    /// Creates a file with `capacity` entries and `merge_slots` merges each.
    ///
    /// Zero sizes are rejected by [`gpu_common::config::CacheConfig::validate`]
    /// before any file is built; a zero here (debug-asserted) would simply
    /// reject every request.
    pub fn new(capacity: usize, merge_slots: usize) -> Self {
        debug_assert!(capacity > 0 && merge_slots > 0);
        MshrFile {
            entries: Vec::with_capacity(capacity),
            capacity,
            merge_slots,
            releases: 0,
        }
    }

    /// Index of `line`'s entry, or the insertion point keeping the vector
    /// line-sorted.
    fn find(&self, line: LineAddr) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&line, |e| e.line)
    }

    /// Entries currently in flight.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no miss is in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` when every register is in use.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Occupancy as a fraction of capacity (MASCAR's saturation signal).
    pub fn occupancy_ratio(&self) -> f64 {
        self.entries.len() as f64 / self.capacity as f64
    }

    /// `true` if a miss on `line` is in flight.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_ok()
    }

    /// In-flight entry for `line`, if any.
    pub fn entry(&self, line: LineAddr) -> Option<&MshrEntry> {
        self.find(line).ok().map(|i| &self.entries[i])
    }

    /// `true` when [`MshrFile::register`] would refuse a request for `line`:
    /// no register is free, or `line`'s entry has no merge slot left. Does
    /// not change the file.
    pub fn would_reject(&self, line: LineAddr) -> bool {
        match self.find(line) {
            Ok(i) => self.entries[i].merged.len() >= self.merge_slots,
            Err(_) => self.is_full(),
        }
    }

    /// Number of entries completed since the file was built. A request
    /// [`MshrFile::register`] refused is refused again while this count is
    /// unchanged: only a completion frees a register or a merge slot.
    pub fn releases(&self) -> u64 {
        self.releases
    }

    /// Registers a missing request: merges into an in-flight entry when one
    /// exists, otherwise allocates (if a register is free).
    pub fn register(&mut self, req: MemRequest) -> MshrOutcome {
        match self.find(req.line) {
            Ok(i) => {
                let entry = &mut self.entries[i];
                if entry.merged.len() >= self.merge_slots {
                    return MshrOutcome::Rejected;
                }
                let into_prefetch = entry.prefetch_only && req.kind.is_demand();
                if req.kind.is_demand() {
                    entry.prefetch_only = false;
                }
                entry.merged.push(req);
                MshrOutcome::Merged { into_prefetch }
            }
            Err(at) => {
                if self.is_full() {
                    return MshrOutcome::Rejected;
                }
                let prefetch_only = req.kind == AccessKind::Prefetch;
                self.entries.insert(
                    at,
                    MshrEntry {
                        line: req.line,
                        primary: req,
                        merged: Vec::new(),
                        prefetch_only,
                    },
                );
                MshrOutcome::Allocated
            }
        }
    }

    /// Completes the miss on `line`, releasing the register and returning
    /// the entry with all merged requests.
    pub fn complete(&mut self, line: LineAddr) -> Option<MshrEntry> {
        let i = self.find(line).ok()?;
        self.releases += 1;
        Some(self.entries.remove(i))
    }

    /// Iterates over in-flight entries in line order (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &MshrEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestSource;
    use gpu_common::{Pc, SmId, WarpId};

    fn load(line: u64, warp: u32) -> MemRequest {
        MemRequest::load(LineAddr(line), SmId(0), WarpId(warp), Pc(0x10), 0, 0, 0)
    }

    fn prefetch(line: u64, warp: u32) -> MemRequest {
        MemRequest::prefetch(
            LineAddr(line),
            RequestSource::SapPrefetcher,
            SmId(0),
            WarpId(warp),
            Pc(0x10),
            0,
        )
    }

    #[test]
    fn allocate_then_merge_then_complete() {
        let mut m = MshrFile::new(4, 4);
        assert_eq!(m.register(load(1, 0)), MshrOutcome::Allocated);
        assert_eq!(
            m.register(load(1, 1)),
            MshrOutcome::Merged { into_prefetch: false }
        );
        assert_eq!(m.len(), 1);
        let entry = m.complete(LineAddr(1)).unwrap();
        assert_eq!(entry.occupancy(), 2);
        assert_eq!(entry.demand_loads().count(), 2);
        assert!(m.is_empty());
        assert!(m.complete(LineAddr(1)).is_none());
    }

    #[test]
    fn capacity_rejects() {
        let mut m = MshrFile::new(2, 4);
        assert_eq!(m.register(load(1, 0)), MshrOutcome::Allocated);
        assert_eq!(m.register(load(2, 0)), MshrOutcome::Allocated);
        assert!(m.is_full());
        assert_eq!(m.register(load(3, 0)), MshrOutcome::Rejected);
        // Merging into existing entries still allowed when full.
        assert!(matches!(m.register(load(2, 1)), MshrOutcome::Merged { .. }));
    }

    #[test]
    fn merge_slots_reject() {
        let mut m = MshrFile::new(2, 1);
        m.register(load(1, 0));
        assert!(matches!(m.register(load(1, 1)), MshrOutcome::Merged { .. }));
        assert_eq!(m.register(load(1, 2)), MshrOutcome::Rejected);
    }

    #[test]
    fn would_reject_matches_register_until_a_release() {
        let mut m = MshrFile::new(2, 1);
        m.register(load(1, 0));
        assert!(!m.would_reject(LineAddr(1)), "merge slot free");
        m.register(load(1, 1));
        assert!(m.would_reject(LineAddr(1)), "merge slots used up");
        assert_eq!(m.register(load(1, 2)), MshrOutcome::Rejected);
        m.register(load(2, 0));
        assert!(m.would_reject(LineAddr(3)), "file full");
        assert_eq!(m.register(load(3, 0)), MshrOutcome::Rejected);
        assert_eq!(m.releases(), 0);
        m.complete(LineAddr(1));
        m.complete(LineAddr(1)); // no entry left: not a release
        assert_eq!(m.releases(), 1);
        assert!(!m.would_reject(LineAddr(3)));
        assert_eq!(m.register(load(3, 0)), MshrOutcome::Allocated);
    }

    #[test]
    fn demand_merging_into_prefetch_flagged() {
        let mut m = MshrFile::new(4, 4);
        assert_eq!(m.register(prefetch(7, 3)), MshrOutcome::Allocated);
        assert!(m.entry(LineAddr(7)).unwrap().prefetch_only);
        assert_eq!(
            m.register(load(7, 3)),
            MshrOutcome::Merged { into_prefetch: true }
        );
        assert!(!m.entry(LineAddr(7)).unwrap().prefetch_only);
        // A second demand merge is no longer "into prefetch".
        assert_eq!(
            m.register(load(7, 4)),
            MshrOutcome::Merged { into_prefetch: false }
        );
    }

    #[test]
    fn prefetch_merging_into_demand_keeps_demand() {
        let mut m = MshrFile::new(4, 4);
        m.register(load(7, 0));
        assert_eq!(
            m.register(prefetch(7, 1)),
            MshrOutcome::Merged { into_prefetch: false }
        );
        assert!(!m.entry(LineAddr(7)).unwrap().prefetch_only);
    }

    #[test]
    fn iter_stays_line_sorted_regardless_of_insertion_order() {
        let mut m = MshrFile::new(8, 4);
        for l in [5u64, 1, 7, 3, 6] {
            assert_eq!(m.register(load(l, 0)), MshrOutcome::Allocated);
        }
        m.complete(LineAddr(3));
        let lines: Vec<u64> = m.iter().map(|e| e.line.0).collect();
        assert_eq!(lines, vec![1, 5, 6, 7], "diagnostics order must be line-sorted");
    }

    #[test]
    fn occupancy_ratio() {
        let mut m = MshrFile::new(4, 4);
        assert_eq!(m.occupancy_ratio(), 0.0);
        m.register(load(1, 0));
        m.register(load(2, 0));
        assert!((m.occupancy_ratio() - 0.5).abs() < 1e-12);
    }

    mod properties {
        use super::*;
        use gpu_common::check::run_cases;

        #[test]
        fn no_duplicate_lines_and_bounded() {
            run_cases(64, |_, g| {
                let mut m = MshrFile::new(4, 2);
                let mut accepted = 0usize;
                let n = g.usize_range(0, 99);
                for i in 0..n {
                    let l = g.range(0, 7);
                    if i % 7 == 6 {
                        m.complete(LineAddr(l));
                    } else if !matches!(
                        m.register(load(l, i as u32 % 48)),
                        MshrOutcome::Rejected
                    ) {
                        accepted += 1;
                    }
                    if m.len() > 4 {
                        return Err(format!("{} entries > capacity 4", m.len()));
                    }
                }
                // Conservation: every accepted request is either still in an
                // entry or was drained by a completion.
                let in_flight: usize = m.iter().map(|e| e.occupancy()).sum();
                if in_flight > accepted {
                    return Err(format!("in flight {in_flight} > accepted {accepted}"));
                }
                Ok(())
            });
        }
    }
}
