//! Miss Status Holding Registers.
//!
//! The MSHR file tracks in-flight misses at line granularity and merges
//! subsequent accesses to the same line. Merging demand requests into an
//! in-flight *prefetch* is central to APRES: "if the warps targeted for
//! prefetch issue the load before the prefetched data is delivered, the
//! demand requests are merged in miss status handling registers of the L1
//! cache" (Section I).

#![deny(
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::request::{AccessKind, LineRequest, MemRequest, OffCore};
use gpu_common::LineAddr;

/// One in-flight miss, holding the requests waiting on it: the L1 keeps
/// whole [`MemRequest`]s, to wake the right loads; an L2 bank keeps
/// [`LineRequest`]s, to answer the right SMs.
#[derive(Debug, Clone)]
pub struct MshrEntry<R = MemRequest> {
    /// The missing line.
    pub line: LineAddr,
    /// The request that allocated the entry.
    pub primary: R,
    /// Requests merged after allocation.
    pub merged: Vec<R>,
    /// `true` while only prefetch requests want the line (no demand merged).
    pub prefetch_only: bool,
}

impl<R: OffCore> MshrEntry<R> {
    /// All demand loads waiting on the line (primary + merged).
    pub fn demand_loads(&self) -> impl Iterator<Item = &R> {
        std::iter::once(&self.primary)
            .chain(self.merged.iter())
            .filter(|r| r.off_core().kind == AccessKind::Load)
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

/// One slot of the line index: a line and its entry's position, or
/// [`VACANT`].
#[derive(Debug, Clone, Copy)]
struct Slot {
    line: LineAddr,
    at: usize,
}

/// The position of a free index slot.
const VACANT: usize = usize::MAX;

/// The home slot of `key` in an open-addressing table of `2^bits` slots
/// (`1 <= bits <= 64`): the top `bits` bits of `key × 2^64/φ`. The hash is
/// fixed, so every process lays a table out and probes it the same way.
pub(crate) fn home_slot(key: u64, bits: u32) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
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
pub struct MshrFile<R = MemRequest> {
    // Unordered entries under an open-addressing line index, not a map:
    // the file sits on the per-access hot path and holds at most
    // `capacity` entries (Table III: 64 per L1, 128 per L2 bank). `slots`
    // has at least twice as many slots as the file has registers, so a
    // linear probe from the line's fixed multiplicative hash ends within
    // a few slots. Allocation pushes; completion swap-removes and points
    // the moved entry's slot at its new position, so no entry is ever
    // shifted (DESIGN.md §13). Only `iter()` promises an order — line
    // order, sorted on that cold diagnostics path — and nothing depends
    // on a per-process RandomState (`clippy.toml` bans HashMap,
    // DESIGN.md §12).
    slots: Vec<Slot>,
    /// log2 of the slot count.
    bits: u32,
    entries: Vec<MshrEntry<R>>,
    capacity: usize,
    merge_slots: usize,
    /// Entries completed so far (see [`MshrFile::releases`]).
    releases: u64,
}

impl<R: OffCore> MshrFile<R> {
    /// Creates a file with `capacity` entries and `merge_slots` merges each.
    ///
    /// Zero sizes are rejected by [`gpu_common::config::CacheConfig::validate`]
    /// before any file is built; a zero here (debug-asserted) would simply
    /// reject every request.
    pub fn new(capacity: usize, merge_slots: usize) -> Self {
        debug_assert!(capacity > 0 && merge_slots > 0);
        let slots = (2 * capacity).next_power_of_two().max(2);
        MshrFile {
            slots: vec![
                Slot {
                    line: LineAddr(0),
                    at: VACANT,
                };
                slots
            ],
            bits: slots.trailing_zeros(),
            entries: Vec::with_capacity(capacity),
            capacity,
            merge_slots,
            releases: 0,
        }
    }

    /// The index slot holding `line` and its entry's position, or the
    /// vacant slot where `line`'s probe ends.
    fn probe(&self, line: LineAddr) -> (usize, Option<usize>) {
        let mask = self.slots.len() - 1;
        let mut i = home_slot(line.0, self.bits);
        loop {
            let slot = self.slots[i];
            if slot.at == VACANT {
                return (i, None);
            }
            if slot.line == line {
                return (i, Some(slot.at));
            }
            i = (i + 1) & mask;
        }
    }

    /// [`MshrFile::probe`], checked in debug builds against a scan of the
    /// entries.
    fn lookup(&self, line: LineAddr) -> (usize, Option<usize>) {
        let found = self.probe(line);
        debug_assert_eq!(
            found.1,
            self.entries.iter().position(|e| e.line == line),
            "MSHR index diverged from a scan for {line:?}"
        );
        found
    }

    /// Frees index slot `hole`, moving later slots of its probe run back
    /// so that every remaining line stays reachable from its hash.
    fn vacate(&mut self, mut hole: usize) {
        let mask = self.slots.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let slot = self.slots[i];
            if slot.at == VACANT {
                break;
            }
            let home = home_slot(slot.line.0, self.bits);
            // The slot may move back unless its home lies in (hole, i].
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.slots[hole] = slot;
                hole = i;
            }
        }
        self.slots[hole].at = VACANT;
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
        self.lookup(line).1.is_some()
    }

    /// In-flight entry for `line`, if any.
    pub fn entry(&self, line: LineAddr) -> Option<&MshrEntry<R>> {
        self.lookup(line).1.map(|i| &self.entries[i])
    }

    /// `true` when [`MshrFile::register`] would refuse a request for `line`:
    /// no register is free, or `line`'s entry has no merge slot left. Does
    /// not change the file.
    pub fn would_reject(&self, line: LineAddr) -> bool {
        match self.lookup(line).1 {
            Some(i) => self.entries[i].merged.len() >= self.merge_slots,
            None => self.is_full(),
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
    pub fn register(&mut self, req: R) -> MshrOutcome {
        let LineRequest { line, kind, .. } = req.off_core();
        match self.lookup(line) {
            (_, Some(i)) => {
                let entry = &mut self.entries[i];
                if entry.merged.len() >= self.merge_slots {
                    return MshrOutcome::Rejected;
                }
                let into_prefetch = entry.prefetch_only && kind.is_demand();
                if kind.is_demand() {
                    entry.prefetch_only = false;
                }
                entry.merged.push(req);
                MshrOutcome::Merged { into_prefetch }
            }
            (slot, None) => {
                if self.is_full() {
                    return MshrOutcome::Rejected;
                }
                self.slots[slot] = Slot {
                    line,
                    at: self.entries.len(),
                };
                self.entries.push(MshrEntry {
                    line,
                    primary: req,
                    merged: Vec::new(),
                    prefetch_only: kind == AccessKind::Prefetch,
                });
                MshrOutcome::Allocated
            }
        }
    }

    /// Completes the miss on `line`, releasing the register and returning
    /// the entry with all merged requests.
    pub fn complete(&mut self, line: LineAddr) -> Option<MshrEntry<R>> {
        let (slot, at) = self.lookup(line);
        let i = at?;
        self.releases += 1;
        self.vacate(slot);
        let entry = self.entries.swap_remove(i);
        if let Some(moved) = self.entries.get(i) {
            // The last entry took position `i`; its slot must follow.
            let (slot, _) = self.probe(moved.line);
            self.slots[slot].at = i;
        }
        Some(entry)
    }

    /// Iterates over in-flight entries in line order (diagnostics; sorts
    /// on every call).
    pub fn iter(&self) -> impl Iterator<Item = &MshrEntry<R>> {
        let mut sorted: Vec<&MshrEntry<R>> = self.entries.iter().collect();
        sorted.sort_unstable_by_key(|e| e.line);
        sorted.into_iter()
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
            MshrOutcome::Merged {
                into_prefetch: false
            }
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
            MshrOutcome::Merged {
                into_prefetch: true
            }
        );
        assert!(!m.entry(LineAddr(7)).unwrap().prefetch_only);
        // A second demand merge is no longer "into prefetch".
        assert_eq!(
            m.register(load(7, 4)),
            MshrOutcome::Merged {
                into_prefetch: false
            }
        );
    }

    #[test]
    fn prefetch_merging_into_demand_keeps_demand() {
        let mut m = MshrFile::new(4, 4);
        m.register(load(7, 0));
        assert_eq!(
            m.register(prefetch(7, 1)),
            MshrOutcome::Merged {
                into_prefetch: false
            }
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
        assert_eq!(
            lines,
            vec![1, 5, 6, 7],
            "diagnostics order must be line-sorted"
        );
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

        use gpu_common::check::Gen;

        /// An entry as `(line, prefetch_only, ids of its requests)`.
        type Seen = (u64, bool, Vec<u32>);

        /// A request type under test: how to build one with an id, and
        /// how to read the id back.
        trait Tagged: OffCore + Sized {
            fn make(line: u64, prefetch: bool, id: u32) -> Self;
            fn id(&self) -> u32;
        }

        impl Tagged for MemRequest {
            fn make(line: u64, prefetch: bool, id: u32) -> Self {
                if prefetch {
                    super::prefetch(line, id)
                } else {
                    super::load(line, id)
                }
            }
            fn id(&self) -> u32 {
                self.warp.0
            }
        }

        impl Tagged for LineRequest {
            fn make(line: u64, prefetch: bool, id: u32) -> Self {
                let kind = if prefetch {
                    AccessKind::Prefetch
                } else {
                    AccessKind::Load
                };
                LineRequest::new(LineAddr(line), SmId(id), kind)
            }
            fn id(&self) -> u32 {
                self.sm.0
            }
        }

        fn seen<R: Tagged>(e: &MshrEntry<R>) -> Seen {
            let ids = std::iter::once(&e.primary)
                .chain(&e.merged)
                .map(Tagged::id)
                .collect();
            (e.line.0, e.prefetch_only, ids)
        }

        /// The geometries under test: one to three registers, and the
        /// L1's and an L2 bank's of Table III.
        fn geometry(g: &mut Gen) -> (usize, usize) {
            match g.range(0, 3) {
                0 | 1 => (g.usize_range(1, 3), g.usize_range(1, 3)),
                2 => (64, 8),
                _ => (128, 8),
            }
        }

        /// A line near a small base, so lines repeat and the file fills,
        /// or one far away, so the index hashes all of a `u64`.
        fn line(g: &mut Gen, capacity: usize, far: &[u64]) -> u64 {
            if g.chance(0.2) {
                *g.choose(far)
            } else {
                g.range(0, 2 * capacity as u64 + 8)
            }
        }

        /// Drives an `MshrFile<R>` and the reference — the file as a
        /// line-sorted vector of entries, searched by bisection and
        /// shifted on every insert and remove — with the same requests.
        fn matches_model<R: Tagged>(g: &mut Gen) -> Result<(), String> {
            let (capacity, slots) = geometry(g);
            let mut far: Vec<u64> = (0..8).map(|_| u64::MAX - g.range(0, 1 << 20)).collect();
            far.extend((0..8).map(|_| g.u64()));
            let mut m: MshrFile<R> = MshrFile::new(capacity, slots);
            let mut model: Vec<Seen> = Vec::new();
            let mut releases = 0u64;
            for i in 0..g.usize_range(0, 8 * capacity + 200) {
                let line = line(g, capacity, &far);
                let id = i as u32;
                let step = if g.chance(0.3) {
                    let want = model.binary_search_by_key(&line, |e| e.0).ok().map(|at| {
                        releases += 1;
                        model.remove(at)
                    });
                    let got = m.complete(LineAddr(line)).as_ref().map(seen);
                    (got != want).then(|| format!("complete: {got:?}, model {want:?}"))
                } else {
                    let prefetch = g.chance(0.3);
                    let want = match model.binary_search_by_key(&line, |e| e.0) {
                        Ok(at) if model[at].2.len() > slots => MshrOutcome::Rejected,
                        Ok(at) => {
                            let into_prefetch = model[at].1 && !prefetch;
                            model[at].1 &= prefetch;
                            model[at].2.push(id);
                            MshrOutcome::Merged { into_prefetch }
                        }
                        Err(_) if model.len() >= capacity => MshrOutcome::Rejected,
                        Err(at) => {
                            model.insert(at, (line, prefetch, vec![id]));
                            MshrOutcome::Allocated
                        }
                    };
                    let would_reject = m.would_reject(LineAddr(line));
                    let got = m.register(R::make(line, prefetch, id));
                    (got != want || would_reject != (want == MshrOutcome::Rejected)).then(|| {
                        format!("register: {got:?} (would_reject {would_reject}), model {want:?}")
                    })
                };
                if let Some(msg) = step {
                    return Err(format!(
                        "{capacity}/{slots}, step {i}, line {line:#x}: {msg}"
                    ));
                }
                if m.releases() != releases {
                    return Err(format!("releases {} != model {releases}", m.releases()));
                }
                if m.len() != model.len() || m.is_full() != (model.len() >= capacity) {
                    return Err(format!("{} entries, model {}", m.len(), model.len()));
                }
                if let Some(e) = model.get(i % model.len().max(1)) {
                    let found = m.entry(LineAddr(e.0)).map(seen);
                    if found.as_ref() != Some(e) || !m.contains(LineAddr(e.0)) {
                        return Err(format!("entry {:#x}: {found:?}, model {e:?}", e.0));
                    }
                }
                let listed: Vec<Seen> = m.iter().map(seen).collect();
                if listed != model {
                    return Err(format!("iter {listed:?} != model {model:?}"));
                }
                let ratio = model.len() as f64 / capacity as f64;
                if m.occupancy_ratio() != ratio {
                    return Err(format!("occupancy {} != {ratio}", m.occupancy_ratio()));
                }
            }
            Ok(())
        }

        #[test]
        fn matches_a_line_sorted_model() {
            run_cases(64, |_, g| matches_model::<MemRequest>(g));
            run_cases(64, |_, g| matches_model::<LineRequest>(g));
        }

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
                    } else if !matches!(m.register(load(l, i as u32 % 48)), MshrOutcome::Rejected) {
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
