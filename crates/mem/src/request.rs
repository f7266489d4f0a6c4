//! Memory request types flowing between the LSU, L1, L2 and DRAM.

use gpu_common::{Cycle, LineAddr, Pc, SmId, WarpId};

/// Why a request exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Demand global load (produces a register value; warps wait on it).
    Load,
    /// Demand global store (write-through; fire-and-forget).
    Store,
    /// Hardware prefetch (no consumer yet).
    Prefetch,
}

impl AccessKind {
    /// `true` for demand accesses (load or store).
    pub fn is_demand(self) -> bool {
        !matches!(self, AccessKind::Prefetch)
    }
}

/// Who generated a prefetch (for attribution in statistics and so SAP can
/// recognise its own fills).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestSource {
    /// Ordinary demand access from a warp.
    Demand,
    /// STR (per-PC stride) prefetcher.
    StridePrefetcher,
    /// SLD (macro-block spatial) prefetcher.
    SpatialPrefetcher,
    /// SAP (scheduling-aware) prefetcher.
    SapPrefetcher,
}

/// A line-granular memory request as the L1 sees it.
///
/// `warp`/`pc`/`body_idx`/`iter` identify the consuming instruction so the
/// pipeline can wake the right warp when the line fills; prefetches carry the
/// *target* warp (the warp predicted to demand the line) so LAWS can
/// prioritise it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemRequest {
    /// Cache line requested.
    pub line: LineAddr,
    /// Demand load / demand store / prefetch.
    pub kind: AccessKind,
    /// Origin engine.
    pub source: RequestSource,
    /// SM issuing the request.
    pub sm: SmId,
    /// Requesting (or, for prefetches, targeted) warp.
    pub warp: WarpId,
    /// PC of the static load/store.
    pub pc: Pc,
    /// Body index of the instruction within its kernel (for warp wake-up).
    pub body_idx: usize,
    /// Loop iteration of the instruction instance.
    pub iter: u64,
    /// Cycle at which the access first entered the L1 (latency accounting).
    pub issue_cycle: Cycle,
}

impl MemRequest {
    /// Creates a demand load request.
    pub fn load(
        line: LineAddr,
        sm: SmId,
        warp: WarpId,
        pc: Pc,
        body_idx: usize,
        iter: u64,
        issue_cycle: Cycle,
    ) -> Self {
        MemRequest {
            line,
            kind: AccessKind::Load,
            source: RequestSource::Demand,
            sm,
            warp,
            pc,
            body_idx,
            iter,
            issue_cycle,
        }
    }

    /// Creates a demand store request.
    pub fn store(line: LineAddr, sm: SmId, warp: WarpId, pc: Pc, issue_cycle: Cycle) -> Self {
        MemRequest {
            line,
            kind: AccessKind::Store,
            source: RequestSource::Demand,
            sm,
            warp,
            pc,
            body_idx: 0,
            iter: 0,
            issue_cycle,
        }
    }

    /// Creates a prefetch request targeting `warp`.
    pub fn prefetch(
        line: LineAddr,
        source: RequestSource,
        sm: SmId,
        warp: WarpId,
        pc: Pc,
        issue_cycle: Cycle,
    ) -> Self {
        debug_assert!(source != RequestSource::Demand);
        MemRequest {
            line,
            kind: AccessKind::Prefetch,
            source,
            sm,
            warp,
            pc,
            body_idx: 0,
            iter: 0,
            issue_cycle,
        }
    }
}

/// A line request past the L1: the NoC, the L2 banks and DRAM read only
/// its line, its kind and the SM a response returns to. 16 bytes and
/// `Copy`, it is what every off-core queue holds; the consuming
/// instruction's identity stays in the L1's MSHR entry (DESIGN.md §14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineRequest {
    /// Cache line requested.
    pub line: LineAddr,
    /// SM the request came from, and the one its response returns to.
    pub sm: SmId,
    /// Demand load / demand store / prefetch.
    pub kind: AccessKind,
}

impl LineRequest {
    /// A request for `line` from `sm`.
    pub fn new(line: LineAddr, sm: SmId, kind: AccessKind) -> Self {
        LineRequest { line, sm, kind }
    }
}

/// A request with an off-core form; what an MSHR file can hold.
pub trait OffCore {
    /// The request as it travels past the L1: its line, SM and kind.
    fn off_core(&self) -> LineRequest;
}

impl OffCore for MemRequest {
    #[inline]
    fn off_core(&self) -> LineRequest {
        LineRequest::new(self.line, self.sm, self.kind)
    }
}

impl OffCore for LineRequest {
    #[inline]
    fn off_core(&self) -> LineRequest {
        *self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds() {
        assert!(AccessKind::Load.is_demand());
        assert!(AccessKind::Store.is_demand());
        assert!(!AccessKind::Prefetch.is_demand());
    }

    #[test]
    fn constructors_set_kind_and_source() {
        let l = MemRequest::load(LineAddr(3), SmId(0), WarpId(1), Pc(0x10), 2, 7, 100);
        assert_eq!(l.kind, AccessKind::Load);
        assert_eq!(l.source, RequestSource::Demand);
        assert_eq!(l.body_idx, 2);
        assert_eq!(l.iter, 7);

        let s = MemRequest::store(LineAddr(3), SmId(0), WarpId(1), Pc(0x10), 100);
        assert_eq!(s.kind, AccessKind::Store);

        let p = MemRequest::prefetch(
            LineAddr(4),
            RequestSource::SapPrefetcher,
            SmId(0),
            WarpId(5),
            Pc(0x10),
            101,
        );
        assert_eq!(p.kind, AccessKind::Prefetch);
        assert_eq!(p.warp, WarpId(5));
    }

    #[test]
    fn off_core_form_is_sixteen_bytes_of_line_sm_and_kind() {
        assert_eq!(std::mem::size_of::<LineRequest>(), 16);
        let l = MemRequest::load(LineAddr(3), SmId(2), WarpId(1), Pc(0x10), 2, 7, 100);
        assert_eq!(
            l.off_core(),
            LineRequest::new(LineAddr(3), SmId(2), AccessKind::Load)
        );
        assert_eq!(l.off_core().off_core(), l.off_core());
    }
}
