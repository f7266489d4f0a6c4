//! Pipeline events.
//!
//! What the pipeline did — scheduling decisions, L1 outcomes, prefetches,
//! fills, barrier releases — for debugging policies and for teaching: the
//! interleavings behind Figure 6's LRR/LAWS/APRES comparison can be read
//! directly off a trace.
//!
//! Recording is opt-in per run: an [`Observer`](crate::gpu::Observer) whose
//! [`wants_events`](crate::gpu::Observer::wants_events) is `true` makes every
//! SM record each cycle's events into a reused buffer, read through
//! [`Sm::events`](crate::sm::Sm::events). A run that does not ask pays one
//! flag check per event site.

use gpu_common::{Cycle, LineAddr, Pc, WarpId};

/// One pipeline event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The scheduler issued an instruction from `warp`.
    Issue {
        /// Cycle of issue.
        cycle: Cycle,
        /// Issuing warp.
        warp: WarpId,
        /// Static PC.
        pc: Pc,
        /// Coarse instruction kind.
        kind: IssueKind,
    },
    /// A load's head line accessed the L1.
    L1Access {
        /// Cycle of the access.
        cycle: Cycle,
        /// Accessing warp.
        warp: WarpId,
        /// Static load PC.
        pc: Pc,
        /// Line accessed.
        line: LineAddr,
        /// `true` on hit or in-flight merge.
        hit: bool,
    },
    /// A prefetch entered the L1 (accepted and forwarded downstream).
    Prefetch {
        /// Cycle of issue.
        cycle: Cycle,
        /// Warp predicted to demand the line.
        target: WarpId,
        /// Line prefetched.
        line: LineAddr,
    },
    /// A line fill arrived from the memory system.
    Fill {
        /// Cycle of arrival.
        cycle: Cycle,
        /// Line filled.
        line: LineAddr,
        /// Demand loads woken by the fill.
        woken: u32,
    },
    /// A barrier released its wave.
    BarrierRelease {
        /// Cycle of release.
        cycle: Cycle,
        /// Body index of the barrier.
        body_idx: usize,
        /// Warps released.
        released: u32,
    },
}

impl TraceEvent {
    /// Cycle the event occurred.
    pub fn cycle(&self) -> Cycle {
        match *self {
            TraceEvent::Issue { cycle, .. }
            | TraceEvent::L1Access { cycle, .. }
            | TraceEvent::Prefetch { cycle, .. }
            | TraceEvent::Fill { cycle, .. }
            | TraceEvent::BarrierRelease { cycle, .. } => cycle,
        }
    }
}

/// Coarse instruction kind of an [`TraceEvent::Issue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueKind {
    /// Arithmetic.
    Alu,
    /// Global load.
    Load,
    /// Global store.
    Store,
    /// Block barrier.
    Barrier,
}
