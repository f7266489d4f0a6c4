//! Scheduler and prefetcher interfaces and the events the pipeline feeds
//! them (the Figure 5 wiring).

use gpu_common::fault::{FaultCounters, FaultState};
use gpu_common::{Addr, Cycle, LaneList, LineAddr, Pc, SmId, WarpId, MAX_WARPS_PER_SM};
use gpu_mem::request::RequestSource;

/// A warp eligible for issue this cycle, with the information schedulers
/// condition on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadyWarp {
    /// The warp.
    pub id: WarpId,
    /// Its next instruction is a global load or store (MASCAR and LAWS
    /// condition on memory-ness).
    pub next_is_mem: bool,
    /// Its next instruction is a global load.
    pub next_is_load: bool,
    /// PC of the next instruction.
    pub next_pc: Pc,
}

/// Per-cycle context handed to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedCtx {
    /// Current cycle.
    pub now: Cycle,
    /// L1 MSHR occupancy in `[0, 1]` (MASCAR's saturation signal).
    pub mshr_occupancy: f64,
    /// Warps resident on this SM.
    pub warps_per_sm: usize,
}

/// Outcome of one load instruction's (head-line) L1 access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1Outcome {
    /// Data was resident.
    Hit,
    /// MSHR allocated, request sent downstream.
    Miss,
    /// Merged into an in-flight miss.
    Merged {
        /// The entry was prefetch-only before the merge.
        into_prefetch: bool,
    },
}

impl L1Outcome {
    /// Hits and merges count as cache hits for scheduling feedback (the data
    /// is resident or already inbound).
    pub fn counts_as_hit(self) -> bool {
        !matches!(self, L1Outcome::Miss)
    }
}

/// L1 access report sent to the scheduler by the load-store unit
/// ("warp ID of the current load, the associated warp group ID, and cache
/// hit status of the load are sent to the scheduler", Section IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Event {
    /// Warp that executed the load.
    pub warp: WarpId,
    /// PC of the static load.
    pub pc: Pc,
    /// Lowest-lane byte address of the access.
    pub addr: Addr,
    /// Line of the head access.
    pub line: LineAddr,
    /// Hit/miss/merge status.
    pub outcome: L1Outcome,
    /// Cycle of the access.
    pub now: Cycle,
}

/// A demand access descriptor handed to prefetchers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemandAccess {
    /// SM issuing the access.
    pub sm: SmId,
    /// Warp issuing the access.
    pub warp: WarpId,
    /// PC of the static load.
    pub pc: Pc,
    /// Lowest-lane byte address (the paper's per-PC stride tables key on
    /// this).
    pub addr: Addr,
    /// Line of the head access.
    pub line: LineAddr,
    /// Whether the access hit.
    pub hit: bool,
    /// Cycle of the access.
    pub now: Cycle,
}

/// A prefetch the prefetcher wants issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchRequest {
    /// Byte address to prefetch (the pipeline converts to a line).
    pub addr: Addr,
    /// Warp predicted to demand the data (LAWS prioritises it).
    pub target_warp: WarpId,
    /// Which engine generated it.
    pub source: RequestSource,
}

/// Scheduler feedback after an L1 event.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SchedFeedback {
    /// Warp group to hand to the prefetcher (LAWS does this on a miss:
    /// "the list of warps in the missed group is sent to the prefetcher",
    /// Section IV-A). Empty means no trigger. Inline, so a miss builds it
    /// without touching the heap.
    pub prefetch_group: LaneList<WarpId, MAX_WARPS_PER_SM>,
}

/// A warp scheduler: picks the next warp to issue and reacts to pipeline
/// feedback. Implementations must be deterministic.
pub trait WarpScheduler {
    /// Human-readable policy name (e.g. `"lrr"`, `"ccws"`, `"laws"`).
    fn name(&self) -> &'static str;

    /// Chooses the next warp among `ready` (sorted by warp ID). `None`
    /// stalls the cycle (only sensible if `ready` is empty or the policy
    /// throttles).
    fn pick(&mut self, ready: &[ReadyWarp], ctx: &SchedCtx) -> Option<WarpId>;

    /// Notification that `warp` issued an instruction (loads are also
    /// reported via [`WarpScheduler::on_load_issue`]).
    fn on_issue(&mut self, _warp: WarpId, _now: Cycle) {}

    /// Notification that `warp` issued a global load at `pc` (LAWS forms
    /// warp groups here).
    fn on_load_issue(&mut self, _warp: WarpId, _pc: Pc, _now: Cycle) {}

    /// L1 hit/miss report for a load instruction; may trigger prefetching.
    fn on_l1_event(&mut self, _ev: &L1Event) -> SchedFeedback {
        SchedFeedback::default()
    }

    /// The prefetcher issued prefetches targeting `warps` ("LAWS then moves
    /// the received prefetch target warps to the queue head", Section IV-A).
    fn on_prefetch_targets(&mut self, _warps: &[WarpId]) {}

    /// `warp` has retired its last instruction.
    fn on_warp_finished(&mut self, _warp: WarpId) {}

    /// `warp`'s slot received a fresh thread block (block-wave replacement).
    fn on_warp_launched(&mut self, _warp: WarpId) {}

    /// Accesses to policy-private SRAM structures so far (energy model).
    fn table_accesses(&self) -> u64 {
        0
    }
}

/// A hardware prefetcher. Implementations must be deterministic.
pub trait Prefetcher {
    /// Human-readable engine name (e.g. `"none"`, `"str"`, `"sld"`, `"sap"`).
    fn name(&self) -> &'static str;

    /// Observes every demand load (training). May emit prefetches
    /// (STR and SLD do; SAP does not — it waits for group triggers).
    fn on_access(&mut self, _acc: &DemandAccess) -> Vec<PrefetchRequest> {
        Vec::new()
    }

    /// Scheduler-triggered group prefetch (SAP): `group` are the other warps
    /// of the missing warp's group.
    fn on_group_miss(&mut self, _acc: &DemandAccess, _group: &[WarpId]) -> Vec<PrefetchRequest> {
        Vec::new()
    }

    /// Accesses to engine-private SRAM structures so far (energy model).
    fn table_accesses(&self) -> u64 {
        0
    }

    /// Cannot be called: [`FaultState`] has no values. Kept only because
    /// the benchmark's traced prefetcher forwards it.
    fn set_fault_state(&mut self, fault: FaultState) {
        match fault {}
    }

    /// Always zero: no engine injects faults. Kept only because the
    /// benchmark's traced prefetcher forwards it.
    fn fault_counters(&self) -> FaultCounters {
        FaultCounters::default()
    }
}

/// The no-op prefetcher (baseline configuration).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullPrefetcher;

impl Prefetcher for NullPrefetcher {
    fn name(&self) -> &'static str {
        "none"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_hit_classes() {
        assert!(L1Outcome::Hit.counts_as_hit());
        assert!(L1Outcome::Merged {
            into_prefetch: true
        }
        .counts_as_hit());
        assert!(!L1Outcome::Miss.counts_as_hit());
    }

    #[test]
    fn null_prefetcher_is_silent() {
        let mut p = NullPrefetcher;
        let acc = DemandAccess {
            sm: SmId(0),
            warp: WarpId(0),
            pc: Pc(0x10),
            addr: Addr::new(0),
            line: LineAddr(0),
            hit: false,
            now: 0,
        };
        assert!(p.on_access(&acc).is_empty());
        assert!(p.on_group_miss(&acc, &[WarpId(1)]).is_empty());
        assert_eq!(p.table_accesses(), 0);
        assert_eq!(p.name(), "none");
    }

    #[test]
    fn default_feedback_is_empty() {
        assert!(SchedFeedback::default().prefetch_group.is_empty());
    }
}
