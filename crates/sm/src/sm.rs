//! One streaming multiprocessor.
//!
//! Per cycle (driven by [`crate::gpu::Gpu`]):
//!
//! 1. **Fill** — line fills arriving from the memory system install into the
//!    L1 and wake waiting loads;
//! 2. **LSU** — one coalesced line request accesses the L1; a load's
//!    head-line outcome is reported to the scheduler (which may trigger the
//!    prefetcher) and to the prefetcher's training interface;
//! 3. **Issue** — the scheduler picks one ready warp; its next instruction
//!    issues (ALU results mature after their latency; memory instructions
//!    enter the LSU). The ready set is a few bit operations on warp masks
//!    kept from cached per-warp issue gates (DESIGN.md §14);
//! 4. **Drain** — L1 misses/stores/prefetches stream to the interconnect.

use crate::lsu::{LoadCompletion, Lsu, MemOp};
use crate::port::SmPort;
use crate::trace::{IssueKind, TraceEvent};
use crate::traits::{
    DemandAccess, PrefetchRequest, Prefetcher, ReadyWarp, SchedCtx, WarpScheduler,
};
use gpu_common::config::GpuConfig;
use gpu_common::fault::FaultCounters;
use gpu_common::stats::{CacheStats, EnergyEvents, PrefetchStats, SimStats};
use gpu_common::{Cycle, LineAddr, SmId, StallReason, StalledWarp, WarpId};
use gpu_kernel::{Kernel, Op, PatternSampler, WarpProgram, WarpProgress};
use gpu_mem::coalesce::coalesce;
use gpu_mem::l1::L1Cache;
use gpu_mem::request::MemRequest;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Depth of the LSU instruction queue (structural hazard threshold).
const LSU_QUEUE_DEPTH: usize = 16;

/// A warp's cached issue gate: the first cycle its next instruction can
/// issue ([`WarpProgress::issue_gate`]), the ready-set entry that
/// instruction gives it, and whether it is a load (which LSU queue it
/// needs room in). Refreshed whenever the warp issues, a load of it
/// completes, or it blocks at or is released from a barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IssueGate {
    at: Cycle,
    ready: ReadyWarp,
    next_is_load: bool,
}

impl IssueGate {
    fn of(id: usize, warp: &WarpProgress, kernel: &Kernel) -> Self {
        let (next_is_mem, next_is_load) = warp
            .current(kernel)
            .map_or((false, false), |ins| (ins.op.is_mem(), ins.op.is_load()));
        IssueGate {
            at: warp.issue_gate(kernel),
            ready: ReadyWarp {
                id: WarpId(id as u32),
                next_is_mem,
            },
            next_is_load,
        }
    }
}

/// The cached issue gates as warp bitmasks, bit `i` standing for warp `i`
/// ([`GpuConfig::validate`] caps `warps_per_sm` at 64). A slot's ready set
/// is `open` minus the warps a full LSU blocks.
#[derive(Debug, Clone, Copy, Default)]
struct WarpMasks {
    /// Warps whose issue gate has passed.
    open: u64,
    /// Warps whose issue gate is a known future cycle. A warp waiting on a
    /// load, at a barrier or retired (gate `Cycle::MAX`) is in neither
    /// mask until its gate is refreshed.
    pending: u64,
    /// Warps whose next instruction is a memory instruction.
    mem: u64,
    /// Warps whose next instruction is a load.
    load: u64,
    /// The earliest pending gate: until this cycle, only a gate refresh
    /// changes `open`.
    rescan_at: Cycle,
}

impl WarpMasks {
    /// Masks for an SM's initial gates; the first rescan is at cycle 0.
    fn new(gates: &[IssueGate]) -> Self {
        let mut masks = WarpMasks::default();
        for (i, gate) in gates.iter().enumerate() {
            masks.set(i, gate, 0);
        }
        masks
    }

    /// Sets or clears warp `i`'s gate-derived bits from `gate` at `now`.
    fn set(&mut self, i: usize, gate: &IssueGate, now: Cycle) {
        let bit = 1u64 << i;
        let put = |mask: &mut u64, on: bool| *mask = if on { *mask | bit } else { *mask & !bit };
        put(&mut self.mem, gate.ready.next_is_mem);
        put(&mut self.load, gate.next_is_load);
        put(&mut self.open, gate.at <= now);
        put(&mut self.pending, now < gate.at && gate.at < Cycle::MAX);
        if self.pending & bit != 0 {
            self.rescan_at = self.rescan_at.min(gate.at);
        }
    }

    /// Opens the pending gates whose cycle has come by `now`, and finds the
    /// next such cycle.
    fn rescan(&mut self, gates: &[IssueGate], now: Cycle) {
        let mut next = Cycle::MAX;
        for i in bits(self.pending) {
            if gates[i].at <= now {
                self.open |= 1 << i;
                self.pending &= !(1 << i);
            } else {
                next = next.min(gates[i].at);
            }
        }
        self.rescan_at = next;
    }

    /// Warps a full LSU keeps out of the ready set.
    fn lsu_blocked(&self, lsu_room: bool, store_room: bool) -> u64 {
        let loads = if lsu_room { 0 } else { self.mem & self.load };
        let stores = if store_room { 0 } else { self.mem & !self.load };
        loads | stores
    }
}

/// The set bits of `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let i = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (i < 64).then_some(i)
    })
}

/// `true` when a full LSU keeps a memory instruction out of the ready set.
fn lsu_blocks(is_mem: bool, is_load: bool, lsu_room: bool, store_room: bool) -> bool {
    is_mem && if is_load { !lsu_room } else { !store_room }
}

/// One streaming multiprocessor executing `warps_per_sm` warps of a kernel.
pub struct Sm {
    id: SmId,
    cfg: GpuConfig,
    kernel: Arc<Kernel>,
    sampler: PatternSampler,
    warps: Vec<WarpProgress>,
    /// Each warp's cached issue gate.
    gates: Vec<IssueGate>,
    /// The gates as warp bitmasks.
    masks: WarpMasks,
    scheduler: Box<dyn WarpScheduler>,
    prefetcher: Box<dyn Prefetcher>,
    l1: L1Cache,
    lsu: Lsu,
    stats: SimStats,
    energy: EnergyEvents,
    ready_buf: Vec<ReadyWarp>,
    /// Loads the LSU completed in the current stage (reused every cycle).
    completions: Vec<LoadCompletion>,
    /// Warps targeted by this access's issued prefetches (reused).
    prefetch_targets: Vec<WarpId>,
    /// Barrier rendezvous: (iteration, body index) → warps arrived.
    barriers: BTreeMap<(u64, usize), Vec<WarpId>>,
    /// Record pipeline events into `events` (set per run by the cycle loop).
    record_events: bool,
    /// This cycle's pipeline events; cleared at the start of every tick.
    events: Vec<TraceEvent>,
}

impl Sm {
    /// Builds an SM running `kernel` under the given policies.
    pub fn new(
        id: SmId,
        cfg: &GpuConfig,
        kernel: Arc<Kernel>,
        scheduler: Box<dyn WarpScheduler>,
        prefetcher: Box<dyn Prefetcher>,
    ) -> Self {
        let program = WarpProgram::new(kernel.clone());
        let warps = (0..cfg.core.warps_per_sm)
            .map(|_| program.start())
            .collect::<Vec<_>>();
        let gates: Vec<IssueGate> = warps
            .iter()
            .enumerate()
            .map(|(i, w)| IssueGate::of(i, w, &kernel))
            .collect();
        Sm {
            id,
            sampler: PatternSampler::new(kernel.seed(), cfg.core.warp_size as u32),
            masks: WarpMasks::new(&gates),
            gates,
            kernel,
            warps,
            scheduler,
            prefetcher,
            l1: L1Cache::new(&cfg.l1),
            lsu: Lsu::new(id, LSU_QUEUE_DEPTH),
            stats: SimStats::default(),
            energy: EnergyEvents::default(),
            ready_buf: Vec::new(),
            completions: Vec::new(),
            prefetch_targets: Vec::new(),
            barriers: BTreeMap::new(),
            record_events: false,
            events: Vec::new(),
            cfg: cfg.clone(),
        }
    }

    /// Switches event recording on or off (the cycle loop sets it from the
    /// run's observer).
    pub(crate) fn record_events(&mut self, on: bool) {
        self.record_events = on;
    }

    /// The pipeline events of the last tick, in the order they happened.
    /// Empty unless the run's [`Observer`](crate::gpu::Observer) asked for
    /// events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    #[inline]
    fn record(&mut self, ev: TraceEvent) {
        if self.record_events {
            self.events.push(ev);
        }
    }

    /// `true` when every warp has retired and no memory op is in flight
    /// locally.
    pub fn is_finished(&self) -> bool {
        self.warps.iter().all(WarpProgress::is_finished)
            && self.lsu.is_drained()
            && self.l1.outgoing_len() == 0
    }

    /// Executes one cycle. `port` is this SM's boundary to the shared
    /// memory system: fills are popped from its inbox, outgoing requests
    /// are queued into its outbox (the cycle loop routes both).
    pub fn tick(&mut self, now: Cycle, port: &mut SmPort) {
        self.events.clear();
        self.apply_fills(now, port);
        self.lsu_stage(now, port);
        self.issue_stage(now);
        self.drain_stage(now, port);
    }

    fn apply_fills(&mut self, now: Cycle, port: &mut SmPort) {
        while let Some(req) = port.pop_fill(now) {
            self.energy.l1_accesses += 1;
            let fill = self.l1.fill(req.line, now);
            if self.record_events {
                self.record(TraceEvent::Fill {
                    cycle: now,
                    line: req.line,
                    woken: fill.as_ref().map_or(0, |f| f.demand_loads().count() as u32),
                });
            }
            if let Some(fill) = fill {
                let mut done = std::mem::take(&mut self.completions);
                self.lsu.on_fill(&fill, now, &mut done);
                self.complete_loads(&mut done, now, port);
                self.completions = done;
            }
        }
    }

    /// Wakes the warps of `done`'s loads and feeds their round-trip
    /// latencies to Fig. 13's average; leaves `done` empty.
    fn complete_loads(&mut self, done: &mut Vec<LoadCompletion>, now: Cycle, port: &mut SmPort) {
        for d in done.drain(..) {
            let w = d.warp.index();
            self.warps[w].complete_load(d.body_idx, d.iter, d.ready_at);
            self.refresh_gate(w, now);
            self.energy.regfile_accesses += 1; // writeback
            port.note_load_latency(d.ready_at.saturating_sub(d.issue_cycle));
        }
    }

    fn lsu_stage(&mut self, now: Cycle, port: &mut SmPort) {
        let before = self.l1.stats().accesses;
        let mut done = std::mem::take(&mut self.completions);
        let activity = self.lsu.process_one(&mut self.l1, now, &mut done);
        if self.l1.stats().accesses != before {
            self.energy.l1_accesses += 1;
        }
        // Pure-hit loads also contribute to Fig. 13's average latency.
        self.complete_loads(&mut done, now, port);
        self.completions = done;
        let Some(ev) = activity.head_event else {
            return;
        };
        self.record(TraceEvent::L1Access {
            cycle: now,
            warp: ev.warp,
            pc: ev.pc,
            line: ev.line,
            hit: ev.outcome.counts_as_hit(),
        });
        // Figure 5 wiring: LSU → scheduler (hit status), scheduler →
        // prefetcher (warp group on miss), prefetcher → scheduler (targets).
        let feedback = self.scheduler.on_l1_event(&ev);
        let acc = DemandAccess {
            sm: self.id,
            warp: ev.warp,
            pc: ev.pc,
            addr: ev.addr,
            line: ev.line,
            hit: ev.outcome.counts_as_hit(),
            now,
        };
        let mut prefetches = self.prefetcher.on_access(&acc);
        if !feedback.prefetch_group.is_empty() {
            let group = self
                .prefetcher
                .on_group_miss(&acc, &feedback.prefetch_group);
            // Take the group's `Vec` as it is when `on_access` returned
            // nothing, rather than copying it into a second allocation.
            if prefetches.is_empty() {
                prefetches = group;
            } else {
                prefetches.extend(group);
            }
        }
        self.issue_prefetches(&prefetches, now);
        // Completions from pure-hit ops were already handled above; latency
        // accounting for them is folded in at the GPU level via hits'
        // fixed latency, so only the wiring remains here.
    }

    fn issue_prefetches(&mut self, prefetches: &[PrefetchRequest], now: Cycle) {
        if prefetches.is_empty() {
            return;
        }
        self.prefetch_targets.clear();
        for pf in prefetches {
            let line = pf.addr.line(self.cfg.l1.line_bytes);
            let req = MemRequest::prefetch(
                line,
                pf.source,
                self.id,
                pf.target_warp,
                gpu_common::Pc(0),
                now,
            );
            self.energy.l1_accesses += 1;
            // Only *generated* prefetches promote their target warp ("after
            // SAP generates a prefetch request, it sends the prefetched warp
            // ID back to LAWS", Section IV-B); duplicates that were dropped
            // because the line is already resident or inbound leave the
            // schedule untouched.
            if matches!(
                self.l1.access(req, now),
                gpu_mem::l1::L1AccessOutcome::PrefetchIssued
            ) {
                self.record(TraceEvent::Prefetch {
                    cycle: now,
                    target: pf.target_warp,
                    line,
                });
                self.prefetch_targets.push(pf.target_warp);
            }
        }
        if !self.prefetch_targets.is_empty() {
            self.scheduler.on_prefetch_targets(&self.prefetch_targets);
        }
    }

    fn issue_stage(&mut self, now: Cycle) {
        if now >= self.masks.rescan_at {
            self.masks.rescan(&self.gates, now);
        }
        let blocked = self
            .masks
            .lsu_blocked(self.lsu.has_room(), self.lsu.has_store_room());
        let ready = self.masks.open & !blocked;
        // A gate that has passed but for the LSU makes the stall structural.
        let structural = self.masks.open & blocked != 0;
        debug_assert!(
            self.ready_is_exact(now, ready, structural),
            "ready mask diverged from a fresh walk at cycle {now}"
        );
        if ready == 0 {
            self.count_stall(structural);
            return;
        }
        self.ready_buf.clear();
        self.ready_buf
            .extend(bits(ready).map(|i| self.gates[i].ready));
        let ctx = SchedCtx {
            now,
            mshr_occupancy: self.l1.mshr_occupancy(),
            warps_per_sm: self.cfg.core.warps_per_sm,
        };
        let ready = std::mem::take(&mut self.ready_buf);
        let picked = self.scheduler.pick(&ready, &ctx);
        self.ready_buf = ready;
        let Some(wid) = picked else {
            self.stats.stall_cycles += 1;
            return;
        };
        debug_assert!(
            self.ready_buf.iter().any(|r| r.id == wid),
            "scheduler picked a non-ready warp {wid}"
        );
        // Deterministic ±2-cycle producer jitter (operand-collector/RF-bank
        // arbitration) keeps homogeneous warps from phase-locking into
        // convoys.
        let jitter = {
            let mut h = wid.0 as u64 ^ (self.id.0 as u64) << 32;
            h = h
                .wrapping_add(self.warps[wid.index()].iter())
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (h >> 61) % 3
        };
        let issued = self.warps[wid.index()].issue_with_jitter(&self.kernel, now, jitter);
        if self.record_events {
            let kind = match issued.op {
                Op::Alu { .. } => IssueKind::Alu,
                Op::LoadGlobal { .. } => IssueKind::Load,
                Op::StoreGlobal { .. } => IssueKind::Store,
                Op::Barrier => IssueKind::Barrier,
            };
            self.record(TraceEvent::Issue {
                cycle: now,
                warp: wid,
                pc: issued.pc,
                kind,
            });
        }
        self.stats.instructions += 1;
        self.stats.active_lane_sum += u64::from(
            issued
                .active_lanes
                .unwrap_or(self.cfg.core.warp_size as u32),
        );
        self.energy.regfile_accesses += 3; // two reads + one write, warp-wide
        self.scheduler.on_issue(wid, now);
        match issued.op {
            Op::Alu { .. } => {
                self.energy.alu_ops += 1;
            }
            Op::Barrier => {
                self.arrive_at_barrier(wid, issued.iter, issued.body_idx, now);
            }
            Op::LoadGlobal { slot } | Op::StoreGlobal { slot } => {
                let is_load = issued.op.is_load();
                if is_load {
                    self.stats.loads += 1;
                    self.scheduler.on_load_issue(wid, issued.pc, now);
                } else {
                    self.stats.stores += 1;
                }
                let lanes = issued
                    .active_lanes
                    .unwrap_or(self.cfg.core.warp_size as u32);
                let addrs = self.sampler.addresses(
                    self.kernel.pattern(slot),
                    self.id.0,
                    wid.0,
                    issued.iter,
                    lanes,
                );
                self.lsu.push(MemOp {
                    warp: wid,
                    pc: issued.pc,
                    body_idx: issued.body_idx,
                    iter: issued.iter,
                    is_load,
                    addr0: addrs[0],
                    lines: coalesce(&addrs, self.cfg.l1.line_bytes),
                    issue_cycle: now,
                    sent: 0,
                });
            }
        }
        if self.warps[wid.index()].is_finished() {
            self.scheduler.on_warp_finished(wid);
        }
        self.refresh_gate(wid.index(), now);
    }

    fn count_stall(&mut self, structural: bool) {
        self.stats.stall_cycles += 1;
        if structural {
            self.stats.stall_lsu_full += 1;
        } else {
            self.stats.stall_dependency += 1;
        }
    }

    /// Debug check of an issue slot: every cached gate equals a fresh
    /// [`WarpProgress::issue_gate`], and a walk of every warp through
    /// [`WarpProgress::can_issue`] finds the same ready set and, when it is
    /// empty, the same stall cause.
    fn ready_is_exact(&self, now: Cycle, ready: u64, structural: bool) -> bool {
        let lsu_room = self.lsu.has_room();
        let store_room = self.lsu.has_store_room();
        let mut fresh_ready = 0u64;
        let mut fresh_structural = false;
        for (i, w) in self.warps.iter().enumerate() {
            if self.gates[i] != IssueGate::of(i, w, &self.kernel) {
                return false;
            }
            if !w.can_issue(&self.kernel, now) {
                continue;
            }
            let Some(instr) = w.current(&self.kernel) else {
                continue;
            };
            let blocked = lsu_blocks(instr.op.is_mem(), instr.op.is_load(), lsu_room, store_room);
            if !blocked {
                fresh_ready |= 1 << i;
            }
            fresh_structural |= blocked;
        }
        fresh_ready == ready && (ready != 0 || fresh_structural == structural)
    }

    /// Re-reads warp `i`'s issue gate after its state changed at `now`.
    fn refresh_gate(&mut self, i: usize, now: Cycle) {
        self.gates[i] = IssueGate::of(i, &self.warps[i], &self.kernel);
        self.masks.set(i, &self.gates[i], now);
    }

    /// Records `wid`'s arrival at a barrier; releases every arrived warp
    /// when all participating warps have arrived.
    fn arrive_at_barrier(&mut self, wid: WarpId, iter: u64, body_idx: usize, now: Cycle) {
        let key = (iter, body_idx);
        let arrived = self.barriers.entry(key).or_default();
        arrived.push(wid);
        // Participants: warps that have not retired (a retired warp has
        // already passed every barrier).
        let participants = self.warps.iter().filter(|w| !w.is_finished()).count();
        if arrived.len() >= participants {
            let arrived = self.barriers.remove(&key).unwrap_or_default();
            let released = arrived.len() as u32;
            for w in arrived {
                self.warps[w.index()].release_barrier();
                self.refresh_gate(w.index(), now);
            }
            self.record(TraceEvent::BarrierRelease {
                cycle: now,
                body_idx,
                released,
            });
        } else {
            self.warps[wid.index()].block_at_barrier();
        }
    }

    fn drain_stage(&mut self, now: Cycle, port: &mut SmPort) {
        for _ in 0..self.cfg.noc.requests_per_cycle {
            let Some(req) = self.l1.pop_outgoing() else {
                break;
            };
            port.submit(req, now);
        }
    }

    /// Issue/stall statistics of this SM.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// L1 demand statistics.
    pub fn cache_stats(&self) -> &CacheStats {
        self.l1.stats()
    }

    /// Per-static-load L1 statistics, PC-sorted.
    pub fn per_pc_stats(&self) -> &[(gpu_common::Pc, gpu_mem::l1::PcStats)] {
        self.l1.per_pc_stats()
    }

    /// Prefetch statistics (early-eviction verdicts as of now).
    pub fn prefetch_stats(&self) -> PrefetchStats {
        self.l1.prefetch_stats()
    }

    /// Finalizes early-eviction verdicts (simulation end).
    pub fn finalize_prefetch_stats(&mut self) -> PrefetchStats {
        self.l1.finalize()
    }

    /// Energy event counts, including policy table accesses.
    pub fn energy_events(&self) -> EnergyEvents {
        let mut e = self.energy.clone();
        e.apres_table_accesses = self.scheduler.table_accesses() + self.prefetcher.table_accesses();
        e
    }

    /// The active scheduler's name.
    pub fn scheduler_name(&self) -> &'static str {
        self.scheduler.name()
    }

    /// The active prefetcher's name.
    pub fn prefetcher_name(&self) -> &'static str {
        self.prefetcher.name()
    }

    /// Number of warps that have fully retired.
    pub fn finished_warps(&self) -> usize {
        self.warps.iter().filter(|w| w.is_finished()).count()
    }

    /// Always zero: an SM injects no faults. Kept only because the
    /// benchmark's traced loop still reads it.
    pub fn fault_counters(&self) -> FaultCounters {
        FaultCounters::default()
    }

    /// Names every unretired warp and what it is waiting on. Feeds the
    /// watchdog's [`gpu_common::DeadlockDiagnosis`].
    pub fn stall_report(&self, now: Cycle) -> Vec<StalledWarp> {
        let mut out = Vec::new();
        for (i, w) in self.warps.iter().enumerate() {
            if w.is_finished() {
                continue;
            }
            let waiting_on = if w.at_barrier() {
                StallReason::Barrier
            } else if w.blocked_on_load(&self.kernel, now) {
                StallReason::PendingLoad
            } else if w.can_issue(&self.kernel, now) {
                StallReason::NeverScheduled
            } else {
                StallReason::Dependency
            };
            out.push(StalledWarp {
                sm: self.id,
                warp: WarpId(i as u32),
                iter: w.iter(),
                body_idx: w.body_idx(),
                waiting_on,
            });
        }
        out
    }

    /// In-flight L1 MSHR entries as `(sm, line, waiting requests)` triples.
    pub fn inflight_mshr_lines(&self) -> Vec<(SmId, LineAddr, usize)> {
        self.l1
            .inflight_mshrs()
            .map(|e| (self.id, e.line, 1 + e.merged.len()))
            .collect()
    }
}

impl std::fmt::Debug for Sm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sm")
            .field("id", &self.id)
            .field("kernel", &self.kernel.name())
            .field("scheduler", &self.scheduler.name())
            .field("prefetcher", &self.prefetcher.name())
            .field("finished_warps", &self.finished_warps())
            .finish_non_exhaustive()
    }
}
