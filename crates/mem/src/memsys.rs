//! The assembled off-core memory system: interconnect, L2 banks, DRAM.
//!
//! One [`MemorySystem`] is shared by all SMs. Each cycle the owner calls
//! [`MemorySystem::tick`]; SMs push L1 misses in with
//! [`MemorySystem::submit`] and collect returning line fills, stamped with
//! their NoC arrival cycles, with [`MemorySystem::take_fills`].
//!
//! The system keeps a request-conservation ledger: every non-store request
//! accepted by [`MemorySystem::submit`] must eventually come back as exactly
//! one response (stores are posted and never respond). [`MemorySystem::audit`]
//! checks the ledger — accounting for any injected faults — and a mismatch at
//! drain is an [`SimError::InvariantViolation`], i.e. a leak in the NoC, the
//! L2 MSHRs, or DRAM queues.

#![deny(
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::l2::L2Bank;
use crate::noc::DelayPipe;
use crate::request::{AccessKind, LineRequest};
use gpu_common::config::GpuConfig;
use gpu_common::fault::{FaultCounters, FaultState};
use gpu_common::stats::MemStats;
use gpu_common::{Cycle, LineAddr, SimError, SimResult};
use std::collections::BTreeMap;

/// Interconnect + shared L2 + DRAM, shared by every SM.
#[derive(Debug)]
pub struct MemorySystem {
    cfg: GpuConfig,
    /// Per-SM request pipes toward the L2.
    to_l2: Vec<DelayPipe<LineRequest>>,
    /// Per-SM response pipes back from the L2.
    from_l2: Vec<DelayPipe<LineRequest>>,
    banks: Vec<L2Bank>,
    /// log2 of `l1.line_bytes` and of `dram.interleave_bytes`, both powers
    /// of two ([`GpuConfig::validate`]).
    line_shift: u32,
    interleave_shift: u32,
    /// One bank's responses of the current tick (reused every cycle).
    responses: Vec<LineRequest>,
    stats: MemStats,
    /// Non-store requests accepted off-core (conservation ledger, debit).
    submitted: u64,
    /// Responses delivered back toward SMs (conservation ledger, credit).
    delivered: u64,
    /// Injected-fault state (response drops/delays, NoC request drops).
    fault: Option<FaultState>,
    /// Responses held back by an injected delay, keyed by release cycle.
    delayed: BTreeMap<(Cycle, u64), LineRequest>,
    delayed_seq: u64,
}

impl MemorySystem {
    /// Builds the memory system for `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ConfigValidation`] if `cfg` fails
    /// [`GpuConfig::validate`].
    pub fn new(cfg: &GpuConfig) -> SimResult<Self> {
        cfg.validate()?;
        Ok(MemorySystem {
            to_l2: (0..cfg.core.num_sms)
                .map(|_| DelayPipe::new(cfg.noc.latency))
                .collect(),
            from_l2: (0..cfg.core.num_sms)
                .map(|_| DelayPipe::new(cfg.noc.latency))
                .collect(),
            banks: (0..cfg.dram.partitions)
                .map(|_| L2Bank::new(&cfg.l2, &cfg.dram))
                .collect(),
            line_shift: cfg.l1.line_bytes.trailing_zeros(),
            interleave_shift: cfg.dram.interleave_bytes.trailing_zeros(),
            responses: Vec::new(),
            stats: MemStats::default(),
            submitted: 0,
            delivered: 0,
            fault: None,
            delayed: BTreeMap::new(),
            delayed_seq: 0,
            cfg: cfg.clone(),
        })
    }

    /// Arms fault injection (response drops/delays, NoC request drops).
    pub fn set_fault_state(&mut self, fault: FaultState) {
        self.fault = Some(fault);
    }

    /// Faults injected so far (zero when injection is not armed).
    pub fn fault_counters(&self) -> FaultCounters {
        self.fault
            .as_ref()
            .map(FaultState::counters)
            .unwrap_or_default()
    }

    /// Which bank/partition a line maps to (interleaved by
    /// `dram.interleave_bytes`): the line's byte address, wrapped to 64
    /// bits, divided by the interleave, modulo the partition count. Both
    /// sizes are powers of two, so the product and quotient are shifts.
    pub fn partition_of(&self, line: LineAddr) -> usize {
        let chunk = (line.0 << self.line_shift) >> self.interleave_shift;
        (chunk % self.cfg.dram.partitions as u64) as usize
    }

    /// Submits an L1 miss / store / prefetch from `sm` at cycle `now`.
    /// Out-of-range SMs are rejected silently (cannot happen through the
    /// simulation facade, which sizes the pipes from the same config).
    pub fn submit(&mut self, sm: usize, req: LineRequest, now: Cycle) {
        let Some(pipe) = self.to_l2.get_mut(sm) else {
            debug_assert!(false, "submit from out-of-range sm {sm}");
            return;
        };
        if req.kind != AccessKind::Store {
            self.submitted += 1;
        }
        // An injected NoC fault may eat the request after it was ledgered:
        // the audit then attributes the imbalance to the fault counters.
        if let Some(f) = &mut self.fault {
            if req.kind != AccessKind::Store && f.drop_request() {
                return;
            }
        }
        pipe.push(req, now);
    }

    /// Delivers one response toward its SM, applying injected response
    /// faults (drop or delay).
    fn deliver(&mut self, req: LineRequest, now: Cycle) {
        if let Some(f) = &mut self.fault {
            if f.drop_response() {
                return;
            }
            let delay = f.response_delay();
            if delay > 0 {
                self.delayed_seq += 1;
                self.delayed.insert((now + delay, self.delayed_seq), req);
                return;
            }
        }
        self.stats.bytes_to_sm += self.cfg.l1.line_bytes;
        let sm = req.sm.index();
        self.delivered += 1;
        if let Some(pipe) = self.from_l2.get_mut(sm) {
            pipe.push(req, now);
        }
    }

    /// Advances the interconnect, banks, and DRAM by one cycle.
    pub fn tick(&mut self, now: Cycle) {
        // Release responses whose injected delay has elapsed. They re-enter
        // the response pipe at `now`, so ready-cycle monotonicity holds.
        while let Some((&(release, _), _)) = self.delayed.first_key_value() {
            if release > now {
                break;
            }
            let Some((_, req)) = self.delayed.pop_first() else {
                break;
            };
            self.stats.bytes_to_sm += self.cfg.l1.line_bytes;
            self.delivered += 1;
            if let Some(pipe) = self.from_l2.get_mut(req.sm.index()) {
                pipe.push(req, now);
            }
        }
        // SM → L2: each SM may inject `requests_per_cycle` per cycle.
        for sm in 0..self.to_l2.len() {
            for _ in 0..self.cfg.noc.requests_per_cycle {
                let Some(req) = self.to_l2[sm].pop_ready(now) else {
                    break;
                };
                let bank = self.partition_of(req.line);
                self.banks[bank].access(req, now, self.cfg.l2.hit_latency);
            }
        }
        // Banks and DRAM.
        let mut responses = std::mem::take(&mut self.responses);
        for bank_idx in 0..self.banks.len() {
            self.banks[bank_idx].tick(now, &mut responses);
            for req in responses.drain(..) {
                if req.kind == AccessKind::Store {
                    continue;
                }
                self.deliver(req, now);
            }
        }
        self.responses = responses;
    }

    /// Removes every in-flight response bound for `sm`, yielding each fill
    /// with the cycle at which it completes NoC traversal (FIFO order,
    /// ready cycles non-decreasing); an out-of-range `sm` yields nothing.
    /// The pipe drains in place. The cycle loop calls this after
    /// [`MemorySystem::tick`] to hand fills to per-SM inboxes; a fill must
    /// not be applied before its ready cycle.
    pub fn take_fills(&mut self, sm: usize) -> impl Iterator<Item = (Cycle, LineRequest)> + '_ {
        self.from_l2
            .get_mut(sm)
            .into_iter()
            .flat_map(DelayPipe::drain_timed)
    }

    /// Folds in `count` completed demand loads whose round-trip latencies
    /// sum to `total`, as accumulated by the per-SM ports. Pure sums, so
    /// the merge is order-independent.
    pub fn add_load_latencies(&mut self, total: Cycle, count: u64) {
        self.stats.total_load_latency += total;
        self.stats.completed_loads += count;
    }

    /// Aggregate traffic/latency statistics, with `bytes_from_dram` summed
    /// over the banks' DRAM line transfers as of now.
    pub fn stats(&self) -> MemStats {
        MemStats {
            bytes_from_dram: self.dram_accesses() * self.cfg.l1.line_bytes,
            ..self.stats.clone()
        }
    }

    /// Non-store requests accepted off-core over the whole run.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Responses delivered back toward SMs over the whole run.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Requests currently inside the off-core system according to the
    /// conservation ledger (submitted − delivered − injected drops).
    pub fn in_flight(&self) -> u64 {
        let f = self.fault_counters();
        self.submitted
            .saturating_sub(self.delivered)
            .saturating_sub(f.dropped_requests + f.dropped_responses)
    }

    /// Checks request conservation: at drain ([`MemorySystem::is_idle`]),
    /// every accepted non-store request must have produced exactly one
    /// response, minus any injected request/response drops.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvariantViolation`] (`"request-conservation"`)
    /// when the ledger does not balance — a leaked or duplicated request in
    /// the NoC, L2 MSHRs, or DRAM queues.
    pub fn audit(&self, now: Cycle) -> SimResult<()> {
        if !self.is_idle() {
            return Ok(());
        }
        let f = self.fault_counters();
        let accounted = self.delivered + f.dropped_requests + f.dropped_responses;
        if accounted != self.submitted {
            return Err(SimError::invariant(
                "request-conservation",
                format!(
                    "submitted {} != delivered {} + dropped requests {} + dropped responses {} at drain",
                    self.submitted, self.delivered, f.dropped_requests, f.dropped_responses
                ),
                now,
            ));
        }
        Ok(())
    }

    /// Total L2 accesses across banks (for the energy model).
    pub fn l2_accesses(&self) -> u64 {
        self.banks.iter().map(|b| b.stats().accesses).sum()
    }

    /// Total DRAM line transfers (fills + writes) across banks.
    pub fn dram_accesses(&self) -> u64 {
        self.banks
            .iter()
            .map(|b| b.dram_line_fills + b.dram_line_writes)
            .sum()
    }

    /// Aggregate L2 hit rate across banks (diagnostics).
    pub fn l2_hit_rate(&self) -> f64 {
        let (hits, acc) = self.banks.iter().fold((0u64, 0u64), |(h, a), b| {
            (h + b.stats().hits, a + b.stats().accesses)
        });
        if acc == 0 {
            0.0
        } else {
            hits as f64 / acc as f64
        }
    }

    /// `true` when no request is in flight anywhere off-core.
    pub fn is_idle(&self) -> bool {
        self.to_l2.iter().all(DelayPipe::is_empty)
            && self.from_l2.iter().all(DelayPipe::is_empty)
            && self.banks.iter().all(L2Bank::is_idle)
            && self.delayed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_common::{FaultPlan, SmId};

    fn small_cfg() -> GpuConfig {
        GpuConfig::small_test()
    }

    fn load(line: u64, sm: u32) -> LineRequest {
        LineRequest::new(LineAddr(line), SmId(sm), AccessKind::Load)
    }

    /// Ticks from `from` until a fill for `sm` is handed over; returns it
    /// with its ready cycle (when it completes NoC traversal).
    fn first_fill(ms: &mut MemorySystem, sm: usize, from: Cycle) -> Option<(Cycle, LineRequest)> {
        (from..3000).find_map(|now| {
            ms.tick(now);
            ms.take_fills(sm).next()
        })
    }

    #[test]
    fn round_trip_latency() {
        let cfg = small_cfg();
        let mut ms = MemorySystem::new(&cfg).unwrap();
        ms.submit(0, load(1, 0), 0);
        let (at, fill) = first_fill(&mut ms, 0, 0).expect("fill arrived");
        assert_eq!(fill.line, LineAddr(1));
        // noc(8) + dram(440) + noc(8) = 456 (plus alignment slack).
        assert!((456..480).contains(&at), "arrival at {at}");
        assert_eq!(ms.stats().bytes_to_sm, cfg.l1.line_bytes);
        assert!(ms.is_idle());
        assert_eq!((ms.submitted(), ms.delivered()), (1, 1));
        assert_eq!(ms.in_flight(), 0);
        assert!(ms.audit(3000).is_ok());
    }

    #[test]
    fn invalid_config_is_typed_error() {
        let mut cfg = small_cfg();
        cfg.dram.partitions = 0;
        let err = MemorySystem::new(&cfg).unwrap_err();
        assert_eq!(err.class(), "config-validation");
    }

    #[test]
    fn l2_hit_is_faster() {
        let cfg = small_cfg();
        let mut ms = MemorySystem::new(&cfg).unwrap();
        ms.submit(0, load(1, 0), 0);
        let (first, _) = first_fill(&mut ms, 0, 0).expect("miss returns");
        let start = first + 1;
        ms.submit(0, load(1, 0), start);
        let (second, _) = first_fill(&mut ms, 0, start).expect("hit returns");
        let second_latency = second - start;
        // noc + l2 hit (200) + noc ≈ 216 < first trip (~456).
        assert!(
            second_latency < first,
            "hit {second_latency} vs miss {first}"
        );
        assert!((200..260).contains(&second_latency), "{second_latency}");
    }

    #[test]
    fn partition_interleaving_covers_all_banks() {
        let cfg = GpuConfig::paper_baseline();
        let ms = MemorySystem::new(&cfg).unwrap();
        let mut seen = vec![false; cfg.dram.partitions];
        for l in 0..64u64 {
            seen[ms.partition_of(LineAddr(l))] = true;
        }
        assert!(seen.iter().all(|&s| s), "all partitions used: {seen:?}");
        // 256-byte interleave = 2 consecutive 128-byte lines per partition.
        assert_eq!(ms.partition_of(LineAddr(0)), ms.partition_of(LineAddr(1)));
        assert_ne!(ms.partition_of(LineAddr(1)), ms.partition_of(LineAddr(2)));
    }

    #[test]
    fn partition_shifts_equal_wrapping_multiply_and_divide() {
        use gpu_common::check::run_cases;
        let mut valid = 0;
        run_cases(64, |_, g| {
            let mut cfg = small_cfg();
            let line_bytes = 1u64 << g.range(0, 63);
            cfg.l1.line_bytes = line_bytes;
            cfg.l2.line_bytes = line_bytes;
            cfg.l1.capacity_bytes = line_bytes.saturating_mul(cfg.l1.ways as u64);
            cfg.dram.interleave_bytes = 1 << g.range(0, 63);
            cfg.dram.partitions = g.usize_range(1, 8);
            cfg.l2.capacity_bytes =
                line_bytes.saturating_mul((cfg.l2.ways * cfg.dram.partitions) as u64);
            let Ok(ms) = MemorySystem::new(&cfg) else {
                return Ok(()); // a geometry `validate` refuses
            };
            valid += 1;
            for _ in 0..64 {
                let line = match g.range(0, 2) {
                    0 => g.range(0, 1 << 16),
                    1 => u64::MAX - g.range(0, 1 << 16),
                    _ => g.u64(),
                };
                let chunk = line.wrapping_mul(line_bytes) / cfg.dram.interleave_bytes;
                let want = (chunk % cfg.dram.partitions as u64) as usize;
                let got = ms.partition_of(LineAddr(line));
                if got != want {
                    return Err(format!(
                        "line {line:#x}, {line_bytes} B lines, {} B interleave, {} partitions: \
                         {got} != {want}",
                        cfg.dram.interleave_bytes, cfg.dram.partitions
                    ));
                }
            }
            Ok(())
        });
        assert!(valid >= 32, "only {valid} of 64 geometries were valid");
    }

    #[test]
    fn fills_routed_to_correct_sm() {
        let mut cfg = small_cfg();
        cfg.core.num_sms = 2;
        let mut ms = MemorySystem::new(&cfg).unwrap();
        ms.submit(0, load(1, 0), 0);
        ms.submit(1, load(2, 1), 0);
        let mut got = [false; 2];
        for now in 0..3000 {
            ms.tick(now);
            for (sm, seen) in got.iter_mut().enumerate() {
                for (_, f) in ms.take_fills(sm) {
                    assert_eq!(f.sm.index(), sm);
                    *seen = true;
                }
            }
        }
        assert!(got[0] && got[1]);
        assert!(
            ms.take_fills(2).next().is_none(),
            "out-of-range sm gets nothing"
        );
    }

    #[test]
    fn latency_accounting() {
        let cfg = small_cfg();
        let mut ms = MemorySystem::new(&cfg).unwrap();
        ms.add_load_latencies(100, 1);
        ms.add_load_latencies(500, 2);
        assert!((ms.stats().avg_load_latency() - 200.0).abs() < 1e-12);
    }

    #[test]
    fn store_generates_dram_write_traffic() {
        let cfg = small_cfg();
        let mut ms = MemorySystem::new(&cfg).unwrap();
        let st = LineRequest::new(LineAddr(1), SmId(0), AccessKind::Store);
        ms.submit(0, st, 0);
        for now in 0..600 {
            ms.tick(now);
            assert!(ms.take_fills(0).next().is_none(), "stores never respond");
        }
        assert_eq!(ms.dram_accesses(), 1);
        assert_eq!(ms.stats().bytes_from_dram, cfg.l1.line_bytes);
        assert_eq!(ms.stats().bytes_to_sm, 0);
        // Stores are posted: they never enter the conservation ledger.
        assert_eq!((ms.submitted(), ms.delivered()), (0, 0));
        assert!(ms.audit(600).is_ok());
    }

    #[test]
    fn dropped_response_never_arrives_but_audit_balances() {
        let cfg = small_cfg();
        let mut ms = MemorySystem::new(&cfg).unwrap();
        ms.set_fault_state(FaultPlan::seeded(1).dropping_dram_responses(1.0).state(0));
        ms.submit(0, load(1, 0), 0);
        for now in 0..2000 {
            ms.tick(now);
            assert!(ms.take_fills(0).next().is_none(), "response was dropped");
        }
        assert!(ms.is_idle());
        assert_eq!(ms.fault_counters().dropped_responses, 1);
        assert_eq!(ms.in_flight(), 0, "drop is accounted, not leaked");
        assert!(
            ms.audit(2000).is_ok(),
            "audit attributes the gap to the fault"
        );
    }

    #[test]
    fn delayed_response_arrives_late() {
        let cfg = small_cfg();
        let mut ms = MemorySystem::new(&cfg).unwrap();
        ms.set_fault_state(
            FaultPlan::seeded(2)
                .delaying_dram_responses(1.0, 500)
                .state(0),
        );
        ms.submit(0, load(1, 0), 0);
        let (at, _) = first_fill(&mut ms, 0, 0).expect("delayed fill still arrives");
        assert!(at > 900, "delay added on top of the base trip: {at}");
        assert_eq!(ms.fault_counters().delayed_responses, 1);
        assert!(ms.is_idle());
        assert!(ms.audit(3000).is_ok());
    }

    #[test]
    fn dropped_noc_request_is_accounted() {
        let cfg = small_cfg();
        let mut ms = MemorySystem::new(&cfg).unwrap();
        ms.set_fault_state(FaultPlan::seeded(3).dropping_noc_requests(1.0).state(0));
        ms.submit(0, load(1, 0), 0);
        for now in 0..1000 {
            ms.tick(now);
            assert!(ms.take_fills(0).next().is_none());
        }
        assert_eq!(ms.fault_counters().dropped_requests, 1);
        assert_eq!(ms.submitted(), 1);
        assert_eq!(ms.in_flight(), 0);
        assert!(ms.audit(1000).is_ok());
    }
}
