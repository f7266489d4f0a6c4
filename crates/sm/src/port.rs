//! The explicit boundary between one SM and the shared memory system.
//!
//! An [`SmPort`] is the only conduit for cross-boundary traffic: the SM
//! pushes outgoing L1 misses/stores/prefetches into the outbox and pops
//! matured line fills from the inbox, one at a time; once per cycle the
//! cycle loop
//! ([`crate::gpu::Gpu::run`]) drains every outbox into the shared
//! [`gpu_mem::memsys::MemorySystem`] in fixed SM-id order and re-homes
//! responses into the inboxes with their NoC-ready cycles intact.

use gpu_common::Cycle;
use gpu_mem::request::LineRequest;
use std::collections::VecDeque;

/// Per-SM message queues decoupling the SM core from the shared memory
/// system. Owned by the cycle loop alongside its [`crate::sm::Sm`].
#[derive(Debug, Default)]
pub struct SmPort {
    /// Matured responses en route to the SM, `(ready_cycle, fill)` in FIFO
    /// order with non-decreasing ready cycles (the NoC preserves order).
    inbox: VecDeque<(Cycle, LineRequest)>,
    /// Outgoing requests not yet handed to the memory system,
    /// `(submit_cycle, request)` in submission order.
    outbox: Vec<(Cycle, LineRequest)>,
    /// Sum of completed-load round-trip latencies since the last flush.
    latency_total: Cycle,
    /// Number of completed loads since the last flush.
    latency_count: u64,
}

impl SmPort {
    /// Creates an empty port.
    pub fn new() -> Self {
        Self::default()
    }

    // --- SM side -----------------------------------------------------

    /// Pops the oldest fill if its NoC traversal has completed by `now`
    /// (the ready cycles [`gpu_mem::memsys::MemorySystem::take_fills`]
    /// stamped).
    pub fn pop_fill(&mut self, now: Cycle) -> Option<LineRequest> {
        match self.inbox.front() {
            Some(&(ready, _)) if ready <= now => self.inbox.pop_front().map(|(_, req)| req),
            _ => None,
        }
    }

    /// Queues an outgoing request submitted by the SM at cycle `now`.
    pub fn submit(&mut self, req: LineRequest, now: Cycle) {
        debug_assert!(
            self.outbox.last().is_none_or(|&(c, _)| c <= now),
            "submissions must be in cycle order"
        );
        self.outbox.push((now, req));
    }

    /// Accumulates one completed demand load's round-trip latency (flushed
    /// into the memory system's latency sums when the port is routed).
    pub fn note_load_latency(&mut self, latency: Cycle) {
        self.latency_total += latency;
        self.latency_count += 1;
    }

    // --- cycle-loop side ---------------------------------------------

    /// Re-homes one in-flight response into the inbox, preserving the
    /// ready cycle it was assigned inside the memory system.
    pub fn deliver(&mut self, ready: Cycle, req: LineRequest) {
        debug_assert!(
            self.inbox.back().is_none_or(|&(r, _)| r <= ready),
            "deliveries must keep ready cycles non-decreasing"
        );
        self.inbox.push_back((ready, req));
    }

    /// Drains the whole outbox for routing (submission order, cycle stamps
    /// non-decreasing). The outbox keeps its capacity for the next cycle.
    pub fn take_outbox(&mut self) -> std::vec::Drain<'_, (Cycle, LineRequest)> {
        self.outbox.drain(..)
    }

    /// Takes the accumulated `(latency sum, completed loads)` pair,
    /// resetting both. Pure sums — merge order cannot affect the result.
    pub fn take_latencies(&mut self) -> (Cycle, u64) {
        let out = (self.latency_total, self.latency_count);
        self.latency_total = 0;
        self.latency_count = 0;
        out
    }

    /// `true` when nothing sits on either side of the boundary.
    pub fn is_idle(&self) -> bool {
        self.inbox.is_empty() && self.outbox.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_common::{LineAddr, SmId};
    use gpu_mem::request::AccessKind;

    fn req(line: u64) -> LineRequest {
        LineRequest::new(LineAddr(line), SmId(0), AccessKind::Load)
    }

    #[test]
    fn fills_respect_ready_cycles() {
        let mut p = SmPort::new();
        p.deliver(5, req(1));
        p.deliver(5, req(2));
        p.deliver(9, req(3));
        assert_eq!(p.pop_fill(4), None);
        assert_eq!(p.pop_fill(5).map(|r| r.line), Some(LineAddr(1)));
        assert_eq!(p.pop_fill(5).map(|r| r.line), Some(LineAddr(2)));
        assert_eq!(p.pop_fill(5), None);
        assert!(!p.is_idle());
        assert_eq!(p.pop_fill(9).map(|r| r.line), Some(LineAddr(3)));
        assert!(p.is_idle());
    }

    #[test]
    fn outbox_keeps_cycle_stamps() {
        let mut p = SmPort::new();
        p.submit(req(1), 3);
        p.submit(req(2), 3);
        p.submit(req(3), 4);
        assert!(!p.is_idle());
        assert_eq!(
            p.take_outbox()
                .map(|(c, r)| (c, r.line))
                .collect::<Vec<_>>(),
            vec![(3, LineAddr(1)), (3, LineAddr(2)), (4, LineAddr(3))]
        );
        assert!(p.is_idle());
        assert!(p.take_outbox().next().is_none());
    }

    #[test]
    fn latency_sums_flush_and_reset() {
        let mut p = SmPort::new();
        p.note_load_latency(100);
        p.note_load_latency(300);
        assert_eq!(p.take_latencies(), (400, 2));
        assert_eq!(p.take_latencies(), (0, 0));
    }
}
