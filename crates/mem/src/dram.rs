//! DRAM partition model with banked row buffers.
//!
//! Each partition owns several banks; each bank keeps one row open. A
//! request hitting the open row is serviced at the fast column-access rate;
//! a row miss pays precharge+activate (longer service occupancy and higher
//! latency). Queueing delay under contention emerges from the service
//! occupancy — the effect behind "limited memory bandwidth often adds long
//! queuing delay" (Section I). The row-buffer state also injects the
//! workload-dependent latency *variance* real GPUs exhibit, which keeps
//! warps from settling into an artificial lock-step pipeline.
//!
//! The controller schedules FR-FCFS within a bounded window: the oldest
//! request that hits an open row is served first, falling back to the
//! queue head when nothing in the window hits (first-ready,
//! first-come-first-served — the standard GDDR controller policy).

use crate::request::MemRequest;
use gpu_common::config::DramRowPolicy;
use gpu_common::Cycle;
use std::collections::VecDeque;

/// Banks per partition (row-buffer contexts).
const BANKS_PER_PARTITION: usize = 4;
/// Bytes per DRAM row.
const ROW_BYTES: u64 = 2048;
/// Row-hit latency as a fraction of the configured (row-miss) latency.
const ROW_HIT_LATENCY_NUM: u64 = 3;
const ROW_HIT_LATENCY_DEN: u64 = 4;
/// Extra service occupancy multiplier on a row miss (precharge+activate).
const ROW_MISS_SERVICE_MULT: u64 = 3;
/// How deep into the queue FR-FCFS searches for a row hit.
const FRFCFS_WINDOW: usize = 16;

/// One DRAM partition (channel) with a FIFO request queue and banked row
/// buffers.
#[derive(Debug, Clone)]
pub struct DramPartition {
    queue: VecDeque<MemRequest>,
    latency: Cycle,
    service_interval: Cycle,
    policy: DramRowPolicy,
    next_free: Cycle,
    open_rows: [Option<u64>; BANKS_PER_PARTITION],
    /// Total requests serviced.
    pub serviced: u64,
    /// Requests that hit an open row.
    pub row_hits: u64,
    /// Sum of queue occupancy over ticks (queueing-delay diagnostics).
    pub occupancy_cycles: u64,
    /// High-water mark of the queue.
    pub max_depth: usize,
}

/// A request whose DRAM access has completed.
#[derive(Debug, Clone)]
pub struct DramCompletion {
    /// The original request.
    pub req: MemRequest,
    /// Cycle the data is available at the L2 bank.
    pub ready_at: Cycle,
}

impl DramPartition {
    /// Creates a partition with the given row-miss timing.
    ///
    /// # Panics
    ///
    /// Panics if `service_interval` is zero.
    pub fn new(latency: Cycle, service_interval: Cycle) -> Self {
        Self::with_policy(latency, service_interval, DramRowPolicy::Uniform)
    }

    /// Creates a partition with an explicit service-timing model.
    ///
    /// # Panics
    ///
    /// Panics if `service_interval` is zero.
    pub fn with_policy(latency: Cycle, service_interval: Cycle, policy: DramRowPolicy) -> Self {
        assert!(service_interval > 0);
        DramPartition {
            queue: VecDeque::new(),
            latency,
            service_interval,
            policy,
            next_free: 0,
            open_rows: [None; BANKS_PER_PARTITION],
            serviced: 0,
            row_hits: 0,
            occupancy_cycles: 0,
            max_depth: 0,
        }
    }

    /// Enqueues a request.
    pub fn push(&mut self, req: MemRequest) {
        self.queue.push_back(req);
        self.max_depth = self.max_depth.max(self.queue.len());
    }

    /// Advances one cycle, starting at most one service. Returns the
    /// completion scheduled by a started service, if any.
    pub fn tick(&mut self, now: Cycle) -> Option<DramCompletion> {
        self.occupancy_cycles += self.queue.len() as u64;
        if now < self.next_free {
            return None;
        }
        if self.queue.is_empty() {
            return None;
        }
        let (occupancy, latency, req) = match self.policy {
            DramRowPolicy::Uniform => {
                let req = self.queue.pop_front()?;
                (self.service_interval, self.latency, req)
            }
            DramRowPolicy::FrFcfsRowBuffer => {
                // FR-FCFS: oldest row-hit within the window, else the head.
                let pick = self
                    .queue
                    .iter()
                    .take(FRFCFS_WINDOW)
                    .position(|r| {
                        let row = r.line.base(128).0 / ROW_BYTES;
                        self.open_rows[(row as usize) % BANKS_PER_PARTITION] == Some(row)
                    })
                    .unwrap_or(0);
                let req = self.queue.remove(pick)?;
                let row = req.line.base(128).0 / ROW_BYTES;
                let bank = (row as usize) % BANKS_PER_PARTITION;
                let row_hit = self.open_rows[bank] == Some(row);
                self.open_rows[bank] = Some(row);
                if row_hit {
                    self.row_hits += 1;
                    (
                        self.service_interval,
                        self.latency * ROW_HIT_LATENCY_NUM / ROW_HIT_LATENCY_DEN,
                        req,
                    )
                } else {
                    (self.service_interval * ROW_MISS_SERVICE_MULT, self.latency, req)
                }
            }
        };
        self.serviced += 1;
        self.next_free = now + occupancy;
        Some(DramCompletion {
            req,
            ready_at: now + latency,
        })
    }

    /// `true` when nothing is queued.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Fraction of serviced requests that hit an open row.
    pub fn row_hit_rate(&self) -> f64 {
        if self.serviced == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.serviced as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_common::{LineAddr, Pc, SmId, WarpId};

    fn req(line: u64) -> MemRequest {
        MemRequest::load(LineAddr(line), SmId(0), WarpId(0), Pc(0), 0, 0, 0)
    }

    #[test]
    fn first_access_is_row_miss_with_full_latency() {
        let mut d = DramPartition::with_policy(440, 2, DramRowPolicy::FrFcfsRowBuffer);
        d.push(req(1));
        let c = d.tick(100).unwrap();
        assert_eq!(c.ready_at, 540);
        assert_eq!(c.req.line, LineAddr(1));
        assert_eq!(d.row_hits, 0);
        assert!(d.is_idle());
    }

    #[test]
    fn same_row_hits_after_activation() {
        let mut d = DramPartition::with_policy(440, 2, DramRowPolicy::FrFcfsRowBuffer);
        // Lines 0 and 1 share the 2 KB row (16 lines per row).
        d.push(req(0));
        d.push(req(1));
        let first = d.tick(0).unwrap();
        assert_eq!(first.ready_at, 440);
        // Row-miss occupancy: 2 × 3 = 6 cycles before the next service.
        assert!(d.tick(1).is_none());
        let second = d.tick(6).unwrap();
        assert_eq!(second.ready_at, 6 + 330); // 440 × 3/4
        assert_eq!(d.row_hits, 1);
        assert!((d.row_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn frfcfs_reorders_to_recover_row_locality() {
        let mut d = DramPartition::with_policy(400, 1, DramRowPolicy::FrFcfsRowBuffer);
        // Rows 0 and 4 both map to bank 0 (4 banks).
        d.push(req(0)); // row 0
        d.push(req(4 * 16)); // row 4
        d.push(req(1)); // row 0 again — FR-FCFS serves it before row 4
        let mut order = Vec::new();
        for now in 0..40 {
            if let Some(c) = d.tick(now) {
                order.push(c.req.line.0);
            }
        }
        assert_eq!(order, vec![0, 1, 4 * 16]);
        assert_eq!(d.row_hits, 1, "the reordered request hits the open row");
    }

    #[test]
    fn different_banks_keep_rows_open() {
        let mut d = DramPartition::with_policy(400, 1, DramRowPolicy::FrFcfsRowBuffer);
        d.push(req(0)); // row 0 → bank 0
        d.push(req(16)); // row 1 → bank 1
        d.push(req(1)); // row 0 → bank 0: still open
        for now in 0..40 {
            d.tick(now);
        }
        assert_eq!(d.row_hits, 1);
    }

    #[test]
    fn uniform_policy_is_fifo_flat_latency() {
        let mut d = DramPartition::new(100, 2);
        d.push(req(1));
        d.push(req(2));
        let a = d.tick(0).unwrap();
        assert_eq!(a.req.line, LineAddr(1));
        assert_eq!(a.ready_at, 100);
        assert!(d.tick(1).is_none());
        let b = d.tick(2).unwrap();
        assert_eq!(b.req.line, LineAddr(2));
        assert_eq!(b.ready_at, 102);
        assert_eq!(d.row_hits, 0, "uniform model tracks no rows");
    }

    #[test]
    fn queueing_delay_emerges() {
        let mut d = DramPartition::new(100, 5);
        for i in 0..10 {
            d.push(req(i * 64));
        }
        let mut last = 0;
        for now in 0..200 {
            if let Some(c) = d.tick(now) {
                last = c.ready_at;
            }
        }
        // Uniform: services every 5 cycles; last starts at 45.
        assert_eq!(last, 45 + 100);
        assert_eq!(d.max_depth, 10);
        assert!(d.occupancy_cycles > 0);
    }

    #[test]
    fn idle_tick_returns_none() {
        let mut d = DramPartition::new(10, 1);
        assert!(d.tick(0).is_none());
    }

    #[test]
    fn streaming_gets_high_row_hit_rate() {
        let mut d = DramPartition::with_policy(400, 1, DramRowPolicy::FrFcfsRowBuffer);
        for i in 0..64 {
            d.push(req(i)); // sequential lines: 16 per row
        }
        let mut now = 0;
        while !d.is_idle() {
            d.tick(now);
            now += 1;
            assert!(now < 10_000);
        }
        assert!(
            d.row_hit_rate() > 0.9,
            "sequential stream row-hit rate {}",
            d.row_hit_rate()
        );
    }
}
