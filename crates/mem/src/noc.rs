//! Fixed-latency, rate-limited delivery pipes (the SM↔L2 interconnect).

use gpu_common::Cycle;
use std::collections::VecDeque;

/// A FIFO pipe with a constant traversal latency. Items pushed at cycle `t`
/// become visible to [`DelayPipe::pop_ready`] at `t + latency`; the consumer
/// applies its own per-cycle budget, which models link bandwidth.
///
/// # Example
///
/// ```
/// use gpu_mem::noc::DelayPipe;
///
/// let mut p = DelayPipe::new(8);
/// p.push("x", 0);
/// assert!(p.pop_ready(7, 4).is_empty());
/// assert_eq!(p.pop_ready(8, 4), vec!["x"]);
/// ```
#[derive(Debug, Clone)]
pub struct DelayPipe<T> {
    latency: Cycle,
    queue: VecDeque<(Cycle, T)>,
}

impl<T> DelayPipe<T> {
    /// Creates a pipe with the given traversal latency.
    pub fn new(latency: Cycle) -> Self {
        DelayPipe {
            latency,
            queue: VecDeque::new(),
        }
    }

    /// Enqueues `item` at cycle `now`.
    pub fn push(&mut self, item: T, now: Cycle) {
        let ready = now + self.latency;
        debug_assert!(
            self.queue.back().is_none_or(|&(r, _)| r <= ready),
            "pushes must be in cycle order"
        );
        self.queue.push_back((ready, item));
    }

    /// Pops up to `budget` items that have completed traversal by `now`.
    pub fn pop_ready(&mut self, now: Cycle, budget: usize) -> Vec<T> {
        let mut out = Vec::new();
        while out.len() < budget {
            match self.queue.front() {
                Some(&(ready, _)) if ready <= now => {
                    if let Some((_, item)) = self.queue.pop_front() {
                        out.push(item);
                    }
                }
                _ => break,
            }
        }
        out
    }

    /// Items currently in flight.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Empties the pipe, returning every in-flight item together with the
    /// cycle at which it completes traversal (FIFO order, ready cycles
    /// non-decreasing). Used by the cycle loop to re-home in-flight
    /// responses into per-SM inboxes.
    pub fn drain_timed(&mut self) -> Vec<(Cycle, T)> {
        self.queue.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_latency() {
        let mut p = DelayPipe::new(5);
        p.push(1, 10);
        assert!(p.pop_ready(14, 10).is_empty());
        assert_eq!(p.pop_ready(15, 10), vec![1]);
        assert!(p.is_empty());
    }

    #[test]
    fn respects_budget_and_order() {
        let mut p = DelayPipe::new(0);
        for i in 0..5 {
            p.push(i, 0);
        }
        assert_eq!(p.pop_ready(0, 2), vec![0, 1]);
        assert_eq!(p.pop_ready(0, 2), vec![2, 3]);
        assert_eq!(p.pop_ready(0, 2), vec![4]);
    }

    #[test]
    fn zero_latency_same_cycle() {
        let mut p = DelayPipe::new(0);
        p.push("a", 3);
        assert_eq!(p.pop_ready(3, 1), vec!["a"]);
    }

    #[test]
    fn mixed_ready_and_pending() {
        let mut p = DelayPipe::new(2);
        p.push(1, 0);
        p.push(2, 5);
        assert_eq!(p.pop_ready(3, 10), vec![1]);
        assert_eq!(p.len(), 1);
        assert_eq!(p.pop_ready(7, 10), vec![2]);
    }
}
