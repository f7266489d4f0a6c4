//! Fixed-latency, rate-limited delivery pipes (the SM↔L2 interconnect).

use gpu_common::Cycle;
use std::collections::VecDeque;

/// A FIFO pipe with a constant traversal latency. Items pushed at cycle `t`
/// become visible to [`DelayPipe::pop_ready`] at `t + latency`; the consumer
/// pops up to its own per-cycle budget, which models link bandwidth.
///
/// # Example
///
/// ```
/// use gpu_mem::noc::DelayPipe;
///
/// let mut p = DelayPipe::new(8);
/// p.push("x", 0);
/// assert_eq!(p.pop_ready(7), None);
/// assert_eq!(p.pop_ready(8), Some("x"));
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

    /// Pops the oldest item if it has completed traversal by `now`.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        match self.queue.front() {
            Some(&(ready, _)) if ready <= now => self.queue.pop_front().map(|(_, item)| item),
            _ => None,
        }
    }

    /// Items currently in flight.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Empties the pipe in place, yielding every in-flight item together
    /// with the cycle at which it completes traversal (FIFO order, ready
    /// cycles non-decreasing). Used by the cycle loop to re-home in-flight
    /// responses into per-SM inboxes.
    pub fn drain_timed(&mut self) -> std::collections::vec_deque::Drain<'_, (Cycle, T)> {
        self.queue.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_latency() {
        let mut p = DelayPipe::new(5);
        p.push(1, 10);
        assert_eq!(p.pop_ready(14), None);
        assert_eq!(p.pop_ready(15), Some(1));
        assert!(p.is_empty());
    }

    #[test]
    fn pops_in_order() {
        let mut p = DelayPipe::new(0);
        for i in 0..3 {
            p.push(i, 0);
        }
        assert_eq!(p.pop_ready(0), Some(0));
        assert_eq!(p.pop_ready(0), Some(1));
        assert_eq!(p.pop_ready(0), Some(2));
        assert_eq!(p.pop_ready(0), None);
    }

    #[test]
    fn zero_latency_same_cycle() {
        let mut p = DelayPipe::new(0);
        p.push("a", 3);
        assert_eq!(p.pop_ready(3), Some("a"));
    }

    #[test]
    fn mixed_ready_and_pending() {
        let mut p = DelayPipe::new(2);
        p.push(1, 0);
        p.push(2, 5);
        assert_eq!(p.pop_ready(3), Some(1));
        assert_eq!(p.pop_ready(3), None);
        assert_eq!(p.len(), 1);
        assert_eq!(p.pop_ready(7), Some(2));
    }

    #[test]
    fn drain_timed_keeps_ready_cycles() {
        let mut p = DelayPipe::new(4);
        p.push('a', 1);
        p.push('b', 3);
        assert_eq!(
            p.drain_timed().collect::<Vec<_>>(),
            vec![(5, 'a'), (7, 'b')]
        );
        assert!(p.is_empty());
    }
}
