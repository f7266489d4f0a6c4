//! Wall-clock abstraction with a deterministic virtual implementation.
//!
//! The service layer (`apres-serve`) measures per-job deadlines, and its
//! stall fault pushes a job past its deadline by sleeping. Both must be
//! *testable deterministically*: a unit test that really slept through a
//! deadline would be slow and flaky. So every time-dependent service
//! component takes a `&dyn Clock`:
//!
//! * [`WallClock`] is the production implementation —
//!   [`std::time::Instant`] plus [`std::thread::sleep`];
//! * [`VirtualClock`] advances an atomic counter instantly on every sleep,
//!   so a "stalled job" fault burns through its deadline without any real
//!   waiting.
//!
//! Implementations must be [`Sync`]: one clock is shared by every worker
//! thread of a batch.

#![expect(
    clippy::disallowed_types,
    reason = "`VirtualClock` is shared by worker threads, so its counter is an atomic; it feeds deadlines, never results"
)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic millisecond clock that can also sleep.
pub trait Clock: Sync {
    /// Milliseconds since the clock's epoch (process start or construction).
    fn now_ms(&self) -> u64;

    /// Blocks (or pretends to block) for `ms` milliseconds.
    fn sleep_ms(&self, ms: u64);
}

/// The real clock: monotonic time since construction, real sleeps.
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl WallClock {
    /// Starts a wall clock whose epoch is "now".
    pub fn new() -> Self {
        WallClock {
            #[expect(
                clippy::disallowed_methods,
                reason = "the one raw clock read behind the `Clock` trait; every other component takes a `&dyn Clock`"
            )]
            epoch: Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn sleep_ms(&self, ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

/// A deterministic clock for tests: "time" is an atomic counter and
/// sleeping advances it instantly.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now: AtomicU64,
}

impl VirtualClock {
    /// Starts a virtual clock at t = 0 ms.
    pub fn new() -> Self {
        VirtualClock::default()
    }
}

impl Clock for VirtualClock {
    fn now_ms(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }

    fn sleep_ms(&self, ms: u64) {
        self.now.fetch_add(ms, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_advances_instantly() {
        let c = VirtualClock::new();
        assert_eq!(c.now_ms(), 0);
        c.sleep_ms(250);
        c.sleep_ms(500);
        assert_eq!(c.now_ms(), 750);
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.now_ms();
        let b = c.now_ms();
        assert!(b >= a);
    }

    #[test]
    fn clock_is_object_safe_and_shared() {
        let c = VirtualClock::new();
        let dyn_clock: &dyn Clock = &c;
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| dyn_clock.sleep_ms(10));
            }
        });
        assert_eq!(c.now_ms(), 40);
    }
}
