//! A counting global allocator: the system allocator plus an exact count
//! of the heap allocations each thread makes.
//!
//! A binary or test opts in with
//!
//! ```text
//! #[global_allocator]
//! static ALLOC: apres_bench::alloc::Counting = apres_bench::alloc::Counting;
//! ```
//!
//! and reads [`allocations`] before and after the work it measures. The
//! count is kept per thread, so work on other threads never enters it, and
//! it is exact: a simulation's allocation count depends on the code alone,
//! not on the host or its load. `perf_trajectory` gates it with zero
//! tolerance (METHODOLOGY.md).

#![expect(
    unsafe_code,
    reason = "a `GlobalAlloc` impl is unsafe by definition; it only forwards to `System`"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Heap allocations and reallocations made by the calling thread so far
/// while [`Counting`] is the global allocator (always 0 otherwise).
pub fn allocations() -> u64 {
    COUNT.with(Cell::get)
}

#[inline]
fn note() {
    // `try_with`: an allocation during thread teardown goes uncounted
    // rather than panicking inside the allocator.
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
}

/// The system allocator, counting every allocation and reallocation on the
/// calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract. The count is a const-initialised
// thread-local `Cell` with no destructor: bumping it neither allocates nor
// re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's guarantees for `layout` carry over unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` was allocated by this allocator, hence by `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
