//! Fixed-capacity per-warp lists.
//!
//! One warp memory instruction yields at most one byte address and one
//! coalesced line request per lane. [`LaneList`] holds such a list inline,
//! so the simulator builds one per memory instruction without touching the
//! heap (DESIGN.md §13).

use std::fmt;
use std::ops::Deref;

/// The widest warp the simulator models, and so the most coalesced line
/// requests one warp memory instruction can generate (one per lane when
/// fully divergent). [`crate::config::GpuConfig::validate`] rejects a wider
/// `core.warp_size`.
pub const MAX_REQUESTS_PER_WARP: usize = 32;

/// An inline list of at most [`MAX_REQUESTS_PER_WARP`] items; it reads as
/// a slice.
///
/// # Example
///
/// ```
/// use gpu_common::{LaneList, LineAddr};
///
/// let mut lines = LaneList::new();
/// lines.push(LineAddr(7));
/// lines.push(LineAddr(9));
/// assert_eq!(*lines, [LineAddr(7), LineAddr(9)]);
/// let lanes = LaneList::from_fn(32, |lane| lane * 4);
/// assert_eq!((lanes.len(), lanes[31]), (32, 124));
/// ```
#[derive(Clone, Copy)]
pub struct LaneList<T> {
    len: usize,
    items: [T; MAX_REQUESTS_PER_WARP],
}

impl<T: Copy + Default> LaneList<T> {
    /// An empty list.
    pub fn new() -> Self {
        LaneList {
            len: 0,
            items: [T::default(); MAX_REQUESTS_PER_WARP],
        }
    }

    /// A list of `len` items, item `i` being `f(i)`.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`MAX_REQUESTS_PER_WARP`].
    pub fn from_fn(len: usize, f: impl FnMut(usize) -> T) -> Self {
        assert!(
            len <= MAX_REQUESTS_PER_WARP,
            "a lane list holds at most {MAX_REQUESTS_PER_WARP} items"
        );
        let mut list = Self::new();
        for (slot, item) in list.items[..len].iter_mut().zip((0..len).map(f)) {
            *slot = item;
        }
        list.len = len;
        list
    }

    /// Appends `item`.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds [`MAX_REQUESTS_PER_WARP`] items.
    pub fn push(&mut self, item: T) {
        assert!(
            self.len < MAX_REQUESTS_PER_WARP,
            "a lane list holds at most {MAX_REQUESTS_PER_WARP} items"
        );
        self.items[self.len] = item;
        self.len += 1;
    }
}

impl<T: Copy + Default> Default for LaneList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Deref for LaneList<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..self.len]
    }
}

impl<T: PartialEq> PartialEq for LaneList<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: fmt::Debug> fmt::Debug for LaneList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T> IntoIterator for LaneList<T> {
    type Item = T;
    type IntoIter = std::iter::Take<std::array::IntoIter<T, MAX_REQUESTS_PER_WARP>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().take(self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_as_the_pushed_prefix() {
        let mut l = LaneList::new();
        assert!(l.is_empty());
        l.push(3u32);
        l.push(1);
        assert_eq!(*l, [3, 1]);
        assert_eq!(l.into_iter().collect::<Vec<_>>(), vec![3, 1]);
        assert_eq!(format!("{l:?}"), "[3, 1]");
    }

    #[test]
    fn equality_ignores_unused_slots() {
        let mut a = LaneList::from_fn(3, |i| i as u8 + 1);
        let b = LaneList::from_fn(2, |i| i as u8 + 1);
        assert_ne!(a, b);
        a = LaneList::from_fn(2, |i| i as u8 + 1);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at most 32")]
    fn a_33rd_item_panics() {
        let mut l = LaneList::from_fn(MAX_REQUESTS_PER_WARP, |_| 0u8);
        l.push(1);
    }

    #[test]
    #[should_panic(expected = "at most 32")]
    fn from_fn_past_capacity_panics() {
        LaneList::from_fn(MAX_REQUESTS_PER_WARP + 1, |_| 0u8);
    }
}
