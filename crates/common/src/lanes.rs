//! Fixed-capacity per-warp lists.
//!
//! One warp memory instruction yields at most one byte address and one
//! coalesced line request per lane. [`LaneList`] holds such a list inline,
//! so the simulator builds one per memory instruction without touching the
//! heap (DESIGN.md §13). A larger capacity holds other per-warp lists, such
//! as a group of an SM's warps.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// The widest warp the simulator models, and so the most coalesced line
/// requests one warp memory instruction can generate (one per lane when
/// fully divergent). [`crate::config::GpuConfig::validate`] rejects a wider
/// `core.warp_size`.
pub const MAX_REQUESTS_PER_WARP: usize = 32;

/// The most warps one SM holds, and so the longest list of an SM's warps
/// ([`crate::config::GpuConfig::validate`] rejects a larger
/// `core.warps_per_sm`).
pub const MAX_WARPS_PER_SM: usize = 64;

/// An inline list of at most `N` items, by default one per lane
/// ([`MAX_REQUESTS_PER_WARP`]); it reads as a slice.
///
/// # Example
///
/// ```
/// use gpu_common::{LaneList, LineAddr};
///
/// let mut lines: LaneList<LineAddr> = LaneList::new();
/// lines.push(LineAddr(7));
/// lines.push(LineAddr(9));
/// assert_eq!(*lines, [LineAddr(7), LineAddr(9)]);
/// let lanes: LaneList<usize> = LaneList::from_fn(32, |lane| lane * 4);
/// assert_eq!((lanes.len(), lanes[31]), (32, 124));
/// ```
#[derive(Clone, Copy)]
pub struct LaneList<T, const N: usize = MAX_REQUESTS_PER_WARP> {
    len: usize,
    items: [T; N],
}

impl<T: Copy + Default, const N: usize> LaneList<T, N> {
    /// An empty list.
    pub fn new() -> Self {
        LaneList {
            len: 0,
            items: [T::default(); N],
        }
    }

    /// A list of `len` items, item `i` being `f(i)`.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds `N`.
    pub fn from_fn(len: usize, f: impl FnMut(usize) -> T) -> Self {
        assert!(len <= N, "a lane list holds at most {N} items");
        let mut list = Self::new();
        for (slot, item) in list.items[..len].iter_mut().zip((0..len).map(f)) {
            *slot = item;
        }
        list.len = len;
        list
    }

    /// Keeps only the items `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let mut kept = 0;
        for i in 0..self.len {
            if keep(&self.items[i]) {
                self.items[kept] = self.items[i];
                kept += 1;
            }
        }
        self.len = kept;
    }

    /// Appends `item`.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds `N` items.
    pub fn push(&mut self, item: T) {
        assert!(self.len < N, "a lane list holds at most {N} items");
        self.items[self.len] = item;
        self.len += 1;
    }
}

impl<T: Copy + Default, const N: usize> Default for LaneList<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> Deref for LaneList<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..self.len]
    }
}

impl<T, const N: usize> DerefMut for LaneList<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items[..self.len]
    }
}

impl<T: PartialEq, const N: usize> PartialEq for LaneList<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq, const N: usize> Eq for LaneList<T, N> {}

impl<T: fmt::Debug, const N: usize> fmt::Debug for LaneList<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T, const N: usize> IntoIterator for LaneList<T, N> {
    type Item = T;
    type IntoIter = std::iter::Take<std::array::IntoIter<T, N>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().take(self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_as_the_pushed_prefix() {
        let mut l: LaneList<u32> = LaneList::new();
        assert!(l.is_empty());
        l.push(3u32);
        l.push(1);
        assert_eq!(*l, [3, 1]);
        assert_eq!(l.into_iter().collect::<Vec<_>>(), vec![3, 1]);
        assert_eq!(format!("{l:?}"), "[3, 1]");
    }

    #[test]
    fn retain_keeps_order_and_items_can_be_rewritten() {
        let mut l: LaneList<u32> = LaneList::from_fn(6, |i| i as u32);
        l.retain(|&x| x % 2 == 1);
        assert_eq!(*l, [1, 3, 5]);
        l[0] = 7;
        assert_eq!(*l, [7, 3, 5]);
    }

    #[test]
    fn equality_ignores_unused_slots() {
        let mut a: LaneList<u8> = LaneList::from_fn(3, |i| i as u8 + 1);
        let b = LaneList::from_fn(2, |i| i as u8 + 1);
        assert_ne!(a, b);
        a = LaneList::from_fn(2, |i| i as u8 + 1);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at most 32")]
    fn a_33rd_item_panics() {
        let mut l: LaneList<u8> = LaneList::from_fn(MAX_REQUESTS_PER_WARP, |_| 0u8);
        l.push(1);
    }

    #[test]
    #[should_panic(expected = "at most 32")]
    fn from_fn_past_capacity_panics() {
        let _: LaneList<u8> = LaneList::from_fn(MAX_REQUESTS_PER_WARP + 1, |_| 0u8);
    }

    #[test]
    fn a_wider_list_holds_a_whole_sm_of_warps() {
        let mut l: LaneList<u8, 64> = LaneList::from_fn(63, |i| i as u8);
        l.push(63);
        assert_eq!(l.into_iter().map(usize::from).sum::<usize>(), 63 * 64 / 2);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn a_65th_item_panics() {
        let mut l: LaneList<u8, 64> = LaneList::from_fn(64, |_| 0u8);
        l.push(1);
    }
}
