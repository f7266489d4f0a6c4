//! Strongly-typed identifiers used throughout the simulator.
//!
//! Newtypes keep warp IDs, program counters, byte addresses, and cache-line
//! addresses from being confused with one another ([C-NEWTYPE]).

use std::fmt;

/// Identifier of a warp within one streaming multiprocessor.
///
/// The paper defines a warp ID as "the index of the first thread divided by
/// warp size (32)" (Section III-B). IDs are dense, starting at 0.
///
/// # Example
///
/// ```
/// use gpu_common::WarpId;
/// let w = WarpId(3);
/// assert_eq!(w.index(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WarpId(pub u32);

impl WarpId {
    /// Returns the warp index as a `usize`, suitable for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for WarpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "W{}", self.0)
    }
}

impl fmt::Display for WarpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "W{}", self.0)
    }
}

impl From<u32> for WarpId {
    fn from(v: u32) -> Self {
        WarpId(v)
    }
}

/// Identifier of a streaming multiprocessor within the GPU.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SmId(pub u32);

impl SmId {
    /// Returns the SM index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SM{}", self.0)
    }
}

impl fmt::Display for SmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SM{}", self.0)
    }
}

/// Program counter of a static instruction, in bytes.
///
/// Static loads are identified by their PC, exactly as in Table I of the
/// paper (`0x110`, `0x7A8`, ...).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pc(pub u64);

impl fmt::Debug for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:X}", self.0)
    }
}

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:X}", self.0)
    }
}

impl fmt::LowerHex for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A byte address in GPU global (device) memory.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// Creates an address from a raw byte value.
    #[inline]
    pub fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the cache-line address containing this byte address.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    #[inline]
    pub fn line(self, line_bytes: u64) -> LineAddr {
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        LineAddr(self.0 / line_bytes)
    }

    /// Offsets the address by a signed byte delta, saturating at zero.
    #[inline]
    pub fn offset(self, delta: i64) -> Addr {
        Addr(self.0.saturating_add_signed(delta))
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@0x{:X}", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:X}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

/// A cache-line-granular address (byte address divided by the line size).
///
/// # Example
///
/// ```
/// use gpu_common::{Addr, LineAddr};
/// let line = Addr::new(0x280).line(128);
/// assert_eq!(line, LineAddr(5));
/// assert_eq!(line.base(128), Addr::new(0x280));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// Returns the first byte address of the line.
    #[inline]
    pub fn base(self, line_bytes: u64) -> Addr {
        Addr(self.0 * line_bytes)
    }

    /// Returns the byte offset of `addr` within this line.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `addr` is not contained in this line.
    #[inline]
    pub fn byte_offset(self, addr: Addr, line_bytes: u64) -> u64 {
        debug_assert_eq!(addr.line(line_bytes), self);
        addr.0 - self.0 * line_bytes
    }

    /// Cache set index for a cache with `num_sets` sets (power of two).
    #[inline]
    pub fn set_index(self, num_sets: usize) -> usize {
        debug_assert!(num_sets.is_power_of_two());
        (self.0 as usize) & (num_sets - 1)
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L0x{:X}", self.0)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L0x{:X}", self.0)
    }
}

/// A simulation cycle count (core clock domain).
pub type Cycle = u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_round_trip() {
        let a = Addr::new(0x1234);
        let l = a.line(128);
        assert_eq!(l, LineAddr(0x1234 / 128));
        assert_eq!(l.base(128), Addr::new((0x1234 / 128) * 128));
        assert_eq!(l.byte_offset(a, 128), 0x1234 % 128);
    }

    #[test]
    fn addr_offset_saturates_at_zero() {
        assert_eq!(Addr::new(10).offset(-20), Addr::new(0));
        assert_eq!(Addr::new(10).offset(5), Addr::new(15));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn line_rejects_non_power_of_two() {
        let _ = Addr::new(0).line(100);
    }

    #[test]
    fn set_index_masks_low_bits() {
        assert_eq!(LineAddr(0x1F).set_index(16), 0xF);
        assert_eq!(LineAddr(0x20).set_index(16), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(WarpId(7).to_string(), "W7");
        assert_eq!(Pc(0x110).to_string(), "0x110");
        assert_eq!(Addr::new(255).to_string(), "0xFF");
        assert_eq!(SmId(2).to_string(), "SM2");
    }

    #[test]
    fn ids_are_orderable_and_hashable() {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let hash = |w: WarpId| {
            let mut h = DefaultHasher::new();
            w.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(WarpId(1)), hash(WarpId(1)));
        assert!(WarpId(1) < WarpId(2));
        assert!(Pc(0x10) < Pc(0x20));
    }
}
