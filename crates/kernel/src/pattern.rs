//! Per-static-load address patterns.
//!
//! The paper's Section III divides GPU loads into two classes: loads with
//! strong locality (small footprint, re-referenced across warps) and loads
//! with a large footprint but a highly regular *inter-warp stride* (address
//! difference divided by warp-ID difference). [`AddressPattern`] expresses
//! both, plus the irregular accesses of graph-style benchmarks:
//!
//! * [`AddressPattern::SharedStream`] — every warp reads the same address at
//!   a given loop iteration (dominant inter-warp stride 0, #L/#R ≪ 1);
//! * [`AddressPattern::WarpStrided`] — address is linear in the warp ID
//!   (dominant stride = `warp_stride`), optionally wrapping to model cyclic
//!   re-reference of a bounded working set (KM's 2 MB set);
//! * [`AddressPattern::Irregular`] — pseudo-random within a working set with
//!   an optional hot region (MUM/BFS-style).
//!
//! Address generation is **stateless and deterministic**: the addresses of a
//! (sm, warp, iteration) triple are a pure function of the kernel seed, so a
//! prefetcher predicting "warp w+1 will access a+stride" is validated against
//! exactly the access warp w+1 will later make.

use gpu_common::rng::Xoshiro256;
use gpu_common::{Addr, LaneList, MAX_REQUESTS_PER_WARP};

/// Per-SM address-space slab: each SM works on its own gigabyte so L1
/// behaviour is independent across SMs (each thread block gets its own data),
/// while [`AddressPattern::SharedStream`] deliberately ignores the slab to
/// model truly shared data.
const SM_SLAB_BYTES: u64 = 1 << 30;

/// Address-generation rule of one static load or store.
#[derive(Debug, Clone, PartialEq)]
pub enum AddressPattern {
    /// All warps at iteration `i` access `base + i * iter_stride`; models a
    /// shared variable or a frontier array read in lock-step. Dominant
    /// inter-warp stride: 0.
    SharedStream {
        /// First byte address.
        base: u64,
        /// Per-iteration advance in bytes.
        iter_stride: i64,
        /// Probability that an access jumps to a random offset within
        /// `region_bytes` instead (breaks perfect locality).
        noise: f64,
        /// Region the noisy jumps land in.
        region_bytes: u64,
    },
    /// `addr = base + warp_stride·warp + iter_stride·iter + lane_stride·lane`,
    /// optionally wrapped modulo `wrap_bytes` for cyclic reuse.
    WarpStrided {
        /// First byte address.
        base: u64,
        /// Bytes between consecutive warp IDs (Table I's *Stride* column).
        warp_stride: i64,
        /// Bytes advanced per loop iteration.
        iter_stride: i64,
        /// Bytes between consecutive lanes (4 ⇒ one coalesced 128 B line).
        lane_stride: u64,
        /// When set, offsets wrap modulo this working-set size.
        wrap_bytes: Option<u64>,
        /// Probability an access deviates to a random offset (lowers %Stride).
        noise: f64,
    },
    /// Pseudo-random accesses inside `working_set_bytes`, biased toward a
    /// hot region with probability `hot_prob`.
    Irregular {
        /// First byte address.
        base: u64,
        /// Total footprint.
        working_set_bytes: u64,
        /// Size of the frequently re-referenced region.
        hot_bytes: u64,
        /// Probability an access falls in the hot region.
        hot_prob: f64,
        /// Bytes between consecutive lanes (0 ⇒ fully coalesced scalar read).
        lane_spread: u64,
    },
}

impl AddressPattern {
    /// Convenience constructor for a plain warp-strided pattern.
    pub fn warp_strided(base: u64, warp_stride: i64, iter_stride: i64, lane_stride: u64) -> Self {
        AddressPattern::WarpStrided {
            base,
            warp_stride,
            iter_stride,
            lane_stride,
            wrap_bytes: None,
            noise: 0.0,
        }
    }

    /// Convenience constructor for a shared-stream (stride-0) pattern.
    pub fn shared_stream(base: u64, iter_stride: i64) -> Self {
        AddressPattern::SharedStream {
            base,
            iter_stride,
            noise: 0.0,
            region_bytes: 64 * 1024,
        }
    }

    /// Convenience constructor for an irregular pattern.
    pub fn irregular(base: u64, working_set_bytes: u64, hot_bytes: u64, hot_prob: f64) -> Self {
        AddressPattern::Irregular {
            base,
            working_set_bytes,
            hot_bytes,
            hot_prob,
            lane_spread: 0,
        }
    }

    /// Sets the noise probability (fraction of accesses off the dominant
    /// pattern). No effect on [`AddressPattern::Irregular`].
    #[must_use]
    pub fn with_noise(mut self, p: f64) -> Self {
        match &mut self {
            AddressPattern::SharedStream { noise, .. }
            | AddressPattern::WarpStrided { noise, .. } => *noise = p,
            AddressPattern::Irregular { .. } => {}
        }
        self
    }

    /// Sets cyclic wrap on a [`AddressPattern::WarpStrided`] pattern.
    #[must_use]
    pub fn with_wrap(mut self, bytes: u64) -> Self {
        if let AddressPattern::WarpStrided { wrap_bytes, .. } = &mut self {
            *wrap_bytes = Some(bytes);
        }
        self
    }

    /// The stride a perfect inter-warp stride detector would learn, if any.
    pub fn nominal_stride(&self) -> Option<i64> {
        match self {
            AddressPattern::SharedStream { .. } => Some(0),
            AddressPattern::WarpStrided { warp_stride, .. } => Some(*warp_stride),
            AddressPattern::Irregular { .. } => None,
        }
    }

    /// `true` when the pattern addresses data shared by every SM (no
    /// per-SM slab). Shared streams are shared by definition; wrapped
    /// strided patterns model bounded read-mostly structures (KM's centroid
    /// table, BP's weight matrix) that every thread block walks; irregular
    /// patterns model graphs/trees/sparse matrices, which thread blocks
    /// share. Unwrapped strided streams are per-block data partitions and
    /// keep their slab.
    fn shares_address_space(&self) -> bool {
        match self {
            AddressPattern::SharedStream { .. } | AddressPattern::Irregular { .. } => true,
            AddressPattern::WarpStrided { wrap_bytes, .. } => wrap_bytes.is_some(),
        }
    }

    /// `true` when noise must be identical for every warp at a given
    /// iteration (lock-step shared reads).
    fn lockstep_noise(&self) -> bool {
        matches!(self, AddressPattern::SharedStream { .. })
    }
}

/// Stateless, deterministic address sampler for a kernel instance.
///
/// # Example
///
/// ```
/// use gpu_kernel::{AddressPattern, PatternSampler};
///
/// let s = PatternSampler::new(99, 32);
/// let p = AddressPattern::warp_strided(0x1000, 512, 0, 4);
/// let a = s.addresses(&p, 0, 3, 0, 32);
/// let b = s.addresses(&p, 0, 3, 0, 32);
/// assert_eq!(a, b); // pure function of its inputs
/// assert_eq!(a.len(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternSampler {
    seed: u64,
    warp_size: u32,
}

impl PatternSampler {
    /// Creates a sampler for a kernel run with the given seed.
    pub fn new(seed: u64, warp_size: u32) -> Self {
        PatternSampler { seed, warp_size }
    }

    /// The warp width this sampler generates lanes for.
    pub fn warp_size(&self) -> u32 {
        self.warp_size
    }

    /// Generates the per-lane byte addresses of one dynamic access, inline
    /// (no heap allocation).
    ///
    /// `active_lanes` limits how many leading lanes participate (divergence).
    ///
    /// # Panics
    ///
    /// Panics if `active_lanes` is 0 or exceeds the warp size or
    /// [`MAX_REQUESTS_PER_WARP`].
    pub fn addresses(
        &self,
        pattern: &AddressPattern,
        sm: u32,
        warp: u32,
        iter: u64,
        active_lanes: u32,
    ) -> LaneList<Addr> {
        let max = self.warp_size.min(MAX_REQUESTS_PER_WARP as u32);
        assert!(
            active_lanes >= 1 && active_lanes <= max,
            "active_lanes {active_lanes} out of range 1..={max}"
        );
        let slab = if pattern.shares_address_space() {
            0
        } else {
            u64::from(sm) * SM_SLAB_BYTES
        };
        let mut rng = self.access_rng(pattern, sm, warp, iter);
        match *pattern {
            AddressPattern::SharedStream {
                base,
                iter_stride,
                noise,
                region_bytes,
            } => {
                let addr = if noise > 0.0 && rng.chance(noise) {
                    base + align4(rng.next_below(region_bytes.max(4)))
                } else {
                    wrap_offset(base, iter_stride.wrapping_mul(iter as i64), None)
                };
                LaneList::from_fn(active_lanes as usize, |_| Addr::new(addr))
            }
            AddressPattern::WarpStrided {
                base,
                warp_stride,
                iter_stride,
                lane_stride,
                wrap_bytes,
                noise,
            } => {
                let deviate = noise > 0.0 && rng.chance(noise);
                let jitter = if deviate {
                    // A bounded multiple of the stride keeps the deviant
                    // access inside the same data structure while breaking
                    // the learned inter-warp stride; the extra half-stride
                    // keeps deviants off the regular stream's addresses so
                    // noise does not manufacture reuse.
                    let s = warp_stride.unsigned_abs().max(256) as i64;
                    let k = 2 + rng.next_below(61) as i64;
                    s * k + s / 2
                } else {
                    0
                };
                let warp_off = warp_stride.wrapping_mul(i64::from(warp));
                let iter_off = iter_stride.wrapping_mul(iter as i64);
                LaneList::from_fn(active_lanes as usize, |lane| {
                    let lane_off = (lane_stride * lane as u64) as i64;
                    let off = warp_off
                        .wrapping_add(iter_off)
                        .wrapping_add(lane_off)
                        .wrapping_add(jitter);
                    Addr::new(slab + wrap_offset(base, off, wrap_bytes))
                })
            }
            AddressPattern::Irregular {
                base,
                working_set_bytes,
                hot_bytes,
                hot_prob,
                lane_spread,
            } => {
                let region = if hot_prob > 0.0 && rng.chance(hot_prob) {
                    hot_bytes.max(4)
                } else {
                    working_set_bytes.max(4)
                };
                let start = base + align4(rng.next_below(region));
                LaneList::from_fn(active_lanes as usize, |lane| {
                    Addr::new(slab + start + lane_spread * lane as u64)
                })
            }
        }
    }

    /// RNG seeded purely by the access coordinates, so regeneration at a
    /// different time (or by a prefetcher peeking ahead) yields identical
    /// addresses.
    fn access_rng(&self, pattern: &AddressPattern, sm: u32, warp: u32, iter: u64) -> Xoshiro256 {
        // Shared streams must draw identical noise for every warp at a given
        // iteration, otherwise the noise itself would destroy the lock-step
        // sharing the pattern models.
        let w = if pattern.lockstep_noise() { 0 } else { warp };
        let s = if pattern.lockstep_noise() { 0 } else { sm };
        let mut mixed_seed = self.seed;
        for v in [u64::from(s), u64::from(w), iter, pattern_tag(pattern)] {
            mixed_seed = mixed_seed
                .rotate_left(23)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(v ^ 0xD6E8_FEB8_6659_FD93);
        }
        Xoshiro256::seed_from_u64(mixed_seed)
    }
}

/// Distinguishes patterns in the RNG seed so two loads with the same
/// coordinates draw independent noise.
fn pattern_tag(p: &AddressPattern) -> u64 {
    match p {
        AddressPattern::SharedStream { base, .. } => 0x1000_0000 | base,
        AddressPattern::WarpStrided { base, .. } => 0x2000_0000 | base,
        AddressPattern::Irregular { base, .. } => 0x3000_0000 | base,
    }
}

/// Applies a signed offset to `base`, optionally wrapping modulo
/// `wrap_bytes`; the result never underflows below `base` when wrapping and
/// saturates at zero otherwise.
fn wrap_offset(base: u64, off: i64, wrap_bytes: Option<u64>) -> u64 {
    match wrap_bytes {
        Some(w) if w > 0 => base + (off.rem_euclid(w as i64)) as u64,
        _ => base.saturating_add_signed(off),
    }
}

fn align4(v: u64) -> u64 {
    v & !3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler() -> PatternSampler {
        PatternSampler::new(42, 32)
    }

    #[test]
    fn warp_strided_linear_in_warp_and_lane() {
        let p = AddressPattern::warp_strided(0x1000, 512, 64, 4);
        let a = sampler().addresses(&p, 0, 2, 3, 32);
        assert_eq!(a.len(), 32);
        assert_eq!(a[0], Addr::new(0x1000 + 2 * 512 + 3 * 64));
        assert_eq!(a[1].0 - a[0].0, 4);
        let b = sampler().addresses(&p, 0, 3, 3, 32);
        assert_eq!(b[0].0 - a[0].0, 512);
    }

    #[test]
    fn negative_warp_stride_wraps_or_saturates() {
        let p = AddressPattern::warp_strided(0x100, -0x80, 0, 4);
        // Without wrap, offsets below base saturate at 0.
        let a = sampler().addresses(&p, 0, 10, 0, 1);
        assert_eq!(a[0], Addr::new(0));
        let p = p.with_wrap(0x1000);
        let a = sampler().addresses(&p, 0, 10, 0, 1);
        // -0x500 rem_euclid 0x1000 = 0xB00
        assert_eq!(a[0], Addr::new(0x100 + 0xB00));
    }

    #[test]
    fn wrap_creates_cyclic_reuse() {
        let p = AddressPattern::warp_strided(0, 0, 128, 4).with_wrap(1024);
        let s = sampler();
        let first = s.addresses(&p, 0, 0, 0, 1);
        let again = s.addresses(&p, 0, 0, 8, 1); // 8 * 128 = 1024 ≡ 0
        assert_eq!(first, again);
    }

    #[test]
    fn shared_stream_identical_across_warps_and_sms() {
        let p = AddressPattern::shared_stream(0x4000, 128);
        let s = sampler();
        let a = s.addresses(&p, 0, 0, 5, 32);
        let b = s.addresses(&p, 1, 17, 5, 32);
        assert_eq!(a, b);
        assert_eq!(a[0], Addr::new(0x4000 + 5 * 128));
        // All lanes identical (coalesces to a single request).
        assert!(a.iter().all(|&x| x == a[0]));
    }

    #[test]
    fn shared_stream_noise_is_warp_invariant() {
        let p = AddressPattern::shared_stream(0, 128).with_noise(0.5);
        let s = sampler();
        for iter in 0..50 {
            assert_eq!(
                s.addresses(&p, 0, 1, iter, 1),
                s.addresses(&p, 2, 9, iter, 1),
                "noise must not differ across warps for shared streams"
            );
        }
    }

    #[test]
    fn sm_slab_separates_non_shared_patterns() {
        let p = AddressPattern::warp_strided(0x1000, 512, 0, 4);
        let s = sampler();
        let a = s.addresses(&p, 0, 1, 0, 1);
        let b = s.addresses(&p, 1, 1, 0, 1);
        assert_eq!(b[0].0 - a[0].0, SM_SLAB_BYTES);
    }

    #[test]
    fn irregular_stays_in_working_set() {
        let p = AddressPattern::irregular(0x10_0000, 1 << 20, 4096, 0.5);
        let s = sampler();
        for iter in 0..200 {
            for w in 0..4 {
                let a = s.addresses(&p, 0, w, iter, 1);
                assert!(a[0].0 >= 0x10_0000);
                assert!(a[0].0 < 0x10_0000 + (1 << 20));
            }
        }
    }

    #[test]
    fn irregular_hot_prob_one_stays_in_hot_region() {
        let p = AddressPattern::irregular(0, 1 << 24, 1024, 1.0);
        let s = sampler();
        for iter in 0..100 {
            let a = s.addresses(&p, 0, iter as u32 % 8, iter, 1);
            assert!(a[0].0 < 1024, "addr {:?} outside hot region", a[0]);
        }
    }

    #[test]
    fn noise_fraction_roughly_matches() {
        let p = AddressPattern::warp_strided(0, 4352, 0, 4).with_noise(0.25);
        let s = sampler();
        let mut deviant = 0;
        let n = 2000;
        for w in 0..n {
            let a = s.addresses(&p, 0, w % 48, u64::from(w / 48), 1);
            let expected = 4352 * u64::from(w % 48);
            if a[0].0 != expected {
                deviant += 1;
            }
        }
        let frac = f64::from(deviant) / f64::from(n);
        assert!((0.15..0.35).contains(&frac), "deviant fraction {frac}");
    }

    #[test]
    fn determinism() {
        let patterns = [
            AddressPattern::warp_strided(0, 4352, 64, 4).with_noise(0.3),
            AddressPattern::shared_stream(0, 8).with_noise(0.2),
            AddressPattern::irregular(0, 1 << 21, 1 << 14, 0.7),
        ];
        let s = sampler();
        for p in &patterns {
            for w in 0..4 {
                for i in 0..4 {
                    assert_eq!(s.addresses(p, 1, w, i, 32), s.addresses(p, 1, w, i, 32));
                }
            }
        }
    }

    #[test]
    fn active_lanes_limits_output() {
        let p = AddressPattern::warp_strided(0, 512, 0, 4);
        assert_eq!(sampler().addresses(&p, 0, 0, 0, 7).len(), 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_active_lanes_panics() {
        let p = AddressPattern::warp_strided(0, 512, 0, 4);
        sampler().addresses(&p, 0, 0, 0, 0);
    }

    #[test]
    fn nominal_strides() {
        assert_eq!(
            AddressPattern::shared_stream(0, 8).nominal_stride(),
            Some(0)
        );
        assert_eq!(
            AddressPattern::warp_strided(0, 4352, 0, 4).nominal_stride(),
            Some(4352)
        );
        assert_eq!(
            AddressPattern::irregular(0, 1024, 64, 0.5).nominal_stride(),
            None
        );
    }
}
