//! A tiny deterministic property-testing harness.
//!
//! The workspace builds in hermetic environments with no registry access, so
//! instead of an external property-testing crate the tests use this
//! ~80-line equivalent: [`run_cases`] drives a closure with a fresh
//! [`Xoshiro256`] per case, derived from a fixed master seed, so every
//! failure is reproducible by case index. [`Gen`] adds the handful of
//! drawing helpers (ranges, choices, probabilities) the simulator's
//! properties need.
//!
//! On failure the harness panics (it only runs inside `#[test]`s) naming the
//! case index and seed so the exact case can be replayed with
//! [`run_case_with_seed`].

use crate::rng::Xoshiro256;

/// Default number of cases per property (kept modest: each simulator case
/// can run thousands of cycles).
pub const DEFAULT_CASES: u64 = 32;

/// Master seed from which per-case seeds derive. Fixed so CI is
/// deterministic.
pub const MASTER_SEED: u64 = 0xA9E5_0C0F_FEE1_5EED;

/// Draw helpers over the deterministic generator.
pub struct Gen {
    rng: Xoshiro256,
}

impl Gen {
    /// Builds a generator from a raw seed.
    pub fn from_seed(seed: u64) -> Self {
        Gen {
            rng: Xoshiro256::seed_from_u64(seed),
        }
    }

    /// A uniform `u64`.
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform in `[lo, hi]` (inclusive). `lo > hi` is treated as `lo`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.rng.next_below(hi - lo + 1)
    }

    /// Uniform usize in `[lo, hi]` (inclusive).
    pub fn usize_range(&mut self, lo: usize, hi: usize) -> usize {
        self.range(lo as u64, hi as u64) as usize
    }

    /// Picks one element of a non-empty slice (first element if empty —
    /// callers pass literals).
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        let idx = if items.len() <= 1 {
            0
        } else {
            self.rng.next_below(items.len() as u64) as usize
        };
        &items[idx]
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.chance(p)
    }

    /// A probability in `[0, 1)` with two decimal digits of resolution.
    pub fn prob(&mut self) -> f64 {
        self.rng.next_below(100) as f64 / 100.0
    }
}

/// Derives the per-case seed for `case` under `MASTER_SEED`.
pub fn case_seed(case: u64) -> u64 {
    MASTER_SEED
        .wrapping_add(case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .rotate_left(17)
}

/// Runs `cases` instances of a property. The closure receives the case index
/// and a fresh deterministic [`Gen`]; it returns `Err(description)` to fail
/// the property (or panics directly — both name the case).
///
/// # Panics
///
/// Panics on the first failing case, naming its index and seed.
pub fn run_cases<F>(cases: u64, mut property: F)
where
    F: FnMut(u64, &mut Gen) -> Result<(), String>,
{
    for case in 0..cases {
        let seed = case_seed(case);
        let mut gen = Gen::from_seed(seed);
        if let Err(msg) = property(case, &mut gen) {
            panic!("property failed at case {case} (seed {seed:#x}): {msg}");
        }
    }
}

/// Replays a single case by seed (for debugging a `run_cases` failure).
///
/// # Panics
///
/// Panics if the property fails.
pub fn run_case_with_seed<F>(seed: u64, mut property: F)
where
    F: FnMut(&mut Gen) -> Result<(), String>,
{
    let mut gen = Gen::from_seed(seed);
    if let Err(msg) = property(&mut gen) {
        panic!("property failed (seed {seed:#x}): {msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic() {
        let mut first: Vec<u64> = Vec::new();
        run_cases(8, |_, g| {
            first.push(g.u64());
            Ok(())
        });
        let mut second: Vec<u64> = Vec::new();
        run_cases(8, |_, g| {
            second.push(g.u64());
            Ok(())
        });
        assert_eq!(first, second);
        assert_eq!(first.len(), 8);
    }

    #[test]
    fn range_is_inclusive_and_bounded() {
        run_cases(64, |_, g| {
            let v = g.range(3, 7);
            if (3..=7).contains(&v) {
                Ok(())
            } else {
                Err(format!("{v} out of [3,7]"))
            }
        });
        let mut g = Gen::from_seed(1);
        assert_eq!(g.range(5, 5), 5);
        assert_eq!(g.range(9, 2), 9);
    }

    #[test]
    #[should_panic(expected = "property failed at case 3")]
    fn failure_names_the_case() {
        run_cases(8, |case, _| {
            if case == 3 {
                Err("intentional".into())
            } else {
                Ok(())
            }
        });
    }

    #[test]
    fn choose_covers_all_items() {
        let items = [1u32, 2, 3];
        let mut seen = [false; 3];
        let mut g = Gen::from_seed(2);
        for _ in 0..64 {
            seen[(*g.choose(&items) - 1) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
