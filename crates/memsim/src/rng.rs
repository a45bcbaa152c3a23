//! A tiny deterministic PRNG for workload generation.
//!
//! The workload generators need reproducible pseudo-random access streams
//! (the determinism tests and `repro`'s parallel fan-out depend on it), not
//! cryptographic quality. SplitMix64 (Steele et al., "Fast splittable
//! pseudorandom number generators", OOPSLA '14) is the standard seeding
//! primitive: one 64-bit state word, passes BigCrush, and is trivially
//! portable — which keeps the workspace free of external crate
//! dependencies so it builds offline.

use std::ops::Range;

/// A seedable SplitMix64 generator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a 64-bit seed. Equal seeds yield equal
    /// streams.
    pub fn seed_from_u64(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform value in `[range.start, range.end)`.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    #[inline]
    pub fn gen_range(&mut self, range: Range<u64>) -> u64 {
        let span = range
            .end
            .checked_sub(range.start)
            .expect("descending range");
        assert!(span > 0, "empty range");
        // Multiply-shift mapping (Lemire); the bias over a 64-bit draw is
        // far below anything a cycle model can observe.
        let hi = ((self.next_u64() as u128 * span as u128) >> 64) as u64;
        range.start + hi
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_equal_streams() {
        let mut a = SplitMix64::seed_from_u64(42);
        let mut b = SplitMix64::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn known_answer_guards_the_algorithm() {
        // Reference values for SplitMix64 with seed 1234567.
        let mut rng = SplitMix64::seed_from_u64(1234567);
        assert_eq!(rng.next_u64(), 0x599e_d017_fb08_fc85);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = SplitMix64::seed_from_u64(7);
        let mut seen_low = false;
        for _ in 0..2000 {
            let v = rng.gen_range(10..18);
            assert!((10..18).contains(&v));
            seen_low |= v == 10;
        }
        assert!(seen_low, "range endpoints must be reachable");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SplitMix64::seed_from_u64(99);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "≈25% expected, got {hits}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn gen_f64_is_unit_interval() {
        let mut rng = SplitMix64::seed_from_u64(3);
        for _ in 0..1000 {
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
