//! Offline shim for the [`rand`](https://docs.rs/rand/0.8) crate (0.8 API).
//!
//! The build environment has no crates.io access, so the workspace vendors a
//! minimal reimplementation of what strato uses: seedable [`rngs::StdRng`],
//! [`Rng::gen_range`] over integer ranges, [`Rng::gen_bool`], and
//! [`seq::SliceRandom::choose`]. The generator is SplitMix64 — statistically
//! solid for data generation and fully deterministic for a given seed, which
//! is all the workloads and tests require (they never assume the exact
//! stream of the upstream `StdRng`).

#![forbid(unsafe_code)]

/// Core trait of random number generators: a source of `u64`s.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// User-facing extension methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value uniformly from `range` (half-open or inclusive).
    ///
    /// Mirrors rand 0.8's signature so the element type is inferred from
    /// the use site, letting untyped integer literals in the range adopt it.
    fn gen_range<T: SampleUniform, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        // 53 high bits → uniform f64 in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

impl<T: RngCore> Rng for T {}

/// Construction of reproducible generators from seeds.
pub trait SeedableRng: Sized {
    /// Creates a generator deterministically derived from `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types [`Rng::gen_range`] can sample uniformly.
pub trait SampleUniform: Copy {
    /// Converts to wide arithmetic for span computation.
    fn to_i128(self) -> i128;
    /// Converts back after sampling.
    fn from_i128(v: i128) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn to_i128(self) -> i128 {
                self as i128
            }
            fn from_i128(v: i128) -> Self {
                v as $t
            }
        }
    )*};
}

impl_sample_uniform!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

/// A range that [`Rng::gen_range`] can sample a `T` from.
pub trait SampleRange<T> {
    /// Draws one uniform sample.
    fn sample<R: RngCore>(self, rng: &mut R) -> T;
}

fn sample_inclusive<T: SampleUniform, R: RngCore>(rng: &mut R, lo: T, hi: T) -> T {
    let (lo, hi) = (lo.to_i128(), hi.to_i128());
    let span = (hi - lo + 1) as u128;
    let off = (rng.next_u64() as u128) % span;
    T::from_i128(lo + off as i128)
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample<R: RngCore>(self, rng: &mut R) -> T {
        assert!(
            self.start.to_i128() < self.end.to_i128(),
            "gen_range on empty range"
        );
        sample_inclusive(rng, self.start, T::from_i128(self.end.to_i128() - 1))
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample<R: RngCore>(self, rng: &mut R) -> T {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo.to_i128() <= hi.to_i128(), "gen_range on empty range");
        sample_inclusive(rng, lo, hi)
    }
}

/// Concrete generator types.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The standard deterministic generator of the shim (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            // SplitMix64 (Steele, Lea & Flood 2014).
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }
}

/// Sequence-related random operations.
pub mod seq {
    use super::RngCore;

    /// Extension trait for random operations on slices.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Returns a uniformly chosen element, or `None` if empty.
        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                let i = (rng.next_u64() as u128 % self.len() as u128) as usize;
                self.get(i)
            }
        }
    }
}

/// The customary glob-import module mirroring `rand::prelude`.
pub mod prelude {
    pub use crate::rngs::StdRng;
    pub use crate::seq::SliceRandom;
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&v));
            let w = rng.gen_range(1..=28u32);
            assert!((1..=28).contains(&w));
            let u = rng.gen_range(0..3usize);
            assert!(u < 3);
        }
    }

    #[test]
    fn gen_range_covers_the_domain() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 10];
        for _ in 0..500 {
            seen[rng.gen_range(0..10usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn choose_is_uniformish_and_total() {
        let mut rng = StdRng::seed_from_u64(9);
        let empty: [u8; 0] = [];
        assert_eq!(empty.choose(&mut rng), None);
        let pool = [1, 2, 3];
        for _ in 0..100 {
            assert!(pool.contains(pool.choose(&mut rng).unwrap()));
        }
    }
}
