//! # fusion-rng
//!
//! A tiny, deterministic, dependency-free stand-in for the parts of the
//! `rand` crate this workspace uses. The workspace renames this crate to
//! `rand` (see the root `Cargo.toml`), so downstream code keeps the
//! idiomatic `use rand::{Rng, SeedableRng}` imports while building in an
//! environment with no registry access.
//!
//! The generator behind [`rngs::StdRng`] is SplitMix64 — statistically
//! solid for workload generation and property tests, seedable, and
//! trivially reproducible. It is **not** cryptographically secure and is
//! not bit-compatible with upstream `rand`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::ops::Range;

/// Low-level entropy source: everything derives from `next_u64`.
pub trait RngCore {
    /// Produce the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Produce the next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction of a generator from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Build a generator whose entire stream is determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly from a half-open `Range`.
pub trait SampleUniform: Copy {
    /// Sample uniformly from `range` (asserts `start < end`).
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "gen_range called with empty range");
                let span = (range.end as i128 - range.start as i128) as u128;
                let offset = (rng.next_u64() as u128) % span;
                (range.start as i128 + offset as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Types producible from the "standard" distribution (`Rng::gen`).
pub trait Standard: Sized {
    /// Sample one value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

/// The user-facing sampling interface, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Sample from the standard distribution (e.g. `f64` in `[0, 1)`).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Bernoulli trial: `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        debug_assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability out of range"
        );
        f64::sample_standard(self) < p
    }

    /// Uniform sample from a half-open range.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample_range(self, range)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: SplitMix64.
    ///
    /// Passes BigCrush-level smoke statistics for the uses here (uniform
    /// index selection, Bernoulli trials) and is fully reproducible from
    /// a `u64` seed.
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
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_from_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.gen_range(0usize..1000), b.gen_range(0usize..1000));
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(3i64..17);
            assert!((3..17).contains(&v));
            let u = rng.gen_range(0usize..5);
            assert!(u < 5);
        }
    }

    #[test]
    fn gen_bool_respects_probability_extremes() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert!(!rng.gen_bool(0.0));
            assert!(rng.gen_bool(1.0));
        }
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_000..4_000).contains(&hits), "p=0.3 gave {hits}/10000");
    }

    #[test]
    fn f64_standard_is_unit_interval() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..1_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
