//! Offline stand-in for `rand` 0.8: the subset of the API that `crates/*`
//! call (`Rng::{gen, gen_range, gen_bool}`, `SeedableRng::seed_from_u64`,
//! `SliceRandom::shuffle`). The value streams differ from the published
//! crate's, so numbers taken with it compare ledger-to-ledger only.

use std::ops::{Range, RangeInclusive};

/// Source of random bits.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// A generator that can be built from a 64-bit seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// Types `Rng::gen_range` can produce. One blanket `SampleRange` impl per
/// range shape over this trait (the published crate's structure) is what
/// lets an untyped literal range take its type from where the value is used.
pub trait SampleUniform: Sized + PartialOrd {
    fn sample_between<R: RngCore + ?Sized>(
        lo: Self,
        hi: Self,
        inclusive: bool,
        rng: &mut R,
    ) -> Self;
}

/// Ranges `Rng::gen_range` can sample from.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range: empty range");
        T::sample_between(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "gen_range: empty range");
        T::sample_between(lo, hi, true, rng)
    }
}

/// Uniform `[0, 1)` with 53 bits.
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Uniform in `[0, n)` by multiply-shift; `n == 0` means the full range.
fn below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    if n == 0 {
        return rng.next_u64();
    }
    ((rng.next_u64() as u128 * n as u128) >> 64) as u64
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                lo: Self,
                hi: Self,
                inclusive: bool,
                rng: &mut R,
            ) -> Self {
                let span = (hi as i128 - lo as i128 + inclusive as i128) as u64;
                (lo as i128 + below(rng, span) as i128) as $t
            }
        }
    )*};
}
int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_impls {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                unit_f64(rng) as $t
            }
        }
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                lo: Self,
                hi: Self,
                inclusive: bool,
                rng: &mut R,
            ) -> Self {
                let v = (lo as f64 + unit_f64(rng) * (hi as f64 - lo as f64)) as $t;
                // Rounding to the narrower type may land on an excluded end.
                if inclusive || v < hi { v } else { lo }
            }
        }
    )*};
}
float_impls!(f32, f64);

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

/// User-facing sampling methods, implemented for every `RngCore`.
pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p outside [0, 1]");
        unit_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod seq {
    use super::{below, RngCore};

    /// Slice shuffling and choice.
    pub trait SliceRandom {
        type Item;
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, below(rng, i as u64 + 1) as usize);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[below(rng, self.len() as u64) as usize])
            }
        }
    }
}

pub mod prelude {
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}
