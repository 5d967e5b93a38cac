//! Stand-in for the part of `rand` 0.8 this repository uses, so the
//! benchmark builds without a registry. `StdRng` here is xoshiro256++
//! seeded through SplitMix64: deterministic in the seed, but a different
//! stream from the real `StdRng` (ChaCha12), so seeded topologies and
//! perturbations differ from a registry build. The benchmark's own
//! inputs (schedules, flows) use the repository's SplitMix64 chains and
//! do not pass through this file.

use std::ops::{Range, RangeInclusive};

/// The raw word source every generator implements.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Uniform `f64` in `[0, 1)` from the top 53 bits of a word.
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    /// Draw one value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        unit_f64(rng.next_u64())
    }
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

/// Types `Rng::gen_range` can draw. One generic [`SampleRange`] impl per
/// range shape sits on top of this, as in `rand`, so an integer literal
/// range infers its type from how the result is used.
pub trait SampleUniform: Sized + PartialOrd {
    /// Uniform in `[lo, hi)`; the caller has checked `lo < hi`.
    fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;

    /// Uniform in `[lo, hi]`; the caller has checked `lo <= hi`.
    fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

/// Uniform integer in `[0, span)` by widening multiply (span > 0).
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! uniform_ints {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                let span = (hi as i128 - lo as i128) as u64;
                (lo as i128 + below(rng, span) as i128) as $t
            }

            fn sample_inclusive<R: RngCore + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + below(rng, span as u64) as i128) as $t
            }
        }
    )*};
}
uniform_ints!(u8, u16, u32, u64, usize, i32, i64);

impl SampleUniform for f64 {
    fn sample_half_open<R: RngCore + ?Sized>(lo: f64, hi: f64, rng: &mut R) -> f64 {
        let v = lo + (hi - lo) * unit_f64(rng.next_u64());
        // Rounding can land exactly on the excluded end.
        if v < hi {
            v
        } else {
            lo
        }
    }

    fn sample_inclusive<R: RngCore + ?Sized>(lo: f64, hi: f64, rng: &mut R) -> f64 {
        lo + (hi - lo) * unit_f64(rng.next_u64())
    }
}

/// Ranges `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    /// Draw one value from the range.
    ///
    /// # Panics
    /// Panics on an empty range, like `rand`.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        T::sample_inclusive(lo, hi, rng)
    }
}

/// The user-facing sampling methods, blanket-implemented.
pub trait Rng: RngCore {
    /// Uniform value from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// A value of a [`Standard`] type.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 <= p <= 1`, like `rand`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "p={p} is outside range [0.0, 1.0]"
        );
        unit_f64(self.next_u64()) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generators constructible from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Expand `seed` into the generator's full state.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The named generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ (see the crate docs for how it differs from `rand`).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            let mut state = seed;
            let mut s = [0u64; 4];
            for word in &mut s {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                *word = z ^ (z >> 31);
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// Slice sampling helpers.
pub mod seq {
    use super::{below, RngCore};

    /// `choose` and `shuffle` on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// A uniformly chosen element, `None` on an empty slice.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[below(rng, self.len() as u64) as usize])
            }
        }

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, below(rng, i as u64 + 1) as usize);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn seeded_streams_repeat_and_ranges_hold() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: u32 = a.gen_range(3..9);
            assert_eq!(x, b.gen_range(3..9));
            assert!((3..9).contains(&x));
            let f = a.gen_range(0.5f64..2.0);
            assert_eq!(f.to_bits(), b.gen_range(0.5f64..2.0).to_bits());
            assert!((0.5..2.0).contains(&f));
            assert!((1..=4usize).contains(&a.gen_range(1..=4usize)));
            b.gen_range(1..=4usize);
        }
        assert_ne!(
            StdRng::seed_from_u64(1).gen::<u64>(),
            StdRng::seed_from_u64(2).gen::<u64>()
        );
    }

    #[test]
    fn shuffle_permutes_and_choose_stays_inside() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert!(v.choose(&mut rng).is_some());
        assert!(Vec::<u32>::new().choose(&mut rng).is_none());
    }
}
