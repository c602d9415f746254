//! Minimal, dependency-free stand-in for the `rand` crate.
//!
//! The build environment has no network access and no vendored registry, so
//! this workspace ships the subset of the `rand` 0.8 API the repository
//! actually uses: [`Rng`] (`gen`, `gen_range`, `gen_bool`), [`SeedableRng`]
//! (`seed_from_u64`), [`rngs::StdRng`], and [`seq::SliceRandom`] (`shuffle`,
//! `choose`). The generator is xoshiro256** seeded through SplitMix64 —
//! deterministic for a given seed, which is all the seeded benchmarks and
//! property tests require. Stream values differ from upstream `rand`; no
//! test in this workspace depends on upstream streams.

/// A source of random 64-bit words.
pub trait RngCore {
    /// The next word of the stream.
    fn next_u64(&mut self) -> u64;

    /// The next 32-bit word (upper half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types samplable from the "standard" distribution (`rng.gen()`).
pub trait Standard: Sized {
    /// Draws one value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
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

/// Integer/float types usable as `gen_range` endpoints.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `[low, high)`; `high > low` is the caller's burden.
    fn sample_below<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
    /// Uniform draw from `[low, high]`.
    fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            // Both endpoints widen to 64 bits (sign-extending for signed
            // types), so `high - low` taken mod 2^64 is the exact span of
            // any range of a type at most 64 bits wide.
            fn sample_below<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                debug_assert!(low < high, "gen_range called with an empty range");
                let span = (high as u64).wrapping_sub(low as u64);
                low.wrapping_add((rng.next_u64() % span) as $t)
            }
            fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                let x = rng.next_u64();
                // A span of 2^64 (the full 64-bit range) keeps every draw.
                let offset = match (high as u64).wrapping_sub(low as u64).checked_add(1) {
                    Some(span) => x % span,
                    None => x,
                };
                low.wrapping_add(offset as $t)
            }
        }
    )*};
}

impl_sample_uniform_int!(usize, u8, u16, u32, u64, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_below<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
        low + f64::sample_standard(rng) * (high - low)
    }
    fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
        Self::sample_below(low, high, rng)
    }
}

/// Ranges accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_below(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(*self.start(), *self.end(), rng)
    }
}

/// The user-facing sampling interface, blanket-implemented for every
/// [`RngCore`] (including `&mut R`).
pub trait Rng: RngCore {
    /// A value from the standard distribution (`f64` in `[0,1)`, fair `bool`).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// A uniform value from `range` (`a..b` or `a..=b`).
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Deterministic construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from `seed` (SplitMix64-expanded).
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256** with SplitMix64
    /// seeding. Small, fast, and reproducible; not cryptographic.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut state = seed;
            let mut s = [0u64; 4];
            for word in &mut s {
                *word = splitmix64(&mut state);
            }
            // All-zero state is the one forbidden xoshiro fixpoint.
            if s == [0, 0, 0, 0] {
                s[0] = 0x9e3779b97f4a7c15;
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

pub mod seq {
    //! Sequence-related helpers.

    use super::Rng;

    /// Random operations on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        /// A uniformly random element, `None` on an empty slice.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get(rng.gen_range(0..self.len()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn seeding_is_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let xs: Vec<u64> = (0..16).map(|_| a.gen::<u64>()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.gen::<u64>()).collect();
        assert_eq!(xs, ys);
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(xs[0], c.gen::<u64>());
    }

    #[test]
    fn f64_standard_is_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let v = rng.gen_range(0..5usize);
            assert!(v < 5);
            seen[v] = true;
            let w = rng.gen_range(1..=3i32);
            assert!((1..=3).contains(&w));
        }
        assert!(seen.iter().all(|&s| s), "all values of 0..5 appear");
    }

    /// Replays a fixed list of words, then repeats it.
    struct Words(Vec<u64>, usize);

    impl RngCore for Words {
        fn next_u64(&mut self) -> u64 {
            let w = self.0[self.1 % self.0.len()];
            self.1 += 1;
            w
        }
    }

    #[test]
    fn gen_range_matches_the_128_bit_formula() {
        let mut words = vec![
            0,
            1,
            2,
            63,
            64,
            u64::MAX,
            u64::MAX - 1,
            1 << 63,
            (1 << 63) - 1,
        ];
        let mut rng = StdRng::seed_from_u64(5);
        words.extend((0..64).map(|_| rng.gen::<u64>()));
        let count = words.len();
        let mut src = Words(words, 0);
        // The formulas `gen_range` used before it stayed in 64 bits.
        macro_rules! check {
            ($t:ty, $($lo:expr, $hi:expr);+) => {$(
                for _ in 0..count {
                    let (lo, hi): ($t, $t) = ($lo, $hi);
                    let x = src.0[src.1 % count];
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    let want = lo.wrapping_add((x as u128 % span) as $t);
                    assert_eq!(src.gen_range(lo..=hi), want, "{lo}..={hi}, word {x}");
                    if lo < hi {
                        let x = src.0[src.1 % count];
                        let span = (hi as i128 - lo as i128) as u128;
                        let want = lo.wrapping_add((x as u128 % span) as $t);
                        assert_eq!(src.gen_range(lo..hi), want, "{lo}..{hi}, word {x}");
                    }
                }
            )+};
        }
        check!(u64, 0, u64::MAX; 1, u64::MAX; 0, u64::MAX - 1; 5, 9; 0, 0);
        check!(i64, i64::MIN, i64::MAX; i64::MIN + 1, i64::MAX; -3, 3; i64::MIN, 0; -1, -1);
        check!(usize, 0, usize::MAX; 0, 100);
        check!(isize, isize::MIN, isize::MAX);
        check!(u32, 0, u32::MAX; 7, 70);
        check!(i32, i32::MIN, i32::MAX; -5, 5);
        check!(u8, 0, u8::MAX);
        check!(i8, i8::MIN, i8::MAX; -128, -1);
        check!(u16, 0, u16::MAX);
        check!(i16, i16::MIN, 0);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits} of 10000");
    }

    #[test]
    fn shuffle_is_a_permutation_and_choose_hits_every_element() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut v: Vec<usize> = (0..20).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        let opts = [1, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[*opts.choose(&mut rng).unwrap() - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }

    #[test]
    fn works_through_unsized_and_mut_ref_receivers() {
        fn sample<R: Rng + ?Sized>(rng: &mut R) -> usize {
            rng.gen_range(0..10)
        }
        let mut rng = StdRng::seed_from_u64(5);
        assert!(sample(&mut rng) < 10);
        // The `&mut R` reborrow path used by generators::waxman and friends.
        let r = &mut rng;
        assert!(sample(r) < 10);
        let x: f64 = r.gen();
        assert!(x < 1.0);
    }
}
