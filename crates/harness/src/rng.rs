//! The workspace's seeded pseudo-random number generator.
//!
//! A xoshiro256++ generator seeded through SplitMix64, with the few helpers
//! the simulators need: uniform `f64` in `[0, 1)`, unbiased integer ranges,
//! Fisher–Yates shuffling, and jumping ahead any number of draws in
//! microseconds ([`StdRng::advance`], [`Jump`]). Everything is deterministic for a given seed
//! and identical on every platform, which is what makes stage caching and
//! parallel execution safe — a job's output depends only on its inputs.
//!
//! The API mirrors the subset of the `rand` crate the workspace used before
//! going dependency-free: [`StdRng`], [`SeedableRng::seed_from_u64`],
//! [`RngExt::random`] and [`RngExt::random_range`].
//!
//! # Examples
//!
//! ```
//! use mapwave_harness::rng::{RngExt, SeedableRng, StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let x: f64 = rng.random();
//! assert!((0.0..1.0).contains(&x));
//! let k = rng.random_range(0..10usize);
//! assert!(k < 10);
//! // Same seed, same stream.
//! let mut other = StdRng::seed_from_u64(7);
//! assert_eq!(other.random::<f64>(), x);
//! ```

use std::ops::Range;

/// SplitMix64 step — used to expand a 64-bit seed into generator state and
/// as a cheap standalone mixer.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Domain constant decoupling named child streams from the plain
/// `seed_from_u64` expansion chain (which starts its SplitMix64 walk at the
/// root seed itself).
const STREAM_DOMAIN: u64 = 0x5157_4E4F_4D41_5053; // "SPAMONWQ" — arbitrary tag

/// Derives the seed of a named child stream from a root seed.
///
/// The derivation folds the stream name byte-by-byte through SplitMix64
/// starting from `root ^ STREAM_DOMAIN`, so:
///
/// * the same `(root, name)` pair always yields the same child seed;
/// * different names yield statistically independent seeds;
/// * no child seed collides with the root's own `seed_from_u64` expansion
///   (which walks SplitMix64 from `root`, not `root ^ domain`).
///
/// This is how subsystems obtain private randomness (e.g. a fault schedule)
/// without consuming — or even touching — the workload generator's stream.
///
/// # Examples
///
/// ```
/// use mapwave_harness::rng::stream_seed;
///
/// let a = stream_seed(42, "faults");
/// assert_eq!(a, stream_seed(42, "faults"));
/// assert_ne!(a, stream_seed(42, "workload"));
/// assert_ne!(a, stream_seed(43, "faults"));
/// ```
pub fn stream_seed(root: u64, name: &str) -> u64 {
    let mut state = root ^ STREAM_DOMAIN;
    let mut acc = splitmix64(&mut state);
    for &b in name.as_bytes() {
        state ^= u64::from(b);
        acc ^= splitmix64(&mut state);
    }
    // Mix the name length in so "ab"+"c" and "a"+"bc" style prefix games
    // cannot collide trivially.
    state ^= name.len() as u64;
    acc ^ splitmix64(&mut state)
}

/// A generator constructible from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from `seed`; equal seeds give equal streams.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The raw 64-bit output interface.
pub trait RngCore {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

/// The workspace's standard generator: xoshiro256++.
///
/// Small (32 bytes of state), fast, and with a 2^256 − 1 period — far more
/// than any simulation here consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

/// Compatibility alias module mirroring `rand::rngs`.
pub mod rngs {
    pub use super::StdRng;
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        // SplitMix64 expansion guarantees a nonzero state for every seed.
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        StdRng { s }
    }
}

impl StdRng {
    /// A named child stream rooted at `root` — see [`stream_seed`].
    ///
    /// Drawing from the returned generator never advances any generator
    /// seeded with `seed_from_u64(root)`: the two are independent objects
    /// with unrelated state.
    pub fn stream(root: u64, name: &str) -> Self {
        StdRng::seed_from_u64(stream_seed(root, name))
    }

    /// The generator with raw xoshiro256++ state words `s`, for kernels
    /// that step several generators side by side (see [`StdRng::state`]).
    ///
    /// # Panics
    ///
    /// Panics if every word is zero: that state is a fixed point.
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s != [0; 4], "the all-zero state never leaves zero");
        StdRng { s }
    }

    /// The raw xoshiro256++ state words.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Skips `draws` outputs: afterwards the generator is where `draws`
    /// calls of [`RngCore::next_u64`] would have left it.
    ///
    /// Costs one [`Jump::new`] and one [`StdRng::jump`]: tens of
    /// microseconds, growing with the bit length of `draws`, not with
    /// `draws`.
    ///
    /// ```
    /// use mapwave_harness::rng::{RngCore, SeedableRng, StdRng};
    ///
    /// let mut stepped = StdRng::seed_from_u64(5);
    /// for _ in 0..1000 {
    ///     stepped.next_u64();
    /// }
    /// let mut jumped = StdRng::seed_from_u64(5);
    /// jumped.advance(1000);
    /// assert_eq!(jumped, stepped);
    /// ```
    pub fn advance(&mut self, draws: u64) {
        self.jump(&Jump::new(draws));
    }

    /// Applies a precomputed jump: the state becomes `Σ jᵢ·Tⁱ(state)`,
    /// where `T` is one generator step and `jᵢ` the coefficients of the
    /// jump polynomial, accumulated over 256 steps of a copy.
    pub fn jump(&mut self, jump: &Jump) {
        let mut acc = [0u64; 4];
        let mut walker = self.clone();
        for word in jump.0 {
            for bit in 0..64 {
                if word >> bit & 1 == 1 {
                    for (a, s) in acc.iter_mut().zip(walker.s) {
                        *a ^= s;
                    }
                }
                walker.next_u64();
            }
        }
        self.s = acc;
    }
}

/// The characteristic polynomial of the xoshiro256++ state transition
/// over GF(2), without its leading `x^256` term: bit `i` of word `i / 64`
/// is the coefficient of `x^i`. The tests re-derive it by
/// Berlekamp–Massey.
const CHAR_POLY: [u64; 4] = [
    0x9d11_6f2b_b0f0_f001,
    0x0280_002b_cefd_1a5e,
    0x04b4_edcf_2625_9f85,
    0x0003_c03c_3f3e_cb19,
];

/// A jump of a fixed number of draws, computed once and applied to any
/// number of generators with [`StdRng::jump`].
///
/// The state transition `T` is linear over GF(2) and, by Cayley–Hamilton,
/// satisfies its characteristic polynomial `p`, so `T^d = (x^d mod p)(T)`:
/// a jump is the degree-below-256 polynomial `x^d mod p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Jump([u64; 4]);

impl Jump {
    /// The jump of `draws` outputs: `x^draws mod p` by square-and-multiply
    /// over the bits of `draws`.
    pub fn new(draws: u64) -> Self {
        let mut r = [1, 0, 0, 0];
        for bit in (0..u64::BITS - draws.leading_zeros()).rev() {
            r = poly_mul_mod(&r, &r);
            if draws >> bit & 1 == 1 {
                r = poly_times_x(r);
            }
        }
        Jump(r)
    }
}

/// `a · x mod p`.
fn poly_times_x(a: [u64; 4]) -> [u64; 4] {
    let carry = a[3] >> 63;
    let mut r = [
        a[0] << 1,
        a[1] << 1 | a[0] >> 63,
        a[2] << 1 | a[1] >> 63,
        a[3] << 1 | a[2] >> 63,
    ];
    if carry == 1 {
        for (w, p) in r.iter_mut().zip(CHAR_POLY) {
            *w ^= p;
        }
    }
    r
}

/// `a · b mod p` by Horner's rule over the bits of `b`, highest first.
fn poly_mul_mod(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let mut acc = [0u64; 4];
    for bit in (0..256).rev() {
        acc = poly_times_x(acc);
        if b[bit / 64] >> (bit % 64) & 1 == 1 {
            for (w, x) in acc.iter_mut().zip(a) {
                *w ^= x;
            }
        }
    }
    acc
}

impl RngCore for StdRng {
    #[inline]
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

/// Types samplable uniformly from a generator's raw bits.
pub trait Sample {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Sample for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Sample for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Sample for u64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Sample for u32 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Sample for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

/// Integer types usable with [`RngExt::random_range`].
pub trait UniformInt: Copy {
    /// Widens to the sampling domain.
    fn to_u64(self) -> u64;
    /// Narrows back after sampling (value is guaranteed in range).
    fn from_u64(v: u64) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            #[inline]
            fn to_u64(self) -> u64 {
                self as u64
            }
            #[inline]
            fn from_u64(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}

impl_uniform_int!(usize, u64, u32, u16, u8, i64, i32);

/// Unbiased `[0, n)` via Lemire's multiply–shift with rejection.
#[inline]
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    let threshold = n.wrapping_neg() % n;
    loop {
        let m = u128::from(rng.next_u64()) * u128::from(n);
        if m as u64 >= threshold {
            return (m >> 64) as u64;
        }
    }
}

/// Convenience sampling methods, implemented for every [`RngCore`].
pub trait RngExt: RngCore {
    /// A uniformly sampled value of `T`.
    #[inline]
    fn random<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform integer in `range` (half-open, unbiased).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    fn random_range<T: UniformInt>(&mut self, range: Range<T>) -> T {
        let (lo, hi) = (range.start.to_u64(), range.end.to_u64());
        assert!(lo < hi, "random_range requires a non-empty range");
        T::from_u64(lo + uniform_below(self, hi - lo))
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = uniform_below(self, i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

impl<R: RngCore + ?Sized> RngExt for R {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_centered() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.random::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_respects_bounds_and_hits_all() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let k = rng.random_range(0..7usize);
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..1_000 {
            let k = rng.random_range(5..6u32);
            assert_eq!(k, 5);
        }
    }

    #[test]
    #[should_panic]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = rng.random_range(3..3usize);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut xs: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            xs, sorted,
            "50 elements virtually never shuffle to identity"
        );
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_ne!(rng.next_u64(), 0);
        assert_ne!(rng.s, [0; 4]);
    }

    #[test]
    fn advance_matches_sequential_draws() {
        for d in [0u64, 1, 2, 255, 256, 257, 3_000_000] {
            let mut stepped = StdRng::seed_from_u64(17);
            for _ in 0..d {
                stepped.next_u64();
            }
            let mut jumped = StdRng::seed_from_u64(17);
            jumped.advance(d);
            assert_eq!(jumped, stepped, "advance({d})");
        }
    }

    #[test]
    fn advances_compose() {
        for (a, b) in [(0u64, 5u64), (1, 1), (300, 9_999), (1 << 40, 12_345)] {
            let mut twice = StdRng::seed_from_u64(23);
            twice.advance(a);
            twice.advance(b);
            let mut once = StdRng::seed_from_u64(23);
            once.advance(a + b);
            assert_eq!(twice, once, "advance({a}) + advance({b})");
        }
    }

    /// The shortest linear recurrence over GF(2) generating `s`, as its
    /// connection polynomial `1 + c₁x + … + c_L x^L` (index = power).
    fn berlekamp_massey(s: &[u8]) -> Vec<u8> {
        let n = s.len();
        let (mut c, mut b) = (vec![0u8; n + 1], vec![0u8; n + 1]);
        c[0] = 1;
        b[0] = 1;
        let (mut l, mut m) = (0usize, 1usize);
        for i in 0..n {
            let d = (1..=l).fold(s[i], |d, j| d ^ (c[j] & s[i - j]));
            if d == 0 {
                m += 1;
                continue;
            }
            let before = c.clone();
            for j in 0..=n - m {
                c[j + m] ^= b[j];
            }
            if 2 * l <= i {
                l = i + 1 - l;
                b = before;
                m = 1;
            } else {
                m += 1;
            }
        }
        c.truncate(l + 1);
        c
    }

    #[test]
    fn char_poly_is_rederived_by_berlekamp_massey() {
        // Any one state bit obeys the characteristic recurrence; 1024 terms
        // exceed the 2·256 that pin a degree-256 recurrence.
        let mut rng = StdRng::seed_from_u64(99);
        let bits: Vec<u8> = (0..1024)
            .map(|_| {
                let bit = (rng.s[0] & 1) as u8;
                rng.next_u64();
                bit
            })
            .collect();
        let c = berlekamp_massey(&bits);
        assert_eq!(c.len(), 257, "a degree-256 recurrence");
        // The characteristic polynomial is the reciprocal x^256·C(1/x).
        for k in 0..256 {
            let expected = (CHAR_POLY[k / 64] >> (k % 64) & 1) as u8;
            assert_eq!(c[256 - k], expected, "coefficient of x^{k}");
        }
    }

    #[test]
    fn state_round_trips() {
        let mut rng = StdRng::seed_from_u64(31);
        rng.next_u64();
        let mut copy = StdRng::from_state(rng.state());
        assert_eq!(copy.next_u64(), rng.next_u64());
    }

    #[test]
    fn stream_seed_is_deterministic_and_name_sensitive() {
        assert_eq!(stream_seed(42, "faults"), stream_seed(42, "faults"));
        assert_ne!(stream_seed(42, "faults"), stream_seed(42, "workload"));
        assert_ne!(stream_seed(42, "faults"), stream_seed(7, "faults"));
        // Prefix/suffix games don't trivially collide.
        assert_ne!(stream_seed(42, "ab"), stream_seed(42, "a"));
        assert_ne!(stream_seed(42, ""), stream_seed(42, "a"));
    }

    #[test]
    fn stream_is_independent_of_root_stream() {
        // The child stream's state differs from the root generator's, and
        // drawing from the child does not perturb the root: seeding the
        // root again afterwards reproduces the exact same sequence.
        let mut root = StdRng::seed_from_u64(42);
        let before: Vec<u64> = (0..32).map(|_| root.next_u64()).collect();

        let mut child = StdRng::stream(42, "faults");
        let child_vals: Vec<u64> = (0..32).map(|_| child.next_u64()).collect();

        let mut root_again = StdRng::seed_from_u64(42);
        let after: Vec<u64> = (0..32).map(|_| root_again.next_u64()).collect();
        assert_eq!(before, after, "drawing a fault stream perturbed the root");
        assert_ne!(before, child_vals, "child stream must not alias the root");
        // And the child seed is not the root seed itself.
        assert_ne!(stream_seed(42, "faults"), 42);
    }
}
