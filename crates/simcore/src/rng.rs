//! Deterministic random number generation with named streams.
//!
//! Simulations need randomness that is (a) fast, (b) bit-reproducible across
//! runs and platforms, and (c) *partitionable*: the arrival process must not
//! change because somebody added a new consumer of random numbers elsewhere.
//!
//! [`Rng`] is a self-contained xoshiro256++ generator. [`RngFactory`] derives
//! independent [`Rng`] streams from a master seed and a stream label, using
//! SplitMix64 over an FNV-1a hash of the label, so `factory.stream("x")` is a
//! pure function of `(seed, "x")`.

/// A xoshiro256++ pseudo-random generator.
///
/// This is the public-domain generator of Blackman & Vigna; it has a period
/// of 2^256 − 1 and passes BigCrush. It is implemented here (rather than
/// taken from the `rand` crate) so that the simulation's reproducibility does
/// not depend on the stability guarantees of an external crate's stream.
///
/// ```
/// use simcore::Rng;
/// let mut a = Rng::seed_from(7);
/// let mut b = Rng::seed_from(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator whose state is expanded from `seed` via SplitMix64.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // An all-zero state would be a fixed point; SplitMix64 cannot produce
        // four zeros from any seed, but guard anyway.
        if s == [0; 4] {
            s[0] = 0x1;
        }
        Rng { s }
    }

    /// The next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
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

    /// A uniform float in the half-open interval `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform float in the open interval `(0, 1)`, safe for `ln()`.
    #[inline]
    pub fn next_f64_open(&mut self) -> f64 {
        loop {
            let x = self.next_f64();
            if x > 0.0 {
                return x;
            }
        }
    }

    /// A uniform integer in `[0, bound)` using Lemire's rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Widening-multiply rejection sampling (unbiased).
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range [{lo}, {hi}]");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(hi - lo + 1)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Picks a uniformly random element of `slice`, or `None` if it is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.next_below(slice.len() as u64) as usize])
        }
    }

    /// Fisher–Yates shuffles `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Forks an independent child generator.
    ///
    /// The child's stream is a function of the parent's current state; the
    /// parent advances by one draw.
    pub fn fork(&mut self) -> Rng {
        Rng::seed_from(self.next_u64())
    }

    /// Deterministically perturbs the generator's state with `salt`.
    ///
    /// The new state is a function of *both* the current state and the salt,
    /// so branching a snapshot with two different salts yields two streams
    /// that diverge immediately, while the same salt applied to the same
    /// state always lands on the same stream.
    pub fn perturb(&mut self, salt: u64) {
        let mut sm = salt;
        for word in &mut self.s {
            *word ^= splitmix64(&mut sm);
        }
        if self.s == [0; 4] {
            // The XOR happened to cancel everything out; refill from the
            // salt stream so we never sit on the xoshiro fixed point.
            for word in &mut self.s {
                *word = splitmix64(&mut sm);
            }
            self.s[3] |= 1;
        }
    }
}

/// Derives independent, reproducible [`Rng`] streams by name.
///
/// ```
/// use simcore::RngFactory;
/// let f = RngFactory::new(1234);
/// let mut arrivals = f.stream("arrivals");
/// let mut service = f.stream("service");
/// // Streams are independent of each other and stable across runs.
/// assert_ne!(arrivals.next_u64(), service.next_u64());
/// assert_eq!(f.stream("arrivals").next_u64(), RngFactory::new(1234).stream("arrivals").next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngFactory {
    seed: u64,
}

impl RngFactory {
    /// Creates a factory rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        RngFactory { seed }
    }

    /// The master seed this factory was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Returns the named stream: a pure function of `(seed, label)`.
    pub fn stream(&self, label: &str) -> Rng {
        // FNV-1a over the label, mixed with the master seed via SplitMix64.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut sm = self.seed ^ h;
        let mixed = splitmix64(&mut sm) ^ splitmix64(&mut sm);
        Rng::seed_from(mixed)
    }

    /// Returns a numbered sub-stream, e.g. one per simulated client.
    pub fn substream(&self, label: &str, index: u64) -> Rng {
        let mut base = self.stream(label);
        // Jump `index` times through fresh seeds rather than sharing a state.
        let mut sm = base.next_u64() ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Rng::seed_from(splitmix64(&mut sm))
    }
}

use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};

impl Snap for Rng {
    fn save(&self, w: &mut SnapWriter) {
        let Self { s } = self;
        for word in s {
            w.u64(*word);
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = r.u64()?;
        }
        if s == [0; 4] {
            return Err(SnapError::Corrupt(
                "rng state is all zeros (a xoshiro fixed point)".into(),
            ));
        }
        Ok(Rng { s })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from(99);
        let mut b = Rng::seed_from(99);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut r = Rng::seed_from(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
        }
    }

    #[test]
    fn f64_mean_is_about_half() {
        let mut r = Rng::seed_from(4);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn next_below_is_in_bounds_and_roughly_uniform() {
        let mut r = Rng::seed_from(5);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[r.next_below(7) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (8_000..12_000).contains(&c),
                "bucket count {c} far from 10k"
            );
        }
    }

    #[test]
    fn next_range_is_inclusive() {
        let mut r = Rng::seed_from(6);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let x = r.next_range(10, 12);
            assert!((10..=12).contains(&x));
            saw_lo |= x == 10;
            saw_hi |= x == 12;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        Rng::seed_from(0).next_below(0);
    }

    #[test]
    fn chance_matches_probability() {
        let mut r = Rng::seed_from(7);
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        assert!((28_000..32_000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn choose_and_shuffle() {
        let mut r = Rng::seed_from(8);
        assert_eq!(r.choose::<u8>(&[]), None);
        let items = [1, 2, 3];
        assert!(items.contains(r.choose(&items).unwrap()));
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "a 100-element shuffle staying sorted is ~impossible"
        );
    }

    #[test]
    fn factory_streams_are_stable_and_independent() {
        let f = RngFactory::new(42);
        let a1: Vec<u64> = {
            let mut s = f.stream("alpha");
            (0..8).map(|_| s.next_u64()).collect()
        };
        let a2: Vec<u64> = {
            let mut s = RngFactory::new(42).stream("alpha");
            (0..8).map(|_| s.next_u64()).collect()
        };
        assert_eq!(a1, a2);
        let b: Vec<u64> = {
            let mut s = f.stream("beta");
            (0..8).map(|_| s.next_u64()).collect()
        };
        assert_ne!(a1, b);
    }

    #[test]
    fn substreams_differ_by_index() {
        let f = RngFactory::new(9);
        let x = f.substream("client", 0).next_u64();
        let y = f.substream("client", 1).next_u64();
        assert_ne!(x, y);
        assert_eq!(x, f.substream("client", 0).next_u64());
    }

    #[test]
    fn fork_diverges_from_parent() {
        let mut parent = Rng::seed_from(11);
        let mut child = parent.fork();
        let same = (0..32)
            .filter(|_| parent.next_u64() == child.next_u64())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn perturb_is_deterministic_and_salt_sensitive() {
        let base = {
            let mut r = Rng::seed_from(77);
            for _ in 0..50 {
                r.next_u64();
            }
            r
        };
        let mut a = base.clone();
        let mut b = base.clone();
        a.perturb(0xDEAD_BEEF);
        b.perturb(0xDEAD_BEEF);
        assert_eq!(a, b, "same state + same salt must agree");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }

        let mut c = base.clone();
        let mut d = base.clone();
        c.perturb(1);
        d.perturb(2);
        let same = (0..64).filter(|_| c.next_u64() == d.next_u64()).count();
        assert_eq!(same, 0, "different salts must diverge");

        let mut e = base.clone();
        e.perturb(3);
        let mut untouched = base.clone();
        let same = (0..64)
            .filter(|_| e.next_u64() == untouched.next_u64())
            .count();
        assert_eq!(same, 0, "perturbed stream must leave the original");
    }

    #[test]
    fn snapshot_resumes_the_exact_stream() {
        let mut rng = Rng::seed_from(4242);
        for _ in 0..100 {
            rng.next_u64(); // advance to mid-stream
        }
        let mut w = SnapWriter::new();
        rng.save(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        let mut restored = Rng::load(&mut r).unwrap();
        for _ in 0..100 {
            assert_eq!(restored.next_u64(), rng.next_u64());
        }
    }
}
