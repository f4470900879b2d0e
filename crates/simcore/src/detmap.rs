//! Deterministically seeded hash maps for simulation state.
//!
//! `std`'s default `HashMap` hasher draws a random seed per instance. The
//! *contents* of a map stay deterministic regardless, but its **capacity**
//! does not: under insert/remove churn, hashbrown's decision to rehash in
//! place versus grow depends on where tombstones landed, i.e. on the hash
//! values themselves. Any footprint accounting built on `capacity()` then
//! varies run to run. Simulation structures that report their own memory
//! (the load generator's wake buckets, the tracer's in-flight index) use
//! this fixed-seed hasher instead, making footprints — and everything
//! derived from them, like bytes/user — reproducible.

use std::hash::{BuildHasherDefault, Hasher};

/// A fixed-seed 64-bit hasher: FNV-1a over byte streams, with a
/// SplitMix64 finalizer on the integer fast paths (the simulator keys
/// maps by dense integer ids, where FNV alone clusters badly).
#[derive(Default)]
pub struct DetHasher(u64);

impl DetHasher {
    fn mix(&mut self, x: u64) {
        let mut z = self.0 ^ x ^ 0x9E37_79B9_7F4A_7C15;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }
}

impl Hasher for DetHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0 ^ 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    fn write_u8(&mut self, x: u8) {
        self.mix(u64::from(x));
    }

    fn write_u16(&mut self, x: u16) {
        self.mix(u64::from(x));
    }

    fn write_u32(&mut self, x: u32) {
        self.mix(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        self.mix(x);
    }

    fn write_usize(&mut self, x: usize) {
        self.mix(x as u64);
    }
}

/// The fixed-seed hasher state.
pub type DetState = BuildHasherDefault<DetHasher>;

/// A `HashMap` whose capacity evolution is identical on every run.
pub type DetHashMap<K, V> = std::collections::HashMap<K, V, DetState>; // simlint: allow(D1)

/// A `HashSet` whose capacity evolution is identical on every run.
pub type DetHashSet<T> = std::collections::HashSet<T, DetState>; // simlint: allow(D1)

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_keys_same_hashes() {
        let a = {
            let mut h = DetHasher::default();
            h.write_u64(0xDEAD_BEEF);
            h.finish()
        };
        let b = {
            let mut h = DetHasher::default();
            h.write_u64(0xDEAD_BEEF);
            h.finish()
        };
        assert_eq!(a, b);
        assert_ne!(a, 0xDEAD_BEEF, "finalizer must actually mix");
    }

    #[test]
    fn capacity_is_reproducible_under_churn() {
        let run = || {
            let mut m: DetHashMap<u64, u64> = DetHashMap::default();
            for round in 0u64..50 {
                for k in 0..1000 {
                    m.insert(round * 1000 + k, k);
                }
                for k in 0..990 {
                    m.remove(&(round * 1000 + k));
                }
            }
            m.capacity()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn dense_integer_keys_spread() {
        // Sanity-check the finalizer: consecutive keys should not collide
        // in the low bits (what hashbrown indexes with). A uniform hash
        // drops 128 balls into 128 bins: ~81 distinct expected, so anything
        // above half rules out the degenerate identity/truncation cases.
        let mut low7 = DetHashSet::<u64>::default();
        for k in 0u64..128 {
            let mut h = DetHasher::default();
            h.write_u64(k);
            low7.insert(h.finish() & 0x7f);
        }
        assert!(
            low7.len() > 64,
            "only {} distinct low-7-bit values",
            low7.len()
        );
    }
}
