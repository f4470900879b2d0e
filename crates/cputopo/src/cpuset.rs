//! Affinity masks over logical CPUs.
//!
//! [`CpuSet`] is a growable bitmask, the simulation's equivalent of a Linux
//! `cpu_set_t`. Placement policies construct them; the scheduler consults
//! them on every wakeup and steal.

use crate::ids::CpuId;
use core::fmt;
use serde::{Deserialize, Serialize};

/// A set of logical CPUs, stored as a bitmask.
///
/// ```
/// use cputopo::{CpuSet, CpuId};
/// let mut set = CpuSet::empty();
/// set.insert(CpuId(1));
/// set.insert(CpuId(130));
/// assert_eq!(set.len(), 2);
/// assert!(set.contains(CpuId(130)));
/// assert_eq!(set.iter().collect::<Vec<_>>(), vec![CpuId(1), CpuId(130)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct CpuSet {
    words: Vec<u64>,
}

impl CpuSet {
    /// Creates an empty set.
    pub fn empty() -> Self {
        CpuSet { words: Vec::new() }
    }

    /// Keeps the representation canonical (no trailing zero words) so that
    /// derived `PartialEq`/`Hash` compare set contents, not history.
    fn normalize(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
    }

    /// Creates the set `{0, 1, …, n−1}`.
    pub fn first_n(n: usize) -> Self {
        let mut set = CpuSet::empty();
        for i in 0..n {
            set.insert(CpuId(i as u32));
        }
        set
    }

    /// Adds a CPU to the set. Returns `true` if it was newly inserted.
    pub fn insert(&mut self, cpu: CpuId) -> bool {
        let (w, b) = (cpu.index() / 64, cpu.index() % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let newly = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        newly
    }

    /// Removes a CPU from the set. Returns `true` if it was present.
    pub fn remove(&mut self, cpu: CpuId) -> bool {
        let (w, b) = (cpu.index() / 64, cpu.index() % 64);
        if w >= self.words.len() {
            return false;
        }
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        self.normalize();
        present
    }

    /// `true` if the CPU is in the set.
    pub fn contains(&self, cpu: CpuId) -> bool {
        let (w, b) = (cpu.index() / 64, cpu.index() % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Number of CPUs in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if the set has no CPUs.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The lowest-numbered CPU, if any.
    pub fn first(&self) -> Option<CpuId> {
        self.iter().next()
    }

    /// Set union.
    pub fn union(&self, other: &CpuSet) -> CpuSet {
        let mut words = vec![0u64; self.words.len().max(other.words.len())];
        for (i, w) in words.iter_mut().enumerate() {
            *w = self.words.get(i).copied().unwrap_or(0) | other.words.get(i).copied().unwrap_or(0);
        }
        let mut out = CpuSet { words };
        out.normalize();
        out
    }

    /// Set intersection.
    pub fn intersection(&self, other: &CpuSet) -> CpuSet {
        let mut words = vec![0u64; self.words.len().min(other.words.len())];
        for (i, w) in words.iter_mut().enumerate() {
            *w = self.words[i] & other.words[i];
        }
        let mut out = CpuSet { words };
        out.normalize();
        out
    }

    /// Set difference (`self \ other`).
    pub fn difference(&self, other: &CpuSet) -> CpuSet {
        let mut words = self.words.clone();
        for (i, w) in words.iter_mut().enumerate() {
            *w &= !other.words.get(i).copied().unwrap_or(0);
        }
        let mut out = CpuSet { words };
        out.normalize();
        out
    }

    /// `true` if no CPU is in both sets.
    pub fn is_disjoint(&self, other: &CpuSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// `true` if every CPU of `self` is in `other`.
    pub fn is_subset(&self, other: &CpuSet) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !other.words.get(i).copied().unwrap_or(0) == 0)
    }

    /// The bitmask, 64 CPUs per word (bit `b` of word `w` is CPU
    /// `64·w + b`), without trailing zero words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates CPUs in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: self.words.iter(),
            base: 0u32.wrapping_sub(64),
            bits: 0,
        }
    }
}

/// Iterator over the CPUs of a [`CpuSet`] in ascending order.
#[derive(Debug)]
pub struct Iter<'a> {
    /// Words not yet loaded into `bits`.
    words: std::slice::Iter<'a, u64>,
    /// CPU id of bit 0 of `bits` (wraps to 0 on the first load).
    base: u32,
    /// Unvisited CPUs of the current word.
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = CpuId;

    fn next(&mut self) -> Option<CpuId> {
        while self.bits == 0 {
            self.bits = *self.words.next()?;
            self.base = self.base.wrapping_add(64);
        }
        let b = self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        Some(CpuId(self.base + b))
    }

    /// Word-at-a-time internal iteration: `for_each`, `sum`, `extend` and
    /// friends skip the per-item word refill check of [`Iter::next`].
    fn fold<B, F: FnMut(B, CpuId) -> B>(self, init: B, mut f: F) -> B {
        let mut acc = init;
        let (mut base, mut bits) = (self.base, self.bits);
        let mut words = self.words;
        loop {
            if bits == u64::MAX {
                // A full word is 64 consecutive CPUs: no bit scanning.
                for b in 0..64 {
                    acc = f(acc, CpuId(base + b));
                }
                bits = 0;
            }
            while bits != 0 {
                acc = f(acc, CpuId(base + bits.trailing_zeros()));
                bits &= bits - 1;
            }
            match words.next() {
                Some(&w) => {
                    bits = w;
                    base = base.wrapping_add(64);
                }
                None => return acc,
            }
        }
    }
}

impl<'a> IntoIterator for &'a CpuSet {
    type Item = CpuId;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<CpuId> for CpuSet {
    fn from_iter<I: IntoIterator<Item = CpuId>>(iter: I) -> Self {
        let mut set = CpuSet::empty();
        for cpu in iter {
            set.insert(cpu);
        }
        set
    }
}

impl Extend<CpuId> for CpuSet {
    fn extend<I: IntoIterator<Item = CpuId>>(&mut self, iter: I) {
        for cpu in iter {
            self.insert(cpu);
        }
    }
}

impl fmt::Display for CpuSet {
    /// Formats as compact ranges, e.g. `0-3,8,16-23` (like `/proc` cpulists).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut iter = self.iter().peekable();
        while let Some(start) = iter.next() {
            let mut end = start;
            while iter.peek().map(|c| c.0) == Some(end.0 + 1) {
                end = iter.next().expect("peeked");
            }
            if !first {
                write!(f, ",")?;
            }
            first = false;
            if start == end {
                write!(f, "{}", start.0)?;
            } else {
                write!(f, "{}-{}", start.0, end.0)?;
            }
        }
        if first {
            write!(f, "∅")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> CpuSet {
        ids.iter().map(|&i| CpuId(i)).collect()
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = CpuSet::empty();
        assert!(s.insert(CpuId(5)));
        assert!(!s.insert(CpuId(5)), "double insert reports false");
        assert!(s.contains(CpuId(5)));
        assert!(!s.contains(CpuId(6)));
        assert!(s.remove(CpuId(5)));
        assert!(!s.remove(CpuId(5)));
        assert!(s.is_empty());
        assert!(
            !s.remove(CpuId(1000)),
            "removing beyond capacity is a no-op"
        );
    }

    #[test]
    fn first_n_and_len() {
        let s = CpuSet::first_n(130);
        assert_eq!(s.len(), 130);
        assert!(s.contains(CpuId(0)));
        assert!(s.contains(CpuId(129)));
        assert!(!s.contains(CpuId(130)));
        assert_eq!(s.first(), Some(CpuId(0)));
        assert_eq!(CpuSet::empty().first(), None);
    }

    #[test]
    fn set_algebra() {
        let a = set(&[1, 2, 3, 100]);
        let b = set(&[3, 4, 100, 200]);
        assert_eq!(a.union(&b), set(&[1, 2, 3, 4, 100, 200]));
        assert_eq!(a.intersection(&b), set(&[3, 100]));
        assert_eq!(a.difference(&b), set(&[1, 2]));
        assert!(!a.is_disjoint(&b));
        assert!(set(&[1]).is_disjoint(&set(&[2])));
        assert!(set(&[1, 2]).is_subset(&a));
        assert!(!a.is_subset(&set(&[1, 2])));
        assert!(CpuSet::empty().is_subset(&a));
    }

    #[test]
    fn iteration_is_sorted() {
        let s = set(&[200, 5, 63, 64, 65, 0]);
        let got: Vec<u32> = s.iter().map(|c| c.0).collect();
        assert_eq!(got, vec![0, 5, 63, 64, 65, 200]);
    }

    #[test]
    fn internal_iteration_matches_next() {
        // Full words take `fold`'s fast path; partial and sparse ones scan
        // bits. Both must agree with `next`, also after a partial walk.
        let mut mixed = CpuSet::first_n(130);
        mixed.remove(CpuId(70));
        mixed.insert(CpuId(255));
        let sets = [
            CpuSet::empty(),
            CpuSet::first_n(64),
            CpuSet::first_n(256),
            set(&[0, 63, 64, 127, 190]),
            mixed,
        ];
        for s in &sets {
            for skip in 0..4 {
                let mut stepped = s.iter();
                let mut folded = s.iter();
                for _ in 0..skip {
                    assert_eq!(stepped.next(), folded.next());
                }
                let by_next: Vec<CpuId> = stepped.collect();
                let mut by_fold = Vec::new();
                folded.for_each(|c| by_fold.push(c));
                assert_eq!(by_fold, by_next, "{s} after {skip} steps");
            }
        }
    }

    #[test]
    fn display_ranges() {
        assert_eq!(set(&[0, 1, 2, 3, 8, 16, 17]).to_string(), "0-3,8,16-17");
        assert_eq!(set(&[7]).to_string(), "7");
        assert_eq!(CpuSet::empty().to_string(), "∅");
    }

    #[test]
    fn extend_and_collect() {
        let mut s = set(&[1]);
        s.extend([CpuId(2), CpuId(3)]);
        assert_eq!(s.len(), 3);
        let round: CpuSet = s.iter().collect();
        assert_eq!(round, s);
    }
}
