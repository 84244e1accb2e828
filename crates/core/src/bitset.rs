//! Growable node-id bitsets for the runtime's barrier sidecars.
//!
//! The dissemination barrier carries several per-node bit vectors as free
//! sidecar payload (DESIGN.md §13–§16): cache-invalidation bits per array,
//! the suspicion/confirmed-death sets of the failure detector, and the
//! per-run destination sets of refresh pushes. They used to be fixed
//! `u64`/`u128` words, which silently capped the runtime at 64 (refresh
//! push) and 128 (death detection) nodes. [`NodeSet`] is the growable
//! replacement: a small `Vec<u64>`-backed set with the handful of
//! operations the sidecars need, deterministic iteration in ascending bit
//! order, and a *normalized* representation (no trailing zero words) so
//! equality and emptiness are structural.
//!
//! Sets ride simulated messages but are modeled as free protocol sidecar —
//! like write keys and rank tags, they carry no wire-byte charge of their
//! own (the payloads they gate are charged instead).

use crate::state::count;

#[cfg(test)]
thread_local! {
    /// Non-empty sets the calling thread has built from bits or by cutting
    /// another (unit-test builds only): a refresh split must build O(runs)
    /// of them per round, not O(entries).
    pub(crate) static SETS_BUILT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A growable set of small non-negative integers (node ids, array ids).
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct NodeSet {
    /// Little-endian 64-bit words; invariant: the last word is non-zero.
    words: Vec<u64>,
}

impl NodeSet {
    /// The empty set.
    #[inline]
    pub fn new() -> Self {
        NodeSet::default()
    }

    /// A set containing exactly `bit`.
    pub fn single(bit: usize) -> Self {
        let mut s = NodeSet::new();
        s.insert(bit);
        s
    }

    /// Whether no bit is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Whether at least one bit is set.
    #[inline]
    pub fn any(&self) -> bool {
        !self.words.is_empty()
    }

    /// Number of set bits.
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Add `bit` to the set.
    pub fn insert(&mut self, bit: usize) {
        let w = bit / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1u64 << (bit % 64);
    }

    /// Remove `bit` from the set.
    pub fn remove(&mut self, bit: usize) {
        let w = bit / 64;
        if w < self.words.len() {
            self.words[w] &= !(1u64 << (bit % 64));
            self.normalize();
        }
    }

    /// Whether `bit` is in the set.
    #[inline]
    pub fn contains(&self, bit: usize) -> bool {
        let w = bit / 64;
        w < self.words.len() && self.words[w] & (1u64 << (bit % 64)) != 0
    }

    /// In-place union: `self |= other`.
    pub fn union_with(&mut self, other: &NodeSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self & !other`, as a new set.
    pub fn difference(&self, other: &NodeSet) -> NodeSet {
        let words = self.words.iter().enumerate();
        Self::trimmed(words.map(|(i, a)| a & !other.words.get(i).unwrap_or(&0)))
    }

    /// Whether `self ∩ other` is non-empty.
    pub fn intersects(&self, other: &NodeSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// `self & other`, as a new set.
    pub fn intersection(&self, other: &NodeSet) -> NodeSet {
        Self::trimmed(self.words.iter().zip(&other.words).map(|(a, b)| a & b))
    }

    /// The set of these words less its trailing zero words — measured before
    /// it is collected, so an empty result allocates nothing (a refresh
    /// split cuts every run's set both ways and many come out empty).
    fn trimmed(words: impl ExactSizeIterator<Item = u64> + DoubleEndedIterator + Clone) -> NodeSet {
        let len = words.clone().rposition(|w| w != 0).map_or(0, |i| i + 1);
        if len > 0 {
            count!(SETS_BUILT);
        }
        NodeSet {
            words: words.take(len).collect(),
        }
    }

    /// Smallest set bit, if any.
    pub fn first(&self) -> Option<usize> {
        self.words
            .iter()
            .position(|&w| w != 0)
            .map(|i| i * 64 + self.words[i].trailing_zeros() as usize)
    }

    /// Remove every bit.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Iterate the set bits in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    None
                } else {
                    let b = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    Some(i * 64 + b)
                }
            })
        })
    }

    /// The bytes behind the set's words (for the byte ledger).
    #[cfg(feature = "byte-ledger")]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.words.capacity() * 8
    }

    /// Restore the no-trailing-zero-words invariant.
    fn normalize(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
    }
}

impl FromIterator<usize> for NodeSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = NodeSet::new();
        for b in iter {
            s.insert(b);
        }
        if s.any() {
            count!(SETS_BUILT);
        }
        s
    }
}

impl std::fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove_across_word_boundaries() {
        let mut s = NodeSet::new();
        for b in [0, 63, 64, 127, 128, 1000] {
            assert!(!s.contains(b));
            s.insert(b);
            assert!(s.contains(b), "bit {b}");
        }
        assert_eq!(s.count(), 6);
        assert_eq!(s.first(), Some(0));
        s.remove(0);
        assert_eq!(s.first(), Some(63));
        s.remove(1000);
        assert!(!s.contains(1000));
        assert_eq!(s.count(), 4);
    }

    #[test]
    fn equality_is_structural_after_removal() {
        // Removing a high bit must not leave a trailing zero word that
        // breaks Eq against a set that never had the bit.
        let mut a = NodeSet::single(900);
        a.insert(3);
        a.remove(900);
        assert_eq!(a, NodeSet::single(3));
        a.remove(3);
        assert_eq!(a, NodeSet::new());
        assert!(a.is_empty());
        assert_eq!(a.first(), None);
    }

    #[test]
    fn union_difference_intersection() {
        let a: NodeSet = [1usize, 65, 200].into_iter().collect();
        let b: NodeSet = [65usize, 300].into_iter().collect();
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 65, 200, 300]);
        let d = a.difference(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 200]);
        assert!(a.intersects(&b));
        assert!(!d.intersects(&b));
        assert_eq!(a.intersection(&b).iter().collect::<Vec<_>>(), vec![65]);
        assert!(a.intersection(&d.difference(&a)).is_empty());
    }

    #[test]
    fn iter_is_ascending_and_matches_count() {
        let bits = [7usize, 0, 511, 64, 65, 129];
        let s: NodeSet = bits.into_iter().collect();
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![0, 7, 64, 65, 129, 511]);
        assert_eq!(s.count() as usize, got.len());
    }

    #[test]
    fn debug_renders_as_set() {
        let s: NodeSet = [2usize, 70].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{2, 70}");
    }
}
