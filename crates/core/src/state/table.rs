//! The first-occurrence table a bulk read combines its repeats with and the
//! checker keeps a VP's written elements in.

/// What [`FirstSeen`] needs of a key: a word its fixed multiplicative hash
/// spreads over the buckets.
pub(crate) trait TableKey: Copy + Eq {
    fn word(self) -> u64;
}

impl TableKey for u64 {
    fn word(self) -> u64 {
        self
    }
}

/// First-occurrence table: key → the payload it was first seen with since the
/// last [`Self::begin`]. Two users: a bulk read combines its repeated
/// indices (global index → position of its first occurrence) in one table
/// per node thread ([`super::with_first_seen`]), the checker keeps each VP's
/// elements written this phase ([`crate::check::OwnWrites`]). Open addressing with linear
/// probing under a fixed multiplicative hash (no `RandomState`: nothing
/// observable may depend on a per-process seed — and nothing depends on
/// probe order anyway). A bucket is live only in the generation that wrote
/// it, so starting a span is O(1), a span costs in proportion to its
/// distinct keys, and a warm table allocates nothing.
#[derive(Default)]
pub(crate) struct FirstSeen<K = u64, V = u32> {
    /// `(key, payload, generation)`; a power of two long, at most half live.
    buckets: Vec<(K, V, u32)>,
    generation: u32,
    live: usize,
}

impl<K: TableKey, V: Copy> FirstSeen<K, V> {
    /// Forget the previous span's entries.
    pub fn begin(&mut self) {
        self.live = 0;
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: stale stamps could read as live again.
            self.buckets.iter_mut().for_each(|b| b.2 = 0);
            self.generation = 1;
        }
    }

    /// The bucket holding `key`, or the free one it would go into.
    #[inline]
    fn probe(&self, key: K) -> usize {
        let mask = self.buckets.len() - 1;
        let mut b = (key.word().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        while self.buckets[b].2 == self.generation && self.buckets[b].0 != key {
            b = (b + 1) & mask;
        }
        b
    }

    /// The payload `key` was first seen with in this span; `None` — with
    /// `new` registered — when this is its first occurrence.
    pub fn first(&mut self, key: K, new: V) -> Option<V> {
        debug_assert!(self.generation != 0, "FirstSeen used before begin()");
        if self.live * 2 >= self.buckets.len() {
            // Stamp 0 is never live, so any key fills the new buckets.
            let grown = vec![(key, new, 0); (self.buckets.len() * 2).max(16)];
            self.live = 0;
            for (k, v, g) in std::mem::replace(&mut self.buckets, grown) {
                if g == self.generation {
                    self.first(k, v);
                }
            }
        }
        let b = self.probe(key);
        if self.buckets[b].2 == self.generation {
            return Some(self.buckets[b].1);
        }
        self.buckets[b] = (key, new, self.generation);
        self.live += 1;
        None
    }

    /// Jump to `generation` (unit tests: the wrap is 2^32 spans away).
    #[cfg(test)]
    pub fn wind_to(&mut self, generation: u32) {
        self.generation = generation;
    }

    /// The payload stored for `key` in this span, if it has been seen.
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        if self.buckets.is_empty() {
            return None;
        }
        let b = self.probe(key);
        (self.buckets[b].2 == self.generation).then(|| &mut self.buckets[b].1)
    }
}

#[cfg(test)]
pub(super) mod tests {
    //! Each runs as `state::tests::<name>` (`state/tests.rs` has the list).
    use super::super::tests::ALLOCS;
    use super::*;

    /// The first-occurrence table against a `HashMap` model: colliding and
    /// huge keys, growth mid-call, and reuse across calls — which forgets
    /// the previous call's entries and, once warm, allocates nothing.
    pub fn first_seen_matches_a_map_and_reuses_its_buckets() {
        let mut g = crate::testkit::Gen::new(0xF1);
        let mut table = FirstSeen::default();
        for call in 0..40 {
            // The first call is the largest, so every later one runs warm.
            // Keys a multiple of 2^32 apart share every low bit.
            let distinct = if call == 0 { 300 } else { g.u64_in(1..300) };
            let pool: Vec<u64> = (0..distinct)
                .map(|_| g.u64_in(0..64) << 32 | g.u64_in(0..5) | g.u64() << 60)
                .collect();
            let keys: Vec<u64> = (0..900).map(|_| pool[g.usize_in(0..pool.len())]).collect();
            let mut model = std::collections::HashMap::new();
            let before = ALLOCS.with(|n| n.get());
            table.begin();
            assert!(keys.iter().all(|&k| table.get_mut(k).is_none()));
            let got: Vec<Option<u32>> = (0..)
                .zip(&keys)
                .map(|(pos, &k)| table.first(k, pos))
                .collect();
            let allocs = ALLOCS.with(|n| n.get()) - before;
            assert!(
                call == 0 || allocs == 1,
                "{allocs} allocations (1 = `got`) in a warm call"
            );
            for ((pos, &k), got) in (0..).zip(&keys).zip(got) {
                let first = *model.entry(k).or_insert(pos);
                assert_eq!(
                    got,
                    (first != pos).then_some(first),
                    "call {call}, key {k:#x}"
                );
                assert_eq!(table.get_mut(k).copied(), Some(first));
            }
        }
        // A generation wrap must not resurrect old entries.
        table.wind_to(u32::MAX);
        table.begin();
        assert_eq!(table.get_mut(7), None);
        assert_eq!((table.first(7, 0), table.first(7, 1)), (None, Some(0)));
        assert_eq!(table.generation, 1);
        // A table that was never written answers without probing.
        assert_eq!(FirstSeen::<u64, u32>::default().get_mut(7), None);
    }
}
