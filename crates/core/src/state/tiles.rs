//! Pseudo-streaming tile residency (DESIGN.md §18): which tiles of each
//! global array's local partition count as resident under the byte budget.
//! Global arrays only, keyed by global array id — a node-shared array is
//! never tiled and never registers.

use std::ops::Range;

/// Tiling registration of one global array's local partition.
pub(crate) struct ArrayTiles {
    elem_bytes: u64,
    local_len: usize,
    /// Elements per tile; 0 = untiled (the whole partition counts as
    /// permanently resident).
    tile_elems: usize,
    /// Residency bit per tile. All tiles start cold.
    resident: Vec<bool>,
    /// Deterministic recency per tile: the [`TileBudget::clock`] value of
    /// the last driver-side touch (refill or write application). Never
    /// updated by VP reads: a phase body reads the phase-start state.
    last_touch: Vec<u64>,
}

impl ArrayTiles {
    fn n_tiles(&self) -> usize {
        self.resident.len()
    }

    /// The tile holding local offset `off` of a tiled partition, if it is
    /// spilled.
    #[inline]
    pub fn cold_tile(&self, off: usize) -> Option<u32> {
        let tile = off / self.tile_elems;
        (!self.resident[tile]).then_some(tile as u32)
    }

    /// The local offsets of the tile holding offset `off` of a tiled
    /// partition: what one residency answer covers.
    #[inline]
    pub fn tile_span(&self, off: usize) -> Range<usize> {
        let start = off / self.tile_elems * self.tile_elems;
        start..(start + self.tile_elems).min(self.local_len)
    }

    fn tile_bytes(&self, tile: usize) -> u64 {
        let start = tile * self.tile_elems;
        let len = self.tile_elems.min(self.local_len - start);
        len as u64 * self.elem_bytes
    }
}

/// Residency accounting for pseudo-streaming execution (DESIGN.md §18):
/// which tiles of each global array's local partition are resident under
/// the configured byte budget. Purely a *model* — [`super::GArray::local`] always
/// holds every element (it stands for node memory plus the backing
/// store), so spill/refill moves no data; exchange-path reads (serve,
/// refresh, snapshot, migration) stream from the backing store without
/// admission. What residency gates is the VP read hot path: a read of a
/// cold tile parks the VP ([`super::GArray::span`]) until the
/// executor refills the tile, evicting the least-recently-touched
/// resident tiles to stay under budget.
#[derive(Default)]
pub(crate) struct TileBudget {
    /// Resident-bytes budget; 0 = streaming off (everything resident,
    /// every query answers "hot").
    budget: u64,
    /// Indexed by global array id (registration order = allocation order).
    arrays: Vec<ArrayTiles>,
    /// Monotonic recency clock, bumped by driver-side touches only.
    clock: u64,
    /// Bytes currently resident: untiled partitions in full plus the
    /// resident tiles of tiled partitions.
    resident_bytes: u64,
    /// High-water mark of [`Self::resident_bytes`].
    peak_bytes: u64,
}

impl TileBudget {
    pub fn new(budget: u64) -> Self {
        TileBudget {
            budget,
            ..TileBudget::default()
        }
    }

    fn bump(&mut self, delta: u64) {
        self.resident_bytes += delta;
        self.peak_bytes = self.peak_bytes.max(self.resident_bytes);
    }

    /// A fresh tiling of a `local_len`-element partition, counted into the
    /// resident bytes. A partition is tiled iff streaming is on and it spans
    /// at least two tiles of `max(1, budget / (8 * elem_bytes))` elements —
    /// so roughly eight tiles fit in the budget and eviction always has
    /// headroom. Tiled partitions start fully cold; untiled ones count as
    /// resident in full.
    fn admit(&mut self, elem_bytes: u64, local_len: usize) -> ArrayTiles {
        let tile_elems = if self.budget == 0 {
            0
        } else {
            usize::try_from((self.budget / (8 * elem_bytes)).max(1)).unwrap_or(usize::MAX)
        };
        let tiled = tile_elems > 0 && local_len > tile_elems;
        let n_tiles = if tiled {
            local_len.div_ceil(tile_elems)
        } else {
            0
        };
        // Residency is only tracked under a budget; with streaming off the
        // whole question is moot and every accessor reports zero.
        if self.budget > 0 && !tiled {
            self.bump(local_len as u64 * elem_bytes);
        }
        ArrayTiles {
            elem_bytes,
            local_len,
            tile_elems: if tiled { tile_elems } else { 0 },
            resident: vec![false; n_tiles],
            last_touch: vec![0; n_tiles],
        }
    }

    /// Register global array `id`'s local partition at allocation.
    pub fn register(&mut self, id: u32, elem_bytes: usize, local_len: usize) {
        let at = self.admit(elem_bytes.max(1) as u64, local_len);
        // Cannot fire: the one caller registers an array under the id it
        // has just pushed it at.
        assert_eq!(
            id as usize,
            self.arrays.len(),
            "tile registration out of order"
        );
        self.arrays.push(at);
    }

    /// Re-register array `id` after a repartitioning rebind: drop the old
    /// partition's resident contribution and start the new one fully cold.
    pub fn rebind(&mut self, id: u32, local_len: usize) {
        let a = &self.arrays[id as usize];
        let elem_bytes = a.elem_bytes;
        // Mirror of `admit`'s accounting: with streaming off nothing was
        // ever counted resident, untiled partitions were counted in full,
        // tiled ones by their resident tiles.
        let old: u64 = if self.budget == 0 {
            0
        } else if a.tile_elems == 0 {
            a.local_len as u64 * a.elem_bytes
        } else {
            (0..a.n_tiles())
                .filter(|&t| a.resident[t])
                .map(|t| a.tile_bytes(t))
                .sum()
        };
        self.resident_bytes -= old;
        self.arrays[id as usize] = self.admit(elem_bytes, local_len);
    }

    /// Global array `id`'s tiling, if its partition is tiled at all — `None`
    /// with streaming off or for an untiled array, every element of which
    /// is always resident. A bulk read asks once per poll.
    pub fn tiled(&self, id: u32) -> Option<&ArrayTiles> {
        Some(&self.arrays[id as usize]).filter(|a| a.tile_elems > 0)
    }

    /// Driver-side recency touch for writes applied at local offsets `offs`
    /// of global array `id` (phase-end exchange), in ascending order: the
    /// clock advances once per element. Cold tiles are written through to
    /// the backing store without admission, so only resident tiles move in
    /// the recency order, and only their elements count.
    pub fn touch_span(&mut self, id: u32, offs: Range<usize>) {
        let a = &mut self.arrays[id as usize];
        if a.tile_elems == 0 || offs.is_empty() {
            return;
        }
        for t in offs.start / a.tile_elems..=(offs.end - 1) / a.tile_elems {
            if a.resident[t] {
                let tile = a.tile_span(t * a.tile_elems);
                self.clock += (offs.end.min(tile.end) - offs.start.max(tile.start)) as u64;
                a.last_touch[t] = self.clock;
            }
        }
    }

    /// Make `tile` of array `id` resident, evicting least-recently-touched
    /// resident tiles (deterministic tie-break: ascending array, tile)
    /// while the budget would be exceeded. Returns the spilled
    /// `(array, tile)` pairs, in eviction order. Best-effort: if nothing
    /// is evictable (only untiled bytes remain) the refill overshoots and
    /// the peak records it honestly.
    pub fn refill(&mut self, id: u32, tile: u32) -> Vec<(u32, u32)> {
        let incoming = self.arrays[id as usize].tile_bytes(tile as usize);
        debug_assert!(
            !self.arrays[id as usize].resident[tile as usize],
            "refilling a resident tile"
        );
        let mut spilled = Vec::new();
        while self.resident_bytes + incoming > self.budget {
            let mut victim: Option<(u64, u32, u32)> = None;
            for (aid, a) in self.arrays.iter().enumerate() {
                if a.tile_elems == 0 {
                    continue;
                }
                for t in 0..a.n_tiles() {
                    if !a.resident[t] {
                        continue;
                    }
                    let key = (a.last_touch[t], aid as u32, t as u32);
                    if victim.is_none_or(|v| key < v) {
                        victim = Some(key);
                    }
                }
            }
            let Some((_, va, vt)) = victim else {
                break;
            };
            let a = &mut self.arrays[va as usize];
            a.resident[vt as usize] = false;
            self.resident_bytes -= self.arrays[va as usize].tile_bytes(vt as usize);
            spilled.push((va, vt));
        }
        let a = &mut self.arrays[id as usize];
        a.resident[tile as usize] = true;
        self.clock += 1;
        a.last_touch[tile as usize] = self.clock;
        self.bump(incoming);
        spilled
    }

    /// Bytes currently resident.
    pub fn bytes_resident(&self) -> u64 {
        self.resident_bytes
    }

    /// High-water mark of resident bytes over the run.
    pub fn peak_bytes_resident(&self) -> u64 {
        self.peak_bytes
    }
}

/// The cold tiles parked VPs wait for: one `((array, tile), vp)` per tile a
/// VP's reads found spilled, ascending and duplicate-free. The executor
/// refills the minimum tile per round and wakes its waiters only
/// (DESIGN.md §18).
#[derive(Default)]
pub(crate) struct TileFaults {
    waits: Vec<((u32, u32), usize)>,
}

impl TileFaults {
    /// VP `vp`, being polled, parks on tile `tile` of global array `array`;
    /// noting it again changes nothing.
    pub fn note(&mut self, vp: usize, (array, tile): (u32, u32)) {
        if let Err(at) = self.waits.binary_search(&((array, tile), vp)) {
            self.waits.insert(at, ((array, tile), vp));
        }
    }

    pub fn is_empty(&self) -> bool {
        self.waits.is_empty()
    }

    /// The minimum cold tile, its waiters appended to `ready` in ascending
    /// order. Their other entries go: a woken VP's poll notes whatever it
    /// still finds cold. Every other VP stays parked.
    pub fn take_min(&mut self, ready: &mut Vec<usize>) -> Option<(u32, u32)> {
        let &(tile, _) = self.waits.first()?;
        let n = self.waits.partition_point(|w| w.0 == tile);
        let from = ready.len();
        ready.extend(self.waits.drain(..n).map(|w| w.1));
        let woken = &ready[from..];
        self.waits.retain(|w| woken.binary_search(&w.1).is_err());
        Some(tile)
    }
}

#[cfg(test)]
pub(super) mod tests {
    //! Each runs as `state::tests::<name>` (`state/tests.rs` has the list).
    use super::*;

    impl TileBudget {
        fn is_cold(&self, id: u32, off: usize) -> bool {
            self.tiled(id).is_some_and(|t| t.cold_tile(off).is_some())
        }

        fn tile_of(&self, id: u32, off: usize) -> u32 {
            (off / self.tiled(id).expect("tiled array").tile_elems) as u32
        }
    }

    pub fn tile_budget_off_means_everything_hot() {
        let mut tb = TileBudget::new(0);
        tb.register(0, 8, 1 << 20);
        assert!(!tb.is_cold(0, 0));
        assert!(!tb.is_cold(0, (1 << 20) - 1));
        assert_eq!(tb.bytes_resident(), 0);
        assert_eq!(tb.peak_bytes_resident(), 0);
    }

    pub fn tile_budget_small_arrays_stay_untiled() {
        // budget 1024 B, f64 elems → tile_elems = 1024/(8*8) = 16; a
        // 16-element partition fits one tile and stays untiled (fully
        // resident, never cold).
        let mut tb = TileBudget::new(1024);
        tb.register(0, 8, 16);
        assert!(!tb.is_cold(0, 15));
        assert_eq!(tb.bytes_resident(), 16 * 8);
        // A 100-element partition is tiled: 7 tiles of 16, all cold.
        tb.register(1, 8, 100);
        assert!(tb.is_cold(1, 0));
        assert!(tb.is_cold(1, 99));
        assert_eq!(tb.tile_of(1, 0), 0);
        assert_eq!(tb.tile_of(1, 17), 1);
        assert_eq!(tb.tile_of(1, 99), 6);
        assert_eq!(tb.bytes_resident(), 16 * 8, "cold tiles are not resident");
    }

    pub fn tile_budget_refill_evicts_lru_deterministically() {
        // budget 256 B, u64 elems → tile_elems = 4 (32 B/tile); 8 tiles
        // fit exactly. One tiled array of 64 elements = 16 tiles.
        let mut tb = TileBudget::new(256);
        tb.register(0, 8, 64);
        for t in 0..8 {
            assert!(tb.refill(0, t).is_empty(), "first 8 refills fit");
        }
        assert_eq!(tb.bytes_resident(), 256);
        assert_eq!(tb.peak_bytes_resident(), 256);
        // Touch tile 0 so tile 1 becomes the LRU victim.
        tb.touch_span(0, 1..2); // offset 1 lives in tile 0
        assert_eq!(tb.refill(0, 8), vec![(0, 1)], "evicts LRU, not MRU");
        assert!(tb.is_cold(0, 4), "tile 1 spilled");
        assert!(!tb.is_cold(0, 32), "tile 8 resident");
        assert_eq!(tb.bytes_resident(), 256, "stays at budget");
        // Writes to cold tiles are write-through: no admission, no touch.
        tb.touch_span(0, 5..6);
        assert!(tb.is_cold(0, 5));
    }

    /// A span's touch is its elements' touches: random spans over a
    /// half-resident array — inside a tile, across several, over cold ones,
    /// to the short last tile — leave the clock and every tile's recency
    /// where one touch per element, in order, leaves them.
    pub fn touch_span_equals_the_element_wise_model() {
        const LEN: usize = 103;
        let mut g = crate::testkit::Gen::new(0x24);
        // Tiles of 4 u64s, 26 of them, 8 fit the budget.
        let mut tb = TileBudget::new(256);
        tb.register(0, 8, LEN);
        for t in [1, 2, 3, 7, 11, 12, 20, 25] {
            assert!(tb.refill(0, t).is_empty());
        }
        let (mut clock, mut last_touch) = (tb.clock, tb.arrays[0].last_touch.clone());
        for _ in 0..500 {
            let start = g.usize_in(0..LEN);
            let offs = start..g.usize_in(start..LEN + 1);
            tb.touch_span(0, offs.clone());
            for off in offs {
                if tb.arrays[0].resident[off / 4] {
                    clock += 1;
                    last_touch[off / 4] = clock;
                }
            }
            assert_eq!((tb.clock, &tb.arrays[0].last_touch), (clock, &last_touch));
        }
        assert!(clock > 1000, "{clock} touches landed on resident tiles");
        // An untiled array has no recency to keep.
        tb.register(1, 8, 2);
        tb.touch_span(1, 0..2);
        assert_eq!(tb.clock, clock);
    }

    pub fn tile_budget_rebind_starts_cold() {
        let mut tb = TileBudget::new(256);
        tb.register(0, 8, 64);
        tb.refill(0, 0);
        assert_eq!(tb.bytes_resident(), 32);
        tb.rebind(0, 128);
        assert_eq!(tb.bytes_resident(), 0, "old residency dropped");
        assert!(tb.is_cold(0, 0), "rebound partition starts cold");
        assert_eq!(tb.peak_bytes_resident(), 32, "peak survives rebinds");
    }

    /// A fault is noted once however often it is noted; a round takes the
    /// minimum tile's waiters, ascending, and drops their other entries,
    /// leaving every other VP parked where it was.
    pub fn a_refill_takes_only_the_minimum_tiles_waiters() {
        let mut f = TileFaults::default();
        for (vp, at) in [
            (3, (0, 5)),
            (1, (1, 0)),
            (2, (0, 5)),
            (3, (1, 0)),
            (0, (0, 7)),
        ] {
            f.note(vp, at);
            f.note(vp, at);
        }
        let mut ready = vec![9];
        assert_eq!(f.take_min(&mut ready), Some((0, 5)));
        assert_eq!(ready, [9, 2, 3]);
        assert_eq!(f.waits, [((0, 7), 0), ((1, 0), 1)], "VP 3's (1, 0) went");
        ready.clear();
        assert_eq!(f.take_min(&mut ready), Some((0, 7)));
        assert_eq!(
            (f.take_min(&mut ready), &ready[..]),
            (Some((1, 0)), &[0, 1][..])
        );
        assert!(f.is_empty() && f.take_min(&mut ready).is_none());
    }

    pub fn tile_budget_last_tile_is_short() {
        // 10 elements, tile_elems 4 → tiles of 4, 4, 2 elements.
        let mut tb = TileBudget::new(256);
        tb.register(0, 8, 10);
        tb.refill(0, 2);
        assert_eq!(tb.bytes_resident(), 2 * 8, "short tail tile");
    }
}
