//! Shared-array storage, and the one erased boundary over it.
//!
//! A handle ([`crate::GlobalShared`], [`crate::NodeShared`]) carries the
//! element type `T`; the runtime below it keeps arrays of any `T` side by
//! side, so [`GArrayObj`] is the only `dyn` over arrays, and what crosses it
//! without a type — a response, refresh, migration or snapshot payload — is a
//! `Vec<T>` behind one alias, [`Values`]. Both are resolved back to `T` here
//! and nowhere else: [`array_ref`] / [`array_mut`] for a handle, the
//! [`GArrayObj`] methods for a payload.
//!
//! A node-shared array is a global array on a cluster of one: the same
//! [`GArray`] over a one-node [`Dist`], every element local, in an id space
//! of its own ([`Frozen::narrays`]).

use std::any::{type_name, Any};
use std::mem::take;
use std::ops::Range;

use ppm_simnet::WireSize;

use super::wlog::{fold_parcels, Scratch, WLog, WriteCols};
use super::{count, ArrayTiles, Frozen, WriteParcel};
use crate::check::{Conflicts, Space};
use crate::dist::Dist;
use crate::elem::Elem;

/// A `Vec<T>` of some array's element type, on the untyped side of the
/// erased boundary: read-response, refresh-push and migration payloads,
/// snapshots. `Sync` as well as `Send` because refresh parts and snapshots
/// park in [`super::Inner`], and an executor that polls a node's VPs on
/// other threads would share its [`Frozen`] half through an `Arc`.
pub(crate) type Values = Box<dyn Any + Send + Sync>;

/// The array a handle of element type `T` names: array `id` of `space`. A
/// handle is typed where it is made, against the array it is made for, so a
/// mismatch means a handle was carried into another job's [`crate::NodeCtx`].
pub(crate) fn array_ref<T: Elem>(arrays: &Frozen, space: Space, id: u32) -> &GArray<T> {
    count!(super::DOWNCASTS);
    let array: &dyn Any = match space {
        Space::Global => &*arrays.garrays[id as usize],
        Space::Node => &*arrays.narrays[id as usize],
    };
    array
        .downcast_ref()
        .unwrap_or_else(|| mistyped_handle::<T>(space, id))
}

/// [`array_ref`], mutably: the driver's side, between polls.
pub(crate) fn array_mut<T: Elem>(arrays: &mut Frozen, space: Space, id: u32) -> &mut GArray<T> {
    let array: &mut dyn Any = match space {
        Space::Global => &mut *arrays.garrays[id as usize],
        Space::Node => &mut *arrays.narrays[id as usize],
    };
    array
        .downcast_mut()
        .unwrap_or_else(|| mistyped_handle::<T>(space, id))
}

fn mistyped_handle<T>(space: Space, id: u32) -> ! {
    panic!(
        "{space} array {id}: handle is for {}, the array holds another element type",
        type_name::<T>()
    )
}

/// This node's partition of one shared array plus its phase write buffer
/// and phase-coherent remote-read cache. Buffered accumulates stay raw,
/// rank-keyed contributions in either space: node-shared accumulates may
/// happen inside a global phase, whose poll-round structure wave pipelining
/// changes.
pub(crate) struct GArray<T: Elem> {
    pub dist: Dist,
    pub local: Vec<T>,
    /// Which kind of shared variable this is. Storage and phase semantics
    /// are one; this only words the messages that name the array.
    space: Space,
    /// The node this partition belongs to.
    node: usize,
    /// The global range `node` owns under a contiguous `dist` (refreshed by
    /// [`GArrayObj::migrate_rebind`]), so the access path's "local?" is two
    /// compares. Empty for cyclic layouts, which ask `dist`.
    owned: Range<usize>,
    /// Write log for the current phase, one segment per VP merge.
    wlog: WLog<T>,
    /// What the log's drain and the fold of incoming parcels reuse.
    scratch: Scratch,
    /// Remote elements whose phase-frozen value this node has learned —
    /// from response bundles or owner-pushed refreshes. Consulted before a
    /// remote read is queued ([`super::VpCell::charge_get`], and a bulk read's
    /// [`Self::cached_span`]); cleared when the array takes writes
    /// (`coherence.rs`).
    rcache: RunCache<T>,
    /// The other half of [`Self::cache_merge`]'s double buffer (kept for
    /// its capacity only).
    rcache_spare: RunCache<T>,
    /// Response arena: the values of every read-response part received this
    /// global phase, appended part by part. A parked read's slot holds its
    /// value's position here ([`super::VpSlots::fill`]), so delivery costs one
    /// `u32` per waiter however many VPs share the element. Cleared at
    /// global phase end — every reader has resumed by then.
    arena: Vec<T>,
}

impl<T: Elem> GArray<T> {
    /// `node`'s partition of a global shared array laid out by `dist`.
    pub fn new(dist: Dist, node: usize) -> Self {
        let local = vec![T::default(); dist.local_len(node)];
        let contiguous = dist.is_contiguous();
        GArray {
            owned: if contiguous {
                dist.owned_range(node)
            } else {
                0..0
            },
            dist,
            local,
            space: Space::Global,
            node,
            wlog: WLog::default(),
            scratch: Scratch::default(),
            rcache: RunCache::default(),
            rcache_spare: RunCache::default(),
            arena: Vec::new(),
        }
    }

    /// One node's instance of a node-shared array of `len` elements: the
    /// whole of a global array on a cluster of one.
    pub fn node_shared(len: usize) -> Self {
        GArray {
            space: Space::Node,
            ..GArray::new(Dist::block(len, 1), 0)
        }
    }

    /// Local offset of global index `idx`, if this node owns it.
    #[inline]
    pub fn owned_offset(&self, idx: usize) -> Option<usize> {
        if self.owned.contains(&idx) {
            Some(idx - self.owned.start)
        } else if self.dist.is_contiguous() {
            None
        } else {
            let (owner, off) = self.dist.locate(idx);
            (owner == self.node).then_some(off)
        }
    }

    /// The stretch of elements around `idx` whose reads are plain loads
    /// until the poll ends, with its first element's global index: the
    /// owned span of an in-core contiguous partition; under `tiles`, `idx`'s
    /// tile if it is resident. `None` for a remote or spilled element, and
    /// for every element of a cyclic layout.
    #[inline]
    pub fn hot_span(&self, tiles: Option<&ArrayTiles>, idx: usize) -> Option<(usize, &[T])> {
        if !self.owned.contains(&idx) {
            return None;
        }
        let base = self.owned.start;
        let offs = match tiles {
            None => 0..self.local.len(),
            Some(t) if t.cold_tile(idx - base).is_some() => return None,
            Some(t) => t.tile_span(idx - base),
        };
        Some((base + offs.start, &self.local[offs]))
    }

    /// Local offset of an element the exchange protocol routed here. Cannot
    /// fire: requests, parcels and refreshes all go to `dist.owner`, and
    /// every node holds the same `dist` at the phase it routes in.
    fn offset_of_owned(&self, idx: u64) -> usize {
        self.owned_offset(idx as usize)
            .expect("exchange entry for an element this node does not own")
    }

    /// The response value parked at arena position `pos` (from a filled
    /// slot of the current global phase). Only a read future smuggled out of
    /// its phase body and polled in a later one can trip this; the text says
    /// so.
    pub fn arena_get(&self, pos: u32) -> T {
        *self
            .arena
            .get(pos as usize)
            .expect("remote read polled after its phase ended")
    }

    /// Cached phase-frozen value of remote element `idx`, if known.
    pub fn cache_get(&self, idx: u64) -> Option<T> {
        let (first, vals) = self.rcache.run_at(idx)?;
        Some(vals[(idx - first) as usize])
    }

    /// The second kind of hot span: the cached values around remote element
    /// `idx`, with their first global index. Ownership shadows the cache — a
    /// migration moves the cut over lines cached before it (`forget_arrays`
    /// keeps them) — so the span stops at the owned range; `idx` itself must
    /// not be owned.
    #[inline]
    pub fn cached_span(&self, idx: usize) -> Option<(usize, &[T])> {
        debug_assert!(
            self.owned_offset(idx).is_none(),
            "cached span of an owned element"
        );
        let (first, vals) = self.rcache.run_at(idx as u64)?;
        let first = first as usize;
        // A cyclic layout's `owned` is empty and its ownership never moves.
        let (lo, hi) = if idx < self.owned.start {
            (first, (first + vals.len()).min(self.owned.start))
        } else {
            (first.max(self.owned.end), first + vals.len())
        };
        Some((lo, &vals[lo - first..hi - first]))
    }

    /// Learn (or refresh) the phase-frozen values `new`, ascending by
    /// index: one linear merge into the sorted cache — a known run is one
    /// copy, adjacent lines coalesce — through a second buffer that is kept
    /// for the next merge.
    fn cache_merge(&mut self, new: impl Iterator<Item = (u64, T)>) {
        let mut new = new.peekable();
        let old = std::mem::take(&mut self.rcache);
        let mut out = std::mem::take(&mut self.rcache_spare);
        out.clear();
        for (first, vals) in old.iter() {
            while let Some((idx, v)) = new.next_if(|n| n.0 < first) {
                out.extend(idx, &[v]);
            }
            let at = out.vals.len();
            out.extend(first, vals);
            while let Some((idx, v)) = new.next_if(|n| n.0 < first + vals.len() as u64) {
                out.vals[at + (idx - first) as usize] = v;
            }
        }
        for (idx, v) in new {
            out.extend(idx, &[v]);
        }
        self.rcache = out;
        self.rcache_spare = old;
    }
}

/// A sorted map from global index to value, held as runs of consecutive
/// indices over one value column: a look-up searches runs, not elements, and
/// a run is a slice a bulk read loads from. Sorted rather than hashed because
/// it is built by merging ascending batches and read in index order.
#[derive(Default)]
struct RunCache<T> {
    /// `(first global index, position of its value in `vals`)` per run,
    /// ascending, no two runs adjacent; a run ends where the next begins.
    runs: Vec<(u64, usize)>,
    vals: Vec<T>,
}

impl<T: Copy> RunCache<T> {
    /// The run holding `idx`: its first index and its values.
    #[inline]
    fn run_at(&self, idx: u64) -> Option<(u64, &[T])> {
        let r = self
            .runs
            .partition_point(|run| run.0 <= idx)
            .checked_sub(1)?;
        let (first, vals) = self.run(r);
        (idx - first < vals.len() as u64).then_some((first, vals))
    }

    fn run(&self, r: usize) -> (u64, &[T]) {
        let (first, at) = self.runs[r];
        let end = self.runs.get(r + 1).map_or(self.vals.len(), |next| next.1);
        (first, &self.vals[at..end])
    }

    fn iter(&self) -> impl Iterator<Item = (u64, &[T])> {
        (0..self.runs.len()).map(|r| self.run(r))
    }

    /// Append `vals` as the elements from `first` on, which must lie past
    /// every index held: the last run grows if they continue it.
    fn extend(&mut self, first: u64, vals: &[T]) {
        let end = self
            .runs
            .last()
            .map(|&(f, at)| f + (self.vals.len() - at) as u64);
        debug_assert!(end.is_none_or(|end| end <= first), "unsorted merge");
        if end != Some(first) {
            self.runs.push((first, self.vals.len()));
        }
        self.vals.extend_from_slice(vals);
    }

    fn clear(&mut self) {
        self.runs.clear();
        self.vals.clear();
    }
}

/// Type-erased face of [`GArray<T>`] — the one `dyn` over arrays — for
/// everything that handles an array without its handle: the exchange path
/// (serving reads, draining and applying write bundles), coherence,
/// migration, snapshots. `Any` so a handle gets its `T` back
/// ([`array_ref`]); `Send + Sync`, like the payloads ([`Values`]), so the
/// round's `Arc<Frozen>` could be shared by pollers on other threads.
pub(crate) trait GArrayObj: Any + Send + Sync {
    /// Read the values at `idxs` (global indices owned by this node) — for a
    /// read response, or post-apply for a refresh push; returns the payload
    /// and its modeled byte size.
    fn serve(&self, idxs: &[u64]) -> (Values, usize);
    /// Requester side: append a response part's `values` to the response
    /// arena and return the arena position of the first — value `i` sits at
    /// the returned position plus `i`, which is what the waiters' slots are
    /// filled with. `cache_idxs`, when given, holds the values' global
    /// indices (ascending) and populates the read cache.
    fn absorb_response(&mut self, values: Values, cache_idxs: Option<&[u64]>) -> u32;
    /// Drop the phase's response values (global phase end).
    fn arena_clear(&mut self);
    /// Whether the response arena is empty (phase-lifetime assertion).
    fn arena_is_empty(&self) -> bool;
    /// Move one VP's scratch log for this array — the [`WLog<T>`] its
    /// writes made since its last merge — to the end of the phase write
    /// buffer; `base` is the global rank of the node's VP 0.
    fn append_writes(&mut self, base: u64, log: &mut dyn Any);
    /// Drain the write buffer into per-destination parcels (the destination
    /// may be this node itself), reporting write-write conflicts among this
    /// node's VPs to `conflicts` (the checker's, when it is on).
    fn drain_writes(&mut self, conflicts: Option<Conflicts<'_>>) -> Vec<WriteParcel>;
    /// Owner side: apply `(source node, payload)` parcels; resolution order
    /// is deterministic. Returns the number of entries applied and — only
    /// if `list_written`, which is the refresh-push protocol asking
    /// (DESIGN.md §13) — the written global indices as ascending ranges, no
    /// two adjacent. `touch` is called with each ascending stretch of
    /// written local offsets — the executor wires it to
    /// [`super::TileBudget::touch_span`] so applied writes bump tile recency
    /// (write-through without admission, DESIGN.md §18).
    fn apply_writes(
        &mut self,
        parcels: Vec<(u32, Box<dyn Any + Send>)>,
        touch: &mut dyn FnMut(Range<usize>),
        list_written: bool,
    ) -> (u64, Vec<Range<u64>>);
    /// Publish the buffered writes of an array this node alone writes and
    /// owns — a node-shared one: the exchange with this node as the only
    /// source and the only destination, so at most one parcel, applied where
    /// it was drained. Returns the modeled bytes of the entries applied (a
    /// write parcel's, had they travelled).
    fn apply(&mut self, conflicts: Option<Conflicts<'_>>) -> u64 {
        let mut bytes = 0;
        for parcel in self.drain_writes(conflicts) {
            bytes += parcel.bytes as u64;
            self.apply_writes(vec![(0, parcel.payload)], &mut |_| {}, false);
        }
        bytes
    }
    /// Whether any writes are buffered (used to assert clean phase ends
    /// and to compute per-array cache-invalidation bits).
    fn has_pending_writes(&self) -> bool;
    /// Copy the `take` position ranges of a refresh payload; returns the
    /// subset payload and its modeled wire byte size — `None` if `values`
    /// is not a payload of this array's element type.
    fn refresh_select(&self, values: &dyn Any, take: &[Range<usize>]) -> Option<(Values, u64)>;
    /// Receiver side of an owner push: insert `idxs[i] → values[i]`
    /// (ascending) into the read cache; `None` as for
    /// [`Self::refresh_select`].
    fn refresh_absorb(&mut self, idxs: &[u64], values: &dyn Any) -> Option<()>;
    /// Drop every cached remote value (invalidation at phase end when the
    /// array took writes, and at construct entry).
    fn cache_clear(&mut self);
    /// Current distribution of the array (layout + length + nodes).
    fn dist(&self) -> &Dist;
    /// Repartitioning: copy the owned elements in `range` (a contiguous
    /// global range inside this node's current span) into a migration
    /// payload; returns the payload and its modeled byte size.
    fn migrate_extract(&self, range: Range<usize>) -> (Values, u64);
    /// Repartitioning: rebind this node's partition to `dist` (a contiguous
    /// layout), keeping the elements retained from the old span and
    /// installing `parts` — `(global start index, payload)` received from
    /// peers — into the acquired stretch. Requires an empty write buffer
    /// (the hook runs after writes apply). Returns the number of elements
    /// that arrived from peers.
    fn migrate_rebind(&mut self, node: usize, dist: Dist, parts: Vec<(usize, Values)>) -> u64;
    /// Modeled payload bytes of `node`'s owned partition (failover
    /// accounting: the footprint a buddy adopts, DESIGN.md §15).
    fn owned_bytes(&self, node: usize) -> u64;
    /// Copy the local partition for a super-step snapshot; returns the
    /// payload and its modeled byte size.
    fn snapshot_local(&self) -> (Values, u64);
    /// Overwrite the local partition from a snapshot taken by
    /// [`Self::snapshot_local`] (crash recovery); returns bytes restored,
    /// or a description of why the snapshot cannot be applied (payload
    /// type or shape mismatch) — the executor wraps the error into a
    /// structured [`crate::error::RecoveryError`] naming node and phase.
    fn restore_local(&mut self, snap: &dyn Any) -> Result<u64, String>;
}

/// Modeled wire bytes of a payload that travels only when it holds anything.
fn wire_bytes_unless_empty<T: Elem>(values: &[T]) -> u64 {
    if values.is_empty() {
        0
    } else {
        values.wire_size() as u64
    }
}

impl<T: Elem> GArrayObj for GArray<T> {
    fn serve(&self, idxs: &[u64]) -> (Values, usize) {
        let values: Vec<T> = idxs
            .iter()
            .map(|&i| self.local[self.offset_of_owned(i)])
            .collect();
        let bytes = values.wire_size();
        (Box::new(values), bytes)
    }

    fn absorb_response(&mut self, values: Values, cache_idxs: Option<&[u64]>) -> u32 {
        // Cannot fire: a response part answers a request part, which names
        // the array by the id it is absorbed under, and the owner built the
        // values with that array's own `serve`.
        let values = values
            .downcast::<Vec<T>>()
            .expect("response payload type mismatch");
        if let Some(idxs) = cache_idxs {
            debug_assert_eq!(values.len(), idxs.len());
            self.cache_merge(idxs.iter().copied().zip(values.iter().copied()));
        }
        let base = self.arena.len();
        self.arena.extend_from_slice(&values);
        // Slots hold `u32` positions; the end bounds every one of them. Only
        // a phase that reads four billion remote elements trips it.
        assert!(
            self.arena.len() <= u32::MAX as usize,
            "response arena overflow"
        );
        base as u32
    }

    fn arena_clear(&mut self) {
        self.arena.clear();
    }

    fn arena_is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    fn append_writes(&mut self, base: u64, log: &mut dyn Any) {
        // Cannot fire: a VP's log for an array is made by a write through a
        // handle `array_ref` had just matched to this array's `T`
        // (`VpCell::write_many`), and is replayed into the same `(space, id)`.
        let log = log
            .downcast_mut::<WLog<T>>()
            .expect("scratch write buffer type mismatch");
        self.wlog.append(base, log);
    }

    fn drain_writes(&mut self, conflicts: Option<Conflicts<'_>>) -> Vec<WriteParcel> {
        (self.wlog).drain(self.space, &self.dist, conflicts, &mut self.scratch)
    }

    fn apply_writes(
        &mut self,
        mut parcels: Vec<(u32, Box<dyn Any + Send>)>,
        touch: &mut dyn FnMut(Range<usize>),
        list_written: bool,
    ) -> (u64, Vec<Range<u64>>) {
        // Ascending by source, as `fold_parcels` takes them.
        parcels.sort_by_key(|(src, _)| *src);
        // Cannot fire: a parcel travels under the id of the array whose
        // `drain_writes` made it, and ids name the same array on every node.
        let parcels: Vec<Box<WriteCols<T>>> = parcels
            .into_iter()
            .map(|(_, p)| p.downcast().expect("write parcel type mismatch"))
            .collect();
        let mut written: Vec<Range<u64>> = Vec::new();
        // The partition and the scratch leave `self` while the fold runs,
        // which asks `self` where elements are.
        let (mut local, mut scratch) = (take(&mut self.local), take(&mut self.scratch));
        let offset = |idx| self.offset_of_owned(idx);
        let applied = fold_parcels(&parcels, &mut local, offset, &mut scratch, |elems| {
            // Consecutive elements of one owner sit at consecutive offsets
            // (a cyclic layout's stretches are one element long).
            touch(offset(elems.start)..offset(elems.end - 1) + 1);
            match written.last_mut().filter(|run| run.end == elems.start) {
                Some(run) => run.end = elems.end,
                None if list_written => written.push(elems),
                None => {}
            }
        });
        (self.local, self.scratch) = (local, scratch);
        (applied, written)
    }

    fn has_pending_writes(&self) -> bool {
        !self.wlog.is_empty()
    }

    fn refresh_select(&self, values: &dyn Any, take: &[Range<usize>]) -> Option<(Values, u64)> {
        let values = values.downcast_ref::<Vec<T>>()?;
        let mut subset: Vec<T> = Vec::with_capacity(take.iter().map(Range::len).sum());
        for range in take {
            subset.extend_from_slice(&values[range.clone()]);
        }
        let bytes = wire_bytes_unless_empty(&subset);
        Some((Box::new(subset), bytes))
    }

    fn refresh_absorb(&mut self, idxs: &[u64], values: &dyn Any) -> Option<()> {
        let values = values.downcast_ref::<Vec<T>>()?;
        debug_assert_eq!(values.len(), idxs.len());
        // `idxs` ascends: a refresh part lists written indices in apply
        // order, which is ascending by index.
        self.cache_merge(idxs.iter().copied().zip(values.iter().copied()));
        Some(())
    }

    fn cache_clear(&mut self) {
        self.rcache.clear();
    }

    fn dist(&self) -> &Dist {
        &self.dist
    }

    fn migrate_extract(&self, range: Range<usize>) -> (Values, u64) {
        let values = if range.is_empty() {
            Vec::new()
        } else {
            // Contiguous layouts keep local offsets dense, so the whole
            // stretch starts at the first element's offset.
            let base = self.dist.local_offset(range.start);
            self.local[base..base + range.len()].to_vec()
        };
        let bytes = wire_bytes_unless_empty(&values);
        (Box::new(values), bytes)
    }

    fn migrate_rebind(&mut self, node: usize, dist: Dist, parts: Vec<(usize, Values)>) -> u64 {
        debug_assert!(
            self.wlog.is_empty(),
            "repartitioning with unapplied buffered writes"
        );
        let old_range = self.dist.owned_range(node);
        let new_range = dist.owned_range(node);
        let mut local = vec![T::default(); new_range.len()];
        // Retained overlap of the old and new spans.
        let lo = old_range.start.max(new_range.start);
        let hi = old_range.end.min(new_range.end);
        if lo < hi {
            local[lo - new_range.start..hi - new_range.start]
                .copy_from_slice(&self.local[lo - old_range.start..hi - old_range.start]);
        }
        let mut arrived = 0u64;
        for (start, payload) in parts {
            // Cannot fire: a stretch migrates under its array's id, cut by
            // that array's own `migrate_extract` on the node that had it.
            let values = payload
                .downcast::<Vec<T>>()
                .expect("migration payload type mismatch");
            arrived += values.len() as u64;
            // Both sides cut the stretch from the one replicated plan, so it
            // lies inside the acquired range (the slice bounds check it).
            local[start - new_range.start..][..values.len()].copy_from_slice(&values);
        }
        self.local = local;
        self.owned = new_range;
        self.dist = dist;
        arrived
    }

    fn owned_bytes(&self, node: usize) -> u64 {
        let r = self.dist.owned_range(node);
        (r.end - r.start) as u64 * std::mem::size_of::<T>() as u64
    }

    fn snapshot_local(&self) -> (Values, u64) {
        let copy = self.local.clone();
        let bytes = copy.wire_size() as u64;
        (Box::new(copy), bytes)
    }

    fn restore_local(&mut self, snap: &dyn Any) -> Result<u64, String> {
        let snap = snap
            .downcast_ref::<Vec<T>>()
            .ok_or_else(|| "snapshot payload type mismatch".to_string())?;
        if snap.len() != self.local.len() {
            let (whole, part) = match self.space {
                Space::Global => ("partition", "partition"),
                Space::Node => ("node array", "array"),
            };
            return Err(format!(
                "snapshot shape does not match the {whole} (snapshot {} elements, {part} {})",
                snap.len(),
                self.local.len()
            ));
        }
        self.local.clone_from(snap);
        Ok(snap.wire_size() as u64)
    }
}

#[cfg(test)]
pub(super) mod tests {
    //! Each runs as `state::tests::<name>` (`state/tests.rs` has the list).
    use super::super::tests::{ALLOCS, HEAP};
    use super::super::wlog::tests::{cols, ADD};
    use super::super::{Inner, WKind};
    use super::*;
    use crate::config::PpmConfig;
    use crate::elem::AccumOp;
    use crate::GlobalShared;

    /// Response parts append to the arena in arrival order and report
    /// their base position; the cache learns the same values by one sorted
    /// merge (new indices interleave, known ones refresh); clearing the
    /// arena leaves the cache alone.
    pub fn response_arena_and_cache_merge() {
        let mut ga: GArray<u64> = GArray::new(Dist::block(100, 2), 0);
        let b0 = ga.absorb_response(Box::new(vec![160u64, 180]), Some(&[60, 80]));
        let b1 = ga.absorb_response(
            Box::new(vec![150u64, 170, 181, 199]),
            Some(&[50, 70, 80, 99]),
        );
        let b2 = ga.absorb_response(Box::new(vec![1u64]), None);
        assert_eq!((b0, b1, b2), (0, 2, 6));
        assert_eq!(ga.arena_get(b1 + 2), 181);
        assert_eq!(ga.arena_get(b2), 1);
        let lines: Vec<(u64, &[u64])> = ga.rcache.iter().collect();
        let want: [(u64, &[u64]); 5] = [
            (50, &[150]),
            (60, &[160]),
            (70, &[170]),
            (80, &[181]),
            (99, &[199]),
        ];
        assert_eq!(lines, want);
        assert_eq!(ga.cache_get(70), Some(170));
        assert_eq!(ga.cache_get(71), None);
        ga.refresh_absorb(&[55, 70], &vec![155u64, 171]);
        assert_eq!(ga.cache_get(55), Some(155));
        assert_eq!(ga.cache_get(60), Some(160), "an entry not pushed is kept");
        assert_eq!(ga.cache_get(70), Some(171));
        assert!(!ga.arena_is_empty());
        ga.arena_clear();
        assert!(ga.arena_is_empty());
        assert_eq!(ga.cache_get(99), Some(199));
    }

    /// The run cache is a sorted map: after every random ascending batch —
    /// fresh lines, refreshed ones, batches that touch, bridge or extend
    /// runs — each look-up, and each span's bounds and contents, are what a
    /// `BTreeMap` of the same lines gives; lines that touch share a run; an
    /// owned range cuts the spans it crosses; clearing forgets everything.
    pub fn run_cache_equals_a_sorted_map() {
        use std::collections::BTreeMap;
        const LEN: usize = 96;
        let mut g = crate::testkit::Gen::new(0x22);
        for case in 0..60 {
            // Node 1 of 3 owns the middle third, or (cyclic) nothing the
            // span clip knows of.
            let dist = [Dist::block(LEN, 3), Dist::cyclic(LEN, 3)][case % 2].clone();
            let mut ga: GArray<u64> = GArray::new(dist, 1);
            let owned = ga.owned.clone();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            for batch in 0..8 {
                let mut idxs: Vec<u64> = Vec::new();
                let mut at = g.u64_in(0..LEN as u64 / 2);
                while at < LEN as u64 && idxs.len() < 20 {
                    // A stretch of consecutive lines, then a gap.
                    let stretch = g.u64_in(1..8).min(LEN as u64 - at);
                    idxs.extend(at..at + stretch);
                    at += stretch + g.u64_in(1..12);
                }
                let vals: Vec<u64> = idxs.iter().map(|i| i * 100 + batch).collect();
                if batch % 2 == 0 {
                    ga.absorb_response(Box::new(vals.clone()), Some(&idxs));
                } else {
                    ga.refresh_absorb(&idxs, &vals).unwrap();
                }
                model.extend(idxs.iter().copied().zip(vals));

                let runs = &ga.rcache.runs;
                assert!(
                    runs.windows(2).all(|w| {
                        let lines = (w[1].1 - w[0].1) as u64;
                        w[0].0 + lines < w[1].0 && lines > 0
                    }),
                    "case {case}: runs touch, overlap or are empty: {runs:?}"
                );
                assert_eq!(ga.rcache.vals.len(), model.len());
                for idx in 0..LEN {
                    let line = model.get(&(idx as u64)).copied();
                    assert_eq!(ga.cache_get(idx as u64), line, "case {case}: line {idx}");
                    if ga.owned_offset(idx).is_some() {
                        continue;
                    }
                    let Some((lo, span)) = ga.cached_span(idx) else {
                        assert_eq!(line, None, "case {case}: no span at cached {idx}");
                        continue;
                    };
                    let hi = lo + span.len();
                    assert!(
                        (lo..hi).contains(&idx),
                        "case {case}: {idx} outside its span"
                    );
                    for (k, v) in span.iter().enumerate() {
                        assert_eq!(model.get(&((lo + k) as u64)), Some(v), "case {case}");
                        assert!(!owned.contains(&(lo + k)), "case {case}: owned {}", lo + k);
                    }
                    // Maximal: it ends at an unknown line or at the owned range.
                    let stops = |i: usize| !model.contains_key(&(i as u64)) || owned.contains(&i);
                    assert!(
                        lo == 0 || stops(lo - 1),
                        "case {case}: span of {idx} starts late"
                    );
                    assert!(stops(hi), "case {case}: span of {idx} ends early");
                }
            }
            ga.cache_clear();
            assert!((0..LEN as u64).all(|i| ga.cache_get(i).is_none()));
            assert!(ga.rcache.runs.is_empty() && ga.rcache.vals.is_empty());
        }
    }

    pub fn node_mixed_write_kinds_panic() {
        let mut na: GArray<u64> = GArray::node_shared(2);
        na.wlog.buffer(0, 0, ADD, 1);
        na.wlog.buffer(0, 0, WKind::Assign, 1);
        na.apply(None);
    }

    pub fn apply_resolves_across_sources_deterministically() {
        let mut ga: GArray<f64> = GArray::new(Dist::block(4, 1), 0);
        // Two "remote" parcels plus a local one, unsorted source order.
        let p2 = cols(&[(1, WKind::Assign, &[(9, 20.0)])]);
        let p0 = cols(&[(1, WKind::Assign, &[(2, 10.0)]), (2, ADD, &[(0, 1.0)])]);
        let p1 = cols(&[(2, ADD, &[(5, 2.0)])]);
        let mut touched = Vec::new();
        let (n, written) = ga.apply_writes(
            vec![(2, p2), (0, p0), (1, p1)],
            &mut |offs| touched.extend(offs),
            true,
        );
        assert_eq!(n, 4);
        assert_eq!(written, vec![1..3], "distinct written indices, ascending");
        assert_eq!(touched, vec![1, 2], "one touch per store");
        assert_eq!(ga.local[1], 20.0, "assign from the highest rank wins");
        assert_eq!(ga.local[2], 3.0, "accumulates sum across sources");
        assert_eq!(ga.local[0], 0.0, "untouched elements stay default");
    }

    /// An entry routed to a node that does not own its element is a protocol
    /// bug, and says so — it used to land at whatever offset the *owner*
    /// keeps the element at.
    pub fn apply_rejects_an_entry_for_an_element_owned_elsewhere() {
        let mut ga: GArray<f64> = GArray::new(Dist::block(8, 2), 0);
        let stray = cols(&[
            (1, WKind::Assign, &[(0, 1.0)]),
            (6, WKind::Assign, &[(0, 2.0)]),
        ]);
        ga.apply_writes(vec![(1, stray)], &mut |_| {}, true);
    }

    /// The canonical accumulate fold runs in ascending VP rank order across
    /// sources — NOT per-source-node partials. The values below are picked
    /// so the two orders give different f64 bits: ranks 0 and 1 cancel
    /// exactly before rank 2 lands, which only happens when rank 1 (from
    /// the *other* node) folds between its neighbors.
    pub fn accum_fold_is_rank_canonical_across_sources() {
        let mut ga: GArray<f64> = GArray::new(Dist::block(1, 1), 0);
        let from0 = cols(&[(0, ADD, &[(0, 1e16), (2, 1.0)])]);
        let from1 = cols(&[(0, ADD, &[(1, -1e16)])]);
        ga.apply_writes(vec![(0, from0), (1, from1)], &mut |_| {}, true);
        assert_eq!(
            ga.local[0], 1.0,
            "(1e16 + -1e16) + 1.0 — node-partial folding would give 0.0"
        );
    }

    pub fn apply_detects_cross_node_mix() {
        let mut ga: GArray<f64> = GArray::new(Dist::block(2, 1), 0);
        let a = cols(&[(0, WKind::Assign, &[(0, 1.0)])]);
        let b = cols(&[(0, ADD, &[(1, 1.0)])]);
        ga.apply_writes(vec![(0, a), (1, b)], &mut |_| {}, true);
    }

    pub fn apply_detects_cross_node_operator_conflict() {
        let mut ga: GArray<f64> = GArray::new(Dist::block(2, 1), 0);
        let a = cols(&[(0, ADD, &[(0, 1.0)]), (1, ADD, &[(0, 1.0)])]);
        let b = cols(&[(1, WKind::Accum(AccumOp::Min), &[(1, 1.0)])]);
        ga.apply_writes(vec![(0, a), (1, b)], &mut |_| {}, true);
    }

    /// Draining and applying N accumulated elements allocates per column
    /// and per source (amortized growth included), never per element —
    /// the old path built one `Vec` per written element on both sides.
    pub fn write_path_allocations_scale_with_sources_not_elements() {
        const N: usize = 1 << 16;
        const SOURCES: usize = 4;
        let mut nodes: Vec<GArray<f64>> = (0..SOURCES)
            .map(|node| GArray::new(Dist::block(N, SOURCES), node))
            .collect();
        for (s, ga) in nodes.iter_mut().enumerate() {
            let mut scratch = WLog::scratch();
            for vp in 0..2 {
                scratch.record(vp, ADD, None, (0..N as u64).rev().map(|idx| (idx, 0.5)));
                ga.wlog.append(2 * s as u64, &mut scratch);
            }
        }
        let before = ALLOCS.with(|n| n.get());
        let mut to_owner0 = Vec::new();
        for (s, ga) in nodes.iter_mut().enumerate() {
            let mut parcels = ga.drain_writes(None);
            assert_eq!(parcels.len(), SOURCES);
            to_owner0.push((s as u32, parcels.swap_remove(0).payload));
        }
        let (applied, written) = nodes[0].apply_writes(to_owner0, &mut |_| {}, true);
        let allocs = ALLOCS.with(|n| n.get()) - before;
        assert_eq!(applied as usize, SOURCES * N / SOURCES);
        assert_eq!(written, vec![0..(N / SOURCES) as u64]);
        assert!(nodes[0]
            .local
            .iter()
            .all(|&v| v == 0.5 * 2.0 * SOURCES as f64));
        assert!(
            allocs < 512 * SOURCES as u64,
            "{allocs} allocations for {N} elements from {SOURCES} sources"
        );

        // Bytes, too. A phase of two VPs on one node writing `WRITES`
        // elements to two owners, from `record` through `apply_writes`: the
        // most the write path holds at once, per element written, with the
        // VPs' logs alive throughout as a poll's scratch is.
        const WRITES: usize = 10_000;
        let peak_bytes = |kind, idx: fn(usize) -> u64| {
            let dist = Dist::block(WRITES, 2);
            let mut owners = [0, 1].map(|node| GArray::<f64>::new(dist.clone(), node));
            let start = HEAP.with(|h| {
                h.set((h.get().0, h.get().0));
                h.get().0
            });
            let mut scratch = [0, 1].map(|_| WLog::scratch());
            for (vp, log) in scratch.iter_mut().enumerate() {
                let mine = vp * WRITES / 2..(vp + 1) * WRITES / 2;
                log.record(vp as u32, kind, None, mine.map(|j| (idx(j), 1.0)));
                owners[0].wlog.append(0, log);
            }
            let mut applied = 0;
            for parcel in owners[0].drain_writes(None) {
                let from_me = vec![(0, parcel.payload)];
                applied += owners[parcel.dest]
                    .apply_writes(from_me, &mut |_| {}, true)
                    .0;
            }
            assert_eq!(applied as usize, WRITES);
            (HEAP.with(|h| h.get().1) - start) as f64 / WRITES as f64
        };
        // A run: its values three times over — VP log, phase log, parcel —
        // and nothing per element beside them: 24.1 bytes. (A 24-byte record
        // in each log and 30 bytes of parcel columns made it 77.1.)
        let dense = peak_bytes(WKind::Assign, |j| j as u64);
        assert!(dense < 40.0, "{dense} bytes per element of a dense put");
        // Scattered accumulates peaked at the same 77.1 on the records; on
        // 16-byte listed writes, 16-byte sort keys and 32 bytes of parcel,
        // at 72.1.
        let scattered = peak_bytes(ADD, |j| (j * 7919 % WRITES) as u64);
        assert!(
            scattered < 77.1,
            "{scattered} bytes per scattered accumulate"
        );
    }

    /// Repartitioning round-trip: extract a stretch, rebind to new bounds,
    /// and confirm values land at the right global indices on both sides.
    pub fn migrate_extract_rebind_moves_elements() {
        use std::sync::Arc;
        let bounds0 = Arc::new(vec![0usize, 4, 8]);
        let bounds1 = Arc::new(vec![0usize, 2, 8]);
        // Node 0 starts owning 0..4 with values 10..14.
        let mut n0: GArray<u64> = GArray::new(Dist::weighted(8, 2, bounds0.clone()), 0);
        n0.local.copy_from_slice(&[10, 11, 12, 13]);
        // Node 1 starts owning 4..8 with values 14..18.
        let mut n1: GArray<u64> = GArray::new(Dist::weighted(8, 2, bounds0), 1);
        n1.local.copy_from_slice(&[14, 15, 16, 17]);
        // New layout gives node 1 the stretch 2..4.
        let (payload, bytes) = GArrayObj::migrate_extract(&n0, 2..4);
        assert_eq!(bytes, (vec![0u64; 2]).wire_size() as u64);
        let arrived = n0.migrate_rebind(0, Dist::weighted(8, 2, bounds1.clone()), vec![]);
        assert_eq!(arrived, 0);
        assert_eq!(n0.local, vec![10, 11], "node 0 keeps only 0..2");
        let arrived = n1.migrate_rebind(1, Dist::weighted(8, 2, bounds1), vec![(2, payload)]);
        assert_eq!(arrived, 2);
        assert_eq!(n1.local, vec![12, 13, 14, 15, 16, 17], "2..8 in order");
    }

    /// A handle is typed against the array it is made for, so one of another
    /// element type can only have come from another job's `NodeCtx`: the
    /// look-up names the space, the id and the handle's type.
    pub fn a_mistyped_handle_is_named() {
        let mut inner = Inner::new(PpmConfig::franklin(1));
        let ga: GArray<u64> = GArray::new(Dist::block(8, 1), 0);
        inner.thaw().garrays.push(Box::new(ga));
        let stray: GlobalShared<f64> = GlobalShared::new(0, 8);
        array_ref::<f64>(&inner.frozen, Space::Global, stray.id);
    }

    pub fn serve_reads_global_indices() {
        let mut ga: GArray<u64> = GArray::new(Dist::block(10, 2), 1);
        // node 1 owns indices 5..10 at offsets 0..5
        for (off, v) in ga.local.iter_mut().enumerate() {
            *v = (off + 100) as u64;
        }
        let (payload, bytes) = GArrayObj::serve(&ga, &[5, 9, 7]);
        assert_eq!(bytes, 8 + 3 * 8);
        let vals = payload.downcast::<Vec<u64>>().unwrap();
        assert_eq!(*vals, vec![100, 104, 102]);
    }

    pub fn snapshot_restore_roundtrip() {
        let mut ga: GArray<u64> = GArray::new(Dist::block(8, 2), 0);
        ga.local.copy_from_slice(&[1, 2, 3, 4]);
        let (snap, bytes) = GArrayObj::snapshot_local(&ga);
        assert_eq!(bytes, ga.local.wire_size() as u64);
        ga.local[2] = 99;
        assert_eq!(GArrayObj::restore_local(&mut ga, snap.as_ref()), Ok(bytes));
        assert_eq!(ga.local, vec![1, 2, 3, 4]);

        let mut na: GArray<f64> = GArray::node_shared(2);
        na.local[1] = 7.5;
        let (snap, _) = GArrayObj::snapshot_local(&na);
        na.local[1] = 0.0;
        GArrayObj::restore_local(&mut na, snap.as_ref()).expect("restorable");
        assert_eq!(na.local[1], 7.5);
    }

    pub fn restore_rejects_mismatched_snapshots() {
        let mut ga: GArray<u64> = GArray::new(Dist::block(8, 2), 0);
        let wrong_type: Box<dyn Any + Send + Sync> = Box::new(vec![1.0f64; 4]);
        let err = GArrayObj::restore_local(&mut ga, wrong_type.as_ref())
            .expect_err("type mismatch must be an error");
        assert!(err.contains("type mismatch"), "{err}");
        let wrong_shape: Box<dyn Any + Send + Sync> = Box::new(vec![1u64; 3]);
        let err = GArrayObj::restore_local(&mut ga, wrong_shape.as_ref())
            .expect_err("shape mismatch must be an error");
        assert!(err.contains("shape does not match the partition"), "{err}");

        let mut na: GArray<u64> = GArray::node_shared(2);
        let wrong_shape: Box<dyn Any + Send + Sync> = Box::new(vec![1u64; 5]);
        let err = GArrayObj::restore_local(&mut na, wrong_shape.as_ref())
            .expect_err("shape mismatch must be an error");
        assert!(err.contains("shape does not match the node array"), "{err}");
    }

    pub fn narray_apply_overwrites_and_clears() {
        let mut na: GArray<u64> = GArray::node_shared(3);
        na.wlog.buffer(0, 0, WKind::Assign, 5);
        na.wlog.buffer(0, 2, WKind::Accum(AccumOp::Max), 9);
        na.wlog.buffer(0, 2, WKind::Accum(AccumOp::Max), 4);
        assert_eq!(
            na.apply(None),
            2 * (9 + 8),
            "two entries of 9 bytes + a u64"
        );
        assert_eq!(na.local, vec![5, 0, 9]);
        assert_eq!(na.apply(None), 0);
    }
}
