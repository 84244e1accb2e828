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
//! of its own ([`super::Inner::narrays`]).

use std::any::{type_name, Any};
use std::mem::take;
use std::ops::Range;

use ppm_simnet::WireSize;

use super::wlog::{fold_parcels, Scratch, WLog, WriteCols};
use super::{count, ArrayTiles, PhaseKind, WKind, WriteParcel};
use crate::check::{Conflicts, Space};
use crate::dist::Dist;
use crate::elem::{AccumOp, Elem};
#[cfg(feature = "byte-ledger")]
use crate::ledger::bytes;
use crate::ledger::{ledger, Held, ARENA, PARTS};

/// A `Vec<T>` of some array's element type, on the untyped side of the
/// erased boundary: read-response, refresh-push and migration payloads,
/// snapshots.
pub(crate) type Values = Box<dyn Any + Send>;

/// A node's arrays of one space, by id ([`super::Inner::garrays`] or
/// `narrays`).
pub(crate) type Arrays = Vec<Box<dyn GArrayObj>>;

/// The array a handle of element type `T` names: array `id` among `arrays`,
/// the node's arrays of `space`. A
/// handle is typed where it is made, against the array it is made for, so a
/// mismatch means a handle was carried into another job's [`crate::NodeCtx`].
pub(crate) fn array_ref<T: Elem>(arrays: &Arrays, space: Space, id: u32) -> &GArray<T> {
    count!(super::DOWNCASTS);
    let array: &dyn Any = &*arrays[id as usize];
    array
        .downcast_ref()
        .unwrap_or_else(|| mistyped_handle::<T>(space, id))
}

/// [`array_ref`], mutably.
pub(crate) fn array_mut<T: Elem>(arrays: &mut Arrays, space: Space, id: u32) -> &mut GArray<T> {
    count!(super::DOWNCASTS);
    let array: &mut dyn Any = &mut *arrays[id as usize];
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
    pub owned: Range<usize>,
    /// Write log for the current phase: every VP's writes, in the order its
    /// node's polls made them, in one bucket per owner.
    wlog: WLog<T>,
    /// What the log's drain and the fold of incoming parcels reuse.
    scratch: Scratch,
    /// Response arena: the values of every read-response part and refresh
    /// push received, appended part by part, each value once. A parked
    /// read's slot holds its value's position here
    /// ([`super::VpSlots::fill`]), so delivery costs one `u32` per waiter
    /// however many VPs share the element. A position never changes until
    /// the arena is emptied: at global phase end if nothing is cached, else
    /// with the cache ([`GArrayObj::cache_clear`]) — every reader has
    /// resumed by then.
    arena: Vec<T>,
    /// The read cache: the remote elements whose phase-frozen value this
    /// node has learned — from response parts or owner-pushed refreshes —
    /// as `(first global index, arena position, length)` runs, ascending,
    /// no two overlapping: consecutive indices whose values sit at
    /// consecutive arena positions. Consulted before a remote read is
    /// queued ([`Self::span`]); cleared with the arena when the array
    /// takes writes (`coherence.rs`) and at construct entry.
    cache: Vec<(u64, u32, u32)>,
    held: Held<ARENA>,
    /// `local`'s bytes.
    local_held: Held<PARTS>,
}

impl<T: Elem> GArray<T> {
    /// `node`'s partition of a global shared array laid out by `dist`.
    pub fn new(dist: Dist, node: usize) -> Self {
        let local = vec![T::default(); dist.local_len(node)];
        let contiguous = dist.is_contiguous();
        let mut ga = GArray {
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
            arena: Vec::new(),
            cache: Vec::new(),
            held: Held::default(),
            local_held: Held::default(),
        };
        ledger!(ga.local_held, bytes(&ga.local));
        ga
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

    /// Log VP `vp`'s writes `items` in the phase log, all of `kind`
    /// (accumulates bring `combine`); `base` is the global rank of the
    /// node's VP 0. Checks each index's bounds and hands it to `wrote`.
    /// Returns how many were logged, and how many of those are remote.
    #[inline]
    pub fn record(
        &mut self,
        (base, vp): (u64, u32),
        kind: WKind,
        combine: Option<fn(AccumOp, T, T) -> T>,
        items: impl IntoIterator<Item = (usize, T)>,
        mut wrote: impl FnMut(u64),
    ) -> (u64, u64) {
        debug_assert!(self.wlog.is_empty() || self.wlog.base == base);
        self.wlog.base = base;
        let (dist, space) = (&self.dist, self.space);
        let items = items.into_iter().map(|(idx, val)| {
            assert!(idx < dist.len, "{space} write index {idx} out of bounds");
            wrote(idx as u64);
            (idx as u64, val)
        });
        self.wlog.record(dist, self.node, vp, kind, combine, items)
    }

    /// Where element `idx` is, for a VP's read in a phase of kind `kind`:
    /// the stretch around it that one answer covers, or `None` for a remote
    /// element the read must request. An owned element's is the owned span
    /// of an in-core contiguous partition; under `tiles`, `idx`'s tile;
    /// `idx` alone under a cyclic layout, whose neighbours live on other
    /// nodes. A remote element, which only a global phase may read (the
    /// check comes before the cache is asked), is found in its cached run,
    /// which stops at the owned range: ownership shadows the cache — a
    /// migration moves the cut over lines cached before it (`forget_arrays`
    /// keeps them). A resident span's and a cached run's reads are plain
    /// loads until the poll ends; a spilled one's park on its tile.
    #[inline]
    pub fn span(
        &self,
        tiles: Option<&ArrayTiles>,
        kind: PhaseKind,
        idx: usize,
    ) -> Option<Span<'_, T>> {
        let (off, offs, tile) = if self.owned.contains(&idx) {
            let off = idx - self.owned.start;
            let offs = tiles.map_or(0..self.local.len(), |t| t.tile_span(off));
            (off, offs.clone(), offs.start)
        } else {
            assert!(idx < self.dist.len, "global read index {idx} out of bounds");
            let Some(off) = self.owned_offset(idx) else {
                assert!(
                    kind == PhaseKind::Global,
                    "remote shared read inside a node phase (element {idx} is on node {}); \
                     use a global phase",
                    self.dist.owner(idx)
                );
                let before = self.cache.partition_point(|run| run.0 <= idx as u64);
                let &(first, pos, len) = self.cache[..before].last()?;
                let (first, end) = (first as usize, (first + len as u64) as usize);
                if idx >= end {
                    return None;
                }
                // A cyclic layout's `owned` is empty and its ownership never
                // moves.
                let (lo, hi) = if idx < self.owned.start {
                    (first, end.min(self.owned.start))
                } else {
                    (first.max(self.owned.end), end)
                };
                let pos = pos as usize + lo - first;
                return Some(Span {
                    first: lo,
                    off: IN_ARENA | pos,
                    vals: &self.arena[pos..pos + hi - lo],
                    at: At::Arena,
                });
            };
            // A cyclic layout's element, alone: its neighbours are remote.
            (
                off,
                off..off + 1,
                tiles.map_or(0, |t| t.tile_span(off).start),
            )
        };
        let cold = tiles.and_then(|t| t.cold_tile(off));
        Some(Span {
            first: idx - (off - offs.start),
            off: offs.start,
            vals: &self.local[offs],
            at: cold.map_or(At::Local, |cold| At::Cold(cold, tile)),
        })
    }

    /// The `len` values from `off` of a [`Span`]: local offsets, or arena
    /// positions for an [`At::Arena`] one. Only a read future smuggled out
    /// of its phase body and polled in a later one can find the arena
    /// emptied; the text says so.
    pub fn spanned(&self, off: usize, len: usize) -> &[T] {
        match off.checked_sub(IN_ARENA) {
            None => &self.local[off..off + len],
            Some(pos) => self
                .arena
                .get(pos..pos + len)
                .expect("remote read polled after its phase ended"),
        }
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

    /// Cached phase-frozen value of remote element `idx`, if known (unit
    /// tests).
    #[cfg(test)]
    pub fn cache_get(&self, idx: u64) -> Option<T> {
        let run = self
            .cache
            .iter()
            .find(|run| run.0 <= idx && idx - run.0 < run.2 as u64)?;
        Some(self.arena[run.1 as usize + (idx - run.0) as usize])
    }

    /// Append `values` to the arena and return the position of the first;
    /// with `idxs` (their global indices, ascending), cache them too: one
    /// linear merge of run headers in which no value moves — a line learnt
    /// again points at its new value, and lines that continue a run in both
    /// index and position extend it. The runs that end before the batch's
    /// first index stay where they are, so a batch past every cached line
    /// only appends headers.
    fn arena_append(&mut self, values: &[T], idxs: Option<&[u64]>) -> u32 {
        let base = self.arena.len();
        self.arena.extend_from_slice(values);
        // Slots hold `u32` positions; the end bounds every one of them. Only
        // a phase that reads four billion remote elements trips it.
        assert!(
            self.arena.len() <= u32::MAX as usize,
            "response arena overflow"
        );
        if let Some(idxs) = idxs {
            debug_assert_eq!(values.len(), idxs.len());
            let mut new = idxs.iter().copied().zip(base as u32..).peekable();
            let lo = idxs.first().map_or(u64::MAX, |&i| i);
            let kept = self.cache.partition_point(|run| run.0 + run.2 as u64 <= lo);
            let old = self.cache.split_off(kept);
            let out = &mut self.cache;
            let mut push = |first: u64, at: u32, len: u64| match out.last_mut() {
                _ if len == 0 => {}
                Some(run) if run.0 + run.2 as u64 == first && run.1 + run.2 == at => {
                    run.2 += len as u32
                }
                _ => out.push((first, at, len as u32)),
            };
            for &(start, at, len) in &old {
                let (mut first, end) = (start, start + len as u64);
                while first < end {
                    while let Some((idx, pos)) = new.next_if(|n| n.0 < first) {
                        push(idx, pos, 1);
                    }
                    // The old run up to the next line learnt again, which
                    // the loop above then takes.
                    let cut = new.peek().map_or(end, |n| n.0.min(end));
                    push(first, at + (first - start) as u32, cut - first);
                    first = cut + 1;
                }
            }
            for (idx, pos) in new {
                push(idx, pos, 1);
            }
        }
        ledger!(self.held, bytes(&self.arena) + bytes(&self.cache));
        base as u32
    }
}

/// Where a [`Span`]'s values are.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum At {
    /// Owned and resident: a read is a load.
    Local,
    /// Owned, in spilled tile `.0`, which starts at local offset `.1`: a
    /// read defers until the executor refills the tile.
    Cold(u32, usize),
    /// Remote, in the read cache: a read is a hit, a load from the arena.
    Arena,
}

/// The tag on a [`Span`] offset that is an arena position, not a local
/// offset: one `usize` names either, and no run of one meets the other.
const IN_ARENA: usize = 1 << (usize::BITS - 1);

/// What [`GArray::span`] finds around an element.
pub(crate) struct Span<'a, T> {
    /// The global index of `vals[0]`.
    pub first: usize,
    /// Where `vals[0]` is: its local offset, or its arena position tagged
    /// with [`IN_ARENA`] ([`GArray::spanned`] reads either).
    pub off: usize,
    pub vals: &'a [T],
    pub at: At,
}

/// Type-erased face of [`GArray<T>`] — the one `dyn` over arrays — for
/// everything that handles an array without its handle: the exchange path
/// (serving reads, draining and applying write bundles), coherence,
/// migration, snapshots. `Any` so a handle gets its `T` back
/// ([`array_ref`]); `Send`, like the payloads ([`Values`]), because a node's
/// state moves to the thread that runs the node.
pub(crate) trait GArrayObj: Any + Send {
    /// Read the values at `idxs` (global indices owned by this node) — for a
    /// read response, or post-apply for a refresh push; returns the payload
    /// and its modeled byte size.
    fn serve(&self, idxs: &[u64]) -> (Values, usize);
    /// Requester side: append a response part's `values` to the response
    /// arena and return the arena position of the first — value `i` sits at
    /// the returned position plus `i`, which is what the waiters' slots are
    /// filled with. `cache_idxs`, when given, holds the values' global
    /// indices (ascending) and caches the values where they landed.
    fn absorb_response(&mut self, values: Values, cache_idxs: Option<&[u64]>) -> u32;
    /// Drop the phase's response values (global phase end) unless cached
    /// lines still point into them.
    fn arena_clear(&mut self);
    /// The values in the response arena and the lines in the read cache
    /// (phase-lifetime assertion).
    fn arena_lines(&self) -> (usize, usize);
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
    /// Receiver side of an owner push: append `values` to the arena and
    /// cache `idxs[i] → values[i]` (ascending) there; `None` as for
    /// [`Self::refresh_select`].
    fn refresh_absorb(&mut self, idxs: &[u64], values: &dyn Any) -> Option<()>;
    /// Drop every cached remote value and empty the arena (invalidation at
    /// phase end when the array took writes, and at construct entry).
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
        self.arena_append(&values, cache_idxs)
    }

    fn arena_clear(&mut self) {
        if self.cache.is_empty() {
            self.arena.clear();
        }
    }

    fn arena_lines(&self) -> (usize, usize) {
        let lines = self.cache.iter().map(|run| run.2 as usize).sum();
        (self.arena.len(), lines)
    }

    fn drain_writes(&mut self, conflicts: Option<Conflicts<'_>>) -> Vec<WriteParcel> {
        (self.wlog).drain(self.space, conflicts, &mut self.scratch)
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
        self.arena_append(values, Some(idxs));
        Some(())
    }

    fn cache_clear(&mut self) {
        self.cache.clear();
        self.arena.clear();
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
        ledger!(self.local_held, bytes(&self.local));
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
    use crate::elem::{AccumElem, AccumOp};
    use crate::GlobalShared;

    impl<T: Elem> GArray<T> {
        /// The cached lines, run by run: first index and values.
        fn lines(&self) -> Vec<(u64, &[T])> {
            let run = |&(first, at, len): &(u64, u32, u32)| {
                (first, &self.arena[at as usize..][..len as usize])
            };
            self.cache.iter().map(run).collect()
        }
    }

    /// Response parts and refresh pushes append to the arena in arrival
    /// order and report their base position; the cache points at the values
    /// where they landed — new indices interleave, a known one takes its new
    /// value. The drain keeps an arena that backs cached lines, and
    /// `cache_clear` empties both.
    pub fn response_arena_is_the_read_cache() {
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
        let want: [(u64, &[u64]); 5] = [
            (50, &[150]),
            (60, &[160]),
            (70, &[170]),
            (80, &[181]),
            (99, &[199]),
        ];
        assert_eq!(ga.lines(), want);
        assert_eq!(ga.cache[3], (80, 4, 1), "line 80 points at its new value");
        assert_eq!(ga.cache_get(70), Some(170));
        assert_eq!(ga.cache_get(71), None);
        ga.refresh_absorb(&[55, 70], &vec![155u64, 171]);
        assert_eq!(ga.cache_get(55), Some(155));
        assert_eq!(ga.cache_get(60), Some(160), "an entry not pushed is kept");
        assert_eq!(ga.cache_get(70), Some(171));
        assert_eq!(ga.arena_lines(), (9, 6), "no value moved or left");
        ga.arena_clear();
        assert_eq!(ga.arena_lines(), (9, 6), "the arena backs cached lines");
        assert_eq!(ga.cache_get(99), Some(199));
        ga.cache_clear();
        assert_eq!(ga.arena_lines(), (0, 0));
        assert_eq!(ga.cache_get(99), None);
        assert_eq!(ga.absorb_response(Box::new(vec![7u64]), None), 0);
        ga.arena_clear();
        assert_eq!(
            ga.arena_lines(),
            (0, 0),
            "nothing cached: the drain empties it"
        );
    }

    /// The read cache is a sorted map: after every random ascending batch —
    /// fresh lines, refreshed ones, batches that touch, bridge or extend
    /// runs — each look-up, and each span's bounds, contents and arena
    /// position, are what a `BTreeMap` of the same lines gives; an owned range cuts the spans it
    /// crosses; clearing forgets everything. No value moves: the arena grows
    /// by exactly each batch, consecutive lines of one batch form one run,
    /// runs never overlap, and a span ends at an unknown line, at the owned
    /// range, or where the next line's value is not next in the arena (two
    /// touching runs fetched in different batches sit apart there).
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
            // Each line's value and its arena position.
            let mut model: BTreeMap<u64, (u64, usize)> = BTreeMap::new();
            for batch in 0..8 {
                let mut idxs: Vec<u64> = Vec::new();
                let mut stretches: Vec<Range<u64>> = Vec::new();
                let mut at = g.u64_in(0..LEN as u64 / 2);
                while at < LEN as u64 && idxs.len() < 20 {
                    // A stretch of consecutive lines, then a gap.
                    let stretch = g.u64_in(1..8).min(LEN as u64 - at);
                    idxs.extend(at..at + stretch);
                    stretches.push(at..at + stretch);
                    at += stretch + g.u64_in(1..12);
                }
                let vals: Vec<u64> = idxs.iter().map(|i| i * 100 + batch).collect();
                let base = ga.arena_lines().0;
                if batch % 2 == 0 {
                    ga.absorb_response(Box::new(vals.clone()), Some(&idxs));
                } else {
                    ga.refresh_absorb(&idxs, &vals).unwrap();
                }
                let grown = ga.arena_lines().0 - base;
                assert_eq!(grown, idxs.len(), "case {case}: a merge copied values");
                let at = (base..).map(|pos| (vals[pos - base], pos));
                model.extend(idxs.iter().copied().zip(at));

                let runs = &ga.cache;
                assert!(
                    runs.windows(2).all(|w| w[0].0 + w[0].2 as u64 <= w[1].0)
                        && runs.iter().all(|run| run.2 > 0),
                    "case {case}: runs overlap or are empty: {runs:?}"
                );
                for s in &stretches {
                    assert!(
                        runs.iter()
                            .any(|run| run.0 <= s.start && s.end <= run.0 + run.2 as u64),
                        "case {case}: new lines {s:?} split: {runs:?}"
                    );
                }
                assert_eq!(ga.arena_lines().1, model.len());
                for idx in 0..LEN {
                    let line = model.get(&(idx as u64)).map(|l| l.0);
                    assert_eq!(ga.cache_get(idx as u64), line, "case {case}: line {idx}");
                    if ga.owned_offset(idx).is_some() {
                        continue;
                    }
                    let Some(Span {
                        first: lo,
                        off,
                        vals: span,
                        at,
                    }) = ga.span(None, PhaseKind::Global, idx)
                    else {
                        assert_eq!(line, None, "case {case}: no span at cached {idx}");
                        continue;
                    };
                    assert!(at == At::Arena && ga.spanned(off, span.len()) == span);
                    let hi = lo + span.len();
                    assert!(
                        (lo..hi).contains(&idx),
                        "case {case}: {idx} outside its span"
                    );
                    for (k, v) in span.iter().enumerate() {
                        let line = model.get(&((lo + k) as u64)).map(|l| &l.0);
                        assert_eq!(line, Some(v), "case {case}");
                        assert!(!owned.contains(&(lo + k)), "case {case}: owned {}", lo + k);
                    }
                    // Maximal: it ends at an unknown line, at the owned
                    // range, or where the next line's value is not next in
                    // the arena.
                    let pos = |i: usize| {
                        let line = model.get(&(i as u64)).filter(|_| !owned.contains(&i));
                        line.map(|l| l.1)
                    };
                    let joins = |i: usize| pos(i).is_some() && pos(i) == pos(i - 1).map(|p| p + 1);
                    assert!(
                        lo == 0 || !joins(lo),
                        "case {case}: span of {idx} starts late"
                    );
                    assert!(!joins(hi), "case {case}: span of {idx} ends early");
                }
            }
            ga.cache_clear();
            assert!((0..LEN as u64).all(|i| ga.cache_get(i).is_none()));
            assert_eq!(ga.arena_lines(), (0, 0));
        }
    }

    impl<T: Elem> GArray<T> {
        /// The phase log, for its own tests.
        pub(in crate::state) fn log(&self) -> &WLog<T> {
            &self.wlog
        }
    }

    impl<T: AccumElem> GArray<T> {
        /// Log one op as VP 0's next call.
        fn buffer(&mut self, idx: usize, kind: WKind, val: T) {
            self.record((0, 0), kind, Some(T::combine), [(idx, val)], |_| {});
        }
    }

    pub fn node_mixed_write_kinds_panic() {
        let mut na: GArray<u64> = GArray::node_shared(2);
        na.buffer(0, ADD, 1);
        na.buffer(0, WKind::Assign, 1);
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
            for vp in 0..2 {
                let items = (0..N).rev().map(|idx| (idx, 0.5));
                ga.record((2 * s as u64, vp), ADD, Some(f64::combine), items, |_| {});
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
        // most the write path holds at once, per element written.
        const WRITES: usize = 10_000;
        let peak_bytes = |kind, idx: fn(usize) -> u64| {
            let dist = Dist::block(WRITES, 2);
            let mut owners = [0, 1].map(|node| GArray::<f64>::new(dist.clone(), node));
            let start = HEAP.with(|h| {
                h.set((h.get().0, h.get().0));
                h.get().0
            });
            for vp in 0..2 {
                let mine = vp * WRITES / 2..(vp + 1) * WRITES / 2;
                let items = mine.map(|j| (idx(j) as usize, 1.0));
                owners[0].record((0, vp as u32), kind, Some(f64::combine), items, |_| {});
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
        // A write is stored once, in its owner's bucket, from `record` to
        // the fold. A run: its values and nothing per element beside them —
        // 16.5 bytes, the bucket's doublings included in this first phase
        // (16.2 while the node log and an exact parcel held a copy each).
        let dense = peak_bytes(WKind::Assign, |j| j as u64);
        assert!(dense < 24.0, "{dense} bytes per element of a dense put");
        // Scattered accumulates: an index beside each value, 29.6 bytes (32.3
        // while the listed log and the parcel columns held them twice).
        let scattered = peak_bytes(ADD, |j| (j * 7919 % WRITES) as u64);
        assert!(
            scattered < 32.3,
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
        inner.garrays.push(Box::new(ga));
        let stray: GlobalShared<f64> = GlobalShared::new(0, 8);
        array_ref::<f64>(&inner.garrays, Space::Global, stray.id);
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
        na.buffer(0, WKind::Assign, 5);
        na.buffer(2, WKind::Accum(AccumOp::Max), 9);
        na.buffer(2, WKind::Accum(AccumOp::Max), 4);
        assert_eq!(
            na.apply(None),
            2 * (9 + 8),
            "two entries of 9 bytes + a u64"
        );
        assert_eq!(na.local, vec![5, 0, 9]);
        assert_eq!(na.apply(None), 0);
    }
}
