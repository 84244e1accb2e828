//! Per-node runtime state shared between VP futures and the executor.
//!
//! Everything a virtual processor touches while running (shared-array
//! storage, write buffers, pending read requests, phase bookkeeping,
//! per-core compute accounting) lives in [`Inner`], behind an
//! `Arc<RwLock<_>>` ([`SharedInner`]). During a phase body the live arrays
//! are immutable (writes are *buffered*), so the part of `Inner` a VP reads
//! — [`Frozen`] — sits behind an `Arc` of its own: each poll clones it
//! once, takes the VP's private [`VpScratch`] out of its cell, and parks
//! both in a thread-local, so the shared accesses inside the poll take no
//! lock at all ([`VpCell::with_poll`]). Every side effect a VP produces —
//! buffered writes, read requests, counter deltas, checker reports, phase
//! entry/arrival — goes into that scratch. The executor merges scratches
//! into `Inner` in ascending VP-rank order after each poll round, which is
//! what makes the host-parallel scheduler bit-identical to a sequential
//! one at any worker count (see `exec` and DESIGN.md §12).
//!
//! Phase semantics are implemented here:
//!
//! * reads see phase-start values because writes are *buffered* (the live
//!   arrays are never mutated during a phase body);
//! * `put` conflicts resolve deterministically by write key — (global VP
//!   rank, program order) — last writer wins;
//! * `accumulate` writes ship as rank-keyed raw contributions (one bundle
//!   *entry* per node per element, carrying that node's contribution list)
//!   and the owner flat-folds them in ascending (global VP rank, program
//!   order) — a *canonical* order independent of where
//!   partition boundaries fall, so floating-point results are
//!   bit-reproducible and **placement-invariant**: any contiguous
//!   repartitioning (see `balance.rs`) folds the same contributions in the
//!   same order and produces the same bits. Wire cost still charges one
//!   combined value per entry — combining is modeled as done sender-side,
//!   the rank tags ride free like other protocol sidecars;
//! * mixing `put` and `accumulate` on the same element in the same phase is
//!   a programming error and panics.

use std::any::Any;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use ppm_simnet::{Counters, SimTime, WireSize};

use crate::balance::Balancer;
use crate::check::{first_disagreement, Checker, Conflicts, OwnWrites, PhaseViolation, Space};
use crate::coherence::Coherence;
use crate::config::PpmConfig;
use crate::dist::Dist;
use crate::elem::{AccumOp, Elem};
use crate::failover::FailState;

/// Bump one of the unit-test builds' per-thread cost counters
/// (`LOCKS_TAKEN` and its neighbours); nothing in any other build.
macro_rules! count {
    ($counter:ident) => {
        #[cfg(test)]
        $counter.with(|n| n.set(n.get() + 1));
    };
}
pub(crate) use count;

/// What one buffered write does to its element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WKind {
    /// `put`: the last writer in (global VP rank, program order) wins.
    Assign,
    /// `accumulate`: every contribution folds, in ascending (global VP
    /// rank, program order).
    Accum(AccumOp),
}

/// `len` as a `u32` CSR offset into a parcel's contribution columns.
fn csr_offset(len: usize) -> u32 {
    assert!(len <= u32::MAX as usize, "write log overflow");
    len as u32
}

/// `i` as the `u32` position of an element in a bulk read's output (what its
/// in-flight records — parked, deferred, repeated — store).
pub(crate) fn read_position(i: usize) -> u32 {
    assert!(i <= u32::MAX as usize, "bulk read overflow");
    i as u32
}

/// One buffered, not-yet-published write op.
#[derive(Clone, Copy)]
struct WRec<T> {
    idx: u64,
    val: T,
    /// The writer's node-relative VP rank.
    vp: u32,
    kind: WKind,
}

/// Flat append-only write log. A VP records into a log of its own per
/// touched array ([`VpScratch`]); each merge bulk-appends that to the
/// array's log. Appending is all that happens during a phase body —
/// ordering, last-writer resolution and operator checks run once, at the
/// phase boundary ([`Self::drain`]), and contributions stay raw until the
/// owner folds them, so a floating-point result depends only on each VP's
/// program order, never on the poll-round structure that interleaved the
/// merges (which wave pipelining changes, DESIGN.md §13). The array-side
/// buffer lives for one phase: the drain frees it, so an idle array's log
/// holds no memory.
#[derive(Default)]
struct WLog<T> {
    recs: Vec<WRec<T>>,
    /// Global rank of this node's VP 0: what `WRec::vp` is relative to.
    base: u64,
    /// The element type's combiner, captured where `T: AccumElem` is known
    /// so the type-erased replay and apply paths can fold. It is
    /// `T::combine` for every accumulate, hence stored once.
    combine: Option<fn(AccumOp, T, T) -> T>,
}

/// Stable least-significant-digit radix sort by a `u64` key, one byte per
/// pass through a second buffer. Bytes that are the same in every key cost
/// no pass, so the work follows the key range in use, and an
/// already-ascending input (CG's put pattern) returns after one scan.
fn radix_sort_by_key<R: Copy>(recs: &mut Vec<R>, key: impl Fn(&R) -> u64) {
    let Some(first) = recs.first().map(&key) else {
        return;
    };
    let (mut sorted, mut prev, mut differ) = (true, first, 0);
    for k in recs.iter().map(&key) {
        sorted &= prev <= k;
        prev = k;
        differ |= k ^ first;
    }
    if sorted {
        return;
    }
    // Every slot is overwritten before each swap.
    let mut spare = recs.clone();
    for shift in (0..64).step_by(8).filter(|s| (differ >> s) & 0xff != 0) {
        let digit = |r: &R| (key(r) >> shift) as usize & 0xff;
        let mut next = [0usize; 256];
        recs.iter().for_each(|r| next[digit(r)] += 1);
        let mut at = 0;
        for n in &mut next {
            at += std::mem::replace(n, at);
        }
        for r in recs.iter() {
            let slot = &mut next[digit(r)];
            spare[*slot] = *r;
            *slot += 1;
        }
        std::mem::swap(recs, &mut spare);
    }
}

impl<T: Elem> WLog<T> {
    fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Move `from`'s records (one VP's writes since its last merge) to the
    /// end of this log; `from` keeps its capacity. `base` is the global
    /// rank of the node's VP 0.
    fn append(&mut self, base: u64, from: &mut WLog<T>) {
        debug_assert!(self.is_empty() || self.base == base);
        self.base = base;
        self.recs.append(&mut from.recs);
        self.combine = self.combine.or(from.combine);
    }

    /// Resolve and empty the log into one flat parcel per touched
    /// destination (`dist`'s owner of the element; without one, everything
    /// goes to destination 0), ascending by destination. Two
    /// stable sorts — by writer, then by element — are the only place
    /// order is established: they leave each element's ops in ascending
    /// (global VP rank, program order), and each costs one scan when the
    /// log already is in that order (a single merge round; ascending
    /// indices). Each element then ships once: an assign run keeps its
    /// last writer, an accumulate run every raw contribution, and mixing
    /// the two — or two operators — on one element panics here, at the
    /// phase boundary. An entry is modeled as 9 bytes plus one value:
    /// combining is charged as done sender-side and the rank tags ride
    /// free, like other protocol sidecars, so repartitioning changes
    /// neither entry counts nor bytes. With the checker on, an assign run
    /// several VPs wrote is where a write-write conflict shows, and it is
    /// reported to `conflicts`.
    fn drain(
        &mut self,
        what: &str,
        dist: Option<&Dist>,
        mut conflicts: Option<Conflicts<'_>>,
    ) -> Vec<(usize, WriteCols<T>)> {
        let mut out: Vec<(usize, WriteCols<T>)> = Vec::new();
        // Destination → position in `out`, for cyclic layouts only: runs
        // come in ascending index order, so a contiguous layout's owners
        // never decrease and a new destination means a new parcel.
        let cyclic = dist.filter(|d| !d.is_contiguous());
        let mut slot: Vec<Option<usize>> = vec![None; cyclic.map_or(0, |d| d.nodes)];
        // The parcel of the destination the last run went to, and the
        // indices that go there without asking `dist` again: the
        // destination's owned range (nothing, under a cyclic layout;
        // everything, without one).
        let (mut at, mut open) = (0, 0..0);
        let mut recs = std::mem::take(&mut self.recs);
        radix_sort_by_key(&mut recs, |r| r.vp as u64);
        radix_sort_by_key(&mut recs, |r| r.idx);
        // Records before the current run.
        let mut before = 0;
        for run in recs.chunk_by(|a, b| a.idx == b.idx) {
            let (idx, kind) = (run[0].idx, run[0].kind);
            let rest = &recs[before..];
            before += run.len();
            for r in &run[1..] {
                match (kind, r.kind) {
                    (WKind::Accum(a), WKind::Accum(b)) => assert_eq!(
                        a, b,
                        "{what}element {idx}: conflicting accumulate operators in one phase"
                    ),
                    (a, b) => assert!(
                        a == b,
                        "{what}element {idx}: put and accumulate mixed in one phase"
                    ),
                }
            }
            let run = match kind {
                WKind::Assign => {
                    // Sorted by writer: the ends differ iff several wrote.
                    let several = run[0].vp != run[run.len() - 1].vp;
                    if let Some(c) = conflicts.as_mut().filter(|_| several) {
                        let writers = run.chunk_by(|a, b| a.vp == b.vp);
                        let last_puts = writers.map(|w| w[w.len() - 1]);
                        let ranked = last_puts.map(|r| (self.base + r.vp as u64, r.val));
                        if let Some(pair) = first_disagreement(ranked) {
                            c.report(idx, pair);
                        }
                    }
                    &run[run.len() - 1..]
                }
                WKind::Accum(_) => run,
            };
            if !open.contains(&idx) {
                count!(OWNER_LOOKUPS);
                let dest = dist.map_or(0, |d| d.owner(idx as usize));
                open = match dist {
                    None => 0..u64::MAX,
                    Some(d) if d.is_contiguous() => {
                        let r = d.owned_range(dest);
                        r.start as u64..r.end as u64
                    }
                    Some(_) => 0..0,
                };
                at = slot
                    .get_mut(dest)
                    .map_or(out.len(), |at| *at.get_or_insert(out.len()));
                if at == out.len() {
                    // Every record left below the range's end goes here: at
                    // most that many entries, and that many contributions.
                    let most = rest.partition_point(|r| r.idx < open.end);
                    out.push((dest, WriteCols::with_capacity(most)));
                }
            }
            let p = &mut out[at].1;
            p.idx.push(idx);
            p.kind.push(kind);
            p.starts.push(csr_offset(p.vals.len()));
            p.ranks.extend(run.iter().map(|r| self.base + r.vp as u64));
            p.vals.extend(run.iter().map(|r| r.val));
            p.bytes += 9 + run[0].val.wire_size();
        }
        out.iter_mut().for_each(|p| p.1.combine = self.combine);
        // Ascending by node id, never by first-touch order; a no-op for
        // contiguous layouts.
        out.sort_unstable_by_key(|p| p.0);
        out
    }
}

/// The resolved writes one node ships to one owner for one array (a
/// `K_WRITE` bundle part), as flat columns. Entry `e` writes element
/// `idx[e]` (ascending, each once) from the contributions
/// `starts[e]..starts[e + 1]` (to the end, for the last entry) of
/// `ranks`/`vals`: an assign entry has one, its sender's last writer; an
/// accumulate entry lists that node's raw contributions in ascending
/// (rank, program order). Shipping contributions rank-keyed instead of a
/// per-node partial is what makes the fold **placement-invariant**: the
/// order never depends on which node hosted a contributing VP.
#[derive(Default)]
struct WriteCols<T> {
    idx: Vec<u64>,
    kind: Vec<WKind>,
    starts: Vec<u32>,
    /// Contributing VP's global rank, per contribution.
    ranks: Vec<u64>,
    vals: Vec<T>,
    combine: Option<fn(AccumOp, T, T) -> T>,
    /// Modeled wire bytes of the entries.
    bytes: usize,
}

impl<T: Copy> WriteCols<T> {
    /// An empty parcel with room for `most` entries and contributions.
    fn with_capacity(most: usize) -> Self {
        WriteCols {
            idx: Vec::with_capacity(most),
            kind: Vec::with_capacity(most),
            starts: Vec::with_capacity(most),
            ranks: Vec::with_capacity(most),
            vals: Vec::with_capacity(most),
            combine: None,
            bytes: 0,
        }
    }

    /// Entry `e`'s `(rank, value)` contributions.
    fn contributions(&self, e: usize) -> impl Iterator<Item = (u64, T)> + '_ {
        let end = self
            .starts
            .get(e + 1)
            .map_or(self.vals.len(), |&c| c as usize);
        (self.starts[e] as usize..end).map(|c| (self.ranks[c], self.vals[c]))
    }
}

/// Owner side: k-way merge the index-sorted `parcels` (ascending source
/// node) and hand each written element's final value to `store`, in
/// ascending index order. One element's contributions gather into a single
/// reused buffer, sources ascending. Assigns resolve to the highest rank
/// (program order within a rank was settled by the sender; two sources
/// never carry the same rank). Accumulates fold in ascending (global VP
/// rank, program order) — the fold a sequential ascending-rank schedule
/// performs, whatever the partitioning; source order usually *is* rank
/// order, which is checked per element and stable-sorted when not.
/// Returns the number of entries consumed.
fn merge_parcels<T: Elem>(parcels: &[Box<WriteCols<T>>], mut store: impl FnMut(u64, T)) -> u64 {
    let combine = parcels.iter().find_map(|p| p.combine);
    // One element's final value from its gathered contributions.
    let resolve = |kind: WKind, contribs: &mut Vec<(u64, T)>| match kind {
        WKind::Assign => {
            let first = contribs[0];
            let best = contribs[1..]
                .iter()
                .fold(first, |best, &c| if c.0 > best.0 { c } else { best });
            best.1
        }
        WKind::Accum(op) => {
            if !contribs.is_sorted_by_key(|c| c.0) {
                contribs.sort_by_key(|c| c.0);
            }
            let f = combine.expect("accumulate entry without a combiner");
            contribs[1..]
                .iter()
                .fold(contribs[0].1, |acc, c| f(op, acc, c.1))
        }
    };
    let mut contribs: Vec<(u64, T)> = Vec::new();
    if let [p] = parcels {
        // A lone source — nearly every array, nearly every phase — has
        // nothing to merge with: its entries stream through in order.
        for (e, (&idx, &kind)) in p.idx.iter().zip(&p.kind).enumerate() {
            contribs.clear();
            contribs.extend(p.contributions(e));
            store(idx, resolve(kind, &mut contribs));
        }
        return p.idx.len() as u64;
    }
    // (next index, parcel): equal indices pop in ascending source order.
    let mut heads: BinaryHeap<Reverse<(u64, usize)>> = parcels
        .iter()
        .enumerate()
        .filter_map(|(s, p)| p.idx.first().map(|&i| Reverse((i, s))))
        .collect();
    let mut next = vec![0usize; parcels.len()];
    let mut applied = 0u64;
    while let Some(&Reverse((idx, first))) = heads.peek() {
        let kind = parcels[first].kind[next[first]];
        contribs.clear();
        while let Some(mut head) = heads.peek_mut().filter(|h| h.0 .0 == idx) {
            let s = head.0 .1;
            let (p, e) = (&parcels[s], next[s]);
            match (kind, p.kind[e]) {
                (WKind::Accum(a), WKind::Accum(b)) => {
                    assert_eq!(a, b, "element {idx}: conflicting accumulate operators")
                }
                (a, b) => assert!(
                    a == b,
                    "element {idx}: put and accumulate mixed across nodes in one phase"
                ),
            }
            contribs.extend(p.contributions(e));
            next[s] += 1;
            applied += 1;
            match p.idx.get(e + 1) {
                Some(&i) => head.0 .0 = i,
                None => {
                    PeekMut::pop(head);
                }
            }
        }
        store(idx, resolve(kind, &mut contribs));
    }
    applied
}

/// A read request queued in [`Inner`] for the next communication wave:
/// VP `vp` wants element `idx` of global array `array`, and will receive
/// its arena position in its private slot `slot`. (The wire format is
/// [`crate::msgs::ReqEntry`]; a bulk read queues each distinct element
/// once, and requests from different reads are deduplicated per
/// (destination, array, index) when the wave is built.)
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedReq {
    pub array: u32,
    pub idx: u64,
    pub vp: u32,
    pub slot: u32,
}

/// How the current `ppm_do` participates in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DoMode {
    /// `ppm_do`: collective across nodes; global phases allowed.
    Collective,
    /// `ppm_do_local`: this node only (asynchronous mode, paper §3.3);
    /// only node phases and node-shared variables may be used.
    Local,
}

/// Which phase construct is executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// `PPM_global_phase`: synchronizes all VPs on all nodes and publishes
    /// global- and node-shared writes.
    Global,
    /// `PPM_node_phase`: synchronizes this node's VPs and publishes
    /// node-shared writes. No network traffic.
    Node,
}

// ---------------------------------------------------------------------------
// Per-VP slot table: parking spots for one VP's suspended remote reads.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Slot {
    Free,
    Waiting,
    /// Answered: the value sits at this position of the array's response
    /// arena ([`GArray::arena_get`]) until the phase ends.
    Filled(u32),
    /// The future that owned the slot was dropped before its response
    /// arrived (select-style cancellation); the late fill frees the slot.
    Cancelled,
}

/// Parking table for one VP's suspended remote reads. Lives in the VP's
/// [`VpScratch`]; the executor fills slots when a wave's responses arrive
/// and then wakes the owning VP.
#[derive(Default)]
pub(crate) struct VpSlots {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

impl VpSlots {
    pub fn alloc(&mut self) -> u32 {
        match self.free.pop() {
            Some(i) => {
                debug_assert!(matches!(self.slots[i as usize], Slot::Free));
                self.slots[i as usize] = Slot::Waiting;
                i
            }
            None => {
                self.slots.push(Slot::Waiting);
                u32::try_from(self.slots.len() - 1).expect("slot table overflow")
            }
        }
    }

    fn free(&mut self, slot: u32) {
        self.slots[slot as usize] = Slot::Free;
        self.free.push(slot);
    }

    /// Record that the slot's value landed at arena position `pos`.
    pub fn fill(&mut self, slot: u32, pos: u32) {
        match self.slots[slot as usize] {
            Slot::Waiting => self.slots[slot as usize] = Slot::Filled(pos),
            Slot::Cancelled => self.free(slot),
            Slot::Filled(_) => panic!("slot {slot} filled twice"),
            Slot::Free => panic!("filling a free slot"),
        }
    }

    /// Take the arena position if the slot has been filled; frees the slot.
    pub fn try_take(&mut self, slot: u32) -> Option<u32> {
        match self.slots[slot as usize] {
            Slot::Filled(pos) => {
                self.free(slot);
                Some(pos)
            }
            Slot::Waiting => None,
            Slot::Free | Slot::Cancelled => panic!("polling a freed slot"),
        }
    }

    /// Slots not free (unit tests: a resolved or dropped read leaks none).
    #[cfg(test)]
    pub fn in_use(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Give up a slot whose future is being dropped unresolved. An answered
    /// slot frees now; a waiting one frees when its response arrives (the
    /// request is already queued or on the wire). Called from `Drop`, so it
    /// never panics.
    pub fn release(&mut self, slot: u32) {
        match self.slots[slot as usize] {
            Slot::Filled(_) => self.free(slot),
            Slot::Waiting => self.slots[slot as usize] = Slot::Cancelled,
            Slot::Free | Slot::Cancelled => {}
        }
    }
}

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
/// last [`Self::begin`]. Two users, both per VP: a bulk read combines its
/// repeated indices (global index → position of its first occurrence), the
/// checker keeps the elements written this phase ([`OwnWrites`]). Open addressing with linear
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

// ---------------------------------------------------------------------------
// Per-VP effect scratch: everything a VP poll produces, merged by the
// executor in ascending rank order.
// ---------------------------------------------------------------------------

/// Type-erased face of one `(space, array)`'s scratch write log
/// ([`WLog<T>`]), moved into the array's phase write log at merge time.
pub(crate) trait ScratchWrites: Send {
    fn as_any(&mut self) -> &mut dyn Any;
    fn is_empty(&self) -> bool;
    fn replay_global(&mut self, ga: &mut dyn GArrayObj, base: u64);
    fn replay_node(&mut self, na: &mut dyn NArrayObj, base: u64);
}

impl<T: Elem> ScratchWrites for WLog<T> {
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn is_empty(&self) -> bool {
        WLog::is_empty(self)
    }

    fn replay_global(&mut self, ga: &mut dyn GArrayObj, base: u64) {
        let ga = ga
            .as_any()
            .downcast_mut::<GArray<T>>()
            .expect("scratch write buffer type mismatch");
        ga.wlog.append(base, self);
    }

    fn replay_node(&mut self, na: &mut dyn NArrayObj, base: u64) {
        let na = na
            .as_any()
            .downcast_mut::<NArray<T>>()
            .expect("scratch write buffer type mismatch");
        na.wlog.append(base, self);
    }
}

/// A read request recorded in a VP's scratch, waiting to be queued into
/// [`Inner::reqs`] at merge time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScratchReq {
    pub dest: u32,
    pub array: u32,
    pub idx: u64,
    pub slot: u32,
}

/// Every side effect one VP produces while being polled. Private to the VP
/// (executor and wave code touch it only between polls), so polls of
/// different VPs can run on different host threads with no ordering races;
/// the executor merges scratches into [`Inner`] in ascending rank order.
#[derive(Default)]
pub(crate) struct VpScratch {
    /// Phase this VP is currently inside, if any (guards nested phases and
    /// out-of-phase shared access without reading `Inner`).
    pub cur_phase: Option<PhaseKind>,
    /// Phase entry not yet replayed into `Inner::enter_phase`.
    pub pending_enter: Option<PhaseKind>,
    /// Barrier arrival not yet replayed into `Inner`.
    pub pending_arrive: bool,
    /// Parking table for this VP's suspended remote reads.
    pub slots: VpSlots,
    /// Slots allocated since the last merge (feeds
    /// `Inner::outstanding_reads`).
    pub slots_alloced: usize,
    /// Read requests to queue for the next wave.
    pub reqs: Vec<ScratchReq>,
    /// Where the bulk read being issued first saw each remote miss.
    pub first_seen: FirstSeen,
    /// Cold-tile faults (`(array, tile)`) recorded by local reads under a
    /// tile budget; drained into [`Inner::pending_tile_faults`] at merge.
    pub tile_faults: Vec<(u32, u32)>,
    /// Buffered writes to global arrays, indexed by array id; a slot is
    /// filled by the VP's first write to that array.
    global_writes: Vec<Option<Box<dyn ScratchWrites>>>,
    /// Buffered writes to node-shared arrays, likewise.
    node_writes: Vec<Option<Box<dyn ScratchWrites>>>,
    /// Conformance checker: what this VP wrote in its current phase and the
    /// hazards found among it. `None` with the checker off, which is what an
    /// access tests; boxed because the scratch moves at every poll.
    pub own_writes: Option<Box<OwnWrites>>,
    /// Counter deltas.
    pub counters: Counters,
    /// Compute charged by this VP since the last merge (lands on its
    /// simulated core).
    pub compute: SimTime,
}

/// This VP's log for array `id` among one space's `slots`
/// ([`VpScratch::global_writes`] or `node_writes`), made on first use.
fn writes_for<T: Elem>(slots: &mut Vec<Option<Box<dyn ScratchWrites>>>, id: u32) -> &mut WLog<T> {
    count!(DOWNCASTS);
    if slots.len() <= id as usize {
        slots.resize_with(id as usize + 1, || None);
    }
    slots[id as usize]
        .get_or_insert_with(|| Box::new(WLog::<T>::default()))
        .as_any()
        .downcast_mut::<WLog<T>>()
        .expect("scratch write buffer type mismatch")
}

/// Identity and scratch of one virtual processor. Shared (via `Arc`)
/// between the VP's futures, which record effects during polls, and the
/// executor, which merges them. The frequently-read identity fields are
/// plain copies so VP accessors never lock [`Inner`].
pub(crate) struct VpCell {
    /// Node-relative rank (`PPM_VP_node_rank`).
    pub id: usize,
    /// Cluster-wide rank (`PPM_VP_global_rank`).
    pub global_rank: u64,
    pub node: usize,
    pub cfg: PpmConfig,
    pub do_mode: DoMode,
    pub node_vp_count: usize,
    pub total_vps_global: u64,
    pub scratch: Mutex<VpScratch>,
}

impl VpCell {
    pub fn new(
        id: usize,
        global_rank: u64,
        node: usize,
        cfg: PpmConfig,
        do_mode: DoMode,
        node_vp_count: usize,
        total_vps_global: u64,
    ) -> Self {
        VpCell {
            id,
            global_rank,
            node,
            cfg,
            do_mode,
            node_vp_count,
            total_vps_global,
            scratch: Mutex::new(VpScratch::default()),
        }
    }

    /// Lock this VP's scratch where it rests between polls: the driver's
    /// merges and wave fills, and the hand-over at each poll's edges
    /// ([`PollGuard`]). Poison from a caught VP panic is benign — the run is
    /// unwinding anyway.
    pub fn scratch(&self) -> MutexGuard<'_, VpScratch> {
        count!(LOCKS_TAKEN);
        self.scratch.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run `f` on the current poll's context — this VP's scratch and the
    /// node's frozen arrays — taking no lock (DESIGN.md §12). `f` must not
    /// re-enter; the one caller-supplied code that runs inside `f` is the
    /// iterator of a bulk access, and its re-entry is reported as such.
    #[inline]
    pub fn with_poll<R>(&self, f: impl FnOnce(&mut VpScratch, &Frozen) -> R) -> R {
        count!(POLL_ENTRIES);
        POLL.with(|ctx| {
            let Ok(mut ctx) = ctx.try_borrow_mut() else {
                panic!(
                    "shared-variable access from inside a bulk access: the index iterator \
                     of a bulk access must not touch shared variables or charge work"
                );
            };
            let ctx = ctx.as_mut().expect(
                "shared-variable access outside a VP poll: `Vp` and `Phase` handles \
                 work only inside the future `ppm_do` is polling",
            );
            debug_assert_eq!(ctx.vp, self.id, "handle used from another VP's future");
            f(&mut ctx.scratch, &ctx.view)
        })
    }

    /// Give back the slot of a read whose future is dropped unresolved:
    /// through the poll context when that happens inside a poll, else (the
    /// task list unwinding after `ppm_do` panicked) through the cell.
    pub fn release_slot(&self, slot: u32) {
        POLL.with_borrow_mut(|ctx| match ctx {
            Some(ctx) => ctx.scratch.slots.release(slot),
            None => self.scratch().slots.release(slot),
        })
    }

    #[inline]
    fn core(&self) -> usize {
        self.id % self.cfg.cores_per_node()
    }

    fn in_phase(s: &VpScratch, what: impl std::fmt::Display) -> PhaseKind {
        s.cur_phase
            .unwrap_or_else(|| panic!("{what} requires an open phase"))
    }

    /// What every VP read of element `idx` of global array `id` pays —
    /// phase check, `sv_overhead`, checker, bounds, counters — and
    /// where the element is. The typed storage `ga` and tiling `tiles` are
    /// resolved by the caller (once per poll for a bulk read). A
    /// [`GetOutcome::Miss`] is fully charged but not yet requested: the
    /// caller either issues it ([`Self::issue_get`]) or combines it with a
    /// request the same bulk read already made for `idx`.
    pub fn charge_get<T: Elem>(
        &self,
        s: &mut VpScratch,
        ga: &GArray<T>,
        tiles: Option<&ArrayTiles>,
        id: u32,
        idx: usize,
    ) -> GetOutcome<T> {
        let kind = Self::in_phase(s, "global shared read");
        s.compute += self.cfg.sv_overhead;
        if let Some(own) = s.own_writes.as_mut() {
            own.read((Space::Global, id, idx as u64), self.global_rank, kind);
        }
        assert!(idx < ga.dist.len, "global read index {idx} out of bounds");
        if let Some(off) = ga.owned_offset(idx) {
            // The access is fully charged (sv_overhead, checker, counter)
            // before the residency check, so a cold tile costs
            // exactly what the in-core hit does — the fault itself is free
            // in modeled time and counters.
            s.counters.local_accesses += 1;
            return match Self::read_resident(s, ga, tiles, id, off) {
                Some(v) => GetOutcome::Local(v),
                None => GetOutcome::LocalPending(off),
            };
        }
        assert!(
            kind == PhaseKind::Global,
            "remote shared read inside a node phase (element {idx} is on node {}); \
             use a global phase",
            ga.dist.owner(idx)
        );
        // Phase-coherent read cache: a remote value learned earlier
        // (response bundle or owner push) is this phase's frozen truth, so
        // it can be returned without wire traffic. The checker and
        // sv_overhead above ran either way — the cache must never mask a
        // conformance violation.
        if self.cfg.read_cache {
            if let Some(v) = ga.cache_get(idx as u64) {
                s.counters.cache_hits += 1;
                return GetOutcome::Local(v);
            }
        }
        s.counters.cache_misses += 1;
        s.counters.remote_gets += 1;
        GetOutcome::Miss
    }

    /// Whether this VP's reads of global array `id` are, until the poll
    /// ends, nothing but their charge wherever the element is local and
    /// resident: a phase is open, and the checker (if on) has seen the VP
    /// write nothing of the array this phase, so no read can be a hazard.
    pub fn reads_plainly(s: &VpScratch, id: u32) -> bool {
        let written = |own: &OwnWrites| own.has_written(Space::Global, id);
        s.cur_phase.is_some() && !s.own_writes.as_deref().is_some_and(written)
    }

    /// What only a fresh remote request pays: a slot to park on and a place
    /// in the next wave's queue for `idx`'s owner. Returns the slot.
    pub fn issue_get<T: Elem>(s: &mut VpScratch, ga: &GArray<T>, id: u32, idx: usize) -> u32 {
        let slot = s.slots.alloc();
        s.slots_alloced += 1;
        s.reqs.push(ScratchReq {
            dest: ga.dist.owner(idx) as u32,
            array: id,
            idx: idx as u64,
            slot,
        });
        slot
    }

    /// The value at local offset `off`, or `None` — with the fault recorded
    /// — while its tile is spilled. Touches no counters, no compute, no
    /// checker: the access was fully charged by [`Self::charge_get`], so the
    /// re-read of a parked [`GetOutcome::LocalPending`] (which may find
    /// another tile was serviced first, and park again) stays invisible to
    /// every observable.
    pub fn read_resident<T: Elem>(
        s: &mut VpScratch,
        ga: &GArray<T>,
        tiles: Option<&ArrayTiles>,
        id: u32,
        off: usize,
    ) -> Option<T> {
        if let Some(tile) = tiles.and_then(|t| t.cold_tile(off)) {
            // Once per poll and tile, not per element: a bulk read's deferred
            // elements come in tile order.
            if s.tile_faults.last() != Some(&(id, tile)) {
                s.tile_faults.push((id, tile));
            }
            return None;
        }
        Some(ga.local[off])
    }

    /// What a VP's writes of `items` — `(element, value)` pairs of array `id`
    /// of `space` — do: `put`s ([`WKind::Assign`]) or `accumulate`s, which
    /// bring `combine`, their element type's combiner. Per call: phase check,
    /// the array's length, this VP's log for it, overhead and counter
    /// totals. Per element: bounds, "local?", the checker's written set, and
    /// one record in the log, in `items`' order. `space` is a constant where
    /// this is inlined; `items` runs inside the poll context and must not
    /// re-enter it.
    #[inline]
    pub fn write_many<T: Elem>(
        &self,
        space: Space,
        id: u32,
        kind: WKind,
        items: impl IntoIterator<Item = (usize, T)>,
        combine: Option<fn(AccumOp, T, T) -> T>,
    ) {
        self.with_poll(|s, view| {
            let phase = Self::in_phase(s, format_args!("{space} shared write"));
            // `None`: a node-shared array, every element of which is local.
            let (overhead, len, ga, logs) = match space {
                Space::Global => {
                    assert_eq!(
                        phase,
                        PhaseKind::Global,
                        "global shared writes are only allowed inside a global phase"
                    );
                    let ga = garray_ref::<T>(view, id);
                    let logs = &mut s.global_writes;
                    (self.cfg.sv_overhead, ga.dist.len, Some(ga), logs)
                }
                Space::Node => {
                    let len = narray_ref::<T>(view, id).data.len();
                    (self.cfg.node_sv_overhead, len, None, &mut s.node_writes)
                }
            };
            let log = writes_for::<T>(logs, id);
            let mut own = s.own_writes.as_deref_mut();
            let (logged, mut remote) = (log.recs.len(), 0);
            log.recs.extend(items.into_iter().map(|(idx, val)| {
                assert!(idx < len, "{space} write index {idx} out of bounds");
                remote += ga.is_some_and(|ga| ga.owned_offset(idx).is_none()) as u64;
                if let Some(own) = own.as_mut() {
                    own.wrote((space, id, idx as u64));
                }
                WRec {
                    idx: idx as u64,
                    val,
                    vp: self.id as u32,
                    kind,
                }
            }));
            if combine.is_some() {
                log.combine = combine;
            }
            let writes = (log.recs.len() - logged) as u64;
            s.compute += overhead.scale(writes);
            s.counters.local_accesses += writes - remote;
            s.counters.remote_puts += remote;
        })
    }

    /// [`Self::write_many`] of one element.
    #[inline]
    pub fn write<T: Elem>(
        &self,
        space: Space,
        id: u32,
        idx: usize,
        kind: WKind,
        val: T,
        combine: Option<fn(AccumOp, T, T) -> T>,
    ) {
        self.write_many(space, id, kind, [(idx, val)], combine)
    }

    /// VP read of a node-shared element (physical shared memory:
    /// immediate).
    pub fn get_node_arr<T: Elem>(&self, id: u32, idx: usize) -> T {
        self.with_poll(|s, view| {
            let kind = Self::in_phase(s, "node shared read");
            s.compute += self.cfg.node_sv_overhead;
            if let Some(own) = s.own_writes.as_mut() {
                own.read((Space::Node, id, idx as u64), self.global_rank, kind);
            }
            s.counters.local_accesses += 1;
            let na = narray_ref::<T>(view, id);
            assert!(idx < na.data.len(), "node read index {idx} out of bounds");
            na.data[idx]
        })
    }

    /// Charge `n` floating-point operations of VP-private computation.
    pub fn charge_flops(&self, n: u64) {
        self.with_poll(|s, _| {
            s.counters.flops += n;
            s.compute += self.cfg.machine.core.flops(n);
        })
    }

    /// Charge `n` memory operations of VP-private computation.
    pub fn charge_mem_ops(&self, n: u64) {
        self.with_poll(|s, _| {
            s.counters.mem_ops += n;
            s.compute += self.cfg.machine.core.mem_ops(n);
        })
    }
}

/// What a VP poll works on, parked in a thread-local for the poll's
/// duration so every access inside it is lock-free: the VP's scratch, moved
/// out of its [`VpCell`], and the node's [`Frozen`] arrays. Sound under the
/// worker pool because a poll starts and ends on one host thread and a
/// thread polls one VP at a time (DESIGN.md §12).
struct PollCtx {
    vp: usize,
    scratch: VpScratch,
    view: Arc<Frozen>,
}

thread_local! {
    static POLL: RefCell<Option<PollCtx>> = const { RefCell::new(None) };
}

/// One poll's ownership of the calling thread's poll context. Dropping it —
/// normally, or while a panicking VP unwinds — hands the scratch back to the
/// cell and releases the `Frozen` clone, so the driver can merge and mutate
/// again.
pub(crate) struct PollGuard<'a>(&'a VpCell);

impl<'a> PollGuard<'a> {
    pub fn enter(cell: &'a VpCell, view: Arc<Frozen>) -> Self {
        let scratch = std::mem::take(&mut *cell.scratch());
        let ctx = PollCtx {
            vp: cell.id,
            scratch,
            view,
        };
        let nested = POLL.replace(Some(ctx));
        assert!(nested.is_none(), "VP polled from inside another VP's poll");
        PollGuard(cell)
    }
}

impl Drop for PollGuard<'_> {
    fn drop(&mut self) {
        if let Some(ctx) = POLL.take() {
            *self.0.scratch() = ctx.scratch;
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Lock acquisitions by the calling thread (unit-test builds only): the
    /// poll path must take O(polls) of them, not O(accesses).
    pub(crate) static LOCKS_TAKEN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Likewise [`VpCell::with_poll`] entries, typed-array and write-log
    /// downcasts, and the drain's `Dist::owner` look-ups: a bulk access must
    /// cost O(1) of the first two and one look-up per destination run.
    pub(crate) static POLL_ENTRIES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    pub(crate) static DOWNCASTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    pub(crate) static OWNER_LOOKUPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Merge one VP's scratch into the node state. Called by the executor in
/// ascending VP-rank order after every poll round, which reproduces the
/// exact effect order of a sequential ascending-rank schedule — including
/// per-element accumulate fold order. Returns the
/// compute this merge charged, so the executor can attribute compute that
/// overlapped an in-flight wave (pipelining cost model, DESIGN.md §13).
pub(crate) fn merge_vp(inner: &mut Inner, cell: &VpCell) -> SimTime {
    let mut s = cell.scratch();
    if let Some(kind) = s.pending_enter.take() {
        inner.enter_phase(kind);
    }
    if let (Some(c), Some(own)) = (inner.checker.as_mut(), s.own_writes.as_mut()) {
        c.hazards(&mut own.found);
    }
    let base = cell.global_rank - cell.id as u64;
    let arrays = inner.thaw();
    for (id, w) in s.global_writes.iter_mut().enumerate() {
        if let Some(w) = w.as_mut().filter(|w| !w.is_empty()) {
            w.replay_global(&mut *arrays.garrays[id], base);
        }
    }
    for (id, w) in s.node_writes.iter_mut().enumerate() {
        if let Some(w) = w.as_mut().filter(|w| !w.is_empty()) {
            w.replay_node(&mut *arrays.narrays[id], base);
        }
    }
    for r in s.reqs.drain(..) {
        inner.reqs[r.dest as usize].push(QueuedReq {
            array: r.array,
            idx: r.idx,
            vp: cell.id as u32,
            slot: r.slot,
        });
    }
    if !s.tile_faults.is_empty() {
        // Kept sorted and duplicate-free: VPs of a node mostly fault on the
        // same few tiles.
        for f in s.tile_faults.drain(..) {
            if let Err(at) = inner.pending_tile_faults.binary_search(&f) {
                inner.pending_tile_faults.insert(at, f);
            }
        }
        inner.fault_waiters.push(cell.id);
    }
    let c = std::mem::take(&mut s.counters);
    inner.counters = inner.counters.merge(&c);
    let compute = std::mem::replace(&mut s.compute, SimTime::ZERO);
    inner.core_compute[cell.core()] += compute;
    inner.outstanding_reads += std::mem::take(&mut s.slots_alloced);
    if std::mem::take(&mut s.pending_arrive) {
        inner.phase.arrived += 1;
        inner.barrier_waiters.push(cell.id);
    }
    compute
}

// ---------------------------------------------------------------------------
// Shared handle to the per-node state.
// ---------------------------------------------------------------------------

/// The shared handle to [`Inner`]: a write lock for the driver's merges and
/// exchanges, a read lock for its queries — and for each VP poll's one
/// look, to clone the [`Frozen`] handle it works on. Lock poisoning is
/// ignored — a caught VP panic is re-raised by the executor, so a poisoned
/// lock only ever guards state that is about to unwind.
#[derive(Clone)]
pub(crate) struct SharedInner(Arc<RwLock<Inner>>);

impl SharedInner {
    pub fn new(inner: Inner) -> Self {
        SharedInner(Arc::new(RwLock::new(inner)))
    }

    pub fn borrow(&self) -> RwLockReadGuard<'_, Inner> {
        count!(LOCKS_TAKEN);
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn borrow_mut(&self) -> RwLockWriteGuard<'_, Inner> {
        count!(LOCKS_TAKEN);
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn try_borrow(&self) -> Option<RwLockReadGuard<'_, Inner>> {
        count!(LOCKS_TAKEN);
        self.0.try_read().ok()
    }

    pub fn try_borrow_mut(&self) -> Option<RwLockWriteGuard<'_, Inner>> {
        count!(LOCKS_TAKEN);
        self.0.try_write().ok()
    }
}

// Typed views of the arrays through their trait objects.
pub(crate) fn garray_ref<T: Elem>(arrays: &Frozen, id: u32) -> &GArray<T> {
    count!(DOWNCASTS);
    arrays.garrays[id as usize]
        .as_any_ref()
        .downcast_ref::<GArray<T>>()
        .expect("global array handle type mismatch")
}

pub(crate) fn garray_mut<T: Elem>(arrays: &mut Frozen, id: u32) -> &mut GArray<T> {
    arrays.garrays[id as usize]
        .as_any()
        .downcast_mut::<GArray<T>>()
        .expect("global array handle type mismatch")
}

pub(crate) fn narray_ref<T: Elem>(arrays: &Frozen, id: u32) -> &NArray<T> {
    count!(DOWNCASTS);
    arrays.narrays[id as usize]
        .as_any_ref()
        .downcast_ref::<NArray<T>>()
        .expect("node array handle type mismatch")
}

pub(crate) fn narray_mut<T: Elem>(arrays: &mut Frozen, id: u32) -> &mut NArray<T> {
    arrays.narrays[id as usize]
        .as_any()
        .downcast_mut::<NArray<T>>()
        .expect("node array handle type mismatch")
}

// ---------------------------------------------------------------------------
// Global shared array storage.
// ---------------------------------------------------------------------------

/// A write parcel produced by draining an array's write buffer: the entries
/// destined for one owner node.
pub(crate) struct WriteParcel {
    pub dest: usize,
    pub entries: u64,
    pub bytes: usize,
    /// The array's [`WriteCols<T>`].
    pub payload: Box<dyn Any + Send>,
}

/// This node's partition of one global shared array plus its phase write
/// buffer and phase-coherent remote-read cache.
pub(crate) struct GArray<T: Elem> {
    pub dist: Dist,
    pub local: Vec<T>,
    /// The node this partition belongs to.
    node: usize,
    /// The global range `node` owns under a contiguous `dist` (refreshed by
    /// [`GArrayObj::migrate_rebind`]), so the access path's "local?" is two
    /// compares. Empty for cyclic layouts, which ask `dist`.
    owned: Range<usize>,
    /// Write log for the current phase, one segment per VP merge.
    wlog: WLog<T>,
    /// Remote elements whose phase-frozen value this node has learned —
    /// from response bundles or owner-pushed refreshes. Consulted before a
    /// remote read is queued ([`VpCell::charge_get`], and a bulk read's
    /// [`Self::cached_span`]); cleared when the array takes writes
    /// (`coherence.rs`).
    rcache: RunCache<T>,
    /// The other half of [`Self::cache_merge`]'s double buffer (kept for
    /// its capacity only).
    rcache_spare: RunCache<T>,
    /// Response arena: the values of every read-response part received this
    /// global phase, appended part by part. A parked read's slot holds its
    /// value's position here ([`VpSlots::fill`]), so delivery costs one
    /// `u32` per waiter however many VPs share the element. Cleared at
    /// global phase end — every reader has resumed by then.
    arena: Vec<T>,
}

impl<T: Elem> GArray<T> {
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
            node,
            wlog: WLog::default(),
            rcache: RunCache::default(),
            rcache_spare: RunCache::default(),
            arena: Vec::new(),
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

    /// Local offset of an element the exchange protocol routed here.
    fn offset_of_owned(&self, idx: u64) -> usize {
        self.owned_offset(idx as usize)
            .expect("exchange entry for an element this node does not own")
    }

    /// The response value parked at arena position `pos` (from a filled
    /// slot of the current global phase).
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

/// Type-erased face of `GArray<T>` for the exchange path (serving reads,
/// draining and applying write bundles). `Send + Sync` because [`Inner`]
/// is shared across the host worker threads that poll VPs.
pub(crate) trait GArrayObj: Send + Sync {
    fn as_any(&mut self) -> &mut dyn Any;
    fn as_any_ref(&self) -> &dyn Any;
    /// Read the values at `idxs` (global indices owned by this node);
    /// returns the payload (`Vec<T>`) and its modeled byte size.
    fn serve(&self, idxs: &[u64]) -> (Box<dyn Any + Send>, usize);
    /// Requester side: append a response part's values (`Vec<T>`) to the
    /// response arena and return the arena position of the first — value
    /// `i` sits at the returned position plus `i`, which is what the waiters'
    /// slots are filled with. `cache_idxs`, when given, holds the values'
    /// global indices (ascending) and populates the read cache.
    fn absorb_response(&mut self, values: Box<dyn Any + Send>, cache_idxs: Option<&[u64]>) -> u32;
    /// Drop the phase's response values (global phase end).
    fn arena_clear(&mut self);
    /// Whether the response arena is empty (phase-lifetime assertion).
    fn arena_is_empty(&self) -> bool;
    /// Drain the write buffer into per-destination parcels (the destination
    /// may be this node itself), reporting write-write conflicts among this
    /// node's VPs to `conflicts` (the checker's, when it is on).
    fn drain_writes(&mut self, conflicts: Option<Conflicts<'_>>) -> Vec<WriteParcel>;
    /// Owner side: apply `(source node, payload)` parcels; resolution order
    /// is deterministic. Returns the number of entries applied and — only
    /// if `list_written`, which is the refresh-push protocol asking
    /// (DESIGN.md §13) — the distinct written global indices in ascending
    /// order. `touch` is called with each resolved local offset before the
    /// store lands — the executor wires it to [`TileBudget::touch`] so
    /// applied writes bump tile recency (write-through without admission,
    /// DESIGN.md §18).
    fn apply_writes(
        &mut self,
        parcels: Vec<(u32, Box<dyn Any + Send>)>,
        touch: &mut dyn FnMut(usize),
        list_written: bool,
    ) -> (u64, Vec<u64>);
    /// Whether any writes are buffered (used to assert clean phase ends
    /// and to compute per-array cache-invalidation bits).
    fn has_pending_writes(&self) -> bool;
    /// Read the post-apply values at `idxs` (owned global indices) into a
    /// refresh-push payload (`Vec<T>`). Like [`Self::serve`], but `Sync`
    /// too: the entries park in [`Inner::coherence`] between dissemination
    /// rounds.
    fn refresh_collect(&self, idxs: &[u64]) -> Box<dyn Any + Send + Sync>;
    /// Copy the `take` position ranges of a refresh payload (`Vec<T>`);
    /// returns the subset payload and its modeled wire byte size — `None`
    /// if `values` is not a payload of this array's element type.
    fn refresh_select(
        &self,
        values: &dyn Any,
        take: &[Range<usize>],
    ) -> Option<(Box<dyn Any + Send + Sync>, u64)>;
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
    /// payload (`Vec<T>`); returns the payload and its modeled byte size.
    fn migrate_extract(&self, range: std::ops::Range<usize>) -> (Box<dyn Any + Send>, u64);
    /// Repartitioning: rebind this node's partition to `dist` (a contiguous
    /// layout), keeping the elements retained from the old span and
    /// installing `parts` — `(global start index, Vec<T> payload)` received
    /// from peers — into the acquired stretch. Requires an empty write
    /// buffer (the hook runs after writes apply). Returns the number of
    /// elements that arrived from peers.
    fn migrate_rebind(
        &mut self,
        node: usize,
        dist: Dist,
        parts: Vec<(usize, Box<dyn Any + Send>)>,
    ) -> u64;
    /// Modeled payload bytes of `node`'s owned partition (failover
    /// accounting: the footprint a buddy adopts, DESIGN.md §15).
    fn owned_bytes(&self, node: usize) -> u64;
    /// Copy the local partition for a super-step snapshot; returns the
    /// payload (`Vec<T>`) and its modeled byte size.
    fn snapshot_local(&self) -> (Box<dyn Any + Send + Sync>, u64);
    /// Overwrite the local partition from a snapshot taken by
    /// [`Self::snapshot_local`] (crash recovery); returns bytes restored,
    /// or a description of why the snapshot cannot be applied (payload
    /// type or shape mismatch) — the executor wraps the error into a
    /// structured [`crate::error::RecoveryError`] naming node and phase.
    fn restore_local(&mut self, snap: &dyn Any) -> Result<u64, String>;
}

impl<T: Elem> GArrayObj for GArray<T> {
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn as_any_ref(&self) -> &dyn Any {
        self
    }

    fn serve(&self, idxs: &[u64]) -> (Box<dyn Any + Send>, usize) {
        let values: Vec<T> = idxs
            .iter()
            .map(|&i| self.local[self.offset_of_owned(i)])
            .collect();
        let bytes = values.wire_size();
        (Box::new(values), bytes)
    }

    fn absorb_response(&mut self, values: Box<dyn Any + Send>, cache_idxs: Option<&[u64]>) -> u32 {
        let values = values
            .downcast::<Vec<T>>()
            .expect("response payload type mismatch");
        if let Some(idxs) = cache_idxs {
            debug_assert_eq!(values.len(), idxs.len());
            self.cache_merge(idxs.iter().copied().zip(values.iter().copied()));
        }
        let base = self.arena.len();
        self.arena.extend_from_slice(&values);
        // Slots hold `u32` positions; the end bounds every one of them.
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

    fn drain_writes(&mut self, conflicts: Option<Conflicts<'_>>) -> Vec<WriteParcel> {
        if self.wlog.is_empty() {
            return Vec::new();
        }
        let parcels = self.wlog.drain("", Some(&self.dist), conflicts);
        parcels
            .into_iter()
            .map(|(dest, cols)| WriteParcel {
                dest,
                entries: cols.idx.len() as u64,
                bytes: cols.bytes,
                payload: Box::new(cols),
            })
            .collect()
    }

    fn apply_writes(
        &mut self,
        mut parcels: Vec<(u32, Box<dyn Any + Send>)>,
        touch: &mut dyn FnMut(usize),
        list_written: bool,
    ) -> (u64, Vec<u64>) {
        // Deterministic application order: by element, then by source node.
        parcels.sort_by_key(|(src, _)| *src);
        let parcels: Vec<Box<WriteCols<T>>> = parcels
            .into_iter()
            .map(|(_, p)| p.downcast().expect("write parcel type mismatch"))
            .collect();
        let mut written = Vec::new();
        let applied = merge_parcels(&parcels, |idx, value| {
            let off = self.offset_of_owned(idx);
            touch(off);
            self.local[off] = value;
            if list_written {
                written.push(idx);
            }
        });
        (applied, written)
    }

    fn has_pending_writes(&self) -> bool {
        !self.wlog.is_empty()
    }

    fn refresh_collect(&self, idxs: &[u64]) -> Box<dyn Any + Send + Sync> {
        let values: Vec<T> = idxs
            .iter()
            .map(|&i| self.local[self.offset_of_owned(i)])
            .collect();
        Box::new(values)
    }

    fn refresh_select(
        &self,
        values: &dyn Any,
        take: &[Range<usize>],
    ) -> Option<(Box<dyn Any + Send + Sync>, u64)> {
        let values = values.downcast_ref::<Vec<T>>()?;
        let mut subset: Vec<T> = Vec::with_capacity(take.iter().map(Range::len).sum());
        for range in take {
            subset.extend_from_slice(&values[range.clone()]);
        }
        let bytes = if subset.is_empty() {
            0
        } else {
            subset.wire_size() as u64
        };
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

    fn migrate_extract(&self, range: std::ops::Range<usize>) -> (Box<dyn Any + Send>, u64) {
        let values: Vec<T> = if range.is_empty() {
            Vec::new()
        } else {
            // Contiguous layouts keep local offsets dense, so the whole
            // stretch starts at the first element's offset.
            let base = self.dist.local_offset(range.start);
            (0..range.len()).map(|k| self.local[base + k]).collect()
        };
        let bytes = if values.is_empty() {
            0
        } else {
            values.wire_size() as u64
        };
        (Box::new(values), bytes)
    }

    fn migrate_rebind(
        &mut self,
        node: usize,
        dist: Dist,
        parts: Vec<(usize, Box<dyn Any + Send>)>,
    ) -> u64 {
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
        for g in lo..hi {
            local[g - new_range.start] = self.local[g - old_range.start];
        }
        let mut arrived = 0u64;
        for (start, payload) in parts {
            let values = payload
                .downcast::<Vec<T>>()
                .expect("migration payload type mismatch");
            arrived += values.len() as u64;
            for (k, v) in values.into_iter().enumerate() {
                let g = start + k;
                debug_assert!(new_range.contains(&g), "migrated element {g} not acquired");
                local[g - new_range.start] = v;
            }
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

    fn snapshot_local(&self) -> (Box<dyn Any + Send + Sync>, u64) {
        let copy = self.local.clone();
        let bytes = copy.wire_size() as u64;
        (Box::new(copy), bytes)
    }

    fn restore_local(&mut self, snap: &dyn Any) -> Result<u64, String> {
        let snap = snap
            .downcast_ref::<Vec<T>>()
            .ok_or_else(|| "snapshot payload type mismatch".to_string())?;
        if snap.len() != self.local.len() {
            return Err(format!(
                "snapshot shape does not match the partition \
                 (snapshot {} elements, partition {})",
                snap.len(),
                self.local.len()
            ));
        }
        self.local.clone_from(snap);
        Ok(snap.wire_size() as u64)
    }
}

// ---------------------------------------------------------------------------
// Node shared array storage.
// ---------------------------------------------------------------------------

/// One node's instance of a node-shared array plus its phase write log.
/// Buffered accumulates stay raw, rank-keyed contributions for the same
/// reason as [`GArray`]'s: node-shared accumulates may happen inside a
/// global phase, whose poll-round structure wave pipelining changes.
pub(crate) struct NArray<T: Elem> {
    pub data: Vec<T>,
    wlog: WLog<T>,
}

impl<T: Elem> NArray<T> {
    pub fn new(len: usize) -> Self {
        NArray {
            data: vec![T::default(); len],
            wlog: WLog::default(),
        }
    }
}

/// Type-erased face of `NArray<T>` for end-of-phase application.
pub(crate) trait NArrayObj: Send + Sync {
    fn as_any(&mut self) -> &mut dyn Any;
    fn as_any_ref(&self) -> &dyn Any;
    /// Apply the buffered writes, reporting write-write conflicts to
    /// `conflicts` like [`GArrayObj::drain_writes`]. Returns the modeled
    /// bytes of the entries applied (a write parcel's, had they travelled).
    fn apply(&mut self, conflicts: Option<Conflicts<'_>>) -> u64;
    /// Copy the node instance for a super-step snapshot (payload plus
    /// modeled byte size).
    fn snapshot_local(&self) -> (Box<dyn Any + Send + Sync>, u64);
    /// Overwrite the node instance from a snapshot (crash recovery);
    /// returns bytes restored, or a description of why the snapshot
    /// cannot be applied (payload type or shape mismatch).
    fn restore_local(&mut self, snap: &dyn Any) -> Result<u64, String>;
}

impl<T: Elem> NArrayObj for NArray<T> {
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn as_any_ref(&self) -> &dyn Any {
        self
    }

    fn apply(&mut self, conflicts: Option<Conflicts<'_>>) -> u64 {
        if self.wlog.is_empty() {
            return 0;
        }
        // The global path with this node as the only destination and the
        // only source.
        let cols = self.wlog.drain("node ", None, conflicts).pop();
        let cols = cols.map(|(_, cols)| Box::new(cols));
        merge_parcels(cols.as_slice(), |idx, value| {
            self.data[idx as usize] = value
        });
        cols.map_or(0, |cols| cols.bytes as u64)
    }

    fn snapshot_local(&self) -> (Box<dyn Any + Send + Sync>, u64) {
        let copy = self.data.clone();
        let bytes = copy.wire_size() as u64;
        (Box::new(copy), bytes)
    }

    fn restore_local(&mut self, snap: &dyn Any) -> Result<u64, String> {
        let snap = snap
            .downcast_ref::<Vec<T>>()
            .ok_or_else(|| "snapshot payload type mismatch".to_string())?;
        if snap.len() != self.data.len() {
            return Err(format!(
                "snapshot shape does not match the node array \
                 (snapshot {} elements, array {})",
                snap.len(),
                self.data.len()
            ));
        }
        self.data.clone_from(snap);
        Ok(snap.wire_size() as u64)
    }
}

// ---------------------------------------------------------------------------
// Phase bookkeeping and traffic accounting.
// ---------------------------------------------------------------------------

/// Barrier/phase bookkeeping for the current `ppm_do`.
#[derive(Debug, Default)]
pub(crate) struct PhaseState {
    /// Kind of the currently open phase, if any VP has entered one.
    pub open: Option<PhaseKind>,
    /// VPs that entered the current phase.
    pub entered: usize,
    /// VPs waiting at the current phase's end barrier.
    pub arrived: usize,
    /// Completed global phases (used to tag runtime messages).
    pub global_seq: u64,
    /// Completed node phases.
    pub node_seq: u64,
}

/// One completed phase, as recorded in the node's phase log — the
/// observability channel for understanding where a PPM program's time
/// goes. Retrieved with [`crate::NodeCtx::take_phase_log`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseRecord {
    /// Global or node phase.
    pub kind: PhaseKind,
    /// Max per-core compute charged during the phase.
    pub compute: SimTime,
    /// Owner-side service CPU (remote reads served, writes applied).
    pub service: SimTime,
    /// Communication time charged (gap + overhead + wave latency +
    /// barrier), as seen by this node.
    pub comm: SimTime,
    /// Request flush rounds.
    pub waves: u64,
    /// Modeled bytes sent during the phase.
    pub bytes_out: u64,
    /// Modeled bytes received during the phase.
    pub bytes_in: u64,
}

/// Per-phase communication totals, turned into simulated time by the
/// executor's cost formula at each global phase end.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Traffic {
    pub req_bundles_out: u64,
    pub req_entries_out: u64,
    pub req_bytes_out: u64,
    pub req_bundles_in: u64,
    pub req_entries_in: u64,
    pub req_bytes_in: u64,
    pub resp_bundles_out: u64,
    pub resp_bytes_out: u64,
    pub resp_bundles_in: u64,
    pub resp_bytes_in: u64,
    pub write_bundles_out: u64,
    pub write_entries_out: u64,
    pub write_bytes_out: u64,
    pub write_bundles_in: u64,
    pub write_entries_in: u64,
    pub write_bytes_in: u64,
    /// Adaptive repartitioning (DESIGN.md §14): non-empty migration
    /// bundles and their bytes, charged into the rebalancing phase's gap
    /// and overhead terms by the executor's cost formula.
    pub migr_bundles_out: u64,
    pub migr_bytes_out: u64,
    pub migr_bundles_in: u64,
    pub migr_bytes_in: u64,
    pub waves: u64,
    /// Refresh-push bytes sent riding barrier messages (DESIGN.md §13).
    /// Charged into the *next* phase's gap term for every party — the
    /// barrier closes this phase, so its payload overlaps the following
    /// phase's work, symmetrically and deterministically.
    pub refresh_bytes_out: u64,
    /// Refresh-push bytes received riding barrier messages.
    pub refresh_bytes_in: u64,
    /// Barrier sends that carried a refresh payload. Not bundles — nothing
    /// here reaches `Counters::bundles_sent` (`coherence.rs` states the
    /// rule); the tracer's phase summary reports it beside the bundle
    /// columns.
    pub refresh_bundles_out: u64,
    /// Snapshot-replica frame bytes streamed to the buddy riding the
    /// round-0 barrier message (DESIGN.md §15). Like refresh bytes, they
    /// are charged into the *next* phase's gap term — the barrier closes
    /// this phase, so the frame overlaps the following phase's work.
    pub replica_bytes_out: u64,
    /// Snapshot-replica frame bytes received from the buddy's predecessor.
    pub replica_bytes_in: u64,
    /// Pipelining: compute merged while a wave had at least one destination
    /// already consumed and at least one still pending — work genuinely
    /// overlapped with in-flight responses.
    pub pipelined_compute: SimTime,
    /// Pipelining: response latency that overlapped compute could hide —
    /// one response leg per completed multi-destination wave. The phase
    /// cost formula subtracts `min(pipelined_compute, pipeline_hideable)`
    /// from the wave latency term.
    pub pipeline_hideable: SimTime,
    /// Reliability: extra virtual transmissions this phase (retransmitted
    /// attempts + duplicate copies) — each pays per-message overhead.
    /// Cumulative acks deliberately do *not* appear here: they are sent
    /// from the receive pump, whose position relative to the phase-time
    /// fold depends on real-time message interleaving, so charging them
    /// would break clock determinism. They are modeled as piggybacked
    /// (free in simulated time) and show up only in [`Counters`].
    ///
    /// [`Counters`]: ppm_simnet::Counters
    pub rel_extra_msgs: u64,
    /// Reliability: retransmission backoff plus injected wire delay
    /// accumulated by data-plane sends this phase (barrier/collective
    /// delay rides on `Message::ts` instead; see `reliable.rs`).
    pub rel_delay: SimTime,
    /// Tracing only: estimated unoverlapped elapsed time of the waves run
    /// so far this phase, used to place each `wave` instant on a real
    /// timeline inside the phase (the clock itself is frozen until phase
    /// end; see DESIGN.md §11). Never feeds the charged phase time.
    pub wave_elapsed: SimTime,
}

// ---------------------------------------------------------------------------
// Inner: the per-node runtime state.
// ---------------------------------------------------------------------------

/// Outcome of a shared read issued by a VP.
pub(crate) enum GetOutcome<T> {
    /// The element is owned locally, or remote and in the read cache; here
    /// is its value.
    Local(T),
    /// The element is remote and not cached: charged, not yet requested
    /// (see [`VpCell::charge_get`]).
    Miss,
    /// The element is owned locally, at this local offset, but its
    /// partition tile is spilled (pseudo-streaming, DESIGN.md §18). The VP
    /// parks slot-free; the executor refills the tile and wakes it, and the
    /// deferred re-read ([`VpCell::read_resident`]) is charge-free — the
    /// access was fully charged here, exactly like the in-core path.
    LocalPending(usize),
}

// ---------------------------------------------------------------------------
// Pseudo-streaming tile residency (DESIGN.md §18).
// ---------------------------------------------------------------------------

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
    /// updated by VP reads, which see only the frozen state.
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
/// the configured byte budget. Purely a *model* — `GArray::local` always
/// holds every element (it stands for node memory plus the backing
/// store), so spill/refill moves no data; exchange-path reads (serve,
/// refresh, snapshot, migration) stream from the backing store without
/// admission. What residency gates is the VP read hot path: a read of a
/// cold tile parks the VP ([`GetOutcome::LocalPending`]) until the
/// executor refills the tile, evicting the least-recently-touched
/// resident tiles to stay under budget.
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
            arrays: Vec::new(),
            clock: 0,
            resident_bytes: 0,
            peak_bytes: 0,
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

    /// Register array `id`'s local partition at allocation.
    pub fn register(&mut self, id: u32, elem_bytes: usize, local_len: usize) {
        let at = self.admit(elem_bytes.max(1) as u64, local_len);
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

    /// Array `id`'s tiling, if its partition is tiled at all — `None` with
    /// streaming off or for an untiled array, every element of which is
    /// always resident. A bulk read asks once per poll.
    pub fn tiled(&self, id: u32) -> Option<&ArrayTiles> {
        self.arrays.get(id as usize).filter(|a| a.tile_elems > 0)
    }

    /// Driver-side recency touch for a write applied at local offset
    /// `off` (phase-end exchange). Cold tiles are written through to the
    /// backing store without admission, so only resident tiles move in
    /// the recency order.
    pub fn touch(&mut self, id: u32, off: usize) {
        let Some(a) = self.arrays.get_mut(id as usize) else {
            return;
        };
        if a.tile_elems == 0 {
            return;
        }
        let t = off / a.tile_elems;
        if a.resident[t] {
            self.clock += 1;
            a.last_touch[t] = self.clock;
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

/// The part of the node state VP polls read and never write — everything
/// a phase body sees frozen. Each poll works on its own `Arc` clone of it,
/// lock-free; the driver mutates it between poll rounds through
/// [`Inner::thaw`] (DESIGN.md §12).
pub(crate) struct Frozen {
    pub garrays: Vec<Box<dyn GArrayObj>>,
    pub narrays: Vec<Box<dyn NArrayObj>>,
    /// Pseudo-streaming tile residency under `cfg.tile_budget`
    /// (DESIGN.md §18). With the budget off every query answers "hot" and
    /// the streaming paths are never taken.
    pub tile_budget: TileBudget,
    /// Completed-phase counter; barrier futures wait for it to advance.
    pub epoch: u64,
}

/// All per-node runtime state the VPs and the executor share.
pub(crate) struct Inner {
    pub frozen: Arc<Frozen>,
    /// Reads parked in VP slot tables but not yet answered by a wave
    /// (incremented when scratches merge, decremented per slot fill).
    pub outstanding_reads: usize,
    /// Outgoing read requests queued for the next wave — dense, indexed by
    /// destination node id, so every iteration that feeds the wire walks
    /// destinations in ascending order (never hash-iteration order).
    pub reqs: Vec<Vec<QueuedReq>>,
    pub phase: PhaseState,
    pub traffic: Traffic,
    /// Per-core compute accumulated in the current phase (VP charges and
    /// shared-access overheads).
    pub core_compute: Vec<SimTime>,
    /// Owner-side service CPU spent this phase.
    pub service_time: SimTime,
    /// Event counters, merged into the endpoint at exchange points.
    pub counters: Counters,
    /// Counters from servicing peers' read requests, parked until the
    /// serviced phase's end folds them into `counters` (`exec::phase_end`).
    /// A peer that is ahead of us can deliver a request early (during our
    /// clock barrier, or a `ppm_do` prologue collective) — a real-time
    /// accident — so crediting services immediately would make per-phase
    /// counter deltas in the trace depend on host scheduling. Parking them keeps
    /// every snapshot of the merged counters (which excludes this bucket)
    /// deterministic; totals are unaffected because the bucket always
    /// drains into `counters` by job end.
    pub deferred_service_ctrs: Counters,
    /// VPs of the current `ppm_do` that have not finished.
    pub live_vps: usize,
    /// Global rank of this node's VP 0 in the current `ppm_do`.
    pub vp_base_global: u64,
    /// Total VPs across all nodes in the current `ppm_do`.
    pub total_vps_global: u64,
    /// VPs woken by the executor releasing a barrier.
    pub barrier_waiters: Vec<usize>,
    /// Participation mode of the current `ppm_do`.
    pub(crate) do_mode: DoMode,
    /// Completed-phase records (drained by `NodeCtx::take_phase_log`).
    pub phase_log: Vec<PhaseRecord>,
    /// Conformance checker (present iff `cfg.checker`).
    pub(crate) checker: Option<Checker>,
    /// Violations flushed at phase barriers (drained by
    /// `NodeCtx::take_violations`).
    pub violations: Vec<PhaseViolation>,
    /// Merged-counter snapshot at the last phase boundary, used by the
    /// tracer to attach per-phase [`Counters`] deltas to phase events.
    /// Only maintained while tracing is enabled.
    pub ctr_base: Counters,
    /// Read-cache coherence (DESIGN.md §13).
    pub coherence: Coherence,
    /// Trace-guided balancer (DESIGN.md §14).
    pub balancer: Balancer,
    /// Fail-stop tolerance (DESIGN.md §10, §15).
    pub failover: FailState,
    /// Cold-tile faults merged from VP scratches this poll round, as
    /// ascending distinct `(array, tile)`; the executor services the minimum
    /// group per fault round and clears the rest (parked VPs re-record
    /// still-cold faults when re-polled).
    pub pending_tile_faults: Vec<(u32, u32)>,
    /// VPs parked on cold-tile faults, woken (pushed back into the ready
    /// list) after each fault-service round.
    pub fault_waiters: Vec<usize>,
}

impl Inner {
    pub fn new(cfg: PpmConfig) -> Self {
        Inner {
            frozen: Arc::new(Frozen {
                garrays: Vec::new(),
                narrays: Vec::new(),
                tile_budget: TileBudget::new(cfg.tile_budget),
                epoch: 0,
            }),
            outstanding_reads: 0,
            reqs: vec![Vec::new(); cfg.nodes()],
            phase: PhaseState::default(),
            traffic: Traffic::default(),
            core_compute: vec![SimTime::ZERO; cfg.cores_per_node()],
            service_time: SimTime::ZERO,
            counters: Counters::default(),
            deferred_service_ctrs: Counters::default(),
            live_vps: 0,
            vp_base_global: 0,
            total_vps_global: 0,
            barrier_waiters: Vec::new(),
            do_mode: DoMode::Collective,
            phase_log: Vec::new(),
            checker: cfg.checker.then(Checker::default),
            violations: Vec::new(),
            ctr_base: Counters::default(),
            coherence: Coherence::new(cfg.read_cache, cfg.nodes()),
            balancer: Balancer::default(),
            failover: FailState::default(),
            pending_tile_faults: Vec::new(),
            fault_waiters: Vec::new(),
        }
    }

    /// The frozen state, mutably. Only the driver calls this, and only
    /// between poll rounds: every poll drops its clone before its result
    /// reaches the driver ([`PollGuard`]), so the handle is unique here.
    pub fn thaw(&mut self) -> &mut Frozen {
        self.thaw_with_checker().0
    }

    /// [`Self::thaw`], and the checker for the write logs drained there to
    /// report to.
    pub fn thaw_with_checker(&mut self) -> (&mut Frozen, Option<&mut Checker>) {
        let frozen = Arc::get_mut(&mut self.frozen);
        let frozen = frozen.expect("frozen node state mutated during a VP poll");
        (frozen, self.checker.as_mut())
    }

    /// The per-core compute maximum of the current phase so far.
    pub fn core_compute_max(&self) -> SimTime {
        (self.core_compute.iter().copied())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Take the phase's compute — the per-core maximum — and zero the
    /// accumulators.
    pub fn take_core_compute(&mut self) -> SimTime {
        let max = self.core_compute_max();
        self.core_compute.fill(SimTime::ZERO);
        max
    }

    /// Close the open phase: no VP is in one, the barrier futures' epoch
    /// advances, one more barrier is counted.
    pub fn close_phase(&mut self) {
        self.phase.open = None;
        self.phase.entered = 0;
        self.phase.arrived = 0;
        self.thaw().epoch += 1;
        self.counters.barriers += 1;
    }

    /// The last step of publishing a phase of `kind`: apply the node-shared
    /// writes, then — every VP has merged and every write log has drained —
    /// close the phase's conformance report, one sorted batch per phase.
    /// Returns `(array id, modeled bytes applied)` per node-shared array
    /// that took writes.
    pub fn publish_node_writes(&mut self, kind: PhaseKind) -> Vec<(usize, u64)> {
        let (arrays, mut checker) = self.thaw_with_checker();
        let mut wrote = Vec::new();
        for (id, na) in arrays.narrays.iter_mut().enumerate() {
            let checker = checker.as_deref_mut();
            let bytes = na.apply(checker.map(|c| c.conflicts_in(Space::Node, id as u32, kind)));
            if bytes > 0 {
                wrote.push((id, bytes));
            }
        }
        let found = checker.map(Checker::end_phase).unwrap_or_default();
        self.violations.extend(found);
        wrote
    }

    /// A VP enters a phase of `kind`; all concurrent VPs must agree.
    /// Called from [`merge_vp`] in ascending rank order, so a mismatch
    /// panics on the same VP it would under a sequential schedule.
    pub fn enter_phase(&mut self, kind: PhaseKind) {
        assert!(
            !(self.do_mode == DoMode::Local && kind == PhaseKind::Global),
            "global phases are not allowed inside ppm_do_local \
             (asynchronous node-level mode); use ppm_do"
        );
        match self.phase.open {
            None => {
                self.phase.open = Some(kind);
                self.phase.entered = 1;
            }
            Some(k) => {
                if k != kind {
                    // Phase structure is corrupt: report as a conformance
                    // violation and abort (the runtime cannot continue a
                    // mismatched super-step).
                    let v = PhaseViolation::PhaseKindMismatch {
                        open: k,
                        entered: kind,
                    };
                    panic!("{v}");
                }
                self.phase.entered += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elem::AccumElem;

    impl<T: AccumElem> WLog<T> {
        /// An empty VP-side log that knows the element's combiner.
        fn scratch() -> Self {
            WLog {
                combine: Some(T::combine),
                ..WLog::default()
            }
        }

        /// Log one op as VP `rank`'s whole merge (the node's VP 0 has
        /// global rank 0).
        fn buffer(&mut self, rank: u32, idx: usize, kind: WKind, val: T) {
            let mut one = Self::scratch();
            let idx = idx as u64;
            one.recs.push(WRec {
                idx,
                val,
                vp: rank,
                kind,
            });
            self.append(0, &mut one);
        }
    }

    const ADD: WKind = WKind::Accum(AccumOp::Add);

    /// `(idx, kind, [(rank, value)])`.
    type Entry<'a> = (u64, WKind, &'a [(u64, f64)]);

    /// A hand-built wire parcel.
    fn cols(entries: &[Entry<'_>]) -> Box<dyn Any + Send> {
        let mut c = WriteCols {
            combine: Some(f64::combine as fn(AccumOp, f64, f64) -> f64),
            ..WriteCols::default()
        };
        for &(idx, kind, parts) in entries {
            c.idx.push(idx);
            c.kind.push(kind);
            c.starts.push(c.vals.len() as u32);
            c.ranks.extend(parts.iter().map(|p| p.0));
            c.vals.extend(parts.iter().map(|p| p.1));
        }
        Box::new(c)
    }

    fn payload<T: Elem>(p: WriteParcel) -> Box<WriteCols<T>> {
        p.payload.downcast().unwrap()
    }

    #[test]
    fn vp_slots_lifecycle() {
        let mut t = VpSlots::default();
        let s0 = t.alloc();
        let s1 = t.alloc();
        assert_ne!(s0, s1);
        assert!(t.try_take(s0).is_none());
        t.fill(s0, 7);
        assert_eq!(t.try_take(s0), Some(7));
        // freed slot is reused
        let s2 = t.alloc();
        assert_eq!(s2, s0);
        t.fill(s1, 2);
        t.fill(s2, 3);
        assert_eq!(t.try_take(s1), Some(2));
        assert_eq!(t.try_take(s2), Some(3));
    }

    #[test]
    #[should_panic(expected = "filled twice")]
    fn double_fill_panics() {
        let mut t = VpSlots::default();
        let s = t.alloc();
        t.fill(s, 1);
        t.fill(s, 2);
    }

    /// A slot released by a dropped future is reusable exactly once: at
    /// once if its response had arrived, else after the late fill — which
    /// must not panic and must not hand the stale position to anyone.
    #[test]
    fn released_slots_free_without_leaking() {
        let mut t = VpSlots::default();
        let (early, late) = (t.alloc(), t.alloc());
        t.fill(early, 5);
        t.release(early);
        assert_eq!(t.alloc(), early, "answered slot frees on release");
        t.release(late);
        assert_eq!(
            t.alloc(),
            2,
            "a cancelled slot stays reserved until its fill"
        );
        t.fill(late, 9);
        assert_eq!(t.alloc(), late, "the late fill frees it");
        assert!(
            t.try_take(late).is_none(),
            "reallocated slot starts waiting"
        );
    }

    /// Response parts append to the arena in arrival order and report
    /// their base position; the cache learns the same values by one sorted
    /// merge (new indices interleave, known ones refresh); clearing the
    /// arena leaves the cache alone.
    #[test]
    fn response_arena_and_cache_merge() {
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
    #[test]
    fn run_cache_equals_a_sorted_map() {
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

    #[test]
    fn assign_last_writer_wins_locally() {
        let mut ga: GArray<f64> = GArray::new(Dist::block(4, 1), 0);
        ga.wlog.buffer(0, 2, WKind::Assign, 1.0);
        ga.wlog.buffer(1, 2, WKind::Assign, 2.0);
        // A later merge of the lower rank still loses to rank 1.
        ga.wlog.buffer(0, 2, WKind::Assign, 1.5);
        // Within a rank, program order decides.
        ga.wlog.buffer(1, 3, WKind::Assign, 7.0);
        ga.wlog.buffer(1, 3, WKind::Assign, 8.0);
        let parcels = ga.drain_writes(None);
        assert_eq!(parcels.len(), 1);
        let c = payload::<f64>(parcels.into_iter().next().unwrap());
        assert_eq!(c.idx, vec![2, 3]);
        assert_eq!(c.kind, vec![WKind::Assign; 2]);
        assert_eq!((c.ranks, c.vals), (vec![1, 1], vec![2.0, 8.0]));
    }

    #[test]
    fn accum_merges_locally() {
        let mut ga: GArray<u64> = GArray::new(Dist::block(4, 2), 0);
        ga.wlog.buffer(0, 3, ADD, 5);
        ga.wlog.buffer(0, 3, ADD, 7);
        let parcels = ga.drain_writes(None);
        assert_eq!(parcels.len(), 1);
        assert_eq!(parcels[0].dest, 1); // idx 3 lives on node 1 of 2
        assert_eq!(parcels[0].entries, 1); // merged
        assert_eq!(parcels[0].bytes, 9 + 8, "one combined value on the wire");
    }

    /// Contributions ship in ascending (rank, program order) even when the
    /// log is not: a VP that parked mid-phase merges again after its
    /// higher-ranked neighbours.
    #[test]
    fn drain_orders_contributions_by_rank_then_program_order() {
        let mut ga: GArray<f64> = GArray::new(Dist::block(2, 1), 0);
        for (rank, val) in [(4, 1.0), (5, 2.0), (4, 3.0), (5, 4.0), (4, 5.0)] {
            ga.wlog.buffer(rank, 1, ADD, val);
        }
        let c = payload::<f64>(ga.drain_writes(None).pop().unwrap());
        assert_eq!((c.idx, c.starts), (vec![1], vec![0]));
        assert_eq!(c.ranks, vec![4, 4, 4, 5, 5]);
        assert_eq!(c.vals, vec![1.0, 3.0, 5.0, 2.0, 4.0]);
    }

    /// Mixed put/accumulate on one element is detected when the log
    /// resolves at the phase boundary (buffering itself is append-only).
    #[test]
    #[should_panic(expected = "put and accumulate mixed")]
    fn mixed_write_kinds_panic() {
        let mut ga: GArray<u64> = GArray::new(Dist::block(4, 1), 0);
        ga.wlog.buffer(0, 0, WKind::Assign, 1);
        ga.wlog.buffer(0, 0, ADD, 1);
        ga.drain_writes(None);
    }

    #[test]
    #[should_panic(expected = "node element 0: put and accumulate mixed")]
    fn node_mixed_write_kinds_panic() {
        let mut na: NArray<u64> = NArray::new(2);
        na.wlog.buffer(0, 0, ADD, 1);
        na.wlog.buffer(0, 0, WKind::Assign, 1);
        na.apply(None);
    }

    #[test]
    #[should_panic(expected = "conflicting accumulate operators")]
    fn conflicting_accum_ops_panic() {
        let mut ga: GArray<u64> = GArray::new(Dist::block(4, 1), 0);
        ga.wlog.buffer(0, 1, ADD, 1);
        ga.wlog.buffer(0, 1, WKind::Accum(AccumOp::Max), 2);
        ga.drain_writes(None);
    }

    #[test]
    fn apply_resolves_across_sources_deterministically() {
        let mut ga: GArray<f64> = GArray::new(Dist::block(4, 1), 0);
        // Two "remote" parcels plus a local one, unsorted source order.
        let p2 = cols(&[(1, WKind::Assign, &[(9, 20.0)])]);
        let p0 = cols(&[(1, WKind::Assign, &[(2, 10.0)]), (2, ADD, &[(0, 1.0)])]);
        let p1 = cols(&[(2, ADD, &[(5, 2.0)])]);
        let mut touched = Vec::new();
        let (n, written) = ga.apply_writes(
            vec![(2, p2), (0, p0), (1, p1)],
            &mut |off| touched.push(off),
            true,
        );
        assert_eq!(n, 4);
        assert_eq!(written, vec![1, 2], "distinct written indices, ascending");
        assert_eq!(touched, vec![1, 2], "one touch per store");
        assert_eq!(ga.local[1], 20.0, "assign from the highest rank wins");
        assert_eq!(ga.local[2], 3.0, "accumulates sum across sources");
        assert_eq!(ga.local[0], 0.0, "untouched elements stay default");
    }

    /// A lone parcel streams through without the heap; beside an empty
    /// second parcel the same input takes the k-way merge. Both resolve alike:
    /// an assign with its one contribution, accumulates whose ranks arrive
    /// out of order (folded by rank: `(1e16 + -1e16) + 1.0`, not by position).
    #[test]
    fn a_lone_parcel_resolves_like_the_merge() {
        let entries: [Entry<'_>; 3] = [
            (0, WKind::Assign, &[(4, 7.0)]),
            (2, ADD, &[(2, 1.0), (0, 1e16), (1, -1e16)]),
            (3, WKind::Accum(AccumOp::Max), &[(9, 2.0), (3, 5.0)]),
        ];
        let typed = |p: Box<dyn Any + Send>| p.downcast::<WriteCols<f64>>().unwrap();
        let resolved = |parcels: &[Box<WriteCols<f64>>]| {
            let mut stored = Vec::new();
            let applied = merge_parcels(parcels, |idx, v| stored.push((idx, v)));
            (applied, stored)
        };
        let want = (3, vec![(0, 7.0), (2, 1.0), (3, 5.0)]);
        assert_eq!(resolved(&[typed(cols(&entries))]), want);
        assert_eq!(resolved(&[typed(cols(&entries)), typed(cols(&[]))]), want);
        assert_eq!(resolved(&[]), (0, vec![]));
    }

    /// An entry routed to a node that does not own its element is a protocol
    /// bug, and says so — it used to land at whatever offset the *owner*
    /// keeps the element at.
    #[test]
    #[should_panic(expected = "exchange entry for an element this node does not own")]
    fn apply_rejects_an_entry_for_an_element_owned_elsewhere() {
        let mut ga: GArray<f64> = GArray::new(Dist::block(8, 2), 0);
        let stray = cols(&[
            (1, WKind::Assign, &[(0, 1.0)]),
            (6, WKind::Assign, &[(0, 2.0)]),
        ]);
        ga.apply_writes(vec![(1, stray)], &mut |_| {}, true);
    }

    /// Charge per call: a 10 000-element local `get_many` and `put_many` cost
    /// a handful of poll-context entries and downcasts — those of the calls,
    /// the phase's edges and the barrier's polls — and the drain asks the
    /// layout for an owner once per destination run.
    #[test]
    fn bulk_accesses_cost_per_call_not_per_element() {
        const N: usize = 10_000;
        let machine = ppm_simnet::MachineConfig::new(2, 1);
        let cfg = PpmConfig::new(machine).with_host_threads(1);
        let report = crate::run(cfg, |node| {
            let a = node.alloc_global::<u64>(2 * N);
            let lo = node.local_range(&a).start;
            let before = (POLL_ENTRIES.get(), DOWNCASTS.get(), OWNER_LOOKUPS.get());
            node.ppm_do(1, move |vp| async move {
                vp.global_phase(|ph| async move {
                    let got = ph.get_many(&a, lo..lo + N).await;
                    ph.put_many(&a, (lo + 2..lo + N).zip(got.iter().map(|v| v + 1)));
                    // A second destination run: the other node's first two.
                    let far = (lo + N) % (2 * N);
                    ph.put_many(&a, [(far, 5), (far + 1, 5)]);
                })
                .await;
            });
            let (far, own) = node.with_local(&a, |s| (s[..2].to_vec(), s[2..].to_vec()));
            assert_eq!((far, own), (vec![5; 2], vec![1; N - 2]));
            let entries = POLL_ENTRIES.get() - before.0;
            (
                entries,
                DOWNCASTS.get() - before.1,
                OWNER_LOOKUPS.get() - before.2,
            )
        });
        let c = report.total_counters();
        assert_eq!((c.local_accesses, c.remote_puts), (4 * N as u64 - 4, 4));
        for (node, &(entries, downcasts, lookups)) in report.results.iter().enumerate() {
            assert!(entries < 16, "node {node}: {entries} poll-context entries");
            assert!(downcasts < 16, "node {node}: {downcasts} downcasts");
            assert_eq!(lookups, 2, "node {node}: one per destination run");
        }
    }

    /// The canonical accumulate fold runs in ascending VP rank order across
    /// sources — NOT per-source-node partials. The values below are picked
    /// so the two orders give different f64 bits: ranks 0 and 1 cancel
    /// exactly before rank 2 lands, which only happens when rank 1 (from
    /// the *other* node) folds between its neighbors.
    #[test]
    fn accum_fold_is_rank_canonical_across_sources() {
        let mut ga: GArray<f64> = GArray::new(Dist::block(1, 1), 0);
        let from0 = cols(&[(0, ADD, &[(0, 1e16), (2, 1.0)])]);
        let from1 = cols(&[(0, ADD, &[(1, -1e16)])]);
        ga.apply_writes(vec![(0, from0), (1, from1)], &mut |_| {}, true);
        assert_eq!(
            ga.local[0], 1.0,
            "(1e16 + -1e16) + 1.0 — node-partial folding would give 0.0"
        );
    }

    #[test]
    #[should_panic(expected = "mixed across nodes")]
    fn apply_detects_cross_node_mix() {
        let mut ga: GArray<f64> = GArray::new(Dist::block(2, 1), 0);
        let a = cols(&[(0, WKind::Assign, &[(0, 1.0)])]);
        let b = cols(&[(0, ADD, &[(1, 1.0)])]);
        ga.apply_writes(vec![(0, a), (1, b)], &mut |_| {}, true);
    }

    #[test]
    #[should_panic(expected = "element 1: conflicting accumulate operators")]
    fn apply_detects_cross_node_operator_conflict() {
        let mut ga: GArray<f64> = GArray::new(Dist::block(2, 1), 0);
        let a = cols(&[(0, ADD, &[(0, 1.0)]), (1, ADD, &[(0, 1.0)])]);
        let b = cols(&[(1, WKind::Accum(AccumOp::Min), &[(1, 1.0)])]);
        ga.apply_writes(vec![(0, a), (1, b)], &mut |_| {}, true);
    }

    /// CSR offsets are `u32`: the last representable length passes, the
    /// next one trips the explicit assert (not a silent wrap).
    #[test]
    fn csr_offsets_are_checked_at_the_u32_boundary() {
        assert_eq!(csr_offset(0), 0);
        assert_eq!(csr_offset(u32::MAX as usize), u32::MAX);
        let over = std::panic::catch_unwind(|| csr_offset(u32::MAX as usize + 1));
        let msg = *over.unwrap_err().downcast::<&str>().unwrap();
        assert_eq!(msg, "write log overflow");
    }

    /// Bulk-read positions are `u32`: same boundary, same explicit assert.
    #[test]
    fn read_positions_are_checked_at_the_u32_boundary() {
        assert_eq!(read_position(0), 0);
        assert_eq!(read_position(u32::MAX as usize), u32::MAX);
        let over = std::panic::catch_unwind(|| read_position(u32::MAX as usize + 1));
        let msg = *over.unwrap_err().downcast::<&str>().unwrap();
        assert_eq!(msg, "bulk read overflow");
    }

    /// The first-occurrence table against a `HashMap` model: colliding and
    /// huge keys, growth mid-call, and reuse across calls — which forgets
    /// the previous call's entries and, once warm, allocates nothing.
    #[test]
    fn first_seen_matches_a_map_and_reuses_its_buckets() {
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

    /// The drain's sort is stable, skips constant key bytes, and handles
    /// keys that differ only above the low byte or across all eight.
    #[test]
    fn radix_sort_is_stable_over_the_whole_key_range() {
        let mut g = crate::testkit::Gen::new(7);
        for mask in [0xff, 0xff00, 0x3_ffff, u64::MAX, 0] {
            let mut recs: Vec<(u64, usize)> = (0..1000).map(|i| (g.u64() & mask, i)).collect();
            let mut expected = recs.clone();
            expected.sort_by_key(|r| r.0);
            radix_sort_by_key(&mut recs, |r| r.0);
            assert_eq!(recs, expected, "mask {mask:#x}");
        }
        let mut empty: Vec<(u64, usize)> = Vec::new();
        radix_sort_by_key(&mut empty, |r| r.0);
    }

    /// Counts the calling thread's heap allocations, for the flat-path
    /// assertion below (unit-test builds of this crate only).
    struct CountingAlloc;

    thread_local! {
        static ALLOCS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    // SAFETY: both methods forward to `System` with the caller's arguments
    // unchanged (`realloc`/`alloc_zeroed` default to them); the counter is
    // a destructor-less thread-local statistic.
    #[allow(unsafe_code)] // the crate denies it; a global allocator cannot be written without
    unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
            // SAFETY: same contract as the caller's.
            unsafe { std::alloc::System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            // SAFETY: `ptr` came from `System` via `alloc` above.
            unsafe { std::alloc::System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static COUNTING: CountingAlloc = CountingAlloc;

    /// Draining and applying N accumulated elements allocates per column
    /// and per source (amortized growth included), never per element —
    /// the old path built one `Vec` per written element on both sides.
    #[test]
    fn write_path_allocations_scale_with_sources_not_elements() {
        const N: usize = 1 << 16;
        const SOURCES: usize = 4;
        let mut nodes: Vec<GArray<f64>> = (0..SOURCES)
            .map(|node| GArray::new(Dist::block(N, SOURCES), node))
            .collect();
        for (s, ga) in nodes.iter_mut().enumerate() {
            let mut scratch = WLog::scratch();
            for vp in 0..2 {
                let rec = |idx| WRec {
                    idx,
                    val: 0.5,
                    vp,
                    kind: ADD,
                };
                scratch.recs.extend((0..N as u64).rev().map(rec));
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
        assert_eq!(written.len(), N / SOURCES);
        assert!(nodes[0]
            .local
            .iter()
            .all(|&v| v == 0.5 * 2.0 * SOURCES as f64));
        assert!(
            allocs < 512 * SOURCES as u64,
            "{allocs} allocations for {N} elements from {SOURCES} sources"
        );
    }

    /// Repartitioning round-trip: extract a stretch, rebind to new bounds,
    /// and confirm values land at the right global indices on both sides.
    #[test]
    fn migrate_extract_rebind_moves_elements() {
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

    #[test]
    fn serve_reads_global_indices() {
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

    impl TileBudget {
        fn is_cold(&self, id: u32, off: usize) -> bool {
            self.tiled(id).is_some_and(|t| t.cold_tile(off).is_some())
        }

        fn tile_of(&self, id: u32, off: usize) -> u32 {
            (off / self.tiled(id).expect("tiled array").tile_elems) as u32
        }
    }

    #[test]
    fn tile_budget_off_means_everything_hot() {
        let mut tb = TileBudget::new(0);
        tb.register(0, 8, 1 << 20);
        assert!(!tb.is_cold(0, 0));
        assert!(!tb.is_cold(0, (1 << 20) - 1));
        assert_eq!(tb.bytes_resident(), 0);
        assert_eq!(tb.peak_bytes_resident(), 0);
    }

    #[test]
    fn tile_budget_small_arrays_stay_untiled() {
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

    #[test]
    fn tile_budget_refill_evicts_lru_deterministically() {
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
        tb.touch(0, 1); // offset 1 lives in tile 0
        assert_eq!(tb.refill(0, 8), vec![(0, 1)], "evicts LRU, not MRU");
        assert!(tb.is_cold(0, 4), "tile 1 spilled");
        assert!(!tb.is_cold(0, 32), "tile 8 resident");
        assert_eq!(tb.bytes_resident(), 256, "stays at budget");
        // Writes to cold tiles are write-through: no admission, no touch.
        tb.touch(0, 5);
        assert!(tb.is_cold(0, 5));
    }

    #[test]
    fn tile_budget_rebind_starts_cold() {
        let mut tb = TileBudget::new(256);
        tb.register(0, 8, 64);
        tb.refill(0, 0);
        assert_eq!(tb.bytes_resident(), 32);
        tb.rebind(0, 128);
        assert_eq!(tb.bytes_resident(), 0, "old residency dropped");
        assert!(tb.is_cold(0, 0), "rebound partition starts cold");
        assert_eq!(tb.peak_bytes_resident(), 32, "peak survives rebinds");
    }

    #[test]
    fn tile_budget_last_tile_is_short() {
        // 10 elements, tile_elems 4 → tiles of 4, 4, 2 elements.
        let mut tb = TileBudget::new(256);
        tb.register(0, 8, 10);
        tb.refill(0, 2);
        assert_eq!(tb.bytes_resident(), 2 * 8, "short tail tile");
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut ga: GArray<u64> = GArray::new(Dist::block(8, 2), 0);
        ga.local.copy_from_slice(&[1, 2, 3, 4]);
        let (snap, bytes) = GArrayObj::snapshot_local(&ga);
        assert_eq!(bytes, ga.local.wire_size() as u64);
        ga.local[2] = 99;
        assert_eq!(GArrayObj::restore_local(&mut ga, snap.as_ref()), Ok(bytes));
        assert_eq!(ga.local, vec![1, 2, 3, 4]);

        let mut na: NArray<f64> = NArray::new(2);
        na.data[1] = 7.5;
        let (snap, _) = NArrayObj::snapshot_local(&na);
        na.data[1] = 0.0;
        NArrayObj::restore_local(&mut na, snap.as_ref()).expect("restorable");
        assert_eq!(na.data[1], 7.5);
    }

    #[test]
    fn restore_rejects_mismatched_snapshots() {
        let mut ga: GArray<u64> = GArray::new(Dist::block(8, 2), 0);
        let wrong_type: Box<dyn Any + Send + Sync> = Box::new(vec![1.0f64; 4]);
        let err = GArrayObj::restore_local(&mut ga, wrong_type.as_ref())
            .expect_err("type mismatch must be an error");
        assert!(err.contains("type mismatch"), "{err}");
        let wrong_shape: Box<dyn Any + Send + Sync> = Box::new(vec![1u64; 3]);
        let err = GArrayObj::restore_local(&mut ga, wrong_shape.as_ref())
            .expect_err("shape mismatch must be an error");
        assert!(err.contains("shape does not match the partition"), "{err}");

        let mut na: NArray<u64> = NArray::new(2);
        let wrong_shape: Box<dyn Any + Send + Sync> = Box::new(vec![1u64; 5]);
        let err = NArrayObj::restore_local(&mut na, wrong_shape.as_ref())
            .expect_err("shape mismatch must be an error");
        assert!(err.contains("shape does not match the node array"), "{err}");
    }

    #[test]
    fn narray_apply_overwrites_and_clears() {
        let mut na: NArray<u64> = NArray::new(3);
        na.wlog.buffer(0, 0, WKind::Assign, 5);
        na.wlog.buffer(0, 2, WKind::Accum(AccumOp::Max), 9);
        na.wlog.buffer(0, 2, WKind::Accum(AccumOp::Max), 4);
        assert_eq!(
            na.apply(None),
            2 * (9 + 8),
            "two entries of 9 bytes + a u64"
        );
        assert_eq!(na.data, vec![5, 0, 9]);
        assert_eq!(na.apply(None), 0);
    }

    /// `(dest, indices)` per parcel of a drain of puts to `idxs`.
    fn drained(dist: Dist, idxs: &[usize]) -> Vec<(usize, Vec<u64>)> {
        let mut ga: GArray<u64> = GArray::new(dist, 0);
        for &idx in idxs {
            ga.wlog.buffer(0, idx, WKind::Assign, idx as u64);
        }
        let parcels = ga.drain_writes(None).into_iter();
        parcels
            .map(|p| (p.dest, payload::<u64>(p).idx.clone()))
            .collect()
    }

    #[test]
    fn drain_splits_by_owner_and_sorts() {
        let mut ga: GArray<u64> = GArray::new(Dist::block(8, 4), 0);
        for idx in [7, 0, 3, 5, 1] {
            ga.wlog.buffer(0, idx, WKind::Assign, idx as u64);
        }
        let parcels = ga.drain_writes(None);
        let dests: Vec<usize> = parcels.iter().map(|p| p.dest).collect();
        assert_eq!(dests, vec![0, 1, 2, 3]);
        assert!(!ga.has_pending_writes());
        let p0 = parcels.into_iter().next().unwrap();
        assert_eq!((p0.entries, p0.bytes), (2, 2 * (9 + 8)));
        let c = payload::<u64>(p0);
        assert_eq!(c.idx, vec![0, 1], "entries sorted by index");
        assert_eq!((c.starts, c.vals), (vec![0, 1], vec![0, 1]));
        // Contiguous layouts meet their owners in ascending order, so the
        // open parcel is the last one: owners are skipped (1, and the empty
        // node 2 of the weighted layout), never revisited.
        assert_eq!(
            drained(Dist::block(8, 4), &[6, 1, 7, 0]),
            vec![(0, vec![0, 1]), (3, vec![6, 7])]
        );
        let weighted = Dist::weighted(8, 4, Arc::new(vec![0, 1, 5, 5, 8]));
        assert_eq!(
            drained(weighted.clone(), &[7, 4, 0, 5, 1]),
            vec![(0, vec![0]), (1, vec![1, 4]), (3, vec![5, 7])]
        );
        // Runs that end exactly on a boundary, on either side of the empty
        // node 2; and one run of consecutive indices through three owners:
        // `dist` is asked once per destination, not once per element.
        assert_eq!(
            drained(weighted.clone(), &[4, 5, 0]),
            vec![(0, vec![0]), (1, vec![4]), (3, vec![5])]
        );
        let asked = OWNER_LOOKUPS.get();
        assert_eq!(
            drained(weighted, &[0, 1, 2, 3, 4, 5, 6, 7]),
            vec![(0, vec![0]), (1, vec![1, 2, 3, 4]), (3, vec![5, 6, 7])]
        );
        assert_eq!(OWNER_LOOKUPS.get() - asked, 3);
        let asked = OWNER_LOOKUPS.get();
        assert_eq!(
            drained(Dist::block(8, 4), &[1, 2, 3, 4, 5]),
            vec![(0, vec![1]), (1, vec![2, 3]), (2, vec![4, 5])]
        );
        assert_eq!(OWNER_LOOKUPS.get() - asked, 3);
        // A cyclic layout meets them out of order (3 → node 3 before 4 →
        // node 0) and comes back to one it has left (0, 4, 8 → node 0):
        // still one parcel per destination, ascending by destination.
        assert_eq!(
            drained(Dist::cyclic(12, 4), &[4, 3, 8, 0, 7, 5]),
            vec![(0, vec![0, 4, 8]), (1, vec![5]), (3, vec![3, 7])]
        );
    }

    /// The drain is where the checker finds write-write conflicts: on each
    /// writer's *last* put per element, whatever order the merges came in,
    /// reported by global rank where the writers run — not where the
    /// element lives — and only when a sink is given.
    #[test]
    fn drain_reports_write_write_conflicts_on_last_values() {
        const BASE: u64 = 10;
        let (quiet, payload) = (f64::NAN, f64::from_bits(f64::NAN.to_bits() ^ 1));
        let log = |ops: &[(u32, usize, WKind, f64)]| {
            let mut wlog = WLog::default();
            for &(vp, idx, kind, val) in ops {
                let mut one = WLog::scratch();
                let idx = idx as u64;
                one.recs.push(WRec { idx, val, vp, kind });
                wlog.append(BASE, &mut one);
            }
            wlog
        };
        let put = WKind::Assign;
        let ops = [
            // One report per element: lowest rank, first disagreeing one.
            (1, 1, put, 10.0),
            (1, 1, put, 11.0), // same VP: fine
            (3, 1, put, 30.0),
            (7, 1, put, 70.0),
            // Idempotent.
            (0, 2, put, 12.5),
            (4, 2, put, 12.5),
            (9, 2, put, 12.5),
            // VP 1 first disagrees, then — in a later merge — converges.
            (1, 3, put, 99.0),
            (0, 3, put, 50.0),
            (1, 3, put, 50.0),
            // ... and the reverse: agrees, then parts ways.
            (0, 4, put, 50.0),
            (2, 4, put, 50.0),
            (1, 4, put, 50.0),
            (2, 4, put, 51.0),
            // NaN payloads: distinct ones conflict, equal ones do not.
            (0, 5, put, quiet),
            (1, 5, put, payload),
            (0, 6, put, quiet),
            (1, 6, put, quiet),
            // Accumulates never conflict; one VP may rewrite at will.
            (0, 7, ADD, 1.0),
            (1, 7, ADD, 2.0),
            (5, 8, put, 1.0),
            (5, 8, put, 2.0),
            // A remote element's conflict is the writers' node's to report.
            (0, 15, put, 1.0),
            (1, 15, put, 2.0),
        ];
        let mut checker = Checker::default();
        let mut ga: GArray<f64> = GArray::new(Dist::block(16, 2), 0);
        ga.wlog = log(&ops);
        let sink = checker.conflicts_in(Space::Global, 3, PhaseKind::Global);
        assert_eq!(ga.drain_writes(Some(sink)).len(), 2);
        let mut na: NArray<f64> = NArray::new(16);
        na.wlog = log(&ops[..4]);
        na.apply(Some(checker.conflicts_in(Space::Node, 0, PhaseKind::Node)));
        let conflict =
            |space, array, index, first_vp, second_vp, phase| PhaseViolation::WriteWriteConflict {
                space,
                array,
                index,
                first_vp,
                second_vp,
                phase,
            };
        assert_eq!(
            checker.end_phase(),
            vec![
                conflict(Space::Global, 3, 1, 11, 13, PhaseKind::Global),
                conflict(Space::Global, 3, 4, 10, 12, PhaseKind::Global),
                conflict(Space::Global, 3, 5, 10, 11, PhaseKind::Global),
                conflict(Space::Global, 3, 15, 10, 11, PhaseKind::Global),
                conflict(Space::Node, 0, 1, 11, 13, PhaseKind::Node),
            ]
        );
        // Checker off: same parcels, nobody to tell.
        ga.wlog = log(&ops);
        assert_eq!(ga.drain_writes(None).len(), 2);
    }
}
