//! The write log: what a phase's buffered writes are kept in, how they
//! resolve at the phase boundary, and what ships to — and folds at — each
//! element's owner.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use super::count;
use crate::check::{first_disagreement, Conflicts, Space};
use crate::dist::Dist;
use crate::elem::{AccumOp, Elem};

/// What one buffered write does to its element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WKind {
    /// `put`: the last writer in (global VP rank, program order) wins.
    Assign,
    /// `accumulate`: every contribution folds, in ascending (global VP
    /// rank, program order).
    Accum(AccumOp),
}

/// `len` as a `u32` CSR offset into a parcel's contribution columns. Only a
/// phase with four billion contributions for one owner trips it.
fn csr_offset(len: usize) -> u32 {
    assert!(len <= u32::MAX as usize, "write log overflow");
    len as u32
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
/// touched array ([`super::VpScratch`]); each merge bulk-appends that to the
/// array's log. Appending is all that happens during a phase body —
/// ordering, last-writer resolution and operator checks run once, at the
/// phase boundary ([`Self::drain`]), and contributions stay raw until the
/// owner folds them, so a floating-point result depends only on each VP's
/// program order, never on the poll-round structure that interleaved the
/// merges (which wave pipelining changes, DESIGN.md §13). The array-side
/// buffer lives for one phase: the drain frees it, so an idle array's log
/// holds no memory.
#[derive(Default)]
pub(super) struct WLog<T> {
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
    pub(super) fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Log `items` — `(element, value)` pairs — as VP `vp`'s next writes, all
    /// of `kind`; accumulates bring `combine`, their element type's
    /// combiner. Returns how many were logged.
    #[inline]
    pub(super) fn record(
        &mut self,
        vp: u32,
        kind: WKind,
        combine: Option<fn(AccumOp, T, T) -> T>,
        items: impl Iterator<Item = (u64, T)>,
    ) -> u64 {
        let logged = self.recs.len();
        let rec = |(idx, val)| WRec { idx, val, vp, kind };
        self.recs.extend(items.map(rec));
        if combine.is_some() {
            self.combine = combine;
        }
        (self.recs.len() - logged) as u64
    }

    /// Move `from`'s records (one VP's writes since its last merge) to the
    /// end of this log; `from` keeps its capacity. `base` is the global
    /// rank of the node's VP 0.
    pub(super) fn append(&mut self, base: u64, from: &mut WLog<T>) {
        if from.is_empty() {
            return;
        }
        debug_assert!(self.is_empty() || self.base == base);
        self.base = base;
        self.recs.append(&mut from.recs);
        self.combine = self.combine.or(from.combine);
    }

    /// Resolve and empty the log of an array of `space`, laid out by `dist`,
    /// into one flat parcel per touched destination (the element's owner),
    /// ascending by destination. Two stable sorts — by writer, then by
    /// element — are the only place order is established: they leave each element's ops in ascending
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
    pub(super) fn drain(
        &mut self,
        space: Space,
        dist: &Dist,
        mut conflicts: Option<Conflicts<'_>>,
    ) -> Vec<WriteParcel> {
        if self.is_empty() {
            return Vec::new();
        }
        // A global array's panics name the bare element, as they always have.
        let what = match space {
            Space::Global => "",
            Space::Node => "node ",
        };
        let mut out: Vec<(usize, WriteCols<T>)> = Vec::new();
        // Destination → position in `out`, for cyclic layouts only: runs
        // come in ascending index order, so a contiguous layout's owners
        // never decrease and a new destination means a new parcel.
        let cyclic_nodes = if dist.is_contiguous() { 0 } else { dist.nodes };
        let mut slot: Vec<Option<usize>> = vec![None; cyclic_nodes];
        // The parcel of the destination the last run went to, and the
        // indices that go there without asking `dist` again: the
        // destination's owned range (nothing, under a cyclic layout).
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
                count!(super::OWNER_LOOKUPS);
                let dest = dist.owner(idx as usize);
                if dist.is_contiguous() {
                    let r = dist.owned_range(dest);
                    open = r.start as u64..r.end as u64;
                }
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
        // Ascending by node id, never by first-touch order; a no-op for
        // contiguous layouts.
        out.sort_unstable_by_key(|p| p.0);
        let parcel = |(dest, mut cols): (usize, WriteCols<T>)| {
            cols.combine = self.combine;
            WriteParcel {
                dest,
                entries: cols.idx.len() as u64,
                bytes: cols.bytes,
                payload: Box::new(cols),
            }
        };
        out.into_iter().map(parcel).collect()
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
pub(super) struct WriteCols<T> {
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
pub(super) fn merge_parcels<T: Elem>(
    parcels: &[Box<WriteCols<T>>],
    mut store: impl FnMut(u64, T),
) -> u64 {
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
            // Cannot fire: an accumulate is logged with its element type's
            // combiner (`record`), and the drain stamps it on every parcel.
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

/// A write parcel produced by draining an array's write buffer: the entries
/// destined for one owner node.
pub(crate) struct WriteParcel {
    pub dest: usize,
    pub entries: u64,
    /// Modeled wire bytes of the entries.
    pub bytes: usize,
    /// The array's [`WriteCols<T>`].
    pub payload: Box<dyn Any + Send>,
}

#[cfg(test)]
pub(super) mod tests {
    //! Each runs as `state::tests::<name>` (`state/tests.rs` has the list).
    use std::sync::Arc;

    use super::super::{GArray, GArrayObj, PhaseKind, OWNER_LOOKUPS};
    use super::*;
    use crate::check::{Checker, PhaseViolation};
    use crate::elem::AccumElem;

    impl<T: AccumElem> WLog<T> {
        /// An empty VP-side log that knows the element's combiner.
        pub fn scratch() -> Self {
            WLog {
                combine: Some(T::combine),
                ..WLog::default()
            }
        }

        /// Log one op as VP `rank`'s whole merge (the node's VP 0 has
        /// global rank 0).
        pub fn buffer(&mut self, rank: u32, idx: usize, kind: WKind, val: T) {
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

    pub const ADD: WKind = WKind::Accum(AccumOp::Add);

    /// `(idx, kind, [(rank, value)])`.
    pub type Entry<'a> = (u64, WKind, &'a [(u64, f64)]);

    /// A hand-built wire parcel.
    pub fn cols(entries: &[Entry<'_>]) -> Box<dyn Any + Send> {
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

    /// All of a global array the drain needs: a phase log and the layout it
    /// drains under.
    struct Logged<T> {
        wlog: WLog<T>,
        dist: Dist,
    }

    impl<T: Elem> Logged<T> {
        fn new(dist: Dist) -> Self {
            let wlog = WLog::default();
            Logged { wlog, dist }
        }

        fn drain_writes(&mut self, conflicts: Option<Conflicts<'_>>) -> Vec<WriteParcel> {
            self.wlog.drain(Space::Global, &self.dist, conflicts)
        }

        fn has_pending_writes(&self) -> bool {
            !self.wlog.is_empty()
        }
    }

    pub fn assign_last_writer_wins_locally() {
        let mut ga = Logged::<f64>::new(Dist::block(4, 1));
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

    pub fn accum_merges_locally() {
        let mut ga = Logged::<u64>::new(Dist::block(4, 2));
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
    pub fn drain_orders_contributions_by_rank_then_program_order() {
        let mut ga = Logged::<f64>::new(Dist::block(2, 1));
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
    pub fn mixed_write_kinds_panic() {
        let mut ga = Logged::<u64>::new(Dist::block(4, 1));
        ga.wlog.buffer(0, 0, WKind::Assign, 1);
        ga.wlog.buffer(0, 0, ADD, 1);
        ga.drain_writes(None);
    }

    pub fn conflicting_accum_ops_panic() {
        let mut ga = Logged::<u64>::new(Dist::block(4, 1));
        ga.wlog.buffer(0, 1, ADD, 1);
        ga.wlog.buffer(0, 1, WKind::Accum(AccumOp::Max), 2);
        ga.drain_writes(None);
    }

    /// A lone parcel streams through without the heap; beside an empty
    /// second parcel the same input takes the k-way merge. Both resolve alike:
    /// an assign with its one contribution, accumulates whose ranks arrive
    /// out of order (folded by rank: `(1e16 + -1e16) + 1.0`, not by position).
    pub fn a_lone_parcel_resolves_like_the_merge() {
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

    /// CSR offsets are `u32`: the last representable length passes, the
    /// next one trips the explicit assert (not a silent wrap).
    pub fn csr_offsets_are_checked_at_the_u32_boundary() {
        assert_eq!(csr_offset(0), 0);
        assert_eq!(csr_offset(u32::MAX as usize), u32::MAX);
        let over = std::panic::catch_unwind(|| csr_offset(u32::MAX as usize + 1));
        let msg = *over.unwrap_err().downcast::<&str>().unwrap();
        assert_eq!(msg, "write log overflow");
    }

    /// The drain's sort is stable, skips constant key bytes, and handles
    /// keys that differ only above the low byte or across all eight.
    pub fn radix_sort_is_stable_over_the_whole_key_range() {
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

    /// `(dest, indices)` per parcel of a drain of puts to `idxs`.
    fn drained(dist: Dist, idxs: &[usize]) -> Vec<(usize, Vec<u64>)> {
        let mut ga = Logged::<u64>::new(dist);
        for &idx in idxs {
            ga.wlog.buffer(0, idx, WKind::Assign, idx as u64);
        }
        let parcels = ga.drain_writes(None).into_iter();
        parcels
            .map(|p| (p.dest, payload::<u64>(p).idx.clone()))
            .collect()
    }

    pub fn drain_splits_by_owner_and_sorts() {
        let mut ga = Logged::<u64>::new(Dist::block(8, 4));
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
    pub fn drain_reports_write_write_conflicts_on_last_values() {
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
        ga.append_writes(BASE, &mut log(&ops));
        let sink = checker.conflicts_in(Space::Global, 3, PhaseKind::Global);
        assert_eq!(ga.drain_writes(Some(sink)).len(), 2);
        let mut na: GArray<f64> = GArray::node_shared(16);
        na.append_writes(BASE, &mut log(&ops[..4]));
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
        ga.append_writes(BASE, &mut log(&ops));
        assert_eq!(ga.drain_writes(None).len(), 2);
    }
}
