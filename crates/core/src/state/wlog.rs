//! The write log: what a phase's buffered writes are kept in, how they
//! resolve at the phase boundary, and what ships to — and is stored by — each
//! element's owner. The unit of all three is the *run*: a first index and
//! the values of the consecutive elements from it on.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::ops::Range;

use super::count;
use crate::check::{first_disagreement, Conflicts, Space};
use crate::cost::WRITE_ENTRY_BYTES;
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

/// `len` as a `u32` position in one of a log's columns. Only a phase with
/// four billion writes of one array on one node trips it.
fn csr_offset(len: usize) -> u32 {
    assert!(len <= u32::MAX as usize, "write log overflow");
    len as u32
}

/// One VP's consecutive writes of one kind: what one [`WLog::record`] call
/// logged, or several that continue each other.
#[derive(Clone, Copy)]
struct Call {
    /// The first element of a run — indices that ascend by one, which are
    /// stored nowhere else; `None` for a call that lists its indices beside
    /// its values.
    first: Option<u64>,
    /// Position of its first write in its column: [`WLog::vals`] for a
    /// run, [`WLog::listed`] otherwise.
    at: u32,
    len: u32,
    /// The writer's node-relative VP rank.
    vp: u32,
    kind: WKind,
}

impl Call {
    /// The elements a run writes.
    fn run(&self) -> Option<Range<u64>> {
        self.first.map(|first| first..first + self.len as u64)
    }
}

/// Append-only write log. A VP records into a log of its own per touched
/// array ([`super::VpScratch`]); each merge moves that to the end of the
/// array's log — the same type. Writer and kind are kept once per *call*,
/// and a call whose indices ascend by one keeps its first index and its
/// values, nothing per element; any other lists `(index, value)` pairs. One
/// column per shape, so that a VP's writes grow one block: two that grow in
/// turn make the allocator move both whenever either doubles (3.5× on
/// [`Self::record`] for PageRank's scatter). Appending is all that happens
/// during a phase body — ordering, last-writer resolution and operator
/// checks run once, at the phase boundary ([`Self::drain`]), and
/// contributions stay raw until the owner folds them, so a floating-point
/// result depends only on each VP's program order, never on the poll-round
/// structure that interleaved the merges (which wave pipelining changes,
/// DESIGN.md §13). The array-side buffer lives for one phase: the drain
/// frees it, so an idle array's log holds no memory.
#[derive(Default)]
pub(super) struct WLog<T> {
    /// The last call, which the next may join — held here, so that a VP's
    /// log of one call is one block, its column — and those before it.
    open: Option<Call>,
    calls: Vec<Call>,
    /// The runs' values, call after call.
    vals: Vec<T>,
    /// The other calls' writes, call after call.
    listed: Vec<(u64, T)>,
    /// Global rank of this node's VP 0: what `Call::vp` is relative to.
    base: u64,
    /// The element type's combiner, captured where `T: AccumElem` is known
    /// so the type-erased replay and apply paths can fold. It is
    /// `T::combine` for every accumulate, hence stored once.
    combine: Option<fn(AccumOp, T, T) -> T>,
}

/// Stable least-significant-digit radix sort by a `u64` key, nine bits per
/// pass through a second buffer (an array of up to 2¹⁸ elements sorts in
/// two). Digits that are the same in every key cost no pass, so the work
/// follows the key range in use, and an already-ascending input returns
/// after one scan. At most `u32::MAX` records, as many as a log holds.
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
    csr_offset(recs.len());
    // Every slot is overwritten before each swap.
    let mut spare = recs.clone();
    for shift in (0..64).step_by(9).filter(|s| (differ >> s) & 0x1ff != 0) {
        let digit = |r: &R| (key(r) >> shift) as usize & 0x1ff;
        let mut next = [0u32; 512];
        recs.iter().for_each(|r| next[digit(r)] += 1);
        let mut at = 0;
        for n in &mut next {
            at += std::mem::replace(n, at);
        }
        for r in recs.iter() {
            let slot = &mut next[digit(r)];
            spare[*slot as usize] = *r;
            *slot += 1;
        }
        std::mem::swap(recs, &mut spare);
    }
}

/// One logged write as the element-wise drain sorts it: 16 bytes, whatever
/// the element type.
#[derive(Clone, Copy)]
struct Key {
    idx: u64,
    /// Position of its call among the log's, in writer order.
    call: u32,
    /// Position of its value in its call's column.
    pos: u32,
}

impl<T: Elem> WLog<T> {
    pub(super) fn is_empty(&self) -> bool {
        self.open.is_none() && self.calls.is_empty()
    }

    /// Log `items` — `(element, value)` pairs — as VP `vp`'s next writes, all
    /// of `kind`; accumulates bring `combine`, their element type's
    /// combiner. Returns how many were logged. Indices that ascend by one
    /// are a run, which costs its values and — unless it continues the run
    /// the VP's last call left open — one header; indices that do not are
    /// listed, and once a VP lists, its writes of that kind go on the list.
    /// A single element is either: it joins whichever it follows.
    #[inline]
    pub(super) fn record(
        &mut self,
        vp: u32,
        kind: WKind,
        combine: Option<fn(AccumOp, T, T) -> T>,
        mut items: impl Iterator<Item = (u64, T)>,
    ) -> u64 {
        self.combine = combine.or(self.combine);
        let mine = |c: &&mut Call| c.vp == vp && c.kind == kind;
        if let Some(c) = self.open.as_mut().filter(|c| mine(c) && c.run().is_none()) {
            let at = self.listed.len();
            self.listed.extend(items);
            let logged = csr_offset(self.listed.len()) - at as u32;
            c.len += logged;
            return logged as u64;
        }
        let Some(head) = items.next() else {
            return 0;
        };
        // The call's run: values only, up to the first index that is not
        // the next, `stray`. Its first write is held back until a second
        // runs on (or none follows): a call that lists never touches `vals`.
        let (first, at) = (head.0, self.vals.len());
        let (mut run, mut held, mut stray) = (first..first, Some(head), items.next());
        if stray.is_none_or(|(idx, _)| idx == first + 1) {
            self.vals.reserve(items.size_hint().0 + 2);
            let rest = [held.take(), stray.take()].into_iter().flatten();
            let rest = rest.chain(items.by_ref());
            self.vals.extend(rest.map_while(|(idx, val)| {
                let runs_on = idx == run.end;
                run.end += runs_on as u64;
                stray = (!runs_on).then_some((idx, val));
                runs_on.then_some(val)
            }));
        }
        // It joins the open call if it continues that run, or if neither is
        // a run: a call of one element has no shape of its own.
        let one = |r: &Range<u64>| r.end - r.start == 1;
        let loose = stray.is_some() || one(&run);
        let open = self.open.as_mut().filter(mine).and_then(|c| c.run());
        if !open.is_some_and(|o| (stray.is_none() && o.end == first) || (loose && one(&o))) {
            let (first, at, len) = (Some(first), csr_offset(at), 0);
            let fresh = Call {
                first,
                at,
                len,
                vp,
                kind,
            };
            self.calls.extend(self.open.replace(fresh));
        }
        // Cannot fire: the open call is a run — the one joined, or the empty
        // one just made for this call.
        let c = self.open.as_mut().expect("a call to join");
        let open = c.run().expect("an open run");
        let logged = csr_offset(self.vals.len()) - at as u32;
        if stray.is_none() && open.end == first {
            c.len += logged;
            return logged as u64;
        }
        // It lists, and the element it joined lists with it.
        let (from, had) = (c.at as usize, c.len);
        (c.first, c.at) = (None, self.listed.len() as u32);
        let moved = open.chain(run).zip(self.vals.drain(from..));
        self.listed
            .extend(moved.chain(held).chain(stray).chain(items));
        c.len = csr_offset(self.listed.len()) - c.at;
        (c.len - had) as u64
    }

    /// Move `from`'s calls (one VP's writes since its last merge) to the
    /// end of this log; `from` keeps its capacity. `base` is the global
    /// rank of the node's VP 0.
    pub(super) fn append(&mut self, base: u64, from: &mut WLog<T>) {
        if from.is_empty() {
            return;
        }
        debug_assert!(self.is_empty() || self.base == base);
        self.base = base;
        let vals = csr_offset(self.vals.len() + from.vals.len()) - from.vals.len() as u32;
        let listed = csr_offset(self.listed.len() + from.listed.len()) - from.listed.len() as u32;
        let moved = from.calls.drain(..).chain(from.open.take()).map(|mut c| {
            c.at += c.run().map_or(listed, |_| vals);
            c
        });
        self.calls.extend(self.open.take().into_iter().chain(moved));
        self.vals.append(&mut from.vals);
        self.listed.append(&mut from.listed);
        self.combine = self.combine.or(from.combine);
    }

    /// Resolve and empty the log of an array of `space`, laid out by `dist`,
    /// into one parcel per touched destination (the element's owner),
    /// ascending by destination. What the log holds selects how:
    ///
    /// - **Runs that do not meet** — every call a run, no two sharing an
    ///   element, a contiguous layout (every CG vector phase): each element
    ///   has one write, so there is nothing to order, resolve or check. The
    ///   calls are put in index order and each is cut at owner boundaries,
    ///   one `Dist::owner` and one copy per piece; no element is looked at.
    /// - **Anything else** is resolved element by element. The calls are put
    ///   in writer order — (VP, program order), a scan unless a VP merged
    ///   twice — and one stable sort of 16-byte keys by element is the only
    ///   other place order is established: it leaves each element's writes
    ///   in ascending (global VP rank, program order). Each element then
    ///   ships once: an assign keeps its last writer, an accumulate every
    ///   raw contribution, and mixing the two — or two operators — on one
    ///   element panics here, at the phase boundary. With the checker on, an
    ///   assign several VPs wrote is where a write-write conflict shows, and
    ///   it is reported to `conflicts`.
    ///
    /// An entry is modeled as [`WRITE_ENTRY_BYTES`] plus one value either
    /// way: combining is charged as done sender-side and the rank tags ride
    /// free, like other protocol sidecars, so repartitioning changes
    /// neither entry counts nor bytes.
    pub(super) fn drain(
        &mut self,
        space: Space,
        dist: &Dist,
        conflicts: Option<Conflicts<'_>>,
    ) -> Vec<WriteParcel> {
        if self.is_empty() {
            return Vec::new();
        }
        let mut log = std::mem::take(self);
        log.calls.extend(log.open.take());
        let mut out = Outbox::new(dist);
        if !log.drain_runs(&mut out) {
            log.drain_elements(space, conflicts, &mut out);
        }
        // Ascending by node id, never by first-touch order; a no-op for
        // contiguous layouts.
        out.parcels.sort_unstable_by_key(|p| p.0);
        let parcel = |(dest, mut cols): (usize, WriteCols<T>)| {
            cols.combine = log.combine;
            WriteParcel {
                dest,
                entries: cols.entries,
                bytes: cols.bytes,
                payload: Box::new(cols),
            }
        };
        out.parcels.into_iter().map(parcel).collect()
    }

    /// The drain of runs that do not meet, if that is what the log holds.
    fn drain_runs(&self, out: &mut Outbox<'_, T>) -> bool {
        let runs: Option<Vec<_>> = (self.calls.iter().map(|c| Some((c.run()?, c)))).collect();
        let Some(mut runs) = runs.filter(|_| out.dist.is_contiguous()) else {
            return false;
        };
        runs.sort_unstable_by_key(|(run, _)| run.start);
        if !runs.windows(2).all(|w| w[0].0.end <= w[1].0.start) {
            return false;
        }
        for (r, (run, call)) in runs.iter().enumerate() {
            let mut lo = run.start;
            while lo < run.end {
                // Every value left below the destination's last element.
                let room = |end: u64| {
                    let left = runs[r..].iter().map(|(run, _)| run);
                    let below = left.take_while(|run| run.start < end);
                    let vals = below.map(|run| run.end.min(end) - run.start.max(lo));
                    (0, vals.sum::<u64>() as usize)
                };
                let (p, end) = out.route(lo, room);
                let hi = run.end.min(end);
                let at = call.at as usize + (lo - run.start) as usize;
                let piece = &self.vals[at..at + (hi - lo) as usize];
                p.spans.push(Span {
                    first: lo,
                    rank: self.base + call.vp as u64,
                    len: piece.len() as u32,
                    kind: call.kind,
                });
                p.vals.extend_from_slice(piece);
                p.entries += piece.len() as u64;
                p.bytes += piece.len() * WRITE_ENTRY_BYTES;
                p.bytes += piece.iter().map(T::wire_size).sum::<usize>();
                lo = hi;
            }
        }
        true
    }

    /// The element-wise drain (see [`Self::drain`]).
    fn drain_elements(
        &mut self,
        space: Space,
        mut conflicts: Option<Conflicts<'_>>,
        out: &mut Outbox<'_, T>,
    ) {
        // A global array's panics name the bare element, as they always have.
        let what = if matches!(space, Space::Node) {
            "node "
        } else {
            ""
        };
        // Stable: a VP's calls stay in program order.
        self.calls.sort_by_key(|c| c.vp);
        let mut keys: Vec<Key> = Vec::with_capacity(self.vals.len() + self.listed.len());
        for (call, c) in self.calls.iter().enumerate() {
            let call = call as u32;
            let key = |(idx, pos)| Key { idx, call, pos };
            match c.first {
                Some(first) => keys.extend((first..).zip(c.at..c.at + c.len).map(key)),
                None => {
                    let listed = &self.listed[c.at as usize..][..c.len as usize];
                    keys.extend(listed.iter().map(|w| w.0).zip(c.at..).map(key));
                }
            }
        }
        radix_sort_by_key(&mut keys, |k| k.idx);
        // The values in key order: one tight pass of scattered reads, so
        // that the loop below reads nothing out of order and the log's
        // columns are gone before the parcels grow.
        let writer = |k: &Key| &self.calls[k.call as usize];
        let val = |k: &Key| match writer(k).first {
            Some(_) => self.vals[k.pos as usize],
            None => self.listed[k.pos as usize].1,
        };
        let vals: Vec<T> = keys.iter().map(val).collect();
        (self.vals, self.listed) = (Vec::new(), Vec::new());
        let rank = |k: &Key| self.base + writer(k).vp as u64;
        // Keys before the current element's.
        let mut before = 0;
        for run in keys.chunk_by(|a, b| a.idx == b.idx) {
            let (idx, kind) = (run[0].idx, writer(&run[0]).kind);
            let (rest, vals) = (&keys[before..], &vals[before..][..run.len()]);
            before += run.len();
            for k in &run[1..] {
                match (kind, writer(k).kind) {
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
            // What ships: an assign's last write, an accumulate's every one.
            let ships = match kind {
                WKind::Assign => {
                    // Sorted by writer: the ends differ iff several wrote.
                    let several = rank(&run[0]) != rank(&run[run.len() - 1]);
                    if let Some(c) = conflicts.as_mut().filter(|_| several) {
                        let mut at = 0;
                        let last_puts = run.chunk_by(|a, b| rank(a) == rank(b)).map(|w| {
                            at += w.len();
                            (rank(&w[0]), vals[at - 1])
                        });
                        if let Some(pair) = first_disagreement(last_puts) {
                            c.report(idx, pair);
                        }
                    }
                    run.len() - 1..run.len()
                }
                WKind::Accum(_) => 0..run.len(),
            };
            // Every key left below the destination's last element goes
            // there: at most that many spans, and that many values.
            let room = |end: u64| {
                let most = rest.partition_point(|k| k.idx < end);
                (most, most)
            };
            let (p, _) = out.route(idx, room);
            let span = |k: &Key| Span {
                first: idx,
                rank: rank(k),
                len: 1,
                kind,
            };
            p.spans.extend(run[ships.clone()].iter().map(span));
            p.vals.extend_from_slice(&vals[ships]);
            p.entries += 1;
            p.bytes += WRITE_ENTRY_BYTES + vals[0].wire_size();
        }
    }
}

/// The parcels a drain is filling, and where the elements around the last
/// one it routed go. Elements come in ascending index order.
struct Outbox<'a, T> {
    dist: &'a Dist,
    /// `(destination, parcel)`, in first-touch order.
    parcels: Vec<(usize, WriteCols<T>)>,
    /// Destination → position in `parcels`, for cyclic layouts only: a
    /// contiguous layout's owners never decrease, so a new destination
    /// means a new parcel.
    slot: Vec<Option<usize>>,
    /// The parcel of the destination the last element went to, and the
    /// indices that go there without asking `dist` again: the destination's
    /// owned range (nothing, under a cyclic layout).
    at: usize,
    open: Range<u64>,
}

impl<'a, T: Elem> Outbox<'a, T> {
    fn new(dist: &'a Dist) -> Self {
        let cyclic_nodes = if dist.is_contiguous() { 0 } else { dist.nodes };
        Outbox {
            dist,
            parcels: Vec::new(),
            slot: vec![None; cyclic_nodes],
            at: 0,
            open: 0..0,
        }
    }

    /// The parcel element `idx` goes to, and the end of the owned range it
    /// lies in. A destination's first element makes its parcel, with the
    /// `(spans, values)` capacity `room` works out from that end.
    fn route(
        &mut self,
        idx: u64,
        room: impl FnOnce(u64) -> (usize, usize),
    ) -> (&mut WriteCols<T>, u64) {
        if !self.open.contains(&idx) {
            count!(super::OWNER_LOOKUPS);
            let dest = self.dist.owner(idx as usize);
            if self.dist.is_contiguous() {
                let r = self.dist.owned_range(dest);
                self.open = r.start as u64..r.end as u64;
            }
            let fresh = self.parcels.len();
            self.at = (self.slot.get_mut(dest)).map_or(fresh, |at| *at.get_or_insert(fresh));
            if self.at == fresh {
                let (spans, vals) = room(self.open.end);
                let (spans, vals) = (Vec::with_capacity(spans), Vec::with_capacity(vals));
                let cols = WriteCols {
                    spans,
                    vals,
                    ..WriteCols::default()
                };
                self.parcels.push((dest, cols));
            }
        }
        (&mut self.parcels[self.at].1, self.open.end)
    }
}

/// `len` consecutive elements from `first` on, each written once, by the VP
/// of global rank `rank`.
#[derive(Clone, Copy)]
struct Span {
    first: u64,
    rank: u64,
    len: u32,
    kind: WKind,
}

/// The resolved writes one node ships to one owner for one array (a
/// `K_WRITE` bundle part): spans, ascending by `first`, over one value
/// column. An element appears once — inside a span of any length if it has
/// one contribution (an assign's is its sender's last writer), else as
/// consecutive one-element spans with the same `first`: an accumulate's raw
/// contributions from that node in ascending (rank, program order). Shipping
/// contributions rank-keyed instead of a per-node partial is what makes the
/// fold **placement-invariant**: the order never depends on which node
/// hosted a contributing VP.
#[derive(Default)]
pub(super) struct WriteCols<T> {
    spans: Vec<Span>,
    /// One value per element of each span, span after span.
    vals: Vec<T>,
    combine: Option<fn(AccumOp, T, T) -> T>,
    /// Distinct elements written.
    entries: u64,
    /// Modeled wire bytes of the entries.
    bytes: usize,
}

impl<T: Copy> WriteCols<T> {
    /// Move `cursor` — `(span, value position)` — which stands at element
    /// `idx`, past `n` elements of its span. Returns the element it then
    /// stands at.
    fn advance(&self, cursor: &mut (usize, usize), idx: u64, n: usize) -> Option<u64> {
        cursor.1 += n;
        let span = &self.spans[cursor.0];
        let next = idx + n as u64;
        if next < span.first + span.len as u64 {
            return Some(next);
        }
        cursor.0 += 1;
        self.spans.get(cursor.0).map(|s| s.first)
    }
}

/// Owner side: k-way merge the `parcels` (ascending source node) and hand
/// what they write to `store`, in ascending index order, as `(first index,
/// values)` stretches. A stretch of a span that no other span — of another
/// source, or a further contribution of its own — reaches into is stored as
/// it stands, whatever its length. An element with several contributions
/// gathers them into a single reused buffer, sources ascending, and is
/// stored alone. Assigns resolve to the highest rank (program order within a
/// rank was settled by the sender; two sources never carry the same rank).
/// Accumulates fold in ascending (global VP rank, program order) — the fold
/// a sequential ascending-rank schedule performs, whatever the partitioning;
/// source order usually *is* rank order, which is checked per element and
/// stable-sorted when not. Returns the number of entries consumed.
pub(super) fn merge_parcels<T: Elem>(
    parcels: &[Box<WriteCols<T>>],
    mut store: impl FnMut(u64, &[T]),
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
    // Per source: the span it stands in and the position of its next value.
    let mut cursors = vec![(0usize, 0usize); parcels.len()];
    // (next element, source): equal elements pop in ascending source order.
    let mut heads: BinaryHeap<Reverse<(u64, usize)>> = parcels
        .iter()
        .enumerate()
        .filter_map(|(s, p)| p.spans.first().map(|span| Reverse((span.first, s))))
        .collect();
    let mut contribs: Vec<(u64, T)> = Vec::new();
    let mut applied = 0u64;
    // Move the top head on to `next`, or retire it.
    let step = |mut head: PeekMut<'_, Reverse<(u64, usize)>>, next: Option<u64>| match next {
        Some(next) => head.0 .0 = next,
        None => drop(PeekMut::pop(head)),
    };
    while let Some(&Reverse((idx, s))) = heads.peek() {
        let (p, cursor) = (&parcels[s], &mut cursors[s]);
        let span = p.spans[cursor.0];
        // Where the next claim on these elements starts: a further
        // contribution of this source's, or the lowest other head — a child
        // of the heap's root.
        let own = p.spans.get(cursor.0 + 1).map_or(u64::MAX, |s| s.first);
        let others = heads.as_slice().iter().skip(1).take(2);
        let limit = others.fold(own, |limit, other| limit.min(other.0 .0));
        if idx < limit {
            let n = ((span.first + span.len as u64).min(limit) - idx) as usize;
            store(idx, &p.vals[cursor.1..cursor.1 + n]);
            applied += n as u64;
            // Cannot fire: the heap was just peeked.
            step(heads.peek_mut().expect("a head"), p.advance(cursor, idx, n));
            continue;
        }
        // Several contributions, from the heads that stand at `idx` in
        // turn: that is in source order.
        contribs.clear();
        while let Some(head) = heads.peek_mut().filter(|h| h.0 .0 == idx) {
            let (p, cursor) = (&parcels[head.0 .1], &mut cursors[head.0 .1]);
            match (span.kind, p.spans[cursor.0].kind) {
                (WKind::Accum(a), WKind::Accum(b)) => {
                    assert_eq!(a, b, "element {idx}: conflicting accumulate operators")
                }
                (a, b) => assert!(
                    a == b,
                    "element {idx}: put and accumulate mixed across nodes in one phase"
                ),
            }
            applied += 1;
            // One contribution, or those of every span that starts at `idx`.
            let mut next = Some(idx);
            while next == Some(idx) {
                contribs.push((p.spans[cursor.0].rank, p.vals[cursor.1]));
                next = p.advance(cursor, idx, 1);
            }
            step(head, next);
        }
        store(idx, &[resolve(span.kind, &mut contribs)]);
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
    use std::cell::Cell;
    use std::collections::BTreeMap;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    use super::super::{GArray, GArrayObj, PhaseKind, OWNER_LOOKUPS};
    use super::*;
    use crate::check::{Checker, PhaseViolation};
    use crate::elem::AccumElem;
    use crate::testkit::{forall, Gen};
    use crate::{prop_assert, prop_assert_eq};

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
            one.record(rank, kind, None, [(idx as u64, val)].into_iter());
            self.append(0, &mut one);
        }
    }

    impl<T> WLog<T> {
        /// Every call, in the order logged.
        fn headers(&self) -> Vec<Call> {
            self.calls.iter().chain(&self.open).copied().collect()
        }
    }

    pub const ADD: WKind = WKind::Accum(AccumOp::Add);

    /// `(idx, kind, [(rank, value)])`.
    pub type Entry<'a> = (u64, WKind, &'a [(u64, f64)]);

    /// A hand-built wire parcel: one one-element span per contribution.
    pub fn cols(entries: &[Entry<'_>]) -> Box<dyn Any + Send> {
        let mut c = WriteCols {
            combine: Some(f64::combine as fn(AccumOp, f64, f64) -> f64),
            ..WriteCols::default()
        };
        for &(first, kind, parts) in entries {
            let span = |&(rank, _): &(u64, f64)| Span {
                first,
                rank,
                len: 1,
                kind,
            };
            c.spans.extend(parts.iter().map(span));
            c.vals.extend(parts.iter().map(|p| p.1));
        }
        Box::new(c)
    }

    /// An element's resolved writes: `(idx, kind, [(rank, value)])`.
    type Element<T> = (u64, WKind, Vec<(u64, T)>);

    impl<T: Copy> WriteCols<T> {
        /// What the spans say, element by element, the spans that share a
        /// `first` gathered.
        fn elements(&self) -> Vec<Element<T>> {
            let mut out: Vec<Element<T>> = Vec::new();
            let mut vals = self.vals.iter();
            for s in &self.spans {
                for idx in s.first..s.first + s.len as u64 {
                    let part = (s.rank, *vals.next().expect("a value per element"));
                    match out.last_mut().filter(|e| e.0 == idx) {
                        Some(e) => e.2.push(part),
                        None => out.push((idx, s.kind, vec![part])),
                    }
                }
            }
            assert!(vals.next().is_none(), "values past the last span");
            assert!(
                out.windows(2).all(|w| w[0].0 < w[1].0),
                "elements out of order"
            );
            out
        }
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
        let put = WKind::Assign;
        assert_eq!(
            c.elements(),
            vec![(2, put, vec![(1, 2.0)]), (3, put, vec![(1, 8.0)])]
        );
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
        // One element: five one-element spans that start at it.
        let spans: Vec<(u64, u32)> = c.spans.iter().map(|s| (s.first, s.len)).collect();
        assert_eq!(spans, vec![(1, 1); 5]);
        let ranks: Vec<u64> = c.spans.iter().map(|s| s.rank).collect();
        assert_eq!(ranks, vec![4, 4, 4, 5, 5]);
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

    /// `merge_parcels`' stretches, element by element.
    fn resolved(parcels: &[Box<WriteCols<f64>>]) -> (u64, Vec<(u64, f64)>) {
        let mut stored = Vec::new();
        let applied = merge_parcels(parcels, |first, vals| {
            stored.extend((first..).zip(vals.iter().copied()));
        });
        (applied, stored)
    }

    /// A lone parcel and the same parcel beside an empty one resolve alike:
    /// an assign with its one contribution, accumulates whose ranks arrive
    /// out of order (folded by rank: `(1e16 + -1e16) + 1.0`, not by position).
    pub fn a_lone_parcel_resolves_like_the_merge() {
        let entries: [Entry<'_>; 3] = [
            (0, WKind::Assign, &[(4, 7.0)]),
            (2, ADD, &[(2, 1.0), (0, 1e16), (1, -1e16)]),
            (3, WKind::Accum(AccumOp::Max), &[(9, 2.0), (3, 5.0)]),
        ];
        let typed = |p: Box<dyn Any + Send>| p.downcast::<WriteCols<f64>>().unwrap();
        let want = (3, vec![(0, 7.0), (2, 1.0), (3, 5.0)]);
        assert_eq!(resolved(&[typed(cols(&entries))]), want);
        assert_eq!(resolved(&[typed(cols(&entries)), typed(cols(&[]))]), want);
        assert_eq!(resolved(&[]), (0, vec![]));
    }

    /// Log offsets are `u32`: the last representable length passes, the
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
        let indices = |c: Box<WriteCols<u64>>| c.elements().iter().map(|e| e.0).collect();
        parcels.map(|p| (p.dest, indices(payload(p)))).collect()
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
        let put = WKind::Assign;
        assert_eq!(
            c.elements(),
            vec![(0, put, vec![(0, 0)]), (1, put, vec![(0, 1)])],
            "entries sorted by index"
        );
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
            drained(weighted.clone(), &[0, 1, 2, 3, 4, 5, 6, 7]),
            vec![(0, vec![0]), (1, vec![1, 2, 3, 4]), (3, vec![5, 6, 7])]
        );
        assert_eq!(OWNER_LOOKUPS.get() - asked, 3);
        let asked = OWNER_LOOKUPS.get();
        assert_eq!(
            drained(Dist::block(8, 4), &[1, 2, 3, 4, 5]),
            vec![(0, vec![1]), (1, vec![2, 3]), (2, vec![4, 5])]
        );
        assert_eq!(OWNER_LOOKUPS.get() - asked, 3);
        // The same through three owners as one `put_many`: one call, cut
        // into three spans, `dist` asked once per piece.
        let mut ga = Logged::<u64>::new(weighted);
        let mut scratch = WLog::scratch();
        scratch.record(2, WKind::Assign, None, (0..8).map(|i| (i, i)));
        ga.wlog.append(10, &mut scratch);
        assert_eq!(ga.wlog.headers().len(), 1);
        let asked = OWNER_LOOKUPS.get();
        let spans: Vec<_> = (ga.drain_writes(None))
            .into_iter()
            .map(|p| (p.dest, payload::<u64>(p)))
            .map(|(dest, c)| {
                let spans = c.spans.iter().map(|s| (s.first, s.len, s.rank));
                (dest, spans.collect::<Vec<_>>(), c.vals.clone())
            })
            .collect();
        assert_eq!(OWNER_LOOKUPS.get() - asked, 3);
        assert_eq!(
            spans,
            vec![
                (0, vec![(0, 1, 12)], vec![0]),
                (1, vec![(1, 4, 12)], vec![1, 2, 3, 4]),
                (3, vec![(5, 3, 12)], vec![5, 6, 7]),
            ]
        );
        // A cyclic layout meets them out of order (3 → node 3 before 4 →
        // node 0) and comes back to one it has left (0, 4, 8 → node 0):
        // still one parcel per destination, ascending by destination.
        assert_eq!(
            drained(Dist::cyclic(12, 4), &[4, 3, 8, 0, 7, 5]),
            vec![(0, vec![0, 4, 8]), (1, vec![5]), (3, vec![3, 7])]
        );
    }

    /// What a call costs the log: a run keeps no index, calls of one VP
    /// that continue a run are one call, a call that is not a run lists its
    /// writes, single elements join whichever they follow, and a VP that
    /// lists goes on listing.
    pub fn a_call_is_a_run_or_lists_its_indices() {
        let mut log = WLog::<u64>::scratch();
        let put = WKind::Assign;
        let shape = |log: &WLog<u64>| (log.headers().len(), log.vals.len(), log.listed.len());
        // spmv's chunks: four calls, one run.
        for chunk in 0..4u64 {
            let rows = chunk * 256..(chunk + 1) * 256;
            assert_eq!(log.record(3, put, None, rows.map(|i| (i, i))), 256);
        }
        assert_eq!(shape(&log), (1, 1024, 0));
        assert_eq!(log.headers()[0].run(), Some(0..1024));
        // Lone puts that continue it, too; one that does not is a new call,
        // and with the next stray one it becomes a listed call of two.
        log.record(3, put, None, [(1024, 0)].into_iter());
        log.record(3, put, None, [(7, 70)].into_iter());
        assert_eq!(shape(&log), (2, 1026, 0));
        assert_eq!(log.record(3, put, None, [(9, 90)].into_iter()), 1);
        assert_eq!(shape(&log), (2, 1025, 2));
        // Whatever the VP puts next is listed; another kind or another VP is
        // another call, and a run again.
        assert_eq!(log.record(3, put, None, (20..24).map(|i| (i, i))), 4);
        log.record(3, ADD, None, (24..28).map(|i| (i, i)));
        log.record(4, ADD, None, (28..32).map(|i| (i, i)));
        assert_eq!(shape(&log), (4, 1033, 6));
        let want = [(7, 70), (9, 90), (20, 20), (21, 21), (22, 22), (23, 23)];
        assert_eq!(log.listed, want);
        // A call that strays after a run's worth lists all of its writes.
        let strays = [(40, 0), (41, 1), (5, 2), (6, 3)];
        assert_eq!(log.record(5, ADD, None, strays.into_iter()), 4);
        assert_eq!(shape(&log), (5, 1033, 10));
        assert_eq!(log.listed[6..], strays);
        let lens: Vec<u32> = log.headers().iter().map(|c| c.len).collect();
        assert_eq!(lens, vec![1025, 6, 4, 4, 4]);
        // Moved to an array's log behind other calls, each still finds its
        // column.
        let mut phase = WLog::<u64>::default();
        phase.record(0, put, None, [(3, 0), (1, 0)].into_iter());
        phase.record(1, put, None, [(8, 0), (9, 0)].into_iter());
        phase.append(0, &mut log);
        let ats: Vec<u32> = phase.headers().iter().map(|c| c.at).collect();
        assert_eq!(ats, vec![0, 0, 2, 2, 1027, 1031, 8]);
        assert!(log.is_empty() && log.vals.is_empty() && log.listed.is_empty());
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
                one.record(vp, kind, None, [(idx as u64, val)].into_iter());
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

    fn conflict(
        space: Space,
        array: u32,
        index: u64,
        first_vp: u64,
        second_vp: u64,
        phase: PhaseKind,
    ) -> PhaseViolation {
        PhaseViolation::WriteWriteConflict {
            space,
            array,
            index,
            first_vp,
            second_vp,
            phase,
        }
    }

    /// Elements of the property's one array; the last is the planted one.
    const LEN: u64 = 40;
    /// VPs per node, and the distance between two nodes' VP-0 ranks.
    const VPS: u32 = 3;

    /// `((node, vp, merge round), (shape, start, length, salt))`: one bulk
    /// write. Shape 0 puts the run `start..start + length`, shape 1 puts
    /// `length` scattered indices, anything else accumulates them; `salt`
    /// sets the stride of the scatter (0: one element, `length` times) and
    /// picks the values. Puts stay below the case's `cut`, accumulates at or
    /// above it, so no script mixes kinds unless planted.
    type Op = ((usize, u32, usize), (u8, u64, u64, u64));

    /// `(layout, nodes, cut, (checker on, plant))`. Plants put two writes
    /// on element `LEN - 1`, which no op reaches: 1 a put and an accumulate
    /// of one node, 2 two operators of one node, 3 and 4 the same from two
    /// nodes.
    type Setup = (u8, usize, u64, (bool, u8));

    /// A write as both sides see it.
    #[derive(Clone, Copy)]
    struct Write {
        rank: u64,
        /// Position in its VP's program.
        order: usize,
        kind: WKind,
        val: f64,
    }

    /// Each node's writes per element, in ascending (rank, program order).
    type Model = Vec<BTreeMap<u64, Vec<Write>>>;

    fn layout(setup: &Setup) -> Dist {
        let nodes = setup.1;
        match setup.0 % 3 {
            0 => Dist::block(LEN as usize, nodes),
            // Node 1, when there is one beside the last, owns nothing.
            1 => {
                let mut bounds: Vec<usize> =
                    (0..=nodes).map(|n| n * LEN as usize / nodes).collect();
                if nodes > 2 {
                    bounds[2] = bounds[1];
                }
                Dist::weighted(LEN as usize, nodes, Arc::new(bounds))
            }
            _ => Dist::cyclic(LEN as usize, nodes),
        }
    }

    /// What `op` writes, in order.
    fn writes_of(cut: u64, &(_, (shape, start, len, salt)): &Op) -> (WKind, Vec<(u64, f64)>) {
        let free = LEN - 1;
        let (kind, room) = match shape {
            0 | 1 => (WKind::Assign, 0..cut.min(free)),
            _ => (ADD, cut.min(free)..free),
        };
        if room.is_empty() {
            return (kind, Vec::new());
        }
        let span = room.end - room.start;
        let first = room.start + start % span;
        let items = (0..len).map(|j| match shape {
            // One value per call: overlapping puts agree half the time.
            0 => (first + j, [7.0, 9.0][salt as usize % 2]),
            1 => (
                room.start + (start + j * salt) % span,
                3.0 + (salt % 2) as f64,
            ),
            _ => {
                let val = [1.0, 1e16, -1e16, 0.5, 3.0][(salt + j) as usize % 5];
                (room.start + (start + j * salt % 7) % span, val)
            }
        });
        (kind, items.take_while(|w| w.0 < room.end).collect())
    }

    /// Run `setup`'s nodes' scripts through logs of their own and through
    /// the model: `(parcels per node, conflict reports per node, model)`.
    #[allow(clippy::type_complexity)]
    fn logged(
        setup: &Setup,
        ops: &[Op],
    ) -> (Vec<Vec<WriteParcel>>, Vec<Vec<PhaseViolation>>, Model) {
        let &(_, nodes, cut, (checked, plant)) = setup;
        let dist = layout(setup);
        let planted = |node: usize, kind| ((node, 0, 0), kind, vec![(LEN - 1, 2.0)]);
        let max = WKind::Accum(AccumOp::Max);
        let plants = match plant {
            1 => vec![planted(0, WKind::Assign), planted(0, ADD)],
            2 => vec![planted(0, ADD), planted(0, max)],
            3 => vec![planted(0, WKind::Assign), planted(nodes - 1, ADD)],
            4 => vec![planted(0, ADD), planted(nodes - 1, max)],
            _ => Vec::new(),
        };
        let script = ops.iter().map(|op| {
            let (kind, items) = writes_of(cut, op);
            (op.0, kind, items)
        });
        let script: Vec<_> = script.chain(plants).collect();
        let rounds = script.iter().map(|s| s.0 .2 + 1).max().unwrap_or(0);
        let (mut parcels, mut reports, mut model) = (Vec::new(), Vec::new(), Vec::new());
        for node in 0..nodes {
            let base = (node as u32 * VPS) as u64;
            let mut ga = Logged::<f64>::new(dist.clone());
            let mut writes: BTreeMap<u64, Vec<Write>> = BTreeMap::new();
            let mut order = 0;
            // A VP merges once per round: the second merge of a lower rank
            // lands behind the first of a higher one.
            for round in 0..rounds {
                for vp in 0..VPS {
                    let mut scratch = WLog::scratch();
                    let mine = script.iter().filter(|s| s.0 == (node, vp, round));
                    for (_, kind, items) in mine {
                        scratch.record(vp, *kind, None, items.iter().copied());
                        for &(idx, val) in items {
                            let rank = base + vp as u64;
                            writes.entry(idx).or_default().push(Write {
                                rank,
                                order,
                                kind: *kind,
                                val,
                            });
                            order += 1;
                        }
                    }
                    ga.wlog.append(base, &mut scratch);
                }
            }
            writes
                .values_mut()
                .for_each(|w| w.sort_by_key(|w| (w.rank, w.order)));
            let mut checker = Checker::default();
            let sink = checked.then(|| checker.conflicts_in(Space::Global, 0, PhaseKind::Global));
            parcels.push(ga.drain_writes(sink));
            reports.push(checker.end_phase());
            model.push(writes);
        }
        (parcels, reports, model)
    }

    /// The panic text of `f`, if it panics.
    fn panic_text<R>(f: impl FnOnce() -> R) -> Option<String> {
        let err = catch_unwind(AssertUnwindSafe(f)).err()?;
        let text = err.downcast::<String>().map(|s| *s);
        Some(text.unwrap_or_else(|e| {
            e.downcast::<&str>()
                .map_or(String::new(), |s| s.to_string())
        }))
    }

    /// The whole write path — `record`, `append`, the drain's two ways, the
    /// span parcel, the owner's merge — against a map of every element's
    /// writes: random scripts of runs, overlapping runs of two VPs, a VP
    /// rewriting its own, lone and scattered puts, accumulates with repeats,
    /// VPs that merge twice; block, weighted (one owner empty) and cyclic
    /// layouts; one to three nodes; checker on and off. Parcels, conflict
    /// reports, the owners' values, written ranges and touches all follow
    /// from the map, and a planted mix or second operator panics with the
    /// text it always had.
    pub fn the_run_path_equals_the_element_model() {
        // What the cases exercised.
        let (runs, contested, conflicts, panics) =
            (Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0));
        let gen = |g: &mut Gen| {
            let nodes = g.usize_in(1..4);
            // Every other case is puts only; a third of those, runs only,
            // each VP mostly in a stretch of its own.
            let cut = [LEN, g.u64_in(0..LEN)][g.usize_in(0..2)];
            let tidy = cut == LEN && g.usize_in(0..3) > 0;
            let plant = if g.usize_in(0..4) == 0 {
                g.u32_in(1..5) as u8
            } else {
                0
            };
            let setup = (g.u32_in(0..3) as u8, nodes, cut, (g.bool(), plant));
            let ops = g.vec(0..10, |g| {
                let who = (g.usize_in(0..nodes), g.u32_in(0..VPS), g.usize_in(0..2));
                if tidy {
                    let mine = (who.0 as u64 * VPS as u64 + who.1 as u64) * 4;
                    return (who, (0, mine + g.u64_in(0..3), g.u64_in(1..4), g.u64()));
                }
                let what = (
                    g.u32_in(0..4) as u8,
                    g.u64_in(0..LEN),
                    g.u64_in(1..12),
                    g.u64_in(0..6),
                );
                (who, what)
            });
            (setup, ops)
        };
        forall(
            "the_run_path_equals_the_element_model",
            400,
            gen,
            |(setup, ops)| {
                let &(_, nodes, cut, (checked, plant)) = setup;
                if !(1..4).contains(&nodes) || cut > LEN || ops.iter().any(|op| op.0 .0 >= nodes) {
                    return Ok(());
                }
                let dist = layout(setup);
                let p = LEN - 1;
                // On one node, "across nodes" is within it.
                if matches!(plant, 1 | 2) || (plant > 2 && nodes == 1) {
                    let text = panic_text(|| logged(setup, ops));
                    let want = [
                        format!("element {p}: put and accumulate mixed in one phase"),
                        format!("element {p}: conflicting accumulate operators in one phase"),
                    ];
                    prop_assert!(text.is_some_and(|t| t.contains(&want[(plant as usize - 1) % 2])));
                    panics.set(panics.get() + 1);
                    return Ok(());
                }
                let (parcels, reports, model) = logged(setup, ops);
                // What each node ships, and what it tells the checker.
                for (node, writes) in model.iter().enumerate() {
                    let mut want: BTreeMap<usize, Vec<Element<f64>>> = BTreeMap::new();
                    let mut disagree = Vec::new();
                    for (&idx, w) in writes {
                        let kind = w[0].kind;
                        let parts = match kind {
                            WKind::Assign => &w[w.len() - 1..],
                            WKind::Accum(_) => &w[..],
                        };
                        let parts = parts.iter().map(|w| (w.rank, w.val)).collect();
                        want.entry(dist.owner(idx as usize))
                            .or_default()
                            .push((idx, kind, parts));
                        let mut last_puts =
                            w.chunk_by(|a, b| a.rank == b.rank).map(|w| w[w.len() - 1]);
                        let first = last_puts.next().expect("a writer");
                        let differs = |w: &Write| w.val.to_bits() != first.val.to_bits();
                        let tells = checked && kind == WKind::Assign;
                        if let Some(second) = last_puts.find(differs).filter(|_| tells) {
                            let global = PhaseKind::Global;
                            disagree.push(conflict(
                                Space::Global,
                                0,
                                idx,
                                first.rank,
                                second.rank,
                                global,
                            ));
                        }
                    }
                    prop_assert_eq!(reports[node], disagree);
                    conflicts.set(conflicts.get() + disagree.len());
                    let got = parcels[node].iter().map(|p| {
                        let cols: &WriteCols<f64> = p.payload.downcast_ref().unwrap();
                        runs.set(runs.get() + cols.spans.iter().filter(|s| s.len > 1).count());
                        (p.dest, (p.entries, p.bytes, cols.elements()))
                    });
                    let want = want.into_iter().map(|(dest, elements)| {
                        let entries = elements.len();
                        (dest, (entries as u64, entries * (9 + 8), elements))
                    });
                    prop_assert_eq!(got.collect::<Vec<_>>(), want.collect::<Vec<_>>());
                }
                // What each owner makes of it.
                let mut from: Vec<Vec<(u32, Box<dyn Any + Send>)>> =
                    (0..nodes).map(|_| Vec::new()).collect();
                for (node, parcels) in parcels.into_iter().enumerate().rev() {
                    for p in parcels {
                        from[p.dest].push((node as u32, p.payload));
                    }
                }
                for (owner, sources) in from.into_iter().enumerate() {
                    let mut ga: GArray<f64> = GArray::new(dist.clone(), owner);
                    let mine = |idx: &u64| dist.owner(*idx as usize) == owner;
                    let mut all: BTreeMap<u64, Vec<Write>> = BTreeMap::new();
                    for writes in &model {
                        for (&idx, w) in writes.iter().filter(|(idx, _)| mine(idx)) {
                            let shipped = match w[0].kind {
                                WKind::Assign => &w[w.len() - 1..],
                                WKind::Accum(_) => &w[..],
                            };
                            all.entry(idx).or_default().extend(shipped);
                        }
                    }
                    let entries: usize = model
                        .iter()
                        .map(|w| w.keys().filter(|i| mine(i)).count())
                        .sum();
                    let mut touched = Vec::new();
                    let apply = || ga.apply_writes(sources, &mut |offs| touched.extend(offs), true);
                    if plant > 2 && mine(&p) {
                        let want = [
                            format!(
                                "element {p}: put and accumulate mixed across nodes in one phase"
                            ),
                            format!("element {p}: conflicting accumulate operators"),
                        ];
                        let text = panic_text(apply);
                        prop_assert!(text.is_some_and(|t| t.contains(&want[plant as usize - 3])));
                        panics.set(panics.get() + 1);
                        continue;
                    }
                    let (applied, written) = apply();
                    prop_assert_eq!(applied as usize, entries);
                    let mut want = vec![0.0; ga.local.len()];
                    let mut ranges: Vec<Range<u64>> = Vec::new();
                    let mut offsets = Vec::new();
                    for (&idx, w) in &mut all {
                        contested.set(contested.get() + (w.len() > 1) as usize);
                        w.sort_by_key(|w| w.rank);
                        let value = match w[0].kind {
                            WKind::Assign => w[w.len() - 1].val,
                            WKind::Accum(_) => w[1..].iter().fold(w[0].val, |acc, w| acc + w.val),
                        };
                        let off = dist.local_offset(idx as usize);
                        want[off] = value;
                        offsets.push(off);
                        match ranges.last_mut() {
                            Some(r) if r.end == idx => r.end += 1,
                            _ => ranges.push(idx..idx + 1),
                        }
                    }
                    let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(&ga.local), bits(&want));
                    prop_assert_eq!(written, ranges);
                    prop_assert_eq!(touched, offsets);
                }
                Ok(())
            },
        );
        let seen = (runs.get(), contested.get(), conflicts.get(), panics.get());
        assert!(
            seen.0 > 100 && seen.1 > 100 && seen.2 > 20 && seen.3 > 20,
            "{seen:?}"
        );
    }
}
