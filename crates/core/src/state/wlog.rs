//! The write log: what a phase's buffered writes are kept in, how they
//! resolve at the phase boundary, and what ships to — and is stored by — each
//! element's owner. The unit of all three is one writer's calls in its
//! program order, kept as *runs* — a first index and the values of the
//! consecutive elements from it on — or as indices beside values; nothing on
//! the way sorts an element.

use std::any::Any;
use std::ops::Range;

use super::count;
use crate::check::{first_disagreement, Conflicts, Space};
use crate::cost::WRITE_ENTRY_BYTES;
use crate::dist::Dist;
use crate::elem::{AccumOp, Elem};
use crate::ledger::{ledger, Held, PARCELS};

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

/// Append-only write log: one per array, which every VP of the node records
/// into while it is polled. Writer and kind are kept once per *call*, and a
/// call whose indices ascend by one keeps its first index and its values,
/// nothing per element; any other lists `(index, value)` pairs. One column
/// per shape, so that a VP's writes grow one block: two that grow in turn
/// make the allocator move both whenever either doubles (3.5× on
/// [`Self::record`] for PageRank's scatter). Appending is all that happens
/// during a phase body — ordering, last-writer resolution and operator
/// checks run once, at the phase boundary ([`Self::drain`]), and
/// contributions stay raw until the owner folds them, so a floating-point
/// result depends only on each VP's program order, never on the poll-round
/// structure that interleaved the VPs' calls (which wave pipelining
/// changes, DESIGN.md §13). The buffer lives for one phase: the drain frees
/// it, so an idle array's log holds no memory.
#[derive(Default)]
pub(super) struct WLog<T> {
    /// The last call, which the next one of the same VP and kind may join,
    /// and those before it.
    open: Option<Call>,
    calls: Vec<Call>,
    /// The runs' values, call after call.
    vals: Vec<T>,
    /// The other calls' writes, call after call.
    listed: Vec<(u64, T)>,
    /// Global rank of this node's VP 0: what `Call::vp` is relative to.
    pub(super) base: u64,
    /// The element type's combiner, captured where `T: AccumElem` is known
    /// so the type-erased replay and apply paths can fold. It is
    /// `T::combine` for every accumulate, hence stored once.
    combine: Option<fn(AccumOp, T, T) -> T>,
    /// What `vals` and `listed` held when the log last drained: the next
    /// phase's first write reserves as much, so a log that fills alike
    /// phase after phase takes one block per column and gives it back —
    /// not a chain of doublings, whose freed steps the allocator keeps.
    last: (usize, usize),
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
    /// A single element is either: it joins whichever it follows. Only the
    /// log's last call is open, so another VP's call in between — one polled
    /// while this VP was parked — closes it.
    #[inline]
    pub(super) fn record(
        &mut self,
        vp: u32,
        kind: WKind,
        combine: Option<fn(AccumOp, T, T) -> T>,
        mut items: impl Iterator<Item = (u64, T)>,
    ) -> u64 {
        if self.is_empty() {
            self.vals.reserve(self.last.0);
            self.listed.reserve(self.last.1);
        }
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

    /// Call `f` with each of `c`'s writes, `(index, value)`, last first.
    #[inline]
    fn each_back(&self, c: &Call, mut f: impl FnMut(u64, T)) {
        let (at, len) = (c.at as usize, c.len as usize);
        match c.first {
            Some(first) => {
                let vals = self.vals[at..at + len].iter().enumerate().rev();
                vals.for_each(|(i, &val)| f(first + i as u64, val));
            }
            None => (self.listed[at..at + len].iter().rev()).for_each(|&(idx, val)| f(idx, val)),
        }
    }

    /// Call `f(call, index, value, fresh)` with each write a drain ships,
    /// last first: every accumulate, and an assign's first sighting, which
    /// is its last write. A write is `fresh` — the first sighting of its
    /// element — if the element's bit in `bits` (from `lo` on) reads `on`,
    /// and flips it: a walk with `on` false sets the bit of every element
    /// written, and one with `on` true clears them again.
    #[inline]
    fn each_kept(
        &self,
        bits: &mut [u64],
        lo: u64,
        on: bool,
        mut f: impl FnMut(usize, u64, T, bool),
    ) {
        for (call, c) in self.calls.iter().enumerate().rev() {
            let accum = c.kind != WKind::Assign;
            self.each_back(c, |idx, val| {
                let (w, m) = (((idx - lo) / 64) as usize, 1 << ((idx - lo) % 64));
                let fresh = (bits[w] & m != 0) == on;
                bits[w] ^= if fresh { m } else { 0 };
                if fresh || accum {
                    f(call, idx, val, fresh);
                }
            });
        }
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
    /// - **Anything else** is bucketed by owner in writer order — (VP,
    ///   program order), a scan of the call headers unless another VP's
    ///   calls came between two of one VP's. Each destination gets an index and a value column in that
    ///   order, cut into one segment per call, so no element is sorted: an
    ///   accumulate ships every raw contribution, an assign only its last
    ///   write. Mixing the two — or two operators — on one element panics
    ///   here, at the phase boundary. With the checker on, an assign several
    ///   VPs wrote is where a write-write conflict shows, and it is reported
    ///   to `conflicts`.
    ///
    /// An entry is modeled as [`WRITE_ENTRY_BYTES`] plus one value either
    /// way: combining is charged as done sender-side and the rank tags ride
    /// free, like other protocol sidecars, so repartitioning changes
    /// neither entry counts nor bytes. `scratch` is the array's, reused.
    pub(super) fn drain(
        &mut self,
        space: Space,
        dist: &Dist,
        conflicts: Option<Conflicts<'_>>,
        scratch: &mut Scratch,
    ) -> Vec<WriteParcel> {
        if self.is_empty() {
            return Vec::new();
        }
        let mut log = std::mem::take(self);
        self.last = (log.vals.len(), log.listed.len());
        log.calls.extend(log.open.take());
        let out = match log.drain_runs(dist) {
            Some(out) => out,
            None => log.drain_scattered(space, dist, conflicts, scratch),
        };
        let parcel = |(dest, mut cols): (usize, WriteCols<T>)| {
            cols.combine = log.combine;
            ledger!(cols.held, {
                use crate::ledger::bytes;
                bytes(&cols.segs) + bytes(&cols.idx) + bytes(&cols.vals)
            });
            WriteParcel {
                dest,
                entries: cols.entries,
                bytes: cols.bytes,
                payload: Box::new(cols),
            }
        };
        out.into_iter().map(parcel).collect()
    }

    /// The drain of runs that do not meet, if that is what the log holds.
    fn drain_runs(&self, dist: &Dist) -> Option<Vec<(usize, WriteCols<T>)>> {
        if !dist.is_contiguous() {
            return None;
        }
        let mut runs: Vec<_> =
            (self.calls.iter().map(|c| Some((c.run()?, c)))).collect::<Option<_>>()?;
        runs.sort_unstable_by_key(|(run, _)| run.start);
        if !runs.windows(2).all(|w| w[0].0.end <= w[1].0.start) {
            return None;
        }
        // Owners never decrease along the runs: a new destination is a new
        // parcel, the last one.
        let mut out: Vec<(usize, WriteCols<T>)> = Vec::new();
        // The open destination's owned range.
        let mut owned = 0..0;
        for (r, (run, call)) in runs.iter().enumerate() {
            let mut lo = run.start;
            while lo < run.end {
                if !owned.contains(&lo) {
                    count!(super::OWNER_LOOKUPS);
                    let dest = dist.owner(lo as usize);
                    let range = dist.owned_range(dest);
                    owned = range.start as u64..range.end as u64;
                    // Every value left below the destination's last element.
                    let below = runs[r..].iter().take_while(|(r, _)| r.start < owned.end);
                    let vals = below.map(|(r, _)| r.end.min(owned.end) - r.start.max(lo));
                    let mut cols = WriteCols::default();
                    cols.vals.reserve_exact(vals.sum::<u64>() as usize);
                    out.push((dest, cols));
                }
                let hi = run.end.min(owned.end);
                let at = call.at as usize + (lo - run.start) as usize;
                let piece = &self.vals[at..at + (hi - lo) as usize];
                // Cannot fire: the parcel was just opened if none was.
                let p = &mut out.last_mut().expect("an open parcel").1;
                let rank = self.base + call.vp as u64;
                let seg = Seg::new(rank, call.kind, Some(lo), p.vals.len(), piece.len());
                p.segs.push(seg);
                p.vals.extend_from_slice(piece);
                p.entries += piece.len() as u64;
                p.bytes += piece.len() * WRITE_ENTRY_BYTES;
                p.bytes += piece.iter().map(T::wire_size).sum::<usize>();
                lo = hi;
            }
        }
        Some(out)
    }

    /// The drain of anything else (see [`Self::drain`]): two walks of the
    /// writes, last first, over a bitmap of the log's index span
    /// ([`Self::each_kept`]). The first counts what each destination gets —
    /// its distinct elements, its writes, and its segments, one per call
    /// that writes there — so that every column is sized exactly; the
    /// second fills the columns from their ends. The checks, when there is
    /// anything to check, sort what they check ([`judge`]).
    fn drain_scattered(
        &mut self,
        space: Space,
        dist: &Dist,
        conflicts: Option<Conflicts<'_>>,
        scratch: &mut Scratch,
    ) -> Vec<(usize, WriteCols<T>)> {
        // Stable: a VP's calls stay in program order.
        self.calls.sort_by_key(|c| c.vp);
        let kind = self.calls[0].kind;
        let puts = self.calls.iter().any(|c| c.kind == WKind::Assign);
        if self.calls.iter().any(|c| c.kind != kind) || (puts && conflicts.is_some()) {
            // `(index, position in writer order, rank, kind, value)`.
            let mut writes = Vec::new();
            let mut pos = self.calls.iter().map(|c| c.len as u64).sum::<u64>();
            for c in self.calls.iter().rev() {
                let rank = self.base + c.vp as u64;
                self.each_back(c, |idx, val| {
                    pos -= 1;
                    writes.push((idx, pos, rank, c.kind, val));
                });
            }
            // A global array's panics name the bare element, as they always
            // have.
            let what = ["", "node "][(space == Space::Node) as usize];
            let texts = ["accumulate operators in one phase", "in one phase"];
            judge(&mut writes, what, texts, conflicts);
        }
        let (mut lo, mut hi) = (u64::MAX, 0);
        for c in &self.calls {
            self.each_back(c, |idx, _| (lo, hi) = (lo.min(idx), hi.max(idx)));
        }
        let words = ((hi - lo) / 64 + 1) as usize;
        let (bits, owners, shares) = (&mut scratch.bits, &mut scratch.owners, &mut scratch.shares);
        bits.resize(bits.len().max(words), 0);
        // Per word, the node that owns all of its elements, if one does:
        // `Dist::owner` is asked once per destination and per word two of
        // them share, and per element only in such a word or under a
        // cyclic layout.
        owners.clear();
        owners.resize(words, NO_OWNER);
        let mut w = 0;
        while dist.is_contiguous() && w < words {
            let dest = dist.owner((lo + 64 * w as u64) as usize);
            let end = ((dist.owned_range(dest).end as u64 - lo) / 64) as usize;
            owners[w..end.clamp(w, words)].fill(dest as u32);
            w = end.max(w + 1);
        }
        // The destinations the span reaches: under a contiguous layout, the
        // owners of `lo` to `hi` — one for a log that writes one element —
        // under a cyclic one, every node.
        let dests = match dist.is_contiguous() {
            true => dist.owner(lo as usize)..dist.owner(hi as usize) + 1,
            false => 0..dist.nodes,
        };
        let owner = |idx: u64| match owners[((idx - lo) / 64) as usize] {
            NO_OWNER => dist.owner(idx as usize) - dests.start,
            dest => dest as usize - dests.start,
        };
        shares.clear();
        shares.resize(dests.len(), Share::default());
        self.each_kept(bits, lo, false, |call, idx, val, fresh| {
            let s = &mut shares[owner(idx)];
            s.entries += fresh as u64;
            s.bytes += fresh as usize * (WRITE_ENTRY_BYTES + val.wire_size());
            s.writes += 1;
            s.segs += (s.call != Some(call)) as usize;
            s.call = Some(call);
        });
        let mut out = Vec::new();
        for (dest, s) in dests
            .clone()
            .zip(shares.iter_mut())
            .filter(|(_, s)| s.entries > 0)
        {
            let cols = WriteCols {
                segs: Vec::with_capacity(s.segs),
                idx: vec![0; s.writes],
                vals: vec![T::default(); s.writes],
                combine: None,
                entries: s.entries,
                bytes: s.bytes,
                held: Held::default(),
            };
            (s.call, s.parcel) = (None, out.len());
            out.push((dest, cols));
        }
        self.each_kept(bits, lo, true, |call, idx, val, _| {
            let s = &mut shares[owner(idx)];
            let p = &mut out[s.parcel].1;
            if s.call != Some(call) {
                s.call = Some(call);
                // At its end, for now, and last first.
                let (rank, kind) = (
                    self.base + self.calls[call].vp as u64,
                    self.calls[call].kind,
                );
                p.segs.push(Seg::new(rank, kind, None, s.writes, 0));
            }
            s.writes -= 1;
            (p.idx[s.writes], p.vals[s.writes]) = (idx, val);
        });
        // A parcel's segments tile its columns.
        for (_, p) in &mut out {
            p.segs.reverse();
            let mut at = 0;
            for seg in &mut p.segs {
                (seg.at, seg.len, at) = (at, seg.at - at, seg.at);
            }
        }
        out
    }
}

/// Sort `writes` — `(index, order, rank, kind, value)` — by element, then
/// order, and judge each element's. Unless they all share the first one's
/// kind and operator, panic at the lowest such element: `"{what}element
/// {index}: conflicting {texts[0]}"` for two operators, `"… put and
/// accumulate mixed {texts[1]}"` for two kinds. Given `conflicts`, report
/// an element whose ranks' last puts disagree.
fn judge<T: Elem>(
    writes: &mut [(u64, u64, u64, WKind, T)],
    what: &str,
    [ops, kinds]: [&str; 2],
    mut conflicts: Option<Conflicts<'_>>,
) {
    writes.sort_unstable_by_key(|w| (w.0, w.1));
    for run in writes.chunk_by(|a, b| a.0 == b.0) {
        let (idx, kind) = (run[0].0, run[0].3);
        for w in &run[1..] {
            match (kind, w.3) {
                (WKind::Accum(a), WKind::Accum(b)) => {
                    assert_eq!(a, b, "{what}element {idx}: conflicting {ops}")
                }
                (a, b) => assert!(
                    a == b,
                    "{what}element {idx}: put and accumulate mixed {kinds}"
                ),
            }
        }
        // In order: the ends differ iff several ranks put.
        let several = kind == WKind::Assign && run[0].2 != run[run.len() - 1].2;
        if let Some(c) = conflicts.as_mut().filter(|_| several) {
            let last_puts = run
                .chunk_by(|a, b| a.2 == b.2)
                .map(|w| (w[0].2, w[w.len() - 1].4));
            if let Some(pair) = first_disagreement(last_puts) {
                c.report(idx, pair);
            }
        }
    }
}

/// What the drain and the owner's fold reuse from phase to phase: an
/// array's, kept beside its log.
#[derive(Default)]
pub(super) struct Scratch {
    /// One bit per element of the span in hand, all zeros between uses.
    bits: Vec<u64>,
    /// The drain's owner per word of `bits`, or [`NO_OWNER`].
    owners: Vec<u32>,
    /// The drain's count per destination node its span reaches.
    shares: Vec<Share>,
    /// The fold's segment headers, `(sort key, parcel, position)`.
    order: Vec<(u64, u32, u32)>,
}

/// A word of elements that several nodes own, or that a cyclic layout
/// deals out.
const NO_OWNER: u32 = u32::MAX;

/// One destination's part of a drain.
#[derive(Clone, Default)]
struct Share {
    /// Distinct elements, and their modeled wire bytes.
    entries: u64,
    bytes: usize,
    /// Writes and segments it ships; the second walk counts them down to
    /// the position it fills next.
    writes: usize,
    segs: usize,
    /// The call whose segment is in hand.
    call: Option<usize>,
    /// Its parcel's position in the drain's output.
    parcel: usize,
}

/// `len` consecutive writes of the VP of global rank `rank`, in its program
/// order: the run of elements from `first` on, or (`first` is `None`) the
/// elements at the same positions of the index column.
#[derive(Clone, Copy)]
struct Seg {
    rank: u64,
    kind: WKind,
    first: Option<u64>,
    /// Position of its first value (and index).
    at: usize,
    len: usize,
}

impl Seg {
    fn new(rank: u64, kind: WKind, first: Option<u64>, at: usize, len: usize) -> Self {
        Seg {
            rank,
            kind,
            first,
            at,
            len,
        }
    }
}

/// The resolved writes one node ships to one owner for one array (a
/// `K_WRITE` bundle part): segments over one value column and — for those
/// that are not runs — one index column beside it. A run-path parcel's
/// segments ascend by `first`, each element in one of them; the other
/// path's are in writer order, one per call, so an element's contributions
/// from that node — an assign's last write, an accumulate's every one —
/// come in ascending (rank, program order). Shipping contributions
/// rank-keyed instead of a per-node partial is what makes the fold
/// **placement-invariant**: the order never depends on which node hosted a
/// contributing VP.
#[derive(Default)]
pub(super) struct WriteCols<T> {
    segs: Vec<Seg>,
    idx: Vec<u64>,
    vals: Vec<T>,
    combine: Option<fn(AccumOp, T, T) -> T>,
    /// Distinct elements written.
    entries: u64,
    /// Modeled wire bytes of the entries.
    bytes: usize,
    /// The columns' bytes, until the owner has applied them.
    held: Held<PARCELS>,
}

impl<T: Copy> WriteCols<T> {
    /// Call `f` with each of `s`'s writes, `(index, value)`, in order.
    #[inline]
    fn each(&self, s: &Seg, mut f: impl FnMut(u64, T)) {
        let vals = self.vals[s.at..s.at + s.len].iter().copied();
        match s.first {
            Some(first) => (first..).zip(vals).for_each(|(idx, val)| f(idx, val)),
            None => (self.idx[s.at..s.at + s.len].iter().copied().zip(vals))
                .for_each(|(idx, val)| f(idx, val)),
        }
    }
}

/// Owner side: fold the `parcels` (ascending source node) into `local`,
/// where `offset` finds an element (and panics for one this node does not
/// own), and hand `landed` the elements written, as ascending stretches of
/// consecutive indices. Runs that no other segment reaches into are stored
/// as they stand, one copy each. Anything else folds write by write: the
/// segments of all parcels are put in rank order — headers, not elements —
/// and each write goes to its element's offset, replacing it if it is the
/// element's first (a clear bit in `scratch`'s bitmap over the touched
/// indices), else combining with it. So an assign resolves to its highest
/// rank's last write, and accumulates fold in ascending (global VP rank,
/// program order) — the fold a sequential ascending-rank schedule performs,
/// whatever the partitioning. Returns the entries consumed.
pub(super) fn fold_parcels<T: Elem>(
    parcels: &[Box<WriteCols<T>>],
    local: &mut [T],
    offset: impl Fn(u64) -> usize,
    scratch: &mut Scratch,
    mut landed: impl FnMut(Range<u64>),
) -> u64 {
    let applied = parcels.iter().map(|p| p.entries).sum();
    let (bits, order) = (&mut scratch.bits, &mut scratch.order);
    let seg =
        |&(_, p, s): &(u64, u32, u32)| (&parcels[p as usize], parcels[p as usize].segs[s as usize]);
    // First by where each run starts.
    order.clear();
    for (p, cols) in parcels.iter().enumerate() {
        for (s, seg) in cols.segs.iter().enumerate() {
            order.push((seg.first.unwrap_or(u64::MAX), p as u32, s as u32));
        }
    }
    order.sort_unstable();
    let runs = order.iter().all(|o| seg(o).1.first.is_some());
    if runs
        && order
            .windows(2)
            .all(|w| w[0].0 + seg(&w[0]).1.len as u64 <= w[1].0)
    {
        for o in order.iter() {
            let (cols, s) = seg(o);
            let elems = o.0..o.0 + s.len as u64;
            let offs = offset(elems.start)..offset(elems.end - 1) + 1;
            local[offs].copy_from_slice(&cols.vals[s.at..s.at + s.len]);
            landed(elems);
        }
        return applied;
    }
    let kind = order.first().map(|o| seg(o).1.kind);
    if order.iter().any(|o| Some(seg(o).1.kind) != kind) {
        // `(index, position in source order, rank, kind, value)`.
        let mut writes = Vec::new();
        for cols in parcels {
            for s in &cols.segs {
                cols.each(s, |idx, val| {
                    writes.push((idx, writes.len() as u64, s.rank, s.kind, val))
                });
            }
        }
        judge(
            &mut writes,
            "",
            ["accumulate operators", "across nodes in one phase"],
            None,
        );
    }
    // Then by rank: two sources never carry the same one, and a source's
    // segments of one rank are in its program order.
    for o in order.iter_mut() {
        o.0 = seg(o).1.rank;
    }
    order.sort_unstable();
    // The elements written: from `lo` to `hi`, both included.
    let (mut lo, mut hi) = (u64::MAX, 0);
    for o in order.iter() {
        let (cols, s) = seg(o);
        cols.each(&s, |idx, _| (lo, hi) = (lo.min(idx), hi.max(idx)));
    }
    let words = ((hi - lo) / 64 + 1) as usize;
    bits.resize(bits.len().max(words), 0);
    for o in order.iter() {
        let (cols, s) = seg(o);
        // Cannot fire: an accumulate is logged with its element type's
        // combiner (`record`), and the drain stamps it on every parcel.
        let combine = || cols.combine.expect("accumulate entry without a combiner");
        let op = match s.kind {
            WKind::Assign => None,
            WKind::Accum(op) => Some((combine(), op)),
        };
        cols.each(&s, |idx, val| {
            let (w, m) = (((idx - lo) / 64) as usize, 1 << ((idx - lo) % 64));
            let slot = &mut local[offset(idx)];
            *slot = match op {
                Some((f, op)) if bits[w] & m != 0 => f(op, *slot, val),
                _ => val,
            };
            bits[w] |= m;
        });
    }
    take_runs(&mut bits[..words], |r| {
        landed(lo + r.start as u64..lo + r.end as u64)
    });
    applied
}

/// Hand `f` each maximal run of set bits of `bits`, by position, ascending,
/// and clear them.
fn take_runs(bits: &mut [u64], mut f: impl FnMut(Range<usize>)) {
    let mut start = None;
    for (w, x) in bits.iter_mut().map(std::mem::take).enumerate() {
        // Bits of `x` below `pos` are handled; the next edge is the next set
        // bit outside a run, the next clear one inside.
        let mut pos = 0;
        while pos < 64 {
            let edge = if start.is_some() { !x } else { x } & (u64::MAX << pos);
            if edge == 0 {
                break;
            }
            pos = edge.trailing_zeros();
            let at = w * 64 + pos as usize;
            match start.take() {
                Some(s) => f(s..at),
                None => start = Some(at),
            }
        }
    }
    if let Some(s) = start {
        f(s..bits.len() * 64);
    }
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
        /// An empty log that knows the element's combiner.
        pub fn combining() -> Self {
            WLog {
                combine: Some(T::combine),
                ..WLog::default()
            }
        }

        /// Log one op as VP `rank`'s next call (the node's VP 0 has global
        /// rank 0).
        pub fn buffer(&mut self, rank: u32, idx: usize, kind: WKind, val: T) {
            let one = [(idx as u64, val)].into_iter();
            self.record(rank, kind, Some(T::combine), one);
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

    /// A hand-built wire parcel: one one-write segment per contribution.
    pub fn cols(entries: &[Entry<'_>]) -> Box<dyn Any + Send> {
        let mut c = WriteCols {
            combine: Some(f64::combine as fn(AccumOp, f64, f64) -> f64),
            ..WriteCols::default()
        };
        for &(idx, kind, parts) in entries {
            for &(rank, val) in parts {
                c.segs.push(Seg::new(rank, kind, None, c.vals.len(), 1));
                c.idx.push(idx);
                c.vals.push(val);
            }
            c.entries += 1;
        }
        Box::new(c)
    }

    /// An element's resolved writes: `(idx, kind, [(rank, value)])`.
    type Element<T> = (u64, WKind, Vec<(u64, T)>);

    /// A segment's writes as the parcels of a sort-based drain shipped
    /// them: a run is one span, a listed write a span of one.
    struct Span {
        first: u64,
        len: u32,
        rank: u64,
    }

    impl<T: Copy> WriteCols<T> {
        /// What the segments say, element by element, ascending, each
        /// element's contributions in segment order.
        fn elements(&self) -> Vec<Element<T>> {
            let mut out: BTreeMap<u64, (WKind, Vec<(u64, T)>)> = BTreeMap::new();
            for s in &self.segs {
                self.each(s, |idx, val| {
                    let e = out.entry(idx).or_insert((s.kind, Vec::new()));
                    assert_eq!(e.0, s.kind, "element {idx} of two kinds");
                    e.1.push((s.rank, val));
                });
            }
            let lens: usize = self.segs.iter().map(|s| s.len).sum();
            assert_eq!(lens, self.vals.len(), "values outside the segments");
            assert!(
                [0, lens].contains(&self.idx.len()),
                "an index column of its own length"
            );
            out.into_iter()
                .map(|(idx, (kind, parts))| (idx, kind, parts))
                .collect()
        }

        fn spans(&self) -> Vec<Span> {
            let mut out = Vec::new();
            for s in &self.segs {
                match s.first {
                    Some(first) => out.push(Span {
                        first,
                        len: s.len as u32,
                        rank: s.rank,
                    }),
                    None => self.each(s, |first, _| {
                        let (len, rank) = (1, s.rank);
                        out.push(Span { first, len, rank })
                    }),
                }
            }
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
        scratch: Scratch,
    }

    impl<T: Elem> Logged<T> {
        fn new(dist: Dist) -> Self {
            let (wlog, scratch) = (WLog::default(), Scratch::default());
            Logged {
                wlog,
                dist,
                scratch,
            }
        }

        fn drain_writes(&mut self, conflicts: Option<Conflicts<'_>>) -> Vec<WriteParcel> {
            (self.wlog).drain(Space::Global, &self.dist, conflicts, &mut self.scratch)
        }

        fn has_pending_writes(&self) -> bool {
            !self.wlog.is_empty()
        }
    }

    pub fn assign_last_writer_wins_locally() {
        let mut ga = Logged::<f64>::new(Dist::block(4, 1));
        ga.wlog.buffer(0, 2, WKind::Assign, 1.0);
        ga.wlog.buffer(1, 2, WKind::Assign, 2.0);
        // A later call of the lower rank still loses to rank 1.
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
    /// log is not: a VP that parked mid-phase writes again after its
    /// higher-ranked neighbours.
    pub fn drain_orders_contributions_by_rank_then_program_order() {
        let mut ga = Logged::<f64>::new(Dist::block(2, 1));
        for (rank, val) in [(4, 1.0), (5, 2.0), (4, 3.0), (5, 4.0), (4, 5.0)] {
            ga.wlog.buffer(rank, 1, ADD, val);
        }
        let c = payload::<f64>(ga.drain_writes(None).pop().unwrap());
        // One element: five one-element spans that start at it.
        let spans: Vec<(u64, u32)> = c.spans().iter().map(|s| (s.first, s.len)).collect();
        assert_eq!(spans, vec![(1, 1); 5]);
        let ranks: Vec<u64> = c.spans().iter().map(|s| s.rank).collect();
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

    /// What `fold_parcels` stores, element by element, into a partition
    /// of ten elements from index 0 on.
    fn resolved(parcels: &[Box<WriteCols<f64>>]) -> (u64, Vec<(u64, f64)>) {
        let (mut local, mut landed) = (vec![0.0; 10], Vec::new());
        let offset = |idx| idx as usize;
        let applied = fold_parcels(
            parcels,
            &mut local,
            offset,
            &mut Scratch::default(),
            |elems| landed.extend(elems),
        );
        let stored = landed.into_iter().map(|idx| (idx, local[idx as usize]));
        (applied, stored.collect())
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

    /// The drain's order over the whole index range of an array of 2¹⁸
    /// elements, with indices in the low byte, above it, anywhere, or all
    /// one: each element's contributions ship in ascending (rank, program
    /// order) — what a stable sort of the writes by element gives, though
    /// nothing sorts them — and the owners fold them in that order.
    pub fn radix_sort_is_stable_over_the_whole_key_range() {
        const LEN: u64 = 1 << 18;
        let dist = Dist::block(LEN as usize, 3);
        let mut g = crate::testkit::Gen::new(7);
        for mask in [0xff, 0xff00, LEN - 1, 0] {
            // `(index, rank, value)` in the order logged, one call each;
            // the ends of the array as well. Adding a 1e16 makes the sums
            // depend on the order.
            let mut recs: Vec<(u64, u64, f64)> = (0..1000)
                .map(|i| {
                    (
                        g.u64() & mask,
                        g.u64_in(0..5),
                        i as f64 + [0.0, 1e16][i % 2],
                    )
                })
                .collect();
            recs.extend([(0, 1, 0.25), (LEN - 1, 2, 0.5), (LEN - 1, 0, 0.75)]);
            let mut ga = Logged::<f64>::new(dist.clone());
            for &(idx, rank, val) in &recs {
                ga.wlog.buffer(rank as u32, idx as usize, ADD, val);
            }
            let mut want = recs.clone();
            want.sort_by_key(|r| (r.0, r.1));
            let parcels = ga.drain_writes(None);
            let mut got = Vec::new();
            let mut owners: Vec<GArray<f64>> =
                (0..3).map(|n| GArray::new(dist.clone(), n)).collect();
            for p in parcels {
                let dest = p.dest;
                let cols: &WriteCols<f64> = p.payload.downcast_ref().unwrap();
                for (idx, _, parts) in cols.elements() {
                    got.extend(parts.into_iter().map(|(rank, val)| (idx, rank, val)));
                }
                owners[dest].apply_writes(vec![(0, p.payload)], &mut |_| {}, false);
            }
            assert_eq!(got, want, "mask {mask:#x}");
            for run in want.chunk_by(|a, b| a.0 == b.0) {
                let sum = run[1..].iter().fold(run[0].2, |acc, r| acc + r.2);
                let (owner, off) = dist.locate(run[0].0 as usize);
                assert_eq!(
                    owners[owner].local[off].to_bits(),
                    sum.to_bits(),
                    "mask {mask:#x}"
                );
            }
        }
    }

    /// The drain's bitmap at its word edges: indices 0, 63, 64, 127 and
    /// the last, each written twice by each of three VPs on each of two
    /// nodes, as puts and as sums, under block, weighted (one node empty)
    /// and cyclic layouts. Each parcel counts every distinct element once,
    /// whatever its writes, and the owners end with the bits of the
    /// sequential fold in ascending (rank, program order).
    pub fn the_bitmap_counts_each_element_once_at_its_word_edges() {
        const LEN: usize = 200;
        const EDGES: [u64; 5] = [LEN as u64 - 1, 64, 0, 127, 63];
        let layouts = [
            Dist::block(LEN, 3),
            Dist::weighted(LEN, 3, Arc::new(vec![0, 64, 64, LEN])),
            Dist::cyclic(LEN, 3),
        ];
        for dist in layouts {
            for kind in [WKind::Assign, ADD] {
                // `(rank, order, index, value)` of every write.
                let mut writes = Vec::new();
                let mut owners: Vec<GArray<f64>> =
                    (0..3).map(|n| GArray::new(dist.clone(), n)).collect();
                let mut to: Vec<Vec<(u32, Box<dyn Any + Send>)>> =
                    vec![Vec::new(), Vec::new(), Vec::new()];
                for node in 0..2u32 {
                    let base = node as u64 * 3;
                    let mut ga: GArray<f64> = GArray::new(dist.clone(), node as usize);
                    for vp in 0..3u32 {
                        let rank = base + vp as u64;
                        let items: Vec<(u64, f64)> = (EDGES.iter().chain(&EDGES))
                            .enumerate()
                            .map(|(j, &idx)| {
                                (idx, (rank * 10 + j as u64) as f64 + [1e16, 0.0][j % 2])
                            })
                            .collect();
                        let logged = items.iter().map(|&(idx, val)| (idx as usize, val));
                        ga.record((base, vp), kind, Some(f64::combine), logged, |_| {});
                        let mine = items.iter().enumerate();
                        writes.extend(mine.map(|(j, &(idx, val))| (rank, j, idx, val)));
                    }
                    for p in ga.drain_writes(None) {
                        let distinct = EDGES.iter().filter(|&&i| dist.owner(i as usize) == p.dest);
                        let distinct = distinct.count();
                        assert_eq!(p.entries, distinct as u64, "{dist:?} {kind:?}");
                        assert_eq!(
                            p.bytes,
                            distinct * (WRITE_ENTRY_BYTES + 8),
                            "{dist:?} {kind:?}"
                        );
                        to[p.dest].push((node, p.payload));
                    }
                }
                for (owner, parcels) in to.into_iter().enumerate() {
                    owners[owner].apply_writes(parcels, &mut |_| {}, false);
                }
                writes.sort_by_key(|w| (w.0, w.1));
                for idx in EDGES {
                    let mut mine = writes.iter().filter(|w| w.2 == idx).map(|w| w.3);
                    let first = mine.next().unwrap();
                    let want = match kind {
                        WKind::Assign => mine.next_back().unwrap(),
                        WKind::Accum(_) => mine.fold(first, |acc, v| acc + v),
                    };
                    let (owner, off) = dist.locate(idx as usize);
                    let got = owners[owner].local[off];
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{dist:?} {kind:?} element {idx}"
                    );
                }
            }
        }
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
        ga.wlog.base = 10;
        ga.wlog
            .record(2, WKind::Assign, None, (0..8).map(|i| (i, i)));
        assert_eq!(ga.wlog.headers().len(), 1);
        let asked = OWNER_LOOKUPS.get();
        let spans: Vec<_> = (ga.drain_writes(None))
            .into_iter()
            .map(|p| (p.dest, payload::<u64>(p)))
            .map(|(dest, c)| {
                let spans = c.spans().into_iter().map(|s| (s.first, s.len, s.rank));
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
        let mut log = WLog::<u64>::combining();
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
        let ats: Vec<u32> = log.headers().iter().map(|c| c.at).collect();
        assert_eq!(ats, vec![0, 0, 1025, 1029, 6]);
        // A call of another VP closes the open one, even a call that its
        // run continues: VP 6's next run is a call of its own.
        let mut log = WLog::<u64>::combining();
        log.record(6, put, None, (0..4).map(|i| (i, i)));
        log.record(7, put, None, (4..6).map(|i| (i, i)));
        log.record(6, put, None, (6..8).map(|i| (i, i)));
        let vps: Vec<u32> = log.headers().iter().map(|c| c.vp).collect();
        assert_eq!((vps, shape(&log)), (vec![6, 7, 6], (3, 8, 0)));
    }

    /// The drain is where the checker finds write-write conflicts: on each
    /// writer's *last* put per element, whatever order the calls came in,
    /// reported by global rank where the writers run — not where the
    /// element lives — and only when a sink is given.
    pub fn drain_reports_write_write_conflicts_on_last_values() {
        const BASE: u64 = 10;
        let (quiet, payload) = (f64::NAN, f64::from_bits(f64::NAN.to_bits() ^ 1));
        let log = |ga: &mut GArray<f64>, ops: &[(u32, usize, WKind, f64)]| {
            for &(vp, idx, kind, val) in ops {
                ga.record((BASE, vp), kind, Some(f64::combine), [(idx, val)], |_| {});
            }
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
            // VP 1 first disagrees, then — in a later call — converges.
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
        log(&mut ga, &ops);
        let sink = checker.conflicts_in(Space::Global, 3, PhaseKind::Global);
        assert_eq!(ga.drain_writes(Some(sink)).len(), 2);
        let mut na: GArray<f64> = GArray::node_shared(16);
        log(&mut na, &ops[..4]);
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
        log(&mut ga, &ops);
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

    /// `((node, vp, poll round), (shape, start, length, salt))`: one bulk
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
            ga.wlog.base = base;
            let mut writes: BTreeMap<u64, Vec<Write>> = BTreeMap::new();
            let mut order = 0;
            // A VP is polled once per round, in ascending rank: its calls of
            // a second round land behind a higher rank's of the first, and
            // join its own last call if no other VP's came in between.
            for round in 0..rounds {
                for vp in 0..VPS {
                    let mine = script.iter().filter(|s| s.0 == (node, vp, round));
                    for (_, kind, items) in mine {
                        let combine = Some(f64::combine as fn(AccumOp, f64, f64) -> f64);
                        ga.wlog.record(vp, *kind, combine, items.iter().copied());
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

    /// The whole write path — `record`, the drain's two ways, the
    /// span parcel, the owner's merge — against a map of every element's
    /// writes: random scripts of runs, overlapping runs of two VPs, a VP
    /// rewriting its own, lone and scattered puts, accumulates with repeats,
    /// VPs polled twice; block, weighted (one owner empty) and cyclic
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
                        runs.set(runs.get() + cols.spans().iter().filter(|s| s.len > 1).count());
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
