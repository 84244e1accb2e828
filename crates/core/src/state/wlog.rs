//! The write log: what a phase's buffered writes are kept in, what ships to
//! each element's owner, and how the owner stores it. The three are one
//! thing: a write is recorded straight into its owner's *bucket*, which is
//! the parcel that will carry it ([`WriteCols`]) — segments of one writer's
//! program order over *runs* (a first index and the values of the
//! consecutive elements from it on) or over indices beside values. The
//! drain counts what each bucket ships and ships it as it stands; the owner
//! orders the segments it receives. Nothing on the way sorts or copies an
//! element.

use std::any::Any;
use std::ops::Range;

use super::count;
use crate::check::{first_disagreement, Conflicts, Space};
use crate::cost::WRITE_ENTRY_BYTES;
use crate::dist::Dist;
use crate::elem::{AccumOp, Elem};
use crate::ledger::{ledger, Held, WLOG};

/// What one buffered write does to its element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WKind {
    /// `put`: the last writer in (global VP rank, program order) wins.
    Assign,
    /// `accumulate`: every contribution folds, in ascending (global VP
    /// rank, program order).
    Accum(AccumOp),
}

/// `len` as a `u32` position in a bucket's columns. Only a phase with four
/// billion writes of one array from one node to one owner trips it.
fn csr_offset(len: usize) -> u32 {
    assert!(len <= u32::MAX as usize, "write log overflow");
    len as u32
}

/// One destination's writes of the phase, in the form they ship in.
struct Bucket<T> {
    dest: usize,
    /// `dest`'s elements under a contiguous layout; empty under a cyclic
    /// one, whose owners are asked element by element.
    owned: Range<u64>,
    cols: WriteCols<T>,
    /// The lowest and the highest element written: the drain's bitmap span.
    lo: u64,
    hi: u64,
    /// The last [`WLog::record`] call to write here other than by
    /// [`Self::append`]: whether a write is its call's first here decides
    /// how a run goes on.
    call: u64,
}

/// Append-only write log: one per array, which every VP of the node records
/// into while it is polled. It is a bucket per destination written, each
/// already a parcel: writer and kind are kept once per *segment*, a run
/// keeps its first index and its values, and a listed segment indices
/// beside values. Appending is all that happens during a phase body —
/// last-writer resolution and operator checks run at the owner's fold and
/// at the phase boundary ([`Self::drain`]) — and every write ships raw, so
/// a floating-point result depends only on each VP's program order, never
/// on the poll-round structure that interleaved the VPs' calls (which wave
/// pipelining changes, DESIGN.md §13). The buckets live for one phase: the
/// drain ships them, so an idle array's log holds no memory.
#[derive(Default)]
pub(super) struct WLog<T> {
    /// Ascending by destination, each made at its destination's first
    /// write.
    buckets: Vec<Bucket<T>>,
    /// The bucket the last call's last write went to, which the next call
    /// tries first.
    hand: usize,
    /// [`Self::record`] calls this phase.
    calls: u64,
    /// Global rank of this node's VP 0.
    pub(super) base: u64,
    /// The element type's combiner, captured where `T: AccumElem` is known
    /// so the type-erased apply path can fold. It is `T::combine` for every
    /// accumulate, hence stored once.
    combine: Option<fn(AccumOp, T, T) -> T>,
    /// What each bucket's columns held when the log last drained, `(dest,
    /// segments, indices, values)`, ascending by destination: a bucket
    /// made again reserves as much, so a log that fills alike phase after
    /// phase takes one block per column — not a chain of doublings, whose
    /// freed steps the allocator keeps.
    last: Vec<(usize, usize, usize, usize)>,
}

impl<T: Elem> WLog<T> {
    pub(super) fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Log `items` — `(element, value)` pairs of an array laid out by
    /// `dist` — as VP `vp`'s next writes, all of `kind`; accumulates bring
    /// `combine`, their element type's combiner. Returns how many were
    /// logged, and how many of those another node than `node` owns.
    ///
    /// Each write goes to its owner's bucket. The bucket in hand is tried
    /// first, by its owned range; then, under a contiguous layout, the
    /// buckets' ranges are searched and `Dist::owner` is asked once per new
    /// bucket; under a cyclic one it is asked per element. A bucket's last
    /// segment is open: a write joins it if it is the same VP's, of the
    /// same kind — another VP's write to the bucket in between, one polled
    /// while this VP was parked, closes it. In a bucket of runs, a write
    /// that continues the open run costs its value; a call's first write
    /// there that does not opens a run of its own, unless the open one is
    /// a lone element of the same VP and kind. Anything else — a call that
    /// does not run on — makes the bucket *list*: from then on every value
    /// in it has its index.
    #[inline]
    pub(super) fn record(
        &mut self,
        dist: &Dist,
        node: usize,
        vp: u32,
        kind: WKind,
        combine: Option<fn(AccumOp, T, T) -> T>,
        mut items: impl Iterator<Item = (u64, T)>,
    ) -> (u64, u64) {
        let Some(mut next) = items.next() else {
            return (0, 0);
        };
        self.combine = combine.or(self.combine);
        self.calls += 1;
        let rank = self.base + vp as u64;
        let (mut writes, mut remote) = (0, 0);
        let mut b = self.hand;
        if !(self.buckets.get(b)).is_some_and(|b| b.owned.contains(&next.0)) {
            b = self.find(dist, next.0);
        }
        loop {
            let bucket = &mut self.buckets[b];
            let far = (bucket.dest != node) as u64;
            let stray = if bucket.append(rank, kind, next) {
                (writes, remote) = (writes + 1, remote + far);
                items.next()
            } else {
                let (logged, stray) = bucket.push(rank, kind, self.calls, next, &mut items);
                (writes, remote) = (writes + logged, remote + logged * far);
                stray
            };
            let Some(write) = stray else {
                break;
            };
            next = write;
            b = self.find(dist, next.0);
        }
        self.hand = b;
        if cfg!(feature = "byte-ledger") {
            for cols in self.buckets.iter_mut().map(|b| &mut b.cols) {
                ledger!(cols.held, {
                    use crate::ledger::bytes;
                    bytes(&cols.segs) + bytes(&cols.idx) + bytes(&cols.vals)
                });
            }
        }
        (writes, remote)
    }

    /// The position of element `idx`'s owner's bucket, made if it is new.
    #[inline]
    fn find(&mut self, dist: &Dist, idx: u64) -> usize {
        let (at, dest, owned) = if dist.is_contiguous() {
            let at = self.buckets.partition_point(|b| b.owned.end <= idx);
            if (self.buckets.get(at)).is_some_and(|b| b.owned.start <= idx) {
                return at;
            }
            count!(super::OWNER_LOOKUPS);
            let dest = dist.owner(idx as usize);
            (at, dest, dist.owned_range(dest))
        } else {
            count!(super::OWNER_LOOKUPS);
            let dest = dist.owner(idx as usize);
            match self.buckets.binary_search_by_key(&dest, |b| b.dest) {
                Ok(at) => return at,
                Err(at) => (at, dest, 0..0),
            }
        };
        let mut cols = WriteCols::default();
        if let Ok(l) = self.last.binary_search_by_key(&dest, |l| l.0) {
            let (_, segs, idx, vals) = self.last[l];
            cols.segs.reserve_exact(segs);
            cols.idx.reserve_exact(idx);
            cols.vals.reserve_exact(vals);
        }
        let bucket = Bucket {
            dest,
            owned: owned.start as u64..owned.end as u64,
            cols,
            lo: idx,
            hi: idx,
            call: 0,
        };
        self.buckets.insert(at, bucket);
        at
    }

    /// Resolve and empty the log of an array of `space`: one parcel per
    /// bucket, ascending by destination, each shipped as it stands. What a
    /// bucket holds selects what the drain does with it:
    ///
    /// - **Runs that do not meet** — a bucket of runs, no two sharing an
    ///   element (every CG vector phase): each element has one write, so
    ///   its entries are its values, and no element is looked at.
    /// - **Anything else** gets one walk of its writes, last first in
    ///   writer order — its segments stable-sorted by rank — over a bitmap
    ///   of its span: each distinct element is one entry, of the wire size
    ///   of its last write.
    ///
    /// Unless every bucket is of the first kind, the checks run over every
    /// bucket's segment headers ([`judge`]): mixing puts and accumulates —
    /// or two operators — on one element panics here, at the phase
    /// boundary, and with the checker on an assign several VPs wrote is
    /// where a write-write conflict shows, reported to `conflicts`. The
    /// checker changes nothing else the drain does.
    ///
    /// An entry is modeled as [`WRITE_ENTRY_BYTES`] plus one value: an
    /// assign's raw writes and an accumulate's raw contributions ride as
    /// one, combining and last-writer resolution being charged as done
    /// sender-side, and the rank tags ride free, like other protocol
    /// sidecars, so repartitioning changes neither entry counts nor bytes.
    /// `scratch` is the array's, reused.
    pub(super) fn drain(
        &mut self,
        space: Space,
        conflicts: Option<Conflicts<'_>>,
        scratch: &mut Scratch,
    ) -> Vec<WriteParcel> {
        if self.is_empty() {
            return Vec::new();
        }
        let log = std::mem::take(self);
        let order = &mut scratch.order;
        let apart: Vec<bool> = (log.buckets.iter()).map(|b| b.cols.apart(order)).collect();
        if !apart.iter().all(|&a| a) {
            let mut ordered = Vec::new();
            for cols in log.buckets.iter().map(|b| &b.cols) {
                cols.writer_order(order);
                ordered.extend(order.iter().map(|&(.., s)| (cols, &cols.segs[s as usize])));
            }
            // A global array's panics name the bare element, as they always
            // have.
            let what = ["", "node "][(space == Space::Node) as usize];
            let texts = ["accumulate operators in one phase", "in one phase"];
            judge(&ordered, what, texts, conflicts);
        }
        let mut last = Vec::new();
        let ship = |(b, apart): (Bucket<T>, bool)| {
            let mut cols = b.cols;
            last.push((b.dest, cols.segs.len(), cols.idx.len(), cols.vals.len()));
            (cols.entries, cols.bytes) = match apart {
                true => {
                    let wire = cols.vals.iter().map(T::wire_size).sum::<usize>();
                    let n = cols.vals.len();
                    (n as u64, n * WRITE_ENTRY_BYTES + wire)
                }
                false => cols.distinct(b.lo..b.hi + 1, scratch),
            };
            cols.combine = log.combine;
            WriteParcel {
                dest: b.dest,
                entries: cols.entries,
                bytes: cols.bytes,
                payload: Box::new(cols),
            }
        };
        let parcels = log.buckets.into_iter().zip(apart).map(ship).collect();
        self.last = last;
        parcels
    }
}

/// Judge the writes of `segs` — segments, each with the columns it indexes,
/// in the order that ranks an element's writes — on the elements where two
/// of them meet. Nothing is looked at if all are of one kind and there are
/// no puts to compare (`conflicts` is `None`, or they accumulate). Else the
/// segments' element ranges are sorted; where ranges share an element,
/// they chain into a *cluster*, and a cluster's elements are looked at
/// only if it holds writes of two kinds or two ranks. Clusters go lowest
/// first, and in one, elements ascending: unless an element's writes all
/// share its first one's kind and operator, panic there, `"{what}element
/// {index}: conflicting {texts[0]}"` for two operators, `"… put and
/// accumulate mixed {texts[1]}"` for two kinds. Given `conflicts`, report
/// an element whose ranks' last puts disagree.
fn judge<T: Elem>(
    segs: &[(&WriteCols<T>, &Seg)],
    what: &str,
    [ops, kinds]: [&str; 2],
    mut conflicts: Option<Conflicts<'_>>,
) {
    // Nothing to judge: writes of one kind, and no puts to compare.
    let kind = segs.first().map(|s| s.1.kind);
    let puts = conflicts.is_some() && kind == Some(WKind::Assign);
    if !puts && segs.iter().all(|s| Some(s.1.kind) == kind) {
        return;
    }
    // `(first element, last element, position in segs)`, by first element;
    // then the first element of each one's cluster.
    let mut spans: Vec<_> = (segs.iter().zip(0..))
        .map(|(&(cols, s), at)| match s.first {
            Some(first) => (first, first + s.len as u64 - 1, at),
            None => (cols.idx[s.span()].iter()).fold((u64::MAX, 0, at), |(lo, hi, at), &i| {
                (lo.min(i), hi.max(i), at)
            }),
        })
        .collect();
    spans.sort_unstable();
    let (mut lo, mut hi) = (0, 0);
    for span in &mut spans {
        lo = if span.0 > hi { span.0 } else { lo };
        hi = hi.max(span.1);
        span.0 = lo;
    }
    let mut writes = Vec::new();
    for cluster in spans.chunk_by_mut(|a, b| a.0 == b.0) {
        let writer = |c: &(u64, u64, usize)| (segs[c.2].1.kind, segs[c.2].1.rank);
        if cluster.iter().all(|c| writer(c) == writer(&cluster[0])) {
            continue;
        }
        // `(index, position in order, rank, kind, value)`.
        cluster.sort_unstable_by_key(|c| c.2);
        writes.clear();
        for &(cols, s) in cluster.iter().map(|c| &segs[c.2]) {
            cols.each(s, |idx, val| {
                writes.push((idx, writes.len(), s.rank, s.kind, val))
            });
        }
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
}

impl<T: Elem> Bucket<T> {
    /// Log `(idx, val)` as VP rank `rank`'s next write, of `kind`, if the
    /// bucket lists and its open segment is that VP's, of that kind: the
    /// path of a scattered call's every write but its first here.
    #[inline]
    fn append(&mut self, rank: u64, kind: WKind, (idx, val): (u64, T)) -> bool {
        let cols = &mut self.cols;
        let mine = |s: &&mut Seg| s.first.is_none() && s.rank == rank && s.kind == kind;
        let Some(seg) = cols.segs.last_mut().filter(mine) else {
            return false;
        };
        seg.len += 1;
        cols.idx.push(idx);
        cols.vals.push(val);
        csr_offset(cols.vals.len());
        (self.lo, self.hi) = (self.lo.min(idx), self.hi.max(idx));
        true
    }

    /// Log `(idx, val)` as VP rank `rank`'s next write, of `kind`, in
    /// [`WLog::record`] call `call`, and then every write of `items` that
    /// stays here without a look-up: while it runs on, in a bucket of runs;
    /// while it is in the owned range, in a listing one. Returns how many it
    /// logged, and the write that left.
    #[inline]
    fn push(
        &mut self,
        rank: u64,
        kind: WKind,
        call: u64,
        (idx, val): (u64, T),
        items: &mut impl Iterator<Item = (u64, T)>,
    ) -> (u64, Option<(u64, T)>) {
        let Bucket {
            owned,
            cols,
            lo,
            hi,
            call: last,
            ..
        } = self;
        let fresh = std::mem::replace(last, call) != call;
        let open = (cols.segs.last()).filter(|s| s.rank == rank && s.kind == kind);
        let joins = match open.map(|s| (s.first, s.len)) {
            None => false,
            Some(_) if !cols.idx.is_empty() => true,
            Some((first, len)) if first.is_some_and(|f| f + len as u64 == idx) => true,
            Some((_, len)) if !fresh || len == 1 => {
                cols.list();
                true
            }
            Some(_) => false,
        };
        let listed = !cols.idx.is_empty();
        let at = cols.vals.len();
        if !joins {
            let first = (!listed).then_some(idx);
            cols.segs
                .push(Seg::new(rank, kind, first, csr_offset(at), 0));
        }
        (*lo, *hi) = ((*lo).min(idx), (*hi).max(idx));
        cols.vals.push(val);
        let mut stray = None;
        if listed {
            cols.idx.push(idx);
            for (idx, val) in items.by_ref() {
                if !owned.contains(&idx) {
                    stray = Some((idx, val));
                    break;
                }
                (*lo, *hi) = ((*lo).min(idx), (*hi).max(idx));
                cols.idx.push(idx);
                cols.vals.push(val);
            }
        } else {
            let mut end = idx + 1;
            cols.vals.extend(items.by_ref().map_while(|(idx, val)| {
                let runs_on = idx == end && idx < owned.end;
                end += runs_on as u64;
                stray = (!runs_on).then_some((idx, val));
                runs_on.then_some(val)
            }));
            *hi = (*hi).max(end - 1);
        }
        let logged = csr_offset(cols.vals.len()) - at as u32;
        // Cannot fire: the write joined the last segment or made one.
        cols.segs.last_mut().expect("an open segment").len += logged;
        (logged as u64, stray)
    }
}

/// What the drain and the owner's fold reuse from phase to phase: an
/// array's, kept beside its log.
#[derive(Default)]
pub(super) struct Scratch {
    /// One bit per element of the span in hand, all zeros between uses.
    bits: Vec<u64>,
    /// Segment headers in an order: `(sort key, parcel or length,
    /// position)`.
    order: Vec<(u64, u32, u32)>,
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
    at: u32,
    len: u32,
}

impl Seg {
    fn new(rank: u64, kind: WKind, first: Option<u64>, at: u32, len: u32) -> Self {
        Seg {
            rank,
            kind,
            first,
            at,
            len,
        }
    }

    /// Its positions in the columns.
    fn span(&self) -> Range<usize> {
        self.at as usize..(self.at + self.len) as usize
    }
}

/// The writes one node ships to one owner for one array (a `K_WRITE` bundle
/// part), as its log recorded them: segments over one value column and —
/// once any write was not a run's — one index column beside it, holding
/// every value's index. Segments are in record order: a VP's in its program
/// order, several VPs' interleaved as their polls came, which the owner
/// undoes by sorting the headers by rank ([`fold_parcels`]), so an
/// element's contributions from that node — every write, an assign's as
/// well as an accumulate's — fold in ascending (rank, program order).
/// Shipping contributions rank-keyed instead of a per-node partial is what
/// makes the fold **placement-invariant**: the order never depends on which
/// node hosted a contributing VP.
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
    /// The columns' bytes, from the first write until the owner has folded
    /// them.
    held: Held<WLOG>,
}

impl<T: Copy> WriteCols<T> {
    /// Call `f` with each of `s`'s writes, `(index, value)`, in order.
    #[inline]
    fn each(&self, s: &Seg, mut f: impl FnMut(u64, T)) {
        let vals = self.vals[s.span()].iter().copied();
        match s.first {
            Some(first) => (first..).zip(vals).for_each(|(idx, val)| f(idx, val)),
            None => {
                (self.idx[s.span()].iter().copied().zip(vals)).for_each(|(idx, val)| f(idx, val))
            }
        }
    }

    /// Give every value its index: the segments, all runs until now, stop
    /// being runs.
    fn list(&mut self) {
        for s in &mut self.segs {
            // Cannot fire: a bucket lists once, when all it holds are runs.
            let first = s.first.take().expect("a run");
            self.idx.extend(first..first + s.len as u64);
        }
    }

    /// Whether every segment is a run and no two share an element; leaves
    /// the runs in `order`, by first element.
    fn apart(&self, order: &mut Vec<(u64, u32, u32)>) -> bool {
        if !self.idx.is_empty() {
            return false;
        }
        order.clear();
        let runs = self.segs.iter().map(|s| s.first.map(|f| (f, s.len, 0)));
        // Cannot fire: a bucket without an index column holds runs.
        order.extend(runs.map(|r| r.expect("a run")));
        order.sort_unstable();
        order.windows(2).all(|w| w[0].0 + w[0].1 as u64 <= w[1].0)
    }

    /// The segments in writer order — stable by rank — into `order`, as
    /// `(rank, 0, position)`.
    fn writer_order(&self, order: &mut Vec<(u64, u32, u32)>) {
        order.clear();
        let segs = self.segs.iter().enumerate();
        order.extend(segs.map(|(s, seg)| (seg.rank, 0, s as u32)));
        order.sort_unstable();
    }
}

impl<T: Elem> WriteCols<T> {
    /// The distinct elements written, and their modeled wire bytes — each
    /// element's of its last write: one walk of the writes, last first in
    /// writer order, over a bitmap of `span`, which holds them all.
    fn distinct(&self, span: Range<u64>, scratch: &mut Scratch) -> (u64, usize) {
        let (bits, order) = (&mut scratch.bits, &mut scratch.order);
        let words = ((span.end - span.start - 1) / 64 + 1) as usize;
        bits.resize(bits.len().max(words), 0);
        self.writer_order(order);
        let (mut entries, mut bytes) = (0, 0);
        let mut last = |idx: u64, val: T| {
            let (w, m) = (
                ((idx - span.start) / 64) as usize,
                1 << ((idx - span.start) % 64),
            );
            if bits[w] & m == 0 {
                bits[w] |= m;
                entries += 1;
                bytes += WRITE_ENTRY_BYTES + val.wire_size();
            }
        };
        for &(_, _, s) in order.iter().rev() {
            let s = &self.segs[s as usize];
            let vals = self.vals[s.span()].iter().copied();
            match s.first {
                Some(first) => {
                    (vals.enumerate().rev()).for_each(|(i, v)| last(first + i as u64, v))
                }
                None => (self.idx[s.span()].iter().copied().zip(vals))
                    .rev()
                    .for_each(|(i, v)| last(i, v)),
            }
        }
        bits[..words].fill(0);
        (entries, bytes)
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
/// whatever the partitioning. Before that, [`judge`] panics where two kinds
/// or operators meet on an element across the sources. Returns the entries
/// consumed.
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
            local[offs].copy_from_slice(&cols.vals[s.span()]);
            landed(elems);
        }
        return applied;
    }
    let segs = parcels
        .iter()
        .flat_map(|c| c.segs.iter().map(move |s| (&**c, s)));
    let texts = ["accumulate operators", "across nodes in one phase"];
    judge(&segs.collect::<Vec<_>>(), "", texts, None);
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
    }

    impl<T> WLog<T> {
        /// Each bucket's segments' `(rank, first, len)`, ascending by
        /// destination.
        fn headers(&self) -> Vec<Vec<(u64, Option<u64>, u32)>> {
            let segs = |b: &Bucket<T>| {
                b.cols
                    .segs
                    .iter()
                    .map(|s| (s.rank, s.first, s.len))
                    .collect()
            };
            self.buckets.iter().map(segs).collect()
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
                c.segs
                    .push(Seg::new(rank, kind, None, c.vals.len() as u32, 1));
                c.idx.push(idx);
                c.vals.push(val);
            }
            c.entries += 1;
        }
        Box::new(c)
    }

    /// An element's resolved writes: `(idx, kind, [(rank, value)])`.
    type Element<T> = (u64, WKind, Vec<(u64, T)>);

    /// A segment's writes as spans: a run is one span, a listed write a
    /// span of one.
    struct Span<T> {
        first: u64,
        len: u32,
        rank: u64,
        vals: Vec<T>,
    }

    impl<T: Copy> WriteCols<T> {
        /// The segments in the order the owner folds them: by rank, each
        /// rank's in its program order.
        fn folded(&self) -> impl Iterator<Item = &Seg> {
            let mut order = Vec::new();
            self.writer_order(&mut order);
            order.into_iter().map(|(_, _, s)| &self.segs[s as usize])
        }

        /// What the segments say, element by element, ascending: each
        /// element's contributions in the order the owner folds them — by
        /// rank, then program order — of which an assign keeps its last.
        fn elements(&self) -> Vec<Element<T>> {
            let mut out: BTreeMap<u64, (WKind, Vec<(u64, T)>)> = BTreeMap::new();
            for s in self.folded() {
                self.each(s, |idx, val| {
                    let e = out.entry(idx).or_insert((s.kind, Vec::new()));
                    assert_eq!(e.0, s.kind, "element {idx} of two kinds");
                    if s.kind == WKind::Assign {
                        e.1.clear();
                    }
                    e.1.push((s.rank, val));
                });
            }
            let lens: usize = self.segs.iter().map(|s| s.len as usize).sum();
            assert_eq!(lens, self.vals.len(), "values outside the segments");
            assert!(
                [0, lens].contains(&self.idx.len()),
                "an index column of its own length"
            );
            out.into_iter()
                .map(|(idx, (kind, parts))| (idx, kind, parts))
                .collect()
        }

        /// The segments' runs, and a listed segment's writes one by one,
        /// in the order the owner folds them.
        fn spans(&self) -> Vec<Span<T>> {
            let mut out = Vec::new();
            for s in self.folded() {
                match s.first {
                    Some(first) => out.push(Span {
                        first,
                        len: s.len,
                        rank: s.rank,
                        vals: self.vals[s.span()].to_vec(),
                    }),
                    None => self.each(s, |first, val| {
                        let (len, rank, vals) = (1, s.rank, vec![val]);
                        out.push(Span {
                            first,
                            len,
                            rank,
                            vals,
                        })
                    }),
                }
            }
            out
        }
    }

    fn payload<T: Elem>(p: WriteParcel) -> Box<WriteCols<T>> {
        p.payload.downcast().unwrap()
    }

    /// All of a global array's node 0 the drain needs: a phase log and the
    /// layout it is recorded under.
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

        /// Log one op as VP `rank`'s next call (the node's VP 0 has global
        /// rank 0).
        fn buffer(&mut self, rank: u32, idx: usize, kind: WKind, val: T)
        where
            T: AccumElem,
        {
            let one = [(idx as u64, val)].into_iter();
            (self.wlog).record(&self.dist, 0, rank, kind, Some(T::combine), one);
        }

        fn drain_writes(&mut self, conflicts: Option<Conflicts<'_>>) -> Vec<WriteParcel> {
            (self.wlog).drain(Space::Global, conflicts, &mut self.scratch)
        }

        fn has_pending_writes(&self) -> bool {
            !self.wlog.is_empty()
        }
    }

    pub fn assign_last_writer_wins_locally() {
        let mut ga = Logged::<f64>::new(Dist::block(4, 1));
        ga.buffer(0, 2, WKind::Assign, 1.0);
        ga.buffer(1, 2, WKind::Assign, 2.0);
        // A later call of the lower rank still loses to rank 1.
        ga.buffer(0, 2, WKind::Assign, 1.5);
        // Within a rank, program order decides.
        ga.buffer(1, 3, WKind::Assign, 7.0);
        ga.buffer(1, 3, WKind::Assign, 8.0);
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
        ga.buffer(0, 3, ADD, 5);
        ga.buffer(0, 3, ADD, 7);
        let parcels = ga.drain_writes(None);
        assert_eq!(parcels.len(), 1);
        assert_eq!(parcels[0].dest, 1); // idx 3 lives on node 1 of 2
        assert_eq!(parcels[0].entries, 1); // merged
        assert_eq!(parcels[0].bytes, 9 + 8, "one combined value on the wire");
    }

    /// Contributions fold in ascending (rank, program order) even when the
    /// log is not: a VP that parked mid-phase writes again after its
    /// higher-ranked neighbours. The parcel keeps them as they were
    /// recorded, a segment each, and the owner orders the segments.
    pub fn drain_orders_contributions_by_rank_then_program_order() {
        let mut ga = Logged::<f64>::new(Dist::block(2, 1));
        for (rank, val) in [(4, 1.0), (5, 2.0), (4, 3.0), (5, 4.0), (4, 5.0)] {
            ga.buffer(rank, 1, ADD, val);
        }
        let c = payload::<f64>(ga.drain_writes(None).pop().unwrap());
        // One element: five one-element spans that start at it.
        let spans: Vec<(u64, u32)> = c.spans().iter().map(|s| (s.first, s.len)).collect();
        assert_eq!(spans, vec![(1, 1); 5]);
        let ranks: Vec<u64> = c.spans().iter().map(|s| s.rank).collect();
        assert_eq!(ranks, vec![4, 4, 4, 5, 5]);
        let vals: Vec<f64> = c.spans().into_iter().flat_map(|s| s.vals).collect();
        assert_eq!(vals, vec![1.0, 3.0, 5.0, 2.0, 4.0]);
        assert_eq!(c.vals, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    /// Mixed put/accumulate on one element is detected when the log
    /// resolves at the phase boundary (buffering itself is append-only).
    pub fn mixed_write_kinds_panic() {
        let mut ga = Logged::<u64>::new(Dist::block(4, 1));
        ga.buffer(0, 0, WKind::Assign, 1);
        ga.buffer(0, 0, ADD, 1);
        ga.drain_writes(None);
    }

    pub fn conflicting_accum_ops_panic() {
        let mut ga = Logged::<u64>::new(Dist::block(4, 1));
        ga.buffer(0, 1, ADD, 1);
        ga.buffer(0, 1, WKind::Accum(AccumOp::Max), 2);
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
                ga.buffer(rank as u32, idx as usize, ADD, val);
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
            ga.buffer(0, idx, WKind::Assign, idx as u64);
        }
        let parcels = ga.drain_writes(None).into_iter();
        let indices = |c: Box<WriteCols<u64>>| c.elements().iter().map(|e| e.0).collect();
        parcels.map(|p| (p.dest, indices(payload(p)))).collect()
    }

    pub fn drain_splits_by_owner_and_sorts() {
        let mut ga = Logged::<u64>::new(Dist::block(8, 4));
        for idx in [7, 0, 3, 5, 1] {
            ga.buffer(0, idx, WKind::Assign, idx as u64);
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
        // A bucket is made at its destination's first write, in its place
        // by destination: an owner nobody writes (1, and the empty node 2
        // of the weighted layout) has none.
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
        // `dist` is asked once per new bucket, not once per element.
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
        // into three runs, `dist` asked once per piece.
        let mut ga = Logged::<u64>::new(weighted.clone());
        ga.wlog.base = 10;
        let asked = OWNER_LOOKUPS.get();
        let items = (0..8).map(|i| (i, i));
        assert_eq!(
            ga.wlog.record(&weighted, 0, 2, WKind::Assign, None, items),
            (8, 7)
        );
        let runs = |first, len| vec![(12, Some(first), len)];
        assert_eq!(ga.wlog.headers(), vec![runs(0, 1), runs(1, 4), runs(5, 3)]);
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

    /// What a call costs the log: a run keeps no index, and calls of one VP
    /// that continue a run are one segment; a call's first write that does
    /// not opens a run of its own, unless the VP's open segment is a lone
    /// element; a call that does not run on makes the bucket list every
    /// value's index; and another VP's write, or another kind, opens a
    /// segment.
    pub fn a_call_is_a_run_or_lists_its_indices() {
        let dist = Dist::block(2048, 1);
        let mut log = WLog::<u64>::combining();
        let put = WKind::Assign;
        let record = |log: &mut WLog<u64>, vp, kind, items: &[(u64, u64)]| {
            (log.record(&dist, 0, vp, kind, None, items.iter().copied())).0
        };
        let shape = |log: &WLog<u64>| {
            let c = &log.buckets[0].cols;
            (c.segs.len(), c.vals.len(), c.idx.len())
        };
        let rows = |r: std::ops::Range<u64>| r.map(|i| (i, i)).collect::<Vec<_>>();
        // spmv's chunks: four calls, one run.
        for chunk in 0..4u64 {
            let chunk = rows(chunk * 256..(chunk + 1) * 256);
            assert_eq!(record(&mut log, 3, put, &chunk), 256);
        }
        assert_eq!(shape(&log), (1, 1024, 0));
        assert_eq!(log.headers(), vec![vec![(3, Some(0), 1024)]]);
        // Lone puts that continue it, too; one that does not is a run of its
        // own, and the next stray one makes the bucket list.
        record(&mut log, 3, put, &[(1024, 0)]);
        record(&mut log, 3, put, &[(7, 70)]);
        assert_eq!(shape(&log), (2, 1026, 0));
        assert_eq!(record(&mut log, 3, put, &[(9, 90)]), 1);
        assert_eq!(shape(&log), (2, 1027, 1027));
        // From then on every write has its index; the VP's writes of one
        // kind continue its segment, another kind or another VP opens one.
        assert_eq!(record(&mut log, 3, put, &rows(20..24)), 4);
        record(&mut log, 3, ADD, &rows(24..28));
        record(&mut log, 4, ADD, &rows(28..32));
        assert_eq!(shape(&log), (4, 1039, 1039));
        let c = &log.buckets[0].cols;
        let want: Vec<u64> = (0..1025).chain([7, 9]).chain(20..32).collect();
        assert_eq!(c.idx, want);
        assert_eq!(c.vals[1025..1027], [70, 90]);
        let segs: Vec<_> = c
            .segs
            .iter()
            .map(|s| (s.rank, s.first, s.at, s.len))
            .collect();
        let want = [
            (3, None, 0, 1025),
            (3, None, 1025, 6),
            (3, None, 1031, 4),
            (4, None, 1035, 4),
        ];
        assert_eq!(segs, want);
        // A call that strays after a run's worth lists all of its writes.
        let mut log = WLog::<u64>::combining();
        let strays = [(40, 0), (41, 1), (5, 2), (6, 3)];
        assert_eq!(record(&mut log, 5, ADD, &strays), 4);
        assert_eq!(shape(&log), (1, 4, 4));
        assert_eq!(log.buckets[0].cols.idx, [40, 41, 5, 6]);
        // A call of another VP closes the open segment, even a call that its
        // run continues: VP 6's next run is a segment of its own.
        let mut log = WLog::<u64>::combining();
        record(&mut log, 6, put, &rows(0..4));
        record(&mut log, 7, put, &rows(4..6));
        record(&mut log, 6, put, &rows(6..8));
        let segs = vec![(6, Some(0), 4), (7, Some(4), 2), (6, Some(6), 2)];
        assert_eq!((log.headers(), shape(&log)), (vec![segs], (3, 8, 0)));
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
                        let logged = items.iter().copied();
                        ga.wlog.record(&dist, node, vp, *kind, combine, logged);
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

    /// The whole write path — `record` into buckets, the drain's two
    /// counts, the owner's fold — against a map of every element's
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

    /// Elements of the differential case's array.
    const SPAN: u64 = 48;

    /// `((node, vp, poll round), (shape, start, length, salt))`: one call of
    /// a differential script. Shape 0 is a run, 1 strays (a stride of two
    /// or more), 2 one element, 3 one element `length` times, 4 a run from
    /// inside the VP's last run of its kind — overlapping it — and 5 a run
    /// from where that one ended: with another VP's call polled in between,
    /// a call that another VP interrupted. `salt`'s low bit picks a put or
    /// an accumulate, the rest the values.
    type Step = ((usize, u32, usize), (u8, u64, u64, u64));

    /// `(layout, nodes, cut, Option<f64> puts)`: puts write below `cut`,
    /// accumulates at and above it; with `Option<f64>` elements, everything
    /// is a put.
    type Case = (u8, usize, u64, bool);

    /// An accumulate's values, and the element type's combiner.
    type Acc<T> = (fn(u64) -> T, fn(AccumOp, T, T) -> T);

    /// Each element's writes, `(rank, order, kind, value)`.
    type Writes<T> = BTreeMap<u64, Vec<(u64, usize, WKind, T)>>;

    /// What `step` of VP `vp` writes, given the VP's last run of each kind.
    fn step_writes(
        (_, nodes, cut, opt): Case,
        last: &mut BTreeMap<(u32, bool), Range<u64>>,
        vp: u32,
        &(_, (shape, start, len, salt)): &Step,
    ) -> (WKind, Vec<(u64, u64)>) {
        let accum = !opt && salt % 2 == 1;
        let (kind, room) = match accum {
            true => (ADD, cut.min(SPAN)..SPAN),
            false => (WKind::Assign, 0..cut.min(SPAN)),
        };
        let _ = nodes;
        if room.is_empty() {
            return (kind, Vec::new());
        }
        let at = |k: u64| room.start + k % (room.end - room.start);
        let len = len.max(1);
        let run = |first: u64| (first..(first + len).min(room.end)).collect::<Vec<_>>();
        let prev = last.get(&(vp, accum)).cloned();
        let idxs = match shape % 6 {
            0 => run(at(start)),
            1 => (0..len).map(|j| at(start + j * (2 + salt % 5))).collect(),
            2 => vec![at(start)],
            3 => vec![at(start); len as usize],
            4 => run(prev.map_or(at(start), |r| r.start + (r.end - r.start) / 2)),
            _ => run(prev.map_or(at(start), |r| r.end.min(room.end - 1))),
        };
        if [0, 4, 5].contains(&(shape % 6)) {
            last.insert((vp, accum), idxs[0]..idxs[0] + idxs.len() as u64);
        }
        let vals = idxs.iter().enumerate();
        (
            kind,
            vals.map(|(j, &idx)| (idx, salt / 2 + j as u64)).collect(),
        )
    }

    /// Run `steps` through every node's log, drain and the owners' fold, and
    /// through a map of every element's writes: `put(v)` and `acc(v)` are the
    /// values, `acc` with the element type's combiner.
    /// `seen` counts the cases with a listing bucket, with a bucket of runs
    /// that meet, and with an element whose first and last writes differ
    /// in wire size.
    fn differential<T: Elem>(
        case: &Case,
        steps: &[Step],
        put: fn(u64) -> T,
        acc: Option<Acc<T>>,
        seen: &Cell<[usize; 3]>,
    ) -> crate::testkit::PropResult {
        let &(layout, nodes, _, _) = case;
        let dist = match layout % 3 {
            0 => Dist::block(SPAN as usize, nodes),
            // Node 0, when it is not the only one, owns nothing.
            1 => {
                let mut bounds: Vec<usize> =
                    (0..=nodes).map(|n| n * SPAN as usize / nodes).collect();
                bounds[1] = [bounds[1], 0][(nodes > 1) as usize];
                Dist::weighted(SPAN as usize, nodes, Arc::new(bounds))
            }
            _ => Dist::cyclic(SPAN as usize, nodes),
        };
        let rounds = steps.iter().map(|s| s.0 .2 + 1).max().unwrap_or(0);
        // Every element's writes, per node.
        let mut model: Vec<Writes<T>> = Vec::new();
        let mut to: Vec<Vec<(u32, Box<dyn Any + Send>)>> = (0..nodes).map(|_| Vec::new()).collect();
        for node in 0..nodes {
            let base = node as u64 * VPS as u64;
            let mut ga: GArray<T> = GArray::new(dist.clone(), node);
            let (mut writes, mut last, mut order) = (BTreeMap::new(), BTreeMap::new(), 0);
            for round in 0..rounds {
                for vp in 0..VPS {
                    for step in steps.iter().filter(|s| s.0 == (node, vp, round)) {
                        let (kind, items) = step_writes(*case, &mut last, vp, step);
                        let val = |v| match (kind, acc) {
                            (WKind::Accum(_), Some((acc, _))) => acc(v),
                            _ => put(v),
                        };
                        let items: Vec<(u64, T)> =
                            items.iter().map(|&(i, v)| (i, val(v))).collect();
                        let combine = acc.map(|a| a.1);
                        let logged = items.iter().map(|&(i, v)| (i as usize, v));
                        let (n, remote) = ga.record((base, vp), kind, combine, logged, |_| {});
                        let far = items.iter().filter(|w| dist.owner(w.0 as usize) != node);
                        prop_assert_eq!((n, remote), (items.len() as u64, far.count() as u64));
                        for (idx, val) in items {
                            let w = (base + vp as u64, order, kind, val);
                            writes.entry(idx).or_insert_with(Vec::new).push(w);
                            order += 1;
                        }
                    }
                }
            }
            let mut tally = seen.get();
            let buckets = ga.log().buckets.iter().map(|b| &b.cols);
            tally[0] += buckets.clone().any(|c| !c.idx.is_empty()) as usize;
            tally[1] += buckets
                .clone()
                .any(|c| c.idx.is_empty() && !c.apart(&mut Vec::new()))
                as usize;
            // Per destination: distinct elements, and bytes by each one's
            // last write in (rank, program order).
            let mut want: BTreeMap<usize, (u64, usize)> = BTreeMap::new();
            for (&idx, w) in writes.iter_mut() {
                w.sort_by_key(|w| (w.0, w.1));
                tally[2] += (w[0].3.wire_size() != w[w.len() - 1].3.wire_size()) as usize;
                let e = want.entry(dist.owner(idx as usize)).or_default();
                e.0 += 1;
                e.1 += WRITE_ENTRY_BYTES + w[w.len() - 1].3.wire_size();
            }
            seen.set(tally);
            let got = ga.drain_writes(None);
            let shipped: Vec<(usize, (u64, usize))> =
                got.iter().map(|p| (p.dest, (p.entries, p.bytes))).collect();
            prop_assert_eq!(shipped, want.into_iter().collect::<Vec<_>>());
            for p in got {
                to[p.dest].push((node as u32, p.payload));
            }
            model.push(writes);
        }
        for (owner, parcels) in to.into_iter().enumerate().rev() {
            let mut ga: GArray<T> = GArray::new(dist.clone(), owner);
            let (applied, _) = ga.apply_writes(parcels, &mut |_| {}, false);
            let mut want = vec![T::default(); ga.local.len()];
            let mut entries = 0;
            let mut all: Writes<T> = BTreeMap::new();
            for writes in &model {
                for (&idx, w) in writes
                    .iter()
                    .filter(|(i, _)| dist.owner(**i as usize) == owner)
                {
                    entries += 1;
                    all.entry(idx).or_default().extend(w);
                }
            }
            for (&idx, w) in &mut all {
                w.sort_by_key(|w| (w.0, w.1));
                let folded = match (w[0].2, acc) {
                    (WKind::Accum(op), Some((_, f))) => {
                        w[1..].iter().fold(w[0].3, |a, w| f(op, a, w.3))
                    }
                    _ => w[w.len() - 1].3,
                };
                want[dist.local_offset(idx as usize)] = folded;
            }
            prop_assert_eq!(applied, entries);
            let key = |v: &[T]| v.iter().map(|v| format!("{v:?}")).collect::<Vec<_>>();
            prop_assert_eq!(key(&ga.local), key(&want));
        }
        Ok(())
    }

    /// The buckets against an element-by-element model: seeded scripts of
    /// interleaved VP calls — runs, strays, single elements, repeats, one
    /// VP's overlapping runs, a call interrupted by another VP — of puts
    /// and accumulates of `f64`, and of puts of `Option<f64>`, whose wire
    /// size depends on the value; under block, weighted (one node empty) and
    /// cyclic layouts on one to three nodes. What each node ships — entries,
    /// and bytes by each element's *last* write — and the owners' result
    /// bits equal the model's.
    pub fn buckets_equal_the_element_model() {
        let gen = |g: &mut Gen| {
            let nodes = g.usize_in(1..4);
            let case = (g.u32_in(0..3) as u8, nodes, g.u64_in(0..SPAN + 1), g.bool());
            // A third of the scripts are runs only.
            let runs = g.usize_in(0..3) == 0;
            let steps = g.vec(0..12, |g| {
                let who = (g.usize_in(0..nodes), g.u32_in(0..VPS), g.usize_in(0..3));
                let shape = [g.u32_in(0..6), [0, 4, 5][g.usize_in(0..3)]][runs as usize];
                let what = (
                    shape as u8,
                    g.u64_in(0..SPAN),
                    g.u64_in(1..10),
                    g.u64_in(0..40),
                );
                (who, what)
            });
            (case, steps)
        };
        let seen = Cell::new([0; 3]);
        forall(
            "buckets_equal_the_element_model",
            400,
            gen,
            |(case, steps): &(Case, Vec<Step>)| {
                let &(_, nodes, cut, opt) = case;
                if !(1..4).contains(&nodes) || cut > SPAN || steps.iter().any(|s| s.0 .0 >= nodes) {
                    return Ok(());
                }
                if opt {
                    let put = |v: u64| [None, Some(1.0), Some(-2.5)][v as usize % 3];
                    differential::<Option<f64>>(
                        &(case.0, nodes, SPAN, true),
                        steps,
                        put,
                        None,
                        &seen,
                    )
                } else {
                    let put = |v: u64| [7.0, 9.0, -0.0, 1.5][v as usize % 4];
                    let acc = |v: u64| [1.0, 1e16, -1e16, 0.5, 3.0][v as usize % 5];
                    differential::<f64>(case, steps, put, Some((acc, f64::combine)), &seen)
                }
            },
        );
        let seen = seen.get();
        assert!(seen.iter().all(|&n| n > 50), "{seen:?}");
    }
}
