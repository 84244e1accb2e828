//! Virtual processors and parallel phases — the programmer-facing side of
//! the model (paper §3.1, items 2–4).
//!
//! A PPM function in the paper becomes an `async` closure here: the
//! `PPM_do(K) func(...)` construct is [`NodeCtx::ppm_do`](crate::NodeCtx::ppm_do),
//! which instantiates `K` futures of the closure, and
//! `PPM_global_phase { ... }` / `PPM_node_phase { ... }` become
//! [`Vp::global_phase`] / [`Vp::node_phase`], whose implicit end-of-phase
//! barrier is the `.await` of an internal barrier future. Suspension points
//! (remote reads, barriers) are exactly where the paper's runtime would
//! deschedule a virtual processor.
//!
//! Every effect a VP produces lands in the node's state, which — with the
//! VP's own [`VpState`] — is the poll context the executor parks in a
//! thread-local around each poll ([`VpCell::with_poll`]): the handles here
//! take no lock and work only inside the future being polled. One thread
//! polls a node's VPs in ascending rank, so the effects land in the order
//! of a sequential ascending-rank schedule (see `exec` and DESIGN.md §12).

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

use crate::check::Space;
use crate::elem::{AccumElem, AccumOp, Elem};
use crate::ledger::{ledger, Held, PARKED};
use crate::shared::{GlobalShared, NodeShared};
use crate::state::{
    array_ref, read_position, At, DoMode, FirstSeen, GArray, PhaseKind, QueuedReq, VpCell, VpSlots,
    VpState, WKind,
};

/// Handle given to each virtual processor started by `ppm_do`.
///
/// Carries the VP's identity (rank functions, paper §3.1 item 6), explicit
/// work charging, and the phase constructs. Everything but the identity
/// works only inside the VP's own future, while `ppm_do` is polling it.
#[derive(Clone)]
pub struct Vp {
    pub(crate) cell: Arc<VpCell>,
}

impl Vp {
    /// `PPM_VP_node_rank()`: this VP's rank among the node's VPs.
    #[inline]
    pub fn node_rank(&self) -> usize {
        self.cell.id
    }

    /// `PPM_VP_global_rank()`: this VP's rank across all nodes.
    #[inline]
    pub fn global_rank(&self) -> usize {
        self.cell.global_rank as usize
    }

    /// VPs started on this node by the current `ppm_do`.
    #[inline]
    pub fn node_vp_count(&self) -> usize {
        self.cell.node_vp_count
    }

    /// VPs started across all nodes by the current `ppm_do`.
    #[inline]
    pub fn global_vp_count(&self) -> usize {
        self.cell.total_vps_global as usize
    }

    /// `PPM_node_id`.
    #[inline]
    pub fn node_id(&self) -> usize {
        self.cell.node
    }

    /// `PPM_node_count`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.cell.cfg.nodes()
    }

    /// `PPM_cores_per_node`.
    #[inline]
    pub fn cores_per_node(&self) -> usize {
        self.cell.cfg.cores_per_node()
    }

    /// Global index range this VP's node currently owns in `g` (any
    /// contiguous layout; panics for cyclic). Zero modeled cost: it reads
    /// runtime metadata, not shared data.
    ///
    /// For arrays allocated with
    /// [`NodeCtx::alloc_global_balanced`](crate::NodeCtx::alloc_global_balanced)
    /// the range can change at any global phase boundary (work follows
    /// data, DESIGN.md §14) — re-derive it inside each phase instead of
    /// hoisting it across phases, and split it among the node's VPs by
    /// [`Self::node_rank`].
    pub fn local_range<T: Elem>(&self, g: &GlobalShared<T>) -> std::ops::Range<usize> {
        let node = self.cell.node;
        self.cell
            .with_poll(|_, inner| inner.garrays[g.id as usize].dist().owned_range(node))
    }

    /// Tile-aware variant of [`Self::local_range`]: the node's owned range
    /// as successive subranges of at most `chunk_elems` elements, aligned
    /// so each subrange falls inside one pseudo-streaming tile boundary
    /// multiple (see [`crate::Dist::owned_chunks`]). `chunk_elems == 0`
    /// yields the whole range as one chunk, so a disabled chunking knob
    /// passes straight through. Zero modeled cost, like `local_range`.
    pub fn local_chunks<T: Elem>(
        &self,
        g: &GlobalShared<T>,
        chunk_elems: usize,
    ) -> Vec<std::ops::Range<usize>> {
        let node = self.cell.node;
        self.cell.with_poll(|_, inner| {
            let dist = inner.garrays[g.id as usize].dist();
            dist.owned_chunks(node, chunk_elems).collect()
        })
    }

    /// Charge `n` floating-point operations of VP-private computation.
    pub fn charge_flops(&self, n: u64) {
        self.cell.charge_flops(n);
    }

    /// Charge `n` memory operations of VP-private computation.
    pub fn charge_mem_ops(&self, n: u64) {
        self.cell.charge_mem_ops(n);
    }

    /// `PPM_global_phase { body }`: run `body` under phase semantics
    /// (reads see phase-start values, writes publish at phase end) with an
    /// implicit cluster-wide barrier at the end.
    pub async fn global_phase<R, Fut>(&self, body: impl FnOnce(Phase) -> Fut) -> R
    where
        Fut: Future<Output = R>,
    {
        self.phase(PhaseKind::Global, body).await
    }

    /// `PPM_node_phase { body }`: like [`Self::global_phase`] but the
    /// barrier covers only this node's VPs and only node-shared writes
    /// publish. No network traffic.
    pub async fn node_phase<R, Fut>(&self, body: impl FnOnce(Phase) -> Fut) -> R
    where
        Fut: Future<Output = R>,
    {
        self.phase(PhaseKind::Node, body).await
    }

    async fn phase<R, Fut>(&self, kind: PhaseKind, body: impl FnOnce(Phase) -> Fut) -> R
    where
        Fut: Future<Output = R>,
    {
        assert!(
            !(self.cell.do_mode == DoMode::Local && kind == PhaseKind::Global),
            "global phases are not allowed inside ppm_do_local \
             (asynchronous node-level mode); use ppm_do"
        );
        self.cell.with_poll(|s, inner| {
            if s.cur_phase.is_some() {
                // Phase structure violation: report with the checker's
                // rendering and abort (the runtime cannot give nested
                // super-steps a meaning).
                let v = crate::check::PhaseViolation::NestedPhase {
                    vp: self.cell.id,
                    node: self.cell.node,
                };
                panic!("{v}");
            }
            s.cur_phase = Some(kind);
            if self.cell.cfg.checker {
                s.own_writes.get_or_insert_default().begin_phase();
            }
            inner.enter_phase(kind);
        });
        let ph = Phase {
            cell: self.cell.clone(),
            kind,
        };
        let r = body(ph).await;
        // Arrive, and capture the epoch to outwait: the executor advances it
        // only once every VP has arrived, after the current poll returns.
        // The checker's hazards found in the phase go to the node's report.
        let epoch = self.cell.with_poll(|s, inner| {
            if let (Some(c), Some(own)) = (inner.checker.as_mut(), s.own_writes.as_mut()) {
                c.hazards(&mut own.found, self.cell.global_rank, kind);
            }
            inner.phase.arrived += 1;
            inner.barrier_waiters.push(self.cell.id);
            inner.epoch
        });
        BarrierFut {
            cell: &self.cell,
            epoch,
        }
        .await;
        self.cell.with_poll(|s, _| s.cur_phase = None);
        r
    }
}

/// Handle to the currently executing phase: the only way to touch shared
/// variables, which enforces the paper's rule that shared access happens
/// inside phases.
pub struct Phase {
    cell: Arc<VpCell>,
    kind: PhaseKind,
}

impl Phase {
    /// Which kind of phase this is.
    #[inline]
    pub fn kind(&self) -> PhaseKind {
        self.kind
    }

    /// Read a global shared element. Returns the value the element had at
    /// phase start. Local elements resolve immediately; remote elements
    /// suspend the VP until the runtime's next bundled wave.
    pub fn get<T: Elem>(&self, g: &GlobalShared<T>, idx: usize) -> GetFut<'_, T> {
        GetFut {
            cell: &self.cell,
            array: g.id,
            idx,
            state: GetFutState::Start,
            _t: std::marker::PhantomData,
        }
    }

    /// Bulk read of global shared elements: issues every access at once
    /// and resolves to the values in request order. Semantically identical
    /// to awaiting [`Self::get`] per index (all reads see phase-start
    /// values), but the runtime can satisfy all remote elements in a
    /// single communication wave instead of one wave per dependent await —
    /// this is the split-phase access the paper's compiler generates for
    /// loops over shared arrays. Any index iterator will do; a `Range` reads
    /// a slice.
    ///
    /// Repeated indices are combined at the source: each distinct remote
    /// element is requested once per call, however often `idxs` names it,
    /// and the repeats are filled by copy. A repeat is still a full access
    /// in modeled time and in the counters (`remote_gets`, `cache_misses`,
    /// and `dedup_reads` for the request it did not make).
    ///
    /// `idxs` is not advanced before the first poll, and then runs inside
    /// the runtime's access path: its `next()` must not touch shared
    /// variables or charge work (no `Phase` or `Vp::charge_*` call — collect
    /// such indices into a `Vec` first); doing so panics, naming this rule.
    pub fn get_many<T: Elem, I: IntoIterator<Item = usize>>(
        &self,
        g: &GlobalShared<T>,
        idxs: I,
    ) -> GetManyFut<'_, T, I::IntoIter> {
        GetManyFut {
            cell: &self.cell,
            array: g.id,
            idxs: Some(idxs.into_iter()),
            len: 0,
            values: Vec::new(),
            pending: Vec::new(),
            deferred: Vec::new(),
            spans: Vec::new(),
            dups: Vec::new(),
            runs: Vec::new(),
            held: Held::default(),
        }
    }

    /// Write a global shared element. Takes effect at the end of the phase;
    /// conflicting writes resolve deterministically (last writer in
    /// (global VP rank, program order) wins). Only valid in a global phase.
    pub fn put<T: Elem>(&self, g: &GlobalShared<T>, idx: usize, val: T) {
        self.cell
            .write_many(Space::Global, g.id, WKind::Assign, [(idx, val)], None);
    }

    /// Combining write to a global shared element: at phase end the element
    /// becomes all values accumulated this phase, combined with `op` in
    /// ascending (global VP rank, program order). The phase-start value is
    /// *not* included — an accumulate replaces it, like a `put`. Accumulates
    /// from many VPs are merged locally, so a cluster-wide sum ships one
    /// entry per node.
    pub fn accumulate<T: AccumElem>(&self, g: &GlobalShared<T>, idx: usize, op: AccumOp, val: T) {
        let kind = WKind::Accum(op);
        self.cell
            .write_many(Space::Global, g.id, kind, [(idx, val)], Some(T::combine));
    }

    /// Bulk [`Self::put`]: the `(index, value)` pairs of `items`, in order,
    /// at the price of one call — semantically and in every modeled cost
    /// identical to a `put` per pair. `items` runs inside the runtime's
    /// access path: like the indices of [`Self::get_many`], its `next()`
    /// must not touch shared variables or charge work.
    pub fn put_many<T: Elem>(
        &self,
        g: &GlobalShared<T>,
        items: impl IntoIterator<Item = (usize, T)>,
    ) {
        self.cell
            .write_many(Space::Global, g.id, WKind::Assign, items, None);
    }

    /// Bulk [`Self::accumulate`] with one operator: identical to an
    /// `accumulate` per `(index, value)` pair of `items`, in order. The rule
    /// of [`Self::put_many`] applies to `items`.
    pub fn accumulate_many<T: AccumElem>(
        &self,
        g: &GlobalShared<T>,
        op: AccumOp,
        items: impl IntoIterator<Item = (usize, T)>,
    ) {
        let kind = WKind::Accum(op);
        self.cell
            .write_many(Space::Global, g.id, kind, items, Some(T::combine));
    }

    /// Read a node-shared element (this node's physical shared memory;
    /// immediate).
    pub fn get_node<T: Elem>(&self, n: &NodeShared<T>, idx: usize) -> T {
        self.cell.get_node_arr(n.id, idx)
    }

    /// Write a node-shared element; takes effect at phase end.
    pub fn put_node<T: Elem>(&self, n: &NodeShared<T>, idx: usize, val: T) {
        self.cell
            .write_many(Space::Node, n.id, WKind::Assign, [(idx, val)], None);
    }

    /// Combining write to a node-shared element.
    pub fn accumulate_node<T: AccumElem>(
        &self,
        n: &NodeShared<T>,
        idx: usize,
        op: AccumOp,
        val: T,
    ) {
        let kind = WKind::Accum(op);
        self.cell
            .write_many(Space::Node, n.id, kind, [(idx, val)], Some(T::combine));
    }
}

enum GetFutState {
    /// Not yet issued (first poll pending).
    Start,
    /// Local element (at this local offset) in a spilled tile: the access
    /// was fully charged on the first poll; re-read charge-free once the
    /// executor refills the tile (DESIGN.md §18).
    Deferred(usize),
    /// Remote element parked on a wave slot.
    Slot(u32),
    /// Resolved; the slot (if any) has been given back.
    Done,
}

/// Future returned by [`Phase::get`].
///
/// Dropping it unresolved (select-style cancellation) is allowed: a parked
/// remote read gives its slot back, and the response — already requested —
/// is discarded when it arrives.
pub struct GetFut<'a, T: Elem> {
    cell: &'a VpCell,
    array: u32,
    idx: usize,
    state: GetFutState,
    _t: std::marker::PhantomData<fn() -> T>,
}

impl<T: Elem> Future for GetFut<'_, T> {
    type Output = T;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<T> {
        let this = &mut *self;
        let got = this.cell.with_poll(|s, inner| {
            let ga = array_ref::<T>(&inner.garrays, Space::Global, this.array);
            let tiles = inner.tile_budget.tiled(this.array);
            let faults = &mut inner.tile_faults;
            // A first poll charges the read: `(hits, misses)`.
            let (got, (hits, misses)) = match this.state {
                GetFutState::Start => {
                    let (kind, idx) = (VpCell::in_phase(s, "global shared read"), this.idx);
                    if let Some(own) = s.own_writes.as_mut() {
                        own.read((Space::Global, this.array, idx as u64));
                    }
                    match ga.span(tiles, kind, idx) {
                        Some(span) if span.at == At::Arena => {
                            (Some(span.vals[idx - span.first]), (1, 0))
                        }
                        Some(span) => {
                            let off = span.off + (idx - span.first);
                            this.state = GetFutState::Deferred(off);
                            let got = this.cell.read_resident(faults, ga, tiles, this.array, off);
                            (got, (0, 0))
                        }
                        None => {
                            let (slots, reqs) = (&mut s.slots, &mut inner.reqs);
                            let slot = this.cell.issue_get(slots, reqs, ga, this.array, idx);
                            this.state = GetFutState::Slot(slot);
                            (None, (0, 1))
                        }
                    }
                }
                GetFutState::Deferred(off) => {
                    return this.cell.read_resident(faults, ga, tiles, this.array, off);
                }
                GetFutState::Slot(slot) => {
                    return s.slots.try_take(slot).map(|pos| ga.arena_get(pos));
                }
                GetFutState::Done => panic!("GetFut polled after completion"),
            };
            this.cell.charge_reads(inner, 1, hits, misses, misses);
            got
        });
        match got {
            Some(v) => {
                this.state = GetFutState::Done;
                Poll::Ready(v)
            }
            None => Poll::Pending,
        }
    }
}

impl<T: Elem> Drop for GetFut<'_, T> {
    fn drop(&mut self) {
        if let GetFutState::Slot(slot) = self.state {
            VpCell::release_slot(slot);
        }
    }
}

/// A [`GetManyFut`]'s run of locals of one spilled tile: `(index in values,
/// local offset, length)`.
type Deferred = (u32, usize, u32);

/// A [`GetManyFut`]'s run of wide elements read at resolve where
/// [`GArray::span`] found them: `(position, offset, length)`, the offset a
/// local one or a tagged arena position ([`GArray::spanned`] reads either).
pub(crate) type SpanRecord = (u32, usize, u32);

/// Future returned by [`Phase::get_many`]. Like [`GetFut`], it may be
/// dropped unresolved.
///
/// Its records name *output positions* (indices in request order,
/// `read_position`-checked). A distinct remote element it requested is an
/// 8-byte `pending` record on a wave slot; a repeat of one makes no request
/// and takes no slot. For an element of at most 8 bytes `values` is the
/// output, placeholders included, and a repeat is an 8-byte `dups` record.
/// A wider element (`COMPACT`) is held by value only where it must be read
/// now: a local of a tiled array, whose tile may spill before the read
/// resolves. While parked, the rest stay where they are until the read
/// resolves (DESIGN.md §16): locals of an in-core partition and read-cache
/// hits as `spans` into the partition or the response arena, requested
/// values in the arena, and their repeats as `runs`. All stay valid for
/// the whole phase — writes land at phase end, partitions move only at
/// phase boundaries, and no arena value moves: the arena is emptied only at
/// a global phase end (with nothing cached) or with the cache (when the
/// array took writes, and at construct entry). The records are the same
/// with the checker on or off: it only cuts a span at the elements the VP
/// wrote, and consecutive pieces extend one record.
pub struct GetManyFut<'a, T: Elem, I> {
    cell: &'a VpCell,
    array: u32,
    /// The caller's index iterator, until the first poll runs it.
    idxs: Option<I>,
    /// Output positions issued.
    len: usize,
    /// The values held, in request order: every position of a narrow
    /// element, else tiled locals only. A placeholder stands in until
    /// `pending` (narrow) or `deferred` fills it.
    values: Vec<T>,
    /// `(position, slot)` per distinct remote element parked on a wave slot:
    /// until the value is copied into `values` (narrow) or read from the
    /// arena when the read resolves (wide).
    pending: Vec<(u32, u32)>,
    /// `(index in values, local offset, length)` per run of local elements
    /// of one spilled tile — consecutive indices reading consecutive offsets
    /// — awaiting a charge-free re-read after the executor refills it. A
    /// read takes a spilled tile as a span: its fault is noted once and the
    /// indices inside it defer on a range test. Where the checker cuts the
    /// span at elements the VP wrote, the pieces extend the same records.
    deferred: Vec<Deferred>,
    /// Wider elements of an in-core partition or the read cache, per run
    /// of consecutive positions reading consecutive offsets of one source,
    /// copied from the partition or the arena at resolve.
    spans: Vec<SpanRecord>,
    /// Elements of at most 8 bytes: `(position, position of the first
    /// occurrence)` per repeat — a copy of the first occurrence's value once
    /// that has arrived.
    dups: Vec<(u32, u32)>,
    /// Wider elements: `(position, first, len)` per run of repeats of
    /// requested elements — copies of the output at `first..first + len`. Consecutive repeats of
    /// consecutive first occurrences (a Barnes–Hut leaf's bodies named
    /// again) are one record.
    runs: Vec<(u32, u32, u32)>,
    held: Held<PARKED>,
}

// Sound: the future holds no self-references (owned fields and a shared
// borrow of the phase's cell), `T` is `Copy` data held by value, and the
// iterator is only ever reached through `&mut`, never pinned.
impl<T: Elem, I> Unpin for GetManyFut<'_, T, I> {}

impl<T: Elem, I: Iterator<Item = usize>> Future for GetManyFut<'_, T, I> {
    type Output = Vec<T>;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Vec<T>> {
        let this = &mut *self;
        this.cell.with_poll(|s, inner| {
            // The typed array and its tiling resolve once per poll, not per
            // element.
            let ga = array_ref::<T>(&inner.garrays, Space::Global, this.array);
            let tiles = inner.tile_budget.tiled(this.array);
            let (reqs, faults) = (&mut inner.reqs, &mut inner.tile_faults);
            // A first poll's charge: `(reads, hits, misses, requested)`.
            let mut charge = None;
            if let Some(mut idxs) = this.idxs.take() {
                let kind = VpCell::in_phase(s, "global shared read");
                let seen = &mut inner.first_seen;
                seen.begin();
                // First poll: charge every access; the distinct remote
                // misses queue for the next wave together. Cold-tile locals
                // defer but are charged here, so wave content and counters
                // match the in-core schedule exactly.
                if !Self::COMPACT {
                    this.values.reserve_exact(idxs.size_hint().0);
                }
                // An access to `hot` — elements from global index `lo` on,
                // the first at offset `off`, all of them `at` one place — is
                // a load (a wide element's: a span record, unless it is a
                // local of a tiled array), or a deferral if `hot` is
                // spilled. `hot` is what `GArray::span` found — an owned
                // span or a run of the read cache — cut where the VP wrote
                // the array this phase (`ReadCheck::stretch`): an element it
                // wrote is a span of its own, whose read is the hazard. A
                // miss is requested. The charges are sums: they land once,
                // after the poll.
                let own = s.own_writes.as_deref_mut();
                let mut check = own.and_then(|own| own.reads(Space::Global, this.array));
                let slots = &mut s.slots;
                let (mut lo, mut off, mut hot, mut at): (usize, usize, &[T], At) =
                    (0, 0, &[], At::Local);
                let (mut hits, mut misses, mut requested) = (0u64, 0u64, 0u64);
                let mut next = idxs.next();
                while let Some(idx) = next {
                    if let Some(&v) = hot.get(idx.wrapping_sub(lo)) {
                        // A run of loads, up to the first index outside
                        // `hot`.
                        let run_at = this.len;
                        next = None;
                        if matches!(at, At::Cold(..))
                            || Self::COMPACT && (at == At::Arena || tiles.is_none())
                        {
                            let mut i = idx;
                            loop {
                                match at {
                                    At::Cold(_, tile) => this.defer(off + i - lo, tile),
                                    _ => this.span(off + i - lo),
                                }
                                match idxs.next() {
                                    Some(idx) if idx.wrapping_sub(lo) < hot.len() => i = idx,
                                    idx => {
                                        next = idx;
                                        break;
                                    }
                                }
                            }
                        } else {
                            let held = this.values.len();
                            this.values.push(v);
                            this.values.extend(idxs.by_ref().map_while(|idx| {
                                let load = hot.get(idx.wrapping_sub(lo)).copied();
                                if load.is_none() {
                                    next = Some(idx);
                                }
                                load
                            }));
                            this.len += this.values.len() - held;
                        }
                        if at == At::Arena {
                            hits += (this.len - run_at) as u64;
                        }
                        continue;
                    }
                    // Look at `idx` again, inside its span; a spilled tile's
                    // fault is noted once.
                    (lo, hot) = match ga.span(tiles, kind, idx) {
                        Some(span) => {
                            if let At::Cold(tile, _) = span.at {
                                faults.note(this.cell.id, (this.array, tile));
                            }
                            (off, at) = (span.off, span.at);
                            (span.first, span.vals)
                        }
                        None => {
                            if let Some(check) = check.as_mut() {
                                check.stretch(idx as u64, idx as u64..idx as u64 + 1);
                            }
                            misses += 1;
                            requested += this.request(slots, seen, reqs, ga, idx) as u64;
                            next = idxs.next();
                            continue;
                        }
                    };
                    if let Some(check) = check.as_mut() {
                        let cut = check.stretch(idx as u64, lo as u64..(lo + hot.len()) as u64);
                        let cut = cut.start as usize - lo..cut.end as usize - lo;
                        (lo, off, hot) = (lo + cut.start, off + cut.start, &hot[cut]);
                    }
                }
                charge = Some((this.len as u64, hits, misses, requested));
            } else {
                if !Self::COMPACT {
                    let values = &mut this.values;
                    this.pending
                        .retain(|&(i, slot)| match s.slots.try_take(slot) {
                            Some(pos) => {
                                values[i as usize] = ga.arena_get(pos);
                                false
                            }
                            None => true,
                        });
                }
                // Residency is asked, and a fault recorded, once per run.
                let values = &mut this.values;
                this.deferred.retain(|&(at, off, len)| {
                    let (at, len) = (at as usize, len as usize);
                    let got = this.cell.read_resident(faults, ga, tiles, this.array, off);
                    let back = got.is_some();
                    if back {
                        values[at..at + len].copy_from_slice(&ga.local[off..off + len]);
                    }
                    !back
                });
            }
            // A narrow read has taken every filled slot by now.
            let parked = this.pending.iter().any(|&(_, slot)| !s.slots.filled(slot));
            let out = if parked || !this.deferred.is_empty() {
                ledger!(this.held, {
                    use crate::ledger::bytes;
                    let values = bytes(&this.values) + bytes(&this.pending) + bytes(&this.dups);
                    values + bytes(&this.deferred) + bytes(&this.spans) + bytes(&this.runs)
                });
                Poll::Pending
            } else {
                Poll::Ready(this.resolve(s, ga))
            };
            if let Some((reads, hits, misses, requested)) = charge {
                this.cell
                    .charge_reads(inner, reads, hits, misses, requested);
            }
            out
        })
    }
}

impl<T: Elem, I> GetManyFut<'_, T, I> {
    /// Whether an element is held by reference where it can be, and a
    /// repeat kept as a `runs` record rather than an output position: only
    /// where an element is wider than a `dups` record. The split is
    /// measured, not a guess: the wide model for every `T` made `cg_halo`
    /// 47 % and `cg_streamed` 32 % slower end to end, with more peak memory
    /// (EXPERIMENTS.md "Dead ends").
    const COMPACT: bool = std::mem::size_of::<T>() > std::mem::size_of::<(u32, u32)>();

    /// What the future holds while parked: values held, the capacity behind
    /// them, span records, repeat records and deferred runs (unit tests).
    #[cfg(test)]
    pub(crate) fn held(&self) -> (usize, usize, usize, usize, &[Deferred]) {
        let (values, records) = (&self.values, self.dups.len() + self.runs.len());
        let parked = (values.len(), values.capacity(), self.spans.len());
        (parked.0, parked.1, parked.2, records, &self.deferred)
    }

    /// The output in request order, once nothing is parked: `values` itself
    /// for a narrow element; for a wide one, built in one allocation from
    /// the values held, the spans, the arena and the repeats.
    fn resolve(&mut self, s: &mut VpState, ga: &GArray<T>) -> Vec<T> {
        let mut values = std::mem::take(&mut self.values);
        if !Self::COMPACT {
            for &(pos, first) in &self.dups {
                values[pos as usize] = values[first as usize];
            }
            return values;
        }
        let mut out = Vec::with_capacity(self.len);
        let mut held = values.into_iter();
        let pending = std::mem::take(&mut self.pending);
        let mut spans = self.spans.iter().peekable();
        let mut remote = pending.iter().peekable();
        let mut runs = self.runs.iter().peekable();
        while out.len() < self.len {
            let at = out.len() as u32;
            if let Some(&(_, off, len)) = spans.next_if(|r| r.0 == at) {
                out.extend_from_slice(ga.spanned(off, len as usize));
            } else if let Some(&(_, slot)) = remote.next_if(|r| r.0 == at) {
                // Cannot fire: the read resolves once every slot is filled.
                let pos = s.slots.try_take(slot).expect("parked read resolved early");
                out.push(ga.arena_get(pos));
            } else if let Some(&(_, first, len)) = runs.next_if(|r| r.0 == at) {
                out.extend_from_within(first as usize..(first + len) as usize);
            } else {
                // Cannot fire: every position is held or has a record.
                out.push(held.next().expect("a position with no value"));
            }
        }
        out
    }

    /// Hold `v` for the next output position.
    fn hold(&mut self, v: T) {
        self.values.push(v);
        self.len += 1;
    }

    /// A wide element's repeat of the one at output position `first`, for
    /// the next output position: extends the last run or starts one.
    fn repeat(&mut self, first: u32) {
        let pos = read_position(self.len);
        self.len += 1;
        match self.runs.last_mut() {
            // The next repeat of the last run's next first occurrence.
            Some((at, from, len)) if *at + *len == pos && *from + *len == first => *len += 1,
            _ => self.runs.push((pos, first, 1)),
        }
    }

    /// A wide element read where it is at resolve — at offset `off` of
    /// what [`GArray::span`] found: a local of an in-core partition or a
    /// read-cache hit — for the next output position: extends the last span
    /// record or starts one.
    fn span(&mut self, off: usize) {
        let pos = read_position(self.len);
        self.len += 1;
        match self.spans.last_mut() {
            Some((at, from, len)) if *at + *len == pos && *from + *len as usize == off => *len += 1,
            _ => self.spans.push((pos, off, 1)),
        }
    }

    /// A local at offset `off` of the spilled tile from local offset `tile`
    /// on, for the next output position: a placeholder held until the
    /// executor refills the tile, which extends the last deferred run or
    /// starts one.
    fn defer(&mut self, off: usize, tile: usize) {
        let at = read_position(self.values.len());
        match self.deferred.last_mut() {
            // The next element of the last run, in the same tile.
            Some((to, from, len))
                if *to + *len == at && *from + *len as usize == off && *from >= tile =>
            {
                *len += 1
            }
            _ => self.deferred.push((at, off, 1)),
        }
        self.hold(T::default());
    }

    /// A miss on remote `idx`, which the next output position is for: parked
    /// on a new request in `reqs`, or on the one this call already made — a
    /// request the wave builder would have merged (`dedup_reads`). A narrow
    /// element's placeholder goes onto `values`. Returns whether it made a
    /// request.
    fn request(
        &mut self,
        slots: &mut VpSlots,
        seen: &mut FirstSeen,
        reqs: &mut [Vec<QueuedReq>],
        ga: &GArray<T>,
        idx: usize,
    ) -> bool {
        let pos = read_position(self.len);
        let first = seen.first(idx as u64, pos);
        match first {
            Some(first) if Self::COMPACT => self.repeat(first),
            Some(first) => {
                self.dups.push((pos, first));
                self.hold(T::default());
            }
            None => {
                let slot = self.cell.issue_get(slots, reqs, ga, self.array, idx);
                self.pending.push((pos, slot));
                match Self::COMPACT {
                    true => self.len += 1,
                    false => self.hold(T::default()),
                }
            }
        }
        first.is_none()
    }
}

impl<T: Elem, I> Drop for GetManyFut<'_, T, I> {
    fn drop(&mut self) {
        for &(_, slot) in &self.pending {
            VpCell::release_slot(slot);
        }
    }
}

/// Future that resolves when the executor completes the current phase.
struct BarrierFut<'a> {
    cell: &'a VpCell,
    epoch: u64,
}

impl Future for BarrierFut<'_> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if self.cell.with_poll(|_, inner| inner.epoch) > self.epoch {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}
