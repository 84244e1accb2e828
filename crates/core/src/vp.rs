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
//! Every effect a VP produces goes into its private [`VpScratch`], which —
//! with the node's frozen arrays — is the poll context the executor parks
//! in a thread-local around each poll ([`VpCell::with_poll`]): the handles here take no lock
//! and work only inside the future being polled. The executor merges
//! scratches in ascending rank order, so the order in which a round polls
//! its VPs never shows (see `exec` and DESIGN.md §12).

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

use crate::check::Space;
use crate::cost;
use crate::elem::{AccumElem, AccumOp, Elem};
use crate::shared::{GlobalShared, NodeShared};
use crate::state::{
    array_ref, read_position, with_first_seen, ArrayTiles, DoMode, FirstSeen, GArray, GetOutcome,
    PhaseKind, VpCell, VpScratch, WKind,
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
            .with_poll(|_, view| view.garrays[g.id as usize].dist().owned_range(node))
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
        self.cell.with_poll(|_, view| {
            let dist = view.garrays[g.id as usize].dist();
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
        self.cell.with_poll(|s, _| {
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
            s.pending_enter = Some(kind);
            if self.cell.cfg.checker {
                s.own_writes.get_or_insert_default().begin_phase();
            }
        });
        let ph = Phase {
            cell: self.cell.clone(),
            kind,
        };
        let r = body(ph).await;
        // Capture the epoch to outwait *before* flagging arrival: the
        // executor cannot advance it until this VP's arrival merges, which
        // happens only after the current poll returns.
        let epoch = self.cell.with_poll(|s, view| {
            s.pending_arrive = true;
            view.epoch
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
            values: Vec::new(),
            pending: Vec::new(),
            deferred: Vec::new(),
            dups: Vec::new(),
            runs: Vec::new(),
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
        let got = this.cell.with_poll(|s, view| {
            let ga = array_ref::<T>(view, Space::Global, this.array);
            let tiles = view.tile_budget.tiled(this.array);
            match this.state {
                GetFutState::Start => {
                    match this.cell.charge_get(s, ga, tiles, this.array, this.idx) {
                        GetOutcome::Local(v) => Some(v),
                        GetOutcome::LocalPending(off) => {
                            this.state = GetFutState::Deferred(off);
                            None
                        }
                        GetOutcome::Miss => {
                            let slot = VpCell::issue_get(s, ga, this.array, this.idx);
                            this.state = GetFutState::Slot(slot);
                            None
                        }
                    }
                }
                GetFutState::Deferred(off) => VpCell::read_resident(s, ga, tiles, this.array, off),
                GetFutState::Slot(slot) => s.slots.try_take(slot).map(|pos| ga.arena_get(pos)),
                GetFutState::Done => panic!("GetFut polled after completion"),
            }
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

/// Future returned by [`Phase::get_many`]. Like [`GetFut`], it may be
/// dropped unresolved.
///
/// Its in-flight records are 8 bytes per *distinct* remote element; a
/// position is the element's index in `values` (`read_position`-checked).
/// A repeat of a remote element this call already requested costs no slot
/// and no request. For an element of at most 8 bytes it holds its output
/// position in `values` as a placeholder plus an 8-byte `dups` record. A
/// wider element's repeat holds no output position while parked: `values`
/// keeps first occurrences, locals and cache hits only, and the repeats are
/// one 12-byte `runs` record per run of them; the request-order output is
/// built when the future resolves.
pub struct GetManyFut<'a, T: Elem, I> {
    cell: &'a VpCell,
    array: u32,
    /// The caller's index iterator, until the first poll runs it.
    idxs: Option<I>,
    /// The output in request order, less the repeats `runs` holds;
    /// unresolved positions hold a placeholder until `pending` and
    /// `deferred` drain.
    values: Vec<T>,
    /// `(position, slot)` per remote element still parked on a wave slot.
    pending: Vec<(u32, u32)>,
    /// `(position, local offset, length)` per run of local elements of one
    /// spilled tile — consecutive positions reading consecutive offsets —
    /// awaiting a charge-free re-read after the executor refills it.
    deferred: Vec<(u32, usize, u32)>,
    /// Elements of at most 8 bytes: `(position, position of the first
    /// occurrence)` per repeat — a copy of the first occurrence's value once
    /// that has arrived.
    dups: Vec<(u32, u32)>,
    /// Wider elements: `(at, first, len)` per run of repeats — copies of
    /// `values[first..first + len]` that go before `values[at]` in the
    /// output. Consecutive repeats of consecutive first occurrences (a
    /// Barnes–Hut leaf's bodies named again) are one record.
    runs: Vec<(u32, u32, u32)>,
}

// Sound: the future holds no self-references (owned fields and a shared
// borrow of the phase's cell), `T` is `Copy` data parked by value, and the
// iterator is only ever reached through `&mut`, never pinned.
impl<T: Elem, I> Unpin for GetManyFut<'_, T, I> {}

impl<T: Elem, I: Iterator<Item = usize>> Future for GetManyFut<'_, T, I> {
    type Output = Vec<T>;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Vec<T>> {
        let this = &mut *self;
        this.cell.with_poll(|s, view| {
            // The typed array and its tiling resolve once per poll, not per
            // element.
            let ga = array_ref::<T>(view, Space::Global, this.array);
            let tiles = view.tile_budget.tiled(this.array);
            if let Some(idxs) = this.idxs.take() {
                // First poll: charge every access; the distinct remote
                // misses queue for the next wave together. Cold-tile locals
                // defer but are charged here, so wave content and counters
                // match the in-core schedule exactly.
                this.values.reserve_exact(idxs.size_hint().0);
                with_first_seen(|seen| {
                    // An access to `hot` — elements from global index `lo` on —
                    // is its charge and a load, and the charges are sums: they
                    // land once, after the loop. `hot` is an owned resident span
                    // (`GArray::hot_span`) or, `cached`, a run of the read cache
                    // (`GArray::cached_span`) — which only a checker-invisible
                    // read in a global phase may take, so every other remote
                    // read keeps its checks. Everything `elsewhere` pays
                    // `charge_get`, one by one.
                    let plain = VpCell::reads_plainly(s, this.array);
                    let caching =
                        plain && this.cell.cfg.read_cache && s.cur_phase == Some(PhaseKind::Global);
                    let (mut lo, mut hot, mut cached): (usize, &[T], bool) = (0, &[], false);
                    let (mut idxs, mut hits, mut misses, mut elsewhere) = (idxs, 0u64, 0u64, 0u64);
                    let mut next = idxs.next();
                    while let Some(idx) = next {
                        if let Some(&v) = hot.get(idx.wrapping_sub(lo)) {
                            // A run of loads, up to the first index outside `hot`.
                            let run_at = this.values.len();
                            this.values.push(v);
                            next = None;
                            this.values.extend(idxs.by_ref().map_while(|idx| {
                                let load = hot.get(idx.wrapping_sub(lo)).copied();
                                if load.is_none() {
                                    next = Some(idx);
                                }
                                load
                            }));
                            if cached {
                                hits += (this.values.len() - run_at) as u64;
                            }
                        } else if let Some(span) = ga.hot_span(tiles, idx).filter(|_| plain) {
                            // Look at `idx` again, inside its span.
                            (lo, hot, cached) = (span.0, span.1, false);
                        } else if caching && ga.owned_offset(idx).is_none() {
                            assert!(idx < ga.dist.len, "global read index {idx} out of bounds");
                            if let Some(span) = ga.cached_span(idx) {
                                (lo, hot, cached) = (span.0, span.1, true);
                            } else {
                                misses += 1;
                                this.request(s, seen, ga, idx);
                                next = idxs.next();
                            }
                        } else {
                            elsewhere += 1;
                            this.charge_one(s, seen, ga, tiles, idx);
                            next = idxs.next();
                        }
                    }
                    let charged = (this.values.len() + this.repeats()) as u64 - elsewhere;
                    s.compute += cost::SV_OVERHEAD.scale(charged);
                    s.counters.local_accesses += charged - hits - misses;
                    s.counters.cache_hits += hits;
                    s.counters.cache_misses += misses;
                    s.counters.remote_gets += misses;
                    if !this.runs.is_empty() {
                        // The reservation was sized for every repeat.
                        this.values.shrink_to_fit();
                    }
                });
            } else {
                let values = &mut this.values;
                this.pending
                    .retain(|&(i, slot)| match s.slots.try_take(slot) {
                        Some(pos) => {
                            values[i as usize] = ga.arena_get(pos);
                            false
                        }
                        None => true,
                    });
                // Residency is asked, and a fault recorded, once per run.
                this.deferred.retain(|&(pos, off, len)| {
                    let (pos, len) = (pos as usize, len as usize);
                    let back = VpCell::read_resident(s, ga, tiles, this.array, off).is_some();
                    if back {
                        values[pos..pos + len].copy_from_slice(&ga.local[off..off + len]);
                    }
                    !back
                });
            }
        });
        if !(this.pending.is_empty() && this.deferred.is_empty()) {
            return Poll::Pending;
        }
        Poll::Ready(this.resolve())
    }
}

impl<T: Elem, I> GetManyFut<'_, T, I> {
    /// Whether a repeat is kept as a `runs` record rather than an output
    /// position: only where an element is wider than a `dups` record.
    const COMPACT: bool = std::mem::size_of::<T>() > std::mem::size_of::<(u32, u32)>();

    /// What the future holds while parked: output values (placeholders
    /// included), the capacity behind them, and repeat records (unit tests).
    #[cfg(test)]
    pub(crate) fn held(&self) -> (usize, usize, usize) {
        let records = self.dups.len() + self.runs.len();
        (self.values.len(), self.values.capacity(), records)
    }

    /// Output positions `runs` holds instead of `values`.
    fn repeats(&self) -> usize {
        self.runs.iter().map(|&(_, _, len)| len as usize).sum()
    }

    /// The output in request order, once nothing is parked.
    fn resolve(&mut self) -> Vec<T> {
        let mut values = std::mem::take(&mut self.values);
        for &(pos, first) in &self.dups {
            values[pos as usize] = values[first as usize];
        }
        if self.runs.is_empty() {
            return values;
        }
        let mut out = Vec::with_capacity(values.len() + self.repeats());
        let mut from = 0;
        for &(at, first, len) in &self.runs {
            out.extend_from_slice(&values[from..at as usize]);
            out.extend_from_slice(&values[first as usize..(first + len) as usize]);
            from = at as usize;
        }
        out.extend_from_slice(&values[from..]);
        out
    }

    /// The full price of the access to `idx` that the next output position
    /// is for, and its value — a placeholder if it has to wait (remote, or
    /// local in a spilled tile) — pushed onto `values` unless
    /// [`Self::request`] keeps it as a `runs` record.
    fn charge_one(
        &mut self,
        s: &mut VpScratch,
        seen: &mut FirstSeen,
        ga: &GArray<T>,
        tiles: Option<&ArrayTiles>,
        idx: usize,
    ) {
        let pos = read_position(self.values.len());
        match self.cell.charge_get(s, ga, tiles, self.array, idx) {
            GetOutcome::Local(v) => return self.values.push(v),
            GetOutcome::LocalPending(off) => match self.deferred.last_mut() {
                // The next element of the last run, in the same tile.
                Some((at, from, len))
                    if *at + *len == pos
                        && *from + *len as usize == off
                        && tiles.is_some_and(|t| t.tile_span(*from).contains(&off)) =>
                {
                    *len += 1
                }
                _ => self.deferred.push((pos, off, 1)),
            },
            GetOutcome::Miss => return self.request(s, seen, ga, idx),
        }
        self.values.push(T::default());
    }

    /// A charged miss on remote `idx`, which the next output position is
    /// for: parked on a new request, or on the one this call already made.
    /// Its placeholder goes onto `values` unless a `runs` record holds it.
    fn request(&mut self, s: &mut VpScratch, seen: &mut FirstSeen, ga: &GArray<T>, idx: usize) {
        let pos = read_position(self.values.len());
        if let Some(first) = seen.first(idx as u64, pos) {
            // The request this repeat does not make is one the wave
            // builder would have merged.
            s.counters.dedup_reads += 1;
            if Self::COMPACT {
                match self.runs.last_mut() {
                    // The next repeat of the last run's next first occurrence.
                    Some((at, from, len)) if *at == pos && *from + *len == first => *len += 1,
                    _ => self.runs.push((pos, first, 1)),
                }
                return;
            }
            self.dups.push((pos, first));
        } else {
            let slot = VpCell::issue_get(s, ga, self.array, idx);
            self.pending.push((pos, slot));
        }
        self.values.push(T::default());
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
        if self.cell.with_poll(|_, view| view.epoch) > self.epoch {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}
