//! The VP cell: a virtual processor's identity, its effect scratch —
//! everything a poll produces, merged by the executor in ascending rank
//! order — the poll context that makes its accesses lock-free, and what
//! each kind of shared access charges.

use std::any::Any;
use std::cell::RefCell;
use std::sync::Arc;

use ppm_simnet::{Counters, SimTime};

use super::wlog::WLog;
use super::{
    array_ref, count, ArrayTiles, DoMode, FirstSeen, Frozen, GArray, Inner, PhaseKind, QueuedReq,
    VpSlots, WKind,
};
use crate::check::{OwnWrites, Space};
use crate::config::PpmConfig;
use crate::cost;
use crate::elem::{AccumOp, Elem};
use crate::ledger::{ledger, Held, STAGING};

/// A VP's scratch logs for one space's arrays, indexed by array id; a slot
/// is filled — with a [`WLog<T>`] of the array's element type — by the VP's
/// first write to that array.
type ScratchLogs = Vec<Option<Box<dyn Any + Send>>>;

/// Every side effect one VP produces while being polled. The driver holds
/// it between polls and moves it into the poll context for each poll, so
/// the VP's accesses record into it without touching [`Inner`]; the
/// executor merges scratches into [`Inner`] in ascending rank order.
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
    /// `Inner::outstanding_reads`); their requests are staged on the
    /// polling thread ([`queue_staged`]).
    pub slots_alloced: usize,
    /// Cold-tile faults (`(array, tile)`) recorded by local reads under a
    /// tile budget; drained into [`Inner::pending_tile_faults`] at merge.
    pub tile_faults: Vec<(u32, u32)>,
    /// Buffered writes to global arrays.
    global_writes: ScratchLogs,
    /// Buffered writes to node-shared arrays.
    node_writes: ScratchLogs,
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

/// This VP's log for array `id` among one space's `logs`
/// ([`VpScratch::global_writes`] or `node_writes`), made on first use.
fn writes_for<T: Elem>(logs: &mut ScratchLogs, id: u32) -> &mut WLog<T> {
    count!(super::DOWNCASTS);
    if logs.len() <= id as usize {
        logs.resize_with(id as usize + 1, || None);
    }
    // Cannot fire: the caller has just matched `T` to array `id` of this
    // space (`array_ref`), as did whichever write made the log.
    logs[id as usize]
        .get_or_insert_with(|| Box::new(WLog::<T>::default()))
        .downcast_mut::<WLog<T>>()
        .expect("scratch write buffer type mismatch")
}

/// Identity of one virtual processor, shared (via `Arc`) by its handles. A
/// poll's effects go to the scratch in the poll context, never to the cell;
/// the fields are plain copies so VP accessors never reach [`Inner`].
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
        }
    }

    /// Run `f` on the current poll's context — this VP's scratch and the
    /// node's frozen arrays — taking no lock (DESIGN.md §12). `f` must not
    /// re-enter; the one caller-supplied code that runs inside `f` is the
    /// iterator of a bulk access, and its re-entry is reported as such.
    #[inline]
    pub fn with_poll<R>(&self, f: impl FnOnce(&mut VpScratch, &Frozen) -> R) -> R {
        count!(super::POLL_ENTRIES);
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

    /// Give back the slot of a read whose future is dropped unresolved.
    /// Outside a poll — the task list unwinding after `ppm_do` panicked —
    /// there is nothing to give it back to: the VP's scratch unwinds too.
    pub fn release_slot(slot: u32) {
        POLL.with_borrow_mut(|ctx| {
            if let Some(ctx) = ctx {
                ctx.scratch.slots.release(slot);
            }
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
    /// phase check, [`cost::SV_OVERHEAD`], checker, bounds, counters — and
    /// where the element is. The typed storage `ga` is resolved by the
    /// caller (once per poll for a bulk read). A [`GetOutcome::Miss`] is
    /// fully charged but not yet requested: the caller either issues it
    /// ([`Self::issue_get`]) or combines it with a request the same bulk
    /// read already made for `idx`.
    pub fn charge_get<T: Elem>(
        &self,
        s: &mut VpScratch,
        ga: &GArray<T>,
        id: u32,
        idx: usize,
    ) -> GetOutcome<T> {
        let kind = Self::in_phase(s, "global shared read");
        s.compute += cost::SV_OVERHEAD;
        if let Some(own) = s.own_writes.as_mut() {
            own.read((Space::Global, id, idx as u64), self.global_rank, kind);
        }
        assert!(idx < ga.dist.len, "global read index {idx} out of bounds");
        if let Some(off) = ga.owned_offset(idx) {
            // The access is fully charged (`SV_OVERHEAD`, checker, counter)
            // before the caller's residency check, so a cold tile costs
            // exactly what the in-core hit does — the fault itself is free
            // in modeled time and counters.
            s.counters.local_accesses += 1;
            return GetOutcome::Owned(off);
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
        // `SV_OVERHEAD` above ran either way — the cache must never mask a
        // conformance violation.
        if self.cfg.read_cache {
            if let Some(v) = ga.cache_get(idx as u64) {
                s.counters.cache_hits += 1;
                return GetOutcome::Cached(v);
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
    /// among the requests staged on this thread for `idx`'s owner. Returns
    /// the slot.
    pub fn issue_get<T: Elem>(
        &self,
        s: &mut VpScratch,
        ga: &GArray<T>,
        id: u32,
        idx: usize,
    ) -> u32 {
        let slot = s.slots.alloc();
        s.slots_alloced += 1;
        let (dest, vp) = (ga.dist.owner(idx) as u32, self.id as u32);
        STAGED.with_borrow_mut(|(reqs, held)| {
            let idx = idx as u64;
            reqs.push(QueuedReq {
                dest,
                array: id,
                idx,
                vp,
                slot,
            });
            ledger!(held, crate::ledger::bytes(reqs));
        });
        slot
    }

    /// The value at local offset `off`, or `None` — with the fault recorded
    /// — while its tile is spilled. Touches no counters, no compute, no
    /// checker: the access was fully charged by [`Self::charge_get`], so the
    /// re-read of a parked local (which may find another tile was serviced
    /// first, and park again) stays invisible to every observable.
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
    /// the typed array, this VP's log for it, overhead and counter totals.
    /// Per element: bounds, "local?", the checker's written set, and its
    /// value in the log — beside its index only if the call's indices do not
    /// ascend by one ([`WLog::record`]). `space` is a constant where this is
    /// inlined; `items` runs inside the poll context and must not re-enter
    /// it.
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
            let (overhead, logs) = match space {
                Space::Global => {
                    assert_eq!(
                        phase,
                        PhaseKind::Global,
                        "global shared writes are only allowed inside a global phase"
                    );
                    (cost::SV_OVERHEAD, &mut s.global_writes)
                }
                Space::Node => (cost::NODE_SV_OVERHEAD, &mut s.node_writes),
            };
            // Every element of a node-shared array is local to its one node.
            let ga = array_ref::<T>(view, space, id);
            let log = writes_for::<T>(logs, id);
            let mut own = s.own_writes.as_deref_mut();
            let mut remote = 0;
            let items = items.into_iter().map(|(idx, val)| {
                assert!(idx < ga.dist.len, "{space} write index {idx} out of bounds");
                remote += ga.owned_offset(idx).is_none() as u64;
                if let Some(own) = own.as_mut() {
                    own.wrote((space, id, idx as u64));
                }
                (idx as u64, val)
            });
            let writes = log.record(self.id as u32, kind, combine, items);
            s.compute += overhead.scale(writes);
            s.counters.local_accesses += writes - remote;
            s.counters.remote_puts += remote;
        })
    }

    /// VP read of a node-shared element (physical shared memory:
    /// immediate).
    pub fn get_node_arr<T: Elem>(&self, id: u32, idx: usize) -> T {
        self.with_poll(|s, view| {
            let kind = Self::in_phase(s, "node shared read");
            s.compute += cost::NODE_SV_OVERHEAD;
            if let Some(own) = s.own_writes.as_mut() {
                own.read((Space::Node, id, idx as u64), self.global_rank, kind);
            }
            s.counters.local_accesses += 1;
            // Physical shared memory: no tile to fault on, no cache to ask.
            let na = array_ref::<T>(view, Space::Node, id);
            assert!(idx < na.local.len(), "node read index {idx} out of bounds");
            na.local[idx]
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
/// in by the node thread that polls it, and the node's [`Frozen`] arrays.
/// Sound because a poll starts and ends on one thread and a thread polls
/// one VP at a time (DESIGN.md §12).
struct PollCtx {
    vp: usize,
    scratch: VpScratch,
    view: Arc<Frozen>,
}

thread_local! {
    static POLL: RefCell<Option<PollCtx>> = const { RefCell::new(None) };
    /// The first-occurrence table of the bulk read being issued on this
    /// thread ([`with_first_seen`]).
    static FIRST_SEEN: RefCell<FirstSeen> = RefCell::new(FirstSeen::default());
    /// The read requests of the VPs polled on this thread since the last
    /// [`queue_staged`], in poll order (ascending rank), and their bytes.
    static STAGED: RefCell<(Vec<QueuedReq>, Held<STAGING>)> = RefCell::default();
}

/// Run `f` on this thread's first-occurrence table, emptied: the one a
/// bulk read combines its repeated remote misses with while its first poll
/// issues them (`GetManyFut`). One per node thread, not per VP — only a
/// first poll uses it, and a thread runs one poll at a time.
pub(crate) fn with_first_seen<R>(f: impl FnOnce(&mut FirstSeen) -> R) -> R {
    FIRST_SEEN.with_borrow_mut(|table| {
        table.begin();
        f(table)
    })
}

/// Queue the requests a poll round staged on this thread, once each VP it
/// polled has merged: the same set, in the same ascending-rank order, as
/// merging each VP's own would. Their buffer goes with them. A round that a
/// panic cuts short queues none — its VPs' futures are gone — and the next
/// `ppm_do` on the thread forgets them ([`discard_staged`]).
pub(crate) fn queue_staged(inner: &mut Inner) {
    STAGED.with_borrow_mut(|(reqs, held)| {
        for r in std::mem::take(reqs) {
            inner.reqs[r.dest as usize].push(r);
        }
        ledger!(held, 0);
    });
    ledger!(
        inner.reqs_held,
        inner.reqs.iter().map(crate::ledger::bytes).sum()
    );
}

/// Forget what a round cut short by a panic left staged on this thread.
pub(crate) fn discard_staged() {
    STAGED.take();
}

/// Requests VP `vp` has staged on this thread since the last merge (unit
/// tests).
#[cfg(test)]
pub(crate) fn staged(vp: usize) -> usize {
    STAGED.with_borrow(|(reqs, _)| reqs.iter().filter(|r| r.vp == vp as u32).count())
}

/// One poll's ownership of the calling thread's poll context, from
/// [`Self::enter`] to [`Self::exit`]. Dropped without `exit` — a poll
/// unwinding past its catch — it clears the context, scratch included.
pub(crate) struct PollGuard(());

impl PollGuard {
    /// Park VP `vp`'s scratch and the round's `view` in the poll context.
    pub fn enter(vp: usize, scratch: VpScratch, view: Arc<Frozen>) -> Self {
        let ctx = PollCtx { vp, scratch, view };
        let nested = POLL.replace(Some(ctx));
        // Cannot fire: the executor polls a VP from its round loop only, never
        // from a future, and a guard always clears the context it set.
        assert!(nested.is_none(), "VP polled from inside another VP's poll");
        PollGuard(())
    }

    /// End the poll: the scratch back, the `Frozen` clone released.
    pub fn exit(self) -> VpScratch {
        // Cannot fire: only this guard's `Drop` clears the context it set.
        POLL.take().expect("poll context cleared mid-poll").scratch
    }
}

impl Drop for PollGuard {
    fn drop(&mut self) {
        POLL.take();
    }
}

/// Merge one VP's scratch into the node state. Called by the executor in
/// ascending VP-rank order after every poll round, which reproduces the
/// exact effect order of a sequential ascending-rank schedule — including
/// per-element accumulate fold order. Returns the
/// compute this merge charged, so the executor can attribute compute that
/// overlapped an in-flight wave (pipelining cost model, DESIGN.md §13).
pub(crate) fn merge_vp(inner: &mut Inner, cell: &VpCell, s: &mut VpScratch) -> SimTime {
    if let Some(kind) = s.pending_enter.take() {
        inner.enter_phase(kind);
    }
    if let (Some(c), Some(own)) = (inner.checker.as_mut(), s.own_writes.as_mut()) {
        c.hazards(&mut own.found);
    }
    let base = cell.global_rank - cell.id as u64;
    let arrays = inner.thaw();
    for (logs, arrays) in [
        (&mut s.global_writes, &mut arrays.garrays),
        (&mut s.node_writes, &mut arrays.narrays),
    ] {
        for (log, array) in logs.iter_mut().zip(arrays) {
            if let Some(log) = log {
                array.append_writes(base, &mut **log);
            }
        }
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

/// Outcome of a shared read issued by a VP.
pub(crate) enum GetOutcome<T> {
    /// The element is owned locally, at this local offset. The caller reads
    /// it with [`VpCell::read_resident`]: while its partition tile is
    /// spilled (pseudo-streaming, DESIGN.md §18) the VP parks slot-free, the
    /// executor refills the tile and wakes it, and the re-read is
    /// charge-free — the access was fully charged, exactly like the
    /// in-core path.
    Owned(usize),
    /// The element is remote and in the read cache; here is its value.
    Cached(T),
    /// The element is remote and not cached: charged, not yet requested
    /// (see [`VpCell::charge_get`]).
    Miss,
}

#[cfg(test)]
pub(super) mod tests {
    //! Each runs as `state::tests::<name>` (`state/tests.rs` has the list).
    use super::super::{DOWNCASTS, OWNER_LOOKUPS, POLL_ENTRIES};
    use super::*;

    /// Charge per call: a 10 000-element local `get_many` and `put_many` cost
    /// a handful of poll-context entries and downcasts — those of the calls,
    /// the phase's edges and the barrier's polls — and the drain asks the
    /// layout for an owner once per destination run.
    pub fn bulk_accesses_cost_per_call_not_per_element() {
        const N: usize = 10_000;
        let machine = ppm_simnet::MachineConfig::new(2, 1);
        let cfg = PpmConfig::new(machine);
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
}
