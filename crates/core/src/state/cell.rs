//! The VP cell: a virtual processor's identity, the state that is its
//! alone, the poll context that hands a poll that state and the node's
//! [`Inner`] — where every effect of the poll lands directly — and what each
//! kind of shared access charges there.

use std::cell::RefCell;

use super::{
    array_mut, array_ref, count, ArrayTiles, DoMode, GArray, Inner, PhaseKind, QueuedReq,
    TileFaults, VpSlots, WKind,
};
use crate::check::{OwnWrites, Space};
use crate::config::PpmConfig;
use crate::cost;
use crate::elem::{AccumOp, Elem};

/// What belongs to one VP alone. `drive` keeps it by rank between polls
/// and moves it into the poll context for each poll; everything else a
/// poll does lands in the node's [`Inner`].
#[derive(Default)]
pub(crate) struct VpState {
    /// Phase this VP is currently inside, if any (guards nested phases and
    /// out-of-phase shared access).
    pub cur_phase: Option<PhaseKind>,
    /// Parking table for this VP's suspended remote reads.
    pub slots: VpSlots,
    /// Conformance checker: the runs this VP wrote in its current phase and
    /// the hazards its reads found against them. `None` with the checker
    /// off, which is what an access tests; boxed because the state moves at
    /// every poll.
    pub own_writes: Option<Box<OwnWrites>>,
}

/// Identity of one virtual processor, shared (via `Arc`) by its handles. A
/// poll's effects go to the node state in the poll context, never to the
/// cell; the fields are plain copies.
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
    /// The simulated core this VP's compute lands on.
    core: usize,
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
            core: id % cfg.cores_per_node(),
        }
    }

    /// Run `f` on the current poll's context — this VP's state and the
    /// node's — taking no lock (DESIGN.md §12). `f` must not re-enter; the
    /// one caller-supplied code that runs inside `f` is the iterator of a
    /// bulk access, and its re-entry is reported as such.
    #[inline]
    pub fn with_poll<R>(&self, f: impl FnOnce(&mut VpState, &mut Inner) -> R) -> R {
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
            f(&mut ctx.state, &mut ctx.inner)
        })
    }

    /// Give back the slot of a read whose future is dropped unresolved.
    /// Outside a poll — the task list unwinding after `ppm_do` panicked —
    /// there is nothing to give it back to: the VP's state unwinds too.
    pub fn release_slot(slot: u32) {
        POLL.with_borrow_mut(|ctx| {
            if let Some(ctx) = ctx {
                ctx.state.slots.release(slot);
            }
        })
    }

    pub fn in_phase(s: &VpState, what: impl std::fmt::Display) -> PhaseKind {
        s.cur_phase
            .unwrap_or_else(|| panic!("{what} requires an open phase"))
    }

    /// Charge `reads` shared reads of this VP, of which `hits` hit the read
    /// cache and `misses` missed it, `requested` of those with a request of
    /// their own (the rest combined with one their bulk read made): each
    /// pays [`cost::SV_OVERHEAD`] on the VP's core and its counters.
    pub fn charge_reads(
        &self,
        inner: &mut Inner,
        reads: u64,
        hits: u64,
        misses: u64,
        requested: u64,
    ) {
        inner.core_compute[self.core] += cost::SV_OVERHEAD.scale(reads);
        let c = &mut inner.counters;
        c.local_accesses += reads - hits - misses;
        c.cache_hits += hits;
        c.cache_misses += misses;
        c.remote_gets += misses;
        c.dedup_reads += misses - requested;
        inner.outstanding_reads += requested as usize;
    }

    /// What only a fresh remote request pays: a slot to park on and a place
    /// in `reqs`, the node's queue for `idx`'s owner. Returns the slot.
    pub fn issue_get<T: Elem>(
        &self,
        slots: &mut VpSlots,
        reqs: &mut [Vec<QueuedReq>],
        ga: &GArray<T>,
        array: u32,
        idx: usize,
    ) -> u32 {
        let slot = slots.alloc();
        let (idx, vp) = (idx as u64, self.id as u32);
        reqs[ga.dist.owner(idx as usize)].push(QueuedReq {
            array,
            idx,
            vp,
            slot,
        });
        slot
    }

    /// The value at local offset `off` of global array `array`, or `None` —
    /// with the fault noted in `faults` — while its tile is spilled. Touches
    /// no counters, no compute, no checker: the access was fully charged
    /// already, so the re-read of a parked local (which may find another
    /// tile was serviced first, and park again) stays invisible to every
    /// observable.
    pub fn read_resident<T: Elem>(
        &self,
        faults: &mut TileFaults,
        ga: &GArray<T>,
        tiles: Option<&ArrayTiles>,
        array: u32,
        off: usize,
    ) -> Option<T> {
        match tiles.and_then(|t| t.cold_tile(off)) {
            Some(tile) => faults.note(self.id, (array, tile)),
            None => return Some(ga.local[off]),
        }
        None
    }

    /// What a VP's writes of `items` — `(element, value)` pairs of array `id`
    /// of `space` — do: `put`s ([`WKind::Assign`]) or `accumulate`s, which
    /// bring `combine`, their element type's combiner. Per call: phase check,
    /// the typed array, overhead and counter totals. Per element: bounds,
    /// "local?", the checker's written runs, and its value in the array's
    /// phase log ([`GArray::record`]). `space` is a constant where this is
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
        self.with_poll(|s, inner| {
            let phase = Self::in_phase(s, format_args!("{space} shared write"));
            let (overhead, arrays) = match space {
                Space::Global => {
                    assert_eq!(
                        phase,
                        PhaseKind::Global,
                        "global shared writes are only allowed inside a global phase"
                    );
                    (cost::SV_OVERHEAD, &mut inner.garrays)
                }
                Space::Node => (cost::NODE_SV_OVERHEAD, &mut inner.narrays),
            };
            let mut own = s.own_writes.as_deref_mut();
            let wrote = |idx| {
                if let Some(own) = own.as_mut() {
                    own.wrote((space, id, idx));
                }
            };
            let base = self.global_rank - self.id as u64;
            let ga = array_mut::<T>(arrays, space, id);
            let (writes, remote) = ga.record((base, self.id as u32), kind, combine, items, wrote);
            inner.core_compute[self.core] += overhead.scale(writes);
            inner.counters.local_accesses += writes - remote;
            inner.counters.remote_puts += remote;
        })
    }

    /// VP read of a node-shared element (physical shared memory:
    /// immediate).
    pub fn get_node_arr<T: Elem>(&self, id: u32, idx: usize) -> T {
        self.with_poll(|s, inner| {
            Self::in_phase(s, "node shared read");
            if let Some(own) = s.own_writes.as_mut() {
                own.read((Space::Node, id, idx as u64));
            }
            // Physical shared memory: no tile to fault on, no cache to ask.
            let na = array_ref::<T>(&inner.narrays, Space::Node, id);
            assert!(idx < na.local.len(), "node read index {idx} out of bounds");
            let v = na.local[idx];
            inner.core_compute[self.core] += cost::NODE_SV_OVERHEAD;
            inner.counters.local_accesses += 1;
            v
        })
    }

    /// Charge `n` floating-point operations of VP-private computation.
    pub fn charge_flops(&self, n: u64) {
        self.with_poll(|_, inner| {
            inner.counters.flops += n;
            inner.core_compute[self.core] += self.cfg.machine.core.flops(n);
        })
    }

    /// Charge `n` memory operations of VP-private computation.
    pub fn charge_mem_ops(&self, n: u64) {
        self.with_poll(|_, inner| {
            inner.counters.mem_ops += n;
            inner.core_compute[self.core] += self.cfg.machine.core.mem_ops(n);
        })
    }
}

/// What a VP poll works on, parked in a thread-local for the poll's
/// duration so every access inside it is lock-free: the VP's state and the
/// node's, both moved in by the node thread that polls it. Sound because a
/// poll starts and ends on one thread and a thread polls one VP at a time
/// (DESIGN.md §12).
struct PollCtx {
    vp: usize,
    state: VpState,
    inner: Box<Inner>,
}

thread_local! {
    static POLL: RefCell<Option<PollCtx>> = const { RefCell::new(None) };
}

/// One poll's ownership of the calling thread's poll context, from
/// [`Self::enter`] to [`Self::exit`]. Dropped without `exit` — a poll
/// unwinding past its catch — it clears the context, node state included.
pub(crate) struct PollGuard(());

impl PollGuard {
    /// Park VP `vp`'s state and the node's in the poll context.
    pub fn enter(vp: usize, state: VpState, inner: Box<Inner>) -> Self {
        let ctx = PollCtx { vp, state, inner };
        let nested = POLL.replace(Some(ctx));
        // Cannot fire: the executor polls a VP from its round loop only, never
        // from a future, and a guard always clears the context it set.
        assert!(nested.is_none(), "VP polled from inside another VP's poll");
        PollGuard(())
    }

    /// End the poll: the VP's state and the node's back.
    pub fn exit(self) -> (VpState, Box<Inner>) {
        // Cannot fire: only this guard's `Drop` clears the context it set.
        let ctx = POLL.take().expect("poll context cleared mid-poll");
        (ctx.state, ctx.inner)
    }
}

impl Drop for PollGuard {
    fn drop(&mut self) {
        POLL.take();
    }
}

#[cfg(test)]
pub(super) mod tests {
    //! Each runs as `state::tests::<name>` (`state/tests.rs` has the list).
    use super::super::{DOWNCASTS, OWNER_LOOKUPS, POLL_ENTRIES};
    use super::*;

    /// Charge per call: a 10 000-element local `get_many` and `put_many` cost
    /// a handful of poll-context entries and downcasts — those of the calls,
    /// the phase's edges and the barrier's polls — and the write log asks
    /// the layout for an owner once per destination.
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
            assert_eq!(lookups, 2, "node {node}: one per destination");
        }
    }
}
