//! The VP executor: `ppm_do` scheduling, communication waves, and phase
//! exchanges.
//!
//! This plays the role of the paper's source-to-source compiler plus
//! runtime scheduler (§3.4): virtual processors are cooperative futures
//! multiplexed over the node's cores ("converted into loops"), remote reads
//! park VPs and are *bundled* into one request message per destination per
//! wave, and phase ends run the BSP-style exchange that publishes buffered
//! writes and synchronizes clocks.
//!
//! ## Determinism
//!
//! Scheduling is deterministic regardless of host thread timing or worker
//! count: each poll round's runnable set is fixed up front, VPs record
//! every effect into their private [`VpScratch`](crate::state::VpScratch),
//! and the driver merges scratches into [`Inner`](crate::state::Inner) in
//! ascending rank order after the round — so the merged effect sequence
//! equals a sequential ascending-rank schedule's no matter which host
//! thread polled what. A wave's destinations are consumed strictly in
//! ascending node order (late responses are stashed), so VPs resume per
//! completed destination — in deterministic order — while slower
//! destinations are still in flight, and the schedule never depends on
//! network timing (DESIGN.md §13). Write bundles are applied in ascending
//! source-node order.
//! Simulated clocks are computed from per-phase totals, never from message
//! interleaving. See DESIGN.md §12.

use std::collections::BTreeMap;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, Waker};

use ppm_simnet::{ArgValue, Message, SimTime};

use crate::balance;
use crate::bitset::NodeSet;
use crate::check::Space;
use crate::dissem::{dissemination, route_offset, Edge, LoadBlock, Notices};
use crate::dist::Dist;
use crate::error::RecoveryError;
use crate::msgs::{
    self, BarrierMsg, MigrateMsg, RefreshPart, ReplicaFrame, ReqBundle, RespBundle, TokenMsg,
    WriteBundleMsg,
};
use crate::nodectx::NodeCtx;
use crate::state::{
    merge_vp, DoMode, PhaseKind, PollGuard, QueuedReq, ServeHist, SharedInner, Traffic, VpCell,
    VpScratch,
};
use crate::vp::Vp;

/// Refresh-push serve-history TTL, in global phases: an element whose last
/// peer serve is older than this is forgotten (and disarmed), bounding
/// push waste for read-once access patterns. Owner pushes do not extend
/// the TTL — only actual serves do — so a long-armed element re-earns its
/// pushes every `SERVE_TTL` phases (DESIGN.md §13).
const SERVE_TTL: u64 = 8;

/// Per-phase counter-delta argument names, aligned with
/// [`ppm_simnet::Counters::named_fields`] (the `debug_assert` in
/// [`emit_phase_summary`] keeps the two in lockstep).
const DELTA_ARG_NAMES: [&str; 29] = [
    "d_msgs_sent",
    "d_bytes_sent",
    "d_msgs_recv",
    "d_bytes_recv",
    "d_flops",
    "d_mem_ops",
    "d_barriers",
    "d_remote_gets",
    "d_remote_puts",
    "d_bundles_sent",
    "d_waves",
    "d_local_accesses",
    "d_retries",
    "d_faults_dropped",
    "d_faults_duplicated",
    "d_faults_delayed",
    "d_dups_suppressed",
    "d_acks_sent",
    "d_crash_recoveries",
    "d_cache_hits",
    "d_cache_misses",
    "d_dedup_reads",
    "d_partial_wakes",
    "d_peers_suspected",
    "d_peers_confirmed_dead",
    "d_failovers",
    "d_replica_bytes",
    "d_tile_spills",
    "d_tile_refills",
];

/// Record a phase-summary span `[start, now]` carrying the phase's time
/// breakdown plus the per-phase delta of every counter, and advance the
/// delta baseline. Only called while tracing is enabled.
fn emit_phase_summary(
    nc: &mut NodeCtx<'_>,
    name: &'static str,
    start: SimTime,
    idx: u64,
    mut args: Vec<(&'static str, ArgValue)>,
) {
    let merged = nc.ep_counters();
    let delta = merged.delta(&nc.inner.borrow().ctr_base);
    args.insert(0, ("phase", ArgValue::U64(idx)));
    for (dn, (n, v)) in DELTA_ARG_NAMES.iter().zip(delta.named_fields()) {
        debug_assert_eq!(&dn[2..], n, "DELTA_ARG_NAMES out of sync with Counters");
        args.push((dn, ArgValue::U64(v)));
    }
    let end = nc.ep.clock.now();
    nc.ep.tracer.span(name, "phase", start, end, args);
    nc.inner.borrow_mut().ctr_base = merged;
}

type VpTask = Pin<Box<dyn Future<Output = ()> + Send>>;
/// Write parcels grouped per array: `(source node, payload)` pairs.
type ParcelsByArray = BTreeMap<u32, Vec<(u32, Box<dyn std::any::Any + Send>)>>;

/// Outcome of polling one VP once (possibly on a host worker thread).
enum PollOut {
    Done,
    Pending,
    Panicked(Box<dyn std::any::Any + Send>),
}

/// Poll one VP future once, inside its poll context: the VP's scratch and a
/// handle on the node's frozen arrays sit in this thread's thread-local
/// until `ctx` drops, so the accesses the future makes take no lock
/// (DESIGN.md §12). Panics are caught so the driver can merge the
/// lower-rank VPs' effects first and then re-raise — reproducing a
/// sequential schedule's panic behavior from any worker thread.
fn poll_vp(tasks: &[Mutex<Option<VpTask>>], cell: &VpCell, inner: &SharedInner) -> PollOut {
    let mut guard = tasks[cell.id]
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let task = guard.as_mut().expect("ready VP must be live");
    let frozen = Arc::clone(&inner.borrow().frozen);
    let _ctx = PollGuard::enter(cell, frozen);
    let mut cx = Context::from_waker(Waker::noop());
    match catch_unwind(AssertUnwindSafe(|| task.as_mut().poll(&mut cx))) {
        Ok(Poll::Ready(())) => {
            *guard = None;
            PollOut::Done
        }
        Ok(Poll::Pending) => PollOut::Pending,
        Err(payload) => {
            *guard = None;
            PollOut::Panicked(payload)
        }
    }
}

/// Resolve the host worker-thread count for a `ppm_do`:
/// `cfg.host_threads` if nonzero, else `PPM_HOST_THREADS`, else
/// `min(host parallelism, cores_per_node)`. Purely a wall-clock knob —
/// results are bit-identical at any value (DESIGN.md §12).
fn host_workers(cfg: &crate::config::PpmConfig) -> usize {
    let n = if cfg.host_threads > 0 {
        cfg.host_threads
    } else {
        crate::config::env_host_threads()
    };
    if n > 0 {
        return n;
    }
    let host = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    host.min(cfg.cores_per_node()).max(1)
}

/// Run one `PPM_do(k) f` construct to completion.
pub(crate) fn run_do<Fut>(nc: &mut NodeCtx<'_>, k: usize, mode: DoMode, f: impl Fn(Vp) -> Fut)
where
    Fut: Future<Output = ()> + Send + 'static,
{
    let me = nc.node_id();
    if mode == DoMode::Collective {
        // A node with zero VPs could never send its end-of-phase bundles,
        // deadlocking any peer that runs a global phase. Fail early with
        // advice instead.
        assert!(
            k >= 1,
            "node {me}: ppm_do requires at least one VP per node (use k=1 with an \
             empty function for idle nodes, or ppm_do_local for node-only work)"
        );
    }
    let (base, total) = match mode {
        DoMode::Collective => {
            // Collective prologue: learn every node's VP count so global
            // ranks and `PPM_VP_global_rank` work (k may differ per node).
            let ks = nc.allgather_nodes(k as u64);
            let split = (ks[..me].iter().sum(), ks.iter().sum());
            // Kept for the failover trace instant's payload (how many VPs
            // a buddy adopts with a dead rank's partitions, DESIGN.md §15).
            nc.inner.borrow_mut().peer_vps = ks;
            split
        }
        // Asynchronous mode: no cross-node coordination; ranks are
        // node-local.
        DoMode::Local => (0, k as u64),
    };
    {
        let mut inner = nc.inner.borrow_mut();
        inner.vp_base_global = base;
        inner.total_vps_global = total;
        inner.live_vps = k;
        inner.do_mode = mode;
    }
    if nc.ep.tracer.enabled() {
        // Per-phase counter deltas start from here, excluding the
        // construct's collective prologue.
        let merged = nc.ep_counters();
        nc.inner.borrow_mut().ctr_base = merged;
    }

    // Read caches do not survive across constructs: direct mutation
    // between `ppm_do`s (`with_local_mut`) can change any partition
    // without a phase exchange to carry invalidations.
    {
        let mut inner = nc.inner.borrow_mut();
        for ga in inner.thaw().garrays.iter_mut() {
            ga.cache_clear();
        }
    }

    // Crash recovery line: direct mutation between `ppm_do`s
    // (`with_local_mut`) may have changed the arrays since the last
    // phase-end snapshot, so refresh it at construct entry. Untracked
    // mutation means the whole copy is charged.
    if nc.snapshots_enabled() {
        nc.take_snapshot(None);
    }

    // Instantiate the VPs: a shared identity/scratch cell per VP, plus its
    // future behind a `Mutex` so host workers can poll it.
    let cfg = nc.config();
    let cells: Vec<Arc<VpCell>> = (0..k)
        .map(|rank| {
            Arc::new(VpCell::new(
                rank,
                base + rank as u64,
                me,
                cfg,
                mode,
                k,
                total,
            ))
        })
        .collect();
    let tasks: Vec<Mutex<Option<VpTask>>> = cells
        .iter()
        .map(|cell| Mutex::new(Some(Box::pin(f(Vp { cell: cell.clone() })) as VpTask)))
        .collect();
    let inner = nc.inner.clone();
    let poll = |vp: usize| (vp, poll_vp(&tasks, &cells[vp], &inner));

    let workers = host_workers(&cfg).min(k.max(1));
    let cores = cfg.cores_per_node();
    if workers <= 1 {
        // Inline: the identical record-to-scratch + rank-ordered-merge path
        // minus the thread handoff, so one code path defines the semantics
        // at every worker count.
        drive(nc, &cells, k, |batch| {
            batch.iter().copied().map(poll).collect()
        });
    } else {
        // Persistent worker pool for the whole construct. Workers only ever
        // poll futures (each inside its own poll context); the driver
        // thread owns every ordered effect.
        std::thread::scope(|s| {
            let (res_tx, res_rx) = mpsc::channel::<Vec<(usize, PollOut)>>();
            let cmd_txs: Vec<mpsc::Sender<Vec<usize>>> = (0..workers)
                .map(|_| {
                    let (tx, rx) = mpsc::channel::<Vec<usize>>();
                    let res_tx = res_tx.clone();
                    let poll = &poll;
                    s.spawn(move || {
                        while let Ok(batch) = rx.recv() {
                            let out: Vec<(usize, PollOut)> = batch.into_iter().map(poll).collect();
                            if res_tx.send(out).is_err() {
                                break;
                            }
                        }
                    });
                    tx
                })
                .collect();
            drop(res_tx);
            let mut batches: Vec<Vec<usize>> = vec![Vec::new(); workers];
            drive(nc, &cells, k, move |batch| {
                // Partition by simulated core (the clock-accounting mapping)
                // and fan cores out across workers; results are re-sorted by
                // rank before merging, so arrival order never matters.
                for &vp in batch {
                    batches[(vp % cores) % workers].push(vp);
                }
                let mut in_flight = 0;
                for (w, b) in batches.iter_mut().enumerate() {
                    if !b.is_empty() {
                        cmd_txs[w]
                            .send(std::mem::take(b))
                            .expect("host worker exited early");
                        in_flight += 1;
                    }
                }
                let mut out = Vec::with_capacity(batch.len());
                for _ in 0..in_flight {
                    out.extend(res_rx.recv().expect("host worker exited early"));
                }
                out
            });
        });
    }

    // Epilogue: charge compute done after the last phase and merge counters.
    let leftover = {
        let mut inner = nc.inner.borrow_mut();
        let max = inner
            .core_compute
            .iter()
            .copied()
            .fold(SimTime::ZERO, SimTime::max);
        inner
            .core_compute
            .iter_mut()
            .for_each(|c| *c = SimTime::ZERO);
        max
    };
    nc.ep.clock.advance_compute(leftover);
    merge_counters(nc);
}

/// The construct's main loop: poll rounds (delegated to `poll_round`, which
/// may fan out to host workers), rank-ordered effect merges, waves, and
/// phase ends. One code path serves every worker count.
fn drive(
    nc: &mut NodeCtx<'_>,
    cells: &[Arc<VpCell>],
    k: usize,
    mut poll_round: impl FnMut(&[usize]) -> Vec<(usize, PollOut)>,
) {
    let me = nc.node_id();
    let mut live = k;
    let mut ready: Vec<usize> = (0..k).collect();
    let mut wave: Option<WaveState> = None;

    loop {
        // Poll runnable VPs; effects land in private scratches. Compute
        // merged while an in-flight wave is partially consumed genuinely
        // overlaps the remaining responses — the pipelining cost model
        // credits it against wave latency (charge_phase_time). (A wave
        // still in flight always has a destination pending.)
        let pipelined_window = wave.as_ref().is_some_and(|w| w.next > 0);
        while !ready.is_empty() {
            ready.sort_unstable();
            ready.dedup();
            let batch = std::mem::take(&mut ready);
            let mut results = poll_round(&batch);
            debug_assert_eq!(results.len(), batch.len());
            results.sort_by_key(|&(vp, _)| vp);
            // Merge every polled VP's effects in ascending rank order: the
            // determinism keystone (DESIGN.md §12). The merged effect
            // sequence — including floating-point accumulate fold order —
            // equals a sequential ascending-rank schedule's regardless of
            // which host thread polled what. A
            // panicking VP behaves like its sequential self: lower ranks
            // merge, its own effects are discarded, the payload re-raises.
            let mut panicked: Option<Box<dyn std::any::Any + Send>> = None;
            {
                let mut inner = nc.inner.borrow_mut();
                let mut round_compute = SimTime::ZERO;
                for (vp, out) in results {
                    match out {
                        PollOut::Panicked(p) => {
                            panicked = Some(p);
                            break;
                        }
                        PollOut::Done => {
                            round_compute += merge_vp(&mut inner, &cells[vp]);
                            live -= 1;
                            inner.live_vps = live;
                        }
                        PollOut::Pending => {
                            round_compute += merge_vp(&mut inner, &cells[vp]);
                        }
                    }
                }
                if pipelined_window {
                    inner.traffic.pipelined_compute += round_compute;
                }
            }
            if let Some(p) = panicked {
                std::panic::resume_unwind(p);
            }
        }

        if live == 0 {
            break;
        }

        // Cold-tile faults take priority over everything else
        // (DESIGN.md §18): they are local and free in modeled time, and
        // must fully drain before a wave starts or advances so that wave
        // content and the compute-overlap window attribution match
        // in-core execution bit for bit.
        if !nc.inner.borrow().pending_tile_faults.is_empty() {
            service_tile_faults(nc, &mut ready);
            continue;
        }

        // A wave in flight takes priority: consume its next destination
        // (strictly ascending) and resume the VPs it satisfied at once.
        if let Some(ws) = wave.as_mut() {
            let (mut woken, filled) = wave_recv_next(nc, cells, ws);
            if ws.next == ws.pending.len() {
                finalize_wave(nc, ws);
                wave = None;
            } else {
                // Partial wake: at least one VP resumes while later
                // destinations are still in flight.
                debug_assert!(!woken.is_empty(), "a destination with no waiters");
                nc.inner.borrow_mut().counters.partial_wakes += 1;
                if nc.ep.tracer.enabled() {
                    nc.ep.tracer.instant(
                        "partial_wake",
                        "comm",
                        nc.ep.clock.now(),
                        vec![
                            ("dests_done", ArgValue::U64(ws.next as u64)),
                            ("dests_total", ArgValue::U64(ws.pending.len() as u64)),
                            ("woken", ArgValue::U64(filled as u64)),
                        ],
                    );
                }
            }
            ready.append(&mut woken);
            continue;
        }

        // No VP is runnable and no wave is in flight: decide why and
        // advance the runtime.
        let (has_reqs, outstanding, arrived, open) = {
            let inner = nc.inner.borrow();
            (
                inner.reqs.iter().any(|v| !v.is_empty()),
                inner.outstanding_reads,
                inner.phase.arrived,
                inner.phase.open,
            )
        };

        if has_reqs {
            wave = Some(start_wave(nc));
            continue;
        }
        assert_eq!(
            outstanding, 0,
            "VPs parked on reads but no requests queued: runtime bug"
        );
        match open {
            Some(kind) if arrived == live => {
                match kind {
                    PhaseKind::Node => node_phase_end(nc),
                    PhaseKind::Global => global_phase_end(nc),
                }
                let mut inner = nc.inner.borrow_mut();
                ready.append(&mut inner.barrier_waiters);
            }
            _ => {
                let v = crate::check::PhaseViolation::BarrierMismatch {
                    node: me,
                    live,
                    arrived,
                };
                panic!("{v} (open phase: {open:?})");
            }
        }
    }
}

/// Service one cold-tile fault round (pseudo-streaming, DESIGN.md §18):
/// refill the *minimum* pending `(array, tile)` — evicting
/// least-recently-touched tiles to stay under the budget — and wake every
/// fault-parked VP. Woken VPs whose tiles are still cold re-record their
/// faults charge-free, so exactly one tile group resolves per round;
/// servicing only the minimum group keeps simultaneous residency bounded
/// by the budget even when every VP faults a different tile at once, and
/// each round strictly shrinks the set of unresolved deferred reads (the
/// refilled tile cannot be evicted before the very next poll captures its
/// values). Spills and refills are free in modeled time and charge no
/// counters beyond their own: residency is an accounting overlay on the
/// same backing storage, so the phase cost model never sees it —
/// makespans stay bit-identical to in-core execution.
fn service_tile_faults(nc: &mut NodeCtx<'_>, ready: &mut Vec<usize>) {
    let (array, tile, spilled, resident) = {
        let mut inner = nc.inner.borrow_mut();
        let inner = &mut *inner;
        let &(array, tile) = inner
            .pending_tile_faults
            .iter()
            .min()
            .expect("fault round with no faults");
        // Drop the other groups: every parked VP is woken below and
        // re-records any still-cold fault on its next poll.
        inner.pending_tile_faults.clear();
        let spilled = inner.thaw().tile_budget.refill(array, tile);
        inner.counters.tile_refills += 1;
        inner.counters.tile_spills += spilled.len() as u64;
        ready.append(&mut inner.fault_waiters);
        let resident = inner.frozen.tile_budget.bytes_resident();
        (array, tile, spilled, resident)
    };
    if nc.ep.tracer.enabled() {
        let ts = nc.ep.clock.now();
        for &(a, t) in &spilled {
            nc.ep.tracer.instant(
                "tile_spill",
                "mem",
                ts,
                vec![
                    ("array", ArgValue::U64(a as u64)),
                    ("tile", ArgValue::U64(t as u64)),
                ],
            );
        }
        nc.ep.tracer.instant(
            "tile_refill",
            "mem",
            ts,
            vec![
                ("array", ArgValue::U64(array as u64)),
                ("tile", ArgValue::U64(tile as u64)),
                ("bytes_resident", ArgValue::U64(resident)),
            ],
        );
    }
}

/// One destination's share of a wave. Waiter groups are in CSR form: the
/// wire entry with ticket `t` asks for element `meta[t]` on behalf of
/// `waiters[starts[t]..starts[t + 1]]`. A bulk read has already combined
/// its own repeats (`GetManyFut`), so a group holds one waiter per *read*
/// that wants the element, not one per occurrence of its index.
struct DestPending {
    dest: usize,
    starts: Vec<u32>,
    /// `(vp, slot)` per queued request, grouped by ticket.
    waiters: Vec<(u32, u32)>,
    /// `(array, global idx)` per ticket (the read cache needs the index
    /// on fill).
    meta: Vec<(u32, u64)>,
}

/// Turn one destination's request queue into its wire entries and waiter
/// groups: sort in place by `(array, idx)` and give each distinct element
/// one entry, whose ticket is its rank in that order. The sort key is the
/// whole request, so the result is a function of the queued *set* — not of
/// the order VP merges appended it in — and the queue keeps its capacity
/// for later waves.
fn build_dest(dest: usize, queue: &mut Vec<QueuedReq>) -> (Vec<msgs::ReqEntry>, DestPending) {
    queue.sort_unstable_by_key(|r| (r.array, r.idx, r.vp, r.slot));
    let mut entries: Vec<msgs::ReqEntry> = Vec::new();
    let mut pend = DestPending {
        dest,
        starts: Vec::new(),
        waiters: Vec::with_capacity(queue.len()),
        meta: Vec::new(),
    };
    for r in queue.drain(..) {
        if pend.meta.last() != Some(&(r.array, r.idx)) {
            entries.push(msgs::ReqEntry {
                array: r.array,
                idx: r.idx,
                slot: pend.meta.len() as u32,
            });
            pend.starts.push(pend.waiters.len() as u32);
            pend.meta.push((r.array, r.idx));
        }
        pend.waiters.push((r.vp, r.slot));
    }
    pend.starts.push(pend.waiters.len() as u32);
    (entries, pend)
}

/// One in-flight communication wave. Destinations complete strictly in
/// ascending node order no matter when their responses really arrive
/// (`pump_recv` stashes the early ones), so the VP wake order never
/// depends on network timing (DESIGN.md §13).
struct WaveState {
    /// Per destination, ascending.
    pending: Vec<DestPending>,
    /// Destinations consumed so far; `pending[next]` is the next to drain.
    next: usize,
    dests: u64,
    entries: u64,
    bytes_out: u64,
    bytes_in: u64,
}

/// Flush the queued read requests as one bundle per destination, with
/// duplicate (array, index) requests from different VPs merged into a
/// single wire entry. Returns the wave's completion state; responses are
/// consumed by [`wave_recv_next`].
fn start_wave(nc: &mut NodeCtx<'_>) -> WaveState {
    let me = nc.node_id();
    let cfg = nc.config();
    let mut ws = WaveState {
        pending: Vec::new(),
        next: 0,
        dests: 0,
        entries: 0,
        bytes_out: 0,
        bytes_in: 0,
    };
    // `reqs` is dense and indexed by destination, so bundles go out — and
    // `pending` fills — in ascending destination order.
    for dest in 0..cfg.nodes() {
        let (phase, entries, bytes) = {
            let mut inner = nc.inner.borrow_mut();
            if inner.reqs[dest].is_empty() {
                continue;
            }
            debug_assert_ne!(dest, me);
            let queued = inner.reqs[dest].len();
            let (entries, pend) = build_dest(dest, &mut inner.reqs[dest]);
            ws.pending.push(pend);
            let bytes = cfg.bundle_header_bytes + entries.len() * cfg.req_entry_bytes;
            inner.traffic.req_bundles_out += 1;
            inner.traffic.req_entries_out += entries.len() as u64;
            inner.traffic.req_bytes_out += bytes as u64;
            inner.counters.msgs_sent += 1;
            inner.counters.bytes_sent += bytes as u64;
            inner.counters.bundles_sent += 1;
            inner.counters.dedup_reads += (queued - entries.len()) as u64;
            (inner.phase.global_seq, entries, bytes)
        };
        ws.dests += 1;
        ws.entries += entries.len() as u64;
        ws.bytes_out += bytes as u64;
        let now = nc.ep.clock.now();
        nc.send_msg(
            Message::new(
                me,
                dest,
                msgs::tag(msgs::K_READ_REQ, phase),
                now,
                bytes,
                ReqBundle { phase, entries },
            ),
            msgs::K_READ_REQ,
        );
    }
    debug_assert!(!ws.pending.is_empty(), "wave started with no requests");
    ws
}

/// Block for the wave's next destination (ascending order; peers are
/// serviced and unrelated messages stashed meanwhile), park the response
/// values in the arrays' arenas — populating the read cache when enabled —
/// and point every answered slot at its value. Returns the VPs whose reads
/// were satisfied (ascending) and the number of slots filled — one per
/// distinct element of each waiting read; the repeats inside a bulk read
/// are copied by its own poll.
fn wave_recv_next(
    nc: &mut NodeCtx<'_>,
    cells: &[Arc<VpCell>],
    ws: &mut WaveState,
) -> (Vec<usize>, usize) {
    let cache_on = nc.config().read_cache;
    let pend = &ws.pending[ws.next];
    let dest = pend.dest;
    let msg = nc.pump_recv(|m| msgs::untag(m.tag).0 == msgs::K_READ_RESP && m.src == dest);
    let bytes = msg.bytes as u64;
    let resp: RespBundle = msg.take();
    let mut inner = nc.inner.borrow_mut();
    inner.traffic.resp_bundles_in += 1;
    inner.traffic.resp_bytes_in += bytes;
    inner.counters.msgs_recv += 1;
    inner.counters.bytes_recv += bytes;
    // Each waiter's scratch is locked on its first fill and stays locked
    // for the rest of the response (no VP polls run meanwhile), so the
    // guards double as the woken set.
    let mut locked: Vec<Option<MutexGuard<'_, VpScratch>>> = cells.iter().map(|_| None).collect();
    let mut filled = 0usize;
    let mut idxs: Vec<u64> = Vec::new();
    for part in resp.parts {
        // The echoed "slots" are our tickets.
        if cache_on {
            idxs.clear();
            idxs.extend(part.slots.iter().map(|&t| pend.meta[t as usize].1));
        }
        debug_assert!(part
            .slots
            .iter()
            .all(|&t| pend.meta[t as usize].0 == part.array));
        let base = inner.thaw().garrays[part.array as usize]
            .absorb_response(part.values, cache_on.then_some(&idxs[..]));
        for (pos, &t) in (base..).zip(&part.slots) {
            let group = pend.starts[t as usize] as usize..pend.starts[t as usize + 1] as usize;
            filled += group.len();
            for &(vp, slot) in &pend.waiters[group] {
                locked[vp as usize]
                    .get_or_insert_with(|| cells[vp as usize].scratch())
                    .slots
                    .fill(slot, pos);
            }
        }
    }
    inner.outstanding_reads -= filled;
    ws.bytes_in += bytes;
    ws.next += 1;
    let woken = (0..cells.len())
        .filter(|&vp| locked[vp].is_some())
        .collect();
    (woken, filled)
}

/// Account a completed wave: counters, the pipelining latency-hiding
/// budget, and the tracing timeline instant.
fn finalize_wave(nc: &mut NodeCtx<'_>, ws: &WaveState) {
    let cfg = nc.config();
    let mut inner = nc.inner.borrow_mut();
    inner.traffic.waves += 1;
    inner.counters.waves += 1;
    if ws.dests >= 2 {
        // A multi-destination wave exposes one response leg that compute
        // merged during partial consumption can hide (charge_phase_time
        // takes min(pipelined_compute, pipeline_hideable)).
        inner.traffic.pipeline_hideable += cfg.machine.net.latency;
    }
    let wave_idx = inner.traffic.waves - 1;

    if nc.ep.tracer.enabled() {
        // Simulated time is charged at phase end, so the clock still reads
        // the phase-start instant here. Place the instant at the wave's
        // cumulative completion offset within the phase — round-trip
        // latency, per-bundle overheads both ways, serialization of the
        // larger direction — so Perfetto shows a real comm timeline
        // (DESIGN.md §11). Estimated elapsed only; never feeds the charged
        // phase time. One bundle went to each destination — the paper's
        // bundling invariant.
        let net = cfg.machine.net;
        let wave_cost = net.latency.scale(2)
            + net.overhead.scale(2 * ws.dests)
            + net.gap_per_byte.scale(ws.bytes_out.max(ws.bytes_in));
        inner.traffic.wave_elapsed += wave_cost;
        let ts = nc.ep.clock.now() + inner.traffic.wave_elapsed;
        drop(inner);
        nc.ep.tracer.instant(
            "wave",
            "comm",
            ts,
            vec![
                ("wave", ArgValue::U64(wave_idx)),
                ("dests", ArgValue::U64(ws.dests)),
                ("bundles", ArgValue::U64(ws.dests)),
                ("entries", ArgValue::U64(ws.entries)),
                ("bytes_out", ArgValue::U64(ws.bytes_out)),
                ("resp_bytes_in", ArgValue::U64(ws.bytes_in)),
            ],
        );
    }
}

/// End a node phase: publish node-shared writes, charge the cores' max
/// compute plus the node barrier, release the VPs.
fn node_phase_end(nc: &mut NodeCtx<'_>) {
    let cfg = nc.config();
    let t0 = nc.ep.clock.now();
    let compute = {
        let mut inner = nc.inner.borrow_mut();
        let inner = &mut *inner;
        let wrote = inner.publish_node_writes(PhaseKind::Node);
        // The node-shared half of the recovery line advances here too
        // (DESIGN.md §10): a crash or death restores from the snapshot and
        // nothing re-executes this phase, so what it just published must
        // be in it. Charged like step 4b of a global phase end: the bytes
        // applied, one memory operation per 64-byte line.
        if let Some(snap) = inner.snapshots.as_mut() {
            let mut applied = 0u64;
            for (id, bytes) in wrote {
                snap.narrays[id] = inner.frozen.narrays[id].snapshot_local().0;
                applied += bytes;
            }
            inner.service_time += cfg.machine.core.mem_ops(applied / 64);
        }
        let arrays = inner.thaw();
        debug_assert!(
            arrays.garrays.iter().all(|g| !g.has_pending_writes()),
            "global writes buffered during a node phase"
        );
        arrays.epoch += 1;
        let max = inner
            .core_compute
            .iter()
            .copied()
            .fold(SimTime::ZERO, SimTime::max);
        inner
            .core_compute
            .iter_mut()
            .for_each(|c| *c = SimTime::ZERO);
        inner.phase.open = None;
        inner.phase.entered = 0;
        inner.phase.arrived = 0;
        inner.phase.node_seq += 1;
        inner.counters.barriers += 1;
        inner.phase_log.push(crate::state::PhaseRecord {
            kind: PhaseKind::Node,
            compute: max,
            service: SimTime::ZERO,
            comm: cfg.node_barrier,
            waves: 0,
            bytes_out: 0,
            bytes_in: 0,
        });
        max
    };
    nc.ep.clock.advance_compute(compute);
    nc.ep.clock.advance_comm(cfg.node_barrier);

    if nc.ep.tracer.enabled() {
        let idx = nc.inner.borrow().phase.node_seq - 1;
        let t1 = t0 + compute;
        nc.ep.tracer.span("compute", "phase", t0, t1, vec![]);
        nc.ep
            .tracer
            .span("barrier", "phase", t1, nc.ep.clock.now(), vec![]);
        emit_phase_summary(
            nc,
            "node_phase",
            t0,
            idx,
            vec![
                ("compute_ps", ArgValue::U64(compute.as_ps())),
                ("barrier_ps", ArgValue::U64(cfg.node_barrier.as_ps())),
            ],
        );
    }
}

/// End a global phase: ship write bundles, collect everyone's, apply
/// deterministically, charge the phase's modeled time, and run the
/// clock-synchronizing barrier.
fn global_phase_end(nc: &mut NodeCtx<'_>) {
    let me = nc.node_id();
    let nodes = nc.num_nodes();
    let cfg = nc.config();
    let phase = nc.inner.borrow().phase.global_seq;
    let t0 = nc.ep.clock.now();

    // Seeded crash: the node "fails" here — after the phase body, before
    // the exchange — and recovers from its super-step snapshot before
    // rejoining. Peers never notice: the recovering node simply reaches
    // the exchange later (reboot + restore + redo time), and the clock
    // barrier propagates the delay.
    if nc.rel.as_deref().is_some_and(|r| r.crash_at(phase)) {
        recover_from_crash(nc, phase);
    }

    // Seeded permanent death (fail-stop, DESIGN.md §15): victims scheduled
    // to die at the end of this phase are detected here, deterministically,
    // from the replicated fault plan — the modeled equivalent of "this
    // peer's retransmit attempts crossed the suspect timeout". With
    // replication off a death is unsurvivable and every node raises the
    // identical structured error; with it on, survivors charge the
    // detection stall, the victim's endpoint continues as its buddy's
    // hosted persona (restored from the replica), and the suspicion bits
    // OR-flood on the clock barrier below so every live node confirms the
    // death at the same phase boundary.
    let local_suspect = detect_permanent_deaths(nc, phase);

    // 1. Drain write buffers into per-destination parcels. First note
    //    which arrays this node wrote at all: the clock barrier OR-floods
    //    those bits so every node can invalidate stale cache lines for
    //    arrays that changed anywhere (DESIGN.md §13). One growable bit
    //    per array id — no overflow/wholesale fallback. The drain also
    //    tells the conformance checker of this node's write-write conflicts.
    let mut local_inv = NodeSet::new();
    // `(payload bytes, bundle)` keyed by destination, holding only
    // destinations a parcel was emitted for — nothing here is sized by the
    // node count.
    let mut outgoing: BTreeMap<usize, (usize, WriteBundleMsg)> = BTreeMap::new();
    {
        let mut inner = nc.inner.borrow_mut();
        let (arrays, mut checker) = inner.thaw_with_checker();
        for (id, ga) in arrays.garrays.iter_mut().enumerate() {
            if cfg.read_cache && ga.has_pending_writes() {
                local_inv.insert(id);
            }
            // Every VP has arrived, so every parked read has resumed and
            // copied its value out: the phase's response values can go.
            ga.arena_clear();
            let checker = checker.as_deref_mut();
            let conflicts =
                checker.map(|c| c.conflicts_in(Space::Global, id as u32, PhaseKind::Global));
            for parcel in ga.drain_writes(conflicts) {
                let (bytes, bundle) = outgoing.entry(parcel.dest).or_default();
                *bytes += parcel.bytes;
                bundle.entries += parcel.entries;
                bundle.parts.push((id as u32, parcel.payload));
            }
        }
    }
    // Own writes never travel: they join step 4's merge as source `me`.
    let (own_bytes, own) = outgoing.remove(&me).unwrap_or_default();

    // 2. Tell every write destination a bundle is coming (DESIGN.md §17),
    //    over the O(log N) dissemination edges, and learn who announced one
    //    for this node.
    debug_assert!(outgoing.values().all(|(_, bundle)| bundle.entries > 0));
    let expected = exchange_sender_notices(nc, phase, outgoing.keys().copied());

    // 3. Ship the bundles — only non-empty ones travel — and collect exactly
    //    the announced ones, servicing read requests from stragglers still
    //    inside their phase bodies.
    let mut shipping = Vec::with_capacity(outgoing.len());
    {
        let mut inner = nc.inner.borrow_mut();
        for (dest, (payload_bytes, bundle)) in outgoing {
            let bytes = cfg.bundle_header_bytes + payload_bytes;
            inner.traffic.write_bundles_out += 1;
            inner.traffic.write_entries_out += bundle.entries;
            inner.traffic.write_bytes_out += bytes as u64;
            shipping.push((dest, bytes, bundle));
        }
    }
    let incoming = exchange(nc, msgs::K_WRITE, phase, shipping, &expected);
    {
        let mut inner = nc.inner.borrow_mut();
        for (_, bytes, bundle) in &incoming {
            inner.traffic.write_bundles_in += 1;
            inner.traffic.write_entries_in += bundle.entries;
            inner.traffic.write_bytes_in += bytes;
        }
    }

    // 4. Apply: group parcels by array (own writes participate as source
    //    `me`; each array's merge takes its sources in ascending order).
    let mut by_array: ParcelsByArray = BTreeMap::new();
    let remote = incoming.into_iter().map(|(src, _, b)| (src, b.parts));
    for (src, parts) in remote.chain([(me as u32, own.parts)]) {
        for (array, payload) in parts {
            by_array.entry(array).or_default().push((src, payload));
        }
    }
    let mut applied_remote = 0u64;
    let push_on = cfg.read_cache && nodes > 1;
    {
        let mut inner = nc.inner.borrow_mut();
        // Every phase-`phase` read request has been serviced by now — the
        // notice dissemination of step 2 is the exchange's flush point (see
        // `exchange_sender_notices`) — and no phase+1 request can have been
        // serviced yet (`global_seq` still gates them). Folding the parked
        // service counters here attributes them to this phase
        // deterministically, whatever real-time moment the requests
        // actually arrived at.
        let deferred = std::mem::take(&mut inner.deferred_service_ctrs);
        inner.counters = inner.counters.merge(&deferred);
        // Fold the phase's serve log into the owner-side history. An
        // element arms for refresh pushes on its SECOND serve within
        // SERVE_TTL phases — a one-serve wonder never earns pushes, and
        // stale history (read-once apps) is pruned so the map stays
        // bounded by the hot working set. Pushes do not extend
        // `last_serve`: armed elements must re-earn their pushes every
        // TTL window (one two-miss hiccup per cycle; DESIGN.md §13).
        let mut serves = std::mem::take(&mut inner.deferred_serves);
        serves.sort_unstable();
        serves.dedup();
        for (peer, array, idx) in serves {
            let h = inner
                .serve_hist
                .entry((array, idx))
                .or_insert_with(|| ServeHist {
                    last_serve: phase,
                    readers: NodeSet::new(),
                    armed: false,
                });
            if phase > h.last_serve + SERVE_TTL {
                h.readers.clear();
                h.armed = false;
            }
            if h.readers.any() {
                h.armed = true;
            }
            h.readers.insert(peer);
            h.last_serve = phase;
        }
        inner
            .serve_hist
            .retain(|_, h| phase <= h.last_serve + SERVE_TTL);
        for (array, parcels) in by_array {
            let (n, written) = {
                // Split borrow: applied writes bump tile recency on
                // resident tiles (write-through without admission,
                // DESIGN.md §18).
                let arrays = inner.thaw();
                let tiles = &mut arrays.tile_budget;
                arrays.garrays[array as usize]
                    .apply_writes(parcels, &mut |off| tiles.touch(array, off))
            };
            applied_remote += n;
            if !push_on {
                continue;
            }
            // Rewritten elements that recently served remote readers get
            // their post-apply values pushed on the upcoming barrier
            // messages, refreshing peer caches without a request/response
            // wave next phase.
            let mut idxs: Vec<u64> = Vec::new();
            let mut masks: Vec<NodeSet> = Vec::new();
            // `written` ascends and so does the array's stretch of the
            // history: one walk over both (none if nothing was served).
            let mut written = written.into_iter().peekable();
            for (&(_, idx), h) in inner.serve_hist.range((array, 0)..=(array, u64::MAX)) {
                while written.next_if(|&w| w < idx).is_some() {}
                if written.next_if_eq(&idx).is_none() {
                    continue;
                }
                // Hop cutoff: a refresh pays its bytes once per
                // dissemination hop, and reader `t` sits
                // popcount((t - me) mod nodes) hops away on the
                // barrier's source routes. Beyond two hops the pushed
                // copies cost more wire than the fetch round-trip they
                // save, so distant readers keep fetching. Pure function
                // of node ids — identical on every host schedule.
                let targets: NodeSet = h
                    .readers
                    .iter()
                    .filter(|&t| t != me && route_offset(me, t, nodes).count_ones() <= 2)
                    .collect();
                if h.armed && targets.any() {
                    idxs.push(idx);
                    masks.push(targets);
                }
            }
            if !idxs.is_empty() {
                let values = inner.frozen.garrays[array as usize].refresh_collect(&idxs);
                inner.pending_refresh.push(RefreshPart {
                    array,
                    idxs,
                    masks,
                    values,
                });
            }
        }
        // Node-shared writes made inside the global phase publish too.
        inner.publish_node_writes(PhaseKind::Global);
        inner.service_time += cfg.service_overhead.scale(applied_remote);
        // The arrays now hold the next phase's snapshot: requests for
        // phase+1 may legally arrive (from nodes that already finished the
        // clock barrier) and be serviced from here on.
        inner.phase.global_seq += 1;
    }

    // 4a. Trace-guided adaptive repartitioning (DESIGN.md §14): every node
    //     holds the identical load window (the barrier's loads sidecar)
    //     and identical bounds, so all nodes compute the same cuts with no
    //     agreement round; elements migrate here — after writes applied,
    //     before the snapshot line advances — so crash recovery always
    //     restores post-migration partitions.
    if cfg.adaptive_balance {
        maybe_rebalance(nc, phase);
    }

    // 4b. Advance the crash-recovery line: the arrays now ARE the next
    //     super-step's consistent state. Phase-end refreshes are
    //     incremental: only the bytes the exchange just wrote into this
    //     node's partitions (plus migration arrivals) cost copy time.
    let dirty = own_bytes as u64 + {
        let inner = nc.inner.borrow();
        inner.traffic.write_bytes_in + inner.traffic.migr_bytes_in
    };
    if nc.snapshots_enabled() {
        nc.take_snapshot(Some(dirty));
    }

    // 4c. Buddy replication (DESIGN.md §15): stream the fresh recovery
    //     line to the cyclic successor as a frame riding the round-0
    //     barrier message — whose destination IS the buddy. The first
    //     frame (and the first after any death re-homes replicas) ships
    //     the full snapshot; later frames ship only the bytes written
    //     into this node's partitions this phase (own write parcels,
    //     peers' write bundles, migration arrivals: step 4b's `dirty` —
    //     node-shared deltas ride free, like the barrier's other sidecars).
    let replica: Option<ReplicaFrame> = if cfg.replication && nodes > 1 {
        let mut inner = nc.inner.borrow_mut();
        let snap = inner
            .snapshots
            .as_ref()
            .expect("replication maintains snapshots");
        let (snap_phase, full) = (snap.phase, snap.bytes);
        let base = !inner.replica_base_sent;
        let bytes = if base { full } else { dirty };
        inner.replica_base_sent = true;
        Some(ReplicaFrame {
            phase: snap_phase,
            bytes,
            base,
        })
    } else {
        None
    };

    // 5. Charge the phase's modeled time.
    let charge = charge_phase_time(nc);

    // 6. Clock-synchronizing dissemination barrier — carrying the cache
    //    invalidation bits, refresh pushes, the balancer's loads sidecar,
    //    and the failure-tolerance sidecars (suspicions, replica frame,
    //    hosted-persona compute) — then release the VPs.
    let my_load = (charge.compute + charge.service).as_ps();
    let hosted_ps = {
        let mut inner = nc.inner.borrow_mut();
        if inner.hosted {
            // The buddy serializes this dead rank's re-executed VPs after
            // its own: this phase's busy time, plus the one-shot failover
            // cost the phase it died.
            let extra = inner.hosted_extra;
            inner.hosted_extra = SimTime::ZERO;
            my_load + extra.as_ps()
        } else {
            0
        }
    };
    let barrier_start = nc.ep.clock.now();
    clock_barrier(
        nc,
        phase,
        local_inv,
        my_load,
        local_suspect,
        replica,
        hosted_ps,
    );

    {
        let mut inner = nc.inner.borrow_mut();
        inner.phase.open = None;
        inner.phase.entered = 0;
        inner.phase.arrived = 0;
        inner.thaw().epoch += 1;
        inner.counters.barriers += 1;
        debug_assert!(
            inner.frozen.garrays.iter().all(|g| g.arena_is_empty()),
            "response values outlived their global phase"
        );
    }

    if nc.ep.tracer.enabled() {
        let barrier_end = nc.ep.clock.now();
        nc.ep
            .tracer
            .span("barrier", "phase", barrier_start, barrier_end, vec![]);
        let t = charge.traffic;
        // Refresh pushes sent during the barrier that just closed this
        // phase land in the live (already reset) traffic — read them
        // there so the summary's bundle reconciliation stays exact
        // (their *time* is charged next phase; see `Traffic` docs).
        let refresh_out = nc.inner.borrow().traffic.refresh_bundles_out;
        emit_phase_summary(
            nc,
            "global_phase",
            t0,
            phase,
            vec![
                ("compute_ps", ArgValue::U64(charge.compute.as_ps())),
                ("service_ps", ArgValue::U64(charge.service.as_ps())),
                ("comm_ps", ArgValue::U64(charge.comm.as_ps())),
                (
                    "barrier_ps",
                    ArgValue::U64((barrier_end - barrier_start).as_ps()),
                ),
                ("waves", ArgValue::U64(t.waves)),
                ("bytes_out", ArgValue::U64(charge.bytes_out)),
                ("bytes_in", ArgValue::U64(charge.bytes_in)),
                ("req_bundles_out", ArgValue::U64(t.req_bundles_out)),
                ("write_bundles_out", ArgValue::U64(t.write_bundles_out)),
                ("refresh_bundles_out", ArgValue::U64(refresh_out)),
                ("rel_delay_ps", ArgValue::U64(t.rel_delay.as_ps())),
            ],
        );
    }
}

/// The modeled time charged for one global phase, plus the traffic totals
/// it was computed from (kept for the tracer's phase summary).
struct PhaseCharge {
    compute: SimTime,
    service: SimTime,
    comm: SimTime,
    bytes_out: u64,
    bytes_in: u64,
    traffic: Traffic,
}

/// Turn the phase's traffic totals and compute accumulators into simulated
/// time on this node's clock.
fn charge_phase_time(nc: &mut NodeCtx<'_>) -> PhaseCharge {
    let cfg = nc.config();
    let net = cfg.machine.net;
    let (compute, service, t) = {
        let mut inner = nc.inner.borrow_mut();
        let compute = inner
            .core_compute
            .iter()
            .copied()
            .fold(SimTime::ZERO, SimTime::max);
        inner
            .core_compute
            .iter_mut()
            .for_each(|c| *c = SimTime::ZERO);
        let service = inner.service_time;
        inner.service_time = SimTime::ZERO;
        let t = inner.traffic;
        inner.traffic = Traffic::default();
        (compute, service, t)
    };

    // Refresh pushes ride barrier messages; the previous barrier recorded
    // their bytes into the (already reset) live Traffic, so they surface
    // here one phase later — symmetrically on sender and receiver, hence
    // still deterministic. The job's final barrier's refresh bytes are
    // never charged as time (the counters still count them).
    let mut bytes_out =
        t.req_bytes_out + t.resp_bytes_out + t.write_bytes_out + t.refresh_bytes_out;
    let mut bytes_in = t.req_bytes_in + t.resp_bytes_in + t.write_bytes_in + t.refresh_bytes_in;
    // Migration payloads (adaptive repartitioning, DESIGN.md §14) are
    // runtime bulk transfers — one bundle per peer regardless of the
    // bundling ablation — charged in the rebalancing phase's gap term.
    bytes_out += t.migr_bytes_out;
    bytes_in += t.migr_bytes_in;
    // Replica frames ride barrier messages like refresh pushes and are
    // recorded into the live (already reset) Traffic during the barrier,
    // so their time likewise surfaces one phase later — but only on the
    // RECEIVING end (the buddy ingesting the frame into its replica
    // store): the sender streams the frame during the barrier gap it is
    // already paying, so the send side is modeled free. The final
    // barrier's frame is never charged as time.
    bytes_in += t.replica_bytes_in;
    let (mut msgs_out, mut msgs_in) = if cfg.bundling {
        (
            t.req_bundles_out + t.resp_bundles_out + t.write_bundles_out,
            t.req_bundles_in + t.resp_bundles_in + t.write_bundles_in,
        )
    } else {
        // Ablation: every element access is its own message, with its own
        // per-message overhead and framing bytes.
        let extra_out = (t.req_entries_out + t.req_entries_in + t.write_entries_out) * 16;
        let extra_in = (t.req_entries_in + t.req_entries_out + t.write_entries_in) * 16;
        bytes_out += extra_out;
        bytes_in += extra_in;
        (
            t.req_entries_out + t.req_entries_in + t.write_entries_out,
            t.req_entries_in + t.req_entries_out + t.write_entries_in,
        )
    };

    msgs_out += t.migr_bundles_out;
    msgs_in += t.migr_bundles_in;

    // Reliability layer (zero when disabled): retransmitted/duplicate
    // envelopes pay per-message overhead, and backoff/fault delay is
    // exposed wait time. Cumulative acks are modeled as piggybacked and
    // cost no simulated time (see `Traffic::rel_extra_msgs`).
    msgs_out += t.rel_extra_msgs;

    // Node-level sender: the runtime owns the NIC (share factor 1).
    let gap = net.gap_per_byte.scale(bytes_out.max(bytes_in));
    let overhead = net.overhead.scale(msgs_out + msgs_in);
    // Wave pipelining hides compute merged while a multi-destination wave
    // was partially consumed under the wave's exposed response legs —
    // capped by the hideable budget (one latency per >=2-destination
    // wave), which is itself <= latency.scale(waves), so the subtraction
    // cannot underflow.
    let hidden = t.pipelined_compute.min(t.pipeline_hideable);
    let latency = net.latency.scale(2 * t.waves) - hidden;

    let busy = compute + service;
    let busy_start = nc.ep.clock.now();
    nc.ep.clock.advance_compute(busy);
    let comm = if cfg.overlap {
        // Gap time hides under computation (§3.3 overlap); overheads and
        // wave round trips do not.
        let exposed_gap = if gap > busy {
            gap - busy
        } else {
            SimTime::ZERO
        };
        exposed_gap + overhead + latency
    } else {
        gap + overhead + latency
    };
    let comm = comm + t.rel_delay;
    nc.ep.clock.advance_comm(comm);
    nc.inner
        .borrow_mut()
        .phase_log
        .push(crate::state::PhaseRecord {
            kind: PhaseKind::Global,
            compute,
            service,
            comm,
            waves: t.waves,
            bytes_out,
            bytes_in,
        });

    if nc.ep.tracer.enabled() {
        let busy_end = busy_start + busy;
        nc.ep.tracer.span(
            "compute",
            "phase",
            busy_start,
            busy_end,
            vec![
                ("compute_ps", ArgValue::U64(compute.as_ps())),
                ("service_ps", ArgValue::U64(service.as_ps())),
            ],
        );
        nc.ep.tracer.span(
            "comm",
            "phase",
            busy_end,
            busy_end + comm,
            vec![
                ("waves", ArgValue::U64(t.waves)),
                ("bytes_out", ArgValue::U64(bytes_out)),
                ("bytes_in", ArgValue::U64(bytes_in)),
            ],
        );
    }

    PhaseCharge {
        compute,
        service,
        comm,
        bytes_out,
        bytes_in,
        traffic: t,
    }
}

/// Sparse-exchange sender notices (DESIGN.md §17): this node tells every
/// peer in `dests` "expect a non-empty [`K_WRITE`] bundle from me", each
/// notice source-routed over the clock barrier's dissemination edges
/// ([`Edge::carries`]) instead of replicated to all nodes. Returns the set
/// of peers that announced a bundle for this node this phase.
///
/// Modeled free: zero wire bytes, no clock advance, no message counters.
///
/// Determinism note — this dissemination is also the exchange's *flush
/// point*, which is why every node sends exactly one token per round even
/// when no notice rides it. A peer's phase-`phase` read requests are
/// enqueued to this node's inbox before the peer's round-0 token send
/// (program order on the peer), and that send transitively happens-before
/// some token this node receives (each hop sends round `r+1` only after
/// receiving round `r`, and the edges reach every node from every node).
/// The per-endpoint inbox is one FIFO queue, so by the time the final
/// round's `pump_recv` returns, every peer's phase-`phase` requests have
/// been dequeued — and `pump_recv` services them inline. Step 4's
/// deferred-counter and serve-history folds rely on it; nothing else in the
/// exchange provides it (a node waits for bundles from announced senders
/// only). No phase-`phase+1` token can arrive before step 6: a peer
/// starts its next phase only after its clock barrier completes, which
/// transitively requires this node's barrier sends.
///
/// [`K_WRITE`]: msgs::K_WRITE
fn exchange_sender_notices(
    nc: &mut NodeCtx<'_>,
    phase: u64,
    dests: impl ExactSizeIterator<Item = usize>,
) -> NodeSet {
    let me = nc.node_id();
    let nodes = nc.num_nodes();
    if nodes == 1 {
        return NodeSet::new();
    }
    let write_dests = dests.len() as u64;
    let mut notices = Notices::new(me, nodes, dests);
    for edge in dissemination(me, nodes) {
        let tag = msgs::tag(msgs::K_TOKENS, msgs::barrier_meta(phase, edge.round));
        let token = TokenMsg {
            phase,
            notices: notices.take_for(edge),
        };
        let now = nc.ep.clock.now();
        nc.send_msg(
            Message::new(me, edge.to, tag, now, 0, token),
            msgs::K_TOKENS,
        );
        let msg = nc.pump_recv(|m| m.tag == tag && m.src == edge.from);
        let tm: TokenMsg = msg.take();
        debug_assert_eq!(tm.phase, phase);
        notices.absorb(tm.notices);
    }
    let expected = notices.into_expected();
    if nc.ep.tracer.enabled() {
        nc.ep.tracer.instant(
            "token_exchange",
            "runtime",
            nc.ep.clock.now(),
            vec![
                ("phase", ArgValue::U64(phase)),
                ("write_dests", ArgValue::U64(write_dests)),
                ("expected_senders", ArgValue::U64(expected.count() as u64)),
            ],
        );
    }
    expected
}

/// One bundle exchange of a phase end — the write exchange ([`K_WRITE`]) and
/// a rebalance's migration ([`K_MIGRATE`]) are the same protocol: send each
/// `(dest, wire bytes, payload)` of `outgoing` (ascending destinations, no
/// empty bundle), then block until every peer in `expected` has delivered
/// its own, servicing read requests from stragglers meanwhile. Returns
/// `(source, wire bytes, payload)` in ascending source order. Message and
/// bundle counters are kept here; what the bytes mean to the phase's cost
/// (`Traffic`'s `write_*` or `migr_*` columns) is the caller's to add.
///
/// [`K_WRITE`]: msgs::K_WRITE
/// [`K_MIGRATE`]: msgs::K_MIGRATE
fn exchange<M: Send + 'static>(
    nc: &mut NodeCtx<'_>,
    kind: u64,
    phase: u64,
    outgoing: Vec<(usize, usize, M)>,
    expected: &NodeSet,
) -> Vec<(u32, u64, M)> {
    let me = nc.node_id();
    let tag = msgs::tag(kind, phase);
    for (dest, bytes, payload) in outgoing {
        debug_assert!(dest != me && bytes > 0);
        {
            let mut inner = nc.inner.borrow_mut();
            inner.counters.msgs_sent += 1;
            inner.counters.bytes_sent += bytes as u64;
            inner.counters.bundles_sent += 1;
        }
        let now = nc.ep.clock.now();
        nc.send_msg(Message::new(me, dest, tag, now, bytes, payload), kind);
    }
    let want = expected.count() as usize;
    let mut incoming: Vec<(u32, u64, M)> = Vec::with_capacity(want);
    while incoming.len() < want {
        let msg = nc.pump_recv(|m| m.tag == tag);
        let (src, bytes) = (msg.src, msg.bytes as u64);
        debug_assert!(
            expected.contains(src),
            "node {src} sent a {} bundle nobody announced",
            msgs::kind_name(kind)
        );
        debug_assert!(
            bytes > 0,
            "node {src} shipped an empty {} bundle",
            msgs::kind_name(kind)
        );
        {
            let mut inner = nc.inner.borrow_mut();
            inner.counters.msgs_recv += 1;
            inner.counters.bytes_recv += bytes;
        }
        incoming.push((src as u32, bytes, msg.take()));
    }
    incoming.sort_by_key(|&(src, ..)| src);
    incoming
}

/// Dissemination barrier among nodes that also propagates the maximum
/// clock, so every node leaves the phase at a consistent (and
/// deterministic) simulated instant.
///
/// The read-cache coherence sidecar rides the same messages (DESIGN.md
/// §13), adding zero messages of its own:
///
/// - `inv_bits` — each node's "arrays I wrote this phase" bits are
///   OR-flooded; the dissemination pattern guarantees every node's bits
///   reach every other node by the final round.
/// - `refreshes` — owner-pushed post-apply values for armed elements,
///   source-routed along the dissemination edges: at each round an entry
///   is forwarded for exactly the targets the round's edge carries
///   ([`Edge::carries`], the rule sender notices ride too), so every
///   target receives each entry exactly once and nothing is left pending
///   after the last round.
///
/// Barrier messages never count toward `msgs_sent`/`msgs_recv` (the
/// pre-existing convention: barrier cost is modeled, not counted);
/// non-empty refresh payloads DO count as a bundle and bytes so the
/// fig-bench traffic columns reflect them honestly.
///
/// A third sidecar rides the same messages: `loads` — each node's
/// compute+service time for the phase the barrier closes, allgathered in
/// block order ([`BarrierMsg::loads`]). After the final round every node
/// holds the identical per-node load vector, which feeds the adaptive
/// repartitioner's decision function one phase later (DESIGN.md §14).
/// Like `inv_bits`, modeled free: it changes no clock and no counter, so
/// makespans are bit-identical whether `adaptive_balance` is on or off —
/// until a migration actually fires.
/// Failure-tolerance sidecars (DESIGN.md §15) ride the same messages too:
/// `suspect_bits` OR-floods like `inv_bits` so every live node confirms a
/// death at the same boundary; the round-0 message (destination = cyclic
/// successor = the replication buddy) additionally carries the snapshot
/// `replica` frame and the `hosted_compute_ps` a hosted persona charges to
/// its host. Replica bytes are accounted here explicitly (they must not
/// ride `Message::bytes`, which the receive path attributes to refresh
/// traffic); newly confirmed deaths are folded after the final round.
fn clock_barrier(
    nc: &mut NodeCtx<'_>,
    phase: u64,
    local_inv: NodeSet,
    my_load: u64,
    local_suspect: NodeSet,
    mut replica: Option<ReplicaFrame>,
    hosted_ps: u64,
) {
    let me = nc.node_id();
    let nodes = nc.num_nodes();
    if nodes == 1 {
        // Single node: every read is local, the cache holds nothing. Still
        // feed the balancer's window so its counters are uniform across
        // node counts (rebalancing one node is a no-op anyway).
        let mut inner = nc.inner.borrow_mut();
        if inner.load_acc.len() != 1 {
            inner.load_acc = vec![0; 1];
        }
        inner.load_acc[0] = inner.load_acc[0].saturating_add(my_load);
        inner.load_window += 1;
        return;
    }
    let cfg = nc.config();
    let net = cfg.machine.net;
    let me_set = NodeSet::single(me);
    let mut inv = local_inv;
    // Refresh entries addressed to this node, absorbed only after the
    // invalidation sweep (the pushed values are post-exchange truth and
    // must survive it).
    let mut collected: Vec<RefreshPart> = Vec::new();
    let mut loads = LoadBlock::new(me, nodes, my_load);
    // Suspicion OR-flood state, seeded with this node's own detections.
    let mut suspects = local_suspect;

    for edge in dissemination(me, nodes) {
        let Edge {
            round, to, from, ..
        } = edge;
        nc.ep.clock.advance_comm(net.overhead);

        // Split the pending refresh entries: targets this round's edge
        // carries travel now; the rest stay for a later round.
        let mut refreshes: Vec<RefreshPart> = Vec::new();
        let mut refresh_bytes = 0u64;
        let pending = std::mem::take(&mut nc.inner.borrow_mut().pending_refresh);
        if !pending.is_empty() {
            let rides: NodeSet = pending
                .iter()
                .flat_map(|part| part.masks.iter().flat_map(NodeSet::iter))
                .filter(|&t| edge.carries(me, t, nodes))
                .collect();
            let mut inner = nc.inner.borrow_mut();
            let inner = &mut *inner;
            for part in pending {
                let ga = &*inner.frozen.garrays[part.array as usize];
                let (now, later) = part.split(&rides, ga);
                if let Some((part, value_bytes)) = now {
                    // A refresh entry is (idx, value): no slot ticket
                    // (nobody is waiting on it), the array id is amortized
                    // into an 8-byte part header, and the indices are
                    // sorted ascending (they come from `apply_writes`'
                    // `written` list), so the wire format delta-varint
                    // encodes them — charged at 4 bytes per index, versus
                    // 12 for a random-access request entry.
                    refresh_bytes += 8 + value_bytes + part.idxs.len() as u64 * 4;
                    refreshes.push(part);
                }
                inner.pending_refresh.extend(later);
            }
            if refresh_bytes > 0 {
                // Refreshes ride a barrier message that is sent either
                // way, so they are NOT a new bundle or message — only
                // their bytes hit the wire. `refresh_bundles_out` counts
                // barrier sends that carried a refresh payload.
                inner.counters.bytes_sent += refresh_bytes;
                inner.traffic.refresh_bytes_out += refresh_bytes;
                inner.traffic.refresh_bundles_out += 1;
            }
        }

        // The replica frame and hosted-persona compute ride only the
        // round-0 edge: its destination, the cyclic successor, IS the
        // buddy. Frame bytes are accounted out-of-band (not on
        // `Message::bytes`: the receive path below credits those to
        // refresh traffic).
        let frame = if round == 0 { replica.take() } else { None };
        if let Some(fr) = &frame {
            let mut inner = nc.inner.borrow_mut();
            inner.counters.bytes_sent += fr.bytes;
            inner.counters.replica_bytes += fr.bytes;
            inner.traffic.replica_bytes_out += fr.bytes;
        }
        let now = nc.ep.clock.now();
        let tag = msgs::tag(msgs::K_BARRIER, msgs::barrier_meta(phase, round));
        // `ts` is the arrival instant (send time + latency, plus any fault
        // delay added by the reliability layer in send_msg).
        nc.send_msg(
            Message::new(
                me,
                to,
                tag,
                now + net.latency,
                refresh_bytes as usize,
                BarrierMsg {
                    inv_bits: inv.clone(),
                    suspect_bits: suspects.clone(),
                    replica: frame,
                    hosted_compute_ps: if round == 0 { hosted_ps } else { 0 },
                    refreshes,
                    loads: loads.to_send(),
                },
            ),
            msgs::K_BARRIER,
        );
        let msg = nc.pump_recv(|m| m.tag == tag && m.src == from);
        nc.ep.clock.wait_until(msg.ts);
        nc.ep.clock.advance_comm(net.overhead);
        let bytes_in = msg.bytes as u64;
        let bm: BarrierMsg = msg.take();
        inv.union_with(&bm.inv_bits);
        suspects.union_with(&bm.suspect_bits);
        loads.append(&bm.loads);
        if bytes_in > 0 {
            let mut inner = nc.inner.borrow_mut();
            inner.counters.bytes_recv += bytes_in;
            inner.traffic.refresh_bytes_in += bytes_in;
        }
        if let Some(fr) = bm.replica {
            let mut inner = nc.inner.borrow_mut();
            inner.counters.bytes_recv += fr.bytes;
            inner.traffic.replica_bytes_in += fr.bytes;
            inner.replica_in = Some((fr.phase, fr.bytes, fr.base));
        }
        if bm.hosted_compute_ps > 0 {
            // This node hosts its predecessor's persona: the dead rank's
            // re-executed work serializes after ours, so our clock (and
            // through later rounds, the global makespan) reflects it.
            nc.ep
                .clock
                .advance_compute(SimTime::from_ps(bm.hosted_compute_ps));
        }
        // Refreshes addressed to this node wait for the invalidation
        // sweep; the other targets' copies travel on in a later round.
        if !bm.refreshes.is_empty() {
            let mut inner = nc.inner.borrow_mut();
            let inner = &mut *inner;
            for part in bm.refreshes {
                let ga = &*inner.frozen.garrays[part.array as usize];
                let (mine, onward) = part.split(&me_set, ga);
                collected.extend(mine.map(|(part, _)| part));
                inner.pending_refresh.extend(onward);
            }
        }
    }

    // Fold the complete load vector into the balancer's window. Every node
    // folds the identical vector at the identical boundary, so the window
    // stays replicated without ever being exchanged itself.
    {
        let mut inner = nc.inner.borrow_mut();
        if inner.load_acc.len() != nodes {
            inner.load_acc = vec![0; nodes];
        }
        for (rank, load) in loads.by_rank() {
            let slot = &mut inner.load_acc[rank];
            *slot = slot.saturating_add(load);
        }
        inner.load_window += 1;
    }

    // Confirm deaths (DESIGN.md §15): after the final round every node
    // holds the identical suspicion union, so each newly suspected node is
    // confirmed dead by all survivors at this same boundary. The dead
    // rank's partitions and VPs re-home onto its *effective buddy* — the
    // first cyclic successor not itself dead — which counts the failover,
    // emits the trace instant with the adopted footprint, and (on any
    // confirmation) restarts replica streams from a fresh base frame.
    let newly = {
        let mut inner = nc.inner.borrow_mut();
        let newly = suspects.difference(&inner.dead_bits);
        if newly.any() {
            inner.dead_bits.union_with(&newly);
            inner.replica_base_sent = false;
            inner.counters.peers_confirmed_dead += u64::from(newly.difference(&me_set).count());
        }
        newly
    };
    if newly.any() && !cfg.replication {
        // Unsurvivable: no replica stream exists, so the dead rank's
        // partitions are gone. The barrier is already complete — every
        // node stands at this same confirmation point with nothing left
        // in flight — so every node (victim included) raises the
        // IDENTICAL structured error naming the dead node, and whichever
        // endpoint's panic the cluster driver re-raises first, the caller
        // sees the same payload. Victims black-hole their inbox first so
        // defensive late traffic can never observe a hung-up peer.
        let victim = newly.first().expect("newly is non-empty");
        if newly.contains(me) {
            nc.ep.net.mark_dead();
        }
        RecoveryError {
            node: victim,
            phase,
            reason: "node died permanently with replication disabled \
                     (enable PpmConfig::with_replication / PPM_REPLICATION \
                     to survive fail-stop faults)"
                .into(),
        }
        .raise();
    }
    if newly.any() {
        let dead = nc.inner.borrow().dead_bits.clone();
        for v in newly.iter() {
            let mut buddy = (v + 1) % nodes;
            while dead.contains(buddy) {
                buddy = (buddy + 1) % nodes;
            }
            if buddy != me {
                continue;
            }
            let (elems, bytes, vps) = {
                let mut inner = nc.inner.borrow_mut();
                inner.counters.failovers += 1;
                let mut elems = 0u64;
                let mut bytes = 0u64;
                for ga in inner.frozen.garrays.iter() {
                    let r = ga.dist().owned_range(v);
                    elems += (r.end - r.start) as u64;
                    bytes += ga.owned_bytes(v);
                }
                let vps = inner.peer_vps.get(v).copied().unwrap_or(0);
                (elems, bytes, vps)
            };
            nc.ep.tracer.instant(
                "failover",
                "runtime",
                nc.ep.clock.now(),
                vec![
                    ("phase", ArgValue::U64(phase)),
                    ("victim", ArgValue::U64(v as u64)),
                    ("adopted_elems", ArgValue::U64(elems)),
                    ("adopted_bytes", ArgValue::U64(bytes)),
                    ("adopted_vps", ArgValue::U64(vps)),
                ],
            );
        }
    }

    if cfg.read_cache {
        let mut inner = nc.inner.borrow_mut();
        debug_assert!(
            inner.pending_refresh.is_empty(),
            "refresh entries survived the final dissemination round"
        );
        // Invalidate, THEN absorb: the pushed values are already
        // post-exchange truth for the bits being invalidated.
        let garrays = &mut inner.thaw().garrays;
        for (id, ga) in garrays.iter_mut().enumerate() {
            if inv.contains(id) {
                ga.cache_clear();
            }
        }
        for part in collected {
            garrays[part.array as usize].refresh_absorb(&part.idxs, part.values.as_ref());
        }
    }
}

/// Phase-boundary recovery from a seeded [`CrashFault`]: the node "fails"
/// at the end of global phase `phase` (body done, exchange not started),
/// reboots, restores its owned shared-array partitions and phase sequence
/// from the last super-step snapshot, and re-executes the lost phase body.
/// Re-execution is deterministic — the write buffers it would rebuild are
/// exactly the ones already in hand — so the recovered node rejoins the
/// exchange with bit-identical state, just later: reboot + restore copy +
/// redo compute are charged to its clock and propagate through the clock
/// barrier.
///
/// [`CrashFault`]: ppm_simnet::CrashFault
fn recover_from_crash(nc: &mut NodeCtx<'_>, phase: u64) {
    let cfg = nc.config();
    let me = nc.node_id();
    let t0 = nc.ep.clock.now();
    let (redo, bytes) = restore_from_snapshot(nc, me, phase);
    nc.inner.borrow_mut().counters.crash_recoveries += 1;
    nc.ep.clock.advance_compute(cfg.crash_reboot);
    // Restore is a streaming copy back out of the snapshot store: charged
    // at cache-line granularity like the capture itself.
    nc.ep
        .clock
        .advance_compute(cfg.machine.core.mem_ops(bytes / 64));
    nc.ep.clock.advance_compute(redo);

    if nc.ep.tracer.enabled() {
        nc.ep.tracer.span(
            "crash_recovery",
            "reliability",
            t0,
            nc.ep.clock.now(),
            vec![
                ("phase", ArgValue::U64(phase)),
                ("restored_bytes", ArgValue::U64(bytes)),
                ("redo_ps", ArgValue::U64(redo.as_ps())),
            ],
        );
    }
}

/// Restore every shared array from the last super-step snapshot and
/// return the pending redo compute (the crashed phase body's uncharged
/// per-core maximum) plus the bytes restored. Any inconsistency — missing
/// snapshot, wrong recovery line, payload/shape mismatch — raises the
/// structured [`RecoveryError`] naming `node` and `phase` instead of a
/// bare panic, so harnesses can observe recovery failures programmatically.
fn restore_from_snapshot(nc: &mut NodeCtx<'_>, node: usize, phase: u64) -> (SimTime, u64) {
    let fail = |reason: String| -> ! {
        RecoveryError {
            node,
            phase,
            reason,
        }
        .raise()
    };
    let mut inner = nc.inner.borrow_mut();
    let snaps = match inner.snapshots.take() {
        Some(s) => s,
        None => fail("crash fault fired with no snapshot (runtime bug)".into()),
    };
    if snaps.phase != phase {
        fail(format!(
            "snapshot is not the crashed super-step's recovery line \
             (snapshot phase {}, crashed phase {phase})",
            snaps.phase
        ));
    }
    let mut bytes = 0u64;
    let arrays = inner.thaw();
    for (ga, s) in arrays.garrays.iter_mut().zip(&snaps.garrays) {
        bytes += ga.restore_local(s.as_ref()).unwrap_or_else(|e| fail(e));
    }
    for (na, s) in arrays.narrays.iter_mut().zip(&snaps.narrays) {
        bytes += na.restore_local(s.as_ref()).unwrap_or_else(|e| fail(e));
    }
    inner.snapshots = Some(snaps);
    // The phase body's compute still sits uncharged in the per-core
    // accumulators; the redo costs that much again.
    let redo = inner
        .core_compute
        .iter()
        .copied()
        .fold(SimTime::ZERO, SimTime::max);
    (redo, bytes)
}

/// Entry hook of [`global_phase_end`] for seeded permanent deaths
/// (DESIGN.md §15). Returns this node's local suspicion bits for the
/// clock barrier's OR-flood (zero when nothing died here).
///
/// Detection is a pure function of the replicated fault plan — the
/// deterministic stand-in for "retransmit attempts to this peer crossed
/// [`PpmConfig::suspect_timeout`] of simulated time" — so every node
/// suspects the same victims at the same phase boundary without
/// exchanging anything beyond the barrier sidecar. Survivors charge the
/// timeout as reliability stall; retry counters are untouched (no real
/// retransmissions happen, and `retries == faults_dropped` must keep
/// holding).
///
/// [`PpmConfig::suspect_timeout`]: crate::PpmConfig
fn detect_permanent_deaths(nc: &mut NodeCtx<'_>, phase: u64) -> NodeSet {
    let victims = match nc.rel.as_deref() {
        Some(r) => r.perm_victims_at(phase),
        None => return NodeSet::new(),
    };
    if victims.is_empty() {
        return NodeSet::new();
    }
    debug_assert!(
        victims.iter().all(|&v| phase == 0
            || !nc
                .rel
                .as_deref()
                .is_some_and(|r| r.perm_dead_by(v, phase - 1))),
        "a node can die only once (enforced by FaultConfig::with_permanent_crash)"
    );
    let me = nc.node_id();
    let nodes = nc.num_nodes();
    let cfg = nc.config();
    if nodes == 1 {
        // No barrier rounds will run to confirm the death, and a lone
        // node has no buddy even with replication on: fail here with the
        // structured error.
        nc.inner.borrow_mut().dead_bits.insert(victims[0]);
        nc.ep.net.mark_dead();
        RecoveryError {
            node: victims[0],
            phase,
            reason: "single-node job cannot survive a permanent death \
                     (no buddy exists to host a replica)"
                .into(),
        }
        .raise();
    }
    let survivable = cfg.replication;
    let mut bits = NodeSet::new();
    for &v in &victims {
        bits.insert(v);
        if v == me {
            if survivable {
                fail_over_self(nc, phase);
            }
            // Unsurvivable deaths carry the suspicion through the barrier
            // and abort at the confirmation point (clock_barrier), where
            // every node raises the identical error with nobody blocked.
        } else {
            let mut inner = nc.inner.borrow_mut();
            inner.counters.peers_suspected += 1;
            inner.traffic.rel_delay += cfg.suspect_timeout;
        }
    }
    bits
}

/// This node just died permanently — and becomes its buddy's *hosted
/// persona* (DESIGN.md §15): the endpoint thread continues as the
/// deterministic reconstruction the buddy performs from its replica.
/// Logical computation is unchanged (the replica is byte-identical to the
/// victim's own snapshot by construction, so the restore uses the local
/// copy), which is what makes results bit-identical to the fault-free
/// run; only the cost model changes. The persona charges the detection
/// stall plus the restore-and-redo here, and from now on ships its
/// per-phase busy time to the buddy via the barrier's
/// `hosted_compute_ps` sidecar (the buddy serializes the persona's VPs
/// after its own).
fn fail_over_self(nc: &mut NodeCtx<'_>, phase: u64) {
    let cfg = nc.config();
    let me = nc.node_id();
    let t0 = nc.ep.clock.now();
    let (redo, bytes) = restore_from_snapshot(nc, me, phase);
    let restore = cfg.machine.core.mem_ops(bytes / 64);
    // Nobody restores anything until the suspect timeout has confirmed
    // the death; no reboot is charged (the buddy is already up).
    nc.ep.clock.advance_comm(cfg.suspect_timeout);
    nc.ep.clock.advance_compute(restore);
    nc.ep.clock.advance_compute(redo);
    {
        let mut inner = nc.inner.borrow_mut();
        inner.hosted = true;
        inner.hosted_extra = restore + redo;
    }
    if nc.ep.tracer.enabled() {
        nc.ep.tracer.span(
            "failover_restore",
            "reliability",
            t0,
            nc.ep.clock.now(),
            vec![
                ("phase", ArgValue::U64(phase)),
                ("restored_bytes", ArgValue::U64(bytes)),
                ("redo_ps", ArgValue::U64(redo.as_ps())),
            ],
        );
    }
}

/// Step 4a of [`global_phase_end`]: trace-guided adaptive repartitioning
/// (DESIGN.md §14).
///
/// Decide from the replicated load window (every node folded the identical
/// loads vector out of the barrier sidecar), recut the balanced arrays'
/// weighted bounds with [`balance::rebalance_bounds`], then swap the moved
/// stretches: one [`K_MIGRATE`] bundle to each peer that takes elements
/// over, all collected before any partition rebinds.
///
/// Determinism: every input to the decision (load window, bounds, array
/// ids) is replicated, so all nodes compute the same plan with no
/// agreement round; the migrated stretches are disjoint by construction
/// (old spans are disjoint, new spans are disjoint), so rebind order
/// cannot matter — sources are still applied in ascending node order. No
/// phase-`phase+1` read request can arrive mid-migration: a peer issues
/// those only after its clock barrier completes, which transitively
/// requires this node's first barrier send — and that happens after this
/// hook returns.
///
/// [`K_MIGRATE`]: msgs::K_MIGRATE
fn maybe_rebalance(nc: &mut NodeCtx<'_>, phase: u64) {
    let me = nc.node_id();
    let nodes = nc.num_nodes();
    let cfg = nc.config();
    // Decide: a pure function of the replicated window. `(id, old, new)`
    // per balanced array whose cut moves.
    let (evaluated, plan): (bool, Vec<(u32, Dist, Dist)>) = {
        let inner = nc.inner.borrow();
        if nodes < 2 || inner.balanced.is_empty() || inner.load_window < balance::MIN_WINDOW {
            (false, Vec::new())
        } else {
            let plan = inner
                .balanced
                .iter()
                .filter_map(|&id| {
                    let old = inner.frozen.garrays[id as usize].dist().clone();
                    let cur = old.bounds();
                    balance::rebalance_bounds(&cur, &inner.load_acc).map(|nb| {
                        let new = Dist::weighted(old.len, old.nodes, Arc::new(nb));
                        (id, old, new)
                    })
                })
                .collect();
            (true, plan)
        }
    };
    if evaluated {
        // The window was consumed by a decision (either way): restart it so
        // the next evaluation sees only post-decision phases.
        let mut inner = nc.inner.borrow_mut();
        inner.load_acc.iter_mut().for_each(|l| *l = 0);
        inner.load_window = 0;
    }
    if plan.is_empty() {
        return;
    }

    // The plan is a pure function of the replicated load window, so both
    // sides of every transfer evaluate the same overlap predicate — no
    // notice round needed (DESIGN.md §17): `src` sends `dst` a bundle iff
    // some stretch `src` owned lands in `dst`'s new partition.
    let moves = |src: usize, dst: usize| {
        plan.iter().filter_map(move |(id, old, new)| {
            let (from, to) = (old.owned_range(src), new.owned_range(dst));
            let (lo, hi) = (from.start.max(to.start), from.end.min(to.end));
            (lo < hi).then_some((*id, lo..hi))
        })
    };
    let peers = || (0..nodes).filter(|&n| n != me);
    let expected: NodeSet = peers()
        .filter(|&src| moves(src, me).next().is_some())
        .collect();

    // Ship: one bundle per peer with every stretch leaving this node for it.
    let mut moved_out = 0u64;
    let mut bytes_out_total = 0u64;
    let mut shipping: Vec<(usize, usize, MigrateMsg)> = Vec::new();
    {
        let mut inner = nc.inner.borrow_mut();
        let inner = &mut *inner;
        for dest in peers() {
            let mut parts: MigrateMsg = Vec::new();
            let mut bytes = cfg.bundle_header_bytes;
            for (id, stretch) in moves(me, dest) {
                moved_out += stretch.len() as u64;
                let (payload, b) =
                    inner.frozen.garrays[id as usize].migrate_extract(stretch.clone());
                bytes += b as usize;
                parts.push((id, stretch.start as u64, payload));
            }
            if parts.is_empty() {
                continue;
            }
            bytes_out_total += bytes as u64;
            inner.traffic.migr_bundles_out += 1;
            inner.traffic.migr_bytes_out += bytes as u64;
            shipping.push((dest, bytes, parts));
        }
    }
    let incoming = exchange(nc, msgs::K_MIGRATE, phase, shipping, &expected);
    {
        let mut inner = nc.inner.borrow_mut();
        for (_, bytes, _) in &incoming {
            inner.traffic.migr_bundles_in += 1;
            inner.traffic.migr_bytes_in += bytes;
        }
    }

    // Rebind: install the new layouts, retained overlap plus arrived
    // stretches, per balanced array.
    type ArrivedParts = Vec<(usize, Box<dyn std::any::Any + Send>)>;
    let mut by_array: BTreeMap<u32, ArrivedParts> = BTreeMap::new();
    for (_src, _bytes, bundle) in incoming {
        for (id, start, payload) in bundle {
            let start = usize::try_from(start).expect("migration start exceeds usize");
            by_array.entry(id).or_default().push((start, payload));
        }
    }
    let moved_in = {
        let mut inner = nc.inner.borrow_mut();
        let mut moved_in = 0u64;
        for (id, _old, new) in &plan {
            let parts = by_array.remove(id).unwrap_or_default();
            let arrays = inner.thaw();
            moved_in += arrays.garrays[*id as usize].migrate_rebind(me, new.clone(), parts);
            // The repartitioned stretch starts fully cold: residency is
            // keyed by local offsets, which the rebind just remapped
            // (DESIGN.md §18).
            arrays.tile_budget.rebind(*id, new.local_len(me));
        }
        debug_assert!(
            by_array.is_empty(),
            "migration payload for an unplanned array"
        );
        // Serve history keys owner-side elements; ownership moved, so drop
        // the migrated arrays' entries (refresh pushes re-arm from fresh
        // serves under the new layout). Remote-read caches are kept:
        // migration moves ownership, not values, and the owner check
        // shadows any entry this node now owns.
        let planned: Vec<u32> = plan.iter().map(|p| p.0).collect();
        inner.serve_hist.retain(|&(a, _), _| !planned.contains(&a));
        // Installing arrived elements is owner-side work, charged like
        // write application.
        inner.service_time += cfg.service_overhead.scale(moved_in);
        moved_in
    };

    if nc.ep.tracer.enabled() {
        let moved_vps = nc.inner.borrow().live_vps as u64;
        nc.ep.tracer.instant(
            "rebalance",
            "runtime",
            nc.ep.clock.now(),
            vec![
                ("phase", ArgValue::U64(phase)),
                ("arrays", ArgValue::U64(plan.len() as u64)),
                ("moved_elems_out", ArgValue::U64(moved_out)),
                ("moved_elems_in", ArgValue::U64(moved_in)),
                ("moved_bytes", ArgValue::U64(bytes_out_total)),
                ("moved_vps", ArgValue::U64(moved_vps)),
            ],
        );
    }
}

/// Fold the Inner counters accumulated during `ppm_do` into the endpoint's.
fn merge_counters(nc: &mut NodeCtx<'_>) {
    let mut inner = nc.inner.borrow_mut();
    let c = std::mem::take(&mut inner.counters);
    nc.ep.counters = nc.ep.counters.merge(&c);
}

#[cfg(test)]
#[path = "exec_tests.rs"]
mod tests;
