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
//! Scheduling is deterministic regardless of host thread timing: each poll
//! round's runnable set is fixed up front, every runnable VP is polled once
//! in ascending rank against the round's frozen arrays, recording every
//! effect into its private [`VpScratch`], and the driver then merges the
//! scratches into [`Inner`](crate::state::Inner) in ascending rank order —
//! so the merged effect sequence equals a sequential ascending-rank
//! schedule's. A wave's destinations are consumed strictly in
//! ascending node order (early responses wait in the router), so VPs resume per
//! completed destination — in deterministic order — while slower
//! destinations are still in flight, and the schedule never depends on
//! network timing (DESIGN.md §13). Write bundles are applied in ascending
//! source-node order.
//! Simulated clocks are computed from per-phase totals, never from message
//! interleaving. See DESIGN.md §12.
//!
//! ## Ownership
//!
//! The node's thread owns its state: `NodeCtx::inner`, and every VP's
//! future and scratch, held by rank in `drive`, which polls each VP in
//! place with the round's `Arc<Frozen>` — one poll loop per node, and no
//! lock guards any of it.
//!
//! ## Map
//!
//! This file is the construct: `run_do` and the poll loop `drive`. `wave`
//! builds, ships and consumes communication waves and
//! services tile faults; `phase_end` is the node and global phase end —
//! `global_phase_end` reads as the protocol's ordered step list — with the
//! phase cost formula and the bundle exchange; `barrier` is the
//! clock-synchronizing dissemination loop. What rides that barrier and
//! hooks those steps belongs to three feature modules, each owning its
//! state: [`crate::coherence`], [`crate::balance`], [`crate::failover`].

use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use ppm_simnet::SimTime;

use crate::nodectx::NodeCtx;
use crate::state::{merge_vp, DoMode, Frozen, PhaseKind, PollGuard, VpCell, VpScratch};
use crate::vp::Vp;

mod barrier;
mod phase_end;
mod wave;

pub(crate) use phase_end::exchange;
use phase_end::{global_phase_end, node_phase_end};
use wave::{finalize_wave, service_tile_faults, start_wave, wave_recv_next, WaveState};

type VpTask = Pin<Box<dyn Future<Output = ()> + Send>>;

/// Outcome of polling one VP once.
enum PollOut {
    /// Still running; its future stays in place.
    Pending,
    Done,
    Panicked(Box<dyn std::any::Any + Send>),
}

/// Poll VP `vp`'s future once, in place, inside its poll context: the VP's
/// scratch and `frozen`, the node's arrays, sit in this thread's
/// thread-local for the poll, so the accesses the future makes take no lock
/// (DESIGN.md §12). A future that finishes or panics is dropped inside the
/// context too, leaving `task` empty. Panics are caught so the driver can
/// merge the lower-rank VPs' effects first and then re-raise — reproducing
/// a sequential schedule's panic behavior.
fn poll_vp(
    vp: usize,
    task: &mut Option<VpTask>,
    scratch: &mut VpScratch,
    frozen: &Arc<Frozen>,
) -> PollOut {
    let ctx = PollGuard::enter(vp, std::mem::take(scratch), Arc::clone(frozen));
    // Cannot fire: only a live VP is made ready, and a future leaves `task`
    // only on `Ready` or a panic — both of which retire the VP.
    let fut = task.as_mut().expect("ready VP must be live");
    let mut cx = Context::from_waker(Waker::noop());
    let out = match catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx))) {
        Ok(Poll::Pending) => PollOut::Pending,
        Ok(Poll::Ready(())) => PollOut::Done,
        Err(payload) => PollOut::Panicked(payload),
    };
    if !matches!(out, PollOut::Pending) {
        *task = None;
    }
    *scratch = ctx.exit();
    out
}

/// Run one `PPM_do(k) f` construct to completion.
pub(crate) fn run_do<Fut>(nc: &mut NodeCtx<'_>, k: usize, mode: DoMode, f: impl Fn(Vp) -> Fut)
where
    Fut: Future<Output = ()> + Send + 'static,
{
    let me = nc.node_id();
    if mode == DoMode::Collective {
        // A node with zero VPs could never send its end-of-phase bundles,
        // deadlocking any peer that runs a global phase. `k` is the
        // caller's: fail early, naming it, with advice.
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
            nc.inner.failover.set_peer_vps(ks);
            split
        }
        // Asynchronous mode: no cross-node coordination; ranks are
        // node-local.
        DoMode::Local => (0, k as u64),
    };
    let inner = &mut nc.inner;
    inner.vp_base_global = base;
    inner.total_vps_global = total;
    inner.live_vps = k;
    inner.do_mode = mode;
    // Read caches do not survive across constructs: direct mutation
    // between `ppm_do`s (`with_local_mut`) can change any partition
    // without a phase exchange to carry invalidations.
    for ga in inner.thaw().garrays.iter_mut() {
        ga.cache_clear();
    }
    if nc.ep.tracer.enabled() {
        // Per-phase counter deltas start from here, excluding the
        // construct's collective prologue.
        nc.inner.ctr_base = nc.ep_counters();
    }

    // Crash recovery line: direct mutation between `ppm_do`s
    // (`with_local_mut`) may have changed the arrays since the last
    // phase-end snapshot, so refresh it at construct entry. Untracked
    // mutation means the whole copy is charged.
    if nc.snapshots_enabled() {
        nc.take_snapshot(None);
    }

    // Instantiate the VPs: an identity cell per VP, shared with its
    // handles, and its future.
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
    let tasks: Vec<VpTask> = cells
        .iter()
        .map(|cell| Box::pin(f(Vp { cell: cell.clone() })) as VpTask)
        .collect();

    drive(nc, &cells, tasks);

    // Epilogue: charge compute done after the last phase.
    let leftover = nc.inner.take_core_compute();
    nc.ep.clock.advance_compute(leftover);
}

/// The construct's main loop: poll rounds, rank-ordered effect merges,
/// waves, and phase ends. It owns the VPs' futures — `None` once retired —
/// and their scratches, by rank.
fn drive(nc: &mut NodeCtx<'_>, cells: &[Arc<VpCell>], tasks: Vec<VpTask>) {
    let me = nc.node_id();
    let mut live = tasks.len();
    let mut ready: Vec<usize> = (0..live).collect();
    let mut tasks: Vec<Option<VpTask>> = tasks.into_iter().map(Some).collect();
    let mut scratches: Vec<VpScratch> = tasks.iter().map(|_| VpScratch::default()).collect();
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
            // Poll every runnable VP in ascending rank against the round's
            // frozen arrays, then merge every polled VP's effects in
            // ascending rank order: the determinism keystone (DESIGN.md
            // §12). The merged effect sequence — including floating-point
            // accumulate fold order — equals a sequential ascending-rank
            // schedule's. A panicking VP behaves like its sequential self:
            // lower ranks merge, its own effects are discarded, the payload
            // re-raises.
            let frozen = &nc.inner.frozen;
            let outs: Vec<PollOut> = ready
                .iter()
                .map(|&vp| poll_vp(vp, &mut tasks[vp], &mut scratches[vp], frozen))
                .collect();
            let inner = &mut nc.inner;
            let mut round_compute = SimTime::ZERO;
            for (vp, out) in ready.drain(..).zip(outs) {
                match out {
                    PollOut::Panicked(p) => std::panic::resume_unwind(p),
                    PollOut::Done => {
                        live -= 1;
                        inner.live_vps = live;
                    }
                    PollOut::Pending => {}
                }
                round_compute += merge_vp(inner, &cells[vp], &mut scratches[vp]);
            }
            if pipelined_window {
                inner.traffic.pipelined_compute += round_compute;
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
        if !nc.inner.pending_tile_faults.is_empty() {
            service_tile_faults(nc, &mut ready);
            continue;
        }

        // A wave in flight takes priority: consume its next destination
        // (strictly ascending) and resume the VPs it satisfied at once.
        if let Some(ws) = wave.as_mut() {
            let (mut woken, filled) = wave_recv_next(nc, &mut scratches, ws);
            if ws.next == ws.pending.len() {
                finalize_wave(nc, ws);
                wave = None;
            } else {
                // Partial wake: at least one VP resumes while later
                // destinations are still in flight.
                debug_assert!(!woken.is_empty(), "a destination with no waiters");
                nc.inner.counters.partial_wakes += 1;
                let args = [
                    ("dests_done", ws.next as u64),
                    ("dests_total", ws.pending.len() as u64),
                    ("woken", filled as u64),
                ];
                nc.trace("partial_wake", "comm", nc.now(), None, &args);
            }
            ready.append(&mut woken);
            continue;
        }

        // No VP is runnable and no wave is in flight: decide why and
        // advance the runtime.
        if nc.inner.reqs.iter().any(|v| !v.is_empty()) {
            wave = Some(start_wave(nc));
            continue;
        }
        // Cannot fire: a parked read queued its request in the same merge
        // that counted it, and the count drops only as a wave fills slots.
        assert_eq!(
            nc.inner.outstanding_reads, 0,
            "VPs parked on reads but no requests queued: runtime bug"
        );
        let (arrived, open) = (nc.inner.phase.arrived, nc.inner.phase.open);
        match open {
            Some(kind) if arrived == live => {
                match kind {
                    PhaseKind::Node => node_phase_end(nc),
                    PhaseKind::Global => global_phase_end(nc),
                }
                ready.append(&mut nc.inner.barrier_waiters);
            }
            // The program's own structure (a VP finished, or skipped a
            // phase, while its peers wait at the barrier): name it.
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

#[cfg(test)]
#[path = "exec_tests.rs"]
mod tests;
