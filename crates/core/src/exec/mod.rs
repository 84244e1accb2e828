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
//! every effect into their private [`VpScratch`], and the driver merges
//! scratches into [`Inner`](crate::state::Inner) in ascending rank order
//! after the round — so the merged effect sequence
//! equals a sequential ascending-rank schedule's no matter which host
//! thread polled what. A wave's destinations are consumed strictly in
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
//! future and scratch, held by rank in `drive`. A poll round moves each
//! runnable VP's future and scratch to whoever polls it — the driver
//! itself, or a host worker with the round's `Arc<Frozen>` — and gets both
//! back with the result, so no lock guards any of it.
//!
//! ## Map
//!
//! This file is the construct: `run_do`, the poll loop `drive`, the host
//! worker pool. `wave` builds, ships and consumes communication waves and
//! services tile faults; `phase_end` is the node and global phase end —
//! `global_phase_end` reads as the protocol's ordered step list — with the
//! phase cost formula and the bundle exchange; `barrier` is the
//! clock-synchronizing dissemination loop. What rides that barrier and
//! hooks those steps belongs to three feature modules, each owning its
//! state: [`crate::coherence`], [`crate::balance`], [`crate::failover`].

use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::{mpsc, Arc};
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

/// A VP on its way to be polled: its rank, its future and its scratch.
type Job = (usize, VpTask, VpScratch);

/// Outcome of polling one VP once (possibly on a host worker thread).
enum PollOut {
    Done,
    /// The future, to be polled again.
    Pending(VpTask),
    Panicked(Box<dyn std::any::Any + Send>),
}

/// Poll one VP future once, inside its poll context: the VP's scratch and
/// `frozen`, the node's arrays, sit in this thread's thread-local for the
/// poll, so the accesses the future makes take no lock (DESIGN.md §12). A
/// future that finishes or panics is dropped inside the context too. Panics
/// are caught so the driver can merge the lower-rank VPs' effects first and
/// then re-raise — reproducing a sequential schedule's panic behavior from
/// any worker thread. Returns the rank, the outcome and the scratch.
fn poll_vp((vp, mut task, scratch): Job, frozen: &Arc<Frozen>) -> (usize, PollOut, VpScratch) {
    let ctx = PollGuard::enter(vp, scratch, Arc::clone(frozen));
    let mut cx = Context::from_waker(Waker::noop());
    let out = match catch_unwind(AssertUnwindSafe(|| task.as_mut().poll(&mut cx))) {
        Ok(Poll::Pending) => PollOut::Pending(task),
        Ok(Poll::Ready(())) => {
            drop(task);
            PollOut::Done
        }
        Err(payload) => {
            drop(task);
            PollOut::Panicked(payload)
        }
    };
    (vp, out, ctx.exit())
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

    let workers = host_workers(&cfg).min(k.max(1));
    let cores = cfg.cores_per_node();
    if workers <= 1 {
        // Inline: the identical record-to-scratch + rank-ordered-merge path
        // minus the thread handoff, so one code path defines the semantics
        // at every worker count.
        drive(nc, &cells, tasks, |batch, frozen| {
            batch.into_iter().map(|job| poll_vp(job, frozen)).collect()
        });
    } else {
        // Persistent worker pool for the whole construct. Workers only ever
        // poll futures (each inside its own poll context); the driver
        // thread owns every ordered effect.
        std::thread::scope(|s| {
            let (res_tx, res_rx) = mpsc::channel::<Vec<(usize, PollOut, VpScratch)>>();
            let cmd_txs: Vec<mpsc::Sender<(Vec<Job>, Arc<Frozen>)>> = (0..workers)
                .map(|_| {
                    let (tx, rx) = mpsc::channel::<(Vec<Job>, Arc<Frozen>)>();
                    let res_tx = res_tx.clone();
                    s.spawn(move || {
                        while let Ok((batch, frozen)) = rx.recv() {
                            let out: Vec<_> =
                                batch.into_iter().map(|j| poll_vp(j, &frozen)).collect();
                            // Released before the results go back: the driver
                            // thaws the arrays as soon as it has them all.
                            drop(frozen);
                            if res_tx.send(out).is_err() {
                                break;
                            }
                        }
                    });
                    tx
                })
                .collect();
            drop(res_tx);
            let mut batches: Vec<Vec<Job>> = (0..workers).map(|_| Vec::new()).collect();
            drive(nc, &cells, tasks, move |batch, frozen| {
                // Partition by simulated core (the clock-accounting mapping)
                // and fan cores out across workers; results are re-sorted by
                // rank before merging, so arrival order never matters.
                let polled = batch.len();
                for job in batch {
                    batches[(job.0 % cores) % workers].push(job);
                }
                let mut in_flight = 0;
                // The two `expect`s cannot fire: a worker leaves its loop only
                // when a channel closes, both outlive this closure, and
                // `poll_vp` catches a VP's panic before it can unwind one.
                for (w, b) in batches.iter_mut().enumerate() {
                    if !b.is_empty() {
                        cmd_txs[w]
                            .send((std::mem::take(b), Arc::clone(frozen)))
                            .expect("host worker exited early");
                        in_flight += 1;
                    }
                }
                let mut out = Vec::with_capacity(polled);
                for _ in 0..in_flight {
                    out.extend(res_rx.recv().expect("host worker exited early"));
                }
                out
            });
        });
    }

    // Epilogue: charge compute done after the last phase.
    let leftover = nc.inner.take_core_compute();
    nc.ep.clock.advance_compute(leftover);
}

/// The construct's main loop: poll rounds (delegated to `poll_round`, which
/// may fan out to host workers), rank-ordered effect merges, waves, and
/// phase ends. One code path serves every worker count. It owns the VPs'
/// futures — `None` once retired — and their scratches, by rank.
fn drive(
    nc: &mut NodeCtx<'_>,
    cells: &[Arc<VpCell>],
    tasks: Vec<VpTask>,
    mut poll_round: impl FnMut(Vec<Job>, &Arc<Frozen>) -> Vec<(usize, PollOut, VpScratch)>,
) {
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
            // Cannot fire: `ready` holds only VPs not seen to finish, and a
            // future leaves `tasks` only on `Ready` or a panic — both of
            // which retire the VP.
            let batch: Vec<Job> = (ready.drain(..))
                .map(|vp| {
                    let task = tasks[vp].take().expect("ready VP must be live");
                    (vp, task, std::mem::take(&mut scratches[vp]))
                })
                .collect();
            let polled = batch.len();
            let mut results = poll_round(batch, &nc.inner.frozen);
            debug_assert_eq!(results.len(), polled);
            results.sort_by_key(|&(vp, ..)| vp);
            // Merge every polled VP's effects in ascending rank order: the
            // determinism keystone (DESIGN.md §12). The merged effect
            // sequence — including floating-point accumulate fold order —
            // equals a sequential ascending-rank schedule's regardless of
            // which host thread polled what. A
            // panicking VP behaves like its sequential self: lower ranks
            // merge, its own effects are discarded, the payload re-raises.
            let inner = &mut nc.inner;
            let mut round_compute = SimTime::ZERO;
            for (vp, out, scratch) in results {
                scratches[vp] = scratch;
                match out {
                    PollOut::Panicked(p) => std::panic::resume_unwind(p),
                    PollOut::Done => {
                        live -= 1;
                        inner.live_vps = live;
                    }
                    PollOut::Pending(task) => tasks[vp] = Some(task),
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
