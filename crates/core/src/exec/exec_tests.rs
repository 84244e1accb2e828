//! Unit tests of the wave builder and the response arena's lifetime
//! (`exec::tests`; kept in their own file so `mod.rs` stays readable).

use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::task::Poll;

use ppm_simnet::{FaultConfig, MachineConfig};

use super::wave::build_dest;
use super::*;
use crate::config::PpmConfig;
use crate::elem::AccumOp;
use crate::state::{Frozen, Inner, QueuedReq};
use crate::testkit::Gen;
use crate::{GlobalShared, Phase};

fn req(array: u32, idx: u64, vp: u32, slot: u32) -> QueuedReq {
    QueuedReq {
        array,
        idx,
        vp,
        slot,
    }
}

/// Poll `f` exactly once from inside an async body.
async fn poll_once<F: Future + Unpin>(f: &mut F) -> Poll<F::Output> {
    poll_fn(|cx| Poll::Ready(Pin::new(&mut *f).poll(cx))).await
}

#[test]
fn build_dest_groups_waiters_in_csr_form() {
    // Three VPs share (0, 40); (0, 7) and (1, 7) are distinct elements.
    let mut queue = vec![
        req(0, 40, 0, 0),
        req(1, 7, 0, 1),
        req(0, 40, 1, 0),
        req(0, 7, 2, 3),
        req(0, 40, 2, 1),
    ];
    let cap = queue.capacity();
    let (entries, pend) = build_dest(5, &mut queue);
    let wire: Vec<(u32, u64, u32)> = entries.iter().map(|e| (e.array, e.idx, e.slot)).collect();
    assert_eq!(wire, vec![(0, 7, 0), (0, 40, 1), (1, 7, 2)]);
    assert_eq!(pend.dest, 5);
    assert_eq!(pend.meta, vec![(0, 7), (0, 40), (1, 7)]);
    assert_eq!(pend.starts, vec![0, 1, 4, 5]);
    assert_eq!(pend.waiters, vec![(2, 3), (0, 0), (1, 0), (2, 1), (0, 1)]);
    assert!(queue.is_empty());
    assert_eq!(queue.capacity(), cap, "the queue is reused by later waves");
}

/// Wire entries and waiter groups are a function of the queued set: any
/// order of VP merges builds the identical bundle and wake lists.
#[test]
fn build_dest_is_insertion_order_independent() {
    let mut g = Gen::new(0xC5);
    for _ in 0..50 {
        let mut queue: Vec<QueuedReq> = (0..g.usize_in(1..60))
            .map(|i| req(g.u32_in(0..3), g.u64_in(0..12), g.u32_in(0..8), i as u32))
            .collect();
        let mut shuffled = queue.clone();
        g.shuffle(&mut shuffled);
        let (e0, p0) = build_dest(1, &mut queue);
        let (e1, p1) = build_dest(1, &mut shuffled);
        assert_eq!(e0, e1);
        assert_eq!(
            (p0.starts, p0.waiters, p0.meta),
            (p1.starts, p1.waiters, p1.meta)
        );
        assert!(e0
            .windows(2)
            .all(|w| (w[0].array, w[0].idx) < (w[1].array, w[1].idx)));
    }
}

/// One VP holds two parked reads of *different element types* at once (a
/// hand-rolled join): one wave answers both, each through its own array's
/// arena. The arenas hold values only inside the phase that fetched them —
/// empty again after every global phase end, a crash-recovery one included.
#[test]
fn arena_serves_mixed_types_and_empties_every_phase() {
    // Cache off, so every phase's reads really park.
    let cfg = PpmConfig::new(MachineConfig::new(2, 2))
        .with_read_cache(false)
        .with_faults(FaultConfig::NONE.with_crash(1, 1));
    let n = 8;
    let report = crate::run(cfg, move |node| {
        let a = node.alloc_global::<f64>(n);
        let b = node.alloc_global::<u64>(n);
        let lo = node.local_range(&a).start;
        node.with_local_mut(&a, |s| {
            for (off, v) in s.iter_mut().enumerate() {
                *v = (lo + off) as f64 + 0.5;
            }
        });
        node.with_local_mut(&b, |s| {
            for (off, v) in s.iter_mut().enumerate() {
                *v = 100 + (lo + off) as u64;
            }
        });
        node.ppm_do(2, move |vp| async move {
            let arenas_empty = |vp: &Vp| {
                let empty = |view: &Frozen| view.garrays.iter().all(|g| g.arena_is_empty());
                vp.cell.with_poll(|_, view| empty(view))
            };
            // An element of each array owned by the other node.
            let far = (lo + n / 2 + vp.node_rank()) % n;
            for phase in 0..3 {
                let probe = vp.clone();
                vp.global_phase(|ph| async move {
                    let mut fa = ph.get(&a, far);
                    let mut fb = ph.get(&b, far);
                    assert!(poll_once(&mut fa).await.is_pending());
                    assert!(poll_once(&mut fb).await.is_pending());
                    assert_eq!(fb.await, 100 + far as u64 + phase);
                    assert_eq!(fa.await, far as f64 + 0.5);
                    assert!(!arenas_empty(&probe), "values live in the arenas");
                    let me = lo + probe.node_rank();
                    ph.put(&b, me, 100 + me as u64 + phase + 1);
                })
                .await;
                assert!(arenas_empty(&vp), "arena outlived phase {phase}");
            }
        });
    });
    assert_eq!(report.total_counters().crash_recoveries, 1);
}

/// A VP that panics mid-poll still hands its scratch back to its cell and
/// leaves the thread's poll context clear: the frozen handle is unique
/// again, and the same thread polls the next VP normally.
#[test]
fn panicking_poll_returns_the_scratch_and_clears_the_context() {
    let cfg = PpmConfig::new(MachineConfig::new(1, 2));
    let inner = SharedInner::new(Inner::new(cfg));
    let cells: Vec<Arc<VpCell>> = (0..2)
        .map(|r| Arc::new(VpCell::new(r, r as u64, 0, cfg, DoMode::Collective, 2, 2)))
        .collect();
    let tasks: Vec<Mutex<Option<VpTask>>> = cells
        .iter()
        .map(|cell| {
            let vp = Vp { cell: cell.clone() };
            let task = async move {
                vp.charge_flops(7);
                assert_ne!(vp.node_rank(), 0, "boom");
            };
            Mutex::new(Some(Box::pin(task) as VpTask))
        })
        .collect();
    assert!(matches!(
        poll_vp(&tasks, &cells[0], &inner),
        PollOut::Panicked(_)
    ));
    assert_eq!(cells[0].scratch().counters.flops, 7, "scratch handed back");
    inner.borrow_mut().thaw();
    assert!(matches!(poll_vp(&tasks, &cells[1], &inner), PollOut::Done));
    assert_eq!(cells[1].scratch().counters.flops, 7);
}

/// Shared accesses inside a poll take no lock: 10 000 local gets, puts and
/// accumulates per VP cost the locks of a handful of polls and merges.
#[test]
fn local_accesses_take_locks_per_poll_not_per_access() {
    use crate::state::LOCKS_TAKEN;
    const ACCESSES: usize = 10_000;
    let cfg = PpmConfig::new(MachineConfig::new(1, 2)).with_host_threads(1);
    let report = crate::run(cfg, |node| {
        let a = node.alloc_global::<u64>(64);
        let b = node.alloc_global::<u64>(64);
        let before = LOCKS_TAKEN.get();
        node.ppm_do(4, move |vp| async move {
            let me = vp.node_rank() as u64;
            vp.global_phase(|ph| async move {
                for i in 0..ACCESSES {
                    let v = ph.get(&a, i % 64).await;
                    ph.put(&a, i % 64, v + me);
                    ph.accumulate(&b, i % 64, AccumOp::Add, 1);
                }
            })
            .await;
        });
        LOCKS_TAKEN.get() - before
    });
    let locks = report.results[0];
    assert_eq!(
        report.total_counters().local_accesses,
        4 * 3 * ACCESSES as u64
    );
    assert!(locks < 100, "{locks} lock acquisitions for 4 VPs × 2 polls");
}

/// Combine at the source: a bulk read asks for each distinct remote element
/// once. N copies of one remote index park on one slot and queue one
/// request, yet every copy is a charged access (`remote_gets`,
/// `cache_misses`) and the N − 1 requests not made count as `dedup_reads`. A
/// repeat of an index that *hit* the read cache is one more hit and never
/// reaches the table. Dropping a parked bulk read with repeats — before or
/// after its response — leaves the slot table all free.
#[test]
fn bulk_read_asks_for_each_distinct_remote_element_once() {
    const N: usize = 40;
    let cfg = PpmConfig::new(MachineConfig::new(2, 1))
        .with_read_cache(true)
        .with_host_threads(1);
    let report = crate::run(cfg, |node| {
        let a = node.alloc_global::<u64>(8);
        let lo = node.local_range(&a).start;
        node.with_local_mut(&a, |s| {
            for (off, v) in s.iter_mut().enumerate() {
                *v = 10 + (lo + off) as u64;
            }
        });
        node.ppm_do(1, move |vp| async move {
            // Elements of the other node's block.
            let far = |j: usize| (lo + 4 + j) % 8;
            let probe = vp.clone();
            vp.global_phase(|ph| async move {
                // What this poll has added to the scratch so far.
                let since_merge = || {
                    probe.cell.with_poll(|s, _| {
                        let c = &s.counters;
                        (s.slots_alloced, s.reqs.len(), c.remote_gets, c.dedup_reads)
                    })
                };
                let in_use = || probe.cell.with_poll(|s, _| s.slots.in_use());

                let mut many = ph.get_many(&a, std::iter::repeat_n(far(0), N));
                assert!(poll_once(&mut many).await.is_pending());
                assert_eq!(since_merge(), (1, 1, N as u64, N as u64 - 1));
                assert_eq!(in_use(), 1);
                assert_eq!(many.await, vec![10 + far(0) as u64; N]);
                assert_eq!(in_use(), 0);

                // far(0) is cached now: its repeats are hits, and share
                // nothing with the two distinct misses around them.
                let mixed = [far(1), far(0), far(2), far(0), far(1), far(0)];
                let mut many = ph.get_many(&a, mixed);
                assert!(poll_once(&mut many).await.is_pending());
                assert_eq!(since_merge(), (2, 2, 3, 1));
                assert_eq!(probe.cell.with_poll(|s, _| s.counters.cache_hits), 3);
                assert_eq!(many.await, mixed.map(|i| 10 + i as u64));

                // Dropped while waiting, and dropped after the answer (the
                // awaited single read rides the same wave).
                let mut waiting = ph.get_many(&a, [far(3), far(3), far(3)]);
                assert!(poll_once(&mut waiting).await.is_pending());
                assert_eq!(in_use(), 1);
                drop(waiting);
                let mut answered = ph.get_many(&a, [far(3), far(3)]);
                assert!(poll_once(&mut answered).await.is_pending());
                assert_eq!(ph.get(&a, far(3)).await, 10 + far(3) as u64);
                drop(answered);
                assert_eq!(in_use(), 0, "the late fills freed the cancelled slots");
            })
            .await;
        });
    });
    let c = report.total_counters();
    // Per node: N + 3 + 3 + 2 + 1 misses; N − 1 + 1 + 2 + 1 combined at the
    // source plus 2 (three requests for far(3) in one wave) in the builder.
    assert_eq!(c.remote_gets, 2 * (N as u64 + 9));
    assert_eq!(c.cache_misses, c.remote_gets);
    assert_eq!(c.dedup_reads, 2 * (N as u64 + 5));
    assert_eq!(c.cache_hits, 2 * 3);
}

/// One VP on one node running `body` in a global phase over an 8-element
/// array.
fn one_vp_phase<Fut: Future<Output = ()> + Send + 'static>(
    body: impl Fn(Phase, Vp, GlobalShared<u64>) -> Fut + Send + Sync + 'static,
) {
    let body = Arc::new(body);
    crate::run(PpmConfig::new(MachineConfig::new(1, 1)), move |node| {
        let a = node.alloc_global::<u64>(8);
        let body = body.clone();
        node.ppm_do(1, move |vp| {
            let (v, body) = (vp.clone(), body.clone());
            async move { vp.global_phase(|ph| body(ph, v, a)).await }
        });
    });
}

/// A bulk read's index iterator runs inside the poll context (there is no
/// staging `Vec` any more), so one that reads a shared variable re-enters
/// it: reported by the rule's name, not as a `BorrowMutError`.
#[test]
#[should_panic(expected = "must not touch shared variables or charge work")]
fn bulk_read_indices_must_not_touch_shared_variables() {
    one_vp_phase(|ph, _, a| async move {
        ph.get_many(&a, (0..4).inspect(|&i| ph.put(&a, i, 1))).await;
    });
}

/// The same rule for the items of a bulk write, here broken by charging work.
#[test]
#[should_panic(expected = "must not touch shared variables or charge work")]
fn bulk_write_items_must_not_charge_work() {
    one_vp_phase(|ph, v, a| async move {
        ph.put_many(
            &a,
            (0..4).map(|i| (i, i as u64)).inspect(|_| v.charge_flops(1)),
        );
    });
}

/// A bulk read that is never polled charges nothing and never advances its
/// iterator; the first poll runs it to the end.
#[test]
fn unpolled_bulk_read_is_free_and_leaves_its_iterator_alone() {
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    static ADVANCED: AtomicUsize = AtomicUsize::new(0);
    one_vp_phase(|ph, v, a| async move {
        let charged = || {
            v.cell
                .with_poll(|s, _| (s.compute, s.counters.local_accesses))
        };
        let before = charged();
        let idxs = || {
            (0..8).inspect(|_| {
                ADVANCED.fetch_add(1, Relaxed);
            })
        };
        drop(ph.get_many(&a, idxs()));
        assert_eq!((charged(), ADVANCED.load(Relaxed)), (before, 0));
        assert_eq!(ph.get_many(&a, idxs()).await, vec![0; 8]);
        assert_eq!((charged().1 - before.1, ADVANCED.load(Relaxed)), (8, 8));
    });
}
