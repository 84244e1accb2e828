//! Unit tests of the wave builder and the response arena's lifetime
//! (`exec::tests`; kept in their own file so `exec.rs` stays readable).

use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::task::Poll;

use ppm_simnet::{FaultConfig, MachineConfig};

use super::*;
use crate::config::PpmConfig;
use crate::testkit::Gen;

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
                let inner = vp.inner.borrow();
                inner.garrays.iter().all(|g| g.arena_is_empty())
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
