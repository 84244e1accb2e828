//! Unit tests of the wave builder, the response arena's lifetime and the
//! clock barrier's riders stepped together (`exec::tests`; kept in their own
//! file so `mod.rs` stays readable).

use std::collections::BTreeMap;
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::sync::Mutex;
use std::task::Poll;

use ppm_simnet::coll::{dissemination, route_offset};
use ppm_simnet::{FaultConfig, MachineConfig};

use super::barrier::{BarrierMsg, BarrierParts};
use super::wave::build_dest;
use super::*;
use crate::bitset::NodeSet;
use crate::check::{PhaseViolation, Space};
use crate::config::PpmConfig;
use crate::dissem::{LoadBlock, Notices};
use crate::dist::Dist;
use crate::elem::AccumOp;
use crate::failover::{FailoverPart, ReplicaFrame};
use crate::msgs::ReqEntry;
use crate::state::{array_ref, GArray, GArrayObj, Inner, QueuedReq, VpState, WKind};
use crate::testkit::{forall, Gen, PropResult};
use crate::{prop_assert, prop_assert_eq, GlobalShared, Phase};

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
/// order of VP polls builds the identical bundle and wake lists.
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
/// arena. With the cache off the arenas hold values only inside the phase
/// that fetched them — empty again after every global phase end, a
/// crash-recovery one included. With it on, an arena holds exactly the
/// cached lines: an array that took writes keeps none, one that did not
/// keeps its lines until the next construct entry.
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
                let empty =
                    |inner: &mut Inner| inner.garrays.iter().all(|g| g.arena_lines().0 == 0);
                vp.cell.with_poll(|_, inner| empty(inner))
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

    let cfg = PpmConfig::new(MachineConfig::new(2, 2)).with_read_cache(true);
    crate::run(cfg, move |node| {
        let a = node.alloc_global::<f64>(n);
        let b = node.alloc_global::<u64>(n);
        let lo = node.local_range(&a).start;
        // `(arena values, cached lines)` of `a` and of `b`.
        let arenas = |vp: &Vp| {
            let lines = |inner: &mut Inner| [0, 1].map(|id| inner.garrays[id].arena_lines());
            vp.cell.with_poll(|_, inner| lines(inner))
        };
        node.ppm_do(2, move |vp| async move {
            let far = (lo + n / 2 + vp.node_rank()) % n;
            // An element no other node reads: no refresh follows the write.
            let mine = lo + 2 + vp.node_rank();
            vp.global_phase(|ph| async move {
                ph.get(&a, far).await;
                ph.get(&b, far).await;
                ph.put(&b, mine, 1);
            })
            .await;
            let [a_lines, b_lines] = arenas(&vp);
            assert_eq!(b_lines, (0, 0), "b took writes: its cache and arena go");
            assert_eq!(a_lines, (2, 2), "a's arena holds exactly its cached lines");
        });
        node.ppm_do(1, move |vp| async move {
            assert_eq!(arenas(&vp), [(0, 0); 2], "construct entry empties both");
        });
    });
}

/// A VP that panics mid-poll still hands its state and the node's back and
/// leaves the thread's poll context clear: what it charged before the panic
/// is in the node's counters, the panicked future is dropped, and the same
/// thread polls the next VP normally.
#[test]
fn panicking_poll_returns_the_scratch_and_clears_the_context() {
    let cfg = PpmConfig::new(MachineConfig::new(1, 2));
    let inner = Box::new(Inner::new(cfg));
    let task = |r: usize| {
        let cell = Arc::new(VpCell::new(r, r as u64, 0, cfg, DoMode::Collective, 2, 2));
        let vp = Vp { cell };
        let task = async move {
            vp.charge_flops(7);
            assert_ne!(vp.node_rank(), 0, "boom");
        };
        Some(Box::pin(task) as VpTask)
    };
    let (mut t, mut state) = (task(0), VpState::default());
    let (out, inner) = poll_vp(0, &mut t, &mut state, inner);
    assert!(matches!(out, PollOut::Panicked(_)) && t.is_none());
    assert_eq!(inner.counters.flops, 7, "the node's state handed back");
    let (mut t, mut state) = (task(1), VpState::default());
    let (out, inner) = poll_vp(1, &mut t, &mut state, inner);
    assert!(matches!(out, PollOut::Done) && t.is_none());
    assert_eq!(inner.counters.flops, 14);
}

/// Every local get, put and accumulate is one local access: 10 000 of each
/// per VP, four VPs.
#[test]
fn local_accesses_count_one_per_get_put_and_accumulate() {
    const ACCESSES: usize = 10_000;
    let cfg = PpmConfig::new(MachineConfig::new(1, 2));
    let report = crate::run(cfg, |node| {
        let a = node.alloc_global::<u64>(64);
        let b = node.alloc_global::<u64>(64);
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
    });
    assert_eq!(
        report.total_counters().local_accesses,
        4 * 3 * ACCESSES as u64
    );
}

/// Combine at the source: a bulk read asks for each distinct remote element
/// once. N copies of one remote index park on one slot and queue one
/// request, yet every copy is a charged access (`remote_gets`,
/// `cache_misses`) and the N − 1 requests not made count as `dedup_reads`. A
/// repeat of an index that *hit* the read cache is one more hit and never
/// reaches the table. Dropping a parked bulk read with repeats — before or
/// after its response — leaves the slot table all free. The table is per
/// read, not per node thread: a second VP polled on the same thread right
/// after the first, reading the same remote element, asks for it too.
#[test]
fn bulk_read_asks_for_each_distinct_remote_element_once() {
    const N: usize = 40;
    let cfg = PpmConfig::new(MachineConfig::new(2, 1)).with_read_cache(true);
    let report = crate::run(cfg, |node| {
        let a = node.alloc_global::<u64>(8);
        let lo = node.local_range(&a).start;
        node.with_local_mut(&a, |s| {
            for (off, v) in s.iter_mut().enumerate() {
                *v = 10 + (lo + off) as u64;
            }
        });
        node.ppm_do(2, move |vp| async move {
            // Elements of the other node's block.
            let far = |j: usize| (lo + 4 + j) % 8;
            let probe = vp.clone();
            let rank = vp.node_rank();
            vp.global_phase(|ph| async move {
                // Reads outstanding, requests of this VP queued, and the
                // node's remote gets, combined reads and cache hits: what
                // `f` (one first poll of a bulk read) adds to them.
                let tally = || {
                    probe.cell.with_poll(|_, inner| {
                        let mine = inner.reqs.iter().flatten().filter(|r| r.vp == rank as u32);
                        let c = &inner.counters;
                        let outstanding = inner.outstanding_reads as u64;
                        [
                            outstanding,
                            mine.count() as u64,
                            c.remote_gets,
                            c.dedup_reads,
                            c.cache_hits,
                        ]
                    })
                };
                let added = |before: [u64; 5]| {
                    let now = tally();
                    std::array::from_fn::<u64, 5, _>(|i| now[i] - before[i])
                };
                let in_use = || probe.cell.with_poll(|s, _| s.slots.in_use());

                if rank == 1 {
                    // Polled right after VP 0 issued its read of far(0).
                    let mut many = ph.get_many(&a, [far(0), far(0)]);
                    let before = tally();
                    assert!(poll_once(&mut many).await.is_pending());
                    assert_eq!(added(before), [1, 1, 2, 1, 0]);
                    assert_eq!(many.await, vec![10 + far(0) as u64; 2]);
                    return;
                }
                let mut many = ph.get_many(&a, std::iter::repeat_n(far(0), N));
                let before = tally();
                assert!(poll_once(&mut many).await.is_pending());
                assert_eq!(added(before), [1, 1, N as u64, N as u64 - 1, 0]);
                assert_eq!(in_use(), 1);
                assert_eq!(many.await, vec![10 + far(0) as u64; N]);
                assert_eq!(in_use(), 0);

                // far(0) is cached now: its repeats are hits, and share
                // nothing with the two distinct misses around them.
                let mixed = [far(1), far(0), far(2), far(0), far(1), far(0)];
                let mut many = ph.get_many(&a, mixed);
                let before = tally();
                assert!(poll_once(&mut many).await.is_pending());
                assert_eq!(added(before), [2, 2, 3, 1, 3]);
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
    // Per node: N + 2 + 3 + 3 + 2 + 1 misses; N − 1 + 1 + 1 + 2 + 1 combined
    // at the source plus, in the builder, 1 (both VPs' far(0)) and 2 (three
    // requests for far(3) in one wave).
    assert_eq!(c.remote_gets, 2 * (N as u64 + 11));
    assert_eq!(c.cache_misses, c.remote_gets);
    assert_eq!(c.dedup_reads, 2 * (N as u64 + 7));
    assert_eq!(c.cache_hits, 2 * 3);
}

/// One bulk read of 25 indices — hot locals, read-cache hits, first
/// occurrences, their repeats (runs of three, singles, a run broken by a
/// local and by a descending index, two repeats of one index) and a run of
/// locals — over `T`'s array, two VPs per node on two nodes. Under a tile
/// `budget` (four elements per tile, all eight local tiles cold at the
/// start) the run of locals is in a spilled tile; without one the
/// partition is in core. Checks the output against a per-index `get`, what
/// the parked future holds, and that dropping a parked read frees its
/// slots; returns the job's access counters. Each VP writes a local and a
/// cached element first and reads both back, across their neighbours, so
/// with the `checker` on the reads are cut at the written elements: each
/// node reports exactly its two VPs' two read-own-write hazards.
fn bulk_read_of<T: crate::Elem + PartialEq>(
    checker: bool,
    budget: bool,
    mk: fn(usize) -> T,
) -> [u64; 6] {
    let cfg = PpmConfig::new(MachineConfig::new(2, 1))
        .with_checker(checker)
        .with_read_cache(true)
        .with_tile_budget(if budget {
            32 * std::mem::size_of::<T>() as u64
        } else {
            0
        });
    let wide = std::mem::size_of::<T>() > 8;
    let report = crate::run(cfg, move |node| {
        let a = node.alloc_global::<T>(64);
        let lo = node.local_range(&a).start;
        node.with_local_mut(&a, |s| {
            for (off, v) in s.iter_mut().enumerate() {
                *v = mk(lo + off);
            }
        });
        node.ppm_do(2, move |vp| async move {
            let near = move |j: usize| lo + j;
            let far = move |j: usize| (lo + 32 + j) % 64;
            let probe = vp.clone();
            let rank = probe.node_rank();
            vp.global_phase(|ph| async move {
                ph.put_many(&a, [(near(30 + rank), mk(0)), (far(2 + rank), mk(0))]);
                // Refill tile 0 and cache far(0..4).
                let warm = [0, 1, 2, 3].map(near).into_iter().chain((0..4).map(far));
                ph.get_many(&a, warm).await;

                let main = [
                    &[near(0), near(1)][..],             // hot locals
                    &[far(0), far(1), far(0)],           // cache hits
                    &[far(8), far(9), far(10)],          // first occurrences
                    &[far(8), far(9), far(10)],          // a run of repeats
                    &[near(8), near(9), near(10)],       // deferred if tile 2 is cold
                    &[far(9), near(0), far(10), far(8)], // three single repeats
                    &[far(8), far(9), far(10)],          // the run again
                    &[far(12), far(12), far(12)],        // a first and two repeats
                    &[near(1)],                          // after the last run
                ]
                .concat();
                let mut many = ph.get_many(&a, main.clone());
                assert!(poll_once(&mut many).await.is_pending());
                // Narrow: every position, 11 remote repeats. Wide: the 11 in
                // 7 runs, no first occurrence of a remote element, no cache
                // hit (2 spans into the arena: the two hits, then the
                // repeat) and no local of an in-core partition (4 more
                // spans) — only, under a budget, the tiled locals — with no
                // reservation for the rest.
                let (held, capacity, spans, repeats, _) = many.held();
                let expect = match (wide, budget) {
                    (false, _) => (25, 0, 11),
                    (true, true) => (7, 2, 7),
                    (true, false) => (0, 6, 7),
                };
                assert_eq!((held, spans, repeats), expect);
                assert!(if wide {
                    capacity < main.len()
                } else {
                    capacity == held
                });
                let out = many.await;
                assert!(out == main.iter().map(|&i| mk(i)).collect::<Vec<_>>());
                for (&idx, v) in main.iter().zip(&out) {
                    assert!(ph.get(&a, idx).await == *v, "index {idx}");
                }

                let in_use = || probe.cell.with_poll(|s, _| s.slots.in_use());
                let mut dropped = ph.get_many(&a, [14, 14, 15, 14, 15].map(far));
                assert!(poll_once(&mut dropped).await.is_pending());
                // Three runs of repeats: far(14), far(14), far(15) — the
                // first occurrences are not adjacent in the output.
                let (held, _, _, repeats, _) = dropped.held();
                assert_eq!((held, repeats), if wide { (0, 3) } else { (5, 3) });
                assert_eq!(in_use(), 2);
                drop(dropped);
                assert!(ph.get(&a, far(16)).await == mk(far(16)));
                assert_eq!(in_use(), 0, "the late fills freed the cancelled slots");

                // Across the written elements' edges, each twice.
                let back = [29, 30, 31, 30].map(near).into_iter();
                let back: Vec<usize> = back.chain([1, 2, 3, 2].map(far)).collect();
                let got = ph.get_many(&a, back.clone()).await;
                assert!(got == back.iter().map(|&i| mk(i)).collect::<Vec<_>>());
            })
            .await;
        });
        let rows = |r: usize| {
            let hazard = |index: usize| PhaseViolation::ReadOwnWrite {
                space: Space::Global,
                array: a.id,
                index: index as u64,
                vp: (2 * node.node_id() + r) as u64,
                phase: PhaseKind::Global,
            };
            [hazard(lo + 30 + r), hazard((lo + 34 + r) % 64)]
        };
        let mut want: Vec<_> = rows(0).into_iter().chain(rows(1)).collect();
        want.sort_by_key(|v| match v {
            PhaseViolation::ReadOwnWrite { index, .. } => *index,
            _ => unreachable!(),
        });
        assert_eq!(node.take_violations(), if checker { want } else { vec![] });
    });
    let c = report.total_counters();
    assert!(c.dedup_reads > 0 && c.cache_hits > 0 && (c.tile_refills > 0) == budget);
    [
        c.remote_gets,
        c.dedup_reads,
        c.local_accesses,
        c.cache_hits,
        c.cache_misses,
        c.tile_refills,
    ]
}

/// A parked bulk read of elements wider than an 8-byte record holds no
/// output position for a repeat, a first occurrence or a read-cache hit,
/// and none for a local of an in-core partition: in core it holds no value
/// at all. Every observable — output, counters, slots — is the `f64`
/// path's, in core and under a tile budget, with the checker on and off,
/// and a rerun of the wide read gives the same counters.
#[test]
fn a_parked_bulk_read_of_wide_elements_holds_tiled_locals_only() {
    let wide = |checker, budget| {
        bulk_read_of(checker, budget, |i| {
            let x = i as f64;
            [x, 1.0, 2.0, 3.0, 4.0, x * 2.0]
        })
    };
    for budget in [true, false] {
        let off = bulk_read_of(false, budget, |i| i as f64 + 0.5);
        for checker in [false, true] {
            let narrow = bulk_read_of(checker, budget, |i| i as f64 + 0.5);
            let case = format!("checker {checker}, budget {budget}");
            assert_eq!(narrow, off, "{case}");
            assert_eq!(narrow, wide(checker, budget), "{case}");
            assert_eq!(
                wide(checker, budget),
                wide(checker, budget),
                "rerun, {case}"
            );
        }
    }
}

/// A wide bulk read's span record tags an arena position in its offset
/// instead of carrying its source beside it, so a parked read's spans cost
/// what they cost when they named locals only.
#[test]
fn a_span_record_is_16_bytes() {
    assert_eq!(std::mem::size_of::<crate::vp::SpanRecord>(), 16);
}

/// What [`span_read_of`] sees on one node: the read's output; its access
/// counters (`local_accesses`, `cache_hits`, `cache_misses`, `remote_gets`,
/// `dedup_reads`, `tile_refills`, `tile_spills`); `GetManyFut::held` after
/// its first poll, deferred runs included; and the node's
/// `(tile_spill | tile_refill, array, tile)` trace events, in order.
type SpanRead<T> = (Vec<T>, [u64; 7], HeldRecords, TileEvents);
type HeldRecords = (usize, usize, usize, usize, Vec<(u32, usize, u32)>);
type TileEvents = Vec<(&'static str, u64, u64)>;

/// One VP per node on two nodes, under a tile budget (tiles of four
/// elements, eight of them fit), refills tiles 0 and 3 of its partition and
/// caches two remote elements, then bulk-reads indices that cross a
/// resident tile, spilled tiles — a run, strays, a run from a spilled tile
/// into a resident one and one back, a spilled run read again, and a run
/// over eight spilled tiles, which spills tiles of its own — and remote
/// misses, cache hits and repeats. Returns what each node saw, and its
/// reports. The VP writes four of the elements it reads first — two locals
/// inside spilled runs, a miss and a cache hit — so with the `checker` on
/// the read is cut at each.
fn span_read_of<T: crate::Elem + PartialEq>(
    checker: bool,
    mk: fn(usize) -> T,
) -> (Vec<SpanRead<T>>, Vec<Vec<PhaseViolation>>) {
    let cfg = PpmConfig::new(MachineConfig::new(2, 1))
        .with_checker(checker)
        .with_read_cache(true)
        .with_tile_budget(32 * std::mem::size_of::<T>() as u64);
    let sink = crate::TraceSink::new();
    let report = crate::run_traced(cfg, &sink, "span", move |node| {
        let a = node.alloc_global::<T>(128);
        let lo = node.local_range(&a).start;
        node.with_local_mut(&a, |s| {
            for (off, v) in s.iter_mut().enumerate() {
                *v = mk(lo + off);
            }
        });
        let seen = Arc::new(Mutex::new(None));
        let out = seen.clone();
        node.ppm_do(1, move |vp| {
            let out = out.clone();
            async move {
                let near = move |j: usize| lo + j;
                let far = move |j: usize| (lo + 64 + j) % 128;
                let probe = vp.clone();
                vp.global_phase(|ph| async move {
                    let wrote = [near(5), near(40), far(1), far(9)];
                    ph.put_many(&a, wrote.map(|i| (i, mk(0))));
                    let warm = [0, 1, 2, 3, 12, 13, 14, 15].map(near);
                    ph.get_many(&a, warm.into_iter().chain([far(0), far(1)]))
                        .await;

                    let main = [
                        &[near(0), near(1), near(2)][..],          // a resident tile
                        &[near(4), near(5), near(6)],              // a spilled run
                        &[near(10), near(11), near(12), near(13)], // spilled into resident
                        &[near(14), near(15), near(16), near(17)], // resident into spilled
                        &[near(21), near(23), near(20)],           // strays
                        &[far(8), far(9), far(8), far(20)],        // misses and a repeat
                        &[far(0), far(1), far(0)],                 // cache hits
                        &[near(5), near(6)],                       // the spilled run again
                    ]
                    .concat();
                    let main: Vec<usize> = main.into_iter().chain((24..56).map(near)).collect();
                    let counters = || {
                        let c = probe.cell.with_poll(|_, inner| inner.counters);
                        [
                            c.local_accesses,
                            c.cache_hits,
                            c.cache_misses,
                            c.remote_gets,
                            c.dedup_reads,
                            c.tile_refills,
                            c.tile_spills,
                        ]
                    };
                    let before = counters();
                    let mut many = ph.get_many(&a, main.clone());
                    assert!(poll_once(&mut many).await.is_pending());
                    let (held, capacity, spans, repeats, deferred) = many.held();
                    let held = (held, capacity, spans, repeats, deferred.to_vec());
                    let got = many.await;
                    assert!(got == main.iter().map(|&i| mk(i)).collect::<Vec<_>>());
                    let after = counters();
                    let counters = std::array::from_fn(|i| after[i] - before[i]);
                    *out.lock().unwrap() = Some((got, counters, held));
                })
                .await;
            }
        });
        let seen = seen.lock().unwrap().take();
        (seen.expect("the VP reported"), node.take_violations())
    });
    let mut mem: Vec<TileEvents> = vec![Vec::new(); 2];
    for e in sink.events().iter().filter(|e| e.cat == "mem") {
        let at = |arg| e.arg_u64(arg).expect("a tile event names its tile");
        mem[e.tid as usize].push((e.name, at("array"), at("tile")));
    }
    let (seen, rows): (Vec<_>, _) = report.results.into_iter().unzip();
    let seen = seen.into_iter().zip(mem);
    let seen = seen.map(|((got, counters, held), mem)| (got, counters, held, mem));
    (seen.collect(), rows)
}

/// A bulk read takes a spilled tile as a span — its fault noted once, its
/// indices deferred on a range test — and the checker only watches: cut
/// at the elements the VP wrote, the read gives what it gives with the
/// checker off — output, counters, deferred runs and every other record
/// held, and the spill and refill sequence — narrow and wide, and each
/// node reports exactly its four read-own-write hazards.
#[test]
fn a_spilled_tile_read_as_a_span_is_the_same_with_the_checker_on_and_off() {
    fn check<T: crate::Elem + PartialEq + std::fmt::Debug>(mk: fn(usize) -> T) {
        let ((off, quiet), (on, rows)) = (span_read_of(false, mk), span_read_of(true, mk));
        assert_eq!(off, on);
        assert_eq!(quiet, [vec![], vec![]]);
        // The written elements, ascending: near(5), near(40), far(1), far(9).
        let written = [[5, 40, 65, 73], [1, 9, 69, 104]];
        for (node, (rows, written)) in rows.iter().zip(written).enumerate() {
            let hazard = |index| PhaseViolation::ReadOwnWrite {
                space: Space::Global,
                array: 0,
                index,
                vp: node as u64,
                phase: PhaseKind::Global,
            };
            assert_eq!(*rows, written.map(hazard));
        }
        for (_, counters, (.., deferred), mem) in &off {
            // The warm read refills tiles 0 and 3; the read twelve more, of
            // which the last six spill others.
            assert_eq!(counters[5..], [12, 6]);
            assert_eq!(mem.iter().filter(|e| e.0 == "tile_refill").count(), 14);
            // A run of one tile, a run on each side of tile 3, three
            // strays, the run again and eight tiles' runs.
            assert_eq!(deferred.len(), 15, "{deferred:?}");
        }
    }
    check(|i| i as f64 + 0.5);
    check(|i| {
        let x = i as f64;
        [x, 1.0, 2.0, 3.0, 4.0, x * 2.0]
    });
}

/// `F`, counting its polls.
struct Counted<F>(F, usize);

impl<F: Future + Unpin> Future for Counted<F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        self.1 += 1;
        Pin::new(&mut self.0).poll(cx)
    }
}

/// A fault round refills one tile and polls the VPs parked on it, no other:
/// VP 0 reads tiles 0 and 1, VP 1 tile 1, VP 2 tile 2, all spilled. VP 0 is
/// woken by each of its two refills, VP 1 only by tile 1's and VP 2 only
/// by tile 2's — waking every parked VP per round would poll them 3, 3 and
/// 4 times.
#[test]
fn a_refill_wakes_only_the_vps_parked_on_its_tile() {
    let cfg = PpmConfig::new(MachineConfig::new(1, 1)).with_tile_budget(256);
    let report = crate::run(cfg, |node| {
        let a = node.alloc_global::<u64>(64);
        let polls = Arc::new(Mutex::new(vec![0; 3]));
        let counts = polls.clone();
        node.ppm_do(3, move |vp| {
            let counts = counts.clone();
            async move {
                let rank = vp.node_rank();
                vp.global_phase(|ph| async move {
                    let idxs = [&[0, 1, 4, 5][..], &[6], &[8]][rank];
                    let mut read = Counted(ph.get_many(&a, idxs.iter().copied()), 0);
                    assert_eq!((&mut read).await, vec![0; idxs.len()]);
                    counts.lock().unwrap()[rank] = read.1;
                })
                .await;
            }
        });
        let polls = polls.lock().unwrap().clone();
        polls
    });
    assert_eq!(report.results, [vec![3, 2, 2]]);
    assert_eq!(report.total_counters().tile_refills, 3);
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
                .with_poll(|_, inner| (inner.core_compute_max(), inner.counters.local_accesses))
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

/// A VP's calls land in its node's write log as it makes them, so a call
/// made after a park may continue that VP's call still open in the log — and
/// must not continue another VP's that came in between. VP 0 accumulates a
/// run in two halves around a remote read; VP 1, polled while VP 0 is
/// parked, may accumulate onto elements of the second half (continuing VP
/// 0's first half, index for index). Parcels — the phase's bytes and cost —
/// counters and the folded bits equal the same program's with the read
/// after both halves, where nothing comes in between; and the fold is by
/// rank: `(1e16 + -1e16) + 1`, never `(1e16 + 1) + -1e16`.
#[test]
fn a_call_after_a_park_continues_only_its_own_vps_call() {
    let job = |park: bool, vp1_writes: bool| {
        let cfg = PpmConfig::new(MachineConfig::new(2, 2));
        let sink = ppm_simnet::TraceSink::new();
        let report = crate::run_traced(cfg, &sink, "park", move |node| {
            let a = node.alloc_global::<f64>(32);
            let b = node.alloc_global::<u64>(32);
            // Each node writes the other's half of `a` and reads `b` there.
            let far = (node.local_range(&a).start + 16) % 32;
            node.ppm_do(2, move |vp| async move {
                let rank = vp.node_rank();
                vp.global_phase(|ph| async move {
                    let run = move |r: std::ops::Range<usize>, v| r.map(move |i| (far + i, v));
                    let add = |items| ph.accumulate_many(&a, AccumOp::Add, items);
                    if rank == 1 {
                        if vp1_writes {
                            add(run(8..12, 1.0).collect::<Vec<_>>());
                        }
                        return;
                    }
                    add(run(8..12, 1e16).collect());
                    add(run(0..8, 1.0).collect());
                    if park {
                        ph.get(&b, far).await;
                    }
                    add(run(8..12, -1e16).chain(run(12..16, 1.0)).collect());
                    if !park {
                        ph.get(&b, far).await;
                    }
                })
                .await;
            });
            let bits: Vec<u64> = (node.gather_global(&a).iter())
                .map(|v| v.to_bits())
                .collect();
            bits
        });
        // Each node's phase summary: its time split, waves, bytes, counters.
        let mut events = sink.events();
        events.retain(|e| e.name == "global_phase");
        (report, events)
    };
    for vp1_writes in [true, false] {
        let ((parked, parked_phases), (straight, straight_phases)) =
            (job(true, vp1_writes), job(false, vp1_writes));
        let mid = if vp1_writes { 1.0 } else { 0.0 };
        let half = (0..16).map(|i| if (8..12).contains(&i) { mid } else { 1.0 });
        let want: Vec<u64> = half.clone().chain(half).map(f64::to_bits).collect();
        for report in [&parked, &straight] {
            assert!(
                report.results.iter().all(|bits| *bits == want),
                "{vp1_writes}"
            );
        }
        assert_eq!(parked.results, straight.results, "{vp1_writes}");
        let diff = ppm_simnet::trace_diff(&parked_phases, &straight_phases);
        assert_eq!(diff, None, "{vp1_writes}");
        assert_eq!(parked.makespan(), straight.makespan(), "{vp1_writes}");
        assert_eq!(parked.counters, straight.counters, "{vp1_writes}");
    }
}

/// One clock barrier with everything that rides it, for all `nodes` nodes in
/// lockstep and no thread: what each node brings is drawn from `seed` and put
/// there the way a phase end puts it — reads served twice arm elements,
/// writes buffered by a polled VP set the invalidation bits and, applied,
/// queue the refresh runs (`select_refresh`) — then all four riders walk one
/// `dissemination(me, nodes)` together, `Notices` beside the three
/// `BarrierParts`.
fn riders_in_lockstep(&(nodes, seed): &(usize, u64)) -> PropResult {
    /// Elements each node owns of each array.
    const PER: usize = 4;
    if nodes == 0 {
        return Ok(());
    }
    let mut g = Gen::new(seed);
    let arrays = g.u32_in(1..4);
    let len = nodes * PER;
    let cfg = PpmConfig::franklin(nodes as u32).with_replication(true);
    let bounds = Arc::new(
        (0..nodes)
            .map(|o| o * PER)
            .chain([len + 1])
            .collect::<Vec<_>>(),
    );
    let other = |g: &mut Gen, me: usize| (me + g.usize_in(1..nodes)) % nodes;
    let sparse =
        |g: &mut Gen| -> NodeSet { (0..nodes).filter(|_| g.usize_in(0..nodes) == 0).collect() };
    let frame = |me: usize| ReplicaFrame {
        phase: 1,
        bytes: 1000 + me as u64,
        base: me.is_multiple_of(2),
    };

    let mut inners: Vec<Inner> = Vec::new();
    let mut parts: Vec<BarrierParts> = Vec::new();
    let mut notices: Vec<Notices> = Vec::new();
    let (mut loads, mut suspected) = (Vec::new(), NodeSet::new());
    let mut expected_senders = vec![NodeSet::new(); nodes];
    // Arrays written anywhere; who must end up caching `(array, element)`.
    let mut written_arrays = NodeSet::new();
    let mut targets: BTreeMap<(u32, u64), NodeSet> = BTreeMap::new();
    for me in 0..nodes {
        let mut inner = Box::new(Inner::new(cfg));
        for _ in 0..arrays {
            // Node `o` owns `[o * PER, (o + 1) * PER)`; the one element past
            // them is where every cache holds a stale line, which the
            // invalidation sweep must clear.
            let mut ga = GArray::<u64>::new(Dist::weighted(len + 1, nodes, bounds.clone()), me);
            ga.refresh_absorb(&[len as u64], &vec![7u64]);
            inner.garrays.push(Box::new(ga));
        }
        // Serves: an element arms on its second serve — the same readers
        // again a phase later, or two readers at once.
        let owned = me * PER..(me + 1) * PER;
        let mut readers: BTreeMap<(u32, u64), (NodeSet, bool)> = BTreeMap::new();
        for (array, idx) in (0..arrays).flat_map(|a| owned.clone().map(move |i| (a, i as u64))) {
            let some = if nodes > 1 { g.usize_in(0..3) } else { 0 };
            let set: NodeSet = (0..some).map(|_| other(&mut g, me)).collect();
            let armed = set.count() > 1 || (set.any() && g.bool());
            readers.insert((array, idx), (set, armed));
        }
        for phase in 0..2 {
            for (&(array, idx), (set, armed)) in &readers {
                let entry = ReqEntry {
                    array,
                    idx,
                    slot: 0,
                };
                for reader in set.iter().filter(|_| phase == 0 || *armed) {
                    inner.coherence.note_serves(reader, &[entry]);
                }
            }
            inner.coherence.fold_serves(phase);
        }
        // Writes to own elements, through a VP's poll, drain and apply.
        let cell = VpCell::new(0, me as u64, me, cfg, DoMode::Collective, 1, nodes as u64);
        let mut wrote: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for array in 0..arrays {
            let idxs: Vec<usize> = owned.clone().filter(|_| g.bool()).collect();
            if !idxs.is_empty() {
                wrote.insert(array, idxs);
            }
        }
        let poll = PollGuard::enter(0, VpState::default(), inner);
        cell.with_poll(|s, _| s.cur_phase = Some(PhaseKind::Global));
        for (&array, idxs) in &wrote {
            let items = idxs.iter().map(|&i| (i, i as u64 + 1000));
            cell.write_many(Space::Global, array, WKind::Assign, items, None);
        }
        inner = poll.exit().1;
        let coherence = (inner.coherence).barrier_part(me, nodes, &inner.garrays);
        for (&array, idxs) in &wrote {
            written_arrays.insert(array as usize);
            let ga = &mut inner.garrays[array as usize];
            let own = ga.drain_writes(None).pop().expect("own writes, one parcel");
            let (_, written) = ga.apply_writes(vec![(me as u32, own.payload)], &mut |_| {}, true);
            let listed: Vec<u64> = written.iter().cloned().flatten().collect();
            prop_assert_eq!(listed, idxs.iter().map(|&i| i as u64).collect::<Vec<_>>());
            let ga = &*inner.garrays[array as usize];
            (inner.coherence).select_refresh((me, nodes), array, &written, ga);
        }
        // A written, armed element is pushed to its readers at most two hops
        // away.
        for ((array, idx), (set, armed)) in readers {
            let near = |&t: &usize| route_offset(me, t, nodes).count_ones() <= 2;
            let near: NodeSet = set.iter().filter(near).collect();
            let written = wrote
                .get(&array)
                .is_some_and(|w| w.contains(&(idx as usize)));
            if armed && written && near.any() {
                targets.insert((array, idx), near);
            }
        }

        let dests: Vec<usize> = (0..nodes)
            .filter(|&d| d != me && g.usize_in(0..nodes) < 3)
            .collect();
        dests.iter().for_each(|&d| expected_senders[d].insert(me));
        notices.push(Notices::new(me, nodes, dests.into_iter()));
        loads.push(g.u64());
        let suspects = sparse(&mut g);
        suspected.union_with(&suspects);
        let failover = FailoverPart::new(&mut inner, (me, nodes), suspects, Some(frame(me)), 0);
        parts.push(BarrierParts {
            coherence,
            loads: LoadBlock::new(me, nodes, loads[me]),
            failover,
        });
        inners.push(*inner);
    }

    // hops[(array, element, target)]: messages that carried the entry on
    // behalf of that target.
    let mut hops: BTreeMap<(u32, u64, usize), u32> = BTreeMap::new();
    for round in 0..dissemination(0, nodes).count() {
        let edge = |me: usize| dissemination(me, nodes).nth(round).unwrap();
        // What each node put on its edge: the barrier message, its wire
        // bytes, the notice token.
        type Sent = (BarrierMsg, u64, Vec<(u32, u32)>);
        let mut sent: Vec<Option<Sent>> = Vec::new();
        for me in 0..nodes {
            let before = inners[me].traffic.refresh_bytes_out;
            let (bm, wire_bytes) = parts[me].take_for(edge(me), &mut inners[me]);
            let refresh_bytes = inners[me].traffic.refresh_bytes_out - before;
            prop_assert_eq!(wire_bytes, refresh_bytes);
            sent.push(Some((bm, wire_bytes, notices[me].take_for(edge(me)))));
        }
        for me in 0..nodes {
            let from = edge(me).from;
            let (bm, wire_bytes, token) = sent[from].take().expect("one receiver per edge");
            // Round 0's edge ends at the cyclic successor: the buddy.
            prop_assert_eq!(bm.failover.replica(), (round == 0).then(|| frame(from)));
            for (array, idx, set) in bm.coherence.entries() {
                set.iter()
                    .for_each(|t| *hops.entry((array, idx, t)).or_default() += 1);
            }
            let hosted = parts[me].absorb(bm, wire_bytes, &mut inners[me]);
            prop_assert_eq!(hosted, SimTime::ZERO);
            notices[me].absorb(token);
        }
    }

    let mut want_hops = BTreeMap::new();
    for (&(array, idx), set) in &targets {
        let owner = idx as usize / PER;
        for t in set.iter() {
            want_hops.insert((array, idx, t), route_offset(owner, t, nodes).count_ones());
        }
    }
    prop_assert!(
        hops == want_hops,
        "each refresh travels its route once, and no other"
    );
    let sum = |f: fn(&Inner) -> u64| inners.iter().map(f).sum::<u64>();
    let frames: u64 = (0..nodes).map(|me| frame(me).bytes).sum();
    prop_assert_eq!(
        sum(|i| i.counters.bytes_sent),
        sum(|i| i.counters.bytes_recv)
    );
    prop_assert_eq!(
        sum(|i| i.traffic.refresh_bytes_out),
        sum(|i| i.traffic.refresh_bytes_in)
    );
    prop_assert_eq!(
        sum(|i| i.traffic.replica_bytes_out),
        if nodes > 1 { frames } else { 0 }
    );
    prop_assert_eq!(
        sum(|i| i.traffic.replica_bytes_in),
        sum(|i| i.traffic.replica_bytes_out)
    );
    let refreshed = sum(|i| i.traffic.refresh_bytes_out) + sum(|i| i.traffic.replica_bytes_out);
    prop_assert_eq!(sum(|i| i.counters.bytes_sent), refreshed);

    let walked = parts.into_iter().zip(notices).zip(inners).enumerate();
    for (me, ((part, notices), mut inner)) in walked {
        prop_assert!(
            notices.into_expected() == expected_senders[me],
            "node {me}'s senders"
        );
        let by_rank: BTreeMap<usize, u64> = part.loads.by_rank().collect();
        prop_assert_eq!(by_rank.into_values().collect::<Vec<_>>(), loads);
        prop_assert!(
            *part.failover.suspects() == suspected,
            "node {me}'s suspicions"
        );
        part.coherence.finish(&mut inner);
        for array in 0..arrays {
            let ga = array_ref::<u64>(&inner.garrays, Space::Global, array);
            let swept = nodes > 1 && written_arrays.contains(array as usize);
            prop_assert_eq!(ga.cache_get(len as u64), (!swept).then_some(7));
        }
        // Nothing else travelled (`hops`), so nothing else can be cached.
        for (&(array, idx), set) in &targets {
            let ga = array_ref::<u64>(&inner.garrays, Space::Global, array);
            prop_assert_eq!(ga.cache_get(idx), set.contains(me).then_some(idx + 1000));
        }
    }
    Ok(())
}

/// The four barrier riders — sender notices, refresh pushes and invalidation
/// bits, the loads allgather, suspicion bits and replica frames — compose:
/// stepped together at random node counts up to 300, each refresh reaches
/// each target once over its source route, loads end complete in rank order,
/// suspicions flood to the union, only the round-0 successor gets the frame,
/// bytes sent are bytes received, and `Message::bytes` is refresh bytes alone.
#[test]
fn barrier_riders_compose_at_random_node_counts() {
    let case = |g: &mut Gen| (g.usize_in(1..301), g.u64());
    forall("barrier_riders_compose", 48, case, riders_in_lockstep);
}
