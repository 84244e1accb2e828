//! Literal rows of the conformance checker's reports for one planted
//! program, captured on the commit *before* the checker moved from a
//! node-level per-element map to the source (read-own-write hazards found by
//! the reading VP, write-write conflicts by the write log's drain). The
//! rewrite must reproduce every list — contents, order, renderings — with
//! the read cache on or off (one of the few places
//! the cache-off path is still exercised; `perf_gates.rs` lists them).
//!
//! The program plants, on 2 nodes × 3 VPs (global ranks 0–2 and 3–5):
//! three writers of one element where one first disagrees and then
//! converges (flagged on node 0, whose third writer still differs; clean on
//! node 1, where everyone converges), idempotent puts, two distinct NaN
//! payloads, hazards after a `put`, after an `accumulate`, on a read-cache
//! hit, on a parked remote read and on a node-shared element, a bulk read
//! naming an own-written index three times, one element hazarded by two
//! VPs, node-shared conflicts inside a global phase and inside a
//! `ppm_do_local` node phase, arrays with ids 64 and 65 in both spaces (the
//! ids past a one-word "arrays written" mask), a second dirty phase right
//! after the first, and a clean phase after that. A second program
//! ([`node_phases_in_a_collective_do`]) plants a write-write conflict and a
//! read-own-write hazard in a node phase *between* the global phases of one
//! collective `ppm_do`, then runs a clean node phase.

use ppm_core::PhaseKind::{Global as G, Node as N};
use ppm_core::Space::{Global, Node};
use ppm_core::{run, AccumOp, PhaseKind, PhaseViolation, PpmConfig, Space};
use ppm_simnet::MachineConfig;

fn ww(
    space: Space,
    array: u32,
    index: u64,
    first_vp: u64,
    second_vp: u64,
    phase: PhaseKind,
) -> PhaseViolation {
    PhaseViolation::WriteWriteConflict {
        space,
        array,
        index,
        first_vp,
        second_vp,
        phase,
    }
}

fn row(space: Space, array: u32, index: u64, vp: u64, phase: PhaseKind) -> PhaseViolation {
    PhaseViolation::ReadOwnWrite {
        space,
        array,
        index,
        vp,
        phase,
    }
}

/// What one node drains: after the collective construct (twice — the second
/// drain must be empty), after the local construct, and the cache hits it
/// counted.
type Drains = (
    Vec<PhaseViolation>,
    Vec<PhaseViolation>,
    Vec<PhaseViolation>,
    u64,
);

fn planted(cfg: PpmConfig) -> Vec<Drains> {
    let report = run(cfg, |node| {
        let a = node.alloc_global::<i64>(16); // id 0; node 1 owns 8..16
        let f = node.alloc_global::<f64>(8); // id 1
        for _ in 2..64 {
            node.alloc_global::<u8>(2);
        }
        let hi = node.alloc_global::<i64>(4); // id 64
        let hi2 = node.alloc_global::<i64>(4); // id 65
        let nb = node.alloc_node::<u64>(4); // id 0
        for _ in 1..64 {
            node.alloc_node::<u8>(1);
        }
        let nhi = node.alloc_node::<u64>(2); // id 64
        let nhi2 = node.alloc_node::<u64>(2); // id 65
        node.ppm_do(3, move |vp| async move {
            let r = vp.global_rank();
            // Clean phase: fills node 0's read cache with a[8].
            vp.global_phase(|ph| async move {
                if r == 0 {
                    assert_eq!(ph.get(&a, 8).await, 0);
                }
            })
            .await;
            // First dirty phase.
            vp.global_phase(|ph| async move {
                let quiet = f64::NAN;
                let payload = f64::from_bits(f64::NAN.to_bits() ^ 1);
                ph.put(&a, 6, 42); // idempotent, all six VPs
                match r {
                    0 => {
                        ph.put(&a, 5, 7);
                        ph.put(&f, 3, quiet);
                        ph.put(&a, 8, 99);
                        assert_eq!(ph.get(&a, 8).await, 0, "cache hit or not, a hazard");
                        ph.put_node(&nb, 1, 10);
                    }
                    1 => {
                        ph.put(&a, 5, 9); // disagrees ...
                        ph.put(&f, 3, payload);
                        ph.put(&a, 10, 1);
                        let got = ph.get_many(&a, [10, 1, 10, 10, 11]).await;
                        assert_eq!(got, vec![0; 5]);
                        ph.put(&a, 5, 7); // ... then converges, after parking
                        ph.put(&hi, 0, 5);
                        assert_eq!(ph.get(&hi2, 0).await, 0, "same mask bit, other array");
                        assert_eq!(ph.get(&hi, 0).await, 0);
                    }
                    2 => {
                        ph.put(&a, 5, 8);
                        ph.put(&a, 2, 1);
                        assert_eq!(ph.get(&a, 2).await, 0);
                        ph.put_node(&nb, 1, 11);
                    }
                    3 => {
                        ph.put(&a, 5, 7);
                        ph.put(&f, 3, quiet);
                        ph.accumulate(&a, 14, AccumOp::Add, 1);
                        assert_eq!(ph.get(&a, 14).await, 0);
                        ph.put_node(&nb, 1, 12);
                        ph.put(&hi2, 1, 1);
                    }
                    4 => {
                        ph.put(&a, 5, 1);
                        ph.put(&a, 5, 7);
                        ph.put(&f, 3, quiet);
                        ph.accumulate(&a, 12, AccumOp::Add, 5);
                        assert_eq!(ph.get(&a, 12).await, 0);
                        ph.accumulate(&a, 14, AccumOp::Add, 1);
                        assert_eq!(ph.get(&a, 14).await, 0);
                        ph.put_node(&nb, 2, 3);
                        assert_eq!(ph.get_node(&nb, 2), 0);
                    }
                    _ => {
                        ph.put(&a, 5, 7);
                        ph.accumulate(&a, 3, AccumOp::Max, 4);
                        assert_eq!(ph.get(&a, 3).await, 0, "remote: parks the VP");
                        ph.put_node(&nb, 1, 12);
                        ph.put(&hi2, 1, 2);
                    }
                }
            })
            .await;
            // Second dirty phase, back to back: nothing carries over.
            vp.global_phase(|ph| async move {
                match r {
                    0 => ph.put(&a, 5, 1),
                    1 => ph.put(&a, 5, 2),
                    2 => assert_eq!(ph.get(&a, 2).await, 1, "written last phase: clean"),
                    3 => {
                        ph.put(&a, 9, 1);
                        assert_eq!(ph.get(&a, 9).await, 0);
                    }
                    4 => ph.put(&a, 12, 1),
                    _ => ph.put(&a, 12, 2),
                }
            })
            .await;
        });
        let first = node.take_violations();
        let second = node.take_violations();
        node.ppm_do_local(2, move |vp| async move {
            let r = vp.node_rank() as u64;
            vp.node_phase(|ph| async move {
                ph.put_node(&nb, 3, 20 + r);
                if r == 1 {
                    ph.accumulate_node(&nhi, 0, AccumOp::Add, 1);
                    assert_eq!(ph.get_node(&nhi2, 0), 0, "same mask bit, other array");
                    assert_eq!(ph.get_node(&nhi, 0), 0);
                }
            })
            .await;
            vp.node_phase(|ph| async move {
                assert_eq!(ph.get_node(&nb, 3), 21, "written last phase: clean");
            })
            .await;
        });
        let third = node.take_violations();
        (first, second, third, node.ep_counters().cache_hits)
    });
    report.results
}

/// Per node: the collective construct's drain, then the local construct's.
fn expected() -> [(Vec<PhaseViolation>, Vec<PhaseViolation>); 2] {
    let local = vec![ww(Node, 0, 3, 0, 1, N), row(Node, 64, 0, 1, N)];
    [
        (
            vec![
                // First dirty phase: conflicts, then hazards, each by
                // (space, array, element, ranks).
                ww(Global, 0, 5, 0, 2, G),
                ww(Global, 1, 3, 0, 1, G),
                ww(Node, 0, 1, 0, 2, G),
                row(Global, 0, 2, 2, G),
                row(Global, 0, 8, 0, G),
                row(Global, 0, 10, 1, G),
                row(Global, 64, 0, 1, G),
                // Second dirty phase.
                ww(Global, 0, 5, 0, 1, G),
            ],
            local.clone(),
        ),
        (
            vec![
                ww(Global, 65, 1, 3, 5, G),
                row(Global, 0, 3, 5, G),
                row(Global, 0, 12, 4, G),
                row(Global, 0, 14, 3, G),
                row(Global, 0, 14, 4, G),
                row(Node, 0, 2, 4, G),
                ww(Global, 0, 12, 4, 5, G),
                row(Global, 0, 9, 3, G),
            ],
            local,
        ),
    ]
}

/// The same reports as the user reads them, in drain order.
#[rustfmt::skip]
const RENDERED: [&[&str]; 2] = [
    &[
        "write-write conflict: VPs 0 and 2 put different values to global array 0 element 5 in one Global phase without an accumulate combiner (resolution is deterministic but rank-ordered; use accumulate or disjoint index sets)",
        "write-write conflict: VPs 0 and 1 put different values to global array 1 element 3 in one Global phase without an accumulate combiner (resolution is deterministic but rank-ordered; use accumulate or disjoint index sets)",
        "write-write conflict: VPs 0 and 2 put different values to node array 0 element 1 in one Global phase without an accumulate combiner (resolution is deterministic but rank-ordered; use accumulate or disjoint index sets)",
        "read-own-write hazard: VP 2 read global array 0 element 2 after writing it in the same Global phase (the read sees the phase-start snapshot, not the new value; split the phase if the new value was intended)",
        "read-own-write hazard: VP 0 read global array 0 element 8 after writing it in the same Global phase (the read sees the phase-start snapshot, not the new value; split the phase if the new value was intended)",
        "read-own-write hazard: VP 1 read global array 0 element 10 after writing it in the same Global phase (the read sees the phase-start snapshot, not the new value; split the phase if the new value was intended)",
        "read-own-write hazard: VP 1 read global array 64 element 0 after writing it in the same Global phase (the read sees the phase-start snapshot, not the new value; split the phase if the new value was intended)",
        "write-write conflict: VPs 0 and 1 put different values to global array 0 element 5 in one Global phase without an accumulate combiner (resolution is deterministic but rank-ordered; use accumulate or disjoint index sets)",
        "write-write conflict: VPs 0 and 1 put different values to node array 0 element 3 in one Node phase without an accumulate combiner (resolution is deterministic but rank-ordered; use accumulate or disjoint index sets)",
        "read-own-write hazard: VP 1 read node array 64 element 0 after writing it in the same Node phase (the read sees the phase-start snapshot, not the new value; split the phase if the new value was intended)",
    ],
    &[
        "write-write conflict: VPs 3 and 5 put different values to global array 65 element 1 in one Global phase without an accumulate combiner (resolution is deterministic but rank-ordered; use accumulate or disjoint index sets)",
        "read-own-write hazard: VP 5 read global array 0 element 3 after writing it in the same Global phase (the read sees the phase-start snapshot, not the new value; split the phase if the new value was intended)",
        "read-own-write hazard: VP 4 read global array 0 element 12 after writing it in the same Global phase (the read sees the phase-start snapshot, not the new value; split the phase if the new value was intended)",
        "read-own-write hazard: VP 3 read global array 0 element 14 after writing it in the same Global phase (the read sees the phase-start snapshot, not the new value; split the phase if the new value was intended)",
        "read-own-write hazard: VP 4 read global array 0 element 14 after writing it in the same Global phase (the read sees the phase-start snapshot, not the new value; split the phase if the new value was intended)",
        "read-own-write hazard: VP 4 read node array 0 element 2 after writing it in the same Global phase (the read sees the phase-start snapshot, not the new value; split the phase if the new value was intended)",
        "write-write conflict: VPs 4 and 5 put different values to global array 0 element 12 in one Global phase without an accumulate combiner (resolution is deterministic but rank-ordered; use accumulate or disjoint index sets)",
        "read-own-write hazard: VP 3 read global array 0 element 9 after writing it in the same Global phase (the read sees the phase-start snapshot, not the new value; split the phase if the new value was intended)",
        "write-write conflict: VPs 0 and 1 put different values to node array 0 element 3 in one Node phase without an accumulate combiner (resolution is deterministic but rank-ordered; use accumulate or disjoint index sets)",
        "read-own-write hazard: VP 1 read node array 64 element 0 after writing it in the same Node phase (the read sees the phase-start snapshot, not the new value; split the phase if the new value was intended)",
    ],
];

#[test]
fn planted_program_reports_the_captured_rows() {
    let expected = expected();
    for cache in [true, false] {
        let cfg = PpmConfig::new(MachineConfig::new(2, 2))
            .with_checker(true)
            .with_read_cache(cache);
        let cell = format!("cache {cache}");
        let got = planted(cfg);
        assert_eq!(got[0].3 > 0, cache, "{cell}: a[8]'s hazard hits the cache");
        for (node, (first, second, third, _)) in got.into_iter().enumerate() {
            assert!(second.is_empty(), "{cell}, node {node}: {second:?}");
            let lines: Vec<String> = first.iter().chain(&third).map(|v| v.to_string()).collect();
            assert_eq!(first, expected[node].0, "{cell}, node {node}, ppm_do");
            assert_eq!(third, expected[node].1, "{cell}, node {node}, ppm_do_local");
            assert_eq!(lines, RENDERED[node], "{cell}, node {node}");
        }
    }
}

/// [`planted`] written with the bulk calls: each VP's neighbouring writes to
/// one array are one `put_many` / `accumulate_many`, each read a `get_many`
/// (of a slice, a range or a lazy iterator). Same accesses in the same
/// per-element order, so the same reports.
fn planted_bulk(cfg: PpmConfig) -> Vec<Drains> {
    let report = run(cfg, |node| {
        let a = node.alloc_global::<i64>(16);
        let f = node.alloc_global::<f64>(8);
        for _ in 2..64 {
            node.alloc_global::<u8>(2);
        }
        let hi = node.alloc_global::<i64>(4);
        let hi2 = node.alloc_global::<i64>(4);
        let nb = node.alloc_node::<u64>(4);
        for _ in 1..64 {
            node.alloc_node::<u8>(1);
        }
        let nhi = node.alloc_node::<u64>(2);
        let nhi2 = node.alloc_node::<u64>(2);
        node.ppm_do(3, move |vp| async move {
            let r = vp.global_rank();
            vp.global_phase(|ph| async move {
                if r == 0 {
                    assert_eq!(ph.get_many(&a, 8..9).await, [0]);
                }
            })
            .await;
            vp.global_phase(|ph| async move {
                let quiet = f64::NAN;
                let payload = f64::from_bits(f64::NAN.to_bits() ^ 1);
                match r {
                    0 => {
                        ph.put_many(&a, [(6, 42), (5, 7), (8, 99)]);
                        ph.put_many(&f, [(3, quiet)]);
                        assert_eq!(ph.get_many(&a, [8]).await, [0]);
                        ph.put_node(&nb, 1, 10);
                    }
                    1 => {
                        ph.put_many(&a, [(6, 42), (5, 9), (10, 1)]);
                        ph.put_many(&f, Some((3, payload)));
                        let idxs = [10, 1, 10, 10, 11];
                        let got = ph.get_many(&a, (0..5).map(|k| idxs[k])).await;
                        assert_eq!(got, vec![0; 5]);
                        ph.put_many(&a, std::iter::once((5, 7)));
                        ph.put_many(&hi, [(0, 5)]);
                        assert_eq!(ph.get_many(&hi2, 0..1).await, [0]);
                        assert_eq!(ph.get_many(&hi, 0..1).await, [0]);
                    }
                    2 => {
                        ph.put_many(&a, [(6, 42), (5, 8), (2, 1)]);
                        assert_eq!(ph.get_many(&a, 2..3).await, [0]);
                        ph.put_node(&nb, 1, 11);
                    }
                    3 => {
                        ph.put_many(&a, [(6, 42), (5, 7)]);
                        ph.put_many(&f, [(3, quiet)]);
                        ph.accumulate_many(&a, AccumOp::Add, [(14, 1)]);
                        assert_eq!(ph.get_many(&a, 14..15).await, [0]);
                        ph.put_node(&nb, 1, 12);
                        ph.put_many(&hi2, [(1, 1)]);
                    }
                    4 => {
                        ph.put_many(&a, [(6, 42), (5, 1), (5, 7)]);
                        ph.put_many(&f, [(3, quiet)]);
                        ph.accumulate_many(&a, AccumOp::Add, [(12, 5), (14, 1)]);
                        assert_eq!(ph.get_many(&a, [12, 14]).await, [0, 0]);
                        ph.put_node(&nb, 2, 3);
                        assert_eq!(ph.get_node(&nb, 2), 0);
                    }
                    _ => {
                        ph.put_many(&a, [(6, 42), (5, 7)]);
                        ph.accumulate_many(&a, AccumOp::Max, [(3, 4)]);
                        assert_eq!(ph.get_many(&a, 3..4).await, [0], "remote: parks the VP");
                        ph.put_node(&nb, 1, 12);
                        ph.put_many(&hi2, [(1, 2)]);
                    }
                }
            })
            .await;
            vp.global_phase(|ph| async move {
                match r {
                    0 => ph.put_many(&a, [(5, 1)]),
                    1 => ph.put_many(&a, [(5, 2)]),
                    2 => assert_eq!(ph.get_many(&a, 2..3).await, [1]),
                    3 => {
                        ph.put_many(&a, [(9, 1)]);
                        assert_eq!(ph.get_many(&a, 8..11).await, [99, 0, 1]);
                    }
                    4 => ph.put_many(&a, [(12, 1)]),
                    _ => ph.put_many(&a, [(12, 2)]),
                }
            })
            .await;
        });
        let first = node.take_violations();
        let second = node.take_violations();
        node.ppm_do_local(2, move |vp| async move {
            let r = vp.node_rank() as u64;
            vp.node_phase(|ph| async move {
                ph.put_node(&nb, 3, 20 + r);
                if r == 1 {
                    ph.accumulate_node(&nhi, 0, AccumOp::Add, 1);
                    assert_eq!(ph.get_node(&nhi2, 0), 0);
                    assert_eq!(ph.get_node(&nhi, 0), 0);
                }
            })
            .await;
        });
        let third = node.take_violations();
        (first, second, third, node.ep_counters().cache_hits)
    });
    report.results
}

#[test]
fn bulk_twin_of_the_planted_program_reports_the_same_rows() {
    let expected = expected();
    for cache in [true, false] {
        let cfg = PpmConfig::new(MachineConfig::new(2, 2))
            .with_checker(true)
            .with_read_cache(cache);
        let cell = format!("cache {cache}");
        let got = planted_bulk(cfg);
        assert_eq!(got[0].3 > 0, cache, "{cell}: a[8]'s hazard hits the cache");
        for (node, (first, second, third, _)) in got.into_iter().enumerate() {
            assert!(second.is_empty(), "{cell}, node {node}: {second:?}");
            let lines: Vec<String> = first.iter().chain(&third).map(|v| v.to_string()).collect();
            assert_eq!(first, expected[node].0, "{cell}, node {node}, ppm_do");
            assert_eq!(third, expected[node].1, "{cell}, node {node}, ppm_do_local");
            assert_eq!(lines, RENDERED[node], "{cell}, node {node}");
        }
    }
}

/// What a one-VP-per-node job on two nodes panics with.
fn panic_text<Fut: std::future::Future<Output = ()> + Send + 'static>(
    body: impl Fn(ppm_core::Vp, ppm_core::GlobalShared<i64>) -> Fut + Send + Sync + 'static,
) -> String {
    let job = std::panic::AssertUnwindSafe(move || {
        let cfg = PpmConfig::new(MachineConfig::new(2, 1));
        run(cfg, move |node| {
            let a = node.alloc_global::<i64>(8); // node 1 owns 4..8
            node.ppm_do(1, |vp| body(vp, a));
        });
    });
    let payload = std::panic::catch_unwind(job).expect_err("the job must panic");
    let text = payload.downcast_ref::<String>().cloned();
    text.unwrap_or_else(|| {
        payload
            .downcast_ref::<&str>()
            .expect("a text payload")
            .to_string()
    })
}

/// A bulk access that may not happen panics with the text its per-element
/// form panics with: out of bounds, out of any phase, a remote element —
/// cached or not — or a global write in a node phase.
#[test]
fn bulk_accesses_panic_with_the_per_element_texts() {
    for (want, per_element, bulk) in panic_cases() {
        assert!(per_element.contains(want), "{per_element:?} lacks {want:?}");
        assert_eq!(bulk, per_element);
    }
}

/// `(text, per-element panic, bulk panic)` of each case.
fn panic_cases() -> [(&'static str, String, String); 7] {
    [
        (
            "global read index 8 out of bounds",
            panic_text(|vp, a| async move {
                vp.global_phase(|ph| async move { assert_eq!(ph.get(&a, 8).await, 0) })
                    .await
            }),
            panic_text(|vp, a| async move {
                vp.global_phase(|ph| async move { drop(ph.get_many(&a, 7..9).await) })
                    .await
            }),
        ),
        (
            "global write index 8 out of bounds",
            panic_text(|vp, a| async move {
                vp.global_phase(|ph| async move { ph.put(&a, 8, 1) }).await
            }),
            panic_text(|vp, a| async move {
                vp.global_phase(|ph| async move { ph.put_many(&a, (7..9).map(|i| (i, 1))) })
                    .await
            }),
        ),
        (
            "global shared read requires an open phase",
            panic_text(|vp, a| async move {
                let ph = vp.global_phase(|ph| async move { ph }).await;
                ph.get(&a, 0).await;
            }),
            panic_text(|vp, a| async move {
                let ph = vp.global_phase(|ph| async move { ph }).await;
                ph.get_many(&a, 0..2).await;
            }),
        ),
        (
            "global shared write requires an open phase",
            panic_text(|vp, a| async move {
                let ph = vp.global_phase(|ph| async move { ph }).await;
                ph.accumulate(&a, 0, AccumOp::Add, 1);
            }),
            panic_text(|vp, a| async move {
                let ph = vp.global_phase(|ph| async move { ph }).await;
                ph.accumulate_many(&a, AccumOp::Add, [(0, 1)]);
            }),
        ),
        (
            "remote shared read inside a node phase (element 7 is on node 1); use a global phase",
            panic_text(|vp, a| async move {
                let local = vp.node_id() * 4;
                vp.node_phase(|ph| async move {
                    ph.get(&a, local).await;
                    ph.get(&a, 7 - local).await;
                })
                .await
            }),
            panic_text(|vp, a| async move {
                let local = vp.node_id() * 4;
                vp.node_phase(|ph| async move { drop(ph.get_many(&a, [local, 7 - local]).await) })
                    .await
            }),
        ),
        (
            // The element a global phase read, and cached, is still remote.
            "remote shared read inside a node phase (element 7 is on node 1); use a global phase",
            panic_text(|vp, a| async move {
                let far = 7 - vp.node_id() * 4;
                vp.global_phase(|ph| async move { assert_eq!(ph.get(&a, far).await, 0) })
                    .await;
                vp.node_phase(|ph| async move { assert_eq!(ph.get(&a, far).await, 0) })
                    .await
            }),
            panic_text(|vp, a| async move {
                let far = 7 - vp.node_id() * 4;
                vp.global_phase(|ph| async move { drop(ph.get_many(&a, [far]).await) })
                    .await;
                vp.node_phase(|ph| async move { drop(ph.get_many(&a, [far]).await) })
                    .await
            }),
        ),
        (
            "global shared writes are only allowed inside a global phase",
            panic_text(
                |vp, a| async move { vp.node_phase(|ph| async move { ph.put(&a, 0, 1) }).await },
            ),
            panic_text(|vp, a| async move {
                vp.node_phase(|ph| async move { ph.put_many(&a, [(0, 1)]) })
                    .await
            }),
        ),
    ]
}

/// What each node drains (twice) after a collective `ppm_do` whose global
/// phases have node phases between them, over node-shared vectors used the
/// way `cg/ppm_hier.rs` uses them (`r`, `ap`, `x`: one slot per owned row
/// of the global `p`, each VP on its own rows), and the node's final `x`.
type NodePhaseDrains = (Vec<PhaseViolation>, Vec<PhaseViolation>, Vec<i64>);

fn node_phases_in_a_collective_do(cfg: PpmConfig) -> Vec<NodePhaseDrains> {
    let report = run(cfg, |node| {
        let p = node.alloc_global::<i64>(12); // id 0; each node owns 6 rows
        let range = node.local_range(&p);
        let (lo, nrows) = (range.start, range.len());
        let x = node.alloc_node::<i64>(nrows); // id 0
        let r = node.alloc_node::<i64>(nrows); // id 1
        let ap = node.alloc_node::<i64>(nrows); // id 2
        node.ppm_do(3, move |vp| async move {
            let vr = vp.node_rank();
            let rows = 2 * vr..2 * vr + 2;
            // Global phase: r = p = b.
            let rs = rows.clone();
            vp.global_phase(|ph| async move {
                for li in rs {
                    ph.put_node(&r, li, (lo + li) as i64);
                    ph.put(&p, lo + li, (lo + li) as i64);
                }
            })
            .await;
            // Planted node phase: ap = 2·r on each VP's own rows, but node
            // rank 2 also writes ap[0], node rank 0's row (write-write), and
            // node rank 1 rewrites r on its first row and reads it back
            // (read-own-write).
            let rs = rows.clone();
            vp.node_phase(|ph| async move {
                for li in rs.clone() {
                    ph.put_node(&ap, li, 2 * ph.get_node(&r, li));
                }
                match vr {
                    1 => {
                        ph.put_node(&r, rs.start, -1);
                        assert_eq!(ph.get_node(&r, rs.start), (lo + rs.start) as i64);
                    }
                    2 => ph.put_node(&ap, 0, 100),
                    _ => {}
                }
            })
            .await;
            // Clean node phase: x = r + ap, reading what the last phase wrote.
            let rs = rows.clone();
            vp.node_phase(|ph| async move {
                for li in rs {
                    ph.put_node(&x, li, ph.get_node(&r, li) + ph.get_node(&ap, li));
                }
            })
            .await;
            // Global phase: p = x.
            vp.global_phase(|ph| async move {
                for li in rows {
                    ph.put(&p, lo + li, ph.get_node(&x, li));
                }
            })
            .await;
        });
        let first = node.take_violations();
        let second = node.take_violations();
        (first, second, node.with_node(&x, |s| s.to_vec()))
    });
    report.results
}

/// The rows [`node_phases_in_a_collective_do`] reports, captured on the
/// commit before this test was added: both planted node-phase violations,
/// named by global rank, and nothing from the clean node phase or the
/// global phases around them.
#[rustfmt::skip]
const NODE_PHASE_ROWS: [&[&str]; 2] = [
    &[
        "write-write conflict: VPs 0 and 2 put different values to node array 2 element 0 in one Node phase without an accumulate combiner (resolution is deterministic but rank-ordered; use accumulate or disjoint index sets)",
        "read-own-write hazard: VP 1 read node array 1 element 2 after writing it in the same Node phase (the read sees the phase-start snapshot, not the new value; split the phase if the new value was intended)",
    ],
    &[
        "write-write conflict: VPs 3 and 5 put different values to node array 2 element 0 in one Node phase without an accumulate combiner (resolution is deterministic but rank-ordered; use accumulate or disjoint index sets)",
        "read-own-write hazard: VP 4 read node array 1 element 2 after writing it in the same Node phase (the read sees the phase-start snapshot, not the new value; split the phase if the new value was intended)",
    ],
];

#[test]
fn node_phases_inside_a_collective_do_report_the_captured_rows() {
    let expected = [
        [ww(Node, 2, 0, 0, 2, N), row(Node, 1, 2, 1, N)],
        [ww(Node, 2, 0, 3, 5, N), row(Node, 1, 2, 4, N)],
    ];
    // Highest rank wins ap[0]; r[2] holds the rewrite.
    let xs: [&[i64]; 2] = [&[100, 3, 3, 9, 12, 15], &[106, 21, 15, 27, 30, 33]];
    let cfg = PpmConfig::new(MachineConfig::new(2, 2)).with_checker(true);
    let got = node_phases_in_a_collective_do(cfg);
    for (node, (first, second, x)) in got.into_iter().enumerate() {
        let cell = format!("node {node}");
        assert!(second.is_empty(), "{cell}: {second:?}");
        assert_eq!(first, expected[node], "{cell}");
        let lines: Vec<String> = first.iter().map(|v| v.to_string()).collect();
        assert_eq!(lines, NODE_PHASE_ROWS[node], "{cell}");
        assert_eq!(x, xs[node], "{cell}");
    }
}
