//! Tests of the dynamic phase-semantics conformance checker: seeded
//! violations must be flagged with precise diagnostics, and conforming
//! programs (including the paper's §5 binary-search example) must report
//! zero violations.

use ppm_core::testkit::{walk, Cell};
use ppm_core::{run, AccumOp, PhaseViolation, PpmConfig, Space};
use ppm_simnet::MachineConfig;

/// The cells this suite walks: host threads, which the checker's reports
/// must not depend on.
fn threads(c: Cell) -> Cell {
    Cell {
        host_threads: c.host_threads,
        ..Cell::default()
    }
}

fn cfg(cell: Cell, nodes: u32, cores: u32) -> PpmConfig {
    cell.apply(PpmConfig::new(MachineConfig::new(nodes, cores)))
        .with_checker(true)
}

/// Two VPs `put` the same global element in one phase: exactly one
/// write-write conflict, attributed to the two lowest-ranked writers.
#[test]
fn unguarded_write_write_conflict_is_flagged() {
    walk(threads, |cell| {
        let report = run(cfg(cell, 2, 2), |node| {
            let a = node.alloc_global::<i64>(8);
            node.ppm_do(3, move |vp| async move {
                let r = vp.global_rank() as i64;
                vp.global_phase(|ph| async move {
                    ph.put(&a, 5, r); // every VP targets element 5
                })
                .await;
            });
            node.take_violations()
        });
        for (node_id, violations) in report.results.into_iter().enumerate() {
            // Element 5 lives on one node, but write buffers are recorded where
            // the writing VP runs, so each node's checker sees its own VPs'
            // puts; with 3 VPs per node every node reports one conflict.
            assert_eq!(violations.len(), 1, "node {node_id}: {violations:?}");
            match &violations[0] {
                PhaseViolation::WriteWriteConflict {
                    space,
                    index,
                    first_vp,
                    second_vp,
                    ..
                } => {
                    assert_eq!(*space, Space::Global);
                    assert_eq!(*index, 5);
                    assert!(first_vp < second_vp);
                }
                other => panic!("expected WriteWriteConflict, got {other:?}"),
            }
            // The rendering tells the user what to do about it.
            let msg = violations[0].to_string();
            assert!(msg.contains("write-write conflict"), "{msg}");
            assert!(msg.contains("accumulate"), "{msg}");
        }
    });
}

/// The same pattern with `accumulate` is the model's sanctioned combining
/// write: zero violations.
#[test]
fn accumulate_to_one_element_is_clean() {
    walk(threads, |cell| {
        let report = run(cfg(cell, 2, 2), |node| {
            let a = node.alloc_global::<i64>(8);
            node.ppm_do(4, move |vp| async move {
                let r = vp.global_rank() as i64;
                vp.global_phase(|ph| async move {
                    ph.accumulate(&a, 5, AccumOp::Add, r);
                })
                .await;
            });
            let violations = node.take_violations();
            (node.gather_global(&a)[5], violations)
        });
        let total: i64 = (0..8).sum(); // 8 VPs, ranks 0..8
        for (got, violations) in report.results {
            assert!(violations.is_empty(), "{violations:?}");
            assert_eq!(got, total);
        }
    });
}

/// Different VPs putting *different* elements never conflict, and a plain
/// re-put by the same VP is legal (program order wins).
#[test]
fn disjoint_and_same_vp_puts_are_clean() {
    walk(threads, |cell| {
        let report = run(cfg(cell, 1, 2), |node| {
            let a = node.alloc_global::<i64>(8);
            node.ppm_do(4, move |vp| async move {
                let r = vp.global_rank();
                vp.global_phase(|ph| async move {
                    ph.put(&a, r, 1);
                    ph.put(&a, r, 2); // same VP overwrites its own put: fine
                })
                .await;
            });
            let violations = node.take_violations();
            (node.gather_global(&a), violations)
        });
        for (vals, violations) in report.results {
            assert!(violations.is_empty(), "{violations:?}");
            assert_eq!(&vals[..4], &[2, 2, 2, 2]);
        }
    });
}

/// Idempotent concurrent puts — every VP writes the *same* value (the
/// Barnes–Hut "clear the shared tree cell" pattern) — are
/// value-deterministic and must not be flagged.
#[test]
fn idempotent_identical_puts_are_clean() {
    walk(threads, |cell| {
        let report = run(cfg(cell, 2, 2), |node| {
            let a = node.alloc_global::<i64>(8);
            node.ppm_do(3, move |vp| async move {
                vp.global_phase(|ph| async move {
                    ph.put(&a, 5, 42); // every VP, same value
                })
                .await;
            });
            let violations = node.take_violations();
            (node.gather_global(&a)[5], violations)
        });
        for (got, violations) in report.results {
            assert!(violations.is_empty(), "{violations:?}");
            assert_eq!(got, 42);
        }
    });
}

/// A VP that reads a global element after putting it in the same phase
/// gets the snapshot value back — the checker flags the hazard.
#[test]
fn read_own_write_hazard_is_flagged() {
    walk(threads, |cell| {
        let report = run(cfg(cell, 1, 1), |node| {
            let a = node.alloc_global::<i64>(4);
            node.ppm_do(2, move |vp| async move {
                let r = vp.global_rank();
                vp.global_phase(|ph| async move {
                    if r == 0 {
                        ph.put(&a, 2, 99);
                        let snap = ph.get(&a, 2).await;
                        assert_eq!(snap, 0, "read must see the phase-start snapshot");
                    } else {
                        // Reading an element *another* VP wrote is legal
                        // snapshot semantics, not a hazard.
                        let _ = ph.get(&a, 2).await;
                    }
                })
                .await;
            });
            node.take_violations()
        });
        let violations = &report.results[0];
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            matches!(
                violations[0],
                PhaseViolation::ReadOwnWrite {
                    space: Space::Global,
                    index: 2,
                    vp: 0,
                    ..
                }
            ),
            "{violations:?}"
        );
        let msg = violations[0].to_string();
        assert!(msg.contains("read-own-write"), "{msg}");
        assert!(msg.contains("snapshot"), "{msg}");
    });
}

/// A read served from the phase-coherent read cache (DESIGN.md §13) is
/// still a read: buffering a put to the element and then getting it must
/// flag the read-own-write hazard even though no message is sent.
#[test]
fn cached_reads_still_flag_read_own_write() {
    walk(threads, |cell| {
        let report = run(cfg(cell, 2, 1).with_read_cache(true), |node| {
            let a = node.alloc_global::<i64>(16); // node 1 owns 8..16
            node.ppm_do(1, move |vp| async move {
                let id = vp.node_id();
                // Phase 1: populate the cache.
                vp.global_phase(|ph| async move {
                    if id == 0 {
                        let _ = ph.get(&a, 8).await;
                    }
                })
                .await;
                // Phase 2: put-then-get the cached element on node 0.
                vp.global_phase(|ph| async move {
                    if id == 0 {
                        ph.put(&a, 8, 99);
                        let snap = ph.get(&a, 8).await;
                        assert_eq!(snap, 0, "cache hit is still the phase-start snapshot");
                    }
                })
                .await;
            });
            (node.take_violations(), node.ep_counters())
        });
        let (violations, counters) = &report.results[0];
        assert!(
            counters.cache_hits >= 1,
            "the hazardous read must have been served from the cache"
        );
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            matches!(
                violations[0],
                PhaseViolation::ReadOwnWrite {
                    space: Space::Global,
                    index: 8,
                    vp: 0,
                    ..
                }
            ),
            "{violations:?}"
        );
    });
}

/// Snapshot semantics with the cache: a cached element being rewritten by
/// its owner in the same phase must still read as the phase-start value
/// (not the in-flight write) with zero violations — and the next phase
/// must see the new value, because the write invalidates the stale entry.
#[test]
fn cached_reads_see_phase_start_values() {
    walk(threads, |cell| {
        let report = run(cfg(cell, 2, 1).with_read_cache(true), |node| {
            let a = node.alloc_global::<i64>(16);
            node.ppm_do(1, move |vp| async move {
                let id = vp.node_id();
                // Phase 1: the reader caches a[8] (initial 0).
                vp.global_phase(|ph| async move {
                    if id == 0 {
                        assert_eq!(ph.get(&a, 8).await, 0);
                    }
                })
                .await;
                // Phase 2: the owner rewrites it; the reader's cached read is
                // legally the phase-start value, not the in-flight write.
                vp.global_phase(|ph| async move {
                    if id == 0 {
                        assert_eq!(ph.get(&a, 8).await, 0, "phase-start value");
                    } else {
                        ph.put(&a, 8, 55);
                    }
                })
                .await;
                // Phase 3: the write is visible (the stale entry was dropped).
                vp.global_phase(|ph| async move {
                    if id == 0 {
                        assert_eq!(ph.get(&a, 8).await, 55);
                    }
                })
                .await;
            });
            node.take_violations()
        });
        for v in &report.results {
            assert!(v.is_empty(), "{v:?}");
        }
    });
}

/// Node-shared arrays get the same checking as global ones.
#[test]
fn node_array_conflicts_are_flagged_per_space() {
    walk(threads, |cell| {
        let report = run(cfg(cell, 1, 2), |node| {
            let b = node.alloc_node::<u64>(4);
            node.ppm_do(2, move |vp| async move {
                let r = vp.node_rank() as u64;
                vp.node_phase(|ph| async move {
                    ph.put_node(&b, 1, 7 + r); // both VPs, different values
                })
                .await;
            });
            node.take_violations()
        });
        let violations = &report.results[0];
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            matches!(
                violations[0],
                PhaseViolation::WriteWriteConflict {
                    space: Space::Node,
                    index: 1,
                    first_vp: 0,
                    second_vp: 1,
                    ..
                }
            ),
            "{violations:?}"
        );
    });
}

/// Violations are reported per phase: a conflict in phase 1 does not leak
/// into a clean phase 2, and each drain empties the queue.
#[test]
fn violations_reset_between_phases_and_drains() {
    walk(threads, |cell| {
        let report = run(cfg(cell, 1, 2), |node| {
            let a = node.alloc_global::<i64>(4);
            node.ppm_do(2, move |vp| async move {
                let r = vp.global_rank();
                vp.global_phase(|ph| async move {
                    ph.put(&a, 0, r as i64); // conflict
                })
                .await;
                vp.global_phase(|ph| async move {
                    ph.put(&a, r, 1); // disjoint: clean
                })
                .await;
            });
            let first = node.take_violations();
            let second = node.take_violations();
            (first, second)
        });
        let (first, second) = &report.results[0];
        assert_eq!(first.len(), 1, "{first:?}");
        assert!(second.is_empty(), "drain must empty the queue: {second:?}");
    });
}

/// The checker is observation only: results are identical with it on and
/// off.
#[test]
fn checker_does_not_perturb_results() {
    walk(threads, |cell| {
        let job = |check: bool| {
            run(cfg(cell, 2, 2).with_checker(check), |node| {
                let a = node.alloc_global::<i64>(32);
                node.ppm_do(4, move |vp| async move {
                    let r = vp.global_rank();
                    let k = vp.global_vp_count();
                    vp.global_phase(|ph| async move {
                        let mut j = r;
                        while j < 32 {
                            ph.put(&a, j, (j * 3) as i64);
                            j += k;
                        }
                    })
                    .await;
                    vp.global_phase(|ph| async move {
                        let v = ph.get(&a, (r * 5) % 32).await;
                        ph.accumulate(&a, 0, AccumOp::Add, v);
                    })
                    .await;
                });
                node.gather_global(&a)
            })
        };
        let on = job(true);
        let off = job(false);
        assert_eq!(on.results, off.results);
        assert_eq!(on.makespan(), off.makespan());
    });
}

/// The paper's §5 example — every VP binary-searches a sorted global array
/// inside one global phase — is a conforming program: zero violations.
#[test]
fn binary_search_example_is_conformant() {
    walk(threads, |cell| {
        let n = 64;
        let k = 16;
        let report = run(cfg(cell, 2, 4), move |node| {
            let a = node.alloc_global::<f64>(n);
            let b = node.alloc_node::<f64>(k);
            let rank_in_a = node.alloc_node::<u64>(k);
            let lo = node.local_range(&a).start;
            node.with_local_mut(&a, |s| {
                for (off, v) in s.iter_mut().enumerate() {
                    *v = (lo + off) as f64 * 2.0;
                }
            });
            node.with_node_mut(&b, |s| {
                for (i, v) in s.iter_mut().enumerate() {
                    *v = i as f64 * 7.3;
                }
            });
            node.ppm_do(k, move |vp| async move {
                let me = vp.node_rank();
                vp.global_phase(|ph| async move {
                    let key = ph.get_node(&b, me);
                    let (mut left, mut right) = (0usize, n);
                    while left < right {
                        let mid = (left + right) / 2;
                        if ph.get(&a, mid).await < key {
                            left = mid + 1;
                        } else {
                            right = mid;
                        }
                    }
                    ph.put_node(&rank_in_a, me, right as u64);
                })
                .await;
            });
            let violations = node.take_violations();
            (node.with_node(&rank_in_a, |s| s.to_vec()), violations)
        });
        for (ranks, violations) in &report.results {
            assert!(violations.is_empty(), "checker: {violations:?}");
            for (i, &r) in ranks.iter().enumerate() {
                let key = i as f64 * 7.3;
                let expect = (0..n).position(|j| j as f64 * 2.0 >= key).unwrap_or(n);
                assert_eq!(r as usize, expect);
            }
        }
    });
}

/// Structural violations abort with the `PhaseViolation` rendering.
#[test]
#[should_panic(expected = "phases cannot be nested")]
fn nested_phase_aborts_with_violation_message() {
    walk(threads, |cell| {
        run(cfg(cell, 1, 1), |node| {
            node.ppm_do(1, |vp| async move {
                let v = vp.clone();
                vp.global_phase(|_ph| async move {
                    v.node_phase(|_p2| async move {}).await;
                })
                .await;
            });
        });
    });
}

#[test]
#[should_panic(expected = "VPs disagree on the current phase kind")]
fn phase_kind_mismatch_aborts_with_violation_message() {
    walk(threads, |cell| {
        run(cfg(cell, 1, 2), |node| {
            node.ppm_do(2, |vp| async move {
                if vp.node_rank() == 0 {
                    vp.global_phase(|_ph| async move {}).await;
                } else {
                    vp.node_phase(|_ph| async move {}).await;
                }
            });
        });
    });
}
