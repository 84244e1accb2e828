//! Behavioural tests of the PPM runtime semantics, exercised through the
//! public API across a range of machine shapes.

use std::any::Any;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::task::Poll;

use ppm_core::testkit::{walk, Cell};
use ppm_core::{run, AccumOp, PpmConfig};
use ppm_simnet::MachineConfig;

/// The cells this suite walks: the tile budget, which may not change what a
/// program computes.
fn budget(c: Cell) -> Cell {
    Cell {
        tile_budget: c.tile_budget,
        ..Cell::default()
    }
}

fn cfg(cell: Cell, nodes: u32, cores: u32) -> PpmConfig {
    cell.apply(PpmConfig::new(MachineConfig::new(nodes, cores)))
}

/// Shapes exercised by most tests: single node, multi-node, odd counts.
fn shapes(cell: Cell) -> Vec<PpmConfig> {
    [(1, 1), (1, 4), (2, 2), (3, 1), (4, 4), (5, 3)]
        .map(|(nodes, cores)| cfg(cell, nodes, cores))
        .to_vec()
}

#[test]
fn reads_see_phase_start_snapshot() {
    walk(budget, |cell| {
        // Every VP increments-by-put its own element while reading its
        // neighbour's: all reads must observe the *initial* values even though
        // writes are issued in the same phase.
        for c in shapes(cell) {
            let n = 24;
            let report = run(c, move |node| {
                let a = node.alloc_global::<u64>(n);
                let r = node.local_range(&a);
                node.with_local_mut(&a, |s| {
                    for (off, v) in s.iter_mut().enumerate() {
                        *v = (r.start + off) as u64 * 10;
                    }
                });
                let k = if node.node_id() == 0 { n } else { 0 };
                node.ppm_do(k.max(1).min(n), move |vp| async move {
                    if vp.node_id() != 0 {
                        // Other nodes still participate in the global phase.
                        vp.global_phase(|_ph| async move {}).await;
                        return;
                    }
                    let i = vp.node_rank();
                    vp.global_phase(|ph| async move {
                        let neighbour = ph.get(&a, (i + 1) % n).await;
                        assert_eq!(
                            neighbour,
                            (((i + 1) % n) as u64) * 10,
                            "read must see the phase-start value"
                        );
                        ph.put(&a, i, neighbour + 1);
                    })
                    .await;
                });
                node.gather_global(&a)
            });
            for got in report.results {
                let expect: Vec<u64> = (0..n).map(|i| (((i + 1) % n) as u64) * 10 + 1).collect();
                assert_eq!(got, expect);
            }
        }
    });
}

#[test]
fn writes_visible_in_next_phase() {
    walk(budget, |cell| {
        for c in shapes(cell) {
            let n = 16;
            let report = run(c, move |node| {
                let a = node.alloc_global::<u64>(n);
                let nodes = node.num_nodes();
                // Spread VPs over nodes: each VP owns index == its global rank.
                let k = n / nodes + usize::from(node.node_id() < n % nodes);
                node.ppm_do(k, move |vp| async move {
                    let i = vp.global_rank();
                    vp.global_phase(|ph| async move {
                        ph.put(&a, i, (i * i) as u64);
                    })
                    .await;
                    vp.global_phase(|ph| async move {
                        let v = ph.get(&a, (i + 1) % n).await;
                        let j = (i + 1) % n;
                        assert_eq!(v, (j * j) as u64, "phase-2 read sees phase-1 writes");
                    })
                    .await;
                });
            });
            assert_eq!(report.results.len(), c.nodes());
        }
    });
}

#[test]
fn put_conflicts_resolve_to_highest_rank_writer() {
    walk(budget, |cell| {
        for c in shapes(cell) {
            let report = run(c, move |node| {
                let a = node.alloc_global::<u64>(1);
                let k = 5;
                node.ppm_do(k, move |vp| async move {
                    let me = vp.global_rank() as u64;
                    vp.global_phase(|ph| async move {
                        ph.put(&a, 0, 1000 + me);
                    })
                    .await;
                });
                node.gather_global(&a)[0]
            });
            let total_vps = 5 * c.nodes() as u64;
            for got in report.results {
                assert_eq!(got, 1000 + total_vps - 1, "last (highest-rank) writer wins");
            }
        }
    });
}

#[test]
fn later_put_by_same_vp_wins() {
    walk(budget, |cell| {
        let report = run(cfg(cell, 2, 2), move |node| {
            let a = node.alloc_global::<u64>(4);
            node.ppm_do(1, move |vp| async move {
                vp.global_phase(|ph| async move {
                    ph.put(&a, 2, 1);
                    ph.put(&a, 2, 7);
                })
                .await;
            });
            node.gather_global(&a)[2]
        });
        assert!(report.results.iter().all(|&v| v == 7));
    });
}

#[test]
fn accumulate_sums_across_all_vps() {
    walk(budget, |cell| {
        for c in shapes(cell) {
            let k = 7usize;
            let report = run(c, move |node| {
                let acc = node.alloc_global::<u64>(2);
                node.ppm_do(k, move |vp| async move {
                    let me = vp.global_rank() as u64;
                    vp.global_phase(|ph| async move {
                        ph.accumulate(&acc, 0, AccumOp::Add, me + 1);
                        ph.accumulate(&acc, 1, AccumOp::Max, me);
                    })
                    .await;
                });
                node.gather_global(&acc)
            });
            let total = k as u64 * c.nodes() as u64;
            for got in report.results {
                assert_eq!(got[0], total * (total + 1) / 2, "global sum");
                assert_eq!(got[1], total - 1, "global max");
            }
        }
    });
}

#[test]
fn accumulate_float_sum_is_deterministic() {
    walk(budget, |cell| {
        let go = || {
            run(cfg(cell, 3, 2), move |node| {
                let acc = node.alloc_global::<f64>(1);
                node.ppm_do(50, move |vp| async move {
                    let me = vp.global_rank() as f64;
                    vp.global_phase(|ph| async move {
                        ph.accumulate(&acc, 0, AccumOp::Add, 0.1 * (me + 1.0));
                    })
                    .await;
                });
                node.gather_global(&acc)[0].to_bits()
            })
        };
        let a = go();
        let b = go();
        assert_eq!(a.results, b.results, "bit-identical accumulation");
        assert_eq!(a.makespan(), b.makespan(), "bit-identical clocks");
    });
}

#[test]
fn node_phase_publishes_node_shared_only_locally() {
    walk(budget, |cell| {
        let report = run(cfg(cell, 3, 4), move |node| {
            let buf = node.alloc_node::<u64>(8);
            let me = node.node_id() as u64;
            node.ppm_do(8, move |vp| async move {
                let i = vp.node_rank();
                vp.node_phase(|ph| async move {
                    ph.put_node(&buf, i, me * 100 + i as u64);
                })
                .await;
                vp.node_phase(|ph| async move {
                    // Every VP sees the whole node's writes from phase 1.
                    let v = ph.get_node(&buf, (i + 3) % 8);
                    assert_eq!(v, me * 100 + ((i + 3) % 8) as u64);
                })
                .await;
            });
            node.with_node(&buf, |s| s.to_vec())
        });
        for (n, got) in report.results.into_iter().enumerate() {
            let expect: Vec<u64> = (0..8).map(|i| n as u64 * 100 + i).collect();
            assert_eq!(got, expect, "node {n} instance is independent");
        }
    });
}

#[test]
fn node_phases_do_not_touch_the_network() {
    walk(budget, |cell| {
        let report = run(cfg(cell, 4, 4), move |node| {
            let buf = node.alloc_node::<u64>(16);
            node.ppm_do(16, move |vp| async move {
                let i = vp.node_rank();
                for round in 0..5u64 {
                    vp.node_phase(|ph| async move {
                        let prev = ph.get_node(&buf, i);
                        ph.put_node(&buf, i, prev + round);
                    })
                    .await;
                }
            });
            node.with_node(&buf, |s| s.iter().sum::<u64>())
        });
        // 16 elements × (0+1+2+3+4)
        assert!(report.results.iter().all(|&s| s == 160));
        let totals = report.total_counters();
        // Only the ppm_do prologue allgather communicates; node phases add 0.
        assert_eq!(totals.remote_gets, 0);
        assert_eq!(totals.remote_puts, 0);
        assert_eq!(totals.waves, 0);
    });
}

#[test]
fn dependent_reads_take_multiple_waves() {
    walk(budget, |cell| {
        // A pointer-chase across nodes: VP follows a linked list stored in a
        // global array, one hop per wave, all within one phase.
        let c = cfg(cell, 4, 1);
        let n = 32;
        let report = run(c, move |node| {
            let next = node.alloc_global::<u64>(n);
            let r = node.local_range(&next);
            node.with_local_mut(&next, |s| {
                for (off, v) in s.iter_mut().enumerate() {
                    // A stride permutation that hops between nodes.
                    *v = ((r.start + off) as u64 * 13 + 5) % n as u64;
                }
            });
            let k = usize::from(node.node_id() == 0);
            node.ppm_do(k.max(1), move |vp| async move {
                if vp.node_id() != 0 || vp.node_rank() > 0 {
                    vp.global_phase(|_ph| async move {}).await;
                    return;
                }
                vp.global_phase(|ph| async move {
                    let mut cur = 0u64;
                    let mut path = Vec::new();
                    for _ in 0..10 {
                        cur = ph.get(&next, cur as usize).await;
                        path.push(cur);
                    }
                    // Sequential reference of the same chase.
                    let expect_fn = |i: u64| (i * 13 + 5) % n as u64;
                    let mut e = 0u64;
                    for &p in &path {
                        e = expect_fn(e);
                        assert_eq!(p, e);
                    }
                })
                .await;
            });
            node.ep_counters()
        });
        let waves: u64 = report.results.iter().map(|c| c.waves).sum();
        assert!(
            waves >= 5,
            "a 10-hop remote chase needs many waves, got {waves}"
        );
    });
}

#[test]
fn bundling_one_request_message_per_destination_per_wave() {
    walk(budget, |cell| {
        // One phase in which node 0's 64 VPs each read one element from node 1:
        // with bundling the runtime must send exactly ONE request message.
        let c = cfg(cell, 2, 4);
        let report = run(c, move |node| {
            let a = node.alloc_global::<u64>(128); // node 1 owns 64..128
            let k = if node.node_id() == 0 { 64 } else { 1 };
            node.ppm_do(k, move |vp| async move {
                let i = vp.node_rank();
                let v = vp.clone();
                vp.global_phase(|ph| async move {
                    if v.node_id() == 0 {
                        let _ = ph.get(&a, 64 + i).await;
                    }
                })
                .await;
            });
            node.ep_counters()
        });
        let c0 = &report.results[0];
        assert_eq!(c0.remote_gets, 64, "64 fine-grained reads issued");
        assert_eq!(c0.bundles_sent, 1, "bundled into one request message");
        assert_eq!(c0.waves, 1);
    });
}

#[test]
fn determinism_across_runs_and_schedules() {
    walk(budget, |cell| {
        let go = || {
            run(cfg(cell, 3, 4), move |node| {
                let a = node.alloc_global::<f64>(60);
                let r = node.local_range(&a);
                node.with_local_mut(&a, |s| {
                    for (off, v) in s.iter_mut().enumerate() {
                        *v = (r.start + off) as f64;
                    }
                });
                node.ppm_do(20, move |vp| async move {
                    let g = vp.global_rank();
                    for _round in 0..3 {
                        let v2 = vp.clone();
                        vp.global_phase(|ph| async move {
                            let v = ph.get(&a, (g * 7 + 3) % 60).await;
                            ph.accumulate(&a, g % 60, AccumOp::Add, v * 0.5);
                            v2.charge_flops(10);
                        })
                        .await;
                    }
                });
                (
                    node.gather_global(&a)
                        .into_iter()
                        .map(f64::to_bits)
                        .collect::<Vec<_>>(),
                    node.now(),
                )
            })
        };
        let a = go();
        let b = go();
        assert_eq!(a.results, b.results);
        assert_eq!(a.makespan(), b.makespan());
    });
}

#[test]
fn vp_ranks_and_system_variables() {
    walk(budget, |cell| {
        let c = cfg(cell, 3, 2);
        let report = run(c, move |node| {
            let ranks = node.alloc_global::<u64>(30);
            let k = 10;
            node.ppm_do(k, move |vp| async move {
                assert_eq!(vp.node_vp_count(), 10);
                assert_eq!(vp.global_vp_count(), 30);
                assert_eq!(vp.num_nodes(), 3);
                assert_eq!(vp.cores_per_node(), 2);
                assert_eq!(vp.global_rank(), vp.node_id() * 10 + vp.node_rank());
                let g = vp.global_rank();
                vp.global_phase(|ph| async move {
                    ph.put(&ranks, g, g as u64 + 1);
                })
                .await;
            });
            node.gather_global(&ranks)
        });
        let expect: Vec<u64> = (1..=30).collect();
        for got in report.results {
            assert_eq!(got, expect);
        }
    });
}

#[test]
fn different_vp_counts_per_node() {
    walk(budget, |cell| {
        let c = cfg(cell, 4, 2);
        let report = run(c, move |node| {
            let acc = node.alloc_global::<u64>(1);
            let k = node.node_id() + 1; // 1, 2, 3, 4 VPs
            node.ppm_do(k, move |vp| async move {
                vp.global_phase(|ph| async move {
                    ph.accumulate(&acc, 0, AccumOp::Add, 1);
                })
                .await;
            });
            node.gather_global(&acc)[0]
        });
        assert!(report.results.iter().all(|&v| v == 10));
    });
}

#[test]
fn multiple_ppm_dos_compose() {
    walk(budget, |cell| {
        let report = run(cfg(cell, 2, 2), move |node| {
            let a = node.alloc_global::<u64>(8);
            for round in 0..3u64 {
                node.ppm_do(4, move |vp| async move {
                    let g = vp.global_rank();
                    vp.global_phase(|ph| async move {
                        let prev = ph.get(&a, g).await;
                        ph.put(&a, g, prev + round + 1);
                    })
                    .await;
                });
            }
            node.gather_global(&a)
        });
        for got in report.results {
            assert_eq!(got, vec![6, 6, 6, 6, 6, 6, 6, 6]);
        }
    });
}

#[test]
fn phase_body_can_return_values() {
    walk(budget, |cell| {
        let report = run(cfg(cell, 2, 1), move |node| {
            let a = node.alloc_global::<u64>(4);
            node.with_local_mut(&a, |s| s.fill(5));
            let result = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
            let r2 = result.clone();
            node.ppm_do(1, move |vp| {
                let r = r2.clone();
                async move {
                    let sum = vp
                        .global_phase(|ph| async move {
                            let x = ph.get(&a, 0).await;
                            let y = ph.get(&a, 3).await;
                            x + y
                        })
                        .await;
                    r.store(sum, std::sync::atomic::Ordering::Relaxed);
                }
            });
            result.load(std::sync::atomic::Ordering::Relaxed)
        });
        assert!(report.results.iter().all(|&v| v == 10));
    });
}

#[test]
fn simulated_time_grows_with_communication() {
    walk(budget, |cell| {
        // Same computation; reading remote data must cost more simulated time
        // than reading local data.
        let local_time = run(cfg(cell, 2, 1), move |node| {
            let a = node.alloc_global::<u64>(64);
            node.ppm_do(8, move |vp| async move {
                let base = vp.node_id() * 32; // own partition
                vp.global_phase(|ph| async move {
                    for j in 0..4 {
                        let _ = ph.get(&a, base + j).await;
                    }
                })
                .await;
            });
        })
        .makespan();
        let remote_time = run(cfg(cell, 2, 1), move |node| {
            let a = node.alloc_global::<u64>(64);
            node.ppm_do(8, move |vp| async move {
                let base = (1 - vp.node_id()) * 32; // the other node's partition
                vp.global_phase(|ph| async move {
                    for j in 0..4 {
                        let _ = ph.get(&a, base + j).await;
                    }
                })
                .await;
            });
        })
        .makespan();
        assert!(
            remote_time > local_time,
            "remote {remote_time} must exceed local {local_time}"
        );
    });
}

#[test]
fn clock_breakdown_sums_to_now() {
    walk(budget, |cell| {
        let report = run(cfg(cell, 3, 2), move |node| {
            let a = node.alloc_global::<f64>(30);
            node.ppm_do(10, move |vp| async move {
                let g = vp.global_rank();
                vp.charge_flops(100);
                vp.global_phase(|ph| async move {
                    let v = ph.get(&a, (g + 7) % 30).await;
                    ph.put(&a, g, v + 1.0);
                })
                .await;
            });
        });
        for clock in &report.clocks {
            assert_eq!(clock.compute() + clock.comm() + clock.wait(), clock.now());
            assert!(clock.now() > ppm_simnet::SimTime::ZERO);
        }
    });
}

#[test]
fn get_many_edge_cases() {
    walk(budget, |cell| {
        let report = run(cfg(cell, 3, 2), move |node| {
            let a = node.alloc_global::<u64>(30);
            let r = node.local_range(&a);
            node.with_local_mut(&a, |s| {
                for (off, v) in s.iter_mut().enumerate() {
                    *v = ((r.start + off) * 3) as u64;
                }
            });
            node.ppm_do(2, move |vp| async move {
                vp.global_phase(|ph| async move {
                    // Empty batch resolves immediately.
                    let none = ph.get_many(&a, std::iter::empty()).await;
                    assert!(none.is_empty());
                    // Duplicates, repeats, mixed local/remote, reversed order.
                    let idxs = [29usize, 0, 7, 7, 29, 15, 0];
                    let got = ph.get_many(&a, idxs.iter().copied()).await;
                    let expect: Vec<u64> = idxs.iter().map(|&i| (i * 3) as u64).collect();
                    assert_eq!(got, expect, "values arrive in request order");
                })
                .await;
            });
            node.ep_counters()
        });
        // Each node's wave must carry deduplicated entries only.
        for c in &report.results {
            assert!(c.waves <= 2, "one wave per phase at most, got {}", c.waves);
        }
    });
}

#[test]
fn get_many_matches_sequential_gets() {
    walk(budget, |cell| {
        let report = run(cfg(cell, 2, 1), move |node| {
            let a = node.alloc_global::<f64>(64);
            let r = node.local_range(&a);
            node.with_local_mut(&a, |s| {
                for (off, v) in s.iter_mut().enumerate() {
                    *v = (r.start + off) as f64 * 0.5;
                }
            });
            node.ppm_do(4, move |vp| async move {
                let g = vp.global_rank();
                vp.global_phase(|ph| async move {
                    let idxs: Vec<usize> = (0..10).map(|j| (g * 13 + j * 7) % 64).collect();
                    let bulk = ph.get_many(&a, idxs.iter().copied()).await;
                    for (k, &i) in idxs.iter().enumerate() {
                        let single = ph.get(&a, i).await;
                        assert_eq!(bulk[k].to_bits(), single.to_bits());
                    }
                })
                .await;
            });
        });
        assert_eq!(report.results.len(), 2);
    });
}

/// Select-style cancellation: a parked remote `get` / `get_many` that is
/// polled once and then dropped — before its response arrives, or after —
/// gives its slot back quietly. The late fill finds no reader and must not
/// panic, and later reads that reuse the slots see their own values. The
/// bulk reads repeat their indices: the repeats hold no slot of their own
/// (one request per distinct element), so there is nothing extra to give
/// back — and the phase still ends with every allocated slot answered.
#[test]
fn dropping_a_parked_read_releases_its_slot() {
    walk(budget, |cell| {
        use std::future::{poll_fn, Future};
        use std::pin::Pin;
        use std::task::Poll;

        async fn poll_once<F: Future + Unpin>(f: &mut F) -> Poll<F::Output> {
            poll_fn(|cx| Poll::Ready(Pin::new(&mut *f).poll(cx))).await
        }

        for cache in [true, false] {
            for c in [cfg(cell, 2, 2), cfg(cell, 3, 1)] {
                let nodes = c.nodes();
                let n = nodes * 8;
                run(c.with_read_cache(cache), move |node| {
                    let a = node.alloc_global::<u64>(n);
                    let lo = node.local_range(&a).start;
                    node.with_local_mut(&a, |s| {
                        for (off, v) in s.iter_mut().enumerate() {
                            *v = 1000 + (lo + off) as u64;
                        }
                    });
                    node.ppm_do(2, move |vp| async move {
                        // Five elements of the next node's block.
                        let far: Vec<usize> = (0..5).map(|j| (lo + 8 + j) % n).collect();
                        let val = |i: usize| 1000 + i as u64;
                        let f = far.clone();
                        vp.global_phase(|ph| async move {
                            // Dropped while still waiting: no wave has run.
                            let mut waiting = ph.get(&a, f[0]);
                            assert!(poll_once(&mut waiting).await.is_pending());
                            drop(waiting);
                            let mut waiting = ph.get_many(&a, [f[4], f[0], f[4], f[4], f[0]]);
                            assert!(poll_once(&mut waiting).await.is_pending());
                            drop(waiting);
                            // Dropped after the response arrived: the awaited
                            // read below rides the same wave.
                            let mut answered = ph.get_many(&a, [f[1], f[2], f[1], f[1], f[2]]);
                            assert!(poll_once(&mut answered).await.is_pending());
                            assert_eq!(ph.get(&a, f[3]).await, val(f[3]));
                            drop(answered);
                            // Freed slots serve later reads correctly.
                            let twice = || f.iter().chain(&f).copied();
                            let got = ph.get_many(&a, twice()).await;
                            assert_eq!(got, twice().map(val).collect::<Vec<_>>());
                        })
                        .await;
                        vp.global_phase(|ph| async move {
                            assert_eq!(ph.get(&a, far[0]).await, val(far[0]));
                        })
                        .await;
                    });
                    let violations = node.take_violations();
                    assert!(violations.is_empty(), "checker: {violations:?}");
                });
            }
        }
    });
}

#[test]
#[should_panic(expected = "at least one VP per node")]
fn collective_do_with_zero_vps_panics() {
    walk(budget, |cell| {
        run(cfg(cell, 1, 1), move |node| {
            node.ppm_do(0, move |vp| async move {
                vp.global_phase(|_ph| async move {}).await;
            });
        });
    });
}

#[test]
fn phase_log_records_every_phase() {
    walk(budget, |cell| {
        // Read caching off: this test pins the phase log's per-phase wave
        // accounting, so every phase must actually go to the wire (with the
        // cache on, steady-state phases legitimately run zero waves — covered
        // by the read-cache tests below).
        let report = run(cfg(cell, 2, 2).with_read_cache(false), move |node| {
            let a = node.alloc_global::<u64>(16);
            node.ppm_do(4, move |vp| async move {
                let g = vp.global_rank();
                // An element in the middle of the *other* node's block.
                let remote = if vp.node_id() == 0 { 8 } else { 0 } + vp.node_rank();
                for _ in 0..3 {
                    vp.global_phase(|ph| async move {
                        let v = ph.get(&a, remote).await;
                        ph.put(&a, g, v + 1);
                    })
                    .await;
                    vp.node_phase(|_ph| async move {}).await;
                }
            });
            node.take_phase_log()
        });
        for log in &report.results {
            assert_eq!(log.len(), 6, "3 global + 3 node phases");
            let globals: Vec<_> = log
                .iter()
                .filter(|r| r.kind == ppm_core::PhaseKind::Global)
                .collect();
            let nodes_: Vec<_> = log
                .iter()
                .filter(|r| r.kind == ppm_core::PhaseKind::Node)
                .collect();
            assert_eq!(globals.len(), 3);
            assert_eq!(nodes_.len(), 3);
            for g in globals {
                assert!(g.waves >= 1, "each global phase has remote reads");
                assert!(g.bytes_out > 0);
                assert!(g.compute > ppm_simnet::SimTime::ZERO);
            }
            for n in nodes_ {
                assert_eq!(n.bytes_out, 0, "node phases are network-free");
            }
        }
        // Draining empties the log.
        let report2 = run(cfg(cell, 1, 1), move |node| {
            node.ppm_do(1, |vp| async move {
                vp.node_phase(|_| async move {}).await;
            });
            let first = node.take_phase_log().len();
            let second = node.take_phase_log().len();
            (first, second)
        });
        assert_eq!(report2.results[0], (1, 0));
    });
}

#[test]
fn read_cache_serves_repeat_fetches_across_waves() {
    walk(budget, |cell| {
        // Cross-wave dedup within one phase: VP 1 fetches elements 8 and 12 in
        // the first wave; VP 0's dependent second read of 12 must then be a
        // cache hit (no second wave) with the cache on, and a second wave with
        // it off. Values are identical either way.
        for cache in [true, false] {
            let report = run(cfg(cell, 2, 1).with_read_cache(cache), move |node| {
                let a = node.alloc_global::<u64>(16); // node 1 owns 8..16
                if node.node_id() == 1 {
                    node.with_local_mut(&a, |s| {
                        s[0] = 12; // a[8]: pointer to a[12]
                        s[4] = 7; // a[12]
                    });
                }
                let k = if node.node_id() == 0 { 2 } else { 1 };
                node.ppm_do(k, move |vp| async move {
                    let id = vp.node_id();
                    let r = vp.node_rank();
                    vp.global_phase(|ph| async move {
                        if id != 0 {
                            return;
                        }
                        if r == 0 {
                            let next = ph.get(&a, 8).await;
                            assert_eq!(next, 12);
                            let v = ph.get(&a, next as usize).await;
                            assert_eq!(v, 7);
                        } else {
                            let got = ph.get_many(&a, [8usize, 12]).await;
                            assert_eq!(got, vec![12, 7]);
                        }
                    })
                    .await;
                });
                node.ep_counters()
            });
            let c0 = &report.results[0];
            assert_eq!(c0.dedup_reads, 1, "element 8 deduplicated within wave 1");
            if cache {
                assert_eq!(c0.waves, 1, "the dependent read is served locally");
                assert_eq!(c0.cache_hits, 1);
                assert_eq!(c0.cache_misses, 3);
            } else {
                assert_eq!(c0.waves, 2, "cache off: the repeat read re-fetches");
                assert_eq!(c0.cache_hits, 0);
                assert_eq!(c0.cache_misses, 4);
            }
        }
    });
}

#[test]
fn unwritten_remote_elements_are_fetched_at_most_once() {
    walk(budget, |cell| {
        // Phase-end invalidation is per array and only when the array took
        // writes: a never-written element is fetched in the first phase and
        // served locally in every later phase — zero waves in steady state.
        for cache in [true, false] {
            let report = run(cfg(cell, 2, 1).with_read_cache(cache), move |node| {
                let a = node.alloc_global::<u64>(16);
                if node.node_id() == 1 {
                    node.with_local_mut(&a, |s| s[0] = 42);
                }
                node.ppm_do(1, move |vp| async move {
                    let id = vp.node_id();
                    for _ in 0..3 {
                        vp.global_phase(|ph| async move {
                            if id == 0 {
                                assert_eq!(ph.get(&a, 8).await, 42);
                            }
                        })
                        .await;
                    }
                });
                (node.ep_counters(), node.take_phase_log())
            });
            let (c0, log0) = &report.results[0];
            let waves: Vec<u64> = log0.iter().map(|p| p.waves).collect();
            if cache {
                assert_eq!(waves, vec![1, 0, 0], "repeat fetches are eliminated");
                assert_eq!(c0.cache_hits, 2);
                assert_eq!(c0.cache_misses, 1);
            } else {
                assert_eq!(waves, vec![1, 1, 1]);
                assert_eq!(c0.cache_hits, 0);
                assert_eq!(c0.cache_misses, 3);
            }
        }
    });
}

#[test]
fn refresh_push_keeps_rewritten_elements_coherent() {
    walk(budget, |cell| {
        // The owner rewrites an element every phase while a remote VP reads it
        // every phase: every read must see the phase-start snapshot. After the
        // second serve the owner arms the element and pushes the post-apply
        // value with its barrier messages, so the reader's steady-state phases
        // run zero waves — with no loss of coherence.
        const PHASES: u64 = 6;
        for cache in [true, false] {
            let report = run(cfg(cell, 2, 1).with_read_cache(cache), move |node| {
                let a = node.alloc_global::<u64>(16);
                node.ppm_do(1, move |vp| async move {
                    let id = vp.node_id();
                    for p in 0..PHASES {
                        vp.global_phase(|ph| async move {
                            if id == 0 {
                                // Phase-start value: the owner's write from the
                                // previous phase (0 initially).
                                assert_eq!(ph.get(&a, 8).await, p * 100);
                            } else {
                                ph.put(&a, 8, (p + 1) * 100);
                            }
                        })
                        .await;
                    }
                });
                (node.ep_counters(), node.take_phase_log())
            });
            let (c0, log0) = &report.results[0];
            let waves: Vec<u64> = log0.iter().map(|r| r.waves).collect();
            if cache {
                assert_eq!(
                    waves,
                    vec![1, 1, 0, 0, 0, 0],
                    "armed after the second serve; refresh-pushed thereafter"
                );
                assert_eq!(c0.cache_hits, 4);
            } else {
                assert_eq!(waves, vec![1; PHASES as usize]);
                assert_eq!(c0.cache_hits, 0);
            }
        }
    });
}

/// Refresh pushes go to exactly the rewritten elements that have an armed
/// serve history, array by array: the owner's written set and the history
/// overlap only partly — written elements below, between and above the served
/// ones, served elements that are never written, a second array whose
/// history outlasts its writes — and which overlap it is shows in the
/// reader's hits and misses, phase by phase.
#[test]
fn refresh_push_targets_the_written_and_served_intersection() {
    walk(budget, |cell| {
        const PHASES: u64 = 14;
        let report = run(cfg(cell, 2, 1).with_read_cache(true), move |node| {
            let a = node.alloc_global::<u64>(16); // node 1 owns 8..16 of both
            let b = node.alloc_global::<u64>(16);
            node.ppm_do(1, move |vp| async move {
                let id = vp.node_id();
                for p in 0..PHASES {
                    vp.global_phase(|ph| async move {
                        // Written every phase / every other phase / in the
                        // first three phases only.
                        let always = [8, 9, 10, 14, 15];
                        if id == 1 {
                            for i in always {
                                ph.put(&a, i, p * 100 + i as u64);
                            }
                            if p % 2 == 0 {
                                ph.put(&a, 12, p * 100 + 12);
                            }
                            if p < 3 {
                                ph.put(&b, 10, p * 100 + 10);
                            }
                            return;
                        }
                        // What phase `q`'s put left in element `i`, seen from the
                        // phase after; everything starts at 0.
                        let after = |q: Option<u64>, i: u64| q.map_or(0, |q| q * 100 + i);
                        let last = p.checked_sub(1);
                        let got = ph.get_many(&a, [9, 11, 12, 14]).await;
                        let a12 = after(last.map(|q| q - q % 2), 12);
                        assert_eq!(got, [after(last, 9), 0, a12, after(last, 14)]);
                        let got = ph.get_many(&b, [10, 15]).await;
                        assert_eq!(got, [after(last.map(|q| q.min(2)), 10), 0]);
                    })
                    .await;
                }
            });
            (node.ep_counters(), node.take_phase_log())
        });
        let (c0, log0) = &report.results[0];
        let waves: Vec<u64> = log0.iter().map(|r| r.waves).collect();
        // Captured before the per-element history lookup became one ordered walk
        // over the written indices and the history: `a[11]` (served, never
        // written) misses every phase; `a[9]`/`a[14]` hit while armed and re-earn
        // it after each TTL window; `b` stops costing waves once its writes stop.
        assert_eq!(waves, [2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]);
        assert_eq!((c0.cache_hits, c0.cache_misses), (48, 36));
    });
}

#[test]
fn ppm_do_local_runs_asynchronously_per_node() {
    walk(budget, |cell| {
        // Paper §3.3 asynchronous mode: each node runs a *different* number of
        // local `ppm_do`s with node phases, no cross-node coordination — then
        // everyone meets again in a collective do.
        let report = run(cfg(cell, 4, 2), move |node| {
            let buf = node.alloc_node::<u64>(4);
            let rounds = node.node_id() + 1; // 1..=4 asynchronous task batches
            for _ in 0..rounds {
                node.ppm_do_local(4, move |vp| async move {
                    let i = vp.node_rank();
                    vp.node_phase(|ph| async move {
                        let prev = ph.get_node(&buf, i);
                        ph.put_node(&buf, i, prev + 1);
                    })
                    .await;
                });
            }
            // Re-synchronize and combine across nodes collectively.
            let local_sum: u64 = node.with_node(&buf, |s| s.iter().sum());
            node.allreduce_nodes(local_sum, |a, b| a + b)
        });
        // Node n contributed 4·(n+1); total = 4·(1+2+3+4) = 40.
        assert!(report.results.iter().all(|&v| v == 40));
    });
}

#[test]
#[should_panic(expected = "global phases are not allowed inside ppm_do_local")]
fn global_phase_inside_local_do_panics() {
    walk(budget, |cell| {
        run(cfg(cell, 1, 1), move |node| {
            node.ppm_do_local(1, move |vp| async move {
                vp.global_phase(|_ph| async move {}).await;
            });
        });
    });
}

#[test]
#[should_panic(expected = "phases cannot be nested")]
fn nested_phases_panic() {
    walk(budget, |cell| {
        run(cfg(cell, 1, 1), move |node| {
            node.ppm_do(1, move |vp| async move {
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
#[should_panic(expected = "remote shared read inside a node phase")]
fn remote_read_in_node_phase_panics() {
    walk(budget, |cell| {
        run(cfg(cell, 2, 1), move |node| {
            let a = node.alloc_global::<u64>(8); // node 1 owns 4..8
            node.ppm_do(1, move |vp| async move {
                let me = vp.node_id();
                vp.node_phase(|ph| async move {
                    if me == 0 {
                        let _ = ph.get(&a, 7).await; // remote!
                    }
                })
                .await;
            });
        });
    });
}

#[test]
#[should_panic(expected = "only allowed inside a global phase")]
fn global_write_in_node_phase_panics() {
    walk(budget, |cell| {
        run(cfg(cell, 1, 1), move |node| {
            let a = node.alloc_global::<u64>(4);
            node.ppm_do(1, move |vp| async move {
                vp.node_phase(|ph| async move {
                    ph.put(&a, 0, 1);
                })
                .await;
            });
        });
    });
}

#[test]
#[should_panic(expected = "put and accumulate mixed")]
fn mixed_put_accumulate_panics_through_public_api() {
    walk(budget, |cell| {
        run(cfg(cell, 1, 1), move |node| {
            let a = node.alloc_global::<u64>(4);
            node.ppm_do(2, move |vp| async move {
                let r = vp.node_rank();
                vp.global_phase(|ph| async move {
                    if r == 0 {
                        ph.put(&a, 1, 5);
                    } else {
                        ph.accumulate(&a, 1, AccumOp::Add, 5);
                    }
                })
                .await;
            });
        });
    });
}

#[test]
fn cyclic_layout_spreads_ownership() {
    walk(budget, |cell| {
        let report = run(cfg(cell, 4, 1), move |node| {
            let a = node.alloc_global_with::<u64>(16, ppm_core::Layout::Cyclic);
            // Element i lives on node i % 4; initialize via direct local access.
            node.with_local_mut(&a, |s| {
                for v in s.iter_mut() {
                    *v = 1;
                }
            });
            node.ppm_do(4, move |vp| async move {
                let g = vp.global_rank();
                vp.global_phase(|ph| async move {
                    let v = ph.get(&a, g).await; // g % 4 == node for first 4 VPs? exercise mixed
                    ph.accumulate(&a, (g * 5) % 16, AccumOp::Add, v);
                })
                .await;
            });
            node.gather_global(&a).iter().sum::<u64>()
        });
        // (g*5)%16 is a permutation, so every element receives exactly one
        // accumulate contribution of value 1 — and accumulate *replaces* the
        // element with the combined contributions (phase-start value excluded).
        assert!(
            report.results.iter().all(|&s| s == 16),
            "{:?}",
            report.results
        );
    });
}

/// The panic protocol (DESIGN.md §12): a VP panic poisons its node. Its
/// payload re-raises out of `ppm_do` as soon as it is caught — no rank above
/// the panicking one is polled, and what the ranks up to it did stays where
/// it landed — and every later `ppm_do` or `ppm_do_local` on the node
/// panics naming the VP and the payload.
#[test]
fn a_vp_panic_poisons_its_node() {
    walk(budget, |cell| {
        let report = run(cfg(cell, 1, 2), |node| {
            let polled = Arc::new(AtomicU64::new(0));
            let seen = polled.clone();
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                node.ppm_do(3, move |vp| {
                    let seen = seen.clone();
                    async move {
                        let rank = vp.node_rank() as u64;
                        seen.fetch_or(1 << rank, Relaxed);
                        vp.charge_flops(100 + rank);
                        assert_ne!(rank, 1, "boom");
                    }
                })
            }));
            let text = |p: Box<dyn Any + Send>| *p.downcast::<String>().unwrap();
            let payload = text(unwound.unwrap_err());
            let again = catch_unwind(AssertUnwindSafe(|| node.ppm_do(1, |_| async {})));
            let local = catch_unwind(AssertUnwindSafe(|| node.ppm_do_local(1, |_| async {})));
            let later = [again, local].map(|r| text(r.unwrap_err()));
            (
                payload,
                later,
                polled.load(Relaxed),
                node.ep_counters().flops,
            )
        });
        let (payload, later, polled, flops) = &report.results[0];
        assert!(payload.contains("boom"), "{payload}");
        for msg in later {
            let head = "node 0 is poisoned: VP 1 panicked in an earlier ppm_do: ";
            assert_eq!(*msg, format!("{head}{payload}"));
        }
        assert_eq!((*polled, *flops), (0b011, 100 + 101));
    });
}

/// A read still parked when `ppm_do` unwinds is dropped outside any poll,
/// with its VP's scratch: it gives nothing back, quietly (a panic in that
/// drop would abort the process instead of reaching `should_panic`).
#[test]
#[should_panic(expected = "boom")]
fn parked_read_dropped_by_an_unwinding_ppm_do_is_quiet() {
    walk(budget, |cell| {
        run(cfg(cell, 2, 2).with_read_cache(false), |node| {
            let a = node.alloc_global::<u64>(8);
            let far = (node.local_range(&a).start + 4) % 8;
            node.ppm_do(2, move |vp| async move {
                let rank = vp.node_rank();
                vp.global_phase(|ph| async move {
                    assert_eq!(rank, 0, "boom");
                    ph.get(&a, far).await;
                })
                .await;
            });
        });
    });
}

/// A VP panic that unwinds `ppm_do` mid-phase — rank 0 has entered a global
/// phase and parked on a remote read, rank 1 panics — leaves the node's
/// phase open and the read queued; the node's next `ppm_do` reports the
/// panic that did it, not the barrier mismatch the open phase would make.
#[test]
fn a_panic_mid_phase_is_what_the_next_ppm_do_reports() {
    walk(budget, |cell| {
        let report = run(cfg(cell, 2, 2).with_read_cache(false), |node| {
            let a = node.alloc_global::<u64>(8);
            let far = (node.local_range(&a).start + 4) % 8;
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                node.ppm_do(2, move |vp| async move {
                    if vp.node_rank() == 1 {
                        panic!("boom");
                    }
                    vp.global_phase(|ph| async move {
                        ph.get(&a, far).await;
                    })
                    .await;
                })
            }));
            assert_eq!(*unwound.unwrap_err().downcast::<&str>().unwrap(), "boom");
            let next = catch_unwind(AssertUnwindSafe(|| node.ppm_do(2, |_| async {})));
            *next.unwrap_err().downcast::<String>().unwrap()
        });
        for (node, msg) in report.results.iter().enumerate() {
            let want = format!("node {node} is poisoned: VP 1 panicked in an earlier ppm_do: boom");
            assert_eq!(*msg, want);
        }
    });
}

/// A `Phase` smuggled out of its VP's future has no poll context to work
/// on, and says so.
#[test]
#[should_panic(expected = "shared-variable access outside a VP poll")]
fn phase_handle_outside_a_poll_names_the_cause() {
    walk(budget, |cell| {
        run(cfg(cell, 1, 1), |node| {
            let a = node.alloc_global::<u64>(4);
            let stash = std::sync::Arc::new(std::sync::Mutex::new(None));
            let out = stash.clone();
            node.ppm_do(1, move |vp| {
                let out = out.clone();
                async move {
                    vp.global_phase(|ph| async move { *out.lock().unwrap() = Some(ph) })
                        .await;
                }
            });
            let ph = stash.lock().unwrap().take().expect("phase handle");
            ph.put(&a, 0, 1);
        });
    });
}

/// The owned-range cache follows a migration: once the adaptive balancer
/// has moved the cut, reads return the right elements and gets, puts and
/// accumulates on both sides of the old and the new cut count as local or
/// remote by the *new* ownership — the same on a rerun.
#[test]
fn owned_range_cache_follows_a_migration() {
    walk(budget, |cell| {
        const N: usize = 64;
        const VPS: usize = 4;
        let observe = || {
            let c = cfg(cell, 2, 2)
                .with_adaptive_balance(true)
                .with_read_cache(false)
                .with_checker(false);
            run(c, |node| {
                let a = node.alloc_global_balanced::<u64>(N);
                let b = node.alloc_global_balanced::<u64>(N);
                let lo = node.local_range(&a).start;
                node.with_local_mut(&a, |s| {
                    for (off, v) in s.iter_mut().enumerate() {
                        *v = 3 * (lo + off) as u64 + 1;
                    }
                });
                let heavy = node.node_id() == 0;
                // Load node 0 until the cut moves.
                node.ppm_do(VPS, move |vp| async move {
                    for _ in 0..6 {
                        let v = vp.clone();
                        vp.global_phase(|_| async move {
                            v.charge_flops(if heavy { 400_000 } else { 1 })
                        })
                        .await;
                    }
                });
                let owned = node.local_range(&a);
                assert_eq!(owned, node.local_range(&b));
                // Probe every element from every node: one phase each of gets,
                // puts and accumulates, VPs striding the index space.
                let before = node.ep_counters();
                node.ppm_do(VPS, move |vp| async move {
                    let rank = vp.node_rank();
                    let mine = move || (rank..N).step_by(VPS);
                    vp.global_phase(|ph| async move {
                        for i in mine() {
                            assert_eq!(ph.get(&a, i).await, 3 * i as u64 + 1);
                        }
                    })
                    .await;
                    vp.global_phase(
                        |ph| async move { mine().for_each(|i| ph.put(&b, i, i as u64)) },
                    )
                    .await;
                    vp.global_phase(|ph| async move {
                        mine().for_each(|i| ph.accumulate(&b, i, AccumOp::Add, 1))
                    })
                    .await;
                });
                let d = node.ep_counters().delta(&before);
                (owned, d.local_accesses, d.remote_gets, d.remote_puts)
            })
            .results
        };
        let seq = observe();
        assert_ne!(seq[0].0, 0..N / 2, "the cut never moved: nothing tested");
        for (owned, local, gets, puts) in &seq {
            let (mine, theirs) = (owned.len() as u64, (N - owned.len()) as u64);
            assert_eq!((*local, *gets, *puts), (3 * mine, theirs, 2 * theirs));
        }
        assert_eq!(observe(), seq, "rerun");
    });
}

/// Ownership shadows the read cache on the bulk path too. Every VP reads the
/// whole array each phase, so each node caches the other's half; the balancer
/// then moves the cut *inside* a construct (caches survive: nothing is
/// written, `forget_arrays` keeps them), leaving node 1 owning elements it
/// still holds cached lines for, in tiles the rebind left cold, next to lines
/// that are still remote. A `get_many` must then read, count and fault
/// exactly like one `get` per element — never serve an owned element from
/// its stale line — and a rerun observes the same.
#[test]
fn stale_cached_lines_stay_shadowed_by_ownership_in_bulk_reads() {
    const N: usize = 64;
    const VPS: usize = 4;
    let observe = |bulk: bool| {
        let c = cfg(Cell::default(), 2, 2)
            .with_adaptive_balance(true)
            .with_read_cache(true)
            .with_tile_budget(64)
            .with_checker(false);
        let report = run(c, move |node| {
            let a = node.alloc_global_balanced::<u64>(N);
            let lo = node.local_range(&a).start;
            node.with_local_mut(&a, |s| {
                for (off, v) in s.iter_mut().enumerate() {
                    *v = 3 * (lo + off) as u64 + 1;
                }
            });
            let heavy = node.node_id() == 0;
            node.ppm_do(VPS, move |vp| async move {
                for _ in 0..8 {
                    let v = vp.clone();
                    vp.global_phase(|ph| async move {
                        v.charge_flops(if heavy { 400_000 } else { 1 });
                        let got = if bulk {
                            ph.get_many(&a, 0..N).await
                        } else {
                            // One `get` per element, issued in one poll and
                            // awaited together, as a bulk read's elements are.
                            let mut reads: Vec<_> = (0..N).map(|i| ph.get(&a, i)).collect();
                            let mut got = vec![None; N];
                            std::future::poll_fn(|cx| {
                                for (read, got) in reads.iter_mut().zip(&mut got) {
                                    if got.is_none() {
                                        if let Poll::Ready(v) = Pin::new(read).poll(cx) {
                                            *got = Some(v);
                                        }
                                    }
                                }
                                match got.iter().copied().collect::<Option<Vec<u64>>>() {
                                    Some(values) => Poll::Ready(values),
                                    None => Poll::Pending,
                                }
                            })
                            .await
                        };
                        assert!(got.iter().enumerate().all(|(i, &x)| x == 3 * i as u64 + 1));
                    })
                    .await;
                }
            });
            (node.local_range(&a), node.ep_counters())
        });
        (report.makespan(), report.results)
    };
    let each = observe(false);
    let (grown, c) = &each.1[1];
    assert!(grown.len() > N / 2, "the cut never moved: nothing tested");
    assert!(c.cache_hits > 0 && c.tile_refills > 0 && c.remote_gets as usize > N / 2);
    // Phase by phase node 1 reads each element VPS times: locally if it owns
    // it by then, else from the wire (first VP of the first phase) or the cache.
    assert_eq!(
        c.local_accesses + c.cache_hits + c.cache_misses,
        (8 * VPS * N) as u64
    );
    assert_eq!(observe(true), each, "bulk");
    assert_eq!(observe(false), each, "rerun");
}

/// `GlobalShared#0` and `NodeShared#0` are two arrays under one id, and both
/// are the same kind of object below their handles — so everything keyed by a
/// bare array id (tiles, the read cache, serve history, the balancer) must be
/// handed global ids only. One job with every such feature on: the global
/// array is tiled, read in bulk across the cut the balancer keeps moving, and
/// rewritten at an element its peer has been served, so lines are cached,
/// invalidated and pushed; next to that the node array is read, put and
/// accumulated in global *and* node phases. Both end as a sequential run
/// leaves them, the checker is silent, and — but for the node accesses
/// themselves — every counter and every phase's bytes are those of the same
/// job with the node array left alone.
#[test]
fn a_node_array_and_the_global_array_of_its_id_share_nothing() {
    const N: usize = 64;
    const VPS: usize = 4;
    const PHASES: u64 = 8;
    let observe = |with_node: bool| {
        let c = cfg(Cell::default(), 2, 2)
            .with_adaptive_balance(true)
            .with_read_cache(true)
            .with_tile_budget(64)
            .with_replication(true)
            .with_checker(true);
        let report = run(c, move |node| {
            let a = node.alloc_global_balanced::<u64>(N);
            let s = node.alloc_node::<u64>(VPS + 1);
            assert_eq!(
                (format!("{a:?}"), format!("{s:?}")),
                (
                    "GlobalShared#0(len=64)".into(),
                    "NodeShared#0(len=5)".into()
                )
            );
            let lo = node.local_range(&a).start;
            node.with_local_mut(&a, |part| {
                for (off, v) in part.iter_mut().enumerate() {
                    *v = 3 * (lo + off) as u64 + 1;
                }
            });
            let heavy = node.node_id() == 0;
            node.ppm_do(VPS, move |vp| async move {
                let rank = vp.node_rank();
                for phase in 0..PHASES {
                    let v = vp.clone();
                    vp.global_phase(|ph| async move {
                        v.charge_flops(if heavy { 400_000 } else { 1 });
                        // Earlier phases each rewrote one element.
                        let got = ph.get_many(&a, 0..N).await;
                        let want = |i: usize| {
                            if (i as u64) < phase {
                                2 * VPS
                            } else {
                                3 * i + 1
                            }
                        };
                        assert!(got.iter().enumerate().all(|(i, &x)| x == want(i) as u64));
                        ph.accumulate(&a, phase as usize, AccumOp::Add, 1);
                        if with_node {
                            let seen = ph.get_node(&s, rank);
                            ph.put_node(&s, rank, seen + 1);
                            ph.accumulate_node(&s, VPS, AccumOp::Add, 1);
                        }
                    })
                    .await;
                    vp.node_phase(|ph| async move {
                        if with_node {
                            let all = ph.get_node(&s, VPS);
                            ph.put_node(&s, rank, ph.get_node(&s, rank) + all);
                            ph.accumulate_node(&s, VPS, AccumOp::Max, rank as u64);
                        }
                    })
                    .await;
                }
            });
            assert_eq!(node.take_violations(), vec![]);
            let global_bytes: (u64, u64) = (node.take_phase_log().iter())
                .filter(|p| p.kind == ppm_core::PhaseKind::Global)
                .fold((0, 0), |(o, i), p| (o + p.bytes_out, i + p.bytes_in));
            let owned = node.local_range(&a);
            let part = node.with_local(&a, |part| part.to_vec());
            let shared = node.with_node(&s, |s| s.to_vec());
            (owned, part, shared, node.ep_counters(), global_bytes)
        });
        report.results
    };
    let with = observe(true);
    let mut a = vec![0; N];
    for (owned, part, shared, ..) in &with {
        a[owned.clone()].copy_from_slice(part);
        let mut want = vec![PHASES * (1 + VPS as u64); VPS];
        want.push(VPS as u64 - 1);
        assert_eq!(shared, &want);
    }
    let want = |i: usize| {
        if (i as u64) < PHASES {
            2 * VPS
        } else {
            3 * i + 1
        }
    };
    assert_eq!(a, (0..N).map(|i| want(i) as u64).collect::<Vec<_>>());
    let c = &with[1].3;
    assert_ne!(with[0].0, 0..N / 2, "the cut never moved: nothing tested");
    assert!(c.tile_refills > 0 && c.cache_hits > 0 && c.remote_gets > 0);

    let without = observe(false);
    for (with, without) in with.iter().zip(&without) {
        assert_eq!(
            (&with.0, &with.1, with.4),
            (&without.0, &without.1, without.4)
        );
        // Seven node accesses per VP per phase pair, and nothing else.
        let node_accesses = 7 * VPS as u64 * PHASES;
        let mut counters = with.3;
        counters.local_accesses -= node_accesses;
        assert_eq!(counters, without.3);
    }
    assert_eq!(observe(true), with, "rerun");
}
