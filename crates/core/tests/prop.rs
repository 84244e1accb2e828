//! Property-based tests of the PPM runtime (in-repo `testkit` harness).
//!
//! The centerpiece is a model-based test: arbitrary programs of shared
//! reads/puts/accumulates from arbitrary VPs on arbitrary machine shapes
//! are checked against a tiny sequential interpreter of the paper's phase
//! semantics. The repeated-bulk-read property runs with the read cache on
//! and off — one of the few places the cache-off path is still exercised
//! (`crates/apps/tests/perf_gates.rs` lists them).

use ppm_core::testkit::{forall, walk, Cell, Gen, Shrink};
use ppm_core::{prop_assert, prop_assert_eq};
use ppm_core::{run, AccumOp, Dist, Layout, PpmConfig};
use ppm_core::{Phase, PhaseKind, PhaseViolation, Space};
use ppm_simnet::{trace_diff, MachineConfig};

/// The cells the runtime properties walk: adaptive balance.
fn adaptive(c: Cell) -> Cell {
    Cell {
        adaptive: c.adaptive,
        ..Cell::default()
    }
}

/// One shared-variable operation a VP performs inside the phase.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Read `idx`; the value must equal the phase-start state.
    Get(usize),
    /// Write `val` to `idx`.
    Put(usize, i64),
    /// Accumulate `val` into `idx`.
    Accum(usize, i64),
}

// Ops shrink by simplifying the value; the index stays (dropping whole ops
// is the vector's job).
impl Shrink for Op {
    fn shrink(&self) -> Vec<Self> {
        match *self {
            Op::Get(_) => Vec::new(),
            Op::Put(i, v) => v.shrink().into_iter().map(|v| Op::Put(i, v)).collect(),
            Op::Accum(i, v) => v.shrink().into_iter().map(|v| Op::Accum(i, v)).collect(),
        }
    }
}

#[derive(Debug, Clone)]
struct Program {
    nodes: u32,
    cores: u32,
    len: usize,
    /// Per node, per VP: the op list. Generation segregates put and
    /// accumulate targets per element, so kinds never mix.
    vps: Vec<Vec<Vec<Op>>>,
}

impl Shrink for Program {
    fn shrink(&self) -> Vec<Self> {
        let mut c = Vec::new();
        // Fewer ops: shrink the op lists (possibly to empty), keeping the
        // node/VP structure valid.
        for (n, node) in self.vps.iter().enumerate() {
            for (v, ops) in node.iter().enumerate() {
                for smaller in ops.shrink() {
                    let mut p = self.clone();
                    p.vps[n][v] = smaller;
                    c.push(p);
                }
            }
        }
        // Fewer VPs on a node (keep >= 1 per node: ppm_do requires it).
        for (n, node) in self.vps.iter().enumerate() {
            if node.len() > 1 {
                let mut p = self.clone();
                p.vps[n].pop();
                c.push(p);
            }
        }
        // Fewer nodes.
        if self.nodes > 1 {
            let mut p = self.clone();
            p.nodes -= 1;
            p.vps.pop();
            c.push(p);
        }
        c
    }
}

fn gen_program(g: &mut Gen) -> Program {
    let nodes = g.u32_in(1..4);
    let cores = g.u32_in(1..3);
    let len = g.usize_in(1..24);
    let accum_elem: Vec<bool> = (0..len).map(|_| g.bool()).collect();
    let vps: Vec<Vec<Vec<Op>>> = (0..nodes)
        .map(|_| {
            let nvps = g.usize_in(1..4);
            (0..nvps)
                .map(|_| {
                    g.vec(0..12, |g| {
                        let idx = g.usize_in(0..len);
                        let val = g.i64_in(-50..50);
                        match g.u32_in(0..3) {
                            0 => Op::Get(idx),
                            _ if accum_elem[idx] => Op::Accum(idx, val),
                            _ => Op::Put(idx, val),
                        }
                    })
                })
                .collect()
        })
        .collect();
    Program {
        nodes,
        cores,
        len,
        vps,
    }
}

/// Shrink candidates can desynchronize `nodes` and `vps.len()` or leave a
/// node with zero VPs; treat those as out-of-contract (vacuously passing).
fn valid(p: &Program) -> bool {
    p.nodes >= 1
        && p.cores >= 1
        && p.len >= 1
        && p.vps.len() == p.nodes as usize
        && p.vps.iter().all(|n| !n.is_empty())
        && p.vps.iter().flatten().flatten().all(|op| match *op {
            Op::Get(i) | Op::Put(i, _) | Op::Accum(i, _) => i < p.len,
        })
}

/// Sequential interpreter of the paper's phase semantics.
fn interpret(p: &Program, initial: &[i64]) -> Vec<i64> {
    #[derive(Clone, Copy)]
    enum Pending {
        None,
        Put { key: (u64, u64), val: i64 },
        Accum(i64),
    }
    let mut pending = vec![Pending::None; p.len];
    let mut global_rank = 0u64;
    for node in &p.vps {
        for vp in node {
            let mut seq = 0u64;
            for op in vp {
                match *op {
                    Op::Get(_) => {}
                    Op::Put(idx, val) => {
                        let key = (global_rank, seq);
                        seq += 1;
                        pending[idx] = match pending[idx] {
                            Pending::Put { key: k, .. } if k > key => pending[idx],
                            Pending::Accum(_) => unreachable!("generation segregates kinds"),
                            _ => Pending::Put { key, val },
                        };
                    }
                    Op::Accum(idx, val) => {
                        pending[idx] = match pending[idx] {
                            Pending::Accum(acc) => Pending::Accum(acc + val),
                            Pending::None => Pending::Accum(val),
                            Pending::Put { .. } => unreachable!("generation segregates kinds"),
                        };
                    }
                }
            }
            global_rank += 1;
        }
    }
    initial
        .iter()
        .enumerate()
        .map(|(i, &v)| match pending[i] {
            Pending::None => v,
            Pending::Put { val, .. } => val,
            Pending::Accum(acc) => acc,
        })
        .collect()
}

/// Arbitrary one-phase programs match the sequential interpreter, and
/// every in-phase read observes the phase-start snapshot.
#[test]
fn phase_semantics_match_model() {
    walk(adaptive, phase_semantics_match_model_at);
}

fn phase_semantics_match_model_at(cell: Cell) {
    forall("phase_semantics_match_model", 24, gen_program, |prog| {
        if !valid(prog) {
            return Ok(());
        }
        let initial: Vec<i64> = (0..prog.len as i64).map(|i| i * 7 - 3).collect();
        let expected = interpret(prog, &initial);

        let prog2 = prog.clone();
        let init2 = initial.clone();
        // The model-based oracle already asserts on conflicting writes by
        // design (generated programs may put the same element from many
        // VPs), so the conformance checker is off here — conformance.rs
        // covers it.
        let report = run(
            cell.apply(PpmConfig::new(MachineConfig::new(prog.nodes, prog.cores)))
                .with_checker(false),
            move |node| {
                let a = node.alloc_global::<i64>(prog2.len);
                let r = node.local_range(&a);
                node.with_local_mut(&a, |s| s.copy_from_slice(&init2[r.clone()]));
                let my_vps = std::sync::Arc::new(prog2.vps[node.node_id()].clone());
                let init = std::sync::Arc::new(init2.clone());
                node.ppm_do(my_vps.len(), move |vp| {
                    let ops = my_vps[vp.node_rank()].clone();
                    let init = init.clone();
                    async move {
                        vp.global_phase(|ph| async move {
                            for op in ops {
                                match op {
                                    Op::Get(idx) => {
                                        let v = ph.get(&a, idx).await;
                                        assert_eq!(v, init[idx], "snapshot read");
                                    }
                                    Op::Put(idx, val) => ph.put(&a, idx, val),
                                    Op::Accum(idx, val) => {
                                        ph.accumulate(&a, idx, AccumOp::Add, val)
                                    }
                                }
                            }
                        })
                        .await;
                    }
                });
                node.gather_global(&a)
            },
        );
        for got in report.results {
            prop_assert_eq!(got, expected);
        }
        Ok(())
    });
}

/// Block and cyclic distributions are bijections for any shape.
#[test]
fn distributions_are_bijections() {
    forall(
        "distributions_are_bijections",
        64,
        |g| (g.usize_in(0..200), g.usize_in(1..16), g.bool()),
        |&(len, nodes, cyclic)| {
            if nodes == 0 {
                return Ok(());
            }
            let d = if cyclic {
                Dist::cyclic(len, nodes)
            } else {
                Dist::block(len, nodes)
            };
            let mut counts = vec![0usize; nodes];
            for i in 0..len {
                let n = d.owner(i);
                let off = d.local_offset(i);
                prop_assert!(n < nodes);
                prop_assert!(off < d.local_len(n));
                prop_assert_eq!(d.global_index(n, off), i);
                counts[n] += 1;
            }
            for (n, &c) in counts.iter().enumerate() {
                prop_assert_eq!(c, d.local_len(n));
            }
            Ok(())
        },
    );
}

/// `Layout::Weighted` is a bijection for arbitrary prefix-summed bounds:
/// owner/offset round-trip through `global_index`, and the per-node
/// ranges tile `0..len` with no gaps or overlaps — including zero-length
/// spans and `len < nodes` shapes (generated deltas may all be zero).
#[test]
fn weighted_distributions_are_bijections() {
    forall(
        "weighted_distributions_are_bijections",
        64,
        |g| g.vec(1..10, |g| g.usize_in(0..12)),
        |deltas| {
            if deltas.is_empty() {
                return Ok(());
            }
            let nodes = deltas.len();
            let mut bounds = vec![0usize];
            for &d in deltas {
                bounds.push(bounds.last().unwrap() + d);
            }
            let len = *bounds.last().unwrap();
            let d = Dist::weighted(len, nodes, std::sync::Arc::new(bounds));
            let mut counts = vec![0usize; nodes];
            for i in 0..len {
                let n = d.owner(i);
                let off = d.local_offset(i);
                prop_assert!(n < nodes);
                prop_assert!(off < d.local_len(n));
                prop_assert_eq!(d.global_index(n, off), i);
                counts[n] += 1;
            }
            // The owned ranges tile the array exactly, zero-length nodes
            // included.
            let mut cursor = 0usize;
            for (n, &count) in counts.iter().enumerate() {
                let r = d.owned_range(n);
                prop_assert_eq!(r.start, cursor);
                prop_assert_eq!(r.len(), d.local_len(n));
                prop_assert_eq!(count, d.local_len(n));
                cursor = r.end;
            }
            prop_assert_eq!(cursor, len);
            Ok(())
        },
    );
}

/// `Dist::weighted_shares` is total for arbitrary weight vectors (zeros,
/// spikes, `len < nodes`) and degenerates to exactly the `Block`
/// boundaries under uniform — including all-zero — weights, so switching
/// the balancer on cannot perturb an already balanced layout.
#[test]
fn weighted_shares_cover_and_degenerate_to_block() {
    forall(
        "weighted_shares_cover_and_degenerate_to_block",
        64,
        |g| {
            (
                g.usize_in(0..60),
                g.vec(1..10, |g| g.u64_in(0..100)),
                g.u64_in(0..100),
            )
        },
        |(len, weights, w)| {
            if weights.is_empty() {
                return Ok(());
            }
            let (len, nodes) = (*len, weights.len());
            let d = Dist::weighted_shares(len, nodes, weights);
            let b = d.bounds();
            prop_assert_eq!(b.len(), nodes + 1);
            prop_assert_eq!(b[0], 0);
            prop_assert_eq!(b[nodes], len);
            prop_assert!(b.windows(2).all(|w| w[0] <= w[1]));
            // A node with positive weight gets a nonempty span whenever
            // elements remain to its left (greedy ceiling shares).
            let total: usize = (0..nodes).map(|n| d.local_len(n)).sum();
            prop_assert_eq!(total, len);
            // Uniform weights (any constant, zero included) reproduce the
            // Block boundaries bit-for-bit.
            let uniform = Dist::weighted_shares(len, nodes, &vec![*w; nodes]);
            prop_assert_eq!(uniform.bounds(), Dist::block(len, nodes).bounds());
            Ok(())
        },
    );
}

/// The distributed sample sort agrees with std sort for arbitrary data
/// and shapes.
#[test]
fn sample_sort_matches_std() {
    walk(adaptive, sample_sort_matches_std_at);
}

fn sample_sort_matches_std_at(cell: Cell) {
    forall(
        "sample_sort_matches_std",
        24,
        |g| (g.vec(0..120, |g| g.u64_in(0..1000)), g.u32_in(1..5)),
        |(vals, nodes)| {
            if *nodes == 0 {
                return Ok(());
            }
            let n = vals.len();
            let mut expected = vals.clone();
            expected.sort_unstable();
            let vals = vals.clone();
            let cfg = cell.apply(PpmConfig::new(MachineConfig::new(*nodes, 2)));
            let report = run(cfg, move |node| {
                let g = node.alloc_global::<u64>(n);
                let r = node.local_range(&g);
                let vals = vals.clone();
                node.with_local_mut(&g, |s| s.copy_from_slice(&vals[r.clone()]));
                ppm_core::util::sort_global_u64(node, &g);
                let sorted = node.gather_global(&g);
                (sorted, node.take_violations())
            });
            for (got, violations) in report.results {
                prop_assert_eq!(got, expected);
                prop_assert!(violations.is_empty(), format!("{violations:?}"));
            }
            Ok(())
        },
    );
}

/// Wire emission is a function of the buffered write SET and the queued
/// read SET, never of the order a VP issued them in: shuffling each VP's
/// put order over its (disjoint) target elements and its bulk-read order
/// over a (heavily shared) sample — and rerunning unshuffled — leaves
/// results, the simulated makespan, the
/// counters AND the whole trace — every wave's entry and byte counts,
/// every partial wake's destination order and fill count — bit-identical.
/// Guards the flat write-log drain (sorted by index at phase end) and the
/// wave builder (request queues sorted by (array, idx) per destination)
/// against regressing into an insertion-ordered — or hash-ordered —
/// emission path.
#[test]
fn emission_is_insertion_order_independent() {
    walk(adaptive, emission_is_insertion_order_independent_at);
}

fn emission_is_insertion_order_independent_at(cell: Cell) {
    forall(
        "emission_is_insertion_order_independent",
        16,
        |g| (g.u32_in(2..5), g.usize_in(8..40), g.u64()),
        |&(nodes, len, perm_seed)| {
            let run_with = |shuffled: bool| {
                let cfg = cell.apply(PpmConfig::new(MachineConfig::new(nodes, 2)));
                let sink = ppm_core::TraceSink::new();
                let report = ppm_core::run_traced(cfg, &sink, "emission", move |node| {
                    let a = node.alloc_global::<i64>(len);
                    let sums = node.alloc_global::<i64>(1);
                    node.ppm_do(4, move |vp| async move {
                        let g = vp.global_rank();
                        let k = vp.global_vp_count();
                        let shuffle = |idxs: &mut Vec<usize>, salt: u64| {
                            if shuffled {
                                Gen::new(perm_seed ^ salt ^ g as u64).shuffle(idxs);
                            }
                        };
                        vp.global_phase(|ph| async move {
                            // Disjoint targets per VP; the shuffled run
                            // buffers the same writes in a different order.
                            let mut idxs: Vec<usize> = (0..len).filter(|i| i % k == g).collect();
                            shuffle(&mut idxs, 0);
                            for i in idxs {
                                ph.put(&a, i, (i * 3 + 1) as i64);
                            }
                        })
                        .await;
                        vp.global_phase(|ph| async move {
                            // Two of every three elements, so most are
                            // wanted by several VPs of a node at once and
                            // span every destination; then a dependent
                            // second wave.
                            let mut idxs: Vec<usize> =
                                (0..len).filter(|i| i % 3 != g % 3).collect();
                            shuffle(&mut idxs, 1);
                            let first: i64 = ph.get_many(&a, idxs).await.iter().sum();
                            let next = ph.get(&a, first as usize % len).await;
                            ph.accumulate(&sums, 0, AccumOp::Add, first ^ next);
                        })
                        .await;
                    });
                    let violations = node.take_violations();
                    assert!(violations.is_empty(), "checker: {violations:?}");
                    (node.gather_global(&a), node.gather_global(&sums))
                });
                (
                    report.results.clone(),
                    report.makespan(),
                    report.total_counters(),
                    sink.events(),
                )
            };
            let base = run_with(false);
            prop_assert!(base.2.dedup_reads > 0 && base.2.waves > 0);
            for shuffled in [true, false] {
                let got = run_with(shuffled);
                prop_assert_eq!(&base.0, &got.0);
                prop_assert_eq!(base.1, got.1);
                prop_assert_eq!(&base.2, &got.2);
                prop_assert_eq!(trace_diff(&base.3, &got.3), None);
            }
            Ok(())
        },
    );
}

/// A bulk read combines its repeated remote indices at the source — one slot
/// and one queued request per distinct element — and nothing else can tell:
/// random bulk reads drawn with replacement from a small pool, over local,
/// remote, cached and cold-tile elements (read cache on and off, in core and
/// under a 64 B tile budget), return the phase-start contents; and makespan,
/// counters, checker violations (a write-write conflict and read-own-write
/// hazards are planted) and the whole trace are equal on a rerun and under
/// any order of the indices. The one place the combining
/// *is* visible pins it: a partial wake's `woken` argument counts slots
/// filled, which for the first wave must be each VP's *distinct* indices
/// owned by that destination.
#[test]
fn repeated_bulk_read_indices_are_combined_invisibly() {
    walk(adaptive, repeated_bulk_read_indices_at);
}

fn repeated_bulk_read_indices_at(cell: Cell) {
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    use std::sync::Arc;
    const VPS: usize = 2;
    let combined = AtomicUsize::new(0);
    forall(
        "repeated_bulk_read_indices_are_combined_invisibly",
        8,
        |g| {
            let nodes = g.u32_in(3..5);
            let len = g.usize_in(40..90);
            let lists: Vec<Vec<usize>> = (0..nodes as usize * VPS)
                .map(|_| {
                    let pool = g.vec(1..9, |g| g.usize_in(0..len));
                    g.vec(1..60, |g| pool[g.usize_in(0..pool.len())])
                })
                .collect();
            (nodes, len, lists, g.u64())
        },
        |(nodes, len, lists, perm_seed)| {
            let (nodes, len, perm_seed) = (*nodes, *len, *perm_seed);
            let total = nodes as usize * VPS;
            let in_contract = lists.len() == total
                && len > total
                && lists
                    .iter()
                    .all(|l| !l.is_empty() && l.iter().all(|&i| i < len));
            if !in_contract {
                return Ok(());
            }
            // Phase 1 rewrites element `g` from VP `g` and — conflicting —
            // the last element from VPs 0 and 1 (the higher rank wins).
            let init = |i: usize| i as i64 * 7 - 3;
            let after = move |i: usize| match i {
                i if i == len - 1 => 2001,
                i if i < total => 1000 + i as i64,
                i => init(i),
            };
            let run_with = |cache: bool, budget: u64, shuffled: bool| {
                let cfg = cell
                    .apply(PpmConfig::new(MachineConfig::new(nodes, 2)))
                    .with_checker(true)
                    .with_read_cache(cache)
                    .with_tile_budget(budget);
                let sink = ppm_core::TraceSink::new();
                let lists = Arc::new(lists.clone());
                let report = ppm_core::run_traced(cfg, &sink, "repeats", move |node| {
                    let a = node.alloc_global::<i64>(len);
                    let r = node.local_range(&a);
                    node.with_local_mut(&a, |s| {
                        s.iter_mut().zip(r).for_each(|(v, i)| *v = init(i));
                    });
                    let wrong = Arc::new(AtomicUsize::new(0));
                    let (lists, seen) = (lists.clone(), wrong.clone());
                    node.ppm_do(VPS, move |vp| {
                        let g = vp.global_rank();
                        let mut list = lists[g].clone();
                        if shuffled {
                            Gen::new(perm_seed ^ g as u64).shuffle(&mut list);
                        }
                        let wrong = seen.clone();
                        async move {
                            let (l, w) = (list.clone(), wrong.clone());
                            vp.global_phase(|ph| async move {
                                let got = ph.get_many(&a, l.iter().copied()).await;
                                let bad = got.iter().zip(&l).filter(|&(&v, &i)| v != init(i));
                                w.fetch_add(bad.count(), Relaxed);
                                ph.put(&a, g, 1000 + g as i64);
                                if g < 2 {
                                    ph.put(&a, len - 1, 2000 + g as i64);
                                }
                            })
                            .await;
                            vp.global_phase(|ph| async move {
                                // Written first: a read of it below is a
                                // read-own-write hazard, repeated or not.
                                let own = *list.iter().min().expect("non-empty");
                                ph.put(&a, own, 0);
                                let got = ph.get_many(&a, list.iter().copied()).await;
                                let bad = got.iter().zip(&list).filter(|&(&v, &i)| v != after(i));
                                wrong.fetch_add(bad.count(), Relaxed);
                                if ph.get(&a, own).await != after(own) {
                                    wrong.fetch_add(1, Relaxed);
                                }
                            })
                            .await;
                        }
                    });
                    (wrong.load(Relaxed), format!("{:?}", node.take_violations()))
                });
                (
                    report.results.clone(),
                    report.makespan(),
                    report.total_counters(),
                    sink.events(),
                )
            };
            let dist = Dist::block(len, nodes as usize);
            for (cache, budget) in [(true, 0), (false, 0), (true, 64), (false, 64)] {
                let base = run_with(cache, budget, false);
                prop_assert!(base.0.iter().all(|(wrong, _)| *wrong == 0));
                // Each violation is reported where it is detected.
                let violations: String = base.0.iter().map(|(_, v)| v.as_str()).collect();
                prop_assert!(violations.contains("WriteWriteConflict"));
                prop_assert!(violations.contains("ReadOwnWrite"));
                prop_assert_eq!(base.2.tile_refills > 0, budget > 0);
                combined.fetch_add(base.2.dedup_reads as usize, Relaxed);
                for shuffled in [true, false] {
                    let got = run_with(cache, budget, shuffled);
                    prop_assert_eq!(&base.0, &got.0);
                    prop_assert_eq!(base.1, got.1);
                    prop_assert_eq!(&base.2, &got.2);
                    prop_assert_eq!(trace_diff(&base.3, &got.3), None);
                }
                // First wave of the job, node by node: the j-th partial wake
                // follows the j-th smallest destination asked.
                for n in 0..nodes as usize {
                    let distinct_for = |dest: usize| -> u64 {
                        let per_vp = lists[n * VPS..(n + 1) * VPS].iter().map(|l| {
                            let mut mine: Vec<usize> = l
                                .iter()
                                .copied()
                                .filter(|&i| dist.owner(i) == dest)
                                .collect();
                            mine.sort_unstable();
                            mine.dedup();
                            mine.len() as u64
                        });
                        per_vp.sum()
                    };
                    let dests: Vec<usize> = (0..nodes as usize)
                        .filter(|&d| d != n && distinct_for(d) > 0)
                        .collect();
                    let woken: Vec<u64> = base
                        .3
                        .iter()
                        .filter(|e| e.tid as usize == n)
                        .take_while(|e| e.name != "wave")
                        .filter(|e| e.name == "partial_wake")
                        .map(|e| e.arg_u64("woken").expect("partial_wake carries woken"))
                        .collect();
                    let want: Vec<u64> = dests
                        .iter()
                        .rev()
                        .skip(1)
                        .rev()
                        .map(|&d| distinct_for(d))
                        .collect();
                    prop_assert_eq!(woken, want);
                }
            }
            Ok(())
        },
    );
    assert!(
        combined.into_inner() > 0,
        "no generated case ever repeated a remote index: the property tested nothing"
    );
}

/// One step of a [`BulkScript`] VP. Array 0 holds `i64` (one element per
/// tile under the 64 B budget), array 1 `i32` (two per tile), array 2
/// `[i64; 2]` — wider than a read's 8-byte records, and only ever `put`.
#[derive(Debug, Clone, PartialEq)]
enum BulkOp {
    /// Read these elements of an array, repeats and all.
    Read(usize, Vec<usize>),
    /// Read a slice `lo..lo + n` of an array.
    Slice(usize, usize, usize),
    /// `put` (or, `true`, `accumulate`) these `(element, value)` pairs.
    Write(usize, bool, Vec<(usize, i32)>),
    /// Charge private work, so compute differs from VP to VP.
    Flops(u64),
}

impl Shrink for BulkOp {}

/// A multi-phase program of bulk-shaped accesses: `vps[node][vp][phase]` is
/// what that VP does in that (global) phase. Shrinking drops steps only.
#[derive(Debug, Clone)]
struct BulkScript {
    nodes: usize,
    len: usize,
    vps: Vec<Vec<Vec<Vec<BulkOp>>>>,
}

impl Shrink for BulkScript {
    fn shrink(&self) -> Vec<Self> {
        let mut c = Vec::new();
        for (n, node) in self.vps.iter().enumerate() {
            for (v, phases) in node.iter().enumerate() {
                for (p, ops) in phases.iter().enumerate() {
                    for smaller in ops.shrink() {
                        let mut s = self.clone();
                        s.vps[n][v][p] = smaller;
                        c.push(s);
                    }
                }
            }
        }
        c
    }
}

impl BulkScript {
    /// This script with array `arr`'s steps only.
    fn only(&self, arr: usize) -> BulkScript {
        let keep = |op: &&BulkOp| match op {
            BulkOp::Read(a, _) | BulkOp::Slice(a, ..) | BulkOp::Write(a, ..) => *a == arr,
            BulkOp::Flops(_) => false,
        };
        let ops = |ops: &Vec<BulkOp>| ops.iter().filter(keep).cloned().collect();
        let vps = self.vps.iter().map(|node| {
            let vp = |phases: &Vec<Vec<BulkOp>>| phases.iter().map(ops).collect();
            node.iter().map(vp).collect()
        });
        BulkScript {
            vps: vps.collect(),
            ..self.clone()
        }
    }
}

fn gen_bulk_script(g: &mut Gen) -> BulkScript {
    let nodes = g.usize_in(3..5);
    let len = g.usize_in(24..64);
    let phases = g.usize_in(2..5);
    // Per array and element: put or accumulate target, never both; the
    // wide array takes puts only.
    let mut accum: Vec<Vec<bool>> = (0..2).map(|_| g.vec(len..len, |g| g.bool())).collect();
    accum.push(vec![false; len]);
    let vps = (0..nodes)
        .map(|_| {
            g.vec(1..4, |g| {
                // A VP keeps to a few elements, so it repeats indices, reads
                // what it wrote this phase and what it read (and cached)
                // in the last one; slices take it everywhere else.
                let pool = g.vec(2..10, |g| g.usize_in(0..len));
                let step = |g: &mut Gen| {
                    let arr = g.usize_in(0..3);
                    let at = |g: &mut Gen| pool[g.usize_in(0..pool.len())];
                    match g.u32_in(0..8) {
                        0 | 1 => BulkOp::Read(arr, g.vec(0..14, at)),
                        2 | 3 => {
                            let lo = g.usize_in(0..len);
                            BulkOp::Slice(arr, lo, g.usize_in(0..len - lo + 1))
                        }
                        4 => BulkOp::Flops(g.u64_in(1..400)),
                        _ => {
                            let kind = arr < 2 && g.bool();
                            let items = g.vec(0..10, |g| (at(g), g.u32_in(0..3) as i32));
                            let of_kind = |it: &(usize, i32)| accum[arr][it.0] == kind;
                            BulkOp::Write(arr, kind, items.into_iter().filter(of_kind).collect())
                        }
                    }
                };
                (0..phases).map(|_| g.vec(0..7, step)).collect()
            })
        })
        .collect();
    BulkScript { nodes, len, vps }
}

/// The elements `idxs` of `g`: one `get_many` (over a slice, a lazy `map`
/// or an owned `Vec`, by `form`), or a `get` per element — all issued in one
/// poll and then awaited together, as the bulk read's elements are.
async fn read_elems<T: Logged>(
    ph: &Phase,
    g: &ppm_core::GlobalShared<T>,
    idxs: &[usize],
    form: usize,
    bulk: bool,
) -> Vec<i64> {
    use std::future::Future;
    use std::task::Poll;
    let got = if !bulk {
        let mut reads: Vec<_> = idxs.iter().map(|&i| (ph.get(g, i), None)).collect();
        let all = std::future::poll_fn(|cx| {
            for (read, got) in reads.iter_mut().filter(|r| r.1.is_none()) {
                if let Poll::Ready(v) = std::pin::Pin::new(read).poll(cx) {
                    *got = Some(v);
                }
            }
            match reads.iter().map(|r| r.1).collect::<Option<Vec<T>>>() {
                Some(values) => Poll::Ready(values),
                None => Poll::Pending,
            }
        });
        all.await
    } else {
        match form % 3 {
            0 => ph.get_many(g, idxs.iter().copied()).await,
            1 => ph.get_many(g, (0..idxs.len()).map(|k| idxs[k])).await,
            _ => ph.get_many(g, idxs.to_vec()).await,
        }
    };
    T::log(got)
}

/// What a [`BulkScript`] VP logs of the elements it read: their `i64`
/// parts, in order.
trait Logged: ppm_core::Elem {
    fn log(got: Vec<Self>) -> Vec<i64>;
}

impl Logged for i64 {
    fn log(got: Vec<i64>) -> Vec<i64> {
        got
    }
}

impl Logged for i32 {
    fn log(got: Vec<i32>) -> Vec<i64> {
        got.into_iter().map(i64::from).collect()
    }
}

impl Logged for [i64; 2] {
    fn log(got: Vec<[i64; 2]>) -> Vec<i64> {
        got.concat()
    }
}

/// The wide array's element for `v`.
fn wide(v: i64) -> [i64; 2] {
    [v, 5 - 3 * v]
}

/// `items` put (or accumulated) into `g`: one bulk call, or one per element.
fn write_elems<T: ppm_core::AccumElem + From<i32>>(
    ph: &Phase,
    g: &ppm_core::GlobalShared<T>,
    (accum, items): (bool, &[(usize, i32)]),
    form: usize,
    bulk: bool,
) {
    let typed = |&(i, v): &(usize, i32)| (i, T::from(v));
    match (bulk, accum) {
        (false, false) => items.iter().map(typed).for_each(|(i, v)| ph.put(g, i, v)),
        (false, true) => {
            let each = |(i, v)| ph.accumulate(g, i, AccumOp::Add, v);
            items.iter().map(typed).for_each(each)
        }
        (true, false) if form.is_multiple_of(2) => ph.put_many(g, items.iter().map(typed)),
        (true, false) => ph.put_many(g, items.iter().map(typed).collect::<Vec<_>>()),
        (true, true) => ph.accumulate_many(g, AccumOp::Add, items.iter().map(typed)),
    }
}

/// Charge per call changes nothing but host time: random multi-phase
/// scripts of reads (lists with repeats, slices) and writes over local,
/// remote, cached, spilled and written-this-phase elements do the same —
/// every value read, the final arrays, the makespan, every counter, the
/// checker's reports as values and as text, and the trace — whether each
/// access is a `get` / `put` / `accumulate` of its own or they go through
/// `get_many` / `put_many` / `accumulate_many`; with the read cache on and
/// off, in core and under a 64 B tile budget, checker on and off, adaptive
/// balance on and off, under a block layout, a weighted one with an empty
/// node and a cyclic one; over elements of 4, 8 and 16 bytes. The trace's `woken` figures are left out: they count slots
/// filled, where a bulk read's combining of its repeats shows by design (the
/// property above pins that).
#[test]
fn bulk_access_equals_per_element() {
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::sync::{Arc, Mutex};
    // What the cases exercised, summed: loads, remote reads, cache hits,
    // refills, violations, cache hits on the wide array.
    let seen: [AtomicU64; 6] = Default::default();
    forall(
        "bulk_access_equals_per_element",
        6,
        gen_bulk_script,
        |script| {
            let (nodes, len) = (script.nodes, script.len);
            let run_with = |script: &BulkScript, bulk: bool, layout: &Layout, cfg: PpmConfig| {
                let sink = ppm_core::TraceSink::new();
                let (script, layout) = (script.clone(), layout.clone());
                let report = ppm_core::run_traced(cfg, &sink, "bulk", move |node| {
                    let a = node.alloc_global_with::<i64>(len, layout.clone());
                    let b = node.alloc_global_with::<i32>(len, layout.clone());
                    let w = node.alloc_global_with::<[i64; 2]>(len, layout.clone());
                    let (da, me) = (node.dist_of(&a), node.node_id());
                    node.with_local_mut(&a, |s| {
                        for (off, v) in s.iter_mut().enumerate() {
                            *v = da.global_index(me, off) as i64 * 7 - 3;
                        }
                    });
                    node.with_local_mut(&b, |s| {
                        for (off, v) in s.iter_mut().enumerate() {
                            *v = 100 + da.global_index(me, off) as i32;
                        }
                    });
                    node.with_local_mut(&w, |s| {
                        for (off, v) in s.iter_mut().enumerate() {
                            *v = wide(40 + da.global_index(me, off) as i64);
                        }
                    });
                    let mine = Arc::new(script.vps[me].clone());
                    let read: Arc<Vec<Mutex<Vec<i64>>>> =
                        Arc::new(mine.iter().map(|_| Mutex::default()).collect());
                    let (steps, log) = (mine.clone(), read.clone());
                    node.ppm_do(mine.len(), move |vp| {
                        let (phases, log) = (steps[vp.node_rank()].clone(), log.clone());
                        async move {
                            for ops in phases {
                                let (v, log) = (vp.clone(), log.clone());
                                vp.global_phase(|ph| async move {
                                    for (form, op) in ops.iter().enumerate() {
                                        let got = match op {
                                            BulkOp::Read(0, idxs) => {
                                                read_elems(&ph, &a, idxs, form, bulk).await
                                            }
                                            BulkOp::Read(1, idxs) => {
                                                read_elems(&ph, &b, idxs, form, bulk).await
                                            }
                                            BulkOp::Read(_, idxs) => {
                                                read_elems(&ph, &w, idxs, form, bulk).await
                                            }
                                            &BulkOp::Slice(arr, lo, n) if bulk => match arr {
                                                0 => ph.get_many(&a, lo..lo + n).await,
                                                1 => Logged::log(ph.get_many(&b, lo..lo + n).await),
                                                _ => Logged::log(ph.get_many(&w, lo..lo + n).await),
                                            },
                                            &BulkOp::Slice(arr, lo, n) => {
                                                let idxs: Vec<usize> = (lo..lo + n).collect();
                                                match arr {
                                                    0 => read_elems(&ph, &a, &idxs, 0, false).await,
                                                    1 => read_elems(&ph, &b, &idxs, 0, false).await,
                                                    _ => read_elems(&ph, &w, &idxs, 0, false).await,
                                                }
                                            }
                                            BulkOp::Write(0, accum, items) => {
                                                write_elems(&ph, &a, (*accum, items), form, bulk);
                                                Vec::new()
                                            }
                                            BulkOp::Write(1, accum, items) => {
                                                write_elems(&ph, &b, (*accum, items), form, bulk);
                                                Vec::new()
                                            }
                                            BulkOp::Write(_, _, items) => {
                                                let items =
                                                    items.iter().map(|&(i, v)| (i, wide(v.into())));
                                                match bulk {
                                                    true => ph.put_many(&w, items),
                                                    false => {
                                                        items.for_each(|(i, v)| ph.put(&w, i, v))
                                                    }
                                                }
                                                Vec::new()
                                            }
                                            &BulkOp::Flops(n) => {
                                                v.charge_flops(n);
                                                Vec::new()
                                            }
                                        };
                                        log[v.node_rank()].lock().unwrap().extend(got);
                                    }
                                })
                                .await;
                            }
                        }
                    });
                    let violations = node.take_violations();
                    let rendered: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
                    let read: Vec<Vec<i64>> =
                        read.iter().map(|r| r.lock().unwrap().clone()).collect();
                    let arrays = (
                        node.gather_global(&a),
                        node.gather_global(&b),
                        node.gather_global(&w),
                    );
                    (read, arrays, violations, rendered)
                });
                let mut visible = sink.events();
                for e in &mut visible {
                    e.args.retain(|&(name, _)| name != "woken");
                }
                (
                    report.results.clone(),
                    report.makespan(),
                    report.total_counters(),
                    visible,
                )
            };
            // Node 1 owns nothing; the others share the array evenly.
            let share = len.div_ceil(nodes - 1);
            let mut bounds = vec![0, share.min(len)];
            bounds.extend((1..nodes).map(|n| (n * share).min(len)));
            let layouts = [
                Layout::Block,
                Layout::Weighted(Arc::new(bounds)),
                Layout::Cyclic,
            ];
            for layout in &layouts {
                // The wide array's steps alone, cache on: every hit is one
                // of a wide element.
                let cfg = PpmConfig::new(MachineConfig::new(nodes as u32, 2));
                let wide = run_with(&script.only(2), true, layout, cfg).2;
                seen[5].fetch_add(wide.cache_hits, Relaxed);
                for cell in 0..16 {
                    // Every combination of the four knobs.
                    let (cache, checker) = (cell & 1 == 0, cell & 2 == 0);
                    let (budget, adaptive) = ([0, 64][cell >> 2 & 1], cell >> 3 == 1);
                    let cfg = PpmConfig::new(MachineConfig::new(nodes as u32, 2))
                        .with_adaptive_balance(adaptive)
                        .with_read_cache(cache)
                        .with_tile_budget(budget)
                        .with_checker(checker);
                    let cell = format!(
                        "{layout:?}, cache {cache}, budget {budget}, checker {checker}, \
                     adaptive {adaptive}"
                    );
                    let each = run_with(script, false, layout, cfg);
                    let bulk = run_with(script, true, layout, cfg);
                    prop_assert!(
                        bulk.0 == each.0,
                        format!("{cell}: values or reports differ")
                    );
                    prop_assert!(bulk.1 == each.1, format!("{cell}: makespan differs"));
                    prop_assert!(
                        bulk.2 == each.2,
                        format!("{cell}: {:?} vs {:?}", bulk.2, each.2)
                    );
                    let diff = trace_diff(&bulk.3, &each.3);
                    prop_assert!(diff.is_none(), format!("{cell}: {diff:?}"));
                    let c = bulk.2;
                    let reports: usize = bulk.0.iter().map(|r| r.2.len()).sum();
                    prop_assert_eq!(reports > 0 && !checker, false);
                    for (sum, n) in seen.iter().zip([
                        c.local_accesses,
                        c.remote_gets,
                        c.cache_hits,
                        c.tile_refills,
                        reports as u64,
                    ]) {
                        sum.fetch_add(n, Relaxed);
                    }
                }
            }
            Ok(())
        },
    );
    let seen = seen.map(AtomicU64::into_inner);
    assert!(
        seen[..5].iter().all(|&n| n > 100) && seen[5] > 0,
        "loads, remote reads, cache hits, refills, reports, wide cache hits seen: {seen:?} — \
         the property tested little"
    );
}

/// One shared access of a checker script. Global arrays are 0 and 1, the
/// node-shared array is node array 0.
#[derive(Debug, Clone, PartialEq)]
enum Access {
    Put(usize, usize, i64),
    Accum(usize, usize, i64),
    /// One `put_many` of a value over a run of elements `(array, start,
    /// len, value)`.
    PutRun(usize, usize, usize, i64),
    /// One `accumulate_many` of a value over a run of elements.
    AccumRun(usize, usize, usize, i64),
    Get(usize, usize),
    GetMany(usize, Vec<usize>),
    NodePut(usize, i64),
    NodeAccum(usize, i64),
    NodeGet(usize),
    /// Read an element of a never-written array that lives on the next node:
    /// parks the VP, so the rest of its phase runs in a later poll, merged
    /// after its higher-ranked neighbours' first polls.
    Park,
}

impl Shrink for Access {}

/// A multi-phase program for the conformance checker: `kinds[p]` says
/// whether phase `p` is global, `vps[node][vp][p]` lists what that VP does
/// in it. Shrinking drops accesses only, so the shape stays valid.
#[derive(Debug, Clone)]
struct CheckScript {
    len: usize,
    kinds: Vec<bool>,
    vps: Vec<Vec<Vec<Vec<Access>>>>,
}

impl Shrink for CheckScript {
    fn shrink(&self) -> Vec<Self> {
        let mut c = Vec::new();
        for (n, node) in self.vps.iter().enumerate() {
            for (v, phases) in node.iter().enumerate() {
                for (p, ops) in phases.iter().enumerate() {
                    for smaller in ops.shrink() {
                        let mut s = self.clone();
                        s.vps[n][v][p] = smaller;
                        c.push(s);
                    }
                }
            }
        }
        c
    }
}

fn gen_check_script(g: &mut Gen) -> CheckScript {
    let nodes = g.usize_in(2..4);
    let len = g.usize_in(nodes..8);
    let kinds = g.vec(1..4, |g| g.u32_in(0..4) != 0);
    // Per array (global 0, global 1, node) and element: put or accumulate
    // target — the two never mix on an element. Few distinct values, so
    // idempotent and converging puts are as common as conflicting ones.
    let accum: Vec<Vec<bool>> = (0..3).map(|_| g.vec(len..len, |g| g.bool())).collect();
    let access = |g: &mut Gen, global: bool| {
        let (arr, idx, val) = (g.usize_in(0..2), g.usize_in(0..len), g.i64_in(0..3));
        match g.u32_in(0..if global { 13 } else { 4 }) {
            0 => Access::NodeGet(idx),
            1 | 2 if accum[2][idx] => Access::NodeAccum(idx, val),
            1 | 2 => Access::NodePut(idx, val),
            3 => Access::NodeGet(g.usize_in(0..len)),
            4 => Access::Get(arr, idx),
            5 => Access::GetMany(arr, g.vec(0..7, |g| g.usize_in(0..len))),
            // A window read twice over, in one call: across the edges of
            // the runs written around it, with repeats — and cache hits
            // where an earlier read of the phase fetched it.
            6 | 7 => {
                let window = idx..(idx + g.usize_in(1..6)).min(len);
                Access::GetMany(arr, window.clone().chain(window).collect())
            }
            8 => Access::Park,
            // A run of the elements of `idx`'s write kind from `idx` on.
            9 => {
                let kind = accum[arr][idx];
                let same = (idx..len).take(g.usize_in(1..5));
                let run = same.take_while(|&i| accum[arr][i] == kind).count();
                [Access::PutRun, Access::AccumRun][kind as usize](arr, idx, run, val)
            }
            _ if accum[arr][idx] => Access::Accum(arr, idx, val),
            _ => Access::Put(arr, idx, val),
        }
    };
    let vps = (0..nodes)
        .map(|_| {
            g.vec(1..4, |g| {
                let phase = |&global: &bool| g.vec(0..16, |g| access(g, global));
                kinds.iter().map(phase).collect()
            })
        })
        .collect();
    CheckScript { len, kinds, vps }
}

/// The checker as it was before the rules moved to the source — per element
/// of a node and phase: every assigning VP's last value, the accumulating
/// VPs, and the VPs whose own-read was reported — run on the script itself,
/// VP by VP. Returns what `node` must report, in drain order.
fn model_violations(s: &CheckScript, node: usize) -> Vec<PhaseViolation> {
    use std::collections::{BTreeMap, BTreeSet};
    #[derive(Default)]
    struct ElemAccess {
        assigners: Vec<(u64, i64)>,
        accumulators: BTreeSet<u64>,
    }
    let base: usize = s.vps[..node].iter().map(Vec::len).sum();
    let mut out = Vec::new();
    for (p, &global) in s.kinds.iter().enumerate() {
        let phase = [PhaseKind::Node, PhaseKind::Global][global as usize];
        let mut elems: BTreeMap<(Space, u32, u64), ElemAccess> = BTreeMap::new();
        let mut own_read_reported = BTreeSet::new();
        for (vp, phases) in (base as u64..).zip(&s.vps[node]) {
            for op in &phases[p] {
                let (g, n) = (Space::Global, Space::Node);
                // (value written, by accumulate?) and the elements touched.
                let (write, keys): (Option<(i64, bool)>, Vec<_>) = match *op {
                    Access::Put(a, i, v) => (Some((v, false)), vec![(g, a, i)]),
                    Access::Accum(a, i, v) => (Some((v, true)), vec![(g, a, i)]),
                    Access::PutRun(a, i, n, v) => {
                        (Some((v, false)), (i..i + n).map(|i| (g, a, i)).collect())
                    }
                    Access::AccumRun(a, i, n, v) => {
                        (Some((v, true)), (i..i + n).map(|i| (g, a, i)).collect())
                    }
                    Access::NodePut(i, v) => (Some((v, false)), vec![(n, 0, i)]),
                    Access::NodeAccum(i, v) => (Some((v, true)), vec![(n, 0, i)]),
                    Access::Get(a, i) => (None, vec![(g, a, i)]),
                    Access::GetMany(a, ref idxs) => {
                        (None, idxs.iter().map(|&i| (g, a, i)).collect())
                    }
                    Access::NodeGet(i) => (None, vec![(n, 0, i)]),
                    Access::Park => (None, vec![]),
                };
                for (space, array, idx) in keys {
                    let key = (space, array as u32, idx as u64);
                    let e = elems.entry(key).or_default();
                    let assigned = e.assigners.iter_mut().find(|a| a.0 == vp);
                    match (write, assigned) {
                        (Some((_, true)), _) => drop(e.accumulators.insert(vp)),
                        (Some((v, false)), Some(a)) => a.1 = v,
                        (Some((v, false)), None) => e.assigners.push((vp, v)),
                        (None, a) if a.is_some() || e.accumulators.contains(&vp) => {
                            own_read_reported.insert((key, vp));
                        }
                        (None, _) => {}
                    }
                }
            }
        }
        for (&(space, array, index), e) in &elems {
            let Some((&(first_vp, first), later)) = e.assigners.split_first() else {
                continue;
            };
            if let Some(&(second_vp, _)) = later.iter().find(|a| a.1 != first) {
                out.push(PhaseViolation::WriteWriteConflict {
                    space,
                    array,
                    index,
                    first_vp,
                    second_vp,
                    phase,
                });
            }
        }
        for ((space, array, index), vp) in own_read_reported {
            out.push(PhaseViolation::ReadOwnWrite {
                space,
                array,
                index,
                vp,
                phase,
            });
        }
    }
    out
}

/// The conformance checker reports what the per-element model reports, as
/// lists, for arbitrary scripts — puts, accumulates and runs of either,
/// single and bulk reads over local, remote and node-shared elements (bulk
/// windows read twice over, across written runs' edges, hitting the read
/// cache), global and node phases back to back, VPs whose phase spans
/// several polls — in core and under a tile budget, with and without
/// adaptive balance.
#[test]
fn checker_matches_the_per_element_model() {
    let project = |c: Cell| Cell {
        tile_budget: c.tile_budget,
        ..adaptive(c)
    };
    walk(project, checker_matches_the_per_element_model_at);
}

fn checker_matches_the_per_element_model_at(cell: Cell) {
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    let (conflicts, hazards) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let (hits, refills) = (AtomicUsize::new(0), AtomicUsize::new(0));
    forall(
        "checker_matches_the_per_element_model",
        32,
        gen_check_script,
        |script| {
            let nodes = script.vps.len();
            let expected: Vec<_> = (0..nodes).map(|n| model_violations(script, n)).collect();
            for v in expected.iter().flatten() {
                let conflict = matches!(v, PhaseViolation::WriteWriteConflict { .. });
                [&hazards, &conflicts][conflict as usize].fetch_add(1, Relaxed);
            }
            // A 32nd of the cell's budget tiles the scripts' short arrays
            // two elements to a tile, so reads also cross spilled tiles.
            let cfg = cell
                .apply(PpmConfig::new(MachineConfig::new(nodes as u32, 2)))
                .with_tile_budget(cell.tile_budget / 32)
                .with_checker(true);
            let script = script.clone();
            let report = run(cfg, move |node| {
                let arrays = [
                    node.alloc_global::<i64>(script.len),
                    node.alloc_global::<i64>(script.len),
                ];
                let quiet = node.alloc_global::<i64>(nodes);
                let shared = node.alloc_node::<i64>(script.len);
                let mine = std::sync::Arc::new(script.vps[node.node_id()].clone());
                let kinds = script.kinds.clone();
                let next = (node.node_id() + 1) % nodes;
                node.ppm_do(mine.len(), move |vp| {
                    let (phases, kinds) = (mine[vp.node_rank()].clone(), kinds.clone());
                    async move {
                        for (ops, global) in phases.into_iter().zip(kinds) {
                            let body = |ph: Phase| async move {
                                for op in ops {
                                    match op {
                                        Access::Put(a, i, v) => ph.put(&arrays[a], i, v),
                                        Access::Accum(a, i, v) => {
                                            ph.accumulate(&arrays[a], i, AccumOp::Add, v)
                                        }
                                        Access::PutRun(a, i, n, v) => {
                                            ph.put_many(&arrays[a], (i..i + n).map(|i| (i, v)))
                                        }
                                        Access::AccumRun(a, i, n, v) => ph.accumulate_many(
                                            &arrays[a],
                                            AccumOp::Add,
                                            (i..i + n).map(|i| (i, v)),
                                        ),
                                        Access::Get(a, i) => drop(ph.get(&arrays[a], i).await),
                                        Access::GetMany(a, idxs) => {
                                            drop(ph.get_many(&arrays[a], idxs).await)
                                        }
                                        Access::NodePut(i, v) => ph.put_node(&shared, i, v),
                                        Access::NodeAccum(i, v) => {
                                            ph.accumulate_node(&shared, i, AccumOp::Add, v)
                                        }
                                        Access::NodeGet(i) => drop(ph.get_node(&shared, i)),
                                        Access::Park => drop(ph.get(&quiet, next).await),
                                    }
                                }
                            };
                            if global {
                                vp.global_phase(body).await;
                            } else {
                                vp.node_phase(body).await;
                            }
                        }
                    }
                });
                node.take_violations()
            });
            prop_assert_eq!(&report.results, &expected);
            let c = report.total_counters();
            hits.fetch_add(c.cache_hits as usize, Relaxed);
            refills.fetch_add(c.tile_refills as usize, Relaxed);
            Ok(())
        },
    );
    let (conflicts, hazards) = (conflicts.into_inner(), hazards.into_inner());
    assert!(
        conflicts > 40 && hazards > 40,
        "{conflicts} conflicts and {hazards} hazards planted: the property tested little"
    );
    let (hits, refills) = (hits.into_inner(), refills.into_inner());
    assert!(
        hits > 40 && (refills > 20) == (cell.tile_budget > 0),
        "{hits} cache hits, {refills} tile refills: the property tested little"
    );
}

/// The write path end to end on its hardest input: random multi-VP puts
/// and `f64` accumulates whose sum depends on the fold order (±1e16 next to
/// small values), duplicate indices, several ops per VP per element, and
/// reads that park a VP mid-phase so its later writes merge *after* its
/// higher-ranked neighbours'. Six phases with node 0 overloaded, so under
/// adaptive repartitioning the partition moves between phases. Every run
/// must equal a sequential ascending-(rank, program order) fold bit for
/// bit; a rerun must give the same makespan and counters.
#[test]
fn writes_fold_in_rank_order_under_any_schedule_and_placement() {
    const ROUNDS: usize = 6;
    const VALS: [f64; 7] = [1e16, -1e16, 1.0, 0.1, 3.0, -0.7, 1e-3];
    // Op = (0 → read | else → write, element, value); even elements take
    // accumulates, odd ones puts, so kinds never mix on an element.
    type Vps = Vec<Vec<Vec<(u32, usize, f64)>>>;
    let rebalanced = std::sync::atomic::AtomicUsize::new(0);
    forall(
        "writes_fold_in_rank_order_under_any_schedule_and_placement",
        12,
        |g| {
            let len = g.usize_in(4..24);
            let vps: Vps = g.vec(2..5, |g| {
                g.vec(1..4, |g| {
                    g.vec(0..14, |g| {
                        let val = VALS[g.usize_in(0..VALS.len())];
                        (g.u32_in(0..6), g.usize_in(0..len), val)
                    })
                })
            });
            (len, vps)
        },
        |(len, vps)| {
            let len = *len;
            let in_contract = !vps.is_empty()
                && vps.iter().all(|node| !node.is_empty())
                && vps.iter().flatten().flatten().all(|op| op.1 < len);
            if !in_contract {
                return Ok(());
            }
            let mut expected = vec![0.0f64; len];
            for round in 0..ROUNDS {
                let mut pending: Vec<Option<f64>> = vec![None; len];
                for &(what, idx, val) in vps.iter().flatten().flatten() {
                    let val = val * (round + 1) as f64;
                    match pending[idx] {
                        _ if what == 0 => {}
                        Some(acc) if idx % 2 == 0 => pending[idx] = Some(acc + val),
                        _ => pending[idx] = Some(val),
                    }
                }
                for (slot, p) in expected.iter_mut().zip(pending) {
                    *slot = p.unwrap_or(*slot);
                }
            }
            let expected: Vec<u64> = expected.iter().map(|v| v.to_bits()).collect();

            let run_with = |adaptive: bool| {
                let vps = vps.clone();
                let cfg = PpmConfig::new(MachineConfig::new(vps.len() as u32, 2))
                    .with_checker(false)
                    .with_adaptive_balance(adaptive);
                let report = run(cfg, move |node| {
                    let a = node.alloc_global_balanced::<f64>(len);
                    let mine = std::sync::Arc::new(vps[node.node_id()].clone());
                    let heavy = node.node_id() == 0;
                    node.ppm_do(mine.len(), move |vp| {
                        let ops = mine[vp.node_rank()].clone();
                        async move {
                            for round in 0..ROUNDS {
                                let (ops, v2) = (ops.clone(), vp.clone());
                                vp.global_phase(|ph| async move {
                                    if heavy {
                                        v2.charge_flops(200_000);
                                    }
                                    for (what, idx, val) in ops {
                                        let val = val * (round + 1) as f64;
                                        if what == 0 {
                                            ph.get(&a, idx).await;
                                        } else if idx % 2 == 0 {
                                            ph.accumulate(&a, idx, AccumOp::Add, val);
                                        } else {
                                            ph.put(&a, idx, val);
                                        }
                                    }
                                })
                                .await;
                            }
                        }
                    });
                    let bits = node.gather_global(&a);
                    bits.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
                });
                (
                    report.results.clone(),
                    report.makespan(),
                    report.total_counters(),
                )
            };
            let fixed = run_with(false);
            let moving = run_with(true);
            for (base, adaptive) in [(&fixed, false), (&moving, true)] {
                for got in &base.0 {
                    prop_assert_eq!(got, &expected);
                }
                let again = run_with(adaptive);
                prop_assert_eq!(&base.0, &again.0);
                prop_assert_eq!(base.1, again.1);
                prop_assert_eq!(&base.2, &again.2);
            }
            if fixed.2 != moving.2 {
                rebalanced.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            Ok(())
        },
    );
    assert!(
        rebalanced.into_inner() > 0,
        "no generated case ever repartitioned: the adaptive half tested nothing"
    );
}

/// Layout choice never changes results, only data placement.
#[test]
fn layout_is_transparent() {
    walk(adaptive, layout_is_transparent_at);
}

fn layout_is_transparent_at(cell: Cell) {
    forall(
        "layout_is_transparent",
        24,
        |g| (g.vec(1..40, |g| g.i64_in(-100..100)), g.u32_in(1..4)),
        |(vals, nodes)| {
            if *nodes == 0 || vals.is_empty() {
                return Ok(());
            }
            let n = vals.len();
            let nodes = *nodes;
            let sum_of = |layout: Layout| {
                let vals = vals.clone();
                run(
                    cell.apply(PpmConfig::new(MachineConfig::new(nodes, 1))),
                    move |node| {
                        let a = node.alloc_global_with::<i64>(n, layout.clone());
                        let acc = node.alloc_global::<i64>(1);
                        let dist = node.dist_of(&a);
                        let me = node.node_id();
                        let vals = vals.clone();
                        node.with_local_mut(&a, |s| {
                            for (off, v) in s.iter_mut().enumerate() {
                                *v = vals[dist.global_index(me, off)];
                            }
                        });
                        node.ppm_do(n.min(8), move |vp| async move {
                            let k = vp.global_vp_count();
                            let i = vp.global_rank();
                            vp.global_phase(|ph| async move {
                                let mut part = 0i64;
                                let mut j = i;
                                while j < n {
                                    part += ph.get(&a, j).await;
                                    j += k;
                                }
                                ph.accumulate(&acc, 0, AccumOp::Add, part);
                            })
                            .await;
                        });
                        let violations = node.take_violations();
                        assert!(violations.is_empty(), "checker: {violations:?}");
                        node.gather_global(&acc)[0]
                    },
                )
                .results[0]
            };
            let expected: i64 = vals.iter().sum();
            prop_assert_eq!(sum_of(Layout::Block), expected);
            prop_assert_eq!(sum_of(Layout::Cyclic), expected);
            Ok(())
        },
    );
}
