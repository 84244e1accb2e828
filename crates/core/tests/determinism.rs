//! Determinism regression tests: the simulated cluster plus the
//! single-threaded node runtime make every PPM job a pure function of
//! (config, seed). Running the same job twice must give byte-identical
//! results AND an identical simulated makespan — any divergence means
//! nondeterminism crept into the scheduler, the message layer, or the
//! write-combining paths.

use ppm_core::testkit::{walk, Cell};
use ppm_core::{run, AccumOp, PpmConfig};
use ppm_simnet::MachineConfig;

/// The cells this suite walks: the tile budget.
fn budget(c: Cell) -> Cell {
    Cell {
        tile_budget: c.tile_budget,
        ..Cell::default()
    }
}

/// A deliberately gnarly job: seeded pseudo-random data, dependent remote
/// reads, accumulates into shared counters, a distributed sort, and
/// node-level collectives — every runtime subsystem in one program.
fn job(cell: Cell, seed: u64) -> (Vec<(Vec<u64>, i64, u64)>, ppm_simnet::SimTime) {
    let report = run(
        cell.apply(PpmConfig::new(MachineConfig::new(3, 2))),
        move |node| {
            let n = 48;
            let data = node.alloc_global::<u64>(n);
            let acc = node.alloc_global::<i64>(4);
            let r = node.local_range(&data);
            node.with_local_mut(&data, |s| {
                for (off, v) in s.iter_mut().enumerate() {
                    let x = (r.start + off) as u64;
                    *v = ppm_core::testkit::Gen::new(seed ^ x).u64() % 1000;
                }
            });
            node.ppm_do(4, move |vp| async move {
                let g = vp.global_rank();
                let k = vp.global_vp_count();
                // Phase 1: chase reads around the ring, accumulate a digest.
                vp.global_phase(|ph| async move {
                    let mut idx = g % n;
                    let mut digest = 0i64;
                    for _ in 0..6 {
                        let v = ph.get(&data, idx).await;
                        digest = digest.wrapping_add(v as i64);
                        idx = (idx + v as usize + 1) % n;
                    }
                    ph.accumulate(&acc, g % 4, AccumOp::Add, digest);
                })
                .await;
                // Phase 2: strided rewrite (disjoint per VP).
                vp.global_phase(|ph| async move {
                    let mut j = g;
                    while j < n {
                        let v = ph.get(&data, j).await;
                        ph.put(&data, j, v / 2 + 1);
                        j += k;
                    }
                })
                .await;
            });
            ppm_core::util::sort_global_u64(node, &data);
            let sorted = node.gather_global(&data);
            let digest: i64 = node.gather_global(&acc).iter().sum();
            let sum = node.allreduce_nodes(sorted.iter().sum::<u64>(), |a, b| a + b);
            let violations = node.take_violations();
            assert!(violations.is_empty(), "checker: {violations:?}");
            (sorted, digest, sum)
        },
    );
    let makespan = report.makespan();
    (report.results, makespan)
}

#[test]
fn same_seed_is_byte_identical() {
    walk(budget, |cell| {
        for seed in [0u64, 42, 0xDEAD_BEEF] {
            let (res1, t1) = job(cell, seed);
            let (res2, t2) = job(cell, seed);
            assert_eq!(res1, res2, "results diverged for seed {seed}");
            assert_eq!(t1, t2, "simulated makespan diverged for seed {seed}");
        }
    });
}

#[test]
fn different_seeds_actually_differ() {
    // Guard against the job collapsing to a constant (which would make the
    // identity test vacuous).
    walk(budget, |cell| {
        let (res1, _) = job(cell, 1);
        let (res2, _) = job(cell, 2);
        assert_ne!(res1, res2);
    });
}

/// The makespan itself is a meaningful regression surface: identical runs
/// must agree on the full per-node clock breakdown, not just the maximum.
#[test]
fn clock_breakdowns_are_reproducible() {
    walk(budget, clock_breakdowns_at);
}

fn clock_breakdowns_at(cell: Cell) {
    let go = || {
        run(cell.apply(PpmConfig::franklin(2)), |node| {
            let a = node.alloc_global::<f64>(64);
            node.ppm_do(8, move |vp| async move {
                let g = vp.global_rank();
                vp.global_phase(|ph| async move {
                    let v = ph.get(&a, (g * 13) % 64).await;
                    ph.accumulate(&a, 0, AccumOp::Add, v + g as f64);
                })
                .await;
            });
        })
    };
    let (a, b) = (go(), go());
    assert_eq!(a.clocks.len(), b.clocks.len());
    for (ca, cb) in a.clocks.iter().zip(&b.clocks) {
        assert_eq!(ca.now(), cb.now());
        assert_eq!(ca.compute(), cb.compute());
        assert_eq!(ca.comm(), cb.comm());
        assert_eq!(ca.wait(), cb.wait());
    }
}
