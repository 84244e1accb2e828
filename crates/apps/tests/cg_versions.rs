//! Cross-version validation of the CG application: the PPM program and the
//! MPI baseline must agree with the sequential reference, on several
//! machine shapes, and the simulated-time relationship between them must
//! show the paper's Figure 1 character. Each PPM run takes a cell of
//! host threads × tile budget: tests that loop over machine shapes take the
//! cells in turn, the others walk them (`ppm_cg_is_deterministic` walks the
//! budget alone).

use ppm_apps::cg::{self, CgParams};
use ppm_core::testkit::{cells, walk, Cell};
use ppm_core::PpmConfig;
use ppm_simnet::MachineConfig;

fn threads_and_budget(c: Cell) -> Cell {
    Cell {
        host_threads: c.host_threads,
        tile_budget: c.tile_budget,
        ..Cell::default()
    }
}

/// The cells, round and round, for a loop to take in turn.
fn in_turn() -> impl Iterator<Item = Cell> {
    cells(threads_and_budget).into_iter().cycle()
}

fn params() -> CgParams {
    let mut p = CgParams::cube(8, 15);
    p.rows_per_vp = 16;
    p
}

#[test]
fn ppm_matches_sequential() {
    let reference = cg::seq::solve(&params());
    for (nodes, cell) in [1u32, 2, 3, 4].into_iter().zip(in_turn()) {
        let p = params();
        let cfg = cell.apply(PpmConfig::new(MachineConfig::new(nodes, 2)));
        let report = ppm_core::run(cfg, move |node| cg::ppm::solve(node, &p));
        for (out, _) in &report.results {
            assert!(
                (out.rr - reference.rr).abs() <= 1e-9 * (1.0 + reference.rr),
                "nodes={nodes}, {cell:?}: rr {} vs reference {}",
                out.rr,
                reference.rr
            );
            let max_dx = out
                .x
                .iter()
                .zip(&reference.x)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(
                max_dx < 1e-8,
                "nodes={nodes}, {cell:?}: max |Δx| = {max_dx}"
            );
        }
    }
}

#[test]
fn hierarchical_ppm_matches_plain_ppm_bitwise() {
    // Same arithmetic, different storage levels: results must be
    // bit-identical, and the node-shared variant must be *faster* (its
    // x/r/ap accesses take the cheaper node-memory path).
    for (nodes, cell) in [1u32, 2, 4].into_iter().zip(in_turn()) {
        let p = params();
        let plain = ppm_core::run(cell.apply(PpmConfig::franklin(nodes)), move |node| {
            let (out, t) = cg::ppm::solve(node, &p);
            (
                out.rr.to_bits(),
                out.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                t,
            )
        });
        let p = params();
        let hier = ppm_core::run(cell.apply(PpmConfig::franklin(nodes)), move |node| {
            let (out, t) = cg::ppm_hier::solve(node, &p);
            (
                out.rr.to_bits(),
                out.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                t,
            )
        });
        for (a, b) in plain.results.iter().zip(&hier.results) {
            assert_eq!(a.0, b.0, "nodes={nodes}, {cell:?}: rr differs");
            assert_eq!(a.1, b.1, "nodes={nodes}, {cell:?}: x differs");
            assert!(
                b.2 < a.2,
                "nodes={nodes}, {cell:?}: hierarchical {} should beat plain {}",
                b.2,
                a.2
            );
        }
    }
}

#[test]
fn mpi_matches_sequential() {
    let reference = cg::seq::solve(&params());
    for (nodes, cores) in [(1u32, 1u32), (1, 4), (2, 2), (3, 2)] {
        let p = params();
        let report = ppm_mps::run(MachineConfig::new(nodes, cores), move |comm| {
            cg::mpi::solve(comm, &p)
        });
        for (out, _) in &report.results {
            assert!(
                (out.rr - reference.rr).abs() <= 1e-9 * (1.0 + reference.rr),
                "{nodes}x{cores}: rr {} vs {}",
                out.rr,
                reference.rr
            );
            let max_dx = out
                .x
                .iter()
                .zip(&reference.x)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(max_dx < 1e-8, "{nodes}x{cores}: max |Δx| = {max_dx}");
        }
    }
}

#[test]
fn both_versions_converge_toward_ones() {
    let p = CgParams::cube(6, 30);
    walk(threads_and_budget, |cell| {
        let ppm_out = ppm_core::run(cell.apply(PpmConfig::franklin(2)), move |node| {
            cg::ppm::solve(node, &p).0
        });
        assert!(ppm_out.results[0].max_error_vs_ones() < 1e-6);
    });
    let mpi_out = ppm_mps::run(MachineConfig::franklin(2), move |comm| {
        cg::mpi::solve(comm, &p).0
    });
    assert!(mpi_out.results[0].max_error_vs_ones() < 1e-6);
}

#[test]
fn figure1_character_ppm_loses_on_one_node_catches_up() {
    // The paper's Figure 1 story: PPM is slower on one node (shared-access
    // overhead) but the gap narrows as nodes (and communication) grow.
    let p = params().without_x();
    let time = |nodes: u32, cell: Cell| {
        let ppm_t = ppm_core::run(cell.apply(PpmConfig::franklin(nodes)), move |node| {
            cg::ppm::solve(node, &p).1
        })
        .results
        .iter()
        .copied()
        .fold(ppm_simnet::SimTime::ZERO, ppm_simnet::SimTime::max);
        let mpi_t = ppm_mps::run(MachineConfig::franklin(nodes), move |comm| {
            cg::mpi::solve(comm, &p).1
        })
        .results
        .iter()
        .copied()
        .fold(ppm_simnet::SimTime::ZERO, ppm_simnet::SimTime::max);
        (ppm_t, mpi_t)
    };
    let mut turn = in_turn();
    let (ppm1, mpi1) = time(1, turn.next().unwrap());
    let (ppm4, mpi4) = time(4, turn.next().unwrap());
    let ratio1 = ppm1.as_ns_f64() / mpi1.as_ns_f64();
    let ratio4 = ppm4.as_ns_f64() / mpi4.as_ns_f64();
    assert!(ratio1 > 1.0, "PPM must lose on 1 node: ratio {ratio1:.2}");
    assert!(
        ratio4 < ratio1,
        "the PPM/MPI ratio must shrink with node count: {ratio1:.2} -> {ratio4:.2}"
    );
}

#[test]
fn tolerance_stops_early_and_uniformly() {
    // Generous iteration cap, tight tolerance: both parallel versions must
    // stop early, at (nearly) the same iteration as the sequential
    // reference (reduction trees round differently, so allow ±1), with the
    // residual actually under the threshold.
    let p = CgParams::cube(6, 100).with_tol(1e-6);
    let seq = cg::seq::solve(&p);
    assert!(seq.iters_done < 100, "must stop early: {}", seq.iters_done);

    let rr0: f64 = {
        let prob = p.problem;
        (0..prob.n()).map(|i| prob.rhs_for_ones(i).powi(2)).sum()
    };
    let limit = 1e-12 * rr0;
    let check = |results: &[(usize, f64)]| {
        for (iters_done, rr) in results {
            assert!(
                (*iters_done as i64 - seq.iters_done as i64).abs() <= 1,
                "iterations {iters_done} vs seq {}",
                seq.iters_done
            );
            assert!(*rr <= limit * (1.0 + 1e-9), "rr {rr} vs limit {limit}");
        }
    };
    walk(threads_and_budget, |cell| {
        let ppm_rep = ppm_core::run(cell.apply(PpmConfig::franklin(2)), move |node| {
            let (out, _) = cg::ppm::solve(node, &p);
            (out.iters_done, out.rr)
        });
        check(&ppm_rep.results);
    });
    let mpi_rep = ppm_mps::run(MachineConfig::franklin(2), move |comm| {
        let (out, _) = cg::mpi::solve(comm, &p);
        (out.iters_done, out.rr)
    });
    check(&mpi_rep.results);
}

#[test]
fn ppm_cg_is_deterministic() {
    let p = params();
    let budget = |c: Cell| Cell {
        tile_budget: c.tile_budget,
        ..Cell::default()
    };
    walk(budget, |cell| {
        let go = || {
            let cfg = cell.apply(PpmConfig::new(MachineConfig::new(3, 2)));
            ppm_core::run(cfg, move |node| {
                let (out, t) = cg::ppm::solve(node, &p);
                (out.rr.to_bits(), t)
            })
        };
        let a = go();
        let b = go();
        assert_eq!(a.results, b.results);
        assert_eq!(a.makespan(), b.makespan());
    });
}

/// The PPM CG solver is a conforming phase program: with the conformance
/// checker enabled, no write-write conflicts or read-own-write hazards.
#[test]
fn ppm_version_is_phase_conformant() {
    for (nodes, cell) in [1u32, 3].into_iter().zip(in_turn()) {
        let p = params();
        let report = ppm_core::run(
            cell.apply(PpmConfig::new(MachineConfig::new(nodes, 2)))
                .with_checker(true),
            move |node| {
                cg::ppm::solve(node, &p);
                node.take_violations()
            },
        );
        for v in &report.results {
            assert!(
                v.is_empty(),
                "nodes={nodes}, {cell:?}: checker reported {v:?}"
            );
        }
    }
}
