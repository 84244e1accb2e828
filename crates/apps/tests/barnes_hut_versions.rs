//! Cross-version validation of Barnes–Hut: the PPM and replicated-MPI
//! versions must reproduce the sequential trajectories bit-for-bit, and
//! the simulated times must show the Figure 3 character (PPM scales,
//! replicated MPI drowns in communication volume). Each PPM run takes a
//! cell of adaptive repartitioning: tests that loop over machine shapes
//! take the cells in turn, the others walk adaptive on and off.

use ppm_apps::barnes_hut::{self as bh, BhParams};
use ppm_core::testkit::{cells, walk, Cell};
use ppm_core::PpmConfig;
use ppm_simnet::{MachineConfig, SimTime};

/// Adaptive balance, the one knob these suites walk.
fn adaptive(c: Cell) -> Cell {
    Cell {
        adaptive: c.adaptive,
        ..Cell::default()
    }
}

/// The cells `project` makes, round and round, for a loop to take in turn.
fn in_turn(project: fn(Cell) -> Cell) -> impl Iterator<Item = Cell> {
    cells(project).into_iter().cycle()
}

fn params() -> BhParams {
    let mut p = BhParams::new(256);
    p.steps = 2;
    p
}

fn pos_bits(bodies: &[bh::Body]) -> Vec<(u64, u64, u64)> {
    bodies
        .iter()
        .map(|b| (b.x.to_bits(), b.y.to_bits(), b.z.to_bits()))
        .collect()
}

#[test]
fn ppm_matches_sequential_bitwise() {
    let reference = bh::seq::simulate(&params());
    for (nodes, cell) in [1u32, 2, 3, 4].into_iter().zip(in_turn(adaptive)) {
        let p = params();
        let cfg = cell.apply(PpmConfig::new(MachineConfig::new(nodes, 2)));
        let report = ppm_core::run(cfg, move |node| bh::ppm::simulate(node, &p).0);
        for got in &report.results {
            assert_eq!(
                pos_bits(got),
                pos_bits(&reference),
                "nodes={nodes}, {cell:?}: trajectories diverged"
            );
        }
    }
}

#[test]
fn mpi_matches_sequential_bitwise() {
    let reference = bh::seq::simulate(&params());
    for (nodes, cores) in [(1u32, 1u32), (1, 4), (2, 2), (3, 2)] {
        let p = params();
        let report = ppm_mps::run(MachineConfig::new(nodes, cores), move |comm| {
            bh::mpi::simulate(comm, &p).0
        });
        for got in &report.results {
            assert_eq!(pos_bits(got), pos_bits(&reference), "{nodes}x{cores}");
        }
    }
}

/// The clustered Plummer fixture: all three versions reproduce the same
/// trajectories bit-for-bit, including PPM runs where the adaptive
/// balancer migrates body partitions between steps.
#[test]
fn clustered_fixture_versions_agree_bitwise() {
    let mut p0 = BhParams::clustered(256);
    p0.steps = 2;
    let reference = bh::seq::simulate(&p0);
    for nodes in [1u32, 2, 3, 4] {
        for adaptive in [false, true] {
            let p = p0;
            let cfg = PpmConfig::new(MachineConfig::new(nodes, 2)).with_adaptive_balance(adaptive);
            let report = ppm_core::run(cfg, move |node| bh::ppm::simulate(node, &p).0);
            for got in &report.results {
                assert_eq!(
                    pos_bits(got),
                    pos_bits(&reference),
                    "nodes={nodes} adaptive={adaptive}: clustered trajectories diverged"
                );
            }
        }
    }
    let p = p0;
    let report = ppm_mps::run(MachineConfig::new(3, 2), move |comm| {
        bh::mpi::simulate(comm, &p).0
    });
    for got in &report.results {
        assert_eq!(pos_bits(got), pos_bits(&reference), "mpi clustered 3x2");
    }
}

#[test]
fn figure3_character_ppm_scales_replicated_mpi_does_not() {
    // Figure 3 discussion: the replicated method's allgather volume grows
    // with rank count; the PPM version's bundled fine-grained reads do
    // not. Compare how total time changes from 2 to 8 nodes.
    let mut p = BhParams::new(2048);
    p.steps = 1;
    let mpi_t = |nodes: u32| {
        ppm_mps::run(MachineConfig::franklin(nodes), move |comm| {
            bh::mpi::simulate(comm, &p).1
        })
        .results
        .into_iter()
        .fold(SimTime::ZERO, SimTime::max)
    };
    let mpi_speedup = mpi_t(2).as_ns_f64() / mpi_t(8).as_ns_f64();
    // Adaptive balance on and off.
    for cell in cells(adaptive) {
        let ppm_t = |nodes: u32| {
            ppm_core::run(cell.apply(PpmConfig::franklin(nodes)), move |node| {
                bh::ppm::simulate(node, &p).1
            })
            .results
            .into_iter()
            .fold(SimTime::ZERO, SimTime::max)
        };
        let ppm_speedup = ppm_t(2).as_ns_f64() / ppm_t(8).as_ns_f64();
        assert!(
            ppm_speedup > 1.5,
            "PPM should keep scaling 2->8 nodes (speedup {ppm_speedup:.2}, {cell:?})"
        );
        assert!(
            ppm_speedup > mpi_speedup,
            "PPM must out-scale replicated MPI: {ppm_speedup:.2} vs {mpi_speedup:.2} ({cell:?})"
        );
    }
}

#[test]
fn ppm_bh_is_deterministic() {
    let p = params();
    walk(adaptive, |cell| {
        let go = || {
            let cfg = cell.apply(PpmConfig::new(MachineConfig::new(3, 2)));
            ppm_core::run(cfg, move |node| {
                let (bodies, t) = bh::ppm::simulate(node, &p);
                let hash = bodies
                    .iter()
                    .fold(0u64, |a, b| a.wrapping_add(b.x.to_bits()).rotate_left(7));
                (hash, t)
            })
        };
        let a = go();
        let b = go();
        assert_eq!(a.results, b.results);
        assert_eq!(a.makespan(), b.makespan());
    });
}

/// The PPM Barnes–Hut simulation is a conforming phase program under the
/// conformance checker across its tree-build and force phases.
#[test]
fn ppm_version_is_phase_conformant() {
    for (nodes, cell) in [1u32, 2].into_iter().zip(in_turn(adaptive)) {
        let p = params();
        let report = ppm_core::run(
            cell.apply(PpmConfig::new(MachineConfig::new(nodes, 2)))
                .with_checker(true),
            move |node| {
                bh::ppm::simulate(node, &p);
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
