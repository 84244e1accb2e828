//! Cross-version validation of the PageRank demonstration app.
//!
//! Unlike the matrix generation (whose entries are computed row-locally),
//! PageRank's contributions to one vertex are *combined across nodes*: the
//! runtime pre-combines per node and then folds the node partials, while
//! the sequential reference left-folds over sources one at a time. Those
//! associations can differ in the last ulp, so cross-version checks use a
//! tight relative tolerance; run-to-run determinism is still bit-exact.
//! Each PPM run takes a cell of adaptive repartitioning: tests that loop
//! over machine shapes take the cells in turn, the others walk adaptive on
//! and off.

use ppm_apps::pagerank::{self, PrParams};
use ppm_core::testkit::{cells, walk, Cell};
use ppm_core::PpmConfig;
use ppm_simnet::MachineConfig;

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

fn assert_close(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= 1e-12 * w.abs().max(1e-300),
            "{what}: rank[{i}] {g} vs {w}"
        );
    }
}

#[test]
fn ppm_matches_sequential_to_ulp() {
    let p = PrParams::new(400);
    let reference = pagerank::seq::rank(&p);
    for (nodes, cell) in [1u32, 2, 3].into_iter().zip(in_turn(adaptive)) {
        let cfg = cell.apply(PpmConfig::new(MachineConfig::new(nodes, 2)));
        let report = ppm_core::run(cfg, move |node| pagerank::ppm::rank(node, &p).0);
        for got in &report.results {
            assert_close(got, &reference, &format!("ppm nodes={nodes}, {cell:?}"));
        }
        // On one node there is a single partial per vertex, so the fold
        // order coincides and agreement is exact.
        if nodes == 1 {
            assert_eq!(report.results[0], reference);
        }
    }
}

#[test]
fn mpi_matches_sequential_to_ulp() {
    let p = PrParams::new(400);
    let reference = pagerank::seq::rank(&p);
    for (nodes, cores) in [(1u32, 1u32), (2, 2), (3, 2)] {
        let report = ppm_mps::run(MachineConfig::new(nodes, cores), move |comm| {
            pagerank::mpi::rank(comm, &p).0
        });
        for got in &report.results {
            assert_close(got, &reference, &format!("mpi {nodes}x{cores}"));
        }
    }
}

/// The skewed power-law fixture: all three versions agree on it, and the
/// PPM version agrees even while the adaptive balancer is migrating the
/// partition under the iteration loop.
#[test]
fn skewed_fixture_versions_agree() {
    let p = PrParams::skewed(400);
    let reference = pagerank::seq::rank(&p);
    for nodes in [1u32, 2, 3] {
        for adaptive in [false, true] {
            let cfg = PpmConfig::new(MachineConfig::new(nodes, 2)).with_adaptive_balance(adaptive);
            let report = ppm_core::run(cfg, move |node| pagerank::ppm::rank(node, &p).0);
            for got in &report.results {
                assert_close(
                    got,
                    &reference,
                    &format!("ppm skewed nodes={nodes} adaptive={adaptive}"),
                );
            }
        }
    }
    let report = ppm_mps::run(MachineConfig::new(3, 2), move |comm| {
        pagerank::mpi::rank(comm, &p).0
    });
    for got in &report.results {
        assert_close(got, &reference, "mpi skewed 3x2");
    }
}

#[test]
fn ppm_pagerank_is_bitwise_deterministic() {
    let p = PrParams::new(300);
    walk(adaptive, |cell| {
        let go = || {
            ppm_core::run(cell.apply(PpmConfig::franklin(3)), move |node| {
                let (r, t) = pagerank::ppm::rank(node, &p);
                (r.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), t)
            })
        };
        let a = go();
        let b = go();
        assert_eq!(a.results, b.results);
        assert_eq!(a.makespan(), b.makespan());
    });
}

#[test]
fn push_scatter_bundles_well() {
    // The irregular scatter must compress into few messages — the point of
    // running a graph kernel on PPM.
    walk(adaptive, push_scatter_bundles_well_at);
}

fn push_scatter_bundles_well_at(cell: Cell) {
    let p = PrParams::new(2000);
    let report = ppm_core::run(cell.apply(PpmConfig::franklin(4)), move |node| {
        pagerank::ppm::rank(node, &p);
        node.ep_counters()
    });
    let c = report
        .counters
        .iter()
        .fold(ppm_simnet::Counters::default(), |a, b| a.merge(b));
    assert!(c.remote_puts > 50_000, "scatter size: {}", c.remote_puts);
    // Per iteration: ≤ nodes·(nodes−1) write bundles per phase pair.
    assert!(
        c.bundles_sent <= 4 * 3 * (p.iters as u64 * 2 + 2),
        "bundles {}",
        c.bundles_sent
    );
}

/// The PPM PageRank (accumulate-heavy scatter) is a conforming phase
/// program under the conformance checker: all cross-VP combining goes
/// through `accumulate`, never plain `put`.
#[test]
fn ppm_version_is_phase_conformant() {
    let p = PrParams::new(200);
    for (nodes, cell) in [1u32, 3].into_iter().zip(in_turn(adaptive)) {
        let report = ppm_core::run(
            cell.apply(PpmConfig::new(MachineConfig::new(nodes, 2)))
                .with_checker(true),
            move |node| {
                pagerank::ppm::rank(node, &p);
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
