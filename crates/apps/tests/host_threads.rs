//! Rerun determinism soak (DESIGN.md §12): a job's node threads still race
//! in the router, so every observable of a job (result bits, simulated
//! makespan, counters, and the full trace JSON) must be bit-identical run
//! to run. This suite pins that for all four applications under seeded
//! fault schedules, and for CG crash recovery, by running each config twice.
//! The `cache off` cells are one of the few places the cache-off path is
//! still exercised (`perf_gates.rs` lists them). The other knobs come from
//! the cells of `ppm_core::testkit::CELLS`. The file name is that of the
//! host-thread-count comparison this soak replaced.

use ppm_apps::barnes_hut::{self as bh, BhParams};
use ppm_apps::cg::{self, CgParams};
use ppm_apps::matgen::{self, MatGenParams};
use ppm_apps::pagerank::{self, PrParams};
use ppm_core::testkit::{Cell, CELLS};
use ppm_core::{PpmConfig, TraceSink};
use ppm_simnet::{Counters, FaultConfig, MachineConfig, SimTime};

/// Every observable of one traced run: result bits, simulated makespan,
/// job-total counters, and the exported Chrome trace JSON.
struct Observables {
    bits: Vec<u64>,
    makespan: SimTime,
    counters: Counters,
    trace: String,
}

fn base_cfg() -> PpmConfig {
    PpmConfig::new(MachineConfig::new(3, 2))
}

fn run_app<F>(cfg: PpmConfig, label: &str, body: F) -> Observables
where
    F: Fn(&mut ppm_core::NodeCtx<'_>) -> Vec<u64> + Send + Sync,
{
    let sink = TraceSink::new();
    let report = ppm_core::run_traced(cfg, &sink, label, move |node| {
        let bits = body(node);
        let violations = node.take_violations();
        assert!(violations.is_empty(), "conformance: {violations:?}");
        bits
    });
    let first = report.results[0].clone();
    for (i, r) in report.results.iter().enumerate() {
        assert_eq!(r, &first, "node {i} disagrees with node 0");
    }
    Observables {
        bits: first,
        makespan: report.makespan(),
        counters: report.total_counters(),
        trace: sink.chrome_trace_json(),
    }
}

/// Run the app twice for each config in `cfgs`, asserting that the two
/// runs agree on all observables.
fn assert_rerun_identical(
    name: &str,
    cfgs: &[(String, PpmConfig)],
    run: &(dyn Fn(PpmConfig, &str) -> Observables + Sync),
) {
    for (desc, cfg) in cfgs {
        let base = run(*cfg, name);
        let got = run(*cfg, name);
        assert_eq!(
            got.bits, base.bits,
            "{name} [{desc}]: a rerun changed the results"
        );
        assert_eq!(
            got.makespan, base.makespan,
            "{name} [{desc}]: a rerun changed the makespan"
        );
        assert_eq!(
            got.counters, base.counters,
            "{name} [{desc}]: a rerun changed the counters"
        );
        assert_eq!(
            got.trace, base.trace,
            "{name} [{desc}]: a rerun changed the trace JSON"
        );
    }
}

/// The knobs a cell sets besides the fault seed, which this suite walks
/// itself: adaptive repartitioning (DESIGN.md §14), replication (§15) and
/// the tile budget (§18).
fn knobs(c: Cell) -> Cell {
    Cell {
        adaptive: c.adaptive,
        replication: c.replication,
        tile_budget: c.tile_budget,
        ..Cell::default()
    }
}

/// The knobs of the last three cells: every switch on, replication alone,
/// every switch off. The crash tests take these.
fn crash_cells() -> impl Iterator<Item = Cell> {
    CELLS[6..].iter().copied().map(knobs)
}

/// Each cell's knobs under its seeded fault schedule and, once per
/// distinct setting, clean — with the read cache (DESIGN.md §13) off in the
/// first three cells and on in the rest, so that it too meets every seed
/// and both sides of every switch. Rerun identity then holds on both sides
/// of every knob, including runs that migrate partitions mid-job.
fn soak_cfgs() -> Vec<(String, PpmConfig)> {
    let mut cfgs: Vec<(String, PpmConfig)> = Vec::new();
    for (row, cell) in CELLS.into_iter().enumerate() {
        let cache = row >= 3;
        let cfg = knobs(cell).apply(base_cfg()).with_read_cache(cache);
        let clean = format!("clean, cache {cache}, {:?}", knobs(cell));
        if cfgs.iter().all(|(desc, _)| *desc != clean) {
            cfgs.push((clean, cfg));
        }
        let faults = FaultConfig::seeded(cell.fault_seed, 0.05, 0.03, 0.03);
        cfgs.push((
            format!("faults, cache {cache}, {cell:?}"),
            cfg.with_faults(faults),
        ));
    }
    cfgs
}

#[test]
fn cg_is_bit_identical_run_to_run() {
    let mut p = CgParams::cube(8, 15);
    p.rows_per_vp = 16;
    assert_rerun_identical("cg", &soak_cfgs(), &move |cfg, label| {
        run_app(cfg, label, move |node| {
            let (out, _) = cg::ppm::solve(node, &p);
            let mut bits = vec![out.rr.to_bits()];
            bits.extend(out.x.iter().map(|v| v.to_bits()));
            bits
        })
    });
}

#[test]
fn matgen_is_bit_identical_run_to_run() {
    let p = MatGenParams::new(4, 8);
    assert_rerun_identical("matgen", &soak_cfgs(), &move |cfg, label| {
        run_app(cfg, label, move |node| {
            let (m, _) = matgen::ppm::generate(node, &p);
            m.iter().map(|v| v.to_bits()).collect()
        })
    });
}

#[test]
fn pagerank_is_bit_identical_run_to_run() {
    // The skewed fixture, so the adaptive matrix cells really migrate.
    let p = PrParams::skewed(200);
    assert_rerun_identical("pagerank", &soak_cfgs(), &move |cfg, label| {
        run_app(cfg, label, move |node| {
            let (ranks, _) = pagerank::ppm::rank(node, &p);
            ranks.iter().map(|v| v.to_bits()).collect()
        })
    });
}

#[test]
fn barnes_hut_is_bit_identical_run_to_run() {
    // The clustered fixture, so the adaptive matrix cells really migrate.
    let mut p = BhParams::clustered(128);
    p.steps = 2;
    assert_rerun_identical("barnes_hut", &soak_cfgs(), &move |cfg, label| {
        run_app(cfg, label, move |node| {
            let (bodies, _) = bh::ppm::simulate(node, &p);
            bodies
                .iter()
                .flat_map(|b| {
                    [
                        b.x.to_bits(),
                        b.y.to_bits(),
                        b.z.to_bits(),
                        b.vx.to_bits(),
                        b.vy.to_bits(),
                        b.vz.to_bits(),
                    ]
                })
                .collect()
        })
    });
}

/// Phase-boundary crash recovery must itself be deterministic: the same
/// crash schedule replays to the same recovered solution, redo cost, and
/// recovery count on every run.
#[test]
fn cg_crash_recovery_is_bit_identical_run_to_run() {
    let mut p = CgParams::cube(8, 15);
    p.rows_per_vp = 16;
    let run = move |cfg: PpmConfig, label: &str| {
        run_app(cfg, label, move |node| {
            let (out, _) = cg::ppm::solve(node, &p);
            let mut bits = vec![out.rr.to_bits()];
            bits.extend(out.x.iter().map(|v| v.to_bits()));
            bits
        })
    };
    let cfgs: Vec<(String, PpmConfig)> = crash_cells()
        .map(|cell| {
            (
                format!("crash node 1 at phase 3, {cell:?}"),
                cell.apply(base_cfg())
                    .with_faults(FaultConfig::NONE.with_crash(1, 3)),
            )
        })
        .collect();
    assert_rerun_identical("cg-crash", &cfgs, &run);
    // And the recovery really happened.
    let got = run(cfgs[0].1, "cg-crash");
    assert_eq!(got.counters.crash_recoveries, 1);
}

/// A crash landing in the middle of an adaptively rebalancing run must
/// replay identically on every run: the recovery line is post-migration,
/// so the restored partitions are the migrated ones.
#[test]
fn adaptive_crash_recovery_is_bit_identical_run_to_run() {
    let p = PrParams::skewed(200);
    let run = move |cfg: PpmConfig, label: &str| {
        run_app(cfg, label, move |node| {
            let (ranks, _) = pagerank::ppm::rank(node, &p);
            ranks.iter().map(|v| v.to_bits()).collect()
        })
    };
    // Crash right around the first rebalance window (the decision fires
    // once `MIN_WINDOW = 4` phases of loads are banked), one phase per
    // cell.
    let cfgs: Vec<(String, PpmConfig)> = crash_cells()
        .zip([4u64, 5, 6])
        .map(|(cell, phase)| {
            let cell = Cell {
                adaptive: true,
                ..cell
            };
            (
                format!("crash node 1 at phase {phase}, {cell:?}"),
                cell.apply(base_cfg())
                    .with_faults(FaultConfig::NONE.with_crash(1, phase)),
            )
        })
        .collect();
    assert_rerun_identical("pagerank-adaptive-crash", &cfgs, &run);
    let got = run(cfgs[0].1, "pagerank-adaptive-crash");
    assert_eq!(got.counters.crash_recoveries, 1);
}
