//! Acceptance gates for fail-stop failure tolerance (DESIGN.md §15):
//! every application must finish with bit-identical results after a node
//! dies permanently mid-run — with buddy replication on, at every host
//! thread count of the cells — and the fault-free replication overhead on
//! the figure-1
//! smoke configuration must stay under 5% simulated makespan. A traced
//! run additionally proves the `failover` instant fires on the adopting
//! buddy with the adopted footprint in its payload.

use ppm_apps::barnes_hut::{self as bh, BhParams};
use ppm_apps::cg::{self, CgParams};
use ppm_apps::matgen::{self, MatGenParams};
use ppm_apps::pagerank::{self, PrParams};
use ppm_apps::stencil27::Stencil27;
use ppm_core::testkit::{cells, walk, Cell, CELLS};
use ppm_core::{PpmConfig, TraceSink};
use ppm_simnet::{ArgValue, Counters, FaultConfig, MachineConfig, SimTime};

/// Result bits, simulated makespan, and job-total counters of one run.
type Run = (Vec<u64>, SimTime, Counters);

/// The cells this suite walks: host threads.
fn threads(c: Cell) -> Cell {
    Cell {
        host_threads: c.host_threads,
        ..Cell::default()
    }
}

fn base_cfg(cell: Cell) -> PpmConfig {
    // Replication pinned explicitly so both sides are tested: clean
    // baselines need it off, death schedules switch it on.
    cell.apply(PpmConfig::new(MachineConfig::new(3, 2)))
        .with_replication(false)
}

/// A permanent death of `node` at global phase `phase`, with the buddy
/// replication stream on so the job can survive it.
fn death_cfg(cell: Cell, node: usize, phase: u64) -> PpmConfig {
    base_cfg(cell)
        .with_replication(true)
        .with_faults(FaultConfig::NONE.with_permanent_crash(node, phase))
}

/// Run `body` as a PPM job, assert conformance and cross-node agreement,
/// and reduce the job to comparable bits.
fn run_app<F>(cfg: PpmConfig, body: F) -> Run
where
    F: Fn(&mut ppm_core::NodeCtx<'_>) -> Vec<u64> + Send + Sync,
{
    let report = ppm_core::run(cfg, move |node| {
        let bits = body(node);
        let violations = node.take_violations();
        assert!(violations.is_empty(), "conformance: {violations:?}");
        bits
    });
    let first = report.results[0].clone();
    for (i, r) in report.results.iter().enumerate() {
        assert_eq!(r, &first, "node {i} disagrees with node 0");
    }
    (first, report.makespan(), report.total_counters())
}

fn run_cg(cfg: PpmConfig) -> Run {
    let mut p = CgParams::cube(8, 15);
    p.rows_per_vp = 16;
    run_app(cfg, move |node| {
        let (out, _) = cg::ppm::solve(node, &p);
        let mut bits = vec![out.rr.to_bits()];
        bits.extend(out.x.iter().map(|v| v.to_bits()));
        bits
    })
}

fn run_matgen(cfg: PpmConfig) -> Run {
    let p = MatGenParams::new(4, 8);
    run_app(cfg, move |node| {
        let (m, _) = matgen::ppm::generate(node, &p);
        m.iter().map(|v| v.to_bits()).collect()
    })
}

fn run_pagerank(cfg: PpmConfig) -> Run {
    let p = PrParams::new(200);
    run_app(cfg, move |node| {
        let (ranks, _) = pagerank::ppm::rank(node, &p);
        ranks.iter().map(|v| v.to_bits()).collect()
    })
}

fn run_barnes_hut(cfg: PpmConfig) -> Run {
    let mut p = BhParams::new(128);
    p.steps = 2;
    run_app(cfg, move |node| {
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
}

/// The tentpole gate: kill node 1 for good at `phase`, run at every host
/// thread count of the cells, and demand the bit-identical clean result
/// each time.
fn survives_death(name: &str, phase: u64, run: &dyn Fn(PpmConfig) -> Run) {
    let (clean, clean_t, _) = run(base_cfg(Cell::default()));
    for cell in cells(threads) {
        let (out, t, c) = run(death_cfg(cell, 1, phase));
        assert_eq!(
            out, clean,
            "{name}: results differ from fault-free after a permanent death \
             ({cell:?})"
        );
        assert_eq!(
            c.failovers, 1,
            "{name}: the death at phase {phase} never fired or was adopted \
             more than once"
        );
        assert_eq!(c.peers_suspected, 2, "{name}: both survivors suspect");
        assert_eq!(c.peers_confirmed_dead, 2, "{name}: both survivors confirm");
        assert!(c.replica_bytes > 0, "{name}: no replica stream flowed");
        assert!(
            t > clean_t,
            "{name}: detection + restore + redo must cost simulated time"
        );
    }
}

#[test]
fn cg_survives_a_permanent_death() {
    survives_death("cg", 3, &run_cg);
}

#[test]
fn matgen_survives_a_permanent_death() {
    survives_death("matgen", 2, &run_matgen);
}

#[test]
fn pagerank_survives_a_permanent_death() {
    survives_death("pagerank", 2, &run_pagerank);
}

#[test]
fn barnes_hut_survives_a_permanent_death() {
    survives_death("barnes_hut", 2, &run_barnes_hut);
}

/// Chaos row: a permanent death composed with a seeded random fault
/// schedule (drops, duplicates, delays), at the seed and host threads of
/// each cell that switches replication on, and at `PPM_FAULT_SEED` (9 if
/// unset), which CI's chaos job sweeps.
#[test]
fn cg_survives_a_permanent_death_under_random_faults() {
    let seed: u64 = std::env::var("PPM_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(9);
    let (clean, _, _) = run_cg(base_cfg(Cell::default()));
    let replicated = CELLS.into_iter().filter(|c| c.replication);
    let env = Cell {
        fault_seed: seed,
        ..Cell::default()
    };
    for cell in replicated.chain([env]) {
        let seed = cell.fault_seed;
        let faults = FaultConfig::seeded(seed, 0.04, 0.02, 0.02).with_permanent_crash(2, 4);
        let cfg = base_cfg(threads(cell))
            .with_replication(true)
            .with_faults(faults);
        let (out, _, c) = run_cg(cfg);
        assert_eq!(out, clean, "{cell:?} + permanent death changed CG");
        assert_eq!(c.failovers, 1, "{cell:?}: the death never fired");
        assert_eq!(c.retries, c.faults_dropped, "{cell:?}: every drop retried");
    }
}

/// Edge case: the death lands in the adaptive repartitioner's first
/// migration window on the skewed fixture, so partitions are re-homed by
/// the balancer and by the failover in the same region of the run.
#[test]
fn pagerank_survives_a_death_mid_migration() {
    let p = PrParams::skewed(400);
    let run = |cfg: PpmConfig| {
        run_app(cfg, move |node| {
            let (ranks, _) = pagerank::ppm::rank(node, &p);
            ranks.iter().map(|v| v.to_bits()).collect()
        })
    };
    let (clean, _, _) = run(base_cfg(Cell::default()).with_adaptive_balance(true));
    for (phase, cell) in [4u64, 5, 6].into_iter().zip(cells(threads)) {
        let cfg = base_cfg(cell)
            .with_adaptive_balance(true)
            .with_replication(true)
            .with_faults(FaultConfig::NONE.with_permanent_crash(1, phase));
        let (out, _, c) = run(cfg);
        assert_eq!(
            out, clean,
            "death at phase {phase}, {cell:?}: ranks must match the clean adaptive run"
        );
        assert_eq!(c.failovers, 1, "death at phase {phase} never fired");
    }
}

/// Edge case: two deaths. First the victim, then — one phase later — the
/// buddy that had just adopted it, forcing the replica stream to re-home.
#[test]
fn cg_survives_a_buddy_death() {
    walk(threads, |cell| {
        let (clean, _, _) = run_cg(base_cfg(cell));
        let faults = FaultConfig::NONE
            .with_permanent_crash(1, 3)
            .with_permanent_crash(2, 4);
        let (out, _, c) = run_cg(base_cfg(cell).with_replication(true).with_faults(faults));
        assert_eq!(out, clean, "cascaded deaths changed the CG solution");
        assert_eq!(c.failovers, 2);
    });
}

/// Edge case: both deaths at the same phase boundary; the sole survivor
/// confirms and adopts both at once.
#[test]
fn cg_survives_two_simultaneous_deaths() {
    walk(threads, |cell| {
        let (clean, _, _) = run_cg(base_cfg(cell));
        let faults = FaultConfig::NONE
            .with_permanent_crash(1, 3)
            .with_permanent_crash(2, 3);
        let (out, _, c) = run_cg(base_cfg(cell).with_replication(true).with_faults(faults));
        assert_eq!(out, clean, "a double death changed the CG solution");
        assert_eq!(c.failovers, 2);
    });
}

/// The failover is observable: a traced run carries exactly one
/// `failover` instant, on the adopting buddy, whose payload reports the
/// adopted footprint (the EXPERIMENTS.md failover table harvests these).
#[test]
fn permanent_death_emits_a_failover_trace_instant() {
    walk(threads, failover_trace_instant_at);
}

fn failover_trace_instant_at(cell: Cell) {
    let mut p = CgParams::cube(8, 15);
    p.rows_per_vp = 16;
    let sink = TraceSink::new();
    ppm_core::run_traced(death_cfg(cell, 1, 3), &sink, "cg failover", move |node| {
        cg::ppm::solve(node, &p).1
    });
    let events: Vec<_> = sink
        .events()
        .into_iter()
        .filter(|e| e.name == "failover")
        .collect();
    assert_eq!(events.len(), 1, "exactly one adoption for one death");
    let ev = &events[0];
    assert_eq!(ev.tid, 2, "node 2 is node 1's buddy");
    let arg = |key: &str| -> u64 {
        ev.args
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| match v {
                ArgValue::U64(n) => *n,
                _ => panic!("{key} must be a u64 payload"),
            })
            .unwrap_or_else(|| panic!("failover instant lacks {key}"))
    };
    assert_eq!(arg("victim"), 1);
    assert_eq!(arg("phase"), 3);
    assert!(arg("adopted_elems") > 0, "the victim owned partitions");
    assert!(arg("adopted_bytes") > 0);
    assert!(arg("adopted_vps") > 0, "the victim ran VPs");
}

/// Replication overhead gate on the figure-1 smoke configuration (see
/// EXPERIMENTS.md): snapshot delta frames ride barrier messages that are
/// sent anyway, so a fault-free replicated run must cost < 5% simulated
/// makespan over the baseline.
#[test]
fn replication_overhead_on_fig1_smoke_is_under_5_percent() {
    walk(threads, replication_overhead_at);
}

fn replication_overhead_at(cell: Cell) {
    let problem = Stencil27::chimney(8);
    let params = CgParams {
        problem,
        iters: 10,
        rows_per_vp: 64,
        collect_x: false,
        tol: None,
        spmv_chunk: 0,
    };
    let run = |cfg: PpmConfig| {
        let p = params;
        ppm_core::run(cfg, move |node| cg::ppm::solve(node, &p).1).makespan()
    };
    let base = run(cell.apply(PpmConfig::franklin(4)));
    let repl = run(cell.apply(PpmConfig::franklin(4)).with_replication(true));
    println!("fig1 smoke makespan: base {base:?}, replicated {repl:?}");
    assert!(repl >= base);
    let overhead = repl - base;
    assert!(
        overhead.as_ps() * 20 < base.as_ps(),
        "replication overhead {overhead:?} is >= 5% of {base:?}"
    );
}

/// With replication off and no faults, the new machinery must be
/// completely invisible: the reliability summary stays clean and the
/// fast path is byte-identical to the baseline, makespan included.
#[test]
fn replication_off_fast_path_is_untouched() {
    walk(threads, |cell| {
        let (clean, clean_t, clean_c) = run_cg(base_cfg(cell));
        let (out, t, c) = run_cg(base_cfg(cell).with_replication(false));
        assert_eq!(out, clean);
        assert_eq!(t, clean_t, "the knob alone must not change the makespan");
        assert_eq!(c, clean_c, "the knob alone must not change any counter");
        assert!(clean_c.reliability_summary().is_clean());
        assert_eq!(c.replica_bytes, 0);
        assert_eq!(c.failovers, 0);
    });
}
