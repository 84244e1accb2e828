//! Fault-soak: every application must produce bit-identical results under
//! seeded fault schedules (drops, duplicates, delays, and node crashes),
//! with zero phase-semantics violations, and equal seeds must give equal
//! runs (same retry counts, same simulated makespan). The soak matrix's
//! cache-off cells are one of the few places the cache-off path is still
//! exercised (`perf_gates.rs` lists them). Host threads, fault seeds and
//! adaptive repartitioning come from the cells of `ppm_core::testkit::CELLS`.

use ppm_apps::barnes_hut::{self as bh, BhParams};
use ppm_apps::cg::{self, CgParams};
use ppm_apps::matgen::{self, MatGenParams};
use ppm_apps::pagerank::{self, PrParams};
use ppm_apps::stencil27::Stencil27;
use ppm_core::testkit::{cells, walk, Cell, CELLS};
use ppm_core::PpmConfig;
use ppm_simnet::{Counters, FaultConfig, MachineConfig, SimTime};

/// Result bits, simulated makespan, and job-total counters of one run.
type Run = (Vec<u64>, SimTime, Counters);

fn base_cfg(cell: Cell) -> PpmConfig {
    cell.apply(PpmConfig::new(MachineConfig::new(3, 2)))
}

/// The knobs this suite walks besides the seed: host threads × adaptive
/// repartitioning.
fn threads_and_adaptive(c: Cell) -> Cell {
    Cell {
        host_threads: c.host_threads,
        adaptive: c.adaptive,
        ..Cell::default()
    }
}

/// Adaptive repartitioning alone, for the single-schedule tests; the
/// thread count meets it in [`soak`] and `cg_same_seed_same_run`.
fn adaptive(c: Cell) -> Cell {
    Cell {
        adaptive: c.adaptive,
        ..Cell::default()
    }
}

/// Each cell's schedule: its seed, its host threads, its adaptive switch.
fn seeded(cell: Cell) -> PpmConfig {
    let faults = FaultConfig::seeded(cell.fault_seed, 0.05, 0.03, 0.03);
    base_cfg(threads_and_adaptive(cell)).with_faults(faults)
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

/// A clean run per adaptive setting, then the seeded fault schedule of
/// each cell at `threads` host threads — one per seed, one with adaptive
/// repartitioning on: results must be bit-identical to the clean run,
/// faults must only cost time, and the suite as a whole must actually
/// exercise the retry machinery.
fn soak(name: &str, threads: usize, run: &dyn Fn(PpmConfig) -> Run) {
    let clean_at = |adaptive: bool| {
        let (clean, clean_t, clean_c) = run(base_cfg(Cell {
            adaptive,
            ..Cell::default()
        }));
        assert!(
            clean_c.reliability_summary().is_clean(),
            "{name}: fault-free run must not touch the reliability layer: {:?}",
            clean_c.reliability_summary()
        );
        (clean, clean_t)
    };
    let clean = [clean_at(false), clean_at(true)];
    let mut injected = 0;
    for cell in CELLS.into_iter().filter(|c| c.host_threads == threads) {
        let (out, t, c) = run(seeded(cell));
        let (clean, clean_t) = &clean[cell.adaptive as usize];
        assert_eq!(&out, clean, "{name}: {cell:?} changed the results");
        assert!(t >= *clean_t, "{name}: {cell:?} made the job faster");
        assert_eq!(c.retries, c.faults_dropped, "{name}: every drop is retried");
        injected += c.retries + c.dups_suppressed + c.faults_delayed;
    }
    assert!(injected > 0, "{name}: soak never injected a single fault");
}

#[test]
fn cg_survives_fault_soak() {
    soak("cg", 1, &run_cg);
}

#[test]
fn matgen_survives_fault_soak() {
    soak("matgen", 2, &run_matgen);
}

#[test]
fn pagerank_survives_fault_soak() {
    soak("pagerank", 2, &run_pagerank);
}

#[test]
fn barnes_hut_survives_fault_soak() {
    soak("barnes_hut", 8, &run_barnes_hut);
}

/// The read cache (DESIGN.md §13) under the soak matrix: every (schedule ×
/// knob) cell must produce the bit-identical CG solution, and the cache
/// must never cost simulated time. The faulted schedules are the cells that
/// switch adaptive repartitioning on — one per seed and per host thread
/// count.
#[test]
fn soak_matrix_is_bit_identical_across_knobs_and_opts_never_cost_time() {
    let on = |c: PpmConfig| c.with_read_cache(true);
    let off = |c: PpmConfig| c.with_read_cache(false);
    let (clean, _, _) = run_cg(on(base_cfg(Cell::default())));
    let faulted = CELLS.into_iter().filter(|c| c.adaptive);
    let schedules = std::iter::once(("clean".to_string(), base_cfg(Cell::default())))
        .chain(faulted.map(|cell| (format!("faults, {cell:?}"), seeded(cell))));
    for (desc, cfg) in schedules {
        let (r_on, t_on, _) = run_cg(on(cfg));
        let (r_off, t_off, _) = run_cg(off(cfg));
        assert_eq!(r_on, clean, "{desc}: cache on changed the solution");
        assert_eq!(r_off, clean, "{desc}: cache off changed the solution");
        assert!(
            t_on <= t_off,
            "{desc}: the cache made the job slower ({t_on:?} > {t_off:?})"
        );
    }
}

/// Adaptive repartitioning (DESIGN.md §14) under the soak matrix: on the
/// skewed fixture — where the balancer genuinely migrates partitions —
/// every (schedule × adaptive knob) cell must produce the bit-identical
/// ranks. The schedules are the cells that switch adaptive balance on —
/// one per seed and per host thread count. (The makespan *win* is gated in
/// balance_gates.rs on the larger fixture; at this soak size migration is
/// exercised but not required to pay off.)
#[test]
fn adaptive_soak_matrix_is_bit_identical_across_schedules() {
    let p = PrParams::skewed(400);
    let run = |cfg: PpmConfig| {
        run_app(cfg, move |node| {
            let (ranks, _) = pagerank::ppm::rank(node, &p);
            ranks.iter().map(|v| v.to_bits()).collect()
        })
    };
    let (clean, _, _) = run(base_cfg(Cell::default()).with_adaptive_balance(true));
    let faulted = CELLS.into_iter().filter(|c| c.adaptive);
    let schedules = std::iter::once(("clean".to_string(), base_cfg(Cell::default())))
        .chain(faulted.map(|cell| (format!("faults, {cell:?}"), seeded(cell))));
    for (desc, cfg) in schedules {
        let (r_on, t_on, _) = run(cfg.with_adaptive_balance(true));
        let (r_off, t_off, _) = run(cfg.with_adaptive_balance(false));
        assert_eq!(r_on, clean, "{desc}: adaptive changed the ranks");
        assert_eq!(r_off, clean, "{desc}: static disagrees with adaptive");
        if desc == "clean" {
            // Migration really engaged: the adaptive schedule is a
            // different schedule (moved partitions change the timeline
            // even though the solution bits cannot move).
            assert_ne!(
                t_on, t_off,
                "{desc}: adaptive run never migrated on the skewed fixture"
            );
        }
    }
}

/// A crash at the boundaries around the first migration window: recovery
/// restores the post-migration snapshot line, so the replayed run must
/// still land on the bit-identical adaptive solution.
#[test]
fn pagerank_recovers_from_a_crash_mid_migration() {
    let p = PrParams::skewed(400);
    let run = |cfg: PpmConfig| {
        run_app(cfg, move |node| {
            let (ranks, _) = pagerank::ppm::rank(node, &p);
            ranks.iter().map(|v| v.to_bits()).collect()
        })
    };
    let (clean, clean_t, _) = run(base_cfg(Cell::default()).with_adaptive_balance(true));
    let threads = cells(|c| Cell {
        host_threads: c.host_threads,
        ..Cell::default()
    });
    for (phase, cell) in [4u64, 5, 6].into_iter().zip(threads) {
        let cfg = base_cfg(cell)
            .with_adaptive_balance(true)
            .with_faults(FaultConfig::NONE.with_crash(1, phase));
        let (out, t, c) = run(cfg);
        assert_eq!(
            out, clean,
            "crash at phase {phase}: recovered ranks must be bit-identical"
        );
        assert_eq!(c.crash_recoveries, 1, "crash at phase {phase}");
        assert!(
            t > clean_t,
            "crash at phase {phase}: reboot + redone compute must cost time"
        );
    }
}

#[test]
fn cg_survives_the_ci_seed() {
    // CI's fault-soak job sweeps PPM_FAULT_SEED over a small matrix; the
    // local fallback seed keeps the test meaningful in plain `cargo test`.
    let seed: u64 = std::env::var("PPM_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let (clean, clean_t, _) = run_cg(base_cfg(Cell::default()));
    let cfg = base_cfg(Cell::default()).with_faults(FaultConfig::seeded(seed, 0.05, 0.03, 0.03));
    let (out, t, _) = run_cg(cfg);
    assert_eq!(out, clean, "seed {seed} changed the CG solution");
    assert!(t >= clean_t, "seed {seed} made the job faster");
}

#[test]
fn cg_same_seed_same_run() {
    walk(threads_and_adaptive, |cell| {
        let cfg = || base_cfg(cell).with_faults(FaultConfig::seeded(23, 0.05, 0.03, 0.03));
        let (res_a, t_a, c_a) = run_cg(cfg());
        let (res_b, t_b, c_b) = run_cg(cfg());
        assert_eq!(res_a, res_b);
        assert_eq!(t_a, t_b, "same seed must give the same simulated makespan");
        assert_eq!(c_a, c_b, "same seed must give identical counters");
    });
}

#[test]
fn cg_recovers_from_a_node_crash() {
    walk(adaptive, |cell| {
        let (clean, clean_t, _) = run_cg(base_cfg(cell));
        let cfg = base_cfg(cell).with_faults(FaultConfig::NONE.with_crash(1, 3));
        let (out, t, c) = run_cg(cfg);
        assert_eq!(out, clean, "recovered CG solution must be bit-identical");
        assert_eq!(c.crash_recoveries, 1);
        assert!(
            t > clean_t,
            "reboot + redone compute must cost simulated time"
        );
    });
}

#[test]
fn reliability_overhead_on_fig1_smoke_is_under_5_percent() {
    walk(adaptive, reliability_overhead_at);
}

fn reliability_overhead_at(cell: Cell) {
    // Figure-1 smoke configuration (see EXPERIMENTS.md): 8x8x32 chimney,
    // 10 CG iterations, 4 Franklin nodes. Forcing the reliable transport
    // on without faults must cost less than 5% simulated makespan — in
    // fact exactly zero, because sequence numbers ride on envelope
    // metadata and cumulative acks are modeled as piggybacked.
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
    let rel = run(cell.apply(PpmConfig::franklin(4)).with_reliability(true));
    println!("fig1 smoke makespan: base {base:?}, reliable {rel:?}");
    assert!(rel >= base);
    let overhead = rel - base;
    assert!(
        overhead.as_ps() * 20 < base.as_ps(),
        "reliability overhead {overhead:?} is >= 5% of {base:?}"
    );
}

#[test]
fn cg_recovers_from_a_crash_under_random_faults() {
    walk(adaptive, |cell| {
        let (clean, _, _) = run_cg(base_cfg(cell));
        let faults = FaultConfig::seeded(9, 0.04, 0.02, 0.02).with_crash(2, 5);
        let (out, _, c) = run_cg(base_cfg(cell).with_faults(faults));
        assert_eq!(out, clean);
        assert_eq!(c.crash_recoveries, 1);
        assert!(c.retries > 0, "random schedule should also drop something");
    });
}
