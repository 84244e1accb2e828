//! Tracing on a real application at the figure-1 smoke configuration:
//! the CG solver on the 8x8x32 chimney, 10 iterations, 4 Franklin nodes
//! (the config CI runs with `--trace`). Tracing must cost zero simulated
//! time (well under the 5% overhead gate), the exports must be valid
//! JSON, and the per-phase trace must reconcile with the phase traffic —
//! in core, and under the cells' tile budget.

use ppm_apps::cg::{self, CgParams};
use ppm_apps::pagerank::{self, PrParams};
use ppm_apps::stencil27::Stencil27;
use ppm_core::testkit::{walk, Cell};
use ppm_core::{NodeCtx, PpmConfig, TraceSink};
use ppm_simnet::{explain, validate_json, FaultConfig, MachineConfig, PhaseSplit, SimTime};

fn fig1_smoke_params() -> CgParams {
    CgParams {
        problem: Stencil27::chimney(8),
        iters: 10,
        rows_per_vp: 64,
        collect_x: false,
        tol: None,
        spmv_chunk: 0,
    }
}

const NODES: u32 = 4;

#[test]
fn fig1_smoke_trace_overhead_is_zero_and_trace_reconciles() {
    // In core, then under the cells' budget.
    let budget = |c: Cell| Cell {
        tile_budget: c.tile_budget,
        ..Cell::default()
    };
    walk(budget, trace_reconciles_at);
}

fn trace_reconciles_at(cell: Cell) {
    let p = fig1_smoke_params();
    let base = ppm_core::run(cell.apply(PpmConfig::franklin(NODES)), move |node| {
        cg::ppm::solve(node, &p).1
    });

    let sink = TraceSink::new();
    let traced = ppm_core::run_traced(
        cell.apply(PpmConfig::franklin(NODES)),
        &sink,
        "fig1 smoke",
        move |node| cg::ppm::solve(node, &p).1,
    );

    // Overhead gate: the issue asks for < 5% on this config; tracing
    // charges no simulated time at all, so the makespans are equal.
    let (tb, tt) = (base.makespan(), traced.makespan());
    assert!(
        (tt - tb).as_ps() * 20 < tb.as_ps().max(1),
        "tracing overhead {:?} is >= 5% of {tb:?}",
        tt - tb
    );
    assert_eq!(tt, tb, "tracing must charge zero simulated time");
    assert_eq!(traced.counters, base.counters, "tracing touched counters");

    // One process, one track per node.
    assert_eq!(sink.jobs(), vec![("fig1 smoke".to_string(), NODES)]);
    let events = sink.events();
    for tid in 0..NODES {
        assert!(
            events
                .iter()
                .any(|e| e.tid == tid && e.name == "global_phase"),
            "node {tid} has no phase spans"
        );
    }

    // Per node: every wave is one bundle per destination, and each phase
    // summary's counter delta reconciles with the phase's traffic.
    for tid in 0..NODES {
        let mut wave_bundles = 0u64;
        let mut phases = 0u64;
        for e in events.iter().filter(|e| e.tid == tid) {
            match e.name {
                "wave" => {
                    assert_eq!(
                        e.arg_u64("bundles"),
                        e.arg_u64("dests"),
                        "node {tid}: one request bundle per (destination, wave)"
                    );
                    wave_bundles += e.arg_u64("bundles").unwrap();
                }
                "global_phase" => {
                    let req = e.arg_u64("req_bundles_out").unwrap();
                    let wr = e.arg_u64("write_bundles_out").unwrap();
                    assert_eq!(
                        req, wave_bundles,
                        "node {tid} phase {phases}: wave bundles disagree \
                         with the phase's request-bundle count"
                    );
                    // Refresh pushes ride barrier messages (tracked via
                    // the separate refresh_bundles_out arg) and so never
                    // show up in the bundle counter.
                    assert!(e.arg_u64("refresh_bundles_out").is_some());
                    assert_eq!(
                        e.arg_u64("d_bundles_sent").unwrap(),
                        req + wr,
                        "node {tid} phase {phases}: bundles_sent delta must \
                         equal request + write bundles"
                    );
                    wave_bundles = 0;
                    phases += 1;
                }
                _ => {}
            }
        }
        // 1 init phase + 3 per CG iteration.
        assert_eq!(phases, 31, "node {tid}: unexpected global phase count");
    }

    // Exports are std-validated JSON (the same check CI runs).
    validate_json(&sink.chrome_trace_json()).expect("chrome trace JSON");
    validate_json(&sink.metrics_json()).expect("metrics JSON");
}

/// `explain` over the golden configurations (`golden.rs`, `ring_golden.rs`):
/// CG and PageRank clean, under a seeded fault schedule and with a crash
/// (node 1, phase 3), and the 100-node scattered ring losing node 77.
/// Every node's split of every phase sums to its span; the recovery term is
/// zero but where a `crash_recovery` / `failover_restore` span lands, and
/// there it is that span; the critical node is the last arrival.
#[test]
fn explain_accounts_every_phase_of_the_golden_configurations() {
    let golden = |faults: FaultConfig| {
        PpmConfig::new(MachineConfig::new(3, 2))
            .with_checker(true)
            .with_read_cache(true)
            .with_adaptive_balance(false)
            .with_replication(false)
            .with_tile_budget(0)
            .with_faults(faults)
    };
    let schedules = [
        FaultConfig::NONE,
        FaultConfig::seeded(23, 0.05, 0.03, 0.03),
        FaultConfig::NONE.with_crash(1, 3),
    ];
    let mut recovered = 0;
    for faults in schedules {
        let mut cg = CgParams::cube(8, 15);
        cg.rows_per_vp = 16;
        recovered += accounts_check(golden(faults), move |node| {
            cg::ppm::solve(node, &cg);
        });
        let pr = PrParams::skewed(200);
        recovered += accounts_check(golden(faults), move |node| {
            pagerank::ppm::rank(node, &pr);
        });
    }
    let (n, victim) = (100, 77);
    let ring = PpmConfig::new(MachineConfig::new(n as u32, 4))
        .with_checker(true)
        .with_replication(true)
        .with_faults(FaultConfig::NONE.with_permanent_crash(victim, 1));
    recovered += accounts_check(ring, move |node| {
        let a = node.alloc_global::<u64>(n);
        let b = node.alloc_global::<u64>(n);
        let me = node.node_id();
        node.ppm_do(4, move |vp| async move {
            let rank = vp.node_rank();
            for round in 0..8 {
                vp.global_phase(|ph| async move {
                    let v = ph.get(&a, (me + n - 1) % n).await;
                    if rank == 0 {
                        ph.put(&a, me, v + round as u64);
                    } else if rank == 1 {
                        ph.put(&b, (me + 1 + 13 * round) % n, v);
                    }
                })
                .await;
            }
        });
    });
    assert!(
        recovered >= 3,
        "two crashes and a failover: {recovered} recoveries"
    );
}

/// Run `body` traced under `cfg`, check every account, and return how many
/// phase summaries carry a recovery.
fn accounts_check(cfg: PpmConfig, body: impl Fn(&mut NodeCtx<'_>) + Send + Sync) -> usize {
    let sink = TraceSink::new();
    let faulty = cfg.machine.faults != FaultConfig::NONE;
    ppm_core::run_traced(cfg, &sink, "explain", |node| body(node));
    let events = sink.events();
    let recoveries: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.name, "crash_recovery" | "failover_restore"))
        .map(|e| ((e.tid, e.arg_u64("phase").unwrap()), e.end() - e.ts))
        .collect();
    let mut recovered = 0;
    let rows = explain(&events);
    assert!(!rows.is_empty());
    for row in &rows {
        let kind = format!("{}_phase", row.kind);
        let phase =
            (events.iter()).filter(|e| e.name == kind && e.arg_u64("phase") == Some(row.index));
        let mut nodes = 0;
        for e in phase {
            let split = PhaseSplit::of(e).unwrap();
            assert_eq!(
                split.total(),
                e.end() - e.ts,
                "node {}: split ≠ span",
                e.tid
            );
            let arrival = e.end() - split.barrier;
            assert!(
                arrival <= row.arrival,
                "node {} arrived after the critical node",
                e.tid
            );
            if e.tid == row.critical {
                assert_eq!((arrival, split), (row.arrival, row.critical_split));
            }
            let landed = recoveries.iter().find(|(at, _)| *at == (e.tid, row.index));
            let landed = if row.kind == "global" { landed } else { None };
            assert_eq!(split.recovery, landed.map_or(SimTime::ZERO, |r| r.1));
            recovered += landed.is_some() as usize;
            nodes += 1;
        }
        assert_eq!(nodes, row.nodes);
    }
    assert!(faulty || recovered == 0, "a recovery in a fault-free run");
    recovered
}
