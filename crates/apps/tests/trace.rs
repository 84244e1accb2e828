//! Tracing on a real application at the figure-1 smoke configuration:
//! the CG solver on the 8x8x32 chimney, 10 iterations, 4 Franklin nodes
//! (the config CI runs with `--trace`). Tracing must cost zero simulated
//! time (well under the 5% overhead gate), the exports must be valid
//! JSON, and the per-phase trace must reconcile with the phase traffic —
//! in core, and under the tile budget of each cell that sets one (at
//! 1, 2 and 8 host threads).

use ppm_apps::cg::{self, CgParams};
use ppm_apps::stencil27::Stencil27;
use ppm_core::testkit::{walk, Cell};
use ppm_core::{PpmConfig, TraceSink};
use ppm_simnet::validate_json;

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
    // In core, then each cell that sets a budget, at its thread count.
    let budgeted = |c: Cell| match c.tile_budget {
        0 => Cell::default(),
        tile_budget => Cell {
            host_threads: c.host_threads,
            tile_budget,
            ..Cell::default()
        },
    };
    walk(budgeted, trace_reconciles_at);
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
