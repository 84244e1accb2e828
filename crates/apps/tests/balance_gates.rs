//! Acceptance gates for trace-guided adaptive repartitioning
//! (DESIGN.md §14): on deliberately skewed fixtures the adaptive runs
//! must strictly beat the static ones on simulated makespan and on the
//! max/mean per-node compute ratio while producing bit-identical
//! solutions; on the uniform figure-1 smoke configuration they must be
//! no worse. A traced run additionally proves the `rebalance` events
//! actually fire (and say how much moved).

use ppm_apps::barnes_hut::{self, BhParams};
use ppm_apps::cg::{self, CgParams};
use ppm_apps::pagerank::{self, PrParams};
use ppm_apps::stencil27::Stencil27;
use ppm_core::{PpmConfig, TraceSink};
use ppm_simnet::{Counters, SimTime};

const NODES: u32 = 4;

/// Pinned explicitly, so both sides are tested.
fn adaptive(on: bool) -> PpmConfig {
    PpmConfig::franklin(NODES).with_adaptive_balance(on)
}

/// Result bits, simulated makespan, and per-node counters of one run.
type Run = (Vec<u64>, SimTime, Vec<Counters>);

/// max/mean per-node compute (flops), in permille: 1000 = perfectly
/// balanced, 2000 = the busiest node does twice the mean.
fn imbalance_permille(counters: &[Counters]) -> u64 {
    let max = counters.iter().map(|c| c.flops).max().unwrap_or(0);
    let total: u64 = counters.iter().map(|c| c.flops).sum();
    max * counters.len() as u64 * 1000 / total.max(1)
}

fn check_agreement(report: &ppm_simnet::JobReport<Vec<u64>>) -> Vec<u64> {
    let first = report.results[0].clone();
    for (i, r) in report.results.iter().enumerate() {
        assert_eq!(r, &first, "node {i} disagrees with node 0");
    }
    first
}

fn skewed_pagerank(cfg: PpmConfig) -> Run {
    let p = PrParams::skewed(4096);
    let report = ppm_core::run(cfg, move |node| {
        let (ranks, _) = pagerank::ppm::rank(node, &p);
        let violations = node.take_violations();
        assert!(violations.is_empty(), "conformance: {violations:?}");
        ranks.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
    });
    let bits = check_agreement(&report);
    (bits, report.makespan(), report.counters.clone())
}

fn clustered_barnes_hut(cfg: PpmConfig) -> Run {
    let mut p = BhParams::clustered(768);
    p.steps = 4; // enough phase boundaries for several rebalance windows
    let report = ppm_core::run(cfg, move |node| {
        let (bodies, _) = barnes_hut::ppm::simulate(node, &p);
        let violations = node.take_violations();
        assert!(violations.is_empty(), "conformance: {violations:?}");
        bodies
            .iter()
            .flat_map(|b| [b.x, b.y, b.z, b.vx, b.vy, b.vz].map(f64::to_bits))
            .collect::<Vec<u64>>()
    });
    let bits = check_agreement(&report);
    (bits, report.makespan(), report.counters.clone())
}

fn fig1_smoke(cfg: PpmConfig) -> Run {
    let p = CgParams {
        problem: Stencil27::chimney(8),
        iters: 10,
        rows_per_vp: 64,
        collect_x: true,
        tol: None,
        spmv_chunk: 0,
    };
    let report = ppm_core::run(cfg, move |node| {
        let (out, _) = cg::ppm::solve(node, &p);
        let violations = node.take_violations();
        assert!(violations.is_empty(), "conformance: {violations:?}");
        let mut bits = vec![out.rr.to_bits()];
        bits.extend(out.x.iter().map(|v| v.to_bits()));
        bits
    });
    let bits = check_agreement(&report);
    (bits, report.makespan(), report.counters.clone())
}

#[test]
fn skewed_pagerank_adaptive_strictly_beats_static() {
    let (bits_on, t_on, c_on) = skewed_pagerank(adaptive(true));
    let (bits_off, t_off, c_off) = skewed_pagerank(adaptive(false));
    let (r_on, r_off) = (imbalance_permille(&c_on), imbalance_permille(&c_off));
    println!(
        "skewed pagerank  adaptive: makespan {t_on:?}, max/mean {r_on}‰\n\
         skewed pagerank    static: makespan {t_off:?}, max/mean {r_off}‰"
    );
    assert_eq!(bits_on, bits_off, "repartitioning changed the ranks");
    assert!(
        t_on < t_off,
        "adaptive makespan must strictly drop: on {t_on:?}, off {t_off:?}"
    );
    assert!(
        r_on < r_off,
        "max/mean compute ratio must strictly drop: on {r_on}‰, off {r_off}‰"
    );
}

#[test]
fn clustered_barnes_hut_adaptive_strictly_beats_static() {
    let (bits_on, t_on, c_on) = clustered_barnes_hut(adaptive(true));
    let (bits_off, t_off, c_off) = clustered_barnes_hut(adaptive(false));
    let (r_on, r_off) = (imbalance_permille(&c_on), imbalance_permille(&c_off));
    println!(
        "clustered BH  adaptive: makespan {t_on:?}, max/mean {r_on}‰\n\
         clustered BH    static: makespan {t_off:?}, max/mean {r_off}‰"
    );
    assert_eq!(bits_on, bits_off, "repartitioning changed the trajectories");
    assert!(
        t_on < t_off,
        "adaptive makespan must strictly drop: on {t_on:?}, off {t_off:?}"
    );
    assert!(
        r_on < r_off,
        "max/mean compute ratio must strictly drop: on {r_on}‰, off {r_off}‰"
    );
}

/// Uniform workload: the balancer must see the loads as balanced, never
/// migrate, and leave the run untouched down to the makespan and every
/// counter.
#[test]
fn uniform_fig1_smoke_is_no_worse_with_adaptive_on() {
    let (bits_on, t_on, c_on) = fig1_smoke(adaptive(true));
    let (bits_off, t_off, c_off) = fig1_smoke(adaptive(false));
    assert_eq!(bits_on, bits_off, "adaptive changed the CG solution");
    assert!(
        t_on <= t_off,
        "adaptive must not slow the uniform run: on {t_on:?}, off {t_off:?}"
    );
    assert_eq!(
        c_on, c_off,
        "a uniform run must not migrate (counters must match exactly)"
    );
}

/// Sum one `u64` payload field over a run's `rebalance` instants, after
/// asserting the instants exist on every node.
fn moved_totals(sink: &TraceSink, what: &str) -> (u64, u64) {
    let events: Vec<_> = sink
        .events()
        .into_iter()
        .filter(|e| e.name == "rebalance")
        .collect();
    assert!(!events.is_empty(), "{what}: no rebalance events");
    for tid in 0..NODES {
        assert!(
            events.iter().any(|e| e.tid == tid),
            "{what}: node {tid} never rebalanced"
        );
    }
    let sum = |key: &str| -> u64 {
        events
            .iter()
            .flat_map(|e| &e.args)
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| match v {
                ppm_simnet::ArgValue::U64(n) => *n,
                _ => panic!("{key} must be a u64 payload"),
            })
            .sum()
    };
    (sum("moved_elems_out"), sum("moved_bytes"))
}

/// The decision actually fires: traced skewed runs carry `rebalance`
/// instants on every node whose payloads report how much moved (the
/// EXPERIMENTS.md `moved` column harvests these prints).
#[test]
fn skewed_runs_emit_rebalance_trace_events() {
    let p = PrParams::skewed(4096);
    let sink = TraceSink::new();
    ppm_core::run_traced(adaptive(true), &sink, "skewed pagerank", move |node| {
        pagerank::ppm::rank(node, &p).1
    });
    let (elems, bytes) = moved_totals(&sink, "skewed pagerank");
    println!("skewed pagerank moved: {elems} elems, {bytes} bytes");

    let mut p = BhParams::clustered(768);
    p.steps = 4;
    let sink = TraceSink::new();
    ppm_core::run_traced(adaptive(true), &sink, "clustered bh", move |node| {
        barnes_hut::ppm::simulate(node, &p).1
    });
    let (elems, bytes) = moved_totals(&sink, "clustered bh");
    println!("clustered BH moved: {elems} elems, {bytes} bytes");
}
