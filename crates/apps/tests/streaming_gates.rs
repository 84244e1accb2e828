//! Streamed-execution bit-identity gates (DESIGN.md §18): with a resident
//! tile budget set, partition tiles spill to (modeled) backing store and
//! refill on demand — but spills and refills are free in simulated time
//! and invisible to the merge order, so every observable of a job must be
//! bit-identical to the in-core run at every tile budget and host thread
//! count: result bits, simulated makespan, and all counters except the
//! `tile_spills`/`tile_refills` bookkeeping itself. This suite pins that
//! for CG across budgets × host threads, under a crash fault with spilled
//! tiles live, and for the `spmv_chunk` knob that bounds a VP's staged
//! reads. `cg_with_runtime_opts_…` is the cache-off side — one of
//! the few places the cache-off path is still exercised (`perf_gates.rs`
//! lists them).

use ppm_apps::cg::{self, CgParams};
use ppm_apps::stencil27::Stencil27;
use ppm_core::PpmConfig;
use ppm_simnet::{Counters, FaultConfig, MachineConfig, SimTime};

/// Observables of one run, with the streaming bookkeeping split out so the
/// rest of the counters can be compared exactly.
struct Observables {
    bits: Vec<u64>,
    makespan: SimTime,
    counters: Counters,
    tile_spills: u64,
    tile_refills: u64,
}

/// Tile budgets under test, in bytes. With `cube(8)` on 3 nodes each of
/// the four n-length f64 arrays holds ~171 local elements (~1.4 KiB), so
/// 256 B forces 4-element tiles (heavy thrash), 1 KiB ~16-element tiles,
/// and 8 KiB fits whole partitions untiled (budget on, nothing to spill).
/// 0 is the in-core reference.
const BUDGETS: [u64; 3] = [256, 1024, 8192];
const HOST_THREADS: [usize; 2] = [1, 8];

fn base_cfg() -> PpmConfig {
    PpmConfig::new(MachineConfig::new(3, 2))
}

fn cg_params() -> CgParams {
    let mut p = CgParams::cube(8, 15);
    p.rows_per_vp = 16;
    p
}

fn run_cg(cfg: PpmConfig, params: CgParams) -> Observables {
    let budget = cfg.tile_budget;
    let report = ppm_core::run(cfg, move |node| {
        let (out, _) = cg::ppm::solve(node, &params);
        let violations = node.take_violations();
        assert!(violations.is_empty(), "conformance: {violations:?}");
        // The budget is a per-node bound on resident partition bytes;
        // the executor's evict-before-refill policy must never let the
        // tracked footprint past it (DESIGN.md §18).
        if budget > 0 {
            let peak = node.peak_bytes_resident();
            assert!(
                peak <= budget,
                "node {}: peak resident {peak} B exceeds the {budget} B budget",
                node.node_id()
            );
        }
        let mut bits = vec![out.rr.to_bits()];
        bits.extend(out.x.iter().map(|v| v.to_bits()));
        bits
    });
    let first = report.results[0].clone();
    for (i, r) in report.results.iter().enumerate() {
        assert_eq!(r, &first, "node {i} disagrees with node 0");
    }
    let mut counters = report.total_counters();
    let (tile_spills, tile_refills) = (counters.tile_spills, counters.tile_refills);
    counters.tile_spills = 0;
    counters.tile_refills = 0;
    Observables {
        bits: first,
        makespan: report.makespan(),
        counters,
        tile_spills,
        tile_refills,
    }
}

/// Streamed runs must match the in-core reference on results, makespan,
/// and every non-streaming counter, at every budget × host thread count.
fn assert_streaming_invariant(desc: &str, mk_cfg: &dyn Fn() -> PpmConfig, params: CgParams) {
    // The reference pins the budget off, whatever `mk_cfg` sets.
    let base = run_cg(mk_cfg().with_tile_budget(0).with_host_threads(1), params);
    assert_eq!(base.tile_refills, 0, "{desc}: in-core run refilled tiles");
    assert_eq!(base.tile_spills, 0, "{desc}: in-core run spilled tiles");
    for budget in BUDGETS {
        for threads in HOST_THREADS {
            let got = run_cg(
                mk_cfg().with_tile_budget(budget).with_host_threads(threads),
                params,
            );
            let tag = format!("{desc}: budget {budget} B, {threads} host threads");
            assert_eq!(got.bits, base.bits, "{tag}: results changed");
            assert_eq!(got.makespan, base.makespan, "{tag}: makespan changed");
            assert_eq!(got.counters, base.counters, "{tag}: counters changed");
            if budget < 8192 {
                // The tight budgets must actually stream (the 8 KiB one
                // fits every partition untiled — also a valid state).
                assert!(got.tile_refills > 0, "{tag}: no tiles ever refilled");
                assert!(got.tile_spills > 0, "{tag}: no tiles ever spilled");
            }
        }
    }
}

#[test]
fn cg_is_bit_identical_across_tile_budgets() {
    assert_streaming_invariant("clean", &base_cfg, cg_params());
}

#[test]
fn cg_with_runtime_opts_is_bit_identical_across_tile_budgets() {
    // The read cache interacts with the residency overlay (refresh absorbs
    // write through cold tiles; without it every repeat read parks on the
    // wire while faults are serviced), so the invariant is pinned on the
    // other side of that knob too — `cg_is_bit_identical_across_tile_budgets`
    // runs with the cache on, the default.
    let mk = || base_cfg().with_read_cache(false);
    assert_streaming_invariant("cache off", &mk, cg_params());
}

/// A crash landing mid-job with spilled tiles live must restore and replay
/// exactly like the in-core crash run: recovery restores partition
/// contents, residency stays an overlay (spilled tiles stay spilled), and
/// the re-executed phases re-fault their tiles deterministically.
#[test]
fn crash_recovery_with_spilled_tiles_is_bit_identical() {
    let mk = || base_cfg().with_faults(FaultConfig::NONE.with_crash(1, 3));
    assert_streaming_invariant("crash node 1 at phase 3", &mk, cg_params());
    let got = run_cg(
        mk().with_tile_budget(BUDGETS[0]).with_host_threads(8),
        cg_params(),
    );
    assert_eq!(got.counters.crash_recoveries, 1, "recovery never happened");
}

/// `spmv_chunk` bounds a VP's staged reads and wave shape; the
/// per-row arithmetic order is unchanged, so the solution bits must match
/// the unchunked solver exactly (simulated time may differ — chunking
/// changes the wave structure — so only results are compared).
#[test]
fn spmv_chunking_preserves_results_bit_exactly() {
    let in_core = || base_cfg().with_tile_budget(0).with_host_threads(1);
    let base = run_cg(in_core(), cg_params());
    for chunk in [1, 16, 64] {
        let p = cg_params().with_spmv_chunk(chunk);
        let got = run_cg(in_core(), p);
        assert_eq!(got.bits, base.bits, "spmv_chunk {chunk} changed results");
        // And chunked + streamed together still match the chunked in-core
        // run on every observable.
        let streamed = run_cg(
            base_cfg().with_tile_budget(BUDGETS[1]).with_host_threads(8),
            p,
        );
        assert_eq!(
            streamed.bits, got.bits,
            "chunk {chunk}: streaming changed results"
        );
        assert_eq!(
            streamed.makespan, got.makespan,
            "chunk {chunk}: streaming changed the makespan"
        );
        assert_eq!(
            streamed.counters, got.counters,
            "chunk {chunk}: streaming changed the counters"
        );
    }
}

/// The mat-vec's column stream is exactly the monolithic block's column
/// list, chunk by chunk — a chunk that ends mid-line and mid-plane
/// included — with an exact length up front: the lazy path the full-size
/// fig1 run leans on.
#[test]
fn chunked_rows_match_monolithic_block() {
    let s = Stencil27::chimney(6);
    let full = s.csr_block(0..s.n());
    let mut at = 0;
    for lo in (0..s.n()).step_by(100) {
        let cols = s.columns(lo..(lo + 100).min(s.n()));
        let len = cols.len();
        assert_eq!(
            cols.collect::<Vec<_>>(),
            full.col_idx[at..at + len],
            "rows from {lo}"
        );
        at += len;
    }
    assert_eq!(at, full.nnz());
}
