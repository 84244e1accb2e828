//! Acceptance gates for the phase-coherent read cache and wake-on-arrival
//! wave pipelining (DESIGN.md §13), at the figure-1 smoke configuration
//! (8x8x32 chimney, 10 CG iterations, 4 Franklin nodes — the config CI
//! runs). Pipelining is the runtime's only wake schedule now, so what the
//! pre-§13 runtime (no cache, all-responses wave barrier) cost on this
//! config is frozen below as literals captured on `9d8adae`, the last
//! commit that could still run it: the default run must stay strictly
//! under each. The one live comparison left is default vs cache-off —
//! together with the cache on/off cases of `host_threads.rs`,
//! `fault_soak.rs`, `conformance_golden.rs`, `prop.rs`, `cyclic_golden.rs`
//! and `streaming_gates.rs`, the only cache-off coverage there is. Both
//! gates hold at every host thread count of the cells.

use ppm_apps::cg::{self, CgParams};
use ppm_apps::stencil27::Stencil27;
use ppm_core::testkit::{walk, Cell};
use ppm_core::PpmConfig;
use ppm_simnet::{Counters, SimTime};

/// Result bits, simulated makespan, and job-total counters of one run.
type Run = (Vec<u64>, SimTime, Counters);

fn threads(c: Cell) -> Cell {
    Cell {
        host_threads: c.host_threads,
        ..Cell::default()
    }
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
    let first = report.results[0].clone();
    for (i, r) in report.results.iter().enumerate() {
        assert_eq!(r, &first, "node {i} disagrees with node 0");
    }
    (first, report.makespan(), report.total_counters())
}

/// The pre-§13 runtime on this config (`9d8adae`, read cache and wave
/// pipelining both off): simulated makespan, bundles and bytes on the wire.
const SEED_MAKESPAN_PS: u64 = 1_895_682_800;
const SEED_BUNDLES_SENT: u64 = 253;
const SEED_BYTES_SENT: u64 = 155_225;

#[test]
fn fig1_smoke_opts_strictly_beat_seed_with_identical_results() {
    walk(threads, opts_beat_seed_at);
}

fn opts_beat_seed_at(cell: Cell) {
    let cfg = cell.apply(PpmConfig::franklin(4));
    let (bits_on, t_on, c_on) = fig1_smoke(cfg.with_read_cache(true));
    let (bits_off, t_off, c_off) = fig1_smoke(cfg.with_read_cache(false));
    println!(
        "fig1 smoke  default: makespan {t_on:?}, bundles {}, bytes {}\n\
         fig1 smoke cache off: makespan {t_off:?}, bundles {}, bytes {}",
        c_on.bundles_sent, c_on.bytes_sent, c_off.bundles_sent, c_off.bytes_sent
    );
    assert!(
        t_on.as_ps() < SEED_MAKESPAN_PS,
        "makespan {t_on:?} is not under the seed's {SEED_MAKESPAN_PS} ps"
    );
    assert!(
        c_on.bundles_sent < SEED_BUNDLES_SENT,
        "bundles_sent {} is not under the seed's {SEED_BUNDLES_SENT}",
        c_on.bundles_sent
    );
    assert!(
        c_on.bytes_sent < SEED_BYTES_SENT,
        "bytes_sent {} is not under the seed's {SEED_BYTES_SENT}",
        c_on.bytes_sent
    );
    // Default vs cache off: same solution, and the cache never costs time.
    assert_eq!(bits_on, bits_off, "the read cache changed the CG solution");
    assert!(
        t_on < t_off,
        "makespan must strictly drop: cache on {t_on:?}, off {t_off:?}"
    );
    // The §13 counters actually fire on this config…
    assert!(c_on.cache_hits > 0, "no cache hits on fig1 smoke");
    assert!(c_on.partial_wakes > 0, "no partial wakes on fig1 smoke");
    // …and the cache's are silent with the knob off.
    assert_eq!(c_off.cache_hits, 0);
    assert!(
        c_off.cache_misses >= c_on.cache_misses,
        "cache off must reach the wire at least as often"
    );
}

/// Pipelining alone (cache off) also stays at or under the seed on every
/// column (its bits are compared above); the cache alone is no longer a
/// mode.
#[test]
fn fig1_smoke_each_opt_alone_is_no_worse() {
    walk(threads, |cell| {
        let (_, t, c) = fig1_smoke(cell.apply(PpmConfig::franklin(4)).with_read_cache(false));
        assert!(
            t.as_ps() <= SEED_MAKESPAN_PS,
            "pipeline only: makespan {t:?} worse than the seed's {SEED_MAKESPAN_PS} ps"
        );
        assert!(c.bundles_sent <= SEED_BUNDLES_SENT && c.bytes_sent <= SEED_BYTES_SENT);
    });
}
