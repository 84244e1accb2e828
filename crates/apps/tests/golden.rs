//! Golden digests (ROADMAP 4b): the four applications' smoke configs ×
//! {default, `read_cache` off, one seeded fault schedule}, plus the rows of
//! the second slice — skewed PageRank and clustered Barnes–Hut under
//! adaptive repartitioning (the rank-keyed accumulate fold must not notice
//! the partition moving; the `K_MIGRATE` exchange ships only non-empty
//! bundles) and one crash row each for PageRank and CG (the redone phase
//! re-buffers and re-drains the write log) — each pinned to a literal
//! `(result hash, makespan in picoseconds, full Counters)`. The third slice
//! (ROADMAP 3b) is the two-level CG, the only application on node-shared
//! arrays, and the three `ppm-mps` baselines of figures 1–3.
//!
//! The "cache off", Barnes–Hut "adaptive", two-level CG and baseline rows
//! were captured on `9d8adae`, the last commit that still carried the
//! dense-token and all-responses protocol forks; with the tests that
//! compared against those gone, these rows are what holds the cache-off
//! path and the migration exchange in place.
//!
//! Every other bit-identity gate in the repo is relative (A vs B inside
//! one binary), so a change that shifts both sides passes. These literals
//! make the simulated side absolute: a host-speed refactor must leave them
//! untouched, and a deliberate model change must update them in the same
//! commit. On a mismatch the assertion prints the observed row in literal
//! syntax, ready to paste.

use ppm_apps::barnes_hut::{self as bh, BhParams};
use ppm_apps::cg::{self, CgParams};
use ppm_apps::matgen::{self, MatGenParams};
use ppm_apps::pagerank::{self, PrParams};
use ppm_core::{ByteHasher, NodeCtx, PpmConfig};
use ppm_simnet::{FaultConfig, MachineConfig};

/// `Counters::named_fields()` values, in declaration order.
type CounterRow = [u64; 29];

struct Golden {
    variant: &'static str,
    hash: u64,
    makespan_ps: u64,
    counters: CounterRow,
}

/// The config a golden row's `variant` names. Every knob is pinned, so no
/// change of a `PpmConfig::new` default can move a golden.
fn variant(name: &str) -> PpmConfig {
    let base = PpmConfig::new(MachineConfig::new(3, 2))
        .with_checker(true)
        .with_read_cache(true)
        .with_adaptive_balance(false)
        .with_replication(false)
        .with_tile_budget(0);
    match name {
        "default" => base,
        "cache off" => base.with_read_cache(false),
        "faults seed 23" => base.with_faults(FaultConfig::seeded(23, 0.05, 0.03, 0.03)),
        "adaptive" => base.with_adaptive_balance(true),
        "crash node 1 phase 3" => base.with_faults(FaultConfig::NONE.with_crash(1, 3)),
        other => panic!("unknown golden variant {other:?}"),
    }
}

/// FNV-1a over the result words.
fn fnv(bits: &[u64]) -> u64 {
    let mut h = ByteHasher::new();
    for w in bits {
        h.write(&w.to_le_bytes());
    }
    h.finish()
}

/// One observed row: `(result hash, makespan in picoseconds, counters)`.
type Observed = (u64, u64, CounterRow);

/// Assert every golden row against what `observe` sees for its variant; on
/// a mismatch print the observed rows in literal syntax.
fn check_rows(app: &str, golden: &[Golden], observe: impl Fn(&str) -> Observed) {
    let mut moved = Vec::new();
    for g in golden {
        let (hash, makespan_ps, counters) = observe(g.variant);
        if (hash, makespan_ps, counters) != (g.hash, g.makespan_ps, g.counters) {
            moved.push(format!(
                "    Golden {{ variant: {:?}, hash: {hash:#018x}, \
                 makespan_ps: {makespan_ps}, counters: {counters:?} }},",
                g.variant
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "{app} moved off its goldens; observed rows:\n{}",
        moved.join("\n")
    );
}

/// A PPM application: every node must return the same bits, checker silent.
fn check(
    app: &str,
    golden: &[Golden],
    body: impl Fn(&mut NodeCtx<'_>) -> Vec<u64> + Send + Sync + Copy,
) {
    check_rows(app, golden, |variant| {
        let report = ppm_core::run(self::variant(variant), move |node| {
            let bits = body(node);
            let violations = node.take_violations();
            assert!(violations.is_empty(), "conformance: {violations:?}");
            bits
        });
        for r in &report.results {
            assert_eq!(r, &report.results[0], "{app} [{variant}]: nodes disagree");
        }
        let counters = report.total_counters().named_fields().map(|(_, v)| v);
        (fnv(&report.results[0]), report.makespan().as_ps(), counters)
    });
}

/// One `ppm-mps` baseline on the goldens' 3 × 2 machine: the hash covers
/// every rank's result, in rank order.
fn mps_row<R: Send + 'static>(
    body: impl Fn(&mut ppm_mps::Comm<'_>) -> R + Send + Sync,
    bits: impl Fn(&R) -> Vec<u64>,
) -> Observed {
    let report = ppm_mps::run(MachineConfig::new(3, 2), body);
    let all: Vec<u64> = report.results.iter().flat_map(bits).collect();
    let counters = report.total_counters().named_fields().map(|(_, v)| v);
    (fnv(&all), report.makespan().as_ps(), counters)
}

#[test]
fn cg_golden() {
    let mut p = CgParams::cube(8, 15);
    p.rows_per_vp = 16;
    check("cg", &CG, move |node| cg_bits(&cg::ppm::solve(node, &p).0));
}

#[test]
fn matgen_golden() {
    let p = MatGenParams::new(4, 8);
    check("matgen", &MATGEN, move |node| {
        let (m, _) = matgen::ppm::generate(node, &p);
        m.iter().map(|v| v.to_bits()).collect()
    });
}

#[test]
fn pagerank_golden() {
    let p = PrParams::skewed(200);
    check("pagerank", &PAGERANK, move |node| {
        let (ranks, _) = pagerank::ppm::rank(node, &p);
        ranks.iter().map(|v| v.to_bits()).collect()
    });
}

fn cg_bits(out: &cg::CgOutcome) -> Vec<u64> {
    let mut bits = vec![out.rr.to_bits()];
    bits.extend(out.x.iter().map(|v| v.to_bits()));
    bits
}

fn body_bits(bodies: &[bh::Body]) -> Vec<u64> {
    bodies
        .iter()
        .flat_map(|b| [b.x, b.y, b.z, b.vx, b.vy, b.vz].map(f64::to_bits))
        .collect()
}

#[test]
fn barnes_hut_golden() {
    let mut p = BhParams::clustered(128);
    p.steps = 2;
    check("barnes_hut", &BARNES_HUT, move |node| {
        body_bits(&bh::ppm::simulate(node, &p).0)
    });
}

/// The fixture of `balance_gates.rs` — enough clustered bodies and steps
/// that the rebalance fires on this machine (two `K_MIGRATE` bundles; the
/// 128-body row above never moves a cut) — so the migration exchange has an
/// absolute row of its own.
#[test]
fn barnes_hut_adaptive_golden() {
    let mut p = BhParams::clustered(768);
    p.steps = 4;
    check("barnes_hut (768 bodies)", &BARNES_HUT_SKEWED, move |node| {
        body_bits(&bh::ppm::simulate(node, &p).0)
    });
}

/// The two-level CG (`x`, `r`, `A·p` node-shared, written inside global
/// phases): the only application on node-shared arrays, so the only rows
/// that walk their publish, snapshot and restore paths.
#[test]
fn cg_hier_golden() {
    let mut p = CgParams::cube(8, 15);
    p.rows_per_vp = 16;
    check("cg_hier", &CG_HIER, move |node| {
        cg_bits(&cg::ppm_hier::solve(node, &p).0)
    });
}

/// The message-passing baselines of figures 1–3 — the other curve of every
/// PPM-vs-MPI comparison — on the same problems as the PPM rows above.
#[test]
fn mps_baselines_golden() {
    check_rows("mps", &MPS, |variant| match variant {
        "cg" => {
            let mut p = CgParams::cube(8, 15);
            p.rows_per_vp = 16;
            mps_row(move |comm| cg::mpi::solve(comm, &p).0, cg_bits)
        }
        "matgen" => {
            let p = MatGenParams::new(4, 8);
            mps_row(
                move |comm| matgen::mpi::generate(comm, &p).0,
                |m| m.iter().map(|v| v.to_bits()).collect(),
            )
        }
        "barnes_hut" => {
            let mut p = BhParams::clustered(128);
            p.steps = 2;
            mps_row(
                move |comm| bh::mpi::simulate(comm, &p).0,
                |bodies| body_bits(bodies),
            )
        }
        other => panic!("unknown baseline {other:?}"),
    });
}

#[rustfmt::skip]
const CG: [Golden; 4] = [
    Golden { variant: "default", hash: 0x2f8a8ed97468dec1, makespan_ps: 2041518400, counters: [273, 88365, 273, 88365, 411088, 0, 138, 13004, 697, 169, 82, 215820, 0, 0, 0, 0, 0, 0, 0, 18736, 13004, 11176, 10, 0, 0, 0, 0, 0, 0] },
    Golden { variant: "cache off", hash: 0x2f8a8ed97468dec1, makespan_ps: 2292385800, counters: [389, 109941, 389, 109941, 411088, 0, 138, 31740, 697, 227, 120, 215820, 0, 0, 0, 0, 0, 0, 0, 0, 31740, 27240, 30, 0, 0, 0, 0, 0, 0] },
    Golden { variant: "faults seed 23", hash: 0x2f8a8ed97468dec1, makespan_ps: 3068117365, counters: [477, 90813, 273, 88365, 411088, 0, 138, 13004, 697, 169, 82, 215820, 40, 40, 25, 26, 25, 204, 0, 18736, 13004, 11176, 10, 0, 0, 0, 0, 0, 0] },
    Golden { variant: "crash node 1 phase 3", hash: 0x2f8a8ed97468dec1, makespan_ps: 3047136600, counters: [477, 90813, 273, 88365, 411088, 0, 138, 13004, 697, 169, 82, 215820, 0, 0, 0, 0, 0, 204, 1, 18736, 13004, 11176, 10, 0, 0, 0, 0, 0, 0] },
];

#[rustfmt::skip]
const MATGEN: [Golden; 3] = [
    Golden { variant: "default", hash: 0xd0a816ed59564c55, makespan_ps: 348784400, counters: [40, 7296, 40, 7296, 60544, 0, 24, 4112, 0, 10, 9, 3064, 0, 0, 0, 0, 0, 0, 0, 0, 4112, 3936, 1, 0, 0, 0, 0, 0, 0] },
    Golden { variant: "cache off", hash: 0xd0a816ed59564c55, makespan_ps: 348784400, counters: [40, 7296, 40, 7296, 60544, 0, 24, 4112, 0, 10, 9, 3064, 0, 0, 0, 0, 0, 0, 0, 0, 4112, 3936, 1, 0, 0, 0, 0, 0, 0] },
    Golden { variant: "faults seed 23", hash: 0xd0a816ed59564c55, makespan_ps: 444836529, counters: [72, 7680, 40, 7296, 60544, 0, 24, 4112, 0, 10, 9, 3064, 4, 4, 1, 1, 1, 32, 0, 0, 4112, 3936, 1, 0, 0, 0, 0, 0, 0] },
];

#[rustfmt::skip]
const PAGERANK: [Golden; 5] = [
    Golden { variant: "default", hash: 0x87f1ecb6419889a2, makespan_ps: 1372109600, counters: [204, 116576, 204, 116576, 105560, 0, 120, 0, 23720, 120, 0, 35060, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] },
    Golden { variant: "cache off", hash: 0x87f1ecb6419889a2, makespan_ps: 1372109600, counters: [204, 116576, 204, 116576, 105560, 0, 120, 0, 23720, 120, 0, 35060, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] },
    Golden { variant: "faults seed 23", hash: 0x87f1ecb6419889a2, makespan_ps: 2289156673, counters: [374, 118616, 204, 116576, 105560, 0, 120, 0, 23720, 120, 0, 35060, 29, 29, 19, 21, 19, 170, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] },
    Golden { variant: "adaptive", hash: 0x87f1ecb6419889a2, makespan_ps: 1411985400, counters: [210, 128010, 210, 128010, 105560, 0, 120, 0, 29530, 126, 0, 29250, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] },
    Golden { variant: "crash node 1 phase 3", hash: 0x87f1ecb6419889a2, makespan_ps: 2373900000, counters: [374, 118616, 204, 116576, 105560, 0, 120, 0, 23720, 120, 0, 35060, 0, 0, 0, 0, 0, 170, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] },
];

#[rustfmt::skip]
const BARNES_HUT: [Golden; 3] = [
    Golden { variant: "default", hash: 0x2f54fc12141f3f8f, makespan_ps: 1132706400, counters: [264, 131312, 264, 131312, 1173312, 4314, 18, 36876, 2746, 102, 43, 23108, 0, 0, 0, 0, 0, 0, 0, 5608, 36876, 35514, 31, 0, 0, 0, 0, 0, 0] },
    Golden { variant: "cache off", hash: 0x2f54fc12141f3f8f, makespan_ps: 1193844400, counters: [296, 122512, 296, 122512, 1173312, 4314, 18, 42484, 2746, 118, 52, 23108, 0, 0, 0, 0, 0, 0, 0, 0, 42484, 40966, 38, 0, 0, 0, 0, 0, 0] },
    Golden { variant: "faults seed 23", hash: 0x2f54fc12141f3f8f, makespan_ps: 1629932989, counters: [346, 132296, 264, 131312, 1173312, 4314, 18, 36876, 2746, 102, 43, 23108, 17, 17, 3, 11, 3, 82, 0, 5608, 36876, 35514, 31, 0, 0, 0, 0, 0, 0] },
];

#[rustfmt::skip]
const BARNES_HUT_SKEWED: [Golden; 1] = [
    Golden { variant: "adaptive", hash: 0x09aca8e6a4f66ddf, makespan_ps: 11139609800, counters: [526, 1218795, 526, 1218795, 45439280, 65854, 36, 1005386, 32987, 206, 77, 1013487, 0, 0, 0, 0, 0, 0, 0, 353307, 1005386, 991854, 71, 0, 0, 0, 0, 0, 0] },
];

#[rustfmt::skip]
const CG_HIER: [Golden; 4] = [
    Golden { variant: "default", hash: 0x2f8a8ed97468dec1, makespan_ps: 1950357600, counters: [274, 88174, 274, 88174, 411088, 0, 138, 13004, 682, 162, 86, 215820, 0, 0, 0, 0, 0, 0, 0, 18736, 13004, 11176, 14, 0, 0, 0, 0, 0, 0] },
    Golden { variant: "cache off", hash: 0x2f8a8ed97468dec1, makespan_ps: 2237465000, counters: [434, 110630, 434, 110630, 411088, 0, 138, 31740, 682, 242, 135, 215820, 0, 0, 0, 0, 0, 0, 0, 0, 31740, 27240, 45, 0, 0, 0, 0, 0, 0] },
    Golden { variant: "faults seed 23", hash: 0x2f8a8ed97468dec1, makespan_ps: 2992151962, counters: [478, 90622, 274, 88174, 411088, 0, 138, 13004, 682, 162, 86, 215820, 36, 36, 25, 28, 25, 204, 0, 18736, 13004, 11176, 14, 0, 0, 0, 0, 0, 0] },
    Golden { variant: "crash node 1 phase 3", hash: 0x2f8a8ed97468dec1, makespan_ps: 2953177100, counters: [478, 90622, 274, 88174, 411088, 0, 138, 13004, 682, 162, 86, 215820, 0, 0, 0, 0, 0, 204, 1, 18736, 13004, 11176, 14, 0, 0, 0, 0, 0, 0] },
];

/// Here `variant` names the application.
#[rustfmt::skip]
const MPS: [Golden; 3] = [
    Golden { variant: "cg", hash: 0x0f6027f0031c4b81, makespan_ps: 1037249600, counters: [500, 121232, 500, 121232, 412112, 21480, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] },
    Golden { variant: "matgen", hash: 0x30690572f0417065, makespan_ps: 357110000, counters: [250, 14992, 250, 14992, 60544, 6810, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] },
    Golden { variant: "barnes_hut", hash: 0xd10c7c077bc9f739, makespan_ps: 284150400, counters: [30, 133344, 30, 133344, 1232192, 12288, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] },
];
