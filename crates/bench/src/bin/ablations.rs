//! Ablations of the PPM runtime's §3.3 design claims.
//!
//! * **bundling** — "the PPM runtime library is capable of bundling up
//!   fine-grained remote shared data accesses into coarse-grained packages
//!   in order to reduce overall communication overhead": switching it off
//!   charges every remote element as its own message.
//! * **overlap** — "scheduling communication needs and computation tasks
//!   to enable (automatic) overlap of computation and communication":
//!   switching it off serializes gap time after compute.
//! * **VP granularity** — the `PPM_do(K)` degree-of-parallelism knob:
//!   fewer, fatter VPs give the scheduler less slack.
//! * **read cache** — the phase-coherent remote-read cache with owner
//!   refresh-push (DESIGN.md §13). `--ablate-cache` restricts the sweep to
//!   the full runtime plus that ablation (the CI artifact job runs it;
//!   EXPERIMENTS.md records the deltas, and the last measured cost of the
//!   all-responses wave barrier and the dense token exchange, both deleted
//!   in PR 18).
//! * **adaptive repartitioning** — trace-guided weighted repartitioning at
//!   phase boundaries (DESIGN.md §14). `--ablate-balance` prints the
//!   skewed fixtures (power-law PageRank, clustered-Plummer Barnes–Hut)
//!   with the balancer on vs off; the solutions are bit-identical either
//!   way, only placement and time move.
//! * **streamed tiles** — the resident-tile budget that spills cold
//!   partition tiles to backing store (DESIGN.md §18). `--ablate-streaming`
//!   prints in-core vs streamed under a tight budget: spills and refills
//!   are free in simulated time and invisible to the merge order, so the
//!   makespan columns must be bit-identical and only the refill counters
//!   move.
//!
//! ```text
//! cargo run --release -p ppm-bench --bin ablations [-- --nodes 8 --g 16]
//! cargo run --release -p ppm-bench --bin ablations -- --ablate-cache
//! cargo run --release -p ppm-bench --bin ablations -- --ablate-balance
//! cargo run --release -p ppm-bench --bin ablations -- --ablate-streaming
//! ```
//!
//! `--trace <path>` / `PPM_TRACE=<path>` records every ablation run as one
//! process of a Chrome trace-event file — compare the wave counts and comm
//! spans across configurations in Perfetto.

use ppm_apps::barnes_hut::{self as bh, BhParams};
use ppm_apps::cg::{self, CgParams};
use ppm_apps::pagerank::{self, PrParams};
use ppm_apps::stencil27::Stencil27;
use ppm_bench::{header, max_time, ms, row, write_trace, Args, TraceSink};
use ppm_core::PpmConfig;
use ppm_simnet::SimTime;

fn main() {
    let args = Args::parse(&[
        "--nodes N",
        "--g N",
        "--n N",
        "--budget BYTES",
        "--ablate-cache",
        "--ablate-balance",
        "--ablate-streaming",
        "--trace PATH",
    ]);
    let trace = args.trace_path().map(|p| (TraceSink::new(), p));
    let nodes = args.usize("--nodes", 8) as u32;
    let g = args.usize("--g", 16);

    let cg_params = CgParams {
        problem: Stencil27::chimney(g),
        iters: 20,
        rows_per_vp: 64,
        collect_x: false,
        tol: None,
        spmv_chunk: 0,
    };
    let mut bh_params = BhParams::new(args.usize("--n", 4096));
    bh_params.steps = 1;

    let trace_ref = &trace;
    let cg_time = move |label: &str, cfg: PpmConfig, p: CgParams| -> SimTime {
        let body = move |node: &mut ppm_core::NodeCtx<'_>| cg::ppm::solve(node, &p).1;
        max_time(&match trace_ref {
            Some((sink, _)) => ppm_core::run_traced(cfg, sink, &format!("cg {label}"), body),
            None => ppm_core::run(cfg, body),
        })
    };
    let bh_time = move |label: &str, cfg: PpmConfig, p: BhParams| -> SimTime {
        let body = move |node: &mut ppm_core::NodeCtx<'_>| bh::ppm::simulate(node, &p).1;
        max_time(&match trace_ref {
            Some((sink, _)) => ppm_core::run_traced(cfg, sink, &format!("bh {label}"), body),
            None => ppm_core::run(cfg, body),
        })
    };

    // An `--ablate-*` flag narrows the sweep to the full runtime plus the
    // selected ablation(s); with none, print everything.
    let ablate_cache = args.flag("--ablate-cache");
    let ablate_balance = args.flag("--ablate-balance");
    let ablate_streaming = args.flag("--ablate-streaming");
    let all = !(ablate_cache || ablate_balance || ablate_streaming);

    println!("# Runtime ablations on {nodes} nodes (4 cores each)\n");
    header(&["configuration", "CG ms", "Barnes–Hut ms"]);

    let base = PpmConfig::franklin(nodes);
    let t_cg = cg_time("full", base, cg_params);
    let t_bh = bh_time("full", base, bh_params);
    row(&[
        "full runtime (bundling + overlap + cache + pipelining)".into(),
        ms(t_cg),
        ms(t_bh),
    ]);

    if all {
        let no_bundle = base.without_bundling();
        row(&[
            "no bundling (per-element messages)".into(),
            ms(cg_time("no-bundling", no_bundle, cg_params)),
            ms(bh_time("no-bundling", no_bundle, bh_params)),
        ]);

        let no_overlap = base.without_overlap();
        row(&[
            "no comm/compute overlap".into(),
            ms(cg_time("no-overlap", no_overlap, cg_params)),
            ms(bh_time("no-overlap", no_overlap, bh_params)),
        ]);
    }

    if all || ablate_cache {
        let no_cache = base.with_read_cache(false);
        row(&[
            "no read cache (every remote read reaches the wire)".into(),
            ms(cg_time("no-cache", no_cache, cg_params)),
            ms(bh_time("no-cache", no_cache, bh_params)),
        ]);
    }

    if all {
        let hier = cg_params;
        row(&[
            "hierarchical CG (x, r, A·p node-shared, §3.3 layering)".into(),
            ms(max_time(&ppm_core::run(base, move |node| {
                cg::ppm_hier::solve(node, &hier).1
            }))),
            "—".into(),
        ]);

        let mut fat = cg_params;
        fat.rows_per_vp = 4096;
        let mut fat_bh = bh_params;
        fat_bh.bodies_per_vp = 4096;
        row(&[
            "coarse VPs (degree of parallelism ÷64)".into(),
            ms(cg_time("coarse-vps", base, fat)),
            ms(bh_time("coarse-vps", base, fat_bh)),
        ]);
    }

    if all || ablate_balance {
        // Skewed fixtures, where the static block layout leaves the
        // low-rank nodes with most of the work. The balancer needs a few
        // phases of load history before it fires, so the Barnes–Hut run
        // takes several steps.
        let pr = PrParams::skewed(4096);
        let mut cb = BhParams::clustered(args.usize("--n", 4096) / 2);
        cb.steps = 4;
        let pr_time = move |label: &str, cfg: PpmConfig| -> SimTime {
            let body = move |node: &mut ppm_core::NodeCtx<'_>| pagerank::ppm::rank(node, &pr).1;
            max_time(&match trace_ref {
                Some((sink, _)) => {
                    ppm_core::run_traced(cfg, sink, &format!("pagerank {label}"), body)
                }
                None => ppm_core::run(cfg, body),
            })
        };
        println!("\n# Adaptive repartitioning on skewed fixtures (DESIGN.md \u{a7}14)\n");
        header(&[
            "configuration",
            "skewed PageRank ms",
            "clustered B\u{2013}H ms",
        ]);
        for (desc, on) in [
            ("adaptive repartitioning", true),
            ("static block layout", false),
        ] {
            let cfg = base.with_adaptive_balance(on);
            let tag = if on { "adaptive" } else { "static" };
            row(&[
                desc.into(),
                ms(pr_time(tag, cfg)),
                ms(bh_time(tag, cfg, cb)),
            ]);
        }
    }

    if all || ablate_streaming {
        // In-core vs streamed under a tight tile budget: at g=16 on 8
        // nodes each CG vector holds 2048 local elements (16 KiB), so a
        // 4 KiB budget forces real spill/refill traffic. Simulated time
        // must not move — streaming is free in modeled time and invisible
        // to the deterministic merge order — so the honest column is the
        // refill count.
        let budget = args.usize("--budget", 4096) as u64;
        println!("\n# Streamed partition tiles (DESIGN.md \u{a7}18, {budget} B/node budget)\n");
        header(&[
            "configuration",
            "CG ms",
            "CG refills",
            "B\u{2013}H ms",
            "B\u{2013}H refills",
        ]);
        let mut rows: Vec<(SimTime, u64, SimTime, u64)> = Vec::new();
        for (desc, b) in [("in-core (no budget)", 0u64), ("streamed tiles", budget)] {
            let cfg = base.with_tile_budget(b);
            let p = cg_params;
            let cg_report = ppm_core::run(cfg, move |node| cg::ppm::solve(node, &p).1);
            let p = bh_params;
            let bh_report = ppm_core::run(cfg, move |node| bh::ppm::simulate(node, &p).1);
            let entry = (
                max_time(&cg_report),
                cg_report.total_counters().tile_refills,
                max_time(&bh_report),
                bh_report.total_counters().tile_refills,
            );
            row(&[
                desc.into(),
                ms(entry.0),
                entry.1.to_string(),
                ms(entry.2),
                entry.3.to_string(),
            ]);
            rows.push(entry);
        }
        assert_eq!(rows[0].0, rows[1].0, "streaming moved the CG makespan");
        assert_eq!(
            rows[0].2, rows[1].2,
            "streaming moved the Barnes\u{2013}Hut makespan"
        );
        assert!(
            rows[0].1 == 0 && rows[0].3 == 0,
            "in-core run must not refill tiles"
        );
        assert!(
            rows[1].1 > 0 && rows[1].3 > 0,
            "the streamed run must actually spill and refill"
        );
    }

    println!("\n(the first row should be the fastest on every column)");
    if let Some((sink, path)) = &trace {
        write_trace(sink, path);
    }
}
