//! Figure 1: application performance of the CG solver.
//!
//! Sweeps the node count (4 cores per node, the paper's Franklin shape)
//! and prints the simulated runtime of the PPM program and the tuned MPI
//! baseline for the same fixed number of CG iterations on a 27-point 3-D
//! diffusion "chimney" system.
//!
//! Paper-reported shape (§4.5): PPM starts "much slower than the MPI
//! version when there is only one node … but catches up quickly as the
//! number of nodes increases" — the PPM/MPI ratio column should start
//! well above 1 and fall toward (or below) 1.
//!
//! ```text
//! cargo run --release -p ppm-bench --bin fig1_cg [-- --nodes 1,2,4,8 --g 16 --iters 20]
//! ```
//!
//! `--trace <path>` (or `PPM_TRACE=<path>`) records every flat PPM run in
//! the sweep (not the PPM-hier column) as one process of a Chrome
//! trace-event file (Perfetto-loadable), plus a `<path>.metrics.json`
//! per-phase report, and ends stdout with one `explain` row per run
//! ([`ppm_bench::Trace::finish`]).
//!
//! ## Full-size mode
//!
//! ```text
//! cargo run --release -p ppm-bench --bin fig1_cg -- --full [--g 256 --iters 3 --budget 1m]
//! ```
//!
//! `--full` runs the paper's actual Figure 1 problem size — a 256³ cube,
//! 16.7M rows, ~450M nonzeros — on 64 nodes with the streamed-tile
//! runtime (DESIGN.md §18): each node's partitions are far larger than
//! the resident-tile budget (`--budget`, default 1 MiB/node), so the
//! runtime continuously spills and refills partition tiles while
//! `spmv_chunk` bounds the p-values a VP stages per bulk read.
//! Before the big run, a 64³ slice of the same configuration is solved
//! both streamed and in-core and the solution bits are compared — the
//! cross-check that the full-size answer is the in-core answer.

use ppm_apps::cg::{self, CgParams};
use ppm_apps::stencil27::Stencil27;
use ppm_bench::{
    header, heap_owners_line, host_memory_line, max_time, mb, ms, pct, ratio, row, vm_hwm_bytes,
    Args, Trace,
};
use ppm_core::PpmConfig;
use ppm_simnet::MachineConfig;

/// Parse a byte size with an optional `k`/`m`/`g` suffix.
fn parse_bytes(s: &str) -> u64 {
    let t = s.trim().to_ascii_lowercase();
    let (num, mult) = match t.strip_suffix(['k', 'm', 'g']) {
        Some(n) => (
            n,
            match t.as_bytes()[t.len() - 1] {
                b'k' => 1u64 << 10,
                b'm' => 1 << 20,
                _ => 1 << 30,
            },
        ),
        None => (t.as_str(), 1),
    };
    num.trim().parse::<u64>().expect("byte size") * mult
}

/// The paper's full-size Figure 1 point under the streamed-tile runtime.
fn run_full(args: &Args) {
    let g = args.usize("--g", 256);
    let iters = args.usize("--iters", 3);
    let nodes = args.usize("--nodes-full", 64) as u32;
    let problem = Stencil27::cube(g);
    let base = PpmConfig::franklin(nodes);
    let budget = args.value("--budget").map_or(1 << 20, |v| parse_bytes(&v));
    let params = CgParams {
        problem,
        iters,
        rows_per_vp: args.usize("--rows-per-vp", 16384),
        collect_x: false,
        tol: None,
        spmv_chunk: args.usize("--spmv-chunk", 256),
    };
    let elems_per_node = problem.n().div_ceil(nodes as usize);
    // x, r, p, ap — the four n-length f64 vectors a node owns a slice of.
    let in_core = 4 * elems_per_node as u64 * 8;
    println!(
        "# Figure 1 (full size) — CG, {g}\u{b3} cube: {} rows, ~{}M nnz, {} iterations, {nodes} nodes",
        problem.n(),
        problem.n() * 27 / 1_000_000,
        iters
    );
    println!(
        "# tile budget {budget} B/node vs {in_core} B/node in-core vector footprint ({}x over budget)\n",
        in_core / budget.max(1)
    );

    // Cross-check at a size where the in-core run is cheap: the same
    // node count, knobs, and per-node budget on a 64³ slice must produce
    // bit-identical solution vectors streamed and in-core.
    {
        let mut small = params;
        small.problem = Stencil27::cube(64);
        small.rows_per_vp = args.usize("--rows-per-vp", 16384) / 16;
        small.collect_x = true;
        // The slice's partitions are small enough to fit untiled under the
        // full-size budget, so the cross-check scales its budget to the
        // slice footprint (1/32 of the per-node vectors) — the point is
        // that streaming happens, at any budget.
        let small_budget = small.problem.n().div_ceil(nodes as usize) as u64 * 8 * 4 / 32;
        let solve =
            move |cfg: PpmConfig| ppm_core::run(cfg, move |node| cg::ppm::solve(node, &small).0);
        let streamed = solve(base.with_tile_budget(small_budget));
        let incore = solve(base.with_tile_budget(0));
        let (s0, i0) = (&streamed.results[0], &incore.results[0]);
        assert_eq!(s0.rr.to_bits(), i0.rr.to_bits(), "cross-check: rr differs");
        assert!(
            s0.x.iter()
                .zip(&i0.x)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "cross-check: solution vectors differ"
        );
        let refills = streamed.total_counters().tile_refills;
        assert!(refills > 0, "cross-check run never streamed");
        println!(
            "cross-check ok: 64\u{b3} slice bit-identical streamed vs in-core ({refills} refills)\n"
        );
    }

    let trace = Trace::new(args);
    let wall = std::time::Instant::now();
    let p = params;
    let body = move |node: &mut ppm_core::NodeCtx<'_>| {
        let (_, t) = cg::ppm::solve(node, &p);
        (t, node.peak_bytes_resident())
    };
    let cfg = base.with_tile_budget(budget);
    let report = trace.run(cfg, "cg full", body);
    let wall = wall.elapsed();
    let makespan = report
        .results
        .iter()
        .map(|&(t, _)| t)
        .fold(ppm_simnet::SimTime::ZERO, ppm_simnet::SimTime::max);
    let peak = report.results.iter().map(|&(_, p)| p).max().unwrap_or(0);
    assert!(
        peak <= budget,
        "peak resident {peak} B exceeded the {budget} B budget"
    );
    let c = report.total_counters();
    header(&[
        "budget B/node",
        "in-core B/node",
        "peak resident B/node",
        "tile refills",
        "sim ms",
        "wall s",
        "host VmHWM MB",
    ]);
    row(&[
        budget.to_string(),
        in_core.to_string(),
        peak.to_string(),
        c.tile_refills.to_string(),
        ms(makespan),
        format!("{:.1}", wall.as_secs_f64()),
        mb(vm_hwm_bytes()),
    ]);
    println!(
        "\n(peak resident is the modeled per-node maximum; VmHWM is the host process high-water mark — \
         the simulator itself holds every partition in host memory)"
    );
    println!("{}", host_memory_line());
    if let Some(owners) = heap_owners_line() {
        println!("{owners}");
    }
    trace.finish();
}

fn main() {
    let args = Args::parse(&[
        "--nodes LIST",
        "--g N",
        "--iters N",
        "--trace PATH",
        "--full",
        "--nodes-full N",
        "--budget BYTES",
        "--rows-per-vp N",
        "--spmv-chunk N",
    ]);
    if args.flag("--full") {
        run_full(&args);
        return;
    }
    let trace = Trace::new(&args);
    let nodes = args.nodes(&[1, 2, 4, 8, 16, 32, 64]);
    let g = args.usize("--g", 20);
    let iters = args.usize("--iters", 25);
    let problem = Stencil27::chimney(g);
    let params = CgParams {
        problem,
        iters,
        rows_per_vp: 64,
        collect_x: false,
        tol: None,
        spmv_chunk: 0,
    };

    println!(
        "# Figure 1 — CG solver, {}x{}x{} grid ({} rows, ~{}k nnz), {} iterations\n",
        problem.gx,
        problem.gy,
        problem.gz,
        problem.n(),
        problem.n() * 27 / 1000,
        iters
    );
    header(&[
        "nodes",
        "cores",
        "PPM ms",
        "PPM-hier ms",
        "MPI ms",
        "PPM/MPI",
        "PPM msgs",
        "MPI msgs",
        "PPM MB",
        "MPI MB",
        "hit%",
        "dedup",
        "pwakes",
    ]);
    for &n in &nodes {
        let p = params;
        let ppm_report = trace.run(PpmConfig::franklin(n), &format!("cg n={n}"), move |node| {
            cg::ppm::solve(node, &p).1
        });
        let hier_report = ppm_core::run(PpmConfig::franklin(n), move |node| {
            cg::ppm_hier::solve(node, &p).1
        });
        let mpi_report = ppm_mps::run(MachineConfig::franklin(n), move |comm| {
            cg::mpi::solve(comm, &p).1
        });
        let (tp, th, tm) = (
            max_time(&ppm_report),
            max_time(&hier_report),
            max_time(&mpi_report),
        );
        let (cp, cm) = (ppm_report.total_counters(), mpi_report.total_counters());
        row(&[
            n.to_string(),
            (4 * n).to_string(),
            ms(tp),
            ms(th),
            ms(tm),
            ratio(tp, tm),
            cp.msgs_sent.to_string(),
            cm.msgs_sent.to_string(),
            mb(cp.bytes_sent),
            mb(cm.bytes_sent),
            pct(cp.cache_hits, cp.cache_hits + cp.cache_misses),
            cp.dedup_reads.to_string(),
            cp.partial_wakes.to_string(),
        ]);
    }
    println!(
        "\n(simulated time; deterministic — see DESIGN.md §5 for the cost model; MB = 1e6 bytes)"
    );
    trace.finish();
}
