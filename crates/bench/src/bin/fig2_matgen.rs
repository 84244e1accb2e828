//! Figure 2: application performance of the sparse matrix generation
//! (multiscale collocation method).
//!
//! Paper-reported shape (§4.5): "The PPM program consistently performs
//! better than the MPI implementation … and scales better as the number of
//! nodes increases" — the ratio column should stay below 1 across the
//! sweep.
//!
//! ```text
//! cargo run --release -p ppm-bench --bin fig2_matgen [-- --nodes 1,2,4 --levels 6 --n0 64]
//! ```
//!
//! `--trace <path>` / `PPM_TRACE=<path>` records the PPM runs as a Chrome
//! trace-event file plus a `<path>.metrics.json` per-phase report.

use ppm_apps::matgen::{self, MatGenParams};
use ppm_bench::{header, max_time, mb, ms, pct, ratio, row, write_trace, Args, TraceSink};
use ppm_core::PpmConfig;
use ppm_simnet::MachineConfig;

fn main() {
    let args = Args::parse(&[
        "--nodes LIST",
        "--levels N",
        "--n0 N",
        "--quad-flops N",
        "--trace PATH",
    ]);
    let trace = args.trace_path().map(|p| (TraceSink::new(), p));
    let nodes = args.nodes(&[1, 2, 4, 8, 16, 32, 64]);
    let levels = args.usize("--levels", 7);
    let n0 = args.usize("--n0", 64);
    let mut params = MatGenParams::new(levels, n0);
    params.quad_flops = args.usize("--quad-flops", 2000) as u64;

    println!(
        "# Figure 2 — matrix generation, {} levels, n0={} ({} rows, {} nnz)\n",
        levels,
        n0,
        params.n(),
        params.nnz()
    );
    header(&[
        "nodes", "cores", "PPM ms", "MPI ms", "PPM/MPI", "PPM msgs", "MPI msgs", "PPM MB",
        "MPI MB", "hit%", "dedup", "pwakes",
    ]);
    for &n in &nodes {
        let p = params;
        let ppm_report = match &trace {
            Some((sink, _)) => {
                ppm_core::run_traced(PpmConfig::franklin(n), sink, &format!("matgen n={n}"), {
                    move |node| matgen::ppm::generate(node, &p).1
                })
            }
            None => ppm_core::run(PpmConfig::franklin(n), move |node| {
                matgen::ppm::generate(node, &p).1
            }),
        };
        let mpi_report = ppm_mps::run(MachineConfig::franklin(n), move |comm| {
            matgen::mpi::generate(comm, &p).1
        });
        let (tp, tm) = (max_time(&ppm_report), max_time(&mpi_report));
        let (cp, cm) = (ppm_report.total_counters(), mpi_report.total_counters());
        row(&[
            n.to_string(),
            (4 * n).to_string(),
            ms(tp),
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
    if let Some((sink, path)) = &trace {
        write_trace(sink, path);
    }
}
