//! Figure 3: application performance of the Barnes–Hut simulation.
//!
//! Paper-reported shape (§4.5): the tree accesses are data-driven and
//! cannot be prepared in advance, so the practical MPI method replicates
//! the tree ("each node needs to receive copies of the trees from all
//! other nodes" — O(N·P) volume) and stops scaling, while "the PPM program
//! scales well as the number of nodes increases" thanks to the runtime's
//! message bundling of fine-grained tree reads.
//!
//! ```text
//! cargo run --release -p ppm-bench --bin fig3_barneshut [-- --nodes 1,2,4,8 --n 4096 --steps 2]
//! ```
//!
//! `--trace <path>` / `PPM_TRACE=<path>` records the PPM runs as a Chrome
//! trace-event file plus a `<path>.metrics.json` per-phase report.
//!
//! The last line is the process's host memory over the whole sweep:
//! `VmHWM`, and the peak live heap when built with `--features heap-peak`.

use ppm_apps::barnes_hut::{self as bh, BhParams};
use ppm_bench::{
    header, heap_owners_line, host_memory_line, max_time, mb, ms, pct, ratio, row, Args, Trace,
};
use ppm_core::PpmConfig;
use ppm_simnet::MachineConfig;

fn main() {
    let args = Args::parse(&["--nodes LIST", "--n N", "--steps N", "--trace PATH"]);
    let trace = Trace::new(&args);
    let nodes = args.nodes(&[1, 2, 4, 8, 16, 32, 64]);
    let n = args.usize("--n", 8192);
    let mut params = BhParams::new(n);
    params.steps = args.usize("--steps", 2);

    println!(
        "# Figure 3 — Barnes–Hut, {} bodies, depth {}, θ={}, {} steps\n",
        n, params.max_depth, params.theta, params.steps
    );
    header(&[
        "nodes",
        "cores",
        "PPM ms",
        "MPI(replicated) ms",
        "PPM/MPI",
        "PPM MB",
        "MPI MB",
        "hit%",
        "dedup",
        "pwakes",
    ]);
    for &nn in &nodes {
        let p = params;
        let label = format!("barnes_hut n={nn}");
        let ppm_report = trace.run(PpmConfig::franklin(nn), &label, move |node| {
            bh::ppm::simulate(node, &p).1
        });
        let mpi_report = ppm_mps::run(MachineConfig::franklin(nn), move |comm| {
            bh::mpi::simulate(comm, &p).1
        });
        let (tp, tm) = (max_time(&ppm_report), max_time(&mpi_report));
        let (cp, cm) = (ppm_report.total_counters(), mpi_report.total_counters());
        row(&[
            nn.to_string(),
            (4 * nn).to_string(),
            ms(tp),
            ms(tm),
            ratio(tp, tm),
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
    println!("{}", host_memory_line());
    if let Some(owners) = heap_owners_line() {
        println!("{owners}");
    }
}
