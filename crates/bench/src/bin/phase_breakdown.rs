//! Where does a PPM program's simulated time go?
//!
//! Runs the CG solver and prints node 0's per-phase trace aggregated by
//! position in the iteration (SpMV / update / direction phases), showing
//! compute vs service vs communication and the wave counts — the
//! observability view of the §3.3 runtime behaviour.
//!
//! ```text
//! cargo run --release -p ppm-bench --bin phase_breakdown [-- --nodes 8 --g 16]
//! ```
//!
//! `--trace <path>` / `PPM_TRACE=<path>` additionally records the full
//! per-node, per-phase trace (Chrome trace-event JSON + metrics report) —
//! the same data as this table, but for every node and without grouping.

use ppm_apps::cg::{self, CgParams};
use ppm_apps::stencil27::Stencil27;
use ppm_bench::{header, mb, ms, row, write_trace, Args, TraceSink};
use ppm_core::{PhaseKind, PhaseRecord, PpmConfig};
use ppm_simnet::SimTime;

fn main() {
    let args = Args::parse(&["--nodes N", "--g N", "--iters N", "--trace PATH"]);
    let trace = args.trace_path().map(|p| (TraceSink::new(), p));
    let nodes = args.usize("--nodes", 8) as u32;
    let g = args.usize("--g", 16);
    let iters = args.usize("--iters", 20);
    let params = CgParams {
        problem: Stencil27::chimney(g),
        iters,
        rows_per_vp: 64,
        collect_x: false,
        tol: None,
        spmv_chunk: 0,
    };

    let body = move |node: &mut ppm_core::NodeCtx<'_>| {
        cg::ppm::solve(node, &params);
        node.take_phase_log()
    };
    let report = match &trace {
        Some((sink, _)) => ppm_core::run_traced(PpmConfig::franklin(nodes), sink, "cg", body),
        None => ppm_core::run(PpmConfig::franklin(nodes), body),
    };
    let log: &Vec<PhaseRecord> = &report.results[0];

    println!(
        "# CG phase breakdown, node 0 of {nodes} ({} global phases: 1 init + {iters}×3)\n",
        log.len()
    );
    header(&[
        "phase group",
        "count",
        "compute ms",
        "service ms",
        "comm ms",
        "waves",
        "MB out",
    ]);

    let group = |name: &str, records: Vec<&PhaseRecord>| {
        let count = records.len();
        let sum = |f: &dyn Fn(&PhaseRecord) -> SimTime| {
            records
                .iter()
                .map(|r| f(r))
                .fold(SimTime::ZERO, |a, b| a + b)
        };
        let waves: u64 = records.iter().map(|r| r.waves).sum();
        let bytes: u64 = records.iter().map(|r| r.bytes_out).sum();
        row(&[
            name.to_string(),
            count.to_string(),
            ms(sum(&|r| r.compute)),
            ms(sum(&|r| r.service)),
            ms(sum(&|r| r.comm)),
            waves.to_string(),
            mb(bytes),
        ]);
    };

    assert!(log.iter().all(|r| r.kind == PhaseKind::Global));
    group("init (r = p = b)", log.iter().take(1).collect());
    group("A: ap = A·p, p·ap", log.iter().skip(1).step_by(3).collect());
    group(
        "B: x, r updates, r·r",
        log.iter().skip(2).step_by(3).collect(),
    );
    group("C: p = r + βp", log.iter().skip(3).step_by(3).collect());

    let total: SimTime = log
        .iter()
        .map(|r| r.compute + r.service + r.comm)
        .fold(SimTime::ZERO, |a, b| a + b);
    println!("\nnode-0 total across phases: {total} (MB = 1e6 bytes)");
    if let Some((sink, path)) = &trace {
        write_trace(sink, path);
    }
}
