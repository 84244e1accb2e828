//! Failure-tolerance evaluation (DESIGN.md §15): replication overhead and
//! failover penalty on the figure-1 CG smoke configuration.
//!
//! For each node count, three runs of the same seeded job:
//!
//! * **base** — replication off, no faults (the fast path);
//! * **repl** — buddy replication on, no faults (pure streaming overhead);
//! * **death** — replication on, node 1 dies permanently at the given
//!   phase; survivors detect, confirm, and adopt, and the job finishes
//!   with the bit-identical solution (asserted).
//!
//! The counter columns are the §15 observability set: adoptions
//! (`failovers`), suspicion/confirmation totals, and replica stream
//! volume. EXPERIMENTS.md's failure-tolerance table is this output.
//!
//! ```text
//! cargo run --release -p ppm-bench --bin fig_failover [-- --nodes 2,4,8 --g 8 --phase 3]
//! ```
//!
//! `--trace <path>` (or `PPM_TRACE=<path>`) records every *death* run as
//! one process of a Chrome trace-event file — the `failover` instant,
//! the `failover_restore` span, and the replica traffic are all visible
//! in Perfetto.

use ppm_apps::cg::{self, CgParams};
use ppm_apps::stencil27::Stencil27;
use ppm_bench::{header, mb, ms, pct, row, write_trace, Args, TraceSink};
use ppm_core::PpmConfig;
use ppm_simnet::FaultConfig;

fn main() {
    let args = Args::parse(&["--nodes LIST", "--g N", "--phase N", "--trace PATH"]);
    let trace = args.trace_path().map(|p| (TraceSink::new(), p));
    let nodes = args.nodes(&[2, 4, 8]);
    let g = args.usize("--g", 8);
    let phase = args.usize("--phase", 3) as u64;
    let params = CgParams {
        problem: Stencil27::chimney(g),
        iters: 10,
        rows_per_vp: 64,
        collect_x: true,
        tol: None,
        spmv_chunk: 0,
    };

    println!(
        "# Failure tolerance — CG {}x{}x{} ({} rows), 10 iterations; node 1 dies at phase {phase}\n",
        params.problem.gx,
        params.problem.gy,
        params.problem.gz,
        params.problem.n(),
    );
    header(&[
        "nodes",
        "base ms",
        "repl ms",
        "overhead",
        "death ms",
        "penalty",
        "failovers",
        "suspected",
        "confirmed",
        "replica MB",
    ]);
    for &n in &nodes {
        let p = params;
        let trace_ref = &trace;
        let run = |cfg: PpmConfig, label: Option<String>| {
            let body = move |node: &mut ppm_core::NodeCtx<'_>| {
                let (out, t) = cg::ppm::solve(node, &p);
                let mut bits = vec![out.rr.to_bits()];
                bits.extend(out.x.iter().map(|v| v.to_bits()));
                (bits, t)
            };
            let report = match (trace_ref, label) {
                (Some((sink, _)), Some(label)) => ppm_core::run_traced(cfg, sink, &label, body),
                _ => ppm_core::run(cfg, body),
            };
            let t = report
                .results
                .iter()
                .map(|(_, t)| *t)
                .fold(ppm_simnet::SimTime::ZERO, ppm_simnet::SimTime::max);
            (report.results[0].0.clone(), t, report.total_counters())
        };
        let base = PpmConfig::franklin(n);
        let (bits, t_base, _) = run(base, None);
        let (bits_repl, t_repl, _) = run(base.with_replication(true), None);
        let (bits_dead, t_dead, c) = run(
            base.with_replication(true)
                .with_faults(FaultConfig::NONE.with_permanent_crash(1, phase)),
            Some(format!("death n={n}")),
        );
        assert_eq!(bits_repl, bits, "replication changed the solution");
        assert_eq!(bits_dead, bits, "failover changed the solution");
        row(&[
            n.to_string(),
            ms(t_base),
            ms(t_repl),
            pct((t_repl - t_base).as_ps(), t_base.as_ps()),
            ms(t_dead),
            pct((t_dead - t_base).as_ps(), t_base.as_ps()),
            c.failovers.to_string(),
            c.peers_suspected.to_string(),
            c.peers_confirmed_dead.to_string(),
            mb(c.replica_bytes),
        ]);
    }
    println!("\n(simulated time; all three runs produce the bit-identical CG solution — asserted)");
    if let Some((sink, path)) = &trace {
        write_trace(sink, path);
    }
}
