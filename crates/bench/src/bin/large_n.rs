//! Large-N scaling smoke (DESIGN.md §16): the 1024-node workload from
//! `core/tests/large_n.rs` as a standalone, traceable benchmark.
//!
//! Every node owns one element of a global ring; each phase every node
//! reads its predecessor's element (1 dissemination hop, so refresh
//! pushes arm and fire), rank 0 accumulates the value into a shared sum
//! and rewrites the node's own element. One seeded node dies permanently
//! mid-run with buddy replication on, so a single job exercises the
//! clock barrier at 10 dissemination rounds, the loads sidecar, refresh
//! pushes, suspicion flood, death confirmation, and failover — all past
//! the old 64/128-node fixed-width sidecar walls.
//!
//! Each node count runs once; the wall-clock column shows what the job
//! costs at scale (one OS thread per node).
//!
//! ```text
//! cargo run --release -p ppm-bench --bin large_n \
//!     [-- --nodes 256,1024 --vps 8 --rounds 4 --trace out.json]
//! ```
//!
//! `--trace <path>` (or `PPM_TRACE=<path>`) records the run of each node
//! count as one process of a Chrome trace-event file; CI's
//! `large-n` job uploads it as an artifact.

use std::time::Instant;

use ppm_bench::{header, pct, row, Args, Trace};
use ppm_core::{AccumOp, PpmConfig};
use ppm_simnet::{Counters, FaultConfig, MachineConfig, SimTime};

/// One run of the ring workload, its nodes asserted to agree on the final
/// state; returns (makespan, summed counters).
fn ring_job(
    nodes: u32,
    vps: usize,
    rounds: u64,
    victim: usize,
    death_phase: u64,
    (trace, label): (&Trace, &str),
) -> (SimTime, Counters) {
    let cfg = PpmConfig::new(MachineConfig::new(nodes, 4))
        .with_read_cache(true)
        .with_replication(true)
        .with_faults(FaultConfig::NONE.with_permanent_crash(victim, death_phase));
    let n = nodes as usize;
    let body = move |node: &mut ppm_core::NodeCtx<'_>| {
        let a = node.alloc_global::<u64>(n);
        let acc = node.alloc_global::<u64>(1);
        let me = node.node_id();
        node.with_local_mut(&a, |s| s[0] = me as u64 + 1);
        node.ppm_do(vps, move |vp| async move {
            let r = vp.node_rank();
            for round in 0..rounds {
                vp.global_phase(|ph| async move {
                    let peer = (me + n - 1) % n;
                    let v = ph.get(&a, peer).await;
                    if r == 0 {
                        ph.accumulate(&acc, 0, AccumOp::Add, v);
                        ph.put(&a, me, me as u64 + 1 + round);
                    }
                })
                .await;
            }
        });
        let mut bits = node.gather_global(&a);
        bits.push(node.gather_global(&acc)[0]);
        let violations = node.take_violations();
        assert!(violations.is_empty(), "conformance: {violations:?}");
        bits
    };
    let report = trace.run(cfg, label, body);
    let first = report.results[0].clone();
    for (i, bits) in report.results.iter().enumerate() {
        assert_eq!(bits, &first, "node {i} disagrees on the final state");
    }
    (report.makespan(), report.total_counters())
}

fn main() {
    let args = Args::parse(&["--nodes LIST", "--vps N", "--rounds N", "--trace PATH"]);
    let trace = Trace::new(&args);
    let nodes = args.nodes(&[256, 1024]);
    let vps = args.usize("--vps", 8);
    let rounds = args.usize("--rounds", 4) as u64;

    println!(
        "# Large-N smoke — predecessor-read ring, {vps} VPs/node, \
         {rounds} phases; one mid-run permanent death\n"
    );
    header(&[
        "nodes",
        "wall s",
        "simulated ms",
        "msgs/phase",
        "failovers",
        "confirmed dead",
        "cache hit rate",
    ]);

    for &nn in &nodes {
        let n = nn as usize;
        // Kill a node in the upper half so the death bit sits past the
        // old u128 sidecar range whenever the run is big enough.
        let victim = n - n / 4 - 1;
        let death_phase = 1;
        let label = format!("large_n_{nn}");
        let t0 = Instant::now();
        let (makespan, c) = ring_job(nn, vps, rounds, victim, death_phase, (&trace, &label));
        let wall = t0.elapsed().as_secs_f64();
        assert_eq!(c.failovers, 1, "{nn} nodes: seeded death never fired");
        assert_eq!(
            c.peers_confirmed_dead,
            nn as u64 - 1,
            "{nn} nodes: not every survivor confirmed the death"
        );
        row(&[
            nn.to_string(),
            format!("{wall:.1}"),
            format!("{:.3}", makespan.as_ms_f64()),
            (c.msgs_sent / rounds).to_string(),
            c.failovers.to_string(),
            c.peers_confirmed_dead.to_string(),
            pct(c.cache_hits, c.cache_hits + c.cache_misses),
        ]);
    }

    println!(
        "\n(msgs/phase is total msgs_sent over the job divided by the phase \
         count — the sender-notice exchange keeps it O(writers + N), where \
         a dense all-to-all would add N²−N empty tokens per phase, DESIGN.md §17)"
    );
    trace.finish();
}
