//! Large-node-count regression gates: the runtime used to hit silent
//! walls at 64 nodes (refresh-push masks were `u64`) and 128 nodes
//! (death-detection sidecars were `u128`). The sidecars are growable
//! [`ppm_core::NodeSet`]s now, and these tests pin the behavior well past
//! both old caps:
//!
//! - refresh pushes arm and fire at 65+ nodes,
//! - a 256-node job with a seeded permanent death is bit-identical run to
//!   run,
//! - a 1024-node smoke exercises the clock barrier, loads sidecar,
//!   refresh pushes, death confirmation, and failover in one run —
//!   bit-identical run to run (CI's non-gating perf job runs the traced
//!   bench-bin variant, `bench/src/bin/large_n.rs`).

use ppm_core::{run, AccumOp, PpmConfig};
use ppm_simnet::{Counters, FaultConfig, MachineConfig, SimTime};

/// Past the old `u64` mask wall: at 65 nodes a twice-served element that
/// the owner rewrites still earns a refresh push, so the reader's next
/// read is a cache hit on the pushed (post-rewrite) value. Before the
/// sidecar masks became growable this entire path was gated `nodes <= 64`
/// and the third read went back to the wire.
#[test]
fn refresh_push_arms_beyond_64_nodes() {
    let nodes = 65u32;
    let report = run(
        PpmConfig::new(MachineConfig::new(nodes, 1)).with_read_cache(true),
        move |node| {
            // One element per node; node 0 owns element 0.
            let a = node.alloc_global::<u64>(nodes as usize);
            node.with_local_mut(&a, |s| s[0] = 0);
            let me = node.node_id();
            node.ppm_do(1, move |vp| async move {
                for round in 0..3u64 {
                    vp.global_phase(|ph| async move {
                        if me == 1 {
                            // Round 0: miss (serve #1). Round 1: miss — the
                            // round-0 rewrite invalidated the cache — and
                            // serve #2 arms the element. Round 2: HIT on
                            // the value the owner pushed with round 1's
                            // barrier.
                            let v = ph.get(&a, 0).await;
                            assert_eq!(v, round * 10, "reader saw a stale value");
                        }
                        if me == 0 {
                            ph.put(&a, 0, (round + 1) * 10);
                        }
                    })
                    .await;
                }
            });
            node.ep_counters()
        },
    );
    let reader = &report.results[1];
    assert_eq!(
        reader.cache_misses, 2,
        "rounds 0 and 1 must go to the wire (invalidation between them)"
    );
    assert_eq!(
        reader.cache_hits, 1,
        "round 2 must be served from the pushed refresh — the 65-node \
         gate is back if this read misses"
    );
}

/// One comparable run of the large-N workload: every node reads its
/// cyclic successor's element (remote, repeatedly — so refresh pushes
/// arm), accumulates into a shared counter, and node `victim` dies
/// permanently mid-run with replication on. Reduces to (result bits,
/// makespan, job counters).
fn large_n_job(
    nodes: u32,
    vps: usize,
    victim: usize,
    death_phase: u64,
) -> (Vec<u64>, SimTime, Counters) {
    let cfg = PpmConfig::new(MachineConfig::new(nodes, 4))
        .with_read_cache(true)
        .with_replication(true)
        .with_faults(FaultConfig::NONE.with_permanent_crash(victim, death_phase));
    let n = nodes as usize;
    let report = run(cfg, move |node| {
        let a = node.alloc_global::<u64>(n);
        let acc = node.alloc_global::<u64>(1);
        let me = node.node_id();
        node.with_local_mut(&a, |s| s[0] = me as u64 + 1);
        node.ppm_do(vps, move |vp| async move {
            let r = vp.node_rank();
            for round in 0..4u64 {
                vp.global_phase(|ph| async move {
                    // Read the predecessor's element: this reader is exactly
                    // 1 dissemination hop downstream of the owner, so a
                    // repeat serve arms a push that passes the 2-hop gate.
                    let peer = (me + n - 1) % n;
                    let v = ph.get(&a, peer).await;
                    if r == 0 {
                        ph.accumulate(&acc, 0, AccumOp::Add, v);
                        // Owners rewrite their element every round, so the
                        // armed entries keep firing refreshes.
                        ph.put(&a, me, me as u64 + 1 + round);
                    }
                })
                .await;
            }
        });
        let bits = node.gather_global(&a);
        let total = node.gather_global(&acc)[0];
        let violations = node.take_violations();
        assert!(violations.is_empty(), "conformance: {violations:?}");
        (bits, total)
    });
    let (first_bits, first_total) = report.results[0].clone();
    for (i, (bits, total)) in report.results.iter().enumerate() {
        assert_eq!(bits, &first_bits, "node {i} disagrees on the array");
        assert_eq!(*total, first_total, "node {i} disagrees on the sum");
    }
    let mut out = first_bits;
    out.push(first_total);
    (out, report.makespan(), report.total_counters())
}

/// Past the old `u128` death-detection wall: a 256-node job with a
/// permanent death of node 200 (bit 200 — unrepresentable in the old
/// sidecars) survives, confirms the death on every live node, and is
/// bit-identical (results, makespan, every counter) run to run.
#[test]
fn bit_identity_at_256_nodes_with_death() {
    let (base, base_t, base_c) = large_n_job(256, 2, 200, 2);
    assert_eq!(base_c.failovers, 1, "the death at phase 2 never fired");
    assert_eq!(
        base_c.peers_confirmed_dead, 255,
        "every survivor must confirm the dead node"
    );
    assert!(base_c.cache_hits > 0, "refresh pushes never landed");
    let (got, t, c) = large_n_job(256, 2, 200, 2);
    assert_eq!(got, base, "results diverged run to run");
    assert_eq!(t, base_t, "makespan diverged run to run");
    assert_eq!(c, base_c, "counters diverged run to run");
}

/// One run of the read-heavy workload for the message-scaling gate:
/// every node reads its predecessor's element every phase, but only the
/// first `writers` ranks ever write, so a phase's K_WRITE traffic is
/// exactly the non-empty bundles. (`ring_golden.rs` pins the same job at
/// 64 and 100 nodes to literal rows.)
fn read_heavy_job(
    nodes: u32,
    writers: usize,
    victim: usize,
    death_phase: u64,
) -> (Vec<u64>, SimTime, Counters) {
    let cfg = PpmConfig::new(MachineConfig::new(nodes, 4))
        .with_read_cache(true)
        .with_replication(true)
        .with_faults(FaultConfig::NONE.with_permanent_crash(victim, death_phase));
    let n = nodes as usize;
    let report = run(cfg, move |node| {
        let a = node.alloc_global::<u64>(n);
        let me = node.node_id();
        node.with_local_mut(&a, |s| s[0] = me as u64 + 1);
        node.ppm_do(2, move |vp| async move {
            let r = vp.node_rank();
            for round in 0..4u64 {
                vp.global_phase(|ph| async move {
                    let peer = (me + n - 1) % n;
                    let v = ph.get(&a, peer).await;
                    if r == 0 && me < writers {
                        ph.put(&a, me, v + round);
                    }
                })
                .await;
            }
        });
        let bits = node.gather_global(&a);
        let violations = node.take_violations();
        assert!(violations.is_empty(), "conformance: {violations:?}");
        bits
    });
    let first = report.results[0].clone();
    for (i, bits) in report.results.iter().enumerate() {
        assert_eq!(bits, &first, "node {i} disagrees on the array");
    }
    (first, report.makespan(), report.total_counters())
}

/// Message-scaling gate (DESIGN.md §17): on a 256-node read-heavy
/// workload — 8 writers, everyone reads — total message count must scale
/// with writers + O(N) per phase, not N². A dense all-to-all token
/// exchange would send 65,280 empty tokens per phase (261k over the run);
/// the run must come in well under one such *phase*. It also carries a rank-200
/// death, and results, makespan, and every counter must stay bit-identical
/// run to run.
#[test]
fn sparse_exchange_message_scaling_at_256_nodes() {
    let nodes = 256u32;
    let (base, base_t, base_c) = read_heavy_job(nodes, 8, 200, 2);
    assert_eq!(base_c.failovers, 1, "the death at phase 2 never fired");
    assert_eq!(base_c.peers_confirmed_dead, 255);
    // Each phase: ≤2N request/response messages, ≤`writers` write bundles,
    // plus O(N) prologue/epilogue collective traffic and piggybacked acks.
    // Dense empty tokens alone would be 65,280 per phase; gate at a
    // quarter of ONE such phase so any O(N²) term trips immediately.
    let n2_per_phase = (nodes as u64) * (nodes as u64 - 1);
    assert!(
        base_c.msgs_sent < n2_per_phase / 4,
        "msgs_sent = {} — an O(N²) token exchange is back ({n2_per_phase} \
         empty tokens per phase)",
        base_c.msgs_sent
    );
    let (got, t, c) = read_heavy_job(nodes, 8, 200, 2);
    assert_eq!(got, base, "results diverged run to run");
    assert_eq!(t, base_t, "makespan diverged run to run");
    assert_eq!(c, base_c, "counters diverged run to run");
}

/// The 1024-node smoke (ignored by default — wall-clock heavy; CI's
/// `large-n` job runs it explicitly): clock barrier at 10 dissemination
/// rounds, loads sidecar asserted complete, refresh pushes active, death
/// of node 900 confirmed by 1023 survivors, failover adopted — all
/// bit-identical run to run.
#[test]
#[ignore = "wall-clock heavy; run explicitly (CI large-n job)"]
fn smoke_1024_nodes_bit_identical() {
    let (base, base_t, base_c) = large_n_job(1024, 8, 900, 1);
    assert_eq!(base_c.failovers, 1, "the death at phase 1 never fired");
    assert_eq!(base_c.peers_confirmed_dead, 1023);
    assert!(base_c.cache_hits > 0, "refresh pushes never landed");
    let (got, t, c) = large_n_job(1024, 8, 900, 1);
    assert_eq!(got, base, "results diverged run to run");
    assert_eq!(t, base_t, "makespan diverged run to run");
    assert_eq!(c, base_c, "counters diverged run to run");
}
