//! Integration tests for the reliable-transport sublayer and fault
//! injection: with faults disabled the runtime is byte-for-byte the fast
//! path; with any seeded fault schedule the application results are
//! bit-identical to the fault-free run; equal seeds give equal runs.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ppm_core::{msgs, run, PpmConfig, RecoveryError};
use ppm_simnet::{Counters, FaultAction, FaultConfig, MachineConfig, SimTime, TargetedFault};

const N: usize = 48;
const PHASES: u64 = 4;
const VPS_PER_NODE: usize = 4;

/// Rotate a global array left by one element per global phase.
///
/// Every VP handles the indices congruent to its global rank; each phase
/// it reads `a[(i + 1) % N]` (phase-start snapshot) and writes `a[i]`, so
/// after `PHASES` phases `a[i] == (i + PHASES) % N`. The strided
/// assignment generates remote reads and remote write bundles on every
/// link each phase — exactly the traffic the reliability layer protects.
fn ring_shift(cfg: PpmConfig) -> (Vec<Vec<u64>>, SimTime, Vec<Counters>, Counters) {
    let report = run(cfg, |node| {
        let a = node.alloc_global::<u64>(N);
        let lo = node.local_range(&a).start;
        node.with_local_mut(&a, |s| {
            for (off, v) in s.iter_mut().enumerate() {
                *v = (lo + off) as u64;
            }
        });
        node.ppm_do(VPS_PER_NODE, move |vp| async move {
            let rank = vp.global_rank();
            let total = vp.global_vp_count();
            for _ in 0..PHASES {
                vp.global_phase(|ph| async move {
                    let mut i = rank;
                    while i < N {
                        let next = ph.get(&a, (i + 1) % N).await;
                        ph.put(&a, i, next);
                        i += total;
                    }
                })
                .await;
            }
        });
        let violations = node.take_violations();
        assert!(violations.is_empty(), "conformance: {violations:?}");
        node.gather_global(&a)
    });
    let makespan = report.makespan();
    let totals = report.total_counters();
    (report.results, makespan, report.counters, totals)
}

fn base_cfg() -> PpmConfig {
    // Replication pinned explicitly so both sides are tested: the
    // fast-path/cleanliness assertions below require it off, and the
    // failover tests switch it on per schedule.
    PpmConfig::new(MachineConfig::new(3, 2)).with_replication(false)
}

fn check_results(results: &[Vec<u64>]) {
    let expect: Vec<u64> = (0..N).map(|i| ((i as u64) + PHASES) % N as u64).collect();
    for (node, r) in results.iter().enumerate() {
        assert_eq!(r, &expect, "node {node} sees a wrong final array");
    }
}

#[test]
fn fault_free_fast_path_has_no_reliability_traffic() {
    let (results, _, _, totals) = ring_shift(base_cfg());
    check_results(&results);
    assert!(
        totals.reliability_summary().is_clean(),
        "reliability counters must be zero when the layer is off: {:?}",
        totals.reliability_summary()
    );
}

#[test]
fn reliability_without_faults_is_invisible_and_cheap() {
    let (base_res, base_t, _, base_c) = ring_shift(base_cfg());
    let (rel_res, rel_t, _, rel_c) = ring_shift(base_cfg().with_reliability(true));

    check_results(&rel_res);
    assert_eq!(rel_res, base_res, "reliability changed application results");
    assert_eq!(rel_c.retries, 0, "no faults, so nothing to retransmit");
    assert_eq!(rel_c.dups_suppressed, 0);
    assert_eq!(rel_c.crash_recoveries, 0);
    assert!(rel_c.acks_sent > 0, "cumulative acks should flow");
    assert!(
        rel_c.msgs_sent > base_c.msgs_sent,
        "acks are extra messages on the wire"
    );

    // Overhead requirement (< 5% of makespan) is met exactly: sequence
    // numbers ride on envelope metadata and cumulative acks are modeled
    // as piggybacked, so a fault-free reliable run costs zero extra
    // simulated time.
    assert!(rel_t >= base_t);
    let overhead = rel_t - base_t;
    assert!(
        overhead.as_ps() * 20 < base_t.as_ps(),
        "reliability overhead {overhead:?} is >= 5% of {base_t:?}"
    );
    assert_eq!(rel_t, base_t, "piggybacked control plane costs no time");
}

#[test]
fn seeded_faults_never_change_results() {
    let (base_res, base_t, _, _) = ring_shift(base_cfg());
    let mut retries = 0;
    let mut dups = 0;
    let mut delays = 0;
    for seed in [3u64, 17, 99] {
        let cfg = base_cfg().with_faults(FaultConfig::seeded(seed, 0.08, 0.05, 0.05));
        let (res, t, _, c) = ring_shift(cfg);
        assert_eq!(res, base_res, "seed {seed} changed application results");
        assert!(
            t >= base_t,
            "seed {seed}: faults cannot make the job faster"
        );
        retries += c.retries;
        dups += c.dups_suppressed;
        delays += c.faults_delayed;
        assert_eq!(c.retries, c.faults_dropped);
    }
    assert!(retries > 0, "soak injected no drops across three seeds");
    assert!(dups > 0, "soak injected no duplicates across three seeds");
    assert!(delays > 0, "soak injected no delays across three seeds");
}

#[test]
fn same_seed_is_the_same_run() {
    let cfg = || base_cfg().with_faults(FaultConfig::seeded(42, 0.1, 0.05, 0.05));
    let (res_a, t_a, per_node_a, tot_a) = ring_shift(cfg());
    let (res_b, t_b, per_node_b, tot_b) = ring_shift(cfg());
    assert_eq!(res_a, res_b);
    assert_eq!(t_a, t_b, "same seed must give the same makespan");
    assert_eq!(
        per_node_a, per_node_b,
        "same seed must give identical per-node counters"
    );
    assert_eq!(tot_a, tot_b);
    assert!(
        tot_a.retries > 0,
        "this seed should actually drop something"
    );
}

#[test]
fn targeted_drop_is_retransmitted() {
    let (base_res, _, _, _) = ring_shift(base_cfg());
    let faults = FaultConfig::NONE.with_targeted(TargetedFault {
        src: 1,
        dst: 0,
        kind: msgs::K_WRITE,
        nth: 1,
        action: FaultAction::Drop,
    });
    let (res, _, _, c) = ring_shift(base_cfg().with_faults(faults));
    assert_eq!(res, base_res);
    assert_eq!(c.faults_dropped, 1, "exactly the targeted write bundle");
    assert_eq!(c.retries, 1);
}

#[test]
fn crash_recovers_at_phase_boundary() {
    let (base_res, base_t, _, _) = ring_shift(base_cfg());
    let cfg = base_cfg().with_faults(FaultConfig::NONE.with_crash(1, 2));
    let (res, t, per_node, totals) = ring_shift(cfg);
    assert_eq!(res, base_res, "recovered run must match the clean run");
    assert_eq!(totals.crash_recoveries, 1);
    assert_eq!(
        per_node[1].crash_recoveries, 1,
        "node 1 is the one that died"
    );
    assert!(
        t > base_t,
        "reboot + redone compute must cost simulated time"
    );
}

#[test]
fn crash_composes_with_random_faults() {
    let (base_res, _, _, _) = ring_shift(base_cfg());
    let faults = FaultConfig::seeded(7, 0.06, 0.04, 0.04).with_crash(2, 1);
    let (res, _, _, c) = ring_shift(base_cfg().with_faults(faults));
    assert_eq!(res, base_res);
    assert_eq!(c.crash_recoveries, 1);
    assert!(c.retries > 0);
}

/// Four rounds of {global phase `put`; **node phase** `put_node`; global
/// phase reading the node array}: node-shared writes published by a node
/// phase, which the recovery line has to carry as well. Returns, per node,
/// its node-shared array followed by the gathered global array and the sum
/// of what the reading phases saw.
fn node_phase_rounds(cfg: PpmConfig) -> Vec<Vec<u64>> {
    let report = run(cfg, |node| {
        let a = node.alloc_global::<u64>(12);
        let n = node.alloc_node::<u64>(VPS_PER_NODE);
        let seen = node.alloc_global::<u64>(1);
        node.ppm_do(VPS_PER_NODE, move |vp| async move {
            let (r, g) = (vp.node_rank(), vp.global_rank());
            for round in 0..4u64 {
                vp.global_phase(|ph| async move { ph.put(&a, g, round) })
                    .await;
                vp.node_phase(|ph| async move { ph.put_node(&n, r, 100 * (round + 1) + r as u64) })
                    .await;
                vp.global_phase(|ph| async move {
                    let next = ph.get_node(&n, (r + 1) % VPS_PER_NODE);
                    ph.accumulate(&seen, 0, ppm_core::AccumOp::Add, next);
                })
                .await;
            }
        });
        let violations = node.take_violations();
        assert!(violations.is_empty(), "conformance: {violations:?}");
        let mut out = node.with_node(&n, <[u64]>::to_vec);
        out.extend(node.gather_global(&a));
        out.extend(node.gather_global(&seen));
        out
    });
    report.results
}

/// A crash or a death at *any* global phase — the ones right after a node
/// phase included — restores node-shared arrays as the last node phase left
/// them: the recovery line advances at node-phase ends too. (It used to
/// advance only at global phase ends, so a fault at phase 7 rolled node 1's
/// array back from `[400, 401, 402, 403]` to `[300, 301, 302, 303]`.)
#[test]
fn recovery_after_a_node_phase_keeps_node_shared_writes() {
    let clean = node_phase_rounds(base_cfg());
    assert_eq!(clean[1][..VPS_PER_NODE], [400, 401, 402, 403]);
    for run in 1..=2 {
        for phase in 0..8 {
            let crash = FaultConfig::NONE.with_crash(1, phase);
            let death = FaultConfig::NONE.with_permanent_crash(1, phase);
            for (kind, cfg) in [
                ("crash", base_cfg().with_faults(crash)),
                (
                    "death",
                    base_cfg().with_replication(true).with_faults(death),
                ),
            ] {
                assert_eq!(
                    node_phase_rounds(cfg),
                    clean,
                    "{kind} of node 1 at global phase {phase}, run {run}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Permanent (fail-stop) deaths — DESIGN.md §15. `base_cfg` is 3 nodes,
// so a single victim leaves two survivors and the buddy ring is cyclic
// successor order: 0 → 1 → 2 → 0.
// ---------------------------------------------------------------------

#[test]
fn replication_without_faults_is_invisible() {
    let (base_res, base_t, _, base_c) = ring_shift(base_cfg());
    let (res, t, per_node, totals) = ring_shift(base_cfg().with_replication(true));
    assert_eq!(res, base_res, "replication changed application results");
    assert!(
        totals.replica_bytes > 0,
        "every super-step must stream a snapshot frame to the buddy"
    );
    for (node, c) in per_node.iter().enumerate() {
        assert!(
            c.replica_bytes > 0,
            "node {node} never streamed a replica frame"
        );
    }
    assert_eq!(totals.peers_suspected, 0);
    assert_eq!(totals.peers_confirmed_dead, 0);
    assert_eq!(totals.failovers, 0);
    assert_eq!(totals.retries, 0);
    // Replica frames ride barrier messages that are sent anyway; only
    // their bytes are charged. The fault-free overhead gate is < 5%.
    assert!(t >= base_t);
    let overhead = t - base_t;
    assert!(
        overhead.as_ps() * 20 < base_t.as_ps(),
        "replication overhead {overhead:?} is >= 5% of {base_t:?}"
    );
    assert!(
        totals.bytes_sent > base_c.bytes_sent,
        "replica frames must show up in the byte totals"
    );
}

#[test]
fn permanent_death_is_survived_bit_identically() {
    let (base_res, base_t, _, _) = ring_shift(base_cfg());
    let cfg = base_cfg()
        .with_replication(true)
        .with_faults(FaultConfig::NONE.with_permanent_crash(1, 2));
    let (res, t, per_node, totals) = ring_shift(cfg);
    assert_eq!(
        res, base_res,
        "the job must finish bit-identically after node 1 dies for good"
    );
    assert!(
        t > base_t,
        "suspicion timeout + restore + redone compute must cost simulated time"
    );
    // Both survivors suspect and confirm the one victim.
    assert_eq!(totals.peers_suspected, 2);
    assert_eq!(totals.peers_confirmed_dead, 2);
    // Exactly one adoption, by the victim's cyclic successor.
    assert_eq!(totals.failovers, 1);
    assert_eq!(per_node[2].failovers, 1, "node 2 is node 1's buddy");
    assert_eq!(per_node[0].failovers, 0);
    assert!(
        totals.replica_bytes > 0,
        "failover needs the replica stream"
    );
    // A fail-stop death is not a transient crash-reboot and injects no
    // message faults.
    assert_eq!(totals.crash_recoveries, 0);
    assert_eq!(totals.retries, 0);
}

/// A death's failover is the same run to run.
#[test]
fn permanent_death_is_bit_identical_run_to_run() {
    let cfg = || {
        base_cfg()
            .with_replication(true)
            .with_faults(FaultConfig::NONE.with_permanent_crash(1, 2))
    };
    let (res_a, t_a, per_a, tot_a) = ring_shift(cfg());
    let (res_b, t_b, per_b, tot_b) = ring_shift(cfg());
    assert_eq!(res_a, res_b, "failover must not change run to run");
    assert_eq!(t_a, t_b, "failover makespan must not change run to run");
    assert_eq!(per_a, per_b);
    assert_eq!(tot_a, tot_b);
    assert_eq!(tot_a.failovers, 1, "the death actually happened");
}

#[test]
fn permanent_death_composes_with_random_faults() {
    let (base_res, _, _, _) = ring_shift(base_cfg());
    let faults = FaultConfig::seeded(11, 0.06, 0.04, 0.04).with_permanent_crash(2, 1);
    let cfg = base_cfg().with_replication(true).with_faults(faults);
    let (res, _, _, c) = ring_shift(cfg);
    assert_eq!(res, base_res, "drops/dups/delays + a death changed results");
    assert_eq!(c.failovers, 1);
    assert_eq!(c.retries, c.faults_dropped);
    assert!(c.retries > 0, "the seed should actually drop something");
}

/// Node 1 dies at phase 1 (node 2 adopts it), then node 2 — the buddy
/// holding node 1's replica — dies at phase 2. The replica stream
/// re-homes (fresh base frames after every confirmation) and node 0
/// adopts node 2, skipping the dead rank in the cyclic successor walk.
#[test]
fn buddy_death_rehomes_the_replica_stream() {
    let (base_res, base_t, _, _) = ring_shift(base_cfg());
    let faults = FaultConfig::NONE
        .with_permanent_crash(1, 1)
        .with_permanent_crash(2, 2);
    let cfg = base_cfg().with_replication(true).with_faults(faults);
    let (res, t, per_node, totals) = ring_shift(cfg);
    assert_eq!(res, base_res, "cascaded deaths changed application results");
    assert!(t > base_t);
    assert_eq!(totals.failovers, 2);
    assert_eq!(per_node[2].failovers, 1, "node 2 adopted node 1 first");
    assert_eq!(
        per_node[0].failovers, 1,
        "node 0 adopts node 2, skipping dead node 1's slot in the ring"
    );
    // Two survivors confirmed victim 1; victims 2's death is confirmed by
    // the remaining two ranks (node 0 and node 1's hosted persona).
    assert_eq!(totals.peers_suspected, 4);
    assert_eq!(totals.peers_confirmed_dead, 4);
}

/// Nodes 1 and 2 die at the same phase boundary; node 0 — the only
/// survivor — confirms both at once and adopts both partitions.
#[test]
fn two_simultaneous_deaths_are_survived() {
    let (base_res, base_t, _, _) = ring_shift(base_cfg());
    let faults = FaultConfig::NONE
        .with_permanent_crash(1, 2)
        .with_permanent_crash(2, 2);
    let cfg = base_cfg().with_replication(true).with_faults(faults);
    let (res, t, per_node, totals) = ring_shift(cfg);
    assert_eq!(res, base_res, "a double death changed application results");
    assert!(t > base_t);
    assert_eq!(totals.failovers, 2);
    assert_eq!(
        per_node[0].failovers, 2,
        "the sole survivor adopts both victims"
    );
    // Each rank suspects every victim other than itself: node 0 suspects
    // two, each victim suspects the other — four suspicions in total.
    assert_eq!(totals.peers_suspected, 4);
    assert_eq!(totals.peers_confirmed_dead, 4);
}

/// With replication off a permanent death is unsurvivable: the job must
/// fail fast with a structured [`RecoveryError`] naming the dead node and
/// the super-step — never an `expect`/`unwrap` string and never a
/// deadlock report.
#[test]
fn unreplicated_death_raises_a_structured_error() {
    let cfg = base_cfg().with_faults(FaultConfig::NONE.with_permanent_crash(1, 2));
    let payload = catch_unwind(AssertUnwindSafe(|| ring_shift(cfg)))
        .expect_err("an unreplicated permanent death must fail the job");
    let err = payload
        .downcast_ref::<RecoveryError>()
        .expect("the panic payload must be a structured RecoveryError");
    assert_eq!(err.node, 1, "the error names the dead node");
    assert_eq!(err.phase, 2, "the error names the super-step of death");
    assert!(
        err.reason.contains("replication"),
        "the error should point at the replication knob: {}",
        err.reason
    );
    assert!(
        err.to_string().contains("node 1"),
        "Display carries the node id: {err}"
    );
}

#[test]
#[should_panic(expected = "confirmed dead: none")]
fn watchdog_dump_reports_the_dead_peer_set() {
    // Same deadlock as `stall_watchdog_dumps_protocol_state`, but the
    // expectation pins the failure-detector section of the dump: a deadlock
    // with NO confirmed-dead peer must say so (a deadlock on a peer that IS
    // confirmed dead can no longer happen — survivors either host the
    // dead rank's persona or abort at the confirmation boundary).
    let machine = MachineConfig::new(2, 1);
    let cfg = PpmConfig::new(machine).with_reliability(true);
    run(cfg, |node| {
        if node.node_id() == 0 {
            node.allreduce_nodes(1u64, |a, b| a + b);
        }
    });
}

#[test]
#[should_panic(expected = "protocol state")]
fn stall_watchdog_dumps_protocol_state() {
    // Node 1 skips the collective, so node 0 blocks in a receive that can
    // never complete; once node 1 is gone the router reports the deadlock,
    // with a protocol-state dump, instead of hanging the test suite.
    let machine = MachineConfig::new(2, 1);
    let cfg = PpmConfig::new(machine).with_reliability(true);
    run(cfg, |node| {
        if node.node_id() == 0 {
            node.allreduce_nodes(1u64, |a, b| a + b);
        }
    });
}
