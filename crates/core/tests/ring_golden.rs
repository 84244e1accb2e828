//! Golden digests of the phase-end protocol at large and awkward node
//! counts: a 256-node predecessor-read ring (the benchmark's
//! `ring_failover` shape) and a 100-node ring whose puts also scatter over
//! a per-round permutation — 100 is not a power of two, so the last
//! dissemination round wraps past nodes that are already covered. Both
//! lose a node permanently with replication on, so the rows cover death
//! detection, the replica stream and failover.
//!
//! Each row is a literal `(result hash, makespan in picoseconds, full
//! Counters)` plus a digest of every `token_exchange` trace instant's
//! `(node, phase, write_dests, expected_senders)` — what each node
//! announced and what it was told to wait for. The rows were captured on
//! the commit before sender notices were routed instead of allgathered and
//! must hold at any host thread count. On a mismatch the assertion prints
//! the observed row in literal syntax.
//!
//! A third fixture is the read-heavy job of `large_n.rs` — everyone reads,
//! four ranks write, one node dies — at 64 and at 100 nodes. Until the
//! dense all-to-all token exchange was deleted a test compared it against
//! that protocol bit for bit; these rows were captured on `9d8adae`, the
//! last commit that carried both, and stand where the comparison stood.

use ppm_core::testkit::thread_counts;
use ppm_core::{run, run_traced, AccumOp, ByteHasher, PpmConfig, TraceSink};
use ppm_simnet::{FaultConfig, MachineConfig};

/// `Counters::named_fields()` values, in declaration order.
type CounterRow = [u64; 29];

/// What the job's `token_exchange` instants said, summed and hashed.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
struct Tokens {
    instants: u64,
    write_dests: u64,
    expected_senders: u64,
    /// FNV-1a over `(node, phase, write_dests, expected_senders)` in
    /// `(node, emission)` order.
    digest: u64,
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
struct Row {
    hash: u64,
    makespan_ps: u64,
    counters: CounterRow,
    tokens: Tokens,
}

struct Ring {
    nodes: usize,
    rounds: u64,
    victim: usize,
    /// Also put into a second array through the permutation
    /// `i → (i + 1 + 13·round) mod nodes`, so write destinations sit at
    /// offsets of every popcount and change every phase.
    scatter: bool,
}

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = ByteHasher::new();
    for w in words {
        h.write(&w.to_le_bytes());
    }
    h.finish()
}

/// Replication on; every knob is pinned, so no change of a default can
/// move a row.
fn pinned(nodes: usize, host_threads: usize) -> PpmConfig {
    PpmConfig::new(MachineConfig::new(nodes as u32, 4))
        .with_checker(true)
        .with_host_threads(host_threads)
        .with_read_cache(true)
        .with_adaptive_balance(false)
        .with_replication(true)
        .with_tile_budget(0)
}

fn observe(ring: &Ring, host_threads: usize) -> Row {
    let cfg = pinned(ring.nodes, host_threads)
        .with_faults(FaultConfig::NONE.with_permanent_crash(ring.victim, 1));
    let (n, rounds, scatter) = (ring.nodes, ring.rounds, ring.scatter);
    let sink = TraceSink::new();
    let report = run_traced(cfg, &sink, "ring", move |node| {
        let a = node.alloc_global::<u64>(n);
        let b = node.alloc_global::<u64>(n);
        let acc = node.alloc_global::<u64>(1);
        let me = node.node_id();
        node.with_local_mut(&a, |s| s[0] = me as u64 + 1);
        node.ppm_do(4, move |vp| async move {
            let rank = vp.node_rank();
            for round in 0..rounds {
                vp.global_phase(|ph| async move {
                    let v = ph.get(&a, (me + n - 1) % n).await;
                    if rank == 0 {
                        ph.accumulate(&acc, 0, AccumOp::Add, v);
                        ph.put(&a, me, me as u64 + 1 + round);
                    }
                    if scatter && rank == 1 {
                        ph.put(&b, (me + 1 + 13 * round as usize) % n, v + round);
                    }
                })
                .await;
            }
        });
        let mut bits = node.gather_global(&a);
        bits.extend(node.gather_global(&b));
        bits.push(node.gather_global(&acc)[0]);
        let violations = node.take_violations();
        assert!(violations.is_empty(), "conformance: {violations:?}");
        bits
    });
    for r in &report.results {
        assert_eq!(r, &report.results[0], "nodes disagree on the result");
    }
    let mut tokens = Tokens {
        instants: 0,
        write_dests: 0,
        expected_senders: 0,
        digest: 0,
    };
    let mut words = Vec::new();
    for ev in sink.events().iter().filter(|e| e.name == "token_exchange") {
        let arg = |name| ev.arg_u64(name).expect("token_exchange argument");
        let (w, e) = (arg("write_dests"), arg("expected_senders"));
        tokens.instants += 1;
        tokens.write_dests += w;
        tokens.expected_senders += e;
        words.extend([ev.tid as u64, arg("phase"), w, e]);
    }
    tokens.digest = fnv(words);
    Row {
        hash: fnv(report.results[0].iter().copied()),
        makespan_ps: report.makespan().as_ps(),
        counters: report.total_counters().named_fields().map(|(_, v)| v),
        tokens,
    }
}

fn check(ring: &Ring, want: &Row) {
    for host_threads in thread_counts() {
        let got = observe(ring, host_threads);
        assert!(
            got == *want,
            "{}-node ring moved off its golden at {host_threads} host thread(s); observed:\n\
             Row {{ hash: {:#018x}, makespan_ps: {}, counters: {:?}, tokens: {:?} }}",
            ring.nodes,
            got.hash,
            got.makespan_ps,
            got.counters,
            got.tokens
        );
    }
}

#[test]
fn ring_256_with_death_and_failover() {
    let ring = Ring {
        nodes: 256,
        rounds: 6,
        victim: 191,
        scatter: false,
    };
    check(&ring, &RING_256);
}

#[test]
fn scattered_ring_100_with_death_and_failover() {
    let ring = Ring {
        nodes: 100,
        rounds: 8,
        victim: 77,
        scatter: true,
    };
    check(&ring, &RING_100);
}

/// `(result hash, makespan in picoseconds, msgs_sent, bundles_sent,
/// failovers)` of the read-heavy job: 2 VPs a node, 4 rounds in which every
/// node reads its predecessor's element and the first four ranks rewrite
/// theirs, `victim` dying at phase 2.
type ReadHeavyRow = (u64, u64, u64, u64, u64);

fn read_heavy(nodes: usize, victim: usize, host_threads: usize) -> ReadHeavyRow {
    let cfg =
        pinned(nodes, host_threads).with_faults(FaultConfig::NONE.with_permanent_crash(victim, 2));
    let report = run(cfg, move |node| {
        let a = node.alloc_global::<u64>(nodes);
        let me = node.node_id();
        node.with_local_mut(&a, |s| s[0] = me as u64 + 1);
        node.ppm_do(2, move |vp| async move {
            let rank = vp.node_rank();
            for round in 0..4u64 {
                vp.global_phase(|ph| async move {
                    let v = ph.get(&a, (me + nodes - 1) % nodes).await;
                    if rank == 0 && me < 4 {
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
    for r in &report.results {
        assert_eq!(r, &report.results[0], "nodes disagree on the result");
    }
    let c = report.total_counters();
    (
        fnv(report.results[0].iter().copied()),
        report.makespan().as_ps(),
        c.msgs_sent,
        c.bundles_sent,
        c.failovers,
    )
}

#[test]
fn read_heavy_rings_64_and_100_with_death() {
    const ROWS: [(usize, usize, ReadHeavyRow); 2] = [
        (64, 48, (0xd53a93b53061e307, 905110800, 1640, 248, 1)),
        (100, 77, (0x39da56951217c26b, 952575200, 2776, 392, 1)),
    ];
    for (nodes, victim, want) in ROWS {
        for host_threads in thread_counts() {
            let got = read_heavy(nodes, victim, host_threads);
            assert_eq!(
                got, want,
                "{nodes}-node read-heavy ring at {host_threads} host thread(s); observed \
                 (hash, makespan_ps, msgs_sent, bundles_sent, failovers): \
                 ({:#018x}, {}, {}, {}, {})",
                got.0, got.1, got.2, got.3, got.4
            );
        }
    }
}

const RING_256: Row = Row {
    hash: 0x369068f76a7cdeb1,
    makespan_ps: 3524648750,
    counters: [
        11505, 4035766, 4594, 3952834, 0, 0, 1536, 2048, 1530, 2042, 512, 1542, 0, 0, 0, 0, 0,
        6911, 0, 4096, 2048, 1536, 0, 255, 255, 1, 71632, 0, 0,
    ],
    tokens: Tokens {
        instants: 1536,
        write_dests: 1530,
        expected_senders: 1530,
        digest: 17386322930048980197,
    },
};

const RING_100: Row = Row {
    hash: 0x219543144c1e01b1,
    makespan_ps: 2396443500,
    counters: [
        5972, 769320, 2776, 730968, 0, 0, 800, 800, 1592, 1784, 200, 808, 0, 0, 0, 0, 0, 3196, 0,
        2400, 800, 600, 0, 99, 99, 1, 57624, 0, 0,
    ],
    tokens: Tokens {
        instants: 800,
        write_dests: 1584,
        expected_senders: 1584,
        digest: 15630632320253517093,
    },
};
