//! Literal pins of every collective, on both runtimes that run them: the
//! node collectives of `NodeCtx` (reliable transport, node-level costs) and
//! the rank collectives of `ppm_mps::Comm` (intra-node path, NIC sharing).
//! Each row is `(result hash, makespan in picoseconds, full Counters)`; the
//! hash covers every endpoint's results and its final clock, in endpoint
//! order. The combining ops are affine-map composition — associative, not
//! commutative — so a changed combine order moves the hash, and the roots
//! of rooted collectives are not rank 0.
//!
//! The node rows run a `ppm_do` between two batches of collectives and read
//! `ep_counters()` after each, so where the runtime keeps its counters is
//! pinned as well as what they add up to. The two fault rows inject drops,
//! duplicates and delays, so `send_msg`'s delay path carries collective
//! messages. They are one run: the first row's hash leaves the mid-run
//! snapshots out, as it was captured when they moved with host timing; the
//! second hashes them, since the reliable transport credits its counts at
//! the phase fold, not at the real-time moment an envelope is taken
//! (DESIGN.md §10). Every `PpmConfig` knob is pinned.

use ppm_core::{ByteHasher, GlobalShared, NodeCtx, PpmConfig};
use ppm_simnet::{FaultConfig, MachineConfig};

/// `Counters::named_fields()` values, in declaration order.
type CounterRow = [u64; 29];

struct Golden {
    variant: &'static str,
    hash: u64,
    makespan_ps: u64,
    counters: CounterRow,
}

/// FNV-1a over the result words.
fn fnv(bits: &[u64]) -> u64 {
    let mut h = ByteHasher::new();
    for w in bits {
        h.write(&w.to_le_bytes());
    }
    h.finish()
}

/// The affine map `x ↦ a·x + b` (mod 2³²), packed as `a << 32 | b`.
fn affine(a: u32, b: u32) -> u64 {
    (u64::from(a) << 32) | u64::from(b)
}

/// Apply `f`, then `g`: associative, not commutative.
fn compose(f: u64, g: u64) -> u64 {
    let (fa, fb) = ((f >> 32) as u32, f as u32);
    let (ga, gb) = ((g >> 32) as u32, g as u32);
    affine(ga.wrapping_mul(fa), ga.wrapping_mul(fb).wrapping_add(gb))
}

fn elem(rank: usize) -> u64 {
    affine(2 * rank as u32 + 3, rank as u32)
}

/// One observed row: `(result hash, makespan in picoseconds, counters)`.
type Observed = (u64, u64, CounterRow);

/// The row of a job whose endpoints each returned their results, ending
/// with their final clock.
fn observed(results: &[Vec<u64>], makespan_ps: u64, counters: CounterRow) -> Observed {
    (fnv(&results.concat()), makespan_ps, counters)
}

/// Assert every row; on a mismatch print the observed rows in literal syntax.
fn check_rows(what: &str, golden: &[Golden], observe: impl Fn(&str) -> Observed) {
    let mut moved = Vec::new();
    for g in golden {
        let (hash, makespan_ps, counters) = observe(g.variant);
        if (hash, makespan_ps, counters) != (g.hash, g.makespan_ps, g.counters) {
            moved.push(format!(
                "    Golden {{ variant: {:?}, hash: {hash:#018x}, \
                 makespan_ps: {makespan_ps}, counters: {counters:?} }},",
                g.variant
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "{what} moved off its goldens; observed rows:\n{}",
        moved.join("\n")
    );
}

/// Every node collective once, in a fixed order.
fn node_collectives(node: &mut NodeCtx<'_>, out: &mut Vec<u64>) {
    let (me, n) = (node.node_id(), node.num_nodes());
    let root = n - 1;
    node.charge_flops(100 * (me as u64 + 1));
    node.barrier_nodes();
    out.push(node.now().as_ps());
    out.extend(node.bcast_nodes(root, (me == root).then(|| vec![7u64, me as u64])));
    out.push(node.allreduce_nodes(elem(me), compose));
    out.push(
        node.allreduce_nodes(0.1 * (me as f64 + 1.0), |a, b| a + b)
            .to_bits(),
    );
    out.push(node.exscan_nodes(elem(me), compose).unwrap_or(u64::MAX));
    out.extend(node.allgather_nodes(me as u64 * 3));
    out.extend(node.allgatherv_nodes(vec![me as u64; me + 1]).concat());
    let sends = (0..n).map(|d| vec![(me * 100 + d) as u64; d % 3]).collect();
    out.extend(node.alltoallv_nodes(sends).concat());
    node.charge_mem_ops(50);
}

/// One global phase in which every VP reads its right neighbour's element
/// (remote at the partition edges) and writes its own.
fn construct(node: &mut NodeCtx<'_>, g: GlobalShared<u64>) {
    node.ppm_do(2, move |vp| async move {
        let i = vp.global_rank();
        let n = vp.global_vp_count();
        vp.global_phase(|ph| async move {
            let right = ph.get(&g, (i + 1) % n).await;
            ph.put(&g, i, compose(right, elem(i)));
        })
        .await;
    });
}

fn node_config(variant: &str) -> PpmConfig {
    let shape = |nodes, cores| {
        PpmConfig::new(MachineConfig::new(nodes, cores))
            .with_checker(true)
            .with_read_cache(true)
            .with_adaptive_balance(false)
            .with_replication(false)
            .with_tile_budget(0)
    };
    match variant {
        "3x2" => shape(3, 2),
        "5x1" => shape(5, 1),
        "3x2 faults seed 11" | "3x2 faults seed 11, snapshots" => {
            shape(3, 2).with_faults(FaultConfig::seeded(11, 0.2, 0.2, 0.3))
        }
        other => panic!("unknown node variant {other:?}"),
    }
}

#[test]
fn node_collectives_golden() {
    check_rows("node collectives", &NODE, |variant| {
        let cfg = node_config(variant);
        let snapshots = !cfg.reliability_enabled() || variant.ends_with("snapshots");
        let snapshot = |node: &NodeCtx<'_>, out: &mut Vec<u64>| {
            if snapshots {
                out.extend(node.ep_counters().named_fields().map(|(_, v)| v));
            }
        };
        let report = ppm_core::run(cfg, |node| {
            let mut out = Vec::new();
            node_collectives(node, &mut out);
            snapshot(node, &mut out);
            let g = node.alloc_global::<u64>(2 * node.num_nodes());
            let lo = node.local_range(&g).start;
            node.with_local_mut(&g, |s| {
                for (off, v) in s.iter_mut().enumerate() {
                    *v = elem(lo + off);
                }
            });
            construct(node, g);
            snapshot(node, &mut out);
            node_collectives(node, &mut out);
            out.extend(node.gather_global(&g));
            snapshot(node, &mut out);
            out.push(node.now().as_ps());
            out
        });
        let counters = report.total_counters().named_fields().map(|(_, v)| v);
        observed(&report.results, report.makespan().as_ps(), counters)
    });
}

#[test]
fn mps_collectives_golden() {
    check_rows("mps collectives", &MPS, |variant| {
        let machine = match variant {
            "3x2" => MachineConfig::new(3, 2),
            "5x1" => MachineConfig::new(5, 1),
            "2x4" => MachineConfig::new(2, 4),
            other => panic!("unknown mps variant {other:?}"),
        };
        let report = ppm_mps::run(machine, |comm| {
            let (me, p) = (comm.rank(), comm.size());
            let root = p - 1;
            let mut out = Vec::new();
            comm.charge_flops(100 * (me as u64 + 1));
            comm.barrier();
            out.push(comm.now().as_ps());
            out.extend(comm.bcast(root, (me == root).then(|| vec![7u64, me as u64])));
            out.push(comm.reduce(root, elem(me), compose).unwrap_or(u64::MAX));
            out.push(comm.allreduce(elem(me), compose));
            out.push(
                comm.allreduce(0.1 * (me as f64 + 1.0), |a, b| a + b)
                    .to_bits(),
            );
            out.push(comm.exscan(elem(me), compose).unwrap_or(u64::MAX));
            out.push(comm.scan(elem(me), compose));
            out.extend(comm.gather(root, me as u64 * 3).unwrap_or_default());
            out.extend(comm.allgather(vec![me as u64; me % 3]).concat());
            let sends = (0..p).map(|d| vec![(me * 100 + d) as u64; d % 3]).collect();
            out.extend(comm.alltoallv(sends).concat());
            comm.barrier();
            out.push(comm.now().as_ps());
            out
        });
        let counters = report.total_counters().named_fields().map(|(_, v)| v);
        observed(&report.results, report.makespan().as_ps(), counters)
    });
}

#[rustfmt::skip]
const NODE: [Golden; 4] = [
    Golden { variant: "3x2", hash: 0xe4c7cd4dcba77b3c, makespan_ps: 353590600, counters: [80, 1908, 80, 1908, 1200, 300, 9, 3, 0, 3, 3, 9, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0] },
    Golden { variant: "5x1", hash: 0x7779b3ecdef875b9, makespan_ps: 584153800, counters: [184, 5524, 184, 5524, 3000, 500, 15, 5, 0, 5, 5, 15, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0] },
    Golden { variant: "3x2 faults seed 11", hash: 0x965b75f81dbdaf0b, makespan_ps: 1189938586, counters: [100, 2148, 80, 1908, 1200, 300, 9, 3, 0, 3, 3, 9, 19, 19, 22, 29, 22, 20, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0] },
    Golden { variant: "3x2 faults seed 11, snapshots", hash: 0x81a90cb02fc41c1e, makespan_ps: 1189938586, counters: [100, 2148, 80, 1908, 1200, 300, 9, 3, 0, 3, 3, 9, 19, 19, 22, 29, 22, 20, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0] },
];

#[rustfmt::skip]
const MPS: [Golden; 3] = [
    Golden { variant: "3x2", hash: 0x74ddee5980afddc1, makespan_ps: 232564000, counters: [133, 1864, 133, 1864, 2100, 0, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] },
    Golden { variant: "5x1", hash: 0x8282ffb049f080a1, makespan_ps: 255477600, counters: [102, 1248, 102, 1248, 1500, 0, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] },
    Golden { variant: "2x4", hash: 0xa0a4fb0bd78e66a9, makespan_ps: 231962400, counters: [201, 3040, 201, 3040, 3600, 0, 16, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] },
];
