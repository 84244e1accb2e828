//! Golden digest of a job on `Layout::Cyclic` arrays. No application uses
//! the cyclic layout, so `crates/apps/tests/golden.rs` never walks the
//! access path's `Dist` fallback (every contiguous layout answers "local?"
//! from the cached owned range); this fixture pins it to literal
//! `(result hash, makespan in picoseconds, full Counters)` rows — in core,
//! and under a tile budget that parks local reads on spilled tiles.
//!
//! The rows were captured on the commit before the poll context and the
//! owned-range cache landed. On a mismatch the assertion prints the observed
//! `hash, makespan_ps, counters` in literal syntax.
//!
//! A second fixture pins bulk reads that repeat every index nine times (block
//! layout; in core, with the read cache off, and under a tile budget). Its
//! rows were captured on the commit before a bulk read combined its own
//! repeats at the source, when each repeat still took a slot and a queued
//! request: "same counters as before" rests on them, not on the four
//! application goldens alone. Its cache-off row is one of the few places
//! the cache-off path is still exercised (see `perf_gates.rs` for the list).

use ppm_core::{run, AccumOp, ByteHasher, Layout, NodeCtx, PpmConfig};
use ppm_simnet::MachineConfig;

/// `Counters::named_fields()` values, in declaration order.
type CounterRow = [u64; 29];

const N: usize = 50;
const ROUNDS: usize = 4;

/// Strided gets (local and remote mixed), a bulk window read, and puts and
/// accumulates whose owners cycle over the nodes.
fn program(node: &mut NodeCtx<'_>) -> Vec<u64> {
    let a = node.alloc_global_with::<f64>(N, Layout::Cyclic);
    let b = node.alloc_global_with::<u64>(N, Layout::Cyclic);
    let (dist, me) = (node.dist_of(&a), node.node_id());
    node.with_local_mut(&a, |s| {
        for (off, v) in s.iter_mut().enumerate() {
            *v = dist.global_index(me, off) as f64 * 0.5 + 1.0;
        }
    });
    node.with_local_mut(&b, |s| {
        for (off, v) in s.iter_mut().enumerate() {
            *v = dist.global_index(me, off) as u64;
        }
    });
    node.ppm_do(4, move |vp| async move {
        let (g, k) = (vp.global_rank(), vp.global_vp_count());
        for round in 0..ROUNDS {
            vp.global_phase(|ph| async move {
                let mut sum = 0.0;
                for j in (g..N).step_by(k) {
                    sum += ph.get(&a, j).await;
                }
                let window = (0..8).map(|t| (g * 7 + t * 3 + round) % N);
                let seen: u64 = ph.get_many(&b, window).await.iter().sum();
                ph.put(&b, (g * 11 + round) % N, seen);
                ph.accumulate(&a, (g * 5 + round) % N, AccumOp::Add, sum * 0.25);
                ph.accumulate(&a, (round * 3) % N, AccumOp::Add, 1.0 + g as f64);
            })
            .await;
        }
    });
    let violations = node.take_violations();
    assert!(violations.is_empty(), "conformance: {violations:?}");
    let mut bits: Vec<u64> = node.gather_global(&a).iter().map(|v| v.to_bits()).collect();
    bits.extend(node.gather_global(&b));
    bits
}

/// Bulk reads in which every index occurs [`REPEATS`] times: a window that
/// straddles node boundaries (so local, remote and — from the second round
/// on — cached elements all repeat), then a dependent second bulk read that
/// repeats part of the first one's window in a new call, then one single
/// `get` of an element the bulk reads already asked for. Puts move the
/// values between rounds, so the read cache invalidates and refills.
fn repeats_program(node: &mut NodeCtx<'_>) -> Vec<u64> {
    const REPEATS: usize = 9;
    const WINDOW: usize = 7;
    let a = node.alloc_global::<f64>(N);
    let b = node.alloc_global::<u64>(N);
    let lo = node.local_range(&a).start;
    node.with_local_mut(&a, |s| {
        for (off, v) in s.iter_mut().enumerate() {
            *v = (lo + off) as f64 * 0.25 + 2.0;
        }
    });
    let lo = node.local_range(&b).start;
    node.with_local_mut(&b, |s| {
        for (off, v) in s.iter_mut().enumerate() {
            *v = 3 * (lo + off) as u64 + 1;
        }
    });
    node.ppm_do(4, move |vp| async move {
        let g = vp.global_rank();
        for round in 0..ROUNDS {
            vp.global_phase(|ph| async move {
                // Interleaved, so a repeat never sits next to its first
                // occurrence.
                let first = (0..REPEATS * WINDOW).map(|t| (g * 5 + (t % WINDOW) * 4 + round) % N);
                let x: f64 = ph.get_many(&a, first).await.iter().sum();
                let shift = x.to_bits() as usize % 3;
                let second = (0..REPEATS * 3).map(|t| (g * 5 + (t % 3 + shift) * 4 + round) % N);
                let y: u64 = ph.get_many(&b, second).await.iter().sum();
                let z = ph.get(&a, (g * 5 + round) % N).await;
                ph.put(&a, (g * 3 + round * 7) % N, x * 0.125 + z);
                ph.put(&b, (g * 11 + round) % N, y % 1000);
            })
            .await;
        }
    });
    let violations = node.take_violations();
    assert!(violations.is_empty(), "conformance: {violations:?}");
    let mut bits: Vec<u64> = node.gather_global(&a).iter().map(|v| v.to_bits()).collect();
    bits.extend(node.gather_global(&b));
    bits
}

type Program = fn(&mut NodeCtx<'_>) -> Vec<u64>;

/// `(hash, makespan_ps, counters)` of `program` with every knob pinned.
fn observe(program: Program, read_cache: bool, tile_budget: u64) -> (u64, u64, CounterRow) {
    let cfg = PpmConfig::new(MachineConfig::new(3, 2))
        .with_checker(true)
        .with_read_cache(read_cache)
        .with_adaptive_balance(false)
        .with_replication(false)
        .with_tile_budget(tile_budget);
    let report = run(cfg, program);
    assert!(report.results.iter().all(|r| r == &report.results[0]));
    let mut h = ByteHasher::new();
    for w in &report.results[0] {
        h.write(&w.to_le_bytes());
    }
    let counters = report.total_counters().named_fields().map(|(_, v)| v);
    (h.finish(), report.makespan().as_ps(), counters)
}

/// One literal row.
fn check(program: Program, cache: bool, budget: u64, want: (u64, u64, CounterRow)) {
    let got = observe(program, cache, budget);
    assert_eq!(
        got, want,
        "read cache {cache}, budget {budget}; observed \
         (hash, makespan_ps, counters):\n    {:#018x}, {}, {:?},",
        got.0, got.1, got.2
    );
}

#[test]
fn cyclic_layout_golden() {
    // (tile budget, hash, makespan_ps, counters)
    #[rustfmt::skip]
    let golden: [(u64, u64, u64, CounterRow); 2] = [
        (0, 0x5d4d72565daeadbf, 616400200, [250, 16123, 250, 16123, 0, 0, 12, 309, 96, 131, 58, 282, 0, 0, 0, 0, 0, 0, 0, 41, 309, 4, 49, 0, 0, 0, 0, 0, 0]),
        (64, 0x5d4d72565daeadbf, 616400200, [250, 16123, 250, 16123, 0, 0, 12, 309, 96, 131, 58, 282, 0, 0, 0, 0, 0, 0, 0, 41, 309, 4, 49, 0, 0, 0, 0, 203, 227]),
    ];
    for (budget, hash, makespan_ps, counters) in golden {
        check(program, true, budget, (hash, makespan_ps, counters));
    }
}

#[test]
fn repeated_bulk_read_golden() {
    // (read cache, tile budget, hash, makespan_ps, counters)
    #[rustfmt::skip]
    let golden: [(bool, u64, u64, u64, CounterRow); 3] = [
        (true, 0, 0x3699032ac85fe9ea, 348617600, [117, 13240, 117, 13240, 0, 0, 12, 2817, 48, 64, 24, 1252, 0, 0, 0, 0, 0, 0, 0, 347, 2817, 2504, 17, 0, 0, 0, 0, 0, 0]),
        (false, 0, 0x3699032ac85fe9ea, 414722600, [137, 13032, 137, 13032, 0, 0, 12, 3164, 48, 74, 34, 1252, 0, 0, 0, 0, 0, 0, 0, 0, 3164, 2800, 17, 0, 0, 0, 0, 0, 0]),
        (true, 64, 0x3699032ac85fe9ea, 348617600, [117, 13240, 117, 13240, 0, 0, 12, 2817, 48, 64, 24, 1252, 0, 0, 0, 0, 0, 0, 0, 347, 2817, 2504, 17, 0, 0, 0, 0, 95, 119]),
    ];
    for (cache, budget, hash, makespan_ps, counters) in golden {
        check(
            repeats_program,
            cache,
            budget,
            (hash, makespan_ps, counters),
        );
    }
}
