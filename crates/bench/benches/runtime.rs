//! Micro-benchmarks of the runtime machinery (host performance: how fast
//! the simulator + PPM runtime themselves execute — the figure binaries
//! report *simulated* time instead).
//!
//! Std-only harness (offline policy, see the workspace Cargo.toml): each
//! benchmark runs a warmup pass and a fixed number of timed iterations with
//! `std::time::Instant` and reports min/mean per-iteration wall time.

use std::time::{Duration, Instant};

use ppm_apps::barnes_hut::morton;
use ppm_core::{AccumOp, PpmConfig};
use ppm_simnet::MachineConfig;

/// Benchmarks disable the conformance checker: they measure the runtime's
/// fast path, and `cargo bench` compiles without debug assertions anyway.
fn cfg(nodes: u32, cores: u32) -> PpmConfig {
    PpmConfig::new(MachineConfig::new(nodes, cores)).with_checker(false)
}

/// `--smoke` (used by CI) caps every benchmark at one timed iteration so
/// the harness exercises each workload without spending CI minutes on
/// statistics nobody reads there.
static SMOKE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

fn bench(name: &str, iters: u32, mut f: impl FnMut()) {
    let iters = if SMOKE.load(std::sync::atomic::Ordering::Relaxed) {
        1
    } else {
        iters
    };
    // Warmup.
    f();
    let mut best = Duration::MAX;
    let total_start = Instant::now();
    for _ in 0..iters {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed());
    }
    let total = total_start.elapsed();
    println!(
        "{name:<40} {iters:>4} iters  min {best:>12.3?}  mean {:>12.3?}",
        total / iters
    );
}

fn phase_machinery() {
    bench("empty_global_phases_x32_2nodes", 10, || {
        ppm_core::run(cfg(2, 2), |node| {
            node.ppm_do(4, |vp| async move {
                for _ in 0..32 {
                    vp.global_phase(|_ph| async move {}).await;
                }
            });
        });
    });

    bench("node_phases_x128_1node", 10, || {
        ppm_core::run(cfg(1, 4), |node| {
            node.ppm_do(16, |vp| async move {
                for _ in 0..128 {
                    vp.node_phase(|_ph| async move {}).await;
                }
            });
        });
    });
}

fn shared_access() {
    bench("local_gets_64k", 10, || {
        ppm_core::run(cfg(1, 4), |node| {
            let a = node.alloc_global::<f64>(1 << 16);
            node.ppm_do(16, move |vp| async move {
                let i0 = vp.node_rank() * 4096;
                vp.global_phase(|ph| async move {
                    let mut acc = 0.0;
                    for i in 0..4096 {
                        acc += ph.get(&a, i0 + i).await;
                    }
                    std::hint::black_box(acc);
                })
                .await;
            });
        });
    });

    bench("remote_bulk_get_16k_2nodes", 10, || {
        ppm_core::run(cfg(2, 2), |node| {
            let a = node.alloc_global::<f64>(1 << 15);
            node.ppm_do(8, move |vp| async move {
                // Read the *other* node's half in bulk.
                let other = (1 - vp.node_id()) * (1 << 14);
                let i0 = other + vp.node_rank() * 2048;
                vp.global_phase(|ph| async move {
                    let v = ph.get_many(&a, i0..i0 + 2048).await;
                    std::hint::black_box(v.len());
                })
                .await;
            });
        });
    });

    bench("accumulate_scatter_16k", 10, || {
        ppm_core::run(cfg(2, 2), |node| {
            let a = node.alloc_global::<f64>(1024);
            node.ppm_do(8, move |vp| async move {
                let r = vp.global_rank();
                vp.global_phase(|ph| async move {
                    for i in 0..2048 {
                        ph.accumulate(&a, (i * 37 + r) % 1024, AccumOp::Add, 1.0);
                    }
                })
                .await;
            });
        });
    });
}

fn collectives() {
    for ranks in [4u32, 16] {
        bench(&format!("allreduce_x100_{ranks}ranks"), 10, || {
            ppm_mps::run(MachineConfig::new(ranks / 2, 2), |comm| {
                let mut acc = 0.0f64;
                for i in 0..100 {
                    acc = comm.allreduce(acc + i as f64, |x, y| x + y);
                }
                std::hint::black_box(acc);
            });
        });
    }
    bench("alltoallv_8ranks_1k_each", 10, || {
        ppm_mps::run(MachineConfig::new(4, 2), |comm| {
            let sends: Vec<Vec<f64>> = (0..comm.size()).map(|d| vec![d as f64; 1024]).collect();
            let r = comm.alltoallv(sends);
            std::hint::black_box(r.len());
        });
    });
}

fn utilities() {
    bench("sample_sort_32k_4nodes", 10, || {
        ppm_core::run(cfg(4, 2), |node| {
            let n = 1 << 15;
            let gsorted = node.alloc_global::<u64>(n);
            let r = node.local_range(&gsorted);
            node.with_local_mut(&gsorted, |s| {
                for (off, v) in s.iter_mut().enumerate() {
                    *v = ((r.start + off) as u64).wrapping_mul(2654435761) % 100_000;
                }
            });
            ppm_core::util::sort_global_u64(node, &gsorted);
        });
    });

    bench("morton_encode_decode_1m", 10, || {
        let mut acc = 0u64;
        for i in 0..1_000_000u32 {
            let k = morton::encode(i % 64, (i / 64) % 64, (i / 4096) % 64, 6);
            acc = acc.wrapping_add(k);
        }
        std::hint::black_box(acc);
    });
}

fn main() {
    // `cargo bench` passes harness flags (e.g. --bench); ignore everything
    // except our own --smoke switch.
    if std::env::args().any(|a| a == "--smoke") {
        SMOKE.store(true, std::sync::atomic::Ordering::Relaxed);
    }
    phase_machinery();
    shared_access();
    collectives();
    utilities();
}
