//! Layer probes: workload-independent micro-runs timed around calls into
//! one layer's public API. Each reports the layer's cost per operation
//! after subtracting the matching empty run (same machine shape, same
//! phase count, no work), so thread spawn/join and barrier cost do not
//! pollute a per-access figure. PPM probes use 4 nodes × 4 cores, checker
//! off, one host thread, unless stated.
//!
//! Every wall time is the best of [`TRIES`] runs: a probe lasts tens of
//! milliseconds, where one preemption is a large share. Probe values are
//! per-layer diagnostics with no bound; end-to-end numbers never use them.

use std::future::Future;
use std::hint::black_box;
use std::time::Instant;

use ppm_apps::stencil27::Stencil27;
use ppm_core::util::reduce_global;
use ppm_core::{AccumOp, Dist, GlobalShared, NodeSet, Phase, PpmConfig, TraceSink, Vp};
use ppm_simnet::{Counters, MachineConfig, Message, SimTime};

use crate::host::Spans;
use crate::workloads::pinned;

const TRIES: usize = 3;
const NODES: u32 = 4;
const VPS: usize = 16;

/// Best-of-[`TRIES`] wall seconds of `f`, with the last run's value.
fn best<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut out = None;
    let mut wall = f64::INFINITY;
    for _ in 0..TRIES {
        let t0 = Instant::now();
        let r = f();
        wall = wall.min(t0.elapsed().as_secs_f64());
        out = Some(r);
    }
    (wall, out.expect("TRIES > 0"))
}

/// One PPM job of `phases` global phases over a block-distributed `f64`
/// array of `len`, every VP running `body(phase, vp, array, phase index)`.
/// Returns best wall seconds and the job's summed counters.
fn ppm_job<B, Fut>(
    cfg: PpmConfig,
    vps: usize,
    phases: usize,
    len: usize,
    body: B,
) -> (f64, Counters)
where
    B: Fn(Phase, Vp, GlobalShared<f64>, usize) -> Fut + Copy + Send + Sync + 'static,
    Fut: Future<Output = ()> + Send + 'static,
{
    best(|| {
        ppm_core::run(cfg, move |node| {
            let a = node.alloc_global::<f64>(len);
            node.ppm_do(vps, move |vp| async move {
                for p in 0..phases {
                    let v = vp.clone();
                    vp.global_phase(|ph| body(ph, v, a, p)).await;
                }
            });
        })
        .total_counters()
    })
}

/// The matching empty run: same shape, same phases, no accesses.
fn empty_job(cfg: PpmConfig, vps: usize, phases: usize) -> f64 {
    ppm_job(cfg, vps, phases, 1, |_, _, _, _| async {}).0
}

/// Seconds per operation of a probe net of its empty run; clamped at a
/// picosecond so a noisy subtraction never reports a non-positive time.
fn net(wall: f64, empty: f64, ops: usize) -> f64 {
    ((wall - empty) / ops as f64).max(1e-12)
}

/// Shape of the access probes: every VP touches `m` elements per phase.
#[derive(Clone, Copy)]
struct Sweep {
    cfg: PpmConfig,
    vps: usize,
    phases: usize,
    m: usize,
}

impl Sweep {
    fn new(m: usize, phases: usize) -> Sweep {
        Sweep {
            cfg: pinned(NODES),
            vps: VPS,
            phases,
            m,
        }
    }

    fn with(self, cfg: PpmConfig) -> Sweep {
        Sweep { cfg, ..self }
    }

    fn nodes(&self) -> usize {
        self.cfg.nodes()
    }

    /// Array length: one private `m`-slice per (node, VP, phase).
    fn len(&self) -> usize {
        self.nodes() * self.per_node()
    }

    fn per_node(&self) -> usize {
        self.vps * self.phases * self.m
    }

    fn empty(&self) -> f64 {
        empty_job(self.cfg, self.vps, self.phases)
    }

    /// Seconds per access of `body`, net of the empty run.
    fn per_op<B, Fut>(&self, body: B) -> f64
    where
        B: Fn(Phase, Vp, GlobalShared<f64>, usize) -> Fut + Copy + Send + Sync + 'static,
        Fut: Future<Output = ()> + Send + 'static,
    {
        let (wall, _) = ppm_job(self.cfg, self.vps, self.phases, self.len(), body);
        net(wall, self.empty(), self.len())
    }

    /// This VP's private slice this phase, inside node `node`'s block.
    fn slice(&self, node: usize, rank: usize, phase: usize) -> std::ops::Range<usize> {
        let lo = node * self.per_node() + (phase * self.vps + rank) * self.m;
        lo..lo + self.m
    }

    /// Local single-element gets.
    fn local_get(self) -> f64 {
        self.per_op(move |ph, v, a, p| async move {
            for i in self.slice(v.node_id(), v.node_rank(), p) {
                black_box(ph.get(&a, i).await);
            }
        })
    }

    /// Unique remote elements (the next node's block), one bulk read per
    /// VP per phase, never seen before: cold cache, nothing to dedup.
    fn remote_get(self) -> f64 {
        self.per_op(move |ph, v, a, p| async move {
            let next = (v.node_id() + 1) % self.nodes();
            black_box(ph.get_many(&a, self.slice(next, v.node_rank(), p)).await);
        })
    }

    /// Unique remote puts into the next node's block.
    fn remote_put(self) -> f64 {
        self.per_op(move |ph, v, a, p| async move {
            let next = (v.node_id() + 1) % self.nodes();
            for i in self.slice(next, v.node_rank(), p) {
                ph.put(&a, i, 1.0);
            }
        })
    }
}

/// Run every probe. `scale` multiplies iteration counts (`--smoke` uses
/// 0.1). Returns `(metric name, value)` pairs in BENCHMARK.json order.
pub fn run_all(scale: f64, spans: &mut Spans) -> Vec<(&'static str, f64)> {
    let n = |full: usize| ((full as f64 * scale) as usize).max(1);
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let mut probe = |name: &'static str, spans: &mut Spans, f: &mut dyn FnMut() -> f64| {
        let (v, _) = spans.span(name, |_| f());
        out.push((name, v));
    };

    // -- simnet ---------------------------------------------------------
    let spawn =
        |eps: usize| best(|| ppm_simnet::run(eps, MachineConfig::franklin(eps as u32), |_| ())).0;
    probe("simnet.cluster.spawn_join_us_per_ep", spans, &mut || {
        spawn(256) / 256.0 * 1e6
    });
    probe("simnet.router.pingpong_ns", spans, &mut || {
        let trips = n(2_000);
        let (wall, _) = best(|| {
            ppm_simnet::run(2, MachineConfig::franklin(2), |ctx| {
                let (me, peer) = (ctx.id(), 1 - ctx.id());
                for i in 0..trips as u64 {
                    if me == 0 {
                        ctx.net.send(Message::new(me, peer, i, SimTime::ZERO, 8, i));
                        black_box(ctx.net.recv().take::<u64>());
                    } else {
                        let v = ctx.net.recv().take::<u64>();
                        ctx.net.send(Message::new(me, peer, i, SimTime::ZERO, 8, v));
                    }
                }
            })
        });
        net(wall, spawn(2), 2 * trips) * 1e9
    });
    probe("simnet.router.fanin_msgs_per_s", spans, &mut || {
        let (eps, each) = (16usize, n(20_000));
        let (wall, _) = best(|| {
            ppm_simnet::run(eps, MachineConfig::franklin(eps as u32), |ctx| {
                if ctx.id() == 0 {
                    for _ in 0..(eps - 1) * each {
                        black_box(ctx.net.recv().take::<u64>());
                    }
                } else {
                    for i in 0..each as u64 {
                        ctx.net
                            .send(Message::new(ctx.id(), 0, i, SimTime::ZERO, 8, i));
                    }
                }
            })
        });
        1.0 / net(wall, spawn(eps), (eps - 1) * each)
    });
    {
        let sink = TraceSink::new();
        let tracer = sink.tracer(sink.begin_job("probe", 1), 0);
        let count = n(200_000);
        probe("simnet.trace.span_ns", spans, &mut || {
            let t0 = Instant::now();
            for i in 0..count as u64 {
                let t = SimTime::from_ns(i);
                tracer.span("probe", "runtime", t, t, Vec::new());
            }
            t0.elapsed().as_secs_f64() / count as f64 * 1e9
        });
        probe("simnet.trace.export_mb_per_s", spans, &mut || {
            let (wall, bytes) = best(|| sink.chrome_trace_json().len());
            bytes as f64 / 1e6 / wall
        });
    }

    // -- mps ------------------------------------------------------------
    let mps = |machine: MachineConfig, calls: usize, f: fn(&mut ppm_mps::Comm<'_>)| {
        best(|| {
            ppm_mps::run(machine, move |c| {
                for _ in 0..calls {
                    f(c);
                }
            })
        })
        .0
    };
    probe("mps.collectives.allreduce_us", spans, &mut || {
        let (m, calls) = (MachineConfig::franklin(4), n(100));
        let wall = mps(m, calls, |c| {
            black_box(c.allreduce(c.rank() as u64, |a, b| a + b));
        });
        net(wall, mps(m, 0, |_| ()), calls) * 1e6
    });
    probe("mps.collectives.alltoallv_us", spans, &mut || {
        let (m, calls) = (MachineConfig::franklin(2), n(20));
        let wall = mps(m, calls, |c| {
            let sends = (0..c.size()).map(|_| vec![1u64; 1000]).collect();
            black_box(c.alltoallv(sends));
        });
        net(wall, mps(m, 0, |_| ()), calls) * 1e6
    });

    // -- core.exec / core.nodecoll ---------------------------------------
    probe("core.exec.empty_global_phase_us", spans, &mut || {
        let (cfg, phases) = (pinned(NODES), n(256));
        net(empty_job(cfg, VPS, phases), empty_job(cfg, VPS, 0), phases) * 1e6
    });
    probe("core.exec.empty_global_phase_us_n256", spans, &mut || {
        let (cfg, phases) = (pinned(256), n(8));
        net(empty_job(cfg, 4, phases), empty_job(cfg, 4, 0), phases) * 1e6
    });
    probe("core.nodecoll.node_phase_us", spans, &mut || {
        let node_phases = |phases: usize| {
            best(|| {
                ppm_core::run(pinned(1), move |node| {
                    node.ppm_do(VPS, move |vp| async move {
                        for _ in 0..phases {
                            vp.node_phase(|_| async {}).await;
                        }
                    });
                })
            })
            .0
        };
        let phases = n(512);
        net(node_phases(phases), node_phases(0), phases) * 1e6
    });

    // -- core.vp / core.state access paths --------------------------------
    let sweep = Sweep::new(n(4096), 4);
    let remote = Sweep::new(n(1024), 4);
    probe("core.vp.local_get_ns", spans, &mut || {
        sweep.local_get() * 1e9
    });
    probe("core.vp.get_many_ns", spans, &mut || {
        let s = sweep;
        s.per_op(move |ph, v, a, p| async move {
            black_box(
                ph.get_many(&a, s.slice(v.node_id(), v.node_rank(), p))
                    .await,
            );
        }) * 1e9
    });
    probe("core.state.remote_get_ns", spans, &mut || {
        remote.remote_get() * 1e9
    });
    probe("core.state.dedup_get_ns", spans, &mut || {
        // Every VP of a node asks for the same remote slice (rank 0's).
        let s = remote;
        s.per_op(move |ph, v, a, p| async move {
            let next = (v.node_id() + 1) % s.nodes();
            black_box(ph.get_many(&a, s.slice(next, 0, p)).await);
        }) * 1e9
    });
    probe("core.state.cached_get_ns", spans, &mut || {
        // The same unwritten remote slice every phase: phase 0 is cold,
        // the rest hit the read cache. Subtract a one-phase (cold) run.
        let run = |phases: usize| {
            let s = Sweep::new(remote.m, phases);
            let (wall, _) = ppm_job(
                s.cfg,
                s.vps,
                phases,
                s.len(),
                move |ph, v, a, _| async move {
                    let next = (v.node_id() + 1) % s.nodes();
                    black_box(ph.get_many(&a, s.slice(next, v.node_rank(), 0)).await);
                },
            );
            wall - s.empty()
        };
        let warm_phases = 8;
        let hits = NODES as usize * VPS * remote.m * warm_phases;
        net(run(1 + warm_phases), run(1), hits) * 1e9
    });
    probe("core.state.remote_put_ns", spans, &mut || {
        remote.remote_put() * 1e9
    });
    probe("core.state.accumulate_ns", spans, &mut || {
        // Scatter-add onto 1 024 hot elements spread over every node.
        let s = sweep;
        let stride = s.len() / 1024;
        s.per_op(move |ph, v, a, _| async move {
            for i in 0..s.m {
                let hot = (i * 7919 + v.global_rank()) % 1024;
                ph.accumulate(&a, hot * stride, AccumOp::Add, 1.0);
            }
        }) * 1e9
    });
    probe("core.util.reduce_global_us", spans, &mut || {
        let reduces = |calls: usize| {
            best(|| {
                ppm_core::run(pinned(NODES), move |node| {
                    let a = node.alloc_global::<f64>(1 << 16);
                    for _ in 0..calls {
                        black_box(reduce_global(node, &a, 0.0, |x, y| x + y));
                    }
                })
            })
            .0
        };
        let calls = n(200);
        net(reduces(calls), reduces(0), calls) * 1e6
    });
    probe("core.state.tile_fault_us", spans, &mut || {
        // The local sweep with the node's slice 8x over its tile budget.
        let budget = (sweep.per_node() * std::mem::size_of::<f64>() / 8) as u64;
        let tiled = sweep.with(sweep.cfg.with_tile_budget(budget));
        let body = move |ph: Phase, v: Vp, a: GlobalShared<f64>, p: usize| async move {
            for i in tiled.slice(v.node_id(), v.node_rank(), p) {
                black_box(ph.get(&a, i).await);
            }
        };
        let (wall, c) = ppm_job(tiled.cfg, tiled.vps, tiled.phases, tiled.len(), body);
        let (base, _) = ppm_job(sweep.cfg, sweep.vps, sweep.phases, sweep.len(), body);
        net(wall, base, c.tile_refills.max(1) as usize) * 1e6
    });

    // -- knobs that tax a path: ratios of net probe times ------------------
    probe("core.check.overhead_ratio", spans, &mut || {
        sweep.with(sweep.cfg.with_checker(true)).local_get() / sweep.local_get()
    });
    probe("core.reliable.overhead_ratio", spans, &mut || {
        remote.with(remote.cfg.with_reliability(true)).remote_get() / remote.remote_get()
    });
    probe("core.exec.replication_overhead_ratio", spans, &mut || {
        remote.with(remote.cfg.with_replication(true)).remote_put() / remote.remote_put()
    });
    probe("core.exec.pool_speedup", spans, &mut || {
        // The only place the intra-node VP worker pool is timed.
        let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
        let one_node = sweep.with(pinned(1));
        one_node.local_get()
            / one_node
                .with(pinned(1).with_host_threads(nproc))
                .local_get()
    });

    // -- core.bitset / core.dist -----------------------------------------
    probe("core.bitset.or_ns_1024", spans, &mut || {
        let mut a = NodeSet::single(1023);
        let b: NodeSet = {
            let mut b = NodeSet::new();
            (0..1024).step_by(3).for_each(|i| b.insert(i));
            b
        };
        let iters = n(2_000_000);
        let t0 = Instant::now();
        for _ in 0..iters {
            a.union_with(black_box(&b));
        }
        black_box(&a);
        t0.elapsed().as_secs_f64() / iters as f64 * 1e9
    });
    probe("core.dist.owner_ns", spans, &mut || {
        let d = Dist::block(1 << 20, 256);
        let iters = n(4_000_000);
        let t0 = Instant::now();
        let mut sum = 0usize;
        for i in 0..iters {
            sum += black_box(&d).owner((i * 7919) & ((1 << 20) - 1));
        }
        black_box(sum);
        t0.elapsed().as_secs_f64() / iters as f64 * 1e9
    });

    // -- apps.stencil27 (cg_halo's rows) ----------------------------------
    let grid = Stencil27::chimney(24);
    let rows = n(grid.n());
    probe("apps.stencil27.rows_per_s", spans, &mut || {
        let (wall, _) = best(|| {
            let mut acc = 0.0;
            for i in 0..rows {
                grid.for_each_entry(i, |j, v| acc += j as f64 * v);
            }
            black_box(acc)
        });
        rows as f64 / wall
    });
    probe("apps.stencil27.csr_block_rows_per_s", spans, &mut || {
        let (wall, _) = best(|| black_box(grid.csr_block(0..rows)).nnz());
        rows as f64 / wall
    });

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_slices_partition_the_array() {
        let s = Sweep::new(8, 3);
        let mut seen = vec![false; s.len()];
        for node in 0..s.nodes() {
            for rank in 0..s.vps {
                for phase in 0..s.phases {
                    for i in s.slice(node, rank, phase) {
                        assert!(!std::mem::replace(&mut seen[i], true), "index {i} twice");
                        assert_eq!(i / s.per_node(), node, "slice leaves its node's block");
                    }
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn net_never_goes_non_positive() {
        assert_eq!(net(1.0, 0.5, 5), 0.1);
        assert_eq!(net(0.5, 1.0, 5), 1e-12);
    }
}
