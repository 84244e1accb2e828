//! PPM version of PageRank: the irregular scatter is a combining write.
//!
//! Two global phases per iteration: (1) every vertex accumulates its
//! rank share into its out-neighbours' contribution slots — the runtime
//! merges the per-node contributions and ships one bundle entry per
//! touched vertex per node; (2) every vertex folds the teleport term into
//! its own (locally owned) slot. No communication code anywhere.

use ppm_core::{AccumOp, NodeCtx};
use ppm_simnet::SimTime;

use super::{neighbour, out_degree, PrParams};

/// Run PageRank on the PPM runtime; returns the gathered rank vector and
/// the simulated finish instant.
pub fn rank(node: &mut NodeCtx<'_>, p: &PrParams) -> (Vec<f64>, SimTime) {
    let params = *p;
    let n = p.n;
    let cur = node.alloc_global_balanced::<f64>(n);
    let contrib = node.alloc_global_balanced::<f64>(n);

    let len = node.local_range(&cur).len();
    node.with_local_mut(&cur, |s| s.fill(1.0 / n as f64));

    let vpv = params.vertices_per_vp.max(1);
    // The VP count is fixed from the initial (block-equal) bounds; under
    // adaptive balancing the node's span can move between phases, so each
    // phase re-derives its slice — work follows the data.
    let k = len.div_ceil(vpv).max(1);
    let slice = move |r: std::ops::Range<usize>, vr: usize| {
        let cpv = vpv.max(r.len().div_ceil(k));
        let a = (r.start + vr * cpv).min(r.end);
        (a, (a + cpv).min(r.end))
    };

    for _ in 0..params.iters {
        node.ppm_do(k, move |vp| async move {
            // Phase 1: push shares along the out-edges.
            let v2 = vp.clone();
            vp.global_phase(|ph| async move {
                let (a, b) = slice(v2.local_range(&cur), v2.node_rank());
                for v in a..b {
                    let d = out_degree(&params, v);
                    let share = ph.get(&cur, v).await / d as f64;
                    let pushes = (0..d).map(|e| (neighbour(&params, v, e), share));
                    ph.accumulate_many(&contrib, AccumOp::Add, pushes);
                    v2.charge_flops(2 * d as u64 + 1);
                }
            })
            .await;

            // Phase 2: teleport mix (all local).
            let v2 = vp.clone();
            vp.global_phase(|ph| async move {
                let (a, b) = slice(v2.local_range(&contrib), v2.node_rank());
                let teleport = (1.0 - params.damping) / n as f64;
                let c = ph.get_many(&contrib, a..b).await;
                let mixed = c.iter().map(|c| teleport + params.damping * c);
                ph.put_many(&cur, (a..b).zip(mixed));
                v2.charge_flops(2 * (b - a) as u64);
            })
            .await;
        });
    }

    let t = node.now();
    (node.gather_global(&cur), t)
}
