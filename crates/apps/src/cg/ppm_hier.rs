//! Hierarchical PPM version of the CG solver — the paper's layered
//! parallelism (§3.3) put to work.
//!
//! Only the search direction `p` needs to be visible across nodes (the
//! sparse mat-vec reads remote entries of it); `x`, `r` and `A·p` are
//! touched exclusively by the rows' owner node. The plain PPM version
//! ([`super::ppm`]) keeps all four in cluster-wide shared arrays; this
//! variant declares the node-private three as `PPM_node_shared`, so their
//! accesses take the physical-shared-memory path — "using the node-level
//! can save overhead in global communication and synchronization" — while
//! the phase structure stays identical.

use ppm_core::{AccumOp, NodeCtx};
use ppm_simnet::SimTime;

use super::{CgOutcome, CgParams};

const RR: usize = 0;
const PAP: usize = 1;
const RR_NEW: usize = 2;

/// Run hierarchical CG on the PPM runtime. Same contract as
/// [`super::ppm::solve`].
pub fn solve(node: &mut NodeCtx<'_>, params: &CgParams) -> (CgOutcome, SimTime) {
    assert!(
        params.tol.is_none(),
        "tolerance-based stopping is implemented in cg::ppm; this variant \
         demonstrates storage layering with a fixed iteration count"
    );
    let prob = params.problem;
    let n = prob.n();
    let iters = params.iters;

    // Cluster-level shared state: the mat-vec input and the reduction
    // scalars.
    let p = node.alloc_global::<f64>(n);
    let scal = node.alloc_global::<f64>(3);

    let range = node.local_range(&p);
    let lo = range.start;
    let nrows = range.len();

    // Node-level shared state: everything only this node's rows touch.
    let x = node.alloc_node::<f64>(nrows);
    let r = node.alloc_node::<f64>(nrows);
    let ap = node.alloc_node::<f64>(nrows);

    let rpv = params.rows_per_vp.max(1);
    let k = nrows.div_ceil(rpv).max(1);

    node.ppm_do(k, move |vp| {
        async move {
            let vr = vp.node_rank();
            let rows = vr * rpv..((vr + 1) * rpv).min(nrows);

            // Initialization: r = p = b, rr = b·b.
            let (v, rs) = (vp.clone(), rows.clone());
            vp.global_phase(|ph| async move {
                let mut rr_part = 0.0;
                for li in rs {
                    let bi = prob.rhs_for_ones(lo + li);
                    ph.put_node(&r, li, bi);
                    ph.put(&p, lo + li, bi);
                    rr_part += bi * bi;
                    v.charge_flops(29);
                }
                ph.accumulate(&scal, RR, AccumOp::Add, rr_part);
            })
            .await;

            for _ in 0..iters {
                // Phase A: ap = A·p, pap = p·ap (bulk-read p along the
                // stencil's columns, write the node-shared ap).
                let (v, rs) = (vp.clone(), rows.clone());
                vp.global_phase(|ph| async move {
                    let pv = ph
                        .get_many(&p, prob.columns(lo + rs.start..lo + rs.end))
                        .await;
                    let mut pap_part = 0.0;
                    let mut at = 0;
                    for li in rs {
                        let (mut acc, row_at) = (0.0, at);
                        prob.for_each_entry(lo + li, |_, val| {
                            acc += val * pv[at];
                            at += 1;
                        });
                        ph.put_node(&ap, li, acc);
                        pap_part += ph.get(&p, lo + li).await * acc;
                        v.charge_flops(2 * (at - row_at) as u64 + 2);
                    }
                    ph.accumulate(&scal, PAP, AccumOp::Add, pap_part);
                })
                .await;

                // Phase B: the x/r updates touch only node memory.
                let (v, rs) = (vp.clone(), rows.clone());
                vp.global_phase(|ph| async move {
                    let s = ph.get_many(&scal, [RR, PAP]).await;
                    let alpha = s[0] / s[1];
                    let mut rr_part = 0.0;
                    for li in rs {
                        let xi = ph.get_node(&x, li);
                        let pi = ph.get(&p, lo + li).await;
                        let ri = ph.get_node(&r, li);
                        let api = ph.get_node(&ap, li);
                        ph.put_node(&x, li, xi + alpha * pi);
                        let rn = ri - alpha * api;
                        ph.put_node(&r, li, rn);
                        rr_part += rn * rn;
                        v.charge_flops(6);
                    }
                    ph.accumulate(&scal, RR_NEW, AccumOp::Add, rr_part);
                })
                .await;

                // Phase C: p = r + β·p.
                let (v, rs) = (vp.clone(), rows.clone());
                vp.global_phase(|ph| async move {
                    let s = ph.get_many(&scal, [RR_NEW, RR]).await;
                    let (rr_new, beta) = (s[0], s[0] / s[1]);
                    for li in rs {
                        let pi = ph.get(&p, lo + li).await;
                        let ri = ph.get_node(&r, li);
                        ph.put(&p, lo + li, ri + beta * pi);
                        v.charge_flops(2);
                    }
                    if v.global_rank() == 0 {
                        ph.put(&scal, RR, rr_new);
                    }
                })
                .await;
            }
        }
    });

    let t_solve = node.now();
    let rr = node.gather_global(&scal)[RR];
    let xv = if params.collect_x {
        // x is node-shared: gather the per-node slices in node order.
        let local = node.with_node(&x, |s| s.to_vec());
        node.allgatherv_nodes(local).into_iter().flatten().collect()
    } else {
        Vec::new()
    };
    (
        CgOutcome {
            rr,
            iters_done: iters,
            x: xv,
        },
        t_solve,
    )
}
