//! PPM version of the CG solver.
//!
//! The whole solver is one `PPM_do`: each virtual processor owns a slice of
//! matrix rows and the iteration loop lives inside the PPM function, three
//! global phases per iteration. The sparse mat-vec simply reads `p[j]`
//! through shared-variable gets — exactly the "array syntax as in the
//! mathematical algorithm" style the paper advertises; the runtime bundles
//! whatever turns out to be remote. No communication or synchronization
//! code appears anywhere below.

use std::ops::Range;

use ppm_core::{AccumOp, GlobalShared, NodeCtx, Phase, Vp};
use ppm_simnet::SimTime;

use super::{CgOutcome, CgParams, Stencil27};

/// Slots of the shared scalar accumulator.
const RR: usize = 0;
const PAP: usize = 1;
const RR_NEW: usize = 2;
/// Iterations completed (maintained by VP 0, read back by the caller).
const ITERS: usize = 3;

/// Phase A body: `ap = A·p` (one bulk read per row chunk for every p value
/// those rows touch) and the `p·Ap` partial.
///
/// The matrix is the stencil: each chunk's column indices stream from
/// [`Stencil27::columns`] straight into the bulk read, and each row's dot
/// walks [`Stencil27::for_each_entry`] over the values read — no CSR
/// exists, so none is held while the VP waits on a wave, and rows that
/// adaptive balancing moves between phases need nothing rebuilt.
/// `chunk` bounds the rows per bulk read, and with them the staged
/// p-values a VP holds live and the wave shape (0 = the whole slice, the
/// historical single-bulk-read shape); the per-row read/accumulate order
/// is identical either way, so the numerics are bit-identical across
/// chunk sizes.
#[allow(clippy::too_many_arguments)]
async fn spmv_phase(
    ph: &Phase,
    prob: &Stencil27,
    rows: Range<usize>,
    chunk: usize,
    p: &GlobalShared<f64>,
    ap: &GlobalShared<f64>,
    scal: &GlobalShared<f64>,
    v: &Vp,
) {
    let chunk = if chunk == 0 { rows.len().max(1) } else { chunk };
    let mut pap_part = 0.0;
    for lo in rows.clone().step_by(chunk) {
        let crows = lo..(lo + chunk).min(rows.end);
        let pv = ph.get_many(p, prob.columns(crows.clone())).await;
        let mut at = 0;
        let row_dot = |i| {
            let mut acc = 0.0;
            prob.for_each_entry(i, |_, val| {
                acc += val * pv[at];
                at += 1;
            });
            acc
        };
        let acc: Vec<f64> = crows.clone().map(row_dot).collect();
        for (pi, acc) in ph.get_many(p, crows.clone()).await.iter().zip(&acc) {
            pap_part += pi * acc;
        }
        ph.put_many(ap, crows.clone().zip(acc));
        v.charge_flops(2 * (pv.len() + crows.len()) as u64);
    }
    ph.accumulate(scal, PAP, AccumOp::Add, pap_part);
}

/// Run CG on the PPM runtime. Call from inside a [`ppm_core::run`] SPMD
/// closure. Returns the outcome plus the simulated instant the solve
/// finished (before any result gathering).
pub fn solve(node: &mut NodeCtx<'_>, params: &CgParams) -> (CgOutcome, SimTime) {
    let prob = params.problem;
    let n = prob.n();
    let iters = params.iters;
    let tol = params.tol;
    let chunk = params.spmv_chunk;

    let x = node.alloc_global_balanced::<f64>(n);
    let r = node.alloc_global_balanced::<f64>(n);
    let p = node.alloc_global_balanced::<f64>(n);
    let ap = node.alloc_global_balanced::<f64>(n);
    let scal = node.alloc_global::<f64>(4);

    let nrows = node.local_range(&x).len();
    let rpv = params.rows_per_vp.max(1);
    // VP count is pinned to the initial (block-equal) bounds; each phase
    // re-derives its row slice from the live bounds, so work follows the
    // data when the adaptive balancer moves the partition.
    let k = nrows.div_ceil(rpv).max(1);
    let slice = move |rg: Range<usize>, vr: usize| {
        let cpv = rpv.max(rg.len().div_ceil(k));
        let a = (rg.start + vr * cpv).min(rg.end);
        a..(a + cpv).min(rg.end)
    };

    node.ppm_do(k, move |vp| {
        async move {
            let vr = vp.node_rank();

            // Initialization: r = p = b, rr = b·b.
            let v = vp.clone();
            vp.global_phase(|ph| async move {
                let rows = slice(v.local_range(&r), vr);
                let b: Vec<f64> = rows.clone().map(|gi| prob.rhs_for_ones(gi)).collect();
                let rr_part = b.iter().fold(0.0, |rr, bi| rr + bi * bi);
                ph.put_many(&r, rows.clone().zip(b.iter().copied()));
                ph.put_many(&p, rows.clone().zip(b));
                v.charge_flops(29 * rows.len() as u64);
                ph.accumulate(&scal, RR, AccumOp::Add, rr_part);
            })
            .await;

            let mut limit: Option<f64> = None;
            for it in 0..iters {
                // Phase A. With a tolerance set, the shared residual is
                // consulted first — every VP reads the same value, so the
                // early exit is taken uniformly across the whole cluster.
                let v = vp.clone();
                let (proceed, lim) = vp
                    .global_phase(|ph| async move {
                        let rows = slice(v.local_range(&p), vr);
                        if let Some(t) = tol {
                            let rr_cur = ph.get(&scal, RR).await;
                            let lim = limit.unwrap_or(t * t * rr_cur);
                            if rr_cur <= lim {
                                return (false, lim);
                            }
                            spmv_phase(&ph, &prob, rows, chunk, &p, &ap, &scal, &v).await;
                            (true, lim)
                        } else {
                            spmv_phase(&ph, &prob, rows, chunk, &p, &ap, &scal, &v).await;
                            (true, 0.0)
                        }
                    })
                    .await;
                limit = Some(lim);
                if !proceed {
                    break;
                }

                // Phase B: x += α·p, r -= α·ap, rr_new = r·r.
                let v = vp.clone();
                vp.global_phase(|ph| async move {
                    let s = ph.get_many(&scal, [RR, PAP]).await;
                    let alpha = s[0] / s[1];
                    let rows = slice(v.local_range(&x), vr);
                    let xv = ph.get_many(&x, rows.clone()).await;
                    let pv = ph.get_many(&p, rows.clone()).await;
                    let rv = ph.get_many(&r, rows.clone()).await;
                    let apv = ph.get_many(&ap, rows.clone()).await;
                    let x_new = xv.iter().zip(&pv).map(|(xi, pi)| xi + alpha * pi);
                    ph.put_many(&x, rows.clone().zip(x_new));
                    let r_new = rv.iter().zip(&apv).map(|(ri, api)| ri - alpha * api);
                    let r_new: Vec<f64> = r_new.collect();
                    let rr_part = r_new.iter().fold(0.0, |rr, rn| rr + rn * rn);
                    ph.put_many(&r, rows.clone().zip(r_new));
                    v.charge_flops(6 * rows.len() as u64);
                    ph.accumulate(&scal, RR_NEW, AccumOp::Add, rr_part);
                })
                .await;

                // Phase C: p = r + β·p; roll rr (and the iteration count)
                // forward.
                let v = vp.clone();
                vp.global_phase(|ph| async move {
                    let s = ph.get_many(&scal, [RR_NEW, RR]).await;
                    let (rr_new, beta) = (s[0], s[0] / s[1]);
                    let rows = slice(v.local_range(&p), vr);
                    let pv = ph.get_many(&p, rows.clone()).await;
                    let rv = ph.get_many(&r, rows.clone()).await;
                    let p_new = rv.iter().zip(&pv).map(|(ri, pi)| ri + beta * pi);
                    ph.put_many(&p, rows.clone().zip(p_new));
                    v.charge_flops(2 * rows.len() as u64);
                    if v.global_rank() == 0 {
                        ph.put(&scal, RR, rr_new);
                        ph.put(&scal, ITERS, (it + 1) as f64);
                    }
                })
                .await;
            }
        }
    });

    let t_solve = node.now();
    let scal_v = node.gather_global(&scal);
    let xv = if params.collect_x {
        node.gather_global(&x)
    } else {
        Vec::new()
    };
    (
        CgOutcome {
            rr: scal_v[RR],
            iters_done: scal_v[ITERS] as usize,
            x: xv,
        },
        t_solve,
    )
}
