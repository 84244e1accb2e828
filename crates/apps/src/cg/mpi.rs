//! MPI version of the CG solver — the "highly-tuned implementation by a top
//! MPI programmer" the paper compares against (§4.5).
//!
//! One rank per core, block row distribution. All the machinery PPM hides
//! is explicit here, and is what makes the MPI program big (Table 1):
//!
//! * discovery of the external (ghost) columns each rank needs,
//! * negotiation of symmetric send/receive lists at setup,
//! * per-iteration hand-packing of halo values into bundled messages,
//! * a ghost-value table to redirect matrix columns,
//! * explicit allreduce synchronization for the dot products.

use std::collections::HashMap;

use ppm_mps::Comm;
use ppm_simnet::SimTime;

use super::{CgOutcome, CgParams, Stencil27};

/// Row range owned by `rank` out of `size` (block distribution, matching
/// the PPM runtime's block layout so the two versions partition alike).
fn row_block(n: usize, rank: usize, size: usize) -> std::ops::Range<usize> {
    let bs = n.div_ceil(size).max(1);
    let lo = (rank * bs).min(n);
    let hi = ((rank + 1) * bs).min(n);
    lo..hi
}

fn owner_of(col: usize, n: usize, size: usize) -> usize {
    let bs = n.div_ceil(size).max(1);
    (col / bs).min(size - 1)
}

/// Precomputed halo-exchange plan.
struct HaloPlan {
    /// For each peer rank: the *local* positions of my `p` entries to pack
    /// and ship there each iteration.
    send_lists: Vec<(usize, Vec<usize>)>,
    /// For each peer rank: how many values to expect and where each lands
    /// in the ghost table.
    recv_lists: Vec<(usize, Vec<usize>)>,
    /// Global column → ghost-table position.
    ghost_pos: HashMap<usize, usize>,
    /// Ghost-table size.
    ghosts: usize,
}

/// Negotiate send/receive lists from the sparsity pattern of rows
/// `lo..hi` (setup cost the tuned implementation pays once).
fn build_halo_plan(comm: &mut Comm<'_>, prob: &Stencil27, lo: usize, hi: usize) -> HaloPlan {
    let (size, n) = (comm.size(), prob.n());
    // 1. Every external column this rank's rows touch, deduplicated.
    let mut ext: Vec<usize> = prob
        .columns(lo..hi)
        .filter(|&c| c < lo || c >= hi)
        .collect();
    ext.sort_unstable();
    ext.dedup();

    let mut ghost_pos = HashMap::with_capacity(ext.len());
    for (pos, &c) in ext.iter().enumerate() {
        ghost_pos.insert(c, pos);
    }

    // 2. Group wanted columns by owner.
    let mut want_from: Vec<Vec<u64>> = (0..size).map(|_| Vec::new()).collect();
    for &c in &ext {
        want_from[owner_of(c, n, size)].push(c as u64);
    }

    // 3. Tell every owner what we want; learn what everyone wants from us.
    let wanted_by = comm.alltoallv(want_from.clone());

    let send_lists: Vec<(usize, Vec<usize>)> = wanted_by
        .into_iter()
        .enumerate()
        .filter(|(_, w)| !w.is_empty())
        .map(|(peer, w)| (peer, w.into_iter().map(|c| c as usize - lo).collect()))
        .collect();
    let recv_lists: Vec<(usize, Vec<usize>)> = want_from
        .iter()
        .enumerate()
        .filter(|(_, w)| !w.is_empty())
        .map(|(peer, w)| (peer, w.iter().map(|&c| ghost_pos[&(c as usize)]).collect()))
        .collect();

    HaloPlan {
        send_lists,
        recv_lists,
        ghost_pos,
        ghosts: ext.len(),
    }
}

/// One halo exchange: pack, ship, unpack (per-iteration communication).
fn exchange_halo(comm: &mut Comm<'_>, plan: &HaloPlan, p: &[f64], ghost: &mut [f64], tag: u64) {
    for (peer, positions) in &plan.send_lists {
        let packed: Vec<f64> = positions.iter().map(|&i| p[i]).collect();
        comm.charge_mem_ops(positions.len() as u64);
        comm.send(*peer, tag, packed);
    }
    for (peer, landings) in &plan.recv_lists {
        let packed: Vec<f64> = comm.recv(*peer, tag);
        assert_eq!(packed.len(), landings.len(), "halo size mismatch");
        for (&pos, v) in landings.iter().zip(packed) {
            ghost[pos] = v;
        }
        comm.charge_mem_ops(landings.len() as u64);
    }
}

/// Run CG on the MPI-like substrate. Call from inside a [`ppm_mps::run`]
/// closure. Returns the outcome plus the simulated instant the solve
/// finished.
pub fn solve(comm: &mut Comm<'_>, params: &CgParams) -> (CgOutcome, SimTime) {
    let prob = params.problem;
    let n = prob.n();
    let size = comm.size();
    let rank = comm.rank();
    let range = row_block(n, rank, size);
    let (lo, hi) = (range.start, range.end);
    let nrows = range.len();

    let plan = build_halo_plan(comm, &prob, lo, hi);

    let mut x = vec![0.0f64; nrows];
    let mut r: Vec<f64> = (lo..hi).map(|i| prob.rhs_for_ones(i)).collect();
    let mut p = r.clone();
    let mut ap = vec![0.0f64; nrows];
    let mut ghost = vec![0.0f64; plan.ghosts];
    comm.charge_flops(29 * nrows as u64);

    let rr_local: f64 = r.iter().map(|v| v * v).sum();
    comm.charge_flops(2 * nrows as u64);
    let mut rr = comm.allreduce(rr_local, |a, b| a + b);
    let stop_at = params.tol.map(|t| t * t * rr);
    let mut iters_done = 0;

    for it in 0..params.iters {
        if let Some(limit) = stop_at {
            // Every rank holds the same allreduced residual, so the exit
            // is taken uniformly.
            if rr <= limit {
                break;
            }
        }
        iters_done += 1;
        // Halo exchange so every rank can read the p values its rows need.
        exchange_halo(comm, &plan, &p, &mut ghost, it as u64);

        // Local SpMV over the stencil with ghost redirection, fused with
        // the p·Ap partial.
        let mut pap_local = 0.0;
        for li in 0..nrows {
            let (mut acc, mut nnz) = (0.0, 0);
            prob.for_each_entry(lo + li, |c, v| {
                let pv = if c >= lo && c < hi {
                    p[c - lo]
                } else {
                    ghost[plan.ghost_pos[&c]]
                };
                acc += v * pv;
                nnz += 1;
            });
            ap[li] = acc;
            pap_local += p[li] * acc;
            comm.charge_flops(2 * nnz + 2);
        }
        let pap = comm.allreduce(pap_local, |a, b| a + b);
        let alpha = rr / pap;

        let mut rr_new_local = 0.0;
        for li in 0..nrows {
            x[li] += alpha * p[li];
            r[li] -= alpha * ap[li];
            rr_new_local += r[li] * r[li];
        }
        comm.charge_flops(6 * nrows as u64);
        let rr_new = comm.allreduce(rr_new_local, |a, b| a + b);
        let beta = rr_new / rr;
        rr = rr_new;

        for li in 0..nrows {
            p[li] = r[li] + beta * p[li];
        }
        comm.charge_flops(2 * nrows as u64);
    }

    let t_solve = comm.now();
    let xv = if params.collect_x {
        comm.allgather(x).into_iter().flatten().collect()
    } else {
        Vec::new()
    };
    (
        CgOutcome {
            rr,
            iters_done,
            x: xv,
        },
        t_solve,
    )
}
