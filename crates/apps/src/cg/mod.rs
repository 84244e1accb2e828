//! Application 1: Conjugate Gradient solver (paper §4.2, Figure 1).
//!
//! Solves `A·x = b` for the 27-point 3-D diffusion stencil of
//! [`crate::stencil27`], with `b` chosen so the exact solution is the ones
//! vector. Three implementations:
//!
//! * [`seq`] — sequential reference,
//! * [`ppm`] — the PPM program: the whole solver is one `ppm_do` with three
//!   global phases per iteration; the sparse mat-vec reads `p[j]` through
//!   fine-grained shared gets, which the runtime bundles,
//! * [`ppm_hier`] — the layered-parallelism variant (§3.3): only `p` is
//!   cluster-shared; `x`, `r`, `A·p` live in node-shared memory and take
//!   the cheaper physical-shared-memory path,
//! * [`mpi`] — the "highly-tuned MPI" baseline: precomputed halo
//!   send/receive lists, hand-bundled neighbour exchange, allreduce dot
//!   products, one rank per core.
//!
//! All three charge identical floating-point work, so simulated-time
//! differences come from the programming model (shared-access overhead vs
//! message costs), as in the paper.

pub mod mpi;
pub mod ppm;
pub mod ppm_hier;
pub mod seq;

use crate::stencil27::Stencil27;

/// CG run parameters.
#[derive(Debug, Clone, Copy)]
pub struct CgParams {
    /// The linear system.
    pub problem: Stencil27,
    /// Fixed iteration count (the paper times a fixed amount of work).
    pub iters: usize,
    /// PPM only: rows handled per virtual processor (the "degree of
    /// parallelism" knob of `PPM_do`).
    pub rows_per_vp: usize,
    /// Whether to gather the full solution vector (tests want it; the
    /// benchmark sweeps skip the cost).
    pub collect_x: bool,
    /// Optional convergence tolerance: stop as soon as
    /// `‖r‖² ≤ tol²·‖b‖²` (within the `iters` cap). Because the residual
    /// is shared state every virtual processor reads, the early exit is
    /// taken uniformly — phase sequences stay aligned across the cluster.
    pub tol: Option<f64>,
    /// PPM only: rows of the mat-vec handled per bulk read (0 = the whole
    /// VP slice at once, the historical behavior). A nonzero chunk bounds
    /// the `get_many` staging a VP holds live at any instant — the p-values
    /// its rows' columns name — and sets the wave shape; with a tile budget
    /// set (`PpmConfig::with_tile_budget`) that is what lets
    /// `fig1_cg --full` run 16.7M rows under a small residency budget.
    /// Results are bit-identical across chunk sizes (the read and
    /// accumulate order per row is unchanged); only wave structure — and
    /// hence simulated time — shifts.
    pub spmv_chunk: usize,
}

impl CgParams {
    /// Default parameters on a cubic grid.
    pub fn cube(g: usize, iters: usize) -> Self {
        CgParams {
            problem: Stencil27::cube(g),
            iters,
            rows_per_vp: 64,
            collect_x: true,
            tol: None,
            spmv_chunk: 0,
        }
    }

    /// Bound the mat-vec's per-bulk-read row chunk (0 disables chunking).
    pub fn with_spmv_chunk(mut self, rows: usize) -> Self {
        self.spmv_chunk = rows;
        self
    }

    /// Enable the relative-residual stopping test.
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = Some(tol);
        self
    }

    /// Drop the solution gather (benchmark sweeps).
    pub fn without_x(mut self) -> Self {
        self.collect_x = false;
        self
    }
}

/// Result of a CG run.
#[derive(Debug, Clone, PartialEq)]
pub struct CgOutcome {
    /// `‖r‖²` after the final iteration.
    pub rr: f64,
    /// Iterations actually executed (`< iters` only with a tolerance).
    pub iters_done: usize,
    /// Solution vector (tests) — per-version callers may drop it.
    pub x: Vec<f64>,
}

impl CgOutcome {
    /// Maximum absolute error against the exact ones solution.
    pub fn max_error_vs_ones(&self) -> f64 {
        self.x.iter().map(|&v| (v - 1.0).abs()).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_constructors() {
        let p = CgParams::cube(8, 10).without_x();
        assert_eq!(p.problem.n(), 512);
        assert_eq!(p.iters, 10);
        assert!(!p.collect_x);
    }
}
