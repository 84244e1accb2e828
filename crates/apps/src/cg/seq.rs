//! Sequential CG reference.

use super::{CgOutcome, CgParams};

/// Solve the stencil system sequentially with `params.iters` CG iterations.
/// The mat-vec walks the stencil row by row; no matrix is stored.
pub fn solve(params: &CgParams) -> CgOutcome {
    let a = params.problem;
    let n = a.n();
    let b: Vec<f64> = (0..n).map(|i| a.rhs_for_ones(i)).collect();

    let mut x = vec![0.0; n];
    let mut r = b;
    let mut p = r.clone();
    let mut ap = vec![0.0; n];
    let mut rr: f64 = r.iter().map(|v| v * v).sum();
    let stop_at = params.tol.map(|t| t * t * rr);
    let mut iters_done = 0;

    for _ in 0..params.iters {
        if let Some(limit) = stop_at {
            if rr <= limit {
                break;
            }
        }
        iters_done += 1;
        for (i, api) in ap.iter_mut().enumerate() {
            let mut acc = 0.0;
            a.for_each_entry(i, |j, v| acc += v * p[j]);
            *api = acc;
        }
        let pap: f64 = p.iter().zip(&ap).map(|(a, b)| a * b).sum();
        let alpha = rr / pap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rr_new: f64 = r.iter().map(|v| v * v).sum();
        let beta = rr_new / rr;
        rr = rr_new;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
    }
    CgOutcome { rr, iters_done, x }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_to_ones() {
        let out = solve(&CgParams::cube(6, 25));
        assert!(out.rr < 1e-12, "residual {}", out.rr);
        assert!(out.max_error_vs_ones() < 1e-7);
    }

    #[test]
    fn residual_decreases_with_iterations() {
        let short = solve(&CgParams::cube(6, 3)).rr;
        let long = solve(&CgParams::cube(6, 12)).rr;
        assert!(long < short);
    }
}
