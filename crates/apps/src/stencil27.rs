//! The CG application's linear system: a 27-point implicit finite
//! difference discretization of a 3-D diffusion problem (paper §4.2).
//!
//! The paper solves a 16.7M-row system of this form on a "3D chimney
//! domain"; we generate the same stencil on a `gx × gy × gz` box (the
//! chimney is a tall box: `gz` can exceed `gx`/`gy`). The matrix is the
//! standard HPCG-style SPD operator: diagonal 26, −1 for each of the up to
//! 26 neighbours.

use crate::sparse::Csr;

/// Problem description: grid shape plus derived sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stencil27 {
    /// Grid extent in x.
    pub gx: usize,
    /// Grid extent in y.
    pub gy: usize,
    /// Grid extent in z.
    pub gz: usize,
}

impl Stencil27 {
    /// A cubic grid.
    pub fn cube(g: usize) -> Self {
        Stencil27 {
            gx: g,
            gy: g,
            gz: g,
        }
    }

    /// A "chimney": footprint `g × g`, height `4g` (tall box like the
    /// paper's domain).
    pub fn chimney(g: usize) -> Self {
        Stencil27 {
            gx: g,
            gy: g,
            gz: 4 * g,
        }
    }

    /// Number of unknowns.
    #[inline]
    pub fn n(&self) -> usize {
        self.gx * self.gy * self.gz
    }

    /// Flattened index of grid point `(x, y, z)`.
    #[inline]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        x + self.gx * (y + self.gy * z)
    }

    /// Grid coordinates of flattened index `i`.
    #[inline]
    pub fn coords(&self, i: usize) -> (usize, usize, usize) {
        let x = i % self.gx;
        let y = (i / self.gx) % self.gy;
        let z = i / (self.gx * self.gy);
        (x, y, z)
    }

    /// Visit the `(column, value)` entries of row `i` in ascending column
    /// order without allocating. The single generator behind
    /// [`row_entries`](Self::row_entries), [`csr_block`](Self::csr_block)
    /// and [`rhs_for_ones`](Self::rhs_for_ones).
    #[inline]
    pub fn for_each_entry(&self, i: usize, mut f: impl FnMut(usize, f64)) {
        let (x, y, z) = self.coords(i);
        // Each axis' neighbours clamped to the grid once: z picks the
        // planes, y the lines, x the span of each line.
        let near = |c: usize, extent: usize| c.saturating_sub(1)..(c + 2).min(extent);
        let xs = near(x, self.gx);
        for nz in near(z, self.gz) {
            for ny in near(y, self.gy) {
                let line = self.idx(0, ny, nz);
                for j in line + xs.start..line + xs.end {
                    f(j, if j == i { 26.0 } else { -1.0 });
                }
            }
        }
    }

    /// The `(column, value)` entries of row `i`, in ascending column order.
    pub fn row_entries(&self, i: usize) -> Vec<(usize, f64)> {
        let mut out = Vec::with_capacity(27);
        self.for_each_entry(i, |j, v| out.push((j, v)));
        out
    }

    /// Assemble the CSR block for rows `range` (global column indexing).
    /// Rows stream straight into the CSR arrays — no intermediate
    /// per-row vectors — so peak memory is the block itself.
    pub fn csr_block(&self, range: std::ops::Range<usize>) -> Csr {
        let rows = range.len();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        // Interior rows carry 27 entries; boundary rows fewer. Reserving
        // for the dense case wastes under 4% on any grid ≥ 16³.
        let mut col_idx = Vec::with_capacity(rows * 27);
        let mut values = Vec::with_capacity(rows * 27);
        for i in range {
            self.for_each_entry(i, |j, v| {
                col_idx.push(j);
                values.push(v);
            });
            row_ptr.push(col_idx.len());
        }
        Csr {
            rows,
            cols: self.n(),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Chunked row iterator: yields `(row range, CSR block)` pairs covering
    /// `range` in ascending order, at most `chunk_rows` rows per block
    /// (0 = the whole range as a single block). Each block is generated
    /// lazily when the iterator reaches it, so a consumer that processes
    /// and drops blocks holds O(chunk) matrix state instead of the full
    /// local block — the companion knob to the runtime's tile budget
    /// (DESIGN.md §18).
    pub fn row_chunks(
        &self,
        range: std::ops::Range<usize>,
        chunk_rows: usize,
    ) -> impl Iterator<Item = (std::ops::Range<usize>, Csr)> + '_ {
        let chunk = if chunk_rows == 0 {
            range.len().max(1)
        } else {
            chunk_rows
        };
        let (start, end) = (range.start, range.end);
        (0..range.len().div_ceil(chunk)).map(move |k| {
            let lo = start + k * chunk;
            let hi = (lo + chunk).min(end);
            (lo..hi, self.csr_block(lo..hi))
        })
    }

    /// Right-hand side making `x = 1⃗` the exact solution (`b = A·1⃗`),
    /// the standard HPCG validation trick.
    pub fn rhs_for_ones(&self, i: usize) -> f64 {
        let mut sum = 0.0;
        self.for_each_entry(i, |_, v| sum += v);
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interior_rows_have_27_entries() {
        let s = Stencil27::cube(5);
        let mid = s.idx(2, 2, 2);
        assert_eq!(s.row_entries(mid).len(), 27);
        // corner has 8 entries (itself + 7 neighbours)
        assert_eq!(s.row_entries(s.idx(0, 0, 0)).len(), 8);
    }

    #[test]
    fn idx_coords_roundtrip() {
        let s = Stencil27 {
            gx: 3,
            gy: 4,
            gz: 5,
        };
        for i in 0..s.n() {
            let (x, y, z) = s.coords(i);
            assert_eq!(s.idx(x, y, z), i);
        }
    }

    #[test]
    fn matrix_is_symmetric() {
        let s = Stencil27::cube(4);
        let a = s.csr_block(0..s.n());
        // check A[i][j] == A[j][i] by scanning
        for i in 0..s.n() {
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                let (jc, jv) = a.row(j);
                let pos = jc.binary_search(&i).expect("symmetric pattern");
                assert_eq!(jv[pos], v);
            }
        }
    }

    #[test]
    fn matrix_is_diagonally_dominant_spd_style() {
        // Weakly diagonally dominant everywhere (interior rows have 26
        // off-diagonal −1s against the 26 diagonal), strictly dominant at
        // the boundary — which is what makes the operator SPD.
        let s = Stencil27::chimney(3);
        let a = s.csr_block(0..s.n());
        let mut strict = 0usize;
        for i in 0..s.n() {
            let (cols, vals) = a.row(i);
            let mut diag = 0.0;
            let mut off = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                if c == i {
                    diag = v;
                } else {
                    off += v.abs();
                }
            }
            assert!(diag >= off, "row {i}: {diag} vs {off}");
            if diag > off {
                strict += 1;
            }
        }
        assert!(strict > 0, "boundary rows must be strictly dominant");
    }

    #[test]
    fn rhs_for_ones_is_row_sum() {
        let s = Stencil27::cube(3);
        let a = s.csr_block(0..s.n());
        let ones = vec![1.0; s.n()];
        let mut b = vec![0.0; s.n()];
        a.spmv(&ones, &mut b);
        for (i, &bi) in b.iter().enumerate() {
            assert_eq!(bi, s.rhs_for_ones(i));
        }
    }

    #[test]
    fn block_rows_match_full_matrix() {
        let s = Stencil27::cube(4);
        let full = s.csr_block(0..s.n());
        let block = s.csr_block(10..20);
        for (local, global) in (10..20).enumerate() {
            assert_eq!(block.row(local), full.row(global));
        }
    }

    #[test]
    fn row_chunks_cover_the_range_exactly() {
        let s = Stencil27::chimney(3);
        let full = s.csr_block(5..50);
        // Chunked generation concatenates to the monolithic block, for a
        // chunk that divides the range, one that leaves a short tail, and
        // the 0 = "one block" convention.
        for chunk in [1, 7, 9, 45, 1000, 0] {
            let mut next = 5usize;
            for (rg, blk) in s.row_chunks(5..50, chunk) {
                assert_eq!(rg.start, next, "chunk={chunk}");
                assert_eq!(blk.rows, rg.len());
                for (li, gi) in rg.clone().enumerate() {
                    assert_eq!(blk.row(li), full.row(gi - 5), "chunk={chunk}");
                }
                next = rg.end;
            }
            assert_eq!(next, 50, "chunk={chunk}");
        }
        assert_eq!(s.row_chunks(7..7, 4).count(), 0, "empty range, no chunks");
    }
}
