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
    /// and [`rhs_for_ones`](Self::rhs_for_ones); [`columns`](Self::columns)
    /// walks the same planes and lines.
    #[inline]
    pub fn for_each_entry(&self, i: usize, mut f: impl FnMut(usize, f64)) {
        let (x, y, z) = self.coords(i);
        // Each axis' neighbours clamped to the grid once: z picks the
        // planes, y the lines, x the span of each line.
        let xs = near(x, self.gx);
        for nz in near(z, self.gz) {
            for ny in near(y, self.gy) {
                let line = self.idx(0, ny, nz);
                let span = line + xs.start..line + xs.end;
                if (ny, nz) == (y, z) {
                    // The row's own line, split at the diagonal `i`: no
                    // entry pays a compare.
                    (span.start..i).for_each(|j| f(j, -1.0));
                    f(i, 26.0);
                    (i + 1..span.end).for_each(|j| f(j, -1.0));
                } else {
                    span.for_each(|j| f(j, -1.0));
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
    /// per-row vectors — so peak memory is the block itself. No solver
    /// builds one (they walk [`columns`](Self::columns) and
    /// [`for_each_entry`](Self::for_each_entry)); it is the explicit
    /// matrix tests check those against.
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

    /// The column indices of rows `range`, row by row in the order
    /// [`for_each_entry`](Self::for_each_entry) visits them — exactly
    /// `csr_block(range).col_idx`, generated lazily. Its `size_hint` is
    /// exact, so a consumer can size its output once.
    pub fn columns(&self, range: std::ops::Range<usize>) -> Columns {
        // No row started: empty spans, one empty plane, so `size_hint`
        // is `rows_nnz` alone and the first `next` starts a row.
        Columns {
            grid: *self,
            line: 0..0,
            xs: 0..0,
            ys: 0..0,
            y: 0,
            z: 0,
            z_end: 1,
            at: self.coords(range.start),
            rows_nnz: self.nnz_before(range.end) - self.nnz_before(range.start),
            rows: range,
        }
    }

    /// Entries in rows `0..i`, `i ≤ n`: a row's count is the product of
    /// its three clamped neighbour spans, so whole planes and lines sum
    /// per axis. (`coords(n)` is `(0, 0, gz)`: every plane, nothing more.)
    fn nnz_before(&self, i: usize) -> usize {
        // Summed neighbour spans of coordinates `0..c` on an axis of
        // `extent`: 3 each, less one at either clamped end.
        let spans = |c: usize, extent: usize| match c {
            0 => 0,
            c => 3 * c - 1 - usize::from(c == extent),
        };
        let (x, y, z) = self.coords(i);
        let (per_line, per_plane) = (spans(self.gx, self.gx), spans(self.gy, self.gy));
        let (cy, cz) = (near(y, self.gy).len(), near(z, self.gz).len());
        spans(z, self.gz) * per_plane * per_line
            + cz * (spans(y, self.gy) * per_line + cy * spans(x, self.gx))
    }

    /// Right-hand side making `x = 1⃗` the exact solution (`b = A·1⃗`),
    /// the standard HPCG validation trick.
    pub fn rhs_for_ones(&self, i: usize) -> f64 {
        let mut sum = 0.0;
        self.for_each_entry(i, |_, v| sum += v);
        sum
    }
}

/// Coordinate `c`'s stencil neighbours on an axis of `extent`, clamped to
/// the grid.
#[inline]
fn near(c: usize, extent: usize) -> std::ops::Range<usize> {
    c.saturating_sub(1)..(c + 2).min(extent)
}

/// Iterator returned by [`Stencil27::columns`]: one row's planes, each
/// plane's lines, each line's span of columns, then the next row.
#[derive(Debug, Clone)]
pub struct Columns {
    grid: Stencil27,
    /// The rest of the current line.
    line: std::ops::Range<usize>,
    /// The current row's x span (within a line) and y lines.
    xs: std::ops::Range<usize>,
    ys: std::ops::Range<usize>,
    /// The next line `y` of plane `z`; the row's planes run to `z_end`.
    y: usize,
    z: usize,
    z_end: usize,
    /// Rows not yet started, the coordinates of the first, and their
    /// entry count.
    rows: std::ops::Range<usize>,
    at: (usize, usize, usize),
    rows_nnz: usize,
}

impl Columns {
    /// Start the next line of the row — or the next plane, or the next
    /// row; `None` past the last row. Kept out of `next`, whose inlined
    /// fast path is then one range step: a single loop that also counted
    /// down per element ran the `cg_halo` benchmark ~5 % slower.
    fn next_line(&mut self) -> Option<()> {
        if self.y == self.ys.end {
            if self.z + 1 < self.z_end {
                self.z += 1;
            } else {
                self.next_row()?;
            }
            self.y = self.ys.start;
        }
        let start = self.grid.idx(0, self.y, self.z);
        self.line = start + self.xs.start..start + self.xs.end;
        self.y += 1;
        Some(())
    }

    fn next_row(&mut self) -> Option<()> {
        self.rows.next()?;
        let (g, (x, y, z)) = (self.grid, self.at);
        self.xs = near(x, g.gx);
        self.ys = near(y, g.gy);
        let zs = near(z, g.gz);
        (self.z, self.z_end) = (zs.start, zs.end);
        self.rows_nnz -= self.xs.len() * self.ys.len() * zs.len();
        self.at = if x + 1 < g.gx {
            (x + 1, y, z)
        } else if y + 1 < g.gy {
            (0, y + 1, z)
        } else {
            (0, 0, z + 1)
        };
        Some(())
    }
}

impl Iterator for Columns {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.line.is_empty() {
            self.next_line()?;
        }
        self.line.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // The rest of this line, of this plane, of this row's planes, and
        // the rows not yet started.
        let (per_line, lines) = (self.xs.len(), self.ys.len());
        let row_rest =
            (self.ys.end - self.y) * per_line + (self.z_end - self.z - 1) * lines * per_line;
        let left = self.line.len() + row_rest + self.rows_nnz;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Columns {}

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

    /// Degenerate grids (a single point, line and plane), a box and a
    /// chimney.
    fn grids() -> [Stencil27; 5] {
        let box_of = |gx, gy, gz| Stencil27 { gx, gy, gz };
        [
            box_of(1, 1, 1),
            box_of(1, 1, 7),
            box_of(2, 3, 1),
            box_of(3, 2, 4),
            Stencil27::chimney(3),
        ]
    }

    #[test]
    fn entries_are_the_27_point_neighbourhood() {
        // By definition, against every column: a neighbour differs by at
        // most one in each coordinate; ascending columns, 26 on the diagonal.
        for s in grids() {
            for i in 0..s.n() {
                let (x, y, z) = s.coords(i);
                let want: Vec<(usize, f64)> = (0..s.n())
                    .filter(|&j| {
                        let (a, b, c) = s.coords(j);
                        a.abs_diff(x) <= 1 && b.abs_diff(y) <= 1 && c.abs_diff(z) <= 1
                    })
                    .map(|j| (j, if j == i { 26.0 } else { -1.0 }))
                    .collect();
                assert_eq!(s.row_entries(i), want, "{s:?} row {i}");
            }
        }
    }

    #[test]
    fn columns_cover_the_range_exactly() {
        // Every range: empty ones and ones that start or end mid-line and
        // mid-plane included.
        for s in grids() {
            for lo in 0..=s.n() {
                for hi in lo..=s.n() {
                    let cols: Vec<usize> = s.columns(lo..hi).collect();
                    assert_eq!(cols, s.csr_block(lo..hi).col_idx, "{s:?} rows {lo}..{hi}");
                }
            }
        }
    }

    #[test]
    fn columns_size_hint_is_exact_after_every_next() {
        for s in grids() {
            for (lo, hi) in [(0, s.n()), (s.n() / 3, s.n() - s.n() / 4), (s.n(), s.n())] {
                let mut it = s.columns(lo..hi);
                let mut left = s.csr_block(lo..hi).nnz();
                loop {
                    assert_eq!(it.size_hint(), (left, Some(left)), "{s:?} rows {lo}..{hi}");
                    if it.next().is_none() {
                        break;
                    }
                    left -= 1;
                }
                assert_eq!(left, 0, "{s:?} rows {lo}..{hi}");
                assert_eq!(it.next(), None);
            }
        }
    }
}
