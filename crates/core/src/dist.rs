//! Data distribution of global shared arrays over nodes.
//!
//! The paper's runtime performs "automatic data distribution and locality
//! management" (§3). The default (and the one all apps start from) is a
//! block distribution; a cyclic distribution is provided for load-spreading
//! irregular tables; a weighted distribution (contiguous spans with explicit
//! prefix-summed boundaries) carries the layouts computed by the adaptive
//! repartitioner in [`crate::balance`].
//!
//! # Partition invariant
//!
//! Every distribution is a *total partition* of `0..len`:
//!
//! * each global index `i < len` has exactly one owner node and one dense
//!   local offset (`global_index(owner(i), local_offset(i)) == i`);
//! * node-local ranges never overlap and together cover `0..len` with no
//!   gaps;
//! * when `len < nodes` (or a weighted span is empty), the surplus nodes own
//!   **empty** ranges — by construction the empty ranges of a contiguous
//!   layout sit at positions where `owned_range(n)` is an empty
//!   `start..start` range, and `local_len(n) == 0` reports them explicitly.
//!   For `Layout::Block` the empties are always the *trailing* nodes.
//! * `owner(i)` requires `i < len`; a zero-length array has no valid index
//!   and therefore no owner queries (all other per-node queries remain
//!   total and report empty ranges).
//!
//! Tests below pin each clause, including the `len == 0` and `len < nodes`
//! edge cases.

use std::sync::Arc;

/// How a global array's elements map to owner nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Layout {
    /// Contiguous blocks of `ceil(len/nodes)` elements per node.
    Block,
    /// Element `i` lives on node `i % nodes`.
    Cyclic,
    /// Contiguous spans with explicit prefix-summed boundaries: node `n`
    /// owns `bounds[n]..bounds[n + 1]`. The bounds vector has `nodes + 1`
    /// monotone non-decreasing entries with `bounds[0] == 0` and
    /// `bounds[nodes] == len`; equal adjacent entries give that node an
    /// empty span. Shared via `Arc` so cloning a distribution (handles are
    /// cloned on every ownership query path) never copies the vector.
    Weighted(Arc<Vec<usize>>),
}

/// A concrete distribution: layout + array length + node count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dist {
    /// Distribution layout.
    pub layout: Layout,
    /// Global array length.
    pub len: usize,
    /// Number of owner nodes.
    pub nodes: usize,
}

impl Dist {
    /// Block distribution of `len` elements over `nodes` nodes.
    pub fn block(len: usize, nodes: usize) -> Self {
        assert!(nodes >= 1);
        Dist {
            layout: Layout::Block,
            len,
            nodes,
        }
    }

    /// Cyclic distribution of `len` elements over `nodes` nodes.
    pub fn cyclic(len: usize, nodes: usize) -> Self {
        assert!(nodes >= 1);
        Dist {
            layout: Layout::Cyclic,
            len,
            nodes,
        }
    }

    /// Weighted distribution from explicit prefix-summed boundaries.
    /// Validates the partition invariant: `nodes + 1` monotone entries from
    /// `0` to `len`.
    pub fn weighted(len: usize, nodes: usize, bounds: Arc<Vec<usize>>) -> Self {
        assert!(nodes >= 1);
        assert_eq!(
            bounds.len(),
            nodes + 1,
            "bounds must have nodes + 1 entries"
        );
        assert_eq!(bounds[0], 0, "bounds must start at 0");
        assert_eq!(bounds[nodes], len, "bounds must end at len");
        assert!(
            bounds.windows(2).all(|w| w[0] <= w[1]),
            "bounds must be monotone non-decreasing"
        );
        Dist {
            layout: Layout::Weighted(bounds),
            len,
            nodes,
        }
    }

    /// Weighted distribution apportioning `len` elements in proportion to
    /// per-node `weights`, by sequential greedy-ceiling shares: node `n`
    /// takes `min(remaining, ceil(len * w[n] / Σw))`. Pure integer math
    /// (u128 products), so the result is a deterministic function of the
    /// inputs. Under uniform weights this degenerates to exactly the
    /// [`Layout::Block`] boundaries (each node takes `ceil(len/nodes)`
    /// until the array runs out). An all-zero weight vector is treated as
    /// uniform.
    pub fn weighted_shares(len: usize, nodes: usize, weights: &[u64]) -> Self {
        assert!(nodes >= 1);
        assert_eq!(weights.len(), nodes, "one weight per node");
        let total: u128 = weights.iter().map(|&w| w as u128).sum();
        let mut bounds = Vec::with_capacity(nodes + 1);
        bounds.push(0usize);
        let mut start = 0usize;
        for &w in weights {
            let remaining = len - start;
            let share = if total == 0 {
                len.div_ceil(nodes)
            } else {
                // ceil(len * w / total) without overflow: len, share fit
                // usize; the product fits u128.
                let num = len as u128 * w as u128;
                num.div_ceil(total) as usize
            };
            start += share.min(remaining);
            bounds.push(start);
        }
        // Greedy ceiling always covers: Σ ceil(len * w_n / Σw) >= len.
        debug_assert_eq!(start, len, "greedy ceiling shares must cover the array");
        bounds[nodes] = len;
        Dist::weighted(len, nodes, Arc::new(bounds))
    }

    /// Whether each node's elements form one contiguous global range
    /// (true for `Block` and `Weighted`, false for `Cyclic`).
    #[inline]
    pub fn is_contiguous(&self) -> bool {
        !matches!(self.layout, Layout::Cyclic)
    }

    /// Elements per block for the block layout.
    #[inline]
    fn block_size(&self) -> usize {
        self.len.div_ceil(self.nodes).max(1)
    }

    /// Node owning global index `i`.
    #[inline]
    pub fn owner(&self, i: usize) -> usize {
        self.locate(i).0
    }

    /// Offset of global index `i` within its owner's local storage.
    #[inline]
    pub fn local_offset(&self, i: usize) -> usize {
        self.locate(i).1
    }

    /// `(owner, local offset)` of global index `i`, from one search: the two
    /// are always wanted together on the access path.
    #[inline]
    pub fn locate(&self, i: usize) -> (usize, usize) {
        debug_assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        match &self.layout {
            Layout::Block => {
                let bs = self.block_size();
                // `min` clamps the ceil-block tail: when `len < nodes` the
                // trailing nodes own empty ranges (see module invariant), so
                // no in-bounds index may map past the last node.
                let owner = (i / bs).min(self.nodes - 1);
                (owner, i - owner * bs)
            }
            Layout::Cyclic => (i % self.nodes, i / self.nodes),
            Layout::Weighted(b) => {
                // Number of boundary entries <= i, minus the leading 0
                // entry. Empty spans (equal adjacent bounds) are skipped by
                // `<=`: the owner is always the unique node with
                // bounds[n] <= i < bounds[n + 1].
                let owner = b.partition_point(|&x| x <= i) - 1;
                (owner, i - b[owner])
            }
        }
    }

    /// Number of elements stored on `node`.
    pub fn local_len(&self, node: usize) -> usize {
        debug_assert!(node < self.nodes);
        match &self.layout {
            Layout::Block => {
                let bs = self.block_size();
                // `node * bs` can exceed `usize::MAX` for near-`usize::MAX`
                // lengths on high nodes; saturating keeps the partition math
                // total (any saturated product is >= len, so the sub clamps
                // to 0 either way).
                self.len.saturating_sub(node.saturating_mul(bs)).min(bs)
            }
            Layout::Cyclic => {
                let full = self.len / self.nodes;
                full + usize::from(node < self.len % self.nodes)
            }
            Layout::Weighted(b) => b[node + 1] - b[node],
        }
    }

    /// Global index of local offset `off` on `node`.
    ///
    /// Panics (rather than wrapping) if the product/sum overflows `usize`:
    /// a wrapped index would silently alias another element.
    #[inline]
    pub fn global_index(&self, node: usize, off: usize) -> usize {
        debug_assert!(off < self.local_len(node));
        match &self.layout {
            Layout::Block => node
                .checked_mul(self.block_size())
                .and_then(|base| base.checked_add(off))
                .expect("global index overflows usize (block layout)"),
            Layout::Cyclic => off
                .checked_mul(self.nodes)
                .and_then(|base| base.checked_add(node))
                .expect("global index overflows usize (cyclic layout)"),
            Layout::Weighted(b) => b[node] + off,
        }
    }

    /// For the block layout: the contiguous global range owned by `node`.
    pub fn block_range(&self, node: usize) -> std::ops::Range<usize> {
        assert_eq!(self.layout, Layout::Block, "block_range needs Block layout");
        let bs = self.block_size();
        // Saturating products: `(node + 1) * bs` overflows for lengths near
        // `usize::MAX`; both bounds clamp to `len`, giving the correct
        // (possibly empty) tail range instead of a wrapped one.
        let start = node.saturating_mul(bs).min(self.len);
        let end = node.saturating_add(1).saturating_mul(bs).min(self.len);
        start..end
    }

    /// The contiguous global range owned by `node`, for any contiguous
    /// layout (`Block` or `Weighted`). Panics for `Cyclic`, whose per-node
    /// elements are strided, not a range.
    pub fn owned_range(&self, node: usize) -> std::ops::Range<usize> {
        match &self.layout {
            Layout::Block => self.block_range(node),
            Layout::Weighted(b) => b[node]..b[node + 1],
            Layout::Cyclic => panic!("owned_range needs a contiguous layout"),
        }
    }

    /// Tile-aware iteration over `node`'s owned range (any contiguous
    /// layout): successive subranges of at most `chunk_elems` elements,
    /// aligned to multiples of `chunk_elems` from the range start so the
    /// subranges coincide with the pseudo-streaming tiles of the local
    /// partition (tiles are keyed by local offset; for a contiguous layout
    /// local offset = global index − range start). With `chunk_elems == 0`
    /// the whole range comes back as one chunk — callers can pass a
    /// disabled chunking knob straight through. Pure index math, zero
    /// modeled cost.
    pub fn owned_chunks(
        &self,
        node: usize,
        chunk_elems: usize,
    ) -> impl Iterator<Item = std::ops::Range<usize>> {
        let range = self.owned_range(node);
        let chunk = if chunk_elems == 0 {
            range.len().max(1)
        } else {
            chunk_elems
        };
        let (start, end) = (range.start, range.end);
        (0..range.len().div_ceil(chunk))
            .map(move |k| (start + k * chunk)..(start + (k + 1) * chunk).min(end))
    }

    /// The prefix-summed per-node boundaries of a contiguous layout
    /// (`bounds[n]..bounds[n + 1]` is node `n`'s range). Panics for
    /// `Cyclic`.
    pub fn bounds(&self) -> Vec<usize> {
        match &self.layout {
            Layout::Block => (0..=self.nodes)
                .map(|n| n.saturating_mul(self.block_size()).min(self.len))
                .collect(),
            Layout::Weighted(b) => b.as_ref().clone(),
            Layout::Cyclic => panic!("bounds needs a contiguous layout"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every distribution must be a bijection between global indices and
    /// (node, offset) pairs, with offsets dense per node.
    fn check_bijection(d: Dist) {
        let mut per_node = vec![0usize; d.nodes];
        for i in 0..d.len {
            let n = d.owner(i);
            let off = d.local_offset(i);
            assert!(n < d.nodes);
            assert!(off < d.local_len(n), "i={i} n={n} off={off}");
            assert_eq!(d.global_index(n, off), i);
            per_node[n] += 1;
        }
        for (n, &c) in per_node.iter().enumerate() {
            assert_eq!(c, d.local_len(n), "node {n}");
        }
        assert_eq!(per_node.iter().sum::<usize>(), d.len);
    }

    /// `locate` is `(owner, local_offset)` from one search, for every
    /// layout — empty spans, `len < nodes` and `len == 0` included.
    #[test]
    fn locate_agrees_with_owner_and_local_offset() {
        let mut dists = Vec::new();
        for (len, nodes) in [(10, 3), (12, 4), (1, 5), (100, 7), (5, 8), (3, 8), (0, 2)] {
            dists.push(Dist::block(len, nodes));
            dists.push(Dist::cyclic(len, nodes));
        }
        for bounds in [
            vec![0usize, 3, 6, 9, 10],
            vec![0, 0, 5, 5, 10],
            vec![0, 10, 10, 10, 10],
            vec![0, 0, 0, 0, 3],
            vec![0, 0, 0, 0, 0],
        ] {
            let len = *bounds.last().unwrap();
            dists.push(Dist::weighted(len, bounds.len() - 1, Arc::new(bounds)));
        }
        for d in dists {
            for i in 0..d.len {
                let (n, off) = d.locate(i);
                assert_eq!((n, off), (d.owner(i), d.local_offset(i)), "{d:?} i={i}");
                // Against the layouts' definitions, not the wrappers.
                let expect = if d.is_contiguous() {
                    let n = (0..d.nodes).find(|&n| d.owned_range(n).contains(&i));
                    n.map(|n| (n, i - d.owned_range(n).start))
                } else {
                    Some((i % d.nodes, i / d.nodes))
                };
                assert_eq!(Some((n, off)), expect, "{d:?} i={i}");
            }
        }
    }

    #[test]
    fn block_bijection_various_shapes() {
        for (len, nodes) in [(10, 3), (12, 4), (1, 5), (100, 7), (5, 8), (0, 2)] {
            check_bijection(Dist::block(len, nodes));
        }
    }

    #[test]
    fn cyclic_bijection_various_shapes() {
        for (len, nodes) in [(10, 3), (12, 4), (1, 5), (100, 7), (5, 8), (0, 2)] {
            check_bijection(Dist::cyclic(len, nodes));
        }
    }

    #[test]
    fn weighted_bijection_various_shapes() {
        for bounds in [
            vec![0usize, 3, 6, 9, 10],
            vec![0, 0, 5, 5, 10],
            vec![0, 10, 10, 10, 10],
            vec![0, 1, 2, 3, 10],
            vec![0, 0, 0, 0, 0],
        ] {
            let nodes = bounds.len() - 1;
            let len = *bounds.last().unwrap();
            check_bijection(Dist::weighted(len, nodes, Arc::new(bounds)));
        }
    }

    #[test]
    fn block_ranges_partition() {
        let d = Dist::block(10, 4);
        assert_eq!(d.block_range(0), 0..3);
        assert_eq!(d.block_range(1), 3..6);
        assert_eq!(d.block_range(2), 6..9);
        assert_eq!(d.block_range(3), 9..10);
    }

    #[test]
    fn block_owner_is_monotone() {
        let d = Dist::block(17, 5);
        let owners: Vec<usize> = (0..17).map(|i| d.owner(i)).collect();
        for w in owners.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn cyclic_spreads_adjacent_indices() {
        let d = Dist::cyclic(8, 4);
        assert_eq!(d.owner(0), 0);
        assert_eq!(d.owner(1), 1);
        assert_eq!(d.owner(5), 1);
        assert_eq!(d.local_offset(5), 1);
    }

    /// Regression: partition math at near-`usize::MAX` lengths used to
    /// overflow in `block_range` (`(node + 1) * bs`) and `local_len`
    /// (`node * bs`). No storage is allocated — `Dist` is pure index math.
    #[test]
    fn block_partition_math_survives_huge_lengths() {
        let d = Dist::block(usize::MAX, 3);
        let bs = usize::MAX.div_ceil(3);
        assert_eq!(d.block_range(0), 0..bs);
        assert_eq!(d.block_range(1), bs..2 * bs);
        // Last block: `end` saturates/clamps to len instead of wrapping.
        assert_eq!(d.block_range(2), 2 * bs..usize::MAX);
        assert_eq!(d.local_len(2), usize::MAX - 2 * bs);
        assert_eq!(d.owner(usize::MAX - 1), 2);
        assert_eq!(d.local_offset(usize::MAX - 1), usize::MAX - 1 - 2 * bs);
        assert_eq!(d.global_index(2, usize::MAX - 1 - 2 * bs), usize::MAX - 1);
    }

    /// Regression: a huge single-node block distribution must report the
    /// whole range without overflow, and out-of-range nodes clamp empty.
    #[test]
    fn block_range_clamps_instead_of_wrapping() {
        let d = Dist::block(usize::MAX, 1);
        assert_eq!(d.block_range(0), 0..usize::MAX);
        assert_eq!(d.local_len(0), usize::MAX);
        // A node index beyond the data yields an empty tail, not a wrap.
        let d2 = Dist::block(10, 4);
        assert_eq!(d2.block_range(3), 9..10);
        assert!(d2.local_len(3) == 1);
    }

    /// Regression: cyclic index math at near-`usize::MAX` lengths stays
    /// exact at the top of the range (valid inputs never overflow; the
    /// checked arithmetic in `global_index` guards invalid release-mode
    /// inputs from wrapping into an aliased index).
    #[test]
    fn cyclic_partition_math_survives_huge_lengths() {
        let d = Dist::cyclic(usize::MAX, 4);
        let last = usize::MAX - 1;
        let n = d.owner(last);
        let off = d.local_offset(last);
        assert_eq!(n, last % 4);
        assert_eq!(off, last / 4);
        assert!(off < d.local_len(n));
        assert_eq!(d.global_index(n, off), last);
    }

    #[test]
    fn single_node_owns_everything() {
        let d = Dist::block(100, 1);
        for i in (0..100).step_by(13) {
            assert_eq!(d.owner(i), 0);
            assert_eq!(d.local_offset(i), i);
        }
        assert_eq!(d.local_len(0), 100);
    }

    /// The module-level partition invariant, stated and pinned: with
    /// `len < nodes` the *trailing* block nodes are explicitly empty
    /// (`local_len == 0`, empty `owned_range`), never aliased, and
    /// `owner()` still maps every in-bounds index to a node with a
    /// non-empty range.
    #[test]
    fn short_arrays_leave_trailing_block_nodes_empty() {
        let d = Dist::block(3, 8);
        for i in 0..3 {
            assert_eq!(d.owner(i), i, "block_size clamps to 1 when len < nodes");
            assert_eq!(d.local_offset(i), 0);
        }
        for n in 0..8 {
            let expect = usize::from(n < 3);
            assert_eq!(d.local_len(n), expect, "node {n}");
            assert_eq!(d.owned_range(n).len(), expect, "node {n}");
            if n >= 3 {
                assert!(
                    d.owned_range(n).is_empty(),
                    "trailing node {n} owns nothing"
                );
            }
        }
        check_bijection(d);
    }

    /// A zero-length array has no valid index; every per-node query still
    /// answers (empty) rather than panicking, for every layout.
    #[test]
    fn zero_length_arrays_are_fully_empty() {
        for d in [
            Dist::block(0, 4),
            Dist::cyclic(0, 4),
            Dist::weighted(0, 4, Arc::new(vec![0; 5])),
        ] {
            for n in 0..4 {
                assert_eq!(d.local_len(n), 0);
                if d.is_contiguous() {
                    assert!(d.owned_range(n).is_empty());
                }
            }
            check_bijection(d);
        }
    }

    /// `owned_range` and `bounds` agree between Block and the weighted
    /// layout constructed from Block's own boundaries.
    #[test]
    fn weighted_from_block_bounds_matches_block() {
        for (len, nodes) in [(10, 4), (17, 5), (3, 8), (0, 2), (100, 1)] {
            let b = Dist::block(len, nodes);
            let w = Dist::weighted(len, nodes, Arc::new(b.bounds()));
            for n in 0..nodes {
                assert_eq!(w.owned_range(n), b.block_range(n));
                assert_eq!(w.local_len(n), b.local_len(n));
            }
            for i in 0..len {
                assert_eq!(w.owner(i), b.owner(i));
                assert_eq!(w.local_offset(i), b.local_offset(i));
            }
        }
    }

    /// Uniform weights degenerate to exactly the Block boundaries.
    #[test]
    fn uniform_weighted_shares_degenerate_to_block() {
        for (len, nodes) in [(10, 4), (17, 5), (3, 8), (64, 4), (0, 3)] {
            let w = Dist::weighted_shares(len, nodes, &vec![7; nodes]);
            let z = Dist::weighted_shares(len, nodes, &vec![0; nodes]);
            let b = Dist::block(len, nodes);
            assert_eq!(w.bounds(), b.bounds(), "len={len} nodes={nodes}");
            assert_eq!(z.bounds(), b.bounds(), "all-zero weights act uniform");
        }
    }

    /// `owned_chunks` tiles the owned range exactly: chunks partition the
    /// range in order, each at most `chunk` long and aligned to multiples
    /// of `chunk` from the range start; 0 means "one chunk".
    #[test]
    fn owned_chunks_partition_the_owned_range() {
        let d = Dist::block(100, 4); // node 1 owns 25..50
        let chunks: Vec<_> = d.owned_chunks(1, 8).collect();
        assert_eq!(chunks, vec![25..33, 33..41, 41..49, 49..50]);
        assert_eq!(d.owned_chunks(1, 0).collect::<Vec<_>>(), vec![25..50]);
        assert_eq!(
            d.owned_chunks(1, 1000).collect::<Vec<_>>(),
            vec![25..50],
            "oversized chunk degenerates to the whole range"
        );
        // Empty ranges yield no chunks.
        let short = Dist::block(3, 8);
        assert_eq!(short.owned_chunks(7, 4).count(), 0);
    }

    #[test]
    fn weighted_shares_follow_weights() {
        let d = Dist::weighted_shares(100, 4, &[1, 1, 1, 97]);
        // Greedy ceiling: each of the light nodes takes ceil(100/100) = 1.
        assert_eq!(d.bounds(), vec![0, 1, 2, 3, 100]);
        check_bijection(d);
        // A zero-weight node between loaded ones gets an empty span.
        let d = Dist::weighted_shares(10, 3, &[1, 0, 1]);
        assert_eq!(d.local_len(1), 0);
        check_bijection(d);
    }
}
