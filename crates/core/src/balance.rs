//! Trace-guided adaptive repartitioning (DESIGN.md §14): the load window,
//! the decision function and the migration.
//!
//! At each global phase boundary the clock barrier's free loads allgather
//! ([`crate::dissem::LoadBlock`]) leaves every node holding the identical
//! per-node load vector (compute + service picoseconds), which
//! [`Balancer::fold_window`] accumulates over the hysteresis window.
//! [`rebalance_bounds`] turns that window plus an array's current partition
//! bounds into new bounds — or `None` to leave the layout alone — and
//! [`maybe_rebalance`] swaps the moved stretches.
//!
//! The decision is exact integer arithmetic on replicated inputs, so
//! every node computes the same answer with no agreement round, and the
//! answer cannot depend on the fault seed or on host or message
//! timing. That is the whole determinism story of the balancer: decide
//! from replicated counters, migrate synchronously at the boundary.
//!
//! ## The model behind the cut
//!
//! Treat the observed load of node `n` as uniformly spread over the
//! elements of its *current* span (a piecewise-constant density). The new
//! cut `x_k` is the smallest index where the cumulative density reaches
//! `k/nodes` of the total — i.e. the exact equal-load partition under the
//! observed densities. Within segment `n` (span `s_n = cur[n+1]-cur[n]`,
//! load `l_n`, prefix load `P_n`), the cut solves
//!
//! ```text
//! P_n·nodes·s_n + l_n·(x−cur[n])·nodes ≥ k·total·s_n
//! ```
//!
//! with a ceiling division — all in `u128`, so nothing rounds and nothing
//! overflows (loads ≤ 2⁶⁴, spans ≤ 2⁶⁴ are never multiplied together more
//! than twice with a small node count).

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::bitset::NodeSet;
use crate::cost;
use crate::dist::Dist;
use crate::exec::exchange;
use crate::msgs::{self, MigrateMsg};
use crate::nodectx::NodeCtx;
use crate::state::Values;

/// One node's balancer state ([`crate::state::Inner::balancer`]).
#[derive(Default)]
pub(crate) struct Balancer {
    /// Ids of global arrays opted into adaptive repartitioning
    /// (`NodeCtx::alloc_global_balanced`). Allocation order, hence
    /// identical on every node.
    balanced: Vec<u32>,
    /// Per-node load (compute + service picoseconds) accumulated since the
    /// last decision, indexed by node id; sized on first use.
    load_acc: Vec<u64>,
    /// Global phases folded into `load_acc` since the last decision — the
    /// hysteresis window.
    load_window: u64,
}

impl Balancer {
    /// Opt array `id` in.
    pub fn opt_in(&mut self, id: u32) {
        self.balanced.push(id);
    }

    /// Fold one barrier's complete `(rank, load)` vector into the window.
    /// Every node folds the identical vector at the identical boundary, so
    /// the window stays replicated without ever being exchanged itself. A
    /// lone node folds its own load: the window's counters are uniform
    /// across node counts (rebalancing one node is a no-op anyway).
    pub fn fold_window(&mut self, nodes: usize, loads: impl Iterator<Item = (usize, u64)>) {
        if self.load_acc.len() != nodes {
            self.load_acc = vec![0; nodes];
        }
        for (rank, load) in loads {
            let slot = &mut self.load_acc[rank];
            *slot = slot.saturating_add(load);
        }
        self.load_window += 1;
    }
}

/// Global phases that must accumulate into the load window before the
/// balancer evaluates it (and then resets it). Keeps one noisy phase from
/// thrashing the layout.
pub(crate) const MIN_WINDOW: u64 = 4;

/// Hysteresis gate: rebalance only when `max/mean > 9/8` — i.e. the most
/// loaded node is more than 12.5% above the average. Integer form:
/// `max·nodes·8 > total·9`.
pub(crate) fn imbalanced(loads: &[u64]) -> bool {
    let total: u128 = loads.iter().map(|&l| l as u128).sum();
    let max = loads.iter().copied().max().unwrap_or(0) as u128;
    max * loads.len() as u128 * 8 > total * 9
}

/// Compute new partition bounds for an array currently cut at `cur`
/// (`nodes+1` monotone entries from 0 to len, every span non-empty) from
/// the replicated per-node load vector. Returns `None` when the layout
/// should not change: fewer than two nodes, too few elements to give every
/// node one, zero or balanced load, a degenerate current layout, or a cut
/// that lands exactly where it already is.
///
/// The result is always a valid partition (monotone, 0..len) that gives
/// every node at least one element — so a `ppm_do`'s fixed VP count per
/// node always has work to index, and `owner()` stays total.
pub(crate) fn rebalance_bounds(cur: &[usize], loads: &[u64]) -> Option<Vec<usize>> {
    let nodes = cur.len().checked_sub(1)?;
    let len = cur[nodes];
    if nodes < 2 || loads.len() != nodes || len < nodes {
        return None;
    }
    // A balanced array starts on block bounds and this function preserves
    // ≥1 element per node, so empty spans mean someone rebound the layout
    // behind our back — refuse rather than divide by a zero span.
    if (0..nodes).any(|n| cur[n + 1] <= cur[n]) {
        return None;
    }
    if !imbalanced(loads) {
        return None;
    }
    let total: u128 = loads.iter().map(|&l| l as u128).sum();
    if total == 0 {
        return None;
    }
    let nn = nodes as u128;
    let mut prefix = vec![0u128; nodes + 1];
    for n in 0..nodes {
        prefix[n + 1] = prefix[n] + loads[n] as u128;
    }
    let mut out = vec![0usize; nodes + 1];
    out[nodes] = len;
    for k in 1..nodes {
        // Scaled target: cut where cumulative·nodes first reaches k·total.
        let target = k as u128 * total;
        let mut n = 0;
        while n < nodes && prefix[n + 1] * nn < target {
            n += 1;
        }
        debug_assert!(n < nodes, "target beyond total load");
        // The loop invariant gives prefix[n]·nodes < target ≤
        // prefix[n+1]·nodes, so segment n carries load (l_n > 0).
        let span = (cur[n + 1] - cur[n]) as u128;
        let l_n = loads[n] as u128;
        let num = target * span - prefix[n] * span * nn;
        let den = l_n * nn;
        let step = num.div_ceil(den);
        let x = cur[n] + usize::try_from(step).expect("cut step exceeds span");
        // Clamp to one element per node on both sides. `len ≥ nodes`
        // guarantees lo ≤ hi by induction on out[k-1]'s own clamp.
        let lo = out[k - 1] + 1;
        let hi = len - (nodes - k);
        out[k] = x.clamp(lo, hi);
    }
    if out == cur {
        None
    } else {
        Some(out)
    }
}

/// The rebalance step of a global phase end (`phase`'s writes applied,
/// recovery line not yet advanced — so crash recovery always restores
/// post-migration partitions).
///
/// Decide from the replicated load window, recut the balanced arrays'
/// weighted bounds with [`rebalance_bounds`], then swap the moved
/// stretches: one [`K_MIGRATE`] bundle to each peer that takes elements
/// over, all collected before any partition rebinds.
///
/// Determinism: every input to the decision (load window, bounds, array
/// ids) is replicated, so all nodes compute the same plan with no
/// agreement round; the migrated stretches are disjoint by construction
/// (old spans are disjoint, new spans are disjoint), so rebind order
/// cannot matter — sources are still applied in ascending node order. No
/// phase-`phase+1` read request can arrive mid-migration: a peer issues
/// those only after its clock barrier completes, which transitively
/// requires this node's first barrier send — and that happens after this
/// step returns.
///
/// [`K_MIGRATE`]: msgs::K_MIGRATE
pub(crate) fn maybe_rebalance(nc: &mut NodeCtx<'_>, phase: u64) {
    let me = nc.node_id();
    let nodes = nc.num_nodes();
    let cfg = nc.config();
    if !cfg.adaptive_balance || nodes < 2 {
        return;
    }
    // Decide: a pure function of the replicated window. `(id, old, new)`
    // per balanced array whose cut moves.
    let plan: Vec<(u32, Dist, Dist)> = {
        let inner = &mut nc.inner;
        let b = &mut inner.balancer;
        if b.balanced.is_empty() || b.load_window < MIN_WINDOW {
            return;
        }
        let recut = |&id: &u32| {
            let old = inner.garrays[id as usize].dist().clone();
            let new = rebalance_bounds(&old.bounds(), &b.load_acc)?;
            let new = Dist::weighted(old.len, old.nodes, Arc::new(new));
            Some((id, old, new))
        };
        let plan = b.balanced.iter().filter_map(recut).collect();
        // The window was consumed by a decision (either way): restart it so
        // the next evaluation sees only post-decision phases.
        b.load_acc.iter_mut().for_each(|l| *l = 0);
        b.load_window = 0;
        plan
    };
    if plan.is_empty() {
        return;
    }

    // The plan is a pure function of the replicated load window, so both
    // sides of every transfer evaluate the same overlap predicate — no
    // notice round needed (DESIGN.md §17): `src` sends `dst` a bundle iff
    // some stretch `src` owned lands in `dst`'s new partition.
    let moves = |src: usize, dst: usize| {
        plan.iter().filter_map(move |(id, old, new)| {
            let (from, to) = (old.owned_range(src), new.owned_range(dst));
            let (lo, hi) = (from.start.max(to.start), from.end.min(to.end));
            (lo < hi).then_some((*id, lo..hi))
        })
    };
    let peers = || (0..nodes).filter(|&n| n != me);
    let expected: NodeSet = peers()
        .filter(|&src| moves(src, me).next().is_some())
        .collect();

    // Ship: one bundle per peer with every stretch leaving this node for it.
    let mut moved_out = 0u64;
    let mut bytes_out_total = 0u64;
    let mut shipping: Vec<(usize, usize, MigrateMsg)> = Vec::new();
    {
        let inner = &mut nc.inner;
        for dest in peers() {
            let mut parts: MigrateMsg = Vec::new();
            let mut bytes = cost::BUNDLE_HEADER_BYTES;
            for (id, stretch) in moves(me, dest) {
                moved_out += stretch.len() as u64;
                let (payload, b) = inner.garrays[id as usize].migrate_extract(stretch.clone());
                bytes += b as usize;
                parts.push((id, stretch.start, payload));
            }
            if parts.is_empty() {
                continue;
            }
            bytes_out_total += bytes as u64;
            inner.traffic.migr_bundles_out += 1;
            inner.traffic.migr_bytes_out += bytes as u64;
            shipping.push((dest, bytes, parts));
        }
    }
    let incoming = exchange(nc, msgs::K_MIGRATE, phase, shipping, &expected);

    // Rebind: install the new layouts, retained overlap plus arrived
    // stretches, per balanced array.
    type ArrivedParts = Vec<(usize, Values)>;
    let mut by_array: BTreeMap<u32, ArrivedParts> = BTreeMap::new();
    let inner = &mut nc.inner;
    for (_src, bytes, bundle) in incoming {
        inner.traffic.migr_bundles_in += 1;
        inner.traffic.migr_bytes_in += bytes;
        for (id, start, payload) in bundle {
            by_array.entry(id).or_default().push((start, payload));
        }
    }
    let mut moved_in = 0u64;
    for (id, _old, new) in &plan {
        let parts = by_array.remove(id).unwrap_or_default();
        moved_in += inner.garrays[*id as usize].migrate_rebind(me, new.clone(), parts);
        // The repartitioned stretch starts fully cold: residency is keyed
        // by local offsets, which the rebind just remapped (DESIGN.md §18).
        inner.tile_budget.rebind(*id, new.local_len(me));
    }
    debug_assert!(
        by_array.is_empty(),
        "migration payload for an unplanned array"
    );
    let planned: Vec<u32> = plan.iter().map(|p| p.0).collect();
    inner.coherence.forget_arrays(&planned);
    // Installing arrived elements is owner-side work, charged like write
    // application.
    inner.service_time += cost::SERVICE_OVERHEAD.scale(moved_in);
    let args = [
        ("phase", phase),
        ("arrays", plan.len() as u64),
        ("moved_elems_out", moved_out),
        ("moved_elems_in", moved_in),
        ("moved_bytes", bytes_out_total),
        ("moved_vps", inner.live_vps as u64),
    ];
    nc.trace("rebalance", "runtime", nc.now(), None, &args);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_loads_leave_layout_alone() {
        assert_eq!(rebalance_bounds(&[0, 50, 100], &[100, 100]), None);
        // 9/8 hysteresis: 110 vs 90 is max/mean = 1.1 < 1.125.
        assert_eq!(rebalance_bounds(&[0, 50, 100], &[110, 90]), None);
        assert!(!imbalanced(&[110, 90]));
        assert!(imbalanced(&[130, 70]));
    }

    #[test]
    fn skewed_loads_shift_the_cut_toward_the_loaded_node() {
        // Node 0 carries 3× node 1's load: its span shrinks.
        let nb = rebalance_bounds(&[0, 50, 100], &[300, 100]).expect("imbalanced");
        // Exact: density 6/elem then 2/elem; cut at cumulative 200 → 34
        // (ceil of 200/6).
        assert_eq!(nb, vec![0, 34, 100]);
    }

    #[test]
    fn result_is_a_valid_partition_with_min_one_element() {
        for loads in [
            vec![1_000_000u64, 1, 1, 1],
            vec![1, 1_000_000, 1, 1],
            vec![7, 900, 3, 90],
            vec![u64::MAX / 4, 1, u64::MAX / 4, 1],
        ] {
            for len in [4usize, 5, 17, 1000] {
                let cur = crate::dist::Dist::block(len, 4).bounds();
                if let Some(nb) = rebalance_bounds(&cur, &loads) {
                    assert_eq!(nb.len(), 5);
                    assert_eq!(nb[0], 0);
                    assert_eq!(nb[4], len);
                    for k in 0..4 {
                        assert!(nb[k] < nb[k + 1], "empty span: {nb:?} loads={loads:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn degenerate_inputs_refuse() {
        // Too few elements for one per node.
        assert_eq!(rebalance_bounds(&[0, 1, 1, 2], &[9, 0, 1]), None);
        // Single node.
        assert_eq!(rebalance_bounds(&[0, 10], &[5]), None);
        // Zero total load.
        assert_eq!(rebalance_bounds(&[0, 5, 10], &[0, 0]), None);
        // Load vector of the wrong arity.
        assert_eq!(rebalance_bounds(&[0, 5, 10], &[1, 2, 3]), None);
        // Zero-length array.
        assert_eq!(rebalance_bounds(&[0, 0, 0], &[5, 1]), None);
    }

    #[test]
    fn clamped_cut_equal_to_current_returns_none() {
        // Two elements, two nodes: the one-element-per-node clamp pins the
        // only legal cut at 1, which is where it already is — the balancer
        // must signal "no change" rather than a zero-element migration.
        assert!(imbalanced(&[1000, 1]));
        assert_eq!(rebalance_bounds(&[0, 1, 2], &[1000, 1]), None);
    }

    #[test]
    fn cut_lands_at_the_exact_equal_load_point() {
        // Density 10/elem then 1/elem over [0,80,100): total 820, target
        // 410 → 41 elements of segment 0.
        assert_eq!(
            rebalance_bounds(&[0, 80, 100], &[800, 20]),
            Some(vec![0, 41, 100])
        );
    }
}
