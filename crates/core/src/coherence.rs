//! Read-cache coherence (DESIGN.md §13): everything that keeps a remote
//! value cached across phases *right*, and cheap to keep right.
//!
//! Two mechanisms, both riding the clock barrier's messages:
//!
//! - **Invalidation.** Each node's "arrays I wrote this phase" bits are
//!   OR-flooded; after the last round every node drops its cached lines of
//!   every array that changed anywhere.
//! - **Refresh pushes.** An owner remembers who asked for what
//!   ([`Coherence::note_serves`]); an element served twice within
//!   `SERVE_TTL` phases *arms*, and a rewrite of an armed element pushes the
//!   post-apply value to its readers, source-routed along the dissemination
//!   edges ([`Edge::carries`]) so every target receives each entry exactly
//!   once and nothing is pending after the last round.
//!
//! **Accounting, stated once.** The barrier message is sent either way, so a
//! refresh payload is *not* a message and *not* a bundle: only its bytes hit
//! the wire (`bytes_sent` / `bytes_recv`, `Message::bytes`, and
//! `Traffic::refresh_bytes_*`, which the *next* phase's gap term charges).
//! `Traffic::refresh_bundles_out` counts barrier sends that carried a
//! payload, for the tracer's phase summary only. Invalidation bits are free.
//!
//! [`CoherencePart`] is one node's side of a barrier's worth of this, in the
//! `new` / `take_for(edge)` / `absorb` / `finish` form of
//! [`crate::dissem::Notices`] — no transport, no clock — so the routing is
//! tested for all nodes in lockstep without a thread.

use std::any::Any;
use std::collections::BTreeMap;

use crate::bitset::NodeSet;
use crate::dissem::{route_offset, Edge};
use crate::msgs::ReqEntry;
use crate::state::{GArrayObj, Inner};

/// Serve-history TTL, in global phases: an element whose last peer serve is
/// older than this is forgotten (and disarmed), bounding push waste for
/// read-once access patterns. Owner pushes do not extend the TTL — only
/// actual serves do — so a long-armed element re-earns its pushes every
/// `SERVE_TTL` phases.
const SERVE_TTL: u64 = 8;

/// Serve history of one owned element. An element *arms* on its second
/// serve within the TTL window: one serve is as likely read-once as
/// read-again, two serves within a few phases is a reuse pattern worth
/// pushing for.
struct ServeHist {
    /// `phase.global_seq` of the most recent serve (TTL pruning).
    last_serve: u64,
    /// Nodes that have requested this element.
    readers: NodeSet,
    /// Whether rewrites of this element trigger an owner push.
    armed: bool,
}

/// One node's coherence state ([`Inner::coherence`]).
#[derive(Default)]
pub(crate) struct Coherence {
    /// The read cache is on and there is a peer to be coherent with.
    on: bool,
    /// Serve history per owned `(array, global idx)`. A `BTreeMap` so arming
    /// and pruning iterate in deterministic order.
    serve_hist: BTreeMap<(u32, u64), ServeHist>,
    /// Peer reads served since the last global phase end, as `(requesting
    /// node, array, global idx)` in arrival order — a real-time accident,
    /// so [`Self::fold_serves`] sorts first.
    deferred_serves: Vec<(usize, u32, u64)>,
    /// Refresh entries awaiting dissemination, each with its remaining
    /// destination mask; drained round by round by [`CoherencePart`].
    pending_refresh: Vec<RefreshPart>,
}

impl Coherence {
    pub fn new(read_cache: bool, nodes: usize) -> Self {
        Coherence {
            on: read_cache && nodes > 1,
            ..Coherence::default()
        }
    }

    /// Remember that `src` was served `entries`.
    pub fn note_serves(&mut self, src: usize, entries: &[ReqEntry]) {
        if self.on {
            let served = entries.iter().map(|e| (src, e.array, e.idx));
            self.deferred_serves.extend(served);
        }
    }

    /// Fold global phase `phase`'s serves into the history and prune it. An
    /// element arms on its SECOND serve within `SERVE_TTL` phases — a
    /// one-serve wonder never earns pushes, and stale history (read-once
    /// apps) is pruned so the map stays bounded by the hot working set.
    /// Pushes do not extend `last_serve`: armed elements must re-earn their
    /// pushes every TTL window (one two-miss hiccup per cycle).
    pub fn fold_serves(&mut self, phase: u64) {
        let mut serves = std::mem::take(&mut self.deferred_serves);
        serves.sort_unstable();
        serves.dedup();
        for (peer, array, idx) in serves {
            let h = self.serve_hist.entry((array, idx)).or_insert(ServeHist {
                last_serve: phase,
                readers: NodeSet::new(),
                armed: false,
            });
            if phase > h.last_serve + SERVE_TTL {
                h.readers.clear();
                h.armed = false;
            }
            if h.readers.any() {
                h.armed = true;
            }
            h.readers.insert(peer);
            h.last_serve = phase;
        }
        self.serve_hist
            .retain(|_, h| phase <= h.last_serve + SERVE_TTL);
    }

    /// Queue post-apply values of `array` (`ga`, on node `me` of `nodes`)
    /// for its armed elements among `written` (ascending), refreshing peer
    /// caches without a request/response wave next phase.
    pub fn select_refresh(
        &mut self,
        (me, nodes): (usize, usize),
        array: u32,
        written: Vec<u64>,
        ga: &dyn GArrayObj,
    ) {
        if !self.on {
            return;
        }
        let mut idxs: Vec<u64> = Vec::new();
        let mut masks: Vec<NodeSet> = Vec::new();
        // `written` ascends and so does the array's stretch of the history:
        // one walk over both (none if nothing was served).
        let mut written = written.into_iter().peekable();
        for (&(_, idx), h) in self.serve_hist.range((array, 0)..=(array, u64::MAX)) {
            while written.next_if(|&w| w < idx).is_some() {}
            if written.next_if_eq(&idx).is_none() {
                continue;
            }
            // Hop cutoff: a refresh pays its bytes once per dissemination
            // hop, and reader `t` sits popcount((t - me) mod nodes) hops
            // away on the barrier's source routes. Beyond two hops the
            // pushed copies cost more wire than the fetch round-trip they
            // save, so distant readers keep fetching. Pure function of node
            // ids — identical on every host schedule.
            let targets: NodeSet = h
                .readers
                .iter()
                .filter(|&t| t != me && route_offset(me, t, nodes).count_ones() <= 2)
                .collect();
            if h.armed && targets.any() {
                idxs.push(idx);
                masks.push(targets);
            }
        }
        if !idxs.is_empty() {
            let values = ga.refresh_collect(&idxs);
            self.pending_refresh.push(RefreshPart {
                array,
                idxs,
                masks,
                values,
            });
        }
    }

    /// Ownership of `arrays` moved (a rebalance): drop their history, which
    /// keys owner-side elements — pushes re-arm from fresh serves under the
    /// new layout. Remote-read caches are kept: migration moves ownership,
    /// not values, and the owner check shadows any entry this node now owns.
    pub fn forget_arrays(&mut self, arrays: &[u32]) {
        self.serve_hist.retain(|&(a, _), _| !arrays.contains(&a));
    }

    /// This node's side of the barrier closing the phase whose writes
    /// `garrays` still buffer: one growable bit per array id that took any.
    pub fn barrier_part(
        &self,
        me: usize,
        nodes: usize,
        garrays: &[Box<dyn GArrayObj>],
    ) -> CoherencePart {
        let wrote =
            (garrays.iter().enumerate()).filter(|(_, ga)| self.on && ga.has_pending_writes());
        CoherencePart {
            me,
            nodes,
            me_set: NodeSet::single(me),
            inv: wrote.map(|(id, _)| id).collect(),
            collected: Vec::new(),
        }
    }
}

/// One array's worth of owner-pushed cache refreshes. Values are
/// post-exchange truth for the phase the barrier closes; `masks` carries
/// each entry's remaining destination set (bit = node id).
pub(crate) struct RefreshPart {
    array: u32,
    /// Element indices, ascending (they come from `apply_writes`' written
    /// list), parallel to `values`.
    idxs: Vec<u64>,
    /// Remaining destination-node sets per entry, parallel to `idxs`.
    masks: Vec<NodeSet>,
    /// `Vec<T>` for the array's element type, parallel to `idxs`. `Sync` as
    /// well as `Send` because undelivered parts park in [`Inner`] between
    /// rounds.
    values: Box<dyn Any + Send + Sync>,
}

impl RefreshPart {
    /// Split by destination: the entries with a target in `set`, their
    /// masks cut down to it — with the modeled bytes of their values — and
    /// the entries with a target outside it, their masks with `set` taken
    /// out. An entry with targets on both sides goes both ways; a side with
    /// no entry is `None`. `ga` is the part's array (the values are
    /// type-erased).
    fn split(
        self,
        set: &NodeSet,
        ga: &dyn GArrayObj,
    ) -> (Option<(RefreshPart, u64)>, Option<RefreshPart>) {
        // One side: the entries whose mask `cut` leaves a target in.
        let side = |cut: fn(&NodeSet, &NodeSet) -> NodeSet| {
            let mut take = Vec::with_capacity(self.masks.len());
            let (idxs, masks): (Vec<u64>, Vec<NodeSet>) = (self.idxs.iter().zip(&self.masks))
                .filter_map(|(&idx, mask)| {
                    let mask = cut(mask, set);
                    take.push(mask.any());
                    mask.any().then_some((idx, mask))
                })
                .unzip();
            if idxs.is_empty() {
                return None;
            }
            let (values, value_bytes) = ga.refresh_select(self.values.as_ref(), &take);
            let part = RefreshPart {
                array: self.array,
                idxs,
                masks,
                values,
            };
            Some((part, value_bytes))
        };
        let inside = side(NodeSet::intersection);
        let outside = side(NodeSet::difference);
        (inside, outside.map(|(part, _)| part))
    }

    /// Modeled wire bytes of a part whose values take `value_bytes`. A
    /// refresh entry is (idx, value): no slot ticket (nobody is waiting on
    /// it), the array id is amortized into an 8-byte part header, and the
    /// ascending indices delta-varint encode — charged at 4 bytes per
    /// index, versus 12 for a random-access request entry.
    fn wire_bytes(&self, value_bytes: u64) -> u64 {
        8 + value_bytes + self.idxs.len() as u64 * 4
    }
}

/// What coherence puts on one barrier message.
pub(crate) struct CoherenceMsg {
    /// Every written-array bit the sender has heard of.
    inv_bits: NodeSet,
    /// The refresh entries whose route takes this edge.
    refreshes: Vec<RefreshPart>,
}

/// One node's side of one clock barrier's coherence traffic.
pub(crate) struct CoherencePart {
    me: usize,
    nodes: usize,
    me_set: NodeSet,
    /// Written-array bits heard so far, seeded with this node's own.
    inv: NodeSet,
    /// Refresh entries addressed to this node, absorbed only after the
    /// invalidation sweep (the pushed values are post-exchange truth and
    /// must survive it).
    collected: Vec<RefreshPart>,
}

impl CoherencePart {
    /// What rides `edge`, and its wire bytes (for `Message::bytes`): the
    /// pending entries with a target the edge carries travel now, the rest
    /// stay for a later round.
    pub fn take_for(&mut self, edge: Edge, inner: &mut Inner) -> (CoherenceMsg, u64) {
        let mut refreshes: Vec<RefreshPart> = Vec::new();
        let mut wire_bytes = 0u64;
        let pending = std::mem::take(&mut inner.coherence.pending_refresh);
        if !pending.is_empty() {
            let rides: NodeSet = pending
                .iter()
                .flat_map(|part| part.masks.iter().flat_map(NodeSet::iter))
                .filter(|&t| edge.carries(self.me, t, self.nodes))
                .collect();
            for part in pending {
                let ga = &*inner.frozen.garrays[part.array as usize];
                let (now, later) = part.split(&rides, ga);
                if let Some((part, value_bytes)) = now {
                    wire_bytes += part.wire_bytes(value_bytes);
                    refreshes.push(part);
                }
                inner.coherence.pending_refresh.extend(later);
            }
            if wire_bytes > 0 {
                inner.counters.bytes_sent += wire_bytes;
                inner.traffic.refresh_bytes_out += wire_bytes;
                inner.traffic.refresh_bundles_out += 1;
            }
        }
        let msg = CoherenceMsg {
            inv_bits: self.inv.clone(),
            refreshes,
        };
        (msg, wire_bytes)
    }

    /// Take in what arrived (`wire_bytes` = its `Message::bytes`): entries
    /// addressed to this node wait for [`Self::finish`], the other targets'
    /// copies travel on in a later round.
    pub fn absorb(&mut self, msg: CoherenceMsg, wire_bytes: u64, inner: &mut Inner) {
        self.inv.union_with(&msg.inv_bits);
        if wire_bytes > 0 {
            inner.counters.bytes_recv += wire_bytes;
            inner.traffic.refresh_bytes_in += wire_bytes;
        }
        for part in msg.refreshes {
            let ga = &*inner.frozen.garrays[part.array as usize];
            let (mine, onward) = part.split(&self.me_set, ga);
            self.collected.extend(mine.map(|(part, _)| part));
            inner.coherence.pending_refresh.extend(onward);
        }
    }

    /// After the last round: invalidate, THEN absorb — the pushed values
    /// are already post-exchange truth for the bits being invalidated.
    pub fn finish(self, inner: &mut Inner) {
        if !inner.coherence.on {
            return;
        }
        debug_assert!(
            inner.coherence.pending_refresh.is_empty(),
            "refresh entries survived the final dissemination round"
        );
        let garrays = &mut inner.thaw().garrays;
        for (id, ga) in garrays.iter_mut().enumerate() {
            if self.inv.contains(id) {
                ga.cache_clear();
            }
        }
        for part in self.collected {
            garrays[part.array as usize].refresh_absorb(&part.idxs, part.values.as_ref());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PpmConfig;
    use crate::dissem::dissemination;
    use crate::dist::Dist;
    use crate::state::{garray_ref, GArray};
    use crate::testkit::Gen;

    fn set(bits: &[usize]) -> NodeSet {
        bits.iter().copied().collect()
    }

    fn values(p: &RefreshPart) -> Vec<u64> {
        p.values.downcast_ref::<Vec<u64>>().unwrap().clone()
    }

    /// Entries go to the side(s) their targets lie on, masks cut to match;
    /// a side nothing lands on is `None`.
    #[test]
    fn refresh_part_splits_by_target_set() {
        let ga: GArray<u64> = GArray::new(Dist::block(16, 4), 0);
        let part = || RefreshPart {
            array: 7,
            idxs: vec![1, 2, 3],
            masks: vec![set(&[1]), set(&[1, 2, 70]), set(&[3])],
            values: Box::new(vec![10u64, 20, 30]),
        };

        let (inside, outside) = part().split(&set(&[1, 2]), &ga);
        let (inside, bytes) = inside.expect("two entries target the set");
        assert_eq!((inside.array, &inside.idxs[..]), (7, &[1, 2][..]));
        assert!(inside.masks == [set(&[1]), set(&[1, 2])]);
        assert_eq!((values(&inside), bytes), (vec![10, 20], 8 + 2 * 8));
        assert_eq!(inside.wire_bytes(bytes), 8 + (8 + 2 * 8) + 2 * 4);
        let outside = outside.expect("two entries target nodes outside it");
        assert_eq!(outside.idxs, [2, 3]);
        assert!(outside.masks == [set(&[70]), set(&[3])]);
        assert_eq!(values(&outside), [20, 30]);

        let (inside, outside) = part().split(&set(&[0]), &ga);
        assert!(inside.is_none());
        assert_eq!(outside.expect("everything").idxs, [1, 2, 3]);
        let (inside, outside) = part().split(&set(&[1, 2, 3, 70]), &ga);
        assert_eq!(inside.expect("everything").0.idxs, [1, 2, 3]);
        assert!(outside.is_none());
    }

    /// Elements per node of the one test array; node `o` owns
    /// `[o * PER, (o + 1) * PER)` and pushes value `idx + 1000`.
    const PER: usize = 4;

    /// All nodes of one barrier stepped together over their dissemination
    /// edges, no thread: every owner pushes each of its elements to a random
    /// target mask, every node floods random written-array bits. Array 0 is
    /// always among them, so the final sweep clears a stale line planted in
    /// every cache before the pushed values land.
    #[test]
    fn lockstep_refreshes_reach_each_target_once_and_bits_flood() {
        let mut g = Gen::new(0x20);
        for nodes in [1usize, 2, 3, 5, 8, 13, 64, 100] {
            let cfg = PpmConfig::franklin(nodes as u32);
            let mut inners: Vec<Inner> = (0..nodes).map(|_| Inner::new(cfg)).collect();
            let mut parts: Vec<CoherencePart> = Vec::new();
            let mut all_bits = NodeSet::new();
            // targets[idx] = who must end up caching element `idx`.
            let mut targets: Vec<NodeSet> = Vec::new();
            let stale = (nodes * PER) as u64;
            for (me, inner) in inners.iter_mut().enumerate() {
                let mut ga = GArray::<u64>::new(Dist::block(nodes * PER + 1, nodes), me);
                ga.refresh_absorb(&[stale], &vec![7u64]);
                inner.thaw().garrays.push(Box::new(ga));
                let idxs: Vec<u64> = (me * PER..(me + 1) * PER).map(|i| i as u64).collect();
                let masks: Vec<NodeSet> = idxs
                    .iter()
                    .map(|_| (0..nodes).filter(|&t| t != me && g.bool()).collect())
                    .collect();
                targets.extend(masks.iter().cloned());
                let armed: Vec<bool> = masks.iter().map(NodeSet::any).collect();
                if armed.contains(&true) {
                    let keep = |v: Vec<u64>| {
                        v.into_iter()
                            .zip(&armed)
                            .filter_map(|(x, &a)| a.then_some(x))
                    };
                    inner.coherence.pending_refresh.push(RefreshPart {
                        array: 0,
                        values: Box::new(
                            keep(idxs.clone()).map(|i| i + 1000).collect::<Vec<u64>>(),
                        ),
                        idxs: keep(idxs).collect(),
                        masks: masks.into_iter().filter(NodeSet::any).collect(),
                    });
                }
                let inv: NodeSet = [0, g.usize_in(1..200)].into_iter().collect();
                all_bits.union_with(&inv);
                parts.push(CoherencePart {
                    me,
                    nodes,
                    me_set: NodeSet::single(me),
                    inv,
                    collected: Vec::new(),
                });
            }

            // hops[idx * nodes + target]: messages that carried the entry
            // on behalf of that target.
            let mut hops = vec![0u32; nodes * PER * nodes];
            for round in 0..dissemination(0, nodes).count() {
                let edge = |me: usize| dissemination(me, nodes).nth(round).unwrap();
                let mut sent: Vec<Option<(CoherenceMsg, u64)>> = (parts.iter_mut().enumerate())
                    .map(|(me, p)| Some(p.take_for(edge(me), &mut inners[me])))
                    .collect();
                for (me, p) in parts.iter_mut().enumerate() {
                    let (msg, bytes) = sent[edge(me).from].take().expect("one receiver per edge");
                    let carried: u64 = (msg.refreshes.iter())
                        .map(|r| r.wire_bytes(8 + 8 * r.idxs.len() as u64))
                        .sum();
                    assert_eq!(bytes, carried, "{nodes} nodes: Message::bytes");
                    for (&idx, mask) in msg
                        .refreshes
                        .iter()
                        .flat_map(|r| r.idxs.iter().zip(&r.masks))
                    {
                        mask.iter()
                            .for_each(|t| hops[idx as usize * nodes + t] += 1);
                    }
                    p.absorb(msg, bytes, &mut inners[me]);
                }
            }

            let sum = |f: fn(&Inner) -> u64| inners.iter().map(f).sum::<u64>();
            assert_eq!(
                sum(|i| i.counters.bytes_sent),
                sum(|i| i.counters.bytes_recv),
                "{nodes} nodes: bytes sent != bytes received"
            );
            assert_eq!(
                sum(|i| i.traffic.refresh_bytes_out),
                sum(|i| i.traffic.refresh_bytes_in)
            );
            for (idx, mask) in targets.iter().enumerate() {
                for t in 0..nodes {
                    let want = if mask.contains(t) {
                        route_offset(idx / PER, t, nodes).count_ones()
                    } else {
                        0
                    };
                    assert_eq!(hops[idx * nodes + t], want, "{nodes} nodes: {idx} → {t}");
                }
            }
            for (me, (part, mut inner)) in parts.into_iter().zip(inners).enumerate() {
                assert!(inner.coherence.pending_refresh.is_empty(), "{nodes} nodes");
                assert!(
                    part.inv == all_bits || nodes == 1,
                    "{nodes} nodes: node {me}'s bits"
                );
                let mut got: Vec<u64> =
                    part.collected.iter().flat_map(|p| p.idxs.clone()).collect();
                got.sort_unstable();
                let want: Vec<u64> = (0..targets.len())
                    .filter(|&i| targets[i].contains(me))
                    .map(|i| i as u64)
                    .collect();
                assert_eq!(
                    got, want,
                    "{nodes} nodes: node {me} received each entry once"
                );
                part.finish(&mut inner);
                let ga = garray_ref::<u64>(&inner.frozen, 0);
                for idx in 0..(nodes * PER) as u64 {
                    let cached = targets[idx as usize].contains(me).then_some(idx + 1000);
                    assert_eq!(ga.cache_get(idx), cached, "{nodes} nodes: node {me}, {idx}");
                }
                let survived = (nodes == 1).then_some(7);
                assert_eq!(ga.cache_get(stale), survived, "invalidate, THEN absorb");
            }
        }
    }
}
