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

use std::collections::HashMap;
use std::ops::Range;

use ppm_simnet::coll::{route_offset, Edge};

use crate::bitset::NodeSet;
use crate::cost::{REFRESH_INDEX_BYTES, REFRESH_PART_HEADER_BYTES};
#[cfg(feature = "byte-ledger")]
use crate::ledger::bytes;
use crate::ledger::{ledger, Held, SERVES};
use crate::msgs::ReqEntry;
use crate::state::{Arrays, GArrayObj, Inner, Values};

/// Serve-history TTL, in global phases: an element whose last peer serve is
/// older than this is forgotten (and disarmed), bounding push waste for
/// read-once access patterns. Owner pushes do not extend the TTL — only
/// actual serves do — so a long-armed element re-earns its pushes every
/// `SERVE_TTL` phases.
const SERVE_TTL: u64 = 8;

/// A run of consecutive owned elements that agree on their readers, last
/// serve and armed flag: a row of its array's serve history. An element
/// *arms* on its second serve within the TTL window: one serve is as likely
/// read-once as read-again, two serves within a few phases is a reuse
/// pattern worth pushing for. 24 B (a test pins it), so that a scattered
/// element read by one node costs no more than a row per (element, reader)
/// would.
#[derive(Clone, Copy, Debug, PartialEq)]
struct ServeRun {
    first: u64,
    /// `last_serve << 1 | armed`: `phase.global_seq` of the run's most
    /// recent serve (TTL pruning), and whether rewrites of its elements
    /// trigger an owner push.
    stamp: u64,
    len: u32,
    /// Its readers, as a position in [`ServeHist::sets`].
    set: u32,
}

impl ServeRun {
    fn end(&self) -> u64 {
        self.first + self.len as u64
    }

    fn armed(&self) -> bool {
        self.stamp & 1 == 1
    }

    fn live(&self, phase: u64) -> bool {
        phase <= (self.stamp >> 1) + SERVE_TTL
    }
}

/// One array's serve history: its runs, ascending and disjoint, two
/// adjacent ones told apart by readers or stamp; and the distinct reader
/// sets they name, each once — a halo plane served to two readers is one
/// run and one set, and scattered single elements share their sets.
#[derive(Default)]
struct ServeHist {
    runs: Vec<ServeRun>,
    sets: Vec<NodeSet>,
}

impl ServeHist {
    /// Append elements `lo..hi`, past every run held, with `readers` and
    /// `stamp`; the last run grows if they continue it alike. `ids` finds a
    /// set already in [`Self::sets`].
    fn push(
        &mut self,
        ids: &mut HashMap<NodeSet, u32>,
        (lo, hi): (u64, u64),
        readers: &NodeSet,
        stamp: u64,
    ) {
        let set = match ids.get(readers) {
            Some(&set) => set,
            None => {
                self.sets.push(readers.clone());
                ids.insert(readers.clone(), self.sets.len() as u32 - 1);
                self.sets.len() as u32 - 1
            }
        };
        // Only an array of four billion elements owned by one node trips it.
        let len = |first| u32::try_from(hi - first).expect("serve run overflow");
        let last = self.runs.last_mut();
        match last.filter(|r| (r.end(), r.set, r.stamp) == (lo, set, stamp)) {
            Some(last) => last.len = len(last.first),
            None => self.runs.push(ServeRun {
                first: lo,
                stamp,
                len: len(lo),
                set,
            }),
        }
    }
}
/// One node's coherence state ([`Inner::coherence`]).
#[derive(Default)]
pub(crate) struct Coherence {
    /// The read cache is on and there is a peer to be coherent with.
    on: bool,
    /// Serve history by array id. Run-length, so folding a phase's serves
    /// in is a merge of intervals, the readers of a rewritten range are one
    /// set, and a halo costs a row however many elements it has.
    serve_hist: Vec<ServeHist>,
    /// Peer reads served since the last global phase end, as `(array, first
    /// global idx, run length, requesting node)` per run of consecutive
    /// indices, in arrival order — a real-time accident, so
    /// [`Self::fold_serves`] sorts first.
    deferred_serves: Vec<(u32, u64, u64, u32)>,
    /// Refresh entries awaiting dissemination, each run of them with its
    /// remaining destination set; drained round by round by
    /// [`CoherencePart`].
    pending_refresh: Vec<RefreshPart>,
    hist_held: Held<SERVES>,
    deferred_held: Held<SERVES>,
}

impl Coherence {
    pub fn new(read_cache: bool, nodes: usize) -> Self {
        Coherence {
            on: read_cache && nodes > 1,
            ..Coherence::default()
        }
    }

    /// Remember that `src` was served `entries`, one record per run of
    /// consecutive indices (`build_dest` sorts a bundle by `(array, idx)`
    /// and dedups it, so a halo is one run).
    pub fn note_serves(&mut self, src: usize, entries: &[ReqEntry]) {
        if self.on {
            let runs = entries.chunk_by(|a, b| (b.array, b.idx) == (a.array, a.idx + 1));
            let served = runs.map(|run| (run[0].array, run[0].idx, run.len() as u64, src as u32));
            self.deferred_serves.extend(served);
            ledger!(self.deferred_held, bytes(&self.deferred_serves));
        }
    }

    /// Fold global phase `phase`'s serves into the history and prune it: one
    /// sort of the serves, one merge per array they name. An element arms on
    /// its SECOND serve within `SERVE_TTL` phases — a one-serve wonder never
    /// earns pushes, and stale history (read-once apps) is pruned so the
    /// runs stay bounded by the hot working set. Pushes do not extend
    /// `last_serve`: armed elements must re-earn their pushes every TTL
    /// window (one two-miss hiccup per cycle).
    pub fn fold_serves(&mut self, phase: u64) {
        let mut serves = std::mem::take(&mut self.deferred_serves);
        ledger!(self.deferred_held, 0);
        serves.sort_unstable();
        let arrays = serves.last().map_or(0, |last| last.0 as usize + 1);
        if self.serve_hist.len() < arrays {
            self.serve_hist.resize_with(arrays, ServeHist::default);
        }
        let mut by_array = serves.chunk_by(|a, b| a.0 == b.0).peekable();
        for (array, hist) in self.serve_hist.iter_mut().enumerate() {
            let Some(served) = by_array.next_if(|s| s[0].0 as usize == array) else {
                hist.runs.retain(|r| r.live(phase));
                continue;
            };
            *hist = fold_array(hist, served, phase);
        }
        ledger!(self.hist_held, {
            let sets = |h: &ServeHist| h.sets.iter().map(NodeSet::heap_bytes).sum::<usize>();
            let hist = |h: &ServeHist| bytes(&h.runs) + bytes(&h.sets) + sets(h);
            self.serve_hist.iter().map(hist).sum()
        });
    }

    /// Whether [`Self::select_refresh`] could pick anything of `array`, so
    /// that its written ranges are worth listing.
    pub fn has_history(&self, array: u32) -> bool {
        (self.serve_hist.get(array as usize)).is_some_and(|h| !h.runs.is_empty())
    }

    /// Queue post-apply values of `array` (`ga`, on node `me` of `nodes`)
    /// for its armed elements among the `written` ranges (ascending, apart),
    /// refreshing peer caches without a request/response wave next phase.
    pub fn select_refresh(
        &mut self,
        (me, nodes): (usize, usize),
        array: u32,
        written: &[Range<u64>],
        ga: &dyn GArrayObj,
    ) {
        let Some(hist) = self.serve_hist.get(array as usize) else {
            return;
        };
        // Hop cutoff: a refresh pays its bytes once per dissemination hop,
        // and reader `t` sits popcount((t - me) mod nodes) hops away on the
        // barrier's source routes. Beyond two hops the pushed copies cost
        // more wire than the fetch round-trip they save, so distant readers
        // keep fetching. Pure function of node ids — identical on every
        // host schedule.
        let near = |&t: &usize| t != me && route_offset(me, t, nodes).count_ones() <= 2;
        // Each reader set's targets, once.
        let targets: Vec<NodeSet> = (hist.sets.iter())
            .map(|readers| readers.iter().filter(near).collect())
            .collect();
        let mut idxs: Vec<u64> = Vec::new();
        let mut runs: Vec<(usize, NodeSet)> = Vec::new();
        // `written` ascends and so do the runs: one walk over both.
        let mut written = written.iter().peekable();
        for run in hist.runs.iter().filter(|r| r.armed()) {
            let to = &targets[run.set as usize];
            if to.is_empty() {
                continue;
            }
            while written.next_if(|w| w.end <= run.first).is_some() {}
            for w in written.clone().take_while(|w| w.start < run.end()) {
                if runs.last().is_none_or(|last| last.1 != *to) {
                    runs.push((idxs.len(), to.clone()));
                }
                idxs.extend(w.start.max(run.first)..w.end.min(run.end()));
            }
        }
        if !idxs.is_empty() {
            let (values, _) = ga.serve(&idxs);
            self.pending_refresh.push(RefreshPart {
                array,
                idxs,
                runs,
                values,
            });
        }
    }

    /// Ownership of `arrays` moved (a rebalance): drop their history, which
    /// keys owner-side elements — pushes re-arm from fresh serves under the
    /// new layout. Remote-read caches are kept: migration moves ownership,
    /// not values, and the owner check shadows any entry this node now owns.
    pub fn forget_arrays(&mut self, arrays: &[u32]) {
        for &array in arrays {
            if let Some(hist) = self.serve_hist.get_mut(array as usize) {
                *hist = ServeHist::default();
            }
        }
    }

    /// This node's side of the barrier closing the phase whose writes
    /// `garrays` still buffer: one growable bit per array id that took any.
    pub fn barrier_part(&self, me: usize, nodes: usize, garrays: &Arrays) -> CoherencePart {
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

/// One array's history `hist` with phase `phase`'s `served` runs of it
/// (sorted) folded in, less the runs that have died. Each stretch between
/// two places where a run or a serve starts or ends is one element's
/// decision, made once: a live run's readers carry over and the stretch
/// arms (served before, or to two readers at once: the second serve); a
/// dead one is forgotten. Not kept double-buffered: at paper size the
/// history is a few runs per halo.
fn fold_array(hist: &ServeHist, served: &[(u32, u64, u64, u32)], phase: u64) -> ServeHist {
    let mut cuts: Vec<u64> = (served.iter()).flat_map(|s| [s.1, s.1 + s.2]).collect();
    cuts.extend(hist.runs.iter().flat_map(|r| [r.first, r.end()]));
    cuts.sort_unstable();
    cuts.dedup();
    let mut ends: Vec<(u64, u32)> = served.iter().map(|s| (s.1 + s.2, s.3)).collect();
    ends.sort_unstable();
    let (mut starts, mut ends) = (served.iter().peekable(), ends.iter().peekable());
    let mut runs = hist.runs.iter().peekable();
    // The readers of the serves covering the stretch, ascending, with one
    // entry per serve (a reader's runs from two bundles may overlap).
    let mut serving: Vec<u32> = Vec::new();
    let (mut out, mut ids) = (ServeHist::default(), HashMap::new());
    for stretch in cuts.windows(2) {
        let lo = stretch[0];
        while let Some(&(_, src)) = ends.next_if(|e| e.0 <= lo) {
            serving.remove(serving.partition_point(|&r| r < src));
        }
        while let Some(&(_, _, _, src)) = starts.next_if(|s| s.1 <= lo) {
            serving.insert(serving.partition_point(|&r| r < src), src);
        }
        while runs.next_if(|r| r.end() <= lo).is_some() {}
        let had = runs.peek().filter(|r| r.first <= lo && r.live(phase));
        let lo_hi = (lo, stretch[1]);
        if serving.is_empty() {
            if let Some(h) = had {
                out.push(&mut ids, lo_hi, &hist.sets[h.set as usize], h.stamp);
            }
            continue;
        }
        let mut readers: NodeSet = serving.iter().map(|&r| r as usize).collect();
        let armed = had.is_some() || readers.count() > 1;
        if let Some(h) = had {
            readers.union_with(&hist.sets[h.set as usize]);
        }
        out.push(&mut ids, lo_hi, &readers, phase << 1 | armed as u64);
    }
    out
}

/// One array's worth of owner-pushed cache refreshes. Values are
/// post-exchange truth for the phase the barrier closes.
pub(crate) struct RefreshPart {
    array: u32,
    /// Element indices, ascending (they come from `apply_writes`' written
    /// ranges), parallel to `values`.
    idxs: Vec<u64>,
    /// The remaining destination-node set (bit = node id) of each run of
    /// consecutive entries, with the run's first position: a run ends where
    /// the next begins. One set per run, not per entry — a halo is one run
    /// however many elements it has.
    runs: Vec<(usize, NodeSet)>,
    /// Of the array's element type, parallel to `idxs`.
    values: Values,
}

impl RefreshPart {
    /// Each run's entry positions and destination set.
    fn runs(&self) -> impl Iterator<Item = (Range<usize>, &NodeSet)> {
        let ends = self.runs.iter().skip(1).map(|run| run.0);
        (self.runs.iter().zip(ends.chain([self.idxs.len()])))
            .map(|((start, set), end)| (*start..end, set))
    }

    /// Split by destination: the entries with a target in `set`, their
    /// sets cut down to it — with the modeled bytes of their values — and
    /// the entries with a target outside it, their sets with `set` taken
    /// out. An entry with targets on both sides goes both ways; a side with
    /// no entry is `None`. `ga` is the part's array (the values are
    /// type-erased).
    fn split(
        self,
        set: &NodeSet,
        ga: &dyn GArrayObj,
    ) -> (Option<(RefreshPart, u64)>, Option<RefreshPart>) {
        // One side: the runs whose set `cut` leaves a target in.
        let side = |cut: fn(&NodeSet, &NodeSet) -> NodeSet| {
            let mut take: Vec<Range<usize>> = Vec::new();
            let mut runs: Vec<(usize, NodeSet)> = Vec::new();
            let mut idxs: Vec<u64> = Vec::new();
            for (range, set_before) in self.runs() {
                let cut_set = cut(set_before, set);
                if cut_set.is_empty() {
                    continue;
                }
                // Runs the cut has made alike are one run.
                if runs.last().is_none_or(|last| last.1 != cut_set) {
                    runs.push((idxs.len(), cut_set));
                }
                idxs.extend_from_slice(&self.idxs[range.clone()]);
                take.push(range);
            }
            if idxs.is_empty() {
                return None;
            }
            let (values, value_bytes) = ga
                .refresh_select(self.values.as_ref(), &take)
                .unwrap_or_else(|| mistyped(self.array));
            let part = RefreshPart {
                array: self.array,
                idxs,
                runs,
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
    /// it), the array id is amortized into the part header, and the
    /// ascending indices delta-varint encode — [`REFRESH_INDEX_BYTES`] per
    /// index, versus [`REQ_ENTRY_BYTES`](crate::cost::REQ_ENTRY_BYTES) for a
    /// random-access request entry.
    fn wire_bytes(&self, value_bytes: u64) -> u64 {
        REFRESH_PART_HEADER_BYTES + value_bytes + self.idxs.len() as u64 * REFRESH_INDEX_BYTES
    }
}

/// A refresh part's values are built by its array's own `serve` on the owner
/// and only ever handed back to the same array id, so this is
/// a corrupted part, not an input.
fn mistyped(array: u32) -> ! {
    panic!("refresh payload for global array {array} is not of the array's element type")
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
                .flat_map(|part| part.runs.iter().flat_map(|run| run.1.iter()))
                .filter(|&t| edge.carries(self.me, t, self.nodes))
                .collect();
            for part in pending {
                let ga = &*inner.garrays[part.array as usize];
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
            let ga = &*inner.garrays[part.array as usize];
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
        let garrays = &mut inner.garrays;
        for (id, ga) in garrays.iter_mut().enumerate() {
            if self.inv.contains(id) {
                ga.cache_clear();
            }
        }
        for part in self.collected {
            garrays[part.array as usize]
                .refresh_absorb(&part.idxs, part.values.as_ref())
                .unwrap_or_else(|| mistyped(part.array));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::SETS_BUILT;
    use crate::check::Space;
    use crate::config::PpmConfig;
    use crate::dist::Dist;
    use crate::state::{array_ref, GArray};
    use crate::testkit::Gen;
    use ppm_simnet::coll::dissemination;
    use std::collections::BTreeMap;

    fn set(bits: &[usize]) -> NodeSet {
        bits.iter().copied().collect()
    }

    fn values(p: &RefreshPart) -> Vec<u64> {
        p.values.downcast_ref::<Vec<u64>>().unwrap().clone()
    }

    /// A part's destination set entry by entry.
    fn masks(p: &RefreshPart) -> Vec<NodeSet> {
        p.runs()
            .flat_map(|(range, set)| range.map(move |_| set.clone()))
            .collect()
    }

    impl CoherenceMsg {
        /// `(array, element, destination set)` per refresh entry carried
        /// (what `exec`'s composed lockstep property looks at).
        pub(crate) fn entries(&self) -> impl Iterator<Item = (u32, u64, NodeSet)> + '_ {
            self.refreshes.iter().flat_map(|r| {
                r.idxs
                    .iter()
                    .zip(masks(r))
                    .map(|(&i, set)| (r.array, i, set))
            })
        }
    }

    /// Entries go to the side(s) their targets lie on, sets cut to match;
    /// a side nothing lands on is `None`; runs a cut makes alike merge.
    #[test]
    fn refresh_part_splits_by_target_set() {
        let ga: GArray<u64> = GArray::new(Dist::block(16, 4), 0);
        let part = || RefreshPart {
            array: 7,
            idxs: vec![1, 2, 3],
            runs: vec![(0, set(&[1])), (1, set(&[1, 2, 70])), (2, set(&[3]))],
            values: Box::new(vec![10u64, 20, 30]),
        };

        let (inside, outside) = part().split(&set(&[1, 2]), &ga);
        let (inside, bytes) = inside.expect("two entries target the set");
        assert_eq!((inside.array, &inside.idxs[..]), (7, &[1, 2][..]));
        assert!(masks(&inside) == [set(&[1]), set(&[1, 2])]);
        assert_eq!((values(&inside), bytes), (vec![10, 20], 8 + 2 * 8));
        assert_eq!(inside.wire_bytes(bytes), 8 + (8 + 2 * 8) + 2 * 4);
        let outside = outside.expect("two entries target nodes outside it");
        assert_eq!(outside.idxs, [2, 3]);
        assert!(masks(&outside) == [set(&[70]), set(&[3])]);
        assert_eq!(values(&outside), [20, 30]);

        let (inside, outside) = part().split(&set(&[0]), &ga);
        assert!(inside.is_none());
        assert_eq!(outside.expect("everything").idxs, [1, 2, 3]);
        let (inside, outside) = part().split(&set(&[1, 2, 3, 70]), &ga);
        assert_eq!(inside.expect("everything").0.idxs, [1, 2, 3]);
        assert!(outside.is_none());

        // Runs longer than one entry move as ranges.
        let long = RefreshPart {
            array: 7,
            idxs: vec![1, 2, 3, 4, 5, 6],
            runs: vec![(0, set(&[1, 2])), (2, set(&[4])), (3, set(&[1, 3]))],
            values: Box::new(vec![10u64, 20, 30, 40, 50, 60]),
        };
        let (inside, outside) = long.split(&set(&[1]), &ga);
        let (inside, bytes) = inside.expect("two runs target node 1");
        assert_eq!(inside.idxs, [1, 2, 4, 5, 6]);
        assert!(inside.runs == [(0, set(&[1]))], "alike after the cut");
        assert_eq!(
            (values(&inside), bytes),
            (vec![10, 20, 40, 50, 60], 8 + 5 * 8)
        );
        let outside = outside.expect("every run has a target besides node 1");
        assert_eq!(outside.idxs, [1, 2, 3, 4, 5, 6]);
        assert!(outside.runs == [(0, set(&[2])), (2, set(&[4])), (3, set(&[3]))]);
    }

    /// A refresh's destination sets are built per run per round, never per
    /// entry: a 10 000-entry halo walks a 64-node barrier on a few dozen.
    #[test]
    fn splitting_a_run_builds_sets_per_round_not_per_entry() {
        const ENTRIES: usize = 10_000;
        let (me, nodes) = (0usize, 64usize);
        let mut inner = Inner::new(PpmConfig::franklin(nodes as u32));
        let ga = GArray::<u64>::new(Dist::block(nodes * ENTRIES, nodes), me);
        inner.garrays.push(Box::new(ga));
        inner.coherence.pending_refresh.push(RefreshPart {
            array: 0,
            idxs: (0..ENTRIES as u64).collect(),
            runs: vec![(0, (1..nodes).collect())],
            values: Box::new(vec![1u64; ENTRIES]),
        });
        let mut part = inner.coherence.barrier_part(me, nodes, &Vec::new());
        let before = SETS_BUILT.get();
        let mut sent = 0;
        for edge in dissemination(me, nodes) {
            let (msg, _) = part.take_for(edge, &mut inner);
            sent += msg.refreshes.iter().map(|r| r.idxs.len()).sum::<usize>();
        }
        let built = SETS_BUILT.get() - before;
        assert_eq!(
            sent,
            6 * ENTRIES,
            "the whole run rides every edge out of its owner"
        );
        assert!(inner.coherence.pending_refresh.is_empty());
        assert!(built <= 6 * 4, "{built} sets built for 6 rounds of one run");
    }

    /// The serve history as it was kept before it went flat — a map entry and
    /// a reader set per element, folded serve by serve — as the reference.
    #[derive(Default)]
    struct ModelHist(BTreeMap<(u32, u64), (u64, NodeSet, bool)>);

    impl ModelHist {
        fn fold(&mut self, mut serves: Vec<(u32, u32, u64)>, phase: u64) {
            serves.sort_unstable();
            serves.dedup();
            for (peer, array, idx) in serves {
                let (last_serve, readers, armed) =
                    (self.0.entry((array, idx))).or_insert((phase, NodeSet::new(), false));
                if phase > *last_serve + SERVE_TTL {
                    readers.clear();
                    *armed = false;
                }
                if readers.any() {
                    *armed = true;
                }
                readers.insert(peer as usize);
                *last_serve = phase;
            }
            self.0.retain(|_, h| phase <= h.0 + SERVE_TTL);
        }
    }

    impl ModelHist {
        /// What [`Coherence::select_refresh`] queued, element by element:
        /// each armed element of `array` among the `written` ranges that
        /// has a target — a reader other than `me` at most two hops away —
        /// with a new run wherever the targets change.
        fn refresh(
            &self,
            (me, nodes): (usize, usize),
            array: u32,
            written: &[Range<u64>],
        ) -> (Vec<u64>, Vec<(usize, NodeSet)>) {
            let (mut idxs, mut runs): (Vec<u64>, Vec<(usize, NodeSet)>) = Default::default();
            for (&(a, idx), (_, readers, armed)) in &self.0 {
                let near = |&t: &usize| t != me && route_offset(me, t, nodes).count_ones() <= 2;
                let to: NodeSet = readers.iter().filter(near).collect();
                if a != array
                    || !armed
                    || to.is_empty()
                    || !written.iter().any(|w| w.contains(&idx))
                {
                    continue;
                }
                if runs.last().is_none_or(|last| last.1 != to) {
                    runs.push((idxs.len(), to));
                }
                idxs.push(idx);
            }
            (idxs, runs)
        }
    }

    /// The history element by element, checking the run form on the way:
    /// runs ascending and disjoint, none empty, two adjacent ones told apart
    /// by readers or stamp, every set named and none twice.
    fn by_element(coherence: &Coherence, what: &str) -> BTreeMap<(u32, u64), (u64, NodeSet, bool)> {
        let mut flat = BTreeMap::new();
        for (array, hist) in coherence.serve_hist.iter().enumerate() {
            assert_eq!(coherence.has_history(array as u32), !hist.runs.is_empty());
            for w in hist.runs.windows(2) {
                assert!(w[0].end() <= w[1].first, "{what}: runs out of order");
                let alike = (w[0].set, w[0].stamp) == (w[1].set, w[1].stamp);
                assert!(
                    w[0].end() < w[1].first || !alike,
                    "{what}: runs not maximal"
                );
            }
            let distinct: std::collections::HashSet<&NodeSet> = hist.sets.iter().collect();
            assert_eq!(distinct.len(), hist.sets.len(), "{what}: a set twice");
            for run in &hist.runs {
                assert!(run.len > 0, "{what}: an empty run");
                let readers = &hist.sets[run.set as usize];
                for idx in run.first..run.end() {
                    let h = (run.stamp >> 1, readers.clone(), run.armed());
                    flat.insert((array as u32, idx), h);
                }
            }
        }
        flat
    }

    /// A bundle as `build_dest` makes it: sorted by `(array, idx)`, distinct.
    fn bundle(mut entries: Vec<(u32, u64)>) -> Vec<ReqEntry> {
        entries.sort_unstable();
        entries.dedup();
        let entry = |(array, idx)| ReqEntry {
            array,
            idx,
            slot: 0,
        };
        entries.into_iter().map(entry).collect()
    }

    /// Random serve streams — bursts and silences longer than the TTL, peers
    /// past one set word, the same `(peer, element)` twice in a phase, a
    /// `forget_arrays` in the middle — leave the run-length history element
    /// for element what the map model holds: readers, armed, last serve.
    /// A third of the cases serve one element per bundle; the rest serve
    /// bundles of runs of consecutive indices, which several peers' runs
    /// overlap in part, or both. After each fold, the refresh the history
    /// selects for random written ranges is the model's, entry for entry
    /// and run for run.
    #[test]
    fn flat_serve_history_equals_the_map_model() {
        let mut g = Gen::new(0x21);
        // What the cases exercised: elements seen armed, unarmed, and dying;
        // runs longer than one element; refreshes queued.
        let (mut armed, mut unarmed, mut died, mut long, mut pushed) = (0, 0, 0, 0, 0);
        let (me, nodes) = (0, 200);
        for case in 0..60 {
            let mut coherence = Coherence::new(true, nodes);
            let mut model = ModelHist::default();
            let (arrays, elems) = (g.u32_in(1..4), g.u64_in(1..64));
            let ga = GArray::<u64>::new(Dist::block(elems as usize, 1), 0);
            let busiest = [3, 12, 40][case % 3];
            let shape = case / 3 % 3;
            let phases = g.u64_in(SERVE_TTL + 2..4 * SERVE_TTL);
            let forget_at = g.u64_in(0..phases);
            for phase in 0..phases {
                // Silences: every third phase or so serves nothing.
                let serves = if g.usize_in(0..3) == 0 {
                    0
                } else {
                    g.usize_in(0..busiest)
                };
                let mut served: Vec<(u32, u32, u64)> = Vec::new();
                for _ in 0..serves {
                    let peer = [1, 2, 3, 63, 64, 130, 199][g.usize_in(0..7)];
                    let mut entries = Vec::new();
                    for _ in 0..g.usize_in(1..4) {
                        let (array, first) = (g.u32_in(0..arrays), g.u64_in(0..elems));
                        let len = match shape == 0 || shape == 2 && g.bool() {
                            true => 1,
                            false => g.u64_in(1..elems - first + 1),
                        };
                        entries.extend((first..first + len).map(|idx| (array, idx)));
                    }
                    let entries = bundle(entries);
                    for _ in 0..g.usize_in(1..3) {
                        coherence.note_serves(peer, &entries);
                        served.extend(entries.iter().map(|e| (peer as u32, e.array, e.idx)));
                    }
                }
                let before = model.0.len();
                coherence.fold_serves(phase);
                model.fold(served, phase);
                died += before.saturating_sub(model.0.len());
                if phase == forget_at {
                    coherence.forget_arrays(&[0]);
                    model.0.retain(|&(array, _), _| array != 0);
                }
                let what = format!("case {case}, phase {phase}");
                let flat = by_element(&coherence, &what);
                assert!(flat == model.0, "{what}");
                armed += flat.values().filter(|h| h.2).count();
                unarmed += flat.values().filter(|h| !h.2).count();
                let runs = coherence.serve_hist.iter().flat_map(|h| &h.runs);
                long += runs.filter(|r| r.len > 1).count();

                let mut written: Vec<Range<u64>> = Vec::new();
                let mut at = 0;
                while at < elems {
                    let len = g.u64_in(1..elems - at + 1);
                    if g.bool() {
                        written.push(at..at + len);
                    }
                    at += len + g.u64_in(0..2);
                }
                coherence.select_refresh((me, nodes), 0, &written, &ga);
                let (idxs, runs) = model.refresh((me, nodes), 0, &written);
                match coherence.pending_refresh.pop() {
                    None => assert!(idxs.is_empty(), "{what}: no refresh"),
                    Some(part) => {
                        assert_eq!(part.idxs, idxs, "{what}: refresh entries");
                        assert!(part.runs == runs, "{what}: refresh runs");
                        assert_eq!(values(&part), vec![0; idxs.len()]);
                        pushed += idxs.len();
                    }
                }
            }
        }
        assert!(
            armed > 100 && unarmed > 100 && died > 100 && long > 100 && pushed > 100,
            "{armed} {unarmed} {died} {long} {pushed}"
        );

        // Scripted: a 32-element run served at phase 0, its upper half and
        // the next 16 served by another peer at phase 3 — the overlap arms,
        // the rest does not — then the run expires in the middle: its lower
        // half at phase 9, the rest at phase 12.
        let mut coherence = Coherence::new(true, nodes);
        let mut model = ModelHist::default();
        let script = [(0, 1, 0..32), (3, 2, 16..48)];
        for phase in 0..14 {
            let mut served = Vec::new();
            for (_, peer, run) in script.iter().filter(|s| s.0 == phase) {
                let entries = bundle(run.clone().map(|idx| (0, idx)).collect());
                coherence.note_serves(*peer, &entries);
                served.extend(entries.iter().map(|e| (*peer as u32, e.array, e.idx)));
            }
            coherence.fold_serves(phase);
            model.fold(served, phase);
            assert!(by_element(&coherence, "script") == model.0, "phase {phase}");
            let runs: Vec<(u64, u64, bool)> = (coherence.serve_hist[0].runs.iter())
                .map(|r| (r.first, r.end(), r.armed()))
                .collect();
            let want: &[(u64, u64, bool)] = match phase {
                0..3 => &[(0, 32, false)],
                3..9 => &[(0, 16, false), (16, 32, true), (32, 48, false)],
                9..12 => &[(16, 32, true), (32, 48, false)],
                _ => &[],
            };
            assert_eq!(runs, want, "phase {phase}");
        }
    }

    /// A halo stream — the same 4 096-element plane served to two readers
    /// every phase — keeps one run and one reader set over three TTLs: the
    /// history is sized by the halo's shape, not its elements.
    #[test]
    fn a_halo_stream_keeps_one_run_per_reader_set() {
        const PLANE: u64 = 4096;
        assert_eq!(std::mem::size_of::<ServeRun>(), 24);
        let mut coherence = Coherence::new(true, 4);
        let plane = bundle((PLANE..2 * PLANE).map(|idx| (1, idx)).collect());
        for phase in 0..3 * SERVE_TTL {
            coherence.note_serves(1, &plane);
            coherence.note_serves(3, &plane);
            assert_eq!(coherence.deferred_serves.len(), 2, "one record per run");
            coherence.fold_serves(phase);
            let hist = &coherence.serve_hist[1];
            let run = ServeRun {
                first: PLANE,
                stamp: phase << 1 | 1,
                len: PLANE as u32,
                set: 0,
            };
            assert_eq!(hist.runs, [run], "phase {phase}");
            assert!(hist.sets == [set(&[1, 3])], "phase {phase}");
            assert!(!coherence.has_history(0));
        }
    }

    /// Elements per node of the one test array; node `o` owns
    /// `[o * PER, (o + 1) * PER)` and pushes value `idx + 1000`.
    const PER: usize = 6;

    /// All nodes of one barrier stepped together over their dissemination
    /// edges, no thread: every owner pushes its elements, in runs of random
    /// length, each to a random target set, every node floods random
    /// written-array bits. Array 0 is always among them, so the final sweep
    /// clears a stale line planted in every cache before the pushed values
    /// land.
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
                ga.refresh_absorb(&[stale], &vec![7u64]).unwrap();
                inner.garrays.push(Box::new(ga));
                let mut idxs: Vec<u64> = Vec::new();
                let mut runs: Vec<(usize, NodeSet)> = Vec::new();
                let mut at = me * PER;
                while at < (me + 1) * PER {
                    let len = g.usize_in(1..(me + 1) * PER - at + 1);
                    let set: NodeSet = (0..nodes).filter(|&t| t != me && g.bool()).collect();
                    targets.extend((0..len).map(|_| set.clone()));
                    if set.any() {
                        runs.push((idxs.len(), set));
                        idxs.extend((at..at + len).map(|i| i as u64));
                    }
                    at += len;
                }
                if !idxs.is_empty() {
                    inner.coherence.pending_refresh.push(RefreshPart {
                        array: 0,
                        values: Box::new(idxs.iter().map(|i| i + 1000).collect::<Vec<u64>>()),
                        idxs,
                        runs,
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
                    for r in &msg.refreshes {
                        for (&idx, mask) in r.idxs.iter().zip(masks(r)) {
                            mask.iter()
                                .for_each(|t| hops[idx as usize * nodes + t] += 1);
                        }
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
                let ga = array_ref::<u64>(&inner.garrays, Space::Global, 0);
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
