//! Runtime message kinds and tag layout for node-to-node traffic.
//!
//! The kind constants are public so that fault-injection plans
//! ([`ppm_simnet::fault::TargetedFault`]) can target a specific protocol
//! message — e.g. "drop the 3rd [`K_WRITE`] bundle from node 2 to node 0".

use std::any::Any;

use crate::bitset::NodeSet;
use crate::state::GArrayObj;

/// Read-request bundle (one per destination per wave). Kinds live in the
/// top byte of the 64-bit tag.
pub const K_READ_REQ: u64 = 1;
/// Read-response bundle (one per request bundle).
pub const K_READ_RESP: u64 = 2;
/// End-of-phase write bundle.
pub const K_WRITE: u64 = 3;
/// Clock-synchronizing dissemination-barrier message.
pub const K_BARRIER: u64 = 4;
/// Node-level collective message.
pub const K_COLL: u64 = 5;
/// Reliability-layer cumulative acknowledgement (meta = acked watermark).
pub const K_ACK: u64 = 6;
/// Adaptive-repartitioning migration bundle (one per peer that takes over
/// elements in a rebalance).
pub const K_MIGRATE: u64 = 7;
/// Sender-notice token (DESIGN.md §17): "I will send you a non-empty
/// [`K_WRITE`] bundle this phase", routed to each destination over the
/// O(log N) dissemination edges just before the write exchange, so only
/// non-empty bundles travel and receivers block on exactly the announced
/// senders.
pub const K_TOKENS: u64 = 8;

/// Human-readable name of a message kind (watchdog / panic diagnostics).
pub fn kind_name(kind: u64) -> &'static str {
    match kind {
        K_READ_REQ => "READ_REQ",
        K_READ_RESP => "READ_RESP",
        K_WRITE => "WRITE",
        K_BARRIER => "BARRIER",
        K_COLL => "COLL",
        K_ACK => "ACK",
        K_MIGRATE => "MIGRATE",
        K_TOKENS => "TOKENS",
        _ => "UNKNOWN",
    }
}

const KIND_SHIFT: u32 = 56;
const META_MASK: u64 = (1 << KIND_SHIFT) - 1;

/// Compose a runtime tag from a kind and kind-specific metadata.
#[inline]
pub(crate) fn tag(kind: u64, meta: u64) -> u64 {
    debug_assert!(meta <= META_MASK);
    (kind << KIND_SHIFT) | meta
}

/// Extract (kind, meta) from a tag.
#[inline]
pub(crate) fn untag(t: u64) -> (u64, u64) {
    (t >> KIND_SHIFT, t & META_MASK)
}

/// Barrier metadata: phase sequence and dissemination round.
#[inline]
pub(crate) fn barrier_meta(phase: u64, round: u32) -> u64 {
    debug_assert!(round < 64);
    (phase << 6) | round as u64
}

/// One entry of an outgoing read-request bundle. `slot` is a
/// requester-side ticket: the responder echoes it back, and the requester
/// fans the value out to every VP waiting on that (array, index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReqEntry {
    pub array: u32,
    pub idx: u64,
    pub slot: u32,
}

/// A bundle of read requests for elements owned by the destination node.
pub(crate) struct ReqBundle {
    /// Global phase sequence the requests belong to (protocol checking).
    pub phase: u64,
    /// Ascending by `(array, idx)`, each pair once (the wave builder sorts
    /// and deduplicates), so every array's entries form one run.
    pub entries: Vec<ReqEntry>,
}

/// One array's worth of a read response.
pub(crate) struct RespPart {
    pub array: u32,
    /// Requester-side slots, parallel to `values`.
    pub slots: Vec<u32>,
    /// `Vec<T>` for the array's element type.
    pub values: Box<dyn Any + Send>,
}

/// A bundle of read responses (one per request bundle).
pub(crate) struct RespBundle {
    pub parts: Vec<RespPart>,
}

/// One array's worth of owner-pushed cache refreshes riding a barrier
/// message (DESIGN.md §13). Values are post-exchange truth for the phase
/// the barrier closes, routed along the dissemination edges: `masks`
/// carries each entry's remaining destination set (bit = node id), and a
/// holder forwards exactly the targets the current round's edge carries
/// ([`crate::dissem::Edge::carries`]), so every target receives each entry
/// once.
pub(crate) struct RefreshPart {
    pub array: u32,
    /// Element indices, parallel to `values`.
    pub idxs: Vec<u64>,
    /// Remaining destination-node sets per entry, parallel to `idxs`.
    pub masks: Vec<NodeSet>,
    /// `Vec<T>` for the array's element type, parallel to `idxs`.
    /// `Sync` as well as `Send` because undelivered parts park in
    /// [`crate::state::Inner::pending_refresh`] between rounds.
    pub values: Box<dyn Any + Send + Sync>,
}

impl RefreshPart {
    /// Split by destination: the entries with a target in `set`, their
    /// masks cut down to it — with the modeled bytes of their values — and
    /// the entries with a target outside it, their masks with `set` taken
    /// out. An entry with targets on both sides goes both ways; a side with
    /// no entry is `None`. `ga` is the part's array (the values are
    /// type-erased).
    pub fn split(
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
}

/// Clock-barrier payload. Pre-cache the barrier carried no payload a
/// receiver consumed; the read-cache coherence sidecar rides these
/// messages so the protocol adds no messages of its own: `inv_bits` is
/// the OR-flood of "this array took writes this phase" (one growable bit
/// per array id — no overflow/wholesale case), and `refreshes` are
/// owner-pushed values for remotely cached elements that were rewritten.
pub(crate) struct BarrierMsg {
    pub inv_bits: NodeSet,
    /// Failure-detector sidecar (DESIGN.md §15): OR-flood of "I suspect
    /// node `i` permanently dead" bits (bit = node id). After the barrier
    /// every node holds the identical union, so deaths are confirmed by
    /// all survivors at the same phase boundary — a pure function of
    /// message history. Rides messages the barrier sends anyway.
    pub suspect_bits: NodeSet,
    /// Buddy snapshot-replication sidecar (DESIGN.md §15), attached only
    /// to the round-0 dissemination message — whose destination,
    /// `(me+1) % nodes`, is exactly the buddy.
    pub replica: Option<ReplicaFrame>,
    /// Hosted-persona compute (picoseconds) a dead rank charges to the
    /// buddy that hosts it, attached only to the round-0 message: the
    /// buddy serializes the dead rank's re-executed VPs after its own, so
    /// it advances its clock by this much inside the barrier.
    pub hosted_compute_ps: u64,
    pub refreshes: Vec<RefreshPart>,
    /// Loads sidecar for the adaptive repartitioner (DESIGN.md §14): the
    /// compute+service picoseconds of every rank the sender has heard from
    /// for the phase this barrier closes, in block order — entry `j` is
    /// rank `sender − j (mod nodes)`. At round `r` a sender holds exactly
    /// its `2^r` nearest predecessors, so a receiver appends the block
    /// behind its own and, after the final round (truncated to `nodes`),
    /// every node holds the identical load vector. Like `inv_bits`, modeled
    /// free — it rides messages the barrier sends anyway, keeping makespans
    /// bit-identical whether the balance knob is on or off (until a
    /// migration actually happens).
    pub loads: Vec<u64>,
}

/// One snapshot-replica delta frame streamed to the buddy (DESIGN.md §15).
/// Metadata only: the simulator never needs the payload bytes on the wire
/// (a failover restores from the victim's own snapshot, which is
/// byte-identical to the buddy's replica by construction), so the frame
/// carries just the modeled size for cost accounting and the
/// `replica_bytes` counter.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplicaFrame {
    /// Global phase sequence of the snapshot this frame brings the buddy's
    /// replica up to.
    pub phase: u64,
    /// Modeled frame bytes: the full snapshot on the first (base) frame,
    /// the bytes written since the previous snapshot on delta frames.
    pub bytes: u64,
    /// Whether this is a base (full-snapshot) frame.
    pub base: bool,
}

/// End-of-phase write bundle: buffered writes destined for one owner node.
#[derive(Default)]
pub(crate) struct WriteBundleMsg {
    /// Total entries across parts (for traffic accounting).
    pub entries: u64,
    /// `(array id, WriteCols<T>)` per touched array: the sender's resolved
    /// writes to this owner as flat columns (`crate::state::WriteCols`).
    pub parts: Vec<(u32, Box<dyn Any + Send>)>,
}

/// Sender-notice token for the sparse end-of-phase exchange (DESIGN.md
/// §17): the `(writer, dest)` notices — "`writer` will send `dest` a
/// non-empty [`K_WRITE`] bundle this phase" — that ride this dissemination
/// edge toward their `dest`. Exactly one token travels per edge per round,
/// empty when nothing routes that way: the exchange's flush-point argument
/// rests on it. Modeled free: a token carries zero wire bytes and advances
/// no clock.
pub(crate) struct TokenMsg {
    /// Global phase sequence the notices belong to (protocol checking).
    pub phase: u64,
    /// `(writer, dest)` node ids.
    pub notices: Vec<(u32, u32)>,
}

/// Repartitioning migration bundle: the elements this node hands over to
/// one peer, never empty — both sides derive who sends to whom from the
/// replicated rebalance plan. `(array id, global start index, Vec<T>
/// payload)` per moved stretch.
pub(crate) type MigrateMsg = Vec<(u32, u64, Box<dyn Any + Send>)>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_distinct() {
        let names: std::collections::HashSet<_> = (1..=8).map(kind_name).collect();
        assert_eq!(names.len(), 8);
        assert_eq!(kind_name(99), "UNKNOWN");
    }

    #[test]
    fn tag_roundtrip() {
        for kind in [
            K_READ_REQ,
            K_READ_RESP,
            K_WRITE,
            K_BARRIER,
            K_COLL,
            K_ACK,
            K_MIGRATE,
            K_TOKENS,
        ] {
            for meta in [0u64, 1, 12345, META_MASK] {
                assert_eq!(untag(tag(kind, meta)), (kind, meta));
            }
        }
    }

    /// Entries go to the side(s) their targets lie on, masks cut to match;
    /// a side nothing lands on is `None`.
    #[test]
    fn refresh_part_splits_by_target_set() {
        use crate::dist::Dist;
        use crate::state::GArray;
        let ga: GArray<u64> = GArray::new(Dist::block(16, 4), 0);
        let set = |bits: &[usize]| bits.iter().copied().collect::<NodeSet>();
        let part = || RefreshPart {
            array: 7,
            idxs: vec![1, 2, 3],
            masks: vec![set(&[1]), set(&[1, 2, 70]), set(&[3])],
            values: Box::new(vec![10u64, 20, 30]),
        };
        let values = |p: &RefreshPart| p.values.downcast_ref::<Vec<u64>>().unwrap().clone();

        let (inside, outside) = part().split(&set(&[1, 2]), &ga);
        let (inside, bytes) = inside.expect("two entries target the set");
        assert_eq!((inside.array, &inside.idxs[..]), (7, &[1, 2][..]));
        assert!(inside.masks == [set(&[1]), set(&[1, 2])]);
        assert_eq!((values(&inside), bytes), (vec![10, 20], 8 + 2 * 8));
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

    #[test]
    fn barrier_meta_packs_phase_and_round() {
        let m = barrier_meta(100, 5);
        assert_eq!(m >> 6, 100);
        assert_eq!(m & 63, 5);
        assert_ne!(barrier_meta(100, 5), barrier_meta(100, 6));
        assert_ne!(barrier_meta(100, 5), barrier_meta(101, 5));
    }
}
