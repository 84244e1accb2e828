//! Runtime message kinds and tag layout for node-to-node traffic.
//!
//! The kind constants are public so that fault-injection plans
//! ([`ppm_simnet::fault::TargetedFault`]) can target a specific protocol
//! message — e.g. "drop the 3rd [`K_WRITE`] bundle from node 2 to node 0".

use std::any::Any;

use ppm_simnet::TagClass;

use crate::state::Values;

/// Read-request bundle (one per destination per wave). Kinds live in the
/// top byte of the 64-bit tag.
pub const K_READ_REQ: u64 = 1;
/// Read-response bundle (one per request bundle).
pub const K_READ_RESP: u64 = 2;
/// End-of-phase write bundle.
pub const K_WRITE: u64 = 3;
/// Clock-synchronizing dissemination-barrier message (`exec::barrier`).
pub const K_BARRIER: u64 = 4;
/// Node-level collective message.
pub const K_COLL: u64 = 5;
/// Adaptive-repartitioning migration bundle (one per peer that takes over
/// elements in a rebalance).
pub const K_MIGRATE: u64 = 7;
/// Sender-notice token (DESIGN.md §17): "I will send you a non-empty
/// [`K_WRITE`] bundle this phase", routed to each destination over the
/// O(log N) dissemination edges just before the write exchange, so only
/// non-empty bundles travel and receivers block on exactly the announced
/// senders.
pub const K_TOKENS: u64 = 8;

/// Human-readable name of a message kind (deadlock / panic diagnostics).
pub fn kind_name(kind: u64) -> &'static str {
    match kind {
        K_READ_REQ => "READ_REQ",
        K_READ_RESP => "READ_RESP",
        K_WRITE => "WRITE",
        K_BARRIER => "BARRIER",
        K_COLL => "COLL",
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

/// Every read-request tag: the class a node's receive always takes, so a
/// waiting node keeps serving its peers.
pub(crate) const READ_REQS: TagClass = TagClass {
    mask: !META_MASK,
    bits: K_READ_REQ << KIND_SHIFT,
};

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
    /// Of the array's element type.
    pub values: Values,
}

/// A bundle of read responses (one per request bundle).
pub(crate) struct RespBundle {
    pub parts: Vec<RespPart>,
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
/// replicated rebalance plan. `(array id, global start index, payload)` per
/// moved stretch.
pub(crate) type MigrateMsg = Vec<(u32, usize, Values)>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_distinct() {
        let kinds = [K_READ_REQ, K_READ_RESP, K_WRITE, K_BARRIER, K_COLL];
        let kinds = kinds.into_iter().chain([K_MIGRATE, K_TOKENS]);
        let names: std::collections::HashSet<_> = kinds.map(kind_name).collect();
        assert_eq!(names.len(), 7);
        assert!(!names.contains("UNKNOWN"));
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
            K_MIGRATE,
            K_TOKENS,
        ] {
            for meta in [0u64, 1, 12345, META_MASK] {
                assert_eq!(untag(tag(kind, meta)), (kind, meta));
            }
        }
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
