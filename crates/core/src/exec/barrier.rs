//! The clock barrier: a dissemination barrier among nodes that also
//! propagates the maximum clock, so every node leaves the phase at a
//! consistent (and deterministic) simulated instant.
//!
//! What the loop itself guarantees: one [`K_BARRIER`] message per edge per
//! round, sent before this node's receive of that round; each round pays the
//! LogGP message step on [`Route::NODE`] with 0 cost bytes — one send and one
//! receive overhead plus the wait for the predecessor's arrival instant
//! (`send time + latency`, plus any fault delay the reliability layer adds);
//! after ⌈log₂ N⌉ rounds every node has heard, transitively, from every node.
//! Barrier messages never count toward `msgs_sent` / `msgs_recv` (barrier
//! cost is modeled, not counted).
//!
//! Everything else rides: three parts, one per feature, each a
//! `take_for(edge)` / `absorb` / finish state machine that owns its payload,
//! its bytes and its accounting — [`CoherencePart`] (DESIGN.md §13; the only
//! one with wire bytes), [`LoadBlock`] (§14) and [`FailoverPart`] (§15). A
//! lone node runs no round and still finishes all three.
//!
//! [`K_BARRIER`]: msgs::K_BARRIER

use ppm_simnet::coll::{dissemination, Edge};
use ppm_simnet::{Message, Route, SimTime};

use crate::coherence::{CoherenceMsg, CoherencePart};
use crate::dissem::LoadBlock;
use crate::failover::{FailoverMsg, FailoverPart};
use crate::msgs;
use crate::nodectx::NodeCtx;
use crate::state::Inner;

/// One node's side of one clock barrier's riders.
pub(super) struct BarrierParts {
    pub coherence: CoherencePart,
    pub loads: LoadBlock,
    pub failover: FailoverPart,
}

/// Clock-barrier payload: what each part put on this edge.
pub(super) struct BarrierMsg {
    pub coherence: CoherenceMsg,
    /// [`LoadBlock::to_send`].
    pub loads: Vec<u64>,
    pub failover: FailoverMsg,
}

impl BarrierParts {
    /// What rides `edge`, and its wire bytes (for `Message::bytes`):
    /// coherence's alone.
    pub fn take_for(&mut self, edge: Edge, inner: &mut Inner) -> (BarrierMsg, u64) {
        let (coherence, wire_bytes) = self.coherence.take_for(edge, inner);
        let bm = BarrierMsg {
            coherence,
            loads: self.loads.to_send(),
            failover: self.failover.take_for(edge, inner),
        };
        (bm, wire_bytes)
    }

    /// Take in what arrived (`wire_bytes` = its `Message::bytes`). Returns the
    /// compute this node's clock owes as host of its predecessor's persona.
    pub fn absorb(&mut self, bm: BarrierMsg, wire_bytes: u64, inner: &mut Inner) -> SimTime {
        self.loads.append(&bm.loads);
        let hosted = self.failover.absorb(bm.failover, inner);
        self.coherence.absorb(bm.coherence, wire_bytes, inner);
        hosted
    }
}

/// Run the barrier closing global phase `phase`.
pub(super) fn clock_barrier(nc: &mut NodeCtx<'_>, phase: u64, mut parts: BarrierParts) {
    let (me, nodes) = (nc.node_id(), nc.num_nodes());
    for edge in dissemination(me, nodes) {
        // 0 cost bytes: the bytes that ride (refresh pushes; replica
        // frames, receiver side) go to `Traffic`, and the next phase's gap
        // term charges them (`charge_phase_time`).
        let ts = nc.ep.charge_send(Route::NODE, 0);
        let (bm, wire_bytes) = parts.take_for(edge, &mut nc.inner);
        let tag = msgs::tag(msgs::K_BARRIER, msgs::barrier_meta(phase, edge.round));
        nc.send_msg(
            Message::new(me, edge.to, tag, ts, wire_bytes as usize, bm),
            msgs::K_BARRIER,
        );
        let msg = nc.pump_recv(tag, Some(edge.from));
        nc.ep.charge_recv(Route::NODE, 0, msg.ts);
        let wire_bytes = msg.bytes as u64;
        let hosted = parts.absorb(msg.take(), wire_bytes, &mut nc.inner);
        nc.ep.clock.advance_compute(hosted);
    }
    nc.inner.balancer.fold_window(nodes, parts.loads.by_rank());
    parts.failover.finish(nc, phase);
    parts.coherence.finish(&mut nc.inner);
}
