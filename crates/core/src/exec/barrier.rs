//! The clock barrier: a dissemination barrier among nodes that also
//! propagates the maximum clock, so every node leaves the phase at a
//! consistent (and deterministic) simulated instant.
//!
//! What the loop itself guarantees: one [`K_BARRIER`] message per edge per
//! round, sent before this node's receive of that round; each round costs
//! one send and one receive overhead plus the wait for the predecessor's
//! arrival instant (`send time + latency`, plus any fault delay the
//! reliability layer adds); after ⌈log₂ N⌉ rounds every node has heard,
//! transitively, from every node. Barrier messages never count toward
//! `msgs_sent` / `msgs_recv` (barrier cost is modeled, not counted).
//!
//! Everything else rides: three parts, one per feature, each a
//! `take_for(edge)` / `absorb` / finish state machine that owns its payload,
//! its bytes and its accounting — [`CoherencePart`] (DESIGN.md §13; the only
//! one with wire bytes), [`LoadBlock`] (§14) and [`FailoverPart`] (§15). A
//! lone node runs no round and still finishes all three.
//!
//! [`K_BARRIER`]: msgs::K_BARRIER

use ppm_simnet::Message;

use crate::coherence::{CoherenceMsg, CoherencePart};
use crate::dissem::{dissemination, LoadBlock};
use crate::failover::{FailoverMsg, FailoverPart};
use crate::msgs;
use crate::nodectx::NodeCtx;

/// One node's side of one clock barrier's riders.
pub(super) struct BarrierParts {
    pub coherence: CoherencePart,
    pub loads: LoadBlock,
    pub failover: FailoverPart,
}

/// Clock-barrier payload: what each part put on this edge.
struct BarrierMsg {
    coherence: CoherenceMsg,
    /// [`LoadBlock::to_send`].
    loads: Vec<u64>,
    failover: FailoverMsg,
}

/// Run the barrier closing global phase `phase`.
pub(super) fn clock_barrier(nc: &mut NodeCtx<'_>, phase: u64, mut parts: BarrierParts) {
    let (me, nodes) = (nc.node_id(), nc.num_nodes());
    let net = nc.config().machine.net;
    for edge in dissemination(me, nodes) {
        nc.ep.clock.advance_comm(net.overhead);
        let (bm, wire_bytes) = {
            let inner = &mut nc.inner.borrow_mut();
            let (coherence, wire_bytes) = parts.coherence.take_for(edge, inner);
            let failover = parts.failover.take_for(edge, inner);
            let loads = parts.loads.to_send();
            let bm = BarrierMsg {
                coherence,
                loads,
                failover,
            };
            (bm, wire_bytes as usize)
        };
        let tag = msgs::tag(msgs::K_BARRIER, msgs::barrier_meta(phase, edge.round));
        // `ts` is the arrival instant.
        let ts = nc.now() + net.latency;
        nc.send_msg(
            Message::new(me, edge.to, tag, ts, wire_bytes, bm),
            msgs::K_BARRIER,
        );
        let msg = nc.pump_recv(|m| m.tag == tag && m.src == edge.from);
        nc.ep.clock.wait_until(msg.ts);
        nc.ep.clock.advance_comm(net.overhead);
        let wire_bytes = msg.bytes as u64;
        let bm: BarrierMsg = msg.take();
        let inner = &mut nc.inner.borrow_mut();
        parts.loads.append(&bm.loads);
        let hosted = parts.failover.absorb(bm.failover, inner);
        nc.ep.clock.advance_compute(hosted);
        parts.coherence.absorb(bm.coherence, wire_bytes, inner);
    }
    (nc.inner.borrow_mut().balancer).fold_window(nodes, parts.loads.by_rank());
    parts.failover.finish(nc, phase);
    parts.coherence.finish(&mut nc.inner.borrow_mut());
}
