//! Node-level collective utilities (paper §3.1 item 6: "utility functions
//! … such as reduction, parallel prefix etc.").
//!
//! These run *between* `ppm_do` constructs, directly among the node
//! runtimes, and are what the PPM runtime library itself uses (e.g.
//! `ppm_do` learns every node's VP count through
//! [`NodeCtx::allgather_nodes`]). They are collectives: every node must
//! call them in the same order. The algorithms are the MPI-like
//! substrate's own ([`ppm_simnet::coll`]); only the transport differs:
//! endpoints here are *nodes*, so a step pays the LogGP message step on
//! [`Route::NODE`] (node-level costs, no NIC-sharing penalty) and counts in
//! the node's own counters, travels through the reliable transport, and a
//! waiting node keeps serving read requests.

use std::any::Any;

use ppm_simnet::coll::{self, Transport};
use ppm_simnet::{Message, Route, WireSize};

use crate::msgs;
use crate::nodectx::NodeCtx;

/// `NodeCtx` as a collective transport.
struct Steps<'n, 'a>(&'n mut NodeCtx<'a>);

fn coll_tag(seq: u64, step: u32) -> u64 {
    msgs::tag(msgs::K_COLL, (seq << 8) | step as u64)
}

impl Transport for Steps<'_, '_> {
    fn rank(&self) -> usize {
        self.0.node_id()
    }

    fn size(&self) -> usize {
        self.0.num_nodes()
    }

    fn next_seq(&mut self) -> u64 {
        self.0.coll_seq += 1;
        self.0.coll_seq - 1
    }

    /// One collective message to `dst`, charging node-level costs.
    fn send_step<T: Any + Send + WireSize>(&mut self, dst: usize, seq: u64, step: u32, value: T) {
        let nc = &mut *self.0;
        let bytes = value.wire_size();
        let ts = nc.ep.charge_send(Route::NODE, bytes);
        let c = &mut nc.inner.counters;
        c.msgs_sent += 1;
        c.bytes_sent += bytes as u64;
        let me = nc.node_id();
        // Routed through the reliable transport (fault delay lands on
        // `ts`, which `recv_step` waits for).
        let msg = Message::new(me, dst, coll_tag(seq, step), ts, bytes, value);
        nc.send_msg(msg, msgs::K_COLL);
    }

    /// Receive one collective message from `src`, servicing runtime traffic
    /// meanwhile.
    fn recv_step<T: Any + Send>(&mut self, src: usize, seq: u64, step: u32) -> T {
        let nc = &mut *self.0;
        let msg = nc.pump_recv(coll_tag(seq, step), Some(src));
        nc.ep.charge_recv(Route::NODE, msg.bytes, msg.ts);
        let c = &mut nc.inner.counters;
        c.msgs_recv += 1;
        c.bytes_recv += msg.bytes as u64;
        msg.take()
    }

    fn barrier_done(&mut self) {
        self.0.inner.counters.barriers += 1;
    }
}

impl NodeCtx<'_> {
    /// Dissemination barrier across nodes ([`coll::barrier`]).
    pub fn barrier_nodes(&mut self) {
        coll::barrier(&mut Steps(self));
    }

    /// Broadcast from node `root` ([`coll::bcast`]).
    pub fn bcast_nodes<T: Any + Send + Clone + WireSize>(
        &mut self,
        root: usize,
        value: Option<T>,
    ) -> T {
        coll::bcast(&mut Steps(self), root, value)
    }

    /// Reduce onto node 0 then broadcast: every node gets the combined
    /// value, combined in node order ([`coll::allreduce`]). `op` must be
    /// associative; the combine tree is fixed, so results are
    /// deterministic.
    pub fn allreduce_nodes<T, F>(&mut self, value: T, op: F) -> T
    where
        T: Any + Send + Clone + WireSize,
        F: Fn(T, T) -> T,
    {
        coll::allreduce(&mut Steps(self), value, op)
    }

    /// Exclusive prefix combine over node ids (`None` on node 0;
    /// [`coll::exscan`]).
    pub fn exscan_nodes<T, F>(&mut self, value: T, op: F) -> Option<T>
    where
        T: Any + Send + Clone + WireSize,
        F: Fn(T, T) -> T,
    {
        coll::exscan(&mut Steps(self), value, op)
    }

    /// Every node contributes one value; every node gets all of them,
    /// ordered by node id. On the wire this is
    /// [`allgatherv_nodes`](Self::allgatherv_nodes) of a one-item list.
    pub fn allgather_nodes<T: Any + Send + Clone + WireSize>(&mut self, value: T) -> Vec<T> {
        let vs = self.allgatherv_nodes(vec![value]);
        vs.into_iter().map(|mut v| v.remove(0)).collect()
    }

    /// Variable-size allgather: every node gets each node's item list,
    /// indexed by node id ([`coll::allgather`] of the lists).
    pub fn allgatherv_nodes<T: Any + Send + Clone + WireSize>(
        &mut self,
        items: Vec<T>,
    ) -> Vec<Vec<T>> {
        coll::allgather(&mut Steps(self), items)
    }

    /// Variable-size all-to-all among nodes: `sends[d]` goes to node `d`;
    /// slot `s` of the result holds what node `s` sent here
    /// ([`coll::alltoallv`]).
    pub fn alltoallv_nodes<T: Any + Send + WireSize>(&mut self, sends: Vec<Vec<T>>) -> Vec<Vec<T>> {
        coll::alltoallv(&mut Steps(self), sends)
    }

    /// Assemble a full copy of a global shared array on every node
    /// (verification / result-extraction helper, not a model construct).
    pub fn gather_global<T: crate::elem::Elem>(
        &mut self,
        g: &crate::shared::GlobalShared<T>,
    ) -> Vec<T> {
        let dist = self.dist_of(g);
        let local: Vec<T> = self.with_local(g, |s| s.to_vec());
        let parts = self.allgatherv_nodes(local);
        let mut out = vec![T::default(); g.len()];
        for (node, part) in parts.into_iter().enumerate() {
            for (off, v) in part.into_iter().enumerate() {
                out[dist.global_index(node, off)] = v;
            }
        }
        out
    }
}
