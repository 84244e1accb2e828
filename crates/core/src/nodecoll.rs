//! Node-level collective utilities (paper §3.1 item 6: "utility functions
//! … such as reduction, parallel prefix etc.").
//!
//! These run *between* `ppm_do` constructs, directly among the node
//! runtimes, and are what the PPM runtime library itself uses (e.g.
//! `ppm_do` learns every node's VP count through
//! [`NodeCtx::allgather_nodes`]). They are collectives: every node must
//! call them in the same order. Algorithms mirror the MPI-like substrate
//! (dissemination barrier, binomial trees, recursive-doubling exscan,
//! pairwise all-to-all), but endpoints here are *nodes*, so traffic pays no
//! NIC-sharing penalty.

use std::any::Any;

use ppm_simnet::{Message, WireSize};

use crate::dissem::dissemination;
use crate::msgs;
use crate::nodectx::NodeCtx;

impl NodeCtx<'_> {
    fn next_coll(&mut self) -> u64 {
        let seq = self.coll_seq;
        self.coll_seq += 1;
        seq
    }

    fn coll_tag(seq: u64, step: u32) -> u64 {
        msgs::tag(msgs::K_COLL, (seq << 8) | step as u64)
    }

    /// Send one collective message to `dst`, charging node-level costs.
    fn send_coll<T: Any + Send + WireSize>(&mut self, dst: usize, tag: u64, value: T) {
        let bytes = value.wire_size();
        let net = self.config().machine.net;
        self.ep.clock.advance_comm(net.send_cpu(bytes, false));
        let ts = self.ep.clock.now() + net.wire_time(bytes, false, 1);
        self.ep.counters.msgs_sent += 1;
        self.ep.counters.bytes_sent += bytes as u64;
        let me = self.node_id();
        // Routed through the reliable transport (fault delay lands on
        // `ts`, which recv_coll waits for).
        self.send_msg(Message::new(me, dst, tag, ts, bytes, value), msgs::K_COLL);
    }

    /// Receive the collective message `tag` from `src`, servicing runtime
    /// traffic meanwhile.
    fn recv_coll<T: Any + Send>(&mut self, src: usize, tag: u64) -> T {
        let msg = self.pump_recv(|m| m.tag == tag && m.src == src);
        let net = self.config().machine.net;
        self.ep.clock.wait_until(msg.ts);
        self.ep.clock.advance_comm(net.recv_cpu(msg.bytes, false));
        self.ep.counters.msgs_recv += 1;
        self.ep.counters.bytes_recv += msg.bytes as u64;
        msg.take()
    }

    /// Dissemination barrier across nodes.
    pub fn barrier_nodes(&mut self) {
        let seq = self.next_coll();
        for edge in dissemination(self.node_id(), self.num_nodes()) {
            let tag = Self::coll_tag(seq, edge.round);
            self.send_coll(edge.to, tag, ());
            let () = self.recv_coll(edge.from, tag);
        }
        self.ep.counters.barriers += 1;
    }

    /// Broadcast from node `root` via a binomial tree.
    pub fn bcast_nodes<T: Any + Send + Clone + WireSize>(
        &mut self,
        root: usize,
        value: Option<T>,
    ) -> T {
        let seq = self.next_coll();
        let p = self.num_nodes();
        let me = self.node_id();
        let rel = (me + p - root) % p;

        let mut have = if rel == 0 {
            Some(value.expect("bcast_nodes root must supply a value"))
        } else {
            None
        };
        let mut mask = 1usize;
        while mask < p {
            if rel & mask != 0 {
                let src = (rel - mask + root) % p;
                have = Some(self.recv_coll(src, Self::coll_tag(seq, 0)));
                break;
            }
            mask <<= 1;
        }
        let v = have.expect("bcast tree covers every node");
        mask >>= 1;
        while mask > 0 {
            if rel + mask < p {
                let dst = (rel + mask + root) % p;
                self.send_coll(dst, Self::coll_tag(seq, 0), v.clone());
            }
            mask >>= 1;
        }
        v
    }

    /// Reduce onto node 0 then broadcast: every node gets the combined
    /// value. `op` must be associative; the combine tree is fixed, so
    /// results are deterministic.
    pub fn allreduce_nodes<T, F>(&mut self, value: T, op: F) -> T
    where
        T: Any + Send + Clone + WireSize,
        F: Fn(T, T) -> T,
    {
        let seq = self.next_coll();
        let p = self.num_nodes();
        let me = self.node_id();

        let mut acc = value;
        let mut mask = 1usize;
        let mut sent = false;
        while mask < p {
            if me & mask == 0 {
                let peer = me | mask;
                if peer < p {
                    let other: T = self.recv_coll(peer, Self::coll_tag(seq, 0));
                    acc = op(acc, other);
                }
            } else {
                let dst = me & !mask;
                self.send_coll(dst, Self::coll_tag(seq, 0), acc.clone());
                sent = true;
                break;
            }
            mask <<= 1;
        }
        let root_val = if sent { None } else { Some(acc) };
        self.bcast_nodes(0, root_val)
    }

    /// Exclusive prefix combine over node ids (`None` on node 0).
    /// Recursive doubling; `op` must be associative and commutative.
    pub fn exscan_nodes<T, F>(&mut self, value: T, op: F) -> Option<T>
    where
        T: Any + Send + Clone + WireSize,
        F: Fn(T, T) -> T,
    {
        let seq = self.next_coll();
        let p = self.num_nodes();
        let me = self.node_id();

        let mut partial = value;
        let mut below: Option<T> = None;
        let mut d = 1usize;
        let mut step = 0u32;
        while d < p {
            let tag = Self::coll_tag(seq, step);
            if me + d < p {
                self.send_coll(me + d, tag, partial.clone());
            }
            if me >= d {
                let v: T = self.recv_coll(me - d, tag);
                below = Some(match below {
                    None => v.clone(),
                    Some(b) => op(v.clone(), b),
                });
                partial = op(v, partial);
            }
            d <<= 1;
            step += 1;
        }
        below
    }

    /// Every node contributes one value; every node gets all of them,
    /// ordered by node id.
    pub fn allgather_nodes<T: Any + Send + Clone + WireSize>(&mut self, value: T) -> Vec<T> {
        let vs = self.allgatherv_nodes(vec![value]);
        vs.into_iter().map(|mut v| v.remove(0)).collect()
    }

    /// Variable-size allgather: every node gets each node's item list,
    /// indexed by node id.
    pub fn allgatherv_nodes<T: Any + Send + Clone + WireSize>(
        &mut self,
        items: Vec<T>,
    ) -> Vec<Vec<T>> {
        let seq = self.next_coll();
        let p = self.num_nodes();
        let me = self.node_id();

        // Binomial gather of (node, items) pairs onto node 0 …
        let mut acc: Vec<(u64, Vec<T>)> = vec![(me as u64, items)];
        let mut mask = 1usize;
        let mut have_root = true;
        while mask < p {
            if me & mask == 0 {
                let peer = me | mask;
                if peer < p {
                    let mut other: Vec<(u64, Vec<T>)> =
                        self.recv_coll(peer, Self::coll_tag(seq, 0));
                    acc.append(&mut other);
                }
            } else {
                self.send_coll(me & !mask, Self::coll_tag(seq, 0), acc);
                acc = Vec::new();
                have_root = false;
                break;
            }
            mask <<= 1;
        }
        // … then broadcast the assembled table.
        let table = if have_root {
            acc.sort_by_key(|(n, _)| *n);
            Some(acc.into_iter().map(|(_, v)| v).collect::<Vec<Vec<T>>>())
        } else {
            None
        };
        self.bcast_nodes(0, table)
    }

    /// Variable-size all-to-all among nodes: `sends[d]` goes to node `d`;
    /// slot `s` of the result holds what node `s` sent here. Pairwise
    /// exchange.
    pub fn alltoallv_nodes<T: Any + Send + WireSize>(
        &mut self,
        mut sends: Vec<Vec<T>>,
    ) -> Vec<Vec<T>> {
        let p = self.num_nodes();
        assert_eq!(sends.len(), p, "alltoallv_nodes needs one list per node");
        let seq = self.next_coll();
        let me = self.node_id();

        let mut recvs: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        recvs[me] = std::mem::take(&mut sends[me]);
        for s in 1..p {
            let dst = (me + s) % p;
            let src = (me + p - s) % p;
            let tag = Self::coll_tag(seq, s as u32);
            let out = std::mem::take(&mut sends[dst]);
            self.send_coll(dst, tag, out);
            recvs[src] = self.recv_coll(src, tag);
        }
        recvs
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
