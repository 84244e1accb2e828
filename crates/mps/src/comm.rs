//! Point-to-point communication with MPI-style tag matching. Each message
//! pays the LogGP step of [`EndpointCtx::charge_send`] /
//! [`EndpointCtx::charge_recv`] on the route
//! [`MachineConfig::route`](ppm_simnet::MachineConfig::route) gives the rank
//! pair; this module only counts it.

use std::any::Any;

use ppm_simnet::{EndpointCtx, Filter, Message, SimTime, WireSize};

use crate::tags;

/// Wildcard for [`Comm::recv_any`]-style source matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Match a specific sender rank.
    Rank(usize),
    /// Match any sender.
    Any,
}

/// Per-rank communicator, the MPI-like face of a simulated endpoint.
///
/// Each rank models one *core* of the machine (the paper runs MPI with one
/// process per core, §4.5), so a message takes its rank pair's route: a NIC
/// share off-node, the shared-memory path on one node — which still costs
/// per-message overhead, the paper's "intra-node communication overhead"
/// (no SmartMap, §4.5 footnote).
pub struct Comm<'a> {
    ctx: &'a mut EndpointCtx,
    /// Sequence number for collective operations (see `collectives`).
    pub(crate) coll_seq: u64,
}

impl<'a> Comm<'a> {
    /// Wrap an endpoint context.
    pub fn new(ctx: &'a mut EndpointCtx) -> Self {
        Comm { ctx, coll_seq: 0 }
    }

    /// This rank's id.
    #[inline]
    pub fn rank(&self) -> usize {
        self.ctx.id()
    }

    /// Total ranks in the job.
    #[inline]
    pub fn size(&self) -> usize {
        self.ctx.num_endpoints()
    }

    /// Node hosting this rank.
    #[inline]
    pub fn node(&self) -> u32 {
        self.ctx.config.node_of_rank(self.rank() as u32)
    }

    /// Machine description.
    #[inline]
    pub fn config(&self) -> ppm_simnet::MachineConfig {
        self.ctx.config
    }

    /// Current simulated time on this rank.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.ctx.clock.now()
    }

    /// Charge `n` floating-point operations to this rank.
    #[inline]
    pub fn charge_flops(&mut self, n: u64) {
        self.ctx.counters.flops += n;
        self.ctx
            .clock
            .advance_compute(self.ctx.config.core.flops(n));
    }

    /// Charge `n` memory operations to this rank.
    #[inline]
    pub fn charge_mem_ops(&mut self, n: u64) {
        self.ctx.counters.mem_ops += n;
        self.ctx
            .clock
            .advance_compute(self.ctx.config.core.mem_ops(n));
    }

    /// Event counters (for verification in tests and benches).
    #[inline]
    pub fn counters(&self) -> ppm_simnet::Counters {
        self.ctx.counters
    }

    /// Count a completed barrier.
    #[inline]
    pub(crate) fn note_barrier(&mut self) {
        self.ctx.counters.barriers += 1;
    }

    /// Final clock (for reports).
    #[inline]
    pub fn clock(&self) -> ppm_simnet::Clock {
        self.ctx.clock
    }

    /// Send `value` to rank `dst` with a user `tag`. Buffered (MPI_Bsend
    /// flavour): returns as soon as the sender-side cost is charged.
    pub fn send<T>(&mut self, dst: usize, tag: u64, value: T)
    where
        T: Any + Send + WireSize,
    {
        self.send_raw(dst, tags::user(tag), value);
    }

    pub(crate) fn send_raw<T>(&mut self, dst: usize, tag: u64, value: T)
    where
        T: Any + Send + WireSize,
    {
        let bytes = value.wire_size();
        let route = self.ctx.config.route(self.rank() as u32, dst as u32);
        let ts = self.ctx.charge_send(route, bytes);
        self.ctx.counters.msgs_sent += 1;
        self.ctx.counters.bytes_sent += bytes as u64;
        self.ctx
            .net
            .send(Message::new(self.rank(), dst, tag, ts, bytes, value));
    }

    /// Blocking receive of a message from `src` with user `tag`.
    pub fn recv<T>(&mut self, src: usize, tag: u64) -> T
    where
        T: Any + Send,
    {
        self.recv_matched(Source::Rank(src), tags::user(tag)).1
    }

    /// Blocking receive matching any source; returns `(src, value)`.
    pub fn recv_any<T>(&mut self, tag: u64) -> (usize, T)
    where
        T: Any + Send,
    {
        self.recv_matched(Source::Any, tags::user(tag))
    }

    /// Blocking receive with an explicit source selector (MPI's
    /// `MPI_ANY_SOURCE` style); returns `(src, value)`.
    pub fn recv_from<T>(&mut self, src: Source, tag: u64) -> (usize, T)
    where
        T: Any + Send,
    {
        self.recv_matched(src, tags::user(tag))
    }

    pub(crate) fn recv_raw<T>(&mut self, src: usize, tag: u64) -> T
    where
        T: Any + Send,
    {
        self.recv_matched(Source::Rank(src), tag).1
    }

    fn recv_matched<T>(&mut self, src: Source, tag: u64) -> (usize, T)
    where
        T: Any + Send,
    {
        let src = match src {
            Source::Rank(r) => Some(r),
            Source::Any => None,
        };
        // Unmatched messages stay queued in the router, in arrival order.
        let (net, always) = (&self.ctx.net, None);
        let want = Filter { tag, src, always };
        let msg = (net.recv_match(&want)).unwrap_or_else(|| net.deadlocked(&want, ""));
        self.accept(msg)
    }

    /// Account for a matched message and unwrap its payload.
    fn accept<T: Any>(&mut self, msg: Message) -> (usize, T) {
        let route = self.ctx.config.route(self.rank() as u32, msg.src as u32);
        self.ctx.charge_recv(route, msg.bytes, msg.ts);
        self.ctx.counters.msgs_recv += 1;
        self.ctx.counters.bytes_recv += msg.bytes as u64;
        (msg.src, msg.take())
    }

    /// Combined send-then-receive with the same peer-symmetric tag, the
    /// usual building block for pairwise exchange steps.
    pub fn sendrecv<T, U>(&mut self, dst: usize, src: usize, tag: u64, value: T) -> U
    where
        T: Any + Send + WireSize,
        U: Any + Send,
    {
        self.send(dst, tag, value);
        self.recv(src, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;
    use ppm_simnet::MachineConfig;

    #[test]
    fn basic_send_recv() {
        let report = run(MachineConfig::new(2, 1), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, vec![1.0f64, 2.0]);
                0.0
            } else {
                let v: Vec<f64> = comm.recv(0, 7);
                v.iter().sum()
            }
        });
        assert_eq!(report.results[1], 3.0);
    }

    #[test]
    fn out_of_order_tags_match_correctly() {
        let report = run(MachineConfig::new(2, 1), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, 10u64);
                comm.send(1, 2, 20u64);
                0
            } else {
                // Receive in the opposite order of sending.
                let b: u64 = comm.recv(0, 2);
                let a: u64 = comm.recv(0, 1);
                a * 100 + b
            }
        });
        assert_eq!(report.results[1], 1020);
    }

    #[test]
    fn recv_any_reports_source() {
        let report = run(MachineConfig::new(3, 1), |comm| {
            if comm.rank() == 0 {
                let mut seen = vec![];
                for _ in 0..2 {
                    let (src, v): (usize, u64) = comm.recv_any(5);
                    seen.push((src, v));
                }
                seen.sort_unstable();
                seen
            } else {
                comm.send(0, 5, comm.rank() as u64 * 11);
                vec![]
            }
        });
        assert_eq!(report.results[0], vec![(1, 11), (2, 22)]);
    }

    #[test]
    fn receiving_advances_clock_past_arrival() {
        let report = run(MachineConfig::new(2, 1), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![0u8; 1000]);
            } else {
                let _: Vec<u8> = comm.recv(0, 0);
            }
            comm.now()
        });
        let cfg = MachineConfig::new(2, 1);
        // Receiver must be at least latency + bytes*gap + overheads.
        let min = cfg.net.latency + cfg.net.gap_per_byte.scale(1008);
        assert!(report.results[1] > min);
        // Sender only paid its overhead.
        assert_eq!(report.results[0], cfg.net.overhead);
    }

    #[test]
    fn intra_node_messages_skip_latency() {
        // Two ranks on one quad-core node vs two ranks on separate nodes.
        let t_intra = run(MachineConfig::new(1, 4), |comm| {
            match comm.rank() {
                0 => comm.send(1, 0, vec![0u8; 4096]),
                1 => {
                    let _: Vec<u8> = comm.recv(0, 0);
                }
                _ => {}
            }
            comm.now()
        })
        .results[1];
        let t_inter = run(MachineConfig::new(2, 4), |comm| {
            match comm.rank() {
                0 => comm.send(4, 0, vec![0u8; 4096]),
                4 => {
                    let _: Vec<u8> = comm.recv(0, 0);
                }
                _ => {}
            }
            comm.now()
        })
        .results[4];
        assert!(
            t_intra < t_inter,
            "intra-node {t_intra} should beat inter-node {t_inter}"
        );
    }

    #[test]
    fn recv_from_selects_source() {
        let report = run(MachineConfig::new(3, 1), |comm| {
            if comm.rank() == 0 {
                // Both peers send; pull rank 2's first explicitly, then any.
                let (s2, v2): (usize, u64) = comm.recv_from(Source::Rank(2), 4);
                let (s1, v1): (usize, u64) = comm.recv_from(Source::Any, 4);
                vec![(s2, v2), (s1, v1)]
            } else {
                comm.send(0, 4, comm.rank() as u64 * 7);
                vec![]
            }
        });
        assert_eq!(report.results[0], vec![(2, 14), (1, 7)]);
    }

    #[test]
    fn sendrecv_pairwise() {
        let report = run(MachineConfig::new(2, 1), |comm| {
            let peer = 1 - comm.rank();
            let got: u64 = comm.sendrecv(peer, peer, 3, comm.rank() as u64);
            got
        });
        assert_eq!(report.results, vec![1, 0]);
    }

    #[test]
    fn charge_flops_advances_compute() {
        let report = run(MachineConfig::new(1, 1), |comm| {
            comm.charge_flops(1000);
            (comm.now(), comm.counters().flops)
        });
        let cfg = MachineConfig::new(1, 1);
        assert_eq!(report.results[0], (cfg.core.flops(1000), 1000));
    }
}
