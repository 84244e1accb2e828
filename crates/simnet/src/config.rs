//! Machine description and communication/computation cost model.
//!
//! The model is LogGP-flavoured: a point-to-point message of `b` bytes costs
//! the sender `o` CPU time, travels for `L + G·b` wire time, and costs the
//! receiver `o` CPU time. Messages between endpoints on the *same* node skip
//! the network and instead pay a cheaper shared-memory copy path
//! (`o_intra + G_intra·b`), mirroring the paper's observation (§4.5) that
//! intra-node MPI traffic still goes through the message-passing stack.
//! Both runtimes pay this step through one pair of methods,
//! [`EndpointCtx::charge_send`](crate::EndpointCtx::charge_send) /
//! [`charge_recv`](crate::EndpointCtx::charge_recv), given a [`Route`].
//!
//! NIC contention (paper §3.3): all cores of a node share one network
//! interface. Uncoordinated per-core senders (MPI ranks) see the per-byte gap
//! inflated by the node's core count — [`MachineConfig::route`] is where that
//! rule lives — while a node-level sender that owns the NIC (the PPM runtime)
//! sees the raw gap ([`Route::NODE`]).

use crate::fault::FaultConfig;
use crate::time::SimTime;

/// Network cost parameters. Defaults are calibrated to a 2009 Cray XT4
/// (SeaStar2) as used by the paper's "Franklin" platform; see DESIGN.md §6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetParams {
    /// One-way wire latency for an off-node message.
    pub latency: SimTime,
    /// Per-byte gap (inverse injection bandwidth) for off-node traffic.
    pub gap_per_byte: SimTime,
    /// CPU overhead charged to each side of an off-node message.
    pub overhead: SimTime,
    /// CPU overhead charged to each side of an intra-node message.
    pub intra_overhead: SimTime,
    /// Per-byte copy cost for intra-node messages.
    pub intra_gap_per_byte: SimTime,
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            latency: SimTime::from_us(6),
            gap_per_byte: SimTime::from_ps(550),
            overhead: SimTime::from_ns(1_500),
            intra_overhead: SimTime::from_ns(900),
            intra_gap_per_byte: SimTime::from_ps(350),
        }
    }
}

impl NetParams {
    /// CPU time the sender spends injecting a message (per-message stack
    /// overhead; the per-byte cost is wire-side, see [`Self::wire_time`]).
    #[inline]
    pub fn send_cpu(&self, _bytes: usize, intra: bool) -> SimTime {
        if intra {
            self.intra_overhead
        } else {
            self.overhead
        }
    }

    /// Wire (or memory-copy) transfer time for a message of `bytes` bytes.
    #[inline]
    pub fn wire_time(&self, bytes: usize, intra: bool, nic_share: u32) -> SimTime {
        if intra {
            self.intra_gap_per_byte.scale(bytes as u64)
        } else {
            self.latency
                + self
                    .gap_per_byte
                    .scale(bytes as u64)
                    .scale(nic_share as u64)
        }
    }

    /// CPU time the receiver spends draining a message of `bytes` bytes.
    #[inline]
    pub fn recv_cpu(&self, _bytes: usize, intra: bool) -> SimTime {
        if intra {
            self.intra_overhead
        } else {
            self.overhead
        }
    }
}

/// How one point-to-point message travels, for the LogGP step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Both ends on one node: the shared-memory copy path.
    pub intra: bool,
    /// Uncoordinated senders sharing the node's NIC; an off-node message's
    /// per-byte gap is multiplied by it.
    pub nic_share: u32,
}

impl Route {
    /// A node-level sender that owns its NIC (the PPM runtime): off-node,
    /// share 1.
    pub const NODE: Route = Route {
        intra: false,
        nic_share: 1,
    };
}

/// Per-core computation cost parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreParams {
    /// Time per floating-point operation in a sparse/irregular kernel.
    pub flop: SimTime,
    /// Time per charged memory operation (used where kernels are
    /// memory-bound and the app charges loads/stores explicitly).
    pub mem_op: SimTime,
}

impl Default for CoreParams {
    fn default() -> Self {
        CoreParams {
            flop: SimTime::from_ps(800),
            mem_op: SimTime::from_ps(1_200),
        }
    }
}

impl CoreParams {
    /// Cost of `n` floating-point operations.
    #[inline]
    pub fn flops(&self, n: u64) -> SimTime {
        self.flop.scale(n)
    }

    /// Cost of `n` charged memory operations.
    #[inline]
    pub fn mem_ops(&self, n: u64) -> SimTime {
        self.mem_op.scale(n)
    }
}

/// Shape and cost model of the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Number of cluster nodes.
    pub nodes: u32,
    /// Cores per node (the paper's Franklin has 4).
    pub cores_per_node: u32,
    /// Network cost parameters.
    pub net: NetParams,
    /// Core cost parameters.
    pub core: CoreParams,
    /// Fault-injection model (defaults to no faults; see
    /// [`crate::fault`]).
    pub faults: FaultConfig,
}

impl MachineConfig {
    /// A machine of `nodes` nodes with `cores_per_node` cores each and
    /// Franklin-calibrated cost constants.
    pub fn new(nodes: u32, cores_per_node: u32) -> Self {
        assert!(nodes >= 1, "machine needs at least one node");
        assert!(cores_per_node >= 1, "nodes need at least one core");
        MachineConfig {
            nodes,
            cores_per_node,
            net: NetParams::default(),
            core: CoreParams::default(),
            faults: FaultConfig::NONE,
        }
    }

    /// Enable fault injection (see [`crate::fault::FaultConfig`]).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// The paper's platform shape: quad-core nodes (§4.1).
    pub fn franklin(nodes: u32) -> Self {
        MachineConfig::new(nodes, 4)
    }

    /// Total cores in the machine.
    #[inline]
    pub fn total_cores(&self) -> u32 {
        self.nodes * self.cores_per_node
    }

    /// Node that hosts a given core-indexed rank (rank layout is
    /// node-major: ranks `[n·C, (n+1)·C)` live on node `n`).
    #[inline]
    pub fn node_of_rank(&self, rank: u32) -> u32 {
        rank / self.cores_per_node
    }

    /// Whether two core-indexed ranks share a node.
    #[inline]
    pub fn same_node(&self, a: u32, b: u32) -> bool {
        self.node_of_rank(a) == self.node_of_rank(b)
    }

    /// How a message between two core-indexed ranks travels: the
    /// shared-memory path on one node; otherwise the network, its per-byte
    /// gap shared among the node's `cores_per_node` ranks (one rank per
    /// core, each injecting on its own).
    #[inline]
    pub fn route(&self, a: u32, b: u32) -> Route {
        let intra = self.same_node(a, b);
        let nic_share = if intra { 1 } else { self.cores_per_node };
        Route { intra, nic_share }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn franklin_shape() {
        let m = MachineConfig::franklin(8);
        assert_eq!(m.nodes, 8);
        assert_eq!(m.cores_per_node, 4);
        assert_eq!(m.total_cores(), 32);
    }

    #[test]
    fn rank_to_node_mapping() {
        let m = MachineConfig::franklin(4);
        assert_eq!(m.node_of_rank(0), 0);
        assert_eq!(m.node_of_rank(3), 0);
        assert_eq!(m.node_of_rank(4), 1);
        assert_eq!(m.node_of_rank(15), 3);
        assert!(m.same_node(0, 3));
        assert!(!m.same_node(3, 4));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        MachineConfig::new(0, 4);
    }

    #[test]
    fn intra_node_cheaper_than_network() {
        let net = NetParams::default();
        let b = 4096;
        let off = net.wire_time(b, false, 1) + net.recv_cpu(b, false);
        let on = net.wire_time(b, true, 1) + net.recv_cpu(b, true);
        assert!(on < off, "intra-node path must be cheaper: {on} vs {off}");
    }

    #[test]
    fn nic_sharing_inflates_gap() {
        let net = NetParams::default();
        let shared = net.wire_time(1000, false, 4);
        let exclusive = net.wire_time(1000, false, 1);
        assert!(shared > exclusive);
        // latency itself is not scaled, only the per-byte term
        let diff = shared - exclusive;
        assert_eq!(diff, net.gap_per_byte.scale(1000).scale(3));
    }

    #[test]
    fn zero_byte_message_costs_latency_and_overhead_only() {
        let net = NetParams::default();
        assert_eq!(net.wire_time(0, false, 1), net.latency);
    }

    #[test]
    fn faults_default_off_and_builders_set_them() {
        let m = MachineConfig::new(2, 2);
        assert!(!m.faults.enabled());
        let m = m.with_faults(FaultConfig::seeded(1, 0.1, 0.0, 0.0));
        assert!(m.faults.enabled());
        assert_eq!(m.faults.seed, 1);
    }

    #[test]
    fn core_costs_scale_linearly() {
        let c = CoreParams::default();
        assert_eq!(c.flops(10), c.flop.scale(10));
        assert_eq!(c.mem_ops(3), c.mem_op.scale(3));
        assert_eq!(c.flops(0), SimTime::ZERO);
    }
}
