//! # ppm-mps — an MPI-like message-passing substrate
//!
//! The paper's baselines are MPI programs run with one process per core
//! (§4.1, §4.5). This crate provides the equivalent substrate on top of the
//! simulated cluster in [`ppm_simnet`]: a job of `nodes × cores_per_node`
//! *ranks*, each with
//!
//! * tag-matched blocking point-to-point operations
//!   ([`Comm::send`] / [`Comm::recv`] / [`Comm::sendrecv`] /
//!   [`Comm::recv_any`]), and
//! * collectives implemented as real message algorithms
//!   (barrier, bcast, reduce, allreduce, scan, exscan, gather, allgather,
//!   alltoallv) whose simulated cost emerges from the network model —
//!   the algorithms of [`ppm_simnet::coll`], which the PPM runtime's node
//!   collectives run too.
//!
//! Cost fidelity points baked in, matching the paper's discussion:
//!
//! * ranks on the same node exchange messages through a cheaper
//!   shared-memory path that still pays per-message overhead (the paper's
//!   intra-node MPI overhead without SmartMap);
//! * off-node traffic from a rank contends with the node's other cores for
//!   the single NIC (per-byte gap × `cores_per_node`).
//!
//! # Example
//!
//! ```
//! use ppm_simnet::MachineConfig;
//!
//! // 2 nodes × 4 cores = 8 ranks, like a slice of the paper's Franklin.
//! let report = ppm_mps::run(MachineConfig::franklin(2), |comm| {
//!     comm.allreduce(comm.rank() as u64, |a, b| a + b)
//! });
//! assert!(report.results.iter().all(|&t| t == 28));
//! ```

#![deny(unsafe_code)]

mod collectives;
mod comm;
pub mod tags;

pub use comm::{Comm, Source};

use ppm_simnet::{JobReport, MachineConfig};

/// Run an SPMD job with one rank per core of the machine.
pub fn run<R, F>(config: MachineConfig, f: F) -> JobReport<R>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Send + Sync,
{
    ppm_simnet::run(config.total_cores() as usize, config, |ctx| {
        let mut comm = Comm::new(ctx);
        f(&mut comm)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_rank_per_core() {
        let report = run(MachineConfig::new(3, 4), |comm| (comm.rank(), comm.node()));
        assert_eq!(report.results.len(), 12);
        assert_eq!(report.results[5], (5, 1));
        assert_eq!(report.results[11], (11, 2));
    }
}
