//! # ppm-core — the Parallel Phase Model
//!
//! A Rust implementation of the Parallel Phase Model (PPM), the programming
//! model of Brightwell, Heroux, Wen & Wu, *"Parallel Phase Model: A
//! Programming Model for High-end Parallel Machines with Manycores"*
//! (SAND2009-2287 / ICPP 2009), running on the deterministic simulated
//! cluster of [`ppm_simnet`].
//!
//! ## The model
//!
//! * **SPMD**: one program copy per node ([`run`] gives each node a
//!   [`NodeCtx`]).
//! * **Virtual processors**: [`NodeCtx::ppm_do`] is `PPM_do(K) func(...)` —
//!   it starts `K` virtual processors (VPs) running a *PPM function* (an
//!   `async` closure), multiplexed over the node's cores the way the
//!   paper's compiler lowers VPs to loops.
//! * **Two-level shared variables**: [`GlobalShared`] arrays span the
//!   cluster (block- or cyclic-distributed); [`NodeShared`] arrays live in
//!   one node's physical shared memory.
//! * **Parallel phases**: [`Vp::global_phase`] / [`Vp::node_phase`] give
//!   the super-step semantics of `PPM_global_phase` / `PPM_node_phase`:
//!   inside a phase every read sees the value from the start of the phase,
//!   writes publish at the end, and an implicit barrier ends the phase.
//!   There are no explicit barriers or locks anywhere in the model.
//! * **Runtime services**: fine-grained remote reads suspend VPs and are
//!   *bundled* into one message per destination per wave; writes are
//!   bundled at phase end with combining (`accumulate`) support;
//!   communication gap time overlaps computation; node-level collectives
//!   ([`NodeCtx::allreduce_nodes`], [`NodeCtx::exscan_nodes`], …) provide
//!   the paper's utility functions.
//!
//! ## Example: the paper's §5 binary search
//!
//! Find, for every element of `B`, its insertion point in a sorted global
//! array `A` — one VP per element of `B`, whole search in one global phase
//! (reads see the phase-start snapshot, so the loop of dependent reads is
//! legal and gets bundled wave by wave):
//!
//! ```
//! use ppm_core::{PpmConfig, run};
//!
//! let cfg = PpmConfig::franklin(2); // 2 nodes × 4 cores
//! let n = 64;
//! let k = 16;
//! let report = run(cfg, |node| {
//!     let a = node.alloc_global::<f64>(n);
//!     let b = node.alloc_node::<f64>(k);
//!     let rank_in_a = node.alloc_node::<u64>(k);
//!     // Initialize A (every node fills the part it owns) and B.
//!     let lo = node.local_range(&a).start;
//!     node.with_local_mut(&a, |s| {
//!         for (off, v) in s.iter_mut().enumerate() {
//!             *v = (lo + off) as f64 * 2.0;
//!         }
//!     });
//!     node.with_node_mut(&b, |s| {
//!         for (i, v) in s.iter_mut().enumerate() {
//!             *v = i as f64 * 7.3;
//!         }
//!     });
//!     node.ppm_do(k, move |vp| async move {
//!         let me = vp.node_rank();
//!         vp.global_phase(|ph| async move {
//!             let key = ph.get_node(&b, me);
//!             let (mut left, mut right) = (0usize, n);
//!             while left < right {
//!                 let mid = (left + right) / 2;
//!                 if ph.get(&a, mid).await < key {
//!                     left = mid + 1;
//!                 } else {
//!                     right = mid;
//!                 }
//!             }
//!             ph.put_node(&rank_in_a, me, right as u64);
//!         })
//!         .await;
//!     });
//!     node.with_node(&rank_in_a, |s| s.to_vec())
//! });
//! // Verify against a sequential binary search.
//! for ranks in &report.results {
//!     for (i, &r) in ranks.iter().enumerate() {
//!         let key = i as f64 * 7.3;
//!         let expect = (0..n).position(|j| j as f64 * 2.0 >= key).unwrap_or(n);
//!         assert_eq!(r as usize, expect);
//!     }
//! }
//! ```

#![deny(unsafe_code)]

mod balance;
pub mod bitset;
pub mod check;
mod coherence;
mod config;
mod cost;
mod dissem;
mod dist;
mod elem;
pub mod error;
mod exec;
mod failover;
pub mod ledger;
pub mod msgs;
mod nodecoll;
mod nodectx;
mod reliable;
mod shared;
mod state;
pub mod testkit;
pub mod util;
mod vp;

pub use bitset::NodeSet;
pub use check::{PhaseViolation, Space};
pub use config::PpmConfig;
pub use dist::{Dist, Layout};
pub use elem::{AccumElem, AccumOp, ByteHash, ByteHasher, Elem};
pub use error::RecoveryError;
pub use nodectx::NodeCtx;
pub use shared::{GlobalShared, NodeShared};
pub use state::PhaseKind;
pub use vp::{GetFut, GetManyFut, Phase, Vp};

use ppm_simnet::JobReport;
pub use ppm_simnet::{TraceEvent, TraceSink, Tracer};

/// Run an SPMD PPM job: one node runtime per cluster node.
///
/// The closure is each node's copy of the program; its return values are
/// collected per node. The report's makespan is the job's simulated
/// runtime.
pub fn run<R, F>(cfg: PpmConfig, f: F) -> JobReport<R>
where
    R: Send,
    F: for<'c> Fn(&mut NodeCtx<'c>) -> R + Send + Sync,
{
    run_inner(cfg, None, f)
}

/// [`run`] with per-phase tracing: the job is registered on `sink` as one
/// trace process named `label`, and every node records phase spans, wave
/// events, barrier spans, reliability events, and per-phase counter deltas
/// to its own track (see `ppm_simnet::trace` and DESIGN.md §11).
///
/// Tracing charges no simulated time and touches no counters: results,
/// makespan, and `Counters` are bit-identical to the same job under
/// [`run`] (asserted by tests).
pub fn run_traced<R, F>(cfg: PpmConfig, sink: &TraceSink, label: &str, f: F) -> JobReport<R>
where
    R: Send,
    F: for<'c> Fn(&mut NodeCtx<'c>) -> R + Send + Sync,
{
    run_inner(cfg, Some((sink, label)), f)
}

fn run_inner<R, F>(cfg: PpmConfig, trace: Option<(&TraceSink, &str)>, f: F) -> JobReport<R>
where
    R: Send,
    F: for<'c> Fn(&mut NodeCtx<'c>) -> R + Send + Sync,
{
    ppm_simnet::run_traced(cfg.nodes(), cfg.machine, trace, move |ep| {
        let mut node = NodeCtx::new(ep, cfg);
        f(&mut node)
    })
}
