//! # ppm-simnet — a deterministic simulated cluster
//!
//! This crate is the machine substrate for the Parallel Phase Model (PPM)
//! reproduction. The paper evaluated PPM on "Franklin", a Cray XT4 with
//! quad-core nodes; we do not have that machine, so every experiment runs on
//! a *simulated* distributed-memory cluster instead:
//!
//! * **Real execution, modeled time.** Endpoints (nodes or ranks) are OS
//!   threads running real Rust code and exchanging real data through the
//!   [`router`]. Time, however, is simulated: computation is charged
//!   explicitly by the kernels and communication is charged from a
//!   LogGP-style cost model ([`config::NetParams`]). Reported runtimes are
//!   simulated makespans, so results are deterministic and independent of
//!   host load or host core count.
//! * **Cost model.** An off-node message of `b` bytes costs the sender `o`
//!   CPU, travels `L + G·b`, and costs the receiver `o` CPU. Intra-node
//!   messages take a cheaper shared-memory path. Cores of a node share one
//!   NIC: uncoordinated per-core senders see the per-byte gap multiplied by
//!   the sharing factor, which is how the paper's NIC-contention argument
//!   (§3.3) enters the model.
//!
//! Layers above: [`ppm-mps`](../ppm_mps/index.html) builds an MPI-like
//! interface on these endpoints; [`ppm-core`](../ppm_core/index.html) builds
//! the PPM runtime. Both run the collective algorithms of [`coll`], each
//! over its own transport.

#![deny(unsafe_code)]

pub mod clock;
pub mod cluster;
pub mod coll;
pub mod config;
pub mod fault;
pub mod message;
pub mod router;
pub mod stats;
pub mod time;
pub mod trace;
pub mod wire;

pub use clock::Clock;
pub use cluster::{run, run_traced, EndpointCtx, JobReport};
pub use config::{CoreParams, MachineConfig, NetParams, Route};
pub use fault::{
    CrashFault, FaultAction, FaultConfig, FaultEvent, FaultPlan, PermanentCrash, TargetedFault,
    KIND_ANY,
};
pub use message::{Message, RelMeta};
pub use router::{make_router, Endpoint, Filter, TagClass};
pub use stats::{Counters, ReliabilitySummary};
pub use time::SimTime;
pub use trace::{validate_json, ArgValue, EventKind, TraceEvent, TraceSink, Tracer};
pub use wire::WireSize;
