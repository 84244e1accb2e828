//! Per-node runtime state and what a VP poll writes into.
//!
//! Everything a virtual processor touches while running (shared-array
//! storage, write logs, pending read requests, phase bookkeeping, per-core
//! compute accounting) lives in [`Inner`], which the node's thread owns by
//! value. For each poll the executor moves the boxed `Inner` and the polled
//! VP's own [`VpState`] into a thread-local poll context and back after it,
//! so the shared accesses inside the poll take no lock and write their
//! effects where the node keeps them ([`VpCell::with_poll`]): writes into
//! the array's log, read requests into the queue of the element's owner,
//! phase entry and arrival, tile faults, counters and compute. One thread
//! polls a node's VPs, in ascending rank, which is what makes a round's
//! effects equal a sequential ascending-rank schedule's (see `exec` and
//! DESIGN.md §12). During a phase body the live arrays are immutable
//! (writes are *buffered*).
//!
//! One file per thing stored: `wlog` the write log — a bucket per owner,
//! which is the parcel that ships — and the owner's fold; `slots` a VP's parked reads and the requests
//! queued for them; `table` the first-occurrence table; `cell` the VP cell,
//! its own state and the poll context; `arrays` array storage and the one
//! erased boundary over it; `tiles` tile residency and faults; `inner`
//! [`Inner`].
//!
//! Phase semantics are implemented here:
//!
//! * reads see phase-start values because writes are *buffered* (the live
//!   arrays are never mutated during a phase body);
//! * `put` conflicts resolve deterministically by write key — (global VP
//!   rank, program order) — last writer wins;
//! * `accumulate` writes ship as rank-keyed raw contributions (one bundle
//!   *entry* per node per element, carrying that node's contribution list)
//!   and the owner flat-folds them in ascending (global VP rank, program
//!   order) — a *canonical* order independent of where
//!   partition boundaries fall, so floating-point results are
//!   bit-reproducible and **placement-invariant**: any contiguous
//!   repartitioning (see `balance.rs`) folds the same contributions in the
//!   same order and produces the same bits. Wire cost still charges one
//!   combined value per entry — combining is modeled as done sender-side,
//!   the rank tags ride free like other protocol sidecars;
//! * mixing `put` and `accumulate` on the same element in the same phase is
//!   a programming error and panics.

mod arrays;
mod cell;
mod inner;
mod slots;
mod table;
mod tiles;
mod wlog;

pub(crate) use arrays::{array_mut, array_ref, Arrays, GArray, GArrayObj, Values};
pub(crate) use cell::{PollGuard, VpCell, VpState};
pub use inner::PhaseKind;
pub(crate) use inner::{DoMode, Inner, Traffic};
pub(crate) use slots::{read_position, QueuedReq, VpSlots};
pub(crate) use table::FirstSeen;
pub(crate) use tiles::{ArrayTiles, TileBudget, TileFaults};
pub(crate) use wlog::{WKind, WriteParcel};

/// Bump one of the unit-test builds' per-thread cost counters
/// (`POLL_ENTRIES` and its neighbours); nothing in any other build.
macro_rules! count {
    ($counter:path) => {
        #[cfg(test)]
        $counter.with(|n| n.set(n.get() + 1));
    };
}
pub(crate) use count;

#[cfg(test)]
thread_local! {
    /// [`VpCell::with_poll`] entries, typed-array downcasts,
    /// and the write log's `Dist::owner` look-ups by the calling thread
    /// (unit-test builds only): a bulk access must cost O(1) of the first
    /// two, and a contiguous layout one look-up per destination.
    pub(crate) static POLL_ENTRIES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    pub(crate) static DOWNCASTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    pub(crate) static OWNER_LOOKUPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests;
