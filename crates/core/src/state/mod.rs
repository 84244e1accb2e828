//! Per-node runtime state and what a VP poll records into.
//!
//! Everything a virtual processor touches while running (shared-array
//! storage, write buffers, pending read requests, phase bookkeeping,
//! per-core compute accounting) lives in [`Inner`], which the node's
//! thread owns by value. During a phase body the live arrays are immutable
//! (writes are *buffered*), so the part of `Inner` a VP reads — [`Frozen`]
//! — sits behind an `Arc` of its own: each poll parks a clone of the
//! round's in a thread-local beside the VP's private [`VpScratch`], which
//! the driver moves in for the poll and takes back after it, so the shared
//! accesses inside the poll take no lock ([`VpCell::with_poll`]). Every side effect a VP produces — buffered
//! writes, read requests, counter deltas, checker reports, phase
//! entry/arrival — goes into that scratch. The executor merges scratches
//! into `Inner` in ascending VP-rank order after each poll round, which is
//! what makes a round's effects equal a sequential ascending-rank
//! schedule's (see `exec` and DESIGN.md §12).
//!
//! One file per thing stored: `wlog` the write log, its sort and the
//! parcels it resolves into; `slots` a VP's parked reads and the requests
//! queued for them; `table` the first-occurrence table; `cell` the VP cell,
//! its scratch and the poll context; `arrays` array storage and the one
//! erased boundary over it; `tiles` tile residency; `inner` [`Inner`] and
//! [`Frozen`].
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

pub(crate) use arrays::{array_mut, array_ref, GArray, GArrayObj, Values};
pub(crate) use cell::{merge_vp, with_first_seen, GetOutcome, PollGuard, VpCell, VpScratch};
pub(crate) use inner::{DoMode, Frozen, Inner, Traffic};
pub use inner::{PhaseKind, PhaseRecord};
pub(crate) use slots::{read_position, QueuedReq, ScratchReq, VpSlots};
pub(crate) use table::{FirstSeen, TableKey};
pub(crate) use tiles::{ArrayTiles, TileBudget};
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
    /// [`VpCell::with_poll`] entries, typed-array and write-log downcasts,
    /// and the drain's `Dist::owner` look-ups by the calling thread
    /// (unit-test builds only): a bulk access must cost O(1) of the first
    /// two and one look-up per destination run.
    pub(crate) static POLL_ENTRIES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    pub(crate) static DOWNCASTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    pub(crate) static OWNER_LOOKUPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests;
