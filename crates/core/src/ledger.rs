//! Live heap bytes by owner, for the figure binaries' host-memory lines:
//! an owner keeps a `Held` beside its buffers and sets it with `ledger!`
//! where they grow. Counted only with the `byte-ledger` feature; without it
//! a `Held` is empty and `ledger!` expands to nothing.

/// The owners, in `at_peak`'s order; a `Held`'s parameter indexes it.
pub const OWNERS: [&str; 7] = [
    "parked bulk reads",
    "inner.reqs",
    "slot tables",
    "arena + read cache",
    "serve history",
    "partitions",
    "write log",
];
pub(crate) const PARKED: usize = 0;
pub(crate) const REQS: usize = 1;
pub(crate) const SLOTS: usize = 2;
pub(crate) const ARENA: usize = 3;
pub(crate) const SERVES: usize = 4;
pub(crate) const PARTS: usize = 5;
pub(crate) const WLOG: usize = 6;

/// The bytes a set of buffers of owner `O` holds, in `O`'s total until
/// dropped.
#[derive(Default)]
pub(crate) struct Held<const O: usize>(#[cfg(feature = "byte-ledger")] usize);

/// `$held.set($bytes)` with the `byte-ledger` feature; nothing without it
/// (`$bytes` is not evaluated).
macro_rules! ledger {
    ($held:expr, $bytes:expr) => {
        #[cfg(feature = "byte-ledger")]
        $held.set($bytes);
        #[cfg(not(feature = "byte-ledger"))]
        let _ = &mut $held;
    };
}
pub(crate) use ledger;

#[cfg(feature = "byte-ledger")]
pub(crate) use counted::bytes;
#[cfg(feature = "byte-ledger")]
pub use counted::{at_peak, mark_peak};

#[cfg(feature = "byte-ledger")]
mod counted {
    use super::{Held, OWNERS};
    use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

    const N: usize = OWNERS.len();
    static LIVE: [AtomicIsize; N] = [const { AtomicIsize::new(0) }; N];
    static AT_PEAK: [AtomicIsize; N] = [const { AtomicIsize::new(0) }; N];

    /// Take every owner's live bytes as the ones at the heap peak: for a
    /// counting allocator to call when the live heap reaches a new high.
    pub fn mark_peak() {
        (0..N).for_each(|o| AT_PEAK[o].store(LIVE[o].load(Relaxed), Relaxed));
    }

    /// Each owner's live bytes at the last [`mark_peak`].
    pub fn at_peak() -> [(&'static str, u64); N] {
        std::array::from_fn(|o| (OWNERS[o], AT_PEAK[o].load(Relaxed).max(0) as u64))
    }

    /// The bytes behind `v`'s capacity.
    pub fn bytes<T>(v: &Vec<T>) -> usize {
        v.capacity() * std::mem::size_of::<T>()
    }

    impl<const O: usize> Held<O> {
        pub fn set(&mut self, bytes: usize) {
            let was = std::mem::replace(&mut self.0, bytes);
            LIVE[O].fetch_add(bytes as isize - was as isize, Relaxed);
        }
    }

    impl<const O: usize> Drop for Held<O> {
        fn drop(&mut self) {
            self.set(0);
        }
    }
}
