//! Read slots: where a VP's suspended remote reads park, and the requests
//! that go out for them.

#[cfg(feature = "byte-ledger")]
use crate::ledger::bytes;
use crate::ledger::{ledger, Held, SLOTS};

/// `i` as the `u32` position of an element in a bulk read's output (what its
/// in-flight records — parked, deferred, repeated — store). Only a bulk read
/// of four billion elements trips it.
pub(crate) fn read_position(i: usize) -> u32 {
    assert!(i <= u32::MAX as usize, "bulk read overflow");
    i as u32
}

/// A read request for the next communication wave: VP `vp` wants element
/// `idx` of global array `array` and will receive its arena position in its
/// private slot `slot`. Queued by the VP's poll in [`super::Inner::reqs`],
/// under the element's owner. (The wire format is
/// [`crate::msgs::ReqEntry`]; a bulk read queues each distinct element once,
/// and requests from different reads are deduplicated per (destination,
/// array, index) when the wave is built.)
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedReq {
    pub array: u32,
    pub idx: u64,
    pub vp: u32,
    pub slot: u32,
}

#[derive(Clone, Copy)]
enum Slot {
    Free,
    Waiting,
    /// Answered: the value sits at this position of the array's response
    /// arena ([`super::GArray::arena_get`]). No value moves there, and the
    /// arena is emptied only at a global phase end or a construct entry.
    Filled(u32),
    /// The future that owned the slot was dropped before its response
    /// arrived (select-style cancellation); the late fill frees the slot.
    Cancelled,
}

/// Parking table for one VP's suspended remote reads. Lives in the VP's
/// [`super::VpState`]; the executor fills slots when a wave's responses
/// arrive and then wakes the owning VP.
#[derive(Default)]
pub(crate) struct VpSlots {
    slots: Vec<Slot>,
    free: Vec<u32>,
    held: Held<SLOTS>,
}

impl VpSlots {
    pub fn alloc(&mut self) -> u32 {
        match self.free.pop() {
            Some(i) => {
                debug_assert!(matches!(self.slots[i as usize], Slot::Free));
                self.slots[i as usize] = Slot::Waiting;
                i
            }
            None => {
                self.slots.push(Slot::Waiting);
                ledger!(self.held, bytes(&self.slots) + bytes(&self.free));
                // Only a VP with four billion reads parked at once trips it.
                u32::try_from(self.slots.len() - 1).expect("slot table overflow")
            }
        }
    }

    fn free(&mut self, slot: u32) {
        self.slots[slot as usize] = Slot::Free;
        self.free.push(slot);
        ledger!(self.held, bytes(&self.slots) + bytes(&self.free));
    }

    /// Record that the slot's value landed at arena position `pos`. The two
    /// panics cannot fire: a slot's one request is queued where it is
    /// allocated, the wave builder gives each queued request one waiter
    /// entry, and a response answers each entry once.
    pub fn fill(&mut self, slot: u32, pos: u32) {
        match self.slots[slot as usize] {
            Slot::Waiting => self.slots[slot as usize] = Slot::Filled(pos),
            Slot::Cancelled => self.free(slot),
            Slot::Filled(_) => panic!("slot {slot} filled twice"),
            Slot::Free => panic!("filling a free slot"),
        }
    }

    /// Whether the slot's response has arrived: its arena position waits for
    /// [`Self::try_take`].
    pub fn filled(&self, slot: u32) -> bool {
        matches!(self.slots[slot as usize], Slot::Filled(_))
    }

    /// Take the arena position if the slot has been filled; frees the slot.
    pub fn try_take(&mut self, slot: u32) -> Option<u32> {
        match self.slots[slot as usize] {
            Slot::Filled(pos) => {
                self.free(slot);
                Some(pos)
            }
            Slot::Waiting => None,
            // Cannot fire: a read future forgets its slot when it takes the
            // value (`Done`) and gives it up only in `Drop`.
            Slot::Free | Slot::Cancelled => panic!("polling a freed slot"),
        }
    }

    /// Slots not free (unit tests: a resolved or dropped read leaks none).
    #[cfg(test)]
    pub fn in_use(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Give up a slot whose future is being dropped unresolved. An answered
    /// slot frees now; a waiting one frees when its response arrives (the
    /// request is already queued or on the wire). Called from `Drop`, so it
    /// never panics.
    pub fn release(&mut self, slot: u32) {
        match self.slots[slot as usize] {
            Slot::Filled(_) => self.free(slot),
            Slot::Waiting => self.slots[slot as usize] = Slot::Cancelled,
            Slot::Free | Slot::Cancelled => {}
        }
    }
}

#[cfg(test)]
pub(super) mod tests {
    //! Each runs as `state::tests::<name>` (`state/tests.rs` has the list).
    use super::*;

    pub fn vp_slots_lifecycle() {
        let mut t = VpSlots::default();
        let s0 = t.alloc();
        let s1 = t.alloc();
        assert_ne!(s0, s1);
        assert!(t.try_take(s0).is_none());
        t.fill(s0, 7);
        assert_eq!(t.try_take(s0), Some(7));
        // freed slot is reused
        let s2 = t.alloc();
        assert_eq!(s2, s0);
        t.fill(s1, 2);
        t.fill(s2, 3);
        assert_eq!(t.try_take(s1), Some(2));
        assert_eq!(t.try_take(s2), Some(3));
    }

    pub fn double_fill_panics() {
        let mut t = VpSlots::default();
        let s = t.alloc();
        t.fill(s, 1);
        t.fill(s, 2);
    }

    /// A slot released by a dropped future is reusable exactly once: at
    /// once if its response had arrived, else after the late fill — which
    /// must not panic and must not hand the stale position to anyone.
    pub fn released_slots_free_without_leaking() {
        let mut t = VpSlots::default();
        let (early, late) = (t.alloc(), t.alloc());
        t.fill(early, 5);
        t.release(early);
        assert_eq!(t.alloc(), early, "answered slot frees on release");
        t.release(late);
        assert_eq!(
            t.alloc(),
            2,
            "a cancelled slot stays reserved until its fill"
        );
        t.fill(late, 9);
        assert_eq!(t.alloc(), late, "the late fill frees it");
        assert!(
            t.try_take(late).is_none(),
            "reallocated slot starts waiting"
        );
    }

    /// Bulk-read positions are `u32`: same boundary, same explicit assert.
    pub fn read_positions_are_checked_at_the_u32_boundary() {
        assert_eq!(read_position(0), 0);
        assert_eq!(read_position(u32::MAX as usize), u32::MAX);
        let over = std::panic::catch_unwind(|| read_position(u32::MAX as usize + 1));
        let msg = *over.unwrap_err().downcast::<&str>().unwrap();
        assert_eq!(msg, "bulk read overflow");
    }
}
