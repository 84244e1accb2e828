//! Message transport between simulated endpoints.
//!
//! The router gives every endpoint one unbounded queue, in enqueue order,
//! under a mutex. Delivery preserves per-sender FIFO order (messages from A
//! to B are queued in the order A sent them), which the PPM phase protocol
//! relies on: a node's read requests always precede its end-of-phase write
//! bundle on the same channel.
//!
//! Matching happens here, not above: a receive names a [`Filter`] — a tag,
//! optionally a sender, and optionally a tag class that always matches —
//! and takes the first queued message the filter accepts. A receiver that
//! finds none parks with its filter recorded, and a sender wakes it only if
//! the message it enqueues matches. So a blocked endpoint sleeps through
//! traffic it does not want yet; that traffic stays queued, in order, for
//! the receive that asks for it. [`Endpoint::recv`] is the filter that
//! accepts everything: a plain FIFO receive.
//!
//! Deadlock is a state, not a timeout. Beside the inboxes the router
//! counts the endpoints that can still send: neither parked in a receive
//! nor dropped. A park takes one off, a send that wakes a parked receiver
//! puts one back, a drop takes one off. When the count reaches zero no
//! parked receive can ever be matched, and every one of them returns
//! `None` at once (see [`make_router`] for the one condition).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::message::Message;

/// The tags `t` with `t & mask == bits`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagClass {
    /// Tag bits that decide membership.
    pub mask: u64,
    /// Their value for members.
    pub bits: u64,
}

/// Which queued messages a receive takes: the wanted `tag` from `src` (any
/// sender when `None`), or any message in the `always` class — traffic the
/// caller serves inline whatever it is waiting for (PPM's read requests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Filter {
    /// The wanted tag.
    pub tag: u64,
    /// The wanted sender; `None` accepts the tag from anyone.
    pub src: Option<usize>,
    /// Tags accepted from anyone, whatever `tag` and `src` say.
    pub always: Option<TagClass>,
}

impl Filter {
    /// Accepts every message: the class of all tags.
    pub const ANY: Filter = Filter {
        tag: 0,
        src: None,
        always: Some(TagClass { mask: 0, bits: 0 }),
    };

    /// Whether this filter accepts `m`.
    pub fn matches(&self, m: &Message) -> bool {
        (m.tag == self.tag && self.src.is_none_or(|s| s == m.src))
            || self.always.is_some_and(|c| m.tag & c.mask == c.bits)
    }
}

/// One endpoint's queue and the condition its owner parks on.
#[derive(Default)]
struct Inbox {
    queue: Mutex<Queue>,
    wake: Condvar,
    /// Fail-stop marker: once set, traffic addressed here is black-holed
    /// (silently swallowed) instead of enqueued or reported as a hung-up
    /// peer. See [`Endpoint::mark_dead`].
    dead: AtomicBool,
}

#[derive(Default)]
struct Queue {
    msgs: VecDeque<Message>,
    /// The filter the owner is parked on, while it is off the count of
    /// endpoints that can send. A receive the router ended stays parked.
    parked: Option<Filter>,
    /// Set when the owning endpoint is dropped: sends report a hung-up peer.
    closed: bool,
}

impl Inbox {
    /// Lock the queue. A thread that panics while holding it poisons the
    /// lock, but the queue is still whole: no mutation here is left half
    /// done by anything that can panic. Taking it anyway keeps a peer's
    /// `send` from failing with a `PoisonError` that would hide the panic
    /// that caused it.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
thread_local! {
    /// Parked receivers this thread's sends woke (unit-test builds only).
    static WAKES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Per-endpoint transport handle.
pub struct Endpoint {
    id: usize,
    /// Every endpoint's inbox, one table shared by all endpoints: a
    /// clone per endpoint would make building the router O(n²).
    inboxes: Arc<[Inbox]>,
    /// How many endpoints are neither parked in a receive nor dropped,
    /// shared by all. Zero is a deadlock: nothing can send, so no parked
    /// receive can ever wake.
    live: Arc<AtomicUsize>,
}

impl Endpoint {
    /// This endpoint's id.
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of endpoints in the job.
    #[inline]
    pub fn len(&self) -> usize {
        self.inboxes.len()
    }

    /// Whether the job has zero endpoints. [`make_router`] guarantees at
    /// least one, so this is `false` for any endpoint it built — but it is
    /// computed honestly from the peer table, not hard-coded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inboxes.is_empty()
    }

    /// Endpoint `peer`'s inbox; panics naming `peer` if the job has no
    /// such endpoint.
    fn inbox(&self, peer: usize) -> &Inbox {
        match self.inboxes.get(peer) {
            Some(inbox) => inbox,
            None => panic!("no endpoint {peer} in a {}-endpoint job", self.len()),
        }
    }

    /// Deliver a message to its destination's inbox. Panics with the
    /// in-flight message's coordinates if the destination hung up
    /// (use [`Self::try_send`] to attach richer protocol context).
    pub fn send(&self, msg: Message) {
        if let Err(msg) = self.try_send(msg) {
            panic!(
                "endpoint {} hung up (panicked?); in-flight message: \
                 src={} dst={} tag={:#018x} bytes={}",
                msg.dst, msg.src, msg.dst, msg.tag, msg.bytes
            );
        }
    }

    /// Deliver a message, returning it if the destination hung up so the
    /// caller can report what was in flight in its own vocabulary.
    /// Messages to an endpoint marked dead ([`Self::mark_dead`]) are
    /// black-holed: the send reports success and the message evaporates,
    /// the way a wire to lost hardware would. Wakes the destination only if
    /// it is parked on a filter this message matches.
    pub fn try_send(&self, msg: Message) -> Result<(), Message> {
        debug_assert_eq!(msg.src, self.id, "message src must be the sender");
        let inbox = self.inbox(msg.dst);
        if inbox.dead.load(Ordering::Acquire) {
            return Ok(());
        }
        let mut q = inbox.lock();
        if q.closed {
            return Err(msg);
        }
        let wake = q.parked.take_if(|f| f.matches(&msg)).is_some();
        q.msgs.push_back(msg);
        if wake {
            // The receiver can send again: count it back before it runs.
            self.live.fetch_add(1, Ordering::AcqRel);
            drop(q);
            #[cfg(test)]
            WAKES.set(WAKES.get() + 1);
            inbox.wake.notify_one();
        }
        Ok(())
    }

    /// Declare this endpoint permanently dead (fail-stop): all future
    /// traffic addressed to it is black-holed rather than delivered, and
    /// senders never observe it as a hung-up peer even after its thread
    /// exits. Irreversible.
    pub fn mark_dead(&self) {
        self.inbox(self.id).dead.store(true, Ordering::Release);
    }

    /// Block until any message arrives. Panics if the router ends the
    /// receive ([`Self::deadlocked`]).
    pub fn recv(&self) -> Message {
        let any = Filter::ANY;
        (self.recv_match(&any)).unwrap_or_else(|| self.deadlocked(&any, ""))
    }

    /// Block until a message the filter `want` accepts is queued, and take
    /// the first one in queue order. What the receive passes over stays
    /// queued, in order, and nothing above sees it until a receive takes
    /// it: a layer's per-message bookkeeping belongs on the taken message.
    ///
    /// `None` means deadlock: no endpoint can send any more, so nothing
    /// `want` accepts can ever arrive ([`Self::deadlocked`]). Traffic
    /// `want` does not accept never wakes this receive, and while its
    /// sender lives the receive is not deadlocked: the sender counts.
    pub fn recv_match(&self, want: &Filter) -> Option<Message> {
        let inbox = self.inbox(self.id);
        let mut q = inbox.lock();
        // Messages before `at` were already checked against `want`. Only
        // this thread removes from the queue, so they stay put while parked.
        let mut at = 0;
        loop {
            while at < q.msgs.len() {
                if want.matches(&q.msgs[at]) {
                    // Cannot fire: `at < q.msgs.len()` was tested above.
                    return Some(q.msgs.remove(at).expect("index is in bounds"));
                }
                at += 1;
            }
            // Once per park, not per spurious wake: the send that wakes
            // this receive clears `parked` and counts it back.
            if q.parked.replace(*want).is_none() {
                self.leave();
            }
            if self.live.load(Ordering::Acquire) == 0 {
                return None;
            }
            q = (inbox.wake.wait(q)).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Take this endpoint off the count of those that can send. The one
    /// that takes it to zero wakes every other parked receive, skipping
    /// its own inbox, which a parking caller holds.
    fn leave(&self) {
        if self.live.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        for (id, inbox) in self.inboxes.iter().enumerate() {
            // Taking the lock orders this after the receiver's check of
            // the count: it is waiting, or it will see zero.
            if id != self.id && inbox.lock().parked.is_some() {
                inbox.wake.notify_one();
            }
        }
    }

    /// Whether the router ended this endpoint's receive as deadlocked: it
    /// is parked, yet its thread is not in a receive. What
    /// [`crate::cluster::run`] asks of an endpoint whose job panicked.
    pub(crate) fn ended_in_deadlock(&self) -> bool {
        self.inbox(self.id).lock().parked.is_some()
    }

    /// `(src, tag)` of every message queued here, in queue order: what a
    /// deadlock report lists.
    pub fn queued(&self) -> Vec<(usize, u64)> {
        let q = self.inbox(self.id).lock();
        q.msgs.iter().map(|m| (m.src, m.tag)).collect()
    }

    /// Panic for a receive the router ended while it waited for `filter`
    /// (`recv_match` returned `None`), with the caller's protocol-state
    /// `dump` (may be empty): a deadlocked run fails with a usable report.
    pub fn deadlocked(&self, filter: &Filter, dump: &str) -> ! {
        let sep = if dump.is_empty() { "" } else { "\n" };
        panic!(
            "endpoint {} deadlocked waiting for a message {filter:?}: \
             no endpoint can send{sep}{dump}",
            self.id
        )
    }
}

impl Drop for Endpoint {
    /// Close the inbox: later sends report a hung-up peer. What is still
    /// queued goes with the router. An endpoint whose receive the router
    /// ended is already off the count.
    fn drop(&mut self) {
        let mut q = self.inbox(self.id).lock();
        q.closed = true;
        if q.parked.is_none() {
            self.leave();
        }
    }
}

/// Create the transport for `n` endpoints.
///
/// Deadlock detection is exact when each endpoint is driven by a thread of
/// its own, as [`crate::cluster::run`] does: then an endpoint that is not
/// parked or dropped can still send. A thread that holds two endpoints and
/// parks on one keeps the other counted, and its receive waits for good.
pub fn make_router(n: usize) -> Vec<Endpoint> {
    assert!(n >= 1, "router needs at least one endpoint");
    let inboxes: Arc<[Inbox]> = (0..n).map(|_| Inbox::default()).collect();
    let live = Arc::new(AtomicUsize::new(n));
    (0..n)
        .map(|id| Endpoint {
            id,
            inboxes: Arc::clone(&inboxes),
            live: Arc::clone(&live),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn msg(src: usize, dst: usize, tag: u64, v: u64) -> Message {
        Message::new(src, dst, tag, SimTime::ZERO, 8, v)
    }

    #[test]
    fn self_send_and_recv() {
        let eps = make_router(1);
        eps[0].send(msg(0, 0, 1, 42));
        let m = eps[0].recv();
        assert_eq!(m.take::<u64>(), 42);
    }

    #[test]
    fn per_sender_fifo_order() {
        let eps = make_router(2);
        for i in 0..100u64 {
            eps[0].send(msg(0, 1, 0, i));
        }
        for i in 0..100u64 {
            assert_eq!(eps[1].recv().take::<u64>(), i);
        }
    }

    #[test]
    fn queued_lists_what_recv_takes() {
        let eps = make_router(2);
        assert!(eps[1].queued().is_empty());
        eps[0].send(msg(0, 1, 9, 7));
        assert_eq!(eps[1].queued(), [(0, 9)]);
        let m = eps[1].recv();
        assert_eq!(m.tag, 9);
        assert!(eps[1].queued().is_empty());
    }

    #[test]
    fn cross_thread_delivery() {
        let mut eps = make_router(2);
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        let t = std::thread::spawn(move || {
            let m = e1.recv();
            assert_eq!(m.src, 0);
            e1.send(msg(1, 0, 0, m.take::<u64>() + 1));
        });
        e0.send(msg(0, 1, 0, 10));
        assert_eq!(e0.recv().take::<u64>(), 11);
        t.join().unwrap();
    }

    #[test]
    fn endpoint_metadata() {
        let eps = make_router(3);
        assert_eq!(eps[2].id(), 2);
        assert_eq!(eps[0].len(), 3);
        assert!(!eps[0].is_empty());
    }

    /// One inbox table for the whole router, not one per endpoint: 2 048
    /// endpoints (4.2 M peer pairs) build at once and carry a ring of
    /// messages around.
    #[test]
    fn large_router_shares_one_sender_table() {
        let n = 2048;
        let eps = make_router(n);
        assert_eq!(Arc::strong_count(&eps[0].inboxes), n);
        for ep in &eps {
            ep.send(msg(ep.id(), (ep.id() + 1) % n, 5, ep.id() as u64));
        }
        for ep in &eps {
            let m = ep.recv();
            assert_eq!(m.src, (ep.id() + n - 1) % n);
            assert_eq!(m.take::<u64>(), ((ep.id() + n - 1) % n) as u64);
        }
    }

    #[test]
    fn try_send_reports_hung_up_peer() {
        let mut eps = make_router(2);
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        drop(e1); // peer "panicked"
        let m = e0.try_send(msg(0, 1, 42, 7)).expect_err("peer is gone");
        assert_eq!((m.src, m.dst, m.tag), (0, 1, 42));
    }

    #[test]
    #[should_panic(expected = "in-flight message: src=0 dst=1 tag=0x000000000000002a")]
    fn send_panic_names_the_message() {
        let mut eps = make_router(2);
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        drop(e1);
        e0.send(msg(0, 1, 42, 7));
    }

    #[test]
    fn dead_endpoint_black_holes_traffic() {
        let mut eps = make_router(2);
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        e1.mark_dead();
        // Sends to the dead endpoint succeed and evaporate.
        e0.try_send(msg(0, 1, 7, 1))
            .expect("black-holed, not an error");
        assert!(e1.queued().is_empty(), "message must be swallowed");
        // Even after its thread exits (receiver dropped), senders never
        // observe the dead peer as hung up.
        drop(e1);
        e0.try_send(msg(0, 1, 7, 2)).expect("still black-holed");
        e0.send(msg(0, 1, 7, 3)); // must not panic either
    }

    /// A lone endpoint that receives on an empty inbox is the whole job,
    /// parked: the router ends the receive at once, and the report
    /// carries the caller's dump.
    #[test]
    #[should_panic(expected = "no endpoint can send\nprotocol dump here")]
    fn a_lone_receive_deadlocks_at_once() {
        let eps = make_router(1);
        assert!(eps[0].recv_match(&Filter::ANY).is_none());
        eps[0].deadlocked(&Filter::ANY, "protocol dump here");
    }

    type Parked = std::thread::JoinHandle<(Endpoint, Option<Message>)>;

    /// Block `rx` on `filter` in a thread; return once it is parked.
    fn park(rx: Endpoint, filter: Filter) -> Parked {
        let inboxes = Arc::clone(&rx.inboxes);
        let id = rx.id;
        let t = std::thread::spawn(move || {
            let got = rx.recv_match(&filter);
            (rx, got)
        });
        while inboxes[id].lock().parked.is_none() {
            std::thread::yield_now();
        }
        t
    }

    /// A receiver parked on `(tag, src)` sleeps through 100 messages it
    /// does not want — the tag from another sender, other tags from the
    /// wanted one — and is woken once, by the one it does want. A message
    /// of the always-accepted class wakes it too.
    #[test]
    fn a_parked_receiver_wakes_only_for_what_it_wants() {
        const READS: TagClass = TagClass {
            mask: 0xff << 56,
            bits: 1 << 56,
        };
        let mut eps = make_router(3);
        let rx = eps.remove(0);
        let filter = Filter {
            tag: 7,
            src: Some(1),
            always: Some(READS),
        };
        let before = WAKES.get();
        let t = park(rx, filter);
        for i in 0..100u64 {
            let (src, tag) = if i % 2 == 0 { (2, 7) } else { (1, 8 + i) };
            eps[src - 1].send(msg(src, 0, tag, i));
        }
        assert_eq!(WAKES.get(), before, "unwanted traffic woke the receiver");
        eps[0].send(msg(1, 0, 7, 100));
        let (rx, got) = t.join().unwrap();
        assert_eq!(WAKES.get() - before, 1);
        assert_eq!(got.expect("matched").take::<u64>(), 100);
        assert_eq!(rx.queued().len(), 100, "the rest stays queued");

        let t = park(rx, filter);
        eps[1].send(msg(2, 0, (1 << 56) | 3, 101));
        let (rx, got) = t.join().unwrap();
        assert_eq!(WAKES.get() - before, 2);
        assert_eq!(got.expect("always class").take::<u64>(), 101);
        assert_eq!(rx.queued()[0], (2, 7), "queue head");
        assert_eq!(rx.recv().take::<u64>(), 0);
    }

    /// A receiver parked on a tag nobody sends sleeps through 100
    /// unwanted messages and is not deadlocked while their sender lives:
    /// the sender still counts. It is the moment the sender drops.
    #[test]
    fn a_receive_deadlocks_when_its_last_sender_drops() {
        let mut eps = make_router(2);
        let tx = eps.pop().unwrap();
        let rx = eps.pop().unwrap();
        let want = Filter {
            tag: 1,
            src: Some(1),
            always: None,
        };
        let before = WAKES.get();
        let t = park(rx, want);
        for i in 0..100 {
            tx.send(msg(1, 0, 2, i));
        }
        assert_eq!(WAKES.get(), before, "no send woke the receiver");
        assert_eq!(tx.live.load(Ordering::Acquire), 1, "tx counts");
        assert!(tx.inboxes[0].lock().parked.is_some(), "still parked");
        drop(tx);
        let (rx, got) = t.join().unwrap();
        assert!(got.is_none(), "nothing tagged 1 is ever sent");
        assert!(rx.ended_in_deadlock());
        assert_eq!(rx.queued().len(), 100, "the unwanted traffic is queued");
    }

    /// A sender's last wanted message, sent just before it drops, is
    /// delivered, never reported as a deadlock: the wake counts the
    /// receiver back before the drop takes the sender off. The loop races
    /// the receiver's park against the send and the drop.
    #[test]
    fn the_last_message_before_a_drop_is_delivered() {
        let want = Filter {
            tag: 1,
            src: Some(1),
            always: None,
        };
        for i in 0..1000 {
            let mut eps = make_router(2);
            let tx = eps.pop().unwrap();
            let rx = eps.pop().unwrap();
            let t = std::thread::spawn(move || {
                tx.send(msg(1, 0, 2, i));
                tx.send(msg(1, 0, 1, i));
            });
            let got = rx.recv_match(&want);
            assert_eq!(got.expect("sent before the drop").take::<u64>(), i);
            t.join().unwrap();
            assert!(!rx.ended_in_deadlock());
        }
    }
}
