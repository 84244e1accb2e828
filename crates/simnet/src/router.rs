//! Message transport between simulated endpoints.
//!
//! The router gives every endpoint an unbounded inbox. Delivery preserves
//! per-sender FIFO order (messages from A to B arrive in the order A sent
//! them), which the PPM phase protocol relies on: a node's read requests
//! always precede its end-of-phase write bundle on the same channel.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

use crate::config::DEFAULT_RECV_STALL;
use crate::message::Message;

/// Per-endpoint transport handle.
pub struct Endpoint {
    id: usize,
    inbox: Receiver<Message>,
    /// Every endpoint's inbox sender, one table shared by all endpoints: a
    /// clone per endpoint would make building the router O(n²).
    outboxes: Arc<[Sender<Message>]>,
    /// Fail-stop markers shared by every endpoint of the router: once an
    /// endpoint is marked dead, traffic addressed to it is black-holed
    /// (silently swallowed) instead of enqueued or reported as a hung-up
    /// peer. See [`Endpoint::mark_dead`].
    dead: Arc<Vec<AtomicBool>>,
    /// Wall-clock watchdog for blocking receives (see
    /// [`crate::config::MachineConfig::recv_stall`]).
    stall: Duration,
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
        self.outboxes.len()
    }

    /// Whether the job has zero endpoints. [`make_router`] guarantees at
    /// least one, so this is `false` for any endpoint it built — but it is
    /// computed honestly from the peer table, not hard-coded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.outboxes.is_empty()
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
    /// the way a wire to lost hardware would.
    pub fn try_send(&self, msg: Message) -> Result<(), Message> {
        debug_assert_eq!(msg.src, self.id, "message src must be the sender");
        if self.dead[msg.dst].load(Ordering::Acquire) {
            return Ok(());
        }
        self.outboxes[msg.dst].send(msg).map_err(|e| e.0)
    }

    /// Declare this endpoint permanently dead (fail-stop): all future
    /// traffic addressed to it is black-holed rather than delivered, and
    /// senders never observe it as a hung-up peer even after its thread
    /// exits. Irreversible.
    pub fn mark_dead(&self) {
        self.dead[self.id].store(true, Ordering::Release);
    }

    /// Whether a peer endpoint has been marked permanently dead.
    pub fn peer_is_dead(&self, peer: usize) -> bool {
        self.dead[peer].load(Ordering::Acquire)
    }

    /// Block until a message arrives. Panics (with no extra diagnostics)
    /// if nothing arrives within the stall watchdog.
    pub fn recv(&self) -> Message {
        self.recv_with_diag(String::new)
    }

    /// Block until a message arrives. If the stall watchdog fires, `diag`
    /// is invoked to render the caller's protocol state (outstanding acks,
    /// phase sequence, pending barriers, …) into the panic message, so a
    /// wedged run fails with a usable dump instead of a bare timeout.
    pub fn recv_with_diag(&self, diag: impl FnOnce() -> String) -> Message {
        match self.inbox.recv_timeout(self.stall) {
            Ok(m) => m,
            Err(e) => {
                let dump = diag();
                let sep = if dump.is_empty() { "" } else { "\n" };
                panic!(
                    "endpoint {} stalled for {:?} waiting for a message: {e}{sep}{dump}",
                    self.id, self.stall
                )
            }
        }
    }

    /// Take a message if one is already queued.
    pub fn try_recv(&self) -> Option<Message> {
        self.inbox.try_recv().ok()
    }
}

/// Create the transport for `n` endpoints with the default stall watchdog.
pub fn make_router(n: usize) -> Vec<Endpoint> {
    make_router_with_stall(n, DEFAULT_RECV_STALL)
}

/// Create the transport for `n` endpoints with an explicit stall watchdog
/// (wired from [`crate::config::MachineConfig::recv_stall`] by
/// [`crate::cluster::run`]).
pub fn make_router_with_stall(n: usize, stall: Duration) -> Vec<Endpoint> {
    assert!(n >= 1, "router needs at least one endpoint");
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| channel()).unzip();
    let outboxes: Arc<[Sender<Message>]> = senders.into();
    let dead: Arc<Vec<AtomicBool>> = Arc::new((0..n).map(|_| AtomicBool::new(false)).collect());
    receivers
        .into_iter()
        .enumerate()
        .map(|(id, inbox)| Endpoint {
            id,
            inbox,
            outboxes: Arc::clone(&outboxes),
            dead: Arc::clone(&dead),
            stall,
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
    fn try_recv_empty_and_nonempty() {
        let eps = make_router(2);
        assert!(eps[1].try_recv().is_none());
        eps[0].send(msg(0, 1, 9, 7));
        let m = eps[1].try_recv().expect("queued message");
        assert_eq!(m.tag, 9);
        assert!(eps[1].try_recv().is_none());
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

    /// One sender table for the whole router, not one per endpoint: 2 048
    /// endpoints (4.2 M peer pairs) build at once and carry a ring of
    /// messages around.
    #[test]
    fn large_router_shares_one_sender_table() {
        let n = 2048;
        let eps = make_router(n);
        assert_eq!(Arc::strong_count(&eps[0].outboxes), n);
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
        let mut eps = make_router_with_stall(2, Duration::from_millis(50));
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
        let mut eps = make_router_with_stall(2, Duration::from_millis(50));
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        assert!(!e0.peer_is_dead(1));
        e1.mark_dead();
        assert!(e0.peer_is_dead(1));
        // Sends to the dead endpoint succeed and evaporate.
        e0.try_send(msg(0, 1, 7, 1))
            .expect("black-holed, not an error");
        assert!(e1.try_recv().is_none(), "message must be swallowed");
        // Even after its thread exits (receiver dropped), senders never
        // observe the dead peer as hung up.
        drop(e1);
        e0.try_send(msg(0, 1, 7, 2)).expect("still black-holed");
        e0.send(msg(0, 1, 7, 3)); // must not panic either
    }

    #[test]
    #[should_panic(expected = "protocol dump here")]
    fn stall_watchdog_fires_with_diagnostics() {
        let eps = make_router_with_stall(1, Duration::from_millis(20));
        eps[0].recv_with_diag(|| "protocol dump here".to_string());
    }
}
