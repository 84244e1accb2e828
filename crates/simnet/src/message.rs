//! Typed messages moved between simulated endpoints.

use std::any::Any;

use crate::time::SimTime;

/// Reliability-envelope metadata riding on a [`Message`].
///
/// Attached by a reliable transport layer (the PPM runtime's); `None` for
/// raw sends. `lost_attempts`/`duplicates` record the faults the fault plan
/// injected into this transmission, so the receiver can account for them
/// deterministically (see [`crate::fault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelMeta {
    /// Virtual transmission attempts lost before this copy got through.
    pub lost_attempts: u32,
    /// Extra copies the wire delivered (to be suppressed by the receiver).
    pub duplicates: u32,
}

/// A message in flight between two endpoints.
///
/// The payload is an arbitrary `Send` value — the simulator does not
/// serialize; communication *cost* is charged from the modeled [`bytes`]
/// size. [`ts`] is the earliest simulated arrival instant at the receiver
/// (sender clock after send overhead, plus wire time), assigned by the layer
/// that charges costs (e.g. `ppm-mps`).
///
/// [`bytes`]: Message::bytes
/// [`ts`]: Message::ts
pub struct Message {
    /// Sending endpoint id.
    pub src: usize,
    /// Destination endpoint id.
    pub dst: usize,
    /// Application-level tag used for matching/demultiplexing.
    pub tag: u64,
    /// Earliest simulated arrival instant at the receiver.
    pub ts: SimTime,
    /// Modeled wire size in bytes.
    pub bytes: usize,
    /// Reliability-envelope metadata (`None` for raw transports).
    pub rel: Option<RelMeta>,
    payload: Box<dyn Any + Send>,
}

impl Message {
    /// Wrap a payload value into a message.
    pub fn new<T: Any + Send>(
        src: usize,
        dst: usize,
        tag: u64,
        ts: SimTime,
        bytes: usize,
        payload: T,
    ) -> Self {
        Message {
            src,
            dst,
            tag,
            ts,
            bytes,
            rel: None,
            payload: Box::new(payload),
        }
    }

    /// Attach reliability-envelope metadata.
    pub fn with_rel(mut self, rel: RelMeta) -> Self {
        self.rel = Some(rel);
        self
    }

    /// Recover the payload. Panics with a diagnostic if the stored type does
    /// not match — a type mismatch is always a protocol bug, never data.
    pub fn take<T: Any>(self) -> T {
        match self.payload.downcast::<T>() {
            Ok(b) => *b,
            Err(_) => panic!(
                "message payload type mismatch (src={} dst={} tag={}): expected {}",
                self.src,
                self.dst,
                self.tag,
                std::any::type_name::<T>()
            ),
        }
    }

    /// Borrow the payload if it has the expected type.
    pub fn peek<T: Any>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }
}

impl std::fmt::Debug for Message {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Message")
            .field("src", &self.src)
            .field("dst", &self.dst)
            .field("tag", &self.tag)
            .field("ts", &self.ts)
            .field("bytes", &self.bytes)
            .field("rel", &self.rel)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_payload() {
        let m = Message::new(0, 1, 7, SimTime::from_ns(5), 24, vec![1.0f64, 2.0, 3.0]);
        assert_eq!(m.src, 0);
        assert_eq!(m.tag, 7);
        assert_eq!(m.peek::<Vec<f64>>().unwrap().len(), 3);
        assert!(m.peek::<Vec<u32>>().is_none());
        let v: Vec<f64> = m.take();
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn rel_meta_defaults_off_and_attaches() {
        let m = Message::new(0, 1, 7, SimTime::ZERO, 8, 1u64);
        assert!(m.rel.is_none());
        let meta = RelMeta {
            lost_attempts: 2,
            duplicates: 1,
        };
        let m = m.with_rel(meta);
        assert_eq!(m.rel, Some(meta));
        assert_eq!(m.take::<u64>(), 1);
    }

    #[test]
    #[should_panic(expected = "payload type mismatch")]
    fn wrong_type_panics() {
        let m = Message::new(0, 1, 0, SimTime::ZERO, 8, 42u64);
        let _: f64 = m.take();
    }
}
