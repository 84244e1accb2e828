//! Communication and computation counters.

/// Declares [`Counters`] from its one field list, with everything that
/// walks the fields: the named view exporters use, the `d_` trace argument
/// names, and the field-wise `merge` and `delta`. A new counter is one line
/// in the list below.
macro_rules! counters {
    (
        $(#[$attr:meta])*
        pub struct Counters {
            $($(#[$doc:meta])* pub $name:ident: u64,)*
        }
    ) => {
        $(#[$attr])*
        pub struct Counters {
            $($(#[$doc])* pub $name: u64,)*
        }

        /// Number of fields of [`Counters`].
        const FIELDS: usize = [$(stringify!($name)),*].len();

        impl Counters {
            /// Trace argument names of per-phase counter deltas: each
            /// field's name with a `d_` prefix, in declaration order.
            pub const DELTA_NAMES: [&'static str; FIELDS] =
                [$(concat!("d_", stringify!($name))),*];

            /// Every counter as a `(name, value)` pair, in declaration
            /// order: the one view exporters walk (e.g. per-phase deltas in
            /// the trace layer, the golden tests' literal rows).
            pub fn named_fields(&self) -> [(&'static str, u64); FIELDS] {
                [$((stringify!($name), self.$name)),*]
            }

            /// Element-wise sum, for job-level aggregation. Saturating:
            /// counters are diagnostics, so an (astronomically unlikely)
            /// overflow clamps at `u64::MAX` rather than aborting the job or
            /// wrapping to a small lie.
            pub fn merge(&self, other: &Counters) -> Counters {
                Counters {
                    $($name: self.$name.saturating_add(other.$name),)*
                }
            }

            /// Element-wise difference from an earlier snapshot of the same
            /// (monotonically increasing) counters. Panics in debug builds
            /// if `base` is not actually earlier.
            pub fn delta(&self, base: &Counters) -> Counters {
                $(debug_assert!(
                    self.$name >= base.$name,
                    concat!("counter ", stringify!($name), " went backwards")
                );)*
                Counters {
                    $($name: self.$name - base.$name,)*
                }
            }
        }
    };
}

counters! {
    /// Per-endpoint event counters. All counts are exact (not modeled), so they
    /// double as a verification channel: tests assert e.g. that the PPM runtime
    /// sends one bundle per (destination, wave) and that MPI baselines send the
    /// expected number of fine-grained messages.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct Counters {
        /// Point-to-point messages sent.
        pub msgs_sent: u64,
        /// Modeled bytes sent.
        pub bytes_sent: u64,
        /// Point-to-point messages received.
        pub msgs_recv: u64,
        /// Modeled bytes received.
        pub bytes_recv: u64,
        /// Floating-point operations charged.
        pub flops: u64,
        /// Memory operations charged.
        pub mem_ops: u64,
        /// Barriers participated in.
        pub barriers: u64,
        /// PPM: remote element reads issued (before bundling).
        pub remote_gets: u64,
        /// PPM: remote element writes issued (before bundling).
        pub remote_puts: u64,
        /// PPM: request/write bundles sent (after bundling).
        pub bundles_sent: u64,
        /// PPM: communication waves (request flush rounds) executed.
        pub waves: u64,
        /// PPM: shared-variable accesses that resolved locally.
        pub local_accesses: u64,
        /// Reliability layer: retransmissions performed (one per lost
        /// transmission attempt injected by the fault plan).
        pub retries: u64,
        /// Reliability layer: transmission attempts the fault plan dropped.
        pub faults_dropped: u64,
        /// Reliability layer: duplicate copies the fault plan delivered.
        pub faults_duplicated: u64,
        /// Reliability layer: messages the fault plan held back on the wire.
        pub faults_delayed: u64,
        /// Reliability layer: duplicate envelopes suppressed on receive.
        pub dups_suppressed: u64,
        /// Reliability layer: cumulative acks counted (modeled: charged as
        /// messages, none travels).
        pub acks_sent: u64,
        /// Phase-boundary crash recoveries performed.
        pub crash_recoveries: u64,
        /// PPM: remote reads satisfied by the phase-coherent read cache
        /// (no wire traffic).
        pub cache_hits: u64,
        /// PPM: remote reads that missed the read cache (or ran with it
        /// disabled) and went to the wire.
        pub cache_misses: u64,
        /// PPM: duplicate remote reads that cost no wire entry of their own:
        /// repeats of an index inside one bulk read, combined at the source
        /// (no slot, no queued request), plus requests from different reads
        /// merged into one wire entry when the wave is built. Every one of
        /// them is still counted in `remote_gets` and `cache_misses`.
        pub dedup_reads: u64,
        /// PPM: wave completions where some VPs resumed while other
        /// destinations of the same wave were still in flight.
        pub partial_wakes: u64,
        /// Failure detector: peers this node began suspecting (retransmit
        /// attempts crossed the detection threshold in simulated time).
        pub peers_suspected: u64,
        /// Failure detector: peers this node confirmed permanently dead at a
        /// clock-barrier boundary (suspicion OR-flood came back unanimous).
        pub peers_confirmed_dead: u64,
        /// Fail-stop tolerance: partition failovers this node performed as the
        /// buddy of a confirmed-dead peer.
        pub failovers: u64,
        /// Fail-stop tolerance: snapshot-replica bytes this node streamed to
        /// its buddy (delta frames riding the round-0 clock-barrier message,
        /// whose destination is the buddy).
        pub replica_bytes: u64,
        /// Pseudo-streaming: resident partition tiles evicted to the modeled
        /// backing store to stay under the tile budget.
        pub tile_spills: u64,
        /// Pseudo-streaming: cold partition tiles made resident on first
        /// touch (every tile starts cold, so refills ≥ spills).
        pub tile_refills: u64,
    }
}

impl Counters {
    /// Snapshot of every reliability/fault-injection field as a named
    /// struct. A named struct (rather than a positional tuple) means adding
    /// a reliability counter without extending the summary is a compile
    /// error at the struct, not a silently dropped field at the call sites.
    pub fn reliability_summary(&self) -> ReliabilitySummary {
        ReliabilitySummary {
            retries: self.retries,
            faults_dropped: self.faults_dropped,
            faults_duplicated: self.faults_duplicated,
            faults_delayed: self.faults_delayed,
            dups_suppressed: self.dups_suppressed,
            acks_sent: self.acks_sent,
            crash_recoveries: self.crash_recoveries,
            peers_suspected: self.peers_suspected,
            peers_confirmed_dead: self.peers_confirmed_dead,
            failovers: self.failovers,
            replica_bytes: self.replica_bytes,
        }
    }
}

/// All reliability-layer and fault-injection counters, by name. Returned by
/// [`Counters::reliability_summary`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliabilitySummary {
    /// Retransmissions performed.
    pub retries: u64,
    /// Transmission attempts the fault plan dropped.
    pub faults_dropped: u64,
    /// Duplicate copies the fault plan delivered.
    pub faults_duplicated: u64,
    /// Messages the fault plan held back on the wire.
    pub faults_delayed: u64,
    /// Duplicate envelopes suppressed on receive.
    pub dups_suppressed: u64,
    /// Cumulative acks counted (modeled: charged as messages, none travels).
    pub acks_sent: u64,
    /// Phase-boundary crash recoveries performed.
    pub crash_recoveries: u64,
    /// Peers that crossed the failure detector's suspicion threshold.
    pub peers_suspected: u64,
    /// Peers confirmed permanently dead at a barrier boundary.
    pub peers_confirmed_dead: u64,
    /// Partition failovers performed as a dead peer's buddy.
    pub failovers: u64,
    /// Snapshot-replica bytes streamed to the buddy.
    pub replica_bytes: u64,
}

impl ReliabilitySummary {
    /// True when every reliability and fault counter is zero — the
    /// fault-free fast path left no trace.
    pub fn is_clean(&self) -> bool {
        *self == ReliabilitySummary::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let a = Counters {
            msgs_sent: 1,
            bytes_sent: 10,
            flops: 5,
            ..Counters::default()
        };
        let b = Counters {
            msgs_sent: 2,
            bytes_recv: 7,
            waves: 3,
            retries: 4,
            acks_sent: 2,
            ..Counters::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.msgs_sent, 3);
        assert_eq!(m.bytes_sent, 10);
        assert_eq!(m.bytes_recv, 7);
        assert_eq!(m.flops, 5);
        assert_eq!(m.waves, 3);
        assert_eq!(
            m.reliability_summary(),
            ReliabilitySummary {
                retries: 4,
                acks_sent: 2,
                ..ReliabilitySummary::default()
            }
        );
        assert!(!m.reliability_summary().is_clean());
        assert!(a.reliability_summary().is_clean());
    }

    #[test]
    fn default_is_zero() {
        let c = Counters::default();
        assert_eq!(c, Counters::default().merge(&Counters::default()));
    }

    #[test]
    fn named_fields_cover_every_counter() {
        // Counters is all-u64, so the length of the field list is the
        // struct size in words; the trace names follow the field names.
        let c = Counters::default();
        assert_eq!(
            c.named_fields().len() * std::mem::size_of::<u64>(),
            std::mem::size_of::<Counters>(),
            "named_fields() must enumerate every Counters field"
        );
        for ((name, _), delta) in c.named_fields().into_iter().zip(Counters::DELTA_NAMES) {
            assert_eq!(delta, format!("d_{name}"));
        }
        assert_eq!(Counters::DELTA_NAMES[0], "d_msgs_sent");
        // Same guard for the reliability summary.
        assert_eq!(
            11 * std::mem::size_of::<u64>(),
            std::mem::size_of::<ReliabilitySummary>(),
            "ReliabilitySummary must cover every reliability field"
        );
    }

    /// Regression: `merge` used to use plain `+`, which panics in debug
    /// builds (and wraps in release) when an accumulated counter is near
    /// `u64::MAX`. It must clamp instead.
    #[test]
    fn merge_saturates_at_u64_max() {
        let a = Counters {
            bytes_sent: u64::MAX,
            waves: u64::MAX - 1,
            ..Counters::default()
        };
        let b = Counters {
            bytes_sent: 17,
            waves: 5,
            msgs_sent: 1,
            ..Counters::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.bytes_sent, u64::MAX);
        assert_eq!(m.waves, u64::MAX);
        assert_eq!(m.msgs_sent, 1);
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let mut later = Counters {
            msgs_sent: 5,
            waves: 9,
            retries: 2,
            ..Counters::default()
        };
        let base = Counters {
            msgs_sent: 3,
            waves: 4,
            ..Counters::default()
        };
        later = later.merge(&base); // make strictly later
        let d = later.delta(&base);
        assert_eq!(d.msgs_sent, 5);
        assert_eq!(d.waves, 9);
        assert_eq!(d.retries, 2);
        assert_eq!(d.bytes_sent, 0);
    }
}
