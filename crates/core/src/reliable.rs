//! The PPM runtime's reliable-transport sublayer: the per-link envelope
//! (`on_send`, `on_recv`, `dump`). Which node crashes or dies when is not
//! its business — that schedule is read from the replicated
//! [`FaultConfig`](ppm_simnet::FaultConfig) (`failover.rs`).
//!
//! The simulated network ([`ppm_simnet`]) delivers every message exactly
//! once, in per-sender FIFO order — real HPC interconnects mostly do too,
//! until they don't. This module makes the runtime survive the faults a
//! seeded [`FaultPlan`] injects: every runtime message becomes a
//! *sequence-numbered envelope* on its directed link, receivers count a
//! *cumulative acknowledgement* every [`ACK_EVERY`] envelopes,
//! lost transmission attempts are retransmitted after a *capped
//! exponential backoff* in **simulated** time, and duplicate copies are
//! suppressed on receive.
//!
//! An ack is a counter, not a message: retransmission is virtual (below),
//! so no sender waits on one, and none travels. The receiver charges it
//! to `acks_sent`, `msgs_sent` and `bytes_sent` as if it had.
//!
//! ## Virtual retransmission
//!
//! Payloads are live `Box<dyn Any + Send>` values that cannot be cloned or
//! reconstructed, so a drop is injected *virtually*: the fault plan tells
//! the sender, at send time, how many transmission attempts will be lost
//! (`lost_attempts`). The sender charges the attempts' retransmission
//! delays — the deterministic schedule its timeout state machine would
//! produce: attempt `i` fires `min(RTO · 2^(i-1), RTO_MAX)` after the
//! previous one — and the surviving copy travels with the accumulated
//! delay. Duplicates are likewise delivered as a receiver-side count and
//! suppressed there. The observable protocol behavior (retry counters,
//! backoff delays, ack traffic, makespan impact) is exactly that of a
//! message-loss run, but bit-reproducible and independent of host timing.
//!
//! ## Time accounting
//!
//! Fault/backoff delay reaches the simulated clocks by message kind:
//! barrier and collective messages carry it on [`Message::ts`] (their
//! receivers wait until `ts`), while data-plane messages (requests,
//! responses, write bundles), whose cost is charged from per-phase traffic
//! totals, accumulate it in [`Traffic::rel_delay`] and pay it at
//! `charge_phase_time`. Either way the end-of-phase clock barrier
//! propagates the maximum, so one slow link stalls the whole phase — just
//! like a real BSP super-step.
//!
//! [`Message::ts`]: ppm_simnet::Message
//! [`Traffic::rel_delay`]: crate::state::Traffic

use ppm_simnet::{FaultPlan, RelMeta, SimTime};

use crate::config::PpmConfig;
use crate::cost::{ACK_EVERY, RTO, RTO_MAX};

/// Per-directed-link protocol state (this node ↔ one peer).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LinkState {
    /// Sequence number of the next envelope sent to the peer.
    pub next_seq: u64,
    /// Next envelope sequence expected *from* the peer.
    pub recv_next: u64,
    /// Envelopes received from the peer since the last ack we counted.
    pub recv_unacked: u64,
}

/// What the reliability layer did to an outgoing envelope.
pub(crate) struct SendOutcome {
    /// Envelope metadata to attach to the message.
    pub meta: RelMeta,
    /// Total retransmission backoff charged for the lost attempts.
    pub backoff: SimTime,
    /// Extra wire delay the fault plan injected on the surviving copy.
    pub wire_delay: SimTime,
}

impl SendOutcome {
    /// Backoff plus injected wire delay.
    pub fn total_delay(&self) -> SimTime {
        self.backoff + self.wire_delay
    }
}

/// Total capped-exponential retransmission backoff for `lost_attempts`
/// consecutive losses: the i-th retransmission fires
/// `min(rto · 2^(i-1), rto_max)` after the previous attempt, all in
/// simulated time.
///
/// Saturating arithmetic throughout: the doubling step would overflow
/// `u64` picoseconds within 64 attempts when `rto_max` leaves it
/// effectively uncapped, and the accumulated sum can overflow for large
/// attempt counts regardless — either way the schedule must clamp, not
/// wrap (release) or panic (debug).
pub(crate) fn backoff_schedule(lost_attempts: u32, rto: SimTime, rto_max: SimTime) -> SimTime {
    let mut backoff = SimTime::ZERO;
    let mut step = if rto < rto_max { rto } else { rto_max };
    for _ in 0..lost_attempts {
        backoff = backoff.saturating_add(step);
        let doubled = step.saturating_add(step);
        step = if doubled < rto_max { doubled } else { rto_max };
    }
    backoff
}

/// Per-node reliability state machine. Present on a [`crate::NodeCtx`]
/// only when reliability is enabled ([`PpmConfig::reliability_enabled`]);
/// with it absent the send/receive fast paths are untouched.
pub(crate) struct Reliability {
    me: usize,
    plan: FaultPlan,
    links: Vec<LinkState>,
}

impl Reliability {
    pub fn new(me: usize, cfg: &PpmConfig) -> Self {
        Reliability {
            me,
            plan: FaultPlan::new(cfg.machine.faults),
            links: vec![LinkState::default(); cfg.nodes()],
        }
    }

    /// Process an outgoing envelope to `dst`: assign its sequence number,
    /// consult the fault plan, and price the retransmission backoff for
    /// any lost attempts.
    pub fn on_send(&mut self, dst: usize, kind: u64) -> SendOutcome {
        let ev = self.plan.on_send(self.me, dst, kind);
        let link = &mut self.links[dst];
        let seq = link.next_seq;
        link.next_seq += 1;

        let backoff = backoff_schedule(ev.lost_attempts, RTO, RTO_MAX);

        SendOutcome {
            meta: RelMeta {
                seq,
                lost_attempts: ev.lost_attempts,
                duplicates: ev.duplicates,
            },
            backoff,
            wire_delay: ev.extra_delay,
        }
    }

    /// Process an incoming envelope from `src`: verify the sequence and
    /// decide whether a cumulative ack is due — `Some(watermark)` acks the
    /// envelopes `< watermark`. (Its `duplicates` are the receiver's to
    /// count as suppressed.)
    pub fn on_recv(&mut self, src: usize, meta: RelMeta) -> Option<u64> {
        let link = &mut self.links[src];
        // The router keeps each sender's order, the receiver sees envelopes
        // in it, and the virtual-retransmission scheme never reorders, so a
        // gap here is a protocol bug, not a network fault.
        assert_eq!(
            meta.seq, link.recv_next,
            "node {}: envelope from node {src} out of sequence (got {}, expected {})",
            self.me, meta.seq, link.recv_next
        );
        link.recv_next += 1;
        link.recv_unacked += 1;
        if link.recv_unacked < ACK_EVERY {
            return None;
        }
        link.recv_unacked = 0;
        Some(link.recv_next)
    }

    /// Render the per-link protocol state for a deadlock report.
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("reliability links (peer: sent, recv-next/unacked):\n");
        for (peer, l) in self.links.iter().enumerate() {
            if peer == self.me {
                continue;
            }
            let _ = writeln!(
                out,
                "  peer {peer}: sent={} | recv_next={} unacked={}",
                l.next_seq, l.recv_next, l.recv_unacked
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_simnet::{FaultConfig, MachineConfig};

    fn cfg_with(faults: FaultConfig) -> PpmConfig {
        PpmConfig::new(MachineConfig::franklin(4).with_faults(faults))
    }

    #[test]
    fn sequences_and_ack_counts_advance_per_link() {
        let cfg = cfg_with(FaultConfig::seeded(1, 0.0, 0.0, 0.0));
        let mut rel = Reliability::new(0, &cfg);
        assert_eq!(rel.on_send(1, 3).meta.seq, 0);
        assert_eq!(rel.on_send(1, 3).meta.seq, 1);
        assert_eq!(rel.on_send(2, 3).meta.seq, 0, "links number independently");

        // Receive side: acks fall due every `ACK_EVERY` envelopes.
        let mut recv = Reliability::new(1, &cfg);
        let mut acks = 0;
        for seq in 0..10u64 {
            let out = recv.on_recv(
                0,
                RelMeta {
                    seq,
                    lost_attempts: 0,
                    duplicates: 0,
                },
            );
            if let Some(upto) = out {
                assert_eq!(upto, seq + 1);
                acks += 1;
            }
        }
        assert_eq!(acks, 10 / ACK_EVERY, "one ack per ACK_EVERY envelopes");
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let cfg = cfg_with(FaultConfig::NONE.with_targeted(ppm_simnet::TargetedFault {
            src: 0,
            dst: 1,
            kind: ppm_simnet::KIND_ANY,
            nth: 1,
            action: ppm_simnet::FaultAction::Drop,
        }));
        let mut rel = Reliability::new(0, &cfg);
        let out = rel.on_send(1, 3);
        assert_eq!(out.meta.lost_attempts, 1);
        assert_eq!(out.backoff, RTO, "first retry after RTO");
        let (rto, rto_max) = (SimTime::from_us(10), SimTime::from_us(15));
        assert_eq!(backoff_schedule(1, rto, rto_max), rto);

        // Force repeated drops through probabilities to see the cap.
        let cfg2 = cfg_with(FaultConfig::seeded(0, 1.0, 0.0, 0.0));
        let mut rel2 = Reliability::new(0, &cfg2);
        let out2 = rel2.on_send(1, 3);
        let lost = out2.meta.lost_attempts;
        assert_eq!(lost, ppm_simnet::fault::MAX_LOST_ATTEMPTS);
        assert_eq!(out2.backoff, backoff_schedule(lost, RTO, RTO_MAX));
        // 10 + 15 + 15 + 15 + 15 + 15 — every step after the first capped.
        let capped = backoff_schedule(lost, rto, rto_max);
        assert_eq!(capped, SimTime::from_us(10 + 5 * 15));
        assert_eq!(out2.total_delay(), out2.backoff + out2.wire_delay);
    }

    #[test]
    fn backoff_saturates_at_large_attempt_counts() {
        // Regression: with rto_max effectively uncapped, the pre-fix
        // doubling step (`step + step`) overflowed u64 picoseconds within 64
        // attempts — a debug panic / release wraparound to a tiny backoff.
        // The schedule must clamp instead.
        let rto = SimTime::from_us(25);
        let uncapped = SimTime::from_ps(u64::MAX);
        for attempts in [64u32, 65, 100, 200] {
            let b = backoff_schedule(attempts, rto, uncapped);
            // Reference schedule computed in u128 and clamped to u64.
            let mut expect: u128 = 0;
            let mut step: u128 = rto.as_ps() as u128;
            for _ in 0..attempts {
                expect += step.min(u64::MAX as u128);
                step = (step * 2).min(u64::MAX as u128);
            }
            let expect = expect.min(u64::MAX as u128) as u64;
            assert_eq!(b.as_ps(), expect, "attempts = {attempts}");
        }
        // Monotone in the attempt count, even at saturation.
        let a = backoff_schedule(500, rto, uncapped);
        let b = backoff_schedule(501, rto, uncapped);
        assert!(b >= a);
        assert_eq!(b.as_ps(), u64::MAX, "fully saturated");
    }

    #[test]
    fn backoff_first_step_respects_the_cap() {
        // An rto above rto_max must clamp from the very first retry.
        let b = backoff_schedule(1, SimTime::from_us(300), SimTime::from_us(200));
        assert_eq!(b, SimTime::from_us(200));
    }

    #[test]
    #[should_panic(expected = "out of sequence")]
    fn sequence_gap_is_a_protocol_bug() {
        let cfg = cfg_with(FaultConfig::seeded(1, 0.0, 0.0, 0.0));
        let mut rel = Reliability::new(0, &cfg);
        rel.on_recv(
            1,
            RelMeta {
                seq: 5,
                lost_attempts: 0,
                duplicates: 0,
            },
        );
    }

    #[test]
    fn crash_and_snapshot_gating() {
        let cfg = cfg_with(FaultConfig::NONE.with_crash(2, 7));
        let faults = cfg.machine.faults;
        assert!(faults.crash_at(2, 7));
        assert!(!faults.crash_at(2, 6));
        assert!(!faults.crash_at(0, 7), "only the seeded node crashes");
        assert!(faults.snapshots_needed(), "but every node snapshots");
        let dump = Reliability::new(2, &cfg).dump();
        assert!(dump.contains("peer 0"));
        assert!(!dump.contains("peer 2"), "no self link in the dump");
    }

    #[test]
    fn permanent_death_gates_snapshots_and_reports_victims() {
        let faults = cfg_with(FaultConfig::NONE.with_permanent_crash(1, 4))
            .machine
            .faults;
        assert!(faults.snapshots_needed(), "permanent deaths need snapshots");
        assert_eq!(faults.perm_victims_at(4), vec![1]);
        assert!(faults.perm_victims_at(3).is_empty());
        assert!(!faults.perm_dead_by(1, 3));
        assert!(faults.perm_dead_by(1, 4));
        assert!(faults.perm_dead_by(1, 9), "death is permanent");
        assert!(!faults.perm_dead_by(0, 9));
    }
}
