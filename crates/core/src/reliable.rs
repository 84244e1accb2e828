//! The PPM runtime's reliable-transport sublayer: the per-link envelope
//! (`on_send`, `on_take`, `fold`, `dump`). Which node crashes or dies when
//! is not its business — that schedule is read from the replicated
//! [`FaultConfig`](ppm_simnet::FaultConfig) (`failover.rs`).
//!
//! The simulated network ([`ppm_simnet`]) delivers every message exactly
//! once, in per-sender FIFO order — real HPC interconnects mostly do too,
//! until they don't. This module makes the runtime survive the faults a
//! seeded [`FaultPlan`] injects: every runtime message becomes an
//! *envelope* on its directed link, receivers count a *cumulative
//! acknowledgement* every [`ACK_EVERY`] envelopes taken from a link, lost
//! transmission attempts are retransmitted after a *capped exponential
//! backoff* in **simulated** time, and duplicate copies are suppressed on
//! receive.
//!
//! An ack is a counter, not a message: retransmission is virtual (below),
//! so no sender waits on one, and none travels. The receiver charges it
//! to `acks_sent`, `msgs_sent` and `bytes_sent` as if it had.
//!
//! ## Settled at the phase fold
//!
//! The moment a receive takes an envelope is set by real time: a peer's
//! read request can be taken mid-wave or inside this node's clock
//! barrier. The set of envelopes a node takes between two phase folds is
//! not — it is fixed by the program (DESIGN.md §10). So every count made
//! here (acks, suppressed duplicates, retries, `faults_*`) goes to the
//! node's deferred bucket, `Inner::deferred_ctrs`, which reaches its
//! counters only at the fold (step 5 of a global phase end, and the
//! node's drop); the `retransmit` and `dup_suppressed` trace instants are
//! emitted there too, one per peer in ascending order.
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

use std::collections::BTreeMap;

use ppm_simnet::{Counters, FaultPlan, RelMeta, SimTime};

use crate::config::PpmConfig;
use crate::cost::{ACK_BYTES, ACK_EVERY, RTO, RTO_MAX};

/// Envelopes this node exchanged with one peer: what a deadlock report
/// lists, and what paces the link's cumulative acks.
#[derive(Debug, Clone, Copy, Default)]
struct LinkState {
    /// Envelopes sent to the peer.
    sent: u64,
    /// Envelopes taken from the peer.
    taken: u64,
}

/// What a link has to report at the next fold: its trace instants.
#[derive(Debug, Clone, Copy, Default)]
struct Unfolded {
    /// Transmission attempts lost on sends to the peer.
    lost: u64,
    /// Their retransmission backoff.
    backoff: SimTime,
    /// Duplicate copies suppressed on envelopes taken from the peer.
    dups: u64,
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
    /// The links with an instant to emit at the next fold, by peer.
    unfolded: BTreeMap<usize, Unfolded>,
}

impl Reliability {
    pub fn new(me: usize, cfg: &PpmConfig) -> Self {
        Reliability {
            me,
            plan: FaultPlan::new(cfg.machine.faults),
            links: vec![LinkState::default(); cfg.nodes()],
            unfolded: BTreeMap::new(),
        }
    }

    /// Process an outgoing envelope to `dst`: consult the fault plan and
    /// count its faults into the deferred bucket `ctrs`. Returns the
    /// envelope's metadata and the delay of the copy that gets through:
    /// the retransmission backoff of the lost attempts plus any injected
    /// wire delay.
    pub fn on_send(&mut self, dst: usize, kind: u64, ctrs: &mut Counters) -> (RelMeta, SimTime) {
        let ev = self.plan.on_send(self.me, dst, kind);
        self.links[dst].sent += 1;
        let backoff = backoff_schedule(ev.lost_attempts, RTO, RTO_MAX);
        let lost = u64::from(ev.lost_attempts);
        ctrs.retries += lost;
        ctrs.faults_dropped += lost;
        ctrs.faults_duplicated += u64::from(ev.duplicates);
        ctrs.faults_delayed += u64::from(ev.extra_delay > SimTime::ZERO);
        if lost > 0 {
            let u = self.unfolded.entry(dst).or_default();
            u.lost += lost;
            u.backoff = u.backoff.saturating_add(backoff);
        }
        let meta = RelMeta {
            lost_attempts: ev.lost_attempts,
            duplicates: ev.duplicates,
        };
        (meta, backoff + ev.extra_delay)
    }

    /// Process an envelope a receive took from `src`: suppress its
    /// duplicate copies and, every [`ACK_EVERY`] envelopes on the link,
    /// count a cumulative ack — both into the deferred bucket `ctrs`.
    pub fn on_take(&mut self, src: usize, meta: RelMeta, ctrs: &mut Counters) {
        let link = &mut self.links[src];
        link.taken += 1;
        if link.taken.is_multiple_of(ACK_EVERY) {
            ctrs.acks_sent += 1;
            ctrs.msgs_sent += 1;
            ctrs.bytes_sent += ACK_BYTES;
        }
        let dups = u64::from(meta.duplicates);
        ctrs.dups_suppressed += dups;
        if dups > 0 {
            self.unfolded.entry(src).or_default().dups += dups;
        }
    }

    /// The fold: hand `instant` the trace instants of every link touched
    /// since the last one — `retransmit` then `dup_suppressed`, one each
    /// per peer, in ascending peer order — and start over.
    pub fn fold(&mut self, mut instant: impl FnMut(&'static str, &[(&'static str, u64)])) {
        for (peer, u) in std::mem::take(&mut self.unfolded) {
            let peer = peer as u64;
            if u.lost > 0 {
                let args = [
                    ("dst", peer),
                    ("attempts", u.lost),
                    ("backoff_ps", u.backoff.as_ps()),
                ];
                instant("retransmit", &args);
            }
            if u.dups > 0 {
                instant("dup_suppressed", &[("src", peer), ("count", u.dups)]);
            }
        }
    }

    /// Render the links that carried an envelope, for a deadlock report.
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("reliability links (peer: sent, taken | unfolded):\n");
        for (peer, l) in self.links.iter().enumerate() {
            if l.sent == 0 && l.taken == 0 {
                continue;
            }
            let u = self.unfolded.get(&peer).copied().unwrap_or_default();
            let _ = writeln!(
                out,
                "  peer {peer}: sent={} taken={} | lost={} dups={}",
                l.sent, l.taken, u.lost, u.dups
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

    /// What one node does with its envelopes, in the order real time
    /// happened to give it.
    #[derive(Clone, Copy)]
    enum Step {
        /// Take an envelope from a peer, carrying this many duplicates.
        Take(usize, u32),
        /// Send an envelope of a kind to a peer.
        Send(usize, u64),
        Fold,
    }

    /// Run `steps` on node 0; return what each fold credited: the
    /// bucket's counters and the trace instants.
    fn folds(cfg: &PpmConfig, steps: &[Step]) -> Vec<(Counters, Vec<String>)> {
        let mut rel = Reliability::new(0, cfg);
        let (mut ctrs, mut out) = (Counters::default(), Vec::new());
        for &step in steps {
            match step {
                Step::Take(src, duplicates) => {
                    let meta = RelMeta {
                        lost_attempts: 0,
                        duplicates,
                    };
                    rel.on_take(src, meta, &mut ctrs);
                }
                Step::Send(dst, kind) => _ = rel.on_send(dst, kind, &mut ctrs),
                Step::Fold => {
                    let mut instants = Vec::new();
                    rel.fold(|name, args| instants.push(format!("{name} {args:?}")));
                    out.push((std::mem::take(&mut ctrs), instants));
                }
            }
        }
        out
    }

    /// Two links' envelopes taken in two interleavings, with peer 2's
    /// read request (and the response it costs, whose first attempt is
    /// lost) taken right after the first fold — inside the clock barrier,
    /// before that phase's summary — or last, mid-wave: each fold credits
    /// identical counters and instants either way.
    #[test]
    fn a_fold_credits_the_same_whatever_the_take_order() {
        use crate::msgs::{K_BARRIER, K_READ_RESP, K_WRITE};
        use ppm_simnet::{FaultAction, TargetedFault};
        use Step::{Fold, Send, Take};
        let cfg = cfg_with(FaultConfig::NONE.with_targeted(TargetedFault {
            src: 0,
            dst: 2,
            kind: K_READ_RESP,
            nth: 1,
            action: FaultAction::Drop,
        }));
        let request = [Take(2, 0), Send(2, K_READ_RESP)];
        let wave = [
            Take(1, 0),
            Take(2, 1),
            Take(1, 2),
            Send(1, K_WRITE),
            Take(1, 0),
            Take(2, 0),
            Take(1, 0),
            Send(2, K_BARRIER),
        ];
        let mut reordered = wave;
        reordered.reverse();
        let early = [
            &[Take(1, 0), Take(2, 0), Take(2, 0), Fold][..],
            &request,
            &wave,
            &[Fold],
        ];
        let late = [
            &[Take(2, 0), Take(1, 0), Take(2, 0), Fold][..],
            &reordered,
            &request,
            &[Fold],
        ];
        let early = folds(&cfg, &early.concat());
        assert_eq!(early, folds(&cfg, &late.concat()));

        assert_eq!(
            early[0],
            (Counters::default(), Vec::new()),
            "3 takes, no ack yet"
        );
        // Link 1 took 1 + 4 envelopes, link 2 took 2 + 3: each crossed one
        // multiple of ACK_EVERY at the second fold.
        let (c, instants) = &early[1];
        assert_eq!(ACK_EVERY, 4);
        assert_eq!(
            (c.acks_sent, c.msgs_sent, c.bytes_sent),
            (2, 2, 2 * ACK_BYTES)
        );
        assert_eq!((c.dups_suppressed, c.retries, c.faults_dropped), (3, 1, 1));
        let backoff = RTO.as_ps();
        assert_eq!(
            *instants,
            [
                r#"dup_suppressed [("src", 1), ("count", 2)]"#.to_string(),
                format!(r#"retransmit [("dst", 2), ("attempts", 1), ("backoff_ps", {backoff})]"#),
                r#"dup_suppressed [("src", 2), ("count", 1)]"#.to_string(),
            ]
        );
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
        let (meta, delay) = rel.on_send(1, 3, &mut Counters::default());
        assert_eq!(meta.lost_attempts, 1);
        assert_eq!(delay, RTO, "first retry after RTO");
        let (rto, rto_max) = (SimTime::from_us(10), SimTime::from_us(15));
        assert_eq!(backoff_schedule(1, rto, rto_max), rto);

        // Force repeated drops through probabilities to see the cap.
        let cfg2 = cfg_with(FaultConfig::seeded(0, 1.0, 0.0, 0.0));
        let mut rel2 = Reliability::new(0, &cfg2);
        let (meta2, delay2) = rel2.on_send(1, 3, &mut Counters::default());
        let lost = meta2.lost_attempts;
        assert_eq!(lost, ppm_simnet::fault::MAX_LOST_ATTEMPTS);
        assert_eq!(
            delay2,
            backoff_schedule(lost, RTO, RTO_MAX),
            "no wire delay"
        );
        // 10 + 15 + 15 + 15 + 15 + 15 — every step after the first capped.
        let capped = backoff_schedule(lost, rto, rto_max);
        assert_eq!(capped, SimTime::from_us(10 + 5 * 15));
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
    fn crash_and_snapshot_gating() {
        let cfg = cfg_with(FaultConfig::NONE.with_crash(2, 7));
        let faults = cfg.machine.faults;
        assert!(faults.crash_at(2, 7));
        assert!(!faults.crash_at(2, 6));
        assert!(!faults.crash_at(0, 7), "only the seeded node crashes");
        assert!(faults.snapshots_needed(), "but every node snapshots");
        let mut rel = Reliability::new(2, &cfg);
        let mut ctrs = Counters::default();
        rel.on_send(0, 3, &mut ctrs);
        let (meta, _) = rel.on_send(1, 3, &mut ctrs);
        rel.on_take(1, meta, &mut ctrs);
        let dump = rel.dump();
        assert!(dump.contains("peer 0: sent=1 taken=0"));
        assert!(dump.contains("peer 1: sent=1 taken=1"));
        assert!(!dump.contains("peer 2"), "no self link in the dump");
        assert!(!dump.contains("peer 3"), "no link that carried nothing");
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
