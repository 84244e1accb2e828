//! Deterministic, seeded fault injection for the simulated network.
//!
//! The simulator's channels never actually lose data — payloads are real
//! Rust values that cannot be reconstructed once dropped — so faults are
//! injected *virtually*, at the protocol layer that owns reliability (the
//! PPM runtime's transport in `ppm-core`): a "dropped" message is one whose
//! first k transmission attempts are charged as lost, with the surviving
//! copy delivered at the retransmission instant the sender's timeout/retry
//! state machine would have produced. This keeps every run deterministic
//! (the schedule is a pure function of the seed and the per-link send
//! sequence) while still exercising the full reliability protocol: retry
//! counters, backoff delays, duplicate suppression, and makespan impact
//! are all observable and bit-reproducible.
//!
//! Determinism is per *link*: each directed `(src, dst)` pair owns an
//! independent SplitMix64 stream seeded from the plan seed and the link
//! ids, and the stream advances once per message sent on that link. The
//! fault schedule therefore depends only on the protocol's (deterministic)
//! send sequence, never on host-thread interleaving across links.
//!
//! Node faults — which node crashes or dies at which global phase — need no
//! stream: they are pure functions of the replicated [`FaultConfig`] every
//! node holds, so the runtime asks the config ([`FaultConfig::crash_at`],
//! [`FaultConfig::perm_victims_at`], [`FaultConfig::perm_dead_by`],
//! [`FaultConfig::snapshots_needed`]). [`FaultPlan`] keeps only the per-link
//! message streams.

use crate::time::SimTime;

/// Maximum number of targeted one-shot faults a [`FaultConfig`] can carry
/// (a fixed-size array keeps `FaultConfig`, and thus `MachineConfig`,
/// `Copy`).
pub const MAX_TARGETED_FAULTS: usize = 4;

/// Cap on virtual retransmission attempts for a single message. A message
/// is never lost more than `MAX_LOST_ATTEMPTS` times, so the reliability
/// layer always converges.
pub const MAX_LOST_ATTEMPTS: u32 = 6;

/// In-repo SplitMix64 (std-only policy: no `rand` crate). Equal seeds give
/// equal streams on every platform, which is the property the fault
/// schedule relies on.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform f64 in `[0, 1)` (53 mantissa bits of the next u64).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// What a targeted one-shot fault does to its matched message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Lose the message once (the reliability layer retransmits it).
    Drop,
    /// Deliver one extra copy (the reliability layer suppresses it).
    Duplicate,
    /// Hold the message on the wire for the given extra simulated time.
    Delay(SimTime),
}

/// A targeted one-shot fault: "apply `action` to the `nth` message of
/// `kind` sent from `src` to `dst`" — e.g. *drop the 3rd write bundle from
/// node 2 to node 0*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetedFault {
    /// Sending endpoint.
    pub src: usize,
    /// Receiving endpoint.
    pub dst: usize,
    /// Message kind to match (the transport layer's kind id, e.g.
    /// `ppm_core::msgs::K_WRITE`); `KIND_ANY` matches every kind.
    pub kind: u64,
    /// 1-based occurrence on the link (per matched kind).
    pub nth: u64,
    /// What to do to the matched message.
    pub action: FaultAction,
}

/// Kind wildcard for [`TargetedFault::kind`].
pub const KIND_ANY: u64 = u64::MAX;

/// A seeded node crash: the node "fails" when it reaches the end of global
/// phase `phase` and must recover from its last super-step snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashFault {
    /// Node that crashes.
    pub node: usize,
    /// Global phase sequence number at whose end barrier the crash fires.
    pub phase: u64,
}

/// Maximum number of permanent (fail-stop) crashes a [`FaultConfig`] can
/// carry. Two slots so the "two simultaneous deaths in one phase" scenario
/// is expressible while keeping the config `Copy`.
pub const MAX_PERM_CRASHES: usize = 2;

/// A seeded *permanent* node death (fail-stop): the node's hardware is
/// lost for good at the end of global phase `phase`. Unlike [`CrashFault`]
/// there is no reboot — the node never computes on its own again, and the
/// runtime must fail its work over to a surviving buddy (or abort the job
/// with a structured error when snapshot replication is off). The router
/// black-holes traffic to a dead endpoint thereafter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PermanentCrash {
    /// Node that dies.
    pub node: usize,
    /// Global phase sequence number at whose end barrier the death fires.
    pub phase: u64,
}

/// Fault model configuration, carried on
/// [`MachineConfig`](crate::config::MachineConfig).
///
/// All fields default to "no faults", in which case the transport fast
/// path is bit-for-bit identical to a fault-free build. Probabilities are
/// sampled per message per directed link from the link's own seeded
/// stream; `targeted` faults fire exactly once each, on top of the random
/// schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed for the per-link fault streams. Equal seeds give equal
    /// schedules.
    pub seed: u64,
    /// Per-message probability that a transmission attempt is lost
    /// (attempts are re-lost independently, capped at
    /// [`MAX_LOST_ATTEMPTS`]).
    pub drop_p: f64,
    /// Per-message probability of delivering one extra (duplicate) copy.
    pub dup_p: f64,
    /// Per-message probability of an extra wire delay, uniform in
    /// `(0, max_extra_delay]`.
    pub delay_p: f64,
    /// Upper bound of the random extra delay.
    pub max_extra_delay: SimTime,
    /// Targeted one-shot faults (fixed capacity; `None` slots are unused).
    pub targeted: [Option<TargetedFault>; MAX_TARGETED_FAULTS],
    /// Seeded node crash, recovered at a phase boundary by the runtime.
    pub crash: Option<CrashFault>,
    /// Seeded permanent node deaths (fail-stop; fixed capacity so the
    /// config stays `Copy`, `None` slots are unused).
    pub perm_crashes: [Option<PermanentCrash>; MAX_PERM_CRASHES],
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::NONE
    }
}

impl FaultConfig {
    /// The fault-free configuration.
    pub const NONE: FaultConfig = FaultConfig {
        seed: 0,
        drop_p: 0.0,
        dup_p: 0.0,
        delay_p: 0.0,
        max_extra_delay: SimTime::from_us(50),
        targeted: [None; MAX_TARGETED_FAULTS],
        crash: None,
        perm_crashes: [None; MAX_PERM_CRASHES],
    };

    /// Random drop/duplicate/delay faults from a seed, with the given
    /// per-message probabilities.
    pub fn seeded(seed: u64, drop_p: f64, dup_p: f64, delay_p: f64) -> Self {
        for p in [drop_p, dup_p, delay_p] {
            assert!(
                (0.0..=1.0).contains(&p),
                "fault probability {p} not in [0,1]"
            );
        }
        FaultConfig {
            seed,
            drop_p,
            dup_p,
            delay_p,
            ..FaultConfig::NONE
        }
    }

    /// Add a targeted one-shot fault. Panics if all
    /// [`MAX_TARGETED_FAULTS`] slots are taken.
    pub fn with_targeted(mut self, fault: TargetedFault) -> Self {
        let slot = self
            .targeted
            .iter_mut()
            .find(|s| s.is_none())
            .expect("all targeted-fault slots in use");
        *slot = Some(fault);
        self
    }

    /// Add a seeded node crash at a global phase boundary.
    pub fn with_crash(mut self, node: usize, phase: u64) -> Self {
        self.crash = Some(CrashFault { node, phase });
        self
    }

    /// Add a seeded permanent (fail-stop) node death at a global phase
    /// boundary. Panics if all [`MAX_PERM_CRASHES`] slots are taken or the
    /// node already has a scheduled death (a node can only die once).
    pub fn with_permanent_crash(mut self, node: usize, phase: u64) -> Self {
        assert!(
            !self.perm_crashes.iter().flatten().any(|c| c.node == node),
            "node {node} already has a scheduled permanent crash"
        );
        let slot = self
            .perm_crashes
            .iter_mut()
            .find(|s| s.is_none())
            .expect("all permanent-crash slots in use");
        *slot = Some(PermanentCrash { node, phase });
        self
    }

    /// Whether any permanent (fail-stop) death is scheduled.
    pub fn any_permanent_crash(&self) -> bool {
        self.perm_crashes.iter().any(Option::is_some)
    }

    /// Whether super-step snapshots must be kept: a crash or a permanent
    /// death is configured for *some* node (every node snapshots, so the
    /// survivor set is symmetric and costs are uniform).
    pub fn snapshots_needed(&self) -> bool {
        self.crash.is_some() || self.any_permanent_crash()
    }

    /// Whether `node` crashes at the end of global phase `phase`.
    pub fn crash_at(&self, node: usize, phase: u64) -> bool {
        self.crash == Some(CrashFault { node, phase })
    }

    /// Whether `node` is permanently dead once global phase `phase`'s end
    /// barrier completes (its scheduled death is at this phase or an
    /// earlier one).
    pub fn perm_dead_by(&self, node: usize, phase: u64) -> bool {
        let mut deaths = self.perm_crashes.iter().flatten();
        deaths.any(|c| c.node == node && c.phase <= phase)
    }

    /// Nodes whose permanent death fires at the end of exactly global phase
    /// `phase`, in ascending node order (deterministic iteration for the
    /// failure detector; every node holds the same replicated config).
    pub fn perm_victims_at(&self, phase: u64) -> Vec<usize> {
        let deaths = self.perm_crashes.iter().flatten();
        let mut v: Vec<usize> = deaths
            .filter(|c| c.phase == phase)
            .map(|c| c.node)
            .collect();
        v.sort_unstable();
        v
    }

    /// Whether any fault can ever fire under this configuration.
    pub fn enabled(&self) -> bool {
        self.drop_p > 0.0
            || self.dup_p > 0.0
            || self.delay_p > 0.0
            || self.targeted.iter().any(Option::is_some)
            || self.crash.is_some()
            || self.any_permanent_crash()
    }
}

/// The faults injected into one message transmission.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultEvent {
    /// Number of lost transmission attempts before the surviving one.
    pub lost_attempts: u32,
    /// Number of extra (duplicate) copies delivered.
    pub duplicates: u32,
    /// Extra wire delay injected on the surviving copy.
    pub extra_delay: SimTime,
}

impl FaultEvent {
    /// Whether this event perturbs the message at all.
    pub fn is_clean(&self) -> bool {
        *self == FaultEvent::default()
    }
}

/// One (link, kind) fault stream: an independent SplitMix64 plus a send
/// counter for targeted-fault matching.
#[derive(Debug)]
struct LinkStream {
    rng: SplitMix64,
    /// Messages of this stream's kind sent on this link so far.
    sent: u64,
}

/// One endpoint's instantiation of the fault schedule: call
/// [`FaultPlan::on_send`] once per outgoing message, in send order.
///
/// Each directed link gets an independent stream *per message kind*, so
/// the schedule depends only on the link's per-kind send sequence.
/// Per-kind sequences are what a transport layer can keep deterministic:
/// the order of, say, read *responses* relative to barrier messages on a
/// link may depend on when stragglers' requests happen to be serviced,
/// while the order of responses among themselves (or barriers among
/// themselves) is fixed by the program. Keying the stream on the kind
/// makes the schedule immune to that cross-kind interleaving, and
/// concurrent sends on other links cannot perturb it either.
#[derive(Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    streams: std::collections::HashMap<(usize, usize, u64), LinkStream>,
    /// Raw per-link send counts, only used to match `KIND_ANY` targeted
    /// faults (see [`FaultPlan::on_send`] for the caveat).
    sent_any: std::collections::HashMap<(usize, usize), u64>,
}

/// Mix a (link, kind) identity into the plan seed (SplitMix64-style
/// finalizer over the packed ids, so nearby streams are unrelated).
fn link_seed(seed: u64, src: usize, dst: usize, kind: u64) -> u64 {
    let mut z = seed ^ ((src as u64) << 32 | dst as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(kind.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Instantiate the schedule for one endpoint.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan {
            cfg,
            streams: std::collections::HashMap::new(),
            sent_any: std::collections::HashMap::new(),
        }
    }

    /// Sample the faults for the next message of `kind` sent from `src` to
    /// `dst`. Must be called exactly once per message, in per-kind send
    /// order on each link.
    ///
    /// Note on `KIND_ANY` targeted faults: their `nth` counts raw sends of
    /// every kind on the link, so on links whose cross-kind send order
    /// depends on servicing interleaving they may hit a different message
    /// from run to run (the random schedule and per-kind targeting never
    /// do). Prefer a concrete kind when exact reproducibility matters.
    pub fn on_send(&mut self, src: usize, dst: usize, kind: u64) -> FaultEvent {
        let cfg = self.cfg;
        let link = self
            .streams
            .entry((src, dst, kind))
            .or_insert_with(|| LinkStream {
                rng: SplitMix64::new(link_seed(cfg.seed, src, dst, kind)),
                sent: 0,
            });
        let mut ev = FaultEvent::default();

        // Random faults, sampled in a fixed order. Draw-count per message
        // is variable, but the stream is consumed strictly per (link,
        // kind) in send order, so the schedule stays deterministic.
        if cfg.drop_p > 0.0 {
            while ev.lost_attempts < MAX_LOST_ATTEMPTS && link.rng.next_f64() < cfg.drop_p {
                ev.lost_attempts += 1;
            }
        }
        if cfg.dup_p > 0.0 && link.rng.next_f64() < cfg.dup_p {
            ev.duplicates += 1;
        }
        if cfg.delay_p > 0.0 && link.rng.next_f64() < cfg.delay_p {
            let frac = link.rng.next_f64();
            let ps = 1 + (frac * cfg.max_extra_delay.as_ps().saturating_sub(1) as f64) as u64;
            ev.extra_delay += SimTime::from_ps(ps);
        }

        // Targeted one-shot faults, applied on top.
        link.sent += 1;
        let n_kind = link.sent;
        let any = self.sent_any.entry((src, dst)).or_insert(0);
        *any += 1;
        let n_any = *any;
        for t in self.cfg.targeted.iter().flatten() {
            if t.src != src || t.dst != dst {
                continue;
            }
            let matched = if t.kind == KIND_ANY {
                t.nth == n_any
            } else {
                t.kind == kind && t.nth == n_kind
            };
            if matched {
                match t.action {
                    FaultAction::Drop => ev.lost_attempts += 1,
                    FaultAction::Duplicate => ev.duplicates += 1,
                    FaultAction::Delay(d) => ev.extra_delay += d,
                }
            }
        }
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soak(plan: &mut FaultPlan, src: usize, dst: usize, n: usize) -> Vec<FaultEvent> {
        (0..n).map(|_| plan.on_send(src, dst, 3)).collect()
    }

    #[test]
    fn splitmix_is_reproducible() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let f = SplitMix64::new(9).next_f64();
        assert!((0.0..1.0).contains(&f));
    }

    #[test]
    fn no_faults_by_default() {
        let cfg = FaultConfig::NONE;
        assert!(!cfg.enabled());
        let mut plan = FaultPlan::new(cfg);
        for ev in soak(&mut plan, 0, 1, 100) {
            assert!(ev.is_clean());
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = FaultConfig::seeded(42, 0.3, 0.2, 0.2);
        assert!(cfg.enabled());
        let a = soak(&mut FaultPlan::new(cfg), 1, 0, 500);
        let b = soak(&mut FaultPlan::new(cfg), 1, 0, 500);
        assert_eq!(a, b);
        assert!(a.iter().any(|e| e.lost_attempts > 0), "drops sampled");
        assert!(a.iter().any(|e| e.duplicates > 0), "dups sampled");
        assert!(
            a.iter().any(|e| e.extra_delay > SimTime::ZERO),
            "delays sampled"
        );
    }

    #[test]
    fn links_are_independent_streams() {
        let cfg = FaultConfig::seeded(42, 0.3, 0.0, 0.0);
        // Interleaving sends on another link must not change link (1,0).
        let mut plain = FaultPlan::new(cfg);
        let alone = soak(&mut plain, 1, 0, 100);
        let mut mixed = FaultPlan::new(cfg);
        let mut interleaved = Vec::new();
        for _ in 0..100 {
            mixed.on_send(2, 0, 3);
            interleaved.push(mixed.on_send(1, 0, 3));
        }
        assert_eq!(alone, interleaved);
        // Other *kinds* on the same link must not perturb it either: the
        // cross-kind send order can depend on servicing interleaving, so
        // each (link, kind) gets its own stream.
        let mut kinds = FaultPlan::new(cfg);
        let mut with_other_kinds = Vec::new();
        for _ in 0..100 {
            kinds.on_send(1, 0, 2);
            with_other_kinds.push(kinds.on_send(1, 0, 3));
            kinds.on_send(1, 0, 4);
        }
        assert_eq!(alone, with_other_kinds);
        // And the two directions of a link differ.
        let fwd = soak(&mut FaultPlan::new(cfg), 0, 1, 100);
        let rev = soak(&mut FaultPlan::new(cfg), 1, 0, 100);
        assert_ne!(fwd, rev);
    }

    #[test]
    fn drop_attempts_are_capped() {
        let cfg = FaultConfig::seeded(1, 1.0, 0.0, 0.0);
        let mut plan = FaultPlan::new(cfg);
        let ev = plan.on_send(0, 1, 3);
        assert_eq!(ev.lost_attempts, MAX_LOST_ATTEMPTS);
    }

    #[test]
    fn targeted_fault_hits_nth_of_kind() {
        let cfg = FaultConfig::NONE.with_targeted(TargetedFault {
            src: 2,
            dst: 0,
            kind: 3,
            nth: 3,
            action: FaultAction::Drop,
        });
        let mut plan = FaultPlan::new(cfg);
        // Other kinds on the link do not advance the match counter.
        assert!(plan.on_send(2, 0, 1).is_clean());
        assert!(plan.on_send(2, 0, 3).is_clean());
        assert!(plan.on_send(2, 0, 3).is_clean());
        let hit = plan.on_send(2, 0, 3);
        assert_eq!(hit.lost_attempts, 1);
        assert!(plan.on_send(2, 0, 3).is_clean(), "one-shot");
        // Wrong link never matches.
        let mut other = FaultPlan::new(cfg);
        for _ in 0..10 {
            assert!(other.on_send(0, 2, 3).is_clean());
        }
    }

    #[test]
    fn targeted_wildcard_counts_all_kinds() {
        let cfg = FaultConfig::NONE.with_targeted(TargetedFault {
            src: 0,
            dst: 1,
            kind: KIND_ANY,
            nth: 2,
            action: FaultAction::Delay(SimTime::from_us(5)),
        });
        let mut plan = FaultPlan::new(cfg);
        assert!(plan.on_send(0, 1, 7).is_clean());
        assert_eq!(plan.on_send(0, 1, 9).extra_delay, SimTime::from_us(5));
    }

    #[test]
    fn crash_matching() {
        let cfg = FaultConfig::NONE.with_crash(2, 5);
        assert!(cfg.crash_at(2, 5));
        assert!(!cfg.crash_at(2, 4));
        assert!(!cfg.crash_at(1, 5));
        assert!(cfg.enabled());
        assert!(cfg.snapshots_needed());
        assert!(!FaultConfig::seeded(1, 0.5, 0.5, 0.5).snapshots_needed());
    }

    #[test]
    fn permanent_crash_matching() {
        let cfg = FaultConfig::NONE
            .with_permanent_crash(2, 5)
            .with_permanent_crash(3, 5);
        assert!(cfg.enabled());
        assert!(cfg.any_permanent_crash());
        assert!(cfg.snapshots_needed());
        // Dead-by is cumulative: once dead, always dead.
        assert!(!cfg.perm_dead_by(2, 4));
        assert!(cfg.perm_dead_by(2, 5));
        assert!(cfg.perm_dead_by(2, 900));
        assert!(!cfg.perm_dead_by(0, 900));
        // Victims of a phase come out sorted, and only for that phase.
        assert_eq!(cfg.perm_victims_at(5), vec![2, 3]);
        assert!(cfg.perm_victims_at(4).is_empty());
    }

    #[test]
    #[should_panic(expected = "already has a scheduled permanent crash")]
    fn a_node_dies_only_once() {
        let _ = FaultConfig::NONE
            .with_permanent_crash(1, 2)
            .with_permanent_crash(1, 7);
    }

    #[test]
    #[should_panic(expected = "not in [0,1]")]
    fn bad_probability_rejected() {
        FaultConfig::seeded(0, 1.5, 0.0, 0.0);
    }
}
