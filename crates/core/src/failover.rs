//! Fail-stop tolerance (DESIGN.md §10, §15): the recovery line, crash
//! recovery, permanent-death detection and confirmation, buddy replication
//! and the hosted persona.
//!
//! The BSP discipline makes the recovery line cheap to reason about: between
//! phases the live arrays *are* the snapshot (writes are buffered during
//! phase bodies), so a snapshot taken at each phase end — plus redo of the
//! lost phase's buffered, deterministic work — is a complete recovery line.
//! A transient crash restores from it and rejoins late; a permanent death
//! makes the victim's endpoint its buddy's *hosted persona*, restored from
//! the replica the buddy has been streamed. Which node crashes or dies at
//! which phase is asked of the replicated `FaultConfig` every node holds
//! (`cfg.machine.faults`), not of the reliable transport.
//!
//! [`FailoverPart`] is one node's side of what rides a clock barrier for
//! this — suspicion bits OR-flooded on every edge; the replica frame and
//! hosted-persona compute on the round-0 edge only, whose destination, the
//! cyclic successor, IS the buddy — in the `take_for(edge)` / `absorb` /
//! finish form of [`crate::dissem::Notices`], so it is tested for all nodes
//! in lockstep without a thread. Replica bytes are accounted out-of-band:
//! they must not ride `Message::bytes`, which belongs to refresh pushes.

use std::fmt::Write as _;

use ppm_simnet::coll::Edge;
use ppm_simnet::SimTime;

use crate::bitset::NodeSet;
use crate::config::PpmConfig;
use crate::cost::{self, copy_time};
use crate::error::RecoveryError;
use crate::nodectx::NodeCtx;
use crate::state::{Inner, Values};

/// Super-step snapshot of this node's shared-array state.
struct Snapshots {
    /// `phase.global_seq` at capture time: the number of completed global
    /// exchanges this state reflects.
    phase: u64,
    /// One payload per global array partition.
    garrays: Vec<Values>,
    /// One payload per node-shared array instance.
    narrays: Vec<Values>,
    /// Total modeled bytes of all payloads — the size of a base (full)
    /// replica frame.
    bytes: u64,
}

/// One snapshot-replica delta frame streamed to the buddy. Metadata only:
/// the simulator never needs the payload bytes on the wire (a failover
/// restores from the victim's own snapshot, which is byte-identical to the
/// buddy's replica by construction), so the frame carries just the modeled
/// size for cost accounting and the `replica_bytes` counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReplicaFrame {
    /// Global phase sequence of the snapshot this frame brings the buddy's
    /// replica up to.
    pub phase: u64,
    /// Modeled frame bytes: the full snapshot on a base frame, the bytes
    /// written since the previous snapshot on a delta frame.
    pub bytes: u64,
    /// Whether this is a base (full-snapshot) frame.
    pub base: bool,
}

/// One node's fail-stop state ([`Inner::failover`]).
#[derive(Default)]
pub(crate) struct FailState {
    /// Last super-step snapshot (`None` unless snapshots are enabled).
    snapshots: Option<Snapshots>,
    /// Nodes every survivor has confirmed permanently dead, identical on
    /// all live nodes after the confirming clock barrier.
    dead_bits: NodeSet,
    /// Whether this rank is a hosted persona: its node died permanently and
    /// the logical rank now runs on its buddy. The endpoint thread
    /// continues as the buddy's deterministic reconstruction from the
    /// replica; only the cost model changes.
    hosted: bool,
    /// One-shot failover cost (replica restore + redo of the victim's
    /// unfinished phase) a freshly hosted persona charges to its buddy on
    /// the next barrier, then clears.
    hosted_extra: SimTime,
    /// VPs hosted by each node in the current `ppm_do` (the prologue
    /// allgather), kept for the `failover` trace instant's payload.
    peer_vps: Vec<u64>,
    /// Whether the buddy already holds a base frame; reset on any new death
    /// confirmation so re-homed replicas start from a fresh base.
    replica_base_sent: bool,
    /// Latest replica frame received from the predecessor (a deadlock
    /// report's protocol dump shows how fresh the hosted replica is).
    replica_in: Option<ReplicaFrame>,
}

impl FailState {
    /// The `ppm_do` prologue learned every node's VP count.
    pub fn set_peer_vps(&mut self, ks: Vec<u64>) {
        self.peer_vps = ks;
    }

    /// A peer confirmed permanently dead, if any.
    pub fn first_dead(&self) -> Option<usize> {
        self.dead_bits.first()
    }

    /// Its lines of a deadlock report.
    pub fn dump(&self, out: &mut String) {
        if self.dead_bits.is_empty() {
            let _ = writeln!(out, "  confirmed dead: none");
        } else {
            let _ = writeln!(out, "  confirmed dead: {:?}", self.dead_bits);
        }
        if let Some(fr) = self.replica_in {
            let _ = writeln!(
                out,
                "  buddy replica held: snapshot phase {} ({} bytes, base={})",
                fr.phase, fr.bytes, fr.base
            );
        }
    }

    /// The busy time a hosted persona ships to its buddy with a phase of
    /// `my_load` picoseconds (zero for a live rank): the buddy serializes
    /// this dead rank's re-executed VPs after its own, plus the one-shot
    /// failover cost the phase it died.
    fn hosted_compute(&mut self, my_load: u64) -> u64 {
        if !self.hosted {
            return 0;
        }
        my_load + std::mem::take(&mut self.hosted_extra).as_ps()
    }
}

impl NodeCtx<'_> {
    /// Whether super-step snapshots are being maintained (a crash or
    /// permanent-death fault is configured, or buddy replication is on —
    /// the snapshot doubles as the replica's source of truth).
    pub(crate) fn snapshots_enabled(&self) -> bool {
        let cfg = self.config();
        cfg.replication || cfg.machine.faults.snapshots_needed()
    }

    /// Capture the super-step snapshot of every shared array.
    ///
    /// The snapshot store is maintained copy-on-write, so refreshing it
    /// costs only the bytes actually written since the previous capture —
    /// the same dirty set the replica delta frames ship. `dirty: Some(n)`
    /// charges `n` bytes of copying (capped at the full size); `dirty:
    /// None` — the first capture, or a construct-entry refresh after
    /// untracked direct mutation — charges the full copy.
    pub(crate) fn take_snapshot(&mut self, dirty: Option<u64>) {
        let core = self.config().machine.core;
        let inner = &mut self.inner;
        let had_snapshot = inner.failover.snapshots.is_some();
        let phase = inner.phase.global_seq;
        let mut bytes = 0u64;
        let mut sized = |(payload, b)| {
            bytes += b;
            payload
        };
        let garrays = (inner.garrays.iter())
            .map(|g| sized(g.snapshot_local()))
            .collect();
        let narrays = (inner.narrays.iter())
            .map(|n| sized(n.snapshot_local()))
            .collect();
        inner.failover.snapshots = Some(Snapshots {
            phase,
            garrays,
            narrays,
            bytes,
        });
        let charged = match dirty {
            Some(d) if had_snapshot => d.min(bytes),
            _ => bytes,
        };
        inner.service_time += copy_time(&core, charged);
    }
}

/// A node phase published `wrote` (`(node array id, bytes)`): the
/// node-shared half of the recovery line advances here too — a crash or
/// death restores from the snapshot and nothing re-executes this phase, so
/// what it just published must be in it. Charged like a global phase end's
/// advance: a streaming copy of the bytes applied.
pub(crate) fn advance_node_line(inner: &mut Inner, cfg: &PpmConfig, wrote: Vec<(usize, u64)>) {
    let Some(snap) = inner.failover.snapshots.as_mut() else {
        return;
    };
    let mut applied = 0u64;
    for (id, bytes) in wrote {
        snap.narrays[id] = inner.narrays[id].snapshot_local().0;
        applied += bytes;
    }
    inner.service_time += copy_time(&cfg.machine.core, applied);
}

/// Advance the recovery line at a global phase end — the arrays now ARE the
/// next super-step's consistent state — and cut the buddy's replica frame.
/// Incremental: only the bytes the exchange just wrote into this node's
/// partitions (`own_bytes` of its own parcels, peers' write bundles,
/// migration arrivals) cost copy time, and a delta frame ships exactly
/// those; node-shared deltas ride free. The first frame, and the first
/// after any death re-homes replicas, ships the full snapshot.
pub(crate) fn advance_recovery_line(nc: &mut NodeCtx<'_>, own_bytes: u64) -> Option<ReplicaFrame> {
    let t = &nc.inner.traffic;
    let dirty = own_bytes + t.write_bytes_in + t.migr_bytes_in;
    if nc.snapshots_enabled() {
        nc.take_snapshot(Some(dirty));
    }
    if !nc.config().replication || nc.num_nodes() == 1 {
        return None;
    }
    let fs = &mut nc.inner.failover;
    // Cannot fire: replication implies `snapshots_enabled`, so the capture
    // just above stored one.
    let snap = fs
        .snapshots
        .as_ref()
        .expect("replication maintains snapshots");
    let base = !std::mem::replace(&mut fs.replica_base_sent, true);
    Some(ReplicaFrame {
        phase: snap.phase,
        bytes: if base { snap.bytes } else { dirty },
        base,
    })
}

/// Entry step of a global phase end: recover from a seeded crash, then
/// detect seeded permanent deaths. Returns this node's suspicion bits for
/// the barrier's OR-flood.
pub(crate) fn recover_and_detect(nc: &mut NodeCtx<'_>, phase: u64) -> NodeSet {
    // The node "fails" here — after the phase body, before the exchange.
    // Peers never notice: the recovering node simply reaches the exchange
    // later, and the clock barrier propagates the delay.
    if nc.config().machine.faults.crash_at(nc.node_id(), phase) {
        recover_from_crash(nc, phase);
    }
    detect_permanent_deaths(nc, phase)
}

/// Phase-boundary recovery from a seeded [`CrashFault`]: the node "fails"
/// at the end of global phase `phase` (body done, exchange not started),
/// reboots, restores its owned shared-array partitions and phase sequence
/// from the last super-step snapshot, and re-executes the lost phase body.
/// Re-execution is deterministic — the write buffers it would rebuild are
/// exactly the ones already in hand — so the recovered node rejoins the
/// exchange with bit-identical state, just later: reboot + restore copy +
/// redo compute are charged to its clock and propagate through the clock
/// barrier.
///
/// [`CrashFault`]: ppm_simnet::CrashFault
fn recover_from_crash(nc: &mut NodeCtx<'_>, phase: u64) {
    let cfg = nc.config();
    let t0 = nc.now();
    let (redo, bytes) = restore_from_snapshot(nc, phase);
    nc.inner.counters.crash_recoveries += 1;
    // Restore is a streaming copy back out of the snapshot store, like the
    // capture itself.
    let restore = copy_time(&cfg.machine.core, bytes);
    nc.ep.clock.advance_compute(cost::CRASH_REBOOT);
    nc.ep.clock.advance_compute(restore);
    nc.ep.clock.advance_compute(redo);
    let args = [
        ("phase", phase),
        ("restored_bytes", bytes),
        ("redo_ps", redo.as_ps()),
    ];
    let now = nc.now();
    nc.trace("crash_recovery", "reliability", t0, Some(now), &args);
}

/// Restore every shared array from the last super-step snapshot and return
/// the pending redo compute (the lost phase body's uncharged per-core
/// maximum) plus the bytes restored. Any inconsistency — missing snapshot,
/// wrong recovery line, payload/shape mismatch — raises the structured
/// [`RecoveryError`] naming this node and `phase` instead of a bare panic,
/// so harnesses can observe recovery failures programmatically.
fn restore_from_snapshot(nc: &mut NodeCtx<'_>, phase: u64) -> (SimTime, u64) {
    let node = nc.node_id();
    let fail = |reason: String| -> ! {
        RecoveryError {
            node,
            phase,
            reason,
        }
        .raise()
    };
    let inner = &mut nc.inner;
    let snaps = match inner.failover.snapshots.take() {
        Some(s) => s,
        None => fail("crash fault fired with no snapshot (runtime bug)".into()),
    };
    if snaps.phase != phase {
        fail(format!(
            "snapshot is not the crashed super-step's recovery line \
             (snapshot phase {}, crashed phase {phase})",
            snaps.phase
        ));
    }
    let mut bytes = 0u64;
    let global = inner.garrays.iter_mut().zip(&snaps.garrays);
    let node = inner.narrays.iter_mut().zip(&snaps.narrays);
    for (array, snap) in global.chain(node) {
        bytes += array
            .restore_local(snap.as_ref())
            .unwrap_or_else(|e| fail(e));
    }
    inner.failover.snapshots = Some(snaps);
    // The phase body's compute still sits uncharged in the per-core
    // accumulators; the redo costs that much again.
    (inner.core_compute_max(), bytes)
}

/// Seeded permanent deaths (fail-stop): victims scheduled to die at the end
/// of `phase` are detected here. Returns this node's local suspicion bits
/// (empty when nothing died).
///
/// Detection is a pure function of the replicated fault configuration
/// ([`FaultConfig::perm_victims_at`](ppm_simnet::FaultConfig::perm_victims_at)) — the
/// deterministic stand-in for "retransmit attempts to this peer crossed
/// [`SUSPECT_TIMEOUT`](cost::SUSPECT_TIMEOUT) of simulated time" — so every node
/// suspects the same victims at the same phase boundary without exchanging
/// anything beyond the barrier's bits. With replication off a death is
/// unsurvivable and every node raises the identical structured error at the
/// confirmation point; with it on, survivors charge the timeout as
/// reliability stall (retry counters are untouched: no real retransmissions
/// happen, and `retries == faults_dropped` must keep holding) and the
/// victim continues as its buddy's hosted persona.
fn detect_permanent_deaths(nc: &mut NodeCtx<'_>, phase: u64) -> NodeSet {
    let cfg = nc.config();
    let victims = cfg.machine.faults.perm_victims_at(phase);
    if victims.is_empty() {
        return NodeSet::new();
    }
    debug_assert!(
        victims
            .iter()
            .all(|&v| phase == 0 || !cfg.machine.faults.perm_dead_by(v, phase - 1)),
        "a node can die only once (enforced by FaultConfig::with_permanent_crash)"
    );
    let me = nc.node_id();
    if nc.num_nodes() == 1 {
        // No barrier rounds will run to confirm the death, and a lone
        // node has no buddy even with replication on: fail here with the
        // structured error.
        nc.inner.failover.dead_bits.insert(victims[0]);
        nc.ep.net.mark_dead();
        RecoveryError {
            node: victims[0],
            phase,
            reason: "single-node job cannot survive a permanent death \
                     (no buddy exists to host a replica)"
                .into(),
        }
        .raise();
    }
    for &v in &victims {
        if v != me {
            nc.inner.counters.peers_suspected += 1;
            nc.inner.traffic.rel_delay += cost::SUSPECT_TIMEOUT;
        } else if cfg.replication {
            fail_over_self(nc, phase);
        }
        // An unsurvivable death of this node carries its suspicion through
        // the barrier and aborts at the confirmation point, where every
        // node raises the identical error with nobody blocked.
    }
    victims.into_iter().collect()
}

/// This node just died permanently — and becomes its buddy's *hosted
/// persona*: the endpoint thread continues as the deterministic
/// reconstruction the buddy performs from its replica. Logical computation
/// is unchanged (the replica is byte-identical to the victim's own snapshot
/// by construction, so the restore uses the local copy), which is what
/// makes results bit-identical to the fault-free run; only the cost model
/// changes. The persona charges the detection stall plus the
/// restore-and-redo here, and from now on ships its per-phase busy time to
/// the buddy on the barrier.
fn fail_over_self(nc: &mut NodeCtx<'_>, phase: u64) {
    let cfg = nc.config();
    let t0 = nc.now();
    let (redo, bytes) = restore_from_snapshot(nc, phase);
    let restore = copy_time(&cfg.machine.core, bytes);
    // Nobody restores anything until the suspect timeout has confirmed
    // the death; no reboot is charged (the buddy is already up).
    nc.ep.clock.advance_comm(cost::SUSPECT_TIMEOUT);
    nc.ep.clock.advance_compute(restore);
    nc.ep.clock.advance_compute(redo);
    nc.inner.failover.hosted = true;
    nc.inner.failover.hosted_extra = restore + redo;
    let args = [
        ("phase", phase),
        ("restored_bytes", bytes),
        ("redo_ps", redo.as_ps()),
    ];
    let now = nc.now();
    nc.trace("failover_restore", "reliability", t0, Some(now), &args);
}

/// What fail-stop tolerance puts on one barrier message.
pub(crate) struct FailoverMsg {
    /// Every "I suspect node `i` permanently dead" bit the sender has heard.
    suspect_bits: NodeSet,
    /// Round 0 only: the buddy's replica frame.
    replica: Option<ReplicaFrame>,
    /// Round 0 only: picoseconds a hosted persona charges to its host.
    hosted_compute_ps: u64,
}

/// One node's side of one clock barrier's fail-stop traffic.
pub(crate) struct FailoverPart {
    me: usize,
    nodes: usize,
    /// Suspicion bits heard so far, seeded with this node's own detections.
    suspects: NodeSet,
    replica: Option<ReplicaFrame>,
    hosted_ps: u64,
}

impl FailoverPart {
    /// `suspects` from [`recover_and_detect`], `replica` from
    /// [`advance_recovery_line`], `my_load` the phase's compute + service
    /// picoseconds.
    pub fn new(
        inner: &mut Inner,
        (me, nodes): (usize, usize),
        suspects: NodeSet,
        replica: Option<ReplicaFrame>,
        my_load: u64,
    ) -> Self {
        FailoverPart {
            me,
            nodes,
            suspects,
            replica,
            hosted_ps: inner.failover.hosted_compute(my_load),
        }
    }

    /// What rides `edge`.
    pub fn take_for(&mut self, edge: Edge, inner: &mut Inner) -> FailoverMsg {
        let to_buddy = edge.round == 0;
        let replica = self.replica.take_if(|_| to_buddy);
        if let Some(fr) = &replica {
            inner.counters.bytes_sent += fr.bytes;
            inner.counters.replica_bytes += fr.bytes;
            inner.traffic.replica_bytes_out += fr.bytes;
        }
        FailoverMsg {
            suspect_bits: self.suspects.clone(),
            replica,
            hosted_compute_ps: if to_buddy { self.hosted_ps } else { 0 },
        }
    }

    /// Take in what arrived. Returns the compute this node's clock owes as
    /// host of its predecessor's persona: the dead rank's re-executed work
    /// serializes after ours, so our clock (and through later rounds, the
    /// global makespan) reflects it.
    pub fn absorb(&mut self, msg: FailoverMsg, inner: &mut Inner) -> SimTime {
        self.suspects.union_with(&msg.suspect_bits);
        if let Some(fr) = msg.replica {
            inner.counters.bytes_recv += fr.bytes;
            inner.traffic.replica_bytes_in += fr.bytes;
            inner.failover.replica_in = Some(fr);
        }
        SimTime::from_ps(msg.hosted_compute_ps)
    }

    /// After the last round every node holds the identical suspicion
    /// union, so each newly suspected node is confirmed dead by all
    /// survivors at this same boundary; any confirmation restarts replica
    /// streams from a fresh base frame. Returns the newly confirmed.
    fn confirm(&self, inner: &mut Inner) -> NodeSet {
        let newly = self.suspects.difference(&inner.failover.dead_bits);
        if newly.any() {
            inner.failover.dead_bits.union_with(&newly);
            inner.failover.replica_base_sent = false;
            let peers = newly.difference(&NodeSet::single(self.me));
            inner.counters.peers_confirmed_dead += u64::from(peers.count());
        }
        newly
    }

    /// Confirm deaths. A dead rank's partitions and VPs re-home onto its
    /// *effective buddy* — the first cyclic successor not itself dead —
    /// which counts the failover and emits the trace instant with the
    /// adopted footprint.
    pub fn finish(self, nc: &mut NodeCtx<'_>, phase: u64) {
        let (me, nodes) = (self.me, self.nodes);
        let newly = self.confirm(&mut nc.inner);
        let Some(victim) = newly.first() else {
            return;
        };
        if !nc.config().replication {
            // Unsurvivable: no replica stream exists, so the dead rank's
            // partitions are gone. The barrier is already complete — every
            // node stands at this same confirmation point with nothing left
            // in flight — so every node (victim included) raises the
            // IDENTICAL structured error naming the dead node, and whichever
            // endpoint's panic the cluster driver re-raises first, the caller
            // sees the same payload. Victims black-hole their inbox first so
            // defensive late traffic can never observe a hung-up peer.
            if newly.contains(me) {
                nc.ep.net.mark_dead();
            }
            RecoveryError {
                node: victim,
                phase,
                reason: "node died permanently with replication disabled \
                         (enable PpmConfig::with_replication to survive \
                         fail-stop faults)"
                    .into(),
            }
            .raise();
        }
        let dead = nc.inner.failover.dead_bits.clone();
        let buddy_of = |v: usize| {
            (1..nodes)
                .map(|d| (v + d) % nodes)
                .find(|&b| !dead.contains(b))
        };
        for v in newly.iter().filter(|&v| buddy_of(v) == Some(me)) {
            nc.inner.counters.failovers += 1;
            // Guarded here, not only in `trace`: the footprint is a walk
            // over every array.
            if !nc.ep.tracer.enabled() {
                continue;
            }
            let (mut elems, mut bytes) = (0u64, 0u64);
            for ga in nc.inner.garrays.iter() {
                let r = ga.dist().owned_range(v);
                elems += (r.end - r.start) as u64;
                bytes += ga.owned_bytes(v);
            }
            let args = [
                ("phase", phase),
                ("victim", v as u64),
                ("adopted_elems", elems),
                ("adopted_bytes", bytes),
                (
                    "adopted_vps",
                    nc.inner.failover.peer_vps.get(v).copied().unwrap_or(0),
                ),
            ];
            nc.trace("failover", "runtime", nc.now(), None, &args);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::Gen;
    use ppm_simnet::coll::dissemination;

    // What `exec`'s composed lockstep property looks at.
    impl FailoverMsg {
        pub(crate) fn replica(&self) -> Option<ReplicaFrame> {
            self.replica
        }
    }

    impl FailoverPart {
        pub(crate) fn suspects(&self) -> &NodeSet {
            &self.suspects
        }
    }

    /// All nodes of one barrier stepped together over their dissemination
    /// edges, no thread. Returns each node's part, ready to confirm.
    fn run_barrier(inners: &mut [Inner], suspects: &[NodeSet]) -> Vec<FailoverPart> {
        let nodes = inners.len();
        let frame = |me: usize| ReplicaFrame {
            phase: 5,
            bytes: 100 + me as u64,
            base: me.is_multiple_of(2),
        };
        let mut parts: Vec<FailoverPart> = (0..nodes)
            .map(|me| FailoverPart {
                me,
                nodes,
                suspects: suspects[me].clone(),
                replica: Some(frame(me)),
                hosted_ps: 1000 + me as u64,
            })
            .collect();
        for round in 0..dissemination(0, nodes).count() {
            let edge = |me: usize| dissemination(me, nodes).nth(round).unwrap();
            let mut sent: Vec<Option<FailoverMsg>> = (parts.iter_mut().enumerate())
                .map(|(me, p)| Some(p.take_for(edge(me), &mut inners[me])))
                .collect();
            for (me, p) in parts.iter_mut().enumerate() {
                let from = edge(me).from;
                let msg = sent[from].take().expect("one receiver per edge");
                // Round 0's edge ends at the cyclic successor: the buddy.
                let to_buddy = round == 0;
                assert_eq!(to_buddy, from == (me + nodes - 1) % nodes);
                assert_eq!(msg.replica, to_buddy.then(|| frame(from)), "{nodes} nodes");
                let hosted = p.absorb(msg, &mut inners[me]);
                let want = if to_buddy { 1000 + from as u64 } else { 0 };
                assert_eq!(
                    hosted,
                    SimTime::from_ps(want),
                    "{nodes} nodes, round {round}"
                );
                assert_eq!(
                    inners[me].failover.replica_in,
                    Some(frame((me + nodes - 1) % nodes))
                );
            }
        }
        parts
    }

    #[test]
    fn lockstep_suspicions_flood_and_the_buddy_alone_gets_the_frame() {
        let mut g = Gen::new(0x15);
        for nodes in [1usize, 2, 3, 5, 8, 13, 64, 100] {
            let cfg = PpmConfig::franklin(nodes as u32).with_replication(true);
            let mut inners: Vec<Inner> = (0..nodes).map(|_| Inner::new(cfg)).collect();
            let seeds: Vec<NodeSet> = (0..nodes)
                .map(|_| (0..nodes).filter(|_| g.usize_in(0..nodes) == 0).collect())
                .collect();
            let mut union = NodeSet::new();
            seeds.iter().for_each(|s| union.union_with(s));

            let parts = run_barrier(&mut inners, &seeds);
            let sum = |f: fn(&Inner) -> u64| inners.iter().map(f).sum::<u64>();
            let shipped = if nodes == 1 {
                0
            } else {
                (0..nodes as u64).map(|me| 100 + me).sum()
            };
            assert_eq!(sum(|i| i.counters.replica_bytes), shipped, "{nodes} nodes");
            assert_eq!(sum(|i| i.traffic.replica_bytes_out), shipped);
            assert_eq!(sum(|i| i.traffic.replica_bytes_in), shipped);
            assert_eq!(
                sum(|i| i.counters.bytes_sent),
                sum(|i| i.counters.bytes_recv)
            );

            for (me, (part, inner)) in parts.iter().zip(&mut inners).enumerate() {
                assert!(part.suspects == union, "{nodes} nodes: node {me}'s bits");
                inner.failover.replica_base_sent = true;
                assert!(part.confirm(inner) == union);
                assert!(inner.failover.dead_bits == union);
                // A new confirmation re-homes replicas: fresh base frame.
                assert_eq!(inner.failover.replica_base_sent, union.is_empty());
                let peers = union.count() - u32::from(union.contains(me));
                assert_eq!(inner.counters.peers_confirmed_dead, u64::from(peers));
                // The same bits again confirm nothing and reset nothing.
                inner.failover.replica_base_sent = true;
                assert!(part.confirm(inner).is_empty());
                assert!(inner.failover.replica_base_sent);
            }
        }
    }
}
