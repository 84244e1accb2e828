//! The per-node runtime state — what VP polls read and write and what the
//! executor keeps between them — and the phase bookkeeping and traffic totals
//! kept in it.

use ppm_simnet::{Counters, SimTime};

use super::{Arrays, FirstSeen, QueuedReq, TileBudget, TileFaults};
use crate::balance::Balancer;
use crate::check::{Checker, PhaseViolation, Space};
use crate::coherence::Coherence;
use crate::config::PpmConfig;
use crate::failover::FailState;
use crate::ledger::{Held, REQS};

/// How the current `ppm_do` participates in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DoMode {
    /// `ppm_do`: collective across nodes; global phases allowed.
    Collective,
    /// `ppm_do_local`: this node only (asynchronous mode, paper §3.3);
    /// only node phases and node-shared variables may be used.
    Local,
}

/// Which phase construct is executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// `PPM_global_phase`: synchronizes all VPs on all nodes and publishes
    /// global- and node-shared writes.
    Global,
    /// `PPM_node_phase`: synchronizes this node's VPs and publishes
    /// node-shared writes. No network traffic.
    Node,
}

/// Barrier/phase bookkeeping for the current `ppm_do`.
#[derive(Debug, Default)]
pub(crate) struct PhaseState {
    /// Kind of the currently open phase, if any VP has entered one.
    pub open: Option<PhaseKind>,
    /// VPs that entered the current phase.
    pub entered: usize,
    /// VPs waiting at the current phase's end barrier.
    pub arrived: usize,
    /// Completed global phases (used to tag runtime messages).
    pub global_seq: u64,
    /// Completed node phases.
    pub node_seq: u64,
}

/// Per-phase communication totals, turned into simulated time by the
/// executor's cost formula at each global phase end.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Traffic {
    pub req_bundles_out: u64,
    pub req_entries_out: u64,
    pub req_bytes_out: u64,
    pub req_bundles_in: u64,
    pub req_entries_in: u64,
    pub req_bytes_in: u64,
    pub resp_bundles_out: u64,
    pub resp_bytes_out: u64,
    pub resp_bundles_in: u64,
    pub resp_bytes_in: u64,
    pub write_bundles_out: u64,
    pub write_entries_out: u64,
    pub write_bytes_out: u64,
    pub write_bundles_in: u64,
    pub write_entries_in: u64,
    pub write_bytes_in: u64,
    /// Adaptive repartitioning (DESIGN.md §14): non-empty migration
    /// bundles and their bytes, charged into the rebalancing phase's gap
    /// and overhead terms by the executor's cost formula.
    pub migr_bundles_out: u64,
    pub migr_bytes_out: u64,
    pub migr_bundles_in: u64,
    pub migr_bytes_in: u64,
    pub waves: u64,
    /// Refresh-push bytes sent riding barrier messages (DESIGN.md §13).
    /// Charged into the *next* phase's gap term for every party — the
    /// barrier closes this phase, so its payload overlaps the following
    /// phase's work, symmetrically and deterministically.
    pub refresh_bytes_out: u64,
    /// Refresh-push bytes received riding barrier messages.
    pub refresh_bytes_in: u64,
    /// Barrier sends that carried a refresh payload. Not bundles — nothing
    /// here reaches `Counters::bundles_sent` (`coherence.rs` states the
    /// rule); the tracer's phase summary reports it beside the bundle
    /// columns.
    pub refresh_bundles_out: u64,
    /// Snapshot-replica frame bytes streamed to the buddy riding the
    /// round-0 barrier message (DESIGN.md §15). Like refresh bytes, they
    /// are charged into the *next* phase's gap term — the barrier closes
    /// this phase, so the frame overlaps the following phase's work.
    pub replica_bytes_out: u64,
    /// Snapshot-replica frame bytes received from the buddy's predecessor.
    pub replica_bytes_in: u64,
    /// Pipelining: compute charged while a wave had at least one
    /// destination already consumed and at least one still pending — work
    /// genuinely overlapped with in-flight responses.
    pub pipelined_compute: SimTime,
    /// Pipelining: response latency that overlapped compute could hide —
    /// one response leg per completed multi-destination wave. The phase
    /// cost formula subtracts `min(pipelined_compute, pipeline_hideable)`
    /// from the wave latency term.
    pub pipeline_hideable: SimTime,
    /// Reliability: extra virtual transmissions this phase (retransmitted
    /// attempts + duplicate copies) — each pays per-message overhead.
    /// Cumulative acks do *not* appear here: they are modeled as
    /// piggybacked on other traffic, free in simulated time, and show up
    /// only in [`Counters`], credited at the phase fold.
    ///
    /// [`Counters`]: ppm_simnet::Counters
    pub rel_extra_msgs: u64,
    /// Reliability: retransmission backoff plus injected wire delay
    /// accumulated by data-plane sends this phase (barrier/collective
    /// delay rides on `Message::ts` instead; see `reliable.rs`).
    pub rel_delay: SimTime,
    /// Tracing only: estimated unoverlapped elapsed time of the waves run
    /// so far this phase, used to place each `wave` instant on a real
    /// timeline inside the phase (the clock itself is frozen until phase
    /// end; see DESIGN.md §11). Never feeds the charged phase time.
    pub wave_elapsed: SimTime,
}

/// All per-node runtime state, owned by the node's thread (`NodeCtx::inner`,
/// boxed so that a VP poll can take it into its poll context and give it
/// back by moving a pointer, DESIGN.md §12). A poll writes its VP's effects
/// straight into it: writes into the arrays' logs, read requests into
/// [`Self::reqs`], phase entry and arrival into [`Self::phase`], tile faults,
/// counters and compute. The default is an empty node's, which stands in
/// for the node's own while a poll holds that.
#[derive(Default)]
pub(crate) struct Inner {
    /// Global shared arrays by id: this node's partition of each.
    pub garrays: Arrays,
    /// Node-shared arrays by id — an id space of their own, so nothing
    /// keyed by a global array id (tiles, coherence, the balancer) may be
    /// handed one of these.
    pub narrays: Arrays,
    /// Pseudo-streaming tile residency under `cfg.tile_budget`
    /// (DESIGN.md §18). With the budget off every query answers "hot" and
    /// the streaming paths are never taken.
    pub tile_budget: TileBudget,
    /// Cold-tile faults recorded by this poll round's local reads and the
    /// VPs parked on them.
    pub tile_faults: TileFaults,
    /// Completed-phase counter; barrier futures wait for it to advance.
    pub epoch: u64,
    /// The first-occurrence table a bulk read's first poll combines its
    /// repeated remote misses with (`GetManyFut`): one per node, not per
    /// VP, as a thread runs one poll at a time.
    pub first_seen: FirstSeen,
    /// Reads parked in VP slot tables but not yet answered by a wave
    /// (incremented as a poll requests them, decremented per slot fill).
    pub outstanding_reads: usize,
    /// Outgoing read requests queued for the next wave — dense, indexed by
    /// destination node id, so every iteration that feeds the wire walks
    /// destinations in ascending order (never hash-iteration order).
    pub reqs: Vec<Vec<QueuedReq>>,
    pub reqs_held: Held<REQS>,
    pub phase: PhaseState,
    pub traffic: Traffic,
    /// Per-core compute accumulated in the current phase (VP charges and
    /// shared-access overheads).
    pub core_compute: Vec<SimTime>,
    /// Owner-side service CPU spent this phase.
    pub service_time: SimTime,
    /// This node's event counters — every node-side increment, runtime and
    /// node-level charges and collectives alike. They reach the endpoint
    /// once, when the `NodeCtx` drops.
    pub counters: Counters,
    /// Counters whose moment is a real-time accident, parked until the
    /// next fold credits them to `counters` (`NodeCtx::fold_deferred`: step
    /// 5 of a global phase end, and the node's drop). Two kinds: serving a
    /// peer's read request — a peer that is ahead of us can deliver one
    /// during our clock barrier, or a `ppm_do` prologue collective — and
    /// every count of the reliability layer (`reliable.rs`), made as an
    /// envelope is sent or taken. Crediting them at once would make
    /// per-phase counter deltas in the trace depend on host scheduling;
    /// which fold they land at does not. Totals are unaffected because the
    /// bucket always drains into `counters` by job end.
    pub deferred_ctrs: Counters,
    /// VPs of the current `ppm_do` that have not finished.
    pub live_vps: usize,
    /// Global rank of this node's VP 0 in the current `ppm_do`.
    pub vp_base_global: u64,
    /// Total VPs across all nodes in the current `ppm_do`.
    pub total_vps_global: u64,
    /// VPs woken by the executor releasing a barrier.
    pub barrier_waiters: Vec<usize>,
    /// Conformance checker (present iff `cfg.checker`).
    pub(crate) checker: Option<Checker>,
    /// Violations flushed at phase barriers (drained by
    /// `NodeCtx::take_violations`).
    pub violations: Vec<PhaseViolation>,
    /// Merged-counter snapshot at the last phase boundary, used by the
    /// tracer to attach per-phase [`Counters`] deltas to phase events.
    /// Only maintained while tracing is enabled.
    pub ctr_base: Counters,
    /// Read-cache coherence (DESIGN.md §13).
    pub coherence: Coherence,
    /// Trace-guided balancer (DESIGN.md §14).
    pub balancer: Balancer,
    /// Fail-stop tolerance (DESIGN.md §10, §15).
    pub failover: FailState,
    /// Set by a VP panic: which VP, and its payload's text. A poisoned
    /// node starts no further `ppm_do`.
    pub poisoned: Option<(usize, String)>,
}

impl Inner {
    pub fn new(cfg: PpmConfig) -> Self {
        Inner {
            tile_budget: TileBudget::new(cfg.tile_budget),
            reqs: vec![Vec::new(); cfg.nodes()],
            core_compute: vec![SimTime::ZERO; cfg.cores_per_node()],
            checker: cfg.checker.then(Checker::default),
            coherence: Coherence::new(cfg.read_cache, cfg.nodes()),
            ..Inner::default()
        }
    }

    /// The per-core compute maximum of the current phase so far.
    pub fn core_compute_max(&self) -> SimTime {
        (self.core_compute.iter().copied())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Take the phase's compute — the per-core maximum — and zero the
    /// accumulators.
    pub fn take_core_compute(&mut self) -> SimTime {
        let max = self.core_compute_max();
        self.core_compute.fill(SimTime::ZERO);
        max
    }

    /// Close the open phase: no VP is in one, the barrier futures' epoch
    /// advances, one more barrier is counted.
    pub fn close_phase(&mut self) {
        self.phase.open = None;
        self.phase.entered = 0;
        self.phase.arrived = 0;
        self.epoch += 1;
        self.counters.barriers += 1;
    }

    /// The last step of publishing a phase of `kind`: apply the node-shared
    /// writes, then — every VP has arrived and every write log has drained —
    /// close the phase's conformance report, one sorted batch per phase.
    /// Returns `(array id, modeled bytes applied)` per node-shared array
    /// that took writes.
    pub fn publish_node_writes(&mut self, kind: PhaseKind) -> Vec<(usize, u64)> {
        let mut checker = self.checker.as_mut();
        let mut wrote = Vec::new();
        for (id, na) in self.narrays.iter_mut().enumerate() {
            let checker = checker.as_deref_mut();
            let bytes = na.apply(checker.map(|c| c.conflicts_in(Space::Node, id as u32, kind)));
            if bytes > 0 {
                wrote.push((id, bytes));
            }
        }
        let found = checker.map(Checker::end_phase).unwrap_or_default();
        self.violations.extend(found);
        wrote
    }

    /// A VP enters a phase of `kind`; all concurrent VPs must agree. Called
    /// from the VP's poll, and VPs are polled in ascending rank order, so a
    /// mismatch panics on the same VP it would under a sequential schedule.
    pub fn enter_phase(&mut self, kind: PhaseKind) {
        let open = *self.phase.open.get_or_insert(kind);
        if open != kind {
            // Phase structure is corrupt: report as a conformance violation
            // and abort (the runtime cannot continue a mismatched
            // super-step).
            let v = PhaseViolation::PhaseKindMismatch {
                open,
                entered: kind,
            };
            panic!("{v}");
        }
        self.phase.entered += 1;
    }
}
