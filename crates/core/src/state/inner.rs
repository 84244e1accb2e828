//! The per-node runtime state: the frozen part VP polls read, the rest the
//! driver owns, and the phase bookkeeping and traffic totals kept in it.

use std::sync::Arc;

use ppm_simnet::{Counters, SimTime};

use super::{GArrayObj, QueuedReq, TileBudget};
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

/// One completed phase, as recorded in the node's phase log — the
/// observability channel for understanding where a PPM program's time
/// goes. Retrieved with [`crate::NodeCtx::take_phase_log`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseRecord {
    /// Global or node phase.
    pub kind: PhaseKind,
    /// Max per-core compute charged during the phase.
    pub compute: SimTime,
    /// Owner-side service CPU (remote reads served, writes applied).
    pub service: SimTime,
    /// Communication time charged (gap + overhead + wave latency +
    /// barrier), as seen by this node.
    pub comm: SimTime,
    /// Request flush rounds.
    pub waves: u64,
    /// Modeled bytes sent during the phase.
    pub bytes_out: u64,
    /// Modeled bytes received during the phase.
    pub bytes_in: u64,
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
    /// Pipelining: compute merged while a wave had at least one destination
    /// already consumed and at least one still pending — work genuinely
    /// overlapped with in-flight responses.
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

/// The part of the node state VP polls read and never write — everything
/// a phase body sees frozen. Each poll works on its own `Arc` clone of it,
/// lock-free; the driver mutates it between poll rounds through
/// [`Inner::thaw`] (DESIGN.md §12).
pub(crate) struct Frozen {
    /// Global shared arrays by id: this node's partition of each.
    pub garrays: Vec<Box<dyn GArrayObj>>,
    /// Node-shared arrays by id — an id space of their own, so nothing
    /// keyed by a global array id (tiles, coherence, the balancer) may be
    /// handed one of these.
    pub narrays: Vec<Box<dyn GArrayObj>>,
    /// Pseudo-streaming tile residency under `cfg.tile_budget`
    /// (DESIGN.md §18). With the budget off every query answers "hot" and
    /// the streaming paths are never taken.
    pub tile_budget: TileBudget,
    /// Completed-phase counter; barrier futures wait for it to advance.
    pub epoch: u64,
}

/// All per-node runtime state, owned by the node's thread (`NodeCtx::inner`).
/// VP polls see only [`Frozen`], through the clone of `frozen` each poll
/// round hands out.
pub(crate) struct Inner {
    pub frozen: Arc<Frozen>,
    /// Reads parked in VP slot tables but not yet answered by a wave
    /// (incremented when scratches merge, decremented per slot fill).
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
    /// Participation mode of the current `ppm_do`.
    pub(crate) do_mode: DoMode,
    /// Completed-phase records (drained by `NodeCtx::take_phase_log`).
    pub phase_log: Vec<PhaseRecord>,
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
    /// Cold-tile faults merged from VP scratches this poll round, as
    /// ascending distinct `(array, tile)`; the executor services the minimum
    /// group per fault round and clears the rest (parked VPs re-record
    /// still-cold faults when re-polled).
    pub pending_tile_faults: Vec<(u32, u32)>,
    /// VPs parked on cold-tile faults, woken (pushed back into the ready
    /// list) after each fault-service round.
    pub fault_waiters: Vec<usize>,
}

impl Inner {
    pub fn new(cfg: PpmConfig) -> Self {
        Inner {
            frozen: Arc::new(Frozen {
                garrays: Vec::new(),
                narrays: Vec::new(),
                tile_budget: TileBudget::new(cfg.tile_budget),
                epoch: 0,
            }),
            outstanding_reads: 0,
            reqs: vec![Vec::new(); cfg.nodes()],
            reqs_held: Held::default(),
            phase: PhaseState::default(),
            traffic: Traffic::default(),
            core_compute: vec![SimTime::ZERO; cfg.cores_per_node()],
            service_time: SimTime::ZERO,
            counters: Counters::default(),
            deferred_ctrs: Counters::default(),
            live_vps: 0,
            vp_base_global: 0,
            total_vps_global: 0,
            barrier_waiters: Vec::new(),
            do_mode: DoMode::Collective,
            phase_log: Vec::new(),
            checker: cfg.checker.then(Checker::default),
            violations: Vec::new(),
            ctr_base: Counters::default(),
            coherence: Coherence::new(cfg.read_cache, cfg.nodes()),
            balancer: Balancer::default(),
            failover: FailState::default(),
            pending_tile_faults: Vec::new(),
            fault_waiters: Vec::new(),
        }
    }

    /// The frozen state, mutably. Only the driver calls this, and only
    /// between poll rounds: every clone a round hands out is dropped before
    /// the round's results reach the driver, so the handle is unique here.
    pub fn thaw(&mut self) -> &mut Frozen {
        self.thaw_with_checker().0
    }

    /// [`Self::thaw`], and the checker for the write logs drained there to
    /// report to.
    pub fn thaw_with_checker(&mut self) -> (&mut Frozen, Option<&mut Checker>) {
        let frozen = Arc::get_mut(&mut self.frozen);
        // Cannot fire, for the reason `thaw` gives: no poll's clone is alive.
        let frozen = frozen.expect("frozen node state mutated during a VP poll");
        (frozen, self.checker.as_mut())
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
        self.thaw().epoch += 1;
        self.counters.barriers += 1;
    }

    /// The last step of publishing a phase of `kind`: apply the node-shared
    /// writes, then — every VP has merged and every write log has drained —
    /// close the phase's conformance report, one sorted batch per phase.
    /// Returns `(array id, modeled bytes applied)` per node-shared array
    /// that took writes.
    pub fn publish_node_writes(&mut self, kind: PhaseKind) -> Vec<(usize, u64)> {
        let (arrays, mut checker) = self.thaw_with_checker();
        let mut wrote = Vec::new();
        for (id, na) in arrays.narrays.iter_mut().enumerate() {
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

    /// A VP enters a phase of `kind`; all concurrent VPs must agree.
    /// Called from [`super::merge_vp`] in ascending rank order, so a mismatch
    /// panics on the same VP it would under a sequential schedule.
    pub fn enter_phase(&mut self, kind: PhaseKind) {
        assert!(
            !(self.do_mode == DoMode::Local && kind == PhaseKind::Global),
            "global phases are not allowed inside ppm_do_local \
             (asynchronous node-level mode); use ppm_do"
        );
        match self.phase.open {
            None => {
                self.phase.open = Some(kind);
                self.phase.entered = 1;
            }
            Some(k) => {
                if k != kind {
                    // Phase structure is corrupt: report as a conformance
                    // violation and abort (the runtime cannot continue a
                    // mismatched super-step).
                    let v = PhaseViolation::PhaseKindMismatch {
                        open: k,
                        entered: kind,
                    };
                    panic!("{v}");
                }
                self.phase.entered += 1;
            }
        }
    }
}
