//! The per-node SPMD context.
//!
//! PPM is an SPMD model (paper §3.2): one copy of the program runs on every
//! node, and [`NodeCtx`] is that copy's handle to the runtime — system
//! variables, shared-variable allocation, direct access to locally-owned
//! data (initialization and result extraction), node-level collectives, and
//! [`NodeCtx::ppm_do`], the `PPM_do(K) func(...)` construct.

use std::future::Future;

use ppm_simnet::{ArgValue, Endpoint, EndpointCtx, Filter, Message, SimTime};

use crate::check::Space;
use crate::config::PpmConfig;
use crate::cost;
use crate::dist::{Dist, Layout};
use crate::elem::Elem;
use crate::error::RecoveryError;
use crate::msgs::{self, RespBundle, RespPart};
use crate::reliable::Reliability;
use crate::shared::{GlobalShared, NodeShared};
use crate::state::{array_mut, array_ref, GArray, Inner};
use crate::vp::Vp;

/// Per-node handle passed to the SPMD closure of [`crate::run`].
pub struct NodeCtx<'a> {
    pub(crate) ep: &'a mut EndpointCtx,
    /// The node's runtime state, owned by the node's thread (DESIGN.md §12).
    pub(crate) inner: Box<Inner>,
    /// Node-collective sequence number.
    pub(crate) coll_seq: u64,
    /// Reliable-transport state machine; `None` keeps the fast paths
    /// untouched (see `reliable.rs`).
    pub(crate) rel: Option<Box<Reliability>>,
    cfg: PpmConfig,
}

impl<'a> NodeCtx<'a> {
    pub(crate) fn new(ep: &'a mut EndpointCtx, cfg: PpmConfig) -> Self {
        let node = ep.id();
        NodeCtx {
            ep,
            inner: Box::new(Inner::new(cfg)),
            coll_seq: 0,
            rel: cfg
                .reliability_enabled()
                .then(|| Box::new(Reliability::new(node, &cfg))),
            cfg,
        }
    }

    /// `PPM_node_id`: this node's id.
    #[inline]
    pub fn node_id(&self) -> usize {
        self.ep.id()
    }

    /// `PPM_node_count`: number of nodes in the cluster.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.cfg.nodes()
    }

    /// `PPM_cores_per_node`: cores on each node.
    #[inline]
    pub fn cores_per_node(&self) -> usize {
        self.cfg.cores_per_node()
    }

    /// Runtime configuration.
    #[inline]
    pub fn config(&self) -> PpmConfig {
        self.cfg
    }

    /// Current simulated time on this node.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.ep.clock.now()
    }

    /// Charge node-level (single-core) computation.
    pub fn charge_flops(&mut self, n: u64) {
        self.inner.counters.flops += n;
        self.ep
            .clock
            .advance_compute(self.cfg.machine.core.flops(n));
    }

    /// Event counters accumulated on this node so far. The runtime keeps
    /// them in one place and hands them to the endpoint when the node's
    /// context drops, for `JobReport::counters`. Some counts land here only
    /// at the next phase fold (step 5 of a global phase end, or the drop):
    /// serving a peer's read request, and every reliability count (acks,
    /// suppressed duplicates, retries, `faults_*`) — when a peer's message
    /// is taken is a real-time accident, the fold it belongs to is not.
    pub fn ep_counters(&self) -> ppm_simnet::Counters {
        self.inner.counters
    }

    /// Emit a trace event whose arguments are all integers: the span
    /// `[start, end]`, or an instant at `start` when `end` is `None`.
    /// Tests `enabled()` itself — a caller keeps its own guard only where
    /// *computing* an argument costs.
    pub(crate) fn trace(
        &self,
        name: &'static str,
        cat: &'static str,
        start: SimTime,
        end: Option<SimTime>,
        args: &[(&'static str, u64)],
    ) {
        if !self.ep.tracer.enabled() {
            return;
        }
        let args = args.iter().map(|&(k, v)| (k, ArgValue::U64(v))).collect();
        match end {
            Some(end) => self.ep.tracer.span(name, cat, start, end, args),
            None => self.ep.tracer.instant(name, cat, start, args),
        }
    }

    /// High-water mark of resident shared-array bytes on this node under
    /// the pseudo-streaming tile budget (DESIGN.md §18). Zero when
    /// streaming is off ([`PpmConfig::with_tile_budget`] unset): residency
    /// is only tracked under a budget.
    pub fn peak_bytes_resident(&self) -> u64 {
        self.inner.tile_budget.peak_bytes_resident()
    }

    /// Bytes of shared-array state currently resident under the
    /// pseudo-streaming tile budget; zero when streaming is off.
    pub fn bytes_resident(&self) -> u64 {
        self.inner.tile_budget.bytes_resident()
    }

    /// Drain the per-phase trace accumulated so far: one record per
    /// completed phase, in execution order (observability; see
    /// [`crate::PhaseRecord`]).
    pub fn take_phase_log(&mut self) -> Vec<crate::state::PhaseRecord> {
        std::mem::take(&mut self.inner.phase_log)
    }

    /// Drain the conformance violations the phase-semantics checker has
    /// reported on this node so far (see [`crate::PhaseViolation`]).
    /// Violations are flushed at each phase's end barrier, in deterministic
    /// order; the list is always empty when the checker is disabled
    /// ([`PpmConfig::with_checker`]).
    pub fn take_violations(&mut self) -> Vec<crate::check::PhaseViolation> {
        std::mem::take(&mut self.inner.violations)
    }

    /// Charge node-level memory operations.
    pub fn charge_mem_ops(&mut self, n: u64) {
        self.inner.counters.mem_ops += n;
        self.ep
            .clock
            .advance_compute(self.cfg.machine.core.mem_ops(n));
    }

    // -- allocation ---------------------------------------------------------

    /// Declare a global shared array of `len` elements, block-distributed
    /// over the nodes (`PPM_global_shared T a[len]`). Collective: every
    /// node must allocate the same arrays in the same order.
    pub fn alloc_global<T: Elem>(&mut self, len: usize) -> GlobalShared<T> {
        self.alloc_global_with(len, Layout::Block)
    }

    /// Declare a global shared array with an explicit distribution layout.
    pub fn alloc_global_with<T: Elem>(&mut self, len: usize, layout: Layout) -> GlobalShared<T> {
        let nodes = self.cfg.nodes();
        let dist = match layout {
            Layout::Block => Dist::block(len, nodes),
            Layout::Cyclic => Dist::cyclic(len, nodes),
            Layout::Weighted(bounds) => Dist::weighted(len, nodes, bounds),
        };
        self.alloc_global_dist(dist)
    }

    /// Declare a global shared array opted into trace-guided adaptive
    /// repartitioning ([`PpmConfig::adaptive_balance`], DESIGN.md §14). It
    /// starts on exactly the block boundaries (so with the knob off, or
    /// until the first rebalance, behavior is identical to
    /// [`Self::alloc_global`] bit for bit), but carries a weighted layout
    /// the runtime may recut at global phase boundaries. Collective, like
    /// all allocation.
    pub fn alloc_global_balanced<T: Elem>(&mut self, len: usize) -> GlobalShared<T> {
        let nodes = self.cfg.nodes();
        let block = Dist::block(len, nodes);
        let dist = Dist::weighted(len, nodes, std::sync::Arc::new(block.bounds()));
        let g = self.alloc_global_dist::<T>(dist);
        self.inner.balancer.opt_in(g.id);
        g
    }

    fn alloc_global_dist<T: Elem>(&mut self, dist: Dist) -> GlobalShared<T> {
        let len = dist.len;
        let node = self.node_id();
        let local_len = dist.local_len(node);
        let inner = &mut self.inner;
        // Cannot fire before memory runs out: every array allocated so far
        // holds a few hundred bytes of bookkeeping on every node, so four
        // billion of them are a terabyte per node.
        let id = u32::try_from(inner.garrays.len()).expect("too many global shared arrays");
        inner.garrays.push(Box::new(GArray::<T>::new(dist, node)));
        // Pseudo-streaming registration (DESIGN.md §18): under a tile
        // budget, large partitions are tiled and start fully cold.
        inner
            .tile_budget
            .register(id, std::mem::size_of::<T>(), local_len);
        GlobalShared::new(id, len)
    }

    /// Declare a node-shared array of `len` elements
    /// (`PPM_node_shared T a[len]`): one instance per node.
    pub fn alloc_node<T: Elem>(&mut self, len: usize) -> NodeShared<T> {
        let narrays = &mut self.inner.narrays;
        // Cannot fire before memory runs out, as for global arrays.
        let id = u32::try_from(narrays.len()).expect("too many node shared arrays");
        narrays.push(Box::new(GArray::<T>::node_shared(len)));
        NodeShared::new(id, len)
    }

    // -- direct (node-level) data access ------------------------------------

    /// Global index range owned by this node (any contiguous layout —
    /// block, or the weighted layout of a balanced array; panics for
    /// cyclic). For balanced arrays the range can change at global phase
    /// boundaries — query it when needed rather than hoisting it across
    /// phases.
    pub fn local_range<T: Elem>(&self, g: &GlobalShared<T>) -> std::ops::Range<usize> {
        let ga = array_ref::<T>(&self.inner.garrays, Space::Global, g.id);
        ga.dist.owned_range(self.node_id())
    }

    /// Distribution of a global array (a snapshot: balanced arrays may be
    /// recut at global phase boundaries).
    pub fn dist_of<T: Elem>(&self, g: &GlobalShared<T>) -> Dist {
        array_ref::<T>(&self.inner.garrays, Space::Global, g.id)
            .dist
            .clone()
    }

    /// Read this node's partition of a global array.
    pub fn with_local<T: Elem, R>(&self, g: &GlobalShared<T>, f: impl FnOnce(&[T]) -> R) -> R {
        f(&array_ref::<T>(&self.inner.garrays, Space::Global, g.id).local)
    }

    /// Mutate this node's partition of a global array directly
    /// (initialization / result extraction, outside any `ppm_do`).
    pub fn with_local_mut<T: Elem, R>(
        &mut self,
        g: &GlobalShared<T>,
        f: impl FnOnce(&mut [T]) -> R,
    ) -> R {
        f(&mut array_mut::<T>(&mut self.inner.garrays, Space::Global, g.id).local)
    }

    /// Read this node's instance of a node-shared array.
    pub fn with_node<T: Elem, R>(&self, n: &NodeShared<T>, f: impl FnOnce(&[T]) -> R) -> R {
        f(&array_ref::<T>(&self.inner.narrays, Space::Node, n.id).local)
    }

    /// Mutate this node's instance of a node-shared array directly.
    pub fn with_node_mut<T: Elem, R>(
        &mut self,
        n: &NodeShared<T>,
        f: impl FnOnce(&mut [T]) -> R,
    ) -> R {
        f(&mut array_mut::<T>(&mut self.inner.narrays, Space::Node, n.id).local)
    }

    // -- ppm_do --------------------------------------------------------------

    /// `PPM_do(K) func(...)`: start `k` virtual processors running the PPM
    /// function `f`, each with a unique rank in `0..k`, and block until all
    /// complete. Collective across nodes (`k` and `f` may differ per node).
    /// VPs are multiplexed over the node's cores; phases inside `f`
    /// synchronize per the model (§3.1–3.2).
    pub fn ppm_do<Fut>(&mut self, k: usize, f: impl Fn(Vp) -> Fut)
    where
        Fut: Future<Output = ()> + Send + 'static,
    {
        crate::exec::run_do(self, k, crate::state::DoMode::Collective, f);
    }

    /// Asynchronous variant of [`Self::ppm_do`] (paper §3.3: "a PPM
    /// program can make different nodes work on completely different tasks
    /// asynchronously"): starts `k` VPs on *this node only*, with no
    /// cross-node coordination. Only node phases (and node-shared
    /// variables, plus this node's partitions of global arrays) may be
    /// used inside; a global phase panics.
    pub fn ppm_do_local<Fut>(&mut self, k: usize, f: impl Fn(Vp) -> Fut)
    where
        Fut: Future<Output = ()> + Send + 'static,
    {
        crate::exec::run_do(self, k, crate::state::DoMode::Local, f);
    }

    // -- message transport ----------------------------------------------------

    /// Central send for all runtime messages. With reliability off this is
    /// exactly a raw [`Endpoint::try_send`](ppm_simnet::Endpoint::try_send);
    /// with it on, the message becomes an envelope, the fault plan is
    /// consulted, and retransmission/duplicate/delay costs are accounted
    /// (see `reliable.rs` for where each cost lands).
    pub(crate) fn send_msg(&mut self, mut msg: Message, kind: u64) {
        debug_assert_eq!(msgs::untag(msg.tag).0, kind, "tag/kind mismatch");
        if let Some(rel) = self.rel.as_deref_mut() {
            let inner = &mut self.inner;
            let (meta, delay) = rel.on_send(msg.dst, kind, &mut inner.deferred_ctrs);
            inner.traffic.rel_extra_msgs += (meta.lost_attempts + meta.duplicates) as u64;
            // Barrier/collective receivers honor `ts`, so their delay
            // travels on the wire; data-plane delay is charged from the
            // phase's traffic totals at `charge_phase_time`.
            if matches!(kind, msgs::K_BARRIER | msgs::K_COLL) {
                msg.ts += delay;
            } else {
                inner.traffic.rel_delay += delay;
            }
            msg = msg.with_rel(meta);
        }
        // Reachable from user code: a node whose closure panicked has
        // dropped its receiver. The text names that node and the message
        // that could not reach it; the peer's own panic is the cause to read.
        if let Err(m) = self.ep.net.try_send(msg) {
            let (kind, meta) = msgs::untag(m.tag);
            panic!(
                "node {} hung up (panicked?); in-flight {} message \
                 (meta {meta:#x}) src={} dst={} bytes={}",
                m.dst,
                msgs::kind_name(kind),
                m.src,
                m.dst,
                m.bytes
            );
        }
    }

    /// Blocking receive of the first queued message `filter` accepts; a
    /// deadlock panics with the node's protocol-state dump attached.
    ///
    /// A taken envelope is accounted into the deferred bucket, credited at
    /// the next fold ([`Self::fold_deferred`]): duplicate suppression and,
    /// every [`ACK_EVERY`](cost::ACK_EVERY) envelopes on a link, a
    /// cumulative ack. The ack is a counter, not a message (with virtual
    /// retransmission, `reliable.rs`, nothing would read it), modeled as
    /// piggybacked: it shows in `acks_sent` / `msgs_sent` / `bytes_sent`
    /// but costs no simulated time (see `Traffic::rel_extra_msgs`).
    ///
    /// Fail-fast guard (DESIGN.md §15): with replication off, a peer
    /// confirmed permanently dead can never send again — its traffic is
    /// black-holed — so blocking here could only end in a deadlock report.
    /// Raise the structured [`RecoveryError`] immediately instead; no
    /// deadlock is reported for a confirmed-dead peer.
    fn recv_raw(&mut self, filter: &Filter) -> Message {
        if !self.cfg.replication {
            if let Some(victim) = self.inner.failover.first_dead() {
                RecoveryError {
                    node: victim,
                    phase: self.inner.phase.global_seq,
                    reason: "peer confirmed permanently dead with replication \
                             disabled; a blocking receive cannot complete"
                        .into(),
                }
                .raise();
            }
        }
        let now = self.now();
        let Some(m) = self.ep.net.recv_match(filter) else {
            let dump = protocol_dump(&self.ep.net, &self.inner, self.rel.as_deref());
            // Publish the dump to the trace stream before the deadlock
            // panic unwinds this endpoint: the shared sink outlives the
            // thread, so a deadlocked run still leaves a readable trace.
            let args = vec![("dump", ArgValue::Str(dump.clone()))];
            self.ep.tracer.instant("deadlock", "runtime", now, args);
            self.ep.net.deadlocked(filter, &dump)
        };
        if let (Some(rel), Some(meta)) = (self.rel.as_deref_mut(), m.rel) {
            rel.on_take(m.src, meta, &mut self.inner.deferred_ctrs);
        }
        m
    }

    /// Blocking receive of the first runtime message tagged `tag` (from
    /// `src`, when given). Read requests queued ahead of it are served
    /// inline; everything else stays queued in the router, and this node
    /// sleeps through its arrival.
    pub(crate) fn pump_recv(&mut self, tag: u64, src: Option<usize>) -> Message {
        let always = Some(msgs::READ_REQS);
        let filter = Filter { tag, src, always };
        loop {
            let msg = self.recv_raw(&filter);
            if msgs::untag(msg.tag).0 != msgs::K_READ_REQ {
                return msg;
            }
            self.service_read_req(msg);
        }
    }

    /// Serve a bundle of read requests against this node's partitions.
    pub(crate) fn service_read_req(&mut self, msg: Message) {
        let src = msg.src;
        let req_bytes = msg.bytes;
        let bundle: msgs::ReqBundle = msg.take();
        let inner = &mut self.inner;
        // Protocol check: a request can only target the phase whose
        // snapshot our arrays currently hold (see `exec`'s determinism
        // notes) — i.e. the phase we have completed exactly `phase`
        // exchanges for.
        debug_assert_eq!(
            bundle.phase,
            inner.phase.global_seq,
            "read request for phase {} arrived while node {} holds phase {}",
            bundle.phase,
            self.ep.id(),
            inner.phase.global_seq
        );
        let n_entries = bundle.entries.len() as u64;
        inner.traffic.req_bundles_in += 1;
        inner.traffic.req_entries_in += n_entries;
        inner.traffic.req_bytes_in += req_bytes as u64;
        // Counters go to the deferred bucket: WHEN a peer's request reaches
        // us (during a wave, our clock barrier, or a prologue collective)
        // is a real-time accident, and crediting `counters` here would leak
        // that accident into the per-phase trace deltas. The bucket folds
        // in at the serviced phase's end (see `Inner::deferred_ctrs`).
        inner.deferred_ctrs.msgs_recv += 1;
        inner.deferred_ctrs.bytes_recv += req_bytes as u64;

        // Refresh pushes (DESIGN.md §13): remember who asked for what, so a
        // later rewrite of a repeatedly-served element can push the new
        // value to its readers.
        inner.coherence.note_serves(src, &bundle.entries);

        // One response part per array. The requester sorts its entries by
        // (array, idx), so each array is one contiguous run: split in
        // place, in wire order — nothing here may iterate a hash map, or
        // its order would show through on the wire.
        debug_assert!(
            bundle
                .entries
                .windows(2)
                .all(|w| (w[0].array, w[0].idx) < (w[1].array, w[1].idx)),
            "read-request entries not sorted by (array, idx)"
        );
        let mut parts = Vec::new();
        let mut bytes = cost::BUNDLE_HEADER_BYTES;
        let mut idxs: Vec<u64> = Vec::new();
        for run in bundle.entries.chunk_by(|a, b| a.array == b.array) {
            let array = run[0].array;
            idxs.clear();
            idxs.extend(run.iter().map(|e| e.idx));
            let (values, vbytes) = inner.garrays[array as usize].serve(&idxs);
            bytes += vbytes;
            parts.push(RespPart {
                array,
                slots: run.iter().map(|e| e.slot).collect(),
                values,
            });
        }
        inner.service_time += cost::SERVICE_OVERHEAD.scale(n_entries);
        inner.traffic.resp_bundles_out += 1;
        inner.traffic.resp_bytes_out += bytes as u64;
        inner.deferred_ctrs.msgs_sent += 1;
        inner.deferred_ctrs.bytes_sent += bytes as u64;

        let (now, me) = (self.now(), self.node_id());
        self.send_msg(
            Message::new(
                me,
                src,
                msgs::tag(msgs::K_READ_RESP, 0),
                now,
                bytes,
                RespBundle { parts },
            ),
            msgs::K_READ_RESP,
        );
    }

    /// The fold: credit the deferred bucket (`Inner::deferred_ctrs`) to the
    /// node's counters and emit the reliability layer's trace instants
    /// (`reliable.rs`). Step 5 of a global phase end calls it, when every
    /// read request of the phase has been served and none of the next
    /// phase's can have been, and so does the node's drop.
    pub(crate) fn fold_deferred(&mut self) {
        let inner = &mut self.inner;
        let deferred = std::mem::take(&mut inner.deferred_ctrs);
        inner.counters = inner.counters.merge(&deferred);
        if let Some(rel) = self.rel.as_deref_mut() {
            let (tracer, now) = (&self.ep.tracer, self.ep.clock.now());
            rel.fold(|name, args| {
                let args = args.iter().map(|&(k, v)| (k, ArgValue::U64(v)));
                tracer.instant(name, "reliability", now, args.collect());
            });
        }
    }
}

impl Drop for NodeCtx<'_> {
    /// Fold what is still deferred and hand the node's counters to the
    /// endpoint — the one place they reach it — so `JobReport::counters`
    /// is complete. A node unwinding hands over nothing.
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        self.fold_deferred();
        let c = std::mem::take(&mut self.inner.counters);
        self.ep.counters = self.ep.counters.merge(&c);
    }
}

/// Render the node's protocol state for a deadlock report: phase
/// bookkeeping, parked reads, the messages still queued in the router, and
/// (when reliability is on) per-link envelope state — everything needed to
/// see *why* a run deadlocked.
fn protocol_dump(net: &Endpoint, i: &Inner, rel: Option<&Reliability>) -> String {
    use std::fmt::Write as _;
    let mut out = format!("node {} protocol state:\n", net.id());
    let p = &i.phase;
    let _ = writeln!(
        out,
        "  phase: open={:?} entered={} arrived={} epoch={} \
         global_seq={} node_seq={}",
        p.open, p.entered, p.arrived, i.epoch, p.global_seq, p.node_seq
    );
    let _ = writeln!(
        out,
        "  vps: live={} | parked reads outstanding={} | queued req dests={}",
        i.live_vps,
        i.outstanding_reads,
        i.reqs.iter().filter(|v| !v.is_empty()).count()
    );
    i.failover.dump(&mut out);
    let queued = net.queued();
    let _ = writeln!(out, "  queued in the router: {} messages", queued.len());
    for &(src, tag) in queued.iter().take(8) {
        let (kind, meta) = msgs::untag(tag);
        let kind = msgs::kind_name(kind);
        let _ = writeln!(out, "    {kind} from node {src}, meta {meta:#x}");
    }
    if queued.len() > 8 {
        let _ = writeln!(out, "    … and {} more", queued.len() - 8);
    }
    if let Some(r) = rel {
        out.push_str(&r.dump());
    }
    out
}
