//! Phase ends: a node phase's publish-and-release, and a global phase's
//! exchange — written as the protocol's ordered step list, because the order
//! *is* the correctness argument (DESIGN.md §17).

use std::any::Any;
use std::collections::BTreeMap;

use ppm_simnet::coll::dissemination;
use ppm_simnet::{Counters, Message, SimTime};

use super::barrier::{clock_barrier, BarrierParts};
use crate::bitset::NodeSet;
use crate::check::Space;
use crate::coherence::CoherencePart;
use crate::cost;
use crate::dissem::{LoadBlock, Notices};
use crate::failover::FailoverPart;
use crate::msgs::{self, TokenMsg, WriteBundleMsg};
use crate::nodectx::NodeCtx;
use crate::state::{PhaseKind, Traffic};
use crate::{balance, failover};

/// Record a phase-summary span `[start, now]` carrying the phase's time
/// breakdown plus the per-phase delta of every counter, and advance the
/// delta baseline. Only called while tracing is enabled.
fn emit_phase_summary(
    nc: &mut NodeCtx<'_>,
    name: &'static str,
    start: SimTime,
    idx: u64,
    args: &[(&'static str, u64)],
) {
    let merged = nc.ep_counters();
    let delta = merged.delta(&nc.inner.ctr_base);
    let mut all = Vec::with_capacity(1 + args.len() + Counters::DELTA_NAMES.len());
    all.push(("phase", idx));
    all.extend_from_slice(args);
    let values = delta.named_fields().map(|(_, v)| v);
    all.extend(Counters::DELTA_NAMES.into_iter().zip(values));
    nc.trace(name, "phase", start, Some(nc.now()), &all);
    nc.inner.ctr_base = merged;
}

/// Write parcels grouped per array: `(source node, payload)` pairs.
type ParcelsByArray = BTreeMap<u32, Vec<(u32, Box<dyn Any + Send>)>>;

/// End a node phase: publish node-shared writes, charge the cores' max
/// compute plus the node barrier, release the VPs.
pub(super) fn node_phase_end(nc: &mut NodeCtx<'_>) {
    let cfg = nc.config();
    let t0 = nc.now();
    let compute = {
        let inner = &mut nc.inner;
        let wrote = inner.publish_node_writes(PhaseKind::Node);
        failover::advance_node_line(inner, &cfg, wrote);
        debug_assert!(
            inner.garrays.iter().all(|g| !g.has_pending_writes()),
            "global writes buffered during a node phase"
        );
        let compute = inner.take_core_compute();
        inner.close_phase();
        inner.phase.node_seq += 1;
        compute
    };
    nc.ep.clock.advance_compute(compute);
    nc.ep.clock.advance_comm(cost::NODE_BARRIER);

    if nc.ep.tracer.enabled() {
        let idx = nc.inner.phase.node_seq - 1;
        let t1 = t0 + compute;
        nc.trace("compute", "phase", t0, Some(t1), &[]);
        nc.trace("barrier", "phase", t1, Some(nc.now()), &[]);
        let args = [
            ("compute_ps", compute.as_ps()),
            ("barrier_ps", cost::NODE_BARRIER.as_ps()),
        ];
        emit_phase_summary(nc, "node_phase", t0, idx, &args);
    }
}

/// End a global phase. Each step is one call, in the one order the
/// protocol is correct in (DESIGN.md §17 has the table of why each sits
/// where it does).
pub(super) fn global_phase_end(nc: &mut NodeCtx<'_>) {
    let (me, nodes) = (nc.node_id(), nc.num_nodes());
    let phase = nc.inner.phase.global_seq;
    let t0 = nc.now();

    // 1. Recover / detect: a seeded crash redoes the phase body before any
    //    of it leaves the node; seeded deaths become suspicion bits.
    let suspects = failover::recover_and_detect(nc, phase);

    // 2. Drain the write buffers into per-destination bundles, noting which
    //    arrays took writes at all. Own writes never travel: they join step
    //    5's merge as source `me`.
    let (coherence, mut outgoing) = drain_writes(nc);
    let (own_bytes, own) = outgoing.remove(&me).unwrap_or_default();

    // 3. Notices: tell every write destination a bundle is coming, and
    //    learn who announced one for this node — the exchange's flush point.
    debug_assert!(outgoing.values().all(|(_, bundle)| bundle.entries > 0));
    let expected = exchange_sender_notices(nc, phase, outgoing.keys().copied());

    // 4. Exchange: ship the bundles, collect exactly the announced ones.
    let incoming = exchange_writes(nc, phase, outgoing, &expected);

    // 5. Apply, in ascending source order per array; from here the arrays
    //    hold phase+1's snapshot and `global_seq` says so.
    apply_writes(nc, phase, incoming, own);

    // 6. Rebalance: after writes applied, before the recovery line advances.
    balance::maybe_rebalance(nc, phase);

    // 7. Recovery line, and the buddy's replica frame cut from it.
    let replica = failover::advance_recovery_line(nc, own_bytes as u64);

    // 8. Charge the phase's modeled time.
    let (compute, service, comm, bytes_out, bytes_in, t) = charge_phase_time(nc);

    // 9. Clock barrier, carrying each feature's part; every later phase of
    //    any peer happens after this node's first send in it.
    let my_load = (compute + service).as_ps();
    let failover = FailoverPart::new(&mut nc.inner, (me, nodes), suspects, replica, my_load);
    let parts = BarrierParts {
        coherence,
        loads: LoadBlock::new(me, nodes, my_load),
        failover,
    };
    let barrier_start = nc.now();
    clock_barrier(nc, phase, parts);

    // 10. Close the phase and release the VPs.
    nc.inner.close_phase();
    debug_assert!(
        nc.inner.garrays.iter().all(|g| g.arena_is_empty()),
        "response values outlived their global phase"
    );

    if nc.ep.tracer.enabled() {
        let barrier_end = nc.now();
        nc.trace("barrier", "phase", barrier_start, Some(barrier_end), &[]);
        // Refresh pushes sent during the barrier that just closed this
        // phase land in the live (already reset) traffic — read them
        // there so the summary's bundle reconciliation stays exact
        // (their *time* is charged next phase; see `Traffic` docs).
        let refresh_out = nc.inner.traffic.refresh_bundles_out;
        let args = [
            ("compute_ps", compute.as_ps()),
            ("service_ps", service.as_ps()),
            ("comm_ps", comm.as_ps()),
            ("barrier_ps", (barrier_end - barrier_start).as_ps()),
            ("waves", t.waves),
            ("bytes_out", bytes_out),
            ("bytes_in", bytes_in),
            ("req_bundles_out", t.req_bundles_out),
            ("write_bundles_out", t.write_bundles_out),
            ("refresh_bundles_out", refresh_out),
            ("rel_delay_ps", t.rel_delay.as_ps()),
        ];
        emit_phase_summary(nc, "global_phase", t0, phase, &args);
    }
}

/// `(payload bytes, bundle)` keyed by destination, holding only
/// destinations a parcel was emitted for — nothing here is sized by the
/// node count.
type Outgoing = BTreeMap<usize, (usize, WriteBundleMsg)>;

/// Step 2: drain every array's write buffer into per-destination parcels
/// (the drain also tells the conformance checker of this node's write-write
/// conflicts), after coherence has noted which arrays hold writes.
fn drain_writes(nc: &mut NodeCtx<'_>) -> (CoherencePart, Outgoing) {
    let (me, nodes) = (nc.node_id(), nc.num_nodes());
    let mut outgoing = Outgoing::new();
    let inner = &mut nc.inner;
    let coherence = (inner.coherence).barrier_part(me, nodes, &inner.garrays);
    let mut checker = inner.checker.as_mut();
    for (id, ga) in inner.garrays.iter_mut().enumerate() {
        // Every VP has arrived, so every parked read has resumed and
        // copied its value out: the phase's response values can go.
        ga.arena_clear();
        let checker = checker.as_deref_mut();
        let conflicts =
            checker.map(|c| c.conflicts_in(Space::Global, id as u32, PhaseKind::Global));
        for parcel in ga.drain_writes(conflicts) {
            let (bytes, bundle) = outgoing.entry(parcel.dest).or_default();
            *bytes += parcel.bytes;
            bundle.entries += parcel.entries;
            bundle.parts.push((id as u32, parcel.payload));
        }
    }
    (coherence, outgoing)
}

/// Step 4: ship the bundles — only non-empty ones travel — and collect
/// exactly the announced ones, servicing read requests from stragglers
/// still inside their phase bodies. Returns `(source, wire bytes, bundle)`
/// ascending.
fn exchange_writes(
    nc: &mut NodeCtx<'_>,
    phase: u64,
    outgoing: Outgoing,
    expected: &NodeSet,
) -> Vec<(u32, u64, WriteBundleMsg)> {
    let mut shipping = Vec::with_capacity(outgoing.len());
    let t = &mut nc.inner.traffic;
    for (dest, (payload_bytes, bundle)) in outgoing {
        let bytes = cost::BUNDLE_HEADER_BYTES + payload_bytes;
        t.write_bundles_out += 1;
        t.write_entries_out += bundle.entries;
        t.write_bytes_out += bytes as u64;
        shipping.push((dest, bytes, bundle));
    }
    let incoming = exchange(nc, msgs::K_WRITE, phase, shipping, expected);
    let t = &mut nc.inner.traffic;
    for (_, bytes, bundle) in &incoming {
        t.write_bundles_in += 1;
        t.write_entries_in += bundle.entries;
        t.write_bytes_in += bytes;
    }
    incoming
}

/// Step 5: group parcels by array (own writes participate as source `me`;
/// each array's merge takes its sources in ascending order), apply them,
/// and let coherence pick what to push to peer caches.
fn apply_writes(
    nc: &mut NodeCtx<'_>,
    phase: u64,
    incoming: Vec<(u32, u64, WriteBundleMsg)>,
    own: WriteBundleMsg,
) {
    let (me, nodes) = (nc.node_id(), nc.num_nodes());
    let mut by_array: ParcelsByArray = BTreeMap::new();
    let remote = incoming.into_iter().map(|(src, _, b)| (src, b.parts));
    for (src, parts) in remote.chain([(me as u32, own.parts)]) {
        for (array, payload) in parts {
            by_array.entry(array).or_default().push((src, payload));
        }
    }
    // Every phase-`phase` read request has been serviced by now — the
    // notice dissemination of step 3 is the exchange's flush point (see
    // `exchange_sender_notices`) — and no phase+1 request can have been
    // serviced yet (`global_seq` still gates them). Folding the deferred
    // counters, the reliability instants and the serve log here attributes
    // them to this phase deterministically, whatever real-time moment the
    // messages behind them were taken at.
    nc.fold_deferred();
    let inner = &mut nc.inner;
    inner.coherence.fold_serves(phase);
    let mut applied = 0u64;
    for (array, parcels) in by_array {
        // The written ranges are listed only for an array some peer reads.
        let served = inner.coherence.has_history(array);
        // Split borrow: applied writes bump tile recency on resident tiles
        // (write-through without admission, DESIGN.md §18).
        let tiles = &mut inner.tile_budget;
        let (n, written) = inner.garrays[array as usize].apply_writes(
            parcels,
            &mut |offs| tiles.touch_span(array, offs),
            served,
        );
        applied += n;
        if served {
            let ga = &*inner.garrays[array as usize];
            (inner.coherence).select_refresh((me, nodes), array, &written, ga);
        }
    }
    // Node-shared writes made inside the global phase publish too.
    inner.publish_node_writes(PhaseKind::Global);
    inner.service_time += cost::SERVICE_OVERHEAD.scale(applied);
    // The arrays now hold the next phase's snapshot: requests for phase+1
    // may legally arrive (from nodes that already finished the clock
    // barrier) and be serviced from here on.
    inner.phase.global_seq += 1;
}

/// Turn the phase's traffic totals and compute accumulators into simulated
/// time on this node's clock. Returns what it charged — compute, service,
/// comm, and the bytes out and in the comm term was computed from — and the
/// traffic totals: the barrier's load and the tracer's phase summary read
/// them.
fn charge_phase_time(nc: &mut NodeCtx<'_>) -> (SimTime, SimTime, SimTime, u64, u64, Traffic) {
    let cfg = nc.config();
    let net = cfg.machine.net;
    let (compute, service, t) = {
        let inner = &mut nc.inner;
        let compute = inner.take_core_compute();
        let service = std::mem::take(&mut inner.service_time);
        (compute, service, std::mem::take(&mut inner.traffic))
    };

    // Refresh pushes ride barrier messages; the previous barrier recorded
    // their bytes into the (already reset) live Traffic, so they surface
    // here one phase later — symmetrically on sender and receiver, hence
    // still deterministic. The job's final barrier's refresh bytes are
    // never charged as time (the counters still count them).
    let mut bytes_out =
        t.req_bytes_out + t.resp_bytes_out + t.write_bytes_out + t.refresh_bytes_out;
    let mut bytes_in = t.req_bytes_in + t.resp_bytes_in + t.write_bytes_in + t.refresh_bytes_in;
    // Migration payloads (adaptive repartitioning, DESIGN.md §14) are
    // runtime bulk transfers — one bundle per peer regardless of the
    // bundling ablation — charged in the rebalancing phase's gap term.
    bytes_out += t.migr_bytes_out;
    bytes_in += t.migr_bytes_in;
    // Replica frames ride barrier messages like refresh pushes and are
    // recorded into the live (already reset) Traffic during the barrier,
    // so their time likewise surfaces one phase later — but only on the
    // RECEIVING end (the buddy ingesting the frame into its replica
    // store): the sender streams the frame during the barrier gap it is
    // already paying, so the send side is modeled free. The final
    // barrier's frame is never charged as time.
    bytes_in += t.replica_bytes_in;
    let (mut msgs_out, mut msgs_in) = if cfg.bundling {
        (
            t.req_bundles_out + t.resp_bundles_out + t.write_bundles_out,
            t.req_bundles_in + t.resp_bundles_in + t.write_bundles_in,
        )
    } else {
        // Ablation: every element access is its own message, with its own
        // per-message overhead and framing bytes.
        let n_out = t.req_entries_out + t.req_entries_in + t.write_entries_out;
        let n_in = t.req_entries_in + t.req_entries_out + t.write_entries_in;
        bytes_out += n_out * cost::UNBUNDLED_ENTRY_BYTES;
        bytes_in += n_in * cost::UNBUNDLED_ENTRY_BYTES;
        (n_out, n_in)
    };

    msgs_out += t.migr_bundles_out;
    msgs_in += t.migr_bundles_in;

    // Reliability layer (zero when disabled): retransmitted/duplicate
    // envelopes pay per-message overhead, and backoff/fault delay is
    // exposed wait time. Cumulative acks are modeled as piggybacked and
    // cost no simulated time (see `Traffic::rel_extra_msgs`).
    msgs_out += t.rel_extra_msgs;

    // Node-level sender: the runtime owns the NIC (share factor 1).
    let gap = net.gap_per_byte.scale(bytes_out.max(bytes_in));
    let overhead = net.overhead.scale(msgs_out + msgs_in);
    // Wave pipelining hides compute charged while a multi-destination wave
    // was partially consumed under the wave's exposed response legs —
    // capped by the hideable budget (one latency per >=2-destination
    // wave), which is itself <= latency.scale(waves), so the subtraction
    // cannot underflow.
    let hidden = t.pipelined_compute.min(t.pipeline_hideable);
    let latency = net.latency.scale(2 * t.waves) - hidden;

    let busy = compute + service;
    let busy_start = nc.now();
    nc.ep.clock.advance_compute(busy);
    let comm = if cfg.overlap {
        // Gap time hides under computation (§3.3 overlap); overheads and
        // wave round trips do not.
        let exposed_gap = if gap > busy {
            gap - busy
        } else {
            SimTime::ZERO
        };
        exposed_gap + overhead + latency
    } else {
        gap + overhead + latency
    };
    let comm = comm + t.rel_delay;
    nc.ep.clock.advance_comm(comm);

    let busy_end = busy_start + busy;
    let args = [
        ("compute_ps", compute.as_ps()),
        ("service_ps", service.as_ps()),
    ];
    nc.trace("compute", "phase", busy_start, Some(busy_end), &args);
    let args = [
        ("waves", t.waves),
        ("bytes_out", bytes_out),
        ("bytes_in", bytes_in),
    ];
    nc.trace("comm", "phase", busy_end, Some(busy_end + comm), &args);
    (compute, service, comm, bytes_out, bytes_in, t)
}

/// Sparse-exchange sender notices (DESIGN.md §17): this node tells every
/// peer in `dests` "expect a non-empty [`K_WRITE`] bundle from me", each
/// notice source-routed over the clock barrier's dissemination edges
/// ([`Edge::carries`](ppm_simnet::coll::Edge::carries)) instead of replicated
/// to all nodes. Returns the set of peers that announced a bundle for this
/// node this phase.
///
/// Modeled free: zero wire bytes, no clock advance, no message counters.
///
/// Determinism note — this dissemination is also the exchange's *flush
/// point*, which is why every node sends exactly one token per round even
/// when no notice rides it. A peer's phase-`phase` read requests are
/// enqueued to this node's inbox before the peer's round-0 token send
/// (program order on the peer), and that send transitively happens-before
/// some token this node receives (each hop sends round `r+1` only after
/// receiving round `r`, and the edges reach every node from every node).
/// The per-endpoint queue in the router is one FIFO, and a receive always
/// takes a read request queued ahead of what it waits for, so by the time
/// the final round's `pump_recv` returns, every peer's phase-`phase`
/// requests have been taken — and `pump_recv` services them inline. Step 4's
/// deferred-counter and serve-history folds rely on it; nothing else in the
/// exchange provides it (a node waits for bundles from announced senders
/// only). No phase-`phase+1` token can arrive before step 6: a peer
/// starts its next phase only after its clock barrier completes, which
/// transitively requires this node's barrier sends.
///
/// [`K_WRITE`]: msgs::K_WRITE
fn exchange_sender_notices(
    nc: &mut NodeCtx<'_>,
    phase: u64,
    dests: impl ExactSizeIterator<Item = usize>,
) -> NodeSet {
    let me = nc.node_id();
    let nodes = nc.num_nodes();
    if nodes == 1 {
        return NodeSet::new();
    }
    let write_dests = dests.len() as u64;
    let mut notices = Notices::new(me, nodes, dests);
    for edge in dissemination(me, nodes) {
        let tag = msgs::tag(msgs::K_TOKENS, msgs::barrier_meta(phase, edge.round));
        let token = TokenMsg {
            phase,
            notices: notices.take_for(edge),
        };
        let now = nc.now();
        nc.send_msg(
            Message::new(me, edge.to, tag, now, 0, token),
            msgs::K_TOKENS,
        );
        let msg = nc.pump_recv(tag, Some(edge.from));
        let tm: TokenMsg = msg.take();
        debug_assert_eq!(tm.phase, phase);
        notices.absorb(tm.notices);
    }
    let expected = notices.into_expected();
    let args = [
        ("phase", phase),
        ("write_dests", write_dests),
        ("expected_senders", expected.count() as u64),
    ];
    nc.trace("token_exchange", "runtime", nc.now(), None, &args);
    expected
}

/// One bundle exchange of a phase end — the write exchange ([`K_WRITE`]) and
/// a rebalance's migration ([`K_MIGRATE`]) are the same protocol: send each
/// `(dest, wire bytes, payload)` of `outgoing` (ascending destinations, no
/// empty bundle), then block until every peer in `expected` has delivered
/// its own, servicing read requests from stragglers meanwhile. Returns
/// `(source, wire bytes, payload)` in ascending source order. Message and
/// bundle counters are kept here; what the bytes mean to the phase's cost
/// (`Traffic`'s `write_*` or `migr_*` columns) is the caller's to add.
///
/// [`K_WRITE`]: msgs::K_WRITE
/// [`K_MIGRATE`]: msgs::K_MIGRATE
pub(crate) fn exchange<M: Send + 'static>(
    nc: &mut NodeCtx<'_>,
    kind: u64,
    phase: u64,
    outgoing: Vec<(usize, usize, M)>,
    expected: &NodeSet,
) -> Vec<(u32, u64, M)> {
    let me = nc.node_id();
    let tag = msgs::tag(kind, phase);
    for (dest, bytes, payload) in outgoing {
        debug_assert!(dest != me && bytes > 0);
        let c = &mut nc.inner.counters;
        c.msgs_sent += 1;
        c.bytes_sent += bytes as u64;
        c.bundles_sent += 1;
        let now = nc.now();
        nc.send_msg(Message::new(me, dest, tag, now, bytes, payload), kind);
    }
    let want = expected.count() as usize;
    let mut incoming: Vec<(u32, u64, M)> = Vec::with_capacity(want);
    while incoming.len() < want {
        let msg = nc.pump_recv(tag, None);
        let (src, bytes) = (msg.src, msg.bytes as u64);
        debug_assert!(
            expected.contains(src),
            "node {src} sent a {} bundle nobody announced",
            msgs::kind_name(kind)
        );
        debug_assert!(
            bytes > 0,
            "node {src} shipped an empty {} bundle",
            msgs::kind_name(kind)
        );
        let c = &mut nc.inner.counters;
        c.msgs_recv += 1;
        c.bytes_recv += bytes;
        incoming.push((src as u32, bytes, msg.take()));
    }
    incoming.sort_by_key(|&(src, ..)| src);
    incoming
}
