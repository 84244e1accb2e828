//! Communication waves and tile-fault service: what `drive` does when no
//! VP is runnable but reads are parked.

use ppm_simnet::Message;

use crate::cost;
use crate::msgs::{self, ReqBundle, RespBundle};
use crate::nodectx::NodeCtx;
use crate::state::{QueuedReq, VpState};

/// Service one cold-tile fault round (pseudo-streaming, DESIGN.md §18):
/// refill the *minimum* cold `(array, tile)` a VP waits for — evicting
/// least-recently-touched tiles to stay under the budget — and wake the VPs
/// waiting for it, and no other. A woken VP whose reads still find a tile
/// cold notes it again charge-free; a VP left parked waits only for tiles
/// that are still cold, so its poll would have noted the same ones. The set
/// of cold tiles after the round, and with it the whole refill sequence, is
/// what waking every parked VP gives. Servicing only the minimum tile keeps
/// simultaneous residency bounded by the budget even when every VP faults a
/// different tile at once, and each round strictly shrinks the set of
/// unresolved deferred reads (the refilled tile cannot be evicted before
/// the very next poll captures its values). Spills and refills are free in
/// modeled time and charge no counters beyond their own: residency is an
/// accounting overlay on the same backing storage, so the phase cost model
/// never sees it — makespans stay bit-identical to in-core execution.
pub(super) fn service_tile_faults(nc: &mut NodeCtx<'_>, ready: &mut Vec<usize>) {
    let (array, tile, spilled, resident) = {
        let inner = &mut nc.inner;
        // Cannot fire: `drive` enters a fault round only on a non-empty list.
        let faults = &mut inner.tile_faults;
        let (array, tile) = faults.take_min(ready).expect("fault round with no faults");
        let spilled = inner.tile_budget.refill(array, tile);
        inner.counters.tile_refills += 1;
        inner.counters.tile_spills += spilled.len() as u64;
        let resident = inner.tile_budget.bytes_resident();
        (array, tile, spilled, resident)
    };
    let ts = nc.now();
    for &(a, t) in &spilled {
        let args = [("array", a as u64), ("tile", t as u64)];
        nc.trace("tile_spill", "mem", ts, None, &args);
    }
    let args = [
        ("array", array as u64),
        ("tile", tile as u64),
        ("bytes_resident", resident),
    ];
    nc.trace("tile_refill", "mem", ts, None, &args);
}

/// One destination's share of a wave. Waiter groups are in CSR form: the
/// wire entry with ticket `t` asks for element `meta[t]` on behalf of
/// `waiters[starts[t]..starts[t + 1]]`. A bulk read has already combined
/// its own repeats (`GetManyFut`), so a group holds one waiter per *read*
/// that wants the element, not one per occurrence of its index.
pub(super) struct DestPending {
    pub dest: usize,
    pub starts: Vec<u32>,
    /// `(vp, slot)` per queued request, grouped by ticket.
    pub waiters: Vec<(u32, u32)>,
    /// `(array, global idx)` per ticket (the read cache needs the index
    /// on fill).
    pub meta: Vec<(u32, u64)>,
}

/// Turn one destination's request queue into its wire entries and waiter
/// groups: sort in place by `(array, idx)` and give each distinct element
/// one entry, whose ticket is its rank in that order. The sort key is the
/// whole request, so the result is a function of the queued *set* — not of
/// the order VP polls appended it in — and the queue keeps its capacity
/// for later waves.
pub(super) fn build_dest(
    dest: usize,
    queue: &mut Vec<QueuedReq>,
) -> (Vec<msgs::ReqEntry>, DestPending) {
    queue.sort_unstable_by_key(|r| (r.array, r.idx, r.vp, r.slot));
    let mut entries: Vec<msgs::ReqEntry> = Vec::new();
    let mut pend = DestPending {
        dest,
        starts: Vec::new(),
        waiters: Vec::with_capacity(queue.len()),
        meta: Vec::new(),
    };
    for r in queue.drain(..) {
        if pend.meta.last() != Some(&(r.array, r.idx)) {
            entries.push(msgs::ReqEntry {
                array: r.array,
                idx: r.idx,
                slot: pend.meta.len() as u32,
            });
            pend.starts.push(pend.waiters.len() as u32);
            pend.meta.push((r.array, r.idx));
        }
        pend.waiters.push((r.vp, r.slot));
    }
    pend.starts.push(pend.waiters.len() as u32);
    (entries, pend)
}

/// One in-flight communication wave. Destinations complete strictly in
/// ascending node order no matter when their responses really arrive
/// (early ones wait in the router's queue), so the VP wake order never
/// depends on network timing (DESIGN.md §13).
#[derive(Default)]
pub(super) struct WaveState {
    /// Per destination, ascending.
    pub pending: Vec<DestPending>,
    /// Destinations consumed so far; `pending[next]` is the next to drain.
    pub next: usize,
    dests: u64,
    entries: u64,
    bytes_out: u64,
    bytes_in: u64,
}

/// Flush the queued read requests as one bundle per destination, with
/// duplicate (array, index) requests from different VPs merged into a
/// single wire entry. Returns the wave's completion state; responses are
/// consumed by [`wave_recv_next`].
pub(super) fn start_wave(nc: &mut NodeCtx<'_>) -> WaveState {
    let me = nc.node_id();
    let cfg = nc.config();
    let mut ws = WaveState::default();
    // `reqs` is dense and indexed by destination, so bundles go out — and
    // `pending` fills — in ascending destination order.
    for dest in 0..cfg.nodes() {
        let (phase, entries, bytes) = {
            let inner = &mut nc.inner;
            if inner.reqs[dest].is_empty() {
                continue;
            }
            debug_assert_ne!(dest, me);
            let queued = inner.reqs[dest].len();
            let (entries, pend) = build_dest(dest, &mut inner.reqs[dest]);
            ws.pending.push(pend);
            let bytes = cost::BUNDLE_HEADER_BYTES + entries.len() * cost::REQ_ENTRY_BYTES;
            inner.traffic.req_bundles_out += 1;
            inner.traffic.req_entries_out += entries.len() as u64;
            inner.traffic.req_bytes_out += bytes as u64;
            inner.counters.msgs_sent += 1;
            inner.counters.bytes_sent += bytes as u64;
            inner.counters.bundles_sent += 1;
            inner.counters.dedup_reads += (queued - entries.len()) as u64;
            (inner.phase.global_seq, entries, bytes)
        };
        ws.dests += 1;
        ws.entries += entries.len() as u64;
        ws.bytes_out += bytes as u64;
        let now = nc.now();
        nc.send_msg(
            Message::new(
                me,
                dest,
                msgs::tag(msgs::K_READ_REQ, phase),
                now,
                bytes,
                ReqBundle { phase, entries },
            ),
            msgs::K_READ_REQ,
        );
    }
    debug_assert!(!ws.pending.is_empty(), "wave started with no requests");
    ws
}

/// Block for the wave's next destination (ascending order; peers are
/// serviced meanwhile, unrelated messages left queued), park the response
/// values in the arrays' arenas — populating the read cache when enabled —
/// and point every answered slot at its value, in the parked VPs'
/// `states` (by rank). Returns the VPs whose reads were satisfied
/// (ascending) and the number of slots filled — one per distinct element of
/// each waiting read; the repeats inside a bulk read are copied by its own
/// poll.
pub(super) fn wave_recv_next(
    nc: &mut NodeCtx<'_>,
    states: &mut [VpState],
    ws: &mut WaveState,
) -> (Vec<usize>, usize) {
    let cache_on = nc.config().read_cache;
    let pend = &ws.pending[ws.next];
    let dest = pend.dest;
    let msg = nc.pump_recv(msgs::tag(msgs::K_READ_RESP, 0), Some(dest));
    let bytes = msg.bytes as u64;
    let resp: RespBundle = msg.take();
    let inner = &mut nc.inner;
    inner.traffic.resp_bundles_in += 1;
    inner.traffic.resp_bytes_in += bytes;
    inner.counters.msgs_recv += 1;
    inner.counters.bytes_recv += bytes;
    let mut woken = vec![false; states.len()];
    let mut filled = 0usize;
    let mut idxs: Vec<u64> = Vec::new();
    for part in resp.parts {
        // The echoed "slots" are our tickets.
        if cache_on {
            idxs.clear();
            idxs.extend(part.slots.iter().map(|&t| pend.meta[t as usize].1));
        }
        debug_assert!(part
            .slots
            .iter()
            .all(|&t| pend.meta[t as usize].0 == part.array));
        let base = inner.garrays[part.array as usize]
            .absorb_response(part.values, cache_on.then_some(&idxs[..]));
        for (pos, &t) in (base..).zip(&part.slots) {
            let group = pend.starts[t as usize] as usize..pend.starts[t as usize + 1] as usize;
            filled += group.len();
            for &(vp, slot) in &pend.waiters[group] {
                states[vp as usize].slots.fill(slot, pos);
                woken[vp as usize] = true;
            }
        }
    }
    inner.outstanding_reads -= filled;
    ws.bytes_in += bytes;
    ws.next += 1;
    let woken = (0..woken.len()).filter(|&vp| woken[vp]).collect();
    (woken, filled)
}

/// Account a completed wave: counters, the pipelining latency-hiding
/// budget, and the tracing timeline instant.
pub(super) fn finalize_wave(nc: &mut NodeCtx<'_>, ws: &WaveState) {
    let cfg = nc.config();
    let inner = &mut nc.inner;
    inner.traffic.waves += 1;
    inner.counters.waves += 1;
    if ws.dests >= 2 {
        // A multi-destination wave exposes one response leg that compute
        // charged during partial consumption can hide (charge_phase_time
        // takes min(pipelined_compute, pipeline_hideable)).
        inner.traffic.pipeline_hideable += cfg.machine.net.latency;
    }
    let wave_idx = inner.traffic.waves - 1;

    if nc.ep.tracer.enabled() {
        // Simulated time is charged at phase end, so the clock still reads
        // the phase-start instant here. Place the instant at the wave's
        // cumulative completion offset within the phase — round-trip
        // latency, per-bundle overheads both ways, serialization of the
        // larger direction — so Perfetto shows a real comm timeline
        // (DESIGN.md §11). Estimated elapsed only; never feeds the charged
        // phase time. One bundle went to each destination — the paper's
        // bundling invariant.
        let net = cfg.machine.net;
        let wave_cost = net.latency.scale(2)
            + net.overhead.scale(2 * ws.dests)
            + net.gap_per_byte.scale(ws.bytes_out.max(ws.bytes_in));
        inner.traffic.wave_elapsed += wave_cost;
        let ts = inner.traffic.wave_elapsed + nc.now();
        let args = [
            ("wave", wave_idx),
            ("dests", ws.dests),
            ("bundles", ws.dests),
            ("entries", ws.entries),
            ("bytes_out", ws.bytes_out),
            ("resp_bytes_in", ws.bytes_in),
        ];
        nc.trace("wave", "comm", ts, None, &args);
    }
}
