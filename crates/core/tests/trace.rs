//! Integration tests for the per-phase tracing layer: the trace must be a
//! faithful, deterministic record of the §5 binary-search example — one
//! request bundle per (destination, wave), per-phase counter deltas that
//! reconcile with the phase traffic — and tracing must never perturb the
//! simulation (bit-identical results, makespan, and counters).

use std::panic::{catch_unwind, AssertUnwindSafe};

use ppm_core::{run, run_traced, NodeCtx, PpmConfig, TraceSink};
use ppm_simnet::{trace_diff, validate_json, EventKind, MachineConfig, TraceEvent};

const N: usize = 64;
const K: usize = 16;

/// The paper's §5 binary search (see `ppm_core` crate docs): one VP per
/// element of `B`, each running a loop of dependent remote reads against
/// the phase-start snapshot of the sorted global array `A`.
fn binary_search(node: &mut NodeCtx<'_>) -> Vec<u64> {
    let a = node.alloc_global::<f64>(N);
    let b = node.alloc_node::<f64>(K);
    let rank_in_a = node.alloc_node::<u64>(K);
    let lo = node.local_range(&a).start;
    node.with_local_mut(&a, |s| {
        for (off, v) in s.iter_mut().enumerate() {
            *v = (lo + off) as f64 * 2.0;
        }
    });
    node.with_node_mut(&b, |s| {
        for (i, v) in s.iter_mut().enumerate() {
            *v = i as f64 * 7.3;
        }
    });
    node.ppm_do(K, move |vp| async move {
        let me = vp.node_rank();
        vp.global_phase(|ph| async move {
            let key = ph.get_node(&b, me);
            let (mut left, mut right) = (0usize, N);
            while left < right {
                let mid = (left + right) / 2;
                if ph.get(&a, mid).await < key {
                    left = mid + 1;
                } else {
                    right = mid;
                }
            }
            ph.put_node(&rank_in_a, me, right as u64);
        })
        .await;
    });
    node.with_node(&rank_in_a, |s| s.to_vec())
}

fn cfg() -> PpmConfig {
    PpmConfig::franklin(2)
}

#[test]
fn tracing_does_not_perturb_results_makespan_or_counters() {
    let plain = run(cfg(), binary_search);
    let sink = TraceSink::new();
    let traced = run_traced(cfg(), &sink, "bsearch", binary_search);

    assert!(!sink.is_empty(), "traced run recorded no events");
    assert_eq!(traced.results, plain.results, "tracing changed results");
    assert_eq!(
        traced.makespan(),
        plain.makespan(),
        "tracing changed the simulated makespan"
    );
    assert_eq!(
        traced.counters, plain.counters,
        "tracing changed per-node counters"
    );
    assert_eq!(traced.total_counters(), plain.total_counters());
}

#[test]
fn trace_is_deterministic_across_runs() {
    let record = || {
        let sink = TraceSink::new();
        run_traced(cfg(), &sink, "bsearch", binary_search);
        sink.events()
    };
    let (first, second) = (record(), record());
    assert_eq!(trace_diff(&first, &second), None, "same job, same trace");
}

/// Walk one node's events in emission order, checking each communication
/// wave against the phase summary that closes it. Returns the number of
/// phase summaries seen.
fn check_node_track(events: &[&TraceEvent]) -> usize {
    let mut wave_bundles = 0u64;
    let mut phases = 0usize;
    let mut next_phase = 0u64;
    for ev in events {
        match ev.name {
            "wave" => {
                let dests = ev.arg_u64("dests").expect("wave dests");
                let bundles = ev.arg_u64("bundles").expect("wave bundles");
                assert_eq!(
                    bundles, dests,
                    "§3.3 bundling: exactly one request bundle per \
                     (destination, wave)"
                );
                wave_bundles += bundles;
            }
            "global_phase" => {
                assert!(matches!(ev.kind, EventKind::Span { .. }));
                assert_eq!(ev.arg_u64("phase"), Some(next_phase));
                next_phase += 1;
                phases += 1;
                let req = ev.arg_u64("req_bundles_out").expect("req_bundles_out");
                let wr = ev.arg_u64("write_bundles_out").expect("write_bundles_out");
                let d_bundles = ev.arg_u64("d_bundles_sent").expect("d_bundles_sent");
                assert_eq!(
                    req, wave_bundles,
                    "phase request bundles must equal the sum of its wave \
                     events' bundle counts"
                );
                assert_eq!(
                    d_bundles,
                    req + wr,
                    "per-phase bundles_sent delta must reconcile with the \
                     phase traffic"
                );
                wave_bundles = 0;
            }
            _ => {}
        }
    }
    phases
}

#[test]
fn binary_search_trace_has_per_node_tracks_waves_and_counter_deltas() {
    let sink = TraceSink::new();
    run_traced(cfg(), &sink, "bsearch", binary_search);
    let events = sink.events();

    for tid in [0u32, 1] {
        let track: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.pid == 0 && e.tid == tid)
            .collect();
        assert!(!track.is_empty(), "node {tid} recorded nothing");
        let phases = check_node_track(&track);
        assert_eq!(phases, 1, "node {tid}: the example runs one global phase");
        assert!(
            track.iter().any(|e| e.name == "wave"),
            "node {tid}: dependent gets must produce communication waves"
        );
        // The searched element count shrinks by half per wave: the dependent
        // gets need ~log2(N) waves, not one per get.
        let waves = track.iter().filter(|e| e.name == "wave").count();
        assert!(
            waves <= N.ilog2() as usize + 2,
            "node {tid}: {waves} waves for a log2({N}) search"
        );
    }

    // Exactly one traced job, with a track per node.
    assert_eq!(sink.jobs(), vec![("bsearch".to_string(), 2)]);
    assert!(events.iter().all(|e| e.pid == 0 && e.tid < 2));
}

/// Regression (DESIGN.md §11): `wave` instants used to all stamp at the
/// phase-start instant. They must now advance strictly with the wave index
/// — phase start plus the cumulative wave completion cost — while the
/// phase span itself still starts where the phase opened (the stamps are
/// tracing-only and never feed charged time, which
/// `tracing_does_not_perturb_results_makespan_or_counters` pins).
#[test]
fn wave_instants_advance_within_a_phase() {
    let sink = TraceSink::new();
    run_traced(cfg(), &sink, "bsearch", binary_search);
    let events = sink.events();

    for tid in [0u32, 1] {
        let mut wave_ts = Vec::new();
        let mut checked_any = false;
        for ev in events.iter().filter(|e| e.pid == 0 && e.tid == tid) {
            match ev.name {
                "wave" => wave_ts.push(ev.ts),
                "global_phase" => {
                    assert!(
                        !wave_ts.is_empty(),
                        "node {tid}: dependent gets must trace waves"
                    );
                    for (i, &ts) in wave_ts.iter().enumerate() {
                        assert!(
                            ts > ev.ts,
                            "node {tid} wave {i}: instant {ts:?} must lie \
                             strictly after the phase start {:?}",
                            ev.ts
                        );
                    }
                    for (i, pair) in wave_ts.windows(2).enumerate() {
                        assert!(
                            pair[0] < pair[1],
                            "node {tid}: wave {i} at {:?} not before wave {} \
                             at {:?}",
                            pair[0],
                            i + 1,
                            pair[1]
                        );
                    }
                    wave_ts.clear();
                    checked_any = true;
                }
                _ => {}
            }
        }
        assert!(checked_any, "node {tid}: no phase summary seen");
    }
}

#[test]
fn chrome_and_metrics_exports_are_valid_json() {
    let sink = TraceSink::new();
    run_traced(cfg(), &sink, "bsearch", binary_search);

    let chrome = sink.chrome_trace_json();
    validate_json(&chrome).expect("chrome trace JSON is well-formed");
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("node 0") && chrome.contains("node 1"));
    assert!(chrome.contains("bsearch"), "process is named after the job");

    let metrics = sink.metrics_json();
    validate_json(&metrics).expect("metrics JSON is well-formed");
    assert!(metrics.contains("\"kind\":\"global\""));
    assert!(metrics.contains("\"makespan_ps\""));
}

#[test]
fn watchdog_stall_dump_is_recorded_in_the_trace() {
    // Node 1 skips the collective, so node 0 blocks in a receive that can
    // never complete. The deadlock panic must still leave a `deadlock`
    // event carrying the protocol-state dump on the shared sink.
    let machine = MachineConfig::new(2, 1);
    let cfg = PpmConfig::new(machine).with_reliability(true);
    let sink = TraceSink::new();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_traced(cfg, &sink, "stall", |node| {
            if node.node_id() == 0 {
                node.allreduce_nodes(1u64, |a, b| a + b);
            }
        });
    }));
    assert!(outcome.is_err(), "the stalled run must panic");

    let events = sink.events();
    let stall = events
        .iter()
        .find(|e| e.name == "deadlock")
        .expect("a deadlock is recorded before the panic");
    assert_eq!(stall.tid, 0, "node 0 is the one that stalled");
    let dump = stall.arg_str("dump").expect("the event carries the dump");
    assert!(
        dump.contains("protocol state"),
        "dump should be the protocol-state report, got: {dump}"
    );
}

#[test]
fn mismatched_collectives_are_reported_with_both_dumps() {
    // Both nodes live, each parked in a different collective: node 0's
    // allreduce waits for node 1's contribution, node 1's broadcast waits
    // for node 0's value. Neither tag is ever sent, so the router ends both
    // receives at once; each node records its dump, and the job re-raises
    // the lowest id's report, since every panic is a deadlock report.
    let cfg = PpmConfig::new(MachineConfig::new(2, 1));
    let sink = TraceSink::new();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_traced(cfg, &sink, "mismatch", |node| {
            if node.node_id() == 0 {
                node.allreduce_nodes(1u64, |a, b| a + b);
            } else {
                node.bcast_nodes(0, None::<u64>);
            }
        });
    }));
    let payload = outcome.expect_err("a deadlocked run must panic");
    let report = payload.downcast_ref::<String>().expect("a text report");
    assert!(report.starts_with("endpoint 0 deadlocked"), "{report}");
    assert!(report.contains("node 0 protocol state"), "{report}");

    let events = sink.events();
    let reports: Vec<_> = events.iter().filter(|e| e.name == "deadlock").collect();
    assert_eq!(reports.len(), 2, "one report per node");
    for (node, e) in reports.into_iter().enumerate() {
        assert_eq!(e.tid as usize, node);
        let dump = e.arg_str("dump").expect("the event carries the dump");
        let head = format!("node {node} protocol state");
        assert!(dump.contains(&head), "{dump}");
    }
}
