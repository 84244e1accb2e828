//! Per-phase tracing: timestamped spans and instant events in simulated
//! time.
//!
//! The runtime services behind the paper's performance claims — bundling of
//! fine-grained accesses into one message per destination per wave, overlap
//! of communication and computation, super-step barrier costs — are
//! invisible in a job-level makespan. This module records them as events on
//! a shared [`TraceSink`]: each endpoint owns a cheap [`Tracer`] handle and
//! emits phase spans, communication-wave events, barrier spans, reliability
//! events, and per-phase counter deltas, all stamped with **simulated**
//! time (so traces are bit-reproducible, like everything else here).
//!
//! Two export formats:
//!
//! * [`TraceSink::chrome_trace_json`] — Chrome trace-event JSON (the
//!   `traceEvents` array format), loadable in Perfetto / `chrome://tracing`.
//!   Jobs map to processes, nodes map to threads, so a multi-job bench run
//!   renders as labeled per-node tracks.
//! * [`TraceSink::metrics_json`] — a structured metrics report with the
//!   per-phase compute / service / comm / barrier-wait breakdown aggregated
//!   across nodes, plus per-phase counter deltas.
//!
//! Tracing is **off by default**: a disabled [`Tracer`] is a no-op on every
//! record path and the runtime charges no simulated time for tracing either
//! way, so results, makespans, and counters are bit-identical with tracing
//! on, off, or absent (tests assert this).
//!
//! The sink is shared (`Arc<Mutex<_>>`) rather than per-endpoint so that
//! events survive an endpoint panic: a deadlocked PPM node records its
//! protocol-state dump as a `deadlock` event *before* panicking, leaving
//! a readable trace of the run instead of only a panic string.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::time::SimTime;

/// A typed event argument (the `args` payload of a trace event).
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned counter / quantity.
    U64(u64),
    /// Fractional quantity.
    F64(f64),
    /// Free-form text (e.g. a deadlock report's protocol-state dump).
    Str(String),
}

/// How an event occupies time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span `[ts, ts + dur]` (Chrome "complete" event, `ph: "X"`).
    Span {
        /// Span duration in simulated time.
        dur: SimTime,
    },
    /// A point event at `ts` (Chrome instant event, `ph: "i"`).
    Instant,
}

/// One trace event, stamped with simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (fixed vocabulary; see DESIGN.md §11).
    pub name: &'static str,
    /// Category (Chrome `cat`): "phase", "comm", "reliability", "runtime".
    pub cat: &'static str,
    /// Span or instant.
    pub kind: EventKind,
    /// Event start instant in simulated time.
    pub ts: SimTime,
    /// Job id (Chrome `pid`): one per traced job on the sink.
    pub pid: u32,
    /// Node id within the job (Chrome `tid`): one track per node.
    pub tid: u32,
    /// Per-(pid, tid) emission sequence number — the deterministic sort key.
    pub seq: u64,
    /// Named arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl TraceEvent {
    /// Look up a `U64` argument by name.
    pub fn arg_u64(&self, name: &str) -> Option<u64> {
        self.args.iter().find_map(|(k, v)| match v {
            ArgValue::U64(x) if *k == name => Some(*x),
            _ => None,
        })
    }

    /// Look up a `Str` argument by name.
    pub fn arg_str(&self, name: &str) -> Option<&str> {
        self.args.iter().find_map(|(k, v)| match v {
            ArgValue::Str(s) if *k == name => Some(s.as_str()),
            _ => None,
        })
    }

    /// End instant (`ts` for instants, `ts + dur` for spans).
    pub fn end(&self) -> SimTime {
        match self.kind {
            EventKind::Span { dur } => self.ts + dur,
            EventKind::Instant => self.ts,
        }
    }
}

#[derive(Default)]
struct SinkState {
    events: Vec<TraceEvent>,
    /// Per-job (label, node count), indexed by pid.
    jobs: Vec<(String, u32)>,
}

/// Shared event collector for one or more traced jobs.
///
/// Cloning is cheap (an `Arc`); all clones feed the same buffer. Events are
/// kept unordered internally (endpoints push concurrently) and sorted
/// deterministically — by `(pid, tid, seq)`, all of which are themselves
/// deterministic — on every read or export.
#[derive(Clone, Default)]
pub struct TraceSink(Arc<Mutex<SinkState>>);

impl TraceSink {
    /// An empty sink.
    pub fn new() -> Self {
        TraceSink::default()
    }

    /// Survive lock poisoning: a panicking endpoint (a deadlock report,
    /// say) must not make the already-recorded events unreadable —
    /// they are exactly what the reader wants then.
    fn lock(&self) -> MutexGuard<'_, SinkState> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Register a traced job; returns its `pid` for the job's tracers.
    pub fn begin_job(&self, label: &str, nodes: u32) -> u32 {
        let mut s = self.lock();
        s.jobs.push((label.to_string(), nodes));
        (s.jobs.len() - 1) as u32
    }

    /// An enabled tracer feeding this sink, for node `tid` of job `pid`.
    pub fn tracer(&self, pid: u32, tid: u32) -> Tracer {
        Tracer {
            sink: Some(self.clone()),
            pid,
            tid,
            seq: Cell::new(0),
        }
    }

    fn push(&self, ev: TraceEvent) {
        self.lock().events.push(ev);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all events in deterministic `(pid, tid, seq)` order.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut evs = self.lock().events.clone();
        evs.sort_by_key(|e| (e.pid, e.tid, e.seq));
        evs
    }

    /// Registered job labels and node counts, indexed by pid.
    pub fn jobs(&self) -> Vec<(String, u32)> {
        self.lock().jobs.clone()
    }

    /// Render the Chrome trace-event JSON (`{"traceEvents": [...]}`),
    /// loadable in Perfetto. One process per traced job, one thread track
    /// per node. Timestamps and durations are microseconds of simulated
    /// time.
    pub fn chrome_trace_json(&self) -> String {
        let events = self.events();
        let jobs = self.jobs();
        let mut out = String::with_capacity(events.len() * 128 + 256);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let emit = |out: &mut String, first: &mut bool, body: &str| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(body);
        };

        // Metadata: process names (job labels) and thread names (nodes).
        for (pid, (label, _)) in jobs.iter().enumerate() {
            let mut m = String::new();
            m.push_str("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":");
            m.push_str(&pid.to_string());
            m.push_str(",\"tid\":0,\"args\":{\"name\":");
            m.push_str(&json_string(label));
            m.push_str("}}");
            emit(&mut out, &mut first, &m);
        }
        let mut tracks: Vec<(u32, u32)> = events.iter().map(|e| (e.pid, e.tid)).collect();
        tracks.sort_unstable();
        tracks.dedup();
        for (pid, tid) in tracks {
            let m = format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"node {tid}\"}}}}"
            );
            emit(&mut out, &mut first, &m);
        }

        for e in &events {
            let mut m = String::new();
            m.push('{');
            match e.kind {
                EventKind::Span { dur } => {
                    m.push_str("\"ph\":\"X\",\"dur\":");
                    m.push_str(&us(dur));
                    m.push(',');
                }
                EventKind::Instant => {
                    // Thread-scoped instant.
                    m.push_str("\"ph\":\"i\",\"s\":\"t\",");
                }
            }
            m.push_str("\"name\":\"");
            m.push_str(e.name);
            m.push_str("\",\"cat\":\"");
            m.push_str(e.cat);
            m.push_str("\",\"ts\":");
            m.push_str(&us(e.ts));
            m.push_str(",\"pid\":");
            m.push_str(&e.pid.to_string());
            m.push_str(",\"tid\":");
            m.push_str(&e.tid.to_string());
            if !e.args.is_empty() {
                m.push_str(",\"args\":{");
                for (i, (k, v)) in e.args.iter().enumerate() {
                    if i > 0 {
                        m.push(',');
                    }
                    m.push('"');
                    m.push_str(k);
                    m.push_str("\":");
                    match v {
                        ArgValue::U64(x) => m.push_str(&x.to_string()),
                        ArgValue::F64(x) => m.push_str(&json_f64(*x)),
                        ArgValue::Str(s) => m.push_str(&json_string(s)),
                    }
                }
                m.push('}');
            }
            m.push('}');
            emit(&mut out, &mut first, &m);
        }
        out.push_str("]}");
        out
    }

    /// Render the structured metrics report: per job, the makespan and one
    /// entry per phase — the rows of [`explain`] over this sink's events.
    pub fn metrics_json(&self) -> String {
        let (events, jobs) = (self.events(), self.jobs());
        let rows = explain(&events);
        let jobs = (0..).zip(jobs).map(|(pid, (label, nodes))| {
            let of_job = events.iter().filter(|e| e.pid == pid);
            let makespan = of_job.map(TraceEvent::end).max().unwrap_or(SimTime::ZERO);
            let phases = rows.iter().filter(|r| r.pid == pid).map(phase_json);
            object([
                ("name", json_string(&label)),
                ("pid", pid.to_string()),
                ("nodes", nodes.to_string()),
                ("makespan_ps", makespan.as_ps().to_string()),
                ("phases", array(phases)),
            ])
        });
        object([("jobs", array(jobs))])
    }

    /// Write the Chrome trace to `path` and the metrics report next to it
    /// at `<path>.metrics.json`.
    pub fn write_files(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_trace_json())?;
        std::fs::write(format!("{path}.metrics.json"), self.metrics_json())
    }
}

/// Where one node's time in one phase went: the terms its phase-summary
/// span (`global_phase` / `node_phase`) carries, and what they leave of the
/// span. The five sum to the span to the picosecond.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseSplit {
    /// Max per-core compute charged (`compute_ps`).
    pub compute: SimTime,
    /// Owner-side service: remote reads served, writes applied
    /// (`service_ps`).
    pub service: SimTime,
    /// Exposed communication: gap, overheads, wave round trips,
    /// reliability delay (`comm_ps`).
    pub comm: SimTime,
    /// The barrier closing the phase (`barrier_ps`).
    pub barrier: SimTime,
    /// The rest of the span: a recovery that landed before the phase's
    /// writes left the node — a crash's reboot, restore and redo
    /// (`crash_recovery`), or a failed-over node's suspect timeout, restore
    /// and redo (`failover_restore`). Zero on a fault-free run.
    pub recovery: SimTime,
}

impl PhaseSplit {
    /// The split of a phase-summary span; `None` for any other event.
    ///
    /// # Panics
    /// If the span's terms exceed the span: the runtime charged time the
    /// span does not cover.
    pub fn of(e: &TraceEvent) -> Option<PhaseSplit> {
        if !matches!(e.name, "global_phase" | "node_phase") {
            return None;
        }
        let term = |name| SimTime::from_ps(e.arg_u64(name).unwrap_or(0));
        let mut split = PhaseSplit {
            compute: term("compute_ps"),
            service: term("service_ps"),
            comm: term("comm_ps"),
            barrier: term("barrier_ps"),
            recovery: SimTime::ZERO,
        };
        // The four terms charged; `recovery` is what they leave of the span.
        let rest = (e.end() - e.ts).as_ps().checked_sub(split.total().as_ps());
        let rest = rest.unwrap_or_else(|| panic!("{e:?}: terms exceed the span"));
        split.recovery = SimTime::from_ps(rest);
        Some(split)
    }

    /// The sum of the five: the span.
    pub fn total(&self) -> SimTime {
        self.compute + self.service + self.comm + self.barrier + self.recovery
    }

    fn max(&self, o: &PhaseSplit) -> PhaseSplit {
        PhaseSplit {
            compute: self.compute.max(o.compute),
            service: self.service.max(o.service),
            comm: self.comm.max(o.comm),
            barrier: self.barrier.max(o.barrier),
            recovery: self.recovery.max(o.recovery),
        }
    }
}

/// One phase of one traced job, accounted from its nodes' phase-summary
/// spans: which node made it long, and where that node's time went.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseAccount {
    /// The job (`pid`).
    pub pid: u32,
    /// `"global"` or `"node"`.
    pub kind: &'static str,
    /// The phase's index among the job's phases of its kind.
    pub index: u64,
    /// Nodes that recorded the phase.
    pub nodes: u64,
    /// The critical node: the one that reached the barrier last (span end
    /// less its barrier term), the lowest id on a tie.
    pub critical: u32,
    /// When the critical node reached the barrier.
    pub arrival: SimTime,
    /// The critical node's split.
    pub critical_split: PhaseSplit,
    /// Each term's maximum over the nodes.
    pub max: PhaseSplit,
    /// Most request waves a node ran.
    pub waves_max: u64,
    /// Modeled bytes sent, summed over the nodes.
    pub bytes_out: u64,
    /// Modeled bytes received, summed over the nodes.
    pub bytes_in: u64,
    /// Every counter's per-phase delta (the `d_` arguments, prefix
    /// dropped), summed over the nodes.
    pub counters: BTreeMap<&'static str, u64>,
}

/// Account every phase of every job in `events` from the phase-summary
/// spans alone (DESIGN.md §11): one row per (job, kind, index), in that
/// order, global phases before node phases.
pub fn explain(events: &[TraceEvent]) -> Vec<PhaseAccount> {
    let mut rows = BTreeMap::new();
    for (e, split) in events.iter().filter_map(|e| Some((e, PhaseSplit::of(e)?))) {
        let kind = e.name.trim_end_matches("_phase");
        let index = e.arg_u64("phase").unwrap_or(0);
        let arrival = e.end() - split.barrier;
        let row: &mut PhaseAccount = rows.entry((e.pid, kind, index)).or_default();
        (row.pid, row.kind, row.index, row.nodes) = (e.pid, kind, index, row.nodes + 1);
        if row.nodes == 1 || (arrival, Reverse(e.tid)) > (row.arrival, Reverse(row.critical)) {
            (row.critical, row.arrival, row.critical_split) = (e.tid, arrival, split);
        }
        row.max = row.max.max(&split);
        let arg = |name| e.arg_u64(name).unwrap_or(0);
        row.waves_max = row.waves_max.max(arg("waves"));
        row.bytes_out += arg("bytes_out");
        row.bytes_in += arg("bytes_in");
        for (k, v) in &e.args {
            if let (Some(name), ArgValue::U64(x)) = (k.strip_prefix("d_"), v) {
                *row.counters.entry(name).or_default() += x;
            }
        }
    }
    rows.into_values().collect()
}

/// The first event at which two traces part (see [`trace_diff`]); each
/// event names its `(pid, tid, seq)`.
#[derive(Debug, PartialEq)]
pub struct Divergence<'a> {
    /// The left trace's event there, if it has one.
    pub left: Option<&'a TraceEvent>,
    /// The right trace's event there, if it has one.
    pub right: Option<&'a TraceEvent>,
}

/// The first `(pid, tid, seq)` at which two event lists (as
/// [`TraceSink::events`] orders them) differ, with both events; `None` if
/// they are equal. A linear scan: event order is deterministic, so two
/// runs of one job line up event for event.
pub fn trace_diff<'a>(a: &'a [TraceEvent], b: &'a [TraceEvent]) -> Option<Divergence<'a>> {
    let mut pairs = (0..a.len().max(b.len())).map(|i| (a.get(i), b.get(i)));
    let (left, right) = pairs.find(|(left, right)| left != right)?;
    Some(Divergence { left, right })
}

/// One [`metrics_json`](TraceSink::metrics_json) phase entry.
fn phase_json(r: &PhaseAccount) -> String {
    let ps = |t: SimTime| t.as_ps().to_string();
    let (max, crit) = (r.max, r.critical_split);
    let counters = r.counters.iter().map(|(k, v)| (*k, v.to_string()));
    object([
        ("kind", json_string(r.kind)),
        ("index", r.index.to_string()),
        ("nodes", r.nodes.to_string()),
        ("compute_ps_max", ps(max.compute)),
        ("service_ps_max", ps(max.service)),
        ("comm_ps_max", ps(max.comm)),
        ("barrier_ps_max", ps(max.barrier)),
        ("waves_max", r.waves_max.to_string()),
        ("bytes_out_total", r.bytes_out.to_string()),
        ("bytes_in_total", r.bytes_in.to_string()),
        ("recovery_ps_max", ps(max.recovery)),
        ("critical_node", r.critical.to_string()),
        ("critical_arrival_ps", ps(r.arrival)),
        ("critical_compute_ps", ps(crit.compute)),
        ("critical_service_ps", ps(crit.service)),
        ("critical_comm_ps", ps(crit.comm)),
        ("critical_barrier_ps", ps(crit.barrier)),
        ("critical_recovery_ps", ps(crit.recovery)),
        ("counters", object(counters)),
    ])
}

/// A JSON array of already-rendered values.
fn array(items: impl IntoIterator<Item = String>) -> String {
    let mut out = String::from("[");
    for item in items {
        out.extend([if out.len() > 1 { "," } else { "" }, &item]);
    }
    out + "]"
}

/// A JSON object of already-rendered values, in the given key order.
fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let mut out = String::from("{");
    for (k, v) in fields {
        out.extend([if out.len() > 1 { ",\"" } else { "\"" }, k, "\":", &v]);
    }
    out + "}"
}

/// Simulated picoseconds rendered as Chrome-trace microseconds.
fn us(t: SimTime) -> String {
    json_f64(t.as_ps() as f64 / 1e6)
}

/// A finite f64 as JSON (JSON has no NaN/inf; clamp them to null-free 0).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        // `{}` prints integral f64s without a dot; that is still valid JSON.
        s
    } else {
        "0".to_string()
    }
}

/// Escape and quote a string per the JSON grammar.
fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out + "\""
}

/// Per-endpoint tracing handle. Disabled (the default) it is a no-op on
/// every path; enabled it stamps events with this endpoint's `(pid, tid)`
/// and a per-track sequence number and pushes them to the shared sink.
pub struct Tracer {
    sink: Option<TraceSink>,
    pid: u32,
    tid: u32,
    /// Emission counter (interior mutability so recording works behind a
    /// shared borrow, e.g. inside a receive's arrival hook).
    seq: Cell<u64>,
}

impl Tracer {
    /// A no-op tracer (tracing off — the default).
    pub fn disabled() -> Tracer {
        Tracer {
            sink: None,
            pid: 0,
            tid: 0,
            seq: Cell::new(0),
        }
    }

    /// Whether events are being recorded. Callers may use this to skip
    /// building argument vectors on the fast path.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    fn record(
        &self,
        name: &'static str,
        cat: &'static str,
        kind: EventKind,
        ts: SimTime,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        let Some(sink) = &self.sink else { return };
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        sink.push(TraceEvent {
            name,
            cat,
            kind,
            ts,
            pid: self.pid,
            tid: self.tid,
            seq,
            args,
        });
    }

    /// Record an instant event at simulated time `ts`.
    pub fn instant(
        &self,
        name: &'static str,
        cat: &'static str,
        ts: SimTime,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.record(name, cat, EventKind::Instant, ts, args);
    }

    /// Record a span `[start, end]` in simulated time.
    pub fn span(
        &self,
        name: &'static str,
        cat: &'static str,
        start: SimTime,
        end: SimTime,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        debug_assert!(end >= start, "span must not end before it starts");
        self.record(name, cat, EventKind::Span { dur: end - start }, start, args);
    }
}

// ---------------------------------------------------------------------------
// Std-only JSON well-formedness checker.
// ---------------------------------------------------------------------------

/// Validate that `s` is one well-formed JSON value (std-only recursive
/// descent; no external parser, per the repo's offline policy). Returns a
/// position-annotated error on malformed input. Used by the test suite and
/// CI to gate the emitted trace files.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut p = Parser { b, i: 0 };
    p.ws();
    p.value(0)?;
    p.ws();
    if p.i != b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(())
}

const MAX_JSON_DEPTH: usize = 256;

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while let Some(&c) = self.b.get(self.i) {
            if matches!(c, b' ' | b'\t' | b'\n' | b'\r') {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<(), String> {
        if depth > MAX_JSON_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.b.get(self.i) {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string(),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &[u8]) -> Result<(), String> {
        if self.b[self.i..].starts_with(lit) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn object(&mut self, depth: usize) -> Result<(), String> {
        self.eat(b'{')?;
        self.ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.ws();
            self.string().map_err(|_| self.err("expected object key"))?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            self.value(depth + 1)?;
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<(), String> {
        self.eat(b'[')?;
        self.ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.ws();
            self.value(depth + 1)?;
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.eat(b'"')?;
        loop {
            match self.b.get(self.i) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.i += 1;
                        }
                        Some(b'u') => {
                            self.i += 1;
                            for _ in 0..4 {
                                match self.b.get(self.i) {
                                    Some(c) if c.is_ascii_hexdigit() => self.i += 1,
                                    _ => return Err(self.err("bad \\u escape")),
                                }
                            }
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                Some(c) if *c < 0x20 => return Err(self.err("raw control char in string")),
                Some(_) => self.i += 1,
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        let digits = |p: &mut Self| -> Result<(), String> {
            let start = p.i;
            while p.b.get(p.i).is_some_and(u8::is_ascii_digit) {
                p.i += 1;
            }
            if p.i == start {
                Err(p.err("expected digits"))
            } else {
                Ok(())
            }
        };
        // Integer part: "0" or non-zero-led digits.
        match self.b.get(self.i) {
            Some(b'0') => self.i += 1,
            Some(c) if c.is_ascii_digit() => digits(self)?,
            _ => return Err(self.err("expected a number")),
        }
        if self.b.get(self.i) == Some(&b'.') {
            self.i += 1;
            digits(self)?;
        }
        if matches!(self.b.get(self.i), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.b.get(self.i), Some(b'+' | b'-')) {
                self.i += 1;
            }
            digits(self)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        t.instant("wave", "comm", SimTime::from_ns(5), vec![]);
        t.span(
            "global_phase",
            "phase",
            SimTime::ZERO,
            SimTime::from_ns(9),
            vec![],
        );
        // No sink: nothing observable, and no panic.
    }

    #[test]
    fn events_sort_deterministically_and_carry_args() {
        let sink = TraceSink::new();
        let pid = sink.begin_job("job", 2);
        let t0 = sink.tracer(pid, 0);
        let t1 = sink.tracer(pid, 1);
        t1.instant(
            "wave",
            "comm",
            SimTime::from_ns(3),
            vec![("bundles", ArgValue::U64(2))],
        );
        t0.span(
            "global_phase",
            "phase",
            SimTime::ZERO,
            SimTime::from_ns(10),
            vec![("phase", ArgValue::U64(0))],
        );
        let evs = sink.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].tid, 0, "sorted by (pid, tid, seq)");
        assert_eq!(evs[0].end(), SimTime::from_ns(10));
        assert_eq!(evs[1].arg_u64("bundles"), Some(2));
        assert_eq!(evs[1].arg_u64("missing"), None);
    }

    #[test]
    fn chrome_export_is_valid_json_with_tracks() {
        let sink = TraceSink::new();
        let pid = sink.begin_job("fig1 \"smoke\"\n", 2);
        for tid in 0..2 {
            let t = sink.tracer(pid, tid);
            t.span(
                "global_phase",
                "phase",
                SimTime::ZERO,
                SimTime::from_us(3),
                vec![
                    ("phase", ArgValue::U64(0)),
                    ("d_msgs_sent", ArgValue::U64(4)),
                ],
            );
            t.instant(
                "deadlock",
                "runtime",
                SimTime::from_us(1),
                vec![("dump", ArgValue::Str("line1\nline2\t\"quoted\"".into()))],
            );
        }
        let json = sink.chrome_trace_json();
        validate_json(&json).expect("chrome export must be well-formed");
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"tid\":1"));
        assert!(json.contains("\\n"));
    }

    #[test]
    fn metrics_export_aggregates_phases() {
        let sink = TraceSink::new();
        let pid = sink.begin_job("job", 2);
        // Node 1 computes longer and so reaches the barrier last.
        for (tid, comp) in [(0u32, 100u64), (1, 300)] {
            let t = sink.tracer(pid, tid);
            t.span(
                "global_phase",
                "phase",
                SimTime::ZERO,
                SimTime::from_ps(500),
                vec![
                    ("phase", ArgValue::U64(0)),
                    ("compute_ps", ArgValue::U64(comp)),
                    ("barrier_ps", ArgValue::U64(500 - comp)),
                    ("bytes_out", ArgValue::U64(10)),
                    ("d_msgs_sent", ArgValue::U64(3)),
                ],
            );
        }
        let json = sink.metrics_json();
        validate_json(&json).expect("metrics export must be well-formed");
        assert!(
            json.contains("\"compute_ps_max\":300"),
            "max across nodes: {json}"
        );
        assert!(
            json.contains("\"bytes_out_total\":20"),
            "sum across nodes: {json}"
        );
        assert!(
            json.contains("\"msgs_sent\":6"),
            "counter deltas summed: {json}"
        );
        assert!(json.contains("\"makespan_ps\":500"));
        assert!(
            json.contains("\"critical_node\":1,\"critical_arrival_ps\":300,"),
            "the last node to reach the barrier: {json}"
        );
    }

    /// A phase-summary span `[0, dur]` of node `tid` with the given terms.
    fn summary(sink: &TraceSink, tid: u32, dur: u64, terms: [(&'static str, u64); 2]) {
        let mut args = vec![("phase", ArgValue::U64(0))];
        args.extend(terms.map(|(k, v)| (k, ArgValue::U64(v))));
        let t = sink.tracer(0, tid);
        t.span(
            "global_phase",
            "phase",
            SimTime::ZERO,
            SimTime::from_ps(dur),
            args,
        );
    }

    #[test]
    fn explain_names_the_last_arrival_and_keeps_the_rest_of_the_span() {
        let sink = TraceSink::new();
        sink.begin_job("job", 3);
        // Nodes 1 and 2 both arrive at 70; node 2 spent 30 recovering.
        summary(&sink, 2, 100, [("compute_ps", 40), ("barrier_ps", 30)]);
        summary(&sink, 0, 100, [("compute_ps", 50), ("barrier_ps", 50)]);
        summary(&sink, 1, 100, [("compute_ps", 70), ("barrier_ps", 30)]);
        let rows = explain(&sink.events());
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!((row.kind, row.nodes), ("global", 3));
        assert_eq!(
            (row.critical, row.arrival),
            (1, SimTime::from_ps(70)),
            "ties: lowest id"
        );
        assert_eq!(row.critical_split.compute, SimTime::from_ps(70));
        assert_eq!(row.critical_split.total(), SimTime::from_ps(100));
        assert_eq!(row.max.recovery, SimTime::from_ps(30), "node 2's rest");
        assert_eq!(row.max.barrier, SimTime::from_ps(50));
        let split = |tid| PhaseSplit::of(&sink.events()[tid]).expect("a summary");
        assert_eq!(split(2).recovery, SimTime::from_ps(30));
        assert_eq!(split(0).recovery, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "terms exceed the span")]
    fn terms_past_the_span_are_a_fault() {
        let sink = TraceSink::new();
        sink.begin_job("job", 1);
        summary(&sink, 0, 100, [("compute_ps", 80), ("barrier_ps", 30)]);
        explain(&sink.events());
    }

    #[test]
    fn trace_diff_names_the_first_differing_event() {
        let record = |bundles| {
            let sink = TraceSink::new();
            let pid = sink.begin_job("job", 2);
            for tid in 0..2 {
                let t = sink.tracer(pid, tid);
                t.instant("wave", "comm", SimTime::from_ns(1), vec![]);
                let n = if tid == 1 { bundles } else { 2 };
                let args = vec![("bundles", ArgValue::U64(n))];
                t.instant("wave", "comm", SimTime::from_ns(2), args);
            }
            sink.events()
        };
        let (a, b) = (record(2), record(3));
        assert_eq!(trace_diff(&a, &a), None);
        let d = trace_diff(&a, &b).expect("one argument differs");
        let at = |e: Option<&TraceEvent>| e.map(|e| (e.pid, e.tid, e.seq, e.arg_u64("bundles")));
        assert_eq!(at(d.left), Some((0, 1, 1, Some(2))));
        assert_eq!(at(d.right), Some((0, 1, 1, Some(3))));
        let d = trace_diff(&a, &a[..3]).expect("one event missing");
        assert_eq!((at(d.left), d.right), (Some((0, 1, 1, Some(2))), None));
    }

    #[test]
    fn validator_accepts_and_rejects() {
        for good in [
            "null",
            " [1, 2.5, -3e-2, \"a\\u00e9\\n\", {\"k\": [true, false]}] ",
            "{}",
            "0.5",
        ] {
            validate_json(good).unwrap_or_else(|e| panic!("{good}: {e}"));
        }
        for bad in [
            "",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "\"unterminated",
            "01",
            "1.e5",
            "nul",
            "[1] trailing",
            "{\"a\":\"\u{1}\"}",
        ] {
            assert!(validate_json(bad).is_err(), "should reject: {bad:?}");
        }
    }
}
