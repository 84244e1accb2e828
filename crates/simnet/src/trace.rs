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
#[derive(Debug, Clone)]
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
            json_string(label, &mut m);
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
                        ArgValue::Str(s) => json_string(s, &mut m),
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

    /// Render the structured metrics report: per job, the per-phase
    /// compute / service / comm / barrier-wait breakdown (max across
    /// nodes), traffic totals, and summed counter deltas.
    pub fn metrics_json(&self) -> String {
        use std::collections::BTreeMap;
        let events = self.events();
        let jobs = self.jobs();

        let mut out = String::from("{\"jobs\":[");
        for (pid, (label, nodes)) in jobs.iter().enumerate() {
            let pid = pid as u32;
            if pid > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json_string(label, &mut out);
            out.push_str(&format!(",\"pid\":{pid},\"nodes\":{nodes},"));

            // Group phase events by (kind, phase index).
            #[derive(Default)]
            struct Group {
                nodes: u64,
                compute_max: u64,
                service_max: u64,
                comm_max: u64,
                barrier_max: u64,
                waves_max: u64,
                bytes_out: u64,
                bytes_in: u64,
                counters: BTreeMap<&'static str, u64>,
            }
            let mut groups: BTreeMap<(&'static str, u64), Group> = BTreeMap::new();
            let mut makespan = SimTime::ZERO;
            for e in events.iter().filter(|e| e.pid == pid) {
                makespan = makespan.max(e.end());
                let kind = match e.name {
                    "global_phase" => "global",
                    "node_phase" => "node",
                    _ => continue,
                };
                let idx = e.arg_u64("phase").unwrap_or(0);
                let g = groups.entry((kind, idx)).or_default();
                g.nodes += 1;
                let get = |n| e.arg_u64(n).unwrap_or(0);
                g.compute_max = g.compute_max.max(get("compute_ps"));
                g.service_max = g.service_max.max(get("service_ps"));
                g.comm_max = g.comm_max.max(get("comm_ps"));
                g.barrier_max = g.barrier_max.max(get("barrier_ps"));
                g.waves_max = g.waves_max.max(get("waves"));
                g.bytes_out += get("bytes_out");
                g.bytes_in += get("bytes_in");
                for (k, v) in &e.args {
                    if let (Some(name), ArgValue::U64(x)) = (k.strip_prefix("d_"), v) {
                        *g.counters.entry(name).or_default() += x;
                    }
                }
            }
            out.push_str(&format!(
                "\"makespan_ps\":{},\"phases\":[",
                makespan.as_ps()
            ));
            for (i, ((kind, idx), g)) in groups.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"kind\":\"{kind}\",\"index\":{idx},\"nodes\":{},\
                     \"compute_ps_max\":{},\"service_ps_max\":{},\"comm_ps_max\":{},\
                     \"barrier_ps_max\":{},\"waves_max\":{},\"bytes_out_total\":{},\
                     \"bytes_in_total\":{},\"counters\":{{",
                    g.nodes,
                    g.compute_max,
                    g.service_max,
                    g.comm_max,
                    g.barrier_max,
                    g.waves_max,
                    g.bytes_out,
                    g.bytes_in,
                ));
                for (j, (k, v)) in g.counters.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{k}\":{v}"));
                }
                out.push_str("}}");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Write the Chrome trace to `path` and the metrics report next to it
    /// at `<path>.metrics.json`.
    pub fn write_files(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_trace_json())?;
        std::fs::write(format!("{path}.metrics.json"), self.metrics_json())
    }
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
fn json_string(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
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
