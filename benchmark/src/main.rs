//! The repo benchmark: five workloads, two clocks, per-layer probes.
//! See `README.md` in this directory; `../BENCHMARK.json` is the contract.
//!
//! ```text
//! benchmark/run.sh [--seed S] [--workloads a,b] [--reps N] [--smoke] [--out FILE]
//! benchmark/run.sh --workload W --seed S --seconds T --trace 0|1      (one measured run)
//! benchmark/run.sh --compare a.json b.json
//! ```

mod compare;
mod host;
mod json;
mod metrics;
mod probes;
mod stats;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode};
use std::time::Instant;

use host::Timing;
use json::{obj, Json};
use metrics::Metric;
use ppm_core::TraceSink;
use ppm_simnet::SimTime;
use workloads::{Fingerprint, Job, Oracle, Outcome, Workload, DEFAULT_SEED};

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// Timed reps when neither `--reps` nor `--seconds` is given.
const DEFAULT_REPS: usize = 5;
/// Fewest timed reps a `--seconds` run accepts before stopping.
const MIN_REPS: usize = 3;
/// Untraced reference reps of a traced pass that runs on its own.
const REFERENCE_REPS: usize = 2;
/// A workload's set-up is repeated (its median is `setup_s`) while another
/// one fits this many seconds, three times at most: a set-up holds a
/// checker-on job, and the longest takes 7 s.
const SETUP_BUDGET_S: f64 = 6.0;
const MAX_SETUPS: usize = 3;
/// Where traces, span lists and the result file go (relative to the
/// checkout root, which `run.sh` makes the working directory).
const OUT_DIR: &str = "target/benchmark";

struct Opts {
    seed: u64,
    workloads: Vec<Workload>,
    reps: Option<usize>,
    seconds: Option<f64>,
    /// `Some(false)`: timed pass only; `Some(true)`: traced pass only;
    /// `None`: the full suite (timed, then one traced child per workload).
    trace: Option<bool>,
    smoke: bool,
    probes: bool,
    out: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: benchmark/run.sh [--seed S] [--workloads a,b | --workload a] [--reps N | --seconds T]\n\
         \x20                       [--trace 0|1] [--smoke] [--out FILE]\n\
         \x20      benchmark/run.sh --compare a.json b.json\n\
         workloads: {}",
        workloads::ALL.map(Workload::name).join(", ")
    );
    std::process::exit(2);
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        seed: DEFAULT_SEED,
        workloads: workloads::ALL.to_vec(),
        reps: None,
        seconds: None,
        trace: None,
        smoke: false,
        probes: true,
        out: format!("{OUT_DIR}/result.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
        fn num<T: std::str::FromStr>(v: &str) -> T {
            v.parse().unwrap_or_else(|_| usage())
        }
        match flag.as_str() {
            "--seed" => o.seed = num(value()),
            "--workload" | "--workloads" => {
                o.workloads = value()
                    .split(',')
                    .map(|n| Workload::from_name(n).unwrap_or_else(|| usage()))
                    .collect()
            }
            "--reps" => o.reps = Some(num::<usize>(value()).max(1)),
            "--seconds" => o.seconds = Some(num(value())),
            "--trace" => o.trace = Some(num::<u8>(value()) != 0),
            "--probes" => o.probes = num::<u8>(value()) != 0,
            "--smoke" => o.smoke = true,
            "--out" => o.out = value().to_string(),
            _ => usage(),
        }
    }
    if o.workloads.is_empty() {
        usage();
    }
    o
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        Some("--rss-child") => rss_child(&parse_opts(&args[1..])),
        _ => run(&parse_opts(&args)),
    }
}

// -- attempts ---------------------------------------------------------------

/// Attempted / failed operations of one workload's run. A rep fails on a
/// panic, an oracle mismatch, a conformance violation, or a makespan,
/// counter or result that differs from the first rep's.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let caught = catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
            let msg = p
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| p.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            Err(format!("panicked: {msg}"))
        });
        match caught {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {e}");
                None
            }
        }
    }

    fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

// -- set-up -------------------------------------------------------------------

/// What set-up leaves behind for the timed reps of one workload.
struct Ready {
    job: Job,
    oracle: Oracle,
    /// Result bits of the verified warm-up (checker on, full result
    /// gathered); every later rep must reproduce their common prefix.
    answer: Vec<u64>,
}

/// Input generation + native oracle + the checker-on warm-up rep (and, for
/// the streamed workload, the in-core run its solution must equal).
fn setup(w: Workload, o: &Opts) -> Result<Ready, String> {
    let job = w.job(o.seed, o.smoke);
    let oracle = job.oracle();
    let warm = job.run_ppm(true, true, None);
    job.verify(&oracle, &warm)?;
    if job.is_streamed() {
        let in_core = job.in_core().run_ppm(false, true, None);
        if in_core.bits != warm.bits {
            return Err("streamed solution differs from the in-core run".to_string());
        }
    }
    Ok(Ready {
        job,
        oracle,
        answer: warm.bits,
    })
}

/// One untraced job, checked against the oracle, the warm-up's answer and
/// the first rep's fingerprint.
fn checked_rep(
    r: &Ready,
    first: &mut Option<Fingerprint>,
    trace: Option<(&TraceSink, &str)>,
) -> Result<Outcome, String> {
    let out = r.job.run_ppm(false, false, trace);
    r.job.verify(&r.oracle, &out)?;
    let k = out.bits.len().min(r.answer.len());
    if out.bits[..k] != r.answer[..k] {
        return Err("answer differs from the verified warm-up".to_string());
    }
    let fp = out.fingerprint();
    match first {
        Some(f) if *f != fp => Err("makespan, counters or result differ from rep 0".to_string()),
        _ => {
            *first = Some(fp);
            Ok(out)
        }
    }
}

// -- the timed pass -----------------------------------------------------------

/// Host samples of the timed reps of one workload. Every interval is
/// timed by `host::timed`: raw seconds plus the calibration passes around
/// it. The median of all the run's passes takes them to reference machine
/// speed.
#[derive(Default)]
struct Samples {
    setups: Vec<Timing>,
    reps: Vec<Timing>,
    peak_rss_mb: Option<f64>,
    /// Fingerprint of the first good rep; later reps must match it.
    first: Option<Fingerprint>,
    tally: Tally,
}

impl Samples {
    /// Time one untraced rep (wall and process CPU), as a `core.run` span
    /// when the pass records spans; a failed rep leaves no sample.
    fn timed_rep(&mut self, r: &Ready, spans: Option<&mut host::Spans>) -> Option<Timing> {
        let (tally, first) = (&mut self.tally, &mut self.first);
        let mut rep = || tally.attempt("rep", || checked_rep(r, first, None));
        let (done, t) = host::timed(|| match spans {
            Some(spans) => spans.span("core.run", |_| rep()).0,
            None => rep(),
        });
        done.map(|_| {
            self.reps.push(t);
            t
        })
    }

    /// `host.speed_index` of the run, from every calibration pass in it.
    fn speed(&self) -> f64 {
        host::speed_index(&passes(self.setups.iter().chain(&self.reps)))
    }

    /// `setup_s`, `wall_s` and `cpu_s` samples at reference machine speed,
    /// each beside the median of the raw seconds it was scaled from (0
    /// without a sample).
    fn bounded(&self) -> [(&'static str, Vec<f64>, f64); 3] {
        let speed = self.speed();
        let of = |ts: &[Timing], raw: fn(&Timing) -> f64| {
            let raw: Vec<f64> = ts.iter().map(raw).collect();
            let raw_median = raw.first().map_or(0.0, |_| stats::median(&raw));
            (raw.iter().map(|v| v * speed).collect(), raw_median)
        };
        let (setup, setup_raw) = of(&self.setups, |t| t.wall_raw);
        let (wall, wall_raw) = of(&self.reps, |t| t.wall_raw);
        let (cpu, cpu_raw) = of(&self.reps, |t| t.cpu_raw);
        [
            ("setup_s", setup, setup_raw),
            ("wall_s", wall, wall_raw),
            ("cpu_s", cpu, cpu_raw),
        ]
    }

    /// `VmHWM` of a fresh child that runs exactly one untraced job.
    fn rss_child(&mut self, w: Workload, o: &Opts) {
        let expect = self.first.as_ref().map(|f| f.hash);
        let mb = self.tally.attempt("rss child", || {
            let reply = child(&["--rss-child", "--workload", w.name()], o)?;
            let hash = reply.get("hash").and_then(Json::str).map(str::to_string);
            if expect.is_some() && hash != expect.map(|h| format!("{h:016x}")) {
                return Err("child result differs from the timed reps".to_string());
            }
            let kb = reply.get("vm_hwm_kb").and_then(Json::num).unwrap_or(0.0);
            Ok(kb * 1024.0 / 1e6)
        });
        self.peak_rss_mb = mb;
    }
}

/// Re-execute this binary with `args` plus the run's seed and size; parse
/// the JSON object on the last line of its standard output.
fn child(args: &[&str], o: &Opts) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(args).args(["--seed", &o.seed.to_string()]);
    if o.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(format!(
            "child exited with {}: {}",
            out.status,
            stderr.trim()
        ));
    }
    // Progress lines of the child are worth keeping in the parent's log.
    eprint!("{stderr}");
    json::parse(stdout.lines().last().unwrap_or(""))
}

fn rss_child(o: &Opts) -> ExitCode {
    let out = o.workloads[0]
        .job(o.seed, o.smoke)
        .run_ppm(false, false, None);
    println!(
        "{}",
        obj([
            ("vm_hwm_kb", Json::from(host::vm_hwm_kb())),
            ("hash", Json::Str(format!("{:016x}", out.hash))),
        ])
        .render()
    );
    ExitCode::SUCCESS
}

/// Every calibration pass of `timings`, in seconds.
fn passes<'a>(timings: impl IntoIterator<Item = &'a Timing>) -> Vec<f64> {
    timings.into_iter().flat_map(|t| t.passes).collect()
}

/// The raw record of one timed interval, on standard error.
fn log_timing(w: Workload, what: &str, t: &Timing) {
    eprintln!(
        "{}: {what} took {:.3} s wall, {:.2} s cpu, raw; calibration passes {:.1?} ms",
        w.name(),
        t.wall_raw,
        t.cpu_raw,
        t.passes.map(|p| p * 1e3)
    );
}

/// Set every workload up, time its reps, then measure its peak RSS.
fn timed_pass(o: &Opts) -> Vec<(Workload, Samples)> {
    let mut states: Vec<(Workload, Samples, Option<Ready>)> = Vec::new();
    for &w in &o.workloads {
        let mut s = Samples::default();
        let start = Instant::now();
        let ready = loop {
            let (ready, t) = host::timed(|| s.tally.attempt("set-up", || setup(w, o)));
            log_timing(w, "set-up", &t);
            s.setups.push(t);
            let n = s.setups.len();
            let next_ends = start.elapsed().as_secs_f64() * (n + 1) as f64 / n as f64;
            if ready.is_none() || n == MAX_SETUPS || next_ends > SETUP_BUDGET_S {
                break ready;
            }
        };
        states.push((w, s, ready));
    }

    // Closed loop, one job at a time; reps go round-robin over the
    // workloads so machine drift lands on all of them.
    let start = Instant::now();
    for round in 0.. {
        let done = match (o.reps, o.seconds) {
            (Some(n), _) => round >= n,
            (None, Some(t)) => round >= MIN_REPS && start.elapsed().as_secs_f64() >= t,
            (None, None) => round >= if o.smoke { 1 } else { DEFAULT_REPS },
        };
        if done {
            break;
        }
        for (w, s, ready) in &mut states {
            if let Some(t) = ready.as_ref().and_then(|r| s.timed_rep(r, None)) {
                log_timing(*w, &format!("rep {round}"), &t);
            }
        }
    }

    states
        .into_iter()
        .map(|(w, mut s, _)| {
            s.rss_child(w, o);
            (w, s)
        })
        .collect()
}

// -- the traced pass ----------------------------------------------------------

/// Per-phase maxima across nodes, summed over phases, in ms, plus the
/// global phase count — read back from the job's `.metrics.json`.
fn phase_sums(metrics_json: &str) -> Result<[f64; 5], String> {
    let doc = json::parse(metrics_json)?;
    let phases = doc
        .get("jobs")
        .and_then(|j| j.arr().first())
        .and_then(|j| j.get("phases"))
        .ok_or("metrics report has no job")?
        .arr();
    let sum_ms = |key: &str| {
        let ps: f64 = phases.iter().filter_map(|p| p.get(key)?.num()).sum();
        ps / 1e9
    };
    let globals = phases
        .iter()
        .filter(|p| p.get("kind").and_then(Json::str) == Some("global"))
        .count();
    Ok([
        sum_ms("compute_ps_max"),
        sum_ms("service_ps_max"),
        sum_ms("comm_ps_max"),
        sum_ms("barrier_ps_max"),
        globals as f64,
    ])
}

/// `sim.crit_*`: the split of the last-finishing node's clock. Must sum to
/// the makespan exactly (checked in picoseconds, not in rounded ms).
fn crit_split(out: &Outcome) -> Result<[f64; 3], String> {
    let c = &out.crit;
    if c.compute() + c.comm() + c.wait() != out.makespan {
        return Err(format!(
            "critical node's clock {:?} does not sum to the makespan {:?}",
            c, out.makespan
        ));
    }
    Ok([c.compute(), c.comm(), c.wait()].map(|t| t.as_ms_f64()))
}

/// Per-layer values of one workload: baselines, untraced reference reps,
/// then one run with tracing and allocation counting on. `None` when a
/// step failed (the tally says which).
fn workload_layers(
    w: Workload,
    o: &Opts,
    spans: &mut host::Spans,
    tally: &mut Tally,
) -> Option<Vec<(&'static str, f64)>> {
    // Set-up: inputs, oracle, MPI-style baseline. The checker-on warm-up
    // belongs to the timed pass's `setup_s`; here every rep, the traced
    // one included, is verified against the oracle directly.
    let job = w.job(o.seed, o.smoke);
    let ((oracle, seq, mps), _) = spans.span("bench.setup", |spans| {
        let (oracle, seq) = host::timed(|| spans.span("apps.seq", |_| job.oracle()).0);
        let mps = host::timed(|| {
            let run = spans.span("mps.run", |_| {
                tally.attempt("mps baseline", || match job.run_mps() {
                    Some((makespan, bits)) => {
                        workloads::check_bits(&oracle, &bits).map(|()| Some(makespan))
                    }
                    None => Ok(None),
                })
            });
            run.0
        });
        (oracle, seq, mps)
    });
    let (mps_makespan, mps_t) = (mps.0?, mps.1);
    let ready = Ready {
        job,
        oracle,
        answer: Vec::new(),
    };

    // Untraced reference reps: what `host.trace_overhead` and the
    // per-access figures divide by.
    let mut s = Samples::default();
    for _ in 0..o.reps.unwrap_or(REFERENCE_REPS) {
        s.timed_rep(&ready, Some(spans));
    }
    spans.span("core.run.rss_child", |_| s.rss_child(w, o));
    tally.attempted += s.tally.attempted;
    tally.failed += s.tally.failed;
    let rss_mb = s.peak_rss_mb?;
    if s.reps.is_empty() {
        return None;
    }

    let sink = TraceSink::new();
    let ((traced, allocs, alloc_bytes), traced_t) = host::timed(|| {
        let run = spans.span("core.run.traced", |_| {
            host::count_allocs(|| {
                tally.attempt("traced run", || {
                    checked_rep(&ready, &mut s.first, Some((&sink, w.name())))
                })
            })
        });
        run.0
    });
    let out = traced?;
    // Every host time below is at reference machine speed, by the median
    // of all this pass's calibration passes.
    let passes = passes(s.reps.iter().chain([&seq, &mps_t, &traced_t]));
    let speed = host::speed_index(&passes);
    let at_speed = |raw: fn(&Timing) -> f64| {
        stats::median(&s.reps.iter().map(raw).collect::<Vec<_>>()) * speed
    };
    let (wall, cpu) = (at_speed(|t| t.wall_raw), at_speed(|t| t.cpu_raw));
    let [seq_s, mps_wall, traced_wall] = [seq, mps_t, traced_t].map(|t| t.wall_raw * speed);
    let (split, _) = spans.span("bench.verify", |_| {
        tally.attempt("critical-path identity", || crit_split(&out))
    });
    let (phases, _) = spans.span("simnet.trace.export", |_| {
        tally.attempt("trace export", || {
            std::fs::create_dir_all(OUT_DIR).map_err(|e| e.to_string())?;
            sink.write_files(&format!("{OUT_DIR}/{}.trace.json", w.name()))
                .map_err(|e| e.to_string())?;
            phase_sums(&sink.metrics_json())
        })
    });
    let (split, phases) = (split?, phases?);

    let c = out.counters;
    let makespan_ms = out.makespan.as_ms_f64();
    let accesses = (c.local_accesses + c.remote_gets + c.remote_puts) as f64;
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    // Residency is tracked only under a tile budget; in core, every
    // shared array the app allocates is resident.
    let modeled = match out.peak_resident {
        0 => ready.job.modeled_bytes(),
        tracked => tracked,
    };
    let spread = |v: &[f64]| {
        v.iter().copied().fold(0.0, f64::max) / v.iter().copied().fold(f64::INFINITY, f64::min)
    };
    let mut values = vec![
        ("sim_makespan_ms", makespan_ms),
        ("sim.crit_compute_ms", split[0]),
        ("sim.crit_comm_ms", split[1]),
        ("sim.crit_wait_ms", split[2]),
        ("sim.phase_compute_ms", phases[0]),
        ("sim.phase_service_ms", phases[1]),
        ("sim.phase_comm_ms", phases[2]),
        ("sim.phase_barrier_ms", phases[3]),
        ("sim.global_phases", phases[4]),
        ("simnet.msgs_sent", c.msgs_sent as f64),
        ("simnet.bytes_sent_mb", c.bytes_sent as f64 / 1e6),
        ("core.bundles_sent", c.bundles_sent as f64),
        ("core.waves", c.waves as f64),
        ("core.remote_gets", c.remote_gets as f64),
        ("core.remote_puts", c.remote_puts as f64),
        ("core.local_accesses", c.local_accesses as f64),
        ("core.cache_hits", c.cache_hits as f64),
        ("core.cache_misses", c.cache_misses as f64),
        ("core.dedup_reads", c.dedup_reads as f64),
        ("core.partial_wakes", c.partial_wakes as f64),
        ("core.barriers", c.barriers as f64),
        ("core.tile_spills", c.tile_spills as f64),
        ("core.tile_refills", c.tile_refills as f64),
        ("core.peak_resident_kb", out.peak_resident as f64 / 1e3),
        ("core.failovers", c.failovers as f64),
        ("core.replica_mb", c.replica_bytes as f64 / 1e6),
        ("core.acks_sent", c.acks_sent as f64),
        ("apps.flops", c.flops as f64),
        ("apps.mem_ops", c.mem_ops as f64),
        (
            "core.cache_hit_ratio",
            ratio(c.cache_hits, c.cache_hits + c.cache_misses),
        ),
        (
            "core.accesses_per_bundle",
            ratio(c.remote_gets + c.remote_puts, c.bundles_sent),
        ),
        ("apps.seq_s", seq_s),
        ("host.ns_per_access", wall / accesses * 1e9),
        (
            "host.us_per_node_phase",
            wall / (ready.job.nodes as f64 * phases[4]) * 1e6,
        ),
        ("host.cpu_over_wall", cpu / wall),
        ("host.allocs", allocs as f64),
        ("host.alloc_mb", alloc_bytes as f64 / 1e6),
        ("host.rss_over_modeled", rss_mb * 1e6 / modeled as f64),
        ("host.trace_overhead", traced_wall / wall),
        ("host.trace_events", sink.len() as f64),
        ("host.slowdown_vs_seq", wall / seq_s),
        ("host.noise_index", spread(&passes)),
        ("host.speed_index", speed),
    ];
    if let Some(mps_makespan) = mps_makespan {
        values.extend([
            ("mps.sim_makespan_ms", mps_makespan.as_ms_f64()),
            ("sim.ppm_over_mpi", makespan_ms / mps_makespan.as_ms_f64()),
            ("mps.wall_s", mps_wall),
        ]);
    }
    Some(values)
}

/// The traced pass of one workload: its per-layer values, then (unless
/// switched off) the layer probes; writes the host span list at exit.
fn traced_pass(w: Workload, o: &Opts) -> (Vec<(&'static str, f64)>, Tally) {
    let mut spans = host::Spans::new(w.name());
    let mut tally = Tally::default();
    let mut values = workload_layers(w, o, &mut spans, &mut tally).unwrap_or_default();
    values.push(("fail_frac", tally.fail_frac()));
    if o.probes {
        let scale = if o.smoke { 0.1 } else { 1.0 };
        values.extend(spans.span("bench.probes", |s| probes::run_all(scale, s)).0);
    }
    let span_path = format!("{OUT_DIR}/{}.host_spans.json", w.name());
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&span_path, spans.to_json().pretty()));
    if let Err(e) = written {
        eprintln!("could not write {span_path}: {e}");
    }
    (values, tally)
}

// -- reporting ----------------------------------------------------------------

fn print_metric(w: Workload, m: &Metric, value: f64, note: &str) {
    println!(
        "{:<14} {:<40} {:>16.6} {:<7} [{}]{note}",
        w.name(),
        m.name,
        value,
        m.unit,
        m.clock()
    );
}

/// A timed metric: its samples at reference machine speed, and the median
/// of the raw seconds they were scaled from, recorded beside them.
fn print_summary(w: Workload, name: &str, samples: &[f64], raw_median: f64) -> Json {
    let m = metrics::find(name).expect("registered metric");
    let s = stats::summarize(samples);
    let note = format!(
        " median of n={} (min {:.6}, max {:.6}; raw median {:.6})",
        s.n, s.min, s.max, raw_median
    );
    print_metric(w, m, s.median, &note);
    obj([
        ("unit", Json::from(m.unit)),
        ("clock", Json::from(m.clock())),
        ("median", Json::from(s.median)),
        ("min", Json::from(s.min)),
        ("max", Json::from(s.max)),
        ("n", Json::from(s.n)),
        ("raw_median", Json::from(raw_median)),
    ])
}

fn print_value(w: Workload, name: &str, value: f64) -> Json {
    let m = metrics::find(name).expect("registered metric");
    print_metric(w, m, value, "");
    obj([
        ("unit", Json::from(m.unit)),
        ("clock", Json::from(m.clock())),
        ("value", Json::from(value)),
    ])
}

/// Print and serialise the six end-to-end metrics of one workload; `None`
/// when it produced no timed rep or no RSS sample.
fn report_end_to_end(w: Workload, s: &Samples) -> Option<Json> {
    let (first, rss) = (s.first.as_ref()?, s.peak_rss_mb?);
    let mut entries: Vec<(&str, Json)> = s
        .bounded()
        .iter()
        .map(|(name, samples, raw)| (*name, print_summary(w, name, samples, *raw)))
        .collect();
    entries.extend([
        ("peak_rss_mb", print_value(w, "peak_rss_mb", rss)),
        (
            "sim_makespan_ms",
            print_value(w, "sim_makespan_ms", first.makespan.as_ms_f64()),
        ),
        (
            "fail_frac",
            print_value(w, "fail_frac", s.tally.fail_frac()),
        ),
    ]);
    Some(obj(entries))
}

/// The acceptance driver's line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, every listed metric present. The driver wants every name
/// on every workload, so a metric the workload does not report (see
/// `Workload::reports`) goes out as 0.
fn contract_line(
    w: Workload,
    list: &[&Metric],
    values: &[(&str, f64)],
    tally: &Tally,
) -> (String, bool) {
    let mut complete = true;
    let metrics = obj(list.iter().map(|m| {
        let value = values.iter().find(|(n, _)| *n == m.name).map(|(_, v)| *v);
        let value = value.or((!w.reports(m.name)).then_some(0.0));
        complete &= value.is_some_and(f64::is_finite);
        let value = value.map_or(Json::Null, Json::from);
        (
            m.name,
            obj([("value", value), ("unit", Json::from(m.unit))]),
        )
    }));
    let correct = complete && tally.failed == 0;
    let line = obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(tally.attempted.max(1))),
        ("failed", Json::from(tally.failed)),
        ("metrics", metrics),
    ]);
    (line.render(), correct)
}

/// Second-seed check: every workload verifies against its own oracle at a
/// seed the defaults were not chosen on, seeded workloads get different
/// inputs, and the unseeded CG makespans do not move.
fn held_out(o: &Opts, makespans: &[(Workload, SimTime)]) -> Result<u64, String> {
    let seed = o.seed.wrapping_add(1);
    for &(w, makespan) in makespans {
        let (job, main_job) = (w.job(seed, o.smoke), w.job(o.seed, o.smoke));
        let seeded = !matches!(w, Workload::CgHalo | Workload::CgStreamed);
        if (job.input_hash() != main_job.input_hash()) != seeded {
            return Err(format!(
                "{}: seed {seed} inputs vs seed {}",
                w.name(),
                o.seed
            ));
        }
        let out = job.run_ppm(false, false, None);
        job.verify(&job.oracle(), &out)
            .map_err(|e| format!("{} at seed {seed}: {e}", w.name()))?;
        if !seeded && out.makespan != makespan {
            return Err(format!("{}: makespan moved with the seed", w.name()));
        }
    }
    Ok(seed)
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run(o: &Opts) -> ExitCode {
    eprintln!(
        "ppm benchmark: seed {}{} — [host] times are noisy medians at reference machine speed (raw medians beside them), [sim] numbers are exact",
        o.seed,
        if o.smoke { " (smoke sizes)" } else { "" }
    );
    eprintln!(
        "timed metrics are medians with min, max and n: with so few reps no percentile has ten samples beyond it"
    );
    match o.trace {
        Some(true) => traced_only(o),
        Some(false) => timed_only(o),
        None => suite(o),
    }
}

/// `--trace 1`: the traced pass on its own — what the suite spawns per
/// workload and what the acceptance driver asks for.
fn traced_only(o: &Opts) -> ExitCode {
    let mut ok = true;
    for &w in &o.workloads {
        let (values, tally) = traced_pass(w, o);
        let list: Vec<&Metric> = metrics::per_layer(o.probes).collect();
        for m in &list {
            if let Some((_, v)) = values.iter().find(|(n, _)| *n == m.name) {
                print_metric(w, m, *v, "");
            }
        }
        let (line, correct) = contract_line(w, &list, &values, &tally);
        ok &= correct;
        if o.workloads.len() == 1 {
            println!("{line}");
        }
    }
    exit_code(ok)
}

/// `--trace 0`: the timed pass on its own, with the acceptance driver's
/// line when one workload was asked for.
fn timed_only(o: &Opts) -> ExitCode {
    let timed = timed_pass(o);
    let mut ok = true;
    for (w, s) in &timed {
        ok &= report_end_to_end(*w, s).is_some() && s.tally.failed == 0;
    }
    if let [(w, s)] = timed.as_slice() {
        let mut values: Vec<(&str, f64)> = s
            .bounded()
            .iter()
            .filter(|(_, samples, _)| !samples.is_empty())
            .map(|(name, samples, _)| (*name, stats::median(samples)))
            .collect();
        values.extend(s.peak_rss_mb.map(|mb| ("peak_rss_mb", mb)));
        let list: Vec<&Metric> = metrics::END_TO_END.iter().collect();
        let (line, correct) = contract_line(*w, &list, &values, &s.tally);
        println!("{line}");
        ok &= correct;
    }
    exit_code(ok)
}

/// The full suite: the timed pass, one traced child per workload (probes
/// ride along with the first), the held-out seed, and the result file.
fn suite(o: &Opts) -> ExitCode {
    let timed = timed_pass(o);
    let mut ok = true;
    let mut workloads = Vec::new();
    let mut probes = Vec::new();
    let mut makespans = Vec::new();
    for (w, s) in &timed {
        let Some(end_to_end) = report_end_to_end(*w, s) else {
            eprintln!("{}: no end-to-end result", w.name());
            ok = false;
            continue;
        };
        ok &= s.tally.failed == 0;
        makespans.extend(s.first.as_ref().map(|f| (*w, f.makespan)));

        let with_probes = if probes.is_empty() { "1" } else { "0" };
        let args = [
            "--workload",
            w.name(),
            "--trace",
            "1",
            "--probes",
            with_probes,
        ];
        let reply = match child(&args, o) {
            Ok(r) if r.get("correct") == Some(&Json::Bool(true)) => r,
            Ok(_) => Json::Null,
            Err(e) => {
                eprintln!("{}: traced pass: {e}", w.name());
                Json::Null
            }
        };
        let mut values = |list: &[Metric]| -> Vec<(&'static str, Json)> {
            let found = |m: &Metric| reply.get("metrics")?.get(m.name)?.get("value")?.num();
            let want = list.iter().filter(|m| w.reports(m.name));
            let got: Vec<_> = want
                .clone()
                .filter_map(|m| Some((m.name, print_value(*w, m.name, found(m)?))))
                .collect();
            ok &= got.len() == want.count();
            got
        };
        let per_layer = values(&metrics::WORKLOAD_LAYERS);
        if with_probes == "1" {
            probes = values(&metrics::PROBES);
        }
        workloads.push((
            w.name(),
            obj([
                ("why", Json::from(w.why())),
                (
                    "input_hash",
                    Json::Str(format!("{:016x}", w.job(o.seed, o.smoke).input_hash())),
                ),
                ("attempted", Json::from(s.tally.attempted)),
                ("failed", Json::from(s.tally.failed)),
                ("speed_index", Json::from(s.speed())),
                ("end_to_end", end_to_end),
                ("per_layer", obj(per_layer)),
            ]),
        ));
    }

    let held = held_out(o, &makespans);
    match &held {
        Ok(seed) => println!(
            "held-out seed {seed}: every workload verifies; seeded inputs differ, cg_* makespans equal"
        ),
        Err(e) => {
            eprintln!("FAILED held-out seed: {e}");
            ok = false;
        }
    }

    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let reps = timed.iter().map(|(_, s)| s.reps.len()).min().unwrap_or(0);
    let result = obj([
        ("schema", Json::from(1u64)),
        (
            "git_sha",
            Json::Str(std::env::var("BENCH_GIT_SHA").unwrap_or_else(|_| "unknown".to_string())),
        ),
        ("nproc", Json::from(nproc)),
        ("seed", Json::from(o.seed)),
        ("smoke", Json::from(o.smoke)),
        ("reps", Json::from(reps)),
        ("ok", Json::from(ok)),
        ("held_out_seed", held.map_or(Json::Null, Json::from)),
        ("workloads", obj(workloads)),
        ("probes", obj(probes)),
    ])
    .pretty();
    let written = ppm_simnet::validate_json(&result)
        .map_err(|e| format!("result file would be malformed: {e}"))
        .and_then(|()| {
            if let Some(dir) = std::path::Path::new(&o.out).parent() {
                std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            }
            std::fs::write(&o.out, &result).map_err(|e| e.to_string())
        });
    match written {
        Ok(()) => println!("result written to {}", o.out),
        Err(e) => {
            eprintln!("FAILED writing {}: {e}", o.out);
            ok = false;
        }
    }
    exit_code(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(seed: u64) -> Opts {
        let mut o = parse_opts(&["--smoke".to_string()]);
        o.seed = seed;
        o
    }

    #[test]
    fn critical_clock_sums_to_the_makespan() {
        for w in [Workload::RingFailover, Workload::BhTree] {
            let out = w.job(DEFAULT_SEED, true).run_ppm(false, false, None);
            let split = crit_split(&out).expect("identity holds");
            let sum: f64 = split.iter().sum();
            assert!(
                (sum - out.makespan.as_ms_f64()).abs() < 1e-9,
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn smoke_set_up_verifies_and_reps_repeat() {
        let o = opts(DEFAULT_SEED);
        let ready = setup(Workload::PrScatter, &o).expect("set-up");
        let mut first = None;
        let a = checked_rep(&ready, &mut first, None).expect("rep 0");
        let b = checked_rep(&ready, &mut first, None).expect("rep 1");
        assert_eq!(a.fingerprint(), b.fingerprint());
        // A doctored first fingerprint must fail the next rep.
        first.as_mut().unwrap().hash ^= 1;
        assert!(checked_rep(&ready, &mut first, None).is_err());
    }

    #[test]
    fn bounded_times_are_scaled_by_all_the_passes_and_keep_the_raw_median() {
        let t = |wall_raw, pass| Timing {
            wall_raw,
            cpu_raw: 2.0 * wall_raw,
            passes: [pass; 6],
        };
        let s = Samples {
            setups: vec![t(4.0, 0.020)],
            reps: vec![t(1.0, 0.040), t(3.0, 0.040), t(2.0, 0.040)],
            ..Samples::default()
        };
        // 18 of the 24 passes took twice the reference time.
        let speed = 0.5f64.powf(0.6);
        assert!((s.speed() - speed).abs() < 1e-12);
        let [(_, setup, setup_raw), (_, wall, wall_raw), (_, cpu, cpu_raw)] = s.bounded();
        assert_eq!((setup_raw, wall_raw, cpu_raw), (4.0, 2.0, 4.0));
        assert!((setup[0] - 4.0 * speed).abs() < 1e-12);
        assert!((stats::median(&wall) - 2.0 * speed).abs() < 1e-12);
        assert!((stats::median(&cpu) - 4.0 * speed).abs() < 1e-12);
    }

    #[test]
    fn tally_counts_panics_and_errors() {
        let mut t = Tally::default();
        assert_eq!(t.attempt("ok", || Ok(1)), Some(1));
        assert_eq!(t.attempt::<()>("err", || Err("no".to_string())), None);
        assert_eq!(t.attempt::<()>("panic", || panic!("boom")), None);
        assert_eq!((t.attempted, t.failed), (3, 2));
        assert!((t.fail_frac() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let list: Vec<&Metric> = metrics::END_TO_END.iter().collect();
        let values = [
            ("setup_s", 0.5),
            ("wall_s", 1.25),
            ("cpu_s", 2.0),
            ("peak_rss_mb", 9.0),
        ];
        let tally = Tally {
            attempted: 7,
            failed: 0,
        };
        let w = Workload::RingFailover;
        let (line, correct) = contract_line(w, &list, &values, &tally);
        assert!(correct);
        let j = json::parse(&line).unwrap();
        let keys: Vec<&str> = j.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = j.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value").unwrap().num(), Some(1.25));
        assert_eq!(wall.get("unit").unwrap().str(), Some("s"));
        // A missing metric makes the run incorrect rather than silently short.
        let (_, correct) = contract_line(w, &list, &values[..3], &tally);
        assert!(!correct);
        // ... except one the workload does not report, which goes out as 0.
        let mps: Vec<&Metric> = metrics::per_layer(false)
            .filter(|m| m.name == "mps.wall_s")
            .collect();
        let (line, correct) = contract_line(w, &mps, &[], &tally);
        assert!(
            correct && line.contains(r#""mps.wall_s":{"value":0,"#),
            "{line}"
        );
        assert!(!contract_line(Workload::CgHalo, &mps, &[], &tally).1);
    }

    #[test]
    fn phase_sums_read_the_metrics_report() {
        let report = r#"{"jobs":[{"name":"j","pid":0,"nodes":2,"makespan_ps":9,"phases":[
            {"kind":"global","index":0,"compute_ps_max":1000000000,"service_ps_max":0,"comm_ps_max":5,"barrier_ps_max":7},
            {"kind":"node","index":0,"compute_ps_max":2000000000,"service_ps_max":3,"comm_ps_max":0,"barrier_ps_max":0}]}]}"#;
        let s = phase_sums(report).unwrap();
        assert_eq!(s[0], 3.0);
        assert_eq!(s[4], 1.0);
        assert!(phase_sums("{}").is_err());
    }
}
