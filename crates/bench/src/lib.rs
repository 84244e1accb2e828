//! # ppm-bench — the evaluation harness
//!
//! One binary per artifact of the paper's evaluation section:
//!
//! | Binary | Artifact | Regenerates |
//! |---|---|---|
//! | `fig1_cg` | Figure 1 | CG solver runtime vs node count, PPM vs MPI |
//! | `fig2_matgen` | Figure 2 | matrix generation runtime vs node count |
//! | `fig3_barneshut` | Figure 3 | Barnes–Hut runtime vs node count |
//! | `table1_codesize` | Table 1 | application code size, PPM vs MPI |
//! | `ablations` | §3.3 design claims | bundling / overlap knobs |
//!
//! All binaries print markdown tables to stdout and accept
//! `--nodes 1,2,4,…` plus a size flag. Times are *simulated* (the
//! substrate is the deterministic cluster model, see DESIGN.md), so runs
//! are exactly reproducible.

use std::path::{Path, PathBuf};

pub use ppm_simnet::TraceSink;
use ppm_simnet::{JobReport, SimTime};

/// Latest simulated completion instant across a job's endpoints, from a
/// per-endpoint time result.
pub fn max_time(report: &JobReport<SimTime>) -> SimTime {
    report
        .results
        .iter()
        .copied()
        .fold(SimTime::ZERO, SimTime::max)
}

/// A binary's command line: `--key v` or `--key=v` options and bare
/// flags, each one the binary declares.
pub struct Args {
    raw: Vec<String>,
}

/// A command line that does not run: `--help` (code 0; the accepted flags,
/// for stdout) or an argument no declared flag takes (code 2; the same
/// list, for stderr).
#[derive(Debug, PartialEq)]
pub struct Exit {
    pub code: i32,
    pub text: String,
}

impl Args {
    /// The process arguments of a binary that accepts `flags`, or — for
    /// `--help` or an argument outside them — the process exits, saying why
    /// ([`Self::try_parse`]).
    pub fn parse(flags: &[&str]) -> Args {
        Self::try_parse(std::env::args().skip(1), flags).unwrap_or_else(|exit| {
            match exit.code {
                0 => println!("{}", exit.text),
                _ => eprintln!("{}", exit.text),
            }
            std::process::exit(exit.code)
        })
    }

    /// `raw` against `flags`: each is a name, followed by a word naming its
    /// value if it takes one (`"--nodes LIST"`). `--help` asks for the list;
    /// any other argument that is neither a flag nor a flag's value fails
    /// with it.
    pub fn try_parse(raw: impl IntoIterator<Item = String>, flags: &[&str]) -> Result<Args, Exit> {
        let raw: Vec<String> = raw.into_iter().collect();
        let exit = |code, why: String| {
            let list: String = flags.iter().map(|f| format!("\n  {f}")).collect();
            Err(Exit {
                code,
                text: format!("{why}accepted flags:{list}\n  --help"),
            })
        };
        let mut at = 0;
        while let Some(arg) = raw.get(at) {
            let name = arg.split_once('=').map_or(arg.as_str(), |(name, _)| name);
            if name == "--help" {
                return exit(0, String::new());
            }
            let Some(flag) = flags.iter().find(|f| f.split(' ').next() == Some(name)) else {
                return exit(2, format!("unknown argument `{arg}`; "));
            };
            // A value goes after `=` or in the next argument.
            at += if flag.contains(' ') && name == arg {
                2
            } else {
                1
            };
        }
        Ok(Args { raw })
    }

    /// Whether a bare flag is present.
    pub fn flag(&self, name: &str) -> bool {
        self.raw.iter().any(|a| a == name)
    }

    /// Value of `--name v` / `--name=v`, if present.
    pub fn value(&self, name: &str) -> Option<String> {
        for (i, a) in self.raw.iter().enumerate() {
            if let Some(rest) = a.strip_prefix(name) {
                if let Some(v) = rest.strip_prefix('=') {
                    return Some(v.to_string());
                }
                if rest.is_empty() {
                    return self.raw.get(i + 1).cloned();
                }
            }
        }
        None
    }

    /// Comma-separated list of node counts (default the paper-style sweep).
    pub fn nodes(&self, default: &[u32]) -> Vec<u32> {
        match self.value("--nodes") {
            Some(v) => v
                .split(',')
                .map(|s| s.trim().parse().expect("--nodes wants integers"))
                .collect(),
            None => default.to_vec(),
        }
    }

    /// An integer option.
    pub fn usize(&self, name: &str, default: usize) -> usize {
        self.value(name)
            .map(|v| v.parse().expect("integer option"))
            .unwrap_or(default)
    }

    /// Trace output path: `--trace <path>`, falling back to the
    /// `PPM_TRACE` environment variable. `None` disables tracing.
    pub fn trace_path(&self) -> Option<String> {
        self.value("--trace")
            .or_else(|| std::env::var("PPM_TRACE").ok())
    }
}

/// Format a simulated time in milliseconds with fixed precision.
pub fn ms(t: SimTime) -> String {
    format!("{:.3}", t.as_ms_f64())
}

/// Ratio column (`num/den`) for the figure tables. Smoke-sized problems
/// can drive the baseline to `SimTime::ZERO`, where a bare float divide
/// prints `NaN`/`inf`; print `n/a` instead of a non-number.
pub fn ratio(num: SimTime, den: SimTime) -> String {
    let r = num.as_ns_f64() / den.as_ns_f64();
    if r.is_finite() {
        format!("{r:.2}")
    } else {
        "n/a".to_string()
    }
}

/// Byte column in megabytes. One convention everywhere: MB = 1e6 bytes
/// (decimal, matching the figure labels), not 2^20.
pub fn mb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / 1e6)
}

/// Percentage-share column (`part` out of `whole`) for counter-derived
/// table columns, e.g. the read-cache hit rate. Single-node runs have no
/// remote reads at all, so a zero denominator prints `n/a`, not `NaN`.
pub fn pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        "n/a".to_string()
    } else {
        format!("{:.0}%", part as f64 / whole as f64 * 100.0)
    }
}

/// Flush a trace sink to `path` (Chrome trace-event JSON, plus the
/// `<path>.metrics.json` per-phase report) and tell the user on stderr so
/// the note never lands inside the stdout markdown tables.
pub fn write_trace(sink: &TraceSink, path: &str) {
    sink.write_files(path).expect("writing trace files");
    eprintln!("trace written to {path} (+ {path}.metrics.json)");
}

/// Peak host RSS (`VmHWM` from `/proc/self/status`), in bytes — the
/// honest "what did this cost the machine" figure next to a modeled
/// `bytes_resident` peak. 0 where procfs is unavailable.
pub fn vm_hwm_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<u64>().ok())
            })
        })
        .map(|kib| kib * 1024)
        .unwrap_or(0)
}

/// Peak live heap bytes of this process so far: what the allocator was
/// asked to hold at once, against `VmHWM`'s pages. Counted only when
/// `ppm-bench` is built with the `heap-peak` feature (a counting global
/// allocator; without it nothing is counted and this is `None`).
pub fn peak_heap_bytes() -> Option<u64> {
    #[cfg(feature = "heap-peak")]
    return Some(heap::PEAK.load(std::sync::atomic::Ordering::Relaxed) as u64);
    #[cfg(not(feature = "heap-peak"))]
    None
}

/// One line on this process's host memory so far:
/// `host VmHWM <MB> MB, peak live heap <MB> MB` (`n/a` without the
/// `heap-peak` feature).
pub fn host_memory_line() -> String {
    let heap = peak_heap_bytes().map_or("n/a".into(), |b| format!("{} MB", mb(b)));
    format!(
        "host VmHWM {} MB, peak live heap {heap}",
        mb(vm_hwm_bytes())
    )
}

/// One line on what the runtime's owners held at the heap peak, for beside
/// [`host_memory_line`]: `live heap at its peak, by owner: <owner> <MB> MB,
/// …` (`ppm_core::ledger`'s owners). `None` without the `heap-peak`
/// feature.
pub fn heap_owners_line() -> Option<String> {
    #[cfg(feature = "heap-peak")]
    return Some(format!(
        "live heap at its peak, by owner: {}",
        ppm_core::ledger::at_peak()
            .map(|(owner, bytes)| format!("{owner} {} MB", mb(bytes)))
            .join(", ")
    ));
    #[cfg(not(feature = "heap-peak"))]
    None
}

/// The `heap-peak` feature's counting allocator: `System` plus a live-byte
/// count and its high-water mark, at each new one of which it takes the
/// runtime's owners' bytes (`ppm_core::ledger::mark_peak`).
#[cfg(feature = "heap-peak")]
mod heap {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    static LIVE: AtomicUsize = AtomicUsize::new(0);
    pub(super) static PEAK: AtomicUsize = AtomicUsize::new(0);

    fn grow(bytes: usize) {
        let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
        if PEAK.fetch_max(live, Relaxed) < live {
            ppm_core::ledger::mark_peak();
        }
    }

    struct Counting;

    // SAFETY: every method forwards to `System` with the caller's arguments
    // unchanged; the counters are plain atomics.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            // SAFETY: same contract as the caller's.
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                grow(layout.size());
            }
            p
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            // SAFETY: same contract as the caller's.
            let p = unsafe { System.alloc_zeroed(layout) };
            if !p.is_null() {
                grow(layout.size());
            }
            p
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            LIVE.fetch_sub(layout.size(), Relaxed);
            // SAFETY: `ptr` came from `System` with `layout`.
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // SAFETY: `ptr` came from `System` with `layout`.
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() {
                LIVE.fetch_sub(layout.size(), Relaxed);
                grow(new_size);
            }
            p
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;
}

/// Print a markdown table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Print a markdown table header (with separator line).
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Whether a trimmed source line is code: non-blank and not a `//`
/// comment. The sources counted have no block comments, so a line that
/// starts with `*` is a dereference.
fn is_code(line: &str) -> bool {
    !line.is_empty() && !line.starts_with("//")
}

/// Count the lines of a source file the way the paper's Table 1 does:
/// every physical line (the paper reports raw line counts); also return
/// the count of code lines (non-blank, not a `//` comment) for a fairer
/// view.
pub fn line_counts(src: &str) -> (usize, usize) {
    let total = src.lines().count();
    let code = src.lines().map(str::trim).filter(|l| is_code(l)).count();
    (total, code)
}

/// Code lines of one runtime source file at `file`, and the test-only
/// files it declares. The rule of the runtime section of
/// `table1_codesize`:
/// - a code line is a non-blank line that does not start with `//`;
/// - the count stops at `#[cfg(test)] mod tests {`;
/// - any other `#[cfg(test)]` item (its attributes, then up to its `;` or
///   its closing brace) is skipped;
/// - a `#[cfg(test)] mod name;` declares a test-only file — `name.rs` as
///   Rust resolves it, or its `#[path]` — which the crate count leaves out.
pub fn runtime_code_lines(file: &Path, src: &str) -> (usize, Vec<PathBuf>) {
    let mut lines = src.lines().map(str::trim).filter(|l| is_code(l));
    let (mut code, mut test_files) = (0, Vec::new());
    while let Some(line) = lines.next() {
        if line != "#[cfg(test)]" {
            code += 1;
            continue;
        }
        let mut path = None;
        let Some(item) = lines.find(|l| {
            let attr = l.starts_with("#[");
            if let Some(p) = l.strip_prefix("#[path = \"") {
                path = p.strip_suffix("\"]").map(str::to_string);
            }
            !attr
        }) else {
            break;
        };
        let module = item
            .split_once("mod ")
            .filter(|(vis, _)| vis.starts_with("pub") || vis.is_empty());
        match module.map(|(_, rest)| rest) {
            Some("tests {") => break,
            Some(decl) if decl.ends_with(';') => {
                let dir = file.parent().unwrap_or(Path::new(""));
                let name = format!("{}.rs", decl.trim_end_matches(';'));
                let stem = file.file_stem().and_then(|s| s.to_str()).unwrap_or("");
                test_files.push(match path {
                    Some(p) => dir.join(p),
                    None if matches!(stem, "mod" | "lib" | "main") => dir.join(name),
                    None => dir.join(stem).join(name),
                });
            }
            _ => {
                let mut line = item;
                let mut depth = 0i64;
                loop {
                    depth += line.matches('{').count() as i64 - line.matches('}').count() as i64;
                    if depth <= 0 && (line.ends_with(';') || line.ends_with('}')) {
                        break;
                    }
                    match lines.next() {
                        Some(next) => line = next,
                        None => break,
                    }
                }
            }
        }
    }
    (code, test_files)
}

/// Code lines of each `.rs` file under the source directory `src`, by
/// [`runtime_code_lines`], leaving out the test-only files.
pub fn crate_code_lines(src: &Path) -> std::io::Result<Vec<(PathBuf, usize)>> {
    let mut dirs = vec![src.to_path_buf()];
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    let mut counted = Vec::new();
    let mut test_only = Vec::new();
    for file in files {
        let (code, tests) = runtime_code_lines(&file, &std::fs::read_to_string(&file)?);
        counted.push((file, code));
        test_only.extend(tests);
    }
    counted.retain(|(file, _)| !test_only.contains(file));
    Ok(counted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_counting() {
        let src = "// doc\n\nfn f() {\n    body(); // trailing comment counts as code\n}\n";
        let (total, code) = line_counts(src);
        assert_eq!(total, 5);
        assert_eq!(code, 3);
    }

    /// A line that starts with a dereference is code, not a block comment.
    #[test]
    fn a_dereference_line_is_code() {
        let src = "fn f(a: &mut u8) {\n    *a = 1;\n    // note\n}\n";
        assert_eq!(line_counts(src), (4, 3));
    }

    /// The runtime rule on one file that has every case: comments and
    /// blanks, a one-line and a braced `#[cfg(test)]` item, a test-only
    /// file with and without `#[path]`, and the test module it stops at.
    #[test]
    fn runtime_line_rule() {
        let src = "//! doc\n\nuse x;\n#[cfg(test)]\nthread_local! {\n    static A: u8 = 0;\n}\n\
                   fn f() {\n    // note\n    #[cfg(test)]\n    count(1);\n    body(); // code\n}\n\
                   #[cfg(test)]\n#[path = \"t.rs\"]\nmod t;\n#[cfg(test)]\npub(super) mod helpers;\n\
                   #[cfg(test)]\npub(crate) fn probe(\n    a: u8,\n) -> u8 {\n    a\n}\nconst C: u8 = 1;\n\
                   #[cfg(test)]\nmod tests {\n    fn g() {}\n}\nfn after() {}\n";
        let in_mod = runtime_code_lines(Path::new("src/state/mod.rs"), src);
        let files = [
            PathBuf::from("src/state/t.rs"),
            "src/state/helpers.rs".into(),
        ];
        assert_eq!(in_mod, (5, files.to_vec()), "use, fn f, body, its brace, C");
        let (_, in_file) = runtime_code_lines(Path::new("src/state/wlog.rs"), src);
        assert_eq!(in_file[1], Path::new("src/state/wlog/helpers.rs"));
    }

    /// `ppm-core` declares two files as test-only modules; its count
    /// leaves exactly those out.
    #[test]
    fn crate_count_leaves_out_test_only_files() {
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/src");
        let counted = crate_code_lines(&src).expect("readable sources");
        let has = |f: &str| counted.iter().any(|(p, _)| *p == src.join(f));
        assert!(has("exec/mod.rs") && has("state/mod.rs") && has("lib.rs"));
        assert!(!has("exec/exec_tests.rs") && !has("state/tests.rs"));
        assert!(counted.iter().all(|&(_, lines)| lines > 0));
    }

    #[test]
    fn the_heap_peak_is_counted_only_with_its_feature() {
        let block = std::hint::black_box(vec![1u8; 1 << 20]);
        let peak = peak_heap_bytes();
        assert_eq!(peak.is_some(), cfg!(feature = "heap-peak"));
        assert!(peak.is_none_or(|peak| peak >= block.len() as u64));
        assert!(host_memory_line().starts_with("host VmHWM "));
    }

    /// The owners' line is printed only with `heap-peak`, and names every
    /// owner of the runtime's ledger.
    #[test]
    fn the_owners_line_appears_only_with_the_heap_peak_feature() {
        let line = heap_owners_line();
        assert_eq!(line.is_some(), cfg!(feature = "heap-peak"));
        let owners = [
            "parked bulk reads",
            "inner.reqs",
            "slot tables",
            "arena + read cache",
            "serve history",
            "partitions",
            "write log",
        ];
        for owner in owners {
            assert!(line
                .as_ref()
                .is_none_or(|l| l.contains(&format!("{owner} "))));
        }
    }

    fn args(raw: &[&str]) -> Result<Args, Exit> {
        let flags = ["--nodes LIST", "--n N", "--full", "--trace PATH"];
        Args::try_parse(raw.iter().map(|a| a.to_string()), &flags)
    }

    /// Declared flags and their values parse; an undeclared one — a bare
    /// word, a flag's `=` form, a flag that only prefixes a declared one —
    /// fails naming itself and every accepted flag.
    #[test]
    fn an_unknown_flag_fails_with_the_accepted_list() {
        let ok = args(&["--nodes", "1,2", "--n=64", "--full", "--trace", "--full"]).unwrap();
        assert_eq!((ok.nodes(&[]), ok.usize("--n", 0)), (vec![1, 2], 64));
        assert_eq!(ok.value("--trace").as_deref(), Some("--full"));
        for bad in ["--threads", "--threads=1,8", "--node", "8"] {
            let exit = args(&["--n", "4", bad]).err().unwrap();
            assert_eq!(exit.code, 2, "{bad}");
            assert!(exit
                .text
                .starts_with(&format!("unknown argument `{bad}`; ")));
            assert!(exit
                .text
                .ends_with("flags:\n  --nodes LIST\n  --n N\n  --full\n  --trace PATH\n  --help"));
        }
    }

    /// `--help`, anywhere, asks for the list and exits 0.
    #[test]
    fn help_prints_the_accepted_flags() {
        let exit = args(&["--n", "4", "--help"]).err().unwrap();
        let list = "accepted flags:\n  --nodes LIST\n  --n N\n  --full\n  --trace PATH\n  --help";
        assert_eq!(
            exit,
            Exit {
                code: 0,
                text: list.into()
            }
        );
        assert_eq!(
            Args::try_parse(["--help".into()], &[]).err().unwrap().code,
            0
        );
    }

    #[test]
    fn ms_formatting() {
        assert_eq!(ms(SimTime::from_us(1500)), "1.500");
    }

    #[test]
    fn ratio_prints_na_on_zero_denominator() {
        // Regression: smoke-sized baselines round to zero simulated time;
        // the old inline divide printed "NaN" / "inf" in the tables.
        assert_eq!(ratio(SimTime::from_us(3), SimTime::ZERO), "n/a");
        assert_eq!(ratio(SimTime::ZERO, SimTime::ZERO), "n/a");
        assert_eq!(ratio(SimTime::from_us(3), SimTime::from_us(2)), "1.50");
    }

    #[test]
    fn pct_prints_na_on_zero_denominator() {
        assert_eq!(pct(3, 0), "n/a");
        assert_eq!(pct(0, 8), "0%");
        assert_eq!(pct(3, 4), "75%");
    }

    #[test]
    fn mb_is_decimal_megabytes() {
        assert_eq!(mb(2_500_000), "2.50");
        assert_eq!(mb(0), "0.00");
    }
}
