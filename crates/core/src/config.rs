//! PPM runtime configuration.

use ppm_simnet::{FaultConfig, MachineConfig};

/// Runtime knobs layered on top of the machine description. The runtime's
/// own cost constants — the paper's "runtime library overhead" (§4.5) among
/// them — are not knobs: they live in one table, `cost.rs` (DESIGN.md §6).
/// `overlap` and `bundling` correspond to the §3.3 optimizations
/// ("automatic overlap of computation and communication", "bundling up
/// fine-grained remote shared data accesses"); the ablation benches switch
/// them off.
#[derive(Debug, Clone, Copy)]
pub struct PpmConfig {
    /// Machine shape and base cost model.
    pub machine: MachineConfig,
    /// Overlap communication gap time with computation (§3.3). On by
    /// default.
    pub overlap: bool,
    /// Bundle fine-grained remote accesses into one message per
    /// (destination, wave) (§3.3). On by default; switching it off charges
    /// every element as its own message, the "naive runtime" ablation.
    pub bundling: bool,
    /// Run the dynamic phase-semantics conformance checker
    /// ([`crate::PhaseViolation`]): report write-write conflicts,
    /// read-own-write hazards, and phase structure errors at each barrier.
    /// On by default in debug builds — i.e. under `cargo test` — and off in
    /// release builds; override with [`Self::with_checker`].
    pub checker: bool,
    /// Force the reliable-transport sublayer on even without faults
    /// (overhead measurement). Reliability is always on when
    /// `machine.faults` is enabled; see [`Self::reliability_enabled`].
    pub reliable: bool,
    /// Host worker threads polling VPs inside each simulated node. `0`
    /// (the default) resolves at `ppm_do` time: the `PPM_HOST_THREADS`
    /// environment variable if set, else
    /// `min(host parallelism, cores_per_node)`. Results are bit-identical
    /// at any value — the scheduler merges VP effects in ascending rank
    /// order (see DESIGN.md §12).
    pub host_threads: usize,
    /// Phase-coherent remote-read cache (DESIGN.md §13): remote values
    /// from response bundles and owner-pushed refreshes are kept per node
    /// and consulted before queueing any remote read; invalidated at phase
    /// end for every array that took writes. On by default, and — like
    /// `overlap` and `bundling` — switched off only through the builder
    /// ([`Self::with_read_cache`]), for the §13 ablation row: it is a
    /// feature switch, not a second protocol.
    pub read_cache: bool,
    /// Trace-guided adaptive repartitioning (DESIGN.md §14): at each global
    /// phase boundary the runtime may recut the weighted partitions of
    /// arrays allocated with [`crate::NodeCtx::alloc_global_balanced`],
    /// migrating elements toward less-loaded nodes. The decision is a pure
    /// function of replicated simulated-time load counters, so results stay
    /// bit-identical across host thread counts and fault seeds. Off by
    /// default; `PPM_ADAPTIVE=1` (or [`Self::with_adaptive_balance`])
    /// enables it.
    pub adaptive_balance: bool,
    /// Buddy snapshot replication for fail-stop tolerance (DESIGN.md §15):
    /// every node streams its super-step snapshot to a buddy (rank+1 mod
    /// N) as delta frames riding the round-0 clock-barrier message, whose
    /// destination is the buddy (`FailoverPart::take_for`), so a
    /// permanently dead node's partitions can fail over to the buddy and
    /// the job finish bit-identical. Off by default (the fault-free fast
    /// path stays byte-identical); `PPM_REPLICATION=1` (or
    /// [`Self::with_replication`]) enables it.
    pub replication: bool,
    /// Pseudo-streaming tile budget in bytes per node (DESIGN.md §18):
    /// `0` (the default) keeps every partition fully resident; a non-zero
    /// budget splits each global-array partition into fixed-size tiles and
    /// bounds how many stay resident at once, spilling cold tiles to the
    /// modeled backing store and refilling them on first touch. Results,
    /// counters, and makespans are bit-identical at every budget — only
    /// the `bytes_resident` peak and the `tile_spills`/`tile_refills`
    /// counters move. `PPM_TILE_BUDGET` accepts a byte count with an
    /// optional `k`/`m`/`g` suffix.
    pub tile_budget: u64,
}

impl PpmConfig {
    /// Default runtime settings on a given machine.
    ///
    /// Three defaults come from the environment — `PPM_ADAPTIVE`,
    /// `PPM_REPLICATION`, `PPM_TILE_BUDGET` — where, as for
    /// `PPM_HOST_THREADS`, an empty value means unset.
    ///
    /// # Panics
    ///
    /// If one of them is set to a value that does not parse.
    pub fn new(machine: MachineConfig) -> Self {
        PpmConfig {
            machine,
            overlap: true,
            bundling: true,
            checker: cfg!(debug_assertions),
            reliable: false,
            host_threads: 0,
            read_cache: true,
            adaptive_balance: env_or("PPM_ADAPTIVE", FLAG, false),
            replication: env_or("PPM_REPLICATION", FLAG, false),
            tile_budget: env_or("PPM_TILE_BUDGET", BYTES, 0),
        }
    }

    /// The paper's platform shape: `nodes` quad-core nodes.
    pub fn franklin(nodes: u32) -> Self {
        PpmConfig::new(MachineConfig::franklin(nodes))
    }

    /// Disable communication/computation overlap (ablation).
    pub fn without_overlap(mut self) -> Self {
        self.overlap = false;
        self
    }

    /// Disable request bundling (ablation).
    pub fn without_bundling(mut self) -> Self {
        self.bundling = false;
        self
    }

    /// Enable or disable the phase-semantics conformance checker. It is
    /// observation only — results, counters and simulated times are
    /// identical either way — and costs host time alone: a checked run of
    /// the benchmark's jobs takes 1.07–1.16× the node-thread CPU of an
    /// unchecked one (EXPERIMENTS.md, PR 17; 2.2–3.5× before the rules moved
    /// to the source). Off, an access pays one branch for it.
    pub fn with_checker(mut self, on: bool) -> Self {
        self.checker = on;
        self
    }

    /// Force the reliable-transport sublayer on or off regardless of the
    /// fault configuration (overhead measurement / ablation). Faults still
    /// require reliability: enabling faults overrides `false` here.
    pub fn with_reliability(mut self, on: bool) -> Self {
        self.reliable = on;
        self
    }

    /// Inject seeded faults (convenience: sets `machine.faults`, which
    /// also switches the reliable transport on).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.machine.faults = faults;
        self
    }

    /// Enable or disable the phase-coherent remote-read cache (ablation).
    pub fn with_read_cache(mut self, on: bool) -> Self {
        self.read_cache = on;
        self
    }

    /// Wake-on-arrival pipelining is the only wave schedule. Kept, for the
    /// frozen `benchmark/` package alone, until that package drops the call.
    #[doc(hidden)]
    pub fn with_wave_pipelining(self, on: bool) -> Self {
        assert!(on, "the all-responses wave barrier was removed in PR 18");
        self
    }

    /// Enable or disable trace-guided adaptive repartitioning (overrides
    /// the `PPM_ADAPTIVE` environment default, which is off).
    pub fn with_adaptive_balance(mut self, on: bool) -> Self {
        self.adaptive_balance = on;
        self
    }

    /// Enable or disable buddy snapshot replication for fail-stop
    /// tolerance (overrides the `PPM_REPLICATION` environment default,
    /// which is off).
    pub fn with_replication(mut self, on: bool) -> Self {
        self.replication = on;
        self
    }

    /// The sparse sender-notice exchange is the only phase-end protocol.
    /// Kept, for the frozen `benchmark/` package alone, like
    /// [`Self::with_wave_pipelining`].
    #[doc(hidden)]
    pub fn with_sparse_tokens(self, on: bool) -> Self {
        assert!(
            on,
            "the dense all-to-all token exchange was removed in PR 18"
        );
        self
    }

    /// Set the pseudo-streaming tile budget in bytes per node (`0` = off:
    /// partitions stay fully resident). Overrides the `PPM_TILE_BUDGET`
    /// environment default. Bit-identical at every value (DESIGN.md §18).
    pub fn with_tile_budget(mut self, bytes: u64) -> Self {
        self.tile_budget = bytes;
        self
    }

    /// Pin the number of host worker threads used to poll VPs (`0` =
    /// auto: `PPM_HOST_THREADS`, else `min(host cores, cores_per_node)`).
    /// Deterministic at any value; this knob exists so tests can compare
    /// thread counts without racing on the process environment.
    pub fn with_host_threads(mut self, n: usize) -> Self {
        self.host_threads = n;
        self
    }

    /// Whether the reliable-transport sublayer is active: explicitly
    /// requested, or required because the machine injects faults.
    #[inline]
    pub fn reliability_enabled(&self) -> bool {
        self.reliable || self.machine.faults.enabled()
    }

    /// Number of nodes.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.machine.nodes as usize
    }

    /// Cores per node.
    #[inline]
    pub fn cores_per_node(&self) -> usize {
        self.machine.cores_per_node as usize
    }
}

/// How one kind of `PPM_*` value is read: the parser and, for the panic
/// message, the forms it accepts.
type EnvForm<T> = (fn(&str) -> Option<T>, &'static str);

const FLAG: EnvForm<bool> = (parse_flag, "1, true or on / 0, false or off");
const BYTES: EnvForm<u64> = (
    parse_bytes,
    "a byte count with an optional k, m or g suffix (powers of 1024)",
);
const THREADS: EnvForm<usize> = (
    |s| s.parse().ok(),
    "a thread count (0 = as many as the host and the node's cores allow)",
);

/// The value of environment variable `var`, or `default` when it is unset.
/// Read once at config construction so a run's behavior is fixed by its
/// `PpmConfig` value.
fn env_or<T>(var: &str, form: EnvForm<T>, default: T) -> T {
    // Lossy: a value that is not Unicode reaches the parser and is refused.
    let raw = std::env::var_os(var).unwrap_or_default();
    parse_env(var, &raw.to_string_lossy(), form).unwrap_or(default)
}

/// `PPM_HOST_THREADS`, resolved at `ppm_do` time when
/// [`PpmConfig::host_threads`] is 0; 0 here too means auto.
pub(crate) fn env_host_threads() -> usize {
    env_or("PPM_HOST_THREADS", THREADS, 0)
}

/// Parse `raw`, the value of `var`. Empty (or blank) means unset; a value
/// the form does not accept is an error, not a silent default — a
/// "streamed" suite under `PPM_TILE_BUDGET=4kb` would otherwise run in core.
fn parse_env<T>(var: &str, raw: &str, (parse, accepted): EnvForm<T>) -> Option<T> {
    let value = raw.trim();
    if value.is_empty() {
        return None;
    }
    Some(parse(value).unwrap_or_else(|| panic!("{var}={raw:?} is not valid: expected {accepted}")))
}

fn parse_flag(s: &str) -> Option<bool> {
    match s {
        "1" | "true" | "on" => Some(true),
        "0" | "false" | "off" => Some(false),
        _ => None,
    }
}

/// Byte count with an optional `k`/`m`/`g` (or `K`/`M`/`G`) suffix —
/// powers of 1024.
fn parse_bytes(s: &str) -> Option<u64> {
    let (num, shift) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 10),
        b'm' | b'M' => (&s[..s.len() - 1], 20),
        b'g' | b'G' => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    num.trim().parse::<u64>().ok()?.checked_mul(1 << shift)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_optimizations() {
        let c = PpmConfig::franklin(4);
        assert!(c.overlap);
        assert!(c.bundling);
        assert_eq!(c.nodes(), 4);
        assert_eq!(c.cores_per_node(), 4);
    }

    #[test]
    fn ablation_builders() {
        let c = PpmConfig::franklin(2).without_overlap().without_bundling();
        assert!(!c.overlap);
        assert!(!c.bundling);
    }

    #[test]
    fn read_cache_defaults_on_and_toggles() {
        let c = PpmConfig::franklin(2);
        assert!(c.read_cache, "the read cache is default-on");
        assert!(!c.with_read_cache(false).read_cache);
        assert!(c.with_read_cache(false).with_read_cache(true).read_cache);
    }

    #[test]
    fn adaptive_balance_defaults_off_and_toggles() {
        let c = PpmConfig::franklin(2);
        assert!(!c.adaptive_balance, "adaptive repartitioning is opt-in");
        assert!(c.with_adaptive_balance(true).adaptive_balance);
        assert!(
            !c.with_adaptive_balance(true)
                .with_adaptive_balance(false)
                .adaptive_balance
        );
    }

    #[test]
    fn replication_defaults_off_and_toggles() {
        let c = PpmConfig::franklin(2);
        assert!(!c.replication, "snapshot replication is opt-in");
        assert!(c.with_replication(true).replication);
        assert!(!c.with_replication(true).with_replication(false).replication);
    }

    #[test]
    fn tile_budget_defaults_off_and_toggles() {
        let c = PpmConfig::franklin(2);
        assert_eq!(c.tile_budget, 0, "streaming is opt-in");
        assert_eq!(c.with_tile_budget(1 << 20).tile_budget, 1 << 20);
        assert_eq!(
            c.with_tile_budget(1 << 20).with_tile_budget(0).tile_budget,
            0
        );
    }

    #[test]
    fn parse_bytes_accepts_suffixes() {
        let bytes = |raw| parse_env("PPM_TILE_BUDGET", raw, BYTES);
        assert_eq!(bytes("4096"), Some(4096));
        assert_eq!(bytes("64k"), Some(64 << 10));
        assert_eq!(bytes("3M"), Some(3 << 20));
        assert_eq!(bytes(" 2g "), Some(2 << 30));
        assert_eq!(bytes("0"), Some(0));
        assert_eq!(bytes(""), None, "empty means unset");
        assert_eq!(env_or("PPM_SURELY_UNSET_BYTES_XYZ", BYTES, 7), 7);
    }

    #[test]
    fn env_flag_parses_common_spellings() {
        // Exercise the parser directly (setting process env in tests races
        // with parallel test threads).
        let flag = |raw| parse_env("PPM_ADAPTIVE", raw, FLAG);
        for on in ["1", "true", "on", " 1 "] {
            assert_eq!(flag(on), Some(true), "{on:?}");
        }
        for off in ["0", "false", "off"] {
            assert_eq!(flag(off), Some(false), "{off:?}");
        }
        assert_eq!(flag(""), None, "set but empty means unset, not on");
        assert!(env_or("PPM_SURELY_UNSET_FLAG_XYZ", FLAG, true));
        assert!(!env_or("PPM_SURELY_UNSET_FLAG_XYZ", FLAG, false));
    }

    #[test]
    fn host_threads_parse_as_a_count() {
        let threads = |raw| parse_env("PPM_HOST_THREADS", raw, THREADS);
        assert_eq!(threads("8"), Some(8));
        assert_eq!(threads("0"), Some(0));
        assert_eq!(threads("  "), None);
    }

    /// An unparsable value names the variable, the value and what would
    /// have been accepted.
    #[test]
    fn unparsable_env_values_are_errors_not_defaults() {
        fn message<T: 'static>(var: &'static str, raw: &'static str, form: EnvForm<T>) -> String {
            let refused = std::panic::catch_unwind(|| parse_env(var, raw, form).is_some());
            *refused
                .expect_err("must panic")
                .downcast::<String>()
                .expect("formatted panic")
        }
        let m = message("PPM_TILE_BUDGET", "4kb", BYTES);
        assert!(
            m.contains("PPM_TILE_BUDGET=\"4kb\"") && m.contains("k, m or g"),
            "{m}"
        );
        let m = message("PPM_TILE_BUDGET", "99999999999g", BYTES);
        assert!(m.contains("PPM_TILE_BUDGET"), "overflow: {m}");
        let m = message("PPM_HOST_THREADS", "four", THREADS);
        assert!(
            m.contains("PPM_HOST_THREADS=\"four\"") && m.contains("thread count"),
            "{m}"
        );
        let m = message("PPM_ADAPTIVE", "yes", FLAG);
        assert!(
            m.contains("PPM_ADAPTIVE=\"yes\"") && m.contains("true or on"),
            "{m}"
        );
    }

    #[test]
    fn reliability_off_by_default_and_implied_by_faults() {
        let c = PpmConfig::franklin(2);
        assert!(!c.reliability_enabled());
        assert!(c.with_reliability(true).reliability_enabled());
        let f = c.with_faults(FaultConfig::seeded(7, 0.1, 0.0, 0.0));
        assert!(f.reliability_enabled(), "faults imply reliability");
        assert!(f.machine.faults.enabled());
    }

    #[test]
    fn checker_defaults_on_in_tests_and_toggles() {
        let c = PpmConfig::franklin(2);
        assert_eq!(c.checker, cfg!(debug_assertions));
        assert!(c.with_checker(true).checker);
        assert!(!c.with_checker(true).with_checker(false).checker);
    }
}
