//! PPM runtime configuration.

use ppm_simnet::{FaultConfig, MachineConfig, SimTime};

/// Runtime knobs layered on top of the machine description.
///
/// The overheads here are the paper's "runtime library overhead" (§4.5):
/// every shared-variable access goes through the PPM runtime and pays a
/// translation/handler cost, which dominates at small node counts and fades
/// as communication grows — the mechanism behind Figure 1's crossover.
/// `overlap` and `bundling` correspond to the §3.3 optimizations
/// ("automatic overlap of computation and communication", "bundling up
/// fine-grained remote shared data accesses"); the ablation benches switch
/// them off.
#[derive(Debug, Clone, Copy)]
pub struct PpmConfig {
    /// Machine shape and base cost model.
    pub machine: MachineConfig,
    /// Requester-side cost per global-shared element access.
    pub sv_overhead: SimTime,
    /// Cost per node-shared element access (physical shared memory path).
    pub node_sv_overhead: SimTime,
    /// Owner-side cost per remote element served (read) or applied (write).
    pub service_overhead: SimTime,
    /// Cost of a node-level phase barrier (cores synchronizing in shared
    /// memory).
    pub node_barrier: SimTime,
    /// Modeled wire bytes per read-request entry (array id + index + slot,
    /// delta-compressed).
    pub req_entry_bytes: usize,
    /// Modeled wire bytes of bundle framing.
    pub bundle_header_bytes: usize,
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
    /// Reliability: initial retransmission timeout (simulated time).
    pub rto: SimTime,
    /// Reliability: cap of the exponential retransmission backoff.
    pub rto_max: SimTime,
    /// Reliability: receivers send one cumulative ack per this many
    /// envelopes on a link.
    pub ack_every: u64,
    /// Modeled wire bytes of a cumulative ack message.
    pub ack_bytes: usize,
    /// Crash recovery: modeled reboot time charged when a node recovers
    /// from a seeded crash at a phase boundary.
    pub crash_reboot: SimTime,
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
    /// end for every array that took writes. On by default; `PPM_READ_CACHE=0`
    /// disables it for ablations.
    pub read_cache: bool,
    /// Wake-on-arrival wave pipelining (DESIGN.md §13): VPs whose remote
    /// reads are fully satisfied resume (ascending rank) while slower
    /// destinations of the same wave are still in flight, and the compute
    /// merged during that window hides response latency. On by default;
    /// `PPM_WAVE_PIPELINE=0` disables it for ablations.
    pub wave_pipelining: bool,
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
    /// N) as delta frames piggybacked on end-of-phase write bundles, so a
    /// permanently dead node's partitions can fail over to the buddy and
    /// the job finish bit-identical. Off by default (the fault-free fast
    /// path stays byte-identical); `PPM_REPLICATION=1` (or
    /// [`Self::with_replication`]) enables it.
    pub replication: bool,
    /// Sparse end-of-phase token exchange (DESIGN.md §17): before the
    /// write exchange every node sends each of its write destinations a
    /// notice over O(log N) dissemination rounds, then ships only non-empty
    /// [`K_WRITE`]/[`K_MIGRATE`] bundles and blocks on exactly the senders
    /// that announced one — retiring the O(N²) empty-token all-to-all.
    /// Results, makespans, and traces are bit-identical to the legacy
    /// protocol; only the message counters shrink. On by default;
    /// `PPM_SPARSE_TOKENS=0` (or [`Self::with_sparse_tokens`]) restores
    /// the all-to-all for ablations.
    ///
    /// [`K_WRITE`]: crate::msgs::K_WRITE
    /// [`K_MIGRATE`]: crate::msgs::K_MIGRATE
    pub sparse_tokens: bool,
    /// Failure detector: simulated time a survivor spends retransmitting
    /// into a dead peer's silence before suspecting it (charged once per
    /// detected death; the suspicion is confirmed on the next clock
    /// barrier).
    pub suspect_timeout: SimTime,
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
    /// Default runtime constants on a given machine (see DESIGN.md §6).
    pub fn new(machine: MachineConfig) -> Self {
        PpmConfig {
            machine,
            sv_overhead: SimTime::from_ns(7),
            node_sv_overhead: SimTime::from_ns_f64(2.5),
            service_overhead: SimTime::from_ns(5),
            node_barrier: SimTime::from_ns(400),
            req_entry_bytes: 12,
            bundle_header_bytes: 16,
            overlap: true,
            bundling: true,
            checker: cfg!(debug_assertions),
            reliable: false,
            rto: SimTime::from_us(25),
            rto_max: SimTime::from_us(200),
            ack_every: 4,
            ack_bytes: 12,
            crash_reboot: SimTime::from_ms(1),
            host_threads: 0,
            read_cache: env_flag("PPM_READ_CACHE", true),
            wave_pipelining: env_flag("PPM_WAVE_PIPELINE", true),
            adaptive_balance: env_flag("PPM_ADAPTIVE", false),
            replication: env_flag("PPM_REPLICATION", false),
            sparse_tokens: env_flag("PPM_SPARSE_TOKENS", true),
            suspect_timeout: SimTime::from_us(400),
            tile_budget: env_bytes("PPM_TILE_BUDGET", 0),
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

    /// Enable or disable the phase-coherent remote-read cache (ablation;
    /// overrides the `PPM_READ_CACHE` environment default).
    pub fn with_read_cache(mut self, on: bool) -> Self {
        self.read_cache = on;
        self
    }

    /// Enable or disable wake-on-arrival wave pipelining (ablation;
    /// overrides the `PPM_WAVE_PIPELINE` environment default).
    pub fn with_wave_pipelining(mut self, on: bool) -> Self {
        self.wave_pipelining = on;
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

    /// Enable or disable the sparse end-of-phase token exchange (ablation;
    /// overrides the `PPM_SPARSE_TOKENS` environment default, which is on).
    pub fn with_sparse_tokens(mut self, on: bool) -> Self {
        self.sparse_tokens = on;
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

/// `VAR=0|false|off` → false, `VAR=<anything else>` → true, unset →
/// `default`. Read once at config construction so a run's behavior is
/// fixed by its `PpmConfig` value.
fn env_flag(var: &str, default: bool) -> bool {
    match std::env::var(var) {
        Ok(v) => !matches!(v.as_str(), "0" | "false" | "off"),
        Err(_) => default,
    }
}

/// Byte count with an optional `k`/`m`/`g` (or `K`/`M`/`G`) suffix —
/// powers of 1024. Unset or unparsable → `default`. Read once at config
/// construction like [`env_flag`].
fn env_bytes(var: &str, default: u64) -> u64 {
    match std::env::var(var) {
        Ok(v) => parse_bytes(&v).unwrap_or(default),
        Err(_) => default,
    }
}

fn parse_bytes(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, shift) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 10),
        b'm' | b'M' => (&s[..s.len() - 1], 20),
        b'g' | b'G' => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    num.trim().parse::<u64>().ok().map(|n| n << shift)
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
    fn cache_and_pipelining_default_on_and_toggle() {
        // Builder toggles are absolute: they win over any env default.
        let c = PpmConfig::franklin(2)
            .with_read_cache(true)
            .with_wave_pipelining(true);
        assert!(c.read_cache);
        assert!(c.wave_pipelining);
        let off = c.with_read_cache(false).with_wave_pipelining(false);
        assert!(!off.read_cache);
        assert!(!off.wave_pipelining);
        assert!(off.with_read_cache(true).read_cache);
        assert!(off.with_wave_pipelining(true).wave_pipelining);
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
        assert!(c.suspect_timeout > SimTime::ZERO);
    }

    #[test]
    fn sparse_tokens_default_on_and_toggles() {
        let c = PpmConfig::franklin(2);
        assert!(c.sparse_tokens, "sparse token exchange is default-on");
        assert!(!c.with_sparse_tokens(false).sparse_tokens);
        assert!(
            c.with_sparse_tokens(false)
                .with_sparse_tokens(true)
                .sparse_tokens
        );
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
        assert_eq!(parse_bytes("4096"), Some(4096));
        assert_eq!(parse_bytes("64k"), Some(64 << 10));
        assert_eq!(parse_bytes("3M"), Some(3 << 20));
        assert_eq!(parse_bytes(" 2g "), Some(2 << 30));
        assert_eq!(parse_bytes("nope"), None);
        assert_eq!(parse_bytes(""), None);
        assert_eq!(env_bytes("PPM_SURELY_UNSET_BYTES_XYZ", 7), 7);
    }

    #[test]
    fn env_flag_parses_common_spellings() {
        // Exercise the parser directly (setting process env in tests races
        // with parallel test threads).
        assert!(env_flag("PPM_SURELY_UNSET_FLAG_XYZ", true));
        assert!(!env_flag("PPM_SURELY_UNSET_FLAG_XYZ", false));
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
