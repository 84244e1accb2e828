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
    /// bit-identical across host timing and fault seeds. Off by
    /// default; [`Self::with_adaptive_balance`] enables it.
    pub adaptive_balance: bool,
    /// Buddy snapshot replication for fail-stop tolerance (DESIGN.md §15):
    /// every node streams its super-step snapshot to a buddy (rank+1 mod
    /// N) as delta frames riding the round-0 clock-barrier message, whose
    /// destination is the buddy (`FailoverPart::take_for`), so a
    /// permanently dead node's partitions can fail over to the buddy and
    /// the job finish bit-identical. Off by default (the fault-free fast
    /// path stays byte-identical); [`Self::with_replication`] enables it.
    pub replication: bool,
    /// Pseudo-streaming tile budget in bytes per node (DESIGN.md §18):
    /// `0` (the default) keeps every partition fully resident; a non-zero
    /// budget splits each global-array partition into fixed-size tiles and
    /// bounds how many stay resident at once, spilling cold tiles to the
    /// modeled backing store and refilling them on first touch. Results,
    /// counters, and makespans are bit-identical at every budget — only
    /// the `bytes_resident` peak and the `tile_spills`/`tile_refills`
    /// counters move. Set with [`Self::with_tile_budget`].
    pub tile_budget: u64,
}

impl PpmConfig {
    /// Default runtime settings on a given machine: a pure function of
    /// `machine`, so a run is fixed by its `PpmConfig` value.
    pub fn new(machine: MachineConfig) -> Self {
        PpmConfig {
            machine,
            overlap: true,
            bundling: true,
            checker: cfg!(debug_assertions),
            reliable: false,
            read_cache: true,
            adaptive_balance: false,
            replication: false,
            tile_budget: 0,
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

    /// Enable or disable trace-guided adaptive repartitioning (off by
    /// default).
    pub fn with_adaptive_balance(mut self, on: bool) -> Self {
        self.adaptive_balance = on;
        self
    }

    /// Enable or disable buddy snapshot replication for fail-stop
    /// tolerance (off by default).
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
    /// partitions stay fully resident, the default). Bit-identical at every
    /// value (DESIGN.md §18).
    pub fn with_tile_budget(mut self, bytes: u64) -> Self {
        self.tile_budget = bytes;
        self
    }

    /// A node's own thread polls its VPs; there is no thread count to set.
    /// Accepts and ignores any value. Kept, for the frozen `benchmark/`
    /// package alone, like [`Self::with_wave_pipelining`].
    #[doc(hidden)]
    pub fn with_host_threads(self, _n: usize) -> Self {
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

    /// The four variables that once set `PpmConfig` defaults or the host
    /// thread count change nothing: this module's tests, re-run in a child
    /// process with all four set, still pass (the `*_defaults_off_and_toggles`
    /// ones would not if `new` read them).
    #[test]
    fn the_shell_cannot_change_a_config() {
        const CHILD: &str = "CONFIG_TESTS_CHILD";
        if std::env::var_os(CHILD).is_some() {
            return;
        }
        let exe = std::env::current_exe().expect("the test binary's path");
        let out = std::process::Command::new(exe)
            .args(["config::tests", "--test-threads=1"])
            .env(CHILD, "1")
            .env("PPM_ADAPTIVE", "1")
            .env("PPM_REPLICATION", "1")
            .env("PPM_TILE_BUDGET", "4096")
            .env("PPM_HOST_THREADS", "8")
            .output()
            .expect("re-run the test binary");
        assert!(
            out.status.success(),
            "config tests fail under PPM_ADAPTIVE / PPM_REPLICATION / PPM_TILE_BUDGET / \
             PPM_HOST_THREADS:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
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
