//! The five workloads: seeded inputs, native oracles, the PPM job, the
//! MPI-style baseline and the output check for each.
//!
//! Everything goes through public entry points of the four crates; the
//! program under test receives only generated inputs, never the seed's
//! meaning. Every `PpmConfig` knob that has an environment default is
//! pinned here so `PPM_*` variables cannot leak into a measurement.

use ppm_apps::barnes_hut::{self as bh, BhParams, Body, Com, SortedBody};
use ppm_apps::cg::{self, CgParams};
use ppm_apps::pagerank::{self as pr, PrParams};
use ppm_apps::stencil27::Stencil27;
use ppm_core::{AccumOp, NodeCtx, PpmConfig, TraceSink};
use ppm_simnet::{Clock, Counters, FaultConfig, MachineConfig, SimTime};

/// Seed used when none is given. Chosen so `ring_failover` kills rank 191
/// of 256 — the victim of the `large_n` bench binary.
pub const DEFAULT_SEED: u64 = 179;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CgHalo,
    BhTree,
    PrScatter,
    RingFailover,
    CgStreamed,
}

pub const ALL: [Workload; 5] = [
    Workload::CgHalo,
    Workload::BhTree,
    Workload::PrScatter,
    Workload::RingFailover,
    Workload::CgStreamed,
];

/// Ring shape: nodes × VPs per node × phases, with one permanent death.
#[derive(Debug, Clone, Copy)]
pub struct RingParams {
    pub nodes: usize,
    pub vps: usize,
    pub rounds: u64,
    pub victim: usize,
}

#[derive(Debug, Clone, Copy)]
enum Input {
    Cg(CgParams),
    Bh(BhParams),
    Pr(PrParams),
    Ring(RingParams),
}

/// Generated inputs of one workload at one seed.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    pub nodes: u32,
    /// Pseudo-streaming budget per node in bytes (0 = in core).
    tile_budget: u64,
    input: Input,
}

/// What the native oracle says the job must produce.
pub enum Oracle {
    /// Reference values, compared per element within `rel`·|want| + `abs`.
    Close { want: Vec<f64>, abs: f64, rel: f64 },
    /// CG: `‖r‖²` and the iteration count always, the solution vector
    /// when the job gathered it.
    Cg(cg::CgOutcome),
    /// Exact result bits.
    Bits(Vec<u64>),
}

/// Observables of one finished PPM job.
pub struct Outcome {
    /// Node 0's result, as bits (f64 results via `to_bits`). CG results
    /// are `[‖r‖², iterations, x…]`, with `x` present only when gathered.
    pub bits: Vec<u64>,
    /// FNV-1a of `bits`; every node returned the same value.
    pub hash: u64,
    pub makespan: SimTime,
    pub counters: Counters,
    /// Clock of the node that finished last: its compute + comm + wait is
    /// the makespan.
    pub crit: Clock,
    /// Σ over nodes of the modeled peak resident bytes (0 without a tile
    /// budget, where residency is not tracked).
    pub peak_resident: u64,
    /// Conformance violations reported (always 0 with the checker off).
    pub violations: usize,
}

/// The parts of an outcome that must repeat exactly from rep to rep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub hash: u64,
    pub makespan: SimTime,
    pub counters: Counters,
}

impl Outcome {
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            hash: self.hash,
            makespan: self.makespan,
            counters: self.counters,
        }
    }
}

/// FNV-1a over the words' little-endian bytes (the runtime's own hasher).
pub fn fnv1a(words: &[u64]) -> u64 {
    let mut h = ppm_core::ByteHasher::new();
    for w in words {
        h.write(&w.to_le_bytes());
    }
    h.finish()
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::CgHalo => "cg_halo",
            Workload::BhTree => "bh_tree",
            Workload::PrScatter => "pr_scatter",
            Workload::RingFailover => "ring_failover",
            Workload::CgStreamed => "cg_streamed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (mirrored in BENCHMARK.json and README.md).
    pub fn why(self) -> &'static str {
        match self {
            Workload::CgHalo => {
                "CG on the 27-point chimney: local gets outnumber remote 18:1, so the \
                 local-access path and the stencil kernel dominate (Fig. 1's shape)"
            }
            Workload::BhTree => {
                "Barnes-Hut tree walk: millions of irregular remote gets, almost all \
                 deduplicated inside a wave; request queue, read cache and wave wake-ups dominate"
            }
            Workload::PrScatter => {
                "PageRank push on a power-law graph: millions of accumulates, no remote \
                 gets, no waves; the write log append/sort/drain/fold path dominates"
            }
            Workload::RingFailover => {
                "256-node ring whose app does nothing, with one permanent death: clock \
                 barrier, sparse tokens, reliable envelopes, failover and router delivery dominate"
            }
            Workload::CgStreamed => {
                "CG on a 64-cube under a tile budget 8x below the in-core vectors: tile \
                 fault/evict service and host memory are the point"
            }
        }
    }

    /// Whether the workload has a value for the per-layer metric `name`.
    pub fn reports(self, name: &str) -> bool {
        self != Workload::RingFailover || !crate::metrics::MPS_BASELINE.contains(&name)
    }

    /// Generate the inputs. `smoke` shrinks every size about fourfold and
    /// cuts iteration counts, for a seconds-long end-to-end check.
    pub fn job(self, seed: u64, smoke: bool) -> Job {
        let pick = |full: usize, small: usize| if smoke { small } else { full };
        let (nodes, tile_budget, input) = match self {
            // The CG stencil is fixed by the paper and takes no seed.
            Workload::CgHalo => {
                let mut p = CgParams::cube(1, pick(25, 8));
                p.problem = Stencil27::chimney(pick(24, 12));
                (pick(16, 4), 0, Input::Cg(p))
            }
            Workload::CgStreamed => {
                let mut p = CgParams::cube(pick(64, 32), pick(3, 2)).with_spmv_chunk(256);
                p.rows_per_vp = 1024;
                // 8x under the 4 f64 vectors a node owns a slice of.
                let nodes = pick(64, 16);
                let in_core = 4 * 8 * p.problem.n().div_ceil(nodes) as u64;
                (nodes, in_core / 8, Input::Cg(p))
            }
            Workload::BhTree => {
                let mut p = BhParams::new(pick(2048, 512));
                p.steps = pick(2, 1);
                p.seed = seed;
                (pick(8, 2), 0, Input::Bh(p))
            }
            Workload::PrScatter => {
                let mut p = PrParams::skewed(pick(65_536, 16_384));
                p.iters = pick(20, 5);
                p.seed = seed;
                (pick(8, 2), 0, Input::Pr(p))
            }
            Workload::RingFailover => {
                let nodes = pick(256, 64);
                // Upper half, so the death bit sits past the old fixed-width
                // sidecar masks whenever the ring is big enough.
                let victim =
                    nodes / 2 + (ppm_apps::matgen::splitmix64(seed) % (nodes as u64 / 2)) as usize;
                let ring = RingParams {
                    nodes,
                    vps: 8,
                    rounds: pick(48, 12) as u64,
                    victim,
                };
                (nodes, 0, Input::Ring(ring))
            }
        };
        Job {
            nodes: nodes as u32,
            tile_budget,
            input,
        }
    }
}

impl Job {
    /// Hash of the generated inputs: differs between seeds exactly when
    /// the workload takes a seed.
    pub fn input_hash(&self) -> u64 {
        match self.input {
            Input::Cg(p) => fnv1a(&[
                p.problem.gx as u64,
                p.problem.gy as u64,
                p.problem.gz as u64,
                p.iters as u64,
                p.rows_per_vp as u64,
                p.spmv_chunk as u64,
                self.tile_budget,
            ]),
            Input::Bh(p) => fnv1a(&body_bits(&bh::initial_bodies(&p), true)),
            Input::Pr(p) => {
                let edges: Vec<u64> = (0..p.n)
                    .flat_map(|v| (0..pr::out_degree(&p, v)).map(move |k| (v, k)))
                    .map(|(v, k)| pr::neighbour(&p, v, k) as u64)
                    .collect();
                fnv1a(&edges)
            }
            Input::Ring(r) => fnv1a(&[r.nodes as u64, r.vps as u64, r.rounds, r.victim as u64]),
        }
    }

    pub fn ring(&self) -> Option<RingParams> {
        match self.input {
            Input::Ring(r) => Some(r),
            _ => None,
        }
    }

    /// Bytes of shared-array state the job models across the cluster, from
    /// the arrays each app allocates and their elements' wire sizes.
    pub fn modeled_bytes(&self) -> u64 {
        let words = |n: usize| 8 * n as u64;
        match self.input {
            // x, r, p, ap and the 4-slot scalar block.
            Input::Cg(p) => 4 * words(p.problem.n()) + words(4),
            Input::Bh(p) => {
                let cells = |d: usize| 1usize << (3 * d);
                let level_cells: usize = (0..=p.max_depth).map(cells).sum();
                p.n_bodies as u64 * (wire::<Body>() + wire::<SortedBody>())
                    + words(6)
                    + 2 * words(cells(p.max_depth))
                    + level_cells as u64 * wire::<Com>()
            }
            Input::Pr(p) => 2 * words(p.n),
            Input::Ring(r) => words(r.nodes + 1),
        }
    }

    fn config(&self, checker: bool) -> PpmConfig {
        let mut cfg = pinned(self.nodes)
            .with_checker(checker)
            .with_tile_budget(self.tile_budget);
        if let Some(r) = self.ring() {
            cfg = cfg
                .with_replication(true)
                .with_faults(FaultConfig::NONE.with_permanent_crash(r.victim, 1));
        }
        cfg
    }

    /// Run the native sequential oracle: the plain single-threaded run of
    /// the same problem (its host seconds are `apps.seq_s`).
    pub fn oracle(&self) -> Oracle {
        match self.input {
            Input::Cg(p) => Oracle::Cg(cg::seq::solve(&p)),
            Input::Bh(p) => Oracle::Bits(body_bits(&bh::seq::simulate(&p), false)),
            // The rule of pagerank_versions.rs.
            Input::Pr(p) => Oracle::Close {
                want: pr::seq::rank(&p),
                abs: 1e-312,
                rel: 1e-12,
            },
            Input::Ring(r) => Oracle::Bits(ring_expected(&r)),
        }
    }

    /// Run the job once on the PPM runtime. `gather` asks CG for the full
    /// solution vector (set-up checks it); timed jobs skip that gather, as
    /// the figure sweeps do, so their makespan is the solve alone.
    pub fn run_ppm(
        &self,
        checker: bool,
        gather: bool,
        trace: Option<(&TraceSink, &str)>,
    ) -> Outcome {
        let cfg = self.config(checker);
        match self.input {
            Input::Cg(mut p) => {
                p.collect_x = gather;
                run_nodes(cfg, trace, move |node| cg_bits(cg::ppm::solve(node, &p).0))
            }
            Input::Bh(p) => run_nodes(cfg, trace, move |node| {
                body_bits(&bh::ppm::simulate(node, &p).0, false)
            }),
            Input::Pr(p) => run_nodes(cfg, trace, move |node| f64_bits(pr::ppm::rank(node, &p).0)),
            Input::Ring(r) => run_nodes(cfg, trace, move |node| ring_body(node, &r)),
        }
    }

    /// Same job with the tile budget lifted: the in-core reference the
    /// streamed run must equal bit for bit.
    pub fn in_core(&self) -> Job {
        Job {
            tile_budget: 0,
            ..*self
        }
    }

    pub fn is_streamed(&self) -> bool {
        self.tile_budget > 0
    }

    /// Run the MPI-style baseline on the same input; returns its simulated
    /// makespan and rank 0's result bits. `None` for the ring: message
    /// passing has no failover, so there is no same-work baseline to
    /// compare against.
    pub fn run_mps(&self) -> Option<(SimTime, Vec<u64>)> {
        let machine = MachineConfig::franklin(self.nodes);
        Some(match self.input {
            Input::Cg(p) => first(ppm_mps::run(machine, move |c| {
                cg_bits(cg::mpi::solve(c, &p.without_x()).0)
            })),
            Input::Bh(p) => first(ppm_mps::run(machine, move |c| {
                body_bits(&bh::mpi::simulate(c, &p).0, false)
            })),
            Input::Pr(p) => first(ppm_mps::run(machine, move |c| {
                f64_bits(pr::mpi::rank(c, &p).0)
            })),
            Input::Ring(_) => return None,
        })
    }

    /// Check an outcome against the oracle and the workload's own rules.
    pub fn verify(&self, oracle: &Oracle, out: &Outcome) -> Result<(), String> {
        if out.violations > 0 {
            return Err(format!("{} conformance violations", out.violations));
        }
        check_bits(oracle, &out.bits)?;
        if let Some(r) = self.ring() {
            let c = &out.counters;
            if c.failovers != 1 || c.peers_confirmed_dead != r.nodes as u64 - 1 {
                return Err(format!(
                    "death of rank {} not handled: failovers {} confirmed_dead {}",
                    r.victim, c.failovers, c.peers_confirmed_dead
                ));
            }
        }
        if self.is_streamed() && out.counters.tile_refills == 0 {
            return Err("the streamed run never streamed".to_string());
        }
        Ok(())
    }
}

/// `PpmConfig::franklin(nodes)` (4 cores per node) with every
/// environment-driven knob pinned: one host thread, checker off, read
/// cache, wave pipelining and sparse tokens on, adaptive balance,
/// replication and streaming off.
pub fn pinned(nodes: u32) -> PpmConfig {
    PpmConfig::franklin(nodes)
        .with_checker(false)
        .with_host_threads(1)
        .with_read_cache(true)
        .with_wave_pipelining(true)
        .with_adaptive_balance(false)
        .with_sparse_tokens(true)
        .with_replication(false)
        .with_tile_budget(0)
}

fn wire<T: Default + ppm_simnet::WireSize>() -> u64 {
    T::default().wire_size() as u64
}

fn f64_bits(v: Vec<f64>) -> Vec<u64> {
    v.into_iter().map(f64::to_bits).collect()
}

fn cg_bits(out: cg::CgOutcome) -> Vec<u64> {
    let mut bits = vec![out.rr.to_bits(), out.iters_done as u64];
    bits.extend(f64_bits(out.x));
    bits
}

fn first(mut report: ppm_simnet::JobReport<Vec<u64>>) -> (SimTime, Vec<u64>) {
    (report.makespan(), report.results.swap_remove(0))
}

fn close(got: &[u64], want: &[f64], abs: f64, rel: f64) -> Result<(), String> {
    if want.len() != got.len() {
        return Err(format!("length {} vs oracle {}", got.len(), want.len()));
    }
    let miss = want
        .iter()
        .zip(got)
        .map(|(w, g)| ((f64::from_bits(*g) - w).abs(), rel * w.abs() + abs))
        // NaN compares false with everything, so it must count as a miss.
        .find(|(err, tol)| err.is_nan() || err > tol);
    match miss {
        None => Ok(()),
        Some((err, tol)) => Err(format!("error {err:e} exceeds tolerance {tol:e}")),
    }
}

pub fn check_bits(oracle: &Oracle, bits: &[u64]) -> Result<(), String> {
    match oracle {
        Oracle::Bits(want) if want.as_slice() == bits => Ok(()),
        Oracle::Bits(_) => Err("result bits differ from the oracle".to_string()),
        Oracle::Close { want, abs, rel } => close(bits, want, *abs, *rel),
        // The rules of cg_versions.rs: ‖r‖² within 1e-9·(1 + ‖r‖²),
        // max |Δx| < 1e-8.
        Oracle::Cg(want) => {
            let [rr, iters, x @ ..] = bits else {
                return Err("CG result too short".to_string());
            };
            close(&[*rr], &[want.rr], 1e-9 * (1.0 + want.rr), 0.0)?;
            if *iters != want.iters_done as u64 {
                return Err(format!("{iters} iterations vs {}", want.iters_done));
            }
            if x.is_empty() {
                Ok(())
            } else {
                close(x, &want.x, 1e-8, 0.0)
            }
        }
    }
}

/// Positions (the apps' bit-equality rule) or the full state (input hash).
fn body_bits(bodies: &[Body], all_fields: bool) -> Vec<u64> {
    bodies
        .iter()
        .flat_map(|b| {
            let pos = [b.x, b.y, b.z];
            let rest = [b.vx, b.vy, b.vz, b.mass];
            pos.into_iter()
                .chain(rest.into_iter().filter(move |_| all_fields))
        })
        .map(f64::to_bits)
        .collect()
}

/// Run `body` on every node; fold the report into an [`Outcome`].
fn run_nodes<F>(cfg: PpmConfig, trace: Option<(&TraceSink, &str)>, body: F) -> Outcome
where
    F: Fn(&mut NodeCtx<'_>) -> Vec<u64> + Send + Sync,
{
    let per_node = move |node: &mut NodeCtx<'_>| {
        let bits = body(node);
        let hash = fnv1a(&bits);
        let keep = (node.node_id() == 0).then_some(bits);
        (
            hash,
            keep,
            node.take_violations().len(),
            node.peak_bytes_resident(),
        )
    };
    let mut report = match trace {
        Some((sink, label)) => ppm_core::run_traced(cfg, sink, label, per_node),
        None => ppm_core::run(cfg, per_node),
    };
    let hash = report.results[0].0;
    for (i, r) in report.results.iter().enumerate() {
        assert_eq!(r.0, hash, "node {i} disagrees on the final state");
    }
    let makespan = report.makespan();
    Outcome {
        bits: report.results[0].1.take().expect("node 0 keeps its result"),
        hash,
        makespan,
        counters: report.total_counters(),
        crit: *report
            .clocks
            .iter()
            .find(|c| c.now() == makespan)
            .expect("some node finished last"),
        peak_resident: report.results.iter().map(|r| r.3).sum(),
        violations: report.results.iter().map(|r| r.2).sum(),
    }
}

/// The `large_n` predecessor-read ring: every node owns one element; each
/// phase every VP reads the predecessor's element, rank 0 adds it into a
/// shared sum and rewrites the node's own element.
fn ring_body(node: &mut NodeCtx<'_>, r: &RingParams) -> Vec<u64> {
    let (n, rounds) = (r.nodes, r.rounds);
    let a = node.alloc_global::<u64>(n);
    let acc = node.alloc_global::<u64>(1);
    let me = node.node_id();
    node.with_local_mut(&a, |s| s[0] = me as u64 + 1);
    node.ppm_do(r.vps, move |vp| async move {
        let rank = vp.node_rank();
        for round in 0..rounds {
            vp.global_phase(|ph| async move {
                let v = ph.get(&a, (me + n - 1) % n).await;
                if rank == 0 {
                    ph.accumulate(&acc, 0, AccumOp::Add, v);
                    ph.put(&a, me, me as u64 + 1 + round);
                }
            })
            .await;
        }
    });
    let mut bits = node.gather_global(&a);
    bits.push(node.gather_global(&acc)[0]);
    bits
}

/// Closed form of the ring's final state (needs ≥ 2 rounds): element `i`
/// holds `i + rounds`, and the sum holds the values read in the last
/// round — a combining write replaces, it does not add to the old value.
fn ring_expected(r: &RingParams) -> Vec<u64> {
    assert!(r.rounds >= 2);
    let n = r.nodes as u64;
    let mut bits: Vec<u64> = (0..n).map(|i| i + r.rounds).collect();
    bits.push((0..n).map(|i| i + r.rounds - 1).sum());
    bits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_unique() {
        for w in ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{} why too long", w.name());
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn default_seed_kills_the_large_n_victim() {
        let r = Workload::RingFailover
            .job(DEFAULT_SEED, false)
            .ring()
            .unwrap();
        assert_eq!((r.nodes, r.vps, r.rounds, r.victim), (256, 8, 48, 191));
    }

    #[test]
    fn seed_changes_seeded_inputs_only() {
        for w in ALL {
            let a = w.job(DEFAULT_SEED, true).input_hash();
            let b = w.job(DEFAULT_SEED + 1, true).input_hash();
            let seeded = !matches!(w, Workload::CgHalo | Workload::CgStreamed);
            assert_eq!(a != b, seeded, "{}", w.name());
            assert_eq!(
                a,
                w.job(DEFAULT_SEED, true).input_hash(),
                "same seed, same inputs"
            );
        }
    }

    #[test]
    fn ring_victims_stay_in_the_upper_half() {
        for seed in 0..64 {
            let r = Workload::RingFailover.job(seed, false).ring().unwrap();
            assert!((128..256).contains(&r.victim));
        }
    }

    #[test]
    fn streamed_budget_is_an_eighth_of_the_in_core_vectors() {
        let j = Workload::CgStreamed.job(DEFAULT_SEED, false);
        assert_eq!((j.nodes, j.tile_budget), (64, 16 << 10));
        assert!(!j.in_core().is_streamed());
    }

    #[test]
    fn tolerance_check_flags_the_first_miss() {
        let o = Oracle::Close {
            want: vec![1.0, 2.0],
            abs: 1e-8,
            rel: 0.0,
        };
        assert!(check_bits(&o, &[1.0f64.to_bits(), 2.0f64.to_bits()]).is_ok());
        assert!(check_bits(&o, &[1.0f64.to_bits(), 2.1f64.to_bits()]).is_err());
        assert!(check_bits(&o, &[1.0f64.to_bits(), f64::NAN.to_bits()]).is_err());
        assert!(check_bits(&o, &[1.0f64.to_bits()]).is_err());
        assert!(check_bits(&Oracle::Bits(vec![1, 2]), &[1, 2]).is_ok());
        assert!(check_bits(&Oracle::Bits(vec![1, 2]), &[1, 3]).is_err());
    }
}
