//! The metric registry: every name the benchmark prints, with its unit,
//! direction, and whether it is exact. `BENCHMARK.json` at the repo root
//! mirrors these tables (a unit test holds the two together).
//!
//! Two clocks, never mixed: a *sim* metric comes from the deterministic
//! simulated clock or an event counter and repeats exactly for one seed,
//! so two result files compare it for equality; a *host* metric is what
//! the machine running the simulator paid and is compared by median
//! against its bound.

use crate::stats::Better::{self, Higher, Lower};

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Deterministic for a given seed (the `sim` label).
    pub exact: bool,
    /// Share of the baseline median by which a host metric may worsen.
    pub bound: Option<f64>,
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        exact: false,
        bound: None,
    }
}

const fn sim(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        exact: true,
        bound: None,
    }
}

const fn bounded(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Lower,
        exact: false,
        bound: Some(bound),
    }
}

/// Simulated milliseconds get their own unit so no reader (or tool) takes
/// them for host time.
const SIM_MS: &str = "sim_ms";

/// End-to-end metrics with a regression bound (`BENCHMARK.json`
/// `end_to_end`). `MB` is 1e6 bytes.
pub const END_TO_END: [Metric; 4] = [
    bounded("setup_s", "s", 0.25),
    bounded("wall_s", "s", 0.25),
    bounded("cpu_s", "s", 0.25),
    bounded("peak_rss_mb", "MB", 0.25),
];

/// The two exact end-to-end metrics. They are end-to-end for a reader of
/// the paper, but the acceptance driver's `end_to_end` list is for noisy
/// non-zero values (it rejects a time that never changes and a metric
/// that is 0), so `BENCHMARK.json` carries them at the head of
/// `per_layer`; `--compare` still requires them to be equal.
pub const EXACT_END_TO_END: [Metric; 2] = [
    sim("sim_makespan_ms", SIM_MS, Lower),
    sim("fail_frac", "ratio", Lower),
];

/// Per-layer metrics derived from one traced run of the workload.
pub const WORKLOAD_LAYERS: [Metric; 45] = [
    // Simulated split: the last-finishing node's clock …
    sim("sim.crit_compute_ms", SIM_MS, Lower),
    sim("sim.crit_comm_ms", SIM_MS, Lower),
    sim("sim.crit_wait_ms", SIM_MS, Lower),
    // … and per-phase maxima across nodes, summed over phases (maxima
    // overlap: report, do not add).
    sim("sim.phase_compute_ms", SIM_MS, Lower),
    sim("sim.phase_service_ms", SIM_MS, Lower),
    sim("sim.phase_comm_ms", SIM_MS, Lower),
    sim("sim.phase_barrier_ms", SIM_MS, Lower),
    sim("sim.global_phases", "count", Lower),
    // Counters, summed over nodes.
    sim("simnet.msgs_sent", "count", Lower),
    sim("simnet.bytes_sent_mb", "MB", Lower),
    sim("core.bundles_sent", "count", Lower),
    sim("core.waves", "count", Lower),
    sim("core.remote_gets", "count", Lower),
    sim("core.remote_puts", "count", Lower),
    sim("core.local_accesses", "count", Lower),
    sim("core.cache_hits", "count", Higher),
    sim("core.cache_misses", "count", Lower),
    sim("core.dedup_reads", "count", Higher),
    sim("core.partial_wakes", "count", Higher),
    sim("core.barriers", "count", Lower),
    sim("core.tile_spills", "count", Lower),
    sim("core.tile_refills", "count", Lower),
    sim("core.peak_resident_kb", "kB", Lower),
    sim("core.failovers", "count", Lower),
    sim("core.replica_mb", "MB", Lower),
    sim("core.acks_sent", "count", Lower),
    sim("apps.flops", "count", Lower),
    sim("apps.mem_ops", "count", Lower),
    sim("core.cache_hit_ratio", "ratio", Higher),
    sim("core.accesses_per_bundle", "ratio", Higher),
    // Baselines on the same input.
    sim("mps.sim_makespan_ms", SIM_MS, Lower),
    sim("sim.ppm_over_mpi", "ratio", Lower),
    host("apps.seq_s", "s", Lower),
    host("mps.wall_s", "s", Lower),
    // Host cost, seen from outside the runtime.
    host("host.ns_per_access", "ns", Lower),
    host("host.us_per_node_phase", "us", Lower),
    host("host.cpu_over_wall", "ratio", Lower),
    host("host.allocs", "count", Lower),
    host("host.alloc_mb", "MB", Lower),
    host("host.rss_over_modeled", "ratio", Lower),
    host("host.trace_overhead", "ratio", Lower),
    sim("host.trace_events", "count", Lower),
    host("host.slowdown_vs_seq", "ratio", Lower),
    host("host.noise_index", "ratio", Lower),
    host("host.speed_index", "ratio", Higher),
];

/// The values that need an MPI-style baseline on the same work. The ring
/// has none (message passing has no failover) and does not report them.
pub const MPS_BASELINE: [&str; 3] = ["mps.sim_makespan_ms", "sim.ppm_over_mpi", "mps.wall_s"];

/// Layer probes (`probes.rs`), workload-independent.
pub const PROBES: [Metric; 27] = [
    host("simnet.cluster.spawn_join_us_per_ep", "us", Lower),
    host("simnet.router.pingpong_ns", "ns", Lower),
    host("simnet.router.fanin_msgs_per_s", "1/s", Higher),
    host("simnet.trace.span_ns", "ns", Lower),
    host("simnet.trace.export_mb_per_s", "MB/s", Higher),
    host("mps.collectives.allreduce_us", "us", Lower),
    host("mps.collectives.alltoallv_us", "us", Lower),
    host("core.exec.empty_global_phase_us", "us", Lower),
    host("core.exec.empty_global_phase_us_n256", "us", Lower),
    host("core.nodecoll.node_phase_us", "us", Lower),
    host("core.vp.local_get_ns", "ns", Lower),
    host("core.vp.get_many_ns", "ns", Lower),
    host("core.state.remote_get_ns", "ns", Lower),
    host("core.state.dedup_get_ns", "ns", Lower),
    host("core.state.cached_get_ns", "ns", Lower),
    host("core.state.remote_put_ns", "ns", Lower),
    host("core.state.accumulate_ns", "ns", Lower),
    host("core.util.reduce_global_us", "us", Lower),
    host("core.state.tile_fault_us", "us", Lower),
    host("core.check.overhead_ratio", "ratio", Lower),
    host("core.reliable.overhead_ratio", "ratio", Lower),
    host("core.exec.replication_overhead_ratio", "ratio", Lower),
    host("core.exec.pool_speedup", "ratio", Higher),
    host("core.bitset.or_ns_1024", "ns", Lower),
    host("core.dist.owner_ns", "ns", Lower),
    host("apps.stencil27.rows_per_s", "1/s", Higher),
    host("apps.stencil27.csr_block_rows_per_s", "1/s", Higher),
];

/// `BENCHMARK.json` `per_layer`, in order; `probes: false` leaves the
/// workload-independent tail out.
pub fn per_layer(probes: bool) -> impl Iterator<Item = &'static Metric> {
    let probes: &[Metric] = if probes { &PROBES } else { &[] };
    EXACT_END_TO_END
        .iter()
        .chain(&WORKLOAD_LAYERS)
        .chain(probes)
}

/// Look a metric up by name in every table.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(per_layer(true))
        .find(|m| m.name == name)
}

impl Metric {
    pub fn clock(&self) -> &'static str {
        if self.exact {
            "sim"
        } else {
            "host"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::workloads::ALL;

    fn contract() -> Json {
        json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(per_layer(true))
            .map(|m| m.name)
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(per_layer(true).count() <= 128);
    }

    #[test]
    fn benchmark_json_mirrors_the_registry() {
        let c = contract();
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            c.get(key)
                .expect(key)
                .arr()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::str).expect(k).to_string();
                    (
                        s("name"),
                        s("unit"),
                        s("better"),
                        m.get("bound").and_then(Json::num),
                    )
                })
                .collect()
        };
        let row = |m: &Metric| {
            let better = match m.better {
                Lower => "lower",
                Higher => "higher",
            };
            (
                m.name.to_string(),
                m.unit.to_string(),
                better.to_string(),
                m.bound,
            )
        };
        assert_eq!(
            listed("end_to_end"),
            END_TO_END.iter().map(row).collect::<Vec<_>>()
        );
        assert_eq!(
            listed("per_layer"),
            per_layer(true).map(row).collect::<Vec<_>>()
        );
    }

    #[test]
    fn benchmark_json_lists_the_five_workloads() {
        let c = contract();
        let listed: Vec<(&str, &str)> = c
            .get("workloads")
            .unwrap()
            .arr()
            .iter()
            .map(|w| {
                (
                    w.get("name").unwrap().str().unwrap(),
                    w.get("why").unwrap().str().unwrap(),
                )
            })
            .collect();
        let ours: Vec<(&str, &str)> = ALL.iter().map(|w| (w.name(), w.why())).collect();
        assert_eq!(listed, ours);
    }
}
