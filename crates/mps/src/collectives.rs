//! The collectives of [`Comm`]: the algorithms of [`ppm_simnet::coll`],
//! run over `Comm`'s point-to-point layer so that their simulated cost
//! emerges from the network model — a step to a rank on the same node takes
//! the shared-memory path, an off-node step shares the NIC with the node's
//! other cores, exactly as a user message to that peer would.
//!
//! Steps travel in the collective half of the tag space ([`tags`]) through
//! a private [`Transport`], so user code can neither send nor receive one.

use std::any::Any;

use ppm_simnet::coll::{self, Transport};
use ppm_simnet::WireSize;

use crate::comm::Comm;
use crate::tags;

/// `Comm` as a collective transport.
struct Steps<'c, 'a>(&'c mut Comm<'a>);

impl Transport for Steps<'_, '_> {
    fn rank(&self) -> usize {
        self.0.rank()
    }

    fn size(&self) -> usize {
        self.0.size()
    }

    fn next_seq(&mut self) -> u64 {
        self.0.coll_seq += 1;
        self.0.coll_seq - 1
    }

    fn send_step<T: Any + Send + WireSize>(&mut self, dst: usize, seq: u64, step: u32, value: T) {
        self.0.send_raw(dst, tags::collective(seq, step), value);
    }

    fn recv_step<T: Any + Send>(&mut self, src: usize, seq: u64, step: u32) -> T {
        self.0.recv_raw(src, tags::collective(seq, step))
    }

    fn barrier_done(&mut self) {
        self.0.note_barrier();
    }
}

impl Comm<'_> {
    /// Dissemination barrier across all ranks ([`coll::barrier`]).
    pub fn barrier(&mut self) {
        coll::barrier(&mut Steps(self));
    }

    /// Broadcast `value` from `root` (only the root's `Some` is used) to all
    /// ranks ([`coll::bcast`]).
    pub fn bcast<T>(&mut self, root: usize, value: Option<T>) -> T
    where
        T: Any + Send + Clone + WireSize,
    {
        coll::bcast(&mut Steps(self), root, value)
    }

    /// Reduce every rank's `value` with `op` onto `root`; non-roots get
    /// `None` ([`coll::reduce`]).
    pub fn reduce<T, F>(&mut self, root: usize, value: T, op: F) -> Option<T>
    where
        T: Any + Send + WireSize,
        F: Fn(T, T) -> T,
    {
        coll::reduce(&mut Steps(self), root, value, op)
    }

    /// Reduction whose result every rank receives ([`coll::allreduce`]).
    pub fn allreduce<T, F>(&mut self, value: T, op: F) -> T
    where
        T: Any + Send + Clone + WireSize,
        F: Fn(T, T) -> T,
    {
        coll::allreduce(&mut Steps(self), value, op)
    }

    /// Exclusive prefix combine: rank r gets `op` over ranks `0..r`
    /// (`None` on rank 0; [`coll::exscan`]).
    pub fn exscan<T, F>(&mut self, value: T, op: F) -> Option<T>
    where
        T: Any + Send + Clone + WireSize,
        F: Fn(T, T) -> T,
    {
        coll::exscan(&mut Steps(self), value, op)
    }

    /// Inclusive prefix combine: rank r gets `op` over ranks `0..=r`
    /// ([`coll::scan`]).
    pub fn scan<T, F>(&mut self, value: T, op: F) -> T
    where
        T: Any + Send + Clone + WireSize,
        F: Fn(T, T) -> T,
    {
        coll::scan(&mut Steps(self), value, op)
    }

    /// Gather every rank's `value` onto `root`, ordered by rank
    /// ([`coll::gather`]).
    pub fn gather<T>(&mut self, root: usize, value: T) -> Option<Vec<T>>
    where
        T: Any + Send + WireSize,
    {
        coll::gather(&mut Steps(self), root, value)
    }

    /// Gather whose result every rank receives ([`coll::allgather`]).
    pub fn allgather<T>(&mut self, value: T) -> Vec<T>
    where
        T: Any + Send + Clone + WireSize,
    {
        coll::allgather(&mut Steps(self), value)
    }

    /// Variable-size all-to-all: `sends[d]` goes to rank `d`; the result's
    /// slot `s` holds what rank `s` sent here ([`coll::alltoallv`]).
    pub fn alltoallv<T>(&mut self, sends: Vec<Vec<T>>) -> Vec<Vec<T>>
    where
        T: Any + Send + WireSize,
    {
        coll::alltoallv(&mut Steps(self), sends)
    }
}

#[cfg(test)]
mod tests {
    use crate::run;
    use ppm_simnet::MachineConfig;

    /// Machine shapes exercised by every collective test: single node,
    /// power-of-two and non-power-of-two rank counts, multi-core nodes.
    fn shapes() -> Vec<MachineConfig> {
        vec![
            MachineConfig::new(1, 1),
            MachineConfig::new(1, 4),
            MachineConfig::new(3, 1),
            MachineConfig::new(2, 4),
            MachineConfig::new(5, 3),
        ]
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        for cfg in shapes() {
            let report = run(cfg, |comm| {
                // Skew the ranks, then meet at the barrier.
                comm.charge_flops(1_000 * (comm.rank() as u64 + 1));
                let before_max = comm.config().core.flops(1_000 * comm.size() as u64);
                comm.barrier();
                (comm.now(), before_max)
            });
            for (now, before_max) in &report.results {
                assert!(
                    now >= before_max,
                    "rank clock {now} must pass the slowest pre-barrier clock {before_max}"
                );
            }
        }
    }

    #[test]
    fn bcast_delivers_root_value() {
        for cfg in shapes() {
            let p = cfg.total_cores() as usize;
            for root in [0, p - 1, p / 2] {
                let report = run(cfg, |comm| {
                    let v = if comm.rank() == root {
                        Some(vec![root as u64, 42])
                    } else {
                        None
                    };
                    comm.bcast(root, v)
                });
                for r in report.results {
                    assert_eq!(r, vec![root as u64, 42]);
                }
            }
        }
    }

    #[test]
    fn reduce_sums_ranks() {
        for cfg in shapes() {
            let p = cfg.total_cores() as usize;
            let expect = (p * (p - 1) / 2) as u64;
            let report = run(cfg, |comm| comm.reduce(0, comm.rank() as u64, |a, b| a + b));
            assert_eq!(report.results[0], Some(expect));
            for r in &report.results[1..] {
                assert_eq!(*r, None);
            }
        }
    }

    #[test]
    fn allreduce_min_and_sum() {
        for cfg in shapes() {
            let p = cfg.total_cores() as usize;
            let report = run(cfg, |comm| {
                let sum = comm.allreduce(comm.rank() as u64 + 1, |a, b| a + b);
                let min = comm.allreduce(comm.rank() as i64 - 5, i64::min);
                (sum, min)
            });
            for (sum, min) in report.results {
                assert_eq!(sum, (p * (p + 1) / 2) as u64);
                assert_eq!(min, -5);
            }
        }
    }

    #[test]
    fn scan_and_exscan_prefixes() {
        for cfg in shapes() {
            let report = run(cfg, |comm| {
                let inc = comm.scan(comm.rank() as u64 + 1, |a, b| a + b);
                let exc = comm.exscan(comm.rank() as u64 + 1, |a, b| a + b);
                (inc, exc)
            });
            for (r, (inc, exc)) in report.results.iter().enumerate() {
                let expect_inc = ((r + 1) * (r + 2) / 2) as u64;
                assert_eq!(*inc, expect_inc, "inclusive scan at rank {r}");
                let expect_exc = if r == 0 {
                    None
                } else {
                    Some((r * (r + 1) / 2) as u64)
                };
                assert_eq!(*exc, expect_exc, "exclusive scan at rank {r}");
            }
        }
    }

    #[test]
    fn gather_and_allgather_order_by_rank() {
        for cfg in shapes() {
            let p = cfg.total_cores() as usize;
            let report = run(cfg, |comm| {
                let g = comm.gather(1 % p, comm.rank() as u64 * 3);
                let ag = comm.allgather(comm.rank() as u64 * 3);
                (g, ag)
            });
            let expect: Vec<u64> = (0..p as u64).map(|r| r * 3).collect();
            for (r, (g, ag)) in report.results.into_iter().enumerate() {
                assert_eq!(ag, expect);
                if r == 1 % p {
                    assert_eq!(g, Some(expect.clone()));
                } else {
                    assert_eq!(g, None);
                }
            }
        }
    }

    #[test]
    fn alltoallv_routes_every_list() {
        for cfg in shapes() {
            let p = cfg.total_cores() as usize;
            let report = run(cfg, |comm| {
                let me = comm.rank();
                // Send to rank d a list [me, d] of length (d % 3).
                let sends: Vec<Vec<u64>> =
                    (0..p).map(|d| vec![(me * 100 + d) as u64; d % 3]).collect();
                comm.alltoallv(sends)
            });
            for (me, recvs) in report.results.into_iter().enumerate() {
                assert_eq!(recvs.len(), p);
                for (s, list) in recvs.into_iter().enumerate() {
                    assert_eq!(list, vec![(s * 100 + me) as u64; me % 3]);
                }
            }
        }
    }

    #[test]
    fn collectives_compose_without_tag_collisions() {
        let report = run(MachineConfig::new(2, 2), |comm| {
            let mut acc = 0u64;
            for i in 0..10 {
                acc += comm.allreduce(i + comm.rank() as u64, |a, b| a + b);
                comm.barrier();
            }
            acc
        });
        // sum over i of (4i + 0+1+2+3) = 4*45/... : per round 4i+6.
        let expect: u64 = (0..10).map(|i| 4 * i + 6).sum();
        for r in report.results {
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn determinism_bit_identical_runs() {
        let go = || {
            run(MachineConfig::new(3, 2), |comm| {
                let x = comm.allreduce(0.1 * (comm.rank() as f64 + 1.0), |a, b| a + b);
                comm.barrier();
                let y = comm.scan(x, |a, b| a + b);
                (x.to_bits(), y.to_bits(), comm.now())
            })
        };
        let a = go();
        let b = go();
        assert_eq!(a.results, b.results);
        assert_eq!(a.makespan(), b.makespan());
    }
}
