//! Job runner: one OS thread per simulated endpoint.
//!
//! An *endpoint* is whatever unit of the machine the layer above schedules —
//! one per node for the PPM runtime, one per core-rank for the MPI-like
//! substrate. Endpoints execute real Rust code concurrently and exchange
//! real data through the router; *simulated* time is tracked on each
//! endpoint's [`Clock`] and is what experiments report, so host parallelism
//! (or the lack of it) never affects results.

use crate::clock::Clock;
use crate::config::{MachineConfig, Route};
use crate::router::{make_router, Endpoint};
use crate::stats::Counters;
use crate::time::SimTime;
use crate::trace::{TraceSink, Tracer};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// What one endpoint's thread hands back: its result, clock and counters,
/// or its panic and whether the router ended it as a deadlock.
type Outcome<R> = Result<(R, Clock, Counters), (bool, Box<dyn Any + Send>)>;

/// Mutable per-endpoint state handed to the job closure.
pub struct EndpointCtx {
    /// Transport handle.
    pub net: Endpoint,
    /// Simulated clock.
    pub clock: Clock,
    /// Event counters.
    pub counters: Counters,
    /// Machine description.
    pub config: MachineConfig,
    /// Trace event recorder (a no-op unless the job was started through
    /// [`run_traced`]). Recording charges no simulated time and touches no
    /// counters, so traced and untraced runs are bit-identical.
    pub tracer: Tracer,
}

impl EndpointCtx {
    /// Endpoint id.
    #[inline]
    pub fn id(&self) -> usize {
        self.net.id()
    }

    /// Number of endpoints in the job.
    #[inline]
    pub fn num_endpoints(&self) -> usize {
        self.net.len()
    }

    /// Send half of the LogGP message step: pay the sender's overhead `o`
    /// and return the arrival instant, `now + L + G·bytes` (the shared-memory
    /// path on an intra-node `route`), for [`Message::ts`]. Counting the
    /// message is the caller's.
    ///
    /// [`Message::ts`]: crate::Message
    #[inline]
    pub fn charge_send(&mut self, route: Route, bytes: usize) -> SimTime {
        let net = self.config.net;
        self.clock.advance_comm(net.send_cpu(bytes, route.intra));
        self.clock.now() + net.wire_time(bytes, route.intra, route.nic_share)
    }

    /// Receive half of the LogGP message step: wait for the message's
    /// `arrival` instant, then pay the receiver's overhead `o`.
    #[inline]
    pub fn charge_recv(&mut self, route: Route, bytes: usize, arrival: SimTime) {
        self.clock.wait_until(arrival);
        let o = self.config.net.recv_cpu(bytes, route.intra);
        self.clock.advance_comm(o);
    }
}

/// Outcome of a simulated job.
#[derive(Debug)]
pub struct JobReport<R> {
    /// Per-endpoint return values, indexed by endpoint id.
    pub results: Vec<R>,
    /// Per-endpoint final clocks.
    pub clocks: Vec<Clock>,
    /// Per-endpoint counters.
    pub counters: Vec<Counters>,
}

impl<R> JobReport<R> {
    /// Job completion time: the latest endpoint clock.
    pub fn makespan(&self) -> SimTime {
        self.clocks
            .iter()
            .map(Clock::now)
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Sum of all endpoints' counters.
    pub fn total_counters(&self) -> Counters {
        self.counters
            .iter()
            .fold(Counters::default(), |acc, c| acc.merge(c))
    }
}

/// Run a job of `n` endpoints. The closure receives each endpoint's context
/// and runs on its own OS thread; a panic on any endpoint fails the job.
///
/// The job re-raises one endpoint's panic with its original payload: the
/// lowest id's that is not a deadlock report, or the lowest id's if every
/// panic is one. A panic drops its endpoint, which can leave the endpoints
/// waiting on it deadlocked; their reports would hide the cause.
pub fn run<R, F>(n: usize, config: MachineConfig, f: F) -> JobReport<R>
where
    R: Send,
    F: Fn(&mut EndpointCtx) -> R + Send + Sync,
{
    run_traced(n, config, None, f)
}

/// [`run`], optionally recording trace events. When `trace` is
/// `Some((sink, label))` the job is registered on the sink as one trace
/// process (`pid`) named `label`, and every endpoint gets an enabled
/// [`Tracer`] publishing to its own per-node track. Multiple jobs may share
/// one sink (e.g. a bench sweep) and render as separate process groups.
pub fn run_traced<R, F>(
    n: usize,
    config: MachineConfig,
    trace: Option<(&TraceSink, &str)>,
    f: F,
) -> JobReport<R>
where
    R: Send,
    F: Fn(&mut EndpointCtx) -> R + Send + Sync,
{
    let job = trace.map(|(sink, label)| (sink.clone(), sink.begin_job(label, n as u32)));
    let endpoints = make_router(n);
    let f = &f;
    let job = &job;
    let outcomes: Vec<Outcome<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|net| {
                let tracer = match job {
                    Some((sink, pid)) => sink.tracer(*pid, net.id() as u32),
                    None => Tracer::disabled(),
                };
                scope.spawn(move || {
                    let mut ctx = EndpointCtx {
                        net,
                        clock: Clock::new(),
                        counters: Counters::default(),
                        config,
                        tracer,
                    };
                    match catch_unwind(AssertUnwindSafe(|| f(&mut ctx))) {
                        Ok(r) => Ok((r, ctx.clock, ctx.counters)),
                        Err(panic) => Err((ctx.net.ended_in_deadlock(), panic)),
                    }
                })
            })
            .collect();
        (handles.into_iter())
            .map(|h| h.join().unwrap_or_else(|e| resume_unwind(e)))
            .collect()
    });

    let (done, panics): (Vec<_>, Vec<_>) = outcomes.into_iter().partition(Result::is_ok);
    // `min_by_key` keeps the first of equal keys: the lowest id.
    let cause = panics.into_iter().filter_map(Result::err);
    if let Some((_, panic)) = cause.min_by_key(|&(deadlock, _)| deadlock) {
        resume_unwind(panic);
    }
    let (results, clocks, counters) = done.into_iter().flatten().collect();
    JobReport {
        results,
        clocks,
        counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;

    #[test]
    fn endpoints_run_and_return_in_order() {
        let report = run(4, MachineConfig::franklin(4), |ctx| ctx.id() * 10);
        assert_eq!(report.results, vec![0, 10, 20, 30]);
    }

    #[test]
    fn makespan_is_max_clock() {
        let report = run(3, MachineConfig::franklin(3), |ctx| {
            ctx.clock
                .advance_compute(SimTime::from_ns(100 * (ctx.id() as u64 + 1)));
        });
        assert_eq!(report.makespan(), SimTime::from_ns(300));
    }

    #[test]
    fn ring_exchange() {
        let n = 4;
        let report = run(n, MachineConfig::franklin(n as u32), |ctx| {
            let me = ctx.id();
            let next = (me + 1) % ctx.num_endpoints();
            ctx.net
                .send(Message::new(me, next, 0, SimTime::ZERO, 8, me as u64));
            ctx.counters.msgs_sent += 1;
            let m = ctx.net.recv();
            ctx.counters.msgs_recv += 1;
            m.take::<u64>()
        });
        // endpoint i receives from its predecessor
        assert_eq!(report.results, vec![3, 0, 1, 2]);
        let totals = report.total_counters();
        assert_eq!(totals.msgs_sent, 4);
        assert_eq!(totals.msgs_recv, 4);
    }

    #[test]
    fn the_message_step_charges_loggp_terms() {
        let cfg = MachineConfig::franklin(2);
        let net = cfg.net;
        let (l, g) = (net.latency, net.gap_per_byte.scale(1000));
        // (route, cost bytes, overhead at each end, wire time)
        let cases = [
            (Route::NODE, 1000, net.overhead, l + g),
            (cfg.route(1, 6), 1000, net.overhead, l + g.scale(4)),
            (
                cfg.route(1, 2),
                1000,
                net.intra_overhead,
                net.intra_gap_per_byte.scale(1000),
            ),
            (Route::NODE, 0, net.overhead, l),
        ];
        assert_eq!(cfg.route(1, 6).nic_share, 4);
        run(1, cfg, |ctx| {
            ctx.clock.advance_compute(SimTime::from_ns(7));
            for (route, bytes, o, wire) in cases {
                let t0 = ctx.clock.now();
                let arrival = ctx.charge_send(route, bytes);
                assert_eq!(ctx.clock.now(), t0 + o);
                assert_eq!(arrival, t0 + o + wire);
                ctx.charge_recv(route, bytes, arrival);
                assert_eq!(ctx.clock.now(), arrival + o);
                let c = ctx.clock;
                assert_eq!(c.compute() + c.comm() + c.wait(), c.now());
            }
        });
    }

    /// Node 1 panics while node 0 waits for it: node 1's drop leaves node 0
    /// deadlocked at once, and the job re-raises node 1's panic, the cause,
    /// not node 0's report.
    #[test]
    #[should_panic(expected = "boom")]
    fn a_job_reports_its_cause_not_its_waiters() {
        run(2, MachineConfig::new(2, 1), |ctx| {
            if ctx.id() == 1 {
                panic!("boom");
            }
            ctx.net.recv();
        });
    }

    #[test]
    fn single_endpoint_job() {
        let report = run(1, MachineConfig::new(1, 1), |_| "done");
        assert_eq!(report.results, vec!["done"]);
        assert_eq!(report.makespan(), SimTime::ZERO);
    }
}
