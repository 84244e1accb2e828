//! Collective algorithms, written once for every runtime that runs them:
//! the MPI-like ranks of `ppm-mps` and the PPM node runtimes of `ppm-core`.
//!
//! Each collective is a real message algorithm over a [`Transport`], so its
//! simulated cost *emerges* from what the transport charges per step
//! instead of being asserted analytically:
//!
//! * [`barrier`] — dissemination (⌈log₂ P⌉ rounds, [`dissemination`])
//! * [`bcast`] / [`reduce`] / [`gather`] — binomial trees
//! * [`allreduce`] / [`allgather`] — reduce + bcast / gather + bcast, via 0
//! * [`exscan`] / [`scan`] — Hillis–Steele recursive doubling
//! * [`alltoallv`] — pairwise exchange (P − 1 rounds)
//!
//! One algorithm, separate costs per level (Task & Chauhan's model of
//! multicore clusters): a transport decides only its tag space, what a step
//! costs — the intra-node path and NIC sharing for ranks, the reliable
//! transport for nodes — and what a receiver does while it waits. Trees are
//! fixed, so combines happen in a deterministic order and repeated runs are
//! bit-identical.
//!
//! The dissemination pattern is defined here too: the PPM runtime's phase
//! end walks the same edges for its clock barrier and source-routes sender
//! notices, refresh pushes and failover frames over them
//! ([`Edge::carries`]).

use std::any::Any;

use crate::wire::WireSize;

/// One round of the dissemination pattern, seen from one endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Round number, from 0.
    pub round: u32,
    /// `2^round`.
    pub stride: usize,
    /// Where this round's message goes: `me + stride` (mod N).
    pub to: usize,
    /// Where this round's message comes from: `me − stride` (mod N).
    pub from: usize,
}

/// `me`'s edges, round by round: ⌈log₂ N⌉ rounds, none for a lone endpoint.
pub fn dissemination(me: usize, nodes: usize) -> impl Iterator<Item = Edge> {
    (0u32..)
        .map(|round| (round, 1usize << round))
        .take_while(move |&(_, stride)| stride < nodes)
        .map(move |(round, stride)| Edge {
            round,
            stride,
            to: (me + stride) % nodes,
            from: (me + nodes - stride) % nodes,
        })
}

/// How far downstream of `holder` endpoint `dest` sits on the dissemination
/// edges. Its set bits are the rounds whose edge an item held at `holder`
/// and addressed to `dest` travels ([`Edge::carries`]), so `dest` is
/// `popcount` hops away.
#[inline]
pub fn route_offset(holder: usize, dest: usize, nodes: usize) -> usize {
    (dest + nodes - holder) % nodes
}

impl Edge {
    /// Source routing: whether an item held at `holder` and addressed to
    /// `dest` rides this round's edge out of `holder`. Every hop clears the
    /// offset's lowest set bit without wrapping (an offset with bit `r` set
    /// is at least `2^r`), so an item held at the start of round `r` has all
    /// offset bits below `r` clear, reaches `dest` exactly once, and nothing
    /// is left in transit after the last round — for any `nodes`, power of
    /// two or not.
    #[inline]
    pub fn carries(&self, holder: usize, dest: usize, nodes: usize) -> bool {
        route_offset(holder, dest, nodes) & self.stride != 0
    }
}

/// What a collective needs from the endpoint it runs on.
///
/// Every endpoint must run the same collectives in the same order:
/// [`next_seq`](Transport::next_seq) numbers them, and `(seq, step)` names
/// one message of one collective, so a step never matches another
/// collective's message — nor, if the transport keeps its tag spaces
/// apart, a user's.
pub trait Transport {
    /// This endpoint's index, `0..size()`.
    fn rank(&self) -> usize;
    /// Number of endpoints taking part.
    fn size(&self) -> usize;
    /// Number the collective about to start.
    fn next_seq(&mut self) -> u64;
    /// Send step `step` of collective `seq` to `dst`, charging the sender.
    fn send_step<T: Any + Send + WireSize>(&mut self, dst: usize, seq: u64, step: u32, value: T);
    /// Block until step `step` of collective `seq` arrives from `src`,
    /// charging the receiver.
    fn recv_step<T: Any + Send>(&mut self, src: usize, seq: u64, step: u32) -> T;
    /// Count a completed barrier.
    fn barrier_done(&mut self);
}

/// Dissemination barrier: no endpoint returns before every endpoint has
/// entered.
pub fn barrier(t: &mut impl Transport) {
    let seq = t.next_seq();
    for edge in dissemination(t.rank(), t.size()) {
        t.send_step(edge.to, seq, edge.round, ());
        let () = t.recv_step(edge.from, seq, edge.round);
    }
    t.barrier_done();
}

/// `(size, this endpoint's rank relative to root)`.
fn relative(t: &impl Transport, root: usize) -> (usize, usize) {
    let p = t.size();
    (p, (t.rank() + p - root) % p)
}

/// Broadcast the root's `value` to every endpoint via a binomial tree; the
/// other endpoints' `value`s are ignored.
///
/// # Panics
///
/// If the root passes `None`.
pub fn bcast<T>(t: &mut impl Transport, root: usize, value: Option<T>) -> T
where
    T: Any + Send + Clone + WireSize,
{
    let seq = t.next_seq();
    let (p, rel) = relative(t, root);
    // The root starts above the top of the tree; any other endpoint hangs
    // off it at the lowest set bit of its relative rank.
    let (v, mut mask) = if rel == 0 {
        let v = value
            .unwrap_or_else(|| panic!("bcast root {root} passed None: it must supply the value"));
        (v, p.next_power_of_two())
    } else {
        let low = rel & rel.wrapping_neg();
        (t.recv_step((root + rel - low) % p, seq, 0), low)
    };
    // Fan out to the subtree, largest child first.
    mask >>= 1;
    while mask > 0 {
        if rel + mask < p {
            t.send_step((root + rel + mask) % p, seq, 0, v.clone());
        }
        mask >>= 1;
    }
    v
}

/// Reduce every endpoint's `value` with `op` onto `root` via a binomial
/// tree; the others get `None`. The combine order is fixed: ranks in
/// ascending order starting at the root and wrapping —
/// `op(v[root], v[root+1], …, v[root−1])` — so `op` need only be
/// associative.
pub fn reduce<T, F>(t: &mut impl Transport, root: usize, value: T, op: F) -> Option<T>
where
    T: Any + Send + WireSize,
    F: Fn(T, T) -> T,
{
    let seq = t.next_seq();
    let (p, rel) = relative(t, root);
    let mut acc = value;
    let mut mask = 1usize;
    while mask < p {
        if rel & mask != 0 {
            t.send_step((root + rel - mask) % p, seq, 0, acc);
            return None;
        }
        if rel + mask < p {
            // The lower relative rank on the left.
            acc = op(acc, t.recv_step((root + rel + mask) % p, seq, 0));
        }
        mask <<= 1;
    }
    Some(acc)
}

/// Reduction whose result every endpoint receives: [`reduce`] onto 0, then
/// [`bcast`]. Combines in rank order.
pub fn allreduce<T, F>(t: &mut impl Transport, value: T, op: F) -> T
where
    T: Any + Send + Clone + WireSize,
    F: Fn(T, T) -> T,
{
    let r = reduce(t, 0, value, op);
    bcast(t, 0, r)
}

/// Exclusive prefix combine: rank `r` gets `op` over ranks `0..r` (`None`
/// on rank 0), by recursive doubling. Every combine is
/// `op(lower ranks, higher ranks)`, so `op` must be associative and need
/// not commute.
pub fn exscan<T, F>(t: &mut impl Transport, value: T, op: F) -> Option<T>
where
    T: Any + Send + Clone + WireSize,
    F: Fn(T, T) -> T,
{
    let seq = t.next_seq();
    let (p, me) = (t.size(), t.rank());
    let mut partial = value;
    let mut below: Option<T> = None;
    let mut d = 1usize;
    let mut step = 0u32;
    while d < p {
        if me + d < p {
            t.send_step(me + d, seq, step, partial.clone());
        }
        if me >= d {
            let v: T = t.recv_step(me - d, seq, step);
            below = Some(match below {
                None => v.clone(),
                Some(b) => op(v.clone(), b),
            });
            partial = op(v, partial);
        }
        d <<= 1;
        step += 1;
    }
    below
}

/// Inclusive prefix combine: rank `r` gets `op` over ranks `0..=r`
/// ([`exscan`], then this rank's own value on the right).
pub fn scan<T, F>(t: &mut impl Transport, value: T, op: F) -> T
where
    T: Any + Send + Clone + WireSize,
    F: Fn(T, T) -> T,
{
    match exscan(t, value.clone(), &op) {
        None => value,
        Some(below) => op(below, value),
    }
}

/// Gather every endpoint's `value` onto `root`, in rank order; the others
/// get `None`. A [`reduce`] that appends rank-labelled values.
pub fn gather<T>(t: &mut impl Transport, root: usize, value: T) -> Option<Vec<T>>
where
    T: Any + Send + WireSize,
{
    let me = t.rank() as u64;
    let append = |mut a: Vec<(u64, T)>, mut b: Vec<(u64, T)>| {
        a.append(&mut b);
        a
    };
    let mut all = reduce(t, root, vec![(me, value)], append)?;
    all.sort_by_key(|&(rank, _)| rank);
    Some(all.into_iter().map(|(_, v)| v).collect())
}

/// Gather whose result every endpoint receives: [`gather`] onto 0, then
/// [`bcast`].
pub fn allgather<T>(t: &mut impl Transport, value: T) -> Vec<T>
where
    T: Any + Send + Clone + WireSize,
{
    let g = gather(t, 0, value);
    bcast(t, 0, g)
}

/// Variable-size all-to-all by pairwise exchange: `sends[d]` goes to rank
/// `d`; slot `s` of the result holds what rank `s` sent here.
///
/// # Panics
///
/// If `sends` does not hold one list per rank.
pub fn alltoallv<T>(t: &mut impl Transport, mut sends: Vec<Vec<T>>) -> Vec<Vec<T>>
where
    T: Any + Send + WireSize,
{
    let (p, me) = (t.size(), t.rank());
    assert!(
        sends.len() == p,
        "alltoallv got {} send lists in a {p}-rank job: it takes one per rank",
        sends.len()
    );
    let seq = t.next_seq();
    let mut recvs: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
    recvs[me] = std::mem::take(&mut sends[me]);
    for s in 1..p {
        let (dst, src) = ((me + s) % p, (me + p - s) % p);
        t.send_step(dst, seq, s as u32, std::mem::take(&mut sends[dst]));
        recvs[src] = t.recv_step(src, seq, s as u32);
    }
    recvs
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;
    use crate::cluster::{run, EndpointCtx};
    use crate::config::MachineConfig;
    use crate::message::Message;
    use crate::router::Filter;
    use crate::time::SimTime;

    /// A transport with no cost model: raw endpoint messages tagged
    /// `seq << 32 | step`, early arrivals left queued in the router until
    /// asked for, every send counted in `msgs_sent`.
    struct Fake<'a> {
        ctx: &'a mut EndpointCtx,
        seq: u64,
    }

    impl<'a> Fake<'a> {
        fn new(ctx: &'a mut EndpointCtx) -> Self {
            Fake { ctx, seq: 0 }
        }
    }

    impl Transport for Fake<'_> {
        fn rank(&self) -> usize {
            self.ctx.id()
        }
        fn size(&self) -> usize {
            self.ctx.num_endpoints()
        }
        fn next_seq(&mut self) -> u64 {
            self.seq += 1;
            self.seq - 1
        }
        fn send_step<T: Any + Send + WireSize>(&mut self, dst: usize, seq: u64, step: u32, v: T) {
            let tag = (seq << 32) | u64::from(step);
            let me = self.rank();
            self.ctx.counters.msgs_sent += 1;
            let bytes = v.wire_size();
            (self.ctx.net).send(Message::new(me, dst, tag, SimTime::ZERO, bytes, v));
        }
        fn recv_step<T: Any + Send>(&mut self, src: usize, seq: u64, step: u32) -> T {
            let tag = (seq << 32) | u64::from(step);
            let want = Filter {
                tag,
                src: Some(src),
                always: None,
            };
            let net = &self.ctx.net;
            (net.recv_match(&want))
                .unwrap_or_else(|| net.deadlocked(&want, ""))
                .take()
        }
        fn barrier_done(&mut self) {
            self.ctx.counters.barriers += 1;
        }
    }

    /// The affine map `x ↦ a·x + b` (mod 2³²), packed as `a << 32 | b`.
    fn affine(a: u32, b: u32) -> u64 {
        (u64::from(a) << 32) | u64::from(b)
    }

    /// Apply `f`, then `g`: associative, not commutative.
    fn compose(f: u64, g: u64) -> u64 {
        let (fa, fb) = ((f >> 32) as u32, f as u32);
        let (ga, gb) = ((g >> 32) as u32, g as u32);
        affine(ga.wrapping_mul(fa), ga.wrapping_mul(fb).wrapping_add(gb))
    }

    fn elem(rank: usize) -> u64 {
        affine(2 * rank as u32 + 3, rank as u32)
    }

    /// `compose` over `ranks`, in that order.
    fn fold(ranks: impl IntoIterator<Item = usize>) -> Option<u64> {
        ranks.into_iter().map(elem).reduce(compose)
    }

    /// What one endpoint saw of every collective, and the messages each
    /// one sent from it.
    #[derive(Default)]
    struct Seen {
        entered_before_barrier_left: usize,
        bcast: Vec<u64>,
        reduce: Option<u64>,
        allreduce: u64,
        exscan: Option<u64>,
        scan: u64,
        gather: Option<Vec<u64>>,
        allgather: Vec<Vec<u64>>,
        alltoallv: Vec<Vec<u64>>,
        msgs: Vec<u64>,
    }

    /// Run every collective once at `nodes` endpoints, rooted collectives
    /// at `root`.
    fn run_all(nodes: usize, root: usize) -> Vec<Seen> {
        let entered = AtomicUsize::new(0);
        let report = run(nodes, MachineConfig::new(nodes as u32, 1), |ctx| {
            let mut t = Fake::new(ctx);
            let me = t.rank();
            let mut seen = Seen::default();
            let mut sent = 0;
            let mut sent_since_last = |t: &mut Fake<'_>| {
                let d = t.ctx.counters.msgs_sent - sent;
                sent += d;
                d
            };
            entered.fetch_add(1, Ordering::SeqCst);
            barrier(&mut t);
            seen.entered_before_barrier_left = entered.load(Ordering::SeqCst);
            seen.msgs.push(sent_since_last(&mut t));
            seen.bcast = bcast(&mut t, root, (me == root).then(|| vec![root as u64, 42]));
            seen.msgs.push(sent_since_last(&mut t));
            seen.reduce = reduce(&mut t, root, elem(me), compose);
            seen.msgs.push(sent_since_last(&mut t));
            seen.allreduce = allreduce(&mut t, elem(me), compose);
            seen.msgs.push(sent_since_last(&mut t));
            seen.exscan = exscan(&mut t, elem(me), compose);
            seen.msgs.push(sent_since_last(&mut t));
            seen.scan = scan(&mut t, elem(me), compose);
            seen.msgs.push(sent_since_last(&mut t));
            seen.gather = gather(&mut t, root, elem(me));
            seen.msgs.push(sent_since_last(&mut t));
            seen.allgather = allgather(&mut t, vec![me as u64; me % 3]);
            seen.msgs.push(sent_since_last(&mut t));
            let sends = (0..nodes)
                .map(|d| vec![(me * 100 + d) as u64; d % 3])
                .collect();
            seen.alltoallv = alltoallv(&mut t, sends);
            seen.msgs.push(sent_since_last(&mut t));
            let left = t.ctx.net.queued();
            assert!(left.is_empty(), "a message no collective asked for");
            seen
        });
        assert_eq!(report.total_counters().barriers, nodes as u64);
        report.results
    }

    /// Every collective at N ∈ {1, 2, 3, 5, 8, 13, 64} against a sequential
    /// model: values, combine order (a non-commutative op), roots other
    /// than 0, and the message count each algorithm sends in total.
    #[test]
    fn every_collective_matches_the_sequential_model() {
        for nodes in [1usize, 2, 3, 5, 8, 13, 64] {
            let rounds = dissemination(0, nodes).count() as u64;
            let n = nodes as u64;
            let doubling: u64 = (0..rounds).map(|r| n - (1 << r)).sum();
            let tree = n - 1;
            let msgs = [
                n * rounds,
                tree,
                tree,
                2 * tree,
                doubling,
                doubling,
                tree,
                2 * tree,
                n * (n - 1),
            ];
            for root in [nodes - 1, nodes / 2] {
                let seen = run_all(nodes, root);
                let at = |what: &str| format!("{nodes} endpoints, root {root}: {what}");
                let total = |i: usize| seen.iter().map(|s| s.msgs[i]).sum::<u64>();
                assert_eq!(
                    (0..msgs.len()).map(total).collect::<Vec<_>>(),
                    msgs,
                    "{}",
                    at("messages")
                );
                let all: Vec<u64> = (0..nodes).map(elem).collect();
                for (me, s) in seen.iter().enumerate() {
                    assert_eq!(s.entered_before_barrier_left, nodes, "{}", at("barrier"));
                    assert_eq!(s.bcast, vec![root as u64, 42], "{}", at("bcast"));
                    let is_root = me == root;
                    let rotated = (root..nodes).chain(0..root);
                    assert_eq!(
                        s.reduce,
                        fold(rotated).filter(|_| is_root),
                        "{}",
                        at("reduce")
                    );
                    assert_eq!(Some(s.allreduce), fold(0..nodes), "{}", at("allreduce"));
                    assert_eq!(s.exscan, fold(0..me), "{}", at("exscan"));
                    assert_eq!(Some(s.scan), fold(0..=me), "{}", at("scan"));
                    assert_eq!(s.gather, is_root.then(|| all.clone()), "{}", at("gather"));
                    let lists: Vec<Vec<u64>> = (0..nodes).map(|r| vec![r as u64; r % 3]).collect();
                    assert_eq!(s.allgather, lists, "{}", at("allgather"));
                    let from: Vec<Vec<u64>> = (0..nodes)
                        .map(|src| vec![(src * 100 + me) as u64; me % 3])
                        .collect();
                    assert_eq!(s.alltoallv, from, "{}", at("alltoallv"));
                }
            }
        }
    }

    fn alone(f: impl Fn(&mut Fake<'_>) + Send + Sync) {
        run(1, MachineConfig::new(1, 1), |ctx| f(&mut Fake::new(ctx)));
    }

    #[test]
    #[should_panic(expected = "bcast root 0 passed None: it must supply the value")]
    fn a_root_without_a_value_is_named() {
        alone(|t| {
            bcast::<u64>(t, 0, None);
        });
    }

    #[test]
    #[should_panic(expected = "alltoallv got 2 send lists in a 1-rank job: it takes one per rank")]
    fn a_wrong_list_count_is_named() {
        alone(|t| {
            alltoallv(t, vec![vec![1u64], vec![2]]);
        });
    }
}
