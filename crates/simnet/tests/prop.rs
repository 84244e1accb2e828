//! Property-based tests of the simulator substrate: time algebra, wire
//! sizing, cost-model monotonicity, and transport ordering (in-repo
//! `testkit` harness from ppm-core).

use std::collections::VecDeque;

use ppm_core::testkit::forall;
use ppm_core::{prop_assert, prop_assert_eq};
use ppm_simnet::{Clock, Filter, Message, NetParams, SimTime, TagClass, WireSize};

#[test]
fn simtime_addition_is_commutative_and_monotone() {
    forall(
        "simtime_addition_is_commutative_and_monotone",
        64,
        |g| (g.u64_in(0..1 << 40), g.u64_in(0..1 << 40)),
        |&(a, b)| {
            let (x, y) = (SimTime::from_ps(a), SimTime::from_ps(b));
            prop_assert_eq!(x + y, y + x);
            prop_assert!(x + y >= x.max(y));
            prop_assert_eq!((x + y) - y, x);
            Ok(())
        },
    );
}

#[test]
fn simtime_scale_distributes() {
    forall(
        "simtime_scale_distributes",
        64,
        |g| (g.u64_in(0..1 << 20), g.u64_in(0..1000), g.u64_in(0..1000)),
        |&(a, k, j)| {
            let t = SimTime::from_ps(a);
            prop_assert_eq!(t.scale(k) + t.scale(j), t.scale(k + j));
            Ok(())
        },
    );
}

#[test]
fn clock_breakdown_always_sums_to_now() {
    forall(
        "clock_breakdown_always_sums_to_now",
        64,
        |g| g.vec(0..50, |g| (g.u32_in(0..3) as u8, g.u64_in(0..1 << 30))),
        |steps| {
            let mut c = Clock::new();
            for &(kind, amount) in steps {
                let d = SimTime::from_ps(amount);
                match kind {
                    0 => c.advance_compute(d),
                    1 => c.advance_comm(d),
                    _ => c.wait_until(c.now() + d),
                }
            }
            prop_assert_eq!(c.compute() + c.comm() + c.wait(), c.now());
            Ok(())
        },
    );
}

#[test]
fn wire_time_is_monotone_in_bytes() {
    forall(
        "wire_time_is_monotone_in_bytes",
        64,
        |g| {
            (
                g.usize_in(0..1 << 20),
                g.usize_in(1..1 << 20),
                g.u32_in(1..8),
            )
        },
        |&(b1, extra, share)| {
            if extra == 0 || share == 0 {
                return Ok(());
            }
            let net = NetParams::default();
            for intra in [false, true] {
                prop_assert!(
                    net.wire_time(b1, intra, share) <= net.wire_time(b1 + extra, intra, share)
                );
            }
            // Sharing the NIC never speeds things up.
            prop_assert!(net.wire_time(b1, false, share) >= net.wire_time(b1, false, 1));
            Ok(())
        },
    );
}

#[test]
fn vec_wire_size_is_additive() {
    forall(
        "vec_wire_size_is_additive",
        64,
        |g| {
            (
                g.vec(0..50, |g| g.f64_in(-1e9..1e9)),
                g.vec(0..50, |g| g.f64_in(-1e9..1e9)),
            )
        },
        |(a, b)| {
            let joined: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
            // Two length prefixes vs one.
            prop_assert_eq!(a.wire_size() + b.wire_size(), joined.wire_size() + 8);
            Ok(())
        },
    );
}

#[test]
fn router_preserves_per_sender_order() {
    forall(
        "router_preserves_per_sender_order",
        64,
        |g| g.usize_in(1..100),
        |&n| {
            if n == 0 {
                return Ok(());
            }
            let eps = ppm_simnet::make_router(2);
            for i in 0..n as u64 {
                eps[0].send(Message::new(0, 1, i % 3, SimTime::ZERO, 8, i));
            }
            for i in 0..n as u64 {
                prop_assert_eq!(eps[1].recv().take::<u64>(), i);
            }
            Ok(())
        },
    );
}

/// The router's matched receive takes exactly what the receive it replaced
/// took: pop the FIFO inbox, stash what the filter does not want, and scan
/// the stash first next time (kept here as the model). Several senders
/// interleave sends with receives; a receive names a pending message's tag,
/// from its sender or from anyone, with or without an always-taken class.
#[test]
fn matched_receive_equals_fifo_pop_and_stash_scan() {
    const ALWAYS: TagClass = TagClass {
        mask: 1 << 63,
        bits: 1 << 63,
    };
    forall(
        "matched_receive_equals_fifo_pop_and_stash_scan",
        64,
        |g| {
            let senders = g.usize_in(1..5);
            // (send?, sender or pick, tag or how to name the pick)
            let ops = g.vec(0..120, |g| {
                let tag = match g.u32_in(0..6) {
                    0 => ALWAYS.bits | g.u64_in(0..3),
                    _ => g.u64_in(0..4),
                };
                (g.bool(), g.usize_in(0..1 << 20), tag)
            });
            (senders, ops)
        },
        |(senders, ops)| {
            let senders = (*senders).max(1);
            let eps = ppm_simnet::make_router(senders + 1);
            let (mut inbox, mut stash) = (VecDeque::new(), VecDeque::new());
            for (id, &(send, a, b)) in ops.iter().enumerate() {
                if send {
                    let src = 1 + a % senders;
                    eps[src].send(Message::new(src, 0, b, SimTime::ZERO, 8, id));
                    inbox.push_back((src, b, id));
                    continue;
                }
                let pending: Vec<_> = stash.iter().chain(&inbox).copied().collect();
                if pending.is_empty() {
                    continue;
                }
                let (src, tag, _) = pending[a % pending.len()];
                let filter = Filter {
                    tag,
                    src: (b & 1 == 0).then_some(src),
                    always: (b & 2 != 0).then_some(ALWAYS),
                };
                let wanted = |&(s, t, _): &(usize, u64, usize)| {
                    (t == filter.tag && filter.src.is_none_or(|f| f == s))
                        || filter.always.is_some_and(|c| t & c.mask == c.bits)
                };
                let expect = match stash.iter().position(wanted) {
                    Some(i) => stash.remove(i).expect("found one line up"),
                    None => loop {
                        let m = inbox.pop_front().expect("the named message is pending");
                        if wanted(&m) {
                            break m;
                        }
                        stash.push_back(m);
                    },
                };
                let got = eps[0].recv_match(&filter);
                prop_assert_eq!(got.map(|m| m.take::<usize>()), Some(expect.2));
            }
            Ok(())
        },
    );
}
