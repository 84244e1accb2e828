//! Dependency-free property-test harness (std-only policy: no `proptest`).
//!
//! The workspace's property suites need three things from a harness:
//! *seeded case generation* (hermetic: the same binary always tests the
//! same cases), *readable failures* (the failing input printed with the
//! seed that reproduces it), and *shrink-on-failure* (a greedy walk toward
//! a minimal failing input). This module provides exactly those, in ~200
//! lines of std.
//!
//! ## Usage
//!
//! ```
//! use ppm_core::testkit::{forall, Gen};
//!
//! #[derive(Debug, Clone)]
//! struct Case { xs: Vec<u64> }
//!
//! impl ppm_core::testkit::Shrink for Case {
//!     fn shrink(&self) -> Vec<Self> {
//!         self.xs.shrink().into_iter().map(|xs| Case { xs }).collect()
//!     }
//! }
//!
//! forall("sum_is_monotone", 32, |g: &mut Gen| Case {
//!     xs: g.vec(0..20, |g| g.u64_in(0..1000)),
//! }, |c| {
//!     let s: u64 = c.xs.iter().sum();
//!     if s >= c.xs.iter().copied().max().unwrap_or(0) {
//!         Ok(())
//!     } else {
//!         Err(format!("sum {s} below max"))
//!     }
//! });
//! ```
//!
//! A failing property panics with the minimal (shrunken) input, the
//! original input, the case number, and the seed. Set `TESTKIT_SEED` /
//! `TESTKIT_CASES` to replay a particular seed or widen the sweep; the
//! default seed is a fixed constant so CI is deterministic.
//!
//! Shrinking is type-driven through [`Shrink`]: integers step toward zero,
//! vectors drop chunks and elements then shrink elements, tuples shrink one
//! component at a time. A shrink candidate may fall outside the range the
//! generator drew from — properties must treat out-of-contract inputs as
//! vacuously passing (return `Ok(())`), which simply stops the shrink walk
//! in that direction.
//!
//! [`Cell`] and [`CELLS`] fix the knob values the runtime suites walk
//! in-process: fault seed, adaptive balance, replication and tile budget,
//! every pair of values meeting in some row.

use std::fmt::Debug;
use std::ops::Range;

use crate::PpmConfig;

/// Result of one property evaluation.
pub type PropResult = Result<(), String>;

/// Default number of cases per property (override with `TESTKIT_CASES`).
pub const DEFAULT_CASES: u32 = 32;
/// Default base seed (override with `TESTKIT_SEED`).
pub const DEFAULT_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded generator handed to case builders.
#[derive(Debug, Clone)]
pub struct Gen {
    state: u64,
}

impl Gen {
    /// A generator with an explicit seed (equal seeds, equal streams).
    pub fn new(seed: u64) -> Self {
        Gen { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(1);
        splitmix64(self.state)
    }

    /// Uniform in `[range.start, range.end)`.
    pub fn u64_in(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range {range:?}");
        let span = range.end - range.start;
        range.start + (((self.u64() as u128 * span as u128) >> 64) as u64)
    }

    /// Uniform usize in `[range.start, range.end)`.
    pub fn usize_in(&mut self, range: Range<usize>) -> usize {
        self.u64_in(range.start as u64..range.end as u64) as usize
    }

    /// Uniform u32 in `[range.start, range.end)`.
    pub fn u32_in(&mut self, range: Range<u32>) -> u32 {
        self.u64_in(range.start as u64..range.end as u64) as u32
    }

    /// Uniform i64 in `[range.start, range.end)`.
    pub fn i64_in(&mut self, range: Range<i64>) -> i64 {
        assert!(range.start < range.end, "empty range {range:?}");
        let span = (range.end - range.start) as u64;
        range.start + (((self.u64() as u128 * span as u128) >> 64) as i64)
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn f64_unit(&mut self) -> f64 {
        (self.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform f64 in `[range.start, range.end)`.
    pub fn f64_in(&mut self, range: Range<f64>) -> f64 {
        range.start + (range.end - range.start) * self.f64_unit()
    }

    /// Fair coin.
    pub fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// Uniform (Fisher–Yates) in-place shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.usize_in(0..i + 1));
        }
    }

    /// A vector whose length is drawn from `len` and whose elements come
    /// from `f`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = if len.start == len.end {
            len.start
        } else {
            self.usize_in(len)
        };
        (0..n).map(|_| f(self)).collect()
    }
}

// ---------------------------------------------------------------------------
// Shrinking.
// ---------------------------------------------------------------------------

/// Types that can propose smaller versions of themselves. Candidates should
/// be strictly "simpler" by some well-founded measure, or shrinking may
/// loop; the harness also caps total shrink steps as a backstop.
pub trait Shrink: Sized {
    /// Candidate replacements, simplest first. Default: no candidates.
    fn shrink(&self) -> Vec<Self> {
        Vec::new()
    }
}

macro_rules! shrink_int {
    ($($t:ty),*) => {$(
        impl Shrink for $t {
            fn shrink(&self) -> Vec<Self> {
                let v = *self;
                let mut c = Vec::new();
                if v != 0 {
                    c.push(0);
                    if v / 2 != 0 {
                        c.push(v / 2);
                    }
                    c.push(if v > 0 { v - 1 } else { v + 1 });
                }
                c.dedup();
                c
            }
        }
    )*};
}
shrink_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Shrink for bool {
    fn shrink(&self) -> Vec<Self> {
        if *self {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

// Floats don't shrink (candidate generation around NaN/subnormals buys
// little for these suites).
impl Shrink for f64 {}
impl Shrink for f32 {}

impl<T: Shrink + Clone> Shrink for Vec<T> {
    fn shrink(&self) -> Vec<Self> {
        let mut c: Vec<Vec<T>> = Vec::new();
        let n = self.len();
        if n == 0 {
            return c;
        }
        c.push(Vec::new());
        if n > 1 {
            c.push(self[..n / 2].to_vec());
            c.push(self[n / 2..].to_vec());
        }
        // Drop single elements (bounded so huge vectors stay cheap).
        for i in 0..n.min(8) {
            let mut v = self.clone();
            v.remove(i);
            c.push(v);
        }
        // Shrink single elements in place (first candidate only).
        for i in 0..n.min(8) {
            if let Some(smaller) = self[i].shrink().into_iter().next() {
                let mut v = self.clone();
                v[i] = smaller;
                c.push(v);
            }
        }
        c
    }
}

macro_rules! shrink_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Shrink + Clone),+> Shrink for ($($name,)+) {
            fn shrink(&self) -> Vec<Self> {
                let mut c = Vec::new();
                $(
                    for cand in self.$idx.shrink() {
                        let mut t = self.clone();
                        t.$idx = cand;
                        c.push(t);
                    }
                )+
                c
            }
        }
    )*};
}
shrink_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

// ---------------------------------------------------------------------------
// The runner.
// ---------------------------------------------------------------------------

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Maximum shrink candidates evaluated per failure (backstop against
/// pathological `Shrink` impls).
const MAX_SHRINK_STEPS: usize = 2000;

/// Check `prop` on `cases` generated inputs; panics on the first failure
/// with a shrunken minimal input and the reproducing seed.
///
/// `cases` is a default; `TESTKIT_CASES` overrides it, and `TESTKIT_SEED`
/// overrides the base seed ([`DEFAULT_SEED`]).
pub fn forall<T, G, P>(name: &str, cases: u32, gen: G, prop: P)
where
    T: Debug + Clone + Shrink,
    G: Fn(&mut Gen) -> T,
    P: Fn(&T) -> PropResult,
{
    let seed = env_u64("TESTKIT_SEED").unwrap_or(DEFAULT_SEED);
    let cases = env_u64("TESTKIT_CASES").map(|c| c as u32).unwrap_or(cases);
    for case in 0..cases {
        let mut g = Gen::new(seed ^ splitmix64(case as u64 + 1));
        let input = gen(&mut g);
        if let Err(err) = prop(&input) {
            let (minimal, min_err, steps) = shrink_failure(&input, err, &prop);
            panic!(
                "property `{name}` failed (case {case}/{cases}, seed {seed:#x})\n\
                 minimal input (after {steps} shrink steps): {minimal:#?}\n\
                 error: {min_err}\n\
                 original input: {input:#?}\n\
                 replay with TESTKIT_SEED={seed}"
            );
        }
    }
}

/// Greedy shrink: repeatedly move to the first failing candidate.
fn shrink_failure<T, P>(input: &T, err: String, prop: &P) -> (T, String, usize)
where
    T: Debug + Clone + Shrink,
    P: Fn(&T) -> PropResult,
{
    let mut cur = input.clone();
    let mut cur_err = err;
    let mut budget = MAX_SHRINK_STEPS;
    let mut steps = 0;
    'outer: while budget > 0 {
        for cand in cur.shrink() {
            budget -= 1;
            // A candidate that *panics* (rather than returning Err) would
            // abort the whole shrink; properties should return Err for
            // violations and Ok for out-of-contract inputs.
            if let Err(e) = prop(&cand) {
                cur = cand;
                cur_err = e;
                steps += 1;
                continue 'outer;
            }
            if budget == 0 {
                break;
            }
        }
        break;
    }
    (cur, cur_err, steps)
}

/// Convenience assertion macro for property bodies: like `assert_eq!` but
/// returns a [`PropResult`] error instead of panicking, so shrinking works.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "assertion failed: `{:?}` != `{:?}` ({}:{})",
                a,
                b,
                file!(),
                line!()
            ));
        }
    }};
}

/// Like `assert!` but returns a [`PropResult`] error instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(, $msg:expr)?) => {{
        if !$cond {
            #[allow(unused_mut, unused_assignments)]
            let mut detail = String::new();
            $(detail = format!(": {}", $msg);)?
            return Err(format!(
                "assertion failed: `{}`{} ({}:{})",
                stringify!($cond),
                detail,
                file!(),
                line!()
            ));
        }
    }};
}

// ---------------------------------------------------------------------------
// Configuration cells.
// ---------------------------------------------------------------------------

/// One point of the knob space a suite runs under, passed as a value:
/// a run is its [`PpmConfig`], never the shell's. [`Cell::apply`] sets the
/// three config knobs; `fault_seed` is for suites that draw a seeded fault
/// schedule. The default is every knob at its [`PpmConfig::new`] value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cell {
    /// Seed of the suite's random fault schedule.
    pub fault_seed: u64,
    /// Trace-guided adaptive repartitioning.
    pub adaptive: bool,
    /// Buddy snapshot replication.
    pub replication: bool,
    /// Resident tile budget in bytes per node (`0` = in core).
    pub tile_budget: u64,
}

impl Cell {
    /// `cfg` with this cell's adaptive balance, replication and tile
    /// budget. Builders called after it override it.
    pub fn apply(&self, cfg: PpmConfig) -> PpmConfig {
        cfg.with_adaptive_balance(self.adaptive)
            .with_replication(self.replication)
            .with_tile_budget(self.tile_budget)
    }
}

/// The fixed cells the suites walk: fault seeds {5, 23, 71}, three rows
/// each, with adaptive balance, replication and a 4 KiB tile budget set so
/// that every pair of values of any two fields meets in some row and no two
/// rows are equal. The first row has every switch off, the seventh every
/// switch on.
#[rustfmt::skip]
pub const CELLS: [Cell; 9] = [
    Cell { fault_seed: 5, adaptive: false, replication: false, tile_budget: 0 },
    Cell { fault_seed: 23, adaptive: false, replication: false, tile_budget: 4096 },
    Cell { fault_seed: 71, adaptive: true, replication: true, tile_budget: 0 },
    Cell { fault_seed: 5, adaptive: false, replication: true, tile_budget: 0 },
    Cell { fault_seed: 23, adaptive: true, replication: false, tile_budget: 0 },
    Cell { fault_seed: 71, adaptive: false, replication: false, tile_budget: 4096 },
    Cell { fault_seed: 5, adaptive: true, replication: true, tile_budget: 4096 },
    Cell { fault_seed: 23, adaptive: false, replication: true, tile_budget: 0 },
    Cell { fault_seed: 71, adaptive: false, replication: false, tile_budget: 0 },
];

/// The distinct cells `project` makes of [`CELLS`], in table order. A
/// suite keeps the fields it walks and defaults the rest:
/// `cells(|c| Cell { fault_seed: c.fault_seed, ..Cell::default() })`.
pub fn cells(project: impl Fn(Cell) -> Cell) -> Vec<Cell> {
    let mut out = Vec::new();
    for c in CELLS.map(project) {
        if !out.contains(&c) {
            out.push(c);
        }
    }
    out
}

/// Run `test` at each of [`cells`]`(project)`; a failure names its cell
/// before it propagates, so the failing run can be rebuilt from the value.
pub fn walk(project: impl Fn(Cell) -> Cell, test: impl Fn(Cell)) {
    for cell in cells(project) {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| test(cell)));
        if let Err(panic) = run {
            eprintln!("failed at {cell:?}");
            std::panic::resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_cover_every_pair_of_values() {
        type Field = (&'static str, fn(&Cell) -> u64, &'static [u64]);
        let fields: [Field; 4] = [
            ("fault_seed", |c| c.fault_seed, &[5, 23, 71]),
            ("adaptive", |c| c.adaptive as u64, &[0, 1]),
            ("replication", |c| c.replication as u64, &[0, 1]),
            ("tile_budget", |c| c.tile_budget, &[0, 4096]),
        ];
        for (i, (a, fa, va)) in fields.iter().enumerate() {
            for (b, fb, vb) in &fields[i + 1..] {
                for x in *va {
                    for y in *vb {
                        assert!(
                            CELLS.iter().any(|c| fa(c) == *x && fb(c) == *y),
                            "no cell has {a} = {x} and {b} = {y}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cells_dedup_what_a_projection_merges() {
        let seeds = |c: Cell| Cell {
            fault_seed: c.fault_seed,
            ..Cell::default()
        };
        let walked: Vec<u64> = cells(seeds).iter().map(|c| c.fault_seed).collect();
        assert_eq!(walked, [5, 23, 71]);
        assert_eq!(cells(|_| Cell::default()), [Cell::default()]);
        assert_eq!(cells(|c| c).len(), CELLS.len());
    }

    #[test]
    fn generation_is_deterministic() {
        let mk = || {
            let mut g = Gen::new(12345);
            (
                g.u64(),
                g.usize_in(3..17),
                g.i64_in(-50..50),
                g.vec(0..10, |g| g.bool()),
            )
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn ranges_are_respected() {
        let mut g = Gen::new(7);
        for _ in 0..2000 {
            assert!((3..17).contains(&g.usize_in(3..17)));
            assert!((-50..50).contains(&g.i64_in(-50..50)));
            let f = g.f64_in(2.0..3.0);
            assert!((2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn passing_property_completes() {
        forall("tautology", 16, |g| g.u64_in(0..100), |_| Ok(()));
    }

    #[test]
    fn failing_property_shrinks_to_minimal() {
        let seen = std::cell::RefCell::new(None::<Vec<u64>>);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            forall(
                "has_big_element",
                32,
                |g| g.vec(0..20, |g| g.u64_in(0..1000)),
                |v: &Vec<u64>| {
                    if v.iter().any(|&x| x >= 500) {
                        *seen.borrow_mut() = Some(v.clone());
                        Err("contains an element >= 500".into())
                    } else {
                        Ok(())
                    }
                },
            );
        }));
        assert!(result.is_err(), "property must fail");
        // Greedy shrinking lands on the canonical minimal witness.
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("minimal input"), "panic message: {msg}");
        assert!(msg.contains("500"), "panic message: {msg}");
    }

    #[test]
    fn shrink_candidates_are_smaller() {
        assert!(10u64.shrink().contains(&0));
        assert!((-10i64).shrink().contains(&0));
        assert!(0u64.shrink().is_empty());
        let v = vec![4u64, 9, 2];
        assert!(v.shrink().iter().all(|c| c.len() < v.len() || c != &v));
    }

    #[test]
    fn prop_macros_return_errors() {
        fn p(x: u64) -> PropResult {
            prop_assert!(x < 10, "too big");
            prop_assert_eq!(x % 2, 0);
            Ok(())
        }
        assert!(p(2).is_ok());
        assert!(p(3).is_err());
        assert!(p(11).is_err());
    }
}
