//! Dynamic phase-semantics conformance checker.
//!
//! The Parallel Phase Model's contract is super-step semantics: inside a
//! `PPM_global_phase`/`PPM_node_phase`, every read observes the phase-start
//! snapshot and writes publish only at the end-of-phase barrier. The
//! runtime *implements* that contract by buffering writes; this module
//! *verifies the program against it*: with the checker enabled
//! ([`crate::PpmConfig::with_checker`]; on by default in debug builds, so
//! `cargo test` runs everything under it), suspicious access patterns are
//! reported at the phase barrier as [`PhaseViolation`]s. The checker only
//! observes: with it on or off a read takes the same spans and a phase log
//! drains by the same code, and only the reports differ. Each rule is
//! evaluated where its facts already are — no access is recorded for a
//! later replay:
//!
//! * **Write–write conflicts** — two *different* VPs `put` *different
//!   values* to the same element in one phase without an `accumulate`
//!   combiner. The runtime resolves this deterministically (last writer in
//!   (global VP rank, program order) wins), but a program whose answer
//!   depends on VP rank order is almost always wrong — the paper's model
//!   provides `accumulate` for exactly this pattern. Idempotent concurrent
//!   puts (every VP's last write to the element carries the same value,
//!   e.g. many VPs clearing the same tree cell) are *not* flagged: the
//!   outcome is value-deterministic regardless of rank order. Found by the
//!   write log's phase-end drain (`state/wlog.rs`), which sorts its segment
//!   headers by element range and looks at elements only where puts of two
//!   VPs share one, in (rank, program order): where several VPs assigned
//!   one element, `first_disagreement` compares their last values by a
//!   byte-level fingerprint ([`crate::elem::ByteHash`], a bound of every
//!   [`crate::elem::Elem`]) — floats hash their IEEE bit patterns, so even
//!   two NaNs with different payloads, which render identically under
//!   `Debug`, are distinguished. Nothing is hashed per `put`.
//! * **Read-own-write hazards** — a VP reads an element it wrote earlier in
//!   the same phase. Under snapshot semantics the read returns the
//!   phase-*start* value, not the value just written; a program doing this
//!   would behave differently on any runtime that didn't snapshot, so it is
//!   either a bug or (rarely) a deliberate snapshot read that deserves a
//!   comment and a checker suppression via a fresh phase. Found by the
//!   reading VP during its own poll, against the runs of elements it has
//!   written this phase (`OwnWrites`): a bulk read takes the stretch
//!   between two written runs as one span, and an element inside one alone,
//!   its read the hazard. What leaves the VP is the finished report.
//! * **Phase-nesting / barrier-mismatch errors** — opening a phase inside a
//!   phase, VPs disagreeing on the current phase kind, or VPs not all
//!   arriving at the same barrier. These corrupt the super-step structure
//!   itself, so they are reported *and* the runtime aborts (panics) with
//!   the violation's rendering; tests assert on the message.
//!
//! The checker is writer-side and per node: a node's write logs hold its
//! own VPs' writes, so it reports the conflicts among them — wherever the
//! element lives — and a conflict between VPs of two nodes goes unseen.
//! Diagnostics are deterministic: no rule depends on when a VP was
//! polled, and the per-barrier flush sorts the phase's reports
//! by (rule, space, array, element, ranks). Violations are drained per node
//! with [`crate::NodeCtx::take_violations`] after a `ppm_do`; the app test
//! suites assert the drain is empty.

use std::collections::BTreeSet;
use std::ops::Range;

use crate::state::PhaseKind;

/// FNV-1a over a value's identity bytes ([`crate::elem::ByteHash`]): a
/// deterministic, std-only, allocation-free fingerprint usable for any
/// `Elem` (which requires `ByteHash` but not `PartialEq`). Distinct bit
/// patterns → distinct fingerprints up to 64-bit collisions; a collision
/// can only *hide* a conflict, never invent one.
fn fingerprint<T: crate::elem::ByteHash>(v: &T) -> u64 {
    let mut h = crate::elem::ByteHasher::new();
    v.hash_bytes(&mut h);
    h.finish()
}

/// Which shared-variable space an access touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Space {
    /// A `PPM_global_shared` array (cluster-distributed).
    Global,
    /// A `PPM_node_shared` array (one instance per node).
    Node,
}

impl std::fmt::Display for Space {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Space::Global => write!(f, "global"),
            Space::Node => write!(f, "node"),
        }
    }
}

/// One conformance violation detected by the checker, reported at the
/// phase's end barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhaseViolation {
    /// Two different VPs assigned (`put`) different values to the same
    /// element in one phase without an `accumulate` combiner.
    WriteWriteConflict {
        /// Shared-variable space of the array.
        space: Space,
        /// Array id (allocation order on the node).
        array: u32,
        /// Element index (global index for global arrays).
        index: u64,
        /// Lowest global VP rank that wrote the element.
        first_vp: u64,
        /// The first *other* global VP rank that also wrote it.
        second_vp: u64,
        /// Kind of the phase the conflict happened in.
        phase: PhaseKind,
    },
    /// A VP read an element it had already written earlier in the same
    /// phase (the read returns the phase-start snapshot, not the write).
    ReadOwnWrite {
        /// Shared-variable space of the array.
        space: Space,
        /// Array id.
        array: u32,
        /// Element index.
        index: u64,
        /// Global VP rank that wrote and then read.
        vp: u64,
        /// Kind of the phase.
        phase: PhaseKind,
    },
    /// A phase was opened while the same VP was already inside one.
    NestedPhase {
        /// Node-relative rank of the offending VP.
        vp: usize,
        /// Node id.
        node: usize,
    },
    /// Concurrent VPs disagree on the kind of the current phase.
    PhaseKindMismatch {
        /// Kind of the already-open phase.
        open: PhaseKind,
        /// Kind the late VP tried to enter.
        entered: PhaseKind,
    },
    /// VPs did not all arrive at the same end-of-phase barrier.
    BarrierMismatch {
        /// Node id.
        node: usize,
        /// VPs still live in the `ppm_do`.
        live: usize,
        /// VPs waiting at the barrier.
        arrived: usize,
    },
}

impl std::fmt::Display for PhaseViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhaseViolation::WriteWriteConflict {
                space,
                array,
                index,
                first_vp,
                second_vp,
                phase,
            } => write!(
                f,
                "write-write conflict: VPs {first_vp} and {second_vp} put different \
                 values to {space} array {array} element {index} in one {phase:?} phase \
                 without an accumulate combiner (resolution is deterministic but \
                 rank-ordered; use accumulate or disjoint index sets)"
            ),
            PhaseViolation::ReadOwnWrite {
                space,
                array,
                index,
                vp,
                phase,
            } => write!(
                f,
                "read-own-write hazard: VP {vp} read {space} array {array} element \
                 {index} after writing it in the same {phase:?} phase (the read sees \
                 the phase-start snapshot, not the new value; split the phase if the \
                 new value was intended)"
            ),
            PhaseViolation::NestedPhase { vp, node } => write!(
                f,
                "phases cannot be nested (VP {vp} on node {node} opened a phase while \
                 already inside one)"
            ),
            PhaseViolation::PhaseKindMismatch { open, entered } => write!(
                f,
                "VPs disagree on the current phase kind: a {entered:?} phase was entered \
                 while a {open:?} phase is open — the Parallel Phase Model requires all \
                 of a node's VPs to execute the same phase sequence"
            ),
            PhaseViolation::BarrierMismatch {
                node,
                live,
                arrived,
            } => write!(
                f,
                "barrier mismatch on node {node}: {live} live VPs but only {arrived} \
                 arrived at the phase barrier — VPs must all follow the same phase \
                 sequence"
            ),
        }
    }
}

/// The write–write rule on one element: `last_puts` is every assigning
/// VP's `(global rank, last value put)`, ascending by rank. Rank order can
/// only matter when the last values differ — identical (idempotent) puts
/// resolve to the same value whichever writer wins — so the conflict, if
/// any, is between the lowest rank and the first later one that disagrees
/// with it.
pub(crate) fn first_disagreement<T: crate::elem::ByteHash>(
    mut last_puts: impl Iterator<Item = (u64, T)>,
) -> Option<(u64, u64)> {
    let (first_vp, first) = last_puts.next()?;
    let fp = fingerprint(&first);
    let (second_vp, _) = last_puts.find(|(_, v)| fingerprint(v) != fp)?;
    Some((first_vp, second_vp))
}

/// One shared element: space, array id, element index.
pub(crate) type ElemId = (Space, u32, u64);

/// The read-own-write rule, evaluated by the VP itself: the elements it has
/// written in its current phase, in its [`crate::state::VpState`].
#[derive(Default)]
pub(crate) struct OwnWrites {
    /// Per [`Space`], bit `min(array id, 63)` is set once the VP has written
    /// that array this phase, so a read of an array it has not written —
    /// nearly every read of a conforming program — is settled by one test.
    /// Arrays 63 and up share the top bit; the runs decide for them.
    arrays: [u64; 2],
    /// `(space, array, start, end)` per write, or per run of writes to
    /// consecutive elements, as they came. Sorted and coalesced by the first
    /// read that passes the mask ([`Self::reads`]), so a VP that never reads
    /// an array it writes sorts nothing.
    runs: Vec<(Space, u32, u64, u64)>,
    /// Whether `runs` is sorted, no two runs of an array meeting: true
    /// until a write opens a run, which is not compared with the others —
    /// a scattered write's order against the last would be a branch the
    /// predictor misses half the time.
    tidy: bool,
    /// The elements whose reads were hazards, each once: taken when the VP
    /// arrives at the phase's barrier ([`Checker::hazards`]), before its next
    /// phase begins.
    pub found: BTreeSet<ElemId>,
}

impl OwnWrites {
    /// Forget the previous phase's writes.
    pub fn begin_phase(&mut self) {
        self.arrays = [0; 2];
        self.runs.clear();
        self.tidy = true;
    }

    /// Note a `put` or `accumulate`: a write to the element after the last
    /// one written extends its run.
    pub fn wrote(&mut self, (space, array, index): ElemId) {
        self.arrays[space as usize] |= 1 << array.min(63);
        match self.runs.last_mut() {
            Some(run) if (run.0, run.1, run.3) == (space, array, index) => run.3 += 1,
            _ => {
                self.tidy = false;
                self.runs.push((space, array, index, index + 1));
            }
        }
    }

    /// The read-own-write check of the VP's reads of `array` of `space`:
    /// `None` where it has written nothing of the array this phase, so no
    /// read can be a hazard.
    #[inline]
    pub fn reads(&mut self, space: Space, array: u32) -> Option<ReadCheck<'_>> {
        if self.arrays[space as usize] & 1 << array.min(63) == 0 {
            return None;
        }
        if !std::mem::replace(&mut self.tidy, true) {
            self.runs.sort_unstable();
            self.runs.dedup_by(|next, kept| {
                let meets = (next.0, next.1) == (kept.0, kept.1) && next.2 <= kept.3;
                if meets {
                    kept.3 = kept.3.max(next.3);
                }
                meets
            });
        }
        let of = |run: &(Space, u32, u64, u64)| (run.0, run.1).cmp(&(space, array));
        let lo = self.runs.partition_point(|run| of(run).is_lt());
        let hi = self.runs.partition_point(|run| of(run).is_le());
        (lo < hi).then_some(ReadCheck(self, lo..hi))
    }

    /// Check one read by the VP: the first one of an element it wrote
    /// earlier in the phase is the hazard.
    pub fn read(&mut self, (space, array, index): ElemId) {
        if let Some(mut check) = self.reads(space, array) {
            check.stretch(index, index..index + 1);
        }
    }
}

/// [`OwnWrites::reads`] past the mask: the positions of one array's runs,
/// sorted, which the reads of one access are checked against.
pub(crate) struct ReadCheck<'a>(&'a mut OwnWrites, Range<usize>);

impl ReadCheck<'_> {
    /// What a read may take as one from `span`, which holds element
    /// `index`: the stretch of `span` around it between two written runs,
    /// if the VP has not written it — no read there is a hazard — or, if it
    /// has, `index` alone, its read reported unless it was already.
    pub fn stretch(&mut self, index: u64, span: Range<u64>) -> Range<u64> {
        let own = &mut *self.0;
        let runs = &own.runs[self.1.clone()];
        let at = runs.partition_point(|run| run.3 <= index);
        match runs.get(at) {
            Some(&(space, array, start, _)) if start <= index => {
                own.found.insert((space, array, index));
                index..index + 1
            }
            next => {
                let lo = at.checked_sub(1).map_or(0, |p| runs[p].3);
                let hi = next.map_or(u64::MAX, |run| run.2);
                span.start.max(lo)..span.end.min(hi)
            }
        }
    }
}

/// The per-node side of the checker: the open phase's reports, gathered
/// from the VPs' merges and the write logs' drains. Lives in the runtime's
/// `Inner` when enabled.
#[derive(Debug, Default)]
pub(crate) struct Checker {
    /// Violations detected in the current phase (flushed at the barrier).
    pending: Vec<PhaseViolation>,
}

/// Where one array's drain reports the conflicts it finds.
pub(crate) struct Conflicts<'a> {
    checker: &'a mut Checker,
    space: Space,
    array: u32,
    phase: PhaseKind,
}

impl Conflicts<'_> {
    /// VPs `first_vp` and `second_vp` left different values in element
    /// `index` ([`first_disagreement`]).
    pub fn report(&mut self, index: u64, (first_vp, second_vp): (u64, u64)) {
        let conflict = PhaseViolation::WriteWriteConflict {
            space: self.space,
            array: self.array,
            index,
            first_vp,
            second_vp,
            phase: self.phase,
        };
        self.checker.pending.push(conflict);
    }
}

impl Checker {
    /// Take the hazards the VP of global rank `vp` found in a phase of kind
    /// `phase` since its last merge.
    pub fn hazards(&mut self, found: &mut BTreeSet<ElemId>, vp: u64, phase: PhaseKind) {
        let hazards = std::mem::take(found)
            .into_iter()
            .map(|(space, array, index)| PhaseViolation::ReadOwnWrite {
                space,
                array,
                index,
                vp,
                phase,
            });
        self.pending.extend(hazards);
    }

    /// The conflict sink for the drain of `array`'s write log at the end of
    /// a phase of kind `phase`.
    pub fn conflicts_in(&mut self, space: Space, array: u32, phase: PhaseKind) -> Conflicts<'_> {
        Conflicts {
            checker: self,
            space,
            array,
            phase,
        }
    }

    /// Close the phase, once every VP has merged and every write log has
    /// drained: its violations, in deterministic order.
    pub fn end_phase(&mut self) -> Vec<PhaseViolation> {
        let mut out = std::mem::take(&mut self.pending);
        out.sort_by_key(violation_sort_key);
        out
    }
}

/// Deterministic report order: by rule, space, array, element, then ranks.
fn violation_sort_key(v: &PhaseViolation) -> (u8, Space, u32, u64, u64, u64) {
    match *v {
        PhaseViolation::WriteWriteConflict {
            space,
            array,
            index,
            first_vp,
            second_vp,
            ..
        } => (0, space, array, index, first_vp, second_vp),
        PhaseViolation::ReadOwnWrite {
            space,
            array,
            index,
            vp,
            ..
        } => (1, space, array, index, vp, 0),
        _ => unreachable!("structural violations abort where they are found: {v}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn conflict<T: crate::elem::ByteHash + Copy>(last_puts: &[(u64, T)]) -> Option<(u64, u64)> {
        first_disagreement(last_puts.iter().copied())
    }

    /// One report per element, naming the lowest rank and the first later
    /// one whose last value differs from it — not the first later writer.
    #[test]
    fn distinct_put_writers_conflict_once() {
        assert_eq!(conflict(&[(1, 11u64), (3, 30), (7, 70)]), Some((1, 3)));
        assert_eq!(conflict(&[(1, 11u64), (3, 11), (7, 70)]), Some((1, 7)));
        assert_eq!(conflict(&[(4, 11u64)]), None);
        assert_eq!(conflict::<u64>(&[]), None);
    }

    #[test]
    fn idempotent_identical_puts_are_clean() {
        // Three VPs all put the same value: last-writer-wins is
        // value-deterministic, no conflict.
        assert_eq!(conflict(&[(0, 1234u64), (4, 1234), (9, 1234)]), None);
    }

    #[test]
    fn fingerprint_distinguishes_values() {
        assert_eq!(fingerprint(&1.5f64), fingerprint(&1.5f64));
        assert_ne!(fingerprint(&1.5f64), fingerprint(&2.5f64));
        assert_ne!(fingerprint(&0.0f64), fingerprint(&-0.0f64));
        assert_ne!(fingerprint(&(1u64, 2u64)), fingerprint(&(2u64, 1u64)));
    }

    /// Regression for the Debug-rendering fingerprint's collision class:
    /// distinct NaN payloads render identically ("NaN"), so two VPs putting
    /// different NaN bit patterns used to look idempotent and the conflict
    /// was silently missed. Byte-level hashing must flag it.
    #[test]
    fn nan_payload_conflicts_are_detected() {
        let quiet = f64::NAN;
        let payload = f64::from_bits(f64::NAN.to_bits() ^ 1);
        assert_eq!(format!("{quiet:?}"), format!("{payload:?}"));
        assert_eq!(
            conflict(&[(0, quiet), (1, payload)]),
            Some((0, 1)),
            "distinct NaN payloads are a real conflict"
        );
        // Same payload from both VPs stays idempotent-clean.
        assert_eq!(conflict(&[(0, quiet), (1, quiet)]), None);
    }

    /// Accumulates reach the checker as written elements only — the drain
    /// never asks [`first_disagreement`] about a combining run.
    #[test]
    fn accumulates_never_conflict() {
        let machine = ppm_simnet::MachineConfig::new(1, 2);
        let cfg = crate::PpmConfig::new(machine).with_checker(true);
        let report = crate::run(cfg, |node| {
            let a = node.alloc_node::<u64>(1);
            node.ppm_do_local(10, move |vp| async move {
                let r = vp.node_rank() as u64;
                vp.node_phase(|ph| async move {
                    ph.accumulate_node(&a, 0, crate::AccumOp::Add, r);
                })
                .await;
            });
            (node.with_node(&a, |s| s[0]), node.take_violations())
        });
        assert_eq!(report.results[0], (45, vec![]));
    }

    #[test]
    fn read_own_write_detected_per_vp() {
        let (mut vp2, mut vp9) = (OwnWrites::default(), OwnWrites::default());
        vp2.begin_phase();
        vp9.begin_phase();
        vp2.wrote((Space::Node, 1, 4));
        vp9.read((Space::Node, 1, 4)); // other VP: fine
        vp2.read((Space::Global, 1, 4)); // other space: fine
        vp2.read((Space::Node, 1, 4)); // own: hazard
        vp2.read((Space::Node, 1, 4)); // deduped
        assert!(vp9.found.is_empty());
        assert_eq!(vp2.found, BTreeSet::from([(Space::Node, 1, 4)]));
    }

    #[test]
    fn read_before_write_is_clean() {
        let mut own = OwnWrites::default();
        own.begin_phase();
        own.read((Space::Global, 0, 3));
        own.wrote((Space::Global, 0, 3));
        assert!(own.found.is_empty());
    }

    /// A new phase forgets the writes of the last one, and — its hazards
    /// taken at the barrier — their "already reported" marks.
    #[test]
    fn end_phase_resets_state() {
        let mut own = OwnWrites::default();
        let mut c = Checker::default();
        own.begin_phase();
        own.wrote((Space::Global, 0, 1));
        own.read((Space::Global, 0, 1));
        c.hazards(&mut own.found, 0, PhaseKind::Node);
        assert!(own.found.is_empty());
        own.begin_phase();
        own.read((Space::Global, 0, 1));
        assert!(own.found.is_empty(), "last phase's write is forgotten");
        own.wrote((Space::Global, 0, 1));
        own.read((Space::Global, 0, 1));
        assert_eq!(own.found.len(), 1, "and so is its report mark");
        c.hazards(&mut own.found, 0, PhaseKind::Node);
        assert_eq!(c.end_phase().len(), 2);
        assert!(
            c.end_phase().is_empty(),
            "the flush empties the phase's list"
        );
    }

    /// The written set against a `HashSet` model: both spaces, array ids on
    /// both sides of the mask's shared top bit (63 and up), runs written
    /// again and meeting, huge indices, and reads of one element or walked
    /// over a span the way a bulk read takes it — stretch by stretch, from
    /// any element of it on, across written runs' edges.
    #[test]
    fn own_writes_match_a_set_model() {
        use crate::testkit::Gen;
        const ARRAYS: [u32; 7] = [0, 1, 62, 63, 64, 65, u32::MAX];
        let mut g = Gen::new(0xC4);
        let mut own = OwnWrites::default();
        let index = |g: &mut Gen| match g.u32_in(0..4) {
            0 => g.u64_in(0..40) << 32 | g.u64() << 61,
            _ => g.u64_in(0..96),
        };
        for phase in 0..50 {
            // The last phase's hazards are taken at its barrier.
            own.found.clear();
            own.begin_phase();
            // A few phases write a single array, leaving the others to the
            // mask.
            let ops = if phase == 0 { 6000 } else { g.usize_in(1..600) };
            let arrays = if phase % 3 == 2 { 1 } else { ARRAYS.len() };
            let (mut written, mut reported) = (HashSet::new(), HashSet::new());
            for _ in 0..ops {
                let space = [Space::Global, Space::Node][g.usize_in(0..2)];
                let (array, start, len) =
                    (ARRAYS[g.usize_in(0..arrays)], index(&mut g), g.u64_in(1..6));
                if g.u32_in(0..3) == 0 {
                    for i in start..start + len {
                        own.wrote((space, array, i));
                        written.insert((space, array, i));
                    }
                    continue;
                }
                let array = ARRAYS[g.usize_in(0..ARRAYS.len())];
                let span = start..start + len;
                let mut at = start + g.u64_in(0..len);
                while at < span.end {
                    let key = (space, array, at);
                    let stretch = if len == 1 {
                        own.read(key);
                        span.clone()
                    } else {
                        match own.reads(space, array) {
                            Some(mut check) => check.stretch(at, span.clone()),
                            None => span.clone(),
                        }
                    };
                    let wrote = |i| written.contains(&(space, array, i));
                    if wrote(at) {
                        assert_eq!(stretch, at..at + 1);
                        reported.insert(key);
                        assert!(own.found.contains(&key));
                    } else if len > 1 {
                        // Every element of it clean, and no clean one left out.
                        assert!(span.start <= stretch.start && stretch.contains(&at));
                        assert!(stretch.end <= span.end && !stretch.clone().any(wrote));
                        assert!(stretch.start == span.start || wrote(stretch.start - 1));
                        assert!(stretch.end == span.end || wrote(stretch.end));
                    }
                    assert_eq!(own.found.len(), reported.len());
                    at = stretch.end;
                }
            }
            assert!(phase > 0 || written.len() > 1000, "phase 0 must grow");
        }
    }

    #[test]
    fn reports_sort_deterministically() {
        let mut c = Checker::default();
        let mut found = BTreeSet::from([(Space::Node, 0, 9), (Space::Global, 3, 9)]);
        c.hazards(&mut found, 4, PhaseKind::Node);
        c.hazards(
            &mut BTreeSet::from([(Space::Global, 3, 9)]),
            1,
            PhaseKind::Node,
        );
        let mut node = c.conflicts_in(Space::Node, 1, PhaseKind::Node);
        node.report(9, (0, 1));
        let mut global = c.conflicts_in(Space::Global, 0, PhaseKind::Global);
        global.report(7, (2, 3));
        global.report(2, (0, 1));
        let keys: Vec<_> = c.end_phase().iter().map(violation_sort_key).collect();
        assert_eq!(
            keys,
            vec![
                (0, Space::Global, 0, 2, 0, 1),
                (0, Space::Global, 0, 7, 2, 3),
                (0, Space::Node, 1, 9, 0, 1),
                (1, Space::Global, 3, 9, 1, 0),
                (1, Space::Global, 3, 9, 4, 0),
                (1, Space::Node, 0, 9, 4, 0),
            ]
        );
    }

    #[test]
    fn display_is_actionable() {
        let v = PhaseViolation::WriteWriteConflict {
            space: Space::Global,
            array: 3,
            index: 17,
            first_vp: 2,
            second_vp: 5,
            phase: PhaseKind::Global,
        };
        let s = v.to_string();
        assert!(s.contains("write-write conflict"));
        assert!(s.contains("element 17"));
        assert!(s.contains("accumulate"));
    }
}
