//! The PPM runtime's cost model, one table (DESIGN.md §6): what a shared
//! access, a served element, a node barrier, a bundle's framing, a lost
//! envelope, a crash and a streaming copy cost on top of the machine's own
//! terms ([`ppm_simnet::CoreParams`], [`ppm_simnet::NetParams`]). The
//! per-access overhead is the paper's "runtime library overhead" (§4.5): it
//! dominates at small node counts and fades as communication grows — the
//! mechanism behind Figure 1's crossover.
//!
//! Every constant has a row in DESIGN.md §6, and a test here fails when a
//! row is missing or shows another value.

use ppm_simnet::{CoreParams, SimTime};

/// Requester-side cost per global-shared element access: runtime
/// translation and handler.
pub(crate) const SV_OVERHEAD: SimTime = SimTime::from_ns(7);
/// Cost per node-shared element access (the physical shared-memory path).
pub(crate) const NODE_SV_OVERHEAD: SimTime = SimTime::from_ps(2_500);
/// Owner-side cost per remote element served (read), applied (write) or
/// installed (migration).
pub(crate) const SERVICE_OVERHEAD: SimTime = SimTime::from_ns(5);
/// A node-level phase barrier: the node's cores synchronizing in shared
/// memory.
pub(crate) const NODE_BARRIER: SimTime = SimTime::from_ns(400);

/// Wire bytes of a bundle's framing: read requests, responses, write
/// bundles and migration bundles.
pub(crate) const BUNDLE_HEADER_BYTES: usize = 16;
/// Wire bytes per read-request entry (array id + index + slot,
/// delta-compressed).
pub(crate) const REQ_ENTRY_BYTES: usize = 12;
/// Wire bytes per write entry besides its value; combining is charged as
/// done sender-side and the writer's rank tag rides free.
pub(crate) const WRITE_ENTRY_BYTES: usize = 9;
/// Framing bytes every element access pays as its own message when
/// bundling is off (the "naive runtime" ablation).
pub(crate) const UNBUNDLED_ENTRY_BYTES: u64 = 16;
/// Wire bytes of a refresh part's header; the array id is amortized into
/// it.
pub(crate) const REFRESH_PART_HEADER_BYTES: u64 = 8;
/// Wire bytes per refresh index: ascending, delta-varint encoded, no slot.
pub(crate) const REFRESH_INDEX_BYTES: u64 = 4;

/// Reliability: the initial retransmission timeout (simulated time).
pub(crate) const RTO: SimTime = SimTime::from_us(25);
/// Reliability: the cap of the exponential retransmission backoff.
pub(crate) const RTO_MAX: SimTime = SimTime::from_us(200);
/// Reliability: a receiver counts one cumulative ack per this many
/// envelopes on a link.
pub(crate) const ACK_EVERY: u64 = 4;
/// Wire bytes of a cumulative ack, charged to `bytes_sent` (acks are
/// counters; no ack message travels).
pub(crate) const ACK_BYTES: u64 = 12;

/// Crash recovery: the reboot a node pays when it recovers from a seeded
/// crash at a phase boundary.
pub(crate) const CRASH_REBOOT: SimTime = SimTime::from_ms(1);
/// Failure detector: the simulated time a survivor retransmits into a dead
/// peer's silence before suspecting it (charged once per detected death).
pub(crate) const SUSPECT_TIMEOUT: SimTime = SimTime::from_us(400);
/// A streaming copy (snapshot capture, restore, recovery-line advance)
/// pays one memory operation per line of this many bytes.
pub(crate) const COPY_LINE_BYTES: u64 = 64;

// A zero timeout would suspect before a retransmission could fail; a zero
// ack interval would ack on every envelope without saying so.
const _: () = assert!(SUSPECT_TIMEOUT.as_ps() > 0 && ACK_EVERY >= 1);

/// A streaming copy of `bytes`: cache-line copies, not random-access
/// element operations.
pub(crate) fn copy_time(core: &CoreParams, bytes: u64) -> SimTime {
    core.mem_ops(bytes / COPY_LINE_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A duration as DESIGN.md §6 writes it: in the largest unit it
    /// reaches, without trailing zeros.
    fn time(t: SimTime) -> String {
        let ps = t.as_ps() as f64;
        let (scale, unit) = [(1e9, "ms"), (1e6, "µs"), (1e3, "ns")]
            .into_iter()
            .find(|&(scale, _)| ps >= scale)
            .unwrap_or((1.0, "ps"));
        format!("{} {unit}", ps / scale)
    }

    /// A size as DESIGN.md §6 writes it.
    fn bytes(b: impl std::fmt::Display) -> String {
        format!("{b} B")
    }

    /// Every constant of this module and its value as §6 shows it.
    fn table() -> Vec<(&'static str, String)> {
        vec![
            ("SV_OVERHEAD", time(SV_OVERHEAD)),
            ("NODE_SV_OVERHEAD", time(NODE_SV_OVERHEAD)),
            ("SERVICE_OVERHEAD", time(SERVICE_OVERHEAD)),
            ("NODE_BARRIER", time(NODE_BARRIER)),
            ("BUNDLE_HEADER_BYTES", bytes(BUNDLE_HEADER_BYTES)),
            ("REQ_ENTRY_BYTES", bytes(REQ_ENTRY_BYTES)),
            ("WRITE_ENTRY_BYTES", bytes(WRITE_ENTRY_BYTES)),
            ("UNBUNDLED_ENTRY_BYTES", bytes(UNBUNDLED_ENTRY_BYTES)),
            (
                "REFRESH_PART_HEADER_BYTES",
                bytes(REFRESH_PART_HEADER_BYTES),
            ),
            ("REFRESH_INDEX_BYTES", bytes(REFRESH_INDEX_BYTES)),
            ("RTO", time(RTO)),
            ("RTO_MAX", time(RTO_MAX)),
            ("ACK_EVERY", format!("{ACK_EVERY} envelopes")),
            ("ACK_BYTES", bytes(ACK_BYTES)),
            ("CRASH_REBOOT", time(CRASH_REBOOT)),
            ("SUSPECT_TIMEOUT", time(SUSPECT_TIMEOUT)),
            ("COPY_LINE_BYTES", bytes(COPY_LINE_BYTES)),
        ]
    }

    /// The table above lists every constant this file declares, so a new
    /// one cannot skip its §6 row.
    #[test]
    fn the_table_lists_every_constant() {
        let declared: Vec<&str> = (include_str!("cost.rs").lines())
            .filter_map(|l| l.strip_prefix("pub(crate) const ")?.split(':').next())
            .collect();
        let listed: Vec<&str> = table().iter().map(|&(name, _)| name).collect();
        assert_eq!(declared, listed);
    }

    /// DESIGN.md §6 has one row per constant, `| `NAME` | value | basis |`,
    /// and the value is the code's.
    #[test]
    fn design_section_6_shows_every_constant() {
        let design = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"));
        let start = design.find("\n## 6.").expect("DESIGN.md has a §6");
        let end = start + design[start..].find("\n## 7.").expect("and a §7");
        let section = &design[start..end];
        for (name, value) in table() {
            let row = format!("| `{name}` | ");
            let mut rows = section.lines().filter_map(|l| l.strip_prefix(&row));
            let shown = rows.next().and_then(|rest| rest.split(" |").next());
            assert_eq!(
                shown,
                Some(value.as_str()),
                "DESIGN.md §6 row `{name}` (left) against cost.rs (right)"
            );
            assert!(rows.next().is_none(), "DESIGN.md §6 has two `{name}` rows");
        }
    }
}
