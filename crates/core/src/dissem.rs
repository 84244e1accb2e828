//! What travels over the dissemination edges by source routing, besides
//! the barrier itself.
//!
//! The edges are [`ppm_simnet::coll::dissemination`]'s — ⌈log₂ N⌉ rounds
//! in which node `me` sends to `me + 2^r` and receives from `me − 2^r`
//! (mod N) — and one definition serves every loop that walks them: the MPI
//! and node barriers ([`ppm_simnet::coll::barrier`]), the clock barrier and
//! its three riders (`exec::barrier`: coherence refreshes, the [`LoadBlock`]
//! here, failover frames) and the sender-notice exchange
//! (`exec::phase_end`, the [`Notices`] here). Everything in this
//! file is pure — no transport, no clock — so the routing argument is
//! tested for all nodes in lockstep without a thread.

use ppm_simnet::coll::Edge;

use crate::bitset::NodeSet;

/// One node's side of the sender-notice exchange (DESIGN.md §17): the
/// `(writer, dest)` notices it currently holds for forwarding, and the
/// writers whose notice was addressed to it.
pub(crate) struct Notices {
    me: usize,
    nodes: usize,
    held: Vec<(u32, u32)>,
    expected: NodeSet,
}

impl Notices {
    /// Start with one notice per peer in `dests` (never `me` itself: an
    /// offset of zero rides no edge).
    pub fn new(me: usize, nodes: usize, dests: impl Iterator<Item = usize>) -> Self {
        Notices {
            me,
            nodes,
            held: dests.map(|d| (me as u32, d as u32)).collect(),
            expected: NodeSet::new(),
        }
    }

    /// Move out the notices that ride `edge`.
    pub fn take_for(&mut self, edge: Edge) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        self.held.retain(|&notice| {
            let rides = edge.carries(self.me, notice.1 as usize, self.nodes);
            if rides {
                out.push(notice);
            }
            !rides
        });
        out
    }

    /// Take in one token's notices: those addressed to this node name an
    /// expected sender, the rest wait for a later round's edge.
    pub fn absorb(&mut self, token: Vec<(u32, u32)>) {
        for (writer, dest) in token {
            if dest as usize == self.me {
                self.expected.insert(writer as usize);
            } else {
                self.held.push((writer, dest));
            }
        }
    }

    /// After the last round: the peers that announced a bundle for this
    /// node.
    pub fn into_expected(self) -> NodeSet {
        debug_assert!(
            self.held.is_empty(),
            "sender notices left in transit: {:?}",
            self.held
        );
        self.expected
    }
}

/// One node's side of the loads allgather riding the clock barrier
/// (DESIGN.md §14), in block order: entry `j` is rank `me − j`. A round's
/// receive appends the sender's equally long block, so after round `r`
/// the node holds ranks `me, me−1, …, me−2^(r+1)+1`, and the final round
/// is cut where it wraps onto ranks already held.
pub(crate) struct LoadBlock {
    me: usize,
    nodes: usize,
    block: Vec<u64>,
}

impl LoadBlock {
    pub fn new(me: usize, nodes: usize, my_load: u64) -> Self {
        let mut block = Vec::with_capacity(nodes);
        block.push(my_load);
        LoadBlock { me, nodes, block }
    }

    /// What this round's barrier message carries.
    pub fn to_send(&self) -> Vec<u64> {
        self.block.clone()
    }

    /// Append the block received from `me − 2^r`.
    pub fn append(&mut self, block: &[u64]) {
        debug_assert_eq!(block.len(), self.block.len(), "loads blocks out of step");
        self.block.extend_from_slice(block);
        self.block.truncate(self.nodes);
    }

    /// After the last round: every `(rank, load)`.
    pub fn by_rank(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        debug_assert_eq!(
            self.block.len(),
            self.nodes,
            "loads sidecar incomplete after the final dissemination round"
        );
        let (me, nodes) = (self.me, self.nodes);
        self.block
            .iter()
            .enumerate()
            .map(move |(back, &load)| ((me + nodes - back) % nodes, load))
    }
}

#[cfg(test)]
mod tests {
    use ppm_simnet::coll::{dissemination, route_offset};

    use super::*;
    use crate::testkit::Gen;

    fn edge(me: usize, nodes: usize, round: usize) -> Edge {
        dissemination(me, nodes).nth(round).unwrap()
    }

    fn rounds(nodes: usize) -> usize {
        let rounds = dissemination(0, nodes).count();
        assert_eq!(rounds as u32, nodes.next_power_of_two().trailing_zeros());
        rounds
    }

    /// Run the sender-notice exchange for all `nodes` nodes in lockstep:
    /// round by round, every node splits off the notices its edge carries,
    /// then every node absorbs the token its predecessor on that edge
    /// produced. `writes[w]` lists `w`'s write destinations. Returns each
    /// node's expected senders.
    fn route_notices(nodes: usize, writes: &[Vec<usize>]) -> Vec<NodeSet> {
        let mut state: Vec<Notices> = writes
            .iter()
            .enumerate()
            .map(|(w, ds)| Notices::new(w, nodes, ds.iter().copied()))
            .collect();
        // Per (writer, dest): hops travelled and deliveries seen.
        let mut hops = vec![0u8; nodes * nodes];
        let mut delivered = vec![0u8; nodes * nodes];
        for r in 0..rounds(nodes) {
            let mut tokens: Vec<Vec<(u32, u32)>> = state
                .iter_mut()
                .enumerate()
                .map(|(me, s)| s.take_for(edge(me, nodes, r)))
                .collect();
            for (me, s) in state.iter_mut().enumerate() {
                let token = std::mem::take(&mut tokens[edge(me, nodes, r).from]);
                for &(w, d) in &token {
                    let cell = w as usize * nodes + d as usize;
                    hops[cell] += 1;
                    delivered[cell] += u8::from(d as usize == me);
                }
                s.absorb(token);
            }
        }
        for (w, ds) in writes.iter().enumerate() {
            for &d in ds {
                let cell = w * nodes + d;
                assert_eq!(delivered[cell], 1, "{nodes} nodes: notice {w} → {d}");
                assert_eq!(
                    u32::from(hops[cell]),
                    route_offset(w, d, nodes).count_ones(),
                    "{nodes} nodes: notice {w} → {d} took a detour"
                );
            }
        }
        assert_eq!(
            delivered.iter().map(|&c| c as usize).sum::<usize>(),
            writes.iter().map(Vec::len).sum::<usize>(),
            "{nodes} nodes: a notice was delivered that nobody sent"
        );
        // `into_expected` asserts nothing is still held.
        state.into_iter().map(Notices::into_expected).collect()
    }

    /// Every notice reaches its destination exactly once, after one hop
    /// per set bit of its offset, nothing is held after the last round,
    /// and each node ends up with exactly the writers that named it — the
    /// transpose of the write-destination sets the old allgather
    /// replicated to every node.
    #[test]
    fn routed_notices_deliver_the_transposed_write_sets() {
        let mut g = Gen::new(0x16);
        for nodes in [2usize, 3, 5, 8, 13, 64, 100, 256, 1000] {
            let others = |w: usize| (0..nodes).filter(move |&d| d != w);
            let hub = nodes / 3;
            let patterns: [(&str, Vec<Vec<usize>>); 4] = [
                ("empty", vec![Vec::new(); nodes]),
                (
                    "all-to-one",
                    (0..nodes)
                        .map(|w| others(w).filter(|&d| d == hub).collect())
                        .collect(),
                ),
                (
                    "all-to-all",
                    (0..nodes).map(|w| others(w).collect()).collect(),
                ),
                (
                    "random sparse",
                    (0..nodes)
                        .map(|w| others(w).filter(|_| g.usize_in(0..nodes) < 3).collect())
                        .collect(),
                ),
            ];
            for (name, writes) in patterns {
                let mut transposed = vec![NodeSet::new(); nodes];
                for (w, ds) in writes.iter().enumerate() {
                    ds.iter().for_each(|&d| transposed[d].insert(w));
                }
                let expected = route_notices(nodes, &writes);
                assert!(expected == transposed, "{nodes} nodes, {name}");
            }
        }
    }

    /// The loads allgather the block-ordered vector replaced: every node
    /// forwards every `(rank, load)` pair it knows each round and dedups
    /// what it receives. Returns each node's loads indexed by rank.
    fn pair_dedup_loads(loads: &[u64]) -> Vec<Vec<u64>> {
        let nodes = loads.len();
        let mut pairs: Vec<Vec<(usize, u64)>> =
            (0..nodes).map(|me| vec![(me, loads[me])]).collect();
        for r in 0..rounds(nodes) {
            let sent = pairs.clone();
            for (me, acc) in pairs.iter_mut().enumerate() {
                for &(n, l) in &sent[edge(me, nodes, r).from] {
                    if !acc.iter().any(|&(known, _)| known == n) {
                        acc.push((n, l));
                    }
                }
            }
        }
        pairs
            .into_iter()
            .map(|acc| {
                assert_eq!(acc.len(), nodes);
                let mut by_rank = vec![0; nodes];
                acc.into_iter().for_each(|(n, l)| by_rank[n] = l);
                by_rank
            })
            .collect()
    }

    /// Block order needs no rank labels and no dedup, and the final
    /// round's block is cut where it wraps onto ranks already held (every
    /// node count below but 8 and 64 truncates).
    #[test]
    fn block_ordered_loads_match_the_pair_dedup_allgather() {
        for nodes in [2usize, 3, 5, 8, 13, 64, 100] {
            let truth: Vec<u64> = (0..nodes as u64).map(|n| 1000 + n * n).collect();
            let mut blocks: Vec<LoadBlock> = (0..nodes)
                .map(|me| LoadBlock::new(me, nodes, truth[me]))
                .collect();
            for r in 0..rounds(nodes) {
                let sent: Vec<Vec<u64>> = blocks.iter().map(LoadBlock::to_send).collect();
                for (me, block) in blocks.iter_mut().enumerate() {
                    let edge = edge(me, nodes, r);
                    assert_eq!(sent[me].len(), edge.stride, "{nodes} nodes, round {r}");
                    block.append(&sent[edge.from]);
                }
            }
            let reference = pair_dedup_loads(&truth);
            for (me, block) in blocks.iter().enumerate() {
                let mut by_rank = vec![0; nodes];
                let mut seen = 0;
                for (rank, load) in block.by_rank() {
                    by_rank[rank] = load;
                    seen += 1;
                }
                assert_eq!(seen, nodes, "{nodes} nodes: node {me} is incomplete");
                assert_eq!(by_rank, reference[me], "{nodes} nodes: node {me}");
                assert_eq!(by_rank, truth);
            }
        }
    }
}
