//! Shortest-path ECMP port masks, computed bit-parallel over destinations.
//!
//! Every routing table in the reproduction — Opera's per-slice
//! low-latency tables and the static Clos / expander baselines — is built
//! from one input shape, a [`SlotAdjacency`]: each node has the same
//! number of port *slots*, and slot `p` of node `v` either names the
//! neighbour reached through port `p` or is a hole (a reconfiguring
//! circuit switch, a self-matched rack, a link marked bad, or a node with
//! fewer ports than the widest one).
//!
//! [`SlotAdjacency::ecmp_masks`] returns one bit mask per `(node,
//! destination)` pair: bit `p` is set when slot `p` starts a shortest
//! path. Reachability levels are kept as word bitsets over destinations,
//! `R_k[v] = R_{k-1}[v] ∪ ⋃_p R_{k-1}[nbr_p(v)]`, up to the diameter; a
//! destination at distance `d` from `cur` is reached through slot `p`
//! exactly when it lies in `R_{d-1}[nbr_p(cur)]`. One pass over a node's
//! slots per level yields its whole row of masks, 64 destinations per
//! word operation, with no per-destination BFS.

use crate::graph::{Graph, NodeId};

/// Most slots a node may have: masks are `u32`.
const MAX_SLOTS: usize = 32;

/// Slot with no neighbour.
const HOLE: u32 = u32::MAX;

/// Neighbour-by-slot adjacency: `slots` ports per node, each a neighbour
/// or a hole.
#[derive(Debug, Clone)]
pub struct SlotAdjacency {
    nodes: usize,
    slots: usize,
    /// `nbr[v * slots + p]` = neighbour through slot `p` of `v`, or `HOLE`.
    nbr: Vec<u32>,
}

impl SlotAdjacency {
    /// `nodes` nodes with `slots` ports each, all holes.
    ///
    /// # Panics
    /// Panics if `slots > 32` (masks are `u32`).
    pub fn new(nodes: usize, slots: usize) -> Self {
        assert!(
            slots <= MAX_SLOTS,
            "{slots} slots per node; ECMP masks hold at most {MAX_SLOTS}"
        );
        assert!(nodes < HOLE as usize, "node ids must fit in u32");
        SlotAdjacency {
            nodes,
            slots,
            nbr: vec![HOLE; nodes * slots],
        }
    }

    /// Slots of `g`'s node `v` are its adjacency-list indices.
    pub fn from_graph(g: &Graph) -> Self {
        let slots = (0..g.len()).map(|v| g.degree(v)).max().unwrap_or(0);
        let mut adj = Self::new(g.len(), slots);
        for v in 0..g.len() {
            for (p, e) in g.edges(v).iter().enumerate() {
                adj.connect(v, p, e.to);
            }
        }
        adj
    }

    /// Slots per node.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Point slot `slot` of `v` at `to` (one direction only).
    pub fn connect(&mut self, v: NodeId, slot: usize, to: NodeId) {
        assert!(to < self.nodes, "neighbour {to} out of range");
        self.row_mut(v)[slot] = to as u32;
    }

    /// Turn slot `slot` of `v` into a hole.
    pub fn cut(&mut self, v: NodeId, slot: usize) {
        self.row_mut(v)[slot] = HOLE;
    }

    /// Neighbour through slot `slot` of `v`, `None` for a hole.
    pub fn neighbour(&self, v: NodeId, slot: usize) -> Option<NodeId> {
        let w = self.row(v)[slot];
        (w != HOLE).then_some(w as NodeId)
    }

    fn row(&self, v: NodeId) -> &[u32] {
        &self.nbr[v * self.slots..(v + 1) * self.slots]
    }

    fn row_mut(&mut self, v: NodeId) -> &mut [u32] {
        &mut self.nbr[v * self.slots..(v + 1) * self.slots]
    }

    /// Shortest-path port masks toward destinations `0..dsts` (the first
    /// `dsts` nodes), written to `out[v * dsts + dst]` for every node `v`:
    /// bit `p` is set when slot `p` of `v` lies on a shortest path from
    /// `v` to `dst`. The mask is empty when `v == dst` or `dst` is
    /// unreachable.
    ///
    /// # Panics
    /// Panics if `dsts > nodes` or `out.len() != nodes * dsts`.
    pub fn ecmp_masks(&self, dsts: usize, out: &mut [u32]) {
        assert!(
            dsts <= self.nodes,
            "{dsts} destinations over {} nodes",
            self.nodes
        );
        assert_eq!(out.len(), self.nodes * dsts, "mask buffer size");
        let words = dsts.div_ceil(64);
        // levels[k][v * words..][..words] = destinations within k hops of v.
        let mut r0 = vec![0u64; self.nodes * words];
        for d in 0..dsts {
            r0[d * words + d / 64] |= 1 << (d % 64);
        }
        let mut levels = vec![r0];
        loop {
            let prev = &levels[levels.len() - 1];
            let mut next = prev.clone();
            for v in 0..self.nodes {
                for &w in self.row(v) {
                    if w == HOLE {
                        continue;
                    }
                    let src = &prev[w as usize * words..][..words];
                    for (dst, &bits) in next[v * words..][..words].iter_mut().zip(src) {
                        *dst |= bits;
                    }
                }
            }
            if next == *prev {
                break;
            }
            levels.push(next);
        }
        // Per node: the destinations each slot leads toward on a shortest
        // path, scattered into a row of masks padded to whole words.
        let mut via = vec![0u64; words];
        let mut padded = vec![[0u32; 64]; words];
        for v in 0..self.nodes {
            padded.fill([0; 64]);
            for (p, &w) in self.row(v).iter().enumerate() {
                if w == HOLE {
                    continue;
                }
                let (mine, theirs) = (v * words, w as usize * words);
                via.fill(0);
                for k in 1..levels.len() {
                    let (near, reach) = (&levels[k - 1], &levels[k]);
                    for (i, bits) in via.iter_mut().enumerate() {
                        *bits |= reach[mine + i] & !near[mine + i] & near[theirs + i];
                    }
                }
                for (masks, &bits) in padded.iter_mut().zip(&via) {
                    let mut bits = bits;
                    while bits != 0 {
                        masks[bits.trailing_zeros() as usize] |= 1 << p;
                        bits &= bits - 1;
                    }
                }
            }
            out[v * dsts..][..dsts].copy_from_slice(&padded.as_flattened()[..dsts]);
        }
    }
}

/// A set of ECMP ports (slot indices) held as a bit mask; iteration and
/// [`EcmpSet::nth`] go in ascending port order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EcmpSet(u32);

impl EcmpSet {
    /// The set whose bit `p` marks port `p`.
    pub fn from_mask(mask: u32) -> Self {
        EcmpSet(mask)
    }

    /// The underlying bit mask.
    pub fn mask(self) -> u32 {
        self.0
    }

    /// Number of ports.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True when no port is in the set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The `i`-th port in ascending order.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn nth(self, i: usize) -> usize {
        let mut m = self.0;
        for _ in 0..i {
            m &= m.wrapping_sub(1);
        }
        assert!(
            m != 0,
            "ECMP index {i} out of range for {} ports",
            self.len()
        );
        m.trailing_zeros() as usize
    }

    /// Ports in ascending order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut m = self.0;
        std::iter::from_fn(move || {
            (m != 0).then(|| {
                let p = m.trailing_zeros() as usize;
                m &= m - 1;
                p
            })
        })
    }

    /// The first `n` ports in ascending order.
    pub fn truncated(self, n: usize) -> Self {
        // Ports below `n` alone can never number more than `n`.
        if n >= 32 || self.0 >> n == 0 || self.len() <= n {
            self
        } else {
            EcmpSet(self.0 & ((1 << self.nth(n)) - 1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn masks(g: &Graph, dsts: usize) -> Vec<u32> {
        let adj = SlotAdjacency::from_graph(g);
        let mut out = vec![0; g.len() * dsts];
        adj.ecmp_masks(dsts, &mut out);
        out
    }

    fn ring(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_link(i, (i + 1) % n, 0);
        }
        g
    }

    #[test]
    fn ring_next_hops_are_shortest() {
        let g = ring(6);
        let m = masks(&g, 6);
        // Node 0 is 3 hops from node 3: both directions are shortest.
        assert_eq!(EcmpSet::from_mask(m[3]).len(), 2);
        // Node 2 must go to 3 directly.
        let hop = EcmpSet::from_mask(m[2 * 6 + 3]);
        assert_eq!(hop.len(), 1);
        assert_eq!(g.edges(2)[hop.nth(0)].to, 3);
        // A destination has no next hops to itself.
        assert!(EcmpSet::from_mask(m[3 * 6 + 3]).is_empty());
    }

    #[test]
    fn parallel_links_are_all_shortest() {
        let mut g = Graph::new(2);
        g.add_link(0, 1, 0);
        g.add_link(0, 1, 1);
        assert_eq!(masks(&g, 2)[1], 0b11);
    }

    #[test]
    fn holes_and_unreachable_destinations() {
        // 0 - 1 - 2 chain through slot 0 / slot 1; node 3 isolated.
        let mut adj = SlotAdjacency::new(4, 2);
        adj.connect(0, 1, 1);
        adj.connect(1, 0, 0);
        adj.connect(1, 1, 2);
        adj.connect(2, 0, 1);
        let mut m = vec![0; 4 * 4];
        adj.ecmp_masks(4, &mut m);
        assert_eq!(m[2], 0b10, "0 -> 2 leaves through slot 1");
        assert_eq!(m[3], 0, "3 is unreachable");
        adj.cut(1, 1);
        assert_eq!(adj.neighbour(1, 1), None);
        adj.ecmp_masks(4, &mut m);
        assert_eq!(m[2], 0, "cut link disconnects 0 from 2");
        assert_eq!(m[2 * 4], 0b1, "2 -> 0 still routes: cuts are one-way");
    }

    #[test]
    fn destinations_may_be_a_prefix_of_nodes() {
        // Star: leaves 0..3 hang off hub 3; only leaves are destinations.
        let mut g = Graph::new(4);
        for leaf in 0..3 {
            g.add_link(leaf, 3, 0);
        }
        let m = masks(&g, 3);
        assert_eq!(m[1], 0b1, "leaf 0 reaches leaf 1 via the hub");
        assert_eq!(m[3 * 3 + 2], 0b100, "hub reaches leaf 2 on its third port");
    }

    #[test]
    fn ecmp_set_order_and_truncation() {
        let s = EcmpSet::from_mask(0b1011_0100);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 4, 5, 7]);
        assert_eq!(
            (0..s.len()).map(|i| s.nth(i)).collect::<Vec<_>>(),
            vec![2, 4, 5, 7]
        );
        assert_eq!(s.truncated(2).iter().collect::<Vec<_>>(), vec![2, 4]);
        assert_eq!(s.truncated(4), s);
        assert!(EcmpSet::default().truncated(3).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn nth_past_the_end_panics() {
        EcmpSet::from_mask(0b101).nth(2);
    }
}
