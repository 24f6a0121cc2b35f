//! Per-slice forwarding tables (§4.3).
//!
//! A ToR holds two tables per slice: a *low-latency* table giving the
//! ECMP set of uplinks on shortest expander paths toward every destination
//! rack, and a *bulk* table giving the uplink — if any — whose circuit
//! reaches the destination rack directly this slice.
//!
//! Tables are precomputed at build time (Opera fixes its schedule at
//! design time; §3.3) and rebuilt whenever the hello protocol marks a
//! link bad (§3.6.2). Both are read off one [`SlotAdjacency`] per slice:
//! slot `j` of rack `r` is its circuit through switch `j`, or a hole when
//! `j` is reconfiguring, `r` is self-matched, or either end of the
//! circuit is a failed `(rack, uplink)`.
//!
//! The low-latency table stores one `u16` port mask per `(slice, cur,
//! dst)`: bit `j` set means uplink `j` starts a shortest path from `cur`
//! to `dst`. Masks come from the bit-parallel
//! [`SlotAdjacency::ecmp_masks`] and keep only their first [`MAX_ECMP`]
//! uplinks in ascending port order, so a route draw `rng.index(len)`
//! picks the same uplink as a list of the lowest-numbered choices would.
//! At the paper's 648-host scale (108 slices × 108 × 108 racks) that is
//! 2.5 MB, against 11.3 MB for `[u8; MAX_ECMP]` lists plus a count byte.

use topo::ecmp::{EcmpSet, SlotAdjacency};
use topo::opera::OperaTopology;

/// Maximum ECMP fanout stored per entry.
pub const MAX_ECMP: usize = 8;

/// Sentinel: no uplink.
pub const NO_PORT: u8 = u8::MAX;

/// Slice `s`'s routable circuits minus those with a failed `(rack,
/// uplink)` transceiver at either end (§3.6.2: route around components
/// marked bad).
fn routable(topo: &OperaTopology, s: usize, bad: &[(usize, usize)]) -> SlotAdjacency {
    let mut adj = topo.slice(s).slot_adjacency();
    for &(rack, sw) in bad {
        if let Some(peer) = adj.neighbour(rack, sw) {
            adj.cut(rack, sw);
            adj.cut(peer, sw);
        }
    }
    adj
}

/// Low-latency next-hop table for every slice of a cycle: one `u16`
/// uplink mask per `(slice, cur, dst)`, at most [`MAX_ECMP`] bits set,
/// empty when `cur == dst` or `dst` is unreachable that slice.
#[derive(Debug, Clone)]
pub struct LowLatencyTables {
    racks: usize,
    slices: usize,
    /// `[(slice * racks + cur) * racks + dst]` → uplink mask.
    masks: Vec<u16>,
}

impl LowLatencyTables {
    /// Build tables for all slices of `topo`.
    pub fn build(topo: &OperaTopology) -> Self {
        Self::build_with_failures(topo, &[])
    }

    /// Build tables routing around failed `(rack, uplink)` transceivers.
    ///
    /// # Panics
    /// Panics if `topo` has more than 16 circuit switches.
    pub fn build_with_failures(topo: &OperaTopology, bad: &[(usize, usize)]) -> Self {
        assert!(
            topo.switches() <= 16,
            "u16 uplink masks hold at most 16 circuit switches, not {}",
            topo.switches()
        );
        let racks = topo.racks();
        let slices = topo.slices_per_cycle();
        let mut masks = vec![0u16; slices * racks * racks];
        let mut full = vec![0u32; racks * racks];
        for (s, table) in masks.chunks_exact_mut(racks * racks).enumerate() {
            routable(topo, s, bad).ecmp_masks(racks, &mut full);
            for (m, &f) in table.iter_mut().zip(&full) {
                *m = EcmpSet::from_mask(f).truncated(MAX_ECMP).mask() as u16;
            }
        }
        LowLatencyTables {
            racks,
            slices,
            masks,
        }
    }

    /// ECMP uplink choices at `cur` toward `dst` during `slice`, in
    /// ascending uplink order.
    /// Empty when `cur == dst` or `dst` is unreachable this slice.
    pub fn next_hops(&self, slice: usize, cur: usize, dst: usize) -> EcmpSet {
        let idx = ((slice % self.slices) * self.racks + cur) * self.racks + dst;
        EcmpSet::from_mask(u32::from(self.masks[idx]))
    }

    /// Number of racks.
    pub fn racks(&self) -> usize {
        self.racks
    }

    /// Slices covered.
    pub fn slices(&self) -> usize {
        self.slices
    }

    /// Total number of installed rules (Table 1 accounting: one rule per
    /// (slice, dst, cur) entry with at least one hop, counted at one ToR).
    pub fn rules_per_tor(&self) -> u64 {
        // Each ToR `cur` stores one rule per (slice, dst); count entries
        // with at least one choice for rack 0 as the representative.
        let mut rules = 0;
        for s in 0..self.slices {
            for dst in 0..self.racks {
                if !self.next_hops(s, 0, dst).is_empty() {
                    rules += 1;
                }
            }
        }
        rules
    }
}

/// Bulk (direct-circuit) table: `uplink[(slice * racks + cur) * racks +
/// dst]`, `NO_PORT` when no direct circuit exists in that slice.
#[derive(Debug, Clone)]
pub struct BulkTables {
    racks: usize,
    slices: usize,
    uplink: Vec<u8>,
}

impl BulkTables {
    /// Build from the slice views.
    pub fn build(topo: &OperaTopology) -> Self {
        Self::build_with_failures(topo, &[])
    }

    /// Build, excluding circuits using failed `(rack, uplink)` ports.
    pub fn build_with_failures(topo: &OperaTopology, bad: &[(usize, usize)]) -> Self {
        let racks = topo.racks();
        let slices = topo.slices_per_cycle();
        let mut uplink = vec![NO_PORT; slices * racks * racks];
        for s in 0..slices {
            let adj = routable(topo, s, bad);
            for cur in 0..racks {
                for sw in 0..adj.slots() {
                    if let Some(dst) = adj.neighbour(cur, sw) {
                        uplink[(s * racks + cur) * racks + dst] = sw as u8;
                    }
                }
            }
        }
        BulkTables {
            racks,
            slices,
            uplink,
        }
    }

    /// Uplink with a direct circuit `cur → dst` during `slice`, if any.
    pub fn direct_uplink(&self, slice: usize, cur: usize, dst: usize) -> Option<usize> {
        let v = self.uplink[((slice % self.slices) * self.racks + cur) * self.racks + dst];
        if v == NO_PORT {
            None
        } else {
            Some(v as usize)
        }
    }

    /// All `(dst, uplink)` direct circuits of `cur` during `slice`, in
    /// ascending `dst` order.
    pub fn circuits_of(
        &self,
        slice: usize,
        cur: usize,
    ) -> impl Iterator<Item = (usize, usize)> + '_ {
        let row = ((slice % self.slices) * self.racks + cur) * self.racks;
        self.uplink[row..row + self.racks]
            .iter()
            .enumerate()
            .filter(|&(_, &u)| u != NO_PORT)
            .map(|(dst, &u)| (dst, u as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topo::opera::OperaParams;

    fn topo() -> OperaTopology {
        OperaTopology::generate(
            OperaParams {
                racks: 24,
                uplinks: 4,
                hosts_per_rack: 4,
                groups: 1,
            },
            11,
        )
    }

    #[test]
    fn low_latency_tables_cover_all_pairs() {
        let t = topo();
        let tables = LowLatencyTables::build(&t);
        for s in 0..t.slices_per_cycle() {
            for cur in 0..t.racks() {
                for dst in 0..t.racks() {
                    if cur == dst {
                        assert!(tables.next_hops(s, cur, dst).is_empty());
                    } else {
                        assert!(
                            !tables.next_hops(s, cur, dst).is_empty(),
                            "slice {s}: {cur}->{dst} has no next hop"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn next_hops_avoid_reconfiguring_switch() {
        let t = topo();
        let tables = LowLatencyTables::build(&t);
        for s in 0..t.slices_per_cycle() {
            let bad = t.reconfiguring(s);
            for cur in 0..t.racks() {
                for dst in 0..t.racks() {
                    for p in tables.next_hops(s, cur, dst).iter() {
                        assert!(
                            !bad.contains(&p),
                            "slice {s} routes via reconfiguring switch {p}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn next_hops_make_progress() {
        // Following any table choice must strictly reduce BFS distance.
        let t = topo();
        let tables = LowLatencyTables::build(&t);
        let s = 3;
        let g = t.slice(s).graph();
        for dst in 0..t.racks() {
            let dist = g.bfs_distances(dst);
            for cur in 0..t.racks() {
                if cur == dst {
                    continue;
                }
                for p in tables.next_hops(s, cur, dst).iter() {
                    let m = t.slice(s).matching_of(p);
                    let nxt = m.partner(cur);
                    assert_eq!(dist[nxt] + 1, dist[cur], "not a shortest-path hop");
                }
            }
        }
    }

    #[test]
    fn bulk_tables_match_direct_slices() {
        let t = topo();
        let tables = BulkTables::build(&t);
        for a in 0..t.racks() {
            for b in 0..t.racks() {
                if a == b {
                    continue;
                }
                let slices_with_direct: Vec<usize> = (0..t.slices_per_cycle())
                    .filter(|&s| tables.direct_uplink(s, a, b).is_some())
                    .collect();
                assert_eq!(slices_with_direct, t.direct_slices(a, b), "pair ({a},{b})");
            }
        }
    }

    #[test]
    fn circuits_count_per_slice() {
        let t = topo();
        let tables = BulkTables::build(&t);
        // With u=4 switches and 1 reconfiguring, each rack has at most 3
        // direct circuits (self-pairings reduce the count).
        for s in 0..t.slices_per_cycle() {
            for cur in 0..t.racks() {
                let c: Vec<(usize, usize)> = tables.circuits_of(s, cur).collect();
                assert!(c.len() <= 3, "slice {s} rack {cur}: {} circuits", c.len());
                assert!(c.windows(2).all(|w| w[0].0 < w[1].0), "ascending dst");
                for (dst, u) in c {
                    assert_eq!(tables.direct_uplink(s, cur, dst), Some(u));
                }
            }
        }
    }

    #[test]
    fn rules_per_tor_scale() {
        let t = topo();
        let tables = LowLatencyTables::build(&t);
        // 24 slices × 23 destinations = 552 low-latency rules.
        assert_eq!(tables.rules_per_tor(), 24 * 23);
    }
}
