//! Packet-level static baselines: folded Clos and static expander, both
//! running NDP with per-packet multipath spraying and (optionally ideal)
//! priority queuing — the comparison networks of §5.
//!
//! Node layout: hosts `0..H`, then one node per switch-graph vertex
//! (expander: one per rack; Clos: ToRs, aggs, cores). Fabric port `p` of a
//! switch node with `d` attached hosts maps to adjacency-list entry
//! `p − d` of its graph vertex, so routing tables store adjacency indices.

use crate::tokens::{decode, encode, schedule_actions, Token};
use netsim::fabric::{Fabric, LinkSpec, NetEvent, QueueConfig};
use netsim::{FlowClass, FlowTracker, NetLogic, NetWorld, Packet, PacketKind};
use simkit::engine::EventContext;
use simkit::{SimRng, Simulator};
use topo::clos::{ClosParams, ClosTopology};
use topo::ecmp::{EcmpSet, SlotAdjacency};
use topo::expander::{ExpanderParams, ExpanderTopology};
use transport::{Transport, TransportKind};
use workloads::FlowSpec;

/// Which static topology to build.
#[derive(Debug, Clone)]
pub enum StaticTopologyKind {
    /// A static expander over racks.
    Expander(ExpanderParams),
    /// A three-tier folded Clos.
    FoldedClos(ClosParams),
}

/// Configuration of a static-network simulation.
#[derive(Debug, Clone)]
pub struct StaticNetConfig {
    /// Topology.
    pub kind: StaticTopologyKind,
    /// Link rate / propagation delay.
    pub link: LinkSpec,
    /// Queue configuration (trimming on).
    pub queues: QueueConfig,
    /// Low-latency transport (sender kind + parameters).
    pub transport: TransportKind,
    /// Seed for topology + routing randomness.
    pub seed: u64,
}

impl StaticNetConfig {
    /// Small expander for tests: 8 racks × 4 hosts, u = 4.
    pub fn small_expander() -> Self {
        StaticNetConfig {
            kind: StaticTopologyKind::Expander(ExpanderParams {
                racks: 8,
                uplinks: 4,
                hosts_per_rack: 4,
            }),
            link: LinkSpec::paper_default(),
            queues: QueueConfig::builder().build(),
            transport: TransportKind::paper_default(),
            seed: 1,
        }
    }

    /// The paper's 650-host u=7 expander.
    pub fn paper_expander_650() -> Self {
        StaticNetConfig {
            kind: StaticTopologyKind::Expander(ExpanderParams::example_650()),
            link: LinkSpec::paper_default(),
            queues: QueueConfig::builder().build(),
            transport: TransportKind::paper_default(),
            seed: 1,
        }
    }

    /// The paper's 648-host 3:1 folded Clos.
    pub fn paper_clos_648() -> Self {
        StaticNetConfig {
            kind: StaticTopologyKind::FoldedClos(ClosParams::example_648()),
            link: LinkSpec::paper_default(),
            queues: QueueConfig::builder().build(),
            transport: TransportKind::paper_default(),
            seed: 1,
        }
    }
}

/// Static-network logic: NDP hosts + per-packet random shortest-path
/// forwarding on the switch graph.
pub struct StaticLogic {
    /// Configuration (kept for introspection by harnesses).
    pub cfg: StaticNetConfig,
    /// Hosts per ToR and ToR count (ToRs are graph nodes `0..tors`).
    hosts_per_tor: usize,
    tors: usize,
    hosts: Vec<Box<dyn Transport>>,
    tracker: FlowTracker,
    rng: SimRng,
    /// `next_hops[vertex * tors + dst_tor]` → adjacency indices on
    /// shortest paths, as an ECMP mask.
    next_hops: Vec<u32>,
    pending: Vec<FlowSpec>,
    next_flow: usize,
    /// Packets dropped with no route (should stay zero).
    pub routing_drops: u64,
}

/// Complete simulated static network.
pub type StaticNet = Simulator<NetWorld<StaticLogic>>;

impl StaticLogic {
    fn hosts_total(&self) -> usize {
        self.tors * self.hosts_per_tor
    }
    fn tor_of_host(&self, host: usize) -> usize {
        host / self.hosts_per_tor
    }
    /// Fabric node id of graph vertex `vertex`.
    pub fn switch_node(&self, vertex: usize) -> usize {
        self.hosts_total() + vertex
    }
    /// Fabric port at a switch for adjacency entry `i`: ToRs reserve the
    /// first `hosts_per_tor` ports for hosts.
    fn adj_port(&self, vertex: usize, i: usize) -> usize {
        if vertex < self.tors {
            self.hosts_per_tor + i
        } else {
            i
        }
    }

    /// Results.
    pub fn tracker(&self) -> &FlowTracker {
        &self.tracker
    }

    /// Mutable tracker access (throughput bins).
    pub fn tracker_mut(&mut self) -> &mut FlowTracker {
        &mut self.tracker
    }

    fn inject_due_flows(&mut self, fabric: &mut Fabric, ctx: &mut EventContext<'_, NetEvent>) {
        while self.next_flow < self.pending.len() && self.pending[self.next_flow].start <= ctx.now()
        {
            let spec = self.pending[self.next_flow];
            self.next_flow += 1;
            let id = self.tracker.register(
                spec.src,
                spec.dst,
                spec.size,
                FlowClass::LowLatency,
                ctx.now(),
            );
            let actions = self.hosts[spec.src].start_flow(fabric, ctx, id, spec.dst, spec.size);
            schedule_actions(ctx, spec.src, actions);
        }
        if self.next_flow < self.pending.len() {
            ctx.schedule_at(
                self.pending[self.next_flow].start,
                NetEvent::Timer {
                    token: encode(Token::FlowArrival),
                },
            );
        }
    }
}

impl NetLogic for StaticLogic {
    fn on_arrive(
        &mut self,
        fabric: &mut Fabric,
        ctx: &mut EventContext<'_, NetEvent>,
        node: usize,
        _port: usize,
        packet: Packet,
    ) {
        if node < self.hosts_total() {
            // Host: hand to the transport (bulk data never exists here).
            debug_assert!(!matches!(packet.kind, PacketKind::BulkData { .. }));
            let actions = self.hosts[node].on_packet(fabric, ctx, &mut self.tracker, packet);
            schedule_actions(ctx, node, actions);
            return;
        }
        let vertex = node - self.hosts_total();
        let dst_tor = self.tor_of_host(packet.dst);
        if vertex == dst_tor {
            let down = packet.dst % self.hosts_per_tor;
            fabric.send(ctx, node, down, packet);
            return;
        }
        let hops = EcmpSet::from_mask(self.next_hops[vertex * self.tors + dst_tor]);
        if hops.is_empty() {
            self.routing_drops += 1;
            return;
        }
        let i = hops.nth(self.rng.index(hops.len()));
        let port = self.adj_port(vertex, i);
        fabric.send(ctx, node, port, packet);
    }

    fn on_timer(&mut self, fabric: &mut Fabric, ctx: &mut EventContext<'_, NetEvent>, token: u64) {
        if token == 0 {
            self.inject_due_flows(fabric, ctx);
            return;
        }
        match decode(token) {
            Token::FlowArrival => self.inject_due_flows(fabric, ctx),
            Token::Transport(host, which) => {
                let actions = self.hosts[host].on_timer(fabric, ctx, which);
                schedule_actions(ctx, host, actions);
            }
            other => panic!("unexpected timer {other:?} in static network"),
        }
    }
}

/// Build a static network simulation with `flows` to inject.
pub fn build(cfg: StaticNetConfig, mut flows: Vec<FlowSpec>) -> StaticNet {
    flows.sort_by_key(|f| f.start);
    let (graph, tors, hosts_per_tor) = match &cfg.kind {
        StaticTopologyKind::Expander(p) => {
            let t = ExpanderTopology::generate(*p, cfg.seed);
            (t.graph().clone(), p.racks, p.hosts_per_rack)
        }
        StaticTopologyKind::FoldedClos(p) => {
            let t = ClosTopology::generate(*p);
            (t.graph().clone(), t.tors(), p.hosts_per_tor())
        }
    };
    let hosts_total = tors * hosts_per_tor;

    // Routing tables: adjacency indices on shortest paths toward each ToR.
    let n = graph.len();
    let mut next_hops = vec![0; n * tors];
    SlotAdjacency::from_graph(&graph).ecmp_masks(tors, &mut next_hops);

    let mut fabric = Fabric::new();
    for _ in 0..hosts_total {
        fabric.add_node(1, cfg.queues, cfg.link);
    }
    for v in 0..n {
        let host_ports = if v < tors { hosts_per_tor } else { 0 };
        fabric.add_node(host_ports + graph.degree(v), cfg.queues, cfg.link);
    }
    // Hosts ↔ ToRs.
    for h in 0..hosts_total {
        fabric.connect(h, 0, hosts_total + h / hosts_per_tor, h % hosts_per_tor);
    }
    // Switch graph edges: connect each undirected pair once, using the
    // adjacency index on each side as the port.
    for v in 0..n {
        for (i, e) in graph.edges(v).iter().enumerate() {
            if v < e.to {
                // Find the reverse adjacency index.
                let j = graph
                    .edges(e.to)
                    .iter()
                    .enumerate()
                    .position(|(jj, back)| {
                        back.to == v && {
                            // Match multiplicity: count how many (v->to)
                            // edges precede index i, pick the matching
                            // reverse occurrence.
                            let occ = graph.edges(v)[..i].iter().filter(|x| x.to == e.to).count();
                            let rocc = graph.edges(e.to)[..jj].iter().filter(|x| x.to == v).count();
                            occ == rocc
                        }
                    })
                    .expect("symmetric graph");
                let pa = if v < tors { hosts_per_tor + i } else { i };
                let pb = if e.to < tors { hosts_per_tor + j } else { j };
                fabric.connect(hosts_total + v, pa, hosts_total + e.to, pb);
            }
        }
    }

    let logic = StaticLogic {
        hosts: (0..hosts_total).map(|h| cfg.transport.make(h, 0)).collect(),
        tracker: FlowTracker::new(),
        rng: SimRng::new(cfg.seed.wrapping_add(77)),
        hosts_per_tor,
        tors,
        next_hops,
        pending: flows,
        next_flow: 0,
        routing_drops: 0,
        cfg,
    };
    NetWorld::new(fabric, logic).into_sim()
}

/// Like [`build`], but with a binned throughput time-series attached to
/// the flow tracker (Figure 8's delivered-throughput-vs-time runs).
pub fn build_with_throughput(
    cfg: StaticNetConfig,
    flows: Vec<FlowSpec>,
    bin: simkit::SimTime,
) -> StaticNet {
    let mut sim = build(cfg, flows);
    let t = std::mem::take(sim.world.logic.tracker_mut());
    *sim.world.logic.tracker_mut() = t.with_throughput_bins(bin);
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimTime;

    #[test]
    fn expander_flow_completes() {
        let mut sim = build(
            StaticNetConfig::small_expander(),
            vec![FlowSpec {
                src: 0,
                dst: 30,
                size: 50_000,
                start: SimTime::ZERO,
            }],
        );
        sim.run_until(SimTime::from_ms(10));
        let t = sim.world.logic.tracker();
        assert!(t.all_done());
        assert!(t.get(0).fct().unwrap() < SimTime::from_us(200));
        assert_eq!(sim.world.logic.routing_drops, 0);
        assert_eq!(sim.world.fabric.counters.dark_drops, 0);
    }

    #[test]
    fn clos_cross_pod_flow_completes() {
        let mut sim = build(
            StaticNetConfig::paper_clos_648(),
            vec![FlowSpec {
                src: 0,
                dst: 647,
                size: 100_000,
                start: SimTime::ZERO,
            }],
        );
        sim.run_until(SimTime::from_ms(10));
        let t = sim.world.logic.tracker();
        assert!(t.all_done());
        // 100KB across 6 store-and-forward hops at 10G: ~120us.
        assert!(t.get(0).fct().unwrap() < SimTime::from_us(300));
        assert_eq!(sim.world.logic.routing_drops, 0);
    }

    #[test]
    fn rack_local_stays_local() {
        let mut sim = build(
            StaticNetConfig::small_expander(),
            vec![FlowSpec {
                src: 0,
                dst: 1,
                size: 10_000,
                start: SimTime::ZERO,
            }],
        );
        sim.run_until(SimTime::from_ms(5));
        assert!(sim.world.logic.tracker().all_done());
        // Only host links and the ToR are involved: 2 hops.
        let fct = sim.world.logic.tracker().get(0).fct().unwrap();
        assert!(fct < SimTime::from_us(30), "fct {fct}");
    }

    #[test]
    fn many_random_flows_complete_on_clos() {
        let mut rng = SimRng::new(4);
        let mut flows = Vec::new();
        for _ in 0..50 {
            let src = rng.index(648);
            let mut dst = rng.index(647);
            if dst >= src {
                dst += 1;
            }
            flows.push(FlowSpec {
                src,
                dst,
                size: 30_000,
                start: SimTime::from_us(rng.below(200)),
            });
        }
        let mut sim = build(StaticNetConfig::paper_clos_648(), flows);
        sim.run_until(SimTime::from_ms(20));
        let t = sim.world.logic.tracker();
        assert_eq!(t.completed(), 50);
    }
}
