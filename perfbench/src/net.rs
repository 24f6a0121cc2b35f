//! The packet workloads: one op builds a network with
//! `opera_net::build` / `static_net::build` (`setup_s`) and runs it to
//! the horizon with `Simulator::run_until` (`run_s`).

use crate::trace::{Kind, Span, Traced, KINDS};
use crate::{case_seeds, median, median_index, op_loop, secs_since};
use crate::{Fingerprint, FingerprintCheck, Opts, Report, Size, Workload, CASES};
use bench::{MiniTrio, PaperTrio};
use netsim::fabric::FabricCounters;
use netsim::policy::EcnMark;
use netsim::{FlowTracker, NetLogic, NetWorld};
use opera::opera_net::{OperaCounters, OperaLogic};
use opera::static_net::StaticLogic;
use opera::tables::{BulkTables, LowLatencyTables};
use opera::{opera_net, static_net, OperaNetConfig, StaticNetConfig, StaticTopologyKind};
use simkit::{SimTime, Simulator};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use topo::clos::ClosTopology;
use topo::opera::OperaTopology;
use transport::{DctcpParams, TransportKind};
use workloads::dists::{FlowSizeDist, Workload as SizeDist};
use workloads::gen::{PoissonGen, ScenarioGen};
use workloads::FlowSpec;

/// Network logics the benchmark can read results from.
pub trait Logic: NetLogic + 'static {
    /// Flow results.
    fn tracker(&self) -> &FlowTracker;
    /// Opera's loss/diagnostic counters (zero for static networks).
    fn opera_counters(&self) -> OperaCounters {
        OperaCounters::default()
    }
    /// Static-network packets dropped for want of a route.
    fn routing_drops(&self) -> u64 {
        0
    }
}

impl Logic for OperaLogic {
    fn tracker(&self) -> &FlowTracker {
        OperaLogic::tracker(self)
    }
    fn opera_counters(&self) -> OperaCounters {
        self.counters
    }
}

impl Logic for StaticLogic {
    fn tracker(&self) -> &FlowTracker {
        StaticLogic::tracker(self)
    }
    fn routing_drops(&self) -> u64 {
        self.routing_drops
    }
}

/// Builds a case's network around its flows.
type Build<L> = Box<dyn Fn(usize, Vec<FlowSpec>) -> Simulator<NetWorld<L>>>;

/// One packet workload, inputs included. Case `i` runs the `i`-th
/// configuration and flow list, or the only one where there is one.
pub struct NetBench<L: Logic> {
    build: Build<L>,
    /// Times case `i`'s set-up parts directly: `(topology, tables)` seconds.
    split: Box<dyn Fn(usize) -> (f64, f64)>,
    flows: Vec<Vec<FlowSpec>>,
    horizon: SimTime,
    gbps: f64,
}

impl<L: Logic> NetBench<L> {
    fn flows(&self, case: usize) -> &[FlowSpec] {
        &self.flows[case % self.flows.len()]
    }

    fn build(&self, case: usize) -> (Simulator<NetWorld<L>>, f64) {
        let flows = self.flows(case).to_vec();
        let t = Instant::now();
        let sim = (self.build)(case, flows);
        (sim, secs_since(t))
    }
}

/// Everything one op measured.
#[derive(Debug, Clone)]
pub struct NetOp {
    /// Host seconds in the build.
    pub setup: f64,
    /// Host seconds in `run_until`.
    pub run: f64,
    /// Behaviour fingerprint.
    pub fp: Fingerprint,
    /// Engine queue high-water mark.
    pub peak_pending: usize,
    /// Fabric counters.
    pub counters: FabricCounters,
    /// Fabric packet-arena high-water mark.
    pub arena_peak: usize,
    /// Opera logic counters.
    pub opera: OperaCounters,
    /// Static routing drops.
    pub routing_drops: u64,
    /// Per-kind spans and retransmission timers of a traced op.
    pub spans: Option<([Span; KINDS], u64)>,
}

/// Websearch Poisson arrivals at `load` over `window`.
fn websearch(hosts: usize, load: f64, window: SimTime, seed: u64) -> Vec<FlowSpec> {
    PoissonGen::new(
        FlowSizeDist::of(SizeDist::Websearch),
        hosts,
        10.0,
        load,
        seed,
    )
    .flows_until(window)
}

fn opera_bench(
    cfgs: Vec<OperaNetConfig>,
    flows: Vec<Vec<FlowSpec>>,
    horizon: SimTime,
) -> NetBench<OperaLogic> {
    let gbps = cfgs[0].link.gbps;
    let cfg = move |case: usize| cfgs[case % cfgs.len()];
    let split_cfg = cfg.clone();
    NetBench {
        build: Box::new(move |case, flows| opera_net::build(cfg(case), flows)),
        split: Box::new(move |case| {
            let cfg = split_cfg(case);
            let t = Instant::now();
            let (topo, _) = OperaTopology::generate_validated(cfg.params, cfg.seed, 64);
            let topo_s = secs_since(t);
            let t = Instant::now();
            let tables = (LowLatencyTables::build(&topo), BulkTables::build(&topo));
            let tables_s = secs_since(t);
            drop(tables);
            (topo_s, tables_s)
        }),
        flows,
        horizon,
        gbps,
    }
}

fn static_bench(
    cfg: StaticNetConfig,
    flows: Vec<Vec<FlowSpec>>,
    horizon: SimTime,
) -> NetBench<StaticLogic> {
    let gbps = cfg.link.gbps;
    let kind = cfg.kind.clone();
    NetBench {
        build: Box::new(move |_, flows| static_net::build(cfg.clone(), flows)),
        // The static build's routing tables are internal to it; only the
        // topology can be timed on its own.
        split: Box::new(move |_| match kind {
            StaticTopologyKind::FoldedClos(p) => {
                let t = Instant::now();
                let topo = ClosTopology::generate(p);
                let topo_s = secs_since(t);
                drop(topo);
                (topo_s, 0.0)
            }
            StaticTopologyKind::Expander(_) => (0.0, 0.0),
        }),
        flows,
        horizon,
        gbps,
    }
}

/// Run one packet workload.
pub fn run(workload: Workload, opts: &Opts) -> Report {
    let tiny = opts.size == Size::Tiny;
    let seeds = case_seeds(opts.seed);
    let t = Instant::now();
    match workload {
        Workload::Websearch648 => {
            let mut cfg = if tiny {
                OperaNetConfig::small_test()
            } else {
                PaperTrio::opera()
            };
            // Above the largest Websearch flow (15 MB): all low-latency.
            cfg.bulk_threshold = 20_000_000;
            let (window, horizon) = if tiny { (2.0, 3.0) } else { (3.0, 6.0) };
            let flows = seeds.map(|s| websearch(cfg.hosts(), 0.25, ms(window), s));
            let gen_s = secs_since(t);
            measure(
                &opera_bench(vec![cfg], flows.into(), ms(horizon)),
                opts,
                gen_s,
            )
        }
        Workload::Shuffle192 => {
            let mut cfg = if tiny {
                OperaNetConfig::small_test()
            } else {
                MiniTrio::opera()
            };
            cfg.bulk_threshold = 0; // every flow tagged bulk
            let cfgs = seeds.map(|seed| OperaNetConfig { seed, ..cfg });
            let horizon = if tiny { 1.0 } else { 10.0 };
            let flows = ScenarioGen::shuffle(cfg.hosts(), 100_000, SimTime::ZERO);
            let gen_s = secs_since(t);
            measure(
                &opera_bench(cfgs.into(), vec![flows], ms(horizon)),
                opts,
                gen_s,
            )
        }
        Workload::WebsearchClosDctcp => {
            let mut cfg = if tiny {
                bench::QuickTrio::clos()
            } else {
                MiniTrio::clos()
            };
            cfg.transport = TransportKind::Dctcp(DctcpParams::paper_default());
            cfg.queues.policy = EcnMark::paper_default().into();
            let (window, horizon) = if tiny { (2.0, 3.0) } else { (5.0, 10.0) };
            let hosts = bench::static_hosts(&cfg);
            let flows = seeds.map(|s| websearch(hosts, 0.25, ms(window), s));
            let gen_s = secs_since(t);
            measure(&static_bench(cfg, flows.into(), ms(horizon)), opts, gen_s)
        }
        Workload::CostSweepMcf => unreachable!("not a packet workload"),
    }
}

fn ms(x: f64) -> SimTime {
    SimTime::from_secs_f64(x / 1e3)
}

/// Build and run case `case`, checking conservation on the way.
pub fn op<L: Logic>(b: &NetBench<L>, case: usize, traced: bool) -> Result<NetOp, String> {
    let (sim, setup) = b.build(case);
    let flows = b.flows(case);
    if !traced {
        let mut sim = sim;
        let t = Instant::now();
        sim.run_until(b.horizon);
        let run = secs_since(t);
        return Ok(NetOp {
            setup,
            run,
            peak_pending: sim.peak_pending(),
            ..observe(&sim.world, flows, b.gbps, sim.events_processed())?
        });
    }
    if sim.pending() != 1 {
        return Err(format!("build left {} events, expected 1", sim.pending()));
    }
    let mut sim = Traced::into_sim(sim.world);
    let t = Instant::now();
    sim.run_until(b.horizon);
    let run = secs_since(t);
    let handler = sim.world.handler_secs();
    if handler > run {
        return Err(format!(
            "handler time {handler} s exceeds traced run_s {run} s"
        ));
    }
    Ok(NetOp {
        setup,
        run,
        peak_pending: sim.peak_pending(),
        spans: Some((sim.world.spans, sim.world.rto_calls)),
        ..observe(&sim.world.inner, flows, b.gbps, sim.events_processed())?
    })
}

/// The outputs of a finished run, checked; timings are left at zero.
fn observe<L: Logic>(
    world: &NetWorld<L>,
    flows: &[FlowSpec],
    gbps: f64,
    events: u64,
) -> Result<NetOp, String> {
    let c = world.fabric.counters;
    let tracker = world.logic.tracker();
    check_conservation(&c, tracker, flows, gbps)?;
    Ok(NetOp {
        setup: 0.0,
        run: 0.0,
        fp: Fingerprint::net(
            events,
            c.delivered,
            c.trimmed,
            c.ecn_marked,
            tracker.completed() as u64,
        ),
        peak_pending: 0,
        counters: c,
        arena_peak: world.fabric.arena_peak_live(),
        opera: world.logic.opera_counters(),
        routing_drops: world.logic.routing_drops(),
        spans: None,
    })
}

/// Seed-independent output checks: every packet put on a wire was
/// admitted to a queue, no more flows exist or completed than were
/// offered, and no flow beat its size at line rate.
pub fn check_conservation(
    c: &FabricCounters,
    tracker: &FlowTracker,
    flows: &[FlowSpec],
    gbps: f64,
) -> Result<(), String> {
    let transmitted = c.delivered + c.dark_drops + c.failed_drops;
    if transmitted > c.queued + c.trimmed {
        return Err(format!(
            "{transmitted} packets transmitted but only {} admitted",
            c.queued + c.trimmed
        ));
    }
    if c.delivered == 0 {
        return Err("no packet delivered".into());
    }
    if tracker.len() > flows.len() || tracker.completed() > flows.len() {
        return Err(format!(
            "{} flows registered, {} completed, of {} offered",
            tracker.len(),
            tracker.completed(),
            flows.len()
        ));
    }
    for (id, f) in tracker.flows().iter().enumerate() {
        if let Some(fct) = f.fct() {
            let floor_ns = f.size as f64 * 8.0 / gbps;
            if (fct.as_ns() as f64) < floor_ns {
                return Err(format!(
                    "flow {id}: {} B in {} ns, under the {floor_ns} ns line-rate floor",
                    f.size,
                    fct.as_ns()
                ));
            }
        }
    }
    Ok(())
}

/// Run ops until the budget is spent; report.
fn measure<L: Logic>(b: &NetBench<L>, opts: &Opts, gen_s: f64) -> Report {
    let mut report = Report {
        traced: opts.trace,
        ..Report::default()
    };
    let mut plain: Vec<NetOp> = Vec::new();
    let mut traced: Vec<NetOp> = Vec::new();
    let mut ratios: Vec<f64> = Vec::new();
    let mut splits: Vec<(f64, f64)> = Vec::new();
    let mut fps = FingerprintCheck::new(opts.expected);
    let rss = op_loop(opts.seconds, opts.trace, |case, is_traced| {
        report.attempted += 1;
        let out = catch_unwind(AssertUnwindSafe(|| op(b, case, is_traced)))
            .unwrap_or_else(|_| Err("op panicked".into()))
            .and_then(|o| fps.check(case, o.fp).map(|()| o));
        match out {
            Ok(o) if is_traced => {
                // The pair's untraced op ran the same case just before.
                if let Some(p) = plain.last().filter(|p| p.fp == o.fp) {
                    ratios.push(o.run / p.run);
                }
                splits.push((b.split)(case));
                traced.push(o);
            }
            Ok(o) => plain.push(o),
            Err(e) => report.fail(format!("op {} (case {case}): {e}", report.attempted)),
        }
    });
    let runs: Vec<f64> = plain.iter().map(|o| o.run).collect();
    let run_s = median(&runs);
    if !opts.trace {
        report.set("run_s", run_s);
        let rates: Vec<f64> = plain
            .iter()
            .map(|o| o.fp.delivered as f64 / o.run)
            .collect();
        report.set("pkts_per_s", median(&rates));
        let setups: Vec<f64> = plain.iter().map(|o| o.setup).collect();
        report.set("setup_s", median(&setups));
        report.set("peak_rss_mb", rss);
        return report;
    }
    let traced_runs: Vec<f64> = traced.iter().map(|o| o.run).collect();
    if let Some(i) = median_index(&traced_runs) {
        layers(&mut report, &traced[i]);
    }
    let rates: Vec<f64> = plain.iter().map(|o| o.fp.events as f64 / o.run).collect();
    report.set("simkit.events_per_s", median(&rates));
    report.set("trace.overhead_ratio", median(&ratios));
    report.set(
        "opera.topo_s",
        median(&splits.iter().map(|s| s.0).collect::<Vec<_>>()),
    );
    report.set(
        "opera.tables_s",
        median(&splits.iter().map(|s| s.1).collect::<Vec<_>>()),
    );
    report.set("workloads.gen_s", gen_s);
    let cases = b.flows.len().min(CASES);
    report.set(
        "workloads.flows",
        (0..cases).map(|c| b.flows(c).len() as f64).sum::<f64>() / cases as f64,
    );
    let bytes: f64 = (0..cases)
        .flat_map(|c| b.flows(c))
        .map(|f| f.size as f64)
        .sum();
    report.set("workloads.offered_bytes", bytes / cases as f64);
    report.set("ops", report.attempted as f64);
    report.set("ops_failed", report.failed as f64);
    report
}

/// The per-layer split of the traced op `o`.
fn layers(report: &mut Report, o: &NetOp) {
    let Some((spans, rto)) = o.spans else {
        return;
    };
    let span = |k: Kind| spans[k as usize];
    let handler: f64 = spans.iter().map(|s| s.secs).sum();
    let c = &o.counters;
    let mut pair = |calls: &'static str, self_s: &'static str, k: Kind| {
        report.set(calls, span(k).calls as f64);
        report.set(self_s, span(k).secs);
    };
    pair(
        "netsim.port_free.calls",
        "netsim.port_free.self_s",
        Kind::PortFree,
    );
    pair("netsim.pause.calls", "netsim.pause.self_s", Kind::Pause);
    pair(
        "opera.arrive_tor.calls",
        "opera.arrive_tor.self_s",
        Kind::ArriveTor,
    );
    pair("opera.slice.calls", "opera.slice.self_s", Kind::Slice);
    pair("opera.feeder.calls", "opera.feeder.self_s", Kind::Feeder);
    pair(
        "opera.flow_arrival.calls",
        "opera.flow_arrival.self_s",
        Kind::FlowArrival,
    );
    pair(
        "opera.other_timer.calls",
        "opera.other_timer.self_s",
        Kind::OtherTimer,
    );
    pair(
        "transport.arrive_host.calls",
        "transport.arrive_host.self_s",
        Kind::ArriveHost,
    );
    pair(
        "transport.timer.calls",
        "transport.timer.self_s",
        Kind::TransportTimer,
    );
    report.set("transport.rto.calls", rto as f64);
    report.set("simkit.events", o.fp.events as f64);
    report.set("simkit.peak_pending", o.peak_pending as f64);
    report.set("simkit.self_s", o.run - handler);
    report.set("netsim.queued", c.queued as f64);
    report.set("netsim.delivered", c.delivered as f64);
    report.set("netsim.trimmed", c.trimmed as f64);
    report.set("netsim.dropped", c.dropped as f64);
    report.set("netsim.ecn_marked", c.ecn_marked as f64);
    report.set("netsim.dark_drops", c.dark_drops as f64);
    report.set(
        "netsim.trim_ratio",
        c.trimmed as f64 / c.queued.max(1) as f64,
    );
    report.set("netsim.arena_peak_live", o.arena_peak as f64);
    let oc = o.opera;
    report.set("opera.hop_limit_drops", oc.hop_limit_drops as f64);
    report.set("opera.bulk_requeued", oc.bulk_requeued as f64);
    report.set("opera.relay_overflow", oc.relay_overflow as f64);
    report.set("opera.bulk_stragglers", oc.bulk_stragglers as f64);
    report.set("opera.links_marked_bad", oc.links_marked_bad as f64);
    report.set("opera.nic_backpressure", oc.nic_backpressure as f64);
    report.set("opera.routing_drops", o.routing_drops as f64);
}
