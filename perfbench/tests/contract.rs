//! The benchmark's own tests, on tiny inputs: every metric named in
//! `BENCHMARK.json` prints with its unit, a planted fingerprint mismatch
//! shows up as failed ops, and the tracing wrapper dispatches exactly the
//! events `NetWorld` does.

use expt::json::Json;
use netsim::policy::EcnMark;
use opera::{opera_net, static_net, OperaNetConfig};
use perfbench::trace::Traced;
use perfbench::{run, Fingerprint, Opts, Size, Workload, CASES};
use simkit::SimTime;
use transport::{DctcpParams, TransportKind};
use workloads::dists::{FlowSizeDist, Workload as SizeDist};
use workloads::gen::PoissonGen;

fn tiny(workload: Workload, trace: bool) -> Opts {
    Opts {
        workload,
        seed: 3,
        seconds: 0.2,
        trace,
        size: Size::Tiny,
        expected: None,
    }
}

/// The `name` (and `unit`, if any) of every entry in one section of
/// `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

/// `(name, unit)` of every metric in a printed result line, in order.
fn printed(line: &str) -> (Json, Vec<(String, String)>) {
    let doc = Json::parse(line).expect("result line parses");
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("no metrics object in {line}");
    };
    let names = metrics
        .iter()
        .map(|(name, m)| {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            assert!(v.is_finite(), "{name} = {v}");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    (doc, names)
}

#[test]
fn tiny_pass_prints_every_declared_metric_with_its_unit() {
    for (name, _) in declared("workloads") {
        assert!(
            Workload::from_name(&name).is_some(),
            "unknown workload {name}"
        );
    }
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let mut want = declared(section);
        want.sort();
        for w in Workload::ALL {
            let report = run(&tiny(w, trace));
            assert!(
                report.errors.is_empty(),
                "{}: {:?}",
                w.name(),
                report.errors
            );
            let (doc, mut got) = printed(&report.json_line());
            got.sort();
            assert_eq!(got, want, "{} trace={trace}", w.name());
            assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
            assert!(doc.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
            assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
        }
    }
}

#[test]
fn planted_fingerprint_mismatch_counts_as_failed_ops() {
    for w in [Workload::Shuffle192, Workload::CostSweepMcf] {
        let mut opts = tiny(w, false);
        opts.expected = Some([Fingerprint::net(1, 1, 1, 1, 1); CASES]);
        let report = run(&opts);
        assert!(report.attempted >= 1);
        assert_eq!(report.failed, report.attempted, "{}", w.name());
        assert!(report.errors.iter().all(|e| e.contains("committed")));
        let (doc, _) = printed(&report.json_line());
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(
            doc.get("failed").and_then(Json::as_u64),
            Some(report.failed)
        );
    }
}

#[test]
fn wrapper_dispatches_the_events_networld_does() {
    let mut opera = OperaNetConfig::small_test();
    opera.bulk_threshold = 200_000; // both the NDP and the RotorLB paths
    let flows = PoissonGen::new(FlowSizeDist::of(SizeDist::Websearch), 32, 10.0, 0.3, 5)
        .flows_until(SimTime::from_us(300));
    let horizon = SimTime::from_ms(1);

    let mut plain = opera_net::build(opera, flows.clone());
    plain.run_until(horizon);
    let mut traced = Traced::into_sim(opera_net::build(opera, flows.clone()).world);
    traced.run_until(horizon);
    assert!(plain.events_processed() > 10_000);
    assert_eq!(traced.events_processed(), plain.events_processed());
    let calls: u64 = traced.world.spans.iter().map(|s| s.calls).sum();
    assert_eq!(calls, plain.events_processed());
    assert_eq!(
        traced.world.inner.fabric.counters.delivered,
        plain.world.fabric.counters.delivered
    );
    assert_eq!(
        traced.world.inner.logic.tracker().completed(),
        plain.world.logic.tracker().completed()
    );

    let mut clos = bench::QuickTrio::clos();
    clos.transport = TransportKind::Dctcp(DctcpParams::paper_default());
    clos.queues.policy = EcnMark::paper_default().into();
    let flows: Vec<_> = flows
        .into_iter()
        .filter(|f| f.src < 24 && f.dst < 24)
        .collect();
    let mut plain = static_net::build(clos.clone(), flows.clone());
    plain.run_until(horizon);
    let mut traced = Traced::into_sim(static_net::build(clos, flows).world);
    traced.run_until(horizon);
    assert!(plain.events_processed() > 1_000);
    assert_eq!(traced.events_processed(), plain.events_processed());
    assert_eq!(
        traced.world.inner.fabric.counters.ecn_marked,
        plain.world.fabric.counters.ecn_marked
    );
}
