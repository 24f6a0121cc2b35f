//! The repository benchmark: four workloads over the Opera reproduction's
//! library crates, timed from outside through their public API.
//!
//! One process runs one workload. It builds its inputs from a seed,
//! repeats *ops* (one simulated point, or one MCF sweep) until its time
//! budget is spent, checks every op's output, and reports either the
//! end-to-end metrics ([`END_TO_END`]) or, in a traced run, the per-layer
//! split ([`PER_LAYER`]). See `README.md` for why each workload exists and
//! which layer each metric is expected to move.

pub mod mcf;
pub mod net;
pub mod trace;

use simkit::SimRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The seed the committed fingerprints (and the recorded baseline) use.
pub const DEFAULT_SEED: u64 = 1;

/// End-to-end metrics `(name, unit)`, printed by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("run_s", "s"),
    ("pkts_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, printed by traced runs. A layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ops", "count"),
    ("ops_failed", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("simkit.events", "count"),
    ("simkit.events_per_s", "1/s"),
    ("simkit.peak_pending", "count"),
    ("simkit.self_s", "s"),
    ("netsim.port_free.calls", "count"),
    ("netsim.port_free.self_s", "s"),
    ("netsim.pause.calls", "count"),
    ("netsim.pause.self_s", "s"),
    ("netsim.queued", "count"),
    ("netsim.delivered", "count"),
    ("netsim.trimmed", "count"),
    ("netsim.dropped", "count"),
    ("netsim.ecn_marked", "count"),
    ("netsim.dark_drops", "count"),
    ("netsim.trim_ratio", "ratio"),
    ("netsim.arena_peak_live", "count"),
    ("opera.arrive_tor.calls", "count"),
    ("opera.arrive_tor.self_s", "s"),
    ("opera.slice.calls", "count"),
    ("opera.slice.self_s", "s"),
    ("opera.feeder.calls", "count"),
    ("opera.feeder.self_s", "s"),
    ("opera.flow_arrival.calls", "count"),
    ("opera.flow_arrival.self_s", "s"),
    ("opera.other_timer.calls", "count"),
    ("opera.other_timer.self_s", "s"),
    ("opera.topo_s", "s"),
    ("opera.tables_s", "s"),
    ("opera.hop_limit_drops", "count"),
    ("opera.bulk_requeued", "count"),
    ("opera.relay_overflow", "count"),
    ("opera.bulk_stragglers", "count"),
    ("opera.links_marked_bad", "count"),
    ("opera.nic_backpressure", "count"),
    ("opera.routing_drops", "count"),
    ("transport.arrive_host.calls", "count"),
    ("transport.arrive_host.self_s", "s"),
    ("transport.timer.calls", "count"),
    ("transport.timer.self_s", "s"),
    ("transport.rto.calls", "count"),
    ("flowsim.solver_new_s", "s"),
    ("flowsim.solve_s", "s"),
    ("flowsim.solves", "count"),
    ("flowsim.solve_ms_max", "ms"),
    ("topo.generate_s", "s"),
    ("workloads.gen_s", "s"),
    ("workloads.flows", "count"),
    ("workloads.offered_bytes", "bytes"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Websearch at 25% load on the 648-host Opera, all low-latency.
    Websearch648,
    /// 100 KB bulk shuffle on the 192-host mini Opera.
    Shuffle192,
    /// Websearch at 25% load on the 192-host 3:1 Clos, DCTCP + ECN.
    WebsearchClosDctcp,
    /// Fig. 12 α-sweep of MCF solves on k = 16 expanders.
    CostSweepMcf,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Websearch648,
        Workload::Shuffle192,
        Workload::WebsearchClosDctcp,
        Workload::CostSweepMcf,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Websearch648 => "websearch_648",
            Workload::Shuffle192 => "shuffle_192",
            Workload::WebsearchClosDctcp => "websearch_clos_dctcp",
            Workload::CostSweepMcf => "cost_sweep_mcf",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The committed fingerprints of the full-size workload's cases at
    /// [`DEFAULT_SEED`].
    pub fn committed_fingerprints(self) -> [Fingerprint; CASES] {
        let (net, mcf) = (Fingerprint::net, Fingerprint::mcf);
        match self {
            Workload::Websearch648 => [
                net(7_562_069, 3_657_551, 13_488, 0, 372),
                net(7_432_475, 3_594_027, 15_026, 0, 357),
                net(7_892_248, 3_816_638, 17_385, 0, 370),
                net(6_668_500, 3_223_336, 11_217, 0, 393),
                net(7_515_614, 3_634_868, 15_421, 0, 349),
                net(7_131_797, 3_449_459, 12_456, 0, 362),
                net(8_020_131, 3_879_310, 19_647, 0, 383),
                net(8_140_609, 3_936_585, 17_352, 0, 366),
                net(7_820_025, 3_780_583, 16_219, 0, 387),
                net(8_603_980, 4_161_887, 21_261, 0, 374),
                net(7_911_141, 3_826_307, 16_202, 0, 380),
                net(8_340_576, 4_034_011, 21_744, 0, 350),
                net(9_251_229, 4_473_049, 27_772, 0, 334),
                net(7_762_078, 3_754_260, 16_208, 0, 363),
                net(7_675_713, 3_712_274, 14_450, 0, 393),
                net(8_319_028, 4_022_850, 18_261, 0, 383),
            ],
            Workload::Shuffle192 => [
                net(6_312_344, 2_497_937, 7_008, 0, 576),
                net(6_307_609, 2_495_501, 7_008, 0, 576),
                net(6_309_837, 2_496_658, 7_008, 0, 576),
                net(6_299_776, 2_491_605, 7_008, 0, 576),
                net(6_297_021, 2_490_245, 7_008, 0, 576),
                net(6_306_460, 2_494_892, 7_008, 0, 576),
                net(6_310_324, 2_496_800, 7_008, 0, 576),
                net(6_315_203, 2_499_222, 7_008, 0, 576),
                net(6_302_883, 2_493_102, 7_008, 0, 576),
                net(6_321_865, 2_502_620, 7_008, 0, 576),
                net(6_304_868, 2_494_140, 7_008, 0, 576),
                net(6_308_332, 2_495_957, 7_008, 0, 576),
                net(6_316_155, 2_499_777, 7_008, 0, 576),
                net(6_295_188, 2_489_306, 7_008, 0, 576),
                net(6_299_829, 2_491_634, 7_008, 0, 576),
                net(6_297_661, 2_490_428, 7_008, 0, 576),
            ],
            Workload::WebsearchClosDctcp => [
                net(3_789_427, 1_894_326, 0, 22_676, 130),
                net(4_019_896, 2_009_676, 0, 23_754, 136),
                net(3_252_326, 1_625_822, 0, 19_473, 133),
                net(2_975_404, 1_487_388, 0, 22_004, 165),
                net(3_732_713, 1_866_074, 0, 22_609, 141),
                net(3_205_066, 1_602_224, 0, 18_638, 143),
                net(3_916_269, 1_957_679, 0, 23_080, 143),
                net(3_453_690, 1_726_549, 0, 20_056, 141),
                net(3_314_675, 1_656_949, 0, 21_986, 140),
                net(3_724_949, 1_862_133, 0, 22_554, 145),
                net(3_553_977, 1_776_672, 0, 23_499, 138),
                net(3_271_213, 1_635_237, 0, 19_016, 125),
                net(4_415_005, 2_207_165, 0, 25_195, 115),
                net(4_057_907, 2_028_662, 0, 23_207, 127),
                net(3_873_683, 1_936_496, 0, 22_292, 146),
                net(4_481_452, 2_240_364, 0, 24_560, 139),
            ],
            Workload::CostSweepMcf => [
                mcf(33, 12_086_253_058_293_933_072),
                mcf(33, 13_553_187_343_648_579_978),
                mcf(33, 18_115_637_482_030_228_289),
                mcf(33, 16_691_136_034_444_276_143),
                mcf(33, 9_999_468_973_315_879_105),
                mcf(33, 3_932_268_959_151_507_689),
                mcf(33, 12_065_279_216_435_414_376),
                mcf(33, 9_259_570_441_563_337_658),
                mcf(33, 16_338_640_046_742_835_845),
                mcf(33, 7_055_180_533_334_459_297),
                mcf(33, 17_860_579_713_671_133_049),
                mcf(33, 10_070_766_939_712_103_164),
                mcf(33, 11_248_059_104_769_455_653),
                mcf(33, 11_450_258_029_785_270_864),
                mcf(33, 835_635_230_647_570_301),
                mcf(33, 1_940_778_002_915_781_918),
            ],
        }
    }
}

/// Input size: the benchmark's own, or a tiny one for its tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Seconds-scale inputs on small networks, for the benchmark's tests.
    Tiny,
}

/// Exact behaviour fingerprint of one op. Packet workloads fill the
/// packet fields; the MCF workload fills `events` (solves) and `lambda`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Simulator events (packet workloads) or solves (MCF).
    pub events: u64,
    /// Packets delivered by the fabric.
    pub delivered: u64,
    /// Packets trimmed to headers.
    pub trimmed: u64,
    /// Packets ECN-marked.
    pub marked: u64,
    /// Flows completed.
    pub completed: u64,
    /// FNV-1a fold of every solve's λ bit pattern, in solve order.
    pub lambda: u64,
}

impl Fingerprint {
    /// A packet workload's fingerprint.
    pub const fn net(
        events: u64,
        delivered: u64,
        trimmed: u64,
        marked: u64,
        completed: u64,
    ) -> Self {
        Fingerprint {
            events,
            delivered,
            trimmed,
            marked,
            completed,
            lambda: 0,
        }
    }

    /// The MCF workload's fingerprint.
    pub const fn mcf(solves: u64, lambda: u64) -> Self {
        Fingerprint {
            events: solves,
            delivered: 0,
            trimmed: 0,
            marked: 0,
            completed: 0,
            lambda,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// What to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Time budget for set-up samples plus ops.
    pub seconds: f64,
    /// Report the per-layer split instead of the end-to-end metrics.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Fingerprint each case's ops must reproduce exactly, if any.
    pub expected: Option<[Fingerprint; CASES]>,
}

impl Opts {
    /// Settings for a measured run: full size, and the committed
    /// fingerprints enforced when `seed` is [`DEFAULT_SEED`].
    pub fn measured(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Opts {
            workload,
            seed,
            seconds,
            trace,
            size: Size::Full,
            expected: (seed == DEFAULT_SEED).then(|| workload.committed_fingerprints()),
        }
    }
}

/// The outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that panicked or failed an output check.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Whether this is a traced run's report.
    pub traced: bool,
}

impl Report {
    /// Record a failed op.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }

    /// Set a metric. Panics on a name missing from the run's catalog.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.catalog().iter().any(|(n, _)| *n == name),
            "metric {name} is not in the catalog"
        );
        self.values.insert(name, value);
    }

    /// The metric catalog this report prints.
    pub fn catalog(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// True when no op failed, at least one ran, and every metric is set
    /// and finite.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self
                .catalog()
                .iter()
                .all(|(n, _)| self.values.get(n).is_some_and(|v| v.is_finite()))
    }

    /// The one-line JSON result. Unset or non-finite metrics print as 0
    /// (and make the report incorrect).
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in self.catalog().iter().enumerate() {
            let v = self.values.get(name).copied().filter(|v| v.is_finite());
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                v.unwrap_or(0.0)
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// Run one workload.
pub fn run(opts: &Opts) -> Report {
    let mut report = match opts.workload {
        Workload::CostSweepMcf => mcf::run(opts),
        w => net::run(w, opts),
    };
    if report.traced {
        // Layers this workload does not run.
        for (name, _) in PER_LAYER {
            report.values.entry(name).or_insert(0.0);
        }
    }
    report
}

/// `VmHWM` of this process in MiB, or NaN where `/proc` has no answer.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Index of the median element of `xs` (the lower one for even lengths).
pub fn median_index(xs: &[f64]) -> Option<usize> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    idx.get(xs.len().saturating_sub(1) / 2).copied()
}

/// Host seconds since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Inputs per run. Op `i` runs case `i % CASES` (a traced run's pair `i`
/// runs case `i % CASES` twice), so a run's medians are taken over
/// several inputs drawn from its seed, not over one.
pub const CASES: usize = 16;

/// The seeds of a run's cases, drawn from the run's seed.
pub fn case_seeds(seed: u64) -> [u64; CASES] {
    let mut rng = SimRng::new(seed);
    // 32 bits, so a topology seed has room for its generate-and-test retries.
    std::array::from_fn(|_| rng.next_u64() >> 32)
}

/// Checks each op's fingerprint against its case's committed one, if
/// any, and against this run's first op on the same case.
#[derive(Debug)]
pub struct FingerprintCheck {
    expected: Option<[Fingerprint; CASES]>,
    seen: [Option<Fingerprint>; CASES],
}

impl FingerprintCheck {
    /// A check against `expected`.
    pub fn new(expected: Option<[Fingerprint; CASES]>) -> Self {
        FingerprintCheck {
            expected,
            seen: [None; CASES],
        }
    }

    /// Check op fingerprint `fp` of case `case`.
    pub fn check(&mut self, case: usize, fp: Fingerprint) -> Result<(), String> {
        if let Some(want) = self.expected.map(|e| e[case]) {
            if fp != want {
                return Err(format!(
                    "case {case}: fingerprint {fp:?} != committed {want:?}"
                ));
            }
        }
        match self.seen[case] {
            Some(first) if first != fp => Err(format!(
                "case {case}: fingerprint {fp:?} != this run's first op on the case {first:?}"
            )),
            Some(_) => Ok(()),
            None => {
                self.seen[case] = Some(fp);
                Ok(())
            }
        }
    }
}

/// Ops per run, whatever the budget (a traced run makes this many pairs).
pub const MIN_OPS: usize = 3;

/// Run `op` (its arguments: the case, and whether the op is traced)
/// until `seconds` would be overrun by one more op. A traced run makes
/// pairs of an untraced and a traced op on the same case. Returns
/// `peak_rss_mb` read after the first pass over the cases (or at the
/// end of a shorter run), so the figure does not grow with the number of
/// ops a fast host fits into the budget.
pub fn op_loop(seconds: f64, trace: bool, mut op: impl FnMut(usize, bool)) -> f64 {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut done = 0usize;
    let mut rss = None;
    loop {
        let case = done % CASES;
        op(case, false);
        if trace {
            op(case, true);
        }
        done += 1;
        if done == CASES {
            rss = Some(peak_rss_mb());
        }
        let elapsed = start.elapsed();
        if done >= MIN_OPS && elapsed + elapsed / done as u32 > budget {
            return rss.unwrap_or_else(peak_rss_mb);
        }
    }
}
