//! The MCF workload: Figure 12's α-sweep on cost-equivalent expanders,
//! solved the way the `fig12` driver solves it. One op is one sweep:
//! per α, `ExpanderTopology::generate` plus `McfSolver::new` (`setup_s`),
//! then the hot-rack `solve_warm` chain link and cold skew and
//! permutation solves (`run_s`).

use crate::{case_seeds, median, median_index, op_loop, secs_since};
use crate::{Fingerprint, FingerprintCheck, Opts, Report, Size};
use flowsim::models::Demand;
use flowsim::{McfSolver, McfState};
use simkit::SimRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use topo::cost::{expander_racks, expander_uplinks};
use topo::expander::{ExpanderParams, ExpanderTopology};
use workloads::gen::ScenarioGen;

/// Link rate, Gb/s.
const RATE: f64 = 10.0;
/// Topology seed, as in `fig12`.
const TOPO_SEED: u64 = 7;

/// One α point: its expander and demand matrices.
struct Point {
    params: ExpanderParams,
    /// Hot-rack, skew[0.2,1] and permutation demands.
    demands: [Vec<Demand>; 3],
}

/// The sweep's inputs.
pub struct McfBench {
    points: Vec<Point>,
    phases: usize,
}

impl McfBench {
    /// Radix-`k` sweep over `alphas` with demands drawn from `seed`.
    pub fn new(k: usize, alphas: &[f64], phases: usize, seed: u64) -> Self {
        let hosts = (3 * k * k / 4) * (k / 2);
        let mut rng = SimRng::new(seed);
        let points = alphas
            .iter()
            .map(|&alpha| {
                let u = expander_uplinks(alpha, k).clamp(3, k - 1);
                let de = k - u;
                let racks = expander_racks(hosts, k, u);
                Point {
                    params: ExpanderParams {
                        racks,
                        uplinks: u,
                        hosts_per_rack: de,
                    },
                    demands: [
                        ScenarioGen::hotrack_demands(de, RATE),
                        ScenarioGen::skew_demands(racks, 0.2, de, RATE, &mut rng),
                        ScenarioGen::permutation_demands(racks, de, RATE, &mut rng),
                    ],
                }
            })
            .collect();
        McfBench { points, phases }
    }

    /// Demands across the sweep.
    pub fn demand_count(&self) -> usize {
        self.points
            .iter()
            .map(|p| p.demands.iter().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Solves per sweep.
    pub fn solves(&self) -> usize {
        self.points.len() * 3
    }

    /// Demand-phases per sweep: each phase routes every demand.
    pub fn demand_phases(&self) -> usize {
        self.demand_count() * self.phases
    }
}

/// Everything one sweep measured.
#[derive(Debug, Clone, Default)]
pub struct McfOp {
    /// Host seconds in `ExpanderTopology::generate`.
    pub generate: f64,
    /// Host seconds in `McfSolver::new`.
    pub solver_new: f64,
    /// Host seconds of each solve, in order.
    pub solves: Vec<f64>,
    /// Every λ, in solve order.
    pub lambdas: Vec<f64>,
}

impl McfOp {
    /// `setup_s` of this sweep.
    pub fn setup(&self) -> f64 {
        self.generate + self.solver_new
    }
    /// `run_s` of this sweep.
    pub fn run(&self) -> f64 {
        self.solves.iter().sum()
    }
    /// The sweep's fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        let fold = self.lambdas.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, l| {
            l.to_bits()
                .to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
        });
        Fingerprint::mcf(self.lambdas.len() as u64, fold)
    }
}

/// Build every α point's topology and solver and run its solves.
pub fn sweep(b: &McfBench) -> McfOp {
    let mut op = McfOp::default();
    let mut prior: Option<McfState> = None;
    for p in &b.points {
        let t = Instant::now();
        let exp = ExpanderTopology::generate(p.params, TOPO_SEED);
        op.generate += secs_since(t);
        let t = Instant::now();
        let mut solver = McfSolver::new(exp.graph());
        op.solver_new += secs_since(t);
        let tor: Vec<usize> = (0..exp.racks()).collect();
        let host_cap = p.params.hosts_per_rack as f64 * RATE;
        let [hot, skew, perm] = &p.demands;
        let t = Instant::now();
        let (r, state) = solver.solve_warm(prior.as_ref(), &tor, hot, RATE, host_cap, b.phases);
        op.solves.push(secs_since(t));
        op.lambdas.push(r.lambda);
        prior = Some(state);
        for demands in [skew, perm] {
            let t = Instant::now();
            let r = solver.solve(&tor, demands, RATE, host_cap, b.phases);
            op.solves.push(secs_since(t));
            op.lambdas.push(r.lambda);
        }
    }
    op
}

/// Check a sweep: every λ finite and positive, and its fingerprint.
fn check(op: &McfOp, case: usize, fps: &mut FingerprintCheck) -> Result<(), String> {
    if let Some((i, l)) = op
        .lambdas
        .iter()
        .enumerate()
        .find(|(_, l)| !(l.is_finite() && **l > 0.0))
    {
        return Err(format!("case {case} solve {i}: lambda {l}"));
    }
    fps.check(case, op.fingerprint())
}

/// Run the MCF workload.
pub fn run(opts: &Opts) -> Report {
    let t = Instant::now();
    let alphas: Vec<f64> = (0..=10).map(|i| 1.0 + 0.1 * i as f64).collect();
    let benches = case_seeds(opts.seed).map(|seed| match opts.size {
        Size::Full => McfBench::new(16, &alphas, 25, seed),
        Size::Tiny => McfBench::new(8, &alphas[..3], 5, seed),
    });
    let gen_s = secs_since(t);
    let mut report = Report {
        traced: opts.trace,
        ..Report::default()
    };
    let mut plain: Vec<(usize, McfOp)> = Vec::new();
    let mut traced: Vec<McfOp> = Vec::new();
    let mut ratios: Vec<f64> = Vec::new();
    let mut fps = FingerprintCheck::new(opts.expected);
    let rss = op_loop(opts.seconds, opts.trace, |case, is_traced| {
        let solves = benches[case].solves() as u64;
        report.attempted += solves;
        let out = catch_unwind(AssertUnwindSafe(|| sweep(&benches[case])))
            .map_err(|_| "sweep panicked".to_string())
            .and_then(|o| check(&o, case, &mut fps).map(|()| o));
        match out {
            Ok(o) if is_traced => {
                if let Some((_, p)) = plain.last().filter(|(c, _)| *c == case) {
                    ratios.push(o.run() / p.run());
                }
                traced.push(o);
            }
            Ok(o) => plain.push((case, o)),
            Err(e) => {
                // Every solve of a failed sweep counts as failed.
                report.fail(e);
                report.failed += solves - 1;
            }
        }
    });
    if !opts.trace {
        let runs: Vec<f64> = plain.iter().map(|(_, o)| o.run()).collect();
        let rates: Vec<f64> = plain
            .iter()
            .map(|(c, o)| benches[*c].demand_phases() as f64 / o.run())
            .collect();
        report.set("run_s", median(&runs));
        report.set("pkts_per_s", median(&rates));
        let setups: Vec<f64> = plain.iter().map(|(_, o)| o.setup()).collect();
        report.set("setup_s", median(&setups));
        report.set("peak_rss_mb", rss);
        return report;
    }
    // Every solve is timed on its own in both kinds of op, so a traced
    // sweep differs from a plain one only in being reported call by
    // call: its overhead ratio is ~1 by construction.
    report.set("trace.overhead_ratio", median(&ratios));
    let traced_runs: Vec<f64> = traced.iter().map(McfOp::run).collect();
    if let Some(i) = median_index(&traced_runs) {
        let o = &traced[i];
        report.set("flowsim.solver_new_s", o.solver_new);
        report.set("flowsim.solve_s", o.run());
        report.set("flowsim.solves", o.solves.len() as f64);
        let max = o.solves.iter().copied().fold(0.0, f64::max);
        report.set("flowsim.solve_ms_max", max * 1e3);
        report.set("topo.generate_s", o.generate);
    }
    report.set("workloads.gen_s", gen_s);
    let demands: usize = benches.iter().map(McfBench::demand_count).sum();
    report.set("workloads.flows", demands as f64 / benches.len() as f64);
    report.set("ops", report.attempted as f64);
    report.set("ops_failed", report.failed as f64);
    report
}
