//! `sweep`: reduced-scale response tables for a fixed subset of scenarios
//! through the order-preserving `sweep` fan-out, plus the all-nodes and
//! oracle reference lines. Bound by the simulator: `runtime`, `geostat`
//! and `lp` do almost all the work; `gp`, `core` and `service` do none.

use crate::report::{median, metric_name, Report};
use crate::tuning::{passes, timed, Digests, ITERS, SETUP_REPEATS};
use adaphet_core::StrategyKind;
use adaphet_eval::{build_response, replay_many, sweep, ReplaySummary, ResponseTable};
use adaphet_geostat::IterationChoice;
use adaphet_scenarios::{Scale, Scenario};
use std::time::Instant;

/// Scenarios swept: 10 to 75 nodes, both sites, one "(Real)" mix. (h),
/// (m) and (p) are left out: their reduced tables alone take 21-52 s.
pub const SUBSET: [char; 4] = ['a', 'd', 'i', 'n'];
/// Observation pool size per action (the figure binaries' default).
const REPS: usize = 30;
/// The subset's smallest table: built in set-up, and replicated call by
/// call for the layer shares.
const SMALLEST: usize = 1;
/// `--seed` picks one of these table seeds; each has committed digests.
const TABLE_SEEDS: [u64; 4] = [42, 43, 44, 45];

/// Pass time on the reference machine (see `tuning::passes`).
const NOMINAL_PASS_S: f64 = 11.0;

struct Pass {
    wall_s: f64,
    cpu_s: f64,
    /// Wall seconds of the table fan-out alone.
    build_wall_s: f64,
    tables: Vec<(ResponseTable, f64)>,
    refs: Vec<(ReplaySummary, ReplaySummary)>,
}

fn pass(scenarios: &[Scenario], seed: u64) -> Pass {
    let ((build_wall_s, tables, refs), wall_s, cpu_s) = timed(|| {
        let t = Instant::now();
        let tables = sweep(scenarios.to_vec(), false, |s| {
            let t = Instant::now();
            let table = build_response(&s, Scale::Reduced, REPS, seed);
            (table, t.elapsed().as_secs_f64())
        });
        let build_wall_s = t.elapsed().as_secs_f64();
        let refs = tables
            .iter()
            .map(|(t, _)| {
                (
                    replay_many(StrategyKind::AllNodes, t, ITERS, REPS, seed),
                    replay_many(StrategyKind::Oracle, t, ITERS, REPS, seed),
                )
            })
            .collect();
        (build_wall_s, tables, refs)
    });
    Pass { wall_s, cpu_s, build_wall_s, tables, refs }
}

/// Steady iterations a table simulated: one per simulated configuration.
fn steady_iterations(p: &Pass) -> usize {
    p.tables.iter().map(|(t, _)| t.sim_base.iter().map(Vec::len).sum::<usize>()).sum()
}

pub fn run(seed: u64, seconds: u64, trace: bool, report: &mut Report, digests: &mut Digests) {
    let table_seed = TABLE_SEEDS[(seed % TABLE_SEEDS.len() as u64) as usize];
    // Set-up: scenario, platform and application-graph construction, and
    // the subset's smallest table (the first build pays lazy one-offs).
    let mut setup = Vec::new();
    let mut scenarios = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (s, wall, _) = timed(|| {
            let scenarios: Vec<Scenario> =
                SUBSET.iter().map(|&id| Scenario::by_id(id).expect("known scenario")).collect();
            for s in &scenarios {
                std::hint::black_box(s.platform());
                std::hint::black_box(s.app_untraced(Scale::Reduced, table_seed));
            }
            std::hint::black_box(build_response(
                &scenarios[SMALLEST],
                Scale::Reduced,
                REPS,
                table_seed,
            ));
            scenarios
        });
        setup.push(wall);
        scenarios = s;
    }
    let untraced = passes(seconds, NOMINAL_PASS_S, |_| pass(&scenarios, table_seed));
    let mut check = |p: &Pass, report: &mut Report| {
        for ((t, _), (all, oracle)) in p.tables.iter().zip(&p.refs) {
            let mut h = crate::host::Fnv::default();
            h.bytes(crate::tuning::table_digest(t).to_le_bytes().as_slice());
            h.f64s(&all.totals);
            h.f64s(&oracle.totals);
            let id = t.label[1..2].to_string();
            digests.check(report, "sweep", table_seed, &id, h.0);
        }
    };
    for p in &untraced {
        check(p, report);
    }
    let wall = median(&untraced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    if !trace {
        let gains: Vec<f64> =
            untraced[0].refs.iter().map(|(_, oracle)| 100.0 * oracle.gain_vs_all).collect();
        report.set("setup_s", median(&setup));
        report.set("wall_s", wall);
        report.set("cpu_s", median(&untraced.iter().map(|p| p.cpu_s).collect::<Vec<_>>()));
        report.set("peak_rss_mb", crate::host::peak_rss_mb(None));
        let rates: Vec<f64> =
            untraced.iter().map(|p| steady_iterations(p) as f64 / p.wall_s).collect();
        report.set("iters_per_s", median(&rates));
        report.set("gain_pct", gains.iter().sum::<f64>() / gains.len() as f64);
        return;
    }

    let registry = crate::install_registry();
    let traced = pass(&scenarios, table_seed);
    check(&traced, report);
    report.set("metrics.traced_overhead_pct", 100.0 * (traced.wall_s / wall - 1.0));
    for (t, busy) in &traced.tables {
        report.set(&metric_name(&["eval.table_build_s", &t.label[1..2]]), *busy);
    }
    let busy: f64 = traced.tables.iter().map(|(_, b)| b).sum();
    let threads = crate::host::nproc().min(scenarios.len()) as f64;
    report.set("eval.sweep_efficiency", busy / (traced.build_wall_s * threads));

    // Layer probe: re-issue, one call at a time, the simulator and LP
    // calls a table build makes, timing each. Only the probe's
    // applications report to the registry (`build_response` attaches no
    // recorder), so the `sim.*` counters are the probe's.
    let mut probe = Probe::default();
    for (s, (t, _)) in scenarios.iter().zip(&traced.tables) {
        let n = s.n_nodes();
        let stride = (n / 6).max(1);
        let ks: Vec<usize> = (1..=n).filter(|k| (k - 1) % stride == 0 || *k == n).collect();
        probe.scenario(s, table_seed, &ks, t, report, &registry);
    }
    report.set("runtime.steady_iter_ms", 1e3 * median(&probe.steady_s));
    report.set("runtime.tasks_per_s", probe.tasks / probe.iteration_s.iter().sum::<f64>());
    report.set("geostat.app_build_ms", 1e3 * median(&probe.build_s));
    report.set("lp.curve_ms", 1e3 * median(&probe.lp_s));

    // Shares: a complete single-threaded replica of one table against the
    // CPU seconds its parallel build spends.
    let d = &scenarios[SMALLEST];
    let (table, _, build_cpu) = timed(|| build_response(d, Scale::Reduced, REPS, table_seed));
    let mut replica = Probe::default();
    let all: Vec<usize> = (1..=d.n_nodes()).collect();
    replica.scenario(d, table_seed, &all, &table, report, &registry);
    let share = |v: &[f64]| 100.0 * v.iter().sum::<f64>() / build_cpu;
    report.set("runtime.share_pct", share(&replica.iteration_s));
    report.set("geostat.share_pct", share(&replica.build_s));
    report.set("lp.share_pct", share(&replica.lp_s));
    crate::layer_counters(&registry, report);
}

/// Per-call timings of the simulator and LP layers.
#[derive(Default)]
struct Probe {
    build_s: Vec<f64>,
    /// Both simulated iterations of every configuration.
    iteration_s: Vec<f64>,
    /// The measured (second, steady) iteration only.
    steady_s: Vec<f64>,
    lp_s: Vec<f64>,
    tasks: f64,
}

impl Probe {
    /// Time `Scenario::lp_curve` and, for each action in `ks`, the steady
    /// iteration measurement `build_response` makes (first simulation
    /// seed), checking each against `table`.
    fn scenario(
        &mut self,
        s: &Scenario,
        seed: u64,
        ks: &[usize],
        table: &ResponseTable,
        report: &mut Report,
        registry: &adaphet_metrics::Registry,
    ) {
        let t = Instant::now();
        let lp = s.lp_curve(Scale::Reduced);
        self.lp_s.push(t.elapsed().as_secs_f64());
        report.check(lp == table.lp, || format!("{}: LP curve differs from the table's", s.id));
        let n = s.n_nodes();
        for &k in ks {
            let t = Instant::now();
            let mut app = s.app_untraced(Scale::Reduced, seed);
            self.build_s.push(t.elapsed().as_secs_f64());
            app.set_recorder(std::sync::Arc::new(registry.clone()));
            let tasks = registry.counter_value("sim.tasks_executed");
            let t = Instant::now();
            app.run_iteration(IterationChoice::fact_only(n, k));
            let first = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let steady = app.run_iteration(IterationChoice::fact_only(n, k)).duration();
            let second = t.elapsed().as_secs_f64();
            self.tasks += registry.counter_value("sim.tasks_executed") - tasks;
            self.iteration_s.extend([first, second]);
            self.steady_s.push(second);
            report.check(steady.to_bits() == table.sim_base[k - 1][0].to_bits(), || {
                format!("{}: steady iteration at k={k} differs from the table's", s.id)
            });
        }
    }
}
