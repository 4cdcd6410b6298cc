//! `fig6`: the paper's Fig. 6 pipeline at test scale. Set-up builds the
//! 16 test-scale tables uncached; one timed pass replays every strategy
//! on every table, 4 repetitions of 127 iterations each, fanned out like
//! `replay_many`. Bound by the tuner (mostly GP-UCB's full refits); the
//! simulator shows only in `setup_s`.

use crate::report::{median, metric_name, percentile, Report};
use crate::tuning::{
    fig6_kinds, gain_vs_all, passes, table_digest, test_tables, timed, timed_replay, Digests,
    FIG6_REPS, FIG6_SEED, ITERS, SETUP_REPEATS,
};
use adaphet_core::{History, StrategyKind};
use adaphet_eval::{sweep, ResponseTable};
use adaphet_gp::{estimate_noise_from_replicates, fit_profile_likelihood, MleSearch};
use adaphet_scenarios::Scenario;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Pass time on the reference machine (see `tuning::passes`).
const NOMINAL_PASS_S: f64 = 23.0;

/// What one replay of one (scenario, strategy) pair left behind.
struct Cell {
    scenario: usize,
    kind: StrategyKind,
    totals: Vec<f64>,
    replay_s: Vec<f64>,
    propose_s: Vec<f64>,
    observe_s: Vec<f64>,
    /// Histories of the GP-UCB replays (the MLE-grid probe's inputs).
    histories: Vec<History>,
}

struct Pass {
    wall_s: f64,
    cpu_s: f64,
    cells: Vec<Cell>,
}

fn pass(tables: &[ResponseTable], order: &[usize]) -> Pass {
    let (cells, wall_s, cpu_s) = timed(|| {
        let mut cells = Vec::new();
        for &scenario in order {
            for kind in fig6_kinds() {
                let reps = sweep((0..FIG6_REPS as u64).collect(), false, |r| {
                    timed_replay(kind, &tables[scenario], ITERS, FIG6_SEED + r)
                });
                let histories = if kind == StrategyKind::GpUcb {
                    reps.iter().map(|r| r.session.history().clone()).collect()
                } else {
                    Vec::new()
                };
                cells.push(Cell {
                    scenario,
                    kind,
                    totals: reps.iter().map(|r| r.total).collect(),
                    replay_s: reps.iter().map(|r| r.wall_s).collect(),
                    propose_s: reps.iter().flat_map(|r| r.propose_s.iter().copied()).collect(),
                    observe_s: reps.iter().flat_map(|r| r.observe_s.iter().copied()).collect(),
                    histories,
                });
            }
        }
        cells
    });
    Pass { wall_s, cpu_s, cells }
}

/// A seeded permutation of `0..n` (Fisher-Yates).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.random_range(0..=i));
    }
    v
}

/// Build the test-scale tables `SETUP_REPEATS` times and check them;
/// returns the tables and the median build time. Shared with `serve`.
pub fn setup_tables(report: &mut Report, digests: &mut Digests) -> (Vec<ResponseTable>, f64) {
    let mut walls = Vec::new();
    let mut tables = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (t, wall, _) = timed(test_tables);
        walls.push(wall);
        tables = t;
    }
    for (s, t) in Scenario::all16().iter().zip(&tables) {
        digests.check(report, "tables", FIG6_SEED, &s.id.to_string(), table_digest(t));
    }
    (tables, median(&walls))
}

/// Run the workload. `seed` sets the order in which the 16 scenarios are
/// replayed; the replays themselves are `fig6 --test --reps 4`'s, so
/// every per-(scenario, strategy) total is checked against its digest.
pub fn run(seed: u64, seconds: u64, trace: bool, report: &mut Report, digests: &mut Digests) {
    let (tables, setup_s) = setup_tables(report, digests);
    let order = permutation(tables.len(), seed);
    for kind in [StrategyKind::GpUcb, StrategyKind::GpDiscontinuous] {
        timed_replay(kind, &tables[order[0]], ITERS, FIG6_SEED); // warm-up
    }
    let untraced = passes(seconds, NOMINAL_PASS_S, |_| pass(&tables, &order));
    let ids: Vec<char> = Scenario::all16().iter().map(|s| s.id).collect();
    let mut check = |p: &Pass, report: &mut Report| {
        for c in &p.cells {
            let mut h = crate::host::Fnv::default();
            h.f64s(&c.totals);
            let item = format!("{}/{}", ids[c.scenario], c.kind.name());
            digests.check(report, "fig6", FIG6_SEED, &item, h.0);
        }
    };
    for p in &untraced {
        check(p, report);
    }
    let wall = median(&untraced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    if !trace {
        let iters = (untraced[0].cells.len() * FIG6_REPS * ITERS) as f64;
        let gains: Vec<f64> = untraced[0]
            .cells
            .iter()
            .filter(|c| c.kind == StrategyKind::GpDiscontinuous)
            .map(|c| 100.0 * gain_vs_all(&tables[c.scenario], &c.totals))
            .collect();
        report.set("setup_s", setup_s);
        report.set("wall_s", wall);
        report.set("cpu_s", median(&untraced.iter().map(|p| p.cpu_s).collect::<Vec<_>>()));
        report.set("peak_rss_mb", crate::host::peak_rss_mb(None));
        report.set(
            "iters_per_s",
            median(&untraced.iter().map(|p| iters / p.wall_s).collect::<Vec<_>>()),
        );
        report.set("gain_pct", gains.iter().sum::<f64>() / gains.len() as f64);
        return;
    }

    let registry = crate::install_registry();
    let traced = pass(&tables, &order);
    check(&traced, report);
    crate::layer_counters(&registry, report);
    report.set("metrics.traced_overhead_pct", 100.0 * (traced.wall_s / wall - 1.0));
    let mut all_replay = 0.0;
    let mut all_propose = 0.0;
    let mut gp_ucb_replay = 0.0;
    for kind in fig6_kinds() {
        let cells: Vec<&Cell> = traced.cells.iter().filter(|c| c.kind == kind).collect();
        let replay_s: Vec<f64> = cells.iter().flat_map(|c| c.replay_s.iter().copied()).collect();
        let propose_s: Vec<f64> = cells.iter().flat_map(|c| c.propose_s.iter().copied()).collect();
        all_replay += replay_s.iter().sum::<f64>();
        all_propose += propose_s.iter().sum::<f64>();
        let name = kind.name();
        report.set(&metric_name(&["eval.replay_ms", name]), 1e3 * median(&replay_s));
        for (p, tag) in [(500, "p50"), (990, "p99")] {
            let v = percentile(&propose_s, p).expect("8128 proposals per strategy");
            report.set(&metric_name(&["core.propose_ms", name, tag]), 1e3 * v);
        }
        if kind == StrategyKind::GpUcb {
            gp_ucb_replay = replay_s.iter().sum::<f64>();
        }
    }
    report.set("eval.replay_share_pct.GP-UCB", 100.0 * gp_ucb_replay / all_replay);
    report.set("core.propose_share_pct", 100.0 * all_propose / all_replay);
    let observe: Vec<f64> = traced.cells.iter().flat_map(|c| c.observe_s.iter().copied()).collect();
    report.set("core.observe_us", 1e6 * median(&observe));
    let gp_s = ["gp.mle.search_s", "gp.model.update_s"]
        .iter()
        .filter_map(|h| registry.histogram(h))
        .map(|h| h.sum)
        .sum::<f64>();
    report.set("gp.share_pct", 100.0 * gp_s / all_propose);

    let histories: Vec<&History> = traced.cells.iter().flat_map(|c| &c.histories).collect();
    let grid_ms = mle_grid_probe(&histories);
    for (p, tag) in [(500, "p50"), (990, "p99")] {
        let v = percentile(&grid_ms, p).expect("one fit per recorded GP-UCB prefix");
        report.set(&format!("gp.mle_grid_ms.{tag}"), v);
    }
}

/// Time the public MLE grid search on every prefix (n >= 2) of the
/// captured GP-UCB histories, with GP-UCB's own noise rule; milliseconds.
fn mle_grid_probe(histories: &[&History]) -> Vec<f64> {
    let search = MleSearch::default();
    let mut out = Vec::new();
    for h in histories.iter().step_by(FIG6_REPS) {
        let records = h.records();
        for n in 2..=records.len() {
            let xs: Vec<f64> = records[..n].iter().map(|&(a, _)| a as f64).collect();
            let ys: Vec<f64> = records[..n].iter().map(|&(_, y)| y).collect();
            let var = adaphet_linalg::sample_variance(&ys);
            let noise = estimate_noise_from_replicates(&xs, &ys).unwrap_or(1e-4 * var.max(1e-12));
            let t = Instant::now();
            let fit = fit_profile_likelihood(&search, &xs, &ys, noise);
            out.push(1e3 * t.elapsed().as_secs_f64());
            std::hint::black_box(fit.is_ok());
        }
    }
    out
}
