//! Pieces the workloads share: the test-scale tables, a replay loop that
//! times every propose/observe, the timed-pass loop, and the committed
//! output digests.

use crate::host::Fnv;
use crate::report::Report;
use adaphet_core::{Observation, Observed, Session, StrategyKind, TunerDriver, PAPER_STRATEGIES};
use adaphet_eval::{build_response, space_of, sweep, ResponseTable};
use adaphet_scenarios::{Scale, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// Tuning iterations per replay or served session (the paper's budget).
pub const ITERS: usize = 127;
/// Repetitions per (scenario, strategy) in `fig6`, and the pool size of
/// the test-scale tables: `fig6 --test --reps 4`. Four is the shim-rayon
/// sequential cutoff, so the replay fan-out runs on threads as in a
/// default `fig6` run.
pub const FIG6_REPS: usize = 4;
/// Seed of the test-scale tables and of the `fig6` replays (the figure
/// binaries' default).
pub const FIG6_SEED: u64 = 42;
/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// The strategies `fig6` replays: the paper's seven plus the two
/// reference lines.
pub fn fig6_kinds() -> Vec<StrategyKind> {
    let mut kinds = PAPER_STRATEGIES.to_vec();
    kinds.extend([StrategyKind::AllNodes, StrategyKind::Oracle]);
    kinds
}

/// The 16 test-scale response tables, built uncached through the
/// order-preserving `sweep` fan-out.
pub fn test_tables() -> Vec<ResponseTable> {
    sweep(Scenario::all16(), false, |s| build_response(&s, Scale::Test, FIG6_REPS, FIG6_SEED))
}

/// Digest of a table's exact contents.
pub fn table_digest(t: &ResponseTable) -> u64 {
    let mut h = Fnv::default();
    t.durations.iter().chain(&t.sim_base).for_each(|pool| h.f64s(pool));
    h.f64s(&t.lp);
    h.f64s(&[t.sigma]);
    h.0
}

/// One replay driven through the public [`Session`] API with every
/// propose and observe timed. Bit-identical to `adaphet_eval::replay`:
/// same strategy construction, same duration draws.
pub struct TimedReplay {
    /// Total application time after all iterations.
    pub total: f64,
    /// Wall seconds of the whole replay.
    pub wall_s: f64,
    /// Wall seconds of each `Session::propose`.
    pub propose_s: Vec<f64>,
    /// Wall seconds of each `Session::observe`.
    pub observe_s: Vec<f64>,
    /// The finished session (history, surrogate snapshot).
    pub session: Session,
}

/// Replay `kind` on `table` for `iters` iterations from `seed`.
pub fn timed_replay(
    kind: StrategyKind,
    table: &ResponseTable,
    iters: usize,
    seed: u64,
) -> TimedReplay {
    let start = Instant::now();
    let space = space_of(table);
    let best = table.best_action();
    let strategy = kind.build(&space, seed, Some(best)).expect("the best action is provided");
    let mut session = TunerDriver::builder(&space)
        .strategy(strategy)
        .best_known(table.mean(best))
        .build_session()
        .expect("a strategy was provided");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut propose_s = Vec::with_capacity(iters);
    let mut observe_s = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        let p = session.propose().expect("one proposal in flight at a time");
        propose_s.push(t.elapsed().as_secs_f64());
        let pool = &table.durations[p.action - 1];
        let obs = Observation::of(pool[rng.random_range(0..pool.len())]);
        let t = Instant::now();
        let outcome = session.observe(p.ticket, obs).expect("the ticket was just issued");
        observe_s.push(t.elapsed().as_secs_f64());
        assert!(matches!(outcome, Observed::Recorded(_)), "the default policy never retries");
    }
    TimedReplay {
        total: session.history().total_time(),
        wall_s: start.elapsed().as_secs_f64(),
        propose_s,
        observe_s,
        session,
    }
}

/// Gain over the all-nodes baseline, as `ReplaySummary::gain_vs_all`.
pub fn gain_vs_all(table: &ResponseTable, totals: &[f64]) -> f64 {
    let mean = totals.iter().sum::<f64>() / totals.len() as f64;
    1.0 - mean / (table.all_nodes_mean() * ITERS as f64)
}

/// Timed passes: `round(seconds / nominal_s)` runs of `pass`, at least
/// one. `nominal_s` is the workload's pass time on the reference machine
/// (2 vCPUs), so a run measures about `seconds` there, and every run does
/// the same work wherever it runs.
pub fn passes<T>(seconds: u64, nominal_s: f64, pass: impl FnMut(usize) -> T) -> Vec<T> {
    let count = (seconds as f64 / nominal_s).round().max(1.0) as usize;
    (0..count).map(pass).collect()
}

/// Wall and CPU seconds of a closure's run in this process.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu = crate::host::cpu_s(None);
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64(), crate::host::cpu_s(None) - cpu)
}

const COMMITTED: &str = include_str!("../digests.txt");

/// Output digests committed in `digests.txt`, keyed by
/// `(workload, seed, item)`, and the digests this run computed.
pub struct Digests {
    committed: BTreeMap<(String, u64, String), u64>,
    computed: Vec<(String, u64, String, u64)>,
}

const DIGESTS_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/digests.txt");

fn parse_digests(text: &str) -> BTreeMap<(String, u64, String), u64> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 4, "digests.txt line {l:?}");
            let seed = f[1].parse().expect("digest seed");
            let value = u64::from_str_radix(f[3], 16).expect("hex digest");
            ((f[0].to_string(), seed, f[2].to_string()), value)
        })
        .collect()
}

impl Default for Digests {
    fn default() -> Self {
        Digests { committed: parse_digests(COMMITTED), computed: Vec::new() }
    }
}

impl Digests {
    /// Check one output digest against the committed one.
    pub fn check(
        &mut self,
        report: &mut Report,
        workload: &str,
        seed: u64,
        item: &str,
        value: u64,
    ) {
        let want = self.committed.get(&(workload.to_string(), seed, item.to_string())).copied();
        report.check(want == Some(value), || {
            format!("{workload} seed {seed} {item}: digest {value:016x}, committed {want:016x?}")
        });
        self.computed.push((workload.to_string(), seed, item.to_string(), value));
    }

    /// Rewrite `digests.txt` with this run's digests replacing the
    /// committed ones of the same keys (the `--bless` maintenance path).
    pub fn bless(&self) -> std::io::Result<()> {
        let mut all = parse_digests(&std::fs::read_to_string(DIGESTS_FILE)?);
        for (w, s, i, v) in &self.computed {
            all.insert((w.clone(), *s, i.clone()), *v);
        }
        let mut text = String::from(
            "# workload seed item fnv64 -- exact output digests, rewritten by `--bless`\n",
        );
        for ((w, s, i), v) in all {
            text.push_str(&format!("{w} {s} {i} {v:016x}\n"));
        }
        std::fs::write(DIGESTS_FILE, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaphet_eval::replay;

    fn synthetic_table() -> ResponseTable {
        ResponseTable {
            label: "synthetic".into(),
            durations: (1..=8).map(|k| vec![10.0 + k as f64, 11.0 + 0.5 * k as f64]).collect(),
            sim_base: (1..=8).map(|k| vec![10.0 + k as f64]).collect(),
            lp: (1..=8).map(|k| 4.0 / k as f64).collect(),
            groups: vec![(1, 3), (4, 8)],
            sigma: 0.5,
        }
    }

    #[test]
    fn timed_replay_matches_eval_replay_bitwise() {
        let t = synthetic_table();
        for kind in fig6_kinds() {
            let timed = timed_replay(kind, &t, 30, 7);
            let reference = replay(kind, &t, 30, 7);
            assert_eq!(timed.total.to_bits(), reference.total_time.to_bits(), "{kind}");
            assert_eq!(timed.session.history(), &reference.history, "{kind}");
            assert_eq!(timed.propose_s.len(), 30);
        }
    }

    #[test]
    fn pass_count_follows_seconds_and_runs_at_least_once() {
        assert_eq!(passes(0, 10.0, |i| i), vec![0]);
        assert_eq!(passes(20, 11.0, |i| i), vec![0, 1]);
        assert_eq!(passes(20, 0.8, |i| i).len(), 25);
    }
}
