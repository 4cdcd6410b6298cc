//! Result assembly: the declared metric lists, metric-name rules, the
//! percentile rule, operation accounting, and the one-line JSON result the
//! benchmark prints last.

use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`: printed by every untraced run of
/// every workload (see README.md for each workload's definition).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("iters_per_s", "1/s"),
    ("gain_pct", "%"),
];

/// Per-layer metrics `(name, unit)`: printed by every traced run. A layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // runtime / geostat / lp: the simulator under `sweep`.
    ("runtime.steady_iter_ms", "ms"),
    ("runtime.tasks_per_s", "1/s"),
    ("runtime.share_pct", "%"),
    ("geostat.app_build_ms", "ms"),
    ("geostat.share_pct", "%"),
    ("lp.curve_ms", "ms"),
    ("lp.solves", "count"),
    ("lp.share_pct", "%"),
    ("sim.runs", "count"),
    ("sim.tasks_executed", "count"),
    // eval: table builds and replays.
    ("eval.table_build_s.a", "s"),
    ("eval.table_build_s.d", "s"),
    ("eval.table_build_s.i", "s"),
    ("eval.table_build_s.n", "s"),
    ("eval.sweep_efficiency", "ratio"),
    ("eval.cache.hits", "count"),
    ("eval.cache.misses", "count"),
    ("eval.replay_ms.DC", "ms"),
    ("eval.replay_ms.Right-Left", "ms"),
    ("eval.replay_ms.Brent", "ms"),
    ("eval.replay_ms.UCB", "ms"),
    ("eval.replay_ms.UCB-struct", "ms"),
    ("eval.replay_ms.GP-UCB", "ms"),
    ("eval.replay_ms.GP-discontinuous", "ms"),
    ("eval.replay_ms.all-nodes", "ms"),
    ("eval.replay_ms.oracle", "ms"),
    ("eval.replay_share_pct.GP-UCB", "%"),
    // core: strategy propose/observe.
    ("core.propose_ms.DC.p50", "ms"),
    ("core.propose_ms.DC.p99", "ms"),
    ("core.propose_ms.Right-Left.p50", "ms"),
    ("core.propose_ms.Right-Left.p99", "ms"),
    ("core.propose_ms.Brent.p50", "ms"),
    ("core.propose_ms.Brent.p99", "ms"),
    ("core.propose_ms.UCB.p50", "ms"),
    ("core.propose_ms.UCB.p99", "ms"),
    ("core.propose_ms.UCB-struct.p50", "ms"),
    ("core.propose_ms.UCB-struct.p99", "ms"),
    ("core.propose_ms.GP-UCB.p50", "ms"),
    ("core.propose_ms.GP-UCB.p99", "ms"),
    ("core.propose_ms.GP-discontinuous.p50", "ms"),
    ("core.propose_ms.GP-discontinuous.p99", "ms"),
    ("core.propose_ms.all-nodes.p50", "ms"),
    ("core.propose_ms.all-nodes.p99", "ms"),
    ("core.propose_ms.oracle.p50", "ms"),
    ("core.propose_ms.oracle.p99", "ms"),
    ("core.propose_share_pct", "%"),
    ("core.observe_us", "us"),
    // gp: surrogate fits.
    ("gp.mle_grid_ms.p50", "ms"),
    ("gp.mle_grid_ms.p99", "ms"),
    ("gp.mle_searches", "count"),
    ("gp.fit_full", "count"),
    ("gp.fit_incremental", "count"),
    ("gp.model_fits", "count"),
    ("gp.incremental_share", "ratio"),
    ("gp.share_pct", "%"),
    // service: the daemon as seen from its clients.
    ("client.get_proposal_p50_ms", "ms"),
    ("client.get_proposal_p99_ms", "ms"),
    ("client.submit_p50_ms", "ms"),
    ("client.submit_p99_ms", "ms"),
    ("client.session_p50_s", "s"),
    ("service.verb_ms.create_session", "ms"),
    ("service.verb_ms.get_proposal", "ms"),
    ("service.verb_ms.submit_observation", "ms"),
    ("service.verb_ms.close_session", "ms"),
    ("service.transport_ms", "ms"),
    ("service.dispatch_ms", "ms"),
    ("service.codec_us", "us"),
    ("service.queue_depth_max", "count"),
    ("service.requests", "count"),
    ("service.errors", "count"),
    // store: snapshot persistence.
    ("store.put_ms", "ms"),
    ("store.snapshot_bytes", "bytes"),
    // the benchmark itself.
    ("metrics.traced_overhead_pct", "%"),
    ("bench.failed_ops", "ratio"),
];

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Join `parts` with `.` into a metric name, replacing every character
/// outside `[A-Za-z0-9_.-]` with `_`.
pub fn metric_name(parts: &[&str]) -> String {
    parts
        .join(".")
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') { c } else { '_' })
        .collect()
}

/// Candidate tail percentiles, in per-mille, highest first.
const TAILS: [u32; 6] = [999, 990, 950, 900, 750, 500];

/// 1-based nearest-rank position of the `per_mille` percentile among `n`
/// sorted samples.
fn rank(n: usize, per_mille: u32) -> usize {
    (per_mille as usize * n).div_ceil(1000).max(1)
}

/// The highest candidate percentile (per-mille) that has at least ten of
/// `n` samples strictly beyond it, or `None` when not even the median has.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAILS.into_iter().find(|&p| n >= rank(n, p) + 10)
}

/// Nearest-rank percentile (`per_mille`, e.g. 990 for p99) of `values`;
/// `None` unless the percentile rule allows it (ten samples beyond).
pub fn percentile(values: &[f64], per_mille: u32) -> Option<f64> {
    if tail_percentile(values.len()).is_none_or(|top| per_mille > top) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), per_mille) - 1])
}

/// Median of `values` (mean of the middle pair for even counts); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Metrics and operation accounting of one run.
#[derive(Debug, Default)]
pub struct Report {
    values: Vec<(String, f64)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Record metric `name`. Names must be legal and used once.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(valid_name(name), "illegal metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.get(name).is_none(), "metric {name} set twice");
        self.values.push((name.to_string(), value));
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Account one checked operation; a failed check is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Failed operations over attempted operations (0 when none ran).
    pub fn failed_ops(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The result line: exactly the `declared` metrics, in declared order.
    /// With `zero_fill`, a declared metric the workload did not record
    /// reads 0 (its layer was not exercised); otherwise it is an error, as
    /// is a recorded metric that is not declared.
    pub fn result_line(
        &self,
        declared: &[(&str, &str)],
        zero_fill: bool,
    ) -> Result<String, String> {
        if let Some((extra, _)) =
            self.values.iter().find(|(n, _)| !declared.iter().any(|(d, _)| d == n))
        {
            return Err(format!("metric {extra} is not declared"));
        }
        let mut metrics = String::new();
        for (i, (name, unit)) in declared.iter().enumerate() {
            let value = match self.get(name) {
                Some(v) => v,
                None if zero_fill => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            let sep = if i == 0 { "" } else { ", " };
            write!(metrics, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
                .expect("writing to a String cannot fail");
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted > 0 && self.failed == 0,
            self.attempted,
            self.failed
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaphet_analysis::Json;

    #[test]
    fn tail_percentile_is_the_highest_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(500));
        assert_eq!(tail_percentile(39), Some(500));
        assert_eq!(tail_percentile(40), Some(750));
        assert_eq!(tail_percentile(100), Some(900));
        assert_eq!(tail_percentile(200), Some(950));
        assert_eq!(tail_percentile(999), Some(950));
        assert_eq!(tail_percentile(1000), Some(990));
        assert_eq!(tail_percentile(9999), Some(990));
        assert_eq!(tail_percentile(10_000), Some(999));
    }

    #[test]
    fn percentile_refuses_tails_without_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 990), Some(990.0));
        assert_eq!(percentile(&v, 500), Some(500.0));
        assert_eq!(percentile(&v, 999), None);
        assert_eq!(percentile(&v[..999], 990), None);
        assert_eq!(percentile(&v[..999], 950), Some(950.0));
        // Exactly ten samples lie beyond the chosen percentile.
        let p = percentile(&v, 990).unwrap();
        assert_eq!(v.iter().filter(|&&x| x > p).count(), 10);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_names_keep_to_the_charset() {
        assert!(valid_name("core.propose_ms.GP-UCB.p99"));
        assert!(valid_name("1st"));
        assert!(!valid_name(""));
        assert!(!valid_name("_lead"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("ratio/s"));
        assert!(!valid_name(&"x".repeat(65)));
        assert_eq!(metric_name(&["eval", "replay_ms", "GP UCB/2"]), "eval.replay_ms.GP_UCB_2");
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
        }
    }

    #[test]
    fn declared_names_are_unique_and_units_legal() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
        let unit_ok = |u: &str| {
            (1..=16).contains(&u.len())
                && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END.iter().chain(PER_LAYER).all(|(_, u)| unit_ok(u)));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn failed_ops_counts_failures_over_attempts() {
        let mut r = Report::default();
        assert_eq!(r.failed_ops(), 0.0);
        r.check(true, String::new);
        r.check(false, || "mismatch".into());
        r.check(true, String::new);
        r.check(true, String::new);
        assert_eq!(r.failed_ops(), 0.25);
        r.set("setup_s", 1.0);
        let line = r.result_line(&[("setup_s", "s")], false).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1,"));
    }

    #[test]
    fn a_run_without_checked_operations_is_not_correct() {
        let mut r = Report::default();
        r.set("setup_s", 1.0);
        assert!(r.result_line(&[("setup_s", "s")], false).unwrap().contains("\"correct\": false"));
    }

    #[test]
    fn result_line_lists_exactly_the_declared_metrics_in_order() {
        let mut r = Report::default();
        r.check(true, String::new);
        for (i, (name, _)) in END_TO_END.iter().enumerate().rev() {
            r.set(name, 0.5 + i as f64);
        }
        let line = r.result_line(END_TO_END, false).unwrap();
        let json = Json::parse(&line).unwrap();
        let keys: Vec<&str> = match &json {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let names: Vec<&str> = match json.get("metrics").unwrap() {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        };
        assert_eq!(names, END_TO_END.iter().map(|(n, _)| *n).collect::<Vec<_>>());
        let wall = json.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value").unwrap().as_f64(), Some(1.5));
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
    }

    #[test]
    fn missing_and_undeclared_metrics_are_errors_unless_zero_filled() {
        let mut r = Report::default();
        r.set("wall_s", 2.0);
        assert!(r.result_line(END_TO_END, false).is_err());
        assert!(r.result_line(&[("setup_s", "s")], true).is_err());
        let filled = r.result_line(&[("setup_s", "s"), ("wall_s", "s")], true).unwrap();
        assert!(filled.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
    }

    #[test]
    fn declared_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let json = Json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            match json.get(key).unwrap() {
                Json::Arr(items) => items
                    .iter()
                    .map(|m| {
                        let field = |f: &str| m.get(f).unwrap().as_str().unwrap().to_string();
                        (field("name"), field("unit"))
                    })
                    .collect(),
                other => panic!("{key} is not a list: {other:?}"),
            }
        };
        let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), owned(END_TO_END));
        assert_eq!(listed("per_layer"), owned(PER_LAYER));
    }
}
