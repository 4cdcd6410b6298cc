//! Typed extraction of the `IterationEvent` JSONL telemetry schema pinned
//! by `tests/telemetry_schema.rs`, on top of the workspace's JSON codec
//! ([`adaphet_metrics::json`], re-exported here as [`Json`]). Unknown
//! keys are ignored, so the reader accepts both the current 15-key
//! schema and the older 14-key prefix.

use std::collections::HashMap;

pub use adaphet_metrics::json::Json;

/// One posterior point of a telemetry `snapshot`.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotPoint {
    /// Action (node count).
    pub action: usize,
    /// Posterior mean (`None` when the emitter wrote `null` for NaN).
    pub mean: Option<f64>,
    /// Posterior standard deviation.
    pub sd: Option<f64>,
    /// LP lower bound at the action, if the space carries one.
    pub lp_bound: Option<f64>,
    /// Whether the bound mechanism excluded the action.
    pub excluded: bool,
}

/// One parsed `IterationEvent` JSONL line.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// 0-based iteration index.
    pub iteration: usize,
    /// Strategy name.
    pub strategy: String,
    /// Chosen action.
    pub action: usize,
    /// Measured duration (s); `NaN` when the emitter wrote `null`.
    pub duration: f64,
    /// Cumulative time (s).
    pub cumulative_time: f64,
    /// Best-known duration, when the driver was configured with one.
    pub best_known: Option<f64>,
    /// Instantaneous regret.
    pub regret: Option<f64>,
    /// Per-phase busy-time breakdown `(name, seconds)`.
    pub phases: Vec<(String, f64)>,
    /// Decision-trace note (empty when tracing was off).
    pub note: String,
    /// Actions excluded by the bound mechanism.
    pub excluded: Vec<usize>,
    /// Wall-clock phase slices from a profiled iteration.
    pub breakdown_phases: Vec<(String, f64)>,
    /// Per-group `(name, busy_s, idle_s)` from a profiled iteration.
    pub breakdown_groups: Vec<(String, f64, f64)>,
    /// Resilience retries this iteration.
    pub retries: usize,
    /// Fault annotation, if any.
    pub fault: Option<String>,
    /// Full posterior snapshot, if the strategy produced one.
    pub snapshot: Option<Vec<SnapshotPoint>>,
}

/// All iterations of one strategy in a telemetry file.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyRun {
    /// Strategy name as emitted.
    pub name: String,
    /// Records in file order.
    pub records: Vec<IterationRecord>,
}

/// A parsed telemetry file: one [`StrategyRun`] per strategy, in
/// first-appearance order (fig6 `--telemetry` appends every strategy's
/// replay into a single file).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryRun {
    /// Per-strategy runs.
    pub runs: Vec<StrategyRun>,
}

impl TelemetryRun {
    /// Parse a JSONL telemetry document (one event per non-empty line).
    pub fn parse(text: &str) -> Result<TelemetryRun, String> {
        let mut runs: Vec<StrategyRun> = Vec::new();
        let mut index: HashMap<String, usize> = HashMap::new();
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let v = Json::parse(line).map_err(|e| format!("line {}: {e}", ln + 1))?;
            let rec = parse_record(&v).map_err(|e| format!("line {}: {e}", ln + 1))?;
            let at = *index.entry(rec.strategy.clone()).or_insert_with(|| {
                runs.push(StrategyRun { name: rec.strategy.clone(), records: Vec::new() });
                runs.len() - 1
            });
            runs[at].records.push(rec);
        }
        Ok(TelemetryRun { runs })
    }

    /// Total number of records across all strategies.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|r| r.records.len()).sum()
    }

    /// Whether the file contained no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `(strategy, action, duration)` of the fastest iteration in the
    /// file — the natural choice to re-simulate for diagnosis.
    pub fn best_observed(&self) -> Option<(&str, usize, f64)> {
        self.runs
            .iter()
            .flat_map(|r| r.records.iter().map(move |rec| (r.name.as_str(), rec)))
            .filter(|(_, rec)| rec.duration.is_finite())
            .min_by(|a, b| {
                a.1.duration.partial_cmp(&b.1.duration).unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(name, rec)| (name, rec.action, rec.duration))
    }
}

fn f64_or_nan(v: Option<&Json>) -> f64 {
    v.and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn opt_f64(v: Option<&Json>) -> Option<f64> {
    v.and_then(Json::as_f64)
}

fn named_seconds(v: Option<&Json>) -> Vec<(String, f64)> {
    v.and_then(Json::as_arr)
        .map(|items| {
            items
                .iter()
                .filter_map(|p| {
                    Some((
                        p.get("name")?.as_str()?.to_string(),
                        p.get("seconds").and_then(Json::as_f64)?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn parse_record(v: &Json) -> Result<IterationRecord, String> {
    let snapshot = match v.get("snapshot") {
        None | Some(Json::Null) => None,
        Some(snap) => Some(
            snap.req::<&[Json]>("points")?
                .iter()
                .map(|p| {
                    Ok(SnapshotPoint {
                        action: p.req("action")?,
                        mean: opt_f64(p.get("mean")),
                        sd: opt_f64(p.get("sd")),
                        lp_bound: opt_f64(p.get("lp_bound")),
                        excluded: p.get("excluded").and_then(Json::as_bool).unwrap_or(false),
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
        ),
    };
    let breakdown = v.get("phase_breakdown");
    Ok(IterationRecord {
        iteration: v.req("iteration")?,
        strategy: v.req("strategy")?,
        action: v.req("action")?,
        duration: f64_or_nan(v.get("duration")),
        cumulative_time: f64_or_nan(v.get("cumulative_time")),
        best_known: opt_f64(v.get("best_known")),
        regret: opt_f64(v.get("regret")),
        phases: named_seconds(v.get("phases")),
        note: v.get("note").and_then(Json::as_str).unwrap_or("").to_string(),
        excluded: v
            .get("excluded")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_usize).collect())
            .unwrap_or_default(),
        breakdown_phases: named_seconds(breakdown.and_then(|b| b.get("phases"))),
        breakdown_groups: breakdown
            .and_then(|b| b.get("groups"))
            .and_then(Json::as_arr)
            .map(|items| {
                items
                    .iter()
                    .filter_map(|g| {
                        Some((
                            g.get("name")?.as_str()?.to_string(),
                            g.get("busy_s").and_then(Json::as_f64)?,
                            g.get("idle_s").and_then(Json::as_f64)?,
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default(),
        retries: v.get("retries").and_then(Json::as_usize).unwrap_or(0),
        fault: v.get("fault").and_then(Json::as_str).map(str::to_string),
        snapshot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A line exactly as `IterationEvent::to_json` emits it (the golden
    /// schema of tests/telemetry_schema.rs).
    const LINE: &str = "{\"iteration\":3,\"strategy\":\"GP-discontinuous\",\"action\":7,\
        \"duration\":1.5,\"cumulative_time\":12.25,\"best_known\":1.25,\
        \"regret\":0.25,\"phases\":[{\"name\":\"factorization\",\"seconds\":1}],\
        \"posterior\":[{\"action\":7,\"mean\":1.5,\"sd\":0.125,\"acquisition\":1.25}],\
        \"excluded\":[1,2],\"note\":\"gp-lcb\",\"phase_breakdown\":{\"phases\":[\
        {\"name\":\"generation\",\"seconds\":0.25}],\"groups\":[{\"name\":\"chifflot:1-2\",\
        \"busy_s\":3,\"idle_s\":1,\"utilization\":0.75}]},\"retries\":1,\
        \"fault\":\"node-death:rank=5\",\"snapshot\":{\"points\":[\
        {\"action\":1,\"mean\":8.5,\"sd\":0.5,\"lp_bound\":10,\"excluded\":true}]}}";

    #[test]
    fn telemetry_records_round_trip_from_the_pinned_schema() {
        let run = TelemetryRun::parse(&format!("{LINE}\n")).unwrap();
        assert_eq!(run.runs.len(), 1);
        let rec = &run.runs[0].records[0];
        assert_eq!(rec.iteration, 3);
        assert_eq!(rec.action, 7);
        assert_eq!(rec.best_known, Some(1.25));
        assert_eq!(rec.phases, vec![("factorization".to_string(), 1.0)]);
        assert_eq!(rec.excluded, vec![1, 2]);
        assert_eq!(rec.note, "gp-lcb");
        assert_eq!(rec.breakdown_phases, vec![("generation".to_string(), 0.25)]);
        assert_eq!(rec.breakdown_groups, vec![("chifflot:1-2".to_string(), 3.0, 1.0)]);
        assert_eq!(rec.retries, 1);
        assert_eq!(rec.fault.as_deref(), Some("node-death:rank=5"));
        let snap = rec.snapshot.as_ref().unwrap();
        assert_eq!(
            snap[0],
            SnapshotPoint {
                action: 1,
                mean: Some(8.5),
                sd: Some(0.5),
                lp_bound: Some(10.0),
                excluded: true
            }
        );
    }

    #[test]
    fn strategies_group_in_first_appearance_order() {
        let a = LINE;
        let b = LINE.replace("GP-discontinuous", "UCB");
        let text = format!("{a}\n{b}\n{a}\n");
        let run = TelemetryRun::parse(&text).unwrap();
        assert_eq!(run.runs.len(), 2);
        assert_eq!(run.runs[0].name, "GP-discontinuous");
        assert_eq!(run.runs[0].records.len(), 2);
        assert_eq!(run.runs[1].name, "UCB");
        assert_eq!(run.len(), 3);
        let (name, action, dur) = run.best_observed().unwrap();
        assert_eq!((name, action, dur), ("GP-discontinuous", 7, 1.5));
    }

    #[test]
    fn null_snapshot_and_missing_fields_degrade_gracefully() {
        let line = "{\"iteration\":0,\"strategy\":\"UCB\",\"action\":1,\"duration\":null,\
             \"snapshot\":null}";
        let run = TelemetryRun::parse(line).unwrap();
        let rec = &run.runs[0].records[0];
        assert!(rec.duration.is_nan());
        assert!(rec.snapshot.is_none());
        assert!(rec.phases.is_empty());
        assert_eq!(rec.retries, 0);
    }
}
