//! Deterministic fault-injection plans for the simulated platform.
//!
//! A [`FaultPlan`] is a seed-driven, fully reproducible schedule of
//! platform faults expressed in *tuner iterations* (the natural clock of
//! the tuning loop): node death at iteration `k`, transient slowdown
//! windows (a straggler factor over an iteration range), and measurement
//! outlier spikes. Harnesses resolve the plan each iteration and apply it
//! to the simulator — slowdowns scale the affected node's compute
//! throughput inside [`SimRuntime::durations`](crate::SimRuntime), node
//! death shrinks the [`Platform`](crate::Platform) (the application is
//! rebuilt over the survivors), and outlier spikes multiply the observed
//! iteration duration at the measurement level.
//!
//! Plans serialize to/from a small JSON format (through the workspace
//! codec, [`adaphet_metrics::json`]), so fault scenarios can be checked
//! into a repo and passed to binaries via `--faults <plan.json>`:
//!
//! ```json
//! {"seed":7,"events":[
//!   {"kind":"node_death","iteration":15,"rank":5},
//!   {"kind":"slowdown","from":10,"until":20,"rank":3,"factor":4.0},
//!   {"kind":"outlier","iteration":12,"factor":6.0}]}
//! ```
//!
//! Ranks are 1-based fastest-first positions in the *live* platform at the
//! iteration the event fires; events whose rank exceeds the live platform
//! size are ignored (the node they named is already gone).

use adaphet_metrics::json::{self, Json};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// The node at fastest-first `rank` (1-based) dies permanently at the
    /// start of `iteration` (0-based tuner iteration).
    NodeDeath {
        /// Tuner iteration (0-based) at which the node disappears.
        iteration: usize,
        /// 1-based fastest-first rank of the dying node.
        rank: usize,
    },
    /// The node at `rank` runs `factor`x slower for iterations
    /// `from..until` (half-open, 0-based).
    Slowdown {
        /// First affected iteration (inclusive, 0-based).
        from: usize,
        /// First unaffected iteration (exclusive).
        until: usize,
        /// 1-based fastest-first rank of the straggling node.
        rank: usize,
        /// Multiplicative slowdown of the node's compute throughput
        /// (`>= 1`: 4.0 means tasks take 4x longer).
        factor: f64,
    },
    /// The measured duration of `iteration` is multiplied by `factor`
    /// (a measurement-level spike: interference, a hiccup of the clock —
    /// the platform itself is unaffected).
    Outlier {
        /// Affected tuner iteration (0-based).
        iteration: usize,
        /// Multiplicative spike on the observed duration.
        factor: f64,
    },
}

/// A deterministic, seed-driven schedule of platform faults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed identifying the plan (used by [`FaultPlan::sample`] and
    /// recorded so a faulted run is reproducible from its telemetry).
    pub seed: u64,
    /// Scheduled fault events, in no particular order.
    pub events: Vec<FaultEvent>,
}

/// Error parsing or validating a fault plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanError(pub String);

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault plan: {}", self.0)
    }
}

impl std::error::Error for FaultPlanError {}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, events: Vec::new() }
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Add a node death (builder style).
    pub fn death(mut self, iteration: usize, rank: usize) -> Self {
        self.events.push(FaultEvent::NodeDeath { iteration, rank });
        self
    }

    /// Add a slowdown window (builder style).
    pub fn slowdown(mut self, from: usize, until: usize, rank: usize, factor: f64) -> Self {
        self.events.push(FaultEvent::Slowdown { from, until, rank, factor });
        self
    }

    /// Add a measurement outlier spike (builder style).
    pub fn outlier(mut self, iteration: usize, factor: f64) -> Self {
        self.events.push(FaultEvent::Outlier { iteration, factor });
        self
    }

    /// Ranks (1-based, fastest-first) dying at the start of `iteration`,
    /// in descending order so they can be removed one by one without
    /// re-mapping the remaining ranks.
    pub fn deaths_at(&self, iteration: usize) -> Vec<usize> {
        let mut ranks: Vec<usize> = self
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::NodeDeath { iteration: k, rank } if k == iteration => Some(rank),
                _ => None,
            })
            .collect();
        ranks.sort_unstable_by(|a, b| b.cmp(a));
        ranks.dedup();
        ranks
    }

    /// Per-rank slowdown factors active during `iteration` over a live
    /// platform of `n_nodes` (index 0 = rank 1). Nodes without an active
    /// window read 1.0; overlapping windows on one node multiply.
    pub fn slowdown_factors(&self, iteration: usize, n_nodes: usize) -> Vec<f64> {
        let mut f = vec![1.0; n_nodes];
        for e in &self.events {
            if let FaultEvent::Slowdown { from, until, rank, factor } = *e {
                if (from..until).contains(&iteration) && (1..=n_nodes).contains(&rank) {
                    f[rank - 1] *= factor.max(1.0);
                }
            }
        }
        f
    }

    /// Combined outlier factor of `iteration` (1.0 when no spike fires;
    /// coinciding spikes multiply).
    pub fn outlier_factor(&self, iteration: usize) -> f64 {
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::Outlier { iteration: k, factor } if k == iteration => Some(factor),
                _ => None,
            })
            .product()
    }

    /// Validate the plan against a platform of `n_nodes` nodes and a run
    /// of `iters` iterations: ranks must be `1..=n_nodes`, windows
    /// non-empty, factors finite and `>= 1`, and the platform must keep at
    /// least one node alive.
    pub fn validate(&self, n_nodes: usize, iters: usize) -> Result<(), FaultPlanError> {
        let mut deaths = 0usize;
        for e in &self.events {
            match *e {
                FaultEvent::NodeDeath { iteration, rank } => {
                    if rank == 0 || rank > n_nodes {
                        return Err(FaultPlanError(format!(
                            "node_death rank {rank} outside 1..={n_nodes}"
                        )));
                    }
                    if iteration >= iters {
                        return Err(FaultPlanError(format!(
                            "node_death at iteration {iteration} >= run length {iters}"
                        )));
                    }
                    deaths += 1;
                }
                FaultEvent::Slowdown { from, until, rank, factor } => {
                    if rank == 0 || rank > n_nodes {
                        return Err(FaultPlanError(format!(
                            "slowdown rank {rank} outside 1..={n_nodes}"
                        )));
                    }
                    if from >= until {
                        return Err(FaultPlanError(format!(
                            "slowdown window {from}..{until} is empty"
                        )));
                    }
                    if !factor.is_finite() || factor < 1.0 {
                        return Err(FaultPlanError(format!(
                            "slowdown factor {factor} must be >= 1"
                        )));
                    }
                }
                FaultEvent::Outlier { factor, .. } => {
                    if !factor.is_finite() || factor <= 0.0 {
                        return Err(FaultPlanError(format!("outlier factor {factor} must be > 0")));
                    }
                }
            }
        }
        if deaths >= n_nodes {
            return Err(FaultPlanError(format!(
                "{deaths} node deaths would leave a {n_nodes}-node platform empty"
            )));
        }
        Ok(())
    }

    /// Draw a random (but fully seed-determined) plan for an `n_nodes`
    /// platform and a run of `iters` iterations: up to one death, up to
    /// two slowdown windows, up to two outlier spikes.
    pub fn sample(seed: u64, n_nodes: usize, iters: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new(seed);
        if n_nodes >= 2 && iters >= 2 && rng.random_range(0..4) > 0 {
            let iteration = rng.random_range(1..iters);
            let rank = rng.random_range(1..=n_nodes);
            plan = plan.death(iteration, rank);
        }
        for _ in 0..rng.random_range(0..3usize) {
            if iters < 2 {
                break;
            }
            let from = rng.random_range(0..iters - 1);
            let until = rng.random_range(from + 1..=iters);
            let rank = rng.random_range(1..=n_nodes.max(1));
            let factor = 1.0 + rng.random_range(0.5..7.0);
            plan = plan.slowdown(from, until, rank, factor);
        }
        for _ in 0..rng.random_range(0..3usize) {
            let iteration = rng.random_range(0..iters.max(1));
            let factor = 1.5 + rng.random_range(0.0..8.0);
            plan = plan.outlier(iteration, factor);
        }
        plan
    }

    /// Serialize to the canonical JSON format accepted by
    /// [`FaultPlan::from_json`].
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.field("seed", self.seed).objs("events", &self.events, |o, e| match *e {
                FaultEvent::NodeDeath { iteration, rank } => {
                    o.field("kind", "node_death").field("iteration", iteration).field("rank", rank);
                }
                FaultEvent::Slowdown { from, until, rank, factor } => {
                    o.field("kind", "slowdown")
                        .field("from", from)
                        .field("until", until)
                        .field("rank", rank)
                        .field("factor", factor);
                }
                FaultEvent::Outlier { iteration, factor } => {
                    o.field("kind", "outlier")
                        .field("iteration", iteration)
                        .field("factor", factor);
                }
            });
        })
    }

    /// Parse a plan from its JSON representation. The parser accepts any
    /// whitespace and key order; unknown keys are rejected (a typo in a
    /// fault plan should fail loudly, not silently do nothing). The seed,
    /// iterations and ranks must be exact non-negative integers.
    pub fn from_json(text: &str) -> Result<Self, FaultPlanError> {
        let plan = |doc: &Json| -> Result<Self, String> {
            known_keys(doc, "plan", &["seed", "events"])?;
            let events: &[Json] = doc.req("events")?;
            Ok(FaultPlan {
                seed: doc.req("seed")?,
                events: events.iter().map(event_from_json).collect::<Result<_, _>>()?,
            })
        };
        Json::parse(text).and_then(|doc| plan(&doc)).map_err(FaultPlanError)
    }
}

/// Reject any key of the object `v` outside `keys`.
fn known_keys(v: &Json, what: &str, keys: &[&str]) -> Result<(), String> {
    let Json::Obj(fields) = v else { return Err(format!("{what} must be an object")) };
    match fields.iter().find(|(k, _)| !keys.contains(&k.as_str())) {
        Some((k, _)) => Err(format!("unknown {what} key \"{k}\"")),
        None => Ok(()),
    }
}

fn event_from_json(v: &Json) -> Result<FaultEvent, String> {
    known_keys(v, "event", &["kind", "iteration", "rank", "from", "until", "factor"])?;
    Ok(match v.req("kind")? {
        "node_death" => {
            FaultEvent::NodeDeath { iteration: v.req("iteration")?, rank: v.req("rank")? }
        }
        "slowdown" => FaultEvent::Slowdown {
            from: v.req("from")?,
            until: v.req("until")?,
            rank: v.req("rank")?,
            factor: v.req("factor")?,
        },
        "outlier" => {
            FaultEvent::Outlier { iteration: v.req("iteration")?, factor: v.req("factor")? }
        }
        other => return Err(format!("unknown event kind \"{other}\"")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_plan() -> FaultPlan {
        FaultPlan::new(7).death(15, 5).slowdown(10, 20, 3, 4.0).outlier(12, 6.0)
    }

    #[test]
    fn json_round_trips() {
        // Seeds above 2^53 must survive bit-exactly (no f64 detour).
        for plan in [demo_plan(), FaultPlan { seed: (1 << 53) + 1, ..demo_plan() }] {
            let json = plan.to_json();
            let back = FaultPlan::from_json(&json).expect("canonical JSON parses");
            assert_eq!(back, plan);
        }
    }

    #[test]
    fn parser_accepts_whitespace_and_reordered_keys() {
        let text = r#"
            { "events": [
                { "rank": 5, "kind": "node_death", "iteration": 15 },
                { "factor": 4.0, "from": 10, "rank": 3, "until": 20, "kind": "slowdown" }
              ],
              "seed": 7 }
        "#;
        let plan = FaultPlan::from_json(text).expect("reordered keys parse");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.events.len(), 2);
        assert_eq!(plan.events[0], FaultEvent::NodeDeath { iteration: 15, rank: 5 });
    }

    #[test]
    fn parser_rejects_unknown_keys_and_kinds() {
        assert!(FaultPlan::from_json(r#"{"seed":1,"events":[],"extra":2}"#).is_err());
        assert!(FaultPlan::from_json(r#"{"seed":1,"events":[{"kind":"meteor"}]}"#).is_err());
        assert!(FaultPlan::from_json(r#"{"events":[]}"#).is_err(), "missing seed");
        assert!(FaultPlan::from_json(r#"{"seed":-1,"events":[]}"#).is_err(), "negative seed");
        assert!(
            FaultPlan::from_json(
                r#"{"seed":1,"events":[{"kind":"node_death","iteration":1.5,"rank":2}]}"#
            )
            .is_err(),
            "fractional iteration"
        );
        assert!(
            FaultPlan::from_json(r#"{"seed":1,"events":[{"kind":"outlier","factor":2.0}]}"#)
                .is_err(),
            "outlier without iteration"
        );
    }

    #[test]
    fn resolution_helpers_answer_per_iteration_queries() {
        let plan = demo_plan();
        assert_eq!(plan.deaths_at(15), vec![5]);
        assert!(plan.deaths_at(14).is_empty());
        let f = plan.slowdown_factors(12, 14);
        assert_eq!(f[2], 4.0, "rank 3 straggles inside the window");
        assert!(f.iter().enumerate().all(|(i, &x)| i == 2 || x == 1.0));
        assert_eq!(plan.slowdown_factors(20, 14)[2], 1.0, "window is half-open");
        assert_eq!(plan.outlier_factor(12), 6.0);
        assert_eq!(plan.outlier_factor(13), 1.0);
    }

    #[test]
    fn overlapping_slowdowns_multiply() {
        let plan = FaultPlan::new(0).slowdown(0, 10, 2, 2.0).slowdown(5, 10, 2, 3.0);
        assert_eq!(plan.slowdown_factors(7, 4)[1], 6.0);
        assert_eq!(plan.slowdown_factors(2, 4)[1], 2.0);
    }

    #[test]
    fn validate_catches_bad_plans() {
        assert!(demo_plan().validate(14, 50).is_ok());
        assert!(demo_plan().validate(4, 50).is_err(), "rank 5 on a 4-node platform");
        assert!(demo_plan().validate(14, 10).is_err(), "death after the run ends");
        assert!(FaultPlan::new(0).slowdown(5, 5, 1, 2.0).validate(4, 10).is_err(), "empty window");
        assert!(FaultPlan::new(0).slowdown(0, 5, 1, 0.5).validate(4, 10).is_err(), "factor < 1");
        assert!(FaultPlan::new(0).death(1, 1).validate(1, 10).is_err(), "platform left empty");
    }

    #[test]
    fn sampled_plans_are_deterministic_and_valid_shaped() {
        for seed in 0..30u64 {
            let a = FaultPlan::sample(seed, 14, 50);
            let b = FaultPlan::sample(seed, 14, 50);
            assert_eq!(a, b, "seed {seed} must reproduce");
            // At most one death, and never the whole platform.
            let deaths =
                a.events.iter().filter(|e| matches!(e, FaultEvent::NodeDeath { .. })).count();
            assert!(deaths <= 1);
            assert!(a.validate(14, 50).is_ok(), "sampled plan invalid: {a:?}");
        }
        assert_ne!(
            FaultPlan::sample(1, 14, 50),
            FaultPlan::sample(2, 14, 50),
            "different seeds should differ (overwhelmingly)"
        );
    }

    #[test]
    fn simultaneous_deaths_resolve_descending() {
        let plan = FaultPlan::new(0).death(3, 2).death(3, 7).death(3, 7);
        assert_eq!(plan.deaths_at(3), vec![7, 2], "descending and deduplicated");
    }
}
