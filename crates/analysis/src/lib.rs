//! # adaphet-analysis
//!
//! Post-hoc trace analysis and run explainability:
//!
//! * [`CriticalPath`] — exact longest dependence chain of a traced run,
//!   with per-phase / per-class / per-node time on the path and the node
//!   group that bounds the makespan;
//! * [`IdleBreakdown`] — classification of every worker idle second into
//!   dependency-wait, transfer-wait, or no-ready-work buckets that
//!   partition the window exactly;
//! * [`TelemetryRun`] — a typed reader of the JSONL telemetry the
//!   tuner driver emits (the schema pinned by `tests/telemetry_schema.rs`),
//!   including GP posterior snapshots;
//! * [`Report`] / [`render_html`] / [`render_ascii`] — a self-contained
//!   single-file HTML run report (inline SVG, no JavaScript, no external
//!   fetches) with an ASCII fallback for terminals.
//!
//! The crate deliberately depends only on `adaphet-runtime` (trace types)
//! and `adaphet-metrics` (the JSON codec): it consumes artifacts, it does
//! not drive simulations. The `report` eval binary wires it to live
//! scenarios.

pub mod ascii;
pub mod critical_path;
pub mod html;
pub mod idle;
pub mod jsonl;
pub mod report;

pub use ascii::render_ascii;
pub use critical_path::{CriticalPath, PathStep};
pub use html::{html_escape, render_html, STYLE};
pub use idle::{IdleBreakdown, IdleCause};
pub use jsonl::{IterationRecord, Json, SnapshotPoint, StrategyRun, TelemetryRun};
pub use report::{Report, SimDiagnosis};
