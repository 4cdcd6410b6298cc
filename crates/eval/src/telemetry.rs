//! Chrome-trace telemetry: tuner decisions and task timelines in one file.
//!
//! [`ChromeTraceSink`] records each tuner iteration as Chrome-trace
//! instant + counter events on a dedicated "tuner" process lane. Merged
//! with the task events of a runtime [`Trace`](adaphet_runtime::Trace)
//! (via [`adaphet_runtime::Trace::chrome_events`]), the resulting
//! document shows *which* node count the tuner picked directly above the
//! per-worker task timeline it produced — loadable in `chrome://tracing`
//! or Perfetto.

use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use adaphet_core::{IterationEvent, TelemetrySink};
use adaphet_metrics::json::{self, Fixed};
use adaphet_runtime::chrome_trace_document;

/// Process id used for the tuner lane (task events use the node id as
/// pid; node ids start at 0, so a large sentinel keeps the lane apart).
pub const TUNER_PID: usize = 9999;

/// Telemetry sink that renders tuner decisions as Chrome-trace events.
///
/// Event times come from the driver's cumulative time, so when the
/// executor reports simulated durations the tuner lane lines up exactly
/// with the simulated task timeline. Cloning shares the buffer (like
/// [`adaphet_core::MemorySink`]), letting the caller keep a handle while
/// the driver owns a clone.
#[derive(Debug, Clone, Default)]
pub struct ChromeTraceSink {
    events: Arc<Mutex<Vec<String>>>,
    /// Offset added to event timestamps (seconds) — set this when the
    /// runtime's clock did not start at zero.
    pub time_offset: f64,
}

impl ChromeTraceSink {
    /// An empty sink starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<String>> {
        // Pushing strings can't corrupt the buffer; ignore poisoning.
        self.events.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The serialized tuner events recorded so far.
    pub fn tuner_events(&self) -> Vec<String> {
        self.lock().clone()
    }

    /// Merge the recorded tuner events with pre-serialized task events
    /// into one Chrome-trace document.
    pub fn merged_document(&self, task_events: &[String]) -> String {
        let mut all = self.tuner_events();
        all.extend_from_slice(task_events);
        chrome_trace_document(&all)
    }

    /// Write the merged document to `path`.
    pub fn write_merged(&self, path: impl AsRef<Path>, task_events: &[String]) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.merged_document(task_events).as_bytes())
    }
}

impl TelemetrySink for ChromeTraceSink {
    // Instant/counter events only need driver-level fields.
    fn wants_decision_trace(&self) -> bool {
        false
    }

    fn on_iteration(&mut self, e: &IterationEvent) {
        let start_us = (self.time_offset + e.cumulative_time - e.duration) * 1e6;
        let mut evs = self.lock();
        // The decision, as a duration-less instant marker at iteration start.
        evs.push(json::object(|o| {
            o.field("name", format!("iter {}: n={}", e.iteration, e.action))
                .field("cat", "tuner")
                .field("ph", "i")
                .field("s", "g")
                .field("ts", Fixed(start_us, 3))
                .field("pid", TUNER_PID)
                .field("tid", 0u32)
                .obj("args")
                .field("strategy", &e.strategy)
                .field("action", e.action)
                .field("duration", e.duration);
        }));
        // The chosen node count as a counter, so the tuner's trajectory
        // renders as a step curve over the task timeline.
        evs.push(json::object(|o| {
            o.field("name", "nodes")
                .field("cat", "tuner")
                .field("ph", "C")
                .field("ts", Fixed(start_us, 3))
                .field("pid", TUNER_PID)
                .obj("args")
                .field("n", e.action);
        }));
        // Fault/resilience annotations (node deaths, retries, re-baseline
        // probes) render as process-scoped instant markers so recovery is
        // visible right on the timeline.
        if let Some(fault) = &e.fault {
            evs.push(json::object(|o| {
                o.field("name", format!("fault: {fault}"))
                    .field("cat", "fault")
                    .field("ph", "i")
                    .field("s", "p")
                    .field("ts", Fixed(start_us, 3))
                    .field("pid", TUNER_PID)
                    .field("tid", 0u32)
                    .obj("args")
                    .field("retries", e.retries);
            }));
        }
        // Profiled iterations additionally get a phase lane (tid 1): the
        // disjoint wall-clock slices render as complete ("X") events laid
        // end to end across the iteration window.
        if let Some(b) = &e.phase_breakdown {
            let mut at_us = start_us;
            for p in &b.phases {
                let dur_us = p.seconds * 1e6;
                evs.push(json::object(|o| {
                    o.field("name", &p.name)
                        .field("cat", "phase")
                        .field("ph", "X")
                        .field("ts", Fixed(at_us, 3))
                        .field("dur", Fixed(dur_us, 3))
                        .field("pid", TUNER_PID)
                        .field("tid", 1u32);
                }));
                at_us += dur_us;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaphet_core::{ActionSpace, GpDiscontinuous, Observation, TunerDriver};

    #[test]
    fn sink_records_two_events_per_iteration_and_merges() {
        let space = ActionSpace::unstructured(6);
        let sink = ChromeTraceSink::new();
        let mut d = TunerDriver::builder(&space)
            .strategy(Box::new(GpDiscontinuous::new(&space)))
            .sink(Box::new(sink.clone()))
            .build()
            .unwrap();
        d.run(5, |n| Observation::of(12.0 / n as f64 + n as f64));
        let tuner = sink.tuner_events();
        assert_eq!(tuner.len(), 10, "one instant + one counter per iteration");
        assert!(tuner[0].contains("\"ph\":\"i\""));
        assert!(tuner[1].contains("\"ph\":\"C\""));
        let task_ev =
            "{\"name\":\"t\",\"ph\":\"X\",\"ts\":0,\"dur\":1,\"pid\":0,\"tid\":0}".to_string();
        let doc = sink.merged_document(&[task_ev]);
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"cat\":\"tuner\""));
        assert!(doc.contains("\"name\":\"t\""));
    }

    #[test]
    fn profiled_iterations_gain_a_phase_lane() {
        use adaphet_core::{AllNodes, PhaseBreakdown, PhaseSlice};
        let space = ActionSpace::unstructured(4);
        let sink = ChromeTraceSink::new();
        let mut d = TunerDriver::builder(&space)
            .strategy(Box::new(AllNodes::new(4)))
            .sink(Box::new(sink.clone()))
            .build()
            .unwrap();
        let breakdown = PhaseBreakdown {
            phases: vec![PhaseSlice::new("generation", 0.5), PhaseSlice::new("solve", 1.5)],
            groups: vec![],
        };
        d.step(|_| Observation::with_breakdown(2.0, vec![], breakdown.clone()));
        let evs = sink.tuner_events();
        assert_eq!(evs.len(), 4, "instant + counter + two phase slices: {evs:?}");
        assert!(evs[2].contains("\"name\":\"generation\"") && evs[2].contains("\"ph\":\"X\""));
        assert!(evs[3].contains("\"name\":\"solve\"") && evs[3].contains("\"tid\":1"));
        // Slices tile the window: solve starts where generation ends.
        assert!(evs[2].contains("\"ts\":0.000") && evs[2].contains("\"dur\":500000.000"));
        assert!(evs[3].contains("\"ts\":500000.000"), "{}", evs[3]);
    }

    #[test]
    fn fault_annotations_render_as_instant_markers() {
        use adaphet_core::{IterationEvent, PhaseBreakdown, PhaseSlice};
        use adaphet_metrics::json::Json;
        let mut sink = ChromeTraceSink::new();
        let event = IterationEvent {
            iteration: 4,
            strategy: "GP-discontinuous".into(),
            action: 5,
            duration: 2.0,
            cumulative_time: 10.0,
            best_known: None,
            regret: None,
            phases: vec![],
            trace: None,
            phase_breakdown: None,
            retries: 1,
            fault: Some("node-death:rank=5;rebaseline".into()),
            snapshot: None,
        };
        sink.on_iteration(&event);
        let evs = sink.tuner_events();
        assert_eq!(evs.len(), 3, "instant + counter + fault marker: {evs:?}");
        assert!(evs[2].contains("\"name\":\"fault: node-death:rank=5;rebaseline\""));
        assert!(evs[2].contains("\"cat\":\"fault\"") && evs[2].contains("\"retries\":1"));

        // Quoted names and notes are escaped and a NaN duration writes
        // null, so every event still parses.
        sink.on_iteration(&IterationEvent {
            strategy: "gen \"A\"".into(),
            duration: f64::NAN,
            phase_breakdown: Some(PhaseBreakdown {
                phases: vec![PhaseSlice::new("gen \"A\"", f64::NAN)],
                groups: vec![],
            }),
            fault: Some("note \"q\" \\ end".into()),
            ..event
        });
        let evs = sink.tuner_events();
        assert_eq!(evs.len(), 7, "plus instant + counter + fault + one phase slice: {evs:?}");
        let parsed: Vec<Json> =
            evs.iter().map(|e| Json::parse(e).unwrap_or_else(|err| panic!("{err}: {e}"))).collect();
        assert_eq!(parsed[3].get("ts"), Some(&Json::Null), "NaN start writes null");
        let strategy = parsed[3].get("args").and_then(|a| a.get("strategy"));
        assert_eq!(strategy.and_then(Json::as_str), Some("gen \"A\""));
        assert_eq!(parsed[5].get("name").and_then(Json::as_str), Some("fault: note \"q\" \\ end"));
        assert_eq!(parsed[6].get("name").and_then(Json::as_str), Some("gen \"A\""));
        assert_eq!(parsed[6].get("dur"), Some(&Json::Null));
        assert!(Json::parse(&sink.merged_document(&[])).is_ok());
    }

    #[test]
    fn first_event_starts_at_zero_without_offset() {
        let space = ActionSpace::unstructured(3);
        let sink = ChromeTraceSink::new();
        let mut d = TunerDriver::builder(&space)
            .strategy(Box::new(GpDiscontinuous::new(&space)))
            .sink(Box::new(sink.clone()))
            .build()
            .unwrap();
        d.run(1, |_| Observation::of(2.0));
        assert!(sink.tuner_events()[0].contains("\"ts\":0.000"), "{:?}", sink.tuner_events());
    }
}
