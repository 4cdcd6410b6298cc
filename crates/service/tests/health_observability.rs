//! Health-plane integration: the pinned `get_health` / `GET /health`
//! schema (golden strings — changing them is a wire-compatibility
//! break), live state transitions observed through the verb, and
//! metric-history persistence across manager restarts.

use adaphet_core::StrategyKind;
use adaphet_metrics::json::Json;
use adaphet_service::{
    HealthInfo, HistoryConfig, Request, Response, ServiceConfig, SessionManager, SessionSpec,
};
use std::path::PathBuf;
use std::time::Duration;

fn create(manager: &SessionManager, spec: SessionSpec) -> u64 {
    match manager.handle(Request::CreateSession(spec)) {
        Response::SessionCreated { session } => session,
        other => panic!("create failed: {other:?}"),
    }
}

/// One propose/observe round at a fixed duration.
fn measure(manager: &SessionManager, session: u64, duration: f64) {
    let ticket = match manager.handle(Request::GetProposal { session }) {
        Response::Proposal { ticket, .. } => ticket,
        other => panic!("proposal failed: {other:?}"),
    };
    match manager.handle(Request::SubmitObservation { session, ticket, duration }) {
        Response::Recorded { .. } | Response::Retry { .. } => {}
        other => panic!("submit failed: {other:?}"),
    }
}

fn health(manager: &SessionManager, session: u64) -> HealthInfo {
    match manager.handle(Request::GetHealth { session }) {
        Response::Health(info) => info,
        other => panic!("get_health failed: {other:?}"),
    }
}

// ------------------------------------------------------------- golden

/// The `health` wire frame, every optional field populated. This string
/// is the contract: field order, spellings and null-handling are what
/// deployed clients parse.
#[test]
fn health_frame_schema_is_pinned() {
    let info = HealthInfo {
        session: 7,
        state: "warn".into(),
        reason: Some("fault-pressure".into()),
        records: 19,
        since_best: 3,
        regret_slope: Some(-0.25),
        retries_window: 1,
        faults_window: 2,
        posterior_sd_max: Some(0.5),
        lp_gap: Some(1.5),
        band_record: Some(4),
        warm_started: true,
        transitions: 2,
    };
    assert_eq!(
        Response::Health(info).to_json(),
        "{\"type\":\"health\",\"session\":7,\"state\":\"warn\",\"reason\":\"fault-pressure\",\
         \"records\":19,\"since_best\":3,\"regret_slope\":-0.25,\"retries_window\":1,\
         \"faults_window\":2,\"posterior_sd_max\":0.5,\"lp_gap\":1.5,\"band_record\":4,\
         \"warm_started\":true,\"transitions\":2}"
    );
}

/// The `/health` endpoint body for a fresh session: absent signals are
/// literal `null`, never omitted keys.
#[test]
fn health_endpoint_json_is_pinned_for_a_fresh_session() {
    let manager = SessionManager::new(ServiceConfig { workers: 1, ..Default::default() });
    let id = create(&manager, SessionSpec::new(StrategyKind::DivideConquer, 1, 8));
    let body = manager.health_json();
    assert!(body.starts_with("{\"uptime_s\":"), "{body}");
    assert!(body.contains("\"draining\":false"), "{body}");
    let expected = format!(
        "{{\"session\":{id},\"state\":\"ok\",\"reason\":null,\"records\":0,\"since_best\":0,\
         \"regret_slope\":null,\"retries_window\":0,\"faults_window\":0,\
         \"posterior_sd_max\":null,\"lp_gap\":null,\"band_record\":null,\
         \"warm_started\":false,\"transitions\":0}}"
    );
    assert!(body.contains(&expected), "fresh-session object drifted:\n  body: {body}");
    // And it is the same serialization the wire verb uses.
    let wire = Response::Health(health(&manager, id)).to_json();
    assert_eq!(wire, format!("{{\"type\":\"health\",{}", &expected[1..]));
}

// -------------------------------------------------------- transitions

/// A session that stops improving outside the best-known band is
/// observed stalling through `get_health`, and recovers once it finds
/// the band — the same fold the core fault test drives, seen from the
/// service side.
#[test]
fn get_health_observes_stall_and_recovery() {
    let manager = SessionManager::new(ServiceConfig { workers: 1, ..Default::default() });
    let mut spec = SessionSpec::new(StrategyKind::DivideConquer, 7, 8);
    spec.best_known = Some(4.0); // band tops out at 4.4
    let id = create(&manager, spec);

    measure(&manager, id, 6.0); // session best, still above the band
    assert_eq!(health(&manager, id).state, "ok");
    // No new best for stall_k records (+hysteresis): stalled.
    for _ in 0..14 {
        measure(&manager, id, 6.5);
    }
    let stalled = health(&manager, id);
    assert_eq!(stalled.state, "stalled", "{stalled:?}");
    assert!(stalled.since_best >= 10);
    assert_eq!(stalled.transitions, 1);

    // Finding the band clears the stall.
    measure(&manager, id, 4.2);
    measure(&manager, id, 4.2);
    let recovered = health(&manager, id);
    assert_eq!(recovered.state, "ok", "{recovered:?}");
    assert_eq!(recovered.band_record, Some(16));
    assert_eq!(recovered.transitions, 2);

    // The per-state gauges follow the published summaries.
    let report = manager.stats().report(false);
    let ok_sessions = report
        .gauges
        .iter()
        .find(|(name, _)| name == "service.health.sessions.ok")
        .map(|&(_, v)| v);
    assert_eq!(ok_sessions, Some(1.0));
}

// -------------------------------------------------------- persistence

fn temp_history_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("adaphet-hist-{tag}-{}.adts", std::process::id()))
}

/// The history store written at shutdown is the history store a
/// restarted daemon serves: samples survive the restart and new samples
/// append after them.
#[test]
fn history_persists_across_manager_restarts() {
    let file = temp_history_file("restart");
    let _ = std::fs::remove_file(&file);
    let config = || ServiceConfig {
        workers: 1,
        history: Some(HistoryConfig {
            interval: Duration::from_secs(3600), // never fires on its own
            persist: Some(file.clone()),
            ..Default::default()
        }),
        ..Default::default()
    };

    let points_of = |manager: &SessionManager, series: &str| -> usize {
        let doc = Json::parse(&manager.history_json().expect("history enabled")).unwrap();
        let Some(Json::Arr(all)) = doc.get("series") else { panic!("no series array") };
        all.iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(series))
            .and_then(|s| match s.get("points") {
                Some(Json::Arr(p)) => Some(p.len()),
                _ => None,
            })
            .unwrap_or(0)
    };

    let mut first = SessionManager::new(config());
    create(&first, SessionSpec::new(StrategyKind::DivideConquer, 1, 4));
    assert!(first.sample_history_now());
    let before = points_of(&first, "service.sessions.live");
    assert!(before >= 1, "sampled at least once");
    first.shutdown(); // final ingest + save

    let second = SessionManager::new(config());
    assert!(second.sample_history_now());
    let after = points_of(&second, "service.sessions.live");
    assert!(
        after > before,
        "restarted store must carry the saved samples plus the new one \
         (before {before}, after {after})"
    );
    let _ = std::fs::remove_file(&file);
}
