//! The wire golden: the exact bytes of one instance of every request and
//! response variant. Round-trip tests only prove that values survive;
//! these strings are what deployed peers read and write, so a codec
//! change that alters any of them is a wire-compatibility break.
//!
//! The instances exercise the encoder's edge cases: escaped strings,
//! non-finite floats (written as `null`), absent optionals, and an
//! integer above 2^53 that an `f64` path would round.

use adaphet_core::{PosteriorPoint, StrategyKind};
use adaphet_service::{
    ErrorCode, HealthInfo, Request, Response, SessionEvent, SessionSpec, ShardStats, StatsSnapshot,
    VerbStats,
};

const BIG: u64 = (1 << 53) + 1;

fn full_spec() -> SessionSpec {
    SessionSpec {
        strategy: StrategyKind::GpDiscontinuous,
        seed: BIG,
        max_nodes: 4,
        groups: vec![(1, 2), (3, 4)],
        lp: Some(vec![8.0, 4.5, f64::NAN, 2.25]),
        iters: Some(40),
        best_known: Some(2.5),
        oracle_best: Some(3),
        resilience: true,
        max_in_flight: Some(2),
        warm_start: Some(0.75),
    }
}

fn requests() -> Vec<(Request, &'static str)> {
    vec![
        (
            Request::CreateSession(full_spec()),
            "{\"type\":\"create_session\",\"strategy\":\"GP-discontinuous\",\
             \"seed\":9007199254740993,\"max_nodes\":4,\"groups\":[[1,2],[3,4]],\
             \"lp\":[8,4.5,null,2.25],\"iters\":40,\"best_known\":2.5,\"oracle_best\":3,\
             \"resilience\":\"standard\",\"max_in_flight\":2,\"warm_start\":0.75}",
        ),
        (
            Request::CreateSession(SessionSpec::new(StrategyKind::Ucb, 0, 3)),
            "{\"type\":\"create_session\",\"strategy\":\"UCB\",\"seed\":0,\"max_nodes\":3,\
             \"groups\":[],\"lp\":null,\"iters\":null,\"best_known\":null,\"oracle_best\":null,\
             \"resilience\":\"off\",\"max_in_flight\":null,\"warm_start\":null}",
        ),
        (
            Request::GetProposal { session: BIG },
            "{\"type\":\"get_proposal\",\"session\":9007199254740993}",
        ),
        (
            Request::SubmitObservation { session: 12, ticket: 3, duration: 0.1 + 0.2 },
            "{\"type\":\"submit_observation\",\"session\":12,\"ticket\":3,\
             \"duration\":0.30000000000000004}",
        ),
        (
            Request::SubmitObservation { session: 12, ticket: 4, duration: f64::INFINITY },
            "{\"type\":\"submit_observation\",\"session\":12,\"ticket\":4,\"duration\":null}",
        ),
        (Request::GetPosterior { session: 12 }, "{\"type\":\"get_posterior\",\"session\":12}"),
        (Request::CloseSession { session: 12 }, "{\"type\":\"close_session\",\"session\":12}"),
        (Request::GetStats, "{\"type\":\"get_stats\"}"),
        (Request::Inspect { session: 12 }, "{\"type\":\"inspect\",\"session\":12}"),
        (Request::GetHealth { session: 12 }, "{\"type\":\"get_health\",\"session\":12}"),
        (Request::Ping, "{\"type\":\"ping\"}"),
        (Request::Shutdown, "{\"type\":\"shutdown\"}"),
    ]
}

fn responses() -> Vec<(Response, &'static str)> {
    vec![
        (
            Response::SessionCreated { session: BIG },
            "{\"type\":\"session_created\",\"session\":9007199254740993}",
        ),
        (
            Response::Proposal { session: 5, ticket: 0, iteration: 0, action: 7 },
            "{\"type\":\"proposal\",\"session\":5,\"ticket\":0,\"iteration\":0,\"action\":7}",
        ),
        (
            Response::Recorded {
                session: 5,
                iteration: 3,
                action: 7,
                duration: 1e-7,
                cumulative_time: 1e21,
            },
            "{\"type\":\"recorded\",\"session\":5,\"iteration\":3,\"action\":7,\
             \"duration\":0.0000001,\"cumulative_time\":1000000000000000000000}",
        ),
        (
            Response::Retry { session: 5, ticket: 2, action: 7, attempt: 1 },
            "{\"type\":\"retry\",\"session\":5,\"ticket\":2,\"action\":7,\"attempt\":1}",
        ),
        (
            Response::Posterior { session: 5, points: None },
            "{\"type\":\"posterior\",\"session\":5,\"points\":null}",
        ),
        (
            Response::Posterior {
                session: 5,
                points: Some(vec![
                    PosteriorPoint {
                        action: 1,
                        mean: 2.5,
                        sd: f64::NAN,
                        lp_bound: Some(1.5),
                        excluded: true,
                    },
                    PosteriorPoint {
                        action: 2,
                        mean: -0.5,
                        sd: 0.25,
                        lp_bound: None,
                        excluded: false,
                    },
                ]),
            },
            "{\"type\":\"posterior\",\"session\":5,\"points\":[\
             {\"action\":1,\"mean\":2.5,\"sd\":null,\"lp_bound\":1.5,\"excluded\":true},\
             {\"action\":2,\"mean\":-0.5,\"sd\":0.25,\"lp_bound\":null,\"excluded\":false}]}",
        ),
        (
            Response::Closed {
                session: 5,
                iterations: 2,
                total_time: 5.25,
                best_action: Some(6),
                history: vec![(10, 3.25), (6, 2.0)],
            },
            "{\"type\":\"closed\",\"session\":5,\"iterations\":2,\"total_time\":5.25,\
             \"best_action\":6,\"history\":[[10,3.25],[6,2]]}",
        ),
        (
            Response::Closed {
                session: 6,
                iterations: 0,
                total_time: 0.0,
                best_action: None,
                history: vec![],
            },
            "{\"type\":\"closed\",\"session\":6,\"iterations\":0,\"total_time\":0,\
             \"best_action\":null,\"history\":[]}",
        ),
        (
            Response::Stats(StatsSnapshot {
                version: "0.1.0-\"rc\"".into(),
                uptime_s: 12.5,
                draining: true,
                sessions_live: 3,
                sessions_created: 8,
                sessions_closed: 4,
                sessions_evicted: 1,
                sessions_drained: 2,
                in_flight: 5,
                connections: 9,
                requests: BIG,
                malformed: 1,
                errors: 2,
                verbs: vec![VerbStats {
                    verb: "get_proposal".into(),
                    count: 40,
                    p50: 0.001,
                    p95: 0.01,
                    p99: f64::NAN,
                }],
                shards: vec![
                    ShardStats { shard: 0, sessions: 2, queue_depth: 1 },
                    ShardStats { shard: 1, sessions: 1, queue_depth: 0 },
                ],
            }),
            "{\"type\":\"stats\",\"version\":\"0.1.0-\\\"rc\\\"\",\"uptime_s\":12.5,\
             \"draining\":true,\"sessions\":{\"live\":3,\"created\":8,\"closed\":4,\
             \"evicted\":1,\"drained\":2},\"in_flight\":5,\"connections\":9,\
             \"requests\":9007199254740993,\"malformed\":1,\"errors\":2,\
             \"verbs\":[{\"verb\":\"get_proposal\",\"count\":40,\"p50\":0.001,\"p95\":0.01,\
             \"p99\":null}],\"shards\":[{\"shard\":0,\"sessions\":2,\"queue_depth\":1},\
             {\"shard\":1,\"sessions\":1,\"queue_depth\":0}]}",
        ),
        (
            Response::Inspected {
                session: 5,
                strategy: "GP-discontinuous".into(),
                iterations: 7,
                cumulative_time: 12.25,
                pending: vec![(3, 8), (4, 2)],
                events: vec![
                    SessionEvent {
                        seq: 0,
                        t_s: 0.5,
                        kind: "created".into(),
                        ticket: None,
                        action: None,
                        iteration: None,
                        duration: None,
                    },
                    SessionEvent {
                        seq: 1,
                        t_s: 0.75,
                        kind: "recorded".into(),
                        ticket: Some(0),
                        action: Some(8),
                        iteration: Some(0),
                        duration: Some(1.5),
                    },
                ],
                events_dropped: 17,
            },
            "{\"type\":\"inspected\",\"session\":5,\"strategy\":\"GP-discontinuous\",\
             \"iterations\":7,\"cumulative_time\":12.25,\"pending\":[[3,8],[4,2]],\
             \"events\":[{\"seq\":0,\"t_s\":0.5,\"kind\":\"created\",\"ticket\":null,\
             \"action\":null,\"iteration\":null,\"duration\":null},{\"seq\":1,\"t_s\":0.75,\
             \"kind\":\"recorded\",\"ticket\":0,\"action\":8,\"iteration\":0,\"duration\":1.5}],\
             \"events_dropped\":17}",
        ),
        (
            Response::Health(HealthInfo {
                session: 5,
                state: "warn".into(),
                reason: Some("fault-pressure".into()),
                records: 20,
                since_best: 4,
                regret_slope: Some(-0.015),
                retries_window: 1,
                faults_window: 2,
                posterior_sd_max: Some(f64::INFINITY),
                lp_gap: Some(2.5),
                band_record: Some(9),
                warm_started: true,
                transitions: 3,
            }),
            "{\"type\":\"health\",\"session\":5,\"state\":\"warn\",\"reason\":\"fault-pressure\",\
             \"records\":20,\"since_best\":4,\"regret_slope\":-0.015,\"retries_window\":1,\
             \"faults_window\":2,\"posterior_sd_max\":null,\"lp_gap\":2.5,\"band_record\":9,\
             \"warm_started\":true,\"transitions\":3}",
        ),
        (
            Response::Pong { version: "0.1.0".into(), uptime_s: 3.5 },
            "{\"type\":\"pong\",\"version\":\"0.1.0\",\"uptime_s\":3.5}",
        ),
        (Response::ShuttingDown, "{\"type\":\"shutting_down\"}"),
        (
            Response::Error {
                code: ErrorCode::BadRequest,
                message: "bad \"x\"\n\ttab\\ \u{1}".into(),
            },
            "{\"type\":\"error\",\"code\":\"bad-request\",\
             \"message\":\"bad \\\"x\\\"\\n\\ttab\\\\ \\u0001\"}",
        ),
    ]
}

#[test]
fn every_request_variant_encodes_to_its_pinned_bytes() {
    for (request, golden) in requests() {
        assert_eq!(request.to_json(), golden, "{request:?}");
    }
}

#[test]
fn every_response_variant_encodes_to_its_pinned_bytes() {
    for (response, golden) in responses() {
        assert_eq!(response.to_json(), golden, "{response:?}");
    }
}
