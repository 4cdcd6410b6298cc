//! Protocol robustness: malformed frames must not kill the connection,
//! and sessions must survive their creator's disconnection (tickets are
//! resolvable from a fresh connection).

#![cfg(unix)]

use adaphet_core::StrategyKind;
use adaphet_metrics::json::Json;
use adaphet_service::protocol::{read_frame, write_frame, Request, Response};
use adaphet_service::{
    Client, ClientError, Endpoint, ErrorCode, Server, ServiceConfig, SessionManager, SessionSpec,
    Submitted, MAX_FRAME,
};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;

fn uds_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("adaphet-rob-{}-{tag}.sock", std::process::id()))
}

fn start(tag: &str) -> (PathBuf, Server) {
    let path = uds_path(tag);
    let manager = Arc::new(SessionManager::new(ServiceConfig::default()));
    let server = Server::bind(Endpoint::Uds(path.clone()), manager).unwrap();
    (path, server)
}

fn read_reply(conn: &mut UnixStream) -> Response {
    let payload = read_frame(conn).unwrap().expect("server replied");
    Response::from_json(&Json::parse(std::str::from_utf8(&payload).unwrap()).unwrap()).unwrap()
}

#[test]
fn malformed_frames_get_typed_errors_and_the_connection_lives_on() {
    let (path, mut server) = start("malformed");
    let mut conn = UnixStream::connect(&path).unwrap();

    // 1. Binary garbage (not UTF-8) under a well-formed length prefix.
    conn.write_all(&4u32.to_be_bytes()).unwrap();
    conn.write_all(&[0xff, 0xfe, 0x00, 0x80]).unwrap();
    match read_reply(&mut conn) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::MalformedFrame),
        other => panic!("{other:?}"),
    }

    // 2. Truncated JSON document.
    write_frame(&mut conn, "{\"type\":\"pi").unwrap();
    match read_reply(&mut conn) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::MalformedFrame),
        other => panic!("{other:?}"),
    }

    // 3. Valid JSON, unknown request type.
    write_frame(&mut conn, "{\"type\":\"warp-core-breach\"}").unwrap();
    match read_reply(&mut conn) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("{other:?}"),
    }

    // 4. Valid request shape, invalid spec (oracle without its best).
    write_frame(&mut conn, "{\"type\":\"create_session\",\"strategy\":\"oracle\",\"max_nodes\":4}")
        .unwrap();
    match read_reply(&mut conn) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("{other:?}"),
    }

    // 5. A maximal frame of open brackets: nesting past the parser's
    //    depth cap is refused before it can overflow the connection
    //    thread's stack (which would abort the whole daemon).
    write_frame(&mut conn, &"[".repeat(MAX_FRAME)).unwrap();
    match read_reply(&mut conn) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::MalformedFrame),
        other => panic!("{other:?}"),
    }

    // After all five, the same connection still serves real traffic.
    write_frame(&mut conn, &Request::Ping.to_json()).unwrap();
    assert!(matches!(read_reply(&mut conn), Response::Pong { .. }));

    server.stop();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sessions_survive_a_mid_measurement_disconnect() {
    let (path, mut server) = start("reconnect");

    // Client A creates a session, takes a proposal... and vanishes.
    let (id, ticket, action) = {
        let mut a = Client::connect_uds(&path).unwrap();
        let id = a.create_session(SessionSpec::new(StrategyKind::Ucb, 7, 8)).unwrap();
        let (ticket, _, action) = a.get_proposal(id).unwrap();
        (id, ticket, action)
        // `a` drops here: the socket closes with the ticket open.
    };

    // Client B resolves A's ticket over a fresh connection — sessions
    // belong to the manager, not to the socket that created them.
    let mut b = Client::connect_uds(&path).unwrap();
    match b.submit(id, ticket, 2.5).unwrap() {
        Submitted::Recorded { iteration, .. } => assert_eq!(iteration, 0),
        other => panic!("{other:?}"),
    }
    let closed = b.close_session(id).unwrap();
    assert_eq!(closed.history, vec![(action, 2.5)]);

    server.stop();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_closed_server_socket_reads_as_clean_eof_for_the_client() {
    let (path, mut server) = start("eof");
    let mut client = Client::connect_uds(&path).unwrap();
    client.ping().unwrap();
    client.shutdown().unwrap();
    server.wait();
    // The daemon stopped; the next call fails with a transport error or a
    // clean "closed before replying", never a hang or a panic.
    match client.ping() {
        Err(ClientError::Io(_)) | Err(ClientError::Protocol(_)) => {}
        other => panic!("expected a transport failure, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}
