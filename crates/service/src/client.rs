//! A blocking typed client for the adaphet wire protocol — used by the
//! integration tests, the `uds_client` example, and anything that wants
//! to drive a remote tuning session from Rust without hand-rolling
//! frames.

use crate::protocol::{
    read_frame, write_frame, ErrorCode, HealthInfo, Request, Response, SessionEvent, SessionSpec,
    StatsSnapshot,
};
use adaphet_metrics::json::Json;
use std::io::{Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::Path;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (socket closed, write failed, …).
    Io(std::io::Error),
    /// The peer answered something that is not a valid response frame,
    /// or a response of the wrong shape for the call.
    Protocol(String),
    /// The server answered a typed [`Response::Error`].
    Server {
        /// Machine-readable category.
        code: ErrorCode,
        /// The server's one-line diagnosis.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// What [`Client::submit`] came back with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Submitted {
    /// The observation was recorded on `iteration`; the ticket closed.
    Recorded {
        /// Iteration index the observation landed on.
        iteration: usize,
        /// Session cumulative time after recording.
        cumulative_time: f64,
    },
    /// The server's resilience policy wants the measurement re-taken
    /// under the same ticket.
    Retry {
        /// The action to re-measure.
        action: usize,
        /// 1-based retry attempt count.
        attempt: usize,
    },
}

/// What [`Client::ping`] learned about the daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct PongInfo {
    /// Daemon crate version (empty when talking to a pre-stats daemon).
    pub version: String,
    /// Monotonic seconds since the daemon's manager started.
    pub uptime_s: f64,
}

/// One session's live state, as answered to [`Client::inspect`].
#[derive(Debug, Clone, PartialEq)]
pub struct InspectedSession {
    /// Strategy, by canonical registry name.
    pub strategy: String,
    /// Iterations proposed so far.
    pub iterations: usize,
    /// Sum of all recorded durations so far.
    pub cumulative_time: f64,
    /// Open ledger entries as `(ticket, action)`, in issue order.
    pub pending: Vec<(u64, usize)>,
    /// Recent lifecycle events, oldest first.
    pub events: Vec<SessionEvent>,
    /// Events the daemon's bounded ring already evicted; non-zero means
    /// `events` is a truncated tail (0 from pre-drop-accounting daemons).
    pub events_dropped: u64,
}

/// The final state of a closed session.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedSession {
    /// Iterations proposed over the session's lifetime.
    pub iterations: usize,
    /// Sum of all recorded durations.
    pub total_time: f64,
    /// Action with the lowest mean observed duration, if any.
    pub best_action: Option<usize>,
    /// Full `(action, duration)` history, in iteration order.
    pub history: Vec<(usize, f64)>,
}

/// A blocking protocol client over any framed byte stream.
pub struct Client<S: Read + Write> {
    stream: S,
}

impl Client<TcpStream> {
    /// Connect over TCP.
    pub fn connect_tcp(addr: &str) -> Result<Self, ClientError> {
        Ok(Client { stream: TcpStream::connect(addr)? })
    }
}

#[cfg(unix)]
impl Client<UnixStream> {
    /// Connect over a Unix-domain socket.
    pub fn connect_uds(path: impl AsRef<Path>) -> Result<Self, ClientError> {
        Ok(Client { stream: UnixStream::connect(path)? })
    }
}

impl<S: Read + Write> Client<S> {
    /// Wrap an already-connected stream.
    pub fn new(stream: S) -> Self {
        Client { stream }
    }

    /// Send one request and read its reply — the raw exchange every typed
    /// helper below builds on. Typed server errors come back as
    /// [`ClientError::Server`].
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &request.to_json())?;
        let payload = read_frame(&mut self.stream)?
            .ok_or_else(|| ClientError::Protocol("server closed before replying".into()))?;
        let text = std::str::from_utf8(&payload)
            .map_err(|_| ClientError::Protocol("reply is not UTF-8".into()))?;
        let json = Json::parse(text).map_err(ClientError::Protocol)?;
        match Response::from_json(&json).map_err(ClientError::Protocol)? {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            reply => Ok(reply),
        }
    }

    /// Create a session, returning its id.
    pub fn create_session(&mut self, spec: SessionSpec) -> Result<u64, ClientError> {
        match self.request(&Request::CreateSession(spec))? {
            Response::SessionCreated { session } => Ok(session),
            other => Err(unexpected("session_created", &other)),
        }
    }

    /// Fetch the next proposal: `(ticket, iteration, action)`.
    pub fn get_proposal(&mut self, session: u64) -> Result<(u64, usize, usize), ClientError> {
        match self.request(&Request::GetProposal { session })? {
            Response::Proposal { ticket, iteration, action, .. } => Ok((ticket, iteration, action)),
            other => Err(unexpected("proposal", &other)),
        }
    }

    /// Resolve a ticket with its measured duration.
    pub fn submit(
        &mut self,
        session: u64,
        ticket: u64,
        duration: f64,
    ) -> Result<Submitted, ClientError> {
        match self.request(&Request::SubmitObservation { session, ticket, duration })? {
            Response::Recorded { iteration, cumulative_time, .. } => {
                Ok(Submitted::Recorded { iteration, cumulative_time })
            }
            Response::Retry { action, attempt, .. } => Ok(Submitted::Retry { action, attempt }),
            other => Err(unexpected("recorded or retry", &other)),
        }
    }

    /// Fetch the strategy's posterior snapshot (`None` until the
    /// surrogate has enough data).
    pub fn get_posterior(
        &mut self,
        session: u64,
    ) -> Result<Option<Vec<adaphet_core::PosteriorPoint>>, ClientError> {
        match self.request(&Request::GetPosterior { session })? {
            Response::Posterior { points, .. } => Ok(points),
            other => Err(unexpected("posterior", &other)),
        }
    }

    /// Close a session, returning its final state.
    pub fn close_session(&mut self, session: u64) -> Result<ClosedSession, ClientError> {
        match self.request(&Request::CloseSession { session })? {
            Response::Closed { iterations, total_time, best_action, history, .. } => {
                Ok(ClosedSession { iterations, total_time, best_action, history })
            }
            other => Err(unexpected("closed", &other)),
        }
    }

    /// Liveness probe; the reply identifies the daemon.
    pub fn ping(&mut self) -> Result<PongInfo, ClientError> {
        match self.request(&Request::Ping)? {
            Response::Pong { version, uptime_s } => Ok(PongInfo { version, uptime_s }),
            other => Err(unexpected("pong", &other)),
        }
    }

    /// Fetch the service-wide observability snapshot.
    pub fn get_stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        match self.request(&Request::GetStats)? {
            Response::Stats(snapshot) => Ok(snapshot),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Fetch one session's live state and recent lifecycle events.
    pub fn inspect(&mut self, session: u64) -> Result<InspectedSession, ClientError> {
        match self.request(&Request::Inspect { session })? {
            Response::Inspected {
                strategy,
                iterations,
                cumulative_time,
                pending,
                events,
                events_dropped,
                ..
            } => Ok(InspectedSession {
                strategy,
                iterations,
                cumulative_time,
                pending,
                events,
                events_dropped,
            }),
            other => Err(unexpected("inspected", &other)),
        }
    }

    /// Fetch one session's convergence-health report.
    pub fn get_health(&mut self, session: u64) -> Result<HealthInfo, ClientError> {
        match self.request(&Request::GetHealth { session })? {
            Response::Health(info) => Ok(info),
            other => Err(unexpected("health", &other)),
        }
    }

    /// Ask the daemon to stop accepting and drain.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("shutting_down", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected {wanted}, got {got:?}"))
}
