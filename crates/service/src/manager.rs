//! The multi-tenant session manager: a fixed worker-thread pool that
//! owns every live [`Session`], sharded by session id.
//!
//! # Threading model
//!
//! Connection handlers (and the in-process client) never touch a
//! [`Session`] directly. Every request is routed by `session_id %
//! workers` onto that shard's unbounded job channel and answered over a
//! one-shot reply channel. Because a given session's requests all land on
//! the same single-threaded worker, per-session operations are totally
//! ordered without any per-session lock — two clients racing
//! `GetProposal` against one session are serialized by the shard queue,
//! and determinism (same seed → same proposal stream) is preserved no
//! matter how many connections share the session.
//!
//! # Lifecycle
//!
//! Sessions that go untouched for [`ServiceConfig::idle_timeout`] are
//! evicted by periodic sweeps (a ticker thread, plus [`SessionManager::sweep_now`]
//! for deterministic tests): open tickets are abandoned, telemetry sinks
//! are flushed, and the id is forgotten. [`SessionManager::shutdown`] is
//! graceful by construction — the stop sentinel enters each shard queue
//! *behind* all previously submitted work, so in-flight requests drain
//! before the workers flush remaining sessions and exit.

use crate::protocol::{
    health_info, health_response, posterior_response, ErrorCode, Request, Response, SessionSpec,
};
use crate::stats::{EventRing, ServiceStats};
use adaphet_core::{
    JsonlSink, Observation, Observed, ResiliencePolicy, Session, SessionError, SurrogateStore,
    Ticket, TunerDriver, WarmStart,
};
use adaphet_metrics::json::{self, Fixed};
use adaphet_metrics::Span;
use adaphet_tsdb::{TimeSeriesStore, TsdbConfig};
use crossbeam::channel::{unbounded, Sender};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of the embedded metrics-history sampler.
///
/// When attached to a [`ServiceConfig`], the manager spawns one sampler
/// thread that freezes the service metrics every `interval` into a
/// bounded [`TimeSeriesStore`] — the backing data of the sidecar's
/// `/metrics/history` endpoint and `adaphet-top`'s sparklines. With
/// `persist` set, the store is loaded at startup and saved at shutdown,
/// so a restarted daemon keeps its history.
#[derive(Debug, Clone)]
pub struct HistoryConfig {
    /// Sampling period of the background thread.
    pub interval: Duration,
    /// Raw samples retained per series (coarse rings share the bound).
    pub capacity: usize,
    /// Downsampling bucket widths, seconds per point.
    pub resolutions: Vec<f64>,
    /// When set, the store persists to this file across restarts.
    pub persist: Option<PathBuf>,
}

impl Default for HistoryConfig {
    fn default() -> Self {
        let tsdb = TsdbConfig::default();
        HistoryConfig {
            interval: Duration::from_secs(5),
            capacity: tsdb.capacity,
            resolutions: tsdb.resolutions,
            persist: None,
        }
    }
}

impl HistoryConfig {
    fn tsdb_config(&self) -> TsdbConfig {
        TsdbConfig { capacity: self.capacity, resolutions: self.resolutions.clone() }
    }
}

/// Tuning knobs for a [`SessionManager`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads (shards). Sessions are pinned to `id % workers`.
    pub workers: usize,
    /// In-flight proposal cap applied when a `CreateSession` does not
    /// specify its own.
    pub default_max_in_flight: usize,
    /// Evict sessions untouched for this long (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// When set, every session writes its telemetry to
    /// `<dir>/session-<id>.jsonl`.
    pub telemetry_dir: Option<PathBuf>,
    /// Lifecycle events retained per session for `Inspect`.
    pub events_capacity: usize,
    /// When set, a [`SurrogateStore`] is opened at this directory: every
    /// closing/evicted/drained session persists its surrogate snapshot
    /// there, and `CreateSession` specs carrying `warm_start` seed their
    /// strategy from the nearest stored snapshot — including snapshots
    /// left by a previous daemon run on the same directory.
    pub store_dir: Option<PathBuf>,
    /// When set, a background sampler records metrics history into an
    /// embedded [`TimeSeriesStore`] (`None` = no sampler thread, no
    /// history state: the zero-perturbation default).
    pub history: Option<HistoryConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            default_max_in_flight: 8,
            idle_timeout: Some(Duration::from_secs(600)),
            telemetry_dir: None,
            events_capacity: 64,
            store_dir: None,
            history: None,
        }
    }
}

/// Queue-crossing observability baggage for one routed job: the
/// queue-wait span guard travels with the job (a [`Span`] is `Send`) and
/// drops — recording the wait — the moment the worker dequeues it.
struct Trace {
    shard: usize,
    parent: Option<u64>,
    queue_span: Span,
}

/// One unit of work for a shard worker.
enum Job {
    Create { id: u64, spec: SessionSpec, reply: mpsc::Sender<Response>, trace: Trace },
    Session { request: Request, session: u64, reply: mpsc::Sender<Response>, trace: Trace },
    Sweep { reply: Option<mpsc::Sender<Response>> },
    Stop,
}

struct Entry {
    session: Session,
    last_touch: Instant,
    /// Strategy by canonical name, echoed by `Inspect`.
    strategy: String,
    /// Recent lifecycle events, for `Inspect`.
    events: EventRing,
}

/// The shared multi-tenant session registry. Cheap to share behind an
/// [`Arc`]; all methods take `&self`.
pub struct SessionManager {
    shards: Vec<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    ticker: Option<(mpsc::Sender<()>, JoinHandle<()>)>,
    sampler: Option<(mpsc::Sender<()>, JoinHandle<()>)>,
    history: Option<Arc<Mutex<TimeSeriesStore>>>,
    history_persist: Option<PathBuf>,
    next_id: AtomicU64,
    draining: Arc<AtomicBool>,
    stats: Arc<ServiceStats>,
}

// Error responses are counted centrally in `handle_traced`, which every
// path returns through — `err` only shapes the reply.
fn err(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error { code, message: message.into() }
}

fn session_err(id: u64, e: SessionError) -> Response {
    match e {
        SessionError::UnknownTicket(t) => err(
            ErrorCode::UnknownTicket,
            format!("session {id}: {}", SessionError::UnknownTicket(t)),
        ),
        SessionError::TooManyInFlight { limit } => err(
            ErrorCode::TooManyInFlight,
            format!("session {id}: {}", SessionError::TooManyInFlight { limit }),
        ),
    }
}

/// Build a [`Session`] from a validated wire spec.
fn build_session(
    spec: &SessionSpec,
    default_max_in_flight: usize,
    store: Option<&SurrogateStore>,
) -> Result<Session, String> {
    let space = spec.space()?;
    let mut b = TunerDriver::builder(&space)
        .kind(spec.strategy)
        .seed(spec.seed)
        .max_in_flight(spec.max_in_flight.unwrap_or(default_max_in_flight));
    if let Some(store) = store {
        // Attaching the store alone makes the session persist a snapshot
        // when it retires; warm-starting from it is the spec's opt-in.
        b = b.store(store);
        if let Some(min_similarity) = spec.warm_start {
            b = b.warm_start(WarmStart::FromStore { min_similarity });
        }
    }
    if let Some(iters) = spec.iters {
        b = b.iters(iters);
    }
    if let Some(best) = spec.best_known {
        b = b.best_known(best);
    }
    if let Some(best) = spec.oracle_best {
        b = b.oracle_best(best);
    }
    if spec.resilience {
        b = b.resilience(ResiliencePolicy::standard());
    }
    b.build_session().map_err(|e| e.to_string())
}

/// Flush a session's sinks and drop it, abandoning open tickets.
fn retire(mut entry: Entry, stats: &ServiceStats) {
    for ticket in entry.session.pending_tickets() {
        if entry.session.abandon(ticket).is_ok() {
            stats.in_flight_add(-1);
        }
    }
    if entry.session.finish().is_err() {
        stats.count("service.sink_error", 1.0);
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    shard: usize,
    rx: crossbeam::channel::Receiver<Job>,
    idle_timeout: Option<Duration>,
    telemetry_dir: Option<PathBuf>,
    default_max_in_flight: usize,
    events_capacity: usize,
    store: Option<SurrogateStore>,
    stats: Arc<ServiceStats>,
) {
    let mut sessions: HashMap<u64, Entry> = HashMap::new();
    while let Ok(job) = rx.recv() {
        match job {
            Job::Stop => break,
            Job::Sweep { reply } => {
                if let Some(timeout) = idle_timeout {
                    let now = Instant::now();
                    let stale: Vec<u64> = sessions
                        .iter()
                        .filter(|(_, e)| now.duration_since(e.last_touch) >= timeout)
                        .map(|(&id, _)| id)
                        .collect();
                    for id in stale {
                        if let Some(entry) = sessions.remove(&id) {
                            retire(entry, &stats);
                            stats.remove_health(id);
                            stats.count("service.session.evicted", 1.0);
                        }
                    }
                    stats.set_shard_sessions(shard, sessions.len() as u64);
                }
                if let Some(reply) = reply {
                    let _ = reply.send(Response::Pong { version: String::new(), uptime_s: 0.0 });
                }
            }
            Job::Create { id, spec, reply, trace } => {
                // Dequeued: the queue-wait span records itself now.
                drop(trace.queue_span);
                stats.queue_pop(trace.shard);
                let response = match build_session(&spec, default_max_in_flight, store.as_ref()) {
                    Err(message) => err(ErrorCode::BadRequest, message),
                    Ok(mut session) => {
                        if let Some(dir) = &telemetry_dir {
                            match JsonlSink::create(dir.join(format!("session-{id}.jsonl"))) {
                                Ok(sink) => session.add_sink(Box::new(sink)),
                                Err(_) => stats.count("service.sink_error", 1.0),
                            }
                        }
                        let mut events = EventRing::new(events_capacity);
                        events.push(stats.uptime_s(), "created", None, None, None, None);
                        stats.set_health(health_info(id, &session.health()));
                        sessions.insert(
                            id,
                            Entry {
                                session,
                                last_touch: Instant::now(),
                                strategy: spec.strategy.to_string(),
                                events,
                            },
                        );
                        stats.count("service.session.created", 1.0);
                        stats.set_shard_sessions(shard, sessions.len() as u64);
                        Response::SessionCreated { session: id }
                    }
                };
                let _ = reply.send(response);
            }
            Job::Session { request, session: id, reply, trace } => {
                drop(trace.queue_span);
                stats.queue_pop(trace.shard);
                let response = match sessions.get_mut(&id) {
                    None => {
                        err(ErrorCode::UnknownSession, format!("session {id} is not registered"))
                    }
                    Some(entry) => {
                        // Inspect and GetHealth are read-only observers;
                        // they must not keep an otherwise-idle session
                        // alive.
                        if !matches!(request, Request::Inspect { .. } | Request::GetHealth { .. }) {
                            entry.last_touch = Instant::now();
                        }
                        answer(id, entry, &request, &stats, trace.parent)
                    }
                };
                // CloseSession retires the entry after answering from it.
                if matches!(request, Request::CloseSession { .. }) {
                    if let Some(entry) = sessions.remove(&id) {
                        retire(entry, &stats);
                        stats.remove_health(id);
                        stats.count("service.session.closed", 1.0);
                        stats.set_shard_sessions(shard, sessions.len() as u64);
                    }
                }
                let _ = reply.send(response);
            }
        }
    }
    // Drain: flush whatever is still registered before the thread exits.
    for (id, entry) in sessions.drain() {
        retire(entry, &stats);
        stats.remove_health(id);
        stats.count("service.session.drained", 1.0);
    }
    stats.set_shard_sessions(shard, 0);
}

/// Answer one session-routed request against its live session, recording
/// the session's lifecycle events and the propose/observe spans.
fn answer(
    id: u64,
    entry: &mut Entry,
    request: &Request,
    stats: &ServiceStats,
    parent: Option<u64>,
) -> Response {
    let session = &mut entry.session;
    match request {
        Request::GetProposal { .. } => {
            let span = stats.spans().enter("session.propose", parent);
            let proposed = session.propose();
            span.exit();
            match proposed {
                Ok(p) => {
                    stats.count("service.proposal", 1.0);
                    stats.in_flight_add(1);
                    entry.events.push(
                        stats.uptime_s(),
                        "propose",
                        Some(p.ticket.id()),
                        Some(p.action),
                        Some(p.iteration),
                        None,
                    );
                    Response::Proposal {
                        session: id,
                        ticket: p.ticket.id(),
                        iteration: p.iteration,
                        action: p.action,
                    }
                }
                Err(e) => {
                    entry.events.push(stats.uptime_s(), "error", None, None, None, None);
                    session_err(id, e)
                }
            }
        }
        Request::SubmitObservation { ticket, duration, .. } => {
            let span = stats.spans().enter("session.observe", parent);
            let observed = session.observe(Ticket::from_id(*ticket), Observation::of(*duration));
            span.exit();
            match observed {
                Ok(Observed::Recorded(out)) => {
                    stats.count("service.observation", 1.0);
                    stats.in_flight_add(-1);
                    // The health engine folds on the record path, so the
                    // published summary tracks every observation.
                    stats.set_health(health_info(id, &session.health()));
                    entry.events.push(
                        stats.uptime_s(),
                        "recorded",
                        Some(*ticket),
                        Some(out.action),
                        Some(out.iteration),
                        Some(out.duration),
                    );
                    Response::Recorded {
                        session: id,
                        iteration: out.iteration,
                        action: out.action,
                        duration: out.duration,
                        cumulative_time: session.cumulative_time(),
                    }
                }
                Ok(Observed::Retry { ticket, action, attempt }) => {
                    stats.count("service.retry", 1.0);
                    entry.events.push(
                        stats.uptime_s(),
                        "retry",
                        Some(ticket.id()),
                        Some(action),
                        None,
                        Some(*duration),
                    );
                    Response::Retry { session: id, ticket: ticket.id(), action, attempt }
                }
                Err(e) => {
                    entry.events.push(stats.uptime_s(), "error", Some(*ticket), None, None, None);
                    session_err(id, e)
                }
            }
        }
        Request::GetPosterior { .. } => posterior_response(id, session.posterior()),
        Request::GetHealth { .. } => {
            let report = session.health();
            stats.set_health(health_info(id, &report));
            health_response(id, &report)
        }
        Request::Inspect { .. } => Response::Inspected {
            session: id,
            strategy: entry.strategy.clone(),
            iterations: session.iterations_proposed(),
            cumulative_time: session.cumulative_time(),
            pending: session.pending().iter().map(|&(t, a)| (t.id(), a)).collect(),
            events: entry.events.events(),
            events_dropped: entry.events.dropped(),
        },
        Request::CloseSession { .. } => Response::Closed {
            session: id,
            iterations: session.iterations_proposed(),
            total_time: session.history().total_time(),
            best_action: session.history().best_action(),
            history: session.history().records().to_vec(),
        },
        // Routed requests are exactly the six above; `route` never sends
        // anything else.
        _ => err(ErrorCode::Internal, "request routed to a session worker by mistake"),
    }
}

impl SessionManager {
    /// Spin up the worker pool (and the idle-eviction ticker, when an
    /// idle timeout is configured).
    pub fn new(config: ServiceConfig) -> Self {
        let workers = config.workers.max(1);
        let stats = Arc::new(ServiceStats::new(workers));
        // One store handle, cloned per shard: `SurrogateStore` is a thin
        // directory handle, and its writes are atomic (tmp + rename), so
        // shards never see each other's half-written snapshots.
        let store = config.store_dir.as_ref().and_then(|dir| {
            let opened = SurrogateStore::open(dir).ok();
            if opened.is_none() {
                stats.count("service.store_error", 1.0);
            }
            opened
        });
        let mut shards = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for shard in 0..workers {
            let (tx, rx) = unbounded::<Job>();
            let idle = config.idle_timeout;
            let dir = config.telemetry_dir.clone();
            let cap = config.default_max_in_flight.max(1);
            let events = config.events_capacity;
            let store = store.clone();
            let stats = Arc::clone(&stats);
            shards.push(tx);
            handles.push(std::thread::spawn(move || {
                worker_loop(shard, rx, idle, dir, cap, events, store, stats)
            }));
        }
        let ticker = config.idle_timeout.map(|timeout| {
            let tick = (timeout / 4).clamp(Duration::from_millis(50), Duration::from_secs(30));
            let shard_txs = shards.clone();
            let (stop_tx, stop_rx) = mpsc::channel::<()>();
            let handle = std::thread::spawn(move || {
                while let Err(mpsc::RecvTimeoutError::Timeout) = stop_rx.recv_timeout(tick) {
                    for tx in &shard_txs {
                        let _ = tx.send(Job::Sweep { reply: None });
                    }
                }
            });
            (stop_tx, handle)
        });
        let draining = Arc::new(AtomicBool::new(false));
        // The history plane only exists when asked for: no config means
        // no store, no mutex, no sampler thread — nothing for the
        // session hot path to even share a cache line with.
        let mut history = None;
        let mut history_persist = None;
        let mut sampler = None;
        if let Some(h) = &config.history {
            let store = match &h.persist {
                None => TimeSeriesStore::new(h.tsdb_config()),
                Some(path) => {
                    let (store, warn) = TimeSeriesStore::load_or_new(path, h.tsdb_config());
                    if warn.is_some() {
                        stats.count("service.history.load_error", 1.0);
                    }
                    store
                }
            };
            let store = Arc::new(Mutex::new(store));
            let (stop_tx, stop_rx) = mpsc::channel::<()>();
            let interval = h.interval.max(Duration::from_millis(10));
            let thread_store = Arc::clone(&store);
            let thread_stats = Arc::clone(&stats);
            let thread_draining = Arc::clone(&draining);
            let handle = std::thread::spawn(move || {
                while let Err(mpsc::RecvTimeoutError::Timeout) = stop_rx.recv_timeout(interval) {
                    let report = thread_stats.report(thread_draining.load(Ordering::SeqCst));
                    thread_store.lock().unwrap().ingest(&report);
                }
            });
            history = Some(store);
            history_persist = h.persist.clone();
            sampler = Some((stop_tx, handle));
        }
        SessionManager {
            shards,
            workers: handles,
            ticker,
            sampler,
            history,
            history_persist,
            next_id: AtomicU64::new(1),
            draining,
            stats,
        }
    }

    /// Whether the metrics-history sampler is configured.
    pub fn history_enabled(&self) -> bool {
        self.history.is_some()
    }

    /// Take one history sample right now, bypassing the sampler's clock
    /// (deterministic alternative for tests and operator tooling).
    /// Returns `false` when history is disabled.
    pub fn sample_history_now(&self) -> bool {
        match &self.history {
            None => false,
            Some(store) => {
                let report = self.stats.report(self.is_draining());
                store.lock().unwrap().ingest(&report);
                true
            }
        }
    }

    /// The history store's full JSON document (the `/metrics/history`
    /// body), or `None` when no sampler is configured.
    pub fn history_json(&self) -> Option<String> {
        self.history.as_ref().map(|store| store.lock().unwrap().to_json())
    }

    /// The `/health` endpoint body: every live session's latest health
    /// report, ordered by session id. Field order inside each session
    /// object matches the `health` wire frame exactly.
    pub fn health_json(&self) -> String {
        json::object(|o| {
            o.field("uptime_s", Fixed(self.stats.uptime_s(), 3))
                .field("draining", self.is_draining())
                .objs("sessions", &self.stats.health_infos(), |o, h| h.write_fields(o));
        })
    }

    /// Whether [`Request::Shutdown`] was received (new work is refused).
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// The manager's observability state (always collecting).
    pub fn stats(&self) -> &Arc<ServiceStats> {
        &self.stats
    }

    /// The service-wide snapshot answered to [`Request::GetStats`].
    pub fn stats_snapshot(&self) -> crate::protocol::StatsSnapshot {
        self.stats.snapshot(env!("CARGO_PKG_VERSION"), self.is_draining())
    }

    /// Route one request and block for its answer. This is the entire
    /// service semantics; the wire server and the in-process client are
    /// both thin shells around it.
    pub fn handle(&self, request: Request) -> Response {
        self.handle_traced(request, None)
    }

    /// [`handle`](Self::handle) with an explicit parent span id, so the
    /// wire server's per-request root span encloses the dispatch,
    /// queue-wait and session spans.
    pub fn handle_traced(&self, request: Request, parent: Option<u64>) -> Response {
        let verb = request.verb();
        self.stats.count("service.request", 1.0);
        let span = self.stats.spans().enter("dispatch", parent);
        let span_id = span.id();
        let start = Instant::now();
        let response = self.dispatch(request, span_id);
        span.exit();
        self.stats.observe(&format!("service.verb.{verb}_s"), start.elapsed().as_secs_f64());
        if matches!(response, Response::Error { .. }) {
            self.stats.count("service.error", 1.0);
        }
        response
    }

    fn dispatch(&self, request: Request, parent: Option<u64>) -> Response {
        match request {
            Request::Ping => Response::Pong {
                version: env!("CARGO_PKG_VERSION").to_string(),
                uptime_s: self.stats.uptime_s(),
            },
            // Answered inline so the snapshot works mid-drain — watching
            // a drain finish is half the point of the endpoint.
            Request::GetStats => Response::Stats(self.stats_snapshot()),
            Request::Shutdown => {
                self.draining.store(true, Ordering::SeqCst);
                Response::ShuttingDown
            }
            Request::CreateSession(spec) => {
                if self.is_draining() {
                    return err(ErrorCode::ShuttingDown, "daemon is draining; no new sessions");
                }
                // Validate before consuming an id, so bad specs are
                // rejected without touching a worker.
                if let Err(message) = spec.space() {
                    return err(ErrorCode::BadRequest, message);
                }
                let id = self.next_id.fetch_add(1, Ordering::SeqCst);
                self.route(id, parent, |reply, trace| Job::Create { id, spec, reply, trace })
            }
            // Draining still resolves open tickets, but issues no new
            // proposals.
            Request::GetProposal { .. } if self.is_draining() => {
                err(ErrorCode::ShuttingDown, "daemon is draining; no new proposals")
            }
            Request::GetProposal { session }
            | Request::SubmitObservation { session, .. }
            | Request::GetPosterior { session }
            | Request::Inspect { session }
            | Request::GetHealth { session }
            | Request::CloseSession { session } => self.route(session, parent, |reply, trace| {
                Job::Session { request, session, reply, trace }
            }),
        }
    }

    /// Run an idle-eviction sweep on every shard and wait for it to
    /// finish (deterministic alternative to the ticker, for tests and
    /// operator tooling).
    pub fn sweep_now(&self) {
        let acks: Vec<mpsc::Receiver<Response>> = self
            .shards
            .iter()
            .map(|tx| {
                let (ack_tx, ack_rx) = mpsc::channel();
                let _ = tx.send(Job::Sweep { reply: Some(ack_tx) });
                ack_rx
            })
            .collect();
        for ack in acks {
            let _ = ack.recv();
        }
    }

    fn route(
        &self,
        id: u64,
        parent: Option<u64>,
        job: impl FnOnce(mpsc::Sender<Response>, Trace) -> Job,
    ) -> Response {
        let shard = (id % self.shards.len() as u64) as usize;
        let (reply_tx, reply_rx) = mpsc::channel();
        self.stats.queue_push(shard);
        let trace = Trace {
            shard,
            parent,
            queue_span: self.stats.spans().enter("shard.queue_wait", parent),
        };
        if self.shards[shard].send(job(reply_tx, trace)).is_err() {
            // The job never entered a live queue; undo its depth tick.
            self.stats.queue_pop(shard);
            return err(ErrorCode::ShuttingDown, "worker pool is stopped");
        }
        match reply_rx.recv() {
            Ok(response) => response,
            Err(_) => err(ErrorCode::Internal, "worker dropped the request"),
        }
    }

    /// Graceful shutdown: stop the ticker, let every shard drain its
    /// queued jobs, flush all remaining sessions, and join the workers.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.draining.store(true, Ordering::SeqCst);
        if let Some((stop, handle)) = self.ticker.take() {
            let _ = stop.send(());
            let _ = handle.join();
        }
        if let Some((stop, handle)) = self.sampler.take() {
            let _ = stop.send(());
            let _ = handle.join();
        }
        for tx in &self.shards {
            // FIFO: the sentinel lands behind all in-flight jobs, so they
            // drain before the worker exits.
            let _ = tx.send(Job::Stop);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Persist the history last, with a final sample covering the
        // drain itself, so a restarted daemon resumes a complete record.
        if let (Some(store), Some(path)) = (&self.history, &self.history_persist) {
            let report = self.stats.report(true);
            let mut store = store.lock().unwrap();
            store.ingest(&report);
            if store.save(path).is_err() {
                self.stats.count("service.history.save_error", 1.0);
            }
        }
    }
}

impl Drop for SessionManager {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaphet_core::StrategyKind;
    use std::sync::Arc;

    fn response_curve(n: usize) -> f64 {
        30.0 / n as f64 + 0.8 * n as f64
    }

    fn spec(kind: StrategyKind, seed: u64) -> SessionSpec {
        let mut s = SessionSpec::new(kind, seed, 10);
        s.groups = vec![(1, 5), (6, 10)];
        s.lp = Some((1..=10).map(|n| 30.0 / n as f64).collect());
        s
    }

    fn manager() -> SessionManager {
        SessionManager::new(ServiceConfig { idle_timeout: None, ..ServiceConfig::default() })
    }

    fn create(m: &SessionManager, s: SessionSpec) -> u64 {
        match m.handle(Request::CreateSession(s)) {
            Response::SessionCreated { session } => session,
            other => panic!("expected session_created, got {other:?}"),
        }
    }

    /// Drive one managed session for `iters` iterations, returning its
    /// closing history.
    fn drive(m: &SessionManager, id: u64, iters: usize) -> Vec<(usize, f64)> {
        for _ in 0..iters {
            let (ticket, action) = match m.handle(Request::GetProposal { session: id }) {
                Response::Proposal { ticket, action, .. } => (ticket, action),
                other => panic!("expected proposal, got {other:?}"),
            };
            match m.handle(Request::SubmitObservation {
                session: id,
                ticket,
                duration: response_curve(action),
            }) {
                Response::Recorded { .. } => {}
                other => panic!("expected recorded, got {other:?}"),
            }
        }
        match m.handle(Request::CloseSession { session: id }) {
            Response::Closed { history, iterations, .. } => {
                assert_eq!(iterations, iters);
                history
            }
            other => panic!("expected closed, got {other:?}"),
        }
    }

    /// The acceptance criterion's in-process half: concurrent managed
    /// sessions are bit-identical to sequential single-threaded drivers
    /// with the same seeds.
    #[test]
    fn concurrent_sessions_match_sequential_drivers_bitwise() {
        let kinds = [
            StrategyKind::GpDiscontinuous,
            StrategyKind::Ucb,
            StrategyKind::GpUcb,
            StrategyKind::DivideConquer,
        ];
        type RunOutcome = (u64, StrategyKind, Vec<(usize, f64)>);
        let m = Arc::new(manager());
        let joined: Vec<RunOutcome> = {
            let handles: Vec<_> = (0..8u64)
                .map(|i| {
                    let m = Arc::clone(&m);
                    let kind = kinds[i as usize % kinds.len()];
                    std::thread::spawn(move || {
                        let id = create(&m, spec(kind, i));
                        (i, kind, drive(&m, id, 30))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        };
        for (seed, kind, history) in joined {
            let mut d = TunerDriver::builder(&spec(kind, seed).space().unwrap())
                .kind(kind)
                .seed(seed)
                .build()
                .unwrap();
            d.run(30, |n| Observation::of(response_curve(n)));
            assert_eq!(
                history,
                d.history().records(),
                "{kind} seed {seed}: service history diverged from the driver loop"
            );
        }
    }

    #[test]
    fn multi_in_flight_tickets_resolve_out_of_order() {
        let m = manager();
        let id = create(&m, spec(StrategyKind::Ucb, 1));
        let p0 = m.handle(Request::GetProposal { session: id });
        let p1 = m.handle(Request::GetProposal { session: id });
        let (t0, t1, a0, a1) = match (&p0, &p1) {
            (
                Response::Proposal { ticket: t0, action: a0, .. },
                Response::Proposal { ticket: t1, action: a1, .. },
            ) => (*t0, *t1, *a0, *a1),
            other => panic!("expected two proposals, got {other:?}"),
        };
        assert_ne!(t0, t1);
        // Resolve in reverse order; each lands on its own iteration.
        match m.handle(Request::SubmitObservation { session: id, ticket: t1, duration: 2.0 }) {
            Response::Recorded { iteration, action, .. } => {
                assert_eq!((iteration, action), (1, a1));
            }
            other => panic!("{other:?}"),
        }
        match m.handle(Request::SubmitObservation { session: id, ticket: t0, duration: 1.0 }) {
            Response::Recorded { iteration, action, .. } => {
                assert_eq!((iteration, action), (0, a0));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn in_flight_cap_is_a_typed_wire_error() {
        let m = manager();
        let mut s = spec(StrategyKind::Ucb, 1);
        s.max_in_flight = Some(1);
        let id = create(&m, s);
        assert!(matches!(
            m.handle(Request::GetProposal { session: id }),
            Response::Proposal { .. }
        ));
        match m.handle(Request::GetProposal { session: id }) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::TooManyInFlight),
            other => panic!("expected too-many-in-flight, got {other:?}"),
        }
    }

    #[test]
    fn unknown_ids_get_typed_errors() {
        let m = manager();
        match m.handle(Request::GetProposal { session: 999 }) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownSession),
            other => panic!("{other:?}"),
        }
        let id = create(&m, spec(StrategyKind::Ucb, 1));
        match m.handle(Request::SubmitObservation { session: id, ticket: 42, duration: 1.0 }) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownTicket),
            other => panic!("{other:?}"),
        }
        match m.handle(Request::CreateSession(SessionSpec::new(StrategyKind::Oracle, 0, 4))) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn idle_sessions_are_evicted_and_closed_ids_forgotten() {
        let m = SessionManager::new(ServiceConfig {
            idle_timeout: Some(Duration::from_millis(20)),
            ..ServiceConfig::default()
        });
        let id = create(&m, spec(StrategyKind::Ucb, 1));
        std::thread::sleep(Duration::from_millis(40));
        m.sweep_now();
        match m.handle(Request::GetProposal { session: id }) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownSession),
            other => panic!("expected eviction, got {other:?}"),
        }
        // A closed id is likewise gone.
        let id2 = create(&m, spec(StrategyKind::Ucb, 2));
        drive(&m, id2, 2);
        match m.handle(Request::GetPosterior { session: id2 }) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownSession),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn shutdown_refuses_new_work_but_drains_open_tickets() {
        let m = manager();
        let id = create(&m, spec(StrategyKind::Ucb, 1));
        let (ticket, action) = match m.handle(Request::GetProposal { session: id }) {
            Response::Proposal { ticket, action, .. } => (ticket, action),
            other => panic!("{other:?}"),
        };
        assert_eq!(m.handle(Request::Shutdown), Response::ShuttingDown);
        assert!(m.is_draining());
        match m.handle(Request::CreateSession(spec(StrategyKind::Ucb, 2))) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::ShuttingDown),
            other => panic!("{other:?}"),
        }
        match m.handle(Request::GetProposal { session: id }) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::ShuttingDown),
            other => panic!("{other:?}"),
        }
        // The open ticket still drains to a recorded observation.
        match m.handle(Request::SubmitObservation { session: id, ticket, duration: 1.5 }) {
            Response::Recorded { action: a, .. } => assert_eq!(a, action),
            other => panic!("{other:?}"),
        }
        match m.handle(Request::CloseSession { session: id }) {
            Response::Closed { history, .. } => assert_eq!(history.len(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn posterior_endpoint_mirrors_the_session_surrogate() {
        let m = manager();
        let id = create(&m, spec(StrategyKind::GpDiscontinuous, 3));
        match m.handle(Request::GetPosterior { session: id }) {
            Response::Posterior { points, .. } => assert!(points.is_none()),
            other => panic!("{other:?}"),
        }
        for _ in 0..12 {
            let (ticket, action) = match m.handle(Request::GetProposal { session: id }) {
                Response::Proposal { ticket, action, .. } => (ticket, action),
                other => panic!("{other:?}"),
            };
            m.handle(Request::SubmitObservation {
                session: id,
                ticket,
                duration: response_curve(action),
            });
        }
        match m.handle(Request::GetPosterior { session: id }) {
            Response::Posterior { points: Some(points), .. } => assert_eq!(points.len(), 10),
            other => panic!("expected a fitted posterior, got {other:?}"),
        }
    }

    #[test]
    fn sessions_persist_to_the_store_and_warm_start_across_manager_restarts() {
        let dir = std::env::temp_dir().join(format!("adaphet-mgr-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServiceConfig {
            idle_timeout: None,
            store_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        // First "daemon run": a cold session leaves a snapshot behind.
        let cold = {
            let m = SessionManager::new(cfg.clone());
            let id = create(&m, spec(StrategyKind::GpDiscontinuous, 9));
            drive(&m, id, 20)
        };
        assert!(
            std::fs::read_dir(&dir).map(|d| d.count() > 0).unwrap_or(false),
            "closing a session must persist a snapshot"
        );
        // Second "daemon run" over the same directory: an opted-in spec
        // warm-starts from the persisted snapshot.
        let m2 = SessionManager::new(cfg);
        let mut warm_spec = spec(StrategyKind::GpDiscontinuous, 9);
        warm_spec.warm_start = Some(0.9);
        let id = create(&m2, warm_spec);
        let warm = drive(&m2, id, 8);
        assert_eq!(warm[0].0, 10, "warm sessions still measure the all-nodes baseline");
        assert_ne!(
            warm.iter().map(|r| r.0).collect::<Vec<_>>(),
            cold.iter().take(8).map(|r| r.0).collect::<Vec<_>>(),
            "the warm session must not replay the cold initialization"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn telemetry_dir_writes_one_jsonl_per_session() {
        let dir = std::env::temp_dir().join(format!("adaphet-mgr-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let m = SessionManager::new(ServiceConfig {
            idle_timeout: None,
            telemetry_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        });
        let id = create(&m, spec(StrategyKind::Ucb, 5));
        drive(&m, id, 3);
        let text = std::fs::read_to_string(dir.join(format!("session-{id}.jsonl"))).unwrap();
        assert_eq!(text.lines().count(), 3, "one event per recorded iteration");
        assert!(text.lines().all(|l| l.contains("\"iteration\":")));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
