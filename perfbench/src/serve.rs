//! `serve`: the real `adaphet-serve` daemon, started with a fresh
//! `--store-dir`, driven over UDS by two closed-loop client connections.
//! Each session is create -> 127 x (get_proposal, submit) -> close with
//! GP-discontinuous on one of the 16 test-scale tables, durations drawn
//! exactly as `replay` draws them. The only workload that runs the
//! `service` and `store` layers.

use crate::report::{median, percentile, Report};
use crate::tuning::{gain_vs_all, passes, timed_replay, Digests, ITERS, SETUP_REPEATS};
use adaphet_analysis::Json;
use adaphet_core::StrategyKind;
use adaphet_eval::{replay, sweep, ResponseTable};
use adaphet_service::{Client, ClientError, Request, Response, SessionSpec, Submitted};
use adaphet_store::SurrogateStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Client connections, each a closed loop (= nproc of the reference box).
const CONNECTIONS: usize = 2;

/// Pass time on the reference machine (see `tuning::passes`).
const NOMINAL_PASS_S: f64 = 0.83;

/// Build `adaphet-serve` from the repository's workspace and return its
/// path (`$CARGO_TARGET_DIR`, else `target`, under the current directory).
fn build_daemon(target: &Path) -> PathBuf {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "-p", "adaphet-service"])
        .args(["--bin", "adaphet-serve", "--target-dir"])
        .arg(target)
        .stdout(Stdio::null())
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building adaphet-serve failed");
    target.join("release/adaphet-serve")
}

/// A running daemon; killed and reaped on drop if not shut down.
struct Daemon {
    child: Child,
    sock: PathBuf,
}

impl Daemon {
    /// Start the daemon on a fresh store directory under `dir`; returns it
    /// and the seconds from spawn to the first answered `ping`.
    fn spawn(bin: &Path, dir: &Path) -> (Daemon, f64) {
        std::fs::create_dir_all(dir).expect("run directory");
        let sock = dir.join("d.sock");
        let start = Instant::now();
        let child = Command::new(bin)
            .arg("--uds")
            .arg(&sock)
            .arg("--store-dir")
            .arg(dir.join("store"))
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("adaphet-serve starts");
        let daemon = Daemon { child, sock };
        loop {
            if let Ok(mut c) = Client::connect_uds(&daemon.sock) {
                if c.ping().is_ok() {
                    return (daemon, start.elapsed().as_secs_f64());
                }
            }
            assert!(start.elapsed() < Duration::from_secs(60), "adaphet-serve did not answer");
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn client(&self) -> Client<UnixStream> {
        Client::connect_uds(&self.sock).expect("daemon accepts connections")
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask the daemon to drain and wait (at most 30 s) for it to exit.
    fn shutdown(mut self) -> bool {
        let asked = self.client().shutdown().is_ok();
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(30) {
            if let Ok(Some(status)) = self.child.try_wait() {
                return asked && status.success();
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One served session, as its client saw it.
struct Served {
    table: usize,
    seed: u64,
    total: f64,
    session_s: f64,
    propose_s: Vec<f64>,
    submit_s: Vec<f64>,
    ping_s: Vec<f64>,
}

/// Orders session creation across connections by table index. The daemon
/// numbers sessions in creation order and pins them to shards by id, so a
/// fixed order keeps the two concurrent sessions on different shards in
/// every run instead of leaving it to a race.
#[derive(Default)]
struct Turnstile {
    next: Mutex<usize>,
    turned: Condvar,
}

impl Turnstile {
    fn wait(&self, turn: usize) {
        let next = self.next.lock().expect("turnstile lock");
        drop(self.turned.wait_while(next, |n| *n != turn).expect("turnstile lock"));
    }

    fn advance(&self) {
        *self.next.lock().expect("turnstile lock") += 1;
        self.turned.notify_all();
    }
}

/// Serve one session of `t` from `seed`, creating it in table order.
/// With `ping_every = Some(k)`, a `ping` (answered without touching a
/// shard) follows every k-th submit: its round trip is the transport cost.
fn serve_session(
    client: &mut Client<UnixStream>,
    table: usize,
    t: &ResponseTable,
    seed: u64,
    ping_every: Option<usize>,
    turnstile: &Turnstile,
) -> Result<Served, ClientError> {
    let best = t.best_action();
    let mut spec = SessionSpec::new(StrategyKind::GpDiscontinuous, seed, t.n_actions());
    spec.groups = t.groups.clone();
    spec.lp = Some(t.lp.clone());
    spec.iters = Some(ITERS);
    spec.best_known = Some(t.mean(best));
    spec.oracle_best = Some(best);
    turnstile.wait(table);
    let start = Instant::now();
    let created = client.create_session(spec);
    turnstile.advance();
    let id = created?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut propose_s = Vec::with_capacity(ITERS);
    let mut submit_s = Vec::with_capacity(ITERS);
    let mut ping_s = Vec::new();
    for i in 0..ITERS {
        let t0 = Instant::now();
        let (ticket, _, action) = client.get_proposal(id)?;
        propose_s.push(t0.elapsed().as_secs_f64());
        let pool = &t.durations[action - 1];
        let duration = pool[rng.random_range(0..pool.len())];
        let t0 = Instant::now();
        let submitted = client.submit(id, ticket, duration)?;
        submit_s.push(t0.elapsed().as_secs_f64());
        if let Submitted::Retry { .. } = submitted {
            return Err(ClientError::Protocol(
                "a session without resilience asked to retry".into(),
            ));
        }
        if ping_every.is_some_and(|k| i % k == 0) {
            let t0 = Instant::now();
            client.ping()?;
            ping_s.push(t0.elapsed().as_secs_f64());
        }
    }
    let closed = client.close_session(id)?;
    Ok(Served {
        table,
        seed,
        total: closed.total_time,
        session_s: start.elapsed().as_secs_f64(),
        propose_s,
        submit_s,
        ping_s,
    })
}

struct Pass {
    wall_s: f64,
    cpu_s: f64,
    sessions: Vec<Served>,
    errors: usize,
    queue_depth_max: u64,
}

/// Seed of table `table`'s session in pass `pass` (small enough to cross
/// the wire's f64 numbers exactly).
fn session_seed(seed: u64, pass: usize, table: usize) -> u64 {
    (seed % 100_000) * 1_000_000 + (pass * 16 + table) as u64
}

/// One pass: every table served once, split across the connections. With
/// `traced`, sessions also ping, and each connection samples `get_stats`
/// between sessions.
fn pass(
    clients: &mut [Client<UnixStream>],
    tables: &[ResponseTable],
    seed: u64,
    index: usize,
    daemon_pid: u32,
    traced: bool,
) -> Pass {
    let cpu0 = crate::host::cpu_s(None) + crate::host::cpu_s(Some(daemon_pid));
    let start = Instant::now();
    let turnstile = &Turnstile::default();
    let per_conn: Vec<(Vec<Served>, usize, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let (mut out, mut errors, mut depth) = (Vec::new(), 0, 0);
                    for (j, t) in tables.iter().enumerate().skip(c).step_by(CONNECTIONS) {
                        let ping = traced.then_some(8);
                        match serve_session(
                            client,
                            j,
                            t,
                            session_seed(seed, index, j),
                            ping,
                            turnstile,
                        ) {
                            Ok(s) => out.push(s),
                            Err(e) => {
                                eprintln!("serve: session on table {j} failed: {e}");
                                errors += 1;
                            }
                        }
                        if traced {
                            if let Ok(stats) = client.get_stats() {
                                let d = stats.shards.iter().map(|s| s.queue_depth).max();
                                depth = depth.max(d.unwrap_or(0));
                            }
                        }
                    }
                    (out, errors, depth)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = crate::host::cpu_s(None) + crate::host::cpu_s(Some(daemon_pid)) - cpu0;
    let mut sessions: Vec<Served> = Vec::new();
    let (mut errors, mut queue_depth_max) = (0, 0);
    for (s, e, d) in per_conn {
        sessions.extend(s);
        errors += e;
        queue_depth_max = queue_depth_max.max(d);
    }
    Pass { wall_s, cpu_s, sessions, errors, queue_depth_max }
}

/// Check every served session's total, bit for bit, against the
/// in-process `replay` of the same (table, seed).
fn check_sessions(p: &Pass, tables: &[ResponseTable], report: &mut Report) {
    for _ in 0..p.errors {
        report.check(false, || "a served session failed".into());
    }
    let jobs: Vec<(usize, u64, f64)> =
        p.sessions.iter().map(|s| (s.table, s.seed, s.total)).collect();
    let results = sweep(jobs, false, |(table, seed, total)| {
        let want = replay(StrategyKind::GpDiscontinuous, &tables[table], ITERS, seed).total_time;
        (table, seed, total, want)
    });
    for (table, seed, total, want) in results {
        report.check(total.to_bits() == want.to_bits(), || {
            format!("served session (table {table}, seed {seed}) total {total} != replay {want}")
        });
    }
}

pub fn run(seed: u64, seconds: u64, trace: bool, report: &mut Report, digests: &mut Digests) {
    let target =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()));
    let bin = build_daemon(&target);
    let run_dir = target.join(format!("perfbench-run-{}", std::process::id()));
    let (tables, tables_s) = crate::fig6::setup_tables(report, digests);
    let mut spawns = Vec::new();
    let mut daemon = None;
    for i in 0..SETUP_REPEATS {
        let (d, s) = Daemon::spawn(&bin, &run_dir.join(format!("daemon-{i}")));
        spawns.push(s);
        if let Some(previous) = daemon.replace(d) {
            report.check(Daemon::shutdown(previous), || "daemon did not shut down cleanly".into());
        }
    }
    let daemon = daemon.expect("at least one daemon");
    let mut clients: Vec<_> = (0..CONNECTIONS).map(|_| daemon.client()).collect();

    // Warm-up: one untimed session per connection.
    let warm = pass(&mut clients, &tables[..CONNECTIONS], seed, 0, daemon.pid(), false);
    check_sessions(&warm, &tables, report);
    let untraced = passes(seconds, NOMINAL_PASS_S, |i| {
        pass(&mut clients, &tables, seed, i + 1, daemon.pid(), false)
    });
    for p in &untraced {
        check_sessions(p, &tables, report);
    }
    let wall = median(&untraced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let all: Vec<&Served> = untraced.iter().flat_map(|p| &p.sessions).collect();
    if !trace {
        let gains: Vec<f64> =
            all.iter().map(|s| 100.0 * gain_vs_all(&tables[s.table], &[s.total])).collect();
        let iters = (tables.len() * ITERS) as f64;
        report.set("setup_s", median(&spawns) + tables_s);
        report.set("wall_s", wall);
        report.set("cpu_s", median(&untraced.iter().map(|p| p.cpu_s).collect::<Vec<_>>()));
        report.set("peak_rss_mb", crate::host::peak_rss_mb(Some(daemon.pid())));
        report.set(
            "iters_per_s",
            median(&untraced.iter().map(|p| iters / p.wall_s).collect::<Vec<_>>()),
        );
        report.set("gain_pct", gains.iter().sum::<f64>() / gains.len() as f64);
    } else {
        traced(
            &mut clients,
            &tables,
            seed,
            untraced.len() + 1,
            wall,
            &all,
            &daemon,
            &run_dir,
            report,
        );
    }
    drop(clients);
    report.check(daemon.shutdown(), || "daemon did not shut down cleanly".into());
    let _ = std::fs::remove_dir_all(&run_dir);
}

/// The traced pass and the service/store layer probes.
#[allow(clippy::too_many_arguments)]
fn traced(
    clients: &mut [Client<UnixStream>],
    tables: &[ResponseTable],
    seed: u64,
    index: usize,
    untraced_wall: f64,
    untraced: &[&Served],
    daemon: &Daemon,
    run_dir: &Path,
    report: &mut Report,
) {
    let flat = |f: fn(&Served) -> &[f64]| -> Vec<f64> {
        untraced.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    let rtt_propose = flat(|s| &s.propose_s);
    let rtt_submit = flat(|s| &s.submit_s);
    for (name, v, p) in [
        ("client.get_proposal_p50_ms", &rtt_propose, 500),
        ("client.get_proposal_p99_ms", &rtt_propose, 990),
        ("client.submit_p50_ms", &rtt_submit, 500),
        ("client.submit_p99_ms", &rtt_submit, 990),
    ] {
        let ms = 1e3 * percentile(v, p).expect("over 10k round trips in a run");
        report.set(name, ms);
    }
    let sessions: Vec<f64> = untraced.iter().map(|s| s.session_s).collect();
    report.set("client.session_p50_s", median(&sessions));

    let registry = crate::install_registry();
    let p = pass(clients, tables, seed, index, daemon.pid(), true);
    check_sessions(&p, tables, report);
    report.set("metrics.traced_overhead_pct", 100.0 * (p.wall_s / untraced_wall - 1.0));
    report.set("service.queue_depth_max", p.queue_depth_max as f64);

    let stats = clients[0].get_stats().expect("get_stats answers");
    report.set("service.requests", stats.requests as f64);
    report.set("service.errors", stats.errors as f64);
    for verb in ["create_session", "get_proposal", "submit_observation", "close_session"] {
        let p50 = stats.verbs.iter().find(|v| v.verb == verb).map_or(0.0, |v| v.p50);
        report.set(&format!("service.verb_ms.{verb}"), 1e3 * p50);
    }
    let pings: Vec<f64> = p.sessions.iter().flat_map(|s| s.ping_s.iter().copied()).collect();
    report.set("service.transport_ms", 1e3 * median(&pings));

    // In-process replicas of the traced pass's sessions: dispatch cost,
    // the GP layer's work, and the snapshots a close persists.
    let store = SurrogateStore::open(run_dir.join("store-probe")).expect("probe store opens");
    let (mut dispatch, mut put_ms, mut bytes, mut propose, mut observe) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut records = Vec::new();
    for s in &p.sessions {
        let r = timed_replay(StrategyKind::GpDiscontinuous, &tables[s.table], ITERS, s.seed);
        report.check(r.total.to_bits() == s.total.to_bits(), || {
            format!("in-process replica of table {} seed {} disagrees", s.table, s.seed)
        });
        dispatch.extend(s.propose_s.iter().zip(&r.propose_s).map(|(served, local)| served - local));
        propose.extend(r.propose_s);
        observe.extend(r.observe_s);
        if records.is_empty() {
            records = r.session.history().records().to_vec();
        }
        let snap = r.session.snapshot().expect("a finished session has history");
        bytes.push(snap.to_bytes().len() as f64);
        let t = Instant::now();
        let put = store.put(&snap);
        put_ms.push(1e3 * t.elapsed().as_secs_f64());
        report.check(put.is_ok(), || format!("store put failed: {put:?}"));
    }
    crate::layer_counters(&registry, report);
    report.set("service.dispatch_ms", 1e3 * median(&dispatch));
    report.set("store.put_ms", median(&put_ms));
    report.set("store.snapshot_bytes", median(&bytes));
    for (tag, q) in [("p50", 500), ("p99", 990)] {
        let v = percentile(&propose, q).expect("2032 proposals");
        report.set(&format!("core.propose_ms.GP-discontinuous.{tag}"), 1e3 * v);
    }
    report.set("core.observe_us", 1e6 * median(&observe));
    report.set("service.codec_us", codec_us(&records));
}

/// Median microseconds to encode and decode one iteration's frames (both
/// verbs, both directions) with the wire codec, over a served session's
/// `(action, duration)` records.
fn codec_us(records: &[(usize, f64)]) -> f64 {
    let session = 1u64;
    let mut cumulative_time = 0.0;
    let mut samples = Vec::new();
    for (i, &(action, duration)) in records.iter().enumerate() {
        cumulative_time += duration;
        let ticket = i as u64;
        let frames = [
            (
                Request::GetProposal { session },
                Response::Proposal { session, ticket, iteration: i, action },
            ),
            (
                Request::SubmitObservation { session, ticket, duration },
                Response::Recorded { session, iteration: i, action, duration, cumulative_time },
            ),
        ];
        let t = Instant::now();
        for (req, resp) in &frames {
            let wire = req.to_json();
            let decoded = Request::from_json(&Json::parse(&wire).expect("valid request"));
            let reply = resp.to_json();
            let back = Response::from_json(&Json::parse(&reply).expect("valid response"));
            std::hint::black_box((decoded.is_ok(), back.is_ok()));
        }
        samples.push(1e6 * t.elapsed().as_secs_f64());
    }
    median(&samples)
}
