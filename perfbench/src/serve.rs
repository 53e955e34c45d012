//! `serve_mixed`: a fresh `hsconas serve --devices gpu,cpu,edge` daemon
//! driven open-loop over TCP — arrivals scheduled from the seed at a
//! fixed offered rate, then a rate ladder. The traced run serves the
//! fixed-rate phase three times, each on a fresh daemon: untraced, traced,
//! and with a fresh, empty `--state-dir`, which turns on the spill tier.
//!
//! The load comes from this one process over two connections, each
//! served by one thread (the main thread and one helper) that both sends
//! on schedule and reads replies between sends. Every request is timed
//! from when it was due, so a stall is charged to the requests it delays.
//!
//! Gate: each deterministic reply of the fixed-rate phase equals, byte
//! for byte, the reply an in-process replay of the same requests through
//! the functions the server calls produces (for `infer`, the logits and
//! the rest of the line, with the wire's `cached` flag); and the daemon's
//! `status` tallies satisfy `served + rejected == sent`.

use crate::{stats, trace, Args, Report};
use hsconas_accuracy::{AccuracyModel, SurrogateAccuracy};
use hsconas_evo::{
    tradeoff_score, Evaluation, EvoError, EvolutionSearch, MemoObjective, Objective,
    ParetoObjective, ParetoSearch,
};
use hsconas_latency::LatencyPredictor;
use hsconas_serve::proto::{Command, Request, Response, CODE_OK};
use hsconas_serve::state::{DeviceState, BETA};
use hsconas_serve::{Client, Json, ServeOptions, Server, WarmState};
use hsconas_space::{Arch, SearchSpace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Stdio};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---- frozen load parameters (see perfbench/rationale.json) ----

/// Offered rate of the fixed-rate phase, requests per second; the phase
/// offers `--seconds` worth of requests at this rate.
pub const FIXED_RPS: f64 = 320.0;
/// The rate ladder, requests per second, ascending (about 15% apart).
/// It tops out at 1600: past that, on a 2-core host, the load generator
/// and the daemon contend for the CPU and the knee measures the
/// scheduler rather than the program.
pub const LADDER_RPS: [f64; 13] = [
    300.0, 345.0, 400.0, 460.0, 530.0, 610.0, 700.0, 800.0, 920.0, 1060.0, 1220.0, 1400.0, 1600.0,
];
/// Requests offered per ladder step.
pub const LADDER_STEP_REQUESTS: usize = 500;
/// The ladder stops after this many consecutive failing steps.
const LADDER_STOP_AFTER: usize = 3;
/// Latency limit on the tail percentile for a ladder step to pass.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// The run is void when the fixed-rate phase's median send came this
/// much after its due time: the generator, not the daemon, set the pace.
const LATE_MEDIAN_MS: f64 = 1.0;
/// Daemon set-ups per run (the median is `setup_s`).
const SETUP_REPEATS: usize = 9;

/// The request mix, dealt from shuffled decks so that every 50
/// consecutive requests hold exactly these counts: 40% predict_latency,
/// 34% score, 16% infer, 8% search, 2% pareto.
const MIX: [(&str, usize); 5] = [
    ("predict_latency", 20),
    ("score", 17),
    ("infer", 8),
    ("search", 4),
    ("pareto", 1),
];
/// Share of `predict_latency`/`score` genomes never sent before.
const FRESH_SHARE: f64 = 0.6;
/// `infer` genomes: a hot set, and 1 in every 40 `infer`s cold (fresh).
/// A run sends about 40 cold genomes, fewer than the daemon's 64-entry
/// artifact cache holds, so its arbitrary eviction never decides a run.
const HOT_GENOMES: usize = 4;
const INFER_DECK: [bool; 40] = {
    let mut deck = [false; 40];
    deck[0] = true;
    deck
};
/// Images per `infer` request.
const INFER_BATCH: usize = 2;
const DEVICES: [(&str, f64); 3] = [("gpu", 8.0), ("cpu", 30.0), ("edge", 34.0)];
const PARETO_SETS: [&[&str]; 3] = [&["gpu", "edge"], &["cpu", "edge"], &["gpu", "cpu", "edge"]];
const PARETO_TARGET_MS: f64 = 30.0;

pub const COMMANDS: [&str; 5] = ["predict_latency", "score", "search", "pareto", "infer"];

// ---- the schedule: a pure function of the seed ----

/// One request, due `offset` after its phase starts.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    pub id: u64,
    pub offset: Duration,
    pub cmd: &'static str,
    pub line: String,
}

/// The offered rate and request count of one phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSpec {
    pub rps: f64,
    pub requests: usize,
}

/// Items dealt in a fresh shuffle of the whole deck each time it runs
/// out, so every full deck holds its stated counts exactly.
struct Deck<T: Copy> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    fn new(cards: Vec<T>) -> Self {
        let next = cards.len();
        Deck { cards, next }
    }

    fn deal(&mut self, rng: &mut StdRng) -> T {
        if self.next == self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.gen_range(0..=i));
            }
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// Poisson arrivals and the request mix for every phase, generated from
/// `seed` alone. Genomes are drawn across phases from one stream, so a
/// later phase repeats genomes an earlier one sent.
pub fn schedule(seed: u64, phases: &[PhaseSpec]) -> Vec<Vec<Planned>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_da7a);
    let space_a = SearchSpace::hsconas_a();
    let space_tiny = SearchSpace::tiny(10);
    let hot: Vec<Vec<usize>> = (0..HOT_GENOMES)
        .map(|_| space_tiny.sample(&mut rng).encode())
        .collect();
    let mut kinds = Deck::new(
        MIX.iter()
            .flat_map(|&(cmd, n)| std::iter::repeat_n(cmd, n))
            .collect(),
    );
    let mut infer_cold = Deck::new(INFER_DECK.to_vec());
    let mut pareto_sets = Deck::new(PARETO_SETS.to_vec());
    let mut used: Vec<Vec<usize>> = Vec::new();
    let mut next_id = 0u64;
    let mut out = Vec::with_capacity(phases.len());
    for phase in phases {
        let mut planned = Vec::with_capacity(phase.requests);
        let mut t = 0.0f64;
        for _ in 0..phase.requests {
            // Exponential inter-arrival; 1 - u is in (0, 1].
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / phase.rps;
            let cmd = kinds.deal(&mut rng);
            let (device, target) = DEVICES[rng.gen_range(0..DEVICES.len())];
            let seed = rng.gen::<u64>() >> 11; // exact as a JSON number
            let mut genome = || {
                if used.is_empty() || rng.gen_bool(FRESH_SHARE) {
                    let g = space_a.sample(&mut rng).encode();
                    used.push(g.clone());
                    g
                } else {
                    used[rng.gen_range(0..used.len())].clone()
                }
            };
            let command = match cmd {
                "predict_latency" => Command::PredictLatency {
                    device: device.into(),
                    arch: genome(),
                },
                "score" => Command::Score {
                    device: device.into(),
                    target_ms: target,
                    arch: genome(),
                },
                "search" => Command::Search {
                    device: device.into(),
                    target_ms: target,
                    seed,
                },
                "pareto" => Command::Pareto {
                    devices: pareto_sets
                        .deal(&mut rng)
                        .iter()
                        .map(|d| d.to_string())
                        .collect(),
                    target_ms: PARETO_TARGET_MS,
                    seed,
                },
                _ => Command::Infer {
                    arch: if infer_cold.deal(&mut rng) {
                        space_tiny.sample(&mut rng).encode()
                    } else {
                        hot[rng.gen_range(0..hot.len())].clone()
                    },
                    input_seed: seed,
                    batch: INFER_BATCH,
                },
            };
            let request = Request {
                id: next_id.to_string(),
                command,
            };
            planned.push(Planned {
                id: next_id,
                offset: Duration::from_secs_f64(t),
                cmd,
                line: request.encode(),
            });
            next_id += 1;
        }
        out.push(planned);
    }
    out
}

// ---- the daemon ----

/// A running daemon: a child `hsconas serve`, or (for smoke tests) the
/// same server on a thread of this process.
enum Daemon {
    Child(ChildGuard),
    Thread(std::thread::JoinHandle<io::Result<()>>),
}

/// Kills and reaps the child if it is still running when dropped, so no
/// error path or panic leaves a daemon behind.
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

struct Running {
    daemon: Daemon,
    addr: SocketAddr,
    /// Requests this benchmark sent to it (every connection).
    sent: u64,
}

impl Running {
    fn pid(&self) -> Option<u32> {
        match &self.daemon {
            Daemon::Child(c) => Some(c.0.id()),
            Daemon::Thread(_) => None,
        }
    }

    fn status(&mut self) -> Result<Json, String> {
        let mut client = Client::connect(self.addr).map_err(|e| format!("status connect: {e}"))?;
        client
            .set_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        let response = client.status().map_err(|e| format!("status: {e}"))?;
        self.sent += 1;
        match (response.code, response.result) {
            (CODE_OK, Some(result)) => Ok(result),
            (code, _) => Err(format!("status answered {code}")),
        }
    }

    /// Asks the daemon to drain and waits for it to exit.
    fn shutdown(self) -> Result<(), String> {
        let sent = Client::connect(self.addr).and_then(|mut c| {
            c.set_timeout(Some(Duration::from_secs(10)))?;
            c.shutdown()
        });
        match self.daemon {
            Daemon::Child(mut child) => {
                let deadline = Instant::now() + Duration::from_secs(20);
                loop {
                    match child.0.try_wait() {
                        Ok(Some(status)) if status.success() && sent.is_ok() => return Ok(()),
                        Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(10))
                        }
                        // Dropping the guard kills and reaps it.
                        _ => return Err("daemon did not drain within 20 s".into()),
                    }
                }
            }
            Daemon::Thread(handle) => {
                sent.map_err(|e| format!("shutdown: {e}"))?;
                handle
                    .join()
                    .map_err(|_| "in-process daemon panicked".to_string())?
                    .map_err(|e| e.to_string())
            }
        }
    }
}

/// Number of devices the `status` reports as warm.
fn warm_devices(status: &Json) -> usize {
    match status.get("devices") {
        Some(Json::Obj(pairs)) => pairs.len(),
        _ => 0,
    }
}

/// Starts a daemon and waits for the first 200 `status` with all three
/// devices warm. Returns it with the set-up time in seconds.
fn start_daemon(
    bin: Option<&Path>,
    state_dir: Option<&Path>,
    log: &Path,
) -> Result<(Running, f64), String> {
    let start = Instant::now();
    let devices = DEVICES.map(|(d, _)| d).join(",");
    let (daemon, addr) = match bin {
        Some(bin) => {
            let mut cmd = std::process::Command::new(bin);
            cmd.args(["serve", "--port", "0", "--devices", &devices]);
            if let Some(dir) = state_dir {
                cmd.arg("--state-dir").arg(dir);
            }
            let mut child = ChildGuard(
                cmd.stdin(Stdio::null())
                    .stdout(Stdio::piped())
                    .stderr(
                        std::fs::File::create(log)
                            .map_err(|e| format!("creating {}: {e}", log.display()))?,
                    )
                    .spawn()
                    .map_err(|e| format!("spawning {}: {e}", bin.display()))?,
            );
            let mut greeting = String::new();
            let stdout = child.0.stdout.take().expect("stdout is piped");
            BufReader::new(stdout)
                .read_line(&mut greeting)
                .map_err(|e| format!("reading the daemon greeting: {e}"))?;
            let addr = greeting
                .trim()
                .rsplit(' ')
                .next()
                .and_then(|a| a.parse().ok());
            match addr {
                Some(addr) => (Daemon::Child(child), addr),
                None => return Err(format!("unexpected daemon greeting {greeting:?}")),
            }
        }
        None => {
            let options = ServeOptions {
                state_dir: state_dir.map(Path::to_path_buf),
                preload: DEVICES.iter().map(|(d, _)| d.to_string()).collect(),
                ..ServeOptions::default()
            };
            let server = Server::bind(options).map_err(|e| e.to_string())?;
            let addr = server.local_addr();
            (
                Daemon::Thread(std::thread::spawn(move || server.run())),
                addr,
            )
        }
    };
    let mut running = Running {
        daemon,
        addr,
        sent: 0,
    };
    loop {
        match running.status() {
            Ok(status) if warm_devices(&status) == DEVICES.len() => break,
            Ok(_) | Err(_) if start.elapsed() < Duration::from_secs(60) => {
                std::thread::sleep(Duration::from_millis(2))
            }
            Ok(_) | Err(_) => {
                let _ = running.shutdown();
                return Err("daemon did not become warm within 60 s".into());
            }
        }
    }
    Ok((running, start.elapsed().as_secs_f64()))
}

// ---- the open-loop client ----

#[repr(C)]
struct PollFd {
    fd: std::os::raw::c_int,
    events: std::os::raw::c_short,
    revents: std::os::raw::c_short,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::os::raw::c_ulong,
        timeout: *const crate::Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> std::os::raw::c_int;
}

/// Waits up to `timeout` for `stream` to become readable (data, EOF or
/// an error). `ppoll` sleeps on a high-resolution timer; a socket read
/// timeout would round up to the kernel tick and send requests late.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> bool {
    use std::os::fd::AsRawFd;
    const POLLIN: std::os::raw::c_short = 0x1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = crate::Timespec {
        tv_sec: timeout.as_secs() as std::os::raw::c_long,
        tv_nsec: std::os::raw::c_long::from(timeout.subsec_nanos() as i32),
    };
    // SAFETY: `fd` and `ts` are valid, initialized and live for the call;
    // one descriptor is passed, and a null signal mask is allowed.
    let ready = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    ready > 0
}

/// One connection: buffered read half, raw write half, partial line.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    partial: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            partial: Vec::new(),
        })
    }

    /// Reads reply lines until `until`; each complete line is pushed
    /// with its arrival time.
    fn read_until(
        &mut self,
        until: Instant,
        t0: Instant,
        replies: &mut Vec<(Duration, Vec<u8>)>,
    ) -> Result<(), String> {
        loop {
            let now = Instant::now();
            if now >= until {
                return Ok(());
            }
            // Read only once the socket is readable, so a half-arrived
            // line never holds the next send back.
            if self.reader.buffer().is_empty() && !wait_readable(self.reader.get_ref(), until - now)
            {
                continue;
            }
            let available = match self.reader.fill_buf() {
                Ok([]) => return Err("the daemon closed the connection".into()),
                Ok(bytes) => bytes,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("read: {e}")),
            };
            let (taken, complete) = match available.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    self.partial.extend_from_slice(&available[..i]);
                    (i + 1, true)
                }
                None => {
                    self.partial.extend_from_slice(available);
                    (available.len(), false)
                }
            };
            self.reader.consume(taken);
            if complete {
                let _s = trace::span("client.recv");
                replies.push((t0.elapsed(), std::mem::take(&mut self.partial)));
            }
        }
    }
}

/// What one connection observed during a phase.
#[derive(Default)]
struct Observed {
    /// `(id, due, sent)` per request.
    sent: Vec<(u64, Duration, Duration)>,
    replies: Vec<(Duration, Vec<u8>)>,
    /// Requests without a reply when the last one went out.
    outstanding_at_end: usize,
}

/// Drives one connection through its share of a phase, then waits (up
/// to `drain`) for the remaining replies.
fn drive(
    conn: &mut Conn,
    plan: &[&Planned],
    t0: Instant,
    drain: Duration,
    traced: bool,
) -> Result<Observed, String> {
    if traced {
        trace::enable();
    }
    let mut obs = Observed::default();
    for p in plan {
        let due = t0 + p.offset;
        conn.read_until(due, t0, &mut obs.replies)?;
        let _s = trace::span("client.send");
        let sent = t0.elapsed();
        let mut line = Vec::with_capacity(p.line.len() + 1);
        line.extend_from_slice(p.line.as_bytes());
        line.push(b'\n');
        conn.writer
            .write_all(&line)
            .map_err(|e| format!("write: {e}"))?;
        obs.sent.push((p.id, p.offset, sent));
    }
    obs.outstanding_at_end = obs.sent.len().saturating_sub(obs.replies.len());
    let deadline = Instant::now() + drain;
    while obs.replies.len() < obs.sent.len() && Instant::now() < deadline {
        let step = (Instant::now() + Duration::from_millis(20)).min(deadline);
        conn.read_until(step, t0, &mut obs.replies)?;
    }
    Ok(obs)
}

/// One phase's outcome, per request.
struct PhaseResult {
    spec: PhaseSpec,
    /// `(id, cmd, due→reply ms, send→reply ms, late ms, code)`;
    /// code 0 = no reply.
    requests: Vec<(u64, &'static str, f64, f64, f64, u16)>,
    /// Reply lines by id (kept for the gate).
    lines: HashMap<u64, Vec<u8>>,
    outstanding_at_end: usize,
    /// CPU seconds the daemon spent on the phase.
    cpu_s: f64,
    spans: Vec<trace::Span>,
}

impl PhaseResult {
    fn sent(&self) -> usize {
        self.requests.len()
    }
    fn succeeded(&self) -> usize {
        self.requests.iter().filter(|r| r.5 == CODE_OK).count()
    }
    fn failed(&self) -> usize {
        self.sent() - self.succeeded()
    }
    fn latencies(&self, cmd: Option<&str>) -> Vec<f64> {
        self.requests
            .iter()
            .filter(|r| r.5 == CODE_OK && cmd.is_none_or(|c| c == r.1))
            .map(|r| r.2)
            .collect()
    }
    /// The tail as a median over windows of about a thousand requests.
    fn windowed_tail(&self) -> f64 {
        stats::windowed_tail(&self.latencies(None))
    }
    fn late_ms(&self) -> Vec<f64> {
        self.requests.iter().map(|r| r.4).collect()
    }
    /// The generator fell behind its schedule as a whole, not just
    /// through a passing stall of the host (which latency from the due
    /// time already charges to the requests it delayed).
    fn generator_late(&self) -> bool {
        stats::median(&self.late_ms()) > LATE_MEDIAN_MS
    }
    /// A ladder step passes when nothing failed, the tail stayed within
    /// the limit, and the backlog did not grow: by Little's law a system
    /// that keeps up holds about rate × latency requests in flight, so
    /// more than rate × limit (and at least 8) outstanding at the step's
    /// end means a queue.
    fn passes(&self) -> bool {
        let tail = stats::tail(&self.latencies(None), 99.0);
        let backlog_cap = (self.spec.rps * LATENCY_LIMIT_MS / 1e3).max(8.0);
        self.failed() == 0
            && tail.value <= LATENCY_LIMIT_MS
            && (self.outstanding_at_end as f64) <= backlog_cap
    }
    fn summary(&self, label: &str) -> String {
        let tail = stats::tail(&self.latencies(None), 99.0);
        let per_cmd: Vec<String> = COMMANDS
            .iter()
            .map(|cmd| {
                let l = self.latencies(Some(cmd));
                format!(
                    "{cmd} n {} p50 {:.3} p99 {:.3}",
                    l.len(),
                    stats::median(&l),
                    stats::tail(&l, 99.0).value
                )
            })
            .collect();
        format!(
            "{label}: offered {} rps, {} requests: sent {} succeeded {} failed {}; p50 {:.3} ms, p{} {:.3} ms over {} samples ({} beyond); generator late p99 {:.3} ms; outstanding at end {}; daemon CPU {:.3} s; [{}]",
            self.spec.rps,
            self.spec.requests,
            self.sent(),
            self.succeeded(),
            self.failed(),
            stats::median(&self.latencies(None)),
            tail.percentile,
            tail.value,
            tail.samples,
            tail.beyond,
            stats::percentile(&self.late_ms(), 99.0),
            self.outstanding_at_end,
            self.cpu_s,
            per_cmd.join("; ")
        )
    }
}

/// Runs one phase over the two connections: the main thread drives the
/// first, one helper thread the second.
fn run_phase(
    conns: &mut [Conn; 2],
    spec: PhaseSpec,
    plan: &[Planned],
    traced: bool,
    daemon_pid: Option<u32>,
) -> Result<PhaseResult, String> {
    let cpu = crate::cpu_seconds(daemon_pid);
    let t0 = Instant::now() + Duration::from_millis(20);
    let drain = Duration::from_secs(10);
    let halves: [Vec<&Planned>; 2] = [
        plan.iter().filter(|p| p.id % 2 == 0).collect(),
        plan.iter().filter(|p| p.id % 2 == 1).collect(),
    ];
    let [c0, c1] = conns;
    let (o0, o1) = std::thread::scope(|s| {
        let helper = s.spawn(|| {
            let obs = drive(c1, &halves[1], t0, drain, traced);
            (obs, trace::take())
        });
        let first = drive(c0, &halves[0], t0, drain, traced);
        let spans0 = trace::take();
        let (second, spans1) = helper.join().expect("load thread panicked");
        ((first, spans0), (second, spans1))
    });
    let cpu_s = crate::cpu_seconds(daemon_pid) - cpu;
    let (o0, mut spans) = (o0.0?, o0.1);
    let (o1, spans1) = (o1.0?, o1.1);
    // Client spans never nest, so they need no parent links.
    spans.extend(spans1);
    let mut arrived: HashMap<u64, (Duration, Vec<u8>, u16)> = HashMap::new();
    for (at, line) in o0.replies.into_iter().chain(o1.replies) {
        let response = Response::decode(&line).map_err(|e| format!("bad reply: {}", e.detail))?;
        let id = response
            .id
            .parse()
            .map_err(|_| format!("reply with unknown id {:?}", response.id))?;
        arrived.insert(id, (at, line, response.code));
    }
    let cmds: HashMap<u64, &'static str> = plan.iter().map(|p| (p.id, p.cmd)).collect();
    let mut requests = Vec::new();
    let mut lines = HashMap::new();
    for (id, due, sent) in o0.sent.into_iter().chain(o1.sent) {
        let late = (sent.saturating_sub(due)).as_secs_f64() * 1e3;
        match arrived.remove(&id) {
            Some((at, line, code)) => {
                let from_due = at.saturating_sub(due).as_secs_f64() * 1e3;
                let from_sent = at.saturating_sub(sent).as_secs_f64() * 1e3;
                requests.push((id, cmds[&id], from_due, from_sent, late, code));
                lines.insert(id, line);
            }
            None => requests.push((id, cmds[&id], f64::INFINITY, f64::INFINITY, late, 0)),
        }
    }
    if !arrived.is_empty() {
        return Err(format!("{} replies to requests never sent", arrived.len()));
    }
    requests.sort_by_key(|r| r.0);
    Ok(PhaseResult {
        spec,
        requests,
        lines,
        outstanding_at_end: o0.outstanding_at_end + o1.outstanding_at_end,
        cpu_s,
        spans,
    })
}

// ---- the in-process replay ----

/// Memo hit/miss tallies shared with objectives boxed inside a search.
#[derive(Default)]
struct MemoTally {
    hits: Cell<u64>,
    misses: Cell<u64>,
}

/// Eq. 1 from the same parts `DeviceState::evaluator` uses — the
/// surrogate oracle and the context's predictor — with each call into
/// the two layers in a span. The gate proves the bytes equal the
/// server's.
struct SplitEvaluator {
    oracle: Arc<SurrogateAccuracy>,
    predictor: Arc<LatencyPredictor>,
    target_ms: f64,
}

impl Objective for SplitEvaluator {
    fn evaluate(&mut self, arch: &Arch) -> Result<Evaluation, EvoError> {
        let accuracy = {
            let _s = trace::span("accuracy.surrogate");
            self.oracle
                .accuracy(arch)
                .map_err(|e| EvoError::Objective {
                    detail: e.to_string(),
                })?
        };
        let latency_ms = {
            let _s = trace::span("latency.predict");
            self.predictor.predict_ms(arch).map_err(EvoError::Space)?
        };
        Ok(Evaluation {
            score: tradeoff_score(accuracy, latency_ms, self.target_ms, BETA),
            accuracy,
            latency_ms,
        })
    }
}

/// A memo over the split evaluator that reports its hit/miss deltas.
struct TalliedMemo {
    memo: MemoObjective<SplitEvaluator>,
    tally: Rc<MemoTally>,
}

impl TalliedMemo {
    fn settle<T>(&mut self, before: hsconas_evo::MemoStats, out: T) -> T {
        let after = self.memo.stats();
        self.tally
            .hits
            .set(self.tally.hits.get() + after.hits - before.hits);
        self.tally
            .misses
            .set(self.tally.misses.get() + after.misses - before.misses);
        out
    }
}

impl Objective for TalliedMemo {
    fn evaluate(&mut self, arch: &Arch) -> Result<Evaluation, EvoError> {
        let before = self.memo.stats();
        let out = self.memo.evaluate(arch);
        self.settle(before, out)
    }
    fn evaluate_batch(&mut self, archs: &[Arch]) -> Result<Vec<Evaluation>, EvoError> {
        let before = self.memo.stats();
        let out = self.memo.evaluate_batch(archs);
        self.settle(before, out)
    }
}

fn arch_json(arch: &Arch) -> Json {
    Json::Arr(
        arch.encode()
            .into_iter()
            .map(|g| Json::Num(g as f64))
            .collect(),
    )
}

/// Replays requests through the functions the server calls, building
/// each reply the way the server does.
struct Replay {
    state: WarmState,
    oracles: HashMap<String, Arc<SurrogateAccuracy>>,
    persist: bool,
    tally: Rc<MemoTally>,
}

impl Replay {
    fn new(state_dir: Option<PathBuf>) -> Result<Replay, String> {
        let persist = state_dir.is_some();
        let state = WarmState::new(ServeOptions {
            state_dir,
            ..ServeOptions::default()
        });
        let mut oracles = HashMap::new();
        for (name, _) in DEVICES {
            let device = {
                let _s = trace::span("latency.calibrate");
                state.device(name).map_err(|e| e.to_string())?
            };
            oracles.insert(
                device.name.clone(),
                Arc::new(SurrogateAccuracy::new(device.space.skeleton().clone())),
            );
        }
        Ok(Replay {
            state,
            oracles,
            persist,
            tally: Rc::new(MemoTally::default()),
        })
    }

    fn device(&self, name: &str) -> Result<Arc<DeviceState>, String> {
        let _s = trace::span("serve.state");
        self.state.device(name).map_err(|e| e.to_string())
    }

    fn memo(&self, device: &Arc<DeviceState>, target_ms: f64) -> TalliedMemo {
        let ctx = {
            let _s = trace::span("serve.state");
            device.eval_context(target_ms)
        };
        TalliedMemo {
            memo: MemoObjective::with_shared_cache(
                SplitEvaluator {
                    oracle: Arc::clone(&self.oracles[&device.name]),
                    predictor: Arc::clone(&ctx.predictor),
                    target_ms,
                },
                ctx.cache.clone(),
            ),
            tally: Rc::clone(&self.tally),
        }
    }

    /// The server spills after each evaluation batch; only with a state
    /// dir does that do anything.
    fn spill(&self) {
        if self.persist {
            let _s = trace::span("serve.spill");
            self.state.spill_tick();
        }
    }

    /// The reply line for one request line. `wire_cached` is the `infer`
    /// reply's cache flag as the daemon reported it.
    fn answer(&mut self, line: &str, wire_cached: Option<bool>) -> Result<String, String> {
        let request = {
            let _s = trace::span("serve.decode");
            Request::decode(line.as_bytes()).map_err(|e| e.detail)?
        };
        let _s = trace::span(&format!("serve.request.{}", request.command.name()));
        let id = request.id;
        let result = match request.command {
            Command::PredictLatency { device, arch } => {
                let device = self.device(&device)?;
                let arch = device.decode_arch(&arch)?;
                let (latency_ms, bias_us) = {
                    let _s = trace::span("latency.predict");
                    device.predict_ms(&arch)?
                };
                Json::obj(vec![
                    ("device", Json::Str(device.name.clone())),
                    ("latency_ms", Json::Num(latency_ms)),
                    ("bias_us", Json::Num(bias_us)),
                ])
            }
            Command::Score {
                device,
                target_ms,
                arch,
            } => {
                let device = self.device(&device)?;
                let arch = device.decode_arch(&arch)?;
                let mut memo = self.memo(&device, target_ms);
                let eval = memo.evaluate_batch(&[arch]).map_err(|e| e.to_string())?[0];
                self.spill();
                Json::obj(vec![
                    ("device", Json::Str(device.name.clone())),
                    ("target_ms", Json::Num(target_ms)),
                    ("score", Json::Num(eval.score)),
                    ("accuracy", Json::Num(eval.accuracy)),
                    ("latency_ms", Json::Num(eval.latency_ms)),
                ])
            }
            Command::Search {
                device,
                target_ms,
                seed,
            } => {
                let device = self.device(&device)?;
                let mut memo = self.memo(&device, target_ms);
                let config = self.state.options().budget.evolution_config();
                let outcome = {
                    let _s = trace::span("evo.search");
                    let mut search = EvolutionSearch::new(device.space.clone(), config);
                    search
                        .run(&mut memo, &mut StdRng::seed_from_u64(seed))
                        .map_err(|e| e.to_string())?
                };
                self.spill();
                Json::obj(vec![
                    ("device", Json::Str(device.name.clone())),
                    ("target_ms", Json::Num(target_ms)),
                    ("seed", Json::Num(seed as f64)),
                    ("arch", arch_json(&outcome.best_arch)),
                    ("arch_str", Json::Str(outcome.best_arch.to_string())),
                    ("score", Json::Num(outcome.best_evaluation.score)),
                    ("accuracy", Json::Num(outcome.best_evaluation.accuracy)),
                    ("latency_ms", Json::Num(outcome.best_evaluation.latency_ms)),
                    (
                        "generations",
                        Json::Num(outcome.history.len().saturating_sub(1) as f64),
                    ),
                ])
            }
            Command::Pareto {
                devices,
                target_ms,
                seed,
            } => {
                let mut resolved = Vec::new();
                for name in &devices {
                    resolved.push(self.device(name)?);
                }
                resolved.sort_by(|a, b| a.name.cmp(&b.name));
                resolved.dedup_by(|a, b| a.name == b.name);
                let per_device: Vec<(String, Box<dyn Objective>)> = resolved
                    .iter()
                    .map(|d| {
                        (
                            d.name.clone(),
                            Box::new(self.memo(d, target_ms)) as Box<dyn Objective>,
                        )
                    })
                    .collect();
                let config = self.state.options().budget.evolution_config();
                let frontier = {
                    let _s = trace::span("evo.pareto");
                    let mut objective =
                        ParetoObjective::new(per_device).map_err(|e| e.to_string())?;
                    ParetoSearch::new(resolved[0].space.clone(), config)
                        .run(&mut objective, &mut StdRng::seed_from_u64(seed))
                        .map_err(|e| e.to_string())?
                };
                self.spill();
                const MAX_PARETO_POINTS: usize = 64;
                let total = frontier.points.len();
                let points = frontier
                    .points
                    .iter()
                    .take(MAX_PARETO_POINTS)
                    .map(|p| {
                        Json::obj(vec![
                            ("arch", arch_json(&p.arch)),
                            ("accuracy", Json::Num(p.eval.accuracy)),
                            (
                                "latencies_ms",
                                Json::Arr(
                                    p.eval.latencies_ms.iter().map(|&l| Json::Num(l)).collect(),
                                ),
                            ),
                        ])
                    })
                    .collect();
                Json::obj(vec![
                    (
                        "devices",
                        Json::Arr(
                            frontier
                                .devices
                                .iter()
                                .map(|d| Json::Str(d.clone()))
                                .collect(),
                        ),
                    ),
                    ("target_ms", Json::Num(target_ms)),
                    ("seed", Json::Num(seed as f64)),
                    ("generations", Json::Num(frontier.generations as f64)),
                    ("evaluated", Json::Num(frontier.evaluated as f64)),
                    ("frontier_size", Json::Num(total as f64)),
                    ("truncated", Json::Bool(total > MAX_PARETO_POINTS)),
                    ("frontier", Json::Arr(points)),
                ])
            }
            Command::Infer {
                arch,
                input_seed,
                batch,
            } => {
                let (artifact, cached) = {
                    let s = trace::span("graph.compile");
                    let out = self.state.compiled_graph(&arch)?;
                    if out.1 {
                        s.rename("graph.cache_hit");
                    }
                    out
                };
                let g = &artifact.graph;
                let mut rng = hsconas_tensor::rng::SmallRng::new(input_seed);
                let input = hsconas_tensor::Tensor::randn(
                    [batch, g.input_c, g.input_h, g.input_w],
                    1.0,
                    &mut rng,
                );
                let logits = {
                    let _s = trace::span("graph.exec");
                    hsconas_graph::execute(g, &input).map_err(|e| e.to_string())?
                };
                let s = logits.shape();
                let mut classes = Vec::with_capacity(s.n);
                let mut rows = Vec::with_capacity(s.n);
                for n in 0..s.n {
                    let row: Vec<f32> = (0..s.c).map(|c| logits.at(n, c, 0, 0)).collect();
                    let argmax = row
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.total_cmp(b.1))
                        .map_or(0, |(i, _)| i);
                    classes.push(Json::Num(argmax as f64));
                    rows.push(Json::Arr(
                        row.into_iter().map(|v| Json::Num(f64::from(v))).collect(),
                    ));
                }
                Json::obj(vec![
                    ("cached", Json::Bool(wire_cached.unwrap_or(cached))),
                    ("nodes", Json::Num(g.nodes.len() as f64)),
                    ("weight_floats", Json::Num(g.const_elements() as f64)),
                    ("classes", Json::Arr(classes)),
                    ("logits", Json::Arr(rows)),
                ])
            }
            Command::Status | Command::Shutdown => {
                return Err("the schedule sends no status or shutdown".into())
            }
        };
        let _e = trace::span("serve.encode");
        Ok(Response::ok(id, result).encode())
    }
}

/// Replays `plan` and compares every reply the daemon answered 200.
/// Returns the number of replies compared.
fn replay_and_compare(
    replay: &mut Replay,
    plan: &[Planned],
    observed: &[&PhaseResult],
) -> Result<usize, String> {
    let mut compared = 0;
    for p in plan {
        trace::set_trace_id(p.id);
        let wire: Vec<&Vec<u8>> = observed
            .iter()
            .filter_map(|phase| phase.lines.get(&p.id))
            .collect();
        let wire_ok: Vec<(&Vec<u8>, Response)> = wire
            .iter()
            .filter_map(|l| Response::decode(l).ok().map(|r| (*l, r)))
            .filter(|(_, r)| r.code == CODE_OK)
            .collect();
        let cached = wire_ok.first().and_then(|(_, r)| {
            r.result
                .as_ref()
                .and_then(|j| j.get("cached"))
                .and_then(Json::as_bool)
        });
        let expected = replay.answer(&p.line, cached)?;
        for (line, response) in &wire_ok {
            let mine: std::borrow::Cow<'_, str> = match (p.cmd, response.result.as_ref()) {
                // The cache flag depends on what else the daemon cached;
                // everything else on the line must match.
                ("infer", Some(result)) => {
                    let flag = result.get("cached").and_then(Json::as_bool);
                    if flag == cached {
                        expected.as_str().into()
                    } else {
                        replay.answer(&p.line, flag)?.into()
                    }
                }
                _ => expected.as_str().into(),
            };
            if line.as_slice() != mine.as_bytes() {
                return Err(format!(
                    "reply to request {} ({}) differs from the in-process replay:\n  daemon: {}\n  replay: {}",
                    p.id,
                    p.cmd,
                    String::from_utf8_lossy(line),
                    mine
                ));
            }
            compared += 1;
        }
    }
    trace::set_trace_id(0);
    Ok(compared)
}

// ---- status accounting ----

fn num(j: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(j, |j, k| j.get(k))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn sum_obj(j: &Json, key: &str) -> f64 {
    match j.get(key) {
        Some(Json::Obj(pairs)) => pairs.iter().filter_map(|(_, v)| v.as_f64()).sum(),
        _ => 0.0,
    }
}

/// `served + rejected == sent`, as the daemon counts them.
fn check_accounting(status: &Json, sent: u64) -> Result<(), String> {
    let served = sum_obj(status, "served");
    let rejected = sum_obj(status, "rejected");
    if served + rejected != sent as f64 {
        return Err(format!(
            "status accounting: served {served} + rejected {rejected} != sent {sent}"
        ));
    }
    Ok(())
}

fn device_sum(status: &Json, path: &[&str]) -> f64 {
    match status.get("devices") {
        Some(Json::Obj(devices)) => devices.iter().map(|(_, d)| num(d, path)).sum(),
        _ => 0.0,
    }
}

// ---- the workload ----

/// The end-to-end timings of a fixed-rate phase, on a daemon that took
/// `setup_s` to warm.
fn fixed_metrics(phase: &PhaseResult, setup_s: f64) -> Report {
    let mut r = Report::default();
    r.metric(
        "latency_ms",
        stats::fastest_window_median(&phase.latencies(None)),
        "ms",
    );
    r.metric("setup_s", setup_s, "s");
    r
}

struct Plan {
    fixed: PhaseSpec,
    ladder: Vec<PhaseSpec>,
}

fn plan_for(args: &Args) -> Plan {
    let scale = if args.tiny { 0.2 } else { 1.0 };
    let step_requests = (LADDER_STEP_REQUESTS as f64 * scale * scale) as usize;
    let fixed_rps = FIXED_RPS * scale;
    Plan {
        fixed: PhaseSpec {
            rps: fixed_rps,
            requests: (fixed_rps * args.seconds).round() as usize,
        },
        ladder: LADDER_RPS
            .iter()
            .map(|rps| PhaseSpec {
                rps: rps * scale,
                requests: step_requests,
            })
            .collect(),
    }
}

/// A fresh, empty state dir for one daemon (or replay).
fn fresh_dir(args: &Args, persist: bool, tag: &str) -> Result<Option<PathBuf>, String> {
    if !persist {
        return Ok(None);
    }
    let dir = args
        .out
        .join(format!("state-{}-{}-{tag}", std::process::id(), args.seed));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(Some(dir))
}

fn remove_dir(dir: &Option<PathBuf>) {
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// What one fresh daemon saw.
struct Load {
    phases: Vec<PhaseResult>,
    /// Its `status` after the last phase.
    status: Json,
    /// Its peak resident set, MB.
    rss_mb: f64,
    setup_s: f64,
    /// Spill writes the daemon logged as failed.
    spill_failures: usize,
}

/// Runs `phases` against one fresh daemon, then shuts it down. With
/// `ladder`, stops after `LADDER_STOP_AFTER` consecutive failing steps.
fn load(
    args: &Args,
    persist: bool,
    tag: &str,
    phases: &[(PhaseSpec, &[Planned])],
    ladder: bool,
    traced: bool,
) -> Result<Load, String> {
    let dir = fresh_dir(args, persist, tag)?;
    let log = args
        .out
        .join(format!("daemon-{}-{tag}.log", std::process::id()));
    let (mut running, setup_s) = start_daemon(args.hsconas.as_deref(), dir.as_deref(), &log)?;
    let outcome = (|| -> Result<_, String> {
        let mut conns = [Conn::open(running.addr)?, Conn::open(running.addr)?];
        let mut results: Vec<PhaseResult> = Vec::new();
        let mut failing = 0;
        for (i, (spec, plan)) in phases.iter().enumerate() {
            let result = run_phase(&mut conns, *spec, plan, traced, running.pid())?;
            running.sent += result.sent() as u64;
            failing = if i > 0 && !result.passes() {
                failing + 1
            } else {
                0
            };
            results.push(result);
            if ladder && failing == LADDER_STOP_AFTER {
                break;
            }
        }
        drop(conns);
        let rss_mb = crate::vm_hwm_mb(running.pid());
        let status = running.status()?;
        check_accounting(&status, running.sent - 1)?;
        Ok((results, status, rss_mb))
    })();
    let down = running.shutdown();
    remove_dir(&dir);
    let spill_failures = std::fs::read_to_string(&log)
        .map(|text| {
            text.lines()
                .filter(|l| l.contains("spill of") && l.contains("failed"))
                .count()
        })
        .unwrap_or(0);
    let _ = std::fs::remove_file(&log);
    let (phases, status, rss_mb) = outcome?;
    down?;
    Ok(Load {
        phases,
        status,
        rss_mb,
        setup_s,
        spill_failures,
    })
}

pub fn run(args: &Args) -> Result<Report, String> {
    let plan = plan_for(args);
    let mut specs = vec![plan.fixed];
    if !args.trace {
        specs.extend(plan.ladder.iter().copied());
    }
    let planned = schedule(args.seed, &specs);
    let mut report = Report::default();

    if !args.trace {
        // Set-up is timed on throwaway daemons too; the one measured
        // below is fresh as well, and its set-up is the last sample.
        let mut setups = Vec::new();
        for i in 0..SETUP_REPEATS - 1 {
            let tag = format!("setup{i}");
            let log = args
                .out
                .join(format!("daemon-{}-{tag}.log", std::process::id()));
            let started = start_daemon(args.hsconas.as_deref(), None, &log);
            let down = started.map(|(running, setup_s)| (running.shutdown(), setup_s));
            let _ = std::fs::remove_file(&log);
            let (down, setup_s) = down?;
            down?;
            setups.push(setup_s);
        }
        let phases: Vec<(PhaseSpec, &[Planned])> = specs
            .iter()
            .copied()
            .zip(planned.iter().map(Vec::as_slice))
            .collect();
        let run = load(args, false, "run", &phases, true, false)?;
        setups.push(run.setup_s);

        let fixed = &run.phases[0];
        let compared = Replay::new(None)
            .and_then(|mut replay| replay_and_compare(&mut replay, &planned[0], &[fixed]))?;
        if fixed.generator_late() {
            return Err(format!(
                "the load generator ran late: {}",
                fixed.summary("fixed")
            ));
        }
        report.note(format!(
            "{}; windowed tail {:.3} ms",
            fixed.summary("fixed"),
            fixed.windowed_tail()
        ));
        for (i, step) in run.phases.iter().enumerate().skip(1) {
            report.note(format!(
                "{} -> {}",
                step.summary(&format!("ladder step {i}")),
                if step.passes() { "pass" } else { "FAIL" }
            ));
        }
        report.note(format!(
            "gate: {compared} fixed-phase replies equal the in-process replay; status served + rejected == sent"
        ));
        let passing = run.phases.iter().skip(1).rfind(|step| step.passes());
        report.note(format!(
            "highest ladder step within {LATENCY_LIMIT_MS} ms and without a growing backlog: {} rps",
            passing.map_or(0.0, |step| step.spec.rps)
        ));
        report.attempted = fixed.sent() as u64;
        report.failed = fixed.failed() as u64;
        report.metrics = fixed_metrics(fixed, stats::median(&setups)).metrics;
        report.metric("peak_rss_mb", run.rss_mb, "MB");
        return Ok(report);
    }

    // Traced: the fixed phase untraced on one fresh daemon, then traced
    // (client spans on) on another, then on a third started with a fresh,
    // empty --state-dir (the spill tier on), then the in-process replay
    // in spans, spilling as that daemon does.
    let phases = [(plan.fixed, planned[0].as_slice())];
    let untraced_load = load(args, false, "untraced", &phases, false, false)?;
    let traced_load = load(args, false, "traced", &phases, false, true)?;
    let persist = load(args, true, "persist", &phases, false, false)?;
    let status = &traced_load.status;
    let (untraced, traced) = (&untraced_load.phases[0], &traced_load.phases[0]);
    report.metric("serve.latency_p99_ms", untraced.windowed_tail(), "ms");
    report.note(untraced.summary("fixed, untraced"));
    report.note(traced.summary("fixed, traced"));
    let spilled = &persist.phases[0];
    report.note(spilled.summary("fixed, --state-dir"));

    let replay_dir = fresh_dir(args, true, "replay")?;
    trace::enable();
    let replayed = {
        let _root = trace::span("serve.replay");
        Replay::new(replay_dir.clone()).and_then(|mut replay| {
            let compared =
                replay_and_compare(&mut replay, &planned[0], &[untraced, traced, spilled])?;
            Ok((compared, replay.tally.hits.get(), replay.tally.misses.get()))
        })
    };
    report.spans = trace::take();
    remove_dir(&replay_dir);
    let (compared, memo_hits, memo_misses) = replayed?;
    report.note(format!(
        "gate: {compared} replies (three daemons) equal the in-process replay"
    ));
    report.attempted = (untraced.sent() + traced.sent() + spilled.sent()) as u64;
    report.failed = (untraced.failed() + traced.failed() + spilled.failed()) as u64;

    let totals = trace::totals(&report.spans);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    report.metric("supernet.train.steps", 0.0, "count");
    if let Some(kernel) = status.get("kernel") {
        crate::kernels::KernelSnapshot::from_status(kernel).report(&mut report);
    }
    report.metric(
        "latency.calibrate.ms",
        get("latency.calibrate").total_ms(),
        "ms",
    );
    report.metric(
        "latency.predict.us_per_call",
        get("latency.predict").mean_ms() * 1e3,
        "us",
    );
    report.metric(
        "accuracy.surrogate.us_per_call",
        get("accuracy.surrogate").mean_ms() * 1e3,
        "us",
    );
    let (search, pareto) = (get("evo.search"), get("evo.pareto"));
    report.metric("evo.self_ms", search.self_ms() + pareto.self_ms(), "ms");
    let lookups = memo_hits + memo_misses;
    report.metric("evo.evals", lookups as f64, "count");
    report.metric(
        "evo.memo_hit_ratio",
        memo_hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    report.metric("evo.search.ms_per_call", search.mean_ms(), "ms");
    report.metric("evo.pareto.ms_per_call", pareto.mean_ms(), "ms");
    report.metric(
        "graph.compile.ms_per_call",
        get("graph.compile").mean_ms(),
        "ms",
    );
    report.metric("graph.exec.ms_per_batch", get("graph.exec").mean_ms(), "ms");
    report.metric(
        "serve.spill.ms_per_tick",
        get("serve.spill").mean_ms(),
        "ms",
    );

    let served_infer = num(status, &["served", "infer"]);
    report.metric(
        "serve.graph_hit_ratio",
        num(status, &["graphs", "cache_hits"]) / served_infer.max(1.0),
        "ratio",
    );
    for cmd in COMMANDS {
        let client = stats::tail(&traced.latencies(Some(cmd)), 99.0);
        report.metric(&format!("serve.client_p99_ms.{cmd}"), client.value, "ms");
        report.metric(
            &format!("serve.server_p99_ms.{cmd}"),
            num(status, &["latency_ms", cmd, "p99_ms"]),
            "ms",
        );
    }
    let client_p50: Vec<f64> = traced
        .requests
        .iter()
        .filter(|r| r.5 == CODE_OK && r.1 == "predict_latency")
        .map(|r| r.3)
        .collect();
    report.metric(
        "serve.transport_ms",
        stats::median(&client_p50) - num(status, &["latency_ms", "predict_latency", "p50_ms"]),
        "ms",
    );
    report.metric(
        "serve.batch_size",
        num(status, &["batching", "batched_jobs"]) / num(status, &["batching", "batches"]).max(1.0),
        "count",
    );
    report.metric("serve.queue_peak", num(status, &["queue", "peak"]), "count");
    report.metric(
        "serve.eval_cache_entries",
        device_sum(status, &["cached_evaluations"]),
        "count",
    );
    report.metric(
        "serve.generator_late_ms",
        stats::percentile(&traced.late_ms(), 99.0),
        "ms",
    );
    report.metric(
        "serve.spill_written",
        device_sum(status, &["spill", "written"]),
        "count",
    );
    let persist_latencies = spilled.latencies(None);
    report.metric(
        "serve.persist.latency_p50_ms",
        stats::median(&persist_latencies),
        "ms",
    );
    report.metric(
        "serve.persist.latency_p99_ms",
        spilled.windowed_tail(),
        "ms",
    );
    report.metric(
        "serve.persist.spill_written",
        device_sum(&persist.status, &["spill", "written"]),
        "count",
    );
    report.metric(
        "serve.persist.spill_failures",
        persist.spill_failures as f64,
        "count",
    );
    report.reconcile("serve.replay");
    // The client spans are written out with the run, outside the
    // replay's reconciliation.
    report.spans.extend(traced.spans.iter().cloned());
    report.overhead(
        &fixed_metrics(untraced, untraced_load.setup_s),
        &fixed_metrics(traced, traced_load.setup_s),
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<PhaseSpec> {
        vec![
            PhaseSpec {
                rps: 200.0,
                requests: 400,
            },
            PhaseSpec {
                rps: 400.0,
                requests: 300,
            },
        ]
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = schedule(7, &specs());
        assert_eq!(a, schedule(7, &specs()));
        assert_ne!(a, schedule(8, &specs()));
        assert_eq!(a.iter().map(Vec::len).collect::<Vec<_>>(), vec![400, 300]);
        // Offsets ascend within a phase, ids across phases.
        for phase in &a {
            assert!(phase.windows(2).all(|w| w[0].offset <= w[1].offset));
        }
        let ids: Vec<u64> = a.iter().flatten().map(|p| p.id).collect();
        assert!(ids.windows(2).all(|w| w[0] + 1 == w[1]));
    }

    #[test]
    fn schedule_holds_its_stated_mix_and_rate() {
        let plan = &schedule(
            3,
            &[PhaseSpec {
                rps: 2000.0,
                requests: 10_000,
            }],
        )[0];
        // Mean arrival rate within 3% of the offered rate.
        let rate = plan.len() as f64 / plan.last().unwrap().offset.as_secs_f64();
        assert!((rate / 2000.0 - 1.0).abs() < 0.03, "{rate}");
        // Every full deck of 50 holds the stated counts exactly.
        for deck in plan.chunks(50) {
            for (cmd, n) in MIX {
                assert_eq!(deck.iter().filter(|p| p.cmd == cmd).count(), n, "{cmd}");
            }
        }
        // Every line decodes to the command it claims.
        for p in plan.iter().take(200) {
            let r = Request::decode(p.line.as_bytes()).unwrap();
            assert_eq!(r.command.name(), p.cmd);
            assert_eq!(r.id, p.id.to_string());
        }
    }
}
