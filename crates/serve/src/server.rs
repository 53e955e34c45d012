//! The daemon: accept loop, per-connection framing, the bounded
//! evaluation queue, and the micro-batching eval workers.
//!
//! ## Threading model
//!
//! * One **acceptor** (the thread calling [`Server::run`]).
//! * One detached **connection thread** per client, reading frames and
//!   answering cheap requests (`status`, `predict_latency`) inline.
//! * `eval_workers` **worker threads** draining the bounded queue.
//!   [`hsconas_par::BoundedQueue::pop_batch`] merges adjacent *compatible*
//!   jobs (same device, same target, both `score`) into one micro-batch,
//!   which a single [`MemoObjective`]-over-[`ParallelObjective`] stack
//!   evaluates — deduplicated against the cross-request
//!   [`SharedEvalCache`](hsconas_evo::SharedEvalCache) and fanned out over
//!   the `hsconas_par` pool.
//! * An optional **watcher** thread polling predictor snapshots for hot
//!   reload.
//!
//! Responses are written by whichever thread produced them, serialized by
//! a per-connection write mutex, so draining needs no writer threads: when
//! the workers have joined, every accepted job's response bytes are out.
//!
//! ## Backpressure
//!
//! Admission uses [`BoundedQueue::try_push`]: a full queue answers
//! `429 overloaded` immediately instead of blocking the connection thread,
//! so a flooding client learns to back off while `status` stays
//! responsive. Queued jobs are never silently dropped — shutdown closes
//! the queue, the workers drain what was admitted, and only then does
//! [`Server::run`] return.
//!
//! ## Determinism
//!
//! `search` answers are a pure function of `(device, target_ms, seed,
//! budget, predictor generation)`: the EA runs on a `StdRng` seeded from
//! the request, candidate generation is serial, batch evaluation merges in
//! input order, and memo hits return exactly the bytes recomputation
//! would. Concurrent identical requests therefore receive byte-identical
//! response lines.

use crate::json::Json;
use crate::metrics::{count, ServeMetrics};
use crate::proto::{
    read_frame, Command, Frame, Request, Response, CODE_INTERNAL, CODE_OK, CODE_SHUTTING_DOWN,
    CODE_UNKNOWN_DEVICE, MAX_FRAME_BYTES,
};
use crate::state::{DeviceState, EvalContext, ServeError, ServeOptions, WarmState, BETA};
use crate::table::BenchTable;
use hsconas_evo::{
    tradeoff_score, EvolutionSearch, MemoObjective, Objective, ParallelObjective, ParetoObjective,
    ParetoSearch,
};
use hsconas_par::{BoundedQueue, PushError};
use hsconas_space::Arch;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// One admitted unit of evaluation work.
struct EvalJob {
    id: String,
    kind: JobKind,
    device: Arc<DeviceState>,
    target_ms: f64,
    conn: Arc<ConnWriter>,
    received: Instant,
}

enum JobKind {
    Score {
        arch: Arch,
    },
    Search {
        seed: u64,
    },
    /// Multi-device co-exploration. `devices` is the canonical (sorted,
    /// deduped) fleet; the job's `device` field holds the first of them.
    Pareto {
        devices: Vec<Arc<DeviceState>>,
        seed: u64,
    },
}

impl EvalJob {
    fn cmd(&self) -> &'static str {
        match self.kind {
            JobKind::Score { .. } => "score",
            JobKind::Search { .. } => "search",
            JobKind::Pareto { .. } => "pareto",
        }
    }
}

/// The write half of one client connection. Response lines go through the
/// mutex so inline answers and worker answers never interleave bytes.
struct ConnWriter {
    stream: Mutex<TcpStream>,
}

impl ConnWriter {
    /// Writes one response line. Errors are swallowed: the client hanging
    /// up early must not take a worker down with it.
    fn send(&self, response: &Response) {
        let mut line = response.encode();
        line.push('\n');
        let mut guard = lock(&self.stream);
        let _ = guard.write_all(line.as_bytes());
        let _ = guard.flush();
    }
}

struct Shared {
    state: WarmState,
    metrics: ServeMetrics,
    queue: BoundedQueue<EvalJob>,
    draining: AtomicBool,
    addr: SocketAddr,
    batch_max: usize,
    pool_threads: usize,
    slow_eval_ms: u64,
    /// Precomputed `.hsbt` bench table, when `--bench-table` was given and
    /// the file validated at bind time.
    table: Option<BenchTable>,
}

impl Shared {
    /// Flips into drain mode and pokes the acceptor awake with a throwaway
    /// connection (std's blocking `accept` has nothing like a deadline).
    fn begin_shutdown(&self) {
        if !self.draining.swap(true, Ordering::AcqRel) {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A bound-and-warmed daemon, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener, warms the preload devices, and returns the
    /// server without accepting anything yet.
    ///
    /// # Errors
    ///
    /// I/O errors from binding; [`io::ErrorKind::InvalidInput`] wrapping a
    /// [`ServeError`] when a preload device is unknown or fails to warm.
    pub fn bind(options: ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind((options.host.as_str(), options.port))?;
        let addr = listener.local_addr()?;
        let queue = BoundedQueue::new(options.queue_capacity);
        let batch_max = options.batch_max.max(1);
        let pool_threads = options.pool_threads;
        let slow_eval_ms = options.slow_eval_ms;
        let preload = options.preload.clone();
        // A bench table that fails to validate is a startup error, never a
        // silent fall-through: a corrupt or foreign table must not be
        // mistaken for "no coverage".
        let table = match &options.bench_table {
            None => None,
            Some(path) => Some(
                BenchTable::load(path)
                    .map_err(|detail| io::Error::new(io::ErrorKind::InvalidInput, detail))?,
            ),
        };
        let state = WarmState::new(options);
        for name in &preload {
            state
                .device(name)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        }
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                state,
                metrics: ServeMetrics::new(),
                queue,
                draining: AtomicBool::new(false),
                addr,
                batch_max,
                pool_threads,
                slow_eval_ms,
                table,
            }),
        })
    }

    /// The bound address (port is concrete even when 0 was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Serves until a `shutdown` request arrives, then drains: the queue
    /// is closed, the eval workers finish every admitted job and join, and
    /// only then does this return. Every accepted job has had its response
    /// bytes written by that point.
    ///
    /// # Errors
    ///
    /// Fatal accept-loop I/O errors only; per-connection errors are
    /// contained in their threads.
    pub fn run(self) -> io::Result<()> {
        let shared = self.shared;
        let options = shared.state.options().clone();

        let mut workers = Vec::new();
        for i in 0..options.eval_workers.max(1) {
            let shared = Arc::clone(&shared);
            workers.push(
                thread::Builder::new()
                    .name(format!("serve-eval-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }

        let watcher = if options.lut_watch_ms > 0 {
            let shared = Arc::clone(&shared);
            let interval = Duration::from_millis(options.lut_watch_ms);
            Some(
                thread::Builder::new()
                    .name("serve-lut-watch".into())
                    .spawn(move || {
                        while !shared.draining.load(Ordering::Acquire) {
                            thread::sleep(interval);
                            shared.state.poll_reload();
                        }
                    })?,
            )
        } else {
            None
        };

        for stream in self.listener.incoming() {
            if shared.draining.load(Ordering::Acquire) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(e) => {
                    shared.queue.close();
                    return Err(e);
                }
            };
            // One-line frames; without TCP_NODELAY the Nagle/delayed-ACK
            // interaction costs ~40 ms per request on loopback.
            let _ = stream.set_nodelay(true);
            shared.metrics.connections.incr();
            let shared = Arc::clone(&shared);
            // Detached: a connection blocked in read must not block drain.
            let _ = thread::Builder::new()
                .name("serve-conn".into())
                .spawn(move || handle_connection(&shared, stream));
        }

        shared.queue.close();
        for worker in workers {
            let _ = worker.join();
        }
        if let Some(watcher) = watcher {
            let _ = watcher.join();
        }
        // Workers are quiet now — flush whatever the periodic ticks
        // haven't, so a restart (or a sibling shard) starts warm.
        shared.state.spill_all();
        Ok(())
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(ConnWriter {
        stream: Mutex::new(write_half),
    });
    let mut reader = BufReader::new(stream);
    loop {
        match read_frame(&mut reader, MAX_FRAME_BYTES) {
            Err(_) | Ok(Frame::Eof) => break,
            Ok(Frame::Oversized) => {
                let response = Response::fail(
                    "",
                    crate::proto::CODE_FRAME_TOO_LARGE,
                    format!("frame exceeds {MAX_FRAME_BYTES} bytes"),
                );
                shared.metrics.record_rejected(response.code);
                conn.send(&response);
            }
            Ok(Frame::Line(line)) => {
                if line.iter().all(u8::is_ascii_whitespace) {
                    continue;
                }
                match Request::decode(&line) {
                    Err(e) => {
                        let response = Response::fail(e.id.unwrap_or_default(), e.code, e.detail);
                        shared.metrics.record_rejected(response.code);
                        conn.send(&response);
                    }
                    Ok(request) => dispatch(shared, &conn, request),
                }
            }
        }
    }
}

fn dispatch(shared: &Arc<Shared>, conn: &Arc<ConnWriter>, request: Request) {
    let received = Instant::now();
    let _span = hsconas_telemetry::span!("serve.request", cmd = request.command.name());
    match request.command {
        Command::Status => {
            let result = build_status(shared);
            shared.metrics.record_served("status", ms_since(received));
            conn.send(&Response::ok(request.id, result));
        }
        Command::Shutdown => {
            shared.metrics.record_served("shutdown", ms_since(received));
            conn.send(&Response::ok(
                request.id,
                Json::obj(vec![("draining", Json::Bool(true))]),
            ));
            shared.begin_shutdown();
        }
        Command::PredictLatency { device, arch } => {
            let response = predict_inline(shared, &request.id, &device, &arch, received);
            if response.is_ok() {
                shared
                    .metrics
                    .record_served("predict_latency", ms_since(received));
            } else {
                shared.metrics.record_rejected(response.code);
            }
            conn.send(&response);
        }
        Command::Score {
            device,
            target_ms,
            arch,
        } => {
            // Bench-table fast path: a covered arch answers O(1) inline,
            // bit-identically to the queued live evaluation. Skipped while
            // draining so the 503 semantics match the live path.
            if !shared.draining.load(Ordering::Acquire) {
                if let Some(response) =
                    score_from_table(shared, &request.id, &device, target_ms, &arch)
                {
                    shared.metrics.record_served("score", ms_since(received));
                    conn.send(&response);
                    return;
                }
            }
            admit(
                shared,
                conn,
                request.id,
                &device,
                target_ms,
                received,
                |dev| dev.decode_arch(&arch).map(|arch| JobKind::Score { arch }),
            );
        }
        Command::Search {
            device,
            target_ms,
            seed,
        } => {
            admit(
                shared,
                conn,
                request.id,
                &device,
                target_ms,
                received,
                |_| Ok(JobKind::Search { seed }),
            );
        }
        Command::Pareto {
            devices,
            target_ms,
            seed,
        } => {
            admit_pareto(
                shared, conn, request.id, &devices, target_ms, seed, received,
            );
        }
        Command::Infer {
            arch,
            input_seed,
            batch,
        } => {
            let response = infer_inline(shared, &request.id, &arch, input_seed, batch);
            if response.is_ok() {
                shared.metrics.record_served("infer", ms_since(received));
            } else {
                shared.metrics.record_rejected(response.code);
            }
            conn.send(&response);
        }
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn predict_inline(
    shared: &Arc<Shared>,
    id: &str,
    device: &str,
    arch: &[usize],
    _received: Instant,
) -> Response {
    let device = match shared.state.device(device) {
        Ok(device) => device,
        Err(e) => return serve_error_response(id, &e),
    };
    let arch = match device.decode_arch(arch) {
        Ok(arch) => arch,
        Err(detail) => return Response::fail(id, crate::proto::CODE_BAD_REQUEST, detail),
    };
    if let Some((idx, entry)) = table_lookup(shared, &device, &arch) {
        let table = shared.table.as_ref().expect("hit implies a loaded table");
        return Response::ok(
            id,
            Json::obj(vec![
                ("device", Json::Str(device.name.clone())),
                ("latency_ms", Json::Num(entry.latencies_ms[idx])),
                ("bias_us", Json::Num(table.devices[idx].bias_us)),
            ]),
        );
    }
    match device.predict_ms(&arch) {
        Ok((latency_ms, bias_us)) => Response::ok(
            id,
            Json::obj(vec![
                ("device", Json::Str(device.name.clone())),
                ("latency_ms", Json::Num(latency_ms)),
                ("bias_us", Json::Num(bias_us)),
            ]),
        ),
        Err(detail) => Response::fail(id, CODE_INTERNAL, detail),
    }
}

/// Answers `infer` inline: compile (or fetch) the genome's optimized
/// graph artifact, run it on a seeded synthetic batch, return the logits.
/// Inline because a tiny-skeleton compile is milliseconds and the cache
/// absorbs the repeated-genome path entirely.
fn infer_inline(
    shared: &Arc<Shared>,
    id: &str,
    arch: &[usize],
    input_seed: u64,
    batch: usize,
) -> Response {
    let (artifact, cached) = match shared.state.compiled_graph(arch) {
        Ok(pair) => pair,
        Err(detail) => return Response::fail(id, crate::proto::CODE_BAD_REQUEST, detail),
    };
    if cached {
        shared.metrics.infer_cache_hits.incr();
    }
    let g = &artifact.graph;
    let mut rng = hsconas_tensor::rng::SmallRng::new(input_seed);
    let input =
        hsconas_tensor::Tensor::randn([batch, g.input_c, g.input_h, g.input_w], 1.0, &mut rng);
    let logits = match hsconas_graph::execute(g, &input) {
        Ok(logits) => logits,
        Err(e) => return Response::fail(id, CODE_INTERNAL, e.to_string()),
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
            .map(|(i, _)| i)
            .unwrap_or(0);
        classes.push(Json::Num(argmax as f64));
        rows.push(Json::Arr(
            row.into_iter().map(|v| Json::Num(f64::from(v))).collect(),
        ));
    }
    Response::ok(
        id,
        Json::obj(vec![
            ("cached", Json::Bool(cached)),
            ("nodes", Json::Num(g.nodes.len() as f64)),
            ("weight_floats", Json::Num(g.const_elements() as f64)),
            ("classes", Json::Arr(classes)),
            ("logits", Json::Arr(rows)),
        ]),
    )
}

/// One validated bench-table row for `(device, arch)`: the device has a
/// column and the table's generation stamp matches the live predictor, so
/// the stored floats are exactly what live evaluation would compute. A
/// stale stamp or uncovered arch is a counted miss (silent fall-through);
/// with no table loaded nothing is counted.
fn table_lookup<'a>(
    shared: &'a Shared,
    device: &DeviceState,
    arch: &Arch,
) -> Option<(usize, &'a crate::table::TableEntry)> {
    let table = shared.table.as_ref()?;
    let hit = table.device_index(&device.name).and_then(|idx| {
        if table.devices[idx].lut_generation != device.lut_generation() {
            return None;
        }
        let fingerprint = crate::router::arch_route_key(&arch.encode());
        table.get(fingerprint).map(|entry| (idx, entry))
    });
    if hit.is_some() {
        shared.metrics.table_hits.incr();
    } else {
        shared.metrics.table_misses.incr();
    }
    hit
}

/// The table fast path for `score`: `Some(200)` only on a genuine hit;
/// any resolution failure returns `None` so the live path produces the
/// identical 4xx it would have produced anyway.
fn score_from_table(
    shared: &Arc<Shared>,
    id: &str,
    device: &str,
    target_ms: f64,
    arch: &[usize],
) -> Option<Response> {
    shared.table.as_ref()?;
    let device = shared.state.device(device).ok()?;
    let arch = device.decode_arch(arch).ok()?;
    let (idx, entry) = table_lookup(shared, &device, &arch)?;
    let latency_ms = entry.latencies_ms[idx];
    Some(Response::ok(
        id,
        Json::obj(vec![
            ("device", Json::Str(device.name.clone())),
            ("target_ms", Json::Num(target_ms)),
            (
                "score",
                Json::Num(tradeoff_score(entry.accuracy, latency_ms, target_ms, BETA)),
            ),
            ("accuracy", Json::Num(entry.accuracy)),
            ("latency_ms", Json::Num(latency_ms)),
        ]),
    ))
}

fn serve_error_response(id: &str, error: &ServeError) -> Response {
    let code = match error {
        ServeError::UnknownDevice(_) => CODE_UNKNOWN_DEVICE,
        ServeError::Internal(_) => CODE_INTERNAL,
    };
    Response::fail(id, code, error.to_string())
}

/// Admission control for queued work: resolve the device, build the job,
/// try to enqueue, answer 429/503 immediately when that fails.
fn admit(
    shared: &Arc<Shared>,
    conn: &Arc<ConnWriter>,
    id: String,
    device: &str,
    target_ms: f64,
    received: Instant,
    build: impl FnOnce(&Arc<DeviceState>) -> Result<JobKind, String>,
) {
    if shared.draining.load(Ordering::Acquire) {
        let response = Response::fail(id, CODE_SHUTTING_DOWN, "server is draining");
        shared.metrics.record_rejected(response.code);
        conn.send(&response);
        return;
    }
    let device = match shared.state.device(device) {
        Ok(device) => device,
        Err(e) => {
            let response = serve_error_response(&id, &e);
            shared.metrics.record_rejected(response.code);
            conn.send(&response);
            return;
        }
    };
    let kind = match build(&device) {
        Ok(kind) => kind,
        Err(detail) => {
            let response = Response::fail(id, crate::proto::CODE_BAD_REQUEST, detail);
            shared.metrics.record_rejected(response.code);
            conn.send(&response);
            return;
        }
    };
    let job = EvalJob {
        id,
        kind,
        device,
        target_ms,
        conn: Arc::clone(conn),
        received,
    };
    enqueue(shared, job);
}

/// Pushes one built job, answering 429/503 immediately when that fails.
fn enqueue(shared: &Arc<Shared>, job: EvalJob) {
    match shared.queue.try_push(job) {
        Ok(depth) => shared.metrics.record_queue_depth(depth),
        Err(PushError::Full(job)) => {
            let response = Response::fail(
                job.id,
                crate::proto::CODE_OVERLOADED,
                format!(
                    "overloaded: evaluation queue full (capacity {})",
                    shared.queue.capacity()
                ),
            );
            shared.metrics.record_rejected(response.code);
            job.conn.send(&response);
        }
        Err(PushError::Closed(job)) => {
            let response = Response::fail(job.id, CODE_SHUTTING_DOWN, "server is draining");
            shared.metrics.record_rejected(response.code);
            job.conn.send(&response);
        }
    }
}

/// Admission for `pareto`: resolve every named device (one unknown name
/// fails the whole request with the same 404 a single-device command
/// gets), canonicalize the set — sort by canonical name, dedup — and
/// enqueue one search job. The canonical ordering is what makes the
/// frontier bytes invariant under device-list permutations and alias
/// spellings.
fn admit_pareto(
    shared: &Arc<Shared>,
    conn: &Arc<ConnWriter>,
    id: String,
    devices: &[String],
    target_ms: f64,
    seed: u64,
    received: Instant,
) {
    if shared.draining.load(Ordering::Acquire) {
        let response = Response::fail(id, CODE_SHUTTING_DOWN, "server is draining");
        shared.metrics.record_rejected(response.code);
        conn.send(&response);
        return;
    }
    let mut resolved: Vec<Arc<DeviceState>> = Vec::with_capacity(devices.len());
    for name in devices {
        match shared.state.device(name) {
            Ok(device) => resolved.push(device),
            Err(e) => {
                let response = serve_error_response(&id, &e);
                shared.metrics.record_rejected(response.code);
                conn.send(&response);
                return;
            }
        }
    }
    resolved.sort_by(|a, b| a.name.cmp(&b.name));
    resolved.dedup_by(|a, b| a.name == b.name);
    let device = Arc::clone(&resolved[0]);
    enqueue(
        shared,
        EvalJob {
            id,
            kind: JobKind::Pareto {
                devices: resolved,
                seed,
            },
            device,
            target_ms,
            conn: Arc::clone(conn),
            received,
        },
    );
}

/// Two jobs may share a micro-batch iff they score against the same device
/// and target (so one objective stack answers both). Searches never batch:
/// each owns its RNG stream.
fn compatible(a: &EvalJob, b: &EvalJob) -> bool {
    matches!(a.kind, JobKind::Score { .. })
        && matches!(b.kind, JobKind::Score { .. })
        && Arc::ptr_eq(&a.device, &b.device)
        && a.target_ms.to_bits() == b.target_ms.to_bits()
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(batch) = shared.queue.pop_batch(shared.batch_max, compatible) {
        shared.metrics.record_queue_depth(shared.queue.len());
        shared.metrics.batches.incr();
        shared.metrics.batched_jobs.add(batch.len() as u64);
        if shared.slow_eval_ms > 0 {
            thread::sleep(Duration::from_millis(shared.slow_eval_ms));
        }
        execute_batch(shared, batch);
    }
}

fn execute_batch(shared: &Arc<Shared>, batch: Vec<EvalJob>) {
    let Some(first) = batch.first() else {
        return;
    };
    let device = Arc::clone(&first.device);
    let ctx = device.eval_context(first.target_ms);
    match &first.kind {
        JobKind::Score { .. } => execute_scores(shared, &device, &ctx, batch),
        JobKind::Search { .. } => {
            // pop_batch never merges searches, so this batch has one job.
            for job in batch {
                execute_search(shared, &device, &ctx, job);
            }
        }
        JobKind::Pareto { .. } => {
            // Like searches, pareto jobs never merge.
            for job in batch {
                execute_pareto(shared, job);
            }
        }
    }
    // Responses are already on the wire; persisting freshly memoized
    // evaluations is off the request path (a no-op without --state-dir).
    device.spill_tick();
}

fn execute_scores(
    shared: &Arc<Shared>,
    device: &Arc<DeviceState>,
    ctx: &EvalContext,
    batch: Vec<EvalJob>,
) {
    let archs: Vec<Arch> = batch
        .iter()
        .map(|job| match &job.kind {
            JobKind::Score { arch } => arch.clone(),
            _ => unreachable!("compatible() only batches scores"),
        })
        .collect();
    let mut objective = MemoObjective::with_shared_cache(
        ParallelObjective::new(device.evaluator(ctx), shared.pool_threads),
        ctx.cache.clone(),
    );
    match objective.evaluate_batch(&archs) {
        Ok(evaluations) => {
            for (job, evaluation) in batch.into_iter().zip(evaluations) {
                let result = Json::obj(vec![
                    ("device", Json::Str(device.name.clone())),
                    ("target_ms", Json::Num(ctx.target_ms)),
                    ("score", Json::Num(evaluation.score)),
                    ("accuracy", Json::Num(evaluation.accuracy)),
                    ("latency_ms", Json::Num(evaluation.latency_ms)),
                ]);
                respond_evaluated(shared, &job, Response::ok(job.id.clone(), result));
            }
        }
        Err(e) => {
            let detail = e.to_string();
            for job in batch {
                respond_evaluated(
                    shared,
                    &job,
                    Response::fail(job.id.clone(), CODE_INTERNAL, detail.clone()),
                );
            }
        }
    }
}

fn execute_search(
    shared: &Arc<Shared>,
    device: &Arc<DeviceState>,
    ctx: &EvalContext,
    job: EvalJob,
) {
    let JobKind::Search { seed } = job.kind else {
        unreachable!("execute_search only receives search jobs");
    };
    let config = shared.state.options().budget.evolution_config();
    let mut objective = MemoObjective::with_shared_cache(
        ParallelObjective::new(device.evaluator(ctx), shared.pool_threads),
        ctx.cache.clone(),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut search = EvolutionSearch::new(device.space.clone(), config);
    match search.run(&mut objective, &mut rng) {
        Ok(outcome) => {
            // Deliberately no cache-hit counters here: the response must be
            // a pure function of (device, target, seed, budget, predictor
            // generation), and hit rates depend on what OTHER requests
            // already evaluated. Cache observability lives in `status`.
            let result = Json::obj(vec![
                ("device", Json::Str(device.name.clone())),
                ("target_ms", Json::Num(ctx.target_ms)),
                ("seed", Json::Num(seed as f64)),
                (
                    "arch",
                    Json::Arr(
                        outcome
                            .best_arch
                            .encode()
                            .into_iter()
                            .map(|g| Json::Num(g as f64))
                            .collect(),
                    ),
                ),
                ("arch_str", Json::Str(outcome.best_arch.to_string())),
                ("score", Json::Num(outcome.best_evaluation.score)),
                ("accuracy", Json::Num(outcome.best_evaluation.accuracy)),
                ("latency_ms", Json::Num(outcome.best_evaluation.latency_ms)),
                (
                    "generations",
                    Json::Num(outcome.history.len().saturating_sub(1) as f64),
                ),
            ]);
            respond_evaluated(shared, &job, Response::ok(job.id.clone(), result));
        }
        Err(e) => {
            respond_evaluated(
                shared,
                &job,
                Response::fail(job.id.clone(), CODE_INTERNAL, e.to_string()),
            );
        }
    }
}

/// Most frontier points serialized into one `pareto` response line —
/// keeps it comfortably inside [`MAX_FRAME_BYTES`] for 20-layer genomes
/// over [`crate::proto::MAX_PARETO_DEVICES`] devices. The full frontier
/// size is always reported, and truncation (deterministic: the points are
/// encoding-sorted) is flagged.
const MAX_PARETO_POINTS: usize = 64;

fn execute_pareto(shared: &Arc<Shared>, job: EvalJob) {
    let JobKind::Pareto { devices, seed } = &job.kind else {
        unreachable!("execute_pareto only receives pareto jobs");
    };
    let seed = *seed;
    let config = shared.state.options().budget.evolution_config();
    let mut per_device: Vec<(String, Box<dyn Objective>)> = Vec::with_capacity(devices.len());
    for device in devices {
        let ctx = device.eval_context(job.target_ms);
        per_device.push((
            device.name.clone(),
            Box::new(MemoObjective::with_shared_cache(
                ParallelObjective::new(device.evaluator(&ctx), shared.pool_threads),
                ctx.cache.clone(),
            )),
        ));
    }
    let outcome = ParetoObjective::new(per_device).and_then(|mut objective| {
        let search = ParetoSearch::new(job.device.space.clone(), config);
        let mut rng = StdRng::seed_from_u64(seed);
        search.run(&mut objective, &mut rng)
    });
    match outcome {
        Ok(frontier) => {
            let total = frontier.points.len();
            let points: Vec<Json> = frontier
                .points
                .iter()
                .take(MAX_PARETO_POINTS)
                .map(|p| {
                    Json::obj(vec![
                        (
                            "arch",
                            Json::Arr(
                                p.arch
                                    .encode()
                                    .into_iter()
                                    .map(|g| Json::Num(g as f64))
                                    .collect(),
                            ),
                        ),
                        ("accuracy", Json::Num(p.eval.accuracy)),
                        (
                            "latencies_ms",
                            Json::Arr(p.eval.latencies_ms.iter().map(|&l| Json::Num(l)).collect()),
                        ),
                    ])
                })
                .collect();
            let result = Json::obj(vec![
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
                ("target_ms", Json::Num(job.target_ms)),
                ("seed", Json::Num(seed as f64)),
                ("generations", Json::Num(frontier.generations as f64)),
                ("evaluated", Json::Num(frontier.evaluated as f64)),
                ("frontier_size", Json::Num(total as f64)),
                ("truncated", Json::Bool(total > MAX_PARETO_POINTS)),
                ("frontier", Json::Arr(points)),
            ]);
            respond_evaluated(shared, &job, Response::ok(job.id.clone(), result));
        }
        Err(e) => {
            respond_evaluated(
                shared,
                &job,
                Response::fail(job.id.clone(), CODE_INTERNAL, e.to_string()),
            );
        }
    }
}

fn respond_evaluated(shared: &Arc<Shared>, job: &EvalJob, response: Response) {
    if response.code == CODE_OK {
        shared
            .metrics
            .record_served(job.cmd(), ms_since(job.received));
    } else {
        shared.metrics.record_rejected(response.code);
    }
    job.conn.send(&response);
}

fn build_status(shared: &Arc<Shared>) -> Json {
    let m = &shared.metrics;
    let devices: Vec<(String, Json)> = shared
        .state
        .loaded()
        .into_iter()
        .map(|device| {
            let (lut_entries, bias_us) = device.predictor_stats();
            let detail = Json::obj(vec![
                ("lut_entries", Json::Num(lut_entries as f64)),
                ("bias_us", Json::Num(bias_us)),
                ("predictor_version", Json::Num(device.version() as f64)),
                (
                    // Content hash of the live predictor, identical across
                    // every shard serving the same snapshot. Hex string:
                    // Json numbers are f64 and would round 64-bit stamps.
                    "lut_generation",
                    Json::Str(format!("{:016x}", device.lut_generation())),
                ),
                (
                    "cached_evaluations",
                    Json::Num(device.cached_evaluations() as f64),
                ),
                ("reloads_ok", count(&device.reloads_ok)),
                ("reloads_rejected", count(&device.reloads_rejected)),
                (
                    "spill",
                    Json::obj(vec![
                        ("loaded", count(&device.spill_loaded)),
                        ("written", count(&device.spill_written)),
                    ]),
                ),
            ]);
            (device.name.clone(), detail)
        })
        .collect();
    Json::obj(vec![
        ("uptime_ms", Json::Num(m.uptime_ms() as f64)),
        (
            "draining",
            Json::Bool(shared.draining.load(Ordering::Acquire)),
        ),
        (
            "budget",
            Json::Str(shared.state.options().budget.name().into()),
        ),
        (
            "queue",
            Json::obj(vec![
                ("depth", Json::Num(shared.queue.len() as f64)),
                ("capacity", Json::Num(shared.queue.capacity() as f64)),
                ("peak", Json::Num(m.queue_peak() as f64)),
            ]),
        ),
        ("connections", count(&m.connections)),
        ("served", m.served_json()),
        ("rejected", m.rejected_json()),
        (
            "batching",
            Json::obj(vec![
                ("batches", count(&m.batches)),
                ("batched_jobs", count(&m.batched_jobs)),
            ]),
        ),
        ("latency_ms", m.latency_json()),
        (
            // The precomputed `.hsbt` fast path for predict_latency/score.
            "bench_table",
            match &shared.table {
                None => Json::obj(vec![("loaded", Json::Bool(false))]),
                Some(table) => Json::obj(vec![
                    ("loaded", Json::Bool(true)),
                    ("entries", Json::Num(table.len() as f64)),
                    (
                        "devices",
                        Json::Arr(
                            table
                                .devices
                                .iter()
                                .map(|d| Json::Str(d.name.clone()))
                                .collect(),
                        ),
                    ),
                    ("hits", count(&m.table_hits)),
                    ("misses", count(&m.table_misses)),
                ]),
            },
        ),
        (
            // Compiled-artifact cache backing the `infer` command.
            "graphs",
            Json::obj(vec![
                ("cached", Json::Num(shared.state.graphs_cached() as f64)),
                ("cache_hits", count(&m.infer_cache_hits)),
            ]),
        ),
        ("devices", Json::Obj(devices)),
        (
            // Which GEMM kernel the tensor layer selected on this host
            // (HSCONAS_KERNEL override included), how many dispatches each
            // variant has taken since startup, how the band-parallel
            // driver split them, and the packed-weight cache counters.
            "kernel",
            {
                let counts = hsconas_tensor::kernels::dispatch_counts();
                let bands = hsconas_tensor::kernels::parallel_counts();
                let pack = hsconas_tensor::kernels::cache::stats();
                Json::obj(vec![
                    (
                        "variant",
                        Json::Str(hsconas_tensor::kernels::selected_variant().name().into()),
                    ),
                    (
                        "dispatch",
                        Json::obj(vec![
                            ("direct", Json::Num(counts.direct as f64)),
                            ("scalar", Json::Num(counts.scalar as f64)),
                            ("avx2", Json::Num(counts.avx2 as f64)),
                        ]),
                    ),
                    (
                        "bands",
                        Json::obj(vec![
                            ("serial", Json::Num(bands.serial as f64)),
                            ("parallel", Json::Num(bands.parallel as f64)),
                        ]),
                    ),
                    (
                        "pack_cache",
                        Json::obj(vec![
                            ("hits", Json::Num(pack.hits as f64)),
                            ("misses", Json::Num(pack.misses as f64)),
                            ("evictions", Json::Num(pack.evictions as f64)),
                            ("invalidations", Json::Num(pack.invalidations as f64)),
                            ("entries", Json::Num(pack.entries as f64)),
                            ("bytes", Json::Num(pack.bytes as f64)),
                            ("hit_rate", Json::Num(pack.hit_rate())),
                        ]),
                    ),
                ])
            },
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{REJECTED, SERVED};
    use crate::Client;

    fn field(status: &Json, path: &[&str]) -> u64 {
        path.iter()
            .try_fold(status, |json, key| json.get(key))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("status has no number at {path:?}"))
    }

    /// `status` is a view of this server's registry cells: a mix of served
    /// and rejected requests lands in exactly the handles `status` prints,
    /// the registry lists each under its key, and the tallies add up to
    /// what was sent.
    #[test]
    fn status_counters_are_the_registry_handles() {
        let server = Server::bind(ServeOptions::default()).unwrap();
        let shared = Arc::clone(&server.shared);
        let addr = server.local_addr();
        let daemon = thread::spawn(move || server.run());

        let mut rng = StdRng::seed_from_u64(5);
        let arch = shared
            .state
            .device("edge")
            .unwrap()
            .space
            .sample(&mut rng)
            .encode();
        let arch = format!("{arch:?}").replace(' ', "");
        let oversized = format!("{{\"pad\":\"{}\"}}", "x".repeat(MAX_FRAME_BYTES + 1));
        let requests = [
            r#"{"id":"a","cmd":"status"}"#.to_string(),
            format!(r#"{{"id":"b","cmd":"predict_latency","device":"edge","arch":{arch}}}"#),
            format!(r#"{{"id":"c","cmd":"score","device":"edge","target_ms":24,"arch":{arch}}}"#),
            format!(r#"{{"id":"d","cmd":"score","device":"edge","target_ms":24,"arch":{arch}}}"#),
            r#"{"id":"e","cmd":"search","device":"edge","target_ms":24,"seed":3}"#.to_string(),
            r#"{"id":"f","cmd":"infer","arch":[0,9,0,9,0,9,0,9],"input_seed":1,"batch":1}"#
                .to_string(),
            r#"{"id":"g","cmd":"infer","arch":[0,9,0,9,0,9,0,9],"input_seed":2,"batch":1}"#
                .to_string(),
            "not json".to_string(),
            format!(r#"{{"id":"h","cmd":"score","device":"tpu","target_ms":24,"arch":{arch}}}"#),
            r#"{"id":"i","cmd":"search","device":"edge","target_ms":-1,"seed":3}"#.to_string(),
            oversized,
        ];
        let mut client = Client::connect(addr).unwrap();
        for line in &requests {
            client.call_raw(line).unwrap();
        }

        let m = &shared.metrics;
        let status = build_status(&shared);
        for (i, (name, _)) in SERVED.iter().enumerate() {
            assert_eq!(
                field(&status, &["served", name]),
                m.served[i].get(),
                "{name}"
            );
        }
        for (i, (kind, _)) in REJECTED.iter().enumerate() {
            assert_eq!(
                field(&status, &["rejected", kind]),
                m.rejected[i].get(),
                "{kind}"
            );
        }
        let singles = [
            (&["connections"][..], &m.connections),
            (&["batching", "batches"], &m.batches),
            (&["batching", "batched_jobs"], &m.batched_jobs),
            (&["graphs", "cache_hits"], &m.infer_cache_hits),
        ];
        for (path, cell) in singles {
            assert_eq!(field(&status, path), cell.get(), "{path:?}");
        }
        let device = shared.state.device("edge").unwrap();
        let device_cells = [
            (&["reloads_ok"][..], &device.reloads_ok),
            (&["reloads_rejected"], &device.reloads_rejected),
            (&["spill", "loaded"], &device.spill_loaded),
            (&["spill", "written"], &device.spill_written),
        ];
        let edge = status
            .get("devices")
            .and_then(|d| d.get("edge-xavier"))
            .unwrap();
        for (path, cell) in device_cells {
            assert_eq!(field(edge, path), cell.get(), "{path:?}");
        }
        assert_eq!(field(&status, &["queue", "peak"]), m.queue_peak());
        assert_eq!(
            m.infer_cache_hits.get(),
            1,
            "the second infer hits the cache"
        );

        // The registry sums every daemon's cells per key; this daemon's
        // count is a lower bound on each total.
        let snapshot = hsconas_telemetry::snapshot();
        let total = |key: &str| {
            snapshot
                .counters
                .iter()
                .find(|(k, _)| k == key)
                .map_or(0, |(_, v)| *v)
        };
        let cells = SERVED
            .iter()
            .zip(&m.served)
            .chain(REJECTED.iter().zip(&m.rejected));
        for ((_, key), cell) in cells {
            assert_eq!(cell.key(), *key);
            assert!(total(key) >= cell.get(), "{key} missing from the registry");
        }

        let wire = client.status().unwrap().result.unwrap();
        let sum = |block: &str| -> u64 {
            match wire.get(block) {
                Some(Json::Obj(pairs)) => pairs.iter().filter_map(|(_, v)| v.as_u64()).sum(),
                _ => panic!("status has no {block} object"),
            }
        };
        assert_eq!(sum("served"), 7);
        assert_eq!(sum("served") + sum("rejected"), requests.len() as u64);

        client.shutdown().unwrap();
        daemon.join().unwrap().unwrap();
    }
}
