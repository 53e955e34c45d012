//! The fleet router: a protocol-transparent front-end that consistent-
//! hashes requests across N `hsconas serve` worker shards.
//!
//! ## Why a router
//!
//! One daemon is one process, one eval queue, one memo cache. The co-design
//! workload shards naturally on `{device, target}`: every expensive input
//! to a request (calibrated predictor, memo cache, EA work) is keyed by
//! that pair, so pinning each pair to one shard keeps the warm state
//! exactly as effective as in the single-daemon case — and keeps the
//! bit-identity contract *fleet-wide*, because a given `{device, target,
//! seed}` search always executes on the same shard.
//!
//! ## Routing
//!
//! * `search` / `score` route on the consistent hash of
//!   `(canonical device, target_ms bits)` — aliases like `edge` and
//!   `edge-xavier` canonicalize first, so they share a shard.
//! * `predict_latency` routes on `(canonical device, 0)` — no target in
//!   the request, and predictions only need the device's warm predictor.
//! * `pareto` routes on the hash of the canonical (sorted, deduped)
//!   device set plus the target bits — any permutation or alias spelling
//!   of the same fleet lands on the same shard, which is what makes the
//!   frontier bytes permutation-invariant through the router.
//! * `infer` routes on the genome, so each shard's compiled-graph cache
//!   accumulates a disjoint slice of the genome space.
//! * `status` is answered by the router itself as a fleet aggregate;
//!   `shutdown` triggers the fleet drain.
//!
//! The ring ([`HashRing`]) places [`VNODES_PER_SHARD`] virtual nodes per
//! shard by hashing `shard:{i}:vnode:{v}` labels — a pure function of the
//! shard *index*, so the key→shard map is identical across router restarts
//! with the same worker list, and growing the fleet from N to N+1 shards
//! remaps only the keys that land on the new shard's vnodes (≈ 1/(N+1)).
//!
//! ## Forwarding, failover, drain
//!
//! The router runs the daemon's transport — the crate's shared `listener`
//! module: one accept loop, one frame loop, one connection writer — and
//! plugs in only what differs: junk frames count as `router.malformed`,
//! and decoded requests are routed. Request lines are forwarded to the
//! owning shard *verbatim* and the shard's response line is relayed back
//! byte-for-byte — the router never re-encodes, so fleet responses are
//! bit-identical to single-daemon responses by construction. Each client
//! connection thread keeps one pooled [`Client`] per shard; on a transport
//! error the router reconnects and resends once (safe: every routed
//! command is a pure read or a deterministic recomputation), and a second
//! failure answers `503` for that request while a background health
//! prober marks the shard down. Requests for healthy shards are
//! completely unaffected — no crosstalk.
//!
//! Drain ordering on `shutdown`: stop admitting (the accept loop stops,
//! and routed requests on connections still open get `503`), wait for
//! in-flight forwards to complete, send `shutdown` to every shard (each
//! drains its own queue before exiting), then return so the CLI can join
//! fleet-spawned worker processes.

use crate::client::Client;
use crate::json::Json;
use crate::listener::{self, ConnWriter, Gate, Service};
use crate::metrics::{count, ServeMetrics, REJECTED, SERVED};
use crate::proto::{Command, Request, Response, CODE_BAD_REQUEST, CODE_OK, CODE_SHUTTING_DOWN};
use hsconas_ckpt::fnv1a;
use hsconas_telemetry::Counter;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Virtual nodes per shard on the hash ring. More vnodes smooth the key
/// distribution; 64 keeps the max/min shard load ratio under ~1.3 for the
/// fleet sizes this serves (2–16) while the ring stays a few KiB.
pub const VNODES_PER_SHARD: usize = 64;

/// Murmur3's 64-bit finalizer. FNV-1a ([`fnv1a`], the workspace's
/// standard content hash, stable across platforms and builds) alone
/// diffuses tail-byte changes poorly into the high bits, which is exactly
/// what ring *ordering* keys on — without this, the vnodes of one shard
/// cluster and shard load skews past 10×. Pure arithmetic, so just as
/// restart-stable as FNV.
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// The consistent-hash ring: a sorted list of `(position, shard)` points.
#[derive(Debug, Clone)]
pub struct HashRing {
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl HashRing {
    /// Builds the ring for `shards` workers with `vnodes` virtual nodes
    /// each. Placement depends only on shard indices, never addresses, so
    /// the same worker-list *order* reproduces the same ring.
    #[must_use]
    pub fn new(shards: usize, vnodes: usize) -> HashRing {
        let shards = shards.max(1);
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(shards * vnodes);
        for s in 0..shards {
            for v in 0..vnodes {
                points.push((mix64(fnv1a(format!("shard:{s}:vnode:{v}").as_bytes())), s));
            }
        }
        points.sort_unstable();
        // A position collision (astronomically unlikely) would make shard
        // choice order-dependent; keep the lower shard index, always.
        points.dedup_by_key(|p| p.0);
        HashRing { points, shards }
    }

    /// Number of shards the ring was built for.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`: the first vnode clockwise from the key's
    /// (finalized) position, wrapping at the top of the u64 circle.
    #[must_use]
    pub fn shard_for(&self, key: u64) -> usize {
        let pos_key = mix64(key);
        let idx = self.points.partition_point(|&(pos, _)| pos < pos_key);
        self.points[if idx == self.points.len() { 0 } else { idx }].1
    }
}

/// The routing key for one command, or `None` for commands the router
/// answers itself (`status`, `shutdown`).
#[must_use]
pub fn route_key(command: &Command) -> Option<u64> {
    match command {
        Command::Status | Command::Shutdown => None,
        Command::PredictLatency { device, .. } => Some(device_target_key(device, 0.0)),
        Command::Score {
            device, target_ms, ..
        }
        | Command::Search {
            device, target_ms, ..
        } => Some(device_target_key(device, *target_ms)),
        Command::Pareto {
            devices, target_ms, ..
        } => Some(device_set_key(devices, *target_ms)),
        Command::Infer { arch, .. } => Some(arch_route_key(arch)),
    }
}

/// Hash of `(canonical sorted deduped device set, target_ms bits)` for
/// `pareto` routing. Aliases canonicalize and the set is sorted and
/// deduped first, so `["gpu","edge"]`, `["edge","gpu-gv100"]`, and
/// `["edge","edge","gpu"]` all produce the same key.
#[must_use]
pub fn device_set_key(devices: &[String], target_ms: f64) -> u64 {
    let mut names: Vec<String> = devices
        .iter()
        .map(|d| {
            hsconas_hwsim::DeviceSpec::by_name(d)
                .map(|spec| spec.name)
                .unwrap_or_else(|| d.clone())
        })
        .collect();
    names.sort();
    names.dedup();
    let mut keyed = Vec::new();
    for name in &names {
        keyed.extend_from_slice(name.as_bytes());
        keyed.push(0xff); // separator: device names never contain 0xff
    }
    keyed.extend_from_slice(&target_ms.to_bits().to_le_bytes());
    fnv1a(&keyed)
}

/// Hash of `(canonical device, target_ms bits)`. Unknown device names hash
/// as spelled — they still route deterministically, and the owning shard
/// answers the 404 (so error bytes match the single-daemon ones too).
#[must_use]
pub fn device_target_key(device: &str, target_ms: f64) -> u64 {
    let canonical = hsconas_hwsim::DeviceSpec::by_name(device).map(|spec| spec.name);
    let name = canonical.as_deref().unwrap_or(device);
    let mut keyed = Vec::with_capacity(name.len() + 9);
    keyed.extend_from_slice(name.as_bytes());
    keyed.push(0xff); // separator: device names never contain 0xff
    keyed.extend_from_slice(&target_ms.to_bits().to_le_bytes());
    fnv1a(&keyed)
}

/// Hash of a wire-encoded genome, for `infer` routing.
#[must_use]
pub fn arch_route_key(arch: &[usize]) -> u64 {
    let mut bytes = Vec::with_capacity(arch.len() * 8);
    for &gene in arch {
        bytes.extend_from_slice(&(gene as u64).to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Bind host.
    pub host: String,
    /// Bind port; 0 picks an ephemeral port.
    pub port: u16,
    /// Worker addresses, in ring order. Order is part of the contract:
    /// the same list order reproduces the same key→shard map.
    pub shards: Vec<String>,
    /// Health-probe interval; 0 disables the prober (requests still fail
    /// over per-call).
    pub health_ms: u64,
    /// Read timeout for one forwarded request (searches can take a while
    /// under the full budget).
    pub shard_timeout_ms: u64,
    /// Whether drain forwards `shutdown` to every shard (true for a fleet
    /// the router owns; false to leave externally managed workers up).
    pub drain_shards: bool,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            host: "127.0.0.1".into(),
            port: 0,
            shards: Vec::new(),
            health_ms: 500,
            shard_timeout_ms: 300_000,
            drain_shards: true,
        }
    }
}

/// Per-shard routing state and counters.
pub struct ShardState {
    /// Worker address (`host:port`).
    pub addr: String,
    /// Requests routed to this shard (attempts, including retries' firsts).
    pub routed: Counter,
    /// Forward attempts that failed once and were resent on a fresh
    /// connection.
    pub retried: Counter,
    /// Requests answered `503` because the resend failed too.
    pub failed: Counter,
}

impl ShardState {
    fn new(addr: String) -> ShardState {
        ShardState {
            addr,
            routed: Counter::register("router.shards.routed"),
            retried: Counter::register("router.shards.retried"),
            failed: Counter::register("router.shards.failed"),
        }
    }
}

struct RouterShared {
    options: RouterOptions,
    ring: HashRing,
    shards: Vec<ShardState>,
    gate: Gate,
    /// Forwards in progress: the drain gate, not a counter.
    in_flight: AtomicU64,
    started: Instant,
    connections: Counter,
    malformed: Counter,
    rejected_draining: Counter,
    health_probes: Counter,
    health_failures: Counter,
    /// Router-side per-command latency histograms (measured around the
    /// full forward hop, so these are the client-visible SLO numbers).
    metrics: ServeMetrics,
}

/// A bound router, ready to [`run`](Router::run).
pub struct Router {
    listener: TcpListener,
    shared: Arc<RouterShared>,
}

impl Router {
    /// Binds the router listener. Does not contact the shards yet — the
    /// first request (or health probe) does.
    ///
    /// # Errors
    ///
    /// Bind errors; [`io::ErrorKind::InvalidInput`] when no shards are
    /// configured.
    pub fn bind(options: RouterOptions) -> io::Result<Router> {
        if options.shards.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one shard address",
            ));
        }
        let listener = TcpListener::bind((options.host.as_str(), options.port))?;
        let addr = listener.local_addr()?;
        let ring = HashRing::new(options.shards.len(), VNODES_PER_SHARD);
        let shards = options
            .shards
            .iter()
            .cloned()
            .map(ShardState::new)
            .collect();
        Ok(Router {
            listener,
            shared: Arc::new(RouterShared {
                options,
                ring,
                shards,
                gate: Gate::new(addr),
                in_flight: AtomicU64::new(0),
                started: Instant::now(),
                connections: Counter::register("router.connections"),
                malformed: Counter::register("router.malformed"),
                rejected_draining: Counter::register("router.rejected_draining"),
                health_probes: Counter::register("router.health.probes"),
                health_failures: Counter::register("router.health.failures"),
                metrics: ServeMetrics::new(),
            }),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.gate.addr()
    }

    /// Serves until a `shutdown` request arrives, then drains: stop
    /// admitting, wait for in-flight forwards, tell every shard to drain
    /// (when [`RouterOptions::drain_shards`]), join the health prober, and
    /// return. A fatal accept error drains the same way before it is
    /// returned.
    ///
    /// # Errors
    ///
    /// Fatal accept-loop I/O errors only.
    pub fn run(self) -> io::Result<()> {
        let shared = self.shared;
        listener::serve(&self.listener, &shared, || {
            // Let in-flight forwards finish writing their responses before
            // the shards are told to exit underneath them.
            let deadline = Instant::now() + Duration::from_millis(shared.options.shard_timeout_ms);
            while shared.in_flight.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(10));
            }
            if shared.options.drain_shards {
                for shard in &shared.shards {
                    drain_shard(shard);
                }
            }
        })
    }
}

impl Service for RouterShared {
    /// One pooled connection per shard, owned by this client connection,
    /// so request/response ordering per shard link is trivially FIFO.
    type Session = HashMap<usize, Client>;
    const NAME: &'static str = "route";

    fn gate(&self) -> &Gate {
        &self.gate
    }

    fn connections(&self) -> &Counter {
        &self.connections
    }

    /// The health prober.
    fn tick_every(&self) -> Option<Duration> {
        let ms = self.options.health_ms;
        (ms > 0).then(|| Duration::from_millis(ms))
    }

    /// One health sweep: a `status` round-trip per shard with a short
    /// timeout.
    fn tick(&self) {
        for shard in &self.shards {
            self.health_probes.incr();
            if probe_status(&shard.addr, Duration::from_millis(2_000)).is_err() {
                self.health_failures.incr();
            }
        }
    }

    fn frame_rejected(&self, conn: &ConnWriter, response: Response) {
        self.malformed.incr();
        conn.send(&response);
    }

    fn request(
        &self,
        conn: &Arc<ConnWriter>,
        pool: &mut HashMap<usize, Client>,
        line: &[u8],
        request: Request,
    ) {
        let _span = hsconas_telemetry::span!("route.request", cmd = request.command.name());
        let Some(key) = route_key(&request.command) else {
            return answer_locally(self, conn, request);
        };
        if self.gate.is_draining() {
            self.rejected_draining.incr();
            let response = Response::fail(request.id, CODE_SHUTTING_DOWN, "router is draining");
            return conn.send(&response);
        }
        let shard_idx = self.ring.shard_for(key);
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        // A line that decoded is valid UTF-8 (the JSON parser validates
        // every string and accepts nothing else outside ASCII), so this
        // borrows the bytes unchanged.
        let reply = forward(
            self,
            pool,
            shard_idx,
            &String::from_utf8_lossy(line),
            &request,
        );
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
        match reply {
            Ok(line) => conn.send_line(line),
            Err(response) => conn.send(&response),
        }
    }
}

/// The commands the router answers itself: `status` as the fleet
/// aggregate, `shutdown` as the fleet drain.
fn answer_locally(shared: &RouterShared, conn: &ConnWriter, request: Request) {
    match request.command {
        Command::Status => {
            let started = Instant::now();
            let status = build_fleet_status(shared);
            shared
                .metrics
                .record_served("status", started.elapsed().as_secs_f64() * 1e3);
            conn.send(&Response::ok(request.id, status));
        }
        Command::Shutdown => {
            shared.metrics.record_served("shutdown", 0.0);
            conn.send(&Response::ok(
                request.id,
                Json::obj(vec![
                    ("draining", Json::Bool(true)),
                    ("workers", Json::Num(shared.shards.len() as f64)),
                ]),
            ));
            shared.gate.begin_shutdown();
        }
        _ => unreachable!("route_key is None only for status/shutdown"),
    }
}

/// A fresh client for the shard at `addr`: resolve, connect within 1 s,
/// and wait up to `timeout` for each reply.
fn dial(addr: &str, timeout: Duration) -> io::Result<Client> {
    let sock_addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable shard addr"))?;
    let stream = TcpStream::connect_timeout(&sock_addr, Duration::from_millis(1_000))?;
    let mut client = Client::from_stream(stream)?;
    client.set_timeout(Some(timeout))?;
    Ok(client)
}

/// Forwards one raw request line to `shard_idx`, relaying the raw reply.
/// On a transport error the pooled connection is dropped and the request
/// resent once on a fresh one; a second failure yields the `503` this
/// returns as `Err`. Resending is safe because every routed command is a
/// pure read or a deterministic recomputation — a duplicated execution
/// produces the same bytes.
fn forward(
    shared: &RouterShared,
    pool: &mut HashMap<usize, Client>,
    shard_idx: usize,
    line: &str,
    request: &Request,
) -> Result<String, Response> {
    let shard = &shared.shards[shard_idx];
    let timeout = Duration::from_millis(shared.options.shard_timeout_ms.max(1));
    shard.routed.incr();
    let started = Instant::now();

    let attempt = |pool: &mut HashMap<usize, Client>| -> io::Result<String> {
        if let Entry::Vacant(slot) = pool.entry(shard_idx) {
            slot.insert(dial(&shard.addr, timeout)?);
        }
        pool.get_mut(&shard_idx)
            .expect("pooled client")
            .call_raw(line)
    };

    let reply = match attempt(pool) {
        Ok(reply) => reply,
        Err(_) => {
            // First failure: the pooled connection may simply be stale
            // (shard restarted since). Reconnect and resend once.
            pool.remove(&shard_idx);
            shard.retried.incr();
            match attempt(pool) {
                Ok(reply) => reply,
                Err(e) => {
                    pool.remove(&shard_idx);
                    shard.failed.incr();
                    shared.metrics.record_rejected(CODE_SHUTTING_DOWN);
                    return Err(Response::fail(
                        request.id.clone(),
                        CODE_SHUTTING_DOWN,
                        format!("shard {shard_idx} ({}) unavailable: {e}", shard.addr),
                    ));
                }
            }
        }
    };
    // Record the router-side latency under the request's own command name
    // so fleet SLOs are measured where the client sees them.
    match Response::decode(reply.as_bytes()) {
        Ok(response) if response.code == CODE_OK => shared.metrics.record_served(
            request.command.name(),
            started.elapsed().as_secs_f64() * 1e3,
        ),
        Ok(response) => shared.metrics.record_rejected(response.code),
        Err(_) => shared.metrics.record_rejected(CODE_BAD_REQUEST),
    }
    Ok(reply)
}

/// A `status` request on a fresh connection, returning the result object.
fn probe_status(addr: &str, timeout: Duration) -> io::Result<Json> {
    dial(addr, timeout)?
        .status()?
        .result
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "status carried no result"))
}

/// Best-effort `shutdown` to one shard during drain.
fn drain_shard(shard: &ShardState) {
    if let Err(e) = dial(&shard.addr, Duration::from_millis(10_000)).and_then(|mut c| c.shutdown())
    {
        // A shard that is already gone does not block fleet drain; the
        // process layer (fleet join) handles stragglers.
        eprintln!("hsconas-route: drain of shard {} skipped: {e}", shard.addr);
    }
}

/// Sums an integer field at `path` across shard status objects.
fn sum_field(statuses: &[Option<Json>], path: [&str; 2]) -> u64 {
    statuses
        .iter()
        .flatten()
        .filter_map(|s| {
            s.get(path[0])
                .and_then(|o| o.get(path[1]))
                .and_then(Json::as_u64)
        })
        .sum()
}

/// The fleet `status` aggregate: router counters and latency histograms,
/// per-shard health + routing counters + the shard's own full status, and
/// fleet-wide served/rejected sums (the soak test's accounting source —
/// `served + overloaded == sent` is checked against these).
fn build_fleet_status(shared: &RouterShared) -> Json {
    let statuses: Vec<Option<Json>> = shared
        .shards
        .iter()
        .map(|shard| probe_status(&shard.addr, Duration::from_millis(5_000)).ok())
        .collect();
    let healthy = statuses.iter().filter(|s| s.is_some()).count();

    // Fleet-wide sums of each shard's `served` / `rejected` objects.
    let fleet_sums = |block: &str, table: &[(&str, &str)]| {
        Json::Obj(
            table
                .iter()
                .map(|(field, _)| {
                    let sum = sum_field(&statuses, [block, field]);
                    ((*field).to_string(), Json::Num(sum as f64))
                })
                .collect(),
        )
    };

    let shard_objs: Vec<Json> = shared
        .shards
        .iter()
        .zip(&statuses)
        .map(|(shard, status)| {
            let mut fields = vec![
                ("addr", Json::Str(shard.addr.clone())),
                ("healthy", Json::Bool(status.is_some())),
                ("routed", count(&shard.routed)),
                ("retried", count(&shard.retried)),
                ("failed", count(&shard.failed)),
            ];
            if let Some(status) = status {
                fields.push(("status", status.clone()));
            }
            Json::obj(fields)
        })
        .collect();

    let total = |cell: fn(&ShardState) -> &Counter| {
        let sum: u64 = shared.shards.iter().map(|s| cell(s).get()).sum();
        Json::Num(sum as f64)
    };

    Json::obj(vec![
        (
            "fleet",
            Json::obj(vec![
                ("workers", Json::Num(shared.shards.len() as f64)),
                ("healthy", Json::Num(healthy as f64)),
                ("served", fleet_sums("served", &SERVED)),
                ("rejected", fleet_sums("rejected", &REJECTED)),
            ]),
        ),
        (
            "router",
            Json::obj(vec![
                (
                    "uptime_ms",
                    Json::Num(shared.started.elapsed().as_millis() as f64),
                ),
                ("draining", Json::Bool(shared.gate.is_draining())),
                ("connections", count(&shared.connections)),
                ("routed", total(|s| &s.routed)),
                ("retried", total(|s| &s.retried)),
                ("failed", total(|s| &s.failed)),
                ("malformed", count(&shared.malformed)),
                ("rejected_draining", count(&shared.rejected_draining)),
                (
                    "health",
                    Json::obj(vec![
                        ("probes", count(&shared.health_probes)),
                        ("failures", count(&shared.health_failures)),
                    ]),
                ),
                ("latency_ms", shared.metrics.latency_json()),
            ]),
        ),
        ("shards", Json::Arr(shard_objs)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{CODE_FRAME_TOO_LARGE, MAX_FRAME_BYTES};
    use crate::{ServeOptions, Server};
    use std::io::{BufRead, BufReader, Write};

    /// A fatal accept error drains like `shutdown` does: `run` returns the
    /// error only after the gate reads draining and the health prober has
    /// joined.
    #[test]
    fn fatal_accept_error_drains_before_returning() {
        // A port nothing listens on, so every health probe fails fast.
        let closed = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .unwrap();
        let router = Router::bind(RouterOptions {
            shards: vec![closed.to_string()],
            health_ms: 5,
            drain_shards: false,
            ..RouterOptions::default()
        })
        .unwrap();
        // Nothing is connecting, so a nonblocking accept fails at once.
        router.listener.set_nonblocking(true).unwrap();
        let shared = Arc::clone(&router.shared);
        let err = router.run().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert!(shared.gate.is_draining());
        // Only this handle is left: the prober let go.
        assert_eq!(Arc::strong_count(&shared), 1);
    }

    /// Through the router, on one connection: a blank line is skipped,
    /// junk gets 400 and an oversized frame 413 (both counted as
    /// `router.malformed`), a routed request is relayed byte-for-byte, and
    /// after `shutdown` the still-open connection gets 503 for routed work.
    #[test]
    fn router_rejects_junk_relays_bytes_and_refuses_work_while_draining() {
        let daemon = Server::bind(ServeOptions::default()).unwrap();
        let daemon_addr = daemon.local_addr();
        let daemon = thread::spawn(move || daemon.run());
        let router = Router::bind(RouterOptions {
            shards: vec![daemon_addr.to_string()],
            health_ms: 0,
            ..RouterOptions::default()
        })
        .unwrap();
        let router_addr = router.local_addr();
        let router = thread::spawn(move || router.run());

        let arch = ["0,9"; 20].join(",");
        let predict =
            format!(r#"{{"id":"p","cmd":"predict_latency","device":"edge","arch":[{arch}]}}"#);
        let direct = Client::connect(daemon_addr)
            .unwrap()
            .call_raw(&predict)
            .unwrap();

        let mut stream = TcpStream::connect(router_addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut next_reply = || {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line.truncate(line.trim_end_matches('\n').len());
            line
        };
        let oversized = "x".repeat(MAX_FRAME_BYTES + 1);
        write!(stream, "\nnot json\n{oversized}\n{predict}\n").unwrap();
        let junk = Response::decode(next_reply().as_bytes()).unwrap();
        assert_eq!(junk.code, CODE_BAD_REQUEST);
        let too_large = Response::decode(next_reply().as_bytes()).unwrap();
        assert_eq!(too_large.code, CODE_FRAME_TOO_LARGE);
        assert_eq!(next_reply(), direct);

        writeln!(stream, r#"{{"id":"s","cmd":"status"}}"#).unwrap();
        let status = Response::decode(next_reply().as_bytes()).unwrap();
        let malformed = status
            .result
            .as_ref()
            .and_then(|s| s.get("router"))
            .and_then(|r| r.get("malformed"))
            .and_then(Json::as_u64);
        assert_eq!(malformed, Some(2));

        Client::connect(router_addr).unwrap().shutdown().unwrap();
        router.join().unwrap().unwrap();
        daemon.join().unwrap().unwrap();
        writeln!(stream, "{predict}").unwrap();
        let refused = Response::decode(next_reply().as_bytes()).unwrap();
        assert_eq!(refused.code, CODE_SHUTTING_DOWN);
        assert_eq!(refused.error.as_deref(), Some("router is draining"));
    }

    #[test]
    fn ring_is_deterministic_across_rebuilds() {
        let a = HashRing::new(4, VNODES_PER_SHARD);
        let b = HashRing::new(4, VNODES_PER_SHARD);
        for i in 0..10_000u64 {
            let key = fnv1a(&i.to_le_bytes());
            assert_eq!(a.shard_for(key), b.shard_for(key));
        }
    }

    #[test]
    fn growing_the_fleet_moves_about_one_over_n_keys() {
        let n = 4;
        let before = HashRing::new(n, VNODES_PER_SHARD);
        let after = HashRing::new(n + 1, VNODES_PER_SHARD);
        let keys = 20_000u64;
        let mut moved = 0usize;
        for i in 0..keys {
            let key = fnv1a(&i.to_le_bytes());
            let (was, now) = (before.shard_for(key), after.shard_for(key));
            if was != now {
                // Consistency: a moved key may only move TO the new shard.
                assert_eq!(now, n, "key moved between old shards: {was} -> {now}");
                moved += 1;
            }
        }
        let expected = keys as f64 / (n + 1) as f64;
        let ratio = moved as f64 / expected;
        assert!(
            (0.5..2.0).contains(&ratio),
            "moved {moved} keys; expected about {expected}"
        );
    }

    #[test]
    fn ring_distributes_keys_reasonably_evenly() {
        let n = 3;
        let ring = HashRing::new(n, VNODES_PER_SHARD);
        let mut counts = vec![0usize; n];
        let keys = 30_000u64;
        for i in 0..keys {
            counts[ring.shard_for(fnv1a(&i.to_le_bytes()))] += 1;
        }
        let (min, max) = (
            *counts.iter().min().unwrap() as f64,
            *counts.iter().max().unwrap() as f64,
        );
        assert!(
            max / min < 2.0,
            "shard load skew too high: {counts:?} (max/min {:.2})",
            max / min
        );
    }

    #[test]
    fn device_aliases_share_a_routing_key() {
        assert_eq!(
            device_target_key("edge", 34.0),
            device_target_key("edge-xavier", 34.0)
        );
        assert_eq!(
            device_target_key("gpu", 9.0),
            device_target_key("gpu-gv100", 9.0)
        );
        assert_ne!(
            device_target_key("edge", 34.0),
            device_target_key("edge", 35.0),
            "targets must shard independently"
        );
        assert_ne!(
            device_target_key("edge", 34.0),
            device_target_key("cpu", 34.0),
            "devices must shard independently"
        );
    }

    #[test]
    fn pareto_routing_is_permutation_and_alias_invariant() {
        let key = |devices: &[&str], target: f64| {
            route_key(&Command::Pareto {
                devices: devices.iter().map(|d| (*d).to_string()).collect(),
                target_ms: target,
                seed: 0,
            })
        };
        let canonical = key(&["cpu-xeon-6136", "edge-xavier", "gpu-gv100"], 24.0);
        assert_eq!(key(&["gpu", "edge", "cpu"], 24.0), canonical);
        assert_eq!(key(&["edge", "cpu", "gpu", "gpu", "edge"], 24.0), canonical);
        assert_ne!(key(&["gpu", "edge"], 24.0), canonical);
        assert_ne!(
            key(&["gpu", "edge", "cpu"], 25.0),
            canonical,
            "targets must shard independently"
        );
        // Seed is deliberately NOT part of the key: same device set, same
        // shard, so differently seeded frontiers share the memo cache.
        assert_eq!(
            route_key(&Command::Pareto {
                devices: vec!["edge".into()],
                target_ms: 24.0,
                seed: 1,
            }),
            route_key(&Command::Pareto {
                devices: vec!["edge".into()],
                target_ms: 24.0,
                seed: 2,
            })
        );
    }

    #[test]
    fn route_keys_cover_every_command() {
        assert!(route_key(&Command::Status).is_none());
        assert!(route_key(&Command::Shutdown).is_none());
        let score = Command::Score {
            device: "edge".into(),
            target_ms: 34.0,
            arch: vec![0, 9],
        };
        let search = Command::Search {
            device: "edge-xavier".into(),
            target_ms: 34.0,
            seed: 7,
        };
        // Score and search for the same {device, target} share a shard, so
        // searches reuse the memo entries scores populated.
        assert_eq!(route_key(&score), route_key(&search));
        let predict = Command::PredictLatency {
            device: "edge".into(),
            arch: vec![0, 9],
        };
        assert!(route_key(&predict).is_some());
        let infer = Command::Infer {
            arch: vec![0, 9, 1, 3],
            input_seed: 0,
            batch: 1,
        };
        let infer2 = Command::Infer {
            arch: vec![0, 9, 1, 4],
            input_seed: 5,
            batch: 2,
        };
        assert!(route_key(&infer).is_some());
        // Same genome, different seed/batch: same shard (cache locality).
        let infer_same_arch = Command::Infer {
            arch: vec![0, 9, 1, 3],
            input_seed: 99,
            batch: 4,
        };
        assert_eq!(route_key(&infer), route_key(&infer_same_arch));
        assert_ne!(route_key(&infer), route_key(&infer2));
    }
}
