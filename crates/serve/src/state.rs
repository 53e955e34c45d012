//! Warm per-device serving state.
//!
//! The expensive part of answering a request is everything that does *not*
//! depend on the request: the search space, the surrogate accuracy oracle,
//! and above all the calibrated latency predictor (Eq. 2 LUT + Eq. 3
//! bias). [`WarmState`] builds that once per device on first touch and
//! keeps it hot:
//!
//! * **Snapshot persistence** — with a `--state-dir`, a freshly calibrated
//!   predictor is exported to `<dir>/<device>.predictor.json` via the
//!   crash-safe [`hsconas_ckpt::write_atomic_bytes`], and later server
//!   starts load it back instead of recalibrating.
//! * **Hot reload** — [`WarmState::poll_reload`] watches each snapshot
//!   file's mtime; a changed file is re-read and validated through
//!   [`LatencyPredictor::from_snapshot`], which refuses any LUT whose key
//!   set is foreign to the search space. A rejected snapshot is loud (one
//!   stderr line + a counter) and the previous predictor stays in service.
//! * **Cross-request dedup** — evaluation memo caches
//!   ([`SharedEvalCache`]) are keyed by `(predictor version, target_ms
//!   bits)`: an `Evaluation` embeds the Eq. 1 score, which depends on both
//!   the LUT contents and the target, so sharing across either boundary
//!   would serve wrong bytes. A successful reload bumps the version and
//!   drops the old caches; in-flight work keeps its `Arc` to the old
//!   predictor and stays internally consistent.
//! * **Generation stamps** — the per-process `version` counter cannot
//!   name a predictor across processes (two shards loading the same
//!   snapshot would both say 0). [`DeviceState::lut_generation`] is the
//!   FNV-1a hash of the serialized predictor export: a pure function of
//!   the LUT contents, so every shard of a fleet reports the same stamp
//!   for the same snapshot and a `--lut-watch-ms` rollout can be observed
//!   converging shard by shard without mixing generations.
//! * **Persistent spill tier** — with a `--state-dir`, memo caches spill
//!   to `<dir>/spill/<device>.t<target>.g<generation>.evals` through the
//!   same crash-safe atomic writer, and a fresh cache for that exact
//!   `(device, target, generation)` preloads the file. Values are pure
//!   functions of the fingerprint given the generation and target, so a
//!   preloaded hit returns exactly what recomputation would — restarts
//!   (and sibling shards sharing the dir) skip the work without risking
//!   the determinism contract.

use crate::listener::lock;
use hsconas_accuracy::{AccuracyModel, SurrogateAccuracy};
use hsconas_evo::{tradeoff_score, Evaluation, EvoError, SharedEvalCache};
use hsconas_hwsim::DeviceSpec;
use hsconas_latency::{LatencyPredictor, PredictorSnapshot};
use hsconas_space::{Arch, SearchSpace};
use hsconas_telemetry::Counter;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

/// Eq. 1 trade-off coefficient used by the serving layer; matches
/// `TradeoffObjective::DEFAULT_BETA` so served scores equal pipeline scores.
pub const BETA: f64 = -20.0;

/// How much work a request is allowed to cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Small calibration (20 archs x 2 repeats) and a short EA
    /// (8 generations, population 20). Answers in milliseconds; the
    /// default, and what the protocol tests run.
    Fast,
    /// Paper-scale EA (20 generations, population 50) and a denser
    /// calibration (100 archs x 5 repeats).
    Full,
}

impl Budget {
    /// Parses the CLI/wire spelling.
    pub fn parse(s: &str) -> Option<Budget> {
        match s {
            "fast" => Some(Budget::Fast),
            "full" => Some(Budget::Full),
            _ => None,
        }
    }

    /// The wire spelling.
    pub fn name(self) -> &'static str {
        match self {
            Budget::Fast => "fast",
            Budget::Full => "full",
        }
    }

    /// `(calibration archs, repeats per arch)` for Eq. 3.
    pub fn calibration(self) -> (usize, usize) {
        match self {
            Budget::Fast => (20, 2),
            Budget::Full => (100, 5),
        }
    }

    /// EA hyper-parameters for `search` requests.
    pub fn evolution_config(self) -> hsconas_evo::EvolutionConfig {
        match self {
            Budget::Fast => hsconas_evo::EvolutionConfig {
                generations: 8,
                population: 20,
                parents: 8,
                ..Default::default()
            },
            Budget::Full => hsconas_evo::EvolutionConfig::default(),
        }
    }
}

/// Server configuration, filled by the `hsconas serve` CLI.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind host.
    pub host: String,
    /// Bind port; 0 picks an ephemeral port (printed on startup).
    pub port: u16,
    /// Directory for predictor snapshots; `None` disables persistence and
    /// hot reload.
    pub state_dir: Option<PathBuf>,
    /// Per-request work budget.
    pub budget: Budget,
    /// Evaluation queue bound; pushes beyond it get `429 overloaded`.
    pub queue_capacity: usize,
    /// Threads draining the evaluation queue.
    pub eval_workers: usize,
    /// `hsconas_par` pool width used inside one batch evaluation
    /// (0 = process default).
    pub pool_threads: usize,
    /// Most queued jobs merged into one micro-batch.
    pub batch_max: usize,
    /// Snapshot-file poll interval for hot reload; 0 disables the watcher.
    pub lut_watch_ms: u64,
    /// Devices to warm up (calibrate/load) before accepting connections.
    pub preload: Vec<String>,
    /// Seed for predictor calibration; fixed so restarts predict
    /// identically.
    pub calibration_seed: u64,
    /// Test hook: sleep this long per evaluation batch so the soak test
    /// can fill the queue deterministically. 0 in production.
    pub slow_eval_ms: u64,
    /// Optional precomputed `.hsbt` bench table; covered `predict_latency`
    /// and `score` requests answer O(1) from it instead of the queue.
    pub bench_table: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            host: "127.0.0.1".into(),
            port: 0,
            state_dir: None,
            budget: Budget::Fast,
            queue_capacity: 64,
            eval_workers: 2,
            pool_threads: 0,
            batch_max: 16,
            lut_watch_ms: 0,
            preload: Vec::new(),
            calibration_seed: 2021,
            slow_eval_ms: 0,
            bench_table: None,
        }
    }
}

/// Serving-layer failure, mapped to a protocol response code by the server.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The request named a device this build does not model.
    UnknownDevice(String),
    /// Anything else — surfaces as `500 internal`.
    Internal(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownDevice(name) => write!(
                f,
                "unknown device '{name}' (known: gpu, cpu, edge, or their full names)"
            ),
            ServeError::Internal(detail) => write!(f, "{detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Everything needed to evaluate one batch consistently: the predictor
/// generation the batch saw at admission to execution, and the memo cache
/// shared by every request against that `(version, target)` pair.
pub struct EvalContext {
    /// The predictor to read latencies from.
    pub predictor: Arc<LatencyPredictor>,
    /// The cross-request memo cache for this `(predictor, target)`.
    pub cache: SharedEvalCache,
    /// Latency target in milliseconds.
    pub target_ms: f64,
}

/// Spill a cache once it has grown by this many entries since its last
/// spill (the drain path spills any growth regardless).
const SPILL_EVERY: usize = 64;

/// Per-cache spill bookkeeping: the generation the cache was created
/// under (spills must never write old entries under a newer generation's
/// filename) and the entry count already on disk.
#[derive(Clone, Copy)]
struct SpillMeta {
    generation: u64,
    last_spilled: usize,
}

/// Warm state for one device.
pub struct DeviceState {
    /// Canonical device name (e.g. `edge-xavier`).
    pub name: String,
    /// The search space served for this device.
    pub space: SearchSpace,
    oracle: SurrogateAccuracy,
    predictor: Mutex<Arc<LatencyPredictor>>,
    /// Bumped on every successful hot reload.
    version: AtomicU64,
    /// Content hash of the live predictor (see module docs); updated
    /// together with `version` on reload.
    lut_generation: AtomicU64,
    /// Memo caches keyed by `(predictor version, target_ms.to_bits())`.
    caches: Mutex<HashMap<(u64, u64), SharedEvalCache>>,
    /// Spill bookkeeping per cache key; cleared with the caches on reload.
    spill_meta: Mutex<HashMap<(u64, u64), SpillMeta>>,
    /// Spill-file directory; `None` disables the persistent tier.
    spill_dir: Option<PathBuf>,
    snapshot_path: Option<PathBuf>,
    snapshot_mtime: Mutex<Option<SystemTime>>,
    /// Successful hot reloads.
    pub reloads_ok: Counter,
    /// Snapshot files refused by validation (stale/foreign/corrupt).
    pub reloads_rejected: Counter,
    /// Evaluations preloaded from spill files into fresh caches.
    pub spill_loaded: Counter,
    /// New evaluations written out to spill files.
    pub spill_written: Counter,
}

impl DeviceState {
    /// The current predictor reload count (0 until the first reload).
    /// Process-local — use [`DeviceState::lut_generation`] to compare
    /// predictors across shards.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// The content-hash generation stamp of the live predictor.
    pub fn lut_generation(&self) -> u64 {
        self.lut_generation.load(Ordering::Acquire)
    }

    /// A consistent `(predictor, cache)` pair for evaluating against
    /// `target_ms`. Concurrent callers with the same target and predictor
    /// generation share one cache — that is the cross-request dedup. A
    /// cache's first touch preloads its spill file, when the tier is on.
    pub fn eval_context(&self, target_ms: f64) -> EvalContext {
        let (predictor, version) = {
            let guard = lock(&self.predictor);
            (Arc::clone(&guard), self.version())
        };
        let key = (version, target_ms.to_bits());
        let mut caches = lock(&self.caches);
        let cache = match caches.entry(key) {
            std::collections::hash_map::Entry::Occupied(slot) => slot.get().clone(),
            std::collections::hash_map::Entry::Vacant(slot) => {
                let cache = SharedEvalCache::default();
                let generation = self.lut_generation();
                let mut on_disk = 0usize;
                if let Some(dir) = &self.spill_dir {
                    let path = spill_path(dir, &self.name, key.1, generation);
                    if let Some(entries) = read_spill(&path, &self.name, key.1, generation) {
                        on_disk = entries.len();
                        self.spill_loaded.add(on_disk as u64);
                        cache.import_entries(entries);
                    }
                }
                lock(&self.spill_meta).insert(
                    key,
                    SpillMeta {
                        generation,
                        last_spilled: on_disk,
                    },
                );
                slot.insert(cache).clone()
            }
        };
        drop(caches);
        EvalContext {
            predictor,
            cache,
            target_ms,
        }
    }

    /// Spills caches that accumulated at least `SPILL_EVERY` new
    /// entries since their last spill. Returns new entries persisted.
    pub fn spill_tick(&self) -> usize {
        self.spill(false)
    }

    /// Spills every cache with any unpersisted entries (the drain path).
    pub fn spill_all(&self) -> usize {
        self.spill(true)
    }

    fn spill(&self, force: bool) -> usize {
        let Some(dir) = &self.spill_dir else { return 0 };
        let snapshot: Vec<((u64, u64), SharedEvalCache)> = lock(&self.caches)
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        let mut written = 0usize;
        for (key, cache) in snapshot {
            // A missing meta entry means a reload retired this cache
            // between the snapshot and now — its entries belong to a dead
            // generation, so skip rather than pollute the new one's file.
            let Some(meta) = lock(&self.spill_meta).get(&key).copied() else {
                continue;
            };
            let len = cache.len();
            let grown = len.saturating_sub(meta.last_spilled);
            if grown == 0 || (!force && grown < SPILL_EVERY) {
                continue;
            }
            let entries = cache.export_entries();
            let path = spill_path(dir, &self.name, key.1, meta.generation);
            match write_spill(&path, &self.name, key.1, meta.generation, &entries) {
                Ok(()) => {
                    written += grown;
                    if let Some(m) = lock(&self.spill_meta).get_mut(&key) {
                        m.last_spilled = m.last_spilled.max(entries.len());
                    }
                }
                Err(e) => eprintln!(
                    "hsconas-serve: spill of {} entries to {} failed: {e}",
                    entries.len(),
                    path.display()
                ),
            }
        }
        self.spill_written.add(written as u64);
        written
    }

    /// Eq. 2 prediction for one architecture (no queueing — reads only).
    ///
    /// # Errors
    ///
    /// Returns the underlying space error text if `arch` does not fit the
    /// device's space.
    pub fn predict_ms(&self, arch: &Arch) -> Result<(f64, f64), String> {
        let predictor = Arc::clone(&lock(&self.predictor));
        let ms = predictor.predict_ms(arch).map_err(|e| e.to_string())?;
        Ok((ms, predictor.bias_us()))
    }

    /// Raw (accuracy, latency_ms) for one architecture via the live oracle
    /// and predictor — exactly the numbers the [`Self::evaluator`] closure
    /// computes, so bench-table rows built from this are bit-identical to
    /// live evaluations.
    ///
    /// # Errors
    ///
    /// Returns the oracle or predictor error text.
    pub fn measure(&self, arch: &Arch) -> Result<(f64, f64), String> {
        let accuracy = self.oracle.accuracy(arch).map_err(|e| e.to_string())?;
        let predictor = Arc::clone(&lock(&self.predictor));
        let latency_ms = predictor.predict_ms(arch).map_err(|e| e.to_string())?;
        Ok((accuracy, latency_ms))
    }

    /// Decodes and validates a wire-encoded architecture against this
    /// device's space.
    ///
    /// # Errors
    ///
    /// Returns a client-facing message when the genome is malformed or
    /// outside the space.
    pub fn decode_arch(&self, encoded: &[usize]) -> Result<Arch, String> {
        let arch = Arch::decode(encoded).map_err(|e| e.to_string())?;
        if arch.genes().len() != self.space.num_layers() {
            return Err(format!(
                "arch has {} layers; this space has {}",
                arch.genes().len(),
                self.space.num_layers()
            ));
        }
        if !self.space.contains(&arch) {
            return Err("arch uses an op/scale outside the served search space".into());
        }
        Ok(arch)
    }

    /// LUT entry count and bias of the live predictor, for `status`.
    pub fn predictor_stats(&self) -> (usize, f64) {
        let predictor = lock(&self.predictor);
        (predictor.lut().len(), predictor.bias_us())
    }

    /// Total memoized evaluations across the live caches, for `status`.
    pub fn cached_evaluations(&self) -> usize {
        lock(&self.caches).values().map(SharedEvalCache::len).sum()
    }

    /// Builds the Eq. 1 evaluation closure for `ctx`. The closure is pure
    /// and `Sync`, so [`hsconas_evo::ParallelObjective`] may fan it out.
    pub fn evaluator(
        self: &Arc<Self>,
        ctx: &EvalContext,
    ) -> impl Fn(&Arch) -> Result<Evaluation, EvoError> + Sync + 'static {
        let device = Arc::clone(self);
        let predictor = Arc::clone(&ctx.predictor);
        let target_ms = ctx.target_ms;
        move |arch: &Arch| {
            let accuracy = device
                .oracle
                .accuracy(arch)
                .map_err(|e| EvoError::Objective {
                    detail: e.to_string(),
                })?;
            let latency_ms = predictor.predict_ms(arch).map_err(EvoError::Space)?;
            Ok(Evaluation {
                score: tradeoff_score(accuracy, latency_ms, target_ms, BETA),
                accuracy,
                latency_ms,
            })
        }
    }

    /// Re-reads the snapshot file if its mtime changed; swaps the
    /// predictor on success, keeps the old one (and counts the rejection)
    /// on any failure.
    fn maybe_reload(&self) {
        let Some(path) = &self.snapshot_path else {
            return;
        };
        let Ok(meta) = std::fs::metadata(path) else {
            return; // File gone — keep serving the in-memory predictor.
        };
        let mtime = meta.modified().ok();
        {
            let mut last = lock(&self.snapshot_mtime);
            if *last == mtime {
                return;
            }
            // Record before validating so a bad file is reported once, not
            // on every poll tick.
            *last = mtime;
        }
        match load_snapshot(path, &self.name, &self.space) {
            Ok(predictor) => {
                let generation = predictor_generation(&predictor);
                *lock(&self.predictor) = Arc::new(predictor);
                self.lut_generation.store(generation, Ordering::Release);
                self.version.fetch_add(1, Ordering::AcqRel);
                // Old-version caches would serve latencies from the
                // replaced LUT; drop them all (and their spill meta, so a
                // racing spill cannot write old entries under the new
                // generation's filename).
                lock(&self.caches).clear();
                lock(&self.spill_meta).clear();
                self.reloads_ok.incr();
                eprintln!(
                    "hsconas-serve: reloaded predictor snapshot for {} from {}",
                    self.name,
                    path.display()
                );
            }
            Err(detail) => {
                self.reloads_rejected.incr();
                eprintln!(
                    "hsconas-serve: REFUSED predictor snapshot for {} from {}: {detail}",
                    self.name,
                    path.display()
                );
            }
        }
    }
}

fn load_snapshot(
    path: &Path,
    device_name: &str,
    space: &SearchSpace,
) -> Result<LatencyPredictor, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    let snapshot: PredictorSnapshot =
        serde_json::from_str(&text).map_err(|e| format!("parse failed: {e}"))?;
    let device = DeviceSpec::by_name(device_name).ok_or_else(|| "unknown device".to_string())?;
    LatencyPredictor::from_snapshot(device, space, snapshot).map_err(|e| e.to_string())
}

/// The generation stamp for a predictor: FNV-1a over a canonical
/// rendering of its export, with the rendered lines sorted as text — the
/// stamp must be a pure function of the LUT *contents* for every process
/// that loads (or deterministically calibrates) the same predictor to
/// compute the same value. The export is already in key order; the text
/// sort stays so stamps, spill file names and `.hsbt` stamps written
/// earlier keep their values.
fn predictor_generation(predictor: &LatencyPredictor) -> u64 {
    let snapshot = predictor.export();
    let mut lines: Vec<String> = snapshot
        .lut
        .entries
        .iter()
        .map(|(k, v)| {
            format!(
                "{} {:?} {} {} {:016x}",
                k.layer,
                k.op,
                k.c_in,
                k.c_out,
                v.to_bits()
            )
        })
        .collect();
    lines.sort_unstable();
    let mut canon = format!(
        "{} {:016x} {:016x} {}\n",
        snapshot.lut.device_name,
        snapshot.lut.stem_us.to_bits(),
        snapshot.bias_us.to_bits(),
        snapshot.calibration_samples
    );
    for line in &lines {
        canon.push_str(line);
        canon.push('\n');
    }
    hsconas_ckpt::fnv1a(canon.as_bytes())
}

/// Spill-file path for one `(device, target, generation)` cache. All
/// three identities are in the name, so files from different targets or
/// LUT generations can never be confused.
fn spill_path(dir: &Path, device: &str, target_bits: u64, generation: u64) -> PathBuf {
    dir.join(format!(
        "{device}.t{target_bits:016x}.g{generation:016x}.evals"
    ))
}

fn spill_header(device: &str, target_bits: u64, generation: u64) -> String {
    format!("hsconas-evals v1 {device} t{target_bits:016x} g{generation:016x}")
}

/// Reads and validates one spill file; `None` for absent, foreign, or
/// corrupt files (the cache then simply starts cold — the tier is an
/// optimization, never a correctness dependency).
///
/// Format: one header line, then one `fp score acc lat` line per entry,
/// each field the 16-hex-digit bit pattern of its u64/f64. Bit patterns
/// rather than decimal floats because a decimal roundtrip that loses one
/// ulp would change served score bytes after a restart.
fn read_spill(
    path: &Path,
    device: &str,
    target_bits: u64,
    generation: u64,
) -> Option<Vec<(u64, Evaluation)>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut lines = text.lines();
    if lines.next()? != spill_header(device, target_bits, generation) {
        return None;
    }
    let mut entries = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split(' ').map(|f| u64::from_str_radix(f, 16).ok());
        let fingerprint = fields.next()??;
        let score = f64::from_bits(fields.next()??);
        let accuracy = f64::from_bits(fields.next()??);
        let latency_ms = f64::from_bits(fields.next()??);
        if fields.next().is_some() {
            return None;
        }
        entries.push((
            fingerprint,
            Evaluation {
                score,
                accuracy,
                latency_ms,
            },
        ));
    }
    Some(entries)
}

/// Read-merge-write of one spill file: the on-disk result is the union of
/// the existing file (when it validates) and `entries`, written through
/// the crash-safe atomic writer so sibling shards sharing the directory
/// see either the old or the new complete file, never a torn one. The
/// union is value-safe because entries are pure functions of their
/// fingerprint for this `(device, target, generation)`.
fn write_spill(
    path: &Path,
    device: &str,
    target_bits: u64,
    generation: u64,
    entries: &[(u64, Evaluation)],
) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create spill dir: {e}"))?;
    }
    let mut merged: std::collections::BTreeMap<u64, Evaluation> =
        read_spill(path, device, target_bits, generation)
            .unwrap_or_default()
            .into_iter()
            .collect();
    merged.extend(entries.iter().copied());
    let mut out = spill_header(device, target_bits, generation);
    out.push('\n');
    for (fingerprint, eval) in &merged {
        use std::fmt::Write;
        let _ = writeln!(
            out,
            "{fingerprint:016x} {:016x} {:016x} {:016x}",
            eval.score.to_bits(),
            eval.accuracy.to_bits(),
            eval.latency_ms.to_bits()
        );
    }
    hsconas_ckpt::write_atomic_bytes(path, out.as_bytes()).map_err(|e| e.to_string())
}

/// The full warm state: options plus lazily-built per-device entries.
pub struct WarmState {
    options: ServeOptions,
    devices: Mutex<HashMap<String, Arc<DeviceState>>>,
    graphs: Mutex<HashMap<Vec<usize>, Arc<hsconas_graph::Artifact>>>,
}

/// Compiled-artifact cache bound: past this many distinct genomes an
/// arbitrary entry is evicted (compiling is cheap; the cache exists to
/// make the *repeated*-genome path fast).
const MAX_CACHED_GRAPHS: usize = 64;

impl WarmState {
    /// Creates an empty warm state.
    pub fn new(options: ServeOptions) -> WarmState {
        WarmState {
            options,
            devices: Mutex::new(HashMap::new()),
            graphs: Mutex::new(HashMap::new()),
        }
    }

    /// The compiled artifact for `encoded`, building it on first touch
    /// against the tiny skeleton with the default deterministic
    /// provenance (so identical genomes produce identical artifacts on
    /// every server). Returns the artifact and whether it was a cache hit.
    ///
    /// # Errors
    ///
    /// Returns a client-safe message if the genome does not decode or does
    /// not fit the skeleton.
    pub fn compiled_graph(
        &self,
        encoded: &[usize],
    ) -> Result<(Arc<hsconas_graph::Artifact>, bool), String> {
        let mut graphs = lock(&self.graphs);
        if let Some(art) = graphs.get(encoded) {
            return Ok((Arc::clone(art), true));
        }
        let arch = Arch::decode(encoded).map_err(|e| format!("bad arch: {e}"))?;
        let skeleton = hsconas_space::NetworkSkeleton::tiny(10);
        if arch.len() != skeleton.num_layers() {
            return Err(format!(
                "genome has {} layers but the infer skeleton searches {}",
                arch.len(),
                skeleton.num_layers()
            ));
        }
        let opts = hsconas_graph::CompileOptions::default();
        let (artifact, _stats) =
            hsconas_graph::compile(&skeleton, &arch, &opts).map_err(|e| e.to_string())?;
        if graphs.len() >= MAX_CACHED_GRAPHS {
            if let Some(key) = graphs.keys().next().cloned() {
                graphs.remove(&key);
            }
        }
        let artifact = Arc::new(artifact);
        graphs.insert(encoded.to_vec(), Arc::clone(&artifact));
        Ok((artifact, false))
    }

    /// Distinct genomes in the compiled-artifact cache (for `status`).
    pub fn graphs_cached(&self) -> usize {
        lock(&self.graphs).len()
    }

    /// The options this state was built with.
    pub fn options(&self) -> &ServeOptions {
        &self.options
    }

    /// Returns the warm state for `name`, building it on first touch:
    /// load the snapshot from the state dir if one validates, otherwise
    /// calibrate (deterministically, from `calibration_seed`) and persist.
    ///
    /// Building holds the device-map lock — concurrent first touches of
    /// different devices serialize, which is acceptable because fast-budget
    /// calibration takes milliseconds and happens once per device.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownDevice`] for names outside the model set;
    /// [`ServeError::Internal`] if calibration itself fails.
    pub fn device(&self, name: &str) -> Result<Arc<DeviceState>, ServeError> {
        let spec =
            DeviceSpec::by_name(name).ok_or_else(|| ServeError::UnknownDevice(name.into()))?;
        let canonical = spec.name.clone();
        let mut devices = lock(&self.devices);
        if let Some(state) = devices.get(&canonical) {
            return Ok(Arc::clone(state));
        }
        let state = Arc::new(self.build_device(spec)?);
        devices.insert(canonical, Arc::clone(&state));
        Ok(state)
    }

    fn build_device(&self, spec: DeviceSpec) -> Result<DeviceState, ServeError> {
        let space = SearchSpace::hsconas_a();
        let oracle = SurrogateAccuracy::new(space.skeleton().clone());
        let snapshot_path = self
            .options
            .state_dir
            .as_ref()
            .map(|dir| dir.join(format!("{}.predictor.json", spec.name)));

        let mut loaded = None;
        if let Some(path) = &snapshot_path {
            if path.exists() {
                match load_snapshot(path, &spec.name, &space) {
                    Ok(predictor) => {
                        let mtime = std::fs::metadata(path).and_then(|m| m.modified()).ok();
                        loaded = Some((predictor, mtime));
                    }
                    Err(detail) => eprintln!(
                        "hsconas-serve: ignoring stale predictor snapshot {}: {detail}",
                        path.display()
                    ),
                }
            }
        }

        let (predictor, mtime) = match loaded {
            Some(pair) => pair,
            None => {
                let (m, repeats) = self.options.budget.calibration();
                let mut rng = StdRng::seed_from_u64(self.options.calibration_seed);
                let predictor =
                    LatencyPredictor::calibrate(spec.clone(), &space, m, repeats, &mut rng)
                        .map_err(|e| ServeError::Internal(format!("calibration failed: {e}")))?;
                let mtime = match &snapshot_path {
                    Some(path) => persist_snapshot(path, &predictor),
                    None => None,
                };
                (predictor, mtime)
            }
        };

        Ok(DeviceState {
            name: spec.name,
            space,
            oracle,
            lut_generation: AtomicU64::new(predictor_generation(&predictor)),
            predictor: Mutex::new(Arc::new(predictor)),
            version: AtomicU64::new(0),
            caches: Mutex::new(HashMap::new()),
            spill_meta: Mutex::new(HashMap::new()),
            spill_dir: self.options.state_dir.as_ref().map(|d| d.join("spill")),
            snapshot_path,
            snapshot_mtime: Mutex::new(mtime),
            reloads_ok: Counter::register("serve.devices.reloads_ok"),
            reloads_rejected: Counter::register("serve.devices.reloads_rejected"),
            spill_loaded: Counter::register("serve.devices.spill.loaded"),
            spill_written: Counter::register("serve.devices.spill.written"),
        })
    }

    /// All devices built so far, name-sorted (for deterministic `status`).
    pub fn loaded(&self) -> Vec<Arc<DeviceState>> {
        let mut all: Vec<_> = lock(&self.devices).values().cloned().collect();
        all.sort_by(|a, b| a.name.cmp(&b.name));
        all
    }

    /// One hot-reload poll tick over every loaded device.
    pub fn poll_reload(&self) {
        for device in self.loaded() {
            device.maybe_reload();
        }
    }

    /// One spill tick over every loaded device (called between
    /// evaluation batches). Returns new entries persisted.
    pub fn spill_tick(&self) -> usize {
        self.loaded().iter().map(|d| d.spill_tick()).sum()
    }

    /// Spills everything unpersisted on every device (the drain path).
    pub fn spill_all(&self) -> usize {
        self.loaded().iter().map(|d| d.spill_all()).sum()
    }
}

fn persist_snapshot(path: &Path, predictor: &LatencyPredictor) -> Option<SystemTime> {
    if let Some(dir) = path.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!(
                "hsconas-serve: cannot create state dir {}: {e}",
                dir.display()
            );
            return None;
        }
    }
    let json = match serde_json::to_string(&predictor.export()) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("hsconas-serve: cannot serialize predictor snapshot: {e}");
            return None;
        }
    };
    if let Err(e) = hsconas_ckpt::write_atomic_bytes(path, json.as_bytes()) {
        eprintln!(
            "hsconas-serve: cannot persist predictor snapshot {}: {e}",
            path.display()
        );
        return None;
    }
    std::fs::metadata(path).and_then(|m| m.modified()).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options_with_dir(dir: &Path) -> ServeOptions {
        ServeOptions {
            state_dir: Some(dir.to_path_buf()),
            ..ServeOptions::default()
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hsconas-serve-state-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn unknown_device_is_typed() {
        let state = WarmState::new(ServeOptions::default());
        match state.device("tpu") {
            Err(ServeError::UnknownDevice(name)) => assert_eq!(name, "tpu"),
            Err(other) => panic!("expected UnknownDevice, got {other:?}"),
            Ok(_) => panic!("expected UnknownDevice, got a device"),
        }
    }

    #[test]
    fn calibration_is_persisted_and_reused() {
        let dir = temp_dir("persist");
        let state = WarmState::new(options_with_dir(&dir));
        let device = state.device("edge").unwrap();
        let (entries, bias) = device.predictor_stats();
        assert!(entries > 0);
        let path = dir.join("edge-xavier.predictor.json");
        assert!(path.exists(), "snapshot should be persisted");

        // A second warm state must load the file, not recalibrate — same
        // bias bits proves it is the same snapshot.
        let state2 = WarmState::new(options_with_dir(&dir));
        let device2 = state2.device("edge-xavier").unwrap();
        let (entries2, bias2) = device2.predictor_stats();
        assert_eq!(entries, entries2);
        assert_eq!(bias.to_bits(), bias2.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eval_contexts_share_caches_per_target_only() {
        let state = WarmState::new(ServeOptions::default());
        let device = state.device("edge").unwrap();
        let a = device.eval_context(24.0);
        let b = device.eval_context(24.0);
        let c = device.eval_context(30.0);
        let arch = device.space.sample(&mut StdRng::seed_from_u64(7));
        let eval = device.evaluator(&a);
        let mut memo = hsconas_evo::MemoObjective::with_shared_cache(
            hsconas_evo::ParallelObjective::new(eval, 1),
            a.cache.clone(),
        );
        use hsconas_evo::Objective;
        memo.evaluate(&arch).unwrap();
        assert_eq!(a.cache.len(), 1);
        assert_eq!(b.cache.len(), 1, "same target shares the cache");
        assert_eq!(c.cache.len(), 0, "different target must not");
    }

    #[test]
    fn hot_reload_swaps_predictor_and_refuses_foreign_snapshot() {
        let dir = temp_dir("reload");
        let state = WarmState::new(options_with_dir(&dir));
        let device = state.device("edge").unwrap();
        let path = dir.join("edge-xavier.predictor.json");
        let (_, bias_before) = device.predictor_stats();

        // Rewrite the snapshot with a shifted bias: must be accepted.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut snapshot: PredictorSnapshot = serde_json::from_str(&text).unwrap();
        snapshot.bias_us += 500.0;
        bump_mtime(&path, &serde_json::to_string(&snapshot).unwrap());
        state.poll_reload();
        let (_, bias_after) = device.predictor_stats();
        assert_eq!(device.version(), 1);
        assert_eq!(device.reloads_ok.get(), 1);
        assert!((bias_after - bias_before - 500.0).abs() < 1e-9);

        // Corrupt the file: must be refused, predictor unchanged.
        bump_mtime(&path, "{ not json");
        state.poll_reload();
        assert_eq!(device.version(), 1, "rejected reload must not bump version");
        assert_eq!(device.reloads_rejected.get(), 1);
        let (_, bias_kept) = device.predictor_stats();
        assert_eq!(bias_kept.to_bits(), bias_after.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lut_generation_is_stable_across_processes_and_content_sensitive() {
        let dir = temp_dir("generation");
        let state = WarmState::new(options_with_dir(&dir));
        let g1 = state.device("edge").unwrap().lut_generation();
        assert_ne!(g1, 0);

        // A second warm state over the same snapshot — the "other shard"
        // case — must compute the identical stamp.
        let state2 = WarmState::new(options_with_dir(&dir));
        assert_eq!(state2.device("edge").unwrap().lut_generation(), g1);

        // A different predictor (shifted bias) must stamp differently,
        // and a reload must adopt the new stamp.
        let path = dir.join("edge-xavier.predictor.json");
        let mut snapshot: PredictorSnapshot =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        snapshot.bias_us += 125.0;
        bump_mtime(&path, &serde_json::to_string(&snapshot).unwrap());
        state.poll_reload();
        let g2 = state.device("edge").unwrap().lut_generation();
        assert_ne!(g2, g1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Evaluates one arch through the memo path, filling `ctx.cache`.
    fn evaluate_one(device: &Arc<DeviceState>, ctx: &EvalContext, seed: u64) -> Evaluation {
        use hsconas_evo::Objective;
        let arch = device.space.sample(&mut StdRng::seed_from_u64(seed));
        let mut memo = hsconas_evo::MemoObjective::with_shared_cache(
            hsconas_evo::ParallelObjective::new(device.evaluator(ctx), 1),
            ctx.cache.clone(),
        );
        memo.evaluate(&arch).unwrap()
    }

    #[test]
    fn spill_tier_roundtrips_bit_exactly() {
        let dir = temp_dir("spill");
        let evals: Vec<Evaluation> = {
            let state = WarmState::new(options_with_dir(&dir));
            let device = state.device("edge").unwrap();
            let ctx = device.eval_context(24.0);
            let evals = (0..5).map(|s| evaluate_one(&device, &ctx, s)).collect();
            assert_eq!(ctx.cache.len(), 5);
            // Below SPILL_EVERY growth: a tick must not spill, the drain
            // path must.
            assert_eq!(device.spill_tick(), 0);
            assert_eq!(device.spill_all(), 5);
            assert_eq!(device.spill_written.get(), 5);
            assert_eq!(device.spill_all(), 0, "nothing new since last spill");
            evals
        };

        // A fresh process preloads the spilled entries and returns the
        // exact same bits without recomputation.
        let state = WarmState::new(options_with_dir(&dir));
        let device = state.device("edge").unwrap();
        let ctx = device.eval_context(24.0);
        assert_eq!(ctx.cache.len(), 5, "fresh cache must preload the spill");
        assert_eq!(device.spill_loaded.get(), 5);
        for (seed, before) in evals.iter().enumerate() {
            let after = evaluate_one(&device, &ctx, seed as u64);
            assert_eq!(before.score.to_bits(), after.score.to_bits());
            assert_eq!(before.latency_ms.to_bits(), after.latency_ms.to_bits());
        }
        assert_eq!(ctx.cache.len(), 5, "all five were memo hits");

        // A different target must not see the file.
        let other = device.eval_context(30.0);
        assert_eq!(other.cache.len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_refuses_foreign_or_corrupt_files() {
        let dir = temp_dir("spill-foreign");
        let spill = dir.join("spill");
        std::fs::create_dir_all(&spill).unwrap();
        let state = WarmState::new(options_with_dir(&dir));
        let device = state.device("edge").unwrap();
        let generation = device.lut_generation();
        let target_bits = 24.0f64.to_bits();

        // A file named for this cache but carrying a mismatched header
        // generation (e.g. clobbered by an older shard) must be ignored.
        let path = spill_path(&spill, "edge-xavier", target_bits, generation);
        std::fs::write(
            &path,
            format!(
                "{}\n{:016x} {:016x} {:016x} {:016x}\n",
                spill_header("edge-xavier", target_bits, generation ^ 1),
                7u64,
                1.0f64.to_bits(),
                0.9f64.to_bits(),
                20.0f64.to_bits()
            ),
        )
        .unwrap();
        assert_eq!(device.eval_context(24.0).cache.len(), 0);

        // Corrupt entry lines invalidate the whole file — half a cache
        // would be fine, but trusting a file that failed validation once
        // is how subtle corruption spreads.
        std::fs::write(
            &path,
            format!(
                "{}\nnot hex at all\n",
                spill_header("edge-xavier", target_bits, generation)
            ),
        )
        .unwrap();
        assert!(read_spill(&path, "edge-xavier", target_bits, generation).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writes `contents` and nudges mtime forward so a poll sees a change
    /// even on filesystems with coarse timestamps.
    fn bump_mtime(path: &Path, contents: &str) {
        std::fs::write(path, contents).unwrap();
        // Coarse-mtime filesystems may not register back-to-back writes;
        // retry with small sleeps until the mtime actually moves.
        let before = std::fs::metadata(path).and_then(|m| m.modified()).ok();
        for _ in 0..50 {
            std::thread::sleep(std::time::Duration::from_millis(20));
            std::fs::write(path, contents).unwrap();
            let now = std::fs::metadata(path).and_then(|m| m.modified()).ok();
            if now != before {
                return;
            }
        }
    }
}
