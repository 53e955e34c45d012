//! `hsconas-perfbench`: runs one benchmark workload from a seed, checks
//! that the program's outputs are correct, and prints every metric by
//! name with its unit. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! hsconas-perfbench --workload <search_real|serve_mixed|infer_batch>
//!     --seed N --seconds S --trace <0|1> [--hsconas PATH] [--out DIR] [--tiny]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no spans recorded.
//! Every workload measures every one of them, each in its own terms:
//! `latency_ms` is the wall time of one operation (a whole search, a
//! request timed from when it was due, a batch of inferences) in the
//! run's least-interfered stretch, since host interference only adds time.
//! `--trace 1` repeats the untraced measurement, then runs a traced one,
//! and reports every per-layer metric (0 where the workload never calls
//! the layer), the unattributed time and the tracing overhead (traced
//! minus untraced, per end-to-end metric). Metric names and units come
//! from `BENCHMARK.json`, compiled in.
//! Any correctness mismatch exits non-zero without a result line.

mod alloc;
mod infer_batch;
mod kernels;
mod search_real;
mod serve;
mod stats;
mod trace;

use hsconas_serve::Json;
use std::os::raw::{c_int, c_long};
use std::path::PathBuf;
use std::time::Duration;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The benchmark's manifest: every run prints exactly its metrics.
const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `hsconas` binary the serve workloads spawn.
    pub hsconas: Option<PathBuf>,
    /// Where spans, provenance and scratch state go.
    pub out: PathBuf,
    /// Smoke-test sizes: tiny inputs, fractions of a second per phase.
    pub tiny: bool,
}

impl Args {
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// A workload's result, before it is printed.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, String)>,
    /// Human-readable accounting (phases, reconciliation), one per line.
    pub notes: Vec<String>,
    pub spans: Vec<trace::Span>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn note(&mut self, line: String) {
        eprintln!("perfbench: {line}");
        self.notes.push(line);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Adds `trace_overhead.<m>` = traced − untraced for each metric of
    /// `traced` that `untraced` also holds.
    pub fn overhead(&mut self, untraced: &Report, traced: &Report) {
        for (name, t, unit) in &traced.metrics {
            if let Some(u) = untraced.get(name) {
                self.note(format!("tracing overhead on {name}: {t} - {u} = {}", t - u));
                self.metric(&format!("trace_overhead.{name}"), t - u, unit);
            }
        }
    }

    /// Reconciles layer self times against the traced wall time: every
    /// span is a layer except the root, whose self time is the gap.
    pub fn reconcile(&mut self, root: &str) {
        let totals = trace::totals(&self.spans);
        let wall = totals.get(root).map_or(0.0, |t| t.total_ms());
        let layers: f64 = totals
            .iter()
            .filter(|(name, _)| name.as_str() != root)
            .map(|(_, t)| t.self_ms())
            .sum();
        for (name, t) in &totals {
            self.notes.push(format!(
                "span {name}: count {} total {:.3} ms self {:.3} ms allocs {}",
                t.count,
                t.total_ms(),
                t.self_ms(),
                t.allocs
            ));
        }
        self.note(format!(
            "reconciliation: wall {wall:.3} ms, sum of layer self times {layers:.3} ms, unattributed {:.3} ms",
            wall - layers
        ));
        self.metric("unattributed_ms", wall - layers, "ms");
    }
}

/// `(name, unit)` of every metric of one kind (`end_to_end` or
/// `per_layer`) in the manifest, in its order.
pub fn declared(kind: &str) -> Vec<(String, String)> {
    let manifest =
        hsconas_serve::json::parse(MANIFEST.as_bytes()).expect("BENCHMARK.json is valid JSON");
    manifest
        .get(kind)
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists the metrics of each kind")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("every metric has a name and a unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Puts a workload's metrics in manifest order and holds them to it. An
/// untraced run must have measured every end-to-end metric, each above
/// zero. A traced run prints every per-layer metric: one the workload
/// did not report belongs to a layer it never calls, and reads 0.
fn complete(report: &mut Report, trace: bool) -> Result<(), String> {
    let kind = if trace { "per_layer" } else { "end_to_end" };
    let declared = declared(kind);
    for (name, _, unit) in &report.metrics {
        match declared.iter().find(|(n, _)| n == name) {
            Some((_, u)) if u == unit => {}
            Some((_, u)) => {
                return Err(format!("{name} is measured in {unit} but declared in {u}"))
            }
            None => return Err(format!("{name} is not a declared {kind} metric")),
        }
    }
    let mut ordered = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        let value = match report.get(&name) {
            Some(v) if trace || v > 0.0 => v,
            Some(v) => return Err(format!("end-to-end metric {name} read {v}")),
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        ordered.push((name, value, unit));
    }
    report.metrics = ordered;
    Ok(())
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let workload = value("--workload").ok_or("--workload is required")?;
    let seed = value("--seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")
        .unwrap_or_else(|| "10".into())
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        hsconas: value("--hsconas").map(PathBuf::from),
        out: PathBuf::from(value("--out").unwrap_or_else(|| ".bench_build/perfbench-out".into())),
        tiny: argv.iter().any(|a| a == "--tiny"),
    })
}

/// Runs the named workload and completes its metrics from the manifest.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = match args.workload.as_str() {
        "search_real" => search_real::run(args),
        "serve_mixed" => serve::run(args),
        "infer_batch" => infer_batch::run(args),
        other => Err(format!("unknown workload '{other}'")),
    }?;
    complete(&mut report, args.trace)?;
    Ok(report)
}

/// Peak resident set (VmHWM) of `pid`, or of this process, in MB.
pub fn vm_hwm_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".into(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
pub struct Timespec {
    pub tv_sec: c_long,
    pub tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    fn sysconf(name: c_int) -> c_long;
}

/// CPU time, user plus system over every thread, that process `pid` has
/// used so far, in seconds; this process's with `None`. Another process's
/// is read from `/proc` in clock ticks, this one's from its CPU clock.
/// 0 if it cannot be read.
pub fn cpu_seconds(pid: Option<u32>) -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    const SC_CLK_TCK: c_int = 2;
    let Some(pid) = pid else {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec that lives for the call.
        let ok = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0;
        return if ok {
            ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
        } else {
            0.0
        };
    };
    // SAFETY: `sysconf` takes a plain integer and touches no memory of ours.
    let ticks_per_s = unsafe { sysconf(SC_CLK_TCK) } as f64;
    if ticks_per_s <= 0.0 {
        return 0.0;
    }
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|stat| {
            // The command name (field 2) is parenthesized and may hold
            // spaces; after it come state (field 3) ... utime (14) and
            // stime (15).
            let rest = &stat[stat.rfind(')')? + 1..];
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = fields.get(11)?.parse().ok()?;
            let stime: f64 = fields.get(12)?.parse().ok()?;
            Some((utime + stime) / ticks_per_s)
        })
        .unwrap_or(0.0)
}

/// FNV-1a over a file's bytes (identifies the spawned binary).
fn file_fingerprint(path: &std::path::Path) -> String {
    match std::fs::read(path) {
        Ok(bytes) => {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            format!("{h:016x}")
        }
        Err(_) => "unreadable".into(),
    }
}

/// Host fingerprint and provenance, as one JSON object.
fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let (avx2, fma) = (
        std::is_x86_feature_detected!("avx2"),
        std::is_x86_feature_detected!("fma"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, fma) = (false, false);
    let git_sha = std::env::var("PERFBENCH_GIT_SHA").unwrap_or_else(|_| "unknown".into());
    let source = std::env::var("PERFBENCH_SOURCE_SHA").unwrap_or_else(|_| "unknown".into());
    let (bin, bin_fp) = match &args.hsconas {
        Some(p) => (p.display().to_string(), file_fingerprint(p)),
        None => ("none".into(), "none".into()),
    };
    format!(
        "{{\"workload\":{:?},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"kernel_variant\":{:?},\"avx2\":{avx2},\"fma\":{fma},\"git_sha\":{git_sha:?},\"source_sha\":{source:?},\"profile\":{:?},\"hsconas_bin\":{bin:?},\"hsconas_bin_fnv\":{bin_fp:?}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        hsconas_tensor::kernels::selected_variant().name(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    )
}

/// The result line the benchmark contract asks for (metrics are finite:
/// `main` refuses to print otherwise).
fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| format!("{name:?}: {{\"value\": {value}, \"unit\": {unit:?}}}"))
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        std::process::exit(2);
    }
    let provenance = provenance(&args);
    println!("{{\"provenance\": {provenance}}}");
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            std::process::exit(1);
        }
    };
    if report.metrics.iter().any(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: FAILED: a metric is not a finite number");
        std::process::exit(1);
    }
    let line = result_line(&report);
    let stem = args.out.join(format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let mut record = format!("{{\"provenance\": {provenance}}}\n");
    for note in &report.notes {
        record.push_str(&format!("{{\"note\": {note:?}}}\n"));
    }
    record.push_str(&line);
    record.push('\n');
    let written = std::fs::write(stem.with_extension("result.jsonl"), record).and_then(|()| {
        if report.spans.is_empty() {
            Ok(())
        } else {
            std::fs::write(
                stem.with_extension("spans.jsonl"),
                trace::to_json_lines(&report.spans),
            )
        }
    });
    if let Err(e) = written {
        eprintln!("perfbench: FAILED: writing the run record: {e}");
        std::process::exit(1);
    }
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsconas_serve::json::parse;
    use std::collections::BTreeSet;
    use std::sync::Mutex;

    /// Smoke runs share the host's two cores; one at a time keeps the
    /// open-loop generator on schedule.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn load(rel: &str) -> Json {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
        parse(&std::fs::read(&path).expect("readable")).expect("valid JSON")
    }

    fn strings(j: Option<&Json>) -> BTreeSet<String> {
        j.and_then(Json::as_arr)
            .expect("an array")
            .iter()
            .map(|v| v.as_str().expect("a string").to_string())
            .collect()
    }

    fn keys(j: Option<&Json>) -> BTreeSet<String> {
        match j {
            Some(Json::Obj(pairs)) => pairs.iter().map(|(k, _)| k.clone()).collect(),
            _ => panic!("an object"),
        }
    }

    fn names(kind: &str) -> BTreeSet<String> {
        declared(kind).into_iter().map(|(n, _)| n).collect()
    }

    /// The per-layer metrics of the layers `workload` calls.
    fn exercised(workload: &str) -> BTreeSet<String> {
        let rationale = load("rationale.json");
        strings(
            rationale
                .get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("per_layer")),
        )
    }

    #[test]
    fn rationale_covers_exactly_the_declared_workloads_and_metrics() {
        let rationale = load("rationale.json");
        let workloads = keys(rationale.get("workloads"));
        let bench_workloads: BTreeSet<String> = load("../BENCHMARK.json")
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, bench_workloads);
        // Every end-to-end metric is defined on every workload.
        let e2e = rationale.get("end_to_end");
        assert_eq!(keys(e2e), names("end_to_end"));
        for metric in names("end_to_end") {
            assert_eq!(
                keys(e2e.and_then(|m| m.get(&metric))),
                workloads,
                "{metric}"
            );
        }
        let union: BTreeSet<String> = workloads.iter().flat_map(|w| exercised(w)).collect();
        assert_eq!(union, names("per_layer"));
        assert_eq!(keys(rationale.get("per_layer")), names("per_layer"));
    }

    #[test]
    fn frozen_serve_parameters_match_the_rationale() {
        let serve = load("rationale.json");
        let serve = serve.get("serve").expect("serve block");
        let num = |k: &str| serve.get(k).and_then(Json::as_f64).expect(k);
        assert_eq!(num("fixed_rps"), serve::FIXED_RPS);
        assert_eq!(num("latency_limit_ms"), serve::LATENCY_LIMIT_MS);
        assert_eq!(
            num("ladder_step_requests") as usize,
            serve::LADDER_STEP_REQUESTS
        );
        let ladder: Vec<f64> = serve
            .get("ladder_rps")
            .and_then(Json::as_arr)
            .expect("ladder")
            .iter()
            .map(|v| v.as_f64().expect("a rate"))
            .collect();
        assert_eq!(ladder, serve::LADDER_RPS.to_vec());
    }

    #[test]
    fn complete_orders_fills_and_refuses() {
        let mut layers = Report::default();
        layers.metric("supernet.train.steps", 3.0, "count");
        complete(&mut layers, true).expect("a declared metric");
        let printed: Vec<&str> = layers.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        let all = declared("per_layer");
        assert_eq!(
            printed,
            all.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()
        );
        assert_eq!(layers.get("supernet.train.steps"), Some(3.0));
        assert_eq!(layers.get("graph.compile.ms_per_call"), Some(0.0));

        let mut wrong_unit = Report::default();
        wrong_unit.metric("supernet.train.steps", 3.0, "ms");
        assert!(complete(&mut wrong_unit, true).is_err());
        let mut undeclared = Report::default();
        undeclared.metric("no.such.metric", 1.0, "ms");
        assert!(complete(&mut undeclared, true).is_err());

        let e2e = declared("end_to_end");
        let mut missing = Report::default();
        for (name, unit) in e2e.iter().skip(1) {
            missing.metric(name, 1.0, unit);
        }
        assert!(complete(&mut missing, false).is_err());
        let mut zero = Report::default();
        for (name, unit) in &e2e {
            zero.metric(name, 0.0, unit);
        }
        assert!(complete(&mut zero, false).is_err());
    }

    fn smoke(workload: &str, trace: bool) -> Report {
        let _serial = SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let out = std::env::temp_dir().join(format!(
            "perfbench-smoke-{}-{workload}-{trace}",
            std::process::id()
        ));
        std::fs::create_dir_all(&out).expect("scratch dir");
        let args = Args {
            workload: workload.into(),
            seed: 5,
            seconds: 0.5,
            trace,
            hsconas: None,
            out: out.clone(),
            tiny: true,
        };
        let report = run(&args).unwrap_or_else(|e| panic!("{workload} trace {trace}: {e}"));
        let _ = std::fs::remove_dir_all(&out);
        // Exactly the declared metrics, each finite.
        let kind = if trace { "per_layer" } else { "end_to_end" };
        let printed: BTreeSet<String> = report.metrics.iter().map(|(n, _, _)| n.clone()).collect();
        assert_eq!(printed, names(kind), "{workload} trace {trace}");
        for (name, value, _) in &report.metrics {
            assert!(value.is_finite(), "{name} = {value}");
        }
        if trace {
            // A layer the workload does not call reads 0.
            let exercised = exercised(workload);
            for (name, value, _) in &report.metrics {
                if !exercised.contains(name) {
                    assert_eq!(*value, 0.0, "{workload}: {name}");
                }
            }
        }
        assert!(report.attempted >= 1);
        report
    }

    #[test]
    fn search_real_smoke() {
        let e2e = smoke("search_real", false);
        assert!(e2e.get("latency_ms").unwrap() > 0.0);
        let layers = smoke("search_real", true);
        assert!(layers.get("supernet.train.steps").unwrap() > 0.0);
    }

    #[test]
    fn infer_batch_smoke() {
        let e2e = smoke("infer_batch", false);
        assert!(e2e.get("latency_ms").unwrap() > 0.0);
        let layers = smoke("infer_batch", true);
        assert_eq!(layers.get("supernet.train.steps"), Some(0.0));
        assert!(layers.get("graph.exec.ms_per_batch").unwrap() > 0.0);
    }

    #[test]
    fn serve_mixed_smoke() {
        let e2e = smoke("serve_mixed", false);
        assert_eq!(e2e.failed, 0);
        assert!(e2e.get("latency_ms").unwrap() > 0.0);
        let layers = smoke("serve_mixed", true);
        assert_eq!(layers.get("supernet.train.steps"), Some(0.0));
        assert_eq!(layers.get("serve.spill_written"), Some(0.0));
        assert!(layers.get("serve.persist.spill_written").unwrap() > 0.0);
    }
}
