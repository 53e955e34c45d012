//! The `hsconas` command-line tool: run searches, regenerate the
//! comparison table, and re-measure saved models without writing code.
//!
//! ```text
//! hsconas search --device edge --target-ms 34 [--layout a|b] [--seed N] [--fast] [--out FILE] [--telemetry RUN.jsonl]
//! hsconas table [--fast] [--seed N] [--out FILE] [--telemetry RUN.jsonl]
//! hsconas baselines
//! hsconas measure --model FILE
//! hsconas report RUN.jsonl
//! ```
//!
//! `--telemetry PATH` streams a JSONL event log of the run (spans, metric
//! flushes) to `PATH`; `hsconas report PATH` renders it as per-phase
//! summary tables. Requires a build with the `telemetry` feature (default).

use hsconas::checkpoint::inspect_checkpoint;
use hsconas::persist::{load_json, save_json, SavedModel};
use hsconas::{
    render_table, search_for_device_checkpointed, table_one, CheckpointOptions, PipelineConfig,
};
use hsconas_accuracy::{AccuracyModel, SurrogateAccuracy};
use hsconas_hwsim::{lower_arch, DeviceSpec};
use hsconas_latency::LatencyPredictor;
use hsconas_space::{ChannelLayout, NetworkSkeleton, SearchSpace};
use hsconas_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One subcommand: its entry point and every argument it reads.
struct Subcommand {
    name: &'static str,
    run: fn(&[String]) -> Result<(), String>,
    /// Flags that take a value, space-separated.
    values: &'static str,
    /// Flags that stand alone, space-separated.
    switches: &'static str,
    /// Positional arguments it takes, at most.
    positionals: usize,
}

const fn sub(
    name: &'static str,
    run: fn(&[String]) -> Result<(), String>,
    values: &'static str,
    switches: &'static str,
    positionals: usize,
) -> Subcommand {
    Subcommand {
        name,
        run,
        values,
        switches,
        positionals,
    }
}

const SEARCH_VALUES: &str =
    "--device --target-ms --layout --seed --out --telemetry --checkpoint --keep-last";
const SERVE_VALUES: &str = "--host --port --state-dir --budget --devices --queue-cap \
    --eval-workers --pool-threads --batch-max --lut-watch-ms --calibration-seed \
    --test-slow-eval-ms --bench-table --telemetry --fleet --workers \
    --fleet-startup-timeout-ms --health-ms --shard-timeout-ms";
const BENCH_TABLE_VALUES: &str =
    "--out --samples --seed --devices --state-dir --budget --calibration-seed --telemetry";
const CLIENT_VALUES: &str =
    "--addr --device --devices --target-ms --seed --arch --input-seed --batch";
const COMPILE_VALUES: &str = "--arch -o --out --skeleton --classes --seed --warmup --telemetry";

const SUBCOMMANDS: &[Subcommand] = &[
    sub("search", cmd_search, SEARCH_VALUES, "--fast --resume", 0),
    sub("table", cmd_table, "--seed --out --telemetry", "--fast", 0),
    sub("baselines", |_| cmd_baselines(), "", "", 0),
    sub("measure", cmd_measure, "--model", "", 0),
    sub("profile", cmd_profile, "--device --out --seed", "", 0),
    sub("report", cmd_report, "", "", 1),
    sub("ckpt", cmd_ckpt, "", "", 2),
    sub("serve", cmd_serve, SERVE_VALUES, "--drain-workers", 0),
    sub("bench-table", cmd_bench_table, BENCH_TABLE_VALUES, "", 0),
    sub("client", cmd_client, CLIENT_VALUES, "", 1),
    sub("compile", cmd_compile, COMPILE_VALUES, "--widest", 0),
    sub(
        "infer",
        cmd_infer,
        "--input-seed --batch --telemetry",
        "",
        1,
    ),
    sub(
        "compare",
        cmd_compare,
        "--input-seed --batch --tolerance --telemetry",
        "",
        1,
    ),
];

impl Subcommand {
    fn takes_value(&self, arg: &str) -> bool {
        self.values.split_whitespace().any(|f| f == arg)
    }

    fn is_switch(&self, arg: &str) -> bool {
        self.switches.split_whitespace().any(|f| f == arg)
    }

    /// Refuses any argument this subcommand does not read: an unknown or
    /// misspelt flag, a value flag with no value, or one positional
    /// argument too many. Without this a typo silently runs the default.
    fn check(&self, args: &[String]) -> Result<(), String> {
        let mut positionals = 0;
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            if self.takes_value(arg) {
                if rest.next().is_none() {
                    return Err(format!("{arg} needs a value"));
                }
            } else if self.is_switch(arg) {
                continue;
            } else if !arg.starts_with('-') && positionals < self.positionals {
                positionals += 1;
            } else {
                return Err(format!("unknown argument '{arg}' for '{}'", self.name));
            }
        }
        Ok(())
    }
}

/// The running subcommand, so that [`flag`] and [`has_flag`] can assert
/// in debug builds that every name they read is declared in
/// [`SUBCOMMANDS`], which [`Subcommand::check`] trusts.
static RUNNING: std::sync::OnceLock<&Subcommand> = std::sync::OnceLock::new();

fn declared(name: &str) -> bool {
    RUNNING
        .get()
        .is_none_or(|c| c.takes_value(name) || c.is_switch(name))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args
        .first()
        .and_then(|name| SUBCOMMANDS.iter().find(|c| c.name == name.as_str()))
    else {
        usage();
    };
    if let Err(e) = command.check(&args[1..]) {
        eprintln!("error: {e}");
        usage();
    }
    RUNNING.get_or_init(|| command);
    if let Err(e) = (command.run)(&args[1..]) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Prints the usage summary and exits with status 2.
fn usage() -> ! {
    eprintln!(
        "usage: hsconas <search|table|baselines|measure|report|ckpt|serve|bench-table|client|compile|infer|compare> [options]\n\
         \n\
         search    --device gpu|cpu|edge --target-ms N [--layout a|b] [--seed N] [--fast] [--out FILE] [--telemetry RUN.jsonl]\n\
         \x20         [--checkpoint DIR] [--resume] [--keep-last K]\n\
         table     [--fast] [--seed N] [--out FILE] [--telemetry RUN.jsonl]\n\
         baselines\n\
         measure   --model FILE\n\
         profile   --device gpu|cpu|edge --out FILE [--seed N]\n\
         report    RUN.jsonl\n\
         ckpt      inspect FILE\n\
         serve     [--host H] [--port N] [--state-dir DIR] [--budget fast|full] [--devices a,b]\n\
         \x20         [--queue-cap N] [--eval-workers N] [--pool-threads N] [--batch-max N]\n\
         \x20         [--lut-watch-ms N] [--bench-table FILE] [--telemetry RUN.jsonl]\n\
         \x20         [--fleet N | --workers H:P,H:P,...] [--health-ms N]\n\
         \x20         [--shard-timeout-ms N] [--drain-workers]\n\
         bench-table --out FILE [--devices a,b,c] [--samples N] [--seed N] [--state-dir DIR]\n\
         \x20         [--budget fast|full] [--calibration-seed N]\n\
         client    --addr HOST:PORT <status|shutdown|predict|score|search|pareto|infer> [--device D]\n\
         \x20         [--devices a,b,c] [--target-ms N] [--seed N] [--arch 0,9,1,3,...]\n\
         \x20         [--input-seed N] [--batch N]\n\
         compile   (--arch 0,9,1,3,... | --widest) -o model.hsart [--skeleton tiny|imagenet-a|imagenet-b]\n\
         \x20         [--classes N] [--seed N] [--warmup N]\n\
         infer     model.hsart [--input-seed N] [--batch N]\n\
         compare   model.hsart [--input-seed N] [--batch N] [--tolerance X]"
    );
    std::process::exit(2);
}

fn flag(args: &[String], name: &str) -> Option<String> {
    debug_assert!(declared(name), "flag {name} is not declared");
    args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
}

fn has_flag(args: &[String], name: &str) -> bool {
    debug_assert!(declared(name), "switch {name} is not declared");
    args.iter().any(|a| a == name)
}

/// Installs the JSONL telemetry sink when `--telemetry PATH` is given.
/// The returned guard flushes metrics and closes the log when dropped, so
/// hold it for the duration of the command. A `None` means telemetry was
/// not requested; a request against a telemetry-disabled build warns and
/// continues (observability must never fail the run).
fn telemetry_from_args(args: &[String]) -> Option<hsconas_telemetry::FlushGuard> {
    let path = flag(args, "--telemetry")?;
    match hsconas_telemetry::init_jsonl(&path) {
        Ok(guard) => Some(guard),
        Err(e) => {
            eprintln!("warning: --telemetry disabled: {e}");
            None
        }
    }
}

fn device_by_name(name: &str) -> Result<DeviceSpec, String> {
    DeviceSpec::by_name(name)
        .ok_or_else(|| format!("unknown device '{name}' (use gpu|cpu|edge or a full name)"))
}

fn cmd_search(args: &[String]) -> Result<(), String> {
    let device_name = flag(args, "--device").ok_or("--device is required")?;
    let device = device_by_name(&device_name)?;
    let target_ms: f64 = flag(args, "--target-ms")
        .ok_or("--target-ms is required")?
        .parse()
        .map_err(|e| format!("--target-ms: {e}"))?;
    let layout = match flag(args, "--layout").as_deref() {
        None | Some("a") => ChannelLayout::A,
        Some("b") => ChannelLayout::B,
        Some(other) => return Err(format!("unknown layout '{other}' (use a|b)")),
    };
    let seed: u64 = flag(args, "--seed")
        .map(|s| s.parse().map_err(|e| format!("--seed: {e}")))
        .transpose()?
        .unwrap_or(2021);
    let config = if has_flag(args, "--fast") {
        PipelineConfig::fast_test()
    } else {
        PipelineConfig::default()
    };
    let _telemetry = telemetry_from_args(args);
    let space = SearchSpace::full(NetworkSkeleton::imagenet(layout));
    let mut rng = StdRng::seed_from_u64(seed);
    let ckpt = checkpoint_options_from_args(args)?;
    let outcome = search_for_device_checkpointed(
        space.clone(),
        device.clone(),
        target_ms,
        &config,
        &mut rng,
        ckpt.as_ref(),
    )
    .map_err(|e| e.to_string())?;
    let oracle = SurrogateAccuracy::new(space.skeleton().clone());
    let top1 = oracle
        .top1_error(&outcome.best_arch)
        .map_err(|e| e.to_string())?;
    println!("architecture : {}", outcome.best_arch);
    println!("top-1 error  : {top1:.1}%");
    println!(
        "latency      : {:.1} ms on {} (target {target_ms} ms)",
        outcome.best.latency_ms, device.name
    );
    println!("objective F  : {:.2}", outcome.best.score);
    if let Some(path) = flag(args, "--out") {
        let saved = SavedModel {
            name: format!("search-{device_name}-{target_ms}ms"),
            target_device: device.name.clone(),
            target_ms,
            arch: outcome.best_arch,
            top1_error: top1,
            latency_ms: outcome.best.latency_ms,
            seed,
        };
        save_json(&saved, &path).map_err(|e| e.to_string())?;
        println!("saved        : {path}");
    }
    Ok(())
}

/// Parses `--checkpoint DIR [--resume] [--keep-last K]` into
/// [`CheckpointOptions`] (`None` when `--checkpoint` is absent).
fn checkpoint_options_from_args(args: &[String]) -> Result<Option<CheckpointOptions>, String> {
    let Some(dir) = flag(args, "--checkpoint") else {
        if has_flag(args, "--resume") {
            return Err("--resume requires --checkpoint DIR".into());
        }
        return Ok(None);
    };
    let mut opts = CheckpointOptions::new(dir).resume(has_flag(args, "--resume"));
    if let Some(k) = flag(args, "--keep-last") {
        opts = opts.keep_last(k.parse().map_err(|e| format!("--keep-last: {e}"))?);
    }
    Ok(Some(opts))
}

/// `hsconas ckpt inspect FILE`: print a checkpoint file's self-describing
/// header (format version, phase, cursor, config hash) after verifying
/// its payload checksum.
fn cmd_ckpt(args: &[String]) -> Result<(), String> {
    match (args.first().map(String::as_str), args.get(1)) {
        (Some("inspect"), Some(path)) => {
            let report = inspect_checkpoint(std::path::Path::new(path))?;
            println!("{report}");
            Ok(())
        }
        _ => Err("usage: hsconas ckpt inspect FILE".into()),
    }
}

/// `hsconas serve`: run the search-as-a-service daemon until a client
/// sends `shutdown`. Prints the bound address on stdout before accepting,
/// so scripts (and the protocol tests) can discover an ephemeral port.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use hsconas_serve::{Budget, ServeOptions, Server};

    let parse_num = |name: &str, default: u64| -> Result<u64, String> {
        flag(args, name)
            .map(|s| s.parse().map_err(|e| format!("{name}: {e}")))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let fleet_workers = parse_num("--fleet", 0)? as usize;
    let attach = flag(args, "--workers").map(|s| {
        s.split(',')
            .map(|a| a.trim().to_string())
            .collect::<Vec<_>>()
    });
    if fleet_workers > 0 && attach.is_some() {
        return Err("--fleet and --workers are mutually exclusive".into());
    }
    if fleet_workers > 0 || attach.is_some() {
        return cmd_serve_fleet(args, fleet_workers, attach);
    }
    let defaults = ServeOptions::default();
    let options = ServeOptions {
        host: flag(args, "--host").unwrap_or(defaults.host),
        port: parse_num("--port", 0)? as u16,
        state_dir: flag(args, "--state-dir").map(std::path::PathBuf::from),
        budget: match flag(args, "--budget") {
            None => Budget::Fast,
            Some(s) => {
                Budget::parse(&s).ok_or_else(|| format!("unknown budget '{s}' (use fast|full)"))?
            }
        },
        queue_capacity: parse_num("--queue-cap", defaults.queue_capacity as u64)? as usize,
        eval_workers: parse_num("--eval-workers", defaults.eval_workers as u64)? as usize,
        pool_threads: parse_num("--pool-threads", defaults.pool_threads as u64)? as usize,
        batch_max: parse_num("--batch-max", defaults.batch_max as u64)? as usize,
        lut_watch_ms: parse_num("--lut-watch-ms", defaults.lut_watch_ms)?,
        preload: flag(args, "--devices")
            .map(|s| s.split(',').map(str::to_string).collect())
            .unwrap_or_default(),
        calibration_seed: parse_num("--calibration-seed", defaults.calibration_seed)?,
        slow_eval_ms: parse_num("--test-slow-eval-ms", 0)?,
        bench_table: flag(args, "--bench-table").map(std::path::PathBuf::from),
    };
    let _telemetry = telemetry_from_args(args);
    let server = Server::bind(options).map_err(|e| e.to_string())?;
    println!("hsconas-serve listening on {}", server.local_addr());
    use std::io::Write;
    std::io::stdout().flush().ok();
    server.run().map_err(|e| e.to_string())
}

/// `hsconas bench-table`: precompute a `.hsbt` table of per-device
/// latencies plus proxy accuracy over a sampled subspace, using exactly
/// the warm state (calibration seed, snapshot dir, budget) a server with
/// the same flags would build — so a server pointed at the artifact via
/// `--bench-table` answers covered requests bit-identically to live
/// evaluation.
fn cmd_bench_table(args: &[String]) -> Result<(), String> {
    use hsconas_serve::{BenchTable, Budget, ServeOptions, TableDevice, TableEntry, WarmState};

    let out = flag(args, "--out").ok_or("--out FILE is required")?;
    let samples: usize = flag(args, "--samples")
        .map(|s| s.parse().map_err(|e| format!("--samples: {e}")))
        .transpose()?
        .unwrap_or(64);
    let seed: u64 = flag(args, "--seed")
        .map(|s| s.parse().map_err(|e| format!("--seed: {e}")))
        .transpose()?
        .unwrap_or(2021);
    let device_names: Vec<String> = flag(args, "--devices")
        .unwrap_or_else(|| "gpu,cpu,edge".into())
        .split(',')
        .map(|d| d.trim().to_string())
        .filter(|d| !d.is_empty())
        .collect();
    if device_names.is_empty() {
        return Err("--devices must name at least one device".into());
    }
    let defaults = ServeOptions::default();
    let options = ServeOptions {
        state_dir: flag(args, "--state-dir").map(std::path::PathBuf::from),
        budget: match flag(args, "--budget") {
            None => Budget::Fast,
            Some(s) => {
                Budget::parse(&s).ok_or_else(|| format!("unknown budget '{s}' (use fast|full)"))?
            }
        },
        calibration_seed: flag(args, "--calibration-seed")
            .map(|s| s.parse().map_err(|e| format!("--calibration-seed: {e}")))
            .transpose()?
            .unwrap_or(defaults.calibration_seed),
        ..defaults
    };
    let _telemetry = telemetry_from_args(args);
    let state = WarmState::new(options);
    let mut devices = Vec::new();
    for name in &device_names {
        devices.push(state.device(name).map_err(|e| e.to_string())?);
    }
    // Canonical column order: sorted by canonical name, aliases deduped —
    // the same normalization the serve router applies to device sets.
    devices.sort_by(|a, b| a.name.cmp(&b.name));
    devices.dedup_by(|a, b| a.name == b.name);
    let columns: Vec<TableDevice> = devices
        .iter()
        .map(|d| {
            let (_, bias_us) = d.predictor_stats();
            TableDevice {
                name: d.name.clone(),
                lut_generation: d.lut_generation(),
                bias_us,
            }
        })
        .collect();
    let mut table = BenchTable::new(seed, samples as u64, columns);
    let space = devices[0].space.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    for arch in space.sample_n(samples, &mut rng) {
        let fingerprint = hsconas_serve::router::arch_route_key(&arch.encode());
        if table.get(fingerprint).is_some() {
            continue; // duplicate samples collapse onto one row
        }
        let mut accuracy = 0.0;
        let mut latencies_ms = Vec::with_capacity(devices.len());
        for (i, device) in devices.iter().enumerate() {
            let (acc, lat) = device
                .measure(&arch)
                .map_err(|e| format!("{}: {e}", device.name))?;
            if i == 0 {
                accuracy = acc;
            }
            latencies_ms.push(lat);
        }
        table.insert(
            fingerprint,
            TableEntry {
                accuracy,
                latencies_ms,
            },
        );
    }
    table
        .save(std::path::Path::new(&out))
        .map_err(|e| e.to_string())?;
    println!(
        "devices      : {}",
        table
            .devices
            .iter()
            .map(|d| d.name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "rows         : {} (from {samples} samples, seed {seed})",
        table.len()
    );
    println!("saved        : {out}");
    Ok(())
}

/// `hsconas serve --fleet N` / `--workers A,B`: run the routing front-end
/// over a sharded worker fleet. In `--fleet` mode the router spawns and
/// owns N worker processes (this same binary, ephemeral ports) and drains
/// them on shutdown; in `--workers` attach mode it routes to externally
/// managed daemons and leaves them running unless `--drain-workers` is
/// passed. Either way the stdout greeting is byte-identical to the
/// single-daemon one so scripts don't care which mode they got.
fn cmd_serve_fleet(
    args: &[String],
    fleet_workers: usize,
    attach: Option<Vec<String>>,
) -> Result<(), String> {
    use hsconas_serve::{Fleet, FleetOptions, Router, RouterOptions};

    let parse_num = |name: &str, default: u64| -> Result<u64, String> {
        flag(args, name)
            .map(|s| s.parse().map_err(|e| format!("{name}: {e}")))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let _telemetry = telemetry_from_args(args);
    let mut fleet: Option<Fleet> = None;
    let shards = match attach {
        Some(addrs) => addrs,
        None => {
            // Forward only the worker-relevant serve flags; the router-level
            // flags (and --port, which the fleet pins to 0) stay here.
            let mut worker_args = Vec::new();
            for name in [
                "--host",
                "--state-dir",
                "--budget",
                "--devices",
                "--queue-cap",
                "--eval-workers",
                "--pool-threads",
                "--batch-max",
                "--lut-watch-ms",
                "--calibration-seed",
                "--test-slow-eval-ms",
                "--bench-table",
            ] {
                if let Some(value) = flag(args, name) {
                    worker_args.push(name.to_string());
                    worker_args.push(value);
                }
            }
            let program = std::env::current_exe()
                .map_err(|e| format!("cannot locate own binary for fleet spawn: {e}"))?;
            let spawned = Fleet::spawn(&FleetOptions {
                program,
                workers: fleet_workers,
                worker_args,
                startup_timeout_ms: parse_num("--fleet-startup-timeout-ms", 60_000)?,
            })
            .map_err(|e| e.to_string())?;
            eprintln!(
                "hsconas-route: {} worker(s) up: {}",
                spawned.addrs().len(),
                spawned.addrs().join(", ")
            );
            let addrs = spawned.addrs().to_vec();
            fleet = Some(spawned);
            addrs
        }
    };
    let defaults = RouterOptions::default();
    let options = RouterOptions {
        host: flag(args, "--host").unwrap_or(defaults.host),
        port: parse_num("--port", 0)? as u16,
        shards,
        health_ms: parse_num("--health-ms", defaults.health_ms)?,
        shard_timeout_ms: parse_num("--shard-timeout-ms", defaults.shard_timeout_ms)?,
        drain_shards: fleet.is_some() || has_flag(args, "--drain-workers"),
    };
    let router = Router::bind(options).map_err(|e| e.to_string())?;
    println!("hsconas-serve listening on {}", router.local_addr());
    use std::io::Write;
    std::io::stdout().flush().ok();
    let run = router.run().map_err(|e| e.to_string());
    if let Some(mut fleet) = fleet {
        let killed = fleet.wait_exit(std::time::Duration::from_secs(30));
        if killed > 0 {
            eprintln!("hsconas-route: killed {killed} straggler worker(s)");
        }
    }
    run
}

/// `hsconas client`: one request against a running daemon, response
/// pretty-printed to stdout. Exits nonzero on any non-200 response so
/// shell scripts can branch on it.
fn cmd_client(args: &[String]) -> Result<(), String> {
    use hsconas_serve::client::render_pretty;
    use hsconas_serve::{Client, Command};

    let addr = flag(args, "--addr").ok_or("--addr HOST:PORT is required")?;
    // The command is the first positional token; every client flag takes a
    // value, so skip flags two tokens at a time.
    let mut cmd = None;
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            i += 2;
        } else {
            cmd = Some(args[i].clone());
            break;
        }
    }
    let cmd = cmd.ok_or(
        "usage: hsconas client --addr HOST:PORT <status|shutdown|predict|score|search|pareto|infer>",
    )?;
    let device = || flag(args, "--device").ok_or("--device is required".to_string());
    let target_ms = || -> Result<f64, String> {
        flag(args, "--target-ms")
            .ok_or("--target-ms is required")?
            .parse()
            .map_err(|e| format!("--target-ms: {e}"))
    };
    let arch = || -> Result<Vec<usize>, String> {
        flag(args, "--arch")
            .ok_or("--arch is required (comma-separated genome)")?
            .split(',')
            .map(|g| g.trim().parse().map_err(|e| format!("--arch: {e}")))
            .collect()
    };
    let command = match cmd.as_str() {
        "status" => Command::Status,
        "shutdown" => Command::Shutdown,
        "predict" | "predict_latency" => Command::PredictLatency {
            device: device()?,
            arch: arch()?,
        },
        "score" => Command::Score {
            device: device()?,
            target_ms: target_ms()?,
            arch: arch()?,
        },
        "search" => Command::Search {
            device: device()?,
            target_ms: target_ms()?,
            seed: flag(args, "--seed")
                .map(|s| s.parse().map_err(|e| format!("--seed: {e}")))
                .transpose()?
                .unwrap_or(0),
        },
        "pareto" => Command::Pareto {
            devices: flag(args, "--devices")
                .ok_or("--devices is required (comma-separated device names)")?
                .split(',')
                .map(|d| d.trim().to_string())
                .filter(|d| !d.is_empty())
                .collect(),
            target_ms: target_ms()?,
            seed: flag(args, "--seed")
                .map(|s| s.parse().map_err(|e| format!("--seed: {e}")))
                .transpose()?
                .unwrap_or(0),
        },
        "infer" => Command::Infer {
            arch: arch()?,
            input_seed: flag(args, "--input-seed")
                .map(|s| s.parse().map_err(|e| format!("--input-seed: {e}")))
                .transpose()?
                .unwrap_or(0),
            batch: flag(args, "--batch")
                .map(|s| s.parse().map_err(|e| format!("--batch: {e}")))
                .transpose()?
                .unwrap_or(1),
        },
        other => return Err(format!("unknown client command '{other}'")),
    };
    let mut client = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client
        .set_timeout(Some(std::time::Duration::from_secs(300)))
        .map_err(|e| e.to_string())?;
    let response = client.call(command).map_err(|e| e.to_string())?;
    match (&response.result, &response.error) {
        (Some(result), _) => println!("{}", render_pretty(result)),
        (None, Some(error)) => return Err(format!("{} {error}", response.code)),
        (None, None) => return Err(format!("{} (empty response)", response.code)),
    }
    Ok(())
}

/// Shared by the graph subcommands: `--skeleton tiny|imagenet-a|imagenet-b`
/// (default tiny, whose class count `--classes` overrides).
fn skeleton_from_args(args: &[String]) -> Result<NetworkSkeleton, String> {
    let classes: usize = flag(args, "--classes")
        .map(|s| s.parse().map_err(|e| format!("--classes: {e}")))
        .transpose()?
        .unwrap_or(10);
    match flag(args, "--skeleton").as_deref() {
        None | Some("tiny") => Ok(NetworkSkeleton::tiny(classes)),
        Some("imagenet-a") => Ok(NetworkSkeleton::imagenet(ChannelLayout::A)),
        Some("imagenet-b") => Ok(NetworkSkeleton::imagenet(ChannelLayout::B)),
        Some(other) => Err(format!(
            "unknown skeleton '{other}' (use tiny|imagenet-a|imagenet-b)"
        )),
    }
}

/// First non-flag token: the artifact path for `infer` / `compare`.
fn artifact_path(args: &[String]) -> Result<String, String> {
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            i += 2;
        } else {
            return Ok(args[i].clone());
        }
    }
    Err("an artifact path is required".into())
}

/// Seeded synthetic input batch matching an artifact's input geometry.
fn synthetic_input(args: &[String], art: &hsconas_graph::Artifact) -> Result<Tensor, String> {
    let input_seed: u64 = flag(args, "--input-seed")
        .map(|s| s.parse().map_err(|e| format!("--input-seed: {e}")))
        .transpose()?
        .unwrap_or(0);
    let batch: usize = flag(args, "--batch")
        .map(|s| s.parse().map_err(|e| format!("--batch: {e}")))
        .transpose()?
        .unwrap_or(1);
    let g = &art.graph;
    let mut rng = hsconas_tensor::rng::SmallRng::new(input_seed);
    Ok(Tensor::randn(
        [batch, g.input_c, g.input_h, g.input_w],
        1.0,
        &mut rng,
    ))
}

/// `hsconas compile`: lower a genome into an optimized graph artifact.
fn cmd_compile(args: &[String]) -> Result<(), String> {
    use hsconas_graph::{artifact, compile, CompileOptions};
    use hsconas_space::Arch;

    let skeleton = skeleton_from_args(args)?;
    let out = flag(args, "-o")
        .or_else(|| flag(args, "--out"))
        .ok_or("-o FILE is required")?;
    let arch = if has_flag(args, "--widest") {
        Arch::widest(skeleton.num_layers())
    } else {
        let encoded: Vec<usize> = flag(args, "--arch")
            .ok_or("--arch is required (comma-separated genome, or --widest)")?
            .split(',')
            .map(|g| g.trim().parse().map_err(|e| format!("--arch: {e}")))
            .collect::<Result<_, String>>()?;
        Arch::decode(&encoded).map_err(|e| e.to_string())?
    };
    if arch.len() != skeleton.num_layers() {
        return Err(format!(
            "genome has {} layers but the skeleton searches {}",
            arch.len(),
            skeleton.num_layers()
        ));
    }
    let opts = CompileOptions {
        seed: flag(args, "--seed")
            .map(|s| s.parse().map_err(|e| format!("--seed: {e}")))
            .transpose()?
            .unwrap_or(0),
        warmup_steps: flag(args, "--warmup")
            .map(|s| s.parse().map_err(|e| format!("--warmup: {e}")))
            .transpose()?
            .unwrap_or(CompileOptions::default().warmup_steps),
    };
    let _telemetry = telemetry_from_args(args);
    let (art, stats) = compile(&skeleton, &arch, &opts).map_err(|e| e.to_string())?;
    let bytes = artifact::to_bytes(&art);
    artifact::save(&art, std::path::Path::new(&out)).map_err(|e| e.to_string())?;
    println!("architecture : {arch}");
    println!(
        "graph        : {} nodes, {} weight floats",
        art.graph.nodes.len(),
        art.graph.const_elements()
    );
    println!(
        "patches      : {} fused, {} specialized, {} folded, {} removed",
        stats.fused, stats.specialized, stats.folded, stats.removed
    );
    println!("artifact     : {out} ({} bytes)", bytes.len());
    Ok(())
}

/// `hsconas infer`: run a compiled artifact on a seeded synthetic batch.
fn cmd_infer(args: &[String]) -> Result<(), String> {
    use hsconas_graph::{artifact, execute};

    let path = artifact_path(args)?;
    let _telemetry = telemetry_from_args(args);
    let art = artifact::load(std::path::Path::new(&path)).map_err(|e| e.to_string())?;
    let x = synthetic_input(args, &art)?;
    let logits = execute(&art.graph, &x).map_err(|e| e.to_string())?;
    let s = logits.shape();
    for n in 0..s.n {
        let row: Vec<f32> = (0..s.c).map(|c| logits.at(n, c, 0, 0)).collect();
        let argmax = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        println!("image {n}: class {argmax}  logits {row:?}");
    }
    Ok(())
}

/// `hsconas compare`: diff an artifact layer-by-layer against the
/// reference supernet rebuilt from its provenance. Exits nonzero when the
/// worst error exceeds `--tolerance` (default 0 — bit-identity).
fn cmd_compare(args: &[String]) -> Result<(), String> {
    use hsconas_graph::{artifact, compare};

    let path = artifact_path(args)?;
    let tolerance: f32 = flag(args, "--tolerance")
        .map(|s| s.parse().map_err(|e| format!("--tolerance: {e}")))
        .transpose()?
        .unwrap_or(0.0);
    let _telemetry = telemetry_from_args(args);
    let art = artifact::load(std::path::Path::new(&path)).map_err(|e| e.to_string())?;
    let x = synthetic_input(args, &art)?;
    let report = compare(&art, &x).map_err(|e| e.to_string())?;
    println!(
        "{:<10} {:>9} {:>9} {:>13} {:>13}",
        "boundary", "logical C", "actual C", "max |err|", "tail max"
    );
    for row in &report.layers {
        println!(
            "{:<10} {:>9} {:>9} {:>13e} {:>13e}",
            row.label, row.logical_c, row.physical_c, row.max_abs_err, row.ref_tail_max
        );
    }
    println!("overall max |err| = {:e}", report.max_abs_err);
    if report.max_abs_err > tolerance {
        return Err(format!(
            "max |err| {:e} exceeds tolerance {tolerance:e}",
            report.max_abs_err
        ));
    }
    Ok(())
}

fn cmd_table(args: &[String]) -> Result<(), String> {
    let seed: u64 = flag(args, "--seed")
        .map(|s| s.parse().map_err(|e| format!("--seed: {e}")))
        .transpose()?
        .unwrap_or(2021);
    let config = if has_flag(args, "--fast") {
        PipelineConfig::fast_test()
    } else {
        PipelineConfig::default()
    };
    let _telemetry = telemetry_from_args(args);
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = table_one(&config, &mut rng).map_err(|e| e.to_string())?;
    print!("{}", render_table(&rows));
    if let Some(path) = flag(args, "--out") {
        hsconas::persist::save_table(&rows, &path).map_err(|e| e.to_string())?;
        println!("saved: {path}");
    }
    Ok(())
}

fn cmd_baselines() -> Result<(), String> {
    print!("{}", render_table(&hsconas::report::baseline_rows()));
    Ok(())
}

/// Calibrates a latency predictor for one device and saves the profiled
/// LUT + bias snapshot, so later searches can skip the measurement phase.
fn cmd_profile(args: &[String]) -> Result<(), String> {
    let device_name = flag(args, "--device").ok_or("--device is required")?;
    let device = device_by_name(&device_name)?;
    let out = flag(args, "--out").ok_or("--out is required")?;
    let seed: u64 = flag(args, "--seed")
        .map(|s| s.parse().map_err(|e| format!("--seed: {e}")))
        .transpose()?
        .unwrap_or(2021);
    let space = SearchSpace::hsconas_a();
    let mut rng = StdRng::seed_from_u64(seed);
    let predictor =
        LatencyPredictor::calibrate(device, &space, 100, 5, &mut rng).map_err(|e| e.to_string())?;
    // profile broadly so the snapshot covers most configurations
    for arch in space.sample_n(200, &mut rng) {
        predictor.predict_us(&arch).map_err(|e| e.to_string())?;
    }
    let snapshot = predictor.export();
    println!(
        "profiled {} operator configurations, bias B = {:.2} ms",
        snapshot.lut.entries.len(),
        snapshot.bias_us / 1000.0
    );
    save_json(&snapshot, &out).map_err(|e| e.to_string())?;
    println!("saved: {out}");
    Ok(())
}

/// Renders the per-phase run report from a telemetry JSONL log.
fn cmd_report(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("usage: hsconas report RUN.jsonl")?;
    print!("{}", hsconas::report::render_run_report(path)?);
    Ok(())
}

fn cmd_measure(args: &[String]) -> Result<(), String> {
    let path = flag(args, "--model").ok_or("--model is required")?;
    let model: SavedModel = load_json(&path).map_err(|e| e.to_string())?;
    let target = device_by_name(&model.target_device).map_err(|e| format!("{path}: {e}"))?;
    println!("model        : {}", model.name);
    println!("architecture : {}", model.arch);
    // Re-measure on all devices; infer the layout from the arch via both
    // skeletons (exactly one will accept the widths).
    let layouts = [ChannelLayout::A, ChannelLayout::B];
    let skeleton = layouts
        .iter()
        .map(|&l| NetworkSkeleton::imagenet(l))
        .find(|s| s.num_layers() == model.arch.len())
        .ok_or("architecture does not fit any known skeleton")?;
    let net = lower_arch(&skeleton, &model.arch).map_err(|e| e.to_string())?;
    for device in DeviceSpec::paper_devices() {
        let pm = hsconas_hwsim::PowerModel::for_device(&device);
        let fp = hsconas_hwsim::memory_footprint(&device, &net);
        println!(
            "{:<16}: {:.1} ms   {:.0} mJ   {:.1} MiB",
            device.name,
            device.network_time_us(&net) / 1000.0,
            pm.network_energy_mj(&device, &net),
            fp.total_mib()
        );
    }
    // per-operator latency breakdown on the model's target device
    println!("\nper-operator breakdown on {} (us):", target.name);
    for op in &net.ops {
        println!("  {:<24} {:>10.1}", op.name, target.op_time_us(op));
    }
    println!(
        "  {:<24} {:>10.1}",
        "(inter-op + fixed)",
        (net.ops.len() - 1) as f64 * target.inter_op_overhead_us + target.fixed_overhead_us
    );
    Ok(())
}
