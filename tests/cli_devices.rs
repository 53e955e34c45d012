//! The `hsconas` CLI resolves device names through one resolver,
//! `DeviceSpec::by_name`: short aliases and full names both work, and an
//! unknown name is an error, never a silent fallback to another device.
//! Likewise an argument no subcommand reads is a usage error, never a
//! silent fallback to the option's default.

use std::path::PathBuf;
use std::process::{Command, Output};

use hsconas::{save_json, SavedModel};
use hsconas_space::Arch;

fn measure(target_device: &str) -> Output {
    let path: PathBuf = std::env::temp_dir().join(format!(
        "hsconas-cli-devices-{target_device}-{}.json",
        std::process::id()
    ));
    let model = SavedModel {
        name: "probe".into(),
        target_device: target_device.into(),
        target_ms: 24.0,
        arch: Arch::widest(20),
        top1_error: 25.0,
        latency_ms: 24.0,
        seed: 1,
    };
    save_json(&model, &path).expect("write model");
    let output = Command::new(env!("CARGO_BIN_EXE_hsconas"))
        .arg("measure")
        .arg("--model")
        .arg(&path)
        .output()
        .expect("run hsconas measure");
    let _ = std::fs::remove_file(&path);
    output
}

#[test]
fn measure_breaks_down_on_the_saved_target_device() {
    for (name, full) in [("cpu-xeon-6136", "cpu-xeon-6136"), ("gpu", "gpu-gv100")] {
        let out = measure(name);
        assert!(out.status.success(), "{name}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&format!("per-operator breakdown on {full} (us)")),
            "{stdout}"
        );
    }
}

#[test]
fn measure_rejects_an_unknown_target_device() {
    let out = measure("tpu");
    assert!(!out.status.success(), "{out:?}");
    assert!(out.stdout.is_empty(), "printed before failing: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown device 'tpu'"), "{stderr}");
}

/// Runs `hsconas ARGS`, killing it if it has not exited within a minute (a
/// refused `serve` that started anyway would otherwise never return).
fn run_bounded(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hsconas"))
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn hsconas");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while child.try_wait().expect("poll hsconas").is_none() {
        if std::time::Instant::now() > deadline {
            child.kill().ok();
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect hsconas output")
}

#[test]
fn arguments_no_subcommand_reads_are_refused() {
    for (args, refused) in [
        (&["serve", "--port", "0", "--vnodes", "3"][..], "'--vnodes'"),
        (&["serve", "--queue-capp", "4"], "'--queue-capp'"),
        (&["search", "--device", "edge", "--seeed", "3"], "'--seeed'"),
        (&["infer", "m.hsart", "--threads", "2"], "'--threads'"),
        (&["infer", "m.hsart", "n.hsart"], "'n.hsart'"),
        (&["baselines", "--fast"], "'--fast'"),
        (&["search", "--device"], "--device needs a value"),
    ] {
        let out = run_bounded(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(refused), "{args:?}: {stderr}");
    }
}

#[test]
fn declared_arguments_still_reach_the_subcommand() {
    // `ckpt inspect` takes two positionals; a missing file fails in the
    // subcommand (exit 1), past the argument check (exit 2).
    let out = run_bounded(&["ckpt", "inspect", "/nonexistent/ckpt.hsck"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let out = run_bounded(&["baselines"]);
    assert!(out.status.success(), "{out:?}");
}
