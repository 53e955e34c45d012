//! The `hsconas` CLI resolves device names through one resolver,
//! `DeviceSpec::by_name`: short aliases and full names both work, and an
//! unknown name is an error, never a silent fallback to another device.

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
