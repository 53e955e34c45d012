//! Fault-injection tests for the atomic-write protocol (feature
//! `failpoints`).
//!
//! Two layers:
//!
//! * **Error mode** (in-process): arm each write site to return an error
//!   and assert the previous checkpoint is still fully readable — a
//!   failed write never damages existing state.
//! * **Abort mode** (subprocess): re-exec this test binary with
//!   `HSCONAS_FAILPOINTS=<site>=abort@2` so the *second* save dies with
//!   `process::abort()` (no destructors — a SIGKILL stand-in) at each
//!   site in the temp→fsync→rename sequence, then assert from the parent
//!   that the directory still holds a complete, checksum-valid
//!   checkpoint.

#![cfg(feature = "failpoints")]

use hsconas_ckpt::failpoint::{arm_after, disarm_all, FailMode};
use hsconas_ckpt::{CheckpointStore, CkptError, Phase};
use std::fs;
use std::path::PathBuf;
use std::process::Command;

const SITES: [&str; 3] = [
    "write.before_temp",
    "write.after_temp",
    "write.after_rename",
];

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hsck-fault-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// All error-mode sites in one test: the fail-point registry is process
/// global, so spreading these across tests would race under the parallel
/// test runner.
#[test]
fn errored_write_at_any_site_leaves_previous_checkpoint_intact() {
    for site in SITES {
        let dir = tmp_dir(&format!("err-{}", site.replace('.', "-")));
        let store = CheckpointStore::open(&dir, Phase::Search, 0xc0de, 0).unwrap();
        store.save(1, b"good state").unwrap();

        disarm_all();
        arm_after(site, FailMode::Error, 1);
        let result = store.save(2, b"doomed state");
        disarm_all();
        assert!(
            matches!(result, Err(CkptError::FailPoint { .. })),
            "site {site} should have errored"
        );
        let temps: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(temps.is_empty(), "site {site} left temp files {temps:?}");

        // The previous checkpoint must still be the (or a) valid latest;
        // whatever the interrupted write left behind must not break
        // resume. Failure after the rename means cursor 2 landed whole.
        let (header, payload) = store.load_latest().unwrap().unwrap();
        if site == "write.after_rename" {
            assert_eq!(header.cursor, 2);
            assert_eq!(payload, b"doomed state");
        } else {
            assert_eq!(header.cursor, 1);
            assert_eq!(payload, b"good state");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Child body for the abort tests: writes checkpoint 1, then checkpoint 2
/// (which aborts at the armed site), then a marker file that must never
/// appear. Runs only when re-exec'd by the parent with the env var set.
#[test]
fn child_abort_writer() {
    let Ok(dir) = std::env::var("HSCK_ABORT_DIR") else {
        return;
    };
    let store = CheckpointStore::open(&dir, Phase::Search, 0xc0de, 0).unwrap();
    store.save(1, b"good state").unwrap();
    let _ = store.save(2, b"doomed state");
    fs::write(PathBuf::from(&dir).join("survived"), b"").unwrap();
}

#[test]
fn aborted_write_at_any_site_leaves_a_complete_checkpoint() {
    let exe = std::env::current_exe().unwrap();
    for site in SITES {
        let dir = tmp_dir(&format!("abort-{}", site.replace('.', "-")));
        fs::create_dir_all(&dir).unwrap();
        let output = Command::new(&exe)
            .args(["--exact", "child_abort_writer", "--test-threads=1"])
            .env("HSCK_ABORT_DIR", &dir)
            .env("HSCONAS_FAILPOINTS", format!("{site}=abort@2"))
            .output()
            .expect("re-exec test binary");
        assert!(
            !output.status.success(),
            "child should have aborted at {site}: {}",
            String::from_utf8_lossy(&output.stdout)
        );
        assert!(
            !dir.join("survived").exists(),
            "abort at {site} did not actually kill the child"
        );

        // Whatever instant the process died at, the directory must hold a
        // complete, checksum-valid latest checkpoint.
        let store = CheckpointStore::open(&dir, Phase::Search, 0xc0de, 0).unwrap();
        let (header, payload) = store
            .load_latest()
            .expect("latest checkpoint validates")
            .expect("at least checkpoint 1 exists");
        if site == "write.after_rename" {
            assert_eq!(header.cursor, 2, "rename completed before the kill");
            assert_eq!(payload, b"doomed state");
        } else {
            assert_eq!(header.cursor, 1, "kill before rename keeps cursor 1");
            assert_eq!(payload, b"good state");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
