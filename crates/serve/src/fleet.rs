//! Worker-fleet process management: spawn N `hsconas serve` children on
//! ephemeral ports and collect their addresses for the router's ring.
//!
//! The spawn contract is the `hsconas-serve listening on ADDR` stdout
//! line every daemon prints after binding (the same line the smoke
//! scripts and the black-box harness parse). Each child gets `--port 0`
//! plus the caller's pass-through worker flags, so workers inherit the
//! budget/queue/state-dir configuration of the fleet as a whole.
//!
//! Shard identity is *positional*: child `i` becomes ring shard `i`, and
//! the ring hashes shard indices, so respawning the fleet with the same
//! worker count reproduces the same key→shard map even though every
//! ephemeral port changed.

use std::io::{self, BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// The stdout prefix every daemon prints once it is accepting
/// connections. Must match the `hsconas serve` CLI exactly — the smoke
/// scripts and the black-box harness parse the same line.
pub const LISTEN_PREFIX: &str = "hsconas-serve listening on ";

/// Fleet configuration.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Executable to spawn (the CLI passes its own `current_exe`).
    pub program: PathBuf,
    /// Number of workers.
    pub workers: usize,
    /// Extra arguments appended to every worker's
    /// `serve --port 0` command line (budget, queue, state-dir, ...).
    pub worker_args: Vec<String>,
    /// How long to wait for each worker's listen line before declaring
    /// the spawn failed.
    pub startup_timeout_ms: u64,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            program: PathBuf::new(),
            workers: 2,
            worker_args: Vec::new(),
            startup_timeout_ms: 30_000,
        }
    }
}

/// A spawned worker fleet. Dropping the fleet kills any still-running
/// children — orderly exits go through [`Fleet::wait_exit`] after the
/// router has drained them.
#[derive(Debug)]
pub struct Fleet {
    children: Vec<Child>,
    addrs: Vec<String>,
}

impl Fleet {
    /// Spawns `options.workers` children and waits for each to report
    /// its listen address.
    ///
    /// # Errors
    ///
    /// Spawn failures, a worker exiting before its listen line, or the
    /// startup timeout elapsing. Already-spawned children are killed
    /// before the error returns — a failed spawn leaks nothing.
    pub fn spawn(options: &FleetOptions) -> io::Result<Fleet> {
        if options.workers == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "fleet needs at least one worker",
            ));
        }
        let mut fleet = Fleet {
            children: Vec::with_capacity(options.workers),
            addrs: Vec::with_capacity(options.workers),
        };
        for i in 0..options.workers {
            let spawned = spawn_worker(options, i);
            match spawned {
                Ok((child, addr)) => {
                    fleet.children.push(child);
                    fleet.addrs.push(addr);
                }
                Err(e) => {
                    // `fleet` drops here, killing the workers already up.
                    return Err(io::Error::new(
                        e.kind(),
                        format!("worker {i} failed to start: {e}"),
                    ));
                }
            }
        }
        Ok(fleet)
    }

    /// Worker addresses in shard order.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// Waits up to `timeout` for every child to exit on its own (the
    /// router's drain sends each a `shutdown`), then kills and reaps any
    /// straggler. Returns the number of workers that had to be killed.
    pub fn wait_exit(&mut self, timeout: Duration) -> usize {
        let deadline = Instant::now() + timeout;
        loop {
            let all_done = self
                .children
                .iter_mut()
                .all(|c| matches!(c.try_wait(), Ok(Some(_))));
            if all_done {
                return 0;
            }
            if Instant::now() >= deadline {
                break;
            }
            thread::sleep(Duration::from_millis(25));
        }
        let mut killed = 0;
        for child in &mut self.children {
            if !matches!(child.try_wait(), Ok(Some(_))) {
                let _ = child.kill();
                let _ = child.wait();
                killed += 1;
            }
        }
        killed
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in &mut self.children {
            if !matches!(child.try_wait(), Ok(Some(_))) {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

/// Spawns one worker and blocks until its listen line arrives.
fn spawn_worker(options: &FleetOptions, index: usize) -> io::Result<(Child, String)> {
    let mut cmd = Command::new(&options.program);
    cmd.arg("serve")
        .arg("--port")
        .arg("0")
        .args(&options.worker_args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut child = cmd.spawn()?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| io::Error::other("worker stdout not captured"))?;

    // The listen line is read on a thread so the spawn can time out even
    // if the child hangs before binding. After the line, the thread keeps
    // draining stdout so the child never blocks on a full pipe.
    let (tx, rx) = mpsc::channel::<io::Result<String>>();
    let drain = thread::Builder::new()
        .name(format!("fleet-stdout-{index}"))
        .spawn(move || {
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            let result = match reader.read_line(&mut line) {
                Ok(0) => Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "worker exited before printing its listen line",
                )),
                Ok(_) => {
                    let trimmed = line.trim_end();
                    trimmed.strip_prefix(LISTEN_PREFIX).map_or_else(
                        || {
                            Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("unexpected worker greeting: {trimmed:?}"),
                            ))
                        },
                        |addr| Ok(addr.to_string()),
                    )
                }
                Err(e) => Err(e),
            };
            let _ = tx.send(result);
            // Keep the pipe drained for the worker's lifetime.
            let mut sink = [0u8; 4096];
            while matches!(reader.read(&mut sink), Ok(n) if n > 0) {}
        });
    if let Err(e) = drain {
        let _ = child.kill();
        let _ = child.wait();
        return Err(e);
    }

    match rx.recv_timeout(Duration::from_millis(options.startup_timeout_ms.max(1))) {
        Ok(Ok(addr)) => Ok((child, addr)),
        Ok(Err(e)) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(e)
        }
        Err(_) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "worker did not report a listen address within {} ms",
                    options.startup_timeout_ms
                ),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_rejects_zero_workers() {
        let e = Fleet::spawn(&FleetOptions {
            workers: 0,
            ..FleetOptions::default()
        })
        .unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn spawn_fails_cleanly_for_missing_program() {
        let e = Fleet::spawn(&FleetOptions {
            program: PathBuf::from("/nonexistent/hsconas-fleet-test"),
            workers: 1,
            ..FleetOptions::default()
        })
        .unwrap_err();
        assert!(e.to_string().contains("worker 0"), "{e}");
    }

    #[test]
    fn spawn_rejects_wrong_greeting() {
        // `echo` exists everywhere the test suite runs and prints a line
        // that is not the listen greeting.
        let e = Fleet::spawn(&FleetOptions {
            program: PathBuf::from("/bin/echo"),
            workers: 1,
            startup_timeout_ms: 10_000,
            ..FleetOptions::default()
        })
        .unwrap_err();
        let msg = e.to_string();
        assert!(
            msg.contains("unexpected worker greeting") || msg.contains("listen line"),
            "{msg}"
        );
    }
}
