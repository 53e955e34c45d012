#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <search_real|serve_mixed|infer_batch> \
        --seed N --seconds S --trace <0|1>

Builds the shipped `hsconas` binary (the serve workloads spawn it) and the
benchmark package, both in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), then runs the benchmark with the given arguments. The last
line of standard output is the result object; the per-run record (notes and,
with `--trace 1`, spans) is written under `<target dir>/perfbench-out/`.
Exits non-zero, without a result line, if a build or a correctness check
fails.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def source_fingerprint():
    """SHA-256 over the sources the benchmark builds, for provenance when
    the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("crates", "vendored", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    for name in ("Cargo.toml", "Cargo.lock"):
        path = os.path.join(ROOT, name)
        if os.path.exists(path):
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "hsconas", "--bin", "hsconas"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    env["PERFBENCH_GIT_SHA"] = git_sha()
    env["PERFBENCH_SOURCE_SHA"] = source_fingerprint()
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "hsconas-perfbench"), *sys.argv[1:],
           "--hsconas", os.path.join(release, "hsconas"),
           "--out", os.path.join(target, "perfbench-out")]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
