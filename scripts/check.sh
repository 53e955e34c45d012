#!/usr/bin/env bash
# Repo-wide gate: formatting, lints, the full test suite, and the release
# performance gates. Unlike a plain `set -e` script, every gate runs even
# when an earlier one fails, and a summary table at the end shows exactly
# which gates passed; the exit code is nonzero if any gate failed.
#
# Usage: scripts/check.sh
set -uo pipefail
cd "$(dirname "$0")/.."

names=()
results=()
failed=0

run_gate() {
    local name="$1"
    shift
    echo
    echo "==> ${name}"
    if "$@"; then
        names+=("${name}")
        results+=(PASS)
    else
        names+=("${name}")
        results+=(FAIL)
        failed=1
    fi
}

run_gate "cargo fmt --check" \
    cargo fmt --all -- --check

run_gate "clippy (all targets, telemetry on)" \
    cargo clippy --workspace --all-targets -- -D warnings

# Package selection instead of --workspace: --no-default-features must only
# strip the hsconas-* `telemetry` defaults, not the vendored crates' std
# features. Proves the whole tree lints clean with telemetry compiled out.
run_gate "clippy (telemetry off)" \
    cargo clippy \
    -p hsconas -p hsconas-bench -p hsconas-telemetry -p hsconas-par \
    -p hsconas-evo -p hsconas-supernet -p hsconas-shrink -p hsconas-latency \
    -p hsconas-serve -p hsconas-graph \
    --all-targets --no-default-features -- -D warnings

# Every intra-doc link in the hsconas-* crates must resolve to a public
# item; a stale link to a deleted or private function fails here. The
# vendored stand-ins are excluded.
run_gate "rustdoc (warnings denied)" \
    env RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace \
    --exclude rand --exclude serde --exclude serde_derive --exclude serde_json \
    --exclude proptest --exclude parking_lot --exclude criterion

run_gate "cargo test" \
    cargo test -q

# The GEMM kernel layer must behave identically whichever variant the
# runtime selector would pick: force the portable packed scalar kernel for
# the differential suite (the suite itself still compares all available
# variants via gemm_ext, so AVX2 hosts get SIMD coverage too).
run_gate "kernel differential (scalar forced)" \
    env HSCONAS_KERNEL=scalar cargo test -q -p hsconas --test kernel_differential

# Band-parallel determinism: the differential + pack-cache suites, the
# supernet masked-forward exactness test, the checkpoint resume suite, the
# depthwise and pointwise conv exactness tests, the conv dispatch-count
# guards and the compiled-graph suite (batch shards × row bands) are
# bit-identity contracts, so they must hold with
# the band worker count pinned to 1 and to 8.
for kt in 1 8; do
    run_gate "kernel suites (HSCONAS_KERNEL_THREADS=${kt})" \
        env HSCONAS_KERNEL_THREADS="${kt}" bash -c \
        "cargo test -q -p hsconas --test kernel_differential \
         && cargo test -q -p hsconas --test pack_cache \
         && cargo test -q -p hsconas-supernet masking_is_exact_through_packed_kernels \
         && cargo test -q --release -p hsconas --test checkpoint_resume \
         && cargo test -q --release -p hsconas-tensor depthwise \
         && cargo test -q --release -p hsconas-tensor pointwise \
         && cargo test -q --release -p hsconas-tensor --test conv_dispatch \
         && cargo test -q -p hsconas --test graph_compile"
done

# Batch norm and the augmentations run on slices; optimized builds must
# still match the scalar reference loops bit for bit.
run_gate "slice-loop exactness (release)" \
    bash -c "cargo test -q --release -p hsconas-nn batchnorm \
             && cargo test -q --release -p hsconas-data augment"

# Fault-injection suite: kills a checkpoint write at every named site and
# asserts the atomic temp+fsync+rename protocol never leaves a torn file.
# The failpoints feature is compiled out everywhere else.
run_gate "checkpoint fault injection" \
    cargo test -q -p hsconas-ckpt --features failpoints

# The alloc budget in tests/alloc_budget.rs is the checked-in contract for
# the activation arena: a steady-state forward must stay O(1) allocations.
# Run it in release too, where inlining changes allocation patterns, along
# with the worker-pool concurrency tests.
run_gate "allocation-regression gate (release)" \
    bash -c "cargo test -q --release -p hsconas --test alloc_budget \
             && cargo test -q --release -p hsconas-par"

# Observation must stay near-free: with a sink installed, the population
# evaluation workload may regress by at most 2% (tests/telemetry_overhead.rs
# only asserts the bound in release builds).
run_gate "telemetry-overhead gate (release)" \
    cargo test -q --release -p hsconas --test telemetry_overhead

# End-to-end smoke of the serving daemon: start, query every request
# kind, verify determinism, drain, and fail on a leaked process.
run_gate "serve smoke" \
    scripts/serve_smoke.sh

# Fleet soak: router + 2 spawned workers, mixed traffic, fleet-wide
# accounting (served + overloaded == sent), kill-one-worker failover,
# drain, and a PID-scoped leak check.
run_gate "fleet smoke" \
    scripts/fleet_smoke.sh

# Pareto + bench-table smoke: deterministic offline table build, loud
# corrupt-table startup failure, single-vs-fleet frontier byte identity
# under permutation/aliasing, and table-miss fall-through byte identity.
run_gate "pareto smoke" \
    scripts/pareto_smoke.sh

# Graph deployment pipeline: fixed-seed compile, bit-identity compare gate
# (max-abs-err 0), deterministic artifact round-trip, and loud rejection of
# corrupted / truncated / foreign-version artifacts.
run_gate "graph smoke" \
    scripts/graph_smoke.sh

echo
echo "==================== gate summary ===================="
for i in "${!names[@]}"; do
    printf '  %-42s %s\n' "${names[$i]}" "${results[$i]}"
done
echo "======================================================"
if [ "${failed}" -ne 0 ]; then
    echo "Some gates FAILED."
    exit 1
fi
echo "All checks passed."
