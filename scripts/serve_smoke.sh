#!/usr/bin/env bash
# End-to-end smoke test for the serving daemon, runnable locally and in
# CI: builds the release binary, starts `hsconas serve` on an ephemeral
# port, exercises every request kind through the bundled client, checks
# the determinism contract (two identical searches -> identical bytes),
# shuts down gracefully, and fails if the daemon exits nonzero or leaks.
#
# Set SMOKE_PID_FILE to a path to have every spawned PID appended there,
# so CI can do a PID-scoped leak check instead of a machine-wide pgrep.
#
# Usage: scripts/serve_smoke.sh [state-dir]
set -euo pipefail
STATE_DIR="${1:-}"
# shellcheck source=scripts/lib.sh
source "$(dirname "$0")/lib.sh"
[ -n "${STATE_DIR}" ] || STATE_DIR="${TMP}/state"

build

echo "==> start daemon"
mkdir -p "${STATE_DIR}"
start_server serve --devices edge --state-dir "${STATE_DIR}"
echo "    listening on ${serve_ADDR}"

client() {
    client_at "${serve_ADDR}" "$@"
}

echo "==> status"
client status >/dev/null

echo "==> predict_latency"
client predict --device edge --arch "${WIDE_ARCH}" >/dev/null

echo "==> score"
client score --device edge --target-ms 34 --arch "${WIDE_ARCH}" >/dev/null

echo "==> search (determinism: two identical requests, identical output)"
client search --device edge --target-ms 34 --seed 7 >"${TMP}/search1.json"
client search --device edge --target-ms 34 --seed 7 >"${TMP}/search2.json"
if ! cmp -s "${TMP}/search1.json" "${TMP}/search2.json"; then
    echo "identical searches produced different results:" >&2
    diff "${TMP}/search1.json" "${TMP}/search2.json" >&2 || true
    exit 1
fi

echo "==> graceful shutdown"
stop_server serve
assert_no_leaks

echo "serve smoke: OK"
