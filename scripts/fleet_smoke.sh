#!/usr/bin/env bash
# Fleet soak for the routed worker fleet, runnable locally and in CI:
# builds the release binary, starts `hsconas serve --fleet 2` (router +
# two spawned workers), drives mixed status/predict/score/search/infer
# traffic through the router, checks the fleet-wide accounting invariant
# (served + overloaded == sent) from the aggregated status, kills one
# worker and verifies partial availability (some key ranges 503, the
# rest keep serving), drains, and fails if any spawned process leaks.
#
# Every PID this script spawns is recorded; set SMOKE_PID_FILE to a path
# to have them appended there so CI can do a PID-scoped leak check
# instead of a machine-wide pgrep.
#
# Usage: scripts/fleet_smoke.sh
set -euo pipefail
# shellcheck source=scripts/lib.sh
source "$(dirname "$0")/lib.sh"

build

echo "==> start router + 2 workers"
start_server route --fleet 2 --devices edge
echo "    listening on ${route_ADDR}"

# The workers are children of the router (start_server recorded them for
# the leak check); the failover phase kills one.
WORKER_PIDS=()
for pid in $(pgrep -P "${route_PID}" 2>/dev/null || true); do
    WORKER_PIDS+=("${pid}")
done
if [ "${#WORKER_PIDS[@]}" -ne 2 ]; then
    echo "expected 2 worker processes under the router, found ${#WORKER_PIDS[@]}" >&2
    exit 1
fi

client() {
    client_at "${route_ADDR}" "$@"
}

# First occurrence of a numeric field in the pretty-printed fleet status.
# The fleet block prints first, then the router block, then per-shard
# detail — so the first "score" is fleet.served.score, the first
# "overloaded" is fleet.rejected.overloaded, the first "healthy" is
# fleet.healthy, and the first "failed" is router.failed.
# Capture the whole status first: piping the client straight into
# `grep -m1` closes the pipe early and kills the client with SIGPIPE.
status_field() {
    client status >"${TMP}/status.json"
    grep -m1 "\"$1\"" "${TMP}/status.json" | tr -dc '0-9'
}

echo "==> mixed traffic (status, predict, score, search, infer)"
client status >/dev/null
client predict --device edge --arch "${WIDE_ARCH}" >/dev/null
SCORE_SENT=0
SCORE_OK=0
if client score --device edge --target-ms 34 --arch "${WIDE_ARCH}" >/dev/null; then
    SCORE_OK=$((SCORE_OK + 1))
fi
SCORE_SENT=$((SCORE_SENT + 1))
client search --device edge --target-ms 34 --seed 7 >"${TMP}/search1.json"
client search --device edge --target-ms 34 --seed 7 >"${TMP}/search2.json"
if ! cmp -s "${TMP}/search1.json" "${TMP}/search2.json"; then
    echo "identical searches through the router produced different results:" >&2
    diff "${TMP}/search1.json" "${TMP}/search2.json" >&2 || true
    exit 1
fi
# The infer skeleton is the 4-layer tiny space: (op, scale) x 4.
client infer --arch 0,9,0,9,0,9,0,9 --input-seed 3 --batch 2 >/dev/null

echo "==> accounting: served + overloaded == sent, fleet-wide"
# Distinct targets spread the keys over both shards and defeat the eval
# memo, so every request does real work.
for i in $(seq 1 30); do
    if client score --device edge --target-ms "$((1000 + i))" --arch "${WIDE_ARCH}" >/dev/null 2>&1; then
        SCORE_OK=$((SCORE_OK + 1))
    fi
    SCORE_SENT=$((SCORE_SENT + 1))
done
SERVED="$(status_field score)"
OVERLOADED="$(status_field overloaded)"
FAILED="$(status_field failed)"
if [ "$((SERVED + OVERLOADED))" -ne "${SCORE_SENT}" ]; then
    echo "accounting broken: served=${SERVED} + overloaded=${OVERLOADED} != sent=${SCORE_SENT}" >&2
    client status >&2 || true
    exit 1
fi
if [ "${SERVED}" -ne "${SCORE_OK}" ]; then
    echo "fleet served.score=${SERVED} disagrees with client-observed 200s=${SCORE_OK}" >&2
    exit 1
fi
if [ "${FAILED}" -ne 0 ]; then
    echo "router recorded ${FAILED} failed forwards in a healthy fleet" >&2
    exit 1
fi
echo "    served=${SERVED} overloaded=${OVERLOADED} sent=${SCORE_SENT}"

echo "==> failover: kill one worker, the other shard keeps serving"
kill -9 "${WORKER_PIDS[0]}"
wait "${WORKER_PIDS[0]}" 2>/dev/null || true
DOWN_OK=0
DOWN_FAIL=0
for i in $(seq 1 20); do
    if client score --device edge --target-ms "$((2000 + i))" --arch "${WIDE_ARCH}" >/dev/null 2>&1; then
        DOWN_OK=$((DOWN_OK + 1))
    else
        DOWN_FAIL=$((DOWN_FAIL + 1))
    fi
done
if [ "${DOWN_OK}" -eq 0 ]; then
    echo "no key range survived the worker kill (expected the healthy shard to serve)" >&2
    exit 1
fi
if [ "${DOWN_FAIL}" -eq 0 ]; then
    echo "no key range failed after the worker kill (expected 503s for the dead shard)" >&2
    exit 1
fi
HEALTHY="$(status_field healthy)"
if [ "${HEALTHY}" -ne 1 ]; then
    echo "fleet status reports ${HEALTHY} healthy workers, expected 1 after the kill" >&2
    exit 1
fi
echo "    surviving shard served ${DOWN_OK}, dead shard rejected ${DOWN_FAIL}"

echo "==> graceful drain (router + surviving worker)"
stop_server route
# PID-scoped leak check: every process this script spawned must be gone.
assert_no_leaks

echo "fleet smoke: OK"
