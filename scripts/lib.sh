# Shared helpers for the serving smoke scripts (serve_smoke.sh,
# fleet_smoke.sh, pareto_smoke.sh). Sourced, not run:
#
#     source "$(dirname "$0")/lib.sh"
#
# Sourcing moves to the repository root, creates ${TMP}, and installs an
# EXIT trap that kills every recorded process and removes ${TMP}. Every
# PID passed to record_pid (start_server records the server and its
# fleet workers) is also appended to ${SMOKE_PID_FILE} when that is set,
# so CI can do a PID-scoped leak check instead of a machine-wide pgrep.

set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

TMP="$(mktemp -d)"
PIDS=()
BIN=target/release/hsconas

# Widest genome in the served 20-layer space: (op 0, scale 9) x 20.
WIDE_ARCH="0,9"
for _ in $(seq 1 19); do WIDE_ARCH="${WIDE_ARCH},0,9"; done

record_pid() {
    PIDS+=("$1")
    if [ -n "${SMOKE_PID_FILE:-}" ]; then
        echo "$1" >>"${SMOKE_PID_FILE}"
    fi
}

cleanup() {
    # A leaked process is a failure mode of its own; never leave one behind.
    for pid in "${PIDS[@]:-}"; do
        if [ -n "${pid}" ] && kill -0 "${pid}" 2>/dev/null; then
            kill -9 "${pid}" 2>/dev/null || true
            wait "${pid}" 2>/dev/null || true
        fi
    done
    rm -rf "${TMP}"
}
trap cleanup EXIT

build() {
    echo "==> build"
    cargo build --release -q -p hsconas --bin hsconas
}

# start_server TAG [serve args...]: starts `hsconas serve --port 0 ARGS`
# with output in ${TMP}/TAG.{out,err}, waits for its listen line, records
# it and any fleet workers it spawned, and sets ${TAG}_ADDR and ${TAG}_PID.
start_server() {
    local tag="$1"
    shift
    "${BIN}" serve --port 0 "$@" >"${TMP}/${tag}.out" 2>"${TMP}/${tag}.err" &
    local pid=$!
    record_pid "${pid}"
    # The first calibration of a device takes a moment.
    local addr=""
    for _ in $(seq 1 600); do
        if ! kill -0 "${pid}" 2>/dev/null; then
            echo "server '${tag}' died during startup:" >&2
            cat "${TMP}/${tag}.err" >&2
            exit 1
        fi
        addr="$(sed -n 's/.*listening on //p' "${TMP}/${tag}.out" | head -n1)"
        [ -n "${addr}" ] && break
        sleep 0.1
    done
    if [ -z "${addr}" ]; then
        echo "server '${tag}' never printed its listen address" >&2
        exit 1
    fi
    for child in $(pgrep -P "${pid}" 2>/dev/null || true); do
        record_pid "${child}"
    done
    eval "${tag}_ADDR='${addr}'"
    eval "${tag}_PID='${pid}'"
}

# client_at ADDR ARGS...: one `hsconas client` call against ADDR.
client_at() {
    "${BIN}" client --addr "$1" "${@:2}"
}

# stop_server TAG: sends `shutdown` and fails unless the server drains and
# exits 0 on its own within 30 s.
stop_server() {
    local tag="$1"
    local addr_var="${tag}_ADDR"
    local pid_var="${tag}_PID"
    client_at "${!addr_var}" shutdown >/dev/null
    local exited=0
    for _ in $(seq 1 300); do
        if ! kill -0 "${!pid_var}" 2>/dev/null; then
            exited=1
            break
        fi
        sleep 0.1
    done
    if [ "${exited}" -ne 1 ]; then
        echo "server '${tag}' leaked: still running after shutdown" >&2
        exit 1
    fi
    if ! wait "${!pid_var}"; then
        echo "server '${tag}' exited nonzero:" >&2
        cat "${TMP}/${tag}.err" >&2
        exit 1
    fi
}

# assert_no_leaks: every recorded process must be gone.
assert_no_leaks() {
    for pid in "${PIDS[@]}"; do
        if kill -0 "${pid}" 2>/dev/null; then
            echo "leaked process ${pid} after drain:" >&2
            ps -p "${pid}" -o pid,cmd >&2 || true
            exit 1
        fi
    done
}
