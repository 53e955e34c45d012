#!/usr/bin/env bash
# Pareto + bench-table smoke, runnable locally and in CI: builds the
# release binary, proves the offline `bench-table` builder is
# byte-deterministic, proves a corrupted table is a loud startup failure
# (never "no coverage"), then drives the `pareto` request through a
# single daemon and a `--fleet 2` router and requires byte-identical
# frontier lines — including under device-set permutation and aliasing —
# and finally checks the table-miss fall-through answers the exact bytes
# a table-less daemon answers.
#
# Every PID this script spawns is recorded; set SMOKE_PID_FILE to a path
# to have them appended there so CI can do a PID-scoped leak check.
#
# Usage: scripts/pareto_smoke.sh
set -euo pipefail
# shellcheck source=scripts/lib.sh
source "$(dirname "$0")/lib.sh"

build

echo "==> bench-table builder is byte-deterministic"
"${BIN}" bench-table --out "${TMP}/a.hsbt" --devices gpu,cpu,edge --samples 12 --seed 7 >/dev/null
"${BIN}" bench-table --out "${TMP}/b.hsbt" --devices edge,cpu,gpu,cpu --samples 12 --seed 7 >/dev/null
if ! cmp -s "${TMP}/a.hsbt" "${TMP}/b.hsbt"; then
    echo "bench-table artifacts differ across runs / device orderings" >&2
    exit 1
fi

echo "==> corrupt table is a loud startup failure"
head -c "$(($(wc -c <"${TMP}/a.hsbt") - 3))" "${TMP}/a.hsbt" >"${TMP}/torn.hsbt"
if "${BIN}" serve --port 0 --bench-table "${TMP}/torn.hsbt" \
    >"${TMP}/torn.out" 2>"${TMP}/torn.err"; then
    echo "server started from a truncated bench table" >&2
    exit 1
fi
if ! grep -q "invalid bench table" "${TMP}/torn.err"; then
    echo "startup failure did not name the table defect:" >&2
    cat "${TMP}/torn.err" >&2
    exit 1
fi

echo "==> start single daemon, table-backed daemon, and fleet router"
start_server single
start_server table --bench-table "${TMP}/a.hsbt"
start_server fleet --fleet 2
echo "    single=${single_ADDR} table=${table_ADDR} fleet=${fleet_ADDR}"

echo "==> pareto: single vs fleet vs permuted vs aliased, byte-identical"
client_at "${single_ADDR}" pareto \
    --devices cpu,edge,gpu --target-ms 34 --seed 11 >"${TMP}/ref.json"
client_at "${fleet_ADDR}" pareto \
    --devices cpu,edge,gpu --target-ms 34 --seed 11 >"${TMP}/fleet.json"
client_at "${fleet_ADDR}" pareto \
    --devices gpu,cpu,edge --target-ms 34 --seed 11 >"${TMP}/perm.json"
client_at "${single_ADDR}" pareto \
    --devices edge-xavier,gpu-gv100,cpu,edge --target-ms 34 --seed 11 >"${TMP}/alias.json"
for variant in fleet perm alias; do
    if ! cmp -s "${TMP}/ref.json" "${TMP}/${variant}.json"; then
        echo "pareto '${variant}' response diverged from the single daemon:" >&2
        diff "${TMP}/ref.json" "${TMP}/${variant}.json" >&2 || true
        exit 1
    fi
done

echo "==> table miss falls through to the live path, byte-identical"
# The widest genome is vanishingly unlikely to be in a 12-row random
# sample, so this exercises the miss path (the hit path is covered
# bit-exactly by tests/bench_table.rs).
for cmd in "predict --device edge --arch ${WIDE_ARCH}" \
    "score --device edge --target-ms 34 --arch ${WIDE_ARCH}"; do
    # shellcheck disable=SC2086
    client_at "${table_ADDR}" ${cmd} >"${TMP}/hit.json"
    # shellcheck disable=SC2086
    client_at "${single_ADDR}" ${cmd} >"${TMP}/live.json"
    if ! cmp -s "${TMP}/hit.json" "${TMP}/live.json"; then
        echo "table-backed '${cmd}' diverged from the live daemon:" >&2
        diff "${TMP}/hit.json" "${TMP}/live.json" >&2 || true
        exit 1
    fi
done
client_at "${table_ADDR}" status >"${TMP}/table-status.json"
if ! grep -q '"bench_table"' "${TMP}/table-status.json"; then
    echo "table-backed status is missing the bench_table block" >&2
    exit 1
fi

echo "==> graceful drain"
for tag in single table fleet; do
    stop_server "${tag}"
done
assert_no_leaks

echo "pareto smoke: OK"
