#!/usr/bin/env bash
# Non-test Rust line count, per crate and in total.
#
# Counts every tracked `.rs` file outside `tests/`, `benches/` and
# `vendored/` directories. Each file counts up to (not including) its
# top-level `mod tests` and the `#[cfg(test)]` line right above it; files
# without one count in full. Files are grouped by their first two path components
# (`crates/nn`, `perfbench/src`, `examples/quickstart.rs`, ...).
#
# Usage: scripts/loc.sh [REV]
#   With REV (any git revision), counts that commit's files instead of the
#   working tree, so a change can report before and after:
#     scripts/loc.sh HEAD~1 && scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:-}"
if [[ -n "${rev}" ]]; then
    files=$(git ls-tree -r --name-only "${rev}" | grep '\.rs$')
    show() { git show "${rev}:$1"; }
else
    files=$(git ls-files --cached --others --exclude-standard -- '*.rs')
    show() { if [[ -f "$1" ]]; then cat "$1"; fi; }
fi

# Prints the number of lines before the test module of the file on stdin.
# Reads to the end, so the producer never sees a broken pipe.
count() {
    awk '
        /^mod tests/ { done = 1 }
        done { next }
        { pending = /^#\[cfg\(test\)\]/; if (!pending) n += 1; else held += 1 }
        !pending && held { n += held; held = 0 }
        END { print n + 0 }
    '
}

grep -v -E '(^|/)(tests|benches|vendored)/' <<<"${files}" | sort | {
    total=0
    declare -A per
    while IFS= read -r f; do
        [[ -n "${f}" ]] || continue
        key=$(cut -d/ -f1-2 <<<"${f}")
        n=$(show "${f}" | count)
        per[${key}]=$(( ${per[${key}]:-0} + n ))
        total=$(( total + n ))
    done
    for key in $(printf '%s\n' "${!per[@]}" | sort); do
        printf '%7d  %s\n' "${per[${key}]}" "${key}"
    done
    printf '%7d  total\n' "${total}"
}
