#!/usr/bin/env bash
# Regenerate BENCH_baseline.json: host-time baselines for the
# configurations CI tracks (informational — host times are
# machine-dependent, so ci.sh prints deltas against these entries but
# never gates on them).
#
# Entries use bench_profile --plain: the observability layer is off so
# the record isolates model cost.
#
# Usage: scripts/bench_baseline.sh   (writes BENCH_baseline.json)
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline -q -p smtsim-bench
BP=target/release/bench_profile

best_of_3() { # workload cycles -> one JSON record on stdout
    local best="" bs="" line s
    for _ in 1 2 3; do
        line=$("$BP" --workload "$1" --policy mflush --cycles "$2" --plain --json)
        s=$(printf '%s' "$line" | sed 's/.*"host_seconds": \([0-9.]*\).*/\1/')
        if [ -z "$best" ] || awk "BEGIN{exit !($s < $bs)}"; then
            best="$line" bs="$s"
        fi
    done
    printf '%s' "$best"
}

{
    echo '{'
    echo '  "note": "Host-time baselines from bench_profile --plain --json (best of 3). Machine-dependent: ci.sh prints the delta against these, it never gates on them. Regenerate with scripts/bench_baseline.sh.",'
    echo '  "entries": ['
    first=1
    for spec in "4W3 300000" "6W2 1000000"; do
        # shellcheck disable=SC2086
        set -- $spec
        [ "$first" -eq 0 ] && echo ','
        first=0
        printf '    %s' "$(best_of_3 "$1" "$2")"
    done
    echo ''
    echo '  ]'
    echo '}'
} > BENCH_baseline.json
echo "wrote BENCH_baseline.json:"
cat BENCH_baseline.json
