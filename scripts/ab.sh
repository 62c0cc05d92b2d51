#!/usr/bin/env bash
# Alternating-pairs A/B of two builds of the benchmark binary.
#
#   scripts/ab.sh <workload> <seconds> <pairs> <parent-bin> <change-bin> [seed]
#
# Each pair runs both binaries once, untraced, for <seconds> each; the
# parent runs first in odd pairs and the change first in even ones, so a
# drift in machine speed does not favour one side. For every end-to-end
# metric the run reports, it prints each side's median and quartiles and
# in how many pairs the change did better (the direction comes from
# BENCHMARK.json). Each run's result line goes to stderr as it finishes.
# It exits nonzero if any run fails, reports `correct: false` or reports
# `failed` > 0.
#
# Build the two binaries from two checkouts, for example:
#   cargo build --release --manifest-path benchmark/Cargo.toml
#   cp benchmark/target/release/timely-benchmark /tmp/change-bin
# Needs only bash and awk.
set -euo pipefail

if [[ $# -lt 5 || $# -gt 6 ]]; then
    echo "usage: $0 <workload> <seconds> <pairs> <parent-bin> <change-bin> [seed]" >&2
    exit 2
fi
workload=$1 seconds=$2 pairs=$3 parent=$4 change=$5
seed_args=()
[[ $# -eq 6 ]] && seed_args=(--seed "$6")
benchmark_json="$(dirname "$0")/../BENCHMARK.json"

# One untraced run of side $1 (binary $2) in pair $3: prints
# "<side> <pair> <result line>".
run() {
    local out line
    out=$("$2" --workload "$workload" --seconds "$seconds" --trace 0 "${seed_args[@]}")
    line=${out##*$'\n'}
    if [[ $line != *'"correct": true,'* || $line != *'"failed": 0,'* ]]; then
        echo "ab.sh: the $1 run of pair $3 is not clean: $line" >&2
        return 1
    fi
    echo "$1 $3 $line"
}

results=""
for ((pair = 1; pair <= pairs; pair++)); do
    sides=(parent change)
    ((pair % 2)) || sides=(change parent)
    for side in "${sides[@]}"; do
        bin=$parent
        [[ $side == change ]] && bin=$change
        line=$(run "$side" "$bin" "$pair")
        echo "$line" >&2
        results+=$line$'\n'
    done
done

awk -v benchmark_json="$benchmark_json" '
    # Linear-interpolated quantile q of the ascending array v[1..n].
    function quantile(v, n, q,    h, lo) {
        h = (n - 1) * q + 1
        lo = int(h)
        return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    function sort(v, n,    i, j, x) {
        for (i = 2; i <= n; i++) {
            x = v[i]
            for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
            v[j + 1] = x
        }
    }
    function summary(side, m,    v, i, n) {
        n = pairs_seen
        for (i = 1; i <= n; i++) v[i] = value[side, m, i]
        sort(v, n)
        return sprintf("%14.6g %14.6g %14.6g", quantile(v, n, 0.25), quantile(v, n, 0.5), quantile(v, n, 0.75))
    }
    BEGIN {
        # The "better" direction of each metric BENCHMARK.json declares.
        while ((getline line < benchmark_json) > 0) {
            if (match(line, /"name": "[^"]+"/)) {
                name = substr(line, RSTART + 9, RLENGTH - 10)
                if (match(line, /"better": "[a-z]+"/)) better[name] = substr(line, RSTART + 11, RLENGTH - 12)
            }
        }
    }
    NF {
        side = $1; pair = $2
        if (pair > pairs_seen) pairs_seen = pair
        rest = $0
        while (match(rest, /"[A-Za-z0-9_.]+": \{"value": [^,}]+/)) {
            field = substr(rest, RSTART, RLENGTH)
            rest = substr(rest, RSTART + RLENGTH)
            m = substr(field, 2, index(field, "\":") - 2)
            sub(/.*"value": /, "", field)
            if (!(m in seen)) { seen[m] = 1; order[++metrics] = m }
            value[side, m, pair] = field + 0
        }
    }
    END {
        printf "%-12s %-7s %14s %14s %14s\n", "metric", "side", "q1", "median", "q3"
        for (k = 1; k <= metrics; k++) {
            m = order[k]
            wins = 0
            for (p = 1; p <= pairs_seen; p++) {
                a = value["parent", m, p]; b = value["change", m, p]
                if ((better[m] == "higher" && b > a) || (better[m] == "lower" && b < a)) wins++
            }
            printf "%-12s %-7s %s\n", m, "parent", summary("parent", m)
            printf "%-12s %-7s %s\n", "", "change", summary("change", m)
            printf "%-12s change better in %d/%d pairs (%s is better)\n", "", wins, pairs_seen, better[m]
        }
    }
' <<<"$results"
