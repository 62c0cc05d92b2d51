#!/usr/bin/env bash
# Perf gate: the medians of three traced `dse` runs of the benchmark binary
# against committed baselines.
#
#   scripts/perf_gate.sh <benchmark-bin>
#
# A traced run (`--trace 1`) reports every per-layer metric BENCHMARK.json
# lists. The gate reads three of them from `--workload dse --seconds 0.5`:
# the screened production sweep (`dse.production_s`), one screening bound
# (`dse.screen_bounds_ns`) and the simulator's host cost per event on
# serving-open's scenario (`sim.host_ns_per_event`). For each it prints
# `metric baseline median ratio [ok|FAIL]`. It exits nonzero if any median
# is more than 2x its baseline, if a metric is missing, or if any run fails,
# reports `correct: false` or reports `failed` > 0.
#
# The bound is wide because each probe also reads in a slow mode about 1.3-1.6x
# above its usual one on unchanged code; `dse.evaluate_us` is left out, as it
# spreads over 3x on unchanged code. Each baseline is the median of 5 traced
# runs on a 2-core x86 host. To re-bless, edit its line and add the
# before -> after to CHANGES.md. Needs only bash and awk.
set -euo pipefail

baselines='
dse.production_s 0.0198
dse.screen_bounds_ns 131
sim.host_ns_per_event 60.7
'

if [[ $# -ne 1 ]]; then
    echo "usage: $0 <benchmark-bin>" >&2
    exit 2
fi
bin=$1

results=""
for run in 1 2 3; do
    out=$("$bin" --workload dse --seconds 0.5 --trace 1) || {
        echo "perf_gate.sh: run $run failed" >&2
        exit 1
    }
    line=${out##*$'\n'}
    if [[ $line != *'"correct": true,'* || $line != *'"failed": 0,'* ]]; then
        echo "perf_gate.sh: run $run is not clean: $line" >&2
        exit 1
    fi
    results+=$line$'\n'
done

awk -v baselines="$baselines" '
    function median3(a, b, c,    t) {
        if (a > b) { t = a; a = b; b = t }
        return c < a ? a : (c > b ? b : c)
    }
    BEGIN {
        n = split(baselines, lines, "\n")
        for (i = 1; i <= n; i++) {
            if (split(lines[i], f, " ") == 2) { order[++metrics] = f[1]; baseline[f[1]] = f[2] }
        }
    }
    NF {
        runs++
        for (k = 1; k <= metrics; k++) {
            m = order[k]
            key = "\"" m "\": {\"value\": "
            at = index($0, key)
            if (at) { value[m, ++seen[m]] = substr($0, at + length(key)) + 0 }
        }
    }
    END {
        status = 0
        printf "%-24s %12s %12s %7s\n", "metric", "baseline", "median", "ratio"
        for (k = 1; k <= metrics; k++) {
            m = order[k]
            if (seen[m] != runs) {
                printf "%-24s missing from %d of %d runs [FAIL]\n", m, runs - seen[m], runs
                status = 1
                continue
            }
            median = median3(value[m, 1], value[m, 2], value[m, 3])
            ratio = median / baseline[m]
            verdict = ratio > 2 ? "FAIL" : "ok"
            if (verdict == "FAIL") status = 1
            printf "%-24s %12.6g %12.6g %7.2f [%s]\n", m, baseline[m], median, ratio, verdict
        }
        exit status
    }
' <<<"$results"
