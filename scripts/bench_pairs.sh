#!/usr/bin/env bash
# Compare this checkout against a parent revision on the wall-clock
# benchmark, the way every perf claim in this repository is judged:
# alternating parent/change pairs of the BENCHMARK.json command.
#
#   scripts/bench_pairs.sh [--json FILE] <parent-rev> <workload>[,<workload>...] [pairs=10]
#
# The parent is unpacked with `git archive` into a temporary directory
# (under $TMPDIR), both benchmark/ packages are built with --offline
# --locked into target directories of their own in there, and each pair
# runs `--workload W --seed i --seconds 24 --trace 0` once per side: pair
# i on seed i, odd pairs parent first, even pairs change first. The
# change is the working tree this script sits in, committed or not.
#
# Per workload and end-to-end metric it prints each side's median and
# quartiles, the ratio of the medians (change / parent) and the pairs
# each side won (ties to neither). Every run's result line is printed as
# it finishes. --json FILE also writes the medians under BENCHMARK.json's
# metric names.
#
# Exit status: 0 when every run finished with "correct": true and no
# failed batch, 1 otherwise (the campaign still runs to its end), 2 on a
# usage or build error. About (2 x 29 s) per pair per workload, plus two
# builds; the box has two cores, so run nothing else meanwhile.
#
# Needs bash, git, tar, cargo, awk, sed, sort. Downloads nothing.

set -euo pipefail

SECONDS_PER_RUN=24

usage() {
    sed -n '2,/^$/s/^# \{0,1\}//p' "$0" >&2
    exit 2
}

JSON_OUT=""
ARGS=()
while [[ $# -gt 0 ]]; do
    case "$1" in
        --json)
            [[ $# -ge 2 ]] || usage
            JSON_OUT="$2"
            shift 2
            ;;
        -h | --help) usage ;;
        -*)
            echo "unknown flag: $1" >&2
            usage
            ;;
        *)
            ARGS+=("$1")
            shift
            ;;
    esac
done
[[ ${#ARGS[@]} -ge 2 && ${#ARGS[@]} -le 3 ]] || usage
PARENT_REV="${ARGS[0]}"
IFS=',' read -r -a WORKLOADS <<<"${ARGS[1]}"
PAIRS="${ARGS[2]:-10}"
[[ "$PAIRS" =~ ^[1-9][0-9]*$ ]] || usage

REPO="$(cd "$(dirname "$0")/.." && pwd)"
PARENT_SHA="$(git -C "$REPO" rev-parse --short "$PARENT_REV^{commit}")" || {
    echo "not a revision: $PARENT_REV" >&2
    exit 2
}
CHANGE_SHA="$(git -C "$REPO" rev-parse --short HEAD)"
[[ -z "$(git -C "$REPO" status --porcelain)" ]] || CHANGE_SHA+="+worktree"

# name unit better, one line per end-to-end metric of the manifest.
METRICS="$(sed -n '/"end_to_end"/,/\]/p' "$REPO/BENCHMARK.json" |
    sed -n 's/.*"name": "\([^"]*\)", "unit": "\([^"]*\)", "better": "\([^"]*\)".*/\1 \2 \3/p')"
[[ -n "$METRICS" ]] || {
    echo "no end_to_end metrics found in BENCHMARK.json" >&2
    exit 2
}
for workload in "${WORKLOADS[@]}"; do
    grep -q "{\"name\": \"$workload\"," "$REPO/BENCHMARK.json" || {
        echo "not a BENCHMARK.json workload: $workload" >&2
        exit 2
    }
done

WORK="$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
mkdir "$WORK/parent" "$WORK/run"
git -C "$REPO" archive "$PARENT_SHA" | tar -x -C "$WORK/parent"

build() { # <side> <checkout>
    echo "# building $1 ($2)" >&2
    CARGO_TARGET_DIR="$WORK/target-$1" cargo build --release --offline --locked --quiet \
        --manifest-path "$2/benchmark/Cargo.toml" || exit 2
}
build parent "$WORK/parent"
build change "$REPO"

RUNS="$WORK/runs.txt" # workload pair side metric value
BAD=0

run_one() { # <workload> <pair> <side>
    local workload="$1" pair="$2" side="$3" line status=0
    line="$(cd "$WORK/run" && "$WORK/target-$side/release/rcc-benchmark" \
        --workload "$workload" --seed "$pair" --seconds "$SECONDS_PER_RUN" --trace 0 |
        tail -n 1)" || status=$?
    echo "$workload pair $pair $side: $line"
    if [[ $status -ne 0 || "$line" != *'"correct": true'* || "$line" != *'"failed": 0,'* ]]; then
        echo "# BAD RUN (exit $status): $workload pair $pair $side" >&2
        BAD=1
    fi
    local name unit better value
    while read -r name unit better; do
        value="$(sed -n "s/.*\"$name\": {\"value\": \([^,}]*\).*/\1/p" <<<"$line")"
        if [[ -n "$value" ]]; then
            echo "$workload $pair $side $name $value" >>"$RUNS"
        fi
    done <<<"$METRICS"
}

echo "# parent $PARENT_SHA, change $CHANGE_SHA, $PAIRS pairs x ${SECONDS_PER_RUN} s, workloads: ${WORKLOADS[*]}"
for workload in "${WORKLOADS[@]}"; do
    for ((pair = 1; pair <= PAIRS; pair++)); do
        if ((pair % 2 == 1)); then
            run_one "$workload" "$pair" parent
            run_one "$workload" "$pair" change
        else
            run_one "$workload" "$pair" change
            run_one "$workload" "$pair" parent
        fi
    done
done

# Medians, quartiles (linear interpolation between order statistics),
# ratio and pairs won, per workload and metric; optionally the JSON file.
summarise() {
    sort -k1,1 -k4,4 -k3,3 -k5,5g "$RUNS" | awk -v metrics="${METRICS//$'\n'/;}" -v json="$JSON_OUT" \
        -v parent="$PARENT_SHA" -v change="$CHANGE_SHA" -v pairs="$PAIRS" \
        -v seconds="$SECONDS_PER_RUN" -v workloads="${WORKLOADS[*]}" '
    function quantile(key, n, p,    at, lo, frac) {
        at = (n - 1) * p; lo = int(at); frac = at - lo
        if (lo + 1 >= n) return sorted[key, n - 1]
        return sorted[key, lo] + frac * (sorted[key, lo + 1] - sorted[key, lo])
    }
    function fmt(x) { return sprintf((x >= 1000 ? "%.0f" : "%.4g"), x) }
    {
        key = $1 SUBSEP $4 SUBSEP $3          # workload, metric, side
        sorted[key, count[key]++] = $5        # input arrives sorted by value
        by_pair[$1, $4, $3, $2] = $5
    }
    END {
        n_metrics = split(metrics, lines, ";")
        n_workloads = split(workloads, wl, " ")
        if (json != "") {
            printf "{\n  \"parent\": \"%s\",\n  \"change\": \"%s\",\n  \"pairs\": %d,\n  \"seconds\": %d,\n  \"workloads\": {\n", parent, change, pairs, seconds > json
        }
        for (w = 1; w <= n_workloads; w++) {
            printf "\n%s\n%-16s %-8s %34s %34s %7s  %s\n", wl[w], "metric", "unit", "parent median (q1-q3)", "change median (q1-q3)", "ratio", "pairs won (change/parent)"
            if (json != "") printf "    \"%s\": {\n", wl[w] > json
            for (m = 1; m <= n_metrics; m++) {
                split(lines[m], f, " "); name = f[1]; unit = f[2]; better = f[3]
                pk = wl[w] SUBSEP name SUBSEP "parent"; ck = wl[w] SUBSEP name SUBSEP "change"
                pn = count[pk]; cn = count[ck]
                if (pn == 0 || cn == 0) continue
                pm = quantile(pk, pn, 0.5); cm = quantile(ck, cn, 0.5)
                won = 0; lost = 0
                for (i = 1; i <= pairs; i++) {
                    if (!((wl[w], name, "parent", i) in by_pair) || !((wl[w], name, "change", i) in by_pair)) continue
                    d = by_pair[wl[w], name, "change", i] - by_pair[wl[w], name, "parent", i]
                    if (better == "lower") d = -d
                    if (d > 0) won++; else if (d < 0) lost++
                }
                printf "%-16s %-8s %34s %34s %7.3f  %d/%d of %d\n", name, unit, \
                    fmt(pm) " (" fmt(quantile(pk, pn, 0.25)) "-" fmt(quantile(pk, pn, 0.75)) ")", \
                    fmt(cm) " (" fmt(quantile(ck, cn, 0.25)) "-" fmt(quantile(ck, cn, 0.75)) ")", \
                    (pm != 0 ? cm / pm : 0), won, lost, pairs
                if (json != "") printf "      \"%s\": {\"unit\": \"%s\", \"parent\": %.7g, \"change\": %.7g}%s\n", name, unit, pm, cm, (m < n_metrics ? "," : "") > json
            }
            if (json != "") printf "    }%s\n", (w < n_workloads ? "," : "") > json
        }
        if (json != "") printf "  }\n}\n" > json
    }'
}
summarise

if [[ $BAD -ne 0 ]]; then
    echo "# at least one run was incorrect or had failed batches (see BAD RUN above)" >&2
    exit 1
fi
