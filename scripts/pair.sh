#!/usr/bin/env bash
# Paired benchmark comparison of two commits:
#
#   scripts/pair.sh <base> <change> [workload…] --pairs N --seed S
#                   [--seconds 20] [--trace-seconds 5] [--dir D]
#
# <base> and <change> are git revisions, or `.` for the work tree as it
# is (tracked and untracked, not ignored, files). Each side is exported
# into its own directory under D (default: a fresh `mktemp -d`) and its
# benchmark built there into its own fresh CARGO_TARGET_DIR, so neither
# side reuses the other's artifacts or this checkout's `target/`. With
# no workload named, every workload runs.
#
# Per workload: N pairs of `--trace 0` runs at --seconds, the side that
# goes first alternating pair by pair, then one `--trace 1` run per side
# at --trace-seconds. It prints one Markdown block per workload: every
# end-to-end metric's raw runs per side, median, interquartile range and
# how many pairs the change won, then every exact count of the traced
# runs (metrics in `count` units, and the allocator's per-packet rates)
# side by side.
#
# The verdict rule, applied once per metric: *improved* needs the change
# better in at least nine tenths of the pairs and its median past the
# base's by more than the base's IQR; *worse* is the same rule the other
# way; anything else is *unresolved*. `bound` is the median's relative
# move against BENCHMARK.json's bound for that metric (`over` fails the
# benchmark's gate).
set -euo pipefail
export LC_ALL=C

usage() {
    sed -n '2,5p' "$0" >&2
    exit 2
}

workloads=() pairs="" seed="" seconds=20 trace_seconds=5 dir=""
revs=()
while (($#)); do
    case "$1" in
        --pairs) pairs=$2; shift ;;
        --seed) seed=$2; shift ;;
        --seconds) seconds=$2; shift ;;
        --trace-seconds) trace_seconds=$2; shift ;;
        --dir) dir=$2; shift ;;
        -h|--help) usage ;;
        -*) echo "pair.sh: unknown option $1" >&2; usage ;;
        *) if ((${#revs[@]} < 2)); then revs+=("$1"); else workloads+=("$1"); fi ;;
    esac
    shift
done
((${#revs[@]} == 2)) && [[ -n $pairs && -n $seed ]] || usage
((${#workloads[@]})) || workloads=(classic_fleet incast_burst rl_fleet report_sweep)

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
dir=${dir:-$(mktemp -d)}
mkdir -p "$dir"

# Export one side's files into $dir/<side>/src and build its benchmark.
build() {
    local side=$1 rev=$2 src="$dir/$1/src"
    rm -rf "${dir:?}/$side"
    mkdir -p "$src"
    if [[ $rev == . ]]; then
        (cd "$repo" && git ls-files -z -co --exclude-standard | tar --null -T - -c) | tar -x -C "$src"
    else
        git -C "$repo" archive "$rev" | tar -x -C "$src"
    fi
    echo "pair.sh: building $side ($rev) in $src" >&2
    CARGO_TARGET_DIR="$dir/$side/target" cargo build --release --offline -q \
        --manifest-path "$src/benchmark/Cargo.toml" >&2
}

build base "${revs[0]}"
build change "${revs[1]}"
bin() { echo "$dir/$1/target/release/libra-benchmark"; }

# `name better bound` for every end-to-end metric (BENCHMARK.json keeps
# one key per line).
e2e=$(awk '
    /"end_to_end"/ { on = 1 }
    on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
    on && /"better"/ { gsub(/[",]/, "", $2); better = $2 }
    on && /"bound"/ { gsub(/[",]/, "", $2); print name, better, $2 }
    on && /^  \]/ { exit }
' "$dir/change/src/BENCHMARK.json")

# One run; appends `metric value` lines to $out and `correct failed` to
# $out.ok.
run() {
    local side=$1 workload=$2 trace=$3 secs=$4 out=$5 log
    log=$("$(bin "$side")" --workload "$workload" --seed "$seed" --seconds "$secs" \
        --trace "$trace" 2>/dev/null) || true
    awk 'NF >= 3 && $3 ~ /^-?[0-9.eE+-]+$/ { print $1, $2, $3 }' <<<"$log" >>"$out"
    tail -n 1 <<<"$log" | awk '{
        c = match($0, /"correct": true/) ? 1 : 0
        f = match($0, /"failed": [0-9]+/) ? substr($0, RSTART + 10, RLENGTH - 10) : "?"
        print c, f
    }' >>"$out.ok"
}

# The value of metric $1 in run file $2.
value() { awk -v m="$1" '$1 == m { print $3 }' "$2"; }

# Median and quartiles (linear interpolation) of the numbers on stdin.
quartiles() {
    sort -g | awk '
        { v[NR] = $1 }
        function q(p,  h, i) { h = (NR - 1) * p + 1; i = int(h); return v[i] + (h - i) * (v[i + 1] - v[i]) }
        END { v[NR + 1] = v[NR]; printf "%.6g %.6g %.6g\n", q(0.5), q(0.25), q(0.75) }'
}

for workload in "${workloads[@]}"; do
    w="$dir/$workload"
    rm -rf "$w"
    mkdir -p "$w"
    for ((i = 0; i < pairs; i++)); do
        order=(base change)
        ((i % 2)) && order=(change base)
        for side in "${order[@]}"; do
            run "$side" "$workload" 0 "$seconds" "$w/$side.$i"
        done
        echo "pair.sh: $workload pair $((i + 1))/$pairs done" >&2
    done
    for side in base change; do
        run "$side" "$workload" 1 "$trace_seconds" "$w/$side.trace"
    done

    echo
    echo "### \`$workload\`: ${revs[0]} → ${revs[1]}, seed $seed, $pairs pairs × $seconds s"
    echo
    for side in base change; do
        bad=$(cat "$w/$side".[0-9]*.ok | awk '$1 != 1 || $2 != 0' | wc -l)
        echo "- $side: $bad of $pairs runs not \`correct\` or with failed operations"
    done
    echo
    echo "| metric | base runs | change runs | base median (IQR) | change median | Δ median | change better | bound | verdict |"
    echo "|---|---|---|---|---|---|---|---|---|"
    while read -r name better bound; do
        b=() c=()
        for ((i = 0; i < pairs; i++)); do
            b+=("$(value "$name" "$w/base.$i")")
            c+=("$(value "$name" "$w/change.$i")")
        done
        read -r bmed bq1 bq3 < <(printf '%s\n' "${b[@]}" | quartiles)
        read -r cmed _ _ < <(printf '%s\n' "${c[@]}" | quartiles)
        wins=0
        for ((i = 0; i < pairs; i++)); do
            if awk -v b="${b[i]}" -v c="${c[i]}" -v hi="$better" \
                'BEGIN { exit !((hi == "higher") ? c > b : c < b) }'; then
                wins=$((wins + 1))
            fi
        done
        awk -v name="$name" -v hi="$better" -v bound="$bound" -v wins="$wins" -v n="$pairs" \
            -v bmed="$bmed" -v bq1="$bq1" -v bq3="$bq3" -v cmed="$cmed" \
            -v bruns="$(printf '%.4g ' "${b[@]}")" -v cruns="$(printf '%.4g ' "${c[@]}")" 'BEGIN {
            gain = (hi == "higher") ? cmed - bmed : bmed - cmed
            rel = (bmed != 0) ? (cmed - bmed) / bmed : 0
            worse_rel = (hi == "higher") ? -rel : rel
            iqr = bq3 - bq1
            verdict = "unresolved"
            if (wins >= 0.9 * n && gain > iqr) verdict = "**improved**"
            else if (n - wins >= 0.9 * n && -gain > iqr) verdict = "**worse**"
            printf "| %s | %s | %s | %.6g (%.6g–%.6g) | %.6g | %+.1f %% | %d/%d | %s | %s |\n",
                name, bruns, cruns, bmed, bq1, bq3, cmed, 100 * rel, wins, n,
                (worse_rel > bound) ? "**over**" : "within", verdict
        }'
    done <<<"$e2e"
    echo
    echo "Exact counts, one \`--trace 1\` run per side at $trace_seconds s:"
    echo
    echo "| metric | unit | base | change | |"
    echo "|---|---|---|---|---|"
    awk 'NR == FNR { if ($2 == "count" || $1 ~ /^netsim\.run\./) base[$1] = $3; unit[$1] = $2; next }
         ($1 in base) { print $1, unit[$1], base[$1], $3, (base[$1] == $3) ? "=" : "**≠**" }' \
        "$w/base.trace" "$w/change.trace" |
        awk '{ printf "| %s | %s | %s | %s | %s |\n", $1, $2, $3, $4, $5 }'
done
