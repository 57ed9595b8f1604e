#!/usr/bin/env bash
# The benchmark's one command. Builds the package offline in release
# mode, then:
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload in one process (what BENCHMARK.json's
#       driver calls); the last line of stdout is the result object.
#   run.sh [--seed <n>] [--seconds <s>]
#       the whole board: every workload untraced, then traced with the
#       layer drivers, one process each (so peak_rss_mib is per
#       workload). Every metric prints as `name unit value [median p66 n]`.
#   run.sh --check
#       the whole board at --seconds 2: every check and every metric in
#       under a minute, for CI.
#
# Exits non-zero if the build or any run fails a check.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/libra-benchmark"

if [[ " $* " == *" --workload "* ]]; then
    exec "$bin" "$@"
fi

seed=1
seconds=20
while (($#)); do
    case "$1" in
        --check) seconds=2 ;;
        --seed) seed=$2; shift ;;
        --seconds) seconds=$2; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
    shift
done

status=0
for workload in classic_fleet incast_burst rl_fleet report_sweep; do
    for trace in 0 1; do
        echo "== $workload --seed $seed --seconds $seconds --trace $trace"
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" || status=1
    done
done
exit $status
