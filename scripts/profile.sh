#!/usr/bin/env bash
# Where one benchmark workload spends its CPU, without perf: builds the
# benchmark, runs it untraced with scripts/sampler.c preloaded (SIGPROF
# PC samples at 5 kHz), names every sample with `addr2line -f -C` (the
# nearest preceding dynamic symbol for stripped shared libraries such as
# libm) and prints the 30 hottest functions with their share of samples.
#
#   bash scripts/profile.sh <workload> [seconds]     (default 20 s, seed 1)
#
# Samples land in target/profile/<workload>.pcs. An on-demand tool, not a
# CI step; compare two commits by running it in each checkout.
set -euo pipefail

workload=${1:?usage: scripts/profile.sh <workload> [seconds]}
seconds=${2:-20}
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/target/profile"
mkdir -p "$out"
cc -O2 -shared -fPIC -o "$out/sampler.so" "$root/scripts/sampler.c"
cargo build --release --offline --manifest-path "$root/benchmark/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$root/benchmark/target}/release/libra-benchmark"
pcs="$out/$workload.pcs"
SAMPLER_OUT="$pcs" LD_PRELOAD="$out/sampler.so" \
    "$bin" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 >/dev/null

# `count file offset` per distinct PC, then one name per PC, file by file.
counts="$out/$workload.counts"
sort "$pcs" | uniq -c >"$counts"
for file in $(awk '{ print $2 }' "$counts" | sort -u); do
    awk -v f="$file" '$2 == f { print $1, $3 }' "$counts" >"$out/one"
    if [[ ! -f "$file" ]]; then
        names=$(awk -v f="$file" '{ print f }' "$out/one")
    else
        names=$(awk '{ print "0x" $2 }' "$out/one" | addr2line -f -C -e "$file" | awk 'NR % 2')
        if grep -q '^??$' <<<"$names"; then
            # No symbol table: offsets and nm's addresses are both 16-digit
            # hex, so string order is address order.
            names=$(nm -D --defined-only "$file" | sort | awk -v pcs="$out/one" '
                { addr[NR] = $1; sym[NR] = $3 }
                END { while ((getline line < pcs) > 0) {
                    split(line, f, " "); best = "??"
                    for (j = 1; j <= NR; j++) if (addr[j] <= f[2]) best = sym[j]
                    print best } }')
        fi
    fi
    paste -d' ' <(awk '{ print $1 }' "$out/one") <(sed 's/::h[0-9a-f]\{16\}$//' <<<"$names") |
        sed "s|\$|  [${file##*/}]|"
done | awk -v total="$(wc -l <"$pcs")" '
    { n = $1; $1 = ""; sum[substr($0, 2)] += n }
    END { for (k in sum) printf "%6.2f%%  %7d  %s\n", 100 * sum[k] / total, sum[k], k }
' | sort -rn | head -30
echo "($(wc -l <"$pcs") samples; $workload, --seconds $seconds)"
