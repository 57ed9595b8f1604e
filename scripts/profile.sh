#!/usr/bin/env bash
# Where one benchmark workload spends its CPU, without perf: builds the
# benchmark with function-level debug info, runs it untraced with
# scripts/sampler.c preloaded (SIGPROF PC samples at 5 kHz), names every
# sample with `addr2line -i -f -C` (the nearest preceding dynamic symbol
# for stripped shared libraries such as libm) and prints two tables of
# the 30 hottest names with their share of samples:
#
#   by function           the outermost frame: the function the
#                         compiler emitted, which inlined code counts in;
#   by innermost inlined  the source function the PC's line belongs to,
#   frame                 so hot spots inlined into a caller (a quantile
#                         update inside an ACK handler) show by name.
#
#   bash scripts/profile.sh <workload> [seconds]     (default 20 s, seed 1)
#
# The build uses `debug = "limited"`: line tables plus each function's
# qualified name, which an inlined frame needs (with line tables alone
# both `P2Quantile::update` and `Welford::update` print as `update`).
# Debug info changes no codegen. The build lives in
# target/profile/target, apart from the benchmark's own; samples land in
# target/profile/<workload>.pcs. An on-demand tool, not a CI step;
# compare two commits by running it in each checkout.
set -euo pipefail

workload=${1:?usage: scripts/profile.sh <workload> [seconds]}
seconds=${2:-20}
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/target/profile"
mkdir -p "$out"
cc -O2 -shared -fPIC -o "$out/sampler.so" "$root/scripts/sampler.c"
CARGO_PROFILE_RELEASE_DEBUG=limited CARGO_TARGET_DIR="$out/target" \
    cargo build --release --offline --manifest-path "$root/benchmark/Cargo.toml" >&2
bin="$out/target/release/libra-benchmark"
pcs="$out/$workload.pcs"
SAMPLER_OUT="$pcs" LD_PRELOAD="$out/sampler.so" \
    "$bin" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 >/dev/null

# `count file offset` per distinct PC, then `outer<TAB>inner` names per
# PC, file by file: addr2line -a -i prints each address, then one
# function/location pair per frame, innermost first.
counts="$out/$workload.counts"
sort "$pcs" | uniq -c >"$counts"
for file in $(awk '{ print $2 }' "$counts" | sort -u); do
    awk -v f="$file" '$2 == f { print $1, $3 }' "$counts" >"$out/one"
    if [[ ! -f "$file" ]]; then
        names=$(awk -v f="$file" '{ print f "\t" f }' "$out/one")
    else
        names=$(awk '{ print "0x" $2 }' "$out/one" | addr2line -a -i -f -C -e "$file" | awk '
            /^0x[0-9a-f]+$/ { if (k) print outer "\t" inner; k = 0; next }
            { k++ }
            k == 1 { inner = $0 }
            k % 2 == 1 { outer = $0 }
            END { if (k) print outer "\t" inner }')
        if grep -q '^??' <<<"$names"; then
            # No symbol table: offsets and nm's addresses are both 16-digit
            # hex, so string order is address order.
            names=$(nm -D --defined-only "$file" | sort | awk -v pcs="$out/one" '
                { addr[NR] = $1; sym[NR] = $3 }
                END { while ((getline line < pcs) > 0) {
                    split(line, f, " "); best = "??"
                    for (j = 1; j <= NR; j++) if (addr[j] <= f[2]) best = sym[j]
                    print best "\t" best } }')
        fi
    fi
    paste <(awk '{ print $1 }' "$out/one") <(sed 's/::h[0-9a-f]\{16\}\(\t\|$\)/\1/g' <<<"$names") |
        awk -F'\t' -v lib="${file##*/}" '{ print $1 "\t" $2 "  [" lib "]\t" $3 "  [" lib "]" }'
done >"$out/$workload.named"

total=$(wc -l <"$pcs")
# Sum samples per name in column `col` and print the 30 largest. awk,
# not head, cuts the list: head would exit early and kill sort with
# SIGPIPE, failing the script under pipefail.
top30() {
    awk -F'\t' -v col="$1" -v total="$total" '
        { sum[$col] += $1 }
        END { for (k in sum) printf "%6.2f%%  %7d  %s\n", 100 * sum[k] / total, sum[k], k }
    ' "$out/$workload.named" | sort -rn | awk 'NR <= 30'
}
echo "== by function"
top30 2
echo "== by innermost inlined frame"
top30 3
echo "($total samples; $workload, --seconds $seconds)"
