#!/usr/bin/env bash
# Where one benchmark workload spends its CPU, without perf: builds the
# benchmark with function-level debug info, runs it untraced with
# scripts/sampler.c preloaded (SIGPROF PC samples at 5 kHz), names every
# sample with `addr2line -i -f -C` and prints three tables of the 30
# hottest names with their share of samples:
#
#   by function           the outermost frame: the function the
#                         compiler emitted, which inlined code counts in;
#   by innermost inlined  the source function the PC's line belongs to,
#   frame                 so hot spots inlined into a caller (a quantile
#                         update inside an ACK handler) show by name;
#   by innermost frame    the same, with the frame it is inlined into, so
#   and its caller        a generic helper (`core::ptr::write`) says what
#                         it serves (`… in Vec<T>::push`).
#
# A stripped shared library (libm) has no names but its exports. A PC
# there is named by the function holding it — its `.eh_frame` entry —
# as the nearest export at or below that function's start, with the
# offset when the function is not the export itself: libm's internal
# exp kernel prints as `f64xsubf128@@GLIBC_2.28+0x…`, not as
# `f64xsubf128`, and each such function gets one row.
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

# `count file offset` per distinct PC, then `outer<TAB>inner<TAB>inner
# in caller` names per PC, file by file: addr2line -a -i prints each
# address, then one function/location pair per frame, innermost first.
counts="$out/$workload.counts"
sort "$pcs" | uniq -c >"$counts"
for file in $(awk '{ print $2 }' "$counts" | sort -u); do
    awk -v f="$file" '$2 == f { print $1, $3 }' "$counts" >"$out/one"
    if [[ ! -f "$file" ]]; then
        names=$(awk -v f="$file" '{ print f "\t" f "\t" f }' "$out/one")
    else
        names=$(awk '{ print "0x" $2 }' "$out/one" | addr2line -a -i -f -C -e "$file" | awk '
            function emit() { print outer "\t" inner "\t" (k > 2 ? inner "  in  " above : inner) }
            /^0x[0-9a-f]+$/ { if (k) emit(); k = 0; next }
            { k++ }
            k == 1 { inner = $0 }
            k == 3 { above = $0 }
            k % 2 == 1 { outer = $0 }
            END { if (k) emit() }')
        if grep -q '^??' <<<"$names"; then
            # No symbol table: `F lo hi` per .eh_frame function, `S addr
            # export` per export (sorted, so of several aliases the last
            # wins; absolute version nodes such as GLIBC_2.4 skipped), then
            # `P count offset` per PC, in one awk pass.
            names=$({
                readelf -wf "$file" 2>/dev/null | awk '/ FDE / {
                    for (i = 1; i <= NF; i++) if ($i ~ /^pc=/) { split(substr($i, 4), r, "[.][.]"); print "F", r[1], r[2] } }'
                nm -D --defined-only "$file" | sort | awk '$2 != "A" { print "S", $1, $3 }'
                sed 's/^/P /' "$out/one"
            } | awk '
                function hex(s,   i, n) {
                    n = 0
                    for (i = 1; i <= length(s); i++) n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
                    return n
                }
                $1 == "F" { nf++; lo[nf] = hex($2); hi[nf] = hex($3) }
                $1 == "S" { ns++; at[ns] = hex($2); sym[ns] = $3 }
                $1 == "P" { np++; pc[np] = hex($3) }
                END { for (p = 1; p <= np; p++) {
                    start = pc[p]
                    for (j = 1; j <= nf; j++) if (lo[j] <= pc[p] && pc[p] < hi[j]) { start = lo[j]; break }
                    best = "??"; base = -1
                    for (j = 1; j <= ns; j++) if (at[j] <= start && at[j] >= base) { base = at[j]; best = sym[j] }
                    name = (best == "??" || base == start) ? best : sprintf("%s+0x%x", best, start - base)
                    print name "\t" name "\t" name } }')
        fi
    fi
    paste <(awk '{ print $1 }' "$out/one") <(sed 's/::h[0-9a-f]\{16\}\(\t\|  in  \|$\)/\1/g' <<<"$names") |
        awk -F'\t' -v lib="${file##*/}" '{ print $1 "\t" $2 "  [" lib "]\t" $3 "  [" lib "]\t" $4 "  [" lib "]" }'
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
echo "== by innermost inlined frame and the frame it is inlined into"
top30 4
echo "($total samples; $workload, --seconds $seconds)"
