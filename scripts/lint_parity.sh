#!/usr/bin/env bash
# Finding parity of two libra-lint builds over the repo's history:
#
#   scripts/lint_parity.sh <base> <change> [--dir D]
#
# <base> and <change> are git revisions, or `.` for the work tree as it
# is (tracked and untracked, not ignored, files). Each side is exported
# into its own directory under D (default: a fresh `mktemp -d`) and its
# `libra-lint` built there into its own fresh CARGO_TARGET_DIR, so
# neither side reuses the other's artifacts or this checkout's `target/`.
#
# The corpus is every distinct `*.rs` blob reachable from <base> (from
# HEAD when <base> is `.`), each linted standalone through the binary's
# single-file mode at the path git recorded for it: the script writes
# the blob with a `//! lint-fixture: <path>` first line, so path- and
# crate-scoped rules fire as they would in the tree (reported lines are
# one past the blob's own). It prints the unified diff of the two sides'
# findings and exits non-zero on any difference.
set -euo pipefail
export LC_ALL=C

usage() {
    sed -n '2,5p' "$0" >&2
    exit 2
}

dir="" revs=()
while (($#)); do
    case "$1" in
        --dir) dir=$2; shift ;;
        -h|--help) usage ;;
        -*) echo "lint_parity.sh: unknown option $1" >&2; usage ;;
        *) revs+=("$1") ;;
    esac
    shift
done
((${#revs[@]} == 2)) || usage

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
dir=${dir:-$(mktemp -d)}
mkdir -p "$dir"

# Export one side's files into $dir/<side>/src and build its lint.
build() {
    local side=$1 rev=$2 src="$dir/$1/src"
    rm -rf "${dir:?}/$side"
    mkdir -p "$src"
    if [[ $rev == . ]]; then
        (cd "$repo" && git ls-files -z -co --exclude-standard | tar --null -T - -c) | tar -x -C "$src"
    else
        git -C "$repo" archive "$rev" | tar -x -C "$src"
    fi
    echo "lint_parity.sh: building $side ($rev) in $src" >&2
    CARGO_TARGET_DIR="$dir/$side/target" cargo build --release --offline -q \
        --manifest-path "$src/Cargo.toml" -p libra-lint >&2
}

build base "${revs[0]}"
build change "${revs[1]}"

# One fixture file per distinct blob: `<sha> <path>` lines in corpus.txt.
corpus="$dir/corpus"
rm -rf "$corpus"
mkdir -p "$corpus"
from=${revs[0]}
[[ $from == . ]] && from=HEAD
git -C "$repo" rev-list --objects "$from" | awk '$2 ~ /\.rs$/ && !seen[$1]++' > "$dir/corpus.txt"
while read -r sha path; do
    { printf '//! lint-fixture: %s\n' "$path"; git -C "$repo" cat-file blob "$sha"; } > "$corpus/$sha.rs"
done < "$dir/corpus.txt"

# Every blob's findings under one side's binary, each block headed by
# its blob and path (the binary exits non-zero on findings: ignored).
lint_all() {
    local bin="$dir/$1/target/release/libra-lint"
    while read -r sha path; do
        echo "== $sha $path"
        "$bin" "$corpus/$sha.rs" 2> /dev/null || true
    done < "$dir/corpus.txt" > "$dir/$1.txt"
}

lint_all base
lint_all change
blobs=$(wc -l < "$dir/corpus.txt")
for side in base change; do
    n=$(grep -cE '^[^ =]' "$dir/$side.txt" || true)
    echo "lint_parity.sh: $side: $n finding(s) over $blobs blob(s)" >&2
done
if diff -u "$dir/base.txt" "$dir/change.txt"; then
    echo "lint_parity.sh: no difference" >&2
else
    echo "lint_parity.sh: the two sides' findings differ" >&2
    exit 1
fi
