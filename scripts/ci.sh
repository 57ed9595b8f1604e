#!/usr/bin/env bash
# The repo's tier-1 gate, runnable locally and in CI:
#
#   scripts/ci.sh            # full gate
#
# Fails fast on the cheapest check first. All steps are offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> libra-lint (12-rule source gate over src/examples/tests)"
cargo run -p libra-lint --release --offline

echo "==> libra-lint self-test (each workspace rule vs its fixture pair)"
cargo test --offline -q -p libra-lint --test selftest

echo "==> unsafe inventory drift (dev/unsafe_inventory.md matches the tree)"
cargo run -p libra-lint --release --offline -- --emit-unsafe-inventory
git diff --exit-code -- dev/unsafe_inventory.md

echo "==> LOC ledger drift (dev/loc_ledger.md matches the tree)"
cargo run -p libra-lint --release --offline -- --emit-loc-ledger
git diff --exit-code -- dev/loc_ledger.md

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test (workspace)"
cargo test --workspace --offline -q

echo "==> nn identity suites, optimized (the tile kernel's SIMD instantiations as shipped)"
cargo test --release --offline -q -p libra-nn

echo "==> chaos self-test (supervised sweep under injected faults)"
cargo test --release --offline -q -p libra-bench --test supervisor

# Under checked-invariants the timer wheel carries the binary heap it
# replaced as a shadow and asserts every pop against it, so the next
# three steps are also the scheduler oracle's coverage
# (netsim's tests/wheel_equivalence.rs exists only under the feature).
echo "==> cargo test (netsim+core, runtime invariant asserts + scheduler oracle armed)"
cargo test --offline -q -p libra-netsim -p libra-core \
    --features libra-netsim/checked-invariants,libra-core/checked-invariants

echo "==> policy-server batched identity (runtime invariant asserts armed)"
cargo test --offline -q -p libra-bench --test policy_server \
    --features libra-netsim/checked-invariants,libra-core/checked-invariants

echo "==> policy-chaos gate (every fault kind, runtime invariant asserts armed)"
cargo test --release --offline -q -p libra-bench --test policy_chaos \
    --features libra-netsim/checked-invariants,libra-core/checked-invariants

echo "==> queue-ledger properties under checked-invariants (all disciplines)"
cargo test --offline -q -p libra --test properties --features checked-invariants

echo "==> scenario corpus validation (unique names, serde round-trip, determinism)"
cargo run --release --offline -p libra-bench --bin scenario_registry -- --check

echo "==> adversarial search smoke (fixed seed, 1 vs N workers byte-identical)"
cargo run --release --offline -p libra-bench --bin scenario_search -- --quick --seed 5 --selftest

# The one measuring system: benchmark/ (paired comparisons of two
# commits: benchmark/README.md, "Comparing two commits").
echo "==> benchmark package (its own workspace: unit tests, then every check and metric at --seconds 2)"
(cd benchmark && cargo test --offline -q)
bash benchmark/run.sh --check > /dev/null

echo "==> trace smoke (fixed-seed 5s traced run; exits non-zero on NaN/-inf)"
cargo run --release --offline -p libra-bench --bin trace_summary -- --quick > /dev/null

echo "ci: all green"
