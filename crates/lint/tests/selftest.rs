//! Fixture self-tests and the whole-tree smoke test.
//!
//! Every rule has at least one `bad_*` fixture, whose findings are
//! pinned exactly as `(line, rule)` pairs, and one `good_*` fixture
//! (must be clean), so a rule that stops firing, fires on another line
//! or starts over-firing breaks this suite before it breaks CI on a
//! real regression. Fixtures live under `tests/fixtures/` and
//! carry their *virtual* repo path on the first line
//! (`//! lint-fixture: crates/...`), because most rules are scoped by
//! crate or file path.

use libra_lint::{find_workspace_root, lint_file, lint_tree, SourceFile};
use std::path::{Path, PathBuf};

/// `(fixture file, rule id, every finding's 1-based line)`: the exact
/// findings each bad fixture yields.
const BAD: &[(&str, &str, &[usize])] = &[
    ("bad_host_clock.rs", "host-clock", &[5]),
    ("bad_unordered_map.rs", "unordered-map", &[4, 6, 7]),
    ("bad_unwrap.rs", "unwrap-audit", &[6]),
    ("bad_missing_deny.rs", "unwrap-audit", &[1]),
    ("bad_float_guard.rs", "float-guard", &[6]),
    ("bad_threads.rs", "thread-discipline", &[6]),
    ("bad_entropy.rs", "entropy", &[6]),
    ("bad_bounded_retry.rs", "bounded-retry", &[6]),
    ("bad_per_packet_alloc.rs", "no-per-packet-alloc", &[10, 16]),
    ("bad_cycle_alloc.rs", "no-per-packet-alloc", &[13, 15, 20]),
    ("bad_learned_alloc.rs", "no-per-packet-alloc", &[15, 24]),
    ("bad_lock_across_call.rs", "lock-across-call", &[19]),
    ("bad_fma_determinism.rs", "fma-determinism", &[11]),
    ("bad_fma_intrinsics.rs", "fma-determinism", &[11, 16, 17]),
    ("bad_unsafe_audit.rs", "unsafe-audit", &[8, 13, 17, 18]),
    ("bad_nondeterminism_taint.rs", "nondeterminism-taint", &[20]),
];

const GOOD: &[&str] = &[
    "good_host_clock.rs",
    "good_unordered_map.rs",
    "good_unwrap.rs",
    "good_float_guard.rs",
    "good_threads.rs",
    "good_entropy.rs",
    "good_bounded_retry.rs",
    "good_per_packet_alloc.rs",
    "good_cycle_alloc.rs",
    "good_learned_alloc.rs",
    "good_lock_across_call.rs",
    "good_fma_determinism.rs",
    "good_unsafe_audit.rs",
    "good_nondeterminism_taint.rs",
];

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

/// Load a fixture, resolving its virtual path from the first-line
/// `//! lint-fixture:` marker.
fn load_fixture(name: &str) -> SourceFile {
    let text = std::fs::read_to_string(fixtures_dir().join(name))
        .unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    let first = text.lines().next().unwrap_or_default();
    let virt = first
        .strip_prefix("//! lint-fixture: ")
        .unwrap_or_else(|| panic!("fixture {name} lacks a `//! lint-fixture: <path>` first line"));
    SourceFile::from_source(Path::new(virt.trim()), &text)
}

#[test]
fn bad_fixtures_each_flag_their_rule() {
    for &(name, rule, lines) in BAD {
        let got: Vec<(usize, &str)> = lint_file(load_fixture(name))
            .iter()
            .map(|f| (f.line, f.rule))
            .collect();
        let want: Vec<(usize, &str)> = lines.iter().map(|&l| (l, rule)).collect();
        assert_eq!(got, want, "{name}: findings differ from the pinned set");
    }
}

#[test]
fn good_fixtures_are_clean() {
    for &name in GOOD {
        let findings = lint_file(load_fixture(name));
        assert!(
            findings.is_empty(),
            "{name}: expected clean, got:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn every_rule_has_bad_and_good_coverage() {
    for rule in libra_lint::all_rules() {
        let id = rule.id();
        assert!(
            BAD.iter().any(|&(_, r, _)| r == id),
            "rule `{id}` has no bad fixture"
        );
    }
    // Fixture lists stay in sync with the files actually on disk.
    for name in BAD.iter().map(|&(n, _, _)| n).chain(GOOD.iter().copied()) {
        assert!(
            fixtures_dir().join(name).is_file(),
            "fixture listed but missing on disk: {name}"
        );
    }
}

/// The gate the binary enforces, as a test: the tree at HEAD is clean.
#[test]
fn whole_tree_is_clean() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint");
    let findings = lint_tree(&root).expect("tree walk");
    assert!(
        findings.is_empty(),
        "lint findings on HEAD:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
