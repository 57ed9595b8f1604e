//! Analyzer-determinism guard: the lint findings, the symbol graph,
//! and the unsafe inventory must be a pure function of the source
//! *set* — byte-identical across repeated runs and invariant under the
//! order files are fed in. This is the same contract the simulator
//! holds itself to (runs are a pure function of config + seed), applied
//! to the analyzer: CI diffs `dev/unsafe_inventory.md` against a fresh
//! emission, which is only sound if emission is deterministic.

use libra_lint::{
    find_workspace_root, lint_sources, source_files, unsafe_inventory, Finding, SourceFile,
    Workspace,
};
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint crate lives inside the workspace")
}

fn load_all(root: &Path) -> Vec<SourceFile> {
    source_files(root)
        .expect("workspace sources enumerate")
        .iter()
        .map(|rel| SourceFile::load(root, rel).expect("covered source loads"))
        .collect()
}

fn render(findings: &[Finding]) -> String {
    findings.iter().map(|f| format!("{f}\n")).collect()
}

/// A deterministic "shuffle": reverse, then rotate by a third. Enough
/// to derange every position without pulling in an RNG.
fn scramble(mut sources: Vec<SourceFile>) -> Vec<SourceFile> {
    sources.reverse();
    let by = sources.len() / 3;
    sources.rotate_left(by);
    sources
}

#[test]
fn findings_are_byte_identical_across_runs_and_input_orders() {
    let root = root();
    let baseline = render(&lint_sources(load_all(&root)));
    let rerun = render(&lint_sources(load_all(&root)));
    assert_eq!(baseline, rerun, "two identical runs disagreed");
    let scrambled = render(&lint_sources(scramble(load_all(&root))));
    assert_eq!(
        baseline, scrambled,
        "findings depend on the order sources were fed in"
    );
}

#[test]
fn unsafe_inventory_is_byte_identical_across_runs_and_input_orders() {
    let root = root();
    let baseline = unsafe_inventory(&Workspace::from_sources(load_all(&root)));
    let rerun = unsafe_inventory(&Workspace::from_sources(load_all(&root)));
    assert_eq!(baseline, rerun, "two identical emissions disagreed");
    let scrambled = unsafe_inventory(&Workspace::from_sources(scramble(load_all(&root))));
    assert_eq!(
        baseline, scrambled,
        "inventory depends on the order sources were fed in"
    );
}

/// The committed inventory matches a fresh emission — the same check
/// CI runs via `--emit-unsafe-inventory` + `git diff`, pinned here so
/// `cargo test` alone catches drift.
#[test]
fn committed_unsafe_inventory_is_fresh() {
    let root = root();
    let committed = std::fs::read_to_string(root.join("dev/unsafe_inventory.md"))
        .expect("dev/unsafe_inventory.md is committed");
    let fresh = unsafe_inventory(&Workspace::from_sources(load_all(&root)));
    assert_eq!(
        committed, fresh,
        "dev/unsafe_inventory.md is stale: run `cargo run -p libra-lint -- --emit-unsafe-inventory`"
    );
}

/// The symbol graph's node order is pinned (path, then signature line),
/// so downstream consumers (witness chains, inventory rows) inherit
/// determinism from it.
#[test]
fn symbol_graph_node_order_is_sorted() {
    let ws = Workspace::from_sources(load_all(&root()));
    let keys: Vec<(String, usize)> = ws
        .graph
        .nodes
        .iter()
        .map(|n| {
            let file = &ws.files[n.file];
            (
                file.path.to_string_lossy().into_owned(),
                file.items.fns[n.item].sig_line,
            )
        })
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "graph nodes are not in (path, line) order");
}
