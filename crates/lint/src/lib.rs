// Production code must justify every potential panic site: unwraps are
// banned outside tests (audited sites use `expect` with an invariant
// message or handle the `None`/`Err` branch).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! `libra-lint`: project-specific determinism & invariant static
//! analysis for the Libra workspace.
//!
//! Everything this repo produces — cycle decisions, sweep artifacts,
//! the pinned run digest — rests on the simulator being a pure function
//! of `(configuration, seed)` and on float telemetry staying finite.
//! `cargo`/`clippy` cannot express those rules, so this crate encodes
//! them as one analyzer over the workspace's own sources: each file is
//! lexed once into a token stream ([`tokens`]) and parsed once by one
//! brace-tracking pass ([`items`]), and every rule — one [`Rule`] trait,
//! one registry ([`all_rules`]) — matches token [`tokens::Patterns`]
//! against that view.
//!
//! **Per-file rules** ([`rules`], over one [`source::SourceFile`] at a
//! time):
//!
//! | id | invariant |
//! |---|---|
//! | `host-clock` | no wall-clock reads outside `netsim::host_clock` |
//! | `unordered-map` | no `HashMap`/`HashSet` in `netsim`/`bench` |
//! | `unwrap-audit` | `deny(clippy::unwrap_used)` in every crate root; no bare `unwrap`/`panic!` in non-test code |
//! | `float-guard` | utility-adjacent float math carries finite-guard evidence |
//! | `thread-discipline` | threads only in `bench/src/sweep.rs` |
//! | `entropy` | no ambient randomness (`thread_rng`, `RandomState`, …) |
//! | `bounded-retry` | retry/backoff loops carry an explicit attempt bound |
//! | `no-per-packet-alloc` | no allocation in per-packet/per-decision hot paths (netsim), on Libra's per-MI cycle path (core) or on a learned arm's per-decision path and its ladder (learned) |
//!
//! **Graph rules** ([`graph_rules`], which also walk the symbol graph
//! of [`graph::Workspace`], built from every file's items):
//!
//! | id | invariant |
//! |---|---|
//! | `lock-across-call` | no lock guard live across a call reaching training/simulation/IO |
//! | `fma-determinism` | no FMA/`mul_add` in `nn`/`netsim` (batched bit identity) |
//! | `unsafe-audit` | every `unsafe` site carries an adjacent `// SAFETY:` (inventoried in `dev/unsafe_inventory.md`) |
//! | `nondeterminism-taint` | no nondeterministic value reaches digest/serialization sinks |
//!
//! The analyzer is hand-rolled (no external deps — the registry is
//! offline): [`tokens::lex`] turns raw source into tokens plus each
//! line's comment text; [`items::parse_items`] extracts fns, calls,
//! guards, `unsafe` sites, test regions and unbounded loops;
//! [`source::SourceFile`] holds those views with the per-line test mask
//! and the waivers; [`graph::SymbolGraph`] links calls by name with
//! deterministic order. Audited exceptions use `// lint: allow(<name>)`
//! (in a comment) on or above the flagged line. The `libra-lint` binary
//! walks every crate's `src/`, `examples/` and `tests/` plus the root
//! facade's, prints findings and exits non-zero on any —
//! `scripts/ci.sh` runs it as a gate.

pub mod graph;
pub mod graph_rules;
pub mod items;
pub mod rules;
pub mod source;
pub mod tokens;

pub use graph::Workspace;
pub use graph_rules::unsafe_inventory;
pub use rules::{all_rules, Finding, Rule, Severity};
pub use source::SourceFile;

use std::path::{Path, PathBuf};

/// The source roots the lint covers, relative to the workspace root:
/// every workspace crate's and the root facade's `src/`, `examples/`
/// and `tests/`. `vendor/` is excluded by construction (vendored
/// stand-ins for external crates are not held to the repo's
/// invariants), as is the lint crate's own `tests/fixtures/` corpus
/// (deliberately bad code).
pub fn source_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut package_dirs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    package_dirs.push(root.to_path_buf());
    let mut files = Vec::new();
    for dir in package_dirs {
        for sub in ["src", "examples", "tests"] {
            collect_rs(&dir.join(sub), &mut files)?;
        }
    }
    // Report repo-relative paths.
    let mut rel: Vec<PathBuf> = files
        .into_iter()
        .map(|p| {
            p.strip_prefix(root)
                .map(Path::to_path_buf)
                .unwrap_or_else(|_| p.clone())
        })
        .collect();
    rel.sort();
    Ok(rel)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            // The lint fixture corpus is deliberately bad code.
            if path.file_name().is_some_and(|n| n == "fixtures")
                && dir.file_name().is_some_and(|n| n == "tests")
            {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Run the full 12-rule set over a set of loaded sources. Findings
/// come back sorted by `(path, line, rule)` — and, because
/// [`Workspace::from_sources`] sorts files by path, byte-identical for
/// any input order.
pub fn lint_sources(sources: Vec<SourceFile>) -> Vec<Finding> {
    lint_workspace(&Workspace::from_sources(sources))
}

fn lint_workspace(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for rule in all_rules() {
        rule.check(ws, &mut findings);
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    findings
}

/// Run the full rule set over one file standalone (fixtures): the file
/// becomes a single-file workspace, so graph rules see its local call
/// graph.
pub fn lint_file(file: SourceFile) -> Vec<Finding> {
    lint_sources(vec![file])
}

/// Load every covered source under `root` (for [`lint_tree`] and the
/// inventory emitter).
pub fn load_workspace(root: &Path) -> std::io::Result<Workspace> {
    let mut sources = Vec::new();
    for rel in source_files(root)? {
        sources.push(SourceFile::load(root, &rel)?);
    }
    Ok(Workspace::from_sources(sources))
}

/// Render the committed size ledger (`dev/loc_ledger.md`): non-test,
/// non-comment, non-blank lines under each crate's `src/` — the lines
/// on which a token starts or ends, outside the [`SourceFile::is_test`]
/// mask —
/// with `src/bin/` split out where a crate has one. Deterministic: rows
/// are keyed by `(crate, area)`.
pub fn loc_ledger(ws: &Workspace) -> String {
    let mut rows: std::collections::BTreeMap<(String, &str), (usize, usize)> = Default::default();
    for file in &ws.files {
        // Repo-relative: `crates/<name>/src/..` or the facade's `src/..`.
        let skip = if file.path.starts_with("crates") {
            2
        } else {
            0
        };
        let mut dirs = file.path.iter().skip(skip);
        if dirs.next() != Some("src".as_ref()) {
            continue;
        }
        let area = if dirs.next() == Some("bin".as_ref()) {
            "src/bin"
        } else {
            "src"
        };
        let mut holds = vec![false; file.lines.len()];
        for t in &file.tokens {
            holds[t.line] = true;
            holds[t.end_line] = true;
        }
        let code = (0..file.lines.len())
            .filter(|&line| holds[line] && !file.is_test[line])
            .count();
        let row = rows.entry((file.krate.clone(), area)).or_default();
        row.0 += 1;
        row.1 += code;
    }
    let mut out = String::from(
        "# LOC ledger\n\n\
         Generated by `cargo run -p libra-lint -- --emit-loc-ledger`;\n\
         `scripts/ci.sh` regenerates it and fails on drift. Do not edit by\n\
         hand.\n\n\
         Non-test, non-comment, non-blank lines under each crate's `src/`\n\
         (`libra` is the root facade), from the masks the lint computes: a\n\
         PR's diff of this file is its size claim.\n\n\
         | crate | area | files | code lines |\n|---|---|---|---|\n",
    );
    for ((krate, area), (files, code)) in &rows {
        out.push_str(&format!("| {krate} | {area} | {files} | {code} |\n"));
    }
    let total: usize = rows.values().map(|r| r.1).sum();
    out.push_str(&format!("\n{total} code line(s).\n"));
    out
}

/// Run every rule over the whole workspace at `root`.
pub fn lint_tree(root: &Path) -> std::io::Result<Vec<Finding>> {
    Ok(lint_workspace(&load_workspace(root)?))
}

/// Locate the workspace root: walk up from `start` to the first
/// directory holding both `Cargo.toml` and `crates/`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d.to_path_buf());
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("crates/lint has a workspace root two levels up")
            .to_path_buf()
    }

    #[test]
    fn source_roots_cover_all_crates_and_skip_vendor() {
        let files = source_files(&repo_root()).expect("walk");
        let has = |frag: &str| files.iter().any(|p| p.to_string_lossy().contains(frag));
        assert!(has("crates/netsim/src/sim.rs"));
        assert!(has("crates/core/src/libra.rs"));
        assert!(has("crates/bench/src/bin/full_report.rs"));
        assert!(has("src/lib.rs"));
        // Widened coverage: examples and tests.
        assert!(has("crates/nn/tests/forward_goldens.rs"));
        assert!(has("crates/bench/tests/"));
        assert!(has("examples/quickstart.rs"));
        assert!(has("tests/properties.rs"));
        assert!(!has("vendor/"), "vendored stand-ins must not be linted");
        assert!(!has("tests/fixtures"), "lint fixtures must not be linted");
    }

    #[test]
    fn loc_ledger_counts_code_outside_tests_and_comments() {
        let lib = "//! Docs.\n\npub fn a() {\n    // comment\n    b();\n}\n\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n";
        let ws = Workspace::from_sources(vec![
            SourceFile::from_source(Path::new("crates/x/src/lib.rs"), lib),
            SourceFile::from_source(Path::new("crates/x/src/bin/tool.rs"), "fn main() {}\n"),
            SourceFile::from_source(Path::new("crates/x/tests/it.rs"), "fn helper() {}\n"),
            SourceFile::from_source(Path::new("crates/x/benches/b.rs"), "fn main() {}\n"),
            SourceFile::from_source(Path::new("src/lib.rs"), "pub use x::a;\n"),
        ]);
        let ledger = loc_ledger(&ws);
        assert!(ledger.contains("| x | src | 1 | 3 |"), "{ledger}");
        assert!(ledger.contains("| x | src/bin | 1 | 1 |"), "{ledger}");
        assert!(ledger.contains("| libra | src | 1 | 1 |"), "{ledger}");
        assert!(ledger.ends_with("\n5 code line(s).\n"), "{ledger}");
    }

    #[test]
    fn find_workspace_root_walks_up() {
        let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(&here).expect("root");
        assert_eq!(root, repo_root());
    }
}
