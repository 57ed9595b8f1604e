// Production code must justify every potential panic site: unwraps are
// banned outside tests (audited sites use `expect` with an invariant
// message or handle the `None`/`Err` branch).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! The `libra-lint` gate binary: walk the workspace sources, run the
//! full 12-rule registry over their token streams and symbol graph,
//! print findings, and exit non-zero on any deny-severity hit.
//!
//! ```text
//! cargo run -p libra-lint --release              # lint the enclosing workspace
//! cargo run -p libra-lint --release -- <root>    # lint an explicit tree
//! cargo run -p libra-lint --release -- <file.rs> # lint one file (fixtures)
//! cargo run -p libra-lint --release -- --list-rules
//! cargo run -p libra-lint --release -- --emit-unsafe-inventory
//! cargo run -p libra-lint --release -- --emit-loc-ledger
//! ```
//!
//! In single-file mode a `//! lint-fixture: <virtual path>` first line
//! sets the repo-relative path the rules see, so path-scoped rules fire
//! the same way they would inside the tree.
//!
//! `--emit-unsafe-inventory` regenerates `dev/unsafe_inventory.md`
//! under the workspace root from the current `unsafe` sites, and
//! `--emit-loc-ledger` regenerates `dev/loc_ledger.md` (non-test code
//! lines per crate); `scripts/ci.sh` runs both and fails on `git diff`
//! drift.

use libra_lint::SourceFile;
use libra_lint::{
    all_rules, find_workspace_root, lint_file, lint_tree, load_workspace, loc_ledger,
    unsafe_inventory, Finding, Severity, Workspace,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root_arg: Option<PathBuf> = None;
    let mut emit: Option<(&str, Render)> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--list-rules" => {
                for rule in all_rules() {
                    println!("{:<20} {}", rule.id(), rule.description());
                }
                return ExitCode::SUCCESS;
            }
            "--emit-unsafe-inventory" => emit = Some(("unsafe_inventory.md", unsafe_inventory)),
            "--emit-loc-ledger" => emit = Some(("loc_ledger.md", loc_ledger)),
            "--help" | "-h" => {
                println!(
                    "usage: libra-lint [--list-rules] [--emit-unsafe-inventory] [--emit-loc-ledger] [workspace-root]"
                );
                return ExitCode::SUCCESS;
            }
            other => root_arg = Some(PathBuf::from(other)),
        }
    }

    let root = match root_arg {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("libra-lint: cannot read current dir: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "libra-lint: no workspace root (Cargo.toml + crates/) above {}",
                        cwd.display()
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    if let Some((name, render)) = emit {
        return match emit_dev_file(&root, name, render) {
            Ok(path) => {
                eprintln!("libra-lint: wrote {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("libra-lint: {name} emit failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let findings = if root.is_file() {
        match lint_single(&root) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("libra-lint: cannot read {}: {e}", root.display());
                return ExitCode::FAILURE;
            }
        }
    } else {
        match lint_tree(&root) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("libra-lint: scan of {} failed: {e}", root.display());
                return ExitCode::FAILURE;
            }
        }
    };
    report(&findings)
}

/// Lint one file standalone; a `//! lint-fixture:` first line supplies
/// the virtual repo path for path- and crate-scoped rules.
fn lint_single(path: &Path) -> std::io::Result<Vec<Finding>> {
    let text = std::fs::read_to_string(path)?;
    let virt = text
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("//! lint-fixture: "))
        .map(|s| PathBuf::from(s.trim()))
        .unwrap_or_else(|| path.to_path_buf());
    Ok(lint_file(SourceFile::from_source(&virt, &text)))
}

/// Renders one committed `dev/` file from the loaded workspace.
type Render = fn(&Workspace) -> String;

/// Regenerate the committed `dev/<name>` under `root`.
fn emit_dev_file(root: &Path, name: &str, render: Render) -> std::io::Result<PathBuf> {
    let ws = load_workspace(root)?;
    let out = root.join("dev").join(name);
    std::fs::create_dir_all(root.join("dev"))?;
    std::fs::write(&out, render(&ws))?;
    Ok(out)
}

fn report(findings: &[Finding]) -> ExitCode {
    for finding in findings {
        println!("{finding}");
    }
    let rule_count = all_rules().len();
    let denies = findings
        .iter()
        .filter(|f| f.severity == Severity::Deny)
        .count();
    if denies > 0 {
        eprintln!(
            "libra-lint: {denies} finding(s) across {rule_count} rule(s) — tree is NOT clean"
        );
        ExitCode::FAILURE
    } else {
        eprintln!("libra-lint: clean ({rule_count} rules)");
        ExitCode::SUCCESS
    }
}
