//! The source model the rules run against: one Rust file, loaded once,
//! lexed once and parsed once into the views every rule needs.
//!
//! The views are deliberately cheap and syntax-light — a full parse is
//! neither available (the registry is offline, so no `syn`) nor needed:
//! every invariant the workspace enforces is expressible as "token
//! pattern X appears in code, outside test regions, without annotation
//! Y nearby".
//!
//! * [`SourceFile::tokens`] — the file's token stream ([`crate::tokens`]):
//!   comments and literal contents never reach it, so a pattern named in
//!   a doc comment or a URL in a string never trips a rule.
//! * [`SourceFile::comments`] — each line's comment text, the only place
//!   annotations and `// SAFETY:` justifications are read from.
//! * [`SourceFile::items`] — the one brace-tracking pass
//!   ([`crate::items`]): fns with their spans, `unsafe` sites, test
//!   regions and unbounded loops.
//! * [`SourceFile::is_test`] — a per-line mask covering `#[cfg(test)]`
//!   items and `#[test]` functions, or the whole file for an
//!   integration-test target.
//! * Annotations — the escape hatch: `// lint: allow(rule-name)` on the
//!   flagged line or the line above, or `// lint: allow-file(rule-name)`
//!   anywhere for a whole-file waiver (reserved for dedicated modules
//!   like `netsim::host_clock`).

use crate::items::{parse_items, FileItems, FnItem};
use crate::tokens::{lex, Token};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// One source file, preprocessed for rule matching.
#[derive(Debug)]
pub struct SourceFile {
    /// Repo-relative path (e.g. `crates/netsim/src/sim.rs`).
    pub path: PathBuf,
    /// The owning crate's short name (`netsim`, `bench`, …; the root
    /// facade `src/` is `libra`).
    pub krate: String,
    /// Raw lines, as on disk (finding excerpts).
    pub lines: Vec<String>,
    /// The token stream, in `(line, col)` order.
    pub tokens: Vec<Token>,
    /// Per line: the text of the comments on it (empty when none).
    pub comments: Vec<String>,
    /// Fns, `unsafe` sites, test regions and unbounded loops.
    pub items: FileItems,
    /// Per line: inside a `#[cfg(test)]` item or `#[test]` function.
    pub is_test: Vec<bool>,
    /// Per line: the index of its first token in `tokens` (one extra
    /// entry closes the last line).
    line_start: Vec<usize>,
    file_allows: BTreeSet<String>,
    line_allows: BTreeMap<usize, BTreeSet<String>>,
}

impl SourceFile {
    /// Load from disk; `path` must be repo-relative for reporting.
    pub fn load(root: &Path, rel: &Path) -> std::io::Result<SourceFile> {
        let text = std::fs::read_to_string(root.join(rel))?;
        Ok(SourceFile::from_source(rel, &text))
    }

    /// Build from in-memory source (fixtures and unit tests).
    pub fn from_source(rel: &Path, text: &str) -> SourceFile {
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        let lexed = lex(text);
        let items = parse_items(&lexed.tokens);
        // Integration-test targets (any `tests/` path component) are test
        // code in their entirety — `#[test]` fns plus their helpers.
        let whole = rel.components().any(|c| c.as_os_str() == "tests");
        let mut is_test = vec![whole; lines.len()];
        for &(first, last) in &items.tests {
            for t in is_test.iter_mut().take(last + 1).skip(first) {
                *t = true;
            }
        }
        let line_start = (0..=lines.len())
            .map(|line| lexed.tokens.partition_point(|t| t.line < line))
            .collect();
        let (file_allows, line_allows) = parse_annotations(&lexed.comments);
        SourceFile {
            path: rel.to_path_buf(),
            krate: crate_of(rel),
            lines,
            tokens: lexed.tokens,
            comments: lexed.comments,
            items,
            is_test,
            line_start,
            file_allows,
            line_allows,
        }
    }

    /// The tokens starting on lines `first..=last`.
    pub fn tokens_in(&self, first: usize, last: usize) -> &[Token] {
        let end = self.line_start.len() - 1;
        &self.tokens[self.line_start[first.min(end)]..self.line_start[(last + 1).min(end)]]
    }

    /// The tokens starting on `line`.
    pub fn tokens_on(&self, line: usize) -> &[Token] {
        self.tokens_in(line, line)
    }

    /// True when any of `names` (a rule's waiver spellings) is waived
    /// at `line`: file-level, on the same line, or on the line directly
    /// above.
    pub fn allowed(&self, line: usize, names: &[&str]) -> bool {
        names.iter().any(|&name| {
            let hit = |l: usize| self.line_allows.get(&l).is_some_and(|s| s.contains(name));
            self.file_allows.contains(name) || hit(line) || (line > 0 && hit(line - 1))
        })
    }

    /// The innermost fn whose span — signature line through closing
    /// brace — contains `line`, if any.
    pub fn enclosing_fn(&self, line: usize) -> Option<&FnItem> {
        self.items
            .fns
            .iter()
            .filter(|f| {
                f.body
                    .is_some_and(|(_, end)| f.sig_line <= line && line <= end)
            })
            .max_by_key(|f| f.sig_line)
    }

    /// True when the file is a crate's library root (`src/lib.rs`).
    pub fn is_lib_root(&self) -> bool {
        self.path.ends_with(Path::new("src/lib.rs"))
    }
}

/// The crate short-name a repo-relative path belongs to.
fn crate_of(rel: &Path) -> String {
    let mut parts = rel.components().map(|c| c.as_os_str().to_string_lossy());
    match parts.next().as_deref() {
        Some("crates") => parts.next().map_or_else(String::new, |s| s.into_owned()),
        Some("src") => "libra".to_string(),
        _ => String::new(),
    }
}

/// Parse `lint: allow(...)` / `lint: allow-file(...)` escape hatches
/// from each line's comment text — never from code or string literals.
fn parse_annotations(comments: &[String]) -> (BTreeSet<String>, BTreeMap<usize, BTreeSet<String>>) {
    let mut file = BTreeSet::new();
    let mut per_line: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    for (idx, text) in comments.iter().enumerate() {
        for (marker, file_scope) in [("lint: allow-file(", true), ("lint: allow(", false)] {
            let Some(pos) = text.find(marker) else {
                continue;
            };
            let rest = &text[pos + marker.len()..];
            let Some(end) = rest.find(')') else { continue };
            for name in rest[..end].split(',') {
                let name = name.trim().to_string();
                if name.is_empty() {
                    continue;
                }
                if file_scope {
                    file.insert(name);
                } else {
                    per_line.entry(idx).or_default().insert(name);
                }
            }
        }
    }
    (file, per_line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::TokenKind;

    fn sf(path: &str, text: &str) -> SourceFile {
        SourceFile::from_source(Path::new(path), text)
    }

    fn idents(f: &SourceFile, line: usize) -> Vec<&str> {
        f.tokens_on(line)
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect()
    }

    #[test]
    fn comments_and_strings_are_blanked() {
        let f = sf(
            "crates/demo/src/a.rs",
            "let x = \"std::time::Instant\"; // std::time::Instant\nlet y = 1; /* HashMap */ let z = 2;\n",
        );
        assert_eq!(idents(&f, 0), ["let", "x"]);
        assert_eq!(idents(&f, 1), ["let", "y", "let", "z"]);
        assert_eq!(f.comments, ["// std::time::Instant", "/* HashMap */"]);
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        let f = sf(
            "crates/demo/src/a.rs",
            "fn f<'a>(x: &'a str) -> char { 'x' }\nlet still_code = '\"';\n",
        );
        assert_eq!(idents(&f, 1), ["let", "still_code"]);
        let kinds = |k| f.tokens.iter().filter(|t| t.kind == k).count();
        assert_eq!((kinds(TokenKind::Lifetime), kinds(TokenKind::Char)), (2, 2));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let f = sf(
            "crates/demo/src/a.rs",
            "let p = r#\"thread_rng inside\"#; after();\n",
        );
        assert_eq!(idents(&f, 0), ["let", "p", "after"]);
    }

    #[test]
    fn annotations_apply_to_next_line_and_file() {
        let f = sf(
            "crates/demo/src/a.rs",
            "// lint: allow(host_clock)\nlet t = now();\nlet u = later();\n",
        );
        assert!(f.allowed(1, &["host_clock"]));
        assert!(!f.allowed(2, &["host_clock"]));
        let g = sf(
            "crates/demo/src/a.rs",
            "// lint: allow-file(host_clock)\nfn f() {}\nfn g() {}\n",
        );
        assert!(g.allowed(2, &["host_clock"]));
    }

    /// A waiver spelled inside a string literal is text, not an
    /// annotation: it waives nothing.
    #[test]
    fn annotations_in_string_literals_are_ignored() {
        let f = sf(
            "crates/demo/src/a.rs",
            "let s = \"// lint: allow-file(host_clock)\";\nlet m = \"waive with `// lint: allow(host_clock)`\";\nlet t = now();\n",
        );
        assert!(!f.allowed(1, &["host_clock"]));
        assert!(!f.allowed(2, &["host_clock"]));
    }

    #[test]
    fn enclosing_fn_finds_innermost_body() {
        let f = sf(
            "crates/demo/src/a.rs",
            "fn outer() {\n    helper();\n    fn inner() {\n        body();\n    }\n}\n",
        );
        let inner = f.enclosing_fn(3).expect("inner span");
        assert_eq!((inner.name.as_str(), inner.sig_line), ("inner", 2));
        let outer = f.enclosing_fn(1).expect("outer span");
        assert_eq!((outer.sig_line, outer.body), (0, Some((0, 5))));
    }

    #[test]
    fn integration_test_targets_are_fully_masked() {
        let f = sf(
            "crates/bench/tests/policy_server.rs",
            "fn helper() { now(); }\n#[test]\nfn t() { helper(); }\n",
        );
        assert!(f.is_test.iter().all(|&t| t));
        let g = sf("crates/bench/src/sweep.rs", "fn helper() { now(); }\n");
        assert!(!g.is_test[0]);
    }

    #[test]
    fn crate_names_resolve() {
        assert_eq!(crate_of(Path::new("crates/netsim/src/sim.rs")), "netsim");
        assert_eq!(crate_of(Path::new("src/lib.rs")), "libra");
    }

    #[test]
    fn lib_roots_are_recognized() {
        let f = sf("crates/bench/src/bin/fig01.rs", "fn main() {}\n");
        assert!(!f.is_lib_root());
        let g = sf("crates/bench/src/lib.rs", "\n");
        assert!(g.is_lib_root());
    }

    #[test]
    fn tokens_are_addressed_by_line() {
        let f = sf("crates/demo/src/a.rs", "a b\n\n// c\nd\n");
        assert_eq!(f.tokens_on(0).len(), 2);
        assert!(f.tokens_on(1).is_empty() && f.tokens_on(2).is_empty());
        assert_eq!(f.tokens_in(1, 3).len(), 1);
        assert_eq!(f.tokens_in(0, 9).len(), 3);
    }
}
