//! The workspace symbol graph: every file's parsed items, plus a
//! name-resolution-lite call graph with deterministic iteration order.
//!
//! Resolution is by bare callee name: a call `foo(…)` / `x.foo(…)` /
//! `a::b::foo(…)` resolves to *every* workspace function named `foo`.
//! That over-approximates (two unrelated `simulate`s alias) and
//! under-approximates (closures and trait objects have no edges), which
//! is the right trade for lint rules: reachability queries err toward
//! flagging, and the waiver system absorbs audited over-matches.
//!
//! The one exception: [`AMBIGUOUS_NAMES`] — ubiquitous names like `new`
//! or `clone` — resolve to nothing. Every `ModelStore::new` calling
//! `Mutex::new` would otherwise alias every other `new` into one clique,
//! and a single flagged constructor would taint the whole workspace.
//!
//! Determinism: [`Workspace::from_sources`] sorts files by path before
//! building, node order is `(path, sig_line, name)`, edge lists are
//! sorted and deduplicated, and the fixpoint propagators visit nodes in
//! index order — so findings and the unsafe inventory are byte-identical
//! for any directory-walk order (pinned by `tests/determinism.rs`).

use crate::items::FnItem;
use crate::source::SourceFile;
use std::collections::BTreeMap;

/// Names too ubiquitous to resolve by bare name: nearly every type has
/// one, so name resolution would fuse them into a single clique and any
/// flagged member would poison every caller in the workspace. Calls to
/// these simply have no edges (their *bodies* are still analyzed).
pub const AMBIGUOUS_NAMES: &[&str] = &[
    "new",
    "default",
    "clone",
    "from",
    "into",
    "to_string",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "drop",
    "next",
    "len",
    "is_empty",
    "get",
    "push",
    "insert",
    "iter",
    "index",
    "as_ref",
    "as_str",
];

/// The whole lint universe: files + symbol graph.
pub struct Workspace {
    pub files: Vec<SourceFile>,
    pub graph: SymbolGraph,
}

impl Workspace {
    /// Build from loaded sources. Input order is irrelevant: files are
    /// sorted by path before linking, so the graph (and every finding
    /// derived from it) is a pure function of the file *set*.
    pub fn from_sources(mut files: Vec<SourceFile>) -> Workspace {
        files.sort_by(|a, b| a.path.cmp(&b.path));
        let graph = SymbolGraph::build(&files);
        Workspace { files, graph }
    }
}

/// A function node: indices into `Workspace::files` and its `fns`.
#[derive(Debug, Clone, Copy)]
pub struct Node {
    pub file: usize,
    pub item: usize,
}

/// The call graph over every function in the workspace.
pub struct SymbolGraph {
    /// Nodes sorted by `(file path, sig_line, name)`.
    pub nodes: Vec<Node>,
    /// `krate::module::Owner::name` per node (display / debugging).
    pub qualified: Vec<String>,
    /// Resolved callees per node: sorted, deduplicated node ids.
    pub callees: Vec<Vec<usize>>,
    /// Bare name → node ids bearing it (ids ascending).
    by_name: BTreeMap<String, Vec<usize>>,
}

impl SymbolGraph {
    /// Build the graph over files already sorted by path.
    pub fn build(files: &[SourceFile]) -> SymbolGraph {
        let mut nodes = Vec::new();
        let mut qualified = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            for (ii, f) in file.items.fns.iter().enumerate() {
                nodes.push(Node { file: fi, item: ii });
                qualified.push(qualify(file, f));
            }
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (id, node) in nodes.iter().enumerate() {
            let name = files[node.file].items.fns[node.item].name.clone();
            if AMBIGUOUS_NAMES.contains(&name.as_str()) {
                continue;
            }
            by_name.entry(name).or_default().push(id);
        }
        let mut callees = Vec::with_capacity(nodes.len());
        for node in &nodes {
            let f = &files[node.file].items.fns[node.item];
            let mut out: Vec<usize> = f
                .calls
                .iter()
                .flat_map(|c| by_name.get(&c.name).into_iter().flatten().copied())
                .collect();
            out.sort_unstable();
            out.dedup();
            callees.push(out);
        }
        SymbolGraph {
            nodes,
            qualified,
            callees,
            by_name,
        }
    }

    /// Node ids of every workspace fn named `name`.
    pub fn resolve(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The [`FnItem`] behind node `id`.
    pub fn fn_of<'a>(&self, files: &'a [SourceFile], id: usize) -> &'a FnItem {
        let n = self.nodes[id];
        &files[n.file].items.fns[n.item]
    }

    /// The [`SourceFile`] holding node `id`.
    pub fn file_of<'a>(&self, files: &'a [SourceFile], id: usize) -> &'a SourceFile {
        &files[self.nodes[id].file]
    }

    /// Caller-direction fixpoint: `out[n]` is true when `base[n]`, or
    /// any callee of `n` (transitively) satisfies `out`. `excluded`
    /// nodes neither seed nor propagate — they are audited barriers.
    ///
    /// This models value taint through return values and "calling this
    /// is expensive" alike: both flow from callee to caller. Node order
    /// is fixed, so the fixpoint (a unique set) is deterministic.
    pub fn propagate_from_callees(&self, base: &[bool], excluded: &[bool]) -> Vec<bool> {
        debug_assert_eq!(base.len(), self.nodes.len());
        let mut out: Vec<bool> = base.iter().zip(excluded).map(|(&b, &x)| b && !x).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for n in 0..out.len() {
                if out[n] || excluded[n] {
                    continue;
                }
                if self.callees[n].iter().any(|&c| out[c]) {
                    out[n] = true;
                    changed = true;
                }
            }
        }
        out
    }

    /// A deterministic witness chain `from → … → seed` where every hop
    /// is a call edge, every node satisfies `marked`, and the chain ends
    /// at a `base` node (node ids; map through [`SymbolGraph::qualified`]
    /// for display).
    pub fn witness_chain(&self, from: usize, marked: &[bool], base: &[bool]) -> Vec<usize> {
        let mut chain = vec![from];
        let mut visited = vec![false; self.nodes.len()];
        visited[from] = true;
        let mut cur = from;
        while !base[cur] {
            let next = self.callees[cur]
                .iter()
                .copied()
                .find(|&c| marked[c] && !visited[c]);
            match next {
                Some(c) => {
                    visited[c] = true;
                    chain.push(c);
                    cur = c;
                }
                None => break, // cycle without a base node on this path
            }
        }
        chain
    }
}

/// `krate::module::Owner::name` for display.
fn qualify(source: &SourceFile, f: &FnItem) -> String {
    let mut parts: Vec<&str> = Vec::new();
    if !source.krate.is_empty() {
        parts.push(&source.krate);
    }
    if !f.module.is_empty() {
        parts.push(&f.module);
    }
    if !f.owner.is_empty() {
        parts.push(&f.owner);
    }
    parts.push(&f.name);
    parts.join("::")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_sources(
            files
                .iter()
                .map(|(p, t)| SourceFile::from_source(Path::new(p), t))
                .collect(),
        )
    }

    #[test]
    fn cross_file_edges_resolve_by_name() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "pub fn caller() {\n    helper();\n}\n",
            ),
            ("crates/b/src/lib.rs", "pub fn helper() {}\n"),
        ]);
        let caller = w.graph.resolve("caller")[0];
        let helper = w.graph.resolve("helper")[0];
        assert_eq!(w.graph.callees[caller], vec![helper]);
        assert_eq!(w.graph.qualified[helper], "b::helper");
    }

    #[test]
    fn propagation_is_transitive_and_barrier_aware() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn leaf() {}\nfn mid() {\n    leaf();\n}\nfn top() {\n    mid();\n}\n",
        )]);
        let leaf = w.graph.resolve("leaf")[0];
        let mid = w.graph.resolve("mid")[0];
        let top = w.graph.resolve("top")[0];
        let mut base = vec![false; w.graph.nodes.len()];
        base[leaf] = true;
        let none = vec![false; w.graph.nodes.len()];
        let r = w.graph.propagate_from_callees(&base, &none);
        assert!(r[leaf] && r[mid] && r[top]);
        // Barrier at mid stops the flow.
        let mut excl = vec![false; w.graph.nodes.len()];
        excl[mid] = true;
        let r = w.graph.propagate_from_callees(&base, &excl);
        assert!(r[leaf] && !r[mid] && !r[top]);
    }

    #[test]
    fn witness_chain_reaches_a_seed() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn leaf() {}\nfn mid() {\n    leaf();\n}\nfn top() {\n    mid();\n}\n",
        )]);
        let leaf = w.graph.resolve("leaf")[0];
        let top = w.graph.resolve("top")[0];
        let mut base = vec![false; w.graph.nodes.len()];
        base[leaf] = true;
        let none = vec![false; w.graph.nodes.len()];
        let marked = w.graph.propagate_from_callees(&base, &none);
        let chain: Vec<&str> = w
            .graph
            .witness_chain(top, &marked, &base)
            .into_iter()
            .map(|id| w.graph.qualified[id].as_str())
            .collect();
        assert_eq!(chain, ["a::top", "a::mid", "a::leaf"]);
    }

    #[test]
    fn build_is_input_order_independent() {
        let a = ("crates/a/src/lib.rs", "pub fn one() {\n    two();\n}\n");
        let b = ("crates/b/src/lib.rs", "pub fn two() {}\n");
        let w1 = ws(&[a, b]);
        let w2 = ws(&[b, a]);
        assert_eq!(w1.graph.qualified, w2.graph.qualified);
        assert_eq!(w1.graph.callees, w2.graph.callees);
    }
}
