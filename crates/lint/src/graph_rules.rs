//! The graph-powered rules: invariants that need the workspace symbol
//! graph (interprocedural reachability), not just one file's tokens.
//!
//! | id | invariant |
//! |---|---|
//! | `lock-across-call` | no lock guard live across a call that reaches training/simulation/IO |
//! | `fma-determinism` | no FMA/`mul_add` in the `nn`/`netsim` kernels (byte identity needs separate mul/add) |
//! | `unsafe-audit` | every `unsafe` block/fn carries an adjacent `// SAFETY:` justification |
//! | `nondeterminism-taint` | no nondeterministic source value reaches a digest/serialization sink |
//!
//! Each is a [`Rule`] in the one registry ([`crate::all_rules`]),
//! reports through the same [`Finding`] type as the per-file rules,
//! matches source through the same token [`Patterns`] and honours the
//! same `// lint: allow(<name>)` escape hatch; on
//! `nondeterminism-taint` a waiver on a *function header* additionally
//! acts as an audited taint barrier (the fn neither sources nor
//! propagates — reserved for boundaries like the index-ordered sweep
//! merge whose determinism is pinned by byte-identity tests).

use crate::graph::Workspace;
use crate::items::FnItem;
use crate::rules::{Finding, Rule, AMBIENT_ENTROPY, CLOCK_READS, THREAD_SPAWNS, UNORDERED_TYPES};
use crate::source::SourceFile;
use crate::tokens::Patterns;

// ---------------------------------------------------------------------
// lock-across-call
// ---------------------------------------------------------------------

/// `lock-across-call`: a `Mutex`/`RwLock` guard that stays live across
/// a call which (transitively) reaches training, simulation or file IO
/// serializes exactly the work the sweep engine exists to parallelize —
/// the `ModelStore::get_or_train` bug PR 8 fixed by hand (the cache
/// mutex held across a whole training run). Guards must die before the
/// expensive call: shrink the binding's block, clone out the needed
/// data, or `drop(guard)` first.
pub struct LockAcrossCall;

/// Callee names that are expensive by name alone, resolved or not:
/// training entry points, simulation drivers, blocking waits.
fn expensive_name(name: &str) -> bool {
    name == "run"
        || name.starts_with("run_")
        || name.starts_with("train")
        || name.starts_with("simulate")
        || name == "join"
        || name == "read_to_string"
        || name == "create_dir_all"
}

/// Body patterns that make a fn an expensive root (file IO).
const IO_MARKERS: &[&str] = &["std::fs::", "std::io::", "File::open", "File::create"];

/// Calls on the acquisition line that are part of acquiring the guard,
/// never the held-across work.
const ACQUISITION_CALLS: &[&str] = &["lock", "read", "write", "expect", "unwrap"];

/// Per-node "calling this is expensive" seed: the fn itself calls an
/// expensive-by-name callee or touches file IO.
fn expensive_seeds(ws: &Workspace) -> Vec<bool> {
    let io = Patterns::new(&[IO_MARKERS]);
    ws.graph
        .nodes
        .iter()
        .enumerate()
        .map(|(id, _)| {
            let f = ws.graph.fn_of(&ws.files, id);
            let file = ws.graph.file_of(&ws.files, id);
            if f.calls.iter().any(|c| expensive_name(&c.name)) {
                return true;
            }
            f.body.is_some_and(|(s, e)| io.any_in(file.tokens_in(s, e)))
        })
        .collect()
}

impl Rule for LockAcrossCall {
    fn id(&self) -> &'static str {
        "lock-across-call"
    }
    fn description(&self) -> &'static str {
        "lock guard live across a call that reaches training/simulation/IO"
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let seeds = expensive_seeds(ws);
        let none = vec![false; seeds.len()];
        let expensive = ws.graph.propagate_from_callees(&seeds, &none);
        for (id, _) in ws.graph.nodes.iter().enumerate() {
            let f = ws.graph.fn_of(&ws.files, id);
            let file = ws.graph.file_of(&ws.files, id);
            for guard in &f.guards {
                if file.is_test[guard.line] {
                    continue;
                }
                if file.allowed(guard.line, &["lock-across-call", "lock_across_call"]) {
                    continue;
                }
                // The first expensive call inside the guard's live range
                // (excluding the acquisition calls on the `let` line).
                let hit = f.calls.iter().find(|c| {
                    c.line >= guard.line
                        && c.line <= guard.end_line
                        && !(c.line == guard.line && ACQUISITION_CALLS.contains(&c.name.as_str()))
                        && (expensive_name(&c.name)
                            || ws.graph.resolve(&c.name).iter().any(|&t| expensive[t]))
                });
                let Some(call) = hit else { continue };
                if file.allowed(call.line, &["lock-across-call", "lock_across_call"]) {
                    continue;
                }
                let target = ws
                    .graph
                    .resolve(&call.name)
                    .iter()
                    .find(|&&t| expensive[t])
                    .map(|&t| ws.graph.qualified[t].clone())
                    .unwrap_or_else(|| call.name.clone());
                out.push(Finding::at(
                    self,
                    file,
                    call.line,
                    format!(
                        "`{}` ({} guard acquired on line {}) is still live across \
                         `{}`, which reaches training/simulation/IO — the \
                         ModelStore::get_or_train bug class; end the guard's block \
                         (or drop() it) before the call, or waive an audited hold \
                         with `// lint: allow(lock_across_call)`",
                        guard.binding,
                        guard.method,
                        guard.line + 1,
                        target,
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// fma-determinism
// ---------------------------------------------------------------------

/// `fma-determinism`: the batched kernels' headline contract is that
/// batched and per-flow forwards are *bit-identical*, which holds only
/// because every variant applies the same separate multiply-then-add
/// per element (one rounding per op). A fused multiply-add rounds once
/// instead of twice, so any `mul_add`/FMA intrinsic inside `nn` or
/// `netsim` silently breaks batched-vs-sequential byte identity and the
/// pinned run digests downstream.
pub struct FmaDeterminism;

/// `mul_add` plus every x86 fused-intrinsic family: `fmadd` (also
/// covers `fmaddsub`), `fmsub` (and `fmsubadd`), `fnmadd`, `fnmsub`.
const FMA_PATTERNS: &[&str] = &["mul_add(", "fmadd", "fmsub", "fnmadd", "fnmsub"];

impl Rule for FmaDeterminism {
    fn id(&self) -> &'static str {
        "fma-determinism"
    }
    fn description(&self) -> &'static str {
        "FMA/mul_add in the nn/netsim kernels (breaks batched bit identity)"
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let fma = Patterns::new(&[FMA_PATTERNS]);
        for file in &ws.files {
            if file.krate != "nn" && file.krate != "netsim" {
                continue;
            }
            for line in 0..file.lines.len() {
                if !fma.any_in(file.tokens_on(line))
                    || file.allowed(line, &["fma-determinism", "fma"])
                {
                    continue;
                }
                out.push(Finding::at(
                    self,
                    file,
                    line,
                    "fused multiply-add rounds once where the scalar kernel \
                     rounds twice, breaking batched-vs-sequential bit \
                     identity; keep separate mul/add in per-element order, \
                     or waive a non-kernel use with `// lint: allow(fma)`"
                        .to_string(),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// unsafe-audit
// ---------------------------------------------------------------------

/// `unsafe-audit`: every `unsafe` block and `unsafe fn` must carry an
/// adjacent `// SAFETY:` comment stating the invariant that makes it
/// sound (same line, or the contiguous comment/attribute run directly
/// above). Doc `# Safety` sections document the *caller's* obligation;
/// the `// SAFETY:` comment records why *this* site meets it. The
/// `libra-lint --emit-unsafe-inventory` emitter renders every site into
/// `dev/unsafe_inventory.md`, which ci.sh drift-gates.
pub struct UnsafeAudit;

/// The justification text after `SAFETY:` adjacent to `line`, if any,
/// read from comments only.
pub fn safety_justification(file: &SourceFile, line: usize) -> Option<String> {
    let extract = |i: usize| {
        let c = &file.comments[i];
        c.find("SAFETY:")
            .map(|p| c[p + "SAFETY:".len()..].trim().to_string())
    };
    if let Some(j) = extract(line) {
        return Some(j);
    }
    // Walk the contiguous run of `//` comment lines and attribute lines
    // directly above.
    let mut i = line;
    while i > 0 {
        i -= 1;
        let adjacent = match file.tokens_on(i) {
            [] => file.comments[i].starts_with("//"),
            [hash, next, ..] => hash.is_punct('#') && (next.is_punct('[') || next.is_punct('!')),
            _ => false,
        };
        if !adjacent {
            break;
        }
        if let Some(j) = extract(i) {
            return Some(j);
        }
    }
    None
}

impl Rule for UnsafeAudit {
    fn id(&self) -> &'static str {
        "unsafe-audit"
    }
    fn description(&self) -> &'static str {
        "unsafe block/fn without an adjacent // SAFETY: justification"
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for file in &ws.files {
            for site in &file.items.unsafe_sites {
                if safety_justification(file, site.line).is_some() {
                    continue;
                }
                if file.allowed(site.line, &["unsafe-audit", "unsafe_audit"]) {
                    continue;
                }
                let kind = if site.is_fn {
                    "unsafe fn"
                } else {
                    "unsafe block"
                };
                out.push(Finding::at(
                    self,
                    file,
                    site.line,
                    format!(
                        "{kind} without an adjacent `// SAFETY:` comment; state the \
                         invariant that makes this site sound (it also feeds \
                         dev/unsafe_inventory.md)",
                    ),
                ));
            }
        }
    }
}

/// Render the committed unsafe inventory (`dev/unsafe_inventory.md`).
/// Deterministic: files are path-sorted in the workspace, sites are
/// line-sorted by the item parser.
pub fn unsafe_inventory(ws: &Workspace) -> String {
    let mut rows = Vec::new();
    for file in &ws.files {
        for site in &file.items.unsafe_sites {
            let kind = if site.is_fn { "fn" } else { "block" };
            let context = if site.context.is_empty() {
                "—".to_string()
            } else {
                format!("`{}`", site.context)
            };
            let justification = safety_justification(file, site.line)
                .map(|j| j.replace('|', "\\|"))
                .unwrap_or_else(|| "**MISSING**".to_string());
            rows.push(format!(
                "| {} | {} | {} | {} | {} |",
                file.path.display(),
                site.line + 1,
                kind,
                context,
                justification,
            ));
        }
    }
    let mut out = String::new();
    out.push_str("# Unsafe inventory\n\n");
    out.push_str(
        "Generated by `cargo run -p libra-lint -- --emit-unsafe-inventory`;\n\
         `scripts/ci.sh` regenerates it and fails on drift. Do not edit by\n\
         hand.\n\n\
         Every `unsafe` site in the linted tree (the `src/`, `examples/`\n\
         and `tests/` of every workspace crate and of the root package),\n\
         with the first line of its `// SAFETY:` justification. The\n\
         `unsafe-audit` lint denies any site without one.\n\n",
    );
    out.push_str("| file | line | kind | context | justification |\n");
    out.push_str("|---|---|---|---|---|\n");
    for row in &rows {
        out.push_str(row);
        out.push('\n');
    }
    out.push_str(&format!("\n{} site(s).\n", rows.len()));
    out
}

// ---------------------------------------------------------------------
// nondeterminism-taint
// ---------------------------------------------------------------------

/// `nondeterminism-taint`: reproducibility dies quietly when a host
/// value (wall clock, thread scheduling, hash seeds) flows through a
/// couple of helpers and lands in a serialized artifact or digest —
/// each helper looks innocent, only the composition is wrong. This rule
/// computes interprocedural taint over the call graph: *sources* are
/// fns that read host clocks (including audited `host-clock` waiver
/// sites — waived reads are still nondeterministic *values*), spawn
/// threads, or use ambient hash state / unordered iteration; taint
/// propagates callee→caller (through return values); *sinks* are serde
/// serialization calls, digest/fingerprint helpers and artifact
/// writers. A tainted fn that feeds a sink is denied.
///
/// A `// lint: allow(nondeterminism_taint)` on a fn *header* is an
/// audited barrier (the fn neither sources nor propagates); on a source
/// or sink line it waives that line only.
pub struct NondeterminismTaint;

const UNORDERED_ITER: &[&str] = &[".iter()", ".keys()", ".values()", ".drain(", ".into_iter()"];

const SERIALIZE_SINKS: &[&str] = &[
    "serde_json::to_string",
    "serde_json::to_vec",
    "serde_json::to_writer",
    "write_artifact(",
];

const TAINT_WAIVERS: &[&str] = &["nondeterminism-taint", "nondeterminism_taint"];

/// The taint rule's token patterns, lexed once per check.
struct TaintPatterns {
    sources: [(&'static str, Patterns); 3],
    unordered_types: Patterns,
    unordered_iter: Patterns,
    sinks: Patterns,
}

impl TaintPatterns {
    fn new() -> TaintPatterns {
        TaintPatterns {
            sources: [
                ("host-clock", Patterns::new(&[CLOCK_READS])),
                ("thread-scheduling", Patterns::new(&[THREAD_SPAWNS])),
                ("ambient-entropy", Patterns::new(&[AMBIENT_ENTROPY])),
            ],
            unordered_types: Patterns::new(&[UNORDERED_TYPES]),
            unordered_iter: Patterns::new(&[UNORDERED_ITER]),
            sinks: Patterns::new(&[SERIALIZE_SINKS]),
        }
    }

    /// The first nondeterministic source in `f`'s body: `(kind, line)`.
    fn source_of(&self, file: &SourceFile, f: &FnItem) -> Option<(&'static str, usize)> {
        let (s, e) = f.body?;
        let has_unordered_type = self.unordered_types.any_in(file.tokens_in(s, e));
        for line in s..=e {
            if file.allowed(line, TAINT_WAIVERS) {
                continue;
            }
            let tokens = file.tokens_on(line);
            if let Some(&(kind, _)) = self.sources.iter().find(|(_, p)| p.any_in(tokens)) {
                return Some((kind, line));
            }
            if has_unordered_type && self.unordered_iter.any_in(tokens) {
                return Some(("unordered-iteration", line));
            }
        }
        None
    }

    /// The first serialization/digest sink in `f`: `(line, description)`.
    fn sink_of(&self, file: &SourceFile, f: &FnItem) -> Option<(usize, String)> {
        let (s, e) = f.body?;
        let mut best = (s..=e).find_map(|line| {
            let p = self.sinks.first_in(file.tokens_on(line))?;
            Some((
                line,
                format!("serializes via `{}`", p.trim_end_matches('(')),
            ))
        });
        for c in &f.calls {
            if c.name.contains("digest") || c.name.contains("fingerprint") {
                let what = format!("feeds digest `{}`", c.name);
                if best.as_ref().is_none_or(|(l, _)| c.line < *l) {
                    best = Some((c.line, what));
                }
            }
        }
        best
    }
}

impl Rule for NondeterminismTaint {
    fn id(&self) -> &'static str {
        "nondeterminism-taint"
    }
    fn description(&self) -> &'static str {
        "nondeterministic source value reaches a digest/serialization sink"
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let patterns = TaintPatterns::new();
        let n = ws.graph.nodes.len();
        let mut base = vec![false; n];
        let mut excluded = vec![false; n];
        let mut kinds: Vec<Option<&'static str>> = vec![None; n];
        for id in 0..n {
            let f = ws.graph.fn_of(&ws.files, id);
            let file = ws.graph.file_of(&ws.files, id);
            if file.is_test[f.sig_line] || file.allowed(f.sig_line, TAINT_WAIVERS) {
                excluded[id] = true;
                continue;
            }
            if let Some((kind, _)) = patterns.source_of(file, f) {
                base[id] = true;
                kinds[id] = Some(kind);
            }
        }
        let tainted = ws.graph.propagate_from_callees(&base, &excluded);
        for id in 0..n {
            if !tainted[id] {
                continue;
            }
            let f = ws.graph.fn_of(&ws.files, id);
            let file = ws.graph.file_of(&ws.files, id);
            let Some((line, what)) = patterns.sink_of(file, f) else {
                continue;
            };
            if file.allowed(line, TAINT_WAIVERS) {
                continue;
            }
            let chain = ws.graph.witness_chain(id, &tainted, &base);
            let kind = chain
                .last()
                .and_then(|&last| kinds[last])
                .unwrap_or("nondeterministic");
            let path: Vec<&str> = chain
                .iter()
                .take(6)
                .map(|&c| ws.graph.qualified[c].as_str())
                .collect();
            let suffix = if chain.len() > 6 { " → …" } else { "" };
            out.push(Finding::at(
                self,
                file,
                line,
                format!(
                    "`{}` {what} while tainted by a {kind} source \
                     (taint path: {}{suffix}); host-dependent values must not \
                     reach serialized artifacts or digests — keep them out of \
                     the serialized shape, or waive an audited flow with \
                     `// lint: allow(nondeterminism_taint)` (on the sink line; \
                     on a fn header it is a taint barrier)",
                    ws.graph.qualified[id],
                    path.join(" → "),
                ),
            ));
        }
    }
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

    fn run_rule(rule: &dyn Rule, files: &[(&str, &str)]) -> Vec<Finding> {
        let w = ws(files);
        let mut out = Vec::new();
        rule.check(&w, &mut out);
        out
    }

    #[test]
    fn lock_held_across_training_call_is_flagged() {
        // The pre-PR8 ModelStore shape: map mutex held across training.
        let hits = run_rule(
            &LockAcrossCall,
            &[(
                "crates/bench/src/models.rs",
                "impl Store {\n    fn get_or_train(&self) -> W {\n        let mut cache = self.cache.lock().expect(\"poisoned\");\n        cache.entry(k).or_insert_with(|| self.load_or_train(k)).clone()\n    }\n    fn load_or_train(&self, k: K) -> W {\n        train_weights(k)\n    }\n}\n",
            )],
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "lock-across-call");
        assert_eq!(hits[0].line, 4);
    }

    #[test]
    fn guard_scoped_out_before_call_is_clean() {
        // The post-PR8 shape: guard dies in an inner block, training
        // happens outside it.
        let hits = run_rule(
            &LockAcrossCall,
            &[(
                "crates/bench/src/models.rs",
                "impl Store {\n    fn get_or_train(&self) -> W {\n        let cell = {\n            let mut cache = self.cache.lock().expect(\"poisoned\");\n            cache.fetch(k)\n        };\n        cell.get_or_init(|| self.load_or_train(k)).clone()\n    }\n    fn load_or_train(&self, k: K) -> W {\n        train_weights(k)\n    }\n}\n",
            )],
        );
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn fma_flagged_only_in_kernel_crates() {
        let bad = run_rule(
            &FmaDeterminism,
            &[(
                "crates/nn/src/k.rs",
                "fn f(a: f64) -> f64 {\n    a.mul_add(2.0, 1.0)\n}\n",
            )],
        );
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "fma-determinism");
        let other = run_rule(
            &FmaDeterminism,
            &[(
                "crates/bench/src/k.rs",
                "fn f(a: f64) -> f64 {\n    a.mul_add(2.0, 1.0)\n}\n",
            )],
        );
        assert!(other.is_empty());
    }

    #[test]
    fn fma_flags_every_fused_intrinsic_family() {
        for call in [
            "_mm256_fmadd_pd",
            "_mm256_fmsub_pd",
            "_mm512_fnmadd_pd",
            "_mm_fnmsub_sd",
        ] {
            let src = format!("fn f(a: V) -> V {{\n    {call}(a, a, a)\n}}\n");
            let hits = run_rule(&FmaDeterminism, &[("crates/nn/src/k.rs", src.as_str())]);
            assert_eq!(hits.len(), 1, "{call} not flagged");
        }
    }

    #[test]
    fn unsafe_requires_adjacent_safety_comment() {
        let bad = run_rule(
            &UnsafeAudit,
            &[(
                "crates/nn/src/k.rs",
                "fn f() {\n    unsafe { fast() };\n}\n",
            )],
        );
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "unsafe-audit");
        let good = run_rule(
            &UnsafeAudit,
            &[(
                "crates/nn/src/k.rs",
                "fn f() {\n    // SAFETY: bounds were checked above.\n    unsafe { fast() };\n}\n",
            )],
        );
        assert!(good.is_empty(), "{good:?}");
        // Through an attribute run (unsafe fn with target_feature).
        let attr = run_rule(
            &UnsafeAudit,
            &[(
                "crates/nn/src/k.rs",
                "// SAFETY: caller verified AVX.\n#[target_feature(enable = \"avx\")]\nunsafe fn kern() {\n}\n",
            )],
        );
        assert!(attr.is_empty(), "{attr:?}");
    }

    #[test]
    fn inventory_lists_sites_with_justifications() {
        let w = ws(&[(
            "crates/nn/src/k.rs",
            "fn f() {\n    // SAFETY: bounds were checked above.\n    unsafe { fast() };\n}\nunsafe fn raw() {\n}\n",
        )]);
        let inv = unsafe_inventory(&w);
        assert!(
            inv.contains("| crates/nn/src/k.rs | 3 | block | `f` | bounds were checked above. |")
        );
        assert!(inv.contains("| crates/nn/src/k.rs | 5 | fn | `raw` | **MISSING** |"));
        assert!(inv.contains("2 site(s)."));
    }

    #[test]
    fn taint_launders_through_two_helpers() {
        // helper1 reads the clock (host-clock-waived — still a source),
        // helper2 launders it, report serializes: flagged at the sink.
        let hits = run_rule(
            &NondeterminismTaint,
            &[(
                "crates/bench/src/r.rs",
                "fn helper1() -> u64 {\n    // lint: allow(host_clock)\n    read(std::time::Instant::now())\n}\nfn helper2() -> u64 {\n    helper1()\n}\nfn report() -> String {\n    let t = helper2();\n    serde_json::to_string(&t).expect(\"json\")\n}\n",
            )],
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "nondeterminism-taint");
        assert_eq!(hits[0].line, 10);
        assert!(
            hits[0]
                .message
                .contains("bench::report → bench::helper2 → bench::helper1"),
            "{}",
            hits[0].message
        );
    }

    #[test]
    fn taint_barrier_on_header_stops_propagation() {
        let hits = run_rule(
            &NondeterminismTaint,
            &[(
                "crates/bench/src/r.rs",
                "fn helper1() -> u64 {\n    // lint: allow(host_clock)\n    read(std::time::Instant::now())\n}\n// lint: allow(nondeterminism_taint) — measurement never leaves compute_ns\nfn helper2() -> u64 {\n    helper1()\n}\nfn report() -> String {\n    let t = helper2();\n    serde_json::to_string(&t).expect(\"json\")\n}\n",
            )],
        );
        assert!(hits.is_empty(), "{hits:?}");
    }
}
