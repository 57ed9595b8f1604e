//! The item layer: token stream → per-file items (functions, unsafe
//! sites, lock-guard bindings, call sites, test regions, unbounded
//! loops). This is the lint's one brace-tracking pass.
//!
//! This is a *name-resolution-lite* parser: it tracks exactly the
//! structure the rules need — module nesting, `impl` owners, `fn`
//! bodies with brace-accurate spans, `unsafe` blocks/fns, `let`-bound
//! lock guards with their live ranges, callee names, `#[cfg(test)]` /
//! `#[test]` items and `loop` / `while true` bodies — and nothing else
//! (no types, no generics semantics, no expressions). Rust's item
//! grammar is regular enough at this altitude that a single forward
//! pass with depth stacks is exact for the constructs we consume; the
//! deliberate approximations are documented on each field.
//!
//! Everything here is a pure function of the token stream, so the
//! symbol graph built on top inherits the lexer's determinism.

use crate::tokens::{Patterns, Token, TokenKind};

/// One callee reference inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called name: last path segment for `a::b::f(…)`, the method
    /// name for `x.f(…)`. Macros (`f!(…)`) are not calls.
    pub name: String,
    /// 0-based line of the callee identifier.
    pub line: usize,
    /// True for `receiver.name(…)` method syntax.
    pub is_method: bool,
}

/// A `let`-bound lock guard (`let g = x.lock()…;` / `if let Ok(g) = …`)
/// and the range of lines it stays live.
#[derive(Debug, Clone)]
pub struct GuardSpan {
    /// The bound identifier (first binding of the pattern).
    pub binding: String,
    /// The acquiring method: `lock`, `read` or `write`.
    pub method: String,
    /// 0-based line of the `let`.
    pub line: usize,
    /// 0-based line where the guard dies: an explicit `drop(binding)`,
    /// or the close of the enclosing block.
    pub end_line: usize,
}

/// One function (or method) item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare name (`get_or_train`).
    pub name: String,
    /// `::`-joined in-file module path (`""` at file root).
    pub module: String,
    /// Innermost `impl` self-type name (`""` for free functions). For
    /// `impl Trait for Type` this is `Type`.
    pub owner: String,
    /// 0-based line of the `fn` keyword.
    pub sig_line: usize,
    /// `(first, last)` 0-based body lines; `None` for bodyless trait
    /// signatures.
    pub body: Option<(usize, usize)>,
    /// Declared `unsafe fn`.
    pub is_unsafe: bool,
    /// Call sites in body order.
    pub calls: Vec<CallSite>,
    /// Lock-guard bindings in body order.
    pub guards: Vec<GuardSpan>,
}

/// An `unsafe` occurrence that demands a `// SAFETY:` justification.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// 0-based line of the `unsafe` keyword.
    pub line: usize,
    /// True for `unsafe fn`, false for an `unsafe { … }` block.
    pub is_fn: bool,
    /// The enclosing (or declared) function's bare name, `""` outside
    /// any function.
    pub context: String,
}

/// Everything the item parser extracts from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    pub fns: Vec<FnItem>,
    pub unsafe_sites: Vec<UnsafeSite>,
    /// `(first, last)` 0-based lines of each `#[cfg(test)]` / `#[test]`
    /// item: from the attribute through the item's closing brace, or
    /// through the `;` ending its line for a braceless item
    /// (`#[cfg(test)] use …;`).
    pub tests: Vec<(usize, usize)>,
    /// `(header, last)` 0-based lines of each `loop { … }` /
    /// `while true { … }` body (`for` and conditional `while` loops are
    /// bounded by their header and not tracked).
    pub loops: Vec<(usize, usize)>,
}

/// Keywords that look like calls when followed by `(` but are not.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "unsafe", "move", "in", "as", "else",
    "let", "impl", "mod", "use", "pub", "where", "break", "continue", "crate", "super", "Self",
    "self", "dyn", "ref", "mut", "box", "await", "async", "const", "static", "type", "trait",
    "enum", "struct", "union", "extern",
];

/// A `fn` header seen, body brace not yet reached.
struct PendingFn {
    name: String,
    sig_line: usize,
    is_unsafe: bool,
    module: String,
    owner: String,
    paren_depth: i32,
}

/// An open `fn` body on the nesting stack.
struct OpenFn {
    item: FnItem,
    body_depth: i32,
}

/// A `let` statement being scanned for a guard acquisition.
struct PendingLet {
    binding: Option<String>,
    guard_method: Option<String>,
    line: usize,
    depth: i32,
    /// `if let` / `while let`: the statement ends at `{`, and the
    /// binding scopes to that block instead of the enclosing one.
    condition_form: bool,
    paren_depth: i32,
}

/// An open test item or unbounded loop on the nesting stack:
/// `(is_test, first_line, body_depth)`.
type OpenBlock = (bool, usize, i32);

/// A live guard binding awaiting its scope end.
struct OpenGuard {
    guard: GuardSpan,
    /// Brace depth the binding lives at; the guard dies when a `}`
    /// closes this depth.
    scope_depth: i32,
}

/// Parse one file's token stream into items.
pub fn parse_items(tokens: &[Token]) -> FileItems {
    let mut out = FileItems::default();
    let mut depth: i32 = 0;
    let mut mod_stack: Vec<(String, i32)> = Vec::new();
    let mut impl_stack: Vec<(String, i32)> = Vec::new();
    let mut fn_stack: Vec<OpenFn> = Vec::new();
    let mut open_guards: Vec<OpenGuard> = Vec::new();
    let mut pending_fn: Option<PendingFn> = None;
    let mut pending_let: Option<PendingLet> = None;
    // `unsafe` keyword line, not yet attributed to a fn/block.
    let mut pending_unsafe: Option<usize> = None;
    // `mod` keyword seen, name captured, body brace pending.
    let mut pending_mod: Option<String> = None;
    // Inside an `impl` header: (candidate owner, angle depth, in a
    // `where` clause).
    let mut impl_header: Option<(String, i32, bool)> = None;
    // A test attribute's line, its item not yet opened or ended.
    let mut pending_test: Option<usize> = None;
    // A `loop` / `while true` header line, body brace not yet reached.
    let mut pending_loop: Option<usize> = None;
    let mut blocks: Vec<OpenBlock> = Vec::new();
    let test_attrs = Patterns::new(&[&["#[cfg(test)]", "#[test]"]]);

    let module_path = |stack: &[(String, i32)]| {
        stack
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>()
            .join("::")
    };

    let mut i = 0;
    while i < tokens.len() {
        let tok = &tokens[i];
        let prev = i.checked_sub(1).map(|j| &tokens[j]);
        let next = tokens.get(i + 1);

        if tok.is_punct('#') && test_attrs.at(tokens, i) {
            pending_test.get_or_insert(tok.line);
        }

        // --- impl header capture --------------------------------------
        if let Some((owner, angle, in_where)) = impl_header.as_mut() {
            match (&tok.kind, tok.text.as_str()) {
                (TokenKind::Ident, "for") if *angle == 0 => owner.clear(),
                (TokenKind::Ident, "where") if *angle == 0 => *in_where = true,
                (TokenKind::Ident, name) if *angle == 0 && !*in_where => {
                    *owner = name.to_string();
                }
                (TokenKind::Punct, "<") => *angle += 1,
                // `->` keeps angle depth (return arrows inside
                // `Fn(..) -> T` bounds).
                (TokenKind::Punct, ">") if !prev.is_some_and(|p| p.is_punct('-')) && *angle > 0 => {
                    *angle -= 1;
                }
                (TokenKind::Punct, "{") if *angle == 0 => {
                    // The body opens one level down (depth rises below).
                    impl_stack.push((std::mem::take(owner), depth + 1));
                    impl_header = None;
                }
                (TokenKind::Punct, ";") => impl_header = None, // `impl Foo;` (never valid, be safe)
                _ => {}
            }
            if impl_header.is_some() {
                i += 1;
                continue;
            }
        }

        match tok.kind {
            TokenKind::Ident => match tok.text.as_str() {
                "unsafe" => pending_unsafe = Some(tok.line),
                // `impl Trait` in a signature (param/return position) is
                // a bound, not an item — only start header capture at
                // item position.
                "impl" if pending_fn.is_none() && pending_let.is_none() => {
                    pending_unsafe = None; // `unsafe impl … {}` is not a block site
                    impl_header = Some((String::new(), 0, false));
                }
                "trait" => pending_unsafe = None,
                "loop" if next.is_some_and(|n| n.is_punct('{')) => {
                    pending_loop.get_or_insert(tok.line);
                }
                "while" if next.is_some_and(|n| n.is_ident("true")) => {
                    pending_loop.get_or_insert(tok.line);
                }
                "mod" => {
                    if let Some(n) = next {
                        if n.kind == TokenKind::Ident {
                            pending_mod = Some(n.text.clone());
                            i += 2;
                            continue;
                        }
                    }
                }
                "fn" => {
                    if let Some(n) = next {
                        if n.kind == TokenKind::Ident {
                            let is_unsafe = pending_unsafe.take().is_some();
                            if is_unsafe {
                                out.unsafe_sites.push(UnsafeSite {
                                    line: tok.line,
                                    is_fn: true,
                                    context: n.text.clone(),
                                });
                            }
                            pending_fn = Some(PendingFn {
                                name: n.text.clone(),
                                sig_line: tok.line,
                                is_unsafe,
                                module: module_path(&mod_stack),
                                owner: impl_stack
                                    .last()
                                    .map(|(o, _)| o.clone())
                                    .unwrap_or_default(),
                                paren_depth: 0,
                            });
                            i += 2;
                            continue;
                        }
                    }
                }
                // A nested `let` (e.g. inside a block-valued initializer
                // `let x = { let g = m.lock(); … }`) supersedes the outer
                // statement for guard detection — the acquisition binds
                // the *inner* name.
                "let" if fn_stack.last().is_some() => {
                    let condition_form =
                        prev.is_some_and(|p| p.is_ident("if") || p.is_ident("while"));
                    pending_let = Some(PendingLet {
                        binding: None,
                        guard_method: None,
                        line: tok.line,
                        depth,
                        condition_form,
                        paren_depth: 0,
                    });
                }
                "drop" if next.is_some_and(|n| n.is_punct('(')) => {
                    // Explicit `drop(binding)` ends that guard's span.
                    if let Some(arg) = tokens.get(i + 2) {
                        if arg.kind == TokenKind::Ident
                            && tokens.get(i + 3).is_some_and(|t| t.is_punct(')'))
                        {
                            for og in open_guards.iter_mut() {
                                if og.guard.binding == arg.text && og.guard.end_line == usize::MAX {
                                    og.guard.end_line = tok.line;
                                }
                            }
                        }
                    }
                }
                _ => {}
            },
            TokenKind::Punct => match tok.text.as_str() {
                "(" => {
                    if let Some(pf) = pending_fn.as_mut() {
                        pf.paren_depth += 1;
                    }
                    if let Some(pl) = pending_let.as_mut() {
                        pl.paren_depth += 1;
                    }
                }
                ")" => {
                    if let Some(pf) = pending_fn.as_mut() {
                        pf.paren_depth -= 1;
                    }
                    if let Some(pl) = pending_let.as_mut() {
                        pl.paren_depth -= 1;
                    }
                }
                "{" => {
                    depth += 1;
                    if let Some(start) = pending_test.take() {
                        blocks.push((true, start, depth));
                    }
                    if let Some(start) = pending_loop.take() {
                        blocks.push((false, start, depth));
                    }
                    if let Some(line) = pending_unsafe.take() {
                        out.unsafe_sites.push(UnsafeSite {
                            line,
                            is_fn: false,
                            context: fn_stack
                                .last()
                                .map(|f| f.item.name.clone())
                                .unwrap_or_default(),
                        });
                    }
                    if let Some(name) = pending_mod.take() {
                        mod_stack.push((name, depth));
                    } else if let Some(pf) = pending_fn.take() {
                        if pf.paren_depth == 0 {
                            fn_stack.push(OpenFn {
                                item: FnItem {
                                    name: pf.name,
                                    module: pf.module,
                                    owner: pf.owner,
                                    sig_line: pf.sig_line,
                                    body: Some((tok.line, tok.line)),
                                    is_unsafe: pf.is_unsafe,
                                    calls: Vec::new(),
                                    guards: Vec::new(),
                                },
                                body_depth: depth,
                            });
                        } else {
                            // Brace inside parameter parens (never valid
                            // Rust; recover by re-pending).
                            pending_fn = Some(pf);
                        }
                    } else if let Some(pl) = pending_let.as_mut() {
                        if pl.condition_form && pl.paren_depth == 0 {
                            // `if let PAT = EXPR {` — statement complete;
                            // the binding scopes to the opened block.
                            let pl = pending_let.take().expect("checked some above");
                            if let (Some(binding), Some(method)) = (pl.binding, pl.guard_method) {
                                open_guards.push(OpenGuard {
                                    guard: GuardSpan {
                                        binding,
                                        method,
                                        line: pl.line,
                                        end_line: usize::MAX,
                                    },
                                    scope_depth: depth,
                                });
                            }
                        }
                    }
                }
                "}" => {
                    // Close guards bound at this depth.
                    let mut idx = 0;
                    while idx < open_guards.len() {
                        if open_guards[idx].scope_depth == depth {
                            let mut og = open_guards.remove(idx);
                            if og.guard.end_line == usize::MAX {
                                og.guard.end_line = tok.line;
                            }
                            if let Some(f) = fn_stack.last_mut() {
                                f.item.guards.push(og.guard);
                            }
                        } else {
                            idx += 1;
                        }
                    }
                    if fn_stack.last().is_some_and(|f| f.body_depth == depth) {
                        let mut f = fn_stack.pop().expect("checked non-empty above");
                        if let Some((start, _)) = f.item.body {
                            f.item.body = Some((start, tok.line));
                        }
                        // Nested fn bodies report their calls themselves;
                        // keep nesting simple by attaching the nested item
                        // to the file, not the parent.
                        out.fns.push(f.item);
                    }
                    if mod_stack.last().is_some_and(|&(_, d)| d == depth) {
                        mod_stack.pop();
                    }
                    if impl_stack.last().is_some_and(|&(_, d)| d == depth) {
                        impl_stack.pop();
                    }
                    while let Some(&(is_test, start, _)) =
                        blocks.last().filter(|&&(_, _, d)| d == depth)
                    {
                        blocks.pop();
                        let spans = if is_test {
                            &mut out.tests
                        } else {
                            &mut out.loops
                        };
                        spans.push((start, tok.line));
                    }
                    depth -= 1;
                    pending_unsafe = None;
                }
                ";" => {
                    pending_unsafe = None;
                    // A braceless test item ends with its line.
                    if tokens.get(i + 1).is_none_or(|n| n.line > tok.line) {
                        if let Some(start) = pending_test.take() {
                            out.tests.push((start, tok.line));
                        }
                    }
                    if pending_fn.as_ref().is_some_and(|pf| pf.paren_depth == 0) {
                        // Bodyless trait signature.
                        let pf = pending_fn.take().expect("checked some above");
                        out.fns.push(FnItem {
                            name: pf.name,
                            module: pf.module,
                            owner: pf.owner,
                            sig_line: pf.sig_line,
                            body: None,
                            is_unsafe: pf.is_unsafe,
                            calls: Vec::new(),
                            guards: Vec::new(),
                        });
                    }
                    pending_mod = None; // `mod name;` — out-of-line module
                    if pending_let.as_ref().is_some_and(|pl| pl.depth == depth) {
                        let pl = pending_let.take().expect("checked some above");
                        if let (Some(binding), Some(method)) = (pl.binding, pl.guard_method) {
                            if binding != "_" {
                                open_guards.push(OpenGuard {
                                    guard: GuardSpan {
                                        binding,
                                        method,
                                        line: pl.line,
                                        end_line: usize::MAX,
                                    },
                                    scope_depth: depth,
                                });
                            }
                        }
                    }
                }
                _ => {}
            },
            _ => {}
        }

        // --- pending-let enrichment (binding name, guard method) -------
        if let Some(pl) = pending_let.as_mut() {
            if tok.kind == TokenKind::Ident
                && pl.binding.is_none()
                && !matches!(tok.text.as_str(), "let" | "mut" | "ref" | "Some" | "Ok")
            {
                pl.binding = Some(tok.text.clone());
            }
            // Guard acquisitions are nullary: `.lock()`, `.read()`,
            // `.write()`. An argument means something else entirely
            // (`OpenOptions::new().write(true)`, `io::Read::read(buf)`).
            if tok.kind == TokenKind::Ident
                && matches!(tok.text.as_str(), "lock" | "read" | "write")
                && prev.is_some_and(|p| p.is_punct('.'))
                && next.is_some_and(|n| n.is_punct('('))
                && tokens.get(i + 2).is_some_and(|t| t.is_punct(')'))
            {
                pl.guard_method = Some(tok.text.clone());
            }
        }

        // --- call-site detection ---------------------------------------
        if tok.kind == TokenKind::Ident
            && pending_fn.is_none()
            && next.is_some_and(|n| n.is_punct('('))
            && !NON_CALL_KEYWORDS.contains(&tok.text.as_str())
            && !prev.is_some_and(|p| p.is_ident("fn"))
        {
            if let Some(f) = fn_stack.last_mut() {
                f.item.calls.push(CallSite {
                    name: tok.text.clone(),
                    line: tok.line,
                    is_method: prev.is_some_and(|p| p.is_punct('.')),
                });
            }
        }

        i += 1;
    }

    // Unterminated structures (truncated input): close open fns/guards
    // at the last token's line so nothing is lost.
    let last_line = tokens.last().map(|t| t.line).unwrap_or(0);
    for og in open_guards.drain(..) {
        let mut g = og.guard;
        if g.end_line == usize::MAX {
            g.end_line = last_line;
        }
        if let Some(f) = fn_stack.last_mut() {
            f.item.guards.push(g);
        }
    }
    for mut f in fn_stack.drain(..).rev() {
        if let Some((start, _)) = f.item.body {
            f.item.body = Some((start, last_line));
        }
        out.fns.push(f.item);
    }

    // Deterministic order regardless of nesting-driven push order.
    out.fns.sort_by_key(|f| (f.sig_line, f.name.clone()));
    out.unsafe_sites.sort_by_key(|s| s.line);
    out.tests.sort_unstable();
    out.loops.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::lex;

    fn items(text: &str) -> FileItems {
        parse_items(&lex(text).tokens)
    }

    #[test]
    fn fn_items_carry_module_and_owner() {
        let it = items(
            "mod inner {\n    struct Foo;\n    impl Foo {\n        pub fn method(&self) {}\n    }\n    fn free() {}\n}\nfn top() {}\n",
        );
        let names: Vec<(&str, &str, &str)> = it
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.module.as_str(), f.owner.as_str()))
            .collect();
        assert!(names.contains(&("method", "inner", "Foo")));
        assert!(names.contains(&("free", "inner", "")));
        assert!(names.contains(&("top", "", "")));
    }

    #[test]
    fn impl_trait_for_type_owner_is_type() {
        let it = items("impl Display for Finding {\n    fn fmt(&self) {}\n}\n");
        assert_eq!(it.fns[0].owner, "Finding");
    }

    #[test]
    fn calls_resolve_last_segment_and_skip_macros() {
        let it = items(
            "fn f() {\n    helper();\n    a::b::qualified();\n    x.method_call();\n    println!(\"no\");\n}\n",
        );
        let calls: Vec<&str> = it.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(calls, ["helper", "qualified", "method_call"]);
        assert!(it.fns[0].calls[2].is_method);
    }

    #[test]
    fn fn_param_bounds_are_not_calls() {
        let it = items("fn f(g: impl Fn(usize) -> u32) {\n    g();\n}\n");
        let calls: Vec<&str> = it.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(calls, ["g"]);
    }

    #[test]
    fn unsafe_blocks_and_fns_are_sites() {
        let it = items("fn caller() {\n    unsafe { fast_path() };\n}\nunsafe fn kernel() {\n}\n");
        assert_eq!(it.unsafe_sites.len(), 2);
        assert!(!it.unsafe_sites[0].is_fn);
        assert_eq!(it.unsafe_sites[0].context, "caller");
        assert!(it.unsafe_sites[1].is_fn);
        assert_eq!(it.unsafe_sites[1].context, "kernel");
        assert!(it.fns.iter().any(|f| f.name == "kernel" && f.is_unsafe));
    }

    #[test]
    fn unsafe_impl_is_not_a_site() {
        let it = items("unsafe impl Send for Foo {}\n");
        assert!(it.unsafe_sites.is_empty());
    }

    #[test]
    fn guard_spans_cover_block_and_drop() {
        let it = items(
            "fn f(&self) {\n    let cell = {\n        let mut cache = self.cache.lock().expect(\"p\");\n        cache.get()\n    };\n    expensive();\n}\n",
        );
        let f = &it.fns[0];
        assert_eq!(f.guards.len(), 1);
        let g = &f.guards[0];
        assert_eq!((g.binding.as_str(), g.method.as_str()), ("cache", "lock"));
        assert_eq!(g.line, 2);
        assert_eq!(g.end_line, 4, "guard dies at the inner block close");

        let it2 = items(
            "fn f(&self) {\n    let g = m.lock().expect(\"p\");\n    use_it(&g);\n    drop(g);\n    after();\n}\n",
        );
        let g2 = &it2.fns[0].guards[0];
        assert_eq!(g2.line, 1);
        assert_eq!(g2.end_line, 3, "explicit drop ends the span");
    }

    #[test]
    fn if_let_guard_scopes_to_its_block() {
        let it = items(
            "fn f(&self) {\n    if let Ok(g) = m.lock() {\n        use_it(&g);\n    }\n    after();\n}\n",
        );
        let g = &it.fns[0].guards[0];
        assert_eq!((g.line, g.end_line), (1, 3));
    }

    #[test]
    fn trait_signatures_are_bodyless() {
        let it = items("trait T {\n    fn sig(&self);\n    fn with_default(&self) {}\n}\n");
        let sig = it.fns.iter().find(|f| f.name == "sig").expect("sig item");
        assert!(sig.body.is_none());
        let dflt = it
            .fns
            .iter()
            .find(|f| f.name == "with_default")
            .expect("default item");
        assert!(dflt.body.is_some());
    }

    #[test]
    fn nested_fns_keep_their_own_calls() {
        let it =
            items("fn outer() {\n    fn inner() {\n        deep();\n    }\n    shallow();\n}\n");
        let outer = it.fns.iter().find(|f| f.name == "outer").expect("outer");
        let inner = it.fns.iter().find(|f| f.name == "inner").expect("inner");
        let oc: Vec<&str> = outer.calls.iter().map(|c| c.name.as_str()).collect();
        let ic: Vec<&str> = inner.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(oc, ["shallow"]);
        assert_eq!(ic, ["deep"]);
    }

    #[test]
    fn fn_names_parse_from_headers() {
        let it = items(
            "    pub fn try_emit(&mut self) {\n    }\nfn pop(&mut self) -> Option<TimedEvent> {\n}\nlet not_a_fn = 1;\n",
        );
        let names: Vec<(&str, usize)> = it
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.sig_line))
            .collect();
        assert_eq!(names, [("try_emit", 0), ("pop", 2)]);
        // A `;` inside the parameter list does not end the signature.
        let it = items("fn f(x: [u8; 4]) {\n    x;\n}\n");
        assert_eq!(it.fns[0].body, Some((0, 2)));
    }

    #[test]
    fn test_regions_cover_cfg_test_items() {
        let it = items(
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { body(); }\n}\nfn prod2() {}\n",
        );
        assert_eq!(it.tests, [(1, 5), (3, 4)]);
        // A braceless item ends at the `;` closing its line; an impl
        // block is one region from its attribute to its closing brace.
        let it = items(
            "#[cfg(test)]\nuse helper::{a, b};\n#[cfg(test)]\nuse other::c;\nfn prod() {}\n#[cfg(test)]\nimpl Foo {\n    fn a() {}\n    fn b() {}\n}\n",
        );
        assert_eq!(it.tests, [(0, 1), (2, 3), (5, 9)]);
        // Other attributes do not open a region.
        let it = items("#[cfg(not(test))]\nfn prod() {}\n#[inline]\nfn q() {}\n");
        assert!(it.tests.is_empty());
    }

    #[test]
    fn loop_spans_cover_unbounded_loops_only() {
        let it = items(
            "fn f() {\n    'outer: loop {\n        while true {\n            step();\n        }\n    }\n    for i in 0..n {\n    }\n    while busy() {\n    }\n}\n",
        );
        assert_eq!(it.loops, [(1, 5), (2, 4)]);
    }
}
