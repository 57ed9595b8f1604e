// Production code must justify every potential panic site: unwraps are
// banned outside tests (audited sites use `expect` with an invariant
// message or handle the `None`/`Err` branch).

//! The lexer: raw source → a flat, line-addressed token stream, plus
//! each line's comment text — the one view of a file every rule reads.
//!
//! [`lex`] resolves comments (line, nested block), string literals
//! (escapes, line continuations, raw `r#"…"#` forms) and char literals
//! versus lifetimes itself, so no token ever carries commented-out or
//! quoted text: a `fn` in a doc example or a `.lock()` inside a string
//! can never mint a symbol, a call edge or a finding. Comment text is
//! kept per line, because that is where the waivers
//! (`// lint: allow(…)`) and `// SAFETY:` justifications live. The
//! lexer is deliberately coarse (identifiers, lifetimes, numbers,
//! literal shells, single punctuation) — exactly the granularity the
//! item grammar and the [`Patterns`] matcher consume (no float
//! disambiguation beyond `1.max(2)`, no compound operators).
//!
//! Determinism: tokens come back in strict `(line, col)` order, a pure
//! function of the input text — the property the analyzer-determinism
//! test pins alongside the symbol graph.

/// What a token is; just enough classification for item parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `unsafe`, `lock`, …).
    Ident,
    /// A lifetime or loop label (`'a`, `'retry`).
    Lifetime,
    /// Numeric literal (integers, floats, suffixed forms).
    Num,
    /// A string literal (any form: plain, byte, raw).
    Str,
    /// A char literal.
    Char,
    /// One punctuation character.
    Punct,
}

/// One token with its position in the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    /// The token text: the identifier, number or punctuation character
    /// as written, a lifetime with its quote. String and char literals
    /// carry only their delimiters (`""`, `''`): their contents never
    /// reach a token.
    pub text: String,
    /// 0-based line of the token's first character.
    pub line: usize,
    /// 0-based character column of the token's first character.
    pub col: usize,
    /// 0-based line of the token's last character (past `line` only for
    /// a string literal that spans lines).
    pub end_line: usize,
    /// Whitespace or a comment separates the token from what precedes
    /// it on its line (false at column 0).
    pub spaced: bool,
}

impl Token {
    /// True when the token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// True when the token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }

    /// The identifier-like text of an identifier or a lifetime (without
    /// its quote); `None` for every other kind.
    fn word(&self) -> Option<&str> {
        match self.kind {
            TokenKind::Ident => Some(&self.text),
            TokenKind::Lifetime => Some(&self.text[1..]),
            _ => None,
        }
    }
}

/// A lexed file: its tokens and, per source line, the text of the
/// comments on that line (delimiters included; empty when none).
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<String>,
}

/// A character cursor that keeps `(line, col)` as it moves.
struct Cursor {
    chars: Vec<char>,
    i: usize,
    line: usize,
    col: usize,
    /// The line of the last character consumed.
    last_line: usize,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.i += 1;
        self.last_line = self.line;
        if c == '\n' {
            self.line += 1;
            self.col = 0;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Consume identifier characters; return them.
    fn word(&mut self) -> String {
        let mut w = String::new();
        while let Some(c) = self.peek(0).filter(|&c| c == '_' || c.is_alphanumeric()) {
            w.push(c);
            self.bump();
        }
        w
    }

    /// The number of `#` after the cursor when they lead to a `"` (a
    /// raw string's opening), else `None`.
    fn raw_hashes(&self) -> Option<usize> {
        let hashes = (0..).take_while(|&k| self.peek(k) == Some('#')).count();
        (self.peek(hashes) == Some('"')).then_some(hashes)
    }

    /// Consume a comment starting at the cursor (`//` or `/*`, nested),
    /// appending its text to the comment entry of each line it covers.
    fn comment(&mut self, comments: &mut [String]) {
        let block = self.peek(1) == Some('*');
        let mut depth = 0u32;
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                if !block {
                    return;
                }
                self.bump();
                continue;
            }
            let pair = [Some(c), self.peek(1)];
            let step = if block && pair == [Some('/'), Some('*')] {
                depth += 1;
                2
            } else if block && pair == [Some('*'), Some('/')] {
                depth -= 1;
                2
            } else {
                1
            };
            for _ in 0..step {
                let line = self.line;
                if let Some(c) = self.bump() {
                    if let Some(text) = comments.get_mut(line) {
                        text.push(c);
                    }
                }
            }
            if block && depth == 0 {
                return;
            }
        }
    }

    /// Consume a string body after its opening quote (`hashes` is
    /// `Some` for a raw string), through the closing delimiter or to
    /// the end of the input.
    fn string_body(&mut self, hashes: Option<usize>) {
        while let Some(c) = self.bump() {
            match (c, hashes) {
                ('\\', None) => {
                    self.bump();
                }
                ('"', None) => return,
                ('"', Some(n)) if (0..n).all(|k| self.peek(k) == Some('#')) => {
                    for _ in 0..n {
                        self.bump();
                    }
                    return;
                }
                _ => {}
            }
        }
    }

    /// Consume a char literal after its opening quote: through the
    /// closing quote, or to the end of the line — char literals are
    /// single-line, so an unterminated one never swallows the next.
    fn char_body(&mut self) {
        while let Some(c) = self.peek(0).filter(|&c| c != '\n') {
            self.bump();
            if c == '\'' {
                return;
            }
            if c == '\\' && self.peek(0) != Some('\n') {
                self.bump();
            }
        }
    }
}

/// Lex raw source. Never panics, for any input: unterminated literals
/// and comments simply consume to the end of their line (char literals)
/// or of the input (strings, block comments).
pub fn lex(text: &str) -> Lexed {
    let mut cur = Cursor {
        chars: text.chars().collect(),
        i: 0,
        line: 0,
        col: 0,
        last_line: 0,
    };
    let mut tokens = Vec::new();
    let mut comments = vec![String::new(); text.lines().count()];
    let mut spaced = false;
    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        let next = cur.peek(1);
        if c.is_whitespace() {
            cur.bump();
            spaced = c != '\n';
            continue;
        }
        if c == '/' && matches!(next, Some('/' | '*')) {
            cur.comment(&mut comments);
            spaced = true;
            continue;
        }
        let (kind, text) = if c == '_' || c.is_alphabetic() {
            let word = cur.word();
            match cur.raw_hashes() {
                Some(hashes) if matches!(word.as_str(), "r" | "br" | "cr") => {
                    for _ in 0..=hashes {
                        cur.bump();
                    }
                    cur.string_body(Some(hashes));
                    (TokenKind::Str, "\"\"".to_string())
                }
                _ => (TokenKind::Ident, word),
            }
        } else if c.is_ascii_digit() {
            let mut num = String::new();
            while let Some(d) = cur.peek(0) {
                // `1.5` continues the number; `1.max(2)` and `1..n` do not.
                let fraction = d == '.'
                    && cur.peek(1).is_some_and(|n| n.is_ascii_digit())
                    && !num.contains('.');
                if !(d == '_' || d.is_alphanumeric() || fraction) {
                    break;
                }
                num.push(d);
                cur.bump();
            }
            (TokenKind::Num, num)
        } else if c == '"' {
            cur.bump();
            cur.string_body(None);
            (TokenKind::Str, "\"\"".to_string())
        } else if c == '\'' && (next == Some('\\') || cur.peek(2) == Some('\'')) {
            // Char literal (`'x'`, `'\n'`); otherwise a lifetime.
            cur.bump();
            cur.char_body();
            (TokenKind::Char, "''".to_string())
        } else if c == '\'' && next.is_some_and(|n| n == '_' || n.is_alphabetic()) {
            cur.bump();
            (TokenKind::Lifetime, format!("'{}", cur.word()))
        } else {
            cur.bump();
            (TokenKind::Punct, c.to_string())
        };
        tokens.push(Token {
            kind,
            text,
            line,
            col,
            end_line: cur.last_line,
            spaced,
        });
        spaced = false;
    }
    Lexed { tokens, comments }
}

/// Token-sequence patterns, each written as the Rust it matches
/// (`"std::time::Instant"`, `".unwrap()"`, `"== 0"`) and lexed once.
///
/// A pattern matches a run of consecutive tokens on one line, kind for
/// kind and text for text, except at its ends: a leading identifier may
/// be the tail of a longer one, a trailing identifier or number the
/// head of a longer one, and a one-identifier pattern any part of one —
/// so `"fmadd"` matches `_mm256_fmadd_pd`, `"sleep("` matches
/// `backoff_sleep(` and `"== 0"` matches `== 0.0`. Lifetimes and loop
/// labels match as the identifier they name.
pub struct Patterns(Vec<(&'static str, Vec<Token>)>);

impl Patterns {
    /// Lex every pattern of every list, in order.
    pub fn new(lists: &[&[&'static str]]) -> Patterns {
        Patterns(
            lists
                .iter()
                .flat_map(|list| list.iter())
                .map(|&p| (p, lex(p).tokens))
                .collect(),
        )
    }

    /// The first pattern, in declaration order, that matches anywhere
    /// in `tokens`.
    pub fn first_in(&self, tokens: &[Token]) -> Option<&'static str> {
        self.0
            .iter()
            .find(|(_, pat)| (0..tokens.len()).any(|i| matches_at(pat, tokens, i)))
            .map(|&(text, _)| text)
    }

    /// True when any pattern matches anywhere in `tokens`.
    pub fn any_in(&self, tokens: &[Token]) -> bool {
        self.first_in(tokens).is_some()
    }

    /// True when some pattern matches starting at `tokens[i]`.
    pub fn at(&self, tokens: &[Token], i: usize) -> bool {
        self.0.iter().any(|(_, pat)| matches_at(pat, tokens, i))
    }
}

fn matches_at(pat: &[Token], tokens: &[Token], i: usize) -> bool {
    let Some(run) = tokens.get(i..i + pat.len()) else {
        return false;
    };
    let last = pat.len().saturating_sub(1);
    !pat.is_empty()
        && run.iter().zip(pat).enumerate().all(|(k, (t, p))| {
            if t.line != run[0].line {
                return false;
            }
            if let (TokenKind::Ident, Some(word)) = (p.kind, t.word()) {
                return match (k == 0, k == last) {
                    (true, true) => word.contains(&p.text),
                    (true, false) => word.ends_with(&p.text),
                    (false, true) => word.starts_with(&p.text),
                    (false, false) => word == p.text,
                };
            }
            t.kind == p.kind
                && if p.kind == TokenKind::Num && k == last {
                    t.text.starts_with(&p.text)
                } else {
                    t.text == p.text
                }
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(text: &str) -> Vec<Token> {
        lex(text).tokens
    }

    #[test]
    fn idents_numbers_and_punct() {
        let t = toks("fn add(a: u32) -> u32 { a + 1_000 }\n");
        let idents: Vec<&str> = t
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, ["fn", "add", "a", "u32", "u32", "a"]);
        assert!(t
            .iter()
            .any(|t| t.kind == TokenKind::Num && t.text == "1_000"));
        assert!(t.iter().any(|t| t.is_punct('{')));
    }

    #[test]
    fn comments_and_strings_yield_no_idents() {
        let l = lex("let x = \"fn hidden\"; // fn commented\n/* fn blocked */ let y = 2;\n");
        let t = &l.tokens;
        assert!(!t.iter().any(|t| t.is_ident("hidden")));
        assert!(!t.iter().any(|t| t.is_ident("commented")));
        assert!(!t.iter().any(|t| t.is_ident("blocked")));
        assert_eq!(t.iter().filter(|t| t.is_ident("fn")).count(), 0);
        assert!(t
            .iter()
            .any(|t| t.kind == TokenKind::Str && t.text == "\"\""));
        assert!(t.iter().any(|t| t.is_ident("y") && t.line == 1));
        assert_eq!(l.comments, ["// fn commented", "/* fn blocked */"]);
    }

    #[test]
    fn raw_strings_and_block_comments_span_lines() {
        let l =
            lex("let p = r#\"thread_rng \"inside\"\nstill\"#; a();\n/* x\n /* y */ z */ b();\n");
        let idents: Vec<(&str, usize)> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| (t.text.as_str(), t.line))
            .collect();
        assert_eq!(idents, [("let", 0), ("p", 0), ("a", 1), ("b", 3)]);
        assert_eq!(l.comments, ["", "", "/* x", " /* y */ z */"]);
    }

    #[test]
    fn float_vs_method_call_on_number() {
        let t = toks("let a = 1.5; let b = 1.max(2);\n");
        assert!(t
            .iter()
            .any(|t| t.kind == TokenKind::Num && t.text == "1.5"));
        assert!(t.iter().any(|t| t.is_ident("max")));
    }

    #[test]
    fn multiline_string_shell_is_skipped() {
        let t = toks("let s = \"first\nsecond fn not_a_sym\";\nlet after = 1;\n");
        assert!(!t.iter().any(|t| t.is_ident("not_a_sym")));
        assert!(t.iter().any(|t| t.is_ident("after")));
    }

    #[test]
    fn positions_are_line_col_ordered() {
        let t = toks("fn a() {}\nfn b() {}\n");
        let mut prev = (0usize, 0usize);
        for tok in &t {
            assert!((tok.line, tok.col) >= prev);
            prev = (tok.line, tok.col);
        }
        assert!(t.iter().any(|t| t.is_ident("b") && t.line == 1));
    }

    #[test]
    fn spacing_is_recorded() {
        let t = toks("a / b /=2\n  c");
        let spaced: Vec<(&str, bool)> = t.iter().map(|t| (t.text.as_str(), t.spaced)).collect();
        assert_eq!(
            spaced,
            [
                ("a", false),
                ("/", true),
                ("b", true),
                ("/", true),
                ("=", false),
                ("2", false),
                ("c", true)
            ]
        );
    }

    #[test]
    fn patterns_match_token_runs_with_open_ends() {
        let p = |pat: &'static str, src: &str| Patterns::new(&[&[pat]]).any_in(&lex(src).tokens);
        assert!(p(
            "std::time::Instant",
            "let t = std::time::Instant::now();"
        ));
        assert!(p("fmadd", "_mm256_fmadd_pd(a, b, c)"));
        assert!(p("sleep(", "backoff_sleep();"));
        assert!(p("== 0", "if n == 0.0 {"));
        assert!(p(".max", "x.max_by_key(f)"));
        assert!(p("retry", "'retry: loop {"));
        assert!(!p(".unwrap()", "x.unwrap_or(1)"));
        assert!(!p("> 0", "x >= 0"));
        assert!(!p("Instant::now(", "\"Instant::now()\" // Instant::now()"));
        assert!(!p("Vec::new(", "Vec::\nnew()"));
        let list = Patterns::new(&[&["b", "a"], &["c"]]);
        assert_eq!(list.first_in(&lex("a b c").tokens), Some("b"));
        assert_eq!(list.first_in(&lex("c").tokens), Some("c"));
    }
}
