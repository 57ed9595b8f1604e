//! Property tests for the lexer: over arbitrary comment/string nesting
//! it never panics, emits tokens in strict `(line, col)` order at the
//! positions their text occupies in the source, never lets comment or
//! literal text (anything tagged `HIDDEN…`) reach a token, and covers
//! every identifier character outside comments and literals.
//!
//! Sources are assembled from fragment alphabets rather than raw random
//! bytes so the cases concentrate on the adversarial part of the space:
//! unbalanced block comments, stray quotes, raw strings, escapes and
//! line continuations.

use libra_lint::tokens::{lex, Lexed, TokenKind};
use proptest::prelude::*;

/// Chaotic fragments: deliberately unbalanced delimiters allowed.
const CHAOS: &[&str] = &[
    "fn alpha() { beta(); }\n",
    "// line comment\n",
    "/* open block ",
    " close */ ",
    "/*",
    "*/",
    "let s = \"str body\";\n",
    "\"",
    "let r = r#\"raw body\"#;\n",
    "r\"",
    "'x'",
    "'",
    "let c = '\\n';\n",
    "\\",
    "ident_ok ",
    "1.5 1.max(2) 1_000 ",
    "<'a, T>\n",
    "#\n",
    "\n",
];

/// Well-formed fragments, each with the parts that are comment or
/// literal text: every fragment is self-contained, so the lexer is
/// outside any comment or literal at every boundary.
const FORMED: &[(&str, &[&str])] = &[
    ("fn alpha() { beta(); }\n", &[]),
    (
        "// HIDDENLINE fn bogus() {}\n",
        &["// HIDDENLINE fn bogus() {}"],
    ),
    (
        "/* HIDDENBLOCK /* nested */ still HIDDENBLOCK */\n",
        &["/* HIDDENBLOCK /* nested */ still HIDDENBLOCK */"],
    ),
    (
        "/* HIDDENSPAN\nHIDDENSPAN */ after_span();\n",
        &["/* HIDDENSPAN\nHIDDENSPAN */"],
    ),
    (
        "let s = \"HIDDENSTR .lock() unsafe\";\n",
        &["\"HIDDENSTR .lock() unsafe\""],
    ),
    (
        "let m = \"HIDDENML\nHIDDENML \\\n HIDDENML\";\n",
        &["\"HIDDENML\nHIDDENML \\\n HIDDENML\""],
    ),
    (
        "let r = r#\"HIDDENRAW \"quoted\" body\"#;\n",
        &["r#\"HIDDENRAW \"quoted\" body\"#"],
    ),
    ("let b = b\"HIDDENBYTES\";\n", &["\"HIDDENBYTES\""]),
    (
        "let e = \"esc \\\" HIDDENSTR\";\n",
        &["\"esc \\\" HIDDENSTR\""],
    ),
    ("let c = 'h';\n", &["'h'"]),
    ("let q = '\\'';\n", &["'\\''"]),
    ("fn lt<'a>(x: &'a str) {}\n", &[]),
    ("visible_ident();\n", &[]),
    ("let n = 42;\n", &[]),
];

/// Index of the `visible_ident` fragment in [`FORMED`].
const VISIBLE: usize = 12;

fn assemble(alphabet: &[&str], picks: &[u8]) -> String {
    picks
        .iter()
        .map(|&p| alphabet[p as usize % alphabet.len()])
        .collect()
}

/// The source with every comment and literal character of the picked
/// fragments replaced by a space (newlines kept), so the view's word
/// characters are exactly the code's.
fn assemble_code_view(picks: &[u8]) -> (String, String) {
    let mut text = String::new();
    let mut view = String::new();
    for &p in picks {
        let (src, hidden) = FORMED[p as usize % FORMED.len()];
        let mut v = src.to_string();
        for h in hidden {
            let blank: String = h.chars().map(|c| if c == '\n' { c } else { ' ' }).collect();
            v = v.replacen(h, &blank, 1);
        }
        text.push_str(src);
        view.push_str(&v);
    }
    (text, view)
}

/// Structural checks that hold for any input: strict `(line, col)`
/// order, one comment entry per line, and every identifier, lifetime,
/// number and punctuation token's text standing at its position.
fn check_structure(text: &str, lexed: &Lexed) {
    let lines: Vec<Vec<char>> = text.lines().map(|l| l.chars().collect()).collect();
    assert_eq!(lexed.comments.len(), lines.len());
    let mut prev: Option<(usize, usize)> = None;
    for t in &lexed.tokens {
        assert!(
            prev < Some((t.line, t.col)),
            "tokens out of (line, col) order"
        );
        prev = Some((t.line, t.col));
        assert!(t.end_line >= t.line && t.end_line < lines.len());
        if matches!(t.kind, TokenKind::Str | TokenKind::Char) {
            continue;
        }
        let line = &lines[t.line];
        let n = t.text.chars().count();
        assert!(t.col + n <= line.len(), "token runs past its line");
        let got: String = line[t.col..t.col + n].iter().collect();
        assert_eq!(got, t.text, "token text disagrees with the source");
    }
}

/// Every word character of the code view is covered by an identifier,
/// lifetime or number token, and no token starts on a character the
/// view hides.
fn check_coverage(view: &str, lexed: &Lexed) {
    let view: Vec<Vec<char>> = view.lines().map(|l| l.chars().collect()).collect();
    for (ln, line) in view.iter().enumerate() {
        for (col, &c) in line.iter().enumerate() {
            if !(c.is_alphanumeric() || c == '_') {
                continue;
            }
            let covered = lexed.tokens.iter().any(|t| {
                matches!(
                    t.kind,
                    TokenKind::Ident | TokenKind::Lifetime | TokenKind::Num
                ) && t.line == ln
                    && t.col <= col
                    && col < t.col + t.text.chars().count()
            });
            assert!(
                covered,
                "word char {c:?} at {ln}:{col} not covered by any token"
            );
        }
    }
    for t in &lexed.tokens {
        if !matches!(t.kind, TokenKind::Str | TokenKind::Char) {
            assert_ne!(
                view[t.line][t.col], ' ',
                "token {t:?} starts in hidden text"
            );
        }
    }
}

/// Pinned case the chaotic proptest originally shrank to: an
/// unterminated `'` on one line must not leave the lexer inside a char
/// literal, or a later `'x'` pairs against it and the dangling quote
/// swallows the rest of the next line.
#[test]
fn unterminated_char_state_does_not_leak_across_lines() {
    let text = "let bad = '\\x oops\nfn alpha() { beta('x'); }\n";
    let lexed = lex(text);
    check_structure(text, &lexed);
    for name in ["fn", "alpha", "beta"] {
        assert!(
            lexed.tokens.iter().any(|t| t.is_ident(name) && t.line == 1),
            "lost ident {name}"
        );
    }
}

proptest! {
    /// Arbitrary (unbalanced) nesting: never panics, and the stream
    /// stays ordered and position-exact.
    #[test]
    fn chaotic_nesting_round_trips(picks in proptest::collection::vec(0u8..255, 0..60)) {
        let text = assemble(CHAOS, &picks);
        check_structure(&text, &lex(&text));
    }

    /// Well-formed nesting: comment and literal text (everything tagged
    /// `HIDDEN…`) never surfaces as token text, while every identifier
    /// character of real code is covered by a token.
    #[test]
    fn masked_text_never_leaks(picks in proptest::collection::vec(0u8..255, 1..60)) {
        let (text, view) = assemble_code_view(&picks);
        let lexed = lex(&text);
        check_structure(&text, &lexed);
        check_coverage(&view, &lexed);
        for t in &lexed.tokens {
            prop_assert!(
                !t.text.contains("HIDDEN"),
                "masked text leaked into a token: {:?}",
                t
            );
        }
        if picks.iter().any(|&p| p as usize % FORMED.len() == VISIBLE) {
            prop_assert!(
                lexed.tokens.iter().any(|t| t.is_ident("visible_ident")),
                "real code ident lost by the lexer"
            );
        }
    }
}
