//! Exact-token-stream corpus for the tricky corners of the Rust lexical
//! grammar: nested block comments, raw strings with hash fences, the
//! char-vs-lifetime ambiguity, floats vs. ranges, raw identifiers, and
//! multi-character operators.

#![expect(clippy::expect_used, reason = "test helpers abort on a bad fixture")]

use bpp_lint::lexer::{lex, TokenKind};
use TokenKind::{
    BlockComment, ByteChar, ByteStr, Char, Float, Ident, Int, Lifetime, LineComment, Punct,
    RawByteStr, RawStr, Str,
};

fn toks(src: &str) -> Vec<(TokenKind, String)> {
    lex(src)
        .expect("corpus source must lex")
        .into_iter()
        .map(|t| (t.kind, t.text))
        .collect()
}

fn owned(v: &[(TokenKind, &str)]) -> Vec<(TokenKind, String)> {
    v.iter().map(|&(k, s)| (k, s.to_string())).collect()
}

#[test]
fn nested_block_comment_is_one_token() {
    assert_eq!(
        toks("/* outer /* inner */ tail */ fn"),
        owned(&[
            (BlockComment, "/* outer /* inner */ tail */"),
            (Ident, "fn"),
        ])
    );
}

#[test]
fn raw_string_hash_fences_match_exactly() {
    assert_eq!(
        toks(r####"let s = r##"a "b"# c"##;"####),
        owned(&[
            (Ident, "let"),
            (Ident, "s"),
            (Punct, "="),
            (RawStr, r###"r##"a "b"# c"##"###),
            (Punct, ";"),
        ])
    );
}

#[test]
fn byte_and_raw_byte_strings() {
    assert_eq!(
        toks(r###"b"bytes" br#"raw "b""#"###),
        owned(&[(ByteStr, "b\"bytes\""), (RawByteStr, r##"br#"raw "b""#"##)])
    );
}

#[test]
fn escaped_quote_byte_char() {
    assert_eq!(toks(r"b'\''"), owned(&[(ByteChar, r"b'\''")]));
}

#[test]
fn multibyte_char_literal() {
    // `…` is three UTF-8 bytes; the closing quote sits after all of them.
    assert_eq!(
        toks("s.push('…')"),
        owned(&[
            (Ident, "s"),
            (Punct, "."),
            (Ident, "push"),
            (Punct, "("),
            (Char, "'…'"),
            (Punct, ")"),
        ])
    );
}

#[test]
fn char_versus_lifetime_disambiguation() {
    assert_eq!(
        toks("fn f<'a>(x: &'a str) -> char { 'a' }"),
        owned(&[
            (Ident, "fn"),
            (Ident, "f"),
            (Punct, "<"),
            (Lifetime, "'a"),
            (Punct, ">"),
            (Punct, "("),
            (Ident, "x"),
            (Punct, ":"),
            (Punct, "&"),
            (Lifetime, "'a"),
            (Ident, "str"),
            (Punct, ")"),
            (Punct, "->"),
            (Ident, "char"),
            (Punct, "{"),
            (Char, "'a'"),
            (Punct, "}"),
        ])
    );
}

#[test]
fn static_lifetime_and_unicode_escape_char() {
    assert_eq!(
        toks(r"&'static str; '\u{1F600}'"),
        owned(&[
            (Punct, "&"),
            (Lifetime, "'static"),
            (Ident, "str"),
            (Punct, ";"),
            (Char, r"'\u{1F600}'"),
        ])
    );
}

#[test]
fn floats_versus_ranges_and_method_calls() {
    assert_eq!(
        toks("1.0e-3 1..2 1.max(2) 2.5f32 1. 1e9"),
        owned(&[
            (Float, "1.0e-3"),
            (Int, "1"),
            (Punct, ".."),
            (Int, "2"),
            (Int, "1"),
            (Punct, "."),
            (Ident, "max"),
            (Punct, "("),
            (Int, "2"),
            (Punct, ")"),
            (Float, "2.5f32"),
            (Float, "1."),
            (Float, "1e9"),
        ])
    );
}

#[test]
fn integer_prefixes_suffixes_underscores() {
    assert_eq!(
        toks("0xFF_u8 1_000 0b10_10usize 0o77"),
        owned(&[
            (Int, "0xFF_u8"),
            (Int, "1_000"),
            (Int, "0b10_10usize"),
            (Int, "0o77"),
        ])
    );
}

#[test]
fn raw_identifiers_are_idents() {
    assert_eq!(
        toks("r#fn r#struct normal"),
        owned(&[(Ident, "r#fn"), (Ident, "r#struct"), (Ident, "normal")])
    );
}

#[test]
fn every_multichar_operator_is_one_token() {
    let ops = "<<= >>= ..= ... :: -> => == != <= >= && || << >> .. += -= *= /= %= ^= &= |=";
    let expect: Vec<(TokenKind, String)> = ops
        .split_whitespace()
        .map(|o| (Punct, o.to_string()))
        .collect();
    assert_eq!(toks(ops), expect);
}

#[test]
fn comment_styles_keep_exact_text() {
    assert_eq!(
        toks("/// doc\n//! inner\n// plain"),
        owned(&[
            (LineComment, "/// doc"),
            (LineComment, "//! inner"),
            (LineComment, "// plain"),
        ])
    );
}

#[test]
fn string_contents_never_become_code_tokens() {
    // The lexer must keep call-looking text inside literals as one token.
    assert_eq!(
        toks(r#"let s = "stream_rng(seed, 3).unwrap()";"#),
        owned(&[
            (Ident, "let"),
            (Ident, "s"),
            (Punct, "="),
            (Str, r#""stream_rng(seed, 3).unwrap()""#),
            (Punct, ";"),
        ])
    );
}

#[test]
fn token_lines_are_one_based_and_track_newlines() {
    let tokens = lex("a\n\nb /* x\ny */ c").expect("must lex");
    let lines: Vec<(String, u32)> = tokens.into_iter().map(|t| (t.text, t.line)).collect();
    assert_eq!(
        lines,
        vec![
            ("a".to_string(), 1),
            ("b".to_string(), 3),
            ("/* x\ny */".to_string(), 3),
            ("c".to_string(), 4),
        ]
    );
}

#[test]
fn unterminated_block_comment_is_a_lex_error() {
    let err = lex("/* never closed").expect_err("must fail");
    assert_eq!(err.line, 1);
}

#[test]
fn shebang_line_is_a_comment_token() {
    assert_eq!(
        toks("#!/usr/bin/env rust-script\nfn main() {}"),
        owned(&[
            (LineComment, "#!/usr/bin/env rust-script"),
            (Ident, "fn"),
            (Ident, "main"),
            (Punct, "("),
            (Punct, ")"),
            (Punct, "{"),
            (Punct, "}"),
        ])
    );
}

#[test]
fn inner_attribute_is_not_a_shebang() {
    // `#![…]` at file start must stay code tokens, not be swallowed as a
    // shebang comment.
    assert_eq!(
        toks("#![forbid(unsafe_code)]"),
        owned(&[
            (Punct, "#"),
            (Punct, "!"),
            (Punct, "["),
            (Ident, "forbid"),
            (Punct, "("),
            (Ident, "unsafe_code"),
            (Punct, ")"),
            (Punct, "]"),
        ])
    );
}

#[test]
fn raw_identifiers_mixed_with_raw_strings() {
    // `r#fn` (raw ident), `r"…"` (raw string), `r#"…"#` (fenced raw
    // string) all start with `r` and must disambiguate on what follows.
    assert_eq!(
        toks(r##"r#match r"one" r#"two"# r#loop"##),
        owned(&[
            (Ident, "r#match"),
            (RawStr, r#"r"one""#),
            (RawStr, r##"r#"two"#"##),
            (Ident, "r#loop"),
        ])
    );
}

#[test]
fn inner_block_doc_comment_nests() {
    assert_eq!(
        toks("/*! inner doc /* nested */ still one token */ x"),
        owned(&[
            (
                BlockComment,
                "/*! inner doc /* nested */ still one token */"
            ),
            (Ident, "x"),
        ])
    );
}

#[test]
fn inner_line_doc_comments_keep_exact_text() {
    assert_eq!(
        toks("//! first\n//!\n//! //! quoted nested marker\ncode"),
        owned(&[
            (LineComment, "//! first"),
            (LineComment, "//!"),
            (LineComment, "//! //! quoted nested marker"),
            (Ident, "code"),
        ])
    );
}
