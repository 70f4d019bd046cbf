//! A lightweight Rust tokenizer with line:col spans.
//!
//! Just enough lexing for static analysis: identifiers, numbers, string
//! and char literals (cooked, raw, byte), lifetimes, single-char
//! punctuation, and comments (line and nested block). No keyword table,
//! no multi-char operators — rules match token *sequences* instead.
//!
//! The payoff over the old line-grep linter: commentary and string
//! literals can never trigger (or mask) a rule, and every diagnostic
//! carries an exact `line:col` anchor.

/// Token classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword (including raw `r#ident`).
    Ident,
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Char or byte-char literal (`'x'`, `b'\n'`).
    Char,
    /// Numeric literal (integer or float, any base, with suffix).
    Num,
    /// Lifetime (`'a`) or loop label.
    Lifetime,
    /// Single punctuation character.
    Punct,
    /// `// …` comment (text includes the slashes).
    LineComment,
    /// `/* … */` comment, nesting handled.
    BlockComment,
}

/// One token with its source anchor (1-based line and column).
#[derive(Clone, Debug)]
pub struct Tok {
    pub kind: Kind,
    /// Raw source text of the token (quotes included for literals).
    pub text: String,
    pub line: u32,
    pub col: u32,
}

impl Tok {
    /// True if this token is the identifier `word`.
    pub fn is_ident(&self, word: &str) -> bool {
        self.kind == Kind::Ident && self.text == word
    }

    /// True if this token is the punctuation character `ch`.
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == Kind::Punct && self.text.len() == ch.len_utf8() && self.text.starts_with(ch)
    }
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> u8 {
        self.src.get(self.pos + ahead).copied().unwrap_or(0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.src[self.pos];
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        b
    }
}

/// Tokenize `src`. Never fails: unterminated literals simply run to the
/// end of input (the analysis is best-effort over code rustc may reject).
pub fn lex(src: &str) -> Vec<Tok> {
    let mut cur = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Vec::new();
    while cur.pos < cur.src.len() {
        let (line, col, start) = (cur.line, cur.col, cur.pos);
        let b = cur.peek(0);
        let kind = match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
                continue;
            }
            b'/' if cur.peek(1) == b'/' => {
                while cur.pos < cur.src.len() && cur.peek(0) != b'\n' {
                    cur.bump();
                }
                Kind::LineComment
            }
            b'/' if cur.peek(1) == b'*' => {
                cur.bump();
                cur.bump();
                let mut depth = 1u32;
                while cur.pos < cur.src.len() && depth > 0 {
                    if cur.peek(0) == b'/' && cur.peek(1) == b'*' {
                        cur.bump();
                        cur.bump();
                        depth += 1;
                    } else if cur.peek(0) == b'*' && cur.peek(1) == b'/' {
                        cur.bump();
                        cur.bump();
                        depth -= 1;
                    } else {
                        cur.bump();
                    }
                }
                Kind::BlockComment
            }
            b'"' => {
                lex_cooked_string(&mut cur);
                Kind::Str
            }
            b'r' | b'b' if starts_string_prefix(&cur) => {
                lex_prefixed_string(&mut cur);
                Kind::Str
            }
            b'\'' => {
                if is_lifetime(&cur) {
                    cur.bump(); // '
                    while cur.peek(0).is_ascii_alphanumeric() || cur.peek(0) == b'_' {
                        cur.bump();
                    }
                    Kind::Lifetime
                } else {
                    cur.bump(); // opening '
                    lex_char_body(&mut cur);
                    Kind::Char
                }
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                while cur.peek(0).is_ascii_alphanumeric() || cur.peek(0) == b'_' {
                    cur.bump();
                }
                Kind::Ident
            }
            b'0'..=b'9' => {
                lex_number(&mut cur);
                Kind::Num
            }
            _ => {
                cur.bump();
                Kind::Punct
            }
        };
        out.push(Tok {
            kind,
            text: src[start..cur.pos].to_string(),
            line,
            col,
        });
    }
    out
}

/// `r"`, `r#`, `b"`, `b'`, `br"`, `br#` begin a literal rather than an
/// identifier. `r#ident` (raw identifier) does not.
fn starts_string_prefix(cur: &Cursor<'_>) -> bool {
    match (cur.peek(0), cur.peek(1), cur.peek(2)) {
        (b'r', b'"', _) => true,
        (b'r', b'#', n) => n == b'"' || n == b'#', // r#"…"# or r##"…"##
        (b'b', b'"', _) | (b'b', b'\'', _) => true,
        (b'b', b'r', b'"') | (b'b', b'r', b'#') => true,
        _ => false,
    }
}

/// A `'` starts a lifetime when followed by an identifier char that is
/// not itself a closing `'` one char later (`'a'` is a char literal,
/// `'a` a lifetime; `'\n'` is always a char).
fn is_lifetime(cur: &Cursor<'_>) -> bool {
    let c1 = cur.peek(1);
    (c1.is_ascii_alphabetic() || c1 == b'_') && cur.peek(2) != b'\''
}

fn lex_cooked_string(cur: &mut Cursor<'_>) {
    cur.bump(); // opening "
    while cur.pos < cur.src.len() {
        match cur.bump() {
            b'\\' if cur.pos < cur.src.len() => {
                cur.bump();
            }
            b'"' => break,
            _ => {}
        }
    }
}

/// Literal starting with `r`/`b`/`br` prefix: raw strings count `#`s,
/// byte strings/chars reuse the cooked scanners.
fn lex_prefixed_string(cur: &mut Cursor<'_>) {
    if cur.peek(0) == b'b' {
        cur.bump();
    }
    if cur.peek(0) == b'\'' {
        cur.bump();
        lex_char_body(cur);
        return;
    }
    if cur.peek(0) != b'r' {
        lex_cooked_string(cur);
        return;
    }
    cur.bump(); // r
    let mut hashes = 0usize;
    while cur.peek(0) == b'#' {
        cur.bump();
        hashes += 1;
    }
    if cur.peek(0) == b'"' {
        cur.bump();
    }
    while cur.pos < cur.src.len() {
        if cur.bump() == b'"' {
            let mut seen = 0usize;
            while seen < hashes && cur.peek(0) == b'#' {
                cur.bump();
                seen += 1;
            }
            if seen == hashes {
                break;
            }
        }
    }
}

fn lex_char_body(cur: &mut Cursor<'_>) {
    // Called after the opening quote; consumes through the closing one.
    while cur.pos < cur.src.len() {
        match cur.bump() {
            b'\\' if cur.pos < cur.src.len() => {
                cur.bump();
            }
            b'\'' => break,
            _ => {}
        }
    }
}

fn lex_number(cur: &mut Cursor<'_>) {
    while cur.peek(0).is_ascii_alphanumeric() || cur.peek(0) == b'_' {
        cur.bump();
    }
    // Float part: `.` only when followed by a digit (so `0..5` stays a
    // range and `1.max(2)` a method call).
    if cur.peek(0) == b'.' && cur.peek(1).is_ascii_digit() {
        cur.bump();
        while cur.peek(0).is_ascii_alphanumeric() || cur.peek(0) == b'_' {
            cur.bump();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(Kind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_puncts_and_spans() {
        let toks = lex("fn f() {\n    x.lock();\n}\n");
        assert!(toks[0].is_ident("fn"));
        let lock = toks.iter().find(|t| t.is_ident("lock")).unwrap();
        assert_eq!((lock.line, lock.col), (2, 7));
    }

    #[test]
    fn comments_are_tokens_not_code() {
        let toks = kinds("a // b.lock()\n/* c /* nested */ d */ e");
        assert_eq!(toks[0], (Kind::Ident, "a".into()));
        assert_eq!(toks[1].0, Kind::LineComment);
        assert_eq!(toks[2].0, Kind::BlockComment);
        assert_eq!(toks[3], (Kind::Ident, "e".into()));
    }

    #[test]
    fn string_flavors_are_one_token_each() {
        let toks = lex(r####"let s = "a.b"; let r = r#"x "q" y"#; let b = b"z";"####);
        let strs: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == Kind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs, vec![r#""a.b""#, r####"r#"x "q" y"#"####, r#"b"z""#]);
    }

    #[test]
    fn string_containing_comment_marker_stays_one_token() {
        let toks = kinds(r#"let s = "see // not a comment"; x"#);
        assert!(toks.iter().all(|(k, _)| *k != Kind::LineComment));
        assert!(toks.iter().any(|(k, t)| *k == Kind::Ident && t == "x"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifes = toks.iter().filter(|(k, _)| *k == Kind::Lifetime).count();
        let chars = toks.iter().filter(|(k, _)| *k == Kind::Char).count();
        assert_eq!((lifes, chars), (2, 2));
    }

    #[test]
    fn numbers_and_ranges() {
        let toks = kinds("for i in 0..15 { let f = 1.5; let h = 0xFF_u32; }");
        let nums: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == Kind::Num)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(nums, vec!["0", "15", "1.5", "0xFF_u32"]);
    }
}
