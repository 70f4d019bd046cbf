//! Workspace file collection and the item/block scanner.
//!
//! Each [`SourceFile`] carries the comment-free token stream plus the
//! structural facts every rule needs: which tokens sit inside
//! `#[cfg(test)]` / `#[test]` regions, and the span of every `fn` body.

use crate::lexer::{lex, Kind, Tok};
use std::path::Path;

/// Directories (workspace-relative prefixes) never scanned.
pub const SKIP_PREFIXES: &[&str] = &[
    "vendor", // offline stand-in crates, not ours to police
    "target",
    "crates/xtask",   // thin CLI over this crate
    "crates/analyze", // the engine itself (rule pattern literals would self-match)
    "bench_results",
];

/// Path substrings marking non-production sources (integration tests,
/// benches, examples, binaries): never scanned, every rule is
/// production-only.
pub const NON_PROD_MARKERS: &[&str] = &["/tests/", "/benches/", "/examples/", "/bin/"];

/// Span of one `fn` body in code-token indices (`open..=close` braces).
#[derive(Debug)]
pub struct FnSpan {
    pub name: String,
    /// Code-token index of the opening `{`.
    pub open: usize,
    /// Code-token index of the matching `}`.
    pub close: usize,
}

/// One scanned source file.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Raw text, for justification-comment lookups.
    pub text: String,
    /// Comment-free token stream.
    pub toks: Vec<Tok>,
    /// Per-token: inside a `#[cfg(test)]` module or `#[test]` function.
    pub test_mask: Vec<bool>,
    /// Every function body, in source order (nested fns included).
    pub fns: Vec<FnSpan>,
}

impl SourceFile {
    pub fn parse(path: String, text: String) -> SourceFile {
        let toks: Vec<Tok> = lex(&text)
            .into_iter()
            .filter(|t| !matches!(t.kind, Kind::LineComment | Kind::BlockComment))
            .collect();
        let test_mask = test_mask(&toks);
        let fns = fn_spans(&toks);
        SourceFile {
            path,
            text,
            toks,
            test_mask,
            fns,
        }
    }

    /// True if code-token `i` sits in a test-only region.
    pub fn is_test(&self, i: usize) -> bool {
        self.test_mask.get(i).copied().unwrap_or(false)
    }

    /// The innermost function body containing code-token `i`.
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.open <= i && i <= f.close)
            .max_by_key(|f| f.open)
    }

    /// True when the raw source line `line` (1-based) or the line above
    /// it carries a `//` comment containing `marker` — the justification
    /// escape hatch for the ordering/blocking rules.
    pub fn line_justified(&self, line: u32, marker: &str) -> bool {
        let line = line as usize;
        let has_marker = |l: &str| match l.find("//") {
            Some(i) => l[i..].contains(marker),
            None => false,
        };
        let lines: Vec<&str> = self.text.lines().collect();
        // A trailing comment justifies its own line…
        if lines
            .get(line.saturating_sub(1))
            .copied()
            .is_some_and(has_marker)
        {
            return true;
        }
        // …and a contiguous block of whole-line comments justifies the
        // line directly below it (justifications are often multi-line).
        let mut i = line.saturating_sub(1);
        while i >= 1 {
            let prev = lines[i - 1];
            if !prev.trim_start().starts_with("//") {
                return false;
            }
            if has_marker(prev) {
                return true;
            }
            i -= 1;
        }
        false
    }
}

pub fn is_non_prod(path: &str) -> bool {
    NON_PROD_MARKERS
        .iter()
        .any(|m| format!("/{path}").contains(m))
}

/// Collect every production `.rs` file under `root`, sorted by path.
pub fn collect(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut rels = Vec::new();
    walk(root, root, &mut rels)?;
    rels.sort();
    let mut files = Vec::new();
    for rel in rels {
        let text =
            std::fs::read_to_string(root.join(&rel)).map_err(|e| format!("read {rel}: {e}"))?;
        files.push(SourceFile::parse(rel, text));
    }
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir entry: {e}"))?;
        let path = entry.path();
        let rel = path
            .strip_prefix(root)
            .map_err(|e| e.to_string())?
            .to_string_lossy()
            .replace('\\', "/");
        if path.is_dir() {
            if SKIP_PREFIXES
                .iter()
                .any(|p| rel == *p || rel.starts_with(&format!("{p}/")))
                || rel.starts_with('.')
            {
                continue;
            }
            walk(root, &path, out)?;
        } else if rel.ends_with(".rs") && !is_non_prod(&rel) {
            out.push(rel);
        }
    }
    Ok(())
}

/// Index of the `}` matching the `{` at `open` (falls back to the last
/// token on unbalanced input).
fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Mark tokens inside `#[cfg(test)] mod … { … }` blocks and `#[test]`
/// function bodies.
fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let attr_end = match_bracket(toks, i + 1);
            let is_cfg_test = toks[i + 2..attr_end]
                .windows(4)
                .any(|w| w[0].is_ident("cfg") && w[1].is_punct('(') && w[2].is_ident("test"));
            let is_test_attr = attr_end == i + 3 && toks[i + 2].is_ident("test");
            if is_cfg_test || is_test_attr {
                // Skip any further stacked attributes, then mark the next
                // item's brace block.
                let mut j = attr_end + 1;
                while j < toks.len()
                    && toks[j].is_punct('#')
                    && toks.get(j + 1).is_some_and(|t| t.is_punct('['))
                {
                    j = match_bracket(toks, j + 1) + 1;
                }
                if let Some(open) = toks[j..]
                    .iter()
                    .position(|t| t.is_punct('{') || t.is_punct(';'))
                    .map(|p| j + p)
                {
                    if toks[open].is_punct('{') {
                        let close = match_brace(toks, open);
                        for m in &mut mask[i..=close] {
                            *m = true;
                        }
                        i = close + 1;
                        continue;
                    }
                }
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Index of the `]` matching the `[` at `open`.
fn match_bracket(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Every `fn name … { body }` span. Bodyless signatures (`fn f();`) are
/// skipped; the scan is resilient to generics and where-clauses because
/// neither may contain a `{` or `;` before the body.
fn fn_spans(toks: &[Tok]) -> Vec<FnSpan> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("fn") {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            continue;
        };
        if name_tok.kind != Kind::Ident {
            continue;
        }
        let mut j = i + 2;
        let mut open = None;
        while j < toks.len() {
            if toks[j].is_punct('{') {
                open = Some(j);
                break;
            }
            if toks[j].is_punct(';') {
                break;
            }
            j += 1;
        }
        if let Some(open) = open {
            out.push(FnSpan {
                name: name_tok.text.clone(),
                open,
                close: match_brace(toks, open),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(src: &str) -> SourceFile {
        SourceFile::parse("crates/core/src/x.rs".into(), src.into())
    }

    #[test]
    fn fn_spans_cover_nested_braces() {
        let f = sf("fn a() { if x { y(); } }\nfn b<T: Ord>(t: T) -> bool { t == t }\n");
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fns[0].name, "a");
        assert_eq!(f.fns[1].name, "b");
        let lock = f.toks.iter().position(|t| t.is_ident("y")).unwrap();
        assert_eq!(f.enclosing_fn(lock).unwrap().name, "a");
    }

    #[test]
    fn cfg_test_mod_and_test_attr_are_masked() {
        let f = sf(
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() { sleep(); }\n}\n\
             #[test]\nfn unit() { sleep(); }\nfn prod2() {}\n",
        );
        let idx = |name: &str, nth: usize| {
            f.toks
                .iter()
                .enumerate()
                .filter(|(_, t)| t.is_ident(name))
                .nth(nth)
                .unwrap()
                .0
        };
        assert!(!f.is_test(idx("prod", 0)));
        assert!(f.is_test(idx("sleep", 0)));
        assert!(f.is_test(idx("sleep", 1)));
        assert!(!f.is_test(idx("prod2", 0)));
    }

    #[test]
    fn stacked_attributes_after_cfg_test_are_handled() {
        let f = sf("#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn t() {} }\nfn after() {}\n");
        let t = f.toks.iter().position(|t| t.is_ident("t")).unwrap();
        let after = f.toks.iter().position(|t| t.is_ident("after")).unwrap();
        assert!(f.is_test(t));
        assert!(!f.is_test(after));
    }

    #[test]
    fn non_prod_paths_are_recognised() {
        assert!(is_non_prod("crates/core/tests/x.rs"));
        assert!(is_non_prod("examples/quickstart.rs"));
        assert!(!is_non_prod("crates/core/src/x.rs"));
    }

    #[test]
    fn justification_comment_same_or_previous_line() {
        let f = sf("fn a() {\n    // ordering: handshake with release store\n    x.load(A);\n    y.load(B); // ordering: see above\n    z.load(C);\n}\n");
        assert!(f.line_justified(3, "ordering:"));
        assert!(f.line_justified(4, "ordering:"));
        assert!(!f.line_justified(5, "ordering:"));
    }

    #[test]
    fn justification_block_may_span_multiple_comment_lines() {
        let f = sf("fn a() {\n    // ordering: the flag must be ahead of\n    // the teardown below in every view\n    x.store(1, S);\n    y.store(2, S);\n}\n");
        assert!(f.line_justified(4, "ordering:"));
        // The code line in between breaks the block.
        assert!(!f.line_justified(5, "ordering:"));
    }
}
