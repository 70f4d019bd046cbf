//! The cross-file workspace model the semantic rules check against.
//!
//! Built in one pass over every scanned file *before* rules run: every
//! atomic operation carrying an explicit `Ordering::…` argument, keyed by
//! the receiver field name.

use crate::lexer::{Kind, Tok};
use crate::source::SourceFile;

/// One atomic operation with an explicit memory ordering.
#[derive(Debug)]
pub struct AtomicUse {
    pub file: String,
    pub line: u32,
    pub col: u32,
    /// Receiver field/variable name (`shutdown` in `self.shutdown.load(…)`).
    pub field: String,
    pub kind: AtomicKind,
    /// Every `Ordering::X` ident appearing in the call's arguments.
    pub orderings: Vec<String>,
    /// A `// ordering:` justification comment is adjacent.
    pub justified: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicKind {
    Load,
    Store,
    /// swap / fetch_* / compare_exchange*: acts as both load and store.
    Rmw,
}

#[derive(Debug, Default)]
pub struct Model {
    /// Every explicit-ordering atomic op in production code.
    pub atomics: Vec<AtomicUse>,
}

/// Atomic methods that take `Ordering` arguments, by kind.
const ATOMIC_LOADS: &[&str] = &["load"];
const ATOMIC_STORES: &[&str] = &["store"];
const ATOMIC_RMWS: &[&str] = &[
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Crates whose production atomics are audited (the hot path).
pub const ATOMIC_SCOPES: &[&str] = &[
    "crates/core/src",
    "crates/journal/src",
    "crates/filestore/src",
    "crates/device/src",
    "crates/common/src",
    "crates/messenger/src",
    "crates/kvstore/src",
    "crates/logging/src",
];

pub fn build(files: &[SourceFile]) -> Model {
    let mut m = Model::default();
    for f in files {
        collect_atomics(f, &mut m);
    }
    m
}

fn atomic_kind(name: &str) -> Option<AtomicKind> {
    if ATOMIC_LOADS.contains(&name) {
        Some(AtomicKind::Load)
    } else if ATOMIC_STORES.contains(&name) {
        Some(AtomicKind::Store)
    } else if ATOMIC_RMWS.contains(&name) {
        Some(AtomicKind::Rmw)
    } else {
        None
    }
}

/// `recv.field.load(Ordering::X)`-shaped calls in scoped production code.
fn collect_atomics(f: &SourceFile, m: &mut Model) {
    if !ATOMIC_SCOPES.iter().any(|s| f.path.starts_with(s)) {
        return;
    }
    let t = &f.toks;
    for i in 2..t.len() {
        let Some(kind) = atomic_kind(&t[i].text).filter(|_| t[i].kind == Kind::Ident) else {
            continue;
        };
        if !(t[i - 1].is_punct('.')
            && t[i - 2].kind == Kind::Ident
            && t.get(i + 1).is_some_and(|x| x.is_punct('(')))
        {
            continue;
        }
        if f.is_test(i) {
            continue;
        }
        // Scan the argument list for Ordering::X idents.
        let close = match_paren(t, i + 1);
        let mut orderings = Vec::new();
        let mut j = i + 2;
        while j + 3 <= close {
            if t[j].is_ident("Ordering") && t[j + 1].is_punct(':') && t[j + 2].is_punct(':') {
                orderings.push(t[j + 3].text.clone());
                j += 4;
                continue;
            }
            j += 1;
        }
        if orderings.is_empty() {
            // Not an atomic op (e.g. `FileStore::store(…)`, channel send).
            continue;
        }
        m.atomics.push(AtomicUse {
            file: f.path.clone(),
            line: t[i].line,
            col: t[i].col,
            field: t[i - 2].text.clone(),
            kind,
            orderings,
            justified: f.line_justified(t[i].line, "ordering:"),
        });
    }
}

/// Index of the `)` matching the `(` at `open`.
pub fn match_paren(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::parse(path.into(), src.into())
    }

    #[test]
    fn atomics_are_collected_with_kind_and_orderings() {
        let src = "fn f(&self) {\n  self.shutdown.store(true, Ordering::SeqCst);\n  let x = self.armed.load(Ordering::Relaxed);\n  self.n.compare_exchange(a, b, Ordering::AcqRel, Ordering::Acquire).ok();\n  self.store.flush();\n}";
        let f = file("crates/core/src/x.rs", src);
        let m = build(std::slice::from_ref(&f));
        assert_eq!(m.atomics.len(), 3);
        assert_eq!(m.atomics[0].field, "shutdown");
        assert_eq!(m.atomics[0].kind, AtomicKind::Store);
        assert_eq!(m.atomics[1].orderings, vec!["Relaxed"]);
        assert_eq!(m.atomics[2].kind, AtomicKind::Rmw);
        assert_eq!(m.atomics[2].orderings, vec!["AcqRel", "Acquire"]);
    }
}
