//! `pg-state-confinement`: `Pg::state` may be locked only inside the
//! pending-queue entry points (`Pg::drain` and `Pg::lock_raw`, the
//! acquisition behind `Pg::lock_measured`, in `pg.rs`); every other path
//! must go through the pending FIFO so per-PG ordering is preserved.
//!
//! Re-expressed on the token stream (the original line-grep version
//! matched `.state.lock()` textually and misfired on comments and
//! string literals; tokens make that impossible by construction, and
//! the sanctioned-function check now uses real `fn` body spans instead
//! of a brace-counting line mask).

use crate::source::SourceFile;
use crate::{Diag, Severity};

/// Directory the rule applies to.
const SCOPE: &str = "crates/core/src/osd";

/// (file suffix, function names) whose bodies may lock `state` directly.
const SANCTIONED: (&str, &[&str]) = ("/pg.rs", &["drain", "lock_raw"]);

pub fn check(f: &SourceFile, out: &mut Vec<Diag>) {
    if !f.path.starts_with(SCOPE) {
        return;
    }
    let t = &f.toks;
    for i in 0..t.len() {
        // . state . {lock | try_lock} (
        let shape = t[i].is_ident("state")
            && i >= 1
            && t[i - 1].is_punct('.')
            && t.get(i + 1).is_some_and(|x| x.is_punct('.'))
            && t.get(i + 2)
                .is_some_and(|x| x.is_ident("lock") || x.is_ident("try_lock"))
            && t.get(i + 3).is_some_and(|x| x.is_punct('('));
        if !shape {
            continue;
        }
        let sanctioned = f.path.ends_with(SANCTIONED.0)
            && f.enclosing_fn(i)
                .is_some_and(|fun| SANCTIONED.1.contains(&fun.name.as_str()));
        if sanctioned {
            continue;
        }
        out.push(Diag {
            file: f.path.clone(),
            line: t[i].line,
            col: t[i].col,
            rule: "pg-state-confinement",
            severity: Severity::Error,
            msg: "direct Pg::state lock outside Pg::drain/Pg::lock_measured".into(),
            suggestion: Some("go through the pending queue so per-PG ordering is preserved".into()),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run(path: &str, src: &str) -> Vec<Diag> {
        let f = SourceFile::parse(path.into(), src.into());
        let mut out = Vec::new();
        check(&f, &mut out);
        out
    }

    // -------- migrated fixtures -------- //

    #[test]
    fn pg_state_lock_outside_entry_points_is_flagged() {
        let src = "fn sneaky(pg: &Pg) {\n    let g = pg.state.lock();\n}\n";
        let v = run("crates/core/src/osd/mod.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "pg-state-confinement");
        assert_eq!((v[0].line, v[0].col), (2, 16));
    }

    #[test]
    fn pg_state_lock_inside_drain_and_lock_raw_is_sanctioned() {
        let src = "impl Pg {\n    pub fn drain(&self) {\n        let g = self.state.try_lock();\n    }\n    fn lock_raw(&self) {\n        let g = self.state.lock();\n    }\n}\n";
        assert!(run("crates/core/src/osd/pg.rs", src).is_empty());
    }

    #[test]
    fn pg_state_lock_elsewhere_in_pg_rs_is_flagged() {
        let src = "impl Pg {\n    pub fn backdoor(&self) {\n        let g = self.state.lock();\n    }\n}\n";
        assert_eq!(run("crates/core/src/osd/pg.rs", src).len(), 1);
    }

    #[test]
    fn pg_state_rule_scoped_to_osd_dir() {
        let src = "fn f(t: &Throttle) { let g = t.state.lock(); }\n";
        assert!(run("crates/filestore/src/throttle.rs", src).is_empty());
    }

    // -------- the false positives the rewrite fixes -------- //

    #[test]
    fn commented_state_lock_is_not_flagged() {
        let src = "fn doc() {\n    // never call pg.state.lock() here\n    /* pg.state.try_lock() is also banned */\n}\n";
        assert!(run("crates/core/src/osd/mod.rs", src).is_empty());
    }

    #[test]
    fn string_literal_state_lock_is_not_flagged() {
        let src = "fn msg() -> &'static str {\n    \"do not call pg.state.lock() directly\"\n}\n";
        assert!(run("crates/core/src/osd/mod.rs", src).is_empty());
    }

    #[test]
    fn other_state_methods_are_not_flagged() {
        let src = "fn ok(pg: &Pg) { let n = pg.state_len(); pg.state.read_only(); }\n";
        assert!(run("crates/core/src/osd/mod.rs", src).is_empty());
    }
}
