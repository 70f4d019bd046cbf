//! The two path-scoped hygiene rules clippy has no lint for:
//! `no-unwrap-on-sync` and `no-discarded-io`. Being token-based,
//! comments and string literals cannot trigger them, and every finding
//! carries a column. (`std::sync` lock primitives and `println!` in
//! library code are clippy's job now: `clippy.toml` `disallowed-types`
//! and `clippy::print_stdout`/`print_stderr`.)

use crate::lexer::Kind;
use crate::source::SourceFile;
use crate::{Diag, Severity};

/// Crates whose non-test sources must not unwrap lock/channel results.
const UNWRAP_SCOPES: &[&str] = &[
    "crates/core/src",
    "crates/journal/src",
    "crates/filestore/src",
    "crates/kvstore/src",
];

/// Receiver methods that make a same-line `.unwrap()`/`.expect()` a
/// lock/channel unwrap.
const SYNC_RESULT_METHODS: &[&str] = &["lock", "try_lock", "recv", "try_recv", "send", "join"];

/// Crates whose non-test sources must not discard fallible I/O results
/// with `let _ =`.
const DISCARD_IO_SCOPES: &[&str] = &[
    "crates/journal/src",
    "crates/filestore/src",
    "crates/device/src",
];

/// Methods whose discarded `Result` is an I/O result. Channel sends,
/// thread joins and OnceLock sets stay legal to discard.
const IO_METHODS: &[&str] = &[
    "submit",
    "submit_and_wait",
    "queue_transaction",
    "apply_sync",
    "read",
    "write",
    "write_at",
    "sync",
    "flush",
    "setxattr",
    "getxattr",
    "omap_set",
    "truncate",
];

// ---------------------------------------------------------------- //
// no-unwrap-on-sync
// ---------------------------------------------------------------- //

pub fn check_unwrap_on_sync(f: &SourceFile, out: &mut Vec<Diag>) {
    if !UNWRAP_SCOPES.iter().any(|s| f.path.starts_with(s)) || f.non_prod {
        return;
    }
    let t = &f.toks;
    for i in 0..t.len() {
        let is_unwrap = t[i].is_ident("unwrap") || t[i].is_ident("expect");
        if !(is_unwrap
            && i >= 1
            && t[i - 1].is_punct('.')
            && t.get(i + 1).is_some_and(|x| x.is_punct('(')))
            || f.is_test(i)
        {
            continue;
        }
        // A sync unwrap iff an earlier token on the same line is a
        // lock/channel method call (same-line semantics kept from the
        // original linter).
        let line = t[i].line;
        let sync_before = (0..i.saturating_sub(1))
            .rev()
            .take_while(|&j| t[j].line == line)
            .any(|j| {
                t[j].kind == Kind::Ident
                    && SYNC_RESULT_METHODS.contains(&t[j].text.as_str())
                    && t[j + 1].is_punct('(')
            });
        if sync_before {
            out.push(Diag {
                file: f.path.clone(),
                line,
                col: t[i].col,
                rule: "no-unwrap-on-sync",
                severity: Severity::Error,
                msg: format!(".{}() on a lock/channel result in hot-path code", t[i].text),
                suggestion: Some("handle the error (shutdown is not exceptional)".into()),
            });
        }
    }
}

// ---------------------------------------------------------------- //
// no-discarded-io
// ---------------------------------------------------------------- //

pub fn check_discarded_io(f: &SourceFile, out: &mut Vec<Diag>) {
    if !DISCARD_IO_SCOPES.iter().any(|s| f.path.starts_with(s)) || f.non_prod {
        return;
    }
    let t = &f.toks;
    for i in 0..t.len() {
        if !(t[i].is_ident("let")
            && t.get(i + 1).is_some_and(|x| x.is_ident("_"))
            && t.get(i + 2).is_some_and(|x| x.is_punct('=')))
            || f.is_test(i)
        {
            continue;
        }
        // Scan the statement (to `;`) for an I/O method call; a `?`
        // anywhere in it propagates the error, which is fine.
        let mut j = i + 3;
        let mut io_call: Option<String> = None;
        let mut propagated = false;
        while let Some(x) = t.get(j) {
            if x.is_punct(';') {
                break;
            }
            if x.is_punct('?') {
                propagated = true;
            }
            if x.kind == Kind::Ident
                && IO_METHODS.contains(&x.text.as_str())
                && t[j - 1].is_punct('.')
                && t.get(j + 1).is_some_and(|n| n.is_punct('('))
            {
                io_call.get_or_insert_with(|| x.text.clone());
            }
            j += 1;
        }
        if let (Some(call), false) = (io_call, propagated) {
            out.push(Diag {
                file: f.path.clone(),
                line: t[i].line,
                col: t[i].col,
                rule: "no-discarded-io",
                severity: Severity::Error,
                msg: format!("`let _ =` discards the Result of .{call}(…)"),
                suggestion: Some(
                    "handle or propagate it — swallowed I/O errors defeat the \
                     torn-write/fault-injection contract"
                        .into(),
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run(rule: fn(&SourceFile, &mut Vec<Diag>), path: &str, src: &str) -> Vec<Diag> {
        let f = SourceFile::parse(path.into(), src.into());
        let mut out = Vec::new();
        rule(&f, &mut out);
        out
    }

    // -------- no-unwrap-on-sync (migrated fixtures) -------- //

    #[test]
    fn unwrap_on_lock_result_is_flagged() {
        let src = "fn f(m: &M) {\n    let g = m.lock().unwrap();\n}\n";
        let v = run(check_unwrap_on_sync, "crates/core/src/osd/foo.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-unwrap-on-sync");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn expect_on_channel_result_is_flagged() {
        let src = "fn f(rx: Receiver<u32>) {\n    let x = rx.recv().expect(\"alive\");\n}\n";
        assert_eq!(
            run(check_unwrap_on_sync, "crates/journal/src/lib.rs", src).len(),
            1
        );
    }

    #[test]
    fn unwrap_in_test_module_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { h.join().unwrap(); }\n}\n";
        assert!(run(check_unwrap_on_sync, "crates/filestore/src/store.rs", src).is_empty());
    }

    #[test]
    fn unwrap_outside_scoped_crates_is_exempt() {
        let src = "fn f() { h.join().unwrap(); }\n";
        assert!(run(check_unwrap_on_sync, "crates/workload/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unwrap_on_parse_is_not_a_sync_unwrap() {
        let src = "fn f(s: &str) -> u64 { s.parse().unwrap() }\n";
        assert!(run(check_unwrap_on_sync, "crates/core/src/lib.rs", src).is_empty());
    }

    #[test]
    fn lock_in_comment_does_not_make_an_unwrap_sync() {
        let src = "fn f(s: &str) -> u64 { /* lock() */ s.parse().unwrap() }\n";
        assert!(run(check_unwrap_on_sync, "crates/core/src/lib.rs", src).is_empty());
    }

    // -------- no-discarded-io (migrated fixtures) -------- //

    #[test]
    fn discarded_journal_submit_is_flagged() {
        let src = "fn f(j: &Journal) {\n    let _ = j.submit(p, cb);\n}\n";
        let v = run(check_discarded_io, "crates/journal/src/lib.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-discarded-io");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn discarded_device_write_and_queue_transaction_are_flagged() {
        let src = "fn f(d: &Ssd) { let _ = d.write(req); }\n";
        assert_eq!(
            run(check_discarded_io, "crates/device/src/ssd.rs", src).len(),
            1
        );
        let src = "fn f(fs: &FileStore) { let _ = fs.queue_transaction(txn, cb); }\n";
        assert_eq!(
            run(check_discarded_io, "crates/filestore/src/store.rs", src).len(),
            1
        );
    }

    #[test]
    fn question_mark_propagation_is_exempt() {
        let src = "fn f(fs: &SimFs) -> Result<()> {\n    let _ = fs.getxattr(o, \"_\")?;\n    Ok(())\n}\n";
        assert!(run(check_discarded_io, "crates/filestore/src/store.rs", src).is_empty());
    }

    #[test]
    fn discarded_channel_send_and_join_are_exempt() {
        let src = "fn f() {\n    let _ = tx.send(1);\n    let _ = h.join();\n    let _ = cell.set(v);\n}\n";
        assert!(run(check_discarded_io, "crates/journal/src/lib.rs", src).is_empty());
    }

    #[test]
    fn discarded_io_in_tests_and_foreign_crates_is_exempt() {
        let test_src = "#[cfg(test)]\nmod tests {\n    fn t() { let _ = j.submit(p, cb); }\n}\n";
        assert!(run(check_discarded_io, "crates/journal/src/lib.rs", test_src).is_empty());
        let src = "fn f() { let _ = j.submit(p, cb); }\n";
        assert!(run(check_discarded_io, "crates/core/src/osd/mod.rs", src).is_empty());
        assert!(run(check_discarded_io, "crates/journal/tests/replay.rs", src).is_empty());
    }

    #[test]
    fn multiline_discard_statement_is_scanned() {
        let src = "fn f(j: &J) {\n    let _ = j\n        .submit(p, cb);\n}\n";
        assert_eq!(
            run(check_discarded_io, "crates/journal/src/lib.rs", src).len(),
            1
        );
    }
}
