//! `hot-path-blocking`: sleeps, unbounded channel receives, and direct
//! file I/O inside the OSD op path (`crates/core/src/osd`).
//!
//! The op path runs on the worker threads that drain PG pending queues;
//! a blocked worker stalls every PG hashed onto it, which shows up as
//! tail latency long before it shows up as a hang. Blocking belongs in
//! the dedicated worker loops that exist for it:
//!
//! - `completion_worker_loop` — the journal-completion drain blocks on
//!   its channel, that is its job;
//! - `reptimer_loop`, `heartbeat_loop` — tickers that sleep between
//!   sweeps, off the op path.
//!
//! Anything else needs a `// blocking-ok:` comment on or above the line
//! saying why the wait is bounded or off the op path.
//!
//! Canary: a `std::thread::sleep(200µs)`, a bare `.recv()` or a
//! `std::fs::read` in `handle_request`. Each one passes clippy and every
//! debug and release test, and lockdep too: `assert_blockable` only
//! fires under a `no_block_while_held` class, and none is held there.
//! The cost is tail latency and CPU, which no test asserts.

use crate::source::SourceFile;
use crate::{Diag, Severity};

/// The op path the rule polices.
const SCOPE: &str = "crates/core/src/osd";

/// Functions (by name, within [`SCOPE`]) whose bodies may block: the
/// worker/ticker entry points.
const SANCTIONED_FNS: &[&str] = &["completion_worker_loop", "reptimer_loop", "heartbeat_loop"];

/// Comment marker that waives a specific line.
const WAIVER: &str = "blocking-ok:";

pub fn check(f: &SourceFile, out: &mut Vec<Diag>) {
    if !f.path.starts_with(SCOPE) {
        return;
    }
    let t = &f.toks;
    for i in 0..t.len() {
        if f.is_test(i) {
            continue;
        }
        let found: Option<(&'static str, &'static str)> =
            // thread::sleep(..) — std sleep in the op path.
            if t[i].is_ident("sleep")
                && i >= 3
                && t[i - 1].is_punct(':')
                && t[i - 2].is_punct(':')
                && t[i - 3].is_ident("thread")
                && t.get(i + 1).is_some_and(|x| x.is_punct('('))
            {
                Some(("thread::sleep", "use a timer wheel or an event, not a stalled worker"))
            }
            // .recv() with no timeout — unbounded channel wait.
            else if t[i].is_ident("recv")
                && i >= 1
                && t[i - 1].is_punct('.')
                && t.get(i + 1).is_some_and(|x| x.is_punct('('))
                && t.get(i + 2).is_some_and(|x| x.is_punct(')'))
            {
                Some(("unbounded recv()", "use recv_timeout / try_recv, or move the wait into a worker loop"))
            }
            // Direct std::fs access — storage I/O must go through the
            // device/filestore layers where faults and metrics attach.
            else if t[i].is_ident("fs")
                && i >= 3
                && t[i - 1].is_punct(':')
                && t[i - 2].is_punct(':')
                && t[i - 3].is_ident("std")
            {
                Some(("std::fs call", "go through the filestore/device layer"))
            }
            // File::open / File::create / OpenOptions::new
            else if (t[i].is_ident("File") || t[i].is_ident("OpenOptions"))
                && t.get(i + 1).is_some_and(|x| x.is_punct(':'))
                && t.get(i + 2).is_some_and(|x| x.is_punct(':'))
                && t.get(i + 3).is_some_and(|x| {
                    x.is_ident("open") || x.is_ident("create") || x.is_ident("new")
                })
                && t.get(i + 4).is_some_and(|x| x.is_punct('('))
            {
                Some(("blocking file open", "go through the filestore/device layer"))
            } else {
                None
            };
        let Some((what, fix)) = found else { continue };
        if f.enclosing_fn(i)
            .is_some_and(|fun| SANCTIONED_FNS.contains(&fun.name.as_str()))
        {
            continue;
        }
        if f.line_justified(t[i].line, WAIVER) {
            continue;
        }
        out.push(Diag {
            file: f.path.clone(),
            line: t[i].line,
            col: t[i].col,
            rule: "hot-path-blocking",
            severity: Severity::Error,
            msg: format!("{what} in the OSD op path"),
            suggestion: Some(format!(
                "{fix}; or waive with a `// {WAIVER}` comment explaining why the wait is bounded"
            )),
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

    /// The canaries no other gate catches, planted where a client op
    /// enters the OSD.
    #[test]
    fn canary_waits_in_handle_request() {
        let src = "pub(super) fn handle_request(self: &Arc<Self>, from: Addr, op: ClientOp) {\n    std::thread::sleep(std::time::Duration::from_micros(200));\n    rx.recv().ok();\n    std::fs::read(\"Cargo.toml\").ok();\n}\n";
        let v = run("crates/core/src/osd/dispatch.rs", src);
        let got: Vec<(u32, &str)> = v.iter().map(|d| (d.line, d.msg.as_str())).collect();
        assert_eq!(
            got,
            vec![
                (2, "thread::sleep in the OSD op path"),
                (3, "unbounded recv() in the OSD op path"),
                (4, "std::fs call in the OSD op path"),
            ]
        );
    }

    #[test]
    fn sleep_in_sanctioned_fns_is_clean() {
        let src = "fn reptimer_loop(inner: Arc<OsdInner>) {\n    std::thread::sleep(t);\n}\nfn completion_worker_loop(rx: &Receiver<u32>) {\n    while let Ok(x) = rx.recv() {}\n}\n";
        assert!(run("crates/core/src/osd/mod.rs", src).is_empty());
    }

    #[test]
    fn unbounded_recv_is_flagged_but_timeout_variants_are_clean() {
        let src = "fn wait(&self) {\n    let a = self.rx.recv();\n    let b = self.rx.recv_timeout(d);\n    let c = self.rx.try_recv();\n}\n";
        let v = run("crates/core/src/osd/pg.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("recv"));
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn direct_file_io_is_flagged() {
        let src = "fn bad(&self) {\n    let f = File::open(p);\n    let m = std::fs::metadata(p);\n    let o = OpenOptions::new();\n}\n";
        assert_eq!(run("crates/core/src/osd/mod.rs", src).len(), 3);
    }

    #[test]
    fn waiver_comment_silences_the_line() {
        let src = "fn backoff(&self) {\n    // blocking-ok: bounded 1ms backoff on journal-full, measured\n    std::thread::sleep(Duration::from_millis(1));\n}\n";
        assert!(run("crates/core/src/osd/mod.rs", src).is_empty());
    }

    #[test]
    fn outside_scope_and_tests_are_exempt() {
        let src = "fn f() { std::thread::sleep(d); }\n";
        assert!(run("crates/core/src/client/rados.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { std::thread::sleep(d); let _ = rx.recv(); }\n}\n";
        assert!(run("crates/core/src/osd/mod.rs", test_src).is_empty());
    }
}
