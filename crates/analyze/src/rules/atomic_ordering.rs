//! `atomic-ordering`: memory-ordering hygiene over every atomic op in
//! the audited hot-path crates (see [`crate::model::ATOMIC_SCOPES`]).
//!
//! Two checks:
//!
//! - **Unjustified `SeqCst`.** Sequential consistency is almost never
//!   what the hot path wants (it serializes on a global order even on
//!   x86 where Acquire/Release loads and stores are free). Every
//!   `Ordering::SeqCst` use must carry an adjacent `// ordering:`
//!   comment saying why the total order is required.
//! - **Unpaired Acquire/Release.** A `Release` store publishes writes
//!   only if some load of the same field observes it with `Acquire` (or
//!   stronger); an `Acquire` load synchronizes only against a `Release`
//!   store. A field with one side and not the other is either a bug or
//!   needs a `// ordering:` justification (e.g. deliberately Relaxed
//!   readers on an advisory flag). Pairing is cross-file on the field
//!   name, so a store in one crate pairs with a load in another.
//!
//! Canary: `Osd::pause` storing `paused` with a bare `SeqCst`, and
//! `Osd::resume` storing it with `Release` while every load stays
//! `Relaxed`. Both pass clippy (it has no ordering lint) and every
//! test: x86-64 orders plain loads and stores, so a too-weak or
//! unpaired ordering behaves like a correct one on this host.

use crate::model::{AtomicKind, AtomicUse};
use crate::{Diag, Severity, Workspace};

fn has(u: &AtomicUse, names: &[&str]) -> bool {
    u.orderings.iter().any(|o| names.contains(&o.as_str()))
}

/// The op can act as the acquire (reading) side of a pairing.
fn acquire_side(u: &AtomicUse) -> bool {
    matches!(u.kind, AtomicKind::Load | AtomicKind::Rmw) && has(u, &["Acquire", "AcqRel", "SeqCst"])
}

/// The op can act as the release (publishing) side of a pairing.
fn release_side(u: &AtomicUse) -> bool {
    matches!(u.kind, AtomicKind::Store | AtomicKind::Rmw)
        && has(u, &["Release", "AcqRel", "SeqCst"])
}

pub fn check(ws: &Workspace, out: &mut Vec<Diag>) {
    let atomics = &ws.model.atomics;

    for u in atomics {
        if has(u, &["SeqCst"]) && !u.justified {
            out.push(Diag {
                file: u.file.clone(),
                line: u.line,
                col: u.col,
                rule: "atomic-ordering",
                severity: Severity::Error,
                msg: format!(
                    "`Ordering::SeqCst` on `{}` without an `// ordering:` justification",
                    u.field
                ),
                suggestion: Some(
                    "relax to Acquire/Release/Relaxed, or add a `// ordering:` comment \
                     explaining why a single total order is required"
                        .into(),
                ),
            });
        }
    }

    // Cross-file pairing by field name.
    for u in atomics {
        if u.justified {
            continue;
        }
        let paired =
            |pred: fn(&AtomicUse) -> bool| atomics.iter().any(|v| v.field == u.field && pred(v));
        if release_side(u) && !has(u, &["SeqCst"]) && !paired(acquire_side) {
            out.push(Diag {
                file: u.file.clone(),
                line: u.line,
                col: u.col,
                rule: "atomic-ordering",
                severity: Severity::Error,
                msg: format!(
                    "`Release` ordering on `{}` has no matching `Acquire` load of that field in the audited crates",
                    u.field
                ),
                suggestion: Some(
                    "upgrade a reader to Ordering::Acquire, or add a `// ordering:` comment \
                     if Relaxed readers are intended"
                        .into(),
                ),
            });
        }
        if acquire_side(u) && !has(u, &["SeqCst"]) && !paired(release_side) {
            out.push(Diag {
                file: u.file.clone(),
                line: u.line,
                col: u.col,
                rule: "atomic-ordering",
                severity: Severity::Error,
                msg: format!(
                    "`Acquire` ordering on `{}` has no matching `Release` store of that field in the audited crates",
                    u.field
                ),
                suggestion: Some(
                    "publish the field with Ordering::Release, or add a `// ordering:` comment \
                     if there is nothing to synchronize with"
                        .into(),
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model;
    use crate::source::SourceFile;

    fn run(srcs: &[(&str, &str)]) -> Vec<Diag> {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(p, s)| SourceFile::parse((*p).into(), (*s).into()))
            .collect();
        let model = model::build(&files);
        let ws = crate::Workspace { files, model };
        let mut out = Vec::new();
        check(&ws, &mut out);
        out
    }

    /// The canaries no other gate catches: `Osd::pause` and
    /// `Osd::resume` with their `Relaxed` stores of `paused` changed.
    #[test]
    fn canary_pause_flag_orderings() {
        let v = run(&[(
            "crates/core/src/osd/mod.rs",
            "fn pause(&self) {\n    self.inner.paused.store(true, Ordering::SeqCst);\n}\nfn resume(&self) {\n    self.inner.paused.store(false, Ordering::Release);\n}\nfn dispatch(&self) -> bool {\n    inner.paused.load(Ordering::Relaxed)\n}\n",
        )]);
        let got: Vec<u32> = v.iter().map(|d| d.line).collect();
        assert_eq!(got, vec![2, 5], "{v:?}");
        assert!(v[0].msg.contains("`Ordering::SeqCst` on `paused`"));
        assert!(v[1]
            .msg
            .contains("`Release` ordering on `paused` has no matching `Acquire`"));
    }

    #[test]
    fn justified_seqcst_is_clean() {
        let v = run(&[(
            "crates/core/src/x.rs",
            "fn f(&self) {\n    // ordering: ticket counter needs a single total order\n    self.seq.store(1, Ordering::SeqCst);\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn paired_acquire_release_across_files_is_clean() {
        let v = run(&[
            (
                "crates/core/src/a.rs",
                "fn publish(&self) { self.ready.store(true, Ordering::Release); }\n",
            ),
            (
                "crates/journal/src/b.rs",
                "fn observe(&self) -> bool { self.ready.load(Ordering::Acquire) }\n",
            ),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unpaired_acquire_load_is_flagged() {
        let v = run(&[(
            "crates/core/src/a.rs",
            "fn f(&self) { let _x = self.flag.load(Ordering::Acquire); }\n",
        )]);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("no matching `Release` store"));
    }

    #[test]
    fn justification_silences_unpaired_release() {
        let v = run(&[(
            "crates/core/src/a.rs",
            "fn f(&self) {\n    // ordering: advisory flag, Relaxed readers are fine\n    self.armed.store(true, Ordering::Release);\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn rmw_counts_as_both_sides() {
        let v = run(&[(
            "crates/core/src/a.rs",
            "fn f(&self) { self.n.fetch_add(1, Ordering::AcqRel); }\n",
        )]);
        // AcqRel RMW pairs with itself (other threads' RMWs of the field).
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn seqcst_pairs_with_release_store() {
        // A justified SeqCst load counts as the acquire side for pairing.
        let v = run(&[(
            "crates/core/src/a.rs",
            "fn f(&self) {\n    self.gate.store(true, Ordering::Release);\n    // ordering: gate readers need the global order with seq\n    let _g = self.gate.load(Ordering::SeqCst);\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn relaxed_everywhere_is_clean() {
        let v = run(&[(
            "crates/core/src/a.rs",
            "fn f(&self) { self.hits.fetch_add(1, Ordering::Relaxed); let _h = self.hits.load(Ordering::Relaxed); }\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn test_code_and_out_of_scope_files_are_exempt() {
        let v = run(&[
            (
                "crates/bench/src/a.rs",
                "fn f(&self) { self.x.store(1, Ordering::SeqCst); }\n",
            ),
            (
                "crates/core/src/b.rs",
                "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { X.store(1, Ordering::SeqCst); }\n}\n",
            ),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }
}
