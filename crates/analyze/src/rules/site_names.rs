//! `site-names`: cross-checks the fault/metric site-name registry.
//!
//! Site names are stringly-typed coordinates (`net.request`,
//! `osd0.data.write`, `node1.journal`) shared between three parties that
//! never meet at compile time: the production code that *attaches*
//! fault points and registers metrics, the tests that *arm* faults by
//! name, and the dashboards that read metric names. A typo in any of
//! them fails silently — the fault never fires, the metric never moves.
//! This rule makes the registry total:
//!
//! - **Convention.** Every site literal is dotted lowercase
//!   (`[a-z0-9_]` segments, `{…}` format holes allowed).
//! - **Armed sites must exist.** A `FaultSpec::new("…")` name must
//!   match an attached template (instance of the template, optionally
//!   with one trailing `.verb` segment — `check_io` semantics).
//! - **Fault sites must be armed.** A production template no test ever
//!   arms is dead fault-injection surface; it rots unverified.
//!
//! Canary: `fault_matrix`'s delayed-ack test arming `net.rep_ack` where
//! the site is `net.repack`. The delay never happens, and the test
//! still passes, because an undelayed ack gives the outcome it asserts.
//! clippy and every test pass. A test that checks its fault fired
//! (`reg.hits(..)`, a resend count) catches the same typo on its own,
//! and a metric handle that is registered but never recorded fails the
//! tests that read it, so that check is not here.

use crate::model::SiteLit;
use crate::{Diag, Severity, Workspace};

/// True if `name` could be produced by `template` (a format string with
/// `{…}` holes), optionally followed by one extra `.verb` segment.
pub fn template_matches(template: &str, name: &str) -> bool {
    let t_segs: Vec<&str> = template.split('.').collect();
    let n_segs: Vec<&str> = name.split('.').collect();
    let extra_verb = n_segs.len() == t_segs.len() + 1 && is_plain_segment(n_segs[n_segs.len() - 1]);
    if n_segs.len() != t_segs.len() && !extra_verb {
        return false;
    }
    t_segs
        .iter()
        .zip(&n_segs)
        .all(|(t, n)| segment_matches(t, n))
}

fn is_plain_segment(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// Match one dotted segment: literal chars plus `{…}` holes, each hole
/// consuming one or more characters (backtracking, holes are rare).
fn segment_matches(pat: &str, s: &str) -> bool {
    fn go(p: &[char], s: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('{') => {
                let close = match p.iter().position(|&c| c == '}') {
                    Some(i) => i,
                    None => return false, // malformed hole: no match
                };
                let rest = &p[close + 1..];
                // A hole eats 1..=len chars.
                (1..=s.len()).any(|k| go(rest, &s[k..]))
            }
            Some(&c) => s.first() == Some(&c) && go(&p[1..], &s[1..]),
        }
    }
    go(
        &pat.chars().collect::<Vec<_>>(),
        &s.chars().collect::<Vec<_>>(),
    )
}

/// Convention: dotted lowercase segments; `{…}` holes allowed.
fn valid_site(template: &str) -> bool {
    if template.is_empty() {
        return false;
    }
    template.split('.').all(|seg| {
        if seg.is_empty() {
            return false;
        }
        let mut in_hole = false;
        for c in seg.chars() {
            match c {
                '{' if !in_hole => in_hole = true,
                '}' if in_hole => in_hole = false,
                _ if in_hole => {} // hole contents are format syntax
                c if c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' => {}
                _ => return false,
            }
        }
        !in_hole
    })
}

fn diag(s: &SiteLit, msg: String, suggestion: String) -> Diag {
    Diag {
        file: s.file.clone(),
        line: s.line,
        col: s.col,
        rule: "site-names",
        severity: Severity::Error,
        msg,
        suggestion: Some(suggestion),
    }
}

pub fn check(ws: &Workspace, out: &mut Vec<Diag>) {
    let m = &ws.model;

    // 1. Convention, over every site literal we know about.
    for s in m.fault_templates.iter().chain(&m.metric_names) {
        if !valid_site(&s.template) {
            out.push(diag(
                s,
                format!(
                    "site name `{}` violates the dotted-lowercase convention",
                    s.template
                ),
                "use `component.subsystem.verb` segments of [a-z0-9_] (format `{…}` holes allowed)"
                    .into(),
            ));
        }
    }

    // Only well-formed production templates participate in arming checks;
    // malformed ones were already reported above.
    let live_templates: Vec<&SiteLit> = m
        .fault_templates
        .iter()
        .filter(|t| !t.in_test && valid_site(&t.template))
        .collect();

    // 2. Every armed site in the cluster layer must be an instance of
    //    some attached template. Scoped to `crates/core/`: unit tests in
    //    the leaf crates arm ad-hoc names against their own local
    //    registries, which is fine — only the cluster integration layer
    //    arms the shared attach()ed sites.
    for a in m
        .armed_sites
        .iter()
        .filter(|a| a.file.starts_with("crates/core/"))
    {
        if !live_templates
            .iter()
            .any(|t| template_matches(&t.template, &a.template))
        {
            out.push(diag(
                a,
                format!(
                    "armed fault site `{}` matches no attached fault template",
                    a.template
                ),
                "the fault will never fire; check the name against the attach() sites".into(),
            ));
        }
    }

    // 3. Every production template must be armed by at least one test
    //    (or production arm — any FaultSpec counts as coverage).
    let mut seen = std::collections::BTreeSet::new();
    for t in &live_templates {
        if !seen.insert(t.template.as_str()) {
            continue; // report each template once, at its first attach site
        }
        if !m
            .armed_sites
            .iter()
            .any(|a| template_matches(&t.template, &a.template))
        {
            out.push(diag(
                t,
                format!(
                    "fault site `{}` is attached but never armed by any test",
                    t.template
                ),
                "add a fault-matrix case arming it, or remove the dead injection point".into(),
            ));
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

    #[test]
    fn template_matching_semantics() {
        assert!(template_matches("net.request", "net.request"));
        assert!(template_matches("osd{}.data", "osd0.data"));
        assert!(template_matches("osd{}.data", "osd12.data.write")); // check_io verb
        assert!(template_matches("node{node}.journal", "node3.journal"));
        assert!(!template_matches("osd{}.data", "osd0.journal"));
        assert!(!template_matches("net.request", "net.reply"));
        assert!(!template_matches("osd{}.data", "osd0.data.write.extra"));
        assert!(!template_matches("osd{}.data", "osd.data")); // hole eats >= 1 char
                                                              // Healing-loop sites (heartbeats, peering, recovery pushes).
        assert!(template_matches("net.heartbeat", "net.heartbeat"));
        assert!(template_matches("net.peering", "net.peering"));
        assert!(template_matches("net.push", "net.push"));
        assert!(template_matches(
            "osd{}.recovery.pushes",
            "osd3.recovery.pushes"
        ));
        assert!(template_matches(
            "osd{}.peering.rounds",
            "osd12.peering.rounds"
        ));
        assert!(!template_matches("net.heartbeat", "net.peering"));
        assert!(!template_matches(
            "osd{}.recovery.pushes",
            "osd3.peering.pushes"
        ));
        // Multi-stream device metrics: per-stream byte counters and the
        // GC copy-forward accounting exported by the stream-aware FTL.
        assert!(template_matches(
            "osd{}.data.stream.{}.bytes",
            "osd0.data.stream.journal.bytes"
        ));
        assert!(template_matches(
            "osd{}.data.stream.{}.bytes",
            "osd3.data.stream.kv_compaction.bytes"
        ));
        assert!(template_matches(
            "osd{}.data.gc.copied_bytes",
            "osd1.data.gc.copied_bytes"
        ));
        assert!(template_matches(
            "osd{}.data.gc.pauses",
            "osd0.data.gc.pauses"
        ));
        assert!(!template_matches(
            "osd{}.data.stream.{}.bytes",
            "osd0.data.stream.bytes" // hole eats >= 1 segment char, not zero segments
        ));
    }

    #[test]
    fn convention_checks() {
        assert!(valid_site("net.request"));
        assert!(valid_site("osd{}.data"));
        assert!(valid_site("node{node}.journal"));
        assert!(valid_site("osd{}.data.stream.{}.bytes"));
        assert!(valid_site("osd{}.data.gc.copied_bytes"));
        assert!(!valid_site("Net.Request"));
        assert!(!valid_site("osd..data"));
        assert!(!valid_site("osd-0.data"));
        assert!(!valid_site("osd 0.data"));
        assert!(!valid_site(""));
    }

    #[test]
    fn bad_convention_is_flagged_at_the_literal() {
        let v = run(&[(
            "crates/core/src/cluster.rs",
            "fn wire(reg: &R) { dev.attach(reg, \"Osd-Zero.Data\".to_string()); }\n",
        )]);
        assert!(
            v.iter().any(|d| d.msg.contains("dotted-lowercase")),
            "{v:?}"
        );
    }

    /// The canary no other gate catches: `fault_matrix`'s delayed-ack
    /// test arming `net.rep_ack` where the site is `net.repack`. The
    /// delay never happens and the test still passes, because an
    /// undelayed ack gives the outcome it asserts.
    #[test]
    fn canary_misspelled_arm_of_an_attached_site() {
        let v = run(&[
            (
                "crates/core/src/cluster.rs",
                "fn wire(reg: &R) {\n    net.attach_faults(reg, |m| Some(match m { A => \"net.replicate\", B => \"net.repack\" }));\n}\n",
            ),
            (
                "crates/core/tests/fault_matrix.rs",
                "#[test]\nfn dup() {\n    reg.install(FaultSpec::new(\"net.replicate\", FaultKind::Duplicate).times(1));\n    reg.install(FaultSpec::new(\"net.rep_ack\", FaultKind::Delay(d)).times(2));\n}\n",
            ),
        ]);
        let got: Vec<(&str, u32)> = v.iter().map(|d| (d.file.as_str(), d.line)).collect();
        assert_eq!(
            got,
            vec![
                ("crates/core/tests/fault_matrix.rs", 4),
                ("crates/core/src/cluster.rs", 2),
            ],
            "{v:?}"
        );
        assert!(v[0].msg.contains("`net.rep_ack` matches no attached"));
        assert!(v[1]
            .msg
            .contains("`net.repack` is attached but never armed"));
    }

    #[test]
    fn unarmed_template_is_flagged_once() {
        let v = run(&[(
            "crates/core/src/cluster.rs",
            "fn wire(reg: &R) {\n    a.attach(reg, \"net.request\".to_string());\n    b.attach(reg, \"net.request\".to_string());\n}\n",
        )]);
        let hits: Vec<_> = v.iter().filter(|d| d.msg.contains("never armed")).collect();
        assert_eq!(hits.len(), 1, "{v:?}");
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn armed_template_is_clean() {
        let v = run(&[
            (
                "crates/core/src/cluster.rs",
                "fn wire(reg: &R) { dev.attach(reg, format!(\"osd{}.data\", id)); }\n",
            ),
            (
                "crates/core/tests/faults.rs",
                "#[test]\nfn t() { reg.install(FaultSpec::new(\"osd1.data.write\", FaultKind::Torn)); }\n",
            ),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unarmed_healing_sites_are_flagged() {
        // The self-healing loop's injection points (heartbeat drops,
        // peering-info drops, push drops) participate in arming coverage
        // like any other site: attached-but-unarmed is dead surface.
        let v = run(&[(
            "crates/core/src/cluster.rs",
            "fn wire(reg: &R) {\n    a.attach(reg, \"net.heartbeat\".to_string());\n    b.attach(reg, \"net.push\".to_string());\n}\n",
        ), (
            "crates/core/tests/recovery.rs",
            "#[test]\nfn t() { reg.install(FaultSpec::new(\"net.heartbeat\", FaultKind::Drop)); }\n",
        )]);
        let unarmed: Vec<_> = v.iter().filter(|d| d.msg.contains("never armed")).collect();
        assert_eq!(unarmed.len(), 1, "{v:?}");
        assert!(unarmed[0].msg.contains("`net.push`"), "{v:?}");
    }
}
