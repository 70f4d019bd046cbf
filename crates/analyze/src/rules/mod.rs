//! The rule catalog. Each rule walks the token streams (and the
//! cross-file [`crate::model::Model`]) and pushes [`crate::Diag`]s.

pub mod atomic_ordering;
pub mod blocking;

use crate::{Diag, Workspace};

/// Run every rule over the workspace.
pub fn run_all(ws: &Workspace) -> Vec<Diag> {
    let mut out = Vec::new();
    for f in &ws.files {
        blocking::check(f, &mut out);
    }
    atomic_ordering::check(ws, &mut out);
    out
}
