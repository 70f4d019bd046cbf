//! Deliberately stalling op-path code: one blocking sleep, expected to
//! produce exactly one diagnostic.

pub struct Engine;

impl Engine {
    /// Sleeps on the op path outside a sanctioned worker loop.
    pub fn stalls(&self) {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}
