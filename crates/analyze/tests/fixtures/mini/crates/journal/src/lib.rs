//! Deliberately careless journal code: one unwrap on a channel result and
//! one swallowed device write, each expected to produce one diagnostic.

pub fn next(rx: &Receiver<u64>) -> u64 {
    rx.recv().unwrap()
}

pub fn append(dev: &Dev, req: IoReq) {
    let _ = dev.submit(req);
}
