//! Spans of the traced run: kept in memory while the run measures, written
//! to one JSON file when it ends.
//!
//! The program under test records no spans yet (ROADMAP item 2); these are
//! recorded by the benchmark around its calls into each layer.

use crate::generator::OpSpan;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One timed interval. `parent` 0 means none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Identifier, unique among the file's `spans` (op rows count separately).
    pub id: u64,
    /// The span that caused this one.
    pub parent: u64,
    /// Layer boundary crossed, e.g. `drv.journal.submit_and_wait`.
    pub name: &'static str,
    /// Start, ns since the recorder was made.
    pub start_ns: u64,
    /// End, ns since the recorder was made.
    pub end_ns: u64,
}

/// In-memory span store for the layer-driver pass.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    /// Clock of this recorder, ns.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span that will hold children; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: u64) -> u64 {
        let start_ns = self.now();
        self.push(name, parent, start_ns, start_ns)
    }

    /// Close a span opened with [`Recorder::open`].
    pub fn close(&mut self, id: u64) {
        let now = self.now();
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Time `f` as one child span of `parent`; returns its duration, ns.
    pub fn time<R>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> R) -> u64 {
        let start_ns = self.now();
        std::hint::black_box(f());
        let end_ns = self.now();
        self.push(name, parent, start_ns, end_ns);
        end_ns - start_ns
    }

    fn push(&mut self, name: &'static str, parent: u64, start_ns: u64, end_ns: u64) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Everything one traced run leaves behind.
pub struct TraceFile<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Seed of the run.
    pub seed: u64,
    /// Per-op records of the traced workload phase (own clock).
    pub ops: &'a [OpSpan],
    /// Spans of the layer-driver pass (own clock).
    pub spans: &'a [Span],
    /// The per-layer metrics, cut at the same boundaries as the spans.
    pub metrics: &'a [(String, f64)],
}

impl TraceFile<'_> {
    /// The file's text. Op spans are one row each: the root span `op` is
    /// `[due_ns, complete_ns]`, its children `client.submit` =
    /// `[submit_start_ns, submit_end_ns]` and `client.wait` =
    /// `[submit_end_ns, complete_ns]`; all three share the row's `id`.
    pub fn render(&self) -> String {
        let mut s = String::with_capacity(64 * self.ops.len() + 96 * self.spans.len() + 4096);
        let _ = writeln!(
            s,
            "{{\"schema\":\"afc-benchmark-trace/1\",\"workload\":\"{}\",\"seed\":{},",
            self.workload, self.seed
        );
        s.push_str("\"metrics\":{");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let _ = write!(s, "{}\"{name}\":{value}", if i == 0 { "" } else { "," });
        }
        s.push_str("},\n\"op_spans\":{\"columns\":[\"id\",\"kind\",\"object\",\"block\",\"due_ns\",\"submit_start_ns\",\"submit_end_ns\",\"complete_ns\",\"ok\"],\"rows\":[\n");
        for (i, p) in self.ops.iter().enumerate() {
            let _ = writeln!(
                s,
                "{}[{},\"{}\",{},{},{},{},{},{},{}]",
                if i == 0 { "" } else { "," },
                p.id,
                p.op.kind.as_str(),
                p.op.object,
                p.op.block,
                p.due,
                p.submit_start,
                p.submit_end,
                p.complete,
                p.ok
            );
        }
        s.push_str("]},\n\"spans\":[\n");
        for (i, p) in self.spans.iter().enumerate() {
            let _ = writeln!(
                s,
                "{}{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                if i == 0 { "" } else { "," },
                p.id,
                p.parent,
                p.name,
                p.start_ns,
                p.end_ns
            );
        }
        s.push_str("]}\n");
        s
    }

    /// Write the file into `dir` (created if missing); returns its path.
    pub fn write_into(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("trace-{}-{}.json", self.workload, self.seed));
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        f.write_all(self.render().as_bytes())?;
        f.flush()?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Kind, Op};

    #[test]
    fn recorder_nests_and_times() {
        let mut r = Recorder::default();
        let root = r.open("drv", 0);
        let pass = r.open("drv.kvstore", root);
        let d = r.time("drv.kvstore.put", pass, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.close(pass);
        r.close(root);
        assert!(d >= 2_000_000);
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (0, 1, 2));
        assert_eq!(s[2].end_ns - s[2].start_ns, d);
        // Parents cover their children.
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(s[1].start_ns <= s[2].start_ns && s[2].end_ns <= s[1].end_ns);
    }

    #[test]
    fn file_text_is_balanced_and_carries_every_record() {
        let ops = [OpSpan {
            id: 7,
            op: Op {
                kind: Kind::Read,
                object: 3,
                block: 9,
            },
            due: 10,
            submit_start: 11,
            submit_end: 15,
            complete: 400,
            ok: true,
        }; 2];
        let mut r = Recorder::default();
        r.time("drv.crush.place", 0, || ());
        let metrics = vec![("client.lat_p99_us".to_string(), 1.5)];
        let text = TraceFile {
            workload: "r4k_qd8",
            seed: 42,
            ops: &ops,
            spans: r.spans(),
            metrics: &metrics,
        }
        .render();
        assert_eq!(
            text.matches("[7,\"read\",3,9,10,11,15,400,true]").count(),
            2
        );
        assert!(text.contains("\"name\":\"drv.crush.place\""));
        assert!(text.contains("\"client.lat_p99_us\":1.5"));
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(text.matches(open).count(), text.matches(close).count());
        }
    }
}
