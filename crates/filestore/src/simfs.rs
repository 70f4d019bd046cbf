//! The simulated local filesystem under the filestore.
//!
//! Stores real bytes (so end-to-end data integrity is testable through the
//! whole stack) while accounting **syscalls** — the paper removed redundant
//! `open`/`stat`/`write`/`setxattr` calls per transaction (§3.4: "various
//! types of system calls such as (open, write, stat) are repeated to the
//! same file") — and charging data-plane device I/O to the backing
//! [`BlockDev`].
//!
//! Each syscall costs a small fixed CPU time (kernel crossing), modeled by
//! a short deterministic delay; data reads/writes additionally charge the
//! device. Per-type syscall counters let benchmark harnesses print the
//! syscall-reduction table.
//!
//! A call that charges the device is one step of its caller's chain: it
//! takes the chain's instant (`at`), plans its device requests one after
//! the other from there and moves `at` to the last completion — the time a
//! thread issuing the same syscalls would have slept through, with no
//! thread sleeping. [`SimFs::read`] plans from now and hands the instant
//! back with the bytes.

use afc_common::metrics::{Counter, Metrics};
use afc_common::{wait_until, AfcError, Result, WaitClass};
use afc_device::{BlockDev, IoKind, IoReq, StreamId};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-object heat threshold: an object rewritten this many times is
/// classed hot and its data writes move to the [`StreamId::DataHot`]
/// stream, keeping frequently-invalidated pages out of cold erase blocks.
const HOT_WRITE_THRESHOLD: u64 = 4;

/// Extent granule for object data placement. Objects get stable device
/// extents in these units, so rewriting an object page hits the *same*
/// device offset and invalidates its predecessor in the device's FTL —
/// an append-cursor charge model would make every write look
/// freshly-allocated and erase the hot/cold lifetime structure the
/// multi-stream FTL exists to exploit. 64 KiB matches the RAID-0 stripe
/// unit, so one extent lands wholly on one member SSD.
const EXTENT: u64 = 64 * 1024;

/// Map a logical byte range onto the node's extents: one `(device
/// offset, len)` span per touched [`EXTENT`] chunk. Callers must have
/// extended `extents` to cover the range first.
fn extent_spans(extents: &[u64], offset: u64, len: u64) -> Vec<(u64, u32)> {
    let mut out = Vec::new();
    let mut pos = offset;
    let end = offset + len;
    while pos < end {
        let intra = pos % EXTENT;
        let n = (EXTENT - intra).min(end - pos);
        out.push((extents[(pos / EXTENT) as usize] + intra, n as u32));
        pos += n;
    }
    out
}

/// Cost of one kernel crossing. Real syscalls are ~0.3–1 µs; on this
/// simulator's coarse sleep clock we fold syscall cost into counters only
/// and charge no time below `SYSCALL_BATCH` — the *device* I/O dominates,
/// as it does on the paper's testbed. The counters still expose the
/// redundancy the LWT removes.
const SYSCALL_COST: Duration = Duration::ZERO;

struct FileNode {
    data: Vec<u8>,
    xattrs: HashMap<String, Bytes>,
    alloc_hint: bool,
    /// Lightweight heat tracker: data writes observed on this object.
    writes: u64,
    /// Device base offset of each [`EXTENT`]-sized data chunk.
    extents: Vec<u64>,
    /// Stable inode/xattr block on the device (metadata writes overwrite
    /// in place, like a real filesystem journals the same inode).
    meta_block: u64,
}

/// Bytes read from a file, handed over once the device read is planned,
/// and the instant the modeled device finishes reading them. The caller
/// decides who waits for that instant: [`Self::wait`] for a blocking read,
/// or a message stamped to leave then.
#[derive(Debug)]
pub struct PlannedRead {
    /// The bytes.
    pub data: Vec<u8>,
    /// When the device read completes.
    pub done: Instant,
    class: WaitClass,
}

impl PlannedRead {
    /// Wait for the device, then take the bytes.
    pub fn wait(self) -> Vec<u8> {
        wait_until(self.class, self.done);
        self.data
    }
}

/// The simulated filesystem: named files + xattrs over a device.
pub struct SimFs {
    dev: Arc<dyn BlockDev>,
    files: RwLock<HashMap<String, Arc<Mutex<FileNode>>>>,
    // Per-type syscall counts.
    pub(crate) sys_open: Counter,
    pub(crate) sys_stat: Counter,
    pub(crate) sys_write: Counter,
    pub(crate) sys_read: Counter,
    pub(crate) sys_ftruncate: Counter,
    pub(crate) sys_setxattr: Counter,
    pub(crate) sys_getxattr: Counter,
    pub(crate) sys_fallocate: Counter,
    pub(crate) sys_unlink: Counter,
    /// Bump allocator for extents and inode blocks (wraps at capacity).
    cursor: std::sync::atomic::AtomicU64,
}

impl SimFs {
    /// Create a filesystem over `dev`.
    pub fn new(dev: Arc<dyn BlockDev>) -> Self {
        SimFs {
            dev,
            files: RwLock::new(HashMap::new()),
            sys_open: Counter::new(),
            sys_stat: Counter::new(),
            sys_write: Counter::new(),
            sys_read: Counter::new(),
            sys_ftruncate: Counter::new(),
            sys_setxattr: Counter::new(),
            sys_getxattr: Counter::new(),
            sys_fallocate: Counter::new(),
            sys_unlink: Counter::new(),
            cursor: Default::default(),
        }
    }

    /// Register the per-type syscall counters under `<prefix>.sys.<call>`
    /// (`open`, `stat`, `write`, `read`, `ftruncate`, `setxattr`,
    /// `getxattr`, `fallocate`, `unlink`).
    pub fn register_into(&self, m: &Metrics, prefix: &str) {
        let fields: [(&str, &Counter); 9] = [
            ("open", &self.sys_open),
            ("stat", &self.sys_stat),
            ("write", &self.sys_write),
            ("read", &self.sys_read),
            ("ftruncate", &self.sys_ftruncate),
            ("setxattr", &self.sys_setxattr),
            ("getxattr", &self.sys_getxattr),
            ("fallocate", &self.sys_fallocate),
            ("unlink", &self.sys_unlink),
        ];
        for (name, cell) in fields {
            m.register_counter(format!("{prefix}.sys.{name}"), cell);
        }
    }

    fn syscall(&self, calls: &Counter) {
        calls.inc();
        if SYSCALL_COST > Duration::ZERO {
            afc_common::sleep_for(SYSCALL_COST);
        }
    }

    fn node(&self, path: &str) -> Result<Arc<Mutex<FileNode>>> {
        self.files
            .read()
            .get(path)
            .cloned()
            .ok_or_else(|| AfcError::NotFound(format!("file {path}")))
    }

    /// `open(O_CREAT)`: ensure the file exists. Counted per call — the
    /// community transaction path re-opens per op; the LWT opens once.
    pub fn open_create(&self, path: &str) -> Result<()> {
        self.syscall(&self.sys_open);
        let mut files = self.files.write();
        files.entry(path.to_string()).or_insert_with(|| {
            Arc::new(Mutex::new(FileNode {
                data: Vec::new(),
                xattrs: HashMap::new(),
                alloc_hint: false,
                writes: 0,
                extents: Vec::new(),
                meta_block: self.alloc(4096),
            }))
        });
        Ok(())
    }

    /// `stat`: file size, or `NotFound`.
    pub fn stat(&self, path: &str) -> Result<u64> {
        self.syscall(&self.sys_stat);
        Ok(self.node(path)?.lock().data.len() as u64)
    }

    /// Whether the file exists (no syscall charge; directory-cache check).
    pub fn exists(&self, path: &str) -> bool {
        self.files.read().contains_key(path)
    }

    /// `pwrite`: store bytes and charge the device write from `at`, tagged
    /// hot or cold by the object's write count (per-object heat tracker).
    pub fn write(&self, path: &str, offset: u64, data: &[u8], at: &mut Instant) -> Result<()> {
        self.syscall(&self.sys_write);
        if data.is_empty() {
            return Err(AfcError::InvalidArgument("zero-length write".into()));
        }
        let node = self.node(path)?;
        let (stream, spans) = {
            let mut n = node.lock();
            let end = offset as usize + data.len();
            if n.data.len() < end {
                n.data.resize(end, 0);
            }
            n.data[offset as usize..end].copy_from_slice(data);
            n.writes += 1;
            let stream = if n.writes >= HOT_WRITE_THRESHOLD {
                StreamId::DataHot
            } else {
                StreamId::DataCold
            };
            self.ensure_extents(&mut n, offset + data.len() as u64);
            (stream, extent_spans(&n.extents, offset, data.len() as u64))
        };
        for (off, len) in spans {
            self.charge(IoKind::Write, off, len, stream, at)?;
        }
        Ok(())
    }

    /// `pread`: fetch bytes and plan the device read, without waiting for
    /// it. Reads past EOF return the available prefix (zero-filled holes
    /// included).
    pub fn read(&self, path: &str, offset: u64, len: usize) -> Result<PlannedRead> {
        self.syscall(&self.sys_read);
        let node = self.node(path)?;
        let (data, spans) = {
            let mut n = node.lock();
            let start = (offset as usize).min(n.data.len());
            let end = (offset as usize + len).min(n.data.len());
            let out = n.data[start..end].to_vec();
            self.ensure_extents(&mut n, offset + len as u64);
            (out, extent_spans(&n.extents, offset, len as u64))
        };
        let mut done = Instant::now();
        for (off, l) in spans {
            done = done.max(self.dev.plan(IoReq::read(off, l))?.completion);
        }
        Ok(PlannedRead {
            data,
            done,
            class: self.dev.wait_class(),
        })
    }

    /// `ftruncate`.
    pub fn truncate(&self, path: &str, size: u64) -> Result<()> {
        self.syscall(&self.sys_ftruncate);
        let node = self.node(path)?;
        node.lock().data.resize(size as usize, 0);
        Ok(())
    }

    /// `setxattr` (one syscall per attribute, as the community path does).
    /// Charges a small device write from `at`: xattr updates dirty the
    /// inode and hit the filesystem journal — real metadata write traffic
    /// on the flash.
    pub fn setxattr(&self, path: &str, name: &str, value: Bytes, at: &mut Instant) -> Result<()> {
        self.syscall(&self.sys_setxattr);
        let node = self.node(path)?;
        let off = {
            let mut n = node.lock();
            n.xattrs.insert(name.to_string(), value);
            n.meta_block
        };
        self.charge(IoKind::Write, off, 4096, StreamId::Meta, at)
    }

    /// `getxattr`: charges a small device read from `at` (inode/xattr block
    /// fetch) — the §3.4 metadata-read traffic (~15 MB/s per disk during
    /// writes).
    pub fn getxattr(&self, path: &str, name: &str, at: &mut Instant) -> Result<Option<Bytes>> {
        self.syscall(&self.sys_getxattr);
        let node = self.node(path)?;
        let (v, off) = {
            let n = node.lock();
            (n.xattrs.get(name).cloned(), n.meta_block)
        };
        self.charge(IoKind::Read, off, 4096, StreamId::Meta, at)?;
        Ok(v)
    }

    /// `fallocate(FALLOC_FL_KEEP_SIZE)` — the `set-alloc-hint` the LWT
    /// skips for small random writes. Charges a small metadata write from
    /// `at`.
    pub fn fallocate_hint(&self, path: &str, at: &mut Instant) -> Result<()> {
        self.syscall(&self.sys_fallocate);
        let node = self.node(path)?;
        let off = {
            let mut n = node.lock();
            n.alloc_hint = true;
            n.meta_block
        };
        self.charge(IoKind::Write, off, 4096, StreamId::Meta, at)
    }

    /// `unlink`.
    pub fn unlink(&self, path: &str) -> Result<()> {
        self.syscall(&self.sys_unlink);
        self.files
            .write()
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| AfcError::NotFound(format!("file {path}")))
    }

    /// All file paths (directory listing; used by recovery/scrub).
    pub fn list(&self) -> Vec<String> {
        let mut v: Vec<String> = self.files.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Whether the alloc hint was recorded (test hook).
    pub fn alloc_hint(&self, path: &str) -> Result<bool> {
        Ok(self.node(path)?.lock().alloc_hint)
    }

    /// Bump-allocate `len` bytes of device address space (extents, inode
    /// blocks). Wraps at capacity; allocation granularity keeps alignment.
    fn alloc(&self, len: u64) -> u64 {
        use std::sync::atomic::Ordering::Relaxed;
        let cap = self.dev.capacity().max(len);
        self.cursor.fetch_add(len, Relaxed) % cap.saturating_sub(len).max(1)
    }

    /// Grow the node's extent list to cover logical bytes `[0, end)`.
    fn ensure_extents(&self, n: &mut FileNode, end: u64) {
        let need = end.div_ceil(EXTENT) as usize;
        while n.extents.len() < need {
            n.extents.push(self.alloc(EXTENT));
        }
    }

    /// Plan one device I/O at a stable offset from `at`; `at` moves to its
    /// completion.
    fn charge(
        &self,
        kind: IoKind,
        offset: u64,
        len: u32,
        stream: StreamId,
        at: &mut Instant,
    ) -> Result<()> {
        let req = IoReq {
            kind,
            offset,
            len,
            stream,
        };
        *at = self.dev.plan_at(req, *at)?.completion;
        Ok(())
    }

    /// The ledger row a caller that waits out a chain books it to.
    pub fn wait_class(&self) -> WaitClass {
        self.dev.wait_class()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afc_device::{Nvram, NvramConfig};

    fn fs() -> SimFs {
        fs_with_metrics().0
    }

    /// A filesystem whose device is registered as `osd0.data.*`.
    fn fs_with_metrics() -> (SimFs, Metrics) {
        let dev = Nvram::new(NvramConfig::pmc_8g());
        let m = Metrics::new();
        dev.register_metrics(&m, "osd0.data");
        (SimFs::new(Arc::new(dev)), m)
    }

    #[test]
    fn write_read_roundtrip_with_holes() {
        let fs = fs();
        fs.open_create("obj1").unwrap();
        fs.write("obj1", 100, b"hello", &mut Instant::now())
            .unwrap();
        assert_eq!(fs.read("obj1", 100, 5).unwrap().data, b"hello");
        assert_eq!(fs.read("obj1", 0, 4).unwrap().data, vec![0u8; 4]);
        // Read past EOF returns prefix.
        assert_eq!(fs.read("obj1", 103, 10).unwrap().data, b"lo");
        assert_eq!(fs.stat("obj1").unwrap(), 105);
    }

    #[test]
    fn missing_file_errors() {
        let fs = fs();
        assert!(fs.read("nope", 0, 1).is_err());
        assert!(fs.write("nope", 0, b"x", &mut Instant::now()).is_err());
        assert!(fs.stat("nope").is_err());
        assert!(fs.unlink("nope").is_err());
        assert!(!fs.exists("nope"));
    }

    #[test]
    fn xattrs_roundtrip() {
        let fs = fs();
        fs.open_create("o").unwrap();
        fs.setxattr("o", "_", Bytes::from_static(b"meta"), &mut Instant::now())
            .unwrap();
        assert_eq!(
            fs.getxattr("o", "_", &mut Instant::now())
                .unwrap()
                .unwrap()
                .as_ref(),
            b"meta"
        );
        assert!(fs
            .getxattr("o", "missing", &mut Instant::now())
            .unwrap()
            .is_none());
    }

    #[test]
    fn syscalls_counted_per_type() {
        let fs = fs();
        fs.open_create("o").unwrap();
        fs.open_create("o").unwrap(); // re-open counts again
        fs.write("o", 0, b"abc", &mut Instant::now()).unwrap();
        fs.stat("o").unwrap();
        fs.setxattr("o", "a", Bytes::new(), &mut Instant::now())
            .unwrap();
        fs.fallocate_hint("o", &mut Instant::now()).unwrap();
        assert_eq!(fs.sys_open.get(), 2);
        assert_eq!(fs.sys_write.get(), 1);
        assert_eq!(fs.sys_stat.get(), 1);
        assert_eq!(fs.sys_setxattr.get(), 1);
        assert_eq!(fs.sys_fallocate.get(), 1);
        assert!(fs.alloc_hint("o").unwrap());
    }

    #[test]
    fn device_charged_for_data_and_xattr_reads() {
        let (fs, m) = fs_with_metrics();
        fs.open_create("o").unwrap();
        fs.write("o", 0, &vec![1u8; 8192], &mut Instant::now())
            .unwrap();
        fs.read("o", 0, 4096).unwrap();
        fs.getxattr("o", "x", &mut Instant::now()).unwrap();
        fs.setxattr("o", "x", Bytes::new(), &mut Instant::now())
            .unwrap();
        let s = m.snapshot();
        // data + xattr/inode write
        assert_eq!(s.counter("osd0.data.bytes_written"), Some(8192 + 4096));
        assert_eq!(s.counter("osd0.data.bytes_read"), Some(4096 + 4096));
    }

    #[test]
    fn heat_tracker_promotes_rewritten_objects() {
        let (fs, m) = fs_with_metrics();
        let bytes = |stream: &str| {
            m.snapshot()
                .counter(&format!("osd0.data.stream.{stream}.bytes"))
                .unwrap()
        };
        fs.open_create("hot").unwrap();
        // First writes are cold; from the threshold on, writes tag hot.
        for _ in 0..HOT_WRITE_THRESHOLD + 2 {
            fs.write("hot", 0, &[7u8; 4096], &mut Instant::now())
                .unwrap();
        }
        assert_eq!(bytes("cold"), (HOT_WRITE_THRESHOLD - 1) * 4096);
        assert_eq!(bytes("hot"), 3 * 4096);
        // Metadata writes go to the meta stream, not data streams.
        fs.setxattr("hot", "_", Bytes::new(), &mut Instant::now())
            .unwrap();
        assert_eq!(bytes("meta"), 4096);
        let streams: u64 = StreamId::ALL.iter().map(|s| bytes(s.metric_name())).sum();
        let written = m.snapshot().counter("osd0.data.bytes_written");
        assert_eq!(Some(streams), written);
    }

    #[test]
    fn truncate_and_unlink() {
        let fs = fs();
        fs.open_create("o").unwrap();
        fs.write("o", 0, &[1, 2, 3, 4], &mut Instant::now())
            .unwrap();
        fs.truncate("o", 2).unwrap();
        assert_eq!(fs.stat("o").unwrap(), 2);
        fs.unlink("o").unwrap();
        assert!(!fs.exists("o"));
    }

    #[test]
    fn list_is_sorted() {
        let fs = fs();
        for n in ["b", "a", "c"] {
            fs.open_create(n).unwrap();
        }
        assert_eq!(fs.list(), vec!["a", "b", "c"]);
    }

    #[test]
    fn concurrent_writers_to_distinct_files() {
        let fs = Arc::new(fs());
        std::thread::scope(|s| {
            for t in 0..4 {
                let fs = Arc::clone(&fs);
                s.spawn(move || {
                    let path = format!("f{t}");
                    fs.open_create(&path).unwrap();
                    for i in 0..50u64 {
                        fs.write(&path, i * 8, &i.to_le_bytes(), &mut Instant::now())
                            .unwrap();
                    }
                });
            }
        });
        for t in 0..4 {
            assert_eq!(fs.stat(&format!("f{t}")).unwrap(), 400);
        }
    }
}
