//! The storage seam: every durable byte the workspace writes — snapshot
//! files and the commit write-ahead log — goes through [`Storage`], a
//! small virtual-filesystem trait, instead of calling `std::fs`
//! directly.
//!
//! Two implementations exist:
//!
//! * [`OsStorage`] — the real filesystem. `sync` maps to `fdatasync`
//!   (file contents reach the device; the WAL does not need a metadata
//!   flush per commit) and `sync_dir` to an `fsync` of the directory
//!   (a renamed file's directory entry reaches the device).
//! * [`FaultStorage`] — an in-memory filesystem for crash and fault
//!   testing. It counts every operation and can be armed to fail one
//!   operation with a typed [`io::ErrorKind`], persist only half of one
//!   write (a short/torn write), or **crash**: from operation `N` on,
//!   every call fails, and a later [`FaultStorage::reboot`] discards
//!   bytes that were never synced — exactly what a power loss does to a
//!   page cache.
//!
//! The durability model [`FaultStorage`] implements is deliberately the
//! *weakest* one our recovery code must survive: data reaches "disk"
//! only at `sync`; a crash keeps synced bytes, keeps an arbitrary
//! prefix of unsynced bytes (the reboot caller chooses how many, so a
//! test can sweep every torn-tail shape), and namespace operations
//! (create/rename/remove/truncate) are applied atomically. That last
//! simplification is safe because the real code always pairs a rename
//! with [`Storage::sync_dir`] — the atomic-rename guarantee is the one
//! the code actually relies on, and modelling a *lost* rename would
//! only re-test `atomic_write`'s dir-fsync line, not the recovery
//! logic.
//!
//! `ceg-core` re-exports this module as `ceg_core::vfs` (the dependency
//! arrow points graph ← core, and the snapshot/WAL codecs that consume
//! the seam live here in `ceg-graph`).

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::sync::{LockRank, OrderedMutex};

/// An open, writable file handle dispensed by a [`Storage`].
pub trait StorageFile: Send {
    /// Append the whole buffer (the handle is append-only: snapshot
    /// temp files and the WAL are both written strictly forward).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Flush written bytes to durable storage (`fdatasync` semantics:
    /// after `sync` returns, the data survives a crash).
    fn sync(&mut self) -> io::Result<()>;
}

/// The virtual filesystem the snapshot and WAL paths are written
/// against: open/read/write/fsync/rename plus the few namespace
/// operations recovery needs (truncate, remove, list).
pub trait Storage: Send + Sync {
    /// Read a whole file (the WAL: bounded by its rotation threshold and
    /// scanned as one buffer).
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Open a file for reading front to back: the reader and the file's
    /// length in bytes. Snapshots are restored through this — a file the
    /// size of the graph is never held whole — and the length lets the
    /// reader bound every length field it meets by the bytes that exist.
    fn open(&self, path: &Path) -> io::Result<(Box<dyn io::Read + Send>, u64)>;

    /// Create (truncating) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;

    /// Open a file for appending, creating it empty if missing.
    fn append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;

    /// Atomically rename `from` to `to` (replacing `to`).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Remove a file.
    fn remove(&self, path: &Path) -> io::Result<()>;

    /// Truncate a file to `len` bytes (recovery chops torn WAL tails).
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;

    /// Current length of a file in bytes.
    fn len(&self, path: &Path) -> io::Result<u64>;

    /// True if the path names an existing file.
    fn exists(&self, path: &Path) -> bool;

    /// File paths directly inside `dir` (no recursion, no directories).
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;

    /// Fsync the directory itself so renames/creates inside it are
    /// durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

// ---------------------------------------------------------------------
// OsStorage
// ---------------------------------------------------------------------

/// The real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct OsStorage;

struct OsFile(std::fs::File);

impl StorageFile for OsFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        use io::Write;
        self.0.write_all(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
}

impl Storage for OsStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn open(&self, path: &Path) -> io::Result<(Box<dyn io::Read + Send>, u64)> {
        let f = std::fs::File::open(path)?;
        let len = f.metadata()?.len();
        Ok((Box::new(f), len))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(Box::new(OsFile(std::fs::File::create(path)?)))
    }

    fn append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Box::new(OsFile(f)))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(len)?;
        f.sync_data()
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn exists(&self, path: &Path) -> bool {
        path.is_file()
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.path());
            }
        }
        out.sort();
        Ok(out)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        #[cfg(unix)]
        {
            std::fs::File::open(dir)?.sync_all()?;
        }
        #[cfg(not(unix))]
        let _ = dir;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// FaultStorage
// ---------------------------------------------------------------------

/// What [`FaultStorage`] is armed to do, set via
/// [`FaultStorage::set_plan`]. Operation indices are 0-based and count
/// every `Storage`/`StorageFile` call on that storage, in order.
#[derive(Debug, Default, Clone, Copy)]
pub struct FaultPlan {
    /// Fail operation `N` once with this [`io::ErrorKind`]; later
    /// operations proceed normally (a transient typed failure — e.g. a
    /// single `ENOSPC` or `EINTR`).
    pub fail_at: Option<(u64, io::ErrorKind)>,
    /// On a write at operation `N`, persist only the first half of the
    /// buffer and fail (a short write torn mid-buffer). One-shot.
    pub short_write_at: Option<u64>,
    /// From operation `N` on, every call fails — the process "crashed"
    /// mid-operation. If operation `N` itself is a write, half of its
    /// buffer lands (unsynced) first, so the crash can tear a record in
    /// two. Clear with [`FaultStorage::reboot`].
    pub crash_after: Option<u64>,
}

impl FaultPlan {
    /// Arm [`FaultPlan::fail_at`]. Pair with
    /// [`FaultStorage::op_count`] to target "the next operation".
    pub fn fail_at(mut self, op: u64, kind: io::ErrorKind) -> Self {
        self.fail_at = Some((op, kind));
        self
    }

    /// Arm [`FaultPlan::short_write_at`].
    pub fn short_write_at(mut self, op: u64) -> Self {
        self.short_write_at = Some(op);
        self
    }

    /// Arm [`FaultPlan::crash_after`].
    pub fn crash_after(mut self, op: u64) -> Self {
        self.crash_after = Some(op);
        self
    }
}

#[derive(Default, Clone)]
struct FaultFile {
    bytes: Vec<u8>,
    /// Prefix guaranteed to survive a crash (advanced by `sync`).
    synced: usize,
}

#[derive(Default)]
struct FaultInner {
    files: BTreeMap<PathBuf, FaultFile>,
    plan: FaultPlan,
    ops: u64,
    crashed: bool,
}

impl FaultInner {
    /// Account one operation and apply the armed plan. `writing` carries
    /// the buffer of a write op so crash/short-write can tear it.
    fn step(&mut self, writing: Option<(&PathBuf, &[u8])>) -> io::Result<()> {
        if self.crashed {
            return Err(io::Error::other("fault storage: crashed"));
        }
        let op = self.ops;
        self.ops += 1;
        if let Some(n) = self.plan.crash_after {
            if op >= n {
                self.crashed = true;
                if let Some((path, buf)) = writing {
                    let torn = &buf[..buf.len() / 2];
                    self.files
                        .entry(path.clone())
                        .or_default()
                        .bytes
                        .extend(torn);
                }
                return Err(io::Error::other("fault storage: crashed"));
            }
        }
        if let Some((n, kind)) = self.plan.fail_at {
            if op == n {
                return Err(io::Error::new(kind, "fault storage: injected failure"));
            }
        }
        if let Some(n) = self.plan.short_write_at {
            if op == n {
                if let Some((path, buf)) = writing {
                    let torn = &buf[..buf.len() / 2];
                    self.files
                        .entry(path.clone())
                        .or_default()
                        .bytes
                        .extend(torn);
                }
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "fault storage: short write",
                ));
            }
        }
        Ok(())
    }
}

/// In-memory fault-injecting [`Storage`]. Cheap to clone (shared
/// state): tests keep one handle to arm faults and inspect files while
/// the code under test holds another.
#[derive(Clone)]
pub struct FaultStorage {
    inner: Arc<OrderedMutex<FaultInner>>,
}

impl Default for FaultStorage {
    fn default() -> Self {
        // Rank `Wal`: the simulated device is the innermost lock — its
        // operations run under the durability mutex of a commit.
        FaultStorage {
            inner: Arc::new(OrderedMutex::new(LockRank::Wal, FaultInner::default())),
        }
    }
}

impl FaultStorage {
    /// An empty, fault-free in-memory filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm (or clear, with `FaultPlan::default()`) the fault plan.
    pub fn set_plan(&self, plan: FaultPlan) {
        self.inner.lock().plan = plan;
    }

    /// Operations performed so far — a crash-point sweep runs the
    /// workload once fault-free to learn the op count, then replays it
    /// with `crash_after` at every index below it.
    pub fn op_count(&self) -> u64 {
        self.inner.lock().ops
    }

    /// True once a `crash_after` point has tripped.
    pub fn crashed(&self) -> bool {
        self.inner.lock().crashed
    }

    /// Simulate the machine coming back up: for every file, bytes past
    /// the synced prefix survive only up to `keep_unsynced` of them
    /// (sweep `0`, `1`, and `usize::MAX` to model "page cache lost",
    /// "one stray sector", "everything happened to land"). Clears the
    /// crashed flag, the fault plan and the op counter.
    pub fn reboot(&self, keep_unsynced: usize) {
        let mut inner = self.inner.lock();
        for f in inner.files.values_mut() {
            let keep = f.synced + keep_unsynced.min(f.bytes.len() - f.synced);
            f.bytes.truncate(keep);
            f.synced = f.bytes.len();
        }
        inner.plan = FaultPlan::default();
        inner.ops = 0;
        inner.crashed = false;
    }

    /// Current contents of a file (tests inspect what "disk" holds).
    pub fn dump(&self, path: &Path) -> Option<Vec<u8>> {
        self.inner.lock().files.get(path).map(|f| f.bytes.clone())
    }

    /// Flip one bit of a stored file in place (bit-rot injection).
    /// Panics if the path or offset does not exist — a test bug.
    pub fn flip_bit(&self, path: &Path, byte: usize, bit: u8) {
        let mut inner = self.inner.lock();
        let f = inner.files.get_mut(path).expect("flip_bit: no such file");
        f.bytes[byte] ^= 1 << (bit & 7);
    }

    /// Replace a file's contents wholesale, marked fully synced (tests
    /// seed corrupt inputs directly).
    pub fn install(&self, path: &Path, bytes: Vec<u8>) {
        let mut inner = self.inner.lock();
        let synced = bytes.len();
        inner
            .files
            .insert(path.to_path_buf(), FaultFile { bytes, synced });
    }
}

struct FaultHandle {
    inner: Arc<OrderedMutex<FaultInner>>,
    path: PathBuf,
}

impl StorageFile for FaultHandle {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.lock();
        inner.step(Some((&self.path, buf)))?;
        match inner.files.get_mut(&self.path) {
            Some(f) => {
                f.bytes.extend_from_slice(buf);
                Ok(())
            }
            // The file was removed/renamed out from under the handle;
            // the real filesystem would keep writing to the inode, but
            // no code path does this — flag it loudly.
            None => Err(io::Error::other("fault storage: write to removed file")),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut inner = self.inner.lock();
        inner.step(None)?;
        if let Some(f) = inner.files.get_mut(&self.path) {
            f.synced = f.bytes.len();
        }
        Ok(())
    }
}

/// A streaming read of one file: every `read` call is an operation the
/// fault plan can fail, so a crash sweep covers each step of a restore.
struct FaultReader {
    inner: Arc<OrderedMutex<FaultInner>>,
    path: PathBuf,
    pos: usize,
}

impl io::Read for FaultReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut inner = self.inner.lock();
        inner.step(None)?;
        let file = inner
            .files
            .get(&self.path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fault storage: not found"))?;
        let rest = file.bytes.get(self.pos..).unwrap_or(&[]);
        let n = rest.len().min(buf.len());
        buf[..n].copy_from_slice(&rest[..n]);
        self.pos += n;
        Ok(n)
    }
}

impl Storage for FaultStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut inner = self.inner.lock();
        inner.step(None)?;
        inner
            .files
            .get(path)
            .map(|f| f.bytes.clone())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fault storage: not found"))
    }

    fn open(&self, path: &Path) -> io::Result<(Box<dyn io::Read + Send>, u64)> {
        let mut inner = self.inner.lock();
        inner.step(None)?;
        let len = inner
            .files
            .get(path)
            .map(|f| f.bytes.len() as u64)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fault storage: not found"))?;
        let reader = FaultReader {
            inner: self.inner.clone(),
            path: path.to_path_buf(),
            pos: 0,
        };
        Ok((Box::new(reader), len))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let mut inner = self.inner.lock();
        inner.step(None)?;
        inner.files.insert(path.to_path_buf(), FaultFile::default());
        Ok(Box::new(FaultHandle {
            inner: self.inner.clone(),
            path: path.to_path_buf(),
        }))
    }

    fn append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let mut inner = self.inner.lock();
        inner.step(None)?;
        inner.files.entry(path.to_path_buf()).or_default();
        Ok(Box::new(FaultHandle {
            inner: self.inner.clone(),
            path: path.to_path_buf(),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut inner = self.inner.lock();
        inner.step(None)?;
        match inner.files.remove(from) {
            Some(f) => {
                inner.files.insert(to.to_path_buf(), f);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                "fault storage: not found",
            )),
        }
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let mut inner = self.inner.lock();
        inner.step(None)?;
        inner
            .files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fault storage: not found"))
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut inner = self.inner.lock();
        inner.step(None)?;
        match inner.files.get_mut(path) {
            Some(f) => {
                f.bytes.truncate(len as usize);
                f.synced = f.synced.min(f.bytes.len());
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                "fault storage: not found",
            )),
        }
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        let mut inner = self.inner.lock();
        inner.step(None)?;
        inner
            .files
            .get(path)
            .map(|f| f.bytes.len() as u64)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fault storage: not found"))
    }

    fn exists(&self, path: &Path) -> bool {
        // Existence probes are not faultable ops: recovery uses them to
        // decide *which* path to take, and a probe that lies would test
        // a filesystem no OS exhibits.
        self.inner.lock().files.contains_key(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut inner = self.inner.lock();
        inner.step(None)?;
        Ok(inner
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .cloned()
            .collect())
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        self.inner.lock().step(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn fault_storage_roundtrips_files() {
        let fs = FaultStorage::new();
        let mut f = fs.create(&p("/d/a")).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync().unwrap();
        drop(f);
        assert_eq!(fs.read(&p("/d/a")).unwrap(), b"hello");
        assert_eq!(fs.len(&p("/d/a")).unwrap(), 5);
        let mut f = fs.append(&p("/d/a")).unwrap();
        f.write_all(b" world").unwrap();
        drop(f);
        assert_eq!(fs.read(&p("/d/a")).unwrap(), b"hello world");
        fs.rename(&p("/d/a"), &p("/d/b")).unwrap();
        assert!(!fs.exists(&p("/d/a")));
        assert_eq!(fs.read(&p("/d/b")).unwrap(), b"hello world");
        fs.truncate(&p("/d/b"), 5).unwrap();
        assert_eq!(fs.read(&p("/d/b")).unwrap(), b"hello");
        assert_eq!(fs.list(&p("/d")).unwrap(), vec![p("/d/b")]);
        fs.remove(&p("/d/b")).unwrap();
        assert_eq!(
            fs.read(&p("/d/b")).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
    }

    #[test]
    fn reboot_discards_unsynced_bytes() {
        let fs = FaultStorage::new();
        let mut f = fs.create(&p("/w")).unwrap();
        f.write_all(b"durable").unwrap();
        f.sync().unwrap();
        f.write_all(b" lost").unwrap(); // never synced
        drop(f);
        let fs2 = fs.clone();
        fs2.reboot(0);
        assert_eq!(fs.read(&p("/w")).unwrap(), b"durable");
    }

    #[test]
    fn reboot_can_keep_a_torn_unsynced_prefix() {
        let fs = FaultStorage::new();
        let mut f = fs.create(&p("/w")).unwrap();
        f.write_all(b"abc").unwrap();
        f.sync().unwrap();
        f.write_all(b"defgh").unwrap();
        drop(f);
        fs.reboot(2);
        assert_eq!(fs.read(&p("/w")).unwrap(), b"abcde");
    }

    #[test]
    fn fail_at_injects_one_typed_error_then_recovers() {
        let fs = FaultStorage::new();
        fs.set_plan(FaultPlan {
            fail_at: Some((1, io::ErrorKind::StorageFull)),
            ..Default::default()
        });
        let mut f = fs.create(&p("/w")).unwrap(); // op 0
        let err = f.write_all(b"x").unwrap_err(); // op 1: injected
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        f.write_all(b"y").unwrap(); // op 2: fine again
        assert_eq!(fs.dump(&p("/w")).unwrap(), b"y");
    }

    #[test]
    fn short_write_persists_half_the_buffer() {
        let fs = FaultStorage::new();
        fs.set_plan(FaultPlan {
            short_write_at: Some(1),
            ..Default::default()
        });
        let mut f = fs.create(&p("/w")).unwrap(); // op 0
        let err = f.write_all(b"abcdef").unwrap_err(); // op 1: torn
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(fs.dump(&p("/w")).unwrap(), b"abc");
    }

    #[test]
    fn crash_tears_the_tripping_write_and_kills_the_storage() {
        let fs = FaultStorage::new();
        fs.set_plan(FaultPlan {
            crash_after: Some(2),
            ..Default::default()
        });
        let mut f = fs.create(&p("/w")).unwrap(); // op 0
        f.write_all(b"keep").unwrap(); // op 1
        f.sync().unwrap_err(); // op 2: crash trips (sync fails, nothing synced)
        assert!(fs.crashed());
        assert!(fs.read(&p("/w")).is_err(), "storage is dead after crash");
        // Reboot with no unsynced survivors: the file exists (creation
        // was a namespace op) but the never-synced bytes are gone.
        fs.reboot(0);
        assert_eq!(fs.read(&p("/w")).unwrap(), b"");
    }

    #[test]
    fn crash_on_a_write_lands_half_of_it_unsynced() {
        let fs = FaultStorage::new();
        let mut f = fs.create(&p("/w")).unwrap();
        f.write_all(b"old!").unwrap();
        f.sync().unwrap();
        fs.set_plan(FaultPlan {
            crash_after: Some(3),
            ..Default::default()
        });
        f.write_all(b"abcdef").unwrap_err(); // op 3: crash mid-write
        fs.reboot(usize::MAX); // everything that landed survives
        assert_eq!(fs.read(&p("/w")).unwrap(), b"old!abc");
        fs.reboot(0);
        assert_eq!(
            fs.read(&p("/w")).unwrap(),
            b"old!abc",
            "already synced by first reboot"
        );
    }

    #[test]
    fn flip_bit_corrupts_in_place() {
        let fs = FaultStorage::new();
        fs.install(&p("/w"), b"\x00".to_vec());
        fs.flip_bit(&p("/w"), 0, 3);
        assert_eq!(fs.read(&p("/w")).unwrap(), b"\x08");
    }

    #[test]
    fn os_storage_roundtrips_and_lists() {
        let dir = std::env::temp_dir().join(format!("ceg-vfs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fs = OsStorage;
        let path = dir.join("a.bin");
        let mut f = fs.create(&path).unwrap();
        f.write_all(b"abc").unwrap();
        f.sync().unwrap();
        drop(f);
        let mut f = fs.append(&path).unwrap();
        f.write_all(b"def").unwrap();
        drop(f);
        assert_eq!(fs.read(&path).unwrap(), b"abcdef");
        fs.truncate(&path, 4).unwrap();
        assert_eq!(fs.len(&path).unwrap(), 4);
        let renamed = dir.join("b.bin");
        fs.rename(&path, &renamed).unwrap();
        fs.sync_dir(&dir).unwrap();
        assert!(fs.exists(&renamed) && !fs.exists(&path));
        assert_eq!(fs.list(&dir).unwrap(), vec![renamed.clone()]);
        fs.remove(&renamed).unwrap();
        let _ = std::fs::remove_dir(&dir);
    }
}
