//! Injectable filesystem facade: the storage fault domain.
//!
//! Every WAL/snapshot/manifest write path in this crate goes through a
//! [`Vfs`] handle instead of calling `std::fs` directly (enforced by
//! `disallowed-methods` in this crate's `clippy.toml`). Production code
//! uses [`RealVfs`], which delegates 1:1 to the OS — no behavior change,
//! no extra copies.
//! Tests, chaos drills, and benches substitute [`FaultVfs`], which wraps
//! a real filesystem but injects deterministic, seeded I/O faults from an
//! [`IoFaultPlan`]: a failed `fsync`, ENOSPC after a byte budget, a torn
//! (partial) write, `EIO` on read, or write latency.
//!
//! The point is *exercising the error paths that real disks produce*:
//! callers above this layer (the WAL's rollback-on-failed-sync, the
//! snapshot temp+rename protocol, `her-serve`'s health state machine)
//! are all driven by the `io::Error`s this layer returns, so a fault
//! plan lets a test walk the server through ENOSPC → degraded →
//! self-heal without a real broken disk.

use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An open file handle from a [`Vfs`]. Only the operations the store
/// actually performs — keeping the surface small keeps `FaultVfs`
/// honest (every byte to disk passes a fault check).
pub trait VfsFile: Send {
    /// Writes the whole buffer (may fail part-way: a torn write).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Pushes buffered bytes to the OS.
    fn flush(&mut self) -> io::Result<()>;
    /// Forces file *data* to stable storage (`fdatasync`).
    fn sync_data(&mut self) -> io::Result<()>;
    /// Forces data and metadata to stable storage (`fsync`).
    fn sync_all(&mut self) -> io::Result<()>;
    /// Truncates (or extends) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
}

/// The filesystem operations the durability layer performs. Object-safe
/// so stores hold an `Arc<dyn Vfs>` and tests can substitute faults.
pub trait Vfs: Send + Sync {
    /// Reads the entire file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Opens `path` for appending, creating it if absent (read access
    /// retained for recovery scans).
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Creates (truncating) `path` for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Atomically renames `from` over `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes one file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Recursively creates a directory.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// File names (not paths) present in a directory.
    fn read_dir_names(&self, path: &Path) -> io::Result<Vec<String>>;
    /// Best-effort directory fsync so a completed rename survives power
    /// loss. Failures degrade durability, not correctness — infallible.
    fn sync_dir(&self, path: &Path);

    /// Reads the entire file as UTF-8.
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        let buf = self.read(path)?;
        String::from_utf8(buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// The production VFS: a transparent 1:1 delegation to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealVfs;

/// A fresh `Arc<dyn Vfs>` over the real filesystem — the default for
/// every store constructor that does not take an explicit VFS.
pub fn real() -> Arc<dyn Vfs> {
    Arc::new(RealVfs)
}

// The facade's own implementation is the one sanctioned home for direct
// std::fs writes in this crate (`disallowed-methods` in clippy.toml).
impl Vfs for RealVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    #[allow(clippy::disallowed_methods, reason = "RealVfs is the facade's backend")]
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let f = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        Ok(Box::new(RealFile(f)))
    }

    #[allow(clippy::disallowed_methods, reason = "RealVfs is the facade's backend")]
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let f = std::fs::File::create(path)?;
        Ok(Box::new(RealFile(f)))
    }

    #[allow(clippy::disallowed_methods, reason = "RealVfs is the facade's backend")]
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    #[allow(clippy::disallowed_methods, reason = "RealVfs is the facade's backend")]
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    #[allow(clippy::disallowed_methods, reason = "RealVfs is the facade's backend")]
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn read_dir_names(&self, path: &Path) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(path)? {
            out.push(entry?.file_name().to_string_lossy().into_owned());
        }
        Ok(out)
    }

    fn sync_dir(&self, path: &Path) {
        if let Ok(d) = std::fs::File::open(path) {
            let _ = d.sync_all();
        }
    }
}

struct RealFile(std::fs::File);

impl VfsFile for RealFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
}

/// A deterministic, seeded I/O fault schedule. All fields are counts or
/// thresholds; `0` disables a fault. Counters are global across every
/// file the [`FaultVfs`] touches, so a schedule written against a known
/// call sequence (e.g. "the WAL header sync is fsync #1") is exact.
#[derive(Debug, Clone, Copy)]
pub struct IoFaultPlan {
    /// Seed for the per-read EIO coin flips.
    pub seed: u64,
    /// First fsync call (1-based) that fails with `EIO`. `0` disables.
    pub fail_fsync_from: u64,
    /// How many consecutive fsyncs fail starting at `fail_fsync_from`
    /// (`u64::MAX` = forever). The window models a transient device
    /// error that clears — the self-heal drills rely on it.
    pub fail_fsync_count: u64,
    /// Total written-byte budget; once exceeded every write fails with
    /// an injected ENOSPC. `0` disables.
    pub enospc_after_bytes: u64,
    /// Write call (1-based) that lands only its first half then fails —
    /// a torn write. `0` disables.
    pub torn_write_at: u64,
    /// Fail roughly 1-in-N reads with `EIO` (seeded). `0` disables.
    pub eio_read_1_in: u64,
    /// Sleep this long before every write — a slow device.
    pub delay_write_ms: u64,
}

impl Default for IoFaultPlan {
    fn default() -> Self {
        IoFaultPlan {
            seed: 1,
            fail_fsync_from: 0,
            fail_fsync_count: u64::MAX,
            enospc_after_bytes: 0,
            torn_write_at: 0,
            eio_read_1_in: 0,
            delay_write_ms: 0,
        }
    }
}

/// What a [`FaultVfs`] has counted so far: real traffic and injected
/// failures. Snapshot semantics (loads are `Relaxed`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoFaultCounts {
    /// fsync calls observed.
    pub fsyncs: u64,
    /// write calls observed.
    pub writes: u64,
    /// read calls observed.
    pub reads: u64,
    /// Bytes successfully written.
    pub bytes_written: u64,
    /// Injected fsync failures.
    pub fsync_failures: u64,
    /// Injected write failures (torn + ENOSPC).
    pub write_failures: u64,
    /// Injected read failures.
    pub read_failures: u64,
    /// Injected write delays.
    pub delays: u64,
}

/// Mutable plan + counters shared by a [`FaultVfs`], its open files, and
/// any [`FaultHandle`]s. Plain atomics: the plan is only u64 knobs, so
/// no lock rank is needed and readers never block writers.
struct FaultState {
    fail_fsync_from: AtomicU64,
    fail_fsync_count: AtomicU64,
    enospc_after_bytes: AtomicU64,
    torn_write_at: AtomicU64,
    eio_read_1_in: AtomicU64,
    delay_write_ms: AtomicU64,
    rng: AtomicU64,
    fsyncs: AtomicU64,
    writes: AtomicU64,
    reads: AtomicU64,
    bytes_written: AtomicU64,
    fsync_failures: AtomicU64,
    write_failures: AtomicU64,
    read_failures: AtomicU64,
    delays: AtomicU64,
    obs: Option<her_obs::Obs>,
}

impl FaultState {
    fn new(plan: IoFaultPlan, obs: Option<her_obs::Obs>) -> Self {
        FaultState {
            fail_fsync_from: AtomicU64::new(plan.fail_fsync_from),
            fail_fsync_count: AtomicU64::new(plan.fail_fsync_count),
            enospc_after_bytes: AtomicU64::new(plan.enospc_after_bytes),
            torn_write_at: AtomicU64::new(plan.torn_write_at),
            eio_read_1_in: AtomicU64::new(plan.eio_read_1_in),
            delay_write_ms: AtomicU64::new(plan.delay_write_ms),
            rng: AtomicU64::new(plan.seed.max(1)),
            fsyncs: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            fsync_failures: AtomicU64::new(0),
            write_failures: AtomicU64::new(0),
            read_failures: AtomicU64::new(0),
            delays: AtomicU64::new(0),
            obs,
        }
    }

    fn bump(&self, counter: &AtomicU64, metric: &'static str) {
        counter.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.registry.counter(metric).inc();
        }
    }

    /// xorshift64* step — deterministic across platforms.
    fn next_rand(&self) -> u64 {
        let mut x = self.rng.load(Ordering::Relaxed);
        loop {
            let mut y = x;
            y ^= y << 13;
            y ^= y >> 7;
            y ^= y << 17;
            match self
                .rng
                .compare_exchange_weak(x, y, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return y.wrapping_mul(0x2545_F491_4F6C_DD1D),
                Err(cur) => x = cur,
            }
        }
    }

    fn check_read(&self, path: &Path) -> io::Result<()> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        let one_in = self.eio_read_1_in.load(Ordering::Relaxed);
        if one_in > 0 && self.next_rand().is_multiple_of(one_in) {
            self.bump(&self.read_failures, "store.iofault.read_failures");
            return Err(injected(format!("injected EIO reading {}", path.display())));
        }
        Ok(())
    }

    fn check_fsync(&self, path: &Path) -> io::Result<()> {
        let n = self.fsyncs.fetch_add(1, Ordering::Relaxed) + 1;
        let from = self.fail_fsync_from.load(Ordering::Relaxed);
        let count = self.fail_fsync_count.load(Ordering::Relaxed);
        if from > 0 && n >= from && n.saturating_sub(from) < count {
            self.bump(&self.fsync_failures, "store.iofault.fsync_failures");
            return Err(injected(format!(
                "injected fsync failure #{n} on {}",
                path.display()
            )));
        }
        Ok(())
    }

    /// Applies write-side faults for a `len`-byte write. Returns how many
    /// bytes the fault allows through (`len` when no fault fires) or the
    /// injected error.
    fn check_write(&self, path: &Path, len: usize) -> io::Result<usize> {
        let delay = self.delay_write_ms.load(Ordering::Relaxed);
        if delay > 0 {
            self.bump(&self.delays, "store.iofault.delays");
            std::thread::sleep(std::time::Duration::from_millis(delay));
        }
        let n = self.writes.fetch_add(1, Ordering::Relaxed) + 1;
        let torn_at = self.torn_write_at.load(Ordering::Relaxed);
        if torn_at > 0 && n == torn_at {
            self.bump(&self.write_failures, "store.iofault.write_failures");
            // The caller is told to land only the first half; the error
            // is reported by the file wrapper after the partial write.
            return Ok(len / 2);
        }
        let budget = self.enospc_after_bytes.load(Ordering::Relaxed);
        if budget > 0 && self.bytes_written.load(Ordering::Relaxed) + len as u64 > budget {
            self.bump(&self.write_failures, "store.iofault.write_failures");
            return Err(injected(format!(
                "injected ENOSPC (budget {budget} bytes) writing {}",
                path.display()
            )));
        }
        Ok(len)
    }
}

fn injected(message: String) -> io::Error {
    io::Error::other(message)
}

/// A [`Vfs`] that wraps another (by default [`RealVfs`]) and injects the
/// faults scheduled in an [`IoFaultPlan`]. Cloning shares the plan and
/// counters, as do all files it opens; a [`FaultHandle`] flips faults at
/// runtime (e.g. a drill healing the disk mid-test).
#[derive(Clone)]
pub struct FaultVfs {
    inner: Arc<dyn Vfs>,
    state: Arc<FaultState>,
}

impl FaultVfs {
    /// A fault VFS over the real filesystem.
    pub fn new(plan: IoFaultPlan) -> Self {
        Self::over(real(), plan, None)
    }

    /// A fault VFS over the real filesystem, counting injected faults
    /// into `store.iofault.*`.
    pub fn with_obs(plan: IoFaultPlan, obs: her_obs::Obs) -> Self {
        Self::over(real(), plan, Some(obs))
    }

    /// A fault VFS over an arbitrary inner VFS.
    pub fn over(inner: Arc<dyn Vfs>, plan: IoFaultPlan, obs: Option<her_obs::Obs>) -> Self {
        FaultVfs {
            inner,
            state: Arc::new(FaultState::new(plan, obs)),
        }
    }

    /// A control handle for flipping faults and reading counters while
    /// the VFS is in use elsewhere.
    pub fn handle(&self) -> FaultHandle {
        FaultHandle {
            state: Arc::clone(&self.state),
        }
    }
}

/// Runtime control over a live [`FaultVfs`].
#[derive(Clone)]
pub struct FaultHandle {
    state: Arc<FaultState>,
}

impl FaultHandle {
    /// Clears every scheduled fault — the disk is healthy again.
    /// Counters are preserved.
    pub fn heal(&self) {
        let s = &self.state;
        s.fail_fsync_from.store(0, Ordering::Relaxed);
        s.enospc_after_bytes.store(0, Ordering::Relaxed);
        s.torn_write_at.store(0, Ordering::Relaxed);
        s.eio_read_1_in.store(0, Ordering::Relaxed);
        s.delay_write_ms.store(0, Ordering::Relaxed);
    }

    /// Replaces the schedule (counters keep running, so 1-based call
    /// numbers in the new plan are still absolute).
    pub fn set_plan(&self, plan: IoFaultPlan) {
        let s = &self.state;
        s.fail_fsync_from.store(plan.fail_fsync_from, Ordering::Relaxed);
        s.fail_fsync_count
            .store(plan.fail_fsync_count, Ordering::Relaxed);
        s.enospc_after_bytes
            .store(plan.enospc_after_bytes, Ordering::Relaxed);
        s.torn_write_at.store(plan.torn_write_at, Ordering::Relaxed);
        s.eio_read_1_in.store(plan.eio_read_1_in, Ordering::Relaxed);
        s.delay_write_ms.store(plan.delay_write_ms, Ordering::Relaxed);
    }

    /// Traffic and injected-fault counters so far.
    pub fn counts(&self) -> IoFaultCounts {
        let s = &self.state;
        IoFaultCounts {
            fsyncs: s.fsyncs.load(Ordering::Relaxed),
            writes: s.writes.load(Ordering::Relaxed),
            reads: s.reads.load(Ordering::Relaxed),
            bytes_written: s.bytes_written.load(Ordering::Relaxed),
            fsync_failures: s.fsync_failures.load(Ordering::Relaxed),
            write_failures: s.write_failures.load(Ordering::Relaxed),
            read_failures: s.read_failures.load(Ordering::Relaxed),
            delays: s.delays.load(Ordering::Relaxed),
        }
    }
}

impl Vfs for FaultVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.state.check_read(path)?;
        self.inner.read(path)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let inner = self.inner.open_append(path)?;
        Ok(Box::new(FaultFile {
            inner,
            state: Arc::clone(&self.state),
            path: path.to_path_buf(),
        }))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let inner = self.inner.create(path)?;
        Ok(Box::new(FaultFile {
            inner,
            state: Arc::clone(&self.state),
            path: path.to_path_buf(),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn read_dir_names(&self, path: &Path) -> io::Result<Vec<String>> {
        self.inner.read_dir_names(path)
    }

    fn sync_dir(&self, path: &Path) {
        self.inner.sync_dir(path)
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        self.state.check_read(path)?;
        self.inner.read_to_string(path)
    }
}

struct FaultFile {
    inner: Box<dyn VfsFile>,
    state: Arc<FaultState>,
    path: std::path::PathBuf,
}

impl VfsFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let allowed = self.state.check_write(&self.path, buf.len())?;
        if allowed < buf.len() {
            // Torn write: land the prefix so the file genuinely holds a
            // partial record, then report the failure.
            let landed = buf.get(..allowed).unwrap_or(buf);
            self.inner.write_all(landed)?;
            self.state
                .bytes_written
                .fetch_add(allowed as u64, Ordering::Relaxed);
            return Err(injected(format!(
                "injected torn write ({allowed} of {} bytes) on {}",
                buf.len(),
                self.path.display()
            )));
        }
        self.inner.write_all(buf)?;
        self.state
            .bytes_written
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.state.check_fsync(&self.path)?;
        self.inner.sync_data()
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.state.check_fsync(&self.path)?;
        self.inner.sync_all()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("her-store-vfs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn real_vfs_round_trips_files_and_dirs() {
        let dir = tempdir("real");
        let vfs = RealVfs;
        let p = dir.join("a.bin");
        {
            let mut f = vfs.create(&p).unwrap();
            f.write_all(b"hello").unwrap();
            f.sync_all().unwrap();
        }
        assert_eq!(vfs.read(&p).unwrap(), b"hello");
        let q = dir.join("b.bin");
        vfs.rename(&p, &q).unwrap();
        assert_eq!(vfs.read_dir_names(&dir).unwrap(), vec!["b.bin".to_string()]);
        {
            let mut f = vfs.open_append(&q).unwrap();
            f.write_all(b" world").unwrap();
            f.flush().unwrap();
            f.sync_data().unwrap();
        }
        assert_eq!(vfs.read_to_string(&q).unwrap(), "hello world");
        vfs.remove_file(&q).unwrap();
        assert!(vfs.read(&q).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_window_fails_then_clears() {
        let dir = tempdir("fsync");
        let vfs = FaultVfs::new(IoFaultPlan {
            fail_fsync_from: 2,
            fail_fsync_count: 2,
            ..IoFaultPlan::default()
        });
        let mut f = vfs.create(&dir.join("f")).unwrap();
        f.write_all(b"x").unwrap();
        assert!(f.sync_data().is_ok(), "fsync #1 precedes the window");
        assert!(f.sync_data().is_err(), "fsync #2 in window");
        assert!(f.sync_all().is_err(), "fsync #3 in window");
        assert!(f.sync_data().is_ok(), "fsync #4 past the window");
        assert_eq!(vfs.handle().counts().fsync_failures, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_trips_after_byte_budget() {
        let dir = tempdir("enospc");
        let vfs = FaultVfs::new(IoFaultPlan {
            enospc_after_bytes: 10,
            ..IoFaultPlan::default()
        });
        let mut f = vfs.create(&dir.join("f")).unwrap();
        f.write_all(b"12345").unwrap();
        f.write_all(b"12345").unwrap();
        let err = f.write_all(b"x").unwrap_err();
        assert!(err.to_string().contains("ENOSPC"), "{err}");
        assert_eq!(vfs.handle().counts().bytes_written, 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_lands_a_prefix_then_errors() {
        let dir = tempdir("torn");
        let p = dir.join("f");
        let vfs = FaultVfs::new(IoFaultPlan {
            torn_write_at: 1,
            ..IoFaultPlan::default()
        });
        let mut f = vfs.create(&p).unwrap();
        let err = f.write_all(b"0123456789").unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        drop(f);
        assert_eq!(std::fs::read(&p).unwrap(), b"01234");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeded_read_faults_are_deterministic() {
        let dir = tempdir("reads");
        let p = dir.join("f");
        std::fs::write(&p, b"data").unwrap();
        let outcomes = |seed: u64| -> Vec<bool> {
            let vfs = FaultVfs::new(IoFaultPlan {
                seed,
                eio_read_1_in: 3,
                ..IoFaultPlan::default()
            });
            (0..32).map(|_| vfs.read(&p).is_ok()).collect()
        };
        let a = outcomes(7);
        assert_eq!(a, outcomes(7), "same seed, same fault sequence");
        assert!(a.iter().any(|ok| !ok), "some reads fail");
        assert!(a.iter().any(|ok| *ok), "some reads succeed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heal_clears_every_scheduled_fault() {
        let dir = tempdir("heal");
        let vfs = FaultVfs::new(IoFaultPlan {
            fail_fsync_from: 1,
            enospc_after_bytes: 1,
            ..IoFaultPlan::default()
        });
        let mut f = vfs.create(&dir.join("f")).unwrap();
        assert!(f.sync_data().is_err());
        assert!(f.write_all(b"toolong").is_err());
        vfs.handle().heal();
        f.write_all(b"toolong").unwrap();
        f.sync_data().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
