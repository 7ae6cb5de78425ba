//! Versioned, checksummed snapshots with an atomic write protocol.
//!
//! A snapshot file (`snap-<generation>.hsnap`) is a sequence of
//! [frames](crate::frame): a header frame (magic, format version,
//! generation, section count) followed by one frame per named section.
//! Any invalid frame condemns the whole file — snapshots are
//! all-or-nothing.
//!
//! ## Atomicity protocol
//!
//! 1. serialize all sections into one buffer;
//! 2. write it to a temp file in the same directory and `fsync`;
//! 3. `rename` over the final name (atomic on POSIX);
//! 4. `fsync` the directory (best-effort) so the rename itself is durable;
//! 5. rewrite `MANIFEST` (pointing at the new file) by the same
//!    temp+fsync+rename dance.
//!
//! A crash at any step leaves either the old state (steps 1–3 incomplete)
//! or the new state (rename landed); the manifest is advisory — the loader
//! falls back to scanning for the newest *valid* snapshot when the
//! manifest is stale, missing, or points at a corrupt file, counting what
//! it skipped under `store.corrupt_snapshots_skipped`.

use crate::codec::{Dec, Enc};
use crate::frame::{write_frame, FrameEvent, Frames};
use crate::vfs::{self, Vfs};
use crate::{Result, StoreError};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"HERSNAP1";
const VERSION: u32 = 1;
const MANIFEST: &str = "MANIFEST";
const MANIFEST_HEADER: &str = "her-manifest/v1";
/// Snapshot generations retained after a successful write (the newest
/// plus fallbacks for corrupt-newest recovery).
const KEEP_GENERATIONS: usize = 3;

/// A loaded snapshot: its generation and named sections.
#[derive(Debug)]
pub struct Snapshot {
    /// Monotonically increasing write counter within a directory.
    pub generation: u64,
    sections: Vec<(String, Vec<u8>)>,
}

impl Snapshot {
    /// The payload of section `name`, if present.
    pub fn section(&self, name: &str) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d.as_slice())
    }

    /// All sections in file order.
    pub fn sections(&self) -> impl Iterator<Item = (&str, &[u8])> {
        self.sections.iter().map(|(n, d)| (n.as_str(), d.as_slice()))
    }
}

/// A directory of snapshot generations plus a manifest.
pub struct SnapshotStore {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    obs: Option<her_obs::Obs>,
}

impl SnapshotStore {
    /// Opens (creating if needed) the snapshot directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        Self::open_with(dir, vfs::real())
    }

    /// [`SnapshotStore::open`] over an explicit [`Vfs`] — every write in
    /// the atomic protocol (temp file, fsync, rename, manifest) goes
    /// through it, so fault plans can break any single step.
    pub fn open_with(dir: impl Into<PathBuf>, vfs: Arc<dyn Vfs>) -> Result<Self> {
        let dir = dir.into();
        vfs.create_dir_all(&dir).map_err(|e| StoreError::io(&dir, e))?;
        Ok(SnapshotStore {
            dir,
            vfs,
            obs: None,
        })
    }

    /// Attaches an observability handle: snapshot writes/loads/bytes and
    /// corrupt-skip counts land in the `store.*` namespace.
    pub fn with_obs(mut self, obs: her_obs::Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn snapshot_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("snap-{generation:010}.hsnap"))
    }

    /// Generations present on disk, ascending (ignores unparsable names).
    fn generations(&self) -> Result<Vec<u64>> {
        let mut out = Vec::new();
        let names = self
            .vfs
            .read_dir_names(&self.dir)
            .map_err(|e| StoreError::io(&self.dir, e))?;
        for name in names {
            if let Some(gen) = name
                .strip_prefix("snap-")
                .and_then(|s| s.strip_suffix(".hsnap"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                out.push(gen);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Serializes `sections` as the next generation, atomically. Returns
    /// the generation written.
    pub fn write(&self, sections: &[(&str, &[u8])]) -> Result<u64> {
        #[allow(clippy::disallowed_methods, reason = "times `store.snapshot.write_us`; a write, not a replay path")]
        let t0 = std::time::Instant::now();
        let generation = self.generations()?.last().copied().unwrap_or(0) + 1;

        let mut buf = Vec::new();
        let mut header = Enc::new();
        header.put_bytes(MAGIC);
        header.put_u32(VERSION);
        header.put_u64(generation);
        header.put_u32(sections.len() as u32);
        write_frame(&mut buf, &header.into_bytes());
        for (name, data) in sections {
            let mut sec = Enc::new();
            sec.put_str(name);
            sec.put_bytes(data);
            write_frame(&mut buf, &sec.into_bytes());
        }

        let final_path = self.snapshot_path(generation);
        let tmp_path = self.dir.join(format!(".tmp-snap-{generation:010}"));
        {
            let mut f = self
                .vfs
                .create(&tmp_path)
                .map_err(|e| StoreError::io(&tmp_path, e))?;
            f.write_all(&buf).map_err(|e| StoreError::io(&tmp_path, e))?;
            f.sync_all().map_err(|e| StoreError::io(&tmp_path, e))?;
        }
        self.vfs
            .rename(&tmp_path, &final_path)
            .map_err(|e| StoreError::io(&final_path, e))?;
        self.vfs.sync_dir(&self.dir);
        self.write_manifest(&final_path)?;
        self.prune(generation);

        if let Some(obs) = &self.obs {
            obs.registry.counter("store.snapshots_written").inc();
            obs.registry
                .histogram("store.snapshot.bytes")
                .observe(buf.len() as u64);
            obs.registry
                .histogram("store.snapshot.write_us")
                .observe(t0.elapsed().as_micros() as u64);
        }
        Ok(generation)
    }

    fn write_manifest(&self, target: &Path) -> Result<()> {
        let name = target
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let body = format!("{MANIFEST_HEADER}\n{name}\n");
        let tmp = self.dir.join(".tmp-manifest");
        {
            let mut f = self.vfs.create(&tmp).map_err(|e| StoreError::io(&tmp, e))?;
            f.write_all(body.as_bytes())
                .map_err(|e| StoreError::io(&tmp, e))?;
            f.sync_all().map_err(|e| StoreError::io(&tmp, e))?;
        }
        let manifest = self.dir.join(MANIFEST);
        self.vfs
            .rename(&tmp, &manifest)
            .map_err(|e| StoreError::io(&manifest, e))?;
        self.vfs.sync_dir(&self.dir);
        Ok(())
    }

    /// Best-effort removal of generations older than the retention window.
    fn prune(&self, newest: u64) {
        if let Ok(gens) = self.generations() {
            for gen in gens {
                if gen + KEEP_GENERATIONS as u64 <= newest {
                    let _ = self.vfs.remove_file(&self.snapshot_path(gen));
                }
            }
        }
    }

    /// The snapshot the manifest points at, if the manifest is readable
    /// and well-formed.
    fn manifest_target(&self) -> Option<PathBuf> {
        let text = self.vfs.read_to_string(&self.dir.join(MANIFEST)).ok()?;
        let mut lines = text.lines();
        if lines.next()? != MANIFEST_HEADER {
            return None;
        }
        let name = lines.next()?.trim();
        // The manifest names a file inside this directory; anything else
        // (path separators, empty) is treated as a stale manifest.
        if name.is_empty() || name.contains(['/', '\\']) {
            return None;
        }
        Some(self.dir.join(name))
    }

    /// Loads the newest valid snapshot: the manifest's target first, then
    /// (if that is missing or invalid) every generation newest-first.
    /// `Ok(None)` means the directory holds no snapshots at all; an error
    /// means snapshots exist but none validate.
    pub fn load_latest(&self) -> Result<Option<Snapshot>> {
        let mut candidates: Vec<PathBuf> = Vec::new();
        if let Some(p) = self.manifest_target() {
            candidates.push(p);
        }
        for gen in self.generations()?.into_iter().rev() {
            let p = self.snapshot_path(gen);
            if !candidates.contains(&p) {
                candidates.push(p);
            }
        }
        if candidates.is_empty() {
            return Ok(None);
        }
        let mut first_err = None;
        for path in candidates {
            match self.load_file(&path) {
                Ok(snap) => {
                    if let Some(obs) = &self.obs {
                        obs.registry.counter("store.snapshots_loaded").inc();
                    }
                    return Ok(Some(snap));
                }
                Err(e) => {
                    her_obs::warn!("skipping unusable snapshot {}: {e}", path.display());
                    if let Some(obs) = &self.obs {
                        obs.registry.counter("store.corrupt_snapshots_skipped").inc();
                    }
                    first_err.get_or_insert(e);
                }
            }
        }
        Err(first_err.unwrap_or(StoreError::Missing {
            path: self.dir.clone(),
        }))
    }

    /// Loads and fully validates one snapshot file.
    pub fn load_file(&self, path: &Path) -> Result<Snapshot> {
        let buf = self.vfs.read(path).map_err(|e| StoreError::io(path, e))?;
        let mut frames = Frames::new(&buf);
        let header = match frames.next_frame() {
            FrameEvent::Frame(p) => p,
            FrameEvent::Eof => {
                return Err(StoreError::corrupt(path, 0, "empty snapshot file"))
            }
            FrameEvent::TornTail { offset } => {
                return Err(StoreError::corrupt(path, offset, "truncated header frame"))
            }
            FrameEvent::Corrupt { offset, message } => {
                return Err(StoreError::corrupt(path, offset, message))
            }
        };
        let mut d = Dec::new(header);
        let bad_header =
            |e: crate::CodecError| StoreError::corrupt(path, 0, format!("bad header: {e}"));
        let magic = d.bytes().map_err(bad_header)?;
        if magic != MAGIC {
            return Err(StoreError::Version {
                path: path.into(),
                message: format!("magic {:?} (expected {:?})", magic, MAGIC),
            });
        }
        let version = d.u32().map_err(bad_header)?;
        if version != VERSION {
            return Err(StoreError::Version {
                path: path.into(),
                message: format!("snapshot format v{version} (this build reads v{VERSION})"),
            });
        }
        let generation = d.u64().map_err(bad_header)?;
        let count = d.u32().map_err(bad_header)? as usize;
        d.finish().map_err(bad_header)?;

        let mut sections = Vec::with_capacity(count);
        for i in 0..count {
            let at = frames.offset();
            let payload = match frames.next_frame() {
                FrameEvent::Frame(p) => p,
                FrameEvent::Eof | FrameEvent::TornTail { .. } => {
                    return Err(StoreError::corrupt(
                        path,
                        at,
                        format!("snapshot ends after {i} of {count} sections"),
                    ))
                }
                FrameEvent::Corrupt { offset, message } => {
                    return Err(StoreError::corrupt(path, offset, message))
                }
            };
            let mut d = Dec::new(payload);
            let bad =
                |e: crate::CodecError| StoreError::corrupt(path, at, format!("bad section: {e}"));
            let name = d.str().map_err(bad)?.to_owned();
            let data = d.bytes().map_err(bad)?.to_vec();
            d.finish().map_err(bad)?;
            sections.push((name, data));
        }
        if !matches!(frames.next_frame(), FrameEvent::Eof) {
            return Err(StoreError::corrupt(
                path,
                frames.offset(),
                "trailing bytes after final section",
            ));
        }
        Ok(Snapshot {
            generation,
            sections,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("her-store-snap-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn write_then_load_round_trips() {
        let dir = tempdir("roundtrip");
        let store = SnapshotStore::open(&dir).unwrap();
        let gen = store
            .write(&[("meta", b"hello".as_slice()), ("data", b"\x00\x01\x02")])
            .unwrap();
        assert_eq!(gen, 1);
        let snap = store.load_latest().unwrap().expect("snapshot present");
        assert_eq!(snap.generation, 1);
        assert_eq!(snap.section("meta"), Some(b"hello".as_slice()));
        assert_eq!(snap.section("data"), Some(b"\x00\x01\x02".as_slice()));
        assert_eq!(snap.section("nope"), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_directory_loads_none() {
        let dir = tempdir("empty");
        let store = SnapshotStore::open(&dir).unwrap();
        assert!(store.load_latest().unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous_valid() {
        let dir = tempdir("fallback");
        let obs = her_obs::Obs::new();
        let store = SnapshotStore::open(&dir).unwrap().with_obs(obs.clone());
        store.write(&[("state", b"old".as_slice())]).unwrap();
        let newest = store.write(&[("state", b"new".as_slice())]).unwrap();
        // Flip a payload byte in the newest snapshot.
        let path = store.snapshot_path(newest);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, bytes).unwrap();

        let snap = store.load_latest().unwrap().expect("fallback found");
        assert_eq!(snap.section("state"), Some(b"old".as_slice()));
        if her_obs::ENABLED {
            let m = obs.snapshot();
            assert!(m.counter("store.corrupt_snapshots_skipped") >= 1);
            assert_eq!(m.counter("store.snapshots_written"), 2);
            for h in ["store.snapshot.bytes", "store.snapshot.write_us"] {
                assert_eq!(m.histogram(h).map(|h| h.count), Some(2), "{h}");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_corrupt_is_an_error_not_a_fresh_start() {
        let dir = tempdir("allbad");
        let store = SnapshotStore::open(&dir).unwrap();
        let gen = store.write(&[("s", b"x".as_slice())]).unwrap();
        let path = store.snapshot_path(gen);
        fs::write(&path, b"not a snapshot at all").unwrap();
        let err = store.load_latest().unwrap_err();
        let msg = err.to_string();
        assert!(!msg.contains('\n'), "one-line diagnostic: {msg}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_snapshot_is_rejected_at_every_cut() {
        let dir = tempdir("cuts");
        let store = SnapshotStore::open(&dir).unwrap();
        let gen = store
            .write(&[("a", b"0123456789".as_slice()), ("b", b"abcdef")])
            .unwrap();
        let path = store.snapshot_path(gen);
        let full = fs::read(&path).unwrap();
        for cut in 0..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            assert!(
                store.load_file(&path).is_err(),
                "cut={cut}: truncated snapshot accepted"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_magic_is_a_version_error() {
        let dir = tempdir("magic");
        let store = SnapshotStore::open(&dir).unwrap();
        let gen = store.write(&[("s", b"x".as_slice())]).unwrap();
        let path = store.snapshot_path(gen);
        // Re-frame a header with wrong magic.
        let mut header = Enc::new();
        header.put_bytes(b"NOTSNAPS");
        header.put_u32(VERSION);
        header.put_u64(1);
        header.put_u32(0);
        let mut buf = Vec::new();
        write_frame(&mut buf, &header.into_bytes());
        fs::write(&path, buf).unwrap();
        assert!(matches!(
            store.load_file(&path),
            Err(StoreError::Version { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn prunes_old_generations_but_keeps_fallback_window() {
        let dir = tempdir("prune");
        let store = SnapshotStore::open(&dir).unwrap();
        for i in 0..6u8 {
            store.write(&[("i", [i].as_slice())]).unwrap();
        }
        let gens = store.generations().unwrap();
        assert_eq!(gens, vec![4, 5, 6]);
        let _ = fs::remove_dir_all(&dir);
    }
}
