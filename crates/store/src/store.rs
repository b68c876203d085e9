//! The on-disk store: atomic writes, verified reads, quarantine, and the
//! offline maintenance operations behind `relogic cache`.
//!
//! Layout: a flat directory of `<keyhex32>.<ext>` containers (see
//! [`crate::container`]). Writes go through temp-file + fsync + atomic
//! rename + directory fsync, so a crash at any instant leaves either the
//! old state or the new state — never a half-written artifact under the
//! final name. Reads verify the full container before deserializing;
//! anything that fails is renamed to `<file>.corrupt` (quarantine), a
//! counter is bumped, one line goes to stderr, and the caller recomputes.

use crate::codec::{
    decode_meta, decode_observability, decode_weights, encode_meta, encode_observability,
    encode_weights, ArtifactMeta,
};
use crate::container::{self, ArtifactKind, ContainerError, RETIRED_EXTENSIONS};
use crate::key::StoreKey;
use relogic::{ObservabilityMatrix, Weights};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(any(test, feature = "chaos"))]
use relogic_sim::chaos::{Chaos, ChaosSite};
#[cfg(any(test, feature = "chaos"))]
use std::sync::Arc;

/// Outcome of a verified read.
#[derive(Debug)]
pub enum Loaded<T> {
    /// The artifact verified bit-exact and deserialized.
    Hit(T),
    /// No file for this key/kind.
    Miss,
    /// A file existed but failed verification or deserialization; it has
    /// been renamed to `*.corrupt` and the caller must recompute.
    Quarantined(ContainerError),
}

impl<T> Loaded<T> {
    /// The hit value, if any.
    pub fn hit(self) -> Option<T> {
        match self {
            Loaded::Hit(v) => Some(v),
            Loaded::Miss | Loaded::Quarantined(_) => None,
        }
    }
}

/// An I/O failure talking to the store directory. Verification failures
/// are NOT errors (they quarantine and surface as
/// [`Loaded::Quarantined`]); this covers the filesystem refusing us.
#[derive(Debug)]
pub struct StoreError {
    /// What the store was doing (`"write"`, `"read"`, `"rename"`, ...).
    pub op: &'static str,
    /// The path involved.
    pub path: PathBuf,
    /// The underlying error.
    pub source: io::Error,
}

impl StoreError {
    fn new(op: &'static str, path: &Path, source: io::Error) -> StoreError {
        StoreError {
            op,
            path: path.to_path_buf(),
            source,
        }
    }

    /// The underlying [`io::ErrorKind`], which the serve degradation
    /// policy inspects (`PermissionDenied`/`StorageFull`/`NotFound` are
    /// persistent; anything else is treated as transient).
    #[must_use]
    pub fn kind(&self) -> io::ErrorKind {
        self.source.kind()
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "store {} failed on {}: {}",
            self.op,
            self.path.display(),
            self.source
        )
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Monotonic store counters, surfaced through serve stats and
/// `cache verify`.
#[derive(Debug, Default)]
pub struct StoreCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    quarantined: AtomicU64,
    writes: AtomicU64,
}

/// A point-in-time copy of [`StoreCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCountersSnapshot {
    /// Verified reads that returned an artifact.
    pub hits: u64,
    /// Reads that found no file.
    pub misses: u64,
    /// Files renamed to `*.corrupt` after failing verification.
    pub quarantined: u64,
    /// Containers successfully written (post-rename).
    pub writes: u64,
}

impl StoreCounters {
    fn snapshot(&self) -> StoreCountersSnapshot {
        StoreCountersSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }
}

/// One artifact file found by [`Store::ls`].
#[derive(Clone, Debug)]
pub struct LsEntry {
    /// The content-addressed key (file stem).
    pub key: StoreKey,
    /// What the container holds, per its extension.
    pub kind: ArtifactKind,
    /// File size in bytes (header + payload).
    pub bytes: u64,
}

/// Outcome of [`Store::verify`] over a whole directory.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Containers that verified and deserialized cleanly.
    pub ok: u64,
    /// Containers quarantined this pass, with the failing path and reason.
    pub quarantined: Vec<(PathBuf, ContainerError)>,
}

/// Outcome of [`Store::gc`].
#[derive(Clone, Debug, Default)]
pub struct GcReport {
    /// `*.tmp`, `*.corrupt` and retired-kind files removed.
    pub removed: u64,
    /// Bytes those files occupied.
    pub bytes_freed: u64,
}

/// A handle to one store directory.
pub struct Store {
    root: PathBuf,
    counters: StoreCounters,
    /// Quieten the per-quarantine stderr line (tests).
    quiet: bool,
    #[cfg(any(test, feature = "chaos"))]
    chaos: Option<Arc<Chaos>>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store").field("root", &self.root).finish()
    }
}

impl Store {
    /// Opens (creating if needed) the store directory at `root`.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the directory cannot be created or is not
    /// usable as a directory.
    pub fn open(root: impl Into<PathBuf>) -> Result<Store, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| StoreError::new("create dir", &root, e))?;
        Ok(Store {
            root,
            counters: StoreCounters::default(),
            quiet: false,
            #[cfg(any(test, feature = "chaos"))]
            chaos: None,
        })
    }

    /// Suppresses the one-line stderr report on quarantine (test support;
    /// counters and renames still happen).
    #[must_use]
    pub fn quiet(mut self) -> Store {
        self.quiet = true;
        self
    }

    /// Attaches a chaos handle; disk sites fire inside write/read paths.
    #[cfg(any(test, feature = "chaos"))]
    pub fn set_chaos(&mut self, chaos: Arc<Chaos>) {
        self.chaos = Some(chaos);
    }

    /// The directory this store manages.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Current counter values.
    #[must_use]
    pub fn counters(&self) -> StoreCountersSnapshot {
        self.counters.snapshot()
    }

    /// Total bytes of live artifact containers on disk (excludes `*.tmp`
    /// and `*.corrupt`).
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the directory cannot be scanned.
    pub fn bytes_on_disk(&self) -> Result<u64, StoreError> {
        Ok(self.ls()?.iter().map(|e| e.bytes).sum())
    }

    fn path_of(&self, key: StoreKey, kind: ArtifactKind) -> PathBuf {
        self.root
            .join(format!("{}.{}", key.hex(), kind.extension()))
    }

    // ----- writes ---------------------------------------------------------

    /// Persists a provenance record.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on any filesystem failure (the artifact is simply
    /// not persisted; nothing half-written is left under the final name).
    pub fn save_meta(&self, key: StoreKey, meta: &ArtifactMeta) -> Result<(), StoreError> {
        self.save(key, ArtifactKind::Meta, &encode_meta(meta))
    }

    /// Persists weight vectors.
    ///
    /// # Errors
    ///
    /// See [`Store::save_meta`].
    pub fn save_weights(&self, key: StoreKey, weights: &Weights) -> Result<(), StoreError> {
        self.save(key, ArtifactKind::Weights, &encode_weights(weights))
    }

    /// Persists an observability matrix.
    ///
    /// # Errors
    ///
    /// See [`Store::save_meta`].
    pub fn save_observability(
        &self,
        key: StoreKey,
        matrix: &ObservabilityMatrix,
    ) -> Result<(), StoreError> {
        self.save(
            key,
            ArtifactKind::Observability,
            &encode_observability(matrix),
        )
    }

    fn save(&self, key: StoreKey, kind: ArtifactKind, payload: &[u8]) -> Result<(), StoreError> {
        let bytes = container::seal(kind, payload);
        let final_path = self.path_of(key, kind);
        self.write_atomic(&final_path, &bytes)?;
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// temp file + fsync + atomic rename + directory fsync. Chaos disk
    /// sites model the crash points: a short write that tears the FINAL
    /// file (as a non-atomic writer would), a completed temp file whose
    /// rename never happens, and an fsync whose failure is reported after
    /// the data reached the kernel.
    fn write_atomic(&self, final_path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        #[cfg(any(test, feature = "chaos"))]
        if let Some(chaos) = &self.chaos {
            if chaos.should(ChaosSite::DiskShortWrite) {
                // Simulate a crash mid-way through a NON-atomic write to
                // the final path: the next read must quarantine this.
                let _ = fs::write(final_path, &bytes[..bytes.len() / 2]);
                return Err(StoreError::new(
                    "write",
                    final_path,
                    injected("disk_short_write"),
                ));
            }
        }

        // Unique per write: a crashed writer's residue is never reused,
        // and two processes sharing the directory cannot clobber each
        // other's in-flight temp files.
        static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp_path = {
            let mut name = final_path.as_os_str().to_os_string();
            name.push(format!(
                ".{}-{}.tmp",
                std::process::id(),
                WRITE_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            PathBuf::from(name)
        };
        let mut tmp = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)
            .map_err(|e| StoreError::new("create temp", &tmp_path, e))?;
        tmp.write_all(bytes)
            .map_err(|e| StoreError::new("write", &tmp_path, e))?;
        tmp.sync_all()
            .map_err(|e| StoreError::new("fsync", &tmp_path, e))?;
        drop(tmp);

        #[cfg(any(test, feature = "chaos"))]
        if let Some(chaos) = &self.chaos {
            if chaos.should(ChaosSite::DiskTornRename) {
                // Crash between fsync and rename: the temp file survives
                // (gc removes it) but the final name is untouched.
                return Err(StoreError::new(
                    "rename",
                    final_path,
                    injected("disk_torn_rename"),
                ));
            }
        }

        fs::rename(&tmp_path, final_path).map_err(|e| {
            let _ = fs::remove_file(&tmp_path);
            StoreError::new("rename", final_path, e)
        })?;

        // Make the rename itself durable.
        let dir_sync = File::open(&self.root).and_then(|d| d.sync_all());

        #[cfg(any(test, feature = "chaos"))]
        if let Some(chaos) = &self.chaos {
            if chaos.should(ChaosSite::DiskFsyncFail) {
                // Data and rename both landed; only the durability
                // confirmation is lost. Callers treat this as a failed
                // write, but a subsequent read may legitimately hit.
                return Err(StoreError::new(
                    "fsync dir",
                    &self.root,
                    injected("disk_fsync_fail"),
                ));
            }
        }

        dir_sync.map_err(|e| StoreError::new("fsync dir", &self.root, e))?;
        Ok(())
    }

    // ----- verified reads -------------------------------------------------

    /// Loads a provenance record.
    ///
    /// # Errors
    ///
    /// [`StoreError`] only for filesystem failures; a corrupt file is
    /// [`Loaded::Quarantined`], not an error.
    pub fn load_meta(&self, key: StoreKey) -> Result<Loaded<ArtifactMeta>, StoreError> {
        self.load(key, ArtifactKind::Meta, decode_meta)
    }

    /// Loads weight vectors.
    ///
    /// # Errors
    ///
    /// See [`Store::load_meta`].
    pub fn load_weights(&self, key: StoreKey) -> Result<Loaded<Weights>, StoreError> {
        self.load(key, ArtifactKind::Weights, decode_weights)
    }

    /// Loads an observability matrix.
    ///
    /// # Errors
    ///
    /// See [`Store::load_meta`].
    pub fn load_observability(
        &self,
        key: StoreKey,
    ) -> Result<Loaded<ObservabilityMatrix>, StoreError> {
        self.load(key, ArtifactKind::Observability, decode_observability)
    }

    fn load<T>(
        &self,
        key: StoreKey,
        kind: ArtifactKind,
        decode: impl FnOnce(&[u8]) -> Result<T, ContainerError>,
    ) -> Result<Loaded<T>, StoreError> {
        let path = self.path_of(key, kind);
        let mut bytes = Vec::new();
        match File::open(&path) {
            Ok(mut f) => f
                .read_to_end(&mut bytes)
                .map(|_| ())
                .map_err(|e| StoreError::new("read", &path, e))?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                return Ok(Loaded::Miss);
            }
            Err(e) => return Err(StoreError::new("open", &path, e)),
        }

        #[cfg(any(test, feature = "chaos"))]
        if let Some(chaos) = &self.chaos {
            if chaos.should(ChaosSite::DiskBitFlip) && !bytes.is_empty() {
                // Deterministic single-bit rot in the read buffer; the
                // checksum must reject it and the store must quarantine.
                let byte = bytes.len() / 2;
                bytes[byte] ^= 0x08;
            }
        }

        match container::open(&bytes, kind).and_then(decode) {
            Ok(value) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                Ok(Loaded::Hit(value))
            }
            Err(why) => {
                self.quarantine(&path, &why)?;
                Ok(Loaded::Quarantined(why))
            }
        }
    }

    /// Renames a failed container to `<file>.corrupt`, counts it, and
    /// reports one line to stderr. Never serves or re-reads the bytes.
    fn quarantine(&self, path: &Path, why: &ContainerError) -> Result<(), StoreError> {
        let corrupt_path = {
            let mut name = path.as_os_str().to_os_string();
            name.push(".corrupt");
            PathBuf::from(name)
        };
        // A second reader may have quarantined the same file already; a
        // NotFound rename is success, anything else keeps the file out of
        // circulation by deleting it.
        match fs::rename(path, &corrupt_path) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(_) => {
                let _ = fs::remove_file(path);
            }
        }
        self.counters.quarantined.fetch_add(1, Ordering::Relaxed);
        if !self.quiet {
            eprintln!(
                "relogic-store: quarantined {} ({why}); recomputing",
                path.display()
            );
        }
        Ok(())
    }

    // ----- offline maintenance (relogic cache) ----------------------------

    /// Lists every live artifact container in the directory, sorted by
    /// key then kind. Unknown files, `*.tmp`, and `*.corrupt` are skipped.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the directory cannot be read.
    pub fn ls(&self) -> Result<Vec<LsEntry>, StoreError> {
        let read =
            fs::read_dir(&self.root).map_err(|e| StoreError::new("read dir", &self.root, e))?;
        let mut entries = Vec::new();
        for item in read {
            let item = item.map_err(|e| StoreError::new("read dir", &self.root, e))?;
            let name = item.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some((stem, ext)) = name.split_once('.') else {
                continue;
            };
            let (Some(key), Some(kind)) =
                (StoreKey::parse_hex(stem), ArtifactKind::from_extension(ext))
            else {
                continue;
            };
            let meta = item
                .metadata()
                .map_err(|e| StoreError::new("stat", &item.path(), e))?;
            entries.push(LsEntry {
                key,
                kind,
                bytes: meta.len(),
            });
        }
        entries.sort_by_key(|e| (e.key, e.kind.code()));
        Ok(entries)
    }

    /// Verifies every container in the directory end to end (header,
    /// checksum, deserialize). Corrupt files are quarantined exactly as a
    /// serving read would.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the directory itself cannot be scanned.
    pub fn verify(&self) -> Result<VerifyReport, StoreError> {
        fn discard<T>(loaded: Loaded<T>) -> Loaded<()> {
            match loaded {
                Loaded::Hit(_) => Loaded::Hit(()),
                Loaded::Miss => Loaded::Miss,
                Loaded::Quarantined(why) => Loaded::Quarantined(why),
            }
        }
        let mut report = VerifyReport::default();
        for entry in self.ls()? {
            let outcome = match entry.kind {
                ArtifactKind::Meta => discard(self.load_meta(entry.key)?),
                ArtifactKind::Weights => discard(self.load_weights(entry.key)?),
                ArtifactKind::Observability => discard(self.load_observability(entry.key)?),
            };
            match outcome {
                Loaded::Hit(()) => report.ok += 1,
                // Listed a moment ago but gone now: racing writer/gc; skip.
                Loaded::Miss => {}
                Loaded::Quarantined(why) => {
                    report
                        .quarantined
                        .push((self.path_of(entry.key, entry.kind), why));
                }
            }
        }
        Ok(report)
    }

    /// Removes `*.tmp` residue (crashed writes), `*.corrupt` files
    /// (already out of circulation) and `<key>.tape`/`<key>.est`
    /// containers of the kinds earlier versions stored (see
    /// [`ArtifactKind`]). Live artifacts and unrelated files are never
    /// touched.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the directory cannot be scanned or a file
    /// cannot be removed.
    pub fn gc(&self) -> Result<GcReport, StoreError> {
        let read =
            fs::read_dir(&self.root).map_err(|e| StoreError::new("read dir", &self.root, e))?;
        let mut report = GcReport::default();
        for item in read {
            let item = item.map_err(|e| StoreError::new("read dir", &self.root, e))?;
            let name = item.file_name();
            let Some(name) = name.to_str() else { continue };
            let retired = name.split_once('.').is_some_and(|(stem, ext)| {
                RETIRED_EXTENSIONS.contains(&ext) && StoreKey::parse_hex(stem).is_some()
            });
            if !(retired || name.ends_with(".tmp") || name.ends_with(".corrupt")) {
                continue;
            }
            let path = item.path();
            let bytes = item.metadata().map(|m| m.len()).unwrap_or(0);
            fs::remove_file(&path).map_err(|e| StoreError::new("remove", &path, e))?;
            report.removed += 1;
            report.bytes_freed += bytes;
        }
        Ok(report)
    }

    /// Every key that has a provenance record, for `cache warm` to walk.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the directory cannot be scanned.
    pub fn meta_keys(&self) -> Result<Vec<StoreKey>, StoreError> {
        Ok(self
            .ls()?
            .into_iter()
            .filter(|e| e.kind == ArtifactKind::Meta)
            .map(|e| e.key)
            .collect())
    }
}

#[cfg(any(test, feature = "chaos"))]
fn injected(site: &str) -> io::Error {
    // Deliberately NOT PermissionDenied/StorageFull/NotFound: injected
    // faults model transient failures and must not trip the serve layer's
    // persistent-degradation policy.
    io::Error::other(format!("chaos: injected {site} fault"))
}
