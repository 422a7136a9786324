//! The disk-backed artifact store.
//!
//! Persists [`CompiledFilter`] containers (the `mlbox::wire` format)
//! content-addressed by `(source fingerprint, options fingerprint)` —
//! the same pair that keys the in-memory specialization cache, so the
//! store is exactly the cache's next tier. Properties:
//!
//! - **Atomic publication**: `save` writes to a temporary file in the
//!   store directory and `rename`s it into place, so a concurrent
//!   `load` sees either the complete artifact or nothing — never a
//!   partial write. Double-saves of the same artifact are idempotent
//!   (same content, same name).
//! - **Session-free loads**: `load` goes file → bytes → validate →
//!   [`CompiledFilter`] without ever constructing a `Session`, or any
//!   segment or value: the payload is checked by a walk that builds
//!   nothing, and a pool worker decodes it once, on first sight. The
//!   expensive generator pipeline only runs when the store misses.
//! - **Verification on the way in**: the container's checksum, version,
//!   and fingerprints are checked by the container reader, the payload's
//!   structure by every check the payload decoder makes (a structural
//!   corruption under a valid checksum is still refused), the decoded
//!   options must hash to the fingerprint in the file name (a renamed
//!   file cannot impersonate another key), and `load` refuses artifacts the
//!   consumer's options are incompatible with (the frame-bearing /
//!   flat-env rule) — corruption surfaces as a typed error at load
//!   time, not as a wrong verdict at serve time.

use mlbox::{CompiledFilter, Error, SessionOptions};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::SystemTime;

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure (permissions, disk full, …).
    Io(io::Error),
    /// The file exists but is not a loadable artifact (corrupt,
    /// truncated, version-skewed, option-incompatible).
    Artifact(Error),
    /// The artifact decoded cleanly but does not belong under the file
    /// name it was found at.
    KeyMismatch {
        /// The key implied by the file name.
        expected: (u64, u64),
        /// The key the decoded artifact carries.
        found: (u64, u64),
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "artifact store I/O error: {e}"),
            StoreError::Artifact(e) => write!(f, "artifact store: {e}"),
            StoreError::KeyMismatch { expected, found } => write!(
                f,
                "artifact store: file named for key {:016x}-{:016x} contains \
                 key {:016x}-{:016x}",
                expected.0, expected.1, found.0, found.1
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Artifact(e) => Some(e),
            StoreError::KeyMismatch { .. } => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<Error> for StoreError {
    fn from(e: Error) -> Self {
        StoreError::Artifact(e)
    }
}

/// Point-in-time store counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Artifacts written (including idempotent re-saves).
    pub saves: u64,
    /// Artifacts successfully loaded from disk.
    pub loads: u64,
    /// Load attempts that found no file for the key.
    pub misses: u64,
}

/// What one [`ArtifactStore::gc`] sweep did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcReport {
    /// Artifacts unlinked by the sweep.
    pub evicted: usize,
    /// Bytes those artifacts occupied.
    pub bytes_evicted: u64,
    /// Bytes still resident after the sweep.
    pub resident_bytes: u64,
}

/// A directory of persisted artifacts, one file per
/// `(source fingerprint, options fingerprint)` key.
#[derive(Debug)]
pub struct ArtifactStore {
    root: PathBuf,
    /// Distinguishes concurrent in-flight temp files from one store
    /// handle; the process id distinguishes handles across processes.
    tmp_counter: AtomicU64,
    saves: AtomicU64,
    loads: AtomicU64,
    misses: AtomicU64,
    /// Logical recency clock: bumped on every load and save, so the GC
    /// can order residents by last touch without trusting file mtimes
    /// (which `rename` publication does not refresh on every platform).
    clock: AtomicU64,
    /// File name → last touch (clock value) through this handle.
    /// Entries other handles or processes wrote are absent and fall
    /// back to their mtime, ranked older than anything touched here.
    recency: Mutex<HashMap<String, u64>>,
}

/// File extension of persisted artifacts.
pub const ARTIFACT_EXT: &str = "mlart";

impl ArtifactStore {
    /// Opens (creating if needed) the store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<ArtifactStore, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(ArtifactStore {
            root,
            tmp_counter: AtomicU64::new(0),
            saves: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            recency: Mutex::new(HashMap::new()),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The canonical file name for a key.
    pub fn file_name(source_fingerprint: u64, options_fingerprint: u64) -> String {
        format!("{source_fingerprint:016x}-{options_fingerprint:016x}.{ARTIFACT_EXT}")
    }

    /// The path an artifact with this key lives at (whether or not one
    /// is currently stored).
    pub fn path_for(&self, source_fingerprint: u64, options: &SessionOptions) -> PathBuf {
        self.root
            .join(Self::file_name(source_fingerprint, options.fingerprint()))
    }

    /// Persists `artifact` atomically (write to a temp file, then
    /// rename into place), returning its path.
    ///
    /// # Errors
    ///
    /// Returns the I/O error on filesystem failure.
    pub fn save(&self, artifact: &CompiledFilter) -> Result<PathBuf, StoreError> {
        let final_path = self.root.join(Self::file_name(
            artifact.source_fingerprint(),
            artifact.options_fingerprint(),
        ));
        let tmp_path = self.root.join(format!(
            ".tmp-{}-{}-{}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed),
            final_path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("artifact")
        ));
        let bytes = artifact.to_wire_bytes();
        fs::write(&tmp_path, &bytes)?;
        match fs::rename(&tmp_path, &final_path) {
            Ok(()) => {}
            Err(e) => {
                // Don't leak the temp file on a failed publish.
                let _ = fs::remove_file(&tmp_path);
                return Err(e.into());
            }
        }
        self.saves.fetch_add(1, Ordering::Relaxed);
        self.touch(&final_path);
        Ok(final_path)
    }

    /// Loads the artifact for `(source_fingerprint, options)`, verifying
    /// the container and that the consumer may hydrate it
    /// ([`CompiledFilter::from_wire_bytes_for`]). `Ok(None)` means the
    /// store has no artifact for the key; any present-but-unusable file
    /// is an error, never silently skipped.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on I/O failure, a corrupt or
    /// version-skewed container, an option-incompatible artifact, or a
    /// file whose content does not match its name.
    pub fn load(
        &self,
        source_fingerprint: u64,
        options: &SessionOptions,
    ) -> Result<Option<CompiledFilter>, StoreError> {
        let expected = (source_fingerprint, options.fingerprint());
        let path = self.root.join(Self::file_name(expected.0, expected.1));
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
            Err(e) => return Err(e.into()),
        };
        let artifact = CompiledFilter::from_wire_bytes_for(&bytes, options)?;
        let found = (
            artifact.source_fingerprint(),
            artifact.options_fingerprint(),
        );
        if expected != found {
            return Err(StoreError::KeyMismatch { expected, found });
        }
        self.loads.fetch_add(1, Ordering::Relaxed);
        self.touch(&path);
        Ok(Some(artifact))
    }

    /// Whether an artifact for the key is currently stored.
    pub fn contains(&self, source_fingerprint: u64, options: &SessionOptions) -> bool {
        self.path_for(source_fingerprint, options).exists()
    }

    /// Number of artifacts currently stored (temp files excluded).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be read.
    pub fn len(&self) -> Result<usize, StoreError> {
        let mut n = 0;
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.path().extension().is_some_and(|e| e == ARTIFACT_EXT) {
                n += 1;
            }
        }
        Ok(n)
    }

    /// Whether the store holds no artifacts.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be read.
    pub fn is_empty(&self) -> Result<bool, StoreError> {
        Ok(self.len()? == 0)
    }

    /// Stamps `path` as the most recently touched resident.
    fn touch(&self, path: &Path) {
        if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
            let t = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
            self.recency.lock().unwrap().insert(name.to_string(), t);
        }
    }

    /// Shrinks the resident set to at most `max_bytes`, unlinking
    /// least-recently-loaded artifacts first (publication counts as a
    /// touch; artifacts this handle never touched rank by mtime, older
    /// than anything it did). Eviction is an atomic unlink — a
    /// concurrent `load` that already opened the file keeps its bytes,
    /// and one that comes later misses and regenerates. An artifact
    /// loaded *during* the sweep is re-stamped by the load and skipped
    /// rather than evicted.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be scanned or an
    /// unlink fails for a reason other than the file already being gone.
    pub fn gc(&self, max_bytes: u64) -> Result<GcReport, StoreError> {
        self.gc_with_hook(max_bytes, |_| {})
    }

    /// [`ArtifactStore::gc`] with a hook run after victim selection and
    /// before each unlink — the seam the sweep-vs-load race test drives.
    #[doc(hidden)]
    pub fn gc_with_hook(
        &self,
        max_bytes: u64,
        mut before_unlink: impl FnMut(&Path),
    ) -> Result<GcReport, StoreError> {
        let sweep_start = self.clock.load(Ordering::Relaxed);
        let mut entries = Vec::new();
        let mut resident = 0u64;
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().is_none_or(|e| e != ARTIFACT_EXT) {
                continue;
            }
            let meta = entry.metadata()?;
            resident += meta.len();
            // Rank: (0, mtime) for entries unknown to this handle, then
            // (1, touch stamp) — foreign files age out first.
            let rank = match self.stamp_of(&path) {
                Some(stamp) => (1u8, stamp),
                None => {
                    let mtime = meta
                        .modified()
                        .ok()
                        .and_then(|t| t.duration_since(SystemTime::UNIX_EPOCH).ok())
                        .map_or(0, |d| d.as_secs());
                    (0u8, mtime)
                }
            };
            entries.push((rank, path, meta.len()));
        }
        entries.sort();
        let mut report = GcReport {
            evicted: 0,
            bytes_evicted: 0,
            resident_bytes: resident,
        };
        for (_, path, len) in entries {
            if report.resident_bytes <= max_bytes {
                break;
            }
            before_unlink(&path);
            // Re-check: any touch since the sweep began out-ranks the
            // ordering the victims were chosen under, so the entry is
            // hot again and survives.
            if self.stamp_of(&path).is_some_and(|s| s > sweep_start) {
                continue;
            }
            match fs::remove_file(&path) {
                Ok(()) => {}
                // Already gone (another sweep or handle): not our byte.
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e.into()),
            }
            if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                self.recency.lock().unwrap().remove(name);
            }
            report.evicted += 1;
            report.bytes_evicted += len;
            report.resident_bytes -= len;
        }
        Ok(report)
    }

    /// The recency stamp of `path`, if this handle has touched it.
    fn stamp_of(&self, path: &Path) -> Option<u64> {
        let name = path.file_name()?.to_str()?;
        self.recency.lock().unwrap().get(name).copied()
    }

    /// Current counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            saves: self.saves.load(Ordering::Relaxed),
            loads: self.loads.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}
