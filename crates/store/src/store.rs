//! [`ArtifactStore`]: the crash-safe, content-addressed on-disk tier.
//!
//! ## Layout
//!
//! ```text
//! <root>/objects/<fingerprint:016x>.mcca        one artifact bundle
//! <root>/objects/<fingerprint:016x>.mcca.<pid>.<seq>.tmp
//!                                               in-flight write (swept on open)
//! <root>/quarantine/<fingerprint:016x>.mcca     failed validation, kept for forensics
//! ```
//!
//! ## Write protocol (crash-safe)
//!
//! 1. write the encoded bundle to a temp file of its own,
//!    `<key>.mcca.<pid>.<seq>.tmp` (unique per write, so concurrent
//!    writes of one key never share a temp file);
//! 2. `fsync` the temp file;
//! 3. `rename` it over `<key>.mcca` (atomic on POSIX);
//! 4. `fsync` the objects directory (makes the rename durable).
//!
//! A crash at any point leaves either the old object, no object, or a
//! stale `.tmp` — never a half-written object under the final name.
//! [`ArtifactStore::open`] sweeps stale temp files (self-healing), and
//! every load CRC-validates before serving, so even a lying disk (short
//! write reported as success, bit rot) produces a quarantine + clean
//! miss rather than garbage artifacts.
//!
//! ## Failure policy
//!
//! * `ErrorKind::Interrupted` → bounded retry with linear backoff;
//! * validation failure → quarantine the blob, count it, report a miss;
//! * any other I/O error → flip to **degraded memory-only mode**: all
//!   further disk traffic short-circuits, the engine keeps serving from
//!   the in-memory tier, and [`StoreStats::degraded`] (scraped by the
//!   engine as `mcc_engine_store_degraded`) records the transition.
//!   Degradation is one-way for the store's lifetime — a disk that
//!   failed once is not trusted again until reopen.

use crate::format::{decode, encode, FormatError};
use crate::io::{self as disk, is_kill};
use mcc::SchemaArtifacts;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// How many times an `Interrupted` primitive is retried before the
/// error is treated as persistent.
const MAX_RETRIES: u32 = 3;

/// Backoff base between retries (linear: 1×, 2×, 3×).
const BACKOFF: Duration = Duration::from_millis(1);

/// File extension of a valid object.
const OBJ_EXT: &str = "mcca";

/// Extension suffix of an in-flight temp file.
const TMP_SUFFIX: &str = ".tmp";

/// A point-in-time copy of the store's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Bundles served from disk (valid load).
    pub hits: u64,
    /// Lookups that found no valid object (absent or quarantined).
    pub misses: u64,
    /// Blobs moved to quarantine after failing validation.
    pub quarantined: u64,
    /// Bundles durably written.
    pub stores: u64,
    /// Whether the store is in degraded memory-only mode.
    pub degraded: bool,
}

/// The crash-safe content-addressed artifact store. Keys are schema
/// fingerprints (`RelationalSchema::fingerprint`); values are encoded
/// [`SchemaArtifacts`] bundles. Immutable by key: equal fingerprints
/// mean equal content, so `store` never needs read-modify-write.
pub struct ArtifactStore {
    objects: PathBuf,
    quarantine: PathBuf,
    degraded: AtomicBool,
    hits: AtomicU64,
    misses: AtomicU64,
    quarantined: AtomicU64,
    stores: AtomicU64,
    /// Sequence number making each write's temp file name unique.
    tmp_seq: AtomicU64,
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("objects", &self.objects)
            .field("degraded", &self.degraded.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ArtifactStore {
    /// Opens (creating if needed) the store rooted at `root`.
    ///
    /// Never fails hard: if the directories cannot be created the store
    /// opens directly in degraded memory-only mode — callers keep one
    /// code path and the condition is visible via [`StoreStats::degraded`].
    pub fn open(root: impl Into<PathBuf>) -> ArtifactStore {
        let root = root.into();
        let store = ArtifactStore {
            objects: root.join("objects"),
            quarantine: root.join("quarantine"),
            degraded: AtomicBool::new(false),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        };
        let ready = retrying(|| disk::create_dir_all(&store.objects))
            .and_then(|_| retrying(|| disk::create_dir_all(&store.quarantine)));
        match ready {
            Ok(()) => store.sweep_stale_tmp(),
            Err(e) => store.degrade(&e),
        }
        store
    }

    /// Self-healing: removes temp files abandoned by a crash mid-write.
    /// A stale `.tmp` is the *expected* residue of the write protocol
    /// dying before its rename; sweeping it on open restores the
    /// invariant that `objects/` holds only complete, renamed blobs.
    fn sweep_stale_tmp(&self) {
        let entries = match retrying(|| disk::list(&self.objects)) {
            Ok(entries) => entries,
            Err(e) => return self.degrade(&e),
        };
        for path in entries {
            let stale = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(TMP_SUFFIX));
            if stale {
                // Best-effort: a sweep failure is not worth degrading
                // over — the file will be retried next open.
                let _ = retrying(|| disk::remove(&path));
            }
        }
    }

    /// The object path for a fingerprint.
    fn object_path(&self, fingerprint: u64) -> PathBuf {
        self.objects.join(format!("{fingerprint:016x}.{OBJ_EXT}"))
    }

    /// A fresh temp path for one write of `fingerprint`. The process id
    /// and a per-store sequence number keep two concurrent writes of the
    /// same key (two workers rebuilding one schema, or two processes on
    /// one root) off each other's temp file; the name still ends in
    /// [`TMP_SUFFIX`], so the open-time sweep removes it after a crash.
    fn tmp_path(&self, fingerprint: u64) -> PathBuf {
        let pid = std::process::id();
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        self.objects.join(format!(
            "{fingerprint:016x}.{OBJ_EXT}.{pid}.{seq}{TMP_SUFFIX}"
        ))
    }

    fn quarantine_path(&self, fingerprint: u64) -> PathBuf {
        self.quarantine
            .join(format!("{fingerprint:016x}.{OBJ_EXT}"))
    }

    /// Flips to degraded memory-only mode (idempotent).
    fn degrade(&self, _cause: &io::Error) {
        self.degraded.store(true, Ordering::SeqCst);
    }

    /// Whether the store has given up on the disk for this lifetime.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// Loads and validates the bundle stored under `fingerprint`.
    ///
    /// `Some` is returned only for a blob that passed every CRC, parsed,
    /// and rebuilt a coherent [`SchemaArtifacts`] — the caller can trust
    /// it as if freshly built. `None` means a clean miss: absent,
    /// quarantined just now, degraded mode, or a simulated crash.
    pub fn load(&self, fingerprint: u64) -> Option<SchemaArtifacts> {
        if self.is_degraded() {
            self.miss();
            return None;
        }
        let path = self.object_path(fingerprint);
        let bytes = match retrying(|| disk::read(&path)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.miss();
                return None;
            }
            Err(e) => {
                if !is_kill(&e) {
                    self.degrade(&e);
                }
                self.miss();
                return None;
            }
        };
        match decode(&bytes, Some(fingerprint)) {
            Ok((_, artifacts)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(artifacts)
            }
            Err(why) => {
                self.quarantine_object(fingerprint, &path, &why);
                self.miss();
                None
            }
        }
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Moves a blob that failed validation out of the serving path. The
    /// object name disappears (so subsequent loads miss cheaply) and the
    /// bytes are preserved under `quarantine/` for forensics.
    fn quarantine_object(&self, fingerprint: u64, path: &Path, _why: &FormatError) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        let dest = self.quarantine_path(fingerprint);
        if retrying(|| disk::rename(path, &dest)).is_err() {
            // The rename failed: at minimum get the corrupt blob out of
            // the serving path. Best-effort on an already-sick disk.
            let _ = retrying(|| disk::remove(path));
        }
    }

    /// Durably writes the bundle under `fingerprint` using the atomic
    /// temp-file protocol. Returns `true` on success. On persistent
    /// failure the store degrades to memory-only and returns `false`;
    /// on a simulated crash (fault injection) it returns `false` with
    /// the disk left exactly as the crash would leave it.
    pub fn store(&self, fingerprint: u64, artifacts: &SchemaArtifacts) -> bool {
        if self.is_degraded() {
            return false;
        }
        let bytes = encode(fingerprint, artifacts);
        let tmp = self.tmp_path(fingerprint);
        let path = self.object_path(fingerprint);
        let protocol = retrying(|| disk::create_and_write(&tmp, &bytes))
            .and_then(|_| retrying(|| disk::sync_file(&tmp)))
            .and_then(|_| retrying(|| disk::rename(&tmp, &path)))
            .and_then(|_| retrying(|| disk::sync_dir(&self.objects)));
        match protocol {
            Ok(()) => {
                self.stores.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(e) if is_kill(&e) => {
                // Simulated process death: no cleanup, no degradation —
                // the "next process" (a reopened store) must recover.
                false
            }
            Err(e) => {
                let _ = retrying(|| disk::remove(&tmp));
                self.degrade(&e);
                false
            }
        }
    }

    /// Removes the object stored under `fingerprint` (used by cache
    /// invalidation so a forced rebuild is not short-circuited by the
    /// disk tier). Absent objects are fine; other failures degrade.
    pub fn remove(&self, fingerprint: u64) -> bool {
        if self.is_degraded() {
            return false;
        }
        let path = self.object_path(fingerprint);
        match retrying(|| disk::remove(&path)) {
            Ok(()) => true,
            Err(e) if e.kind() == io::ErrorKind::NotFound => true,
            Err(e) => {
                if !is_kill(&e) {
                    self.degrade(&e);
                }
                false
            }
        }
    }

    /// Whether a (possibly invalid) object exists under `fingerprint`.
    /// Purely observational — serving always goes through [`load`].
    ///
    /// [`load`]: ArtifactStore::load
    pub fn contains(&self, fingerprint: u64) -> bool {
        if self.is_degraded() {
            return false;
        }
        let path = self.object_path(fingerprint);
        retrying(|| disk::list(&self.objects))
            .map(|entries| entries.contains(&path))
            .unwrap_or(false)
    }

    /// A consistent-enough snapshot of the store's counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            degraded: self.is_degraded(),
        }
    }
}

/// Runs a primitive with bounded retry on `Interrupted`. Kill signals
/// (simulated process death) are never retried.
fn retrying<T>(op: impl Fn() -> io::Result<T>) -> io::Result<T> {
    let mut attempt = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if is_kill(&e) => return Err(e),
            Err(e) if e.kind() == io::ErrorKind::Interrupted && attempt < MAX_RETRIES => {
                attempt += 1;
                std::thread::sleep(BACKOFF * attempt);
            }
            Err(e) => return Err(e),
        }
    }
}
