//! The store's filesystem primitives — exactly the ones the write-ahead
//! protocol uses, one function each over `std::fs` — and a
//! deterministic [`FaultPlan`] that can make any of them fail (or lie)
//! on demand.
//!
//! ## Why fault injection
//!
//! The crash-safety claims of [`crate::ArtifactStore`] are only worth
//! anything if they are *tested against the failures they defend
//! against*: short writes, `EIO` on fsync, bit rot, torn renames, and a
//! process dying between any two protocol steps. None of those can be
//! provoked reliably through a real filesystem, so every primitive
//! consults the plan before it touches the disk and the chaos suite
//! injects faults at the exact step it wants to break. Each protocol
//! step is its own primitive, so a fault (or a simulated crash) can land
//! *between* any two steps — e.g. after the data write but before the
//! fsync, or after the rename but before the directory sync.
//!
//! ## The fault plan
//!
//! Mirroring the `TestClock` seam in `mcc-obs` (`crates/obs/src/clock.rs`),
//! the plan is process-global and **write-once**: [`install_fault_plan`]
//! succeeds at most once, before any store I/O fires. The plan's
//! *contents* stay mutable — tests re-arm it per scenario with
//! [`FaultPlan::arm`], scoped to a root directory so parallel tests with
//! separate tempdirs never see each other's faults. Production binaries
//! simply never install a plan; the per-op cost is then a single
//! `OnceLock` load.

use std::fs;
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Which primitive a [`Trigger`] is armed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Reading a whole file.
    Read,
    /// Creating (or truncating) a file and writing its bytes.
    CreateAndWrite,
    /// Flushing a file to stable storage (`fsync`).
    SyncFile,
    /// Renaming a file within its directory.
    Rename,
    /// Removing a file.
    Remove,
    /// Listing the files of a directory.
    List,
    /// Creating a directory and its missing parents.
    CreateDirAll,
    /// Flushing a directory (makes a rename durable).
    SyncDir,
}

/// What happens when a trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A hard I/O error (`ErrorKind::Other`) — the "disk is gone" class
    /// the store answers with degraded memory-only mode.
    Eio,
    /// A transient error (`ErrorKind::Interrupted`) — the class the
    /// store answers with bounded retry.
    Transient,
    /// The write *silently* persists only the first `n` bytes and
    /// reports success — a torn write that slips past the happy path
    /// and must be caught by CRC validation at load time.
    ShortWrite(usize),
    /// The write (or read) *silently* flips one byte at `offset mod
    /// len` and reports success — bit rot.
    FlipByte(usize),
    /// The process "dies" at this step: the primitive does **not** run
    /// and a [`KillSignal`]-carrying error is returned. The store
    /// recognises it and abandons the protocol without cleanup, leaving
    /// the on-disk state exactly as a real crash would.
    Kill,
    /// A torn rename: the destination appears but the source survives
    /// too (a non-atomic rename interrupted after the link step).
    TornRename,
}

/// One armed fault: after `skip` non-faulted calls of `op` under the
/// scope's root, the next such call misbehaves per `kind`. Each trigger
/// fires exactly once.
#[derive(Debug, Clone, Copy)]
pub struct Trigger {
    /// The primitive to sabotage.
    pub op: FaultOp,
    /// How many matching calls pass through unharmed first.
    pub skip: u32,
    /// The failure to inject.
    pub kind: FaultKind,
}

impl Trigger {
    /// A trigger that fires on the first matching call.
    pub fn first(op: FaultOp, kind: FaultKind) -> Self {
        Trigger { op, skip: 0, kind }
    }

    /// A trigger that fires on the `(skip + 1)`-th matching call.
    pub fn nth(op: FaultOp, skip: u32, kind: FaultKind) -> Self {
        Trigger { op, skip, kind }
    }
}

/// The distinguished payload of a [`FaultKind::Kill`] error. The store
/// checks for it with [`is_kill`] and, when present, stops mid-protocol
/// without any cleanup — simulating the process dying at that step.
#[derive(Debug)]
pub struct KillSignal;

impl std::fmt::Display for KillSignal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected kill-point: simulated process death")
    }
}

impl std::error::Error for KillSignal {}

/// Whether `err` is a simulated process death from [`FaultKind::Kill`].
pub fn is_kill(err: &io::Error) -> bool {
    err.get_ref().is_some_and(|inner| inner.is::<KillSignal>())
}

#[derive(Debug)]
struct ArmedTrigger {
    trigger: Trigger,
    fired: bool,
}

#[derive(Debug)]
struct Scope {
    root: PathBuf,
    triggers: Vec<ArmedTrigger>,
    fired_total: u64,
}

/// A deterministic fault schedule, scoped by store root directory.
///
/// Install once with [`install_fault_plan`]; re-arm per test scenario
/// with [`arm`](FaultPlan::arm). A primitive consults the plan with the
/// path it is about to touch; the first unfired matching trigger in the
/// path's scope decides its fate.
#[derive(Debug, Default)]
pub struct FaultPlan {
    scopes: Mutex<Vec<Scope>>,
}

impl FaultPlan {
    /// An empty plan (no scopes, nothing fires).
    pub const fn new() -> Self {
        FaultPlan {
            scopes: Mutex::new(Vec::new()),
        }
    }

    /// Arms (or replaces) the fault schedule for every path under
    /// `root`. Passing an empty trigger list disarms the scope.
    pub fn arm(&self, root: impl Into<PathBuf>, triggers: Vec<Trigger>) {
        let root = root.into();
        let mut scopes = self.scopes();
        scopes.retain(|s| s.root != root);
        scopes.push(Scope {
            root,
            triggers: triggers
                .into_iter()
                .map(|trigger| ArmedTrigger {
                    trigger,
                    fired: false,
                })
                .collect(),
            fired_total: 0,
        });
    }

    /// Removes the scope for `root` entirely.
    pub fn disarm(&self, root: impl AsRef<Path>) {
        let mut scopes = self.scopes();
        scopes.retain(|s| s.root != root.as_ref());
    }

    /// How many triggers have fired under `root` since it was armed.
    pub fn fired(&self, root: impl AsRef<Path>) -> u64 {
        self.scopes()
            .iter()
            .find(|s| s.root == root.as_ref())
            .map_or(0, |s| s.fired_total)
    }

    /// The one acquisition of the plan's lock. A leaf: no other lock is
    /// taken and no I/O runs while it is held.
    #[expect(
        clippy::disallowed_methods,
        reason = "leaf lock: only Vec work while held"
    )]
    fn scopes(&self) -> MutexGuard<'_, Vec<Scope>> {
        self.scopes.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consulted before each primitive: the fault to inject for this
    /// call, if any. Advances skip counters.
    fn decide(&self, op: FaultOp, path: &Path) -> Option<FaultKind> {
        let mut scopes = self.scopes();
        let scope = scopes.iter_mut().find(|s| path.starts_with(&s.root))?;
        for armed in scope.triggers.iter_mut() {
            if armed.fired || armed.trigger.op != op {
                continue;
            }
            if armed.trigger.skip > 0 {
                armed.trigger.skip -= 1;
                return None;
            }
            armed.fired = true;
            scope.fired_total += 1;
            return Some(armed.trigger.kind);
        }
        None
    }
}

static INSTALLED: OnceLock<&'static FaultPlan> = OnceLock::new();

/// Installs the process-global fault plan. Write-once, like
/// `mcc_obs::install_clock`: returns `false` if a plan is already
/// installed. The plan's *contents* stay re-armable via
/// [`FaultPlan::arm`].
pub fn install_fault_plan(plan: &'static FaultPlan) -> bool {
    INSTALLED.set(plan).is_ok()
}

fn decide(op: FaultOp, path: &Path) -> Option<FaultKind> {
    INSTALLED.get().and_then(|plan| plan.decide(op, path))
}

fn eio() -> io::Error {
    io::Error::other("injected fault: eio")
}

fn transient() -> io::Error {
    io::Error::new(io::ErrorKind::Interrupted, "injected fault: transient")
}

fn kill() -> io::Error {
    io::Error::other(KillSignal)
}

/// Maps an injected kind to its error, for primitives where only the
/// error-shaped kinds make sense.
fn error_for(kind: FaultKind) -> io::Error {
    match kind {
        FaultKind::Transient => transient(),
        FaultKind::Kill => kill(),
        // Silent-corruption kinds degrade to a hard error on primitives
        // that cannot express them (e.g. ShortWrite on remove).
        FaultKind::Eio
        | FaultKind::ShortWrite(_)
        | FaultKind::FlipByte(_)
        | FaultKind::TornRename => eio(),
    }
}

// The primitives: `std::fs`, with the fault plan consulted before each
// (a no-op unless a plan is installed *and* a scope covers the path).

/// Reads the whole file at `path`.
pub(crate) fn read(path: &Path) -> io::Result<Vec<u8>> {
    match decide(FaultOp::Read, path) {
        None => fs::read(path),
        Some(FaultKind::FlipByte(offset)) => {
            let mut bytes = fs::read(path)?;
            if !bytes.is_empty() {
                let at = offset % bytes.len();
                bytes[at] ^= 0x01;
            }
            Ok(bytes)
        }
        Some(FaultKind::ShortWrite(n)) => {
            let bytes = fs::read(path)?;
            let n = n.min(bytes.len());
            Ok(bytes[..n].to_vec())
        }
        Some(kind) => Err(error_for(kind)),
    }
}

/// Creates (or truncates) `path` and writes `bytes` to it.
pub(crate) fn create_and_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    match decide(FaultOp::CreateAndWrite, path) {
        None => write_all(path, bytes),
        Some(FaultKind::ShortWrite(n)) => {
            // The lie: persist a prefix, report success. Only CRC
            // validation at load time can catch this.
            write_all(path, &bytes[..n.min(bytes.len())])
        }
        Some(FaultKind::FlipByte(offset)) => {
            let mut corrupt = bytes.to_vec();
            if !corrupt.is_empty() {
                let at = offset % corrupt.len();
                corrupt[at] ^= 0x01;
            }
            write_all(path, &corrupt)
        }
        Some(kind) => Err(error_for(kind)),
    }
}

/// Flushes the file at `path` to stable storage (`fsync`).
pub(crate) fn sync_file(path: &Path) -> io::Result<()> {
    match decide(FaultOp::SyncFile, path) {
        None => fs::File::open(path)?.sync_all(),
        Some(kind) => Err(error_for(kind)),
    }
}

/// Atomically renames `from` to `to` (same directory).
pub(crate) fn rename(from: &Path, to: &Path) -> io::Result<()> {
    match decide(FaultOp::Rename, from) {
        None => fs::rename(from, to),
        Some(FaultKind::TornRename) => {
            // Destination appears, source survives: a rename the
            // journal replayed as link-without-unlink. Open-time
            // recovery must sweep the leftover source.
            let mut data = Vec::new();
            fs::File::open(from)?.read_to_end(&mut data)?;
            write_all(to, &data)
        }
        Some(kind) => Err(error_for(kind)),
    }
}

/// Removes the file at `path`.
pub(crate) fn remove(path: &Path) -> io::Result<()> {
    match decide(FaultOp::Remove, path) {
        None => fs::remove_file(path),
        Some(kind) => Err(error_for(kind)),
    }
}

/// Lists the entries of `dir` (files only, unsorted).
pub(crate) fn list(dir: &Path) -> io::Result<Vec<PathBuf>> {
    if let Some(kind) = decide(FaultOp::List, dir) {
        return Err(error_for(kind));
    }
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            out.push(entry.path());
        }
    }
    Ok(out)
}

/// Creates `dir` and any missing parents.
pub(crate) fn create_dir_all(dir: &Path) -> io::Result<()> {
    match decide(FaultOp::CreateDirAll, dir) {
        None => fs::create_dir_all(dir),
        Some(kind) => Err(error_for(kind)),
    }
}

/// Flushes the directory at `dir` (makes a rename durable).
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    match decide(FaultOp::SyncDir, dir) {
        None => fs::File::open(dir)?.sync_all(),
        Some(kind) => Err(error_for(kind)),
    }
}

fn write_all(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = fs::File::create(path)?;
    f.write_all(bytes)?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triggers_skip_then_fire_once() {
        let plan = FaultPlan::new();
        plan.arm(
            "/tmp/fp-unit",
            vec![Trigger::nth(FaultOp::Read, 2, FaultKind::Eio)],
        );
        let p = Path::new("/tmp/fp-unit/objects/x.mcca");
        assert_eq!(plan.decide(FaultOp::Read, p), None);
        assert_eq!(plan.decide(FaultOp::Read, p), None);
        assert_eq!(plan.decide(FaultOp::Read, p), Some(FaultKind::Eio));
        assert_eq!(plan.decide(FaultOp::Read, p), None);
        assert_eq!(plan.fired("/tmp/fp-unit"), 1);
    }

    #[test]
    fn scopes_are_isolated_by_root() {
        let plan = FaultPlan::new();
        plan.arm(
            "/tmp/fp-a",
            vec![Trigger::first(FaultOp::SyncFile, FaultKind::Kill)],
        );
        plan.arm(
            "/tmp/fp-b",
            vec![Trigger::first(FaultOp::SyncFile, FaultKind::Eio)],
        );
        assert_eq!(
            plan.decide(FaultOp::SyncFile, Path::new("/tmp/fp-b/t")),
            Some(FaultKind::Eio)
        );
        assert_eq!(
            plan.decide(FaultOp::SyncFile, Path::new("/tmp/fp-a/t")),
            Some(FaultKind::Kill)
        );
        // Unrelated paths never fire.
        assert_eq!(
            plan.decide(FaultOp::SyncFile, Path::new("/tmp/other/t")),
            None
        );
    }

    #[test]
    fn rearming_replaces_the_scope() {
        let plan = FaultPlan::new();
        plan.arm(
            "/tmp/fp-r",
            vec![Trigger::first(FaultOp::Remove, FaultKind::Eio)],
        );
        plan.arm("/tmp/fp-r", vec![]);
        assert_eq!(plan.decide(FaultOp::Remove, Path::new("/tmp/fp-r/t")), None);
    }

    #[test]
    fn kill_errors_are_recognisable() {
        assert!(is_kill(&kill()));
        assert!(!is_kill(&eio()));
        assert!(!is_kill(&transient()));
    }
}
