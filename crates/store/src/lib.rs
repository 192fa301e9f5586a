//! # `mcc-store` — crash-safe content-addressed artifact persistence
//!
//! Registering a schema with the engine costs a full classification
//! pass: chordality/conformality recognizers, a perfect elimination
//! order, and (when polynomial) the Lemma 1 orderings. All of that is a
//! pure function of the schema — so this crate persists the resulting
//! [`SchemaArtifacts`](mcc::SchemaArtifacts) bundle on disk, keyed by
//! the schema's FNV-1a fingerprint, and a restarted engine **warm-starts**
//! by decoding instead of reclassifying.
//!
//! The design goal is that the disk tier can *never make things worse*:
//!
//! * **Crash-safe writes** — temp file + fsync + atomic rename + dir
//!   fsync; a crash leaves the old object, no object, or a stale temp
//!   file that [`ArtifactStore::open`] sweeps (self-healing).
//! * **Validated reads** — a versioned, per-section-CRC format
//!   ([`format`](mod@crate::format)) plus full structural coherence checks
//!   (`SchemaArtifacts::from_parts`); corrupt or truncated blobs are
//!   quarantined and reported as clean misses, never served.
//! * **Graceful degradation** — transient errors retry with backoff;
//!   persistent ones flip the store into memory-only mode and the
//!   engine keeps serving from RAM.
//! * **Testable failure model** — every filesystem primitive consults a
//!   process-global write-once [`FaultPlan`] before it touches the
//!   disk, which injects short writes, `EIO`, bit rot, torn renames,
//!   and kill-points deterministically (see `tests/chaos.rs`).
//!
//! ```no_run
//! use mcc::prelude::*;
//! use mcc_store::ArtifactStore;
//!
//! let schema = RelationalSchema::from_lists(
//!     "demo",
//!     &["a", "b", "c"],
//!     &[("R", &[0, 1]), ("S", &[1, 2])],
//! );
//! let store = ArtifactStore::open("/var/lib/mcc/artifacts");
//! let key = schema.fingerprint();
//!
//! // First process: classify once, persist.
//! let artifacts = mcc::SchemaArtifacts::build(schema.to_bipartite().unwrap());
//! store.store(key, &artifacts);
//!
//! // Any later process: decode + validate, no reclassification.
//! let warm = store.load(key).expect("persisted above");
//! assert_eq!(warm.classification(), artifacts.classification());
//! ```

#![forbid(unsafe_code)]

mod crc;
/// The versioned, checksummed on-disk representation.
pub mod format;
/// The filesystem primitives and their fault injection.
pub mod io;
mod store;

pub use crc::crc32;
pub use format::{decode, encode, FormatError, MAGIC, VERSION};
pub use io::{install_fault_plan, is_kill, FaultKind, FaultOp, FaultPlan, Trigger};
pub use store::{ArtifactStore, StoreStats};
