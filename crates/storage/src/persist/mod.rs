//! Durability: write-ahead logging, snapshots, and crash recovery.
//!
//! The paper's BDMS is a long-lived community database — annotations
//! accumulate over months — yet everything upstream of this module is
//! in-memory. `persist` supplies the missing layer as four pieces:
//!
//! | Module | Responsibility |
//! |---|---|
//! | [`format`](mod@format) | CRC32 + little-endian codec primitives ([`Value`](crate::Value)/[`Row`](crate::Row) included) |
//! | [`wal`] | segmented, checksummed, length-prefixed log of opaque payloads |
//! | [`snapshot`] | atomically-written full-state images with a WAL high-water mark |
//! | [`recover`] | [`PersistEngine`]: open/create a directory, stitch snapshot + log tail |
//!
//! The engine deliberately treats payloads as opaque bytes: the
//! *logical* record encoding (belief-statement mutations) and the
//! snapshot layout live in `beliefdb-core::persist`, next to the types
//! they serialize. Replaying a logical log through the normal update
//! algorithms reproduces every derived structure (tids, world
//! directory, `V`-slices, optimizer versions) exactly, which is what
//! makes recovery simple enough to trust.
//!
//! See `docs/persistence.md` for the byte-level formats and the
//! recovery invariants, and `tests/persist_recovery.rs` for the
//! fault-injection matrix (torn tails, bit flips, checkpoint races).

pub mod format;
pub mod recover;
pub mod snapshot;
pub mod wal;

pub use format::{crc32, Dec, Enc};
pub use recover::{PersistEngine, PersistOptions, Recovered, WalStats};
pub use wal::{frame_spans, list_segments, segment_file_name, SegmentMeta, WalReplay};
