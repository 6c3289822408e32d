//! The durability engine: one directory holding a snapshot series and a
//! segmented WAL, with crash recovery stitching the two together.
//!
//! [`PersistEngine::open`] recovers in three steps:
//!
//! 1. [`super::wal::replay`] scans the log, truncating a torn tail /
//!    dropping everything after the first corrupt frame;
//! 2. [`super::snapshot::load_latest`] picks the newest valid snapshot
//!    (corrupt candidates are skipped);
//! 3. log records below the snapshot's high-water mark are discarded,
//!    the rest are returned as the **tail** for the caller to replay
//!    through its normal application code path.
//!
//! The engine itself never interprets payloads — `beliefdb-core` owns
//! the logical record and snapshot encodings.
//!
//! One engine at a time: [`PersistEngine::create`] and
//! [`PersistEngine::open`] take an exclusive lock on a zero-byte `LOCK`
//! file in the directory and hold it until the engine is dropped or
//! closed, so a second engine cannot append to the same segments or
//! retire a log the first one still writes. [`PersistEngine::close`]
//! retires a log the newest snapshot covers entirely.

use super::snapshot;
use super::wal::{self, Wal};
use crate::error::{Result, StorageError};
use std::fs::{File, OpenOptions, TryLockError};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Name of the file whose exclusive lock marks a directory as open.
const LOCK_FILE: &str = "LOCK";

/// Take the exclusive lock on `dir`'s `LOCK` file (created empty if
/// missing); the lock lasts as long as the returned handle.
fn lock_dir(dir: &Path) -> Result<File> {
    let path = dir.join(LOCK_FILE);
    let file = OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(&path)
        .map_err(|e| StorageError::Io(format!("open {}: {e}", path.display())))?;
    match file.try_lock() {
        Ok(()) => Ok(file),
        Err(TryLockError::WouldBlock) => Err(StorageError::Locked(format!(
            "{} is open in another store",
            dir.display()
        ))),
        Err(TryLockError::Error(e)) => {
            Err(StorageError::Io(format!("lock {}: {e}", path.display())))
        }
    }
}

/// Tuning knobs for a durable directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistOptions {
    /// Rotate the active WAL segment when it exceeds this many bytes.
    pub segment_limit: u64,
    /// Auto-checkpoint (callers poll [`PersistEngine::needs_checkpoint`])
    /// once the live log exceeds this many bytes.
    pub checkpoint_threshold: u64,
    /// Group commit: fsync (`sync_data`) the active segment once per
    /// appended mutation batch, so an acknowledged mutation survives
    /// power loss — not just a process crash. Off by default: without
    /// it appends only flush to the OS page cache (checkpoint, segment
    /// rotation, and close still fsync), trading the last few records
    /// under power loss for append throughput.
    pub sync_on_commit: bool,
}

impl Default for PersistOptions {
    fn default() -> Self {
        PersistOptions {
            segment_limit: 1 << 20,        // 1 MiB segments
            checkpoint_threshold: 4 << 20, // checkpoint after 4 MiB of log
            sync_on_commit: false,
        }
    }
}

/// Observable counters for the `\wal` shell command and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Live WAL segment files.
    pub segments: usize,
    /// Valid frames across the live segments.
    pub frames: u64,
    /// Bytes across the live segments (headers included).
    pub wal_bytes: u64,
    /// LSN the next append will receive.
    pub next_lsn: u64,
    /// High-water mark of the newest snapshot (records below it are
    /// covered by the snapshot and no longer needed from the log).
    pub snapshot_hwm: u64,
    /// Checkpoints taken since this engine was opened.
    pub checkpoints: u64,
    /// Payload bytes of the newest snapshot (the one loaded on open,
    /// until this engine writes its own; 0 if there is none).
    pub snapshot_bytes: u64,
    /// Wall time of this engine's last checkpoint in microseconds: the
    /// capture and encoding of the payload plus the write (WAL rotation
    /// and its fsync, snapshot write, fsync, rename, pruning). 0 until the
    /// first checkpoint.
    pub checkpoint_us: u64,
    /// fsyncs issued since this engine was opened (group commits and
    /// segment rotations, a checkpoint's included).
    pub syncs: u64,
    /// Whether recovery truncated a torn/corrupt log tail on open.
    pub truncated_on_open: bool,
}

/// An open durable directory: appendable WAL plus snapshot bookkeeping.
#[derive(Debug)]
pub struct PersistEngine {
    dir: PathBuf,
    wal: Wal,
    opts: PersistOptions,
    snapshot_hwm: u64,
    checkpoints: u64,
    /// Payload bytes of the newest snapshot; `None` while there is none.
    snapshot_bytes: Option<u64>,
    checkpoint_us: u64,
    truncated_on_open: bool,
    /// The directory's `LOCK` file, exclusively locked for the engine's
    /// whole life.
    lock: File,
}

/// What [`PersistEngine::open`] recovered.
#[derive(Debug)]
pub struct Recovered {
    pub engine: PersistEngine,
    /// Payload of the newest valid snapshot, if any was ever written.
    pub snapshot: Option<Vec<u8>>,
    /// Log record payloads to replay on top of the snapshot, in order.
    pub tail: Vec<Vec<u8>>,
}

impl PersistEngine {
    /// Initialize a fresh durable directory. The directory is created if
    /// missing and must not already contain belief-database state; a
    /// directory another engine has open is [`StorageError::Locked`].
    pub fn create(dir: &Path, opts: PersistOptions) -> Result<PersistEngine> {
        std::fs::create_dir_all(dir)?;
        let lock = lock_dir(dir)?;
        if !wal::list_segments(dir)?.is_empty() || !snapshot::list_snapshots(dir)?.is_empty() {
            return Err(StorageError::Io(format!(
                "{} already holds a belief database (use open)",
                dir.display()
            )));
        }
        Ok(PersistEngine {
            dir: dir.to_path_buf(),
            wal: Wal::create(dir, 0, opts.segment_limit)?,
            opts,
            snapshot_hwm: 0,
            checkpoints: 0,
            snapshot_bytes: None,
            checkpoint_us: 0,
            truncated_on_open: false,
            lock,
        })
    }

    /// Recover an existing durable directory (see module docs). A
    /// directory another engine has open is [`StorageError::Locked`].
    pub fn open(dir: &Path, opts: PersistOptions) -> Result<Recovered> {
        if !dir.is_dir() {
            return Err(StorageError::Io(format!(
                "{} is not a directory",
                dir.display()
            )));
        }
        // A directory with neither snapshot nor log is rejected before
        // anything, the lock file included, is written into it.
        if snapshot::list_snapshots(dir)?.is_empty() && wal::list_segments(dir)?.is_empty() {
            return Err(StorageError::Corrupt(format!(
                "{}: no snapshot and no WAL — not a belief database directory",
                dir.display()
            )));
        }
        // Everything below reads state another engine could be changing,
        // so it runs under the lock.
        let lock = lock_dir(dir)?;
        // The snapshot is consulted *first*: its high-water mark tells
        // the log scan which segments are fully covered (and may be
        // dropped unscanned — corruption inside them must not cascade
        // into valid post-snapshot records).
        let loaded = snapshot::load_latest(dir)?;
        let (snapshot_hwm, snapshot) = match loaded {
            Some((hwm, payload)) => (hwm, Some(payload)),
            None => (0, None),
        };
        if snapshot.is_none() && wal::list_segments(dir)?.is_empty() {
            return Err(StorageError::Corrupt(format!(
                "{}: no valid snapshot and no WAL — not a belief database directory",
                dir.display()
            )));
        }
        let mut replay = wal::replay_covered(dir, snapshot_hwm)?;
        if snapshot.is_none() && replay.segments.is_empty() {
            // Every segment was corrupt and there is no snapshot to
            // fall back to: nothing recoverable remains.
            return Err(StorageError::Corrupt(format!(
                "{}: no valid snapshot and no valid WAL prefix — unrecoverable",
                dir.display()
            )));
        }

        // Keep only the contiguous run of records starting at the
        // high-water mark; anything below is covered by the snapshot,
        // anything after a gap is unreachable without the missing
        // records and must not be applied.
        let mut tail = Vec::new();
        let mut expect = snapshot_hwm;
        for (lsn, payload) in std::mem::take(&mut replay.records) {
            if lsn < expect {
                continue;
            }
            if lsn != expect {
                break;
            }
            tail.push(payload);
            expect += 1;
        }

        let next_lsn = expect.max(replay.next_lsn);
        let wal = if next_lsn > replay.next_lsn || replay.segments.is_empty() {
            // The snapshot outlives the log (its tail was lost, or the
            // directory never had segments): drop the stale segments
            // and restart the log at the high-water mark.
            for (_, path) in wal::list_segments(dir)? {
                std::fs::remove_file(&path)?;
            }
            Wal::create(dir, next_lsn, opts.segment_limit)?
        } else {
            Wal::open_from_replay(dir, &replay, opts.segment_limit)?
        };

        Ok(Recovered {
            engine: PersistEngine {
                dir: dir.to_path_buf(),
                wal,
                opts,
                snapshot_hwm,
                checkpoints: 0,
                snapshot_bytes: snapshot.as_ref().map(|p| p.len() as u64),
                checkpoint_us: 0,
                truncated_on_open: replay.truncated,
                lock,
            },
            snapshot,
            tail,
        })
    }

    /// True iff `dir` holds belief-database state (a snapshot or WAL).
    pub fn exists(dir: &Path) -> bool {
        dir.is_dir()
            && (wal::list_segments(dir)
                .map(|s| !s.is_empty())
                .unwrap_or(false)
                || snapshot::list_snapshots(dir)
                    .map(|s| !s.is_empty())
                    .unwrap_or(false))
    }

    /// Append one logical record; returns its LSN. The frame is flushed
    /// to the OS before this returns; with
    /// [`PersistOptions::sync_on_commit`] it is additionally fsynced
    /// (one `sync_data` per appended batch — group commit), making the
    /// record power-loss durable, not just crash durable.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64> {
        let lsn = self.wal.append(payload)?;
        if self.opts.sync_on_commit {
            self.wal.sync()?;
        }
        Ok(lsn)
    }

    /// Has the live log grown past the auto-checkpoint threshold?
    pub fn needs_checkpoint(&self) -> bool {
        self.wal.bytes() > self.opts.checkpoint_threshold
    }

    /// Write a snapshot covering every record appended so far, then
    /// drop the log segments (and older snapshots) it makes redundant.
    /// Returns the snapshot's high-water mark.
    pub fn checkpoint(&mut self, payload: &[u8]) -> Result<u64> {
        self.checkpoint_with(|| Ok::<_, StorageError>(payload))
    }

    /// [`PersistEngine::checkpoint`] of the payload `capture` returns,
    /// with the capture counted in [`WalStats::checkpoint_us`]. An error
    /// from `capture` leaves the directory untouched.
    pub fn checkpoint_with<P, E>(
        &mut self,
        capture: impl FnOnce() -> std::result::Result<P, E>,
    ) -> std::result::Result<u64, E>
    where
        P: AsRef<[u8]>,
        E: From<StorageError>,
    {
        let started = Instant::now();
        let payload = capture()?;
        let payload = payload.as_ref();
        let hwm = self.wal.next_lsn();
        // Everything the snapshot will claim to cover must actually be
        // on disk first, so a post-checkpoint power cut cannot leave a
        // snapshot whose covered records were never durable. Rotation
        // does that: it fsyncs the segment it seals, and an empty active
        // segment holds no frame to lose. It also makes the active
        // segment start exactly at the high-water mark; a crash before
        // the snapshot lands leaves an extra (valid, possibly empty)
        // segment, nothing worse.
        self.wal.rotate()?;
        snapshot::write_snapshot(&self.dir, hwm, payload)?;
        // Only after the snapshot is durable do the old segments and
        // snapshots become garbage.
        self.wal.prune_sealed()?;
        snapshot::prune(&self.dir, hwm)?;
        self.snapshot_hwm = hwm;
        self.snapshot_bytes = Some(payload.len() as u64);
        self.checkpoint_us = started.elapsed().as_micros() as u64;
        self.checkpoints += 1;
        crate::obs::metrics().incr(crate::obs::Metric::WalCheckpoints);
        Ok(hwm)
    }

    /// Close the engine. When there is a snapshot and no record lies past
    /// it (a checkpoint has just covered them all, or none was appended
    /// since the snapshot was loaded), the log is retired: every live
    /// segment is deleted, and so is any older snapshot or stray `.tmp`
    /// file a crash left, so the directory keeps the snapshot alone and
    /// the next [`PersistEngine::open`] restarts the log at its
    /// high-water mark. Otherwise the log stays for that open to replay.
    /// The directory lock is released last.
    pub fn close(self) -> Result<()> {
        let PersistEngine {
            dir,
            wal,
            snapshot_hwm,
            snapshot_bytes,
            lock,
            ..
        } = self;
        let retire = snapshot_bytes.is_some() && wal.next_lsn() == snapshot_hwm;
        let segments = wal.segments();
        drop(wal);
        if retire {
            for seg in segments {
                std::fs::remove_file(dir.join(wal::segment_file_name(seg.first_lsn)))?;
            }
            snapshot::prune(&dir, snapshot_hwm)?;
        }
        drop(lock);
        Ok(())
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn options(&self) -> PersistOptions {
        self.opts
    }

    pub fn stats(&self) -> WalStats {
        WalStats {
            segments: self.wal.segments().len(),
            frames: self.wal.frames(),
            wal_bytes: self.wal.bytes(),
            next_lsn: self.wal.next_lsn(),
            snapshot_hwm: self.snapshot_hwm,
            checkpoints: self.checkpoints,
            snapshot_bytes: self.snapshot_bytes.unwrap_or(0),
            checkpoint_us: self.checkpoint_us,
            syncs: self.wal.syncs(),
            truncated_on_open: self.truncated_on_open,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "beliefdb-engine-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn opts() -> PersistOptions {
        PersistOptions {
            segment_limit: 256,
            checkpoint_threshold: 1024,
            sync_on_commit: false,
        }
    }

    #[test]
    fn create_then_open_replays_the_tail() {
        let dir = temp_dir("tail");
        let mut engine = PersistEngine::create(&dir, opts()).unwrap();
        for i in 0..5u8 {
            assert_eq!(engine.append(&[i; 4]).unwrap(), i as u64);
        }
        drop(engine);
        let rec = PersistEngine::open(&dir, opts()).unwrap();
        assert!(rec.snapshot.is_none());
        assert_eq!(rec.tail, (0..5u8).map(|i| vec![i; 4]).collect::<Vec<_>>());
        assert_eq!(rec.engine.stats().next_lsn, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_covers_prefix_and_prunes() {
        let dir = temp_dir("ckpt");
        let mut engine = PersistEngine::create(&dir, opts()).unwrap();
        for i in 0..4u8 {
            engine.append(&[i; 100]).unwrap();
        }
        assert!(engine.needs_checkpoint() || engine.stats().wal_bytes <= 1024);
        let hwm = engine.checkpoint(b"STATE@4").unwrap();
        assert_eq!(hwm, 4);
        engine.append(&[9; 4]).unwrap();
        engine.append(&[10; 4]).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.snapshot_hwm, 4);
        assert_eq!(stats.checkpoints, 1);
        assert_eq!(stats.snapshot_bytes, 7);
        assert!(stats.checkpoint_us > 0);
        drop(engine);
        let rec = PersistEngine::open(&dir, opts()).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"STATE@4"[..]));
        assert_eq!(rec.engine.stats().snapshot_bytes, 7);
        assert_eq!(rec.engine.stats().checkpoint_us, 0);
        assert_eq!(rec.tail, vec![vec![9u8; 4], vec![10u8; 4]]);
        assert_eq!(rec.engine.stats().next_lsn, 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_existing_state_and_open_refuses_missing_dir() {
        let dir = temp_dir("guard");
        let _ = PersistEngine::create(&dir, opts()).unwrap();
        assert!(matches!(
            PersistEngine::create(&dir, opts()),
            Err(StorageError::Io(_))
        ));
        assert!(PersistEngine::exists(&dir));
        let missing = dir.join("nope");
        assert!(!PersistEngine::exists(&missing));
        assert!(matches!(
            PersistEngine::open(&missing, opts()),
            Err(StorageError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_survives_total_wal_loss() {
        let dir = temp_dir("walloss");
        let mut engine = PersistEngine::create(&dir, opts()).unwrap();
        for i in 0..3u8 {
            engine.append(&[i]).unwrap();
        }
        engine.checkpoint(b"SNAP").unwrap();
        engine.append(b"post").unwrap();
        drop(engine);
        // Lose every WAL segment.
        for (_, path) in wal::list_segments(&dir).unwrap() {
            std::fs::remove_file(path).unwrap();
        }
        let rec = PersistEngine::open(&dir, opts()).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"SNAP"[..]));
        assert!(rec.tail.is_empty());
        // LSNs never run backwards: the fresh log starts at the HWM.
        assert_eq!(rec.engine.stats().next_lsn, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_on_empty_directory_errors_without_writing() {
        // An empty (or wrong) directory must be rejected cleanly; in
        // particular open must not leave a stray WAL segment behind
        // that would poison a later create().
        let dir = temp_dir("emptydir");
        assert!(matches!(
            PersistEngine::open(&dir, opts()),
            Err(StorageError::Corrupt(_))
        ));
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        // The directory is still usable by create().
        let mut engine = PersistEngine::create(&dir, opts()).unwrap();
        engine.append(b"first").unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_in_a_snapshot_covered_segment_does_not_lose_the_tail() {
        // Crash window: checkpoint wrote the snapshot but died before
        // pruning the old segment. If that stale (fully covered)
        // segment later rots, recovery must still keep the valid
        // post-snapshot records instead of cascading the corruption.
        let dir = temp_dir("covered");
        let mut wal = super::super::wal::Wal::create(&dir, 0, 1 << 20).unwrap();
        for i in 0..5u8 {
            wal.append(&[i; 8]).unwrap();
        }
        wal.rotate().unwrap(); // live segment now starts at LSN 5
        for i in 5..8u8 {
            wal.append(&[i; 8]).unwrap();
        }
        drop(wal);
        super::super::snapshot::write_snapshot(&dir, 5, b"SNAP@5").unwrap();
        // Flip a byte inside the stale segment (covers LSNs 0..5).
        let stale = dir.join(super::super::wal::segment_file_name(0));
        let mut bytes = std::fs::read(&stale).unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 0xFF;
        std::fs::write(&stale, &bytes).unwrap();

        let rec = PersistEngine::open(&dir, opts()).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"SNAP@5"[..]));
        assert_eq!(rec.tail, vec![vec![5u8; 8], vec![6u8; 8], vec![7u8; 8]]);
        assert_eq!(rec.engine.stats().next_lsn, 8);
        // The covered segment was dropped unscanned.
        assert!(!stale.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_on_commit_fsyncs_once_per_append() {
        let dir = temp_dir("synccommit");
        let mut engine = PersistEngine::create(
            &dir,
            PersistOptions {
                sync_on_commit: true,
                ..opts()
            },
        )
        .unwrap();
        let before = engine.stats().syncs;
        for i in 0..3u8 {
            engine.append(&[i; 4]).unwrap();
        }
        // One group-commit sync per mutation batch (rotation adds its
        // own when a segment seals).
        assert!(engine.stats().syncs >= before + 3, "{:?}", engine.stats());
        drop(engine);
        let rec = PersistEngine::open(&dir, opts()).unwrap();
        assert_eq!(rec.tail.len(), 3);
        // Default: appends do not fsync; a checkpoint fsyncs once, when
        // it seals the segment its snapshot covers, and not at all when
        // that segment is empty.
        let dir2 = temp_dir("nosync");
        let mut engine = PersistEngine::create(&dir2, opts()).unwrap();
        engine.append(b"x").unwrap();
        assert_eq!(engine.stats().syncs, 0);
        engine.checkpoint(b"S").unwrap();
        assert_eq!(engine.stats().syncs, 1);
        engine.checkpoint(b"S").unwrap();
        assert_eq!(engine.stats().syncs, 1);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn a_live_directory_refuses_a_second_engine() {
        let dir = temp_dir("locked");
        let mut engine = PersistEngine::create(&dir, opts()).unwrap();
        engine.append(b"one").unwrap();
        assert!(matches!(
            PersistEngine::open(&dir, opts()),
            Err(StorageError::Locked(_))
        ));
        assert!(matches!(
            PersistEngine::create(&dir, opts()),
            Err(StorageError::Locked(_))
        ));
        assert!(dir.join(LOCK_FILE).exists());
        drop(engine);
        let rec = PersistEngine::open(&dir, opts()).unwrap();
        assert_eq!(rec.tail, vec![b"one".to_vec()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn close_retires_only_a_log_the_snapshot_covers() {
        let dir = temp_dir("close");
        // No snapshot yet: even an empty log stays.
        PersistEngine::create(&dir, opts())
            .unwrap()
            .close()
            .unwrap();
        assert_eq!(wal::list_segments(&dir).unwrap().len(), 1);
        let mut engine = PersistEngine::open(&dir, opts()).unwrap().engine;
        for i in 0..3u8 {
            engine.append(&[i; 4]).unwrap();
        }
        // Records past the (absent) snapshot: the log stays.
        engine.close().unwrap();
        assert_eq!(wal::list_segments(&dir).unwrap().len(), 1);
        let mut engine = PersistEngine::open(&dir, opts()).unwrap().engine;
        engine.checkpoint(b"STATE@3").unwrap();
        engine.close().unwrap();
        assert!(wal::list_segments(&dir).unwrap().is_empty());
        assert_eq!(snapshot::list_snapshots(&dir).unwrap().len(), 1);
        // Reopened, the log restarts at the high-water mark; closed
        // without an append, it is retired again.
        let rec = PersistEngine::open(&dir, opts()).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"STATE@3"[..]));
        assert_eq!(rec.engine.stats().next_lsn, 3);
        rec.engine.close().unwrap();
        assert!(wal::list_segments(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_checkpoint_threshold_trips() {
        let dir = temp_dir("auto");
        let mut engine = PersistEngine::create(&dir, opts()).unwrap();
        assert!(!engine.needs_checkpoint());
        while !engine.needs_checkpoint() {
            engine.append(&[0; 64]).unwrap();
        }
        engine.checkpoint(b"auto").unwrap();
        assert!(!engine.needs_checkpoint());
        assert_eq!(wal::list_segments(&dir).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
