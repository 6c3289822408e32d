//! Snapshots: atomically-written, checksummed full-state images.
//!
//! A snapshot file `snapshot-<lsn:016x>.snap` holds an opaque payload
//! (the serialized store, produced by the layer above) plus the WAL
//! high-water mark: every log record with `lsn < hwm` is covered by the
//! snapshot, recovery replays only records at or above it.
//!
//! ```text
//! [b"BDBSNAP1"][hwm: u64 LE][payload_len: u64 LE][crc32: u32 LE][payload]
//! ```
//!
//! This 28-byte envelope has not changed since the first release; what
//! changed is the payload. `beliefdb-core` writes version 6 of it in the
//! varint codec of [`super::format`] (each world as its parent and its
//! last user, `R*` column by column with sorted front-coded string
//! dictionaries and bit-packed codes, statements grouped by world and
//! delta-coded) and reads versions 4 and 5, the older varint layouts, and
//! versions 1 to 3, the fixed-width ones, as well. The payload's version
//! byte is the file's 29th, right after this envelope. The CRC is what
//! catches damage the payload decoder cannot see, such as a flipped
//! letter inside a string.
//!
//! Writes go to a `.tmp` file, are fsynced, and renamed into place, so
//! a crash mid-snapshot leaves the previous snapshot untouched and at
//! most a stray temp file (ignored and cleaned on the next write).
//! Readers walk candidates from the highest LSN down and skip invalid
//! files, so a corrupt latest snapshot falls back to the previous one.

use super::format::crc32;
use crate::error::{Result, StorageError};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

const SNAPSHOT_MAGIC: &[u8; 8] = b"BDBSNAP1";
const SNAPSHOT_HEADER_LEN: usize = 28;

/// File name of the snapshot with high-water mark `hwm`.
pub fn snapshot_file_name(hwm: u64) -> String {
    format!("snapshot-{hwm:016x}.snap")
}

fn parse_snapshot_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("snapshot-")?.strip_suffix(".snap")?;
    u64::from_str_radix(hex, 16).ok()
}

/// List snapshot files in `dir`, highest LSN first.
pub fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(lsn) = entry.file_name().to_str().and_then(parse_snapshot_name) {
            out.push((lsn, entry.path()));
        }
    }
    out.sort_by_key(|&(lsn, _)| std::cmp::Reverse(lsn));
    Ok(out)
}

/// Atomically write a snapshot with high-water mark `hwm`.
pub fn write_snapshot(dir: &Path, hwm: u64, payload: &[u8]) -> Result<PathBuf> {
    let final_path = dir.join(snapshot_file_name(hwm));
    let tmp_path = dir.join(format!("{}.tmp", snapshot_file_name(hwm)));
    {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp_path)?;
        file.write_all(SNAPSHOT_MAGIC)?;
        file.write_all(&hwm.to_le_bytes())?;
        file.write_all(&(payload.len() as u64).to_le_bytes())?;
        file.write_all(&crc32(payload).to_le_bytes())?;
        file.write_all(payload)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp_path, &final_path)?;
    // fsync the directory so the rename itself is durable.
    File::open(dir)?.sync_all()?;
    Ok(final_path)
}

/// Read and validate one snapshot file.
pub fn read_snapshot(path: &Path) -> Result<(u64, Vec<u8>)> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < SNAPSHOT_HEADER_LEN || &bytes[..8] != SNAPSHOT_MAGIC {
        return Err(StorageError::Corrupt(format!(
            "{}: bad snapshot header",
            path.display()
        )));
    }
    let hwm = u64::from_le_bytes(bytes[8..16].try_into().expect("8"));
    let len = u64::from_le_bytes(bytes[16..24].try_into().expect("8")) as usize;
    let crc = u32::from_le_bytes(bytes[24..28].try_into().expect("4"));
    let payload = &bytes[SNAPSHOT_HEADER_LEN..];
    if payload.len() != len {
        return Err(StorageError::Corrupt(format!(
            "{}: payload is {} bytes, header says {len}",
            path.display(),
            payload.len()
        )));
    }
    if crc32(payload) != crc {
        return Err(StorageError::Corrupt(format!(
            "{}: snapshot checksum mismatch",
            path.display()
        )));
    }
    Ok((hwm, payload.to_vec()))
}

/// Load the newest valid snapshot, skipping corrupt candidates.
pub fn load_latest(dir: &Path) -> Result<Option<(u64, Vec<u8>)>> {
    for (_, path) in list_snapshots(dir)? {
        if let Ok(loaded) = read_snapshot(&path) {
            return Ok(Some(loaded));
        }
    }
    Ok(None)
}

/// Delete every snapshot older than `keep_hwm`, and any stray `.tmp`
/// files from interrupted writes. Returns the number of files removed.
pub fn prune(dir: &Path, keep_hwm: u64) -> Result<usize> {
    let mut removed = 0;
    for (lsn, path) in list_snapshots(dir)? {
        if lsn < keep_hwm {
            std::fs::remove_file(&path)?;
            removed += 1;
        }
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let is_tmp = name
            .to_str()
            .is_some_and(|n| n.starts_with("snapshot-") && n.ends_with(".tmp"));
        if is_tmp {
            std::fs::remove_file(entry.path())?;
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "beliefdb-snap-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_read_round_trip_and_latest_wins() {
        let dir = temp_dir("rt");
        write_snapshot(&dir, 3, b"old state").unwrap();
        write_snapshot(&dir, 9, b"new state").unwrap();
        let (hwm, payload) = load_latest(&dir).unwrap().unwrap();
        assert_eq!(hwm, 9);
        assert_eq!(payload, b"new state");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_latest_falls_back_to_previous() {
        let dir = temp_dir("fallback");
        write_snapshot(&dir, 3, b"good").unwrap();
        let newest = write_snapshot(&dir, 9, b"going bad").unwrap();
        // Flip a payload byte: CRC mismatch.
        let mut bytes = std::fs::read(&newest).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 1;
        std::fs::write(&newest, &bytes).unwrap();
        let (hwm, payload) = load_latest(&dir).unwrap().unwrap();
        assert_eq!((hwm, payload.as_slice()), (3, &b"good"[..]));
        // Truncated file is also skipped.
        std::fs::write(&newest, &bytes[..10]).unwrap();
        assert_eq!(load_latest(&dir).unwrap().unwrap().0, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_has_no_snapshot() {
        let dir = temp_dir("empty");
        assert!(load_latest(&dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_removes_old_and_tmp() {
        let dir = temp_dir("prune");
        write_snapshot(&dir, 1, b"a").unwrap();
        write_snapshot(&dir, 5, b"b").unwrap();
        write_snapshot(&dir, 9, b"c").unwrap();
        std::fs::write(dir.join("snapshot-ffff.snap.tmp"), b"stray").unwrap();
        let removed = prune(&dir, 9).unwrap();
        assert_eq!(removed, 3);
        let left = list_snapshots(&dir).unwrap();
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].0, 9);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
