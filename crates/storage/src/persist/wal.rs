//! The write-ahead log: segmented, length-prefixed, CRC-checksummed
//! frames of opaque payloads.
//!
//! ## On-disk layout
//!
//! A log is a directory of segment files `wal-<first_lsn:016x>.log`.
//! Each segment starts with a 16-byte header (`b"BDBWAL02"` + the
//! segment's first LSN, little-endian) followed by frames:
//!
//! ```text
//! [payload_len: varint][crc32: u32 LE][payload bytes]
//! ```
//!
//! A frame's LSN is not written: frames are numbered densely from the
//! segment's `first_lsn`, and the CRC covers the LSN the frame must have
//! (8 bytes, little-endian) followed by the payload. A frame that was
//! torn mid-write (partial tail after a crash), bit-flipped at rest, or
//! dropped, duplicated or moved (its CRC was taken over another LSN) never
//! decodes as valid.
//!
//! Version-1 segments (`b"BDBWAL01"`) wrote the LSN out, in a 16-byte
//! frame header `[payload_len: u32][crc32: u32][lsn: u64]`. They are
//! still replayed, but never appended to: [`Wal::open_from_replay`]
//! starts a version-2 segment after one, so no segment mixes the two
//! frame formats.
//!
//! ## Recovery contract
//!
//! [`replay`] returns the longest valid prefix of the log. The first
//! invalid frame — torn tail or corrupt interior — ends the prefix: the
//! containing segment is truncated at the last valid frame boundary and
//! any later segments are deleted, so a subsequent append continues
//! from a consistent state and corruption is never propagated.
//!
//! ## Durability
//!
//! Appends flush to the OS on every frame (`BufWriter::flush`); real
//! power-loss durability additionally needs an fsync, which the log
//! issues at three points: [`Wal::sync`] (called by the engine after
//! every mutation batch when `sync_on_commit` is on — group commit, one
//! `sync_data` per batch), on segment rotation (the sealed file is
//! `sync_all`ed before its successor opens; a checkpoint rotates), and on
//! close (best-effort in `Drop`). Without `sync_on_commit` a power cut
//! can lose frames still in the OS page cache — never tear the log —
//! so the default trades the last few records for append throughput.

use super::format::{crc32, crc32_extend, decode_var, encode_var, MAX_VAR_LEN};
use crate::error::{Result, StorageError};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Magic bytes starting every segment file this log writes.
pub const SEGMENT_MAGIC: &[u8; 8] = b"BDBWAL02";

/// Frame format of the segments this log writes.
const SEGMENT_VERSION: u8 = 2;

/// Magic bytes of a version-1 segment (read, never written).
const SEGMENT_MAGIC_V1: &[u8; 8] = b"BDBWAL01";

/// Bytes before the first frame of a segment.
pub const SEGMENT_HEADER_LEN: u64 = 16;

/// Bytes of the shortest frame: a one-byte length and the CRC.
const MIN_FRAME_LEN: u64 = 5;

/// Fixed bytes per frame of a version-1 segment in addition to the
/// payload.
const FRAME_HEADER_LEN_V1: usize = 16;

/// Upper bound on a single frame payload; a corrupt length field must
/// not trigger a giant allocation.
const MAX_FRAME_PAYLOAD: usize = 1 << 26;

/// Refuse a payload the reader would refuse. Compares in `usize`, so a
/// payload of 4 GiB or more cannot wrap past the limit.
fn check_frame_len(len: usize) -> Result<()> {
    if len > MAX_FRAME_PAYLOAD {
        return Err(StorageError::Io(format!(
            "WAL payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte frame limit"
        )));
    }
    Ok(())
}

/// File name of the segment whose first record is `first_lsn`.
pub fn segment_file_name(first_lsn: u64) -> String {
    format!("wal-{first_lsn:016x}.log")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    u64::from_str_radix(hex, 16).ok()
}

/// Size/location facts about one live segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    pub first_lsn: u64,
    pub frames: u64,
    pub bytes: u64,
    /// Frame format: 2, or 1 for a segment an older writer left.
    pub version: u8,
}

/// Everything [`replay`] learned from a log directory.
#[derive(Debug)]
pub struct WalReplay {
    /// Valid records in LSN order: `(lsn, payload)`.
    pub records: Vec<(u64, Vec<u8>)>,
    /// Live segments in LSN order (the last one is the append target).
    pub segments: Vec<SegmentMeta>,
    /// The LSN the next append will receive.
    pub next_lsn: u64,
    /// Whether recovery truncated a torn tail or dropped corrupt frames.
    pub truncated: bool,
}

/// An open, appendable write-ahead log.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    writer: BufWriter<File>,
    active: SegmentMeta,
    sealed: Vec<SegmentMeta>,
    next_lsn: u64,
    segment_limit: u64,
    /// fsyncs issued (group commits, checkpoints, rotations).
    syncs: u64,
}

impl Wal {
    /// Create a fresh log in `dir` whose first record will be
    /// `start_lsn`. Any existing segment files are left untouched —
    /// callers recover first.
    pub fn create(dir: &Path, start_lsn: u64, segment_limit: u64) -> Result<Wal> {
        let (writer, active) = new_segment(dir, start_lsn)?;
        Ok(Wal {
            dir: dir.to_path_buf(),
            writer,
            active,
            sealed: Vec::new(),
            next_lsn: start_lsn,
            segment_limit: segment_limit.max(SEGMENT_HEADER_LEN + MIN_FRAME_LEN),
            syncs: 0,
        })
    }

    /// Reopen the log after [`replay`]: appends continue in the last
    /// live segment, or in a fresh one when the directory has none or
    /// the last one is a version-1 segment. That one is sealed as it is
    /// (fsynced first, as rotation does), or deleted when it holds no
    /// frame, since its successor takes its file name.
    pub fn open_from_replay(dir: &Path, replay: &WalReplay, segment_limit: u64) -> Result<Wal> {
        let Some((last, sealed)) = replay.segments.split_last() else {
            return Wal::create(dir, replay.next_lsn, segment_limit);
        };
        let path = dir.join(segment_file_name(last.first_lsn));
        if last.version != SEGMENT_VERSION {
            let mut sealed = sealed.to_vec();
            if last.frames == 0 {
                std::fs::remove_file(&path)?;
            } else {
                File::open(&path)?.sync_all()?;
                sealed.push(last.clone());
            }
            let mut wal = Wal::create(dir, replay.next_lsn, segment_limit)?;
            wal.sealed = sealed;
            return Ok(wal);
        }
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Wal {
            dir: dir.to_path_buf(),
            writer: BufWriter::new(file),
            active: last.clone(),
            sealed: sealed.to_vec(),
            next_lsn: replay.next_lsn,
            segment_limit: segment_limit.max(SEGMENT_HEADER_LEN + MIN_FRAME_LEN),
            syncs: 0,
        })
    }

    /// Append one payload; returns its LSN. The frame is flushed to the
    /// OS before returning. Rotates to a new segment when the active
    /// one exceeds the segment size limit.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64> {
        check_frame_len(payload.len())?;
        if self.active.bytes >= self.segment_limit {
            self.rotate()?;
        }
        let lsn = self.next_lsn;
        let mut header = [0u8; MAX_VAR_LEN + 4];
        let varint = header.first_chunk_mut().expect("the header holds a varint");
        let n = encode_var(payload.len() as u64, varint);
        let crc = crc32_extend(crc32(&lsn.to_le_bytes()), payload);
        header[n..n + 4].copy_from_slice(&crc.to_le_bytes());
        self.writer.write_all(&header[..n + 4])?;
        self.writer.write_all(payload)?;
        self.writer.flush()?;
        self.next_lsn += 1;
        self.active.frames += 1;
        self.active.bytes += (n + 4 + payload.len()) as u64;
        crate::obs::metrics().incr(crate::obs::Metric::WalAppends);
        Ok(lsn)
    }

    /// Flush buffered frames and `sync_data` the active segment: after
    /// this returns, every appended frame survives power loss. The
    /// engine calls this once per mutation batch when `sync_on_commit`
    /// is on (group commit).
    pub fn sync(&mut self) -> Result<()> {
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        self.syncs += 1;
        crate::obs::metrics().incr(crate::obs::Metric::WalSyncs);
        Ok(())
    }

    /// fsyncs issued since this log was opened.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Seal the active segment and start a new one at the current LSN.
    /// The sealed file is fsynced (`sync_all`: its length matters for
    /// replay) before the successor opens, so rotation never leaves a
    /// full segment only in the page cache. A no-op when the active
    /// segment is empty (it already starts at the current LSN, and
    /// sealing it would collide with its successor's file name).
    pub fn rotate(&mut self) -> Result<()> {
        self.writer.flush()?;
        if self.active.frames == 0 {
            return Ok(());
        }
        self.writer.get_ref().sync_all()?;
        self.syncs += 1;
        crate::obs::metrics().incr(crate::obs::Metric::WalSyncs);
        let (writer, active) = new_segment(&self.dir, self.next_lsn)?;
        self.sealed
            .push(std::mem::replace(&mut self.active, active));
        self.writer = writer;
        Ok(())
    }

    /// Delete every sealed segment file (all of whose records are below
    /// the current segment's first LSN). Called after a successful
    /// snapshot has made them redundant.
    pub fn prune_sealed(&mut self) -> Result<usize> {
        let n = self.sealed.len();
        for seg in self.sealed.drain(..) {
            let path = self.dir.join(segment_file_name(seg.first_lsn));
            std::fs::remove_file(&path)?;
        }
        Ok(n)
    }

    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Live segments, oldest first (sealed + active).
    pub fn segments(&self) -> Vec<SegmentMeta> {
        let mut out = self.sealed.clone();
        out.push(self.active.clone());
        out
    }

    /// Total frames across live segments.
    pub fn frames(&self) -> u64 {
        self.sealed.iter().map(|s| s.frames).sum::<u64>() + self.active.frames
    }

    /// Total bytes across live segments (headers included).
    pub fn bytes(&self) -> u64 {
        self.sealed.iter().map(|s| s.bytes).sum::<u64>() + self.active.bytes
    }
}

impl Drop for Wal {
    /// Best-effort close-time durability: flush and fsync the active
    /// segment. Errors are ignored (there is no way to report them from
    /// drop); callers needing a guaranteed sync call [`Wal::sync`].
    fn drop(&mut self) {
        let _ = self.writer.flush();
        let _ = self.writer.get_ref().sync_data();
    }
}

fn new_segment(dir: &Path, first_lsn: u64) -> Result<(BufWriter<File>, SegmentMeta)> {
    let path = dir.join(segment_file_name(first_lsn));
    let file = OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(&path)
        .map_err(|e| StorageError::Io(format!("create {}: {e}", path.display())))?;
    let mut writer = BufWriter::new(file);
    writer.write_all(SEGMENT_MAGIC)?;
    writer.write_all(&first_lsn.to_le_bytes())?;
    writer.flush()?;
    // fsync the *directory* so the new segment's entry itself survives
    // power loss — syncing file contents alone does not persist the
    // file's existence on all filesystems.
    File::open(dir)?.sync_all()?;
    Ok((
        writer,
        SegmentMeta {
            first_lsn,
            frames: 0,
            bytes: SEGMENT_HEADER_LEN,
            version: SEGMENT_VERSION,
        },
    ))
}

/// List the segment files of `dir` in LSN order.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some(lsn) = name.to_str().and_then(parse_segment_name) {
            out.push((lsn, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// Scan the log directory, returning the longest valid record prefix.
/// The segment containing the first invalid frame is truncated at the
/// last valid boundary and all later segments are deleted (see module
/// docs), so the directory is consistent when this returns.
pub fn replay(dir: &Path) -> Result<WalReplay> {
    replay_covered(dir, 0)
}

/// [`replay`], but segments **fully covered** by a snapshot high-water
/// mark (every record below `hwm`) are deleted without being scanned.
/// A stale pre-checkpoint segment — left behind when a crash lands
/// between snapshot write and segment pruning — is redundant by
/// construction, so corruption inside it must not cascade into the
/// valid post-snapshot tail the way an uncovered corrupt frame does.
pub fn replay_covered(dir: &Path, hwm: u64) -> Result<WalReplay> {
    let mut records = Vec::new();
    let mut segments = Vec::new();
    let mut truncated = false;
    let mut expected_lsn: Option<u64> = None;

    let mut listed = list_segments(dir)?;
    // A segment is fully covered when its successor starts at or below
    // the high-water mark (checkpoints rotate first, so the live
    // segment always starts exactly at its snapshot's hwm).
    while listed.len() >= 2 && listed[1].0 <= hwm {
        let (_, path) = listed.remove(0);
        std::fs::remove_file(&path)?;
    }
    let mut stop_at: Option<usize> = None;
    for (i, (first_lsn, path)) in listed.iter().enumerate() {
        // A gap between segments (or a bad header) invalidates this
        // segment and everything after it.
        let contiguous = expected_lsn.is_none_or(|e| e == *first_lsn);
        let scan = if contiguous {
            scan_segment(path, *first_lsn)?
        } else {
            SegmentScan {
                records: Vec::new(),
                valid_bytes: None,
                clean: false,
                version: 0,
            }
        };
        match scan.valid_bytes {
            None => {
                // Header invalid: remove the file entirely.
                std::fs::remove_file(path)?;
                truncated = true;
                stop_at = Some(i);
                break;
            }
            Some(valid_bytes) => {
                let frames = scan.records.len() as u64;
                expected_lsn = Some(first_lsn + frames);
                records.extend(scan.records);
                segments.push(SegmentMeta {
                    first_lsn: *first_lsn,
                    frames,
                    bytes: valid_bytes,
                    version: scan.version,
                });
                if !scan.clean {
                    // Torn or corrupt tail: cut it off and stop here.
                    let file = OpenOptions::new().write(true).open(path)?;
                    file.set_len(valid_bytes)?;
                    file.sync_all()?;
                    truncated = true;
                    stop_at = Some(i);
                    break;
                }
            }
        }
    }
    if let Some(stop) = stop_at {
        for (_, path) in &listed[stop + 1..] {
            std::fs::remove_file(path)?;
            truncated = true;
        }
    }
    let next_lsn = expected_lsn.unwrap_or(0);
    Ok(WalReplay {
        records,
        segments,
        next_lsn,
        truncated,
    })
}

struct SegmentScan {
    records: Vec<(u64, Vec<u8>)>,
    /// Byte length of the valid prefix, or `None` when even the header
    /// is unusable.
    valid_bytes: Option<u64>,
    /// True iff the whole file was valid.
    clean: bool,
    /// Frame format named by the header.
    version: u8,
}

/// The frame format and first LSN a segment's header names, or `None`
/// when it is not a segment header.
fn segment_header(bytes: &[u8]) -> Option<(u8, u64)> {
    let header = bytes.get(..SEGMENT_HEADER_LEN as usize)?;
    let version = match &header[..8] {
        m if m == SEGMENT_MAGIC => SEGMENT_VERSION,
        m if m == SEGMENT_MAGIC_V1 => 1,
        _ => return None,
    };
    Some((
        version,
        u64::from_le_bytes(header[8..].try_into().expect("8")),
    ))
}

/// Walk the frames of a segment file after its header: `(offset, frame
/// length, payload range)` of each valid one, in order. Stops at the
/// first frame that is torn or corrupt.
fn frames(
    bytes: &[u8],
    version: u8,
    first_lsn: u64,
) -> Vec<(usize, usize, std::ops::Range<usize>)> {
    let mut out = Vec::new();
    let mut pos = SEGMENT_HEADER_LEN as usize;
    let mut lsn = first_lsn;
    while pos < bytes.len() {
        let buf = &bytes[pos..];
        let frame = match version {
            SEGMENT_VERSION => decode_frame(buf, lsn),
            _ => decode_frame_v1(buf, lsn),
        };
        let Some((payload, frame_len)) = frame else {
            break;
        };
        out.push((pos, frame_len, pos + payload.start..pos + payload.end));
        pos += frame_len;
        lsn += 1;
    }
    out
}

fn scan_segment(path: &Path, first_lsn: u64) -> Result<SegmentScan> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let version = match segment_header(&bytes) {
        Some((version, lsn)) if lsn == first_lsn => version,
        _ => {
            return Ok(SegmentScan {
                records: Vec::new(),
                valid_bytes: None,
                clean: false,
                version: 0,
            })
        }
    };
    let valid = frames(&bytes, version, first_lsn);
    let end = valid
        .last()
        .map_or(SEGMENT_HEADER_LEN as usize, |(off, len, _)| off + len);
    let records = (first_lsn..)
        .zip(valid)
        .map(|(lsn, (_, _, payload))| (lsn, bytes[payload].to_vec()))
        .collect();
    Ok(SegmentScan {
        records,
        valid_bytes: Some(end as u64),
        clean: end == bytes.len(),
        version,
    })
}

/// Decode one version-2 frame at the start of `buf`, which must be the
/// frame of `expected_lsn`. Returns `(payload range, frame length)` or
/// `None` when the frame is torn or corrupt.
fn decode_frame(buf: &[u8], expected_lsn: u64) -> Option<(std::ops::Range<usize>, usize)> {
    let (len, n) = decode_var(buf).ok()?;
    let len = usize::try_from(len)
        .ok()
        .filter(|&l| l <= MAX_FRAME_PAYLOAD)?;
    let total = n + 4 + len;
    let frame = buf.get(..total)?;
    let crc = u32::from_le_bytes(frame[n..n + 4].try_into().expect("4"));
    let payload = n + 4..total;
    (crc32_extend(crc32(&expected_lsn.to_le_bytes()), &frame[payload.clone()]) == crc)
        .then_some((payload, total))
}

/// [`decode_frame`] for a version-1 frame, whose header holds its length,
/// CRC and LSN in 16 fixed bytes.
fn decode_frame_v1(buf: &[u8], expected_lsn: u64) -> Option<(std::ops::Range<usize>, usize)> {
    let header = buf.get(..FRAME_HEADER_LEN_V1)?;
    let payload_len = u32::from_le_bytes(header[0..4].try_into().expect("4")) as usize;
    if payload_len > MAX_FRAME_PAYLOAD {
        return None;
    }
    let total = FRAME_HEADER_LEN_V1 + payload_len;
    let frame = buf.get(..total)?;
    let crc = u32::from_le_bytes(frame[4..8].try_into().expect("4"));
    let body = &frame[8..];
    if crc32(body) != crc || u64::from_le_bytes(body[..8].try_into().expect("8")) != expected_lsn {
        return None;
    }
    Some((FRAME_HEADER_LEN_V1..total, total))
}

/// Byte spans `(offset, length)` of the valid frames in a segment file
/// of either version — exposed for fault-injection tests and offline
/// inspection tools.
pub fn frame_spans(path: &Path) -> Result<Vec<(u64, u64)>> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let Some((version, first_lsn)) = segment_header(&bytes) else {
        return Err(StorageError::Corrupt(format!(
            "{} is not a WAL segment",
            path.display()
        )));
    };
    Ok(frames(&bytes, version, first_lsn)
        .into_iter()
        .map(|(off, len, _)| (off as u64, len as u64))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "beliefdb-wal-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn payloads(replay: &WalReplay) -> Vec<Vec<u8>> {
        replay.records.iter().map(|(_, p)| p.clone()).collect()
    }

    #[test]
    fn append_and_replay_round_trip() {
        let dir = temp_dir("roundtrip");
        let mut wal = Wal::create(&dir, 0, 1 << 20).unwrap();
        for i in 0..10u8 {
            let lsn = wal.append(&[i; 5]).unwrap();
            assert_eq!(lsn, i as u64);
        }
        assert_eq!(wal.frames(), 10);
        drop(wal);
        let replay = replay(&dir).unwrap();
        assert!(!replay.truncated);
        assert_eq!(replay.next_lsn, 10);
        assert_eq!(
            payloads(&replay),
            (0..10u8).map(|i| vec![i; 5]).collect::<Vec<_>>()
        );
        // Reopen and continue.
        let mut wal = Wal::open_from_replay(&dir, &replay, 1 << 20).unwrap();
        assert_eq!(wal.append(b"more").unwrap(), 10);
        let replay = super::replay(&dir).unwrap();
        assert_eq!(replay.records.len(), 11);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut() {
        // A log of 3 frames truncated at every byte offset inside the
        // final frame must recover exactly the first two records.
        let dir = temp_dir("torn");
        let mut wal = Wal::create(&dir, 0, 1 << 20).unwrap();
        wal.append(b"alpha").unwrap();
        wal.append(b"beta").unwrap();
        wal.append(b"gamma").unwrap();
        drop(wal);
        let seg = dir.join(segment_file_name(0));
        let spans = frame_spans(&seg).unwrap();
        assert_eq!(spans.len(), 3);
        let full = std::fs::read(&seg).unwrap();
        let (last_off, last_len) = spans[2];
        for cut in last_off..last_off + last_len {
            std::fs::write(&seg, &full[..cut as usize]).unwrap();
            let replay = replay(&dir).unwrap();
            assert_eq!(
                payloads(&replay),
                vec![b"alpha".to_vec(), b"beta".to_vec()],
                "cut at {cut}"
            );
            assert_eq!(replay.next_lsn, 2);
            if cut > last_off {
                assert!(replay.truncated, "cut at {cut}");
            }
            // Replay repaired the file: a second replay is clean.
            let again = replay_file_len(&seg);
            assert_eq!(again, last_off, "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn replay_file_len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    #[test]
    fn corrupt_interior_frame_ends_the_prefix() {
        let dir = temp_dir("flip");
        let mut wal = Wal::create(&dir, 0, 1 << 20).unwrap();
        for i in 0..5u8 {
            wal.append(&[i; 8]).unwrap();
        }
        drop(wal);
        let seg = dir.join(segment_file_name(0));
        let spans = frame_spans(&seg).unwrap();
        let mut bytes = std::fs::read(&seg).unwrap();
        // Flip one payload byte of frame 2.
        let (off, len) = spans[2];
        bytes[(off + len - 1) as usize] ^= 0x40;
        std::fs::write(&seg, &bytes).unwrap();
        let replay = replay(&dir).unwrap();
        assert!(replay.truncated);
        assert_eq!(payloads(&replay), vec![vec![0u8; 8], vec![1u8; 8]]);
        assert_eq!(replay.next_lsn, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_splits_segments_and_later_corruption_drops_them() {
        let dir = temp_dir("rotate");
        // Tiny limit: every append rotates after the first.
        let mut wal = Wal::create(&dir, 0, 48).unwrap();
        for i in 0..6u8 {
            wal.append(&[i; 16]).unwrap();
        }
        assert!(wal.segments().len() >= 3, "{:?}", wal.segments());
        drop(wal);
        let replay1 = replay(&dir).unwrap();
        assert_eq!(replay1.records.len(), 6);
        assert_eq!(replay1.segments.len(), list_segments(&dir).unwrap().len());
        // Corrupt the second segment's first frame: later segments die.
        let (second_lsn, second_path) = list_segments(&dir).unwrap()[1].clone();
        let mut bytes = std::fs::read(&second_path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(&second_path, &bytes).unwrap();
        let replay2 = replay(&dir).unwrap();
        assert!(replay2.truncated);
        assert!(replay2.next_lsn < 6);
        assert!(replay2.records.iter().all(|(lsn, _)| *lsn < 6));
        // Only segments up to the corruption survive on disk.
        let live = list_segments(&dir).unwrap();
        assert!(live.iter().all(|(lsn, _)| *lsn <= second_lsn));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_counts_and_keeps_the_log_replayable() {
        let dir = temp_dir("sync");
        let mut wal = Wal::create(&dir, 0, 1 << 20).unwrap();
        assert_eq!(wal.syncs(), 0);
        wal.append(b"one").unwrap();
        wal.sync().unwrap();
        wal.append(b"two").unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.syncs(), 2);
        // Rotation fsyncs the sealed segment too.
        wal.rotate().unwrap();
        assert_eq!(wal.syncs(), 3);
        drop(wal);
        let replay = replay(&dir).unwrap();
        assert!(!replay.truncated);
        assert_eq!(payloads(&replay), vec![b"one".to_vec(), b"two".to_vec()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_sealed_removes_old_segments() {
        let dir = temp_dir("prune");
        let mut wal = Wal::create(&dir, 0, 48).unwrap();
        for i in 0..5u8 {
            wal.append(&[i; 16]).unwrap();
        }
        let before = list_segments(&dir).unwrap().len();
        assert!(before > 1);
        let pruned = wal.prune_sealed().unwrap();
        assert_eq!(pruned, before - 1);
        assert_eq!(list_segments(&dir).unwrap().len(), 1);
        // The survivor still replays.
        drop(wal);
        let replay = replay(&dir).unwrap();
        assert!(!replay.records.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_header_kills_the_segment() {
        let dir = temp_dir("header");
        let mut wal = Wal::create(&dir, 0, 1 << 20).unwrap();
        wal.append(b"x").unwrap();
        drop(wal);
        let seg = dir.join(segment_file_name(0));
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes[0] = b'X';
        std::fs::write(&seg, &bytes).unwrap();
        let replay = replay(&dir).unwrap();
        assert!(replay.records.is_empty());
        assert!(replay.truncated);
        assert!(list_segments(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn frame_limit_is_checked_without_wrapping() {
        assert!(check_frame_len(0).is_ok());
        assert!(check_frame_len(MAX_FRAME_PAYLOAD).is_ok());
        for len in [
            MAX_FRAME_PAYLOAD + 1,
            u32::MAX as usize,
            u32::MAX as usize + 1,
        ] {
            assert!(
                matches!(check_frame_len(len), Err(StorageError::Io(_))),
                "{len} bytes"
            );
        }
        // `u32::MAX + 1` wrapped to 0 under a `u32` comparison.
        assert_eq!((u32::MAX as usize + 1) as u32, 0);
    }

    #[test]
    fn a_frame_costs_its_varint_length_and_crc() {
        let dir = temp_dir("size");
        let mut wal = Wal::create(&dir, 7, 1 << 20).unwrap();
        for len in [0usize, 127, 128, 300] {
            let before = wal.bytes();
            wal.append(&vec![0xAB; len]).unwrap();
            let header = if len < 128 { 1 } else { 2 };
            assert_eq!(wal.bytes() - before, (header + 4 + len) as u64, "{len}");
        }
        drop(wal);
        let seg = dir.join(segment_file_name(7));
        assert_eq!(&std::fs::read(&seg).unwrap()[..8], SEGMENT_MAGIC);
        let lens: Vec<u64> = frame_spans(&seg).unwrap().iter().map(|s| s.1).collect();
        assert_eq!(lens, [5, 132, 134, 306]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// No frame carries its LSN, so the CRC is all that ties a frame to
    /// its place: a frame dropped, repeated or swapped with its neighbour
    /// ends the valid prefix where it lands.
    #[test]
    fn a_dropped_repeated_or_swapped_frame_fails_its_crc() {
        let dir = temp_dir("implied");
        let mut wal = Wal::create(&dir, 0, 1 << 20).unwrap();
        for p in [b"one", b"two", b"six"] {
            wal.append(p).unwrap();
        }
        drop(wal);
        let seg = dir.join(segment_file_name(0));
        let full = std::fs::read(&seg).unwrap();
        let spans = frame_spans(&seg).unwrap();
        let frame = |k: usize| {
            let (off, len) = spans[k];
            &full[off as usize..(off + len) as usize]
        };
        let header = &full[..SEGMENT_HEADER_LEN as usize];
        let layouts: [(&str, Vec<&[u8]>, usize); 3] = [
            ("dropped", vec![frame(0), frame(2)], 1),
            ("repeated", vec![frame(0), frame(0), frame(1)], 1),
            ("swapped", vec![frame(1), frame(0), frame(2)], 0),
        ];
        for (what, frames, valid) in layouts {
            let mut bytes = header.to_vec();
            for f in &frames {
                bytes.extend_from_slice(f);
            }
            std::fs::write(&seg, &bytes).unwrap();
            let replay = replay(&dir).unwrap();
            assert!(replay.truncated, "{what}");
            assert_eq!(replay.records.len(), valid, "{what}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A version-1 segment as the old writer framed it: 16-byte header
    /// with the LSN written out.
    fn write_v1_segment(dir: &Path, first_lsn: u64, payloads: &[&[u8]]) {
        let mut bytes = SEGMENT_MAGIC_V1.to_vec();
        bytes.extend_from_slice(&first_lsn.to_le_bytes());
        for (lsn, p) in (first_lsn..).zip(payloads) {
            let mut body = lsn.to_le_bytes().to_vec();
            body.extend_from_slice(p);
            bytes.extend_from_slice(&(p.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32(&body).to_le_bytes());
            bytes.extend_from_slice(&body);
        }
        std::fs::write(dir.join(segment_file_name(first_lsn)), bytes).unwrap();
    }

    #[test]
    fn version_1_segments_replay_and_appends_go_to_a_version_2_one() {
        let dir = temp_dir("v1");
        write_v1_segment(&dir, 0, &[b"old", b"older"]);
        let seg0 = dir.join(segment_file_name(0));
        assert_eq!(frame_spans(&seg0).unwrap(), [(16, 19), (35, 21)]);
        let replayed = replay(&dir).unwrap();
        assert!(!replayed.truncated);
        assert_eq!(payloads(&replayed), [b"old".to_vec(), b"older".to_vec()]);
        assert_eq!(replayed.segments[0].version, 1);
        let v1_bytes = std::fs::read(&seg0).unwrap();
        let mut wal = Wal::open_from_replay(&dir, &replayed, 1 << 20).unwrap();
        assert_eq!(wal.append(b"new").unwrap(), 2);
        drop(wal);
        // The old segment is untouched; the append opened segment 2.
        assert_eq!(std::fs::read(&seg0).unwrap(), v1_bytes);
        let live = list_segments(&dir).unwrap();
        assert_eq!(live.iter().map(|s| s.0).collect::<Vec<_>>(), [0, 2]);
        assert_eq!(&std::fs::read(&live[1].1).unwrap()[..8], SEGMENT_MAGIC);
        let again = replay(&dir).unwrap();
        assert_eq!(
            again.segments.iter().map(|s| s.version).collect::<Vec<_>>(),
            [1, 2]
        );
        assert_eq!(payloads(&again).len(), 3);

        // An empty version-1 segment is replaced by a version-2 one.
        let dir2 = temp_dir("v1-empty");
        write_v1_segment(&dir2, 5, &[]);
        let replayed = replay(&dir2).unwrap();
        let mut wal = Wal::open_from_replay(&dir2, &replayed, 1 << 20).unwrap();
        assert_eq!(wal.append(b"x").unwrap(), 5);
        drop(wal);
        let live = list_segments(&dir2).unwrap();
        assert_eq!(live.len(), 1);
        assert_eq!(&std::fs::read(&live[0].1).unwrap()[..8], SEGMENT_MAGIC);
        assert_eq!(payloads(&replay(&dir2).unwrap()), [b"x".to_vec()]);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }
}
