//! Binary encoding primitives for the durability layer: CRC32, a
//! little-endian writer/reader pair, and [`Value`]/[`Row`] codecs.
//!
//! Everything on disk is built from these: WAL frames length-prefix and
//! checksum their payload (see [`super::wal`]), snapshots checksum the
//! serialized store (see [`super::snapshot`]), and `beliefdb-core`
//! encodes its logical log records with the same primitives so the
//! format is defined in exactly one place.

use crate::error::{Result, StorageError};
use crate::row::Row;
use crate::value::{Cell, Value};

// ---------------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the same
/// checksum zlib/ethernet use. Implemented in-tree because the build
/// environment has no network access for a crc crate.
///
/// Uses the slicing-by-8 technique: eight derived lookup tables let the
/// hot loop consume 8 bytes per iteration instead of 1 — the WAL and
/// the executor's spill files checksum every frame, so this is on the
/// per-row write path.
pub fn crc32(data: &[u8]) -> u32 {
    const fn tables() -> [[u32; 256]; 8] {
        let mut t = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[0][i] = c;
            i += 1;
        }
        let mut j = 1;
        while j < 8 {
            let mut i = 0;
            while i < 256 {
                t[j][i] = (t[j - 1][i] >> 8) ^ t[0][(t[j - 1][i] & 0xFF) as usize];
                i += 1;
            }
            j += 1;
        }
        t
    }
    static T: [[u32; 256]; 8] = tables();
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes(c[0..4].try_into().expect("4")) ^ crc;
        let hi = u32::from_le_bytes(c[4..8].try_into().expect("4"));
        crc = T[7][(lo & 0xFF) as usize]
            ^ T[6][((lo >> 8) & 0xFF) as usize]
            ^ T[5][((lo >> 16) & 0xFF) as usize]
            ^ T[4][((lo >> 24) & 0xFF) as usize]
            ^ T[3][(hi & 0xFF) as usize]
            ^ T[2][((hi >> 8) & 0xFF) as usize]
            ^ T[1][((hi >> 16) & 0xFF) as usize]
            ^ T[0][((hi >> 24) & 0xFF) as usize];
    }
    for &b in chunks.remainder() {
        crc = T[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Writer / reader
// ---------------------------------------------------------------------------

/// Little-endian append-only byte writer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Enc {
        Enc::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Clear the buffer for reuse (hot encoders — e.g. spill-file
    /// writers — keep one `Enc` instead of allocating per record).
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Overwrite a previously written `u32` at byte offset `pos`
    /// (length/count fields that are only known after the payload is
    /// encoded — e.g. the row count of a streaming spill block).
    ///
    /// # Panics
    /// Panics if `pos + 4` exceeds the encoded length.
    pub fn patch_u32(&mut self, pos: usize, v: u32) {
        self.buf[pos..pos + 4].copy_from_slice(&v.to_le_bytes());
    }

    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed (u32) byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    pub fn put_value(&mut self, v: &Value) {
        self.put_cell(v.as_cell());
    }

    /// A table cell in [`Enc::put_value`]'s encoding, read back by
    /// [`Dec::take_value`]: a heap can be written out without building
    /// its rows.
    pub fn put_cell(&mut self, c: Cell<'_>) {
        match c {
            Cell::Null => self.put_u8(0),
            Cell::Bool(b) => {
                self.put_u8(1);
                self.put_u8(b as u8);
            }
            Cell::Int(i) => {
                self.put_u8(2);
                self.put_i64(i);
            }
            Cell::Str(s) => {
                self.put_u8(3);
                self.put_str(s);
            }
        }
    }

    pub fn put_row(&mut self, row: &Row) {
        self.put_u32(row.arity() as u32);
        for v in row.values() {
            self.put_value(v);
        }
    }
}

/// Little-endian cursor over an encoded byte slice. Every read is
/// bounds-checked and surfaces [`StorageError::Corrupt`] on truncation,
/// so a decoder never panics on hostile input.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn need(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(StorageError::Corrupt(format!(
                "truncated record: wanted {n} bytes at offset {} of {}",
                self.pos,
                self.buf.len()
            ))),
        }
    }

    pub fn take_u8(&mut self) -> Result<u8> {
        Ok(self.need(1)?[0])
    }

    pub fn take_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.need(4)?.try_into().expect("4")))
    }

    pub fn take_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.need(8)?.try_into().expect("8")))
    }

    pub fn take_i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.need(8)?.try_into().expect("8")))
    }

    pub fn take_bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.take_u32()? as usize;
        self.need(n)
    }

    pub fn take_str(&mut self) -> Result<&'a str> {
        std::str::from_utf8(self.take_bytes()?)
            .map_err(|_| StorageError::Corrupt("invalid UTF-8 in string field".into()))
    }

    pub fn take_value(&mut self) -> Result<Value> {
        Ok(match self.take_u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.take_u8()? != 0),
            2 => Value::Int(self.take_i64()?),
            3 => Value::str(self.take_str()?),
            t => {
                return Err(StorageError::Corrupt(format!(
                    "unknown value tag {t} at offset {}",
                    self.pos - 1
                )))
            }
        })
    }

    pub fn take_row(&mut self) -> Result<Row> {
        let n = self.take_u32()? as usize;
        if n > self.remaining() {
            // Each value costs at least one byte; reject absurd arities
            // before allocating.
            return Err(StorageError::Corrupt(format!(
                "row arity {n} exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        let mut vals = Vec::with_capacity(n);
        for _ in 0..n {
            vals.push(self.take_value()?);
        }
        Ok(Row::new(vals))
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Assert the record was fully consumed (decoders call this last, so
    /// trailing garbage is detected instead of silently ignored).
    pub fn finish(self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(StorageError::Corrupt(format!(
                "{} trailing bytes after record",
                self.buf.len() - self.pos
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for "123456789" (CRC-32/ISO-HDLC).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn scalar_round_trips() {
        let mut e = Enc::new();
        e.put_u8(7);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX - 1);
        e.put_i64(-42);
        e.put_str("crow");
        e.put_bytes(&[1, 2, 3]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.take_u8().unwrap(), 7);
        assert_eq!(d.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.take_i64().unwrap(), -42);
        assert_eq!(d.take_str().unwrap(), "crow");
        assert_eq!(d.take_bytes().unwrap(), &[1, 2, 3]);
        d.finish().unwrap();
    }

    #[test]
    fn value_and_row_round_trip() {
        let r = row![Value::Null, true, -7, "bald eagle"];
        let mut e = Enc::new();
        e.put_row(&r);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.take_row().unwrap(), r);
        d.finish().unwrap();
    }

    #[test]
    fn truncation_and_garbage_are_corrupt_not_panics() {
        let mut e = Enc::new();
        e.put_row(&row![1, "x"]);
        let bytes = e.into_bytes();
        // Every strict prefix fails with Corrupt.
        for cut in 0..bytes.len() {
            let mut d = Dec::new(&bytes[..cut]);
            assert!(
                matches!(d.take_row(), Err(StorageError::Corrupt(_))),
                "prefix of {cut} bytes must be corrupt"
            );
        }
        // Trailing garbage is caught by finish().
        let mut with_garbage = bytes.clone();
        with_garbage.push(0xFF);
        let mut d = Dec::new(&with_garbage);
        d.take_row().unwrap();
        assert!(matches!(d.finish(), Err(StorageError::Corrupt(_))));
        // Unknown value tag.
        let mut d = Dec::new(&[9]);
        assert!(matches!(d.take_value(), Err(StorageError::Corrupt(_))));
        // Absurd arity rejected before allocation.
        let mut e = Enc::new();
        e.put_u32(u32::MAX);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(matches!(d.take_row(), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn invalid_utf8_is_corrupt() {
        let mut e = Enc::new();
        e.put_bytes(&[0xFF, 0xFE]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(matches!(d.take_str(), Err(StorageError::Corrupt(_))));
    }
}
