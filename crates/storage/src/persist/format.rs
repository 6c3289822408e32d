//! Binary encoding primitives for the durability layer: CRC32, one
//! compact codec (an [`Enc`] writer and a [`Dec`] reader), and the
//! [`Value`]/[`Row`] encodings built on it.
//!
//! The codec writes lengths, counts and ids as LEB128 varints (seven bits
//! a byte, low group first, the high bit set on every byte but the last)
//! and integers as zig-zag varints, so small values of either sign take
//! one byte. A varint is read back only in its shortest form: an overlong,
//! unterminated or more than ten-byte one is [`StorageError::Corrupt`], so
//! one value has one encoding and a decoder never panics on hostile input.
//!
//! Everything on disk is built from these: WAL frames varint-prefix and
//! checksum their payload (see [`super::wal`]), snapshots checksum the
//! serialized store (see [`super::snapshot`]), spill runs write their rows
//! with them, and `beliefdb-core` encodes its log records and snapshot
//! payloads with the same primitives, so the format is defined in exactly
//! one place. [`Dec::fixed`] reads the fixed-width layout that WAL v1
//! segments and snapshots v1 to v3 were written in; nothing writes it.
//!
//! Beside the varints, [`Enc::put_packed`] and [`Dec::take_packed`] write
//! and read a run of small codes bit-packed at one width (snapshots v5 and
//! v6 write `R*`'s string codes with them), and [`Enc::put_sorted_strs`]
//! and [`Dec::take_sorted_strs`] a sorted string dictionary front-coded
//! (snapshot v6 writes `R*`'s dictionaries with them).

use crate::error::{Result, StorageError};
use crate::row::Row;
use crate::value::{Cell, Str, Value};

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
    crc32_extend(0, data)
}

/// The CRC-32 of `a` followed by `data`, given `crc = crc32(a)`: a
/// checksum over bytes that are not contiguous in memory (a WAL frame's
/// implied LSN and its payload) without copying them together.
pub fn crc32_extend(crc: u32, data: &[u8]) -> u32 {
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
    let mut crc = !crc;
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
    !crc
}

// ---------------------------------------------------------------------------
// Varints
// ---------------------------------------------------------------------------

/// Longest varint: ten bytes hold 64 bits.
pub const MAX_VAR_LEN: usize = 10;

/// `v` as a LEB128 varint at the start of `out`; returns the bytes used.
pub fn encode_var(mut v: u64, out: &mut [u8; MAX_VAR_LEN]) -> usize {
    let mut n = 0;
    while v >= 0x80 {
        out[n] = v as u8 | 0x80;
        v >>= 7;
        n += 1;
    }
    out[n] = v as u8;
    n + 1
}

/// The varint at the start of `buf` and the bytes it took, or why it is
/// not one: unterminated, longer than ten bytes, past 64 bits, or longer
/// than the shortest encoding of its value.
pub fn decode_var(buf: &[u8]) -> std::result::Result<(u64, usize), &'static str> {
    let mut v = 0u64;
    for (i, &b) in buf.iter().take(MAX_VAR_LEN).enumerate() {
        if i == MAX_VAR_LEN - 1 && b & 0x80 != 0 {
            return Err("varint longer than ten bytes");
        }
        if i == MAX_VAR_LEN - 1 && b > 1 {
            return Err("varint past 64 bits");
        }
        v |= u64::from(b & 0x7F) << (7 * i);
        if b & 0x80 == 0 {
            if b == 0 && i > 0 {
                return Err("overlong varint");
            }
            return Ok((v, i + 1));
        }
    }
    Err("unterminated varint")
}

/// An integer with its sign in the lowest bit, so that small values of
/// either sign make short varints (and narrow heap lanes).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)).cast_unsigned()
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    (v >> 1).cast_signed() ^ -(v & 1).cast_signed()
}

// ---------------------------------------------------------------------------
// Bit packing
// ---------------------------------------------------------------------------

/// Widest code [`Enc::put_packed`] writes and [`Dec::take_packed`] reads.
pub const MAX_PACKED_WIDTH: u32 = 32;

/// Bits that hold `v`: 0 for 0, else one past its highest set bit.
#[inline]
pub fn bit_width(v: u32) -> u32 {
    u32::BITS - v.leading_zeros()
}

/// Bytes that `n` codes of `width` bits take packed, or `None` when the
/// bit count overflows.
fn packed_len(n: usize, width: u32) -> Option<usize> {
    n.checked_mul(width as usize).map(|bits| bits.div_ceil(8))
}

// ---------------------------------------------------------------------------
// Writer / reader
// ---------------------------------------------------------------------------

/// Value tags of [`Enc::put_cell`] / [`Dec::take_value`].
const VALUE_NULL: u8 = 0;
const VALUE_BOOL: u8 = 1;
const VALUE_INT: u8 = 2;
const VALUE_STR: u8 = 3;

/// Append-only byte writer in the varint codec.
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

    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A length, count or id: a LEB128 varint.
    #[inline]
    pub fn put_var(&mut self, v: u64) {
        if v < 0x80 {
            self.buf.push(v as u8);
            return;
        }
        let mut out = [0; MAX_VAR_LEN];
        let n = encode_var(v, &mut out);
        self.buf.extend_from_slice(&out[..n]);
    }

    /// An integer: a zig-zag varint.
    pub fn put_zig(&mut self, v: i64) {
        self.put_var(zigzag(v));
    }

    /// Length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_var(v.len() as u64);
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
    /// [`Dec::take_value`]: a tag byte, then nothing (NULL), one byte
    /// (Bool), a zig-zag varint (Int) or a string. A heap can be written
    /// out without building its rows.
    pub fn put_cell(&mut self, c: Cell<'_>) {
        match c {
            Cell::Null => self.put_u8(VALUE_NULL),
            Cell::Bool(b) => {
                self.put_u8(VALUE_BOOL);
                self.put_u8(b as u8);
            }
            Cell::Int(i) => {
                self.put_u8(VALUE_INT);
                self.put_zig(i);
            }
            Cell::Str(s) => {
                self.put_u8(VALUE_STR);
                self.put_bytes(s.as_bytes());
            }
        }
    }

    /// `values` as one bit string, `width` bits each (at most
    /// [`MAX_PACKED_WIDTH`]): the first value in the lowest bits of the
    /// first byte, each byte filled from its low bit up, the last byte
    /// padded with zero bits. Nothing marks the width or the count; the
    /// reader is told both ([`Dec::take_packed`]). Width 0 writes nothing.
    pub fn put_packed(&mut self, width: u32, values: impl IntoIterator<Item = u32>) {
        debug_assert!(width <= MAX_PACKED_WIDTH);
        let mut acc = 0u64;
        let mut bits = 0;
        for v in values {
            debug_assert!(bit_width(v) <= width, "{v} wider than {width} bits");
            acc |= u64::from(v) << bits;
            bits += width;
            while bits >= 8 {
                self.buf.push(acc as u8);
                acc >>= 8;
                bits -= 8;
            }
        }
        if bits > 0 {
            self.buf.push(acc as u8);
        }
    }

    /// Strictly ascending strings, front-coded in the layout of Parquet's
    /// `DELTA_BYTE_ARRAY`: a varint count, then per string the number of
    /// bytes it shares with the one before (a varint, the longest common
    /// prefix, which may end inside a character) and the rest of its bytes
    /// length-prefixed. Read back by [`Dec::take_sorted_strs`].
    pub fn put_sorted_strs(&mut self, strs: &[&str]) {
        self.put_var(strs.len() as u64);
        let mut prev: &[u8] = &[];
        for (i, s) in strs.iter().enumerate() {
            let s = s.as_bytes();
            debug_assert!(i == 0 || prev < s, "strings not strictly ascending");
            let shared = prev.iter().zip(s).take_while(|(a, b)| a == b).count();
            self.put_var(shared as u64);
            self.put_bytes(&s[shared..]);
            prev = s;
        }
    }

    /// A varint arity, then one value per column.
    pub fn put_row(&mut self, row: &Row) {
        self.put_var(row.arity() as u64);
        for v in row.values() {
            self.put_value(v);
        }
    }
}

/// Cursor over an encoded byte slice. Every read is bounds-checked and
/// surfaces [`StorageError::Corrupt`] on truncation, so a decoder never
/// panics on hostile input. A count is checked against the bytes left
/// before anything is read or allocated for it.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Read the fixed-width layout instead of varints (see [`Dec::fixed`]).
    fixed: bool,
}

impl<'a> Dec<'a> {
    /// A reader of the varint codec [`Enc`] writes.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec {
            buf,
            pos: 0,
            fixed: false,
        }
    }

    /// A reader of the fixed-width layout of WAL v1 payloads and
    /// snapshots v1 to v3: lengths, counts and ids as little-endian `u32`,
    /// integers as little-endian `i64`, the same value tags. Only
    /// [`Dec::take_len`], [`Dec::take_id`], [`Dec::take_int`] and the reads
    /// built on them differ from the varint codec.
    pub fn fixed(buf: &'a [u8]) -> Dec<'a> {
        Dec {
            buf,
            pos: 0,
            fixed: true,
        }
    }

    fn corrupt(&self, what: impl std::fmt::Display) -> StorageError {
        StorageError::Corrupt(format!(
            "{what} at offset {} of {}",
            self.pos,
            self.buf.len()
        ))
    }

    #[inline]
    fn need(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(self.corrupt(format_args!("truncated record: wanted {n} bytes"))),
        }
    }

    #[inline]
    pub fn take_u8(&mut self) -> Result<u8> {
        Ok(self.need(1)?[0])
    }

    #[inline]
    fn take_fixed<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.need(N)?.try_into().expect("need returns N bytes"))
    }

    /// A varint in its shortest form; the fixed layout's counts and ids
    /// are read by [`Dec::take_len`] and [`Dec::take_id`] instead.
    #[inline]
    pub fn take_var(&mut self) -> Result<u64> {
        // Most lengths, counts and ids fit one byte.
        if let Some(&b) = self.buf.get(self.pos).filter(|&&b| b < 0x80) {
            self.pos += 1;
            return Ok(u64::from(b));
        }
        self.take_long_var()
    }

    /// [`Dec::take_var`] past its one-byte case, kept out of line so that
    /// the one-byte case inlines into every read built on it.
    #[inline(never)]
    fn take_long_var(&mut self) -> Result<u64> {
        match decode_var(&self.buf[self.pos..]) {
            Ok((v, n)) => {
                self.pos += n;
                Ok(v)
            }
            Err(why) => Err(self.corrupt(why)),
        }
    }

    /// A zig-zag varint.
    pub fn take_zig(&mut self) -> Result<i64> {
        Ok(unzigzag(self.take_var()?))
    }

    /// A length or a count of items that take at least a byte each: a
    /// varint (a `u32` in the fixed layout), rejected when it exceeds the
    /// bytes left, so no caller sizes anything from a count the payload
    /// cannot back.
    #[inline]
    pub fn take_len(&mut self) -> Result<usize> {
        let n = self.take_count()?;
        match usize::try_from(n) {
            Ok(n) if n <= self.remaining() => Ok(n),
            _ => Err(self.corrupt(format_args!(
                "count {n} exceeds the {} bytes left",
                self.remaining()
            ))),
        }
    }

    /// A length or count as written: a varint, or a `u32` in the fixed
    /// layout.
    #[inline]
    fn take_count(&mut self) -> Result<u64> {
        if self.fixed {
            Ok(u64::from(u32::from_le_bytes(self.take_fixed()?)))
        } else {
            self.take_var()
        }
    }

    /// A 32-bit id: a varint below 2^32 (a `u32` in the fixed layout).
    #[inline]
    pub fn take_id(&mut self) -> Result<u32> {
        if self.fixed {
            return Ok(u32::from_le_bytes(self.take_fixed()?));
        }
        let v = self.take_var()?;
        u32::try_from(v).map_err(|_| self.corrupt(format_args!("id {v} past 32 bits")))
    }

    /// An integer: a zig-zag varint (an `i64` in the fixed layout).
    pub fn take_int(&mut self) -> Result<i64> {
        if self.fixed {
            return Ok(i64::from_le_bytes(self.take_fixed()?));
        }
        self.take_zig()
    }

    pub fn take_bytes(&mut self) -> Result<&'a [u8]> {
        // `need` checks the length against the bytes left (and is cheaper
        // on this, the hottest read, than `take_len`'s check and message).
        let n = self.take_count()?;
        self.need(usize::try_from(n).unwrap_or(usize::MAX))
    }

    pub fn take_str(&mut self) -> Result<&'a str> {
        std::str::from_utf8(self.take_bytes()?)
            .map_err(|_| self.corrupt("invalid UTF-8 in string field"))
    }

    /// The strings [`Enc::put_sorted_strs`] wrote. Only that form is
    /// accepted: after the first string, each one shares exactly its
    /// longest common prefix with the one before and is greater, so a
    /// shared count past the string before, a rest that is empty, starts
    /// with the byte the prefix could have taken, or sorts lower, is
    /// [`StorageError::Corrupt`]; so is a string that is not UTF-8 once
    /// put together.
    pub fn take_sorted_strs(&mut self) -> Result<Vec<Str>> {
        // Each string takes two bytes at least.
        let n = self.take_len()?;
        let mut strs = Vec::with_capacity(n);
        let mut cur: Vec<u8> = Vec::new();
        for i in 0..n {
            let shared = self.take_var()?;
            let rest = self.take_bytes()?;
            let shared = usize::try_from(shared)
                .ok()
                .filter(|&p| p <= cur.len())
                .ok_or_else(|| {
                    self.corrupt(format_args!(
                        "string {i} shares {shared} bytes of {}",
                        cur.len()
                    ))
                })?;
            let canonical = i == 0
                || match (rest.first(), cur.get(shared)) {
                    (Some(next), Some(prev)) => next > prev,
                    (next, _) => next.is_some(),
                };
            if !canonical {
                return Err(self.corrupt(format_args!(
                    "string {i} not above the one before on its longest common prefix"
                )));
            }
            cur.truncate(shared);
            cur.extend_from_slice(rest);
            let s = std::str::from_utf8(&cur)
                .map_err(|_| self.corrupt(format_args!("string {i} is not UTF-8")))?;
            strs.push(Str::new(s));
        }
        Ok(strs)
    }

    pub fn take_value(&mut self) -> Result<Value> {
        Ok(match self.take_u8()? {
            VALUE_NULL => Value::Null,
            VALUE_BOOL => Value::Bool(self.take_u8()? != 0),
            VALUE_INT => Value::Int(self.take_int()?),
            VALUE_STR => Value::str(self.take_str()?),
            t => return Err(self.corrupt(format_args!("unknown value tag {t}"))),
        })
    }

    pub fn take_row(&mut self) -> Result<Row> {
        // Each value costs at least its tag byte, so `take_len` has checked
        // that the payload holds `n` more values before this allocates.
        let n = self.take_len()?;
        Row::try_from_fn(n, |_| self.take_value())
    }

    /// `n` codes of `width` bits as [`Enc::put_packed`] wrote them. A width
    /// past [`MAX_PACKED_WIDTH`], fewer than `n · width` bits left, or a
    /// set padding bit is [`StorageError::Corrupt`]. The bytes are checked
    /// and consumed here; the codes are read as the iterator is walked.
    /// At width 0 nothing backs the `n` codes, so the caller bounds `n`.
    pub fn take_packed(&mut self, n: usize, width: u32) -> Result<Packed<'a>> {
        if width > MAX_PACKED_WIDTH {
            return Err(self.corrupt(format_args!("bit width {width} past {MAX_PACKED_WIDTH}")));
        }
        let len = packed_len(n, width)
            .filter(|&len| len <= self.remaining())
            .ok_or_else(|| {
                self.corrupt(format_args!(
                    "{n} codes of {width} bits past the {} bytes left",
                    self.remaining()
                ))
            })?;
        let bytes = self.need(len)?;
        let tail = (n * width as usize % 8) as u32;
        if tail > 0 && bytes[len - 1] >> tail != 0 {
            return Err(self.corrupt("set padding bits after packed codes"));
        }
        Ok(Packed {
            bytes,
            width,
            left: n,
            acc: 0,
            bits: 0,
        })
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

/// The codes of [`Dec::take_packed`], in the order they were written.
#[derive(Debug, Clone)]
pub struct Packed<'a> {
    /// The packed bytes not yet loaded into `acc`.
    bytes: &'a [u8],
    width: u32,
    /// Codes not yet returned.
    left: usize,
    acc: u64,
    /// Bits loaded in `acc`.
    bits: u32,
}

impl Iterator for Packed<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        while self.bits < self.width {
            // `take_packed` checked that the bytes hold every code.
            let (&b, rest) = self.bytes.split_first().expect("packed bytes checked");
            self.acc |= u64::from(b) << self.bits;
            self.bytes = rest;
            self.bits += 8;
        }
        let v = (self.acc & ((1u64 << self.width) - 1)) as u32;
        self.acc >>= self.width;
        self.bits -= self.width;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Packed<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use proptest::prelude::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for "123456789" (CRC-32/ISO-HDLC).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
        // Extending a checksum equals checksumming the concatenation.
        assert_eq!(crc32_extend(crc32(b"1234"), b"56789"), 0xCBF4_3926);
    }

    #[test]
    fn scalar_round_trips() {
        let mut e = Enc::new();
        e.put_u8(7);
        e.put_var(0xDEAD_BEEF);
        e.put_var(u64::MAX - 1);
        e.put_zig(-42);
        e.put_str("crow");
        e.put_bytes(&[1, 2, 3]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.take_u8().unwrap(), 7);
        assert_eq!(d.take_id().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.take_var().unwrap(), u64::MAX - 1);
        assert_eq!(d.take_int().unwrap(), -42);
        assert_eq!(d.take_str().unwrap(), "crow");
        assert_eq!(d.take_bytes().unwrap(), &[1, 2, 3]);
        d.finish().unwrap();
        // One byte for each of the small ones.
        assert_eq!(bytes.len(), 1 + 5 + 10 + 1 + 5 + 4);
    }

    #[test]
    fn value_and_row_round_trip() {
        let r = row![Value::Null, true, -7, "bald eagle"];
        let mut e = Enc::new();
        e.put_row(&r);
        let bytes = e.into_bytes();
        // Arity, then a tag and a body per value: 1 + 1 + 2 + 2 + 12 bytes.
        assert_eq!(bytes.len(), 18);
        let mut d = Dec::new(&bytes);
        assert_eq!(d.take_row().unwrap(), r);
        d.finish().unwrap();
    }

    /// The fixed-width layout of WAL v1 payloads and snapshots v1 to v3,
    /// written here by hand because nothing else writes it any more.
    #[test]
    fn fixed_layout_reads_what_the_old_writer_wrote() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&2u32.to_le_bytes()); // arity
        bytes.push(2);
        bytes.extend_from_slice(&(-7i64).to_le_bytes());
        bytes.push(3);
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(b"crow");
        bytes.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes()); // an id
        let mut d = Dec::fixed(&bytes);
        assert_eq!(d.take_row().unwrap(), row![-7, "crow"]);
        assert_eq!(d.take_id().unwrap(), 0xDEAD_BEEF);
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
        // Absurd arity rejected before allocation, in both layouts.
        let mut e = Enc::new();
        e.put_var(u64::MAX);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(matches!(d.take_row(), Err(StorageError::Corrupt(_))));
        let mut d = Dec::fixed(&[0xFF; 4]);
        assert!(matches!(d.take_row(), Err(StorageError::Corrupt(_))));
        // An id past 32 bits.
        let mut e = Enc::new();
        e.put_var(1 << 32);
        let bytes = e.into_bytes();
        assert!(matches!(
            Dec::new(&bytes).take_id(),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn invalid_utf8_is_corrupt() {
        let mut e = Enc::new();
        e.put_bytes(&[0xFF, 0xFE]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(matches!(d.take_str(), Err(StorageError::Corrupt(_))));
    }

    fn var_bytes(v: u64) -> Vec<u8> {
        let mut e = Enc::new();
        e.put_var(v);
        e.into_bytes()
    }

    #[test]
    fn varints_at_their_edges() {
        let edges: [(u64, &[u8]); 6] = [
            (0, &[0x00]),
            (127, &[0x7F]),
            (128, &[0x80, 0x01]),
            (300, &[0xAC, 0x02]),
            (
                1 << 63,
                &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01],
            ),
            (
                u64::MAX,
                &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01],
            ),
        ];
        for (v, encoded) in edges {
            assert_eq!(var_bytes(v), encoded, "{v}");
            assert_eq!(decode_var(encoded), Ok((v, encoded.len())), "{v}");
        }
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            let mut e = Enc::new();
            e.put_zig(v);
            let bytes = e.into_bytes();
            assert_eq!(Dec::new(&bytes).take_zig().unwrap(), v);
        }
        assert_eq!(
            (zigzag(i64::MAX), zigzag(i64::MIN)),
            (u64::MAX - 1, u64::MAX)
        );
    }

    #[test]
    fn malformed_varints_are_errors() {
        let cases: [(&[u8], &str); 6] = [
            (&[], "unterminated varint"),
            (&[0x80], "unterminated varint"),
            (&[0xFF; 9], "unterminated varint"),
            // Zero and 1 spelled in two bytes: a value has one encoding.
            (&[0x80, 0x00], "overlong varint"),
            (&[0x81, 0x80, 0x00], "overlong varint"),
            (&[0xFF; 11], "varint longer than ten bytes"),
        ];
        for (bytes, why) in cases {
            assert_eq!(decode_var(bytes), Err(why), "{bytes:x?}");
            let mut d = Dec::new(bytes);
            assert!(matches!(d.take_var(), Err(StorageError::Corrupt(_))));
        }
        // A tenth byte may carry bit 63 and nothing more.
        let mut past = [0xFF; 10];
        past[9] = 0x02;
        assert_eq!(decode_var(&past), Err("varint past 64 bits"));
    }

    #[test]
    fn packed_codes_at_their_edges() {
        assert_eq!((bit_width(0), bit_width(1), bit_width(255)), (0, 1, 8));
        assert_eq!((bit_width(256), bit_width(u32::MAX)), (9, 32));
        // Low bits first: 1, 2, 3 at three bits fill bits 0–8.
        let mut e = Enc::new();
        e.put_packed(3, [1, 2, 3]);
        assert_eq!(e.bytes(), [0b1101_0001, 0b0000_0000]);
        let codes: Vec<u32> = Dec::new(e.bytes()).take_packed(3, 3).unwrap().collect();
        assert_eq!(codes, [1, 2, 3]);
        // Full width, and width 0 (no bytes at all).
        let mut e = Enc::new();
        e.put_packed(32, [u32::MAX, 0, 7]);
        e.put_packed(0, [0, 0]);
        assert_eq!(e.bytes().len(), 12);
        let mut d = Dec::new(e.bytes());
        let codes: Vec<u32> = d.take_packed(3, 32).unwrap().collect();
        assert_eq!(codes, [u32::MAX, 0, 7]);
        assert_eq!(d.take_packed(5, 0).unwrap().collect::<Vec<_>>(), [0; 5]);
        d.finish().unwrap();
    }

    #[test]
    fn malformed_packed_runs_are_corrupt() {
        let mut e = Enc::new();
        e.put_packed(5, [31, 0, 17]);
        let bytes = e.into_bytes();
        assert_eq!(bytes.len(), 2);
        let corrupt = |r: Result<Packed<'_>>| matches!(r, Err(StorageError::Corrupt(_)));
        // A width past 32 bits, with bytes enough for it.
        assert!(corrupt(Dec::new(&[0; 8]).take_packed(1, 33)));
        // Fewer bytes than n · width bits, and a bit count past usize.
        assert!(corrupt(Dec::new(&bytes).take_packed(4, 5)));
        assert!(corrupt(Dec::new(&bytes[..1]).take_packed(3, 5)));
        assert!(corrupt(Dec::new(&bytes).take_packed(usize::MAX, 2)));
        // A set padding bit: 15 bits used of 16.
        let mut padded = bytes.clone();
        padded[1] |= 0x80;
        assert!(corrupt(Dec::new(&padded).take_packed(3, 5)));
        assert!(Dec::new(&bytes).take_packed(3, 5).is_ok());
    }

    fn sorted_strs_bytes(strs: &[&str]) -> Vec<u8> {
        let mut e = Enc::new();
        e.put_sorted_strs(strs);
        e.into_bytes()
    }

    #[test]
    fn sorted_strs_share_prefixes_inside_characters() {
        // "é" is C3 A9 and "ê" C3 AA: the second shares one byte, half a
        // character, and is not UTF-8 on its own.
        let bytes = sorted_strs_bytes(&["", "é", "ê", "êa"]);
        assert_eq!(bytes, [4, 0, 0, 0, 2, 0xC3, 0xA9, 1, 1, 0xAA, 2, 1, b'a']);
        let mut d = Dec::new(&bytes);
        let back = d.take_sorted_strs().unwrap();
        assert_eq!(back, ["", "é", "ê", "êa"].map(Str::new));
        assert!(d.finish().is_ok());
        assert_eq!(sorted_strs_bytes(&["k"]), [1, 0, 1, b'k']);
        assert_eq!(sorted_strs_bytes(&[]), [0]);
    }

    #[test]
    fn sorted_strs_in_any_other_form_are_corrupt() {
        let corrupt = |bytes: &[u8]| {
            matches!(
                Dec::new(bytes).take_sorted_strs(),
                Err(StorageError::Corrupt(_))
            )
        };
        // "ab" then "ac": the canonical form shares one byte.
        assert!(!corrupt(&[2, 0, 2, b'a', b'b', 1, 1, b'c']));
        let cases: [(&str, &[u8]); 8] = [
            ("first string shares a byte", &[1, 1, 1, b'a']),
            (
                "shared past the string before",
                &[2, 0, 1, b'a', 2, 1, b'b'],
            ),
            (
                "shorter than the longest prefix",
                &[2, 0, 2, b'a', b'b', 0, 2, b'a', b'c'],
            ),
            ("repeated string", &[2, 0, 1, b'a', 1, 0]),
            ("repeated empty string", &[2, 0, 0, 0, 0]),
            ("descending", &[2, 0, 2, b'a', b'c', 1, 1, b'b']),
            ("half a character", &[2, 0, 2, 0xC3, 0xA9, 1, 0]),
            ("a lone continuation byte", &[1, 0, 1, 0xA9]),
        ];
        for (fault, bytes) in cases {
            assert!(corrupt(bytes), "{fault}");
        }
        // Each string is checked whole: half a character is corrupt even
        // where the next string completes it.
        assert!(corrupt(&[2, 0, 1, 0xC3, 1, 1, 0xA9]));
        for cut in 0..8 {
            assert!(
                corrupt(&[2, 0, 2, b'a', b'b', 1, 1, b'c'][..cut]),
                "cut {cut}"
            );
        }
    }

    fn any_u64() -> impl Strategy<Value = u64> {
        // Both halves, shifted so that every length from 1 to 10 bytes
        // comes up.
        (0u32..=u32::MAX, 0u32..=u32::MAX, 0u32..64)
            .prop_map(|(hi, lo, shift)| ((u64::from(hi) << 32) | u64::from(lo)) >> shift)
    }

    fn any_value() -> impl Strategy<Value = Value> {
        let text = proptest::collection::vec(
            prop_oneof![
                Just('a'),
                Just('z'),
                Just(' '),
                Just('é'),
                Just('鳥'),
                Just('🦉')
            ],
            0..12,
        )
        .prop_map(|chars| Value::str(chars.into_iter().collect::<String>()));
        prop_oneof![
            Just(Value::Null),
            proptest::bool::ANY.prop_map(Value::Bool),
            any_u64().prop_map(|v| Value::Int(v.cast_signed())),
            text,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn varints_round_trip_in_their_shortest_form(v in any_u64(), z in any_u64()) {
            let bytes = var_bytes(v);
            // Shortest form: seven bits a byte, at least one byte.
            prop_assert_eq!(bytes.len(), (64 - (v | 1).leading_zeros() as usize).div_ceil(7));
            prop_assert_eq!(decode_var(&bytes), Ok((v, bytes.len())));
            let z = z.cast_signed();
            let mut e = Enc::new();
            e.put_zig(z);
            let bytes = e.into_bytes();
            prop_assert_eq!(bytes.len(), var_bytes(zigzag(z)).len());
            prop_assert_eq!(Dec::new(&bytes).take_zig().unwrap(), z);
        }

        #[test]
        fn rows_round_trip_and_every_prefix_is_corrupt(
            vals in proptest::collection::vec(any_value(), 0..6),
        ) {
            let r = Row::new(vals);
            let mut e = Enc::new();
            e.put_row(&r);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            prop_assert_eq!(d.take_row().unwrap(), r);
            prop_assert!(d.finish().is_ok());
            for cut in 0..bytes.len() {
                let mut d = Dec::new(&bytes[..cut]);
                prop_assert!(matches!(d.take_row(), Err(StorageError::Corrupt(_))), "cut {}", cut);
            }
        }

        #[test]
        fn packed_codes_round_trip_in_n_times_width_bits(
            width in 0u32..=MAX_PACKED_WIDTH,
            raw in proptest::collection::vec(0u32..=u32::MAX, 0..40),
        ) {
            let mask = (1u64 << width) - 1;
            let codes: Vec<u32> = raw.iter().map(|&v| (u64::from(v) & mask) as u32).collect();
            let mut e = Enc::new();
            e.put_packed(width, codes.iter().copied());
            e.put_u8(0xAB);
            let bytes = e.into_bytes();
            prop_assert_eq!(bytes.len(), packed_len(codes.len(), width).unwrap() + 1);
            let mut d = Dec::new(&bytes);
            let back: Vec<u32> = d.take_packed(codes.len(), width).unwrap().collect();
            prop_assert_eq!(back, codes);
            prop_assert_eq!(d.take_u8().unwrap(), 0xAB);
            prop_assert!(d.finish().is_ok());
        }

        #[test]
        fn sorted_strs_round_trip_and_every_prefix_is_corrupt(
            words in proptest::collection::vec(
                proptest::collection::vec(
                    prop_oneof![
                        Just('a'),
                        Just('b'),
                        Just('é'),
                        Just('ê'),
                        Just('鳥'),
                        Just('鳩'),
                        Just('🦉')
                    ],
                    0..5,
                ),
                0..10,
            ),
        ) {
            // Byte order is `String`'s order; the set may hold "" and may
            // be one string.
            let set: std::collections::BTreeSet<String> =
                words.into_iter().map(|w| w.into_iter().collect()).collect();
            let strs: Vec<&str> = set.iter().map(String::as_str).collect();
            let bytes = sorted_strs_bytes(&strs);
            let mut d = Dec::new(&bytes);
            let back = d.take_sorted_strs().unwrap();
            prop_assert!(d.finish().is_ok());
            prop_assert_eq!(back.iter().map(Str::as_str).collect::<Vec<_>>(), strs);
            for cut in 0..bytes.len() {
                let mut d = Dec::new(&bytes[..cut]);
                prop_assert!(matches!(d.take_sorted_strs(), Err(StorageError::Corrupt(_))), "cut {}", cut);
            }
        }

        #[test]
        fn garbage_decodes_to_an_error_or_a_value_never_a_panic(
            bytes in proptest::collection::vec(0u8..=255, 0..24),
        ) {
            let _ = Dec::new(&bytes).take_row();
            let _ = Dec::fixed(&bytes).take_row();
            let _ = Dec::new(&bytes).take_sorted_strs();
            let _ = decode_var(&bytes);
        }
    }
}
