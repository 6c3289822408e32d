//! Columnar chunk storage: typed column vectors with validity bitmaps
//! and dictionary-encoded strings.
//!
//! A [`ColumnSet`] is the column-per-vector transpose of a row batch:
//! integers and booleans live in unboxed vectors (`Vec<i64>` /
//! `Vec<bool>`), strings are interned into a **sorted dictionary** with
//! one `u32` code per cell, and NULLs are carried out-of-band in a
//! validity [`Bitmap`] (bit set = value present). A column whose cells
//! are all NULL collapses to [`Column::Null`]; a column mixing value
//! types keeps boxed [`Value`]s ([`Column::Mixed`]) so the executor's
//! cross-type total order (`Null < Bool < Int < Str`) is never
//! approximated.
//!
//! The sorted dictionary is what makes string kernels branch-free:
//! `= lit` becomes one binary search plus a code-equality loop, and
//! `< lit` / `<= lit` become a `partition_point` bound plus a
//! code-compare loop — no per-row string comparison, no `Value`
//! materialization.
//!
//! Tables build one `ColumnSet` per mutation version from their column
//! heap ([`crate::table::Table::columnar`]); the executor's `Scan` slices it
//! into chunks by `(start, len)` windows without cloning a single row,
//! and the spill layer reuses the same classification for its columnar
//! block encoding.

use crate::row::Row;
use crate::value::{Str, Value};

/// A fixed-length bitmap (one bit per row position). Used as a validity
/// mask: bit set means the cell holds a value, cleared means NULL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap; grow it with [`Bitmap::push`].
    pub fn new() -> Bitmap {
        Bitmap {
            words: Vec::new(),
            len: 0,
        }
    }

    /// `len` copies of `bit`.
    pub fn filled(len: usize, bit: bool) -> Bitmap {
        let mut words = vec![if bit { u64::MAX } else { 0 }; len.div_ceil(64)];
        if bit && !len.is_multiple_of(64) {
            // Bits past `len` stay clear, as `push` leaves them.
            *words.last_mut().expect("len > 0") = (1u64 << (len % 64)) - 1;
        }
        Bitmap { words, len }
    }

    /// Append one bit.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Overwrite the bit at `i`, or append it when `i == len`.
    pub fn put(&mut self, i: usize, bit: bool) {
        if i == self.len {
            return self.push(bit);
        }
        assert!(i < self.len, "bit {i} of a {}-bit bitmap", self.len);
        let mask = 1u64 << (i % 64);
        if bit {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Positions of the set bits, ascending.
    pub fn ones(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(w * 64 + bit)
            })
        })
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Bytes of the bit vector.
    pub fn byte_len(&self) -> usize {
        self.words.len() * 8
    }

    /// The bit at `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 != 0
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pack into bytes, LSB-first within each byte (the spill-block
    /// encoding).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len.div_ceil(8)];
        for i in 0..self.len {
            if self.get(i) {
                out[i / 8] |= 1 << (i % 8);
            }
        }
        out
    }

    /// Inverse of [`Bitmap::to_bytes`]. `bytes` must hold at least
    /// `ceil(len / 8)` bytes.
    pub fn from_bytes(bytes: &[u8], len: usize) -> Bitmap {
        let mut b = Bitmap::new();
        for i in 0..len {
            b.push(bytes[i / 8] >> (i % 8) & 1 != 0);
        }
        b
    }
}

impl Default for Bitmap {
    fn default() -> Self {
        Bitmap::new()
    }
}

/// One typed column vector. `validity: None` means every cell is valid
/// (the common case pays no mask check); `Some(bitmap)` marks NULL cells
/// with a cleared bit, and the corresponding slot in the data vector is
/// a don't-care placeholder (`0`, `false`, code `0`).
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Unboxed 64-bit integers.
    Int {
        vals: Vec<i64>,
        validity: Option<Bitmap>,
    },
    /// Unboxed booleans.
    Bool {
        vals: Vec<bool>,
        validity: Option<Bitmap>,
    },
    /// Dictionary-encoded strings: `dict` is sorted ascending and
    /// deduplicated, `codes[i]` indexes into it. Code order therefore
    /// *is* string order, which the `<`/`<=` kernels exploit.
    Str {
        dict: Vec<Str>,
        codes: Vec<u32>,
        validity: Option<Bitmap>,
    },
    /// Every cell NULL (no data vector at all).
    Null(usize),
    /// A column mixing value types: boxed values, cell per cell.
    Mixed(Vec<Value>),
}

impl Column {
    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            Column::Int { vals, .. } => vals.len(),
            Column::Bool { vals, .. } => vals.len(),
            Column::Str { codes, .. } => codes.len(),
            Column::Null(n) => *n,
            Column::Mixed(vals) => vals.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize cell `i` as a boxed [`Value`].
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            Column::Int { vals, validity } => match validity {
                Some(v) if !v.get(i) => Value::Null,
                _ => Value::Int(vals[i]),
            },
            Column::Bool { vals, validity } => match validity {
                Some(v) if !v.get(i) => Value::Null,
                _ => Value::Bool(vals[i]),
            },
            Column::Str {
                dict,
                codes,
                validity,
            } => match validity {
                Some(v) if !v.get(i) => Value::Null,
                _ => Value::Str(dict[codes[i] as usize].clone()),
            },
            Column::Null(_) => Value::Null,
            Column::Mixed(vals) => vals[i].clone(),
        }
    }
}

/// The dictionary code of exactly `s`, if present.
pub fn dict_code(dict: &[Str], s: &Str) -> Option<u32> {
    dict.binary_search(s).ok().map(|i| i as u32)
}

/// Number of dictionary entries strictly below `s` — codes `< bound`
/// are exactly the strings `< s`.
pub fn dict_lower_bound(dict: &[Str], s: &Str) -> u32 {
    dict.partition_point(|d| d < s) as u32
}

/// Number of dictionary entries at or below `s` — codes `< bound` are
/// exactly the strings `<= s`.
pub fn dict_upper_bound(dict: &[Str], s: &Str) -> u32 {
    dict.partition_point(|d| d <= s) as u32
}

/// A columnar batch: one [`Column`] per schema position, all the same
/// length. Built once per table version and shared by `Arc`, so scan
/// chunks are `(Arc, start, len)` windows — zero row clones.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSet {
    cols: Vec<Column>,
    len: usize,
}

impl ColumnSet {
    /// Transpose `rows` (all of arity `arity`) into typed columns. Each
    /// column is classified in one pass: all-NULL collapses, a single
    /// non-null type gets an unboxed vector (with a validity bitmap only
    /// if NULLs occur), mixed types keep boxed values.
    pub fn from_rows(arity: usize, rows: &[&Row]) -> ColumnSet {
        let cols = (0..arity)
            .map(|c| build_column(rows.iter().map(move |r| &r[c])))
            .collect();
        ColumnSet::from_columns(cols, rows.len())
    }

    /// A set of already built columns, each `len` cells long.
    pub(crate) fn from_columns(cols: Vec<Column>, len: usize) -> ColumnSet {
        debug_assert!(cols.iter().all(|c| c.len() == len));
        ColumnSet { cols, len }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    pub fn col(&self, c: usize) -> &Column {
        &self.cols[c]
    }

    /// Materialize the cell at column `c`, row `i`.
    pub fn value_at(&self, c: usize, i: usize) -> Value {
        self.cols[c].value_at(i)
    }

    /// Materialize row `i` (the row-boundary adapter: join build keys,
    /// spill inputs, the row codec).
    pub fn row_at(&self, i: usize) -> Row {
        Row::new(self.cols.iter().map(|c| c.value_at(i)))
    }
}

/// Classify the cells of one column and build its vector (the rule of
/// [`ColumnSet::from_rows`]). The cells are walked twice.
pub(crate) fn build_column<'a>(cells: impl Iterator<Item = &'a Value> + Clone) -> Column {
    let (mut n, mut nulls, mut ints, mut bools, mut strs) =
        (0usize, 0usize, 0usize, 0usize, 0usize);
    for v in cells.clone() {
        n += 1;
        match v {
            Value::Null => nulls += 1,
            Value::Int(_) => ints += 1,
            Value::Bool(_) => bools += 1,
            Value::Str(_) => strs += 1,
        }
    }
    if nulls == n {
        return Column::Null(n);
    }
    let validity = || -> Option<Bitmap> {
        if nulls == 0 {
            return None;
        }
        let mut b = Bitmap::new();
        for v in cells.clone() {
            b.push(!v.is_null());
        }
        Some(b)
    };
    if ints + nulls == n {
        return Column::Int {
            vals: cells.clone().map(|v| v.as_int().unwrap_or(0)).collect(),
            validity: validity(),
        };
    }
    if bools + nulls == n {
        return Column::Bool {
            vals: cells
                .clone()
                .map(|v| v.as_bool().unwrap_or(false))
                .collect(),
            validity: validity(),
        };
    }
    if strs + nulls == n {
        let mut dict: Vec<Str> = cells
            .clone()
            .filter_map(|v| match v {
                Value::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        dict.sort_unstable();
        dict.dedup();
        let codes = cells
            .clone()
            .map(|v| match v {
                Value::Str(s) => dict_code(&dict, s).expect("string is in its own dict"),
                _ => 0,
            })
            .collect();
        return Column::Str {
            dict,
            codes,
            validity: validity(),
        };
    }
    Column::Mixed(cells.cloned().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    #[test]
    fn bitmap_round_trips_through_bytes() {
        let mut b = Bitmap::new();
        for i in 0..77 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 77);
        assert!(b.get(0) && !b.get(1) && b.get(75));
        let back = Bitmap::from_bytes(&b.to_bytes(), 77);
        assert_eq!(back, b);
    }

    #[test]
    fn columns_classify_and_round_trip_values() {
        let rows = [
            row![1, "b", true, Value::Null, Value::Null],
            row![Value::Null, "a", Value::Null, Value::Null, 7],
            row![3, "b", false, Value::Null, "mix"],
        ];
        let refs: Vec<&Row> = rows.iter().collect();
        let set = ColumnSet::from_rows(5, &refs);
        assert_eq!(set.len(), 3);
        assert!(matches!(
            set.col(0),
            Column::Int {
                validity: Some(_),
                ..
            }
        ));
        assert!(matches!(set.col(1), Column::Str { validity: None, .. }));
        assert!(matches!(
            set.col(2),
            Column::Bool {
                validity: Some(_),
                ..
            }
        ));
        assert!(matches!(set.col(3), Column::Null(3)));
        assert!(matches!(set.col(4), Column::Mixed(_)));
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(set.row_at(i), *r, "row {i} must round-trip");
        }
    }

    #[test]
    fn string_dictionary_is_sorted_and_shared() {
        let rows = [row!["pear"], row!["apple"], row!["pear"], row!["fig"]];
        let refs: Vec<&Row> = rows.iter().collect();
        let set = ColumnSet::from_rows(1, &refs);
        let Column::Str { dict, codes, .. } = set.col(0) else {
            panic!("expected a string column");
        };
        let names: Vec<&str> = dict.iter().map(Str::as_str).collect();
        assert_eq!(names, vec!["apple", "fig", "pear"]);
        assert_eq!(codes, &vec![2, 0, 2, 1]);
        // Sorted codes mean order-preserving bounds.
        let s = Str::new;
        assert_eq!(dict_code(dict, &s("fig")), Some(1));
        assert_eq!(dict_code(dict, &s("grape")), None);
        assert_eq!(dict_lower_bound(dict, &s("fig")), 1);
        assert_eq!(dict_upper_bound(dict, &s("fig")), 2);
        assert_eq!(dict_lower_bound(dict, &s("zzz")), 3);
        assert_eq!(dict_upper_bound(dict, &s("")), 0);
    }
}
