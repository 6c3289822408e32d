//! The column heap: where a [`crate::table::Table`] keeps its rows.
//!
//! One growable vector per schema column, typed by what the column has
//! held so far, plus one live bit per slot and a free list of cleared
//! slots. A row is a slot number; its cells sit at that position of every
//! vector, so nothing is allocated per row. See `docs/execution.md`, "Heap
//! and index layout".
//!
//! A column starts as [`HeapColumn::Null`] (a length), becomes `Int`,
//! `Bool` or `Str` with the first non-NULL value written to it, and is
//! demoted to boxed [`Value`]s the first time it is handed a second value
//! type — the classification [`ColumnSet::from_rows`] applies to a batch,
//! applied incrementally. NULLs of a typed column live in a validity
//! bitmap created on the first NULL. Strings are codes into a per-column
//! append-only dictionary: an entry is released only when the table is
//! dropped, even if every row holding it has been deleted.
//!
//! Integers and codes are kept in [`Lanes`]: unsigned cells of 1, 2, 4 or
//! 8 bytes, the narrowest width that has held every value written to the
//! column so far. A value that does not fit re-types the whole column one
//! width up (at most three times in a column's life) and is then written;
//! a column is never narrowed back. Nothing outside this module sees a
//! width: [`Heap::cell`] and [`Heap::columnar`] decode to `i64` and `u32`.

use crate::column::{build_column, Bitmap, Column, ColumnSet};
use crate::index::{hash_cells, IndexRid, PassThrough};
use crate::persist::format::{unzigzag, zigzag};
use crate::row::Row;
use crate::value::{Cell, Str, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Append-only string dictionary of one column: code → string and back.
/// Each string is held once, in `strings`; the way back is a map from 32
/// bits of its hash to its code, checked against `strings[code]`. A string
/// whose key another string holds takes the next free key, as open
/// addressing does, so a lookup walks on from its hash until it meets the
/// string or a free key; entries are never removed, so that walk is exact.
#[derive(Debug, Clone, Default)]
struct Interner {
    strings: Vec<Str>,
    codes: HashMap<u32, u32, BuildHasherDefault<PassThrough>>,
    /// The code handed out last. Runs of one value (a key propagated
    /// through the worlds, a sign, a flag) skip the map.
    last: u32,
}

impl Interner {
    /// The code of `s`; the string is cloned (a copy of a short one's
    /// bytes, a reference-count bump for a long one), and only the first
    /// time the column sees it.
    fn intern(&mut self, s: &Str) -> u32 {
        if self.strings.get(self.last as usize) == Some(s) {
            return self.last;
        }
        // Each entry costs tens of bytes, so memory runs out long before.
        let next = u32::try_from(self.strings.len()).expect("fewer than 2^32 distinct strings");
        let mut key = hash_cells(std::iter::once(Cell::Str(s))) as u32;
        let code = loop {
            match self.codes.entry(key) {
                Entry::Vacant(free) => break *free.insert(next),
                Entry::Occupied(held) if self.strings[*held.get() as usize] == *s => {
                    break *held.get()
                }
                Entry::Occupied(_) => key = key.wrapping_add(1),
            }
        };
        if code == next {
            self.strings.push(s.clone());
        }
        self.last = code;
        code
    }
}

/// Overwrite position `slot` of `vals`, or append when `slot == len`.
fn put<T>(vals: &mut Vec<T>, slot: usize, v: T) {
    if slot == vals.len() {
        vals.push(v);
    } else {
        vals[slot] = v;
    }
}

/// The cells of an integer or string column, one unsigned lane per slot
/// and all of one width. Integers are stored zig-zag mapped ([`zigzag`]),
/// strings as their dictionary codes.
#[derive(Debug, Clone)]
enum Lanes {
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
    U64(Vec<u64>),
}

/// Run `$body` on the vector of `$lanes`, whatever its width.
macro_rules! each_width {
    ($lanes:expr, $vals:ident => $body:expr) => {
        match $lanes {
            Lanes::U8($vals) => $body,
            Lanes::U16($vals) => $body,
            Lanes::U32($vals) => $body,
            Lanes::U64($vals) => $body,
        }
    };
}

impl Lanes {
    /// `len` cells of zero, one byte each.
    fn zeros(len: usize) -> Lanes {
        Lanes::U8(vec![0; len])
    }

    fn len(&self) -> usize {
        each_width!(self, vals => vals.len())
    }

    /// Bytes a cell.
    fn width(&self) -> usize {
        match self {
            Lanes::U8(_) => 1,
            Lanes::U16(_) => 2,
            Lanes::U32(_) => 4,
            Lanes::U64(_) => 8,
        }
    }

    fn get(&self, slot: usize) -> u64 {
        fn lane<L: Copy + Into<u64>>(vals: &[L], slot: usize) -> u64 {
            vals[slot].into()
        }
        each_width!(self, vals => lane(vals, slot))
    }

    /// Write `v` at `slot` (an existing position, or the next one), in
    /// lanes widened first if `v` does not fit them.
    fn put(&mut self, slot: usize, v: u64) {
        fn put_if_it_fits<L: TryFrom<u64>>(vals: &mut Vec<L>, slot: usize, v: u64) -> bool {
            L::try_from(v).map(|lane| put(vals, slot, lane)).is_ok()
        }
        while !each_width!(&mut *self, vals => put_if_it_fits(vals, slot, v)) {
            self.widen();
        }
    }

    /// Rewrite every cell one width up: O(slots), and a column goes
    /// through it at most three times.
    #[cold]
    fn widen(&mut self) {
        fn wider<N: Copy, W: From<N>>(vals: &[N]) -> Vec<W> {
            vals.iter().map(|&lane| W::from(lane)).collect()
        }
        *self = match &*self {
            Lanes::U8(vals) => Lanes::U16(wider(vals)),
            Lanes::U16(vals) => Lanes::U32(wider(vals)),
            Lanes::U32(vals) => Lanes::U64(wider(vals)),
            Lanes::U64(_) => unreachable!("every value fits eight bytes"),
        };
    }

    /// Write the cell of slot `src` at `slot`. A column's own lane fits
    /// it, so it is moved as it is: nothing to decode and nothing to widen.
    fn copy_within(&mut self, src: usize, slot: usize) {
        each_width!(self, vals => {
            let lane = vals[src];
            put(vals, slot, lane);
        })
    }
}

/// Record in the validity bitmap of a typed column of `len` cells whether
/// the cell about to be written at `slot` holds a value. The column's
/// first NULL creates the bitmap; a NULL cell keeps a placeholder in the
/// data vector.
fn mark(valid: &mut Option<Bitmap>, len: usize, slot: usize, present: bool) {
    if !present && valid.is_none() {
        *valid = Some(Bitmap::filled(len, true));
    }
    if let Some(bits) = valid {
        bits.put(slot, present);
    }
}

/// Give the cell about to be copied to `slot` the validity of slot `src`.
/// A NULL at `src` means the bitmap exists, so a copy never creates it.
fn copy_validity(valid: &mut Option<Bitmap>, src: usize, slot: usize) {
    if let Some(bits) = valid {
        let present = bits.get(src);
        bits.put(slot, present);
    }
}

fn is_valid(valid: &Option<Bitmap>, slot: usize) -> bool {
    valid.as_ref().is_none_or(|bits| bits.get(slot))
}

/// Validity of the cells at `live` for a [`Column`] of those cells: `None`
/// when every one of them is NULL (there is at least one), otherwise the
/// bitmap `Column` wants — none when no cell is NULL.
fn live_validity(valid: &Option<Bitmap>, live: &Bitmap) -> Option<Option<Bitmap>> {
    let Some(valid) = valid else {
        return Some(None);
    };
    let mut out = Bitmap::new();
    for slot in live.ones() {
        out.push(valid.get(slot));
    }
    match out.count_ones() {
        0 => None,
        n if n == out.len() => Some(None),
        _ => Some(Some(out)),
    }
}

/// The cells of one schema column, one per slot (dead slots included;
/// what they hold is never read).
#[derive(Debug, Clone)]
enum HeapColumn {
    /// Nothing but NULL was ever written: only the length is kept.
    Null(usize),
    Int {
        vals: Lanes,
        valid: Option<Bitmap>,
    },
    Bool {
        vals: Vec<bool>,
        valid: Option<Bitmap>,
    },
    Str {
        codes: Lanes,
        dict: Interner,
        valid: Option<Bitmap>,
    },
    /// The column has held two value types: boxed values, cell per cell.
    Mixed(Vec<Value>),
}

impl HeapColumn {
    fn len(&self) -> usize {
        match self {
            HeapColumn::Null(len) => *len,
            HeapColumn::Int { vals, .. } => vals.len(),
            HeapColumn::Bool { vals, .. } => vals.len(),
            HeapColumn::Str { codes, .. } => codes.len(),
            HeapColumn::Mixed(vals) => vals.len(),
        }
    }

    fn cell(&self, slot: usize) -> Cell<'_> {
        match self {
            HeapColumn::Int { vals, valid } if is_valid(valid, slot) => {
                Cell::Int(unzigzag(vals.get(slot)))
            }
            HeapColumn::Bool { vals, valid } if is_valid(valid, slot) => Cell::Bool(vals[slot]),
            HeapColumn::Str { codes, dict, valid } if is_valid(valid, slot) => {
                Cell::Str(&dict.strings[codes.get(slot) as usize])
            }
            HeapColumn::Mixed(vals) => vals[slot].as_cell(),
            _ => Cell::Null,
        }
    }

    /// Write `v` at `slot` (an existing position, or the next one). A
    /// typed column stores the payload unboxed; nothing is allocated unless
    /// the column meets a new string or is demoted.
    fn write(&mut self, slot: usize, v: Cell<'_>) {
        let fits = matches!(
            (&*self, v),
            (_, Cell::Null)
                | (HeapColumn::Mixed(_), _)
                | (HeapColumn::Int { .. }, Cell::Int(_))
                | (HeapColumn::Bool { .. }, Cell::Bool(_))
                | (HeapColumn::Str { .. }, Cell::Str(_))
        );
        if !fits {
            *self = match (&*self, v) {
                // First non-NULL value: the column takes its type.
                (&HeapColumn::Null(len), _) => {
                    let valid = (len > 0).then(|| Bitmap::filled(len, false));
                    match v {
                        Cell::Int(_) => HeapColumn::Int {
                            vals: Lanes::zeros(len),
                            valid,
                        },
                        Cell::Bool(_) => HeapColumn::Bool {
                            vals: vec![false; len],
                            valid,
                        },
                        _ => HeapColumn::Str {
                            codes: Lanes::zeros(len),
                            dict: Interner::default(),
                            valid,
                        },
                    }
                }
                // A second value type: demote to boxed values.
                _ => HeapColumn::Mixed((0..self.len()).map(|i| self.cell(i).to_value()).collect()),
            };
        }
        match (self, v) {
            (HeapColumn::Null(len), _) => *len = (*len).max(slot + 1),
            (HeapColumn::Mixed(vals), v) => put(vals, slot, v.to_value()),
            (HeapColumn::Int { vals, valid }, v) => {
                let v = v.as_int();
                mark(valid, vals.len(), slot, v.is_some());
                vals.put(slot, v.map_or(0, zigzag));
            }
            (HeapColumn::Bool { vals, valid }, v) => {
                let v = v.as_bool();
                mark(valid, vals.len(), slot, v.is_some());
                put(vals, slot, v.unwrap_or_default());
            }
            (HeapColumn::Str { codes, dict, valid }, v) => {
                let code = match v {
                    Cell::Str(s) => Some(dict.intern(s)),
                    _ => None,
                };
                mark(valid, codes.len(), slot, code.is_some());
                codes.put(slot, code.map_or(0, u64::from));
            }
        }
    }

    /// Write the cell of slot `src` at `slot` as the column holds it: the
    /// lane (an integer or a dictionary code, at the column's width) or the
    /// boolean with its validity bit — no decoding, no interning, no boxing.
    fn copy_within(&mut self, src: usize, slot: usize) {
        match self {
            HeapColumn::Null(len) => *len = (*len).max(slot + 1),
            HeapColumn::Mixed(vals) => {
                let v = vals[src].clone();
                put(vals, slot, v);
            }
            HeapColumn::Int { vals, valid }
            | HeapColumn::Str {
                codes: vals, valid, ..
            } => {
                copy_validity(valid, src, slot);
                vals.copy_within(src, slot);
            }
            HeapColumn::Bool { vals, valid } => {
                copy_validity(valid, src, slot);
                let v = vals[src];
                put(vals, slot, v);
            }
        }
    }

    /// The cells at the `n > 0` slots of `live` as a [`Column`], classified
    /// as [`ColumnSet::from_rows`] would classify them.
    fn compact(&self, live: &Bitmap, n: usize) -> Column {
        match self {
            HeapColumn::Null(_) => Column::Null(n),
            HeapColumn::Mixed(vals) => build_column(live.ones().map(|slot| &vals[slot])),
            HeapColumn::Int { vals, valid } => match live_validity(valid, live) {
                None => Column::Null(n),
                Some(validity) => Column::Int {
                    vals: live.ones().map(|slot| unzigzag(vals.get(slot))).collect(),
                    validity,
                },
            },
            HeapColumn::Bool { vals, valid } => match live_validity(valid, live) {
                None => Column::Null(n),
                Some(validity) => Column::Bool {
                    vals: live.ones().map(|slot| vals[slot]).collect(),
                    validity,
                },
            },
            HeapColumn::Str { codes, dict, valid } => {
                let Some(validity) = live_validity(valid, live) else {
                    return Column::Null(n);
                };
                let (used, remap) = rank_used(
                    &dict.strings,
                    live.ones()
                        .filter(|&slot| is_valid(valid, slot))
                        .map(|slot| codes.get(slot) as u32),
                );
                Column::Str {
                    dict: used.iter().map(|&c| dict.strings[c].clone()).collect(),
                    codes: live
                        .ones()
                        .map(|slot| match is_valid(valid, slot) {
                            true => remap[codes.get(slot) as usize],
                            false => 0,
                        })
                        .collect(),
                    validity,
                }
            }
        }
    }

    /// Estimated bytes: data vector at the width its cells have, validity
    /// bitmap and dictionary entries (vector entry, hash → code map entry
    /// and control byte; a short string's text is inside the entry, a long
    /// one's is a shared `Arc<str>` and not counted). Capacity slack is
    /// not counted.
    fn approx_bytes(&self) -> usize {
        let bitmap = |valid: &Option<Bitmap>| valid.as_ref().map_or(0, Bitmap::byte_len);
        match self {
            HeapColumn::Null(_) => 0,
            HeapColumn::Int { vals, valid } => vals.len() * vals.width() + bitmap(valid),
            HeapColumn::Bool { vals, valid } => vals.len() + bitmap(valid),
            HeapColumn::Str { codes, dict, valid } => {
                codes.len() * codes.width() + dict.strings.len() * DICT_ENTRY_BYTES + bitmap(valid)
            }
            HeapColumn::Mixed(vals) => vals.len() * std::mem::size_of::<Value>(),
        }
    }
}

/// The entries of `strings` that `codes` use, in the byte order of their
/// strings, and the rank of each entry among them (`u32::MAX` for an
/// entry no code uses): O(codes + d log d) for a dictionary of d entries.
fn rank_used(strings: &[Str], codes: impl Iterator<Item = u32>) -> (Vec<usize>, Vec<u32>) {
    const UNUSED: u32 = u32::MAX;
    let mut rank = vec![UNUSED; strings.len()];
    for code in codes {
        rank[code as usize] = 0;
    }
    let mut used: Vec<usize> = (0..rank.len()).filter(|&c| rank[c] != UNUSED).collect();
    used.sort_unstable_by(|&a, &b| strings[a].cmp(&strings[b]));
    for (r, &code) in used.iter().enumerate() {
        rank[code] = r as u32;
    }
    (used, rank)
}

/// What one dictionary entry costs besides a long string's text: the
/// [`Str`] in the code → string vector, and the hash → code map entry
/// with its control byte.
pub(crate) const DICT_ENTRY_BYTES: usize =
    std::mem::size_of::<Str>() + std::mem::size_of::<(u32, u32)>() + 1;

/// A slotted heap of rows, stored column-wise.
#[derive(Debug, Clone)]
pub(crate) struct Heap {
    cols: Vec<HeapColumn>,
    /// One bit per slot: set while the slot holds a row.
    live: Bitmap,
    live_rows: usize,
    /// Cleared slots, reused last-in first-out by inserts and copies.
    free: Vec<IndexRid>,
}

impl Heap {
    pub(crate) fn new(arity: usize) -> Heap {
        Heap {
            cols: vec![HeapColumn::Null(0); arity],
            live: Bitmap::new(),
            live_rows: 0,
            free: Vec::new(),
        }
    }

    pub(crate) fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Number of live rows.
    pub(crate) fn len(&self) -> usize {
        self.live_rows
    }

    /// Number of slots, live and dead.
    pub(crate) fn slots(&self) -> usize {
        self.live.len()
    }

    /// The slot the next [`Heap::insert_cells`] or [`Heap::copy_row`] fills.
    pub(crate) fn next_slot(&self) -> usize {
        self.free.last().map_or(self.slots(), |&slot| slot as usize)
    }

    /// Store a row of `cells` (one per column) in [`Heap::next_slot`].
    pub(crate) fn insert_cells(&mut self, cells: &[Cell<'_>]) -> usize {
        debug_assert_eq!(cells.len(), self.arity());
        let slot = self.take_slot();
        for (col, &v) in self.cols.iter_mut().zip(cells) {
            col.write(slot, v);
        }
        slot
    }

    /// Store in [`Heap::next_slot`] a copy of the live row in slot `src`
    /// whose columns listed in `overrides` (in range; the first entry for a
    /// column counts) hold the given cells instead. The other cells are
    /// copied as the columns hold them.
    pub(crate) fn copy_row(&mut self, src: usize, overrides: &[(usize, Cell<'_>)]) -> usize {
        debug_assert!(self.is_live(src));
        let slot = self.take_slot();
        for (c, col) in self.cols.iter_mut().enumerate() {
            match overrides.iter().find(|(over, _)| *over == c) {
                Some(&(_, v)) => col.write(slot, v),
                None => col.copy_within(src, slot),
            }
        }
        slot
    }

    /// Store copies of the live rows in the slots `src`, as
    /// [`Heap::copy_row`] would one by one but column by column, and return
    /// their slots: ascending, the n-th holding the copy of `src[n]`. Free
    /// slots are used up before the heap grows.
    pub(crate) fn copy_rows(
        &mut self,
        src: &[usize],
        overrides: &[(usize, Cell<'_>)],
    ) -> Vec<IndexRid> {
        let reused = self.free.len().min(src.len());
        let mut slots = self.free.split_off(self.free.len() - reused);
        slots.sort_unstable();
        // `Table::copy_group` admits the batch only if these numbers fit.
        slots.extend(
            (self.slots()..)
                .take(src.len() - reused)
                .map(|s| s as IndexRid),
        );
        for &slot in &slots {
            self.live.put(slot as usize, true);
        }
        self.live_rows += src.len();
        for (c, col) in self.cols.iter_mut().enumerate() {
            match overrides.iter().find(|(over, _)| *over == c) {
                Some(&(_, v)) => slots.iter().for_each(|&slot| col.write(slot as usize, v)),
                None => {
                    for (&from, &slot) in src.iter().zip(&slots) {
                        debug_assert!(self.live.get(from));
                        col.copy_within(from, slot as usize);
                    }
                }
            }
        }
        slots
    }

    /// Mark [`Heap::next_slot`] live; the caller fills every column of it.
    fn take_slot(&mut self) -> usize {
        let slot = self.next_slot();
        self.free.pop();
        self.live.put(slot, true);
        self.live_rows += 1;
        slot
    }

    /// Clear a live slot and put it on the free list. Its cells stay as
    /// they are until an insert overwrites them; only the live bit says the
    /// row is gone.
    pub(crate) fn remove(&mut self, slot: usize) {
        assert!(self.is_live(slot), "slot {slot} holds no row");
        self.live.put(slot, false);
        self.live_rows -= 1;
        // `Table::insert` admits a slot only if its number fits.
        self.free.push(slot as IndexRid);
    }

    pub(crate) fn is_live(&self, slot: usize) -> bool {
        slot < self.live.len() && self.live.get(slot)
    }

    /// Live slots, ascending.
    pub(crate) fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.live.ones()
    }

    /// One cell of a slot, without allocating. `slot` must have been
    /// filled (it may be dead: an index reads the cells of the row it is
    /// about to drop) and `col` must be in range.
    pub(crate) fn cell(&self, slot: usize, col: usize) -> Cell<'_> {
        self.cols[col].cell(slot)
    }

    /// The strings the cells at `slots` of string column `col` hold, in
    /// byte order, and each cell's rank among them (`None` for NULL);
    /// `None` for any other column. Same precondition as [`Heap::cell`].
    pub(crate) fn ranked_strings(
        &self,
        col: usize,
        slots: &[usize],
    ) -> Option<(Vec<&Str>, Vec<Option<u32>>)> {
        let HeapColumn::Str { codes, dict, valid } = &self.cols[col] else {
            return None;
        };
        let cells: Vec<Option<u32>> = slots
            .iter()
            .map(|&slot| is_valid(valid, slot).then(|| codes.get(slot) as u32))
            .collect();
        let (used, rank) = rank_used(&dict.strings, cells.iter().flatten().copied());
        Some((
            used.iter().map(|&code| &dict.strings[code]).collect(),
            cells
                .iter()
                .map(|cell| cell.map(|code| rank[code as usize]))
                .collect(),
        ))
    }

    /// The row in `slot`, materialized. Same precondition as
    /// [`Heap::cell`].
    pub(crate) fn row(&self, slot: usize) -> Row {
        Row::new(self.cols.iter().map(|col| col.cell(slot).to_value()))
    }

    /// The live rows in slot order as a [`ColumnSet`], equal to
    /// `ColumnSet::from_rows` over them (sorted dictionaries of the
    /// strings live rows hold, validity only where a live cell is NULL).
    pub(crate) fn columnar(&self) -> ColumnSet {
        let cols = match self.live_rows {
            0 => vec![Column::Null(0); self.arity()],
            n => self.cols.iter().map(|c| c.compact(&self.live, n)).collect(),
        };
        ColumnSet::from_columns(cols, self.live_rows)
    }

    /// Estimated bytes of the heap: every column vector over all slots,
    /// the live bitmap and the free list (see `docs/observability.md`).
    pub(crate) fn approx_bytes(&self) -> usize {
        let cols: usize = self.cols.iter().map(HeapColumn::approx_bytes).sum();
        cols + self.live.byte_len() + self.free.len() * std::mem::size_of::<IndexRid>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A heap next to what every slot was last handed, live or not: a
    /// cleared slot keeps its cells until it is reused.
    struct Checked {
        heap: Heap,
        slots: Vec<Vec<Value>>,
    }

    impl Checked {
        fn new(arity: usize) -> Checked {
            Checked {
                heap: Heap::new(arity),
                slots: Vec::new(),
            }
        }

        fn store(&mut self, slot: usize, row: Vec<Value>) {
            assert!(slot <= self.slots.len());
            self.slots.truncate(self.slots.len().max(slot + 1));
            match self.slots.get_mut(slot) {
                Some(old) => *old = row,
                None => self.slots.push(row),
            }
        }

        fn insert(&mut self, row: Vec<Value>) -> usize {
            let cells: Vec<Cell<'_>> = row.iter().map(Value::as_cell).collect();
            let slot = self.heap.insert_cells(&cells);
            self.store(slot, row);
            slot
        }

        fn overridden(&self, src: usize, over: &[(usize, Value)]) -> Vec<Value> {
            let mut row = self.slots[src].clone();
            for (col, v) in over.iter().rev() {
                row[*col] = v.clone();
            }
            row
        }

        fn copy_row(&mut self, src: usize, over: &[(usize, Value)]) -> usize {
            let cells: Vec<(usize, Cell<'_>)> =
                over.iter().map(|(c, v)| (*c, v.as_cell())).collect();
            let slot = self.heap.copy_row(src, &cells);
            self.store(slot, self.overridden(src, over));
            slot
        }

        fn copy_rows(&mut self, src: &[usize], over: &[(usize, Value)]) -> Vec<usize> {
            let cells: Vec<(usize, Cell<'_>)> =
                over.iter().map(|(c, v)| (*c, v.as_cell())).collect();
            let slots = self.heap.copy_rows(src, &cells);
            let slots: Vec<usize> = slots.into_iter().map(|s| s as usize).collect();
            for (&from, &slot) in src.iter().zip(&slots) {
                self.store(slot, self.overridden(from, over));
            }
            slots
        }

        /// Every cell of every slot, and the columnar copy of the live
        /// rows against a transpose of the same rows.
        fn check(&self) {
            assert_eq!(self.heap.slots(), self.slots.len());
            for (slot, row) in self.slots.iter().enumerate() {
                for (c, v) in row.iter().enumerate() {
                    assert_eq!(self.heap.cell(slot, c), v.as_cell(), "slot {slot} col {c}");
                }
            }
            let live: Vec<Row> = (self.heap.live_slots())
                .map(|slot| Row::new(self.slots[slot].clone()))
                .collect();
            let refs: Vec<&Row> = live.iter().collect();
            let want = ColumnSet::from_rows(self.heap.arity(), &refs);
            assert_eq!(self.heap.columnar(), want);
        }

        /// `(bytes a cell, estimated bytes)` of column `c`.
        fn width_and_bytes(&self, c: usize) -> (usize, usize) {
            let width = match &self.heap.cols[c] {
                HeapColumn::Int { vals, .. } | HeapColumn::Str { codes: vals, .. } => vals.width(),
                other => panic!("not in lanes: {other:?}"),
            };
            (width, self.heap.cols[c].approx_bytes())
        }
    }

    fn int(v: i64) -> Value {
        Value::int(v)
    }

    #[test]
    fn zigzag_round_trips_and_keeps_small_magnitudes_small() {
        let edges = [0, 1, -1, 127, -128, 128, -129, 32_767, -32_768, 32_768];
        let wide = [i64::from(i32::MAX), i64::from(i32::MIN), i64::MAX, i64::MIN];
        for v in edges.into_iter().chain(wide) {
            assert_eq!(unzigzag(zigzag(v)), v);
            let doubled = v.unsigned_abs().wrapping_mul(2);
            assert_eq!(zigzag(v), doubled.wrapping_sub(u64::from(v < 0)));
        }
        assert_eq!((zigzag(127), zigzag(-128)), (254, 255));
        assert_eq!(
            (zigzag(i64::MAX), zigzag(i64::MIN)),
            (u64::MAX - 1, u64::MAX)
        );
    }

    #[test]
    fn lanes_take_the_narrowest_width_that_held_every_value() {
        let mut lanes = Lanes::zeros(3);
        assert_eq!((lanes.width(), lanes.len()), (1, 3));
        let steps: [(u64, usize); 8] = [
            (255, 1),
            (256, 2),
            (65_535, 2),
            (65_536, 4),
            (7, 4),
            ((1 << 32) - 1, 4),
            (1 << 32, 8),
            (u64::MAX, 8),
        ];
        let mut written = vec![0, 0, 0];
        for (v, width) in steps {
            lanes.put(written.len(), v);
            written.push(v);
            assert_eq!(lanes.width(), width, "after {v}");
            let held: Vec<u64> = (0..lanes.len()).map(|slot| lanes.get(slot)).collect();
            assert_eq!(held, written, "after {v}");
        }
        // One value may take a column through every width at once, and an
        // overwrite widens like an append.
        let mut lanes = Lanes::zeros(2);
        lanes.put(1, u64::MAX);
        assert_eq!(
            (lanes.width(), lanes.get(0), lanes.get(1)),
            (8, 0, u64::MAX)
        );
        // A copy moves the lane and never changes the width.
        lanes.copy_within(1, 0);
        lanes.copy_within(0, 2);
        assert_eq!((lanes.width(), lanes.len()), (8, 3));
        assert!((0..3).all(|slot| lanes.get(slot) == u64::MAX));
    }

    #[test]
    fn an_integer_column_is_as_wide_as_the_widest_value_it_held() {
        let mut t = Checked::new(1);
        for v in [0, 1, -1, 127, -128] {
            t.insert(vec![int(v)]);
        }
        t.check();
        assert_eq!(t.width_and_bytes(0), (1, 5));
        // Each of these is the first value past a width, of either sign.
        let steps = [
            (128, 2),
            (-129, 2),
            (32_767, 2),
            (-32_768, 2),
            (32_768, 4),
            (65_536, 4),
            (i64::from(i32::MAX), 4),
            (i64::from(i32::MIN), 4),
            (i64::from(i32::MAX) + 1, 8),
            (i64::MAX, 8),
            (i64::MIN, 8),
        ];
        for (v, width) in steps {
            t.insert(vec![int(v)]);
            t.check();
            let slots = t.heap.slots();
            assert_eq!(t.width_and_bytes(0), (width, slots * width), "after {v}");
        }
        // Never narrowed back: the wide rows go, the width stays.
        for slot in 5..t.heap.slots() {
            t.heap.remove(slot);
        }
        t.insert(vec![int(3)]);
        t.check();
        assert_eq!(t.width_and_bytes(0), (8, 16 * 8));
        // The heap's estimate: that column, the live bits, the free list.
        assert_eq!(t.heap.approx_bytes(), 16 * 8 + 8 + 10 * 4);
    }

    #[test]
    fn a_string_column_is_as_wide_as_its_dictionary_needs() {
        let mut t = Checked::new(2);
        let name = |n: usize| Value::str(format!("k{n}"));
        let fill = |t: &mut Checked, to: usize| {
            for n in t.heap.slots()..to {
                t.insert(vec![name(n), name(n % 2)]);
            }
            t.check();
        };
        fill(&mut t, 256);
        assert_eq!(t.width_and_bytes(0), (1, 256 + 256 * DICT_ENTRY_BYTES));
        fill(&mut t, 257);
        assert_eq!(t.width_and_bytes(0), (2, 2 * 257 + 257 * DICT_ENTRY_BYTES));
        // The second column repeats two strings: the row count is not
        // what widens a column.
        assert_eq!(t.width_and_bytes(1), (1, 257 + 2 * DICT_ENTRY_BYTES));
        fill(&mut t, 65_536);
        assert_eq!(t.width_and_bytes(0).0, 2);
        fill(&mut t, 65_537);
        let bytes = 4 * 65_537 + 65_537 * DICT_ENTRY_BYTES;
        assert_eq!(t.width_and_bytes(0), (4, bytes));
        assert_eq!(t.width_and_bytes(1), (1, 65_537 + 2 * DICT_ENTRY_BYTES));
        // Deleted rows keep their entries, and the codes their width.
        for slot in 2..65_537 {
            t.heap.remove(slot);
        }
        t.insert(vec![name(0), name(0)]);
        t.check();
        assert_eq!(t.width_and_bytes(0), (4, bytes));
        // An integer among four-byte codes: boxed, cleared slots and all.
        t.insert(vec![int(7), name(1)]);
        t.check();
        assert!(matches!(t.heap.cols[0], HeapColumn::Mixed(_)));
    }

    /// Strings whose hashes collide each keep a code of their own: with
    /// every hash equal, each string takes the key after the last one
    /// taken, and a string met again walks to its own.
    #[test]
    fn colliding_strings_keep_their_own_codes() {
        let _collide = crate::index::CollideAll::on();
        let mut dict = Interner::default();
        let names: Vec<Str> = (0..40).map(|n| Str::new(&format!("s{n}"))).collect();
        for (n, s) in names.iter().enumerate() {
            assert_eq!(dict.intern(s), n as u32);
        }
        for (n, s) in names.iter().enumerate().rev() {
            assert_eq!(dict.intern(s), n as u32, "{s}");
        }
        assert_eq!(dict.strings, names);
        let mut keys: Vec<(u32, u32)> = dict.codes.iter().map(|(&k, &c)| (k, c)).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..40).map(|n| (n, n)).collect::<Vec<_>>());
    }

    /// An integer column whose lanes are `width` bytes, with a NULL in it.
    fn int_column_of(width: usize) -> Checked {
        let mut t = Checked::new(1);
        let widest = [1, 1 << 8, 1 << 16, 1 << 32][width.trailing_zeros() as usize];
        for v in [-1, 5, widest] {
            t.insert(vec![int(v)]);
        }
        assert_eq!(t.width_and_bytes(0), (width, 3 * width));
        t.insert(vec![Value::Null]);
        t.check();
        // The validity bitmap arrives with the first NULL.
        assert_eq!(t.width_and_bytes(0), (width, 4 * width + 8));
        t
    }

    #[test]
    fn nulls_and_demotion_at_every_width() {
        for width in [1, 2, 4, 8] {
            let mut t = int_column_of(width);
            // A NULL over a value, a value over the NULL.
            let slot = t.copy_row(3, &[]);
            t.heap.remove(0);
            assert_eq!(t.insert(vec![Value::Null]), 0);
            t.heap.remove(slot);
            assert_eq!(t.insert(vec![int(-7)]), slot);
            t.check();
            assert_eq!(t.width_and_bytes(0), (width, 5 * width + 8));
            // A second value type: every cell is boxed as what it decodes to.
            t.insert(vec![Value::str("1")]);
            t.check();
            assert!(matches!(t.heap.cols[0], HeapColumn::Mixed(_)));
        }
        // The same for codes; four-byte ones are demoted at the end of
        // `a_string_column_is_as_wide_as_its_dictionary_needs`.
        for strings in [3, 300] {
            let mut t = Checked::new(1);
            for n in 0..strings {
                t.insert(vec![Value::str(format!("k{n}"))]);
            }
            t.insert(vec![Value::Null]);
            t.check();
            let width = if strings > 256 { 2 } else { 1 };
            let bytes = (strings + 1) * width + strings * DICT_ENTRY_BYTES + (strings / 64 + 1) * 8;
            assert_eq!(t.width_and_bytes(0), (width, bytes));
            t.insert(vec![int(1)]);
            t.check();
            assert!(matches!(t.heap.cols[0], HeapColumn::Mixed(_)));
        }
    }

    #[test]
    fn a_column_of_nulls_starts_at_one_byte() {
        for (first, width) in [(3, 1), (-300, 2), (70_000, 4), (i64::MIN, 8)] {
            let mut t = Checked::new(2);
            for n in 0..5 {
                t.insert(vec![Value::Null, int(n)]);
            }
            assert_eq!(t.heap.cols[0].approx_bytes(), 0);
            t.insert(vec![int(first), int(5)]);
            t.check();
            assert_eq!(t.width_and_bytes(0), (width, 6 * width + 8));
        }
        let mut t = Checked::new(1);
        t.insert(vec![Value::Null]);
        t.insert(vec![Value::str("a")]);
        t.check();
        assert_eq!(t.width_and_bytes(0), (1, 2 + DICT_ENTRY_BYTES + 8));
    }

    /// An index drops a row after the heap cleared its slot, and reads
    /// the cells to find the entry: a cleared slot is re-typed with the
    /// rest, whichever write widens the column.
    #[test]
    fn a_cleared_slot_is_widened_with_the_rest() {
        for write in 0..3 {
            let mut t = Checked::new(1);
            for v in [1, 2, 3, 4] {
                t.insert(vec![int(v)]);
            }
            // The write reuses slot 2; slot 1 stays cleared.
            t.heap.remove(1);
            t.heap.remove(2);
            let wide = [(0, int(1_000))];
            let slot = match write {
                0 => t.insert(vec![int(1_000)]),
                1 => t.copy_row(0, &wide),
                _ => t.copy_rows(&[0], &wide)[0],
            };
            assert_eq!(slot, 2);
            t.check();
            assert_eq!(t.width_and_bytes(0), (2, 4 * 2));
            assert!(!t.heap.is_live(1));
            assert_eq!(t.heap.cell(1, 0), Cell::Int(2));
        }
    }

    #[test]
    fn copies_move_lanes_and_overrides_widen_mid_batch() {
        let mut t = Checked::new(3);
        for n in 0..10 {
            let key = Value::str(format!("k{}", n % 3));
            t.insert(vec![int(n), int(-n), key]);
        }
        // Slots 7, 5 and 2 are free, and keep their cells.
        for slot in [7, 5, 2] {
            t.heap.remove(slot);
        }
        t.check();
        assert_eq!(t.width_and_bytes(0).0, 1);

        // The override is what widens column 0, on the first copy of the
        // batch; columns 1 and 2 move their one-byte lanes. The copies
        // fill the free slots (lowest first), then the heap grows.
        let slots = t.copy_rows(&[0, 1, 3, 4], &[(0, int(300))]);
        assert_eq!(slots, [2, 5, 7, 10]);
        t.check();
        assert_eq!(t.width_and_bytes(0), (2, 11 * 2));
        assert_eq!(t.width_and_bytes(1), (1, 11));
        assert_eq!(t.width_and_bytes(2), (1, 11 + 3 * DICT_ENTRY_BYTES));

        // A cleared slot is widened with the rest: its cells are read
        // until it is reused (an index drops the row after the heap did).
        t.heap.remove(6);
        t.heap.remove(3);
        assert_eq!(t.copy_row(9, &[(1, int(70_000))]), 3);
        t.check();
        assert!(!t.heap.is_live(6));
        assert_eq!(t.heap.cell(6, 1), Cell::Int(-6));
        assert_eq!(t.width_and_bytes(1), (4, 11 * 4));
        // It is reused by the row that takes column 0 to eight bytes.
        assert_eq!(t.insert(vec![int(i64::MAX), int(0), Value::Null]), 6);
        t.check();
        assert_eq!(t.width_and_bytes(0), (8, 11 * 8));

        // Copies after the widening move the wider lanes, into a reused
        // slot and into new ones, NULL and all.
        t.heap.remove(8);
        let slots = t.copy_rows(&[6, 2, 3], &[]);
        assert_eq!(slots, [8, 11, 12]);
        t.check();
        assert_eq!(t.heap.row(8), t.heap.row(6));
        assert_eq!(t.heap.cell(8, 2), Cell::Null);
        assert_eq!(t.width_and_bytes(0), (8, 13 * 8));
        assert_eq!(t.width_and_bytes(2).0, 1);

        // A batch whose override demotes a column of four-byte lanes.
        let slots = t.copy_rows(&[6, 3], &[(1, Value::str("x"))]);
        assert_eq!(slots, [13, 14]);
        t.check();
        assert!(matches!(t.heap.cols[1], HeapColumn::Mixed(_)));
    }
}
