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
//! bitmap created on the first NULL. Strings are `u32` codes into a
//! per-column append-only dictionary: an entry is released only when the
//! table is dropped, even if every row holding it has been deleted.

use crate::column::{build_column, Bitmap, Column, ColumnSet};
use crate::index::IndexRid;
use crate::row::Row;
use crate::value::{Cell, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Append-only string dictionary of one column: code → string and back.
#[derive(Debug, Clone, Default)]
struct Interner {
    strings: Vec<Arc<str>>,
    codes: HashMap<Arc<str>, u32>,
    /// The code handed out last. Runs of one value (a key propagated
    /// through the worlds, a sign, a flag) skip the map.
    last: u32,
}

impl Interner {
    /// The code of `s`; the string is shared (a reference-count bump),
    /// and only the first time the column sees it.
    fn intern(&mut self, s: &Arc<str>) -> u32 {
        if self.strings.get(self.last as usize) == Some(s) {
            return self.last;
        }
        if let Some(&code) = self.codes.get(s.as_ref()) {
            self.last = code;
            return code;
        }
        // Each entry costs tens of bytes, so memory runs out long before.
        let code = u32::try_from(self.strings.len()).expect("fewer than 2^32 distinct strings");
        self.strings.push(Arc::clone(s));
        self.codes.insert(Arc::clone(s), code);
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

/// Write one cell of a typed column: `None` is NULL, which leaves a
/// default in the data vector and creates the validity bitmap if this is
/// the column's first.
fn put_typed<T: Default>(
    vals: &mut Vec<T>,
    valid: &mut Option<Bitmap>,
    slot: usize,
    cell: Option<T>,
) {
    if cell.is_none() && valid.is_none() {
        *valid = Some(Bitmap::filled(vals.len(), true));
    }
    if let Some(bits) = valid {
        bits.put(slot, cell.is_some());
    }
    put(vals, slot, cell.unwrap_or_default());
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
        vals: Vec<i64>,
        valid: Option<Bitmap>,
    },
    Bool {
        vals: Vec<bool>,
        valid: Option<Bitmap>,
    },
    Str {
        codes: Vec<u32>,
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
            HeapColumn::Int { vals, valid } if is_valid(valid, slot) => Cell::Int(vals[slot]),
            HeapColumn::Bool { vals, valid } if is_valid(valid, slot) => Cell::Bool(vals[slot]),
            HeapColumn::Str { codes, dict, valid } if is_valid(valid, slot) => {
                Cell::Str(&dict.strings[codes[slot] as usize])
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
                            vals: vec![0; len],
                            valid,
                        },
                        Cell::Bool(_) => HeapColumn::Bool {
                            vals: vec![false; len],
                            valid,
                        },
                        _ => HeapColumn::Str {
                            codes: vec![0; len],
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
            (HeapColumn::Int { vals, valid }, v) => put_typed(vals, valid, slot, v.as_int()),
            (HeapColumn::Bool { vals, valid }, v) => put_typed(vals, valid, slot, v.as_bool()),
            (HeapColumn::Str { codes, dict, valid }, v) => {
                let code = match v {
                    Cell::Str(s) => Some(dict.intern(s)),
                    _ => None,
                };
                put_typed(codes, valid, slot, code);
            }
        }
    }

    /// Write the cell of slot `src` at `slot` as the column holds it: the
    /// typed value or the dictionary code with its validity bit, no
    /// interning and no boxing.
    fn copy_within(&mut self, src: usize, slot: usize) {
        match self {
            HeapColumn::Null(len) => *len = (*len).max(slot + 1),
            HeapColumn::Mixed(vals) => {
                let v = vals[src].clone();
                put(vals, slot, v);
            }
            HeapColumn::Int { vals, valid } => {
                let v = is_valid(valid, src).then(|| vals[src]);
                put_typed(vals, valid, slot, v);
            }
            HeapColumn::Bool { vals, valid } => {
                let v = is_valid(valid, src).then(|| vals[src]);
                put_typed(vals, valid, slot, v);
            }
            HeapColumn::Str { codes, valid, .. } => {
                let v = is_valid(valid, src).then(|| codes[src]);
                put_typed(codes, valid, slot, v);
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
                    vals: live.ones().map(|slot| vals[slot]).collect(),
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
                // Keep the entries live rows use, sort them once, and
                // renumber the codes: O(n + d log d).
                const UNUSED: u32 = u32::MAX;
                let mut remap = vec![UNUSED; dict.strings.len()];
                for slot in live.ones().filter(|&slot| is_valid(valid, slot)) {
                    remap[codes[slot] as usize] = 0;
                }
                let mut used: Vec<usize> =
                    (0..remap.len()).filter(|&c| remap[c] != UNUSED).collect();
                used.sort_unstable_by(|&a, &b| dict.strings[a].cmp(&dict.strings[b]));
                for (new, &old) in used.iter().enumerate() {
                    remap[old] = new as u32;
                }
                Column::Str {
                    dict: used.iter().map(|&c| Arc::clone(&dict.strings[c])).collect(),
                    codes: live
                        .ones()
                        .map(|slot| match is_valid(valid, slot) {
                            true => remap[codes[slot] as usize],
                            false => 0,
                        })
                        .collect(),
                    validity,
                }
            }
        }
    }

    /// Estimated bytes: data vector, validity bitmap and dictionary
    /// entries (pointer, map entry and control byte; the text itself is a
    /// shared `Arc<str>` and not counted). Capacity slack is not counted.
    fn approx_bytes(&self) -> usize {
        let bitmap = |valid: &Option<Bitmap>| valid.as_ref().map_or(0, Bitmap::byte_len);
        match self {
            HeapColumn::Null(_) => 0,
            HeapColumn::Int { vals, valid } => vals.len() * 8 + bitmap(valid),
            HeapColumn::Bool { vals, valid } => vals.len() + bitmap(valid),
            HeapColumn::Str { codes, dict, valid } => {
                codes.len() * 4 + dict.strings.len() * DICT_ENTRY_BYTES + bitmap(valid)
            }
            HeapColumn::Mixed(vals) => vals.len() * std::mem::size_of::<Value>(),
        }
    }
}

/// What one dictionary entry costs besides its text: the `Arc<str>` in the
/// code → string vector, and the string → code map entry with its control
/// byte.
pub(crate) const DICT_ENTRY_BYTES: usize =
    std::mem::size_of::<Arc<str>>() + std::mem::size_of::<(Arc<str>, u32)>() + 1;

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
