//! Columnar batch storage: per-attribute value vectors with null masks.
//!
//! A [`ColumnBatch`] is the engine's one batch layout (the engine names
//! it [`RecordBatch`](crate::RecordBatch)). It stores the same logical
//! content as a run of global-layout [`Record`]s — every row has arity
//! equal to the batch width — but holds each attribute in its own typed
//! vector so the hot engine kernels (key hashing, key comparison, scatter
//! routing, byte accounting) run as tight loops over primitive slices
//! instead of chasing per-record `Vec<Value>` allocations. Every batch is
//! assembled by a [`BatchBuilder`]: the scan widens source rows into one
//! ([`BatchBuilder::push_widened`]), the Partition scatter routes rows
//! into one per destination ([`ColumnBatch::scatter_into`]), and
//! operators move each UDF call's emitted records into one
//! ([`BatchBuilder::push`]). [`BatchBuilder::append_row`] gathers a
//! single row, the row-by-row reference the scatter is tested against.
//!
//! Columns are type-adaptive: a column starts as [`Column::Null`]
//! (zero storage — common for widened global layouts where most
//! attributes are absent), is promoted to a typed vector on the first
//! non-null value, and falls back to [`Column::Mixed`] (a plain value
//! vector) if a second type shows up. Null cells in typed columns are
//! recorded in a [`NullMask`] bitmap with a placeholder in the data
//! vector.
//!
//! The per-type match over a column's storage is written once per
//! direction. Into a column there is one append, `Column::push_value`,
//! which takes an owned [`Value`] (a string hands over its `Arc`) and
//! promotes the representation; every builder method goes through it.
//! Out of a column there are two walks, each matching the
//! representation once per column with a no-null fast path: the owned
//! walk `Column::into_each_value` moves every cell out, and is what
//! [`ColumnBatch::scatter_into`], [`ColumnBatch::into_records`] and the
//! demotion to `Mixed` run on; the borrowed walk `Column::for_each_cell`
//! lends every cell as a borrowed view, and is what
//! [`ColumnBatch::key_hash_into`] runs on. Random access (`RowRef`'s
//! reads) and byte accounting read the storage directly.
//!
//! All kernels are bit-faithful to the row path: hashing mirrors
//! [`Value`]'s `Hash` impl folded through [`crate::hash::FxHasher`],
//! comparison mirrors [`Value::cmp`]'s total order, and
//! [`ColumnBatch::encoded_len`] equals the sum of
//! [`Record::encoded_len`] over the materialized rows.

use crate::hash::{fx_add, fx_add_bytes};
use crate::record::Record;
use crate::row::RowRef;
use crate::value::Value;
use std::cmp::Ordering;
use std::sync::Arc;

/// A null bitmap for one typed column: bit set ⇒ the cell is null and
/// the data vector holds a placeholder at that position.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NullMask {
    words: Vec<u64>,
    count: usize,
}

impl NullMask {
    /// A mask with the first `rows` cells all null.
    fn all_null(rows: usize) -> Self {
        let mut words = vec![u64::MAX; rows / 64];
        let rem = rows % 64;
        if rem != 0 {
            words.push((1u64 << rem) - 1);
        }
        NullMask { words, count: rows }
    }

    /// `true` iff cell `row` is null.
    #[inline]
    pub fn is_null(&self, row: usize) -> bool {
        self.words
            .get(row / 64)
            .is_some_and(|w| (w >> (row % 64)) & 1 == 1)
    }

    /// Number of null cells recorded.
    #[inline]
    fn null_count(&self) -> usize {
        self.count
    }

    /// Appends one cell's nullness; `row` must be the column length
    /// before the push.
    #[inline]
    fn push(&mut self, row: usize, null: bool) {
        let w = row / 64;
        if w >= self.words.len() {
            self.words.push(0);
        }
        if null {
            self.words[w] |= 1 << (row % 64);
            self.count += 1;
        }
    }
}

/// One attribute's cells across a batch.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Every cell is null. Stores nothing but the count.
    Null {
        /// Number of (all-null) cells.
        rows: usize,
    },
    /// Boolean cells with a null bitmap.
    Bool {
        /// Cell payloads (`false` placeholder at null positions).
        data: Vec<bool>,
        /// Which cells are null.
        nulls: NullMask,
    },
    /// Integer cells with a null bitmap.
    Int {
        /// Cell payloads (`0` placeholder at null positions).
        data: Vec<i64>,
        /// Which cells are null.
        nulls: NullMask,
    },
    /// Float cells with a null bitmap.
    Float {
        /// Cell payloads (`0.0` placeholder at null positions).
        data: Vec<f64>,
        /// Which cells are null.
        nulls: NullMask,
    },
    /// String cells with a null bitmap.
    Str {
        /// Cell payloads (shared empty string placeholder at nulls).
        data: Vec<Arc<str>>,
        /// Which cells are null.
        nulls: NullMask,
    },
    /// Fallback for type-mixed columns: plain values, nulls inline.
    Mixed(
        /// The cells, one [`Value`] each.
        Vec<Value>,
    ),
}

/// A borrowed view of one cell, used by the hash/compare kernels to
/// avoid cloning `Arc<str>` payloads.
#[derive(Clone, Copy)]
pub(crate) enum Cell<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(&'a str),
}

impl Cell<'_> {
    /// Mirrors `Value::type_rank` for cross-type ordering.
    #[inline]
    fn rank(self) -> u8 {
        match self {
            Cell::Null => 0,
            Cell::Bool(_) => 1,
            Cell::Int(_) => 2,
            Cell::Float(_) => 3,
            Cell::Str(_) => 4,
        }
    }

    #[inline]
    pub(crate) fn of_value(v: &Value) -> Cell<'_> {
        match v {
            Value::Null => Cell::Null,
            Value::Bool(b) => Cell::Bool(*b),
            Value::Int(i) => Cell::Int(*i),
            Value::Float(f) => Cell::Float(*f),
            Value::Str(s) => Cell::Str(s),
        }
    }

    /// Total order identical to [`Value::cmp`].
    pub(crate) fn cmp(self, other: Cell<'_>) -> Ordering {
        use Cell::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(&b),
            (Int(a), Int(b)) => a.cmp(&b),
            (Float(a), Float(b)) => a.total_cmp(&b),
            (Str(a), Str(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }

    /// One FxHash fold identical to hashing the equivalent [`Value`]
    /// through [`crate::hash::FxHasher`].
    #[inline]
    fn fold_hash(self, h: u64) -> u64 {
        match self {
            Cell::Null => fx_add(h, 0),
            Cell::Bool(b) => fx_add(fx_add(h, 1), b as u64),
            Cell::Int(i) => fx_add(fx_add(h, 2), i as u64),
            Cell::Float(f) => fx_add(fx_add(h, 3), f.to_bits()),
            Cell::Str(s) => fx_add_bytes(fx_add(h, 4), s.as_bytes()),
        }
    }
}

impl Column {
    /// Number of cells.
    fn len(&self) -> usize {
        match self {
            Column::Null { rows } => *rows,
            Column::Bool { data, .. } => data.len(),
            Column::Int { data, .. } => data.len(),
            Column::Float { data, .. } => data.len(),
            Column::Str { data, .. } => data.len(),
            Column::Mixed(data) => data.len(),
        }
    }

    /// Number of null cells.
    fn null_count(&self) -> usize {
        match self {
            Column::Null { rows } => *rows,
            Column::Bool { nulls, .. }
            | Column::Int { nulls, .. }
            | Column::Float { nulls, .. }
            | Column::Str { nulls, .. } => nulls.null_count(),
            Column::Mixed(data) => data.iter().filter(|v| v.is_null()).count(),
        }
    }

    /// Borrowed cell view.
    #[inline]
    pub(crate) fn cell(&self, row: usize) -> Cell<'_> {
        match self {
            Column::Null { .. } => Cell::Null,
            Column::Bool { data, nulls } => {
                if nulls.is_null(row) {
                    Cell::Null
                } else {
                    Cell::Bool(data[row])
                }
            }
            Column::Int { data, nulls } => {
                if nulls.is_null(row) {
                    Cell::Null
                } else {
                    Cell::Int(data[row])
                }
            }
            Column::Float { data, nulls } => {
                if nulls.is_null(row) {
                    Cell::Null
                } else {
                    Cell::Float(data[row])
                }
            }
            Column::Str { data, nulls } => {
                if nulls.is_null(row) {
                    Cell::Null
                } else {
                    Cell::Str(&data[row])
                }
            }
            Column::Mixed(data) => Cell::of_value(&data[row]),
        }
    }

    /// Owned cell value (clones `Arc<str>` payloads cheaply).
    fn value(&self, row: usize) -> Value {
        match self {
            Column::Str { data, nulls } => {
                if nulls.is_null(row) {
                    Value::Null
                } else {
                    Value::Str(data[row].clone())
                }
            }
            Column::Mixed(data) => data[row].clone(),
            _ => match self.cell(row) {
                Cell::Null => Value::Null,
                Cell::Bool(b) => Value::Bool(b),
                Cell::Int(i) => Value::Int(i),
                Cell::Float(f) => Value::Float(f),
                Cell::Str(_) => unreachable!("handled above"),
            },
        }
    }

    /// A fresh typed column holding `n` leading nulls followed by `v`.
    /// Runs once per column per batch, so it stays out of line of the
    /// per-cell append.
    #[cold]
    #[inline(never)]
    fn typed_after_nulls(n: usize, v: Value) -> Column {
        let nulls = NullMask::all_null(n);
        match v {
            Value::Null => unreachable!("caller checked non-null"),
            Value::Bool(b) => {
                let mut data = vec![false; n];
                data.push(b);
                Column::Bool { data, nulls }
            }
            Value::Int(i) => {
                let mut data = vec![0i64; n];
                data.push(i);
                Column::Int { data, nulls }
            }
            Value::Float(f) => {
                let mut data = vec![0.0f64; n];
                data.push(f);
                Column::Float { data, nulls }
            }
            Value::Str(s) => {
                let empty: Arc<str> = Arc::from("");
                let mut data = vec![empty; n];
                data.push(s);
                Column::Str { data, nulls }
            }
        }
    }

    /// Appends one cell, promoting the column representation as needed.
    /// This is the only append: string payloads transfer ownership of
    /// the `Arc`, so a scatter or materialization pass over owned
    /// columns performs **zero** refcount traffic per present string
    /// cell. Always inlined, so that the scan's clone of a borrowed
    /// source cell and this match fold into one.
    #[inline(always)]
    fn push_value(&mut self, v: Value) {
        match self {
            Column::Null { rows } => {
                if v.is_null() {
                    *rows += 1;
                } else {
                    *self = Column::typed_after_nulls(*rows, v);
                }
            }
            Column::Bool { data, nulls } => match v {
                Value::Bool(b) => {
                    nulls.push(data.len(), false);
                    data.push(b);
                }
                Value::Null => {
                    nulls.push(data.len(), true);
                    data.push(false);
                }
                other => self.demote_and_push(other),
            },
            Column::Int { data, nulls } => match v {
                Value::Int(i) => {
                    nulls.push(data.len(), false);
                    data.push(i);
                }
                Value::Null => {
                    nulls.push(data.len(), true);
                    data.push(0);
                }
                other => self.demote_and_push(other),
            },
            Column::Float { data, nulls } => match v {
                Value::Float(f) => {
                    nulls.push(data.len(), false);
                    data.push(f);
                }
                Value::Null => {
                    nulls.push(data.len(), true);
                    data.push(0.0);
                }
                other => self.demote_and_push(other),
            },
            Column::Str { data, nulls } => match v {
                Value::Str(s) => {
                    nulls.push(data.len(), false);
                    data.push(s);
                }
                Value::Null => {
                    let ph = data.first().cloned().unwrap_or_else(|| Arc::from(""));
                    nulls.push(data.len(), true);
                    data.push(ph);
                }
                other => self.demote_and_push(other),
            },
            Column::Mixed(data) => data.push(v),
        }
    }

    /// Type mismatch: fall back to the mixed representation, moving the
    /// stored cells into it. Out of line of the per-cell append, like
    /// [`Column::typed_after_nulls`].
    #[cold]
    #[inline(never)]
    fn demote_and_push(&mut self, v: Value) {
        let col = std::mem::replace(self, Column::Null { rows: 0 });
        let mut data = Vec::with_capacity(col.len() + 1);
        col.into_each_value(|_, x| data.push(x));
        data.push(v);
        *self = Column::Mixed(data);
    }

    /// The owned walk: consumes the column, calling `f(row, value)` for
    /// every cell in row order. The representation is matched once per
    /// column, a column without nulls skips the per-cell mask test, and
    /// string payloads move out.
    #[inline]
    fn into_each_value(self, mut f: impl FnMut(usize, Value)) {
        let null = || Value::Null;
        match self {
            Column::Null { rows } => (0..rows).for_each(|r| f(r, Value::Null)),
            Column::Bool { data, nulls } => walk_typed(data, &nulls, null, Value::Bool, &mut f),
            Column::Int { data, nulls } => walk_typed(data, &nulls, null, Value::Int, &mut f),
            Column::Float { data, nulls } => walk_typed(data, &nulls, null, Value::Float, &mut f),
            Column::Str { data, nulls } => walk_typed(data, &nulls, null, Value::Str, &mut f),
            Column::Mixed(data) => data.into_iter().enumerate().for_each(|(r, v)| f(r, v)),
        }
    }

    /// The borrowed walk: calls `f(row, cell)` for every cell in row
    /// order, with the same shape as [`Column::into_each_value`] but
    /// lending string payloads instead of moving them.
    #[inline]
    fn for_each_cell<'a>(&'a self, mut f: impl FnMut(usize, Cell<'a>)) {
        let null = || Cell::Null;
        match self {
            Column::Null { rows } => (0..*rows).for_each(|r| f(r, Cell::Null)),
            Column::Bool { data, nulls } => {
                walk_typed(data, nulls, null, |&b| Cell::Bool(b), &mut f)
            }
            Column::Int { data, nulls } => walk_typed(data, nulls, null, |&i| Cell::Int(i), &mut f),
            Column::Float { data, nulls } => {
                walk_typed(data, nulls, null, |&x| Cell::Float(x), &mut f)
            }
            Column::Str { data, nulls } => walk_typed(data, nulls, null, |s| Cell::Str(s), &mut f),
            Column::Mixed(data) => data
                .iter()
                .enumerate()
                .for_each(|(r, v)| f(r, Cell::of_value(v))),
        }
    }

    /// Sum of `Value::encoded_len` over present (non-null) cells — the
    /// column's contribution to ship/spill byte accounting.
    fn present_encoded_len(&self) -> usize {
        match self {
            Column::Null { .. } => 0,
            Column::Bool { data, nulls } => 2 * (data.len() - nulls.null_count()),
            Column::Int { data, nulls } => 9 * (data.len() - nulls.null_count()),
            Column::Float { data, nulls } => 9 * (data.len() - nulls.null_count()),
            Column::Str { data, nulls } => {
                if nulls.null_count() == 0 {
                    data.iter().map(|s| 5 + s.len()).sum()
                } else {
                    data.iter()
                        .enumerate()
                        .filter(|(row, _)| !nulls.is_null(*row))
                        .map(|(_, s)| 5 + s.len())
                        .sum()
                }
            }
            Column::Mixed(data) => data
                .iter()
                .filter(|v| !v.is_null())
                .map(Value::encoded_len)
                .sum(),
        }
    }
}

/// The loop both column walks share over a typed column: calls
/// `f(row, wrap(payload))` for every cell, or `f(row, null())` where the
/// mask marks it null. A column without nulls skips the mask test.
#[inline(always)]
fn walk_typed<T, V>(
    data: impl IntoIterator<Item = T>,
    nulls: &NullMask,
    null: impl Fn() -> V,
    wrap: impl Fn(T) -> V,
    f: &mut impl FnMut(usize, V),
) {
    let cells = data.into_iter().enumerate();
    if nulls.null_count() == 0 {
        for (r, x) in cells {
            f(r, wrap(x));
        }
    } else {
        for (r, x) in cells {
            let v = if nulls.is_null(r) { null() } else { wrap(x) };
            f(r, v);
        }
    }
}

/// A fixed-width batch of rows stored column-major.
///
/// Built by [`BatchBuilder`]; immutable afterwards. Every row has
/// arity equal to [`ColumnBatch::width`], matching the engine's
/// global-record layout.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    rows: usize,
    cols: Vec<Column>,
}

impl PartialEq for ColumnBatch {
    /// Logical equality: the same row sequence, however each column
    /// happens to be stored.
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && (0..self.rows).all(|i| self.row(i) == other.row(i))
    }
}

impl Eq for ColumnBatch {}

impl ColumnBatch {
    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// `true` iff the batch holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of attributes (every row's arity).
    #[inline]
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// The columns.
    #[inline]
    pub fn columns(&self) -> &[Column] {
        &self.cols
    }

    /// Owned value of one cell; null for out-of-range columns,
    /// mirroring [`Record::field`]'s lenience.
    #[inline]
    pub fn value_at(&self, row: usize, col: usize) -> Value {
        match self.cols.get(col) {
            Some(c) => c.value(row),
            None => Value::Null,
        }
    }

    /// A cheap copyable view of one row.
    #[inline]
    pub fn row(&self, row: usize) -> RowRef<'_> {
        debug_assert!(row < self.rows);
        RowRef::column_row(self, row)
    }

    /// Materializes one row as a width-arity [`Record`].
    pub fn row_record(&self, row: usize) -> Record {
        Record::from_values(self.cols.iter().map(|c| c.value(row)))
    }

    /// Consumes the batch, materializing every row in order. Runs
    /// column-wise: rows start as all-null value vectors and each
    /// column fills its slot in one tight pass, **moving** string
    /// payloads out of the column store — no per-cell refcount
    /// traffic, unlike the row-at-a-time [`ColumnBatch::row_record`].
    pub fn into_records(self) -> Vec<Record> {
        let width = self.cols.len();
        let mut rows: Vec<Vec<Value>> = (0..self.rows).map(|_| vec![Value::Null; width]).collect();
        for (c, col) in self.cols.into_iter().enumerate() {
            // Rows start null, so an all-null column has nothing to write.
            if !matches!(col, Column::Null { .. }) {
                col.into_each_value(|r, v| rows[r][c] = v);
            }
        }
        rows.into_iter().map(Record::new).collect()
    }

    /// Consumes the batch, scattering row `r` into
    /// `builders[dests[r]]` — the vectorized routing kernel behind the
    /// hash-partition ship. Runs column-wise over owned columns, so
    /// string payloads **move** to their destination builder, and rows
    /// keep their arrival order within each destination. Every builder
    /// must have this batch's width; `dests` must have one entry per
    /// row, each `< builders.len()`.
    pub fn scatter_into(self, dests: &[u32], builders: &mut [&mut BatchBuilder]) {
        debug_assert_eq!(dests.len(), self.rows);
        debug_assert!(builders.iter().all(|b| b.width() == self.cols.len()));
        for (c, col) in self.cols.into_iter().enumerate() {
            col.into_each_value(|r, v| builders[dests[r] as usize].cols[c].push_value(v));
        }
        for &d in dests {
            builders[d as usize].rows += 1;
        }
    }

    /// Total null cells across all columns (for null-density stats).
    pub fn null_cells(&self) -> usize {
        self.cols.iter().map(Column::null_count).sum()
    }

    /// Total cells (`rows × width`).
    pub fn total_cells(&self) -> usize {
        self.rows * self.cols.len()
    }

    /// Serialized size under the engine's cost accounting: exactly the
    /// sum of [`Record::encoded_len`] over the materialized rows
    /// (4-byte header per row plus present-cell payloads), computed
    /// column-wise without materializing anything.
    pub fn encoded_len(&self) -> usize {
        4 * self.rows
            + self
                .cols
                .iter()
                .map(Column::present_encoded_len)
                .sum::<usize>()
    }

    /// Vectorized key hashing: for every row, the FxHash of the key
    /// cells in order — bit-identical to hashing the materialized
    /// row's key fields through [`crate::hash::FxHasher`]. `out` is
    /// cleared and refilled.
    pub fn key_hash_into(&self, key: &[usize], out: &mut Vec<u64>) {
        out.clear();
        out.resize(self.rows, 0);
        for &k in key {
            match self.cols.get(k) {
                Some(col) => col.for_each_cell(|r, cell| out[r] = cell.fold_hash(out[r])),
                // Out-of-range columns hash as null cells.
                None => out.iter_mut().for_each(|h| *h = Cell::Null.fold_hash(*h)),
            }
        }
    }

    /// Borrowed view of one cell; null for out-of-range columns,
    /// mirroring [`Record::field`]'s lenience.
    #[inline]
    pub(crate) fn cell(&self, row: usize, col: usize) -> Cell<'_> {
        self.cols.get(col).map_or(Cell::Null, |c| c.cell(row))
    }
}

/// Schema-aware builder assembling a [`ColumnBatch`] row by row.
#[derive(Debug, Clone)]
pub struct BatchBuilder {
    rows: usize,
    cols: Vec<Column>,
}

impl BatchBuilder {
    /// A builder for `width`-attribute rows. Columns start in the
    /// zero-storage all-null representation.
    pub fn new(width: usize) -> Self {
        BatchBuilder {
            rows: 0,
            cols: (0..width).map(|_| Column::Null { rows: 0 }).collect(),
        }
    }

    /// Rows appended so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// `true` iff nothing has been appended.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The target width.
    #[inline]
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Appends a record, moving its fields into the columns (a string
    /// cell hands over its `Arc`). The record must have the builder's
    /// width: engine rows are in global layout.
    pub fn push(&mut self, r: Record) {
        debug_assert_eq!(
            r.arity(),
            self.width(),
            "record arity is not the batch width"
        );
        for (col, v) in self.cols.iter_mut().zip(r.into_fields()) {
            col.push_value(v);
        }
        self.rows += 1;
    }

    /// Appends a narrow record widened to the global layout: column
    /// `c` takes the record's field `map[c]` when `map[c]` is `Some`,
    /// else null. This fuses the engine's `widen` step into batch
    /// construction.
    pub fn push_widened(&mut self, r: &Record, map: &[Option<usize>]) {
        debug_assert_eq!(map.len(), self.cols.len());
        for (col, m) in self.cols.iter_mut().zip(map) {
            col.push_value(m.map_or(Value::Null, |i| r.field(i).clone()));
        }
        self.rows += 1;
    }

    /// Appends row `row` of `src`, cloning its payloads (the row-by-row
    /// counterpart of [`ColumnBatch::scatter_into`]). The source batch
    /// must have the same width.
    pub fn append_row(&mut self, src: &ColumnBatch, row: usize) {
        debug_assert_eq!(src.width(), self.width());
        for (col, s) in self.cols.iter_mut().zip(&src.cols) {
            col.push_value(s.value(row));
        }
        self.rows += 1;
    }

    /// Finishes the batch, resetting the builder to empty with the
    /// same width.
    pub fn take(&mut self) -> ColumnBatch {
        let width = self.width();
        let b = std::mem::replace(self, BatchBuilder::new(width));
        ColumnBatch {
            rows: b.rows,
            cols: b.cols,
        }
    }

    /// Finishes the batch.
    pub fn finish(self) -> ColumnBatch {
        ColumnBatch {
            rows: self.rows,
            cols: self.cols,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::FxHasher;
    use std::hash::{Hash, Hasher};

    fn sample_records() -> Vec<Record> {
        vec![
            Record::from_values([
                Value::Int(1),
                Value::str("alpha"),
                Value::Null,
                Value::Float(1.5),
            ]),
            Record::from_values([Value::Int(2), Value::Null, Value::Null, Value::Float(-0.0)]),
            Record::from_values([Value::Null, Value::str("beta"), Value::Null, Value::Null]),
            Record::from_values([
                Value::Int(4),
                Value::str(""),
                Value::Null,
                Value::Float(f64::NAN),
            ]),
        ]
    }

    fn build(records: &[Record], width: usize) -> ColumnBatch {
        let mut b = BatchBuilder::new(width);
        for r in records {
            b.push(r.clone());
        }
        b.finish()
    }

    fn row_key_hash(r: &Record, key: &[usize]) -> u64 {
        let mut h = FxHasher::default();
        for &k in key {
            r.field(k).hash(&mut h);
        }
        h.finish()
    }

    #[test]
    fn roundtrip_is_identity() {
        let recs = sample_records();
        let cb = build(&recs, 4);
        assert_eq!(cb.len(), 4);
        assert_eq!(cb.width(), 4);
        assert_eq!(cb.clone().into_records(), recs);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(cb.row_record(i), *r);
            assert_eq!(cb.row(i), RowRef::from(r));
            assert_eq!(cb.row(i).to_record(), *r);
        }
    }

    #[test]
    fn all_null_column_stores_nothing() {
        let cb = build(&sample_records(), 4);
        assert!(matches!(cb.columns()[2], Column::Null { rows: 4 }));
    }

    #[test]
    fn mixed_column_promotion() {
        let recs = vec![
            Record::from_values([Value::Int(1)]),
            Record::from_values([Value::str("x")]),
            Record::from_values([Value::Null]),
        ];
        let cb = build(&recs, 1);
        assert!(matches!(cb.columns()[0], Column::Mixed(_)));
        assert_eq!(cb.into_records(), recs);
    }

    #[test]
    fn encoded_len_matches_row_sum() {
        let recs = sample_records();
        let cb = build(&recs, 4);
        let want: usize = recs.iter().map(Record::encoded_len).sum();
        assert_eq!(cb.encoded_len(), want);
    }

    #[test]
    fn key_hash_matches_row_path() {
        let recs = sample_records();
        let cb = build(&recs, 4);
        for key in [
            vec![0usize],
            vec![1],
            vec![2],
            vec![3],
            vec![0, 1],
            vec![3, 0, 2],
            vec![9],
        ] {
            let mut hashes = Vec::new();
            cb.key_hash_into(&key, &mut hashes);
            for (i, r) in recs.iter().enumerate() {
                assert_eq!(hashes[i], row_key_hash(r, &key), "key {key:?} row {i}");
            }
        }
    }

    #[test]
    fn row_view_key_cmp_matches_value_order() {
        let recs = sample_records();
        let cb = build(&recs, 4);
        let key = [0usize, 3];
        for a in 0..recs.len() {
            for b in 0..recs.len() {
                let want = key
                    .iter()
                    .map(|&k| recs[a].field(k).cmp(recs[b].field(k)))
                    .find(|o| *o != Ordering::Equal)
                    .unwrap_or(Ordering::Equal);
                let got = cb.row(a).key_cmp(&RowRef::from(&recs[b]), &key);
                assert_eq!(got, want, "rows {a} vs {b}");
            }
        }
    }

    #[test]
    fn scatter_gather_append_row() {
        let recs = sample_records();
        let cb = build(&recs, 4);
        let mut even = BatchBuilder::new(4);
        let mut odd = BatchBuilder::new(4);
        for row in 0..cb.len() {
            if row % 2 == 0 {
                even.append_row(&cb, row);
            } else {
                odd.append_row(&cb, row);
            }
        }
        assert_eq!(
            even.finish().into_records(),
            vec![recs[0].clone(), recs[2].clone()]
        );
        assert_eq!(
            odd.finish().into_records(),
            vec![recs[1].clone(), recs[3].clone()]
        );
    }

    #[test]
    fn push_widened_pads_with_nulls() {
        // Narrow 2-field records widened to width 4 at columns 1 and 3.
        let map = [None, Some(0usize), None, Some(1usize)];
        let mut b = BatchBuilder::new(4);
        let r = Record::from_values([Value::Int(7), Value::str("p")]);
        b.push_widened(&r, &map);
        let cb = b.finish();
        assert_eq!(
            cb.row_record(0),
            Record::from_values([Value::Null, Value::Int(7), Value::Null, Value::str("p")])
        );
    }

    #[test]
    fn take_resets_builder() {
        let mut b = BatchBuilder::new(1);
        b.push(Record::from_values([Value::Int(1)]));
        let first = b.take();
        assert_eq!(first.len(), 1);
        assert!(b.is_empty());
        b.push(Record::from_values([Value::Int(2)]));
        assert_eq!(
            b.finish().into_records(),
            vec![Record::from_values([Value::Int(2)])]
        );
    }

    #[test]
    fn null_density_counters() {
        let cb = build(&sample_records(), 4);
        // Col 0: 1 null; col 1: 1 null; col 2: 4 nulls; col 3: 1 null.
        assert_eq!(cb.null_cells(), 7);
        assert_eq!(cb.total_cells(), 16);
    }
}
