//! Record batches: the unit of data flow between physical operators.
//!
//! The execution engine moves records between operators in batches rather
//! than as fully materialized per-operator vectors. A [`RecordBatch`] is an
//! ordered run of records that is produced once and then treated as
//! immutable; the engine wraps batches in [`std::sync::Arc`] so that
//! broadcast shipping can hand the *same* batch to every partition without
//! deep-cloning records.
//!
//! A batch holds its rows in one of two representations:
//!
//! * **row-major** — a `Vec<Record>`, the layout UDF emission paths
//!   produce naturally (records may have ragged arity there);
//! * **columnar** — a [`ColumnBatch`] of per-attribute value vectors
//!   with null masks (see [`crate::columns`]), produced by the scan and
//!   scatter paths where every row is in uniform global layout.
//!
//! Operators dispatch on [`RecordBatch::columns`] where a vectorized
//! kernel exists; row-at-a-time consumers read either layout through
//! cheap [`RowRef`] views ([`RecordBatch::row`]) and materialize records
//! only where they keep them ([`RecordBatch::into_records`]).

use crate::columns::ColumnBatch;
use crate::hash::FxHasher;
use crate::record::Record;
use crate::row::RowRef;
use std::hash::{Hash, Hasher};

/// The physical representation behind a [`RecordBatch`].
#[derive(Debug, Clone)]
enum Repr {
    Rows(Vec<Record>),
    Columns(ColumnBatch),
}

/// An immutable-after-construction run of records.
///
/// Batches carry no schema of their own: records inside the engine are
/// always in global-record layout (see the crate docs), so the batch is a
/// plain container with byte accounting. Batches built from
/// [`ColumnBatch`]es store rows column-major; see the module docs.
#[derive(Debug, Clone)]
pub struct RecordBatch {
    repr: Repr,
}

impl Default for RecordBatch {
    fn default() -> Self {
        RecordBatch {
            repr: Repr::Rows(Vec::new()),
        }
    }
}

impl RecordBatch {
    /// Default number of records per batch used by the execution engine.
    pub const DEFAULT_SIZE: usize = 1024;

    /// Creates an empty (row-major) batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a row-major batch owning the given records.
    pub fn from_records(records: Vec<Record>) -> Self {
        RecordBatch {
            repr: Repr::Rows(records),
        }
    }

    /// Creates a columnar batch from per-attribute column vectors.
    pub fn from_columns(cols: ColumnBatch) -> Self {
        RecordBatch {
            repr: Repr::Columns(cols),
        }
    }

    /// Number of records in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Rows(r) => r.len(),
            Repr::Columns(c) => c.len(),
        }
    }

    /// `true` iff the batch holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a record (only meaningful while building a row-major
    /// batch).
    ///
    /// # Panics
    /// Panics on a columnar batch — columnar batches are assembled
    /// through [`BatchBuilder`](crate::columns::BatchBuilder) and
    /// immutable afterwards.
    pub fn push(&mut self, r: Record) {
        match &mut self.repr {
            Repr::Rows(recs) => recs.push(r),
            Repr::Columns(_) => panic!("RecordBatch::push on a columnar batch"),
        }
    }

    /// The columnar storage, when this batch is column-major.
    #[inline]
    pub fn columns(&self) -> Option<&ColumnBatch> {
        match &self.repr {
            Repr::Rows(_) => None,
            Repr::Columns(c) => Some(c),
        }
    }

    /// Read-only view of the records of a row-major batch.
    ///
    /// # Panics
    /// Panics on a columnar batch: a column store has no `&[Record]`
    /// to lend. Dispatch on [`RecordBatch::columns`] first, or use
    /// [`RecordBatch::into_records`] / [`RecordBatch::to_records`].
    #[inline]
    pub fn records(&self) -> &[Record] {
        match &self.repr {
            Repr::Rows(r) => r,
            Repr::Columns(_) => panic!("RecordBatch::records on a columnar batch"),
        }
    }

    /// Consumes the batch, returning its records (materializing them
    /// column-wise, with moved payloads, for columnar batches).
    pub fn into_records(self) -> Vec<Record> {
        match self.repr {
            Repr::Rows(r) => r,
            Repr::Columns(c) => c.into_records(),
        }
    }

    /// Consumes the batch, returning its columnar storage when
    /// column-major (`None` for row-major batches).
    pub fn into_columns(self) -> Option<ColumnBatch> {
        match self.repr {
            Repr::Rows(_) => None,
            Repr::Columns(c) => Some(c),
        }
    }

    /// Clones the rows out as records, materializing columnar batches.
    pub fn to_records(&self) -> Vec<Record> {
        match &self.repr {
            Repr::Rows(r) => r.clone(),
            Repr::Columns(c) => c.to_records(),
        }
    }

    /// A cheap view of row `row`, in either layout.
    #[inline]
    pub fn row(&self, row: usize) -> RowRef<'_> {
        match &self.repr {
            Repr::Rows(r) => RowRef::from(&r[row]),
            Repr::Columns(c) => c.row(row),
        }
    }

    /// The FxHash of every row's `key` fields, in row order, into `out`
    /// (cleared first): the columnar kernel
    /// ([`ColumnBatch::key_hash_into`]) or, row-major, each record's key
    /// fields through [`FxHasher`] — the same bits either way.
    pub fn key_hash_into(&self, key: &[usize], out: &mut Vec<u64>) {
        match &self.repr {
            Repr::Columns(c) => c.key_hash_into(key, out),
            Repr::Rows(rows) => {
                out.clear();
                out.extend(rows.iter().map(|r| {
                    let mut h = FxHasher::default();
                    for &k in key {
                        r.field(k).hash(&mut h);
                    }
                    h.finish()
                }));
            }
        }
    }

    /// Total approximate serialized size in bytes (sum of
    /// [`Record::encoded_len`]). Used for shipping byte accounting.
    /// Columnar batches compute this column-wise; both layouts agree
    /// exactly.
    pub fn encoded_len(&self) -> usize {
        match &self.repr {
            Repr::Rows(r) => r.iter().map(Record::encoded_len).sum(),
            Repr::Columns(c) => c.encoded_len(),
        }
    }

    /// Splits a record vector into batches of at most `size` records.
    /// `size == 0` is clamped to 1. An empty input yields no batches.
    pub fn chunked(records: Vec<Record>, size: usize) -> Vec<RecordBatch> {
        let size = size.max(1);
        if records.len() <= size {
            return if records.is_empty() {
                Vec::new()
            } else {
                vec![RecordBatch::from_records(records)]
            };
        }
        let mut out = Vec::with_capacity(records.len().div_ceil(size));
        let mut it = records.into_iter();
        loop {
            let chunk: Vec<Record> = it.by_ref().take(size).collect();
            if chunk.is_empty() {
                break;
            }
            out.push(RecordBatch::from_records(chunk));
        }
        out
    }
}

impl PartialEq for RecordBatch {
    /// Logical equality: same row sequence, regardless of layout.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.row(i) == other.row(i))
    }
}

impl Eq for RecordBatch {}

impl FromIterator<Record> for RecordBatch {
    fn from_iter<T: IntoIterator<Item = Record>>(iter: T) -> Self {
        RecordBatch {
            repr: Repr::Rows(iter.into_iter().collect()),
        }
    }
}

impl IntoIterator for RecordBatch {
    type Item = Record;
    type IntoIter = std::vec::IntoIter<Record>;
    fn into_iter(self) -> Self::IntoIter {
        self.into_records().into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns::BatchBuilder;
    use crate::value::Value;

    fn rec(v: i64) -> Record {
        Record::from_values([Value::Int(v)])
    }

    #[test]
    fn build_and_read() {
        let mut b = RecordBatch::new();
        assert!(b.is_empty());
        b.push(rec(1));
        b.push(rec(2));
        assert_eq!(b.len(), 2);
        assert_eq!(b.records()[1], rec(2));
        assert_eq!(b.row(0).to_record(), rec(1));
    }

    #[test]
    fn chunking_splits_evenly_and_unevenly() {
        let recs: Vec<Record> = (0..7).map(rec).collect();
        let chunks = RecordBatch::chunked(recs, 3);
        assert_eq!(
            chunks.iter().map(RecordBatch::len).collect::<Vec<_>>(),
            vec![3, 3, 1]
        );
        // Order is preserved across chunks.
        let flat: Vec<Record> = chunks.into_iter().flatten().collect();
        assert_eq!(flat, (0..7).map(rec).collect::<Vec<_>>());
    }

    #[test]
    fn chunking_edge_cases() {
        assert!(RecordBatch::chunked(vec![], 4).is_empty());
        // Zero size is clamped to 1.
        assert_eq!(RecordBatch::chunked(vec![rec(1), rec(2)], 0).len(), 2);
        // Fits in one batch: no re-allocation of the record vector.
        let one = RecordBatch::chunked(vec![rec(1)], 10);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].len(), 1);
    }

    #[test]
    fn encoded_len_sums_records() {
        let b: RecordBatch = [rec(1), rec(2)].into_iter().collect();
        assert_eq!(b.encoded_len(), 2 * (4 + 9));
    }

    #[test]
    fn into_records_roundtrip() {
        let recs: Vec<Record> = (0..3).map(rec).collect();
        let b = RecordBatch::from_records(recs.clone());
        assert_eq!(b.into_records(), recs);
    }

    #[test]
    fn columnar_batch_behaves_like_rows() {
        let recs: Vec<Record> = (0..5).map(rec).collect();
        let mut builder = BatchBuilder::new(1);
        for r in &recs {
            builder.push_record(r);
        }
        let col = RecordBatch::from_columns(builder.finish());
        let row = RecordBatch::from_records(recs.clone());
        assert_eq!(col.len(), 5);
        assert!(col.columns().is_some());
        assert_eq!(col.encoded_len(), row.encoded_len());
        // Logical equality across layouts.
        assert_eq!(col, row);
        assert_eq!(col.clone().into_records(), recs);
        assert_eq!(col.to_records(), recs);
        assert_eq!(col.row(2).to_record(), recs[2]);
        assert_eq!(row.row(2).to_record(), recs[2]);
    }

    #[test]
    #[should_panic(expected = "columnar batch")]
    fn records_panics_on_columnar() {
        let mut builder = BatchBuilder::new(1);
        builder.push_record(&rec(1));
        let b = RecordBatch::from_columns(builder.finish());
        let _ = b.records();
    }
}
