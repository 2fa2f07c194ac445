//! Record batches: the unit of data flow between physical operators.
//!
//! The execution engine moves records between operators in batches rather
//! than as fully materialized per-operator vectors. A [`RecordBatch`] is an
//! ordered run of rows that is produced once and then treated as
//! immutable; the engine wraps batches in [`std::sync::Arc`] so that
//! broadcast shipping can hand the *same* batch to every partition without
//! deep-cloning records.
//!
//! A batch has one layout: it is a [`ColumnBatch`] of per-attribute value
//! vectors with null masks (see [`crate::columns`]), assembled by a
//! [`BatchBuilder`](crate::columns::BatchBuilder) — in the engine by the scan, by the Partition scatter,
//! and by every operator as each UDF call returns. Rows are in global
//! layout, so every row's arity is the batch width. Operators run
//! column-wise kernels where one exists (key hashing, scatter routing,
//! byte accounting); row-at-a-time consumers read cheap
//! [`RowRef`](crate::RowRef) views ([`ColumnBatch::row`]) and materialize
//! records only where they keep them ([`ColumnBatch::into_records`]).

use crate::columns::ColumnBatch;

/// An immutable-after-construction run of global-layout rows: the
/// engine's name for a [`ColumnBatch`], built by a
/// [`BatchBuilder`](crate::columns::BatchBuilder).
pub type RecordBatch = ColumnBatch;

impl ColumnBatch {
    /// Default number of records per batch used by the execution engine.
    pub const DEFAULT_SIZE: usize = 1024;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns::BatchBuilder;
    use crate::record::Record;
    use crate::value::Value;

    fn rec(v: i64) -> Record {
        Record::from_values([Value::Int(v)])
    }

    fn batch(recs: &[Record]) -> RecordBatch {
        let mut b = BatchBuilder::new(1);
        for r in recs {
            b.push(r.clone());
        }
        b.finish()
    }

    #[test]
    fn build_and_read() {
        let mut b = BatchBuilder::new(1);
        assert!(b.is_empty());
        b.push(rec(1));
        b.push(rec(2));
        let b = b.finish();
        assert_eq!(b.len(), 2);
        assert_eq!(b.row(1).to_record(), rec(2));
        assert_eq!(b.row(0).to_record(), rec(1));
    }

    #[test]
    fn encoded_len_sums_records() {
        assert_eq!(batch(&[rec(1), rec(2)]).encoded_len(), 2 * (4 + 9));
    }

    #[test]
    fn into_records_roundtrip() {
        let recs: Vec<Record> = (0..3).map(rec).collect();
        assert_eq!(batch(&recs).into_records(), recs);
    }

    #[test]
    fn columnar_batch_behaves_like_rows() {
        let recs: Vec<Record> = (0..5).map(rec).collect();
        let col = batch(&recs);
        assert_eq!(col.len(), 5);
        assert_eq!(
            col.encoded_len(),
            recs.iter().map(Record::encoded_len).sum::<usize>()
        );
        // Equality is row by row.
        assert_eq!(col, batch(&recs));
        assert_ne!(col, batch(&recs[1..]));
        assert_eq!(col.clone().into_records(), recs);
        assert_eq!(col.row(2).to_record(), recs[2]);
    }
}
