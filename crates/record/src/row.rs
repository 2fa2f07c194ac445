//! Row views: one borrowed row of a batch or a record.
//!
//! A [`RowRef`] reads a row of a [`ColumnBatch`] straight from its
//! column vectors, or a [`Record`] in place, so a consumer
//! that handles rows one at a time — a UDF invocation, a grouping table —
//! needs no `Record` until it keeps one. Every comparison here is
//! bit-faithful to the materialized rows: [`RowRef::cmp`] is
//! [`Record::cmp`], and [`RowRef::canonical_cmp`] is the engine's one
//! canonical `(key, row)` order, which [`sort_canonical`] sorts by.

use crate::columns::{Cell, ColumnBatch};
use crate::record::Record;
use crate::value::Value;
use std::cmp::Ordering;

/// A copyable borrowed view of one row: a row of a [`ColumnBatch`], or
/// a [`Record`] (`RowRef::from(&record)`).
#[derive(Debug, Clone, Copy)]
pub struct RowRef<'a>(View<'a>);

#[derive(Debug, Clone, Copy)]
enum View<'a> {
    Column { batch: &'a ColumnBatch, row: usize },
    Record(&'a Record),
}

impl<'a> RowRef<'a> {
    /// Row `row` of a columnar batch.
    #[inline]
    pub(crate) fn column_row(batch: &'a ColumnBatch, row: usize) -> Self {
        RowRef(View::Column { batch, row })
    }

    /// The row's arity: the batch width, or the record's arity.
    #[inline]
    pub fn arity(&self) -> usize {
        match self.0 {
            View::Column { batch, .. } => batch.width(),
            View::Record(r) => r.arity(),
        }
    }

    /// Owned value of field `col`; null when out of range, mirroring
    /// [`Record::field`].
    #[inline]
    pub fn value(&self, col: usize) -> Value {
        match self.0 {
            View::Column { batch, row } => batch.value_at(row, col),
            View::Record(r) => r.field(col).clone(),
        }
    }

    /// Materializes the row as a [`Record`].
    pub fn to_record(&self) -> Record {
        match self.0 {
            View::Column { batch, row } => batch.row_record(row),
            View::Record(r) => r.clone(),
        }
    }

    /// Borrowed cell `col`, null when out of range.
    #[inline]
    pub(crate) fn cell(&self, col: usize) -> Cell<'a> {
        match self.0 {
            View::Column { batch, row } => batch.cell(row, col),
            View::Record(r) => Cell::of_value(r.field(col)),
        }
    }

    /// Lexicographic comparison of the two rows' `key` fields under
    /// [`Value`]'s total order.
    #[inline]
    pub fn key_cmp(&self, other: &RowRef<'_>, key: &[usize]) -> Ordering {
        self.key_cmp2(key, other, key)
    }

    /// [`key_cmp`](RowRef::key_cmp) of this row's `key` fields against
    /// `other`'s `other_key` fields — the two inputs of a join key on
    /// different columns.
    pub fn key_cmp2(&self, key: &[usize], other: &RowRef<'_>, other_key: &[usize]) -> Ordering {
        debug_assert_eq!(key.len(), other_key.len());
        for (&a, &b) in key.iter().zip(other_key) {
            match self.cell(a).cmp(other.cell(b)) {
                Ordering::Equal => {}
                o => return o,
            }
        }
        Ordering::Equal
    }

    /// The engine's canonical `(key, row)` order:
    /// [`key_cmp`](RowRef::key_cmp) on `key`, then the whole row
    /// ([`RowRef::cmp`]). Groups are sorted, spilled, merged and walked in
    /// this order, so a group's contents are a function of the input bag,
    /// independent of partitioning, batch cuts and memory budget.
    #[inline]
    pub fn canonical_cmp(&self, other: &RowRef<'_>, key: &[usize]) -> Ordering {
        self.key_cmp(other, key).then_with(|| self.cmp(other))
    }

    /// Whether any `key` field is null (such rows match nothing in a
    /// join).
    #[inline]
    pub fn key_has_null(&self, key: &[usize]) -> bool {
        key.iter().any(|&k| matches!(self.cell(k), Cell::Null))
    }
}

impl<'a> From<&'a Record> for RowRef<'a> {
    #[inline]
    fn from(r: &'a Record) -> Self {
        RowRef(View::Record(r))
    }
}

impl Ord for RowRef<'_> {
    /// [`Record::cmp`] of the materialized rows: field by field, then the
    /// shorter row first.
    fn cmp(&self, other: &Self) -> Ordering {
        let n = self.arity().min(other.arity());
        (0..n)
            .map(|c| self.cell(c).cmp(other.cell(c)))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| self.arity().cmp(&other.arity()))
    }
}

impl PartialOrd for RowRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for RowRef<'_> {}

/// Lexicographic order of two cell slices, the shorter first on a tie.
fn cmp_cells(a: &[Cell<'_>], b: &[Cell<'_>]) -> Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.cmp(*y))
        .find(|o| o.is_ne())
        .unwrap_or_else(|| a.len().cmp(&b.len()))
}

/// Sorts `rows` in canonical order ([`RowRef::canonical_cmp`]): by
/// their `key` fields, then by the whole row.
///
/// Each row's cells are borrowed once, key cells first, so the sort
/// compares flat cell slices instead of dispatching on the column type
/// per comparison: with equally long key prefixes, one lexicographic
/// comparison of the two slices is the canonical one.
pub fn sort_canonical(rows: &mut [RowRef<'_>], key: &[usize]) {
    if rows.len() < 2 {
        return;
    }
    let mut cells = Vec::with_capacity(rows.len() * (key.len() + rows[0].arity()));
    let mut ends = Vec::with_capacity(rows.len());
    for r in rows.iter() {
        cells.extend(key.iter().map(|&k| r.cell(k)));
        cells.extend((0..r.arity()).map(|c| r.cell(c)));
        ends.push(cells.len());
    }
    let mut decorated: Vec<(&[Cell<'_>], RowRef<'_>)> = Vec::with_capacity(rows.len());
    let mut start = 0;
    for (r, &end) in rows.iter().zip(&ends) {
        decorated.push((&cells[start..end], *r));
        start = end;
    }
    decorated.sort_unstable_by(|a, b| cmp_cells(a.0, b.0));
    for (slot, (_, r)) in rows.iter_mut().zip(decorated) {
        *slot = r;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns::BatchBuilder;

    fn rec(vals: &[Value]) -> Record {
        Record::from_values(vals.iter().cloned())
    }

    #[test]
    fn both_layouts_read_and_materialize_alike() {
        let recs = [
            rec(&[Value::Int(1), Value::str("a"), Value::Null]),
            rec(&[Value::Null, Value::str("b"), Value::Float(-0.0)]),
        ];
        let mut b = BatchBuilder::new(3);
        for r in &recs {
            b.push(r.clone());
        }
        let cb = b.finish();
        for (i, r) in recs.iter().enumerate() {
            let (col, row) = (cb.row(i), RowRef::from(r));
            assert_eq!((col.arity(), row.arity()), (3, 3));
            for c in 0..4 {
                assert_eq!(col.value(c), *r.field(c));
                assert_eq!(row.value(c), *r.field(c));
            }
            assert_eq!(col.to_record(), *r);
            assert_eq!(row.to_record(), *r);
            assert_eq!(col, row);
        }
    }

    #[test]
    fn ragged_rows_order_like_records() {
        let short = rec(&[Value::Int(1)]);
        let long = rec(&[Value::Int(1), Value::Null]);
        let (s, l) = (RowRef::from(&short), RowRef::from(&long));
        assert_eq!(s.cmp(&l), short.cmp(&long));
        assert!(s < l);
        assert!(s.key_cmp(&l, &[0, 1]).is_eq(), "missing fields read null");
        assert!(s.key_has_null(&[1]) && !s.key_has_null(&[0]));
        assert!(l.key_cmp2(&[1], &s, &[1]).is_eq() && l.key_cmp2(&[1], &s, &[0]).is_lt());
    }

    #[test]
    fn sort_canonical_orders_by_key_then_row() {
        let recs: Vec<Record> = [(2, 1), (1, 9), (2, 0), (1, 3)]
            .iter()
            .map(|&(k, v)| rec(&[Value::Int(v), Value::Int(k)]))
            .collect();
        let mut rows: Vec<RowRef<'_>> = recs.iter().map(RowRef::from).collect();
        sort_canonical(&mut rows, &[1]);
        let got: Vec<(i64, i64)> = rows
            .iter()
            .map(|r| (r.value(1).as_int().unwrap(), r.value(0).as_int().unwrap()))
            .collect();
        assert_eq!(got, vec![(1, 3), (1, 9), (2, 0), (2, 1)]);
    }
}
