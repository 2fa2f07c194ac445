//! Data sets with bag (multiset) semantics.

use crate::record::Record;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// An unordered list (bag) of records, `D = [r1, …, rn]`.
///
/// Equality follows Definition 2.2 of the paper: `D1 ≡ D2` iff there exist
/// orderings of their records making them pairwise equal — i.e. multiset
/// equality. [`PartialEq`] implements exactly that (it is order-insensitive),
/// which is what every plan-equivalence test in this repository relies on.
///
/// The records are shared copy-on-write: `clone` bumps a reference count,
/// and a write to a shared set copies the records first. So an execution
/// can hold its inputs without borrowing the caller's.
#[derive(Debug, Clone, Default)]
pub struct DataSet {
    records: Arc<Vec<Record>>,
}

impl DataSet {
    /// Creates an empty data set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a data set from records.
    pub fn from_records(records: Vec<Record>) -> Self {
        DataSet {
            records: Arc::new(records),
        }
    }

    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` iff the data set holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends a record.
    pub fn push(&mut self, r: Record) {
        Arc::make_mut(&mut self.records).push(r);
    }

    /// Read-only view of the records (in internal, arbitrary order).
    #[inline]
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Consumes the data set, returning its records: moved when this is
    /// the only handle, cloned when the set is shared.
    pub fn into_records(self) -> Vec<Record> {
        Arc::try_unwrap(self.records).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Iterates over the records.
    pub fn iter(&self) -> std::slice::Iter<'_, Record> {
        self.records.iter()
    }

    /// Total approximate serialized size in bytes.
    pub fn encoded_len(&self) -> usize {
        self.records.iter().map(Record::encoded_len).sum()
    }

    /// Returns a canonically sorted copy of the records — a stable textual
    /// witness for golden tests and debugging.
    pub fn sorted(&self) -> Vec<Record> {
        let mut v = self.records.to_vec();
        v.sort_unstable();
        v
    }

    /// Multiset equality with a counterexample: returns `Ok(())` when the
    /// bags are equal, otherwise a human-readable explanation of the first
    /// difference. Used by the plan-equivalence harness so failures are
    /// debuggable.
    pub fn bag_diff(&self, other: &DataSet) -> Result<(), String> {
        if self.len() != other.len() {
            return Err(format!(
                "cardinality mismatch: {} vs {} records",
                self.len(),
                other.len()
            ));
        }
        let mut counts: BTreeMap<&Record, i64> = BTreeMap::new();
        for r in self.records.iter() {
            *counts.entry(r).or_insert(0) += 1;
        }
        for r in other.records.iter() {
            match counts.get_mut(r) {
                Some(c) => *c -= 1,
                None => return Err(format!("record {r} present only on the right")),
            }
        }
        for (r, c) in counts {
            if c != 0 {
                return Err(format!(
                    "record {r} has multiplicity difference {c} (left minus right)"
                ));
            }
        }
        Ok(())
    }
}

impl PartialEq for DataSet {
    /// Multiset (bag) equality, per the paper's `≡` relation on data sets.
    fn eq(&self, other: &Self) -> bool {
        self.bag_diff(other).is_ok()
    }
}

impl Eq for DataSet {}

impl FromIterator<Record> for DataSet {
    fn from_iter<T: IntoIterator<Item = Record>>(iter: T) -> Self {
        DataSet::from_records(iter.into_iter().collect())
    }
}

impl IntoIterator for DataSet {
    type Item = Record;
    type IntoIter = std::vec::IntoIter<Record>;
    fn into_iter(self) -> Self::IntoIter {
        self.into_records().into_iter()
    }
}

impl<'a> IntoIterator for &'a DataSet {
    type Item = &'a Record;
    type IntoIter = std::slice::Iter<'a, Record>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl fmt::Display for DataSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{} records]", self.records.len())?;
        for r in self.sorted().iter().take(20) {
            writeln!(f, "  {r}")?;
        }
        if self.records.len() > 20 {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn rec(vals: &[i64]) -> Record {
        Record::from_values(vals.iter().map(|&v| Value::Int(v)))
    }

    fn ds(rows: &[&[i64]]) -> DataSet {
        rows.iter().map(|r| rec(r)).collect()
    }

    #[test]
    fn bag_equality_ignores_order() {
        assert_eq!(ds(&[&[1], &[2], &[3]]), ds(&[&[3], &[1], &[2]]));
    }

    #[test]
    fn bag_equality_respects_multiplicity() {
        assert_ne!(ds(&[&[1], &[1], &[2]]), ds(&[&[1], &[2], &[2]]));
        assert_eq!(ds(&[&[1], &[1]]), ds(&[&[1], &[1]]));
    }

    #[test]
    fn bag_diff_reports_cardinality() {
        let err = ds(&[&[1]]).bag_diff(&ds(&[&[1], &[2]])).unwrap_err();
        assert!(err.contains("cardinality"), "{err}");
    }

    #[test]
    fn bag_diff_reports_missing_record() {
        let err = ds(&[&[1], &[2]]).bag_diff(&ds(&[&[1], &[3]])).unwrap_err();
        assert!(err.contains("⟨3⟩"), "{err}");
    }

    #[test]
    fn empty_sets_are_equal() {
        assert_eq!(DataSet::new(), DataSet::new());
        assert!(DataSet::new().is_empty());
    }

    #[test]
    fn sorted_is_canonical() {
        let a = ds(&[&[3], &[1], &[2]]);
        let b = ds(&[&[2], &[3], &[1]]);
        assert_eq!(a.sorted(), b.sorted());
    }

    #[test]
    fn push_and_len() {
        let mut d = DataSet::new();
        d.push(rec(&[7]));
        assert_eq!(d.len(), 1);
        assert_eq!(d.records()[0], rec(&[7]));
    }

    #[test]
    fn encoded_len_sums_records() {
        let d = ds(&[&[1], &[2]]);
        assert_eq!(d.encoded_len(), 2 * (4 + 9));
    }

    #[test]
    fn a_push_into_either_handle_leaves_the_other_unchanged() {
        let original = ds(&[&[1], &[2]]);
        let mut copy = original.clone();
        copy.push(rec(&[3]));
        assert_eq!(original.records(), ds(&[&[1], &[2]]).records());
        assert_eq!(copy.records(), ds(&[&[1], &[2], &[3]]).records());

        let mut original = original;
        let copy = original.clone();
        original.push(rec(&[4]));
        assert_eq!(copy.records(), ds(&[&[1], &[2]]).records());
        assert_eq!(original.records(), ds(&[&[1], &[2], &[4]]).records());
    }

    #[test]
    fn into_records_of_a_shared_set_leaves_the_other_handle_intact() {
        let original = ds(&[&[5], &[6]]);
        let copy = original.clone();
        assert_eq!(copy.into_records(), vec![rec(&[5]), rec(&[6])]);
        assert_eq!(original.records(), &[rec(&[5]), rec(&[6])]);
        let shared = original.clone();
        let moved: Vec<Record> = original.into_iter().collect();
        assert_eq!(moved, shared.records());
        // The last handle moves its records out.
        assert_eq!(shared.into_records(), moved);
    }

    #[test]
    fn a_set_and_its_clone_agree() {
        let original = ds(&[&[3], &[1], &[3]]);
        let copy = original.clone();
        assert_eq!(original, copy);
        assert_eq!(original.sorted(), copy.sorted());
        assert_eq!(original.encoded_len(), copy.encoded_len());
    }
}
