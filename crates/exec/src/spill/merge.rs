//! K-way merging of sorted runs with a loser tree.
//!
//! A [`LoserTree`] merges `k` sorted record sources in `O(log k)`
//! comparisons per record: each internal node remembers the *loser* of the
//! comparison played there, so replacing the winner replays exactly one
//! leaf-to-root path. Records compare in the canonical order on the
//! merge's key ([`RowRef::canonical_cmp`]), and ties break toward the
//! lower source index, making the merge fully deterministic.
//!
//! [`merge_runs`] is the entry point operators use: it bounds the merge
//! fan-in (and thus open file handles) by first compacting surplus runs
//! into larger intermediate runs — classic multi-pass external sorting —
//! then streams the final merge, appending the in-memory tail of
//! still-unspilled records as one extra source.

use crate::engine::ExecError;
use crate::spill::file::RunWriter;
use crate::spill::file::{RunReader, SortedRun};
use crate::spill::governor::{spill_err, MemoryGovernor};
use crate::trace::TraceRecorder;
use std::cmp::Ordering;
use std::sync::Arc;
use strato_record::{Record, RowRef};

/// Maximum sources merged at once (also the open-file-handle bound).
pub const MERGE_FAN_IN: usize = 32;

/// One input of a merge: a spill file on disk or an in-memory tail.
enum RunSource {
    Disk(RunReader),
    Mem(std::vec::IntoIter<Record>),
}

impl Iterator for RunSource {
    type Item = Result<Record, ExecError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            RunSource::Disk(r) => r.next(),
            RunSource::Mem(it) => it.next().map(Ok),
        }
    }
}

/// Sentinel leaf index meaning "not yet occupied" during tree build.
const NONE: usize = usize::MAX;

/// A k-way merge iterator over sources sorted in canonical order on one
/// key.
///
/// Yields records in that order; a source error (e.g. a truncated spill
/// file) is yielded once and the iterator then fuses. The final merge of
/// [`merge_runs`] records a `kway-merge` span over its whole lifetime
/// when the execution is traced and a disk run participates. The merge
/// streams interleaved with its consumer, so the span measures the drain
/// window (creation to drop), not pure merge CPU — per-record clock reads
/// on the merge hot path would violate the tracing overhead contract.
pub struct LoserTree {
    sources: Vec<RunSource>,
    /// Current head record of each source (`None` = exhausted).
    heads: Vec<Option<Record>>,
    /// `tree[0]` = overall winner; `tree[1..k]` = loser parked per node.
    tree: Vec<usize>,
    /// The key of the canonical order, as column indices.
    key: Vec<usize>,
    k: usize,
    failed: bool,
    /// `(recorder, start, source count)` of the `kway-merge` span.
    span: Option<(Arc<TraceRecorder>, u64, usize)>,
}

impl LoserTree {
    /// Builds the tree, pulling one head record per source.
    fn new(mut sources: Vec<RunSource>, key: &[usize]) -> Result<Self, ExecError> {
        let k = sources.len();
        let mut heads = Vec::with_capacity(k);
        for s in &mut sources {
            heads.push(s.next().transpose()?);
        }
        let mut t = LoserTree {
            sources,
            heads,
            tree: vec![NONE; k.max(1)],
            key: key.to_vec(),
            k,
            failed: false,
            span: None,
        };
        for leaf in 0..k {
            t.adjust(leaf);
        }
        Ok(t)
    }

    /// Does leaf `a` beat leaf `b`? Exhausted sources always lose; ties go
    /// to the lower index (stable, deterministic merges).
    fn beats(&self, a: usize, b: usize) -> bool {
        match (&self.heads[a], &self.heads[b]) {
            (Some(x), Some(y)) => match RowRef::from(x).canonical_cmp(&y.into(), &self.key) {
                Ordering::Less => true,
                Ordering::Greater => false,
                Ordering::Equal => a < b,
            },
            (Some(_), None) => true,
            (None, _) => false,
        }
    }

    /// Replays leaf `s`'s path to the root, parking losers. During the
    /// initial build a leaf parks at the first empty node it meets.
    fn adjust(&mut self, mut s: usize) {
        let mut t = (s + self.k) / 2;
        while t > 0 {
            if self.tree[t] == NONE {
                self.tree[t] = s;
                return;
            }
            if self.beats(self.tree[t], s) {
                std::mem::swap(&mut s, &mut self.tree[t]);
            }
            t /= 2;
        }
        self.tree[0] = s;
    }
}

impl Iterator for LoserTree {
    type Item = Result<Record, ExecError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.k == 0 {
            return None;
        }
        let w = self.tree[0];
        let rec = self.heads[w].take()?;
        match self.sources[w].next().transpose() {
            Ok(next) => self.heads[w] = next,
            Err(e) => {
                self.failed = true;
                return Some(Err(e));
            }
        }
        self.adjust(w);
        Some(Ok(rec))
    }
}

impl Drop for LoserTree {
    fn drop(&mut self) {
        if let Some((tr, t0, sources)) = self.span.take() {
            tr.record("kway-merge", "merge", t0, vec![("sources", sources as u64)]);
        }
    }
}

/// Merges `runs` plus an in-memory `tail`, each in canonical order on
/// `key`, into one stream in that order.
///
/// When more than [`MERGE_FAN_IN`] runs exist, surplus runs are first
/// compacted into larger intermediate runs (written through `gov` into the
/// same scoped spill directory), so the final streaming merge never holds
/// more than `MERGE_FAN_IN + 1` sources open. Compaction rewrites are
/// merge work, not memory-pressure events: they are deliberately **not**
/// charged to the `ExecStats` spill counters, which count first-generation
/// pressure sheds (see `ExecStats::records_spilled`). Consumed source runs
/// delete their files on drop, so a pass holds at most two generations on
/// disk.
pub fn merge_runs(
    gov: &MemoryGovernor,
    runs: Vec<SortedRun>,
    tail: Vec<Record>,
    key: &[usize],
) -> Result<LoserTree, ExecError> {
    merge_runs_with_fan_in(gov, runs, tail, key, MERGE_FAN_IN)
}

/// [`merge_runs`] with an explicit fan-in bound (tests shrink it to force
/// multi-pass compaction on small inputs).
pub fn merge_runs_with_fan_in(
    gov: &MemoryGovernor,
    mut runs: Vec<SortedRun>,
    tail: Vec<Record>,
    key: &[usize],
    fan_in: usize,
) -> Result<LoserTree, ExecError> {
    let fan_in = fan_in.max(2);
    while runs.len() > fan_in {
        // Compact the oldest `fan_in` runs (oldest first keeps the pass
        // count logarithmic) into one larger run.
        let t0 = gov.trace().map(|tr| tr.now_ns());
        let batch: Vec<SortedRun> = runs.drain(..fan_in).collect();
        let mut sources = Vec::with_capacity(batch.len());
        for r in &batch {
            sources.push(RunSource::Disk(r.open()?));
        }
        let mut w = RunWriter::create(gov.new_run_path()?).map_err(spill_err)?;
        for rec in LoserTree::new(sources, key)? {
            w.write((&rec?).into()).map_err(spill_err)?;
        }
        let compacted = w.finish().map_err(spill_err)?;
        if let (Some(t0), Some(tr)) = (t0, gov.trace()) {
            tr.record(
                "merge-pass",
                "merge",
                t0,
                vec![
                    ("sources", fan_in as u64),
                    ("records", compacted.records()),
                    ("bytes", compacted.bytes()),
                ],
            );
        }
        runs.push(compacted);
    }
    let mut sources = Vec::with_capacity(runs.len() + 1);
    for r in &runs {
        sources.push(RunSource::Disk(r.open()?));
    }
    if !tail.is_empty() {
        sources.push(RunSource::Mem(tail.into_iter()));
    }
    let n_sources = sources.len();
    // A merge of the in-memory tail alone is a sort, not a merge: an
    // execution that never spilled records no `merge` span.
    let span = gov
        .trace()
        .filter(|_| !runs.is_empty())
        .map(|tr| (Arc::clone(tr), tr.now_ns(), n_sources));
    let mut merged = LoserTree::new(sources, key)?;
    merged.span = span;
    Ok(merged)
}

/// Walks a merged, sorted record stream as *groups*: consecutive records
/// with equal keys. Every sort-based finish of a blocking operator walks
/// one of these — a group (one key's records) must fit in memory, exactly
/// as the group-at-a-time UDF contract already requires.
pub(crate) struct GroupStream {
    inner: LoserTree,
    peeked: Option<Record>,
}

impl GroupStream {
    /// Groups `inner`'s records on the key it merges on.
    pub(crate) fn new(mut inner: LoserTree) -> Result<Self, ExecError> {
        let peeked = inner.next().transpose()?;
        Ok(GroupStream { inner, peeked })
    }

    /// The key the stream is sorted and grouped on.
    pub(crate) fn key(&self) -> &[usize] {
        &self.inner.key
    }

    /// The first record of the next group, without consuming it.
    pub(crate) fn peek(&self) -> Option<&Record> {
        self.peeked.as_ref()
    }

    /// Reads the next complete group, or `None` at end of stream.
    pub(crate) fn next_group(&mut self) -> Result<Option<Vec<Record>>, ExecError> {
        let Some(first) = self.peeked.take() else {
            return Ok(None);
        };
        let mut group = vec![first];
        while let Some(r) = self.inner.next().transpose()? {
            if RowRef::from(&group[0])
                .key_cmp(&(&r).into(), self.key())
                .is_ne()
            {
                self.peeked = Some(r);
                break;
            }
            group.push(r);
        }
        Ok(Some(group))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strato_record::Value;

    fn rec(v: i64) -> Record {
        Record::from_values([Value::Int(v)])
    }

    fn mem(vals: &[i64]) -> RunSource {
        RunSource::Mem(vals.iter().map(|&v| rec(v)).collect::<Vec<_>>().into_iter())
    }

    fn collect<I: Iterator<Item = Result<Record, ExecError>>>(it: I) -> Vec<i64> {
        it.map(|r| r.unwrap().field(0).as_int().unwrap()).collect()
    }

    #[test]
    fn merges_arbitrary_source_counts() {
        for k in 0..6usize {
            let sources: Vec<RunSource> = (0..k)
                .map(|i| {
                    let vals: Vec<i64> = (0..5).map(|j| (j * k + i) as i64).collect();
                    mem(&vals)
                })
                .collect();
            let merged = collect(LoserTree::new(sources, &[]).unwrap());
            let expected: Vec<i64> = (0..(5 * k) as i64).collect();
            assert_eq!(merged, expected, "k = {k}");
        }
    }

    #[test]
    fn uneven_and_empty_sources_merge() {
        let sources = vec![mem(&[1, 4, 9]), mem(&[]), mem(&[2]), mem(&[2, 3, 3, 10])];
        let merged = collect(LoserTree::new(sources, &[]).unwrap());
        assert_eq!(merged, vec![1, 2, 2, 3, 3, 4, 9, 10]);
    }

    #[test]
    fn compaction_bounds_fan_in_without_changing_the_result() {
        let g = MemoryGovernor::with_budget(Some(1));
        // 9 runs of 3 records, fan-in 2 → several compaction passes.
        let mut runs = Vec::new();
        for i in 0..9i64 {
            let recs: Vec<Record> = (0..3).map(|j| rec(i + 9 * j)).collect();
            runs.push(g.write_sorted_run(&recs).unwrap());
        }
        let tail: Vec<Record> = vec![rec(100), rec(101)];
        let merged = collect(merge_runs_with_fan_in(&g, runs, tail, &[], 2).unwrap());
        let mut expected: Vec<i64> = (0..27).collect();
        expected.extend([100, 101]);
        assert_eq!(merged, expected);
    }

    #[test]
    fn group_stream_walks_runs_of_equal_keys() {
        let src = LoserTree::new(vec![mem(&[1, 1, 2, 5, 5, 5])], &[0]).unwrap();
        let mut gs = GroupStream::new(src).unwrap();
        assert_eq!(gs.peek().unwrap().field(0), &Value::Int(1));
        let sizes: Vec<usize> = std::iter::from_fn(|| gs.next_group().unwrap())
            .map(|g| g.len())
            .collect();
        assert_eq!(sizes, vec![2, 1, 3]);
        assert!(gs.next_group().unwrap().is_none());
    }
}
