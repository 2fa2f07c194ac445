//! The governed buffer every blocking operator keeps per keyed input.

use crate::engine::ExecError;
use crate::operators::{key_minima, MinimaScratch, OpCtx};
use crate::spill::file::SortedRun;
use crate::spill::merge::{merge_runs, GroupStream};
use std::cmp::Ordering;
use std::sync::Arc;
use strato_record::{Record, RecordBatch, RowRef};

/// One keyed input of a blocking operator: the batches buffered so far,
/// held as they were pushed, the bytes granted for them, and the sorted
/// runs already shed to disk.
///
/// This is the only place operator state meets the spill files and the
/// [`MemoryGovernor`](crate::spill::MemoryGovernor):
/// [`push_batch`](RunBuffer::push_batch) grants,
/// [`spill`](RunBuffer::spill) writes a run and releases, and
/// [`drain_groups`](RunBuffer::drain_groups) is the one sort-based finish
/// — it merges the sorted tail with however many runs exist, *including
/// zero*, so an execution that never spilled walks the same code as one
/// that did. Held batches stay as they arrived: a spill writes its run straight from row views of them, the drain
/// materializes only the rows it keeps, and an in-memory (hash) finish
/// reads them in place ([`take_batches`](RunBuffer::take_batches)).
/// Spill and drain select the same rows: every row in canonical order,
/// less a join buffer's null-keyed ones, or — first-per-key — each key's
/// canonical minimum.
/// A batch still shared with other partitions (a broadcast side) is
/// never spilled: a copy on disk would free no memory — the allocation
/// lives until every holder drops it — while multiplying disk writes by
/// the fan-out. It stays resident, charged this holder's share, until the
/// finish. Whatever is still granted returns to the governor on drop
/// (failed spill, aborted query, early exit from a walk).
pub(crate) struct RunBuffer {
    /// The owning operator's context: its governor and its stats slot.
    ctx: OpCtx,
    /// The key this input is sorted and grouped on: the operator's
    /// `key_attrs[side]` as plain column indices.
    key: Vec<usize>,
    /// Join flavour: null-keyed rows match nothing, so they are dropped
    /// where buffered rows are selected — in `spill` and `drain_groups` —
    /// and remembered in `saw_null_key`. Grouping buffers keep them —
    /// null keys group like any other key.
    drop_null_keys: bool,
    saw_null_key: bool,
    /// A first-record-only Reduce reads nothing past each key group's
    /// first record, so `spill` and `drain_groups` keep only each key's
    /// canonical minimum.
    first_per_key: bool,
    /// The rows `select` kept, as `(batch, row)` positions in the batches
    /// it was given, and the buffers of its minima scan: both kept from
    /// one spill to the next, so a spill allocates nothing that grows
    /// with its batches.
    selection: Vec<(usize, usize)>,
    minima: MinimaScratch,
    /// Batches buffered by `push_batch`, as they arrived, each with the
    /// bytes it was granted.
    batches: Vec<(Arc<RecordBatch>, u64)>,
    /// Bytes granted for `batches`, and for batches handed out by
    /// `take_batches` until `release`.
    granted: u64,
    runs: Vec<SortedRun>,
}

impl RunBuffer {
    pub(crate) fn new(ctx: OpCtx, side: usize, drop_null_keys: bool) -> Self {
        let key = ctx.op().key_attrs[side].iter().map(|k| k.index()).collect();
        RunBuffer {
            ctx,
            key,
            drop_null_keys,
            saw_null_key: false,
            first_per_key: false,
            selection: Vec::new(),
            minima: MinimaScratch::default(),
            batches: Vec::new(),
            granted: 0,
            runs: Vec::new(),
        }
    }

    /// Makes [`spill`](RunBuffer::spill) and
    /// [`drain_groups`](RunBuffer::drain_groups) keep only the canonical
    /// minimum of each key group when `on` — for a Reduce whose UDF SCA
    /// proved first-record-only.
    pub(crate) fn with_first_per_key(mut self, on: bool) -> Self {
        self.first_per_key = on;
        self
    }

    /// Buffers `batch` as it is, granting its `encoded_len`.
    pub(crate) fn push_batch(&mut self, batch: Arc<RecordBatch>) {
        let mut charge = 0;
        if self.ctx.gov.bounded() {
            // A broadcast side is one `Arc`-shared allocation held by every
            // partition: charge each holder its share rather than the full
            // size `dop` times, so a side that genuinely fits resident
            // memory once is not over-counted into spilling. `div_ceil`
            // keeps every non-empty batch's charge positive (truncation
            // would let high fan-outs register as zero bytes); the shares
            // then sum to at least one full charge. Unshared batches
            // charge in full.
            let holders = Arc::strong_count(&batch) as u64;
            charge = (batch.encoded_len() as u64).div_ceil(holders);
            self.grant(charge);
        }
        self.batches.push((batch, charge));
    }

    fn grant(&mut self, bytes: u64) {
        self.granted += bytes;
        self.ctx.gov.grant(bytes);
    }

    /// Whether any run was written.
    pub(crate) fn spilled(&self) -> bool {
        !self.runs.is_empty()
    }

    /// Whether a join buffer dropped a null-keyed row.
    pub(crate) fn saw_null_key(&self) -> bool {
        self.saw_null_key
    }

    /// Sets `selection` to the rows of `batches` this buffer keeps, in
    /// canonical order: each key's minimum when first-per-key, else every
    /// row; a join buffer's null-keyed rows dropped (and remembered).
    fn select(&mut self, batches: &[&RecordBatch]) {
        let key = &self.key;
        let kept = &mut self.selection;
        if self.first_per_key {
            key_minima(batches, key, &mut self.minima, kept);
        } else {
            kept.clear();
            for (b, batch) in batches.iter().enumerate() {
                kept.extend((0..batch.len()).map(|r| (b, r)));
            }
        }
        let row = |(b, r): (usize, usize)| batches[b].row(r);
        if self.drop_null_keys {
            let all = kept.len();
            kept.retain(|&at| !row(at).key_has_null(key));
            self.saw_null_key |= kept.len() < all;
        }
        kept.sort_unstable_by(|&x, &y| row(x).canonical_cmp(&row(y), key));
    }

    /// Sheds every uniquely held batch to one canonically sorted on-disk
    /// run (none when no row is left to write), written straight from row
    /// views of the batches, then drops those batches and releases their
    /// grant. A first-per-key buffer
    /// ([`with_first_per_key`](RunBuffer::with_first_per_key)) writes only
    /// each key's canonical minimum — one row per key per run; merged,
    /// each group's first record is still the canonical minimum over all
    /// runs. Shared batches stay held and charged. On an IO failure every
    /// batch stays held, granted until drop.
    pub(crate) fn spill(&mut self) -> Result<(), ExecError> {
        let (unique, shared): (Vec<_>, Vec<_>) = std::mem::take(&mut self.batches)
            .into_iter()
            .partition(|(b, _)| Arc::strong_count(b) == 1);
        self.batches = shared;
        let held: Vec<&RecordBatch> = unique.iter().map(|(b, _)| &**b).collect();
        self.select(&held);
        if !self.selection.is_empty() {
            let rows = self.selection.iter().map(|&(b, r)| held[b].row(r));
            match self.ctx.gov.write_sorted_run(rows) {
                Ok(run) => {
                    self.ctx
                        .stats
                        .add_spill(self.ctx.op_id, run.records(), run.bytes());
                    self.runs.push(run);
                }
                Err(e) => {
                    self.batches.extend(unique);
                    return Err(e);
                }
            }
        }
        let shed: u64 = unique.iter().map(|&(_, charge)| charge).sum();
        drop(unique);
        self.ctx.gov.release(shed);
        self.granted -= shed;
        Ok(())
    }

    /// Hands the held batches, in arrival order, to an in-memory (hash)
    /// algorithm. The grant stays until [`release`](RunBuffer::release)
    /// or drop.
    pub(crate) fn take_batches(&mut self) -> Vec<Arc<RecordBatch>> {
        self.batches.drain(..).map(|(b, _)| b).collect()
    }

    /// Returns whatever is still granted.
    pub(crate) fn release(&mut self) {
        self.ctx.gov.release(self.granted);
        self.granted = 0;
    }

    /// The sort-based finish: selects the tail's rows as
    /// [`spill`](RunBuffer::spill) does — all held batches, shared ones
    /// included — and materializes only those, already in canonical
    /// order; then drops the batches, releases the grant, merges the tail
    /// with the runs written so far and walks the result as key groups in
    /// ascending canonical order. Leaves the buffer empty; the returned
    /// stream owns the tail and the runs.
    pub(crate) fn drain_groups(&mut self) -> Result<GroupStream, ExecError> {
        let batches = std::mem::take(&mut self.batches);
        let held: Vec<&RecordBatch> = batches.iter().map(|(b, _)| &**b).collect();
        self.select(&held);
        let tail: Vec<Record> = self
            .selection
            .iter()
            .map(|&(b, r)| held[b].row(r).to_record())
            .collect();
        drop(held);
        drop(batches);
        self.release();
        let runs = std::mem::take(&mut self.runs);
        GroupStream::new(merge_runs(&self.ctx.gov, runs, tail, &self.key)?)
    }
}

impl Drop for RunBuffer {
    fn drop(&mut self) {
        self.release();
    }
}

/// One key's groups from two inputs; `None` for the side that lacks it.
type KeyGroups = (Option<Vec<Record>>, Option<Vec<Record>>);

/// One step of a lock-step walk over two key-sorted group streams: the
/// groups of the smallest pending key, each side compared on its own
/// stream's key. `Ok(None)` once both streams are exhausted.
pub(crate) fn next_key_groups(
    left: &mut GroupStream,
    right: &mut GroupStream,
) -> Result<Option<KeyGroups>, ExecError> {
    let ord = match (left.peek(), right.peek()) {
        (None, None) => return Ok(None),
        (Some(_), None) => Ordering::Less,
        (None, Some(_)) => Ordering::Greater,
        (Some(l), Some(r)) => RowRef::from(l).key_cmp2(left.key(), &r.into(), right.key()),
    };
    let lg = if ord.is_gt() {
        None
    } else {
        left.next_group()?
    };
    let rg = if ord.is_lt() {
        None
    } else {
        right.next_group()?
    };
    Ok(Some((lg, rg)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::{GlobalMemory, MemoryGovernor};
    use crate::stats::ExecStats;
    use crate::testutil::{batch, colliding_second_field, ctx, sum_inplace};
    use std::path::PathBuf;
    use strato_dataflow::{CostHints, Plan, ProgramBuilder, SourceDef};
    use strato_record::{AttrId, Value};

    /// The keyed plan's key: its first global attribute.
    const KEY: [usize; 1] = [0];
    /// The keyed plan's global width.
    const WIDTH: usize = 2;

    /// A reduce keyed on `k`, the first global attribute (`KEY`).
    fn keyed_plan() -> Plan {
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["k", "v"], 26));
        let r = p.reduce("sum", &[0], sum_inplace(2, 1), CostHints::default(), s);
        p.finish(r).unwrap().bind().unwrap()
    }

    /// A buffer over the plan's one keyed input, charging `stats` and `gov`.
    fn buffer(
        stats: &Arc<ExecStats>,
        gov: &Arc<MemoryGovernor>,
        drop_null_keys: bool,
    ) -> RunBuffer {
        let plan = keyed_plan();
        assert_eq!(plan.ctx.ops[0].key_attrs[0], [AttrId(0)]);
        assert_eq!(plan.ctx.width(), WIDTH);
        RunBuffer::new(ctx(&plan, stats, gov), 0, drop_null_keys)
    }

    fn rec(k: Option<i64>, v: i64) -> Record {
        Record::from_values([k.map_or(Value::Null, Value::Int), Value::Int(v)])
    }

    /// 24 records over keys 0..5, interleaved, plus two null-keyed ones.
    fn input() -> Vec<Record> {
        let mut rows: Vec<Record> = (0..24).map(|i| rec(Some(i % 5), 100 - i)).collect();
        rows.insert(7, rec(None, 1));
        rows.push(rec(None, 2));
        rows
    }

    /// A governor on a bounded pool, so both layers of accounting show.
    fn governed(budget: u64, base: Option<PathBuf>) -> (Arc<GlobalMemory>, Arc<MemoryGovernor>) {
        let pool = GlobalMemory::new(Some(1 << 20));
        let gov = MemoryGovernor::with_grant(pool.carve(Some(budget)), base);
        (pool, Arc::new(gov))
    }

    /// Hands `rows` to `buf` as one batch.
    fn put(buf: &mut RunBuffer, rows: &[Record]) {
        buf.push_batch(Arc::new(batch(rows, WIDTH)));
    }

    /// Pushes `rows` three at a time, spilling whenever over budget.
    fn feed(buf: &mut RunBuffer, gov: &MemoryGovernor, rows: Vec<Record>) {
        for chunk in rows.chunks(3) {
            put(buf, chunk);
            if gov.over_budget() {
                buf.spill().unwrap();
                assert_eq!(gov.resident(), 0, "a spill sheds the whole buffer");
            }
        }
    }

    /// The canonical order of two records, through their row views.
    fn canonical(a: &Record, b: &Record, key: &[usize]) -> Ordering {
        RowRef::from(a).canonical_cmp(&b.into(), key)
    }

    fn same_key(a: &Record, b: &Record, key: &[usize]) -> bool {
        RowRef::from(a).key_cmp(&b.into(), key).is_eq()
    }

    fn drain(buf: &mut RunBuffer) -> Vec<Vec<Record>> {
        let mut groups = buf.drain_groups().unwrap();
        std::iter::from_fn(|| groups.next_group().unwrap()).collect()
    }

    #[test]
    fn zero_run_walk_is_run_len_over_the_sorted_slice_and_so_is_every_spilled_one() {
        let mut sorted = input();
        sorted.sort_unstable_by(|a, b| canonical(a, b, &KEY));
        let expected: Vec<Vec<Record>> = sorted
            .chunk_by(|a, b| same_key(a, b, &KEY))
            .map(<[Record]>::to_vec)
            .collect();
        assert_eq!(expected.len(), 6, "five int keys + the null group");

        for budget in [None, Some(0), Some(64), Some(1 << 16)] {
            let stats = Arc::new(ExecStats::with_ops(1));
            let gov = Arc::new(MemoryGovernor::with_budget(budget));
            let mut buf = buffer(&stats, &gov, false);
            feed(&mut buf, &gov, input());
            let spilled = buf.spilled();
            let tag = format!("at budget {budget:?}");
            assert_eq!(drain(&mut buf), expected, "{tag}");
            assert_eq!(spilled, matches!(budget, Some(0 | 64)), "{tag}");
            assert_eq!(stats.totals().spill_runs > 0, spilled);
            let slot = stats.op_snapshots()[0];
            assert_eq!(
                slot.spill_runs,
                stats.totals().spill_runs,
                "charged per op too"
            );
            assert_eq!(gov.resident(), 0);
            assert!(
                buf.take_batches().is_empty() && !buf.spilled(),
                "left empty"
            );
        }
    }

    #[test]
    fn null_keys_are_kept_for_grouping_and_dropped_but_remembered_for_joins() {
        let stats = Arc::new(ExecStats::new());
        let gov = Arc::new(MemoryGovernor::with_budget(Some(64)));
        for drop_null_keys in [false, true] {
            let mut buf = buffer(&stats, &gov, drop_null_keys);
            assert!(!buf.saw_null_key());
            feed(&mut buf, &gov, input());
            assert!(buf.spilled());
            let groups = drain(&mut buf);
            let nulls: usize = groups
                .iter()
                .flatten()
                .filter(|r| r.field(0).is_null())
                .count();
            if drop_null_keys {
                assert_eq!((groups.len(), nulls), (5, 0));
                assert!(buf.saw_null_key(), "the profiler counts nulls once");
            } else {
                assert_eq!((groups.len(), nulls), (6, 2));
                assert!(same_key(&groups[0][0], &rec(None, 0), &KEY), "nulls first");
                assert!(!buf.saw_null_key());
            }
        }
        // A join side without null keys has nothing to remember.
        let mut buf = buffer(&stats, &gov, true);
        put(&mut buf, &[rec(Some(1), 1)]);
        assert!(!buf.saw_null_key());
    }

    #[test]
    fn every_exit_returns_the_grant() {
        let base = std::env::temp_dir().join(format!("strato-runbuffer-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let stats = Arc::new(ExecStats::new());
        let bytes: u64 = input().iter().map(|r| r.encoded_len() as u64).sum();

        // The grant of a push is the rows' total `encoded_len`.
        let (_pool, gov) = governed(1 << 16, None);
        let mut buf = buffer(&stats, &gov, false);
        put(&mut buf, &input());
        assert_eq!(gov.resident(), bytes);

        // (i) A complete walk.
        let (pool, gov) = governed(64, Some(base.clone()));
        let mut buf = buffer(&stats, &gov, false);
        feed(&mut buf, &gov, input());
        assert!(
            buf.spilled() && gov.resident() > 0,
            "runs and a granted tail"
        );
        assert_eq!(drain(&mut buf).len(), 6);
        assert_eq!((gov.resident(), pool.resident()), (0, 0));

        // (ii) A walk abandoned after its first group, then the buffer
        // dropped with freshly pushed rows still in it.
        feed(&mut buf, &gov, input());
        let mut groups = buf.drain_groups().unwrap();
        assert!(groups.next_group().unwrap().is_some());
        drop(groups);
        put(&mut buf, &input());
        assert!(gov.resident() > 0);
        drop(buf);
        assert_eq!((gov.resident(), pool.resident()), (0, 0));
        let dir = gov.spill_dir_path().expect("spilled");
        assert!(
            std::fs::read_dir(&dir).unwrap().next().is_none(),
            "runs deleted"
        );
        drop(gov);
        assert_eq!(pool.granted(), 0);
        assert!(!dir.exists());

        // (iii) A spill that cannot write: the spill "directory" is a
        // file. The batches stay held, with their charges.
        let blocker = base.join("not-a-directory");
        std::fs::write(&blocker, b"x").unwrap();
        let (pool, gov) = governed(0, Some(blocker));
        let mut buf = buffer(&stats, &gov, false);
        put(&mut buf, &input());
        let held = gov.resident();
        assert_eq!(held, bytes);
        assert!(matches!(buf.spill(), Err(ExecError::Spill(_))));
        let rows: usize = buf.batches.iter().map(|(b, _)| b.len()).sum();
        assert_eq!(rows, 26, "a failed spill loses nothing");
        let charged: u64 = buf.batches.iter().map(|&(_, charge)| charge).sum();
        assert_eq!((charged, buf.granted), (held, held));
        assert_eq!(gov.resident(), held, "keeps its grant");
        drop(buf);
        assert_eq!((gov.resident(), pool.resident()), (0, 0));
        drop(gov);
        assert_eq!(pool.granted(), 0);

        std::fs::remove_dir_all(&base).unwrap();
    }

    /// The rows of `run`, read back from its file.
    fn read_back(run: &SortedRun) -> Vec<Record> {
        run.open().unwrap().map(Result::unwrap).collect()
    }

    /// What a run holds for `rows`, computed on records: the canonical
    /// sort, null keys dropped for a join, one row per key when
    /// first-per-key.
    fn reference(rows: &[Record], key: &[usize], join: bool, first: bool) -> Vec<Record> {
        let mut want = rows.to_vec();
        if join {
            want.retain(|r| key.iter().all(|&k| !r.field(k).is_null()));
        }
        want.sort_unstable_by(|a, b| canonical(a, b, key));
        if first {
            want.dedup_by(|a, b| same_key(a, b, key));
        }
        want
    }

    #[test]
    fn a_spill_writes_the_canonical_selection_of_its_unique_batches_and_keeps_the_shared_one() {
        let rows = input();
        let (shared_rows, unique_rows) = rows.split_at(6);
        assert!(unique_rows.iter().any(|r| r.field(0).is_null()));
        for join in [false, true] {
            for first in [false, true] {
                let tag = format!("join {join}, first-per-key {first}");
                let stats = Arc::new(ExecStats::with_ops(1));
                let gov = Arc::new(MemoryGovernor::with_budget(Some(1 << 16)));
                let mut buf = buffer(&stats, &gov, join).with_first_per_key(first);
                // A broadcast batch: another partition holds it too.
                let shared = Arc::new(batch(shared_rows, WIDTH));
                let other_holder = Arc::clone(&shared);
                buf.push_batch(shared);
                let share = (other_holder.encoded_len() as u64).div_ceil(2);
                for chunk in unique_rows.chunks(5) {
                    put(&mut buf, chunk);
                }

                buf.spill().unwrap();
                let want = reference(unique_rows, &KEY, join, first);
                assert_eq!(buf.runs.len(), 1, "{tag}");
                assert_eq!(read_back(&buf.runs[0]), want, "{tag}");
                assert_eq!(stats.totals().records_spilled, want.len() as u64);
                assert_eq!(buf.saw_null_key(), join, "{tag}");
                assert_eq!(buf.batches.len(), 1, "{tag}: only the shared batch stays");
                assert!(Arc::ptr_eq(&buf.batches[0].0, &other_holder), "{tag}");
                assert_eq!(buf.batches[0].1, share, "{tag}");
                assert_eq!((buf.granted, gov.resident()), (share, share), "{tag}");

                // The drain selects its tail the same way, so each
                // group's first record is the canonical minimum over
                // the run and the shared batch; without first-per-key
                // the groups are the whole canonical groups.
                let all = reference(&rows, &KEY, join, false);
                let groups = drain(&mut buf);
                let firsts: Vec<Record> = groups.iter().map(|g| g[0].clone()).collect();
                assert_eq!(firsts, reference(&rows, &KEY, join, true), "{tag}");
                if !first {
                    assert_eq!(groups.concat(), all, "{tag}");
                }
                assert_eq!(gov.resident(), 0, "{tag}");
            }
        }
    }

    #[test]
    fn two_keys_with_one_hash_spill_as_two_rows() {
        let y = colliding_second_field(1, 100, 2);
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["k1", "k2", "v"], 4));
        let r = p.reduce("sum", &[0, 1], sum_inplace(3, 2), CostHints::default(), s);
        let plan = p.finish(r).unwrap().bind().unwrap();
        let key: Vec<usize> = plan.ctx.ops[0].key_attrs[0]
            .iter()
            .map(|k| k.index())
            .collect();
        let rec = |k1: i64, k2: i64, v: i64| {
            Record::from_values([Value::Int(k1), Value::Int(k2), Value::Int(v)])
        };
        let rows = [rec(2, y, 9), rec(1, 100, 5), rec(2, y, 8), rec(1, 100, 4)];
        let mut hashes = Vec::new();
        batch(&rows, 3).key_hash_into(&[0, 1], &mut hashes);
        assert_eq!(hashes[0], hashes[1], "the two keys collide");

        for first in [false, true] {
            let stats = Arc::new(ExecStats::with_ops(1));
            let gov = Arc::new(MemoryGovernor::with_budget(Some(1 << 16)));
            let mut buf =
                RunBuffer::new(ctx(&plan, &stats, &gov), 0, false).with_first_per_key(first);
            for chunk in rows.chunks(2) {
                buf.push_batch(Arc::new(batch(chunk, 3)));
            }
            buf.spill().unwrap();
            let got = read_back(&buf.runs[0]);
            let want = if first {
                vec![rec(1, 100, 4), rec(2, y, 8)]
            } else {
                reference(&rows, &key, false, false)
            };
            assert_eq!(got, want, "first-per-key {first}");
        }
    }
}
