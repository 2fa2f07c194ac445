//! The governed buffer every blocking operator keeps per keyed input.

use crate::engine::ExecError;
use crate::operators::{canonical_cmp, key_cmp, key_has_null, records_bytes, take_records, OpCtx};
use crate::spill::file::SortedRun;
use crate::spill::merge::{external_group_stream, GroupStream};
use std::cmp::Ordering;
use std::sync::Arc;
use strato_record::{AttrId, Record, RecordBatch};

/// One keyed input of a blocking operator: what was buffered so far —
/// rows, and batches held as they were pushed — the bytes granted for
/// it, and the sorted runs already shed to disk.
///
/// This is the only place operator state meets the spill files and the
/// [`MemoryGovernor`](crate::spill::MemoryGovernor):
/// [`push`](RunBuffer::push) and [`push_batch`](RunBuffer::push_batch)
/// grant, [`spill`](RunBuffer::spill) writes a run and releases, and
/// [`drain_groups`](RunBuffer::drain_groups) is the one sort-based finish
/// — it merges the sorted tail with however many runs exist, *including
/// zero*, so an execution that never spilled walks the same code as one
/// that did. Held batches stay in whatever layout they arrived in until
/// a spill or that finish needs them as records; an in-memory (hash)
/// finish reads them in place ([`take_batches`](RunBuffer::take_batches)).
/// A batch still shared with other partitions (a broadcast side) is
/// never spilled: a copy on disk would free no memory — the allocation
/// lives until every holder drops it — while multiplying disk writes by
/// the fan-out. It stays resident, charged this holder's share, until the
/// finish. Whatever is still granted returns to the governor on drop
/// (failed spill, aborted query, early exit from a walk).
pub(crate) struct RunBuffer {
    /// The owning operator's context: its governor, its stats slot and,
    /// through `side`, the key this input is sorted and grouped on.
    ctx: OpCtx,
    /// Which input of the operator this is (`key_attrs[side]`).
    side: usize,
    /// Join flavour: null-keyed rows match nothing, so they are dropped
    /// where buffered rows are sorted — in `spill` and `drain_groups` —
    /// and remembered in `saw_null_key`. Grouping buffers keep them —
    /// null keys group like any other key.
    drop_null_keys: bool,
    saw_null_key: bool,
    /// A first-record-only Reduce reads nothing past each key group's
    /// first record, so `spill` writes only that record per key.
    first_per_key: bool,
    rows: Vec<Record>,
    /// Batches buffered by `push_batch`, as they arrived, each with the
    /// bytes it was granted.
    batches: Vec<(Arc<RecordBatch>, u64)>,
    /// Bytes granted for `rows` and `batches`.
    granted: u64,
    runs: Vec<SortedRun>,
}

impl RunBuffer {
    pub(crate) fn new(ctx: OpCtx, side: usize, drop_null_keys: bool) -> Self {
        RunBuffer {
            ctx,
            side,
            drop_null_keys,
            saw_null_key: false,
            first_per_key: false,
            rows: Vec::new(),
            batches: Vec::new(),
            granted: 0,
            runs: Vec::new(),
        }
    }

    /// Makes [`spill`](RunBuffer::spill) keep only the first record of
    /// each key group when `on` — for a Reduce whose UDF SCA proved
    /// first-record-only.
    pub(crate) fn with_first_per_key(mut self, on: bool) -> Self {
        self.first_per_key = on;
        self
    }

    /// Buffers `records`, granting their bytes.
    pub(crate) fn push(&mut self, records: impl IntoIterator<Item = Record>) {
        let start = self.rows.len();
        self.rows.extend(records);
        if self.ctx.gov.bounded() {
            self.grant(records_bytes(&self.rows[start..]));
        }
    }

    /// Buffers `batch` as it is, granting its `encoded_len` — the bytes
    /// [`push`](RunBuffer::push) would grant for its rows, in either
    /// layout.
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

    /// The buffered (unspilled) rows, in arrival order — not including
    /// held batches.
    pub(crate) fn rows(&self) -> &[Record] {
        &self.rows
    }

    /// Mutable view of the buffered rows (streaming aggregation folds
    /// into its partials in place; the grant stays at the pushed size).
    pub(crate) fn rows_mut(&mut self) -> &mut [Record] {
        &mut self.rows
    }

    /// Whether any run was written.
    pub(crate) fn spilled(&self) -> bool {
        !self.runs.is_empty()
    }

    /// Whether a join buffer dropped a null-keyed row.
    pub(crate) fn saw_null_key(&self) -> bool {
        self.saw_null_key
    }

    /// Moves the held batches — only the uniquely held ones when
    /// `unique_only` — into `rows`, as records, then drops a join
    /// buffer's null-keyed rows. A moved batch's charge stays granted,
    /// now for its rows.
    fn absorb_batches(&mut self, unique_only: bool) {
        for (b, charge) in std::mem::take(&mut self.batches) {
            if unique_only && Arc::strong_count(&b) > 1 {
                self.batches.push((b, charge));
            } else {
                self.rows.extend(take_records(b));
            }
        }
        if self.drop_null_keys {
            let key = &self.ctx.op().key_attrs[self.side];
            let saw = &mut self.saw_null_key;
            self.rows.retain(|r| {
                let null = key_has_null(r, key);
                *saw |= null;
                !null
            });
        }
    }

    /// Sheds everything buffered but shared batches to one canonically
    /// sorted on-disk run (none when no row is left to write) and
    /// releases all but the shared batches' grant. A first-per-key buffer
    /// ([`with_first_per_key`](RunBuffer::with_first_per_key)) writes
    /// only the first record of each key group of the sorted rows — one
    /// row per key per run; merged, each group's first record is still the
    /// canonical minimum over all runs. On an IO failure every row stays
    /// buffered (held batches as records), granted until drop.
    pub(crate) fn spill(&mut self) -> Result<(), ExecError> {
        self.absorb_batches(true);
        if !self.rows.is_empty() {
            let key = &self.ctx.op().key_attrs[self.side];
            self.rows.sort_unstable_by(|a, b| canonical_cmp(a, b, key));
            if self.first_per_key {
                self.rows.dedup_by(|a, b| key_cmp(a, b, key).is_eq());
            }
            let run = self.ctx.gov.write_sorted_run(&self.rows)?;
            self.ctx
                .stats
                .add_spill(self.ctx.op_id, run.records(), run.bytes());
            self.runs.push(run);
            self.rows.clear();
        }
        let kept: u64 = self.batches.iter().map(|&(_, charge)| charge).sum();
        self.ctx.gov.release(self.granted - kept);
        self.granted = kept;
        Ok(())
    }

    /// Hands the buffered rows to an in-memory (hash) algorithm. Their
    /// grant stays until [`release`](RunBuffer::release) or drop.
    pub(crate) fn take_rows(&mut self) -> Vec<Record> {
        std::mem::take(&mut self.rows)
    }

    /// Hands everything buffered to an in-memory (hash) algorithm as
    /// batches: the held batches in arrival order, then any buffered rows
    /// as one row-major batch. The grant stays until
    /// [`release`](RunBuffer::release) or drop.
    pub(crate) fn take_batches(&mut self) -> Vec<Arc<RecordBatch>> {
        let mut batches: Vec<_> = self.batches.drain(..).map(|(b, _)| b).collect();
        if !self.rows.is_empty() {
            let rows = RecordBatch::from_records(self.take_rows());
            batches.push(Arc::new(rows));
        }
        batches
    }

    /// Returns whatever is still granted.
    pub(crate) fn release(&mut self) {
        self.ctx.gov.release(self.granted);
        self.granted = 0;
    }

    /// The sort-based finish: sorts the tail — held batches as records,
    /// a join buffer's null-keyed rows dropped — canonically, merges it
    /// with the runs written so far and walks the result as key groups in
    /// ascending canonical order. Leaves the buffer empty; the returned
    /// stream owns the tail and the runs.
    #[allow(clippy::type_complexity)]
    pub(crate) fn drain_groups(
        &mut self,
    ) -> Result<
        GroupStream<
            impl Iterator<Item = Result<Record, ExecError>> + '_,
            impl Fn(&Record, &Record) -> bool + '_,
        >,
        ExecError,
    > {
        self.absorb_batches(false);
        let tail = self.take_rows();
        self.release();
        let runs = std::mem::take(&mut self.runs);
        let key = &self.ctx.op().key_attrs[self.side];
        external_group_stream(&self.ctx.gov, runs, tail, key)
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
/// groups of the smallest pending key (`left` keys on `kl`, `right` on
/// `kr`). `Ok(None)` once both streams are exhausted.
pub(crate) fn next_key_groups<I, G>(
    left: &mut GroupStream<I, G>,
    kl: &[AttrId],
    right: &mut GroupStream<I, G>,
    kr: &[AttrId],
) -> Result<Option<KeyGroups>, ExecError>
where
    I: Iterator<Item = Result<Record, ExecError>>,
    G: Fn(&Record, &Record) -> bool,
{
    let ord = match (left.peek(), right.peek()) {
        (None, None) => return Ok(None),
        (Some(_), None) => Ordering::Less,
        (None, Some(_)) => Ordering::Greater,
        (Some(l), Some(r)) => crate::operators::key_cmp2(l, kl, r, kr),
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
    use crate::operators::BatchLayout;
    use crate::spill::{GlobalMemory, MemoryGovernor};
    use crate::stats::ExecStats;
    use crate::testutil::{ctx, sum_inplace};
    use std::path::PathBuf;
    use strato_dataflow::{CostHints, Plan, ProgramBuilder, SourceDef};
    use strato_record::Value;

    const KEY: [AttrId; 1] = [AttrId(0)];
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
        assert_eq!(plan.ctx.ops[0].key_attrs[0], KEY);
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

    /// How a test hands rows to a buffer: as records, or as batches in
    /// one of the layouts operators are pushed.
    #[derive(Debug, Clone, Copy)]
    enum Feed {
        Records,
        Batches(BatchLayout),
    }

    const FEEDS: [Feed; 4] = [
        Feed::Records,
        Feed::Batches(BatchLayout::Rows),
        Feed::Batches(BatchLayout::Columns),
        Feed::Batches(BatchLayout::Mixed),
    ];

    /// Hands `rows` to `buf` as its `i`-th push.
    fn put(buf: &mut RunBuffer, how: Feed, i: usize, rows: &[Record]) {
        match how {
            Feed::Records => buf.push(rows.to_vec()),
            Feed::Batches(layout) => buf.push_batch(Arc::new(layout.batch(i, rows, WIDTH))),
        }
    }

    /// Pushes `rows` three at a time, spilling whenever over budget.
    fn feed(buf: &mut RunBuffer, gov: &MemoryGovernor, how: Feed, rows: Vec<Record>) {
        for (i, chunk) in rows.chunks(3).enumerate() {
            put(buf, how, i, chunk);
            if gov.over_budget() {
                buf.spill().unwrap();
                assert_eq!(gov.resident(), 0, "a spill sheds the whole buffer");
            }
        }
    }

    fn drain(buf: &mut RunBuffer) -> Vec<Vec<Record>> {
        let mut groups = buf.drain_groups().unwrap();
        std::iter::from_fn(|| groups.next_group().unwrap()).collect()
    }

    #[test]
    fn zero_run_walk_is_run_len_over_the_sorted_slice_and_so_is_every_spilled_one() {
        let mut sorted = input();
        sorted.sort_unstable_by(|a, b| canonical_cmp(a, b, &KEY));
        let expected: Vec<Vec<Record>> = sorted
            .chunk_by(|a, b| key_cmp(a, b, &KEY).is_eq())
            .map(<[Record]>::to_vec)
            .collect();
        assert_eq!(expected.len(), 6, "five int keys + the null group");

        let budgets = [None, Some(0), Some(64), Some(1 << 16)];
        for (how, budget) in FEEDS.into_iter().flat_map(|h| budgets.map(|b| (h, b))) {
            let stats = Arc::new(ExecStats::with_ops(1));
            let gov = Arc::new(MemoryGovernor::with_budget(budget));
            let mut buf = buffer(&stats, &gov, false);
            feed(&mut buf, &gov, how, input());
            let spilled = buf.spilled();
            let tag = format!("{how:?} at budget {budget:?}");
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
            feed(&mut buf, &gov, Feed::Records, input());
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
                assert!(
                    key_cmp(&groups[0][0], &rec(None, 0), &KEY).is_eq(),
                    "nulls first"
                );
                assert!(!buf.saw_null_key());
            }
        }
        // A join side without null keys has nothing to remember.
        let mut buf = buffer(&stats, &gov, true);
        buf.push([rec(Some(1), 1)]);
        assert!(!buf.saw_null_key());
    }

    #[test]
    fn every_exit_returns_the_grant() {
        let base = std::env::temp_dir().join(format!("strato-runbuffer-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let stats = Arc::new(ExecStats::new());
        let bytes = records_bytes(&input());

        for how in FEEDS {
            // The grant of a push, records or a batch of either layout, is
            // the rows' `records_bytes`.
            let (_pool, gov) = governed(1 << 16, None);
            let mut buf = buffer(&stats, &gov, false);
            put(&mut buf, how, 0, &input());
            assert_eq!(gov.resident(), bytes, "{how:?}");

            // (i) A complete walk.
            let (pool, gov) = governed(64, Some(base.clone()));
            let mut buf = buffer(&stats, &gov, false);
            feed(&mut buf, &gov, how, input());
            assert!(
                buf.spilled() && gov.resident() > 0,
                "runs and a granted tail"
            );
            assert_eq!(drain(&mut buf).len(), 6);
            assert_eq!((gov.resident(), pool.resident()), (0, 0));

            // (ii) A walk abandoned after its first group, then the buffer
            // dropped with freshly pushed rows still in it.
            feed(&mut buf, &gov, how, input());
            let mut groups = buf.drain_groups().unwrap();
            assert!(groups.next_group().unwrap().is_some());
            drop(groups);
            put(&mut buf, how, 0, &input());
            assert!(gov.resident() > 0);
            drop(buf);
            assert_eq!((gov.resident(), pool.resident()), (0, 0), "{how:?}");
            let dir = gov.spill_dir_path().expect("spilled");
            assert!(
                std::fs::read_dir(&dir).unwrap().next().is_none(),
                "runs deleted"
            );
            drop(gov);
            assert_eq!(pool.granted(), 0);
            assert!(!dir.exists());

            // (iii) A spill that cannot write: the spill "directory" is a
            // file. Held batches come back as rows.
            let blocker = base.join("not-a-directory");
            std::fs::write(&blocker, b"x").unwrap();
            let (pool, gov) = governed(0, Some(blocker));
            let mut buf = buffer(&stats, &gov, false);
            put(&mut buf, how, 0, &input());
            let held = gov.resident();
            assert_eq!(held, bytes);
            assert!(matches!(buf.spill(), Err(ExecError::Spill(_))));
            assert_eq!(buf.rows().len(), 26, "a failed spill loses nothing");
            assert_eq!(gov.resident(), held, "{how:?} keeps its grant");
            drop(buf);
            assert_eq!((gov.resident(), pool.resident()), (0, 0));
            drop(gov);
            assert_eq!(pool.granted(), 0);
        }

        std::fs::remove_dir_all(&base).unwrap();
    }
}
