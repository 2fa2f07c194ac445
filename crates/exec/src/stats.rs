//! Execution statistics.
//!
//! Two granularities share one thread-safe structure:
//!
//! * **Global counters** — UDF calls, emitted/shipped records, bytes and
//!   interpreter steps across the whole execution. Always collected.
//! * **Per-operator counters** — the same call/emit numbers broken down by
//!   operator id, plus wall-clock nanoseconds attributed *per task* by the
//!   worker-pool scheduler (a task is one `stage × partition` unit of the
//!   compiled graph; its step time is charged to the stage's operator).
//!   Allocated by [`ExecStats::with_ops`]; the extra profiling detail
//!   (emitted bytes, observed distinct keys) only when the stats were
//!   created with [`ExecStats::for_profiling`].
//!
//! Workers update every counter concurrently with relaxed atomics; totals
//! are exact because each record/call is charged exactly once, by exactly
//! one task.

use std::sync::atomic::{AtomicU64, Ordering};

/// Per-operator counter slots. All relaxed atomics, charged by whichever
/// worker runs the operator's tasks.
#[derive(Debug, Default)]
struct OpSlot {
    calls: AtomicU64,
    emits: AtomicU64,
    /// Wall-clock nanoseconds of scheduler steps attributed to this
    /// operator's tasks (operator work + outbound routing; blocking time is
    /// excluded — steps never wait).
    nanos: AtomicU64,
    /// Total `encoded_len` of UDF-emitted records (profiling detail only).
    out_bytes: AtomicU64,
    /// Distinct key values observed on input 0 by keyed operators
    /// (profiling detail only).
    distinct_keys: AtomicU64,
    /// Records this operator wrote to sorted runs on disk.
    records_spilled: AtomicU64,
    /// On-disk bytes of those runs (frame headers included).
    spilled_bytes: AtomicU64,
    /// Sorted runs this operator wrote under memory pressure.
    spill_runs: AtomicU64,
    /// Records this operator's output shipped across partition boundaries.
    shipped_records: AtomicU64,
    /// Serialized bytes of those shipped records.
    shipped_bytes: AtomicU64,
}

/// Plain-integer snapshot of one operator's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpSnapshot {
    /// UDF invocations of this operator.
    pub calls: u64,
    /// Records emitted by this operator's UDF.
    pub emits: u64,
    /// Task step nanoseconds attributed to this operator.
    pub nanos: u64,
    /// Total emitted bytes (0 unless profiling detail was enabled).
    pub out_bytes: u64,
    /// Distinct input-0 keys (0 unless profiling detail was enabled and the
    /// operator is keyed).
    pub distinct_keys: u64,
    /// Records this operator spilled to disk under memory pressure.
    pub records_spilled: u64,
    /// On-disk bytes of this operator's sorted runs.
    pub spilled_bytes: u64,
    /// Sorted runs this operator wrote under memory pressure.
    pub spill_runs: u64,
    /// Records of this operator's output shipped by a Partition/Broadcast
    /// router (same accounting rule as [`StatsSnapshot::records_shipped`]).
    pub shipped_records: u64,
    /// Serialized bytes of those shipped records.
    pub shipped_bytes: u64,
}

/// Plain-integer snapshot of every global counter of an execution — the
/// stable read surface monitoring systems consume (the `strato-server`
/// `/metrics` endpoint renders exactly these fields).
///
/// Obtained via [`ExecStats::totals`], the only whole-run reader besides
/// [`ExecStats::op_snapshots`]; every counter is a named field, so new
/// counters can be added without breaking callers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct StatsSnapshot {
    /// UDF invocations across all operators.
    pub udf_calls: u64,
    /// Records emitted by UDFs.
    pub records_emitted: u64,
    /// Records moved by Partition/Broadcast ship strategies.
    pub records_shipped: u64,
    /// Serialized bytes moved by Partition/Broadcast ship strategies.
    pub bytes_shipped: u64,
    /// Always 0: the engine has no pre-aggregation stage. Kept because
    /// the benchmark crate still reads it (its `exec.preagg_ratio`).
    pub records_preagg_in: u64,
    /// Always 0, like [`records_preagg_in`](Self::records_preagg_in).
    pub records_preagg_out: u64,
    /// Records written to sorted runs on disk under memory pressure.
    pub records_spilled: u64,
    /// On-disk bytes of those first-generation sorted runs.
    pub spilled_bytes: u64,
    /// Sorted runs written under memory pressure (= pressure events).
    pub spill_runs: u64,
    /// IR interpreter steps executed.
    pub interp_steps: u64,
    /// Records scattered row-by-row out of columnar batches by the
    /// vectorized Partition router (a subset of `records_shipped`).
    pub rows_scattered: u64,
    /// Null cells observed while building columnar batches.
    pub null_cells: u64,
    /// Total cells observed while building columnar batches (`null_cells /
    /// total_cells` is the null-mask density of the scanned data).
    pub total_cells: u64,
}

/// Counters collected during one plan execution. Thread-safe; workers
/// update them concurrently.
#[derive(Debug, Default)]
pub struct ExecStats {
    /// UDF invocations across all operators.
    pub udf_calls: AtomicU64,
    /// Records emitted by UDFs.
    pub records_emitted: AtomicU64,
    /// Records moved by Partition/Broadcast ship strategies.
    pub records_shipped: AtomicU64,
    /// Serialized bytes moved by Partition/Broadcast ship strategies.
    pub bytes_shipped: AtomicU64,
    /// Records written to sorted runs on disk by memory-governed blocking
    /// operators (see `strato-exec`'s `spill` module). Counts **pressure
    /// sheds** (first-generation runs) only: a `spill_runs` increment is
    /// one memory-pressure event, so the multi-pass fan-in compaction a
    /// large merge may perform does not re-count the same records.
    pub records_spilled: AtomicU64,
    /// On-disk bytes of those first-generation sorted runs (frame headers
    /// included; compaction rewrites are not re-counted).
    pub spilled_bytes: AtomicU64,
    /// Number of sorted runs written under memory pressure (= pressure
    /// events, not total run files across merge generations).
    pub spill_runs: AtomicU64,
    /// IR interpreter steps executed.
    pub interp_steps: AtomicU64,
    /// Records scattered out of columnar batches by the vectorized
    /// Partition router. Always ≤ `records_shipped`; the difference is the
    /// row-at-a-time routed volume.
    pub rows_scattered: AtomicU64,
    /// Null cells observed while building columnar batches.
    pub null_cells: AtomicU64,
    /// Total cells observed while building columnar batches.
    pub total_cells: AtomicU64,
    /// Per-operator slots (empty unless created via [`ExecStats::with_ops`]
    /// or [`ExecStats::for_profiling`]).
    per_op: Vec<OpSlot>,
    /// Collect profiling detail (emitted bytes, distinct keys)?
    detail: bool,
}

impl ExecStats {
    /// Fresh zeroed stats, global counters only.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh stats with per-operator slots for `n_ops` operators.
    pub fn with_ops(n_ops: usize) -> Self {
        ExecStats {
            per_op: (0..n_ops).map(|_| OpSlot::default()).collect(),
            ..ExecStats::default()
        }
    }

    /// [`ExecStats::with_ops`] plus profiling detail: operators additionally
    /// record emitted bytes and observed distinct keys (the runtime
    /// profiler's inputs). Slightly slows the UDF hot path; off everywhere
    /// else.
    pub fn for_profiling(n_ops: usize) -> Self {
        ExecStats {
            detail: true,
            ..ExecStats::with_ops(n_ops)
        }
    }

    /// Whether profiling detail should be collected.
    #[inline]
    pub(crate) fn detail(&self) -> bool {
        self.detail
    }

    /// Charges `calls` UDF invocations of operator `op`, which executed
    /// `steps` instructions and emitted `emits` records between them.
    /// Operators tally calls locally and charge them here in batches.
    pub(crate) fn add_calls(&self, op: usize, calls: u64, steps: u64, emits: u64) {
        self.udf_calls.fetch_add(calls, Ordering::Relaxed);
        self.interp_steps.fetch_add(steps, Ordering::Relaxed);
        self.records_emitted.fetch_add(emits, Ordering::Relaxed);
        if let Some(slot) = self.per_op.get(op) {
            slot.calls.fetch_add(calls, Ordering::Relaxed);
            slot.emits.fetch_add(emits, Ordering::Relaxed);
        }
    }

    /// Charges task step time to an operator.
    pub(crate) fn add_op_nanos(&self, op: usize, nanos: u64) {
        if let Some(slot) = self.per_op.get(op) {
            slot.nanos.fetch_add(nanos, Ordering::Relaxed);
        }
    }

    /// Charges emitted bytes to an operator (profiling detail).
    pub(crate) fn add_op_out_bytes(&self, op: usize, bytes: u64) {
        if let Some(slot) = self.per_op.get(op) {
            slot.out_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Records distinct input-0 keys observed by a keyed operator
    /// (profiling detail).
    pub(crate) fn add_op_distinct_keys(&self, op: usize, n: u64) {
        if let Some(slot) = self.per_op.get(op) {
            slot.distinct_keys.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Accounts shipped data. The accounting rule is "count each record
    /// copy that crosses a partition boundary":
    ///
    /// * `Forward` ships nothing and must not call this;
    /// * `Partition` charges every routed record once — hash routing is
    ///   data-dependent, and the cost model prices a repartition as the
    ///   full input volume;
    /// * `Broadcast` charges `dop - 1` copies per record: a partition does
    ///   not ship to itself.
    ///
    /// Bytes are the `encoded_len` approximation of the wire size (null
    /// fields cost nothing), matching the cost model's byte estimates.
    /// The totals are a sum over individual records, so they are identical
    /// whether shipping happens batch-by-batch (the streaming runtime) or
    /// over a whole materialized partition. Charged globally and, when
    /// `op` names the producing operator, to its slot (the per-op
    /// breakdown `EXPLAIN ANALYZE` prints; `None` for scan-fed edges).
    pub(crate) fn add_shipped(&self, op: Option<usize>, records: u64, bytes: u64) {
        self.records_shipped.fetch_add(records, Ordering::Relaxed);
        self.bytes_shipped.fetch_add(bytes, Ordering::Relaxed);
        if let Some(slot) = op.and_then(|op| self.per_op.get(op)) {
            slot.shipped_records.fetch_add(records, Ordering::Relaxed);
            slot.shipped_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Accounts records routed by the vectorized columnar scatter path of
    /// the Partition router. Called *in addition to* [`ExecStats::add_shipped`]
    /// for the same records; this counter only classifies how the routing
    /// was performed, it does not change ship accounting.
    pub(crate) fn add_scattered(&self, records: u64) {
        self.rows_scattered.fetch_add(records, Ordering::Relaxed);
    }

    /// Accounts the null-mask density of a freshly built columnar batch:
    /// `nulls` null cells out of `cells` total.
    pub(crate) fn add_batch_cells(&self, nulls: u64, cells: u64) {
        self.null_cells.fetch_add(nulls, Ordering::Relaxed);
        self.total_cells.fetch_add(cells, Ordering::Relaxed);
    }

    /// Accounts one sorted run spilled to disk by an operator: `records`
    /// written, `bytes` on disk. Charged both globally and to the
    /// operator's slot (when slots exist).
    pub(crate) fn add_spill(&self, op: usize, records: u64, bytes: u64) {
        self.records_spilled.fetch_add(records, Ordering::Relaxed);
        self.spilled_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.spill_runs.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.per_op.get(op) {
            slot.records_spilled.fetch_add(records, Ordering::Relaxed);
            slot.spilled_bytes.fetch_add(bytes, Ordering::Relaxed);
            slot.spill_runs.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot of **every** global counter as a named-field struct — the
    /// monitoring surface. See [`StatsSnapshot`].
    ///
    /// ```
    /// use strato_exec::ExecStats;
    /// let stats = ExecStats::new();
    /// let t = stats.totals();
    /// assert_eq!(t.udf_calls, 0);
    /// assert_eq!(t.records_shipped + t.records_spilled, 0);
    /// ```
    pub fn totals(&self) -> StatsSnapshot {
        StatsSnapshot {
            udf_calls: self.udf_calls.load(Ordering::Relaxed),
            records_emitted: self.records_emitted.load(Ordering::Relaxed),
            records_shipped: self.records_shipped.load(Ordering::Relaxed),
            bytes_shipped: self.bytes_shipped.load(Ordering::Relaxed),
            records_preagg_in: 0,
            records_preagg_out: 0,
            records_spilled: self.records_spilled.load(Ordering::Relaxed),
            spilled_bytes: self.spilled_bytes.load(Ordering::Relaxed),
            spill_runs: self.spill_runs.load(Ordering::Relaxed),
            interp_steps: self.interp_steps.load(Ordering::Relaxed),
            rows_scattered: self.rows_scattered.load(Ordering::Relaxed),
            null_cells: self.null_cells.load(Ordering::Relaxed),
            total_cells: self.total_cells.load(Ordering::Relaxed),
        }
    }

    /// Per-operator snapshots, indexed by operator id. Empty when the stats
    /// were created without per-op slots.
    pub fn op_snapshots(&self) -> Vec<OpSnapshot> {
        self.per_op
            .iter()
            .map(|s| OpSnapshot {
                calls: s.calls.load(Ordering::Relaxed),
                emits: s.emits.load(Ordering::Relaxed),
                nanos: s.nanos.load(Ordering::Relaxed),
                out_bytes: s.out_bytes.load(Ordering::Relaxed),
                distinct_keys: s.distinct_keys.load(Ordering::Relaxed),
                records_spilled: s.records_spilled.load(Ordering::Relaxed),
                spilled_bytes: s.spilled_bytes.load(Ordering::Relaxed),
                spill_runs: s.spill_runs.load(Ordering::Relaxed),
                shipped_records: s.shipped_records.load(Ordering::Relaxed),
                shipped_bytes: s.shipped_bytes.load(Ordering::Relaxed),
            })
            .collect()
    }
}

impl std::fmt::Display for ExecStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let t = self.totals();
        write!(
            f,
            "udf_calls={} emitted={} shipped={} net_bytes={} steps={}",
            t.udf_calls, t.records_emitted, t.records_shipped, t.bytes_shipped, t.interp_steps
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = ExecStats::new();
        s.add_calls(0, 1, 100, 2);
        s.add_calls(0, 1, 50, 0);
        s.add_shipped(None, 10, 640);
        let t = s.totals();
        assert_eq!(t.udf_calls, 2);
        assert_eq!(t.records_emitted, 2);
        assert_eq!(t.records_shipped, 10);
        assert_eq!(t.bytes_shipped, 640);
        assert_eq!(t.interp_steps, 150);
    }

    #[test]
    fn spill_counters_accumulate_globally_and_per_op() {
        let s = ExecStats::with_ops(2);
        s.add_spill(0, 100, 2_048);
        s.add_spill(0, 50, 1_024);
        s.add_spill(1, 10, 300);
        // Spilling touches nothing but the three spill counters.
        let expected = StatsSnapshot {
            records_spilled: 160,
            spilled_bytes: 3_372,
            spill_runs: 3,
            ..StatsSnapshot::default()
        };
        assert_eq!(s.totals(), expected);
        let ops = s.op_snapshots();
        assert_eq!(
            (
                ops[0].records_spilled,
                ops[0].spilled_bytes,
                ops[0].spill_runs
            ),
            (150, 3_072, 2)
        );
        assert_eq!(
            (
                ops[1].records_spilled,
                ops[1].spilled_bytes,
                ops[1].spill_runs
            ),
            (10, 300, 1)
        );
    }

    #[test]
    fn per_op_ship_attribution_is_separate_from_globals() {
        let s = ExecStats::with_ops(2);
        s.add_shipped(Some(1), 10, 640);
        s.add_shipped(None, 5, 320);
        let ops = s.op_snapshots();
        assert_eq!((ops[0].shipped_records, ops[0].shipped_bytes), (0, 0));
        assert_eq!((ops[1].shipped_records, ops[1].shipped_bytes), (10, 640));
        let t = s.totals();
        assert_eq!((t.records_shipped, t.bytes_shipped), (15, 960));
    }

    #[test]
    fn per_op_slots_track_by_operator() {
        let s = ExecStats::with_ops(2);
        s.add_calls(0, 1, 10, 1);
        s.add_calls(1, 1, 20, 3);
        s.add_calls(1, 1, 30, 0);
        s.add_op_nanos(1, 500);
        let ops = s.op_snapshots();
        assert_eq!(ops.len(), 2);
        assert_eq!((ops[0].calls, ops[0].emits), (1, 1));
        assert_eq!((ops[1].calls, ops[1].emits, ops[1].nanos), (2, 3, 500));
        // Globals see the union.
        assert_eq!(s.totals().udf_calls, 3);
    }

    #[test]
    fn per_op_is_safe_without_slots() {
        let s = ExecStats::new();
        // Out-of-range ops are ignored, not a panic.
        s.add_calls(7, 1, 1, 1);
        s.add_op_nanos(7, 1);
        s.add_op_out_bytes(7, 1);
        s.add_op_distinct_keys(7, 1);
        s.add_shipped(Some(7), 1, 1);
        s.add_spill(7, 1, 1);
        assert!(s.op_snapshots().is_empty());
        // Global totals still accumulate without slots.
        let t = s.totals();
        assert_eq!(t.udf_calls, 1);
        assert_eq!(
            (t.records_spilled, t.spilled_bytes, t.spill_runs),
            (1, 1, 1)
        );
    }

    #[test]
    fn totals_mirrors_every_global_counter() {
        let s = ExecStats::new();
        s.add_calls(0, 1, 100, 2);
        s.add_shipped(None, 10, 640);
        s.add_spill(0, 20, 999);
        let t = s.totals();
        assert_eq!(t.udf_calls, 1);
        assert_eq!(t.records_emitted, 2);
        assert_eq!(t.records_shipped, 10);
        assert_eq!(t.bytes_shipped, 640);
        assert_eq!((t.records_preagg_in, t.records_preagg_out), (0, 0));
        assert_eq!(t.records_spilled, 20);
        assert_eq!(t.spilled_bytes, 999);
        assert_eq!(t.spill_runs, 1);
        assert_eq!(t.interp_steps, 100);
    }

    #[test]
    fn columnar_counters_accumulate() {
        let s = ExecStats::new();
        s.add_scattered(100);
        s.add_scattered(28);
        s.add_batch_cells(3, 40);
        s.add_batch_cells(0, 60);
        let t = s.totals();
        assert_eq!(t.rows_scattered, 128);
        assert_eq!(t.null_cells, 3);
        assert_eq!(t.total_cells, 100);
        // Scatter classification does not itself count as shipping.
        assert_eq!(t.records_shipped, 0);
    }

    #[test]
    fn profiling_detail_flag() {
        assert!(!ExecStats::new().detail());
        assert!(!ExecStats::with_ops(1).detail());
        assert!(ExecStats::for_profiling(1).detail());
    }

    #[test]
    fn display_renders() {
        let s = ExecStats::new();
        s.add_calls(0, 1, 1, 1);
        assert!(format!("{s}").contains("udf_calls=1"));
    }
}
