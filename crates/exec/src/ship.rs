//! Ship strategies: routing batches between partitions, one batch at a
//! time.
//!
//! Shipping is where the simulated engine accounts "network" traffic. In
//! the streaming runtime every producer task owns one [`Router`] for its
//! (single) consumer edge; as the task emits batches, the router charges
//! the shipping stats and appends `(channel, batch)` pairs to the task's
//! outbound queue — there is no whole-dataset ship step anymore, so ship
//! overlaps the local work of both producer and consumer stages.
//!
//! Byte accounting uses [`RecordBatch::encoded_len`] — the sum of
//! [`Record::encoded_len`](strato_record::Record::encoded_len), the same
//! approximation the cost model optimizes against, computed column-wise —
//! instead of serializing every record. No row is encoded on the way:
//! routed batches move between tasks in memory, and the wire codec is
//! pinned by its own tests and by the spill files that use it.
//!
//! Accounting rule (see [`ExecStats::add_shipped`]):
//!
//! * [`Ship::Forward`] ships nothing.
//! * [`Ship::Partition`] counts every routed record once, including those
//!   hash-routed back to their own partition — hash routing is
//!   data-dependent, and the cost model prices a repartition as the full
//!   input volume (cf. `ship_cost`'s "approximate with 1").
//! * [`Ship::Broadcast`] counts `dop - 1` copies of every record: a
//!   partition does not ship to itself. The batches themselves are shared
//!   via [`Arc`], so broadcast performs **zero** record copies no matter
//!   the fan-out.
//!
//! All three totals are per-record sums, so routing batch-by-batch charges
//! exactly what the old stage-synchronous driver charged for the whole
//! partition — the equivalence suite pins this byte-for-byte.

use crate::stats::ExecStats;
use std::collections::VecDeque;
use std::sync::Arc;
use strato_record::{AttrId, BatchBuilder, RecordBatch};

/// A producer task's outbound queue: batches routed to scheduler channels
/// but not yet accepted (bounded channels apply backpressure).
pub(crate) type Outbound = VecDeque<(usize, Arc<RecordBatch>)>;

/// Per-task incremental ship router. Channels of one consumer edge are
/// contiguous: partition `p` of the consumer reads channel `first + p`.
pub(crate) enum Router {
    /// Stay put: partition `p` feeds the consumer's partition `p` directly.
    Forward {
        /// The single channel this producer feeds.
        chan: usize,
    },
    /// Hash-repartition records by key; batches rebuilt per destination.
    ///
    /// Destinations come from [`RecordBatch::key_hash_into`] and bytes
    /// from [`RecordBatch::encoded_len`]. Rows go into one [`BatchBuilder`] per
    /// destination, built at the plan's width when the router is, without
    /// materializing a record: the routed batch is owned, so its columns
    /// are scattered ([`strato_record::ColumnBatch::scatter_into`]). A
    /// builder is handed on once a routed batch brings it to `batch_size`
    /// rows, and at `finish`.
    Partition {
        first: usize,
        dop: usize,
        /// Producing operator id for per-op ship attribution (`None` for
        /// scan-fed edges without an operator slot).
        op: Option<usize>,
        /// Key attribute positions.
        key_idx: Vec<usize>,
        /// Per-destination rows accumulated up to `batch_size`.
        builders: Vec<BatchBuilder>,
        batch_size: usize,
        /// Scratch: the per-row hash column of the batch being routed.
        hashes: Vec<u64>,
        /// Scratch: per-row destination partition of the batch being
        /// routed.
        dests: Vec<u32>,
    },
    /// Every consumer partition gets the same `Arc`'d batch.
    Broadcast {
        first: usize,
        dop: usize,
        /// Producing operator id for per-op ship attribution.
        op: Option<usize>,
    },
}

impl Router {
    pub(crate) fn forward(chan: usize) -> Self {
        Router::Forward { chan }
    }

    /// A Partition router over `dop` consumer partitions for rows
    /// `width` attributes wide.
    pub(crate) fn partition(
        first: usize,
        dop: usize,
        op: Option<usize>,
        key: &[AttrId],
        batch_size: usize,
        width: usize,
    ) -> Self {
        Router::Partition {
            first,
            dop,
            op,
            key_idx: key.iter().map(|a| a.index()).collect(),
            builders: (0..dop).map(|_| BatchBuilder::new(width)).collect(),
            batch_size: batch_size.max(1),
            hashes: Vec::new(),
            dests: Vec::new(),
        }
    }

    pub(crate) fn broadcast(first: usize, dop: usize, op: Option<usize>) -> Self {
        Router::Broadcast { first, dop, op }
    }

    /// Whether this router actually moves data across partitions (the
    /// tracing hook only records ship spans for non-Forward routers).
    pub(crate) fn ships(&self) -> bool {
        !matches!(self, Router::Forward { .. })
    }

    /// Routes one produced batch, charging shipping stats and appending the
    /// resulting `(channel, batch)` pairs to `out`. Every batch a task
    /// produces is its own, so this is where it is wrapped in the `Arc`
    /// its channel carries.
    pub(crate) fn route(&mut self, batch: RecordBatch, out: &mut Outbound, stats: &ExecStats) {
        match self {
            Router::Forward { chan } => {
                out.push_back((*chan, Arc::new(batch)));
            }
            Router::Partition {
                first,
                dop,
                op,
                key_idx,
                builders,
                batch_size,
                hashes,
                dests,
            } => {
                let n = batch.len();
                stats.add_shipped(*op, n as u64, batch.encoded_len() as u64);
                batch.key_hash_into(key_idx, hashes);
                dests.clear();
                dests.extend(hashes.iter().map(|&h| (h as usize % *dop) as u32));
                // Owned columns scatter without copying: string payloads
                // move, with no refcount traffic.
                let mut refs: Vec<&mut BatchBuilder> = builders.iter_mut().collect();
                batch.scatter_into(dests, &mut refs);
                for (p, bld) in builders.iter_mut().enumerate() {
                    if bld.len() >= *batch_size {
                        out.push_back((*first + p, Arc::new(bld.take())));
                    }
                }
                stats.add_scattered(n as u64);
            }
            Router::Broadcast { first, dop, op } => {
                // `dop - 1` remote copies: a partition does not ship to
                // itself.
                let copies = dop.saturating_sub(1) as u64;
                stats.add_shipped(
                    *op,
                    batch.len() as u64 * copies,
                    batch.encoded_len() as u64 * copies,
                );
                let batch = Arc::new(batch);
                for p in 0..*dop {
                    out.push_back((*first + p, Arc::clone(&batch)));
                }
            }
        }
    }

    /// Flushes any partially filled destination batches (end of the
    /// producer's output).
    pub(crate) fn finish(&mut self, out: &mut Outbound) {
        let Router::Partition {
            first, builders, ..
        } = self
        else {
            return;
        };
        for (p, bld) in builders.iter_mut().enumerate() {
            if !bld.is_empty() {
                out.push_back((*first + p, Arc::new(bld.take())));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use std::collections::{BTreeMap, BTreeSet};
    use strato_record::{Record, Value};

    fn batch(vals: &[i64]) -> RecordBatch {
        let recs: Vec<Record> = vals
            .iter()
            .map(|&v| Record::from_values([Value::Int(v)]))
            .collect();
        testutil::batch(&recs, 1)
    }

    fn flat(out: &Outbound) -> Vec<(usize, Vec<i64>)> {
        out.iter()
            .map(|(c, b)| {
                let ints = (0..b.len()).map(|i| b.row(i).value(0).as_int().unwrap());
                (*c, ints.collect())
            })
            .collect()
    }

    #[test]
    fn forward_is_identity_and_free() {
        let stats = ExecStats::new();
        let mut out = Outbound::new();
        let mut r = Router::forward(3);
        r.route(batch(&[1, 2]), &mut out, &stats);
        r.finish(&mut out);
        assert_eq!(flat(&out), vec![(3, vec![1, 2])]);
        assert_eq!(stats.totals().records_shipped, 0);
    }

    #[test]
    fn partition_routes_by_key_hash_and_counts_all_records() {
        let stats = ExecStats::new();
        let key = [AttrId(0)];
        let mut out = Outbound::new();
        let mut r = Router::partition(10, 4, Some(0), &key, 1024, 1);
        r.route(batch(&[1, 2, 3]), &mut out, &stats);
        r.route(batch(&[1, 4]), &mut out, &stats);
        r.finish(&mut out);
        // All 5 records accounted; equal keys land on the same channel.
        let t = stats.totals();
        let (shipped, bytes) = (t.records_shipped, t.bytes_shipped);
        assert_eq!(shipped, 5);
        assert_eq!(bytes, 5 * 13); // 4-byte header + 9-byte int each
        let routed = flat(&out);
        assert_eq!(routed.iter().map(|(_, v)| v.len()).sum::<usize>(), 5);
        assert!(routed.iter().all(|(c, _)| (10..14).contains(c)));
        let ones: Vec<usize> = routed
            .iter()
            .filter(|(_, v)| v.contains(&1))
            .map(|(c, _)| *c)
            .collect();
        assert!(
            ones.iter().all(|&c| c == ones[0]),
            "both key=1 records on one channel"
        );
    }

    #[test]
    fn partition_routes_every_layout_alike() {
        // A columnar batch with a string column, scattered column-wise:
        // every record lands once, each key on one channel, with the ship
        // accounting charged to the producing operator.
        let key = [AttrId(0)];
        let recs: Vec<Record> = (0..40)
            .map(|i| Record::from_values([Value::Int(i % 7), Value::str(format!("p{i}"))]))
            .collect();
        let bytes: u64 = recs.iter().map(|r| r.encoded_len() as u64).sum();
        let stats = ExecStats::with_ops(1);
        let mut out = Outbound::new();
        let mut r = Router::partition(10, 3, Some(0), &key, 4, 2);
        r.route(testutil::batch(&recs, 2), &mut out, &stats);
        r.finish(&mut out);
        let t = stats.totals();
        assert_eq!((t.records_shipped, t.bytes_shipped), (40, bytes));
        let op = &stats.op_snapshots()[0];
        assert_eq!((op.shipped_records, op.shipped_bytes), (40, bytes));
        assert_eq!(t.rows_scattered, 40);
        let mut chans: BTreeMap<Value, BTreeSet<usize>> = BTreeMap::new();
        let mut routed = Vec::new();
        for (c, b) in &out {
            for i in 0..b.len() {
                chans.entry(b.row(i).value(0)).or_default().insert(*c);
                routed.push(b.row(i).to_record());
            }
        }
        routed.sort();
        let mut want = recs.clone();
        want.sort();
        assert_eq!(routed, want, "every record routed once");
        assert!(chans.values().all(|c| c.len() == 1), "{chans:?}");
    }

    #[test]
    fn partition_respects_batch_size_incrementally() {
        let stats = ExecStats::new();
        let key = [AttrId(0)];
        let mut out = Outbound::new();
        // Same key → same destination; batch_size 2 → a destination's
        // rows are handed on as soon as a routed batch brings them to 2.
        let mut r = Router::partition(0, 2, Some(0), &key, 2, 1);
        r.route(batch(&[7]), &mut out, &stats);
        assert!(out.is_empty(), "below batch_size: held");
        r.route(batch(&[7]), &mut out, &stats);
        assert_eq!(out.len(), 1, "a full batch flushed eagerly");
        r.route(batch(&[7, 7, 7]), &mut out, &stats);
        assert_eq!(out.len(), 2, "a batch is scattered whole, then flushed");
        r.route(batch(&[7]), &mut out, &stats);
        r.finish(&mut out);
        assert_eq!(out.len(), 3, "remainder flushed at finish");
        let sizes: Vec<usize> = out.iter().map(|(_, b)| b.len()).collect();
        assert_eq!(sizes, [2, 3, 1]);
    }

    #[test]
    fn broadcast_shares_batches_and_counts_remote_copies_only() {
        let stats = ExecStats::new();
        let mut out = Outbound::new();
        let mut r = Router::broadcast(5, 3, Some(0));
        r.route(batch(&[7, 8]), &mut out, &stats);
        r.finish(&mut out);
        assert_eq!(out.len(), 3);
        // Zero-copy: every destination sees the same allocation.
        for (c, sent) in &out {
            assert!((5..8).contains(c));
            assert!(Arc::ptr_eq(sent, &out[0].1));
        }
        let t = stats.totals();
        let (shipped, bytes) = (t.records_shipped, t.bytes_shipped);
        assert_eq!(shipped, 2 * 2, "2 records × (dop-1) copies");
        assert_eq!(bytes, 2 * 13 * 2);
    }

    #[test]
    fn broadcast_dop1_ships_nothing() {
        let stats = ExecStats::new();
        let mut out = Outbound::new();
        let mut r = Router::broadcast(0, 1, None);
        r.route(batch(&[1]), &mut out, &stats);
        assert_eq!(out.len(), 1, "still delivered to the one partition");
        assert_eq!(stats.totals().records_shipped, 0);
    }

    #[test]
    fn every_value_kind_arrives_intact_at_its_destination() {
        let stats = ExecStats::new();
        let key = [AttrId(0)];
        let mut out = Outbound::new();
        let mut r = Router::partition(0, 2, None, &key, 1024, 5);
        let row = Record::from_values([
            Value::Int(1),
            Value::Null,
            Value::str("x"),
            Value::Float(2.5),
            Value::Bool(true),
        ]);
        r.route(
            testutil::batch(std::slice::from_ref(&row), 5),
            &mut out,
            &stats,
        );
        r.finish(&mut out);
        assert_eq!(out.len(), 1, "one row, one destination");
        let (chan, sent) = &out[0];
        assert!(*chan < 2);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent.row(0).to_record(), row);
    }
}
