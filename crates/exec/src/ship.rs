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
//! Byte accounting uses [`Record::encoded_len`] — the same approximation
//! the cost model optimizes against — instead of serializing every record.
//! Debug builds additionally round-trip each hash-partitioned record
//! through the wire format and check the decode reproduces the original,
//! so every debug test run exercises the serialization and release never
//! pays for it.
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

use crate::engine::ExecError;
use crate::stats::ExecStats;
use bytes::BytesMut;
use std::collections::VecDeque;
use std::sync::Arc;
use strato_record::{wire, AttrId, BatchBuilder, Record, RecordBatch};

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
    /// Row-major batches are routed record-at-a-time into per-destination
    /// record vectors. Columnar batches take the vectorized path: the
    /// full key-hash column and per-row byte sizes are computed with the
    /// columnar kernels, then rows are scattered into per-destination
    /// [`BatchBuilder`]s without ever materializing a [`Record`]. Both
    /// paths charge identical per-record ship accounting and flush at
    /// the same `batch_size` boundaries. A task's output is one
    /// representation for its whole life (scans emit columns, operators
    /// emit rows), so the first batch fixes which kind `pending` holds.
    Partition {
        first: usize,
        dop: usize,
        /// Producing operator id for per-op ship attribution (`None` for
        /// scan-fed edges without an operator slot).
        op: Option<usize>,
        key: Vec<AttrId>,
        /// Key attribute positions (for the columnar kernels).
        key_idx: Vec<usize>,
        /// Per-destination rows accumulated up to `batch_size` (`None`
        /// until the first batch arrives).
        pending: Option<Pending>,
        batch_size: usize,
        /// Scratch for the debug-build wire round trip.
        buf: BytesMut,
        /// Scratch: the per-row hash column of the batch being routed.
        hashes: Vec<u64>,
        /// Scratch: per-row `encoded_len` of the batch being routed.
        row_bytes: Vec<usize>,
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

/// The partially filled destination batches of a Partition router, one
/// per consumer partition.
pub(crate) enum Pending {
    Rows(Vec<Vec<Record>>),
    Cols(Vec<BatchBuilder>),
}

impl Router {
    pub(crate) fn forward(chan: usize) -> Self {
        Router::Forward { chan }
    }

    pub(crate) fn partition(
        first: usize,
        dop: usize,
        op: Option<usize>,
        key: &[AttrId],
        batch_size: usize,
    ) -> Self {
        Router::Partition {
            first,
            dop,
            op,
            key: key.to_vec(),
            key_idx: key.iter().map(|a| a.index()).collect(),
            pending: None,
            batch_size: batch_size.max(1),
            buf: BytesMut::new(),
            hashes: Vec::new(),
            row_bytes: Vec::new(),
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
    /// resulting `(channel, batch)` pairs to `out`.
    pub(crate) fn route(
        &mut self,
        batch: Arc<RecordBatch>,
        out: &mut Outbound,
        stats: &ExecStats,
    ) -> Result<(), ExecError> {
        match self {
            Router::Forward { chan } => {
                out.push_back((*chan, batch));
            }
            Router::Partition {
                first,
                dop,
                op,
                key,
                key_idx,
                pending,
                batch_size,
                buf,
                hashes,
                row_bytes,
                dests,
            } => {
                if batch.columns().is_some() {
                    // Vectorized scatter: hash the key columns, size
                    // every row and compute the destination column in
                    // tight column-wise loops, then scatter the whole
                    // batch into per-destination columnar builders —
                    // moving payloads when this router holds the only
                    // reference (the common case).
                    let (n, width, bytes) = {
                        let cb = batch.columns().expect("checked above");
                        let n = cb.len();
                        cb.key_hash_into(key_idx, hashes);
                        cb.row_encoded_lens(row_bytes);
                        let bytes: u64 = row_bytes.iter().map(|&b| b as u64).sum();
                        if cfg!(debug_assertions) {
                            for row in 0..n {
                                validate_roundtrip(&cb.row_record(row), buf)?;
                            }
                        }
                        (n, cb.width(), bytes)
                    };
                    dests.clear();
                    dests.extend(hashes.iter().map(|&h| (h as usize % *dop) as u32));
                    let builders = pending.get_or_insert_with(|| {
                        Pending::Cols((0..*dop).map(|_| BatchBuilder::new(width)).collect())
                    });
                    let Pending::Cols(builders) = builders else {
                        unreachable!("a columnar batch after row batches on one edge")
                    };
                    debug_assert!(builders.iter().all(|b| b.width() == width));
                    {
                        let mut refs: Vec<&mut BatchBuilder> = builders.iter_mut().collect();
                        match Arc::try_unwrap(batch) {
                            // Sole owner: scatter owned columns (string
                            // payloads move, no refcount traffic).
                            Ok(rb) => {
                                let owned = rb.into_columns().expect("checked columnar");
                                owned.scatter_into(dests, &mut refs);
                            }
                            // Shared (e.g. a re-routed broadcast batch):
                            // gather row-by-row from the borrowed columns.
                            Err(shared) => {
                                let cb = shared.columns().expect("checked columnar");
                                for (row, &d) in dests.iter().enumerate() {
                                    refs[d as usize].append_row(cb, row);
                                }
                            }
                        }
                    }
                    for (p, bld) in builders.iter_mut().enumerate() {
                        if bld.len() >= *batch_size {
                            let full = RecordBatch::from_columns(bld.take());
                            out.push_back((*first + p, Arc::new(full)));
                        }
                    }
                    stats.add_shipped(n as u64, bytes);
                    stats.add_scattered(n as u64);
                    if let Some(op) = op {
                        stats.add_op_shipped(*op, n as u64, bytes);
                    }
                } else {
                    let builders = pending.get_or_insert_with(|| {
                        Pending::Rows((0..*dop).map(|_| Vec::new()).collect())
                    });
                    let Pending::Rows(builders) = builders else {
                        unreachable!("a row batch after columnar batches on one edge")
                    };
                    let mut records = 0u64;
                    let mut bytes = 0u64;
                    for r in crate::operators::take_records(batch) {
                        records += 1;
                        bytes += r.encoded_len() as u64;
                        if cfg!(debug_assertions) {
                            validate_roundtrip(&r, buf)?;
                        }
                        let p = (crate::operators::key_hash(&r, key) as usize) % *dop;
                        builders[p].push(r);
                        if builders[p].len() >= *batch_size {
                            let full = std::mem::take(&mut builders[p]);
                            out.push_back((*first + p, Arc::new(RecordBatch::from_records(full))));
                        }
                    }
                    stats.add_shipped(records, bytes);
                    if let Some(op) = op {
                        stats.add_op_shipped(*op, records, bytes);
                    }
                }
            }
            Router::Broadcast { first, dop, op } => {
                // `dop - 1` remote copies: a partition does not ship to
                // itself.
                let copies = dop.saturating_sub(1) as u64;
                stats.add_shipped(
                    batch.len() as u64 * copies,
                    batch.encoded_len() as u64 * copies,
                );
                if let Some(op) = op {
                    stats.add_op_shipped(
                        *op,
                        batch.len() as u64 * copies,
                        batch.encoded_len() as u64 * copies,
                    );
                }
                for p in 0..*dop {
                    out.push_back((*first + p, Arc::clone(&batch)));
                }
            }
        }
        Ok(())
    }

    /// Flushes any partially filled destination batches (end of the
    /// producer's output).
    pub(crate) fn finish(&mut self, out: &mut Outbound) {
        let Router::Partition { first, pending, .. } = self else {
            return;
        };
        let mut flush = |p: usize, rest: RecordBatch| {
            if !rest.is_empty() {
                out.push_back((*first + p, Arc::new(rest)));
            }
        };
        match pending.take() {
            None => {}
            Some(Pending::Rows(builders)) => {
                for (p, rows) in builders.into_iter().enumerate() {
                    flush(p, RecordBatch::from_records(rows));
                }
            }
            Some(Pending::Cols(builders)) => {
                for (p, mut bld) in builders.into_iter().enumerate() {
                    flush(p, RecordBatch::from_columns(bld.take()));
                }
            }
        }
    }
}

/// Encodes `r` with the shared length-framing helper (the same framing
/// the spill subsystem writes), decodes it back, and checks the
/// round-trip is lossless.
fn validate_roundtrip(r: &Record, buf: &mut BytesMut) -> Result<(), ExecError> {
    buf.clear();
    wire::encode_framed(r, buf);
    let decoded = wire::decode_framed(&mut buf.split().freeze())
        .map_err(|e| ExecError::Wire(e.to_string()))?;
    if &decoded != r {
        return Err(ExecError::Wire(format!(
            "round-trip mismatch: {r} decoded as {decoded}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use strato_record::Value;

    fn batch(vals: &[i64]) -> Arc<RecordBatch> {
        Arc::new(
            vals.iter()
                .map(|&v| Record::from_values([Value::Int(v)]))
                .collect(),
        )
    }

    fn flat(out: &Outbound) -> Vec<(usize, Vec<i64>)> {
        out.iter()
            .map(|(c, b)| {
                let ints = b.records().iter().map(|r| r.field(0).as_int().unwrap());
                (*c, ints.collect())
            })
            .collect()
    }

    #[test]
    fn forward_is_identity_and_free() {
        let stats = ExecStats::new();
        let mut out = Outbound::new();
        let mut r = Router::forward(3);
        r.route(batch(&[1, 2]), &mut out, &stats).unwrap();
        r.finish(&mut out);
        assert_eq!(flat(&out), vec![(3, vec![1, 2])]);
        assert_eq!(stats.totals().records_shipped, 0);
    }

    #[test]
    fn partition_routes_by_key_hash_and_counts_all_records() {
        let stats = ExecStats::new();
        let key = [AttrId(0)];
        let mut out = Outbound::new();
        let mut r = Router::partition(10, 4, Some(0), &key, 1024);
        r.route(batch(&[1, 2, 3]), &mut out, &stats).unwrap();
        r.route(batch(&[1, 4]), &mut out, &stats).unwrap();
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
    fn partition_respects_batch_size_incrementally() {
        let stats = ExecStats::new();
        let key = [AttrId(0)];
        let mut out = Outbound::new();
        // Same key → same destination; batch_size 2 → flush every 2 records.
        let mut r = Router::partition(0, 2, Some(0), &key, 2);
        r.route(batch(&[7, 7, 7, 7, 7]), &mut out, &stats).unwrap();
        assert_eq!(out.len(), 2, "two full batches flushed eagerly");
        r.finish(&mut out);
        assert_eq!(out.len(), 3, "remainder flushed at finish");
        assert_eq!(out.iter().map(|(_, b)| b.len()).sum::<usize>(), 5);
    }

    #[test]
    fn broadcast_shares_batches_and_counts_remote_copies_only() {
        let stats = ExecStats::new();
        let b = batch(&[7, 8]);
        let mut out = Outbound::new();
        let mut r = Router::broadcast(5, 3, Some(0));
        r.route(Arc::clone(&b), &mut out, &stats).unwrap();
        r.finish(&mut out);
        assert_eq!(out.len(), 3);
        // Zero-copy: every destination sees the same allocation.
        for (c, sent) in &out {
            assert!((5..8).contains(c));
            assert!(Arc::ptr_eq(sent, &b));
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
        r.route(batch(&[1]), &mut out, &stats).unwrap();
        assert_eq!(out.len(), 1, "still delivered to the one partition");
        assert_eq!(stats.totals().records_shipped, 0);
    }

    #[test]
    fn every_value_kind_survives_the_debug_wire_roundtrip() {
        let stats = ExecStats::new();
        let key = [AttrId(0)];
        let mut out = Outbound::new();
        let mut r = Router::partition(0, 2, None, &key, 1024);
        r.route(
            Arc::new(
                [Record::from_values([
                    Value::Int(1),
                    Value::Null,
                    Value::str("x"),
                    Value::Float(2.5),
                    Value::Bool(true),
                ])]
                .into_iter()
                .collect::<RecordBatch>(),
            ),
            &mut out,
            &stats,
        )
        .unwrap();
        r.finish(&mut out);
        assert_eq!(out.iter().map(|(_, b)| b.len()).sum::<usize>(), 1);
    }
}
