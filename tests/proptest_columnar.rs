//! Property tests for the columnar batch layout: record ↔ column
//! round-trip identity, equality of one batch built by each
//! `BatchBuilder` path, and agreement of the vectorized key hash
//! (`key_hash_into`) with the row-oriented reference path (`FxHasher`
//! over `Value::hash`); and agreement of the row-view kernels
//! (`RowRef::key_cmp`, `RowRef::cmp`, `RowRef::canonical_cmp`,
//! `sort_canonical`) and of the wire encoding of a row view
//! (`wire::encode_framed_row`, which spill runs are written with) with
//! the materialized records, over batch rows and views of ragged records
//! alike.

use proptest::prelude::*;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use strato::record::hash::FxHasher;
use strato::record::{sort_canonical, wire, BatchBuilder, ColumnBatch, Record, RowRef, Value};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[a-zA-Z0-9 ⟨⟩]{0,12}".prop_map(Value::str),
    ]
}

/// A batch-shaped input: a width and rows already normalized to that
/// width (columnar batches hold uniform-arity rows; ragged records are
/// null-padded by the scan path before they ever reach a column store).
fn arb_rows() -> impl Strategy<Value = (usize, Vec<Record>)> {
    (
        0usize..5,
        prop::collection::vec(prop::collection::vec(arb_value(), 0..8), 0..24),
    )
        .prop_map(|(width, rows)| {
            let rows = rows
                .into_iter()
                .map(|mut vals| {
                    vals.truncate(width);
                    vals.resize(width, Value::Null);
                    Record::new(vals)
                })
                .collect();
            (width, rows)
        })
}

/// Values from a small domain — including NaN and −0.0 — so rows tie on
/// keys and on whole prefixes.
fn arb_tied_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (0i64..3).prop_map(Value::Int),
        (0usize..4).prop_map(|i| Value::Float([0.0, -0.0, f64::NAN, 1.5][i])),
        (0usize..3).prop_map(|i| Value::str(["", "a", "ab"][i])),
    ]
}

/// Row views of both kinds: a columnar batch of `width`-wide rows and
/// ragged records, over full-domain and tied values (typed,
/// null-masked and `Mixed` columns alike).
fn arb_views() -> impl Strategy<Value = (usize, Vec<Record>, Vec<Record>)> {
    let value = || prop_oneof![arb_value(), arb_tied_value(), arb_tied_value()];
    let rows = || prop::collection::vec(prop::collection::vec(value(), 0..6), 0..14);
    (0usize..5, rows(), rows()).prop_map(|(width, wide, ragged)| {
        let wide = wide
            .into_iter()
            .map(|mut vals| {
                vals.resize(width, Value::Null);
                Record::new(vals)
            })
            .collect();
        (width, wide, ragged.into_iter().map(Record::new).collect())
    })
}

/// The columnar rows of `cb`, then views of the `ragged` records.
fn views<'a>(cb: &'a ColumnBatch, ragged: &'a [Record]) -> Vec<RowRef<'a>> {
    (0..cb.len())
        .map(|i| cb.row(i))
        .chain(ragged.iter().map(RowRef::from))
        .collect()
}

/// The reference key order: field-wise `Value::cmp`.
fn value_key_cmp(a: &Record, b: &Record, keys: &[usize]) -> Ordering {
    keys.iter()
        .map(|&k| a.field(k).cmp(b.field(k)))
        .find(|o| !o.is_eq())
        .unwrap_or(Ordering::Equal)
}

/// Key column indices clamped into `0..width` (empty when `width == 0`).
fn norm_keys(raw: &[usize], width: usize) -> Vec<usize> {
    if width == 0 {
        Vec::new()
    } else {
        raw.iter().map(|k| k % width).collect()
    }
}

fn build(width: usize, rows: &[Record]) -> ColumnBatch {
    let mut b = BatchBuilder::new(width);
    for r in rows {
        b.push(r.clone());
    }
    b.finish()
}

/// The row-oriented reference hash: `FxHasher` fed each key field's
/// `Value::hash`, the per-row order the batch kernels must reproduce.
fn row_key_hash(r: &Record, keys: &[usize]) -> u64 {
    let mut h = FxHasher::default();
    for &k in keys {
        r.field(k).hash(&mut h);
    }
    h.finish()
}

/// The framed wire format spelled out byte by byte, independent of the
/// encoder: a `u32`-le body length; the body is the `u32`-le arity, then
/// per field a tag (null 0, bool 1, int 2, float 3, string 4) and its
/// little-endian payload, a string's prefixed by its `u32`-le byte length.
fn reference_frame(r: &Record) -> Vec<u8> {
    let mut body = (r.arity() as u32).to_le_bytes().to_vec();
    for v in r.fields() {
        match v {
            Value::Null => body.push(0),
            Value::Bool(b) => body.extend([1, *b as u8]),
            Value::Int(i) => {
                body.push(2);
                body.extend(i.to_le_bytes());
            }
            Value::Float(x) => {
                body.push(3);
                body.extend(x.to_le_bytes());
            }
            Value::Str(s) => {
                body.push(4);
                body.extend((s.len() as u32).to_le_bytes());
                body.extend(s.as_bytes());
            }
        }
    }
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend(body);
    frame
}

proptest! {
    #[test]
    fn a_row_view_encodes_to_the_frame_of_its_record((width, wide, ragged) in arb_views()) {
        // One more column, null on every row, so every batch has an
        // all-null column next to typed, null-masked and mixed ones.
        let wide: Vec<Record> = wide
            .into_iter()
            .map(|r| Record::new(r.fields().iter().cloned().chain([Value::Null]).collect()))
            .collect();
        let cb = build(width + 1, &wide);
        for (view, rec) in views(&cb, &ragged).into_iter().zip(wide.iter().chain(&ragged)) {
            let (mut from_view, mut from_record) = Default::default();
            let n = wire::encode_framed_row(view, &mut from_view);
            wire::encode_framed_row(RowRef::from(rec), &mut from_record);
            let want = reference_frame(rec);
            prop_assert_eq!(n, want.len());
            prop_assert_eq!(from_view.as_ref(), &want[..]);
            prop_assert_eq!(from_record.as_ref(), &want[..]);
        }
    }

    #[test]
    fn roundtrip_preserves_rows((width, rows) in arb_rows()) {
        let cb = build(width, &rows);
        prop_assert_eq!(cb.len(), rows.len());
        prop_assert_eq!(cb.width(), width);
        prop_assert_eq!(cb.clone().into_records(), rows.clone());
        // Per-row materialization and cell access agree too.
        for (i, r) in rows.iter().enumerate() {
            prop_assert_eq!(&cb.row_record(i), r);
            prop_assert!(cb.row(i) == RowRef::from(r));
            for c in 0..width {
                prop_assert_eq!(&cb.value_at(i, c), r.field(c));
            }
        }
    }

    #[test]
    fn batches_are_logically_equal_across_layouts(
        (width, rows) in arb_rows(),
        fanout in 1usize..5,
        raw_dests in prop::collection::vec(0usize..4, 24),
    ) {
        // Three more columns on every row next to the drawn ones (mostly
        // `Mixed`): an all-null one, a null-masked Int one and a Str one
        // without nulls.
        let rows: Vec<Record> = rows
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let masked = if i % 3 == 0 { Value::Null } else { Value::Int(i as i64) };
                let extra = [Value::Null, masked, Value::str(format!("s{i}"))];
                Record::new(r.fields().iter().cloned().chain(extra).collect())
            })
            .collect();
        let width = width + 3;
        // One batch built by each builder path: record by record, gathered
        // row by row from a shared batch, and scattered column-wise into
        // `fanout` destinations, row `r` to `dests[r]`. Equality is row by
        // row, so NaN cells equal themselves.
        let pushed = build(width, &rows);
        let mut gathered = BatchBuilder::new(width);
        for row in 0..pushed.len() {
            gathered.append_row(&pushed, row);
        }
        prop_assert_eq!(&pushed, &pushed.clone());
        prop_assert_eq!(&gathered.finish(), &pushed);
        let dests: Vec<u32> = raw_dests[..rows.len()]
            .iter()
            .map(|&d| (d % fanout) as u32)
            .collect();
        let mut scattered: Vec<BatchBuilder> =
            (0..fanout).map(|_| BatchBuilder::new(width)).collect();
        pushed
            .clone()
            .scatter_into(&dests, &mut scattered.iter_mut().collect::<Vec<_>>());
        for (d, got) in scattered.into_iter().enumerate() {
            // Each destination holds the rows routed to it, in order.
            let routed: Vec<usize> = (0..rows.len()).filter(|&r| dests[r] as usize == d).collect();
            let mut want = BatchBuilder::new(width);
            for &row in &routed {
                want.append_row(&pushed, row);
            }
            let got = got.finish();
            prop_assert_eq!(&got, &want.finish());
            let want_rows: Vec<Record> = routed.iter().map(|&r| rows[r].clone()).collect();
            prop_assert_eq!(got.into_records(), want_rows);
        }
        if let Some((_, fewer)) = rows.split_last() {
            prop_assert!(build(width, fewer) != pushed);
        }
    }

    #[test]
    fn key_hash_agrees_with_row_hasher(
        (width, rows) in arb_rows(),
        raw_keys in prop::collection::vec(0usize..8, 0..4),
    ) {
        let keys = norm_keys(&raw_keys, width);
        let cb = build(width, &rows);
        let mut hashes = Vec::new();
        cb.key_hash_into(&keys, &mut hashes);
        prop_assert_eq!(hashes.len(), rows.len());
        for (i, r) in rows.iter().enumerate() {
            let want = row_key_hash(r, &keys);
            prop_assert_eq!(hashes[i], want);
        }
    }

    #[test]
    fn encoded_len_matches_row_sum((width, rows) in arb_rows()) {
        let cb = build(width, &rows);
        let want: usize = rows.iter().map(Record::encoded_len).sum();
        prop_assert_eq!(cb.encoded_len(), want);
    }

    #[test]
    fn row_view_key_cmp_agrees_with_value_order(
        (width, wide, ragged) in arb_views(),
        keys in prop::collection::vec(0usize..6, 0..4),
    ) {
        // Keys past a row's arity read null, as `Record::field` does.
        let cb = build(width, &wide);
        let all: Vec<Record> = wide.iter().chain(&ragged).cloned().collect();
        let vs = views(&cb, &ragged);
        for (a, va) in vs.iter().enumerate() {
            for (b, vb) in vs.iter().enumerate() {
                let want = value_key_cmp(&all[a], &all[b], &keys);
                prop_assert!(va.key_cmp(vb, &keys) == want, "rows {} vs {}", a, b);
            }
        }
    }

    #[test]
    fn row_view_cmp_agrees_with_record_cmp((width, wide, ragged) in arb_views()) {
        let cb = build(width, &wide);
        let all: Vec<Record> = wide.iter().chain(&ragged).cloned().collect();
        let vs = views(&cb, &ragged);
        for (a, va) in vs.iter().enumerate() {
            prop_assert_eq!(&va.to_record(), &all[a]);
            for (b, vb) in vs.iter().enumerate() {
                prop_assert!(va.cmp(vb) == all[a].cmp(&all[b]), "rows {} vs {}", a, b);
            }
        }
    }

    #[test]
    fn sort_canonical_agrees_with_sorting_records(
        (width, wide, ragged) in arb_views(),
        keys in prop::collection::vec(0usize..6, 0..4),
    ) {
        let cb = build(width, &wide);
        let mut vs = views(&cb, &ragged);
        let mut want: Vec<Record> = wide.into_iter().chain(ragged.iter().cloned()).collect();
        let canonical = |a: &Record, b: &Record| value_key_cmp(a, b, &keys).then_with(|| a.cmp(b));
        // The one canonical comparison, on every pair of views.
        for (a, va) in vs.iter().enumerate() {
            for (b, vb) in vs.iter().enumerate() {
                let got = va.canonical_cmp(vb, &keys);
                prop_assert!(got == canonical(&want[a], &want[b]), "rows {} vs {}", a, b);
            }
        }
        sort_canonical(&mut vs, &keys);
        let got: Vec<Record> = vs.iter().map(RowRef::to_record).collect();
        want.sort_by(canonical);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn null_mask_density_counts_nulls((width, rows) in arb_rows()) {
        let cb = build(width, &rows);
        let nulls: usize = rows
            .iter()
            .map(|r| r.fields().iter().filter(|v| v.is_null()).count())
            .sum();
        prop_assert_eq!(cb.null_cells(), nulls);
        prop_assert_eq!(cb.total_cells(), rows.len() * width);
    }
}
