//! Reusable UDF builders shared by the workloads.
//!
//! These are ordinary black-box UDFs: nothing here communicates semantics
//! to the optimizer — every property it uses is rediscovered by SCA (or
//! supplied as a manual annotation in the workload definitions).

use strato_ir::{BinOp, FuncBuilder, Function, Intrinsic, UdfKind};

/// Map: emit records whose integer `field` lies in `[lo, hi]`.
pub fn filter_range(width: usize, field: usize, lo: i64, hi: i64) -> Function {
    let mut b = FuncBuilder::new(format!("range_{field}"), UdfKind::Map, vec![width]);
    let v = b.get_input(0, field);
    let lo_c = b.konst(lo);
    let hi_c = b.konst(hi);
    let ge = b.bin(BinOp::Ge, v, lo_c);
    let le = b.bin(BinOp::Le, v, hi_c);
    let keep = b.bin(BinOp::And, ge, le);
    let end = b.new_label();
    b.branch_not(keep, end);
    let or = b.copy_input(0);
    b.emit(or);
    b.place(end);
    b.ret();
    b.finish().expect("filter_range")
}

/// Pair UDF: concatenate both input records (the standard equi-join body).
pub fn join_concat(left_width: usize, right_width: usize) -> Function {
    let mut b = FuncBuilder::new("concat", UdfKind::Pair, vec![left_width, right_width]);
    let or = b.concat_inputs();
    b.emit(or);
    b.ret();
    b.finish().expect("join_concat")
}

/// Reduce UDF: copy the canonical first record of the group and append
/// `Σ field` as a new output field (index `width`).
pub fn sum_group(width: usize, field: usize) -> Function {
    let mut b = FuncBuilder::new(format!("sum_{field}"), UdfKind::Group, vec![width]);
    let sum = b.konst(0i64);
    let it = b.iter_open(0);
    let done = b.new_label();
    let head = b.new_label();
    b.place(head);
    let r = b.iter_next(it, done);
    let v = b.get(r, field);
    b.bin_into(sum, BinOp::Add, sum, v);
    b.jump(head);
    b.place(done);
    let it2 = b.iter_open(0);
    let nil = b.new_label();
    let first = b.iter_next(it2, nil);
    let or = b.copy(first);
    b.set(or, width, sum);
    b.emit(or);
    b.place(nil);
    b.ret();
    b.finish().expect("sum_group")
}

/// Reduce UDF: fold `Σ field` **in place**. Unlike [`sum_group`], the
/// total overwrites the very field it was read from in a copy of the
/// group's first record, so the output keeps the input's width.
pub fn sum_group_inplace(width: usize, field: usize) -> Function {
    let mut b = FuncBuilder::new(format!("sum_ip_{field}"), UdfKind::Group, vec![width]);
    let sum = b.konst(0i64);
    let it = b.iter_open(0);
    let done = b.new_label();
    let head = b.new_label();
    b.place(head);
    let r = b.iter_next(it, done);
    let v = b.get(r, field);
    b.bin_into(sum, BinOp::Add, sum, v);
    b.jump(head);
    b.place(done);
    let it2 = b.iter_open(0);
    let nil = b.new_label();
    let first = b.iter_next(it2, nil);
    let or = b.copy(first);
    b.set(or, field, sum);
    b.emit(or);
    b.place(nil);
    b.ret();
    b.finish().expect("sum_group_inplace")
}

/// Reduce UDF: sum of `price_field × (100 − disc_field) / 100` over the
/// group, appended as a new field (revenue aggregation with integer cents).
pub fn revenue_sum_group(width: usize, price_field: usize, disc_field: usize) -> Function {
    let mut b = FuncBuilder::new("revenue_sum", UdfKind::Group, vec![width]);
    let sum = b.konst(0i64);
    let hundred = b.konst(100i64);
    let it = b.iter_open(0);
    let done = b.new_label();
    let head = b.new_label();
    b.place(head);
    let r = b.iter_next(it, done);
    let price = b.get(r, price_field);
    let disc = b.get(r, disc_field);
    let rem = b.bin(BinOp::Sub, hundred, disc);
    let vol = b.bin(BinOp::Mul, price, rem);
    let scaled = b.bin(BinOp::Div, vol, hundred);
    b.bin_into(sum, BinOp::Add, sum, scaled);
    b.jump(head);
    b.place(done);
    let it2 = b.iter_open(0);
    let nil = b.new_label();
    let first = b.iter_next(it2, nil);
    let or = b.copy(first);
    b.set(or, width, sum);
    b.emit(or);
    b.place(nil);
    b.ret();
    b.finish().expect("revenue_sum_group")
}

/// Map: burn `cpu_units` of work seeded by `seed_field`, keep records whose
/// string `text_field` contains `needle`, and set the new output field
/// (index `width`) to 1 on the kept records.
///
/// This is the shape of the text-mining extractor components: an expensive
/// opaque computation followed by a selective filter that tags the record.
pub fn tag_if_contains(
    name: &str,
    width: usize,
    text_field: usize,
    needle: &str,
    cpu_units: i64,
) -> Function {
    let mut b = FuncBuilder::new(name, UdfKind::Map, vec![width]);
    let text = b.get_input(0, text_field);
    let seed = b.call(Intrinsic::Hash, vec![text]);
    let cost = b.konst(cpu_units);
    // The "ML component": deterministic busy work whose result feeds the
    // tag so it cannot be considered dead.
    let checksum = b.call(Intrinsic::Burn, vec![cost, seed]);
    let needle_c = b.konst(needle);
    let found = b.call(Intrinsic::StrContains, vec![text, needle_c]);
    let end = b.new_label();
    b.branch_not(found, end);
    let or = b.copy_input(0);
    let one = b.konst(1i64);
    // Fold the checksum into the tag (mod 1 = 0) so the burn result is
    // data-flow-live without perturbing the tag value.
    let zero = b.bin(BinOp::Rem, checksum, one);
    let tag = b.bin(BinOp::Add, one, zero);
    b.set(or, width, tag);
    b.emit(or);
    b.place(end);
    b.ret();
    b.finish().expect("tag_if_contains")
}

#[cfg(test)]
mod tests {
    use super::*;
    use strato_ir::interp::{Interp, Invocation, Layout};
    use strato_record::{Record, RowRef, Value};
    use strato_sca::analyze;

    fn views(g: &[Record]) -> Vec<RowRef<'_>> {
        g.iter().map(RowRef::from).collect()
    }

    fn run_map(f: &Function, rec: Record) -> Vec<Record> {
        let layout = Layout::local(f);
        let mut out = Vec::new();
        Interp::default()
            .run(f, Invocation::Row(RowRef::from(&rec)), &layout, &mut out)
            .unwrap();
        out
    }

    #[test]
    fn filter_range_behaviour_and_props() {
        let f = filter_range(2, 0, 10, 20);
        assert_eq!(
            run_map(&f, Record::from_values([15i64.into(), 1i64.into()])).len(),
            1
        );
        assert_eq!(
            run_map(&f, Record::from_values([9i64.into(), 1i64.into()])).len(),
            0
        );
        assert_eq!(
            run_map(&f, Record::from_values([21i64.into(), 1i64.into()])).len(),
            0
        );
        let p = analyze(&f);
        assert_eq!(p.reads.len(), 1);
        assert!(p.written_base.is_empty());
        assert!(p.emits.at_most_one());
    }

    #[test]
    fn sum_group_aggregates() {
        let f = sum_group(2, 1);
        let layout = Layout::local(&f);
        let g = vec![
            Record::from_values([Value::Int(1), Value::Int(4), Value::Null]),
            Record::from_values([Value::Int(1), Value::Int(6), Value::Null]),
        ];
        let mut out = Vec::new();
        Interp::default()
            .run(&f, Invocation::Group(&views(&g)), &layout, &mut out)
            .unwrap();
        assert_eq!(out[0].field(2), &Value::Int(10));
        let p = analyze(&f);
        assert!(p.copies_input(0));
        assert!(p.written_base.is_empty());
    }

    #[test]
    fn sum_group_inplace_aggregates_in_place() {
        let f = sum_group_inplace(2, 1);
        let layout = Layout::local(&f);
        let g = vec![
            Record::from_values([Value::Int(1), Value::Int(4)]),
            Record::from_values([Value::Int(1), Value::Int(6)]),
        ];
        let mut out = Vec::new();
        Interp::default()
            .run(&f, Invocation::Group(&views(&g)), &layout, &mut out)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].field(0), &Value::Int(1));
        assert_eq!(out[0].field(1), &Value::Int(10));
    }

    #[test]
    fn revenue_sum_uses_integer_cents() {
        let f = revenue_sum_group(3, 1, 2);
        let layout = Layout::local(&f);
        // price 1000 cents, 10% discount → 900; price 500, 0% → 500.
        let g = vec![
            Record::from_values([Value::Int(1), Value::Int(1000), Value::Int(10), Value::Null]),
            Record::from_values([Value::Int(1), Value::Int(500), Value::Int(0), Value::Null]),
        ];
        let mut out = Vec::new();
        Interp::default()
            .run(&f, Invocation::Group(&views(&g)), &layout, &mut out)
            .unwrap();
        assert_eq!(out[0].field(3), &Value::Int(1400));
    }

    #[test]
    fn tag_if_contains_filters_and_tags() {
        let f = tag_if_contains("gene", 2, 0, "GENE_", 1);
        let hit = run_map(
            &f,
            Record::from_values([Value::str("x GENE_abc y"), Value::Int(1)]),
        );
        assert_eq!(hit.len(), 1);
        assert!(hit[0].field(2).as_int().is_some());
        let miss = run_map(
            &f,
            Record::from_values([Value::str("nothing"), Value::Int(1)]),
        );
        assert!(miss.is_empty());
        let p = analyze(&f);
        // Reads and filters on the text field.
        assert!(p.reads.contains(&(0, 0)));
        assert!(p.control_reads.contains(&(0, 0)));
        assert_eq!(p.added.len(), 1);
    }

    #[test]
    fn join_concat_props() {
        let f = join_concat(2, 3);
        let p = analyze(&f);
        assert_eq!(p.copied_inputs, 0b11);
        assert!(p.written_base.is_empty());
        assert!(p.emits.exactly_one());
    }
}
