//! The main static-code-analysis pass (Section 5 of the paper).

use crate::emits::emit_bounds;
use crate::props::{InField, LocalProps};
use crate::taint::analyze_taint;
use std::collections::BTreeSet;
use strato_ir::cfg::Cfg;
use strato_ir::dataflow::ReachingDefs;
use strato_ir::func::{Function, RecOrigin};
use strato_ir::{Inst, Reg, UdfKind};

/// Per-emit-site classification of the emitted record's construction.
#[derive(Debug, Clone, Default)]
struct EmitClass {
    /// Inputs implicitly copied into the record (copy/concat constructors).
    mask: u8,
    /// Base output fields explicitly modified or projected on the chain.
    written: BTreeSet<usize>,
    /// Base output fields explicitly copied from their identity position.
    copied: BTreeSet<usize>,
    /// A dynamic `setField` appears on the chain.
    dyn_write: bool,
    /// Saw a `NewRecord` constructor (implicit projection).
    saw_projection: bool,
}

/// Runs the full analysis over one UDF.
///
/// The result is conservative: derived read/write sets are supersets of the
/// semantic sets of Definitions 2 and 3, emit bounds enclose every real emit
/// count, and control reads cover every field that can influence the emit
/// decision. See [`crate::probe`] for the semantic probing used to test
/// this guarantee.
///
/// A Group UDF is proven **first-record-only** when it has at most one
/// reachable `IterNext`, that `IterNext` lies on no control-flow cycle,
/// and no `GroupCount` is reachable. An instruction off every cycle runs
/// at most once per call, so at most one iterator advances at most once:
/// the only record the UDF can read is the first of its group, and its
/// exhausted edge is never taken on a (never empty) group.
pub fn analyze(f: &Function) -> LocalProps {
    let cfg = Cfg::build(f);
    let rd = ReachingDefs::compute(f, &cfg);
    let taint = analyze_taint(f, &cfg, &rd);
    let insts = f.insts();
    let base = f.base_output_width();

    // ---- Read set: getField statements whose destination is used. ----
    let mut reads: BTreeSet<InField> = BTreeSet::new();
    let mut dynamic_read_inputs: BTreeSet<u8> = BTreeSet::new();
    for (i, inst) in insts.iter().enumerate() {
        if !cfg.reachable(i) {
            continue;
        }
        match inst {
            Inst::GetField { rec, field, .. } => {
                if let Ok(Some(RecOrigin::Input(inp))) = f.record_origin(&rd, i, *rec) {
                    if !rd.def_use(i).is_empty() {
                        reads.insert((inp, *field));
                    }
                }
            }
            Inst::GetFieldDyn { rec, .. } => {
                if let Ok(Some(RecOrigin::Input(inp))) = f.record_origin(&rd, i, *rec) {
                    if !rd.def_use(i).is_empty() {
                        dynamic_read_inputs.insert(inp);
                    }
                }
            }
            _ => {}
        }
    }

    // ---- Write set: classify every emit chain. ----
    let mut classes: Vec<EmitClass> = Vec::new();
    for (i, inst) in insts.iter().enumerate() {
        if !cfg.reachable(i) {
            continue;
        }
        if let Inst::Emit { rec } = inst {
            classes.push(classify_emit(f, &rd, i, *rec, base));
        }
    }
    let mut written_base: BTreeSet<usize> = BTreeSet::new();
    // No emits ⇒ nothing is ever changed; constructors weaken from "copies
    // everything" downward.
    let mut copied_inputs: u8 = 0b11;
    let mut dynamic_write = false;
    for c in &classes {
        dynamic_write |= c.dyn_write;
        copied_inputs &= c.mask;
        written_base.extend(c.written.iter().copied());
        // Fields of inputs not implicitly copied are projected (written)
        // unless explicitly copied on this chain.
        let mut offset = 0usize;
        for (inp, &w) in f.input_widths().iter().enumerate() {
            let copied_implicitly = c.mask & (1 << inp) != 0;
            if !copied_implicitly {
                for n in offset..offset + w {
                    if !c.copied.contains(&n) {
                        written_base.insert(n);
                    }
                }
            }
            offset += w;
        }
        let _ = c.saw_projection;
    }

    // ---- Added fields: the declared extension of the output schema. ----
    let added: BTreeSet<usize> = (base..f.output_width()).collect();

    // ---- Control reads (taint) and emit bounds. ----
    let mut control_reads = taint.control_reads;
    // Control reads are reads.
    reads.extend(control_reads.iter().copied());
    for &inp in &taint.dynamic_control_inputs {
        dynamic_read_inputs.insert(inp);
    }
    // A dynamic read that feeds control makes every field of that input a
    // potential control read; expand here so downstream code need not track
    // the flag separately for static fields.
    for &inp in &taint.dynamic_control_inputs {
        for field in 0..f.input_widths()[inp as usize] {
            control_reads.insert((inp, field));
        }
    }

    LocalProps {
        reads,
        control_reads,
        dynamic_read_inputs,
        dynamic_control_inputs: taint.dynamic_control_inputs,
        written_base,
        copied_inputs,
        dynamic_write,
        added,
        emits: emit_bounds(f, &cfg),
        first_record_only: first_record_only(f, &cfg),
    }
}

/// The first-record-only proof of [`analyze`].
fn first_record_only(f: &Function, cfg: &Cfg) -> bool {
    if f.kind() != UdfKind::Group {
        return false;
    }
    let mut nexts = 0;
    for (i, inst) in f.insts().iter().enumerate() {
        match inst {
            _ if !cfg.reachable(i) => {}
            Inst::GroupCount { .. } => return false,
            Inst::IterNext { .. } if cfg.in_cycle(i) => return false,
            Inst::IterNext { .. } => nexts += 1,
            _ => {}
        }
    }
    nexts <= 1
}

/// Chases the definition chain of an emitted record register, collecting
/// constructors and `setField` statements (the paper's "track the origin of
/// `$or`" step).
fn classify_emit(
    f: &Function,
    rd: &ReachingDefs,
    emit_site: usize,
    reg: strato_ir::RReg,
    base: usize,
) -> EmitClass {
    let insts = f.insts();
    let mut class = EmitClass {
        // Start from "copies everything"; constructors weaken this.
        mask: 0b11,
        ..EmitClass::default()
    };
    let mut saw_constructor = false;
    let mut stack: Vec<usize> = rd.use_def(emit_site, Reg::Rec(reg));
    let mut seen = vec![false; insts.len()];
    while let Some(d) = stack.pop() {
        if std::mem::replace(&mut seen[d], true) {
            continue;
        }
        match &insts[d] {
            Inst::NewRecord { .. } => {
                class.mask = 0;
                class.saw_projection = true;
                saw_constructor = true;
            }
            Inst::CopyRecord { dst: _, src } => {
                match f.record_origin(rd, d, *src) {
                    Ok(Some(RecOrigin::Input(inp))) => {
                        class.mask &= 1 << inp;
                        saw_constructor = true;
                    }
                    Ok(Some(RecOrigin::Constructed)) => {
                        // Copy of a constructed record: inherit its chain.
                        stack.extend(rd.use_def(d, Reg::Rec(*src)));
                    }
                    _ => {
                        class.mask = 0;
                        saw_constructor = true;
                    }
                }
            }
            Inst::ConcatRecords { a, b, .. } => {
                let mut m = 0u8;
                for r in [a, b] {
                    match f.record_origin(rd, d, *r) {
                        Ok(Some(RecOrigin::Input(inp))) => m |= 1 << inp,
                        Ok(Some(RecOrigin::Constructed)) => {
                            stack.extend(rd.use_def(d, Reg::Rec(*r)));
                        }
                        _ => {}
                    }
                }
                class.mask &= m;
                saw_constructor = true;
            }
            Inst::SetField { rec, field, src } => {
                if *field < base {
                    if is_identity_copy(f, rd, d, *src, *field) {
                        class.copied.insert(*field);
                    } else {
                        class.written.insert(*field);
                    }
                }
                stack.extend(rd.use_def(d, Reg::Rec(*rec)));
            }
            Inst::SetNull { rec, field } => {
                if *field < base {
                    // Explicit projection: the attribute's value changes.
                    class.written.insert(*field);
                }
                stack.extend(rd.use_def(d, Reg::Rec(*rec)));
            }
            Inst::SetFieldDyn { rec, .. } => {
                class.dyn_write = true;
                stack.extend(rd.use_def(d, Reg::Rec(*rec)));
            }
            // Emitting input records is rejected by the verifier; any other
            // def is a no-op for classification.
            _ => {}
        }
    }
    if !saw_constructor {
        // Should not happen for verified functions; be safe.
        class.mask = 0;
    }
    // Fields both copied and written on different paths are written.
    class.copied = class.copied.difference(&class.written).copied().collect();
    class
}

/// `setField(or, n, $t)` is an **explicit copy** iff every reaching
/// definition of `$t` is `getField(ir_i, m)` where `m` sits at output
/// position `n` (identity position through the concatenated input schemas).
fn is_identity_copy(
    f: &Function,
    rd: &ReachingDefs,
    site: usize,
    src: strato_ir::VReg,
    out_field: usize,
) -> bool {
    let defs = rd.use_def(site, Reg::Val(src));
    if defs.is_empty() {
        return false;
    }
    defs.iter().all(|&d| match &f.insts()[d] {
        Inst::GetField { rec, field, .. } => match f.record_origin(rd, d, *rec) {
            Ok(Some(RecOrigin::Input(inp))) => {
                let offset: usize = f.input_widths()[..inp as usize].iter().sum();
                offset + field == out_field
            }
            _ => false,
        },
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use strato_ir::{BinOp, FuncBuilder, UnOp};

    /// f1 of Section 3: replace field 1 with |field 1|.
    fn paper_f1() -> Function {
        let mut b = FuncBuilder::new("f1", UdfKind::Map, vec![2]);
        let bv = b.get_input(0, 1);
        let or = b.copy_input(0);
        let zero = b.konst(0i64);
        let nonneg = b.bin(BinOp::Ge, bv, zero);
        let done = b.new_label();
        b.branch(nonneg, done);
        let abs = b.un(UnOp::Abs, bv);
        b.set(or, 1, abs);
        b.place(done);
        b.emit(or);
        b.ret();
        b.finish().unwrap()
    }

    /// f2 of Section 3: filter on field 0 ≥ 0.
    fn paper_f2() -> Function {
        let mut b = FuncBuilder::new("f2", UdfKind::Map, vec![2]);
        let a = b.get_input(0, 0);
        let zero = b.konst(0i64);
        let neg = b.bin(BinOp::Lt, a, zero);
        let end = b.new_label();
        b.branch(neg, end);
        let out = b.copy_input(0);
        b.emit(out);
        b.place(end);
        b.ret();
        b.finish().unwrap()
    }

    /// f3 of Section 3: field 0 := field 0 + field 1.
    fn paper_f3() -> Function {
        let mut b = FuncBuilder::new("f3", UdfKind::Map, vec![2]);
        let a = b.get_input(0, 0);
        let bb = b.get_input(0, 1);
        let sum = b.bin(BinOp::Add, a, bb);
        let or = b.copy_input(0);
        b.set(or, 0, sum);
        b.emit(or);
        b.ret();
        b.finish().unwrap()
    }

    #[test]
    fn section3_f1_properties() {
        // R_f1 = {B}, W_f1 = {B} (field 1).
        let p = analyze(&paper_f1());
        assert_eq!(p.reads, BTreeSet::from([(0, 1)]));
        assert_eq!(p.written_base, BTreeSet::from([1]));
        assert_eq!(p.control_reads, BTreeSet::from([(0, 1)]));
        assert!(p.copies_input(0));
        assert!(p.emits.exactly_one());
    }

    #[test]
    fn section3_f2_properties() {
        // R_f2 = {A}, W_f2 = ∅.
        let p = analyze(&paper_f2());
        assert_eq!(p.reads, BTreeSet::from([(0, 0)]));
        assert!(p.written_base.is_empty());
        assert_eq!(p.control_reads, BTreeSet::from([(0, 0)]));
        assert!(p.emits.at_most_one());
        assert!(!p.emits.exactly_one());
    }

    #[test]
    fn section3_f3_properties() {
        // R_f3 = {A, B}, W_f3 = {A}.
        let p = analyze(&paper_f3());
        assert_eq!(p.reads, BTreeSet::from([(0, 0), (0, 1)]));
        assert_eq!(p.written_base, BTreeSet::from([0]));
        assert!(p.control_reads.is_empty());
        assert!(p.emits.exactly_one());
    }

    #[test]
    fn unused_get_field_is_not_a_read() {
        let mut b = FuncBuilder::new("u", UdfKind::Map, vec![2]);
        let _dead = b.get_input(0, 1); // never used
        let or = b.copy_input(0);
        b.emit(or);
        b.ret();
        let p = analyze(&b.finish().unwrap());
        assert!(p.reads.is_empty());
    }

    #[test]
    fn identity_copy_via_set_field_is_preserved() {
        // new OutputRecord(); or[0] := getField(ir, 0) → field 0 copied,
        // field 1 projected (written).
        let mut b = FuncBuilder::new("c", UdfKind::Map, vec![2]);
        let v = b.get_input(0, 0);
        let or = b.new_rec();
        b.set(or, 0, v);
        b.emit(or);
        b.ret();
        let p = analyze(&b.finish().unwrap());
        assert_eq!(p.written_base, BTreeSet::from([1]));
        assert_eq!(p.copied_inputs, 0);
        assert_eq!(p.reads, BTreeSet::from([(0, 0)]));
    }

    #[test]
    fn non_identity_copy_counts_as_modification() {
        // or[1] := getField(ir, 0): moves a value — field 1 written.
        let mut b = FuncBuilder::new("m", UdfKind::Map, vec![2]);
        let v = b.get_input(0, 0);
        let or = b.copy_input(0);
        b.set(or, 1, v);
        b.emit(or);
        b.ret();
        let p = analyze(&b.finish().unwrap());
        assert_eq!(p.written_base, BTreeSet::from([1]));
    }

    #[test]
    fn explicit_projection_is_a_write() {
        let mut b = FuncBuilder::new("p", UdfKind::Map, vec![3]);
        let or = b.copy_input(0);
        b.set_null(or, 2);
        b.emit(or);
        b.ret();
        let p = analyze(&b.finish().unwrap());
        assert_eq!(p.written_base, BTreeSet::from([2]));
        assert!(p.copies_input(0));
    }

    #[test]
    fn added_field_detected() {
        let mut b = FuncBuilder::new("a", UdfKind::Map, vec![2]);
        let or = b.copy_input(0);
        let v = b.konst(1i64);
        b.set(or, 2, v);
        b.emit(or);
        b.ret();
        let p = analyze(&b.finish().unwrap());
        assert_eq!(p.added, BTreeSet::from([2]));
        assert!(p.written_base.is_empty());
    }

    #[test]
    fn both_constructors_mean_projection_conservatively() {
        // if c { or := copy(ir) } else { or := new() }; emit(or)
        // The paper: "If both constructors are used in different code paths,
        // implicit projection is the safe choice."
        let mut b = FuncBuilder::new("b", UdfKind::Map, vec![2]);
        let c = b.get_input(0, 0);
        let els = b.new_label();
        let end = b.new_label();
        let or0 = b.copy_input(0); // pre-assign for definite assignment
        b.branch_not(c, els);
        let or1 = b.copy(or0);
        b.emit(or1);
        b.jump(end);
        b.place(els);
        let or2 = b.new_rec();
        b.emit(or2);
        b.place(end);
        b.ret();
        let p = analyze(&b.finish().unwrap());
        // One emit is projection ⇒ all base fields written overall.
        assert_eq!(p.written_base, BTreeSet::from([0, 1]));
        assert_eq!(p.copied_inputs, 0);
    }

    #[test]
    fn dynamic_read_flags_input() {
        let mut b = FuncBuilder::new("d", UdfKind::Map, vec![3]);
        let i = b.get_input(0, 0);
        let rec = b.input(0);
        let v = b.get_dyn(rec, i);
        let or = b.copy_input(0);
        b.set(or, 1, v);
        b.emit(or);
        b.ret();
        let p = analyze(&b.finish().unwrap());
        assert!(p.dynamic_read_inputs.contains(&0));
        assert_eq!(p.written_base, BTreeSet::from([1]));
    }

    #[test]
    fn dynamic_write_flags_everything() {
        let mut b = FuncBuilder::new("dw", UdfKind::Map, vec![2]);
        let i = b.get_input(0, 0);
        let v = b.konst(9i64);
        let or = b.copy_input(0);
        b.set_dyn(or, i, v);
        b.emit(or);
        b.ret();
        let p = analyze(&b.finish().unwrap());
        assert!(p.dynamic_write);
    }

    #[test]
    fn pair_concat_copies_both_inputs() {
        let mut b = FuncBuilder::new("j", UdfKind::Pair, vec![2, 3]);
        let or = b.concat_inputs();
        b.emit(or);
        b.ret();
        let p = analyze(&b.finish().unwrap());
        assert_eq!(p.copied_inputs, 0b11);
        assert!(p.written_base.is_empty());
    }

    #[test]
    fn pair_copy_of_one_input_projects_the_other() {
        let mut b = FuncBuilder::new("half", UdfKind::Pair, vec![2, 3]);
        let or = b.copy_input(0);
        b.emit(or);
        b.ret();
        let p = analyze(&b.finish().unwrap());
        assert_eq!(p.copied_inputs, 0b01);
        // Input 1's fields (output positions 2..5) are dropped ⇒ written.
        assert_eq!(p.written_base, BTreeSet::from([2, 3, 4]));
    }

    #[test]
    fn kat_group_reads_resolved_through_iterators() {
        let mut b = FuncBuilder::new("sum", UdfKind::Group, vec![2]);
        let sum = b.konst(0i64);
        let it = b.iter_open(0);
        let done = b.new_label();
        let head = b.new_label();
        b.place(head);
        let r = b.iter_next(it, done);
        let v = b.get(r, 1);
        b.bin_into(sum, BinOp::Add, sum, v);
        b.jump(head);
        b.place(done);
        let it2 = b.iter_open(0);
        let nil = b.new_label();
        let first = b.iter_next(it2, nil);
        let or = b.copy(first);
        b.set(or, 2, sum);
        b.emit(or);
        b.place(nil);
        b.ret();
        let p = analyze(&b.finish().unwrap());
        assert!(p.reads.contains(&(0, 1)));
        assert_eq!(p.added, BTreeSet::from([2]));
        assert!(p.written_base.is_empty());
        assert!(p.copies_input(0));
    }

    /// `first`: copy the group's first record and emit it.
    fn first_of_group() -> FuncBuilder {
        let mut b = FuncBuilder::new("first", UdfKind::Group, vec![2]);
        let it = b.iter_open(0);
        let nil = b.new_label();
        let first = b.iter_next(it, nil);
        let or = b.copy(first);
        b.emit(or);
        b.place(nil);
        b
    }

    fn first_only(mut b: FuncBuilder) -> bool {
        b.ret();
        analyze(&b.finish().unwrap()).first_record_only
    }

    #[test]
    fn first_of_group_is_first_record_only() {
        assert!(first_only(first_of_group()));
        // A SetField after the copy reads nothing more.
        let mut b = FuncBuilder::new("first_tag", UdfKind::Group, vec![2]);
        let it = b.iter_open(0);
        let nil = b.new_label();
        let first = b.iter_next(it, nil);
        let or = b.copy(first);
        let v = b.konst(7i64);
        b.set(or, 2, v);
        b.emit(or);
        b.place(nil);
        assert!(first_only(b));
    }

    #[test]
    fn a_group_udf_without_iter_next_is_first_record_only() {
        let mut b = FuncBuilder::new("constant", UdfKind::Group, vec![2]);
        let or = b.new_rec();
        let v = b.konst(1i64);
        b.set(or, 0, v);
        b.emit(or);
        assert!(first_only(b));
    }

    #[test]
    fn a_fold_loop_is_not_first_record_only() {
        let mut b = FuncBuilder::new("sum", UdfKind::Group, vec![2]);
        let acc = b.konst(0i64);
        let it = b.iter_open(0);
        let done = b.new_label();
        let head = b.new_label();
        b.place(head);
        let r = b.iter_next(it, done);
        let v = b.get(r, 1);
        b.bin_into(acc, BinOp::Add, acc, v);
        b.jump(head);
        b.place(done);
        let or = b.new_rec();
        b.set(or, 0, acc);
        b.emit(or);
        assert!(!first_only(b));
    }

    #[test]
    fn two_iter_nexts_in_sequence_are_not_first_record_only() {
        // The second `IterNext` on the same iterator reads record 1.
        let mut b = FuncBuilder::new("second", UdfKind::Group, vec![2]);
        let it = b.iter_open(0);
        let nil = b.new_label();
        let _first = b.iter_next(it, nil);
        let second = b.iter_next(it, nil);
        let or = b.copy(second);
        b.emit(or);
        b.place(nil);
        assert!(!first_only(b));
    }

    #[test]
    fn group_count_is_not_first_record_only() {
        let mut b = first_of_group();
        let n = b.group_count(0);
        let or = b.new_rec();
        b.set(or, 0, n);
        b.emit(or);
        assert!(!first_only(b));
    }

    #[test]
    fn a_loop_that_exits_after_one_record_is_conservatively_rejected() {
        // Semantically first-record-only — the loop breaks after its first
        // record — but its `IterNext` lies on a CFG cycle.
        let mut b = FuncBuilder::new("loop_once", UdfKind::Group, vec![2]);
        let it = b.iter_open(0);
        let done = b.new_label();
        let head = b.new_label();
        b.place(head);
        let r = b.iter_next(it, done);
        let or = b.copy(r);
        b.emit(or);
        let yes = b.konst(true);
        b.branch(yes, done);
        b.jump(head);
        b.place(done);
        assert!(!first_only(b));
    }

    #[test]
    fn only_group_udfs_are_first_record_only() {
        // A record-at-a-time UDF has no group to read the first record of.
        assert!(!analyze(&paper_f3()).first_record_only);
    }

    #[test]
    fn conditional_set_field_is_still_a_write() {
        // f1-style conditional modification must land in the write set even
        // though some path leaves the field untouched.
        let p = analyze(&paper_f1());
        assert!(p.written_base.contains(&1));
    }
}
