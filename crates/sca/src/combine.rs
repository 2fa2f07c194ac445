//! Combinability analysis: proving a Reduce UDF **decomposable**.
//!
//! The classic optimization a black-box optimizer must forgo — and opening
//! the box unlocks — is the *combiner*: partial aggregation before the
//! repartitioning ship of a grouped aggregate, legal only when the reduce
//! UDF `f` satisfies `f(S) = f(f(S₁) ⊎ f(S₂))` for every split of the
//! group `S`. This module derives that property by static pattern proof
//! over the three-address code, the same way the rest of `strato-sca`
//! derives read/write sets: conservatively, rejecting anything it cannot
//! prove.
//!
//! ## The accepted shape
//!
//! A UDF is classified combinable iff its *entire* reachable body is an
//! **in-place algebraic fold**:
//!
//! 1. accumulator initializations (`$acc := const`),
//! 2. one or more canonical fold loops — `head: $r := next($it) else goto
//!    after; $t := getField($r, F); $acc := $acc ⊕ $t; goto head` — whose
//!    operator ⊕ is associative and commutative over the dynamic value
//!    domain ([`BinOp::is_assoc_comm`]),
//! 3. a tail that copies one group record and overwrites each folded field
//!    **at the position it was read from** (`or := copy(first);
//!    setField(or, F, $acc); emit(or)`),
//! 4. a final `return` — nothing else.
//!
//! Why this implies decomposability: the emitted record's fields are
//! either *folded* (field `F` holds `init ⊕ fold of every group member's
//! F`) or *passed through* from an arbitrary group record. Re-running `f`
//! over partial results re-folds the partial folds — associativity and
//! commutativity make `init ⊕ (p₁ ⊕ … ⊕ pₖ)` equal the undivided fold
//! (the constant init participates exactly once, in the final invocation,
//! because partials are produced by the *pure* record-value fold) — while
//! pass-through fields are only deterministic when every group member
//! agrees on them. The analysis therefore reports the pass-through set and
//! leaves the final legality test to the binding layer: a combiner is
//! legal only where every pass-through attribute is a grouping key (and
//! every attribute the operator's input can carry is a key or a fold —
//! see `Plan::combinable_reduce` in `strato-dataflow`).
//!
//! Emitting exactly one record per (non-empty) group is enforced by the
//! shape itself plus the emit-bound analysis (`max = 1` rules out emits on
//! cycles; the only emit-skipping path is the empty-group guard, and
//! groups are never empty).
//!
//! Like every analysis in this crate, the proof is *exact* only over the
//! exactly-associative value domain (integers wrap, `Min`/`Max` use the
//! total order, `Null` is absorbing); float folds re-associate with IEEE
//! rounding, the standard combiner caveat.

use crate::emits::emit_bounds;
use std::collections::{BTreeMap, BTreeSet};
use strato_ir::{BinOp, Cfg, Function, Inst, Reg, UdfKind, VReg};

/// The combiner-relevant structure of a decomposable reduce UDF, in local
/// field indices. Produced by [`combinable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombineSummary {
    /// Folded fields: local input field → the associative-commutative
    /// operator folded over it (the result lands in the same field).
    pub folds: BTreeMap<usize, BinOp>,
    /// Base fields *not* folded: copied verbatim from one group record.
    /// A combiner is only legal when every pass-through field is a
    /// grouping key (checked at binding, where keys are known).
    pub passthrough: BTreeSet<usize>,
}

/// One proven fold accumulator.
struct Fold {
    acc: VReg,
    op: BinOp,
    field: usize,
    /// Instruction index of the accumulator update (`$acc := $acc ⊕ $t`).
    update: usize,
}

/// Proves a Group UDF is an in-place algebraic fold (see module docs), or
/// returns `None` when any part of the body falls outside the accepted
/// shape. Conservative: `Some` is a proof, `None` is merely "unproven".
pub fn combinable(f: &Function) -> Option<CombineSummary> {
    if f.kind() != UdfKind::Group || f.added_fields() != 0 {
        return None;
    }
    let insts = f.insts();
    let cfg = Cfg::build(f);
    // No emit may sit on a control-flow cycle.
    if emit_bounds(f, &cfg).max != Some(1) {
        return None;
    }
    // Every reachable instruction must be claimed by one of the matched
    // constructs; unreachable code is ignored.
    let mut matched: Vec<bool> = (0..insts.len()).map(|i| !cfg.reachable(i)).collect();

    // ---- Tail: IterOpen, IterNext, CopyRecord, SetField*, Emit. ----
    let mut emit_sites = insts
        .iter()
        .enumerate()
        .filter(|&(i, inst)| cfg.reachable(i) && matches!(inst, Inst::Emit { .. }));
    let e = match (emit_sites.next(), emit_sites.next()) {
        (Some((e, _)), None) => e,
        _ => return None,
    };
    let Inst::Emit { rec: out_reg } = insts[e] else {
        unreachable!("filtered on Emit");
    };
    // Walk back over the straight-line SetFields to the copy constructor.
    let mut sets: Vec<(usize, VReg)> = Vec::new();
    let mut i = e;
    let copy_site = loop {
        if i == 0 {
            return None;
        }
        i -= 1;
        match &insts[i] {
            Inst::SetField { rec, field, src } if *rec == out_reg => sets.push((*field, *src)),
            Inst::CopyRecord { dst, .. } if *dst == out_reg => break i,
            _ => return None,
        }
    };
    let Inst::CopyRecord { src: first_reg, .. } = insts[copy_site] else {
        unreachable!("loop breaks on CopyRecord");
    };
    if copy_site < 2 {
        return None;
    }
    // The copied record must be fetched from input 0 right here, with the
    // empty-group guard jumping just past the emit.
    let Inst::IterNext {
        dst,
        iter,
        exhausted,
    } = insts[copy_site - 1]
    else {
        return None;
    };
    if dst != first_reg || exhausted.0 as usize != e + 1 {
        return None;
    }
    match insts[copy_site - 2] {
        Inst::IterOpen { dst, input: 0 } if dst == iter => {}
        _ => return None,
    }
    for m in &mut matched[copy_site - 2..=e] {
        *m = true;
    }

    // ---- Fold loops: head: next / getField / acc updates / jump head. ----
    let mut fold_list: Vec<Fold> = Vec::new();
    for h in 0..insts.len() {
        if matched[h] {
            continue;
        }
        let Inst::IterNext {
            dst: r,
            iter,
            exhausted,
        } = insts[h]
        else {
            continue;
        };
        if h == 0 {
            return None;
        }
        match insts[h - 1] {
            Inst::IterOpen { dst, input: 0 } if dst == iter => {}
            _ => return None,
        }
        // Loop body: only reads of the current record and accumulator
        // updates, closed by the back-jump. Any branch, call, count or
        // other effect in the body defeats the proof.
        let mut fields: BTreeMap<VReg, usize> = BTreeMap::new();
        let mut j = h + 1;
        let jump_site = loop {
            if j >= insts.len() {
                return None;
            }
            match &insts[j] {
                Inst::GetField { dst, rec, field } if *rec == r => {
                    if fields.insert(*dst, *field).is_some() {
                        return None;
                    }
                }
                Inst::Bin { dst, op, a, b } => {
                    if !op.is_assoc_comm() {
                        return None;
                    }
                    let operand = match (a == dst, b == dst) {
                        (true, false) => b,
                        (false, true) => a,
                        _ => return None,
                    };
                    let &field = fields.get(operand)?;
                    if fields.contains_key(dst) {
                        return None;
                    }
                    fold_list.push(Fold {
                        acc: *dst,
                        op: *op,
                        field,
                        update: j,
                    });
                }
                Inst::Jump { target } if target.0 as usize == h => break j,
                _ => return None,
            }
            j += 1;
        };
        if exhausted.0 as usize != jump_site + 1 {
            return None;
        }
        for m in &mut matched[h - 1..=jump_site] {
            *m = true;
        }
    }

    // ---- Accumulator discipline: each acc is defined exactly by one
    // constant init plus its single in-loop update (this also rejects any
    // register aliasing that would defeat the straight-line reasoning). ----
    for fold in &fold_list {
        let mut init: Option<usize> = None;
        for (i, inst) in insts.iter().enumerate() {
            if !cfg.reachable(i) || i == fold.update {
                continue;
            }
            if !inst.defs().contains(&Reg::Val(fold.acc)) {
                continue;
            }
            match inst {
                Inst::Const { .. } if init.is_none() && !matched[i] => init = Some(i),
                _ => return None,
            }
        }
        matched[init?] = true;
    }

    // ---- Output mapping: each SetField stores one fold's accumulator
    // back into the very field it was folded from; every fold is used. ----
    let base = f.base_output_width();
    let mut folds: BTreeMap<usize, BinOp> = BTreeMap::new();
    let mut used_accs: BTreeSet<VReg> = BTreeSet::new();
    for (field, src) in sets {
        if field >= base {
            return None;
        }
        let fold = fold_list.iter().find(|fo| fo.acc == src)?;
        if fold.field != field || folds.insert(field, fold.op).is_some() {
            return None;
        }
        used_accs.insert(src);
    }
    if used_accs.len() != fold_list.len() {
        return None;
    }

    // ---- Whole-body whitelist: whatever remains must be `return`. ----
    for (i, inst) in insts.iter().enumerate() {
        if !matched[i] && !matches!(inst, Inst::Return) {
            return None;
        }
    }

    let passthrough = (0..base).filter(|fl| !folds.contains_key(fl)).collect();
    Some(CombineSummary { folds, passthrough })
}

#[cfg(test)]
mod tests {
    use super::*;
    use strato_ir::interp::{Interp, Invocation, Layout};
    use strato_ir::FuncBuilder;
    use strato_record::{Record, RowRef, Value};

    /// The canonical in-place aggregate: fold `op` over `field`, write the
    /// result back into `field`, pass the rest through.
    fn fold_inplace(w: usize, field: usize, op: BinOp, init: i64) -> Function {
        let mut b = FuncBuilder::new("fold", UdfKind::Group, vec![w]);
        let acc = b.konst(init);
        let it = b.iter_open(0);
        let done = b.new_label();
        let head = b.new_label();
        b.place(head);
        let r = b.iter_next(it, done);
        let v = b.get(r, field);
        b.bin_into(acc, op, acc, v);
        b.jump(head);
        b.place(done);
        let it2 = b.iter_open(0);
        let nil = b.new_label();
        let first = b.iter_next(it2, nil);
        let or = b.copy(first);
        b.set(or, field, acc);
        b.emit(or);
        b.place(nil);
        b.ret();
        b.finish().unwrap()
    }

    /// Append-style sum (`sum_group` of the workloads): result goes to a
    /// NEW field, so re-running the UDF over partials would re-read the
    /// untouched input field — not self-decomposable.
    fn sum_appended(w: usize, field: usize) -> Function {
        let mut b = FuncBuilder::new("sum", UdfKind::Group, vec![w]);
        let acc = b.konst(0i64);
        let it = b.iter_open(0);
        let done = b.new_label();
        let head = b.new_label();
        b.place(head);
        let r = b.iter_next(it, done);
        let v = b.get(r, field);
        b.bin_into(acc, BinOp::Add, acc, v);
        b.jump(head);
        b.place(done);
        let it2 = b.iter_open(0);
        let nil = b.new_label();
        let first = b.iter_next(it2, nil);
        let or = b.copy(first);
        b.set(or, w, acc);
        b.emit(or);
        b.place(nil);
        b.ret();
        b.finish().unwrap()
    }

    #[test]
    fn in_place_sum_is_combinable() {
        let cs = combinable(&fold_inplace(2, 1, BinOp::Add, 0)).expect("combinable");
        assert_eq!(cs.folds, BTreeMap::from([(1, BinOp::Add)]));
        assert_eq!(cs.passthrough, BTreeSet::from([0]));
    }

    #[test]
    fn all_assoc_comm_ops_accepted() {
        for op in [BinOp::Add, BinOp::Mul, BinOp::Min, BinOp::Max] {
            assert!(combinable(&fold_inplace(2, 1, op, 7)).is_some(), "{op:?}");
        }
    }

    #[test]
    fn non_associative_fold_rejected() {
        for op in [BinOp::Sub, BinOp::Div] {
            assert!(combinable(&fold_inplace(2, 1, op, 0)).is_none(), "{op:?}");
        }
    }

    #[test]
    fn appended_aggregate_rejected() {
        assert!(combinable(&sum_appended(2, 1)).is_none());
    }

    #[test]
    fn multi_field_fold_in_one_loop() {
        // min(f1) and sum(f2) folded in a single pass.
        let mut b = FuncBuilder::new("mm", UdfKind::Group, vec![3]);
        let lo = b.konst(i64::MAX);
        let sum = b.konst(0i64);
        let it = b.iter_open(0);
        let done = b.new_label();
        let head = b.new_label();
        b.place(head);
        let r = b.iter_next(it, done);
        let v1 = b.get(r, 1);
        b.bin_into(lo, BinOp::Min, lo, v1);
        let v2 = b.get(r, 2);
        b.bin_into(sum, BinOp::Add, sum, v2);
        b.jump(head);
        b.place(done);
        let it2 = b.iter_open(0);
        let nil = b.new_label();
        let first = b.iter_next(it2, nil);
        let or = b.copy(first);
        b.set(or, 1, lo);
        b.set(or, 2, sum);
        b.emit(or);
        b.place(nil);
        b.ret();
        let cs = combinable(&b.finish().unwrap()).expect("combinable");
        assert_eq!(cs.folds, BTreeMap::from([(1, BinOp::Min), (2, BinOp::Add)]));
        assert_eq!(cs.passthrough, BTreeSet::from([0]));
    }

    #[test]
    fn fold_written_to_wrong_field_rejected() {
        // Reads field 1 but stores the sum into field 0: re-application
        // would fold the wrong column.
        let mut b = FuncBuilder::new("x", UdfKind::Group, vec![2]);
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
        let it2 = b.iter_open(0);
        let nil = b.new_label();
        let first = b.iter_next(it2, nil);
        let or = b.copy(first);
        b.set(or, 0, acc);
        b.emit(or);
        b.place(nil);
        b.ret();
        assert!(combinable(&b.finish().unwrap()).is_none());
    }

    #[test]
    fn conditional_fold_rejected() {
        // A guard inside the loop body (sum of positives) falls outside
        // the proven shape.
        let mut b = FuncBuilder::new("c", UdfKind::Group, vec![2]);
        let acc = b.konst(0i64);
        let it = b.iter_open(0);
        let done = b.new_label();
        let head = b.new_label();
        b.place(head);
        let r = b.iter_next(it, done);
        let v = b.get(r, 1);
        let z = b.konst(0i64);
        let neg = b.bin(BinOp::Lt, v, z);
        b.branch(neg, head);
        b.bin_into(acc, BinOp::Add, acc, v);
        b.jump(head);
        b.place(done);
        let it2 = b.iter_open(0);
        let nil = b.new_label();
        let first = b.iter_next(it2, nil);
        let or = b.copy(first);
        b.set(or, 1, acc);
        b.emit(or);
        b.place(nil);
        b.ret();
        assert!(combinable(&b.finish().unwrap()).is_none());
    }

    #[test]
    fn group_count_and_emit_all_shapes_rejected() {
        // count(*): group size is not recoverable from partials.
        let mut b = FuncBuilder::new("n", UdfKind::Group, vec![2]);
        let n = b.group_count(0);
        let it = b.iter_open(0);
        let nil = b.new_label();
        let first = b.iter_next(it, nil);
        let or = b.copy(first);
        b.set(or, 1, n);
        b.emit(or);
        b.place(nil);
        b.ret();
        assert!(combinable(&b.finish().unwrap()).is_none());

        // emit-per-record (group filter flavour): more than one emit per
        // invocation.
        let mut b = FuncBuilder::new("all", UdfKind::Group, vec![1]);
        let it = b.iter_open(0);
        let done = b.new_label();
        let head = b.new_label();
        b.place(head);
        let r = b.iter_next(it, done);
        let or = b.copy(r);
        b.emit(or);
        b.jump(head);
        b.place(done);
        b.ret();
        assert!(combinable(&b.finish().unwrap()).is_none());
    }

    #[test]
    fn pure_first_of_group_has_no_folds() {
        // Distinct-style reduce: copy one record, no folds. Combinable
        // structurally; legality then demands every field be a key.
        let mut b = FuncBuilder::new("first", UdfKind::Group, vec![2]);
        let it = b.iter_open(0);
        let nil = b.new_label();
        let first = b.iter_next(it, nil);
        let or = b.copy(first);
        b.emit(or);
        b.place(nil);
        b.ret();
        let cs = combinable(&b.finish().unwrap()).expect("structurally combinable");
        assert!(cs.folds.is_empty());
        assert_eq!(cs.passthrough, BTreeSet::from([0, 1]));
    }

    #[test]
    fn decomposability_holds_semantically() {
        // f(S) == f(f(S1) ⊎ f(S2)) on concrete groups, for each op — the
        // property the static proof claims.
        for (op, init) in [
            (BinOp::Add, 0i64),
            (BinOp::Mul, 1),
            (BinOp::Min, i64::MAX),
            (BinOp::Max, i64::MIN),
            // Any constant init is sound: the pure fold of partials
            // applies it exactly once, in the final invocation.
            (BinOp::Add, 41),
            (BinOp::Min, 5),
        ] {
            let f = fold_inplace(2, 1, op, init);
            assert!(combinable(&f).is_some());
            let layout = Layout::local(&f);
            let interp = Interp::default();
            let rec = |k: i64, v: i64| Record::from_values([Value::Int(k), Value::Int(v)]);
            let group = vec![rec(3, 9), rec(3, -4), rec(3, 7), rec(3, 2)];
            let run = |g: &[Record]| -> Vec<Record> {
                let views: Vec<RowRef<'_>> = g.iter().map(RowRef::from).collect();
                let mut out = Vec::new();
                interp
                    .run(&f, Invocation::Group(&views), &layout, &mut out)
                    .unwrap();
                out
            };
            let whole = run(&group);
            // The combiner folds record values directly — *without* the
            // UDF's init, which is why any constant init is sound: it
            // participates exactly once, in the final invocation. Model
            // that pure fold and feed the partials back through the UDF.
            let pure_fold = |g: &[Record]| -> Record {
                let mut p = g[0].clone();
                for r in &g[1..] {
                    let v = strato_ir::interp::eval_bin(op, p.field(1), r.field(1));
                    p.set_field(1, v);
                }
                p
            };
            let partials = vec![pure_fold(&group[..1]), pure_fold(&group[1..])];
            let recombined = run(&partials);
            assert_eq!(whole, recombined, "{op:?} init {init}");
        }
    }
}
