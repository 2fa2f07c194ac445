//! The IR interpreter.
//!
//! UDFs remain black boxes end to end: the engine *runs* the same
//! three-address code the optimizer *analyzes*. The interpreter executes one
//! UDF invocation (one record, pair, group or group pair) against tuples in
//! **global record layout**, translating every local field index through the
//! operator's redirection maps (α, Definition 1 of the paper). That
//! translation is what lets arbitrarily reordered plans run unchanged UDF
//! code.
//!
//! A call pays for the instructions it executes and little more:
//!
//! * its registers live in a [`Frame`] that the caller keeps across
//!   calls — one per operator instance in the engine — so a call
//!   allocates only the records its UDF constructs and the strings its
//!   instructions compute;
//! * operands are borrowed from their registers, and record slots are
//!   read in place: a field read clones the field, never the record, and
//!   a concatenation fills its result straight from the other side's row
//!   view;
//! * an `Emit` directly followed by a `Return` moves its record out of
//!   the frame; any other `Emit` clones, since the slot may be read or
//!   emitted again.
//!
//! Semantics are *total*: arithmetic on mismatched types yields
//! [`Value::Null`], division by zero yields null, and runaway loops are cut
//! off by a configurable step limit so adversarial IR (e.g. from property
//! tests) cannot hang the engine.

use crate::func::{Function, UdfKind};
use crate::inst::{BinOp, Inst, UnOp};
use strato_record::{Record, Redirection, RowRef, Value};

/// One key group's rows, as views.
pub type RowGroup<'a> = &'a [RowRef<'a>];

/// One UDF invocation's input(s): every input row is a view, so a record
/// materializes only when the UDF copies one.
#[derive(Debug, Clone, Copy)]
pub enum Invocation<'a> {
    /// Map: one row, of either batch layout (`RowRef::from(&record)` for
    /// an owned record). Field reads go straight to the row's storage.
    Row(RowRef<'a>),
    /// Cross/Match: a pair of rows.
    Pair(RowRef<'a>, RowRef<'a>),
    /// Reduce: one key group.
    Group(RowGroup<'a>),
    /// CoGroup: two key groups.
    CoGroup(RowGroup<'a>, RowGroup<'a>),
}

impl<'a> Invocation<'a> {
    /// A view of record `idx` of input `input`, if present — the one
    /// path every field read and copy goes through.
    fn input(&self, input: u8, idx: usize) -> Option<RowRef<'a>> {
        match (*self, input) {
            (Invocation::Row(r), 0) if idx == 0 => Some(r),
            (Invocation::Pair(a, _), 0) if idx == 0 => Some(a),
            (Invocation::Pair(_, b), 1) if idx == 0 => Some(b),
            (Invocation::Group(g), 0) => g.get(idx).copied(),
            (Invocation::CoGroup(g, _), 0) => g.get(idx).copied(),
            (Invocation::CoGroup(_, h), 1) => h.get(idx).copied(),
            _ => None,
        }
    }

    fn group_len(&self, input: u8) -> usize {
        match (self, input) {
            (Invocation::Row(_), 0) => 1,
            (Invocation::Pair(..), 0 | 1) => 1,
            (Invocation::Group(g), 0) => g.len(),
            (Invocation::CoGroup(g, _), 0) => g.len(),
            (Invocation::CoGroup(_, h), 1) => h.len(),
            _ => 0,
        }
    }

    /// Whether the invocation shape matches the UDF kind.
    fn matches(&self, kind: UdfKind) -> bool {
        matches!(
            (self, kind),
            (Invocation::Row(_), UdfKind::Map)
                | (Invocation::Pair(..), UdfKind::Pair)
                | (Invocation::Group(_), UdfKind::Group)
                | (Invocation::CoGroup(..), UdfKind::CoGroup)
        )
    }
}

/// Runtime binding of a UDF's local field indices to global attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// Per input: local field index → global attribute (α of the input
    /// data set).
    pub inputs: Vec<Redirection>,
    /// Local output field index → global attribute (α of the output data
    /// set). Covers the concatenated input schemas plus added fields.
    pub output: Redirection,
    /// Global tuple width, `|A|`.
    pub width: usize,
}

impl Layout {
    /// A "local" identity layout: global attributes coincide with local
    /// indices (input 1, if any, follows input 0). Lets unit tests run UDFs
    /// directly on plain records without binding a data flow.
    pub fn local(f: &Function) -> Layout {
        use strato_record::AttrId;
        let mut next = 0u32;
        let mut inputs = Vec::new();
        for &w in f.input_widths() {
            let map: Vec<AttrId> = (0..w as u32).map(|i| AttrId(next + i)).collect();
            next += w as u32;
            inputs.push(Redirection::new(map));
        }
        let out_w = f.output_width() as u32;
        let output = Redirection::new((0..out_w).map(AttrId).collect());
        Layout {
            inputs,
            output,
            width: out_w as usize,
        }
    }
}

/// Interpreter errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// The invocation shape does not match the UDF kind.
    ShapeMismatch,
    /// The step budget was exhausted (runaway loop).
    StepLimit(u64),
    /// A local field index had no redirection entry — a binding bug.
    UnmappedField(usize),
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::ShapeMismatch => write!(f, "invocation shape does not match UDF kind"),
            InterpError::StepLimit(n) => write!(f, "step limit of {n} exhausted"),
            InterpError::UnmappedField(n) => write!(f, "local field {n} has no redirection"),
        }
    }
}

impl std::error::Error for InterpError {}

/// Execution statistics for one invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Instructions executed.
    pub steps: u64,
    /// Records emitted.
    pub emits: u64,
}

/// Value of a record register at runtime.
#[derive(Debug, Clone, Default)]
enum RecSlot {
    #[default]
    Unset,
    /// A (read-only) reference to input record `idx` of input `input`.
    Input { input: u8, idx: usize },
    /// An owned, constructed output record in global layout.
    Built(Record),
}

/// What an unwritten value register reads as.
static NULL: Value = Value::Null;
/// What an unwritten record register reads as.
static UNSET: RecSlot = RecSlot::Unset;

/// The registers of one UDF invocation: value registers, record slots,
/// group iterators and the argument buffer of intrinsic calls.
///
/// An operator instance owns one frame and lends it to every call of its
/// UDF ([`Interp::run_in`]): once the frame has grown to the UDF's
/// register counts, a call allocates nothing for its registers. Every
/// call starts from empty registers — whatever an earlier call left
/// behind, even one that panicked — and drops the values it produced
/// before it returns, so no string or record outlives its call.
#[derive(Debug, Default)]
pub struct Frame {
    vals: Vec<Value>,
    recs: Vec<RecSlot>,
    iters: Vec<(u8, usize)>,
    argv: Vec<Value>,
}

impl Frame {
    /// Empties every register, keeping the allocations.
    fn clear(&mut self) {
        self.vals.clear();
        self.recs.clear();
        self.iters.clear();
        self.argv.clear();
    }
}

/// The IR interpreter: a step budget and nothing else. All per-call state
/// lives in the [`Frame`] a call runs in, so one `Interp` serves any
/// number of operators and threads.
#[derive(Debug, Clone, Copy)]
pub struct Interp {
    /// Maximum instructions per invocation.
    pub max_steps: u64,
}

impl Default for Interp {
    fn default() -> Self {
        Interp {
            max_steps: 10_000_000,
        }
    }
}

impl Interp {
    /// Creates an interpreter with a custom step budget.
    pub fn with_max_steps(max_steps: u64) -> Self {
        Interp { max_steps }
    }

    /// Runs one invocation in a fresh [`Frame`] — for one-off callers;
    /// operators reuse theirs through [`Interp::run_in`].
    pub fn run(
        &self,
        f: &Function,
        inv: Invocation<'_>,
        layout: &Layout,
        out: &mut Vec<Record>,
    ) -> Result<RunStats, InterpError> {
        self.run_in(&mut Frame::default(), f, inv, layout, out)
    }

    /// Runs one invocation in `frame`, appending emitted records
    /// (global-layout tuples) to `out`. Outputs and [`RunStats`] are
    /// those of a fresh frame, whatever `frame` ran before.
    pub fn run_in(
        &self,
        frame: &mut Frame,
        f: &Function,
        inv: Invocation<'_>,
        layout: &Layout,
        out: &mut Vec<Record>,
    ) -> Result<RunStats, InterpError> {
        if !inv.matches(f.kind()) {
            return Err(InterpError::ShapeMismatch);
        }
        frame.clear();
        let result = self.exec(frame, f, inv, layout, out);
        frame.clear();
        result
    }

    /// The execution loop.
    fn exec(
        &self,
        frame: &mut Frame,
        f: &Function,
        inv: Invocation<'_>,
        layout: &Layout,
        out: &mut Vec<Record>,
    ) -> Result<RunStats, InterpError> {
        let Frame {
            vals,
            recs,
            iters,
            argv,
        } = frame;
        let insts = f.insts();
        let mut pc = 0usize;
        let mut stats = RunStats::default();

        macro_rules! val {
            ($r:expr) => {
                vals.get($r.0 as usize).unwrap_or(&NULL)
            };
        }
        macro_rules! rec {
            ($r:expr) => {
                recs.get($r.0 as usize).unwrap_or(&UNSET)
            };
        }
        macro_rules! set_val {
            ($r:expr, $v:expr) => {{
                let i = $r.0 as usize;
                if i >= vals.len() {
                    vals.resize(i + 1, Value::Null);
                }
                vals[i] = $v;
            }};
        }
        macro_rules! set_rec {
            ($r:expr, $v:expr) => {{
                let i = $r.0 as usize;
                if i >= recs.len() {
                    recs.resize_with(i + 1, RecSlot::default);
                }
                recs[i] = $v;
            }};
        }

        while pc < insts.len() {
            stats.steps += 1;
            if stats.steps > self.max_steps {
                return Err(InterpError::StepLimit(self.max_steps));
            }
            match &insts[pc] {
                Inst::Const { dst, value } => set_val!(dst, value.clone()),
                Inst::Move { dst, src } => {
                    let v = val!(src).clone();
                    set_val!(dst, v);
                }
                Inst::Bin { dst, op, a, b } => {
                    let v = eval_bin(*op, val!(a), val!(b));
                    set_val!(dst, v);
                }
                Inst::Un { dst, op, a } => {
                    let v = eval_un(*op, val!(a));
                    set_val!(dst, v);
                }
                Inst::Call { dst, f: func, args } => {
                    argv.extend(args.iter().map(|a| val!(a).clone()));
                    let v = func.eval(argv);
                    argv.clear();
                    set_val!(dst, v);
                }
                Inst::LoadInput { dst, input } => {
                    set_rec!(
                        dst,
                        RecSlot::Input {
                            input: *input,
                            idx: 0
                        }
                    );
                }
                Inst::GetField { dst, rec, field } => {
                    let v = self.read_field(rec!(rec), *field, inv, layout)?;
                    set_val!(dst, v);
                }
                Inst::GetFieldDyn { dst, rec, idx } => {
                    let v = match val!(idx).as_int() {
                        // Out-of-schema dynamic reads yield null (total).
                        Some(n) if n >= 0 => self
                            .read_field(rec!(rec), n as usize, inv, layout)
                            .unwrap_or(Value::Null),
                        _ => Value::Null,
                    };
                    set_val!(dst, v);
                }
                Inst::SetFieldDyn { rec, idx, src } => {
                    if let Some(n) = val!(idx).as_int() {
                        if n >= 0 {
                            if let Some(attr) = layout.output.get(n as usize) {
                                if let Some(RecSlot::Built(r)) = recs.get_mut(rec.0 as usize) {
                                    r.set_field(attr.index(), val!(src).clone());
                                }
                            }
                        }
                    }
                }
                Inst::SetField { rec, field, src } => {
                    let attr = layout
                        .output
                        .get(*field)
                        .ok_or(InterpError::UnmappedField(*field))?;
                    if let Some(RecSlot::Built(r)) = recs.get_mut(rec.0 as usize) {
                        r.set_field(attr.index(), val!(src).clone());
                    }
                }
                Inst::SetNull { rec, field } => {
                    let attr = layout
                        .output
                        .get(*field)
                        .ok_or(InterpError::UnmappedField(*field))?;
                    if let Some(RecSlot::Built(r)) = recs.get_mut(rec.0 as usize) {
                        r.set_field(attr.index(), Value::Null);
                    }
                }
                Inst::NewRecord { dst } => {
                    set_rec!(dst, RecSlot::Built(Record::nulls(layout.width)));
                }
                Inst::CopyRecord { dst, src } => {
                    let r = self.materialize(rec!(src), inv, layout);
                    set_rec!(dst, RecSlot::Built(r));
                }
                Inst::ConcatRecords { dst, a, b } => {
                    let mut r = self.materialize(rec!(a), inv, layout);
                    self.merge_slot(&mut r, rec!(b), inv, layout);
                    set_rec!(dst, RecSlot::Built(r));
                }
                Inst::Emit { rec } => {
                    // `Emit` never jumps, so when a `Return` follows it is
                    // the next instruction run and nothing reads the slot
                    // again: the record moves out instead of being cloned.
                    let last = matches!(insts.get(pc + 1), Some(Inst::Return));
                    match recs.get_mut(rec.0 as usize) {
                        Some(slot @ RecSlot::Built(_)) if last => {
                            if let RecSlot::Built(r) = std::mem::take(slot) {
                                out.push(r);
                            }
                            stats.emits += 1;
                        }
                        Some(RecSlot::Built(r)) => {
                            out.push(r.clone());
                            stats.emits += 1;
                        }
                        _ => {}
                    }
                }
                Inst::Branch { cond, target } => {
                    if val!(cond).truthy() {
                        pc = target.0 as usize;
                        continue;
                    }
                }
                Inst::Jump { target } => {
                    pc = target.0 as usize;
                    continue;
                }
                Inst::Return => break,
                Inst::IterOpen { dst, input } => {
                    let i = dst.0 as usize;
                    if i >= iters.len() {
                        iters.resize(i + 1, (0, 0));
                    }
                    iters[i] = (*input, 0);
                }
                Inst::IterNext {
                    dst,
                    iter,
                    exhausted,
                } => {
                    let (input, pos) = iters[iter.0 as usize];
                    if pos < inv.group_len(input) {
                        iters[iter.0 as usize].1 += 1;
                        set_rec!(dst, RecSlot::Input { input, idx: pos });
                    } else {
                        pc = exhausted.0 as usize;
                        continue;
                    }
                }
                Inst::GroupCount { dst, input } => {
                    set_val!(dst, Value::Int(inv.group_len(*input) as i64));
                }
            }
            pc += 1;
        }
        Ok(stats)
    }

    /// Reads local `field` of a record slot, translating through α.
    fn read_field(
        &self,
        slot: &RecSlot,
        field: usize,
        inv: Invocation<'_>,
        layout: &Layout,
    ) -> Result<Value, InterpError> {
        match slot {
            RecSlot::Unset => Ok(Value::Null),
            RecSlot::Input { input, idx } => {
                let attr = layout
                    .inputs
                    .get(*input as usize)
                    .and_then(|r| r.get(field))
                    .ok_or(InterpError::UnmappedField(field))?;
                Ok(inv
                    .input(*input, *idx)
                    .map_or(Value::Null, |r| r.value(attr.index())))
            }
            RecSlot::Built(r) => {
                let attr = layout
                    .output
                    .get(field)
                    .ok_or(InterpError::UnmappedField(field))?;
                Ok(r.field(attr.index()).clone())
            }
        }
    }

    /// Materializes a slot as an owned global-layout tuple.
    fn materialize(&self, slot: &RecSlot, inv: Invocation<'_>, layout: &Layout) -> Record {
        match slot {
            RecSlot::Unset => Record::nulls(layout.width),
            RecSlot::Input { input, idx } => {
                let mut r = inv
                    .input(*input, *idx)
                    .map_or_else(|| Record::nulls(layout.width), |v| v.to_record());
                // Pad with nulls to global width if the source tuple is
                // narrower (only happens in local-layout unit tests).
                if r.arity() < layout.width {
                    r.set_field(layout.width - 1, Value::Null);
                }
                r
            }
            RecSlot::Built(r) => r.clone(),
        }
    }

    /// `r.merge_absent(&materialize(slot))` without materializing the slot:
    /// fills `r`'s null fields from the slot's non-null ones, read in place.
    fn merge_slot(&self, r: &mut Record, slot: &RecSlot, inv: Invocation<'_>, layout: &Layout) {
        let row = match slot {
            RecSlot::Built(b) => return r.merge_absent(b),
            RecSlot::Input { input, idx } => inv.input(*input, *idx),
            RecSlot::Unset => None,
        };
        // The materialized slot is at least `layout.width` wide.
        let width = row.map_or(0, |v| v.arity()).max(layout.width);
        if r.arity() < width {
            r.set_field(width - 1, Value::Null);
        }
        if let Some(row) = row {
            for i in 0..row.arity() {
                if r.field(i).is_null() {
                    let v = row.value(i);
                    if !v.is_null() {
                        r.set_field(i, v);
                    }
                }
            }
        }
    }
}

/// Evaluates a binary operator with total, null-propagating semantics.
pub fn eval_bin(op: BinOp, a: &Value, b: &Value) -> Value {
    use BinOp::*;
    match op {
        Eq => return Value::Bool(a == b),
        Ne => return Value::Bool(a != b),
        And => return Value::Bool(a.truthy() && b.truthy()),
        Or => return Value::Bool(a.truthy() || b.truthy()),
        _ => {}
    }
    if a.is_null() || b.is_null() {
        return Value::Null;
    }
    match op {
        Lt => return Value::Bool(a < b),
        Le => return Value::Bool(a <= b),
        Gt => return Value::Bool(a > b),
        Ge => return Value::Bool(a >= b),
        Min => return if a <= b { a.clone() } else { b.clone() },
        Max => return if a >= b { a.clone() } else { b.clone() },
        _ => {}
    }
    // Arithmetic.
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => match op {
            Add => Value::Int(x.wrapping_add(*y)),
            Sub => Value::Int(x.wrapping_sub(*y)),
            Mul => Value::Int(x.wrapping_mul(*y)),
            Div => {
                if *y == 0 {
                    Value::Null
                } else {
                    Value::Int(x.wrapping_div(*y))
                }
            }
            Rem => {
                if *y == 0 {
                    Value::Null
                } else {
                    Value::Int(x.wrapping_rem(*y))
                }
            }
            _ => unreachable!("comparisons handled above"),
        },
        _ => match (a.as_float(), b.as_float()) {
            (Some(x), Some(y)) => match op {
                Add => Value::Float(x + y),
                Sub => Value::Float(x - y),
                Mul => Value::Float(x * y),
                Div => Value::Float(x / y),
                Rem => Value::Float(x % y),
                _ => unreachable!("comparisons handled above"),
            },
            _ => Value::Null,
        },
    }
}

/// Evaluates a unary operator with total semantics.
pub fn eval_un(op: UnOp, a: &Value) -> Value {
    match op {
        UnOp::Not => Value::Bool(!a.truthy()),
        UnOp::IsNull => Value::Bool(a.is_null()),
        UnOp::Neg => match a {
            Value::Int(i) => Value::Int(i.wrapping_neg()),
            Value::Float(f) => Value::Float(-f),
            _ => Value::Null,
        },
        UnOp::Abs => match a {
            Value::Int(i) => Value::Int(i.wrapping_abs()),
            Value::Float(f) => Value::Float(f.abs()),
            _ => Value::Null,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::inst::RReg;
    use crate::intrinsics::Intrinsic;

    fn views(g: &[Record]) -> Vec<RowRef<'_>> {
        g.iter().map(RowRef::from).collect()
    }

    fn run_map(f: &Function, rec: Record) -> Vec<Record> {
        let layout = Layout::local(f);
        let mut out = Vec::new();
        Interp::default()
            .run(f, Invocation::Row(RowRef::from(&rec)), &layout, &mut out)
            .expect("run");
        out
    }

    /// f1 of Section 3: replace field 1 with its absolute value.
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

    /// f2 of Section 3: emit records with field 0 ≥ 0.
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

    /// f3 of Section 3: replace field 0 with field0 + field1.
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

    fn rec2(a: i64, b: i64) -> Record {
        Record::from_values([Value::Int(a), Value::Int(b)])
    }

    #[test]
    fn section3_example_record_i() {
        // ⟨2,−3⟩ → f1 → ⟨2,3⟩ → f2 → ⟨2,3⟩ → f3 → ⟨5,3⟩
        let r1 = run_map(&paper_f1(), rec2(2, -3));
        assert_eq!(r1, vec![rec2(2, 3)]);
        let r2 = run_map(&paper_f2(), r1[0].clone());
        assert_eq!(r2, vec![rec2(2, 3)]);
        let r3 = run_map(&paper_f3(), r2[0].clone());
        assert_eq!(r3, vec![rec2(5, 3)]);
    }

    #[test]
    fn section3_example_record_i_prime() {
        // ⟨−2,−3⟩ → f1 → ⟨−2,3⟩ → f2 → ⊥
        let r1 = run_map(&paper_f1(), rec2(-2, -3));
        assert_eq!(r1, vec![rec2(-2, 3)]);
        let r2 = run_map(&paper_f2(), r1[0].clone());
        assert!(r2.is_empty());
    }

    /// Reduce UDF: emits one record with the key (field 0) and the sum
    /// of field 1 appended as field 2.
    fn group_sum() -> Function {
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
        // Copy the first record of the group for the key fields.
        let it2 = b.iter_open(0);
        let empty = b.new_label();
        let first = b.iter_next(it2, empty);
        let or = b.copy(first);
        b.set(or, 2, sum);
        b.emit(or);
        b.place(empty);
        b.ret();
        b.finish().unwrap()
    }

    #[test]
    fn group_sum_udf() {
        let f = group_sum();
        let group = vec![rec2(1, 10), rec2(1, 20), rec2(1, 5)];
        let layout = Layout::local(&f);
        let mut out = Vec::new();
        let stats = Interp::default()
            .run(&f, Invocation::Group(&views(&group)), &layout, &mut out)
            .unwrap();
        assert_eq!(stats.emits, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].field(2), &Value::Int(35));
        assert_eq!(out[0].field(0), &Value::Int(1));
    }

    #[test]
    fn group_udf_runs_alike_over_columnar_and_record_views() {
        use strato_record::BatchBuilder;
        // Sums field 1, then copies every record of the group with the
        // sum set: field reads and copies both go through the views.
        let mut b = FuncBuilder::new("sum_all", UdfKind::Group, vec![3]);
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
        let end = b.new_label();
        let head2 = b.new_label();
        b.place(head2);
        let r2 = b.iter_next(it2, end);
        let or = b.copy(r2);
        b.set(or, 2, sum);
        b.emit(or);
        b.jump(head2);
        b.place(end);
        b.ret();
        let f = b.finish().unwrap();
        let layout = Layout::local(&f);
        let group = vec![
            Record::from_values([Value::Int(7), Value::Int(4), Value::str("x")]),
            Record::from_values([Value::Int(7), Value::Int(0), Value::Null]),
            Record::from_values([Value::Int(7), Value::Int(-1), Value::Float(-0.0)]),
        ];
        let mut builder = BatchBuilder::new(3);
        for r in &group {
            builder.push(r.clone());
        }
        let cb = builder.finish();
        let columnar: Vec<RowRef<'_>> = (0..cb.len()).map(|i| cb.row(i)).collect();
        let mixed = vec![columnar[0], RowRef::from(&group[1]), columnar[2]];
        let run = |g: &[RowRef<'_>]| {
            let mut out = Vec::new();
            let stats = Interp::default()
                .run(&f, Invocation::Group(g), &layout, &mut out)
                .unwrap();
            (out, stats)
        };
        let reference = run(&views(&group));
        assert_eq!(reference.0.len(), 3);
        assert_eq!(reference.0[0].field(2), &Value::Int(3));
        assert_eq!(run(&columnar), reference);
        assert_eq!(run(&mixed), reference);
    }

    /// Match-style UDF: concatenates both records.
    fn pair_concat() -> Function {
        let mut b = FuncBuilder::new("join", UdfKind::Pair, vec![2, 2]);
        let or = b.concat_inputs();
        b.emit(or);
        b.ret();
        b.finish().unwrap()
    }

    #[test]
    fn pair_concat_udf() {
        let f = pair_concat();
        let layout = Layout::local(&f);
        // Global layout: input0 = attrs 0,1; input1 = attrs 2,3.
        let left = Record::from_values([Value::Int(1), Value::Int(2), Value::Null, Value::Null]);
        let right = Record::from_values([Value::Null, Value::Null, Value::Int(3), Value::Int(4)]);
        let mut out = Vec::new();
        Interp::default()
            .run(
                &f,
                Invocation::Pair(RowRef::from(&left), RowRef::from(&right)),
                &layout,
                &mut out,
            )
            .unwrap();
        assert_eq!(
            out,
            vec![Record::from_values([
                Value::Int(1),
                Value::Int(2),
                Value::Int(3),
                Value::Int(4),
            ])]
        );
    }

    /// Builds a record from a string constant, then loops forever.
    fn spinning() -> Function {
        let mut b = FuncBuilder::new("loop", UdfKind::Map, vec![1]);
        let s = b.konst(Value::str("left behind"));
        let or = b.new_rec();
        b.set(or, 0, s);
        let head = b.new_label();
        b.place(head);
        b.jump(head);
        b.finish().unwrap()
    }

    #[test]
    fn concat_merges_a_view_like_its_materialized_record() {
        use strato_record::BatchBuilder;
        // Concatenation of the two input views, and of copies of them
        // (a built second side).
        let views_udf = pair_concat();
        let mut b = FuncBuilder::new("join_copies", UdfKind::Pair, vec![2, 2]);
        let (l, r) = (b.copy_input(0), b.copy_input(1));
        let or = b.concat(l, r);
        b.emit(or);
        b.ret();
        let copies_udf = b.finish().unwrap();
        let layout = Layout::local(&views_udf);
        // The reference: materialize both sides (padded to the global
        // width), then `merge_absent`.
        let padded = |r: &Record| {
            let mut r = r.clone();
            if r.arity() < layout.width {
                r.set_field(layout.width - 1, Value::Null);
            }
            r
        };
        let ints = |v: &[Option<i64>]| {
            Record::from_values(v.iter().map(|x| x.map_or(Value::Null, Value::Int)))
        };
        let rows = [
            ints(&[Some(1), Some(2)]),
            ints(&[None, Some(2)]),
            ints(&[None, None, Some(3), Some(4)]),
            ints(&[Some(9), None, None, Some(4), Some(5)]),
            Record::from_values([Value::Null, Value::str("x"), Value::Float(-0.0)]),
        ];
        let mut cols = BatchBuilder::new(5);
        for r in &rows {
            let mut r = r.clone();
            if r.arity() < 5 {
                r.set_field(4, Value::Null);
            }
            cols.push(r);
        }
        let cols = cols.finish();
        for (i, a) in rows.iter().enumerate() {
            for (j, b) in rows.iter().enumerate() {
                for right in [RowRef::from(b), cols.row(j)] {
                    let mut want = padded(a);
                    want.merge_absent(&padded(&right.to_record()));
                    let inv = Invocation::Pair(RowRef::from(a), right);
                    for f in [&views_udf, &copies_udf] {
                        let mut out = Vec::new();
                        Interp::default().run(f, inv, &layout, &mut out).unwrap();
                        assert_eq!(out, [want.clone()], "{} on rows {i}, {j}", f.name());
                    }
                }
            }
        }
    }

    #[test]
    fn step_limit_stops_infinite_loop() {
        let f = spinning();
        let layout = Layout::local(&f);
        let r = Record::from_values([Value::Int(1)]);
        let mut out = Vec::new();
        let err = Interp::with_max_steps(1000)
            .run(&f, Invocation::Row(RowRef::from(&r)), &layout, &mut out)
            .unwrap_err();
        assert_eq!(err, InterpError::StepLimit(1000));
    }

    #[test]
    fn shape_mismatch_detected() {
        let f = paper_f1();
        let layout = Layout::local(&f);
        let g = vec![rec2(1, 2)];
        let mut out = Vec::new();
        let err = Interp::default()
            .run(&f, Invocation::Group(&views(&g)), &layout, &mut out)
            .unwrap_err();
        assert_eq!(err, InterpError::ShapeMismatch);
    }

    #[test]
    fn eval_bin_totality() {
        use BinOp::*;
        assert_eq!(eval_bin(Add, &Value::Int(1), &Value::Int(2)), Value::Int(3));
        assert_eq!(eval_bin(Div, &Value::Int(1), &Value::Int(0)), Value::Null);
        assert_eq!(eval_bin(Rem, &Value::Int(1), &Value::Int(0)), Value::Null);
        assert_eq!(eval_bin(Add, &Value::Null, &Value::Int(2)), Value::Null);
        assert_eq!(
            eval_bin(Add, &Value::Int(1), &Value::Float(0.5)),
            Value::Float(1.5)
        );
        assert_eq!(eval_bin(Add, &Value::str("a"), &Value::Int(1)), Value::Null);
        assert_eq!(eval_bin(Eq, &Value::Null, &Value::Null), Value::Bool(true));
        assert_eq!(eval_bin(Lt, &Value::Null, &Value::Int(1)), Value::Null);
        assert_eq!(eval_bin(Min, &Value::Int(3), &Value::Int(1)), Value::Int(1));
        assert_eq!(eval_bin(Max, &Value::Int(3), &Value::Int(1)), Value::Int(3));
        assert_eq!(
            eval_bin(And, &Value::Int(1), &Value::Int(0)),
            Value::Bool(false)
        );
        assert_eq!(
            eval_bin(Or, &Value::Null, &Value::Int(2)),
            Value::Bool(true)
        );
        // Overflow wraps rather than panicking.
        assert_eq!(
            eval_bin(Add, &Value::Int(i64::MAX), &Value::Int(1)),
            Value::Int(i64::MIN)
        );
    }

    #[test]
    fn eval_un_totality() {
        assert_eq!(eval_un(UnOp::Neg, &Value::Int(3)), Value::Int(-3));
        assert_eq!(eval_un(UnOp::Neg, &Value::str("x")), Value::Null);
        assert_eq!(eval_un(UnOp::Abs, &Value::Int(-3)), Value::Int(3));
        assert_eq!(eval_un(UnOp::Abs, &Value::Float(-1.5)), Value::Float(1.5));
        assert_eq!(eval_un(UnOp::Not, &Value::Null), Value::Bool(true));
        assert_eq!(eval_un(UnOp::IsNull, &Value::Null), Value::Bool(true));
        assert_eq!(eval_un(UnOp::IsNull, &Value::Int(0)), Value::Bool(false));
        assert_eq!(
            eval_un(UnOp::Neg, &Value::Int(i64::MIN)),
            Value::Int(i64::MIN)
        );
    }

    fn group_count() -> Function {
        let mut b = FuncBuilder::new("count", UdfKind::Group, vec![1]);
        let n = b.group_count(0);
        let or = b.new_rec();
        b.set(or, 1, n);
        b.emit(or);
        b.ret();
        b.finish().unwrap()
    }

    #[test]
    fn group_count_instruction() {
        let f = group_count();
        let layout = Layout::local(&f);
        let g = vec![
            Record::from_values([Value::Int(1)]),
            Record::from_values([Value::Int(1)]),
        ];
        let mut out = Vec::new();
        Interp::default()
            .run(&f, Invocation::Group(&views(&g)), &layout, &mut out)
            .unwrap();
        assert_eq!(out[0].field(1), &Value::Int(2));
    }

    /// Counts the group twice, via two iterators.
    fn count_twice() -> Function {
        let mut b = FuncBuilder::new("twice", UdfKind::Group, vec![1]);
        let count = b.konst(0i64);
        let one = b.konst(1i64);
        for _ in 0..2 {
            let it = b.iter_open(0);
            let done = b.new_label();
            let head = b.new_label();
            b.place(head);
            let _r = b.iter_next(it, done);
            b.bin_into(count, BinOp::Add, count, one);
            b.jump(head);
            b.place(done);
        }
        let or = b.new_rec();
        b.set(or, 1, count);
        b.emit(or);
        b.ret();
        b.finish().unwrap()
    }

    #[test]
    fn reopened_iterator_rescans_group() {
        let f = count_twice();
        let layout = Layout::local(&f);
        let g = vec![
            Record::from_values([Value::Int(1)]),
            Record::from_values([Value::Int(2)]),
            Record::from_values([Value::Int(3)]),
        ];
        let mut out = Vec::new();
        Interp::default()
            .run(&f, Invocation::Group(&views(&g)), &layout, &mut out)
            .unwrap();
        assert_eq!(out[0].field(1), &Value::Int(6));
    }

    /// Copies every record of the group with field 1 set to a computed
    /// string, and aborts (panics) at the first record whose field 0 is
    /// non-zero — leaving strings, a built record and a half-walked
    /// iterator in its frame.
    fn aborting() -> Function {
        let mut b = FuncBuilder::new("abort", UdfKind::Group, vec![2]);
        let a = b.konst(Value::str("a"));
        let bb = b.konst(Value::str("b"));
        let ab = b.call(Intrinsic::Concat, vec![a, bb]);
        let it = b.iter_open(0);
        let done = b.new_label();
        let head = b.new_label();
        b.place(head);
        let r = b.iter_next(it, done);
        let or = b.copy(r);
        b.set(or, 1, ab);
        let k = b.get(r, 0);
        b.call(Intrinsic::AbortIf, vec![k]);
        b.emit(or);
        b.jump(head);
        b.place(done);
        b.ret();
        b.finish().unwrap()
    }

    #[test]
    fn a_reused_frame_runs_like_a_fresh_one() {
        let mut frame = Frame::default();
        let one = Record::from_values([Value::Int(1)]);
        let layout = Layout::local(&spinning());
        let err = Interp::with_max_steps(1000)
            .run_in(
                &mut frame,
                &spinning(),
                Invocation::Row(RowRef::from(&one)),
                &layout,
                &mut Vec::new(),
            )
            .unwrap_err();
        assert_eq!(err, InterpError::StepLimit(1000));
        let abort = aborting();
        let tripping = vec![rec2(0, 1), rec2(0, 2), rec2(5, 3)];
        let tripping = views(&tripping);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Interp::default().run_in(
                &mut frame,
                &abort,
                Invocation::Group(&tripping),
                &Layout::local(&abort),
                &mut Vec::new(),
            )
        }));
        assert!(panicked.is_err(), "abort_if must trip");

        // Then UDFs of every kind and register count, in both orders, on
        // the frame the error and the panic left behind.
        let group = vec![rec2(1, 10), rec2(1, 20), rec2(1, 5)];
        let group = views(&group);
        let zeros = vec![rec2(0, 7), rec2(0, 8)];
        let zeros = views(&zeros);
        let (left, right) = (
            Record::from_values([Value::Int(1), Value::Int(2), Value::Null, Value::Null]),
            Record::from_values([Value::Null, Value::Null, Value::Int(3), Value::Int(4)]),
        );
        let (neg, pos) = (rec2(-2, -3), rec2(2, -3));
        let row = |r| Invocation::Row(RowRef::from(r));
        // The aborting UDF goes first: its `Concat` would read the
        // argument the panic left behind if the frame were not cleared.
        let cases = [
            (abort, Invocation::Group(&zeros)),
            (paper_f1(), row(&neg)),
            (paper_f2(), row(&neg)),
            (group_sum(), Invocation::Group(&group)),
            (paper_f3(), row(&pos)),
            (
                pair_concat(),
                Invocation::Pair(RowRef::from(&left), RowRef::from(&right)),
            ),
            (group_count(), Invocation::Group(&group)),
            (count_twice(), Invocation::Group(&group)),
        ];
        for (f, inv) in cases.iter().chain(cases.iter().rev()) {
            let layout = Layout::local(f);
            let (mut fresh, mut reused) = (Vec::new(), Vec::new());
            let want = Interp::default().run(f, *inv, &layout, &mut fresh);
            let got = Interp::default().run_in(&mut frame, f, *inv, &layout, &mut reused);
            assert_eq!((got, reused), (want, fresh), "{}", f.name());
        }
    }

    #[test]
    fn an_emit_before_return_moves_and_any_other_emit_clones() {
        // Runs `f` without the closing clear and reports its output and
        // whether the emitted slot still holds its record.
        let run = |f: &Function, or: RReg| {
            let r = rec2(4, 5);
            let mut frame = Frame::default();
            let mut out = Vec::new();
            let inv = Invocation::Row(RowRef::from(&r));
            let st = Interp::default()
                .exec(&mut frame, f, inv, &Layout::local(f), &mut out)
                .unwrap();
            assert_eq!(st.emits as usize, out.len());
            let kept = matches!(frame.recs[or.0 as usize], RecSlot::Built(_));
            (out, kept)
        };
        let build = |tail: &dyn Fn(&mut FuncBuilder, RReg)| {
            let mut b = FuncBuilder::new("emit", UdfKind::Map, vec![2]);
            let or = b.copy_input(0);
            tail(&mut b, or);
            b.ret();
            (b.finish().unwrap(), or)
        };
        // emit; ret: moved.
        let (once, or) = build(&|b, or| b.emit(or));
        assert_eq!(run(&once, or), (vec![rec2(4, 5)], false));
        // emit; emit; ret: the first clones, the second moves — two
        // equal records.
        let (twice, or) = build(&|b, or| {
            b.emit(or);
            b.emit(or);
        });
        assert_eq!(run(&twice, or), (vec![rec2(4, 5), rec2(4, 5)], false));
        // emit; const; ret: cloned, the slot keeps its record.
        let (later, or) = build(&|b, or| {
            b.emit(or);
            b.konst(0i64);
        });
        assert_eq!(run(&later, or), (vec![rec2(4, 5)], true));
    }
}
