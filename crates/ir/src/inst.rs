//! Instruction set of the three-address-code IR.

use crate::intrinsics::Intrinsic;
use std::fmt;
use strato_record::Value;

/// A value register (`$t0`, `$t1`, …) holding a [`Value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VReg(pub u16);

/// A record register (`$r0`, `$r1`, …) holding a record reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RReg(pub u16);

/// A group-iterator register (`$it0`, …), valid only in key-at-a-time UDFs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IterReg(pub u16);

/// A branch target: the index of an instruction in the function body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(pub u32);

/// A register of any namespace — the unit of dataflow analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Reg {
    /// Value register.
    Val(VReg),
    /// Record register.
    Rec(RReg),
    /// Iterator register.
    Iter(IterReg),
}

/// Binary operators on values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Min,
    Max,
}

/// Unary operators on values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum UnOp {
    Neg,
    Not,
    Abs,
    IsNull,
}

/// One three-address-code instruction.
///
/// The record API mirrors Section 5 of the paper:
///
/// * [`Inst::LoadInput`] binds the UDF's parameter record (`$ir`),
/// * [`Inst::GetField`] is `$t := getField($r, n)`,
/// * [`Inst::NewRecord`] is the default constructor (**implicit
///   projection**),
/// * [`Inst::CopyRecord`] is the copy constructor (**implicit copy**),
/// * [`Inst::ConcatRecords`] is the binary constructor concatenating two
///   input records (implicit copy of both sides),
/// * [`Inst::SetField`] is `setField($r, n, $t)` (explicit modification,
///   copy, or add, depending on where `$t` comes from),
/// * [`Inst::SetNull`] is `setField($r, n, null)` (**explicit projection**),
/// * [`Inst::Emit`] emits an output record.
///
/// Key-at-a-time UDFs (Reduce, CoGroup) receive record *lists*; they iterate
/// via [`Inst::IterOpen`] / [`Inst::IterNext`].
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// `$t := const`
    Const {
        /// Destination.
        dst: VReg,
        /// The constant.
        value: Value,
    },
    /// `$t := $s` — plain assignment (used for loop-carried accumulators).
    Move {
        /// Destination.
        dst: VReg,
        /// Source.
        src: VReg,
    },
    /// `$t := $a <op> $b`
    Bin {
        /// Destination.
        dst: VReg,
        /// Operator.
        op: BinOp,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
    },
    /// `$t := <op> $a`
    Un {
        /// Destination.
        dst: VReg,
        /// Operator.
        op: UnOp,
        /// Operand.
        a: VReg,
    },
    /// `$t := intrinsic(args…)` — a call into a pure built-in function.
    Call {
        /// Destination.
        dst: VReg,
        /// The intrinsic.
        f: Intrinsic,
        /// Arguments.
        args: Vec<VReg>,
    },
    /// `$r := input[i]` — binds the `i`-th input record (RAT UDFs only).
    LoadInput {
        /// Destination record register.
        dst: RReg,
        /// Input index (0 or 1).
        input: u8,
    },
    /// `$t := getField($r, n)`
    GetField {
        /// Destination.
        dst: VReg,
        /// Source record.
        rec: RReg,
        /// Local field index.
        field: usize,
    },
    /// `$t := getField($r, $i)` — **dynamic** field access: the index is a
    /// runtime value. The paper's SCA handles only accesses "with literals
    /// and final variables"; dynamic accesses force the analysis to assume
    /// the whole input schema is read.
    GetFieldDyn {
        /// Destination.
        dst: VReg,
        /// Source record.
        rec: RReg,
        /// Register holding the field index.
        idx: VReg,
    },
    /// `setField($r, $i, $t)` — dynamic field write; the analysis must
    /// assume every output field may change.
    SetFieldDyn {
        /// Target record (must be a constructed output record).
        rec: RReg,
        /// Register holding the field index.
        idx: VReg,
        /// Value source.
        src: VReg,
    },
    /// `setField($r, n, $t)`
    SetField {
        /// Target record (must be a constructed output record).
        rec: RReg,
        /// Local field index.
        field: usize,
        /// Value source.
        src: VReg,
    },
    /// `setField($r, n, null)` — explicit projection.
    SetNull {
        /// Target record.
        rec: RReg,
        /// Local field index.
        field: usize,
    },
    /// `$r := new OutputRecord()` — implicit projection.
    NewRecord {
        /// Destination record register.
        dst: RReg,
    },
    /// `$r := new OutputRecord($src)` — implicit copy.
    CopyRecord {
        /// Destination record register.
        dst: RReg,
        /// Record to copy.
        src: RReg,
    },
    /// `$r := new OutputRecord($a, $b)` — concatenation constructor;
    /// implicit copy of both inputs (used by binary UDFs).
    ConcatRecords {
        /// Destination record register.
        dst: RReg,
        /// Left record.
        a: RReg,
        /// Right record.
        b: RReg,
    },
    /// `emit($r)` — appends a record to the UDF output.
    Emit {
        /// Record to emit.
        rec: RReg,
    },
    /// `if ($t) goto L` — branches when the value is truthy.
    Branch {
        /// Condition.
        cond: VReg,
        /// Target instruction index.
        target: Label,
    },
    /// `goto L`
    Jump {
        /// Target instruction index.
        target: Label,
    },
    /// `return`
    Return,
    /// `$it := iterator(input[i])` — opens a fresh iterator over a group
    /// (KAT UDFs only). May be re-opened to scan a group multiple times.
    IterOpen {
        /// Destination iterator register.
        dst: IterReg,
        /// Input index (0 or 1).
        input: u8,
    },
    /// `$r := next($it) else goto L` — loads the next record of the group
    /// or, when exhausted, jumps to `L` without defining `$r`.
    IterNext {
        /// Destination record register (defined only on the fall-through
        /// edge).
        dst: RReg,
        /// Iterator to advance.
        iter: IterReg,
        /// Where to go when the group is exhausted.
        exhausted: Label,
    },
    /// `$t := groupSize(input[i])` — number of records in a group (KAT UDFs
    /// only).
    GroupCount {
        /// Destination.
        dst: VReg,
        /// Input index.
        input: u8,
    },
}

impl Inst {
    /// Registers defined (written) by this instruction.
    pub fn defs(&self) -> Vec<Reg> {
        match self {
            Inst::Const { dst, .. }
            | Inst::Move { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Call { dst, .. }
            | Inst::GetField { dst, .. }
            | Inst::GetFieldDyn { dst, .. }
            | Inst::GroupCount { dst, .. } => vec![Reg::Val(*dst)],
            Inst::LoadInput { dst, .. }
            | Inst::NewRecord { dst }
            | Inst::CopyRecord { dst, .. }
            | Inst::ConcatRecords { dst, .. }
            | Inst::IterNext { dst, .. } => vec![Reg::Rec(*dst)],
            Inst::IterOpen { dst, .. } => vec![Reg::Iter(*dst)],
            // SetField/SetNull mutate a record in place: model as def+use so
            // reaching-definition chains see the state change.
            Inst::SetField { rec, .. }
            | Inst::SetFieldDyn { rec, .. }
            | Inst::SetNull { rec, .. } => vec![Reg::Rec(*rec)],
            _ => vec![],
        }
    }

    /// Registers used (read) by this instruction.
    pub fn uses(&self) -> Vec<Reg> {
        match self {
            Inst::Move { src, .. } => vec![Reg::Val(*src)],
            Inst::Bin { a, b, .. } => vec![Reg::Val(*a), Reg::Val(*b)],
            Inst::Un { a, .. } => vec![Reg::Val(*a)],
            Inst::Call { args, .. } => args.iter().map(|a| Reg::Val(*a)).collect(),
            Inst::GetField { rec, .. } => vec![Reg::Rec(*rec)],
            Inst::GetFieldDyn { rec, idx, .. } => vec![Reg::Rec(*rec), Reg::Val(*idx)],
            Inst::SetFieldDyn { rec, idx, src } => {
                vec![Reg::Rec(*rec), Reg::Val(*idx), Reg::Val(*src)]
            }
            Inst::SetField { rec, src, .. } => vec![Reg::Rec(*rec), Reg::Val(*src)],
            Inst::SetNull { rec, .. } => vec![Reg::Rec(*rec)],
            Inst::CopyRecord { src, .. } => vec![Reg::Rec(*src)],
            Inst::ConcatRecords { a, b, .. } => vec![Reg::Rec(*a), Reg::Rec(*b)],
            Inst::Emit { rec } => vec![Reg::Rec(*rec)],
            Inst::Branch { cond, .. } => vec![Reg::Val(*cond)],
            Inst::IterNext { iter, .. } => vec![Reg::Iter(*iter)],
            _ => vec![],
        }
    }

    /// `true` for instructions that terminate or divert control flow.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Inst::Jump { .. } | Inst::Return | Inst::Branch { .. } | Inst::IterNext { .. }
        )
    }

    /// Branch targets, if any.
    pub fn targets(&self) -> Vec<Label> {
        match self {
            Inst::Branch { target, .. } | Inst::Jump { target } => vec![*target],
            Inst::IterNext { exhausted, .. } => vec![*exhausted],
            _ => vec![],
        }
    }

    /// `true` when control can fall through to the next instruction.
    pub fn falls_through(&self) -> bool {
        !matches!(self, Inst::Jump { .. } | Inst::Return)
    }
}

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "$t{}", self.0)
    }
}

impl fmt::Display for RReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "$r{}", self.0)
    }
}

impl fmt::Display for IterReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "$it{}", self.0)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Const { dst, value } => write!(f, "{dst} := {value}"),
            Inst::Move { dst, src } => write!(f, "{dst} := {src}"),
            Inst::Bin { dst, op, a, b } => write!(f, "{dst} := {a} {op:?} {b}"),
            Inst::Un { dst, op, a } => write!(f, "{dst} := {op:?} {a}"),
            Inst::Call { dst, f: func, args } => {
                write!(f, "{dst} := {func:?}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Inst::LoadInput { dst, input } => write!(f, "{dst} := input[{input}]"),
            Inst::GetField { dst, rec, field } => write!(f, "{dst} := getField({rec}, {field})"),
            Inst::SetField { rec, field, src } => write!(f, "setField({rec}, {field}, {src})"),
            Inst::GetFieldDyn { dst, rec, idx } => write!(f, "{dst} := getField({rec}, {idx})"),
            Inst::SetFieldDyn { rec, idx, src } => write!(f, "setField({rec}, {idx}, {src})"),
            Inst::SetNull { rec, field } => write!(f, "setField({rec}, {field}, null)"),
            Inst::NewRecord { dst } => write!(f, "{dst} := new OutputRecord()"),
            Inst::CopyRecord { dst, src } => write!(f, "{dst} := new OutputRecord({src})"),
            Inst::ConcatRecords { dst, a, b } => write!(f, "{dst} := new OutputRecord({a}, {b})"),
            Inst::Emit { rec } => write!(f, "emit({rec})"),
            Inst::Branch { cond, target } => write!(f, "if ({cond}) goto {target}"),
            Inst::Jump { target } => write!(f, "goto {target}"),
            Inst::Return => write!(f, "return"),
            Inst::IterOpen { dst, input } => write!(f, "{dst} := iterator(input[{input}])"),
            Inst::IterNext {
                dst,
                iter,
                exhausted,
            } => write!(f, "{dst} := next({iter}) else goto {exhausted}"),
            Inst::GroupCount { dst, input } => write!(f, "{dst} := groupSize(input[{input}])"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defs_and_uses() {
        let i = Inst::Bin {
            dst: VReg(0),
            op: BinOp::Add,
            a: VReg(1),
            b: VReg(2),
        };
        assert_eq!(i.defs(), vec![Reg::Val(VReg(0))]);
        assert_eq!(i.uses(), vec![Reg::Val(VReg(1)), Reg::Val(VReg(2))]);
    }

    #[test]
    fn set_field_defs_and_uses_record() {
        let i = Inst::SetField {
            rec: RReg(0),
            field: 1,
            src: VReg(3),
        };
        assert_eq!(i.defs(), vec![Reg::Rec(RReg(0))]);
        assert!(i.uses().contains(&Reg::Rec(RReg(0))));
        assert!(i.uses().contains(&Reg::Val(VReg(3))));
    }

    #[test]
    fn control_flow_properties() {
        assert!(Inst::Return.is_terminator());
        assert!(!Inst::Return.falls_through());
        let j = Inst::Jump { target: Label(4) };
        assert!(!j.falls_through());
        assert_eq!(j.targets(), vec![Label(4)]);
        let b = Inst::Branch {
            cond: VReg(0),
            target: Label(2),
        };
        assert!(b.falls_through());
        assert_eq!(b.targets(), vec![Label(2)]);
        let n = Inst::IterNext {
            dst: RReg(0),
            iter: IterReg(0),
            exhausted: Label(9),
        };
        assert!(n.falls_through());
        assert_eq!(n.targets(), vec![Label(9)]);
    }

    #[test]
    fn display_matches_paper_style() {
        let i = Inst::GetField {
            dst: VReg(0),
            rec: RReg(0),
            field: 1,
        };
        assert_eq!(format!("{i}"), "$t0 := getField($r0, 1)");
        let s = Inst::SetNull {
            rec: RReg(1),
            field: 0,
        };
        assert_eq!(format!("{s}"), "setField($r1, 0, null)");
    }
}
