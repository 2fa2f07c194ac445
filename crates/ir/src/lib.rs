//! # strato-ir — three-address-code IR for user-defined functions
//!
//! The paper analyzes UDFs given as **typed three-address code** with a
//! record API (`getField`, `setField`, copy/default/concat constructors,
//! `emit`; Section 5). The original implementation obtained 3AC from Java
//! bytecode through the Soot framework; this crate *is* that abstraction
//! implemented natively: a small register IR with
//!
//! * value registers (`$t…`), record registers (`$r…`) and group iterators,
//! * the record API as first-class instructions,
//! * conditional branches, jumps and intrinsic calls,
//! * a [builder](builder::FuncBuilder) for programmatic construction,
//! * a [verifier](func::Function::verify) enforcing the static discipline the
//!   paper assumes (definite assignment, read-only inputs, constructed
//!   output records),
//! * a [control-flow graph](cfg::Cfg) plus classic dataflow analyses
//!   (reaching definitions, `USE-DEF`/`DEF-USE` chains) used by the static
//!   code analysis crate,
//! * an [interpreter](interp::Interp) so the *same* IR that the optimizer
//!   analyzes is what the execution engine runs — UDFs stay black boxes
//!   end to end.
//!
//! UDF field accesses use **local** field indices; at execution time the
//! interpreter translates them through redirection maps (α, Definition 1 of
//! the paper) into global-record positions, which is what makes reordered
//! plans run the unchanged UDF code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod cfg;
pub mod dataflow;
pub mod func;
pub mod inst;
pub mod interp;
pub mod intrinsics;

pub use builder::FuncBuilder;
pub use cfg::Cfg;
pub use func::{Function, UdfKind, VerifyError};
pub use inst::{BinOp, Inst, IterReg, Label, RReg, Reg, UnOp, VReg};
pub use interp::{Frame, Interp, InterpError, Invocation};
pub use intrinsics::Intrinsic;
