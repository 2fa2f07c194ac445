//! # strato-dataflow — the PACT programming model
//!
//! Implements Sections 2.2–2.3 of *"Opening the Black Boxes in Data Flow
//! Optimization"*: data analysis programs are **tree-shaped data flows** of
//! operators, each pairing a second-order function (a *PACT*: Map, Reduce,
//! Cross, Match, CoGroup) with a first-order black-box UDF written in
//! [`strato_ir`] three-address code.
//!
//! The crate provides:
//!
//! * [`Pact`] — the five second-order functions with their key fields,
//! * [`Operator`] — PACT + UDF + optional manual property annotations +
//!   cost hints (the paper's "Average Number of Records Emitted per UDF
//!   Call", "CPU Cost per UDF Call", "Number of Distinct Values per
//!   Key-Set"),
//! * [`ProgramBuilder`] — an ownership-based builder: node handles are
//!   consumed by value, so non-tree-shaped flows are unrepresentable,
//! * **binding** ([`Program::bind`]) — assembles the global record
//!   (Definition 1), the per-operator redirection maps α, maps key fields
//!   to global attributes, and runs the static code analysis once per
//!   operator. The resulting [`Plan`] is what the optimizer reorders and
//!   the engine executes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod operator;
pub mod pact;
pub mod plan;
pub mod program;
pub mod spec;

pub use operator::{CostHints, Operator};
pub use pact::Pact;
pub use plan::{BoundOp, BoundSource, NodeKind, Plan, PlanCtx, PlanNode, PropertyMode};
pub use program::{NodeHandle, Program, ProgramBuilder, ProgramError, SourceDef};
pub use spec::{FlowSpec, NodeSpec, OpSpec, SourceSpec, SpecError};
