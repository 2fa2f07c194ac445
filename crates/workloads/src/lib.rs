//! # strato-workloads — the paper's four evaluation workloads
//!
//! Section 7.2 of *"Opening the Black Boxes in Data Flow Optimization"*
//! evaluates on four PACT programs; this crate reproduces all of them with
//! seeded synthetic data generators whose distributions match the operators'
//! cost hints:
//!
//! * [`tpch`] — a TPC-H subset generator plus the paper's modified **Q7**
//!   (six-way circular join, shipdate filter, disjunctive nation filter,
//!   group-by-sum) and **Q15** (shipdate filter, PK–FK supplier join,
//!   per-supplier revenue aggregation),
//! * [`clickstream`] — web-shop session processing: two non-relational
//!   Reduce operators ("Filter Buy Sessions", "Condense Sessions") and two
//!   Matches ("Filter Logged-In Sessions", "Append User Info"); the last
//!   one copies profile fields with a *dynamic* index loop, which is what
//!   makes SCA conservatively lose one order (Table 1's 3/4),
//! * [`textmining`] — the biomedical pipeline: fixed preprocessing
//!   (tokenize, POS-tag), four reorderable entity extractors with very
//!   different CPU costs and selectivities, and a final relation extractor
//!   (4! = 24 valid orders).
//!
//! Every UDF is three-address code built with [`strato_ir::FuncBuilder`];
//! the optimizer sees nothing but the code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clickstream;
pub mod textmining;
pub mod tpch;
pub mod udfs;
