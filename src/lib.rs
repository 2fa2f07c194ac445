//! # strato — black-box data flow optimization
//!
//! Facade crate re-exporting the full `strato` stack, a from-scratch Rust
//! reproduction of *"Opening the Black Boxes in Data Flow Optimization"*
//! (Hueske et al., PVLDB 5(11), 2012).
//!
//! The individual subsystems live in dedicated crates:
//!
//! * [`record`] — record data model, global record, attribute sets,
//! * [`ir`] — three-address-code IR for user-defined functions,
//! * [`sca`] — static code analysis deriving read/write sets and emit bounds,
//! * [`dataflow`] — the PACT programming model (Map, Reduce, Cross, Match,
//!   CoGroup) and program construction,
//! * [`core`] — reordering conditions, plan enumeration, cost-based physical
//!   optimization (the paper's contribution),
//! * [`exec`] — a parallel in-process execution engine,
//! * [`server`] — the engine as a resident HTTP/JSON query service,
//! * [`workloads`] — the four evaluation workloads of the paper.
//!
//! See the repository `README.md` for a quickstart, `ARCHITECTURE.md` for
//! how the crates fit together, and `PAPER.md` for the source paper's
//! abstract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use strato_core as core;
pub use strato_dataflow as dataflow;
pub use strato_exec as exec;
pub use strato_ir as ir;
pub use strato_record as record;
pub use strato_sca as sca;
pub use strato_server as server;
pub use strato_workloads as workloads;
