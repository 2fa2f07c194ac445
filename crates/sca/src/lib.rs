//! # strato-sca — static code analysis of black-box UDFs
//!
//! Implementation of Section 5 of *"Opening the Black Boxes in Data Flow
//! Optimization"*: a static pass over the three-address code of a UDF that
//! conservatively derives the properties the optimizer needs to reorder
//! operators without knowing their semantics:
//!
//! * the **read set** — fields whose `getField` results are actually used
//!   (found through `DEF-USE` chains),
//! * the **write set** — derived by classifying every emitted record's
//!   construction: implicit copy (copy/concat constructor) vs. implicit
//!   projection (default constructor), refined by explicit copies
//!   (`setField(or, n, $t)` where `$t` provably came from `getField(ir, n)`
//!   at the *same* position), explicit projections (`setField(or, n, null)`),
//!   explicit modifications, and added fields (`n ≥ #I`),
//! * **emit cardinality bounds** per invocation (min/max over all control
//!   flow paths; `emit` on a cycle ⇒ unbounded max),
//! * **control reads** — fields whose values influence branch decisions,
//!   used for the key-group-preservation (KGP) condition,
//! * **dynamic access flags** — `getField`/`setField` with non-literal
//!   indices force worst-case assumptions, mirroring the paper's restriction
//!   of its prototype to "field accesses with literals and final variables",
//! * **first-record-only** — a structural proof that a Group UDF reads
//!   nothing but its group's first record (at most one reachable
//!   `IterNext`, on no control-flow cycle, and no `GroupCount`), so Reduce
//!   may hand it the one-record group of each key's canonical minimum
//!   instead of sorting the group.
//!
//! Safety through conservatism: every derived set is a superset of the true
//! set for every possible input, so enumerated reorderings are a subset of
//! the truly valid ones (Section 5, "safety"). The [`probe`] module offers
//! *semantic* read/write-set estimation by black-box probing, which the test
//! suite uses to validate conservatism on every workload UDF.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod emits;
pub mod probe;
pub mod props;
pub mod taint;

pub use analysis::analyze;
pub use props::{EmitBounds, LocalProps};
