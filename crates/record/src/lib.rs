//! # strato-record — data model for the Stratosphere-style record data flow
//!
//! This crate implements the data model of Section 2.2 of
//! *"Opening the Black Boxes in Data Flow Optimization"* (Hueske et al.,
//! VLDB 2012):
//!
//! * a [`Value`] is a dynamically typed field value,
//! * a [`Record`] is an ordered tuple of values `⟨v1, …, vm⟩`,
//! * a [`DataSet`] is an **unordered list** (bag) of records
//!   `D = [r1, …, rn]`; two data sets are equal (`D1 ≡ D2`) when some
//!   reordering of their records makes them pairwise equal,
//! * the **global record** `A` (Definition 1) is a unique naming of all base
//!   and intermediate attributes of a data flow, and the **redirection map**
//!   α maps every local field index of every (base or intermediate) data set
//!   to the corresponding global attribute,
//! * an [`AttrSet`] is a compact bitset over global attributes used for read
//!   sets, write sets and all ROC/KGP condition checks.
//!
//! The crate also provides a small wire format ([`wire`]) the execution
//! engine writes its spill runs in, a fast non-cryptographic
//! hasher ([`hash::FxHasher`]) used for hash partitioning and memo tables,
//! and [`RecordBatch`] — the unit in which the execution engine moves
//! records between physical operators. Every batch is stored
//! column-major ([`columns`]): per-attribute value vectors with null masks
//! and vectorized key-hash/compare kernels. Row-at-a-time consumers read
//! it through cheap [`RowRef`] row views ([`row`]).
//!
//! ## Null-as-absent convention
//!
//! Tuples flow through the engine in **global record layout**: the width of
//! every tuple equals the number of global attributes, and attributes that a
//! record does not (yet) carry are [`Value::Null`]. `Null` therefore doubles
//! as "absent". The convention has SQL flavour: null join keys match
//! nothing, null grouping keys form a single group, and explicitly
//! projecting a field (the paper's `setField(or, n, null)`) makes it absent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod batch;
pub mod columns;
pub mod dataset;
pub mod hash;
pub mod record;
pub mod row;
pub mod value;
pub mod wire;

pub use attr::{AttrId, AttrSet, GlobalRecord, Redirection};
pub use batch::RecordBatch;
pub use columns::{BatchBuilder, ColumnBatch};
pub use dataset::DataSet;
pub use record::Record;
pub use row::{sort_canonical, RowRef};
pub use value::Value;
