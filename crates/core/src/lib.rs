//! # strato-core — the black-box data flow optimizer
//!
//! The primary contribution of *"Opening the Black Boxes in Data Flow
//! Optimization"* (Hueske et al., VLDB 2012), implemented from scratch:
//!
//! * [`props`] — per-operator **global** read/write/control attribute sets
//!   derived from SCA results (or manual annotations) through the
//!   redirection maps, including the paper's rules that Match/CoGroup keys
//!   join the read set and that implicit projection writes *every*
//!   attribute it does not explicitly preserve;
//! * [`conditions`] — the reordering conditions of Section 4: the ROC
//!   condition (Definition 4), the KGP condition (Definition 5), Map/Map
//!   and Map/Reduce swaps (Theorems 1–2), pushing unary operators through
//!   binary ones (Theorem 3, Lemma 1), the invariant-grouping rewrite
//!   (Theorem 4 and Section 4.3.2) gated on PK–FK constraints, and binary
//!   "rotations" (join re-association derived from the `Match ≡ Map∘Cross`
//!   decomposition);
//! * [`constraints`] — uniqueness propagation through operators (the
//!   substrate for the PK–FK precondition);
//! * [`enumerate`] — plan enumeration: a faithful port of the paper's
//!   **Algorithm 1** for unary flows, the oracle on linear flows, plus a
//!   closure enumerator (BFS over single valid moves, memoized per
//!   structural sub-flow id as Algorithm 1 memoizes per canonical form)
//!   that handles arbitrary tree-shaped flows;
//! * [`cost`] — the hint-driven cost model (network IO + disk IO + CPU per
//!   UDF call);
//! * [`physical`] — shipping strategies (forward / hash repartition /
//!   broadcast), pre-ship combiners and local strategies (hash grouping,
//!   hash join with build-side choice, block nested loops, sort-merge
//!   co-grouping), selected per logical order with partitioning-property
//!   reuse;
//! * `optimizer` — the end-to-end [`Optimizer`]:
//!   derive properties → enumerate orders → cost each physical alternative
//!   → rank.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conditions;
pub mod constraints;
pub mod cost;
pub mod enumerate;
pub mod physical;
pub mod props;

mod optimizer;

pub use conditions::roc;
pub use enumerate::{enumerate_algorithm1, enumerate_all, neighbors};
pub use optimizer::{Optimizer, OptimizerReport, RankedPlan};
pub use physical::{LocalStrategy, PhysNode, PhysPlan, Ship};
pub use props::{OpProps, PropTable};
