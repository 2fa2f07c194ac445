//! The property bundle produced by the analysis.

use std::collections::BTreeSet;
use std::fmt;

/// A local field of one UDF input: `(input index, field index)`.
pub type InField = (u8, usize);

/// Emit-cardinality bounds per UDF invocation (Definition 5 feeds on these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmitBounds {
    /// Minimum records emitted per invocation.
    pub min: u64,
    /// Maximum records emitted per invocation; `None` = unbounded (an
    /// `emit` lies on a control-flow cycle).
    pub max: Option<u64>,
}

impl EmitBounds {
    /// Exactly-one semantics: `|f(r)| = 1` on every path (KGP case 1 for
    /// record-at-a-time UDFs).
    pub fn exactly_one(&self) -> bool {
        self.min == 1 && self.max == Some(1)
    }

    /// At-most-one semantics: `|f(r)| ≤ 1` (filter shape; KGP case 2 needs
    /// this plus a control-read condition).
    pub fn at_most_one(&self) -> bool {
        self.max == Some(1) || self.max == Some(0)
    }
}

impl fmt::Display for EmitBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.max {
            Some(m) => write!(f, "[{}, {}]", self.min, m),
            None => write!(f, "[{}, ∞)", self.min),
        }
    }
}

/// Conservative, *local* (pre-binding) properties of one UDF, in terms of
/// local field indices. The dataflow layer maps these onto global-record
/// attributes through the redirection maps α.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalProps {
    /// Fields read and used (the read set of Definition 3, conservatively).
    pub reads: BTreeSet<InField>,
    /// Fields whose values may influence branch decisions (and thereby the
    /// emit decision) — the basis of the KGP filter condition.
    pub control_reads: BTreeSet<InField>,
    /// Inputs accessed with a **dynamic** field index: every field of the
    /// input must be assumed read (and control-read if the value reaches a
    /// branch).
    pub dynamic_read_inputs: BTreeSet<u8>,
    /// Inputs whose dynamically-read values reach a branch condition: every
    /// field of the input must be assumed a control read.
    pub dynamic_control_inputs: BTreeSet<u8>,
    /// Output fields `< Σ#I` possibly changed by some emitted record
    /// (explicit modifications, explicit projections, copies from the wrong
    /// position, or implicit projection).
    pub written_base: BTreeSet<usize>,
    /// Bitmask of inputs implicitly copied by **every** emit path (via
    /// copy/concat constructors). Attributes outside the UDF's local schema
    /// that flow through input `i` are preserved iff bit `i` is set.
    pub copied_inputs: u8,
    /// Some `setField` used a dynamic index: every output field must be
    /// assumed written.
    pub dynamic_write: bool,
    /// Output fields `≥ Σ#I` that are set: new global attributes
    /// (Definition 2, case 1).
    pub added: BTreeSet<usize>,
    /// Emit-cardinality bounds per invocation.
    pub emits: EmitBounds,
    /// The **first-record-only** proof (Group UDFs only): the UDF reads at
    /// most the first record of its group and never its size, so it cannot
    /// tell a group from the one-record group of that first record — same
    /// emitted records, same interpreter steps. See
    /// [`analyze`](crate::analyze) for the structural conditions.
    pub first_record_only: bool,
}

impl LocalProps {
    /// `true` iff input `i` is implicitly copied on every emit path.
    pub fn copies_input(&self, i: u8) -> bool {
        self.copied_inputs & (1 << i) != 0
    }

    /// `true` when the UDF provably changes no pass-through attribute
    /// (its write set is limited to `added` fields).
    pub fn preserves_all_base(&self) -> bool {
        self.written_base.is_empty() && !self.dynamic_write
    }
}

impl fmt::Display for LocalProps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "reads:          {:?}", self.reads)?;
        writeln!(f, "control reads:  {:?}", self.control_reads)?;
        if !self.dynamic_read_inputs.is_empty() {
            writeln!(f, "dynamic reads:  inputs {:?}", self.dynamic_read_inputs)?;
        }
        writeln!(f, "written (base): {:?}", self.written_base)?;
        writeln!(f, "copied inputs:  {:#04b}", self.copied_inputs)?;
        if self.dynamic_write {
            writeln!(f, "dynamic write:  yes")?;
        }
        writeln!(f, "added fields:   {:?}", self.added)?;
        if self.first_record_only {
            writeln!(f, "first record:   only")?;
        }
        write!(f, "emit bounds:    {}", self.emits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_bounds_predicates() {
        assert!(EmitBounds {
            min: 1,
            max: Some(1)
        }
        .exactly_one());
        assert!(!EmitBounds {
            min: 0,
            max: Some(1)
        }
        .exactly_one());
        assert!(EmitBounds {
            min: 0,
            max: Some(1)
        }
        .at_most_one());
        assert!(EmitBounds {
            min: 0,
            max: Some(0)
        }
        .at_most_one());
        assert!(!EmitBounds { min: 0, max: None }.at_most_one());
        assert!(!EmitBounds {
            min: 0,
            max: Some(2)
        }
        .at_most_one());
    }

    #[test]
    fn emit_bounds_display() {
        assert_eq!(
            format!(
                "{}",
                EmitBounds {
                    min: 1,
                    max: Some(3)
                }
            ),
            "[1, 3]"
        );
        assert_eq!(format!("{}", EmitBounds { min: 0, max: None }), "[0, ∞)");
    }

    #[test]
    fn copies_input_mask() {
        let p = LocalProps {
            reads: BTreeSet::new(),
            control_reads: BTreeSet::new(),
            dynamic_read_inputs: BTreeSet::new(),
            dynamic_control_inputs: BTreeSet::new(),
            written_base: BTreeSet::new(),
            copied_inputs: 0b01,
            dynamic_write: false,
            added: BTreeSet::new(),
            emits: EmitBounds {
                min: 1,
                max: Some(1),
            },
            first_record_only: false,
        };
        assert!(p.copies_input(0));
        assert!(!p.copies_input(1));
        assert!(p.preserves_all_base());
    }
}
