//! Declarative plan descriptions: a pure-data flow specification that
//! compiles to a bound [`Plan`].
//!
//! [`ProgramBuilder`] requires the caller to
//! construct UDFs as three-address code — fine inside the process, but a
//! network client submitting a dataflow cannot ship IR builders. This
//! module is the bridge: a [`FlowSpec`] is a plain tree of sources and
//! operators whose UDFs are chosen from a small declarative catalog
//! ([`MapUdf`], [`ReduceUdf`], [`CoGroupUdf`]), each of which compiles to
//! the same IR shapes the in-process workloads use. The optimizer still
//! sees nothing but black-box three-address code — the catalog is a
//! *convenience for plan transport*, not a semantic side channel: every
//! property used for reordering is rediscovered by SCA from the generated
//! IR.
//!
//! The specification is deliberately serde-free: it is ordinary owned data
//! (`String`s, `Vec`s, [`Value`]s) that any codec — the JSON layer of
//! `strato-server`, a test, a config file parser — can construct by hand.
//!
//! ```
//! use strato_dataflow::spec::{
//!     CmpOp, FlowSpec, FoldOp, MapUdf, NodeSpec, OpSpec, ReduceUdf, SourceSpec,
//! };
//!
//! // source "s"(k, v) → filter v >= 0 → per-k in-place Σv
//! let flow = FlowSpec::new(NodeSpec::op(
//!     OpSpec::reduce("sum", &[0], ReduceUdf::fold_inplace(FoldOp::Sum, 1)),
//!     vec![NodeSpec::op(
//!         OpSpec::map("pos", MapUdf::filter_cmp(1, CmpOp::Ge, 0i64)),
//!         vec![NodeSpec::source(SourceSpec::new("s", &["k", "v"], 1_000))],
//!     )],
//! ));
//! let plan = flow.build().expect("valid spec");
//! assert_eq!(plan.ctx.ops.len(), 2);
//! ```

use crate::operator::CostHints;
use crate::plan::Plan;
use crate::program::{NodeHandle, ProgramBuilder, ProgramError, SourceDef};
use strato_ir::{BinOp, FuncBuilder, Function, UdfKind};
use strato_record::Value;

/// Errors detected while compiling a [`FlowSpec`] into a [`Plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The underlying program failed structural validation (width or key
    /// mismatches, arity errors).
    Program(ProgramError),
    /// The spec itself is malformed (duplicate source name, field index
    /// outside the schema, empty key, …). The string names the offender.
    Invalid(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Program(e) => write!(f, "invalid program: {e}"),
            SpecError::Invalid(msg) => write!(f, "invalid flow spec: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<ProgramError> for SpecError {
    fn from(e: ProgramError) -> Self {
        SpecError::Program(e)
    }
}

/// A data source in a flow specification. Mirrors
/// [`SourceDef`] as plain data.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceSpec {
    /// Source name; input data sets are keyed by it at execution time.
    pub name: String,
    /// Field names in schema order.
    pub fields: Vec<String>,
    /// Estimated row count (cost model input).
    pub est_rows: u64,
    /// Estimated bytes per row; `None` derives `16 × arity`.
    pub bytes_per_row: Option<u64>,
    /// Field-index sets that are unique keys of this source.
    pub unique_keys: Vec<Vec<usize>>,
}

impl SourceSpec {
    /// A source with default byte estimates and no unique keys.
    pub fn new(name: impl Into<String>, fields: &[&str], est_rows: u64) -> Self {
        SourceSpec {
            name: name.into(),
            fields: fields.iter().map(|s| s.to_string()).collect(),
            est_rows,
            bytes_per_row: None,
            unique_keys: Vec::new(),
        }
    }

    /// Declares a unique key (set of field indices).
    pub fn with_unique_key(mut self, key: &[usize]) -> Self {
        self.unique_keys.push(key.to_vec());
        self
    }
}

/// Comparison operators available to [`MapUdf::Filter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
}

impl CmpOp {
    fn bin(self) -> BinOp {
        match self {
            CmpOp::Eq => BinOp::Eq,
            CmpOp::Ne => BinOp::Ne,
            CmpOp::Lt => BinOp::Lt,
            CmpOp::Le => BinOp::Le,
            CmpOp::Gt => BinOp::Gt,
            CmpOp::Ge => BinOp::Ge,
        }
    }

    /// The spec keyword (`"eq"`, `"ne"`, …), as codecs accept it.
    pub fn keyword(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }

    /// Parses a spec keyword.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "eq" => CmpOp::Eq,
            "ne" => CmpOp::Ne,
            "lt" => CmpOp::Lt,
            "le" => CmpOp::Le,
            "gt" => CmpOp::Gt,
            "ge" => CmpOp::Ge,
            _ => return None,
        })
    }
}

/// Fold operators available to [`ReduceUdf::Fold`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldOp {
    /// `Σ` (integer wrap-around).
    Sum,
    /// `Π` (integer wrap-around).
    Product,
    /// Minimum under the total value order.
    Min,
    /// Maximum under the total value order.
    Max,
}

impl FoldOp {
    fn bin(self) -> BinOp {
        match self {
            FoldOp::Sum => BinOp::Add,
            FoldOp::Product => BinOp::Mul,
            FoldOp::Min => BinOp::Min,
            FoldOp::Max => BinOp::Max,
        }
    }

    /// Neutral (or safely absorbing) initial accumulator value.
    fn init(self) -> i64 {
        match self {
            FoldOp::Sum => 0,
            FoldOp::Product => 1,
            FoldOp::Min => i64::MAX,
            FoldOp::Max => i64::MIN,
        }
    }

    /// The spec keyword (`"sum"`, `"product"`, `"min"`, `"max"`).
    pub fn keyword(self) -> &'static str {
        match self {
            FoldOp::Sum => "sum",
            FoldOp::Product => "product",
            FoldOp::Min => "min",
            FoldOp::Max => "max",
        }
    }

    /// Parses a spec keyword.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "sum" => FoldOp::Sum,
            "product" => FoldOp::Product,
            "min" => FoldOp::Min,
            "max" => FoldOp::Max,
            _ => return None,
        })
    }
}

/// Map UDF catalog.
#[derive(Debug, Clone, PartialEq)]
pub enum MapUdf {
    /// Emit every input record unchanged.
    Identity,
    /// Emit the record iff `field ⟨cmp⟩ value`.
    Filter {
        /// Local field index tested.
        field: usize,
        /// Comparison operator.
        cmp: CmpOp,
        /// Constant compared against.
        value: Value,
    },
    /// Emit the record iff `lo ≤ field ≤ hi` (integer range filter).
    FilterRange {
        /// Local field index tested.
        field: usize,
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// Burn `units` of deterministic CPU work seeded by `field`, then emit
    /// the record with the checksum appended as a new field. Models an
    /// expensive opaque component (the paper's NLP/ML extractors); useful
    /// for exercising cost-based reordering and admission control from the
    /// network API.
    Burn {
        /// Local field index seeding the busy work.
        field: usize,
        /// CPU units to burn per record.
        units: i64,
    },
}

impl MapUdf {
    /// Convenience constructor for [`MapUdf::Filter`].
    pub fn filter_cmp(field: usize, cmp: CmpOp, value: impl Into<Value>) -> Self {
        MapUdf::Filter {
            field,
            cmp,
            value: value.into(),
        }
    }

    /// Output width for input width `w`.
    fn out_width(&self, w: usize) -> usize {
        match self {
            MapUdf::Identity | MapUdf::Filter { .. } | MapUdf::FilterRange { .. } => w,
            MapUdf::Burn { .. } => w + 1,
        }
    }

    fn compile(&self, name: &str, w: usize) -> Result<Function, SpecError> {
        let check = |field: usize| {
            if field >= w {
                Err(SpecError::Invalid(format!(
                    "map {name}: field {field} outside input width {w}"
                )))
            } else {
                Ok(())
            }
        };
        let mut b = FuncBuilder::new(name, UdfKind::Map, vec![w]);
        match self {
            MapUdf::Identity => {
                let or = b.copy_input(0);
                b.emit(or);
            }
            MapUdf::Filter { field, cmp, value } => {
                check(*field)?;
                let v = b.get_input(0, *field);
                let c = b.konst(value.clone());
                let keep = b.bin(cmp.bin(), v, c);
                let end = b.new_label();
                b.branch_not(keep, end);
                let or = b.copy_input(0);
                b.emit(or);
                b.place(end);
            }
            MapUdf::FilterRange { field, lo, hi } => {
                check(*field)?;
                let v = b.get_input(0, *field);
                let lo_c = b.konst(*lo);
                let hi_c = b.konst(*hi);
                let ge = b.bin(BinOp::Ge, v, lo_c);
                let le = b.bin(BinOp::Le, v, hi_c);
                let keep = b.bin(BinOp::And, ge, le);
                let end = b.new_label();
                b.branch_not(keep, end);
                let or = b.copy_input(0);
                b.emit(or);
                b.place(end);
            }
            MapUdf::Burn { field, units } => {
                check(*field)?;
                let seed = b.get_input(0, *field);
                let cost = b.konst((*units).max(0));
                let checksum = b.call(strato_ir::Intrinsic::Burn, vec![cost, seed]);
                let or = b.copy_input(0);
                b.set(or, w, checksum);
                b.emit(or);
            }
        }
        b.ret();
        b.finish()
            .map_err(|e| SpecError::Invalid(format!("map {name}: {e:?}")))
    }
}

/// Reduce UDF catalog.
#[derive(Debug, Clone, PartialEq)]
pub enum ReduceUdf {
    /// Fold `⊕ field` over the group. With `append = false` the total
    /// overwrites the field it was read from in the group's first record;
    /// with `append = true` it lands in a new field past the input schema.
    Fold {
        /// The fold operator.
        op: FoldOp,
        /// Local field index folded over.
        field: usize,
        /// Append the total as a new field instead of folding in place.
        append: bool,
    },
    /// Append the group's record count as a new field.
    Count,
}

impl ReduceUdf {
    /// In-place fold.
    pub fn fold_inplace(op: FoldOp, field: usize) -> Self {
        ReduceUdf::Fold {
            op,
            field,
            append: false,
        }
    }

    fn out_width(&self, w: usize) -> usize {
        match self {
            ReduceUdf::Fold { append: false, .. } => w,
            ReduceUdf::Fold { append: true, .. } | ReduceUdf::Count => w + 1,
        }
    }

    fn compile(&self, name: &str, w: usize) -> Result<Function, SpecError> {
        let mut b = FuncBuilder::new(name, UdfKind::Group, vec![w]);
        match self {
            ReduceUdf::Fold { op, field, append } => {
                if *field >= w {
                    return Err(SpecError::Invalid(format!(
                        "reduce {name}: field {field} outside input width {w}"
                    )));
                }
                let acc = b.konst(op.init());
                let it = b.iter_open(0);
                let done = b.new_label();
                let head = b.new_label();
                b.place(head);
                let r = b.iter_next(it, done);
                let v = b.get(r, *field);
                b.bin_into(acc, op.bin(), acc, v);
                b.jump(head);
                b.place(done);
                let it2 = b.iter_open(0);
                let nil = b.new_label();
                let first = b.iter_next(it2, nil);
                let or = b.copy(first);
                b.set(or, if *append { w } else { *field }, acc);
                b.emit(or);
                b.place(nil);
            }
            ReduceUdf::Count => {
                let n = b.group_count(0);
                let it = b.iter_open(0);
                let nil = b.new_label();
                let first = b.iter_next(it, nil);
                let or = b.copy(first);
                b.set(or, w, n);
                b.emit(or);
                b.place(nil);
            }
        }
        b.ret();
        b.finish()
            .map_err(|e| SpecError::Invalid(format!("reduce {name}: {e:?}")))
    }
}

/// CoGroup UDF catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoGroupUdf {
    /// Emit one record per key carrying `|left group| − |right group|` in a
    /// new field past the concatenated input schemas.
    CountDiff,
}

impl CoGroupUdf {
    fn out_width(&self, wl: usize, wr: usize) -> usize {
        match self {
            CoGroupUdf::CountDiff => wl + wr + 1,
        }
    }

    fn compile(&self, name: &str, wl: usize, wr: usize) -> Result<Function, SpecError> {
        let mut b = FuncBuilder::new(name, UdfKind::CoGroup, vec![wl, wr]);
        match self {
            CoGroupUdf::CountDiff => {
                let nl = b.group_count(0);
                let nr = b.group_count(1);
                let d = b.bin(BinOp::Sub, nl, nr);
                let or = b.new_rec();
                b.set(or, wl + wr, d);
                b.emit(or);
            }
        }
        b.ret();
        b.finish()
            .map_err(|e| SpecError::Invalid(format!("cogroup {name}: {e:?}")))
    }
}

/// The second-order function of an [`OpSpec`], with its keys and UDF.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKindSpec {
    /// Record-at-a-time Map.
    Map(MapUdf),
    /// Key-at-a-time Reduce grouping on `key` (local field indices).
    Reduce {
        /// Grouping key (local field indices of the input).
        key: Vec<usize>,
        /// The group UDF.
        udf: ReduceUdf,
    },
    /// Equi-join; the UDF concatenates the matched pair.
    Match {
        /// Join key on the left input.
        key_left: Vec<usize>,
        /// Join key on the right input.
        key_right: Vec<usize>,
    },
    /// Cartesian product; the UDF concatenates the pair.
    Cross,
    /// CoGroup on a key per side.
    CoGroup {
        /// Grouping key on the left input.
        key_left: Vec<usize>,
        /// Grouping key on the right input.
        key_right: Vec<usize>,
        /// The co-group UDF.
        udf: CoGroupUdf,
    },
}

/// Cost hints as plain data (all optional; defaults mirror
/// [`CostHints::default`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HintSpec {
    /// Average records emitted per UDF call.
    pub selectivity: Option<f64>,
    /// CPU cost units per UDF call.
    pub cpu: Option<f64>,
    /// Distinct values of the key set.
    pub distinct_keys: Option<u64>,
    /// Average bytes per output record.
    pub record_bytes: Option<u64>,
}

impl HintSpec {
    fn to_hints(self) -> CostHints {
        let mut h = CostHints::default();
        if let Some(s) = self.selectivity {
            h.avg_emits_per_call = s;
        }
        if let Some(c) = self.cpu {
            h.cpu_per_call = c;
        }
        h.distinct_keys = self.distinct_keys;
        h.avg_record_bytes = self.record_bytes;
        h
    }
}

/// An operator node of a flow specification.
#[derive(Debug, Clone, PartialEq)]
pub struct OpSpec {
    /// Diagnostic name; also the per-operator metrics label.
    pub name: String,
    /// PACT + keys + UDF.
    pub kind: OpKindSpec,
    /// Cost hints.
    pub hints: HintSpec,
}

impl OpSpec {
    /// A Map operator spec.
    pub fn map(name: impl Into<String>, udf: MapUdf) -> Self {
        OpSpec {
            name: name.into(),
            kind: OpKindSpec::Map(udf),
            hints: HintSpec::default(),
        }
    }

    /// A Reduce operator spec.
    pub fn reduce(name: impl Into<String>, key: &[usize], udf: ReduceUdf) -> Self {
        OpSpec {
            name: name.into(),
            kind: OpKindSpec::Reduce {
                key: key.to_vec(),
                udf,
            },
            hints: HintSpec::default(),
        }
    }

    /// An equi-join (Match) operator spec.
    pub fn match_(name: impl Into<String>, key_left: &[usize], key_right: &[usize]) -> Self {
        OpSpec {
            name: name.into(),
            kind: OpKindSpec::Match {
                key_left: key_left.to_vec(),
                key_right: key_right.to_vec(),
            },
            hints: HintSpec::default(),
        }
    }

    /// Attaches cost hints.
    pub fn with_hints(mut self, hints: HintSpec) -> Self {
        self.hints = hints;
        self
    }
}

/// One node of the flow tree: a source or an operator over child nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeSpec {
    /// A leaf source.
    Source(SourceSpec),
    /// An operator applied to child flows.
    Op {
        /// The operator.
        op: OpSpec,
        /// Child nodes (1 for Map/Reduce, 2 for Match/Cross/CoGroup).
        inputs: Vec<NodeSpec>,
    },
}

impl NodeSpec {
    /// A source leaf.
    pub fn source(s: SourceSpec) -> Self {
        NodeSpec::Source(s)
    }

    /// An operator node.
    pub fn op(op: OpSpec, inputs: Vec<NodeSpec>) -> Self {
        NodeSpec::Op { op, inputs }
    }
}

/// A complete flow specification: the root node of the operator tree.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Root of the flow (the sink's input).
    pub root: NodeSpec,
}

impl FlowSpec {
    /// Wraps a root node.
    pub fn new(root: NodeSpec) -> Self {
        FlowSpec { root }
    }

    /// Compiles the specification into a bound [`Plan`]: instantiates every
    /// catalog UDF as three-address code at the node's actual input width,
    /// assembles the program through [`ProgramBuilder`] and binds it
    /// (global record, redirection maps, SCA).
    pub fn build(&self) -> Result<Plan, SpecError> {
        let mut names = std::collections::HashSet::new();
        collect_source_names(&self.root, &mut names)?;
        let mut b = ProgramBuilder::new();
        let (root, _w) = build_node(&mut b, &self.root)?;
        Ok(b.finish(root)?.bind()?)
    }
}

fn collect_source_names<'a>(
    node: &'a NodeSpec,
    seen: &mut std::collections::HashSet<&'a str>,
) -> Result<(), SpecError> {
    match node {
        NodeSpec::Source(s) => {
            if s.fields.is_empty() {
                return Err(SpecError::Invalid(format!("source {}: no fields", s.name)));
            }
            if !seen.insert(&s.name) {
                return Err(SpecError::Invalid(format!(
                    "duplicate source name {:?} (inputs are keyed by name)",
                    s.name
                )));
            }
        }
        NodeSpec::Op { inputs, .. } => {
            for c in inputs {
                collect_source_names(c, seen)?;
            }
        }
    }
    Ok(())
}

/// Builds one node, returning its handle and output width.
fn build_node(b: &mut ProgramBuilder, node: &NodeSpec) -> Result<(NodeHandle, usize), SpecError> {
    match node {
        NodeSpec::Source(s) => {
            let mut def = SourceDef::new(
                s.name.clone(),
                &s.fields.iter().map(String::as_str).collect::<Vec<_>>(),
                s.est_rows,
            );
            if let Some(bpr) = s.bytes_per_row {
                def = def.with_bytes_per_row(bpr);
            }
            for k in &s.unique_keys {
                def = def.with_unique_key(k);
            }
            let w = s.fields.len();
            Ok((b.source(def), w))
        }
        NodeSpec::Op { op, inputs } => {
            let arity = match &op.kind {
                OpKindSpec::Map(_) | OpKindSpec::Reduce { .. } => 1,
                OpKindSpec::Match { .. } | OpKindSpec::Cross | OpKindSpec::CoGroup { .. } => 2,
            };
            if inputs.len() != arity {
                return Err(SpecError::Invalid(format!(
                    "operator {}: expected {arity} input(s), got {}",
                    op.name,
                    inputs.len()
                )));
            }
            let mut kids = Vec::new();
            for c in inputs {
                kids.push(build_node(b, c)?);
            }
            let hints = op.hints.to_hints();
            match &op.kind {
                OpKindSpec::Map(udf) => {
                    let (child, w) = kids.pop().expect("arity checked");
                    let f = udf.compile(&op.name, w)?;
                    let out = udf.out_width(w);
                    Ok((b.map(&op.name, f, hints, child), out))
                }
                OpKindSpec::Reduce { key, udf } => {
                    let (child, w) = kids.pop().expect("arity checked");
                    check_key(&op.name, key, w)?;
                    let f = udf.compile(&op.name, w)?;
                    let out = udf.out_width(w);
                    Ok((b.reduce(&op.name, key, f, hints, child), out))
                }
                OpKindSpec::Match {
                    key_left,
                    key_right,
                } => {
                    let (right, wr) = kids.pop().expect("arity checked");
                    let (left, wl) = kids.pop().expect("arity checked");
                    check_key(&op.name, key_left, wl)?;
                    check_key(&op.name, key_right, wr)?;
                    if key_left.len() != key_right.len() {
                        return Err(SpecError::Invalid(format!(
                            "match {}: key arity mismatch ({} vs {})",
                            op.name,
                            key_left.len(),
                            key_right.len()
                        )));
                    }
                    let f = join_concat(&op.name, wl, wr)?;
                    Ok((
                        b.match_(&op.name, key_left, key_right, f, hints, left, right),
                        wl + wr,
                    ))
                }
                OpKindSpec::Cross => {
                    let (right, wr) = kids.pop().expect("arity checked");
                    let (left, wl) = kids.pop().expect("arity checked");
                    let f = join_concat(&op.name, wl, wr)?;
                    Ok((b.cross(&op.name, f, hints, left, right), wl + wr))
                }
                OpKindSpec::CoGroup {
                    key_left,
                    key_right,
                    udf,
                } => {
                    let (right, wr) = kids.pop().expect("arity checked");
                    let (left, wl) = kids.pop().expect("arity checked");
                    check_key(&op.name, key_left, wl)?;
                    check_key(&op.name, key_right, wr)?;
                    let f = udf.compile(&op.name, wl, wr)?;
                    let out = udf.out_width(wl, wr);
                    Ok((
                        b.cogroup(&op.name, key_left, key_right, f, hints, left, right),
                        out,
                    ))
                }
            }
        }
    }
}

fn check_key(op: &str, key: &[usize], w: usize) -> Result<(), SpecError> {
    if key.is_empty() {
        return Err(SpecError::Invalid(format!("operator {op}: empty key")));
    }
    if let Some(&f) = key.iter().find(|&&f| f >= w) {
        return Err(SpecError::Invalid(format!(
            "operator {op}: key field {f} outside input width {w}"
        )));
    }
    Ok(())
}

/// Pair UDF concatenating both inputs (the standard equi-join body).
fn join_concat(name: &str, wl: usize, wr: usize) -> Result<Function, SpecError> {
    let mut b = FuncBuilder::new(name, UdfKind::Pair, vec![wl, wr]);
    let or = b.concat_inputs();
    b.emit(or);
    b.ret();
    b.finish()
        .map_err(|e| SpecError::Invalid(format!("join {name}: {e:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PropertyMode;

    fn agg_flow() -> FlowSpec {
        FlowSpec::new(NodeSpec::op(
            OpSpec::reduce("sum", &[0], ReduceUdf::fold_inplace(FoldOp::Sum, 1)),
            vec![NodeSpec::op(
                OpSpec::map("pos", MapUdf::filter_cmp(1, CmpOp::Ge, 0i64)).with_hints(HintSpec {
                    selectivity: Some(0.9),
                    ..HintSpec::default()
                }),
                vec![NodeSpec::source(SourceSpec::new("s", &["k", "v"], 1_000))],
            )],
        ))
    }

    #[test]
    fn spec_builds_bound_plan() {
        let plan = agg_flow().build().unwrap();
        assert_eq!(plan.ctx.ops.len(), 2);
        assert_eq!(plan.ctx.sources.len(), 1);
        let sum = plan.ctx.ops.iter().find(|o| o.name == "sum").unwrap();
        assert_eq!(sum.udf.output_width(), 2, "in-place fold keeps the width");
        let _ = plan.ctx.ops[0].props(PropertyMode::Sca);
    }

    #[test]
    fn appended_fold_and_count_widths() {
        let flow = FlowSpec::new(NodeSpec::op(
            OpSpec::reduce(
                "cnt",
                &[0],
                ReduceUdf::Fold {
                    op: FoldOp::Max,
                    field: 1,
                    append: true,
                },
            ),
            vec![NodeSpec::source(SourceSpec::new("s", &["k", "v"], 10))],
        ));
        let plan = flow.build().unwrap();
        let op = &plan.ctx.ops[0];
        assert_eq!(op.udf.output_width(), 3, "appended fold widens by one");

        let flow = FlowSpec::new(NodeSpec::op(
            OpSpec::reduce("c", &[0], ReduceUdf::Count),
            vec![NodeSpec::source(SourceSpec::new("s", &["k"], 10))],
        ));
        assert_eq!(flow.build().unwrap().ctx.ops[0].udf.output_width(), 2);
    }

    #[test]
    fn binary_specs_build() {
        let join = FlowSpec::new(NodeSpec::op(
            OpSpec::match_("j", &[0], &[0]),
            vec![
                NodeSpec::source(SourceSpec::new("l", &["k", "v"], 100)),
                NodeSpec::source(SourceSpec::new("r", &["k2"], 10).with_unique_key(&[0])),
            ],
        ));
        let plan = join.build().unwrap();
        assert_eq!(plan.ctx.ops[0].udf.output_width(), 3);

        let cg = FlowSpec::new(NodeSpec::op(
            OpSpec {
                name: "cg".into(),
                kind: OpKindSpec::CoGroup {
                    key_left: vec![0],
                    key_right: vec![0],
                    udf: CoGroupUdf::CountDiff,
                },
                hints: HintSpec::default(),
            },
            vec![
                NodeSpec::source(SourceSpec::new("l", &["k"], 10)),
                NodeSpec::source(SourceSpec::new("r", &["k2"], 10)),
            ],
        ));
        assert_eq!(cg.build().unwrap().ctx.ops[0].udf.output_width(), 3);

        let cross = FlowSpec::new(NodeSpec::op(
            OpSpec {
                name: "x".into(),
                kind: OpKindSpec::Cross,
                hints: HintSpec::default(),
            },
            vec![
                NodeSpec::source(SourceSpec::new("a", &["p"], 4)),
                NodeSpec::source(SourceSpec::new("b", &["q"], 4)),
            ],
        ));
        assert_eq!(cross.build().unwrap().ctx.ops[0].udf.output_width(), 2);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        // Duplicate source name.
        let dup = FlowSpec::new(NodeSpec::op(
            OpSpec::match_("j", &[0], &[0]),
            vec![
                NodeSpec::source(SourceSpec::new("s", &["k"], 1)),
                NodeSpec::source(SourceSpec::new("s", &["k"], 1)),
            ],
        ));
        assert!(matches!(dup.build(), Err(SpecError::Invalid(_))));

        // Key outside the schema.
        let oob = FlowSpec::new(NodeSpec::op(
            OpSpec::reduce("r", &[3], ReduceUdf::Count),
            vec![NodeSpec::source(SourceSpec::new("s", &["k"], 1))],
        ));
        assert!(matches!(oob.build(), Err(SpecError::Invalid(_))));

        // Filter field outside the schema.
        let oob = FlowSpec::new(NodeSpec::op(
            OpSpec::map("m", MapUdf::filter_cmp(9, CmpOp::Eq, 1i64)),
            vec![NodeSpec::source(SourceSpec::new("s", &["k"], 1))],
        ));
        assert!(matches!(oob.build(), Err(SpecError::Invalid(_))));

        // Wrong arity.
        let arity = FlowSpec::new(NodeSpec::op(
            OpSpec::map("m", MapUdf::Identity),
            vec![
                NodeSpec::source(SourceSpec::new("a", &["k"], 1)),
                NodeSpec::source(SourceSpec::new("b", &["k"], 1)),
            ],
        ));
        assert!(matches!(arity.build(), Err(SpecError::Invalid(_))));

        // Mismatched join key arity.
        let keys = FlowSpec::new(NodeSpec::op(
            OpSpec::match_("j", &[0], &[0, 0]),
            vec![
                NodeSpec::source(SourceSpec::new("a", &["k"], 1)),
                NodeSpec::source(SourceSpec::new("b", &["k"], 1)),
            ],
        ));
        assert!(matches!(keys.build(), Err(SpecError::Invalid(_))));

        // Empty key.
        let empty = FlowSpec::new(NodeSpec::op(
            OpSpec::reduce("r", &[], ReduceUdf::Count),
            vec![NodeSpec::source(SourceSpec::new("s", &["k"], 1))],
        ));
        assert!(matches!(empty.build(), Err(SpecError::Invalid(_))));
    }

    #[test]
    fn keyword_round_trips() {
        for c in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(CmpOp::parse(c.keyword()), Some(c));
        }
        for f in [FoldOp::Sum, FoldOp::Product, FoldOp::Min, FoldOp::Max] {
            assert_eq!(FoldOp::parse(f.keyword()), Some(f));
        }
        assert_eq!(CmpOp::parse("nope"), None);
        assert_eq!(FoldOp::parse("nope"), None);
    }
}
