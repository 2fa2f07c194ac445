//! Bound plans: global record, redirection maps, and the reorderable tree.
//!
//! Binding walks the program bottom-up and realizes Definition 1 of the
//! paper: every base attribute (from sources) and intermediate attribute
//! (fields a UDF adds beyond its input schemas) receives a unique global
//! identity, and every operator gets redirection maps α translating its
//! local field accesses to global positions. Because execution operates on
//! global-layout tuples, a [`Plan`]'s operator tree can be rearranged freely
//! (by the optimizer) without touching UDF code — the paper's
//! "non-intrusive" requirement.

use crate::operator::{CostHints, Operator};
use crate::pact::Pact;
use crate::program::{BNode, Program, ProgramError, SourceDef};
use std::fmt;
use std::sync::Arc;
use strato_ir::interp::Layout;
use strato_ir::Function;
use strato_record::{AttrId, AttrSet, GlobalRecord, Redirection};
use strato_sca::LocalProps;

/// Which property source the optimizer consults — the two columns of
/// Table 1 in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PropertyMode {
    /// Properties derived by static code analysis of the UDF.
    Sca,
    /// Manually attached annotations (falling back to SCA where absent).
    Manual,
}

/// A bound source: its global attributes and uniqueness constraints.
#[derive(Debug, Clone)]
pub struct BoundSource {
    /// Source name.
    pub name: String,
    /// Global attribute per schema field.
    pub attrs: Vec<AttrId>,
    /// Unique keys, as global attribute sets.
    pub unique: Vec<AttrSet>,
    /// Estimated row count.
    pub est_rows: u64,
    /// Estimated bytes per row.
    pub est_bytes_per_row: u64,
}

/// A bound operator: the operator plus its α maps, global key attributes
/// and analysis results. Immutable once bound; shared by every reordered
/// alternative of the plan.
#[derive(Debug, Clone)]
pub struct BoundOp {
    /// Operator name.
    pub name: String,
    /// The PACT with local key indices.
    pub pact: Pact,
    /// The UDF.
    pub udf: Arc<Function>,
    /// Redirection maps for the interpreter.
    pub layout: Layout,
    /// Global key attributes per input (`[keys]` for Reduce;
    /// `[left, right]` for Match/CoGroup; empty otherwise).
    pub key_attrs: Vec<Vec<AttrId>>,
    /// Properties derived by static code analysis.
    pub sca_props: LocalProps,
    /// Manual annotations, if provided.
    pub manual_props: Option<LocalProps>,
    /// Cost hints.
    pub hints: CostHints,
    /// Global attributes this operator adds to the record (α of its added
    /// fields).
    pub added_attrs: Vec<AttrId>,
}

impl BoundOp {
    /// The properties under the chosen mode.
    pub fn props(&self, mode: PropertyMode) -> &LocalProps {
        match mode {
            PropertyMode::Sca => &self.sca_props,
            PropertyMode::Manual => self.manual_props.as_ref().unwrap_or(&self.sca_props),
        }
    }

    /// All global attributes of input `i`'s schema.
    pub fn input_attrs(&self, i: usize) -> AttrSet {
        self.layout.inputs[i].attr_set()
    }

    /// Global key attributes of input `i` as a set.
    pub fn key_set(&self, i: usize) -> AttrSet {
        self.key_attrs
            .get(i)
            .map(|k| k.iter().copied().collect())
            .unwrap_or_default()
    }
}

/// Identity of a node in a plan tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeKind {
    /// A data source (index into [`PlanCtx::sources`]).
    Source(usize),
    /// An operator (index into [`PlanCtx::ops`]).
    Op(usize),
}

/// One node of a plan tree. Trees are persistent: reordering builds new
/// spines and shares unchanged subtrees via [`Arc`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanNode {
    /// What this node is.
    pub kind: NodeKind,
    /// Child subtrees (empty for sources).
    pub children: Vec<Arc<PlanNode>>,
}

impl PlanNode {
    /// Creates a source leaf.
    pub fn source(id: usize) -> Arc<PlanNode> {
        Arc::new(PlanNode {
            kind: NodeKind::Source(id),
            children: vec![],
        })
    }

    /// Creates an operator node.
    pub fn op(id: usize, children: Vec<Arc<PlanNode>>) -> Arc<PlanNode> {
        Arc::new(PlanNode {
            kind: NodeKind::Op(id),
            children,
        })
    }

    /// Canonical textual form — the memo-table key of the enumeration
    /// algorithm (`getMTabKey` in Algorithm 1).
    pub fn canonical(&self) -> String {
        let mut s = String::new();
        self.write_canonical(&mut s);
        s
    }

    fn write_canonical(&self, s: &mut String) {
        match self.kind {
            NodeKind::Source(i) => {
                s.push('s');
                s.push_str(&i.to_string());
            }
            NodeKind::Op(i) => {
                s.push('(');
                s.push_str(&i.to_string());
                for c in &self.children {
                    s.push(' ');
                    c.write_canonical(s);
                }
                s.push(')');
            }
        }
    }

    /// Number of operator nodes in this subtree.
    pub fn n_ops(&self) -> usize {
        let own = matches!(self.kind, NodeKind::Op(_)) as usize;
        own + self.children.iter().map(|c| c.n_ops()).sum::<usize>()
    }
}

/// Shared, immutable context of all alternatives of one bound program.
#[derive(Debug)]
pub struct PlanCtx {
    /// The global record (Definition 1).
    pub global: GlobalRecord,
    /// All bound operators, indexed by op id.
    pub ops: Vec<BoundOp>,
    /// All bound sources, indexed by source id.
    pub sources: Vec<BoundSource>,
}

impl PlanCtx {
    /// Global-record width (tuple width during execution).
    pub fn width(&self) -> usize {
        self.global.width()
    }
}

/// A bound, executable, reorderable data flow plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Shared context (global record, operators, sources).
    pub ctx: Arc<PlanCtx>,
    /// Root of the operator tree (the sink's input).
    pub root: Arc<PlanNode>,
}

impl Plan {
    /// Binds a program (see module docs).
    pub(crate) fn bind(p: &Program) -> Result<Plan, ProgramError> {
        let mut global = GlobalRecord::new();
        let mut sources: Vec<Option<BoundSource>> = vec![None; p.sources.len()];
        // Output redirection per program node.
        let mut out_redir: Vec<Option<Redirection>> = vec![None; p.nodes.len()];
        let mut bound_ops: Vec<Option<BoundOp>> = (0..p.ops.len()).map(|_| None).collect();

        // Bottom-up over the tree (post-order from the root).
        let order = post_order(p);
        for &n in &order {
            match &p.nodes[n] {
                BNode::Source(sid) => {
                    let def: &SourceDef = &p.sources[*sid];
                    let attrs: Vec<AttrId> = def
                        .fields
                        .iter()
                        .map(|f| global.add(format!("{}.{}", def.name, f)))
                        .collect();
                    let unique = def
                        .unique_keys
                        .iter()
                        .map(|k| k.iter().map(|&i| attrs[i]).collect())
                        .collect();
                    sources[*sid] = Some(BoundSource {
                        name: def.name.clone(),
                        attrs: attrs.clone(),
                        unique,
                        est_rows: def.est_rows,
                        est_bytes_per_row: def.est_bytes_per_row,
                    });
                    out_redir[n] = Some(Redirection::new(attrs));
                }
                BNode::Op { op, children } => {
                    let operator: &Operator = &p.ops[*op];
                    let input_redirs: Vec<Redirection> = children
                        .iter()
                        .map(|&c| out_redir[c].clone().expect("post-order"))
                        .collect();
                    // Output α: concatenated inputs followed by new attrs.
                    let mut out: Vec<AttrId> = Vec::new();
                    for r in &input_redirs {
                        out.extend_from_slice(r.as_slice());
                    }
                    let mut added_attrs = Vec::new();
                    for k in 0..operator.udf.added_fields() {
                        let a = global.add(format!("{}.${}", operator.name, k));
                        added_attrs.push(a);
                        out.push(a);
                    }
                    let key_attrs: Vec<Vec<AttrId>> = (0..children.len())
                        .filter_map(|i| {
                            operator.pact.key_of_input(i).map(|key| {
                                key.iter()
                                    .map(|&f| input_redirs[i].get(f).expect("validated key"))
                                    .collect()
                            })
                        })
                        .collect();
                    let layout = Layout {
                        inputs: input_redirs,
                        output: Redirection::new(out.clone()),
                        width: 0, // patched below once |A| is known
                    };
                    bound_ops[*op] = Some(BoundOp {
                        name: operator.name.clone(),
                        pact: operator.pact.clone(),
                        udf: Arc::clone(&operator.udf),
                        layout,
                        key_attrs,
                        sca_props: strato_sca::analyze(&operator.udf),
                        manual_props: operator.manual_props.clone(),
                        hints: operator.hints.clone(),
                        added_attrs,
                    });
                    out_redir[n] = Some(Redirection::new(out));
                }
            }
        }

        let width = global.width();
        let mut ops: Vec<BoundOp> = bound_ops.into_iter().map(|o| o.expect("bound")).collect();
        for o in &mut ops {
            o.layout.width = width;
        }

        let root = build_tree(p, p.root);
        Ok(Plan {
            ctx: Arc::new(PlanCtx {
                global,
                ops,
                sources: sources.into_iter().map(|s| s.expect("bound")).collect(),
            }),
            root,
        })
    }

    /// Returns the same plan with a different operator tree (used by the
    /// enumerator; the context is shared).
    pub fn with_root(&self, root: Arc<PlanNode>) -> Plan {
        Plan {
            ctx: Arc::clone(&self.ctx),
            root,
        }
    }

    /// Returns a plan whose operators carry new cost hints (one per op id,
    /// e.g. from runtime profiling). The tree is unchanged; the shared
    /// context is cloned shallowly.
    pub fn with_hints(&self, hints: Vec<CostHints>) -> Plan {
        assert_eq!(hints.len(), self.ctx.ops.len(), "one hint set per operator");
        let mut ops = self.ctx.ops.clone();
        for (op, h) in ops.iter_mut().zip(hints) {
            op.hints = h;
        }
        Plan {
            ctx: Arc::new(PlanCtx {
                global: self.ctx.global.clone(),
                ops,
                sources: self.ctx.sources.clone(),
            }),
            root: self.root.clone(),
        }
    }

    /// The set of global attributes produced within a subtree: source
    /// attributes plus attributes added by operators of the subtree.
    pub fn attrs_of(&self, node: &PlanNode) -> AttrSet {
        let mut set = AttrSet::new();
        self.collect_attrs(node, &mut set);
        set
    }

    fn collect_attrs(&self, node: &PlanNode, set: &mut AttrSet) {
        match node.kind {
            NodeKind::Source(s) => {
                for &a in &self.ctx.sources[s].attrs {
                    set.insert(a);
                }
            }
            NodeKind::Op(o) => {
                for &a in &self.ctx.ops[o].added_attrs {
                    set.insert(a);
                }
                for c in &node.children {
                    self.collect_attrs(c, set);
                }
            }
        }
    }

    /// Canonical form of the whole plan (memo-table key).
    pub fn canonical(&self) -> String {
        self.root.canonical()
    }

    /// The operator ids of the tree in pre-order (diagnostics, tests).
    pub fn op_order(&self) -> Vec<usize> {
        let mut out = Vec::new();
        fn walk(n: &PlanNode, out: &mut Vec<usize>) {
            if let NodeKind::Op(o) = n.kind {
                out.push(o);
            }
            for c in &n.children {
                walk(c, out);
            }
        }
        walk(&self.root, &mut out);
        out
    }

    /// Renders the plan as an indented tree of operator names.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.render_node(&self.root, 0, &mut s);
        s
    }

    fn render_node(&self, n: &PlanNode, depth: usize, s: &mut String) {
        for _ in 0..depth {
            s.push_str("  ");
        }
        match n.kind {
            NodeKind::Source(i) => {
                s.push_str(&self.ctx.sources[i].name);
                s.push('\n');
            }
            NodeKind::Op(i) => {
                let op = &self.ctx.ops[i];
                s.push_str(&format!("{} [{}]\n", op.name, op.pact.kind_name()));
                for c in &n.children {
                    self.render_node(c, depth + 1, s);
                }
            }
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

fn post_order(p: &Program) -> Vec<usize> {
    let mut out = Vec::new();
    fn walk(p: &Program, n: usize, out: &mut Vec<usize>) {
        if let BNode::Op { children, .. } = &p.nodes[n] {
            for &c in children {
                walk(p, c, out);
            }
        }
        out.push(n);
    }
    walk(p, p.root, &mut out);
    out
}

fn build_tree(p: &Program, n: usize) -> Arc<PlanNode> {
    match &p.nodes[n] {
        BNode::Source(s) => PlanNode::source(*s),
        BNode::Op { op, children } => {
            let kids = children.iter().map(|&c| build_tree(p, c)).collect();
            PlanNode::op(*op, kids)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ProgramBuilder, SourceDef};
    use strato_ir::{FuncBuilder, UdfKind};

    fn identity_map(width: usize) -> Function {
        let mut b = FuncBuilder::new("id", UdfKind::Map, vec![width]);
        let or = b.copy_input(0);
        b.emit(or);
        b.ret();
        b.finish().unwrap()
    }

    fn append_map(width: usize) -> Function {
        let mut b = FuncBuilder::new("app", UdfKind::Map, vec![width]);
        let or = b.copy_input(0);
        let v = b.konst(1i64);
        b.set(or, width, v);
        b.emit(or);
        b.ret();
        b.finish().unwrap()
    }

    fn join_udf(l: usize, r: usize) -> Function {
        let mut b = FuncBuilder::new("join", UdfKind::Pair, vec![l, r]);
        let or = b.concat_inputs();
        b.emit(or);
        b.ret();
        b.finish().unwrap()
    }

    fn simple_plan() -> Plan {
        let mut p = ProgramBuilder::new();
        let l = p.source(SourceDef::new("l", &["a", "b"], 100).with_unique_key(&[0]));
        let r = p.source(SourceDef::new("r", &["c"], 10));
        let m = p.map("add1", append_map(2), CostHints::default(), l);
        let j = p.match_(
            "join",
            &[0],
            &[0],
            join_udf(3, 1),
            CostHints::default(),
            m,
            r,
        );
        p.finish(j).unwrap().bind().unwrap()
    }

    #[test]
    fn global_record_names_all_attrs() {
        let plan = simple_plan();
        let g = &plan.ctx.global;
        // l.a, l.b, r.c, add1.$0 = 4 attrs.
        assert_eq!(g.width(), 4);
        assert!(g.by_name("l.a").is_some());
        assert!(g.by_name("l.b").is_some());
        assert!(g.by_name("r.c").is_some());
        assert!(g.by_name("add1.$0").is_some());
    }

    #[test]
    fn redirections_map_locals_to_globals() {
        let plan = simple_plan();
        let join = plan
            .ctx
            .ops
            .iter()
            .find(|o| o.name == "join")
            .expect("join op");
        // Join's left input schema is (l.a, l.b, add1.$0).
        let left_attrs: Vec<&str> = join.layout.inputs[0]
            .as_slice()
            .iter()
            .map(|a| plan.ctx.global.name(*a))
            .collect();
        assert_eq!(left_attrs, vec!["l.a", "l.b", "add1.$0"]);
        // Output α covers both inputs.
        assert_eq!(join.layout.output.arity(), 4);
        assert_eq!(join.layout.width, 4);
    }

    #[test]
    fn key_attrs_resolved_globally() {
        let plan = simple_plan();
        let join = plan.ctx.ops.iter().find(|o| o.name == "join").unwrap();
        let la = plan.ctx.global.by_name("l.a").unwrap();
        let rc = plan.ctx.global.by_name("r.c").unwrap();
        assert_eq!(join.key_attrs, vec![vec![la], vec![rc]]);
    }

    #[test]
    fn unique_keys_bound_to_attr_sets() {
        let plan = simple_plan();
        let l = &plan.ctx.sources[0];
        let la = plan.ctx.global.by_name("l.a").unwrap();
        assert_eq!(l.unique, vec![AttrSet::singleton(la)]);
    }

    #[test]
    fn attrs_of_subtree() {
        let plan = simple_plan();
        // Root covers everything.
        assert_eq!(plan.attrs_of(&plan.root).len(), 4);
        // Left child of join (the map) covers l.* and add1.$0.
        let map_node = &plan.root.children[0];
        let attrs = plan.attrs_of(map_node);
        assert_eq!(attrs.len(), 3);
        assert!(!attrs.contains(plan.ctx.global.by_name("r.c").unwrap()));
    }

    #[test]
    fn canonical_forms_distinguish_trees() {
        let plan = simple_plan();
        let c1 = plan.canonical();
        // Swap join children → different canonical string.
        let root = &plan.root;
        let swapped = PlanNode::op(
            match root.kind {
                NodeKind::Op(o) => o,
                _ => unreachable!(),
            },
            vec![root.children[1].clone(), root.children[0].clone()],
        );
        assert_ne!(c1, swapped.canonical());
    }

    #[test]
    fn sca_props_computed_per_op() {
        let plan = simple_plan();
        let add1 = plan.ctx.ops.iter().find(|o| o.name == "add1").unwrap();
        assert!(add1.sca_props.emits.exactly_one());
        assert_eq!(add1.props(PropertyMode::Sca).added.len(), 1);
        // Manual mode falls back to SCA when no annotation present.
        assert_eq!(add1.props(PropertyMode::Manual), &add1.sca_props);
    }

    #[test]
    fn with_root_shares_context() {
        let plan = simple_plan();
        let alt = plan.with_root(plan.root.clone());
        assert!(Arc::ptr_eq(&plan.ctx, &alt.ctx));
        assert_eq!(plan.canonical(), alt.canonical());
    }

    #[test]
    fn render_shows_tree() {
        let plan = simple_plan();
        let r = plan.render();
        assert!(r.contains("join [Match]"), "{r}");
        assert!(r.contains("add1 [Map]"), "{r}");
    }

    #[test]
    fn op_order_preorder() {
        let plan = simple_plan();
        // join (op id 1) before add1 (op id 0) in pre-order.
        assert_eq!(plan.op_order(), vec![1, 0]);
    }

    #[test]
    fn n_ops_counts() {
        let plan = simple_plan();
        assert_eq!(plan.root.n_ops(), 2);
    }

    #[test]
    fn identity_map_binding_keeps_width() {
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["x"], 10));
        let m = p.map("id", identity_map(1), CostHints::default(), s);
        let plan = p.finish(m).unwrap().bind().unwrap();
        assert_eq!(plan.ctx.width(), 1);
    }
}
