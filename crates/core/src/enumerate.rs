//! Plan enumeration (Section 6 of the paper).
//!
//! Two enumerators are provided:
//!
//! * [`enumerate_algorithm1`] — a faithful port of the paper's
//!   **Algorithm 1** ("Enumeration of Alternative Data Flows"): recursive
//!   enumeration of sub-flow alternatives with root/candidate exchanges, a
//!   memo table keyed by the flow's canonical form, and the
//!   enumerate-each-candidate-root-once rule. As published it handles
//!   single-input operators, i.e. linear flows.
//! * [`enumerate_all`] — the generalization to arbitrary **tree-shaped**
//!   flows (the paper notes its implementation "can, in fact, handle binary
//!   operators"): a breadth-first closure over all valid *single* moves
//!   (unary–unary swaps, unary↔binary exchanges, binary rotations).
//!   Algorithm 1's memo, generalized to trees: every sub-flow has a
//!   structural id (`SubflowIds`), and the one-move alternatives of each
//!   distinct sub-flow are derived once and memoized as ids — the moves at
//!   its root, then each child's memoized alternatives with that child
//!   replaced. The closure runs over root ids and builds a [`Plan`] only
//!   for a root it has not seen. On linear flows both enumerators provably
//!   agree (see tests), which is how we validate the closure.
//!
//! Both return every data flow derivable by valid pairwise reorderings,
//! with the original flow first.

use crate::conditions::CondCtx;
use crate::props::PropTable;
use std::collections::VecDeque;
use std::sync::Arc;
use strato_dataflow::{NodeKind, Plan, PlanNode};
use strato_record::hash::{FxHashMap, FxHashSet};

/// Hash-consed structural ids of sub-flows: two subtrees get the same id
/// exactly when they have the same node kinds in the same shape, whether
/// or not they share `Arc`s. The id is the memo-table key of enumeration
/// (the role of `getMTabKey` in Algorithm 1) and of physical selection.
///
/// Ids are interned bottom-up from `(kind, child ids)`. Each id keeps the
/// first node seen with its shape as its representative; a pointer → id
/// map answers again for a representative without walking it.
#[derive(Default)]
pub(crate) struct SubflowIds {
    by_shape: FxHashMap<(NodeKind, [u32; 2]), u32>,
    by_ptr: FxHashMap<*const PlanNode, u32>,
    /// Per id, its representative and child ids. Holding the node keeps
    /// its address, the `by_ptr` key, from being reused while these ids
    /// are in use.
    nodes: Vec<(Arc<PlanNode>, [u32; 2])>,
}

/// The child-id slot of an absent input.
const NO_CHILD: u32 = u32::MAX;

impl SubflowIds {
    /// The id of the sub-flow rooted at `node`, interning it (and every
    /// subtree under it) on first sight.
    pub(crate) fn id(&mut self, node: &Arc<PlanNode>) -> u32 {
        if let Some(&id) = self.by_ptr.get(&Arc::as_ptr(node)) {
            return id;
        }
        assert!(node.children.len() <= 2, "PACTs have at most two inputs");
        let mut kids = [NO_CHILD; 2];
        for (k, c) in kids.iter_mut().zip(&node.children) {
            *k = self.id(c);
        }
        if let Some(&id) = self.by_shape.get(&(node.kind, kids)) {
            return id;
        }
        self.insert(node.kind, kids, Arc::clone(node))
    }

    /// The id of the sub-flow `kind` over the sub-flows `kids`; a node is
    /// allocated only for a shape not interned before.
    fn intern(&mut self, kind: NodeKind, kids: [u32; 2]) -> u32 {
        if let Some(&id) = self.by_shape.get(&(kind, kids)) {
            return id;
        }
        let children = kids
            .iter()
            .take_while(|&&k| k != NO_CHILD)
            .map(|&k| Arc::clone(self.node(k)))
            .collect();
        self.insert(kind, kids, Arc::new(PlanNode { kind, children }))
    }

    fn insert(&mut self, kind: NodeKind, kids: [u32; 2], node: Arc<PlanNode>) -> u32 {
        let id = u32::try_from(self.nodes.len()).expect("fewer than 2^32 sub-flows");
        self.by_shape.insert((kind, kids), id);
        self.by_ptr.insert(Arc::as_ptr(&node), id);
        self.nodes.push((node, kids));
        id
    }

    /// The representative node of sub-flow `id`.
    fn node(&self, id: u32) -> &Arc<PlanNode> {
        &self.nodes[id as usize].0
    }

    /// Number of distinct sub-flows interned.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }
}

/// The memo of one-move alternatives per sub-flow id, for one plan
/// context and property table.
struct Moves<'a> {
    ctx: CondCtx<'a>,
    /// Indexed by sub-flow id; `None` until that sub-flow's moves are
    /// derived.
    memo: Vec<Option<Vec<u32>>>,
}

impl<'a> Moves<'a> {
    fn new(plan: &'a Plan, props: &'a PropTable) -> Self {
        Moves {
            ctx: CondCtx::new(plan, props),
            memo: Vec::new(),
        }
    }

    /// The ids of every sub-flow exactly one valid move within `s` away
    /// from `s`: the moves at its root, then, per child in order, each of
    /// that child's alternatives in its place. Derived once per id.
    fn alts(&mut self, ids: &mut SubflowIds, s: u32) -> &[u32] {
        let i = s as usize;
        if self.memo.get(i).map_or(true, Option::is_none) {
            let derived = self.derive(ids, s);
            if self.memo.len() <= i {
                self.memo.resize_with(i + 1, || None);
            }
            self.memo[i] = Some(derived);
        }
        self.memo[i].as_deref().expect("derived above")
    }

    fn derive(&mut self, ids: &mut SubflowIds, s: u32) -> Vec<u32> {
        let (node, kids) = ids.nodes[s as usize].clone();
        let mut out = junction_moves(&self.ctx, ids, &node, kids);
        for (i, &c) in kids.iter().enumerate().take(node.children.len()) {
            for &alt in self.alts(ids, c) {
                let mut k = kids;
                k[i] = alt;
                out.push(ids.intern(node.kind, k));
            }
        }
        out
    }
}

/// All plans reachable from `plan` by exactly one valid reordering move.
pub fn neighbors(plan: &Plan, props: &PropTable) -> Vec<Plan> {
    let mut ids = SubflowIds::default();
    let mut moves = Moves::new(plan, props);
    let root = ids.id(&plan.root);
    let alts = moves.alts(&mut ids, root);
    alts.iter()
        .map(|&n| plan.with_root(Arc::clone(ids.node(n))))
        .collect()
}

/// Enumerates the full space of valid reordered data flows: the transitive
/// closure of single moves, capped at `cap` plans as a safety net for
/// adversarial inputs. The original plan is first.
pub fn enumerate_all(plan: &Plan, props: &PropTable, cap: usize) -> Vec<Plan> {
    enumerate_interned(plan, props, cap).0
}

/// [`enumerate_all`], plus the ids every returned alternative was
/// interned under, so that costing them afterwards finds each of their
/// nodes by pointer.
pub(crate) fn enumerate_interned(
    plan: &Plan,
    props: &PropTable,
    cap: usize,
) -> (Vec<Plan>, SubflowIds) {
    let mut ids = SubflowIds::default();
    let mut moves = Moves::new(plan, props);
    let root = ids.id(&plan.root);
    let mut seen: FxHashSet<u32> = FxHashSet::default();
    seen.insert(root);
    let mut out = vec![plan.clone()];
    let mut queue = VecDeque::from([root]);
    'bfs: while let Some(r) = queue.pop_front() {
        if out.len() >= cap {
            break;
        }
        for &n in moves.alts(&mut ids, r) {
            if seen.insert(n) {
                out.push(plan.with_root(Arc::clone(ids.node(n))));
                queue.push_back(n);
                if out.len() >= cap {
                    break 'bfs;
                }
            }
        }
    }
    // The move memo is not needed for costing; free it first.
    drop(moves);
    (out, ids)
}

/// Moves exchanging the root of sub-flow `node` (child ids `kids`) with
/// one of its operator children, as sub-flow ids.
fn junction_moves(
    ctx: &CondCtx<'_>,
    ids: &mut SubflowIds,
    node: &PlanNode,
    kids: [u32; 2],
) -> Vec<u32> {
    let NodeKind::Op(p) = node.kind else {
        return vec![];
    };
    let mut out = Vec::new();
    let p_unary = node.children.len() == 1;
    for (i, child) in node.children.iter().enumerate() {
        let NodeKind::Op(c) = child.kind else {
            continue;
        };
        let grandkids = ids.nodes[kids[i] as usize].1;
        let c_unary = child.children.len() == 1;
        match (p_unary, c_unary) {
            // Theorems 1–2 and the Reduce/Reduce extension.
            (true, true) => {
                if ctx.can_swap_unary_unary(p, c) {
                    let new_p = ids.intern(node.kind, grandkids);
                    out.push(ids.intern(child.kind, [new_p, NO_CHILD]));
                }
            }
            // Push the unary root below its binary child (Theorem 3,
            // Lemma 1, invariant grouping).
            (true, false) => {
                for side in 0..2 {
                    let subtrees = [&*child.children[0], &*child.children[1]];
                    if ctx.can_exchange_unary_binary(p, c, side, subtrees) {
                        let mut new_c_kids = grandkids;
                        new_c_kids[side] = ids.intern(node.kind, [grandkids[side], NO_CHILD]);
                        out.push(ids.intern(child.kind, new_c_kids));
                    }
                }
            }
            // Pull a unary child above its binary parent (inverse of the
            // previous move; the equivalence condition is the same).
            (false, true) => {
                let mut subtrees = [&*node.children[0], &*node.children[1]];
                subtrees[i] = &*child.children[0];
                if ctx.can_exchange_unary_binary(c, p, i, subtrees) {
                    let mut new_p_kids = kids;
                    new_p_kids[i] = grandkids[0];
                    let new_p = ids.intern(node.kind, new_p_kids);
                    out.push(ids.intern(child.kind, [new_p, NO_CHILD]));
                }
            }
            // Binary–binary rotation (join re-association).
            (false, false) => {
                let t = &node.children[1 - i];
                for keep in 0..2 {
                    let grandchildren = [&*child.children[0], &*child.children[1]];
                    if ctx.can_rotate_binary(p, c, keep, grandchildren, t) {
                        let mut new_p_kids = kids;
                        new_p_kids[i] = grandkids[keep];
                        let mut new_c_kids = grandkids;
                        new_c_kids[keep] = ids.intern(node.kind, new_p_kids);
                        out.push(ids.intern(child.kind, new_c_kids));
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Algorithm 1 — faithful port for linear flows.
// ---------------------------------------------------------------------------

/// Enumerates all valid orders of a **linear** operator chain, exactly as
/// Algorithm 1 of the paper. `chain` lists operator ids from the root
/// (sink side) down to the operator above the source; `reorderable(r, s)`
/// answers whether two operators may swap.
///
/// Returns every alternative chain (original first, then in discovery
/// order, de-duplicated).
pub fn algorithm1_chain(
    chain: &[usize],
    reorderable: &dyn Fn(usize, usize) -> bool,
) -> Vec<Vec<usize>> {
    let mut memo: FxHashMap<Vec<usize>, Vec<Vec<usize>>> = FxHashMap::default();
    let result = enum_alternatives(chain, reorderable, &mut memo);
    // De-duplicate preserving order (the memo already prevents most
    // duplicates; candidate exchanges can still revisit).
    let mut seen: FxHashSet<Vec<usize>> = FxHashSet::default();
    let mut out = Vec::new();
    for alt in result {
        if seen.insert(alt.clone()) {
            out.push(alt);
        }
    }
    // Put the original order first for parity with `enumerate_all`.
    if let Some(pos) = out.iter().position(|a| a == chain) {
        out.swap(0, pos);
    }
    out
}

/// The recursive body of Algorithm 1 (lines 1–29 of the paper's listing).
fn enum_alternatives(
    d: &[usize],
    reorderable: &dyn Fn(usize, usize) -> bool,
    memo: &mut FxHashMap<Vec<usize>, Vec<Vec<usize>>>,
) -> Vec<Vec<usize>> {
    // Line 4: check memo table.
    if let Some(cached) = memo.get(d) {
        return cached.clone();
    }
    // Line 8: the data source ends the recursion (empty chain = source).
    if d.is_empty() {
        return vec![vec![]];
    }
    // Line 7: r = getRoot(D).
    let r = d[0];
    let d_minus_r = &d[1..];
    let mut alts: Vec<Vec<usize>> = Vec::new();
    let mut cand: FxHashSet<usize> = FxHashSet::default();
    // Line 18: recursively enumerate D − r.
    let alts_minus_r = enum_alternatives(d_minus_r, reorderable, memo);
    for a_minus_r in &alts_minus_r {
        // Line 21: re-add r as root.
        let mut with_r = Vec::with_capacity(d.len());
        with_r.push(r);
        with_r.extend_from_slice(a_minus_r);
        alts.push(with_r);
        // Lines 20–27: candidate roots s.
        if let Some(&s) = a_minus_r.first() {
            if !cand.contains(&s) && reorderable(r, s) {
                // enumerate each candidate root once
                cand.insert(s);
                // Line 24: D − s = setRoot(A − r, r).
                let mut d_minus_s = Vec::with_capacity(a_minus_r.len());
                d_minus_s.push(r);
                d_minus_s.extend_from_slice(&a_minus_r[1..]);
                // Line 25: recurse.
                let alts_minus_s = enum_alternatives(&d_minus_s, reorderable, memo);
                // Lines 26–27: append s to each alternative.
                for a_minus_s in alts_minus_s {
                    let mut with_s = Vec::with_capacity(d.len());
                    with_s.push(s);
                    with_s.extend(a_minus_s);
                    alts.push(with_s);
                }
            }
        }
    }
    // Line 28: fill memo table.
    memo.insert(d.to_vec(), alts.clone());
    alts
}

/// Runs Algorithm 1 over a bound plan whose tree is a linear chain of
/// unary operators over a single source. Returns `None` when the plan has
/// binary operators (use [`enumerate_all`] instead).
pub fn enumerate_algorithm1(plan: &Plan, props: &PropTable) -> Option<Vec<Plan>> {
    // Extract the chain root→bottom.
    let mut chain = Vec::new();
    let mut node = &plan.root;
    while let NodeKind::Op(o) = node.kind {
        if node.children.len() != 1 {
            return None;
        }
        chain.push(o);
        node = &node.children[0];
    }
    let source = node.clone();
    let ctx = CondCtx::new(plan, props);
    let reorderable = |r: usize, s: usize| ctx.can_swap_unary_unary(r, s);
    let alts = algorithm1_chain(&chain, &reorderable);
    Some(
        alts.into_iter()
            .map(|order| {
                let mut tree = source.clone();
                for &op in order.iter().rev() {
                    tree = PlanNode::op(op, vec![tree]);
                }
                plan.with_root(tree)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use strato_dataflow::{CostHints, ProgramBuilder, PropertyMode, SourceDef};
    use strato_ir::{BinOp, FuncBuilder, Function, UdfKind, UnOp};

    #[test]
    fn algorithm1_reproduces_the_papers_worked_example() {
        // Section 6: Src → Map1 → Map2 → Map3; all pairs reorderable except
        // Map2/Map3. Expected alternatives (in flow order from the source):
        // [1,2,3], [2,1,3], [2,3,1].
        let reorderable = |a: usize, b: usize| !matches!((a, b), (2, 3) | (3, 2));
        // Chain is root-first: [3, 2, 1].
        let alts = algorithm1_chain(&[3, 2, 1], &reorderable);
        let mut flows: Vec<Vec<usize>> = alts
            .iter()
            .map(|c| c.iter().rev().copied().collect())
            .collect();
        flows.sort();
        assert_eq!(flows, vec![vec![1, 2, 3], vec![2, 1, 3], vec![2, 3, 1]]);
    }

    #[test]
    fn algorithm1_fully_reorderable_chain_yields_all_permutations() {
        let reorderable = |_: usize, _: usize| true;
        let alts = algorithm1_chain(&[1, 2, 3, 4], &reorderable);
        assert_eq!(alts.len(), 24);
    }

    #[test]
    fn algorithm1_no_reorders_yields_single_plan() {
        let reorderable = |_: usize, _: usize| false;
        let alts = algorithm1_chain(&[1, 2, 3], &reorderable);
        assert_eq!(alts, vec![vec![1, 2, 3]]);
    }

    #[test]
    fn algorithm1_partial_order_counts_linear_extensions() {
        // Ops 1..=4 where only (1,2) may swap and only (3,4) may swap:
        // alternatives = 2 × 2 = 4.
        let reorderable = |a: usize, b: usize| matches!((a, b), (1, 2) | (2, 1) | (3, 4) | (4, 3));
        let alts = algorithm1_chain(&[4, 3, 2, 1], &reorderable);
        assert_eq!(alts.len(), 4);
    }

    // ---- Plan-level equivalence between Algorithm 1 and the closure. ----

    fn filter_map(w: usize, field: usize) -> Function {
        let mut b = FuncBuilder::new("filter", UdfKind::Map, vec![w]);
        let v = b.get_input(0, field);
        let z = b.konst(0i64);
        let c = b.bin(BinOp::Lt, v, z);
        let end = b.new_label();
        b.branch(c, end);
        let or = b.copy_input(0);
        b.emit(or);
        b.place(end);
        b.ret();
        b.finish().unwrap()
    }

    fn abs_map(w: usize, field: usize) -> Function {
        let mut b = FuncBuilder::new("abs", UdfKind::Map, vec![w]);
        let v = b.get_input(0, field);
        let or = b.copy_input(0);
        let a = b.un(UnOp::Abs, v);
        b.set(or, field, a);
        b.emit(or);
        b.ret();
        b.finish().unwrap()
    }

    fn chain_plan() -> Plan {
        // Four maps over a 4-attr record, touching fields 0..3 in patterns
        // that give a non-trivial partial order.
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["a", "b", "c", "d"], 10));
        let m1 = p.map("w0", abs_map(4, 0), CostHints::default(), s);
        let m2 = p.map("r1", filter_map(4, 1), CostHints::default(), m1);
        let m3 = p.map("w2", abs_map(4, 2), CostHints::default(), m2);
        let m4 = p.map("r0", filter_map(4, 0), CostHints::default(), m3);
        p.finish(m4).unwrap().bind().unwrap()
    }

    #[test]
    fn closure_and_algorithm1_agree_on_linear_flows() {
        let plan = chain_plan();
        let props = PropTable::build(&plan, PropertyMode::Sca);
        let a1: FxHashSet<String> = enumerate_algorithm1(&plan, &props)
            .expect("linear")
            .iter()
            .map(|p| p.canonical())
            .collect();
        let cl: FxHashSet<String> = enumerate_all(&plan, &props, 10_000)
            .iter()
            .map(|p| p.canonical())
            .collect();
        assert_eq!(a1, cl);
        assert!(a1.len() > 1, "space should be non-trivial: {}", a1.len());
    }

    #[test]
    fn subflow_ids_are_structural() {
        fn rebuild(n: &PlanNode) -> Arc<PlanNode> {
            Arc::new(PlanNode {
                kind: n.kind,
                children: n.children.iter().map(|c| rebuild(c)).collect(),
            })
        }
        let plan = chain_plan();
        let props = PropTable::build(&plan, PropertyMode::Sca);
        let mut ids = SubflowIds::default();
        let root = ids.id(&plan.root);
        assert_eq!(ids.len(), 5, "four operators over one source");
        // The same tree from fresh `Arc`s: same id, nothing new interned.
        let copy = rebuild(&plan.root);
        assert_eq!(ids.id(&copy), root);
        assert_eq!(ids.len(), 5);
        for n in neighbors(&plan, &props) {
            assert_ne!(ids.id(&n.root), root, "a move changes the shape");
        }
    }

    #[test]
    fn closure_contains_original_first() {
        let plan = chain_plan();
        let props = PropTable::build(&plan, PropertyMode::Sca);
        let all = enumerate_all(&plan, &props, 10_000);
        assert_eq!(all[0].canonical(), plan.canonical());
    }

    #[test]
    fn neighbors_are_single_moves() {
        let plan = chain_plan();
        let props = PropTable::build(&plan, PropertyMode::Sca);
        for n in neighbors(&plan, &props) {
            assert_ne!(n.canonical(), plan.canonical());
            // A single unary swap keeps the op count.
            assert_eq!(n.root.n_ops(), plan.root.n_ops());
        }
    }

    #[test]
    fn enumerate_algorithm1_rejects_binary_flows() {
        let mut p = ProgramBuilder::new();
        let l = p.source(SourceDef::new("l", &["a"], 10));
        let r = p.source(SourceDef::new("r", &["b"], 10));
        let join = {
            let mut b = FuncBuilder::new("j", UdfKind::Pair, vec![1, 1]);
            let or = b.concat_inputs();
            b.emit(or);
            b.ret();
            b.finish().unwrap()
        };
        let j = p.match_("j", &[0], &[0], join, CostHints::default(), l, r);
        let plan = p.finish(j).unwrap().bind().unwrap();
        let props = PropTable::build(&plan, PropertyMode::Sca);
        assert!(enumerate_algorithm1(&plan, &props).is_none());
        // The closure handles it fine.
        assert_eq!(enumerate_all(&plan, &props, 100).len(), 1);
    }

    #[test]
    fn cap_limits_enumeration() {
        let plan = chain_plan();
        let props = PropTable::build(&plan, PropertyMode::Sca);
        let all = enumerate_all(&plan, &props, 10_000);
        for cap in 1..all.len() {
            let capped = enumerate_all(&plan, &props, cap);
            assert_eq!(capped.len(), cap);
            for (c, a) in capped.iter().zip(&all) {
                assert_eq!(c.canonical(), a.canonical(), "cap {cap} cuts a prefix");
            }
        }
    }
}
