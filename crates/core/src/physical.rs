//! Physical optimization: shipping and local strategies.
//!
//! For one logical operator order, this module plays the role of the
//! "existing cost-based optimizer" of Section 7.1: it "selects data
//! shipping and execution strategies such as broadcasting and hybrid-hash
//! joins", reusing **interesting properties** (partitionings) during the
//! recursive descent — e.g. the Q15 discussion in Section 7.3 where
//! "since Match operates on the same key as Reduce, the partitioning
//! property remains and can be reused".
//!
//! Strategies:
//!
//! * shipping: [`Ship::Forward`] (stay local), [`Ship::Partition`] (hash
//!   repartition by key), [`Ship::Broadcast`] (replicate to all workers);
//! * local: pipelined Map, hash grouping, hash join with explicit build
//!   side, block-nested-loop cross, sort-merge co-group — one algorithm
//!   per grouping operator.
//!
//! Selection keeps, per subtree, the cheapest candidate for every distinct
//! output partitioning (a miniature Volcano with interesting properties),
//! so a more expensive child plan that delivers a reusable partitioning can
//! win globally.
//!
//! A subtree's candidates depend only on the sub-flow it holds, so they
//! are memoized per call (`PhysMemo`) under the sub-flow's structural id
//! (`SubflowIds`): one entry — output estimate plus pruned candidates —
//! per *distinct* sub-flow, however many alternatives contain it and
//! whether or not they share its `Arc`s. The optimizer costs all
//! alternatives of one plan against one memo, so a sub-flow shared by
//! hundreds of them is estimated and costed once; [`best_physical`] is
//! the same code with a fresh memo. A candidate is a small record — cost,
//! output partitioning, strategies and the candidate of each input it
//! builds on — and [`PhysNode`]s are made only for the plans returned,
//! once per sub-flow and candidate: returned plans that share a sub-flow
//! hold its physical subtree by reference count.

use crate::cost::{estimate, estimate_node, CostWeights, Est};
use crate::enumerate::SubflowIds;
use crate::props::PropTable;
use std::sync::Arc;
use strato_dataflow::{NodeKind, Pact, Plan, PlanNode};
use strato_record::hash::FxHashMap;
use strato_record::AttrId;

/// A shipping strategy for one operator input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ship {
    /// Keep records on their current worker.
    Forward,
    /// Hash-repartition by the given global attributes.
    Partition(Vec<AttrId>),
    /// Replicate every record to every worker.
    Broadcast,
}

/// A local execution strategy for one operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalStrategy {
    /// Pipelined record-at-a-time execution (Map).
    Pipe,
    /// Build an in-memory hash table of groups.
    HashGroup,
    /// Hash join building on the left input.
    HashJoinBuildLeft,
    /// Hash join building on the right input.
    HashJoinBuildRight,
    /// Block-nested-loop Cartesian product.
    BlockNestedLoop,
    /// Sort-merge co-grouping.
    CoGroupSortMerge,
}

impl LocalStrategy {
    /// The algorithm a PACT runs when no physical optimization chose one
    /// (see [`PhysPlan::logical`]).
    pub fn default_for(pact: &Pact) -> LocalStrategy {
        match pact {
            Pact::Map => LocalStrategy::Pipe,
            Pact::Reduce { .. } => LocalStrategy::HashGroup,
            Pact::Match { .. } => LocalStrategy::HashJoinBuildLeft,
            Pact::Cross => LocalStrategy::BlockNestedLoop,
            Pact::CoGroup { .. } => LocalStrategy::CoGroupSortMerge,
        }
    }
}

/// A physical plan node.
#[derive(Debug, Clone)]
pub struct PhysNode {
    /// The logical node this realizes.
    pub logical: Arc<PlanNode>,
    /// Ship strategy per input (empty for sources).
    pub ships: Vec<Ship>,
    /// Local strategy.
    pub local: LocalStrategy,
    /// Children, one per input. Shared: every plan the optimizer costed
    /// with the same cheapest realization of a sub-flow holds the same
    /// `Arc`, so taking a subtree is a reference-count bump, not a copy.
    pub children: Vec<Arc<PhysNode>>,
    /// Output estimate.
    pub est: Est,
    /// Cumulative cost of this subtree.
    pub cost: f64,
}

impl PhysNode {
    /// Renders the physical plan as an indented tree.
    pub fn render(&self, plan: &Plan, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        match self.logical.kind {
            NodeKind::Source(s) => {
                out.push_str(&format!("scan {}\n", plan.ctx.sources[s].name));
            }
            NodeKind::Op(o) => {
                let op = &plan.ctx.ops[o];
                let ships: Vec<String> = self
                    .ships
                    .iter()
                    .map(|s| match s {
                        Ship::Forward => "fwd".to_string(),
                        Ship::Partition(k) => format!("part({})", k.len()),
                        Ship::Broadcast => "bcast".to_string(),
                    })
                    .collect();
                out.push_str(&format!(
                    "{} [{} | {:?} | ships {}] rows≈{:.0}\n",
                    op.name,
                    op.pact.kind_name(),
                    self.local,
                    ships.join(","),
                    self.est.rows
                ));
            }
        }
        for c in &self.children {
            c.render(plan, depth + 1, out);
        }
    }
}

/// A fully costed physical plan for one logical order.
#[derive(Debug, Clone)]
pub struct PhysPlan {
    /// Root of the physical tree.
    pub root: PhysNode,
    /// Total estimated cost.
    pub total_cost: f64,
}

impl PhysPlan {
    /// A logical plan *is* a physical plan with default strategies: every
    /// ship [`Ship::Forward`], every operator its PACT's
    /// [`LocalStrategy::default_for`] — what the execution
    /// engine runs (on one partition) as the semantics oracle. Costs are
    /// left at zero: nothing was chosen, so nothing was priced.
    pub fn logical(plan: &Plan) -> PhysPlan {
        fn lower(plan: &Plan, node: &Arc<PlanNode>) -> PhysNode {
            PhysNode {
                logical: node.clone(),
                ships: vec![Ship::Forward; node.children.len()],
                local: match node.kind {
                    NodeKind::Source(_) => LocalStrategy::Pipe,
                    NodeKind::Op(o) => LocalStrategy::default_for(&plan.ctx.ops[o].pact),
                },
                children: node
                    .children
                    .iter()
                    .map(|c| Arc::new(lower(plan, c)))
                    .collect(),
                est: estimate(plan, node),
                cost: 0.0,
            }
        }
        PhysPlan {
            root: lower(plan, &plan.root),
            total_cost: 0.0,
        }
    }

    /// Renders the plan.
    pub fn render(&self, plan: &Plan) -> String {
        let mut s = String::new();
        self.root.render(plan, 0, &mut s);
        s
    }
}

/// How one input reaches its operator: a [`Ship`], with `Partition` on
/// that input's key.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Route {
    Forward,
    Partition,
    Broadcast,
}

/// One candidate during selection: a node's strategies, the partitioning
/// property its output satisfies, and which candidate of each input it
/// builds on. A `PhysNode` is made from it only if it ends up in a
/// returned plan.
#[derive(Clone, Copy)]
struct Candidate<'a> {
    /// Cumulative cost of the subtree.
    cost: f64,
    partitioning: Option<&'a [AttrId]>,
    local: LocalStrategy,
    /// Per input, how it is shipped.
    routes: [Route; 2],
    /// Per input, the index of the chosen candidate in its entry.
    picks: [usize; 2],
}

impl<'a> Candidate<'a> {
    /// A candidate over input candidates `picks` (unused slots ignored).
    fn new(
        cost: f64,
        partitioning: Option<&'a [AttrId]>,
        local: LocalStrategy,
        routes: [Route; 2],
        picks: [usize; 2],
    ) -> Self {
        Candidate {
            cost,
            partitioning,
            local,
            routes,
            picks,
        }
    }
}

/// The memo entry of one distinct sub-flow.
struct Entry<'a> {
    /// The first logical node seen with this sub-flow.
    node: Arc<PlanNode>,
    /// Entry ids of its inputs.
    kids: Vec<usize>,
    /// Output estimate of the sub-flow.
    est: Est,
    /// Pruned candidates, ascending by cost (so `cands[0]` is the first
    /// minimum).
    cands: Vec<Candidate<'a>>,
}

/// Physical selection for one plan context, property table, weights and
/// DOP, memoized per structural sub-flow id (see the module docs).
pub(crate) struct PhysMemo<'a> {
    plan: &'a Plan,
    props: &'a PropTable,
    w: &'a CostWeights,
    dop: usize,
    ids: SubflowIds,
    /// Indexed by sub-flow id; `None` until that sub-flow is costed.
    entries: Vec<Option<Entry<'a>>>,
    /// Physical nodes made so far, by `(entry id, candidate index)`, so
    /// returned plans share their common subtrees.
    built: FxHashMap<(usize, usize), Arc<PhysNode>>,
}

impl<'a> PhysMemo<'a> {
    /// A memo for alternatives of `plan` (they share its context), reusing
    /// the ids their enumeration interned.
    pub(crate) fn new(
        plan: &'a Plan,
        props: &'a PropTable,
        w: &'a CostWeights,
        dop: usize,
        ids: SubflowIds,
    ) -> Self {
        PhysMemo {
            plan,
            props,
            w,
            dop,
            ids,
            entries: Vec::new(),
            built: FxHashMap::default(),
        }
    }

    /// The cost of the cheapest physical realization of the sub-flow
    /// rooted at `node`.
    pub(crate) fn min_cost(&mut self, node: &Arc<PlanNode>) -> f64 {
        let id = self.cost(node);
        self.entry(id).cands[0].cost
    }

    /// The cheapest physical realization of the sub-flow rooted at `node`:
    /// the first minimum among its candidates.
    pub(crate) fn best_plan(&mut self, node: &Arc<PlanNode>) -> PhysPlan {
        let id = self.cost(node);
        let root = self.build(id, 0);
        PhysPlan {
            total_cost: root.cost,
            root: PhysNode::clone(&root),
        }
    }

    fn entry(&self, id: usize) -> &Entry<'a> {
        self.entries[id]
            .as_ref()
            .expect("children are costed before their parent")
    }

    /// Costs the sub-flow rooted at `node` (children first) unless its id
    /// already has an entry; returns the id.
    fn cost(&mut self, node: &Arc<PlanNode>) -> usize {
        let id = self.ids.id(node) as usize;
        if self.entries.get(id).is_some_and(Option::is_some) {
            return id;
        }
        let kids: Vec<usize> = node.children.iter().map(|c| self.cost(c)).collect();
        let inputs: Vec<Est> = kids.iter().map(|&k| self.entry(k).est).collect();
        let est = estimate_node(self.plan, node.kind, &inputs);
        let cands = match node.kind {
            // Scan cost: every plan reads every source once (the paper
            // notes all plans do full scans), charged as disk IO.
            NodeKind::Source(_) => vec![Candidate::new(
                est.bytes() * self.w.disk,
                None,
                LocalStrategy::Pipe,
                [Route::Forward; 2],
                [0; 2],
            )],
            NodeKind::Op(o) => self.candidates(o, est, &kids),
        };
        if self.entries.len() <= id {
            self.entries.resize_with(id + 1, || None);
        }
        self.entries[id] = Some(Entry {
            node: node.clone(),
            kids,
            est,
            cands,
        });
        id
    }

    /// The physical node of candidate `c` of entry `id`, made once.
    fn build(&mut self, id: usize, c: usize) -> Arc<PhysNode> {
        if let Some(n) = self.built.get(&(id, c)) {
            return n.clone();
        }
        let (node, kids, est, cand) = {
            let e = self.entry(id);
            (e.node.clone(), e.kids.clone(), e.est, e.cands[c])
        };
        let children = kids
            .iter()
            .zip(cand.picks)
            .map(|(&k, pick)| self.build(k, pick))
            .collect();
        let ships = match node.kind {
            NodeKind::Source(_) => vec![],
            NodeKind::Op(o) => {
                let keys = &self.plan.ctx.ops[o].key_attrs;
                (0..kids.len())
                    .map(|i| match cand.routes[i] {
                        Route::Forward => Ship::Forward,
                        Route::Partition => Ship::Partition(keys[i].clone()),
                        Route::Broadcast => Ship::Broadcast,
                    })
                    .collect()
            }
        };
        let phys = Arc::new(PhysNode {
            logical: node,
            ships,
            local: cand.local,
            children,
            est,
            cost: cand.cost,
        });
        self.built.insert((id, c), phys.clone());
        phys
    }
}

/// Chooses the cheapest physical realization of a logical plan.
pub fn best_physical(
    plan: &Plan,
    props: &PropTable,
    weights: &CostWeights,
    dop: usize,
) -> PhysPlan {
    PhysMemo::new(plan, props, weights, dop, SubflowIds::default()).best_plan(&plan.root)
}

/// Spill charge: bytes beyond the memory budget cost disk IO (write+read).
fn spill(bytes: f64, w: &CostWeights) -> f64 {
    if bytes > w.mem_budget {
        2.0 * (bytes - w.mem_budget) * w.disk
    } else {
        0.0
    }
}

fn sort_cost(e: &Est, w: &CostWeights) -> f64 {
    let n = e.rows.max(2.0);
    0.3 * n * n.log2() * w.cpu + spill(e.bytes(), w)
}

fn hash_build_cost(e: &Est, w: &CostWeights) -> f64 {
    1.2 * e.rows * w.cpu + spill(e.bytes(), w)
}

fn ship_cost(route: Route, e: &Est, w: &CostWeights, dop: usize) -> f64 {
    match route {
        Route::Forward => 0.0,
        // (dop-1)/dop of the data crosses the wire; approximate with 1.
        Route::Partition => e.bytes() * w.net,
        Route::Broadcast => e.bytes() * w.net * dop as f64,
    }
}

/// Pruning while candidates are generated. Of the candidates offered,
/// keeps per distinct output partitioning the first one of least cost
/// (which includes the globally cheapest), ordered by cost and then by
/// offer order — exactly what stably sorting them all by cost and keeping
/// each partitioning's first occurrence would keep.
#[derive(Default)]
struct Pruned<'a> {
    /// Each partitioning's best so far, with its offer index.
    best: Vec<(usize, Candidate<'a>)>,
    offered: usize,
}

impl<'a> Pruned<'a> {
    fn offer(&mut self, cand: Candidate<'a>) {
        let seq = self.offered;
        self.offered += 1;
        let slot = self
            .best
            .iter()
            .position(|(_, k)| k.partitioning == cand.partitioning);
        match slot {
            Some(i) if cand.cost.total_cmp(&self.best[i].1.cost).is_ge() => {}
            Some(i) => self.best[i] = (seq, cand),
            None => self.best.push((seq, cand)),
        }
    }

    /// The kept candidates, ascending by cost.
    fn finish(mut self) -> Vec<Candidate<'a>> {
        self.best
            .sort_by(|(sa, a), (sb, b)| a.cost.total_cmp(&b.cost).then(sa.cmp(sb)));
        self.best.into_iter().map(|(_, c)| c).collect()
    }
}

/// Does the child partitioning satisfy a required key (non-empty subset)?
fn satisfies(part: Option<&[AttrId]>, key: &[AttrId]) -> bool {
    match part {
        Some(p) => !p.is_empty() && p.iter().all(|a| key.contains(a)),
        None => false,
    }
}

impl<'a> PhysMemo<'a> {
    /// The pruned candidates of operator `o` (output estimate `est`), from
    /// its children's entries `kids`.
    fn candidates(&self, o: usize, est: Est, kids: &[usize]) -> Vec<Candidate<'a>> {
        let (plan, props, w, dop) = (self.plan, self.props, self.w, self.dop);
        let input = |i: usize| self.entry(kids[i]).cands.iter().enumerate();
        let in_est = |i: usize| self.entry(kids[i]).est;
        let op = &plan.ctx.ops[o];
        let udf_cpu = est.calls * op.hints.cpu_per_call * w.cpu;
        let mut out = Pruned::default();
        match &op.pact {
            Pact::Map => {
                for (i, c) in input(0) {
                    // A Map that writes partition attributes destroys
                    // the property.
                    let part = match c.partitioning {
                        Some(p) if p.iter().all(|a| !props.get(o).write.contains(*a)) => Some(p),
                        _ => None,
                    };
                    out.offer(Candidate::new(
                        c.cost + udf_cpu,
                        part,
                        LocalStrategy::Pipe,
                        [Route::Forward; 2],
                        [i, 0],
                    ));
                }
            }
            Pact::Reduce { .. } => {
                let key = &op.key_attrs[0][..];
                let in_est = in_est(0);
                for (i, c) in input(0) {
                    let route = if satisfies(c.partitioning, key) {
                        Route::Forward
                    } else {
                        Route::Partition
                    };
                    let cost = c.cost
                        + ship_cost(route, &in_est, w, dop)
                        + udf_cpu
                        + hash_build_cost(&in_est, w);
                    out.offer(Candidate::new(
                        cost,
                        Some(key),
                        LocalStrategy::HashGroup,
                        [route, Route::Forward],
                        [i, 0],
                    ));
                }
            }
            Pact::Match { .. } => {
                let (kl, kr) = (&op.key_attrs[0][..], &op.key_attrs[1][..]);
                let (le, re) = (in_est(0), in_est(1));
                for (i, lc) in input(0) {
                    for (j, rc) in input(1) {
                        // (a) Repartition both (with reuse).
                        let route_l = if satisfies(lc.partitioning, kl) {
                            Route::Forward
                        } else {
                            Route::Partition
                        };
                        let route_r = if satisfies(rc.partitioning, kr) {
                            Route::Forward
                        } else {
                            Route::Partition
                        };
                        // Reuse is only sound if both sides end up
                        // co-partitioned; forwarding both requires that
                        // their partitionings correspond — we only reuse
                        // when the other side is repartitioned on the
                        // full key or both were partitioned identically
                        // by position. Conservative: if both would
                        // forward, repartition the bigger-keyed side.
                        let routes = match (route_l, route_r) {
                            (Route::Forward, Route::Forward) => {
                                // Require exact correspondence of the
                                // partition keys to the join keys.
                                let exact_l = lc.partitioning == Some(kl);
                                let exact_r = rc.partitioning == Some(kr);
                                if exact_l && exact_r {
                                    [Route::Forward, Route::Forward]
                                } else if exact_l {
                                    [Route::Forward, Route::Partition]
                                } else {
                                    [Route::Partition, route_r]
                                }
                            }
                            _ => [route_l, route_r],
                        };
                        let ship_cost_ab =
                            ship_cost(routes[0], &le, w, dop) + ship_cost(routes[1], &re, w, dop);
                        let (build, bcost) = if le.bytes() <= re.bytes() {
                            (LocalStrategy::HashJoinBuildLeft, hash_build_cost(&le, w))
                        } else {
                            (LocalStrategy::HashJoinBuildRight, hash_build_cost(&re, w))
                        };
                        let base = lc.cost + rc.cost + udf_cpu;
                        for part_out in [kl, kr] {
                            out.offer(Candidate::new(
                                base + ship_cost_ab + bcost,
                                Some(part_out),
                                build,
                                routes,
                                [i, j],
                            ));
                        }
                        // (b) Broadcast the smaller side; the larger
                        // side's partitioning survives.
                        let (bc_side, bc_est, fw_cand) = if le.bytes() <= re.bytes() {
                            (0usize, le, rc)
                        } else {
                            (1, re, lc)
                        };
                        let mut routes = [Route::Forward, Route::Forward];
                        routes[bc_side] = Route::Broadcast;
                        let bcost2 = ship_cost(Route::Broadcast, &bc_est, w, dop)
                            + hash_build_cost(&bc_est, w) * dop as f64;
                        let local = if bc_side == 0 {
                            LocalStrategy::HashJoinBuildLeft
                        } else {
                            LocalStrategy::HashJoinBuildRight
                        };
                        out.offer(Candidate::new(
                            lc.cost + rc.cost + udf_cpu + bcost2,
                            fw_cand.partitioning,
                            local,
                            routes,
                            [i, j],
                        ));
                    }
                }
            }
            Pact::Cross => {
                let (le, re) = (in_est(0), in_est(1));
                for (i, lc) in input(0) {
                    for (j, rc) in input(1) {
                        let (bc_side, bc_est, keep) = if le.bytes() <= re.bytes() {
                            (0usize, le, rc)
                        } else {
                            (1, re, lc)
                        };
                        let mut routes = [Route::Forward, Route::Forward];
                        routes[bc_side] = Route::Broadcast;
                        let cost = lc.cost
                            + rc.cost
                            + udf_cpu
                            + ship_cost(Route::Broadcast, &bc_est, w, dop)
                            + est.calls * w.cpu * 0.1;
                        out.offer(Candidate::new(
                            cost,
                            keep.partitioning,
                            LocalStrategy::BlockNestedLoop,
                            routes,
                            [i, j],
                        ));
                    }
                }
            }
            Pact::CoGroup { .. } => {
                let kl = &op.key_attrs[0][..];
                let (le, re) = (in_est(0), in_est(1));
                for (i, lc) in input(0) {
                    for (j, rc) in input(1) {
                        let cost = lc.cost
                            + rc.cost
                            + udf_cpu
                            + ship_cost(Route::Partition, &le, w, dop)
                            + ship_cost(Route::Partition, &re, w, dop)
                            + sort_cost(&le, w)
                            + sort_cost(&re, w);
                        out.offer(Candidate::new(
                            cost,
                            Some(kl),
                            LocalStrategy::CoGroupSortMerge,
                            [Route::Partition, Route::Partition],
                            [i, j],
                        ));
                    }
                }
            }
        }
        out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strato_dataflow::{CostHints, ProgramBuilder, PropertyMode, SourceDef};
    use strato_ir::{FuncBuilder, Function, UdfKind};

    fn identity_map(w: usize) -> Function {
        let mut b = FuncBuilder::new("id", UdfKind::Map, vec![w]);
        let or = b.copy_input(0);
        b.emit(or);
        b.ret();
        b.finish().unwrap()
    }

    fn group_first(w: usize) -> Function {
        let mut b = FuncBuilder::new("first", UdfKind::Group, vec![w]);
        let it = b.iter_open(0);
        let nil = b.new_label();
        let first = b.iter_next(it, nil);
        let or = b.copy(first);
        b.emit(or);
        b.place(nil);
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

    fn phys_of(plan: &Plan) -> PhysPlan {
        let props = PropTable::build(plan, PropertyMode::Sca);
        best_physical(plan, &props, &CostWeights::default(), 8)
    }

    #[test]
    fn broadcast_wins_for_tiny_build_side() {
        let mut p = ProgramBuilder::new();
        let big = p.source(SourceDef::new("big", &["k", "v"], 1_000_000).with_bytes_per_row(64));
        let tiny = p.source(SourceDef::new("tiny", &["k"], 10).with_bytes_per_row(8));
        let j = p.match_(
            "j",
            &[0],
            &[0],
            join_udf(2, 1),
            CostHints::default().with_distinct_keys(10),
            big,
            tiny,
        );
        let plan = p.finish(j).unwrap().bind().unwrap();
        let phys = phys_of(&plan);
        assert_eq!(phys.root.ships[1], Ship::Broadcast);
        assert_eq!(phys.root.ships[0], Ship::Forward);
        assert_eq!(phys.root.local, LocalStrategy::HashJoinBuildRight);
    }

    #[test]
    fn repartition_wins_for_balanced_sides() {
        let mut p = ProgramBuilder::new();
        let l = p.source(SourceDef::new("l", &["k", "v"], 500_000).with_bytes_per_row(64));
        let r = p.source(SourceDef::new("r", &["k", "w"], 500_000).with_bytes_per_row(64));
        let j = p.match_(
            "j",
            &[0],
            &[0],
            join_udf(2, 2),
            CostHints::default().with_distinct_keys(100_000),
            l,
            r,
        );
        let plan = p.finish(j).unwrap().bind().unwrap();
        let phys = phys_of(&plan);
        assert!(matches!(phys.root.ships[0], Ship::Partition(_)));
        assert!(matches!(phys.root.ships[1], Ship::Partition(_)));
    }

    #[test]
    fn reduce_reuses_match_partitioning() {
        // Section 7.3 / Q15 flavour: Match on k, then Reduce on the same k:
        // the reduce's input must be Forward (partitioning reuse).
        let mut p = ProgramBuilder::new();
        let l = p.source(SourceDef::new("l", &["k", "v"], 400_000).with_bytes_per_row(64));
        let r = p.source(SourceDef::new("r", &["k2"], 300_000).with_bytes_per_row(64));
        let j = p.match_(
            "j",
            &[0],
            &[0],
            join_udf(2, 1),
            CostHints::default().with_distinct_keys(50_000),
            l,
            r,
        );
        let g = p.reduce(
            "g",
            &[0],
            group_first(3),
            CostHints::default().with_distinct_keys(50_000),
            j,
        );
        let plan = p.finish(g).unwrap().bind().unwrap();
        let phys = phys_of(&plan);
        assert_eq!(
            phys.root.ships[0],
            Ship::Forward,
            "reduce must reuse the join's partitioning:\n{}",
            phys.render(&plan)
        );
    }

    #[test]
    fn map_is_pipelined_for_free() {
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["a"], 100));
        let m = p.map("id", identity_map(1), CostHints::default(), s);
        let plan = p.finish(m).unwrap().bind().unwrap();
        let phys = phys_of(&plan);
        assert_eq!(phys.root.ships[0], Ship::Forward);
        assert_eq!(phys.root.local, LocalStrategy::Pipe);
    }

    #[test]
    fn costs_are_positive_and_monotone_with_size() {
        let cost_for = |rows: u64| {
            let mut p = ProgramBuilder::new();
            let s = p.source(SourceDef::new("s", &["k"], rows).with_bytes_per_row(32));
            let g = p.reduce("g", &[0], group_first(1), CostHints::default(), s);
            let plan = p.finish(g).unwrap().bind().unwrap();
            phys_of(&plan).total_cost
        };
        let small = cost_for(1_000);
        let big = cost_for(1_000_000);
        assert!(small > 0.0);
        assert!(big > small);
    }

    /// In-place sum over `field`.
    fn sum_inplace(w: usize, field: usize) -> Function {
        use strato_ir::BinOp;
        let mut b = FuncBuilder::new("sum_ip", UdfKind::Group, vec![w]);
        let acc = b.konst(0i64);
        let it = b.iter_open(0);
        let done = b.new_label();
        let head = b.new_label();
        b.place(head);
        let r = b.iter_next(it, done);
        let v = b.get(r, field);
        b.bin_into(acc, BinOp::Add, acc, v);
        b.jump(head);
        b.place(done);
        let it2 = b.iter_open(0);
        let nil = b.new_label();
        let first = b.iter_next(it2, nil);
        let or = b.copy(first);
        b.set(or, field, acc);
        b.emit(or);
        b.place(nil);
        b.ret();
        b.finish().unwrap()
    }

    #[test]
    fn spill_charge_is_zero_within_budget_and_grows_beyond_it() {
        // Parity with the execution engine: the runtime spills exactly when
        // buffered state exceeds `mem_budget` (see `ExecOptions::mem_budget`,
        // whose default is the same `DEFAULT_MEM_BUDGET_BYTES` constant), so
        // the cost model must charge nothing at or below the budget and a
        // monotone write+read disk penalty above it.
        let w = CostWeights::default();
        assert_eq!(w.mem_budget, crate::cost::DEFAULT_MEM_BUDGET_BYTES as f64);
        assert_eq!(spill(0.0, &w), 0.0);
        assert_eq!(spill(w.mem_budget, &w), 0.0);
        let just_over = spill(w.mem_budget + 1024.0, &w);
        let far_over = spill(w.mem_budget * 3.0, &w);
        assert!(just_over > 0.0);
        assert!(far_over > just_over, "spill charge must be monotone");
        // Write + read: every byte beyond the budget is charged twice at the
        // disk rate.
        assert_eq!(just_over, 2.0 * 1024.0 * w.disk);
    }

    #[test]
    fn logical_plan_carries_default_strategies_and_no_shipping() {
        let mut p = ProgramBuilder::new();
        let l = p.source(SourceDef::new("l", &["k", "v"], 100));
        let r = p.source(SourceDef::new("r", &["k2"], 10));
        let j = p.match_("j", &[0], &[0], join_udf(2, 1), CostHints::default(), l, r);
        let g = p.reduce("g", &[0], sum_inplace(3, 1), CostHints::default(), j);
        let plan = p.finish(g).unwrap().bind().unwrap();
        let phys = PhysPlan::logical(&plan);
        let (reduce, join) = (&phys.root, &phys.root.children[0]);
        assert_eq!(reduce.local, LocalStrategy::HashGroup);
        assert_eq!(reduce.ships, vec![Ship::Forward]);
        assert_eq!(join.local, LocalStrategy::HashJoinBuildLeft);
        assert_eq!(join.ships, vec![Ship::Forward, Ship::Forward]);
        assert_eq!(join.children.len(), 2);
        assert_eq!(reduce.est.rows, estimate(&plan, &plan.root).rows);
    }

    #[test]
    fn render_mentions_strategies() {
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["k"], 1000));
        let g = p.reduce("g", &[0], group_first(1), CostHints::default(), s);
        let plan = p.finish(g).unwrap().bind().unwrap();
        let phys = phys_of(&plan);
        let txt = phys.render(&plan);
        assert!(txt.contains("g [Reduce"), "{txt}");
        assert!(txt.contains("scan s"), "{txt}");
    }
}
