//! Cardinality estimation and the cost model.
//!
//! Section 7.1 of the paper: "The cost model is a combination of network
//! IO, disk IO, and CPU costs of UDF calls. For result size and cost
//! estimations, the optimizer relies on hints such as 'Average Number of
//! Records Emitted per UDF Call', 'CPU Cost per UDF Call', and 'Number of
//! Distinct Values per Key-Set'." This module implements exactly that:
//! hint-driven cardinality propagation plus weighted cost terms. Absolute
//! values are unit-less; only plan *ranking* matters.

use strato_dataflow::{BoundOp, NodeKind, Pact, Plan, PlanNode};

/// Default per-worker memory budget in bytes, shared between the cost
/// model's spill charge ([`CostWeights::mem_budget`]) and the execution
/// engine's `ExecOptions::mem_budget` default — the optimizer's spill
/// penalties and the runtime's actual spill-to-disk behavior are keyed to
/// the **same** threshold, so a plan charged for spilling really spills.
pub const DEFAULT_MEM_BUDGET_BYTES: u64 = 48 * 1024 * 1024;

/// Default **machine-wide** memory budget of a shared engine runtime
/// (`strato-exec`'s `EngineRuntime`): the pool per-query budgets are
/// carved from when many queries run concurrently on one process. Sized
/// as a handful of default per-query budgets so a lightly loaded runtime
/// grants every query its full [`DEFAULT_MEM_BUDGET_BYTES`] while a
/// saturated one degrades to spilling instead of oversubscribing RAM.
pub const DEFAULT_GLOBAL_MEM_BUDGET_BYTES: u64 = 8 * DEFAULT_MEM_BUDGET_BYTES;

/// Weights combining the three cost dimensions, plus the memory budget that
/// decides when sort/hash strategies spill to disk.
#[derive(Debug, Clone, Copy)]
pub struct CostWeights {
    /// Cost per byte shipped over the network.
    pub net: f64,
    /// Cost per byte spilled to / read from disk.
    pub disk: f64,
    /// Cost per UDF cpu unit and per record-processing step.
    pub cpu: f64,
    /// Bytes a single worker can hold before sort/hash spills.
    pub mem_budget: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights {
            net: 1.0,
            disk: 0.6,
            cpu: 0.15,
            mem_budget: DEFAULT_MEM_BUDGET_BYTES as f64,
        }
    }
}

/// A cardinality estimate for one plan node's output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Est {
    /// Estimated record count.
    pub rows: f64,
    /// Estimated bytes per record.
    pub bytes_per_row: f64,
    /// Estimated UDF invocations performed by this node (0 for sources).
    pub calls: f64,
}

impl Est {
    /// Total estimated bytes.
    pub fn bytes(&self) -> f64 {
        self.rows * self.bytes_per_row
    }
}

/// Default ratio of distinct keys to input rows when no hint is given.
const DEFAULT_KEY_RATIO: f64 = 0.1;

/// Estimated number of groups a Reduce forms over `input_rows` records:
/// the distinct-keys hint when present, else the default key ratio,
/// clamped to `[1, input_rows]`.
fn reduce_groups(op: &BoundOp, input_rows: f64) -> f64 {
    op.hints
        .distinct_keys
        .map(|k| k as f64)
        .unwrap_or(input_rows * DEFAULT_KEY_RATIO)
        .min(input_rows)
        .max(1.0)
}

/// Estimates output cardinality, width and UDF calls for a subtree.
///
/// Hints travel with operators, so an operator's selectivity and CPU cost
/// are position-independent — exactly the model the paper's optimizer uses
/// when costing reordered alternatives.
pub fn estimate(plan: &Plan, node: &PlanNode) -> Est {
    let inputs: Vec<Est> = node.children.iter().map(|c| estimate(plan, c)).collect();
    estimate_node(plan, node.kind, &inputs)
}

/// One node's estimate from its inputs' estimates (`inputs[i]` for child
/// `i`): what [`estimate`] computes at each node of its walk, and what
/// physical selection calls with memoized child estimates.
pub(crate) fn estimate_node(plan: &Plan, kind: NodeKind, inputs: &[Est]) -> Est {
    match kind {
        NodeKind::Source(s) => {
            let src = &plan.ctx.sources[s];
            Est {
                rows: src.est_rows as f64,
                bytes_per_row: src.est_bytes_per_row as f64,
                calls: 0.0,
            }
        }
        NodeKind::Op(o) => {
            let op = &plan.ctx.ops[o];
            let sel = op.hints.avg_emits_per_call.max(0.0);
            let added_bytes = 9.0 * op.added_attrs.len() as f64;
            match &op.pact {
                Pact::Map => {
                    let c = inputs[0];
                    let calls = c.rows;
                    Est {
                        rows: calls * sel,
                        bytes_per_row: op
                            .hints
                            .avg_record_bytes
                            .map(|b| b as f64)
                            .unwrap_or(c.bytes_per_row + added_bytes),
                        calls,
                    }
                }
                Pact::Reduce { .. } => {
                    let c = inputs[0];
                    let groups = reduce_groups(op, c.rows);
                    Est {
                        rows: groups * sel,
                        bytes_per_row: op
                            .hints
                            .avg_record_bytes
                            .map(|b| b as f64)
                            .unwrap_or(c.bytes_per_row + added_bytes),
                        calls: groups,
                    }
                }
                Pact::Match { .. } => {
                    let (l, r) = (inputs[0], inputs[1]);
                    let domain = op
                        .hints
                        .distinct_keys
                        .map(|k| k as f64)
                        .unwrap_or_else(|| l.rows.min(r.rows))
                        .max(1.0);
                    let pairs = l.rows * r.rows / domain;
                    Est {
                        rows: pairs * sel,
                        bytes_per_row: op
                            .hints
                            .avg_record_bytes
                            .map(|b| b as f64)
                            .unwrap_or(l.bytes_per_row + r.bytes_per_row + added_bytes),
                        calls: pairs,
                    }
                }
                Pact::Cross => {
                    let (l, r) = (inputs[0], inputs[1]);
                    let pairs = l.rows * r.rows;
                    Est {
                        rows: pairs * sel,
                        bytes_per_row: op
                            .hints
                            .avg_record_bytes
                            .map(|b| b as f64)
                            .unwrap_or(l.bytes_per_row + r.bytes_per_row + added_bytes),
                        calls: pairs,
                    }
                }
                Pact::CoGroup { .. } => {
                    let (l, r) = (inputs[0], inputs[1]);
                    let groups = op
                        .hints
                        .distinct_keys
                        .map(|k| k as f64)
                        .unwrap_or_else(|| (l.rows.max(r.rows)) * DEFAULT_KEY_RATIO)
                        .max(1.0);
                    Est {
                        rows: groups * sel,
                        bytes_per_row: op
                            .hints
                            .avg_record_bytes
                            .map(|b| b as f64)
                            .unwrap_or(l.bytes_per_row + r.bytes_per_row + added_bytes),
                        calls: groups,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strato_dataflow::{CostHints, ProgramBuilder, SourceDef};
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

    #[test]
    fn map_selectivity_scales_rows() {
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["a"], 1000).with_bytes_per_row(10));
        let m = p.map("f", identity_map(1), CostHints::selectivity(0.25), s);
        let plan = p.finish(m).unwrap().bind().unwrap();
        let e = estimate(&plan, &plan.root);
        assert_eq!(e.rows, 250.0);
        assert_eq!(e.calls, 1000.0);
        assert_eq!(e.bytes_per_row, 10.0);
    }

    #[test]
    fn reduce_uses_distinct_keys_hint() {
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["k", "v"], 1000));
        let r = p.reduce(
            "g",
            &[0],
            group_first(2),
            CostHints::selectivity(1.0).with_distinct_keys(50),
            s,
        );
        let plan = p.finish(r).unwrap().bind().unwrap();
        let e = estimate(&plan, &plan.root);
        assert_eq!(e.rows, 50.0);
        assert_eq!(e.calls, 50.0);
    }

    #[test]
    fn reduce_defaults_to_key_ratio() {
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["k"], 1000));
        let r = p.reduce("g", &[0], group_first(1), CostHints::default(), s);
        let plan = p.finish(r).unwrap().bind().unwrap();
        let e = estimate(&plan, &plan.root);
        assert_eq!(e.rows, 100.0);
    }

    #[test]
    fn match_pairs_use_key_domain() {
        let mut p = ProgramBuilder::new();
        let l = p.source(SourceDef::new("l", &["k"], 1000).with_bytes_per_row(8));
        let r = p.source(SourceDef::new("r", &["k"], 100).with_bytes_per_row(8));
        let j = p.match_(
            "j",
            &[0],
            &[0],
            join_udf(1, 1),
            CostHints::default().with_distinct_keys(100),
            l,
            r,
        );
        let plan = p.finish(j).unwrap().bind().unwrap();
        let e = estimate(&plan, &plan.root);
        // 1000 × 100 / 100 = 1000 pairs.
        assert_eq!(e.rows, 1000.0);
        assert_eq!(e.calls, 1000.0);
        assert_eq!(e.bytes_per_row, 16.0);
    }

    #[test]
    fn cross_is_quadratic() {
        let mut p = ProgramBuilder::new();
        let l = p.source(SourceDef::new("l", &["a"], 30));
        let r = p.source(SourceDef::new("r", &["b"], 20));
        let c = p.cross("x", join_udf(1, 1), CostHints::default(), l, r);
        let plan = p.finish(c).unwrap().bind().unwrap();
        let e = estimate(&plan, &plan.root);
        assert_eq!(e.rows, 600.0);
    }

    #[test]
    fn estimates_are_position_independent_for_hints() {
        // Two filters with the same hints give the same final rows in
        // either order (selectivities multiply).
        let mk = |order_ab: bool| {
            let mut p = ProgramBuilder::new();
            let s = p.source(SourceDef::new("s", &["a", "b"], 1000));
            let (sel1, sel2) = (0.5, 0.2);
            let (h1, h2) = (CostHints::selectivity(sel1), CostHints::selectivity(sel2));
            let m = if order_ab {
                let m1 = p.map("f1", identity_map(2), h1, s);
                p.map("f2", identity_map(2), h2, m1)
            } else {
                let m2 = p.map("f2", identity_map(2), h2, s);
                p.map("f1", identity_map(2), h1, m2)
            };
            let plan = p.finish(m).unwrap().bind().unwrap();
            estimate(&plan, &plan.root).rows
        };
        assert_eq!(mk(true), mk(false));
    }

    #[test]
    fn est_bytes() {
        let e = Est {
            rows: 10.0,
            bytes_per_row: 4.0,
            calls: 0.0,
        };
        assert_eq!(e.bytes(), 40.0);
    }
}
