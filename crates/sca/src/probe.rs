//! Semantic probing of black-box UDFs.
//!
//! Definitions 2 and 3 of the paper define read and write sets
//! *semantically* (over all possible inputs). The static analysis must
//! over-approximate them. This module estimates the semantic sets by
//! black-box probing — run the UDF on sampled records, flip one field at a
//! time, observe output differences — producing **under**-approximations of
//! the true sets. The conservatism law every UDF must satisfy is then
//! machine-checkable:
//!
//! ```text
//! probe_read_set(f) ⊆ sca::analyze(f).reads
//! probe_write_set(f) ⊆ sca::analyze(f).written_base ∪ added
//! ```
//!
//! The property-test suites run this check over every workload UDF and over
//! randomly generated UDFs.

use crate::props::InField;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::BTreeSet;
use strato_ir::func::Function;
use strato_ir::interp::{Interp, Invocation, Layout};
use strato_ir::UdfKind;
use strato_record::{Record, RowRef, Value};

/// Sampling configuration for probing.
#[derive(Debug, Clone)]
pub struct ProbeConfig {
    /// Number of base records sampled.
    pub samples: usize,
    /// Values drawn uniformly when synthesizing records and when flipping a
    /// field. Should cover the UDF's expected domain.
    pub pool: Vec<Value>,
    /// RNG seed (probing is deterministic given the seed).
    pub seed: u64,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            samples: 64,
            pool: vec![
                Value::Int(-2),
                Value::Int(-1),
                Value::Int(0),
                Value::Int(1),
                Value::Int(2),
                Value::Int(7),
                Value::Int(1000),
            ],
            seed: 0x5eed,
        }
    }
}

/// Builds an input record for input `i` in the *local layout* of `f`: the
/// input's fields sit at their global positions (input 1 follows input 0),
/// everything else is null.
fn random_input_record(
    rng: &mut StdRng,
    f: &Function,
    input: usize,
    global_width: usize,
    pool: &[Value],
) -> Record {
    let offset: usize = f.input_widths()[..input].iter().sum();
    let w = f.input_widths()[input];
    let mut r = Record::nulls(global_width);
    for n in 0..w {
        r.set_field(offset + n, pool.choose(rng).cloned().unwrap_or(Value::Null));
    }
    r
}

fn run(f: &Function, layout: &Layout, inv: Invocation<'_>) -> Vec<Record> {
    let mut out = Vec::new();
    // Probing ignores runaway UDFs (step-limited); an error yields no output,
    // which only makes the probe *under*-approximate further — still sound
    // for the conservatism check.
    let _ = Interp::with_max_steps(200_000).run(f, inv, layout, &mut out);
    out
}

/// Estimates the semantic **read set** of a Map or Pair UDF by Definition 3:
/// field `(i, n)` is read if changing only that field changes the output
/// cardinality or any output field other than `n`'s identity position.
pub fn probe_read_set(f: &Function, cfg: &ProbeConfig) -> BTreeSet<InField> {
    let layout = Layout::local(f);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut found = BTreeSet::new();
    let widths: Vec<usize> = f.input_widths().to_vec();
    for _ in 0..cfg.samples {
        let recs: Vec<Record> = (0..widths.len())
            .map(|i| random_input_record(&mut rng, f, i, layout.width, &cfg.pool))
            .collect();
        let base_out = invoke(f, &layout, &recs);
        for (i, &w) in widths.iter().enumerate() {
            let offset: usize = widths[..i].iter().sum();
            for n in 0..w {
                if found.contains(&(i as u8, n)) {
                    continue;
                }
                let global_pos = offset + n;
                let mut alt = recs.clone();
                let old = alt[i].field(global_pos).clone();
                let new = cfg
                    .pool
                    .iter()
                    .find(|v| **v != old)
                    .cloned()
                    .unwrap_or(Value::Null);
                alt[i].set_field(global_pos, new);
                let alt_out = invoke(f, &layout, &alt);
                if differs_besides(&base_out, &alt_out, global_pos) {
                    found.insert((i as u8, n));
                }
            }
        }
    }
    found
}

/// Estimates the semantic **write set** of a Map or Pair UDF by
/// Definition 2 (case 2): output position `n` is written if some emitted
/// record's value at `n` differs from the input's.
pub fn probe_write_set(f: &Function, cfg: &ProbeConfig) -> BTreeSet<usize> {
    let layout = Layout::local(f);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9e3779b97f4a7c15);
    let mut found = BTreeSet::new();
    let widths: Vec<usize> = f.input_widths().to_vec();
    let base_w = f.base_output_width();
    let _ = &widths;
    for _ in 0..cfg.samples {
        let recs: Vec<Record> = (0..widths.len())
            .map(|i| random_input_record(&mut rng, f, i, layout.width, &cfg.pool))
            .collect();
        // The merged input view in output coordinates.
        let mut merged = recs[0].clone();
        for r in &recs[1..] {
            merged.merge_absent(r);
        }
        for o in invoke(f, &layout, &recs) {
            for n in 0..base_w {
                if o.field(n) != merged.field(n) {
                    found.insert(n);
                }
            }
        }
    }
    found
}

/// Estimates the semantic emit-count range observed over samples.
pub fn probe_emit_counts(f: &Function, cfg: &ProbeConfig) -> (u64, u64) {
    let layout = Layout::local(f);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xabcdef);
    let widths: Vec<usize> = f.input_widths().to_vec();
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for _ in 0..cfg.samples {
        let recs: Vec<Record> = (0..widths.len())
            .map(|i| random_input_record(&mut rng, f, i, layout.width, &cfg.pool))
            .collect();
        let n = invoke(f, &layout, &recs).len() as u64;
        lo = lo.min(n);
        hi = hi.max(n);
    }
    (if lo == u64::MAX { 0 } else { lo }, hi)
}

fn invoke(f: &Function, layout: &Layout, recs: &[Record]) -> Vec<Record> {
    let views: Vec<RowRef<'_>> = recs.iter().map(RowRef::from).collect();
    match f.kind() {
        UdfKind::Map => run(f, layout, Invocation::Row(views[0])),
        UdfKind::Pair => run(f, layout, Invocation::Pair(views[0], views[1])),
        UdfKind::Group => run(f, layout, Invocation::Group(&views[..1])),
        UdfKind::CoGroup => run(f, layout, Invocation::CoGroup(&views[..1], &views[1..2])),
    }
}

/// Output bags differ in cardinality or in some position other than
/// `ignore` (Definition 3's "k ≠ n").
fn differs_besides(a: &[Record], b: &[Record], ignore: usize) -> bool {
    if a.len() != b.len() {
        return true;
    }
    let strip = |rs: &[Record]| -> Vec<Vec<Value>> {
        let mut v: Vec<Vec<Value>> = rs
            .iter()
            .map(|r| {
                r.fields()
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != ignore)
                    .map(|(_, x)| x.clone())
                    .collect()
            })
            .collect();
        v.sort();
        v
    };
    strip(a) != strip(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use strato_ir::{BinOp, FuncBuilder, UnOp};

    fn paper_f1() -> Function {
        let mut b = FuncBuilder::new("f1", UdfKind::Map, vec![2]);
        let bv = b.get_input(0, 1);
        let or = b.copy_input(0);
        let zero = b.konst(0i64);
        let nonneg = b.bin(BinOp::Ge, bv, zero);
        let done = b.new_label();
        b.branch(nonneg, done);
        let abs = b.un(UnOp::Abs, bv);
        b.set(or, 1, abs);
        b.place(done);
        b.emit(or);
        b.ret();
        b.finish().unwrap()
    }

    fn paper_f2() -> Function {
        let mut b = FuncBuilder::new("f2", UdfKind::Map, vec![2]);
        let a = b.get_input(0, 0);
        let zero = b.konst(0i64);
        let neg = b.bin(BinOp::Lt, a, zero);
        let end = b.new_label();
        b.branch(neg, end);
        let out = b.copy_input(0);
        b.emit(out);
        b.place(end);
        b.ret();
        b.finish().unwrap()
    }

    #[test]
    fn probe_finds_filter_read() {
        let reads = probe_read_set(&paper_f2(), &ProbeConfig::default());
        assert!(reads.contains(&(0, 0)));
        assert!(!reads.contains(&(0, 1)));
    }

    #[test]
    fn probe_finds_abs_write() {
        let writes = probe_write_set(&paper_f1(), &ProbeConfig::default());
        assert!(writes.contains(&1));
        assert!(!writes.contains(&0));
    }

    #[test]
    fn probed_sets_are_subsets_of_sca_sets() {
        for f in [paper_f1(), paper_f2()] {
            let props = analyze(&f);
            let cfg = ProbeConfig::default();
            for r in probe_read_set(&f, &cfg) {
                assert!(
                    props.reads.contains(&r),
                    "{}: probe read {r:?} missed",
                    f.name()
                );
            }
            for w in probe_write_set(&f, &cfg) {
                assert!(
                    props.written_base.contains(&w) || props.added.contains(&w),
                    "{}: probe write {w} missed",
                    f.name()
                );
            }
        }
    }

    #[test]
    fn probe_emit_counts_within_sca_bounds() {
        for f in [paper_f1(), paper_f2()] {
            let props = analyze(&f);
            let (lo, hi) = probe_emit_counts(&f, &ProbeConfig::default());
            assert!(lo >= props.emits.min);
            if let Some(max) = props.emits.max {
                assert!(hi <= max);
            }
        }
    }

    #[test]
    fn probe_handles_pair_udfs() {
        // Join-style filter: emit concat iff field0(left) == field0(right).
        let mut b = FuncBuilder::new("jf", UdfKind::Pair, vec![2, 2]);
        let l = b.get_input(0, 0);
        let r = b.get_input(1, 0);
        let eq = b.bin(BinOp::Eq, l, r);
        let end = b.new_label();
        b.branch_not(eq, end);
        let or = b.concat_inputs();
        b.emit(or);
        b.place(end);
        b.ret();
        let f = b.finish().unwrap();
        let reads = probe_read_set(&f, &ProbeConfig::default());
        assert!(reads.contains(&(0, 0)));
        assert!(reads.contains(&(1, 0)));
        let writes = probe_write_set(&f, &ProbeConfig::default());
        assert!(writes.is_empty());
    }
}
