//! TPC-H subset: generator plus the paper's modified Q7 and Q15.
//!
//! Section 7.2: *"We implemented slightly modified variants of queries 7
//! (where we reduced the selectivity of the shipdate filter and removed the
//! final sorting) and 15 (where we removed the filter on total revenue)."*
//!
//! The generator is a seeded, laptop-scale stand-in for the paper's 400 GB
//! data set: same schema relationships (PK–FK chains lineitem→orders→
//! customer→nation and lineitem→supplier→nation), uniform value
//! distributions matched to the cost hints attached to the operators.

use crate::udfs::{join_concat, revenue_sum_group};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::HashMap;
use strato_dataflow::{CostHints, Plan, ProgramBuilder, SourceDef};
use strato_ir::{BinOp, FuncBuilder, Function, Intrinsic, UdfKind};
use strato_record::{DataSet, Record, Value};

/// Scale knobs for the generator. All row counts derive from `orders`.
#[derive(Debug, Clone, Copy)]
pub struct TpchScale {
    /// Number of orders. Lineitem ≈ 4×, customers = orders/10,
    /// suppliers = max(orders/100, 25).
    pub orders: usize,
}

impl TpchScale {
    /// A small scale suitable for tests.
    pub fn tiny() -> Self {
        TpchScale { orders: 300 }
    }

    /// The default benchmarking scale.
    pub fn small() -> Self {
        TpchScale { orders: 3_000 }
    }

    /// Lineitem row count.
    pub fn lineitems(&self) -> usize {
        self.orders * 4
    }

    /// Customer row count.
    pub fn customers(&self) -> usize {
        (self.orders / 10).max(5)
    }

    /// Supplier row count.
    pub fn suppliers(&self) -> usize {
        (self.orders / 100).max(25)
    }
}

/// Number of nations (as in TPC-H).
pub const N_NATIONS: usize = 25;
/// First nation of the Q7 disjunctive predicate.
pub const NATION_A: &str = "FRANCE";
/// Second nation of the Q7 disjunctive predicate.
pub const NATION_B: &str = "GERMANY";

/// Shipdates are integer `yyyymmdd` values uniform over this many years
/// starting 1992.
const YEARS: i64 = 7;

fn nation_name(k: usize) -> String {
    match k {
        6 => NATION_A.to_string(),
        7 => NATION_B.to_string(),
        _ => format!("NATION_{k:02}"),
    }
}

fn random_date(rng: &mut StdRng) -> i64 {
    let year = 1992 + rng.gen_range(0..YEARS);
    let month = rng.gen_range(1..=12);
    let day = rng.gen_range(1..=28);
    year * 10_000 + month * 100 + day
}

/// Generates all TPC-H tables. The same `Inputs` serves Q7 and Q15
/// (`nation1`/`nation2` carry identical content for the tree-shaped flow).
pub fn generate(scale: TpchScale, seed: u64) -> HashMap<String, DataSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inputs = HashMap::new();

    let lineitem: DataSet = (0..scale.lineitems())
        .map(|_| {
            Record::from_values([
                Value::Int(rng.gen_range(0..scale.orders as i64)), // l_orderkey
                Value::Int(rng.gen_range(0..scale.suppliers() as i64)), // l_suppkey
                Value::Int(rng.gen_range(100..100_000)),           // l_price (cents)
                Value::Int(rng.gen_range(0..=10)),                 // l_disc (%)
                Value::Int(random_date(&mut rng)),                 // l_shipdate
                Value::Int(rng.gen_range(1..=50)),                 // l_qty
            ])
        })
        .collect();
    inputs.insert("lineitem".to_string(), lineitem);

    let orders: DataSet = (0..scale.orders)
        .map(|k| {
            Record::from_values([
                Value::Int(k as i64),                                   // o_orderkey
                Value::Int(rng.gen_range(0..scale.customers() as i64)), // o_custkey
            ])
        })
        .collect();
    inputs.insert("orders".to_string(), orders);

    let customer: DataSet = (0..scale.customers())
        .map(|k| {
            Record::from_values([
                Value::Int(k as i64),                           // c_custkey
                Value::Int(rng.gen_range(0..N_NATIONS as i64)), // c_nationkey
            ])
        })
        .collect();
    inputs.insert("customer".to_string(), customer);

    let supplier: DataSet = (0..scale.suppliers())
        .map(|k| {
            Record::from_values([
                Value::Int(k as i64),                           // s_suppkey
                Value::Int(rng.gen_range(0..N_NATIONS as i64)), // s_nationkey
            ])
        })
        .collect();
    inputs.insert("supplier".to_string(), supplier);

    let nation: DataSet = (0..N_NATIONS)
        .map(|k| Record::from_values([Value::Int(k as i64), Value::str(nation_name(k))]))
        .collect();
    inputs.insert("nation1".to_string(), nation.clone());
    inputs.insert("nation2".to_string(), nation);

    inputs
}

/// Q7's year-derivation map: appends `year(l_shipdate)` as a new field —
/// the record enrichment that lets the final Reduce group on `year`
/// without knowing date semantics. Kept separate from the shipdate filter
/// (both are freely reorderable record-at-a-time maps, as in the paper's
/// implementation whose Q7 space holds ~2.5k orders).
fn derive_year(width: usize, date_field: usize) -> Function {
    let mut b = FuncBuilder::new("derive_year", UdfKind::Map, vec![width]);
    let d = b.get_input(0, date_field);
    let or = b.copy_input(0);
    let y = b.call(Intrinsic::Year, vec![d]);
    b.set(or, width, y);
    b.emit(or);
    b.ret();
    b.finish().expect("derive_year")
}

/// Q7's shipdate filter: the year 1995 out of the 1992–1998 domain (the
/// paper "reduced the selectivity of the shipdate filter").
fn shipdate_filter_q7(width: usize, date_field: usize) -> Function {
    crate::udfs::filter_range(width, date_field, 19_950_101, 19_951_231)
}

/// Q15's plain shipdate filter (first quarter of 1996).
fn shipdate_filter_q15(width: usize, date_field: usize) -> Function {
    crate::udfs::filter_range(width, date_field, 19_960_101, 19_960_331)
}

/// The disjunctive nation predicate of Q7:
/// `(n1 = FRANCE ∧ n2 = GERMANY) ∨ (n1 = GERMANY ∧ n2 = FRANCE)`.
fn disjunctive_nation_filter(width: usize, n1_field: usize, n2_field: usize) -> Function {
    let mut b = FuncBuilder::new("disj_nations", UdfKind::Map, vec![width]);
    let n1 = b.get_input(0, n1_field);
    let n2 = b.get_input(0, n2_field);
    let fr = b.konst(NATION_A);
    let ge = b.konst(NATION_B);
    let a1 = b.bin(BinOp::Eq, n1, fr);
    let a2 = b.bin(BinOp::Eq, n2, ge);
    let a = b.bin(BinOp::And, a1, a2);
    let b1 = b.bin(BinOp::Eq, n1, ge);
    let b2 = b.bin(BinOp::Eq, n2, fr);
    let bb = b.bin(BinOp::And, b1, b2);
    let keep = b.bin(BinOp::Or, a, bb);
    let end = b.new_label();
    b.branch_not(keep, end);
    let or = b.copy_input(0);
    b.emit(or);
    b.place(end);
    b.ret();
    b.finish().expect("disj_nations")
}

/// Builds the Q7 data flow exactly as implemented in Figure 2(a):
///
/// ```text
/// lineitem → Map(year) → Mapσ(date) → ⋈s → ⋈o → ⋈c → ⋈n1 → ⋈n2
///          → Mapσ(disj) → Reduce γ
/// ```
///
/// Schemas (local field indices):
/// lineitem⟨okey,skey,price,disc,date,qty⟩+year, orders⟨okey,ckey⟩,
/// customer⟨ckey,nkey⟩, supplier⟨skey,nkey⟩, nation⟨nkey,name⟩.
pub fn q7_plan(scale: TpchScale) -> Plan {
    let mut p = ProgramBuilder::new();
    let li = p.source(
        SourceDef::new(
            "lineitem",
            &[
                "l_orderkey",
                "l_suppkey",
                "l_price",
                "l_disc",
                "l_shipdate",
                "l_qty",
            ],
            scale.lineitems() as u64,
        )
        .with_bytes_per_row(58),
    );
    let su = p.source(
        SourceDef::new(
            "supplier",
            &["s_suppkey", "s_nationkey"],
            scale.suppliers() as u64,
        )
        .with_unique_key(&[0])
        .with_bytes_per_row(22),
    );
    let ord = p.source(
        SourceDef::new("orders", &["o_orderkey", "o_custkey"], scale.orders as u64)
            .with_unique_key(&[0])
            .with_bytes_per_row(22),
    );
    let cu = p.source(
        SourceDef::new(
            "customer",
            &["c_custkey", "c_nationkey"],
            scale.customers() as u64,
        )
        .with_unique_key(&[0])
        .with_bytes_per_row(22),
    );
    let n1 = p.source(
        SourceDef::new("nation1", &["n1_nationkey", "n1_name"], N_NATIONS as u64)
            .with_unique_key(&[0])
            .with_bytes_per_row(24),
    );
    let n2 = p.source(
        SourceDef::new("nation2", &["n2_nationkey", "n2_name"], N_NATIONS as u64)
            .with_unique_key(&[0])
            .with_bytes_per_row(24),
    );

    // Map year enrichment (selectivity 1) and Map σ shipdate (2 years / 7).
    let f_year = p.map(
        "derive_year",
        derive_year(6, 4),
        CostHints::selectivity(1.0).with_cpu(1.0),
        li,
    );
    let f_date = p.map(
        "filter_shipdate",
        shipdate_filter_q7(7, 4),
        CostHints::selectivity(1.0 / 7.0).with_cpu(1.0),
        f_year,
    );
    // ⋈ supplier on l_suppkey (li-side width 7 after the year column).
    let j_ls = p.match_(
        "join_l_s",
        &[1],
        &[0],
        join_concat(7, 2),
        CostHints::selectivity(1.0).with_distinct_keys(scale.suppliers() as u64),
        f_date,
        su,
    );
    // ⋈ orders on l_orderkey (width 9).
    let j_lo = p.match_(
        "join_l_o",
        &[0],
        &[0],
        join_concat(9, 2),
        CostHints::selectivity(1.0).with_distinct_keys(scale.orders as u64),
        j_ls,
        ord,
    );
    // ⋈ customer on o_custkey (position 9+1 = 10; width 11).
    let j_oc = p.match_(
        "join_o_c",
        &[10],
        &[0],
        join_concat(11, 2),
        CostHints::selectivity(1.0).with_distinct_keys(scale.customers() as u64),
        j_lo,
        cu,
    );
    // ⋈ nation1 on c_nationkey (position 11+1 = 12; width 13).
    let j_cn1 = p.match_(
        "join_c_n1",
        &[12],
        &[0],
        join_concat(13, 2),
        CostHints::selectivity(1.0).with_distinct_keys(N_NATIONS as u64),
        j_oc,
        n1,
    );
    // ⋈ nation2 on s_nationkey (position 7+1 = 8; width 15).
    let j_sn2 = p.match_(
        "join_s_n2",
        &[8],
        &[0],
        join_concat(15, 2),
        CostHints::selectivity(1.0).with_distinct_keys(N_NATIONS as u64),
        j_cn1,
        n2,
    );
    // Map σ disjunctive nation predicate: 2 / 25² of nation pairs survive.
    let f_disj = p.map(
        "filter_nations",
        disjunctive_nation_filter(17, 14, 16),
        CostHints::selectivity(2.0 / (N_NATIONS * N_NATIONS) as f64).with_cpu(1.0),
        j_sn2,
    );
    // Reduce γ (n1_name, n2_name, year) with the revenue volume sum.
    let agg = p.reduce(
        "agg_volume",
        &[14, 16, 6],
        revenue_sum_group(17, 2, 3),
        CostHints::selectivity(1.0).with_distinct_keys(2),
        f_disj,
    );
    p.finish(agg).expect("q7 program").bind().expect("q7 bind")
}

/// Builds the Q15 data flow as implemented in Figure 3(a):
///
/// ```text
/// Match(s ⋈ l) over ( supplier , Reduce γ s_key(Σ revenue) over
///                                  Mapσ(date) over lineitem )
/// ```
pub fn q15_plan(scale: TpchScale) -> Plan {
    let mut p = ProgramBuilder::new();
    let su = p.source(
        SourceDef::new(
            "supplier",
            &["s_suppkey", "s_nationkey"],
            scale.suppliers() as u64,
        )
        .with_unique_key(&[0])
        .with_bytes_per_row(22),
    );
    let li = p.source(
        SourceDef::new(
            "lineitem",
            &[
                "l_orderkey",
                "l_suppkey",
                "l_price",
                "l_disc",
                "l_shipdate",
                "l_qty",
            ],
            scale.lineitems() as u64,
        )
        .with_bytes_per_row(58),
    );
    // Map σ shipdate: one quarter out of the seven-year domain.
    let f_date = p.map(
        "filter_shipdate",
        shipdate_filter_q15(6, 4),
        CostHints::selectivity(0.25 / 7.0).with_cpu(1.0),
        li,
    );
    // Reduce γ l_suppkey: per-supplier revenue.
    let agg = p.reduce(
        "agg_revenue",
        &[1],
        revenue_sum_group(6, 2, 3),
        CostHints::selectivity(1.0).with_distinct_keys(scale.suppliers() as u64),
        f_date,
    );
    // Match supplier ⋈ aggregated lineitem on the supplier key.
    let j = p.match_(
        "join_s_l",
        &[0],
        &[1],
        join_concat(2, 7),
        CostHints::selectivity(1.0).with_distinct_keys(scale.suppliers() as u64),
        su,
        agg,
    );
    p.finish(j).expect("q15 program").bind().expect("q15 bind")
}

#[cfg(test)]
mod tests {
    use super::*;
    use strato_core::{enumerate_all, PropTable};
    use strato_dataflow::PropertyMode;
    use strato_exec::{execute_logical, Inputs};

    fn as_inputs(m: HashMap<String, DataSet>) -> Inputs {
        m.into_iter().collect()
    }

    #[test]
    fn generator_is_deterministic_and_scaled() {
        let a = generate(TpchScale::tiny(), 1);
        let b = generate(TpchScale::tiny(), 1);
        assert_eq!(a["lineitem"], b["lineitem"]);
        assert_eq!(a["lineitem"].len(), TpchScale::tiny().lineitems());
        assert_eq!(a["nation1"], a["nation2"]);
        assert_eq!(a["nation1"].len(), N_NATIONS);
    }

    #[test]
    fn q7_binds_and_executes() {
        let scale = TpchScale::tiny();
        let plan = q7_plan(scale);
        assert_eq!(plan.root.n_ops(), 9);
        let inputs = as_inputs(generate(scale, 7));
        let (out, stats) = execute_logical(&plan, &inputs).unwrap();
        // Group keys: 2 nation-pair orders × 2 years = at most 4 rows.
        assert!(out.len() <= 4, "got {}", out.len());
        let calls = stats.totals().udf_calls;
        assert!(calls > 0);
    }

    #[test]
    fn q7_output_volume_is_positive_when_rows_survive() {
        let scale = TpchScale::small();
        let plan = q7_plan(scale);
        let inputs = as_inputs(generate(scale, 11));
        let (out, _) = execute_logical(&plan, &inputs).unwrap();
        assert!(!out.is_empty(), "SF small should produce FR/DE pairs");
        let sum_attr = plan.ctx.global.by_name("agg_volume.$0").unwrap();
        for r in out.iter() {
            assert!(r.field(sum_attr.index()).as_int().unwrap() > 0);
        }
    }

    #[test]
    fn q15_binds_and_executes() {
        let scale = TpchScale::tiny();
        let plan = q15_plan(scale);
        assert_eq!(plan.root.n_ops(), 3);
        let inputs = as_inputs(generate(scale, 3));
        let (out, _) = execute_logical(&plan, &inputs).unwrap();
        // At most one row per supplier.
        assert!(out.len() <= scale.suppliers());
    }

    #[test]
    fn q15_enumerates_the_expected_space() {
        let plan = q15_plan(TpchScale::tiny());
        let props = PropTable::build(&plan, PropertyMode::Sca);
        let alts = enumerate_all(&plan, &props, 100);
        // Map < Reduce fixed; the Match floats: original, aggregation
        // pushed above the join, and filter pulled above the join.
        assert_eq!(
            alts.len(),
            3,
            "{:#?}",
            alts.iter().map(|a| a.render()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn q15_all_orders_equivalent() {
        let scale = TpchScale::tiny();
        let plan = q15_plan(scale);
        let inputs = as_inputs(generate(scale, 5));
        let props = PropTable::build(&plan, PropertyMode::Sca);
        let (reference, _) = execute_logical(&plan, &inputs).unwrap();
        for alt in enumerate_all(&plan, &props, 100) {
            let (out, _) = execute_logical(&alt, &inputs).unwrap();
            assert_eq!(reference, out, "plan:\n{}", alt.render());
        }
    }

    #[test]
    fn q7_enumeration_space_is_large() {
        let plan = q7_plan(TpchScale::tiny());
        let props = PropTable::build(&plan, PropertyMode::Sca);
        let alts = enumerate_all(&plan, &props, 50_000);
        assert!(
            alts.len() >= 100,
            "Q7 must have a large bushy space, got {}",
            alts.len()
        );
    }

    #[test]
    fn q7_small_sample_of_orders_equivalent() {
        // The full space is exercised by the integration suite; here we
        // spot-check a slice to keep unit-test time low.
        let scale = TpchScale::tiny();
        let plan = q7_plan(scale);
        let inputs = as_inputs(generate(scale, 13));
        let props = PropTable::build(&plan, PropertyMode::Sca);
        let (reference, _) = execute_logical(&plan, &inputs).unwrap();
        let alts = enumerate_all(&plan, &props, 50_000);
        let step = (alts.len() / 12).max(1);
        for alt in alts.iter().step_by(step) {
            let (out, _) = execute_logical(alt, &inputs).unwrap();
            assert_eq!(reference, out, "plan:\n{}", alt.render());
        }
    }

    #[test]
    fn sca_and_manual_agree_on_tpch() {
        // Table 1: Q7 and Q15 reach 100% with SCA.
        for plan in [q15_plan(TpchScale::tiny()), q7_plan(TpchScale::tiny())] {
            let sca = PropTable::build(&plan, PropertyMode::Sca);
            let man = PropTable::build(&plan, PropertyMode::Manual);
            let a = enumerate_all(&plan, &sca, 50_000).len();
            let b = enumerate_all(&plan, &man, 50_000).len();
            assert_eq!(a, b);
        }
    }
}
