//! The flows and inputs the benchmark generates itself: the shuffle flow of
//! the in-process shuffle pair and the request bodies of the two served
//! workloads. (The paper's four flows come from `strato-workloads`.)
//!
//! Everything here is a function of the seed only; the program under test
//! receives the generated rows and bodies and nothing else.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;
use strato_dataflow::{CostHints, Plan, ProgramBuilder, SourceDef};
use strato_exec::Inputs;
use strato_ir::{FuncBuilder, UdfKind};
use strato_record::{DataSet, Record, Value};

/// The `engine.rs` shuffle flow: `rows` two-field records (int key with
/// `keys` distinct values, 35-byte string payload) into a first-of-group
/// reduce, which forces a hash repartition of the whole input and runs no
/// Map UDF.
pub fn shuffle_plan(rows: usize, keys: usize) -> Plan {
    let mut b = FuncBuilder::new("first", UdfKind::Group, vec![2]);
    let it = b.iter_open(0);
    let nil = b.new_label();
    let first = b.iter_next(it, nil);
    let or = b.copy(first);
    b.emit(or);
    b.place(nil);
    b.ret();
    let udf = b.finish().expect("first-of-group UDF is well-formed");

    let mut p = ProgramBuilder::new();
    let s = p.source(SourceDef::new("s", &["k", "payload"], rows as u64).with_bytes_per_row(45));
    let r = p.reduce(
        "first",
        &[0],
        udf,
        CostHints::default().with_distinct_keys(keys as u64),
        s,
    );
    p.finish(r)
        .and_then(|program| program.bind())
        .expect("shuffle flow binds")
}

pub fn shuffle_inputs(rows: usize, keys: usize, seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let ds: DataSet = (0..rows)
        .map(|_| {
            Record::from_values([
                Value::Int(rng.gen_range(0..keys as i64)),
                Value::str(format!("payload-{:027}", rng.gen_range(0..u64::MAX))),
            ])
        })
        .collect();
    Inputs::from([("s".to_string(), ds)])
}

/// One `POST /v1/query` body, with and without `"trace": true`.
pub struct Body {
    pub plain: String,
    pub traced: String,
}

fn body(flow: &str, inputs: &str) -> Body {
    let render =
        |options: &str| format!(r#"{{"flow":{flow},"inputs":{{{inputs}}},"options":{options}}}"#);
    Body {
        plain: render(r#"{"dop":2}"#),
        traced: render(r#"{"dop":2,"trace":true}"#),
    }
}

fn source(name: &str, fields: &[&str], rows: usize) -> String {
    let fields: Vec<String> = fields.iter().map(|f| format!("\"{f}\"")).collect();
    format!(
        r#"{{"source":{{"name":"{name}","fields":[{}],"est_rows":{rows}}}}}"#,
        fields.join(",")
    )
}

fn op(spec: &str, inputs: &[&str]) -> String {
    format!(r#"{{"op":{{{spec}}},"inputs":[{}]}}"#, inputs.join(","))
}

fn rows_json(name: &str, rows: &[Vec<i64>]) -> String {
    let mut s = format!("\"{name}\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('[');
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            write!(s, "{v}").expect("write to String");
        }
        s.push(']');
    }
    s.push(']');
    s
}

/// Number of filter constants each `served_small` shape is rendered with.
const SMALL_CONSTANTS: i64 = 16;

/// The `served_small` traffic: 8 flow shapes × 16 filter constants = 128
/// distinct specs over three inline sources of at most `fact_rows` rows —
/// `t(k, v, w)`, `u(k, x)` and the 32-row dimension `d(k2, g)`. Every shape
/// filters on the constant, so no two bodies compile to the same plan and a
/// plan cache has 128 entries to hold.
pub fn served_small_bodies(fact_rows: usize, seed: u64) -> Vec<Body> {
    let mut rng = StdRng::seed_from_u64(seed);
    let t: Vec<Vec<i64>> = (0..fact_rows)
        .map(|_| {
            vec![
                rng.gen_range(0..32),
                rng.gen_range(0..1000),
                rng.gen_range(0..100),
            ]
        })
        .collect();
    let u: Vec<Vec<i64>> = (0..fact_rows / 2)
        .map(|_| vec![rng.gen_range(0..40), rng.gen_range(0..1000)])
        .collect();
    let d: Vec<Vec<i64>> = (0..32).map(|k| vec![k, rng.gen_range(0..4)]).collect();

    let src_t = source("t", &["k", "v", "w"], t.len());
    let src_u = source("u", &["k", "x"], u.len());
    let src_d = source("d", &["k2", "g"], d.len());
    let (in_t, in_u, in_d) = (rows_json("t", &t), rows_json("u", &u), rows_json("d", &d));
    let t_only = in_t.clone();
    let t_and_d = format!("{in_t},{in_d}");
    let t_and_u = format!("{in_t},{in_u}");

    let filter = |name: &str, field: usize, cmp: &str, value: i64, input: &str| {
        op(
            &format!(
                r#""name":"{name}","kind":"map","udf":{{"fn":"filter","field":{field},"cmp":"{cmp}","value":{value}}}"#
            ),
            &[input],
        )
    };
    let range = |name: &str, field: usize, lo: i64, hi: i64, input: &str| {
        op(
            &format!(
                r#""name":"{name}","kind":"map","udf":{{"fn":"filter_range","field":{field},"lo":{lo},"hi":{hi}}}"#
            ),
            &[input],
        )
    };
    let fold = |name: &str, key: usize, fold_op: &str, field: usize, append: bool, input: &str| {
        op(
            &format!(
                r#""name":"{name}","kind":"reduce","key":[{key}],"udf":{{"fn":"fold","op":"{fold_op}","field":{field},"append":{append}}}"#
            ),
            &[input],
        )
    };
    let count = |name: &str, key: usize, input: &str| {
        op(
            &format!(r#""name":"{name}","kind":"reduce","key":[{key}],"udf":{{"fn":"count"}}"#),
            &[input],
        )
    };
    let join_d = |name: &str, left: &str| {
        op(
            &format!(r#""name":"{name}","kind":"match","key_left":[0],"key_right":[0]"#),
            &[left, &src_d],
        )
    };

    let mut bodies = Vec::new();
    for c in 0..SMALL_CONSTANTS {
        // filter → in-place sum per key (combinable).
        let f = filter("pos", 1, "ge", 40 * c, &src_t);
        bodies.push(body(&fold("sum", 0, "sum", 1, false, &f), &t_only));
        // filter_range → reduce count.
        let f = range("mid", 1, 30 * c, 30 * c + 500, &src_t);
        bodies.push(body(&count("cnt", 0, &f), &t_only));
        // filter → match → in-place fold.
        let f = filter("low", 1, "lt", 1000 - 40 * c, &src_t);
        let j = join_d("dim", &f);
        bodies.push(body(&fold("max", 0, "max", 1, false, &j), &t_and_d));
        // cogroup count_diff over a filtered left side.
        let f = filter("wide", 2, "ge", 5 * c, &src_t);
        let cg = op(
            r#""name":"diff","kind":"cogroup","key_left":[0],"key_right":[0],"udf":{"fn":"count_diff"}"#,
            &[&f, &src_u],
        );
        bodies.push(body(&cg, &t_and_u));
        // two commuting filters → appending min (not combinable).
        let f1 = filter("fa", 1, "ge", 30 * c, &src_t);
        let f2 = filter("fb", 2, "lt", 100 - 3 * c, &f1);
        bodies.push(body(&fold("min", 0, "min", 2, true, &f2), &t_only));
        // filter written above the join (the optimizer may push it down),
        // then an in-place sum per dimension group.
        let j = join_d("dim", &src_t);
        let f = filter("late", 1, "ge", 40 * c, &j);
        bodies.push(body(&fold("by_g", 4, "sum", 1, false, &f), &t_and_d));
        // expensive opaque map below a selective filter.
        let b = op(
            r#""name":"heavy","kind":"map","udf":{"fn":"burn","field":1,"units":20}"#,
            &[&src_t],
        );
        let f = filter("keep", 1, "ge", 40 * c, &b);
        bodies.push(body(&fold("sum", 0, "sum", 1, false, &f), &t_only));
        // filter_range → match, rows returned unaggregated.
        let f = range("band", 2, 2 * c, 2 * c + 60, &src_t);
        bodies.push(body(&join_d("dim", &f), &t_and_d));
    }
    bodies
}

/// The `served_bulk` request: a `rows`-row inline source `big(id, key, val)`
/// → `filter_range` on `val` keeping ≈ 80 % → match against the 256-row
/// dimension `dim(key2, label)`; every surviving row joins exactly once.
pub fn served_bulk_body(rows: usize, seed: u64) -> Body {
    let mut rng = StdRng::seed_from_u64(seed);
    let big: Vec<Vec<i64>> = (0..rows as i64)
        .map(|id| vec![id, rng.gen_range(0..256), rng.gen_range(0..1000)])
        .collect();
    let mut dim = String::from("\"dim\":[");
    for k in 0..256 {
        if k > 0 {
            dim.push(',');
        }
        write!(dim, "[{k},\"label-{:06}\"]", rng.gen_range(0..1_000_000)).expect("write to String");
    }
    dim.push(']');
    let f = op(
        r#""name":"band","kind":"map","udf":{"fn":"filter_range","field":2,"lo":100,"hi":899}"#,
        &[&source("big", &["id", "key", "val"], rows)],
    );
    let j = op(
        r#""name":"dim","kind":"match","key_left":[1],"key_right":[0]"#,
        &[&f, &source("dim", &["key2", "label"], 256)],
    );
    body(&j, &format!("{},{dim}", rows_json("big", &big)))
}
