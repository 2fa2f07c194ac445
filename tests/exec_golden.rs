//! Golden execution digests: pins the exact output of the engine on the
//! paper's workloads and on a first-of-group shuffle flow.
//!
//! The equivalence sweep compares every execution with the logical
//! oracle, but the oracle runs the same operators (`LocalStrategy::
//! default_for` maps Reduce to `HashGroup`), so a change that moved the
//! within-group order or split a hash collision wrongly would agree with
//! itself at every dop. These digests were taken from the engine before
//! Reduce grouped row views instead of owned records, and every later
//! change must reproduce them unmodified.
//!
//! A digest is FNV-1a over the wire encoding of every output record:
//! * `logical` — the *ordered* `execute_logical` output;
//! * `dop2` / `dop2_1k` — the `sorted()` output of the optimizer's best
//!   plan run at dop 2 with no memory budget and with a 1 KiB budget
//!   (which spills every blocking operator).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use strato::core::Optimizer;
use strato::dataflow::{CostHints, Plan, ProgramBuilder, PropertyMode, SourceDef};
use strato::exec::{execute_logical, execute_with, ExecOptions, Inputs};
use strato::ir::{FuncBuilder, UdfKind};
use strato::record::wire::encode_to_bytes;
use strato::record::{DataSet, Record, Value};
use strato::workloads::{clickstream, textmining, tpch};

/// `(flow, output rows, logical, dop2, dop2_1k)`.
#[rustfmt::skip]
const GOLDEN: &[(&str, usize, u64, u64, u64)] = &[
    ("q7", 1, 0x382d4c01dec876d6, 0x382d4c01dec876d6, 0x382d4c01dec876d6),
    ("q15", 19, 0x68676d6ebe7b237f, 0x68676d6ebe7b237f, 0x68676d6ebe7b237f),
    ("textmining", 5, 0x305efe2acd49e1b0, 0x305efe2acd49e1b0, 0x305efe2acd49e1b0),
    ("clickstream", 32, 0xffbe7bc0d8633879, 0xc5ff24a1036e69c1, 0xc5ff24a1036e69c1),
    ("first_of_group", 512, 0xf83d1b3769c9519a, 0xf83d1b3769c9519a, 0xf83d1b3769c9519a),
];

const SEED: u64 = 42;

fn fnv1a<'a>(records: impl IntoIterator<Item = &'a Record>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in records {
        for &b in encode_to_bytes(r).as_ref() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// 20 000 rows over 512 int keys with a string payload into a reduce
/// that emits each group's first record: the within-group order is the
/// whole output.
fn first_of_group() -> (Plan, Inputs) {
    let (rows, keys) = (20_000, 512i64);
    let mut b = FuncBuilder::new("first", UdfKind::Group, vec![2]);
    let it = b.iter_open(0);
    let nil = b.new_label();
    let first = b.iter_next(it, nil);
    let or = b.copy(first);
    b.emit(or);
    b.place(nil);
    b.ret();
    let udf = b.finish().unwrap();
    let mut p = ProgramBuilder::new();
    let s = p.source(SourceDef::new("s", &["k", "payload"], rows as u64));
    let hints = CostHints::default().with_distinct_keys(keys as u64);
    let r = p.reduce("first", &[0], udf, hints, s);
    let plan = p.finish(r).unwrap().bind().unwrap();

    let mut rng = StdRng::seed_from_u64(SEED);
    let ds: DataSet = (0..rows)
        .map(|_| {
            Record::from_values([
                Value::Int(rng.gen_range(0..keys)),
                Value::str(format!("payload-{:06}", rng.gen_range(0..1_000_000u32))),
            ])
        })
        .collect();
    (plan, Inputs::from([("s".to_string(), ds)]))
}

fn flow(name: &str) -> (Plan, Inputs) {
    let tiny = tpch::TpchScale::tiny();
    match name {
        "q7" => (tpch::q7_plan(tiny), tpch::generate(tiny, SEED)),
        "q15" => (tpch::q15_plan(tiny), tpch::generate(tiny, SEED)),
        "textmining" => {
            let scale = textmining::TextScale::tiny();
            (textmining::plan(scale), textmining::generate(scale, SEED))
        }
        "clickstream" => {
            let scale = clickstream::ClickScale::tiny();
            (clickstream::plan(scale), clickstream::generate(scale, SEED))
        }
        "first_of_group" => first_of_group(),
        _ => unreachable!("unknown flow {name}"),
    }
}

/// `(output rows, logical, dop2, dop2_1k)` of one flow.
fn digests(name: &str) -> (usize, u64, u64, u64) {
    let (plan, inputs) = flow(name);
    let (logical, _) = execute_logical(&plan, &inputs).unwrap();
    let best = Optimizer::new(PropertyMode::Sca).with_dop(2).best(&plan);
    let dop2 = |mem_budget: Option<u64>| {
        let opts = ExecOptions {
            mem_budget,
            ..ExecOptions::default()
        };
        let (out, _) = execute_with(&best.plan, &best.phys, &inputs, 2, &opts).unwrap();
        assert_eq!(out.len(), logical.len(), "{name} at {mem_budget:?}");
        fnv1a(&out.sorted())
    };
    (
        logical.len(),
        fnv1a(logical.iter()),
        dop2(None),
        dop2(Some(1024)),
    )
}

#[test]
fn outputs_match_the_golden_digests() {
    let mut moved = Vec::new();
    for &(name, rows, logical, dop2, dop2_1k) in GOLDEN {
        let got = digests(name);
        if got != (rows, logical, dop2, dop2_1k) {
            moved.push(format!(
                "(\"{name}\", {}, {:#018x}, {:#018x}, {:#018x}),",
                got.0, got.1, got.2, got.3
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "execution output moved:\n{}",
        moved.join("\n")
    );
}
