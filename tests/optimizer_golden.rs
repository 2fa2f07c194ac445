//! Golden ranking digests: pins every cost the optimizer computes, bit for
//! bit, together with the rank order and each alternative's rendered
//! physical plan, on the paper's workloads.
//!
//! A digest is FNV-1a over `(canonical form, cost.to_bits(), rendered
//! physical plan)` of every ranked alternative, in rank order, so a change
//! to enumeration order, to a cost expression's operand order or to
//! physical selection moves it.

use strato::core::{Optimizer, OptimizerReport};
use strato::dataflow::{Plan, PropertyMode};
use strato::workloads::{clickstream, textmining, tpch};

/// `(flow, mode, dop, n_enumerated, digest)`.
#[rustfmt::skip]
const GOLDEN: &[(&str, PropertyMode, usize, usize, u64)] = &[
    ("q7", PropertyMode::Sca, 2, 2860, 0x5670e38a0a5cce89),
    ("q7", PropertyMode::Manual, 2, 2860, 0x5670e38a0a5cce89),
    ("q7", PropertyMode::Sca, 8, 2860, 0xb058fc570f39d3d1),
    ("q15", PropertyMode::Sca, 2, 3, 0xab4c236476fd943c),
    ("q15", PropertyMode::Manual, 2, 3, 0xab4c236476fd943c),
    ("textmining", PropertyMode::Sca, 2, 24, 0x7b522bdc6bdeab62),
    ("textmining", PropertyMode::Manual, 2, 24, 0x7b522bdc6bdeab62),
    ("clickstream", PropertyMode::Sca, 2, 3, 0xdadaccbaa3deaf25),
    ("clickstream", PropertyMode::Manual, 2, 4, 0xb158a2b42e7a6aae),
];

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest(report: &OptimizerReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in &report.ranked {
        fnv1a(&mut h, r.plan.canonical().as_bytes());
        fnv1a(&mut h, &r.cost.to_bits().to_le_bytes());
        fnv1a(&mut h, r.phys.render(&r.plan).as_bytes());
    }
    h
}

/// The paper's four flows: Q7 at the scale `repro` and stratobench
/// optimize, the others at their `small` scale.
fn flow(name: &str) -> Plan {
    match name {
        "q7" => tpch::q7_plan(tpch::TpchScale { orders: 12_000 }),
        "q15" => tpch::q15_plan(tpch::TpchScale::small()),
        "textmining" => textmining::plan(textmining::TextScale::small()),
        "clickstream" => clickstream::plan(clickstream::ClickScale::small()),
        _ => unreachable!("unknown flow {name}"),
    }
}

#[test]
fn rankings_match_the_golden_digests() {
    for &(name, mode, dop, n, expected) in GOLDEN {
        let plan = flow(name);
        let opt = Optimizer::new(mode).with_dop(dop);
        let report = opt.optimize(&plan);
        let tag = format!("{name} {mode:?} dop={dop}");
        assert_eq!(report.n_enumerated, n, "{tag}");
        assert_eq!(
            digest(&report),
            expected,
            "{tag}: a cost, the rank order or a physical plan moved"
        );

        let best = opt.best(&plan);
        let first = &report.ranked[0];
        assert_eq!(best.plan.canonical(), first.plan.canonical(), "{tag}");
        assert_eq!(best.cost.to_bits(), first.cost.to_bits(), "{tag}");
        assert_eq!(best.phys.render(&plan), first.phys.render(&plan), "{tag}");
    }
}
