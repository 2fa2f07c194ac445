//! Property tests for the out-of-core spill subsystem: merging external
//! sorted runs with a loser tree is **exactly** an in-memory sort, and a
//! memory-starved execution is byte-identical to an unbounded one.

use proptest::prelude::*;
use strato::core::cost::CostWeights;
use strato::core::physical::best_physical;
use strato::core::PropTable;
use strato::dataflow::{CostHints, ProgramBuilder, PropertyMode, SourceDef};
use strato::exec::spill::{merge, MemoryGovernor};
use strato::exec::{execute_logical, execute_with, ExecOptions, Inputs};
use strato::record::{DataSet, Record, Value};
use strato::workloads::udfs;

/// The canonical comparator of the tests: key field 0 first (with null
/// smallest, via `Value`'s total order), whole record as tie-break —
/// the same `(key, record)` shape the operators sort runs with.
fn by_key(a: &Record, b: &Record) -> std::cmp::Ordering {
    a.field(0).cmp(b.field(0)).then_with(|| a.cmp(b))
}

fn record(k: i64, v: i64) -> Record {
    // k == 0 becomes a null key: the merge must order nulls identically
    // to the in-memory sort.
    let key = if k == 0 { Value::Null } else { Value::Int(k) };
    Record::from_values([key, Value::Int(v)])
}

proptest! {
    #[test]
    fn external_run_merge_equals_in_memory_sort(
        chunks in prop::collection::vec(
            prop::collection::vec((0i64..8, -100i64..100), 0..40),
            0..9,
        ),
        tail in prop::collection::vec((0i64..8, -100i64..100), 0..20),
        fan_in in 2usize..5,
    ) {
        let gov = MemoryGovernor::with_budget(Some(1));
        // Each chunk becomes one sorted on-disk run.
        let mut runs = Vec::new();
        let mut all: Vec<Record> = Vec::new();
        for chunk in &chunks {
            let mut recs: Vec<Record> = chunk.iter().map(|&(k, v)| record(k, v)).collect();
            all.extend(recs.iter().cloned());
            recs.sort_by(by_key);
            runs.push(gov.write_sorted_run(&recs).unwrap());
        }
        // Plus an in-memory tail, as operators merge their unspilled rest.
        let mut mem: Vec<Record> = tail.iter().map(|&(k, v)| record(k, v)).collect();
        all.extend(mem.iter().cloned());
        mem.sort_by(by_key);

        // A deliberately small fan-in forces multi-pass run compaction.
        let merged: Vec<Record> =
            merge::merge_runs_with_fan_in(&gov, runs, mem, by_key, fan_in)
                .unwrap()
                .collect::<Result<_, _>>()
                .unwrap();

        all.sort_by(by_key);
        prop_assert_eq!(merged, all);
    }

    #[test]
    fn memory_starved_execution_is_byte_identical(
        rows in prop::collection::vec((0i64..6, -50i64..50), 1..60),
        dop in 1usize..5,
        budget in prop::option::of(8u64..200),
    ) {
        // An in-place grouped aggregate: under an arbitrary (often
        // absurdly tiny) budget the Reduce spill machinery must be
        // invisible in the output.
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["k", "v"], 64));
        let g = p.reduce(
            "agg",
            &[0],
            udfs::sum_group_inplace(2, 1),
            CostHints::default().with_distinct_keys(6),
            s,
        );
        let plan = p.finish(g).unwrap().bind().unwrap();

        let ds: DataSet = rows
            .iter()
            .map(|&(k, v)| Record::from_values([Value::Int(k), Value::Int(v)]))
            .collect();
        let mut inputs = Inputs::new();
        inputs.insert("s".into(), ds);

        let (oracle, _) = execute_logical(&plan, &inputs).unwrap();
        let oracle = oracle.sorted();

        let props = PropTable::build(&plan, PropertyMode::Sca);
        let phys = best_physical(&plan, &props, &CostWeights::default(), dop);
        let opts = ExecOptions {
            mem_budget: budget,
            ..ExecOptions::default()
        };
        let (out, _) = execute_with(&plan, &phys, &inputs, dop, &opts).unwrap();
        prop_assert_eq!(out.sorted(), oracle);
    }
}
