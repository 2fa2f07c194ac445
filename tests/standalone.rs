//! Standalone calls share one pool: concurrent `execute_with` calls
//! register with the process-wide runtime instead of each starting
//! threads of its own, so the process's thread count stays bounded by its
//! submitters plus one pool, however many calls are in flight.
//!
//! This binary holds a single test, so no other test adds threads while
//! it counts them.

#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use strato::core::cost::CostWeights;
use strato::core::physical::best_physical;
use strato::core::PropTable;
use strato::dataflow::{CostHints, ProgramBuilder, PropertyMode, SourceDef};
use strato::exec::{execute_with, ExecOptions, Inputs};
use strato::record::{DataSet, Record, Value};
use strato::workloads::udfs;

/// This process's thread count, from `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn concurrent_standalone_calls_share_one_pool() {
    const SUBMITTERS: usize = 8;
    const CALLS: usize = 10;
    const ROWS: i64 = 3000;

    // Before anything of the engine runs: the pool starts on first use.
    let baseline = threads();

    let mut p = ProgramBuilder::new();
    let s = p.source(SourceDef::new("s", &["k", "v"], ROWS as u64));
    let g = p.reduce(
        "agg",
        &[0],
        udfs::sum_group_inplace(2, 1),
        CostHints::default().with_distinct_keys(13),
        s,
    );
    let plan = p.finish(g).unwrap().bind().unwrap();
    let props = PropTable::build(&plan, PropertyMode::Sca);
    let phys = best_physical(&plan, &props, &CostWeights::default(), 4);
    let ds: DataSet = (0..ROWS)
        .map(|i| Record::from_values([Value::Int(i % 13), Value::Int(i % 101)]))
        .collect();
    let mut inputs = Inputs::new();
    inputs.insert("s".into(), ds);
    // Below the source's rows, so the pool steps every call.
    let opts = ExecOptions {
        batch_size: 256,
        ..ExecOptions::default()
    };
    let (reference, _) = execute_with(&plan, &phys, &inputs, 4, &opts).expect("serial run");

    let stop = AtomicBool::new(false);
    let (peak, samples) = std::thread::scope(|scope| {
        let observer = scope.spawn(|| {
            let (mut peak, mut samples) = (0, 0u64);
            while !stop.load(Ordering::Relaxed) {
                peak = peak.max(threads());
                samples += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            (peak, samples)
        });
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|s| {
                let (plan, phys, inputs, opts, reference) =
                    (&plan, &phys, &inputs, &opts, &reference);
                scope.spawn(move || {
                    for i in 0..CALLS {
                        let (out, _) =
                            execute_with(plan, phys, inputs, 4, opts).expect("standalone run");
                        assert_eq!(&out, reference, "submitter {s} call {i}");
                    }
                })
            })
            .collect();
        for h in submitters {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        observer.join().unwrap()
    });

    assert!(samples > 0, "the observer sampled the thread count");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let bound = baseline + SUBMITTERS + 1 + cores;
    assert!(
        peak <= bound,
        "{peak} threads at the peak, above {baseline} at the start + {SUBMITTERS} submitters \
         + 1 observer + {cores} cores (at most one pool worker each)"
    );
}
