//! Runtime profiling of black-box operators.
//!
//! The paper's optimizer consumes hints that "can be provided by the user,
//! a language compiler (e.g., Hive or Pig), or obtained by **runtime
//! profiling**" (Section 7.1), and names "estimating the selectivity and
//! execution cost of black box operators" as future work (Section 9).
//! This module implements the profiling path: execute the data flow once
//! over a *sample* of the inputs, observe every operator's call count,
//! emit count, key cardinality and CPU time, and turn the observations
//! into [`CostHints`] — no user input, no semantics, just measurement of
//! the black boxes.
//!
//! Profiling runs through the **production streaming runtime** (the same
//! task graph and scheduler as [`crate::execute`], at `dop = 1`) with the
//! per-operator detail counters of [`ExecStats::for_profiling`] switched
//! on: each task runs one operator and its step time is charged to that
//! operator, keyed operators report the distinct input keys they observed
//! while grouping, and the UDF call path records emitted bytes.

use crate::engine::{ExecError, Inputs};
use crate::pipeline::{self, ExecOptions};
use crate::stats::ExecStats;
use strato_core::PhysPlan;
use strato_dataflow::{CostHints, Plan};
use strato_record::DataSet;

/// Raw per-operator observations from one profiled run.
#[derive(Debug, Clone, Default)]
pub struct OpProfile {
    /// UDF invocations.
    pub calls: u64,
    /// Records emitted.
    pub emits: u64,
    /// Distinct key values seen on input 0 (keyed PACTs only).
    pub distinct_keys: u64,
    /// Nanoseconds spent inside the operator's tasks (UDF interpretation
    /// plus the operator's own grouping/joining work).
    pub udf_nanos: u64,
    /// Average emitted-record width in bytes.
    pub avg_record_bytes: u64,
    /// Records the operator spilled to sorted runs on disk during the
    /// profiled run (0 when the sample fit the memory budget).
    pub records_spilled: u64,
    /// On-disk bytes of those runs.
    pub spilled_bytes: u64,
    /// Number of sorted runs the operator wrote under memory pressure.
    pub spill_runs: u64,
}

impl OpProfile {
    /// Observed selectivity (records emitted per call).
    pub fn selectivity(&self) -> f64 {
        if self.calls == 0 {
            1.0
        } else {
            self.emits as f64 / self.calls as f64
        }
    }

    /// Converts the observations into cost hints. `scale` is the factor by
    /// which the sample undercounts the full input (e.g. 10 for a 10%
    /// sample); it extrapolates the distinct-keys estimate, which unlike
    /// selectivity does not concentrate on small samples.
    pub fn to_hints(&self, scale: f64, nanos_per_cpu_unit: f64) -> CostHints {
        let mut h = CostHints::selectivity(self.selectivity());
        if self.calls > 0 {
            h = h.with_cpu(
                (self.udf_nanos as f64 / self.calls as f64 / nanos_per_cpu_unit).max(0.1),
            );
        }
        if self.distinct_keys > 0 {
            h = h.with_distinct_keys(((self.distinct_keys as f64) * scale).ceil() as u64);
        }
        if self.avg_record_bytes > 0 {
            h = h.with_record_bytes(self.avg_record_bytes);
        }
        h
    }
}

/// Takes a deterministic 1-in-`step` sample of each input data set.
pub fn sample_inputs(inputs: &Inputs, step: usize) -> Inputs {
    let step = step.max(1);
    inputs
        .iter()
        .map(|(name, ds)| {
            let sampled: DataSet = ds
                .iter()
                .enumerate()
                .filter(|(i, _)| i % step == 0)
                .map(|(_, r)| r.clone())
                .collect();
            (name.clone(), sampled)
        })
        .collect()
}

/// Executes `plan` once through the streaming runtime (single partition,
/// logical strategies, default options), recording per-operator
/// observations.
/// Returns one [`OpProfile`] per operator id of `plan.ctx`.
pub fn profile(plan: &Plan, inputs: &Inputs) -> Result<Vec<OpProfile>, ExecError> {
    let logical = PhysPlan::logical(plan);
    let opts = ExecOptions::default();
    let stats = ExecStats::for_profiling(plan.ctx.ops.len());
    let rt = crate::runtime::process();
    let (_, stats) = pipeline::run(plan, &logical.root, inputs, 1, &opts, stats, rt)?;
    Ok(stats
        .op_snapshots()
        .into_iter()
        .map(|s| OpProfile {
            calls: s.calls,
            emits: s.emits,
            distinct_keys: s.distinct_keys,
            udf_nanos: s.nanos,
            avg_record_bytes: s.out_bytes.checked_div(s.emits).unwrap_or(0),
            records_spilled: s.records_spilled,
            spilled_bytes: s.spilled_bytes,
            spill_runs: s.spill_runs,
        })
        .collect())
}

/// Profiles a sampled run and converts to hints in one step.
///
/// `sample_step` = N keeps every N-th input record. `nanos_per_cpu_unit`
/// calibrates observed CPU time into cost-model units (the default of the
/// companion `repro` harness is 50 ns ≈ one `Burn` unit).
pub fn profile_hints(
    plan: &Plan,
    inputs: &Inputs,
    sample_step: usize,
    nanos_per_cpu_unit: f64,
) -> Result<Vec<CostHints>, ExecError> {
    let sampled = sample_inputs(inputs, sample_step);
    let profiles = profile(plan, &sampled)?;
    Ok(profiles
        .iter()
        .map(|p| p.to_hints(sample_step as f64, nanos_per_cpu_unit))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use strato_record::{Record, Value};

    #[test]
    fn sampling_keeps_every_nth_record() {
        let mut inputs = Inputs::new();
        let ds: DataSet = (0..10i64)
            .map(|i| Record::from_values([Value::Int(i)]))
            .collect();
        inputs.insert("s".into(), ds);
        let sampled = sample_inputs(&inputs, 3);
        assert_eq!(sampled["s"].len(), 4); // 0, 3, 6, 9
    }

    #[test]
    fn sampling_step_one_is_identity() {
        let mut inputs = Inputs::new();
        let ds: DataSet = (0..5i64)
            .map(|i| Record::from_values([Value::Int(i)]))
            .collect();
        inputs.insert("s".into(), ds.clone());
        let sampled = sample_inputs(&inputs, 1);
        assert_eq!(sampled["s"], ds);
        // Step 0 is clamped to 1.
        let sampled0 = sample_inputs(&inputs, 0);
        assert_eq!(sampled0["s"], ds);
    }

    #[test]
    fn op_profile_hint_conversion() {
        let p = OpProfile {
            calls: 100,
            emits: 25,
            distinct_keys: 10,
            udf_nanos: 100 * 500,
            avg_record_bytes: 64,
            ..OpProfile::default()
        };
        assert_eq!(p.selectivity(), 0.25);
        let h = p.to_hints(4.0, 50.0);
        assert_eq!(h.avg_emits_per_call, 0.25);
        assert_eq!(h.cpu_per_call, 10.0);
        assert_eq!(h.distinct_keys, Some(40));
        assert_eq!(h.avg_record_bytes, Some(64));
    }

    #[test]
    fn zero_call_profile_defaults() {
        let p = OpProfile::default();
        assert_eq!(p.selectivity(), 1.0);
        let h = p.to_hints(1.0, 50.0);
        assert_eq!(h.avg_emits_per_call, 1.0);
        assert_eq!(h.distinct_keys, None);
    }
}
