//! Wire-format decoding: [`Json`] request documents → [`FlowSpec`] +
//! input [`DataSet`]s + execution options.
//!
//! The request body of `POST /v1/query` is one JSON object:
//!
//! ```json
//! {
//!   "flow": {
//!     "op": {"name": "sum", "kind": "reduce", "key": [0],
//!            "udf": {"fn": "fold", "op": "sum", "field": 1}},
//!     "inputs": [
//!       {"source": {"name": "s", "fields": ["k", "v"], "est_rows": 1000}}
//!     ]
//!   },
//!   "inputs": {"s": [[1, 10], [1, 5], [2, 7]]},
//!   "options": {"dop": 2, "batch": 256}
//! }
//! ```
//!
//! The `"options"` keys are `dop`, `batch`, `mem_budget` and `trace`; any
//! other key is refused, so a misspelt or retired option is an error
//! rather than silently ignored.
//!
//! A flow node is either `{"source": {...}}` or `{"op": {...}, "inputs":
//! [...]}`. Operator UDFs come from the declarative catalog of
//! [`strato_dataflow::spec`], selected by the `"fn"` discriminator
//! (`identity`, `filter`, `filter_range`, `burn`; `fold`, `count`;
//! `count_diff`). The decoder produces plain spec data — structural
//! validation (widths, key ranges, arity) stays in [`FlowSpec::build`].

use crate::json::{self, Json};
use std::collections::HashMap;
use std::fmt::Write as _;
use strato_dataflow::spec::{
    CmpOp, CoGroupUdf, FlowSpec, FoldOp, HintSpec, MapUdf, NodeSpec, OpKindSpec, OpSpec, ReduceUdf,
    SourceSpec,
};
use strato_exec::{ExecOptions, Inputs};
use strato_record::{DataSet, Record, Value};

/// Upper bound on the requested degree of parallelism — a network client
/// must not be able to ask for millions of partitions.
pub const MAX_DOP: usize = 64;

/// A request-shape error (well-formed JSON, wrong structure). Maps to
/// HTTP 422.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid query: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn bad(msg: impl Into<String>) -> DecodeError {
    DecodeError(msg.into())
}

/// A fully decoded query: the flow to run, its input data, and how to
/// execute it.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// The declarative flow (compile with [`FlowSpec::build`]).
    pub flow: FlowSpec,
    /// Input data sets keyed by source name.
    pub inputs: Inputs,
    /// Requested degree of parallelism (clamped to `1..=`[`MAX_DOP`]).
    pub dop: usize,
    /// Execution options with the request's overrides applied.
    pub exec: ExecOptions,
    /// Record an end-to-end trace and return it with the response
    /// (`"options": {"trace": true}`).
    pub trace: bool,
}

/// Decodes a parsed `POST /v1/query` body.
pub fn decode_query(doc: &Json) -> Result<QueryRequest, DecodeError> {
    if !matches!(doc, Json::Obj(_)) {
        return Err(bad("request body must be a JSON object"));
    }
    let flow_json = doc.get("flow").ok_or_else(|| bad("missing \"flow\""))?;
    let flow = FlowSpec::new(decode_node(flow_json)?);

    let mut inputs: Inputs = HashMap::new();
    if let Some(inputs_json) = doc.get("inputs") {
        let members = match inputs_json {
            Json::Obj(members) => members,
            _ => return Err(bad("\"inputs\" must be an object of source → rows")),
        };
        for (name, rows) in members {
            inputs.insert(name.clone(), decode_rows(name, rows)?);
        }
    }

    let (dop, exec, trace) = decode_options(doc.get("options"))?;
    Ok(QueryRequest {
        flow,
        inputs,
        dop,
        exec,
        trace,
    })
}

/// Decodes one flow node (`{"source": ...}` or `{"op": ..., "inputs": ...}`).
fn decode_node(node: &Json) -> Result<NodeSpec, DecodeError> {
    if let Some(src) = node.get("source") {
        return Ok(NodeSpec::Source(decode_source(src)?));
    }
    if let Some(op) = node.get("op") {
        let inputs = node
            .get("inputs")
            .and_then(Json::as_array)
            .ok_or_else(|| bad("operator node needs an \"inputs\" array"))?;
        let children = inputs
            .iter()
            .map(decode_node)
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(NodeSpec::Op {
            op: decode_op(op)?,
            inputs: children,
        });
    }
    Err(bad("flow node must have a \"source\" or \"op\" member"))
}

fn decode_source(src: &Json) -> Result<SourceSpec, DecodeError> {
    let name = req_str(src, "name", "source")?;
    let fields = src
        .get("fields")
        .and_then(Json::as_array)
        .ok_or_else(|| bad(format!("source {name}: needs a \"fields\" array")))?
        .iter()
        .map(|f| {
            f.as_str()
                .map(str::to_string)
                .ok_or_else(|| bad(format!("source {name}: field names must be strings")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let est_rows = req_u64(src, "est_rows", &name)?;
    let mut spec = SourceSpec::new(name.clone(), &[], est_rows);
    spec.fields = fields;
    if let Some(b) = src.get("bytes_per_row") {
        spec.bytes_per_row = Some(
            b.as_i64()
                .filter(|v| *v >= 0)
                .ok_or_else(|| bad(format!("source {name}: bad \"bytes_per_row\"")))?
                as u64,
        );
    }
    if let Some(keys) = src.get("unique_keys") {
        let arr = keys
            .as_array()
            .ok_or_else(|| bad(format!("source {name}: \"unique_keys\" must be an array")))?;
        for k in arr {
            spec.unique_keys
                .push(decode_index_list(k, &format!("source {name} unique key"))?);
        }
    }
    Ok(spec)
}

fn decode_op(op: &Json) -> Result<OpSpec, DecodeError> {
    let name = req_str(op, "name", "operator")?;
    let kind_word = req_str(op, "kind", &name)?;
    let kind = match kind_word.as_str() {
        "map" => OpKindSpec::Map(decode_map_udf(&name, op.get("udf"))?),
        "reduce" => OpKindSpec::Reduce {
            key: decode_index_list(
                op.get("key").ok_or_else(|| bad(format!("reduce {name}: missing \"key\"")))?,
                &format!("reduce {name} key"),
            )?,
            udf: decode_reduce_udf(&name, op.get("udf"))?,
        },
        "match" => OpKindSpec::Match {
            key_left: decode_side_key(op, &name, "key_left")?,
            key_right: decode_side_key(op, &name, "key_right")?,
        },
        "cross" => OpKindSpec::Cross,
        "cogroup" => OpKindSpec::CoGroup {
            key_left: decode_side_key(op, &name, "key_left")?,
            key_right: decode_side_key(op, &name, "key_right")?,
            udf: decode_cogroup_udf(&name, op.get("udf"))?,
        },
        other => {
            return Err(bad(format!(
                "operator {name}: unknown kind {other:?} (expected map, reduce, match, cross or cogroup)"
            )))
        }
    };
    let mut spec = OpSpec {
        name,
        kind,
        hints: HintSpec::default(),
    };
    if let Some(h) = op.get("hints") {
        spec.hints = decode_hints(&spec.name, h)?;
    }
    Ok(spec)
}

fn decode_side_key(op: &Json, name: &str, side: &str) -> Result<Vec<usize>, DecodeError> {
    decode_index_list(
        op.get(side)
            .ok_or_else(|| bad(format!("operator {name}: missing {side:?}")))?,
        &format!("operator {name} {side}"),
    )
}

fn decode_map_udf(name: &str, udf: Option<&Json>) -> Result<MapUdf, DecodeError> {
    let udf = match udf {
        // A map without a UDF member is the identity.
        None => return Ok(MapUdf::Identity),
        Some(u) => u,
    };
    let f = req_str(udf, "fn", name)?;
    Ok(match f.as_str() {
        "identity" => MapUdf::Identity,
        "filter" => {
            let cmp_word = req_str(udf, "cmp", name)?;
            let cmp = CmpOp::parse(&cmp_word)
                .ok_or_else(|| bad(format!("map {name}: unknown cmp {cmp_word:?}")))?;
            MapUdf::Filter {
                field: req_index(udf, "field", name)?,
                cmp,
                value: json_to_value(
                    udf.get("value")
                        .ok_or_else(|| bad(format!("map {name}: filter needs \"value\"")))?,
                )
                .map_err(|m| bad(format!("map {name}: {m}")))?,
            }
        }
        "filter_range" => MapUdf::FilterRange {
            field: req_index(udf, "field", name)?,
            lo: req_i64(udf, "lo", name)?,
            hi: req_i64(udf, "hi", name)?,
        },
        "burn" => MapUdf::Burn {
            field: req_index(udf, "field", name)?,
            units: req_i64(udf, "units", name)?,
        },
        other => return Err(bad(format!("map {name}: unknown udf {other:?}"))),
    })
}

fn decode_reduce_udf(name: &str, udf: Option<&Json>) -> Result<ReduceUdf, DecodeError> {
    let udf = udf.ok_or_else(|| bad(format!("reduce {name}: missing \"udf\"")))?;
    let f = req_str(udf, "fn", name)?;
    Ok(match f.as_str() {
        "fold" => {
            let op_word = req_str(udf, "op", name)?;
            let op = FoldOp::parse(&op_word)
                .ok_or_else(|| bad(format!("reduce {name}: unknown fold op {op_word:?}")))?;
            ReduceUdf::Fold {
                op,
                field: req_index(udf, "field", name)?,
                append: match udf.get("append") {
                    None => false,
                    Some(b) => b.as_bool().ok_or_else(|| {
                        bad(format!("reduce {name}: \"append\" must be a boolean"))
                    })?,
                },
            }
        }
        "count" => ReduceUdf::Count,
        other => return Err(bad(format!("reduce {name}: unknown udf {other:?}"))),
    })
}

fn decode_cogroup_udf(name: &str, udf: Option<&Json>) -> Result<CoGroupUdf, DecodeError> {
    let udf = udf.ok_or_else(|| bad(format!("cogroup {name}: missing \"udf\"")))?;
    let f = req_str(udf, "fn", name)?;
    match f.as_str() {
        "count_diff" => Ok(CoGroupUdf::CountDiff),
        other => Err(bad(format!("cogroup {name}: unknown udf {other:?}"))),
    }
}

fn decode_hints(name: &str, h: &Json) -> Result<HintSpec, DecodeError> {
    if !matches!(h, Json::Obj(_)) {
        return Err(bad(format!("operator {name}: \"hints\" must be an object")));
    }
    let mut hints = HintSpec::default();
    if let Some(v) = h.get("selectivity") {
        hints.selectivity = Some(
            v.as_f64()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or_else(|| bad(format!("operator {name}: bad \"selectivity\"")))?,
        );
    }
    if let Some(v) = h.get("cpu") {
        hints.cpu = Some(
            v.as_f64()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or_else(|| bad(format!("operator {name}: bad \"cpu\"")))?,
        );
    }
    if let Some(v) = h.get("distinct_keys") {
        hints.distinct_keys = Some(
            v.as_i64()
                .filter(|x| *x >= 0)
                .ok_or_else(|| bad(format!("operator {name}: bad \"distinct_keys\"")))?
                as u64,
        );
    }
    if let Some(v) = h.get("record_bytes") {
        hints.record_bytes = Some(
            v.as_i64()
                .filter(|x| *x >= 0)
                .ok_or_else(|| bad(format!("operator {name}: bad \"record_bytes\"")))?
                as u64,
        );
    }
    Ok(hints)
}

/// Decodes `[[field, ...], ...]` rows into a [`DataSet`].
fn decode_rows(source: &str, rows: &Json) -> Result<DataSet, DecodeError> {
    let rows = rows
        .as_array()
        .ok_or_else(|| bad(format!("inputs for {source:?} must be an array of rows")))?;
    let mut records = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let fields = row
            .as_array()
            .ok_or_else(|| bad(format!("inputs for {source:?}: row {i} is not an array")))?;
        let values = fields
            .iter()
            .map(json_to_value)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|m| bad(format!("inputs for {source:?}, row {i}: {m}")))?;
        records.push(Record::from_values(values));
    }
    Ok(records.into_iter().collect())
}

/// The keys `"options"` may hold.
const OPTION_KEYS: [&str; 4] = ["dop", "batch", "mem_budget", "trace"];

fn decode_options(options: Option<&Json>) -> Result<(usize, ExecOptions, bool), DecodeError> {
    let mut exec = ExecOptions::default();
    let mut dop = 1usize;
    let mut trace = false;
    let Some(o) = options else {
        return Ok((dop, exec, trace));
    };
    let Json::Obj(members) = o else {
        return Err(bad("\"options\" must be an object"));
    };
    if let Some((key, _)) = members
        .iter()
        .find(|(k, _)| !OPTION_KEYS.contains(&k.as_str()))
    {
        return Err(bad(format!(
            "unknown option {key:?} (expected one of {})",
            OPTION_KEYS.join(", ")
        )));
    }
    if let Some(v) = o.get("dop") {
        let d = v
            .as_i64()
            .filter(|d| *d >= 1)
            .ok_or_else(|| bad("\"dop\" must be a positive integer"))?;
        dop = (d as usize).min(MAX_DOP);
    }
    if let Some(v) = o.get("batch") {
        exec.batch_size =
            v.as_i64()
                .filter(|b| *b >= 1)
                .ok_or_else(|| bad("\"batch\" must be a positive integer"))? as usize;
    }
    if let Some(v) = o.get("mem_budget") {
        exec.mem_budget = Some(
            v.as_i64()
                .filter(|b| *b >= 0)
                .ok_or_else(|| bad("\"mem_budget\" must be a non-negative integer"))?
                as u64,
        );
    }
    if let Some(v) = o.get("trace") {
        trace = v
            .as_bool()
            .ok_or_else(|| bad("\"trace\" must be a boolean"))?;
    }
    Ok((dop, exec, trace))
}

/// JSON scalar → record [`Value`]. Arrays/objects are not record values.
pub fn json_to_value(j: &Json) -> Result<Value, String> {
    Ok(match j {
        Json::Null => Value::Null,
        Json::Bool(b) => Value::Bool(*b),
        Json::Int(i) => Value::Int(*i),
        Json::Float(f) => Value::Float(*f),
        Json::Str(s) => Value::from(s.as_str()),
        Json::Arr(_) | Json::Obj(_) => return Err("record fields must be JSON scalars".to_string()),
    })
}

/// Record [`Value`] → JSON scalar: the reference encoding of a response
/// field. The handler writes rows with [`push_value`] instead, which
/// appends the same bytes as `value_to_json(v).to_string()` without
/// building the tree.
pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::Int(*i),
        Value::Float(f) => Json::Float(*f),
        Value::Str(s) => Json::Str(s.to_string()),
    }
}

/// Appends `v`'s JSON image to `out`, byte-identical to
/// `value_to_json(v).to_string()`.
pub fn push_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => write!(out, "{i}").expect("writing to a String cannot fail"),
        Value::Float(x) => json::push_float(out, *x),
        Value::Str(s) => json::push_escaped(out, s),
    }
}

/// Helpers for required members.
fn req_str(obj: &Json, key: &str, who: &str) -> Result<String, DecodeError> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| bad(format!("{who}: missing string member {key:?}")))
}

fn req_i64(obj: &Json, key: &str, who: &str) -> Result<i64, DecodeError> {
    obj.get(key)
        .and_then(Json::as_i64)
        .ok_or_else(|| bad(format!("{who}: missing integer member {key:?}")))
}

fn req_u64(obj: &Json, key: &str, who: &str) -> Result<u64, DecodeError> {
    req_i64(obj, key, who).and_then(|v| {
        if v >= 0 {
            Ok(v as u64)
        } else {
            Err(bad(format!("{who}: {key:?} must be non-negative")))
        }
    })
}

fn req_index(obj: &Json, key: &str, who: &str) -> Result<usize, DecodeError> {
    req_i64(obj, key, who).and_then(|v| {
        if v >= 0 {
            Ok(v as usize)
        } else {
            Err(bad(format!("{who}: {key:?} must be non-negative")))
        }
    })
}

fn decode_index_list(j: &Json, who: &str) -> Result<Vec<usize>, DecodeError> {
    j.as_array()
        .ok_or_else(|| bad(format!("{who} must be an array of field indices")))?
        .iter()
        .map(|v| {
            v.as_i64()
                .filter(|i| *i >= 0)
                .map(|i| i as usize)
                .ok_or_else(|| bad(format!("{who}: indices must be non-negative integers")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Json {
        Json::parse(s).unwrap()
    }

    #[test]
    fn decodes_grouped_aggregation_request() {
        let doc = parse(
            r#"{
              "flow": {
                "op": {"name": "sum", "kind": "reduce", "key": [0],
                       "udf": {"fn": "fold", "op": "sum", "field": 1}},
                "inputs": [
                  {"op": {"name": "pos", "kind": "map",
                          "udf": {"fn": "filter", "field": 1, "cmp": "ge", "value": 0}},
                   "inputs": [
                     {"source": {"name": "s", "fields": ["k", "v"], "est_rows": 1000,
                                 "unique_keys": [[0]]}}
                   ]}
                ]
              },
              "inputs": {"s": [[1, 10], [1, -3], [2, 7]]},
              "options": {"dop": 2, "batch": 128, "mem_budget": 1048576}
            }"#,
        );
        let q = decode_query(&doc).unwrap();
        assert_eq!(q.dop, 2);
        assert_eq!(q.exec.batch_size, 128);
        assert!(!q.trace, "trace defaults to off");
        assert_eq!(q.exec.mem_budget, Some(1 << 20));
        assert_eq!(q.inputs["s"].len(), 3);
        // The spec compiles to a 2-operator plan.
        let plan = q.flow.build().unwrap();
        assert_eq!(plan.ctx.ops.len(), 2);
    }

    #[test]
    fn map_without_udf_is_identity() {
        let doc = parse(
            r#"{"flow": {"op": {"name": "id", "kind": "map"}, "inputs": [
                 {"source": {"name": "s", "fields": ["a"], "est_rows": 1}}]}}"#,
        );
        let q = decode_query(&doc).unwrap();
        assert!(q.inputs.is_empty());
        assert_eq!(q.dop, 1);
        assert!(q.flow.build().is_ok());
    }

    #[test]
    fn binary_kinds_decode() {
        let doc = parse(
            r#"{"flow": {"op": {"name": "j", "kind": "match",
                                "key_left": [0], "key_right": [0]},
                 "inputs": [
                   {"source": {"name": "l", "fields": ["a"], "est_rows": 1}},
                   {"source": {"name": "r", "fields": ["b"], "est_rows": 1}}]}}"#,
        );
        assert!(decode_query(&doc).unwrap().flow.build().is_ok());
    }

    #[test]
    fn trace_option_decodes_and_rejects_non_booleans() {
        let doc = parse(
            r#"{"flow": {"source": {"name": "s", "fields": ["a"], "est_rows": 1}},
                "options": {"trace": true}}"#,
        );
        assert!(decode_query(&doc).unwrap().trace);
        let doc = parse(
            r#"{"flow": {"source": {"name": "s", "fields": ["a"], "est_rows": 1}},
                "options": {"trace": 1}}"#,
        );
        let err = decode_query(&doc).unwrap_err();
        assert!(err.0.contains("trace"), "{err:?}");
    }

    #[test]
    fn unknown_options_are_refused_by_name() {
        for key in ["combine", "bacth"] {
            let body = format!(
                r#"{{"flow": {{"source": {{"name": "s", "fields": ["a"], "est_rows": 1}}}},
                    "options": {{"dop": 2, "{key}": true}}}}"#
            );
            let err = decode_query(&parse(&body)).unwrap_err();
            assert!(
                err.0.contains(&format!("unknown option \"{key}\"")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn dop_is_clamped() {
        let doc = parse(
            r#"{"flow": {"source": {"name": "s", "fields": ["a"], "est_rows": 1}},
                "options": {"dop": 100000}}"#,
        );
        assert_eq!(decode_query(&doc).unwrap().dop, MAX_DOP);
    }

    #[test]
    fn shape_errors_are_reported() {
        for (body, needle) in [
            (r#"[1]"#, "JSON object"),
            (r#"{}"#, "missing \"flow\""),
            (r#"{"flow": {"nope": 1}}"#, "\"source\" or \"op\""),
            (
                r#"{"flow": {"op": {"name": "m", "kind": "weird"}, "inputs": []}}"#,
                "unknown kind",
            ),
            (
                r#"{"flow": {"source": {"name": "s", "fields": ["a"], "est_rows": 1}},
                    "inputs": {"s": [[[1]]]}}"#,
                "scalars",
            ),
            (
                r#"{"flow": {"source": {"name": "s", "fields": ["a"], "est_rows": 1}},
                    "options": {"dop": 0}}"#,
                "dop",
            ),
        ] {
            let err = decode_query(&parse(body)).unwrap_err();
            assert!(err.0.contains(needle), "{body} → {err:?}");
        }
    }

    #[test]
    fn values_round_trip_through_json() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::Int(-7),
            Value::Float(2.5),
            Value::from("hi"),
        ];
        for v in vals {
            let j = value_to_json(&v);
            assert_eq!(json_to_value(&j).unwrap(), v);
        }
    }
}
