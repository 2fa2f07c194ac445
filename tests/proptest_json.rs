//! Property tests for the served JSON codec: the row writer
//! (`decode::push_value`) is byte-identical to the reference encoding
//! `value_to_json(v).to_string()`, both match the per-character
//! serializer the codec used before it copied unescaped runs whole, and
//! the parser's integer fast path agrees with `str::parse`.

use proptest::prelude::*;
use std::fmt::Write as _;
use strato::record::Value;
use strato::server::decode::{push_value, value_to_json};
use strato::server::Json;

/// The per-character escaper the run-based one replaced. `Json`'s
/// `Display` and the row writer now share one escaper, so this copy is
/// what keeps them honest.
fn reference_escaped(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => write!(out, "{c}").unwrap(),
        }
    }
    out.push('"');
    out
}

/// The float rule: `{x}`, plus `.0` when that has no `.`/`e`/`E`; `null`
/// for non-finite values.
fn reference_value(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(x) if !x.is_finite() => "null".to_string(),
        Value::Float(x) => {
            let s = format!("{x}");
            if s.contains(['.', 'e', 'E']) {
                s
            } else {
                format!("{s}.0")
            }
        }
        Value::Str(s) => reference_escaped(s),
    }
}

/// Every control byte, the two escaped printables, and 1–4-byte UTF-8.
fn tricky_chars() -> Vec<char> {
    let mut chars: Vec<char> = (0u8..0x20).map(char::from).collect();
    chars.extend(['"', '\\', '/', ' ', 'a', 'Z', '~', '\u{7f}']);
    chars.extend(['é', 'ß', '€', '\u{2028}', '\u{fffd}', '🂡', '\u{10ffff}']);
    chars
}

fn arb_text() -> impl Strategy<Value = String> {
    let chars = tricky_chars();
    let n = chars.len();
    prop_oneof![
        prop::collection::vec(0..n, 0..24)
            .prop_map(move |ix| ix.into_iter().map(|i| chars[i]).collect::<String>()),
        prop::collection::vec(any::<char>(), 0..12).prop_map(String::from_iter),
        "[a-z ]{0,40}",
    ]
}

fn arb_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0),
        Just(1e21),
        Just(-1e21),
        Just(5e-324),
        Just(f64::MAX),
        Just(i64::MIN as f64),
        any::<i32>().prop_map(f64::from),
        any::<f64>(),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        Just(Value::Int(i64::MIN)),
        Just(Value::Int(i64::MAX)),
        any::<i64>().prop_map(Value::Int),
        arb_float().prop_map(Value::Float),
        arb_text().prop_map(Value::str),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn row_writer_matches_the_reference_encoding(v in arb_value()) {
        let mut written = String::from("[");
        push_value(&mut written, &v);
        let reference = value_to_json(&v).to_string();
        prop_assert_eq!(&written[1..], reference.as_str());
        prop_assert_eq!(reference, reference_value(&v));
    }

    #[test]
    fn escaped_strings_match_and_parse_back(s in arb_text()) {
        let text = Json::Str(s.clone()).to_string();
        prop_assert_eq!(&text, &reference_escaped(&s));
        prop_assert_eq!(Json::parse(&text).unwrap(), Json::Str(s));
    }

    #[test]
    fn integer_fast_path_matches_str_parse(
        negative in any::<bool>(),
        digits in "[0-9]{1,20}",
        small in "[0-9]{1,3}",
    ) {
        // Short literals are common in requests; the long ones reach the
        // 18-digit boundary and the overflow-to-float fallback.
        for digits in [digits, small] {
            let text = if negative { format!("-{digits}") } else { digits };
            let expected = match text.parse::<i64>() {
                Ok(i) => Json::Int(i),
                Err(_) => Json::Float(text.parse::<f64>().unwrap()),
            };
            prop_assert_eq!(Json::parse(&text).unwrap(), expected);
        }
    }
}

#[test]
fn integer_boundaries() {
    for (text, expected) in [
        ("999999999999999999", Json::Int(999_999_999_999_999_999)),
        ("-999999999999999999", Json::Int(-999_999_999_999_999_999)),
        ("9223372036854775807", Json::Int(i64::MAX)),
        ("-9223372036854775808", Json::Int(i64::MIN)),
        (
            "9223372036854775808",
            Json::Float(9_223_372_036_854_775_808.0),
        ),
        ("-0", Json::Int(0)),
        ("007", Json::Int(7)),
    ] {
        assert_eq!(Json::parse(text).unwrap(), expected, "{text}");
    }
    assert_eq!(Json::parse("-").unwrap_err().at, 1);
}
