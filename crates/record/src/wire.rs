//! Binary wire format for records.
//!
//! The execution engine serializes records whenever a ship strategy moves
//! them "across the network" (hash repartitioning or broadcast), both to
//! account network IO in bytes — the dominant term of the paper's cost
//! model — and to keep the simulated engine honest about serialization
//! costs. The format is a simple length-prefixed tag-value encoding.

use crate::columns::Cell;
use crate::record::Record;
use crate::row::RowRef;
use crate::value::Value;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::sync::Arc;

/// Errors produced while decoding a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the value was complete.
    UnexpectedEof,
    /// An unknown type tag was encountered.
    BadTag(u8),
    /// A string payload was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "unexpected end of buffer"),
            DecodeError::BadTag(t) => write!(f, "unknown value tag {t}"),
            DecodeError::BadUtf8 => write!(f, "invalid utf-8 in string value"),
        }
    }
}

impl std::error::Error for DecodeError {}

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;

/// Encodes a record into `buf`, returning the number of bytes written.
pub fn encode_record(r: &Record, buf: &mut BytesMut) -> usize {
    encode_row(RowRef::from(r), buf)
}

/// Encodes a row view of either batch layout into `buf`, returning the
/// number of bytes written: the bytes [`encode_record`] writes for the
/// materialized row, without materializing it.
fn encode_row(row: RowRef<'_>, buf: &mut BytesMut) -> usize {
    let start = buf.len();
    let arity = row.arity();
    buf.put_u32_le(arity as u32);
    for col in 0..arity {
        match row.cell(col) {
            Cell::Null => buf.put_u8(TAG_NULL),
            Cell::Bool(b) => {
                buf.put_u8(TAG_BOOL);
                buf.put_u8(b as u8);
            }
            Cell::Int(i) => {
                buf.put_u8(TAG_INT);
                buf.put_i64_le(i);
            }
            Cell::Float(x) => {
                buf.put_u8(TAG_FLOAT);
                buf.put_f64_le(x);
            }
            Cell::Str(s) => {
                buf.put_u8(TAG_STR);
                buf.put_u32_le(s.len() as u32);
                buf.put_slice(s.as_bytes());
            }
        }
    }
    buf.len() - start
}

/// Length of the per-record frame header (a little-endian `u32` byte
/// count) used wherever records are framed in a byte stream: spill run
/// files and the opt-in wire-validation round-trip share this format.
pub const FRAME_HEADER_LEN: usize = 4;

/// Encodes `r` as a length-framed record — `u32`-le body length, then
/// the body — returning the total bytes appended (header + body).
///
/// This is the single framing rule shared by the spill subsystem and
/// the shipping validation path, so `encoded_len`-style accounting is
/// derived in exactly one place.
pub fn encode_framed(r: &Record, buf: &mut BytesMut) -> usize {
    encode_framed_row(RowRef::from(r), buf)
}

/// [`encode_framed`] of a row view of either batch layout: the frame of
/// the materialized row, written straight from the view.
pub fn encode_framed_row(row: RowRef<'_>, buf: &mut BytesMut) -> usize {
    let at = buf.len();
    buf.put_u32_le(0);
    let n = encode_row(row, buf);
    buf[at..at + FRAME_HEADER_LEN].copy_from_slice(&(n as u32).to_le_bytes());
    n + FRAME_HEADER_LEN
}

/// Decodes one length-framed record (see [`encode_framed`]) from the
/// front of `buf`.
pub fn decode_framed(buf: &mut impl Buf) -> Result<Record, DecodeError> {
    if buf.remaining() < FRAME_HEADER_LEN {
        return Err(DecodeError::UnexpectedEof);
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(DecodeError::UnexpectedEof);
    }
    let mut body = buf.copy_to_bytes(len);
    decode_record(&mut body)
}

/// Encodes a record into a standalone buffer.
pub fn encode_to_bytes(r: &Record) -> Bytes {
    let mut buf = BytesMut::with_capacity(r.encoded_len() + 8);
    encode_record(r, &mut buf);
    buf.freeze()
}

/// Decodes one record from the front of `buf`.
pub fn decode_record(buf: &mut impl Buf) -> Result<Record, DecodeError> {
    if buf.remaining() < 4 {
        return Err(DecodeError::UnexpectedEof);
    }
    let arity = buf.get_u32_le() as usize;
    // Every field takes at least its tag byte: an arity the buffer cannot
    // hold is corrupt, and must not size the allocation below.
    if arity > buf.remaining() {
        return Err(DecodeError::UnexpectedEof);
    }
    let mut fields = Vec::with_capacity(arity);
    for _ in 0..arity {
        if buf.remaining() < 1 {
            return Err(DecodeError::UnexpectedEof);
        }
        let tag = buf.get_u8();
        let v = match tag {
            TAG_NULL => Value::Null,
            TAG_BOOL => {
                if buf.remaining() < 1 {
                    return Err(DecodeError::UnexpectedEof);
                }
                Value::Bool(buf.get_u8() != 0)
            }
            TAG_INT => {
                if buf.remaining() < 8 {
                    return Err(DecodeError::UnexpectedEof);
                }
                Value::Int(buf.get_i64_le())
            }
            TAG_FLOAT => {
                if buf.remaining() < 8 {
                    return Err(DecodeError::UnexpectedEof);
                }
                Value::Float(buf.get_f64_le())
            }
            TAG_STR => {
                if buf.remaining() < 4 {
                    return Err(DecodeError::UnexpectedEof);
                }
                let len = buf.get_u32_le() as usize;
                if buf.remaining() < len {
                    return Err(DecodeError::UnexpectedEof);
                }
                let mut bytes = vec![0u8; len];
                buf.copy_to_slice(&mut bytes);
                let s = String::from_utf8(bytes).map_err(|_| DecodeError::BadUtf8)?;
                Value::Str(Arc::from(s.as_str()))
            }
            t => return Err(DecodeError::BadTag(t)),
        };
        fields.push(v);
    }
    Ok(Record::new(fields))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(r: &Record) -> Record {
        let mut buf = BytesMut::new();
        encode_record(r, &mut buf);
        decode_record(&mut buf.freeze()).expect("decode")
    }

    #[test]
    fn roundtrips_all_value_kinds() {
        let r = Record::from_values([
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Float(2.5),
            Value::str("hello ⟨world⟩"),
        ]);
        assert_eq!(roundtrip(&r), r);
    }

    #[test]
    fn roundtrips_empty_record() {
        assert_eq!(roundtrip(&Record::default()), Record::default());
    }

    #[test]
    fn encoded_len_is_exact_for_nullless_records() {
        // Record::encoded_len skips nulls (cost model view); the wire format
        // spends 1 byte per null tag. For null-free records both agree.
        let r = Record::from_values([Value::Int(1), Value::str("ab")]);
        let mut buf = BytesMut::new();
        let n = encode_record(&r, &mut buf);
        assert_eq!(n, r.encoded_len());
    }

    #[test]
    fn framed_roundtrip_and_length() {
        let r = Record::from_values([Value::Int(1), Value::Null, Value::str("ab")]);
        let mut buf = BytesMut::new();
        let n = encode_framed(&r, &mut buf);
        // Header + body; the null field costs one wire tag byte even
        // though `encoded_len` skips it.
        assert_eq!(n, buf.len());
        assert_eq!(n, FRAME_HEADER_LEN + 4 + 9 + 1 + (1 + 4 + 2));
        let mut bytes = buf.freeze();
        assert_eq!(decode_framed(&mut bytes).unwrap(), r);
        assert_eq!(bytes.remaining(), 0);
    }

    #[test]
    fn framed_truncation_errors() {
        let r = Record::from_values([Value::Int(5)]);
        let mut buf = BytesMut::new();
        encode_framed(&r, &mut buf);
        let bytes = buf.freeze();
        for cut in 0..bytes.len() {
            let mut short = bytes.slice(..cut);
            assert!(decode_framed(&mut short).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn an_arity_beyond_the_buffer_errors_before_allocating() {
        let mut buf = BytesMut::new();
        encode_record(&Record::from_values([Value::Int(5)]), &mut buf);
        buf[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_record(&mut buf.freeze()).unwrap_err();
        assert_eq!(err, DecodeError::UnexpectedEof);
    }

    #[test]
    fn multiple_records_in_one_buffer() {
        let a = Record::from_values([Value::Int(1)]);
        let b = Record::from_values([Value::str("x"), Value::Bool(false)]);
        let mut buf = BytesMut::new();
        encode_record(&a, &mut buf);
        encode_record(&b, &mut buf);
        let mut bytes = buf.freeze();
        assert_eq!(decode_record(&mut bytes).unwrap(), a);
        assert_eq!(decode_record(&mut bytes).unwrap(), b);
        assert_eq!(bytes.remaining(), 0);
    }

    #[test]
    fn truncated_buffer_errors() {
        let r = Record::from_values([Value::Int(5)]);
        let bytes = encode_to_bytes(&r);
        for cut in 0..bytes.len() {
            let mut short = bytes.slice(..cut);
            assert!(
                decode_record(&mut short).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn bad_tag_errors() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(1);
        buf.put_u8(99);
        assert_eq!(
            decode_record(&mut buf.freeze()),
            Err(DecodeError::BadTag(99))
        );
    }

    #[test]
    fn bad_utf8_errors() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(1);
        buf.put_u8(TAG_STR);
        buf.put_u32_le(2);
        buf.put_slice(&[0xff, 0xfe]);
        assert_eq!(decode_record(&mut buf.freeze()), Err(DecodeError::BadUtf8));
    }
}
