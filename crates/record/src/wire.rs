//! Binary wire format for records.
//!
//! The format is a simple length-prefixed tag-value encoding. The
//! execution engine writes its spill runs in it, each row framed by its
//! byte length ([`encode_framed_row`]) straight from a row view, and
//! reads them back as records ([`decode_record`]). Shipped bytes are not
//! counted by encoding: they are `encoded_len`, the cost model's
//! approximation.

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

/// Encodes a row view of either batch layout into `buf`, returning the
/// number of bytes written: the bytes [`decode_record`] reads back as the
/// materialized row, written without materializing it.
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
/// count) that precedes each record in a spill run file.
pub const FRAME_HEADER_LEN: usize = 4;

/// Encodes a row view of either batch layout as a length-framed record —
/// `u32`-le body length, then the body — returning the total bytes
/// appended (header + body). Spill runs are written in this framing, a
/// row straight from its view; `RunReader` in `strato-exec` reads it back.
pub fn encode_framed_row(row: RowRef<'_>, buf: &mut BytesMut) -> usize {
    let at = buf.len();
    buf.put_u32_le(0);
    let n = encode_row(row, buf);
    buf[at..at + FRAME_HEADER_LEN].copy_from_slice(&(n as u32).to_le_bytes());
    n + FRAME_HEADER_LEN
}

/// Encodes a record, unframed, into a standalone buffer.
pub fn encode_to_bytes(r: &Record) -> Bytes {
    let mut buf = BytesMut::with_capacity(r.encoded_len() + 8);
    encode_row(RowRef::from(r), &mut buf);
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
        decode_record(&mut encode_to_bytes(r)).expect("decode")
    }

    /// The frame of `r`, split into its header's length and its body.
    fn framed(r: &Record) -> (usize, Bytes) {
        let mut buf = BytesMut::new();
        let n = encode_framed_row(RowRef::from(r), &mut buf);
        assert_eq!(n, buf.len());
        let mut bytes = buf.freeze();
        (bytes.get_u32_le() as usize, bytes)
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
        let n = encode_row(RowRef::from(&r), &mut buf);
        assert_eq!(n, r.encoded_len());
    }

    #[test]
    fn framed_roundtrip_and_length() {
        let r = Record::from_values([Value::Int(1), Value::Null, Value::str("ab")]);
        let (len, mut body) = framed(&r);
        // The header counts the body; the null field costs one wire tag
        // byte even though `encoded_len` skips it.
        assert_eq!((len, body.remaining()), (4 + 9 + 1 + (1 + 4 + 2), len));
        assert_eq!(decode_record(&mut body).unwrap(), r);
        assert_eq!(body.remaining(), 0);
    }

    #[test]
    fn framed_truncation_errors() {
        let (len, body) = framed(&Record::from_values([Value::Int(5)]));
        for cut in 0..len {
            let mut short = body.slice(..cut);
            assert!(decode_record(&mut short).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn an_arity_beyond_the_buffer_errors_before_allocating() {
        let mut buf = BytesMut::new();
        encode_row(
            RowRef::from(&Record::from_values([Value::Int(5)])),
            &mut buf,
        );
        buf[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_record(&mut buf.freeze()).unwrap_err();
        assert_eq!(err, DecodeError::UnexpectedEof);
    }

    #[test]
    fn multiple_records_in_one_buffer() {
        let a = Record::from_values([Value::Int(1)]);
        let b = Record::from_values([Value::str("x"), Value::Bool(false)]);
        let mut buf = BytesMut::new();
        encode_row(RowRef::from(&a), &mut buf);
        encode_row(RowRef::from(&b), &mut buf);
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
