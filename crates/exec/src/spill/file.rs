//! Spill files: length-framed records in the wire encoding.
//!
//! A spill file is a sequence of frames, each a little-endian `u32` byte
//! length followed by one [`strato_record::wire`]-encoded record. The
//! frame prefix is what makes the stream incrementally decodable from
//! buffered file IO — the wire encoding itself is self-delimiting only
//! when decoded from a full buffer.

use crate::engine::ExecError;
use crate::spill::governor::spill_err;
use bytes::BytesMut;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use strato_record::{wire, Record, RowRef};

/// One on-disk run of records in ascending canonical order on its
/// operator's key, produced by a spilling operator (or by an intermediate
/// merge pass). The run only holds the path, so an unopened run costs no
/// file handle; its file is deleted when the run is dropped (consumed by
/// a compaction pass or a finished merge), which bounds peak
/// spill-directory usage to ~2× the live data instead of accumulating
/// every merge generation until the execution ends. Readers opened before the drop keep working (POSIX
/// unlink semantics); where deletion of an open file is refused, the
/// scoped directory still removes it at execution end.
#[derive(Debug)]
pub struct SortedRun {
    path: PathBuf,
    records: u64,
    bytes: u64,
}

impl Drop for SortedRun {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl SortedRun {
    /// Number of records in the run.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// On-disk size of the run in bytes (frame headers included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Opens the run for sequential reading.
    pub fn open(&self) -> Result<RunReader, ExecError> {
        let f = File::open(&self.path).map_err(spill_err)?;
        Ok(RunReader {
            r: BufReader::new(f),
            remaining: self.records,
            bytes_left: self.bytes,
            frame: Vec::new(),
        })
    }
}

/// Streaming writer of one spill file.
pub(crate) struct RunWriter {
    w: BufWriter<File>,
    path: PathBuf,
    buf: BytesMut,
    records: u64,
    bytes: u64,
}

impl RunWriter {
    /// Creates the file at `path` (which must not exist yet).
    pub(crate) fn create(path: PathBuf) -> std::io::Result<RunWriter> {
        let f = File::options().write(true).create_new(true).open(&path)?;
        Ok(RunWriter {
            w: BufWriter::new(f),
            path,
            buf: BytesMut::with_capacity(256),
            records: 0,
            bytes: 0,
        })
    }

    /// Appends one row's frame, written from its view through the shared
    /// [`wire::encode_framed_row`] — the framing a [`RunReader`] decodes.
    pub(crate) fn write(&mut self, row: RowRef<'_>) -> std::io::Result<()> {
        self.buf.clear();
        let framed = wire::encode_framed_row(row, &mut self.buf);
        self.w.write_all(self.buf.as_ref())?;
        self.records += 1;
        self.bytes += framed as u64;
        Ok(())
    }

    /// Flushes and seals the run.
    pub(crate) fn finish(mut self) -> std::io::Result<SortedRun> {
        self.w.flush()?;
        Ok(SortedRun {
            path: self.path,
            records: self.records,
            bytes: self.bytes,
        })
    }
}

/// Streaming reader over one spill file; yields records in file order.
pub struct RunReader {
    r: BufReader<File>,
    remaining: u64,
    /// Bytes of the run not yet read, frame headers included: the bound
    /// on any frame length read from disk.
    bytes_left: u64,
    frame: Vec<u8>,
}

impl Iterator for RunReader {
    type Item = Result<Record, ExecError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(self.read_one())
    }
}

impl RunReader {
    fn read_one(&mut self) -> Result<Record, ExecError> {
        let mut len = [0u8; wire::FRAME_HEADER_LEN];
        self.r.read_exact(&mut len).map_err(spill_err)?;
        let len = u64::from(u32::from_le_bytes(len));
        // A corrupt length must not size the frame buffer.
        let left = self
            .bytes_left
            .saturating_sub(wire::FRAME_HEADER_LEN as u64);
        if len > left {
            return Err(ExecError::Spill(format!(
                "corrupt spill frame: {len} bytes with {left} left in the run"
            )));
        }
        self.bytes_left = left - len;
        self.frame.resize(len as usize, 0);
        self.r.read_exact(&mut self.frame).map_err(spill_err)?;
        let mut buf: &[u8] = &self.frame;
        wire::decode_record(&mut buf).map_err(|e| ExecError::Spill(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::MemoryGovernor;
    use strato_record::Value;

    #[test]
    fn runs_roundtrip_all_value_kinds() {
        let g = MemoryGovernor::with_budget(Some(1));
        let records = vec![
            Record::from_values([
                Value::Null,
                Value::Bool(true),
                Value::Int(-42),
                Value::Float(2.5),
                Value::str("hello ⟨world⟩"),
            ]),
            Record::default(),
            Record::from_values([Value::Int(7)]),
        ];
        let run = g.write_sorted_run(&records).unwrap();
        assert_eq!(run.records(), 3);
        assert!(run.bytes() > 0);
        let back: Vec<Record> = run.open().unwrap().map(Result::unwrap).collect();
        assert_eq!(back, records);
        // A run reads repeatedly (each open is an independent cursor).
        let again: Vec<Record> = run.open().unwrap().map(Result::unwrap).collect();
        assert_eq!(again, records);
    }

    #[test]
    fn empty_run_reads_empty() {
        let g = MemoryGovernor::with_budget(Some(1));
        let run = g.write_sorted_run(Vec::<RowRef>::new()).unwrap();
        assert_eq!(run.records(), 0);
        assert_eq!(run.open().unwrap().count(), 0);
    }

    /// Writes a one-record run, rewrites its file with `corrupt`, and
    /// returns what reading the record gives. Checks that the governor
    /// holds no grant and removes its spill directory afterwards.
    fn read_corrupted(corrupt: impl FnOnce(&mut Vec<u8>)) -> ExecError {
        let g = MemoryGovernor::with_budget(Some(1));
        let run = g
            .write_sorted_run(&[Record::from_values([Value::Int(1)])])
            .unwrap();
        let dir = g.spill_dir_path().unwrap();
        let path = std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let mut data = std::fs::read(&path).unwrap();
        corrupt(&mut data);
        std::fs::write(&path, &data).unwrap();
        let err = run.open().unwrap().next().unwrap().unwrap_err();
        drop(run);
        assert_eq!(g.resident(), 0);
        drop(g);
        assert!(!dir.exists(), "spill directory left behind");
        err
    }

    #[test]
    fn truncated_file_surfaces_a_spill_error() {
        // Chop the file mid-frame.
        let err = read_corrupted(|data| data.truncate(data.len() - 2));
        assert!(matches!(err, ExecError::Spill(_)), "{err}");
    }

    #[test]
    fn corrupt_frame_length_surfaces_a_spill_error() {
        // The frame header claims 4 GiB: rejected against the run's size,
        // before any buffer is sized by it.
        let err = read_corrupted(|data| data[..4].copy_from_slice(&u32::MAX.to_le_bytes()));
        assert!(
            matches!(&err, ExecError::Spill(m) if m.starts_with("corrupt spill frame")),
            "{err}"
        );
    }

    #[test]
    fn corrupt_record_arity_surfaces_a_spill_error() {
        // The record inside an intact frame claims 2^32 - 1 fields.
        let header = wire::FRAME_HEADER_LEN;
        let err = read_corrupted(|data| {
            data[header..header + 4].copy_from_slice(&u32::MAX.to_le_bytes())
        });
        assert!(matches!(err, ExecError::Spill(_)), "{err}");
    }
}
