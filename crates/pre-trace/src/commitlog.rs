//! Committed-stream capture: the (PC, op class, effective address, width)
//! stream of architecturally retired micro-ops, in a compact binary log.
//!
//! This is the replay substrate for trace-driven look-ahead work (continuous
//! runahead / decoupled look-ahead consume committed streams): 14 bytes per
//! record after an 8-byte header.
//!
//! Layout (little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic "PRECMT01"
//! then per record:
//! 0       4     pc        (instruction index)
//! 4       1     op class  (OpClass discriminant)
//! 5       1     width     (bytes; 0 for non-memory ops)
//! 6       8     address   (effective byte address; 0 for non-memory ops)
//! ```

use crate::CommittedUop;
use pre_model::isa::OpClass;
use std::fmt;

/// File magic: "PRECMT" + format version 01.
pub(crate) const MAGIC: [u8; 8] = *b"PRECMT01";

/// Size of one encoded record.
pub(crate) const RECORD_BYTES: usize = 14;

/// One decoded committed-stream record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitRecord {
    /// Program counter (instruction index).
    pub pc: u32,
    /// Functional-unit class.
    pub class: OpClass,
    /// Access width in bytes (0 for non-memory ops).
    pub width: u8,
    /// Effective byte address (0 for non-memory ops).
    pub addr: u64,
}

impl From<&CommittedUop> for CommitRecord {
    fn from(u: &CommittedUop) -> Self {
        CommitRecord {
            pc: u.pc,
            class: u.class,
            width: u.width,
            addr: u.addr.unwrap_or(0),
        }
    }
}

/// Streaming encoder.
#[derive(Debug)]
pub(crate) struct CommitLogWriter {
    buf: Vec<u8>,
}

impl Default for CommitLogWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl CommitLogWriter {
    /// Creates a writer with the header already encoded.
    pub(crate) fn new() -> Self {
        CommitLogWriter {
            buf: MAGIC.to_vec(),
        }
    }

    /// Appends one record.
    pub(crate) fn push(&mut self, r: &CommitRecord) {
        self.buf.extend_from_slice(&r.pc.to_le_bytes());
        self.buf.push(r.class.index() as u8);
        self.buf.push(r.width);
        self.buf.extend_from_slice(&r.addr.to_le_bytes());
    }

    /// The encoded bytes (header + records).
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Error decoding a committed-stream log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitLogError {
    /// The header magic did not match.
    BadMagic,
    /// The payload length is not a multiple of the record size.
    Truncated,
    /// A record carried an out-of-range op-class discriminant.
    BadOpClass(u8),
}

impl fmt::Display for CommitLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitLogError::BadMagic => write!(f, "not a committed-stream log (bad magic)"),
            CommitLogError::Truncated => write!(f, "truncated committed-stream log"),
            CommitLogError::BadOpClass(c) => write!(f, "bad op-class discriminant {c}"),
        }
    }
}

impl std::error::Error for CommitLogError {}

/// Reader over an encoded committed-stream log.
#[derive(Debug, Clone)]
pub struct CommitLogReader<'a> {
    payload: &'a [u8],
}

impl<'a> CommitLogReader<'a> {
    /// Validates the header and record framing.
    ///
    /// # Errors
    ///
    /// Returns [`CommitLogError`] on a bad magic or a truncated payload.
    pub fn new(bytes: &'a [u8]) -> Result<Self, CommitLogError> {
        let payload = bytes
            .strip_prefix(&MAGIC[..])
            .ok_or(CommitLogError::BadMagic)?;
        if payload.len() % RECORD_BYTES != 0 {
            return Err(CommitLogError::Truncated);
        }
        Ok(CommitLogReader { payload })
    }

    /// Number of records in the log.
    pub fn len(&self) -> usize {
        self.payload.len() / RECORD_BYTES
    }

    /// `true` when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Iterates the records in commit order.
    pub fn records(&self) -> impl Iterator<Item = Result<CommitRecord, CommitLogError>> + 'a {
        self.payload.chunks_exact(RECORD_BYTES).map(|chunk| {
            let class_idx = chunk[4];
            let class = *OpClass::ALL
                .get(class_idx as usize)
                .ok_or(CommitLogError::BadOpClass(class_idx))?;
            Ok(CommitRecord {
                pc: u32::from_le_bytes(chunk[0..4].try_into().unwrap()),
                class,
                width: chunk[5],
                addr: u64::from_le_bytes(chunk[6..14].try_into().unwrap()),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let records = [
            CommitRecord {
                pc: 7,
                class: OpClass::Load,
                width: 4,
                addr: 0xdead_beef_0120,
            },
            CommitRecord {
                pc: 8,
                class: OpClass::IntAlu,
                width: 0,
                addr: 0,
            },
        ];
        let mut w = CommitLogWriter::new();
        for r in &records {
            w.push(r);
        }
        let bytes = w.into_bytes();
        let reader = CommitLogReader::new(&bytes).unwrap();
        assert_eq!(reader.len(), 2);
        let decoded: Vec<CommitRecord> = reader.records().map(|r| r.unwrap()).collect();
        assert_eq!(decoded, records);
    }

    #[test]
    fn framing_errors_are_detected() {
        assert_eq!(
            CommitLogReader::new(b"NOTMAGIC").unwrap_err(),
            CommitLogError::BadMagic
        );
        let mut bytes = CommitLogWriter::new().into_bytes();
        bytes.push(0);
        assert_eq!(
            CommitLogReader::new(&bytes).unwrap_err(),
            CommitLogError::Truncated
        );
    }
}
