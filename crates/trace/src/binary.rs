//! Compact binary trace encoding.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   b"UFTR"                      4 bytes
//! version u16                          2 bytes
//! device  u16 length + UTF-8 bytes
//! label   u16 length + UTF-8 bytes
//! count   u64                          8 bytes
//! records count × 33 bytes:
//!   op          u8   (0 = read, 1 = write)
//!   sectors     u32
//!   lba         u64
//!   submit_ns   u64
//!   complete_ns u64
//!   queue_depth u32
//! ```
//!
//! 33 bytes per IO versus ~100 for the JSONL rendering; a million-IO
//! capture is a 33 MB file. The reader validates the total length
//! before allocating, so a corrupt header cannot trigger a huge
//! reservation.

use crate::error::TraceError;
use crate::record::TraceRecord;
use crate::trace::Trace;
use crate::Result;
use std::path::Path;
use uflip_patterns::Mode;

/// Magic bytes opening every binary trace.
pub const MAGIC: [u8; 4] = *b"UFTR";

/// Encoding version.
pub const BINARY_VERSION: u16 = 1;

/// Encoded size of one record.
pub const RECORD_BYTES: usize = 1 + 4 + 8 + 8 + 8 + 4;

impl Trace {
    /// Encode the trace into the compact binary format.
    ///
    /// # Panics
    ///
    /// If `device` or `label` exceeds 65535 bytes (the u16 length
    /// prefix). [`Trace::save_binary`] reports this as an error
    /// instead.
    pub fn to_binary(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            MAGIC.len()
                + 2
                + 4
                + self.device.len()
                + self.label.len()
                + 8
                + self.records.len() * RECORD_BYTES,
        );
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&BINARY_VERSION.to_le_bytes());
        put_str(&mut out, &self.device);
        put_str(&mut out, &self.label);
        out.extend_from_slice(&(self.records.len() as u64).to_le_bytes());
        for r in &self.records {
            out.push(match r.op {
                Mode::Read => 0,
                Mode::Write => 1,
            });
            out.extend_from_slice(&r.sectors.to_le_bytes());
            out.extend_from_slice(&r.lba.to_le_bytes());
            out.extend_from_slice(&r.submit_ns.to_le_bytes());
            out.extend_from_slice(&r.complete_ns.to_le_bytes());
            out.extend_from_slice(&r.queue_depth.to_le_bytes());
        }
        out
    }

    /// Decode a binary trace (the inverse of [`Trace::to_binary`]).
    pub fn from_binary(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(MAGIC.len())? != MAGIC {
            return Err(TraceError::format("bad magic: not a uflip trace"));
        }
        let version = r.u16()?;
        if version != BINARY_VERSION {
            return Err(TraceError::format(format!(
                "unsupported binary trace version {version} (expected {BINARY_VERSION})"
            )));
        }
        let device = r.string()?;
        let label = r.string()?;
        let count = r.u64()?;
        let remaining = bytes.len() - r.pos;
        let expected = (count as usize).checked_mul(RECORD_BYTES);
        if expected != Some(remaining) {
            return Err(TraceError::format(format!(
                "record section holds {remaining} bytes, header promises {count} records \
                 of {RECORD_BYTES} bytes"
            )));
        }
        let mut trace = Trace::new(device, label);
        trace.records.reserve_exact(count as usize);
        for _ in 0..count {
            let op = match r.u8()? {
                0 => Mode::Read,
                1 => Mode::Write,
                other => {
                    return Err(TraceError::format(format!("invalid op byte {other}")));
                }
            };
            let sectors = r.u32()?;
            let lba = r.u64()?;
            let submit_ns = r.u64()?;
            let complete_ns = r.u64()?;
            let queue_depth = r.u32()?;
            trace.push(TraceRecord {
                op,
                lba,
                sectors,
                submit_ns,
                complete_ns,
                queue_depth,
            });
        }
        Ok(trace)
    }

    /// Write the binary encoding to a file, creating parent
    /// directories. Unlike [`Trace::to_binary`], over-long metadata
    /// strings are reported as a [`TraceError`] rather than a panic.
    pub fn save_binary(&self, path: &Path) -> Result<()> {
        for (what, s) in [("device", &self.device), ("label", &self.label)] {
            if s.len() > usize::from(u16::MAX) {
                return Err(TraceError::format(format!(
                    "{what} name of {} bytes exceeds the binary format's u16 length prefix",
                    s.len()
                )));
            }
        }
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_binary())?;
        Ok(())
    }

    /// Read a binary trace file.
    pub fn load_binary(path: &Path) -> Result<Self> {
        Self::from_binary(&std::fs::read(path)?)
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    #[expect(
        clippy::expect_used,
        reason = "metadata strings are device names and labels far below 64 KiB; a longer one is a construction-time programmer error"
    )]
    let len = u16::try_from(s.len()).expect("trace metadata strings are short");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| {
                TraceError::format(format!("truncated trace: need {n} bytes at {}", self.pos))
            })?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Take exactly `N` bytes as a fixed array. `take` already
    /// guarantees the length, so the conversion only fails on a
    /// truncated trace.
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        self.take(N)?
            .try_into()
            .map_err(|_| TraceError::format("truncated trace field"))
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn string(&mut self) -> Result<String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| TraceError::format("metadata string is not UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new("mtron", "btree-mix");
        for i in 0..5u64 {
            t.push(TraceRecord {
                op: if i % 3 == 0 { Mode::Write } else { Mode::Read },
                lba: i * 128 + 7,
                sectors: 16,
                submit_ns: i * 50_000,
                complete_ns: i * 50_000 + 200_000,
                queue_depth: (i % 4) as u32 + 1,
            });
        }
        t
    }

    #[test]
    fn round_trip_is_identity() {
        let t = sample();
        let bytes = t.to_binary();
        assert_eq!(
            bytes.len(),
            4 + 2 + 2 + 5 + 2 + 9 + 8 + 5 * RECORD_BYTES,
            "layout matches the documented sizes"
        );
        assert_eq!(Trace::from_binary(&bytes).unwrap(), t);
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = Trace::new("", "");
        assert_eq!(Trace::from_binary(&t.to_binary()).unwrap(), t);
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        let t = sample();
        let bytes = t.to_binary();
        assert!(Trace::from_binary(&bytes[..bytes.len() - 1]).is_err());
        assert!(Trace::from_binary(b"NOPE").is_err());
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 0xFF;
        assert!(Trace::from_binary(&wrong_version).is_err());
        // Header promising more records than the buffer holds must
        // fail before any allocation.
        let mut lying = bytes.clone();
        let count_at = 4 + 2 + 2 + t.device.len() + 2 + t.label.len();
        lying[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Trace::from_binary(&lying).is_err());
        // An invalid op byte in the first record.
        let mut bad_op = bytes;
        bad_op[count_at + 8] = 9;
        assert!(Trace::from_binary(&bad_op).is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("uflip-tracebin-{}", std::process::id()));
        let path = dir.join("t.bin");
        let t = sample();
        t.save_binary(&path).unwrap();
        assert_eq!(Trace::load_binary(&path).unwrap(), t);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn oversized_metadata_is_an_error_not_a_panic() {
        let mut t = sample();
        t.label = "x".repeat(70_000);
        let err = t
            .save_binary(&std::env::temp_dir().join("uflip-never-written.bin"))
            .unwrap_err();
        assert!(err.to_string().contains("u16 length prefix"));
    }
}
