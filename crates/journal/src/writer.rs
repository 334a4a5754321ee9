//! Appending to a journal file.
//!
//! [`JournalWriter::open`] creates the file (with its header) or reopens
//! an existing one, re-verifying the whole chain and continuing from the
//! recovered tail — so one journal accumulates across runtime restarts
//! into the same directory, and any corruption is refused at open time
//! rather than silently extended.  The one break that is repaired is a
//! final record cut short — an append that never finished (disk full,
//! power loss): the file is cut back to the last whole record.  Each
//! [`JournalWriter::append`] writes exactly one framed record at the tail:
//! O(1) in the journal length.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use cr_core::CrError;

use crate::entry::{JournalEntry, GENESIS_HASH};
use crate::format::{encode_record, header_bytes};
use crate::read::{parse_bytes, Break};

/// Conventional file name of a runtime's journal (`<dir>/ft.jrnl`).
pub const FILE_NAME: &str = "ft.jrnl";

/// Append handle to one journal file.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
    next_seq: u64,
    prev_hash: u64,
    bytes: u64,
    /// fsync after every N appends (0 = rely on OS writeback; the final
    /// flush still syncs).
    fsync_every: u64,
    appends_since_sync: u64,
}

impl JournalWriter {
    /// Open `path` for appending, creating it (and its parent directory)
    /// if needed.  An existing file is fully re-verified; a broken
    /// journal is refused so tampering or corruption can never be buried
    /// under fresh valid records — except a truncated last record, which
    /// is dropped: refusing that would turn one partial append into a
    /// runtime directory no job can launch into again.
    pub fn open(path: &Path, fsync_every: u64) -> Result<Self, CrError> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| CrError::io(parent.display().to_string(), &e))?;
        }
        let ctx = || path.display().to_string();
        let (next_seq, prev_hash, bytes) = if path.exists() {
            let data = std::fs::read(path).map_err(|e| CrError::io(ctx(), &e))?;
            let (entries, broken) = parse_bytes(&data);
            let bytes = match broken {
                None => data.len() as u64,
                Some(Break::Truncated { offset, .. }) => {
                    OpenOptions::new()
                        .write(true)
                        .open(path)
                        .and_then(|file| file.set_len(offset))
                        .map_err(|e| CrError::io(ctx(), &e))?;
                    offset
                }
                Some(b) => {
                    return Err(CrError::protocol(format!(
                        "refusing to append to broken journal {}: {b}",
                        path.display()
                    )))
                }
            };
            let tail = entries.last().map(|e| e.hash).unwrap_or(GENESIS_HASH);
            (entries.len() as u64, tail, bytes)
        } else {
            let mut file = File::create(path).map_err(|e| CrError::io(ctx(), &e))?;
            file.write_all(&header_bytes())
                .map_err(|e| CrError::io(ctx(), &e))?;
            (0, GENESIS_HASH, header_bytes().len() as u64)
        };
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| CrError::io(ctx(), &e))?;
        Ok(JournalWriter {
            file,
            path: path.to_path_buf(),
            next_seq,
            prev_hash,
            bytes,
            fsync_every,
            appends_since_sync: 0,
        })
    }

    /// Append one event; returns its seq.
    pub fn append(
        &mut self,
        actor: &str,
        phase: &str,
        detail: &str,
        elapsed_ns: u64,
    ) -> Result<u64, CrError> {
        let entry = JournalEntry::chained(
            self.next_seq,
            self.prev_hash,
            actor,
            phase,
            detail,
            elapsed_ns,
        );
        let rec = encode_record(&entry)?;
        self.file
            .write_all(&rec)
            .map_err(|e| CrError::io(self.path.display().to_string(), &e))?;
        self.prev_hash = entry.hash;
        self.next_seq += 1;
        self.bytes += rec.len() as u64;
        if self.fsync_every > 0 {
            self.appends_since_sync += 1;
            if self.appends_since_sync >= self.fsync_every {
                self.flush()?;
            }
        }
        Ok(entry.seq)
    }

    /// Sync appended records to disk.
    pub fn flush(&mut self) -> Result<(), CrError> {
        self.appends_since_sync = 0;
        self.file
            .sync_data()
            .map_err(|e| CrError::io(self.path.display().to_string(), &e))
    }

    /// Path of the journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Seq the next append will use (= entries written so far).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Hash of the newest entry ([`GENESIS_HASH`] when empty).
    pub fn tail_hash(&self) -> u64 {
        self.prev_hash
    }

    /// Current file size in bytes (header + records).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read::{read_entries, verify};

    fn tmpfile(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "journal_writer_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir.join(FILE_NAME)
    }

    #[test]
    fn append_reopen_append_chains_across_sessions() {
        let path = tmpfile("reopen");
        {
            let mut w = JournalWriter::open(&path, 0).unwrap();
            assert_eq!(w.append("rank0", "a.b", "one", 1).unwrap(), 0);
            assert_eq!(w.append("", "c.d", "two", 2).unwrap(), 1);
            w.flush().unwrap();
        }
        {
            let mut w = JournalWriter::open(&path, 0).unwrap();
            assert_eq!(w.next_seq(), 2);
            assert_eq!(w.append("rank1", "e.f", "three", 3).unwrap(), 2);
            assert_eq!(w.bytes(), std::fs::metadata(&path).unwrap().len());
        }
        let report = verify(&path).unwrap();
        assert!(report.ok(), "{}", report.render());
        let entries = read_entries(&path).unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[2].detail, "three");
        assert_eq!(entries[1].hash, entries[2].prev_hash);
    }

    #[test]
    fn broken_journal_refused_at_open() {
        let path = tmpfile("refuse");
        {
            let mut w = JournalWriter::open(&path, 0).unwrap();
            w.append("", "a.b", "x", 0).unwrap();
        }
        // Corrupt one payload byte, then try to reopen.
        let mut data = std::fs::read(&path).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0x01;
        std::fs::write(&path, &data).unwrap();
        let err = JournalWriter::open(&path, 0).unwrap_err();
        assert!(err.to_string().contains("broken journal"), "{err}");
    }

    #[test]
    fn record_cut_short_is_dropped_at_open_and_appending_goes_on() {
        const N: u64 = 4;
        let path = tmpfile("torn");
        {
            let mut w = JournalWriter::open(&path, 0).unwrap();
            for i in 0..N {
                w.append("rank0", "a.b", &format!("entry {i}"), i).unwrap();
            }
        }
        let whole = std::fs::read(&path).unwrap();
        let last_record = whole.len() - read_offsets(&whole)[N as usize - 1];
        // Every way the last append can have stopped short, from one byte
        // missing to one byte written.
        for chop in 1..last_record {
            std::fs::write(&path, &whole[..whole.len() - chop]).unwrap();
            let mut w = JournalWriter::open(&path, 0).unwrap();
            assert_eq!(w.next_seq(), N - 1, "chop {chop}");
            assert_eq!(w.append("rank0", "a.b", "after the cut", 9).unwrap(), N - 1);
            assert_eq!(w.bytes(), std::fs::metadata(&path).unwrap().len());
            drop(w);
            let report = verify(&path).unwrap();
            assert!(report.ok(), "chop {chop}: {}", report.render());
            assert_eq!(report.entries as u64, N, "chop {chop}");
            let newest = &read_entries(&path).unwrap()[N as usize - 1];
            assert_eq!(newest.detail, "after the cut");
        }
        // A flipped byte in the middle of the file is still refused.
        let mut flipped = whole.clone();
        flipped[read_offsets(&whole)[1] + crate::format::RECORD_HEADER_LEN + 2] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        let err = JournalWriter::open(&path, 0).unwrap_err();
        assert!(err.to_string().contains("broken journal"), "{err}");
    }

    /// Byte offset of each record of a clean journal.
    fn read_offsets(data: &[u8]) -> Vec<usize> {
        let (entries, broken) = parse_bytes(data);
        assert!(broken.is_none());
        let mut at = header_bytes().len();
        entries
            .iter()
            .map(|e| {
                let start = at;
                at += encode_record(e).unwrap().len();
                start
            })
            .collect()
    }

    #[test]
    fn fsync_interval_flushes() {
        let path = tmpfile("fsync");
        let mut w = JournalWriter::open(&path, 2).unwrap();
        for i in 0..5 {
            w.append("", "a.b", &i.to_string(), i).unwrap();
        }
        assert_eq!(verify(&path).unwrap().entries, 5);
    }
}
